"""File formats, configuration parsing, and static SVG overlays.

The three text formats are this module's contract, bit for bit:

Detection file  -- one detection per line, ``frame,x,y[,confidence]``.
    frame is a positive integer, coordinates are decimals with a dot
    separator, the optional confidence lies in [0, 1]. No header, UTF-8,
    LF line endings, blank lines ignored. Lines need not be sorted on
    disk; the parser sorts by frame.

Track file -- one record per line,
    ``frame,track_id,x,y,vx,vy,status,source`` with status T (tentative)
    or C (confirmed) and source M (measured) or P (predicted/coasted).
    Writers emit frames ascending, then track ids ascending, floats with
    exactly six decimals, so equal runs produce byte-identical files.

Ground-truth file -- ``frame,gt_id,x,y``, same conventions.

Track and ground-truth ids are integers >= 1, each at most once per frame.

Positions (x, y in every file) and track velocities (vx, vy) must lie in
[-COORD_LIMIT, COORD_LIMIT], the tracker's bound re-exported here.
``ScenarioSpec`` rejects scenes whose points could leave it, so every file
``synth`` writes parses.

Config file -- ``key = value`` lines, ``#`` starts a comment, unknown or
    duplicate keys are errors, missing keys take the documented defaults.
    Keys are exactly the TrackerConfig and ScenarioSpec field names;
    ``bounds`` is WIDTHxHEIGHT and ``targets`` is a semicolon-separated
    list of ``birth,death,x,y,vx,vy`` tuples.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Iterable, Iterator, Mapping, Sequence, get_type_hints

from .errors import ParseError
from .synth import GroundTruth, ScenarioSpec, TargetPath
from .tracker import (
    COORD_LIMIT,
    Detection,
    FrameResult,
    RecordSource,
    TrackerConfig,
    TrackRecord,
    TrackStatus,
)

_TRACKER_KEYS = tuple(f.name for f in dataclasses.fields(TrackerConfig))
_SCENARIO_KEYS = tuple(f.name for f in dataclasses.fields(ScenarioSpec))
_INT_KEYS = {
    name
    for cls in (TrackerConfig, ScenarioSpec)
    for name, hint in get_type_hints(cls).items()
    if hint is int
}

# Fixed 12-color palette; a track's color is palette[track_id % 12].
PALETTE = (
    "#e6194b",
    "#3cb44b",
    "#ffe119",
    "#4363d8",
    "#f58231",
    "#911eb4",
    "#46f0f0",
    "#f032e6",
    "#bcf60c",
    "#fabebe",
    "#008080",
    "#e6beff",
)

TRAIL_LENGTH = 20


def _fmt(value: float) -> str:
    return f"{value:.6f}"


def _parse_int(token: str, line_no: int, what: str) -> int:
    try:
        return int(token.strip())
    except ValueError:
        raise ParseError(f"{what} is not an integer: {token!r}", line=line_no) from None


def _parse_float(token: str, line_no: int, what: str) -> float:
    try:
        value = float(token.strip())
    except ValueError:
        raise ParseError(f"{what} is not a number: {token!r}", line=line_no) from None
    if not math.isfinite(value):
        raise ParseError(f"{what} must be finite: {token!r}", line=line_no)
    return value


def _parse_coord(token: str, line_no: int, what: str) -> float:
    value = _parse_float(token, line_no, what)
    if abs(value) > COORD_LIMIT:
        raise ParseError(
            f"{what} must lie within +-{COORD_LIMIT:g}, got {value:g}", line=line_no
        )
    return value


def _parse_id(
    token: str, line_no: int, what: str, frame: int, seen: dict[int, set[int]]
) -> int:
    """Parse an id that must be >= 1 and unique within its frame.

    ``seen`` maps each frame to the ids read so far and is updated.
    """
    value = _parse_int(token, line_no, what)
    if value < 1:
        raise ParseError(f"{what} must be >= 1, got {value}", line=line_no)
    ids = seen.setdefault(frame, set())
    if value in ids:
        raise ParseError(f"{what} {value} appears twice in frame {frame}", line=line_no)
    ids.add(value)
    return value


def _records(
    text: str, layout: str, field_counts: tuple[int, ...]
) -> Iterator[tuple[int, int, list[str]]]:
    """Yield (line_no, frame, fields) for each nonblank line of a data file.

    Checks the field count against ``field_counts`` (``layout`` names the
    fields in the error) and that the leading frame is an integer >= 1.
    """
    for line_no, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line:
            continue
        fields = line.split(",")
        if len(fields) not in field_counts:
            raise ParseError(
                f"expected {layout}, got {len(fields)} fields", line=line_no
            )
        frame = _parse_int(fields[0], line_no, "frame")
        if frame < 1:
            raise ParseError(f"frame must be >= 1, got {frame}", line=line_no)
        yield line_no, frame, fields


def parse_detections(text: str) -> dict[int, list[Detection]]:
    """Parse a detection file into a frame-indexed map, frames ascending."""
    grouped: dict[int, list[Detection]] = {}
    for line_no, frame, fields in _records(text, "frame,x,y[,confidence]", (3, 4)):
        x = _parse_coord(fields[1], line_no, "x")
        y = _parse_coord(fields[2], line_no, "y")
        confidence = 1.0
        if len(fields) == 4:
            confidence = _parse_float(fields[3], line_no, "confidence")
            if not 0.0 <= confidence <= 1.0:
                raise ParseError(
                    f"confidence must lie in [0, 1], got {confidence}", line=line_no
                )
        grouped.setdefault(frame, []).append(
            Detection(frame=frame, x=x, y=y, confidence=confidence)
        )
    return dict(sorted(grouped.items()))


def write_detections(detections: Iterable[Detection]) -> str:
    """Serialize detections, frames ascending, stable within a frame."""
    ordered = sorted(detections, key=lambda d: d.frame)
    return "".join(
        f"{d.frame},{_fmt(d.x)},{_fmt(d.y)},{_fmt(d.confidence)}\n" for d in ordered
    )


def parse_tracks(text: str) -> dict[int, list[TrackRecord]]:
    """Parse a track file into a frame-indexed record map."""
    status_by_char = {s.value: s for s in TrackStatus}
    source_by_char = {s.value: s for s in RecordSource}
    grouped: dict[int, list[TrackRecord]] = {}
    seen_ids: dict[int, set[int]] = {}
    layout = "frame,track_id,x,y,vx,vy,status,source"
    for line_no, frame, fields in _records(text, layout, (8,)):
        track_id = _parse_id(fields[1], line_no, "track_id", frame, seen_ids)
        x = _parse_coord(fields[2], line_no, "x")
        y = _parse_coord(fields[3], line_no, "y")
        vx = _parse_coord(fields[4], line_no, "vx")
        vy = _parse_coord(fields[5], line_no, "vy")
        status = status_by_char.get(fields[6].strip())
        if status is None:
            raise ParseError(f"status must be T or C, got {fields[6]!r}", line=line_no)
        source = source_by_char.get(fields[7].strip())
        if source is None:
            raise ParseError(f"source must be M or P, got {fields[7]!r}", line=line_no)
        grouped.setdefault(frame, []).append(
            TrackRecord(track_id, x, y, vx, vy, status, source)
        )
    for records in grouped.values():
        records.sort(key=lambda r: r.track_id)
    return dict(sorted(grouped.items()))


def write_tracks(results: Sequence[FrameResult]) -> str:
    """Serialize frame results in the canonical order (frame, then id)."""
    lines = []
    for result in sorted(results, key=lambda r: r.frame):
        for rec in sorted(result.records, key=lambda r: r.track_id):
            lines.append(
                f"{result.frame},{rec.track_id},{_fmt(rec.x)},{_fmt(rec.y)},"
                f"{_fmt(rec.vx)},{_fmt(rec.vy)},{rec.status.value},{rec.source.value}\n"
            )
    return "".join(lines)


def parse_ground_truth(text: str) -> GroundTruth:
    """Parse a ground-truth file (``frame,gt_id,x,y``)."""
    frames: dict[int, list[tuple[int, float, float]]] = {}
    seen_ids: dict[int, set[int]] = {}
    for line_no, frame, fields in _records(text, "frame,gt_id,x,y", (4,)):
        gt_id = _parse_id(fields[1], line_no, "gt_id", frame, seen_ids)
        x = _parse_coord(fields[2], line_no, "x")
        y = _parse_coord(fields[3], line_no, "y")
        frames.setdefault(frame, []).append((gt_id, x, y))
    n_frames = max(frames) if frames else 0
    return GroundTruth(n_frames=n_frames, frames=dict(sorted(frames.items())))


def write_ground_truth(gt: GroundTruth) -> str:
    lines = []
    for frame in sorted(gt.frames):
        for gt_id, x, y in gt.frames[frame]:
            lines.append(f"{frame},{gt_id},{_fmt(x)},{_fmt(y)}\n")
    return "".join(lines)


def _parse_bounds(token: str, line_no: int) -> tuple[float, float]:
    parts = token.lower().split("x")
    if len(parts) != 2:
        raise ParseError(f"bounds must be WIDTHxHEIGHT, got {token!r}", line=line_no)
    width = _parse_float(parts[0], line_no, "bounds width")
    height = _parse_float(parts[1], line_no, "bounds height")
    return width, height


def _parse_targets(token: str, line_no: int) -> tuple[TargetPath, ...]:
    token = token.strip()
    if not token:
        return ()
    targets = []
    for chunk in token.split(";"):
        fields = chunk.split(",")
        if len(fields) != 6:
            raise ParseError(
                f"target must be birth,death,x,y,vx,vy, got {chunk.strip()!r}",
                line=line_no,
            )
        targets.append(
            TargetPath(
                birth_frame=_parse_int(fields[0], line_no, "target birth_frame"),
                death_frame=_parse_int(fields[1], line_no, "target death_frame"),
                start_x=_parse_float(fields[2], line_no, "target start_x"),
                start_y=_parse_float(fields[3], line_no, "target start_y"),
                vx=_parse_float(fields[4], line_no, "target vx"),
                vy=_parse_float(fields[5], line_no, "target vy"),
            )
        )
    return tuple(targets)


def parse_config(text: str) -> dict[str, object]:
    """Parse ``key = value`` configuration text into typed values.

    Raises:
        ParseError: on unknown keys, duplicate keys, or malformed values.
    """
    known = set(_TRACKER_KEYS) | set(_SCENARIO_KEYS)
    values: dict[str, object] = {}
    for line_no, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"expected key = value, got {line!r}", line=line_no)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in known:
            raise ParseError(f"unknown configuration key {key!r}", line=line_no)
        if key in values:
            raise ParseError(f"duplicate configuration key {key!r}", line=line_no)
        if key == "bounds":
            values[key] = _parse_bounds(value, line_no)
        elif key == "targets":
            values[key] = _parse_targets(value, line_no)
        elif key in _INT_KEYS:
            values[key] = _parse_int(value, line_no, key)
        else:
            values[key] = _parse_float(value, line_no, key)
    return values


def tracker_config_from(values: Mapping[str, object]) -> TrackerConfig:
    """Build a TrackerConfig from parsed configuration, defaults for the rest."""
    kwargs = {k: values[k] for k in _TRACKER_KEYS if k in values}
    return TrackerConfig(**kwargs)  # type: ignore[arg-type]


def scenario_spec_from(values: Mapping[str, object]) -> ScenarioSpec:
    """Build a ScenarioSpec from parsed configuration, defaults for the rest."""
    kwargs = {k: values[k] for k in _SCENARIO_KEYS if k in values}
    kwargs.setdefault("n_frames", 100)
    return ScenarioSpec(**kwargs)  # type: ignore[arg-type]


def _svg_coord(value: float) -> str:
    return f"{value:.2f}"


def render_overlay(
    results: Sequence[FrameResult],
    bounds: tuple[float, float],
    gt: GroundTruth | None = None,
) -> list[tuple[int, str]]:
    """Render one SVG 1.1 document per frame result.

    Each live track is drawn as a circle at its reported position (filled
    when confirmed, outlined while tentative), an id label, and a polyline
    over its last TRAIL_LENGTH reported positions. Colors come from the
    fixed palette keyed by id, ground truth (when given) appears as small
    neutral crosses. Output is a deterministic function of the inputs.
    """
    width, height = float(bounds[0]), float(bounds[1])
    trails: dict[int, list[tuple[float, float]]] = {}
    documents = []
    for result in sorted(results, key=lambda r: r.frame):
        parts = [
            '<?xml version="1.0" encoding="UTF-8"?>\n',
            f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'width="{width:g}" height="{height:g}" viewBox="0 0 {width:g} {height:g}">\n',
            f'<rect x="0" y="0" width="{width:g}" height="{height:g}" fill="#14141e"/>\n',
        ]
        if gt is not None:
            for _, x, y in gt.at(result.frame):
                parts.append(
                    f'<path d="M {_svg_coord(x - 3)} {_svg_coord(y)} h 6 '
                    f'M {_svg_coord(x)} {_svg_coord(y - 3)} v 6" '
                    f'stroke="#8888aa" stroke-width="1" fill="none"/>\n'
                )
        for rec in sorted(result.records, key=lambda r: r.track_id):
            trail = trails.setdefault(rec.track_id, [])
            trail.append((rec.x, rec.y))
            del trail[:-TRAIL_LENGTH]
            color = PALETTE[rec.track_id % len(PALETTE)]
            if len(trail) >= 2:
                points = " ".join(
                    f"{_svg_coord(x)},{_svg_coord(y)}" for x, y in trail
                )
                parts.append(
                    f'<polyline points="{points}" fill="none" stroke="{color}" '
                    f'stroke-width="1.5" opacity="0.7"/>\n'
                )
            if rec.status is TrackStatus.CONFIRMED:
                style = f'fill="{color}"'
            else:
                style = f'fill="none" stroke="{color}" stroke-width="1.5"'
            parts.append(
                f'<circle cx="{_svg_coord(rec.x)}" cy="{_svg_coord(rec.y)}" r="4" {style}/>\n'
            )
            parts.append(
                f'<text x="{_svg_coord(rec.x + 6)}" y="{_svg_coord(rec.y - 6)}" '
                f'font-family="monospace" font-size="12" fill="{color}">'
                f"{rec.track_id}</text>\n"
            )
        parts.append("</svg>\n")
        documents.append((result.frame, "".join(parts)))
    return documents
