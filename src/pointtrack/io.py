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
``synth`` writes parses. The writers write only what the parsers read:
``write_detections`` and ``write_tracks`` raise a ``UserError`` naming the
frame on anything else (``tracker.check_detections``,
``tracker.records_by_frame``), and a ``GroundTruth`` checks itself when built.

Each data format is one converter and one table of the fields after the
frame, each named with its reader. A parser converts the whole file first:
each non-blank line is split on commas, its fields go through int(),
float() and the code tables, and the records, grouped by frame, go to the
check the library already applies to that record type
(``tracker.check_detections`` per frame, ``tracker.records_by_frame``, the
``GroundTruth`` constructor). The converters test no range and no id; the
checks do. If a line does not convert (a field int() or float() cannot
strip, U+001C to U+001F, which ``str.strip()`` strips, included) or the
check raises, the whole text is read again line by line through the table
(``_located``), which skips blank lines and raises the ParseError naming
the first faulty line and its first fault, or converts each stripped line
to the same records. The writers format each line with one ``%`` string,
whose ``%s`` and ``%.6f`` give the bytes of ``{}`` and ``{:.6f}``.

Config file -- ``key = value`` lines, ``#`` starts a comment, unknown or
    duplicate keys are errors, missing keys take the documented defaults.
    Keys are exactly the TrackerConfig and ScenarioSpec field names;
    ``bounds`` is WIDTHxHEIGHT and ``targets`` is a semicolon-separated
    list of ``birth,death,x,y,vx,vy`` tuples.
"""

from __future__ import annotations

import dataclasses
import math
from collections import defaultdict
from functools import partial
from itertools import groupby
from operator import itemgetter
from typing import Callable, Iterable, Mapping, Sequence, get_type_hints

from .errors import ParamError, ParseError, UserError, check_kind, check_pair
from .synth import GroundTruth, ScenarioSpec, TargetPath
from .tracker import (
    COORD_LIMIT,
    Detection,
    FrameResult,
    RecordSource,
    TrackerConfig,
    TrackRecord,
    TrackStatus,
    check_detections,
    records_by_frame,
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


def _read_coord(token: str, line_no: int, what: str, frame: int, seen: dict) -> None:
    value = _parse_float(token, line_no, what)
    if abs(value) > COORD_LIMIT:
        raise ParseError(
            f"{what} must lie within +-{COORD_LIMIT:g}, got {value:g}", line=line_no
        )


def _read_confidence(token: str, line_no: int, what: str, frame: int, seen: dict) -> None:
    value = _parse_float(token, line_no, what)
    if not 0.0 <= value <= 1.0:
        raise ParseError(f"{what} must lie in [0, 1], got {value}", line=line_no)


def _read_id(token: str, line_no: int, what: str, frame: int, seen: dict) -> None:
    """An id >= 1 not yet read in its frame; it is added to ``seen``."""
    value = _parse_int(token, line_no, what)
    if value < 1:
        raise ParseError(f"{what} must be >= 1, got {value}", line=line_no)
    ids = seen.setdefault(frame, set())
    if value in ids:
        raise ParseError(f"{what} {value} appears twice in frame {frame}", line=line_no)
    ids.add(value)


def _read_code(by_code: dict, token: str, line_no: int, what: str, frame: int, seen: dict):
    """A one-letter code, one of the keys of ``by_code``."""
    if token.strip() not in by_code:
        raise ParseError(f"{what} must be {' or '.join(by_code)}, got {token!r}", line=line_no)


def _located(
    raw: str, line_no: int, fields: tuple, seen: dict[int, set[int]], optional: int = 0
) -> list[str] | None:
    """Check one data line field by field: None when it is blank, else its stripped fields.

    ``fields`` is the format's table: the fields after the frame in file
    order, as (name, reader) pairs, of which a line may leave out the last
    ``optional``. A reader takes the field's token, the line number, the
    name, the frame and ``seen`` (the ids read so far, by frame), and raises
    the ParseError naming the line and the field's fault. So the first
    fault of the line is the one raised.
    """
    line = raw.strip()
    if not line:
        return None
    tokens = line.split(",")
    names = ["frame", *(name for name, _ in fields)]
    required = len(names) - optional
    if not required <= len(tokens) <= len(names):
        layout = ",".join(names[:required]) + "".join(f"[,{n}]" for n in names[required:])
        raise ParseError(f"expected {layout}, got {len(tokens)} fields", line=line_no)
    frame = _parse_int(tokens[0], line_no, "frame")
    if frame < 1:
        raise ParseError(f"frame must be >= 1, got {frame}", line=line_no)
    for (name, read), token in zip(fields, tokens[1:]):
        read(token, line_no, name, frame, seen)
    return [token.strip() for token in tokens]


def _read_lines(text: str, convert: Callable, fields: tuple, check: Callable, optional: int = 0):
    """Read a data file: its records grouped by frame, frames ascending, as ``check`` returns them.

    The whole file is converted first: ``convert(tokens)`` turns a
    non-blank line split on commas into (frame, record), or raises
    ValueError, IndexError or KeyError when a field count, a number or a
    code does not convert. ``check(grouped)`` is the library's check of
    the record type; it returns the parsed value or raises a UserError. On
    any of these failures the whole text is read again line by line:
    `_located` skips a blank line, raises the ParseError naming the first
    faulty line, or returns its stripped fields, which ``convert`` then
    converts.
    """
    grouped: defaultdict[int, list] = defaultdict(list)
    try:
        for raw in text.split("\n"):
            if raw and not raw.isspace():
                frame, record = convert(raw.split(","))
                grouped[frame].append(record)
        return check(dict(sorted(grouped.items())))
    except (ValueError, IndexError, KeyError, UserError):
        pass
    grouped, seen = defaultdict(list), {}
    for line_no, raw in enumerate(text.split("\n"), start=1):
        tokens = _located(raw, line_no, fields, seen, optional)
        if tokens is not None:
            frame, record = convert(tokens)
            grouped[frame].append(record)
    return check(dict(sorted(grouped.items())))


_DETECTION_FIELDS = (("x", _read_coord), ("y", _read_coord), ("confidence", _read_confidence))


def _fast_detection(tokens: list[str]) -> tuple[int, Detection]:
    frame, x, y, confidence = tokens if len(tokens) == 4 else (*tokens, 1.0)
    frame = int(frame)
    return frame, Detection(frame, float(x), float(y), float(confidence))


def _checked_detections(grouped: dict[int, list[Detection]]) -> dict[int, list[Detection]]:
    for frame, detections in grouped.items():
        check_detections(frame, detections)
    return grouped


def parse_detections(text: str) -> dict[int, list[Detection]]:
    """Parse a detection file into a frame-indexed map, frames ascending."""
    return _read_lines(
        text, _fast_detection, _DETECTION_FIELDS, _checked_detections, optional=1
    )


def write_detections(detections: Iterable[Detection]) -> str:
    """Serialize detections, frames ascending, stable within a frame.

    Raises:
        UserError: on a detection with no item 0, or frames that do not
            compare; naming the frame, on a detection `parse_detections` would
            reject: one that is not (frame, x, y, confidence), a frame below
            1, a coordinate or confidence that is not a
            real number, a coordinate that is not finite or lies beyond
            COORD_LIMIT, or a confidence outside [0, 1]
            (`tracker.check_detections`).
    """
    # By item 0, a Detection's frame, so a tuple of the wrong length still
    # reaches `check_detections`, which names its frame.
    try:
        ordered = sorted(detections, key=itemgetter(0))
    except (TypeError, LookupError) as error:  # no item 0, or frames that do not compare
        raise UserError(f"each detection must be (frame, x, y, confidence); {error}") from None
    for frame, frame_detections in groupby(ordered, itemgetter(0)):
        check_detections(frame, frame_detections)
    line = "%s,%.6f,%.6f,%.6f\n"
    return "".join([line % d for d in ordered])


_STATUS_BY_CHAR = {s.value: s for s in TrackStatus}
_SOURCE_BY_CHAR = {s.value: s for s in RecordSource}
_TRACK_FIELDS = (
    ("track_id", _read_id),
    ("x", _read_coord),
    ("y", _read_coord),
    ("vx", _read_coord),
    ("vy", _read_coord),
    ("status", partial(_read_code, _STATUS_BY_CHAR)),
    ("source", partial(_read_code, _SOURCE_BY_CHAR)),
)


def _fast_track(tokens: list[str]) -> tuple[int, TrackRecord]:
    frame, track_id, x, y, vx, vy, status, source = tokens
    status, source = _STATUS_BY_CHAR[status.strip()], _SOURCE_BY_CHAR[source.strip()]
    return int(frame), TrackRecord(
        int(track_id), float(x), float(y), float(vx), float(vy), status, source
    )


def parse_tracks(text: str) -> dict[int, list[TrackRecord]]:
    """Parse a track file into a frame-indexed record map, frames then track ids ascending."""
    return _read_lines(
        text,
        _fast_track,
        _TRACK_FIELDS,
        lambda grouped: records_by_frame(
            FrameResult(frame, records, [], []) for frame, records in grouped.items()
        ),
    )


def write_tracks(results: Sequence[FrameResult]) -> str:
    """Serialize frame results in the canonical order (frame, then id).

    Writes the lines of `tracker.records_by_frame(results)`, so a frame
    with no records writes none, and `parse_tracks` reads every file it
    writes.

    Raises:
        AlignmentError: on a frame below 1 or given twice.
        UserError: when a record is not a `TrackRecord`, a track id is
            below 1 or appears twice in its frame, a position or velocity is
            not a real number, is not finite or lies beyond COORD_LIMIT, or
            the status or source is not one of its enum's members.
    """
    line = "%s,%s,%.6f,%.6f,%.6f,%.6f,%s,%s\n"
    # `_value_` is the member's value without the `value` property's cost.
    lines = [
        line % (frame, track_id, x, y, vx, vy, status._value_, source._value_)
        for frame, records in records_by_frame(results).items()
        for track_id, x, y, vx, vy, status, source in records
    ]
    return "".join(lines)


_GROUND_TRUTH_FIELDS = (("gt_id", _read_id), ("x", _read_coord), ("y", _read_coord))


def _fast_ground_truth(tokens: list[str]) -> tuple[int, tuple[int, float, float]]:
    frame, gt_id, x, y = tokens
    return int(frame), (int(gt_id), float(x), float(y))


def parse_ground_truth(text: str) -> GroundTruth:
    """Parse a ground-truth file (``frame,gt_id,x,y``)."""
    return _read_lines(text, _fast_ground_truth, _GROUND_TRUTH_FIELDS, GroundTruth)


def write_ground_truth(gt: GroundTruth) -> str:
    line = "%s,%s,%.6f,%.6f\n"
    return "".join(
        [line % (frame, *point) for frame in sorted(gt.frames) for point in gt.frames[frame]]
    )


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
    """Render one SVG 1.1 document per frame of `tracker.records_by_frame(results)`.

    Each live track is drawn as a circle at its reported position (filled
    when confirmed, outlined while tentative), an id label, and a polyline
    over its last TRAIL_LENGTH reported positions. Colors come from the
    fixed palette keyed by id, ground truth (when given) appears as small
    neutral crosses. Output is a deterministic function of the inputs.

    Raises:
        ParamError: when `bounds` is not a pair of real numbers in (0,
            COORD_LIMIT], as `synth.ScenarioSpec` checks its bounds.
        UserError: when `gt` is given and is not a `synth.GroundTruth`.
        AlignmentError, UserError: as `records_by_frame`, on results a track
            file could not hold.
    """
    width, height = check_pair(ParamError, "bounds", bounds, 0, COORD_LIMIT, above=True)
    if gt is not None:
        check_kind(UserError, "gt", gt, GroundTruth)
    trails: dict[int, list[tuple[float, float]]] = {}
    documents = []
    for frame, records in records_by_frame(results).items():
        parts = [
            '<?xml version="1.0" encoding="UTF-8"?>\n',
            f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'width="{width:g}" height="{height:g}" viewBox="0 0 {width:g} {height:g}">\n',
            f'<rect x="0" y="0" width="{width:g}" height="{height:g}" fill="#14141e"/>\n',
        ]
        if gt is not None:
            for _, x, y in gt.at(frame):
                parts.append(
                    f'<path d="M {_svg_coord(x - 3)} {_svg_coord(y)} h 6 '
                    f'M {_svg_coord(x)} {_svg_coord(y - 3)} v 6" '
                    f'stroke="#8888aa" stroke-width="1" fill="none"/>\n'
                )
        for rec in records:
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
        documents.append((frame, "".join(parts)))
    return documents
