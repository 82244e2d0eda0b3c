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
``tracker.records_by_frame``, which checks each frame with
``tracker.check_records``), and a ``GroundTruth`` checks itself when built.

Each data format is one table of the fields after the frame: each field's
name, its located reader and its bulk kind (a dtype, or a code's table of
members by letter). A parser converts the whole file with one
``np.loadtxt`` call (`_bulk`): frame and ids as int64, coordinates as
float64, codes as "U2", so a code token that is not exactly a table key
(padded, or doubled: "U1" would cut "CC" to "C") misses the table. The
records are built from the columns with a C-level ``tuple.__new__``,
grouped by frame (one stable sort first when frames are out of order) and
handed to the check the library already applies to that record type: each
frame's to ``tracker.check_detections`` or ``tracker.check_records``
(``_each_frame``, which keeps what the check returns, so track records
come back sorted by id), the whole file's to the ``GroundTruth``
constructor. All three test the frame by one rule,
``tracker.check_frame``. The bulk read tests no range and no id; the
checks do. If the bulk read fails (a token ``loadtxt`` rejects, such as
``1_0`` or an integer beyond int64, which ``int()`` reads; a code off the
table; a line with another field count than the first; a NUL, which numpy
would drop from the end of a code) or the check raises, the whole text is
read again line by line through the table (``_located``), which skips
blank lines and raises the ParseError naming the first faulty line and
its first fault, or returns each line's values, which build the same
records. A text with no data line reads as no record without either read
(``loadtxt`` would warn on it). The writers format each line with one
``%`` string, whose ``%s`` and ``%.6f`` give the bytes of ``{}`` and
``{:.6f}``.

Config file -- ``key = value`` lines, ``#`` starts a comment, unknown or
    duplicate keys are errors, missing keys take the documented defaults.
    Keys are exactly the TrackerConfig and ScenarioSpec field names, and
    each value is read by the type the field is annotated with: an integer,
    a decimal, ``bounds`` as WIDTHxHEIGHT, and ``targets`` as a
    semicolon-separated list of ``birth,death,x,y,vx,vy`` tuples, each
    value typed as its ``TargetPath`` field.
"""

from __future__ import annotations

import math
from functools import partial
from itertools import groupby
from operator import itemgetter
from typing import Callable, Iterable, Mapping, Sequence, get_type_hints

import numpy as np

from .errors import ParamError, ParseError, SpecError, UserError, check_kind, check_pair
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
    check_records,
    records_by_frame,
)

# Each config field's type, by name: the annotations say which reader parses it.
_TRACKER_TYPES = get_type_hints(TrackerConfig)
_SCENARIO_TYPES = get_type_hints(ScenarioSpec)
_TARGET_TYPES = get_type_hints(TargetPath)

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


def _read_coord(token: str, line_no: int, what: str, frame: int, seen: dict) -> float:
    value = _parse_float(token, line_no, what)
    if abs(value) > COORD_LIMIT:
        raise ParseError(
            f"{what} must lie within +-{COORD_LIMIT:g}, got {value:g}", line=line_no
        )
    return value


def _read_confidence(token: str, line_no: int, what: str, frame: int, seen: dict) -> float:
    value = _parse_float(token, line_no, what)
    if not 0.0 <= value <= 1.0:
        raise ParseError(f"{what} must lie in [0, 1], got {value}", line=line_no)
    return value


def _read_id(token: str, line_no: int, what: str, frame: int, seen: dict) -> int:
    """An id >= 1 not yet read in its frame; it is added to ``seen``."""
    value = _parse_int(token, line_no, what)
    if value < 1:
        raise ParseError(f"{what} must be >= 1, got {value}", line=line_no)
    ids = seen.setdefault(frame, set())
    if value in ids:
        raise ParseError(f"{what} {value} appears twice in frame {frame}", line=line_no)
    ids.add(value)
    return value


def _read_code(by_code: dict, token: str, line_no: int, what: str, frame: int, seen: dict):
    """The member of ``by_code`` whose one-letter code the stripped token is."""
    if token.strip() not in by_code:
        raise ParseError(f"{what} must be {' or '.join(by_code)}, got {token!r}", line=line_no)
    return by_code[token.strip()]


def _located(raw: str, line_no: int, fields: tuple, seen: dict, defaults: tuple) -> list | None:
    """Read one data line field by field: None when it is blank, else its values, frame first.

    ``fields`` is the format's table: the fields after the frame in file
    order, as (name, reader, kind) triples, of which a line may leave out
    the last ``len(defaults)``, whose values are then ``defaults``. A reader
    takes the field's token, the line number, the name, the frame and
    ``seen`` (the ids read so far, by frame), and returns the value or
    raises the ParseError naming the line and the field's fault. So the
    first fault of the line is the one raised.
    """
    line = raw.strip()
    if not line:
        return None
    tokens = line.split(",")
    names = ["frame", *(name for name, _, _ in fields)]
    required = len(names) - len(defaults)
    if not required <= len(tokens) <= len(names):
        layout = ",".join(names[:required]) + "".join(f"[,{n}]" for n in names[required:])
        raise ParseError(f"expected {layout}, got {len(tokens)} fields", line=line_no)
    frame = _parse_int(tokens[0], line_no, "frame")
    if frame < 1:
        raise ParseError(f"frame must be >= 1, got {frame}", line=line_no)
    reads = zip(fields, tokens[1:])
    values = [read(token, line_no, name, frame, seen) for (name, read, _), token in reads]
    return [frame, *values, *defaults[len(tokens) - required :]]


def _bulk(text: str, fields: tuple, defaults: tuple) -> tuple[np.ndarray, list[list]]:
    """Convert the whole file with one `np.loadtxt` call: its frames and its columns, frame first.

    The first line's field count picks the layout. A code field (a ``kind``
    that is a dict) is read as "U2", so a token that is not exactly one of
    its keys, padded or doubled, misses the dict.

    Raises:
        ValueError: when a token does not convert, a line has another field
            count or the first too few, or the text holds a NUL, which numpy
            drops from the end of a string ("C\\0" would read as "C").
        KeyError: when a code is not one of its field's keys.
    """
    n_tokens = text.lstrip().partition("\n")[0].count(",") + 1
    required = len(fields) + 1 - len(defaults)
    if n_tokens < required or "\0" in text:
        raise ValueError("not a bulk-readable file")
    used = fields[: n_tokens - 1]
    dtype = [("frame", "i8")] + [(n, "U2" if type(k) is dict else k) for n, _, k in used]
    table = np.loadtxt(text.split("\n"), dtype=dtype, delimiter=",", comments=None, ndmin=1)
    columns = [table["frame"].tolist()]
    for name, _, kind in used:
        values = table[name].tolist()
        columns.append(list(map(kind.__getitem__, values)) if type(kind) is dict else values)
    columns += [[value] * len(table) for value in defaults[n_tokens - required :]]
    return table["frame"], columns


def _by_frame(frames: np.ndarray, records: list) -> dict[int, list]:
    """``records`` grouped by their ``frames``, frames ascending, file order within a frame."""
    if (frames[1:] < frames[:-1]).any():  # out of order: one stable sort
        order = frames.argsort(kind="stable")
        frames, records = frames[order], [records[i] for i in order.tolist()]
    starts = [0, *(np.flatnonzero(frames[1:] != frames[:-1]) + 1).tolist()]
    ends = [*starts[1:], len(records)]
    return {frame: records[a:b] for frame, a, b in zip(frames[starts].tolist(), starts, ends)}


def _read_lines(
    text: str, fields: tuple, record: type, check: Callable, first: int = 1, defaults: tuple = ()
):
    """Read a data file: its records grouped by frame, frames ascending, as ``check`` returns them.

    Each record is ``record`` built from the row's values from column
    ``first`` on (0 to keep the frame), with one C-level ``tuple.__new__``
    per row. The whole file is converted first by `_bulk`. ``check(grouped)``
    is the library's check of the record type; it returns the parsed value
    or raises a UserError. On any failure the whole text is read again line
    by line: `_located` skips a blank line, raises the ParseError naming the
    first faulty line, or returns its values, which build the same records.

    Raises:
        UserError: when ``text`` is not a str, and as ``check``.
        ParseError: naming the first faulty line, as `_located`.
    """
    check_kind(UserError, "text", text, str)
    if not text or text.isspace():  # no data line: nothing to convert or group
        return check({})
    make = partial(tuple.__new__, record)
    try:
        frames, columns = _bulk(text, fields, defaults)
        return check(_by_frame(frames, list(map(make, zip(*columns[first:])))))
    except (ValueError, KeyError, UserError):
        pass
    seen: dict[int, set[int]] = {}
    lines = enumerate(text.split("\n"), start=1)
    rows = [v for n, raw in lines if (v := _located(raw, n, fields, seen, defaults)) is not None]
    # Object frames: a frame the located read accepts may not fit an int64.
    frames = np.array([row[0] for row in rows], dtype=object)
    return check(_by_frame(frames, [make(row[first:]) for row in rows]))


_DETECTION_FIELDS = (
    ("x", _read_coord, "f8"), ("y", _read_coord, "f8"), ("confidence", _read_confidence, "f8")
)


def _each_frame(check: Callable, grouped: dict[int, list]) -> dict[int, list]:
    """Each frame's records as ``check(frame, records)`` returns them, frames in order."""
    return {frame: check(frame, records) for frame, records in grouped.items()}


def parse_detections(text: str) -> dict[int, list[Detection]]:
    """Parse a detection file into a frame-indexed map, frames ascending."""
    check = partial(_each_frame, check_detections)
    return _read_lines(text, _DETECTION_FIELDS, Detection, check, first=0, defaults=(1.0,))


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
    ("track_id", _read_id, "i8"),
    ("x", _read_coord, "f8"),
    ("y", _read_coord, "f8"),
    ("vx", _read_coord, "f8"),
    ("vy", _read_coord, "f8"),
    ("status", partial(_read_code, _STATUS_BY_CHAR), _STATUS_BY_CHAR),
    ("source", partial(_read_code, _SOURCE_BY_CHAR), _SOURCE_BY_CHAR),
)


def parse_tracks(text: str) -> dict[int, list[TrackRecord]]:
    """Parse a track file into a frame-indexed record map, frames then track ids ascending."""
    return _read_lines(text, _TRACK_FIELDS, TrackRecord, partial(_each_frame, check_records))


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


_GROUND_TRUTH_FIELDS = (
    ("gt_id", _read_id, "i8"), ("x", _read_coord, "f8"), ("y", _read_coord, "f8")
)


def parse_ground_truth(text: str) -> GroundTruth:
    """Parse a ground-truth file (``frame,gt_id,x,y``)."""
    return _read_lines(text, _GROUND_TRUTH_FIELDS, tuple, GroundTruth)


def write_ground_truth(gt: GroundTruth) -> str:
    """Serialize ground truth, frames ascending, points in their stored order.

    Raises:
        UserError: when `gt` is not a `synth.GroundTruth`.
    """
    check_kind(UserError, "gt", gt, GroundTruth)
    line = "%s,%s,%.6f,%.6f\n"
    return "".join(
        [line % (frame, *point) for frame in sorted(gt.frames) for point in gt.frames[frame]]
    )


def _parse_bounds(token: str, line_no: int, what: str) -> tuple[float, float]:
    parts = token.lower().split("x")
    if len(parts) != 2:
        raise ParseError(f"{what} must be WIDTHxHEIGHT, got {token!r}", line=line_no)
    width = _parse_float(parts[0], line_no, f"{what} width")
    height = _parse_float(parts[1], line_no, f"{what} height")
    return width, height


def _parse_targets(token: str, line_no: int, what: str) -> tuple[TargetPath, ...]:
    """The `targets` value; each message names a target field, not `what`."""
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
        parsed = (
            _PARSE_BY_TYPE[hint](field, line_no, f"target {name}")
            for (name, hint), field in zip(_TARGET_TYPES.items(), fields)
        )
        targets.append(TargetPath(*parsed))
    return tuple(targets)


# The reader of each config field type: (token, line number, name) -> value.
_PARSE_BY_TYPE = {
    int: _parse_int,
    float: _parse_float,
    tuple[float, float]: _parse_bounds,
    tuple[TargetPath, ...]: _parse_targets,
}


def parse_config(text: str) -> dict[str, object]:
    """Parse ``key = value`` configuration text into typed values.

    Each value is read by the reader of its field's type, as the
    `TrackerConfig`, `ScenarioSpec` and `TargetPath` annotations give it.

    Raises:
        UserError: when ``text`` is not a str.
        ParseError: on unknown keys, duplicate keys, or malformed values.
    """
    check_kind(UserError, "text", text, str)
    field_types = {**_TRACKER_TYPES, **_SCENARIO_TYPES}
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
        if key not in field_types:
            raise ParseError(f"unknown configuration key {key!r}", line=line_no)
        if key in values:
            raise ParseError(f"duplicate configuration key {key!r}", line=line_no)
        values[key] = _PARSE_BY_TYPE[field_types[key]](value, line_no, key)
    return values


def tracker_config_from(values: Mapping[str, object]) -> TrackerConfig:
    """Build a TrackerConfig from parsed configuration, defaults for the rest.

    Raises:
        ParamError: when `values` is not a Mapping, and as `TrackerConfig`.
    """
    check_kind(ParamError, "values", values, Mapping)
    kwargs = {k: values[k] for k in _TRACKER_TYPES if k in values}
    return TrackerConfig(**kwargs)  # type: ignore[arg-type]


def scenario_spec_from(values: Mapping[str, object]) -> ScenarioSpec:
    """Build a ScenarioSpec from parsed configuration, defaults for the rest.

    Raises:
        SpecError: when `values` is not a Mapping, and as `ScenarioSpec`.
    """
    check_kind(SpecError, "values", values, Mapping)
    kwargs = {k: values[k] for k in _SCENARIO_TYPES if k in values}
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
