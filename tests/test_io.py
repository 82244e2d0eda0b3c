"""File format tests: parsing, serialization, round-trips, fuzz totality."""

import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pointtrack.errors import AlignmentError, ParseError, UserError
from pointtrack.io import (
    PALETTE,
    parse_config,
    parse_detections,
    parse_ground_truth,
    parse_tracks,
    render_overlay,
    scenario_spec_from,
    tracker_config_from,
    write_detections,
    write_ground_truth,
    write_tracks,
)
from pointtrack.synth import GroundTruth
from pointtrack.tracker import (
    COORD_LIMIT,
    Detection,
    FrameResult,
    RecordSource,
    TrackRecord,
    TrackStatus,
    group_by_frame,
    records_by_frame,
)

coords = st.floats(-10_000, 10_000, allow_nan=False, allow_infinity=False, width=64)


@st.composite
def detection_lists(draw):
    n = draw(st.integers(0, 30))
    dets = []
    for _ in range(n):
        dets.append(
            Detection(
                frame=draw(st.integers(1, 50)),
                x=draw(coords),
                y=draw(coords),
                confidence=draw(st.floats(0, 1, allow_nan=False, width=64)),
            )
        )
    return dets


@st.composite
def frame_results(draw):
    n_frames = draw(st.integers(0, 10))
    results = []
    next_id = 1
    for frame in range(1, n_frames + 1):
        records = []
        for _ in range(draw(st.integers(0, 4))):
            records.append(
                TrackRecord(
                    track_id=next_id,
                    x=draw(coords),
                    y=draw(coords),
                    vx=draw(st.floats(-50, 50, allow_nan=False, width=64)),
                    vy=draw(st.floats(-50, 50, allow_nan=False, width=64)),
                    status=draw(st.sampled_from([TrackStatus.TENTATIVE, TrackStatus.CONFIRMED])),
                    source=draw(st.sampled_from(list(RecordSource))),
                )
            )
            next_id += 1
        results.append(FrameResult(frame=frame, records=records, born=[], died=[]))
    return results


class TestParseDetections:
    def test_single_line(self):
        parsed = parse_detections("1,10.5,20.0,0.9")
        assert parsed == {1: [Detection(frame=1, x=10.5, y=20.0, confidence=0.9)]}

    def test_empty_text(self):
        assert parse_detections("") == {}
        assert parse_detections("\n\n  \n") == {}

    def test_confidence_defaults_to_one(self):
        parsed = parse_detections("2,1,2")
        assert parsed[2][0].confidence == 1.0

    def test_unsorted_input_is_sorted_by_frame(self):
        parsed = parse_detections("5,1,1\n2,2,2\n5,3,3")
        assert list(parsed) == [2, 5]
        assert len(parsed[5]) == 2

    @pytest.mark.parametrize(
        "text,line",
        [
            ("1,abc,2", 1),
            ("1,2", 1),
            ("1,2,3,4,5", 1),
            ("0,1,2", 1),
            ("-3,1,2", 1),
            ("1,1,2,1.5", 1),
            ("1,1,2,-0.1", 1),
            ("1,inf,2", 1),
            ("1,1,nan", 1),
            ("1,1e200,2", 1),
            ("1,1,1\n2,1,-1.5e9", 2),
            ("1,1,1\n2,oops,2", 2),
            # A fault the conversion passes, then one it does not.
            ("1,1e200,2\n1,oops,2", 1),
            ("1,1,2\n1,3,4,1.5\n1,x,2", 2),
        ],
    )
    def test_malformed_lines_are_located(self, text, line):
        with pytest.raises(ParseError) as info:
            parse_detections(text)
        assert info.value.line == line

    @settings(max_examples=200, deadline=None)
    @given(st.text(max_size=200))
    def test_parser_totality(self, text):
        try:
            parse_detections(text)
        except ParseError as exc:
            assert exc.line is not None

    @settings(max_examples=100, deadline=None)
    @given(detection_lists())
    def test_round_trip_at_six_decimals(self, dets):
        parsed = parse_detections(write_detections(dets))
        flattened = [d for frame in parsed.values() for d in frame]
        assert len(flattened) == len(dets)
        expected = sorted(dets, key=lambda d: d.frame)
        for out, src in zip(flattened, expected):
            assert out.frame == src.frame
            assert out.x == pytest.approx(src.x, abs=5e-7)
            assert out.y == pytest.approx(src.y, abs=5e-7)
            assert out.confidence == pytest.approx(src.confidence, abs=5e-7)


class TestTrackFile:
    def test_canonical_line(self):
        rec = TrackRecord(1, 10.5, 20.0, 1.0, 0.0, TrackStatus.CONFIRMED, RecordSource.MEASURED)
        assert write_tracks([FrameResult(3, [rec], [], [])]) == (
            "3,1,10.500000,20.000000,1.000000,0.000000,C,M\n"
        )

    def test_empty_results(self):
        assert write_tracks([]) == ""

    def test_repeated_track_id_in_a_frame_rejected(self):
        # parse_tracks would reject the file such a frame gives.
        recs = [
            TrackRecord(1, 0, 0, 0, 0, TrackStatus.CONFIRMED, RecordSource.MEASURED),
            TrackRecord(2, 50, 0, 0, 0, TrackStatus.CONFIRMED, RecordSource.MEASURED),
            TrackRecord(1, 100, 0, 0, 0, TrackStatus.TENTATIVE, RecordSource.COASTED),
        ]
        valid = FrameResult(1, recs[:2], [], [])
        with pytest.raises(UserError) as info:
            write_tracks([valid, FrameResult(2, recs, [], [])])
        assert str(info.value) == "track_id 1 appears twice in frame 2"
        assert write_tracks([valid]) == (
            "1,1,0.000000,0.000000,0.000000,0.000000,C,M\n"
            "1,2,50.000000,0.000000,0.000000,0.000000,C,M\n"
        )

    def test_track_id_ordering_within_frame(self):
        recs = [
            TrackRecord(9, 0, 0, 0, 0, TrackStatus.CONFIRMED, RecordSource.MEASURED),
            TrackRecord(2, 0, 0, 0, 0, TrackStatus.TENTATIVE, RecordSource.COASTED),
        ]
        lines = write_tracks([FrameResult(1, recs, [], [])]).splitlines()
        assert lines[0].startswith("1,2,")
        assert lines[1].startswith("1,9,")

    @pytest.mark.parametrize(
        "text",
        [
            "1,1,0,0,0,0,X,M",
            "1,1,0,0,0,0,D,M",
            "1,1,0,0,0,0,C,Q",
            "1,0,0,0,0,0,C,M",
            "1,1,0,0,0,0,C",
            "1,1,abc,0,0,0,C,M",
            "1,1,0,1e200,0,0,C,M",
            "1,1,0,0,-2e9,0,C,M",
            "1,1,0,0,0,1e10,C,M",
            # A fault the conversion passes, then one it does not.
            "1,1,0,1e200,0,0,C,M\n1,2,0,0,0,0,X,M",
        ],
    )
    def test_malformed_records_located(self, text):
        with pytest.raises(ParseError) as info:
            parse_tracks(text)
        assert info.value.line == 1

    @settings(max_examples=100, deadline=None)
    @given(frame_results())
    def test_round_trip_at_six_decimals(self, results):
        parsed = parse_tracks(write_tracks(results))
        nonempty = {fr.frame: fr.records for fr in results if fr.records}
        assert set(parsed) == set(nonempty)
        for frame, records in parsed.items():
            originals = sorted(nonempty[frame], key=lambda r: r.track_id)
            assert len(records) == len(originals)
            for out, src in zip(records, originals):
                assert out.track_id == src.track_id
                assert out.status is src.status
                assert out.source is src.source
                for field in ("x", "y", "vx", "vy"):
                    assert getattr(out, field) == pytest.approx(
                        getattr(src, field), abs=5e-7
                    )

    @settings(max_examples=150, deadline=None)
    @given(st.text(max_size=200))
    def test_parser_totality(self, text):
        try:
            parse_tracks(text)
        except ParseError as exc:
            assert exc.line is not None


# Values no file may hold: not finite, or beyond COORD_LIMIT.
FAR_OR_NOT_FINITE = (math.nan, math.inf, -math.inf, 2e9, -2e9)


@st.composite
def maybe_faulty(draw, good, bad, faulty):
    """A draw of `good`; when `faulty`, now and then one of `bad` instead."""
    if faulty and draw(st.integers(0, 5)) == 0:
        return draw(st.sampled_from(bad))
    return draw(good)


@st.composite
def results_with_faults(draw):
    """Frame results; in about half the draws some frames, ids or values are faulty."""
    faulty = draw(st.booleans())
    velocities = st.floats(-50, 50, allow_nan=False, width=64)
    results = []
    for frame in draw(st.lists(st.integers(1, 12), max_size=5, unique=True)):
        frame = draw(maybe_faulty(st.just(frame), (0, -1, *(r.frame for r in results[:1])), faulty))
        records = []
        for track_id in draw(st.lists(st.integers(1, 40), max_size=4, unique=True)):
            repeat = (0, *(r.track_id for r in records[:1]))
            records.append(
                TrackRecord(
                    draw(maybe_faulty(st.just(track_id), repeat, faulty)),
                    draw(maybe_faulty(coords, FAR_OR_NOT_FINITE, faulty)),
                    draw(maybe_faulty(coords, FAR_OR_NOT_FINITE, faulty)),
                    draw(maybe_faulty(velocities, FAR_OR_NOT_FINITE, faulty)),
                    draw(maybe_faulty(velocities, FAR_OR_NOT_FINITE, faulty)),
                    draw(st.sampled_from(list(TrackStatus))),
                    draw(st.sampled_from(list(RecordSource))),
                )
            )
        results.append(FrameResult(frame, records, [], []))
    return results


@st.composite
def detections_with_faults(draw):
    """Detections; in about half the draws some frames, coordinates or confidences are faulty."""
    faulty = draw(st.booleans())
    return [
        Detection(
            draw(maybe_faulty(st.integers(1, 12), (0, -1), faulty)),
            draw(maybe_faulty(coords, FAR_OR_NOT_FINITE, faulty)),
            draw(maybe_faulty(coords, FAR_OR_NOT_FINITE, faulty)),
            draw(maybe_faulty(st.floats(0, 1, width=64), (-0.1, 1.5), faulty)),
        )
        for _ in range(draw(st.integers(0, 12)))
    ]


CM = (TrackStatus.CONFIRMED, RecordSource.MEASURED)


def within_limit(values):
    return all(abs(v) <= COORD_LIMIT for v in values)


def track_file_holds(results):
    """The track file's rules, stated apart from the library: frames >= 1,
    each once; ids >= 1, each once per frame; positions and velocities
    finite and within COORD_LIMIT."""
    frames = [r.frame for r in results]
    if len(set(frames)) < len(frames) or min(frames, default=1) < 1:
        return False
    for r in results:
        ids = [rec.track_id for rec in r.records]
        if len(set(ids)) < len(ids) or min(ids, default=1) < 1:
            return False
        if not within_limit(v for rec in r.records for v in rec[1:5]):
            return False
    return True


def detection_file_holds(detections):
    """The detection file's rules: frames >= 1, coordinates finite and within
    COORD_LIMIT, confidences in [0, 1]."""
    return all(
        d.frame >= 1 and within_limit((d.x, d.y)) and 0.0 <= d.confidence <= 1.0
        for d in detections
    )


def at_six_decimals(by_frame):
    return {
        frame: [
            type(item)(*(round(v, 6) if isinstance(v, float) else v for v in item))
            for item in items
        ]
        for frame, items in by_frame.items()
    }


class TestWritersWriteWhatParsersRead:
    @settings(max_examples=200, deadline=None)
    @given(results_with_faults())
    def test_track_file_parses_back_or_writer_raises(self, results):
        if not track_file_holds(results):
            with pytest.raises(UserError):
                write_tracks(results)
            return
        expected = {f: recs for f, recs in records_by_frame(results).items() if recs}
        assert parse_tracks(write_tracks(results)) == at_six_decimals(expected)

    @settings(max_examples=200, deadline=None)
    @given(detections_with_faults())
    def test_detection_file_parses_back_or_writer_raises(self, detections):
        if not detection_file_holds(detections):
            with pytest.raises(UserError):
                write_detections(detections)
            return
        parsed = parse_detections(write_detections(detections))
        assert parsed == at_six_decimals(group_by_frame(detections))

    @pytest.mark.parametrize(
        "detection, message",
        [
            (Detection(0, 1.0, 2.0), "frame 0 must be >= 1"),
            (Detection(-1, 1.0, 2.0), "frame -1 must be >= 1"),
            (
                Detection(3, math.nan, 2.0),
                f"frame 3: detection at (nan, 2.0) must be finite and within +-{COORD_LIMIT:g}",
            ),
            (
                Detection(3, 1.0, -2e9),
                f"frame 3: detection at (1.0, -2000000000.0) must be finite "
                f"and within +-{COORD_LIMIT:g}",
            ),
            (Detection(4, 1.0, 2.0, 1.5), "frame 4: detection confidence 1.5 must lie in [0, 1]"),
        ],
    )
    def test_write_detections_names_the_frame_of_a_fault(self, detection, message):
        with pytest.raises(UserError) as info:
            write_detections([Detection(1, 0.0, 0.0), detection])
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "frame, message",
        [
            (1.5, "frame 1.5 must be an integer"),
            # Equal to 1, so checked with frame 1's detections.
            (1.0, "frame 1: detection frame 1.0 must be an integer"),
            (True, "frame 1: detection frame True must be an integer"),
        ],
    )
    def test_write_detections_rejects_a_frame_that_is_not_an_integer(self, frame, message):
        with pytest.raises(UserError) as info:
            write_detections([Detection(1, 0.0, 0.0), Detection(frame, 1.0, 2.0)])
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "results, error, message",
        [
            (
                [FrameResult(1.5, [], [], [])],
                AlignmentError,
                "result frame 1.5 must be an integer",
            ),
            (
                [FrameResult(True, [], [], [])],
                AlignmentError,
                "result frame True must be an integer",
            ),
            (
                [FrameResult(1, [TrackRecord(True, 1.0, 2.0, 0.0, 0.0, *CM)], [], [])],
                UserError,
                "frame 1: track_id must be an integer, got True",
            ),
            (
                [FrameResult(2, [TrackRecord(3.0, 1.0, 2.0, 0.0, 0.0, *CM)], [], [])],
                UserError,
                "frame 2: track_id must be an integer, got 3.0",
            ),
        ],
    )
    def test_write_tracks_rejects_a_frame_or_id_that_is_not_an_integer(
        self, results, error, message
    ):
        with pytest.raises(error) as info:
            write_tracks(results)
        assert str(info.value) == message

    def test_numpy_integer_frames_and_ids_write_as_digits(self):
        record = TrackRecord(np.int64(7), 1.0, 2.0, 0.0, 0.0, *CM)
        assert write_tracks([FrameResult(np.int32(3), [record], [], [])]) == (
            "3,7,1.000000,2.000000,0.000000,0.000000,C,M\n"
        )
        assert write_detections([Detection(np.int64(2), 1.0, 2.0)]) == (
            "2,1.000000,2.000000,1.000000\n"
        )


class TestGroundTruthFile:
    def test_round_trip(self):
        gt = GroundTruth(frames={1: [(1, 5.0, 6.0)], 3: [(1, 7.0, 8.0), (2, 1.5, -2.25)]})
        parsed = parse_ground_truth(write_ground_truth(gt))
        assert parsed.frames == gt.frames

    def test_malformed_located(self):
        with pytest.raises(ParseError) as info:
            parse_ground_truth("1,1,2,3\n1,x,2,3")
        assert info.value.line == 2

    def test_out_of_range_coordinate_located(self):
        with pytest.raises(ParseError) as info:
            parse_ground_truth("1,1,2,3\n1,2,2,1e200")
        assert info.value.line == 2

    @pytest.mark.parametrize(
        "text, line, message",
        [
            ("1,1,0,0\n1,1,5,5\n1,-3,9,9", 2, "gt_id 1 appears twice in frame 1"),
            ("1,1,0,0\n1,2,5,5\n1,-3,9,9", 3, "gt_id must be >= 1, got -3"),
            ("2,0,0,0", 1, "gt_id must be >= 1, got 0"),
            # A fault the conversion passes, then one it does not.
            ("1,1,0,0\n1,1,5,5\n1,x,9,9", 2, "gt_id 1 appears twice in frame 1"),
            ("1,1,0,1e200\n1,x,0,0", 1, "y must lie within +-1e+09, got 1e+200"),
        ],
    )
    def test_bad_or_repeated_gt_id_located(self, text, line, message):
        with pytest.raises(ParseError) as info:
            parse_ground_truth(text)
        assert info.value.line == line
        assert info.value.message == message

    def test_same_gt_id_on_different_frames_accepted(self):
        parsed = parse_ground_truth("1,1,0,0\n2,1,5,5\n2,2,9,9")
        assert parsed.frames == {1: [(1, 0.0, 0.0)], 2: [(1, 5.0, 5.0), (2, 9.0, 9.0)]}


# A reference for the data parsers: every line stripped, split and read one
# located helper at a time, as the parsers did before their one-pass loop.


def _ref_int(token, line, what):
    try:
        return int(token.strip())
    except ValueError:
        raise ParseError(f"{what} is not an integer: {token!r}", line=line) from None


def _ref_float(token, line, what):
    try:
        value = float(token.strip())
    except ValueError:
        raise ParseError(f"{what} is not a number: {token!r}", line=line) from None
    if not math.isfinite(value):
        raise ParseError(f"{what} must be finite: {token!r}", line=line)
    return value


def _ref_coord(token, line, what):
    value = _ref_float(token, line, what)
    if abs(value) > COORD_LIMIT:
        raise ParseError(f"{what} must lie within +-{COORD_LIMIT:g}, got {value:g}", line=line)
    return value


def _ref_id(token, line, what, frame, seen):
    value = _ref_int(token, line, what)
    if value < 1:
        raise ParseError(f"{what} must be >= 1, got {value}", line=line)
    if value in seen.setdefault(frame, set()):
        raise ParseError(f"{what} {value} appears twice in frame {frame}", line=line)
    seen[frame].add(value)
    return value


def _ref_records(text, layout, field_counts):
    for line_no, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line:
            continue
        fields = line.split(",")
        if len(fields) not in field_counts:
            raise ParseError(f"expected {layout}, got {len(fields)} fields", line=line_no)
        frame = _ref_int(fields[0], line_no, "frame")
        if frame < 1:
            raise ParseError(f"frame must be >= 1, got {frame}", line=line_no)
        yield line_no, frame, fields


def reference_detections(text):
    grouped = {}
    for line_no, frame, fields in _ref_records(text, "frame,x,y[,confidence]", (3, 4)):
        x = _ref_coord(fields[1], line_no, "x")
        y = _ref_coord(fields[2], line_no, "y")
        confidence = 1.0
        if len(fields) == 4:
            confidence = _ref_float(fields[3], line_no, "confidence")
            if not 0.0 <= confidence <= 1.0:
                raise ParseError(f"confidence must lie in [0, 1], got {confidence}", line=line_no)
        grouped.setdefault(frame, []).append(Detection(frame, x, y, confidence))
    return dict(sorted(grouped.items()))


def reference_tracks(text):
    grouped, seen = {}, {}
    layout = "frame,track_id,x,y,vx,vy,status,source"
    for line_no, frame, fields in _ref_records(text, layout, (8,)):
        track_id = _ref_id(fields[1], line_no, "track_id", frame, seen)
        x, y, vx, vy = (_ref_coord(fields[i], line_no, n) for i, n in enumerate("x y vx vy".split(), 2))
        status = {s.value: s for s in TrackStatus}.get(fields[6].strip())
        if status is None:
            raise ParseError(f"status must be T or C, got {fields[6]!r}", line=line_no)
        source = {s.value: s for s in RecordSource}.get(fields[7].strip())
        if source is None:
            raise ParseError(f"source must be M or P, got {fields[7]!r}", line=line_no)
        grouped.setdefault(frame, []).append(TrackRecord(track_id, x, y, vx, vy, status, source))
    for records in grouped.values():
        records.sort(key=lambda r: r.track_id)
    return dict(sorted(grouped.items()))


def reference_ground_truth(text):
    frames, seen = {}, {}
    for line_no, frame, fields in _ref_records(text, "frame,gt_id,x,y", (4,)):
        gt_id = _ref_id(fields[1], line_no, "gt_id", frame, seen)
        x = _ref_coord(fields[2], line_no, "x")
        y = _ref_coord(fields[3], line_no, "y")
        frames.setdefault(frame, []).append((gt_id, x, y))
    return GroundTruth(frames=dict(sorted(frames.items())))


# Field tokens: valid ones, and near misses that a parser may accept or must
# reject with the reference's error.
_PADS = ["", " ", "\t", "\r", " \t ", "\x0b", "\x0c", "\x1c", "\x85", "\xa0", "\u2028", "\u3000"]
_INT_MISSES = ["0", "-1", "+2", "1_0", "2.0", "", "x", "1e1", "\u0663", "nan", "9" * 30]
_FLOAT_MISSES = [
    "nan", "NaN", "inf", "-inf", "infinity", "+1.5", "-0.0", "1E3", ".5", "5.", "1_0.5", "0x10",
    "", "abc", "1e9", "-1e9", "1000000000.0000001", "-1.0000001e9", "1e10", "1e400", "-1e-400",
]
_CONFIDENCE_MISSES = ["1", "0", "-0.0", "1.0000001", "-1e-9", "1.5", "2", "nan", "inf", "", "x"]
_STATUS_MISSES = ["X", "", "c", "TC", "M", " T"]
_SOURCE_MISSES = ["Q", "", "m", "MP", "C", "P "]
_MISSES = {
    "detections": [_INT_MISSES, _FLOAT_MISSES, _FLOAT_MISSES, _CONFIDENCE_MISSES],
    "tracks": [_INT_MISSES, _INT_MISSES] + [_FLOAT_MISSES] * 4 + [_STATUS_MISSES, _SOURCE_MISSES],
    "ground_truth": [_INT_MISSES, _INT_MISSES, _FLOAT_MISSES, _FLOAT_MISSES],
}
_PARSERS = [
    ("detections", parse_detections, reference_detections),
    ("tracks", parse_tracks, reference_tracks),
    ("ground_truth", parse_ground_truth, reference_ground_truth),
]

_frames = st.integers(1, 3).map(str)
_ids = st.integers(1, 4).map(str)
_coords = st.floats(-1e9, 1e9).flatmap(
    lambda v: st.sampled_from([repr(v), f"{v:.6f}", f"{v:e}", str(int(v))])
)
_VALID = {
    "detections": [_frames, _coords, _coords, st.floats(0.0, 1.0).map(repr)],
    "tracks": [_frames, _ids, _coords, _coords, _coords, _coords]
    + [st.sampled_from(["T", "C"]), st.sampled_from(["M", "P"])],
    "ground_truth": [_frames, _ids, _coords, _coords],
}


# Files read twice: a fault the conversion passes (a range or a repeated id)
# and then one it does not, whose error must name the first; and a valid
# file whose one U+001C-padded field only the second, located read strips.
_FALLBACK_ORDER = {
    "detections": [
        "1,1e200,2\n1,oops,2\n",
        "1,1,2\n1,1,2,1.5\n1,1,2,x\n",
        "2,1,2\n1,\x1c3.5\x1c,4,0.5\n2,5,6\n",
    ],
    "tracks": [
        "1,1,0,1e200,0,0,C,M\n1,2,0,0,0,0,X,M\n",
        "1,1,0,0,0,0,C,M\n1,1,5,5,0,0,C,M\n1,2,0,0,0,0,C,Q\n",
        "1,2,0,0,0,0,C,M\n1,1,5,5,\x1c-0.5,0,T,P\n",
    ],
    "ground_truth": [
        "1,1,0,1e200\n1,x,0,0\n",
        "1,1,0,0\n1,1,5,5\n1,2,oops,0\n",
        "1,1,0,0\n1,\x1c2,5,5\n",
    ],
}


def _near_miss(kind, i):
    """A listed near miss for field i, or any float where a number goes."""
    tokens = _MISSES[kind][i]
    if tokens is _FLOAT_MISSES:
        return st.sampled_from(tokens) | st.floats().map(repr)
    if tokens is _CONFIDENCE_MISSES:
        return st.sampled_from(tokens) | st.floats(-1.0, 2.0).map(repr)
    return st.sampled_from(tokens)


@st.composite
def data_line(draw, kind):
    fields = [draw(field) for field in _VALID[kind]]
    if kind == "detections" and draw(st.booleans()):
        fields.pop()  # the three-field form
    if draw(st.booleans()):
        i = draw(st.integers(0, len(fields) - 1))
        fields[i] = draw(_near_miss(kind, i))
    shape = draw(st.sampled_from(["as is"] * 4 + ["missing", "extra", "empty"]))
    if shape == "missing":
        fields.pop()
    elif shape == "extra":
        fields.append(draw(_VALID[kind][-1]))
    elif shape == "empty":
        fields[draw(st.integers(0, len(fields) - 1))] = ""
    pads = st.sampled_from(_PADS)
    return ",".join(draw(pads) + field + draw(pads) for field in fields)


def data_text(kind):
    lines = st.lists(data_line(kind) | st.sampled_from(_PADS), min_size=1, max_size=6)
    return st.tuples(lines, st.sampled_from(["", "\n"])).map(lambda t: "\n".join(t[0]) + t[1])


def assert_parses_like_reference(parse, reference, text):
    try:
        expected = reference(text)
    except ParseError as exc:
        with pytest.raises(ParseError) as info:
            parse(text)
        assert (str(info.value), info.value.line) == (str(exc), exc.line), repr(text)
        return
    parsed = parse(text)
    assert parsed == expected, repr(text)
    assert repr(parsed) == repr(expected), repr(text)  # also tells -0.0 from 0.0, 1 from 1.0


class TestOnePassParsers:
    """Each data parser reads exactly what the located helpers read, errors included."""

    @pytest.mark.parametrize("kind, parse, reference", _PARSERS)
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_matches_the_located_reference(self, kind, parse, reference, data):
        assert_parses_like_reference(parse, reference, data.draw(data_text(kind), label="text"))

    @pytest.mark.parametrize("kind, parse, reference", _PARSERS)
    def test_every_near_miss_in_every_field(self, kind, parse, reference):
        # Line 2 is a valid line of line 1's frame (id 2 to line 1's id 1)
        # with one field replaced; the id misses include line 1's id.
        first, base = {
            "detections": ("2,10.5,-3.25,0.5", "2,7.0,8.0,1.0"),
            "tracks": ("2,1,10.5,-3.25,0.5,-0.5,C,M", "2,2,7.0,8.0,-1.0,0.0,T,P"),
            "ground_truth": ("2,1,10.5,-3.25", "2,2,7.0,8.0"),
        }[kind]
        fields = base.split(",")
        for i, misses in enumerate(_MISSES[kind]):
            for miss in misses + ["1"]:
                for pad in ("", " ", "\r", "\x1c"):
                    second = fields[:i] + [pad + miss + pad] + fields[i + 1 :]
                    text = first + "\n" + ",".join(second) + "\n"
                    assert_parses_like_reference(parse, reference, text)
        for text in _FALLBACK_ORDER[kind]:
            assert_parses_like_reference(parse, reference, text)


class TestConfig:
    def test_defaults_when_missing(self):
        values = parse_config("")
        assert tracker_config_from(values).gate_px == 50.0
        spec = scenario_spec_from(values)
        assert spec.n_frames == 100
        assert spec.targets == ()

    def test_comments_and_blank_lines(self):
        values = parse_config("# full line\n\ngate_px = 25 # trailing\n")
        assert values == {"gate_px": 25.0}

    def test_unknown_key_rejected(self):
        with pytest.raises(ParseError) as info:
            parse_config("gate_px = 10\nwat = 3")
        assert info.value.line == 2

    def test_duplicate_key_rejected(self):
        with pytest.raises(ParseError):
            parse_config("seed = 1\nseed = 2")

    def test_missing_equals_rejected(self):
        with pytest.raises(ParseError):
            parse_config("just some words")

    def test_targets_and_bounds(self):
        values = parse_config("targets = 1,10,0,0,1,1 ; 2,9,5,5,-1,0\nbounds = 320x240")
        spec = scenario_spec_from({**values, "n_frames": 10})
        assert len(spec.targets) == 2
        assert spec.targets[1].birth_frame == 2
        assert spec.bounds == (320.0, 240.0)

    def test_bad_target_tuple_located(self):
        with pytest.raises(ParseError) as info:
            parse_config("n_frames = 5\ntargets = 1,2,3")
        assert info.value.line == 2

    def test_integer_keys_reject_floats(self):
        with pytest.raises(ParseError):
            parse_config("confirm_hits = 2.5")


class TestRenderOverlay:
    def _record(self, tid, x, y, status=TrackStatus.CONFIRMED):
        return TrackRecord(tid, x, y, 0.0, 0.0, status, RecordSource.MEASURED)

    def test_empty_frame_has_background_only(self):
        [(frame, svg)] = render_overlay([FrameResult(1, [], [], [])], (640, 480))
        assert frame == 1
        root = ET.fromstring(svg)
        tags = [child.tag.split("}")[-1] for child in root]
        assert tags == ["rect"]

    def test_identical_input_identical_bytes(self):
        results = [FrameResult(1, [self._record(1, 10, 10)], [], [])]
        first = render_overlay(results, (640, 480))
        second = render_overlay(results, (640, 480))
        assert first == second

    def test_trail_has_one_point_per_history_entry(self):
        results = [
            FrameResult(f, [self._record(1, 10.0 * f, 5.0)], [], []) for f in (1, 2, 3)
        ]
        documents = render_overlay(results, (640, 480))
        root = ET.fromstring(documents[-1][1])
        polylines = [el for el in root if el.tag.endswith("polyline")]
        assert len(polylines) == 1
        assert len(polylines[0].attrib["points"].split()) == 3

    def test_color_keyed_by_id(self):
        results = [
            FrameResult(1, [self._record(1, 1, 1), self._record(13, 9, 9)], [], [])
        ]
        [(_, svg)] = render_overlay(results, (640, 480))
        assert svg.count(PALETTE[1]) >= 2  # ids 1 and 13 share palette slot 1

    def test_all_documents_are_valid_xml(self):
        results = [
            FrameResult(
                f,
                [self._record(1, f, f), self._record(2, 50 - f, 3, TrackStatus.TENTATIVE)],
                [],
                [],
            )
            for f in range(1, 6)
        ]
        gt = GroundTruth(frames={1: [(1, 3.0, 4.0)]})
        for _, svg in render_overlay(results, (320, 240), gt=gt):
            ET.fromstring(svg)

    def test_repeated_frame_rejected(self):
        # One frame would otherwise give two documents for one file name.
        results = [FrameResult(2, [self._record(1, 1, 1)], [], [])] * 2
        with pytest.raises(AlignmentError) as info:
            render_overlay(results, (640, 480))
        assert str(info.value) == "duplicate results for frame 2"

    def test_records_drawn_in_id_order_one_document_per_frame(self):
        results = [
            FrameResult(3, [self._record(7, 5, 5), self._record(2, 9, 9)], [], []),
            FrameResult(1, [], [], []),
        ]
        documents = render_overlay(results, (640, 480))
        assert [frame for frame, _ in documents] == [1, 3]
        labels = [el.text for el in ET.fromstring(documents[1][1]) if el.tag.endswith("text")]
        assert labels == ["2", "7"]
