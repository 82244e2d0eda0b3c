"""File format tests: parsing, serialization, round-trips, fuzz totality."""

import xml.etree.ElementTree as ET

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pointtrack.errors import ParseError
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
    Detection,
    FrameResult,
    RecordSource,
    TrackRecord,
    TrackStatus,
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


class TestGroundTruthFile:
    def test_round_trip(self):
        gt = GroundTruth(
            n_frames=3,
            frames={1: [(1, 5.0, 6.0)], 3: [(1, 7.0, 8.0), (2, 1.5, -2.25)]},
        )
        parsed = parse_ground_truth(write_ground_truth(gt))
        assert parsed.n_frames == 3
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
        gt = GroundTruth(n_frames=5, frames={1: [(1, 3.0, 4.0)]})
        for _, svg in render_overlay(results, (320, 240), gt=gt):
            ET.fromstring(svg)
