"""The scalar rules of `errors`, and every checked field probed with ordinary values.

Library and CLI inputs must end in a result or a located `UserError`, and
bad configuration must fail when it is built: a value a constructor accepts
must also run, and what it writes must read back.
"""

import ast
import math
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from pointtrack import errors, kfilter
from pointtrack.errors import (
    ParamError,
    SpecError,
    UserError,
    check_integer,
    check_number,
    is_integer,
    is_number,
)
from pointtrack.io import (
    COORD_LIMIT,
    parse_config,
    parse_detections,
    render_overlay,
    parse_ground_truth,
    parse_tracks,
    scenario_spec_from,
    tracker_config_from,
    write_detections,
    write_ground_truth,
    write_tracks,
)
from pointtrack.synth import MAX_FRAMES, GroundTruth, ScenarioSpec, evaluate, generate
from pointtrack.tracker import (
    Detection,
    FrameResult,
    RecordSource,
    Tracker,
    TrackerConfig,
    TrackRecord,
    TrackStatus,
    check_frame,
    check_records,
    records_by_frame,
    run,
)

# What a caller, a config file or a numpy computation could plausibly pass.
VALUES = (
    0, 1, -1, 3,
    0.0, -0.0, 1.5, 2.0, math.nan, math.inf, -math.inf, 1e300,
    True, False, None, "a", "5",
    np.int64(3), np.int64(-1), np.float64(2.0), np.float64(math.nan),
)  # fmt: skip

TARGET = (1, 3, 10.0, 20.0, 1.0, 0.5)
SPEC = dict(n_frames=4, targets=(TARGET,), noise_sigma=0.5, miss_prob=0.1, clutter_rate=1.0)
STREAM = {f: [Detection(f, 10.0 + f, 20.0), Detection(f, 50.0, 60.0 - f)] for f in range(1, 6)}
RECORD = TrackRecord(1, 0.0, 0.0, 0.0, 0.0, TrackStatus.CONFIRMED, RecordSource.MEASURED)
RESULTS = [FrameResult(1, [RECORD], [], [])]


def built(factory, *args, **kwargs):
    """`factory(*args, **kwargs)`, or None when it raises a UserError."""
    try:
        return factory(*args, **kwargs)
    except UserError:
        return None


def tracked(name, value):
    config = built(TrackerConfig, **{name: value})
    if config is not None:
        parse_tracks(write_tracks(run(STREAM, config)))


def scene(**fields):
    spec = built(ScenarioSpec, **{**SPEC, **fields})
    if spec is not None:
        gt, detections = generate(spec)
        parse_detections(write_detections(detections))
        parse_ground_truth(write_ground_truth(gt))


def spec_field(name, value):
    scene(**{name: value})


def target_with(index, value):
    scene(targets=(TARGET[:index] + (value,) + TARGET[index + 1 :],))


def ground_truth(frames):
    gt = built(GroundTruth, frames)
    if gt is not None:
        assert parse_ground_truth(write_ground_truth(gt)) == gt


def stepped(frame):
    result = built(Tracker().step, frame, [Detection(frame, 5.0, 5.0)])
    if result is not None:
        parse_tracks(write_tracks([result]))


def detection(field, value):
    det = Detection(1, 5.0, 5.0)._replace(**{field: value})
    result = built(Tracker().step, 1, [det])
    if result is not None:
        parse_tracks(write_tracks([result]))
        parse_detections(write_detections([det]))


def track_records(*records):
    text = built(write_tracks, [FrameResult(1, list(records), [], [])])
    if text is not None:
        parse_tracks(text)


def ran(stream, **kwargs):
    results = built(run, stream, **kwargs)
    if results is not None:
        parse_tracks(write_tracks(results))


def rendered(bounds):
    documents = built(render_overlay, RESULTS, bounds)
    if documents is not None:
        # What it accepts it draws: a canvas of that size, which must be one.
        width, height = bounds
        assert is_number(width) and is_number(height)
        assert 0 < width <= COORD_LIMIT and 0 < height <= COORD_LIMIT
        assert f'width="{width:g}" height="{height:g}"' in documents[0][1]


def cv_model(name, value):
    model = built(kfilter.make_cv_model, **{name: value})
    if model is not None:
        assert all(np.isfinite(m).all() for m in (model.F, model.Q, model.H, model.R))


TRACKER_FIELDS = (
    "gate_px", "confirm_hits", "max_misses", "sigma_a", "sigma_z", "p0_pos", "p0_vel",
    "min_confidence",
)  # fmt: skip
TARGET_FIELDS = ("birth_frame", "death_frame", "start_x", "start_y", "vx", "vy")

PROBES = {
    **{f"TrackerConfig.{name}": partial(tracked, name) for name in TRACKER_FIELDS},
    **{
        f"ScenarioSpec.{name}": partial(spec_field, name)
        for name in ("n_frames", "seed", "noise_sigma", "miss_prob", "clutter_rate", "bounds")
    },
    "ScenarioSpec.bounds[0]": lambda value: scene(bounds=(value, 480.0)),
    **{
        f"ScenarioSpec.target.{name}": partial(target_with, index)
        for index, name in enumerate(TARGET_FIELDS)
    },
    "ScenarioSpec.target": lambda value: scene(targets=(value,)),
    "GroundTruth.frame": lambda value: ground_truth({value: [(1, 0.0, 0.0)]}),
    "GroundTruth.gt_id": lambda value: ground_truth({1: [(value, 0.0, 0.0)]}),
    "GroundTruth.x": lambda value: ground_truth({1: [(1, value, 0.0)]}),
    **{f"Detection.{name}": partial(detection, name) for name in ("x", "y", "confidence")},
    **{
        f"TrackRecord.{name}": lambda value, name=name: track_records(
            RECORD._replace(**{name: value})
        )
        for name in ("x", "y", "vx", "vy", "status", "source")
    },
    "TrackRecord.track_id of a second record": lambda value: track_records(
        RECORD, RECORD._replace(track_id=value)
    ),
    "run.frame": lambda value: ran({value: [Detection(value, 5.0, 5.0)]}),
    "run.frame_range end": lambda value: ran(STREAM, frame_range=(1, value)),
    "make_cv_model.sigma_a": partial(cv_model, "sigma_a"),
    "make_cv_model.sigma_z": partial(cv_model, "sigma_z"),
    "init_state.p0_pos": lambda value: built(kfilter.init_state, 0.0, 0.0, p0_pos=value),
    "init_state.p0_vel": lambda value: built(kfilter.init_state, 0.0, 0.0, p0_vel=value),
    "evaluate.match_radius": lambda value: built(
        evaluate, RESULTS, GroundTruth({1: [(1, 0.0, 0.0)]}), match_radius=value
    ),
    "Tracker.step.frame": stepped,
    "render_overlay.bounds": rendered,
    "render_overlay.bounds[0]": lambda value: rendered((value, 480.0)),
}


def test_forty_five_fields_are_probed():
    assert len(PROBES) == 45


@pytest.mark.parametrize("field", PROBES)
def test_every_value_returns_or_raises_a_user_error(field):
    # A UserError is accepted only from the constructor or call itself; once
    # it returns, running and writing what it built must not raise at all.
    failures = []
    for value in VALUES:
        try:
            PROBES[field](value)
        except Exception as exc:  # noqa: BLE001 - every escape is the finding
            failures.append(f"{value!r}: {type(exc).__name__}: {exc}")
    assert failures == []


class TestSilentValuesRejected:
    @pytest.mark.parametrize(
        "target, message",
        [
            # Accepted, a target born at 1.5 would never be alive: an empty scene.
            ((1.5, 3, 0, 0, 1, 1), "target 0: birth_frame must be an integer >= 1, got 1.5"),
            # Accepted, one dying at 3.5 would never die.
            (
                (1, 3.5, 0, 0, 1, 1),
                "target 0: need integers birth < death <= n_frames, got 1, 3.5, 5",
            ),
            ((True, 3, 0, 0, 1, 1), "target 0: birth_frame must be an integer >= 1, got True"),
        ],
    )
    def test_target_frame_that_is_not_an_integer(self, target, message):
        with pytest.raises(SpecError) as info:
            ScenarioSpec(n_frames=5, targets=(target,))
        assert str(info.value) == message

    @pytest.mark.parametrize("n_frames", [MAX_FRAMES + 1, 10**30])
    def test_n_frames_beyond_the_bound(self, n_frames):
        # Accepted, 10**30 frames would keep `generate` from ever returning.
        with pytest.raises(SpecError) as info:
            ScenarioSpec(n_frames=n_frames)
        assert str(info.value) == f"n_frames must be an integer in [1, 1000000], got {n_frames}"
        assert ScenarioSpec(n_frames=MAX_FRAMES).n_frames == MAX_FRAMES

    @pytest.mark.parametrize(
        "target",
        [(1, 3, 0.0, 0.0, 1.0), (1, 3, 0.0, 0.0, 1.0, 1.0, 0.0), 5, None, "12345"],
    )
    def test_target_that_is_not_six_values(self, target):
        with pytest.raises(SpecError, match="target 1: need birth,death,x,y,vx,vy"):
            ScenarioSpec(n_frames=5, targets=((1, 3, 0.0, 0.0, 1.0, 1.0), target))

    @pytest.mark.parametrize("value", [None, "a", True])
    def test_target_start_or_velocity_that_is_not_a_number(self, value):
        with pytest.raises(SpecError) as info:
            ScenarioSpec(n_frames=5, targets=((1, 3, 0.0, value, 1.0, 1.0),))
        assert str(info.value) == f"target 0: start and velocity must be finite, got {value!r}"

    @pytest.mark.parametrize("bounds", ["640x480", (1,), (1.0, 2.0, 3.0), 640.0, None])
    def test_bounds_that_are_not_a_pair(self, bounds):
        # Unpacked as a string, "640x480" would be read as (6.0, 4.0).
        with pytest.raises(SpecError, match="bounds must be a pair of numbers"):
            ScenarioSpec(n_frames=5, bounds=bounds)

    @pytest.mark.parametrize("side", [None, "640", True])
    def test_bounds_side_that_is_not_a_number(self, side):
        with pytest.raises(SpecError) as info:
            ScenarioSpec(n_frames=5, bounds=(side, 480))
        assert str(info.value) == f"bounds must be positive and at most 1e+09, got {side!r}"

    @pytest.mark.parametrize(
        "bounds, message",
        [
            (("a", 1), "bounds must be positive and at most 1e+09, got 'a'"),
            ((1,), "bounds must be a pair of numbers, got (1,)"),
            (None, "bounds must be a pair of numbers, got None"),
            # Accepted, these drew width="nan", a negative width, a canvas
            # of 1e+300 px and one of True (1) px.
            ((math.nan, 5), "bounds must be positive and at most 1e+09, got nan"),
            ((-5, 5), "bounds must be positive and at most 1e+09, got -5"),
            ((1e300, 1), "bounds must be positive and at most 1e+09, got 1e+300"),
            ((True, 2), "bounds must be positive and at most 1e+09, got True"),
        ],
    )
    def test_render_overlay_bounds_as_the_scenario_checks_them(self, bounds, message):
        with pytest.raises(ParamError) as info:
            render_overlay(RESULTS, bounds)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"confirm_hits": True}, "confirm_hits must be an integer >= 1, got True"),
            ({"max_misses": False}, "max_misses must be an integer >= 0, got False"),
            ({"min_confidence": True}, "min_confidence must lie in [0, 1], got True"),
            ({"gate_px": "50"}, "gate_px must be positive and at most 1e+09, got '50'"),
            ({"sigma_z": None}, "sigma_z must lie in [0.001, 1e+09], got None"),
        ],
    )
    def test_tracker_config_value_of_the_wrong_type(self, fields, message):
        with pytest.raises(ParamError) as info:
            TrackerConfig(**fields)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"seed": 1.5}, "seed must be an integer, got 1.5"),
            ({"n_frames": 10.0}, "n_frames must be an integer in [1, 1000000], got 10.0"),
            ({"noise_sigma": "1"}, "noise_sigma must be finite and nonnegative, got '1'"),
            ({"miss_prob": None}, "miss_prob must lie in [0, 1], got None"),
        ],
    )
    def test_scenario_value_of_the_wrong_type(self, fields, message):
        with pytest.raises(SpecError) as info:
            ScenarioSpec(**{"n_frames": 5, **fields})
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "frames, message",
        [
            # Written as "1.5,True,1.000000,2.000000", which the parser rejects.
            ({1.5: [(True, 1.0, 2.0)]}, "frame 1.5 must be an integer"),
            ({1: [(True, 1.0, 2.0)]}, "frame 1: gt_id must be an integer, got True"),
            ({True: [(1, 1.0, 2.0)]}, "frame True must be an integer"),
            ({"2": [(1, 1.0, 2.0)]}, "frame '2' must be an integer"),
            ({2: [(2.0, 1.0, 2.0)]}, "frame 2: gt_id must be an integer, got 2.0"),
        ],
    )
    def test_ground_truth_frame_or_id_that_is_not_an_integer(self, frames, message):
        with pytest.raises(UserError) as info:
            GroundTruth(frames)
        assert str(info.value) == message


class TestValuesThatAreNotNumbersRejected:
    @pytest.mark.parametrize(
        "call, message",
        [
            (
                lambda: Tracker().step(1, [Detection(1, "0", 0.0)]),
                "frame 1: detection (x, y, confidence) must be real numbers, got ('0', 0.0, 1.0)",
            ),
            (
                lambda: Tracker().step(1, [Detection(1, 0.0, 0.0, "1")]),
                "frame 1: detection (x, y, confidence) must be real numbers, got (0.0, 0.0, '1')",
            ),
            (
                lambda: write_detections([Detection(2, 0.0, True)]),
                "frame 2: detection (x, y, confidence) must be real numbers, got (0.0, True, 1.0)",
            ),
            (
                lambda: GroundTruth({1: [(1, None, 0.0)]}),
                "frame 1: gt_id 1 (x, y) must be real numbers, got (None, 0.0)",
            ),
            (
                lambda: records_by_frame([FrameResult(1, [RECORD._replace(vy="0")], [], [])]),
                "frame 1: track 1 (x, y, vx, vy) must be real numbers, got (0.0, 0.0, 0.0, '0')",
            ),
            (
                # The ids do not compare, so they cannot be sorted.
                lambda: records_by_frame(
                    [FrameResult(1, [RECORD, RECORD._replace(track_id="a")], [], [])]
                ),
                "frame 1: track_id must be an integer, got 'a'",
            ),
            (
                lambda: check_records(1, [RECORD._replace(vy="0")]),
                "frame 1: track 1 (x, y, vx, vy) must be real numbers, got (0.0, 0.0, 0.0, '0')",
            ),
            (
                lambda: check_records(1, [RECORD, RECORD._replace(track_id="a")]),
                "frame 1: track_id must be an integer, got 'a'",
            ),
            (
                # Sorting read a one-shot iterator empty, and the loop checked
                # nothing: no error, and an empty iterator came back.
                lambda: check_records(1, iter([RECORD, RECORD._replace(track_id="a")])),
                "frame 1: track_id must be an integer, got 'a'",
            ),
            (lambda: check_records(0, [RECORD]), "frame 0 must be >= 1"),
            (lambda: check_records(True, [RECORD]), "frame True must be an integer"),
            (lambda: check_frame("2"), "frame '2' must be an integer"),
            (lambda: check_frame(1.0), "frame 1.0 must be an integer"),
            (lambda: check_frame(np.int64(-1)), "frame -1 must be >= 1"),
            (
                lambda: run({"1": [Detection("1", 0.0, 0.0)]}),
                "frame must be an integer, got '1'",
            ),
            (
                lambda: run(STREAM, frame_range=(1, "5")),
                "frame_range end must be an integer, got '5'",
            ),
            (
                # Accepted before, as the range 1..5.
                lambda: run(STREAM, frame_range=(1, 5.5)),
                "frame_range end must be an integer, got 5.5",
            ),
            (
                # R's off-diagonal entries were inf * 0, NaN.
                lambda: kfilter.make_cv_model(sigma_z=1e300),
                "sigma_z must be positive and at most 1e+09, got 1e+300",
            ),
            (
                # Q's blocks were inf.
                lambda: kfilter.make_cv_model(sigma_a=1e300),
                "sigma_a must be positive and at most 1e+09, got 1e+300",
            ),
        ],
    )
    def test_named_with_the_value(self, call, message):
        with pytest.raises(UserError) as info:
            call()
        assert str(info.value) == message

    def test_ints_and_numpy_numbers_are_numbers(self):
        plain = Tracker().step(1, [Detection(1, 3.0, 4.0, 0.5)])
        mixed = Tracker().step(1, [Detection(1, np.float64(3.0), 4, np.float32(0.5))])
        assert write_tracks([mixed]) == write_tracks([plain])
        gt = GroundTruth({1: [(1, np.float32(1.5), -2)]})
        assert write_ground_truth(gt) == "1,1,1.500000,-2.000000\n"


class TestWrongShapesRejected:
    @pytest.mark.parametrize(
        "call, error, message",
        [
            (
                lambda: GroundTruth({1: [(1, 0.0)]}),
                UserError,
                "frame 1: each point must be (gt_id, x, y); "
                "not enough values to unpack (expected 3, got 2)",
            ),
            (
                lambda: GroundTruth({1: None}),
                UserError,
                "frame 1: each point must be (gt_id, x, y); 'NoneType' object is not iterable",
            ),
            (
                lambda: Tracker().step(1, [(1, 0.0)]),
                UserError,
                "frame 1: each detection must be (frame, x, y, confidence); "
                "not enough values to unpack (expected 4, got 2)",
            ),
            (
                lambda: Tracker().step(1, [None]),
                UserError,
                "frame 1: each detection must be (frame, x, y, confidence); "
                "cannot unpack non-iterable NoneType object",
            ),
            (
                lambda: write_detections([(1, 0.0, 0.0)]),
                UserError,
                "frame 1: each detection must be (frame, x, y, confidence); "
                "not enough values to unpack (expected 4, got 3)",
            ),
            (
                lambda: records_by_frame([FrameResult(1, [(1, 0.0)], [], [])]),
                UserError,
                "frame 1: each record must be (track_id, x, y, vx, vy, status, source); "
                "'tuple' object has no attribute 'track_id'",
            ),
            (
                lambda: records_by_frame([FrameResult(1, None, [], [])]),
                UserError,
                "frame 1: each record must be (track_id, x, y, vx, vy, status, source); "
                "'NoneType' object is not iterable",
            ),
            (
                lambda: check_records(1, [(1, 0.0)]),
                UserError,
                "frame 1: each record must be (track_id, x, y, vx, vy, status, source); "
                "'tuple' object has no attribute 'track_id'",
            ),
            (
                lambda: check_records(1, None),
                UserError,
                "frame 1: each record must be (track_id, x, y, vx, vy, status, source); "
                "'NoneType' object is not iterable",
            ),
            (
                lambda: run({1: []}, frame_range=(1,)),
                ParamError,
                "frame_range must be a (start, end) pair, got (1,)",
            ),
            (
                lambda: run({1: []}, frame_range=5),
                ParamError,
                "frame_range must be a (start, end) pair, got 5",
            ),
            # A falsy range is not an omitted one.
            (
                lambda: run({1: []}, frame_range=0),
                ParamError,
                "frame_range must be a (start, end) pair, got 0",
            ),
            (
                lambda: run({1: []}, frame_range=()),
                ParamError,
                "frame_range must be a (start, end) pair, got ()",
            ),
            (
                lambda: write_detections([None]),
                UserError,
                "each detection must be (frame, x, y, confidence); "
                "'NoneType' object is not subscriptable",
            ),
            # Read once by the check, an iterator would score as no points.
            (
                lambda: GroundTruth({1: iter([(1, 0.0, 0.0)])}),
                UserError,
                "frame 1: points must be a Collection, got list_iterator",
            ),
            # Containers of the wrong kind: each raised AttributeError or TypeError.
            (
                lambda: GroundTruth([(1, [(1, 0.0, 0.0)])]),
                UserError,
                "frames must be a Mapping, got list",
            ),
            (lambda: GroundTruth(None), UserError, "frames must be a Mapping, got NoneType"),
            (
                lambda: run(None),
                UserError,
                "detections_by_frame must be a Mapping, got NoneType",
            ),
            (
                lambda: evaluate([(1, [RECORD])], GroundTruth({})),
                UserError,
                "each result must be a FrameResult, got tuple",
            ),
            (
                lambda: write_tracks([(1, [RECORD])]),
                UserError,
                "each result must be a FrameResult, got tuple",
            ),
            (
                lambda: render_overlay([(1, [RECORD])], (640.0, 480.0)),
                UserError,
                "each result must be a FrameResult, got tuple",
            ),
            (
                lambda: evaluate(None, GroundTruth({})),
                UserError,
                "results must be an Iterable, got NoneType",
            ),
            (
                lambda: evaluate(RESULTS, None),
                UserError,
                "gt must be a GroundTruth, got NoneType",
            ),
            (
                lambda: render_overlay(RESULTS, (640.0, 480.0), gt={1: []}),
                UserError,
                "gt must be a GroundTruth, got dict",
            ),
            # Each of these became the default config.
            (lambda: Tracker({}), ParamError, "config must be a TrackerConfig, got dict"),
            (lambda: Tracker(0), ParamError, "config must be a TrackerConfig, got int"),
            (
                lambda: run(STREAM, config={}),
                ParamError,
                "config must be a TrackerConfig, got dict",
            ),
            # Each of these raised AttributeError or TypeError.
            (lambda: Tracker(3), ParamError, "config must be a TrackerConfig, got int"),
            (lambda: generate(SPEC), SpecError, "spec must be a ScenarioSpec, got dict"),
            (
                lambda: write_ground_truth({1: [(1, 0.0, 0.0)]}),
                UserError,
                "gt must be a GroundTruth, got dict",
            ),
            (lambda: parse_detections(None), UserError, "text must be a str, got NoneType"),
            (lambda: parse_tracks(b"1,1,0,0,0,0,C,M"), UserError, "text must be a str, got bytes"),
            (lambda: parse_ground_truth(["1,1,0,0"]), UserError, "text must be a str, got list"),
            (lambda: parse_config(None), UserError, "text must be a str, got NoneType"),
            (
                lambda: tracker_config_from(None),
                ParamError,
                "values must be a Mapping, got NoneType",
            ),
            (
                lambda: ScenarioSpec(n_frames=3, targets=None),
                SpecError,
                "targets must be an Iterable, got NoneType",
            ),
            # This one built a spec from nothing.
            (lambda: scenario_spec_from([]), SpecError, "values must be a Mapping, got list"),
        ],
    )
    def test_named_with_the_frame(self, call, error, message):
        with pytest.raises(error) as info:
            call()
        assert str(info.value) == message

    def test_one_shot_detections_are_tracked(self):
        # `check_detections` read the iterator empty before `step` could:
        # no record and no birth.
        dets = [Detection(1, 5.0, 5.0), Detection(1, 50.0, 60.0)]
        assert Tracker().step(1, iter(dets)) == Tracker().step(1, dets)
        assert Tracker().step(1, iter(dets)).born == [1, 2]
        stream = {f: [d._replace(frame=f) for d in dets] for f in range(1, 4)}
        one_shot = {f: (d for d in frame_dets) for f, frame_dets in stream.items()}
        assert run(one_shot) == run(stream)

    def test_plain_tuple_steps_like_a_detection(self):
        # `check_detections` accepts a (frame, x, y, confidence) tuple, so
        # `step` must read it by position too, not by attribute.
        stream = [[(1, 10.0, 20.0, 1.0), (1, 50.0, 60.0, 0.9)], [(2, 11.0, 21.0, 1.0)]]
        plain, named = Tracker(), Tracker()
        for frame, detections in enumerate(stream, start=1):
            assert plain.step(frame, detections) == named.step(
                frame, [Detection(*d) for d in detections]
            )

    @pytest.mark.parametrize(
        "write", [write_tracks, lambda results: render_overlay(results, (640.0, 480.0))]
    )
    def test_record_status_and_source_codes(self, write):
        # The file codes, not the enum members: write_tracks raised
        # AttributeError, and render_overlay drew the record as tentative.
        results = [FrameResult(1, [RECORD._replace(status="C", source="M")], [], [])]
        with pytest.raises(UserError) as info:
            write(results)
        assert str(info.value) == (
            "frame 1: track 1 status and source must be a TrackStatus and a "
            "RecordSource, got 'C', 'M'"
        )


class TestNumpyIntegersAccepted:
    def test_tracker_config(self):
        config = TrackerConfig(confirm_hits=np.int64(2), max_misses=np.int32(1))
        plain = TrackerConfig(confirm_hits=2, max_misses=1)
        assert write_tracks(run(STREAM, config)) == write_tracks(run(STREAM, plain))

    def test_scenario_writes_the_same_scene(self):
        # SplitMix64 masks its seed with a Python int, which overflows an int64.
        wide = tuple(np.int64(v) for v in TARGET[:2]) + TARGET[2:]
        fields = {"targets": (wide,), "n_frames": np.int64(4), "seed": np.int64(3)}
        spec = ScenarioSpec(**{**SPEC, **fields})
        assert type(spec.seed) is int and spec.seed == 3
        gt, detections = generate(spec)
        plain_gt, plain_detections = generate(ScenarioSpec(**SPEC, seed=3))
        assert write_detections(detections) == write_detections(plain_detections)
        assert write_ground_truth(gt) == write_ground_truth(plain_gt)

    def test_ground_truth_reads_back_equal(self):
        gt = GroundTruth({np.int64(2): [(np.int32(1), 0.0, 0.0)], 3: [(np.uint8(4), 1.0, 2.0)]})
        assert write_ground_truth(gt) == "2,1,0.000000,0.000000\n3,4,1.000000,2.000000\n"
        assert parse_ground_truth(write_ground_truth(gt)) == gt


class TestRules:
    @pytest.mark.parametrize(
        "value, expected",
        [(3, True), (np.int64(3), True), (np.uint8(0), True), (True, False), (3.0, False),
         ("3", False), (None, False)],
    )  # fmt: skip
    def test_is_integer(self, value, expected):
        assert is_integer(value) is expected

    def test_check_integer_returns_an_int(self):
        value = check_integer(SpecError, "n", np.int64(7), 1)
        assert type(value) is int and value == 7
        assert check_integer(SpecError, "seed", -(2**70)) == -(2**70)

    @pytest.mark.parametrize(
        "low, value, message",
        [
            (1, 0, "n must be an integer >= 1, got 0"),
            (0, 2.0, "n must be an integer >= 0, got 2.0"),
            (-math.inf, "1", "n must be an integer, got '1'"),
        ],
    )
    def test_check_integer_message(self, low, value, message):
        with pytest.raises(ParamError) as info:
            check_integer(ParamError, "n", value, low)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "low, high, above, value, message",
        [
            (0, 1e9, True, 0, "x must be positive and at most 1e+09, got 0"),
            (0, 1, False, -1, "x must lie in [0, 1], got -1"),
            (0, math.inf, True, math.inf, "x must be finite and positive, got inf"),
            (0, math.inf, False, -0.5, "x must be finite and nonnegative, got -0.5"),
            (-math.inf, math.inf, False, math.nan, "x must be finite, got nan"),
        ],
    )
    def test_check_number_message_shapes(self, low, high, above, value, message):
        with pytest.raises(ParamError) as info:
            check_number(ParamError, "x", value, low, high, above=above)
        assert str(info.value) == message

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 10**400, -(10**400)])
    def test_check_number_asks_for_a_finite_float(self, value):
        with pytest.raises(SpecError):
            check_number(SpecError, "x", value, -math.inf)

    def test_check_number_bounds(self):
        assert check_number(SpecError, "x", 0, 0, 1) == 0.0
        assert check_number(SpecError, "x", 1, 0, 1) == 1.0
        assert type(check_number(SpecError, "x", np.float64(0.5), 0)) is float
        assert check_number(SpecError, "x", -1e308, -math.inf) == -1e308
        with pytest.raises(SpecError):
            check_number(SpecError, "x", 0.0, 0, 1, above=True)
        with pytest.raises(SpecError):
            check_number(SpecError, "x", np.nextafter(1.0, 2.0), 0, 1)


def _name(node):
    """The name a Name or an Attribute (`errors.ParamError`) ends in, else ''."""
    if isinstance(node, ast.Name):
        return node.id
    return node.attr if isinstance(node, ast.Attribute) else ""


def _raised_names(tree):
    """Names raised (`raise E`, `raise E(...)`) or passed first to a `check_*` helper."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            names.add(_name(node.exc.func if isinstance(node.exc, ast.Call) else node.exc))
        elif isinstance(node, ast.Call) and _name(node.func).startswith("check_") and node.args:
            names.add(_name(node.args[0]))
    return names


def test_every_error_class_is_raised_by_some_module():
    # An error class that no module raises is dead weight in the public API.
    raised = set()
    for path in Path(errors.__file__).parent.glob("*.py"):
        if path.name not in ("errors.py", "__init__.py"):
            raised |= _raised_names(ast.parse(path.read_text(), str(path)))
    classes = [
        kind.__name__
        for kind in vars(errors).values()
        if isinstance(kind, type)
        and issubclass(kind, errors.TrackingError)
        and kind is not errors.TrackingError
        and kind.__module__ == errors.__name__
    ]
    assert {"UserError", "InternalError", "ParseError"} <= set(classes)
    assert [name for name in classes if name not in raised] == []
