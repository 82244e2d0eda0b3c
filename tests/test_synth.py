"""Scenario generator, pinned PRNG, and evaluation accounting tests."""

import hashlib
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pointtrack import assignment, synth
from pointtrack import tracker as tracker_module
from pointtrack.errors import AlignmentError, ParamError, SpecError, UserError
from pointtrack.io import (
    COORD_LIMIT,
    parse_detections,
    parse_ground_truth,
    write_detections,
    write_ground_truth,
)
from pointtrack.rng import POISSON_RATE_MAX, SplitMix64
from pointtrack.synth import (
    STACK_CELLS,
    GroundTruth,
    Metrics,
    ScenarioSpec,
    TargetPath,
    evaluate,
    generate,
)
from pointtrack.tracker import (
    FrameResult,
    RecordSource,
    TrackRecord,
    TrackStatus,
    associate,
    build_cost_matrix,
    group_by_frame,
    records_by_frame,
    run,
)


def spec_with(**overrides):
    base = dict(
        n_frames=20,
        targets=(TargetPath(1, 20, 10.0, 10.0, 2.0, 1.0), TargetPath(5, 15, 80.0, 40.0, -1.0, 0.0)),
        noise_sigma=0.0,
        miss_prob=0.0,
        clutter_rate=0.0,
        bounds=(200.0, 100.0),
        seed=99,
    )
    base.update(overrides)
    return ScenarioSpec(**base)


def results_from_truth(gt, status=TrackStatus.CONFIRMED, relabel=None):
    """Feed ground truth back as tracker output with stable ids."""
    results = []
    for frame in sorted(gt.frames):
        records = [
            TrackRecord(
                track_id=relabel[gt_id] if relabel else gt_id,
                x=x,
                y=y,
                vx=0.0,
                vy=0.0,
                status=status,
                source=RecordSource.MEASURED,
            )
            for gt_id, x, y in gt.at(frame)
        ]
        results.append(FrameResult(frame=frame, records=records, born=[], died=[]))
    return results


class TestSplitMix64:
    def test_reference_outputs_for_seed_zero(self):
        stream = SplitMix64(0)
        assert stream.next_u64() == 0xE220A8397B1DCDAF
        assert stream.next_u64() == 0x6E789E6AA1B965F4
        assert stream.next_u64() == 0x06C45D188009454F

    def test_uniform_range_and_determinism(self):
        a = SplitMix64(123)
        b = SplitMix64(123)
        values = [a.uniform() for _ in range(1000)]
        assert values == [b.uniform() for _ in range(1000)]
        assert all(0.0 <= v < 1.0 for v in values)

    def test_seed_is_masked_to_64_bits(self):
        assert SplitMix64(1 << 64).next_u64() == SplitMix64(0).next_u64()

    def test_gauss_moments_are_sane(self):
        stream = SplitMix64(7)
        draws = [stream.gauss() for _ in range(20000)]
        mean = sum(draws) / len(draws)
        var = sum((d - mean) ** 2 for d in draws) / len(draws)
        assert abs(mean) < 0.05
        assert abs(var - 1.0) < 0.05

    def test_poisson_mean(self):
        stream = SplitMix64(7)
        draws = [stream.poisson(3.0) for _ in range(5000)]
        assert abs(sum(draws) / len(draws) - 3.0) < 0.15

    def test_zero_rate_poisson_consumes_no_draws(self):
        stream = SplitMix64(99)
        assert stream.poisson(0.0) == 0
        assert stream.next_u64() == SplitMix64(99).next_u64()

    @pytest.mark.parametrize("seed", [0, 1, 2**64 - 1, -1])
    def test_buffered_stream_matches_the_unbuffered_loop(self, seed):
        mask = (1 << 64) - 1
        state = seed & mask
        outputs = 0

        def next_u64():
            # The module docstring's loop, one output per call.
            nonlocal state, outputs
            outputs += 1
            state = (state + 0x9E3779B97F4A7C15) & mask
            z = state
            z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
            return z ^ (z >> 31)

        def uniform():
            return (next_u64() >> 11) * 2.0**-53

        def gauss():
            u1 = 1.0 - uniform()
            return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * uniform())

        def poisson(rate):
            threshold, count, product = math.exp(-rate), 0, uniform()
            while product > threshold:
                count += 1
                product *= uniform()
            return count

        stream = SplitMix64(seed)
        calls = random.Random(seed).choices(["u64", "uniform", "gauss", "poisson"], k=10_000)
        for i, call in enumerate(calls):
            if call == "u64":
                assert stream.next_u64() == next_u64(), i
            elif call == "uniform":
                assert stream.uniform() == uniform(), i
            elif call == "gauss":
                assert stream.gauss() == gauss(), i
            else:
                rate = (i % 5) * 1.5
                assert stream.poisson(rate) == (poisson(rate) if rate > 0 else 0), i
        assert outputs > 2 * 4096  # the package computes outputs 4,096 at a time


class TestGenerate:
    def test_noiseless_detections_equal_truth(self):
        gt, detections = generate(spec_with())
        truth_points = [(f, x, y) for f in gt.frames for _, x, y in gt.at(f)]
        det_points = [(d.frame, d.x, d.y) for d in detections]
        assert det_points == truth_points

    def test_truth_follows_exact_linear_motion(self):
        gt, _ = generate(spec_with())
        assert gt.at(1) == [(1, 10.0, 10.0)]
        assert gt.at(6) == [(1, 20.0, 15.0), (2, 79.0, 40.0)]
        assert gt.at(16) == [(1, 40.0, 25.0)]  # target 2 died at 15

    def test_same_seed_reproduces_exactly(self):
        spec = spec_with(noise_sigma=1.5, miss_prob=0.2, clutter_rate=1.0)
        first = generate(spec)
        second = generate(spec)
        assert first == second

    def test_different_seed_differs(self):
        spec_a = spec_with(noise_sigma=1.5, clutter_rate=1.0, seed=1)
        spec_b = spec_with(noise_sigma=1.5, clutter_rate=1.0, seed=2)
        assert generate(spec_a)[1] != generate(spec_b)[1]

    def test_certain_miss_drops_everything(self):
        _, detections = generate(spec_with(miss_prob=1.0))
        assert detections == []

    def test_detection_count_matches_alive_targets(self):
        gt, detections = generate(spec_with())
        per_frame = {}
        for d in detections:
            per_frame[d.frame] = per_frame.get(d.frame, 0) + 1
        for frame in range(1, 21):
            assert per_frame.get(frame, 0) == len(gt.at(frame))

    def test_clutter_stays_in_bounds(self):
        _, detections = generate(spec_with(targets=(), clutter_rate=3.0, bounds=(50.0, 30.0)))
        assert detections  # expected ~60 clutter points
        assert all(0 <= d.x < 50 and 0 <= d.y < 30 for d in detections)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"n_frames": 0},
            {"targets": ((5, 5, 0.0, 0.0, 1.0, 1.0),)},  # birth == death
            {"targets": ((1, 99, 0.0, 0.0, 1.0, 1.0),)},  # death > n_frames
            {"targets": ((0, 10, 0.0, 0.0, 1.0, 1.0),)},  # birth < 1
            {"miss_prob": 1.5},
            {"miss_prob": -0.1},
            {"noise_sigma": -1.0},
            {"clutter_rate": -2.0},
            {"bounds": (0.0, 100.0)},
            {"bounds": (1e300, 100.0)},  # clutter would land beyond COORD_LIMIT
            {"bounds": (float("nan"), 100.0)},
            {"noise_sigma": float("nan")},
            {"clutter_rate": float("inf")},
            # Past POISSON_RATE_MAX the Poisson draw stops following the rate:
            # SplitMix64(1).poisson(r) is 721 for both r = 1000 and 5000.
            {"clutter_rate": 700.5},
            {"clutter_rate": 5000.0},
        ],
    )
    def test_invalid_specs_rejected(self, overrides):
        with pytest.raises(SpecError):
            spec_with(**overrides)

    def test_scene_file_bytes_are_pinned(self, monkeypatch):
        # 32,181 draws, across several of the stream's 4,096-output blocks.
        spec = ScenarioSpec(
            n_frames=500,
            targets=tuple(
                TargetPath(
                    1 + 9 * i, 500 - 7 * i, 20.0 + 37 * i, 460.0 - 23 * i,
                    0.5 - 0.07 * i, 0.3 + 0.05 * i,
                )
                for i in range(14)
            ),
            noise_sigma=1.5,
            miss_prob=0.1,
            clutter_rate=4.0,
            bounds=(640.0, 480.0),
            seed=20201,
        )
        draws = 0
        next_u64 = SplitMix64.next_u64

        def counted(self):
            nonlocal draws
            draws += 1
            return next_u64(self)

        monkeypatch.setattr(SplitMix64, "next_u64", counted)
        gt, detections = generate(spec)
        assert draws == 32181
        assert hashlib.sha256(write_detections(detections).encode()).hexdigest() == (
            "7875129e853660fb3dab7bd9eaabc47a951b0bde2c965a7824c9f87246fe7414"
        )
        assert hashlib.sha256(write_ground_truth(gt).encode()).hexdigest() == (
            "554b59dc23e54af30df227b226c8e47f2c1514ebe83c84212189f0d204613c06"
        )

    def test_largest_clutter_rate_keeps_its_pinned_draws(self):
        spec = spec_with(targets=(), n_frames=1, clutter_rate=POISSON_RATE_MAX, seed=1)
        _, detections = generate(spec)
        assert len(detections) == SplitMix64(1).poisson(700.0) == 680

    @pytest.mark.parametrize(
        "target",
        [
            (1, 3, float("nan"), 0.0, 0.0, 0.0),
            (1, 3, 0.0, 0.0, 0.0, float("inf")),
            (1, 3, 1e300, 0.0, 1e300, 0.0),
            (1, 3, 9e8, 0.0, 9e8, 0.0),  # x reaches 2.7e9 on its last frame
            (1, 3, 0.0, 1e9 - 5.0, 0.0, 0.0),  # inside, but noise can push it out
        ],
    )
    def test_target_that_could_leave_coordinate_limit_is_named(self, target):
        with pytest.raises(SpecError, match="target 1"):
            spec_with(targets=((1, 20, 10.0, 10.0, 2.0, 1.0), target), noise_sigma=1.0)

    def test_points_on_the_coordinate_limit_round_trip(self):
        spec = spec_with(targets=((1, 3, COORD_LIMIT, -COORD_LIMIT, -1e9, 1e9),))
        gt, detections = generate(spec)
        assert len(parse_detections(write_detections(detections))) == 3
        parsed = parse_ground_truth(write_ground_truth(gt))
        assert parsed.frames[1] == [(1, COORD_LIMIT, -COORD_LIMIT)]
        assert parsed.frames[3] == [(1, -COORD_LIMIT, COORD_LIMIT)]

    def test_ground_truth_keys_only_frames_with_points(self):
        gt, _ = generate(ScenarioSpec(n_frames=6, targets=((3, 5, 0, 0, 1, 1),)))
        assert list(gt.frames) == [3, 4, 5]
        assert parse_ground_truth(write_ground_truth(gt)) == gt

    @settings(max_examples=50, deadline=None)
    @given(
        st.integers(2, 12).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(
                    st.tuples(st.integers(1, n - 1), st.integers(1, n - 1)).map(
                        lambda span: (min(span), max(span) + 1, 5.0, 5.0, 1.0, 0.5)
                    ),
                    max_size=4,
                ),
            )
        ),
        st.integers(0, 2**32),
    )
    def test_written_ground_truth_reads_back_equal(self, scene, seed):
        n_frames, targets = scene
        spec = ScenarioSpec(n_frames=n_frames, targets=tuple(targets), noise_sigma=1.0, seed=seed)
        gt, _ = generate(spec)
        assert parse_ground_truth(write_ground_truth(gt)) == gt


class TestGroundTruth:
    @pytest.mark.parametrize(
        "points, message",
        [
            # Accepting this would let evaluate score id_switches == 3 and
            # mota == 0.25 against tracks sitting exactly on both points.
            ([(1, 0.0, 0.0), (1, 100.0, 0.0)], "gt_id 1 appears twice in frame 2"),
            ([(0, 0.0, 0.0)], "frame 2: gt_id must be >= 1, got 0"),
            ([(2, 0.0, 0.0), (-3, 5.0, 5.0)], "frame 2: gt_id must be >= 1, got -3"),
        ],
    )
    def test_bad_or_repeated_gt_id_named_with_its_frame(self, points, message):
        with pytest.raises(UserError) as info:
            GroundTruth(frames={1: [(1, 0.0, 0.0)], 2: points})
        assert str(info.value) == message

    @pytest.mark.parametrize("x, y", [(math.nan, 0.0), (0.0, -math.inf), (1e300, 0.0)])
    def test_non_finite_or_far_point_named_with_its_frame_and_id(self, x, y):
        # Accepting it would end evaluate in a bare ValueError from solve.
        with pytest.raises(UserError) as info:
            GroundTruth(frames={1: [(1, 0.0, 0.0)], 2: [(1, 0.0, 0.0), (3, x, y)]})
        assert str(info.value) == (
            f"frame 2: gt_id 3 at ({x}, {y}) must be finite and within +-{COORD_LIMIT:g}"
        )

    @pytest.mark.parametrize("frame", [0, -1])
    def test_nonpositive_frame_named(self, frame):
        with pytest.raises(UserError, match=f"frame {frame} must be >= 1"):
            GroundTruth(frames={1: [(2, 1.0, 1.0)], frame: [(1, 0.0, 0.0)]})

    @pytest.mark.parametrize("points", [((1, 0.0, 0.0),), {(1, 0.0, 0.0)}])
    def test_points_of_any_collection_read_back_equal(self, points):
        # Stored as given, a tuple of points compared unequal to the list
        # the parser builds.
        frames = {1: points, 2: [(1, 1.0, 0.0)]}
        gt = GroundTruth(frames)
        assert parse_ground_truth(write_ground_truth(gt)) == gt
        assert gt.frames == {1: [(1, 0.0, 0.0)], 2: [(1, 1.0, 0.0)]}
        assert frames[1] is points  # the caller's mapping is not changed

    def test_lists_of_points_are_stored_as_given(self):
        frames = {1: [(1, 0.0, 0.0)], 3: [(2, 1.0, 1.0)]}
        assert GroundTruth(frames).frames is frames

    @pytest.mark.parametrize("frame", [3, 4, 5, 10**9])
    def test_every_frame_key_is_scored(self, frame):
        # The keys are the frames: a point on any frame counts, however far
        # it lies past the others, so misses == 2 and mota == 0.
        gt = GroundTruth(frames={1: [(2, 1.0, 1.0)], frame: [(1, 0.0, 0.0)]})
        metrics = evaluate([FrameResult(1, [], [], [])], gt)
        assert (metrics.misses, metrics.mota) == (2, 0.0)


class TestEvaluate:
    def test_perfect_tracking_scores_one(self):
        gt, _ = generate(spec_with())
        metrics = evaluate(results_from_truth(gt), gt)
        assert metrics.mota == 1.0
        assert metrics.id_switches == 0
        assert metrics.misses == 0
        assert metrics.false_positives == 0
        assert metrics.matches == gt.total_points()
        assert metrics.fragmentation == 0

    def test_id_swap_counts_one_switch_per_target(self):
        frames = {
            f: [(1, 0.0, 0.0), (2, 50.0, 0.0)] for f in range(1, 11)
        }
        gt = GroundTruth(frames=frames)
        swap_from = 6
        results = []
        for f in range(1, 11):
            if f < swap_from:
                mapping = {1: 1, 2: 2}
            else:
                mapping = {1: 2, 2: 1}
            records = [
                TrackRecord(mapping[gid], x, y, 0.0, 0.0, TrackStatus.CONFIRMED, RecordSource.MEASURED)
                for gid, x, y in gt.at(f)
            ]
            results.append(FrameResult(f, records, [], []))
        metrics = evaluate(results, gt)
        assert metrics.id_switches == 2
        assert metrics.misses == 0 and metrics.false_positives == 0

    def test_no_output_at_all(self):
        gt, _ = generate(spec_with())
        metrics = evaluate([], gt)
        assert metrics.misses == gt.total_points()
        assert metrics.matches == 0
        assert metrics.mota <= 0.0

    def test_metrics_invariant_under_track_relabeling(self):
        gt, _ = generate(spec_with())
        plain = evaluate(results_from_truth(gt), gt)
        relabeled = evaluate(results_from_truth(gt, relabel={1: 41, 2: 17}), gt)
        assert plain == relabeled

    def test_tentative_records_excluded_by_default(self):
        gt, _ = generate(spec_with())
        tentative = results_from_truth(gt, status=TrackStatus.TENTATIVE)
        assert evaluate(tentative, gt).matches == 0
        assert evaluate(tentative, gt, include_tentative=True).matches == gt.total_points()

    def test_matches_plus_misses_equals_total(self):
        gt, _ = generate(spec_with())
        # keep only every other frame of output
        results = [fr for fr in results_from_truth(gt) if fr.frame % 2 == 0]
        metrics = evaluate(results, gt)
        assert metrics.matches + metrics.misses == gt.total_points()

    def test_fragmentation_counts_reacquisitions(self):
        frames = {f: [(1, 0.0, 0.0)] for f in range(1, 8)}
        gt = GroundTruth(frames=frames)
        results = [
            fr for fr in results_from_truth(gt) if fr.frame not in (3, 4)
        ]
        metrics = evaluate(results, gt)
        assert metrics.fragmentation == 1
        assert metrics.misses == 2

    def test_reacquisition_by_another_track_counts_switch_and_fragment(self):
        # Track 1 holds target 1 on frames 1-2, nothing is reported on
        # frames 3-4, and track 2 takes the target up on frames 5-7.
        gt = GroundTruth(frames={f: [(1, 0.0, 0.0)] for f in range(1, 8)})
        results = [
            FrameResult(
                f,
                [
                    TrackRecord(
                        1 if f <= 2 else 2, 0.0, 0.0, 0.0, 0.0,
                        TrackStatus.CONFIRMED, RecordSource.MEASURED,
                    )
                ],
                [],
                [],
            )
            for f in (1, 2, 5, 6, 7)
        ]
        metrics = evaluate(results, gt)
        assert metrics.id_switches == 1
        assert metrics.fragmentation == 1
        assert metrics.misses == 2
        assert metrics.matches == 5

    def test_match_radius_gates_distant_hypotheses(self):
        frames = {1: [(1, 0.0, 0.0)]}
        gt = GroundTruth(frames=frames)
        far = [
            FrameResult(
                1,
                [TrackRecord(1, 30.0, 0.0, 0.0, 0.0, TrackStatus.CONFIRMED, RecordSource.MEASURED)],
                [],
                [],
            )
        ]
        metrics = evaluate(far, gt, match_radius=10.0)
        assert metrics.matches == 0
        assert metrics.misses == 1
        assert metrics.false_positives == 1

    def test_out_of_radius_distance_does_not_pick_the_in_radius_pair(self):
        # On frame 2 the whole-matrix optimum pairs target 1 with track 2
        # (8 px) and target 2 with track 1 (12 px, beyond the radius); the
        # in-radius matching keeps target 1 on track 1 (2 px).
        gt = GroundTruth(
            frames={1: [(1, 0.0, 0.0)], 2: [(1, 0.0, 0.0), (2, 14.0, 0.0)]}
        )

        def record(track_id, x):
            return TrackRecord(
                track_id, x, 0.0, 0.0, 0.0, TrackStatus.CONFIRMED, RecordSource.MEASURED
            )

        results = [
            FrameResult(1, [record(1, 2.0)], [], []),
            FrameResult(2, [record(1, 2.0), record(2, -8.0)], [], []),
        ]
        metrics = evaluate(results, gt, match_radius=10.0)
        assert metrics == Metrics(
            id_switches=0, misses=1, false_positives=1, matches=2, mota=1 - 2 / 3, fragmentation=0
        )

    @pytest.mark.parametrize("radius", [float("nan"), float("inf"), -5.0, 0.0])
    def test_match_radius_must_be_finite_and_positive(self, radius):
        gt, _ = generate(spec_with())
        with pytest.raises(ParamError) as info:
            evaluate(results_from_truth(gt), gt, match_radius=radius)
        assert str(info.value) == f"match_radius must be finite and positive, got {radius}"

    def test_duplicate_frames_rejected(self):
        gt, _ = generate(spec_with())
        results = results_from_truth(gt)
        with pytest.raises(AlignmentError):
            evaluate(results + [results[0]], gt)

    @pytest.mark.parametrize("x, y", [(math.nan, 0.0), (0.0, math.inf), (-1e300, 0.0)])
    def test_non_finite_or_far_record_named_with_its_frame_and_track(self, x, y):
        gt = GroundTruth(frames={2: [(1, -1e9, 0.0)]})
        record = TrackRecord(4, x, y, 0.0, 0.0, TrackStatus.CONFIRMED, RecordSource.MEASURED)
        with pytest.raises(UserError) as info:
            evaluate([FrameResult(1, [], [], []), FrameResult(2, [record], [], [])], gt)
        assert str(info.value) == (
            f"frame 2: track 4 at ({x}, {y}) must be finite and within +-{COORD_LIMIT:g}"
        )

    @pytest.mark.parametrize("vx, vy", [(2e9, 0.0), (0.0, -math.inf), (math.nan, 0.0)])
    def test_far_or_non_finite_velocity_named_with_its_frame_and_track(self, vx, vy):
        # The record is Tentative and not scored, yet a track file could not hold it.
        gt = GroundTruth(frames={1: [(1, 0.0, 0.0)]})
        record = TrackRecord(4, 0.0, 0.0, vx, vy, TrackStatus.TENTATIVE, RecordSource.COASTED)
        with pytest.raises(UserError) as info:
            evaluate([FrameResult(1, [record], [], [])], gt)
        assert str(info.value) == (
            f"frame 1: track 4 velocity ({vx}, {vy}) must be finite and within "
            f"+-{COORD_LIMIT:g}"
        )

    def test_track_id_below_one_rejected(self):
        gt = GroundTruth(frames={1: [(1, 0.0, 0.0)]})
        record = TrackRecord(0, 0.0, 0.0, 0.0, 0.0, TrackStatus.CONFIRMED, RecordSource.MEASURED)
        with pytest.raises(UserError) as info:
            evaluate([FrameResult(1, [record], [], [])], gt)
        assert str(info.value) == "frame 1: track_id must be >= 1, got 0"

    def test_repeated_track_id_in_a_frame_rejected(self):
        # Scored, the two records would match both targets as two tracks.
        gt = GroundTruth(frames={f: [(1, 0.0, 0.0), (2, 100.0, 0.0)] for f in (1, 2)})
        results = [
            FrameResult(
                f,
                [
                    TrackRecord(1, x, 0.0, 0.0, 0.0, TrackStatus.CONFIRMED, RecordSource.MEASURED)
                    for x in (0.0, 100.0)
                ],
                [],
                [],
            )
            for f in (1, 2)
        ]
        with pytest.raises(UserError) as info:
            evaluate(results, gt)
        assert str(info.value) == "track_id 1 appears twice in frame 1"

    def test_nonpositive_frames_rejected(self):
        gt, _ = generate(spec_with())
        stray = FrameResult(frame=0, records=[], born=[], died=[])
        with pytest.raises(AlignmentError):
            evaluate(results_from_truth(gt) + [stray], gt)

    def test_records_past_horizon_are_false_positives(self):
        # A tracker may coast past the last live target; those records are
        # false positives, not an alignment failure.
        gt, _ = generate(spec_with())
        stray = FrameResult(
            frame=max(gt.frames) + 2,
            records=[
                TrackRecord(9, 0.0, 0.0, 0.0, 0.0, TrackStatus.CONFIRMED, RecordSource.COASTED)
            ],
            born=[],
            died=[],
        )
        metrics = evaluate(results_from_truth(gt) + [stray], gt)
        assert metrics.false_positives == 1
        assert metrics.misses == 0
        assert metrics.matches == gt.total_points()


def reference_evaluate(results, gt, **kwargs):
    """Score over every frame of range(1, horizon + 1), empty ones included.

    The horizon is the last frame of either side. Giving every frame of
    the span a key, empty where it holds nothing, makes `evaluate` visit
    exactly those frames; walking only the keys must score the same.
    """
    horizon = max([*gt.frames, *(fr.frame for fr in results)], default=0)
    reported = {fr.frame for fr in results}
    padding = [FrameResult(f, [], [], []) for f in range(1, horizon + 1) if f not in reported]
    dense = GroundTruth(frames={f: gt.at(f) for f in range(1, horizon + 1)})
    return evaluate(results + padding, dense, **kwargs)


# Positions 0-5 px apart match within either radius below, 30 px apart never.
spots = st.sampled_from([0.0, 4.0, 9.0, 30.0])


@st.composite
def sparse_scores(draw):
    """Ground truth and records on sparse frames, with empty stretches and empty keys."""
    truth, results = {}, []
    for f in sorted(draw(st.sets(st.integers(1, 30), min_size=1, max_size=15))):
        gt_ids = draw(st.sets(st.integers(1, 3)))
        track_ids = draw(st.sets(st.integers(1, 4)))
        if gt_ids or draw(st.booleans()):
            truth[f] = [(i, draw(spots), 0.0) for i in sorted(gt_ids)]
        if track_ids or draw(st.booleans()):
            records = [
                TrackRecord(
                    i, draw(spots), 0.0, 0.0, 0.0,
                    draw(st.sampled_from(list(TrackStatus))), RecordSource.MEASURED,
                )
                for i in sorted(track_ids)
            ]
            results.append(FrameResult(f, records, [], []))
    return results, GroundTruth(frames=truth)


@settings(max_examples=300, deadline=None)
@given(case=sparse_scores(), radius=st.sampled_from([5.0, 10.0]), tentative=st.booleans())
def test_scores_match_a_walk_over_every_frame(case, radius, tentative):
    results, gt = case
    kwargs = dict(match_radius=radius, include_tentative=tentative)
    assert evaluate(results, gt, **kwargs) == reference_evaluate(results, gt, **kwargs)


def frame_by_frame_evaluate(results, gt, match_radius, include_tentative):
    """`evaluate` as one loop: `build_cost_matrix` and `associate` on each scored frame."""
    wanted = set(TrackStatus) if include_tentative else {TrackStatus.CONFIRMED}
    by_frame = records_by_frame(results)
    matches = misses = false_positives = id_switches = fragmentation = 0
    last_track, in_gap = {}, set()
    for frame in sorted(gt.frames.keys() | by_frame.keys()):
        points = gt.at(frame)
        records = [r for r in by_frame.get(frame, ()) if r.status in wanted]
        record_of = {}
        if points and records:
            cost = build_cost_matrix([(x, y) for _, x, y in points], [(r.x, r.y) for r in records])
            record_of = associate(cost, match_radius)
        matches += len(record_of)
        misses += len(points) - len(record_of)
        false_positives += len(records) - len(record_of)
        for row, (gt_id, _, _) in enumerate(points):
            if row not in record_of:
                if gt_id in last_track:
                    in_gap.add(gt_id)
                continue
            track_id = records[record_of[row]].track_id
            id_switches += last_track.get(gt_id, track_id) != track_id
            if gt_id in in_gap:
                fragmentation += 1
                in_gap.discard(gt_id)
            last_track[gt_id] = track_id
    total = gt.total_points()
    return Metrics(
        id_switches=id_switches,
        misses=misses,
        false_positives=false_positives,
        matches=matches,
        mota=1.0 - (misses + false_positives + id_switches) / total if total else 1.0,
        fragmentation=fragmentation,
    )


# x in {0, 3, 8} and y in {0, 4}: spots 0, 3, 4, 5 (3-4-5), 5.7 and more px
# apart, so pairs lie exactly at a radius of 5 and one point often has two
# records in reach (a shared pair).
GRID_X, GRID_Y = (0.0, 3.0, 8.0), (0.0, 4.0)

# A BIG x BIG frame holds more than half a stack, so it never shares one.
BIG = math.isqrt(STACK_CELLS // 2) + 1


@st.composite
def stacked_scores(draw):
    """Up to 80 consecutive frames of 0-6 points and 0-6 records, a few of them BIG x BIG.

    Frames of different shapes share a stack, so its arrays are padded; a
    small frame between two big ones is alone in its stack. Every position
    in a case is a float, an int or a numpy float32, as the records and
    ground truth accept all three. The frames come from a `random.Random`
    seeded by Hypothesis: drawing each value through Hypothesis made one
    run of this test as long as the rest of the suite.
    """
    rand = random.Random(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from([float, int, np.float32]))
    grid_x, grid_y = [kind(x) for x in GRID_X], [kind(y) for y in GRID_Y]
    truth, results = {}, []
    for f in range(1, draw(st.integers(1, 80)) + 1):
        if rand.random() < 0.1:
            n_points = n_records = BIG
        else:
            n_points, n_records = rand.randint(0, 6), rand.randint(0, 6)
        if n_points:
            truth[f] = [
                (i, rand.choice(grid_x), rand.choice(grid_y)) for i in range(1, n_points + 1)
            ]
        records = [
            TrackRecord(
                rand.randint(1, 3) * 100 + i, rand.choice(grid_x), rand.choice(grid_y), 0.0, 0.0,
                rand.choice(list(TrackStatus)), RecordSource.MEASURED,
            )
            for i in range(n_records)
        ]
        results.append(FrameResult(f, records, [], []))
    return results, GroundTruth(frames=truth)


@settings(max_examples=200, deadline=None)
@given(
    case=stacked_scores(),
    radius=st.sampled_from([0.25, 3.0, 5.0, 1e12]),
    tentative=st.booleans(),
)
def test_stacked_frames_score_as_one_frame_at_a_time(case, radius, tentative):
    results, gt = case
    kwargs = dict(match_radius=radius, include_tentative=tentative)
    assert evaluate(results, gt, **kwargs) == frame_by_frame_evaluate(results, gt, **kwargs)


@pytest.mark.parametrize(
    "kind, offset, radius",
    [
        # Integer positions: an unpadded stack of them must still be measured in floats.
        (int, 5, 5.0),
        # float32(0.1) is 0.1000000015 as a double, just outside a 0.1 radius;
        # measured in float32 it would round onto the radius and match.
        (np.float32, np.float32(0.1), 0.1),
    ],
)
def test_stacked_positions_are_measured_as_doubles(kind, offset, radius):
    # Two 1 x 1 frames share a stack with no padding, so the stack's arrays
    # hold only the given positions.
    gt = GroundTruth(frames={1: [(1, kind(0), kind(0))], 2: [(1, kind(0), kind(0))]})
    results = [
        FrameResult(
            f, [TrackRecord(7, offset, kind(0), 0.0, 0.0, TrackStatus.CONFIRMED,
                            RecordSource.MEASURED)], [], [],
        )
        for f in (1, 2)
    ]
    kwargs = dict(match_radius=radius, include_tentative=False)
    assert evaluate(results, gt, **kwargs) == frame_by_frame_evaluate(results, gt, **kwargs)


def test_frames_with_no_records_make_bounded_stacks(monkeypatch):
    # Ground truth alone: one 1,000-point frame, then 2,000 one-point frames.
    # Every frame has an empty side, so a budget of rows * cols would put all
    # of them in one stack padded to 2,001 x 1,000 x 0; an empty side counts
    # as one row or column, and the stack stays within STACK_CELLS.
    frames = {1: [(i, float(i), 0.0) for i in range(1, 1001)]}
    frames.update({f: [(1, 0.0, float(f))] for f in range(2, 2002)})
    gt = GroundTruth(frames=frames)
    shapes = []
    real_distances = synth.distances

    def distances(rows, cols):
        shapes.append((rows.shape, cols.shape))
        return real_distances(rows, cols)

    monkeypatch.setattr(synth, "distances", distances)
    kwargs = dict(match_radius=10.0, include_tentative=False)
    assert evaluate([], gt, **kwargs) == frame_by_frame_evaluate([], gt, **kwargs)
    assert shapes
    for (frames_in, n_rows, _), (_, n_cols, _) in shapes:
        assert frames_in * max(n_rows, 1) * max(n_cols, 1) <= STACK_CELLS


# Six targets crossing near the centre, with misses and clutter: some frames
# have a clear nearest match for every point and some do not.
CROSSING = ScenarioSpec(
    n_frames=80,
    targets=tuple(
        TargetPath(1 + 4 * i, 80, x, y, vx, vy)
        for i, (x, y, vx, vy) in enumerate(
            [
                (20.0, 20.0, 2.0, 2.0),
                (180.0, 20.0, -2.0, 2.0),
                (20.0, 180.0, 2.0, -2.0),
                (180.0, 180.0, -2.0, -2.0),
                (100.0, 10.0, 0.0, 2.2),
                (10.0, 100.0, 2.2, 0.0),
            ]
        )
    ),
    noise_sigma=1.0,
    miss_prob=0.05,
    clutter_rate=2.0,
    bounds=(200.0, 200.0),
    seed=11,
)


def test_crossing_scene_scores_are_pinned(monkeypatch):
    # The scores were computed before `solve` gained its nearest-column
    # shortcut, and re-pinned when the tracker's fixed 50 px gate became
    # the per-track chi-square radius (id_switches 10 -> 1). Tracking and
    # scoring both reach `solve` through `tracker.associate`; the call
    # counts show that both of `solve`'s paths were taken.
    calls = {"solve": 0, "dual": 0}

    def counted(real, key):
        def wrapper(*args):
            calls[key] += 1
            return real(*args)

        return wrapper

    monkeypatch.setattr(
        assignment,
        "_lex_min_tight_matching",
        counted(assignment._lex_min_tight_matching, "dual"),
    )
    monkeypatch.setattr(tracker_module, "solve", counted(tracker_module.solve, "solve"))
    gt, detections = generate(CROSSING)
    results = run(group_by_frame(detections), frame_range=(1, CROSSING.n_frames))
    assert evaluate(results, gt) == Metrics(
        id_switches=1,
        misses=11,
        false_positives=10,
        matches=409,
        mota=0.9476190476190476,
        fragmentation=0,
    )
    assert 0 < calls["dual"] < calls["solve"]
