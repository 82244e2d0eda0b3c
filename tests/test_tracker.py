"""Tracker tests: cost building, gating, the per-frame loop, lifecycles."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from pointtrack import kfilter
from pointtrack import tracker as tracker_module
from pointtrack.assignment import EPS, CostMatrix, solve
from pointtrack.errors import EmptyError, NumericalError, OrderError, ParamError, UserError
from pointtrack.io import write_tracks
from pointtrack.tracker import (
    CHI2_GATE,
    COORD_LIMIT,
    SIGMA_Z_MIN,
    Detection,
    FrameResult,
    RecordSource,
    Tracker,
    TrackerConfig,
    TrackRecord,
    TrackStatus,
    associate,
    build_cost_matrix,
    check_records,
    gate,
    group_by_frame,
    records_by_frame,
    run,
)


def det(frame, x, y, confidence=1.0):
    return Detection(frame=frame, x=x, y=y, confidence=confidence)


def linear_detections(n_frames, start, velocity, first_frame=1):
    x0, y0 = start
    vx, vy = velocity
    return [
        det(f, x0 + (f - first_frame) * vx, y0 + (f - first_frame) * vy)
        for f in range(first_frame, first_frame + n_frames)
    ]


# 1..6 points with coordinates in [-COORD_LIMIT, COORD_LIMIT], signed zeros
# and the limits themselves drawn often.
points = arrays(
    float,
    st.tuples(st.integers(1, 6), st.just(2)),
    elements=st.one_of(
        st.sampled_from([0.0, -0.0, COORD_LIMIT, -COORD_LIMIT]),
        st.floats(-COORD_LIMIT, COORD_LIMIT),
    ),
)


class TestBuildCostMatrix:
    def test_euclidean_entries(self):
        cost = build_cost_matrix([(0.0, 0.0), (10.0, 0.0)], [(0.0, 3.0), (10.0, 4.0)])
        expected = [
            [3.0, math.sqrt(116.0)],
            [math.sqrt(109.0), 4.0],
        ]
        assert np.allclose(cost.values, expected)

    def test_coincident_pair_costs_zero(self):
        cost = build_cost_matrix([(5.0, 5.0)], [(5.0, 5.0)])
        assert cost.values.tolist() == [[0.0]]

    def test_single_distance(self):
        cost = build_cost_matrix([(0.0, 0.0)], [(6.0, 8.0)])
        assert cost.values.tolist() == [[10.0]]

    def test_rows_follow_given_order(self):
        cost = build_cost_matrix([(100.0, 0.0), (0.0, 0.0)], [(0.0, 0.0)])
        assert cost.values[:, 0].tolist() == [100.0, 0.0]  # the far point stays first

    def test_empty_sides_rejected(self):
        with pytest.raises(EmptyError):
            build_cost_matrix([], [det(1, 0, 0)])
        with pytest.raises(EmptyError):
            build_cost_matrix([(1, 0.0, 0.0)], [])

    @settings(max_examples=300)
    @given(rows=points, cols=points, form=st.sampled_from(["array", "list", "view"]))
    @example(rows=np.array([[0.0, -0.0]]), cols=np.array([[-0.0, 0.0]]), form="list")
    @example(
        rows=np.array([[COORD_LIMIT, -COORD_LIMIT]]),
        cols=np.array([[-COORD_LIMIT, COORD_LIMIT], [0.0, -0.0], [1.5, 2.5]]),
        form="array",
    )
    @example(
        rows=np.array([[-COORD_LIMIT, -0.0], [COORD_LIMIT, 0.0], [3.0, -4.0]]),
        cols=np.array([[0.0, 0.0]]),
        form="view",
    )
    def test_bits_equal_the_trailing_axis_sum(self, rows, cols, form):
        """Each entry has the bits of sqrt(sum over the last axis of delta**2)."""
        expected = np.sqrt(((rows[:, None, :] - cols[None, :, :]) ** 2).sum(axis=2))
        if form == "list":
            rows, cols = [tuple(p) for p in rows.tolist()], [tuple(p) for p in cols.tolist()]
        elif form == "view":  # the tracker passes the position columns of its means
            rows = np.hstack([rows, np.ones_like(rows)])[:, :2]
        cost = build_cost_matrix(rows, cols)
        assert cost.values.shape == expected.shape
        assert cost.values.tobytes() == expected.tobytes()


class TestGate:
    def test_under_gate_unchanged(self):
        cost = CostMatrix(np.array([[3.0]]))
        gated = gate(solve(cost), cost, 50.0)
        assert gated.pairs == {(0, 0)}
        assert gated.total_cost == 3.0

    def test_over_gate_removed(self):
        cost = CostMatrix(np.array([[100.0]]))
        gated = gate(solve(cost), cost, 50.0)
        assert gated.pairs == frozenset()
        assert gated.unmatched_rows == {0}
        assert gated.unmatched_cols == {0}
        assert gated.total_cost == 0.0

    def test_mixed_pairs_gated_individually(self):
        cost = CostMatrix(np.array([[3.0, 500.0], [500.0, 80.0]]))
        gated = gate(solve(cost), cost, 50.0)
        assert gated.pairs == {(0, 0)}
        assert gated.unmatched_rows == {1}
        assert gated.unmatched_cols == {1}


def in_gate_matchings(inside):
    """Every matching that uses only in-gate pairs, each as a row -> column map."""

    def extend(row, used):
        if row == len(inside):
            yield {}
            return
        yield from extend(row + 1, used)
        for col in np.flatnonzero(inside[row]).tolist():
            if col not in used:
                for rest in extend(row + 1, used | {col}):
                    yield {row: col, **rest}

    return list(extend(0, frozenset()))


@st.composite
def gated_costs(draw):
    n = draw(st.integers(1, 5))
    m = draw(st.integers(1, 5))
    # Small integers make ties common; floats reach arbitrary distances.
    elements = st.one_of(
        st.integers(0, 8).map(float),
        st.floats(0.0, 80.0, allow_nan=False, allow_infinity=False),
    )
    rows = draw(st.lists(st.lists(elements, min_size=m, max_size=m), min_size=n, max_size=n))
    gate_px = draw(st.one_of(st.integers(1, 8).map(float), st.floats(0.5, 80.0)))
    # Per-row radii, some above gate_px (which caps them); None means
    # gate_px on every row.
    radius = draw(
        st.none()
        | st.lists(elements, min_size=n, max_size=n).map(lambda r: np.array(r, dtype=float))
    )
    return CostMatrix(np.array(rows, dtype=float)), gate_px, radius


@st.composite
def lone_costs(draw):
    """Costs whose in-gate pairs are all lone: a partial one-to-one map of
    rows to columns is in gate, every other cell beyond it."""
    n = draw(st.integers(1, 5))
    m = draw(st.integers(1, 5))
    gate_px = draw(st.floats(0.5, 80.0))
    pairs = zip(
        draw(st.permutations(range(n))),
        draw(st.permutations(range(m))),
        draw(st.lists(st.booleans(), min_size=min(n, m), max_size=min(n, m))),
    )
    values = draw(arrays(float, (n, m), elements=st.floats(gate_px * 1.01, 1e4)))
    for r, c, taken in pairs:
        if taken:
            values[r, c] = draw(st.floats(0.0, gate_px))
    return CostMatrix(values), gate_px, None


def bincount_associate(cost, gate_px, radius=None):
    """`associate` by its first formula: degrees by `np.bincount` on every
    frame, lone pairs taken, the rest solved as one block, rows sorted."""
    limit = gate_px if radius is None else np.minimum(radius, gate_px)[:, None]
    inside = cost.values <= limit
    rows, cols = np.nonzero(inside)
    lone = (np.bincount(rows)[rows] == 1) & (np.bincount(cols)[cols] == 1)
    col_of_row = dict(zip(rows[lone].tolist(), cols[lone].tolist()))
    if len(col_of_row) < len(rows):
        block_rows = np.flatnonzero(np.bincount(rows[~lone]))
        block_cols = np.flatnonzero(np.bincount(cols[~lone]))
        within = np.ix_(block_rows, block_cols)
        block = CostMatrix(np.where(inside[within], cost.values[within], gate_px + 1.0))
        for r, c in gate(solve(block), block, gate_px).pairs:
            col_of_row[int(block_rows[r])] = int(block_cols[c])
    return dict(sorted(col_of_row.items()))


class TestAssociate:
    @settings(max_examples=300, deadline=None)
    @given(gated_costs() | lone_costs())
    def test_equals_the_bincount_formula_in_order(self, case):
        chosen = associate(*case)
        expected = bincount_associate(*case)
        assert list(chosen.items()) == list(expected.items())
        assert all(type(r) is int and type(c) is int for r, c in chosen.items())

    @settings(max_examples=300, deadline=None)
    @given(gated_costs())
    def test_least_cost_matching_over_in_gate_pairs(self, case):
        cost, gate_px, radius = case
        values = cost.values
        fill = gate_px + 1.0
        if radius is None:
            limits = [gate_px] * len(values)
        else:
            limits = [min(r, gate_px) for r in radius.tolist()]
        inside = np.array(
            [[v <= limit for v in row] for row, limit in zip(values.tolist(), limits)]
        )
        chosen = associate(cost, gate_px, radius)

        assert list(chosen) == sorted(chosen)
        assert len(set(chosen.values())) == len(chosen)
        assert all(inside[r, c] for r, c in chosen.items())

        def score(matching):
            return sum(values[r, c] - fill for r, c in matching.items())

        # `solve` counts a pair as tight within assignment.EPS of its duals,
        # so each matched pair may sit up to EPS above the optimum.
        candidates = in_gate_matchings(inside)
        best = min(score(m) for m in candidates)
        assert abs(score(chosen) - best) <= min(values.shape) * EPS + 1e-12

        row_degree, col_degree = inside.sum(axis=1), inside.sum(axis=0)
        for r, c in zip(*np.nonzero(inside)):
            if row_degree[r] == 1 and col_degree[c] == 1:
                assert chosen.get(r) == c

        optimal = [m for m in candidates if score(m) - best <= 1e-6]
        if len(optimal) == 1:
            assert chosen == optimal[0]
            filled = CostMatrix(np.where(inside, values, fill))
            assert chosen == dict(gate(solve(filled), filled, gate_px).pairs)

    def test_out_of_gate_costs_do_not_steer_in_gate_pairs(self):
        cost = CostMatrix(np.array([[10.0, 40.0], [60.0, 200.0]]))
        assert dict(gate(solve(cost), cost, 50.0).pairs) == {0: 1}
        assert associate(cost, 50.0) == {0: 0}

    def test_equidistant_rows_tie_goes_to_row_zero(self):
        cost = CostMatrix(np.array([[5.0, 70.0], [5.0, 80.0]]))
        assert associate(cost, 50.0) == {0: 0}

    def test_all_lone_pairs_skip_solve_and_gate(self, monkeypatch):
        def unreachable(*args):
            raise AssertionError("solve or gate called on lone pairs")

        monkeypatch.setattr(tracker_module, "solve", unreachable)
        monkeypatch.setattr(tracker_module, "gate", unreachable)
        cost = CostMatrix(np.array([[90.0, 4.0, 70.0], [60.0, 80.0, 55.0], [3.0, 99.0, 51.0]]))
        assert associate(cost, 50.0) == {0: 1, 2: 0}


class TestStep:
    def test_births_from_empty_tracker(self):
        tracker = Tracker()
        result = tracker.step(1, [det(1, 0, 0), det(1, 100, 100)])
        assert result.born == [1, 2]
        assert [r.track_id for r in result.records] == [1, 2]
        assert all(r.status is TrackStatus.TENTATIVE for r in result.records)
        assert all(r.source is RecordSource.MEASURED for r in result.records)

    def test_miss_coasts_confirmed_track(self):
        tracker = Tracker(TrackerConfig(confirm_hits=1))
        tracker.step(1, [det(1, 10, 10)])
        result = tracker.step(2, [])
        assert len(result.records) == 1
        rec = result.records[0]
        assert rec.source is RecordSource.COASTED
        assert tracker.tracks[0].miss_streak == 1
        # coasted position is the prediction (still at 10,10 with zero velocity)
        assert rec.x == pytest.approx(10.0)

    def test_out_of_gate_detection_births_new_track(self):
        tracker = Tracker(TrackerConfig(confirm_hits=1, gate_px=50.0))
        tracker.step(1, [det(1, 0, 0)])
        result = tracker.step(2, [det(2, 100, 0)])
        assert result.born == [2]
        coasted = [r for r in result.records if r.track_id == 1]
        assert coasted[0].source is RecordSource.COASTED

    def test_tentative_dies_on_first_miss(self):
        tracker = Tracker(TrackerConfig(confirm_hits=3))
        tracker.step(1, [det(1, 0, 0)])
        result = tracker.step(2, [])
        assert result.died == [1]
        assert result.records == []

    def test_confirmed_survives_until_max_misses(self):
        tracker = Tracker(TrackerConfig(confirm_hits=1, max_misses=2))
        tracker.step(1, [det(1, 0, 0)])
        assert tracker.step(2, []).died == []
        assert tracker.step(3, []).died == []
        assert tracker.step(4, []).died == [1]

    def test_confirmation_after_streak(self):
        tracker = Tracker(TrackerConfig(confirm_hits=3))
        statuses = []
        for f in range(1, 5):
            result = tracker.step(f, [det(f, 2.0 * f, 0.0)])
            statuses.append(result.records[0].status)
        assert statuses == [
            TrackStatus.TENTATIVE,
            TrackStatus.TENTATIVE,
            TrackStatus.CONFIRMED,
            TrackStatus.CONFIRMED,
        ]

    def test_non_monotonic_frame_rejected(self):
        tracker = Tracker()
        tracker.step(5, [])
        with pytest.raises(OrderError):
            tracker.step(5, [])
        with pytest.raises(OrderError):
            tracker.step(3, [])

    def test_frame_gap_rejected_before_any_change(self):
        # The filter predicts one frame per step: stepped from frame 3 to 40,
        # this target would be sought at x ~ 40 while it is at 400.
        tracker = Tracker(TrackerConfig(confirm_hits=3))
        for f in (1, 2, 3):
            tracker.step(f, [det(f, 10.0 * f, 0.0)])
        before = snapshot(tracker)
        with pytest.raises(OrderError, match="frame 40 .* frame 3"):
            tracker.step(40, [det(40, 400.0, 0.0)])
        assert snapshot(tracker) == before
        assert tracker.step(4, [det(4, 40.0, 0.0)]).born == []

    def test_frames_skip_only_with_no_live_track(self):
        # With no live track there is nothing to predict across a gap.
        tracker = Tracker(TrackerConfig(confirm_hits=3))
        tracker.step(1, [det(1, 0.0, 0.0)])
        with pytest.raises(OrderError, match="frame 3 .* frame 1"):
            tracker.step(3, [])
        assert tracker.step(2, []).died == [1]
        assert tracker.step(10**9, [det(10**9, 5.0, 5.0)]).born == [2]

    @pytest.mark.parametrize(
        "frame, detections, message",
        [
            (1.5, [], "frame 1.5 must be an integer"),
            (True, [], "frame True must be an integer"),
            (1, [det(1, 0, 0), det(1.0, 5, 5)], "frame 1: detection frame 1.0 must be"),
            (1, [det(True, 0, 0)], "frame 1: detection frame True must be"),
        ],
    )
    def test_frame_that_is_not_an_integer_rejected(self, frame, detections, message):
        with pytest.raises(UserError, match=message):
            Tracker().step(frame, detections)

    @pytest.mark.parametrize(
        "frame, message",
        [
            ("3", "frame '3' must be an integer"),
            (None, "frame None must be an integer"),
            (math.nan, "frame nan must be an integer"),
            (0, "frame 0 must be >= 1"),  # a UserError, not an OrderError
        ],
    )
    def test_frame_rules_are_checked_before_its_order(self, frame, message):
        # The frame's own rules come first, so "3" or None never reaches the
        # order comparison, which would raise TypeError.
        tracker = Tracker()
        with pytest.raises(UserError) as info:
            tracker.step(frame, [])
        assert type(info.value) is UserError and str(info.value) == message
        tracker.step(1, [det(1, 0.0, 0.0)])
        with pytest.raises(UserError) as info:
            tracker.step(frame, [])
        assert type(info.value) is UserError and str(info.value) == message
        assert [r.track_id for r in tracker.step(2, [det(2, 0.0, 0.0)]).records] == [1]

    def test_numpy_integer_frames_accepted(self):
        tracker = Tracker()
        assert tracker.step(np.int64(1), [det(np.int32(1), 0, 0)]).born == [1]

    def test_wrongly_stamped_detection_rejected(self):
        tracker = Tracker()
        with pytest.raises(OrderError):
            tracker.step(1, [det(2, 0, 0)])

    def test_equidistant_tracks_tie_goes_to_lower_id(self):
        tracker = Tracker(TrackerConfig(confirm_hits=1))
        # Track 1 is born on the right, track 2 on the left; both stay put.
        tracker.step(1, [det(1, 20, 0), det(1, 0, 0)])
        result = tracker.step(2, [det(2, 10, 0)])  # exactly 10 px from each
        sources = {r.track_id: r.source for r in result.records}
        assert sources == {1: RecordSource.MEASURED, 2: RecordSource.COASTED}
        assert result.born == []

    @pytest.mark.parametrize(
        "x, y", [(math.nan, 0.0), (0.0, math.inf), (1e200, 0.0), (0.0, -2 * COORD_LIMIT)]
    )
    def test_non_finite_or_far_detection_rejected_before_any_change(self, x, y):
        tracker = Tracker(TrackerConfig(confirm_hits=1))
        tracker.step(1, [det(1, 5, 5)])
        before = snapshot(tracker)
        with pytest.raises(UserError, match="frame 2") as info:
            tracker.step(2, [det(2, 6, 5), det(2, x, y)])
        assert repr(x if x != 0.0 else y) in str(info.value)
        assert snapshot(tracker) == before
        assert tracker.step(2, [det(2, 6, 5)]).records[0].source is RecordSource.MEASURED

    def test_track_leaving_the_coordinate_limit_dies(self):
        # Detections stay within the limit, but the filter's estimate of a
        # target arriving at the limit overshoots it on the last frame. The
        # target jumps 40 px a frame from birth, so p0_vel widens the
        # newborn's chi-square radius to ~50 px to keep one track.
        tracker = Tracker(TrackerConfig(p0_vel=400.0))
        for f in range(1, 10):
            result = tracker.step(f, [det(f, COORD_LIMIT - 400 + 40 * f, 0.0)])
            assert [r.track_id for r in result.records] == [1]
        result = tracker.step(10, [det(10, COORD_LIMIT, 0.0)])
        assert (result.records, result.born, result.died) == ([], [], [1])
        assert tracker.tracks == [] and tracker.belief.x.shape == (0, 4)

    def test_fast_target_is_tracked_only_with_a_wide_velocity_prior(self):
        # At the default p0_vel the newborn's chi-square radius is
        # sqrt(CHI2_GATE * s) ~ 26 px, with s = p0_pos + p0_vel + sigma_a^2/4
        # + sigma_z^2: a target jumping 40 px a frame from birth leaves it and
        # is re-born every frame, though it stays inside gate_px.
        stream = group_by_frame(linear_detections(8, (0.0, 0.0), (40.0, 0.0)))
        newborn_s = 10.0 + 100.0 + 0.25 + 4.0
        assert math.sqrt(CHI2_GATE * newborn_s) < 40.0 < TrackerConfig().gate_px
        reborn = run(stream, TrackerConfig())
        assert [fr.born for fr in reborn] == [[f] for f in range(1, 9)]
        # p0_vel = 400 widens the newborn's radius to ~50 px.
        tracked = run(stream, TrackerConfig(p0_vel=400.0))
        assert [fr.born for fr in tracked] == [[1]] + [[]] * 7
        assert [fr.died for fr in tracked] == [[]] * 8

    def test_detection_on_the_coordinate_limit_accepted(self):
        result = Tracker().step(1, [det(1, COORD_LIMIT, -COORD_LIMIT)])
        assert (result.records[0].x, result.records[0].y) == (COORD_LIMIT, -COORD_LIMIT)

    @pytest.mark.parametrize("confidence", [math.nan, -3.0, 5.0])
    def test_confidence_outside_unit_interval_rejected_before_any_change(self, confidence):
        tracker = Tracker(TrackerConfig(confirm_hits=1))
        tracker.step(1, [det(1, 5, 5)])
        before = snapshot(tracker)
        with pytest.raises(UserError, match="frame 2") as info:
            tracker.step(2, [det(2, 6, 5), det(2, 50, 50, confidence=confidence)])
        assert repr(confidence) in str(info.value)
        assert snapshot(tracker) == before

    @pytest.mark.parametrize("confidence", [0.0, 1.0])
    def test_confidence_on_the_unit_interval_bounds_accepted(self, confidence):
        assert Tracker().step(1, [det(1, 0, 0, confidence=confidence)]).born == [1]

    def test_low_confidence_detections_dropped(self):
        tracker = Tracker(TrackerConfig(min_confidence=0.5))
        result = tracker.step(1, [det(1, 0, 0, confidence=0.4), det(1, 9, 9, confidence=0.9)])
        assert result.born == [1]
        assert result.records[0].x == 9.0


def snapshot(tracker):
    """Everything a step may change, as plain values."""
    return (
        tracker._last_frame,
        tracker._next_id,
        tracker.belief.x.tolist(),
        tracker.belief.P.tolist(),
        [(t.id, t.birth_frame, t.miss_streak) for t in tracker.tracks],
    )


class TestFailedStep:
    """A step that raises partway through leaves the tracker as it was."""

    # Frame 3 predicts tracks 1 and 2 in one call; (10, 0) lies inside only
    # track 1's gate (a ~13 px chi-square radius around x ~ 1.8), so track
    # 1's row is solved and gated; it updates both tracks in one call (one
    # stacked 2x2 inversion) and births three tracks.
    FRAMES = {
        1: [det(1, 0, 0), det(1, 100, 0)],
        2: [det(2, 1, 0), det(2, 101, 0)],
        3: [
            det(3, 2, 0),
            det(3, 102, 0),
            det(3, 10, 0),
            det(3, 500, 500),
            det(3, 900, 900),
        ],
    }

    # Frame 3 of these matches both tracks and has no birth and no death:
    # the step keeps the predicted and corrected stack as the next belief.
    CALM_FRAMES = {
        1: [det(1, 0, 0), det(1, 100, 0)],
        2: [det(2, 1, 0), det(2, 101, 0)],
        3: [det(3, 2, 0), det(3, 102, 0)],
    }

    @pytest.mark.parametrize(
        "module, name, failing_call",
        [
            (kfilter, "predict", 1),
            (tracker_module, "build_cost_matrix", 1),
            (tracker_module, "solve", 1),
            (tracker_module, "gate", 1),
            (kfilter, "update", 1),
            (kfilter, "_invert_2x2", 1),
            (kfilter, "init_state", 1),
            (kfilter, "init_state", 2),
        ],
    )
    def test_fault_leaves_state_and_retry_matches_fresh_run(
        self, monkeypatch, module, name, failing_call
    ):
        retried = self.fail_then_retry(monkeypatch, self.FRAMES, module, name, failing_call)
        assert retried.born == [3, 4, 5]

    @pytest.mark.parametrize(
        "module, name",
        [(kfilter, "predict"), (kfilter, "update"), (kfilter, "_invert_2x2")],
    )
    def test_fault_on_a_calm_frame_leaves_state(self, monkeypatch, module, name):
        retried = self.fail_then_retry(monkeypatch, self.CALM_FRAMES, module, name, 1)
        assert (retried.born, retried.died) == ([], [])
        assert [r.source for r in retried.records] == [RecordSource.MEASURED] * 2

    @staticmethod
    def fail_then_retry(monkeypatch, frames, module, name, failing_call):
        """Step frames 1 and 2, fail frame 3 on the chosen call of `name`,
        check that nothing changed, then retry frame 3 unpatched and check
        it equals a fresh run's; returns the retried result."""
        tracker = Tracker(TrackerConfig(confirm_hits=2))
        for frame in (1, 2):
            tracker.step(frame, frames[frame])
        before = snapshot(tracker)

        real = getattr(module, name)
        calls = 0

        def fail_on_chosen_call(*args, **kwargs):
            nonlocal calls
            calls += 1
            if calls == failing_call:
                raise NumericalError("injected fault")
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, fail_on_chosen_call)
        with pytest.raises(NumericalError, match="injected"):
            tracker.step(3, frames[3])
        assert calls == failing_call
        assert snapshot(tracker) == before

        monkeypatch.undo()
        retried = tracker.step(3, frames[3])
        assert retried == run(frames, TrackerConfig(confirm_hits=2))[-1]
        fresh = Tracker(TrackerConfig(confirm_hits=2))
        for frame in (1, 2, 3):
            fresh.step(frame, frames[frame])
        assert snapshot(tracker) == snapshot(fresh)
        return retried


class TestRun:
    def test_empty_stream_yields_no_results(self):
        # With no detections no track is ever live, so no frame is stepped.
        assert run({}, TrackerConfig(), frame_range=(1, 10)) == []

    def test_single_target_confirmed_without_id_churn(self):
        stream = group_by_frame(linear_detections(30, (10.0, 5.0), (3.0, 1.5)))
        results = run(stream, TrackerConfig(confirm_hits=3))
        ids = {r.track_id for fr in results for r in fr.records}
        assert ids == {1}
        first_confirmed = next(
            fr.frame
            for fr in results
            if fr.records and fr.records[0].status is TrackStatus.CONFIRMED
        )
        assert first_confirmed == 3
        assert sum(len(fr.born) for fr in results) == 1

    def test_gap_shorter_than_max_misses_keeps_identity(self):
        dets = [
            d
            for d in linear_detections(20, (0.0, 0.0), (4.0, 2.0))
            if not 11 <= d.frame <= 13
        ]
        results = run(group_by_frame(dets), TrackerConfig(max_misses=5), frame_range=(1, 20))
        ids = {r.track_id for fr in results for r in fr.records}
        assert ids == {1}
        gap_records = [r for fr in results if 11 <= fr.frame <= 13 for r in fr.records]
        assert all(r.source is RecordSource.COASTED for r in gap_records)
        after = [r for fr in results if fr.frame > 13 for r in fr.records]
        assert all(r.source is RecordSource.MEASURED for r in after)

    def test_invalid_range_rejected(self):
        with pytest.raises(OrderError):
            run({}, TrackerConfig(), frame_range=(5, 1))


def reference_run(stream, config, frame_range):
    """One step per frame of the range, empty ones included.

    The reference for `run`, which skips the empty frames on which no
    track is live: those report nothing, so the track bytes must agree.
    """
    tracker = Tracker(config)
    first, last = frame_range
    return [tracker.step(f, stream.get(f, [])) for f in range(first, last + 1)]


@st.composite
def sparse_streams(draw):
    """A stream of bursts split by gaps shorter and longer than max_misses + 1.

    Three sites lie 10 gates apart; each detection sits within 3 px of a
    site moving 2 px a frame, and a burst's sites may go undetected, so
    tracks are born, confirmed, coast and die. A frame of a burst may have
    no detections but keep its (empty) key.
    """
    cfg = TrackerConfig(confirm_hits=draw(st.integers(1, 3)), max_misses=draw(st.integers(0, 4)))
    stream = {}
    frame = draw(st.integers(1, 5))
    for _ in range(draw(st.integers(0, 4))):
        sites = draw(st.sets(st.integers(0, 2), min_size=1))
        for f in range(frame, frame + draw(st.integers(1, 8))):
            seen = {s for s in sites if draw(st.integers(0, 3))}
            stream[f] = [
                det(f, 10 * cfg.gate_px * s + 2.0 * f + draw(st.floats(-3, 3)), 0.0)
                for s in sorted(seen)
            ]
            frame = f + 1
        frame += draw(st.integers(1, cfg.max_misses + 4))
    # The explicit range may cut bursts off at either end or run past them.
    first = draw(st.integers(1, frame))
    return stream, cfg, (first, draw(st.integers(first, frame + cfg.max_misses + 2)))


@settings(max_examples=200, deadline=None)
@given(case=sparse_streams(), explicit=st.booleans())
def test_run_matches_stepping_every_frame(case, explicit):
    stream, cfg, frame_range = case
    if not explicit:
        frame_range = (min(stream), max(stream)) if stream else None
    expected = reference_run(stream, cfg, frame_range) if frame_range else []
    results = run(stream, cfg, frame_range if explicit else None)
    assert write_tracks(results) == write_tracks(expected)
    # Only the empty frames with no live track, which report nothing, are skipped.
    assert results == [fr for fr in expected if fr.records or fr.died or fr.frame in stream]


def reference_lifecycle(site_frames, confirm_hits, max_misses):
    """Per-frame (records, born, died) from per-track hit and miss streaks.

    Each frame of `site_frames` is the set of sites detected on it. A track
    keeps a hit streak, a miss streak and a status that stays Confirmed
    once reached; a Tentative track dies on its first miss, any track once
    its miss streak exceeds `max_misses`. A site detected with no live
    track gives birth, sites ascending.
    """
    live = {}  # site -> {"id", "status", "hits", "misses"}
    next_id = 1
    frames = []
    for seen in site_frames:
        died = []
        for site, track in sorted(live.items(), key=lambda item: item[1]["id"]):
            if site in seen:
                track["hits"] += 1
                track["misses"] = 0
                if track["hits"] >= confirm_hits:
                    track["status"] = TrackStatus.CONFIRMED
            else:
                track["hits"] = 0
                track["misses"] += 1
                if track["status"] is TrackStatus.TENTATIVE or track["misses"] > max_misses:
                    died.append(track["id"])
                    del live[site]
        born = []
        for site in sorted(seen - live.keys()):
            status = TrackStatus.CONFIRMED if confirm_hits <= 1 else TrackStatus.TENTATIVE
            live[site] = {"id": next_id, "status": status, "hits": 1, "misses": 0}
            born.append(next_id)
            next_id += 1
        records = sorted(
            (t["id"], t["status"], RecordSource.COASTED if t["misses"] else RecordSource.MEASURED)
            for t in live.values()
        )
        frames.append((records, born, died))
    return frames


class TestLifecycle:
    @settings(max_examples=200, deadline=None)
    @given(
        site_frames=st.lists(st.sets(st.integers(0, 3)), min_size=1, max_size=30),
        confirm_hits=st.integers(1, 5),
        max_misses=st.integers(0, 4),
    )
    def test_age_rule_matches_per_track_streaks(self, site_frames, confirm_hits, max_misses):
        # Four sites lie 10 gates apart and every detection sits exactly on
        # its site, so each detection can only continue its own site's track.
        cfg = TrackerConfig(confirm_hits=confirm_hits, max_misses=max_misses)
        stream = {
            f: [det(f, 10 * cfg.gate_px * s, 0.0) for s in sorted(seen)]
            for f, seen in enumerate(site_frames, start=1)
        }
        results = run(stream, cfg, frame_range=(1, len(site_frames)))
        got = [
            ([(r.track_id, r.status, r.source) for r in fr.records], fr.born, fr.died)
            for fr in results
        ]
        assert got == reference_lifecycle(site_frames, confirm_hits, max_misses)


class TestInvariants:
    def _random_stream(self, seed, n_frames=40):
        rng = np.random.default_rng(seed)
        stream = {}
        walkers = [(rng.uniform(0, 300), rng.uniform(0, 300)) for _ in range(4)]
        velocities = [(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(4)]
        for f in range(1, n_frames + 1):
            frame_dets = []
            for (x, y), (vx, vy) in zip(walkers, velocities):
                if rng.random() < 0.15:
                    continue  # missed detection
                frame_dets.append(det(f, x + (f - 1) * vx, y + (f - 1) * vy))
            if rng.random() < 0.2:
                frame_dets.append(det(f, rng.uniform(0, 300), rng.uniform(0, 300)))
            stream[f] = frame_dets
        return stream

    def test_no_id_reuse_and_strictly_increasing_births(self):
        stream = self._random_stream(11)
        results = run(stream, TrackerConfig(), frame_range=(1, 40))
        born = [tid for fr in results for tid in fr.born]
        assert born == sorted(born)
        assert len(born) == len(set(born))

    def test_frame_count_conservation(self):
        stream = self._random_stream(22)
        results = run(stream, TrackerConfig(), frame_range=(1, 40))
        live = 0
        for fr in results:
            live += len(fr.born) - len(fr.died)
            assert len(fr.records) == live
            ids = [r.track_id for r in fr.records]
            assert len(ids) == len(set(ids))

    def test_each_detection_matches_or_births(self):
        stream = self._random_stream(33)
        results = run(stream, TrackerConfig(), frame_range=(1, 40))
        for fr in results:
            measured = [r for r in fr.records if r.source is RecordSource.MEASURED]
            assert len(measured) == len(stream.get(fr.frame, []))

    def test_far_detections_always_birth(self):
        # Detections placed far beyond the gate from every live track must
        # open new tracks, never steal an existing identity.
        cfg = TrackerConfig(confirm_hits=1, gate_px=50.0)
        tracker = Tracker(cfg)
        tracker.step(1, [det(1, 0, 0), det(1, 200, 0)])
        result = tracker.step(2, [det(2, 1, 0), det(2, 201, 0), det(2, 500, 500)])
        assert result.born == [3]
        assert {r.track_id for r in result.records} == {1, 2, 3}

    def test_determinism_bit_identical_serialization(self):
        stream = self._random_stream(44)
        first = run(stream, TrackerConfig(), frame_range=(1, 40))
        second = run(stream, TrackerConfig(), frame_range=(1, 40))
        assert write_tracks(first) == write_tracks(second)
        assert [fr.born for fr in first] == [fr.born for fr in second]
        assert [fr.died for fr in first] == [fr.died for fr in second]


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [{"gate_px": 0.0}, {"gate_px": -5.0}, {"confirm_hits": 0}, {"max_misses": -1}],
    )
    def test_bad_config_rejected(self, kwargs):
        with pytest.raises(ParamError):
            TrackerConfig(**kwargs)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("gate_px", math.nan),
            ("gate_px", math.inf),
            ("sigma_a", 0.0),
            ("sigma_a", -1.0),
            ("sigma_z", 0.0),
            ("sigma_z", math.nan),
            ("p0_pos", -1.0),
            ("p0_vel", 0.0),
            ("p0_vel", math.inf),
            ("min_confidence", 5.0),
            ("min_confidence", -0.1),
            ("min_confidence", math.nan),
            ("confirm_hits", math.nan),
            ("confirm_hits", 2.5),
            ("confirm_hits", 3.0),
            ("max_misses", math.nan),
            ("max_misses", math.inf),
            ("max_misses", 1.5),
        ],
    )
    def test_non_finite_or_out_of_range_field_rejected_by_name(self, field, value):
        with pytest.raises(ParamError, match=field):
            TrackerConfig(**{field: value})

    @pytest.mark.parametrize("value", [0.0, 1.0])
    def test_min_confidence_bounds_accepted(self, value):
        assert TrackerConfig(min_confidence=value).min_confidence == value

    @pytest.mark.parametrize(
        "field, value",
        [
            ("sigma_z", 1e-4),
            ("sigma_z", 0.999e-3),
            ("sigma_z", 1e200),
            ("sigma_a", 1e200),
            ("p0_pos", 1e300),
            ("p0_vel", 2 * COORD_LIMIT),
            ("sigma_a", 1.5 * COORD_LIMIT),
            ("gate_px", 2 * COORD_LIMIT),
        ],
    )
    def test_filter_parameter_out_of_range_rejected_by_name(self, field, value):
        with pytest.raises(ParamError, match=field):
            TrackerConfig(**{field: value})

    def test_tiny_variances_accepted_with_sigma_z_at_its_minimum(self):
        cfg = TrackerConfig(sigma_a=1e-4, sigma_z=SIGMA_Z_MIN, p0_pos=1e-4, p0_vel=1e-4)
        assert cfg.sigma_z == 1e-3

    @pytest.mark.parametrize("bound", [SIGMA_Z_MIN, COORD_LIMIT])
    def test_bound_values_run_a_long_scene(self, bound):
        # Two steady targets for 60 frames, a 1980-frame coast, 60 more frames.
        cfg = TrackerConfig(
            sigma_a=bound, sigma_z=bound, p0_pos=bound, p0_vel=bound, max_misses=2000
        )
        seen = [f for f in range(1, 2101) if not 60 < f <= 2040]
        stream = {f: [det(f, 100, 100), det(f, 400, 300)] for f in seen}
        results = run(stream, cfg, frame_range=(1, 2100))
        assert [fr.born for fr in results if fr.born] == [[1, 2]]
        assert all(fr.died == [] for fr in results)
        last = results[-1].records
        assert [(r.track_id, r.status, r.source) for r in last] == [
            (1, TrackStatus.CONFIRMED, RecordSource.MEASURED),
            (2, TrackStatus.CONFIRMED, RecordSource.MEASURED),
        ]
        assert all(math.isfinite(v) for r in last for v in (r.x, r.y, r.vx, r.vy))


@st.composite
def valid_results(draw):
    """Results a track file can hold, frames and track ids in any order."""
    results = []
    for frame in draw(st.lists(st.integers(1, 10**6), unique=True, max_size=6)):
        records = [
            TrackRecord(
                track_id,
                *draw(st.tuples(*[st.floats(-COORD_LIMIT, COORD_LIMIT)] * 4)),
                draw(st.sampled_from(TrackStatus)),
                draw(st.sampled_from(RecordSource)),
            )
            for track_id in draw(st.lists(st.integers(1, 10**9), unique=True, max_size=5))
        ]
        results.append(FrameResult(frame, records, [], []))
    return results


@settings(max_examples=200, deadline=None)
@given(valid_results())
def test_records_by_frame_checks_each_frame_with_check_records(results):
    by_frame = records_by_frame(results)
    assert by_frame == {r.frame: check_records(r.frame, r.records) for r in results}
    assert list(by_frame) == sorted(r.frame for r in results)
    for frame, records in by_frame.items():
        assert [r.track_id for r in records] == sorted(r.track_id for r in records)
