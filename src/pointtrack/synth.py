"""Synthetic scenarios and association-quality scoring.

`generate` turns a declarative scenario into exact linear ground-truth
trajectories plus a noisy detection stream (isotropic Gaussian position
noise, Bernoulli missed detections, Poisson-count uniform clutter), fully
determined by the seed through the pinned stream in `rng`.

`evaluate` scores tracker output against ground truth with CLEAR-style
accounting: per frame, hypotheses are matched to ground-truth points by the
tracker's own association rule (`tracker.associate` with the match radius
as its gate: the least-cost matching over the pairs within the radius, so
a distance beyond the radius never decides which pairs within it are
scored); misses, false positives, identity switches and fragmentations are
accumulated and folded into MOTA.

Every matching is made in one place: `evaluate`'s frame loop, which builds
a frame's cost with `build_cost_matrix` and calls `associate`. Unlike
tracking, where each frame starts from the one before, the frames scored
are independent, so every one is first screened in stacks (`_screened`):
one padded distance array (`tracker.distances`, the kernel
`build_cost_matrix` wraps) and one screen for lone pairs serve many frames.
A frame whose in-radius pairs are all lone needs no matching, since
`associate` would return those pairs as they are; a frame with no points
or no records is one of them, with no pair. The loop matches every other
frame, an empty-sided one alone in its stack too. On perfbench's `long5k`
scene (~4 x 4.5 cells a frame, whose numpy calls cost far more than their
arithmetic), 4,979 of the 5,000 scored frames at seed 1 are settled by the
screen.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from collections.abc import Collection, Iterable, Iterator, Mapping, Sequence
from typing import NamedTuple

import numpy as np

from .assignment import gate, solve  # perfbench patches both here
from .errors import (
    ParamError, SpecError, UserError, check_integer, check_kind, check_number, check_pair,
    is_integer, is_number,
)
from .rng import POISSON_RATE_MAX, SplitMix64
from .tracker import (
    COORD_LIMIT, FAR_POINT_ERROR, NOT_A_NUMBER_ERROR, RECORD_SHAPE_ERROR, Detection,
    FrameResult, TrackRecord, TrackStatus, associate, build_cost_matrix, check_frame,
    distances, records_by_frame,
)

# Bound on |SplitMix64.gauss()|: the smallest nonzero 53-bit uniform, 2^-53,
# gives sqrt(-2 ln 2^-53) = sqrt(106 ln 2) ~ 8.57.
_GAUSS_BOUND = 9.0

# Most padded cells (frames x most ground-truth points x most records) in one
# stack of frames that `evaluate` measures and screens with one set of array
# calls. Chosen by timing `evaluate` in-process (best of 15, numpy 2.4 on a
# 2-vCPU Xeon): on `perfbench`'s `long5k`, ~20-cell frames, bounds from 1,024
# to 4,096 ran alike (52 against 51 ms) and 256 ran slower (58 ms). A bound of
# 1,024 keeps `crowd40`'s ~1,800-cell frames out of stacks: most of them hold
# a shared pair and are matched again on their own, and 4,096, which stacked
# them in pairs, took 66 ms against 61.
STACK_CELLS = 1024


class TargetPath(NamedTuple):
    """One target's linear trajectory, alive on frames [birth, death]."""

    birth_frame: int
    death_frame: int
    start_x: float
    start_y: float
    vx: float
    vy: float


@dataclass(frozen=True)
class ScenarioSpec:
    """Declarative description of a synthetic scene.

    Draw order is fixed so outputs are reproducible from the seed alone:
    frames ascending; within a frame, each alive target in declaration
    order draws one miss uniform and, if detected, two noise gaussians;
    then one Poisson count and two uniforms per clutter point.

    Checked when built, each value before it is stored: `n_frames` is an
    integer >= 1 and `seed` an integer (`errors.check_integer`; a bool is
    not one), stored as an int; `noise_sigma` a finite real number >= 0,
    `miss_prob` one in [0, 1], `clutter_rate` one in [0,
    POISSON_RATE_MAX] (`errors.check_number`) and `bounds` a pair of them
    in (0, COORD_LIMIT] (`errors.check_pair`), stored as floats. Each
    target is six values: integer frames 1 <= birth < death <= n_frames and
    a finite real start and velocity, whose path (widened by the noise)
    stays within +-COORD_LIMIT, and `targets` is an iterable of them.
    Anything else raises `SpecError`.
    """

    n_frames: int
    targets: tuple[TargetPath, ...] = ()
    noise_sigma: float = 0.0
    miss_prob: float = 0.0
    clutter_rate: float = 0.0
    bounds: tuple[float, float] = (640.0, 480.0)
    seed: int = 0

    def __post_init__(self):
        check_integer(SpecError, "n_frames", self.n_frames, 1)
        object.__setattr__(self, "seed", check_integer(SpecError, "seed", self.seed))
        check_number(SpecError, "noise_sigma", self.noise_sigma, 0)
        check_number(SpecError, "miss_prob", self.miss_prob, 0, 1)
        check_number(SpecError, "clutter_rate", self.clutter_rate, 0, POISSON_RATE_MAX)
        bounds = check_pair(SpecError, "bounds", self.bounds, 0, COORD_LIMIT, above=True)
        object.__setattr__(self, "bounds", bounds)
        check_kind(SpecError, "targets", self.targets, Iterable)
        targets = []
        margin = _GAUSS_BOUND * self.noise_sigma
        for i, t in enumerate(self.targets):
            try:
                t = TargetPath(*t)
            except TypeError:
                raise SpecError(f"target {i}: need birth,death,x,y,vx,vy, got {t!r}") from None
            check_integer(SpecError, f"target {i}: birth_frame", t.birth_frame, 1)
            if not (is_integer(t.death_frame) and t.birth_frame < t.death_frame <= self.n_frames):
                raise SpecError(
                    f"target {i}: need integers birth < death <= n_frames, "
                    f"got {t.birth_frame}, {t.death_frame!r}, {self.n_frames}"
                )
            for value in t[2:]:
                check_number(SpecError, f"target {i}: start and velocity", value, -math.inf)
            # A linear path is farthest out at its first or last frame.
            age = t.death_frame - t.birth_frame
            ends = (t.start_x, t.start_y, t.start_x + age * t.vx, t.start_y + age * t.vy)
            if max(abs(end) for end in ends) + margin > COORD_LIMIT:
                raise SpecError(
                    f"target {i}: positions (plus {_GAUSS_BOUND:g} * noise_sigma) "
                    f"must stay within +-{COORD_LIMIT:g}"
                )
            targets.append(t)
        object.__setattr__(self, "targets", tuple(targets))


@dataclass(frozen=True)
class GroundTruth:
    """Exact target positions per frame: lists of (gt_id, x, y).

    `frames` is a mapping. The frame keys are the only record of which
    frames exist: each is an integer (`errors.is_integer`; a bool is not)
    of at least 1 (`tracker.check_frame`), and a frame with no key holds no
    target. Each frame's points are a list of (gt_id, x, y) tuples. Any
    other collection (but not a one-shot iterator, which scoring could read
    only once) is accepted and stored as a list, in a new dict of the
    frames, so a scene equals the one its file reads back as. Each gt_id is
    an integer (`errors.is_integer`) of at least 1 and appears once per
    frame; coordinates are real numbers (`errors.is_number`), finite and
    within +-COORD_LIMIT. So `io.parse_ground_truth` reads back every file
    `io.write_ground_truth` writes, and checks every file it reads through
    this constructor. Construction raises `UserError` naming the frame.
    """

    frames: dict[int, list[tuple[int, float, float]]]

    def __post_init__(self):
        check_kind(UserError, "frames", self.frames, Mapping)
        as_lists = {}
        for frame, points in self.frames.items():
            check_frame(frame)
            seen: set[int] = set()
            # `type(...) is int` and `is float` first: they hold for nearly
            # every point, and `is_integer` and `is_number` cost several times
            # more.
            try:
                for gt_id, x, y in points:
                    if type(gt_id) is not int and not is_integer(gt_id):
                        raise UserError(f"frame {frame}: gt_id must be an integer, got {gt_id!r}")
                    if gt_id < 1:
                        raise UserError(f"frame {frame}: gt_id must be >= 1, got {gt_id}")
                    if gt_id in seen:
                        raise UserError(f"gt_id {gt_id} appears twice in frame {frame}")
                    if not (type(x) is type(y) is float or is_number(x) and is_number(y)):
                        what = f"gt_id {gt_id} (x, y)"
                        raise UserError(NOT_A_NUMBER_ERROR.format(frame, what, (x, y)))
                    if not (abs(x) <= COORD_LIMIT and abs(y) <= COORD_LIMIT):
                        raise UserError(FAR_POINT_ERROR.format(frame, f"gt_id {gt_id} at", x, y))
                    seen.add(gt_id)
            except (TypeError, ValueError) as error:
                shape = RECORD_SHAPE_ERROR.format(frame, "point", "gt_id, x, y", error)
                raise UserError(shape) from None
            if type(points) is not list:
                check_kind(UserError, f"frame {frame}: points", points, Collection)
                as_lists[frame] = list(points)
        if as_lists:
            object.__setattr__(self, "frames", {**self.frames, **as_lists})

    def at(self, frame: int) -> list[tuple[int, float, float]]:
        return self.frames.get(frame, [])

    def total_points(self) -> int:
        return sum(len(points) for points in self.frames.values())


@dataclass(frozen=True)
class Metrics:
    """CLEAR-style association scores.

    mota = 1 - (misses + false_positives + id_switches) / total ground-truth
    points; matches + misses always equals the ground-truth point count.
    """

    id_switches: int
    misses: int
    false_positives: int
    matches: int
    mota: float
    fragmentation: int


def generate(spec: ScenarioSpec) -> tuple[GroundTruth, list[Detection]]:
    """Expand a scenario into ground truth and a seeded detection stream.

    Ground-truth ids are the 1-based indices of the targets in declaration
    order. Detections carry confidence 1.0; clutter points are uniform over
    the bounds and appended after the target detections of their frame.
    Only frames where a target is alive are keys of the ground truth, as
    in `io.parse_ground_truth`, so a written scene reads back equal.

    Raises:
        SpecError: when `spec` is not a `ScenarioSpec`.
    """
    check_kind(SpecError, "spec", spec, ScenarioSpec)
    stream = SplitMix64(spec.seed)
    width, height = spec.bounds
    truth: dict[int, list[tuple[int, float, float]]] = {}
    detections: list[Detection] = []
    born_on: dict[int, list[tuple[int, TargetPath]]] = {}
    for gt_id, target in enumerate(spec.targets, start=1):
        born_on.setdefault(target.birth_frame, []).append((gt_id, target))
    death_frames = {target.death_frame for target in spec.targets}
    alive: list[tuple[int, TargetPath]] = []  # (gt_id, target), in declaration order

    for frame in range(1, spec.n_frames + 1):
        if frame in born_on:
            alive = sorted(alive + born_on[frame])  # gt_ids are unique
        points: list[tuple[int, float, float]] = []
        for gt_id, target in alive:
            age = frame - target.birth_frame
            x = target.start_x + age * target.vx
            y = target.start_y + age * target.vy
            points.append((gt_id, x, y))
            if stream.uniform() < spec.miss_prob:
                continue
            nx = spec.noise_sigma * stream.gauss()
            ny = spec.noise_sigma * stream.gauss()
            detections.append(Detection(frame, x + nx, y + ny))
        for _ in range(stream.poisson(spec.clutter_rate)):
            detections.append(Detection(frame, stream.uniform() * width, stream.uniform() * height))
        if points:
            truth[frame] = points
        if frame in death_frames:
            alive = [(gt_id, target) for gt_id, target in alive if target.death_frame > frame]
    return GroundTruth(frames=truth), detections


def evaluate(
    results: Sequence[FrameResult],
    gt: GroundTruth,
    match_radius: float = 10.0,
    include_tentative: bool = False,
) -> Metrics:
    """Score tracker output against ground truth.

    Only Confirmed records participate unless `include_tentative` is set.
    Each frame's ground-truth points (rows) and records (columns) are
    matched by `tracker.associate` with `match_radius` as its gate: among
    the pairs at most `match_radius` apart, the matching of least total
    distance, with every farther pair priced at `match_radius + 1` so that
    it cannot steer the choice. This function's loop makes every such call,
    on the frame's `build_cost_matrix`. It skips only the frames that
    `_screened` settles: the frames are screened in stacks of at most
    STACK_CELLS padded cells, and a frame whose in-radius pairs are all
    lone (each the only one of its row and its column) takes them, as
    `associate`'s early return would. The matching is the same either way.
    An identity switch is counted when the track id matched to a ground
    truth target differs from the id it was matched to the previous time
    it was matched; a fragmentation is counted each time a target is
    re-acquired after unmatched frames. The frames scored are the keys of
    `gt.frames` and the result frames, ascending; a frame in neither holds
    nothing to score. Result frames with no ground truth are legal (a
    tracker may coast past the last live target); records there count as
    false positives.

    Raises:
        ParamError: when `match_radius` is not finite and positive.
        AlignmentError: on duplicate or non-positive result frames.
        UserError: when `gt` is not a `GroundTruth`, the results are not
            iterable or one is not a `FrameResult`; on any record, scored or
            not, that a track file could not hold
            (`tracker.records_by_frame`): a track id below 1 or repeated in
            its frame, or a position or velocity that is not a real number,
            is not finite or lies beyond COORD_LIMIT.
    """
    check_number(ParamError, "match_radius", match_radius, 0, above=True)
    check_kind(UserError, "gt", gt, GroundTruth)
    by_frame = records_by_frame(results)

    matches = misses = false_positives = id_switches = fragmentation = 0
    last_track: dict[int, int] = {}
    in_gap: set[int] = set()

    # `is` one status, not `in` a set of them: an enum member hashes in
    # Python code, once per record.
    confirmed = TrackStatus.CONFIRMED
    frames = (
        (gt.at(f), [r for r in by_frame.get(f, ()) if include_tentative or r.status is confirmed])
        for f in sorted(gt.frames.keys() | by_frame.keys())
    )
    for (gt_points, records), record_of in _screened(frames, match_radius):
        if record_of is None:
            rows, cols = [(x, y) for _, x, y in gt_points], [(r.x, r.y) for r in records]
            record_of = associate(build_cost_matrix(rows, cols), match_radius)
        matches += len(record_of)
        misses += len(gt_points) - len(record_of)
        false_positives += len(records) - len(record_of)

        for row, (gt_id, _, _) in enumerate(gt_points):
            if row not in record_of:
                if gt_id in last_track:
                    in_gap.add(gt_id)
                continue
            track_id = records[record_of[row]].track_id
            if last_track.get(gt_id, track_id) != track_id:
                id_switches += 1
            if gt_id in in_gap:
                fragmentation += 1
                in_gap.discard(gt_id)
            last_track[gt_id] = track_id

    total_gt = gt.total_points()
    if total_gt > 0:
        mota = 1.0 - (misses + false_positives + id_switches) / total_gt
    else:
        mota = 1.0
    return Metrics(id_switches, misses, false_positives, matches, mota, fragmentation)


# One scored frame: its ground-truth points and the records scored on them.
_Frame = tuple[list[tuple[int, float, float]], list[TrackRecord]]
# Each frame with its lone pairs, or None for `evaluate` to match it.
_Screened = Iterator[tuple[_Frame, dict[int, int] | None]]


def _screened(frames: Iterable[_Frame], match_radius: float) -> _Screened:
    """Each (gt_points, records) frame, in order, with what the screen settles of it.

    That is the frame's lone pairs when a stack shows that every in-radius
    pair of the frame is lone, and None when `evaluate` must match the
    frame itself. Every frame, one with no points or no records too, is
    gathered, in order, into stacks of at most STACK_CELLS padded cells, an
    empty side counting as one row or column, so a stretch of frames with
    no records still makes bounded stacks. Each stack is screened
    (`_screen_stack`) and its frames yielded before the next is gathered,
    so only one stack's frames are held at a time.
    """
    stack: list[_Frame] = []
    n_rows = n_cols = 0
    for gt_points, records in frames:
        rows, cols = max(n_rows, len(gt_points)), max(n_cols, len(records))
        if stack and (len(stack) + 1) * max(rows, 1) * max(cols, 1) > STACK_CELLS:
            yield from _screen_stack(stack, n_rows, n_cols, match_radius)
            stack = []
            rows, cols = len(gt_points), len(records)
        n_rows, n_cols = rows, cols
        stack.append((gt_points, records))
    if stack:
        yield from _screen_stack(stack, n_rows, n_cols, match_radius)


def _screen_stack(stack: list[_Frame], n_rows: int, n_cols: int, radius: float) -> _Screened:
    """Yield every frame of the stack, screened.

    A frame whose in-radius pairs are all lone (each the only in-radius
    entry of both its row and its column) comes with them, rows ascending,
    as `associate`'s early return would give them; a frame with no points
    or no records has no such pair and comes with an empty matching. Any
    other frame comes with None, for `evaluate` to match, and so does a
    frame alone in its stack: a stack of one frame saves no call and pays
    for its padding and screen (a prototype that stacked them scored
    `sparse50`, whose ~2,500-cell frames are each alone, 15% slower). The
    stack is one (frames, n_rows, n_cols) distance array (`distances`),
    padded with NaN, which is never within the radius; one `nonzero` and
    two `bincount`s find its lone pairs. Positions are stacked as doubles,
    whatever number type they came as, just as `build_cost_matrix` converts
    them, so every entry has the bits that builder gives.
    """
    if len(stack) == 1:
        yield stack[0], None
        return
    pad = (math.nan, math.nan)
    row_xy: list[tuple[float, float]] = []  # each frame's points, then its padding
    col_xy: list[tuple[float, float]] = []
    for gt_points, records in stack:
        row_xy += [(x, y) for _, x, y in gt_points]
        row_xy += [pad] * (n_rows - len(gt_points))
        col_xy += [(r.x, r.y) for r in records]
        col_xy += [pad] * (n_cols - len(records))
    cost = distances(
        np.array(row_xy, dtype=float).reshape(len(stack), n_rows, 2),
        np.array(col_xy, dtype=float).reshape(len(stack), n_cols, 2),
    )
    frame, rows, cols = (cost <= radius).nonzero()
    row_key = frame * n_rows + rows
    col_key = frame * n_cols + cols
    lone = (np.bincount(row_key)[row_key] == 1) & (np.bincount(col_key)[col_key] == 1)
    shared = set(frame[~lone].tolist())
    ends = np.searchsorted(frame, np.arange(len(stack) + 1)).tolist()
    row_list, col_list = rows.tolist(), cols.tolist()
    for k, (start, end) in enumerate(zip(ends, ends[1:])):
        record_of = None if k in shared else dict(zip(row_list[start:end], col_list[start:end]))
        yield stack[k], record_of
