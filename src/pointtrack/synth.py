"""Synthetic scenarios and association-quality scoring.

`generate` turns a declarative scenario into exact linear ground-truth
trajectories plus a noisy detection stream (isotropic Gaussian position
noise, Bernoulli missed detections, Poisson-count uniform clutter), fully
determined by the seed through the pinned stream in `rng`.

`evaluate` scores tracker output against ground truth with CLEAR-style
accounting: per frame, hypotheses are matched to ground-truth points by the
tracker's own association rule (`build_cost_matrix`, then
`associate(cost, match_radius)`: the least-cost matching over the pairs
within the match radius, so a distance beyond the radius never decides
which pairs within it are scored); misses, false positives, identity
switches and fragmentations are accumulated and folded into MOTA.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .assignment import gate, solve  # unused: perfbench patches both here by name
from .errors import (
    ParamError, SpecError, UserError, check_integer, check_number, is_integer, is_number,
)
from .rng import POISSON_RATE_MAX, SplitMix64
from .tracker import (
    COORD_LIMIT, FAR_POINT_ERROR, NOT_A_NUMBER_ERROR, RECORD_SHAPE_ERROR, Detection,
    FrameResult, TrackStatus, associate, build_cost_matrix, records_by_frame,
)

# Bound on |SplitMix64.gauss()|: the smallest nonzero 53-bit uniform, 2^-53,
# gives sqrt(-2 ln 2^-53) = sqrt(106 ln 2) ~ 8.57.
_GAUSS_BOUND = 9.0


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
    POISSON_RATE_MAX] and `bounds` a pair of them in (0, COORD_LIMIT]
    (`errors.check_number`), stored as floats. Each target is six values:
    integer frames 1 <= birth < death <= n_frames and a finite real start
    and velocity, whose path (widened by the noise) stays within
    +-COORD_LIMIT. Anything else raises `SpecError`.
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
        try:
            width, height = self.bounds
        except (TypeError, ValueError):
            raise SpecError(f"bounds must be a pair of numbers, got {self.bounds!r}") from None
        width = check_number(SpecError, "bounds", width, 0, COORD_LIMIT, above=True)
        height = check_number(SpecError, "bounds", height, 0, COORD_LIMIT, above=True)
        object.__setattr__(self, "bounds", (width, height))
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

    The frame keys are the only record of which frames exist: each is an
    integer (`errors.is_integer`; a bool is not) of at least 1, and a
    frame with no key holds no target. Each frame's points are a list of
    (gt_id, x, y) tuples. Each gt_id is such an integer and
    appears once per frame; coordinates are real numbers
    (`errors.is_number`), finite and within +-COORD_LIMIT. So
    `io.parse_ground_truth` reads back every file `io.write_ground_truth`
    writes, and checks every file it reads through this constructor.
    Construction raises `UserError` naming the frame.
    """

    frames: dict[int, list[tuple[int, float, float]]]

    def __post_init__(self):
        for frame, points in self.frames.items():
            if type(frame) is not int and not is_integer(frame):
                raise UserError(f"frame {frame!r} must be an integer")
            if frame < 1:
                raise UserError(f"frame {frame} must be >= 1")
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
    """
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
    matched by `tracker.associate(cost, match_radius)`: among the pairs at
    most `match_radius` apart, the matching of least total distance, with
    every farther pair priced at `match_radius + 1` so that it cannot steer
    the choice. An identity switch is counted when the track id matched to
    a ground truth target differs from the id it was matched to the
    previous time it was matched; a fragmentation is counted each time a
    target is re-acquired after unmatched frames. The frames scored are
    the keys of `gt.frames` and the result frames, ascending; a frame in
    neither holds nothing to score. Result frames with no ground truth are
    legal (a tracker may coast past the last live target); records there
    count as false positives.

    Raises:
        ParamError: when `match_radius` is not finite and positive.
        AlignmentError: on duplicate or non-positive result frames.
        UserError: on any record, scored or not, that a track file could not
            hold (`tracker.records_by_frame`): a track id below 1 or
            repeated in its frame, or a position or velocity that is not a
            real number, is not finite or lies beyond COORD_LIMIT.
    """
    check_number(ParamError, "match_radius", match_radius, 0, above=True)
    wanted = set(TrackStatus) if include_tentative else {TrackStatus.CONFIRMED}
    by_frame = records_by_frame(results)

    matches = misses = false_positives = id_switches = fragmentation = 0
    last_track: dict[int, int] = {}
    in_gap: set[int] = set()

    for frame in sorted(gt.frames.keys() | by_frame.keys()):
        gt_points = gt.at(frame)
        records = [r for r in by_frame.get(frame, ()) if r.status in wanted]
        record_of: dict[int, int] = {}
        if gt_points and records:
            cost = build_cost_matrix(
                [(x, y) for _, x, y in gt_points], [(r.x, r.y) for r in records]
            )
            record_of = associate(cost, match_radius)

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
    return Metrics(
        id_switches=id_switches,
        misses=misses,
        false_positives=false_positives,
        matches=matches,
        mota=mota,
        fragmentation=fragmentation,
    )
