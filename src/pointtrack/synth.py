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
from typing import Iterable, NamedTuple, Sequence

from .assignment import solve  # unused, like `gate`: perfbench patches both here by name
from .errors import AlignmentError, ParamError, SpecError, UserError
from .rng import POISSON_RATE_MAX, SplitMix64
from .tracker import (
    COORD_LIMIT, Detection, FrameResult, TrackRecord, TrackStatus, associate, build_cost_matrix, gate
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
    """

    n_frames: int
    targets: tuple[TargetPath, ...] = ()
    noise_sigma: float = 0.0
    miss_prob: float = 0.0
    clutter_rate: float = 0.0
    bounds: tuple[float, float] = (640.0, 480.0)
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(
            self, "targets", tuple(TargetPath(*t) for t in self.targets)
        )
        object.__setattr__(self, "bounds", (float(self.bounds[0]), float(self.bounds[1])))
        if self.n_frames < 1:
            raise SpecError("n_frames must be at least 1")
        if not (math.isfinite(self.noise_sigma) and self.noise_sigma >= 0):
            raise SpecError("noise_sigma must be finite and nonnegative")
        if not 0.0 <= self.miss_prob <= 1.0:
            raise SpecError("miss_prob must lie in [0, 1]")
        if not 0.0 <= self.clutter_rate <= POISSON_RATE_MAX:
            raise SpecError(
                f"clutter_rate must lie in [0, {POISSON_RATE_MAX:g}], got {self.clutter_rate}"
            )
        if not all(0 < side <= COORD_LIMIT for side in self.bounds):
            raise SpecError(f"bounds must be positive and at most {COORD_LIMIT:g}")
        margin = _GAUSS_BOUND * self.noise_sigma
        for i, t in enumerate(self.targets):
            if not t.birth_frame >= 1:
                raise SpecError(f"target {i}: birth_frame must be >= 1")
            if not t.birth_frame < t.death_frame <= self.n_frames:
                raise SpecError(
                    f"target {i}: need birth < death <= n_frames, "
                    f"got {t.birth_frame}, {t.death_frame}, {self.n_frames}"
                )
            if not all(math.isfinite(value) for value in t[2:]):
                raise SpecError(f"target {i}: start and velocity must be finite")
            # A linear path is farthest out at its first or last frame.
            age = t.death_frame - t.birth_frame
            ends = (t.start_x, t.start_y, t.start_x + age * t.vx, t.start_y + age * t.vy)
            if max(abs(end) for end in ends) + margin > COORD_LIMIT:
                raise SpecError(
                    f"target {i}: positions (plus {_GAUSS_BOUND:g} * noise_sigma) "
                    f"must stay within +-{COORD_LIMIT:g}"
                )


@dataclass(frozen=True)
class GroundTruth:
    """Exact target positions per frame: lists of (gt_id, x, y).

    Frame keys lie in 1..n_frames; each gt_id is at least 1 and appears
    once per frame; coordinates are finite and within +-COORD_LIMIT.
    Construction raises `UserError` naming the frame.
    """

    n_frames: int
    frames: dict[int, list[tuple[int, float, float]]]

    def __post_init__(self):
        for frame, points in self.frames.items():
            if not 1 <= frame <= self.n_frames:
                raise UserError(f"frame {frame} lies outside 1..{self.n_frames}")
            seen: set[int] = set()
            for gt_id, x, y in points:
                if gt_id < 1:
                    raise UserError(f"frame {frame}: gt_id must be >= 1, got {gt_id}")
                if gt_id in seen:
                    raise UserError(f"gt_id {gt_id} appears twice in frame {frame}")
                if not (abs(x) <= COORD_LIMIT and abs(y) <= COORD_LIMIT):
                    raise UserError(
                        f"frame {frame}: gt_id {gt_id} at ({x}, {y}) must be finite "
                        f"and within +-{COORD_LIMIT:g}"
                    )
                seen.add(gt_id)

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
        truth[frame] = points
        if frame in death_frames:
            alive = [(gt_id, target) for gt_id, target in alive if target.death_frame > frame]
    return GroundTruth(n_frames=spec.n_frames, frames=truth), detections


def _records_by_frame(
    results: Iterable[FrameResult], include_tentative: bool
) -> dict[int, list[TrackRecord]]:
    wanted = {TrackStatus.CONFIRMED}
    if include_tentative:
        wanted.add(TrackStatus.TENTATIVE)
    by_frame: dict[int, list[TrackRecord]] = {}
    for result in results:
        if result.frame in by_frame:
            raise AlignmentError(f"duplicate results for frame {result.frame}")
        if result.frame < 1:
            raise AlignmentError(f"result frame {result.frame} is not a valid frame index")
        records = []
        seen: set[int] = set()
        for r in result.records:
            if not (abs(r.x) <= COORD_LIMIT and abs(r.y) <= COORD_LIMIT):
                raise UserError(
                    f"frame {result.frame}: track {r.track_id} at ({r.x}, {r.y}) must be "
                    f"finite and within +-{COORD_LIMIT:g}"
                )
            if r.track_id in seen:
                raise UserError(f"track_id {r.track_id} appears twice in frame {result.frame}")
            seen.add(r.track_id)
            if r.status in wanted:
                records.append(r)
        by_frame[result.frame] = sorted(records, key=lambda r: r.track_id)
    return by_frame


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
    target is re-acquired after unmatched frames. Result frames past the
    ground-truth horizon are legal (a tracker may coast past the last live
    target); records there count as false positives.

    Raises:
        ParamError: when `match_radius` is not finite and positive.
        AlignmentError: on duplicate or non-positive result frames.
        UserError: when a record's position is not finite or lies beyond
            COORD_LIMIT.
    """
    if not (math.isfinite(match_radius) and match_radius > 0):
        raise ParamError(f"match_radius must be finite and positive, got {match_radius}")
    by_frame = _records_by_frame(results, include_tentative)
    horizon = max(gt.n_frames, max(by_frame, default=0))

    matches = misses = false_positives = id_switches = fragmentation = 0
    last_track: dict[int, int] = {}
    in_gap: set[int] = set()

    for frame in range(1, horizon + 1):
        gt_points = gt.at(frame)
        records = by_frame.get(frame, [])
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
