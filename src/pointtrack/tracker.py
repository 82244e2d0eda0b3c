"""Per-frame tracking loop: predict, associate, update, manage lifecycles.

Every live track is predicted one frame ahead, a Euclidean cost matrix is
built between predicted positions and the frame's detections, `associate`
turns it into the in-gate matching of least total cost (one row -> column
map), matched tracks are corrected with their measurement, unmatched tracks
coast on the prediction, and unclaimed detections give birth to new
tracks. A step computes all of this before it changes any track, so a step
that raises leaves the tracker as it was; one commit pass then records
every track's hit or miss, drops the tracks that die and builds the next
belief stack.

Gate: a detection is in a track's gate when its squared Mahalanobis
innovation y'S^-1 y is at most CHI2_GATE, the chi-square (2 degrees of
freedom) quantile at GATE_PROBABILITY, as in DeepSORT (Wojke et al. 2017,
section 2.2). The filter keeps P's x-y cross terms at exactly 0 and its x
and y blocks equal, so S = s I with s = P[0, 0] + sigma_z^2 and the gate is
a disc of radius sqrt(CHI2_GATE * s) around the predicted position, capped
at `gate_px`. At the default config that is about 26 px for a newborn
track and 8 px for a settled one. The cost stays the Euclidean distance.
A target that moves faster than the velocity prior allows leaves its gate
and is re-born each frame; widen the gate for such targets with `p0_vel`
(the newborn's velocity variance) or `sigma_a` (the acceleration noise),
not with `gate_px`, which is only the ceiling.

`Tracker.tracks` is always in ascending id order. All live beliefs are one
stacked `KalmanState`, `Tracker.belief`, whose row i is `tracks[i]`, so one
`kfilter.predict` and one `kfilter.update` call serve the whole frame. Row
i of the cost matrix is `tracks[i]` too: `build_cost_matrix` keeps rows in
the order given, so assignment ties go to the older track.

Lifecycle: a track is its id, birth frame b and miss streak. It is
Confirmed on frame f iff f - b + 1 >= `confirm_hits`, else Tentative: a
Tentative track dies on its first miss, so a live track was hit on every
frame until it was confirmed. Any track dies after `max_misses` consecutive
misses, or on the frame its position or velocity leaves +-COORD_LIMIT (a
track file could not hold its record). A live track is reported Coasted
while it has a miss streak, Measured otherwise. Track ids increase
strictly at birth and are never reused.

Frames are stepped one at a time: the filter predicts exactly one frame
ahead and ages count frames, so after the first step `step` rejects any
frame but the next one. A frame with no detections is still stepped, with
an empty list (as `run` does).
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from . import kfilter
from .assignment import Assignment, CostMatrix, solve
from .errors import EmptyError, OrderError, ParamError, UserError


# Largest accepted |coordinate| or |velocity| of a point, in pixels (per
# frame for velocities). It lies far beyond any image and keeps squared
# distances between points, and the filter arithmetic on them, finite.
COORD_LIMIT = 1e9

# Share of a track's true next positions its gate holds under the filter's
# Gaussian belief, and the matching chi-square quantile with 2 degrees of
# freedom, whose survival function is exp(-x/2): -2 ln(0.05) ~ 5.991.
GATE_PROBABILITY = 0.95
CHI2_GATE = -2.0 * math.log(1.0 - GATE_PROBABILITY)

# Smallest accepted sigma_z. The innovation covariance is S = P[:2,:2] +
# sigma_z^2 I, and P's x-y cross terms stay exactly 0, so det S >= sigma_z^4,
# which this keeps at or above the singularity threshold of kfilter.update.
SIGMA_Z_MIN = 1e-3


class TrackStatus(enum.Enum):
    TENTATIVE = "T"
    CONFIRMED = "C"


class RecordSource(enum.Enum):
    MEASURED = "M"
    COASTED = "P"


class Detection(NamedTuple):
    """One measured head position in one frame (frame >= 1, |coords| <= COORD_LIMIT).

    A NamedTuple, like `TrackRecord`: immutable, and cheap to build by the
    ten thousand in `synth.generate` and `io.parse_detections`.
    """

    frame: int
    x: float
    y: float
    confidence: float = 1.0


class TrackRecord(NamedTuple):
    """One track's state as reported for one frame."""

    track_id: int
    x: float
    y: float
    vx: float
    vy: float
    status: TrackStatus
    source: RecordSource


@dataclass
class FrameResult:
    """Everything the tracker emitted for one frame."""

    frame: int
    records: list[TrackRecord]
    born: list[int]
    died: list[int]


@dataclass(frozen=True)
class TrackerConfig:
    """Tunable tracker behaviour; defaults follow common online-tracking practice."""

    gate_px: float = 50.0
    confirm_hits: int = 3
    max_misses: int = 5
    sigma_a: float = 1.0
    sigma_z: float = 2.0
    p0_pos: float = 10.0
    p0_vel: float = 100.0
    min_confidence: float = 0.0

    def __post_init__(self):
        for name in ("gate_px", "sigma_a", "sigma_z", "p0_pos", "p0_vel"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ParamError(f"{name} must be finite and positive, got {value}")
        # Bounded noise scales and variances keep the filter's products
        # finite, and a bounded gate_px keeps `associate`'s fill gate_px + 1
        # above it.
        for name in ("gate_px", "sigma_a", "sigma_z", "p0_pos", "p0_vel"):
            value = getattr(self, name)
            if value > COORD_LIMIT:
                raise ParamError(f"{name} must be at most {COORD_LIMIT:g}, got {value}")
        if self.sigma_z < SIGMA_Z_MIN:
            raise ParamError(f"sigma_z must be at least {SIGMA_Z_MIN:g}, got {self.sigma_z}")
        if not 0.0 <= self.min_confidence <= 1.0:
            raise ParamError(
                f"min_confidence must lie in [0, 1], got {self.min_confidence}"
            )
        if not (isinstance(self.confirm_hits, numbers.Integral) and self.confirm_hits >= 1):
            raise ParamError(f"confirm_hits must be an integer >= 1, got {self.confirm_hits!r}")
        if not (isinstance(self.max_misses, numbers.Integral) and self.max_misses >= 0):
            raise ParamError(f"max_misses must be an integer >= 0, got {self.max_misses!r}")


class Track(NamedTuple):
    """One live track's lifecycle; its belief is a row of `Tracker.belief`."""

    id: int
    birth_frame: int
    miss_streak: int


def build_cost_matrix(
    rows: Sequence[Sequence[float]], cols: Sequence[Sequence[float]]
) -> CostMatrix:
    """Euclidean distances between two sequences of (x, y) points.

    Entry (i, j) is the distance from `rows[i]` to `cols[j]`; nothing is
    sorted. The tracker passes its predicted positions in ascending track
    id order against the frame's detections. `synth.evaluate` scores with
    this same builder (ground-truth points as rows, track records as
    columns).

    Raises:
        EmptyError: if either side is empty; callers branch to the pure
            birth / pure miss paths instead.
    """
    if len(rows) == 0 or len(cols) == 0:
        raise EmptyError("cost matrix needs at least one row point and one column point")
    row_xy = np.asarray(rows, dtype=float)
    col_xy = np.asarray(cols, dtype=float)
    deltas = row_xy[:, None, :] - col_xy[None, :, :]
    return CostMatrix(np.sqrt((deltas**2).sum(axis=2)))


def gate(assignment: Assignment, cost: CostMatrix, gate_px: float) -> Assignment:
    """Drop every matched pair whose cost exceeds the gate distance.

    Removed pairs move their row and column back to the unmatched sets and
    the total cost is recomputed over the survivors.
    """
    kept = [(r, c) for r, c in assignment.pairs if cost.values[r, c] <= gate_px]
    dropped = assignment.pairs - set(kept)
    return Assignment(
        pairs=frozenset(kept),
        unmatched_rows=assignment.unmatched_rows | {r for r, _ in dropped},
        unmatched_cols=assignment.unmatched_cols | {c for _, c in dropped},
        total_cost=float(sum(cost.values[r, c] for r, c in kept)),
    )


def associate(
    cost: CostMatrix, gate_px: float, radius: np.ndarray | None = None
) -> dict[int, int]:
    """Least-cost matching over the in-gate pairs, as a row -> column map.

    Pair (i, j) is in gate when cost[i, j] <= min(radius[i], gate_px):
    `radius` holds one gate radius per row (the tracker's chi-square
    radii), and without it every row's radius is `gate_px`. Every
    out-of-gate cell is priced at C = gate_px + 1, the cost of leaving a row
    unmatched (as in DeepSORT's `min_cost_matching`, Wojke et al. 2017), so
    the result minimizes sum(c - C) over in-gate matchings: out-of-gate
    distances cannot steer which in-gate pairs are chosen. C is above every
    in-gate cost while gate_px + 1 > gate_px, that is while gate_px < 2^53.

    Two callers share this rule. `Tracker.step` passes `TrackerConfig.gate_px`
    and its chi-square radii; the config's bound on gate_px (at most
    COORD_LIMIT) keeps the fill above it. `synth.evaluate` passes its
    `match_radius`, which has no upper bound, with no `radius`. The fill is
    safe there too: points within +-COORD_LIMIT are at most 2*sqrt(2)*1e9
    < 2^53 apart, so a cell is filled only when match_radius is below that
    distance, where match_radius + 1 > match_radius.

    A lone pair (the only in-gate entry of both its row and its column) is
    in every optimal matching and is taken directly. Every other row and
    column with an in-gate entry forms one constant-filled block, solved
    and gated at `gate_px` once; with no such rows, `solve` and `gate` are
    not called. Within the block, ties follow `solve`'s lexicographic rule,
    so with rows in track order the older track wins a shared detection.
    Rows come out ascending.
    """
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


class Tracker:
    """Sequential multi-target tracker; feed consecutive frames in order.

    A Tracker instance is a state machine and must not be shared between
    threads; independent instances are free to run concurrently.
    """

    def __init__(self, config: TrackerConfig | None = None):
        self.config = config or TrackerConfig()
        self.model = kfilter.make_cv_model(self.config.sigma_a, self.config.sigma_z)
        self.tracks: list[Track] = []
        self.belief = kfilter.KalmanState(
            x=np.empty((0, kfilter.STATE_DIM)),
            P=np.empty((0, kfilter.STATE_DIM, kfilter.STATE_DIM)),
        )
        self._next_id = 1
        self._last_frame = 0

    def step(self, frame: int, detections: Sequence[Detection]) -> FrameResult:
        """Process one frame worth of detections; see the module docstring.

        Raises:
            OrderError: when the frame index is not positive on the first
                step or not the previous frame + 1 after it, or a detection
                is stamped with a different frame.
            UserError: when a detection coordinate is not finite or lies
                beyond COORD_LIMIT, or its confidence is not in [0, 1].
        """
        cfg = self.config
        if frame <= self._last_frame:
            raise OrderError(
                f"frame {frame} is not after last processed frame {self._last_frame}"
            )
        if self._last_frame and frame != self._last_frame + 1:
            raise OrderError(
                f"frame {frame} skips frames after last processed frame {self._last_frame}; "
                f"step frame {self._last_frame + 1} next, with no detections if it has none"
            )
        for det in detections:
            if det.frame != frame:
                raise OrderError(
                    f"detection stamped frame {det.frame} fed to step({frame})"
                )
            if not (abs(det.x) <= COORD_LIMIT and abs(det.y) <= COORD_LIMIT):
                raise UserError(
                    f"frame {frame}: detection at ({det.x}, {det.y}) must be finite "
                    f"and within +-{COORD_LIMIT:g}"
                )
            if not 0.0 <= det.confidence <= 1.0:
                raise UserError(
                    f"frame {frame}: detection confidence {det.confidence} must lie in [0, 1]"
                )
        usable = [d for d in detections if d.confidence >= cfg.min_confidence]

        # 1. Predict every live track at once; row i is self.tracks[i].
        belief = self.belief
        if self.tracks:
            belief = kfilter.predict(belief, self.model)
        x, P = belief.x, belief.P

        # 2. Associate predictions with detections inside each track's
        # chi-square gate; S = s I with s = P[0, 0] + sigma_z^2.
        col_of_row: dict[int, int] = {}
        if self.tracks and usable:
            cost = build_cost_matrix(x[:, :2], [(d.x, d.y) for d in usable])
            radius = np.sqrt(CHI2_GATE * (P[:, 0, 0] + self.model.R[0, 0]))
            col_of_row = associate(cost, cfg.gate_px, radius)

        # 3. Correct the matched rows in one call; every unclaimed detection
        # starts a belief.
        if col_of_row:
            rows = list(col_of_row)
            z = [(usable[c].x, usable[c].y) for c in col_of_row.values()]
            corrected, _ = kfilter.update(kfilter.KalmanState(x[rows], P[rows]), z, self.model)
            x, P = x.copy(), P.copy()
            x[rows], P[rows] = corrected.x, corrected.P
        claimed = set(col_of_row.values())
        unclaimed = [d for c, d in enumerate(usable) if c not in claimed]
        newborn = [kfilter.init_state(d.x, d.y, cfg.p0_pos, cfg.p0_vel) for d in unclaimed]
        # A track whose position or velocity leaves the limit dies below.
        inside = np.abs(x) <= COORD_LIMIT
        escaped = set() if inside.all() else set(np.flatnonzero(~inside.all(axis=1)).tolist())

        # 4. Nothing below can fail: commit each track's hit or miss, keep the
        # survivors' rows, then append the newborn with consecutive ids.
        survivors: list[Track] = []
        keep: list[int] = []
        died: list[int] = []
        for r, track in enumerate(self.tracks):
            if r in escaped:
                died.append(track.id)
                continue
            if r not in col_of_row:
                misses = track.miss_streak + 1
                if frame - track.birth_frame < cfg.confirm_hits or misses > cfg.max_misses:
                    died.append(track.id)  # still Tentative, or coasted too long
                    continue
                track = Track(track.id, track.birth_frame, misses)
            elif track.miss_streak:
                track = Track(track.id, track.birth_frame, 0)
            survivors.append(track)
            keep.append(r)
        born = list(range(self._next_id, self._next_id + len(newborn)))
        self._next_id += len(newborn)
        self.tracks = survivors + [Track(i, frame, 0) for i in born]
        self.belief = kfilter.KalmanState(
            x=np.concatenate([x[keep], *(s.x[None] for s in newborn)]),
            P=np.concatenate([P[keep], *(s.P[None] for s in newborn)]),
        )

        # 5. Report every live track.
        records = [
            TrackRecord(
                t.id, px, py, vx, vy,
                TrackStatus.CONFIRMED if frame - t.birth_frame + 1 >= cfg.confirm_hits
                else TrackStatus.TENTATIVE,
                RecordSource.COASTED if t.miss_streak else RecordSource.MEASURED,
            )
            for t, (px, py, vx, vy) in zip(self.tracks, self.belief.x.tolist())
        ]
        self._last_frame = frame
        return FrameResult(frame=frame, records=records, born=born, died=died)


def run(
    detections_by_frame: Mapping[int, Sequence[Detection]],
    config: TrackerConfig | None = None,
    frame_range: tuple[int, int] | None = None,
) -> list[FrameResult]:
    """Track a whole frame-indexed detection stream.

    Steps every frame in `frame_range` (inclusive on both ends), including
    frames with no detections. When the range is omitted it is inferred
    from the stream's smallest and largest frame; an empty stream with no
    explicit range yields no results.
    """
    if frame_range is None:
        if not detections_by_frame:
            return []
        frame_range = (min(detections_by_frame), max(detections_by_frame))
    first, last = frame_range
    if first > last:
        raise OrderError(f"invalid frame range {first}..{last}")
    tracker = Tracker(config)
    return [tracker.step(f, detections_by_frame.get(f, [])) for f in range(first, last + 1)]


def group_by_frame(detections: Iterable[Detection]) -> dict[int, list[Detection]]:
    """Bucket a flat detection list by frame, frames ascending."""
    grouped: dict[int, list[Detection]] = {}
    for det in detections:
        grouped.setdefault(det.frame, []).append(det)
    return dict(sorted(grouped.items()))
