"""Per-frame tracking loop: predict, associate, update, manage lifecycles.

Every live track is predicted one frame ahead, a Euclidean cost matrix is
built between predicted positions and the frame's detections, `associate`
turns it into the in-gate matching of least total cost (one row -> column
map), matched tracks are corrected with their measurement, unmatched tracks
coast on the prediction, and unclaimed detections give birth to new
tracks. A step computes all of this before it changes any track, so a step
that raises leaves the tracker as it was; one commit pass then records
every track's hit or miss, drops the tracks that die and builds the next
belief stack. Every frame takes this one path, one with no track or no
detection too: each step makes one `kfilter.predict`, one
`build_cost_matrix`, one `associate` and one `kfilter.update` call, and an
empty side gives a cost with no pair, matched to nothing, and a zero-row
update.

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

While a track is live, frames are stepped one at a time: the filter
predicts exactly one frame ahead and ages count frames, so `step` rejects
any frame but the next one, and a frame with no detections is stepped with
an empty list. With no live track there is nothing to predict, and the
next step may be any later frame; `run` skips the empty stretches between
tracks this way.

The readers of results (`io.write_tracks`, `synth.evaluate`,
`io.render_overlay`) share one view of them, `records_by_frame`, checked
once against the track file's rules. Each record type has one check, which
the file parsers in `io` hand what they read: `check_detections` and
`check_records` take one frame, the `synth.GroundTruth` constructor the
whole file. All three test each frame with one rule, `check_frame`.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from itertools import compress
from operator import attrgetter
from collections.abc import Iterable, Mapping, Sequence
from typing import NamedTuple

import numpy as np

from . import kfilter
from .assignment import CostMatrix, gate, solve
from .errors import AlignmentError, OrderError, ParamError, UserError
from .errors import check_integer, check_kind, check_number, is_integer, is_number


# Largest accepted |coordinate| or |velocity| of a point, in pixels (per
# frame for velocities): the filter's bound, which keeps squared distances
# between points, and the filter arithmetic on them, finite.
COORD_LIMIT = kfilter.COORD_LIMIT

# Share of a track's true next positions its gate holds under the filter's
# Gaussian belief, and the matching chi-square quantile with 2 degrees of
# freedom, whose survival function is exp(-x/2): -2 ln(0.05) ~ 5.991.
GATE_PROBABILITY = 0.95
CHI2_GATE = -2.0 * math.log(1.0 - GATE_PROBABILITY)

# Smallest accepted sigma_z. The innovation covariance is S = P[:2,:2] +
# sigma_z^2 I, and P's x-y cross terms stay exactly 0, so det S >= sigma_z^4,
# which this keeps at or above the singularity threshold of kfilter.update.
SIGMA_Z_MIN = 1e-3

# The error for a point or velocity (x, y) not finite or beyond COORD_LIMIT,
# formatted with the frame, what the pair is ("track 3 velocity"), x and y by
# the per-record loops of `check_detections`, `check_records` and
# `synth.GroundTruth` when their inline test fails.
FAR_POINT_ERROR = "frame {}: {} ({}, {}) must be finite and within +-%g" % COORD_LIMIT

# The error for a record whose values are not all real numbers
# (`errors.is_number`), formatted with the frame, what the values are
# ("gt_id 3 (x, y)") and the values as a tuple. The same loops test
# `type(...) is float` first: it holds for nearly every value, and
# `is_number` costs several times more.
NOT_A_NUMBER_ERROR = "frame {}: {} must be real numbers, got {!r}"

# The error for a frame's records that do not unpack into their fields (a
# record of the wrong length or kind, or records that are not a list),
# formatted with the frame, what each record is ("detection"), its fields
# and the unpacking error. The same loops catch the failure around their
# unpacking instead of testing each record: a `try` costs nothing until it
# raises.
RECORD_SHAPE_ERROR = "frame {}: each {} must be ({}); {}"


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
    """Tunable tracker behaviour; defaults follow common online-tracking practice.

    Checked when built: `gate_px`, `sigma_a`, `p0_pos` and `p0_vel` are
    real numbers in (0, COORD_LIMIT], `sigma_z` in [SIGMA_Z_MIN,
    COORD_LIMIT], `min_confidence` in [0, 1] (`errors.check_number`; a bool
    is not a number), `confirm_hits` an integer >= 1 and `max_misses` an
    integer >= 0 (`errors.check_integer`). Anything else raises
    `ParamError` naming the field.
    """

    gate_px: float = 50.0
    confirm_hits: int = 3
    max_misses: int = 5
    sigma_a: float = 1.0
    sigma_z: float = 2.0
    p0_pos: float = 10.0
    p0_vel: float = 100.0
    min_confidence: float = 0.0

    def __post_init__(self):
        # Bounded noise scales and variances keep the filter's products
        # finite, and a bounded gate_px keeps `associate`'s fill gate_px + 1
        # above it.
        for name in ("gate_px", "sigma_a", "p0_pos", "p0_vel"):
            check_number(ParamError, name, getattr(self, name), 0, COORD_LIMIT, above=True)
        check_number(ParamError, "sigma_z", self.sigma_z, SIGMA_Z_MIN, COORD_LIMIT)
        check_number(ParamError, "min_confidence", self.min_confidence, 0, 1)
        check_integer(ParamError, "confirm_hits", self.confirm_hits, 1)
        check_integer(ParamError, "max_misses", self.max_misses, 0)


class Track(NamedTuple):
    """One live track's lifecycle; its belief is a row of `Tracker.belief`."""

    id: int
    birth_frame: int
    miss_streak: int


def distances(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Euclidean distances between (..., n, 2) and (..., m, 2) point arrays, as (..., n, m).

    Entry [..., i, j] is the distance from `rows[..., i, :]` to
    `cols[..., j, :]`; leading axes broadcast, so `synth.evaluate` measures
    a stack of frames in one call. The x and y differences are two arrays,
    squared and added, not one (..., n, m, 2) array summed over its last
    axis: numpy's reduction over a trailing axis of length 2 is several
    times slower (130 us against 26 us at 50 x 52, numpy 2.4 on a 2-vCPU
    Xeon), and dx*dx + dy*dy adds the same two squares in the same order,
    so every entry has the same bits whichever stack it is computed in. A
    NaN point gives NaN distances, quietly: no comparison holds on them.
    """
    dx = rows[..., 0, None] - cols[..., None, :, 0]
    dy = rows[..., 1, None] - cols[..., None, :, 1]
    dx *= dx
    dy *= dy
    dx += dy
    return np.sqrt(dx, out=dx)


def build_cost_matrix(
    rows: Sequence[Sequence[float]], cols: Sequence[Sequence[float]]
) -> CostMatrix:
    """Euclidean distances between two sequences of (x, y) points (`distances`).

    Entry (i, j) is the distance from `rows[i]` to `cols[j]`; nothing is
    sorted. Either side may be empty: each is read as a (len, 2) array, so
    the matrix is (n, 0) or (0, m) and holds no pair. The tracker passes
    its predicted positions in ascending track id order against the
    frame's detections. `synth.evaluate` builds with it the cost of every
    frame it matches (ground-truth points as rows, track records as
    columns), and screens its stacks of frames with the same `distances`.
    """
    row_xy = np.asarray(rows, dtype=float).reshape(len(rows), 2)
    col_xy = np.asarray(cols, dtype=float).reshape(len(cols), 2)
    return CostMatrix(distances(row_xy, col_xy))


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
    in every optimal matching and is taken directly. When no row and no
    column holds two in-gate entries, every in-gate pair is lone, and the
    pairs are returned as `nonzero` lists them, rows ascending, with no
    further array work: the common frame of a sparse scene. Otherwise every
    other row and column with an in-gate entry forms one constant-filled
    block, solved and gated at `gate_px` once. Within the block, ties
    follow `solve`'s lexicographic rule, so with rows in track order the
    older track wins a shared detection. Rows come out ascending. A cost
    with no row or no column has no in-gate pair and gives an empty map.
    """
    limit = gate_px if radius is None else np.minimum(radius, gate_px)[:, None]
    inside = cost.values <= limit
    rows, cols = inside.nonzero()
    row_list, col_list = rows.tolist(), cols.tolist()
    if len(set(row_list)) == len(row_list) and len(set(col_list)) == len(col_list):
        return dict(zip(row_list, col_list))
    lone = (np.bincount(rows)[rows] == 1) & (np.bincount(cols)[cols] == 1)
    col_of_row = dict(compress(zip(row_list, col_list), lone.tolist()))
    block_rows = np.flatnonzero(np.bincount(rows[~lone]))
    block_cols = np.flatnonzero(np.bincount(cols[~lone]))
    within = np.ix_(block_rows, block_cols)
    block = CostMatrix(np.where(inside[within], cost.values[within], gate_px + 1.0))
    for r, c in gate(solve(block), block, gate_px).pairs:
        col_of_row[int(block_rows[r])] = int(block_cols[c])
    return dict(sorted(col_of_row.items()))


class Tracker:
    """Sequential multi-target tracker; feed frames ascending, consecutive while a track lives.

    A Tracker instance is a state machine and must not be shared between
    threads; independent instances are free to run concurrently. Without a
    config it runs the default `TrackerConfig`; a config that is not a
    `TrackerConfig` raises `ParamError`.
    """

    def __init__(self, config: TrackerConfig | None = None):
        self.config = TrackerConfig() if config is None else config
        check_kind(ParamError, "config", self.config, TrackerConfig)
        self.model = kfilter.make_cv_model(self.config.sigma_a, self.config.sigma_z)
        self.tracks: list[Track] = []
        self.belief = kfilter.KalmanState(
            x=np.empty((0, kfilter.STATE_DIM)),
            P=np.empty((0, kfilter.STATE_DIM, kfilter.STATE_DIM)),
        )
        self._next_id = 1
        self._last_frame = 0

    def step(self, frame: int, detections: Iterable[Detection]) -> FrameResult:
        """Process one frame worth of detections; see the module docstring.

        A frame with no live track or no usable detection is no special
        case: it is predicted, associated and updated like any other, on
        empty stacks and an empty cost.

        The frame and its detections are checked first
        (`check_detections`), then the frame's order. The detections may be
        any iterable, a one-shot one too: the step reads the list of them
        that `check_detections` checked.

        Raises:
            UserError: when the detections are not iterable, or a detection
                is not (frame, x, y, confidence),
                or the frame or a detection's frame is not an integer (a
                bool is not), or the frame is below 1, or a detection
                coordinate or confidence is not a real number, or the
                coordinate is not finite or lies beyond COORD_LIMIT, or the
                confidence is not in [0, 1] (`check_detections`).
            OrderError: when a detection is stamped with a different frame,
                or the frame is not after the last stepped frame, or skips
                frames while a track is live.
        """
        cfg = self.config
        detections = check_detections(frame, detections)
        if frame <= self._last_frame:
            raise OrderError(
                f"frame {frame} is not after last processed frame {self._last_frame}"
            )
        if self.tracks and frame != self._last_frame + 1:
            raise OrderError(
                f"frame {frame} skips frames after last processed frame {self._last_frame}; "
                f"step frame {self._last_frame + 1} next, with no detections if it has none"
            )
        # By position, as `check_detections` unpacks them, so a plain
        # (frame, x, y, confidence) tuple steps like a Detection.
        usable = [(px, py) for _, px, py, conf in detections if conf >= cfg.min_confidence]
        points = np.array(usable, dtype=float).reshape(-1, 2)

        # 1. Predict every live track at once; row i is self.tracks[i].
        belief = kfilter.predict(self.belief, self.model)
        x, P = belief.x, belief.P

        # 2. Associate predictions with detections inside each track's
        # chi-square gate; S = s I with s = P[0, 0] + sigma_z^2.
        cost = build_cost_matrix(x[:, :2], points)
        radius = np.sqrt(CHI2_GATE * (P[:, 0, 0] + self.model.R[0, 0]))
        col_of_row = associate(cost, cfg.gate_px, radius)

        # 3. Correct the matched rows in one call, in predict's fresh arrays;
        # every unclaimed detection starts a belief.
        n = len(col_of_row)
        rows = np.fromiter(col_of_row, np.intp, n)
        cols = np.fromiter(col_of_row.values(), np.intp, n)
        corrected, _ = kfilter.update(
            kfilter.KalmanState(x[rows], P[rows]), points[cols], self.model
        )
        x[rows], P[rows] = corrected.x, corrected.P
        claimed = set(col_of_row.values())
        unclaimed = [point for c, point in enumerate(usable) if c not in claimed]
        newborn = [kfilter.init_state(px, py, cfg.p0_pos, cfg.p0_vel) for px, py in unclaimed]
        # A track whose position or velocity leaves the limit dies below.
        inside = np.abs(x) <= COORD_LIMIT
        escaped = set() if inside.all() else set(np.flatnonzero(~inside.all(axis=1)).tolist())

        # 4. Nothing below can fail: commit each track's hit or miss, keep the
        # survivors' rows, then append the newborn with consecutive ids. On a
        # frame with no death and no birth every row survives in place, and
        # the predicted (and corrected) stack is the next belief as it is.
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
        if died or newborn:
            belief = kfilter.KalmanState(
                x=np.concatenate([x[keep], *(s.x[None] for s in newborn)]),
                P=np.concatenate([P[keep], *(s.P[None] for s in newborn)]),
            )
        self.belief = belief

        # 5. Report every live track; one born on or before `confirmed_by`
        # has frame - birth_frame + 1 >= confirm_hits.
        confirmed, tentative = TrackStatus.CONFIRMED, TrackStatus.TENTATIVE
        coasted, measured = RecordSource.COASTED, RecordSource.MEASURED
        confirmed_by = frame + 1 - cfg.confirm_hits
        records = [
            TrackRecord(
                t.id, px, py, vx, vy,
                confirmed if t.birth_frame <= confirmed_by else tentative,
                coasted if t.miss_streak else measured,
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

    Steps the stream's frames in `frame_range` (inclusive on both ends;
    the stream's smallest to largest frame when omitted), ascending, and
    while a track is live each empty frame after them up to the range's
    end, so a live track is predicted one frame at a time. An empty frame
    with no live track would report nothing and gets no result, so time
    and memory follow the frames with content, not the span; an empty
    stream yields no results.

    Raises:
        UserError: when the stream is not a mapping, or a stream key is not
            an integer (a bool is not), and as `Tracker.step` on each frame
            it steps.
        ParamError: when `frame_range` is not a (start, end) pair or an
            end of it is not an integer, or `config` is neither None nor a
            `TrackerConfig`.
        OrderError: when `frame_range` ends before it starts.
    """
    check_kind(UserError, "detections_by_frame", detections_by_frame, Mapping)
    for frame in detections_by_frame:
        if type(frame) is not int:
            check_integer(UserError, "frame", frame)
    if frame_range is None:
        frame_range = (min(detections_by_frame, default=1), max(detections_by_frame, default=1))
    try:
        first, last = frame_range
    except (TypeError, ValueError):
        raise ParamError(f"frame_range must be a (start, end) pair, got {frame_range!r}") from None
    first = check_integer(ParamError, "frame_range start", first)
    last = check_integer(ParamError, "frame_range end", last)
    if first > last:
        raise OrderError(f"invalid frame range {first}..{last}")
    tracker, results = Tracker(config), []
    # Frame last + 1 is never stepped; it only ends the coast through the
    # empty frames after the last frame with detections.
    for frame in [*sorted(f for f in detections_by_frame if first <= f <= last), last + 1]:
        while tracker.tracks and results[-1].frame + 1 < frame:
            results.append(tracker.step(results[-1].frame + 1, []))
        if frame <= last:
            results.append(tracker.step(frame, detections_by_frame[frame]))
    return results


def group_by_frame(detections: Iterable[Detection]) -> dict[int, list[Detection]]:
    """Bucket a flat detection list by frame, frames ascending."""
    grouped: dict[int, list[Detection]] = {}
    for det in detections:
        grouped.setdefault(det.frame, []).append(det)
    return dict(sorted(grouped.items()))


def check_detections(frame: int, detections: Iterable[Detection]) -> list[Detection]:
    """Check one frame's detections against the detection file's rules; return them as a list.

    `Tracker.step` checks each frame it is fed, and `io.write_detections`
    each frame it writes, so the tracker takes only detections a file can
    hold and the writer writes only lines `io.parse_detections` reads. A
    list is checked and returned as it is; any other iterable is read into
    a new list first, so a one-shot one is read once and its detections
    are still there to track.

    Raises:
        UserError: when the detections are not iterable, or a detection
            does not unpack into (frame, x, y, confidence), or the frame or a
            detection's frame is not an integer (a bool is not), or the frame
            is below 1, or a detection coordinate or confidence is not a real
            number (a bool is not), or a coordinate is not finite or lies
            beyond COORD_LIMIT, or the confidence is not in [0, 1]; the
            message names the frame.
        OrderError: when a detection is stamped with a different frame.
    """
    check_frame(frame)
    # Unpacking costs less than reading four attributes and pays for the
    # type tests. `type(...) is int` comes first: it holds for nearly every
    # detection, and `is_integer` costs several times more.
    try:
        if type(detections) is not list:
            detections = list(detections)
        for det_frame, x, y, confidence in detections:
            if det_frame != frame:
                raise OrderError(f"detection stamped frame {det_frame} fed to step({frame})")
            if type(det_frame) is not int and not is_integer(det_frame):
                raise UserError(f"frame {frame}: detection frame {det_frame!r} must be an integer")
            if not (
                type(x) is type(y) is type(confidence) is float
                or all(map(is_number, (x, y, confidence)))
            ):
                what = "detection (x, y, confidence)"
                raise UserError(NOT_A_NUMBER_ERROR.format(frame, what, (x, y, confidence)))
            if not (abs(x) <= COORD_LIMIT and abs(y) <= COORD_LIMIT):
                raise UserError(FAR_POINT_ERROR.format(frame, "detection at", x, y))
            if not 0.0 <= confidence <= 1.0:
                raise UserError(
                    f"frame {frame}: detection confidence {confidence} must lie in [0, 1]"
                )
    except (TypeError, ValueError) as error:
        fields = "frame, x, y, confidence"
        raise UserError(RECORD_SHAPE_ERROR.format(frame, "detection", fields, error)) from None
    return detections


def check_frame(frame: int) -> None:
    """Check a frame number against the file formats' rule: an integer >= 1.

    The one frame rule of `check_detections`, `check_records` and
    `synth.GroundTruth`.

    Raises:
        UserError: when the frame is not an integer (a bool is not) or is
            below 1; the message names the frame.
    """
    if type(frame) is not int and not is_integer(frame):
        raise UserError(f"frame {frame!r} must be an integer")
    if frame < 1:
        raise UserError(f"frame {frame} must be >= 1")


def records_by_frame(results: Iterable[FrameResult]) -> dict[int, list[TrackRecord]]:
    """Each result's records by frame, frames ascending, track ids ascending (`check_records`).

    The one view of tracker output that `io.write_tracks`, `synth.evaluate`
    and `io.render_overlay` read. This checks the results and their frames;
    each frame's records go through `check_records`, the check
    `io.parse_tracks` hands each frame it reads to, so `parse_tracks` reads
    back every file `write_tracks` writes. Every result frame is a key, one
    with no records too.

    Raises:
        AlignmentError: on a frame that is not an integer (a bool is not),
            is below 1 or is given twice.
        UserError: when the results are not iterable or one is not a
            `FrameResult`, and as `check_records` on each result's records.
    """
    check_kind(UserError, "results", results, Iterable)
    by_frame: dict[int, list[TrackRecord]] = {}
    for result in results:
        if type(result) is not FrameResult:
            check_kind(UserError, "each result", result, FrameResult)
        frame = result.frame
        if type(frame) is not int and not is_integer(frame):
            raise AlignmentError(f"result frame {frame!r} must be an integer")
        if frame in by_frame:
            raise AlignmentError(f"duplicate results for frame {frame}")
        if frame < 1:
            raise AlignmentError(f"result frame {frame} is not a valid frame index")
        by_frame[frame] = check_records(frame, result.records)
    return dict(sorted(by_frame.items()))


def check_records(frame: int, records: Iterable[TrackRecord]) -> list[TrackRecord]:
    """Check one frame's track records against the track file's rules; return them by track id.

    `records_by_frame` checks each result's records with it, and
    `io.parse_tracks` each frame it reads. The records come back as a new
    list, sorted by track id, ascending; any other iterable is read into a
    list first, so a one-shot one is read once.

    Raises:
        UserError: when the frame is not an integer or is below 1
            (`check_frame`); naming the frame, when the records are not an
            iterable of `TrackRecord`s; naming the frame and the track, when
            a track id is not an integer (a bool is not), is below 1 or
            appears twice in the frame, or a position or velocity is not a
            real number (a bool is not), is not finite or lies beyond
            COORD_LIMIT, or the status is not a `TrackStatus` or the source
            not a `RecordSource`.
    """
    check_frame(frame)
    try:
        if type(records) is not list:  # read a one-shot iterable once
            records = list(records)
        records = sorted(records, key=attrgetter("track_id"))
    except TypeError:  # not iterable, or ids that do not compare: the loop names which
        pass
    except AttributeError as error:  # an item that is not a TrackRecord
        fields = ", ".join(TrackRecord._fields)
        raise UserError(RECORD_SHAPE_ERROR.format(frame, "record", fields, error)) from None
    previous = 0  # sorted, so a repeated id follows itself
    try:
        for track_id, x, y, vx, vy, status, source in records:
            if not (
                type(x) is type(y) is type(vx) is type(vy) is float
                or all(map(is_number, (x, y, vx, vy)))
            ):
                what = f"track {track_id} (x, y, vx, vy)"
                raise UserError(NOT_A_NUMBER_ERROR.format(frame, what, (x, y, vx, vy)))
            if not (abs(x) <= COORD_LIMIT and abs(y) <= COORD_LIMIT):
                raise UserError(FAR_POINT_ERROR.format(frame, f"track {track_id} at", x, y))
            if not (abs(vx) <= COORD_LIMIT and abs(vy) <= COORD_LIMIT):
                what = f"track {track_id} velocity"
                raise UserError(FAR_POINT_ERROR.format(frame, what, vx, vy))
            if type(track_id) is not int and not is_integer(track_id):
                raise UserError(f"frame {frame}: track_id must be an integer, got {track_id!r}")
            if track_id < 1:
                raise UserError(f"frame {frame}: track_id must be >= 1, got {track_id}")
            if track_id == previous:
                raise UserError(f"track_id {track_id} appears twice in frame {frame}")
            if type(status) is not TrackStatus or type(source) is not RecordSource:
                raise UserError(
                    f"frame {frame}: track {track_id} status and source must be a "
                    f"TrackStatus and a RecordSource, got {status!r}, {source!r}"
                )
            previous = track_id
    except (TypeError, ValueError) as error:
        fields = ", ".join(TrackRecord._fields)
        raise UserError(RECORD_SHAPE_ERROR.format(frame, "record", fields, error)) from None
    return records
