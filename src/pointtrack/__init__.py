"""Multi-target point tracking toolkit.

Tracking-by-detection over point targets: one constant-velocity Kalman
filter per target, Euclidean cost matrices over predicted positions, exact
minimum-cost data association (a shortest-augmenting-path `solve`) over the
pairs inside each track's chi-square innovation gate, track lifecycle
management, plus synthetic scenario generation and CLEAR-style evaluation
to verify the whole pipeline at desk scale.
"""

from .assignment import Assignment, CostMatrix, brute_force_solve, gate, solve
from .errors import (
    AlignmentError,
    DimensionError,
    InternalError,
    NumericalError,
    OrderError,
    ParamError,
    ParseError,
    SizeError,
    SpecError,
    TrackingError,
    UserError,
)
from .kfilter import KalmanState, MotionModel, init_state, make_cv_model, predict, update
from .synth import GroundTruth, Metrics, ScenarioSpec, TargetPath, evaluate, generate
from .tracker import (
    Detection,
    FrameResult,
    RecordSource,
    Tracker,
    TrackerConfig,
    TrackRecord,
    TrackStatus,
    build_cost_matrix,
    group_by_frame,
    run,
)

__version__ = "0.1.0"

__all__ = [
    "Assignment",
    "CostMatrix",
    "brute_force_solve",
    "solve",
    "KalmanState",
    "MotionModel",
    "init_state",
    "make_cv_model",
    "predict",
    "update",
    "Detection",
    "FrameResult",
    "RecordSource",
    "Tracker",
    "TrackerConfig",
    "TrackRecord",
    "TrackStatus",
    "build_cost_matrix",
    "gate",
    "group_by_frame",
    "run",
    "GroundTruth",
    "Metrics",
    "ScenarioSpec",
    "TargetPath",
    "evaluate",
    "generate",
    "TrackingError",
    "UserError",
    "InternalError",
    "AlignmentError",
    "DimensionError",
    "NumericalError",
    "OrderError",
    "ParamError",
    "ParseError",
    "SizeError",
    "SpecError",
    "__version__",
]
