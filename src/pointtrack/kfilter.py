"""Constant-velocity Kalman filtering for planar point targets.

A state is one target's belief or a stack of them: `x` has shape (..., 4)
and `P` shape (..., 4, 4), and `predict` and `update` treat every leading
index as an independent target, so a single state is simply the stack with
no leading axis. A target's state is [px, py, vx, vy] (pixels and
pixels/frame); the measurement is the observed point position.
Time advances in whole frames (dt = 1), so the transition matrix moves each
position by its velocity and leaves the velocity unchanged, perturbed only
by process noise.

Numerical conventions, chosen for long-run stability:

* covariance updates use the Joseph form (I-KH) P (I-KH)' + K R K',
* every new covariance is explicitly symmetrized,
* the 2x2 innovation covariance is inverted in closed form,
* stacks are multiplied with `@` only, so each target's arithmetic is the
  same whether it is filtered alone or in a stack,
* every stacked `@` takes a C-contiguous right operand (`F.T`, `H.T` and the
  Joseph form's transposes are copied with `np.ascontiguousarray`): the
  product's bits are those of the transposed view, but numpy's loop over a
  stack is faster on a contiguous operand (`P @ H.T` on 50 targets: 4.2 us
  instead of 11.2 us, numpy 2.4 on a 2-vCPU Xeon).

A frame's filter work is a few dozen numpy calls on arrays of a few dozen
numbers, so their fixed cost is the cost: the identity is built once, at
import, and stacks are transposed with the `.swapaxes` method, not the
`np.swapaxes` wrapper function.

F, Q, H, R and `init_state`'s covariance treat x and y alike and apart, so
P keeps its x-y cross terms at exactly 0 and its x and y blocks equal, bit
for bit: S is s I with s = P[0, 0] + sigma_z^2, which the tracker's gate
radius reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ParamError, check_number

STATE_DIM = 4
MEAS_DIM = 2

# Largest accepted |coordinate| or |velocity| of a point, in pixels (per
# frame for velocities), and largest noise scale. It lies far beyond any
# image, and its square is finite, so squared distances between points and
# the noise covariances built from the scales stay finite.
COORD_LIMIT = 1e9

_IDENTITY = np.eye(STATE_DIM)
_IDENTITY.setflags(write=False)


@dataclass(frozen=True)
class MotionModel:
    """Linear dynamics and observation model shared by all targets.

    F advances the state one frame, H projects the state onto the measured
    position, Q and R are the process and measurement noise covariances.
    """

    F: np.ndarray
    Q: np.ndarray
    H: np.ndarray
    R: np.ndarray


@dataclass(frozen=True)
class KalmanState:
    """Gaussian belief over one target or a stack of them.

    Mean x = [px, py, vx, vy] with shape (..., 4) and covariance P with
    shape (..., 4, 4); row i of a stack is one target.
    """

    x: np.ndarray
    P: np.ndarray


def make_cv_model(sigma_a: float = 1.0, sigma_z: float = 2.0) -> MotionModel:
    """Build the constant-velocity model with dt = 1 frame.

    Process noise follows the discrete white-noise acceleration form: per
    axis, Q = sigma_a^2 * g g' with g = [dt^2/2, dt]', coupling position and
    velocity of the same axis only. Measurement noise is isotropic,
    R = sigma_z^2 * I.

    Args:
        sigma_a: acceleration noise scale, pixels/frame^2.
        sigma_z: measurement noise scale, pixels.

    Raises:
        ParamError: on a sigma_a or sigma_z that is not a real number in
            (0, COORD_LIMIT] (`errors.check_number`). A larger scale can
            square to inf: Q's blocks would be inf, and R's off-diagonal
            entries inf times 0, NaN.
    """
    check_number(ParamError, "sigma_a", sigma_a, 0, COORD_LIMIT, above=True)
    check_number(ParamError, "sigma_z", sigma_z, 0, COORD_LIMIT, above=True)

    dt = 1.0
    F = np.array(
        [
            [1.0, 0.0, dt, 0.0],
            [0.0, 1.0, 0.0, dt],
            [0.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
        ]
    )
    H = np.array(
        [
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 1.0, 0.0, 0.0],
        ]
    )
    g = np.array([dt * dt / 2.0, dt])
    q_block = (sigma_a * sigma_a) * np.outer(g, g)
    Q = np.zeros((STATE_DIM, STATE_DIM))
    for pos_i, vel_i in ((0, 2), (1, 3)):
        Q[np.ix_([pos_i, vel_i], [pos_i, vel_i])] = q_block
    R = (sigma_z * sigma_z) * np.eye(MEAS_DIM)
    return MotionModel(F=F, Q=Q, H=H, R=R)


def init_state(x: float, y: float, p0_pos: float = 10.0, p0_vel: float = 100.0) -> KalmanState:
    """Belief for a newly detected target: measured position, zero velocity.

    Velocity is unobserved at birth, hence the large default velocity
    variance relative to the position variance.

    Raises:
        ParamError: on an initial variance that is not a finite and
            positive real number (`errors.check_number`).
    """
    check_number(ParamError, "p0_pos", p0_pos, 0, above=True)
    check_number(ParamError, "p0_vel", p0_vel, 0, above=True)
    mean = np.array([float(x), float(y), 0.0, 0.0])
    cov = np.zeros((STATE_DIM, STATE_DIM))
    cov.flat[:: STATE_DIM + 1] = (p0_pos, p0_pos, p0_vel, p0_vel)
    return KalmanState(x=mean, P=cov)


def _symmetrize(P: np.ndarray) -> np.ndarray:
    return (P + P.swapaxes(-1, -2)) / 2.0


def predict(state: KalmanState, model: MotionModel) -> KalmanState:
    """Advance the belief one frame: x' = F x, P' = F P F' + Q."""
    F = model.F
    F_T = np.ascontiguousarray(F.T)
    x = state.x @ F_T
    P = _symmetrize(F @ state.P @ F_T + model.Q)
    return KalmanState(x=x, P=P)


def _invert_2x2(S: np.ndarray) -> np.ndarray:
    a, b = S[..., 0, 0], S[..., 0, 1]
    c, d = S[..., 1, 0], S[..., 1, 1]
    det = a * d - b * c
    # A NaN min fails `>=`, an infinite max fails `<`; an empty stack gives
    # +inf and 0, which pass both.
    magnitude = np.abs(det)
    if not (magnitude.min(initial=math.inf) >= 1e-12 and magnitude.max(initial=0.0) < math.inf):
        raise NumericalError(
            "innovation covariance is singular; check the measurement noise R"
        )
    # The adjugate [[d, -b], [-c, a]], written in place and divided by det.
    inverse = np.empty_like(S)
    inverse[..., 0, 0] = d
    inverse[..., 1, 1] = a
    np.negative(b, out=inverse[..., 0, 1])
    np.negative(c, out=inverse[..., 1, 0])
    inverse /= det[..., None, None]
    return inverse


def update(
    state: KalmanState, z: np.ndarray, model: MotionModel
) -> tuple[KalmanState, np.ndarray]:
    """Correct the belief with a position measurement, one per target.

    Computes the innovation y = z - H x, gain K = P H' S^-1 with
    S = H P H' + R, then the Joseph-form covariance update. `z` has shape
    (..., 2) matching the state's leading axes. Returns the corrected state
    and the innovation, shape (..., 2).

    Raises:
        NumericalError: when any target's S is singular beyond tolerance
            (R misconfigured).
    """
    x, P = state.x, state.P
    H, R = model.H, model.R
    z = np.asarray(z, dtype=float).reshape(x.shape[:-1] + (MEAS_DIM,))

    H_T = np.ascontiguousarray(H.T)
    innovation = z - x @ H_T
    S = H @ P @ H_T + R
    K = P @ H_T @ _invert_2x2(S)

    x_new = x + (K @ innovation[..., None])[..., 0]
    I_KH = _IDENTITY - K @ H
    P_new = _symmetrize(
        I_KH @ P @ np.ascontiguousarray(I_KH.swapaxes(-1, -2))
        + K @ R @ np.ascontiguousarray(K.swapaxes(-1, -2))
    )
    return KalmanState(x=x_new, P=P_new), innovation
