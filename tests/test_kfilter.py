"""Kalman filter tests: model construction, predict/update, numerics."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from pointtrack.errors import NumericalError, ParamError
from pointtrack.kfilter import (
    KalmanState,
    MotionModel,
    init_state,
    make_cv_model,
    predict,
    update,
)


def random_state(rng, scale=50.0):
    """A valid random belief: finite mean, symmetric PSD covariance."""
    x = rng.normal(0.0, scale, size=4)
    root = rng.normal(0.0, 3.0, size=(4, 4))
    P = root @ root.T + 1e-6 * np.eye(4)
    return KalmanState(x=x, P=P)


signed_zeros = st.sampled_from([0.0, -0.0])


@st.composite
def stacks(draw):
    """N = 1..8 beliefs with general SPD covariances, one measurement each.

    Entries of x and off-diagonal pairs of P are often +-0.0 (the tracker's
    covariances hold exact zero cross terms), so bitwise comparisons see
    both signs of zero. P stays symmetric and its diagonal positive.
    """
    n = draw(st.integers(1, 8))
    x = draw(arrays(float, (n, 4), elements=st.one_of(signed_zeros, st.floats(-1e4, 1e4))))
    root = draw(arrays(float, (n, 4, 4), elements=st.floats(-10.0, 10.0)))
    P = root @ np.swapaxes(root, -1, -2) + 1e-3 * np.eye(4)
    i, j = np.triu_indices(4, 1)
    zeroed = draw(arrays(bool, (n, len(i))))
    zeros = draw(arrays(float, (n, len(i)), elements=signed_zeros))
    P[:, i, j] = np.where(zeroed, zeros, P[:, i, j])
    P[:, j, i] = P[:, i, j]
    z = draw(arrays(float, (n, 2), elements=st.floats(-1e4, 1e4)))
    return KalmanState(x=x, P=P), z


sigmas = st.floats(1e-2, 1e2)


class TestModelConstruction:
    def test_transition_moves_position_by_velocity(self):
        model = make_cv_model()
        assert model.F[0].tolist() == [1.0, 0.0, 1.0, 0.0]
        assert model.F[1].tolist() == [0.0, 1.0, 0.0, 1.0]
        assert model.F[2].tolist() == [0.0, 0.0, 1.0, 0.0]

    def test_process_noise_block(self):
        model = make_cv_model(sigma_a=1.0)
        block = model.Q[np.ix_([0, 2], [0, 2])]
        assert block.tolist() == [[0.25, 0.5], [0.5, 1.0]]
        # axes are uncorrelated
        assert model.Q[0, 1] == 0.0 and model.Q[0, 3] == 0.0

    def test_measurement_noise_is_isotropic(self):
        model = make_cv_model(sigma_z=2.0)
        assert model.R.tolist() == [[4.0, 0.0], [0.0, 4.0]]

    def test_measurement_matrix_selects_positions(self):
        model = make_cv_model()
        assert model.H.tolist() == [[1, 0, 0, 0], [0, 1, 0, 0]]

    @pytest.mark.parametrize("kwargs", [{"sigma_a": 0.0}, {"sigma_a": -1.0}, {"sigma_z": 0.0}])
    def test_nonpositive_sigmas_rejected(self, kwargs):
        with pytest.raises(ParamError):
            make_cv_model(**kwargs)

    @pytest.mark.parametrize("name", ["sigma_a", "sigma_z"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_sigmas_rejected_by_name(self, name, value):
        with pytest.raises(ParamError, match=name):
            make_cv_model(**{name: value})

    def test_noise_matrices_symmetric_psd(self):
        model = make_cv_model(sigma_a=0.7, sigma_z=3.0)
        for M in (model.Q, model.R):
            assert np.allclose(M, M.T)
            assert np.linalg.eigvalsh(M).min() >= -1e-12


class TestInitState:
    def test_definition(self):
        state = init_state(10.0, 20.0, p0_pos=10.0, p0_vel=100.0)
        assert state.x.tolist() == [10.0, 20.0, 0.0, 0.0]
        assert np.array_equal(state.P, np.diag([10.0, 10.0, 100.0, 100.0]))

    def test_velocity_always_starts_at_zero(self):
        assert init_state(-3.5, 7.25).x[2:].tolist() == [0.0, 0.0]

    def test_initial_covariance_symmetric_psd(self):
        state = init_state(0.0, 0.0, p0_pos=1.0, p0_vel=2.0)
        assert np.array_equal(state.P, state.P.T)
        assert np.linalg.eigvalsh(state.P).min() > 0

    def test_nonpositive_variances_rejected(self):
        with pytest.raises(ParamError):
            init_state(0, 0, p0_pos=0.0)
        with pytest.raises(ParamError):
            init_state(0, 0, p0_vel=-1.0)

    @pytest.mark.parametrize("name", ["p0_pos", "p0_vel"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_variances_rejected_by_name(self, name, value):
        with pytest.raises(ParamError, match=name):
            init_state(0, 0, **{name: value})


class TestPredict:
    def test_zero_state_is_fixed_point_without_noise(self):
        model = make_cv_model()
        quiet = MotionModel(F=model.F, Q=np.zeros((4, 4)), H=model.H, R=model.R)
        state = KalmanState(x=np.zeros(4), P=np.eye(4))
        assert predict(state, quiet).x.tolist() == [0.0, 0.0, 0.0, 0.0]

    def test_position_advances_by_velocity(self):
        model = make_cv_model()
        state = KalmanState(x=np.array([2.0, 3.0, 1.0, -1.0]), P=np.eye(4))
        assert predict(state, model).x.tolist() == [3.0, 2.0, 1.0, -1.0]

    def test_covariance_propagation_identity(self):
        model = make_cv_model()
        quiet = MotionModel(F=model.F, Q=np.zeros((4, 4)), H=model.H, R=model.R)
        out = predict(KalmanState(x=np.zeros(4), P=np.eye(4)), quiet)
        expected = [
            [2.0, 0.0, 1.0, 0.0],
            [0.0, 2.0, 0.0, 1.0],
            [1.0, 0.0, 1.0, 0.0],
            [0.0, 1.0, 0.0, 1.0],
        ]
        assert out.P.tolist() == expected

    def test_input_not_modified(self):
        model = make_cv_model()
        state = KalmanState(x=np.arange(4.0), P=np.eye(4))
        predict(state, model)
        assert state.x.tolist() == [0.0, 1.0, 2.0, 3.0]
        assert np.array_equal(state.P, np.eye(4))


class TestUpdate:
    def test_measurement_at_prediction_changes_nothing(self):
        model = make_cv_model()
        state = KalmanState(x=np.array([4.0, 5.0, 1.0, 2.0]), P=np.eye(4))
        new, innovation = update(state, (4.0, 5.0), model)
        assert innovation.tolist() == [0.0, 0.0]
        assert np.allclose(new.x, state.x)

    def test_scalar_gain_half(self):
        # P = I and R = I decouple the axes with gain 1/(1+1) each.
        model = make_cv_model()
        unit_r = MotionModel(F=model.F, Q=model.Q, H=model.H, R=np.eye(2))
        state = KalmanState(x=np.zeros(4), P=np.eye(4))
        new, innovation = update(state, (2.0, 0.0), unit_r)
        assert np.allclose(new.x, [1.0, 0.0, 0.0, 0.0])
        assert new.P[0, 0] == pytest.approx(0.5)
        assert innovation.tolist() == [2.0, 0.0]

    def test_infinite_noise_ignores_measurement(self):
        model = make_cv_model()
        deaf = MotionModel(F=model.F, Q=model.Q, H=model.H, R=1e12 * np.eye(2))
        state = KalmanState(x=np.array([1.0, 2.0, 0.5, -0.5]), P=np.eye(4))
        new, _ = update(state, (100.0, -50.0), deaf)
        assert np.abs(new.x - state.x).max() < 1e-6

    def test_singular_innovation_covariance_raises(self):
        model = make_cv_model()
        broken = MotionModel(F=model.F, Q=model.Q, H=model.H, R=np.zeros((2, 2)))
        state = KalmanState(x=np.zeros(4), P=np.zeros((4, 4)))
        with pytest.raises(NumericalError):
            update(state, (1.0, 1.0), broken)

    def test_velocity_untouched_with_diagonal_covariance(self):
        # H selects positions; with no position-velocity correlation the
        # gain's velocity rows are zero, so one update cannot move vx, vy.
        model = make_cv_model()
        state = KalmanState(x=np.array([0.0, 0.0, 3.0, -2.0]), P=np.diag([5.0, 5.0, 9.0, 9.0]))
        new, _ = update(state, (10.0, 10.0), model)
        assert new.x[2] == 3.0 and new.x[3] == -2.0

    def test_joseph_form_matches_plain_form_when_well_conditioned(self):
        rng = np.random.default_rng(42)
        model = make_cv_model()
        for _ in range(50):
            state = random_state(rng)
            new, _ = update(state, rng.normal(0, 20, size=2), model)
            S = model.H @ state.P @ model.H.T + model.R
            K = state.P @ model.H.T @ np.linalg.inv(S)
            plain = (np.eye(4) - K @ model.H) @ state.P
            assert np.abs(new.P - plain).max() < 1e-8


class TestNumericalInvariants:
    def test_symmetry_and_psd_preserved_over_random_cycles(self):
        rng = np.random.default_rng(314)
        model = make_cv_model(sigma_a=0.8, sigma_z=1.5)
        for _ in range(300):
            state = random_state(rng)
            predicted = predict(state, model)
            updated, _ = update(predicted, rng.normal(0, 30, size=2), model)
            for P in (predicted.P, updated.P):
                assert np.abs(P - P.T).max() < 1e-9
                assert np.linalg.eigvalsh(P).min() >= -1e-9

    def test_update_contracts_covariance(self):
        rng = np.random.default_rng(2718)
        model = make_cv_model()
        for _ in range(300):
            state = random_state(rng)
            predicted = predict(state, model)
            updated, _ = update(predicted, rng.normal(0, 30, size=2), model)
            gap = np.linalg.eigvalsh(predicted.P - updated.P).min()
            assert gap >= -1e-9

    def test_noiseless_constant_velocity_convergence(self):
        # Filter tuned for a noiseless feed: tiny noise scales make the
        # update nearly deadbeat, so the prediction locks on fast.
        model = make_cv_model(sigma_a=1e-3, sigma_z=1e-2)
        truth = np.array([5.0, 7.0, 1.5, -0.7])
        state = init_state(truth[0], truth[1])
        errors = []
        innovations = []
        for _ in range(10):
            state = predict(state, model)
            truth = model.F @ truth
            errors.append(float(np.hypot(state.x[0] - truth[0], state.x[1] - truth[1])))
            state, innovation = update(state, truth[:2], model)
            innovations.append(float(np.linalg.norm(innovation)))
        assert errors[-1] < 1e-6
        for earlier, later in zip(innovations[2:], innovations[3:]):
            assert later <= earlier


class TestStackedStates:
    """A stack of beliefs is filtered exactly as its rows would be one by one."""

    @given(stack=stacks(), sigma_a=sigmas, sigma_z=sigmas)
    def test_stack_equals_single_state_calls(self, stack, sigma_a, sigma_z):
        state, z = stack
        model = make_cv_model(sigma_a, sigma_z)
        predicted = predict(state, model)
        updated, innovation = update(state, z, model)
        assert innovation.shape == z.shape
        for i in range(len(z)):
            one = KalmanState(x=state.x[i], P=state.P[i])
            alone = predict(one, model)
            assert predicted.x[i].tobytes() == alone.x.tobytes()
            assert predicted.P[i].tobytes() == alone.P.tobytes()
            alone, alone_innovation = update(one, z[i], model)
            assert updated.x[i].tobytes() == alone.x.tobytes()
            assert updated.P[i].tobytes() == alone.P.tobytes()
            assert innovation[i].tobytes() == alone_innovation.tobytes()

    @given(stack=stacks(), data=st.data(), bad=st.sampled_from([0.0, np.nan]))
    def test_one_singular_innovation_covariance_fails_the_stack(self, stack, data, bad):
        state, z = stack
        k = data.draw(st.integers(0, len(z) - 1))
        P = state.P.copy()
        P[k] = bad
        model = make_cv_model()
        noiseless = MotionModel(F=model.F, Q=model.Q, H=model.H, R=np.zeros((2, 2)))
        update(state, z, noiseless)  # the intact stack has no singular S
        with pytest.raises(NumericalError):
            update(KalmanState(x=state.x, P=P), z, noiseless)


def transposed_view_predict(state, model):
    """Reference `predict`: the same formula with F.T a strided view."""
    F = model.F
    P = F @ state.P @ F.T + model.Q
    return KalmanState(x=state.x @ F.T, P=(P + np.swapaxes(P, -1, -2)) / 2.0)


def transposed_view_update(state, z, model):
    """Reference `update`: the same formulas with every transpose a strided view."""
    x, P, H, R = state.x, state.P, model.H, model.R
    innovation = z - x @ H.T
    S = H @ P @ H.T + R
    a, b, c, d = S[..., 0, 0], S[..., 0, 1], S[..., 1, 0], S[..., 1, 1]
    adjugate = np.stack([np.stack([d, -b], axis=-1), np.stack([-c, a], axis=-1)], axis=-2)
    K = P @ H.T @ (adjugate / (a * d - b * c)[..., None, None])
    x_new = x + (K @ innovation[..., None])[..., 0]
    I_KH = np.eye(4) - K @ H
    P_new = I_KH @ P @ np.swapaxes(I_KH, -1, -2) + K @ R @ np.swapaxes(K, -1, -2)
    return KalmanState(x=x_new, P=(P_new + np.swapaxes(P_new, -1, -2)) / 2.0), innovation


def general_states(rng, n):
    """n beliefs (n=None: one, unstacked) with general SPD covariances."""
    lead = () if n is None else (n,)
    root = rng.normal(0.0, 3.0, size=lead + (4, 4))
    P = root @ np.swapaxes(root, -1, -2) + 1e-3 * np.eye(4)
    return KalmanState(x=rng.normal(0.0, 300.0, size=lead + (4,)), P=P)


def tracker_shaped_states(rng, n):
    """n isotropic beliefs, as the tracker holds: x-y cross terms +-0.0."""
    lead = () if n is None else (n,)
    pos = rng.uniform(1e-3, 1e3, size=lead)
    vel = rng.uniform(1e-3, 1e3, size=lead)
    cov = rng.uniform(-0.9, 0.9, size=lead) * np.sqrt(pos * vel)
    P = np.where(rng.random(lead + (4, 4)) < 0.5, -0.0, 0.0)
    for axis in (0, 1):
        P[..., axis, axis], P[..., axis + 2, axis + 2] = pos, vel
        P[..., axis, axis + 2] = P[..., axis + 2, axis] = cov
    P[..., 1, 0], P[..., 3, 2] = P[..., 0, 1], P[..., 2, 3]
    P[..., 2, 1], P[..., 3, 0] = P[..., 1, 2], P[..., 0, 3]
    x = rng.normal(0.0, 300.0, size=lead + (4,))
    x[..., 2:] = np.where(rng.random(lead + (2,)) < 0.3, -0.0, x[..., 2:])
    return KalmanState(x=x, P=P)


class TestContiguousOperands:
    """The contiguous right operands of `@` leave every bit as it was."""

    @pytest.mark.parametrize("n", [None, 0, 1, 2, 3, 4, 5, 7, 13, 50, 120])
    @pytest.mark.parametrize("make", [general_states, tracker_shaped_states])
    def test_equals_transposed_view_formulas_bit_for_bit(self, n, make):
        rng = np.random.default_rng(n or 0)
        for _ in range(60):
            model = make_cv_model(*rng.uniform(1e-2, 1e2, size=2))
            state = make(rng, n)
            z = rng.normal(0.0, 300.0, size=state.x.shape[:-1] + (2,))
            updated, innovation = update(state, z, model)
            want_updated, want_innovation = transposed_view_update(state, z, model)
            for got, want in (
                (predict(state, model), transposed_view_predict(state, model)),
                (updated, want_updated),
            ):
                assert got.x.tobytes() == want.x.tobytes()
                assert got.P.tobytes() == want.P.tobytes()
            assert innovation.tobytes() == want_innovation.tobytes()


def assert_isotropic(P):
    """x and y are independent and alike: cross-axis terms 0, axis blocks equal."""
    assert (P[..., 0, 1] == 0).all() and (P[..., 1, 0] == 0).all()
    assert np.array_equal(P[..., 0, 0], P[..., 1, 1])
    x_axis, y_axis = [0, 2], [1, 3]
    assert (P[..., x_axis, :][..., y_axis] == 0).all()
    assert (P[..., y_axis, :][..., x_axis] == 0).all()
    assert np.array_equal(P[..., x_axis, :][..., x_axis], P[..., y_axis, :][..., y_axis])


class TestIsotropy:
    """P stays isotropic bit for bit, so each target's S is s I exactly.

    The tracker's chi-square gate radius sqrt(CHI2_GATE * s), with
    s = P[0, 0] + sigma_z^2, is exact only while this holds.
    """

    @settings(deadline=None)
    @given(
        data=st.data(),
        n=st.integers(1, 6),
        p0_pos=st.floats(1e-3, 1e6),
        p0_vel=st.floats(1e-3, 1e6),
        sigma_a=sigmas,
        sigma_z=sigmas,
        updates=st.lists(st.booleans(), max_size=12),
    )
    def test_predict_update_sequences_keep_covariance_isotropic(
        self, data, n, p0_pos, p0_vel, sigma_a, sigma_z, updates
    ):
        coords = st.floats(-1e4, 1e4)
        model = make_cv_model(sigma_a, sigma_z)
        starts = data.draw(arrays(float, (n, 2), elements=coords))
        singles = [init_state(x, y, p0_pos, p0_vel) for x, y in starts.tolist()]
        stack = KalmanState(
            x=np.stack([s.x for s in singles]), P=np.stack([s.P for s in singles])
        )
        for measured in updates:
            stack = predict(stack, model)
            singles = [predict(s, model) for s in singles]
            if measured:
                z = data.draw(arrays(float, (n, 2), elements=coords))
                stack, _ = update(stack, z, model)
                singles = [update(s, zi, model)[0] for s, zi in zip(singles, z)]
            assert_isotropic(stack.P)
            for single in singles:
                assert_isotropic(single.P)
