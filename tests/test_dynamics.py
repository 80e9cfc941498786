"""Trained-field evaluation, the adaptive integrator and grid export."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvfield.dataset import subsample_constraint_points
from cvfield.dynamics import (IntegratorSettings, RolloutBatch, TrainedField,
                              export_field_grid, max_contraction_eigenvalues, rollout)
from cvfield.errors import DataError, DimensionError, IntegrationError
from cvfield import features
from cvfield.kernels import KernelKind

LN_1000 = 6.907755278982137

# tight tolerances wherever a test pins a trajectory value; the defaults
# trade accuracy for speed and sit near 1e-2 absolute on long rollouts
TIGHT = dict(rel_tol=1e-8, abs_tol=1e-12)


class Linear:
    """Analytic linear field xdot = A x, duck-typed like a trained field.

    A x is computed row by row (products summed over the last axis), so a
    row's bits do not depend on how many rows share the call; a BLAS product
    `x @ A.T` does not have that property.
    """

    def __init__(self, A):
        self.A = np.asarray(A, dtype=float)

    def eval(self, x):
        return np.add.reduce(np.asarray(x, dtype=float)[..., None, :] * self.A, axis=-1)

    def jacobian(self, x):
        return np.broadcast_to(self.A, (len(x),) + self.A.shape)


class Riccati:
    # xdot = 1 + x^2 escapes to infinity at t = pi/2
    def eval(self, x):
        return 1.0 + np.asarray(x, dtype=float) ** 2


def test_trained_field_equilibrium(angle_model):
    field, report, _ = angle_model
    assert np.linalg.norm(field.eval(np.zeros((1, 2)))) <= 1e-8
    assert field.tau == 0.0
    assert report.max_constraint_violation <= 1e-5


def test_trained_field_zero_coefficients():
    fm = features.sample_feature_map(KernelKind("curl_free", 3.0), 40, 2, seed=0)
    proj = features.build_vanishing_projector(fm, np.zeros((1, 2)))
    f = TrainedField(fm, proj, np.zeros(40), np.zeros((1, 2)))
    assert np.linalg.norm(f.eval(np.array([[5.0, -3.0]]))) == 0.0


def test_trained_field_jacobian_symmetric_and_fd(angle_model):
    field, _, _ = angle_model
    rng = np.random.default_rng(0)
    h = 1e-6
    for _ in range(5):
        x = rng.normal(size=2) * 5
        J = field.jacobian(x[None])[0]
        np.testing.assert_allclose(J, J.T, atol=1e-10)
        Jfd = np.zeros((2, 2))
        for c in range(2):
            e = np.zeros(2)
            e[c] = h
            Jfd[:, c] = (field.eval((x + e)[None])[0] - field.eval((x - e)[None])[0]) / (2 * h)
        assert np.linalg.norm(J - Jfd) <= 1e-5 * max(1.0, np.linalg.norm(J))


def test_max_contraction_eigenvalue_known_values():
    assert max_contraction_eigenvalues(Linear([[-3.0, 1.0], [1.0, -3.0]]),
                                       np.zeros((1, 2)))[0] == pytest.approx(-2.0, abs=1e-12)
    assert max_contraction_eigenvalues(Linear(np.diag([-2.0, -1.0])),
                                       np.zeros((1, 2)))[0] == pytest.approx(-1.0, abs=1e-12)


def test_rollout_exponential_time_to_goal():
    f = Linear(-np.eye(2))
    ro = rollout(f, np.array([[1000.0, 0.0]]),
                 IntegratorSettings(goal_radius=1.0, horizon=10.0, **TIGHT)).results[0]
    assert ro.reached_goal
    assert abs(ro.time_to_goal - LN_1000) <= 1e-5
    assert np.linalg.norm(ro.states[-1]) <= 1.0 + 1e-9


def test_rollout_zero_field_times_out():
    f = Linear(np.zeros((2, 2)))
    x0 = np.array([4.0, 3.0])
    ro = rollout(f, x0[None], IntegratorSettings(goal_radius=1.0, horizon=5.0)).results[0]
    assert not ro.reached_goal
    assert ro.time_to_goal is None
    assert abs(ro.times[-1] - 5.0) <= 1e-9
    np.testing.assert_allclose(ro.states, np.broadcast_to(x0, ro.states.shape),
                               atol=1e-12)


def test_rollout_start_inside_goal_ball():
    f = Linear(-np.eye(2))
    ro = rollout(f, np.array([[0.1, 0.0]]), IntegratorSettings(goal_radius=1.0)).results[0]
    assert ro.reached_goal and ro.time_to_goal == 0.0
    assert ro.times.shape == (1,) and ro.times[0] == 0.0
    np.testing.assert_allclose(ro.states[0], [0.1, 0.0])


def test_rollout_result_consistency():
    A = np.array([[-1.0, -2.0], [2.0, -1.0]])
    f = Linear(A)
    ro = rollout(f, np.array([[3.0, -1.0]]),
                 IntegratorSettings(goal_radius=0.5, horizon=8.0, **TIGHT)).results[0]
    np.testing.assert_allclose(ro.states[0], [3.0, -1.0])
    assert ro.times[0] == 0.0
    assert np.all(np.diff(ro.times) > 0)
    # six fresh evaluations per accepted step (FSAL reuses the seventh)
    assert ro.n_field_evals >= 6 * (ro.times.size - 2)


def test_rollout_equilibrium_stays_put(angle_model):
    field, _, _ = angle_model
    ro = rollout(field, np.zeros((1, 2)),
                 IntegratorSettings(goal_radius=0.0, horizon=2.0)).results[0]
    assert np.abs(ro.states).max() <= 1e-8


def test_rollout_dense_output_grid():
    f = Linear(-np.eye(2))
    te = np.linspace(0.0, 3.0, 100)
    ro = rollout(f, np.array([[2.0, 0.0]]),
                 IntegratorSettings(goal_radius=0.0, horizon=3.0, **TIGHT),
                 t_eval=[te]).results[0]
    np.testing.assert_array_equal(ro.times, te)
    np.testing.assert_allclose(ro.states[:, 0], 2.0 * np.exp(-te), atol=1e-6)
    np.testing.assert_allclose(ro.states[:, 1], 0.0, atol=1e-12)


def test_rollout_dense_output_stops_at_goal():
    f = Linear(-np.eye(2))
    te = np.linspace(0.0, 3.0, 50)
    ro = rollout(f, np.array([[2.0, 0.0]]),
                 IntegratorSettings(goal_radius=1.0, horizon=3.0, **TIGHT),
                 t_eval=[te]).results[0]
    # samples past the crossing are dropped, the located crossing is final
    assert ro.reached_goal
    assert abs(ro.time_to_goal - np.log(2.0)) <= 1e-5
    assert ro.times[-1] == ro.time_to_goal
    assert np.all(ro.times[:-1] <= ro.time_to_goal)


def test_rollout_rejects_bad_t_eval():
    f = Linear(-np.eye(2))
    with pytest.raises(DataError):
        rollout(f, np.ones((1, 2)), IntegratorSettings(horizon=1.0),
                t_eval=[np.array([0.0, 0.5, 0.25])])
    with pytest.raises(DataError):
        rollout(f, np.ones((1, 2)), IntegratorSettings(horizon=1.0),
                t_eval=[np.array([0.0, 2.0])])


@pytest.mark.parametrize("horizon", [np.inf, np.nan, 0.0, -1.0, np.array([1.0, np.inf])])
def test_rollout_rejects_bad_horizons(horizon):
    with pytest.raises(DataError, match="horizon"):
        rollout(Linear(-np.eye(2)), np.ones((2, 2)), IntegratorSettings(horizon=horizon))


def test_rollout_per_start_shapes():
    f, starts = Linear(-np.eye(2)), np.ones((3, 2))
    with pytest.raises(DimensionError):
        rollout(f, starts[0])        # one start is a batch of one, (1, n)
    with pytest.raises(DimensionError):
        rollout(f, starts, IntegratorSettings(horizon=np.ones(2)))
    with pytest.raises(DimensionError):
        rollout(f, starts, t_eval=[np.zeros(1), np.zeros(1)])
    with pytest.raises(DimensionError):
        rollout(f, starts, t_eval=np.linspace(0.0, 1.0, 3))    # not one array per start
    # each start's samples must lie inside its own horizon
    with pytest.raises(DataError):
        rollout(f, starts, IntegratorSettings(horizon=np.array([1.0, 2.0, 1.0])),
                t_eval=[np.array([0.0, 1.0]), np.array([0.0, 2.0]), np.array([0.0, 2.0])])


def test_fixed_step_order():
    # halving the step must shrink the endpoint error by far more than 8x
    # for a fifth-order pair on a smooth problem; tolerances this loose
    # accept every step, so max_step sets the step after a short ramp-up
    A = np.array([[-1.0, -2.0], [2.0, -1.0]])
    f = Linear(A)
    x0 = np.array([1.0, 1.0])
    # e^A for A = -I + 2 [[0, -1], [1, 0]]: a decay times a rotation by 2 rad
    exact = np.exp(-1.0) * np.array([[np.cos(2.0), -np.sin(2.0)], [np.sin(2.0), np.cos(2.0)]]) @ x0

    def endpoint_error(h):
        ro = rollout(f, x0[None], IntegratorSettings(goal_radius=0.0, horizon=1.0, max_step=h,
                                                     rel_tol=1e6, abs_tol=1e6)).results[0]
        assert abs(ro.times[-1] - 1.0) <= 1e-9
        # one evaluation at the start and six per step: no step was rejected
        assert ro.n_field_evals == 1 + 6 * (len(ro.times) - 1)
        return np.linalg.norm(ro.states[-1] - exact)

    e1, e2, e3 = endpoint_error(0.1), endpoint_error(0.05), endpoint_error(0.025)
    assert e1 / e2 >= 8.0
    assert e2 / e3 >= 8.0


def test_step_underflow_raises_with_last_state():
    err = rollout(Riccati(), np.array([[0.0]]),
                  IntegratorSettings(goal_radius=0.0, horizon=10.0)).results[0]
    assert isinstance(err, IntegrationError)
    assert err.last_time is not None and abs(err.last_time - np.pi / 2) <= 0.1
    assert err.last_state is not None and err.last_state.size == 1


def test_export_grid_order_and_columns():
    f = Linear(-np.eye(2))
    cols, rows = export_field_grid(f, (0.0, 1.0, 0.0, 1.0), 2)
    assert cols == ["x1", "x2", "f1", "f2", "lambda_max"]
    # x2 outer, x1 fastest
    np.testing.assert_allclose(rows[:, :2],
                               [[0, 0], [1, 0], [0, 1], [1, 1]])
    np.testing.assert_allclose(rows[:, 2:4], -rows[:, :2], atol=1e-12)
    np.testing.assert_allclose(rows[:, 4], -1.0, atol=1e-12)


def test_export_grid_trained_field(angle_model):
    field, _, avg = angle_model
    res = 21
    cols, rows = export_field_grid(field, (-5.0, 5.0, -5.0, 5.0), res)
    assert cols == ["x1", "x2", "f1", "f2", "lambda_max", "V"]
    assert rows.shape == (res * res, 6)
    # the equilibrium row carries a numerically zero field
    mid = (res // 2) * res + res // 2
    np.testing.assert_allclose(rows[mid, :2], [0.0, 0.0], atol=1e-12)
    assert np.linalg.norm(rows[mid, 2:4]) <= 1e-8
    # lambda_max column agrees with direct evaluation
    for i in (0, mid, res * res - 1):
        assert abs(rows[i, 4] - max_contraction_eigenvalues(field, rows[i:i + 1, :2])[0]) <= 1e-10
    # numerical gradient of the exported potential reproduces -f
    h = 10.0 / (res - 1)
    V = rows[:, 5].reshape(res, res)
    f1 = rows[:, 2].reshape(res, res)
    f2 = rows[:, 3].reshape(res, res)
    dV2, dV1 = np.gradient(V, h)
    scale = max(np.abs(rows[:, 2:4]).max(), 1.0)
    assert np.abs(dV1[1:-1, 1:-1] + f1[1:-1, 1:-1]).max() <= 0.02 * scale
    assert np.abs(dV2[1:-1, 1:-1] + f2[1:-1, 1:-1]).max() <= 0.02 * scale


def test_export_grid_separable_has_no_potential():
    fm = features.sample_feature_map(KernelKind("gaussian_separable", 3.0), 30, 2, seed=1)
    proj = features.build_vanishing_projector(fm, np.zeros((1, 2)))
    f = TrainedField(fm, proj, np.zeros(60), np.zeros((1, 2)))
    cols, rows = export_field_grid(f, (-1.0, 1.0, -1.0, 1.0), 3)
    assert "V" not in cols
    assert rows.shape == (9, 5)


def test_export_grid_validation():
    f = Linear(-np.eye(2))
    with pytest.raises(DimensionError):
        export_field_grid(f, (0.0, 1.0, 0.0), 4)
    with pytest.raises(DataError):
        export_field_grid(f, (1.0, 0.0, 0.0, 1.0), 4)
    with pytest.raises(DataError):
        export_field_grid(f, (0.0, 1.0, 0.0, 1.0), 1)
    with pytest.raises(DimensionError):
        export_field_grid(Linear(np.zeros((3, 2))), (0.0, 1.0, 0.0, 1.0), 4)


def test_contraction_tube(decay_model):
    """Inside the region where the contraction certificate holds, two
    nearby rollouts can only shrink toward each other."""
    field, report, avg, train, _ = decay_model
    assert field.tau == pytest.approx(0.3)
    cp = subsample_constraint_points(avg, 60)
    lams = max_contraction_eigenvalues(field, cp)
    assert lams.max() <= -0.3 + 1e-5

    tgrid = np.linspace(0.0, 6.0, 301)
    st = IntegratorSettings(goal_radius=0.0, horizon=6.0, rel_tol=1e-8, abs_tol=1e-10)
    x0 = avg.positions[0]
    ra, rb = rollout(field, np.stack([x0, x0 + np.array([0.0, 1.0])]), st,
                     t_eval=[tgrid, tgrid]).results
    sep = np.linalg.norm(ra.states - rb.states, axis=1)
    inside = ((max_contraction_eigenvalues(field, ra.states) <= -0.3)
              & (max_contraction_eigenvalues(field, rb.states) <= -0.3))
    assert inside.mean() > 0.9
    d = np.diff(sep)
    assert d[inside[:-1]].max() <= 1e-12
    assert sep[-1] < 0.1 * sep[0]


class Constant:
    """xdot = v everywhere: straight-line motion at constant speed."""

    def __init__(self, v):
        self.v = np.asarray(v, dtype=float)

    def eval(self, x):
        return np.broadcast_to(self.v, np.shape(x)).copy()


def _assert_same_rollout(a, b):
    assert np.array_equal(a.times, b.times)
    assert np.array_equal(a.states, b.states)
    assert a.reached_goal == b.reached_goal
    assert a.time_to_goal == b.time_to_goal
    assert a.n_field_evals == b.n_field_evals


def _assert_batch_matches_singles(f, starts, settings, t_eval=None):
    """Each start of a batch against its rollout alone, a batch of one with
    that start's own horizon and t_eval (t_eval: None or a list per start)."""
    batch = rollout(f, starts, settings, t_eval=t_eval)
    assert isinstance(batch, RolloutBatch)
    assert len(batch.results) == starts.shape[0]
    horizons = np.broadcast_to(settings.horizon, (starts.shape[0],))
    for i, got in enumerate(batch.results):
        own = replace(settings, horizon=float(horizons[i]))
        te = None if t_eval is None else t_eval[i:i + 1]
        _assert_same_rollout(got, rollout(f, starts[i:i + 1], own, t_eval=te).results[0])
    assert batch.n_field_evals == sum(r.n_field_evals for r in batch.results)


@st.composite
def _linear_batches(draw):
    n = draw(st.integers(1, 3))
    K = draw(st.integers(1, 6))
    cells = st.floats(-3.0, 3.0, allow_nan=False)
    A = np.array(draw(st.lists(cells, min_size=n * n, max_size=n * n))).reshape(n, n)
    A -= draw(st.floats(0.0, 3.0)) * np.eye(n)
    starts = np.array(draw(st.lists(st.floats(-20.0, 20.0, allow_nan=False),
                                    min_size=K * n, max_size=K * n))).reshape(K, n)
    radius = draw(st.sampled_from([0.0, 0.5, 2.0]))
    horizons = st.floats(0.5, 6.0)
    if draw(st.booleans()):
        horizon = draw(horizons)
    else:
        horizon = np.array(draw(st.lists(horizons, min_size=K, max_size=K)))
    H = np.broadcast_to(horizon, (K,))
    t_eval = draw(st.sampled_from([
        None,
        [np.linspace(0.0, H.min(), 17)] * K,
        [np.linspace(0.0, h, 5 + 3 * i) for i, h in enumerate(H)]]))
    return A, starts, IntegratorSettings(goal_radius=radius, horizon=horizon), t_eval


@settings(max_examples=60, deadline=None)
@given(_linear_batches())
def test_batch_rollout_equals_single_rollouts_linear(case):
    A, starts, s, t_eval = case
    _assert_batch_matches_singles(Linear(A), starts, s, t_eval)


@settings(max_examples=15, deadline=None)
@given(st.lists(st.tuples(st.floats(-35.0, 35.0), st.floats(-10.0, 40.0)),
                min_size=1, max_size=5))
def test_batch_rollout_equals_single_rollouts_trained(angle_model, points):
    field, _, _ = angle_model
    _assert_batch_matches_singles(field, np.array(points), IntegratorSettings(horizon=20.0))


def test_batch_rollout_keeps_going_past_a_failed_start():
    # xdot = 1 + x^2 escapes at t = pi/2 - atan(x0): only the start at 0
    # escapes before the horizon
    starts = np.array([[-10.0], [0.0], [-5.0]])
    s = IntegratorSettings(goal_radius=0.0, horizon=2.0, **TIGHT)
    batch = rollout(Riccati(), starts, s)
    failed = batch.results[1]
    assert isinstance(failed, IntegrationError)
    assert abs(failed.last_time - np.pi / 2) <= 0.1
    for i in (0, 2):
        ro = batch.results[i]
        assert abs(ro.times[-1] - 2.0) <= 1e-9
        exact = np.tan(2.0 + np.arctan(starts[i, 0]))
        assert abs(ro.states[-1, 0] - exact) <= 1e-6 * max(1.0, abs(exact))
        _assert_same_rollout(ro, rollout(Riccati(), starts[i:i + 1], s).results[0])
    alone = rollout(Riccati(), starts[1:2], s).results[0]
    assert isinstance(alone, IntegrationError)
    assert alone.last_time == failed.last_time
    assert np.array_equal(alone.last_state, failed.last_state)
    assert batch.n_field_evals > batch.results[0].n_field_evals + batch.results[2].n_field_evals


class NanBelowTwo:
    """xdot = -x, but nan wherever x1 < 2."""

    def eval(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x[:, :1] < 2.0, np.nan, -x)


def test_rollout_non_finite_field_fails_only_that_start():
    # from (5, 0) the flow reaches x1 = 2 at t = ln 2.5; from (30, 0) it
    # stays above x1 = 4 until the horizon
    s = IntegratorSettings(goal_radius=0.5, horizon=2.0)
    with np.errstate(invalid="ignore"):
        alone = rollout(NanBelowTwo(), np.array([[5.0, 0.0]]), s).results[0]
        batch = rollout(NanBelowTwo(), np.array([[5.0, 0.0], [30.0, 0.0]]), s)
    assert isinstance(alone, IntegrationError)
    assert np.all(np.isfinite(alone.last_state)) and alone.last_state[0] >= 2.0
    assert isinstance(batch.results[0], IntegrationError)
    ro = batch.results[1]
    assert abs(ro.times[-1] - 2.0) <= 1e-9 and np.all(np.isfinite(ro.states))


def test_rollout_catches_goal_crossing_inside_a_step():
    # the straight path from (-5, 0) passes through the goal ball between
    # two step ends; entry is at t = 4.5
    ro = rollout(Constant([1.0, 0.0]), np.array([[-5.0, 0.0]]),
                 IntegratorSettings(goal_radius=0.5, horizon=10.0)).results[0]
    assert ro.reached_goal
    assert abs(ro.time_to_goal - 4.5) <= 2e-6
    assert np.linalg.norm(ro.states[-1]) <= 0.5 + 1e-9


@settings(max_examples=80, deadline=None)
@given(st.floats(0.5, 60.0), st.floats(-0.9, 0.9), st.floats(0.1, 3.0),
       st.floats(0.2, 5.0), st.floats(0.0, 2 * np.pi))
def test_goal_crossing_on_straight_paths(gap, offset, radius, speed, heading):
    # x(t) = x0 + v t enters the ball ||x|| <= r at the smaller root of
    # ||x0 + v t|| = r; the path is rotated by `heading` so every direction
    # of approach is tried
    dist = radius + gap
    c, s_ = np.cos(heading), np.sin(heading)
    R = np.array([[c, -s_], [s_, c]])
    x0 = R @ np.array([-dist, offset * radius])
    v = R @ np.array([speed, 0.0])
    t_enter = (dist - radius * np.sqrt(1.0 - offset ** 2)) / speed
    ro = rollout(Constant(v), x0[None], IntegratorSettings(
        goal_radius=radius, horizon=2.0 * dist / speed + 1.0)).results[0]
    assert ro.reached_goal
    assert abs(ro.time_to_goal - t_enter) <= 2e-6
    assert np.linalg.norm(ro.states[-1]) <= radius * (1.0 + 1e-9)


@settings(max_examples=40, deadline=None)
@given(st.floats(2.0, 100.0), st.floats(0.0, 2 * np.pi), st.floats(0.2, 2.0),
       st.floats(-3.0, 3.0), st.floats(0.1, 2.0))
def test_goal_crossing_on_spiral_fields(r0, angle, rate, spin, radius):
    # xdot = [[-a, -w], [w, -a]] x shrinks ||x|| as r0 exp(-a t), so the
    # goal ball is entered at t = ln(r0 / radius) / a
    A = np.array([[-rate, -spin], [spin, -rate]])
    x0 = r0 * np.array([np.cos(angle), np.sin(angle)])
    t_enter = np.log(r0 / radius) / rate
    ro = rollout(Linear(A), x0[None],
                 IntegratorSettings(goal_radius=radius, horizon=t_enter + 1.0, **TIGHT)).results[0]
    assert ro.reached_goal
    assert abs(ro.time_to_goal - t_enter) <= 1e-5
