"""Problem assembly and the interior-point solver.

The `test_admm_*` tests solve the problems of the former ADMM solver's tests
with `interior_point_solve`, taking the settings from the tests' original
`admm` config blocks through `TrainConfig.from_dict`, so the retired `rho`
and `adapt_rho` keys ride along and must change nothing.
"""

import numpy as np
import pytest

from cvfield import features
from cvfield.cli import TrainConfig
from cvfield.errors import DimensionError
from cvfield.kernels import KernelKind
from cvfield.solver import (CONTRACTION_MARGIN, ADMMSettings, ConstrainedLSQProblem,
                            assemble_problem, interior_point_solve)

CF = KernelKind("curl_free", 1.0)


def _scalar_problem(target=2.0, lam=0.01, tau=0.5):
    # minimize (theta - target)^2 + lam theta^2 subject to theta <= -tau;
    # the data pull is positive so the constraint is active at -tau
    return ConstrainedLSQProblem(
        design=np.array([[1.0]]),
        targets=np.array([target]),
        lam=lam,
        constraint_ops=np.ones((1, 1, 1, 1)),
        tau=np.array([tau]),
    )


def test_problem_validation():
    with pytest.raises(ValueError):
        ConstrainedLSQProblem(np.eye(2), np.zeros(2), 0.0, np.empty((0, 2, 2, 2)), np.zeros(0))
    with pytest.raises(DimensionError):
        ConstrainedLSQProblem(np.eye(2), np.zeros(3), 0.1, np.empty((0, 2, 2, 2)), np.zeros(0))


def test_assemble_problem_shapes_and_design():
    rng = np.random.default_rng(3)
    fm = features.sample_feature_map(CF, 30, 2, seed=0)
    proj = features.build_vanishing_projector(fm, np.zeros((1, 2)))
    X = rng.normal(size=(12, 2))
    Xdot = rng.normal(size=(12, 2))
    cp = rng.normal(size=(5, 2))
    prob = assemble_problem(fm, proj, (X, Xdot), cp, 0.01, 0.3)
    p = prob.design.shape[1]
    assert prob.design.shape == (24, p)
    assert prob.constraint_ops.shape == (5, p, 2, 2)
    np.testing.assert_allclose(prob.tau, 0.3)
    np.testing.assert_allclose(prob.constraint_ops,
                               prob.constraint_ops.transpose(0, 1, 3, 2),
                               atol=1e-12)
    # design rows evaluate the projected field
    theta = rng.normal(size=p)
    np.testing.assert_allclose(prob.design @ theta,
                               features.field_values(fm, proj.L @ theta, X).ravel(),
                               atol=1e-10)


def _zoom_oracle(prob, start, half, rounds=45, pts=7):
    """Feasible grid search that zooms on the incumbent; convexity makes
    the local refinement global."""
    p = start.size
    tau = prob.tau
    P = prob.constraint_ops.reshape(prob.constraint_ops.shape[0], p, -1)
    eye = np.eye(prob.constraint_ops.shape[2]).ravel()

    def objective(G):
        r = G @ prob.design.T - prob.targets
        return np.sum(r * r, axis=1) + prob.lam * np.sum(G * G, axis=1)

    def feasible(G):
        ok = np.ones(G.shape[0], dtype=bool)
        for i in range(P.shape[0]):
            C = (G @ P[i]).reshape(G.shape[0], 2, 2) + tau[i] * eye.reshape(2, 2)
            ok &= np.linalg.eigvalsh(C)[:, -1] <= 1e-9
        return ok

    center = start.copy()
    best_val, best = np.inf, center
    for _ in range(rounds):
        axes = [np.linspace(c - half, c + half, pts) for c in center]
        G = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, p)
        vals = objective(G)
        vals[~feasible(G)] = np.inf
        k = int(np.argmin(vals))
        if vals[k] < best_val:
            best_val, best = vals[k], G[k]
        center = best
        half *= 0.6
    return best, best_val


def _random_lmi_problem(rng, p, m, rows=12, tau=0.2):
    # criterion 06's random problems: random symmetric operators with one
    # coordinate anchored to -I so the strictly feasible cone is nonempty
    A = rng.normal(size=(rows, p))
    b = rng.normal(size=rows) * 2
    ops = rng.normal(size=(m, p, 2, 2))
    ops = 0.5 * (ops + ops.transpose(0, 1, 3, 2))
    ops[:, 0] = -np.eye(2)
    return ConstrainedLSQProblem(A, b, 0.1, ops, np.full(m, tau))


def test_ipm_unconstrained_equals_ridge():
    rng = np.random.default_rng(4)
    A = rng.normal(size=(20, 6))
    b = rng.normal(size=20)
    lam = 0.1
    prob = ConstrainedLSQProblem(A, b, lam, np.empty((0, 6, 2, 2)), np.zeros(0))
    rep = interior_point_solve(prob, ADMMSettings())
    ref = np.linalg.solve(A.T @ A + lam * np.eye(6), A.T @ b)
    np.testing.assert_allclose(rep.theta, ref, atol=1e-10)
    assert rep.converged and rep.iters == 0
    assert rep.max_constraint_violation == float("-inf")
    assert rep.primal_residual == 0.0 and rep.dual_residual == 0.0


def test_ipm_scalar_clamp():
    prob = _scalar_problem(target=2.0, lam=0.01, tau=0.5)
    rep = interior_point_solve(prob, ADMMSettings(eps_abs=1e-10, eps_rel=1e-10))
    assert rep.converged and rep.stop_reason == "converged"
    assert abs(rep.theta[0] + 0.5) <= 1e-5
    # strictly feasible: the iterate never leaves the cone's interior
    assert rep.max_constraint_violation < 0.0
    assert rep.primal_residual == 0.0
    # the certified gap bounds the distance to the optimum, which sits at the
    # margin below the clamp
    t_star = -0.5 - CONTRACTION_MARGIN * 1.5
    f_star = (t_star - 2.0) ** 2 + 0.01 * t_star**2
    assert 0.0 <= rep.objective - f_star <= rep.dual_residual + 1e-12


def test_ipm_slack_mode_closed_form():
    # soft version of the scalar clamp: minimize (t-2)^2 + 0.01 t^2 + w s^2
    # with t + 0.5 <= s.  Eliminating the active constraint gives the
    # stationary point of (t-2)^2 + 0.01 t^2 + w (t+0.5)^2.
    w = 10.0
    prob = _scalar_problem(target=2.0, lam=0.01, tau=0.5)
    rep = interior_point_solve(prob, ADMMSettings(eps_abs=1e-9, eps_rel=1e-9,
                                                  slack_weight=w))
    t_star = (2 * 2.0) / (2 + 0.02 + 2 * w) - (2 * w * 0.5) / (2 + 0.02 + 2 * w)
    assert rep.converged
    assert abs(rep.theta[0] - t_star) <= 1e-5
    assert rep.slacks is not None
    assert abs(rep.slacks[0] - (t_star + 0.5)) <= 1e-5


def test_ipm_flags_step_cap():
    prob = _scalar_problem()
    rep = interior_point_solve(prob, ADMMSettings(max_iters=2))
    assert not rep.converged
    assert rep.stop_reason == "max_iters"
    assert rep.iters == 2
    assert np.isfinite(rep.primal_residual) and np.isfinite(rep.dual_residual)


def test_ipm_stalls_on_unreachable_tolerance():
    # a zero gap tolerance cannot be met in floating point: the run must stop
    # on its own long before the step cap, with finite residuals
    prob = _scalar_problem()
    rep = interior_point_solve(prob, ADMMSettings(eps_abs=0.0, eps_rel=0.0, max_iters=4000))
    assert not rep.converged
    assert rep.stop_reason == "stalled"
    assert rep.iters < 100
    assert abs(rep.theta[0] + 0.5) <= 1e-5
    assert np.isfinite(rep.dual_residual)


def test_ipm_phase1_reports_infeasible_tau():
    # C(theta) = 0 whatever theta is, so 0 <= -tau cannot hold for tau > 0
    prob = _scalar_problem(tau=0.5)
    prob.constraint_ops = np.zeros((1, 1, 1, 1))
    rep = interior_point_solve(prob, ADMMSettings())
    assert not rep.converged
    assert rep.stop_reason == "infeasible"
    assert abs(rep.primal_residual - 0.5) <= 1e-5
    # the same rate is met once the constraint is softened
    soft = interior_point_solve(prob, ADMMSettings(slack_weight=1.0))
    assert soft.converged and soft.slacks[0] >= 0.5


def test_ipm_deterministic():
    rng = np.random.default_rng(5)
    prob = _random_lmi_problem(rng, p=4, m=3)
    r1 = interior_point_solve(prob, ADMMSettings(eps_abs=1e-9, eps_rel=1e-9))
    r2 = interior_point_solve(prob, ADMMSettings(eps_abs=1e-9, eps_rel=1e-9))
    assert r1.converged
    assert np.array_equal(r1.theta, r2.theta)
    assert r1.objective == r2.objective and r1.dual_residual == r2.dual_residual
    assert r1.iters == r2.iters


def test_ipm_matches_grid_search_oracle():
    # criterion 06's random problems and oracle settings
    rng = np.random.default_rng(3)
    for p, m, pts in ((4, 1, 7), (6, 2, 5)):
        prob = _random_lmi_problem(rng, p, m)
        rep = interior_point_solve(prob, ADMMSettings(eps_abs=1e-10, eps_rel=1e-10))
        assert rep.converged
        assert rep.max_constraint_violation < 0.0
        val = float(np.sum((prob.design @ rep.theta - prob.targets) ** 2)
                    + prob.lam * rep.theta @ rep.theta)
        half = 2.0 * np.linalg.norm(rep.theta) + 1.0
        _, oracle_val = _zoom_oracle(prob, np.zeros(p), half, rounds=50, pts=pts)
        assert abs(val - oracle_val) <= 1e-4 * max(1.0, oracle_val)


def _admm_block(**block):
    # the solver settings an "admm" config block loads to
    return TrainConfig.from_dict({"admm": block}).admm


def test_admm_unconstrained_equals_ridge():
    rng = np.random.default_rng(4)
    A = rng.normal(size=(20, 6))
    b = rng.normal(size=20)
    lam = 0.1
    prob = ConstrainedLSQProblem(A, b, lam, np.empty((0, 6, 2, 2)), np.zeros(0))
    rep = interior_point_solve(prob, _admm_block())
    ref = np.linalg.solve(A.T @ A + lam * np.eye(6), A.T @ b)
    np.testing.assert_allclose(rep.theta, ref, atol=1e-10)
    assert rep.converged and rep.max_constraint_violation == float("-inf")


def test_admm_scalar_clamp():
    prob = _scalar_problem(target=2.0, lam=0.01, tau=0.5)
    rep = interior_point_solve(prob, _admm_block(rho=5.0, eps_abs=1e-8, eps_rel=1e-8,
                                                 max_iters=20000))
    assert rep.converged
    assert abs(rep.theta[0] + 0.5) <= 1e-5
    assert rep.max_constraint_violation <= 1e-5


def test_admm_flags_nonconvergence():
    prob = _scalar_problem()
    rep = interior_point_solve(prob, _admm_block(rho=5.0, max_iters=3))
    assert not rep.converged
    assert rep.iters == 3


def test_admm_deterministic():
    rng = np.random.default_rng(5)
    A = rng.normal(size=(16, 4))
    b = rng.normal(size=16)
    ops = rng.normal(size=(2, 4, 2, 2))
    ops = 0.5 * (ops + ops.transpose(0, 1, 3, 2))
    prob = ConstrainedLSQProblem(A, b, 0.05, ops,
                                 np.full(2, 0.1))
    r1 = interior_point_solve(prob, _admm_block(rho=2.0, max_iters=300))
    r2 = interior_point_solve(prob, _admm_block(rho=2.0, max_iters=300))
    assert np.array_equal(r1.theta, r2.theta)
    assert r1.objective == r2.objective


def test_admm_slack_mode_closed_form():
    # the soft scalar clamp of test_ipm_slack_mode_closed_form
    w = 10.0
    prob = _scalar_problem(target=2.0, lam=0.01, tau=0.5)
    rep = interior_point_solve(prob, _admm_block(rho=5.0, eps_abs=1e-9, eps_rel=1e-9,
                                                 max_iters=50000, slack_weight=w))
    t_star = (2 * 2.0) / (2 + 0.02 + 2 * w) - (2 * w * 0.5) / (2 + 0.02 + 2 * w)
    assert rep.converged
    assert abs(rep.theta[0] - t_star) <= 1e-5
    assert rep.slacks is not None
    assert abs(rep.slacks[0] - (t_star + 0.5)) <= 1e-5


def test_admm_matches_grid_search_oracle():
    rng = np.random.default_rng(6)
    p = 4
    A = rng.normal(size=(10, p))
    b = rng.normal(size=10) * 2
    ops = rng.normal(size=(1, p, 2, 2))
    ops = 0.5 * (ops + ops.transpose(0, 1, 3, 2))
    # anchor one coordinate to -I so the strictly feasible cone is nonempty
    ops[0, 0] = -np.eye(2)
    prob = ConstrainedLSQProblem(A, b, 0.1, ops,
                                 np.array([0.2]))
    rep = interior_point_solve(prob, _admm_block(rho=2.0, eps_abs=1e-10, eps_rel=1e-10,
                                                 max_iters=200000, adapt_rho=True))
    assert rep.converged
    half = 2.0 * np.linalg.norm(rep.theta) + 1.0
    _, oracle_val = _zoom_oracle(prob, np.zeros(p), half)
    val = float(np.sum((A @ rep.theta - b) ** 2) + 0.1 * rep.theta @ rep.theta)
    # the solve must not be beaten by more than the grid resolution allows,
    # and must itself come within 1e-4 relative of the oracle value
    assert val <= oracle_val * (1 + 1e-4) + 1e-8
    assert abs(val - oracle_val) <= 1e-4 * max(1.0, oracle_val)
