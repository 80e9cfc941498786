"""Problem assembly and the interior-point solver.

The `test_config_block_*` tests load `admm` config blocks, retired keys
(`rho`, `adapt_rho`) included, through `TrainConfig.from_dict` and solve
with the settings they load to in `interior_point_solve`: the retired keys
must change nothing.
"""

import gc
import tracemalloc
import warnings
from collections import namedtuple
from pathlib import Path

import numpy as np
import pytest

from _exact import dense_projector
from _lsq import lsq_problem, zoom_oracle
from _synth import s_demos
from cvfield import TrainConfig, features, solver, train_field
from cvfield.dataset import resample_and_average, subsample_constraint_points
from cvfield.dynamics import TrainedField
from cvfield.errors import DimensionError
from cvfield.kernels import KernelKind
from cvfield.solver import (CONTRACTION_MARGIN, ConstrainedLSQProblem, SolverSettings,
                            assemble_problem, interior_point_solve)

CF = KernelKind("curl_free", 1.0)
GS = KernelKind("gaussian_separable", 1.0)


def _scalar_problem(target=2.0, lam=0.01, tau=0.5):
    # minimize (theta - target)^2 + lam theta^2 subject to theta <= -tau;
    # the data pull is positive so the constraint is active at -tau
    return lsq_problem(np.array([[1.0]]), np.array([target]), lam,
                       np.ones((1, 1, 1, 1)), np.array([tau]))


def test_problem_validation():
    with pytest.raises(ValueError):
        ConstrainedLSQProblem(np.eye(2), np.zeros(2), 1.0, 0.0, np.empty((0, 2, 2, 2)),
                              np.zeros(0))
    with pytest.raises(DimensionError):
        ConstrainedLSQProblem(np.eye(2), np.zeros(3), 1.0, 0.1, np.empty((0, 2, 2, 2)),
                              np.zeros(0))
    # no certificate holds for a negative or nan rate: with C(theta) =
    # theta diag(1, -1), tau = -1 is met by theta = 1, which phase I called
    # infeasible, and nan stalled with a nan violation
    ops = np.diag([1.0, -1.0])[None, :, :, None]
    for tau in (-1.0, np.nan):
        with pytest.raises(ValueError, match="^every tau must be nonnegative"):
            lsq_problem([[1.0]], [2.0], 0.01, ops, [tau])


def _close(got, want, rtol):
    # agreement relative to the largest entry of the reference
    assert np.max(np.abs(got - want)) <= rtol * np.max(np.abs(want))


@pytest.mark.parametrize("num_z", [0, 1, 3])
@pytest.mark.parametrize("kind", [CF, GS], ids=["CF", "GS"])
def test_assemble_problem_matches_explicit_design(kind, num_z):
    # the normal equations against those of the explicit design
    # A = feature_rows(fm, X) L, and the rank-r projector against the dense L
    rng = np.random.default_rng(3)
    fm = features.sample_feature_map(kind, 30, 2, seed=0)
    proj = features.build_vanishing_projector(fm, rng.normal(size=(num_z, 2)))
    X = rng.normal(size=(12, 2))
    Xdot = rng.normal(size=(12, 2))
    cp = rng.normal(size=(5, 2))
    prob = assemble_problem(fm, proj, (X, Xdot), cp, 0.01, 0.3)
    p = fm.feature_dim
    L = dense_projector(proj)
    A = features.feature_rows(fm, X) @ L
    b = Xdot.ravel()
    assert prob.gram.shape == (p, p) and prob.moment.shape == (p,)
    assert prob.constraint_ops.shape == (5, 2, 2, p)
    np.testing.assert_allclose(prob.tau, 0.3)
    _close(prob.gram, A.T @ A, 1e-12)
    _close(prob.moment, A.T @ b, 1e-12)
    assert abs(prob.btb - b @ b) <= 1e-12 * (b @ b)

    # the Jacobian basis of the raw map (projector I, no equilibria) times the dense L
    identity = features.build_vanishing_projector(fm, np.empty((0, 2)))
    raw = features.symmetrized_jacobian_basis(fm, identity, cp)
    _close(prob.constraint_ops, raw @ L, 1e-13)
    np.testing.assert_allclose(prob.constraint_ops,
                               prob.constraint_ops.transpose(0, 2, 1, 3), atol=1e-12)
    theta = rng.normal(size=p)
    field = TrainedField(fm, proj, theta, proj.Z)
    _close(field.eta, L @ theta, 1e-13)
    # the oracle's design rows evaluate the projected field
    np.testing.assert_allclose(A @ theta, field.eval(X).ravel(), atol=1e-10)


def _s_curve_inputs(s, kernel="curl_free"):
    # the benchmark's train-scurve inputs at s features: the tests/_synth.py
    # S-curve, curl-free, sigma = 20, m = 100; returns (fm, proj, pairs, cp)
    avg = resample_and_average(s_demos(num=4, samples=1000, seed=1))
    fm = features.sample_feature_map(KernelKind(kernel, 20.0), s, 2, seed=0)
    proj = features.build_vanishing_projector(fm, np.zeros((1, 2)))
    return fm, proj, (avg.positions, avg.velocities), subsample_constraint_points(avg, 100)


def test_report_objective_matches_the_direct_form():
    # the report's objective is the quadratic form of the normal equations;
    # its cancellation against b^T b must stay at rounding level (bench
    # settings: s = 200, lambda = 0.01, tau = 0)
    fm, proj, (X, Xdot), cp = _s_curve_inputs(200)
    prob = assemble_problem(fm, proj, (X, Xdot), cp, 0.01, 0.0)
    rep = interior_point_solve(prob, SolverSettings(eps_abs=1e-4, eps_rel=1e-9,
                                                    max_iters=250000))
    assert rep.converged
    A = features.feature_rows(fm, X) @ dense_projector(proj)
    b = Xdot.ravel()
    direct = float(np.sum((A @ rep.theta - b) ** 2) + prob.lam * rep.theta @ rep.theta)
    assert abs(rep.objective - direct) <= 1e-12 * prob.btb


def test_assembly_memory_stays_below_the_design():
    # N = 1000 points, s = 1000 features, m = 100 constraint points.  Every
    # (N, p) or (p, p) array is M = 7.63 MiB here.  The normal-equation path
    # peaks at 19.8 MiB (about 2.6 M: the profiles and their Gram, then the
    # Gram and the constraint operators' temporaries); building the design
    # feature_rows(fm, X) L instead peaks at 30.5 MiB (4.0 M).  The bound is
    # 3 M, 16% above the measured peak.
    fm, proj, pairs, cp = _s_curve_inputs(1000)
    assert pairs[0].shape[0] == fm.feature_dim == 1000
    M = pairs[0].shape[0] * fm.feature_dim * 8
    tracemalloc.start()
    try:
        assemble_problem(fm, proj, pairs, cp, 0.01, 0.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * M, f"assembly peak {peak / 2**20:.1f} MiB > {3 * M / 2**20:.1f} MiB"


def _random_lmi_problem(rng, p, m, rows=12, tau=0.2, k=2):
    # criterion 06's random problems: random symmetric k x k operators with one
    # coordinate anchored to -I so the strictly feasible cone is nonempty;
    # returns (A, b, problem).  The draws fill (m, p, k, k), as criterion 06's
    # do, and are moved to the operators' (m, k, k, p)
    A = rng.normal(size=(rows, p))
    b = rng.normal(size=rows) * 2
    ops = rng.normal(size=(m, p, k, k)).transpose(0, 2, 3, 1)
    ops = 0.5 * (ops + ops.transpose(0, 2, 1, 3))
    ops[..., 0] = -np.eye(k)
    return A, b, lsq_problem(A, b, 0.1, ops, np.full(m, tau))


def test_ipm_unconstrained_equals_ridge():
    rng = np.random.default_rng(4)
    A = rng.normal(size=(20, 6))
    b = rng.normal(size=20)
    lam = 0.1
    prob = lsq_problem(A, b, lam, np.empty((0, 2, 2, 6)), np.zeros(0))
    rep = interior_point_solve(prob, SolverSettings())
    ref = np.linalg.solve(A.T @ A + lam * np.eye(6), A.T @ b)
    np.testing.assert_allclose(rep.theta, ref, atol=1e-10)
    assert rep.converged and rep.iters == 0
    assert rep.max_constraint_violation == float("-inf")
    assert rep.gap == 0.0


def test_ipm_scalar_clamp():
    prob = _scalar_problem(target=2.0, lam=0.01, tau=0.5)
    rep = interior_point_solve(prob, SolverSettings(eps_abs=1e-10, eps_rel=1e-10))
    assert rep.converged and rep.stop_reason == "converged"
    assert abs(rep.theta[0] + 0.5) <= 1e-5
    # strictly feasible: the iterate never leaves the cone's interior
    assert rep.max_constraint_violation < 0.0
    # the certified gap bounds the distance to the optimum, which sits at the
    # margin below the clamp
    t_star = -0.5 - CONTRACTION_MARGIN * 1.5
    f_star = (t_star - 2.0) ** 2 + 0.01 * t_star**2
    assert 0.0 <= rep.objective - f_star <= rep.gap + 1e-12


def test_dual_weight_is_the_kkt_multiplier():
    # at the clamp t, 2 (t - 2) + 2 lam t + z = 0: the multiplier of
    # theta <= -tau is z = 2 (2 - t) - 2 lam t, and the one point binds
    prob = _scalar_problem(target=2.0, lam=0.01, tau=0.5)
    rep = interior_point_solve(prob, SolverSettings(eps_abs=1e-10, eps_rel=1e-10))
    assert rep.converged and rep.dual.shape == (1, 1, 1) and rep.rank == 1
    t_star = -0.5 - CONTRACTION_MARGIN * 1.5
    assert rep.weights[0] == pytest.approx(2.0 * (2.0 - t_star) - 0.02 * t_star, rel=1e-8)
    assert rep.binding == 1


def _complementarity(prob, rep):
    # sum_i <s_i, z_i>, s_i = -(tau_i + margin (1 + tau_i)) I - C_i(theta) on
    # the problem's own operators
    m, n = prob.constraint_ops.shape[:2]
    shift = prob.tau + CONTRACTION_MARGIN * (1.0 + prob.tau)
    C = prob.constraint_ops.reshape(-1, prob.moment.shape[0]) @ rep.theta
    s = -shift[:, None, None] * np.eye(n) - C.reshape(m, n, n)
    return float(np.sum(s * rep.dual))


def test_complementarity_is_at_most_the_gap():
    # the gap is <s, z> plus a nonnegative dual-residual term, for the
    # problem solved in all coordinates and, on the full problem, in range Q
    _, _, small = _random_lmi_problem(np.random.default_rng(3), 6, 3, tau=3.0)
    fm, proj, pairs, cp = _s_curve_inputs(200)
    bench = assemble_problem(fm, proj, pairs, cp, 0.01, 0.0)
    settings = SolverSettings(eps_abs=1e-4, eps_rel=1e-9, max_iters=250000)
    for prob, solve in ((small, interior_point_solve), (bench, interior_point_solve),
                        (bench, solver.solve_in_range)):
        rep = solve(prob, settings)
        assert rep.converged
        assert np.all(np.linalg.eigvalsh(rep.dual) >= 0.0)
        assert 0.0 <= _complementarity(prob, rep) <= rep.gap
    # the bench inputs: 4 of the 100 points hold 99% of the weight
    assert rep.binding == 4 and rep.weights.shape == (100,)


def _planted_problem(rng):
    # a criterion 06 problem whose last coordinate neither the design nor
    # the constraints read, rotated so that theta_perp = R^T e_last is no
    # axis: theta_perp is orthogonal to range([A^T, G^T])
    A, b, prob = _random_lmi_problem(rng, p=8, m=3)
    R, _ = np.linalg.qr(rng.normal(size=(9, 9)))
    A = np.hstack([A, np.zeros((A.shape[0], 1))]) @ R
    ops = np.concatenate([prob.constraint_ops, np.zeros((3, 2, 2, 1))], axis=-1) @ R
    return lsq_problem(A, b, prob.lam, ops, prob.tau), R.T[:, -1]


def test_planted_direction_leaves_the_optimum_unchanged():
    prob, perp = _planted_problem(np.random.default_rng(11))
    settings = SolverSettings(eps_abs=1e-10, eps_rel=1e-10)
    full = interior_point_solve(prob, settings)
    reduced = solver.solve_in_range(prob, settings)
    assert full.converged and reduced.converged
    assert full.rank == 9 and reduced.rank == 8
    assert abs(reduced.objective - full.objective) <= max(full.gap, reduced.gap)
    assert abs(reduced.theta @ perp) <= 1e-14 * np.linalg.norm(reduced.theta)
    assert reduced.max_constraint_violation < 0.0


# a reduced run of `solve_in_range`: what `solver._solve` hands back
_Run = namedtuple("_Run", "theta iters gap stop_reason dual bound")


def _record_reduced_runs(monkeypatch):
    """A list that gets each reduced run of `solve_in_range` as a _Run; a
    run's rank r is theta.size."""
    runs, inner = [], solver._solve
    monkeypatch.setattr(solver, "_solve", lambda *args: runs.append(_Run(*inner(*args)))
                        or runs[-1])
    return runs


def test_certificate_widens_a_coarse_basis(monkeypatch):
    # the separable map at s = 500 (p = 1000): cut at 1e-4 (r = 42), the
    # reduced problem converges but theta = Q theta_r misses the full
    # problem's tolerance (objective +12.5 against 1.1e-4), so the
    # certificate widens Q by _WIDEN (r = 67) and solves again
    fm, proj, pairs, cp = _s_curve_inputs(500, "gaussian_separable")
    prob = assemble_problem(fm, proj, pairs, cp, 0.01, 0.0)
    assert prob.moment.shape == (1000,)
    settings = SolverSettings(eps_abs=1e-4, eps_rel=1e-9, max_iters=250000)
    default = solver.solve_in_range(prob, settings)
    cuts, basis, runs = [], solver._range_basis, _record_reduced_runs(monkeypatch)
    monkeypatch.setattr(solver, "_range_basis",
                        lambda prob, cut: cuts.append(cut) or basis(prob, cut))
    monkeypatch.setattr(solver, "RANGE_CUT", 1e-4)
    rep = solver.solve_in_range(prob, settings)
    assert cuts == [1e-4, 1e-4 * solver._WIDEN]
    assert [run.stop_reason for run in runs] == ["converged", "converged"]
    assert runs[0].theta.size < runs[1].theta.size == rep.rank < 1000
    assert rep.converged and rep.iters == runs[0].iters + runs[1].iters
    assert rep.gap <= settings.eps_abs + settings.eps_rel * rep.objective
    assert default.converged and default.rank < 1000
    assert abs(rep.objective - default.objective) <= max(rep.gap, default.gap)


def test_certificate_widens_a_basis_that_drops_a_contracting_direction(monkeypatch):
    # C_1(theta) = (theta_0 - 1e-4 theta_1) I, C_2(theta) = (-theta_0 -
    # 1e-4 theta_1) I: theta_0 alone contracts at one point only, but any
    # theta_1 > 0 contracts at both.  Cut at 1e-3, Q drops theta_1's
    # direction of range(G^T) (singular value 1e-4 of the largest), and the
    # reduced phase I stops "infeasible"; on the full operators its bound is
    # 1e-4, far above the full phase I's roundoff level, so the certificate
    # widens Q (to the identity) and the full problem converges
    ops = np.zeros((2, 2, 2, 2))
    ops[:, :, :, 0] = np.array([1.0, -1.0])[:, None, None] * np.eye(2)
    ops[:, :, :, 1] = -1e-4 * np.eye(2)
    prob = lsq_problem(np.array([[1.0, 0.0]]), np.array([1.0]), 1.0, ops, np.zeros(2))
    cuts, basis, runs = [], solver._range_basis, _record_reduced_runs(monkeypatch)
    monkeypatch.setattr(solver, "_range_basis",
                        lambda prob, cut: cuts.append(cut) or basis(prob, cut))
    monkeypatch.setattr(solver, "RANGE_CUT", 1e-3)
    rep = solver.solve_in_range(prob)
    assert cuts == [1e-3, 1e-3 * solver._WIDEN]
    assert [run.stop_reason for run in runs] == ["infeasible", "converged"]
    assert [run.theta.size for run in runs] == [1, 2] and rep.rank == 2
    assert rep.converged and rep.contraction_bound is None
    assert rep.max_constraint_violation < 0.0 and rep.theta[1] > 0.0


def test_reduced_stall_widens_the_basis(monkeypatch):
    # the bench inputs (as _s_curve_inputs(200)): in the first reduced run,
    # after the ridge factor and phase I's two Newton systems, phase II's
    # second Newton system fails to factor, so the run stalls after 2 + 1
    # steps.  A stall in range Q may be Q's: Q is widened by _WIDEN, and the
    # wider run converges with the full problem's certificate
    fm, proj, pairs, cp = _s_curve_inputs(200)
    prob = assemble_problem(fm, proj, pairs, cp, 0.01, 0.0)
    settings = SolverSettings(eps_abs=1e-4, eps_rel=1e-9, max_iters=250000)
    cuts, factors, runs = [], [], _record_reduced_runs(monkeypatch)
    basis, factor = solver._range_basis, solver._cholesky_solver

    def fails_in_the_first_run(S):
        factors.append(S.shape[0])
        return None if not runs and len(factors) == 5 else factor(S)

    monkeypatch.setattr(solver, "_cholesky_solver", fails_in_the_first_run)
    monkeypatch.setattr(solver, "_range_basis",
                        lambda prob, cut: cuts.append(cut) or basis(prob, cut))
    rep = solver.solve_in_range(prob, settings)
    assert cuts == [solver.RANGE_CUT, solver.RANGE_CUT * solver._WIDEN]
    assert [run.stop_reason for run in runs] == ["stalled", "converged"]
    assert runs[0].iters == 3 and runs[0].theta.size < runs[1].theta.size == rep.rank < 200
    assert rep.converged and rep.iters == runs[0].iters + runs[1].iters
    assert rep.gap <= settings.eps_abs + settings.eps_rel * rep.objective


def test_stalled_widening_reports_the_round_with_the_smallest_gap(monkeypatch):
    # the bench inputs at lambda = 1e-14: phase II stalls at r = 55, at the
    # wider r = 75 and in all p = 200 coordinates.  Each round's theta is
    # feasible, and the report holds the one whose certified gap on the full
    # problem is the smallest, not the last
    fm, proj, pairs, cp = _s_curve_inputs(200)
    prob = assemble_problem(fm, proj, pairs, cp, 1e-14, 0.0)
    settings = SolverSettings(eps_abs=1e-4, eps_rel=1e-9, max_iters=250000)
    bases, basis, runs = [], solver._range_basis, _record_reduced_runs(monkeypatch)
    monkeypatch.setattr(solver, "_range_basis",
                        lambda prob, cut: bases.append(basis(prob, cut)) or bases[-1])
    rep = solver.solve_in_range(prob, settings)
    assert [run.stop_reason for run in runs] == ["stalled"] * 3
    assert [run.theta.size for run in runs] == [55, 75, 200]
    P, q = solver._ridge(prob)
    solve_P = solver._ridge_solver(P, prob.lam)
    h = -solver._shift(prob.tau)[:, None, None] * np.eye(2)
    Gop = prob.constraint_ops.reshape(-1, 200)
    gaps = []
    for Q, run in zip(bases, runs):
        theta = Q @ run.theta
        slack = h - (Gop @ theta).reshape(-1, 2, 2)
        gaps.append(solver._duality_gap(float(np.sum(slack * run.dual)),
                                        P @ theta + q + Gop.T @ run.dual.ravel(), solve_P))
    best = int(np.argmin(gaps))
    assert rep.stop_reason == "stalled" and rep.iters == sum(run.iters for run in runs)
    assert rep.gap == gaps[best] < gaps[-1] and rep.rank == runs[best].theta.size
    assert np.array_equal(rep.theta, bases[best] @ runs[best].theta)
    assert np.array_equal(rep.dual, runs[best].dual)


def test_train_factors_reduced_newton_systems(monkeypatch):
    # the bench inputs (as _s_curve_inputs(200)): every Newton system is
    # r x r (phase II) or (r + 1) x (r + 1) (phase I) with r < p, after the
    # reduced ridge matrix; the full ridge matrix is factored once, for the
    # certificate
    orders, factor = [], solver._cholesky_solver
    monkeypatch.setattr(solver, "_cholesky_solver",
                        lambda S: orders.append(S.shape[0]) or factor(S))
    cfg = TrainConfig(kernel="curl_free", sigma=20.0, num_features=200, lam=0.01, tau=0.0,
                      constraint_points=100, seed=0,
                      solver=SolverSettings(eps_abs=1e-4, eps_rel=1e-9, max_iters=250000))
    _, rep, _ = train_field(s_demos(num=4, samples=1000, seed=1), cfg)
    r, p = rep.rank, 200
    assert rep.converged and r < p
    phase1 = orders.count(r + 1)
    assert phase1 > 0 and orders == [r] + [r + 1] * phase1 + [r] * (rep.iters - phase1) + [p]


def test_ipm_flags_step_cap():
    prob = _scalar_problem()
    rep = interior_point_solve(prob, SolverSettings(max_iters=2))
    assert not rep.converged
    assert rep.stop_reason == "max_iters"
    assert rep.iters == 2
    assert np.isfinite(rep.max_constraint_violation) and np.isfinite(rep.gap)


def test_ipm_stalls_on_unreachable_tolerance():
    # a zero gap tolerance cannot be met in floating point: the run must stop
    # on its own long before the step cap, with finite residuals
    prob = _scalar_problem()
    rep = interior_point_solve(prob, SolverSettings(eps_abs=0.0, eps_rel=0.0, max_iters=4000))
    assert not rep.converged
    assert rep.stop_reason == "stalled"
    assert rep.iters < 100
    assert abs(rep.theta[0] + 0.5) <= 1e-5
    assert np.isfinite(rep.gap)


def test_ipm_phase1_reports_infeasible_tau():
    # C(theta) = 0 whatever theta is, so 0 <= -tau cannot hold for tau > 0:
    # infeasible before any step, and theta is the ridge fit
    prob = _scalar_problem(tau=0.5)
    prob.constraint_ops = np.zeros((1, 1, 1, 1))
    rep = interior_point_solve(prob, SolverSettings())
    assert not rep.converged
    assert rep.stop_reason == "infeasible"
    assert rep.iters == 0 and rep.contraction_bound == 0.0
    assert rep.theta[0] == pytest.approx(2.0 / 1.01, rel=1e-12)
    assert abs(rep.max_constraint_violation - 0.5) <= 1e-5


@pytest.mark.parametrize("tau", [0.0, 0.5])
def test_ipm_phase1_certifies_indefinite_cone(tau):
    # C(theta) = theta diag(1, -1) has eigenvalues +-theta: no theta contracts,
    # yet no operator is zero.  The certified rate bound is at rounding level:
    # eps <= (2 rho u)^1/2 with rho = |diag(1, -1)|_F^2 / (m n p) = 1
    prob = _scalar_problem(tau=tau)
    prob.constraint_ops = np.diag([1.0, -1.0])[None, :, :, None]
    rep = interior_point_solve(prob, SolverSettings())
    assert rep.stop_reason == "infeasible" and not rep.converged
    assert 0.0 <= rep.contraction_bound <= np.sqrt(2.0 * np.finfo(float).eps)
    assert 0.0 <= rep.gap <= np.finfo(float).eps
    assert rep.theta[0] == pytest.approx(2.0 / 1.01, rel=1e-12)


@pytest.mark.parametrize("rate", [1e-3, 1e-6, 1e-9])
def test_ipm_contraction_bound_is_sound(rate):
    # e_0 contracts by `rate` at every point and every other direction is
    # trace-free: the run either finds a feasible theta or reports a bound
    # that no unit theta beats, e_0 included
    rng = np.random.default_rng(5)
    ops = rng.normal(size=(20, 30, 2, 2)).transpose(0, 2, 3, 1)
    ops = 0.5 * (ops + ops.transpose(0, 2, 1, 3))
    ops -= np.einsum("iaap->p", ops) / 40.0 * np.eye(2)[:, :, None]
    ops[..., 0] = -rate * np.eye(2)
    prob = lsq_problem(rng.normal(size=(90, 30)), 10.0 * rng.normal(size=90), 0.1,
                       ops, np.full(20, 0.5))
    rep = interior_point_solve(prob, SolverSettings())
    assert rep.stop_reason in ("converged", "infeasible")
    if rep.stop_reason == "converged":
        assert rep.max_constraint_violation < 0.0 and rep.contraction_bound is None
    else:
        assert rep.contraction_bound >= rate * (1.0 - 1e-9)


@pytest.mark.parametrize("offset", [1e-6, 1e-15, 1e-16])
def test_ipm_phase2_start_is_inside_when_ridge_grazes_the_cone(offset):
    # the ridge fit violates the tightened constraint by about `offset` only:
    # phase II must still start strictly inside the cone, not on its boundary
    edge = -0.5 - CONTRACTION_MARGIN * 1.5
    prob = _scalar_problem(target=(edge + offset) * 1.01, lam=0.01, tau=0.5)
    rep = interior_point_solve(prob, SolverSettings(eps_abs=1e-12, eps_rel=1e-12))
    assert rep.stop_reason == "converged" and rep.max_constraint_violation < 0.0


@pytest.mark.parametrize("tau", [1000.0, 3000.0])
def test_fast_rates_on_the_s_curve_are_feasible(tau):
    # the benchmark's S-curve settings at rates the ridge fit misses by about
    # tau: a contracting direction scaled up meets any rate, so phase II runs
    # and ends strictly feasible, with the margin
    cfg = TrainConfig(kernel="curl_free", sigma=20.0, num_features=200, lam=0.01, tau=tau,
                      constraint_points=100, seed=0,
                      solver=SolverSettings(eps_abs=1e-4, eps_rel=1e-9, max_iters=250000))
    _, rep, _ = train_field(s_demos(num=4, samples=1000, seed=1), cfg)
    assert rep.converged and rep.stop_reason == "converged"
    assert rep.max_constraint_violation <= -0.5 * CONTRACTION_MARGIN * (1.0 + tau) < 0.0


def test_ipm_deterministic():
    rng = np.random.default_rng(5)
    _, _, prob = _random_lmi_problem(rng, p=4, m=3)
    r1 = interior_point_solve(prob, SolverSettings(eps_abs=1e-9, eps_rel=1e-9))
    r2 = interior_point_solve(prob, SolverSettings(eps_abs=1e-9, eps_rel=1e-9))
    assert r1.converged
    assert np.array_equal(r1.theta, r2.theta)
    assert r1.objective == r2.objective and r1.gap == r2.gap
    assert r1.iters == r2.iters


def test_ipm_matches_grid_search_oracle():
    # criterion 06's random problems and oracle settings
    rng = np.random.default_rng(3)
    for p, m, pts in ((4, 1, 7), (6, 2, 5)):
        A, b, prob = _random_lmi_problem(rng, p, m)
        rep = interior_point_solve(prob, SolverSettings(eps_abs=1e-10, eps_rel=1e-10))
        assert rep.converged
        assert rep.max_constraint_violation < 0.0
        val = float(np.sum((A @ rep.theta - b) ** 2) + prob.lam * rep.theta @ rep.theta)
        half = 2.0 * np.linalg.norm(rep.theta) + 1.0
        oracle_val = zoom_oracle(A, b, prob, half, rounds=50, pts=pts)
        assert abs(val - oracle_val) <= 1e-4 * max(1.0, oracle_val)


def _numpy_path(monkeypatch):
    """Make the solver take its np.linalg fallback, as where LAPACK is missing."""
    monkeypatch.setattr(solver, "_lapack", lambda: None)


def test_lapack_path_is_live():
    # numpy's bundled OpenBLAS exports dpotrf and dtrsv: a lookup that
    # silently falls back to np.linalg must fail here
    libs = (Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas64_*")
    if not any(libs):
        pytest.skip("numpy bundles no scipy_openblas")
    assert solver._lapack() is not None
    potrf, trsv = solver._lapack()
    assert (potrf.__name__, trsv.__name__) == ("scipy_LAPACKE_dpotrf64_", "scipy_cblas_dtrsv64_")


@pytest.mark.parametrize("kernel", ["curl_free", "gaussian_separable"])
@pytest.mark.parametrize("tau", [0.0, 0.3])
def test_lapack_and_numpy_paths_agree(monkeypatch, angle_train, kernel, tau):
    cfg = TrainConfig(kernel=kernel, sigma=10.0, num_features=100, tau=tau, constraint_points=50)
    _, fast, _ = train_field(angle_train, cfg)
    _numpy_path(monkeypatch)
    _, ref, _ = train_field(angle_train, cfg)
    assert fast.stop_reason == ref.stop_reason == "converged"
    assert np.max(np.abs(fast.theta - ref.theta)) <= 1e-10 * np.max(np.abs(ref.theta))


@pytest.mark.parametrize("path", ["lapack", "numpy"])
def test_indefinite_schur_complement_stalls(monkeypatch, path):
    if path == "numpy":
        _numpy_path(monkeypatch)
    rng = np.random.default_rng(7)
    M = rng.normal(size=(6, 6))
    spd = M @ M.T + np.eye(6)
    v = rng.normal(size=6)
    np.testing.assert_allclose(solver._cholesky_solver(spd.copy())(v), np.linalg.solve(spd, v),
                               rtol=1e-12)
    # a Schur-complement-sized system; the solver alone holds its factor,
    # and solving leaves v as it was and repeats bit for bit
    M = rng.normal(size=(200, 200))
    big = M @ M.T + np.eye(200)
    v = rng.normal(size=200)
    solve = solver._cholesky_solver(big.copy())
    gc.collect()
    x = solve(v)
    np.testing.assert_allclose(big @ x, v, rtol=0,
                               atol=1e-12 * np.linalg.norm(big) * np.linalg.norm(x))
    np.testing.assert_allclose(x, np.linalg.solve(big, v), rtol=1e-10)
    assert np.array_equal(solve(v.copy()), x) and np.array_equal(solve(v), x)
    with pytest.raises(ValueError):
        solve(v[:-1])
    Q, _ = np.linalg.qr(rng.normal(size=(6, 6)))
    indefinite = (Q * [3.0, 2.0, 1.0, 0.5, 0.1, -1e-3]) @ Q.T
    assert solver._cholesky_solver(indefinite) is None
    # the same refusal inside a run: P's factor, the first, goes through and
    # every Schur complement after it is negated
    factor, first = solver._cholesky_solver, iter([True])
    monkeypatch.setattr(solver, "_cholesky_solver",
                        lambda S: factor(S if next(first, False) else -S))
    rep = interior_point_solve(_scalar_problem(), SolverSettings())
    assert rep.stop_reason == "stalled" and rep.iters == 0


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("fault", ["nan-solve", "nan-schur-numpy"])
def test_nonfinite_newton_step_stalls_at_once(monkeypatch, k, fault):
    # every Schur complement after P's gives a direction that is not finite:
    # "nan-solve" through a factor whose solves return nan, as a factor
    # holding nan does, and "nan-schur-numpy" through a Schur
    # complement holding a nan, which the np.linalg fallback must refuse as
    # LAPACKE's dpotrf does.  Either way the phase stalls at that step, with
    # no LinAlgError from LAPACK's 3 x 3 eigenvalue routines and no back-off,
    # so the start's two factors are the only ones taken
    factor, first = solver._cholesky_solver, iter([True])
    if fault == "nan-solve":
        def faulty(S):
            solve = factor(S)
            return solve if next(first, False) else lambda v: solve(v) * np.nan
    else:
        _numpy_path(monkeypatch)

        def faulty(S):
            if not next(first, False):
                S[0, 0] = np.nan
            return factor(S)
    monkeypatch.setattr(solver, "_cholesky_solver", faulty)
    blocks, cholesky = [], solver._cholesky
    monkeypatch.setattr(solver, "_cholesky", lambda M: blocks.append(M.shape) or cholesky(M))
    _, _, prob = _random_lmi_problem(np.random.default_rng(3), 6, 3, tau=3.0, k=k)
    rep = interior_point_solve(prob, SolverSettings())
    assert rep.stop_reason == "stalled" and rep.iters == 0
    assert blocks == [(3, k, k)] * 2


@pytest.mark.parametrize("k", [1, 3])
def test_cholesky_refuses_nan_blocks_of_any_size(k):
    # numpy's OpenBLAS factors a block holding nan without raising; the
    # kernel refuses it, as the 2 x 2 closed form does
    blocks = _spd_blocks(np.random.default_rng(53), 5, k, 1e3)
    assert solver._cholesky(blocks) is not None
    blocks[3, k - 1, 0] = blocks[3, 0, k - 1] = np.nan
    assert solver._cholesky(blocks) is None


def _spd_blocks(rng, m, k, spread):
    # m random symmetric positive definite k x k blocks whose scales run
    # geometrically over `spread` from the first block to the last
    A = rng.normal(size=(m, k, k))
    scale = np.geomspace(1.0, spread, m)[:, None, None]
    return scale * (A @ A.transpose(0, 2, 1) + 0.1 * np.eye(k))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_nt_scaling_balances_s_and_z(k):
    # r^T s r = r^-1 z r^-T = diag(lam), block by block, with s and z both
    # spread over 1e6, so that lam runs over about 1e6 from block to block
    rng = np.random.default_rng(20 + k)
    s = _spd_blocks(rng, 30, k, 1e6)
    z = _spd_blocks(rng, 30, k, 1e6)
    lam, r = solver._nt_scaling(*np.linalg.cholesky(np.stack([s, z])))
    assert np.all(lam > 0.0)
    diag = lam[:, :, None] * np.eye(k)
    tol = 1e-12 * lam.max(axis=1)[:, None, None]
    assert np.all(np.abs(r.transpose(0, 2, 1) @ s @ r - diag) <= tol)
    assert np.all(np.abs(np.linalg.solve(r, np.linalg.solve(r, z).transpose(0, 2, 1)) - diag)
                  <= tol)
    # lam^2 are the eigenvalues of s z
    np.testing.assert_allclose(np.sort(lam**2, axis=1),
                               np.sort(np.linalg.eigvals(s @ z).real, axis=1), rtol=1e-9)


def test_nt_scaling_refuses_a_block_it_cannot_scale():
    # B = Lz^T Ls = [[1, 0], [1, 1e-9]]: B B^T rounds to [[1, 1], [1, 1]],
    # whose smallest eigenvalue is 0
    Ls = np.array([[[1.0, 0.0], [1.0, 1e-9]], [[1.0, 0.0], [0.0, 1.0]]])
    assert solver._nt_scaling(Ls, np.broadcast_to(np.eye(2), (2, 2, 2))) is None


@pytest.mark.parametrize("k", [1, 2, 3])
def test_packed_rows_give_the_full_schur_complement(k):
    # the svec rows of r_i^T G_ij r_i give the same F^T F as the k^2 rows of
    # vec(r_i^T G_ij r_i), and F dx unpacks to r_i^T G_i(dx) r_i
    rng = np.random.default_rng(30 + k)
    m, d = 6, 9
    G = rng.normal(size=(m, d, k, k)).transpose(0, 2, 3, 1)
    G = G + G.transpose(0, 2, 1, 3)
    r = rng.normal(size=(m, k, k))
    rows, weights, slots = solver._svec(k)
    assert rows.size == k * (k + 1) // 2
    F = solver._scaled_rows(r, G, rows, weights)
    assert F.shape == (m * rows.size, d)
    scaled = np.einsum("iba,ibcj,icd->ijad", r, G, r)
    full = scaled.reshape(m, d, k * k).transpose(0, 2, 1).reshape(m * k * k, d)
    ref = full.T @ full
    assert np.max(np.abs(F.T @ F - ref)) <= 1e-12 * np.max(np.abs(ref))
    dx = rng.normal(size=d)
    unpacked = ((F @ dx).reshape(m, -1) / weights)[:, slots].reshape(m, k, k)
    ref = np.einsum("ijab,j->iab", scaled, dx)
    assert np.max(np.abs(unpacked - ref)) <= 1e-12 * np.max(np.abs(ref))
    # and svec(X) . svec(Y) = tr(X Y)
    X, Y = scaled[:, 0], scaled[:, 1]
    dots = np.sum((X.reshape(m, -1)[:, rows] * weights) * (Y.reshape(m, -1)[:, rows] * weights),
                  axis=1)
    np.testing.assert_allclose(dots, np.einsum("iab,iba->i", X, Y), rtol=1e-12)


def test_newton_steps_never_call_svd(monkeypatch):
    # the Nesterov-Todd scaling comes from one eigh, in both phases
    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.svd called")

    rng = np.random.default_rng(3)
    _, _, prob = _random_lmi_problem(rng, 6, 3, tau=3.0)
    monkeypatch.setattr(np.linalg, "svd", refuse)
    rep = interior_point_solve(prob, SolverSettings(eps_abs=1e-10, eps_rel=1e-10))
    assert rep.converged and rep.iters > 0
    assert rep.max_constraint_violation < 0.0


def _symmetric_2x2(rng):
    # named stacks of symmetric 2 x 2 blocks: random positive definite ones
    # spread over 1e6, random indefinite ones, diagonal ones with a < c and
    # with a > c, and blocks with equal eigenvalues
    indefinite = rng.normal(size=(40, 2, 2))
    diagonal = np.abs(rng.normal(size=(20, 2))) + 0.1
    low_first, high_first = np.sort(diagonal, axis=1), -np.sort(-diagonal, axis=1)
    return {"spd": _spd_blocks(rng, 50, 2, 1e6),
            "indefinite": indefinite + indefinite.transpose(0, 2, 1),
            "a<c": low_first[:, :, None] * np.eye(2),
            "a>c": high_first[:, :, None] * np.eye(2),
            "equal": np.geomspace(1e-3, 1e3, 7)[:, None, None] * np.eye(2)}


@pytest.mark.parametrize("name", ["spd", "indefinite", "a<c", "a>c", "equal"])
def test_2x2_eigen_kernels_agree_with_lapack(name):
    M = _symmetric_2x2(np.random.default_rng(50))[name]
    ref = np.linalg.eigvalsh(M)
    scale = np.abs(ref).max(axis=1, keepdims=True)
    w, U = solver._eigh(M)
    assert np.all(np.abs(solver._eigvalsh(M) - ref) <= 4 * np.finfo(float).eps * scale)
    assert np.array_equal(w, solver._eigvalsh(M))
    assert np.all(w[:, 0] <= w[:, 1])
    # U is orthonormal, its columns are eigenvectors of w in order, and where
    # the eigenvalues differ they are LAPACK's up to sign
    eye = np.broadcast_to(np.eye(2), M.shape)
    assert np.all(np.abs(U.transpose(0, 2, 1) @ U - eye) <= 4 * np.finfo(float).eps)
    assert np.all(np.abs(M @ U - U * w[:, None, :]) <= 8 * np.finfo(float).eps * scale[:, :, None])
    apart = (ref[:, 1] - ref[:, 0]) > 1e-6 * scale[:, 0]
    _, Uref = np.linalg.eigh(M[apart])
    assert np.all(np.abs(np.abs(U[apart].transpose(0, 2, 1) @ Uref) - eye[apart]) <= 1e-9)


def test_2x2_cholesky_agrees_with_lapack():
    M = _symmetric_2x2(np.random.default_rng(51))
    for blocks in (M["spd"], M["a<c"], M["a>c"], M["equal"]):
        L = solver._cholesky(blocks)
        ref = np.linalg.cholesky(blocks)
        assert np.all(L[:, 0, 1] == 0.0)
        tol = 1e-12 * np.abs(ref).max(axis=(1, 2))[:, None, None]
        assert np.all(np.abs(L - ref) <= tol)
        assert np.all(np.abs(L @ L.transpose(0, 2, 1) - blocks)
                      <= 4 * np.finfo(float).eps * np.abs(blocks).max(axis=(1, 2))[:, None, None])


@pytest.mark.parametrize("bad", [[[0.0, 0.0], [0.0, 0.0]], [[-1.0, 0.0], [0.0, -2.0]],
                                 [[1.0, 1.0], [1.0, 1.0]], [[1.0, 2.0], [2.0, 1.0]],
                                 [[-1.0, 0.0], [0.0, 5.0]], [[np.nan] * 2] * 2,
                                 [[1.0, np.nan], [np.nan, 1.0]]],
                         ids=["zero", "negative", "semidefinite", "indefinite", "a<0",
                              "nan", "nan-off-diagonal"])
def test_2x2_cholesky_refuses_blocks_that_are_not_positive_definite(bad):
    # one block that is not positive definite among good ones: np.linalg
    # raises, the kernel returns None, and no warning escapes either.  A nan
    # block is refused too, where numpy's OpenBLAS, which tests a pivot by
    # <= 0 only, hands back a factor with nan in it
    blocks = _spd_blocks(np.random.default_rng(52), 5, 2, 1e3)
    blocks[3] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            ref = np.linalg.cholesky(blocks)
        except np.linalg.LinAlgError:
            ref = None
        assert ref is None or np.isnan(blocks[3]).any() and np.isnan(ref[3]).any()
        assert solver._cholesky(blocks) is None
        assert solver._cholesky(blocks[3:4]) is None


def test_start_without_a_factor_stalls(monkeypatch):
    # a start whose slack rounding leaves without a Cholesky factor ends the
    # phase "stalled" before any step, as a block that cannot be scaled does
    factor, first = solver._cholesky, iter([None])
    monkeypatch.setattr(solver, "_cholesky", lambda M: next(first, factor(M)))
    rep = interior_point_solve(_scalar_problem(), SolverSettings())
    assert rep.stop_reason == "stalled" and rep.iters == 0


def test_step_that_never_factors_backs_off_and_stalls(monkeypatch):
    # after the start's two factors of m = 1 block each, no slack or dual
    # factors: the step is halved 40 times, each trying both in one stacked
    # call of 2 m blocks, the slack's and the dual's, and the phase stalls
    # without a step
    factor, shapes = solver._cholesky, []
    monkeypatch.setattr(solver, "_cholesky", lambda M: shapes.append(M.shape)
                        or (factor(M) if len(shapes) <= 2 else None))
    rep = interior_point_solve(_scalar_problem(), SolverSettings())
    assert rep.stop_reason == "stalled" and rep.iters == 0
    assert shapes == [(1, 1, 1)] * 2 + [(2, 1, 1, 1)] * 40


@pytest.mark.parametrize("k", [1, 2, 3])
def test_stacked_block_kernels_give_the_bits_of_separate_calls(k):
    # the back-off factors the slack and the dual in one call, and the step
    # to the boundary reads both directions in one pass: each gives the bits
    # of one call per stack, and a stack holding one block without a factor
    # has none
    rng = np.random.default_rng(54)
    s, z = _spd_blocks(rng, 6, k, 1e3), _spd_blocks(rng, 6, k, 1e6)
    L = solver._cholesky(np.stack((s, z)))
    assert np.array_equal(L, np.stack((solver._cholesky(s), solver._cholesky(z))))
    z[4] = -z[4]
    assert solver._cholesky(np.stack((s, z))) is None
    li = 1.0 / np.sqrt(rng.uniform(0.1, 10.0, size=(6, k)))
    X = rng.normal(size=(2, 6, k, k))
    X = X + X.transpose(0, 1, 3, 2)
    # one pass over both directions, against the smallest eigenvalue of each
    # direction's blocks from `_eigvalsh`
    low = min(float(np.min(solver._eigvalsh(li[:, :, None] * x * li[:, None, :]))) for x in X)
    assert low < 0.0
    assert solver._step_to_boundary(li, X) == -1.0 / low
    assert solver._step_to_boundary(li, np.abs(X) * np.eye(k)) == np.inf


def test_planar_newton_steps_call_no_lapack_on_blocks(monkeypatch):
    # 2 x 2 blocks take the closed forms in both phases, with the steps the
    # LAPACK kernels took (3 + 10); 3 x 3 blocks still reach LAPACK (2 + 8)
    seen = []

    def planar_refused(fn):
        def call(a, *args, **kwargs):
            if np.shape(a)[-2:] == (2, 2):
                raise AssertionError(f"np.linalg.{fn.__name__} on 2 x 2 blocks")
            seen.append((fn.__name__, np.shape(a)[-1]))
            return fn(a, *args, **kwargs)
        return call

    for name in ("eigh", "eigvalsh", "cholesky"):
        monkeypatch.setattr(np.linalg, name, planar_refused(getattr(np.linalg, name)))
    phases = []
    inner = solver._interior_point

    def counted(*args):
        result = inner(*args)
        phases.append(result[1])
        return result

    monkeypatch.setattr(solver, "_interior_point", counted)
    settings = SolverSettings(eps_abs=1e-10, eps_rel=1e-10)
    _, _, planar = _random_lmi_problem(np.random.default_rng(3), 6, 3, tau=3.0)
    rep = interior_point_solve(planar, settings)
    assert rep.converged and phases == [3, 10] and rep.iters == 13
    assert seen == []
    _, _, spatial = _random_lmi_problem(np.random.default_rng(3), 6, 3, tau=3.0, k=3)
    rep = interior_point_solve(spatial, settings)
    assert rep.converged and phases[2:] == [2, 8]
    assert {name for name, k in seen} == {"eigh", "eigvalsh", "cholesky"}
    assert {k for _, k in seen} == {3}


def test_phase2_forms_one_product_with_P_per_iterate(monkeypatch):
    # P x is formed once per iterate, for the residual, the gradient and the
    # stop test alike; every matrix computed from the gram, such as
    # P = 2 gram + 2 lam I, counts its products with a vector, and phase I's
    # P, which is not, counts none
    products = [0]

    class CountedGram(np.ndarray):
        def __matmul__(self, other):
            if self.ndim == 2 and np.ndim(other) == 1:
                products[0] += 1
            return super().__matmul__(other)

    runs = []
    inner = solver._interior_point

    def counted(P, *args):
        before = products[0]
        result = inner(P, *args)
        runs.append((isinstance(P, CountedGram), result[1], products[0] - before))
        return result

    monkeypatch.setattr(solver, "_interior_point", counted)
    _, _, prob = _random_lmi_problem(np.random.default_rng(3), 6, 3, tau=3.0)
    prob.gram = prob.gram.view(CountedGram)
    rep = interior_point_solve(prob, SolverSettings(eps_abs=1e-10, eps_rel=1e-10))
    assert rep.converged
    assert [of_gram for of_gram, _, _ in runs] == [False, True]     # both phases ran
    _, steps, phase2_products = runs[1]
    assert steps > 0 and phase2_products == steps + 1


def test_newton_steps_read_the_operators_in_place(monkeypatch):
    # the operators keep the (m, n, n, p) layout that assembly builds them
    # in: phase II's steps read the problem's array itself, and phase I's
    # only copy is the operators with its t column, -I, appended
    seen, scaled_rows = [], solver._scaled_rows
    monkeypatch.setattr(solver, "_scaled_rows",
                        lambda r, G, *args: seen.append(G) or scaled_rows(r, G, *args))
    fm, proj, pairs, cp = _s_curve_inputs(200)
    prob = assemble_problem(fm, proj, pairs, cp, 0.01, 0.0)
    rep = interior_point_solve(prob, SolverSettings(eps_abs=1e-4, eps_rel=1e-9,
                                                    max_iters=250000))
    assert rep.converged
    p, ops = fm.feature_dim, prob.constraint_ops
    phase1 = [G for G in seen if G.shape[-1] == p + 1]
    phase2 = [G for G in seen if G.shape[-1] == p]
    assert len(phase1) + len(phase2) == len(seen) == rep.iters and phase1 and phase2
    assert all(np.shares_memory(G, ops) for G in phase2)
    for G in phase1:
        assert not np.shares_memory(G, ops)
        assert np.array_equal(G[..., :p], ops)
        assert np.array_equal(G[..., p], np.broadcast_to(-np.eye(2), G.shape[:3]))


def _admm_block(**block):
    # the solver settings an "admm" config block loads to
    return TrainConfig.from_dict({"admm": block}).solver


def test_config_block_unconstrained_equals_ridge():
    rng = np.random.default_rng(4)
    A = rng.normal(size=(20, 6))
    b = rng.normal(size=20)
    lam = 0.1
    prob = lsq_problem(A, b, lam, np.empty((0, 2, 2, 6)), np.zeros(0))
    rep = interior_point_solve(prob, _admm_block())
    ref = np.linalg.solve(A.T @ A + lam * np.eye(6), A.T @ b)
    np.testing.assert_allclose(rep.theta, ref, atol=1e-10)
    assert rep.converged and rep.max_constraint_violation == float("-inf")


def test_config_block_scalar_clamp():
    prob = _scalar_problem(target=2.0, lam=0.01, tau=0.5)
    rep = interior_point_solve(prob, _admm_block(rho=5.0, eps_abs=1e-8, eps_rel=1e-8,
                                                 max_iters=20000))
    assert rep.converged
    assert abs(rep.theta[0] + 0.5) <= 1e-5
    assert rep.max_constraint_violation <= 1e-5


def test_config_block_flags_nonconvergence():
    prob = _scalar_problem()
    rep = interior_point_solve(prob, _admm_block(rho=5.0, max_iters=3))
    assert not rep.converged
    assert rep.iters == 3


def test_config_block_deterministic():
    rng = np.random.default_rng(5)
    A = rng.normal(size=(16, 4))
    b = rng.normal(size=16)
    ops = rng.normal(size=(2, 4, 2, 2)).transpose(0, 2, 3, 1)
    ops = 0.5 * (ops + ops.transpose(0, 2, 1, 3))
    prob = lsq_problem(A, b, 0.05, ops, np.full(2, 0.1))
    r1 = interior_point_solve(prob, _admm_block(rho=2.0, max_iters=300))
    r2 = interior_point_solve(prob, _admm_block(rho=2.0, max_iters=300))
    assert np.array_equal(r1.theta, r2.theta)
    assert r1.objective == r2.objective


def test_config_block_matches_grid_search_oracle():
    rng = np.random.default_rng(6)
    p = 4
    A = rng.normal(size=(10, p))
    b = rng.normal(size=10) * 2
    ops = rng.normal(size=(1, p, 2, 2)).transpose(0, 2, 3, 1)
    ops = 0.5 * (ops + ops.transpose(0, 2, 1, 3))
    # anchor one coordinate to -I so the strictly feasible cone is nonempty
    ops[0, ..., 0] = -np.eye(2)
    prob = lsq_problem(A, b, 0.1, ops, np.array([0.2]))
    rep = interior_point_solve(prob, _admm_block(rho=2.0, eps_abs=1e-10, eps_rel=1e-10,
                                                 max_iters=200000, adapt_rho=True))
    assert rep.converged
    half = 2.0 * np.linalg.norm(rep.theta) + 1.0
    oracle_val = zoom_oracle(A, b, prob, half, rounds=45, pts=7)
    val = float(np.sum((A @ rep.theta - b) ** 2) + 0.1 * rep.theta @ rep.theta)
    # the solve must not be beaten by more than the grid resolution allows,
    # and must itself come within 1e-4 relative of the oracle value
    assert val <= oracle_val * (1 + 1e-4) + 1e-8
    assert abs(val - oracle_val) <= 1e-4 * max(1.0, oracle_val)
