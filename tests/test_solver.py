"""Problem assembly and the interior-point solver.

The `test_config_block_*` tests load `admm` config blocks, retired keys
(`rho`, `adapt_rho`) included, through `TrainConfig.from_dict` and solve
with the settings they load to in `interior_point_solve`: the retired keys
must change nothing.
"""

import gc
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from _lsq import lsq_problem
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
    A = features.feature_rows(fm, X) @ proj.L
    b = Xdot.ravel()
    assert prob.gram.shape == (p, p) and prob.moment.shape == (p,)
    assert prob.constraint_ops.shape == (5, p, 2, 2)
    np.testing.assert_allclose(prob.tau, 0.3)
    _close(prob.gram, A.T @ A, 1e-12)
    _close(prob.moment, A.T @ b, 1e-12)
    assert abs(prob.btb - b @ b) <= 1e-12 * (b @ b)

    # the Jacobian basis of the raw map (projector I) times the dense L
    identity = features.VanishingProjector(np.eye(p), np.zeros((p, 0)), np.empty((0, 2)))
    raw = features.symmetrized_jacobian_basis(fm, identity, cp)
    _close(prob.constraint_ops, np.einsum("ikab,kj->ijab", raw, proj.L), 1e-13)
    np.testing.assert_allclose(prob.constraint_ops,
                               prob.constraint_ops.transpose(0, 1, 3, 2), atol=1e-12)
    theta = rng.normal(size=p)
    field = TrainedField(fm, proj, theta, proj.Z)
    _close(field.eta, proj.L @ theta, 1e-13)
    # the oracle's design rows evaluate the projected field
    np.testing.assert_allclose(A @ theta, field.eval(X).ravel(), atol=1e-10)


def _s_curve_inputs(s):
    # the benchmark's train-scurve inputs at s features: the tests/_synth.py
    # S-curve, curl-free, sigma = 20, m = 100; returns (fm, proj, pairs, cp)
    avg = resample_and_average(s_demos(num=4, samples=1000, seed=1))
    fm = features.sample_feature_map(KernelKind("curl_free", 20.0), s, 2, seed=0)
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
    A = features.feature_rows(fm, X) @ proj.L
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


def _zoom_oracle(A, b, prob, start, half, rounds=45, pts=7):
    """Feasible grid search that zooms on the incumbent; convexity makes
    the local refinement global.  The objective is evaluated directly from
    the design A and targets b, not from the problem's normal equations."""
    p = start.size
    tau = prob.tau
    P = prob.constraint_ops.reshape(prob.constraint_ops.shape[0], p, -1)
    eye = np.eye(prob.constraint_ops.shape[2]).ravel()

    def objective(G):
        r = G @ A.T - b
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
    # coordinate anchored to -I so the strictly feasible cone is nonempty;
    # returns (A, b, problem)
    A = rng.normal(size=(rows, p))
    b = rng.normal(size=rows) * 2
    ops = rng.normal(size=(m, p, 2, 2))
    ops = 0.5 * (ops + ops.transpose(0, 1, 3, 2))
    ops[:, 0] = -np.eye(2)
    return A, b, lsq_problem(A, b, 0.1, ops, np.full(m, tau))


def test_ipm_unconstrained_equals_ridge():
    rng = np.random.default_rng(4)
    A = rng.normal(size=(20, 6))
    b = rng.normal(size=20)
    lam = 0.1
    prob = lsq_problem(A, b, lam, np.empty((0, 6, 2, 2)), np.zeros(0))
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
    prob.constraint_ops = np.diag([1.0, -1.0])[None, None]
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
    ops = rng.normal(size=(20, 30, 2, 2))
    ops = 0.5 * (ops + ops.transpose(0, 1, 3, 2))
    ops -= np.einsum("ipaa->p", ops)[None, :, None, None] / 40.0 * np.eye(2)
    ops[:, 0] = -rate * np.eye(2)
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
        _, oracle_val = _zoom_oracle(A, b, prob, np.zeros(p), half, rounds=50, pts=pts)
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
    G = rng.normal(size=(m, d, k, k))
    G = G + G.transpose(0, 1, 3, 2)
    r = rng.normal(size=(m, k, k))
    rows, weights, slots = solver._svec(k)
    assert rows.size == k * (k + 1) // 2
    F = solver._scaled_rows(r, np.ascontiguousarray(G.reshape(m, d, k * k).transpose(0, 2, 1)),
                            rows, weights)
    assert F.shape == (m * rows.size, d)
    scaled = np.einsum("iba,ijbc,icd->ijad", r, G, r)
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
        x, steps, gap, reason = inner(P, *args)
        runs.append((isinstance(P, CountedGram), steps, products[0] - before))
        return x, steps, gap, reason

    monkeypatch.setattr(solver, "_interior_point", counted)
    _, _, prob = _random_lmi_problem(np.random.default_rng(3), 6, 3, tau=3.0)
    prob.gram = prob.gram.view(CountedGram)
    rep = interior_point_solve(prob, SolverSettings(eps_abs=1e-10, eps_rel=1e-10))
    assert rep.converged
    assert [of_gram for of_gram, _, _ in runs] == [False, True]     # both phases ran
    _, steps, phase2_products = runs[1]
    assert steps > 0 and phase2_products == steps + 1


def _admm_block(**block):
    # the solver settings an "admm" config block loads to
    return TrainConfig.from_dict({"admm": block}).solver


def test_config_block_unconstrained_equals_ridge():
    rng = np.random.default_rng(4)
    A = rng.normal(size=(20, 6))
    b = rng.normal(size=20)
    lam = 0.1
    prob = lsq_problem(A, b, lam, np.empty((0, 6, 2, 2)), np.zeros(0))
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
    ops = rng.normal(size=(2, 4, 2, 2))
    ops = 0.5 * (ops + ops.transpose(0, 1, 3, 2))
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
    ops = rng.normal(size=(1, p, 2, 2))
    ops = 0.5 * (ops + ops.transpose(0, 1, 3, 2))
    # anchor one coordinate to -I so the strictly feasible cone is nonempty
    ops[0, 0] = -np.eye(2)
    prob = lsq_problem(A, b, 0.1, ops, np.array([0.2]))
    rep = interior_point_solve(prob, _admm_block(rho=2.0, eps_abs=1e-10, eps_rel=1e-10,
                                                 max_iters=200000, adapt_rho=True))
    assert rep.converged
    half = 2.0 * np.linalg.norm(rep.theta) + 1.0
    _, oracle_val = _zoom_oracle(A, b, prob, np.zeros(p), half)
    val = float(np.sum((A @ rep.theta - b) ** 2) + 0.1 * rep.theta @ rep.theta)
    # the solve must not be beaten by more than the grid resolution allows,
    # and must itself come within 1e-4 relative of the oracle value
    assert val <= oracle_val * (1 + 1e-4) + 1e-8
    assert abs(val - oracle_val) <= 1e-4 * max(1.0, oracle_val)
