"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line with the measured values before
asserting, so `pytest tests/test_acceptance.py -v -s` reads as a report.
The constrained trainings here run at full desk scale and dominate the
suite's wall time; they are shared through module fixtures.
"""

import time

import numpy as np
import pytest

from _exact import eval_kernel
from _lsq import lsq_problem, zoom_oracle
from _synth import angle_demos, s_demos, write_demo_csv
from cvfield import TrainConfig, modelfile, train_field
from cvfield.cli import main
from cvfield.dataset import DemoSet, resample_and_average, subsample_constraint_points
from cvfield.dynamics import (IntegratorSettings, TrainedField,
                              max_contraction_eigenvalues, rollout)
from cvfield.features import (build_vanishing_projector, feature_rows,
                              field_jacobians, field_values, potential_from_features,
                              sample_feature_map)
from cvfield.kernels import KernelKind
from cvfield.metrics import evaluate, grid_evaluate
from cvfield.solver import SolverSettings, assemble_problem, solve_in_range

LN_1000 = 6.907755278982137


def _verdict(num, name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d} {name}: {detail}")
    assert ok, f"criterion {num:02d} {name}: {detail}"


@pytest.fixture(scope="module")
def s_seven():
    return s_demos(num=7, samples=1000, seed=1)


@pytest.fixture(scope="module")
def s_train(s_seven):
    return DemoSet(s_seven.demos[:4], s_seven.goal)


@pytest.fixture(scope="module")
def tau0_bundle(s_train):
    """Full-scale constrained training, tau = 0, 250 constraint points."""
    cfg = TrainConfig(kernel="curl_free", sigma=20.0, num_features=200,
                      lam=0.01, tau=0.0, constraint_points=250, seed=0,
                      solver=SolverSettings(eps_abs=5e-6, eps_rel=1e-9, max_iters=250000))
    t0 = time.perf_counter()
    field, report, avg = train_field(s_train, cfg)
    wall = time.perf_counter() - t0
    return field, report, avg, wall


@pytest.fixture(scope="module")
def tau100_bundle(s_train):
    """tau = 100 training on 50 constraint points; the ridge fit misses this
    rate by about 100, so the solver's phase I must find a feasible start."""
    cfg = TrainConfig(kernel="curl_free", sigma=20.0, num_features=200,
                      lam=0.01, tau=100.0, constraint_points=50, seed=0,
                      solver=SolverSettings(eps_abs=2e-4, eps_rel=1e-9, max_iters=250000))
    t0 = time.perf_counter()
    field, report, avg = train_field(s_train, cfg)
    wall = time.perf_counter() - t0
    return field, report, avg, wall


def _ridge_field(dset, sigma, num_features, seed):
    # same features, no constraints: the naive regression baseline
    avg = resample_and_average(dset)
    fm = sample_feature_map(KernelKind("curl_free", sigma), num_features, 2, seed)
    proj = build_vanishing_projector(fm, np.zeros((1, 2)))
    prob = assemble_problem(fm, proj, (avg.positions, avg.velocities),
                            np.empty((0, 2)), 0.01, 0.0)
    rep = solve_in_range(prob, SolverSettings())
    return TrainedField(fm, proj, rep.theta, np.zeros((1, 2))), rep


@pytest.fixture(scope="module")
def seed_models():
    """Constrained and unconstrained fits on three S variants."""
    out = []
    for seed in (2, 3, 4):
        dset = s_demos(num=4, samples=1000, seed=seed)
        cfg = TrainConfig(kernel="curl_free", sigma=20.0, num_features=200,
                          lam=0.01, tau=0.0, constraint_points=250, seed=0,
                          solver=SolverSettings(eps_abs=1e-4, eps_rel=1e-9,
                                                max_iters=150000))
        con_field, con_rep, _ = train_field(dset, cfg)
        ridge_field, _ = _ridge_field(dset, 20.0, 200, 0)
        out.append((seed, dset, con_field, con_rep, ridge_field))
    return out


def test_criterion_01_kernel_feature_fidelity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    pairs = rng.normal(size=(50, 2, 2)) * 2.0
    svals = np.array([128, 256, 512, 1024, 2048])
    slopes = {}
    for variant in ("gaussian_separable", "curl_free"):
        kind = KernelKind(variant, 1.0)
        exact = [eval_kernel(kind, x, y) for x, y in pairs]
        errs = []
        for s in svals:
            tot = 0.0
            for rep in range(3):
                fm = sample_feature_map(kind, int(s), 2, seed=100 + rep)
                e = 0.0
                for (x, y), K in zip(pairs, exact):
                    Khat = feature_rows(fm, x) @ feature_rows(fm, y).T
                    e += np.linalg.norm(Khat - K)
                tot += e / len(pairs)
            errs.append(tot / 3)
        slopes[variant] = float(np.polyfit(np.log(svals), np.log(errs), 1)[0])
    wall = time.perf_counter() - t0
    ok = all(-0.65 <= sl <= -0.35 for sl in slopes.values()) and wall < 10.0
    _verdict(1, "kernel/feature fidelity", ok,
             f"slope_gs={slopes['gaussian_separable']:+.3f} "
             f"slope_cf={slopes['curl_free']:+.3f} wall={wall:.1f}s (bound [-0.65,-0.35], <10s)")


def test_criterion_02_vanishing_equilibria(tau0_bundle, tau100_bundle, seed_models):
    models = [("tau0", tau0_bundle[0]), ("tau100", tau100_bundle[0])]
    for seed, _, con, _, ridge in seed_models:
        models.append((f"seed{seed}-constrained", con))
        models.append((f"seed{seed}-ridge", ridge))
    worst_name, worst = "", 0.0
    for name, f in models:
        for z in f.equilibria:
            v = float(np.linalg.norm(f.eval(z[None])))
            if v > worst:
                worst_name, worst = name, v
    ok = worst <= 1e-8
    _verdict(2, "vanishing equilibria", ok,
             f"max ||f(z)|| = {worst:.2e} over {len(models)} models (worst: {worst_name}, bound 1e-8)")


def test_criterion_03_contraction_constraints(tau0_bundle, tau100_bundle):
    f0, r0, avg0, w0 = tau0_bundle
    f1, r1, avg1, w1 = tau100_bundle
    cp0 = subsample_constraint_points(avg0, 250)
    cp1 = subsample_constraint_points(avg1, 50)
    lam0 = float(max_contraction_eigenvalues(f0, cp0).max())
    lam1 = float(max_contraction_eigenvalues(f1, cp1).max())
    total = w0 + w1
    ok = (lam0 <= 1e-5) and (lam1 <= -100.0 + 1e-3) and total < 120.0
    _verdict(3, "contraction constraints", ok,
             f"tau=0: max lambda = {lam0:.2e} in {r0.iters} iters/{w0:.0f}s; "
             f"tau=100: max lambda + 100 = {lam1 + 100.0:.2e} in {r1.iters} iters/{w1:.0f}s; "
             f"total {total:.0f}s (< 120s)")


def test_criterion_04_jacobian_correctness():
    rng = np.random.default_rng(1)
    h = 1e-6
    worst = 0.0
    for variant in ("gaussian_separable", "curl_free"):
        kind = KernelKind(variant, 3.0)
        fm = sample_feature_map(kind, 60, 2, seed=7)
        p = fm.feature_dim
        for _ in range(50):
            x = rng.normal(size=2) * 3
            theta = rng.normal(size=p)
            J = np.zeros((2, 2))
            for c in range(2):
                e = np.zeros(2)
                e[c] = h
                J[:, c] = (field_values(fm, theta, (x + e)[None])[0]
                           - field_values(fm, theta, (x - e)[None])[0]) / (2 * h)
            Ja = field_jacobians(fm, theta, x[None])[0]
            worst = max(worst, np.linalg.norm(Ja - J) / max(1.0, np.linalg.norm(Ja)))
    ok = worst <= 1e-5
    _verdict(4, "jacobian correctness", ok,
             f"max relative Frobenius error = {worst:.2e} over 100 draws (bound 1e-5)")


def test_criterion_05_gradient_flow(tau0_bundle):
    field, _, avg, _ = tau0_bundle
    rng = np.random.default_rng(2)
    span = avg.positions.max(axis=0) - avg.positions.min(axis=0)
    center = avg.positions.mean(axis=0)
    worst_circ = 0.0
    for _ in range(20):
        c = center + rng.uniform(-0.5, 0.5, size=2) * span
        r = rng.uniform(0.1, 0.4) * span.min()
        th = np.linspace(0.0, 2 * np.pi, 4096, endpoint=False)
        loop = c + r * np.stack([np.cos(th), np.sin(th)], axis=1)
        vals = field_values(field.map, field.eta, loop)
        tang = r * np.stack([-np.sin(th), np.cos(th)], axis=1)
        circ = abs(np.sum(np.sum(vals * tang, axis=1)) * (2 * np.pi / th.size))
        scale = np.sum(np.linalg.norm(vals, axis=1) * r) * (2 * np.pi / th.size)
        worst_circ = max(worst_circ, circ / max(scale, 1e-12))
    worst_grad = 0.0
    h = 1e-5
    for _ in range(20):
        x = center + rng.uniform(-0.5, 0.5, size=2) * span
        g = np.zeros(2)
        for c2 in range(2):
            e = np.zeros(2)
            e[c2] = h
            vp = potential_from_features(field.map, field.eta, (x + e)[None])[0]
            vm = potential_from_features(field.map, field.eta, (x - e)[None])[0]
            g[c2] = float(vp - vm) / (2 * h)
        f = field.eval(x[None])[0]
        worst_grad = max(worst_grad, np.linalg.norm(g + f) / max(1.0, np.linalg.norm(f)))
    ok = worst_circ <= 1e-6 and worst_grad <= 1e-5
    _verdict(5, "gradient-flow property", ok,
             f"max relative circulation = {worst_circ:.2e} (bound 1e-6), "
             f"max |grad V + f| = {worst_grad:.2e} relative (bound 1e-5)")


def test_criterion_06_solver_optimality_oracle():
    rng = np.random.default_rng(3)
    gaps = []
    for p, m, pts in ((4, 1, 7), (6, 2, 5)):
        A = rng.normal(size=(12, p))
        b = rng.normal(size=12) * 2
        ops = rng.normal(size=(m, p, 2, 2)).transpose(0, 2, 3, 1)    # drawn (m, p, 2, 2)
        ops = 0.5 * (ops + ops.transpose(0, 2, 1, 3))
        ops[..., 0] = -np.eye(2)    # strictly feasible direction
        prob = lsq_problem(A, b, 0.1, ops, np.full(m, 0.2))
        rep = solve_in_range(prob, SolverSettings(eps_abs=1e-10, eps_rel=1e-10,
                                                  max_iters=300000))
        assert rep.converged
        val = float(np.sum((A @ rep.theta - b) ** 2) + 0.1 * rep.theta @ rep.theta)
        half = 2.0 * np.linalg.norm(rep.theta) + 1.0
        oracle_val = zoom_oracle(A, b, prob, half, rounds=50, pts=pts)
        gaps.append(abs(val - oracle_val) / max(1.0, oracle_val))
    # scalar KKT toy: pull to +2 clamped at -0.5
    toy = lsq_problem(np.array([[1.0]]), np.array([2.0]), 0.01,
                      np.ones((1, 1, 1, 1)), np.array([0.5]))
    toy_rep = solve_in_range(toy, SolverSettings(eps_abs=1e-9, eps_rel=1e-9,
                                                 max_iters=100000))
    toy_err = abs(toy_rep.theta[0] + 0.5)
    ok = max(gaps) <= 1e-4 and toy_err <= 1e-5
    _verdict(6, "solver optimality oracle", ok,
             f"relative objective gaps = {gaps[0]:.2e}, {gaps[1]:.2e} (bound 1e-4); "
             f"scalar clamp error = {toy_err:.2e} (bound 1e-5)")


def test_criterion_07_stability_at_desk_scale(tau0_bundle, s_train, s_seven):
    field, _, _, _ = tau0_bundle
    t0 = time.perf_counter()
    grid = grid_evaluate(field, s_train, grid_k=16)
    wall = time.perf_counter() - t0
    test = DemoSet(s_seven.demos[4:], s_seven.goal)
    ev = evaluate(field, s_train, test)
    ok = (grid.grid_fraction_reached == 1.0 and ev.number_reached_goal == 7
          and wall < 60.0)
    _verdict(7, "stability at desk scale", ok,
             f"grid_fraction_reached = {grid.grid_fraction_reached:.2f} (need 1.00), "
             f"number_reached_goal = {ev.number_reached_goal} (need 7), wall={wall:.1f}s (<60s)")


def test_criterion_08_naive_regression_contrast(seed_models):
    con_fracs, ridge_fracs = [], []
    for seed, dset, con, _, ridge in seed_models:
        con_fracs.append(grid_evaluate(con, dset, grid_k=16).grid_fraction_reached)
        ridge_fracs.append(grid_evaluate(ridge, dset, grid_k=16).grid_fraction_reached)
    ok = all(f == 1.0 for f in con_fracs) and any(f < 1.0 for f in ridge_fracs)
    _verdict(8, "naive-regression contrast", ok,
             f"constrained fractions = {con_fracs}, unconstrained = {ridge_fracs} "
             f"(constrained all 1.0, unconstrained < 1.0 somewhere)")


def test_criterion_09_integrator_closed_form():
    class Decay:
        def eval(self, x):
            return -np.asarray(x, dtype=float)

    ro = rollout(Decay(), np.array([[1.0, 0.0]]),
                 IntegratorSettings(goal_radius=1e-3, horizon=10.0,
                                    rel_tol=1e-8, abs_tol=1e-12)).results[0]
    err = abs(ro.time_to_goal - LN_1000)
    ok = ro.reached_goal and err <= 1e-3
    _verdict(9, "integrator closed form", ok,
             f"time to 1e-3 ball = {ro.time_to_goal:.6f}, ln(1000) = {LN_1000:.6f}, "
             f"|error| = {err:.2e} (bound 1e-3)")


def test_criterion_10_determinism_round_trip(tmp_path):
    dset = angle_demos(num=4, samples=600, seed=0, sweep=np.pi / 3)
    write_demo_csv(tmp_path / "train.csv", dset)
    cfg = {"kernel": "curl_free", "sigma": 10.0, "num_features": 100,
           "lambda": 0.01, "tau": 0.0, "constraint_points": 60, "seed": 0,
           "admm": {"rho": 10.0, "adapt_rho": True, "eps_abs": 1e-6,
                    "eps_rel": 1e-7, "max_iters": 60000}}
    import json
    (tmp_path / "config.json").write_text(json.dumps(cfg))
    for name in ("a.json", "b.json"):
        rc = main(["train", "--config", str(tmp_path / "config.json"),
                   "--data", str(tmp_path / "train.csv"),
                   "--model", str(tmp_path / name)])
        assert rc == 0
    identical = (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    field, _, _ = modelfile.load_model(tmp_path / "a.json")
    reloaded, _, _ = modelfile.load_model(tmp_path / "a.json")
    rng = np.random.default_rng(4)
    X = rng.normal(size=(100, 2)) * 15
    drift = float(np.abs(field_values(field.map, field.eta, X)
                         - field_values(reloaded.map, reloaded.eta, X)).max())
    ok = identical and drift <= 1e-15
    _verdict(10, "determinism and round trip", ok,
             f"byte-identical retrain = {identical}, save/load eval drift = {drift:.1e} (bound 1e-15)")
