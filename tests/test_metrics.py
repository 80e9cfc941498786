"""Reproduction metrics: error means, DTW, evaluate and grid_evaluate."""

import os
import pickle
import time
from functools import lru_cache
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _forks import with_cpus as _with_cpus
from _synth import decay_demos
from cvfield import dynamics, metrics
from cvfield.dataset import Demonstration, DemoSet
from cvfield.dynamics import IntegratorSettings, rollout
from cvfield.errors import DataError, DimensionError
from cvfield.metrics import (DTW_LANES, GRID_DTW_SAMPLES, EvalReport, _dtw_per_demo, dtw_distance,
                             evaluate, grid_evaluate, trajectory_error, velocity_error)


class Linear:
    def __init__(self, A):
        self.A = np.asarray(A, dtype=float)

    def eval(self, x):
        return np.asarray(x, dtype=float) @ self.A.T

    def jacobian(self, x):
        return self.A


def _demo(pos, vel=None):
    pos = np.atleast_2d(np.asarray(pos, dtype=float).T).T
    t = np.linspace(0.0, 1.0, pos.shape[0])
    return Demonstration(t, pos, None if vel is None else
                         np.atleast_2d(np.asarray(vel, dtype=float).T).T)


def _col(values):
    return np.atleast_2d(np.asarray(values, dtype=float).T).T


def _ro(states):
    return SimpleNamespace(states=_col(states))


def test_trajectory_error_values():
    d = _demo([0.0, 1.0, 2.0])
    assert trajectory_error([d], [_ro([0.0, 1.0, 2.0])]) == 0.0
    # constant 1 mm offset averages to exactly 1
    off = _demo(np.zeros((5, 2)))
    ro = _ro(np.tile([0.6, 0.8], (5, 1)))
    assert trajectory_error([off], [ro]) == pytest.approx(1.0, abs=1e-12)
    # errors 0, 0, 2 average to 2/3
    assert trajectory_error([d], [_ro([0.0, 1.0, 4.0])]) == pytest.approx(2 / 3, abs=1e-12)


def test_velocity_error_values():
    d = _demo([0.0, 1.0], vel=[1.0, 1.0])
    assert velocity_error([d], [_col([1.0, 1.0])]) == 0.0
    assert velocity_error([d], [_col([0.0, 2.0])]) == pytest.approx(1.0, abs=1e-12)


def test_error_metric_validation():
    d = _demo([0.0, 1.0])
    with pytest.raises(DimensionError):
        trajectory_error([d], [_ro([0.0, 1.0, 2.0])])
    with pytest.raises(DimensionError):
        trajectory_error([d, d], [_ro([0.0, 1.0])])
    with pytest.raises(DataError):
        trajectory_error([], [])
    with pytest.raises(DataError):
        velocity_error([d], [_col([0.0, 0.0])])


def test_error_metric_invariances():
    rng = np.random.default_rng(0)
    demos = [_demo(rng.normal(size=(8, 2))) for _ in range(3)]
    ros = [_ro(rng.normal(size=(8, 2))) for _ in range(3)]
    base = trajectory_error(demos, ros)
    # demo order does not matter, uniform scaling is linear
    assert trajectory_error(demos[::-1], ros[::-1]) == pytest.approx(base, rel=1e-12)
    scaled = trajectory_error([_demo(2.5 * d.positions) for d in demos],
                              [_ro(2.5 * r.states) for r in ros])
    assert scaled == pytest.approx(2.5 * base, rel=1e-12)


def _dtw_brute(a, b):
    a = np.atleast_2d(np.asarray(a, dtype=float).T).T
    b = np.atleast_2d(np.asarray(b, dtype=float).T).T

    @lru_cache(maxsize=None)
    def rec(i, j):
        cost = float(np.linalg.norm(a[i] - b[j]))
        if i == 0 and j == 0:
            return cost
        best = np.inf
        if i > 0:
            best = min(best, rec(i - 1, j))
        if j > 0:
            best = min(best, rec(i, j - 1))
        if i > 0 and j > 0:
            best = min(best, rec(i - 1, j - 1))
        return cost + best

    return rec(a.shape[0] - 1, b.shape[0] - 1)


def test_dtw_known_values():
    assert dtw_distance([[[0.0]]], [[3.0]])[0] == pytest.approx(3.0, abs=1e-12)
    assert dtw_distance([[[0.0], [1.0], [2.0]]], [[0.0], [2.0]])[0] == pytest.approx(1.0, abs=1e-12)
    seq = np.random.default_rng(1).normal(size=(20, 2))
    assert dtw_distance(seq[None], seq)[0] == pytest.approx(0.0, abs=1e-12)


def test_dtw_matches_brute_force_enumeration():
    rng = np.random.default_rng(2)
    for _ in range(30):
        la, lb = rng.integers(1, 7), rng.integers(1, 7)
        dim = int(rng.integers(1, 3))
        a = rng.integers(-3, 4, size=(la, dim)).astype(float)
        b = rng.integers(-3, 4, size=(lb, dim)).astype(float)
        assert dtw_distance(a[None], b)[0] == pytest.approx(_dtw_brute(a, b), abs=1e-10)


@st.composite
def _dtw_batches(draw):
    """A (K, T, n) batch of small integer sequences and one (M, n) sequence."""
    dim = draw(st.integers(1, 3))
    k, t, m = draw(st.integers(1, 4)), draw(st.integers(1, 6)), draw(st.integers(1, 6))
    cells = st.integers(-3, 3)
    P = np.array(draw(st.lists(cells, min_size=k * t * dim, max_size=k * t * dim)),
                 dtype=float).reshape(k, t, dim)
    b = np.array(draw(st.lists(cells, min_size=m * dim, max_size=m * dim)),
                 dtype=float).reshape(m, dim)
    return P, b


@settings(max_examples=150, deadline=None)
@given(_dtw_batches())
def test_dtw_batch_matches_single_pairs_and_brute_force(batch):
    P, b = batch
    costs = dtw_distance(P, b)
    assert costs.shape == (P.shape[0],)
    for k in range(P.shape[0]):
        single = dtw_distance(P[k:k + 1], b)
        assert single.shape == (1,)
        assert costs[k] == single[0]    # bitwise: a batch of K against K batches of one
        assert abs(single[0] - _dtw_brute(P[k], b)) <= 1e-10


@pytest.mark.parametrize("t, m", [(300, 4), (4, 300), (1, 200), (200, 1)])
def test_dtw_skewed_lengths_match_brute_force(t, m):
    # far more rows than columns and the reverse: the wavefront's diagonals
    # are then clipped by one sequence for almost their whole length
    rng = np.random.default_rng(t * 1000 + m)
    P = rng.normal(size=(3, t, 2))
    b = rng.normal(size=(m, 2))
    costs = dtw_distance(P, b)
    for k in range(P.shape[0]):
        single = dtw_distance(P[k:k + 1], b)[0]
        assert costs[k] == single
        assert single == pytest.approx(_dtw_brute(P[k], b), rel=1e-12, abs=1e-12)


def _dtw_table(a, b):
    """DTW oracle: the (T, M) cost table filled row by row with a double loop
    over its cells, every lane of `a` at once.  Each cell has the arithmetic
    of `dtw_distance`: squared coordinate differences summed in order, the
    square root, plus the least of the three neighbours."""
    K, T, n = a.shape
    M = b.shape[0]
    D = np.full((T + 1, M + 1, K), np.inf)
    D[0, 0] = 0.0
    for i in range(T):
        for j in range(M):
            diff = a[:, i, 0] - b[j, 0]
            d = diff * diff
            for c in range(1, n):
                diff = a[:, i, c] - b[j, c]
                d = d + diff * diff
            D[i + 1, j + 1] = np.sqrt(d) + np.minimum(np.minimum(D[i, j + 1], D[i + 1, j]),
                                                      D[i, j])
    return D[T, M]


@pytest.mark.parametrize("t, m", [(40, 90), (90, 3)])
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("k", [1, DTW_LANES - 1, DTW_LANES, DTW_LANES + 1, 2 * DTW_LANES + 1])
def test_dtw_lane_blocks_match_table_oracle_bitwise(k, n, t, m):
    # batches below, at and across the lane-block boundary give every lane
    # the oracle's bits, and the bits of its own batch of one
    rng = np.random.default_rng(k * 100 + n * 10 + t)
    P = rng.normal(size=(k, t, n))
    b = rng.normal(size=(m, n))
    costs = dtw_distance(P, b)
    assert costs.shape == (k,)
    assert np.array_equal(costs, _dtw_table(P, b))
    assert np.array_equal(costs, [dtw_distance(P[q:q + 1], b)[0] for q in range(k)])


def test_dtw_input_layouts_and_dtypes_give_the_same_bits():
    rng = np.random.default_rng(5)
    P = rng.normal(scale=50.0, size=(DTW_LANES + 3, 60, 2))
    b = rng.normal(scale=50.0, size=(70, 2))
    strided = P[:, ::2]
    expected = dtw_distance(np.ascontiguousarray(strided), b)
    assert np.array_equal(dtw_distance(strided, b), expected)
    assert np.array_equal(dtw_distance(np.asfortranarray(P), np.asfortranarray(b)),
                          dtw_distance(P.copy(), b.copy()))
    Pi, bi = np.rint(P).astype(np.int64), np.rint(b).astype(np.int32)
    assert np.array_equal(dtw_distance(Pi, bi), dtw_distance(Pi.astype(float), bi.astype(float)))
    P32, b32 = P.astype(np.float32), b.astype(np.float32)
    assert np.array_equal(dtw_distance(P32, b32),
                          dtw_distance(P32.astype(float), b32.astype(float)))
    # the inputs are read, never written
    P0, b0, P320 = P.copy(), b.copy(), P32.copy()
    dtw_distance(P, b)
    dtw_distance(strided, b[::-1])
    dtw_distance(P32, b32)
    assert np.array_equal(P, P0) and np.array_equal(b, b0) and np.array_equal(P32, P320)


def test_dtw_batch_validation():
    b = np.zeros((4, 2))
    with pytest.raises(DimensionError):
        dtw_distance(np.zeros((3, 5, 3)), b)
    with pytest.raises(DimensionError):
        dtw_distance(np.zeros((2, 3, 5, 2)), b)
    with pytest.raises(DimensionError):
        dtw_distance(np.zeros((5, 2)), b)       # one sequence is a batch of one, (1, T, n)
    with pytest.raises(DimensionError):
        dtw_distance(np.zeros((3, 5, 1)), np.zeros(4))
    with pytest.raises(DataError):
        dtw_distance(np.empty((0, 5, 2)), b)
    with pytest.raises(DataError):
        dtw_distance(np.empty((3, 0, 2)), b)


def test_dtw_symmetry_and_validation():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(12, 2))
    b = rng.normal(size=(9, 2))
    assert dtw_distance(a[None], b)[0] == pytest.approx(dtw_distance(b[None], a)[0], rel=1e-12)
    assert dtw_distance(a[None], b)[0] >= 0.0
    with pytest.raises(DimensionError):
        dtw_distance(a[None], rng.normal(size=(4, 3)))
    with pytest.raises(DataError):
        dtw_distance(np.empty((1, 0, 2)), b)


def test_evaluate_self_consistency(decay_model):
    field, _, _, train, test = decay_model
    ev = evaluate(field, train, test)
    assert ev.training_trajectory_error <= 0.5
    assert ev.test_trajectory_error <= 0.5
    assert ev.training_velocity_error <= 0.5
    assert ev.number_reached_goal == 3
    assert ev.integration_failures == 0
    assert ev.distance_to_goal <= 1.0 + 1e-6
    assert ev.duration_to_goal is not None and ev.duration_to_goal > 0


def test_evaluate_zero_field_statistics():
    dset = decay_demos(num=3, samples=60, seed=5)
    train = DemoSet(dset.demos[:2], dset.goal)
    test = DemoSet(dset.demos[2:], dset.goal)
    ev = evaluate(Linear(np.zeros((2, 2))), train, test)
    assert ev.number_reached_goal == 0
    assert ev.duration_to_goal is None
    starts = [np.linalg.norm(d.positions[0]) for d in dset.demos]
    assert ev.distance_to_goal == pytest.approx(np.mean(starts), rel=1e-9)
    # frozen rollout velocities make the velocity error the mean demo speed
    speeds = [np.mean(np.linalg.norm(d.velocities, axis=1)) for d in train.demos]
    assert ev.training_velocity_error == pytest.approx(np.mean(speeds), rel=1e-9)


def test_evaluate_reaches_goal_on_all_seven(angle_model, angle_train, angle_test):
    field, _, _ = angle_model
    ev = evaluate(field, angle_train, angle_test)
    assert ev.number_reached_goal == 7
    assert ev.integration_failures == 0
    assert ev.training_trajectory_error < ev.test_trajectory_error * 10


def test_evaluate_matches_single_rollout_oracle(angle_model, angle_train, angle_test):
    # rebuild the report from two single rollouts per demonstration: the
    # reproduction at the demo's timestamps and the 30x run to the goal
    field, _, _ = angle_model
    ev = evaluate(field, angle_train, angle_test)
    errors, distances, durations = {}, [], []
    for name, dset in (("train", angle_train), ("test", angle_test)):
        pos, vel = [], []
        for d in dset.demos:
            repro = rollout(field, d.positions[:1],
                            IntegratorSettings(horizon=d.duration, goal_radius=0.0),
                            t_eval=[d.times - d.times[0]]).results[0]
            longrun = rollout(field, d.positions[:1],
                              IntegratorSettings(horizon=30.0 * d.duration)).results[0]
            pos.append(float(np.mean(np.linalg.norm(d.positions - repro.states, axis=1))))
            vel.append(float(np.mean(np.linalg.norm(d.velocities - field.eval(repro.states),
                                                    axis=1))))
            distances.append(float(np.linalg.norm(repro.states[-1])))
            if longrun.reached_goal:
                durations.append(longrun.time_to_goal)
        errors[name] = (float(np.mean(pos)), float(np.mean(vel)))
    assert ev == EvalReport(*errors["train"], *errors["test"],
                            distance_to_goal=float(np.mean(distances)),
                            duration_to_goal=float(np.mean(durations)),
                            number_reached_goal=len(durations), integration_failures=0)


def test_evaluate_rolls_out_a_demonstration_of_both_sets_once(angle_model, angle_train,
                                                             angle_test, monkeypatch):
    # test = train, as `cvfield eval` without --test: one reproduction batch and
    # one long-run batch of the 4 demonstrations, and one field evaluation at
    # each reproduction besides those the rollouts make
    field, _, _ = angle_model

    class Counted:
        rolling, evals = False, 0

        def eval(self, x):
            self.evals += not self.rolling
            return field.eval(x)

    counted, starts = Counted(), []

    def counted_rollout(f, x0, *args, **kwargs):
        starts.append(len(x0))
        counted.rolling = True
        try:
            return rollout(f, x0, *args, **kwargs)
        finally:
            counted.rolling = False

    monkeypatch.setattr(dynamics, "rollout", counted_rollout)
    ev = evaluate(counted, angle_train, angle_train)
    n = len(angle_train.demos)
    assert starts == [n, n] and counted.evals == n
    for kind in ("trajectory", "velocity"):
        assert getattr(ev, f"test_{kind}_error").hex() == getattr(ev, f"training_{kind}_error").hex()
    assert ev.number_reached_goal == n and ev.integration_failures == 0
    # the training errors are those of a distinct test set, bit for bit
    distinct = evaluate(field, angle_train, angle_test)
    assert (ev.training_trajectory_error, ev.training_velocity_error) == \
        (distinct.training_trajectory_error, distinct.training_velocity_error)
    assert starts == [n, n, n + len(angle_test.demos), n + len(angle_test.demos)]


class EscapeAbove:
    """x1dot = 1 + x1^2 where x2 > 0, which escapes at t = pi/2 - atan(x1(0));
    xdot = -x elsewhere."""

    def eval(self, x):
        x = np.asarray(x, dtype=float)
        up = np.stack([1.0 + x[:, 0] ** 2, np.zeros(len(x))], axis=1)
        return np.where(x[:, 1:] > 0, up, -x)


def test_evaluate_counts_a_failed_long_run_once():
    # from (-10, 2) the escape comes at 3.04 s, after the 1 s reproduction
    # ends and before the 30 s long run does; x2 = 2 keeps it off the goal
    def demo(x0):
        t = np.linspace(0.0, 1.0, 11)
        return Demonstration(t, np.tile(x0, (11, 1)), np.zeros((11, 2)))

    train = DemoSet([demo([-10.0, 2.0]), demo([-5.0, -5.0])], np.zeros(2))
    test = DemoSet([demo([4.0, -3.0])], np.zeros(2))
    ev = evaluate(EscapeAbove(), train, test)
    assert ev.integration_failures == 1
    assert ev.number_reached_goal == 2
    # the failed demo is left out of the means
    expect = np.mean([np.linalg.norm(d.positions[0]) * np.exp(-1.0)
                      for d in (train.demos[1], test.demos[0])])
    assert ev.distance_to_goal == pytest.approx(expect, rel=1e-3)


def test_evaluate_counts_a_failed_demonstration_of_both_sets_once():
    # the escaping demonstration is in both sets; each set keeps one other
    def demo(x0):
        t = np.linspace(0.0, 1.0, 11)
        return Demonstration(t, np.tile(x0, (11, 1)), np.zeros((11, 2)))

    escapes, below = demo([-10.0, 2.0]), [demo([-5.0, -5.0]), demo([4.0, -3.0])]
    train = DemoSet([escapes, below[0]], np.zeros(2))
    test = DemoSet([below[1], escapes], np.zeros(2))
    ev = evaluate(EscapeAbove(), train, test)
    assert ev.integration_failures == 1
    assert ev.number_reached_goal == 2
    expect = np.mean([np.linalg.norm(d.positions[0]) * np.exp(-1.0) for d in below])
    assert ev.distance_to_goal == pytest.approx(expect, rel=1e-3)
    assert ev.training_trajectory_error == pytest.approx(
        np.linalg.norm(below[0].positions[0]) * np.mean(1.0 - np.exp(-below[0].times)), rel=1e-3)


def test_evaluate_needs_train_demonstrations():
    t = np.linspace(0.0, 1.0, 11)
    test = DemoSet([Demonstration(t, np.ones((11, 2)), np.zeros((11, 2)))], np.zeros(2))
    with pytest.raises(DataError, match="no train demonstrations"):
        evaluate(Linear(-np.eye(2)), DemoSet([], np.zeros(2)), test)


def test_evaluate_checks_both_sets_before_any_rollout(monkeypatch):
    calls, real = [], dynamics.rollout
    monkeypatch.setattr(dynamics, "rollout", lambda *a, **k: calls.append(1) or real(*a, **k))
    t = np.linspace(0.0, 1.0, 11)
    train = DemoSet([Demonstration(t, np.ones((11, 2)), np.zeros((11, 2)))], np.zeros(2))
    with pytest.raises(DataError, match="^no test demonstrations"):
        evaluate(Linear(-np.eye(2)), train, DemoSet([], np.zeros(2)))
    assert calls == []


def test_evaluate_rejects_sets_of_two_dimensions():
    t = np.linspace(0.0, 1.0, 11)
    sets = [DemoSet([Demonstration(t, np.ones((11, n)), np.zeros((11, n)))], np.zeros(n))
            for n in (2, 3)]
    with pytest.raises(DimensionError, match="differ in state dimension"):
        evaluate(Linear(-np.eye(2)), *sets)


def test_grid_evaluate_zero_field():
    dset = decay_demos(num=2, samples=50, seed=7)
    grid = grid_evaluate(Linear(np.zeros((2, 2))), dset, grid_k=16)
    assert grid.grid_fraction_reached == 0.0
    assert grid.grid_duration is None
    # starts stay put, so the goal distance is the mean start norm over the
    # 10%-inflated bounding-box grid
    pts = np.vstack([d.positions for d in dset.demos])
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    pad = 0.1 * (hi - lo)
    ax = [np.linspace(lo[d] - pad[d], hi[d] + pad[d], 4) for d in range(2)]
    starts = np.stack([np.repeat(ax[0], 4), np.tile(ax[1], 4)], axis=1)
    expect = np.mean(np.linalg.norm(starts, axis=1))
    assert grid.grid_distance_to_goal == pytest.approx(expect, rel=1e-9)
    assert np.isfinite(grid.grid_dtwd) and grid.grid_dtwd > 0


def test_grid_evaluate_contracting_field():
    dset = decay_demos(num=2, samples=50, seed=8)
    grid = grid_evaluate(Linear(-0.5 * np.eye(2)), dset, grid_k=16)
    assert grid.grid_fraction_reached == 1.0
    assert grid.grid_duration is not None and grid.grid_duration > 0
    assert grid.grid_distance_to_goal <= 1.0 + 1e-6


def test_grid_evaluate_trained_model(angle_model, angle_train):
    field, _, _ = angle_model
    grid = grid_evaluate(field, angle_train, grid_k=16)
    assert grid.grid_fraction_reached == 1.0
    assert np.isfinite(grid.grid_dtwd)


def test_grid_dtwd_matches_per_pair_oracle(angle_model, angle_train):
    # rebuild grid_dtwd from single rollouts and one dtw_distance call per
    # (rollout, demonstration) pair: mean over starts of the closest demo
    field, _, _ = angle_model
    grid = grid_evaluate(field, angle_train, grid_k=16)
    pts = np.vstack([d.positions for d in angle_train.demos])
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    pad = 0.1 * (hi - lo)
    ax = [np.linspace(lo[d] - pad[d], hi[d] + pad[d], 4) for d in range(2)]
    starts = np.stack([np.repeat(ax[0], 4), np.tile(ax[1], 4)], axis=1)
    horizon = 30.0 * float(np.mean([d.duration for d in angle_train.demos]))
    minima = []
    for x0 in starts:
        ro = rollout(field, x0[None], IntegratorSettings(horizon=horizon)).results[0]
        grid_t = np.linspace(ro.times[0], ro.times[-1], GRID_DTW_SAMPLES)
        path = np.stack([np.interp(grid_t, ro.times, ro.states[:, c]) for c in range(2)], axis=1)
        minima.append(min(dtw_distance(path[None], d.positions)[0] for d in angle_train.demos))
    assert grid.grid_dtwd == float(np.mean(minima))


def test_grid_evaluate_deterministic(angle_model, angle_train):
    field, _, _ = angle_model
    a = grid_evaluate(field, angle_train, grid_k=16)
    b = grid_evaluate(field, angle_train, grid_k=16)
    assert a == b


@lru_cache(maxsize=None)
def _three_demos():
    return decay_demos(num=3, samples=60, seed=10)


def test_grid_evaluate_same_bits_on_any_number_of_cpus(monkeypatch):
    # 3 demonstrations on 2 CPUs split unevenly: this process scores 0 and 1,
    # the child 2.  Five sequences on 2 or 3 CPUs give a child two of them
    # (3 and 4 on 2 CPUs, 2 and 3 on 3), which must come back in their own
    # places.
    dset, field = _three_demos(), Linear(-0.5 * np.eye(2))
    rng = np.random.default_rng(0)
    P, seqs = rng.normal(size=(5, 30, 2)), [rng.normal(size=(20 + i, 2)) for i in range(5)]
    serial = [dtw_distance(P, b) for b in seqs]
    reports = []
    for cpus in (1, 2, 3):
        forks = _with_cpus(monkeypatch, cpus)
        costs = _dtw_per_demo(P, seqs)
        assert len(forks) == cpus - 1
        assert all(np.array_equal(c, s) for c, s in zip(costs, serial, strict=True))
        reports.append(grid_evaluate(field, dset, grid_k=16))
        assert len(forks) == 2 * (cpus - 1)
    assert reports[0] == reports[1] == reports[2]


def test_grid_evaluate_scores_a_dead_childs_group_itself(monkeypatch):
    dset, field = _three_demos(), Linear(-0.5 * np.eye(2))
    _with_cpus(monkeypatch, 1)
    serial = grid_evaluate(field, dset, grid_k=16)
    parent = os.getpid()

    def dies_in_a_child(a, b):
        if os.getpid() != parent:
            os._exit(3)
        return dtw_distance(a, b)

    monkeypatch.setattr(metrics, "dtw_distance", dies_in_a_child)
    for cpus in (2, 3):
        forks = _with_cpus(monkeypatch, cpus)
        assert grid_evaluate(field, dset, grid_k=16) == serial
        assert len(forks) == cpus - 1


def test_grid_evaluate_error_in_own_group_leaves_no_child(monkeypatch):
    # the children would take a minute: the error must kill them, not wait
    dset, field = _three_demos(), Linear(-0.5 * np.eye(2))
    parent = os.getpid()

    def fails_here(a, b):
        if os.getpid() == parent:
            raise RuntimeError("DTW failed in the calling process")
        time.sleep(60.0)
        return dtw_distance(a, b)

    monkeypatch.setattr(metrics, "dtw_distance", fails_here)
    forks = _with_cpus(monkeypatch, 3)
    start = time.monotonic()
    with pytest.raises(RuntimeError, match="calling process"):
        grid_evaluate(field, dset, grid_k=16)
    assert time.monotonic() - start < 30.0
    assert len(forks) == 2
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_forked_returns_the_childs_result(monkeypatch):
    for cpus, forks_made in ((1, 0), (2, 1)):
        forks = _with_cpus(monkeypatch, cpus)
        with metrics.forked(os.getpid) as result:
            assert (result() != os.getpid()) == bool(forks_made)
        assert len(forks) == forks_made


def test_forked_runs_fn_where_its_result_is_read_when_the_fork_fails(monkeypatch):
    _with_cpus(monkeypatch, 2)

    def no_fork():
        raise OSError("no process left")

    monkeypatch.setattr(os, "fork", no_fork)
    order = []
    with metrics.forked(lambda: order.append("fn") or os.getpid()) as result:
        order.append("block")
        assert result() == os.getpid()
    assert order == ["block", "fn"]


def test_forked_block_that_raises_runs_no_fn_here(monkeypatch):
    # the block's error propagates unchanged, and fn() never runs in this
    # process to find an error of its own
    parent, here = os.getpid(), []

    def fn():
        if os.getpid() == parent:
            here.append("fn")
        raise DataError("fn failed")

    for cpus, forks_made in ((1, 0), (2, 1)):
        forks = _with_cpus(monkeypatch, cpus)
        with pytest.raises(RuntimeError, match="block failed"):
            with metrics.forked(fn):
                raise RuntimeError("block failed")
        assert len(forks) == forks_made and here == []


def test_forked_block_left_unread_leaves_no_child(monkeypatch):
    # the child would take a minute: leaving the block must kill it, not wait
    forks = _with_cpus(monkeypatch, 2)
    start = time.monotonic()
    with metrics.forked(lambda: time.sleep(60.0)):
        pass
    assert time.monotonic() - start < 30.0
    assert len(forks) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class _ClaimsItsMaker:
    """Records the process that made it, and unpickles only in that process."""

    def __init__(self, maker):
        self.maker = maker

    def __reduce__(self):
        return _refuse_in, (self.maker,)


def _refuse_in(pid):
    if os.getpid() != pid:
        raise pickle.UnpicklingError("made in a child")
    return _ClaimsItsMaker(pid)


def test_forked_computes_here_what_does_not_unpickle(monkeypatch):
    forks = _with_cpus(monkeypatch, 2)
    with metrics.forked(lambda: _ClaimsItsMaker(os.getpid())) as result:
        assert result().maker == os.getpid()
    assert len(forks) == 1


def test_grid_evaluate_validation():
    dset = decay_demos(num=2, samples=40, seed=9)
    with pytest.raises(DataError):
        grid_evaluate(Linear(-np.eye(2)), dset, grid_k=15)
    one_d = DemoSet([Demonstration(np.linspace(0, 1, 5), np.zeros((5, 1)),
                                   np.zeros((5, 1)))], np.zeros(1))
    with pytest.raises(DimensionError):
        grid_evaluate(Linear(-np.eye(1)), one_d, grid_k=16)
    with pytest.raises(DataError, match="no demonstrations"):
        grid_evaluate(Linear(-np.eye(2)), DemoSet([], np.zeros(2)))
