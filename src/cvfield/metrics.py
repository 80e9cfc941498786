"""Reproduction metrics: trajectory/velocity error, DTW, goal statistics.

`evaluate` rolls the field out from each demonstration's start, sampled at
its timestamps, to score reproduction, and over 30x its duration with the
goal event to score convergence: two batched `dynamics.rollout` calls per
demonstration set.  `grid_evaluate` starts rollouts from a uniform grid
spanning the inflated demonstration bounding box and reports how many
reach the goal ball, how long they take, and how far (in DTW cost) they
stray from the closest demonstration.

`grid_evaluate` is two batched passes: one `dynamics.rollout` call
integrates every grid start in lock-step, and `dtw_distance` scores the
(K, T, n) stack of resampled rollouts against each demonstration in one
call.  `dtw_distance` fills the cost table by anti-diagonals: every cell on
diagonal i + j = k depends only on diagonals k - 1 and k - 2, so one
diagonal of all K tables is a few elementwise operations on (K, <= T)
slices.  A single (T, n) sequence is a batch of one.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import dynamics
from .errors import DataError, DimensionError, IntegrationError

#: number of uniform samples drawn from each grid rollout before DTW
GRID_DTW_SAMPLES = 250


@dataclass
class EvalReport:
    training_trajectory_error: float
    training_velocity_error: float
    test_trajectory_error: float
    test_velocity_error: float
    distance_to_goal: float
    duration_to_goal: float | None
    number_reached_goal: int
    integration_failures: int = 0


@dataclass
class GridEvalReport:
    grid_fraction_reached: float
    grid_duration: float | None
    grid_distance_to_goal: float
    grid_dtwd: float


def _mean_error(reference, values):
    """Mean over pairs of (T, n) arrays of their time-averaged distance."""
    if len(reference) != len(values):
        raise DimensionError("need one rollout per demonstration")
    if not reference:
        raise DataError("no demonstrations")
    errs = []
    for a, b in zip(reference, values):
        if a.shape != b.shape:
            raise DimensionError(f"trajectories disagree in shape: {a.shape} vs {b.shape}")
        errs.append(np.mean(np.linalg.norm(a - b, axis=1)))
    return float(np.mean(errs))


def trajectory_error(demos, rollouts):
    """Mean over demos of the time-averaged position error (mm)."""
    return _mean_error([d.positions for d in demos], [r.states for r in rollouts])


def velocity_error(demos, velocities):
    """Mean over demos of the time-averaged velocity error (mm/s), where
    velocities holds, per demo, the field at its rollout's states."""
    if any(d.velocities is None for d in demos):
        raise DataError("demonstration lacks velocities")
    return _mean_error([d.velocities for d in demos], velocities)


def dtw_distance(a, b):
    """Classic dynamic-time-warping cost with Euclidean local distances.

    Full window, no normalization: the summed cost along the optimal
    monotone alignment path.  `a` is one sequence, (T, n) or (T,) for a
    scalar sequence, or a batch (K, T, n) of K sequences of equal length;
    `b` is one sequence, (M, n) or (M,).  Returns a float for a single `a`
    and a (K,) array, one cost per sequence, for a batch.

    D[i, j] = d(a_i, b_j) + min(D[i-1, j], D[i, j-1], D[i-1, j-1]) is
    solved one anti-diagonal at a time for all K sequences together; the
    arithmetic of each sequence is elementwise, so its cost has the same
    bits alone or in any batch.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    single = a.ndim < 3
    if a.ndim == 1:
        a = a[:, None]    # scalar sequence
    if single:
        a = a[None]       # a batch of one
    if b.ndim == 1:
        b = b[:, None]
    if a.ndim != 3 or b.ndim != 2:
        raise DimensionError("a must be (T,), (T, n) or (K, T, n) and b (M,) or (M, n)")
    if a.shape[2] != b.shape[1]:
        raise DimensionError("sequences must share their state dimension")
    if a.shape[0] == 0 or a.shape[1] == 0 or b.shape[0] == 0:
        raise DataError("empty sequence")
    K, T, n = a.shape
    M = b.shape[0]
    aT = np.ascontiguousarray(a.transpose(2, 0, 1))   # (n, K, T)
    br = np.ascontiguousarray(b[::-1].T)               # (n, M), b reversed
    # anti-diagonal wavefront: cell (i, j) lies on diagonal k = i + j and
    # needs (i-1, j) and (i, j-1) from diagonal k-1 and (i-1, j-1) from k-2.
    # A diagonal is stored by row index i at column i+1 of a (K, T+1)
    # buffer; column 0 (i = -1) and every column a diagonal has not reached
    # yet hold +inf, so the boundary needs no special case.  With b reversed,
    # b[k-i] for i in [lo, hi] is the plain slice br[M-1-k+lo : M-k+hi].
    diag = np.full((3, K, T + 1), np.inf)
    dist, tmp = np.empty((2, K, T))
    for k in range(T + M - 1):
        lo, hi = max(0, k - M + 1), min(k, T - 1)
        w, off = hi - lo + 1, M - 1 - k + lo
        d, t = dist[:, :w], tmp[:, :w]
        # direct differences, as the Gram expansion loses ~1e-8 per entry to
        # cancellation, which a summed alignment cost cannot afford
        np.square(np.subtract(aT[0, :, lo:hi + 1], br[0, off:off + w], out=d), out=d)
        for c in range(1, n):
            np.add(d, np.square(np.subtract(aT[c, :, lo:hi + 1], br[c, off:off + w], out=t),
                                out=t), out=d)
        np.sqrt(d, out=d)
        cur, prev, prev2 = diag[k % 3], diag[(k - 1) % 3], diag[(k - 2) % 3]
        if k == 0:
            cur[:, 1] = d[:, 0]
            continue
        np.minimum(prev[:, lo:hi + 1], prev[:, lo + 1:hi + 2], out=t)
        np.minimum(t, prev2[:, lo:hi + 1], out=t)
        np.add(d, t, out=cur[:, lo + 1:hi + 2])
    last = diag[(T + M - 2) % 3][:, T]
    return float(last[0]) if single else last.copy()


def evaluate(f, train, test, settings=None):
    """Score reproduction and convergence against train and test sets; a demo
    whose rollouts fail is left out and counted once in integration_failures."""
    s = settings or dynamics.IntegratorSettings()
    per_set = {}
    distances, durations, failures = [], [], 0
    for name, dset in (("train", train), ("test", test)):
        if not dset.demos:
            raise DataError(f"no {name} demonstrations")
        starts = np.stack([d.positions[0] for d in dset.demos])
        spans = np.array([d.duration for d in dset.demos])
        repros = dynamics.rollout(f, starts, replace(s, horizon=spans, goal_radius=0.0),
                                  t_eval=[d.times - d.times[0] for d in dset.demos]).results
        longruns = dynamics.rollout(f, starts, replace(s, horizon=30.0 * spans)).results
        kept = [(d, r, lr) for d, r, lr in zip(dset.demos, repros, longruns)
                if not isinstance(r, IntegrationError) and not isinstance(lr, IntegrationError)]
        failures += len(dset.demos) - len(kept)
        if not kept:
            raise DataError(f"all {name} rollouts failed")
        demos, rollouts, longs = zip(*kept)
        distances += [float(np.linalg.norm(r.states[-1])) for r in rollouts]
        durations += [lr.time_to_goal for lr in longs if lr.reached_goal]
        per_set[name] = (trajectory_error(demos, rollouts),
                         velocity_error(demos, [f.eval(r.states) for r in rollouts]))
    return EvalReport(
        training_trajectory_error=per_set["train"][0],
        training_velocity_error=per_set["train"][1],
        test_trajectory_error=per_set["test"][0],
        test_velocity_error=per_set["test"][1],
        distance_to_goal=float(np.mean(distances)),
        duration_to_goal=float(np.mean(durations)) if durations else None,
        number_reached_goal=len(durations),
        integration_failures=failures,
    )


def _grid_starts(dset, grid_k, seed, jitter):
    pts = np.vstack([d.positions for d in dset.demos])
    if pts.shape[1] != 2:
        raise DimensionError("grid evaluation supports 2-D data only")
    if not grid_k >= 1:
        raise DataError(f"grid_k must be a positive perfect square, got {grid_k}")
    g = round(np.sqrt(grid_k))
    if g * g != grid_k:
        raise DataError("grid_k must be a perfect square")
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    pad = 0.1 * (hi - lo)
    axes = [np.linspace(lo[d] - pad[d], hi[d] + pad[d], g) for d in range(2)]
    starts = np.stack([np.repeat(axes[0], g), np.tile(axes[1], g)], axis=1)
    if jitter > 0.0:
        rng = np.random.default_rng(seed)
        cell = (hi - lo + 2 * pad) / max(g - 1, 1)
        starts = starts + rng.uniform(-0.5, 0.5, starts.shape) * jitter * cell
    return starts


def grid_evaluate(f, demos, settings=None, grid_k=16, seed=0, jitter=0.0):
    """Convergence statistics from a grid of start points.

    The grid spans the demonstration bounding box inflated by 10% per
    side; each start is integrated for 30x the mean demonstration duration
    with the goal event active, all starts in one batched
    `dynamics.rollout` call; a start that fails to integrate counts toward
    the goal distance with its last state and has no DTW cost.  Each rollout
    is resampled uniformly to GRID_DTW_SAMPLES points; its DTW cost is the
    minimum over demonstrations, from one batched `dtw_distance` call per
    demonstration.
    """
    s = settings or dynamics.IntegratorSettings()
    starts = _grid_starts(demos, grid_k, seed, jitter)
    horizon = 30.0 * float(np.mean([d.duration for d in demos.demos]))
    reached, durations, distances, paths = 0, [], [], []
    for ro in dynamics.rollout(f, starts, replace(s, horizon=horizon)).results:
        if isinstance(ro, IntegrationError):
            distances.append(float(np.linalg.norm(ro.last_state)))
            continue
        if ro.reached_goal:
            reached += 1
            durations.append(ro.time_to_goal)
        distances.append(float(np.linalg.norm(ro.states[-1])))
        grid_t = np.linspace(ro.times[0], ro.times[-1], GRID_DTW_SAMPLES)
        paths.append(np.stack([np.interp(grid_t, ro.times, ro.states[:, c])
                               for c in range(ro.states.shape[1])], axis=1))
    grid_dtwd = float("nan")
    if paths:
        P = np.stack(paths)
        grid_dtwd = float(np.mean(np.min(
            [dtw_distance(P, d.positions) for d in demos.demos], axis=0)))
    return GridEvalReport(
        grid_fraction_reached=reached / starts.shape[0],
        grid_duration=float(np.mean(durations)) if durations else None,
        grid_distance_to_goal=float(np.mean(distances)),
        grid_dtwd=grid_dtwd,
    )
