"""Reproduction metrics: trajectory/velocity error, DTW, goal statistics.

`evaluate` rolls the field out from each demonstration's start, sampled at
its timestamps, to score reproduction, and over 30x its duration with the
goal event to score convergence: two batched `dynamics.rollout` calls in
all, each with one start per distinct demonstration of the two sets, so a
demonstration held by both is integrated and counted once.  Each start's
result has the same bits in any batch, so the errors of two distinct sets
are those of scoring each set on its own.  `grid_evaluate` starts
rollouts from a uniform grid spanning the inflated demonstration bounding
box and reports how many reach the goal ball, how long they take, and how
far (in DTW cost) they stray from the closest demonstration.

`grid_evaluate` is two batched passes: one `dynamics.rollout` call
integrates every grid start in lock-step, and `dtw_distance` scores the
(K, T, n) stack of resampled rollouts against each demonstration in one
call.  Those per-demonstration calls are split over the CPUs in the
affinity mask: the demonstrations are split into contiguous groups, one per
CPU (at most one per demonstration), the calling process scores the first
group, and a `forked` child scores each other group.  Each cost is computed
by the same `dtw_distance` call on the same inputs wherever it runs, so the
costs, and every grid statistic, have the same bits on any number of cores.

`forked` is the package's one fork site, and a prefetch: the function it
yields returns, or raises, what fn() would where it is called, and fn()
runs in this process only when there is no child or the child failed.
`cvfield eval` also uses it to run `evaluate` in a child while
`grid_evaluate` runs.  The DTW children run only elementwise numpy.  The
`evaluate` child also calls LAPACK, for the goal-crossing roots
(`numpy.polynomial.polyroots` in `dynamics`), and BLAS, for
`np.linalg.norm` of one state.  The fork copies no BLAS thread; a
forked child still ran a 600 x 600 product after this process had started
OpenBLAS's threads, with this process's bits, and the `eval` document has
the same bytes on 1, 2 and 3 usable CPUs.

`dtw_distance` fills the cost table by anti-diagonals: every cell on
diagonal i + j = k depends only on diagonals k - 1 and k - 2, so one
diagonal of a block of tables is a few elementwise operations.  The K
sequences (lanes) go through in blocks of DTW_LANES = 64, and the lane is
the innermost axis of every buffer: `a` as (n, T, lanes), `b` reversed and
repeated as (n, M, lanes), the diagonals as (3, T + 1, lanes).  Each
operand of a diagonal is then one contiguous (<= T, lanes) block, which
numpy runs as a single loop.
The repeated `b` is n * M * 64 doubles (1 MB at M = 1000) whatever K is.
One sequence is a batch of one, as is one rollout start.
"""

from __future__ import annotations

import os
import pickle
import signal
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import dynamics
from .dynamics import IntegratorSettings
from .errors import DataError, DimensionError, IntegrationError

#: number of uniform samples drawn from each grid rollout before DTW
GRID_DTW_SAMPLES = 250
#: sequences (lanes) that `dtw_distance` carries through one wavefront
DTW_LANES = 64


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
    monotone alignment path.  `a` is a batch (K, T, n) of K sequences of
    equal length and `b` one sequence (M, n); returns a (K,) array, one cost
    per sequence of `a`.

    D[i, j] = d(a_i, b_j) + min(D[i-1, j], D[i, j-1], D[i-1, j-1]) is
    solved one anti-diagonal at a time for up to DTW_LANES sequences (lanes)
    together; the arithmetic of each lane is elementwise, so its cost has
    the same bits alone or in any batch.  Lanes are the innermost axis of
    every buffer, so each operand of a diagonal is one contiguous
    (width, lanes) block.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 3 or b.ndim != 2:
        raise DimensionError("a must be (K, T, n) and b (M, n)")
    if a.shape[2] != b.shape[1]:
        raise DimensionError("sequences must share their state dimension")
    if a.shape[0] == 0 or a.shape[1] == 0 or b.shape[0] == 0:
        raise DataError("empty sequence")
    K = a.shape[0]
    costs = np.empty(K)
    bK = None
    for s in range(0, K, DTW_LANES):
        aT = np.ascontiguousarray(a[s:s + DTW_LANES].transpose(2, 1, 0))   # (n, T, lanes)
        if bK is None or bK.shape[2] != aT.shape[2]:
            # b reversed and repeated across the lanes: (n, M, lanes)
            bK = np.repeat(b[::-1].T[:, :, None], aT.shape[2], axis=2)
        costs[s:s + DTW_LANES] = _dtw_lanes(aT, bK)
    return costs


def _dtw_lanes(aT, bK):
    """DTW costs of the lanes of aT (n, T, L) against bK (n, M, L), the one
    sequence reversed and repeated across the L lanes."""
    n, T, L = aT.shape
    M = bK.shape[1]
    # anti-diagonal wavefront: cell (i, j) lies on diagonal k = i + j and
    # needs (i-1, j) and (i, j-1) from diagonal k-1 and (i-1, j-1) from k-2.
    # A diagonal is stored by row index i at row i+1 of a (T+1, L) buffer;
    # row 0 (i = -1) and every row a diagonal has not reached yet hold +inf,
    # so the boundary needs no special case.  With b reversed, b[k-i] for i
    # in [lo, hi] is the plain slice bK[:, M-1-k+lo : M-k+hi].
    diag = np.full((3, T + 1, L), np.inf)
    dist, tmp = np.empty((2, T, L))
    for k in range(T + M - 1):
        lo, hi = max(0, k - M + 1), min(k, T - 1)
        w, off = hi - lo + 1, M - 1 - k + lo
        d, t = dist[:w], tmp[:w]
        # direct differences, as the Gram expansion loses ~1e-8 per entry to
        # cancellation, which a summed alignment cost cannot afford
        np.square(np.subtract(aT[0, lo:hi + 1], bK[0, off:off + w], out=d), out=d)
        for c in range(1, n):
            np.add(d, np.square(np.subtract(aT[c, lo:hi + 1], bK[c, off:off + w], out=t),
                                out=t), out=d)
        np.sqrt(d, out=d)
        cur, prev, prev2 = diag[k % 3], diag[(k - 1) % 3], diag[(k - 2) % 3]
        if k == 0:
            cur[1] = d[0]
            continue
        np.minimum(prev[lo:hi + 1], prev[lo + 1:hi + 2], out=t)
        np.minimum(t, prev2[lo:hi + 1], out=t)
        np.add(d, t, out=cur[lo + 1:hi + 2])
    return diag[(T + M - 2) % 3][T]


def _usable_cpus():
    """CPUs this process may run on; 1 where it cannot fork."""
    if not hasattr(os, "fork"):
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@contextmanager
def forked(fn):
    """Prefetches fn() in a forked child while the block runs, and yields a
    function that returns, or raises, what fn() would at the point where it
    is called.

    The child pickles fn()'s result into a pipe and leaves through
    `os._exit`; the yielded function waits for it and unpickles its result.
    fn() runs here only when that function is called and there is no child
    (one usable CPU, or the pipe or the fork failed) or the child failed (it
    exited non-zero, or its result does not unpickle).  Run here or there,
    it is the same code, with the same bits.  Leaving the block kills and
    reaps a child whose result was not read; an error raised in the block
    propagates unchanged, and no fn() runs here for it.
    """
    pid, pipe = _fork(fn) if _usable_cpus() > 1 else (None, None)

    def result():
        nonlocal pid
        if pid is not None:
            with pipe:
                data = pipe.read()
            status, pid = os.waitpid(pid, 0)[1], None
            if status == 0:
                try:
                    return pickle.loads(data)
                except Exception:       # any failure, as fn() run here gives the answer
                    pass
        return fn()

    try:
        yield result
    finally:
        if pid is not None:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _fork(fn):
    """(pid, read end of its pipe) of a child that writes pickle(fn()) to
    the pipe, or (None, None) when the pipe or the fork fails."""
    try:
        rfd, wfd = os.pipe()
    except OSError:
        return None, None
    try:
        pid = os.fork()
    except OSError:
        os.close(rfd)
        os.close(wfd)
        return None, None
    if pid == 0:
        status = 1
        try:
            os.close(rfd)
            with open(wfd, "wb") as fh:
                pickle.dump(fn(), fh, protocol=pickle.HIGHEST_PROTOCOL)
            status = 0
        finally:
            os._exit(status)
    os.close(wfd)
    return pid, open(rfd, "rb")


def _dtw_per_demo(P, demos):
    """[dtw_distance(P, b) for b in demos], scored on up to `_usable_cpus()`
    processes.

    The demonstrations are split into W = min(CPUs, len(demos)) contiguous
    groups (`np.array_split` of their indices).  This process scores group
    0 and each other group is `forked`, so a group whose child fails is
    scored here, by the same function, and the costs, concatenated in demo
    order, have the same bits on any number of CPUs; no child outlives the
    call.  A child runs only `dtw_distance`, which is elementwise numpy and
    never calls BLAS.
    """
    groups = np.array_split(np.arange(len(demos)), min(_usable_cpus(), len(demos)))

    def score(group):
        return [dtw_distance(P, demos[i]) for i in group]

    with ExitStack() as stack:
        pending = [stack.enter_context(forked(partial(score, g))) for g in groups[1:]]
        return score(groups[0]) + [row for result in pending for row in result()]


def evaluate(f, train, test):
    """Score reproduction and convergence against train and test sets.

    Each distinct demonstration of train and test (by identity, in order of
    first appearance) is rolled out once: all of them in one batched
    reproduction at their timestamps and one batched run over 30x their
    durations with the goal event, and the field is evaluated once at each
    reproduction's states.  Each set's errors average the demonstrations it
    kept.  A demonstration whose rollouts fail is left out, and one held by
    both sets counts once in integration_failures and the goal statistics.
    An empty set is a DataError and sets of two state dimensions are a
    DimensionError, both found before any rollout.
    """
    for name, dset in (("train", train), ("test", test)):
        if not dset.demos:
            raise DataError(f"no {name} demonstrations")
    demos = list({id(d): d for d in [*train.demos, *test.demos]}.values())
    if len({d.dim for d in demos}) > 1:
        raise DimensionError("train and test demonstrations differ in state dimension")
    starts = np.stack([d.positions[0] for d in demos])
    spans = np.array([d.duration for d in demos])
    repros = dynamics.rollout(f, starts, IntegratorSettings(horizon=spans, goal_radius=0.0),
                              t_eval=[d.times - d.times[0] for d in demos]).results
    longruns = dynamics.rollout(f, starts, IntegratorSettings(horizon=30.0 * spans)).results
    kept = {id(d): (r, f.eval(r.states), lr) for d, r, lr in zip(demos, repros, longruns)
            if not isinstance(r, IntegrationError) and not isinstance(lr, IntegrationError)}
    errors = []
    for name, dset in (("train", train), ("test", test)):
        ours = [d for d in dset.demos if id(d) in kept]
        if not ours:
            raise DataError(f"all {name} rollouts failed")
        errors += [trajectory_error(ours, [kept[id(d)][0] for d in ours]),
                   velocity_error(ours, [kept[id(d)][1] for d in ours])]
    distances = [float(np.linalg.norm(r.states[-1])) for r, _, _ in kept.values()]
    durations = [lr.time_to_goal for _, _, lr in kept.values() if lr.reached_goal]
    return EvalReport(*errors, distance_to_goal=float(np.mean(distances)),
                      duration_to_goal=float(np.mean(durations)) if durations else None,
                      number_reached_goal=len(durations),
                      integration_failures=len(demos) - len(kept))


def grid_side(grid_k):
    """The side g of a square grid of grid_k = g * g starts; any other grid_k,
    such as 0 or 15, is a DataError."""
    if not grid_k >= 1 or round(np.sqrt(grid_k)) ** 2 != grid_k:
        raise DataError(f"grid_k must be a positive perfect square, got {grid_k}")
    return round(np.sqrt(grid_k))


def _grid_starts(dset, grid_k):
    if not dset.demos:
        raise DataError("no demonstrations to span the grid")
    pts = np.vstack([d.positions for d in dset.demos])
    if pts.shape[1] != 2:
        raise DimensionError("grid evaluation supports 2-D data only")
    g = grid_side(grid_k)
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    pad = 0.1 * (hi - lo)
    axes = [np.linspace(lo[d] - pad[d], hi[d] + pad[d], g) for d in range(2)]
    return np.stack([np.repeat(axes[0], g), np.tile(axes[1], g)], axis=1)


def grid_evaluate(f, demos, grid_k=16):
    """Convergence statistics from a grid of start points.

    The grid spans the demonstration bounding box inflated by 10% per
    side; each start is integrated for 30x the mean demonstration duration
    with the goal event active, all starts in one batched
    `dynamics.rollout` call; a start that fails to integrate counts toward
    the goal distance with its last state and has no DTW cost.  Each rollout
    is resampled uniformly to GRID_DTW_SAMPLES points; its DTW cost is the
    minimum over demonstrations, from one batched `dtw_distance` call per
    demonstration.  Those calls run on up to as many processes as there are
    usable CPUs, in contiguous groups of demonstrations (see
    `_dtw_per_demo`), and the costs have the same bits on any number of
    cores; no child process outlives the call.
    """
    starts = _grid_starts(demos, grid_k)
    horizon = 30.0 * float(np.mean([d.duration for d in demos.demos]))
    reached, durations, distances, paths = 0, [], [], []
    for ro in dynamics.rollout(f, starts, IntegratorSettings(horizon=horizon)).results:
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
            _dtw_per_demo(P, [d.positions for d in demos.demos]), axis=0)))
    return GridEvalReport(
        grid_fraction_reached=reached / starts.shape[0],
        grid_duration=float(np.mean(durations)) if durations else None,
        grid_distance_to_goal=float(np.mean(distances)),
        grid_dtwd=grid_dtwd,
    )
