"""Trained fields, contraction diagnostics and trajectory rollout.

A TrainedField packages a feature map, a vanishing projector and solved
coefficients; its field is f(x) = Phi(x)^T (L theta).  The rollout
integrator is a Dormand-Prince 4(5) embedded pair with proportional step
control and a quartic dense-output interpolant; a goal event terminates
integration when the state enters the ball ||x|| <= goal_radius anywhere
along an accepted step, with the crossing time localized by bisection on
the dense output.

`rollout` integrates a (K, n) batch of starts in lock-step, one field
evaluation per stage over the starts still running; one start is a batch of
one, and each start may have its own horizon and sample times.  Every
per-start operation is row by row (elementwise, or a sum over a fixed axis,
never a BLAS product), so a start's result has the same bits alone or in any
batch.  Results hold states, not velocities: evaluate the field there.

Synthetic fields can be passed anywhere a TrainedField is accepted: any
object whose `eval` maps a batch (N, n) to (N, n) and, where Jacobians are
needed, whose `jacobian` maps a batch (N, n) to (N, n, n).  Both are only
ever called on a batch; a bare callable x -> xdot is not a field.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import features
from .errors import DataError, DimensionError, IntegrationError
from .kernels import CURL_FREE

#:  Dormand-Prince 4(5) tableau
_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_ERR = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920,
                 -17253 / 339200, 22 / 525, -1 / 40])
# dense-output weights (Hairer's contd5)
_D = np.array([
    -12715105075 / 11282082432, 0.0, 87487479700 / 32700410799,
    -10690763975 / 1880347072, 701980252875 / 199316789632,
    -1453857185 / 822651844, 69997945 / 29380423,
])
_E0, _E6 = np.eye(7)[0], np.eye(7)[6]
# the dense output y(theta) = y0 + sum_p C_p theta^p on an accepted step
# (contd5 in monomial form): h times these rows of weights on the stage
# slopes give C_1..C_4
_DENSE = np.array([_E0, 3 * _B5 - 2 * _E0 - _E6 + _D, _E0 + _E6 - 2 * _B5 - 2 * _D, _D])
# the same polynomial in powers of u = theta - 1/2: c_0 - y0, c_1, .., c_4
_MIDPOINT = np.array([[1 / 2, 1 / 4, 1 / 8, 1 / 16],
                      [1, 1, 3 / 4, 1 / 2],
                      [0, 1, 3 / 2, 3 / 2],
                      [0, 0, 1, 2],
                      [0, 0, 0, 1]]) @ _DENSE
# per attempted step, h times these weights give the increment y(1) - y0,
# the error estimate, C_1..C_4 and the midpoint coefficients
_STEP_WEIGHTS = np.vstack([_B5, _ERR, _DENSE, _MIDPOINT])
_HALVES = 0.5 ** np.arange(1, 5)


@dataclass(frozen=True, eq=False)
class TrainedField:
    map: features.FeatureMap
    proj: features.VanishingProjector
    theta: np.ndarray
    equilibria: np.ndarray    # (p, n)
    tau: float = 0.0
    eta: np.ndarray = field(init=False)   # L theta, effective raw coefficients

    def __post_init__(self):
        object.__setattr__(self, "theta", np.asarray(self.theta, dtype=float))
        object.__setattr__(self, "equilibria",
                           np.asarray(self.equilibria, dtype=float).reshape(-1, self.map.n))
        if self.theta.shape != (self.map.feature_dim,):
            raise DimensionError("theta length must equal the feature dimension")
        object.__setattr__(self, "eta", self.proj.L @ self.theta)
        if self.equilibria.shape[0]:
            vals = features.field_values(self.map, self.eta, self.equilibria)
            worst = float(np.max(np.linalg.norm(vals, axis=1)))
            if worst > 1e-8:
                raise DataError(f"field is {worst:.3e} at an equilibrium (must be <= 1e-8)")

    def eval(self, X):
        return features.field_values(self.map, self.eta, X)

    def jacobian(self, X):
        return features.field_jacobians(self.map, self.eta, X)


@dataclass
class IntegratorSettings:
    rel_tol: float = 1e-3
    abs_tol: float = 1e-6       # mm
    max_step: float = np.inf    # seconds
    goal_radius: float = 1.0    # mm; <= 0 disables the goal event
    horizon: float = 10.0       # seconds; or a (K,) array, one per start of a batch


@dataclass
class RolloutResult:
    times: np.ndarray         # (T,)
    states: np.ndarray        # (T, n)
    reached_goal: bool
    time_to_goal: float | None
    n_field_evals: int


@dataclass
class RolloutBatch:
    """Rollouts of a (K, n) batch of starts, in start order."""

    results: list             # per start: a RolloutResult, or the IntegrationError that ended it
    n_field_evals: int        # point evaluations summed over the starts


def max_contraction_eigenvalues(f, X):
    """Largest eigenvalue of the symmetrized Jacobian at each point of X (N, n)."""
    J = f.jacobian(X)
    return np.linalg.eigvalsh(0.5 * (J + J.transpose(0, 2, 1)))[:, -1]


def _norms(v):
    return np.sqrt(np.add.reduce(v * v, axis=-1))


def _stage_sum(w, k):
    """sum_j w[:, j] k[:, :, j] for weights w (P, i) and slopes k (R, n, 7), as (R, P, n).

    Elementwise products summed over the last axis reduce every row the
    same way whatever R is; a matrix product rounds a row differently
    depending on how many rows share it.
    """
    return np.add.reduce(k[:, None, :, :w.shape[1]] * w[:, None, :], axis=-1)


def _dense_eval(C, theta):
    """Dense output sum_p C[:, p] theta^p of accepted steps, C (R, 5, n).

    theta is (R, 1), one value per step, or (S, 1) for a single step
    (R = 1), giving S states.
    """
    y = C[:, 4]
    for p in (3, 2, 1, 0):
        y = y * theta + C[:, p]
    return y


def _closest_theta(C):
    """theta in [0, 1] where ||sum_p C[p] theta^p|| is least, C (5, n).

    The candidates are the ends and the real parts of the critical points
    of ||y||^2, a polynomial of degree 8; picking among more candidates
    than needed only lowers the minimum found.  Leading coefficients of the
    derivative that are negligible next to the largest one (a step that is
    nearly a straight line) are dropped first, as they would only make the
    companion matrix ill-conditioned.
    """
    P = np.polynomial.polynomial
    g = sum(np.convolve(C[:, c], C[:, c]) for c in range(C.shape[1]))
    dg = P.polyder(g)
    dg = P.polytrim(dg, 1e-12 * np.abs(dg).max())
    crit = np.clip(P.polyroots(dg).real, 0.0, 1.0)
    cand = np.concatenate(([0.0, 1.0], crit))
    return float(cand[np.argmin(P.polyval(cand, g))])


def _goal_entries(C, mid, y1, radius):
    """Per accepted step, a theta at which the dense output is inside the
    goal ball of the given radius, or nan when the whole step stays out.

    An endpoint y1 inside gives theta = 1.  Otherwise the step is bounded
    by a ball about its midpoint: `mid` (R, 5, n) holds the coefficients
    c_j of y in powers of u = theta - 1/2 in [-1/2, 1/2], so ||y - c_0|| <=
    sum_j ||c_j|| / 2^j.  Only a step whose ball meets the goal ball gets
    its exact closest point.
    """
    hit = np.where(_norms(y1) <= radius, 1.0, np.nan)
    reach = np.add.reduce(_norms(mid[:, 1:]) * _HALVES, axis=-1)
    near = np.isnan(hit) & (_norms(mid[:, 0]) - reach <= radius)
    for r in np.flatnonzero(near & np.isfinite(reach)):
        theta = _closest_theta(C[r])
        if _norms(_dense_eval(C[r:r + 1], theta))[0] <= radius:
            hit[r] = theta
    return hit


def _locate_crossing(C, h, radius, hi, tol_t):
    """Entry into the goal ball by bisection on [0, hi], row by row.

    Each row halves its own bracket until h * width <= tol_t, so its
    result does not depend on the other rows.
    """
    lo = np.zeros_like(hi)
    while True:
        go = h * (hi - lo) > tol_t
        if not go.any():
            return hi
        mid = 0.5 * (lo + hi)
        inside = _norms(_dense_eval(C, mid[:, None])) <= radius
        hi = np.where(go & inside, mid, hi)
        lo = np.where(go & ~inside, mid, lo)


def rollout(f, X0, settings=None, t_eval=None):
    """Integrate xdot = f(x) from each start of X0 (K, n) until its horizon
    or the goal event, giving a RolloutBatch.

    The starts run in lock-step, each with its own step size, accept/reject
    decision, FSAL stage, goal event and horizon; a start's result is
    bitwise the same alone or in any batch, provided the field's arithmetic
    does not depend on the batch size (a TrainedField's does not).

    settings.horizon is one positive, finite horizon or a (K,) array of
    them; rel_tol and abs_tol are finite, nonnegative and not both 0,
    max_step is positive and goal_radius is not nan.  t_eval is a list of K
    increasing 1-D arrays, one per start, requesting dense-output samples at
    those times (seconds, relative to the start); without it the accepted
    integrator steps are returned.  The goal event is checked over the whole
    of each accepted step, not only at its end; the crossing time, when
    reached, is localized to 1e-6 s and appended as the final sample.  A
    start whose step size underflows ends with an IntegrationError in its
    place in the results, and the other starts run on.
    """
    s = settings or IntegratorSettings()
    X0 = np.asarray(X0, dtype=float)
    if X0.ndim != 2:
        raise DimensionError("X0 must be a batch of starts (K, n)")
    K, n = X0.shape
    H = np.asarray(s.horizon, dtype=float)
    if H.shape not in ((), (K,)):
        raise DimensionError("horizon must be one number or one per start")
    H = np.broadcast_to(H, (K,))
    for key, ok, what in (("horizon", np.all((H > 0) & np.isfinite(H)), "positive and finite"),
                          ("rel_tol", 0.0 <= s.rel_tol < np.inf, "finite and nonnegative"),
                          ("abs_tol", 0.0 <= s.abs_tol < np.inf, "finite and nonnegative"),
                          ("abs_tol", s.abs_tol > 0.0 or s.rel_tol > 0.0, "positive when rel_tol is 0"),
                          ("max_step", s.max_step > 0.0, "positive"),
                          ("goal_radius", not np.isnan(s.goal_radius), "a number")):
        if not ok:
            raise DataError(f"{key} must be {what}, got {getattr(s, key)}")
    if t_eval is not None:
        t_eval = [np.asarray(te, dtype=float) for te in t_eval]
        if len(t_eval) != K or any(te.ndim != 1 for te in t_eval):
            raise DimensionError("t_eval must hold one 1-D array of times per start")
        for te, hz in zip(t_eval, H):
            if te.size and (np.any(np.diff(te) <= 0) or te[0] < 0 or te[-1] > hz + 1e-12):
                raise DataError("t_eval must be increasing and inside [0, horizon]")
    event_on = s.goal_radius > 0.0

    t, y = np.zeros(K), X0.copy()
    nev = np.zeros(K, dtype=int)
    ptr = np.zeros(K, dtype=int)
    reached, t_goal = np.zeros(K, dtype=bool), np.full(K, np.nan)
    failures = [None] * K
    ts, xs = [[] for _ in range(K)], [[] for _ in range(K)]
    if event_on:
        reached = _norms(X0) <= s.goal_radius
        t_goal[reached] = 0.0
    active = ~reached
    for r in range(K):
        if t_eval is None or reached[r]:
            ts[r].append(0.0)
            xs[r].append(X0[r].copy())

    f0 = np.zeros((K, n))
    if active.any():
        f0[active] = f.eval(y[active])
    nev[active] += 1
    # cheap standard guess, refined immediately by the controller
    sc = s.abs_tol + s.rel_tol * np.abs(y)
    d0 = np.sqrt(np.mean((y / sc) ** 2, axis=1))
    d1 = np.sqrt(np.mean((f0 / sc) ** 2, axis=1))
    with np.errstate(divide="ignore", invalid="ignore"):
        h = np.where((d0 > 1e-12) & (d1 > 1e-12), 0.01 * d0 / d1, 1e-6 * H)
    h = np.minimum(np.minimum(h, s.max_step), H)

    while True:
        rem = H - t
        active &= rem > 1e-12 * np.maximum(1.0, H)
        h = np.where(active, np.minimum(np.minimum(h, rem), s.max_step), h)
        under = active & (h < 1e-14 * np.maximum(1.0, np.abs(t)))
        for r in np.flatnonzero(under):
            failures[r] = IntegrationError("step size underflow",
                                           last_time=float(t[r]), last_state=y[r].copy())
        active &= ~under
        idx = np.flatnonzero(active)
        if not idx.size:
            break
        # one lock-step attempt by every running start
        y0, hc = y[idx], h[idx, None]
        k = np.empty((idx.size, n, 7))
        k[:, :, 0] = f0[idx]
        for i in range(1, 7):
            k[:, :, i] = f.eval(y0 + hc * _stage_sum(_A[i][None], k)[:, 0])
        nev[idx] += 6
        hS = hc[:, :, None] * _stage_sum(_STEP_WEIGHTS, k)
        y1 = y0 + hS[:, 0]
        sc = s.abs_tol + s.rel_tol * np.maximum(np.abs(y0), np.abs(y1))
        err = np.sqrt(np.mean((hS[:, 1] / sc) ** 2, axis=1))
        # a nan error (the field returned nan or inf) rejects the step too,
        # so such a start ends in step size underflow, not a nan trajectory
        rej = ~(err <= 1.0)
        if rej.any():
            h[idx[rej]] *= np.fmax(0.2, 0.9 * err[rej] ** -0.2)
            acc = ~rej
            idx, y0, hc, k, hS, y1, err = (v[acc] for v in (idx, y0, hc, k, hS, y1, err))
            if not idx.size:
                continue
        C = np.concatenate([y0[:, None], hS[:, 2:6]], axis=1)
        theta, x_stop = np.ones(idx.size), y1.copy()
        if event_on:
            mid = np.concatenate([(y0 + hS[:, 6])[:, None], hS[:, 7:]], axis=1)
            entry = _goal_entries(C, mid, y1, s.goal_radius)
        else:
            entry = np.full(idx.size, np.nan)
        hit = ~np.isnan(entry)
        if hit.any():
            theta[hit] = _locate_crossing(C[hit], hc[hit, 0], s.goal_radius, entry[hit], 1e-6)
            x_stop[hit] = _dense_eval(C[hit], theta[hit, None])
        t_stop = t[idx] + theta * hc[:, 0]

        for p, r in enumerate(idx):
            if t_eval is not None:
                # every requested sample inside this step, in one dense evaluation
                te = t_eval[r]
                end = int(np.searchsorted(te, t_stop[p] + 1e-12, side="right"))
                if end > ptr[r]:
                    th = np.clip((te[ptr[r]:end] - t[r]) / hc[p, 0], 0.0, 1.0)
                    ts[r].extend(te[ptr[r]:end])
                    xs[r].extend(_dense_eval(C[p:p + 1], th[:, None]))
                    ptr[r] = end
                if not hit[p]:
                    continue
            ts[r].append(t_stop[p])
            xs[r].append(x_stop[p])

        done, go = idx[hit], idx[~hit]
        reached[done], t_goal[done], active[done] = True, t_stop[hit], False
        t[go], y[go], f0[go] = t_stop[~hit], y1[~hit], k[~hit, :, 6]   # FSAL
        h[go] *= np.minimum(5.0, np.maximum(0.2, 0.9 * (err + 1e-16) ** -0.2))[~hit]

    results = [failures[r] if failures[r] is not None else RolloutResult(
        np.asarray(ts[r], dtype=float), np.asarray(xs[r]).reshape(-1, n),
        bool(reached[r]), float(t_goal[r]) if reached[r] else None, int(nev[r]))
        for r in range(K)]
    return RolloutBatch(results, int(nev.sum()))


def export_field_grid(f, bounds, resolution):
    """Tabulate the field on a regular 2-D grid.

    bounds = (x1_min, x1_max, x2_min, x2_max); resolution points per axis.
    Returns (column_names, values) with columns x1, x2, f1, f2, lambda_max
    and, for curl-free trained fields, the potential V.  Rows iterate x2
    outer, x1 inner (x1 varies fastest).
    """
    b = np.asarray(bounds, dtype=float).ravel()
    if b.shape[0] != 4:
        raise DimensionError("bounds must hold 4 scalars (2-D fields only)")
    if b[0] >= b[1] or b[2] >= b[3]:
        raise DataError("bounds must satisfy min < max on both axes")
    if resolution < 2:
        raise DataError("resolution must be at least 2")
    g1 = np.linspace(b[0], b[1], resolution)
    g2 = np.linspace(b[2], b[3], resolution)
    X = np.stack([np.tile(g1, resolution), np.repeat(g2, resolution)], axis=1)
    vals = f.eval(X)
    if vals.shape[1] != 2:
        raise DimensionError("grid export supports 2-D fields only")
    lam = max_contraction_eigenvalues(f, X)
    cols = ["x1", "x2", "f1", "f2", "lambda_max"]
    out = [X[:, 0], X[:, 1], vals[:, 0], vals[:, 1], lam]
    if isinstance(f, TrainedField) and f.map.kind.variant == CURL_FREE:
        cols.append("V")
        out.append(features.potential_from_features(f.map, f.eta, X))
    return cols, np.stack(out, axis=1)
