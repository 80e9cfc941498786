"""Trained fields, contraction diagnostics and trajectory rollout.

A TrainedField packages a feature map, a vanishing projector and solved
coefficients; its field is f(x) = Phi(x)^T (L theta).  The rollout
integrator is a Dormand-Prince 4(5) embedded pair with proportional step
control and a quartic dense-output interpolant; a goal event terminates
integration when the state enters the ball ||x|| <= goal_radius, with the
crossing time localized by bisection on the dense output.

Synthetic fields can be passed anywhere a TrainedField is accepted: any
object with `eval(x)` (and `jacobian(x)` where Jacobians are needed), or a
bare callable x -> xdot for evaluation-only uses.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import features
from .errors import DataError, DimensionError, IntegrationError
from .kernels import CURL_FREE

#:  Dormand-Prince 4(5) tableau
_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
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

    def eval(self, x):
        x = np.asarray(x, dtype=float)
        vals = features.field_values(self.map, self.eta, np.atleast_2d(x))
        return vals[0] if x.ndim == 1 else vals

    def jacobian(self, x):
        return features.eval_feature_jacobians(self.map, x, self.eta)


@dataclass
class IntegratorSettings:
    rel_tol: float = 1e-3
    abs_tol: float = 1e-6       # mm
    max_step: float = np.inf    # seconds
    goal_radius: float = 1.0    # mm; <= 0 disables the goal event
    horizon: float = 10.0       # seconds


@dataclass
class RolloutResult:
    times: np.ndarray         # (T,)
    states: np.ndarray        # (T, n)
    velocities: np.ndarray    # (T, n), field evaluated at the sampled states
    reached_goal: bool
    time_to_goal: float | None
    n_field_evals: int


def field_eval(f, x):
    """Evaluate a trained or synthetic field; accepts a point or a batch."""
    if isinstance(f, TrainedField):
        return f.eval(x)
    if hasattr(f, "eval"):
        return np.asarray(f.eval(x), dtype=float)
    return np.asarray(f(x), dtype=float)


def _eval_many(f, X):
    if isinstance(f, TrainedField):
        return f.eval(np.atleast_2d(X))
    return np.stack([field_eval(f, x) for x in np.atleast_2d(X)])


def field_jacobian(f, x):
    if isinstance(f, TrainedField) or hasattr(f, "jacobian"):
        return np.asarray(f.jacobian(x), dtype=float)
    raise TypeError("field object does not expose a jacobian")


def max_contraction_eigenvalue(f, x):
    """Largest eigenvalue of the symmetrized Jacobian at x."""
    J = field_jacobian(f, x)
    return float(np.linalg.eigvalsh(0.5 * (J + J.T))[-1])


def _dense_eval(y0, h, k, theta):
    """Quartic dense-output polynomial on one accepted step.

    theta in [0, 1] is a scalar, giving one state, or an (S, 1) column,
    giving S states.
    """
    ydiff = h * (_B5 @ k)
    bspl = h * k[0] - ydiff
    r4 = ydiff - h * k[6] - bspl
    r5 = h * (_D @ k)
    return y0 + theta * (ydiff + (1.0 - theta) * (bspl + theta * (r4 + (1.0 - theta) * r5)))


def _locate_crossing(y0, h, k, radius, tol_t):
    # first entry of ||x|| - radius into the nonpositive range, by bisection
    lo, hi = 0.0, 1.0
    while h * (hi - lo) > tol_t:
        mid = 0.5 * (lo + hi)
        if np.linalg.norm(_dense_eval(y0, h, k, mid)) <= radius:
            hi = mid
        else:
            lo = mid
    return hi


def rollout(f, x0, settings=None, t_eval=None, fixed_step=None):
    """Integrate xdot = f(x) from x0 until the horizon or the goal event.

    t_eval requests dense-output samples at the given times (seconds,
    relative to the start); otherwise the accepted integrator steps are
    returned.  fixed_step disables error control and uses the given step
    size (used to probe integrator order).  The event crossing time, when
    reached, is localized to 1e-6 s and appended as the final sample.
    """
    s = settings or IntegratorSettings()
    x0 = np.asarray(x0, dtype=float).ravel()
    if s.horizon <= 0:
        raise DataError("horizon must be positive")
    nev = 0

    def rhs(x):
        nonlocal nev
        nev += 1
        return np.asarray(field_eval(f, x), dtype=float)

    event_on = s.goal_radius > 0.0
    ts, xs = [0.0], [x0.copy()]
    if t_eval is not None:
        t_eval = np.asarray(t_eval, dtype=float).ravel()
        if t_eval.size and (np.any(np.diff(t_eval) <= 0) or t_eval[0] < 0 or t_eval[-1] > s.horizon + 1e-12):
            raise DataError("t_eval must be increasing and inside [0, horizon]")
        ts, xs = [], []

    if event_on and np.linalg.norm(x0) <= s.goal_radius:
        states = np.atleast_2d(x0)
        return RolloutResult(np.array([0.0]), states, _eval_many(f, states), True, 0.0, 0)

    t, y = 0.0, x0.copy()
    f0 = rhs(y)
    if fixed_step is not None:
        h = float(fixed_step)
    else:
        # cheap standard guess, refined immediately by the controller
        sc = s.abs_tol + s.rel_tol * np.abs(y)
        d0 = np.sqrt(np.mean((y / sc) ** 2))
        d1 = np.sqrt(np.mean((f0 / sc) ** 2))
        h = 0.01 * d0 / d1 if d0 > 1e-12 and d1 > 1e-12 else 1e-6 * s.horizon
        h = min(h, s.max_step, s.horizon)
    ptr = 0
    reached, t_goal = False, None
    k = np.empty((7, y.shape[0]))

    while True:
        rem = s.horizon - t
        if rem <= 1e-12 * max(1.0, s.horizon):
            break
        h = min(h, rem, s.max_step)
        if h < 1e-14 * max(1.0, abs(t)):
            raise IntegrationError("step size underflow", last_time=t, last_state=y.copy())
        k[0] = f0
        for i in range(1, 7):
            k[i] = rhs(y + h * (_A[i] @ k[:i]))
        y_new = y + h * (_B5 @ k)
        if fixed_step is None:
            sc = s.abs_tol + s.rel_tol * np.maximum(np.abs(y), np.abs(y_new))
            err = np.sqrt(np.mean((h * (_ERR @ k) / sc) ** 2))
            if err > 1.0:
                h *= max(0.2, 0.9 * err ** -0.2)
                continue
        t_new = t + h

        t_stop, theta_stop = t_new, 1.0
        if event_on and np.linalg.norm(y_new) <= s.goal_radius:
            theta_stop = _locate_crossing(y, h, k, s.goal_radius, 1e-6)
            t_stop = t + theta_stop * h
            reached, t_goal = True, t_stop

        if t_eval is None:
            ts.append(t_stop)
            xs.append(_dense_eval(y, h, k, theta_stop) if reached else y_new.copy())
        else:
            # every requested sample inside this step, in one dense evaluation
            end = int(np.searchsorted(t_eval, t_stop + 1e-12, side="right"))
            if end > ptr:
                th = np.clip((t_eval[ptr:end] - t) / h, 0.0, 1.0)
                ts.extend(t_eval[ptr:end])
                xs.extend(_dense_eval(y, h, k, th[:, None]))
                ptr = end
            if reached:
                ts.append(t_stop)
                xs.append(_dense_eval(y, h, k, theta_stop))

        if reached:
            break
        t, y, f0 = t_new, y_new, k[6].copy()   # FSAL
        if fixed_step is None:
            h *= min(5.0, max(0.2, 0.9 * (err + 1e-16) ** -0.2))

    times = np.asarray(ts)
    states = np.atleast_2d(np.asarray(xs)) if xs else np.empty((0, x0.shape[0]))
    vels = _eval_many(f, states) if states.shape[0] else np.empty_like(states)
    return RolloutResult(times, states, vels, reached, t_goal, nev)


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
    vals = _eval_many(f, X)
    if vals.shape[1] != 2:
        raise DimensionError("grid export supports 2-D fields only")
    if isinstance(f, TrainedField):
        J = features.field_jacobians(f.map, f.eta, X)
    else:
        J = np.stack([field_jacobian(f, x) for x in X])
    lam = np.linalg.eigvalsh(0.5 * (J + J.transpose(0, 2, 1)))[:, -1]
    cols = ["x1", "x2", "f1", "f2", "lambda_max"]
    out = [X[:, 0], X[:, 1], vals[:, 0], vals[:, 1], lam]
    if isinstance(f, TrainedField) and f.map.kind.variant == CURL_FREE:
        cols.append("V")
        out.append(features.potential_from_features(f.map, f.proj, f.theta, X))
    return cols, np.stack(out, axis=1)
