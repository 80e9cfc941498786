"""PSD-constrained least squares by a primal-dual interior-point method.

The training problem is

    minimize   ||A theta - b||^2 + lam ||theta||^2
    subject to C_i(theta) + tau_i I  <=  0        (negative semidefinite)

for i = 1..m constraint points, where C_i is the linear map
C_i(theta) = sum_j theta_j E_ij built from symmetrized per-component
feature Jacobians E_ij.

`interior_point_solve` is a primal-dual path-following method with
Nesterov-Todd scaling and Mehrotra's predictor-corrector, after CVXOPT's
`coneqp` (Vandenberghe, "The CVXOPT linear and quadratic cone program
solvers", 2010).  It works in the problem's own structure: m blocks of
n x n, and one p x p Schur complement 2 A^T A + 2 lam I + F^T F per Newton
step, where the (n^2 m, p) matrix F holds the scaled operators
r_i^T E_ij r_i.  Every iterate is strictly feasible: a phase I first
pushes the largest constraint eigenvalue below zero, and phase II then
keeps s_i = -C_i(theta) - tau_i I positive definite.  The constraints are
imposed with a small margin,
C_i(theta) + tau_i I <= -CONTRACTION_MARGIN (1 + tau_i) I, so that a
Jacobian evaluated in another summation order still meets the rate; the
duality gap is certified for this tightened problem.

`ADMMSettings` keeps its historical name and holds the solver settings:

- `max_iters` caps the Newton steps, phase I and phase II together;
- `eps_abs` and `eps_rel` set the stopping rule: the certified duality
  gap, an upper bound on objective minus optimum, must fall to
  eps_abs + eps_rel |objective|;
- `slack_weight` w > 0 selects soft constraints
  C_i(theta) + tau_i I <= s_i I with the penalty w s_i^2 added to the
  objective; the start (ridge fit, large s) is feasible, so no phase I
  runs.  With hard constraints phase I uses the same slack, shared by all
  points: it minimizes t + rho f(theta) subject to
  C_i(theta) + tau_i I <= t I until t < 0.  If t stays positive at its
  optimum while rho shrinks to 1e-15 t0 / ||b||^2, the rate is reported
  infeasible: any theta that meets it costs f(theta) + t / rho or more.

In the report, `primal_residual` is the feasibility residual, the largest
eigenvalue of C_i(theta) + tau_i I - s_i I when it is positive and 0
otherwise, and `dual_residual` is the certified duality gap of the phase
the run ended in.  `stop_reason` says why the run stopped: "converged",
"max_iters", "infeasible" or "stalled" (rounding stopped progress before
the gap met its tolerance).  A stalled phase I is caught only when its
Newton system or its step fails, so `max_iters` still bounds it.

The solver uses only deterministic dense linear algebra, from numpy.  Inside
`single_blas_thread`, where `cli.train_field` runs it, identical inputs and
settings reproduce bitwise-identical results on any number of cores.
"""

from __future__ import annotations

import ctypes
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import features
from .errors import DimensionError


@dataclass
class ConstrainedLSQProblem:
    design: np.ndarray            # A, (N n, feature_dim)
    targets: np.ndarray           # b, (N n,)
    lam: float
    constraint_ops: np.ndarray     # (m, feature_dim, n, n), symmetric in the last two axes
    tau: np.ndarray                # (m,)

    def __post_init__(self):
        if not self.lam > 0:
            raise ValueError("ridge weight lam must be positive")
        if self.design.shape[0] != self.targets.shape[0]:
            raise DimensionError("design and targets disagree on row count")
        if self.constraint_ops.shape[0] != self.tau.shape[0]:
            raise DimensionError("one tau per constraint point required")
        if self.constraint_ops.shape[0] and self.constraint_ops.shape[1] != self.design.shape[1]:
            raise DimensionError("constraint operators disagree with the design width")


@dataclass
class ADMMSettings:
    max_iters: int = 4000
    eps_abs: float = 1e-6
    eps_rel: float = 1e-6
    slack_weight: float = 0.0   # 0 = hard constraints


@dataclass
class SolveReport:
    theta: np.ndarray
    iters: int
    primal_residual: float
    dual_residual: float
    objective: float
    max_constraint_violation: float
    converged: bool
    slacks: np.ndarray | None = None
    stop_reason: str | None = None


def assemble_problem(fm, proj, pairs, cpoints, lam, tau):
    """Build the regression design and constraint operators.

    `pairs` is the (X, Xdot) pair of position and velocity arrays, each
    (N, n); `cpoints` the constraint points; `tau` the scalar contraction
    rate applied at every constraint point.
    """
    X, Xdot = (np.atleast_2d(np.asarray(a, dtype=float)) for a in pairs)
    if X.shape != Xdot.shape or X.shape[1] != fm.n:
        raise DimensionError("positions and velocities must be (N, n) with n matching the map")
    A = features.feature_rows(fm, X) @ proj.L
    cpoints = np.asarray(cpoints, dtype=float).reshape(-1, fm.n)
    ops = features.symmetrized_jacobian_basis(fm, proj, cpoints)
    return ConstrainedLSQProblem(A, Xdot.ravel(), float(lam), ops,
                                 np.full(cpoints.shape[0], float(tau)))


@contextmanager
def single_blas_thread():
    """Run the block with numpy's OpenBLAS on one thread, then restore its count.

    The count is process-wide, so two threads must not be inside at once.
    numpy.libs/lib<name>64_-<hash>.so exports <name>_{get,set}_num_threads64_;
    where it does not, the block runs unchanged.
    """
    fns = None
    for lib in (Path(np.__file__).parent.parent / "numpy.libs").glob("lib*openblas64_*"):
        base, dll = lib.name[3:].split("64_")[0], ctypes.CDLL(str(lib))
        fns = [getattr(dll, f"{base}_{op}_num_threads64_", None) for op in ("get", "set")]
    get, put = fns if fns and None not in fns else (lambda: None, lambda n: None)
    before = get()
    put(1)
    try:
        yield
    finally:
        put(before)


def _max_violation(C, tau):
    if C.shape[0] == 0:
        return float("-inf")
    shifted = C + tau[:, None, None] * np.eye(C.shape[1])
    return float(np.max(np.linalg.eigvalsh(shifted)[:, -1]))


# phase II imposes C_i(theta) + tau_i I <= -CONTRACTION_MARGIN (1 + tau_i) I
CONTRACTION_MARGIN = 1e-9
# weights of the data term in phase I, in units of t0 / ||b||^2
PHASE1_RHO = (1e-6, 1e-9, 1e-12, 1e-15)
_STALL_STEPS = 10


def _posdef(X):
    try:
        np.linalg.cholesky(X)
    except np.linalg.LinAlgError:
        return False
    return True


def _step_to_boundary(lam, X):
    """Largest a with diag(lam_i) + a X_i >= 0 for every block (inf if none)."""
    li = 1.0 / np.sqrt(lam)
    low = float(np.min(np.linalg.eigvalsh(li[:, :, None] * X * li[:, None, :])[:, 0]))
    return -1.0 / low if low < 0.0 else np.inf


def _interior_point(P, q, G, h, x, max_steps, done, Pinv=None, gap0=0.0, floor=None):
    """Feasible-start primal-dual interior-point method.

    Solves  minimize 1/2 x^T P x + q^T x  subject to  s_i = h_i - G_i(x) >= 0
    for m symmetric k x k blocks, G of shape (m, d, k, k), from a strictly
    feasible x.  Each step tests the Schur complement P + F^T F for positive
    definiteness and solves it for the affine and the Mehrotra direction.
    `done(x, gap, rd)` returns a stop reason or None, where rd is the dual
    residual P x + q + G^T z and gap is <s, z>, plus rd^T P^-1 rd / 2 when
    `Pinv` is P^-1: that sum bounds the objective's distance to the
    optimum, and a run whose bound sets no new low for _STALL_STEPS steps
    has stalled.  `gap0` sizes the starting duals when P is not inverted,
    as an estimate of how far x is from optimal.  No step takes x[-1]
    below `floor`.  Returns (x, steps, gap, reason).
    """
    m, d, k, _ = G.shape
    kk = k * k
    Gblk = np.ascontiguousarray(G.reshape(m, d, kk).transpose(0, 2, 1))   # (m, kk, d)
    Gop = Gblk.reshape(m * kk, d)                                         # x -> vec G(x)
    eye = np.eye(k)

    def slack(v):
        return h - (Gop @ v).reshape(m, k, k)

    # z = mu0 s^-1 starts on the central path.  mu0 best cancels the
    # gradient, but the gap m k mu0 is no less than f(x) - min f, the
    # bound on how far x is from the optimum
    s = slack(x)
    sinv = np.linalg.inv(s)
    sinv = 0.5 * (sinv + sinv.transpose(0, 2, 1))
    grad = P @ x + q
    v = Gop.T @ sinv.ravel()
    vv = float(v @ v)
    mu0 = -float(grad @ v) / vv if vv > 0.0 else 0.0
    if Pinv is not None:
        gap0 = 0.5 * float(grad @ Pinv @ grad)
    mu0 = max(mu0, gap0 / (m * k))
    z = (mu0 if mu0 > 0.0 else 1.0) * sinv

    steps = 0
    best, best_step = np.inf, 0
    while True:
        rd = P @ x + q + Gop.T @ z.ravel()
        sz = float(np.sum(s * z))
        gap = sz + (0.5 * float(rd @ Pinv @ rd) if Pinv is not None else 0.0)
        if gap < best:
            best, best_step = gap, steps
        reason = done(x, gap, rd)
        if reason is None and steps == max_steps:
            reason = "max_iters"
        if reason is None and Pinv is not None and steps - best_step >= _STALL_STEPS:
            reason = "stalled"          # the certified gap stopped shrinking
        if reason is not None:
            return x, steps, gap, reason

        # Nesterov-Todd scaling r_i with r^T s r = r^-1 z r^-T = diag(lam)
        Ls = np.linalg.cholesky(s)
        Lz = np.linalg.cholesky(z)
        _, lam, Vt = np.linalg.svd(Lz.transpose(0, 2, 1) @ Ls)
        r = np.linalg.solve(Ls.transpose(0, 2, 1), Vt.transpose(0, 2, 1))
        r *= np.sqrt(lam)[:, None, :]
        # F rows vec(r_i^T G_ij r_i), through kron(r_i, r_i)^T block by block
        kron = np.einsum("iba,icd->iadbc", r, r).reshape(m, kk, kk)
        F = np.matmul(kron, Gblk).reshape(m * kk, d)
        S = P + F.T @ F
        if not _posdef(S):
            return x, steps, gap, "stalled"
        Lam = lam[:, :, None] * eye
        lsum = lam[:, :, None] + lam[:, None, :]

        def direction(rc):
            # scaled ds + dz = lam <> rc,  G dx + ds = 0,  P dx + G^T dz = -rd
            dm = 2.0 * rc / lsum
            dx = np.linalg.solve(S, -rd - F.T @ dm.ravel())
            Fdx = (F @ dx).reshape(m, k, k)
            return dx, -Fdx, dm + Fdx

        _, ds, dz = direction(-Lam @ Lam)
        a = min(1.0, _step_to_boundary(lam, ds), _step_to_boundary(lam, dz))
        mu = sz / (m * k)
        mu_aff = float(np.sum((Lam + a * ds) * (Lam + a * dz))) / (m * k)
        sigma = min(1.0, max(0.0, mu_aff / mu)) ** 3
        corr = sigma * mu * eye - 0.5 * (ds @ dz + dz @ ds)
        dx, ds, dz = direction(-Lam @ Lam + corr)
        a = min(1.0, 0.99 * min(_step_to_boundary(lam, ds), _step_to_boundary(lam, dz)))
        if floor is not None and x[-1] + a * dx[-1] < floor:
            a = (x[-1] - floor) / -dx[-1]
        dz = r @ dz @ r.transpose(0, 2, 1)
        # rounding can leave the recomputed slack outside the cone: back off
        for _ in range(40):
            x_new = x + a * dx
            s_new = slack(x_new)
            z_new = z + a * dz
            z_new = 0.5 * (z_new + z_new.transpose(0, 2, 1))
            if _posdef(s_new) and _posdef(z_new):
                break
            a *= 0.5
        else:
            return x, steps, gap, "stalled"
        x, s, z = x_new, s_new, z_new
        steps += 1


def interior_point_solve(problem, settings=None):
    """Solve the problem by the primal-dual interior-point method.

    See the module docstring for how `settings` is read.  The returned
    theta is strictly feasible whenever the run reaches phase II, and
    always with soft constraints; `converged` is True when the certified
    duality gap met its tolerance.
    """
    st = settings or ADMMSettings()
    A, b, lam = problem.design, problem.targets, problem.lam
    p = A.shape[1]
    ops = problem.constraint_ops
    m = ops.shape[0]
    n = ops.shape[2] if m else 1
    w = float(st.slack_weight)
    soft = w > 0.0 and m > 0
    eye = np.eye(n)

    P = 2.0 * (A.T @ A) + 2.0 * lam * np.eye(p)
    q = -2.0 * (A.T @ b)
    btb = float(b @ b)
    theta = np.linalg.solve(P, -q)       # the unconstrained ridge optimum

    def objective(x):
        th, sl = x[:p], x[p:]
        return float(np.sum((A @ th - b) ** 2) + lam * (th @ th) + w * (sl @ sl))

    def converged(x, gap, rd):
        return "converged" if gap <= st.eps_abs + st.eps_rel * objective(x) else None

    def report(x, steps, gap, reason):
        C = np.einsum("ipab,p->iab", ops, x[:p]) if m else np.zeros((0, n, n))
        shift = problem.tau - x[p:] if soft else problem.tau
        return SolveReport(
            theta=x[:p],
            iters=steps,
            primal_residual=max(0.0, _max_violation(C, shift)),
            dual_residual=gap,
            objective=objective(x),
            max_constraint_violation=_max_violation(C, problem.tau),
            converged=reason == "converged",
            slacks=x[p:].copy() if soft else None,
            stop_reason=reason,
        )

    if m == 0:
        return report(theta, 0, 0.0, "converged")
    h = -(problem.tau + CONTRACTION_MARGIN * (1.0 + problem.tau))[:, None, None] * eye
    worst = np.linalg.eigvalsh(np.einsum("ipab,p->iab", ops, theta) - h)[:, -1]

    if soft:
        # x = (theta, s):  C_i(theta) - s_i I <= h_i,  plus w ||s||^2
        Gx = np.concatenate([ops, np.zeros((m, m, n, n))], axis=1)
        Gx[np.arange(m), p + np.arange(m)] = -eye
        Px = np.block([[P, np.zeros((p, m))], [np.zeros((m, p)), 2.0 * w * np.eye(m)]])
        x0 = np.concatenate([theta, np.maximum(worst, 0.0) + 1.0])
        x, steps, gap, reason = _interior_point(
            Px, np.concatenate([q, np.zeros(m)]), Gx, h, x0, st.max_iters, converged,
            Pinv=np.linalg.inv(Px))
        return report(x, steps, gap, reason)

    steps1 = 0
    if worst.max() >= 0.0:
        # Phase I: minimize t + rho f(theta) subject to C_i(theta) - t I <= h_i
        # from the strictly feasible (theta_ridge, t0), until t < 0.  The data
        # term keeps the barrier bounded.  If t stays >= 0 at the optimum, any
        # theta meeting tau costs f(theta_1) + t / rho or more (theta_1 the
        # phase I point), and rho shrinks until that bound is beyond reach.
        # Steps stop at t = -t0, so that phase II starts near the data rather
        # than far along a ray of easy tau.
        t0 = worst.max() + 1.0
        G1 = np.concatenate([ops, np.broadcast_to(-eye, (m, 1, n, n))], axis=1)
        x1 = np.append(theta, t0)

        def phase1_done(x, gap, rd):
            if x[-1] < 0.0:
                return "feasible"
            tol = st.eps_abs + st.eps_rel * abs(x[-1])
            return "infeasible" if gap <= tol and np.linalg.norm(rd) <= tol else None

        for rho in PHASE1_RHO:
            rho *= t0 / (btb if btb > 0.0 else 1.0)
            P1 = np.zeros((p + 1, p + 1))
            P1[:p, :p] = rho * P
            x1, used, gap, reason = _interior_point(
                P1, np.append(rho * q, 1.0), G1, h, x1, st.max_iters - steps1, phase1_done,
                gap0=t0, floor=-t0)
            steps1 += used
            if reason != "infeasible":
                break
        if reason != "feasible":
            return report(x1[:p], steps1, gap, reason)
        theta = x1[:p]

    x, steps, gap, reason = _interior_point(
        P, q, ops, h, theta, st.max_iters - steps1, converged, Pinv=np.linalg.inv(P))
    return report(x, steps1 + steps, gap, reason)
