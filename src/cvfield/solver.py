"""PSD-constrained least squares by a primal-dual interior-point method.

The training problem is

    minimize   ||A theta - b||^2 + lam ||theta||^2
    subject to C_i(theta) + tau_i I  <=  0        (negative semidefinite)

for i = 1..m constraint points, where C_i is the linear map
C_i(theta) = sum_j theta_j E_ij built from symmetrized per-component
feature Jacobians E_ij.  The solver needs A and b only through the
normal equations A^T A, A^T b and b^T b, and `assemble_problem` builds
those from the feature map directly, so the (N n, p) design A never
exists; see `features.normal_equations`.

`interior_point_solve` is a primal-dual path-following method with
Nesterov-Todd scaling and Mehrotra's predictor-corrector, after CVXOPT's
`coneqp` (Vandenberghe, "The CVXOPT linear and quadratic cone program
solvers", 2010).  It works in the problem's own structure: m blocks of
n x n, and one p x p Schur complement 2 A^T A + 2 lam I + F^T F per Newton
step, where the (m n(n+1)/2, p) matrix F holds the scaled operators
r_i^T E_ij r_i packed as CVXOPT's svec (the lower triangle, off-diagonals
times sqrt 2), so F^T F sums tr(r^T E_ij r r^T E_ik r) with n(n+1)/2 rows
per point, not n^2.  The scaling r_i comes from one batched symmetric
eigendecomposition (Todd, Toh & Tutuncu, "On the Nesterov-Todd direction in
semidefinite programming", SIAM J. Optim., 1998): with Ls, Lz the Cholesky
factors of the slack s_i and the dual z_i, B = Lz^T Ls and
B B^T = U diag(lam^2) U^T, r_i = Lz U diag(lam^-1/2) gives
r^T s r = r^-1 z r^-T = diag(lam).  A block too ill-conditioned for that
(lam^2 <= 0) stalls the run like a failed Newton system.  The slacks, the
step to the cone's boundary and its back-off stay in the n x n form.
The constraints are hard, and imposed with a small margin,
C_i(theta) + tau_i I <= -CONTRACTION_MARGIN (1 + tau_i) I, so that a
Jacobian evaluated in another summation order still meets the rate; the
duality gap is certified for this tightened problem.

They are linear in theta with positive shifts, so they can be met for one
tau >= 0 exactly when some theta_c has C_i(theta_c) < 0 at every point i,
and then for all tau (the alternative for strict LMIs; Boyd, El Ghaoui,
Feron & Balakrishnan, 1994, 2.2).  When the ridge fit violates one, phase I
(Boyd & Vandenberghe, "Convex Optimization", 2004, 11.4) looks for theta_c
once, whatever tau: it minimizes t + rho |theta|^2 / 2 subject to
C_i(theta) <= t I from (theta, t) = (0, 1), where every slack is I, and
stops "feasible" at the first t < 0.  rho = |E|_F^2 / (m n p) scales the
run: at the start, with mu = 1 / (m n) (z = mu I, tr z = 1), the
objective's curvature rho / mu is the mean eigenvalue of the barrier's,
sum_i tr(E_ij E_ik).  The optimum is -e^2 / (2 rho) for the best rate e of
a unit theta, and any dual point z bounds it below by -eps^2 / (2 rho),
eps = |C*(z)| / tr z: no unit theta has C_i(theta) <= -e I at every point
with e > eps.  Phase I stops "infeasible", with eps as the report's
`contraction_bound`, once its certified gap is below unit roundoff u, so
eps <= (2 rho u)^1/2 (at once, with eps = 0, when every E_ij is zero).
Phase II starts from theta_ridge + a theta_c, strictly feasible by Weyl's
inequality, and keeps s_i = -C_i(theta) - tau_i I positive definite.

`SolverSettings`: `max_iters` caps the Newton steps of both phases, and
phase II stops once its certified duality gap, an upper bound on objective
minus optimum, falls to eps_abs + eps_rel |objective|.  The report's `gap`
is the certified duality gap of the phase the run ended in, and
`stop_reason` is "converged", "max_iters", "infeasible" or "stalled" (the
gap set no new low for _STALL_STEPS steps, or a Newton system or step
failed); `converged` is read from it.  After a phase I stop, theta is the
ridge optimum and `contraction_bound` is set.

The solver uses only deterministic dense linear algebra, and every solve
goes through `_cholesky_solver`.  The ridge matrix P = 2 A^T A + 2 lam I
is factored once per solve, and that factor gives the ridge start and
phase II's gap term rd^T P^-1 rd; a P that is not numerically positive
definite is an error that says lam is too small.  Each Newton step
factors its Schur complement once and solves for both directions with
that factor.  The factor is LAPACK `dpotrf`, and a solve is two
triangular solves `dtrsv` on it, from the OpenBLAS that numpy bundles,
reached through ctypes.  Where numpy's OpenBLAS does not export both,
`np.linalg.cholesky` tests definiteness instead and `np.linalg.solve`
solves each system anew.  Inside
`single_blas_thread`, where `training.train_field` runs it, identical
inputs and settings reproduce bitwise-identical results on any number of
cores.
"""

from __future__ import annotations

import ctypes
import functools
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import features
from .errors import DimensionError


@dataclass
class ConstrainedLSQProblem:
    """The training problem through its normal equations: the objective
    |A theta - b|^2 + lam |theta|^2 is
    theta^T gram theta - 2 moment^T theta + btb + lam |theta|^2."""

    gram: np.ndarray               # A^T A, (feature_dim, feature_dim)
    moment: np.ndarray             # A^T b, (feature_dim,)
    btb: float                     # b^T b
    lam: float
    constraint_ops: np.ndarray     # (m, feature_dim, n, n), symmetric in the last two axes
    tau: np.ndarray                # (m,)

    def __post_init__(self):
        if not self.lam > 0:
            raise ValueError("ridge weight lam must be positive")
        p = self.moment.shape[0]
        if self.gram.shape != (p, p):
            raise DimensionError("gram and moment disagree on the feature count")
        if self.constraint_ops.shape[0] != self.tau.shape[0]:
            raise DimensionError("one tau per constraint point required")
        if self.constraint_ops.shape[0] and self.constraint_ops.shape[1] != p:
            raise DimensionError("constraint operators disagree with the feature count")


@dataclass
class SolverSettings:
    max_iters: int = 4000
    eps_abs: float = 1e-6
    eps_rel: float = 1e-6


@dataclass
class SolveReport:
    theta: np.ndarray
    iters: int
    gap: float
    objective: float
    max_constraint_violation: float
    stop_reason: str | None = None
    contraction_bound: float | None = None

    @property
    def converged(self):
        return self.stop_reason == "converged"


def assemble_problem(fm, proj, pairs, cpoints, lam, tau):
    """Build the normal equations of the regression and the constraint operators.

    `pairs` is the (X, Xdot) pair of position and velocity arrays, each
    (N, n); `cpoints` the constraint points; `tau` the scalar contraction
    rate applied at every constraint point.  The design A is the vanished
    features, feature_rows(fm, X) L, and b = Xdot.ravel(); A itself is
    never formed: gram = L (A_raw^T A_raw) L and moment = L A_raw^T b.
    """
    X, Xdot = (np.atleast_2d(np.asarray(a, dtype=float)) for a in pairs)
    if X.shape != Xdot.shape or X.shape[1] != fm.n:
        raise DimensionError("positions and velocities must be (N, n) with n matching the map")
    gram, moment = features.normal_equations(fm, X, Xdot)
    b = Xdot.ravel()
    ops = features.symmetrized_jacobian_basis(fm, proj, cpoints)
    return ConstrainedLSQProblem(proj.apply_both_sides(gram), proj.apply(moment),
                                 float(b @ b), float(lam), ops,
                                 np.full(ops.shape[0], float(tau)))


@functools.cache
def _openblas():
    """numpy's bundled OpenBLAS as (library, name), or None where numpy has none.

    The library is numpy.libs/lib<name>64_-<hash>.so, with 64-bit integers;
    <name> is, for instance, scipy_openblas.  Resolved on first use, so that
    importing the package loads nothing.
    """
    for lib in (Path(np.__file__).parent.parent / "numpy.libs").glob("lib*openblas64_*"):
        return ctypes.CDLL(str(lib)), lib.name[3:].split("64_")[0]
    return None


def _openblas_functions(symbols, restype, argtypes):
    """The functions of numpy's OpenBLAS named by `symbols`, or None if one is
    missing.  A symbol may hold {name}, the library's <name>, and {prefix},
    <name> without its trailing "openblas" (scipy_ for scipy_openblas)."""
    found = _openblas()
    if found is None:
        return None
    dll, name = found
    fns = [getattr(dll, sym.format(name=name, prefix=name.removesuffix("openblas")), None)
           for sym in symbols]
    if None in fns:
        return None
    for fn, args in zip(fns, argtypes):
        fn.restype, fn.argtypes = restype, args
    return fns


@contextmanager
def single_blas_thread():
    """Run the block with numpy's OpenBLAS on one thread, then restore its count.

    The count is process-wide, so two threads must not be inside at once.
    numpy's OpenBLAS exports <name>_{get,set}_num_threads64_; where it does
    not, the block runs unchanged.
    """
    fns = _openblas_functions(["{name}_get_num_threads64_", "{name}_set_num_threads64_"],
                              ctypes.c_int, [[], [ctypes.c_int]])
    get, put = fns or (lambda: None, lambda n: None)
    before = get()
    put(1)
    try:
        yield
    finally:
        put(before)


_ARRAY = np.ctypeslib.ndpointer(np.float64, flags=("C_CONTIGUOUS", "WRITEABLE"))
_INT = ctypes.c_int64                   # lapack_int and blasint of the 64-bit interface


@functools.cache
def _lapack():
    """LAPACKE dpotrf and CBLAS dtrsv of numpy's OpenBLAS, or None where it lacks one."""
    potrf = _openblas_functions(["{prefix}LAPACKE_dpotrf64_"], _INT,
                                [[ctypes.c_int, ctypes.c_char, _INT, _ARRAY, _INT]])
    trsv = _openblas_functions(["{prefix}cblas_dtrsv64_"], None,
                               [[ctypes.c_int] * 4 + [_INT, ctypes.c_void_p, _INT,
                                                      ctypes.c_void_p, _INT]])
    return None if potrf is None or trsv is None else potrf + trsv


# column-major order: a C-ordered symmetric matrix is its own column-major
# transpose, so LAPACKE factors it in place without copies and CBLAS solves
# with the factor where it lies; the other four are CBLAS's enums
_COL_MAJOR, _LOWER, _NO_TRANS, _TRANS, _NON_UNIT = 102, 122, 111, 112, 131


def _cholesky_solver(S):
    """v -> S^-1 v from one Cholesky factor of the symmetric S, or None when S
    is not positive definite.  Overwrites S with its factor where LAPACK is
    available; see the module docstring."""
    lapack = _lapack()
    if lapack is None:
        try:
            np.linalg.cholesky(S)
        except np.linalg.LinAlgError:
            return None
        return lambda v: np.linalg.solve(S, v)
    potrf, trsv = lapack
    n = S.shape[0]
    if potrf(_COL_MAJOR, b"L", n, S, n) != 0:
        return None

    def solve(v, S=S, factor=S.ctypes.data):
        # S = L L^T: L y = v, then L^T x = y, in place in x; the default
        # argument S keeps the factor's memory alive as long as solve
        x = np.array(v, dtype=float)
        if x.shape != (n,):             # dtrsv reads and writes n entries of x
            raise DimensionError(f"a solve with a factor of order {n} needs {n} entries")
        for trans in (_NO_TRANS, _TRANS):
            trsv(_COL_MAJOR, _LOWER, trans, _NON_UNIT, n, factor, n, x.ctypes.data, 1)
        return x
    return solve


def _max_eigenvalue(ops, theta, shift):
    """The largest lambda_max(C_i(theta) + shift_i I) over the constraint points i."""
    m, _, n, _ = ops.shape
    C = (theta @ ops.reshape(m, -1, n * n)).reshape(m, n, n)
    return float(np.max(np.linalg.eigvalsh(C + shift[:, None, None] * np.eye(n))))


# phase II imposes C_i(theta) + tau_i I <= -CONTRACTION_MARGIN (1 + tau_i) I
CONTRACTION_MARGIN = 1e-9
_STALL_STEPS = 10


def _step_to_boundary(lam, X):
    """Largest a with diag(lam_i) + a X_i >= 0 for every block (inf if none);
    X is (..., m, k, k), so ds and dz stacked take one call."""
    li = 1.0 / np.sqrt(lam)
    low = float(np.min(np.linalg.eigvalsh(li[:, :, None] * X * li[:, None, :])[..., 0]))
    return -1.0 / low if low < 0.0 else np.inf


def _nt_scaling(Ls, Lz):
    """Nesterov-Todd scaling (lam, r) of the blocks s = Ls Ls^T, z = Lz Lz^T,
    with r_i^T s_i r_i = r_i^-1 z_i r_i^-T = diag(lam_i), or None when a
    block is too ill-conditioned to scale (Todd, Toh & Tutuncu, 1998): with
    B = Lz^T Ls and B B^T = U diag(lam^2) U^T, r = Lz U diag(lam^-1/2)."""
    B = Lz.transpose(0, 2, 1) @ Ls
    lam2, U = np.linalg.eigh(B @ B.transpose(0, 2, 1))
    if not lam2[:, 0].min() > 0.0:
        return None
    lam = np.sqrt(lam2)
    return lam, Lz @ U / np.sqrt(lam)[:, None, :]


def _svec(k):
    """The svec packing of symmetric k x k blocks, after CVXOPT: the
    k(k+1)/2 lower-triangle entries, off-diagonals times sqrt 2, so that
    svec(X) . svec(Y) = tr(X Y).  Returns (rows, weights, slots), with
    svec(X) = X.reshape(-1, k k)[:, rows] * weights, unpacked by
    X = (v / weights)[:, slots].reshape(-1, k, k) for v of shape (-1, k(k+1)/2)."""
    a, b = np.tril_indices(k)
    slots = np.empty((k, k), dtype=int)
    slots[a, b] = slots[b, a] = np.arange(a.size)
    return a * k + b, np.where(a == b, 1.0, np.sqrt(2.0)), slots.ravel()


def _scaled_rows(r, Gblk, rows, weights):
    """F, the svec rows of r_i^T G_ij r_i, of shape (m k(k+1)/2, d), from the
    (m, k k, d) vec G_ij: the svec rows of kron(r_i, r_i)^T times vec G_ij."""
    m, k, _ = r.shape
    a, b = np.divmod(rows, k)
    kron = np.einsum("ibt,ict->itbc", r[:, :, a] * weights, r[:, :, b])
    return np.matmul(kron.reshape(m, rows.size, k * k), Gblk).reshape(-1, Gblk.shape[2])


def _interior_point(P, q, G, h, x, max_steps, stop):
    """Feasible-start primal-dual interior-point method.

    Solves  minimize 1/2 x^T P x + q^T x  subject to  s_i = h_i - G_i(x) >= 0
    for m symmetric k x k blocks, G of shape (m, d, k, k), from a strictly
    feasible x.  Each step factors the Schur complement P + F^T F once, which
    tests it for positive definiteness, and solves with that factor for the
    affine and the Mehrotra direction.
    P x is formed once per iterate, and `stop(x, Px, sz, rd)` reads it with
    sz = <s, z> and the dual residual rd = P x + q + G^T z; it returns
    (gap, reason), gap bounding the objective's distance to the optimum and
    reason a stop reason or None (read after the first iterate only).  A
    run whose bound sets no new low for _STALL_STEPS steps, or whose Newton
    system, scaling or step fails, has stalled.  Returns (x, steps, gap, reason).
    """
    m, d, k, _ = G.shape
    kk = k * k
    Gblk = np.ascontiguousarray(G.reshape(m, d, kk).transpose(0, 2, 1))   # (m, kk, d)
    Gop = Gblk.reshape(m * kk, d)                                         # x -> vec G(x)
    eye = np.eye(k)
    rows, weights, slots = _svec(k)

    def slack(v):
        return h - (Gop @ v).reshape(m, k, k)

    # z = mu0 s^-1 starts on the central path: mu0 best cancels the gradient,
    # but the gap m k mu0 is no less than the bound at z = 0, if there is one
    s = slack(x)
    sinv = np.linalg.inv(s)
    sinv = 0.5 * (sinv + sinv.transpose(0, 2, 1))
    Px = P @ x
    grad = Px + q
    v = Gop.T @ sinv.ravel()
    vv = float(v @ v)
    mu0 = -float(grad @ v) / vv if vv > 0.0 else 0.0
    gap0, _ = stop(x, Px, 0.0, grad)      # inf where z = 0 bounds nothing
    if gap0 < np.inf:
        mu0 = max(mu0, gap0 / (m * k))
    z = (mu0 if mu0 > 0.0 else 1.0) * sinv
    Ls, Lz = np.linalg.cholesky(np.stack([s, z]))

    steps = 0
    best, best_step = np.inf, 0
    while True:
        rd = Px + q + Gop.T @ z.ravel()
        sz = float(np.sum(s * z))
        gap, reason = stop(x, Px, sz, rd)
        if gap < best:
            best, best_step = gap, steps
        if reason is None and steps == max_steps:
            reason = "max_iters"
        if reason is None and steps - best_step >= _STALL_STEPS:
            reason = "stalled"          # the certified gap stopped shrinking
        if reason is not None:
            return x, steps, gap, reason

        scaling = _nt_scaling(Ls, Lz)
        if scaling is None:
            return x, steps, gap, "stalled"
        lam, r = scaling
        F = _scaled_rows(r, Gblk, rows, weights)
        solve = _cholesky_solver(P + F.T @ F)
        if solve is None:
            return x, steps, gap, "stalled"
        Lam = lam[:, :, None] * eye
        lsum = lam[:, :, None] + lam[:, None, :]

        def direction(rc):
            # scaled ds + dz = lam <> rc,  G dx + ds = 0,  P dx + G^T dz = -rd
            dm = 2.0 * rc / lsum
            dx = solve(-rd - F.T @ (dm.reshape(m, kk)[:, rows] * weights).ravel())
            Fdx = ((F @ dx).reshape(m, -1) / weights)[:, slots].reshape(m, k, k)
            return dx, -Fdx, dm + Fdx

        _, ds, dz = direction(-Lam @ Lam)
        a = min(1.0, _step_to_boundary(lam, np.stack([ds, dz])))
        mu = sz / (m * k)
        mu_aff = float(np.sum((Lam + a * ds) * (Lam + a * dz))) / (m * k)
        sigma = min(1.0, max(0.0, mu_aff / mu)) ** 3
        corr = sigma * mu * eye - 0.5 * (ds @ dz + dz @ ds)
        dx, ds, dz = direction(-Lam @ Lam + corr)
        a = min(1.0, 0.99 * _step_to_boundary(lam, np.stack([ds, dz])))
        dz = r @ dz @ r.transpose(0, 2, 1)
        # rounding can leave the recomputed slack outside the cone: back off;
        # the factors that accept the step serve the next one
        for _ in range(40):
            x_new = x + a * dx
            s_new = slack(x_new)
            z_new = z + a * dz
            z_new = 0.5 * (z_new + z_new.transpose(0, 2, 1))
            try:
                Ls, Lz = np.linalg.cholesky(np.stack([s_new, z_new]))
                break
            except np.linalg.LinAlgError:
                a *= 0.5
        else:
            return x, steps, gap, "stalled"
        x, s, z = x_new, s_new, z_new
        Px = P @ x
        steps += 1


def interior_point_solve(problem, settings=None):
    """Solve the problem by the primal-dual interior-point method.

    See the module docstring for how `settings` is read and what theta
    the report holds; the report is `converged` when the gap met its
    tolerance, and `objective` is |A theta - b|^2 + lam |theta|^2 evaluated from the
    normal equations.  Raises np.linalg.LinAlgError when lam is too small
    for the ridge matrix 2 A^T A + 2 lam I to have a Cholesky factor.
    """
    st = settings or SolverSettings()
    p = problem.moment.shape[0]
    ops = problem.constraint_ops
    m = ops.shape[0]
    n = ops.shape[2] if m else 1
    eye = np.eye(n)

    P = 2.0 * problem.gram + 2.0 * problem.lam * np.eye(p)
    q = -2.0 * problem.moment
    solve_P = _cholesky_solver(P.copy())
    if solve_P is None:
        raise np.linalg.LinAlgError(f"lambda = {problem.lam:g} is too small: the ridge matrix "
                                    "2 A^T A + 2 lambda I is not numerically positive definite")
    theta = solve_P(-q)                  # the unconstrained ridge optimum

    def objective(x, Px):
        # |A x - b|^2 + lam |x|^2 as 1/2 x^T P x + q^T x + b^T b
        return 0.5 * float(x @ Px) + float(q @ x) + problem.btb

    def report(x, steps, gap, reason, bound=None):
        violation = _max_eigenvalue(ops, x, problem.tau) if m else float("-inf")
        return SolveReport(theta=x, iters=steps, gap=gap, objective=objective(x, P @ x),
                           max_constraint_violation=violation, stop_reason=reason,
                           contraction_bound=bound)

    if m == 0:
        return report(theta, 0, 0.0, "converged")
    shift = problem.tau + CONTRACTION_MARGIN * (1.0 + problem.tau)
    h = -shift[:, None, None] * eye
    worst = _max_eigenvalue(ops, theta, shift)

    steps1 = 0
    if worst >= 0.0:
        # phase I over x = (theta, t), from e_t = (0, 1); see the module docstring
        rho = float(np.sum(ops * ops)) / (m * n * p)
        if rho == 0.0:                       # C_i(theta) = 0 for every theta
            return report(theta, 0, 0.0, "infeasible", 0.0)
        bound = {}

        def phase1_stop(x, Px, sz, rd):
            # z / tr z is dual feasible: tr z = 1 - rd_t, C*(z) = rd_theta - rho theta
            trz, cz = 1.0 - rd[-1], rd[:p] - rho * x[:p]
            eps = bound["eps"] = float(np.linalg.norm(cz)) / trz if trz > 0.0 else np.inf
            gap = x[-1] + 0.5 * rho * float(x[:p] @ x[:p]) + eps * eps / (2.0 * rho)
            return gap, ("feasible" if x[-1] < 0.0
                         else "infeasible" if gap <= np.finfo(float).eps else None)

        e_t = np.eye(p + 1)[p]
        G1 = np.concatenate([ops, np.broadcast_to(-eye, (m, 1, n, n))], axis=1)
        x1, steps1, gap, reason = _interior_point(rho * np.diag(1.0 - e_t), e_t, G1, 0.0 * h,
                                                  e_t, st.max_iters, phase1_stop)
        if reason != "feasible":
            return report(theta, steps1, gap, reason, bound["eps"])
        # Weyl: lambda_max(C_i(theta + a theta_c) + shift_i I) <= worst - a lam_c,
        # lam_c = -max_i lambda_max(C_i(theta_c)) > 0: this a leaves 1% of worst + lam_c
        lam_c = -_max_eigenvalue(ops, x1[:p], np.zeros(m))
        theta = theta + (1.01 * worst / lam_c + 1.0) * x1[:p]

    def phase2_stop(x, Px, sz, rd):
        gap = sz + 0.5 * float(rd @ solve_P(rd))
        return gap, ("converged" if gap <= st.eps_abs + st.eps_rel * objective(x, Px) else None)

    x, steps, gap, reason = _interior_point(P, q, ops, h, theta, st.max_iters - steps1, phase2_stop)
    return report(x, steps1 + steps, gap, reason)
