"""PSD-constrained least squares by a primal-dual interior-point method.

The training problem is

    minimize   ||A theta - b||^2 + lam ||theta||^2
    subject to C_i(theta) + tau_i I  <=  0        (negative semidefinite)

for i = 1..m constraint points, where C_i is the linear map
C_i(theta) = sum_j theta_j E_ij built from symmetrized per-component
feature Jacobians E_ij.  The solver needs A and b only through the
normal equations A^T A, A^T b and b^T b, and `assemble_problem` builds
those from the feature map directly, so the (N n, p) design A never
exists; see `features.normal_equations`.  The operators have one layout
from the feature map to the Newton step, the C-ordered (m, n, n, p) array
of `features.symmetrized_jacobian_basis`: its reshape to (m n n, p) is the
map theta -> vec C(theta), so every C_i(theta) is one matrix-vector
product, and phase II reads the problem's array without a copy.

`interior_point_solve` is a primal-dual path-following method with
Nesterov-Todd scaling and Mehrotra's predictor-corrector, after CVXOPT's
`coneqp` (Vandenberghe, "The CVXOPT linear and quadratic cone program
solvers", 2010).  It works in the problem's own structure: m blocks of
n x n, and one p x p Schur complement 2 A^T A + 2 lam I + F^T F per Newton
step (r x r in a basis of the problem's range, below), where the
(m n(n+1)/2, p) matrix F holds the scaled operators r_i^T E_ij r_i packed
as CVXOPT's svec (the lower triangle, off-diagonals times sqrt 2), so
F^T F sums tr(r^T E_ij r r^T E_ik r) with n(n+1)/2 rows per point, not
n^2.  The scaling r_i comes from one batched symmetric
eigendecomposition (Todd, Toh & Tutuncu, "On the Nesterov-Todd direction in
semidefinite programming", SIAM J. Optim., 1998): with Ls, Lz the Cholesky
factors of the slack s_i and the dual z_i, B = Lz^T Ls and
B B^T = U diag(lam^2) U^T, r_i = Lz U diag(lam^-1/2) gives
r^T s r = r^-1 z r^-T = diag(lam).  A block too ill-conditioned for that
(lam^2 <= 0) stalls the run like a failed Newton system.  The slacks, the
step to the cone's boundary and its back-off stay in the n x n form; the
step reads both directions (ds, dz) stacked in one pass, and each back-off
trial factors the new slack and dual stacked in one call.
The paper's motions are planar, so its blocks are 2 x 2, and every small
eigendecomposition and factor a step needs has a closed form that numpy
evaluates elementwise over the whole stack (`_eigvalsh`, `_eigh`,
`_cholesky`): for [[a, b], [b, c]] the eigenvalues mean -+
hypot((a - c)/2, b), the eigenvectors at the angle atan2(2 b, a - c) / 2,
and the factor a^1/2, b / a^1/2, (c - b^2 / a)^1/2.  The smallest lam^2
comes from the rounded B B^T, so a block that rounding has left singular
still stalls.  Blocks of any other size go to numpy's batched LAPACK.
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

`solve_in_range`, which `training.train_field` calls, solves in the
problem's numerical range.  Write G for the (m n n, p) matrix
theta -> vec C(theta).  A part of theta orthogonal to range([A^T, G^T])
changes neither the fit nor any constraint and only adds lam times its
squared norm, so the optimum lies in that range, as do phase I's: the
feature-space form of the representer argument for fits through evaluation
and derivative functionals (Zhou, "Derivative reproducing properties for
kernel methods in learning theory", 2008).  Where the data and the
constraint points lie on one curve, the range is small (r = 55 and 62 of
p = 200 and 1000 on the benchmark's inputs).  `_range_basis` finds it with
a one-pass randomized range finder (Halko, Martinsson & Tropp, "Finding
structure with randomness", SIAM Rev., 2011): Gaussian sketches
gram^2 Omega_1 and G^T Omega_2 of SKETCH_COLUMNS columns, drawn from
Philox with a fixed key, each cut by its SVD at RANGE_CUT of its largest
singular value, then merged with the moment's direction by one more SVD cut
alike; a sketch whose cut keeps every column may have missed part of its
block's range, and then Q is the identity.  The body of
`interior_point_solve`, without its report, solves the reduced problem
(Q^T gram Q, Q^T moment, b^T b, lam, C o Q, tau), whose Newton systems are
r x r, and theta = Q theta_r.  The certificate is the full problem's:
theta is feasible and the reduced run's dual blocks z are >= 0 there, so
<s, z> + rd^T P^-1 rd / 2, with the full dual residual
rd = P theta + q + G^T z and the full P's one factor, is a duality gap as in
phase II.  Where it misses the tolerance, or where the reduced phase II
stalled, the cut is multiplied by _WIDEN and the problem solved again; once
the cut is below unit roundoff, Q is the identity and the solve is the full
one.  Every round's theta is feasible, so a solve that ends without
converging reports the round with the smallest certified gap.  After a
phase I stop the bound is |C*(z)| / tr z on the full operators, which holds
for any z >= 0; a reduced "infeasible" stop whose bound there exceeds the
full phase I's (2 rho u)^1/2 widens the cut alike, since Q may have dropped
a contracting direction.

`SolverSettings`: `max_iters` caps the Newton steps of both phases, and
phase II stops once its certified duality gap, an upper bound on objective
minus optimum, falls to eps_abs + eps_rel |objective|.  The report's `gap`
is the certified duality gap of the phase the run ended in, and
`stop_reason` is "converged", "max_iters", "infeasible" or "stalled" (the
gap set no new low for _STALL_STEPS steps, or a Newton system, direction or
step failed, a direction that is not finite included); `converged` is read
from it.  After a phase I stop, theta is the ridge optimum and
`contraction_bound` is set.  The report also holds the dual blocks z_i
where the run stopped, their weights tr z_i and the count of points that
hold BINDING_SHARE of them (`binding`), and `rank`, the r of the basis
theta was solved in (p for `interior_point_solve`).

The solver uses only deterministic dense linear algebra, and every solve
goes through `_cholesky_solver`.  The ridge matrix P = 2 A^T A + 2 lam I
is factored once per solve, and that factor gives the ridge start and
phase II's gap term rd^T P^-1 rd; a P that is not numerically positive
definite is an error that says lam is too small.  Each Newton step
factors its Schur complement once and solves for both directions with
that factor.  The factor is LAPACK `dpotrf`, and a solve is two
triangular solves `dtrsv` on it, from the OpenBLAS that numpy bundles,
reached through ctypes.  Where numpy's OpenBLAS does not export both,
`np.linalg.cholesky` tests definiteness instead, refusing a factor that
holds nan as LAPACKE's nan check makes `dpotrf` refuse a nan input, and
`np.linalg.solve` solves each system anew.  Inside
`single_blas_thread`, where `training.train_field` runs it, identical
inputs and settings reproduce bitwise-identical results on any number of
cores.
"""

from __future__ import annotations

import ctypes
import functools
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import features
from .errors import ConfigError, DimensionError


@dataclass
class ConstrainedLSQProblem:
    """The training problem through its normal equations: the objective
    |A theta - b|^2 + lam |theta|^2 is
    theta^T gram theta - 2 moment^T theta + btb + lam |theta|^2, and the
    constraints C_i(theta) + tau_i I <= 0 have C_i(theta) =
    constraint_ops[i] @ theta, the feature axis last (see the module
    docstring)."""

    gram: np.ndarray               # A^T A, (feature_dim, feature_dim)
    moment: np.ndarray             # A^T b, (feature_dim,)
    btb: float                     # b^T b
    lam: float
    constraint_ops: np.ndarray     # (m, n, n, feature_dim), symmetric in axes 1 and 2
    tau: np.ndarray                # (m,)

    def __post_init__(self):
        if not self.lam > 0:
            raise ValueError("ridge weight lam must be positive")
        p = self.moment.shape[0]
        if self.gram.shape != (p, p):
            raise DimensionError("gram and moment disagree on the feature count")
        if self.constraint_ops.shape[0] != self.tau.shape[0]:
            raise DimensionError("one tau per constraint point required")
        if self.constraint_ops.shape[-1] != p:
            raise DimensionError("constraint operators disagree with the feature count")
        if not np.all(self.tau >= 0):           # False for nan
            raise ValueError("every tau must be nonnegative")


@dataclass(frozen=True)
class SolverSettings:
    """Settings of `interior_point_solve` (see the module docstring), checked
    when built: a value out of range is a ConfigError naming its key."""

    max_iters: int = 4000
    eps_abs: float = 1e-6
    eps_rel: float = 1e-6

    def __post_init__(self):
        for key, bound in (("max_iters", 1), ("eps_abs", 0), ("eps_rel", 0)):
            if not getattr(self, key) >= bound:           # nan fails it
                raise ConfigError(f"{key} must be at least {bound}")


# a point binds when it is among the fewest that hold this share of sum_i tr z_i
BINDING_SHARE = 0.99


@dataclass
class SolveReport:
    theta: np.ndarray
    iters: int
    gap: float
    objective: float
    max_constraint_violation: float
    dual: np.ndarray               # z, (m, n, n): the dual blocks where the run stopped
    rank: int                      # r, the columns of the basis theta was solved in
    stop_reason: str | None = None
    contraction_bound: float | None = None

    @property
    def converged(self):
        return self.stop_reason == "converged"

    @property
    def weights(self):
        """The per-point weights tr z_i, (m,)."""
        return np.trace(self.dual, axis1=1, axis2=2)

    @property
    def binding(self):
        """The count of points whose weights hold BINDING_SHARE of their sum
        (0 when the sum is 0)."""
        w = np.sort(self.weights)[::-1]
        total = float(np.sum(w))
        return int(np.searchsorted(np.cumsum(w), BINDING_SHARE * total)) + 1 if total > 0 else 0


def assemble_problem(fm, proj, pairs, cpoints, lam, tau):
    """Build the normal equations of the regression and the constraint operators.

    `pairs` is the (X, Xdot) pair of position and velocity arrays, each
    (N, n); `cpoints` the constraint points; `tau` the scalar contraction
    rate applied at every constraint point.  The design A is the vanished
    features, feature_rows(fm, X) L, and b = Xdot.ravel(); A itself is
    never formed: gram = L (A_raw^T A_raw) L and moment = L A_raw^T b.
    """
    X, Xdot = (features.as_points(a, fm.n, name)
               for a, name in zip(pairs, ("positions", "velocities")))
    if X.shape != Xdot.shape:
        raise DimensionError("positions and velocities must hold the same number of points")
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
        return None if _np_cholesky(S) is None else lambda v: np.linalg.solve(S, v)
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
        data = x.ctypes.data
        for trans in (_NO_TRANS, _TRANS):
            trsv(_COL_MAJOR, _LOWER, trans, _NON_UNIT, n, factor, n, data, 1)
        return x
    return solve


def _mean_radius(M):
    # the eigenvalues of the 2 x 2 blocks M = [[a, b], [b, c]] are mean -+ radius
    a, b, c = M[..., 0, 0], M[..., 1, 0], M[..., 1, 1]
    return 0.5 * (a + c), np.hypot(0.5 * (a - c), b)


def _eigvalsh(M):
    """The eigenvalues of the symmetric (..., k, k) blocks M in ascending
    order, as np.linalg.eigvalsh: mean -+ hypot((a - c)/2, b) for k = 2,
    M = [[a, b], [b, c]], and LAPACK for any other k."""
    if M.shape[-1] != 2:
        return np.linalg.eigvalsh(M)
    mean, rad = _mean_radius(M)
    w = np.empty(M.shape[:-1])
    np.subtract(mean, rad, out=w[..., 0])
    np.add(mean, rad, out=w[..., 1])
    return w


def _eigh(M):
    """(w, U) of the symmetric (..., k, k) blocks M, as np.linalg.eigh: for
    k = 2, w from `_eigvalsh` and the columns of U (-sin phi, cos phi) and
    (cos phi, sin phi), phi = atan2(2 b, a - c) / 2; LAPACK for any other k."""
    if M.shape[-1] != 2:
        return np.linalg.eigh(M)
    phi = 0.5 * np.arctan2(2.0 * M[..., 1, 0], M[..., 0, 0] - M[..., 1, 1])
    U = np.empty(M.shape)
    np.cos(phi, out=U[..., 1, 0])
    np.sin(phi, out=U[..., 1, 1])
    U[..., 0, 1] = U[..., 1, 0]
    np.negative(U[..., 1, 1], out=U[..., 0, 0])
    return _eigvalsh(M), U


def _np_cholesky(M):
    """np.linalg.cholesky(M), or None when a block is not positive definite or
    holds nan: numpy's OpenBLAS tests a pivot by <= 0 only and passes a nan
    into the factor, where LAPACKE's dpotrf refuses a nan input."""
    try:
        L = np.linalg.cholesky(M)
    except np.linalg.LinAlgError:
        return None
    return None if np.isnan(L).any() else L


def _cholesky(M):
    """The lower Cholesky factors of the symmetric (..., k, k) blocks M, as
    np.linalg.cholesky, or None when a block is not positive definite: for
    k = 2, l00 = a^1/2, l10 = b / l00 and l11 = (c - l10^2)^1/2, each root
    taken once its argument is known positive (nan is not); `_np_cholesky`
    for any other k."""
    if M.shape[-1] != 2:
        return _np_cholesky(M)
    a, b, c = M[..., 0, 0], M[..., 1, 0], M[..., 1, 1]
    if not a.min() > 0.0:
        return None
    L = np.zeros(M.shape)
    l00 = np.sqrt(a, out=L[..., 0, 0])
    l10 = np.divide(b, l00, out=L[..., 1, 0])
    d = c - l10 * l10
    if not d.min() > 0.0:
        return None
    np.sqrt(d, out=L[..., 1, 1])
    return L


def _apply(G, x):
    """The blocks G_i(x) = G[i] @ x, (m, k, k), of the (m, k, k, d) operators
    G: one product with G read as the (m k k, d) matrix x -> vec G(x)."""
    return (G.reshape(-1, G.shape[-1]) @ x).reshape(G.shape[:-1])


def _max_eigenvalue(G, x, shift):
    """The largest lambda_max(G_i(x) + shift_i I) over the blocks i of the
    (m, k, k, d) operators G."""
    return float(np.max(_eigvalsh(_apply(G, x) + shift[:, None, None] * np.eye(G.shape[1]))))


# phase II imposes C_i(theta) + tau_i I <= -CONTRACTION_MARGIN (1 + tau_i) I
CONTRACTION_MARGIN = 1e-9
_STALL_STEPS = 10


def _step_to_boundary(li, X):
    """Largest a with diag(lam_i) + a X_ji >= 0 for every block i of every
    direction j of the stacked (j, m, k, k) X (inf if none), from
    li = lam^-1/2: -1 over the smallest eigenvalue of the blocks li X li,
    mean - hypot((a - c)/2, b) alone for k = 2, LAPACK's for any other k."""
    M = li[:, :, None] * X * li[:, None, :]
    if M.shape[-1] == 2:
        mean, rad = _mean_radius(M)
        low = float(np.min(mean - rad))
    else:
        low = float(np.min(np.linalg.eigvalsh(M)[..., 0]))
    return -1.0 / low if low < 0.0 else np.inf


def _nt_scaling(Ls, Lz):
    """Nesterov-Todd scaling (lam, r) of the blocks s = Ls Ls^T, z = Lz Lz^T,
    with r_i^T s_i r_i = r_i^-1 z_i r_i^-T = diag(lam_i), or None when a
    block is too ill-conditioned to scale (Todd, Toh & Tutuncu, 1998): with
    B = Lz^T Ls and B B^T = U diag(lam^2) U^T, r = Lz U diag(lam^-1/2).
    (lam^2, U) comes from `_eigh`, in closed form for 2 x 2 blocks.  There
    the smallest lam^2 is mean - hypot of the rounded B B^T, which is 0 or
    less where B B^T rounds to a singular block; det(B)^2 / lam_max^2 would
    be more accurate, and would scale a block whose B B^T has lost its
    smaller eigenvalue to rounding."""
    B = Lz.transpose(0, 2, 1) @ Ls
    lam2, U = _eigh(B @ B.transpose(0, 2, 1))
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


def _scaled_rows(r, G, rows, weights):
    """F, the svec rows of r_i^T G_ij r_i, of shape (m k(k+1)/2, d), from the
    (m, k, k, d) operators G: the svec rows of kron(r_i, r_i)^T times G_i
    read as the (k k, d) matrix of vec G_ij."""
    m, k, _, d = G.shape
    a, b = np.divmod(rows, k)
    kron = np.einsum("ibt,ict->itbc", r[:, :, a] * weights, r[:, :, b])
    return np.matmul(kron.reshape(m, rows.size, k * k), G.reshape(m, k * k, d)).reshape(-1, d)


def _interior_point(P, q, G, h, x, max_steps, stop):
    """Feasible-start primal-dual interior-point method.

    Solves  minimize 1/2 x^T P x + q^T x  subject to  s_i = h_i - G_i(x) >= 0
    for m symmetric k x k blocks, G of shape (m, k, k, d), from a strictly
    feasible x.  G is read through reshapes only, as the (m k k, d) matrix
    x -> vec G(x) and as m (k k, d) blocks, so a C-ordered G is never copied.
    Each step factors the Schur complement P + F^T F once, which tests it
    for positive definiteness, and solves with that factor for the affine
    and the Mehrotra direction.
    P x is formed once per iterate, and `stop(x, Px, sz, rd)` reads it with
    sz = <s, z> and the dual residual rd = P x + q + G^T z; it returns
    (gap, reason), gap bounding the objective's distance to the optimum and
    reason a stop reason or None (read after the first iterate only).  A
    run whose bound sets no new low for _STALL_STEPS steps, or whose Newton
    system, scaling, direction or step fails, has stalled.  Returns
    (x, steps, gap, reason, z), z the (m, k, k) dual blocks at x.
    """
    m, k, _, d = G.shape
    kk = k * k
    Gop = G.reshape(m * kk, d)            # x -> vec G(x)
    eye = np.eye(k)
    rows, weights, slots = _svec(k)

    # z = mu0 s^-1 starts on the central path: mu0 best cancels the gradient,
    # but the gap m k mu0 is no less than the bound at z = 0, if there is one
    s = h - _apply(G, x)
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
    Ls, Lz = _cholesky(s), _cholesky(z)

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
            return x, steps, gap, reason, z

        # a start that rounding leaves without a factor stalls like a block
        # that cannot be scaled; an accepted step always has both factors
        scaling = None if Ls is None or Lz is None else _nt_scaling(Ls, Lz)
        if scaling is None:
            return x, steps, gap, "stalled", z
        lam, r = scaling
        F = _scaled_rows(r, G, rows, weights)
        solve = _cholesky_solver(P + F.T @ F)
        if solve is None:
            return x, steps, gap, "stalled", z
        Lam = lam[:, :, None] * eye
        rc_aff = -Lam @ Lam
        li = 1.0 / np.sqrt(lam)
        lsum = lam[:, :, None] + lam[:, None, :]

        def direction(rc):
            # scaled ds + dz = lam <> rc,  G dx + ds = 0,  P dx + G^T dz = -rd;
            # (ds, dz) stacked as one (2, m, k, k) array
            dm = 2.0 * rc / lsum
            dx = solve(-rd - F.T @ (dm.reshape(m, kk)[:, rows] * weights).ravel())
            Fdx = ((F @ dx).reshape(m, -1) / weights)[:, slots].reshape(m, k, k)
            D = np.empty((2, m, k, k))
            np.negative(Fdx, out=D[0])
            np.add(dm, Fdx, out=D[1])
            return dx, D

        _, D = direction(rc_aff)
        # a factor holding nan gives a direction that is not finite; ds is
        # dm - dz, and the corrector solves with the same factor
        if not np.isfinite(D[1]).all():
            return x, steps, gap, "stalled", z
        a = min(1.0, _step_to_boundary(li, D))
        mu = sz / (m * k)
        s_aff, z_aff = Lam + a * D
        mu_aff = float(np.sum(s_aff * z_aff)) / (m * k)
        sigma = min(1.0, max(0.0, mu_aff / mu)) ** 3
        cross = D @ D[::-1]                     # ds dz and dz ds in one product
        corr = sigma * mu * eye - 0.5 * (cross[0] + cross[1])
        dx, D = direction(rc_aff + corr)
        a = min(1.0, 0.99 * _step_to_boundary(li, D))
        dz = r @ D[1] @ r.transpose(0, 2, 1)
        # rounding can leave the recomputed slack outside the cone: back off;
        # the slack and the dual are factored in one stacked call, and the
        # factors that accept the step serve the next one
        for _ in range(40):
            x_new = x + a * dx
            stacked = np.empty((2, m, k, k))           # the new slack and dual
            np.subtract(h, _apply(G, x_new), out=stacked[0])
            z_new = z + a * dz
            np.multiply(0.5, z_new + z_new.transpose(0, 2, 1), out=stacked[1])
            L = _cholesky(stacked)
            if L is not None:
                break
            a *= 0.5
        else:
            return x, steps, gap, "stalled", z
        x, (s, z), (Ls, Lz) = x_new, stacked, L
        Px = P @ x
        steps += 1


def _ridge(problem):
    """(P, q) = (2 A^T A + 2 lam I, -2 A^T b) of the problem's normal
    equations: the objective is 1/2 theta^T P theta + q^T theta + b^T b."""
    P = 2.0 * problem.gram
    P.flat[::P.shape[0] + 1] += 2.0 * problem.lam      # + 2 lam I, on the diagonal in place
    return P, -2.0 * problem.moment


def _ridge_solver(P, lam):
    """v -> P^-1 v from one Cholesky factor of a copy of the ridge matrix P;
    np.linalg.LinAlgError when lam is too small for P to have one."""
    solve_P = _cholesky_solver(P.copy())
    if solve_P is None:
        raise np.linalg.LinAlgError(f"lambda = {lam:g} is too small: the ridge matrix "
                                    "2 A^T A + 2 lambda I is not numerically positive definite")
    return solve_P


def _objective(x, Px, q, btb):
    # |A x - b|^2 + lam |x|^2 as 1/2 x^T P x + q^T x + b^T b
    return 0.5 * float(x @ Px) + float(q @ x) + btb


def _duality_gap(sz, rd, solve_P):
    """Objective minus dual value at a feasible x and a dual z >= 0, from
    sz = <s, z> and the dual residual rd = P x + q + G^T z: the Lagrangian
    at z is minimized by x - P^-1 rd, so the gap is sz + rd^T P^-1 rd / 2."""
    return sz + 0.5 * float(rd @ solve_P(rd))


def _shift(tau):
    # the tightened constraints are C_i(theta) + shift_i I <= 0
    return tau + CONTRACTION_MARGIN * (1.0 + tau)


def _report(problem, P, q, x, steps, gap, reason, dual, rank, bound):
    """The report of theta = x, its objective and violation on the problem's
    own normal equations and operators."""
    ops = problem.constraint_ops
    violation = _max_eigenvalue(ops, x, problem.tau) if ops.shape[0] else float("-inf")
    return SolveReport(theta=x, iters=steps, gap=gap,
                       objective=_objective(x, P @ x, q, problem.btb),
                       max_constraint_violation=violation, dual=dual, rank=rank,
                       stop_reason=reason, contraction_bound=bound)


def interior_point_solve(problem, settings=None):
    """Solve the problem by the primal-dual interior-point method, in all p
    coordinates (the report's rank is p).

    See the module docstring for how `settings` is read and what theta
    the report holds; the report is `converged` when the gap met its
    tolerance, and `objective` is |A theta - b|^2 + lam |theta|^2 evaluated from the
    normal equations.  Raises np.linalg.LinAlgError when lam is too small
    for the ridge matrix 2 A^T A + 2 lam I to have a Cholesky factor.
    """
    P, q = _ridge(problem)
    x, steps, gap, reason, z, bound = _solve(problem, settings or SolverSettings(), P, q)
    return _report(problem, P, q, x, steps, gap, reason, z, q.shape[0], bound)


def _solve(problem, st, P, q):
    """(theta, steps, gap, stop reason, z, contraction bound) of the
    interior-point method on the problem, whose ridge matrix and linear term
    are P and q: the body of `interior_point_solve`, without its report.  The
    bound is None unless the run stopped in phase I."""
    p = q.shape[0]
    ops = problem.constraint_ops
    m, n = ops.shape[:2]
    eye = np.eye(n)

    solve_P = _ridge_solver(P, problem.lam)
    theta = solve_P(-q)                  # the unconstrained ridge optimum

    if m == 0:
        return theta, 0, 0.0, "converged", np.zeros((0, n, n)), None
    shift = _shift(problem.tau)
    h = -shift[:, None, None] * eye
    worst = _max_eigenvalue(ops, theta, shift)

    steps1 = 0
    if worst >= 0.0:
        # phase I over x = (theta, t), from e_t = (0, 1); see the module docstring
        rho = float(np.sum(ops * ops)) / (m * n * p)
        if rho == 0.0:                       # C_i(theta) = 0 for every theta
            return theta, 0, 0.0, "infeasible", np.zeros((m, n, n)), 0.0
        bound = {}

        def phase1_stop(x, Px, sz, rd):
            # z / tr z is dual feasible: tr z = 1 - rd_t, C*(z) = rd_theta - rho theta
            trz, cz = 1.0 - rd[-1], rd[:p] - rho * x[:p]
            eps = bound["eps"] = float(np.linalg.norm(cz)) / trz if trz > 0.0 else np.inf
            gap = x[-1] + 0.5 * rho * float(x[:p] @ x[:p]) + eps * eps / (2.0 * rho)
            return gap, ("feasible" if x[-1] < 0.0
                         else "infeasible" if gap <= np.finfo(float).eps else None)

        e_t = np.append(np.zeros(p), 1.0)
        G1 = np.concatenate([ops, np.broadcast_to(-eye[:, :, None], (m, n, n, 1))], axis=-1)
        x1, steps1, gap, reason, z = _interior_point(rho * np.diag(1.0 - e_t), e_t, G1, 0.0 * h,
                                                     e_t, st.max_iters, phase1_stop)
        if reason != "feasible":
            return theta, steps1, gap, reason, z, bound["eps"]
        # Weyl: lambda_max(C_i(theta + a theta_c) + shift_i I) <= worst - a lam_c,
        # lam_c = -max_i lambda_max(C_i(theta_c)) > 0: this a leaves 1% of worst + lam_c
        lam_c = -_max_eigenvalue(ops, x1[:p], np.zeros(m))
        theta = theta + (1.01 * worst / lam_c + 1.0) * x1[:p]

    def phase2_stop(x, Px, sz, rd):
        gap = _duality_gap(sz, rd, solve_P)
        tol = st.eps_abs + st.eps_rel * _objective(x, Px, q, problem.btb)
        return gap, ("converged" if gap <= tol else None)

    x, steps, gap, reason, z = _interior_point(P, q, ops, h, theta, st.max_iters - steps1,
                                               phase2_stop)
    return x, steps1 + steps, gap, reason, z, None


# the range basis (see the module docstring): each block's sketch has
# SKETCH_COLUMNS columns; the cut is relative to the largest singular value,
# and each widening of the basis multiplies it by _WIDEN, down to the
# identity once it is below unit roundoff
SKETCH_COLUMNS = 64
RANGE_CUT = 1e-8
_WIDEN = 1e-3
_SKETCH_KEY = 20110302           # Philox key of the sketch's Gaussian draws


def _range_basis(problem, cut):
    """An orthonormal basis Q (p, r) of the problem's numerical range at the
    relative `cut`: the moment's direction, and the left singular vectors
    above the cut of seeded sketches gram^2 Omega_1 and G^T Omega_2 (G the
    (m n n, p) matrix theta -> vec C(theta)), merged by one more SVD cut
    alike.  The identity when the cut is below unit roundoff, when a sketch
    narrower than its block's input keeps every column (the block's range
    may be wider than the sketch), or when Q would have all p columns."""
    p = problem.moment.shape[0]
    if not cut >= np.finfo(float).eps:
        return np.eye(p)
    Gop = problem.constraint_ops.reshape(-1, p)
    rng = np.random.Generator(np.random.Philox(key=_SKETCH_KEY))
    kept = [problem.moment[:, None] / (np.linalg.norm(problem.moment) or 1.0)]
    for apply, rows in ((lambda W: problem.gram @ (problem.gram @ W), p),
                        (lambda W: Gop.T @ W, Gop.shape[0])):
        width = min(SKETCH_COLUMNS, p, rows)
        if width == 0:                   # no constraint points
            continue
        U, sv, _ = np.linalg.svd(apply(rng.standard_normal((rows, width))),
                                 full_matrices=False)
        keep = sv > cut * sv[0]
        if keep.all() and width < rows:
            return np.eye(p)
        kept.append(U[:, keep])
    U, sv, _ = np.linalg.svd(np.hstack(kept), full_matrices=False)
    Q = U[:, sv > cut * sv[0]]
    return np.eye(p) if Q.shape[1] == p else Q


def solve_in_range(problem, settings=None):
    """Solve the problem in a basis Q of its numerical range: theta = Q theta_r,
    theta_r from the interior-point method of `interior_point_solve` on the
    reduced problem (Q^T gram Q, Q^T moment, b^T b, lam, C o Q, tau), whose
    own objective and violation are never computed.

    The certificate is the full problem's: the report's gap is the duality
    gap of theta and the reduced run's z on the full problem, and where it
    misses eps_abs + eps_rel |objective| after a converged reduced run, where
    the reduced phase II stalled, or where the contraction bound of an
    "infeasible" one exceeds the full phase I's roundoff level, Q is widened
    and the problem solved again, until Q is the identity.  The
    objective and the violation are the full problem's, `iters` counts
    the Newton steps of every run against `max_iters`, and `rank` is r.
    Where phase II ends without converging, the report holds the round
    whose certified gap is the smallest.  After a phase I stop, theta is the
    ridge optimum over range Q and the contraction bound is |C*(z)| / tr z
    on the full operators.  Raises np.linalg.LinAlgError as
    `interior_point_solve` does.
    """
    st = settings or SolverSettings()
    p = problem.moment.shape[0]
    ops = problem.constraint_ops
    m, n = ops.shape[:2]
    Gop = ops.reshape(-1, p)
    P, q = _ridge(problem)
    h = -_shift(problem.tau)[:, None, None] * np.eye(n)
    solve_P, steps, cut, best = None, 0, RANGE_CUT, None
    while True:
        Q = _range_basis(problem, cut)
        r = Q.shape[1]
        reduced = ConstrainedLSQProblem(Q.T @ (problem.gram @ Q), Q.T @ problem.moment,
                                        problem.btb, problem.lam,
                                        (Gop @ Q).reshape(m, n, n, r), problem.tau)
        x, taken, gap, reason, z, bound = _solve(
            reduced, replace(st, max_iters=st.max_iters - steps), *_ridge(reduced))
        steps += taken
        theta = Q @ x
        if bound is not None:
            # a phase I stop: |C*(z)| / tr z bounds the rate for any z >= 0,
            # and an "infeasible" one must meet the full phase I's roundoff
            # level (2 rho u)^1/2, rho = |E|_F^2 / (m n p)
            trz = float(np.sum(np.trace(z, axis1=1, axis2=2)))
            if trz > 0.0:
                bound = float(np.linalg.norm(Gop.T @ z.ravel())) / trz
            rho = float(np.sum(ops * ops)) / (m * n * p)
            missed = reason == "infeasible" and bound > (2.0 * rho * np.finfo(float).eps) ** 0.5
        else:
            solve_P = solve_P or _ridge_solver(P, problem.lam)
            Ptheta = P @ theta
            gap = _duality_gap(float(np.sum((h - _apply(ops, theta)) * z)),
                               Ptheta + q + Gop.T @ z.ravel(), solve_P)
            tol = st.eps_abs + st.eps_rel * _objective(theta, Ptheta, q, problem.btb)
            # a stall in range Q may be Q's: a wider Q may converge
            missed = reason == "stalled" or reason == "converged" and gap > tol
            if best is None or gap < best[0]:
                best = gap, theta, z, r
        if missed and r < p:
            if steps < st.max_iters:
                cut *= _WIDEN
                continue
            reason = "max_iters"
        if bound is None and reason != "converged":
            # each round's theta is feasible and certified by its gap
            gap, theta, z, r = best
        return _report(problem, P, q, theta, steps, gap, reason, z, r, bound)
