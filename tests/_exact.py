"""Exact matrix-valued kernels and kernel-ridge fits: the tests' oracle.

The random feature maps of `cvfield.features` approximate these kernels
(see `cvfield.kernels` for the two families).  Either kernel can be turned
into a "vanishing" kernel K^Z that is identically zero whenever one
argument lies in a prescribed point set Z:

    K^Z(x, y) = K(x, y) - K(x, Z) K(Z, Z)^{-1} K(Z, y)

Fields built from K^Z have exact equilibria at every point of Z.

The exact path (`exact_ridge_fit` / `exact_field_eval` /
`exact_potential_eval`) solves the full kernel-expansion ridge regression.
It scales cubically with the number of anchors times n and exists as a
trustworthy reference for the random-feature path, not as the trainer.
`dense_projector` is the same kind of reference for the random-feature
vanishing projector, which the package applies in its rank-r form only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from cvfield.errors import DimensionError
from cvfield.kernels import CURL_FREE, GAUSSIAN_SEPARABLE, KernelKind

# Tikhonov shift applied to K(Z, Z) before it is inverted.
ZSET_REGULARIZATION = 1e-10


class ConditioningError(RuntimeError):
    """A linear system was too ill-conditioned to solve reliably."""


@dataclass(frozen=True)
class ExactModel:
    """Ridge solution over the full (vanishing) kernel expansion.

    `alphas[i]` is the n-vector coefficient attached to anchor point
    `anchors[i]`; `equilibria` is the Z set baked into the kernel.
    """

    kind: KernelKind
    anchors: np.ndarray      # (l, n)
    alphas: np.ndarray       # (l, n)
    equilibria: np.ndarray   # (p, n), possibly empty


def _as_points(X, n=None):
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if n is not None and X.shape[1] != n:
        raise DimensionError(f"expected points in R^{n}, got shape {X.shape}")
    return X


def _scalar_gauss(kind, sq_dists):
    return np.exp(-sq_dists / (2.0 * kind.sigma**2))


def _cross_gram(kind, X, Y):
    """Dense block matrix of base-kernel blocks, shape (|X| n, |Y| n)."""
    X = _as_points(X)
    Y = _as_points(Y, X.shape[1])
    n = X.shape[1]
    diffs = X[:, None, :] - Y[None, :, :]
    k = _scalar_gauss(kind, np.einsum("ijd,ijd->ij", diffs, diffs))
    if kind.variant == GAUSSIAN_SEPARABLE:
        return np.kron(k, np.eye(n))
    s2 = kind.sigma**2
    outer = np.einsum("ija,ijb->ijab", diffs, diffs)
    blocks = (k / s2)[:, :, None, None] * (np.eye(n) - outer / s2)
    lx, ly = X.shape[0], Y.shape[0]
    return blocks.transpose(0, 2, 1, 3).reshape(lx * n, ly * n)


def _vanishing_cross_gram(kind, X, Y, Z):
    base = _cross_gram(kind, X, Y)
    Z = np.asarray(Z, dtype=float)
    if Z.size == 0:
        return base
    Z = _as_points(Z, _as_points(X).shape[1])
    KZZ = _cross_gram(kind, Z, Z)
    KZZ[np.diag_indices_from(KZZ)] += ZSET_REGULARIZATION
    KXZ = _cross_gram(kind, X, Z)
    KZY = _cross_gram(kind, Z, Y)
    try:
        correction = KXZ @ np.linalg.solve(KZZ, KZY)
    except np.linalg.LinAlgError as exc:
        raise ConditioningError(f"K(Z, Z) is singular after regularization: {exc}")
    if not np.all(np.isfinite(correction)):
        raise ConditioningError("K(Z, Z) solve produced non-finite values")
    return base - correction


def eval_kernel(kind, x, y):
    """Evaluate the base kernel at a single pair, returning an (n, n) block."""
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    if x.shape != y.shape:
        raise DimensionError(f"x has shape {x.shape}, y has shape {y.shape}")
    return _cross_gram(kind, x[None, :], y[None, :])


def eval_vanishing_kernel(kind, Z, x, y):
    """Evaluate K^Z at a single pair.  Z empty reduces to the base kernel."""
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    if x.shape != y.shape:
        raise DimensionError(f"x has shape {x.shape}, y has shape {y.shape}")
    return _vanishing_cross_gram(kind, x[None, :], y[None, :], Z)


def gram_matrix(kind, X, Y, Z=()):
    """Block Gram matrix of K^Z over two point lists, (|X| n, |Y| n)."""
    return _vanishing_cross_gram(kind, X, Y, Z)


def dense_projector(proj):
    """The dense vanishing projector L = I - Q Q^T of `proj`, from its basis Q."""
    Q = proj.basis
    return np.eye(Q.shape[0]) - Q @ Q.T


def exact_ridge_fit(kind, Z, X, Xdot, lam):
    """Solve (G + lam I) alpha = vec(Xdot) over the vanishing-kernel Gram G.

    Returns an ExactModel whose field interpolates the training velocities
    in the ridge sense.  lam must be positive.
    """
    X = _as_points(X)
    Xdot = _as_points(Xdot, X.shape[1])
    if X.shape != Xdot.shape:
        raise DimensionError("positions and velocities must have equal shapes")
    if not lam > 0:
        raise ValueError("ridge weight lam must be positive")
    G = gram_matrix(kind, X, X, Z)
    A = G + lam * np.eye(G.shape[0])
    rhs = Xdot.ravel()
    try:
        alpha = np.linalg.solve(A, rhs)
    except np.linalg.LinAlgError as exc:
        raise ConditioningError(f"ridge system is singular: {exc}")
    resid = np.linalg.norm(A @ alpha - rhs)
    if not np.isfinite(resid) or resid > 1e-6 * max(1.0, np.linalg.norm(rhs)):
        raise ConditioningError("ridge system solve did not reach working accuracy")
    Zarr = np.asarray(Z, dtype=float).reshape(-1, X.shape[1]) if np.size(Z) else np.empty((0, X.shape[1]))
    return ExactModel(kind, X, alpha.reshape(X.shape), Zarr)


def exact_field_eval(model, x):
    """Field value sum_i K^Z(x, anchor_i) alpha_i at a single point."""
    x = np.asarray(x, dtype=float).ravel()
    C = _vanishing_cross_gram(model.kind, x[None, :], model.anchors, model.equilibria)
    return C @ model.alphas.ravel()


def exact_potential_eval(model, x):
    """Scalar potential of a curl-free exact model (Z must be empty).

    The sign convention is f = -grad V, so V decreases along trajectories
    of the field.  Closed form:

        V(x) = -(1/sigma^2) sum_i k(x, x_i) (x - x_i)^T alpha_i
    """
    if model.kind.variant != CURL_FREE:
        raise ValueError("potentials are defined for the curl-free kernel only")
    if model.equilibria.size:
        raise ValueError("potential evaluation supports Z = {} only")
    x = np.asarray(x, dtype=float).ravel()
    diffs = x[None, :] - model.anchors
    k = _scalar_gauss(model.kind, np.einsum("id,id->i", diffs, diffs))
    return -float(np.sum(k * np.einsum("id,id->i", diffs, model.alphas))) / model.kind.sigma**2
