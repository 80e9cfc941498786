"""Random Fourier feature maps for the two matrix-valued kernels.

A map of s scalar frequencies approximates the kernel through
Phi(x)^T Phi(y) ~= K(x, y), where Phi(x) is a (feature_dim, n) matrix:

* Gaussian separable:  Phi(x) = phi(x) kron I_n with
  phi_j(x) = sqrt(2/s) cos(w_j^T x + b_j), feature_dim = s * n.
  Coefficients are stored feature-major: component (j, c) of theta
  multiplies phi_j(x) e_c.
* curl-free: row j of Phi(x) is sqrt(2/s) sin(w_j^T x + b_j) w_j^T,
  feature_dim = s.

Frequencies are drawn from N(0, sigma^-2 I) and phases from U[0, 2 pi)
with a counter-based generator, so a (kind, s, n, seed) tuple always
yields the same map.

Equilibria are enforced exactly by the vanishing projector
L = I - Q Q^T, with Q an orthonormal basis of range [Phi(z_1) ... Phi(z_p)].
The projected features Phi^Z(x) = L Phi(x) span fields that are zero at
every z, and L theta is the effective coefficient vector of the raw map.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError
from .kernels import CURL_FREE, GAUSSIAN_SEPARABLE, KernelKind


@dataclass(frozen=True, eq=False)
class FeatureMap:
    kind: KernelKind
    freqs: np.ndarray    # (s, n), units 1/mm
    phases: np.ndarray   # (s,), in [0, 2 pi)

    @property
    def s(self):
        return self.freqs.shape[0]

    @property
    def n(self):
        return self.freqs.shape[1]

    @property
    def feature_dim(self):
        if self.kind.variant == GAUSSIAN_SEPARABLE:
            return self.s * self.n
        return self.s

    @property
    def scale(self):
        return np.sqrt(2.0 / self.s)


@dataclass(frozen=True, eq=False)
class VanishingProjector:
    """Projector L = I - Q Q^T onto the complement of range Phi(Z)."""

    L: np.ndarray        # (feature_dim, feature_dim)
    basis: np.ndarray    # Q, (feature_dim, r)
    Z: np.ndarray        # (p, n), possibly empty


def sample_feature_map(kind, s, n, seed):
    """Draw a deterministic feature map from a counter-based RNG stream."""
    if s < 1:
        raise ValueError("need at least one feature")
    if n < 1:
        raise ValueError("state dimension must be at least 1")
    rng = np.random.Generator(np.random.Philox(key=int(seed)))
    freqs = rng.normal(0.0, 1.0 / kind.sigma, size=(s, n))
    phases = rng.uniform(0.0, 2.0 * np.pi, size=s)
    return FeatureMap(kind, freqs, phases)


def _angles(fm, X):
    # the feature products are einsums, not BLAS products: BLAS rounds a row
    # differently depending on how many rows share the call, and a point's
    # field value must have the same bits alone or in a batch (a batch of
    # rollouts relies on it)
    a = np.einsum("nd,ds->ns", X, np.ascontiguousarray(fm.freqs.T))
    a += fm.phases
    return a


def feature_rows(fm, X):
    """Stacked transposed features [Phi(x_1)^T; ...], shape (N n, feature_dim).

    This is the raw design matrix of the regression; right-multiply by a
    projector L to obtain the vanishing variant.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    N = X.shape[0]
    a = _angles(fm, X)
    if fm.kind.variant == GAUSSIAN_SEPARABLE:
        phi = fm.scale * np.cos(a)                      # (N, s)
        rows = phi[:, None, :, None] * np.eye(fm.n)[None, :, None, :]
        return rows.reshape(N * fm.n, fm.feature_dim)
    rows = fm.scale * np.sin(a)[:, None, :] * fm.freqs.T[None, :, :]
    return rows.reshape(N * fm.n, fm.s)


def field_values(fm, coeffs, X):
    """Fields f(x_t) = Phi(x_t)^T coeffs for a batch of points, (N, n).

    Each row is computed independently of the others (see `_angles`).
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    a = _angles(fm, X)
    if fm.kind.variant == GAUSSIAN_SEPARABLE:
        theta = np.asarray(coeffs).reshape(fm.s, fm.n)
        return np.einsum("ns,ds->nd", fm.scale * np.cos(a), np.ascontiguousarray(theta.T))
    return np.einsum("ns,ds->nd", fm.scale * (np.sin(a) * coeffs),
                     np.ascontiguousarray(fm.freqs.T))


def field_jacobians(fm, coeffs, X):
    """Jacobians of f at a batch of points, shape (N, n, n)."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    a = _angles(fm, X)
    if fm.kind.variant == GAUSSIAN_SEPARABLE:
        theta = np.asarray(coeffs).reshape(fm.s, fm.n)
        dphi = -fm.scale * np.sin(a)                    # (N, s)
        return np.einsum("ja,gj,jb->gab", theta, dphi, fm.freqs)
    c = fm.scale * np.cos(a) * coeffs                   # (N, s)
    return np.einsum("gj,ja,jb->gab", c, fm.freqs, fm.freqs)


def build_vanishing_projector(fm, Z):
    """Orthonormal basis of range Phi(Z) and the projector L = I - Q Q^T.

    Requires feature_dim > n |Z|.  If the stacked feature block is
    rank-deficient the achieved range is projected out and a warning is
    issued.
    """
    p = fm.feature_dim
    Z = np.asarray(Z, dtype=float).reshape(-1, fm.n) if np.size(Z) else np.empty((0, fm.n))
    if Z.shape[0] == 0:
        return VanishingProjector(np.eye(p), np.zeros((p, 0)), Z)
    if p <= fm.n * Z.shape[0]:
        raise DimensionError(
            f"need feature_dim > n |Z| ({p} <= {fm.n * Z.shape[0]}) to retain capacity")
    block = feature_rows(fm, Z).T                      # [Phi(z_1) ... Phi(z_p)]
    U, sv, _ = np.linalg.svd(block, full_matrices=False)
    tol = max(block.shape) * np.finfo(float).eps * (sv[0] if sv.size else 0.0)
    rank = int(np.sum(sv > tol))
    if rank < fm.n * Z.shape[0]:
        warnings.warn(
            f"feature block at Z is rank deficient ({rank} < {fm.n * Z.shape[0]}); "
            "projecting the achieved range only")
    Q = U[:, :rank]
    L = np.eye(p) - Q @ Q.T
    return VanishingProjector(L, Q, Z)


def symmetrized_jacobian_basis(fm, proj, X):
    """Per-component symmetrized Jacobians of the vanished features.

    For points X of shape (m, n), returns E of shape (m, feature_dim, n, n)
    with E[i, j] = sym(d/dx of the j-th vanished feature field at x_i), so
    the symmetrized Jacobian of f = Phi^Z(x_i)^T theta is
    sum_j theta_j E[i, j].
    """
    X = np.asarray(X, dtype=float).reshape(-1, fm.n)
    m, n, p = X.shape[0], fm.n, fm.feature_dim
    a = _angles(fm, X)                                               # (m, s)
    if fm.kind.variant == GAUSSIAN_SEPARABLE:
        dphi = -fm.scale * np.sin(a)[:, :, None] * fm.freqs          # (m, s, n)
        M = np.einsum("kaj,ikb->ijab", proj.L.reshape(fm.s, n, p), dphi, optimize=True)
        return 0.5 * (M + M.transpose(0, 1, 3, 2))
    # raw curl-free Jacobians c_k w_k w_k^T are already symmetric
    ww = fm.freqs.T[:, None, :] * fm.freqs.T[None, :, :]             # (n, n, s)
    raw = (fm.scale * np.cos(a))[:, None, None, :] * ww              # (m, n, n, s)
    E = raw.reshape(m * n * n, fm.s) @ proj.L
    return np.ascontiguousarray(E.reshape(m, n, n, p).transpose(0, 3, 1, 2))


def potential_from_features(fm, proj, theta, X):
    """Scalar potential V with f = -grad V, for the curl-free map, at (N, n) points.

    With eta = L theta,  V(x) = sqrt(2/s) sum_j eta_j cos(w_j^T x + b_j).
    """
    if fm.kind.variant != CURL_FREE:
        raise ValueError("potentials are defined for the curl-free map only")
    eta = proj.L @ np.asarray(theta, dtype=float)
    return fm.scale * (np.cos(_angles(fm, np.asarray(X, dtype=float))) @ eta)
