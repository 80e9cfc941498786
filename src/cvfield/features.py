"""Random Fourier feature maps, the vanishing projector, and every quantity
computed from a map's rows.

A map of s scalar frequencies approximates the kernel through
Phi(x)^T Phi(y) ~= K(x, y), where Phi(x) is a (feature_dim, n) matrix
whose row k is the field sqrt(2/s) g(W[k] x + b[k]) U[k]^T.  The rows
W, b, U and the profile g come from the family's entry of `kernels.FORMS`;
a `FeatureMap` builds its rows once, and the features, normal equations,
fields, Jacobians and potential below are each one expression over them,
whatever the family.

Frequencies are drawn from N(0, sigma^-2 I) and phases from U[0, 2 pi)
with a counter-based generator, so a (kind, s, n, seed) tuple always
yields the same map.

Equilibria are enforced exactly by the vanishing projector
L = I - Q Q^T, with Q an orthonormal basis of range [Phi(z_1) ... Phi(z_p)].
The projected features Phi^Z(x) = L Phi(x) span fields that are zero at
every z, and L theta is the effective coefficient vector of the raw map.
Q has r = n |Z| columns, far fewer than feature_dim, so the projector is
held as Q and Z alone and L is applied in its rank-r form v - Q (Q^T v):
the dense (feature_dim, feature_dim) L is never formed.  Q is a function
of the map and the equilibria alone: `build_vanishing_projector` is the one
place it is made, for training and for loading a model alike.
"""

from __future__ import annotations

import warnings
from dataclasses import InitVar, dataclass, field

import numpy as np

from .errors import DimensionError
from .kernels import FORMS, KernelKind


@dataclass(frozen=True, eq=False)
class FeatureMap:
    """s random frequencies and phases of a kernel family, with the rows
    W, b, U that the family's form builds from them, once per map."""

    kind: KernelKind
    freqs: np.ndarray    # (s, n), units 1/mm
    phases: np.ndarray   # (s,), in [0, 2 pi)
    W: np.ndarray = field(init=False, repr=False)   # (feature_dim, n)
    b: np.ndarray = field(init=False, repr=False)   # (feature_dim,)
    U: np.ndarray = field(init=False, repr=False)   # (feature_dim, n)

    def __post_init__(self):
        for name, rows in zip("WbU", self.form.rows(self.freqs, self.phases)):
            object.__setattr__(self, name, rows)

    @property
    def form(self):
        """The family's random-feature form, its entry of `kernels.FORMS`."""
        return FORMS[self.kind.variant]

    @property
    def s(self):
        return self.freqs.shape[0]

    @property
    def n(self):
        return self.freqs.shape[1]

    @property
    def feature_dim(self):
        return self.W.shape[0]

    @property
    def scale(self):
        return np.sqrt(2.0 / self.s)


@dataclass(frozen=True, eq=False)
class VanishingProjector:
    """Projector L = I - Q Q^T onto the complement of range Phi(Z), held as
    its basis Q and Z; L itself is never formed.

    The first constructor argument is accepted and discarded, so that a
    positional call that also passes a dense L builds the same projector,
    which has no L attribute; the package passes None."""

    L: InitVar[object]   # serves bench/tests/test_checks.py; goes with the next benchmark change
    basis: np.ndarray    # Q, (feature_dim, r)
    Z: np.ndarray        # (p, n), possibly empty

    def apply(self, V):
        """V L = V - (V Q) Q^T, L applied along the last axis of V; L is
        symmetric, so for a vector this is L v."""
        return V - (V @ self.basis) @ self.basis.T

    def apply_both_sides(self, H):
        """L H L of a symmetric H, written over H: with M = H Q - Q (Q^T H Q) / 2,
        L H L = H - M Q^T - Q M^T, and no (feature_dim, feature_dim)
        temporary beyond one product."""
        Q = self.basis
        HQ = H @ Q
        M = HQ - 0.5 * (Q @ (Q.T @ HQ))
        H -= M @ Q.T
        H -= Q @ M.T
        return H


def as_points(X, n, what):
    """`X` as a float array of k points (k, n), k = 0 allowed; any other
    shape is a DimensionError naming `what`."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != n:
        raise DimensionError(f"{what} must be a (k, {n}) array of points, not shape {X.shape}")
    return X


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


def _profile(fm, g, X):
    """g(W[k] x + b[k]) at the points X, (N, feature_dim): g is evaluated on
    the s distinct angles w_j^T x + b_j once, and its values repeated over
    the feature_dim / s consecutive rows that share each angle."""
    # the feature products are einsums, not BLAS products: BLAS rounds a row
    # differently depending on how many rows share the call, and a point's
    # field value must have the same bits alone or in a batch (a batch of
    # rollouts relies on it)
    X = np.atleast_2d(np.asarray(X, dtype=float))
    a = np.einsum("nd,ds->ns", X, np.ascontiguousarray(fm.freqs.T))
    a += fm.phases
    k = fm.feature_dim // fm.s
    return g(a) if k == 1 else np.repeat(g(a), k, axis=1)


def feature_rows(fm, X):
    """Stacked transposed features [Phi(x_1)^T; ...], shape (N n, feature_dim);
    its transpose is the block [Phi(x_1) ... Phi(x_N)]."""
    rows = fm.scale * _profile(fm, fm.form.g, X)[:, None, :] * fm.U.T[None, :, :]
    return rows.reshape(-1, fm.feature_dim)


def normal_equations(fm, X, Y):
    """A^T A and A^T y for the raw features A = feature_rows(fm, X) at points
    X (N, n) and the fields y = Y.ravel() at them, Y (N, n), without forming
    A.  With the (N, feature_dim) profiles G = g(X W^T + b),
    A^T A = (2/s) (G^T G) o (U U^T) and A^T y = sqrt(2/s) sum_c (G^T Y) o U."""
    G = _profile(fm, fm.form.g, X)
    moment = fm.scale * np.sum((G.T @ Y) * fm.U, axis=1)
    gram = G.T @ G
    del G                     # freed before U U^T: two (N or p, p) arrays held at most
    gram *= fm.U @ fm.U.T
    gram *= 2.0 / fm.s
    return gram, moment


def field_values(fm, coeffs, X):
    """Fields f(x_t) = Phi(x_t)^T coeffs for a batch of points, (N, n); each
    row is computed independently of the others (see `_profile`)."""
    return np.einsum("nk,dk->nd", fm.scale * (_profile(fm, fm.form.g, X) * coeffs),
                     np.ascontiguousarray(fm.U.T))


def field_jacobians(fm, coeffs, X):
    """Jacobians of f at a batch of points, shape (N, n, n)."""
    c = fm.scale * _profile(fm, fm.form.dg, X) * coeffs     # (N, feature_dim)
    return np.einsum("gk,ka,kb->gab", c, fm.U, fm.W)


def build_vanishing_projector(fm, Z):
    """The projector L = I - Q Q^T for equilibria Z (k, n), held as the
    orthonormal basis Q of range Phi(Z).

    Requires feature_dim > n |Z|.  If the stacked feature block is
    rank-deficient the achieved range is projected out and a warning is
    issued.
    """
    p = fm.feature_dim
    Z = as_points(Z, fm.n, "equilibria")
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
    return VanishingProjector(None, U[:, :rank], Z)


def symmetrized_jacobian_basis(fm, proj, X):
    """Per-component symmetrized Jacobians of the vanished features.

    For points X (m, n), the C-ordered E (m, n, n, feature_dim) has
    E[i, :, :, j] = sym(d/dx of the j-th vanished feature field at x_i), so
    the symmetrized Jacobian of f = Phi^Z(x_i)^T theta is E[i] @ theta.  The
    feature axis is last, as in `field_jacobians`, and this is the layout the
    solver reads: E.reshape(-1, feature_dim) is the map theta -> vec C(theta)."""
    X = as_points(X, fm.n, "constraint points")
    # raw[i, c, d, k] = sqrt(2/s) g'(W[k] x_i + b[k]) U[k, c] W[k, d], shape (m, n, n, p)
    raw = (fm.scale * _profile(fm, fm.form.dg, X)[:, None, None, :]
           * (fm.U.T[:, None] * fm.W.T[None]))
    J = proj.apply(raw.reshape(-1, fm.feature_dim)).reshape(raw.shape)
    return 0.5 * (J + J.transpose(0, 2, 1, 3))   # leaves the symmetric curl-free J as it is


def potential_from_features(fm, coeffs, X):
    """Scalar potential V with f = -grad V at (N, n) points, for a family
    whose form has a potential profile P (curl-free: P = cos).

    V(x) = sqrt(2/s) sum_k coeffs_k P(W[k] x + b[k]); pass the effective
    coefficients L theta of a vanishing field, as for `field_values`.
    """
    if fm.form.potential is None:
        raise ValueError(f"the {fm.kind.variant} map is not a gradient field and has no potential")
    return fm.scale * (_profile(fm, fm.form.potential, X) @ np.asarray(coeffs))
