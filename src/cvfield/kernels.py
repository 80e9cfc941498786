"""Kernel families and their random-feature forms.

* Gaussian separable:   K(x, y) = exp(-||x-y||^2 / 2 sigma^2) * I
* curl-free:            K(x, y) = (1/sigma^2) exp(-||x-y||^2 / 2 sigma^2)
                                   * (I - (x-y)(x-y)^T / sigma^2)

`features` approximates a kernel by s random frequencies w_j and phases b_j;
each family's map is one row per feature in the form of Brault, d'Alche-Buc
& Heinonen ("Random Fourier Features for Operator-Valued Kernels", 2016):
feature k is the field sqrt(2/s) g(W[k] x + b[k]) U[k].  `FORMS` holds that
form for each family, and it is the one place the families differ:

* Gaussian separable:  g = cos and U[k] a unit vector, feature_dim = s * n.
  Feature k = j n + c is phi_j(x) e_c, with
  phi_j(x) = sqrt(2/s) cos(w_j^T x + b_j): coefficients are feature-major.
* curl-free:  g = sin and U[k] = W[k] = w_k, feature_dim = s.  Feature k
  is minus the gradient of sqrt(2/s) cos(w_k^T x + b_k), so every field of
  the map is a gradient flow f = -grad V, with the potential profile cos.

Every profile is computed from t = tan(a / 2) by the half-angle formulas
sin a = 2 t / (1 + t^2) and cos a = (1 - t^2) / (1 + t^2) = 2 / (1 + t^2) - 1,
within 4.5e-16 of numpy's sin and cos.  numpy's float64 sin and cos are
scalar libm calls, while its tan is a SIMD loop on a CPU with AVX-512: on a
64 x 200 block of angles a profile takes about 50 us against 250 us for
`np.sin` (2-vCPU Xeon, numpy 2.4).  Without AVX-512 numpy's tan is libm
too, and a profile costs about what `np.sin` did.  Each profile is called as
g(a, out=a), like a ufunc, and writes its values over the angles, so the
feature code holds one (N, s) array of angles and none for their profile.

The exact kernels, a reference for the feature maps, live in `tests/_exact.py`.
"""

from collections import namedtuple
from dataclasses import dataclass
from functools import partial

import numpy as np

GAUSSIAN_SEPARABLE = "gaussian_separable"
CURL_FREE = "curl_free"

# an entry of FORMS: rows(freqs, phases) -> (W, b, U), with W and U
# (feature_dim, n) and b (feature_dim,), each frequency's rows consecutive:
# row k's angle W[k] x + b[k] is w_j^T x + b_j for j = k // (feature_dim / s);
# the profile g and its derivative dg; and potential, the profile P with
# P' = -g when every field of the map is f = -grad V,
# V(x) = sqrt(2/s) sum_k eta_k P(W[k] x + b[k]), else None.  Each profile is
# called as g(a, out=a) and writes its values over the angles a
FeatureForm = namedtuple("FeatureForm", "rows g dg potential")


def _separable_rows(freqs, phases):
    s, n = freqs.shape
    return np.repeat(freqs, n, axis=0), np.repeat(phases, n), np.tile(np.eye(n), (s, 1))


# the sine's temporary 1 + t^2 covers blocks of rows of about this many angles
_SINE_BLOCK = 16384


def _half_angle(a, out):
    """t = tan(a / 2), written to `out` when it is given."""
    return np.tan(np.multiply(a, 0.5, out=out), out=out)


def _sin(a, out=None, two=2.0):
    """sin a (two = 2) or -sin a (two = -2) = two t / (1 + t^2), for angles of
    at least one dimension; 1 + t^2 is held for one block of rows at a time."""
    t = _half_angle(a, out)
    rows = max(1, _SINE_BLOCK * len(t) // max(1, t.size))
    for start in range(0, len(t), rows):
        block = t[start:start + rows]
        denominator = np.square(block)
        denominator += 1.0
        block *= two
        block /= denominator
    return t


def _cos(a, out=None):
    """cos a = 2 / (1 + t^2) - 1, in place in t."""
    t = _half_angle(a, out)
    np.square(t, out=t)
    t += 1.0
    np.divide(2.0, t, out=t)
    t -= 1.0
    return t


FORMS = {GAUSSIAN_SEPARABLE: FeatureForm(_separable_rows, _cos, partial(_sin, two=-2.0), None),
         CURL_FREE: FeatureForm(lambda w, b: (w, b, w), _sin, _cos, _cos)}


@dataclass(frozen=True)
class KernelKind:
    """Kernel family selector, one of the keys of `FORMS`, plus bandwidth
    sigma (mm)."""

    variant: str
    sigma: float

    def __post_init__(self):
        if not (isinstance(self.variant, str) and self.variant in FORMS):
            raise ValueError(f"unknown kernel variant {self.variant!r}")
        if not self.sigma > 0:
            raise ValueError("kernel bandwidth sigma must be positive")
