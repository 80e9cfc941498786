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

The exact kernels, a reference for the feature maps, live in `tests/_exact.py`.
"""

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

GAUSSIAN_SEPARABLE = "gaussian_separable"
CURL_FREE = "curl_free"

# an entry of FORMS: rows(freqs, phases) -> (W, b, U), with W and U
# (feature_dim, n) and b (feature_dim,); the profile g and its derivative dg;
# and potential, the profile P with P' = -g when every field of the map is
# f = -grad V, V(x) = sqrt(2/s) sum_k eta_k P(W[k] x + b[k]), else None
FeatureForm = namedtuple("FeatureForm", "rows g dg potential")


def _separable_rows(freqs, phases):
    s, n = freqs.shape
    return np.repeat(freqs, n, axis=0), np.repeat(phases, n), np.tile(np.eye(n), (s, 1))


FORMS = {GAUSSIAN_SEPARABLE: FeatureForm(_separable_rows, np.cos, lambda a: -np.sin(a), None),
         CURL_FREE: FeatureForm(lambda w, b: (w, b, w), np.sin, np.cos, np.cos)}


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
