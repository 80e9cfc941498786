"""Kernel families approximated by the random feature maps of `features`.

* Gaussian separable:   K(x, y) = exp(-||x-y||^2 / 2 sigma^2) * I
* curl-free:            K(x, y) = (1/sigma^2) exp(-||x-y||^2 / 2 sigma^2)
                                   * (I - (x-y)(x-y)^T / sigma^2)

The exact kernels, a reference for the feature maps, live in `tests/_exact.py`.
"""

from dataclasses import dataclass

GAUSSIAN_SEPARABLE = "gaussian_separable"
CURL_FREE = "curl_free"
_VARIANTS = (GAUSSIAN_SEPARABLE, CURL_FREE)


@dataclass(frozen=True)
class KernelKind:
    """Kernel family selector plus bandwidth sigma (mm)."""

    variant: str
    sigma: float

    def __post_init__(self):
        if self.variant not in _VARIANTS:
            raise ValueError(f"unknown kernel variant {self.variant!r}")
        if not self.sigma > 0:
            raise ValueError("kernel bandwidth sigma must be positive")
