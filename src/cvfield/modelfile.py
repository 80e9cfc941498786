"""Model persistence.

Models are stored as a single JSON object (schema_version "1") holding
the training configuration, the feature map draw, the orthonormal basis Q
of the vanishing projector (`features.projector_from_basis` rebuilds
L = I - Q Q^T on load), the solved coefficients, the equilibria and a
summary of the solve, its stop reason included.  Floats survive the round
trip exactly (shortest-round-trip decimal encoding), so save -> load ->
save is byte-identical and a loaded model evaluates identically to the
trained one.
"""

from __future__ import annotations

import json

import numpy as np

from .dynamics import TrainedField
from .errors import DataError, ParseError
from .features import FeatureMap, projector_from_basis
from .kernels import KernelKind

SCHEMA_VERSION = "1"


def _finite_or_none(x):
    x = float(x)
    return x if np.isfinite(x) else None


def report_summary(report):
    return {
        "iters": int(report.iters),
        "dual_residual": _finite_or_none(report.dual_residual),
        "objective": _finite_or_none(report.objective),
        "max_constraint_violation": _finite_or_none(report.max_constraint_violation),
        "converged": bool(report.converged),
        "stop_reason": report.stop_reason,
    }


def save_model(path, field, config=None, report=None):
    """Write a trained field (plus optional config echo and solve summary)."""
    doc = {
        "schema_version": SCHEMA_VERSION,
        "config": config or {},
        "feature_map": {
            "variant": field.map.kind.variant,
            "sigma": field.map.kind.sigma,
            "s": field.map.s,
            "n": field.map.n,
            "freqs": field.map.freqs.tolist(),
            "phases": field.map.phases.tolist(),
        },
        "projector_basis": field.proj.basis.tolist(),
        "equilibria": field.equilibria.tolist(),
        "tau": float(field.tau),
        "theta": field.theta.tolist(),
        "solve_report": report if isinstance(report, dict) or report is None else report_summary(report),
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _numbers(key, value, shape):
    """`value` as finite floats of `shape` (None there matches any length)."""
    try:
        arr = np.asarray(value)
    except ValueError:                      # ragged nesting
        arr = np.asarray(None)
    if (arr.dtype.kind not in "iuf" or arr.ndim != len(shape) or not np.isfinite(arr).all()
            or any(want not in (None, got) for got, want in zip(arr.shape, shape))):
        raise ValueError(f"{key} must be finite numbers of shape {shape}".replace("None", "any"))
    return arr.astype(float)


def load_model(path):
    """Read a model file back into a TrainedField.

    Returns (field, config, solve_report).  A malformed file, a projector
    basis that is not orthonormal among them, is a ParseError that names
    it; a field that does not vanish at its equilibria is a DataError that
    names it."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict):
            raise ValueError(f"a model file holds a JSON object, not {type(doc).__name__}")
        if doc.get("schema_version") != SCHEMA_VERSION:
            raise ValueError(f"unsupported schema_version {doc.get('schema_version')!r}")
        config, report = doc.get("config", {}), doc.get("solve_report")
        if not isinstance(config, dict) or not isinstance(report, (dict, type(None))):
            raise ValueError("config must be an object, and solve_report an object or null")
        fmdoc = doc["feature_map"]
        s, n = fmdoc["s"], fmdoc["n"]
        if not all(type(v) is int and v >= 1 for v in (s, n)):
            raise ValueError("feature_map.s and feature_map.n must be positive integers")
        sigma = float(_numbers("feature_map.sigma", fmdoc["sigma"], ()))
        fm = FeatureMap(KernelKind(fmdoc["variant"], sigma),
                        _numbers("feature_map.freqs", fmdoc["freqs"], (s, n)),
                        _numbers("feature_map.phases", fmdoc["phases"], (s,)))
        p = fm.feature_dim
        Q, Z = doc["projector_basis"], doc["equilibria"]
        Q = np.zeros((p, 0)) if Q == [] else _numbers("projector_basis", Q, (p, None))
        gap = np.abs(Q.T @ Q - np.eye(Q.shape[1])).max(initial=0.0)
        if gap > 1e-10:
            raise ValueError(f"projector_basis is not orthonormal (max |Q^T Q - I| = {gap:.1e})")
        Z = np.zeros((0, n)) if Z == [] else _numbers("equilibria", Z, (None, n))
        theta = _numbers("theta", doc["theta"], (p,))
        tau = float(_numbers("tau", doc.get("tau", 0.0), ()))
    except (KeyError, TypeError) as exc:
        raise ParseError(f"{path}: malformed model file ({exc})")
    except ValueError as exc:                # a JSONDecodeError is one too
        raise ParseError(f"{path}: {exc}")
    try:
        return TrainedField(fm, projector_from_basis(Q, Z), theta, Z, tau), config, report
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None
