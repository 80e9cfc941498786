"""Model persistence.

Models are stored as a single JSON object (schema_version "1") holding
the training configuration, the feature map draw, the orthonormal basis Q
of the vanishing projector (L = I - Q Q^T is rebuilt on load), the solved
coefficients, the equilibria and a summary of the solve.  Floats survive
the round trip exactly (shortest-round-trip decimal encoding), so
save -> load -> save is byte-identical and a loaded model evaluates
identically to the trained one.
"""

from __future__ import annotations

import json

import numpy as np

from .dynamics import TrainedField
from .errors import ParseError
from .features import FeatureMap, VanishingProjector
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


def load_model(path):
    """Read a model file back into a TrainedField.

    Returns (field, config, solve_report)."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: {exc}")
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: a model file holds a JSON object, not {type(doc).__name__}")
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise ParseError(f"{path}: unsupported schema_version {doc.get('schema_version')!r}")
    try:
        fmdoc = doc["feature_map"]
        kind = KernelKind(fmdoc["variant"], float(fmdoc["sigma"]))
        freqs = np.asarray(fmdoc["freqs"], dtype=float).reshape(fmdoc["s"], fmdoc["n"])
        phases = np.asarray(fmdoc["phases"], dtype=float).reshape(fmdoc["s"])
        fm = FeatureMap(kind, freqs, phases)
        Qraw = np.asarray(doc["projector_basis"], dtype=float)
        Q = Qraw.reshape(fm.feature_dim, -1) if Qraw.size else np.zeros((fm.feature_dim, 0))
        Z = np.asarray(doc["equilibria"], dtype=float).reshape(-1, fm.n)
        proj = VanishingProjector(np.eye(fm.feature_dim) - Q @ Q.T, Q, Z)
        theta = np.asarray(doc["theta"], dtype=float)
        field = TrainedField(fm, proj, theta, Z, float(doc.get("tau", 0.0)))
    except (KeyError, TypeError) as exc:
        raise ParseError(f"{path}: malformed model file ({exc})")
    return field, doc.get("config", {}), doc.get("solve_report")
