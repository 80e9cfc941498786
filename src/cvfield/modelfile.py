"""Model persistence.

Models are stored as a single JSON object (schema_version "2") holding
the training configuration, the feature map draw, the equilibria, the
solved coefficients and a summary of the solve, its stop reason included.
The vanishing projector is not stored: it is a function of the map and the
equilibria, and `load_model` rebuilds it with
`features.build_vanishing_projector`, so a file cannot hold a projector
that disagrees with them.  Version "1" files, which also stored the
projector's basis and a top-level tau, still load; both keys are ignored.
`load_model` returns the config and the solve summary as stored, so files
written before the solver section and the summary's duality gap were
renamed (the gap was `dual_residual`) load as they are.
Floats survive the round trip exactly (shortest-round-trip decimal
encoding), so save -> load -> save is byte-identical and a loaded model
evaluates identically to the trained one.
"""

from __future__ import annotations

import json

import numpy as np

from .dynamics import TrainedField
from .errors import DataError, ParseError
from .features import FeatureMap, build_vanishing_projector
from .kernels import KernelKind

SCHEMA_VERSION = "2"


def _finite_or_none(x):
    x = float(x)
    return x if np.isfinite(x) else None


def report_summary(report):
    return {
        "iters": int(report.iters),
        "gap": _finite_or_none(report.gap),
        "objective": _finite_or_none(report.objective),
        "max_constraint_violation": _finite_or_none(report.max_constraint_violation),
        "converged": bool(report.converged),
        "stop_reason": report.stop_reason,
    }


def save_model(path, field, config=None, report=None):
    """Write a trained field (plus optional config echo and solve summary).

    Loading rebuilds the projector from the map and the equilibria, so a
    field whose projector basis is not exactly that one would load as
    another field: it is a DataError, and nothing is written.  The document
    is encoded before the file is opened, so a config that JSON cannot
    encode raises TypeError and leaves an existing file as it was."""
    if not np.array_equal(field.proj.basis,
                          build_vanishing_projector(field.map, field.equilibria).basis):
        raise DataError("the field's vanishing projector is not the one of its feature "
                        "map and equilibria, which loading rebuilds")
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
        "equilibria": field.equilibria.tolist(),
        "theta": field.theta.tolist(),
        "solve_report": report if isinstance(report, dict) or report is None else report_summary(report),
    }
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    with open(path, "w") as fh:
        fh.write(text)


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

    Returns (field, config, solve_report).  A malformed file, one with
    feature_dim <= n |equilibria| among them, is a ParseError that names
    it; a field that does not vanish at its equilibria is a DataError that
    names it."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict):
            raise ValueError(f"a model file holds a JSON object, not {type(doc).__name__}")
        if doc.get("schema_version") not in ("1", SCHEMA_VERSION):
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
        Z = doc["equilibria"]
        Z = np.zeros((0, n)) if Z == [] else _numbers("equilibria", Z, (None, n))
        theta = _numbers("theta", doc["theta"], (fm.feature_dim,))
        proj = build_vanishing_projector(fm, Z)
    except (KeyError, TypeError) as exc:
        raise ParseError(f"{path}: malformed model file ({exc})")
    except ValueError as exc:                # a JSONDecodeError is one too
        raise ParseError(f"{path}: {exc}")
    try:
        return TrainedField(fm, proj, theta, Z), config, report
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None
