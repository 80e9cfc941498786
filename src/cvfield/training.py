"""Training: `train_field` fits a field to demonstrations under a `TrainConfig`,
and `read_settings` reads a mapping of settings (a config file, a command's
parameters) into a settings dataclass, each value as its field's type.
"""

from __future__ import annotations

import json
import math
from collections.abc import Mapping
from dataclasses import asdict, dataclass, field, fields, is_dataclass
from numbers import Integral, Real
from typing import get_type_hints

import numpy as np

from .dataset import (PreprocessConfig, fill_velocities, resample_and_average,
                      subsample_constraint_points)
from .dynamics import TrainedField
from .errors import ConfigError
from .features import build_vanishing_projector, sample_feature_map
from .kernels import CURL_FREE, KernelKind
from .solver import ADMMSettings, assemble_problem, interior_point_solve, single_blas_thread

# keys in older config files that nothing reads: the former ADMM solver's, the
# soft-constraint weight (0 in every file that trained hard constraints), and
# a point count that the top-level `constraint_points` has always overridden
_RETIRED_KEYS = {"admm": ("rho", "adapt_rho", "slack_weight"),
                 "preprocess": ("constraint_points",)}


@dataclass
class TrainConfig:
    """Training configuration.

    `admm` holds the solver settings under their historical name; training
    runs `interior_point_solve`, which imposes the constraints hard and reads
    `max_iters` as its cap on Newton steps and `eps_abs` + `eps_rel`
    |objective| as its duality-gap tolerance.  `from_dict` reads a mapping,
    such as a config file, with `read_settings`.
    """

    kernel: str = CURL_FREE
    sigma: float = 5.0
    num_features: int = 200
    lam: float = field(default=0.01, metadata={"key": "lambda"})   # its config key
    tau: float = 0.0
    constraint_points: int = 250
    seed: int = 0
    admm: ADMMSettings = field(default_factory=ADMMSettings)
    preprocess: PreprocessConfig = field(default_factory=PreprocessConfig)

    def validate(self):
        if self.num_features < 1:
            raise ConfigError("num_features must be at least 1")
        if not self.lam > 0:
            raise ConfigError("lambda must be positive (0 is rejected)")
        if self.tau < 0:
            raise ConfigError("tau must be nonnegative")
        if self.constraint_points < 1:
            raise ConfigError("constraint_points must be at least 1")
        if self.seed < 0:
            raise ConfigError("seed must be a nonnegative integer")
        try:
            KernelKind(self.kernel, self.sigma)
            self.preprocess.validate()
        except ValueError as exc:
            raise ConfigError(str(exc))
        if self.admm.max_iters < 1:
            raise ConfigError("admm.max_iters must be at least 1")
        if self.admm.eps_abs < 0 or self.admm.eps_rel < 0:
            raise ConfigError("admm tolerances must be nonnegative")
        return self

    def to_dict(self):
        d = asdict(self)
        d["lambda"] = d.pop("lam")
        return d

    @classmethod
    def from_dict(cls, d):
        admm = (d or {}).get("admm")
        if isinstance(admm, Mapping) and admm.get("slack_weight", 0) != 0:
            raise ConfigError("admm.slack_weight must be 0: soft constraints were "
                              "removed, and training imposes contraction exactly")
        return read_settings(cls, d or {}).validate()


def _read(value, hint, default=None):
    """`value` read as `hint`, a key of `_KINDS`; inf too where that is the default."""
    if hint == list[float]:
        if isinstance(value, str):
            value = [float(tok) for tok in value.split(",") if tok.strip()]
        return [float(_read(v, float)) for v in (value if isinstance(value, list) else [value])]
    if default == np.inf and value in ("inf", np.inf):     # the JSON Infinity or a bare inf
        return np.inf
    if isinstance(value, bool) or not isinstance(value, Real) or not math.isfinite(value):
        raise ValueError
    if hint is int and not float(value).is_integer():
        raise ValueError
    # NumPy scalars become Python numbers, so a config echoes as JSON
    return int(value) if hint is int or isinstance(value, Integral) else float(value)


def _shown(value):
    """`value` for an error message: its JSON, else its repr; never raises."""
    try:
        return json.dumps(value)
    except Exception:
        try:
            return repr(value)
        except Exception:
            return f"a {type(value).__name__}"


_KINDS = {int: "an integer", float: "a finite number", list[float]: "a list of finite numbers"}


def read_settings(cls, mapping, section=None):
    """Dataclass `cls` with the settings of `mapping`, keyed by field name or
    metadata "key"; absent keys keep their defaults, and the retired keys of
    `section` are dropped.  A value is read as its field's type: `int` an
    integer (200.0 reads as 200; 2.5 and true are errors), `float` a finite
    number (or inf where that is the default), `list[float]` a list or the
    string "a,b,...", a settings dataclass a mapping; other types as given.
    NumPy integers and reals read as Python ones.
    An unknown key or a bad value is a ConfigError that names the key.
    """
    if not isinstance(mapping, Mapping):
        raise ConfigError(f"{section or 'settings'} must be a mapping of settings, "
                          f"not {type(mapping).__name__}")
    prefix = f"{section}." if section else ""
    hints = get_type_hints(cls)
    keys = {f.metadata.get("key", f.name): f for f in fields(cls)}
    unknown = sorted(set(mapping) - set(keys) - set(_RETIRED_KEYS.get(section, ())), key=str)
    if unknown:
        raise ConfigError(f"{prefix}{unknown[0]} must be one of the keys {', '.join(keys)}")
    values = {}
    for key, f in ((key, f) for key, f in keys.items() if key in mapping):
        value, hint = mapping[key], hints[f.name]
        if is_dataclass(hint) and not isinstance(value, hint):
            value = read_settings(hint, value, prefix + key)
        elif hint in _KINDS:
            try:
                value = _read(value, hint, f.default)
            except (TypeError, ValueError, OverflowError):
                what = "a number or inf" if f.default == np.inf else _KINDS[hint]
                raise ConfigError(f"{prefix}{key} must be {what}, got {_shown(value)}")
        values[f.name] = value
    return cls(**values)


def train_field(demos, config):
    """Full training pipeline on an in-memory DemoSet.

    Fills in missing velocities, averages the demonstrations, subsamples
    constraint points, draws the feature map and solves the constrained
    regression.  Returns (field, report, averaged_demo).
    """
    config.validate()
    avg = resample_and_average(fill_velocities(demos, config.preprocess), config.preprocess)
    cpoints = subsample_constraint_points(avg, config.constraint_points)
    kind = KernelKind(config.kernel, config.sigma)
    fm = sample_feature_map(kind, config.num_features, demos.dim, config.seed)
    Z = np.zeros((1, demos.dim))          # goal sits at the origin after loading
    proj = build_vanishing_projector(fm, Z)
    with single_blas_thread():        # model bytes independent of the core count
        problem = assemble_problem(fm, proj, (avg.positions, avg.velocities),
                                   cpoints, config.lam, config.tau)
        report = interior_point_solve(problem, config.admm)
    fieldobj = TrainedField(fm, proj, report.theta, Z, config.tau)
    return fieldobj, report, avg
