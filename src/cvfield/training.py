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
from .errors import ConfigError, DataError
from .features import build_vanishing_projector, sample_feature_map
from .kernels import CURL_FREE, KernelKind
from .solver import SolverSettings, assemble_problem, single_blas_thread, solve_in_range

# keys in older config files that nothing reads, each with the one value it may
# hold (None: any): a former solver's step size and its adaptation; the
# soft-constraint weight, 0 in every file that trained hard constraints; and a
# point count that the top-level `constraint_points` has always overridden
_RETIRED_KEYS = {"solver": {"rho": None, "adapt_rho": None, "slack_weight": 0},
                 "preprocess": {"constraint_points": None}}


@dataclass(frozen=True)
class TrainConfig:
    """Training configuration, checked when it is built: a value out of range
    is a ConfigError, and the object cannot be changed afterwards
    (`dataclasses.replace` builds a new one and checks it again).

    `solver` holds the `SolverSettings` of `solve_in_range`, which
    imposes the constraints hard and reads `max_iters` as its cap on Newton
    steps and `eps_abs` + `eps_rel` |objective| as its phase II duality-gap
    tolerance, certified for the full problem.  `solver` and `preprocess`
    check their own values when they are built.  `from_dict` reads a mapping, such as a config file, with
    `read_settings`, which also reads `solver` under its old name, `admm`.
    """

    kernel: str = CURL_FREE
    sigma: float = 5.0
    num_features: int = 200
    lam: float = field(default=0.01, metadata={"key": "lambda"})   # its config key
    tau: float = 0.0
    constraint_points: int = 250
    seed: int = 0
    solver: SolverSettings = field(default_factory=SolverSettings, metadata={"was": "admm"})
    preprocess: PreprocessConfig = field(default_factory=PreprocessConfig)

    def __post_init__(self):
        # each test is False for nan
        for ok, message in ((self.num_features >= 1, "num_features must be at least 1"),
                            (self.lam > 0, "lambda must be positive (0 is rejected)"),
                            (self.tau >= 0, "tau must be nonnegative"),
                            (self.constraint_points >= 1, "constraint_points must be at least 1"),
                            (self.seed >= 0, "seed must be a nonnegative integer")):
            if not ok:
                raise ConfigError(message)
        try:
            KernelKind(self.kernel, self.sigma)
        except ValueError as exc:
            raise ConfigError(str(exc))

    def to_dict(self):
        d = asdict(self)
        d["lambda"] = d.pop("lam")
        return d

    @classmethod
    def from_dict(cls, d):
        return read_settings(cls, d or {})


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
    metadata "key", or by a field's old name in metadata "was" (a mapping
    that gives both names is an error); absent keys keep their defaults, and
    the retired keys of `section` are dropped once they hold the value
    `_RETIRED_KEYS` allows.  A value is read as its field's type: `int` an
    integer (200.0 reads as 200; 2.5 and true are errors), `float` a finite
    number (or inf where that is the default), `list[float]` a list or the
    string "a,b,...", a settings dataclass a mapping; other types as given.
    NumPy integers and reals read as Python ones.
    An unknown key or a bad value is a ConfigError that names the key, a
    nested section's with the section's key in front (`solver.max_iters`):
    that holds too for a value that the settings class rejects when it is
    built, as each checks its own values.  Nested sections are built first,
    so theirs is the error reported when both are bad.
    """
    if not isinstance(mapping, Mapping):
        raise ConfigError(f"{section or 'settings'} must be a mapping of settings, "
                          f"not {type(mapping).__name__}")
    prefix = f"{section}." if section else ""
    hints = get_type_hints(cls)
    keys = {f.metadata.get("key", f.name): f for f in fields(cls)}
    for key, was in ((key, f.metadata["was"]) for key, f in keys.items() if "was" in f.metadata):
        if was in mapping and key in mapping:
            raise ConfigError(f"give one name for {prefix}{key}: rename {prefix}{was} to {key}")
        mapping = {key if k == was else k: v for k, v in mapping.items()}
    unknown = sorted(set(mapping) - set(keys) - set(_RETIRED_KEYS.get(section, {})), key=str)
    if unknown:
        raise ConfigError(f"{prefix}{unknown[0]} must be one of the keys {', '.join(keys)}")
    for key, only in _RETIRED_KEYS.get(section, {}).items():
        if only is not None and mapping.get(key, only) != only:
            # slack_weight is the one key held to a value
            raise ConfigError(f"{prefix}{key} must be {only}: soft constraints were removed")
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
    try:
        return cls(**values)
    except (ConfigError, DataError) as exc:         # the check of `cls`'s own values
        raise ConfigError(f"{prefix}{exc}") from None


def train_field(demos, config):
    """Full training pipeline on an in-memory DemoSet.

    Fills in missing velocities, averages the demonstrations, subsamples
    constraint points, draws the feature map and solves the constrained
    regression in a basis of its numerical range (`solve_in_range`).
    Returns (field, report, averaged_demo).
    """
    # every BLAS call of training at one thread, the projector's SVD included:
    # the model bytes do not depend on the core count, and no two-thread call
    # runs just before assembly and the solve, which measured slower after one
    with single_blas_thread():
        avg = resample_and_average(fill_velocities(demos, config.preprocess), config.preprocess)
        cpoints = subsample_constraint_points(avg, config.constraint_points)
        kind = KernelKind(config.kernel, config.sigma)
        fm = sample_feature_map(kind, config.num_features, demos.dim, config.seed)
        Z = np.zeros((1, demos.dim))          # goal sits at the origin after loading
        proj = build_vanishing_projector(fm, Z)
        problem = assemble_problem(fm, proj, (avg.positions, avg.velocities),
                                   cpoints, config.lam, config.tau)
        report = solve_in_range(problem, config.solver)
    return TrainedField(fm, proj, report.theta, Z), report, avg
