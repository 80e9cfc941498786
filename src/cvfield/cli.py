"""Command line interface.

Commands: train, eval, rollout, export-field, grid-eval.  Configuration
comes from a JSON object file (--config) with --set key=value overrides;
nested keys use dots (e.g. --set admm.max_iters=200).  Command-specific
parameters (rollout start point, export bounds, ...) travel the same way.
Each command takes only the flags and keys it reads; any other flag is a
usage error and any other key a ConfigError.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from collections.abc import Mapping
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import metrics, modelfile
from .dataset import (PreprocessConfig, fill_velocities, load_demonstrations,
                      resample_and_average, subsample_constraint_points)
from .dynamics import IntegratorSettings, TrainedField, export_field_grid, rollout
from .errors import ConfigError, IntegrationError
from .features import build_vanishing_projector, sample_feature_map
from .kernels import CURL_FREE, GAUSSIAN_SEPARABLE, KernelKind
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
    |objective| as its duality-gap tolerance.  `from_dict` reads each value
    as its field's type (see `_typed`) and drops the retired keys in
    `_RETIRED_KEYS`, which older config files still carry.
    """

    kernel: str = CURL_FREE
    sigma: float = 5.0
    num_features: int = 200
    lam: float = 0.01            # serialized as "lambda"
    tau: float = 0.0
    constraint_points: int = 250
    seed: int = 0
    admm: ADMMSettings = field(default_factory=ADMMSettings)
    preprocess: PreprocessConfig = field(default_factory=PreprocessConfig)

    def validate(self):
        if self.kernel not in (GAUSSIAN_SEPARABLE, CURL_FREE):
            raise ConfigError(f"unknown kernel {self.kernel!r}")
        if not self.sigma > 0:
            raise ConfigError("sigma must be positive")
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
        d = dict(d or {})
        if "lambda" in d:
            d["lam"] = d.pop("lambda")
        for key, sub in (("admm", ADMMSettings), ("preprocess", PreprocessConfig)):
            if key in d and not isinstance(d[key], sub):
                if not isinstance(d[key], Mapping):
                    raise ConfigError(f"{key} must be a mapping of settings, "
                                      f"not {type(d[key]).__name__}")
                if key == "admm" and d[key].get("slack_weight", 0) != 0:
                    raise ConfigError("admm.slack_weight must be 0: soft constraints were "
                                      "removed, and training imposes contraction exactly")
                subd = {k: v for k, v in d[key].items() if k not in _RETIRED_KEYS[key]}
                d[key] = sub(**_typed(sub, subd, key))
        return cls(**_typed(cls, d)).validate()


def _typed(cls, d, section=None):
    """`d`, updated in place, with each value read as the type of its field of
    dataclass `cls` (integers by `_integer`, numbers by `_number`); an
    unknown key or a value of the wrong type is a ConfigError that names it."""
    types = {f.name: f.type for f in fields(cls)}
    unknown = sorted(set(d) - set(types))
    if unknown:
        raise ConfigError(f"unknown {section or 'config'} keys: {unknown}")
    read = {"int": (_integer, "an integer"), "float": (_number, "a finite number")}
    for k in [k for k in d if types[k] in read]:
        name = (f"{section}." if section else "") + ("lambda" if k == "lam" else k)
        d[k] = _param({name: d[k]}, name, *read[types[k]])
    return d


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


def _parse_set_value(raw):
    try:
        return json.loads(raw)
    except json.JSONDecodeError:
        if "," in raw:
            try:
                return [float(tok) for tok in raw.split(",") if tok.strip()]
            except ValueError:
                pass
        return raw


def _settings(args, reads=None):
    """Settings of a command: the --config object, then --set and --seed.
    A key outside `reads`, when given, is an error (TrainConfig checks its own)."""
    tree = {}
    if args.config:
        with open(args.config) as fh:
            tree = json.load(fh)
        if not isinstance(tree, dict):
            raise ConfigError(f"{args.config}: a config file holds a JSON object, "
                              f"not {type(tree).__name__}")
    for key, raw in (item.split("=", 1) for item in args.set or []):
        node = tree
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(f"cannot descend into {key!r}")
        node[parts[-1]] = _parse_set_value(raw)
    if getattr(args, "seed", None) is not None:     # only train takes --seed
        tree["seed"] = args.seed
    unread = sorted(set(tree) - set(tree if reads is None else reads))
    if unread:
        raise ConfigError(f"{unread[0]} must be one of the keys {args.command} reads: "
                          f"{', '.join(reads)}")
    return tree


def _param(params, key, convert, what, default=None):
    """Command parameter `key`, converted by `convert`, or a ConfigError."""
    value = params.get(key, default)
    try:
        return convert(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{key} must be {what}, got {json.dumps(value)}")


def _point(value, n):
    x = np.asarray(value, dtype=float).ravel()
    if x.shape != (n,) or not np.all(np.isfinite(x)):
        raise ValueError
    return x


def _number(value):
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not np.isfinite(value):
        raise ValueError
    return value


def _number_or_inf(value):
    """A finite number, or inf for none: the JSON Infinity or the bare `inf`."""
    return float("inf") if value in ("inf", float("inf")) else _number(value)


def _integer(value):
    if not float(_number(value)).is_integer():
        raise ValueError
    return int(value)


_NOT_CONVERGED = {
    "infeasible": "phase I found tau infeasible: at best the symmetrized Jacobian "
                  "exceeds -tau I by {violation:.3e} at some constraint point; lower tau",
    "max_iters": "solver hit its step cap (admm.max_iters = {iters}) with duality gap "
                 "{gap:.3e}; raise admm.max_iters or loosen admm.eps_abs/eps_rel",
    "stalled": "solver stalled after {iters} steps with duality gap {gap:.3e} above its "
               "tolerance; loosen admm.eps_abs/eps_rel",
}


def cmd_train(config, data_path, model_path):
    demos = load_demonstrations(data_path)
    fieldobj, report, _ = train_field(demos, config)
    modelfile.save_model(model_path, fieldobj, config.to_dict(), report)
    print(f"trained on {len(demos.demos)} demonstrations "
          f"({config.kernel}, sigma={config.sigma}, s={config.num_features})")
    print(f"iters={report.iters} converged={report.converged} stop={report.stop_reason} "
          f"gap={report.dual_residual:.3e}")
    print(f"objective={report.objective:.6e} "
          f"max_constraint_violation={report.max_constraint_violation:.3e}")
    print(f"model written to {model_path}")
    if not report.converged:
        print(_NOT_CONVERGED[report.stop_reason].format(
            iters=report.iters, violation=report.max_constraint_violation,
            gap=report.dual_residual), file=sys.stderr)
        return 2
    return 0


_INTEGRATOR_KEYS = tuple(f.name for f in fields(IntegratorSettings))


def _integrator_settings(params):
    """IntegratorSettings from the rollout parameters; only max_step may be inf."""
    s = IntegratorSettings()
    for key in _INTEGRATOR_KEYS:
        if key in params:
            read = ((_number_or_inf, "a number or inf") if key == "max_step"
                    else (_number, "a finite number"))
            setattr(s, key, _param(params, key, *read))
    return s


#: exit status of `eval` when some demonstration rollouts failed to integrate
EXIT_ROLLOUT_FAILURES = 3


def cmd_eval(model_path, data_path, test_path=None, out=None, grid_k=16, grid_only=False):
    """`eval` writes {"eval": ..., "grid_eval": ...}; with grid_only, as for
    `grid-eval`, only the grid block, on the training demonstrations.

    Missing velocities are filled as in training.  The error means of `eval`
    leave out demonstrations whose rollout failed to integrate; when there
    are any, it warns on stderr and returns EXIT_ROLLOUT_FAILURES.
    """
    fieldobj, config, _ = modelfile.load_model(model_path)
    # the preprocess block alone, so that older configs (soft ones too) still load
    preprocess = TrainConfig.from_dict({"preprocess": config.get("preprocess", {})}).preprocess
    train = fill_velocities(load_demonstrations(data_path), preprocess)
    if not grid_only:
        test = fill_velocities(load_demonstrations(test_path), preprocess) if test_path else train
        report = asdict(metrics.evaluate(fieldobj, train, test))
    grid = asdict(metrics.grid_evaluate(fieldobj, train, grid_k=grid_k))
    doc = grid if grid_only else {"eval": report, "grid_eval": grid}
    text = json.dumps(doc, indent=2, sort_keys=True)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    print(text)
    failures = 0 if grid_only else report["integration_failures"]
    if failures:
        print(f"warning: {failures} demonstration rollout(s) failed to integrate and are "
              "left out of the error means", file=sys.stderr)
        return EXIT_ROLLOUT_FAILURES
    return 0


def cmd_rollout(model_path, params, out=None):
    if "x0" not in params:
        raise ConfigError("rollout needs a start point: --set x0=x1,x2,...")
    fieldobj, _, _ = modelfile.load_model(model_path)
    n = fieldobj.map.n
    x0 = _param(params, "x0", lambda v: _point(v, n), f"a list of {n} finite numbers")
    ro = rollout(fieldobj, x0[None], _integrator_settings(params)).results[0]
    if isinstance(ro, IntegrationError):
        raise ro
    header = ["t"] + [f"x{i}" for i in range(1, n + 1)] + [f"v{i}" for i in range(1, n + 1)]
    rows = np.hstack([ro.times[:, None], ro.states, fieldobj.eval(ro.states)])
    _write_csv(out, header, rows)
    print(f"reached_goal={ro.reached_goal} time_to_goal={ro.time_to_goal} "
          f"n_field_evals={ro.n_field_evals} samples={ro.times.size}")
    return 0


def cmd_export_field(model_path, params, out):
    if "bounds" not in params:
        raise ConfigError("export-field needs --set bounds=x1min,x1max,x2min,x2max")
    fieldobj, _, _ = modelfile.load_model(model_path)
    resolution = _param(params, "resolution", _integer, "an integer", 50)
    bounds = _param(params, "bounds", lambda v: _point(v, 4), "a list of 4 finite numbers")
    cols, rows = export_field_grid(fieldobj, bounds, resolution)
    _write_csv(out, cols, rows)
    print(f"wrote {rows.shape[0]} grid rows to {out}")
    return 0


def _write_csv(path, header, rows):
    fh = open(path, "w", newline="") if path else sys.stdout
    try:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(float(v)) for v in row])
    finally:
        if path:
            fh.close()


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="cvfield",
        description="learn and evaluate contracting vector fields from demonstrations")
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {"data": "training demonstrations (CSV file or directory)",
             "test": "held-out demonstrations", "model": "model file path", "out": "output path",
             "seed": "feature-map seed override"}

    def add(name, help_text, *flags):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON object of settings")
        for flag in flags:
            p.add_argument(f"--{flag}", type=int if flag == "seed" else None, help=helps[flag])
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a config or command parameter")

    add("train", "fit a field to demonstrations and write a model file", "data", "model", "seed")
    add("eval", "score reproduction and grid convergence for a model",
        "model", "data", "test", "out")
    add("rollout", "integrate a model from --set x0=... and write the trajectory", "model", "out")
    add("export-field", "tabulate the field on a grid (--set bounds=..,resolution=..)",
        "model", "out")
    add("grid-eval", "grid convergence statistics only", "model", "data", "out")
    return parser


def _require(args, *names):
    for name in names:
        if getattr(args, name) is None:
            raise ConfigError(f"--{name} is required for this command")


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "train":
            _require(args, "data", "model")
            return cmd_train(TrainConfig.from_dict(_settings(args)), args.data, args.model)
        if args.command in ("eval", "grid-eval"):
            _require(args, "model", "data")
            grid_k = _param(_settings(args, ("grid_k",)), "grid_k", _integer, "an integer", 16)
            return cmd_eval(args.model, args.data, getattr(args, "test", None), args.out,
                            grid_k=grid_k, grid_only=args.command == "grid-eval")
        if args.command == "rollout":
            _require(args, "model")
            return cmd_rollout(args.model, _settings(args, ("x0",) + _INTEGRATOR_KEYS),
                               args.out)
        if args.command == "export-field":
            _require(args, "model", "out")
            return cmd_export_field(args.model, _settings(args, ("bounds", "resolution")),
                                    args.out)
        raise ConfigError(f"unknown command {args.command!r}")
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
