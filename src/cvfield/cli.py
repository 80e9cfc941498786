"""Command line interface: it only parses the arguments and runs the commands.

Commands: train, eval, rollout, export-field, grid-eval, each one entry of
`_COMMANDS`: its help, the file flags it takes and those it needs, its
settings class and its handler.  Settings come from a JSON object file
(--config) with --set key=value overrides; nested keys use dots (e.g.
--set solver.max_iters=200).  Command parameters (rollout start point,
export bounds, grid size) travel the same way.  `main` reads them into the
command's settings class with `training.read_settings`, which checks them,
before the handler opens any file.  Each command takes only the flags and
keys it reads; any other flag is a usage error and any other key a
ConfigError.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import asdict, dataclass, field
from functools import cache, partial

import numpy as np

from . import metrics, modelfile
from .dataset import PreprocessConfig, fill_velocities, load_demonstrations
from .dynamics import IntegratorSettings, export_field_grid, rollout
from .errors import ConfigError, DimensionError, IntegrationError
from .training import TrainConfig, read_settings, train_field


@dataclass(frozen=True)
class _GridParams:
    grid_k: int = 16

    def __post_init__(self):
        metrics.grid_side(self.grid_k)


@dataclass(frozen=True)
class _RolloutParams(IntegratorSettings):
    x0: list[float] = field(default_factory=list)


@dataclass(frozen=True)
class _ExportParams:
    bounds: list[float] = field(default_factory=list)
    resolution: int = 50

    def __post_init__(self):
        if len(self.bounds) != 4:
            raise ConfigError("bounds must be 4 numbers (--set bounds=x1min,x1max,x2min,x2max)")


def _settings(args):
    """Settings of a command: the --config object, then --set."""
    tree = {}
    if args.config:
        with open(args.config) as fh:
            try:
                tree = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"{args.config}: {exc}")
        if not isinstance(tree, dict):
            raise ConfigError(f"{args.config}: a config file holds a JSON object, "
                              f"not {type(tree).__name__}")
    for item in args.set or []:
        key, eq, raw = item.partition("=")
        if not eq:
            raise ConfigError(f"{item} must be given to --set as KEY=VALUE")
        node = tree
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(f"cannot descend into {key!r}")
        try:
            node[parts[-1]] = json.loads(raw)
        except json.JSONDecodeError:
            node[parts[-1]] = raw
    return tree


# why phase II stopped short of its gap tolerance
_NOT_CONVERGED = {
    "max_iters": "solver hit its step cap (solver.max_iters = {iters}) with duality gap "
                 "{gap:.3e}; raise solver.max_iters or loosen solver.eps_abs/eps_rel",
    "stalled": "solver stalled after {iters} steps with duality gap {gap:.3e} above its "
               "tolerance; loosen solver.eps_abs/eps_rel, or raise lambda, as a small lambda "
               "leaves the ridge matrix ill-conditioned",
}
# why phase I found no theta that contracts at every constraint point; no tau
# can be met without one, whatever its value
_NOT_FEASIBLE = {
    "infeasible": "no theta contracts at every constraint point, so no tau >= 0 can be met: "
                  "certified, every unit-norm theta has a point where sym J exceeds -e I, "
                  "for every e > {contraction_bound:.3e}; change the feature map "
                  "(num_features, sigma) or the constraint points",
    "max_iters": "solver hit its step cap (solver.max_iters = {iters}) in phase I, before it "
                 "found a theta that contracts at every constraint point; raise solver.max_iters",
    "stalled": "solver stalled in phase I after {iters} steps, before it found a theta that "
               "contracts at every constraint point (none contracts by more than "
               "{contraction_bound:.3e}); change the feature map (num_features, sigma) or the "
               "constraint points",
}


def cmd_train(config, data, model):
    demos = load_demonstrations(data)
    fieldobj, report, _ = train_field(demos, config)
    modelfile.save_model(model, fieldobj, config.to_dict(), report)
    print(f"trained on {len(demos.demos)} demonstrations "
          f"({config.kernel}, sigma={config.sigma}, s={config.num_features})")
    print(f"iters={report.iters} converged={report.converged} stop={report.stop_reason} "
          f"gap={report.gap:.3e} rank={report.rank} binding={report.binding}")
    print(f"objective={report.objective:.6e} "
          f"max_constraint_violation={report.max_constraint_violation:.3e}")
    print(f"model written to {model}")
    if not report.converged:
        messages = _NOT_CONVERGED if report.contraction_bound is None else _NOT_FEASIBLE
        print(messages[report.stop_reason].format_map(vars(report)), file=sys.stderr)
        return 2
    return 0


#: exit status of `eval` when some demonstration rollouts failed to integrate
EXIT_ROLLOUT_FAILURES = 3


def cmd_eval(params, model, data, test=None, out=None, grid_only=False):
    """`eval` writes {"eval": ..., "grid_eval": ...}; with grid_only, as for
    `grid-eval`, only the grid block, on the training demonstrations.
    `params` is a `_GridParams`, whose grid_k was checked when it was built,
    so a bad grid_k is reported before the model or any data file is read.

    Missing velocities are filled as in training.  The error means of `eval`
    leave out demonstrations whose rollout failed to integrate; when there
    are any, it warns on stderr and returns EXIT_ROLLOUT_FAILURES.  `eval`
    scores reproduction in a `metrics.forked` child, which also loads and
    checks the held-out set, while this process scores the grid, with the
    output and errors of running the grid first and reproduction after it:
    when both fail, the grid's error is raised, and with one CPU a bad
    held-out file is reported after the grid.
    """
    fieldobj, config, _ = modelfile.load_model(model)
    # the preprocess block alone, so that older configs (soft ones too) still load
    preprocess = read_settings(PreprocessConfig, config.get("preprocess", {}), "preprocess")
    train = _load_for(fieldobj, data, preprocess)
    if grid_only:
        doc = asdict(metrics.grid_evaluate(fieldobj, train, grid_k=params.grid_k))
    else:
        def reproduction():
            held_out = _load_for(fieldobj, test, preprocess) if test else train
            return metrics.evaluate(fieldobj, train, held_out)

        with metrics.forked(reproduction) as evaluated:
            grid = asdict(metrics.grid_evaluate(fieldobj, train, grid_k=params.grid_k))
            report = asdict(evaluated())
        doc = {"eval": report, "grid_eval": grid}
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


def _load_for(fieldobj, path, preprocess):
    """Demonstrations at `path` with velocities filled, checked to share the
    model's state dimension."""
    demos = load_demonstrations(path)
    if demos.dim != fieldobj.map.n:
        raise DimensionError(f"{path}: demonstrations have state dimension {demos.dim}, "
                             f"the model {fieldobj.map.n}")
    return fill_velocities(demos, preprocess)


def cmd_rollout(params, model, out):
    fieldobj, _, _ = modelfile.load_model(model)
    n = fieldobj.map.n
    if len(params.x0) != n:
        raise ConfigError(f"x0 must be a start point of {n} numbers (--set x0=x1,x2,...)")
    ro = rollout(fieldobj, np.array([params.x0]), params).results[0]
    if isinstance(ro, IntegrationError):
        raise ro
    header = ["t"] + [f"x{i}" for i in range(1, n + 1)] + [f"v{i}" for i in range(1, n + 1)]
    rows = np.hstack([ro.times[:, None], ro.states, fieldobj.eval(ro.states)])
    _write_csv(out, header, rows)
    print(f"reached_goal={ro.reached_goal} time_to_goal={ro.time_to_goal} "
          f"n_field_evals={ro.n_field_evals} samples={ro.times.size}")
    return 0


def cmd_export_field(params, model, out):
    fieldobj, _, _ = modelfile.load_model(model)
    if fieldobj.map.n != 2:
        raise DimensionError(f"{model} is a {fieldobj.map.n}-D model; export-field needs 2-D")
    cols, rows = export_field_grid(fieldobj, params.bounds, params.resolution)
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


# each command: (help, the file flags it takes, those of them it needs, its
# settings class, a frozen dataclass that checks its values when it is built,
# and its handler, run(settings, **flags) -> exit status)
_COMMANDS = {
    "train": ("fit a field to demonstrations and write a model file",
              ("data", "model"), ("data", "model"), TrainConfig, cmd_train),
    "eval": ("score reproduction and grid convergence for a model",
             ("model", "data", "test", "out"), ("model", "data"), _GridParams, cmd_eval),
    "rollout": ("integrate a model from --set x0=... and write the trajectory",
                ("model", "out"), ("model",), _RolloutParams, cmd_rollout),
    "export-field": ("tabulate the field on a grid (--set bounds=..,resolution=..)",
                     ("model", "out"), ("model", "out"), _ExportParams, cmd_export_field),
    "grid-eval": ("grid convergence statistics only", ("model", "data", "out"),
                  ("model", "data"), _GridParams, partial(cmd_eval, grid_only=True)),
}


@cache
def _build_parser():
    """The one parser of the process: it holds no state between parses."""
    parser = argparse.ArgumentParser(
        prog="cvfield",
        description="learn and evaluate contracting vector fields from demonstrations")
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {"data": "training demonstrations (CSV file or directory)",
             "test": "held-out demonstrations", "model": "model file path", "out": "output path"}
    for name, (help_text, flags, *_) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON object of settings")
        for flag in flags:
            p.add_argument(f"--{flag}", help=helps[flag])
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a config or command parameter")
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    _, flags, needs, cls, run = _COMMANDS[args.command]
    try:
        for flag in needs:
            if getattr(args, flag) is None:
                raise ConfigError(f"--{flag} is required for this command")
        return run(read_settings(cls, _settings(args)), **{f: getattr(args, f) for f in flags})
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
