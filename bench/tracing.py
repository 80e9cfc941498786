"""Spans recorded from outside the package, and the per-layer metrics they give.

`Tracer.installed()` replaces each wrap point, the module attribute that the
calling code looks up, with a wrapper that records a span (name, layer,
start, end, parent span, command) plus counts taken from the arguments or
the return value.  Spans stay in memory until `write_jsonl`.  A wrap point
that a later version of the package no longer has is skipped, and the
metrics that depend on it read zero.
"""

import json
import os
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field


def _rows(args, kwargs, ret):
    return {"rows": sum(len(getattr(d, "times", ())) for d in getattr(ret, "demos", ()))}


def _assembled_bytes(args, kwargs, ret):
    return {"bytes": sum(getattr(getattr(ret, name, None), "nbytes", 0)
                         for name in ("design", "constraint_ops"))}


def _iters(args, kwargs, ret):
    return {"iters": int(getattr(ret, "iters", 0))}


def _field_evals(args, kwargs, ret):
    return {"field_evals": int(getattr(ret, "n_field_evals", 0))}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _dtw_cells(args, kwargs, ret):
    return {"cells": len(_arg(args, kwargs, 0, "a")) * len(_arg(args, kwargs, 1, "b"))}


def _file_bytes(args, kwargs, ret):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}


# (module, attribute, layer, counts) for every call the commands make into a
# layer, named where the caller looks it up: `cli` imports its helpers by
# name, `metrics` reaches `rollout` through the `dynamics` module.
WRAP_POINTS = [
    ("cvfield.cli", "load_demonstrations", "dataset", _rows),
    ("cvfield.cli", "resample_and_average", "dataset", None),
    ("cvfield.cli", "subsample_constraint_points", "dataset", None),
    ("cvfield.cli", "sample_feature_map", "features", None),
    ("cvfield.cli", "build_vanishing_projector", "features", None),
    ("cvfield.cli", "assemble_problem", "solver", _assembled_bytes),
    ("cvfield.cli", "admm_solve", "solver", _iters),
    ("cvfield.metrics", "evaluate", "metrics", None),
    ("cvfield.metrics", "grid_evaluate", "metrics", None),
    ("cvfield.metrics", "dtw_distance", "metrics", _dtw_cells),
    ("cvfield.dynamics", "rollout", "dynamics", _field_evals),
    ("cvfield.modelfile", "save_model", "modelfile", _file_bytes),
    ("cvfield.modelfile", "load_model", "modelfile", _file_bytes),
]

LAYERS = ("dataset", "features", "solver", "dynamics", "metrics", "modelfile", "cli")


@dataclass
class Span:
    id: int
    parent: int | None
    command: int
    name: str
    layer: str
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    def __init__(self, modules):
        self.modules = modules          # import name -> module object
        self.spans = []
        self._stack = []
        self._command = -1

    def _span(self, name, layer):
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), parent, self._command, name, layer, time.perf_counter())
        self.spans.append(span)
        return span

    def _wrap(self, fn, name, layer, counts):
        def traced(*args, **kwargs):
            span = self._span(name, layer)
            self._stack.append(span)
            try:
                ret = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if counts is not None:
                span.counts = counts(args, kwargs, ret)
            return ret
        return traced

    @contextmanager
    def installed(self):
        """Wrap every wrap point that exists; restore the originals on exit."""
        saved = []
        try:
            for modname, attr, layer, counts in WRAP_POINTS:
                mod = self.modules[modname]
                fn = getattr(mod, attr, None)
                if fn is None:
                    continue
                saved.append((mod, attr, fn))
                setattr(mod, attr, self._wrap(fn, f"{modname.split('.')[-1]}.{attr}", layer, counts))
            yield self
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)

    @contextmanager
    def command(self, name):
        """Root span for one CLI command; its children are the layer calls."""
        self._command += 1
        span = self._span(name, "cli")
        self._stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def write_jsonl(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span), sort_keys=True) + "\n")


def span_cost_s(calls=20000):
    """Wall time one traced call adds, measured on a function that does nothing."""
    def noop():
        return None
    traced = Tracer({})._wrap(noop, "noop", "trace", None)
    t0 = time.perf_counter()
    for _ in range(calls):
        noop()
    t1 = time.perf_counter()
    for _ in range(calls):
        traced()
    t2 = time.perf_counter()
    return ((t2 - t1) - (t1 - t0)) / calls


def self_times(spans):
    """Span id -> duration minus the time its direct children cover.

    Calls are sequential, so children never overlap and their durations add.
    """
    own = {s.id: s.duration for s in spans}
    for s in spans:
        if s.parent is not None and s.parent in own:
            own[s.parent] -= s.duration
    return own


def layer_metrics(spans):
    """Per-layer metrics of one command's spans (the root span included)."""
    own = self_times(spans)

    def total(*names):
        return sum(s.duration for s in spans if s.name in names)

    def count(name, key):
        return sum(s.counts.get(key, 0) for s in spans if s.name == name)

    def calls(name):
        return sum(1 for s in spans if s.name == name)

    solve_s = total("cli.admm_solve")
    iters = count("cli.admm_solve", "iters")
    rollout_s = total("dynamics.rollout")
    field_evals = count("dynamics.rollout", "field_evals")
    m = {
        "dataset.load_s": total("cli.load_demonstrations"),
        "dataset.rows": count("cli.load_demonstrations", "rows"),
        "dataset.preprocess_s": total("cli.resample_and_average", "cli.subsample_constraint_points"),
        "features.map_s": total("cli.sample_feature_map", "cli.build_vanishing_projector"),
        "solver.assemble_s": total("cli.assemble_problem"),
        "solver.assemble_mb": count("cli.assemble_problem", "bytes") / 2**20,
        "solver.solve_s": solve_s,
        "solver.iters": iters,
        "solver.ms_per_iter": 1e3 * solve_s / iters if iters else 0.0,
        "dynamics.rollout_s": rollout_s,
        "dynamics.rollouts": calls("dynamics.rollout"),
        "dynamics.field_evals": field_evals,
        "dynamics.us_per_field_eval": 1e6 * rollout_s / field_evals if field_evals else 0.0,
        "metrics.evaluate_s": total("metrics.evaluate"),
        "metrics.grid_evaluate_s": total("metrics.grid_evaluate"),
        "metrics.dtw_s": total("metrics.dtw_distance"),
        "metrics.dtw_calls": calls("metrics.dtw_distance"),
        "metrics.dtw_cells": count("metrics.dtw_distance", "cells"),
        "metrics.grid_self_s": sum(own[s.id] for s in spans if s.name == "metrics.grid_evaluate"),
        "modelfile.save_s": total("modelfile.save_model"),
        "modelfile.load_s": total("modelfile.load_model"),
        "modelfile.bytes": max([s.counts.get("bytes", 0) for s in spans
                                if s.layer == "modelfile"], default=0),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(own[s.id] for s in spans if s.layer == layer)
    return m


# every per-layer metric not in this table is a time in seconds
UNITS = {
    "dataset.rows": "count",
    "solver.assemble_mb": "MiB",
    "solver.iters": "count",
    "solver.ms_per_iter": "ms",
    "dynamics.rollouts": "count",
    "dynamics.field_evals": "count",
    "dynamics.us_per_field_eval": "us",
    "metrics.dtw_calls": "count",
    "metrics.dtw_cells": "count",
    "modelfile.bytes": "B",
    "trace.spans": "count",
    "trace.span_cost_us": "us",
}


def unit(name):
    return UNITS.get(name, "s")


# counts that must repeat bit for bit from one command to the next
EXACT_COUNTS = ("solver.iters", "dynamics.field_evals", "metrics.dtw_calls", "metrics.dtw_cells")
