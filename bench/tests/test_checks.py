"""Self-test of the benchmark's output checks; runs no workload.

Each bad output below must be counted as a failed command, and a good one
as a pass.  A stand-in for `cvfield.cli.main` writes the output, so the
counting path of the benchmark client is exercised without training.

    PYTHONPATH=src python -m pytest bench/tests -q
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from cvfield import modelfile  # noqa: E402
from cvfield.dynamics import TrainedField  # noqa: E402
from cvfield.features import (VanishingProjector, build_vanishing_projector,  # noqa: E402
                              sample_feature_map)
from cvfield.kernels import KernelKind  # noqa: E402

CONFIG = run.SCURVE


class FakeCli:
    """Stands in for cvfield.cli: `main` writes a prepared output."""

    def __init__(self, write):
        self.write = write

    def main(self, argv):
        self.write(argv)
        return 0


def _client(tmp_path, write):
    paths = inputs.write_inputs(tmp_path, 0, CONFIG)
    mods = {"cvfield.cli": FakeCli(write)}
    spec = {"command": "train", "config": CONFIG}
    return run.Client(mods, tmp_path, paths, spec, tracer=None)


def _field(theta_scale, vanishing):
    fm = sample_feature_map(KernelKind("curl_free", 20.0), 200, 2, seed=0)
    if vanishing:
        Z = np.zeros((1, 2))
        proj = build_vanishing_projector(fm, Z)
    else:
        Z = np.empty((0, 2))
        proj = VanishingProjector(np.eye(fm.feature_dim), np.zeros((fm.feature_dim, 0)), Z)
    theta = theta_scale * np.random.default_rng(0).normal(size=fm.feature_dim)
    return TrainedField(fm, proj, theta, Z)


def _model_writer(field):
    def write(argv):
        modelfile.save_model(argv[argv.index("--model") + 1], field, {"lambda": 0.01})
    return write


def test_field_nonzero_at_goal_counts_as_failure(tmp_path):
    field = _field(1.0, vanishing=False)
    assert np.linalg.norm(field.eval(np.zeros(2))) > checks.GOAL_TOL
    client = _client(tmp_path, _model_writer(field))
    rec = client.run("train")
    assert any("f(0)" in p for p in rec["problems"])
    assert run.tally(client.records) == (1, 1)


def test_field_that_expands_at_a_constraint_point_counts_as_failure(tmp_path):
    field = _field(100.0, vanishing=True)
    client = _client(tmp_path, _model_writer(field))
    # J is linear in theta, so one of +theta and -theta expands somewhere
    if checks.worst_contraction(field, client.cpoints, 0.0) <= 0.0:
        field = TrainedField(field.map, field.proj, -field.theta, field.equilibria)
        client.cli.write = _model_writer(field)
    rec = client.run("train")
    assert rec["problems"] and all("lambda_max" in p for p in rec["problems"])
    assert run.tally(client.records) == (1, 1)


def test_train_that_writes_no_model_counts_as_failure(tmp_path):
    client = _client(tmp_path, lambda argv: None)
    rec = client.run("train")
    assert rec["problems"] and "check raised" in rec["problems"][0]
    assert run.tally(client.records) == (1, 1)


def _eval_doc(fraction):
    return {"eval": {"integration_failures": 0, "number_reached_goal": inputs.NUM_DEMOS},
            "grid_eval": {"grid_fraction_reached": fraction, "grid_dtwd": 1.0}}


@pytest.mark.parametrize("fraction, failed", [(63 / 64, 1), (1.0, 0)])
def test_grid_start_that_never_reaches_goal_counts_as_failure(tmp_path, fraction, failed):
    client = _client(tmp_path, lambda argv: print(json.dumps(_eval_doc(fraction))))
    rec = client.run("eval")
    assert bool(rec["problems"]) == bool(failed)
    assert run.tally(client.records) == (1, failed)


def test_changed_output_within_a_run_counts_as_failure(tmp_path):
    docs = iter([_eval_doc(1.0), {**_eval_doc(1.0), "extra": 1}])
    client = _client(tmp_path, lambda argv: print(json.dumps(next(docs))))
    client.run("eval")
    client.run("eval")
    assert run.tally(client.records) == (2, 1)


def test_inputs_give_one_training_problem_for_every_seed(tmp_path):
    from cvfield.dataset import load_demonstrations
    loaded = []
    for seed in (0, 1):
        d = tmp_path / str(seed)
        d.mkdir()
        paths = inputs.write_inputs(d, seed, CONFIG)
        loaded.append(load_demonstrations(paths["train"]))
    assert (tmp_path / "0" / "train.csv").read_bytes() != (tmp_path / "1" / "train.csv").read_bytes()
    for a, b in zip(loaded[0].demos, loaded[1].demos):
        assert np.array_equal(a.positions, b.positions)
        assert np.array_equal(a.velocities, b.velocities)


def test_layer_metrics_from_spans():
    S = tracing.Span
    spans = [S(0, None, 0, "cli.eval", "cli", 0.0, 10.0),
             S(1, 0, 0, "metrics.grid_evaluate", "metrics", 1.0, 9.0),
             S(2, 1, 0, "dynamics.rollout", "dynamics", 1.0, 2.0, {"field_evals": 100}),
             S(3, 1, 0, "metrics.dtw_distance", "metrics", 2.0, 7.0, {"cells": 6})]
    m = tracing.layer_metrics(spans)
    assert m["cli.self_s"] == 2.0
    assert m["metrics.grid_self_s"] == 2.0
    assert m["metrics.self_s"] == 7.0          # grid self 2 s + dtw 5 s
    assert m["dynamics.us_per_field_eval"] == 1e4
    assert m["metrics.dtw_cells"] == 6
    assert m["solver.iters"] == 0 and m["solver.ms_per_iter"] == 0.0


def test_missing_wrap_point_records_zero():
    class Empty:
        pass
    mods = {name: Empty() for name, _, _, _ in tracing.WRAP_POINTS}
    tracer = tracing.Tracer(mods)
    with tracer.installed(), tracer.command("cli.train"):
        pass
    m = tracing.layer_metrics(tracer.spans)
    assert len(tracer.spans) == 1 and m["solver.solve_s"] == 0.0
    assert not any(vars(mod) for mod in mods.values())


@pytest.mark.parametrize("n", [10, 11, 20, 256])
def test_summary_percentile_has_ten_samples_above_it(n):
    s = run.summary(range(n))
    if n < 11:
        assert s["percentile"] is None
    else:
        assert sum(1 for v in range(n) if v > s["value"]) == 10
