"""Command-line round trips, configuration parsing and model persistence."""

import argparse
import ast
import ctypes
import errno
import importlib
import json
import os
import re
import stat
import subprocess
import sys
import time
from dataclasses import FrozenInstanceError, asdict, is_dataclass, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import cvfield
from _forks import with_cpus
from _synth import s_demos, write_demo_csv
from cvfield import TrainConfig, cli, metrics, modelfile, solver, train_field, training
from cvfield.cli import cmd_export_field, main
from cvfield.dataset import (PreprocessConfig, load_demonstrations, resample_and_average,
                             subsample_constraint_points)
from cvfield.dynamics import RolloutBatch, TrainedField, max_contraction_eigenvalues
from cvfield.errors import ConfigError, DataError, IntegrationError, ParseError
from cvfield.features import build_vanishing_projector, field_values, sample_feature_map
from cvfield.kernels import KernelKind
from cvfield.solver import SolverSettings

CLI_CONFIG = {
    "kernel": "curl_free",
    "sigma": 10.0,
    "num_features": 200,
    "lambda": 0.01,
    "tau": 0.0,
    "constraint_points": 100,
    "seed": 0,
    "admm": {"rho": 10.0, "adapt_rho": True, "eps_abs": 1e-6,
             "eps_rel": 1e-7, "max_iters": 60000},
}


@pytest.fixture(scope="module")
def workspace(tmp_path_factory, angle_train, angle_test):
    """Train one model through the CLI and share the file layout."""
    ws = tmp_path_factory.mktemp("cli")
    write_demo_csv(ws / "train.csv", angle_train)
    write_demo_csv(ws / "test.csv", angle_test)
    (ws / "config.json").write_text(json.dumps(CLI_CONFIG))
    rc = main(["train", "--config", str(ws / "config.json"),
               "--data", str(ws / "train.csv"), "--model", str(ws / "model.json")])
    assert rc == 0
    return ws


def test_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(lam=0.0)
    with pytest.raises(ConfigError):
        TrainConfig(kernel="rbf")
    with pytest.raises(ConfigError):
        TrainConfig(tau=-0.1)
    with pytest.raises(ConfigError):
        TrainConfig(constraint_points=0)
    with pytest.raises(ConfigError):
        TrainConfig(sigma=-1.0)
    with pytest.raises(ConfigError):
        TrainConfig(solver=SolverSettings(max_iters=0))


@pytest.mark.parametrize("cls, key, value", [
    (TrainConfig, "tau", np.nan),
    (SolverSettings, "eps_abs", np.nan),
    (SolverSettings, "eps_rel", np.nan),
    (SolverSettings, "max_iters", 0),
], ids=["tau-nan", "eps_abs-nan", "eps_rel-nan", "max_iters-zero"])
def test_settings_are_checked_when_built(cls, key, value):
    # every bound is `not value >= bound`, which nan fails
    with pytest.raises(ConfigError, match=rf"^{key} must be"):
        cls(**{key: value})


def test_settings_cannot_change_and_replace_checks_again():
    cfg = TrainConfig()
    with pytest.raises(FrozenInstanceError):
        cfg.tau = 1.0
    assert replace(cfg, tau=1.0).tau == 1.0 and cfg.tau == 0.0
    with pytest.raises(ConfigError, match="^tau must be nonnegative"):
        replace(cfg, tau=-1.0)
    with pytest.raises(DataError, match="^smoothing_window must be odd"):
        replace(PreprocessConfig(), smoothing_window=4)


def _validate_uses(path):
    """Lines of `path` that define a `validate` or call one."""
    return [node.lineno for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.FunctionDef) and node.name == "validate"
            or isinstance(node, ast.Call) and "validate" in (getattr(node.func, "attr", None),
                                                             getattr(node.func, "id", None))]


def test_settings_are_frozen_and_nothing_validates():
    # a settings object checks its values when it is built and cannot change
    # afterwards, so no module has a validate() to define or to call
    paths = sorted(Path(cvfield.__file__).parent.glob("*.py"))
    settings = {name: obj for path in paths
                for name, obj in vars(importlib.import_module(f"cvfield.{path.stem}")).items()
                if is_dataclass(obj) and isinstance(obj, type)
                and name.endswith(("Settings", "Config", "Params"))}
    assert {"TrainConfig", "SolverSettings", "PreprocessConfig", "IntegratorSettings",
            "_RolloutParams", "_GridParams", "_ExportParams"} <= set(settings)
    assert [name for name, cls in settings.items() if not cls.__dataclass_params__.frozen] == []
    assert [f"{path.name}:{line}" for path in paths for line in _validate_uses(path)] == []


@pytest.mark.parametrize("settings, key", [
    ({"num_features": 0}, "num_features"),
    ({"seed": -1}, "seed"),
    ({"solver": {"eps_abs": -1}}, "solver.eps_abs"),
    ({"preprocess": {"smoothing_window": 4}}, "preprocess.smoothing_window"),
    ({"preprocess": {"resample_len": 1}}, "preprocess.resample_len"),
    ({"solver": {"eps_rel": -1}}, "solver.eps_rel"),
    # a nested section is built, and checked, before the config that holds it
    ({"tau": -1, "preprocess": {"resample_len": 1}}, "preprocess.resample_len"),
], ids=["num_features-zero", "seed-negative", "eps_abs-negative", "smoothing_window-even",
        "resample_len-one", "eps_rel-negative", "nested-section-first"])
def test_config_out_of_range_names_the_key(settings, key):
    with pytest.raises(ConfigError, match=rf"^{re.escape(key)}\b"):
        TrainConfig.from_dict(settings)


def test_config_dict_round_trip():
    cfg = TrainConfig.from_dict(CLI_CONFIG)
    assert cfg.lam == 0.01 and cfg.solver.max_iters == 60000
    d = cfg.to_dict()
    assert d["lambda"] == 0.01 and "lam" not in d
    again = TrainConfig.from_dict(d)
    assert again == cfg
    with pytest.raises(ConfigError):
        TrainConfig.from_dict({"lambda": 0.01, "bogus": 1})
    with pytest.raises(ConfigError):
        TrainConfig.from_dict({"admm": {"rho": 1.0, "momentum": 0.9}})


def test_config_reads_numpy_scalars():
    # NumPy integers and reals read as the Python numbers they hold, so the
    # config still echoes as JSON; NumPy booleans are rejected like true
    cfg = TrainConfig.from_dict({"num_features": np.int64(100), "sigma": np.int64(3),
                                 "lambda": np.float32(0.5), "tau": np.float64(0.25),
                                 "solver": {"max_iters": np.uint16(40)}})
    assert cfg == TrainConfig.from_dict({"num_features": 100, "sigma": 3, "lambda": 0.5,
                                         "tau": 0.25, "solver": {"max_iters": 40}})
    assert type(cfg.num_features) is int and type(cfg.sigma) is int
    assert type(cfg.lam) is float and type(cfg.solver.max_iters) is int
    assert json.loads(json.dumps(cfg.to_dict()))["sigma"] == 3
    with pytest.raises(ConfigError, match="num_features must be an integer"):
        TrainConfig.from_dict({"num_features": np.float32(2.5)})
    with pytest.raises(ConfigError, match="num_features must be an integer"):
        TrainConfig.from_dict({"num_features": np.True_})
    with pytest.raises(ConfigError, match="sigma must be a finite number"):
        TrainConfig.from_dict({"sigma": np.float32("inf")})


class _Unprintable:
    def __repr__(self):
        raise RuntimeError("no repr")


@pytest.mark.parametrize("value", [{1, 2}, np.array([1.0, 2.0]), object(), _Unprintable(),
                                   10 ** 400],
                         ids=["set", "array", "object", "unprintable", "huge-int"])
def test_config_rejects_unserializable_values_with_config_error(value):
    # formatting the rejected value for the message never raises
    with pytest.raises(ConfigError, match="num_features must be an integer, got "):
        TrainConfig.from_dict({"num_features": value})
    with pytest.raises(ConfigError, match="solver.eps_abs must be a finite number, got "):
        TrainConfig.from_dict({"solver": {"eps_abs": value}})


def test_config_rejects_keys_that_are_not_strings():
    with pytest.raises(ConfigError, match="1 must be one of the keys"):
        TrainConfig.from_dict({1: 2, "bogus": 3})
    with pytest.raises(ConfigError, match="solver.None must be one of the keys"):
        TrainConfig.from_dict({"solver": {None: 1, "bogus": 2}})


def test_retired_admm_keys_are_dropped(angle_train):
    # older configs carry the ADMM-only "rho" and "adapt_rho", a zero
    # "slack_weight" and a preprocess.constraint_points that nothing read;
    # they are read and discarded, so they change nothing and are not
    # written back (CLI_CONFIG gives the solver section its old name, "admm")
    retired = TrainConfig.from_dict(dict(CLI_CONFIG, preprocess={"constraint_points": 7}))
    current = TrainConfig.from_dict(dict(CLI_CONFIG, admm={
        k: v for k, v in CLI_CONFIG["admm"].items() if k not in ("rho", "adapt_rho")}))
    assert retired == current
    assert set(retired.to_dict()["solver"]) == {"max_iters", "eps_abs", "eps_rel"}
    assert set(retired.to_dict()["preprocess"]) == {"smoothing_window", "resample_len"}
    theta_retired = train_field(angle_train, retired)[0].theta
    theta_current = train_field(angle_train, current)[0].theta
    assert np.array_equal(theta_retired, theta_current)
    hard = TrainConfig.from_dict(dict(CLI_CONFIG, admm=dict(CLI_CONFIG["admm"], slack_weight=0.0)))
    assert hard == current
    assert np.array_equal(train_field(angle_train, hard)[0].theta, theta_current)
    # a nonzero weight asked for soft constraints, which are gone
    with pytest.raises(ConfigError, match="solver.slack_weight must be 0: soft constraints"):
        TrainConfig.from_dict(dict(CLI_CONFIG, admm=dict(CLI_CONFIG["admm"], slack_weight=1.0)))
    with pytest.raises(ConfigError):
        TrainConfig.from_dict({"admm": {"momentum": 0.9}})
    with pytest.raises(ConfigError):
        TrainConfig.from_dict({"preprocess": {"rho": 1.0}})


@pytest.mark.parametrize("value", [[1], "abc", 5])
def test_config_that_is_not_a_mapping_is_a_config_error(value):
    with pytest.raises(ConfigError, match="must be a mapping of settings, not "):
        TrainConfig.from_dict(value)


def _solver_as(config, name):
    """`config` with its solver section under `name`, in place of CLI_CONFIG's "admm"."""
    config = dict(config)
    config[name] = config.pop("admm")
    return config


def test_solver_section_reads_under_its_old_name(angle_train):
    # "admm" is the solver section's old name: it loads as "solver", trains
    # to the same theta bits, and is written back as "solver"
    old = TrainConfig.from_dict(CLI_CONFIG)
    new = TrainConfig.from_dict(_solver_as(CLI_CONFIG, "solver"))
    assert old == new and old.solver.max_iters == 60000
    assert "admm" not in old.to_dict() and old.to_dict()["solver"] == asdict(old.solver)
    assert np.array_equal(train_field(angle_train, old)[0].theta,
                          train_field(angle_train, new)[0].theta)
    with pytest.raises(ConfigError, match="give one name for solver: rename admm to solver"):
        TrainConfig.from_dict(dict(_solver_as(CLI_CONFIG, "solver"), admm={"max_iters": 5}))


def test_config_file_with_admm_and_set_solver_is_an_error(workspace, capsys):
    # the workspace config names the section "admm"; --set names it "solver"
    model = workspace / "two_names_model.json"
    rc = main(["train", "--config", str(workspace / "config.json"),
               "--data", str(workspace / "train.csv"), "--model", str(model),
               "--set", "solver.max_iters=5"])
    err = capsys.readouterr().err
    assert rc == 1
    assert err == "error: give one name for solver: rename admm to solver\n"
    assert not model.exists()


def test_keys_named_by_the_stop_messages_are_accepted_by_set():
    # every dotted key that a train stop message tells the user to change
    text = " ".join([*cli._NOT_CONVERGED.values(), *cli._NOT_FEASIBLE.values()])
    keys = {f"solver.{name}" for names in re.findall(r"solver\.([\w/]+)", text)
            for name in names.split("/")}
    assert keys == {"solver.max_iters", "solver.eps_abs", "solver.eps_rel"}
    for key in sorted(keys):
        args = cli._build_parser().parse_args(["train", "--set", f"{key}=7"])
        cfg = TrainConfig.from_dict(cli._settings(args))
        assert getattr(cfg.solver, key.split(".")[1]) == 7


@pytest.mark.parametrize("section", ["solver", "admm"])
def test_nonzero_slack_weight_is_an_error_under_either_name(workspace, capsys, section):
    model = workspace / f"slack_{section}_model.json"
    rc = main(["train", "--data", str(workspace / "train.csv"), "--model", str(model),
               "--set", f"{section}.slack_weight=1"])
    err = capsys.readouterr().err
    assert rc == 1
    assert err == "error: solver.slack_weight must be 0: soft constraints were removed\n"
    assert not model.exists()


def test_model_file_names_the_solver_section_and_the_gap(workspace, tmp_path):
    # a config that names the section "solver" writes the same bytes as the
    # workspace's, which names it "admm"; the file holds "solver" and "gap"
    config = tmp_path / "solver_config.json"
    config.write_text(json.dumps(_solver_as(CLI_CONFIG, "solver")))
    model = tmp_path / "model.json"
    assert main(["train", "--config", str(config), "--data", str(workspace / "train.csv"),
                 "--model", str(model)]) == 0
    assert model.read_bytes() == (workspace / "model.json").read_bytes()
    doc = json.loads(model.read_text())
    assert doc["schema_version"] == "2"
    assert set(doc["config"]["solver"]) == {"max_iters", "eps_abs", "eps_rel"}
    assert "admm" not in doc["config"]
    assert set(doc["solve_report"]) == {"iters", "gap", "objective", "max_constraint_violation",
                                        "converged", "stop_reason"}
    assert 0.0 <= doc["solve_report"]["gap"] <= 1e-6 + 1e-7 * doc["solve_report"]["objective"]


def test_train_reports_and_persists(workspace, capsys):
    field, config, report = modelfile.load_model(workspace / "model.json")
    assert config["lambda"] == 0.01
    assert report["converged"] is True
    assert report["max_constraint_violation"] <= 1e-5
    assert np.linalg.norm(field.eval(np.zeros((1, 2)))) <= 1e-8


def test_train_deterministic_bytes(workspace):
    rc = main(["train", "--config", str(workspace / "config.json"),
               "--data", str(workspace / "train.csv"),
               "--model", str(workspace / "model2.json")])
    assert rc == 0
    assert (workspace / "model2.json").read_bytes() == (workspace / "model.json").read_bytes()


def test_train_nonconvergence_exit_code(workspace, capsys):
    cfg = dict(CLI_CONFIG, admm=dict(CLI_CONFIG["admm"], max_iters=5))
    p = workspace / "weak.json"
    p.write_text(json.dumps(cfg))
    rc = main(["train", "--config", str(p), "--data", str(workspace / "train.csv"),
               "--model", str(workspace / "weak_model.json")])
    out = capsys.readouterr()
    assert rc == 2
    assert "solver.max_iters" in out.err
    assert "converged=False" in out.out


def _train_weak(workspace, name, **changes):
    cfg = dict(CLI_CONFIG, **changes)
    p = workspace / f"{name}.json"
    p.write_text(json.dumps(cfg))
    return main(["train", "--config", str(p), "--data", str(workspace / "train.csv"),
                 "--model", str(workspace / f"{name}_model.json")])


def test_train_step_cap_message(workspace, capsys):
    rc = _train_weak(workspace, "capped", admm=dict(CLI_CONFIG["admm"], max_iters=5))
    out = capsys.readouterr()
    assert rc == 2
    assert "stop=max_iters" in out.out
    assert "step cap" in out.err and "infeasible" not in out.err


def test_train_infeasible_tau_message(workspace, capsys, monkeypatch):
    # with every constraint operator zeroed, no theta reaches sym J <= -tau I
    import dataclasses
    solve = training.solve_in_range
    monkeypatch.setattr(training, "solve_in_range", lambda problem, settings: solve(
        dataclasses.replace(problem, constraint_ops=np.zeros_like(problem.constraint_ops)),
        settings))
    rc = _train_weak(workspace, "infeasible", tau=0.5)
    out = capsys.readouterr()
    assert rc == 2
    assert "stop=infeasible" in out.out
    # tau cannot help: without a contracting direction no tau >= 0 is met
    assert "no theta contracts at every constraint point" in out.err
    assert "e > 0.000e+00" in out.err
    assert "num_features, sigma" in out.err and "lower tau" not in out.err
    assert "step cap" not in out.err


def test_train_with_too_few_features_stops_infeasible(tmp_path, capsys):
    # three curl-free features keep one direction once the goal's two are
    # projected out, and no multiple of it contracts at all 100 points:
    # phase I, run in range Q (r = 1), stops "infeasible" and names a finite
    # bound computed on the full operators; 99 of the 100 points carry it
    data, config = _scurve_inputs(tmp_path)
    rc = main(["train", "--config", str(config), "--data", str(data),
               "--model", str(tmp_path / "model.json"), "--set", "num_features=3"])
    out = capsys.readouterr()
    assert rc == 2
    assert "stop=infeasible" in out.out and "rank=1 binding=99" in out.out
    bound = float(re.search(r"for every e > (\S+);", out.err).group(1))
    assert 0.0 <= bound <= 1e-12
    assert "no theta contracts at every constraint point" in out.err


@pytest.mark.parametrize("stop", ["max_iters", "stalled"])
def test_train_phase1_stop_message(workspace, capsys, monkeypatch, stop):
    # phase I has no gap tolerance, so its stops never advise loosening one
    if stop == "stalled":
        # P's factor, the first, goes through; every Newton system after it fails
        factor, first = solver._cholesky_solver, iter([True])
        monkeypatch.setattr(solver, "_cholesky_solver",
                            lambda S: factor(S) if next(first, False) else None)
    rc = _train_weak(workspace, f"phase1_{stop}", tau=1000.0,
                     admm=dict(CLI_CONFIG["admm"], max_iters=1))
    out = capsys.readouterr()
    assert rc == 2
    assert f"stop={stop}" in out.out
    assert "in phase I" in out.err and "contracts at every constraint point" in out.err
    assert "eps_abs" not in out.err and "eps_rel" not in out.err


def test_train_rejects_lambda_too_small_for_the_ridge_matrix(workspace, capsys):
    # at lambda = 1e-20, 2 A^T A + 2 lambda I is singular to working precision:
    # its Cholesky factor fails before any Newton step, and no model is written
    model = workspace / "tiny_lambda_model.json"
    rc = main(["train", "--config", str(workspace / "config.json"),
               "--data", str(workspace / "train.csv"), "--model", str(model),
               "--set", "lambda=1e-20"])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error:") and "lambda = 1e-20 is too small" in err
    assert not model.exists()


def test_train_stall_at_small_lambda_advises_raising_it(tmp_path, capsys):
    # at lambda = 1e-14, P factors but is so ill-conditioned that phase II
    # stalls in every basis up to the full space, the best with gap about
    # 3e-3, 30 times its tolerance: loosening the tolerances alone would not
    # help (at 1e-12 the solve in range Q converges)
    data, config = _scurve_inputs(tmp_path)
    rc = main(["train", "--config", str(config), "--data", str(data),
               "--model", str(tmp_path / "model.json"), "--set", "lambda=1e-14"])
    out = capsys.readouterr()
    assert rc == 2
    assert "stop=stalled" in out.out
    assert "stalled after" in out.err and "raise lambda" in out.err


@pytest.mark.parametrize("override", ["admm=5", "preprocess=[1]"])
def test_train_rejects_non_mapping_sections(workspace, capsys, override):
    rc = main(["train", "--config", str(workspace / "config.json"),
               "--data", str(workspace / "train.csv"),
               "--model", str(workspace / "bad_section_model.json"), "--set", override])
    err = capsys.readouterr().err
    assert rc == 1
    assert "error:" in err and "mapping" in err


@pytest.mark.parametrize("role", ["config", "model"])
@pytest.mark.parametrize("text", ["[1, 2]", "3", "not json"])
def test_non_object_json_files_are_errors(workspace, capsys, tmp_path, role, text):
    bad = tmp_path / f"{role}.json"
    bad.write_text(text)
    if role == "config":
        argv = ["train", "--config", str(bad), "--data", str(workspace / "train.csv"),
                "--model", str(tmp_path / "model.json")]
    else:
        argv = ["rollout", "--model", str(bad), "--set", "x0=10,20"]
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc == 1
    says = "Expecting value" if text == "not json" else f"a {role} file holds a JSON object"
    assert err.startswith(f"error: {bad}: {says}")


def _command_flags(ws, command):
    """The file flags that `command` takes, on the shared workspace."""
    model, data, out = (str(ws / name) for name in ("model.json", "train.csv", "unwritten.out"))
    return {"train": ["--data", data, "--model", str(ws / "unwritten_model.json")],
            "eval": ["--model", model, "--data", data, "--out", out],
            "grid-eval": ["--model", model, "--data", data, "--out", out],
            "rollout": ["--model", model, "--out", out],
            "export-field": ["--model", model, "--out", out]}[command]


@pytest.mark.parametrize("command, sets", [
    ("rollout", ["x0=10,20", "horizon=1,2"]),
    ("rollout", ['x0={"a": 1}']),
    ("grid-eval", ["grid_k=null"]),
    ("export-field", ["bounds=-5,5,-5,5", "resolution=null"]),
    ("rollout", ["x0=10,20", "horizon=inf"]),
    ("rollout", ["x0=10,20", "horizon=nan"]),
    ("rollout", ["x0=1,2,3"]),
    ("rollout", ["x0=null"]),
    ("export-field", ["bounds=-5,5,-5,5", "resolution=2.9"]),
    ("grid-eval", ["grid_k=16.5"]),
    ("rollout", ["x0=10,20", "max_step=nan"]),
    ("rollout", ["x0=10,20", "max_step=0"]),
    ("rollout", ["x0=10,20", "abs_tol=-1"]),
    ("rollout", ["x0=10,20", "rel_tol=nan"]),
    ("rollout", ["x0=10,20", "rel_tol=inf"]),
    ("rollout", ["x0=10,20", "rel_tol=0", "abs_tol=0"]),
    ("rollout", ["x0=10,20", "goal_radius=nan"]),
    ("grid-eval", ["grid=4"]),
    ("rollout", ["x0=10,20", "horizn=0.5"]),
    ("train", ["seed=abc"]),
    ("train", ["sigma=abc"]),
    ("train", ["tau=null"]),
    ("train", ["solver.max_iters=abc"]),
    ("train", ["preprocess.resample_len=abc"]),
    ("train", ["num_features=2.5"]),
    ("train", ["constraint_points=1.5"]),
    ("train", ["lambda=true"]),
    ("train", ["sigma=Infinity"]),
    ("train", ["solver.eps_abs=NaN"]),
    ("train", ["solver.slack_weight=1"]),
    ("rollout", ["x0=10,20", "horizon=true"]),
    ("rollout", ["x0=10,20", "max_step=true"]),
    ("grid-eval", ["grid_k"]),
    ("train", ["tau"]),
    ("export-field", ["bounds=-5,5,-5"]),
], ids=["horizon-list", "x0-object", "grid_k-null", "resolution-null", "horizon-inf",
        "horizon-nan", "x0-length", "x0-null", "resolution-fraction", "grid_k-fraction",
        "max_step-nan", "max_step-zero", "abs_tol-negative", "rel_tol-nan", "rel_tol-inf",
        "tolerances-zero", "goal_radius-nan", "grid-eval-unread-key", "rollout-unread-key",
        "seed-string", "sigma-string", "tau-null", "max_iters-string", "resample_len-string",
        "num_features-fraction", "constraint_points-fraction", "lambda-bool", "sigma-inf",
        "eps_abs-nan",
        "slack_weight-nonzero", "horizon-bool", "max_step-bool", "grid_k-no-value",
        "tau-no-value", "bounds-length"])
def test_malformed_command_parameters_are_errors(workspace, capsys, command, sets):
    rc = main([command, *_command_flags(workspace, command),
               *[arg for s in sets for arg in ("--set", s)]])
    err = capsys.readouterr().err
    key = sets[-1].split("=")[0]
    assert rc == 1
    assert err.startswith(f"error: {key} must be")
    assert not (workspace / "unwritten_model.json").exists()


@pytest.mark.parametrize("command, args", [
    ("export-field", ["--set", "bounds=-5,5,-5,5", "--set", "resolution=20", "--seed=3"]),
    ("eval", ["--seed=3"]),
    ("grid-eval", ["--seed=3"]),
    ("rollout", ["--set", "x0=10,20", "--seed=3"]),
    ("rollout", ["--data", "nonexistent.csv", "--test", "missing.csv", "--set", "x0=10,20"]),
    ("export-field", ["--data", "missing.csv", "--set", "bounds=-5,5,-5,5"]),
    ("train", ["--test", "missing.csv", "--out", "missing.out"]),
    ("grid-eval", ["--test", "missing.csv"]),
    ("train", ["--seed", "3"]),
], ids=["export-field-seed", "eval-seed", "grid-eval-seed", "rollout-seed", "rollout-data-test",
        "export-field-data", "train-test-out", "grid-eval-test", "train-seed"])
def test_unread_flags_are_usage_errors(workspace, capsys, command, args):
    # a flag that the command does not read is a usage error, as an unknown one is
    with pytest.raises(SystemExit) as exc:
        main([command, *_command_flags(workspace, command), *args])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert "unrecognized arguments" in err
    assert all(arg.split("=")[0] in err for arg in args if arg.startswith("--") and arg != "--set")


def test_set_that_descends_into_a_value_is_an_error(workspace, capsys):
    rc = main(["train", "--data", str(workspace / "train.csv"),
               "--model", str(workspace / "unwritten_model.json"),
               "--set", "a=1", "--set", "a.b=2"])
    assert rc == 1
    assert capsys.readouterr().err == "error: cannot descend into 'a.b'\n"
    assert not (workspace / "unwritten_model.json").exists()


def test_set_seed_writes_the_model_of_a_config_seed(workspace, tmp_path):
    # the feature-map seed is a config key like any other: --set seed=3 over
    # the config writes the bytes that a config file holding "seed": 3 writes
    (tmp_path / "seed3.json").write_text(json.dumps({**CLI_CONFIG, "seed": 3}))
    train = ["train", "--data", str(workspace / "train.csv")]
    assert main([*train, "--config", str(workspace / "config.json"), "--set", "seed=3",
                 "--model", str(tmp_path / "set.json")]) == 0
    assert main([*train, "--config", str(tmp_path / "seed3.json"),
                 "--model", str(tmp_path / "file.json")]) == 0
    model = (tmp_path / "set.json").read_bytes()
    assert model == (tmp_path / "file.json").read_bytes()
    assert model != (workspace / "model.json").read_bytes()       # trained with seed 0


def test_train_requires_data_and_model(capsys):
    assert main(["train"]) == 1
    assert "error:" in capsys.readouterr().err


def test_eval_json_document(workspace, capsys):
    out = workspace / "eval.json"
    rc = main(["eval", "--model", str(workspace / "model.json"),
               "--data", str(workspace / "train.csv"),
               "--test", str(workspace / "test.csv"), "--out", str(out)])
    capsys.readouterr()
    assert rc == 0
    doc = json.loads(out.read_text())
    assert set(doc) == {"eval", "grid_eval"}
    assert set(doc["eval"]) == {
        "training_trajectory_error", "training_velocity_error",
        "test_trajectory_error", "test_velocity_error", "distance_to_goal",
        "duration_to_goal", "number_reached_goal", "integration_failures"}
    assert set(doc["grid_eval"]) == {
        "grid_fraction_reached", "grid_duration", "grid_distance_to_goal",
        "grid_dtwd"}
    assert doc["eval"]["number_reached_goal"] == 7
    assert doc["eval"]["integration_failures"] == 0
    assert doc["grid_eval"]["grid_fraction_reached"] == 1.0


def test_eval_without_test_scores_the_training_set_once(workspace, capsys, angle_train):
    # the training set fills both blocks, and each demonstration counts once
    out = workspace / "eval_no_test.json"
    rc = main(["eval", "--model", str(workspace / "model.json"),
               "--data", str(workspace / "train.csv"), "--out", str(out)])
    capsys.readouterr()
    assert rc == 0
    doc = json.loads(out.read_text())["eval"]
    assert doc["number_reached_goal"] == len(angle_train.demos)
    assert doc["integration_failures"] == 0
    for kind in ("trajectory", "velocity"):
        assert doc[f"test_{kind}_error"] == doc[f"training_{kind}_error"]


def test_eval_reproducible_bytes(workspace, capsys):
    a, b = workspace / "eval_a.json", workspace / "eval_b.json"
    for out in (a, b):
        rc = main(["eval", "--model", str(workspace / "model.json"),
                   "--data", str(workspace / "train.csv"),
                   "--test", str(workspace / "test.csv"), "--out", str(out)])
        assert rc == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_grid_eval_json(workspace, capsys):
    out = workspace / "grid.json"
    rc = main(["grid-eval", "--model", str(workspace / "model.json"),
               "--data", str(workspace / "train.csv"), "--out", str(out)])
    capsys.readouterr()
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["grid_fraction_reached"] == 1.0


def test_grid_without_an_integrated_rollout_writes_null(workspace, capsys, monkeypatch):
    # a field that is nan everywhere integrates no grid start: grid_dtwd has
    # no cost to average and is null, as grid_duration is, not the token
    # NaN, which is not JSON
    load = modelfile.load_model

    def nan_field(path):
        field, config, report = load(path)
        return (SimpleNamespace(map=field.map, eval=lambda X: np.full(np.shape(X), np.nan)),
                config, report)

    def refuse(token):
        raise ValueError(f"{token} is not JSON")

    monkeypatch.setattr(modelfile, "load_model", nan_field)
    out = workspace / "nan_grid.json"
    rc = main(["grid-eval", "--model", str(workspace / "model.json"),
               "--data", str(workspace / "train.csv"), "--set", "grid_k=4", "--out", str(out)])
    printed = capsys.readouterr().out
    assert rc == 0
    for text in (printed, out.read_text()):
        doc = json.loads(text, parse_constant=refuse)
        assert doc["grid_dtwd"] is None and doc["grid_duration"] is None
        assert doc["grid_fraction_reached"] == 0.0


def test_eval_fills_missing_velocities(workspace, capsys, angle_train, angle_test):
    # train estimates missing velocities by finite differences, so eval must too
    write_demo_csv(workspace / "bare_train.csv", angle_train, velocities=False)
    write_demo_csv(workspace / "bare_test.csv", angle_test, velocities=False)
    out = workspace / "bare_eval.json"
    rc = main(["eval", "--model", str(workspace / "model.json"),
               "--data", str(workspace / "bare_train.csv"),
               "--test", str(workspace / "bare_test.csv"), "--out", str(out)])
    capsys.readouterr()
    assert rc == 0
    doc = json.loads(out.read_text())["eval"]
    assert np.isfinite(doc["training_velocity_error"]) and np.isfinite(doc["test_velocity_error"])


def _eval_on_cpus(workspace, capsys, monkeypatch, cpus):
    """(exit status, stdout, stderr, --out bytes, forks made here) of one
    `eval` of the workspace model with `cpus` usable CPUs."""
    forks = with_cpus(monkeypatch, cpus)
    out = workspace / f"eval_{cpus}_cpus.json"
    out.unlink(missing_ok=True)
    rc = main(["eval", "--model", str(workspace / "model.json"),
               "--data", str(workspace / "train.csv"),
               "--test", str(workspace / "test.csv"), "--out", str(out)])
    std = capsys.readouterr()
    return rc, std.out, std.err, out.read_bytes() if out.exists() else None, len(forks)


def test_eval_same_bytes_on_any_number_of_cpus(workspace, capsys, monkeypatch):
    # evaluate runs in a child from 2 CPUs on, and this process never runs it;
    # the 4 training demonstrations give min(cpus, 4) - 1 DTW children
    evaluate, parent, here = metrics.evaluate, os.getpid(), []
    monkeypatch.setattr(metrics, "evaluate", lambda *a: here.append(os.getpid() == parent)
                        or evaluate(*a))
    serial = _eval_on_cpus(workspace, capsys, monkeypatch, 1)
    assert serial[0] == 0 and serial[4] == 0 and here == [True]
    for cpus in (2, 3):
        runs = _eval_on_cpus(workspace, capsys, monkeypatch, cpus)
        assert runs[:4] == serial[:4]
        assert runs[4] == 1 + (cpus - 1)
    assert here == [True]


def test_eval_scores_a_dead_evaluate_child_itself(workspace, capsys, monkeypatch):
    serial = _eval_on_cpus(workspace, capsys, monkeypatch, 1)
    evaluate, parent = metrics.evaluate, os.getpid()

    def dies_in_a_child(*args):
        if os.getpid() != parent:
            os._exit(3)
        return evaluate(*args)

    monkeypatch.setattr(metrics, "evaluate", dies_in_a_child)
    runs = _eval_on_cpus(workspace, capsys, monkeypatch, 2)
    assert runs[:4] == serial[:4] and runs[4] == 2


def _fails(message):
    def fail(*args, **kwargs):
        raise DataError(message)
    return fail


def test_eval_error_in_evaluate_as_in_the_serial_run(workspace, capsys, monkeypatch):
    monkeypatch.setattr(metrics, "evaluate", _fails("evaluate failed"))
    serial = _eval_on_cpus(workspace, capsys, monkeypatch, 1)
    assert serial == (1, "", "error: evaluate failed\n", None, 0)
    for cpus in (2, 3):
        assert _eval_on_cpus(workspace, capsys, monkeypatch, cpus)[:4] == serial[:4]


def test_eval_grid_error_kills_the_evaluate_child(workspace, capsys, monkeypatch):
    # the child would take a minute: the grid's error must kill it, not wait
    evaluate, parent = metrics.evaluate, os.getpid()

    def sleeps_in_a_child(*args):
        if os.getpid() != parent:
            time.sleep(60.0)
        return evaluate(*args)

    monkeypatch.setattr(metrics, "evaluate", sleeps_in_a_child)
    monkeypatch.setattr(metrics, "grid_evaluate", _fails("grid failed"))
    start = time.monotonic()
    runs = _eval_on_cpus(workspace, capsys, monkeypatch, 2)
    assert time.monotonic() - start < 30.0
    assert runs == (1, "", "error: grid failed\n", None, 1)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_eval_grid_error_runs_no_evaluate_here(workspace, capsys, monkeypatch):
    # the killed child's work is not redone: the grid's error is reported
    # without evaluate running in this process
    evaluate, parent, here = metrics.evaluate, os.getpid(), []
    monkeypatch.setattr(metrics, "evaluate", lambda *a: here.append(os.getpid() == parent)
                        or evaluate(*a))
    monkeypatch.setattr(metrics, "grid_evaluate", _fails("grid failed"))
    runs = _eval_on_cpus(workspace, capsys, monkeypatch, 2)
    assert runs == (1, "", "error: grid failed\n", None, 1)
    assert here == []


def test_eval_reports_the_grid_error_before_the_evaluate_error(workspace, capsys, monkeypatch):
    # the grid is scored first, so its error wins on any number of CPUs
    monkeypatch.setattr(metrics, "evaluate", _fails("evaluate failed"))
    monkeypatch.setattr(metrics, "grid_evaluate", _fails("grid failed"))
    for cpus in (1, 2):
        assert _eval_on_cpus(workspace, capsys, monkeypatch, cpus)[:4] == (
            1, "", "error: grid failed\n", None)


@pytest.mark.parametrize("grid_k", ["0", "-4"])
@pytest.mark.parametrize("command", ["eval", "grid-eval"])
def test_eval_rejects_nonpositive_grid_k(workspace, capsys, command, grid_k):
    rc = main([command, "--model", str(workspace / "model.json"),
               "--data", str(workspace / "train.csv"), "--set", f"grid_k={grid_k}"])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: grid_k must be a positive perfect square")
    assert "Traceback" not in err


@pytest.mark.parametrize("command, flag", [("eval", "--data"), ("eval", "--test"),
                                           ("grid-eval", "--data")])
def test_eval_rejects_demonstrations_of_another_dimension(workspace, capsys, command, flag):
    # a 3-D recording against the 2-D model: our message, not numpy's broadcast error
    bad = workspace / "three_d.csv"
    t = np.linspace(0.0, 1.0, 20)
    rows = np.column_stack([t, np.outer(1.0 - t, [3.0, 2.0, 1.0])])
    bad.write_text("t,x1,x2,x3\n" + "".join(",".join(map(repr, r.tolist())) + "\n" for r in rows))
    paths = {"--data": workspace / "train.csv", "--test": workspace / "test.csv", flag: bad}
    argv = [command, "--model", str(workspace / "model.json"), "--data", str(paths["--data"])]
    if command == "eval":
        argv += ["--test", str(paths["--test"])]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err == f"error: {bad}: demonstrations have state dimension 3, the model 2\n"


@pytest.mark.parametrize("cpus", [1, 2])
def test_eval_checks_the_held_out_set_in_the_reproduction_child(workspace, capsys, monkeypatch,
                                                                cpus):
    # the --test file is loaded and checked by the function that `eval`
    # forks, so the grid runs first; the child's error is raised here as it
    # would be in the serial run, naming the file (and line), and a grid
    # error still wins over it
    with_cpus(monkeypatch, cpus)
    grid_evaluate, grids = metrics.grid_evaluate, []
    monkeypatch.setattr(metrics, "grid_evaluate", lambda *a, **k: grids.append(cpus)
                        or grid_evaluate(*a, **k))
    malformed, three_d = workspace / "malformed_test.csv", workspace / "three_d_test.csv"
    malformed.write_text("t,x1,x2\n0.0,1.0,2.0\n0.5,1.0,oops\n1.0,0.0,0.0\n")
    three_d.write_text("t,x1,x2,x3\n0.0,3.0,2.0,1.0\n1.0,0.0,0.0,0.0\n")
    expected = {
        malformed: f"error: line 3: {malformed}: could not convert string to float: 'oops'\n",
        three_d: f"error: {three_d}: demonstrations have state dimension 3, the model 2\n"}
    for path, err in expected.items():
        assert main(["eval", "--model", str(workspace / "model.json"),
                     "--data", str(workspace / "train.csv"), "--test", str(path)]) == 1
        assert capsys.readouterr() == ("", err)
    assert grids == [cpus] * 2
    monkeypatch.setattr(metrics, "grid_evaluate", _fails("grid failed"))
    assert main(["eval", "--model", str(workspace / "model.json"),
                 "--data", str(workspace / "train.csv"), "--test", str(malformed)]) == 1
    assert capsys.readouterr() == ("", "error: grid failed\n")


def test_grid_commands_reject_a_model_that_is_not_2d(tmp_path, capsys):
    # eval, grid-eval and export-field work on the plane; a 3-D model is our
    # error before any evaluation, not numpy's broadcast error
    rng = np.random.default_rng(0)
    t = np.linspace(0.0, 4.0, 30)
    rows = [[i, float(tj), *x.tolist()] for i in range(2)
            for tj, x in zip(t, np.outer(np.exp(-0.5 * t), rng.uniform(5.0, 10.0, size=3)))]
    data = tmp_path / "three_d.csv"
    data.write_text("demo_id,t,x1,x2,x3\n" + "".join(",".join(map(repr, r)) + "\n" for r in rows))
    model = tmp_path / "model.json"
    assert main(["train", "--data", str(data), "--model", str(model), "--set", "num_features=50",
                 "--set", "constraint_points=20", "--set", "sigma=5"]) == 0
    capsys.readouterr()
    out = tmp_path / "field.csv"
    assert main(["export-field", "--model", str(model), "--out", str(out),
                 "--set", "bounds=-5,5,-5,5"]) == 1
    assert capsys.readouterr().err == f"error: {model} is a 3-D model; export-field needs 2-D\n"
    assert not out.exists()
    for command in ("eval", "grid-eval"):
        assert main([command, "--model", str(model), "--data", str(data)]) == 1
        assert capsys.readouterr().err == "error: grid evaluation supports 2-D data only\n"


class _EscapesRightOfOne:
    """xdot = -x where x1 <= 1; elsewhere xdot = (1 + x1^2, 0), which leaves
    for infinity in finite time, so rollouts started at x1 > 1 end in step
    size underflow.  A trained field is bounded and cannot do this."""

    map = SimpleNamespace(n=2)      # the state dimension `eval` checks the data against

    def eval(self, x):
        x = np.asarray(x, dtype=float)
        escape = np.stack([1.0 + x[:, 0] ** 2, np.zeros(len(x))], axis=1)
        return np.where(x[:, :1] > 1.0, escape, -x)


def test_eval_reports_failed_rollouts_in_exit_status(workspace, capsys, monkeypatch, angle_train,
                                                     angle_test):
    monkeypatch.setattr(modelfile, "load_model", lambda path: (_EscapesRightOfOne(), {}, {}))
    out = workspace / "eval_failures.json"
    rc = main(["eval", "--model", str(workspace / "model.json"),
               "--data", str(workspace / "train.csv"),
               "--test", str(workspace / "test.csv"), "--out", str(out)])
    err = capsys.readouterr().err
    starts = [d.positions[0, 0] for d in angle_train.demos + angle_test.demos]
    expected = sum(x > 1.0 for x in starts)
    assert 0 < expected < len(starts)
    assert rc == 3
    assert json.loads(out.read_text())["eval"]["integration_failures"] == expected
    assert err.count("\n") == 1
    assert f"warning: {expected} demonstration rollout(s) failed" in err


def test_rollout_csv(workspace, capsys):
    out = workspace / "ro.csv"
    rc = main(["rollout", "--model", str(workspace / "model.json"),
               "--out", str(out), "--set", "x0=10,20", "--set", "horizon=60"])
    msg = capsys.readouterr().out
    assert rc == 0
    assert "reached_goal=True" in msg
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "t,x1,x2,v1,v2"
    data = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    assert np.all(np.diff(data[:, 0]) > 0)
    np.testing.assert_allclose(data[0, 1:3], [10.0, 20.0])
    assert np.linalg.norm(data[-1, 1:3]) <= 1.0 + 1e-6


@pytest.mark.parametrize("max_step", ["inf", "Infinity"])
def test_rollout_max_step_may_be_inf(workspace, capsys, max_step):
    # inf is max_step's default, no cap on the step: the same trajectory
    outs = [workspace / f"ro_{name}.csv" for name in ("default", max_step)]
    for out, extra in zip(outs, ([], ["--set", f"max_step={max_step}"])):
        assert main(["rollout", "--model", str(workspace / "model.json"), "--out", str(out),
                     "--set", "x0=10,20", *extra]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()


def test_rollout_that_fails_to_integrate_is_an_error(workspace, capsys, monkeypatch):
    failed = IntegrationError("step size underflow", last_time=0.5, last_state=np.zeros(2))
    monkeypatch.setattr(cli, "rollout", lambda f, X0, settings: RolloutBatch([failed], 7))
    out = workspace / "unwritten_rollout.csv"
    rc = main(["rollout", "--model", str(workspace / "model.json"), "--out", str(out),
               "--set", "x0=10,20"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err == "error: step size underflow\n" and captured.out == ""
    assert not out.exists()


def test_rollout_requires_start(workspace, capsys):
    rc = main(["rollout", "--model", str(workspace / "model.json")])
    assert rc == 1
    assert "x0" in capsys.readouterr().err


def test_export_field_requires_bounds(workspace, capsys):
    rc = main(["export-field", "--model", str(workspace / "model.json"),
               "--out", str(workspace / "unwritten.csv")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: bounds must be 4 numbers")
    assert not (workspace / "unwritten.csv").exists()


def test_export_field_csv(workspace, capsys):
    out = workspace / "grid.csv"
    rc = main(["export-field", "--model", str(workspace / "model.json"),
               "--out", str(out), "--set", "bounds=-5,5,-5,5",
               "--set", "resolution=50"])
    capsys.readouterr()
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "x1,x2,f1,f2,lambda_max,V"
    assert len(lines) == 1 + 50 * 50
    first = [float(v) for v in lines[1].split(",")]
    np.testing.assert_allclose(first[:2], [-5.0, -5.0])
    second = [float(v) for v in lines[2].split(",")]
    # x1 varies fastest
    assert second[1] == -5.0 and second[0] > -5.0


def test_export_field_lambda_column(workspace):
    # center a tiny grid on a training sample so the middle row sits where
    # a constraint was enforced: lambda_max there respects tau = 0
    field, _, _ = modelfile.load_model(workspace / "model.json")
    demos = load_demonstrations(workspace / "train.csv")
    avg = resample_and_average(demos)
    cps = subsample_constraint_points(avg, 100)
    for k in (0, 50, 99):
        cp = cps[k]
        out = workspace / f"local_{k}.csv"
        rc = cmd_export_field(cli._ExportParams([cp[0] - 1, cp[0] + 1, cp[1] - 1, cp[1] + 1],
                                                resolution=3), workspace / "model.json", out)
        assert rc == 0
        rows = np.loadtxt(out, delimiter=",", skiprows=1)
        mid = rows[4]
        np.testing.assert_allclose(mid[:2], cp, atol=1e-12)
        assert mid[4] <= 1e-5
        assert abs(mid[4] - max_contraction_eigenvalues(field, cp[None])[0]) <= 1e-10


def test_model_file_round_trip(workspace):
    p1 = workspace / "model.json"
    field, config, report = modelfile.load_model(p1)
    assert report["converged"] is True and report["stop_reason"] == "converged"
    p2 = workspace / "resaved.json"
    modelfile.save_model(p2, field, config, report)
    assert p1.read_bytes() == p2.read_bytes()
    # a loaded model evaluates bit-identically to the saved one
    field2, _, _ = modelfile.load_model(p2)
    rng = np.random.default_rng(0)
    X = rng.normal(size=(100, 2)) * 10
    a = field_values(field.map, field.eta, X)
    b = field_values(field2.map, field2.eta, X)
    assert np.abs(a - b).max() <= 1e-15


def test_schema_1_model_file_loads_as_the_current_one(workspace, tmp_path):
    # schema "1" files also held the projector basis and a top-level tau;
    # both are ignored, and the projector is rebuilt from the map and the
    # equilibria as for a current file
    current = workspace / "model.json"
    doc = json.loads(current.read_text())
    assert doc["schema_version"] == "2" and not {"projector_basis", "tau"} & set(doc)
    field, config, report = modelfile.load_model(current)
    doc.update(schema_version="1", projector_basis=field.proj.basis.tolist(), tau=0.0)
    older = tmp_path / "schema1_model.json"
    older.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    old_field, old_config, old_report = modelfile.load_model(older)
    X = np.random.default_rng(1).normal(size=(100, 2)) * 10
    assert np.array_equal(old_field.eval(X), field.eval(X))
    assert np.array_equal(old_field.jacobian(X), field.jacobian(X))
    resaved = tmp_path / "resaved.json"
    modelfile.save_model(resaved, old_field, old_config, old_report)
    assert resaved.read_bytes() == current.read_bytes()


def test_save_model_refuses_a_projector_that_loading_would_not_rebuild(tmp_path):
    # the projector of {(0, 0), (5, 5)} with equilibria {(0, 0)} vanishes at
    # the equilibria, but loading rebuilds the projector of (0, 0) alone
    fm = sample_feature_map(KernelKind("curl_free", 5.0), 200, 2, seed=0)
    proj = build_vanishing_projector(fm, np.array([[0.0, 0.0], [5.0, 5.0]]))
    theta = np.random.default_rng(0).normal(size=fm.feature_dim)
    field = TrainedField(fm, proj, theta, np.zeros((1, 2)))
    path = tmp_path / "model.json"
    with pytest.raises(DataError, match="projector"):
        modelfile.save_model(path, field)
    assert not path.exists()
    rebuilt = TrainedField(fm, build_vanishing_projector(fm, field.equilibria), theta,
                           field.equilibria)
    assert not np.array_equal(field.eval(np.array([[1.0, 2.0]])),
                              rebuilt.eval(np.array([[1.0, 2.0]])))


def test_save_model_that_cannot_encode_leaves_the_old_file(workspace, tmp_path):
    # the document is encoded before the file opens: a config value that
    # JSON cannot encode raises and leaves the earlier model byte for byte
    path = tmp_path / "model.json"
    path.write_bytes((workspace / "model.json").read_bytes())
    field, config, report = modelfile.load_model(path)
    with pytest.raises(TypeError):
        modelfile.save_model(path, field, {**config, "note": object()}, report)
    assert path.read_bytes() == (workspace / "model.json").read_bytes()
    assert np.array_equal(modelfile.load_model(path)[0].theta, field.theta)


def test_save_model_whose_write_fails_leaves_the_old_file(workspace, tmp_path, monkeypatch):
    # a write that fails, as on a full disk, leaves the earlier model byte
    # for byte and no temporary file beside it
    path = tmp_path / "model.json"
    old = (workspace / "model.json").read_bytes()
    path.write_bytes(old)
    field, config, report = modelfile.load_model(path)

    def full_disk(*args, **kwargs):
        fh = open(*args, **kwargs)

        def write(text):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        fh.write = write
        return fh

    monkeypatch.setattr(modelfile, "open", full_disk, raising=False)
    with pytest.raises(OSError, match="No space left on device"):
        modelfile.save_model(path, field, config, report)
    assert path.read_bytes() == old
    assert list(tmp_path.iterdir()) == [path]


def test_save_model_gives_the_mode_and_errors_of_open(workspace, tmp_path):
    # a new model file gets the mode open(path, "w") gives, an existing one
    # keeps its own, and an error names the path as given
    field, config, report = modelfile.load_model(workspace / "model.json")
    new, reference = tmp_path / "new.json", tmp_path / "reference.json"
    with open(reference, "w"):
        pass
    modelfile.save_model(new, field, config, report)
    assert stat.S_IMODE(new.stat().st_mode) == stat.S_IMODE(reference.stat().st_mode)
    new.chmod(0o640)
    modelfile.save_model(new, field, config, report)
    assert stat.S_IMODE(new.stat().st_mode) == 0o640
    assert new.read_bytes() == (workspace / "model.json").read_bytes()
    missing = tmp_path / "missing" / "model.json"
    with pytest.raises(FileNotFoundError) as exc:
        modelfile.save_model(missing, field, config, report)
    assert exc.value.filename == str(missing)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["new.json", "reference.json"]


@pytest.mark.parametrize("slack_weight", [0.0, 5])
def test_eval_reads_models_with_retired_keys(workspace, capsys, tmp_path, slack_weight):
    # older model files name the solver section "admm", echo its slack_weight
    # (nonzero for a soft-constraint model) and report the gap as
    # "dual_residual" beside a primal_residual; load_model returns both
    # blocks as stored and eval reads only the echo's preprocess block, so
    # such a model evaluates to the same bytes
    doc = json.loads((workspace / "model.json").read_text())
    doc["config"]["admm"] = dict(doc["config"].pop("solver"), slack_weight=slack_weight)
    doc["solve_report"]["dual_residual"] = doc["solve_report"].pop("gap")
    doc["solve_report"]["primal_residual"] = 0.0
    older = tmp_path / "older_model.json"
    older.write_text(json.dumps(doc, indent=2, sort_keys=True))
    assert modelfile.load_model(older)[2] == doc["solve_report"]
    outputs = []
    for model in (workspace / "model.json", older):
        rc = main(["eval", "--model", str(model), "--data", str(workspace / "train.csv"),
                   "--test", str(workspace / "test.csv"), "--set", "grid_k=4"])
        assert rc == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_eval_rejects_a_model_whose_preprocess_block_is_invalid(workspace, capsys, tmp_path):
    # the stored preprocess block is read, and checked, as training reads it
    doc = json.loads((workspace / "model.json").read_text())
    doc["config"]["preprocess"]["smoothing_window"] = 4
    model = tmp_path / "even_window.json"
    model.write_text(json.dumps(doc))
    rc = main(["eval", "--model", str(model), "--data", str(workspace / "train.csv"),
               "--test", str(workspace / "test.csv"), "--set", "grid_k=4"])
    assert rc == 1
    assert capsys.readouterr().err == "error: preprocess.smoothing_window must be odd and >= 1\n"


def test_rollout_reports_a_bad_setting_before_it_opens_the_model(tmp_path, capsys):
    rc = main(["rollout", "--model", str(tmp_path / "missing.json"),
               "--set", "x0=10,20", "--set", "max_step=0"])
    assert rc == 1
    assert capsys.readouterr().err == "error: max_step must be positive, got 0\n"


@pytest.mark.parametrize("cls, key, value", [(cli._GridParams, "grid_k", 15),
                                             (cli._ExportParams, "bounds", [1.0, 2.0])],
                         ids=["grid_k-not-square", "bounds-two"])
def test_command_parameters_are_checked_when_built(cls, key, value):
    with pytest.raises(ValueError, match=rf"^{key} must be"):
        cls(**{key: value})


@pytest.mark.parametrize("command", ["eval", "grid-eval"])
def test_grid_k_is_checked_before_any_file_is_read(workspace, capsys, monkeypatch, command):
    forks, reads = with_cpus(monkeypatch, 2), []
    for module, name in ((cli, "load_demonstrations"), (modelfile, "load_model")):
        monkeypatch.setattr(module, name, lambda *a, read=getattr(module, name), name=name:
                            reads.append(name) or read(*a))
    argv = [command, "--model", str(workspace / "model.json"),
            "--data", str(workspace / "train.csv"), "--set", "grid_k=15"]
    if command == "eval":
        argv += ["--test", str(workspace / "test.csv")]
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: grid_k must be a positive perfect square, got 15\n"
    assert reads == [] and forks == []


def test_main_reads_every_command_from_one_table():
    # the parser's subcommands and their flags are those of cli._COMMANDS,
    # each command's settings class is a frozen dataclass, and main runs a
    # command from its entry without comparing anything with its name
    subparsers = next(a for a in cli._build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction)).choices
    parsed = {name: [flag for action in p._actions for flag in action.option_strings
                     if flag not in ("-h", "--help")] for name, p in subparsers.items()}
    assert parsed == {name: ["--config", *[f"--{flag}" for flag in flags], "--set"]
                      for name, (_, flags, *_) in cli._COMMANDS.items()}
    for _, flags, needs, cls, _ in cli._COMMANDS.values():
        assert set(needs) <= set(flags)
        assert is_dataclass(cls) and cls.__dataclass_params__.frozen
    tree = ast.parse(Path(cli.__file__).read_text())
    main_def = next(node for node in tree.body
                    if isinstance(node, ast.FunctionDef) and node.name == "main")
    assert [node.lineno for node in ast.walk(main_def) if isinstance(node, ast.Compare)
            and any(isinstance(sub, ast.Attribute) and sub.attr == "command"
                    for sub in ast.walk(node))] == []


def test_model_file_rejects_malformed(workspace, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    with pytest.raises(ParseError):
        modelfile.load_model(bad)
    doc = json.loads((workspace / "model.json").read_text())
    doc["schema_version"] = "99"
    versioned = tmp_path / "versioned.json"
    versioned.write_text(json.dumps(doc))
    with pytest.raises(ParseError):
        modelfile.load_model(versioned)
    doc["schema_version"] = "2"
    del doc["theta"]
    missing = tmp_path / "missing.json"
    missing.write_text(json.dumps(doc))
    with pytest.raises(ParseError):
        modelfile.load_model(missing)


def _with(doc, key, value):
    """A copy of `doc` whose entry at the dotted `key` is `value`, or
    `value(entry)` where `value` is callable."""
    doc = json.loads(json.dumps(doc))
    *parents, last = key.split(".")
    inner = doc
    for k in parents:
        inner = inner[k]
    inner[last] = value(inner[last]) if callable(value) else value
    return doc


@pytest.mark.parametrize("key, value", [
    pytest.param("config", [], id="config-list"),
    pytest.param("solve_report", [1], id="solve_report-list"),
    pytest.param("feature_map", "curl_free", id="feature_map-string"),
    pytest.param("feature_map.variant", "gaussian", id="variant-unknown"),
    pytest.param("feature_map.sigma", -1.0, id="sigma-negative"),
    pytest.param("feature_map.s", 200.5, id="s-fractional"),
    pytest.param("feature_map.n", True, id="n-boolean"),
    pytest.param("feature_map.freqs", lambda v: [x for row in v for x in row][:-1],
                 id="freqs-flat-one-short"),
    pytest.param("feature_map.freqs", lambda v: v[:-1], id="freqs-row-missing"),
    pytest.param("feature_map.freqs", lambda v: [[x, None] for x, _ in v], id="freqs-null"),
    pytest.param("feature_map.freqs", lambda v: [[1.0]] + v[1:], id="freqs-ragged"),
    pytest.param("feature_map.phases", lambda v: v + [0.5], id="phases-long"),
    pytest.param("equilibria", [[0.0, 0.0, 0.0]], id="equilibria-width"),
    # n |Z| = 200 = feature_dim: no capacity is left once the projector is rebuilt
    pytest.param("equilibria", [[float(i), 0.0] for i in range(100)], id="equilibria-too-many"),
    pytest.param("theta", lambda v: [str(x) for x in v], id="theta-strings"),
    pytest.param("theta", lambda v: [float("nan")] * len(v), id="theta-nan"),
    pytest.param("theta", lambda v: [True] * len(v), id="theta-booleans"),
    pytest.param("theta", lambda v: v[:-1], id="theta-short"),
])
def test_model_file_rejects_malformed_entries(workspace, capsys, tmp_path, key, value):
    # each malformed entry is a ParseError that names the file, and a
    # command reading the file exits 1 with that message
    doc = json.loads((workspace / "model.json").read_text())
    bad = tmp_path / "bad_model.json"
    bad.write_text(json.dumps(_with(doc, key, value)))
    with pytest.raises(ParseError, match="bad_model.json"):
        modelfile.load_model(bad)
    rc = main(["eval", "--model", str(bad), "--data", str(workspace / "train.csv"),
               "--set", "grid_k=4"])
    assert rc == 1
    assert "bad_model.json" in capsys.readouterr().err


def test_model_file_nonvanishing_field_is_a_data_error(workspace, tmp_path):
    # a well-formed file whose field does not vanish at its equilibria; the
    # projector is rebuilt from them, so it takes coefficients large enough
    # that the roundoff of L theta alone leaves the field above 1e-8 there
    doc = json.loads((workspace / "model.json").read_text())
    bad = tmp_path / "huge_theta.json"
    bad.write_text(json.dumps(_with(doc, "theta", lambda v: [1e10 * x for x in v])))
    with pytest.raises(DataError, match="equilibrium") as exc:
        modelfile.load_model(bad)
    assert str(bad) in str(exc.value)


def test_separable_train_round_trip(tmp_path, capsys, angle_train, angle_test):
    # the determinism and round trip of criterion 10, for the separable kernel
    write_demo_csv(tmp_path / "train.csv", angle_train)
    write_demo_csv(tmp_path / "test.csv", angle_test)
    cfg = dict(CLI_CONFIG, kernel="gaussian_separable", num_features=100, constraint_points=60)
    (tmp_path / "config.json").write_text(json.dumps(cfg))
    models = [tmp_path / "a.json", tmp_path / "b.json"]
    for model in models:
        assert main(["train", "--config", str(tmp_path / "config.json"),
                     "--data", str(tmp_path / "train.csv"), "--model", str(model)]) == 0
    assert models[0].read_bytes() == models[1].read_bytes()
    field, config, report = modelfile.load_model(models[0])
    assert field.map.kind.variant == "gaussian_separable" and field.map.feature_dim == 200
    modelfile.save_model(tmp_path / "resaved.json", field, config, report)
    assert (tmp_path / "resaved.json").read_bytes() == models[0].read_bytes()
    trained = train_field(load_demonstrations(tmp_path / "train.csv"), TrainConfig.from_dict(cfg))[0]
    X = np.random.default_rng(5).normal(size=(100, 2)) * 15
    assert np.array_equal(field.eval(X), trained.eval(X))
    assert np.array_equal(field.jacobian(X), trained.jacobian(X))
    capsys.readouterr()
    assert main(["eval", "--model", str(models[0]), "--data", str(tmp_path / "train.csv"),
                 "--test", str(tmp_path / "test.csv"), "--set", "grid_k=4"]) == 0
    assert json.loads(capsys.readouterr().out)["eval"]


def test_report_summary_null_for_unconstrained():
    # unconstrained solves carry -inf violation, which must serialize as
    # JSON null rather than an Infinity literal
    from types import SimpleNamespace
    rep = SimpleNamespace(iters=1, gap=0.0,
                          objective=1.5, max_constraint_violation=float("-inf"),
                          converged=True, stop_reason="converged")
    doc = modelfile.report_summary(rep)
    assert doc["max_constraint_violation"] is None
    text = json.dumps(doc)
    assert "Infinity" not in text
    assert json.loads(text)["max_constraint_violation"] is None


SRC = Path(cvfield.__file__).resolve().parent.parent


def _python(*args, **env):
    """Run a fresh interpreter that imports cvfield from this source tree."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env={**os.environ, "PYTHONPATH": path, **env},
                          capture_output=True, text=True, timeout=300, check=True)


def test_package_imports_without_scipy():
    out = _python("-c", "import sys, cvfield, cvfield.cli; "
                        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert out.stdout.strip() == "[]"
    # the library loads without the command line, which runs without warnings
    out = _python("-c", "import sys, cvfield; "
                        "print(sorted({'argparse', 'cvfield.cli'} & set(sys.modules)))")
    assert out.stdout.strip() == "[]"
    # grid evaluation forks its DTW workers itself, without the process-pool modules
    out = _python("-c", "import sys, cvfield; print(sorted("
                        "{'multiprocessing', 'concurrent.futures'} & set(sys.modules)))")
    assert out.stdout.strip() == "[]"
    assert _python("-W", "error", "-m", "cvfield.cli", "--help").stdout.startswith("usage:")


def _scurve_inputs(tmp_path):
    """Demonstration CSV and config shaped like the benchmark's train-scurve
    workload: 4 S-curve demonstrations of 1000 samples, s = 200, 100
    constraint points."""
    write_demo_csv(tmp_path / "train.csv", s_demos(num=4, samples=1000, seed=1))
    cfg = {"kernel": "curl_free", "sigma": 20.0, "num_features": 200, "lambda": 0.01,
           "tau": 0.0, "constraint_points": 100, "seed": 0,
           "solver": {"eps_abs": 1e-4, "eps_rel": 1e-9, "max_iters": 2000}}
    (tmp_path / "config.json").write_text(json.dumps(cfg))
    return tmp_path / "train.csv", tmp_path / "config.json"


def test_model_bytes_do_not_depend_on_blas_threads(tmp_path):
    data, config = _scurve_inputs(tmp_path)
    models = []
    for threads in ("1", "2"):
        models.append(tmp_path / f"model_{threads}.json")
        _python("-c", "import sys; from cvfield.cli import main; sys.exit(main(sys.argv[1:]))",
                "train", "--config", str(config), "--data", str(data), "--model", str(models[-1]),
                OPENBLAS_NUM_THREADS=threads)
    assert models[0].read_bytes() == models[1].read_bytes()


def test_loaded_projector_is_the_trained_one_at_any_blas_threads(tmp_path):
    # the file holds no projector: this process rebuilds it, at its own BLAS
    # thread count, bitwise as training made it
    data, config = _scurve_inputs(tmp_path)
    train = ("import json, sys; from pathlib import Path; import numpy as np; "
             "from cvfield import TrainConfig, load_demonstrations, save_model, train_field; "
             "data, config, model, basis = sys.argv[1:]; "
             "field, report, _ = train_field(load_demonstrations(data), "
             "TrainConfig.from_dict(json.loads(Path(config).read_text()))); "
             "save_model(model, field, report=report); np.save(basis, field.proj.basis)")
    for threads in ("1", "2"):
        model, basis = tmp_path / f"model_{threads}.json", tmp_path / f"basis_{threads}.npy"
        _python("-c", train, str(data), str(config), str(model), str(basis),
                OPENBLAS_NUM_THREADS=threads)
        loaded = modelfile.load_model(model)[0].proj.basis
        assert np.array_equal(loaded, np.load(basis))


def _openblas_threads():
    """get and set of numpy's bundled OpenBLAS thread count, read independently
    of the package; the test is skipped where numpy exports neither."""
    for lib in (Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"):
        dll = ctypes.CDLL(str(lib))
        get = getattr(dll, "scipy_openblas_get_num_threads64_", None)
        put = getattr(dll, "scipy_openblas_set_num_threads64_", None)
        if get is not None and put is not None:
            return get, put
    pytest.skip("numpy's OpenBLAS exports no thread controls")


@pytest.mark.parametrize("solve_raises", [False, True])
def test_train_field_restores_blas_threads(monkeypatch, angle_train, solve_raises):
    get, put = _openblas_threads()
    inside = []

    def projector(fm, Z):
        inside.append(get())
        return real_projector(fm, Z)

    def solve(problem, settings):
        inside.append(get())
        if solve_raises:
            raise RuntimeError("solver failure")
        return real_solve(problem, settings)

    real_projector, real_solve = training.build_vanishing_projector, training.solve_in_range
    monkeypatch.setattr(training, "build_vanishing_projector", projector)
    monkeypatch.setattr(training, "solve_in_range", solve)
    cfg = TrainConfig(sigma=10.0, num_features=50, constraint_points=20)
    original = get()
    try:
        put(2)
        before = get()
        if solve_raises:
            with pytest.raises(RuntimeError, match="solver failure"):
                train_field(angle_train, cfg)
        else:
            train_field(angle_train, cfg)
        assert inside == [1, 1]
        assert get() == before
    finally:
        put(original)
