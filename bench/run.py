"""Closed-loop benchmark of the cvfield train -> eval pipeline.

    python3 bench/run.py --workload train-scurve --seed 3 --seconds 20 --trace 0

Run from the root of a source checkout.  One client issues one CLI command
at a time through `cvfield.cli.main(argv)` in this process and sends the
next only after the previous one has returned, until `--seconds` have
passed.  Every command's output is checked.  The last line of standard
output is one JSON object: `correct`, `attempted`, `failed` and `metrics`,
the end-to-end metrics with `--trace 0` and the per-layer metrics with
`--trace 1`.  The full report, with the machine record, goes to the lines
before it and to `.bench_out/`; with `--trace 1` the spans go there too.
See bench/NOTES.md for the workloads and metrics.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib
import ctypes
import glob
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import asdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

_BASE = {"kernel": "curl_free", "sigma": 20.0, "num_features": 200, "lambda": 0.01, "seed": 0}
SCURVE = {**_BASE, "tau": 0.0, "constraint_points": 100,
          "admm": {"rho": 10.0, "adapt_rho": True, "eps_abs": 1e-4, "eps_rel": 1e-9,
                   "max_iters": 250000}}
CONTRACT = {**_BASE, "tau": 100.0, "constraint_points": 20,
            "admm": {"rho": 3000.0, "adapt_rho": True, "eps_abs": 2e-4, "eps_rel": 1e-9,
                     "max_iters": 250000}}
# eval-grid evaluates the train-scurve model, trained during set-up
WORKLOADS = {
    "train-scurve": {"command": "train", "config": SCURVE},
    "train-contract": {"command": "train", "config": CONTRACT},
    "eval-grid": {"command": "eval", "config": SCURVE},
}
GRID_K = 64
# train workloads score their model outside the timed loop on a smaller grid
QUALITY_GRID_K = 16
SETUP_REPEATS = 3


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _import_package():
    """Import cvfield from this checkout's src/ and nowhere else."""
    if not (SRC / "cvfield" / "__init__.py").is_file():
        raise SystemExit(f"bench: no cvfield sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import cvfield
    import cvfield.cli
    import cvfield.dynamics
    import cvfield.metrics
    import cvfield.modelfile
    if SRC.resolve() not in Path(cvfield.__file__).resolve().parents:
        raise SystemExit(f"bench: cvfield was imported from {cvfield.__file__}, not {SRC}")
    return {m.__name__: m for m in (cvfield, cvfield.cli, cvfield.dynamics,
                                    cvfield.metrics, cvfield.modelfile)}


def summary(values):
    """Median, and the highest percentile with at least ten samples above it.

    The percentile is by nearest rank and is None below eleven samples.
    """
    vals = sorted(values)
    n = len(vals)
    out = {"n": n, "median": statistics.median(vals) if vals else None,
           "percentile": None, "value": None}
    if n >= 11:
        pct = 100 * (n - 10) // n
        out["percentile"] = pct
        out["value"] = vals[math.ceil(pct * n / 100) - 1]
    return out


def _blas_threads():
    import numpy as np
    libdir = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in glob.glob(str(libdir / "*openblas*")):
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def machine_record():
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
        commit = res.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": _blas_threads()},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


class Client:
    """Issues CLI commands one at a time and checks each one's output."""

    def __init__(self, mods, workdir, paths, spec, tracer):
        from checks import constraint_points
        from inputs import NUM_DEMOS
        self.num_demos = NUM_DEMOS
        self.cli = mods["cvfield.cli"]
        self.paths = paths
        self.spec = spec
        self.tracer = tracer
        self.model = workdir / "model.json"
        self.avg, self.cpoints = constraint_points(paths["train"], spec["config"])
        self.records = []
        self.first_output = None

    def argv(self, command):
        if command == "train":
            return ["train", "--config", str(self.paths["config"]),
                    "--data", str(self.paths["train"]), "--model", str(self.model)]
        return ["eval", "--model", str(self.model), "--data", str(self.paths["train"]),
                "--test", str(self.paths["test"]), "--set", f"grid_k={GRID_K}"]

    def run(self, command, traced=False, timed=True):
        out, err = io.StringIO(), io.StringIO()
        trace = (contextlib.ExitStack() if not traced else self._traced(command))
        wall, cpu = time.perf_counter(), time.process_time()
        try:
            with trace, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(self.argv(command))
        except SystemExit as exc:
            code = exc.code
        except Exception:
            code = None
            err.write(traceback.format_exc())
        wall, cpu = time.perf_counter() - wall, time.process_time() - cpu

        problems = [] if code == 0 else [f"exit status {code!r}: {err.getvalue()[-2000:]}"]
        output = None
        if code == 0:
            try:
                output, found = self._check(command, out.getvalue())
            except Exception:
                # e.g. a model file that is missing or does not load
                found = [f"check raised: {traceback.format_exc(limit=4)}"]
            problems += found
        if timed:
            if self.first_output is None:
                self.first_output = output
            elif output != self.first_output:
                problems.append("output differs from the first command of this run")
        rec = {"command": command, "traced": traced, "timed": timed, "wall_s": wall,
               "cpu_s": cpu, "exit": code, "problems": problems}
        self.records.append(rec)
        return rec

    def _check(self, command, stdout):
        """(output to compare across commands, problems found in it)."""
        import checks
        if command == "train":
            return (hashlib.sha256(self.model.read_bytes()).hexdigest(),
                    checks.train_problems(self.model, self.cpoints, self.spec["config"]))
        try:
            doc = json.loads(stdout)
        except json.JSONDecodeError as exc:
            return None, [f"eval printed no JSON: {exc}"]
        return doc, checks.eval_problems(doc, self.num_demos)

    @contextlib.contextmanager
    def _traced(self, command):
        with self.tracer.installed(), self.tracer.command(f"cli.{command}"):
            yield


def tally(records):
    """(attempted, failed): a command fails when any check found a problem."""
    return len(records), sum(1 for r in records if r["problems"])


def quality(mods, client):
    """fit_objective, repro_error_mm and grid_dtwd of the model the workload used."""
    from checks import fit_objective
    cv = mods["cvfield"]
    field, config, _ = mods["cvfield.modelfile"].load_model(client.model)
    q = {"fit_objective": fit_objective(field, client.avg, config["lambda"])}
    if client.spec["command"] == "eval" and client.first_output:
        doc = client.first_output
    else:
        # no eval command ran: score the trained model with the same functions
        train = cv.load_demonstrations(client.paths["train"])
        test = cv.load_demonstrations(client.paths["test"])
        metrics = mods["cvfield.metrics"]
        doc = {"eval": asdict(metrics.evaluate(field, train, test)),
               "grid_eval": asdict(metrics.grid_evaluate(field, train, grid_k=QUALITY_GRID_K))}
    q["repro_error_mm"] = doc["eval"]["training_trajectory_error"]
    q["grid_dtwd"] = doc["grid_eval"]["grid_dtwd"]
    return q, doc


def main(argv=None):
    args = _parse_args(argv)
    mods = _import_package()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import inputs
    import reference
    import tracing
    import_s = time.perf_counter() - T_START

    load_before = os.getloadavg()
    spec = WORKLOADS[args.workload]
    workdir = ROOT / ".bench_work" / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    outdir = ROOT / ".bench_out"
    workdir.mkdir(parents=True, exist_ok=True)
    outdir.mkdir(exist_ok=True)
    tracer = tracing.Tracer(mods)
    try:
        gen_s = []
        for _ in range(SETUP_REPEATS):
            t = time.perf_counter()
            paths = inputs.write_inputs(workdir, args.seed, spec["config"])
            gen_s.append(time.perf_counter() - t)
        client = Client(mods, workdir, paths, spec, tracer)

        # Each command is timed between two passes of the reference
        # computation, and its wall time is also quoted at the nominal
        # machine speed (`norm_s`).
        ref = reference.Reference()
        ref.time_s()
        refs = [ref.time_s()]

        def run_normalized(command, **kw):
            rec = client.run(command, **kw)
            refs.append(ref.time_s())
            rec["ref_s"] = 0.5 * (refs[-2] + refs[-1])
            rec["norm_s"] = rec["wall_s"] * reference.NOMINAL_S / rec["ref_s"]
            return rec

        # set-up time, at the nominal machine speed like the commands.  The
        # eval-grid model is trained once: three trains would add about 30 s
        # to each eval-grid run, and a full comparison of two commits (48
        # runs) has to end within 57 minutes.
        setup_s = (import_s + statistics.median(gen_s)) * reference.NOMINAL_S / refs[0]
        if spec["command"] == "eval":
            setup_s += run_normalized("train", timed=False)["norm_s"]

        # Stop once another command would likely end more than half a
        # command past the deadline, so a run measures about --seconds on
        # average.
        loop_start = time.perf_counter()
        walls = []
        while True:
            traced = bool(args.trace) and len(walls) % 2 == 1
            rec = run_normalized(spec["command"], traced=traced)
            walls.append(rec["wall_s"])
            left = args.seconds - (time.perf_counter() - loop_start)
            if left <= 0.5 * statistics.median(walls) and (not args.trace or len(walls) >= 2):
                break
        loop_s = time.perf_counter() - loop_start
        q, doc = (None, None) if args.trace else quality(mods, client)
        # every seed yields the same training problem, so this repeats across runs
        model_sha256 = hashlib.sha256(client.model.read_bytes()).hexdigest()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    load_after = os.getloadavg()

    records = client.records
    timed = [r for r in records if r["timed"]]
    plain = [r for r in timed if not r["traced"]]
    attempted, failed = tally(records)
    run_problems = []
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "loop_s": loop_s,
        "setup": {"import_s": import_s, "generate_s": gen_s, "ref_s": refs[0], "setup_s": setup_s},
        "command_s": summary([r["wall_s"] for r in plain]),
        "command_norm_s": summary([r["norm_s"] for r in plain]),
        "command_cpu_s": summary([r["cpu_s"] for r in plain]),
        "model_sha256": model_sha256,
        "load_before": load_before, "load_after": load_after,
        "machine": machine_record(),
        "commands": records,
    }
    if args.trace:
        traced = [r for r in timed if r["traced"]]
        per_cmd = [tracing.layer_metrics([s for s in tracer.spans if s.command == c])
                   for c in range(len(traced))]
        counts = {tuple(m[k] for k in tracing.EXACT_COUNTS) for m in per_cmd}
        if len(counts) > 1:
            run_problems.append(f"exact counts differ between commands: {sorted(counts)}")
        metrics = {k: statistics.median(m[k] for m in per_cmd) for k in per_cmd[0]}
        metrics["cli.wall_s"] = statistics.median(r["wall_s"] for r in traced)
        metrics["cli.cpu_s"] = statistics.median(r["cpu_s"] for r in traced)
        # at the nominal machine speed, as the drift between commands is
        # far larger than the few milliseconds the spans cost
        metrics["trace.overhead_s"] = (statistics.median(r["norm_s"] for r in traced)
                                       - statistics.median(r["norm_s"] for r in plain))
        metrics["trace.spans"] = len(tracer.spans) / len(traced)
        metrics["trace.span_cost_us"] = 1e6 * tracing.span_cost_s()
        spans_path = outdir / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write_jsonl(spans_path)
        report["spans_file"] = str(spans_path.relative_to(ROOT))
        report["span_durations_s"] = {
            name: summary([s.duration for s in tracer.spans if s.name == name])
            for name in sorted({s.name for s in tracer.spans})}
        units = {k: tracing.unit(k) for k in metrics}
    else:
        metrics = {"command_norm_s": report["command_norm_s"]["median"], "setup_s": setup_s,
                   "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                   **q}
        report["quality_source"] = doc
        units = {"command_norm_s": "s", "setup_s": "s", "peak_rss_mb": "MiB",
                 "fit_objective": "mm2/s2", "repro_error_mm": "mm", "grid_dtwd": "mm"}
    report["run_problems"] = run_problems
    result = {
        "correct": failed == 0 and not run_problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    report["result"] = result
    text = json.dumps(report, indent=1, sort_keys=True, default=str)
    (outdir / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(text + "\n")
    print(text)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
