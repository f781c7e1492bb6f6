"""pdimp benchmark: CLI pipelines timed end to end, plus a traced per-layer run.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

The load is a closed loop: one client runs one ``pdimp`` command at a time,
each in a fresh process, with at most two worker threads. A run sets up its
inputs with ``pdimp simulate`` (and ``pdimp fit``) from the workload seed,
then repeats the analysis command until ``--seconds`` have passed, at least
three times, each followed by the fixed ``reference_job.py``. Every command's
artifacts, except ``manifest.json`` (it records the worker count), must
match the digest recorded for the seed in ``reference.json``; for a seed
with none, every rerun must match the first.

Times are reported at a fixed host speed. The speed of a shared host moves
by tens of percent within a minute, and a run sits inside one such phase,
so raw wall times spread widely from run to run. The reference job, run
seconds later, sees the same speed: ``wall_s`` is the median over commands
of the command's wall time divided by the reference job's, times
REFERENCE_JOB_S; ``setup_s`` is the median of the same ratio over the
set-ups, each also followed by the reference job. The raw
medians are printed on the line before the machine record. The workloads
are sized so that one command takes one to two seconds on a 2-vCPU host,
which gives about ten command and reference pairs per run.

``--trace 0`` prints the end-to-end metrics: the median wall time and PD
evaluations per second at that speed, set-up time (median of three set-ups), peak RSS and
the share of commands that succeeded. ``--trace 1`` alternates untraced
commands with commands run under ``traced_cli.py``, derives per-layer
metrics from the recorded spans, and adds the fixed-batch throughput probes
of ``probe.py``. A per-layer metric whose layer the workload never calls
reads 0. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it is
the machine record.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shlex
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
REFERENCE = BENCH_DIR / "reference.json"
CHILD = BENCH_DIR / "linear_child.py"
REFERENCE_JOB = BENCH_DIR / "reference_job.py"
# wall time of reference_job.py on the 2-vCPU Intel Xeon (2.0 GHz) host the
# benchmark was written on; it only sets the scale of the reported times
REFERENCE_JOB_S = 0.6

LAUNCH = ["-c", "import sys; from pdimp.cli import main; sys.exit(main())"]
FRIEDMAN = "10*sin(pi*x1*x2) + 20*(x3 - 0.5)^2 + 10*x4 + 5*x5"
SETUP_REPEATS = 3
MIN_SAMPLES = 3
COMMAND_TIMEOUT_S = 120.0


@dataclass(frozen=True)
class Workload:
    """One pipeline: simulated data, a model source, and the analysis command.

    ``source`` is ``file`` (a model fitted and saved in set-up from ``fit``),
    ``expr`` (the closed-form Friedman surface) or ``external`` (the shipped
    linear child). ``pairs`` selects ``interact --h-stat``; otherwise the
    command is ``importance``.
    """

    name: str
    kind: str
    n: int
    sigma: float
    source: str
    grid_count: int
    workers: int = 1
    fit: str | None = None
    pairs: tuple[tuple[str, str], ...] = ()


# BENCHMARK.json records why each workload is in the benchmark
WORKLOADS = {w.name: w for w in (
    Workload("trees-interact", "friedman", 200, 1.0, "file", 10, workers=2,
             fit="bagged:n_trees=100,max_depth=6,min_leaf=5,seed=1",
             pairs=(("x1", "x2"), ("x1", "x3"), ("x4", "x6"))),
    Workload("oracle-interact", "friedman", 5_000, 1.0, "expr", 10,
             pairs=(("x1", "x2"), ("x1", "x3"), ("x4", "x5"), ("x9", "x10"))),
    Workload("knn-importance", "friedman", 180, 1.0, "file", 10, fit="knn:k=10"),
    Workload("bridge-importance", "linear", 1_200, 0.01, "external", 20),
)}


def child_env() -> dict:
    """Environment for every pdimp process: this checkout's source, one BLAS thread."""
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "PDIMP_WORKERS")}
    env.update(PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    return env


@dataclass
class Outcome:
    code: int
    wall_s: float
    peak_rss_mb: float
    log: Path


def run_process(argv: list[str], log: Path) -> Outcome:
    """Run to completion with output to ``log``; wall time and this process's peak RSS.

    A process still running after COMMAND_TIMEOUT_S is killed and counts as failed.
    """
    with open(log, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT, env=child_env(),
                                cwd=ROOT)
        watchdog = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Outcome(proc.returncode, wall, usage.ru_maxrss / 1024.0, log)


def pdimp(args: list[str], log: Path) -> Outcome:
    return run_process([sys.executable, *LAUNCH, *args], log)


def reference_job(log: Path) -> float:
    """Wall time of one run of the fixed reference job."""
    outcome = run_process([sys.executable, str(REFERENCE_JOB)], log)
    if outcome.code != 0:
        raise RuntimeError(f"the reference job failed:\n{log.read_text()}")
    return outcome.wall_s


@dataclass(frozen=True)
class Inputs:
    data: Path
    model: Path | None


def set_up(w: Workload, seed: int, where: Path) -> tuple[Inputs, float]:
    """Simulate the CSV, then fit and save the model; returns inputs and seconds."""
    where.mkdir(parents=True)
    data = where / "data.csv"
    start = time.perf_counter()
    steps = [["simulate", "--kind", w.kind, "--n", str(w.n), "--sigma", repr(w.sigma),
              "--seed", str(seed), "--out", str(data)]]
    if w.fit:
        steps.append(["fit", "--data", str(data), "--target", "y", "--model", w.fit,
                      "--out-dir", str(where / "model")])
    for i, step in enumerate(steps):
        outcome = pdimp(step, where / f"setup-{i}.log")
        if outcome.code != 0:
            raise RuntimeError(f"set-up step {step[0]} failed:\n{outcome.log.read_text()}")
    elapsed = time.perf_counter() - start
    return Inputs(data, where / "model" / "model.json" if w.fit else None), elapsed


def analysis_args(w: Workload, inputs: Inputs, out_dir: Path) -> list[str]:
    if w.source == "file":
        source = ["--model-file", str(inputs.model)]
    elif w.source == "expr":
        source = ["--expr", FRIEDMAN]
    else:
        source = ["--external", shlex.join([sys.executable, str(CHILD)])]
    args = ["interact" if w.pairs else "importance", "--data", str(inputs.data),
            "--target", "y", *source, "--grid", f"quantile:{w.grid_count}",
            "--workers", str(w.workers), "--out-dir", str(out_dir)]
    if w.pairs:
        args += ["--h-stat", "--pairs", ",".join(f"{a}:{b}" for a, b in w.pairs)]
    return args


def artifact_digest(out_dir: Path) -> str:
    """sha256 over the names and bytes of every artifact except manifest.json."""
    h = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        if path.name == "manifest.json":
            continue
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def recorded_digest(w: Workload, seed: int) -> str | None:
    """Digest recorded for a registered workload and seed; None for any other."""
    if WORKLOADS.get(w.name) != w or not REFERENCE.exists():
        return None
    doc = json.loads(REFERENCE.read_text())
    return doc["digests"].get(w.name, {}).get(str(seed))


def logical_points(w: Workload, data: Path) -> int:
    """PD grid points the report needs: joint grids (+ marginals for H), or one
    grid per feature for importance, plus one baseline. Fixed by the inputs.

    The grids come from pdimp's own ``load_csv`` and ``build_grid``, so the
    count follows the grids the program evaluates.
    """
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from pdimp.data import load_csv
    from pdimp.engine import GridStrategy, build_grid

    dataset = load_csv(data)
    strategy = GridStrategy.parse(f"quantile:{w.grid_count}")
    size = {name: build_grid(dataset, [name], strategy).size
            for name in dataset.feature_names if name != "y"}
    if w.pairs:
        joint = sum(size[a] * size[b] for a, b in w.pairs)
        marginal = sum(size[f] for f in sorted({f for p in w.pairs for f in p}))
        return joint + marginal + 1
    return sum(size.values()) + 1


def machine_record() -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        got = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        commit = got.stdout.strip() or None
    return {"nproc": os.cpu_count(), "cpu_model": cpu or platform.processor() or None,
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "git_commit": commit,
            "loadavg_start": list(os.getloadavg())}


class Checker:
    """Counts commands and failures; a failure is a non-zero exit or a digest mismatch."""

    def __init__(self, expected: str | None):
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def check(self, outcome: Outcome, out_dir: Path, label: str) -> bool:
        self.attempted += 1
        ok = outcome.code == 0
        if ok:
            digest = artifact_digest(out_dir)
            if self.expected is None:
                self.expected = digest
            ok = digest == self.expected
            if not ok:
                self.notes.append(f"{label}: artifacts differ from the reference digest")
        else:
            self.notes.append(f"{label}: exit {outcome.code}\n{outcome.log.read_text()[-2000:]}")
        self.failed += not ok
        return ok


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def end_to_end(w: Workload, seed: int, seconds: float, work: Path, checker: Checker) -> dict:
    setups, setup_references = [], []
    for i in range(SETUP_REPEATS):
        inputs, elapsed = set_up(w, seed, work / f"setup-{i}")
        setups.append(elapsed)
        setup_references.append(reference_job(work / "reference.log"))
    points = logical_points(w, inputs.data)
    samples, references = [], []
    deadline = time.perf_counter() + seconds
    while len(samples) < MIN_SAMPLES or time.perf_counter() < deadline:
        out_dir = work / f"out-{len(samples)}"
        outcome = pdimp(analysis_args(w, inputs, out_dir), work / f"run-{len(samples)}.log")
        checker.check(outcome, out_dir, f"run {len(samples)}")
        samples.append(outcome)
        shutil.rmtree(out_dir, ignore_errors=True)
        references.append(reference_job(work / "reference.log"))
    wall = REFERENCE_JOB_S * statistics.median(s.wall_s / r for s, r in zip(samples, references))
    setup = REFERENCE_JOB_S * statistics.median(t / r for t, r in zip(setups, setup_references))
    print(f"{w.name} seed {seed}: {len(samples)} commands, raw wall_s median "
          f"{statistics.median(s.wall_s for s in samples):.4f} "
          f"[{' '.join(f'{s.wall_s:.3f}' for s in samples)}], reference job median "
          f"{statistics.median(references):.4f} [{' '.join(f'{r:.3f}' for r in references)}], "
          f"raw set-ups [{' '.join(f'{t:.3f}' for t in setups)}] with reference jobs "
          f"[{' '.join(f'{r:.3f}' for r in setup_references)}]")
    return {
        "wall_s": metric(wall, "s"),
        "pd_evals_per_s": metric(w.n * points / wall, "1/s"),
        "setup_s": metric(setup, "s"),
        "peak_rss_mb": metric(statistics.median(s.peak_rss_mb for s in samples), "MB"),
        "ok_ratio": metric((checker.attempted - checker.failed) / checker.attempted, "ratio"),
    }


ENGINE_PD = {"engine.partial_dependence", "engine.joint_partial_dependence",
             "engine.pd_values_at", "engine.predictions_at_points", "engine.ice_curves"}


def load_spans(path: Path) -> list[dict]:
    doc = json.loads(path.read_text())
    return [dict(zip(doc["fields"], s)) for s in doc["spans"]]


def _covered(start: float, end: float, intervals: list[tuple[float, float]]) -> float:
    """Length of [start, end] covered by the union of ``intervals``."""
    total, reach = 0.0, start
    for s, e in sorted(intervals):
        s, e = max(s, reach), min(e, end)
        if e > s:
            total += e - s
            reach = e
    return total


def layer_metrics(spans: list[dict], logical_rows: int) -> dict:
    """Per-layer sums, counts and ratios from one traced command's spans.

    ``trace.overhead_s`` is the tracer's own time: installing the wrappers
    plus the bookkeeping of every span outside the call it wraps.
    """
    by_id = {s["id"]: s for s in spans}

    def dur(s):
        return s["end"] - s["start"]

    def total(name, via=None):
        return sum(dur(s) for s in spans if s["name"] == name and via in (None, s["via"]))

    def ancestors(s):
        while s["parent"] is not None and s["parent"] in by_id:
            s = by_id[s["parent"]]
            yield s

    predicts = [s for s in spans if s["name"] == "models.predict"]
    rows = sum(s["rows"] for s in predicts)
    predict_s = sum(dur(s) for s in predicts)

    # engine self time: outermost engine PD spans minus the predict time they cover
    covered_by: dict[int, list] = {}
    for p in predicts:
        outer = None
        for a in ancestors(p):
            if a["name"] in ENGINE_PD:
                outer = a
        if outer is not None:
            covered_by.setdefault(outer["id"], []).append((p["start"], p["end"]))
    engine_self = 0.0
    for s in spans:
        if s["name"] in ENGINE_PD and not any(a["name"] in ENGINE_PD for a in ancestors(s)):
            engine_self += dur(s) - _covered(s["start"], s["end"], covered_by.get(s["id"], []))

    h_prefill = sum(dur(s) for s in spans
                    if s["name"] == "engine.pd_values_at" and s["via"] == "interaction"
                    and not any(a["name"] == "interaction.h_statistic" for a in ancestors(s)))
    bridge = [p for p in predicts if p["model"] == "ExternalModel"]
    bridge_s = sum(dur(s) for s in bridge)
    bridge_rows = sum(s["rows"] for s in bridge)
    return {
        "data.load_csv_s": total("data.load_csv"),
        "serialize.load_model_s": total("serialize.load_model"),
        "engine.predict_calls": len(predicts),
        "engine.rows_scored": rows,
        "engine.useful_row_ratio": logical_rows / rows if rows else 0.0,
        "engine.predict_s": predict_s,
        "engine.self_s": engine_self,
        "engine.ordered_mean_s": total("engine.ordered_mean"),
        "engine.build_grid_s": total("engine.build_grid"),
        "bridge.spawn_s": total("bridge.spawn_external"),
        "bridge.round_trips": len(bridge),
        "bridge.round_trip_s": bridge_s,
        "bridge.rows_per_s": bridge_rows / bridge_s if bridge_s else 0.0,
        "interaction.joint_pd_s": total("engine.joint_partial_dependence", via="interaction"),
        "interaction.h_s": total("interaction.h_statistic") + h_prefill,
        "importance.spread_s": total("importance.spread"),
        "cli.emit_s": total("cli.emit_plot_data") + total("cli._write_manifest"),
        "trace.overhead_s": sum(s["cost"] for s in spans),
    }


LAYER_UNITS = {
    "engine.predict_calls": "count", "engine.rows_scored": "count",
    "engine.useful_row_ratio": "ratio", "engine.concurrency": "ratio",
    "bridge.round_trips": "count", "bridge.rows_per_s": "rows/s",
}
COUNTS = ("engine.predict_calls", "engine.rows_scored", "bridge.round_trips")
PROBES = {"trees": "trees.predict_rows_per_s", "knn": "models.knn_predict_rows_per_s",
          "linear": "models.linear_predict_rows_per_s",
          "expression": "expressions.predict_rows_per_s", "bridge": "bridge.predict_rows_per_s"}


def per_layer(w: Workload, seed: int, seconds: float, work: Path, checker: Checker) -> dict:
    inputs, _ = set_up(w, seed, work / "setup")
    logical_rows = w.n * logical_points(w, inputs.data)
    plain, traced = [], []
    deadline = time.perf_counter() + seconds
    while len(plain) < 2 or time.perf_counter() < deadline:
        i = len(plain)
        out_dir = work / f"plain-{i}"
        outcome = pdimp(analysis_args(w, inputs, out_dir), work / f"plain-{i}.log")
        checker.check(outcome, out_dir, f"untraced run {i}")
        plain.append(outcome.wall_s)
        out_dir = work / f"traced-{i}"
        spans_path = work / f"spans-{i}.json"
        outcome = run_process([sys.executable, str(BENCH_DIR / "traced_cli.py"), str(spans_path),
                               "--", *analysis_args(w, inputs, out_dir)],
                              work / f"traced-{i}.log")
        if checker.check(outcome, out_dir, f"traced run {i}"):
            traced.append(layer_metrics(load_spans(spans_path), logical_rows))
    for name in COUNTS:
        if len({t[name] for t in traced}) > 1:
            checker.failed += 1
            checker.notes.append(f"{name} differs between traced runs")

    probe_log = work / "probe.log"
    outcome = run_process([sys.executable, str(BENCH_DIR / "probe.py"), "--seed", str(seed)],
                          probe_log)
    checker.attempted += 1
    probes = {}
    if outcome.code == 0:
        probes = json.loads(probe_log.read_text().strip().splitlines()[-1])
    if outcome.code != 0 or not all(p["stable"] for p in probes.values()):
        checker.failed += 1
        checker.notes.append(f"probe failed:\n{probe_log.read_text()[-2000:]}")

    metrics = {}
    if traced:
        for name in traced[0]:
            value = statistics.median(t[name] for t in traced)
            metrics[name] = metric(value, LAYER_UNITS.get(name, "s"))
        # busy predict time over the untraced wall time of this run's commands
        concurrency = statistics.median(t["engine.predict_s"] for t in traced) / \
            statistics.median(plain)
        metrics["engine.concurrency"] = metric(concurrency, "ratio")
    for kind, name in PROBES.items():
        if kind in probes:
            metrics[name] = metric(probes[kind]["rows_per_s"], "rows/s")
    print(f"{w.name} seed {seed}: per-layer medians of {len(traced)} traced commands, "
          f"{len(plain)} untraced for engine.concurrency")
    return metrics


def measure(w: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns the result object printed as the last line."""
    work = WORK / f"{w.name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    checker = Checker(recorded_digest(w, seed))
    try:
        if trace:
            metrics = per_layer(w, seed, seconds, work, checker)
        else:
            metrics = end_to_end(w, seed, seconds, work, checker)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for note in checker.notes:
        print(note, file=sys.stderr)
    return {"correct": checker.failed == 0, "attempted": checker.attempted,
            "failed": checker.failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7, help="workload seed (default 7)")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "pdimp" / "cli.py").is_file():
        print(f"no pdimp source under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    machine = machine_record()
    result = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    machine["loadavg_end"] = list(os.getloadavg())
    print("machine " + json.dumps(machine))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
