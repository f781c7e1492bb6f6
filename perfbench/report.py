"""Run every workload and print every metric by name and unit.

Usage, from the repository root:

    python3 perfbench/report.py [--seeds 7,13] [--out FILE]

Runs ``perfbench/run.py`` once per workload and seed, untraced and traced,
for the ``run_seconds`` of BENCHMARK.json, and prints one table row per
metric. With ``--out`` it also writes the machine record of each run and
every result as one JSON document: a point of the bench trajectory in
``perfbench/trajectory/``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

import run


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(run.BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=run.ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} trace {trace} failed:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    machine = json.loads(lines[-2].removeprefix("machine "))
    return {"workload": workload, "seed": seed, "trace": trace, "machine": machine,
            "result": json.loads(lines[-1])}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="7,13")
    parser.add_argument("--out")
    args = parser.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    seconds = json.loads((run.ROOT / "BENCHMARK.json").read_text())["run_seconds"]

    records = []
    print(f"{'workload':18} {'seed':>4} {'metric':34} {'value':>16}  unit")
    for workload in run.WORKLOADS:
        for seed in seeds:
            for trace in (0, 1):
                rec = run_once(workload, seed, seconds, trace)
                records.append(rec)
                res = rec["result"]
                print(f"{workload:18} {seed:>4} {'commands ok':34} "
                      f"{res['attempted'] - res['failed']:>9}/{res['attempted']:<6}  "
                      f"correct={res['correct']}", flush=True)
                for name, m in res["metrics"].items():
                    print(f"{workload:18} {seed:>4} {name:34} {m['value']:16.6g}  {m['unit']}",
                          flush=True)
    if args.out:
        doc = {"seconds": seconds, "machine": run.machine_record(), "runs": records}
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
    return 0 if all(r["result"]["correct"] for r in records) else 1


if __name__ == "__main__":
    sys.exit(main())
