"""Record each workload's artifact digest for a set of seeds in reference.json.

Usage, from the repository root:

    python3 perfbench/record_reference.py --seeds 0-15

Run it only at a commit whose outputs are known to be right: the benchmark
counts any later difference from these digests as a failed command. Each
command runs twice and must give the same digest both times. A digest that
is already recorded must match, and is never overwritten.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

import run


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, sep, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi) + 1) if sep else [int(lo)])
    return seeds


def digest_for(w: run.Workload, seed: int) -> str:
    work = run.WORK / f"reference-{w.name}-{seed}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        inputs, _ = run.set_up(w, seed, work / "setup")
        digests = set()
        for i in range(2):
            out_dir = work / f"out-{i}"
            outcome = run.pdimp(run.analysis_args(w, inputs, out_dir), work / f"run-{i}.log")
            if outcome.code != 0:
                raise RuntimeError(f"{w.name} seed {seed}: exit {outcome.code}\n"
                                   f"{outcome.log.read_text()[-2000:]}")
            digests.add(run.artifact_digest(out_dir))
        if len(digests) != 1:
            raise RuntimeError(f"{w.name} seed {seed}: reruns differ")
        return digests.pop()
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="e.g. 0-15 or 7,13")
    args = parser.parse_args()
    doc = (json.loads(run.REFERENCE.read_text()) if run.REFERENCE.exists()
           else {"excludes": ["manifest.json"], "digests": {}})
    for name, workload in run.WORKLOADS.items():
        recorded = doc["digests"].setdefault(name, {})
        for seed in parse_seeds(args.seeds):
            digest = digest_for(workload, seed)
            if recorded.get(str(seed), digest) != digest:
                print(f"{name} seed {seed}: digest {digest} differs from the recorded one",
                      file=sys.stderr)
                return 1
            recorded[str(seed)] = digest
            print(f"{name} seed {seed}: {digest}", flush=True)
        doc["digests"][name] = dict(sorted(recorded.items(), key=lambda kv: int(kv[0])))
        run.REFERENCE.write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
