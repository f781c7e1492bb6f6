"""Fixed-batch predict throughput of each model kind, apart from the engine.

Usage: python3 perfbench/probe.py --seed N

Fits one model of each kind on a Friedman sample (n=500, the workload
seed), then times ``model.predict`` on a fixed batch made by tiling the
sample, repeating for at least BUDGET_S seconds and three calls. Prints
one JSON object: kind -> {"rows": batch rows, "rows_per_s": median rate,
"calls": timed calls, "stable": every call returned the same bytes}.
Kernel changes show here apart from how the engine batches its calls.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from pdimp import (FRIEDMAN_EXPRESSION, SimulationSpec, fit_bagged_trees, fit_knn, fit_linear,
                   generate, parse_expression, spawn_external)

# rows per batch; each batch costs roughly 0.05-0.4 s on one core
BATCH_ROWS = {"trees": 5000, "knn": 1000, "linear": 200_000, "expression": 200_000,
              "bridge": 5000}
BUDGET_S = 0.4  # timed seconds per model kind
CHILD = Path(__file__).resolve().parent / "linear_child.py"


def _tiled(dataset, rows: int):
    return dataset.take(np.arange(rows) % dataset.n_rows)


def _time_predict(model, batch) -> dict:
    first = model.predict(batch)  # warm-up; also the reference output
    stable = bool(np.all(np.isfinite(first)))
    times = []
    deadline = time.perf_counter() + BUDGET_S
    while len(times) < 3 or time.perf_counter() < deadline:
        start = time.perf_counter()
        out = model.predict(batch)
        times.append(time.perf_counter() - start)
        stable = stable and out.tobytes() == first.tobytes()
    rows = batch.n_rows
    return {"rows": rows, "rows_per_s": rows / statistics.median(times),
            "calls": len(times), "stable": stable}


def probe(seed: int) -> dict:
    friedman = generate(SimulationSpec("friedman", 500, seed, 1.0))
    linear = generate(SimulationSpec("linear", 500, seed, 0.01))
    f_features = friedman.drop("y")
    l_features = linear.drop("y")
    results = {
        "trees": _time_predict(fit_bagged_trees(friedman, "y", 100, 6, 5, 1),
                               _tiled(f_features, BATCH_ROWS["trees"])),
        "knn": _time_predict(fit_knn(friedman, "y", 10),
                             _tiled(f_features, BATCH_ROWS["knn"])),
        "linear": _time_predict(fit_linear(linear, "y"),
                                _tiled(l_features, BATCH_ROWS["linear"])),
        "expression": _time_predict(parse_expression(FRIEDMAN_EXPRESSION, f_features.schema),
                                    _tiled(f_features, BATCH_ROWS["expression"])),
    }
    with spawn_external([sys.executable, str(CHILD)]) as child:
        results["bridge"] = _time_predict(child, _tiled(l_features, BATCH_ROWS["bridge"]))
    return results


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    print(json.dumps(probe(args.seed)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
