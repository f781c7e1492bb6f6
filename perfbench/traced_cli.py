"""Run the pdimp CLI with a span recorded around each call into a layer.

Usage: python3 perfbench/traced_cli.py SPANS_JSON -- <pdimp arguments>

Each wrapped function is replaced at every pdimp module attribute that
refers to it, so a span names both the function (``engine.pd_values_at``)
and the module its caller looked it up through (``via``). Every
``PredictionModel.predict`` call is recorded with its row count and model
class. Each span also carries its ``cost``: the tracer's own time around the
wrapped call. Installing the wrappers is recorded as a ``trace.install``
span whose cost is its whole length. Spans stay in memory and are written to
SPANS_JSON when the command ends; the process exits with the command's exit
code. No file under ``src/`` is changed.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

# layer module -> functions wrapped wherever a pdimp module binds them
TARGETS = {
    "data": ("load_csv",),
    "serialize": ("load_model",),
    "engine": ("build_grid", "ordered_mean", "predictions_at_points", "pd_values_at",
               "partial_dependence", "joint_partial_dependence", "ice_curves"),
    "bridge": ("spawn_external",),
    "importance": ("importance_all", "importance_from_pd", "spread"),
    "interaction": ("interaction_matrix", "pd_interaction", "h_statistic"),
    "cli": ("run", "emit_plot_data", "_write_manifest"),
}

PREDICT = "models.predict"
INSTALL = "trace.install"
FIELDS = ("id", "parent", "name", "via", "thread", "start", "end", "rows", "model", "cost")


class Tracer:
    """In-memory span recorder; parents follow the call stack of each thread.

    Work handed to a ``ThreadPoolExecutor`` inherits the span that was open
    in the submitting thread as its parent.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> int | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def _record(self, name, via, fn, args, kwargs, rows=None, model=None):
        entered = time.perf_counter()
        stack = self._stack()
        parent = stack[-1] if stack else None
        span_id = next(self._ids)
        stack.append(span_id)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            cost = (start - entered) + (time.perf_counter() - end)
            self.spans.append((span_id, parent, name, via, threading.get_ident(),
                               start, end, rows, model, cost))

    def wrap(self, fn, name: str, via: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._record(name, via, fn, args, kwargs)
        return traced

    def wrap_predict(self, predict):
        @functools.wraps(predict)
        def traced(model, batch):
            return self._record(PREDICT, "models", predict, (model, batch), {},
                                rows=batch.n_rows, model=type(model).__name__)
        return traced

    def wrap_submit(self, submit):
        tracer = self

        @functools.wraps(submit)
        def traced(pool, fn, /, *args, **kwargs):
            parent = tracer.current()

            def adopted(*a, **k):
                saved = tracer._stack()
                tracer._local.stack = [] if parent is None else [parent]
                try:
                    return fn(*a, **k)
                finally:
                    tracer._local.stack = saved
            return submit(pool, adopted, *args, **kwargs)
        return traced

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": FIELDS, "spans": self.spans}, fh)


def install(tracer: Tracer):
    """Wrap the target functions in every loaded pdimp module; return the CLI module.

    The wrapping, after the imports an untraced command makes too, is
    recorded as a ``trace.install`` span.
    """
    cli = importlib.import_module("pdimp.cli")  # imports every layer
    start = time.perf_counter()
    targets = {}
    for layer, names in TARGETS.items():
        module = importlib.import_module(f"pdimp.{layer}")
        for name in names:
            fn = getattr(module, name, None)
            if callable(fn):
                targets[id(fn)] = (fn, f"{layer}.{name}")
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "pdimp" and not mod_name.startswith("pdimp."):
            continue
        via = mod_name.partition(".")[2] or "pdimp"
        for attr, value in list(vars(module).items()):
            hit = targets.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, tracer.wrap(value, hit[1], via))
    models = importlib.import_module("pdimp.models")
    models.PredictionModel.predict = tracer.wrap_predict(models.PredictionModel.predict)
    ThreadPoolExecutor.submit = tracer.wrap_submit(ThreadPoolExecutor.submit)
    end = time.perf_counter()
    tracer.spans.append((next(tracer._ids), None, INSTALL, "trace", threading.get_ident(),
                         start, end, None, None, end - start))
    return cli


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print(__doc__.splitlines()[2], file=sys.stderr)
        return 2
    tracer = Tracer()
    cli = install(tracer)
    try:
        return cli.main(argv[2:])
    finally:
        tracer.dump(argv[0])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
