"""Command-line front end: reproducible runs that emit tables and plot data.

Every analysis result is written by ``emit_plot_data`` alone: a CSV of the
result's rows under its sidecar's column names, the result's JSON document,
or both, plus the sidecar (``*.schema.json``) describing the columns, ready
for gnuplot or any plotting tool. Every run that writes files (fit,
simulate and the four analyses) also writes a manifest through
``_write_manifest``: the tool version and the parsed command line, every
option of the subcommand that holds a value, defaults included. Nothing
records a time, so identical command lines produce byte-identical outputs.

Start-up is most of a short command's time, so this module imports at
module level only what parsing and reporting need: ``data``, ``errors``
and ``limits``, which holds the bounds the help text prints. Each
subcommand handler, and each model source, imports the modules it runs:
``simulate`` loads no analysis module, and only ``--external`` and
``bridge-check`` load ``bridge`` with its ``subprocess``.
"""

from __future__ import annotations

import argparse
import sys
import threading
import warnings
from pathlib import Path

import numpy as np

from . import __version__
from .data import Dataset, load_csv, write_csv, write_json
from .errors import BridgeError, NonFiniteError, ParameterError, PdimpError, UsageError
from .limits import MAX_GRID_COUNT, MAX_SIMULATION_ROWS, MEASURES

SUBCOMMANDS = ("fit", "importance", "pdp", "ice", "interact", "simulate", "bridge-check")
# the most rows bridge-check may probe with; without --data it builds them all
MAX_PROBE_ROWS = 1_000_000
_AGGREGATOR_HELP = "mean | median | trimmed:ALPHA (default %(default)s)"


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _model_flags(parser: _Parser):
    group = parser.add_argument_group("model source (exactly one)")
    group.add_argument("--model", help="builtin learner: linear | knn:k=5 | "
                                       "bagged:n_trees=100,max_depth=6,min_leaf=5,seed=0")
    group.add_argument("--expr", help="closed-form prediction surface, e.g. '1 + 3*x1 - 5*x2'")
    group.add_argument("--external", help="external model command (line protocol child)")
    group.add_argument("--model-file", help="previously saved model JSON")
    parser.add_argument("--timeout", type=float, default=30.0,
                        help="external model response timeout in seconds")


def _common_flags(parser: _Parser, grid_default: str):
    parser.add_argument("--data", required=True, help="input CSV path")
    parser.add_argument("--target", help="target column (required to fit builtin learners; "
                                         "otherwise dropped from the feature set if present)")
    parser.add_argument("--grid", default=grid_default,
                        help="unique | quantile:Q | equidistant:K, Q and K at most "
                             f"{MAX_GRID_COUNT} and at most {MAX_GRID_COUNT} points in a grid; "
                             "a categorical grid is its level table (default %(default)s)")
    parser.add_argument("--workers", type=int, default=1,
                        help="threads scoring slabs of grid points, at most one per slab "
                             "and per available CPU; results do not depend on this")
    parser.add_argument("--out-dir", default=".", help="artifact directory")
    parser.add_argument("--formats", default="csv,json", help="comma list of csv,json")


def build_parser() -> _Parser:
    parser = _Parser(prog="pdimp", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"pdimp {__version__}")
    sub = parser.add_subparsers(dest="subcommand", metavar="{" + ",".join(SUBCOMMANDS) + "}")

    p = sub.add_parser("fit", help="fit a builtin learner and save it as JSON")
    p.add_argument("--data", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--out-dir", default=".")

    p = sub.add_parser("importance", help="rank features by PD flatness")
    _common_flags(p, grid_default="unique")
    _model_flags(p)
    p.add_argument("--measure", default="sd", choices=MEASURES)
    p.add_argument("--aggregator", default="mean", help=_AGGREGATOR_HELP)

    p = sub.add_parser("pdp", help="partial dependence of one feature or a pair")
    _common_flags(p, grid_default="unique")
    _model_flags(p)
    p.add_argument("--features", required=True, help="one name, or two comma-separated")
    p.add_argument("--aggregator", default="mean", help=_AGGREGATOR_HELP)

    p = sub.add_parser("ice", help="individual conditional expectation curves")
    _common_flags(p, grid_default="unique")
    _model_flags(p)
    p.add_argument("--feature", required=True)

    p = sub.add_parser("interact", help="pairwise interaction statistics")
    _common_flags(p, grid_default="quantile:10")
    _model_flags(p)
    p.add_argument("--pairs", help="comma list of colon pairs, e.g. x1:x2,x3:x4 (default: all)")
    p.add_argument("--h-stat", action="store_true", help="also report Friedman's H per pair")
    p.add_argument("--top", type=int, default=10, help="rows in the printed table")

    p = sub.add_parser("simulate", help="generate a synthetic benchmark dataset")
    p.add_argument("--kind", required=True, choices=("linear", "friedman"))
    p.add_argument("--n", required=True, type=int,
                   help=f"rows, 1 to {MAX_SIMULATION_ROWS}")
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--beta0", type=float, default=1.0)
    p.add_argument("--beta1", type=float, default=3.0)
    p.add_argument("--beta2", type=float, default=-5.0)
    p.add_argument("--out", required=True, help="output CSV path")

    p = sub.add_parser("bridge-check", help="handshake an external model and probe it")
    p.add_argument("--external", required=True)
    p.add_argument("--data", help="optional CSV; its first rows become the probe batch")
    p.add_argument("--rows", type=int, default=3,
                   help=f"probe rows, 1 to {MAX_PROBE_ROWS} (default %(default)s)")
    p.add_argument("--timeout", type=float, default=30.0)

    return parser


def _parse_model_params(text: str) -> tuple[str, dict]:
    kind, sep, rest = text.partition(":")
    params = {}
    if sep:
        for item in rest.split(","):
            key, eq, value = map(str.strip, item.partition("="))
            if not eq:
                raise UsageError(f"bad model parameter {item!r} in {text!r}")
            if key in params:
                raise UsageError(f"model parameter {key!r} is given twice in {text!r}")
            try:
                params[key] = int(value)
            except ValueError:
                raise UsageError(f"model parameter {key!r} must be an integer") from None
    return kind, params


def _resolve_model(args, features: Dataset, full: Dataset):
    """Build the prediction model from whichever source flag was given."""
    if sum(bool(getattr(args, s)) for s in ("model", "expr", "external", "model_file")) != 1:
        raise UsageError("give exactly one of --model, --expr, --external, --model-file")
    if args.expr:
        from .expressions import parse_expression

        return parse_expression(args.expr, features.schema)
    if args.external:
        from .bridge import spawn_external

        return spawn_external(args.external, timeout=args.timeout)
    if args.model_file:
        from .serialize import load_model

        return load_model(args.model_file)
    return _fit_builtin(args.model, args.target, full)


def _fit_builtin(spec: str, target: str | None, full: Dataset):
    """Fit the builtin learner named by a ``--model`` value on ``full``."""
    kind, params = _parse_model_params(spec)
    if target is None:
        raise UsageError(f"--target is required to fit the builtin {kind!r} model")
    if kind == "linear":
        from .models import fit_linear

        _reject_params(params, ())
        return fit_linear(full, target)
    if kind == "knn":
        from .models import fit_knn

        _reject_params(params, ("k",))
        return fit_knn(full, target, params.get("k", 5))
    if kind == "bagged":
        from .trees import fit_bagged_trees

        _reject_params(params, ("n_trees", "max_depth", "min_leaf", "seed"))
        return fit_bagged_trees(full, target, **params)
    raise UsageError(f"unknown builtin model kind {kind!r}")


def _reject_params(params: dict, allowed: tuple[str, ...]):
    extra = set(params) - set(allowed)
    if extra:
        raise UsageError(f"unknown model parameters {sorted(extra)}; allowed: {list(allowed)}")


def _load_rows(path) -> Dataset:
    """The CSV at ``path``, refused if it holds no data rows: an error, not
    the warning ``load_csv`` gives library callers for it."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "CSV body is empty", UserWarning)
        full = load_csv(path)
    if full.n_rows == 0:
        raise ParameterError(f"{path} holds no data rows")
    return full


def _load_features(args) -> tuple[Dataset, Dataset]:
    """(feature dataset, full dataset); the target column is excluded from features."""
    full = _load_rows(args.data)
    if args.target:
        features, _ = full.split_target(args.target)
    else:
        features = full
    return features, full


def _formats(text: str) -> tuple[str, ...]:
    """The formats a ``--formats`` list names: at least one, each once."""
    formats = tuple(f.strip() for f in text.split(",") if f.strip())
    if not formats:
        raise UsageError("--formats names no format; give csv, json or both")
    for fmt in formats:
        if fmt not in ("csv", "json"):
            raise UsageError(f"unsupported output format {fmt!r}")
    if len(set(formats)) != len(formats):
        raise UsageError(f"--formats names a format twice: {text!r}")
    return formats


def emit_plot_data(result, out_dir, basename: str, formats=("csv", "json")) -> list[Path]:
    """Write a result as plot data: the only writer of analysis results.

    ``result`` is a ``PDResult``, ``ICEResult``, ``ImportanceReport`` or
    ``InteractionReport``. ``basename.csv`` holds ``result.rows()`` under
    the names of ``result.sidecar()["columns"]``, ``basename.json`` holds
    ``result.to_json_dict()``, and ``basename.schema.json`` holds the
    sidecar itself, whatever the formats. Returns the paths written.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    sidecar = result.sidecar()
    paths = []
    for fmt in formats:
        path = out_dir / f"{basename}.{fmt}"
        if fmt == "csv":
            write_csv(path, [column["name"] for column in sidecar["columns"]], result.rows())
        elif fmt == "json":
            write_json(path, result.to_json_dict())
        else:
            raise ParameterError(f"unsupported output format {fmt!r}")
        paths.append(path)
    paths.append(out_dir / f"{basename}.schema.json")
    write_json(paths[-1], sidecar)
    return paths


def _write_manifest(path, args) -> None:
    """Write the manifest of a run to ``path``: the tool version and every
    parsed option of the command line that holds a value."""
    write_json(path, {"tool": "pdimp", "version": __version__,
                      "config": {k: v for k, v in vars(args).items() if v is not None}})


def _cmd_fit(args) -> int:
    from .serialize import save_model

    _, full = _load_features(args)
    model = _fit_builtin(args.model, args.target, full)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    save_model(model, out_dir / "model.json")
    _write_manifest(out_dir / "manifest.json", args)
    print(f"saved {out_dir / 'model.json'}")
    return 0


def _analyse(args, basename: str, analysis, summary, check_names=None) -> int:
    """Body shared by the analysis subcommands.

    Checks ``--formats`` and ``--grid`` (and ``--aggregator`` where the
    subcommand has one) before any work, loads the data, runs
    ``check_names(features)`` on the names the command asks for, resolves
    the model, runs ``analysis(model, features, strategy)`` (closing an
    external model afterwards), writes the result and the manifest, and
    prints ``summary(result)``.
    """
    from .engine import GridStrategy, reducer

    formats = _formats(args.formats)
    strategy = GridStrategy.parse(args.grid)
    if "aggregator" in args:
        reducer(args.aggregator)
    features, full = _load_features(args)
    if check_names is not None:
        check_names(features)
    model = _resolve_model(args, features, full)
    try:
        result = analysis(model, features, strategy)
    finally:
        getattr(model, "close", lambda: None)()  # an external model stops its child
    emit_plot_data(result, args.out_dir, basename, formats)
    _write_manifest(Path(args.out_dir) / "manifest.json", args)
    print(summary(result))
    return 0


def _cmd_importance(args) -> int:
    from .importance import ImportanceReport, importance_all

    def analysis(model, features, strategy):
        return importance_all(model, features, strategy, args.measure,
                              workers=args.workers, aggregator=args.aggregator)

    return _analyse(args, "importance", analysis, ImportanceReport.to_text)


def _cmd_pdp(args) -> int:
    from .engine import build_grid, partial_dependence

    names = [n.strip() for n in args.features.split(",") if n.strip()]
    if len(names) not in (1, 2):
        raise UsageError("--features takes one name or two comma-separated names")

    def analysis(model, features, strategy):
        grid = build_grid(features, names, strategy)
        return partial_dependence(model, features, grid, workers=args.workers,
                                  aggregator=args.aggregator)

    def summary(result):
        return (f"pd over {' x '.join(names)}: {result.grid.size} grid points, "
                f"baseline {result.baseline:.6g}")

    return _analyse(args, "pd", analysis, summary,
                    lambda features: [features.schema_for(name) for name in names])


def _cmd_ice(args) -> int:
    from .engine import build_grid, ice_curves

    def analysis(model, features, strategy):
        grid = build_grid(features, [args.feature], strategy)
        return ice_curves(model, features, grid, workers=args.workers)

    def summary(result):
        return f"{result.curves.shape[0]} curves x {result.curves.shape[1]} grid points"

    return _analyse(args, "ice", analysis, summary,
                    lambda features: features.schema_for(args.feature))


def _cmd_interact(args) -> int:
    from .interaction import check_pairs, interaction_matrix

    pairs = None
    if args.pairs is not None:  # --pairs "" names one bad pair, not every pair
        pairs = []
        for item in args.pairs.split(","):
            a, sep, b = item.partition(":")
            if not sep:
                raise UsageError(f"bad pair {item!r}; expected a:b")
            pairs.append((a.strip(), b.strip()))

    def analysis(model, features, strategy):
        return interaction_matrix(model, features, pairs, strategy,
                                  include_h=args.h_stat, workers=args.workers)

    return _analyse(args, "interactions", analysis,
                    lambda report: report.to_text(top=args.top),
                    lambda features: check_pairs(features, pairs))


def _cmd_simulate(args) -> int:
    from .simulate import SimulationSpec, generate

    spec = SimulationSpec(args.kind, args.n, args.seed, args.sigma,
                          args.beta0, args.beta1, args.beta2)
    dataset = generate(spec)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    dataset.to_csv(out)
    _write_manifest(out.with_name(out.stem + ".manifest.json"), args)
    print(f"wrote {dataset.n_rows} rows x {len(dataset.feature_names)} columns to {out}")
    return 0


def _cmd_bridge_check(args) -> int:
    from .bridge import spawn_external

    model = spawn_external(args.external, timeout=args.timeout)
    try:
        print(f"handshake ok: protocol {model.protocol}, features {list(model.feature_names)}")
        if args.data:
            full = _load_rows(args.data)
            probe = full.select(model.feature_names).take(
                range(min(args.rows, full.n_rows))
            )
        else:
            probe = Dataset.from_dict(
                {name: [0.0] * args.rows for name in model.feature_names}
            )
        preds = model.predict(probe)
        bad = np.flatnonzero(~np.isfinite(preds))
        if bad.size:  # the analyses refuse such a prediction too
            raise NonFiniteError(f"model produced a non-finite prediction ({preds[bad[0]]:g}) "
                                 f"at probe row {bad[0] + 1} of {len(preds)}")
        print(f"probe ok: {len(preds)} predictions, first {preds[: min(3, len(preds))]}")
    finally:
        model.close()
    return 0


_DISPATCH = {
    "fit": _cmd_fit,
    "importance": _cmd_importance,
    "pdp": _cmd_pdp,
    "ice": _cmd_ice,
    "interact": _cmd_interact,
    "simulate": _cmd_simulate,
    "bridge-check": _cmd_bridge_check,
}


def run(argv=None) -> int:
    """Parse and execute; raises toolkit errors rather than exiting."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.subcommand is None:
        raise UsageError("a subcommand is required")
    for count in ("workers", "top", "rows"):
        if getattr(args, count, 1) < 1:
            raise UsageError(f"--{count} must be at least 1")
    if getattr(args, "rows", 1) > MAX_PROBE_ROWS:
        raise UsageError(f"--rows must be at most {MAX_PROBE_ROWS}")
    if not 0 < getattr(args, "timeout", 1.0) <= threading.TIMEOUT_MAX:
        raise UsageError(f"--timeout must be a positive number of seconds, "
                         f"at most {threading.TIMEOUT_MAX:g}")
    return _DISPATCH[args.subcommand](args)


def main(argv=None) -> int:
    try:
        return run(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except BridgeError as exc:
        print(f"bridge error: {exc}", file=sys.stderr)
        return 3
    except (PdimpError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:  # argparse --help/--version
        return int(exc.code or 0)


if __name__ == "__main__":
    sys.exit(main())
