"""Import sets: each command loads only the modules it runs, no function
reads a global that nothing binds, and the package's public names resolve
lazily to their defining modules."""

import builtins
import importlib
import json
import os
import subprocess
import symtable
import sys
from pathlib import Path

import pytest

import pdimp

SRC = Path(pdimp.__file__).resolve().parent
# stdlib modules only the external bridge (subprocess) or a thread pool needs
WATCHED = ("subprocess", "select", "shlex", "concurrent.futures")
BRIDGE = {"subprocess", "select", "shlex"}

ALWAYS = {"cli", "data", "errors", "limits"}
ANALYSIS = ALWAYS | {"engine", "models"}
SCORE = "--data {data} --target y --grid quantile:3"
# command line -> (pdimp modules it loads, watched modules it loads)
COMMANDS = {
    "simulate --kind linear --n 20 --out sim.csv": (ALWAYS | {"simulate"}, set()),
    "fit --data {data} --target y --model linear": (ALWAYS | {"models", "serialize"}, set()),
    "fit --data {data} --target y --model knn:k=10": (ALWAYS | {"models", "serialize"}, set()),
    "fit --data {data} --target y --model bagged:n_trees=2,max_depth=2":
        (ALWAYS | {"models", "serialize", "trees"}, set()),
    f"importance {SCORE} --model-file {{model_file}}":
        (ANALYSIS | {"importance", "serialize"}, set()),
    f"importance {SCORE} --model bagged:n_trees=2": (ANALYSIS | {"importance", "trees"}, set()),
    # two workers, but every table fits one slab, so no pool starts
    f"interact {SCORE} --expr 1+3*x1-5*x2 --h-stat --pairs x1:x2 --workers 2":
        (ANALYSIS | {"expressions", "importance", "interaction"}, set()),
    f"pdp {SCORE} --expr 1+3*x1-5*x2 --features x1,x2": (ANALYSIS | {"expressions"}, set()),
    f"ice {SCORE} --expr 1+3*x1-5*x2 --feature x1": (ANALYSIS | {"expressions"}, set()),
    f"importance {SCORE} --external {{child}}": (ANALYSIS | {"bridge", "importance"}, BRIDGE),
    "bridge-check --external {child}": (ALWAYS | {"bridge", "models"}, BRIDGE),
}

RUNNER = (
    "import json, sys\n"
    "from pdimp.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "print(json.dumps([code, sorted(m for m in sys.modules if m.startswith('pdimp.')),\n"
    f"                  sorted(m for m in {WATCHED!r} if m in sys.modules)]))\n"
)


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    """A linear CSV, a saved k-NN model and a child of the linear surface."""
    from pdimp.cli import main

    where = tmp_path_factory.mktemp("imports")
    data = where / "data.csv"
    assert main(["simulate", "--kind", "linear", "--n", "40", "--seed", "3",
                 "--out", str(data)]) == 0
    assert main(["fit", "--data", str(data), "--target", "y", "--model", "knn:k=3",
                 "--out-dir", str(where / "knn")]) == 0
    child = where / "child.py"
    child.write_text(
        "import json, sys\n"
        'print(json.dumps({"protocol": 1, "features": ["x1", "x2"]}), flush=True)\n'
        "for line in sys.stdin:\n"
        '    for _ in range(json.loads(line)["n"]):\n'
        "        x1, x2 = map(float, sys.stdin.readline().split(','))\n"
        "        print(1.0 + 3.0 * x1 - 5.0 * x2)\n"
        "    sys.stdout.flush()\n"
    )
    return {"data": data, "model_file": where / "knn" / "model.json",
            "child": f"{sys.executable} {child}"}


@pytest.mark.parametrize("command", COMMANDS)
def test_each_command_loads_only_the_modules_it_runs(paths, tmp_path, command):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC.parent), env.get("PYTHONPATH", "")])
    argv = [arg.format(**paths) for arg in command.split()]
    done = subprocess.run([sys.executable, "-c", RUNNER, *argv], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=60, check=True)
    code, modules, watched = json.loads(done.stdout.splitlines()[-1])
    assert code == 0
    assert ({m.removeprefix("pdimp.") for m in modules}, set(watched)) == COMMANDS[command]


MODULE_GLOBALS = {"__name__", "__doc__", "__file__", "__package__", "__spec__", "__loader__"}


def _unbound_global_reads(path: Path) -> list[str]:
    """``function: name`` for each global a nested scope of ``path`` reads
    that is neither bound at module level nor a builtin."""
    top = symtable.symtable(path.read_text(encoding="utf-8"), str(path), "exec")
    bound = {s.get_name() for s in top.get_symbols() if s.is_assigned() or s.is_imported()}
    bound |= set(dir(builtins)) | MODULE_GLOBALS
    found, tables = [], list(top.get_children())
    while tables:
        table = tables.pop()
        tables.extend(table.get_children())
        found += [f"{table.get_name()}: {s.get_name()}" for s in table.get_symbols()
                  if s.is_global() and s.is_referenced() and s.get_name() not in bound]
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_global_a_function_reads_is_bound(path):
    # a dropped local import would fail only on the path that reads the name
    assert _unbound_global_reads(path) == []


def test_the_global_check_flags_a_dropped_local_import(tmp_path):
    source = (SRC / "cli.py").read_text(encoding="utf-8")
    dropped = tmp_path / "cli.py"
    dropped.write_text(source.replace("    from .serialize import save_model\n", ""))
    assert _unbound_global_reads(dropped) == ["_cmd_fit: save_model"]


def test_every_export_is_the_defining_modules_object():
    for name in set(pdimp.__all__) - {"__version__"}:
        value = getattr(pdimp, name)
        # a constant has no __module__; the table names its module
        home = getattr(value, "__module__", None) or f"pdimp.{pdimp._HOMES[name]}"
        assert getattr(importlib.import_module(home), name) is value, name


def test_dir_lists_every_export_and_star_binds_them():
    assert set(pdimp.__all__) <= set(dir(pdimp))
    namespace = {}
    exec("from pdimp import *", namespace)
    assert set(pdimp.__all__) <= set(namespace)


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        pdimp.no_such_name
    assert not hasattr(pdimp, "_no_such_private")
