"""Command-line runs: artifacts, manifests, exit codes, reproducibility."""

import json
import os
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import pdimp
import pdimp.cli as cli_module
from pdimp.cli import main
from pdimp.simulate import MAX_SIMULATION_ROWS


def _run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def friedman_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "friedman.csv"
    code = _run("simulate", "--kind", "friedman", "--n", "120", "--sigma", "1",
                "--seed", "7", "--out", path)
    assert code == 0
    return path


ORACLE = "10*sin(pi*x1*x2)+20*(x3-0.5)^2+10*x4+5*x5"
_TARGET = ("--target", "y")

# an external model of 1 + 3*x1 - 5*x2, summed in the order the expression sums it
LINEAR_CHILD = """\
import json, sys
print(json.dumps({"protocol": 1, "features": ["x1", "x2"]}), flush=True)
for line in sys.stdin:
    n = json.loads(line)["n"]
    for _ in range(n):
        x1, x2 = map(float, sys.stdin.readline().strip().split(","))
        print("%.17g" % (1.0 + 3.0 * x1 - 5.0 * x2))
    sys.stdout.flush()
"""


def _linear_child(tmp_path):
    path = tmp_path / "linear_child.py"
    path.write_text(LINEAR_CHILD)
    return f"{shlex.quote(sys.executable)} {shlex.quote(str(path))}"


class TestSimulate:
    def test_shape_of_the_emitted_csv(self, tmp_path):
        out = tmp_path / "d.csv"
        assert _run("simulate", "--kind", "friedman", "--n", "500", "--sigma", "1",
                    "--seed", "7", "--out", out) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 501
        assert lines[0] == "x1,x2,x3,x4,x5,x6,x7,x8,x9,x10,y"
        assert all(len(line.split(",")) == 11 for line in lines[1:])
        manifest = json.loads((tmp_path / "d.manifest.json").read_text())
        assert manifest["config"]["seed"] == 7

    def test_linear_kind(self, tmp_path):
        out = tmp_path / "lin.csv"
        assert _run("simulate", "--kind", "linear", "--n", "10", "--sigma", "0",
                    "--seed", "1", "--out", out) == 0
        assert out.read_text().splitlines()[0] == "x1,x2,y"


class TestImportance:
    def test_expression_model_artifacts(self, friedman_csv, tmp_path):
        out = tmp_path / "imp"
        code = _run("importance", "--data", friedman_csv, "--target", "y",
                    "--expr", ORACLE, "--grid", "quantile:10", "--out-dir", out)
        assert code == 0
        rows = (out / "importance.csv").read_text().splitlines()
        assert rows[0] == "feature,score"
        assert len(rows) == 11
        scores = [float(r.split(",")[1]) for r in rows[1:]]
        assert scores == sorted(scores, reverse=True)
        doc = json.loads((out / "importance.json").read_text())
        assert len(doc["features"]) == 10
        schema = json.loads((out / "importance.schema.json").read_text())
        assert schema["columns"][0]["name"] == "feature"
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["subcommand"] == "importance"

    def test_builtin_model_fit_on_the_fly(self, friedman_csv, tmp_path):
        out = tmp_path / "imp"
        code = _run("importance", "--data", friedman_csv, "--target", "y",
                    "--model", "bagged:n_trees=10,max_depth=3,min_leaf=3,seed=1",
                    "--grid", "quantile:8", "--out-dir", out)
        assert code == 0
        assert (out / "importance.csv").exists()

    def test_reruns_are_byte_identical(self, friedman_csv, tmp_path):
        out = tmp_path / "a"

        def run_and_snapshot():
            _run("importance", "--data", friedman_csv, "--target", "y",
                 "--expr", ORACLE, "--grid", "quantile:6", "--out-dir", out)
            return {
                name: (out / name).read_bytes()
                for name in ("importance.csv", "importance.json", "manifest.json")
            }

        assert run_and_snapshot() == run_and_snapshot()

    def test_worker_count_does_not_change_artifacts(self, friedman_csv, tmp_path):
        outs = []
        for w in (1, 2, 8):
            out = tmp_path / f"w{w}"
            _run("importance", "--data", friedman_csv, "--target", "y",
                 "--expr", ORACLE, "--grid", "quantile:6", "--workers", w,
                 "--out-dir", out)
            outs.append(out)
        baseline = (outs[0] / "importance.csv").read_bytes()
        for out in outs[1:]:
            assert (out / "importance.csv").read_bytes() == baseline


class TestPdpAndIce:
    def test_joint_pd_grid_shape(self, friedman_csv, tmp_path):
        out = tmp_path / "pd"
        code = _run("pdp", "--data", friedman_csv, "--target", "y", "--expr", ORACLE,
                    "--features", "x1,x2", "--grid", "quantile:10", "--out-dir", out)
        assert code == 0
        lines = (out / "pd.csv").read_text().splitlines()
        assert lines[0] == "x1,x2,pd"
        assert len(lines) == 1 + 121
        sidecar = json.loads((out / "pd.schema.json").read_text())
        assert "baseline" in sidecar

    def test_single_feature_pd(self, friedman_csv, tmp_path):
        out = tmp_path / "pd1"
        code = _run("pdp", "--data", friedman_csv, "--target", "y", "--expr", ORACLE,
                    "--features", "x4", "--grid", "equidistant:21", "--out-dir", out)
        assert code == 0
        assert (out / "pd.csv").read_text().splitlines()[0] == "x4,pd"

    def test_ice_long_format_shape(self, friedman_csv, tmp_path):
        out = tmp_path / "ice"
        code = _run("ice", "--data", friedman_csv, "--target", "y", "--expr", ORACLE,
                    "--feature", "x1", "--grid", "quantile:5", "--out-dir", out)
        assert code == 0
        lines = (out / "ice.csv").read_text().splitlines()
        assert lines[0] == "row_id,grid_value,prediction"
        assert len(lines) == 1 + 120 * 6


class TestInteract:
    def test_pair_table(self, friedman_csv, tmp_path):
        out = tmp_path / "int"
        code = _run("interact", "--data", friedman_csv, "--target", "y", "--expr", ORACLE,
                    "--pairs", "x1:x2,x1:x4,x3:x4", "--grid", "quantile:6",
                    "--h-stat", "--out-dir", out)
        assert code == 0
        lines = (out / "interactions.csv").read_text().splitlines()
        assert lines[0] == "feature_i,feature_j,stat_pd,stat_h"
        assert len(lines) == 4
        top = lines[1].split(",")
        assert {top[0], top[1]} == {"x1", "x2"}


    def test_constant_column_marks_its_pairs_degenerate(self, tmp_path, capsys):
        data = tmp_path / "flat.csv"
        data.write_text("a,b,c,y\n1,5,2,1\n2,5,3,2\n3,5,1,3\n4,5,4,4\n")
        out = tmp_path / "int"
        assert _run("interact", "--data", data, "--target", "y", "--expr", "a*c",
                    "--h-stat", "--out-dir", out) == 0
        table = capsys.readouterr().out.splitlines()
        marked = {tuple(line.split()[:3:2]) for line in table if line.endswith("(degenerate)")}
        assert marked == {("a", "b"), ("b", "c")}
        doc = json.loads((out / "interactions.json").read_text())
        assert len(doc["pairs"]) == 3
        for pair in doc["pairs"]:
            if "b" in pair["features"]:
                assert pair["stat_pd"] == 0.0
                assert list(pair["components"].values()) == [0.0, 0.0]
                assert pair["stat_h"] is not None
            assert "degenerate" not in pair
        lines = (out / "interactions.csv").read_text().splitlines()
        assert lines[0] == "feature_i,feature_j,stat_pd,stat_h" and len(lines) == 4


def _grid(name, kind):
    return {"name": name, "role": "grid", "kind": kind}


_SIDECARS = [
    (["pdp", "--features", "a,g"], "pd", {
        "columns": [_grid("a", "continuous"), _grid("g", "categorical"),
                    {"name": "pd", "role": "value"}],
        "baseline": 3.0, "n_train": 4, "aggregator": "mean", "strategy": "unique"}),
    (["ice", "--feature", "g"], "ice", {
        "columns": [{"name": "row_id", "role": "series"},
                    {"name": "grid_value", "role": "grid", "kind": "categorical"},
                    {"name": "prediction", "role": "value"}],
        "baseline": 3.0, "feature": "g", "strategy": "unique"}),
    (["importance"], "importance", {
        "columns": [{"name": "feature", "role": "label"}, {"name": "score", "role": "value"}],
        "grid_strategy": "unique", "aggregator": "mean"}),
    (["interact", "--grid", "unique"], "interactions", {
        "columns": [{"name": "feature_i", "role": "label"},
                    {"name": "feature_j", "role": "label"},
                    {"name": "stat_pd", "role": "value"},
                    {"name": "stat_h", "role": "value", "optional": True}],
        "grid_strategy": "unique"}),
]


@pytest.mark.parametrize("argv,basename,sidecar", _SIDECARS, ids=[s[1] for s in _SIDECARS])
def test_sidecar_bytes_and_csv_header(tmp_path, capsys, argv, basename, sidecar):
    data = tmp_path / "mixed.csv"
    data.write_text("a,g,y\n0,p,1\n1,q,2\n2,p,3\n3,r,4\n")
    out = tmp_path / "out"
    assert _run(*argv, "--data", data, "--target", "y", "--expr", "2*a", "--out-dir", out) == 0
    capsys.readouterr()
    assert ((out / f"{basename}.schema.json").read_text()
            == json.dumps(sidecar, indent=2) + "\n")
    header = (out / f"{basename}.csv").read_text().splitlines()[0]
    assert header == ",".join(column["name"] for column in sidecar["columns"])


_ANALYSIS = {"data": "lin.csv", "target": "y", "grid": "unique", "workers": 1,
             "out_dir": "out", "formats": "csv,json", "timeout": 30.0}
_MANIFESTS = [
    (["fit", "--model", "linear"],
     {"subcommand": "fit", "data": "lin.csv", "target": "y", "model": "linear",
      "out_dir": "out"}),
    (["importance", "--expr", "1 + 3*x1"],
     {**_ANALYSIS, "subcommand": "importance", "expr": "1 + 3*x1", "measure": "sd",
      "aggregator": "mean"}),
    (["pdp", "--model", "linear", "--features", "x1, x2", "--aggregator", "median"],
     {**_ANALYSIS, "subcommand": "pdp", "model": "linear", "features": "x1, x2",
      "aggregator": "median"}),
    (["ice", "--expr", "x2", "--feature", "x1", "--formats", "csv", "--grid", "quantile:3"],
     {**_ANALYSIS, "subcommand": "ice", "expr": "x2", "feature": "x1", "formats": "csv",
      "grid": "quantile:3"}),
    (["interact", "--expr", "x1*x2", "--pairs", "x2:x1", "--workers", "2"],
     {**_ANALYSIS, "subcommand": "interact", "expr": "x1*x2", "pairs": "x2:x1",
      "workers": 2, "grid": "quantile:10", "h_stat": False, "top": 10}),
]


@pytest.mark.parametrize("argv,config", _MANIFESTS, ids=[m[0][0] for m in _MANIFESTS])
def test_manifest_holds_exactly_the_parsed_options(tmp_path, monkeypatch, capsys, argv, config):
    monkeypatch.chdir(tmp_path)
    assert _run("simulate", "--kind", "linear", "--n", "20", "--seed", "4",
                "--out", "lin.csv") == 0
    assert json.loads(Path("lin.manifest.json").read_text()) == {
        "tool": "pdimp", "version": pdimp.__version__,
        "config": {"subcommand": "simulate", "kind": "linear", "n": 20, "sigma": 1.0,
                   "seed": 4, "beta0": 1.0, "beta1": 3.0, "beta2": -5.0, "out": "lin.csv"}}
    assert _run(*argv, "--data", "lin.csv", "--target", "y", "--out-dir", "out") == 0
    capsys.readouterr()
    manifest = json.loads(Path("out/manifest.json").read_text())
    assert manifest == {"tool": "pdimp", "version": pdimp.__version__, "config": config}


class TestExternalAnalysis:
    def test_importance_through_a_child_equals_the_expression(self, tmp_path, monkeypatch,
                                                              capsys):
        data = tmp_path / "linear.csv"
        assert _run("simulate", "--kind", "linear", "--n", "60", "--seed", "3",
                    "--out", data) == 0
        spawned, spawn_external = [], cli_module.spawn_external

        def spawn(*args, **kwargs):
            spawned.append(spawn_external(*args, **kwargs))
            return spawned[-1]

        monkeypatch.setattr(cli_module, "spawn_external", spawn)
        outs = {}
        for source in (["--external", _linear_child(tmp_path)],
                       ["--expr", "1 + 3*x1 - 5*x2"]):
            outs[source[0]] = tmp_path / source[0].strip("-")
            assert _run("importance", "--data", data, "--target", "y", *source,
                        "--out-dir", outs[source[0]]) == 0
        for name in ("importance.csv", "importance.json", "importance.schema.json"):
            assert ((outs["--external"] / name).read_bytes()
                    == (outs["--expr"] / name).read_bytes()), name
        (model,) = spawned
        process = model._process
        assert process.returncode is not None  # closed and reaped
        assert process.stdin.closed and process.stdout.closed and process.stderr.closed
        capsys.readouterr()


class TestFitAndReuse:
    def test_fit_then_model_file(self, friedman_csv, tmp_path):
        fit_dir = tmp_path / "fitted"
        assert _run("fit", "--data", friedman_csv, "--target", "y",
                    "--model", "knn:k=5", "--out-dir", fit_dir) == 0
        out1 = tmp_path / "direct"
        out2 = tmp_path / "reloaded"
        _run("importance", "--data", friedman_csv, "--target", "y",
             "--model", "knn:k=5", "--grid", "quantile:5", "--out-dir", out1)
        _run("importance", "--data", friedman_csv, "--target", "y",
             "--model-file", fit_dir / "model.json", "--grid", "quantile:5",
             "--out-dir", out2)
        assert (out1 / "importance.csv").read_bytes() == (out2 / "importance.csv").read_bytes()


class TestBridgeCheck:
    def test_valid_child(self, tmp_path, capsys):
        stub = tmp_path / "c.py"
        stub.write_text(
            "import json, sys\n"
            'print(json.dumps({"protocol": 1, "features": ["x1"]}), flush=True)\n'
            "for line in sys.stdin:\n"
            "    n = json.loads(line)[\"n\"]\n"
            "    for _ in range(n):\n"
            "        sys.stdin.readline()\n"
            "        print(\"1.5\")\n"
            "    sys.stdout.flush()\n"
        )
        assert _run("bridge-check", "--external", f"{sys.executable} {stub}") == 0
        assert "handshake ok" in capsys.readouterr().out

    def test_probe_rows_come_from_the_data(self, tmp_path, capsys):
        data = tmp_path / "probe.csv"
        data.write_text("x2,y,x1\n1,9,2\n0,9,0\n3,9,1\n")  # columns picked by name
        assert _run("bridge-check", "--external", _linear_child(tmp_path),
                    "--data", data, "--rows", "2") == 0
        assert "probe ok: 2 predictions, first [2. 1.]" in capsys.readouterr().out

    @pytest.mark.parametrize("rows", ["0", "-5"])
    def test_probe_of_no_rows_is_a_usage_error(self, tmp_path, capsys, rows):
        assert _run("bridge-check", "--external", _linear_child(tmp_path), "--rows", rows) == 1
        captured = capsys.readouterr()
        assert "--rows must be at least 1" in captured.err and "probe ok" not in captured.out

    def test_probe_data_without_rows_exits_2_and_reaps_the_child(self, tmp_path, monkeypatch,
                                                                  capsys):
        data = tmp_path / "empty.csv"
        data.write_text("x1,x2\n")
        spawned, spawn_external = [], cli_module.spawn_external

        def spawn(*args, **kwargs):
            spawned.append(spawn_external(*args, **kwargs))
            return spawned[-1]

        monkeypatch.setattr(cli_module, "spawn_external", spawn)
        with pytest.warns(UserWarning, match="CSV body is empty"):
            assert _run("bridge-check", "--external", _linear_child(tmp_path),
                        "--data", data) == 2
        captured = capsys.readouterr()
        assert "holds no data rows" in captured.err and "probe ok" not in captured.out
        (model,) = spawned
        assert model._process.returncode is not None  # closed and reaped

    def test_broken_child_exits_3(self, tmp_path, capsys):
        stub = tmp_path / "c.py"
        stub.write_text("print('garbage')\nimport time\ntime.sleep(3)\n")
        assert _run("bridge-check", "--external", f"{sys.executable} {stub}") == 3

    def test_deeply_nested_handshake_exits_3_without_a_traceback(self, tmp_path, capsys):
        stub = tmp_path / "c.py"
        stub.write_text("print('[' * 100000 + ']' * 100000, flush=True)\n"
                        "import time\ntime.sleep(3)\n")
        assert _run("bridge-check", "--external", f"{sys.executable} {stub}") == 3
        err = capsys.readouterr().err
        assert err.startswith("bridge error: ") and "Traceback" not in err
        assert len(err) < 1000


class TestExitCodes:
    def test_usage_errors_exit_1(self, friedman_csv, tmp_path, capsys):
        assert _run() == 1
        assert _run("importance", "--data", friedman_csv) == 1  # no model source
        assert _run("importance", "--data", friedman_csv, "--target", "y",
                    "--expr", "x1", "--model", "linear") == 1  # two sources
        assert _run("importance", "--data", friedman_csv, "--target", "y",
                    "--model", "teapot") == 1
        assert _run("frobnicate") == 1
        capsys.readouterr()

    @pytest.mark.parametrize("argv,message", [
        (["interact", *_TARGET, "--expr", ORACLE, "--pairs", "x1:x2", "--aggregator", "median"],
         "unrecognized arguments: --aggregator"),
        (["ice", *_TARGET, "--expr", ORACLE, "--feature", "x1", "--aggregator", "median"],
         "unrecognized arguments: --aggregator"),
        (["interact", *_TARGET, "--expr", ORACLE, "--pairs", "x1:x2,x1:x4,x3:x4", "--top", "0"],
         "--top must be at least 1"),
        (["interact", *_TARGET, "--expr", ORACLE, "--pairs", "x1:x2,x1:x4,x3:x4", "--top", "-1"],
         "--top must be at least 1"),
        (["importance", *_TARGET, "--expr", ORACLE, "--workers", "0"],
         "--workers must be at least 1"),
        (["importance", *_TARGET, "--model", "knn:k"], "bad model parameter 'k'"),
        (["importance", *_TARGET, "--model", "knn:k=five"], "must be an integer"),
        (["importance", *_TARGET, "--model", "knn:k=5,depth=2"], "unknown model parameters"),
        (["importance", "--model", "linear"], "--target is required"),
        (["pdp", *_TARGET, "--expr", ORACLE, "--features", "x1,x2,x3"], "one name or two"),
        (["interact", *_TARGET, "--expr", ORACLE, "--pairs", "x1-x2"], "bad pair 'x1-x2'"),
        (["importance", *_TARGET, "--expr", ORACLE, "--formats", ","], "names no format"),
        (["importance", *_TARGET, "--expr", ORACLE, "--formats", ""], "names no format"),
        (["pdp", *_TARGET, "--expr", ORACLE, "--features", "x1", "--formats", "csv,csv"],
         "names a format twice"),
        (["interact", *_TARGET, "--expr", ORACLE, "--formats", "json, csv,json"],
         "names a format twice"),
    ], ids=["interact-aggregator", "ice-aggregator", "top-0", "top-negative", "workers-0",
            "param-without-equals", "param-not-integer", "unknown-param", "no-target",
            "three-features", "pair-without-colon", "formats-comma", "formats-empty",
            "formats-csv-twice", "formats-json-twice"])
    def test_bad_arguments_exit_1_and_write_nothing(self, friedman_csv, tmp_path, capsys,
                                                    argv, message):
        out = tmp_path / "out"
        assert _run(*argv, "--data", friedman_csv, "--out-dir", out) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and message in err
        assert not out.exists()

    def test_non_finite_baseline_prediction_exits_2_and_writes_nothing(self, tmp_path, capsys):
        # the grid 0, 5, 10 misses the pole at 3.3, so every PD value is
        # finite, but the training row at 3.3 predicts inf
        data = tmp_path / "pole.csv"
        data.write_text("x1\n0\n1\n2\n3.3\n10\n")
        out = tmp_path / "out"
        assert _run("pdp", "--data", data, "--expr", "1/(x1 - 3.3)", "--features", "x1",
                    "--grid", "equidistant:3", "--out-dir", out) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: model produced a non-finite prediction at grid point "
                              "(the baseline ")
        assert not out.exists()

    def test_absurd_simulation_size_exits_2_before_drawing(self, tmp_path, capsys):
        out = tmp_path / "sim.csv"
        assert _run("simulate", "--kind", "linear", "--n", "1000000000000000",
                    "--out", out) == 2
        assert f"n must be in [1, {MAX_SIMULATION_ROWS}]" in capsys.readouterr().err
        assert not out.exists()

    def test_data_errors_exit_2(self, tmp_path, capsys):
        missing = tmp_path / "nope.csv"
        assert _run("importance", "--data", missing, "--expr", "x1") == 2

        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,2,3\n")
        assert _run("importance", "--data", bad, "--expr", "a") == 2

        ok = tmp_path / "ok.csv"
        ok.write_text("a,b\n1,2\n3,4\n")
        assert _run("importance", "--data", ok, "--target", "zzz",
                    "--expr", "a", "--out-dir", tmp_path) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("edit", [
        lambda d: d.pop("max_depth"),
        lambda d: d["trees"][0].update(feature=42, left={"value": 0.0},
                                       right={"value": 1.0}, threshold=0.5),
        lambda d: d["trees"][0].update(feature=0, left={"value": 0.0},
                                       right={"value": 1.0}, left_levels=[0], n_levels=2),
        lambda d: d.update(trees="none"),
    ])
    def test_malformed_model_file_exits_2_without_a_traceback(self, friedman_csv, tmp_path,
                                                              capsys, edit):
        assert _run("fit", "--data", friedman_csv, "--target", "y",
                    "--model", "bagged:n_trees=2,max_depth=2,min_leaf=5,seed=1",
                    "--out-dir", tmp_path) == 0
        path = tmp_path / "model.json"
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert _run("importance", "--data", friedman_csv, "--target", "y",
                    "--model-file", path, "--out-dir", tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    @staticmethod
    def _chain_model(depth):
        """A one-tree model file whose tree is a chain of ``depth`` splits."""
        split = '{"feature": 0, "threshold": 0.5, "value": 0.0, "right": {"value": 1.0}, "left": '
        schema = [{"name": f"x{j}", "kind": "continuous"} for j in range(1, 11)]
        return ('{"format": 1, "kind": "bagged_trees", "schema": ' + json.dumps(schema)
                + ', "n_trees": 1, "max_depth": 6, "min_leaf": 5, "seed": 1, "trees": ['
                + split * depth + '{"value": 2.0}' + "}" * depth + "]}")

    @pytest.mark.parametrize("depth,code", [(900, 0), (3000, 2)])
    def test_deeply_nested_model_file(self, friedman_csv, tmp_path, capsys, depth, code):
        path = tmp_path / "model.json"
        path.write_text(self._chain_model(depth))
        assert _run("pdp", "--data", friedman_csv, "--target", "y", "--features", "x1",
                    "--grid", "quantile:4", "--model-file", path,
                    "--out-dir", tmp_path / "out") == code
        err = capsys.readouterr().err
        assert "Traceback" not in err and (code == 0 or err.startswith("error: "))

    @staticmethod
    def _first_leaf(doc):
        node = doc["trees"][0]
        while "feature" in node:
            node = node["left"]
        return node

    @pytest.mark.parametrize("model,edit", [
        ("linear", lambda d: d.update(intercept=10**400)),
        ("linear", lambda d: d["coefficients"].update(x3=-(10**400))),
        ("knn:k=3", lambda d: d["train"][0].__setitem__(0, 10**400)),
        ("bagged:n_trees=2,max_depth=2,min_leaf=5,seed=1",
         lambda d: TestExitCodes._first_leaf(d).update(value=10**400)),
        ("bagged:n_trees=2,max_depth=2,min_leaf=5,seed=1",
         lambda d: d["trees"][0].update(threshold=10**400)),
    ])
    def test_integer_beyond_float64_in_a_model_file_exits_2(self, friedman_csv, tmp_path,
                                                             capsys, model, edit):
        assert _run("fit", "--data", friedman_csv, "--target", "y", "--model", model,
                    "--out-dir", tmp_path) == 0
        path = tmp_path / "model.json"
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert _run("importance", "--data", friedman_csv, "--target", "y",
                    "--model-file", path, "--out-dir", tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "float64" in err and "Traceback" not in err

    @pytest.mark.parametrize("model,edit", [
        ("linear", lambda d: d["coefficients"].update(x3=float("inf"))),
        ("knn:k=3", lambda d: d["train"][1].__setitem__(2, float("inf"))),
        ("knn:k=3", lambda d: d["targets"].__setitem__(0, float("nan"))),
        ("bagged:n_trees=2,max_depth=2,min_leaf=5,seed=1",
         lambda d: TestExitCodes._first_leaf(d).update(value=float("-inf"))),
        ("bagged:n_trees=2,max_depth=2,min_leaf=5,seed=1",
         lambda d: d["trees"][0].update(threshold=float("nan"))),
    ], ids=["linear coefficient", "knn train", "knn target", "tree leaf value",
            "tree threshold"])
    def test_non_finite_number_in_a_model_file_exits_2(self, friedman_csv, tmp_path,
                                                       capsys, model, edit):
        assert _run("fit", "--data", friedman_csv, "--target", "y", "--model", model,
                    "--out-dir", tmp_path) == 0
        path = tmp_path / "model.json"
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))  # writes NaN, Infinity or -Infinity
        capsys.readouterr()
        assert _run("importance", "--data", friedman_csv, "--target", "y",
                    "--model-file", path, "--out-dir", tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "non-finite number" in err
        assert "grid point" not in err and "Traceback" not in err
        assert not (tmp_path / "out" / "importance.csv").exists()

    @staticmethod
    def _expression_file(path, source):
        schema = [{"name": f"x{i}", "kind": "continuous"} for i in range(1, 11)]
        path.write_text(json.dumps({"format": 1, "kind": "expression", "schema": schema,
                                    "source": source}))
        return path

    def test_expression_of_any_length_scores(self, friedman_csv, tmp_path, capsys):
        source = "+".join(f"0.5*x{i % 5 + 1}" for i in range(2000))
        path = self._expression_file(tmp_path / "long.json", source)
        for argv in (["--model-file", path], ["--expr", source]):
            out = tmp_path / argv[0].strip("-")
            assert _run("importance", "--data", friedman_csv, "--target", "y", *argv,
                        "--grid", "quantile:4", "--out-dir", out) == 0
            rows = (out / "importance.csv").read_text().splitlines()
            assert len(rows) == 11
        assert (tmp_path / "model-file" / "importance.csv").read_bytes() == \
            (tmp_path / "expr" / "importance.csv").read_bytes()
        capsys.readouterr()

    @pytest.mark.parametrize("expr", ["x1+1/0", "x1+0/0"])
    def test_constant_divided_by_zero_exits_2(self, friedman_csv, tmp_path, capsys, expr):
        assert _run("importance", "--data", friedman_csv, "--target", "y", "--expr", expr,
                    "--out-dir", tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: model produced a non-finite prediction at grid point")
        assert not (tmp_path / "out" / "importance.csv").exists()

    @pytest.mark.parametrize("deep", ["(" * 300 + "x1" + ")" * 300, "-" * 3000 + "x1"],
                             ids=["parentheses", "unary minuses"])
    def test_expression_nested_too_deeply_exits_2(self, friedman_csv, tmp_path, capsys, deep):
        path = self._expression_file(tmp_path / "deep.json", deep)
        for argv in (["--expr=" + deep], ["--model-file", path]):
            assert _run("importance", "--data", friedman_csv, "--target", "y", *argv,
                        "--out-dir", tmp_path / "out") == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and "nests too deeply" in err
            assert "Traceback" not in err
        assert not (tmp_path / "out" / "importance.csv").exists()

    def test_target_whose_squared_sums_overflow_is_refused(self, tmp_path, capsys):
        data = tmp_path / "big.csv"
        data.write_text("a,y\n" + "".join(f"{i / 40},{(-1) ** i * 1e160!r}\n"
                                            for i in range(40)))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert _run("fit", "--data", data, "--target", "y",
                        "--model", "bagged:n_trees=3,max_depth=3,min_leaf=2,seed=1",
                        "--out-dir", tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: target 'y' ")
        assert not (tmp_path / "out" / "model.json").exists()

    @pytest.mark.parametrize("argv,artifact", [
        (["importance", "--expr", "1e200*x1"], "importance"),
        (["importance", "--expr", "1e307*x1+1e307"], "importance"),  # the PD mean is inf
        (["interact", "--expr", "1e200*x1*x2", "--pairs", "x1:x2"], "interactions"),
        (["interact", "--expr", "1e154*x1*x2", "--pairs", "x1:x2", "--h-stat"], "interactions"),
        (["pdp", "--expr", "1e307*x1+1e307", "--features", "x2"], "pd"),
        (["ice", "--expr", "1e307*x1+1e307", "--feature", "x1"], "ice"),
    ])
    def test_scores_that_overflow_exit_2_and_write_nothing(self, friedman_csv, tmp_path,
                                                           capsys, argv, artifact):
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert _run(*argv, "--data", friedman_csv, "--target", "y", "--out-dir", out) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "overflows float64" in err
        assert not (out / f"{artifact}.csv").exists() and not (out / f"{artifact}.json").exists()

    def test_model_file_that_is_not_json_exits_2(self, friedman_csv, tmp_path, capsys):
        path = tmp_path / "model.json"
        path.write_bytes(b"\xff\xfe not json")
        assert _run("importance", "--data", friedman_csv, "--target", "y",
                    "--model-file", path, "--out-dir", tmp_path) == 2
        assert "Traceback" not in capsys.readouterr().err

    def test_bridge_errors_exit_3(self, friedman_csv, tmp_path, capsys):
        assert _run("importance", "--data", friedman_csv, "--target", "y",
                    "--external", "/no/such/child-zzz", "--out-dir", tmp_path) == 3
        capsys.readouterr()

    @pytest.mark.parametrize("command", ["", "'unterminated", "child \\"])
    def test_unparsable_external_command_exits_3(self, friedman_csv, tmp_path, capsys, command):
        out = tmp_path / "out"
        assert _run("bridge-check", "--external", command) == 3
        assert "bridge error:" in capsys.readouterr().err
        if command:  # an empty --external names no model source: a usage error
            assert _run("importance", "--data", friedman_csv, "--target", "y",
                        "--external", command, "--out-dir", out) == 3
            assert "cannot parse the command" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("grid", ["quantile:99999999999999999999", "quantile:3000000000",
                                      "equidistant:99999999999999999999"])
    def test_huge_grid_count_exits_2(self, friedman_csv, tmp_path, capsys, grid):
        out = tmp_path / "out"
        assert _run("importance", "--data", friedman_csv, "--target", "y", "--expr", "x1",
                    "--grid", grid, "--out-dir", out) == 2
        assert "count <= 1000000" in capsys.readouterr().err
        assert not out.exists()

    def test_help_exits_zero(self, capsys):
        assert _run("--help") == 0
        capsys.readouterr()

    def test_formats_are_checked_before_any_work(self, friedman_csv, tmp_path, capsys):
        # a bad --formats is a usage error even where the data could not be read
        assert _run("importance", "--data", tmp_path / "nope.csv", "--expr", "x1",
                    "--formats", "xml", "--out-dir", tmp_path / "out") == 1
        # and no external child is started for it
        marker = tmp_path / "spawned"
        child = shlex.join([sys.executable, "-c", f"open({str(marker)!r}, 'w')"])
        assert _run("importance", "--data", friedman_csv, "--target", "y",
                    "--external", child, "--formats", "csv,xml",
                    "--out-dir", tmp_path / "out") == 1
        assert "unsupported output format 'xml'" in capsys.readouterr().err
        assert not marker.exists()
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv,message", [
        (["importance", "--grid", "quantile:x"], "bad grid strategy count 'x'"),
        (["importance", "--grid", "hexagonal"], "bad grid strategy 'hexagonal'"),
        (["importance", "--aggregator", "trimmed:0.7"], "trim fraction must be in [0, 0.5)"),
        (["importance", "--aggregator", "mode"], "unknown aggregator 'mode'"),
        (["pdp", "--features", "x1", "--aggregator", "trimmed:x"], "bad trim fraction 'x'"),
        (["ice", "--feature", "x1", "--grid", "equidistant:1"], "equidistant grid needs 2"),
        (["interact", "--grid", "quantile:0"], "quantile grid needs 1"),
    ], ids=["grid-count", "grid-kind", "trim-too-large", "unknown-aggregator", "trim-not-number",
            "equidistant-1", "quantile-0"])
    def test_bad_grid_or_aggregator_exits_2_before_any_work(self, friedman_csv, tmp_path,
                                                             monkeypatch, capsys, argv, message):
        def never(*args, **kwargs):
            raise AssertionError("the model was fitted")

        monkeypatch.setattr(cli_module, "fit_bagged_trees", never)
        marker = tmp_path / "spawned"
        child = shlex.join([sys.executable, "-c", f"open({str(marker)!r}, 'w')"])
        out = tmp_path / "out"
        for source in (["--model", "bagged:n_trees=200"], ["--external", child]):
            # the data path does not exist: the check comes before the CSV is read
            for data in (friedman_csv, tmp_path / "nope.csv"):
                assert _run(*argv, "--data", data, *_TARGET, *source, "--out-dir", out) == 2
                err = capsys.readouterr().err
                assert err.startswith("error: ") and message in err
        assert not marker.exists() and not out.exists()

    def test_repeated_pair_exits_2_and_writes_nothing(self, friedman_csv, tmp_path, capsys):
        out = tmp_path / "out"
        for pairs in ("x1:x2,x2:x1", "x1:x2,x3:x4,x1:x2"):
            assert _run("interact", "--data", friedman_csv, *_TARGET, "--expr", ORACLE,
                        "--pairs", pairs, "--out-dir", out) == 2
            assert "is requested twice" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv,message", [
        (["interact", "--pairs", "x1:x2,x2:x1"], "the pair x2:x1 is requested twice"),
        (["interact", "--pairs", "x1:x1"], "two distinct features"),
        (["interact", "--pairs", "x1:x2,x3:zz"], "no feature named 'zz'"),
        (["pdp", "--features", "x1,zz"], "no feature named 'zz'"),
        (["ice", "--feature", "zz"], "no feature named 'zz'"),
        (["ice", "--feature", "y"], "no feature named 'y'"),  # the target is no feature
    ], ids=["repeated-pair", "identical-pair", "unknown-in-pair", "unknown-pdp",
            "unknown-ice", "target-ice"])
    def test_bad_feature_names_exit_2_before_the_model(self, friedman_csv, tmp_path,
                                                        monkeypatch, capsys, argv, message):
        def never(*args, **kwargs):
            raise AssertionError("the model was fitted")

        monkeypatch.setattr(cli_module, "fit_bagged_trees", never)
        marker = tmp_path / "spawned"
        child = shlex.join([sys.executable, "-c", f"open({str(marker)!r}, 'w')"])
        out = tmp_path / "out"
        for source in (["--model", "bagged:n_trees=200"], ["--external", child]):
            assert _run(*argv, "--data", friedman_csv, *_TARGET, *source, "--out-dir", out) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and message in err
        assert not marker.exists() and not out.exists()

    def test_workers_do_not_read_the_environment(self, friedman_csv, tmp_path, monkeypatch,
                                                 capsys):
        monkeypatch.setenv("PDIMP_WORKERS", "abc")
        assert _run("--version") == 0
        monkeypatch.setenv("PDIMP_WORKERS", "0")
        out = tmp_path / "imp"
        assert _run("importance", "--data", friedman_csv, "--target", "y", "--expr", ORACLE,
                    "--grid", "quantile:4", "--out-dir", out) == 0
        assert json.loads((out / "manifest.json").read_text())["config"]["workers"] == 1
        capsys.readouterr()

    def test_knn_scale_overflow_exits_2_without_a_warning(self, tmp_path, capsys):
        data = tmp_path / "huge.csv"
        data.write_text("a,b,y\n1e200,1,1\n-1e200,2,2\n3e200,3,3\n5,4,4\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _run("importance", "--data", data, "--target", "y",
                        "--model", "knn:k=2", "--out-dir", tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: feature 'a'") and "Traceback" not in err


    @pytest.mark.parametrize("source,timeout", [
        ("external", "inf"), ("external", "1e300"),  # past what a thread can wait for
        ("model", "nan"), ("model", "inf"), ("model", "-1"), ("model", "0"),
    ])
    def test_timeout_must_be_positive_and_finite(self, friedman_csv, tmp_path, capsys,
                                                 source, timeout):
        marker = tmp_path / "spawned"
        child = shlex.join([sys.executable, "-c", f"open({str(marker)!r}, 'w')"])
        model = ["--external", child] if source == "external" else ["--model", "linear"]
        out = tmp_path / "out"
        assert _run("importance", "--data", friedman_csv, "--target", "y", *model,
                    "--timeout", timeout, "--out-dir", out) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: --timeout must be a positive number")
        assert not marker.exists() and not (out / "manifest.json").exists()

    def test_manifest_records_the_given_timeout(self, friedman_csv, tmp_path, capsys):
        out = tmp_path / "imp"
        assert _run("importance", "--data", friedman_csv, "--target", "y", "--expr", ORACLE,
                    "--grid", "quantile:3", "--timeout", "5", "--out-dir", out) == 0
        assert json.loads((out / "manifest.json").read_text())["config"]["timeout"] == 5.0
        capsys.readouterr()


@pytest.mark.parametrize("body, code", [
    (b"", 2),                                      # empty file
    (b"a,a,y\n1,2,3\n4,5,6\n", 2),                # duplicate header name
    (b"a,,y\n1,2,3\n4,5,6\n", 2),                 # empty header name
    (b"a,b,y\n1,2,3\n4,5\n", 2),                  # ragged row
    (b"a,b,y\n1,,3\n4,5,6\n", 2),                 # empty cell
    (b"a,b,y\n1,2,inf\n4,5,6\n", 2),              # non-finite cell: y is not numeric
    (b"a,b,y\n1,2,3\n\xff\xfe,5,6\n", 2),          # not UTF-8
    (b"a,b,y\n" + b"x" * 200_000 + b",2,3\n", 2),  # field past the csv module's limit
    (b"\xef\xbb\xbfa,b,y\n1,2,3\n4,5,6\n", 0),     # byte-order mark before column a
], ids=["empty", "duplicate-name", "empty-name", "ragged", "empty-cell", "non-finite",
        "not-utf8", "oversized-field", "bom"])
def test_malformed_csv_exits_with_its_code_and_no_traceback(tmp_path, capsys, body, code):
    data = tmp_path / "in.csv"
    data.write_bytes(body)
    assert _run("pdp", "--data", data, "--target", "y", "--expr", "a + b",
                "--features", "a", "--out-dir", tmp_path / "out") == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("error: ") if code else err == ""


def test_importing_the_cli_leaves_scipy_unloaded():
    # scipy's start-up cost belongs to the commands that simulate, not to every command
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(pdimp.__file__).resolve().parents[1]), env.get("PYTHONPATH", "")])
    subprocess.run(
        [sys.executable, "-c", "import pdimp.cli, sys; assert 'scipy' not in sys.modules"],
        env=env, check=True, timeout=60,
    )
