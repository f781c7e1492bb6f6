"""End-to-end acceptance gates, one test per criterion.

Each test prints a ``[criterion N] PASS`` line with the measured numbers;
run with ``pytest tests/test_acceptance.py -v -s`` to watch them go by.
Seeds are fixed so every quantity here is reproducible bit for bit.
"""

import math
import time
from itertools import combinations

import numpy as np
import pytest

from pdimp import (
    Dataset,
    FeatureSchema,
    GridStrategy,
    LinearModel,
    SimulationSpec,
    build_grid,
    fit_bagged_trees,
    fit_knn,
    fit_linear,
    generate,
    importance_all,
    importance_from_pd,
    h_statistic,
    interaction_matrix,
    parse_expression,
    partial_dependence,
    pd_interaction,
    spawn_external,
    theoretical_uniform_sd,
    true_pd_friedman_pair,
)
from pdimp.engine import Grid, GridAxis
from pdimp.simulate import FRIEDMAN_EXPRESSION

FRIEDMAN_SEED = 7
TREE_PARAMS = dict(n_trees=100, max_depth=6, min_leaf=5, seed=1)


def _report(n, text):
    print(f"\n[criterion {n}] PASS: {text}")


@pytest.fixture(scope="module")
def friedman():
    ds = generate(SimulationSpec("friedman", 500, FRIEDMAN_SEED, 1.0))
    return ds, ds.drop("y")


@pytest.fixture(scope="module")
def bagged_model(friedman):
    ds, _ = friedman
    return fit_bagged_trees(ds, "y", **TREE_PARAMS)


@pytest.fixture(scope="module")
def trees_interactions(friedman, bagged_model):
    """45-pair matrix on the fitted forest, with H; shared by criteria 5 and 7."""
    _, features = friedman
    return interaction_matrix(bagged_model, features,
                              grid_strategy=GridStrategy.quantile(10), include_h=True)


def test_criterion_01_pd_matches_brute_force_oracle():
    """Estimator output is bit-identical to a nested-loop reimplementation."""
    start = time.monotonic()
    rng = np.random.default_rng(1234)
    checked = 0
    for case in range(50):
        n_rows = int(rng.integers(5, 21))
        n_cont = int(rng.integers(1, 6))
        columns = {f"f{j}": rng.uniform(-2, 2, size=n_rows) for j in range(n_cont)}
        model_kind = ["linear", "knn", "trees"][case % 3]
        if model_kind != "knn" and rng.random() < 0.3:
            columns["g"] = [("u", "v", "w")[i] for i in rng.integers(0, 3, size=n_rows)]
        columns["y"] = rng.uniform(-1, 1, size=n_rows)
        ds = Dataset.from_dict(columns)
        try:
            if model_kind == "linear":
                model = fit_linear(ds, "y")
            elif model_kind == "knn":
                model = fit_knn(ds, "y", k=int(rng.integers(1, n_rows + 1)))
            else:
                model = fit_bagged_trees(ds, "y", n_trees=3, max_depth=3, min_leaf=1,
                                         seed=int(rng.integers(0, 1000)))
        except Exception:
            continue  # rank-deficient random draw; the next case covers it
        features = ds.drop("y")
        name = f"f{int(rng.integers(0, n_cont))}"
        uniques = np.unique(features.column(name))
        strategy = (GridStrategy.unique() if len(uniques) <= 10
                    else GridStrategy.quantile(int(rng.integers(2, 10))))
        grid = build_grid(features, [name], strategy)
        assert grid.size <= 10

        got = partial_dependence(model, features, grid).values

        oracle = []
        for value in grid.axes[0].values:
            total = 0.0
            for i in range(features.n_rows):
                row = {}
                for feat in features.schema:
                    cell = value if feat.name == name else features.column(feat.name)[i]
                    row[feat.name] = np.array([cell])
                total += model.predict(Dataset(features.schema, row))[0]
            oracle.append(total / features.n_rows)
        assert np.array_equal(got, np.array(oracle)), f"case {case} diverged"
        checked += 1

    elapsed = time.monotonic() - start
    assert checked >= 45
    assert elapsed < 5.0
    _report(1, f"{checked} randomized cases bit-identical to the nested-loop oracle "
               f"in {elapsed:.2f}s (< 5s)")


def test_criterion_02_linear_model_importance_ratio():
    """Fitted-linear importance ratio over unique-value grids lands near 5/3."""
    start = time.monotonic()
    ds = generate(SimulationSpec("linear", 1000, seed=7, sigma=0.01))
    model = fit_linear(ds, "y")
    features = ds.drop("y")
    report = importance_all(model, features, GridStrategy.unique())
    ratio = report.score_of("x2") / report.score_of("x1")
    elapsed = time.monotonic() - start
    assert 1.60 <= ratio <= 1.74
    assert elapsed < 10.0
    _report(2, f"i(x2)/i(x1) = {ratio:.4f} in [1.60, 1.74] (target 5/3) "
               f"in {elapsed:.2f}s (< 10s)")


def test_criterion_03_exact_linear_oracle_scores():
    """Closed-form linear surface: exact 5/3 ratio and near-theoretical sds."""
    ds = generate(SimulationSpec("linear", 10_000, seed=11, sigma=0.0)).drop("y")
    model = parse_expression("1 + 3*x1 - 5*x2", ds.schema)
    points = np.linspace(0.0, 1.0, 101)
    scores = {}
    for name in ("x1", "x2"):
        grid = Grid((GridAxis(name, "continuous", points),), GridStrategy.equidistant(101))
        scores[name] = importance_from_pd(partial_dependence(model, ds, grid))
    ratio = scores["x2"] / scores["x1"]
    assert ratio == pytest.approx(5.0 / 3.0, abs=1e-6)
    for name, beta in (("x1", 3.0), ("x2", -5.0)):
        theory = theoretical_uniform_sd(beta)
        assert abs(scores[name] - theory) / theory < 0.02
    _report(3, f"ratio = {ratio:.8f} (5/3 within 1e-6); scores "
               f"({scores['x1']:.4f}, {scores['x2']:.4f}) within 2% of "
               f"({theoretical_uniform_sd(3):.4f}, {theoretical_uniform_sd(5):.4f})")


def test_criterion_04_friedman_top5_ranking(friedman, bagged_model):
    """Both fitted learners put exactly the five real features on top."""
    start = time.monotonic()
    ds, features = friedman
    want = {"x1", "x2", "x3", "x4", "x5"}

    tree_report = importance_all(bagged_model, features, GridStrategy.quantile(10))
    tree_top5 = set(tree_report.ranked_names()[:5])
    assert tree_top5 == want

    knn_report = importance_all(fit_knn(ds, "y", k=10), features, GridStrategy.quantile(10))
    knn_top5 = set(knn_report.ranked_names()[:5])
    assert knn_top5 == want

    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    _report(4, f"bagged trees top-5 {sorted(tree_top5)}, k-NN top-5 {sorted(knn_top5)} "
               f"in {elapsed:.1f}s (< 60s)")


def test_criterion_05_interaction_detection(friedman, trees_interactions):
    """(x1, x2) dominates the 45 pair statistics for oracle and fitted model."""
    start = time.monotonic()
    _, features = friedman

    oracle = parse_expression(FRIEDMAN_EXPRESSION, features.schema)
    oracle_report = interaction_matrix(oracle, features,
                                       grid_strategy=GridStrategy.quantile(10))
    assert len(oracle_report.pairs) == 45
    assert set(oracle_report.pairs[0].features) == {"x1", "x2"}
    assert oracle_report.pairs[0].stat_pd > oracle_report.pairs[1].stat_pd

    fitted_rank = [set(p) for p in trees_interactions.ranked_pairs()].index({"x1", "x2"})
    assert fitted_rank < 3

    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    _report(5, f"oracle: (x1,x2) strictly largest ({oracle_report.pairs[0].stat_pd:.3f} vs "
               f"{oracle_report.pairs[1].stat_pd:.2e}); fitted forest rank "
               f"{fitted_rank + 1} of 45 (top 3 allowed); {elapsed:.1f}s (< 120s)")


_ADDITIVE_TERMS = (
    "{c}*sin({a}*{x})",
    "{c}*cos({a}*{x})",
    "{c}*exp({x})",
    "{c}*{x}^2",
    "{c}*sqrt({x} + 1.5)",
    "{c}*log({x} + 1.5)",
    "{c}*{x}",
)


def _random_additive_expression(rng, names):
    terms = []
    for name in names:
        template = _ADDITIVE_TERMS[rng.integers(0, len(_ADDITIVE_TERMS))]
        terms.append(template.format(
            c=f"{rng.uniform(-4, 4):.3f}", a=f"{rng.uniform(0.5, 6):.3f}", x=name
        ))
    return " + ".join(terms)


def test_criterion_06_additive_models_score_zero():
    """No spurious interactions on purely additive surfaces."""
    rng = np.random.default_rng(606)
    names = ["a", "b", "c", "d"]
    worst_pd, worst_h = 0.0, 0.0
    for _ in range(20):
        ds = Dataset.from_dict({n: rng.uniform(size=25) for n in names})
        model = parse_expression(_random_additive_expression(rng, names), ds.schema)
        for pair in combinations(names, 2):
            stat = pd_interaction(model, ds, pair, GridStrategy.quantile(5))
            h = h_statistic(model, ds, pair)
            assert stat <= 1e-9
            assert math.isnan(h) or h <= 1e-6
            worst_pd = max(worst_pd, stat)
            if not math.isnan(h):
                worst_h = max(worst_h, h)
    _report(6, f"20 additive oracles x 6 pairs: max stat_pd = {worst_pd:.2e} (<= 1e-9), "
               f"max H = {worst_h:.2e} (<= 1e-6)")


def test_criterion_07_h_statistic_reported_alongside(trees_interactions):
    """H is reported for all 45 fitted-model pairs and stays in range.

    No rank assertion: H is a contrast measure here, not a detector.
    """
    hs = {p.features: p.stat_h for p in trees_interactions.pairs}
    assert len(hs) == 45
    assert all(h is not None and not math.isnan(h) for h in hs.values())
    assert all(0.0 <= h <= 1.05 for h in hs.values())
    h12 = next(h for pair, h in hs.items() if set(pair) == {"x1", "x2"})
    _report(7, f"H reported for 45 pairs, range [{min(hs.values()):.4f}, "
               f"{max(hs.values()):.4f}] within [0, 1.05]; H(x1,x2) = {h12:.4f}")


def test_criterion_08_joint_pd_converges_to_closed_form():
    """Estimated joint PD of the oracle surface tracks the closed form."""
    ds = generate(SimulationSpec("friedman", 10_000, seed=23, sigma=1.0)).drop("y")
    model = parse_expression(FRIEDMAN_EXPRESSION, ds.schema)
    points = np.linspace(0.0, 1.0, 11)
    grid = Grid(
        (GridAxis("x1", "continuous", points), GridAxis("x2", "continuous", points)),
        GridStrategy.equidistant(11),
    )
    estimated = __import__("pdimp").partial_dependence(model, ds, grid).value_matrix()
    truth = np.array([
        [true_pd_friedman_pair(("x1", "x2"), u, v) for v in points] for u in points
    ])
    max_err = float(np.max(np.abs(estimated - truth)))
    assert max_err <= 0.15
    _report(8, f"11x11 joint PD vs closed form at n = 10^4: max abs error "
               f"{max_err:.4f} (<= 0.15)")


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


def test_criterion_09_bridge_transparency(tmp_path):
    """An external child reimplementing the linear model matches the built-in."""
    import sys

    ds = generate(SimulationSpec("linear", 50, seed=3, sigma=0.0)).drop("y")
    schema = (FeatureSchema("x1", "continuous"), FeatureSchema("x2", "continuous"))
    builtin = LinearModel(1.0, {"x1": 3.0, "x2": -5.0}, schema)
    builtin_report = importance_all(builtin, ds, GridStrategy.unique())

    child = tmp_path / "linear_child.py"
    child.write_text(LINEAR_CHILD)
    external = spawn_external([sys.executable, str(child)])
    try:
        external_report = importance_all(external, ds, GridStrategy.unique())
    finally:
        external.close()

    worst = 0.0
    for name in ("x1", "x2"):
        diff = abs(builtin_report.score_of(name) - external_report.score_of(name))
        assert diff <= 1e-9
        worst = max(worst, diff)
    _report(9, f"external stub reproduces built-in importance scores, "
               f"max |diff| = {worst:.2e} (<= 1e-9)")


def test_criterion_10_artifacts_deterministic_across_runs_and_workers(tmp_path):
    """Criteria 2/4/5 pipelines emit byte-identical artifacts at 1/2/8 workers."""
    from pdimp.cli import main

    lin_csv = tmp_path / "linear.csv"
    assert main(["simulate", "--kind", "linear", "--n", "1000", "--sigma", "0.01",
                 "--seed", "7", "--out", str(lin_csv)]) == 0
    fr_csv = tmp_path / "friedman.csv"
    assert main(["simulate", "--kind", "friedman", "--n", "500", "--sigma", "1",
                 "--seed", str(FRIEDMAN_SEED), "--out", str(fr_csv)]) == 0

    configs = {
        "c2-linear": ["importance", "--data", str(lin_csv), "--target", "y",
                      "--model", "linear", "--grid", "unique"],
        "c4-trees": ["importance", "--data", str(fr_csv), "--target", "y",
                     "--model", "bagged:n_trees=100,max_depth=6,min_leaf=5,seed=1",
                     "--grid", "quantile:10"],
        "c4-knn": ["importance", "--data", str(fr_csv), "--target", "y",
                   "--model", "knn:k=10", "--grid", "quantile:10"],
        "c5-oracle": ["interact", "--data", str(fr_csv), "--target", "y",
                      "--expr", FRIEDMAN_EXPRESSION, "--grid", "quantile:10"],
        "c5-trees": ["interact", "--data", str(fr_csv), "--target", "y",
                     "--model", "bagged:n_trees=100,max_depth=6,min_leaf=5,seed=1",
                     "--grid", "quantile:10"],
    }

    def artifacts(out_dir, with_manifest):
        names = sorted(p.name for p in out_dir.iterdir())
        return {
            name: (out_dir / name).read_bytes()
            for name in names
            if with_manifest or name != "manifest.json"
        }

    for label, argv in configs.items():
        rerun_dir = tmp_path / label / "rerun"
        assert main(argv + ["--workers", "1", "--out-dir", str(rerun_dir)]) == 0
        first = artifacts(rerun_dir, with_manifest=True)
        assert main(argv + ["--workers", "1", "--out-dir", str(rerun_dir)]) == 0
        assert artifacts(rerun_dir, with_manifest=True) == first, f"{label}: rerun differs"

        # manifests legitimately record the worker count; results may not vary
        baseline = {k: v for k, v in first.items() if k != "manifest.json"}
        for workers in (2, 8):
            out = tmp_path / label / f"w{workers}"
            assert main(argv + ["--workers", str(workers), "--out-dir", str(out)]) == 0
            assert artifacts(out, with_manifest=False) == baseline, \
                f"{label}: workers={workers} differs"

    _report(10, f"{len(configs)} pipelines byte-identical across reruns and "
                f"worker counts 1/2/8")
