"""Model-agnostic variable importance from partial dependence flatness.

Workflow: load or simulate a dataset, point any prediction function at it
(built-in learner, closed-form expression, or external child process),
estimate partial dependence on a grid, and score each feature by how much
its PD function moves. Interaction strength falls out of the same
machinery by watching how one feature's importance shifts as another is
held fixed.

Every public name is imported from its module on first access (PEP 562),
so importing one module of the package loads only what that module needs.
"""

import importlib

__version__ = "0.1.0"

# each public name -> the module that defines it
_HOMES = {name: module for module, names in {
    "bridge": ("ExternalModel", "spawn_external"),
    "data": ("CATEGORICAL", "CONTINUOUS", "Dataset", "FeatureSchema", "infer_schema", "load_csv"),
    "engine": ("Grid", "GridAxis", "GridStrategy", "ICEResult", "PDResult", "build_grid",
               "ice_curves", "partial_dependence"),
    "errors": ("BridgeError", "BridgeTimeoutError", "ContractError", "CsvError",
               "DegenerateGridError", "ExpressionError", "GridStrategyError", "NonFiniteError",
               "ParameterError", "PdimpError", "ProtocolError", "SingularDesignError",
               "SpawnError", "UnknownFeatureError", "UsageError", "ValidationError"),
    "expressions": ("ExpressionModel", "parse_expression"),
    "importance": ("ImportanceEntry", "ImportanceReport", "importance_all", "importance_from_pd",
                   "theoretical_uniform_sd"),
    "interaction": ("InteractionReport", "PairStatistics", "h_statistic", "interaction_matrix",
                    "pd_interaction"),
    "models": ("KnnModel", "LinearModel", "PredictionModel", "fit_knn", "fit_linear"),
    "serialize": ("load_model", "model_from_json", "model_to_json", "save_model"),
    "simulate": ("FRIEDMAN_EXPRESSION", "SimulationSpec", "generate", "true_pd_friedman_pair",
                 "true_pd_linear"),
    "trees": ("BaggedTreesModel", "fit_bagged_trees"),
}.items() for name in names}

__all__ = [*sorted(_HOMES), "__version__"]


def __getattr__(name):
    module = _HOMES.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
