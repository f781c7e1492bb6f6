"""Model-agnostic variable importance from partial dependence flatness.

Workflow: load or simulate a dataset, point any prediction function at it
(built-in learner, closed-form expression, or external child process),
estimate partial dependence on a grid, and score each feature by how much
its PD function moves. Interaction strength falls out of the same
machinery by watching how one feature's importance shifts as another is
held fixed.
"""

from .data import (
    CATEGORICAL,
    CONTINUOUS,
    Dataset,
    FeatureSchema,
    infer_schema,
    load_csv,
)
from .engine import (
    Grid,
    GridAxis,
    GridStrategy,
    ICEResult,
    PDResult,
    build_grid,
    ice_curves,
    partial_dependence,
)
from .errors import (
    BridgeError,
    BridgeTimeoutError,
    ContractError,
    CsvError,
    DegenerateGridError,
    ExpressionError,
    GridStrategyError,
    NonFiniteError,
    ParameterError,
    PdimpError,
    ProtocolError,
    SingularDesignError,
    SpawnError,
    UnknownFeatureError,
    UsageError,
    ValidationError,
)
from .expressions import ExpressionModel, parse_expression
from .bridge import ExternalModel, spawn_external
from .importance import (
    ImportanceEntry,
    ImportanceReport,
    importance_all,
    importance_from_pd,
    theoretical_uniform_sd,
)
from .interaction import (
    InteractionReport,
    PairStatistics,
    h_statistic,
    interaction_matrix,
    pd_interaction,
)
from .models import KnnModel, LinearModel, PredictionModel, fit_knn, fit_linear
from .serialize import load_model, model_from_json, model_to_json, save_model
from .simulate import (
    FRIEDMAN_EXPRESSION,
    SimulationSpec,
    generate,
    true_pd_friedman_pair,
    true_pd_linear,
)
from .trees import BaggedTreesModel, fit_bagged_trees

__version__ = "0.1.0"

__all__ = [
    "BaggedTreesModel",
    "BridgeError",
    "BridgeTimeoutError",
    "CATEGORICAL",
    "CONTINUOUS",
    "ContractError",
    "CsvError",
    "Dataset",
    "DegenerateGridError",
    "ExpressionError",
    "ExpressionModel",
    "ExternalModel",
    "FRIEDMAN_EXPRESSION",
    "FeatureSchema",
    "Grid",
    "GridAxis",
    "GridStrategy",
    "GridStrategyError",
    "ICEResult",
    "ImportanceEntry",
    "ImportanceReport",
    "InteractionReport",
    "KnnModel",
    "LinearModel",
    "NonFiniteError",
    "PDResult",
    "PairStatistics",
    "ParameterError",
    "PdimpError",
    "PredictionModel",
    "ProtocolError",
    "SimulationSpec",
    "SingularDesignError",
    "SpawnError",
    "UnknownFeatureError",
    "UsageError",
    "ValidationError",
    "build_grid",
    "fit_bagged_trees",
    "fit_knn",
    "fit_linear",
    "generate",
    "h_statistic",
    "ice_curves",
    "importance_all",
    "importance_from_pd",
    "infer_schema",
    "interaction_matrix",
    "load_csv",
    "load_model",
    "model_from_json",
    "model_to_json",
    "parse_expression",
    "partial_dependence",
    "pd_interaction",
    "save_model",
    "spawn_external",
    "theoretical_uniform_sd",
    "true_pd_friedman_pair",
    "true_pd_linear",
    "__version__",
]
