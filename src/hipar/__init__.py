"""hipar: mining compact sets of hybrid rules (pattern antecedent + sparse
linear consequent) from mixed categorical/numerical tabular data."""

from .data import (
    CATEGORICAL,
    NUMERICAL,
    AttributeSchema,
    DataError,
    Dataset,
    FoldPlan,
    holdout_split,
    k_folds,
    load_csv,
    write_csv,
)
from .discretization import (
    CutPointSet,
    DegenerateTarget,
    TargetBinarization,
    binarize_target,
    conditions_from_cuts,
    mdlp_cuts,
)
from .enumeration import (
    CandidateSet,
    EnumConfig,
    EnumStats,
    HybridRule,
    derive_seed,
    enumerate_candidates,
    hipar_init,
    leftmost_parent_check,
    occam_test,
)
from .patterns import (
    TOP,
    Condition,
    Equals,
    Interval,
    Pattern,
    closure,
    condition_key,
    condition_tids,
    interclass_variance,
    jaccard,
    matches,
    region,
    support,
)
from .pipeline import (
    EvaluationReport,
    FoldResult,
    RunConfig,
    count_elements,
    cross_validate,
    deserialize_rules,
    error_reduction,
    render_model,
    run_hipar,
    serialize_rules,
)
from .prediction import Predictor, covering_rules, predict, predict_batch
from .regression import (
    DEFAULT_LAMBDA_GRID,
    MEAE,
    METRICS,
    RMSE,
    FittedRuleModel,
    LinearModel,
    best_local_model,
    evaluate,
    fit_lasso,
    fit_ols,
    fit_omp,
    metric_value,
)
from .selection import (
    EXACT_LIMIT,
    SelectedRuleSet,
    SelectionProblem,
    build_problem,
    select_top_q,
    solve,
    subset_objective,
)

__version__ = "0.1.0"
