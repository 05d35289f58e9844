"""hipar: mining compact sets of hybrid rules (pattern antecedent + sparse
linear consequent) from mixed categorical/numerical tabular data."""

from .data import (
    AttributeSchema,
    DataError,
    Dataset,
    holdout_mask,
    k_folds,
    load_csv,
    write_csv,
)
from .discretization import (
    CutPointSet,
    TargetBinarization,
    binarize_target,
    conditions_from_cuts,
    mdlp_cuts,
)
from .enumeration import (
    EnumStats,
    HybridRule,
    enumerate_candidates,
    hipar_init,
    leftmost_parent_check,
    occam_test,
)
from .patterns import (
    TOP,
    Equals,
    Interval,
    Pattern,
    closure,
    condition_tids,
    interclass_variance,
    region,
    support,
)
from .pipeline import (
    RunConfig,
    count_elements,
    cross_validate,
    cross_validate_and_fit,
    deserialize_rules,
    error_reduction,
    render_model,
    run_hipar,
    serialize_rules,
)
from .prediction import Predictor, covering_rules, predict, predict_batch, predict_columns
from .regression import (
    RMSE,
    FittedRuleModel,
    LinearModel,
    best_local_model,
    evaluate,
    fit_lasso,
    fit_ols,
    fit_omp,
)
from .selection import (
    SelectedRuleSet,
    SelectionProblem,
    build_problem,
    select_top_q,
    solve,
    subset_objective,
)

__version__ = "0.1.0"
