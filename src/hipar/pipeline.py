"""End-to-end pipeline: fit, select, predict, cross-validate, serialize.

A rule file (serialize_rules) is one JSON document: a readable text block and
the fields of the whole Predictor. RULE_FILE_FIELDS, the one statement of its
format, gives each field's type and range; deserialize_rules checks a file
against it, then rebuilds a Predictor equal to the one saved.
"""

from __future__ import annotations

import json
import math
import sys
import time
from dataclasses import asdict, dataclass

import numpy as np

from .data import (CATEGORICAL, NUMERICAL, AttributeSchema, DataError, Dataset, check_folds,
                   check_schema, check_seed, is_int, is_real, k_folds)
from .enumeration import CandidateSet, HybridRule, drive, hipar_init, search_candidates
from .patterns import Equals, Interval, Pattern
from .prediction import Predictor, predict_batch
from .regression import (LASSO, MEAN, METRICS, OLS, OMP, FittedRuleModel, LinearModel,
                         check_metric, evaluate, fit_ols_tables, metric_value)
from .selection import SelectedRuleSet, build_problem, check_biases, select_top_q, solve


@dataclass(frozen=True)
class RunConfig:
    """The one configuration of a fit, and the one place that states each
    setting's default and allowed values; defaults follow the recommended
    operating point (theta=0.1, sigma=1, omega=1, RMSE, 10 folds). The target
    is the dataset's (``Dataset.target``). The paper's HiPaR_f is omega = 0
    (every candidate kept) and its HiPaR_sd is sd_q = q (the top q kept).

    Every setting is checked when the config is made, so a bad one (also a
    bool, a str or None for a number) is a DataError before any input is read.
    The metric is stored lower-cased. Bounds that need the table (theta*n >= 1,
    folds <= n, sd_q <= candidates) are checked where the table is read.
    """

    theta: float = 0.1  # relative support threshold, always read against the full table
    sigma: float = 1.0
    omega: float = 1.0
    metric: str = "rmse"
    sd_q: int | None = None  # keep the top sd_q candidates; None solves the objective
    folds: int = 10
    seed: int = 0  # seeds the fit's 80/20 split and the folds

    def __post_init__(self):
        if not (is_real(self.theta) and 0.0 < self.theta <= 1.0):
            raise DataError(f"theta must lie in (0, 1], got {self.theta!r}")
        object.__setattr__(self, "metric", check_metric(self.metric))
        if self.sd_q is not None and not (is_int(self.sd_q) and self.sd_q >= 1):
            raise DataError(f"sd_q must be an integer >= 1, got {self.sd_q!r}")
        check_biases(self.sigma, self.omega)
        check_folds(self.folds)
        check_seed(self.seed)


def run_hipar(d: Dataset, cfg: RunConfig) -> tuple[SelectedRuleSet, Predictor]:
    """Fit the default rule, enumerate candidates, select, and wrap a Predictor.

    Selection solves the objective of cfg.sigma and cfg.omega, or takes the
    top cfg.sd_q candidates by support-to-error trade-off when sd_q is set.
    The config was checked when it was made. The default rule competes like
    any candidate but is always retained for fallback prediction. The
    Predictor keeps the normalized errors of the chosen rules and the default
    rule, as its rule file does. One fit (``_train``), driven alone.
    """
    (fit,), _ = drive([_train(d, cfg)], cfg.metric)
    return fit


def _train(d: Dataset, cfg: RunConfig):
    """The one way a table is fitted, as a job for ``drive``: the search,
    which yields at its contest calls, then the selection (``_select``). It
    serves ``run_hipar`` and each job of a cross-validation's drive. Returns
    the selected rules and the Predictor."""
    candidates = yield from search_candidates(d, hipar_init(d, cfg), cfg)
    return _select(d, cfg, candidates)


def _select(d: Dataset, cfg: RunConfig,
            candidates: CandidateSet) -> tuple[SelectedRuleSet, Predictor]:
    """``run_hipar``'s selection among the candidates, and its Predictor."""
    pool = list(candidates.rules) + [candidates.default_rule]
    problem = build_problem(pool, cfg.sigma, cfg.omega, d)
    if cfg.sd_q is not None and cfg.sd_q > len(pool):
        raise DataError(f"sd_q (--sd-q) = {cfg.sd_q} out of range [1, {len(pool)}]: the fit found "
                        f"{len(pool)} candidates, the default rule among them")
    selected = solve(problem) if cfg.sd_q is None else select_top_q(problem, cfg.sd_q)

    ebar = dict(zip([r.pattern for r in problem.candidates], problem.normalized_errors.tolist()))
    kept = [*selected.chosen, candidates.default_rule]
    predictor = Predictor(
        rules=selected,
        default_rule=candidates.default_rule,
        normalized_errors={r.pattern: ebar[r.pattern] for r in kept},
        schema=list(d.schema),
        metric=cfg.metric,
    )
    return selected, predictor


def error_reduction(baseline: float, model: float) -> float:
    """Percentage error reduction of the model against the baseline."""
    if not baseline > 0:
        raise DataError(f"baseline error must be > 0, got {baseline}")
    return (baseline - model) / baseline * 100.0


def count_elements(rs: SelectedRuleSet) -> int:
    """Complexity proxy: antecedent conditions plus non-zero coefficients over
    the chosen rules (the intercept never counts)."""
    return sum(len(r.pattern.conditions) + r.fitted.model.n_nonzero() for r in rs.chosen)


@dataclass(frozen=True)
class FoldResult:
    """One fold of a cross-validation. ``reduction`` is None for a skipped
    fold. ``seconds`` is the fold's training time: an equal share of the one
    batch that fits every fold's baseline, and the fold's part of the drive
    that trains the folds together (``cross_validate``): the time of its own
    steps plus its share of the contest calls it took part in, split by the
    regions it put in. A whole-table fit in the same drive
    (``cross_validate_and_fit``) is no fold's and keeps its own share, so the
    folds' seconds need not add up to the drive's wall time."""

    fold: int
    baseline_error: float
    model_error: float
    reduction: float | None
    rules: int
    elements: int
    seconds: float
    skipped: bool = False
    note: str = ""


@dataclass(frozen=True)
class EvaluationReport:
    """The folds of a cross-validation and the mean and median of their
    reductions, None when no fold could be scored."""

    metric: str
    mean_reduction: float | None
    median_reduction: float | None
    config: dict
    folds: list[FoldResult]

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        """The report as standard JSON: a NaN or an infinity is a ValueError."""
        return json.dumps(self.to_dict(), indent=2, allow_nan=False)


def cross_validate(d: Dataset, cfg: RunConfig) -> EvaluationReport:
    """k-fold evaluation against the unregularized global linear baseline.

    Per fold the baseline OLS and the full pipeline are fit on the training
    rows and scored on the held-out rows; timing covers training only. The
    k baselines are fit in one batch (``regression.fit_ols_tables``), and
    the k folds train in lockstep (``enumeration.drive``): each fold's fit
    (``_train``) pauses at its contest call, and one call fits the regions
    every fold asks for in that round, so the contest's solver steps are
    paid once per round, not once per fold. A region's fit depends on its
    rows alone, so every fold gets what it gets alone. Should folds fail, the
    first failing fold's error is raised. Folds whose baseline error is zero
    cannot anchor a reduction and are skipped with a note.
    """
    return _cross_validate(d, cfg, whole=False)[0]


def cross_validate_and_fit(
    d: Dataset, cfg: RunConfig
) -> tuple[EvaluationReport, SelectedRuleSet, Predictor]:
    """``cross_validate(d, cfg)`` and ``run_hipar(d, cfg)`` in one drive: the
    whole-table fit is its last job, after the k folds, so its regions join
    the folds' contest calls. A fold's error is raised ahead of the whole
    table's, and the whole table's time is in no fold's ``seconds``."""
    report, (selected, predictor) = _cross_validate(d, cfg, whole=True)
    return report, selected, predictor


def _cross_validate(d: Dataset, cfg: RunConfig, whole: bool):
    """The report of ``cross_validate``, and the whole-table fit as the
    drive's (k+1)-th job if ``whole`` is set, else None."""
    plan = k_folds(d, cfg.folds, cfg.seed)
    tables = [d.subset(plan.train_rows(fold)) for fold in range(plan.k)]
    clock = time.perf_counter()
    baselines = fit_ols_tables(tables)
    share = (time.perf_counter() - clock) / plan.k
    jobs = [_train(t, cfg) for t in tables]
    if whole:
        jobs.append(_train(d, cfg))
    fits, seconds = drive(jobs, cfg.metric)
    results: list[FoldResult] = []
    for fold, (baseline, (selected, predictor), took) in enumerate(zip(baselines, fits, seconds)):
        test_rows = plan.fold_rows(fold)
        baseline_error = evaluate(baseline, test_rows, d, cfg.metric)
        predictions = predict_batch(predictor, d, test_rows)
        model_error = metric_value(d.column(d.target)[test_rows] - predictions, cfg.metric)
        skipped = baseline_error == 0.0
        results.append(
            FoldResult(
                fold=fold,
                baseline_error=baseline_error,
                model_error=model_error,
                reduction=None if skipped else error_reduction(baseline_error, model_error),
                rules=len(selected.chosen),
                elements=count_elements(selected),
                seconds=share + took,
                skipped=skipped,
                note="baseline error is zero on the test rows" if skipped else "",
            )
        )
    reductions = [r.reduction for r in results if not r.skipped]
    report = EvaluationReport(
        metric=cfg.metric,
        mean_reduction=float(np.mean(reductions)) if reductions else None,
        median_reduction=float(np.median(reductions)) if reductions else None,
        config={"target": d.target, **asdict(cfg)},
        folds=results,
    )
    return report, (fits[plan.k] if whole else None)


def render_model(model: LinearModel, target: str) -> str:
    """``target = b0 + b1*attr ...`` at 6 significant digits, zeros omitted."""
    parts = ["%.6g" % model.intercept]
    for name, coef in model.coefficients.items():
        sign = " + " if coef >= 0 else " - "
        parts.append(f"{sign}{'%.6g' % abs(coef)}*{name}")
    return f"{target} = {''.join(parts)}"


def _rule_text(title: str, rule: HybridRule, target: str, metric: str) -> str:
    return "\n".join(
        [
            title,
            f"  if       {rule.pattern.render()}",
            f"  then     {render_model(rule.fitted.model, target)}",
            f"  support  {rule.support_abs} ({rule.support_rel:.4f})",
            f"  holdout  {metric} {'%.6g' % rule.fitted.holdout_error}",
        ]
    )


def _condition_to_json(c) -> dict:
    if isinstance(c, Equals):
        return {"attribute": c.attribute, "op": "eq", "value": c.value}
    return {
        "attribute": c.attribute,
        "op": "in",
        "lo": None if c.lo == -math.inf else c.lo,
        "hi": None if c.hi == math.inf else c.hi,
    }


def _condition_from_json(obj: dict):
    if obj["op"] == "eq":
        return Equals(obj["attribute"], obj["value"])
    lo = -math.inf if obj["lo"] is None else float(obj["lo"])
    hi = math.inf if obj["hi"] is None else float(obj["hi"])
    return Interval(obj["attribute"], lo, hi)


def _rule_to_json(rule: HybridRule, ebar: float, chosen: bool) -> dict:
    model = rule.fitted.model
    return {
        "pattern": rule.pattern.render(),
        "conditions": [_condition_to_json(c) for c in rule.pattern.conditions],
        "model": {
            "method": model.method,
            "intercept": model.intercept,
            "coefficients": dict(model.coefficients),
            "standardization": {k: list(v) for k, v in model.standardization.items()},
            "hyper": model.hyper,
        },
        "support_abs": rule.support_abs,
        "support_rel": rule.support_rel,
        "train_error": rule.fitted.train_error,
        "holdout_error": rule.fitted.holdout_error,
        "normalized_error": ebar,
        "is_default": rule.is_default,
        "chosen": chosen,
    }


_NUMBER = (int, float)
_NULLABLE = (int, float, type(None))
_AT_LEAST_ZERO = lambda x: 0.0 <= x < math.inf  # noqa: E731

# The hipar-rules-v1 format, stated once: (path, JSON types, test, description)
# of every field the loader reads; ``*`` is any item of a list or key of an
# object. No integer may lie past the float range, null passes untested, a
# tuple test names the allowed strings and a field's test runs after its own
# fields pass. A row ending in a key and a value holds only where its object
# has that value at that key. Besides, ``format`` must be "hipar-rules-v1" and
# ``include_default_in_coverage`` false or absent; ``text`` is not read.
RULE_FILE_FIELDS = (
    ("target", (str,), None, "a string"),
    ("metric", (str,), lambda m: m.lower() in METRICS, "rmse or meae, in any case"),
    ("schema", (list,), None, "a list"),
    ("schema.*", (dict,), None, "an object"),
    ("schema.*.name", (str,), None, "a string"),
    ("schema.*.kind", (str,), (CATEGORICAL, NUMERICAL), None),
    ("schema.*.role", (str,), ("feature", "target"), None),
    ("selection", (dict,), None, "an object"),
    ("selection.objective_value", _NUMBER, math.isfinite, "a finite number"),
    ("selection.solver", (str,), ("exact", "local-search", "top-q"), None),
    ("selection.proof", (bool,), None, "true or false"),
    ("rules", (list,), None, "a list"),
    ("rules.*", (dict,), None, "an object"),
    ("rules.*.pattern", (str,), None, "a string"),
    ("rules.*.conditions", (list,), None, "a list"),
    ("rules.*.conditions.*", (dict,), None, "an object"),
    ("rules.*.conditions.*.attribute", (str,), None, "a string"),
    ("rules.*.conditions.*.op", (str,), ("eq", "in"), None),
    ("rules.*.conditions.*.value", (str,), None, "a string", "op", "eq"),
    ("rules.*.conditions.*.lo", _NULLABLE, math.isfinite, "a finite number or null", "op", "in"),
    ("rules.*.conditions.*.hi", _NULLABLE, math.isfinite, "a finite number or null", "op", "in"),
    ("rules.*.model", (dict,), None, "an object"),
    ("rules.*.model.method", (str,), (OLS, LASSO, OMP, MEAN), None),
    ("rules.*.model.intercept", _NUMBER, math.isfinite, "a finite number"),
    ("rules.*.model.coefficients", (dict,), None, "an object"),
    ("rules.*.model.coefficients.*", _NUMBER, math.isfinite, "a finite number"),
    ("rules.*.model.standardization", (dict,), None, "an object"),
    ("rules.*.model.standardization.*", (list,), lambda v: len(v) == 2 and v[1] > 0.0,
     "a [mean, std] list with std > 0"),
    ("rules.*.model.standardization.*.*", _NUMBER, math.isfinite, "a finite number"),
    ("rules.*.model.hyper", _NULLABLE, _AT_LEAST_ZERO, "a finite number >= 0 or null"),
    ("rules.*.support_abs", (int,), lambda x: x >= 1, "an integer >= 1"),
    ("rules.*.support_rel", _NUMBER, lambda x: 0.0 < x <= 1.0, "a number in (0, 1]"),
    ("rules.*.train_error", _NUMBER, _AT_LEAST_ZERO, "a finite number >= 0"),
    ("rules.*.holdout_error", _NUMBER, _AT_LEAST_ZERO, "a finite number >= 0"),
    ("rules.*.normalized_error", _NUMBER, None, "a number"),
    ("rules.*.is_default", (bool,), None, "true or false"),
    ("rules.*.chosen", (bool,), None, "true or false"),
)


def _tree() -> tuple:
    """The table as a tree: the document's row (name, types, test, description,
    when, fields), ``fields`` being the rows of its own fields, and so on."""
    rows = {"": ("", (dict,), None, "an object", [], [])}
    for path, types, test, description, *when in RULE_FILE_FIELDS:
        head, _, name = path.rpartition(".")
        rows[path] = (name, types, test, description or f"one of {', '.join(test)}", when, [])
        rows[head][-1].append(rows[path])
    return rows[""]


def _check(value, row: tuple = _tree(), where: str = "") -> None:
    """Check a parsed value at ``where`` in the file against its row of the table,
    and its fields against theirs; the first failure is a DataError."""
    _, types, test, description, _, fields = row
    # exact types: true is no number and 1 no flag; no integer is past the float range.
    # A float subclass (numpy's float64, in a Predictor built in code) is written as
    # a float, and so passes as one; a parsed file holds none.
    ok = ((type(value) in types or float in types and isinstance(value, float))
          and not (type(value) is int and abs(value) > sys.float_info.max))
    if ok and fields and fields[0][0] == "*":
        for key, item in enumerate(value) if type(value) is list else value.items():
            _check(item, fields[0], f"{where}[{key!r}]")
    elif ok:
        for field in fields:
            name, when, place = field[0], field[4], f"{where}.{field[0]}".lstrip(".")
            if not when or value.get(when[0]) == when[1]:
                if name not in value:
                    raise DataError(f"{place} is missing: it must be {field[3]}")
                _check(value[name], field, place)
    if ok and value is not None and test is not None:
        ok = value in test if type(test) is tuple else test(value)
    if not ok:
        raise DataError(f"{where} must be {description}, got {value!r}")


def _rule_from_json(obj: dict, i: int) -> HybridRule:
    m = obj["model"]
    coefficients = {k: float(v) for k, v in m["coefficients"].items()}
    scaling = {k: (float(mean), float(std)) for k, (mean, std) in m["standardization"].items()}
    model = LinearModel(float(m["intercept"]), coefficients, m["method"], scaling, m["hyper"])
    pattern = Pattern(_condition_from_json(c) for c in obj["conditions"])
    if obj["pattern"] != pattern.render():
        raise DataError(f"rules[{i}].pattern must be {pattern.render()!r}, got {obj['pattern']!r}")
    if obj["is_default"] != pattern.is_empty:
        raise DataError(f"rule {pattern.key!r} has is_default {json.dumps(obj['is_default'])}; "
                        "the default rule is exactly the rule whose pattern is TRUE")
    fitted = FittedRuleModel(model, float(obj["train_error"]), float(obj["holdout_error"]))
    return HybridRule(pattern, fitted, obj["support_abs"], float(obj["support_rel"]))


def serialize_rules(pred: Predictor, path: str) -> None:
    """Write the rule file: readable text block plus machine fields, one JSON doc.

    The document is checked against RULE_FILE_FIELDS before the file is
    opened, so a predictor whose numbers the loader would refuse (a support
    count of 0, a NaN error) is a DataError and leaves no file."""
    target = next(a.name for a in pred.schema if a.role == "target")
    chosen = {r.pattern for r in pred.rules.chosen}
    entries = list(pred.rules.chosen)
    if pred.default_rule.pattern not in chosen:
        entries.append(pred.default_rule)

    blocks = []
    counter = 0
    for rule in entries:
        if rule.is_default:
            blocks.append(_rule_text("default rule", rule, target, pred.metric))
        else:
            counter += 1
            blocks.append(_rule_text(f"rule {counter}", rule, target, pred.metric))
    doc = {
        "format": "hipar-rules-v1",
        "target": target,
        "metric": pred.metric,
        "schema": [{"name": a.name, "kind": a.kind, "role": a.role} for a in pred.schema],
        "selection": {
            "objective_value": pred.rules.objective_value,
            "solver": pred.rules.solver,
            "proof": pred.rules.proof,
        },
        "text": "\n\n".join(blocks),
        "rules": [
            _rule_to_json(r, pred.normalized_errors[r.pattern], chosen=r.pattern in chosen)
            for r in entries
        ],
    }
    _check(doc)  # never write a file the loader rejects
    text = json.dumps(doc, indent=2) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def deserialize_rules(path: str) -> Predictor:
    """Rebuild a Predictor from a rule file, checked first against RULE_FILE_FIELDS."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DataError(f"{path} is not a valid rule file: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != "hipar-rules-v1":
        raise DataError(f"{path} is not a hipar rule file")

    if doc.get("include_default_in_coverage", False) is not False:
        raise DataError(f"{path}: the default rule no longer joins the vote "
                        "(include_default_in_coverage must be false or absent)")
    try:
        _check(doc)
        schema = [AttributeSchema(a["name"], a["kind"], a["role"]) for a in doc["schema"]]
        target = check_schema(schema)
        if doc["target"] != target:
            raise DataError(f"target must be {target!r} as in the schema, got {doc['target']!r}")
        rules = [_rule_from_json(obj, i) for i, obj in enumerate(doc["rules"])]
        ebar = {r.pattern: float(obj["normalized_error"]) for r, obj in zip(rules, doc["rules"])}
        if len(ebar) != len(rules):
            raise DataError("two rules share a pattern")
        defaults = [r for r in rules if r.is_default]
        if len(defaults) != 1:
            raise DataError("the file must carry exactly one default rule")
        chosen = [r for r, obj in zip(rules, doc["rules"]) if obj["chosen"]]
        s = doc["selection"]
        selected = SelectedRuleSet(chosen, float(s["objective_value"]), s["solver"], s["proof"])
        return Predictor(rules=selected, default_rule=defaults[0], normalized_errors=ebar,
                         schema=schema, metric=doc["metric"])
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from exc
    except (KeyError, IndexError, TypeError, ValueError, AttributeError) as exc:
        raise DataError(f"{path} is not a valid rule file: {type(exc).__name__}: {exc}") from exc
