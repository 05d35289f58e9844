"""End-to-end pipeline: fit, select, predict, cross-validate, serialize.

The rule file written by serialize_rules is a single JSON document carrying a
human-readable text block plus the machine fields needed to rebuild a Predictor
(schema, metric, per-rule models and normalized errors).
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass

import numpy as np

from .data import AttributeSchema, DataError, Dataset, k_folds
from .enumeration import EnumConfig, HybridRule, enumerate_candidates, hipar_init
from .patterns import Equals, Interval, Pattern
from .prediction import Predictor, predict_batch
from .regression import FittedRuleModel, LinearModel, check_metric, evaluate, fit_ols, metric_value
from .selection import SelectedRuleSet, build_problem, select_top_q, solve

VARIANTS = ("standard", "f", "sd")


@dataclass(frozen=True)
class RunConfig:
    """Pipeline configuration; defaults follow the recommended operating point
    (theta=0.1, sigma=1, omega=1, RMSE, 10 folds)."""

    target: str
    theta: float = 0.1
    sigma: float = 1.0
    omega: float = 1.0
    metric: str = "rmse"
    variant: str = "standard"  # standard | f | sd
    sd_q: int | None = None
    folds: int = 10
    seed: int = 0

    def enum_config(self) -> EnumConfig:
        return EnumConfig(theta=self.theta, metric=check_metric(self.metric), seed=self.seed)


def run_hipar(d: Dataset, cfg: RunConfig) -> tuple[SelectedRuleSet, Predictor]:
    """Fit the default rule, enumerate candidates, select, and wrap a Predictor.

    Variant "standard" solves the overlap-penalized selection, "f" forces
    omega = 0 (every candidate selected), "sd" takes the top sd_q candidates by
    support-to-error trade-off; an sd_q given with another variant is a
    DataError. The default rule competes like any candidate but is always
    retained for fallback prediction.
    """
    if cfg.variant not in VARIANTS:
        raise DataError(f"unknown variant {cfg.variant!r}, expected one of {VARIANTS}")
    if cfg.sd_q is not None and cfg.variant != "sd":
        raise DataError(f"sd_q is read only by variant 'sd', not {cfg.variant!r}")
    enum_cfg = cfg.enum_config()
    init_conditions = hipar_init(d, cfg.target, enum_cfg)
    candidates = enumerate_candidates(d, cfg.target, init_conditions, enum_cfg)
    pool = list(candidates.rules) + [candidates.default_rule]

    omega = 0.0 if cfg.variant == "f" else cfg.omega
    problem = build_problem(pool, cfg.sigma, omega, d)
    if cfg.variant == "sd":
        if cfg.sd_q is None:
            raise DataError("variant 'sd' requires sd_q")
        selected = select_top_q(problem, cfg.sd_q)
    else:
        selected = solve(problem)

    ebar = {
        rule.pattern: float(e) for rule, e in zip(problem.candidates, problem.normalized_errors)
    }
    predictor = Predictor(
        rules=selected,
        default_rule=candidates.default_rule,
        normalized_errors=ebar,
        schema=list(d.schema),
        metric=enum_cfg.metric,
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
    fold: int
    baseline_error: float
    model_error: float
    reduction: float
    rules: int
    elements: int
    seconds: float
    skipped: bool = False
    note: str = ""


@dataclass(frozen=True)
class EvaluationReport:
    folds: list[FoldResult]
    mean_reduction: float
    median_reduction: float
    metric: str
    config: dict

    def to_dict(self) -> dict:
        return {
            "metric": self.metric,
            "mean_reduction": self.mean_reduction,
            "median_reduction": self.median_reduction,
            "config": self.config,
            "folds": [asdict(f) for f in self.folds],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def cross_validate(d: Dataset, cfg: RunConfig) -> EvaluationReport:
    """k-fold evaluation against the unregularized global linear baseline.

    Per fold the baseline OLS and the full pipeline are fit on the training
    rows and scored on the held-out rows; timing covers training only. Folds
    whose baseline error is zero cannot anchor a reduction and are skipped
    with a note.
    """
    metric = check_metric(cfg.metric)
    plan = k_folds(d, cfg.folds, cfg.seed)
    y = cfg.target
    results: list[FoldResult] = []
    for fold in range(plan.k):
        train_rows = plan.train_rows(fold)
        test_rows = plan.fold_rows(fold)
        train_ds = d.subset(train_rows)

        start = time.perf_counter()
        baseline = fit_ols(np.arange(train_ds.n), train_ds, y)
        selected, predictor = run_hipar(train_ds, cfg)
        seconds = time.perf_counter() - start

        baseline_error = evaluate(baseline, test_rows, d, y, metric)
        predictions = predict_batch(predictor, d, test_rows)
        model_error = metric_value(d.column(y)[test_rows] - predictions, metric)
        skipped = baseline_error == 0.0
        results.append(
            FoldResult(
                fold=fold,
                baseline_error=baseline_error,
                model_error=model_error,
                reduction=math.nan if skipped else error_reduction(baseline_error, model_error),
                rules=len(selected.chosen),
                elements=count_elements(selected),
                seconds=seconds,
                skipped=skipped,
                note="baseline error is zero on the test rows" if skipped else "",
            )
        )
    reductions = [r.reduction for r in results if not r.skipped]
    return EvaluationReport(
        folds=results,
        mean_reduction=float(np.mean(reductions)) if reductions else math.nan,
        median_reduction=float(np.median(reductions)) if reductions else math.nan,
        metric=metric,
        config={**asdict(cfg), "metric": metric},
    )


def render_model(model: LinearModel, target: str) -> str:
    """``target = b0 + b1*attr ...`` at 6 significant digits, zeros omitted."""
    parts = ["%.6g" % model.intercept]
    for name, coef in model.coefficients.items():
        sign = " + " if coef >= 0 else " - "
        parts.append(f"{sign}{'%.6g' % abs(coef)}*{name}")
    return f"{target} = {''.join(parts)}"


def _rule_text(title: str, rule: HybridRule, target: str) -> str:
    fitted = rule.fitted
    return "\n".join(
        [
            title,
            f"  if       {rule.pattern.render()}",
            f"  then     {render_model(fitted.model, target)}",
            f"  support  {rule.support_abs} ({rule.support_rel:.4f})",
            f"  holdout  {fitted.metric} {'%.6g' % fitted.holdout_error}",
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


def _flag(value: object) -> bool:
    """A JSON true/false; anything else would read as true or false silently."""
    if not isinstance(value, bool):
        raise TypeError(f"expected true or false, got {value!r}")
    return value


def _rule_from_json(obj: dict, metric: str) -> HybridRule:
    m = obj["model"]
    model = LinearModel(
        intercept=float(m["intercept"]),
        coefficients={k: float(v) for k, v in m["coefficients"].items()},
        method=m["method"],
        standardization={k: (float(v[0]), float(v[1])) for k, v in m["standardization"].items()},
        hyper=m["hyper"],
    )
    if not all(map(math.isfinite, [model.intercept, *model.coefficients.values()])):
        raise ValueError("a model has a non-finite intercept or coefficient")
    fitted = FittedRuleModel(
        model=model,
        train_error=float(obj["train_error"]),
        holdout_error=float(obj["holdout_error"]),
        metric=metric,
        holdout_rows=np.empty(0, dtype=int),
    )
    return HybridRule(
        pattern=Pattern(_condition_from_json(c) for c in obj["conditions"]),
        fitted=fitted,
        support_abs=int(obj["support_abs"]),
        support_rel=float(obj["support_rel"]),
        is_default=_flag(obj["is_default"]),
    )


def serialize_rules(pred: Predictor, path: str) -> None:
    """Write the rule file: readable text block plus machine fields, one JSON doc."""
    target = next(a.name for a in pred.schema if a.role == "target")
    chosen = {r.pattern for r in pred.rules.chosen}
    entries = list(pred.rules.chosen)
    if pred.default_rule.pattern not in chosen:
        entries.append(pred.default_rule)

    blocks = []
    counter = 0
    for rule in entries:
        if rule.is_default:
            blocks.append(_rule_text("default rule", rule, target))
        else:
            counter += 1
            blocks.append(_rule_text(f"rule {counter}", rule, target))
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
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def deserialize_rules(path: str) -> Predictor:
    """Rebuild a Predictor from a rule file written by serialize_rules."""
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
        metric = check_metric(doc["metric"])
        schema = [AttributeSchema(s["name"], s["kind"], s["role"]) for s in doc["schema"]]
        rules = [_rule_from_json(obj, metric) for obj in doc["rules"]]
        chosen = [r for r, obj in zip(rules, doc["rules"]) if _flag(obj["chosen"])]
        selected = SelectedRuleSet(
            chosen=chosen,
            objective_value=float(doc["selection"]["objective_value"]),
            solver=doc["selection"]["solver"],
            proof=_flag(doc["selection"]["proof"]),
        )
        ebar = {r.pattern: float(obj["normalized_error"]) for r, obj in zip(rules, doc["rules"])}
    except (KeyError, IndexError, TypeError, ValueError, AttributeError) as exc:
        raise DataError(f"{path} is not a valid rule file: {type(exc).__name__}: {exc}") from exc
    if len(ebar) != len(rules):
        raise DataError(f"{path}: two rules share a pattern")
    defaults = [r for r in rules if r.is_default]
    if len(defaults) != 1:
        raise DataError(f"{path} must carry exactly one default rule")
    return Predictor(
        rules=selected,
        default_rule=defaults[0],
        normalized_errors=ebar,
        schema=schema,
        metric=metric,
    )
