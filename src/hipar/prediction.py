"""Predictions from a selected rule set: error-weighted vote of covering rules,
default-model fallback for uncovered points."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .data import NUMERICAL, AttributeSchema, DataError, Dataset
from .enumeration import HybridRule
from .patterns import check_condition
from .selection import SelectedRuleSet


@dataclass(frozen=True)
class Predictor:
    """Immutable prediction model over a selected rule set.

    ``normalized_errors`` maps canonical pattern keys to ebar as computed over
    the full training candidate pool at selection time; covering rules vote
    with weights proportional to 1/ebar. The default rule never joins the vote,
    even when the selector chose it: it answers alone for points no other
    selected rule covers. Every condition and coefficient must name a feature
    of ``schema``, of the kind the condition needs.
    """

    rules: SelectedRuleSet
    default_rule: HybridRule
    normalized_errors: dict[str, float]
    schema: list[AttributeSchema]
    metric: str
    # (rule, 1/ebar) for the chosen non-default rules in canonical key order
    voters: tuple[tuple[HybridRule, float], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        features = {a.name: a for a in self.schema if a.role == "feature"}
        for rule in list(self.rules.chosen) + [self.default_rule]:
            if rule.key not in self.normalized_errors:
                raise DataError(f"rule {rule.key!r} has no recorded normalized error")
            for c in rule.pattern.conditions:
                if c.attribute not in features:
                    raise DataError(f"rule {rule.key!r} tests {c.attribute!r}, not a feature")
                check_condition(c, features[c.attribute])
            for name in rule.fitted.model.coefficients:
                if name not in features or features[name].kind != NUMERICAL:
                    raise DataError(f"rule {rule.key!r} has a coefficient on {name!r}, "
                                    "not a numerical feature")
        voting = sorted((r for r in self.rules.chosen if not r.is_default), key=lambda r: r.key)
        voters = tuple((r, 1.0 / self.normalized_errors[r.key]) for r in voting)
        object.__setattr__(self, "voters", voters)


def _observation(pred: Predictor, x: Mapping[str, object]) -> dict[str, object]:
    """The observation's features, numerical ones as finite floats."""
    obs: dict[str, object] = {}
    for attr in pred.schema:
        if attr.role != "feature":
            continue
        if attr.name not in x:
            raise DataError(f"observation is missing feature {attr.name!r}")
        v = x[attr.name]
        if attr.kind == NUMERICAL:
            try:
                v = float(v)  # type: ignore[arg-type]
            except (TypeError, ValueError):
                raise DataError(f"feature {attr.name!r} is not numeric: {v!r}") from None
            if not math.isfinite(v):
                raise DataError(f"feature {attr.name!r} is not finite: {v!r}")
        obs[attr.name] = v
    return obs


def covering_rules(pred: Predictor, x: Mapping[str, object]) -> list[HybridRule]:
    """Selected non-default rules whose pattern matches x, in canonical order.

    Unknown categorical values simply match no equality condition.
    """
    obs = _observation(pred, x)
    return [r for r, _ in pred.voters if r.pattern.mask(obs)]


def predict(pred: Predictor, x: Mapping[str, object]) -> float:
    """Weighted vote of the covering rules; the default model answers alone
    when nothing covers x. Weights are ebar^-1 renormalized over the cover."""
    obs = _observation(pred, x)
    covering = [(r, w) for r, w in pred.voters if r.pattern.mask(obs)]
    if not covering:
        return pred.default_rule.fitted.model.predict(obs)
    votes = [w * r.fitted.model.predict(obs) for r, w in covering]
    return float(sum(votes) / sum(w for _, w in covering))


def predict_batch(pred: Predictor, d: Dataset, rows) -> np.ndarray:
    """Elementwise predict over dataset rows, order preserved."""
    idx = np.asarray(rows, dtype=int)
    out = np.empty(len(idx))
    for pos, i in enumerate(idx):
        try:
            out[pos] = predict(pred, d.row(int(i)))
        except DataError as exc:
            raise DataError(f"row {int(i)}: {exc}") from exc
    return out
