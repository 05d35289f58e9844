"""Predictions from a selected rule set: error-weighted vote of covering rules,
default-model fallback for uncovered points."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .data import NUMERICAL, AttributeSchema, DataError, Dataset
from .enumeration import HybridRule
from .selection import SelectedRuleSet


@dataclass(frozen=True)
class Predictor:
    """Immutable prediction model over a selected rule set.

    ``normalized_errors`` maps canonical pattern keys to ebar as computed over
    the full training candidate pool at selection time; covering rules vote
    with weights proportional to 1/ebar. The default rule is the fallback for
    points no selected rule covers and, by default, never joins the vote
    (``include_default_in_coverage`` switches the alternative reading on).
    """

    rules: SelectedRuleSet
    default_rule: HybridRule
    normalized_errors: dict[str, float]
    schema: list[AttributeSchema]
    metric: str
    include_default_in_coverage: bool = False

    def __post_init__(self):
        for rule in list(self.rules.chosen) + [self.default_rule]:
            if rule.key not in self.normalized_errors:
                raise DataError(f"rule {rule.key!r} has no recorded normalized error")

    def voting_rules(self) -> list[HybridRule]:
        out = [r for r in self.rules.chosen if not r.is_default]
        if self.include_default_in_coverage and any(r.is_default for r in self.rules.chosen):
            out.append(self.default_rule)
        return sorted(out, key=lambda r: r.key)


def _check_observation(pred: Predictor, x: Mapping[str, object]) -> None:
    for attr in pred.schema:
        if attr.role != "feature":
            continue
        if attr.name not in x:
            raise DataError(f"observation is missing feature {attr.name!r}")
        if attr.kind == NUMERICAL:
            try:
                v = float(x[attr.name])  # type: ignore[arg-type]
            except (TypeError, ValueError):
                raise DataError(f"feature {attr.name!r} is not numeric: {x[attr.name]!r}") from None
            if not math.isfinite(v):
                raise DataError(f"feature {attr.name!r} is not finite: {v!r}")


def covering_rules(pred: Predictor, x: Mapping[str, object]) -> list[HybridRule]:
    """Selected non-default rules whose pattern matches x, in canonical order.

    Unknown categorical values simply match no equality condition.
    """
    _check_observation(pred, x)
    return [r for r in pred.voting_rules() if r.pattern.matches(x)]


def predict(pred: Predictor, x: Mapping[str, object]) -> float:
    """Weighted vote of the covering rules; the default model answers alone
    when nothing covers x. Weights are ebar^-1 renormalized over the cover."""
    covering = covering_rules(pred, x)
    if not covering:
        return pred.default_rule.fitted.model.predict_obs(x)
    inv = [1.0 / pred.normalized_errors[r.key] for r in covering]
    votes = [r.fitted.model.predict_obs(x) for r in covering]
    return float(sum(w * v for w, v in zip(inv, votes)) / sum(inv))


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
