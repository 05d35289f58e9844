"""Predictions from a selected rule set: error-weighted vote of covering rules,
default-model fallback for uncovered points.

``predict`` scores one observation, ``predict_columns`` many. The columnar
vote reads each voter's rows as index arrays, not masks. Voters whose
equality conditions test the same attributes form a group, and nearly every
chosen pattern is such a conjunction of categorical equalities. Per group,
each row gets one cell code from the group's columns (mixed radix over their
level tables), one stable sort orders the rows by cell, and a voter's rows
are its cell's run, in ascending row order. A value a column's level table
lacks gives no rows, interval conditions narrow the run, and a voter with
no equality takes the rows of its mask. Each row then gets the same
additions in the same voter order as in ``predict``, so the two agree bit
for bit."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .data import (
    NUMERICAL,
    AttributeSchema,
    CodedColumn,
    DataError,
    Dataset,
    check_schema,
    code,
    row_indices,
)
from .enumeration import HybridRule
from .patterns import Equals, Interval, Pattern, check_condition
from .regression import check_metric
from .selection import SelectedRuleSet


@dataclass(frozen=True)
class Predictor:
    """Immutable prediction model over a selected rule set; a rule file
    (``pipeline.serialize_rules``) holds all of it, so a saved predictor loads
    back equal.

    ``normalized_errors`` maps the pattern of each chosen rule and of the
    default rule, and no other, to its ebar as computed over the full training
    candidate pool at selection time; each is finite and > 0, and covering
    rules vote with weights proportional to 1/ebar. ``default_rule`` is the
    rule whose pattern is TRUE. It never joins the vote, even when the
    selector chose it: it answers alone for points no other selected rule
    covers. ``schema`` is checked as a ``Dataset``'s is
    (``data.check_schema``). Every condition, coefficient and standardization
    entry must name a feature of it, of the kind the condition needs (a
    numerical one for a model's entries). A predictor holds no
    level table: a condition compares a categorical column on the column's
    own table (``data.CodedColumn``). ``metric`` is stored lower-cased, as
    ``RunConfig`` stores it, so a predictor of "RMSE" saves and loads back
    equal; an unknown metric is a DataError.
    """

    rules: SelectedRuleSet
    default_rule: HybridRule
    normalized_errors: dict[Pattern, float]
    schema: list[AttributeSchema]
    metric: str
    # (rule, 1/ebar) for the chosen non-default rules by pattern order, the vote's sum order
    voters: tuple[tuple[HybridRule, float], ...] = field(init=False, repr=False, compare=False)
    # the schema's feature attributes, in schema order
    features: tuple[AttributeSchema, ...] = field(init=False, repr=False, compare=False)
    # the voters grouped by the attributes their equalities test, first seen
    # first: (attributes, ((voter position, the equalities' values), ...))
    groups: tuple[tuple[tuple[str, ...], tuple[tuple[int, tuple[str, ...]], ...]], ...] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self):
        check_schema(self.schema)
        object.__setattr__(self, "metric", check_metric(self.metric))
        object.__setattr__(self, "features", tuple(a for a in self.schema if a.role == "feature"))
        features = {a.name: a for a in self.features}
        if not self.default_rule.is_default:
            raise DataError(f"the default rule's pattern is {self.default_rule.key!r}, not TRUE")
        held = [*self.rules.chosen, self.default_rule]
        if self.normalized_errors.keys() != {r.pattern for r in held}:
            raise DataError("normalized errors must name exactly the chosen and default rules")
        for rule in held:
            e = self.normalized_errors[rule.pattern]
            if not (0.0 < e < math.inf and 1.0 / e < math.inf):  # False for NaN too
                raise DataError(f"rule {rule.key!r} has normalized error {e!r}; "
                                "it must be finite and > 0 with a finite inverse")
            for c in rule.pattern.conditions:
                if c.attribute not in features:
                    raise DataError(f"rule {rule.key!r} tests {c.attribute!r}, not a feature")
                check_condition(c, features[c.attribute])
            model = rule.fitted.model
            for name in [*model.coefficients, *model.standardization]:
                if name not in features or features[name].kind != NUMERICAL:
                    raise DataError(f"rule {rule.key!r} has a coefficient or standardization on "
                                    f"{name!r}, not a numerical feature")
        voting = sorted((r for r in self.rules.chosen if not r.is_default),
                        key=lambda r: r.pattern.order)
        voters = tuple((r, 1.0 / self.normalized_errors[r.pattern]) for r in voting)
        object.__setattr__(self, "voters", voters)
        groups: dict[tuple[str, ...], list[tuple[int, tuple[str, ...]]]] = {}
        for i, (r, _) in enumerate(voters):
            eqs = [c for c in r.pattern.conditions if isinstance(c, Equals)]
            groups.setdefault(tuple(c.attribute for c in eqs), []).append(
                (i, tuple(c.value for c in eqs)))
        object.__setattr__(self, "groups", tuple((a, tuple(m)) for a, m in groups.items()))


def _observation(pred: Predictor, x: Mapping[str, object]) -> dict[str, object]:
    """The observation's features, numerical ones as finite floats and
    categorical ones ``str``."""
    obs: dict[str, object] = {}
    for attr in pred.features:
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
        elif not isinstance(v, str):
            raise DataError(f"categorical feature {attr.name!r} is not a string: {v!r}")
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
    when nothing covers x. Weights are ebar^-1 renormalized over the cover;
    votes and weights are added left to right in voter order, as
    ``predict_columns`` does."""
    obs = _observation(pred, x)
    num = den = 0.0
    for r, w in pred.voters:
        if r.pattern.mask(obs):
            num += w * r.fitted.model.predict(obs)
            den += w
    if den == 0.0:  # weights are positive: nothing covers x
        return pred.default_rule.fitted.model.predict(obs)
    return float(num / den)


def predict_columns(pred: Predictor, columns: Mapping[str, object], n: int) -> np.ndarray:
    """``predict`` over n observations given as feature columns, bit for bit:
    numerical columns hold finite floats, categorical ones ``str`` cells or a
    ``CodedColumn`` (as ``data.read_columns`` and a ``Dataset`` give them). A
    ``CodedColumn`` is scored as it is, on its own level table; ``str`` cells
    are coded first (``data.code``). A cell equal to no value a condition tests
    matches no condition, as in ``predict``. Votes and weights are added left
    to right in voter order. A missing feature, a column of other than n
    cells, a numerical cell that is not a finite float and a categorical cell
    that is not a ``str`` are DataErrors."""
    checked: dict[str, object] = {}
    for a in pred.features:
        if a.name not in columns:
            raise DataError(f"columns are missing feature {a.name!r}")
        col = columns[a.name]
        if a.kind == NUMERICAL:
            col = np.asarray(col)
            if col.dtype != float or col.shape != (n,) or not np.isfinite(col).all():
                raise DataError(f"feature {a.name!r} is not a column of {n} finite floats")
        elif len(col) != n:
            raise DataError(f"feature {a.name!r} holds {len(col)} cells, expected {n}")
        elif not isinstance(col, CodedColumn):
            col = code(col, f"categorical feature {a.name!r} is not a string")
        checked[a.name] = col
    columns = checked
    rows: dict[int, np.ndarray] = {}  # voter position -> its rows
    for attrs, members in pred.groups:
        if not attrs:
            for i, _ in members:
                rows[i] = np.flatnonzero(pred.voters[i][0].pattern.mask(columns))
            continue
        runs = _runs([columns[a] for a in attrs], [values for _, values in members], n)
        for (i, _), run in zip(members, runs):
            for c in pred.voters[i][0].pattern.conditions:
                if isinstance(c, Interval):
                    run = run[c.mask(columns[c.attribute][run])]
            rows[i] = run
    num = np.zeros(n)
    den = np.zeros(n)
    for i, (r, w) in enumerate(pred.voters):
        idx = rows[i]
        model = r.fitted.model
        num[idx] += w * model.predict({name: columns[name][idx] for name in model.coefficients})
        den[idx] += w
    covered = den > 0.0
    out = np.empty(n)
    out[covered] = num[covered] / den[covered]
    rest = ~covered
    model = pred.default_rule.fitted.model
    out[rest] = model.predict({name: columns[name][rest] for name in model.coefficients})
    return out


def _runs(cols: list[CodedColumn], keys: list[tuple[str, ...]], n: int) -> list[np.ndarray]:
    """Per key (one value per column), the ascending rows whose cells equal it.

    Each row's cell code is its codes in mixed radix over the columns' level
    tables, re-ranked by ``np.unique`` before the radix product could pass
    2^63. The codes go to the narrowest unsigned dtype before one stable
    argsort, which numpy runs as a radix sort up to 16 bits; a key's rows are
    then one run of the sorted order, ascending since the sort is stable. A
    key with a value its column's table lacks gets no rows."""
    if not n:
        return [np.empty(0, dtype=np.intp)] * len(keys)
    cell, key, size = 0, 0, 1  # scalars until the first column's codes make them arrays
    found = np.ones(len(keys), dtype=bool)
    for j, col in enumerate(cols):
        radix = len(col.levels)
        if size * radix > 2**63:
            distinct, cell = np.unique(cell, return_inverse=True)
            at = np.minimum(np.searchsorted(distinct, key), len(distinct) - 1)
            found &= distinct[at] == key
            key, size = at, len(distinct)
        codes = [col.index.get(values[j], -1) for values in keys]
        found &= np.array(codes) >= 0
        cell = cell * radix + col.codes.astype(np.int64, copy=False)
        key = key * radix + np.maximum(codes, 0)
        size *= radix
    narrow = next(t for t in (np.uint8, np.uint16, np.uint32, np.uint64)
                  if size <= np.iinfo(t).max + 1)
    order = np.argsort(cell.astype(narrow), kind="stable")
    ordered = cell[order]
    starts = np.searchsorted(ordered, key, "left")
    ends = np.searchsorted(ordered, key, "right")
    return [order[s:e] if f else order[:0]
            for s, e, f in zip(starts.tolist(), ends.tolist(), found.tolist())]


def predict_batch(pred: Predictor, d: Dataset, rows) -> np.ndarray:
    """``predict`` over dataset rows, order preserved, bit for bit. A row may
    repeat. A non-integer index or one outside the table is a DataError, as is
    a predictor feature that the dataset lacks or holds as another kind."""
    idx = row_indices(rows)
    bad = idx[(idx < 0) | (idx >= d.n)]
    if len(bad):
        raise DataError(f"row index {int(bad[0])} is out of range for {d.n} rows")
    for a in pred.features:
        kind = d.attribute(a.name).kind
        if kind != a.kind:
            raise DataError(f"feature {a.name!r} is {a.kind} in the rules "
                            f"but {kind} in the dataset")
    return predict_columns(pred, {a.name: d.column(a.name)[idx] for a in pred.features}, len(idx))
