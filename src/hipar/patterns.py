"""Conditions, patterns and regions: membership, support, closure, interclass variance.

Membership is decided in one place per condition kind: ``mask`` takes either one
observation's value (a Python scalar) or a whole column (a numpy array), so
mining and prediction apply the same rule.

Identity is exact: equal conditions or patterns are the same, and memos, visited
sets and ebar maps are keyed by them. A condition builds its text and its order
key (attribute, text, then lo, hi for intervals) once; the order sorts like the
text where texts differ and never ties two distinct conditions. Text is for
output, and decides results only in ``derive_seed``, the selection tie-break and
a ``Predictor``'s voter order (the order of its float sums).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Iterable, Mapping, Sequence, Union

import numpy as np

from .data import CATEGORICAL, NUMERICAL, AttributeSchema, DataError, Dataset


@dataclass(frozen=True)
class Equals:
    """Categorical equality condition ``attr = value``."""

    attribute: str
    value: str
    order: tuple = field(init=False, repr=False, compare=False)  # (attribute, text)

    def __post_init__(self):
        if not isinstance(self.value, str):  # else 1 and "1" would share a text
            raise DataError(f"equality value must be a string, got {self.value!r}")
        object.__setattr__(self, "order", (self.attribute, f'{self.attribute}="{self.value}"'))
        if "\x00" in self.value:
            object.__setattr__(self, "mask", partial(_equals_with_nul, self.value))

    def render(self) -> str:
        return self.order[1]

    def mask(self, values):
        return values == self.value


def _equals_with_nul(value: str, values):
    """Equals.mask for a value holding a NUL. numpy turns a str operand into a
    fixed-width string, which drops trailing NULs; an object operand keeps them."""
    if isinstance(values, np.ndarray):
        return values == np.array(value, dtype=object)
    return values == value


@dataclass(frozen=True)
class Interval:
    """Numerical membership condition with half-open semantics lo <= v < hi.

    lo = -inf / hi = +inf encode unbounded sides. The three rendered shapes are
    (-inf,a), [a,b] and (b,inf); membership is decided here, not by the rendering.
    """

    attribute: str
    lo: float
    hi: float
    order: tuple = field(init=False, repr=False, compare=False)  # (attribute, text, lo, hi)

    def __post_init__(self):
        if not self.lo < self.hi:
            raise DataError(f"interval bounds must satisfy lo < hi, got [{self.lo}, {self.hi})")
        if self.lo == -math.inf:
            text = f"{self.attribute} in (-inf,{self.hi:.6g})"
        elif self.hi == math.inf:
            text = f"{self.attribute} in ({self.lo:.6g},inf)"
        else:
            text = f"{self.attribute} in [{self.lo:.6g},{self.hi:.6g}]"
        # the bounds break ties between intervals whose texts collide
        object.__setattr__(self, "order", (self.attribute, text, self.lo, self.hi))

    def render(self) -> str:
        return self.order[1]

    def mask(self, values):
        return (self.lo <= values) & (values < self.hi)


Condition = Union[Equals, Interval]


class Pattern:
    """Conjunction of conditions, at most one per attribute and in attribute
    order; the empty pattern matches everything and renders as TRUE."""

    __slots__ = ("conditions", "key")

    def __init__(self, conditions: Iterable[Condition] = ()):
        conds = tuple(sorted(conditions, key=lambda c: c.attribute))
        attrs = [c.attribute for c in conds]
        if len(set(attrs)) != len(attrs):
            raise DataError("pattern holds more than one condition on an attribute")
        object.__setattr__(self, "conditions", conds)
        object.__setattr__(self, "key", " & ".join(c.render() for c in conds) or "TRUE")

    def __setattr__(self, *a):  # immutable
        raise AttributeError("Pattern is immutable")

    def __eq__(self, other):
        return isinstance(other, Pattern) and self.conditions == other.conditions

    def __hash__(self):
        return hash(self.conditions)

    def __repr__(self):
        return f"Pattern({self.key})"

    def __len__(self):
        return len(self.conditions)

    @property
    def is_empty(self) -> bool:
        return not self.conditions

    def attributes(self) -> set[str]:
        return {c.attribute for c in self.conditions}

    def extend(self, c: Condition) -> "Pattern":
        return Pattern(self.conditions + (c,))

    def without(self, c: Condition) -> "Pattern":
        return Pattern(tuple(x for x in self.conditions if x != c))

    def render(self) -> str:
        return self.key

    def mask(self, columns: Mapping[str, object]):
        """AND of the conditions' masks over one observation or over columns;
        True for the empty pattern."""
        out = True
        for c in self.conditions:
            out = out & c.mask(columns[c.attribute])
        return out


TOP = Pattern()


def check_condition(c: Condition, attr: AttributeSchema) -> None:
    """Equality needs a categorical attribute, an interval a numerical one."""
    if isinstance(c, Equals) and attr.kind != CATEGORICAL:
        raise DataError(f"equality condition on non-categorical attribute {c.attribute!r}")
    if isinstance(c, Interval) and attr.kind != NUMERICAL:
        raise DataError(f"interval condition on non-numerical attribute {c.attribute!r}")


def condition_mask(c: Condition, d: Dataset) -> np.ndarray:
    """Read-only boolean row mask of the condition, computed once per dataset."""
    mask = d.masks.get(c)
    if mask is None:
        check_condition(c, d.attribute(c.attribute))
        mask = c.mask(d.column(c.attribute))
        mask.flags.writeable = False
        d.masks[c] = mask
    return mask


def condition_tids(c: Condition, d: Dataset) -> np.ndarray:
    """Sorted row indices where the condition holds."""
    return np.nonzero(condition_mask(c, d))[0]


def region_mask(p: Pattern, d: Dataset) -> np.ndarray:
    """Boolean row mask of the pattern's region (all True for the empty pattern)."""
    mask = np.ones(d.n, dtype=bool)
    for c in p.conditions:
        mask &= condition_mask(c, d)
    return mask


def region(p: Pattern, d: Dataset) -> np.ndarray:
    """Sorted row indices of the pattern's region (all rows for the empty pattern)."""
    return np.nonzero(region_mask(p, d))[0]


def support(p: Pattern, d: Dataset) -> tuple[int, float]:
    """(absolute, relative) support of the pattern on the dataset."""
    s = int(np.count_nonzero(region_mask(p, d)))
    return s, s / d.n


def closure(p: Pattern, d: Dataset, universe: Sequence[Condition]) -> Pattern:
    """Closed pattern of p's region relative to an explicit condition universe.

    Adds every universe condition that holds on every row of the region; the
    region is unchanged and the operation is idempotent. Raises on an empty
    region. Should a universe carry two conditions on one attribute that both
    cover the region (nested intervals), canonical order wins to preserve the
    one-condition-per-attribute invariant.
    """
    outside = ~region_mask(p, d)
    if outside.all():
        raise DataError(f"closure of pattern with empty region: {p.key}")
    taken = {c.attribute: c for c in p.conditions}
    for c in sorted(universe, key=lambda c: c.order):
        if c.attribute not in taken and (outside | condition_mask(c, d)).all():
            taken[c.attribute] = c
    return Pattern(taken.values())


def interclass_variance(p: Pattern, d: Dataset, y: str) -> float:
    """|D_p| (mu_D - mu_Dp)^2 + |D_not_p| (mu_D - mu_Dnotp)^2 for target y.

    Zero by convention when the region or its complement is empty.
    """
    if d.attribute(y).kind != NUMERICAL:
        raise DataError(f"interclass variance target {y!r} must be numerical")
    rows = region(p, d)
    yv = d.column(y)
    return iv_from_region(rows, yv)


def iv_from_region(rows: np.ndarray, y_values: np.ndarray) -> float:
    """Interclass variance of a region given as row indices into the full target column."""
    n = len(y_values)
    s = len(rows)
    if s == 0 or s == n:
        return 0.0
    total = float(np.sum(y_values))
    part = float(np.sum(y_values[rows]))
    mu = total / n
    mu_in = part / s
    mu_out = (total - part) / (n - s)
    return s * (mu - mu_in) ** 2 + (n - s) * (mu - mu_out) ** 2
