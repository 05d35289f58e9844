"""Conditions, patterns and regions: membership, support, closure, interclass variance.

Membership is decided in one place per condition kind: ``mask`` takes either one
observation's value (a Python scalar) or a whole column (a float array, or a
categorical ``data.CodedColumn``, where equality is one integer compare), so
mining and prediction apply the same rule.

A condition's row set is computed once per dataset, as its rows packed into
64-bit words (``condition_bits``; ``np.packbits`` order, padding bits zero);
row indices and supports are read off those bits. ``condition_bits`` is the
one gate for a condition evaluated on a table: it rejects a condition on the
target or on an attribute of the wrong kind. The search's set algebra
runs on them through one kernel: a ``Universe`` stacks its conditions' bits, in
canonical order, as one matrix U. The supports of a region's extensions are
popcounts of ``U[ext] & region``, and the conditions that hold on every row of
a region are the rows of U with no bit in ``region & ~U``. ``Universe.close``
takes the first such condition per attribute; ``closure`` and the search both
close through it.

Identity is exact: equal conditions or patterns are the same, and memos, visited
sets and ebar maps are keyed by them. So is order: a condition's ``order`` is
(attribute, 0, value) for an equality and (attribute, 1, lo, hi) for an
interval, a pattern's the tuple of its conditions' orders, and two distinct ones
never tie. The canonical order, the selection tie-break and the voter order read
them; the ``%.6g`` text is for output, traces and messages only.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .data import CATEGORICAL, NUMERICAL, AttributeSchema, DataError, Dataset


@dataclass(frozen=True)
class Equals:
    """Categorical equality condition ``attr = value``."""

    attribute: str
    value: str
    order: tuple = field(init=False, repr=False, compare=False)  # (attribute, 0, value)

    def __post_init__(self):
        if not isinstance(self.value, str):  # else 1 and "1" would share a text
            raise DataError(f"equality value must be a string, got {self.value!r}")
        object.__setattr__(self, "order", (self.attribute, 0, self.value))

    def render(self) -> str:
        return f'{self.attribute}="{self.value}"'

    def mask(self, values):
        return values == self.value


@dataclass(frozen=True)
class Interval:
    """Numerical membership condition with half-open semantics lo <= v < hi.

    lo = -inf / hi = +inf encode unbounded sides. The three rendered shapes,
    (-inf,a), [a,b) and [b,inf), state that membership; ``mask`` decides it.
    """

    attribute: str
    lo: float
    hi: float
    order: tuple = field(init=False, repr=False, compare=False)  # (attribute, 1, lo, hi)

    def __post_init__(self):
        if not self.lo < self.hi:
            raise DataError(f"interval bounds must satisfy lo < hi, got [{self.lo}, {self.hi})")
        object.__setattr__(self, "order", (self.attribute, 1, self.lo, self.hi))

    def render(self) -> str:
        if self.lo == -math.inf:
            return f"{self.attribute} in (-inf,{self.hi:.6g})"
        if self.hi == math.inf:
            return f"{self.attribute} in [{self.lo:.6g},inf)"
        return f"{self.attribute} in [{self.lo:.6g},{self.hi:.6g})"

    def mask(self, values):
        return (self.lo <= values) & (values < self.hi)


Condition = Union[Equals, Interval]


class Pattern:
    """Conjunction of conditions, at most one per attribute and in attribute
    order; the empty pattern matches everything and renders as TRUE."""

    __slots__ = ("conditions", "order", "_hash")

    def __init__(self, conditions: Iterable[Condition] = ()):
        conds = tuple(sorted(conditions, key=lambda c: c.attribute))
        attrs = [c.attribute for c in conds]
        if len(set(attrs)) != len(attrs):
            raise DataError("pattern holds more than one condition on an attribute")
        object.__setattr__(self, "conditions", conds)
        object.__setattr__(self, "order", tuple(c.order for c in conds))
        # memos and visited sets hash a pattern many times; its conditions never change
        object.__setattr__(self, "_hash", hash(conds))

    def __setattr__(self, *a):  # immutable
        raise AttributeError("Pattern is immutable")

    def __eq__(self, other):
        return isinstance(other, Pattern) and self.conditions == other.conditions

    def __hash__(self):
        return self._hash

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
        """The pattern's text, for output, traces and messages only."""
        return " & ".join(c.render() for c in self.conditions) or "TRUE"

    key = property(render)

    def mask(self, columns: Mapping[str, object]):
        """AND of the conditions' masks over one observation or over columns;
        True for the empty pattern."""
        out = True
        for c in self.conditions:
            out = out & c.mask(columns[c.attribute])
        return out


TOP = Pattern()


def check_condition(c: Condition, attr: AttributeSchema) -> None:
    """A condition tests a feature, never the target; equality needs a
    categorical attribute, an interval a numerical one."""
    if attr.role != "feature":
        raise DataError(f"condition on {c.attribute!r}, which is not a feature")
    if isinstance(c, Equals) and attr.kind != CATEGORICAL:
        raise DataError(f"equality condition on non-categorical attribute {c.attribute!r}")
    if isinstance(c, Interval) and attr.kind != NUMERICAL:
        raise DataError(f"interval condition on non-numerical attribute {c.attribute!r}")


def condition_tids(c: Condition, d: Dataset) -> np.ndarray:
    """Sorted row indices where the condition holds."""
    return bits_rows(condition_bits(c, d), d.n)


def _packed(mask: np.ndarray) -> np.ndarray:
    """A row mask as ``np.packbits`` bits in 64-bit words, padding bits zero."""
    out = np.zeros(-(-len(mask) // 64) * 8, dtype=np.uint8)
    out[: -(-len(mask) // 8)] = np.packbits(mask)
    return out.view(np.uint64)


def condition_bits(c: Condition, d: Dataset) -> np.ndarray:
    """Read-only packed row bits of the condition, computed once per dataset."""
    bits = d.bits.get(c)
    if bits is None:
        check_condition(c, d.attribute(c.attribute))
        bits = _packed(c.mask(d.column(c.attribute)))
        bits.flags.writeable = False
        d.bits[c] = bits
    return bits


def pattern_bits(p: Pattern, d: Dataset) -> np.ndarray:
    """Packed row bits of the pattern's region (every row for the empty
    pattern), as a new array."""
    if p.is_empty:
        return _packed(np.ones(d.n, dtype=bool))
    bits = condition_bits(p.conditions[0], d).copy()
    for c in p.conditions[1:]:
        bits &= condition_bits(c, d)
    return bits


def bits_rows(bits: np.ndarray, n: int) -> np.ndarray:
    """Sorted row indices of packed row bits over n rows."""
    # unpacked bits are 0/1 bytes; nonzero is several times faster on bool
    return np.flatnonzero(np.unpackbits(bits.view(np.uint8), count=n).view(bool))


def region(p: Pattern, d: Dataset) -> np.ndarray:
    """Sorted row indices of the pattern's region (all rows for the empty pattern)."""
    return bits_rows(pattern_bits(p, d), d.n)


def support(p: Pattern, d: Dataset) -> tuple[int, float]:
    """(absolute, relative) support of the pattern on the dataset."""
    s = int(np.bitwise_count(pattern_bits(p, d)).sum())
    return s, s / d.n


class Universe(Sequence):
    """The distinct conditions of a closure universe in canonical order, with
    their packed row bits on one dataset stacked as one matrix (row i holds
    ``conditions[i]``). Build it once and close every pattern over it."""

    def __init__(self, conditions: Iterable[Condition], d: Dataset):
        self.dataset = d
        self.conditions = sorted(set(conditions), key=lambda c: c.order)
        self.row = {c: i for i, c in enumerate(self.conditions)}
        self.equals = np.array([isinstance(c, Equals) for c in self.conditions], dtype=bool)
        self.bits = np.array([condition_bits(c, d) for c in self.conditions], dtype=np.uint64)
        self.bits.shape = (len(self.conditions), -(-d.n // 64))
        self._outside = ~self.bits

    def __len__(self) -> int:
        return len(self.conditions)

    def __getitem__(self, i):
        return self.conditions[i]

    def rows(self, conds: Iterable[Condition]) -> np.ndarray:
        """The universe rows of the conditions, in their order."""
        return np.array([self.row[c] for c in conds], dtype=np.intp)

    def extensions(self, rows: np.ndarray, inside: np.ndarray):
        """Region bits of ``inside`` AND the condition of each universe row (one
        row per condition) and their supports."""
        bits = self.bits[rows] & inside
        return bits, np.bitwise_count(bits).sum(axis=1, dtype=np.int64)

    def covering(self, inside: np.ndarray) -> np.ndarray:
        """Per condition, whether it holds on every row of the region ``inside``."""
        return ~(inside & self._outside).any(axis=1)

    def close(self, conditions: Sequence[Condition],
              inside: np.ndarray) -> tuple[Pattern, np.ndarray]:
        """The closed pattern of the nonempty region ``inside``, which the
        ``conditions`` define, and the region's ``covering`` vector.

        The pattern keeps the conditions it starts from and adds, per other
        attribute, the first covering condition in canonical order. Distinct
        equalities on one attribute hold on disjoint rows, so a categorical
        universe condition is in the closed pattern exactly when it covers the
        region."""
        covering = self.covering(inside)
        taken = {c.attribute: c for c in conditions}
        for i in np.flatnonzero(covering).tolist():
            c = self.conditions[i]
            taken.setdefault(c.attribute, c)
        return Pattern(taken.values()), covering


def closure(p: Pattern, d: Dataset, universe: Sequence[Condition]) -> Pattern:
    """Closed pattern of p's region relative to an explicit condition universe.

    Adds every universe condition that holds on every row of the region; the
    region is unchanged and the operation is idempotent. Raises on an empty
    region. Should a universe carry two conditions on one attribute that both
    cover the region (nested intervals), canonical order wins to preserve the
    one-condition-per-attribute invariant. ``universe`` may be a ``Universe``
    built on ``d``, which spares rebuilding its bit matrix. The search closes
    its extensions through the same ``Universe.close``.
    """
    inside = pattern_bits(p, d)
    if not inside.any():
        raise DataError(f"closure of pattern with empty region: {p.key}")
    if not (isinstance(universe, Universe) and universe.dataset is d):
        universe = Universe(universe, d)
    return universe.close(p.conditions, inside)[0]


def interclass_variance(p: Pattern, d: Dataset) -> float:
    """|D_p| (mu_D - mu_Dp)^2 + |D_not_p| (mu_D - mu_Dnotp)^2, with mu the mean
    of the dataset's target (``d.target``) over D, the region and the rest.

    Zero by convention when the region or its complement is empty.
    """
    return iv_from_region(region(p, d), d.column(d.target))


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
