"""Seeded synthetic tables for the benchmark workloads.

The shape of each table (columns, segments, slopes) is fixed in this file;
the seed only draws the rows. The same seed gives byte-identical CSVs.

Every segmenting level has a strong effect and every pattern's support sits
several standard deviations away from the workload's θ, so each seed visits
the same patterns and selects the same kind of rules: timings differ between
seeds by measurement noise, not by the amount of work.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Callable

import numpy as np

TARGET = "y"
DEFAULT_SEED = 1
# Never used while the benchmark was written: check a claimed gain on it too.
CONFIRMATION_SEED = 8191

Columns = dict[str, np.ndarray]


def _offsets(k: int, scale: float) -> np.ndarray:
    """Level effects that alternate in sign, so no level sits near the mean."""
    return scale * np.array([(-1) ** i * (1 + 0.25 * i) for i in range(k)], dtype=float)


def _labels(prefix: str, k: int, codes: np.ndarray) -> np.ndarray:
    return np.array([f"{prefix}{c}" for c in range(k)], dtype=object)[codes]


def mixed(rng: np.random.Generator, n: int, levels: tuple[int, ...]) -> Columns:
    """3 categorical + 6 numerical features. Every category level shifts the
    target, and the level of c0 (c1) sets the slope on x4 (x5), so the target
    is linear within each segment. x4 and x5 are integer-valued; x0..x3 are
    continuous and carry no signal, so MDLP scans them and finds no cut."""
    codes = [rng.integers(0, k, n) for k in levels]
    x = np.round(rng.uniform(0.0, 10.0, (4, n)), 3)
    z = rng.integers(0, 20, (2, n)).astype(float)
    y = (
        sum(_offsets(k, 3.0 * 2**j)[c] for j, (k, c) in enumerate(zip(levels, codes)))
        + np.linspace(-0.4, 0.4, levels[0])[codes[0]] * z[0]
        + np.linspace(0.3, -0.3, levels[1])[codes[1]] * z[1]
        + rng.normal(0.0, 1.0, n)
    )
    cols = {f"c{j}": _labels("abc"[j], k, c) for j, (k, c) in enumerate(zip(levels, codes))}
    cols.update({f"x{i}": x[i] for i in range(4)})
    cols.update({"x4": z[0], "x5": z[1]})
    cols[TARGET] = np.round(y, 4)
    return cols


def catwide(rng: np.random.Generator, n: int, levels: tuple[int, ...]) -> Columns:
    """8 categorical features plus 2 integer-valued numerical ones (20
    distinct values each). k0 and k1 set the segment means; k2..k7, n0 and n1
    carry no signal but multiply the patterns the search must close and
    compare and the regressors each local fit must consider."""
    codes = [rng.integers(0, k, n) for k in levels]
    z = rng.integers(0, 20, (2, n)).astype(float)
    y = (
        _offsets(levels[0], 4.0)[codes[0]]
        + _offsets(levels[1], 3.0)[codes[1]]
        + rng.normal(0.0, 1.0, n)
    )
    cols = {f"k{j}": _labels("v", k, c) for j, (k, c) in enumerate(zip(levels, codes))}
    cols.update({"n0": z[0], "n1": z[1]})
    cols[TARGET] = np.round(y, 4)
    return cols


@dataclass(frozen=True)
class Workload:
    name: str
    generator: Callable[[np.random.Generator, int, tuple[int, ...]], Columns]
    levels: tuple[int, ...]  # categorical level counts
    train_rows: int
    score_rows: int
    theta: float
    mine: str  # "fit" | "eval"
    single_rows: int  # single-observation predict calls per cycle
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "fit-large", mixed, (2, 3, 8), 20_000, 100_000, 0.05, "fit", 20_000,
            "20k-row fit: MDLP scans and LASSO/OMP fits on a few large regions dominate; 36 "
            "candidates, so selection runs local search; 100k-row predict",
        ),
        Workload(
            "eval-deep", mixed, (3, 4, 5), 3_000, 40_000, 0.1, "eval", 20_000,
            "10-fold eval on 3k rows: ~140 small local fits, MDLP on small regions and exact "
            "branch-and-bound on 13 candidates per fold",
        ),
        Workload(
            "cat-wide", catwide, (4, 8, 8, 8, 8, 8, 8, 8), 10_000, 40_000, 0.02, "fit", 20_000,
            "8 categorical features: closure, region and O(k^2) build_problem over 229 "
            "candidates dominate; MDLP is ~3%, so discretization changes are bypassed",
        ),
    )
}


def generate(w: Workload, seed: int) -> tuple[Columns, Columns]:
    """Training and scoring columns for one workload and seed."""
    rng = np.random.default_rng([seed, sum(map(ord, w.name))])
    return w.generator(rng, w.train_rows, w.levels), w.generator(rng, w.score_rows, w.levels)


def write_table(cols: Columns, path: str, with_target: bool = True) -> None:
    names = [c for c in cols if with_target or c != TARGET]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        writer.writerows(zip(*(cols[c].tolist() for c in names)))
