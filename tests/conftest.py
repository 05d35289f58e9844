import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from hipar import AttributeSchema, Dataset, load_csv  # noqa: E402

TOY_CSV = """property-type,state,rooms,surface,price
cottage,very good,5,120,510
cottage,very good,3,55,410
cottage,excellent,3,50,350
apartment,excellent,5,85,320
apartment,good,4,52,140
apartment,good,3,45,125
"""


@pytest.fixture
def toy_csv(tmp_path):
    path = tmp_path / "toy.csv"
    path.write_text(TOY_CSV)
    return str(path)


@pytest.fixture
def toy(toy_csv):
    """The six-row real-estate table used throughout the micro tests."""
    return load_csv(toy_csv, target="price")


def observation(d: Dataset, i: int) -> dict[str, object]:
    """Row i of a Dataset as the observation dict ``predict`` and
    ``Pattern.mask`` take: numerical cells as floats, categorical ones as str."""
    return {a.name: float(d.column(a.name)[i]) if a.kind == "numerical" else d.column(a.name)[i]
            for a in d.schema}


def make_two_segment(n=200, noise_frac=0.05, seed=7) -> Dataset:
    """Synthetic benchmark: categorical switch with two clean linear segments.

    y = 1 + 2x on segment A and y = 10 - 3x on segment B, plus gaussian noise
    with sigma = noise_frac * range(y).
    """
    rng = np.random.default_rng(seed)
    seg = np.array(["A"] * (n // 2) + ["B"] * (n - n // 2), dtype=object)
    x = rng.uniform(0.0, 1.0, n)
    base = np.where(seg == "A", 1.0 + 2.0 * x, 10.0 - 3.0 * x)
    sigma = noise_frac * (base.max() - base.min())
    y = base + rng.normal(0.0, sigma, n)
    return Dataset(
        [
            AttributeSchema("segment", "categorical"),
            AttributeSchema("x", "numerical"),
            AttributeSchema("y", "numerical", role="target"),
        ],
        {"segment": seg, "x": x, "y": y},
    )


def make_catwide(n: int, seed: int) -> Dataset:
    """8 categorical features and 2 integer-valued numerical ones, as in the
    cat-wide benchmark: k0 and k1 set the segment means, the rest carry no signal."""
    rng = np.random.default_rng(seed)
    levels = (4, 8, 8, 8, 8, 8, 8, 8)
    codes = [rng.integers(0, k, n) for k in levels]
    z = rng.integers(0, 20, (2, n)).astype(float)
    y = 4.0 * (-1.0) ** codes[0] + 3.0 * (-1.0) ** codes[1] + rng.normal(0.0, 1.0, n)
    schema = [AttributeSchema(f"k{j}", "categorical") for j in range(len(levels))]
    schema += [AttributeSchema("n0", "numerical"), AttributeSchema("n1", "numerical"),
               AttributeSchema("y", "numerical", role="target")]
    columns = {f"k{j}": np.array([f"v{c}" for c in cs], dtype=object) for j, cs in enumerate(codes)}
    columns.update({"n0": z[0], "n1": z[1], "y": np.round(y, 4)})
    return Dataset(schema, columns)


def make_lockstep_table(rng, n: int) -> Dataset:
    """Two categorical features and a numerical one: the target shifts with
    c0="p" and steps at x < 0.5 inside it, slopes in x outside, and shifts
    with c1="u", so folds search to different depths."""
    c0 = rng.choice(np.array(["p", "q", "r"], dtype=object), n)
    c1 = rng.choice(np.array(["u", "v"], dtype=object), n)
    x = rng.uniform(0.0, 1.0, n)
    y = (np.where(c0 == "p", 3.0 + 4.0 * (x < 0.5), 2.0 * x) + np.where(c1 == "u", 2.0, 0.0)
         + rng.normal(0.0, 0.3, n))
    return Dataset([AttributeSchema("c0", "categorical"), AttributeSchema("c1", "categorical"),
                    AttributeSchema("x", "numerical"), AttributeSchema("y", "numerical",
                                                                       role="target")],
                   {"c0": c0, "c1": c1, "x": x, "y": y})


# make_catwide's columns with the target first and the numerical features
# between the categorical ones, in their relative order
CATWIDE_TARGET_FIRST = ("y", "k0", "k1", "k2", "n0", "k3", "k4", "n1", "k5", "k6", "k7")


def reordered(d: Dataset, names) -> Dataset:
    """The table d with its schema in the order of ``names``."""
    return Dataset([d.attribute(n) for n in names], {n: d.column(n) for n in names})


@pytest.fixture
def two_segment():
    return make_two_segment()
