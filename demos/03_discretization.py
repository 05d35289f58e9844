"""How numerical attributes become interval conditions.

The dataset's target (the attribute its schema gives the target role) is
split at its median into large-value / small-value classes and each numerical
attribute is partitioned by recursive minimum-entropy cuts, accepted under the
MDL stopping criterion. Attributes that carry no class signal produce no cuts
at all.
"""

import numpy as np

from hipar import (
    AttributeSchema,
    Dataset,
    RunConfig,
    binarize_target,
    conditions_from_cuts,
    hipar_init,
    mdlp_cuts,
)

rng = np.random.default_rng(0)
n = 120

# "informative" separates low and high targets; "noise" is independent of them
informative = np.concatenate([rng.uniform(0, 4, n // 2), rng.uniform(6, 10, n // 2)])
noise = rng.uniform(0, 10, n)
y = np.concatenate([rng.normal(20, 1, n // 2), rng.normal(80, 1, n // 2)])

data = Dataset(
    [
        AttributeSchema("informative", "numerical"),
        AttributeSchema("noise", "numerical"),
        AttributeSchema("y", "numerical", role="target"),
    ],
    {"informative": informative, "noise": noise, "y": y},
)

labels = binarize_target(range(n), data)
print(f"target median threshold: {labels.threshold:.2f}")
print(f"large-value rows: {int(labels.labels.sum())} / {n}")

print()
for cuts in mdlp_cuts(["informative", "noise"], data, labels):
    print(f"{cuts.attribute}: cuts = {[round(c, 3) for c in cuts.cuts]}")
    for cond in conditions_from_cuts(cuts):
        print(f"   {cond.render()}")

print()
print("== bootstrap conditions at theta = 0.2 ==")
for cond in hipar_init(data, RunConfig(theta=0.2, seed=0)):
    print(f"   {cond.render()}")
