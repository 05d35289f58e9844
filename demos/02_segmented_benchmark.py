"""Cross-validated benchmark on data a single linear model cannot fit.

Two clean linear regimes hide behind a categorical switch; the global baseline
is forced to average them while per-segment rules recover each slope. Reports
the per-fold error reductions and the mined rule sets.
"""

import numpy as np

from hipar import (
    AttributeSchema,
    Dataset,
    RunConfig,
    count_elements,
    cross_validate,
    render_model,
    run_hipar,
)

rng = np.random.default_rng(7)
n = 200
segment = np.array(["A"] * (n // 2) + ["B"] * (n // 2), dtype=object)
x = rng.uniform(0.0, 1.0, n)
clean = np.where(segment == "A", 1.0 + 2.0 * x, 10.0 - 3.0 * x)
noise = 0.05 * (clean.max() - clean.min())
y = clean + rng.normal(0.0, noise, n)

data = Dataset(
    [
        AttributeSchema("segment", "categorical"),
        AttributeSchema("x", "numerical"),
        AttributeSchema("y", "numerical", role="target"),
    ],
    {"segment": segment, "x": x, "y": y},
)

cfg = RunConfig(theta=0.2, seed=3, folds=10)

print("== 10-fold cross-validation vs. the global linear baseline ==")
report = cross_validate(data, cfg)
for fold in report.folds:
    print(
        f"  fold {fold.fold}: baseline {fold.baseline_error:6.3f}  "
        f"model {fold.model_error:6.3f}  reduction {fold.reduction:5.1f}%  "
        f"({fold.rules} rules, {fold.elements} elements)"
    )
print(f"mean RMSE reduction: {report.mean_reduction:.1f}%")

print()
print("== the rules on all 200 rows ==")
selected, predictor = run_hipar(data, cfg)
for rule in selected.chosen:
    print(f"  if {rule.pattern.render()}:  {render_model(rule.fitted.model, data.target)}")
print(f"default falls back to: intercept {predictor.default_rule.fitted.model.intercept:.2f}")
print(f"total elements: {count_elements(selected)}")
