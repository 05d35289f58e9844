"""Mine hybrid rules from a six-row real-estate table.

Walks the core vocabulary on data small enough to check by hand: conditions,
patterns, regions, support, closure, interclass variance, then a full fit.
The schema's target role names the target, price; no call below repeats it.
"""

import numpy as np

from hipar import (
    AttributeSchema,
    Dataset,
    Equals,
    Interval,
    Pattern,
    RunConfig,
    closure,
    interclass_variance,
    predict,
    run_hipar,
    support,
)

rows = {
    "property-type": np.array(
        ["cottage", "cottage", "cottage", "apartment", "apartment", "apartment"], dtype=object
    ),
    "state": np.array(
        ["very good", "very good", "excellent", "excellent", "good", "good"], dtype=object
    ),
    "rooms": np.array([5.0, 3, 3, 5, 4, 3]),
    "surface": np.array([120.0, 55, 50, 85, 52, 45]),
    "price": np.array([510.0, 410, 350, 320, 140, 125]),  # thousands
}
table = Dataset(
    [
        AttributeSchema("property-type", "categorical"),
        AttributeSchema("state", "categorical"),
        AttributeSchema("rooms", "numerical"),
        AttributeSchema("surface", "numerical"),
        AttributeSchema("price", "numerical", role="target"),
    ],
    rows,
)

print("== patterns and regions ==")
small_cottages = Pattern(
    [Equals("property-type", "cottage"), Interval("surface", float("-inf"), 60.0)]
)
print(f"pattern: {small_cottages.render()}")
print("support:", support(small_cottages, table))

print()
print("== closure: the maximal description of a region ==")
cheap = Pattern([Equals("state", "good")])
universe = [
    Equals("property-type", "cottage"),
    Equals("property-type", "apartment"),
    Equals("state", "good"),
    Equals("state", "very good"),
    Equals("state", "excellent"),
]
print(f"cl({cheap.render()}) = {closure(cheap, table, universe).render()}")
print("interclass variance of state=good:", round(interclass_variance(cheap, table), 2))

print()
print("== end-to-end fit ==")
selected, predictor = run_hipar(table, RunConfig(theta=1 / 3, seed=0))
for rule in selected.chosen:
    model = rule.fitted.model
    print(f"  {rule.pattern.render()}  =>  intercept {model.intercept:.1f}, "
          f"coefficients {model.coefficients}  (support {rule.support_abs})")

print()
print("== predicting a new listing ==")
listing = {"property-type": "cottage", "state": "excellent", "rooms": 4.0, "surface": 70.0}
print("predicted price:", round(predict(predictor, listing), 1), "k")
