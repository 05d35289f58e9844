"""How the selection knobs shape the mined rule set.

The support threshold theta bounds the search; the overlap bias omega prices
redundant coverage. Sweeping each shows the size/accuracy trade-off. The
paper's HiPaR_f, which keeps every candidate, is the omega = 0 line of the
sweep; its HiPaR_sd, the top q candidates by support-to-error trade-off, is
sd_q = q.
"""

import numpy as np

from hipar import (
    AttributeSchema,
    Dataset,
    RunConfig,
    count_elements,
    enumerate_candidates,
    hipar_init,
    run_hipar,
)

rng = np.random.default_rng(5)
n = 300
district = rng.choice(["east", "west", "north"], n).astype(object)
age = rng.uniform(0, 50, n)
size = rng.uniform(30, 150, n)
slope = {"east": 2.0, "west": 3.5, "north": 1.0}
y = (
    np.array([slope[g] for g in district]) * size
    - 0.8 * age
    + rng.normal(0, 8, n)
)
data = Dataset(
    [
        AttributeSchema("district", "categorical"),
        AttributeSchema("age", "numerical"),
        AttributeSchema("size", "numerical"),
        AttributeSchema("y", "numerical", role="target"),
    ],
    {"district": district, "age": age, "size": size, "y": y},
)

print("== theta sweep: higher support thresholds shrink the candidate pool ==")
for theta in (0.05, 0.1, 0.2, 0.4):
    cfg = RunConfig(theta=theta, seed=1)
    cands = enumerate_candidates(data, hipar_init(data, cfg), cfg)
    s = cands.stats
    print(
        f"  theta {theta:4.2f}: {len(cands.rules):2d} candidates "
        f"(visited {s.visited}, support-pruned {s.pruned_support}, "
        f"iv-pruned {s.pruned_iv}, occam-rejected {s.rejected_occam})"
    )

print()
print("== omega sweep: pricier overlap means fewer, more disjoint rules ==")
for omega in (0.0, 0.5, 1.0, 2.0):
    selected, _ = run_hipar(data, RunConfig(theta=0.1, seed=1, omega=omega))
    print(
        f"  omega {omega:3.1f}: {len(selected.chosen):2d} rules, "
        f"{count_elements(selected):3d} elements, objective {selected.objective_value:8.3f}"
    )

print()
print("== top-q (sd_q) beside the solved objective ==")
for label, extra in (("solved", {}), ("sd_q=3", {"sd_q": 3})):
    selected, _ = run_hipar(data, RunConfig(theta=0.1, seed=1, **extra))
    keys = [r.key for r in selected.chosen]
    print(f"  {label:8s}: {len(keys)} rules via {selected.solver}")
    for k in keys[:4]:
        print(f"       {k}")
    if len(keys) > 4:
        print(f"       ... and {len(keys) - 4} more")
