"""One-off study: the four structural orderings of the estimator's mean
absolute deviation under the shipped defaults (unit-DC-gain geometric
filter, exchangeable(0.5) innovations, d=2, quadform argmax). Each cell is
one `experiments.run_cell` call that estimates on all 30 replications."""

import numpy as np

from mvcusum.critical import default_table
from mvcusum.experiments import ExperimentCell, run_cell
from mvcusum.simulate import SimulationSpec, exchangeable_cov

REPS = 30


def cell(T, m, delta, k_star, seed0=1000):
    spec = SimulationSpec(d=2, T=T, m=m, innovation_cov=exchangeable_cov(2, 0.5),
                          delta=np.asarray(delta, float), k_star=k_star, seed=seed0)
    row = run_cell(ExperimentCell("ordering", spec, REPS), 0.05, default_table(),
                   always_estimate=True)
    assert not row.failures, row.failures
    return row.abs_deviation


weak = (0.5, 0.2)
strong = (0.5, 1.2)

a = cell(8000, 10, weak, 0.5)
b = cell(8000, 20, weak, 0.5)
print(f"m=10 vs m=20   (weak, T/2, 8000): {a:8.1f} vs {b:8.1f}   increases: {b > a}")

c = cell(8000, 10, strong, 0.5)
print(f"weak vs strong (m=10, T/2, 8000): {a:8.1f} vs {c:8.1f}   decreases: {c < a}")

d = cell(8000, 10, weak, 0.2)
print(f"T/2 vs T/5     (weak, m=10, 8000): {a:8.1f} vs {d:8.1f}   worsens:  {d > a}")

e = cell(16000, 10, weak, 0.5)
print(f"T=8000 vs 16000 (weak, m=10, T/2): {a:8.1f} vs {e:8.1f}   improves: {e < a}")
