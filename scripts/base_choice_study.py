"""One-off study: estimator deviation and test power for the two candidate
default filter bases (identity vs unit-DC-gain (1-rho)*I), at the shipped
dependent-model defaults T=8000, m=10, rho=0.5, T/2 break, d=2,
exchangeable(0.5) innovations, 30 reps each, quadform argmax estimator.

Prints mean |T_hat - T*| (all reps), per-config timing, plus the test
statistic range so power at alpha=0.05 can be judged once the critical
table exists (d=2 5% value is ~2.0-2.2; we report rejections against the
analytic-free placeholder 2.2 and against 1.8444 for reference).
"""

import time

import numpy as np

from mvcusum.engine import estimate_changepoint, studentize
from mvcusum.simulate import SimulationSpec, exchangeable_cov, gen_series

REPS = 30
T = 8000
RHO = 0.5


def run(base, delta, label):
    devs = []
    stats = []
    t0 = time.time()
    for rep in range(REPS):
        spec = SimulationSpec(
            d=2,
            T=T,
            m=10,
            rho=RHO,
            base=base,
            innovation_cov=exchangeable_cov(2, 0.5),
            delta=np.asarray(delta, float),
            k_star=0.5,
            seed=1000 + rep,
        )
        series, t_star = gen_series(spec)
        curve = studentize(series)[1]
        stats.append(curve.q.max())
        est = estimate_changepoint(curve, method="quadform_argmax")
        devs.append(abs(est.t_hat - t_star))
    dt = time.time() - t0
    devs = np.array(devs, float)
    stats = np.array(stats)
    print(
        f"{label:34s} mean|dev|={devs.mean():8.1f}  med={np.median(devs):7.1f} "
        f"max={devs.max():7.0f}  stat[min/med]={stats.min():6.2f}/{np.median(stats):6.2f} "
        f"rej@2.2={int((stats > 2.2).sum()):2d}/30  ({dt:5.1f}s)"
    )
    return devs


for base, base_label in [(np.eye(2), "base=I"), (0.5 * np.eye(2), "base=(1-rho)I")]:
    for delta in [(0.5, 1.2), (0.5, 0.2)]:
        run(base, delta, f"{base_label:14s} delta={delta}")
