"""Study: the test's null rejection rate at the default bandwidth
h = floor(T^(1/4)), the table of README §"Size at finite h".

Each cell is one `experiments.run_cell` call, the seeded replication loop
that `bench` runs: R iid N(0, I_d) series, ``SimulationSpec(d, T, m=0,
rho=0.0, seed=r)`` for r = 0..R-1, each tested with `engine.test` at 5%;
the share that reject is printed. R is 1,000 for d in {1, 5} and 500
otherwise, so one standard error at 5% is 0.7-1.0 points. The critical
values come from the shipped table, whose entries sit a little below the
exact quantiles of the limit law, so the rates here read 0-1.6 points
above the README's, which were measured against the exact ones.

Seeded and deterministic; about 30-45 s on a 2-core host. Run from the
repository root:

    PYTHONPATH=src python scripts/size_study.py
"""

import time

from mvcusum.critical import default_table
from mvcusum.experiments import ExperimentCell, run_cell
from mvcusum.simulate import SimulationSpec
from mvcusum.spectral import default_bandwidth

ALPHA = 0.05
COLUMNS = (250, 1000, 3000, 8000, "last")
LAST = {1: 32000, 5: 32000, 10: 20000}  # the last column's T for each d
CELLS = {  # d -> the T measured
    1: (250, 1000, 8000, 32000),
    2: (250, 1000, 3000),
    3: (250, 1000, 3000),
    5: (250, 1000, 8000, 32000),
    10: (1000, 3000, 8000, 20000),
}


def rejection_rate(d, T, reps, table):
    cell = ExperimentCell("null", SimulationSpec(d, T, m=0, rho=0.0), reps)
    row = run_cell(cell, ALPHA, table)
    assert not row.failures, row.failures
    return row.reject_count / reps


def main():
    table = default_table()
    head = ["d ", "T = 250 (h 3)", "T = 1000 (h 5)", "T = 3000 (h 7)",
            "T = 8000 (h 9)", "T = 20000-32000 (h 11-13)"]
    print("| " + " | ".join(head) + " |")
    print("| " + " | ".join("-" * len(h) for h in head) + " |")
    start = time.perf_counter()
    for d, Ts in CELLS.items():
        reps = 1000 if d in (1, 5) else 500
        row = [f"{d:<2}"]
        for col, h in zip(COLUMNS, head[1:]):
            T = LAST.get(d) if col == "last" else col
            cell = "—"
            if T in Ts:
                cell = f"{100 * rejection_rate(d, T, reps, table):.1f}%"
                if col == "last":
                    cell += f" (T {T}, h {default_bandwidth(T)})"
            row.append(cell.ljust(len(h)))
        print("| " + " | ".join(row) + " |", flush=True)
    print(f"alpha={ALPHA}  seeds 0..R-1  took {time.perf_counter() - start:.0f} s")


if __name__ == "__main__":
    main()
