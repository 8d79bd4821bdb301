"""Benchmark of the mvcusum command-line pipeline.

Run from the root of a checkout (needs ``src/mvcusum`` and
``BENCHMARK.json``):

    python3 perfbench/run.py --workload detect_1m --seed 1 --seconds 20 --trace 0

One run of a workload, all from this single-threaded process:

1. Generate the workload's input from ``--seed`` (``inputs.py``).  The file
   is written and flushed just before timing, so it sits in the page cache.
2. Time ``import mvcusum; mvcusum.default_table()`` in fresh interpreters,
   several times: ``setup_s`` is their median.  These also bring the
   interpreter, numpy, scipy and the package into the page cache, which is
   why no separate warm-up pass runs.
3. Run passes of the workload's commands back to back (a closed loop with
   one client), each command as ``python -m mvcusum ...`` in a fresh
   subprocess, until ``--seconds`` have passed; ``wall_s``, ``cpu_s`` and
   ``peak_rss_mb`` are medians over these passes.  Each child is reaped with
   ``os.wait4``, so CPU time and peak RSS are its own.
4. With ``--trace 1``, run one more pass with every command under
   ``traced.py`` and report the per-layer metrics instead.

Every command's output is checked (``workloads.py``), and the sha256 of its
stdout and of each file it writes is compared with the first pass; a
failed check or a changed digest is a failed operation.  The last line of
stdout is the result as JSON; the line before it is the full record
(machine, inputs, digests, per-pass figures).  Metric names and units come
from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import numpy as np

import inputs
import traced
from workloads import GRID_D, GRID_T, WORKLOADS, Outcome

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 3
IMPORTTIME_SAMPLES = 3
INPUT_D = 5
# A run must end well within the 180 s a single run may take.
RUN_DEADLINE_S = 165.0
# Environment recorded as found; the children inherit it unchanged.
RECORDED_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "GOTO_NUM_THREADS",
                "PYTHONDONTWRITEBYTECODE")


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _read(path) -> str | None:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def llc_bytes() -> int | None:
    """Size of the highest-level cache of cpu0, from sysfs."""
    best = None
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, size = _read(index / "level"), _read(index / "size")
        m = re.fullmatch(r"(\d+)([KMG]?)", size or "")
        if level and m:
            nbytes = int(m.group(1)) * {"": 1, "K": 1 << 10, "M": 1 << 20,
                                        "G": 1 << 30}[m.group(2)]
            if best is None or int(level) >= best[0]:
                best = (int(level), nbytes)
    return best[1] if best else None


def machine_record(llc: int | None) -> dict:
    model = None
    cpuinfo = _read("/proc/cpuinfo") or ""
    m = re.search(r"^model name\s*:\s*(.+)$", cpuinfo, re.MULTILINE)
    if m:
        model = m.group(1)
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "llc_bytes": llc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "env": {k: os.environ.get(k) for k in RECORDED_ENV},
    }


class Runner:
    """Runs commands as child processes and keeps the operation tally."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.outdir = work / "out"
        self.deadline = deadline
        self.env = dict(os.environ)
        src = str(ROOT / "src")
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src + (os.pathsep + old if old else "")
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def count(self, attempted, failed, problems, where):
        self.attempted += attempted
        self.failed += failed
        self.problems += [f"{where}: {p}" for p in problems]

    def spawn(self, argv, cwd: Path):
        """Run one child to completion; return (exit code, stdout, wall s,
        cpu s, peak RSS MB).  A child still running at the deadline is
        killed."""
        stdout_path, stderr_path = self.work / "stdout", self.work / "stderr"
        with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=cwd, env=self.env, stdout=out,
                                    stderr=err)
            timer = threading.Timer(max(1.0, self.deadline - time.monotonic()),
                                    proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        text = stdout_path.read_text(encoding="utf-8", errors="replace")
        if code != 0:
            tail = stderr_path.read_text(encoding="utf-8", errors="replace")
            text += "".join(f"\n# stderr: {line}" for line in tail.splitlines()[-3:])
        cpu = usage.ru_utime + usage.ru_stime
        return code, text, wall, cpu, usage.ru_maxrss * 1024 / 1e6

    def output_digests(self) -> dict:
        return {str(p.relative_to(self.outdir)): sha256_file(p)
                for p in sorted(self.outdir.rglob("*")) if p.is_file()}

    def run_pass(self, commands, ctx, label, reference=None, trace=False):
        """Run every command once, in a fresh output directory."""
        shutil.rmtree(self.outdir, ignore_errors=True)
        self.outdir.mkdir()
        result = {"wall_s": 0.0, "cpu_s": 0.0, "peak_rss_mb": 0.0,
                  "digests": {}, "spans": []}
        for cmd in commands:
            if trace:
                spans_path = self.work / f"spans-{cmd.name}.json"
                argv = [sys.executable, str(HERE / "traced.py"), str(spans_path),
                        "--", *cmd.argv]
            else:
                argv = [sys.executable, "-m", "mvcusum", *cmd.argv]
            before = self.output_digests()
            code, text, wall, cpu, rss = self.spawn(argv, self.outdir)
            result["wall_s"] += wall
            result["cpu_s"] += cpu
            result["peak_rss_mb"] = max(result["peak_rss_mb"], rss)
            files = {k: v for k, v in self.output_digests().items()
                     if before.get(k) != v}
            digests = {"stdout": hashlib.sha256(text.encode()).hexdigest(),
                       "files": files}
            result["digests"][cmd.name] = digests

            checked = cmd.check(Outcome(code, text, self.outdir), ctx)
            attempted, failed, problems = (
                checked if isinstance(checked, tuple)
                else (1, int(bool(checked)), checked))
            if reference is not None and reference["digests"].get(cmd.name) != digests:
                problems = problems + ["output digest differs from the first pass"]
                failed = max(failed, 1)
            self.count(attempted, failed, problems, f"{label} {cmd.name}")
            if trace and code == 0:
                result["spans"].append(json.loads(spans_path.read_text()))
        return result

    def probe(self, argv, label):
        """Run a short child in the work directory; return its wall time."""
        code, _, wall, _, _ = self.spawn(argv, self.work)
        self.count(1, int(code != 0), [f"exit code {code}"] if code else [], label)
        return wall

    def setup_samples(self, n):
        """Wall time of a fresh interpreter importing the package and loading
        the shipped critical-value table."""
        argv = [sys.executable, "-c", "import mvcusum; mvcusum.default_table()"]
        return [self.probe(argv, f"setup {i}") for i in range(n)]

    def import_times(self, n):
        """Cumulative import time (s) of mvcusum and scipy.signal, from
        ``python -X importtime``; a module never imported counts as 0."""
        argv = [sys.executable, "-X", "importtime", "-c", "import mvcusum"]
        samples = {"mvcusum": [], "scipy.signal": []}
        for i in range(n):
            self.probe(argv, f"importtime {i}")
            found = {}
            for line in (self.work / "stderr").read_text().splitlines():
                parts = [p.strip() for p in line.split("|")]
                if len(parts) == 3 and parts[2] in samples:
                    found[parts[2]] = int(parts[1]) / 1e6
            for name, values in samples.items():
                values.append(found.get(name, 0.0))
        return {name: statistics.median(v) for name, v in samples.items()}


def layer_metrics(span_lists) -> dict:
    """Per-function calls, inclusive seconds (s), self seconds (s minus the
    time covered by child spans) and per-call stats, over all commands."""
    agg = {}
    for spans in span_lists:
        child_ns = [0] * len(spans)
        for name, t0, t1, parent, _ in spans:
            if parent >= 0:
                child_ns[parent] += t1 - t0
        for i, (name, t0, t1, parent, stats) in enumerate(spans):
            a = agg.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            a["calls"] += 1
            a["s"] += (t1 - t0) / 1e9
            a["self_s"] += (t1 - t0 - child_ns[i]) / 1e9
            for stat, value in stats.items():
                if stat in traced.MAX_STATS:
                    a[stat] = max(a.get(stat, value), value)
                else:
                    a[stat] = a.get(stat, 0) + value
    known = {f"{layer}.{fn}.{stat}" for layer, fns in traced.LAYERS.items()
             for fn in fns for stat in traced.SPAN_STATS}
    known |= {f"{fn}.{stat}" for fn, stat in traced.CALL_STATS}
    known |= {f"{fn}.peak_mb" for fn in traced.PEAK_MEMORY}
    out = dict.fromkeys(known, 0)
    out.update({f"{fn}.{stat}": v for fn, a in agg.items() for stat, v in a.items()})
    return out


def make_inputs(workload, seed, work: Path, llc):
    """Write the workload's generated input; return (check context, record)."""
    if workload.input_T is None:
        ctx = {"T": GRID_T, "d": GRID_D}
        return ctx, {"grid": "shipped table1",
                     **inputs.sizes(GRID_T, GRID_D, llc)}
    record = inputs.make_input(work / "in.csv", workload.input_T, INPUT_D, seed, llc)
    ctx = {"T": workload.input_T, "d": INPUT_D, "break_rows": record["break_rows"]}
    return ctx, record


def declared_metrics(section, values):
    """The metrics BENCHMARK.json declares in ``section``, with its units;
    each must be one the benchmark measures."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())[section]
    missing = [m["name"] for m in spec if m["name"] not in values]
    if missing:
        raise SystemExit(f"BENCHMARK.json {section} names unmeasured metrics: "
                         f"{missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}


def run(args) -> tuple[dict, dict]:
    workload = WORKLOADS[args.workload]
    commands = workload.commands(args.seed)
    llc = llc_bytes()
    started = time.monotonic()
    (HERE / ".work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=HERE / ".work"))
    try:
        runner = Runner(work, started + RUN_DEADLINE_S)
        ctx, input_record = make_inputs(workload, args.seed, work, llc)
        setup = runner.setup_samples(SETUP_SAMPLES)
        passes = []
        t0 = time.monotonic()
        while not passes or (time.monotonic() - t0 < args.seconds
                             and time.monotonic() + passes[-1]["wall_s"]
                             < runner.deadline):
            passes.append(runner.run_pass(commands, ctx, f"pass {len(passes)}",
                                          reference=passes[0] if passes else None))
        wall = statistics.median(p["wall_s"] for p in passes)
        record = {
            "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
            "machine": machine_record(llc), "input": input_record,
            "setup_samples_s": setup,
            "passes": [{k: p[k] for k in ("wall_s", "cpu_s", "peak_rss_mb")}
                       for p in passes],
            "digests": passes[0]["digests"],
        }
        if args.trace:
            traced_pass = runner.run_pass(commands, ctx, "traced",
                                          reference=passes[0], trace=True)
            values = layer_metrics(traced_pass["spans"])
            imports = runner.import_times(IMPORTTIME_SAMPLES)
            values["import.mvcusum.s"] = imports["mvcusum"]
            values["import.scipy_signal.s"] = imports["scipy.signal"]
            values["trace.overhead_s"] = traced_pass["wall_s"] - wall
            record["traced_wall_s"] = traced_pass["wall_s"]
            record["layers"] = values
            metrics = declared_metrics("per_layer", values)
        else:
            metrics = declared_metrics("end_to_end", {
                "setup_s": statistics.median(setup),
                "wall_s": wall,
                "cpu_s": statistics.median(p["cpu_s"] for p in passes),
                "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
                "success_ratio": 1.0 - runner.failed / runner.attempted,
            })
        record["problems"] = runner.problems
        record["run_s"] = time.monotonic() - started
        result = {"correct": runner.failed == 0, "attempted": runner.attempted,
                  "failed": runner.failed, "metrics": metrics}
        return result, record
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run still uses it
            pass


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True,
                        help="non-negative workload seed")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative (numpy seeds are)")
    if not (ROOT / "src" / "mvcusum" / "__init__.py").is_file():
        print(f"error: no mvcusum sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    result, record = run(args)
    for problem in record["problems"]:
        print(f"problem: {problem}")
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
