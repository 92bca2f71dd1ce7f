#!/usr/bin/env python3
"""qlvsim benchmark: the CLI as its users run it, one workload per run.

    python3 bench/run.py --workload sweep --seed 1 --seconds 14 --trace 0

Run from anywhere; it benchmarks the ``src/`` tree next to this directory.
The seed draws the workload's material and load parameters (see
workloads.py); the program receives only the generated files.

Each run is a single-process closed loop: one client, the next op starts
when the previous one returns.  Every op goes through ``qlvsim.cli.cli_main``
and its outputs are checked; an op that exits non-zero, raises or fails its
check counts as failed and stays in the timings.  There is no waiting time
to report: the program is single-threaded and has no queues.

--trace 0 reports the end-to-end metrics: warm op time (median and tail),
cold ops in fresh interpreters (their wall time, the set-up time inside
them, their peak RSS).  Every reported time is scaled to a reference
machine speed (see ``Probe``); the raw wall times are in the metadata.

--trace 1 alternates untraced ops with ops traced by spans around every
layer (tracer.py) and reports the per-layer metrics, the layer shares of op
time and the tracing overhead.  Per-layer times are raw wall times.

The last line of stdout is the result as JSON; the line before it holds the
run's metadata.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from probe import Probe

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# one BLAS thread (<= nproc): with two, the network op's per-step dense
# solve varied 1.3-2.9 s per op on a 2-core machine, against 1.77-1.87 s
BLAS_THREADS = 1
COLD_REPEATS = 2          # cold ops per run; set-up is timed inside them
TAIL_BEYOND = 10          # ops above the reported tail percentile
MIN_OPS = TAIL_BEYOND + 1
TRACE_MIN_PAIRS = 3       # untraced/traced op pairs in a traced run
MAX_LOOP_S = 80.0         # stop adding ops past this, whatever MIN_OPS says

# ``qlvsim`` has no installed script and no ``__main__``, so a cold op runs
# ``main()`` under ``python -c``.  It samples its own speed (probe.py) and
# writes to the file named by its first argument the samples, the clock
# reading when its first ``load_config`` returned (the end of set-up) and
# its peak RSS.  The peak is VmHWM of its own address space: the
# ``ru_maxrss`` that ``wait4`` returns also keeps the high-water mark of the
# address space the child had before ``exec``, which is the parent's, so it
# read the benchmark's own 134-146 MB instead of the child's.
COLD_SCRIPT = """\
import json, sys, time
ready = sys.argv.pop(1)
sys.path.insert(0, sys.argv.pop(1))
from probe import Probe
marks = {"setup_end": None}
with Probe() as probe:
    try:
        import qlvsim.cli as cli
        load = cli.load_config
        def load_and_mark(path):
            cfg = load(path)
            if marks["setup_end"] is None:
                marks["setup_end"] = time.perf_counter()
            return cfg
        cli.load_config = load_and_mark
        cli.main()
    finally:
        with open("/proc/self/status") as fh:
            marks["peak_rss_kb"] = next(int(line.split()[1]) for line in fh
                                        if line.startswith("VmHWM:"))
        with open(ready, "w") as fh:
            json.dump(dict(marks, samples=probe.samples), fh)
"""


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


def run_cold(argv: list, env: dict, workdir: str):
    """One CLI process in a fresh interpreter.  Returns its start and end
    clock readings, what it wrote to its ready file (see COLD_SCRIPT), its
    peak RSS in MB and its exit code.  The exit code comes from the child's
    own ``wait4``, as does the peak RSS of a child that died before
    writing its own (an upper bound; see COLD_SCRIPT).  perf_counter is the
    system-wide monotonic clock on Linux, so the child's readings compare
    with the parent's."""
    ready = os.path.join(workdir, "ready")
    if os.path.exists(ready):
        os.remove(ready)
    with open(os.path.join(workdir, "cold.err"), "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", COLD_SCRIPT, ready,
                                 HERE, *argv], env=env, cwd=ROOT,
                                stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        t1 = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    marks = {"setup_end": None, "samples": [],
             "peak_rss_kb": usage.ru_maxrss}
    if os.path.exists(ready):
        with open(ready) as fh:
            marks = json.load(fh)
    return t0, t1, marks, marks["peak_rss_kb"] / 1024.0, proc.returncode


def import_times(env: dict) -> dict:
    """Cumulative import seconds from ``-X importtime``."""
    out = subprocess.run([sys.executable, "-X", "importtime", "-c",
                          "import qlvsim.cli"], env=env, cwd=ROOT,
                         capture_output=True, text=True, check=True,
                         timeout=120)
    cumulative = {}
    for line in out.stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[1].strip().isdigit():
            cumulative.setdefault(parts[2].strip(), int(parts[1]) * 1e-6)
    return {"import.cli_s": cumulative["qlvsim.cli"],
            "import.scipy_signal_s": cumulative.get("scipy.signal", 0.0)}


def tail(times: list) -> tuple[float, float]:
    """Highest percentile with TAIL_BEYOND ops above it: (value, pct)."""
    ordered = sorted(times)
    k = max(len(ordered) - TAIL_BEYOND - 1, 0)
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def src_lines() -> int:
    total = 0
    for dirpath, _, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as fh:
                    total += fh.read().count(b"\n")
    return total


class Loop:
    """Closed-loop runner of one workload's ops through ``cli_main``.

    A traced op installs the tracer only while its CLI calls run (not
    during its check) and keeps the op's per-layer metrics."""

    def __init__(self, work, cli_main, check_failed):
        self.work = work
        self.cli_main = cli_main
        self.check_failed = check_failed
        self.tracer = None
        self.per_op: list = []
        self.attempted = 0
        self.failed = 0
        self.errors: list = []
        self.margins: dict = {}

    def op(self, traced: bool = False) -> tuple:
        """Run one op and check it; return its start and end readings."""
        for path in self.work.outputs:
            if os.path.exists(path):
                os.remove(path)
        err = io.StringIO()
        ok = True
        cli_main = self.cli_main
        if traced:
            first = len(self.tracer.spans)
            self.tracer.install()
            cli_main = self.tracer.wrap("cli.cli_main", cli_main)
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stderr(err):
                for argv in self.work.ops:
                    rc = cli_main(argv)
                    if rc != 0:
                        ok = False
                        break
        except Exception as exc:                 # counted, not fatal
            ok = False
            err.write(f"{type(exc).__name__}: {exc}\n")
        t1 = time.perf_counter()
        if traced:
            self.tracer.uninstall()
            self.per_op.append(self.tracer.op_metrics(first, t1 - t0))
        self.attempted += 1
        if ok:
            ok = self.verify()
        else:
            self.errors.append(err.getvalue().strip()[-500:])
        if not ok:
            self.failed += 1
        return t0, t1

    def verify(self) -> bool:
        try:
            margins = self.work.check()
        except (self.check_failed, OSError, ValueError, KeyError) as exc:
            self.errors.append(f"check: {exc}")
            return False
        for k, v in margins.items():
            self.margins[k] = max(self.margins.get(k, v), v)
        return True

    def run(self, seconds: float, probe: Probe):
        """Ops for ``seconds``, at least MIN_OPS of them (within
        MAX_LOOP_S); their raw and scaled times."""
        raw, scaled = [], []
        start = time.perf_counter()
        with probe:
            while True:
                elapsed = time.perf_counter() - start
                if elapsed >= MAX_LOOP_S or (elapsed >= seconds
                                             and len(raw) >= MIN_OPS):
                    return raw, scaled
                r, s = probe.timed(*self.op())
                raw.append(r)
                scaled.append(s)


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["sweep", "creep", "network", "relax_io"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "qlvsim", "cli.py")):
        print(f"error: no qlvsim sources under {SRC}", file=sys.stderr)
        return 2

    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:                    # before numpy is imported
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, SRC)
    env = _child_env()
    workdir = os.path.join(HERE, ".work", f"{args.workload}-{args.seed}-"
                           f"{os.getpid()}")
    os.makedirs(workdir)
    try:
        result, meta = _run(args, env, nproc, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"meta": meta}, sort_keys=True))
    print(json.dumps(result))
    return 0


def _run(args, env: dict, nproc: int, workdir: str):
    import numpy
    import scipy
    import yaml

    import workloads
    work = workloads.make(args.workload, args.seed, workdir)
    meta = {"workload": args.workload, "seed": args.seed,
            "trace": args.trace, "seconds": args.seconds,
            "python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "pyyaml": yaml.__version__,
            "nproc": nproc, "blas_threads": BLAS_THREADS,
            "loop": "closed, 1 client", "sizes": work.sizes,
            "src_lines": src_lines(),
            "wait_time": "not applicable: single-threaded, no queues"}
    from qlvsim.cli import cli_main
    loop = Loop(work, cli_main, workloads.CheckFailed)
    if args.trace == 0:
        metrics = _untraced(args, env, loop, workdir, meta)
    else:
        metrics = _traced(args, env, loop, meta)
    meta["check_margins"] = loop.margins
    meta["errors"] = loop.errors[:5]
    result = {"correct": loop.failed == 0, "attempted": loop.attempted,
              "failed": loop.failed, "metrics": metrics}
    return result, meta


def _untraced(args, env: dict, loop: Loop, workdir: str,
              meta: dict) -> dict:
    """Cold ops in fresh interpreters (which also time set-up), then the
    warm loop.  A cold op is an op: its outputs are checked too."""
    cold = []                  # per cold op: raw, scaled, set-up, RSS
    for _ in range(COLD_REPEATS):
        procs = [run_cold(argv, env, workdir) for argv in loop.work.ops]
        probe = Probe()
        for p in procs:
            probe.samples += p[2]["samples"]
        start = procs[0][0]
        wall, scaled = probe.timed(start, procs[-1][1])
        setup_end = next((p[2]["setup_end"] for p in procs
                          if p[2]["setup_end"] is not None), procs[-1][1])
        setup, setup_scaled = probe.timed(start, setup_end)
        cold.append({"wall_s": wall, "scaled_s": scaled,
                     "setup_s": setup, "setup_scaled_s": setup_scaled,
                     "rss_mb": max(p[3] for p in procs),
                     "exit": [p[4] for p in procs]})
        loop.attempted += 1
        if not (all(p[4] == 0 for p in procs) and loop.verify()):
            loop.failed += 1
    loop.op()                                       # warm-up, not timed
    probe = Probe()
    raw, times = loop.run(args.seconds, probe)
    value, pct = tail(times)

    def median_of(key):
        return statistics.median(c[key] for c in cold)

    meta.update(ops=len(times), tail_percentile=pct, op_samples_s=times,
                cold_ops=cold, probe_median_s=statistics.median(
                    d for _, d in probe.samples),
                raw={"op_s.p50": statistics.median(raw),
                     "op_s.tail": tail(raw)[0],
                     "setup_s": median_of("setup_s"),
                     "cold_op_s": median_of("wall_s")})
    return {
        "op_s.p50": metric(statistics.median(times), "s"),
        "op_s.tail": metric(value, "s"),
        "setup_s": metric(median_of("setup_scaled_s"), "s"),
        "cold_op_s": metric(median_of("scaled_s"), "s"),
        "peak_rss_mb": metric(median_of("rss_mb"), "MB"),
    }


def _traced(args, env: dict, loop: Loop, meta: dict) -> dict:
    """Untraced and traced ops alternate; per-layer metrics are medians over
    the traced ops, error counts are sums, and the overhead is the median
    ratio of the scaled times of adjacent pairs.  The probe runs in both,
    so span times include its samples (about 2.5% of every span)."""
    import tracer

    imports = import_times(env)
    loop.op()                                       # warm-up, not timed
    loop.tracer = tracer.Tracer()
    ratios = []
    start = time.perf_counter()
    with Probe() as probe:
        while len(ratios) < TRACE_MIN_PAIRS or (
                time.perf_counter() - start < args.seconds
                and time.perf_counter() - start < MAX_LOOP_S):
            plain = probe.timed(*loop.op())[1]
            ratios.append(probe.timed(*loop.op(traced=True))[1] / plain)
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    loop.tracer.write(os.path.join(out_dir, f"spans-{args.workload}.json"))

    metrics = {k: metric(v, "s") for k, v in imports.items()}
    for key in loop.per_op[0]:
        values = [m[key] for m in loop.per_op]
        value = sum(values) if key.endswith(".errors") \
            else statistics.median(values)
        metrics[key] = metric(value, UNITS.get(key.rsplit(".", 1)[-1], "s"))
    metrics["trace.overhead_frac"] = metric(
        statistics.median(ratios) - 1.0, "ratio")
    metrics["errors.failed_frac"] = metric(
        loop.failed / loop.attempted, "ratio")
    counts = ("protocols.cycles_simulated", "network.steps",
              "constitutive.stress_green.calls", "seriesio.bytes_written")
    meta.update(op_pairs=len(ratios),
                layer_shares={layer: metrics[f"{layer}.share"]["value"]
                              for layer in tracer.LAYERS},
                work_counts={k: [m[k] for m in loop.per_op] for k in counts})
    return metrics


# unit by the last part of a per-layer metric's name; the rest are seconds
UNITS = {"calls": "count", "points": "count", "steps": "count",
         "term_samples": "count", "cycles_simulated": "count",
         "errors": "count", "yaml_bytes": "bytes", "bytes_written": "bytes",
         "bytes_read": "bytes", "share": "ratio", "step_us": "us",
         "write_us_per_value": "us", "read_us_per_value": "us"}


if __name__ == "__main__":
    sys.exit(main())
