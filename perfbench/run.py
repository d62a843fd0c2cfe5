"""Run one scsim benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload energy-duel --seed 0 --seconds 30 --trace 0

Run from anywhere; the library is imported from the ``src`` directory next
to this one. Operations are repeated until ``--seconds`` have passed since
the first one started, then the outputs of every operation are checked.
With ``--trace 0`` the end-to-end metrics are printed, operation times
scaled to a reference host speed; with ``--trace 1`` every operation is run
twice, plain and traced, the two outputs are compared field by field, and
the per-layer metrics are printed. The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import tempfile
import time
import traceback
from collections import defaultdict
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("energy-duel", "rush-hour", "cache-sweep")
# The host's speed drifts by up to a third within minutes on a shared
# machine, in CPU time as much as in wall time. Operation times are scaled
# to a host on which the reference kernel takes this long.
REFERENCE_KERNEL_S = 0.010
KERNEL_REPEATS = 15


def since_process_start() -> float:
    """Seconds since this process started, to the kernel's clock tick."""
    with open("/proc/self/stat", encoding="ascii") as stat:
        fields = stat.read().rpartition(")")[2].split()
    start = int(fields[19]) / os.sysconf("SC_CLK_TCK")  # field 22, starttime
    return time.clock_gettime(time.CLOCK_BOOTTIME) - start


def _attempt(stats: dict[str, int], fn, *args):
    """Call one operation; count it, and count it failed when it raises."""
    stats["attempted"] += 1
    try:
        return fn(*args)
    except Exception:  # noqa: BLE001 - a failed operation is counted, not fatal
        stats["failed"] += 1
        traceback.print_exc()
        return None


def _timed(fn, k):
    t0 = time.perf_counter()
    result = fn(k)
    return result, time.perf_counter() - t0


def _kernel() -> float:
    """A fixed mix of interpreter work and small numpy calls, like a simulation step."""
    x = np.linspace(0.0, 1.0, 16)
    acc = 0.0
    for i in range(1500):
        y = np.minimum(x * 1.5, 1.0) - 0.5
        acc += float(y.sum())
        pair = [acc, i]
        acc += pair[0] * 1e-9
    return acc


def kernel_s() -> float:
    """Median time of the reference kernel now: how fast the host runs at present."""
    times = []
    for _ in range(KERNEL_REPEATS):
        t0 = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def measure(workload, seconds: float, setup_s: float) -> dict:
    """Plain operations for ``seconds``: the end-to-end metrics.

    Each operation's host time is scaled by ``REFERENCE_KERNEL_S`` over the
    reference kernel's time taken just before and just after it, so that
    the figures read in seconds of a host running at the reference speed.
    """
    stats = {"attempted": 0, "failed": 0}
    results, times, scaled = [], [], []
    peak_rss_mb = None
    kernel = [kernel_s()]
    start = time.perf_counter()
    k = 0
    while time.perf_counter() - start < seconds:
        done = _attempt(stats, _timed, workload.op, k)
        kernel.append(kernel_s())
        if done is not None:
            results.append(done[0])
            times.append(done[1])
            scaled.append(done[1] * REFERENCE_KERNEL_S / ((kernel[-2] + kernel[-1]) / 2.0))
        if peak_rss_mb is None:
            # after one operation, so that the figure does not depend on how
            # many operations the host's speed let into the run
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        k += 1
    if not results:
        sys.exit("every operation failed")
    print(f"host: median operation {statistics.median(times):.4f} s, reference kernel "
          f"{statistics.median(kernel) * 1e3:.3f} ms", file=sys.stderr)
    counts = [workload.counts(result) for result in results]
    failures = workload.check(results)
    metrics = {
        "setup_s": (setup_s, "s"),
        "op_s": (statistics.median(scaled), "s"),
        "vehicle_steps_per_s": (statistics.median(v / t for (v, _), t in zip(counts, scaled)), "1/s"),
        "station_steps_per_s": (statistics.median(s / t for (_, s), t in zip(counts, scaled)), "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    return _result(failures, stats, metrics)


def trace(workload, seconds: float) -> dict:
    """Plain and traced operation pairs for ``seconds``: the per-layer metrics."""
    from checks import identical
    from tracing import EVICTING, FUNCTIONS, Tracer

    tracer = Tracer()
    stats = {"attempted": 0, "failed": 0}
    results, overheads, failures = [], [], []
    layer_self: defaultdict[str, float] = defaultdict(float)
    n = 0
    start = time.perf_counter()
    k = 0
    while time.perf_counter() - start < seconds:
        plain = _attempt(stats, _timed, workload.op, k)
        with tracer.installed():
            traced = _attempt(stats, tracer.time_root, workload.op, k)
        if plain is not None:
            results.append(plain[0])
        if traced is not None:
            n += 1
            layer_self[workload.root] += traced[2]
        if plain is not None and traced is not None:
            overheads.append(traced[1] - plain[1])
            if not identical(plain[0], traced[0]):
                failures.append(f"operation {k}: traced output differs from the plain one")
        k += 1
    if not overheads:
        sys.exit("no operation ran both plain and traced")
    failures += workload.check(results)
    layer_self["engine"] += tracer.totals["engine.sweep_cache"][1]
    metrics = {}
    for name in FUNCTIONS:
        calls, self_s = tracer.totals[name]
        metrics[f"{name}.calls"] = (calls / n, "count")
        metrics[f"{name}.s"] = (self_s / n, "s")
    inserts = tracer.totals[EVICTING][0]
    metrics["station.prefetch_evict_ratio"] = (tracer.evictions / inserts if inserts else 0.0, "ratio")
    metrics["engine.self_s"] = (layer_self["engine"] / n, "s")
    metrics["cli.self_s"] = (layer_self["cli"] / n, "s")
    metrics["trace.overhead_s"] = (statistics.median(overheads), "s")
    return _result(failures, stats, metrics)


def _result(failures: list[str], stats: dict[str, int], metrics: dict) -> dict:
    for failure in failures:
        print(f"check failed: {failure}", file=sys.stderr)
    return {
        "correct": not failures,
        "attempted": stats["attempted"],
        "failed": stats["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    sys.path.insert(0, str(SRC))
    try:
        import scsim
    except ImportError as exc:
        sys.exit(f"cannot import scsim from {SRC}: {exc}")
    if Path(scsim.__file__).resolve().parent != SRC / "scsim":
        sys.exit(f"scsim was imported from {scsim.__file__}, not from {SRC}")
    from workloads import WORKLOADS

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as scratch:
        workload = WORKLOADS[args.workload](args.seed, Path(scratch))
        if args.trace:
            result = trace(workload, args.seconds)
        else:
            result = measure(workload, args.seconds, since_process_start())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
