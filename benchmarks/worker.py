"""One workload in one single-threaded process.

Started by run.py with the parent's CLOCK_MONOTONIC reading at spawn
(``--t0``), so set-up time covers interpreter start, imports, the
checker's self-check and the first round's input generation.  Prints one
JSON line on stdout.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402  (needs src on the path)

ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

#: tail percentile: the highest of these with at least 10 samples above it
LADDER = (50, 75, 90, 99, 99.9)


def quantile(times: list[float], p: float) -> float:
    """The p-th percentile of sorted times, as the mean of a small rank band.

    Sizes are log-uniform, so neighbouring ops differ by several percent;
    averaging the ranks within max(5, n*min(p, 100-p)/1000) of the target
    (the middle tenth for p50, ten ranks around a tail) keeps one op's size
    or structure from moving the estimate.
    """
    n = len(times)
    rank = int(p / 100 * n)
    width = max(5, round(n * min(p, 100 - p) / 1000))
    return statistics.fmean(times[max(0, rank - width) : min(n, rank + width)])


def reference_ms() -> float:
    """Time of a fixed dict-and-complex loop written in the benchmark.

    It shares no code with oamcycle, and the collector is off while it
    runs, so the program's heap cannot slow it: it reads this machine's
    current speed and nothing else.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        acc: dict[tuple[int, int], complex] = {}
        for i in range(3000):
            key = (i & 63, i)
            acc[key] = acc.get(key, 0j) + complex(i, 1)
        return (time.perf_counter() - start) * 1e3
    finally:
        if enabled:
            gc.enable()


#: reference_ms() on the machine that reported times are scaled to
REFERENCE_NOMINAL_MS = 1.6


class Tally:
    """Runs operations, times and checks each.

    With ``calibrate``, the reference loop is also timed before every
    operation, and each operation's time is scaled by
    REFERENCE_NOMINAL_MS over the mean reading around it: the readings
    just before and just after it, and every reading taken within the
    operation's own duration before its start or after its end.  The VM
    this was written on switches between a fast and a slow state (the
    loop reads about 1.1 or 1.8 ms) within tens of milliseconds.  For a
    short operation the two readings around it follow the switches: they
    cut the ratio of p95 to p5 of a repeated 8 ms verify_gate from 1.9 to
    1.4, where readings 0.1 s apart did not.  An operation of 100 ms or
    more spans many switches, and the neighbours' readings give its
    average state better than two point readings do.
    """

    def __init__(self, calibrate: bool = False):
        self.times: list[float] = []  # one per execution
        self.starts: list[float] = []
        self.op_ids: list[int] = []  # id() of the op of each execution
        self.probes = 0
        self.attempted: set[int] = set()  # id() of every distinct op run
        # id(op) -> (kind, reason, known) of its first failure, or of its
        # first unknown one: an op that fails in any execution is failed
        self.failures: dict[int, tuple[str, str, bool]] = {}
        self.calibrate = calibrate
        self.readings: list[float] = []  # reference loop, ms; one before each op
        self.read_at: list[float] = []  # when each reading started

    def _read(self) -> None:
        self.read_at.append(time.perf_counter())
        self.readings.append(reference_ms())

    def run(self, ops) -> float:
        """Run ops one after another; returns the summed call time."""
        total = 0.0
        for op in ops:
            if self.calibrate:
                self._read()
            start = time.perf_counter()
            try:
                result = op.call()
            except Exception as exc:  # an operation that raises counts as failed
                elapsed = time.perf_counter() - start
                verdict = (f"raised {type(exc).__name__}: {exc}", False)
            else:
                elapsed = time.perf_counter() - start
                try:
                    verdict = op.check(result)
                except Exception as exc:  # output the checker cannot read
                    verdict = (f"unreadable output: {type(exc).__name__}: {exc}", False)
            total += elapsed
            self.times.append(elapsed)
            self.starts.append(start)
            self.op_ids.append(id(op))
            self.probes += op.probes
            self.attempted.add(id(op))
            if verdict is not None:
                first = self.failures.get(id(op))
                if first is None or (first[2] and not verdict[1]):
                    self.failures[id(op)] = (op.kind, *verdict)
        return total

    def _stats(self, times: list[float]) -> dict:
        """Rates over every execution; percentiles over the operations,
        each taken at the median of its executions.  The sample, and with
        it the tail's rung, is then the same however many cycles a run
        fits in, and a faster program is not moved to a higher rung."""
        timed = sum(times)
        per_op: dict[int, list[float]] = {}
        for key, t in zip(self.op_ids, times):
            per_op.setdefault(key, []).append(t)
        typical = sorted(statistics.median(ts) for ts in per_op.values())
        return {
            "ops_per_s": len(times) / timed,
            "probes_per_s": self.probes / timed,
            "op_p50_ms": quantile(typical, 50) * 1e3,
            "op_tail_ms": quantile(typical, self.tail_pct()) * 1e3,
            "timed_s": timed,
        }

    def tail_pct(self) -> float:
        n = len(self.attempted)
        return max([p for p in LADDER if n * (1 - p / 100) >= 10], default=50)

    def summary(self) -> dict:
        failures = list(self.failures.values())
        result = {
            "attempted": len(self.attempted),
            "failed": len(failures),
            "failed_known": sum(1 for *_, known in failures if known),
            "failures": [f"{kind}: {reason}" for kind, reason, _ in failures[:5]],
            "executions": len(self.times),
            "probes": self.probes,
            "tail_pct": self.tail_pct(),
            "unscaled": self._stats(self.times),
        }
        if self.calibrate:
            self._read()  # the last op's closing reading
            r, at = self.readings, self.read_at
            scaled = []
            for i, (start, t) in enumerate(zip(self.starts, self.times)):
                lo = min(i, bisect.bisect_left(at, start - t))
                hi = max(i + 2, bisect.bisect_right(at, start + 2 * t))
                scaled.append(t * REFERENCE_NOMINAL_MS / statistics.fmean(r[lo:hi]))
            result["scaled"] = self._stats(scaled)
            result["reference"] = {"median_ms": statistics.median(r), "readings": len(r),
                                   "nominal_ms": REFERENCE_NOMINAL_MS}
        return result


def self_check() -> str | None:
    """None when both checkers pass the good netlist and fail the bad one."""
    tally = Tally()
    tally.run(workloads.self_check_ops())
    failures = [(kind, known) for kind, _, known in tally.failures.values()]
    if failures != [("readme-d2-flipped", False)] * 2:
        return (f"checker self-check failed: failures {failures}, expected the flipped "
                "netlist twice as an unknown failure")
    return None


def import_times() -> dict[str, float]:
    """Cumulative ms per module from `python -X importtime -c "import oamcycle"`."""
    stderr = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import oamcycle"],
        cwd=ROOT, env=ENV, capture_output=True, text=True, timeout=60,
    ).stderr
    cumulative = {}
    for line in stderr.splitlines():
        fields = line.split("|")
        if line.startswith("import time:") and len(fields) == 3 and fields[1].strip().isdigit():
            cumulative[fields[2].strip()] = int(fields[1]) / 1e3
    return cumulative


def cli_startup_metrics(repeats: int = 3) -> dict:
    """Bare interpreter start and cumulative import costs, medians."""
    interp, pkg, numpy = [], [], []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], cwd=ROOT, env=ENV, timeout=60)
        interp.append((time.perf_counter() - start) * 1e3)
        cumulative = import_times()
        pkg.append(cumulative.get("oamcycle", 0.0))
        numpy.append(cumulative.get("numpy", 0.0))
    return {
        "cli.interpreter_ms": (statistics.median(interp), "ms"),
        "cli.import_oamcycle_ms": (statistics.median(pkg), "ms"),
        "cli.import_numpy_ms": (statistics.median(numpy), "ms"),
    }


def traced(workload, ops, out_dir: Path, name: str) -> dict:
    """One untraced and one traced pass over the same round."""
    from spans import Tracer

    workload.in_process = True
    untraced_s = Tally().run(ops)
    tracer = Tracer()
    for op in ops:
        for graph, netlist in op.graphs:
            tracer.register_graph(graph, netlist)
    tally = Tally()
    tracer.install()
    try:
        traced_s = tally.run(ops)
    finally:
        tracer.uninstall()
    out_dir.mkdir(parents=True, exist_ok=True)
    tracer.write(out_dir / f"spans-{name}.bin.gz")
    metrics = tracer.metrics()
    metrics.update(cli_startup_metrics())
    metrics["trace.untraced_ms"] = (untraced_s * 1e3, "ms")
    metrics["trace.traced_ms"] = (traced_s * 1e3, "ms")
    metrics["trace.overhead_ms"] = ((traced_s - untraced_s) * 1e3, "ms")
    return {"tally": tally, "metrics": metrics}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True, help="parent's time.monotonic() at spawn")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    problem = self_check()
    workload = workloads.WORKLOADS[args.workload](args.seed, ROOT)
    ops = workload.round(0)
    ready = time.monotonic()
    result = {"setup_s": ready - args.t0, "self_check": problem}
    if args.setup_only or problem:
        workload.close()
        print(json.dumps(result))
        return 0

    try:
        if args.trace:
            run = traced(workload, ops, ROOT / "benchmarks" / "out", args.workload)
            result.update(run["tally"].summary())
            result["metrics"] = {k: [v, u] for k, (v, u) in run["metrics"].items()}
        else:
            if args.workload == "cli-session":
                # keep the CLI children on the CPU whose speed the readings
                # follow: unpinned, a command's time did not follow them at all
                # (log-log slope 0.1), pinned it did (0.6)
                os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
            # a fixed set of rounds, cycled: what a run attempts does not
            # depend on how fast it goes; the run stops at the end of the
            # cycle that ends nearest to --seconds
            cycle = [ops, *(workload.round(r) for r in range(1, workloads.ROUNDS_PER_RUN))]
            tally = Tally(calibrate=True)
            start = time.monotonic()
            passes = 0
            while True:
                for ops in cycle:
                    tally.run(ops)
                passes += 1
                elapsed = time.monotonic() - start
                if elapsed + elapsed / passes / 2 >= args.seconds:
                    break
            result.update(tally.summary())
            result["rounds"] = len(cycle)
            result["passes"] = passes
    finally:
        workload.close()
    usage = resource.RUSAGE_CHILDREN if args.workload == "cli-session" else resource.RUSAGE_SELF
    result["peak_rss_mb"] = resource.getrusage(usage).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
