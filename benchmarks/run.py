"""Run one benchmark workload and print its metrics.

    python3 benchmarks/run.py --workload verify-sweep --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The package is imported from the
checked-out ``src/`` tree, never from an installed copy.  With
``--trace 0`` the end-to-end metrics are measured; with ``--trace 1`` a
fixed round is run untraced and then traced, and the per-layer metrics
are reported.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics; the lines before it give every
metric by name with its unit and sample count.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("verify-sweep", "cycle-search", "physical-states", "cli-session")
SETUP_REPEATS = 8  # set-up-only processes, besides the measuring one;
# half before it and half after, so their median spans the whole run
CHILD_TIMEOUT_S = 170


def spawn(args: argparse.Namespace, *extra: str) -> dict:
    argv = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    t0 = time.monotonic()
    done = subprocess.run(
        [*argv, "--t0", repr(t0), *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"worker exited with code {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


def report_line(name: str, value: float, unit: str, note: str) -> None:
    print(f"{name:<44} {value:>14.6g} {unit:<6} {note}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "oamcycle" / "__init__.py").is_file():
        print(f"error: no oamcycle source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2

    repeats = 0 if args.trace else SETUP_REPEATS // 2
    setups = [spawn(args, "--setup-only")["setup_s"] for _ in range(repeats)]
    run = spawn(args)
    if run["self_check"]:
        print(run["self_check"], file=sys.stderr)
        return 1
    setups += [spawn(args, "--setup-only")["setup_s"] for _ in range(repeats)]

    n, failed, executions = run["attempted"], run["failed"], run["executions"]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: closed loop, one client")
    print("self-check: README d=2 netlist passes both checkers, flipped-charge copy counted as failed")
    for line in run["failures"]:
        print(f"failure: {line}")
    print(f"{'fail_ratio':<44} {failed / n:>14.6g} {'':<6} "
          f"{failed} failed of {n} distinct operations attempted "
          f"({run['failed_known']} known: ROADMAP item 2)")
    if args.trace:
        metrics = {name: (value, unit) for name, (value, unit) in run["metrics"].items()}
        for name, (value, unit) in metrics.items():
            report_line(name, value, unit, "")
    else:
        setups.append(run["setup_s"])
        # Operation times are scaled op by op to the reference loop's nominal
        # speed (worker.Tally); set-up processes are reported as measured.
        timing = run["scaled"]
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "ops_per_s": (timing["ops_per_s"], "1/s"),
            "probes_per_s": (timing["probes_per_s"], "1/s"),
            "op_p50_ms": (timing["op_p50_ms"], "ms"),
            "op_tail_ms": (timing["op_tail_ms"], "ms"),
            "peak_rss_mb": (run["peak_rss_mb"], "MB"),
        }
        notes = {
            "setup_s": f"median of {len(setups)} set-ups",
            "ops_per_s": f"{executions} ops in {timing['timed_s']:.3f} s of calls at reference"
                         f" speed, {run['passes']} passes over {run['rounds']} rounds",
            "probes_per_s": f"{run['probes']} probes",
            "op_p50_ms": f"p50 of n={n} operations, each the median of {run['passes']} runs",
            "op_tail_ms": f"p{run['tail_pct']:g} of n={n} operations",
            "peak_rss_mb": "CLI children's maximum" if args.workload == "cli-session" else "workload process",
        }
        ref = run["reference"]
        print(f"reference loop: median {ref['median_ms']:.4g} ms over {ref['readings']} readings; "
              f"operation times scaled to {ref['nominal_ms']:g} ms")
        for name, (value, unit) in metrics.items():
            unscaled = run["unscaled"].get(name)
            note = (f"unscaled {unscaled:.6g}; " if unscaled is not None else "") + notes[name]
            report_line(name, value, unit, note)
        print(json.dumps({"unscaled": {**run["unscaled"], "setup_s": setups, "reference": ref}}))
    correct = failed == run["failed_known"]
    print(json.dumps({
        "correct": correct,
        "attempted": n,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
