"""Run the benchmark on several seeds and report each metric's spread.

    python3 benchmarks/spread.py --seeds 10
    python3 benchmarks/spread.py --workloads physical-states --seeds 5 --first-seed 100

For every workload and end-to-end metric it prints the median and the
interquartile range (Python's ``statistics.quantiles(values, n=4)``) as
a share of the median, next to the bound in BENCHMARK.json, and the
largest spread as a share of its bound, setup_s included.  Runs are
sequential so they do not disturb each other's timings.  ``--out FILE``
merges the medians and quartiles, of the reported and of the unscaled
figures, into a JSON file's ``workloads`` key, with the commit measured.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def head_commit() -> str | None:
    """The checked-out commit, or None outside a git repository."""
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else None


def quartiles(vals: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(vals, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", nargs="*", default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--out", type=Path)
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {}
    worst = 0.0
    for workload in args.workloads:
        values: dict[str, list[float]] = {}
        unscaled: dict[str, list[float]] = {}
        failed = attempted = 0
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            done = subprocess.run(
                [*spec["command"], "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True,
            )
            *_, raw_line, result_line = done.stdout.splitlines()
            result = json.loads(result_line)
            if not result["correct"]:
                print(f"{workload} seed {seed}: correct is false", file=sys.stderr)
            failed += result["failed"]
            attempted += result["attempted"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            raw = json.loads(raw_line)["unscaled"]
            for name in ("ops_per_s", "probes_per_s", "op_p50_ms", "op_tail_ms"):
                unscaled.setdefault(name, []).append(raw[name])
            unscaled.setdefault("reference_ms", []).append(raw["reference"]["median_ms"])
        summary[workload] = {"seeds": args.seeds, "first_seed": args.first_seed,
                             "failed": failed, "attempted": attempted,
                             "unscaled": {name: quartiles(v) for name, v in unscaled.items()}}
        print(f"{workload}: {failed} failed of {attempted} attempted over {args.seeds} seeds")
        for name, vals in values.items():
            summary[workload][name] = q = quartiles(vals)
            worst = max(worst, q["spread"] / bounds[name])
            print(f"  {name:<14} median {q['median']:>12.6g}  spread {q['spread']:7.2%}  "
                  f"bound {bounds[name]:.0%}  ({q['spread'] / bounds[name]:.2f} of bound)  "
                  + " ".join(f"{v:.4g}" for v in vals))
    print(f"largest spread as a share of its bound: {worst:.2f}")
    if args.out:
        doc = json.loads(args.out.read_text()) if args.out.exists() else {}
        doc.setdefault("workloads", {}).update(summary)
        doc["workloads_commit"] = head_commit()
        args.out.write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
