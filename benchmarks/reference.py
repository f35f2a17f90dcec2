"""Time the fixed reference points of ROADMAP.md's baseline table.

    python3 benchmarks/reference.py --out benchmarks/baseline.json

Sizes are fixed so that the numbers stay comparable from commit to
commit.  Each point is timed several times in this process (the CLI
points in fresh subprocesses) and reported as median and quartiles in
milliseconds, together with the interpreter, numpy and core count.
``--out FILE`` merges the result into that JSON file's ``reference`` and
``environment`` keys; without it the JSON goes to stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy  # noqa: E402

from oamcycle import (  # noqa: E402
    apply_netlist,
    apply_portgraph,
    discover_cycles,
    extract_permutation,
    netlist_to_portgraph,
    r_path,
    scaling_table,
    synth_arbitrary,
    verify_gate,
)
from oamcycle.simulation import SimulationConfig  # noqa: E402
from spread import head_commit  # noqa: E402
from worker import ENV, import_times  # noqa: E402


def timed(fn, repeats: int) -> dict:
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append((time.perf_counter() - start) * 1e3)
    q1, median, q3 = statistics.quantiles(samples, n=4)
    return {"median_ms": median, "q1_ms": q1, "q3_ms": q3, "repeats": repeats}


def python(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=ENV, capture_output=True,
                          text=True, timeout=120)


def import_ms(package: str, repeats: int) -> dict:
    """Cumulative `-X importtime` cost of *package* within `import oamcycle`."""
    samples = [import_times()[package] for _ in range(repeats)]
    q1, median, q3 = statistics.quantiles(samples, n=4)
    return {"median_ms": median, "q1_ms": q1, "q3_ms": q3, "repeats": repeats}


def permutation(device, d: int, apply):
    return extract_permutation(lambda s: apply(device, s), range(d), r_path(0), r_path(0))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args()
    if args.repeats < 2:
        ap.error("--repeats must be at least 2 to give quartiles")
    n = args.repeats
    physical = SimulationConfig(mode="physical")
    points = {}
    for d in (128, 500, 2000):
        points[f"verify_gate.strict.d{d}"] = timed(lambda: verify_gate(d), n)
        points[f"verify_gate.simplified.d{d}"] = timed(lambda: verify_gate(d, variant="simplified"), n)
        points[f"verify_gate.physical.d{d}"] = timed(lambda: verify_gate(d, config=physical), n)
    net = synth_arbitrary(500)
    graph = netlist_to_portgraph(net)
    points["permutation.apply_netlist.d500"] = timed(lambda: permutation(net, 500, apply_netlist), n)
    points["permutation.apply_portgraph.d500"] = timed(lambda: permutation(graph, 500, apply_portgraph), n)
    points["scaling_table.3-500"] = timed(lambda: scaling_table(3, 500), n)
    points["discover_cycles.d500.window2000"] = timed(lambda: discover_cycles(net, -2000, 2000), n)
    points["cli.verify500.wall"] = timed(lambda: python("-m", "oamcycle", "verify", "500"), n)
    points["cli.interpreter"] = timed(lambda: python("-c", "pass"), n)
    points["cli.import_oamcycle"] = import_ms("oamcycle", n)
    points["cli.import_numpy"] = import_ms("numpy", n)
    environment = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "commit": head_commit(),
    }
    if args.out:
        doc = json.loads(args.out.read_text()) if args.out.exists() else {}
        doc["environment"] = environment
        doc["reference"] = points
        args.out.write_text(json.dumps(doc, indent=2) + "\n")
    else:
        print(json.dumps({"environment": environment, "reference": points}, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
