"""Hold `verify_gate` or `discover_cycles` to the value-by-value read, in both modes, or each built device to its checked rebuild, for every d up to a bound.

Usage::

    PYTHONPATH=src python tools/verify_differential.py MAX_D
    PYTHONPATH=src python tools/verify_differential.py cycles MAX_D
    PYTHONPATH=src python tools/verify_differential.py devices MAX_D

For every d in 2..MAX_D the first form runs ``check_dimension`` of
``tests/test_verify_pieces.py``: every gate variant on a shift drawn from
``random.Random(d)``, and one of them with one hologram charge flipped, each
reported by `verify_gate` from its pieces and by the value-by-value reference,
in strict and in physical mode; the reports must be equal, mapping order
and repr included, the four unbroken gates must pass in each mode, and the pieces of
every unbroken gate must pass the certificate checker of
``tests/reference_netlist.py``.  The ``cycles`` form runs
``check_cycle_dimension`` of ``tests/test_cycle_pieces.py``: `discover_cycles`
over -4d..4d on the standard netlist, its folded graph, and each variant with
one hologram charge flipped, against the reference that reads the window value
by value and probes every cycle edge, in both modes; the results or the errors
raised must be equal, and the pieces of the two unbroken windows must pass the
window certificate checker.  Tier-1 runs both checks up to d = 300.
The ``devices`` form runs ``check_devices`` of ``tests/test_synthesis.py``:
each variant's netlist, device and port graph, which synthesis and threading
build unchecked, must equal its rebuild through the public constructors (the
shifted variant on a window drawn from ``random.Random(d)``); and strict
`verify_gate` on each variant must pass with the predicted splitter count.
Tier-1 runs the rebuild check up to d = 300.
Prints one line per 256 dimensions and exits 1 at the first d that differs.
"""

from __future__ import annotations

import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from test_cycle_pieces import check_cycle_dimension  # noqa: E402
from test_synthesis import check_devices  # noqa: E402
from test_verify_pieces import check_dimension  # noqa: E402

from oamcycle.analysis import verify_gate  # noqa: E402
from oamcycle.synthesis import VARIANTS, predict_count, predict_simplified_count  # noqa: E402


def check_gates(d: int) -> None:
    """The verify differential at d, which also counts the passing gates."""
    passed = check_dimension(d)
    assert passed == [4, 4], f"{passed} gates passed per mode, want the 4 unbroken ones in each"


def check_built_devices(d: int) -> None:
    """Every variant's device at d equals its checked rebuild, and each
    variant passes strict `verify_gate` with the predicted splitter count."""
    rng = random.Random(d)
    shift = rng.choice((-1, 1)) * rng.randint(1, 4 * d)
    check_devices(d, shift)
    for variant in VARIANTS:
        report = verify_gate(d, variant, shift if variant == "shifted" else 0)
        count = predict_simplified_count(d) if variant == "simplified" else predict_count(d)[0]
        assert report.passed, (variant, report.violations)
        assert report.count_actual == report.count_predicted == count, variant


FORMS = {
    "cycles": (check_cycle_dimension, "same cycles"),
    "devices": (check_built_devices, "devices built alike, gates pass"),
}


def main(argv: list[str]) -> int:
    check, what = check_gates, "same reports"
    if argv[:1] and argv[0] in FORMS:
        check, what = FORMS[argv[0]]
        argv = argv[1:]
    if len(argv) != 1 or not argv[0].isdigit() or int(argv[0]) < 2:
        print(__doc__.strip().splitlines()[0], "\nusage: verify_differential.py [cycles | devices] MAX_D (>= 2)")
        return 2
    max_d = int(argv[0])
    start = time.perf_counter()
    for d in range(2, max_d + 1):
        try:
            check(d)
        except AssertionError as exc:
            print(f"d={d}: FAIL {exc!r}")
            return 1
        if d % 256 == 0 or d == max_d:
            print(f"d=2..{d}: {what} ({time.perf_counter() - start:.1f} s)", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
