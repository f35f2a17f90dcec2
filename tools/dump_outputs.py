"""Write what the engines return for seeded random devices, one line per result.

Usage::

    PYTHONHASHSEED=0 PYTHONPATH=src python tools/dump_outputs.py SEED COUNT > out.txt

The devices are COUNT draws from ``random.Random(SEED)``: netlists of up to
12 splitters (orders 1..12), holograms (charges -20..20) and phase plates;
synthesized gates of every variant for d in 2..300 (the simplified variant
folded, the others as netlists, on shifted windows); and port graphs with
arbitrary wiring, which have loops, unwired exits and entries on
terminals.  For each device, in strict and in physical mode, the dump
holds `strict_pieces`, the verdict of the certificate `_certified` on
those pieces, `window_permutation`, `probe_permutation` and
`discover_cycles` on a window near 0 and on one near +-10**17 or
2**60 + 3, `transform` of a random superposition at the scales 1, 1e200,
1e-200 and 1e-17 (amplitudes as float hex), and one `verify_gate` report
for d in 2..129.  Each device's `repr`, its DOT text (`export_dot`) and,
for a netlist, its document (`serialize`) are written too.  The
`strict_pieces`, `certified` and writer lines draw nothing from the
random source, so every other line is what the dump wrote without them.
One device in twenty is run with
``simulation.NORM_TOLERANCE = -1``, which fails every norm check.  Each
line gives the result with its types, or the type and message of the
error raised.

Two checkouts that write the same bytes for the same SEED and COUNT agree
on every result the dump covers, so a change meant to keep outputs
bit-identical is checked by running the dump on both and comparing the
files with ``cmp``.
"""

from __future__ import annotations

import enum
import random
import sys

from oamcycle import simulation
from oamcycle.analysis import discover_cycles, verify_gate
from oamcycle.model import (
    Hologram,
    ModeVector,
    Netlist,
    OamBeamSplitter,
    ZPlate,
    element_paths,
    r_path,
    s_path,
)
from oamcycle.portgraph import PortGraph
from oamcycle.serialization import export_dot, serialize
from oamcycle.simulation import (
    PHYSICAL,
    STRICT,
    SimulationConfig,
    _certified,
    _Window,
    probe_permutation,
    strict_pieces,
    transform,
    window_permutation,
)
from oamcycle.synthesis import VARIANTS, device_for, synth_variant

PATHS = (r_path(0), r_path(1), r_path(2), s_path(0), s_path(1))
R0, R1 = r_path(0), r_path(1)
FAR = (10**17, -(10**17), 2**60 + 3)
SCALES = (1.0, 1e200, 1e-200, 1e-17)


class Charge(enum.IntEnum):
    LOW = -1
    ZERO = 0
    HIGH = 7


#: values a probe list may hold that are not plain ints
ODD_VALUES = (Charge.LOW, Charge.ZERO, Charge.HIGH, True, False, 2.0, "3", None)


def element(rng: random.Random):
    kind = rng.randrange(3)
    if kind == 0:
        x, y = rng.sample(PATHS, 2)
        return OamBeamSplitter(rng.randint(1, 12), x, y)
    if kind == 1:
        return Hologram(rng.choice(PATHS), rng.randint(-20, 20))
    return ZPlate(rng.choice(PATHS), rng.randint(2, 12))


def netlist(rng: random.Random) -> tuple[str, Netlist]:
    items = tuple(element(rng) for _ in range(rng.randint(1, 12)))
    used = sorted({path for el in items for path in element_paths(el)})
    device = Netlist(items, rng.choice(used), rng.choice(used), rng.randint(2, 6))
    return repr(device), device


def gate(rng: random.Random) -> tuple[str, Netlist | PortGraph]:
    d = rng.randint(2, 300)
    variant = rng.choice(VARIANTS)
    shift = 0 if variant == "simplified" else rng.randint(-2 * d, 2 * d)
    device = device_for(synth_variant(d, variant, shift), variant)
    return f"gate d={d} {variant} shift={shift}", device


def wired_graph(rng: random.Random) -> tuple[str, PortGraph]:
    nodes = [element(rng) for _ in range(rng.randint(1, 5))]
    slots = 4 * len(nodes)

    def slot():
        return rng.randrange(slots) if rng.random() < 0.5 else rng.choice((~0, ~1, ~1, ~2))

    wiring = [slot() for _ in range(slots)]
    entry = rng.randrange(slots) if rng.random() < 0.7 else rng.choice((~0, ~1))
    entries = {R0: entry} if rng.random() < 0.9 else {}  # else every value passes through
    device = PortGraph(
        nodes=tuple(nodes),
        wiring=tuple(wiring),
        entries=entries,
        terminals=(None, R0, R1),
        input_path=R0,
        output_path=rng.choice((R0, R1)),
        dimension=rng.randint(2, 6),
    )
    return repr(device), device


def typed(value) -> str:
    """*value* with the names of the types it holds."""
    if isinstance(value, dict):
        types = sorted({f"{type(k).__name__}:{type(v).__name__}" for k, v in value.items()})
        return f"{types} {value!r}"
    if isinstance(value, ModeVector):
        return " ".join(
            f"{path}|{ell}>{type(ell).__name__}={amp.real.hex()},{amp.imag.hex()}"
            for (path, ell), amp in value.items()
        ) or "0"
    return f"{type(value).__name__} {value!r}"


def outcome(call) -> str:
    try:
        return typed(call())
    except Exception as exc:  # every error is part of the output
        return f"raises {type(exc).__name__}: {exc}"


def windows(rng: random.Random, device) -> list[tuple[int, int]]:
    """A window near 0, which may be wide enough for a cycle, and one far out."""
    near = rng.randint(-120, 120)
    far = rng.choice(FAR) + rng.randint(-120, 120)
    found = []
    for centre in (near, far):
        width = rng.randint(-1, 80)
        if centre == near and rng.random() < 0.3:
            width = rng.randint(device.dimension - 1, 3 * device.dimension)
        found.append((centre, centre + width))
    return found


def probes(rng: random.Random, lo: int) -> list:
    values = [lo + rng.randint(-20, 100) for _ in range(rng.randint(0, 200))]
    if values and rng.random() < 0.15:
        values[rng.randrange(len(values))] = rng.choice(ODD_VALUES)
    return values


def superposition(rng: random.Random, lo: int, scale: float) -> ModeVector:
    return ModeVector(
        {
            (rng.choice(PATHS), lo + rng.randint(-12, 12)): scale
            * complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            for _ in range(rng.randint(1, 6))
        }
    )


def certified(device, lo: int, hi: int, config: SimulationConfig) -> bool:
    """The certificate's verdict on the window [lo, hi] of *device*, as
    `strict_pieces` routes it."""
    return _certified(_Window.routed(device, lo, hi), config)


def dump(seed: int, count: int, out) -> None:
    rng = random.Random(seed)
    tolerance = simulation.NORM_TOLERANCE
    for n in range(count):
        name, device = rng.choice((netlist, gate, wired_graph))(rng)
        out.write(f"{n} device {name}\n")
        out.write(f"{n} repr: {outcome(lambda: repr(device))}\n")
        out.write(f"{n} dot: {outcome(lambda: export_dot(device))}\n")
        if isinstance(device, Netlist):
            out.write(f"{n} document: {outcome(lambda: serialize(device))}\n")
        simulation.NORM_TOLERANCE = -1.0 if rng.random() < 0.05 else tolerance
        try:
            for mode in (STRICT, PHYSICAL):
                config = SimulationConfig(mode)
                line = f"{n} {mode}"
                for lo, hi in windows(rng, device):
                    out.write(f"{line} pieces {lo}..{hi}: ")
                    out.write(outcome(lambda: strict_pieces(device, lo, hi)) + "\n")
                    out.write(f"{line} certified {lo}..{hi}: ")
                    out.write(outcome(lambda: certified(device, lo, hi, config)) + "\n")
                    out.write(f"{line} window {lo}..{hi}: ")
                    out.write(outcome(lambda: window_permutation(device, lo, hi, config)) + "\n")
                    values = probes(rng, lo)
                    out.write(f"{line} probe {values!r}: ")
                    out.write(outcome(lambda: probe_permutation(device, values, config)) + "\n")
                    out.write(f"{line} cycles {lo}..{hi}: ")
                    out.write(outcome(lambda: discover_cycles(device, lo, hi, config)) + "\n")
                lo = rng.choice((rng.randint(-120, 120), rng.choice(FAR)))
                for scale in SCALES:
                    state = superposition(rng, lo, scale)
                    out.write(f"{line} transform {typed(state)}: ")
                    out.write(outcome(lambda: transform(device, config)(state)) + "\n")
                d = rng.randint(2, 129)
                variant = rng.choice(VARIANTS)
                shift = 0 if variant == "simplified" else rng.randint(-2 * d, 2 * d)
                out.write(f"{line} verify {d} {variant} {shift}: ")
                out.write(outcome(lambda: verify_gate(d, variant, shift, config)) + "\n")
        finally:
            simulation.NORM_TOLERANCE = tolerance


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit("usage: dump_outputs.py SEED COUNT")
    dump(int(sys.argv[1]), int(sys.argv[2]), sys.stdout)
