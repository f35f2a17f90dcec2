"""`discover_cycles` proves its window from residue-class pieces and probes
only the ends of each piece, in both modes; these tests hold its results to
the value-by-value read and per-edge re-check it replaced, and check the
pieces of each cycle-search window with the window certificate of
`reference_netlist`.

`check_cycle_dimension` is the differential for one d, in both modes, run here
for every d in 2..300 and by ``tools/verify_differential.py cycles`` up to any
bound.
"""

import dataclasses
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from oamcycle import analysis, simulation
from oamcycle.analysis import CycleSet, discover_cycles
from oamcycle.model import Hologram, Netlist, OamBeamSplitter, r_path
from oamcycle.portgraph import UNWIRED, PortGraph, netlist_to_portgraph
from oamcycle.simulation import SimulationConfig, _resimulate, strict_pieces, window_permutation
from oamcycle.synthesis import VARIANTS, device_for, simplify, synth_arbitrary, synth_variant
from reference_netlist import check_window_certificate
from test_strict_permutation import (
    GCD_DROP,
    MODES,
    folded_gates,
    graph,
    netlists,
    stay_then_add_2,
    windows,
    wired_graphs,
)
from test_verify_pieces import with_one_charge_flipped

R0, R1, R2 = r_path(0), r_path(1), r_path(2)


def reference_discover_cycles(device, lo, hi, config):
    """The cycles `discover_cycles` found before pieces: the window read value
    by value with `window_permutation`, the map walked, and every edge of each
    cycle probed again on the packet engine, after the walk."""
    d = device.dimension
    mapping = window_permutation(device, lo, hi, config)
    cycles = []
    for start in range(lo, hi + 1):
        walk, current = {}, start
        while current in mapping:
            walk[current] = len(walk)
            current = mapping.pop(current)
        if current in walk and len(walk) - walk[current] == d:
            loop = list(walk)[-d:]
            first = loop.index(min(loop))
            cycles.append(tuple(loop[first:] + loop[:first]))
    cycles.sort()
    members = (ell for cycle in cycles for ell in cycle)
    successors = (image for cycle in cycles for image in cycle[1:] + cycle[:1])
    _resimulate(device, members, successors, config)
    return [CycleSet(cycle) for cycle in cycles]


def outcome(find):
    """What *find* returns, or the type and message of the exception it raises."""
    try:
        return find()
    except Exception as exc:  # noqa: BLE001 - every exception is compared
        return type(exc), str(exc)


def assert_same_cycles(device, lo, hi, config=SimulationConfig()):
    """Assert that `discover_cycles` returns, or raises, what
    `reference_discover_cycles` does; return it."""
    got = outcome(lambda: discover_cycles(device, lo, hi, config))
    want = outcome(lambda: reference_discover_cycles(device, lo, hi, config))
    assert got == want, (lo, hi, config.mode)
    return got


def cycle_devices(d):
    """``(name, device)`` at dimension d: the standard netlist and its folded
    graph, then each variant's device, on a shift drawn from
    ``random.Random(d)``, with one hologram charge flipped, drawn too."""
    rng = random.Random(d)
    gate = synth_arbitrary(d)
    made = [("netlist", gate), ("folded", simplify(gate))]
    for variant in VARIANTS:
        shift = 0 if variant == "simplified" else rng.randint(-d, d)
        device = device_for(synth_variant(d, variant, shift), variant)
        made.append((f"{variant} flipped", with_one_charge_flipped(device, rng)))
    return made


def check_cycle_dimension(d):
    """Assert that `discover_cycles` over the window -4d..4d returns or raises
    what `reference_discover_cycles` does, in each mode of `MODES`, for every
    device `cycle_devices` makes at dimension d, and that
    `check_window_certificate` accepts the pieces of the netlist's and the
    folded graph's window, which hold the canonical cycle in each mode."""
    for name, device in cycle_devices(d):
        unbroken = not name.endswith("flipped")
        if unbroken:
            check_window_certificate(device, strict_pieces(device, -4 * d, 4 * d), -4 * d, 4 * d)
        for mode in MODES:
            cycles = assert_same_cycles(device, -4 * d, 4 * d, SimulationConfig(mode))
            assert not unbroken or CycleSet(tuple(range(d))) in cycles, (d, name, mode)


def test_pieces_find_the_cycles_the_value_by_value_read_finds():
    for d in range(2, 301):
        check_cycle_dimension(d)


@settings(max_examples=300, deadline=None)
@given(st.one_of(netlists(), folded_gates(), wired_graphs()), windows())
@example(GCD_DROP, (0, 9))
@example(Netlist((OamBeamSplitter(1, R0, R1), Hologram(R0, 15)), R0, R0, 2), (0, 9))
def test_drawn_devices_and_windows_match_the_reference(device, window):
    # loops, unwired and leaking exits, entries on terminals, drops, and
    # windows empty (hi = lo - 1) or narrower than a cycle; in the second
    # example the even values leave at +15, every image above the window
    for mode in MODES:
        assert_same_cycles(device, *window, SimulationConfig(mode))


def non_injective():
    """Even values go through an order-2 splitter to +2 or -2 holograms, odd
    ones to a +1 hologram, and all three exits wire to r0."""
    nodes = (
        OamBeamSplitter(1, R0, R1),
        OamBeamSplitter(2, R0, R2),
        Hologram(R0, 2),
        Hologram(R2, -2),
        Hologram(R1, 1),
    )
    wiring = [UNWIRED] * 20
    wiring[0], wiring[1], wiring[4], wiring[5] = 4, 16, 8, 12
    wiring[8] = wiring[12] = wiring[16] = ~1
    return PortGraph(nodes, tuple(wiring), {R0: 0}, (None, R0), R0, R0, 2)


def swap_pairs():
    """Multiples of 4 stay at the order-2 splitter and gain 2, the other even
    values cross and lose 2, both onto r0: the 2-cycles {4k, 4k + 2}, while
    the odd values, non-multiples there, are dropped in strict mode."""
    nodes = (OamBeamSplitter(2, R0, R1), Hologram(R0, 2), Hologram(R1, -2))
    wiring = [UNWIRED] * 12
    wiring[0], wiring[1], wiring[4], wiring[8] = 4, 8, ~1, ~1
    return PortGraph(nodes, tuple(wiring), {R0: 0}, (None, R0), R0, R0, 2)


def recombine():
    """Two order-2 splitters between r0 and r1, read from r0 to r1 at
    dimension 1: the even values leave on r0, and the odd ones, dropped in
    strict mode, split at the first and recombine onto r1 at the second in
    physical mode, each a cycle of its own."""
    splitter = OamBeamSplitter(2, R0, R1)
    graph = netlist_to_portgraph(Netlist((splitter, splitter), R0, R1, 2))
    return dataclasses.replace(graph, dimension=1)


# the interferometer drops odd values in strict mode and recombines them in
# physical mode; the one-hologram graph of dimension 1 has no entry for its
# input path, so every window value is a cycle of its own
SPECIAL = {
    "non-injective": (non_injective(), [(-4, 5), (-9, 9), (0, 0)]),
    "swap-pairs": (swap_pairs(), [(-8, 9), (0, 2), (1, 7)]),
    "gcd-drop": (GCD_DROP, [(0, 9), (-16, 16)]),
    "drop-half": (stay_then_add_2(2), [(-8, 8), (0, 3)]),
    "interferometer": (
        Netlist((OamBeamSplitter(2, R0, R1), OamBeamSplitter(2, R0, R1)), R0, R0, 2),
        [(-3, 3), (-8, 9)],
    ),
    "recombine": (recombine(), [(-3, 3)]),
    "no-entry": (
        PortGraph((Hologram(R1, 5),), (~1, ~0, ~0, ~0), {R1: 0}, (None, R0), R0, R0, 1),
        [(-3, 3), (4, 3)],
    ),
    "no-entry-leak": (graph([Hologram(R1, 5)], [~1, ~0, ~0, ~0], {R1: 0}, output=R1), [(-2, 2)]),
    "gate-11": (synth_arbitrary(11), [(0, 10), (0, 9), (-3, 3), (11, 15), (5, 4), (0, -1)]),
    "folded-11": (simplify(synth_arbitrary(11)), [(0, 10), (2, 12), (7, 6)]),
}


@pytest.mark.parametrize("name", SPECIAL)
def test_special_windows_match_the_reference(name):
    device, windows = SPECIAL[name]
    for lo, hi in windows:
        for mode in MODES:
            assert_same_cycles(device, lo, hi, SimulationConfig(mode))


def test_values_split_and_recombined_in_the_window_close_cycles():
    # the physical hand-off probes the odd values no piece holds, and each
    # lands on the output path inside the window, so it fills in their steps
    device, _ = SPECIAL["recombine"]
    physical = discover_cycles(device, -3, 3, SimulationConfig("physical"))
    assert physical == [CycleSet((k,)) for k in (-3, -1, 1, 3)]
    assert discover_cycles(device, -3, 3) == []


def test_windows_with_dropped_classes_are_read_value_by_value(monkeypatch):
    # a dropped class proves nothing, so these windows take the per-edge
    # re-check: the swap-pairs device's 2-cycles are probed member by member
    for name in ("swap-pairs", "gcd-drop", "drop-half", "interferometer"):
        device, ((lo, hi), *_) = SPECIAL[name]
        assert strict_pieces(device, lo, hi)[1], name
    probed = []
    real = simulation._resimulate

    def recording(device, domain, expected, config):
        domain = list(domain)
        probed.append(domain)
        return real(device, domain, expected, config)

    for module in (analysis, simulation):  # the per-edge re-check, and the certificate's
        monkeypatch.setattr(module, "_resimulate", recording)
    cycles = discover_cycles(swap_pairs(), -8, 9)
    assert cycles == [CycleSet((k, k + 2)) for k in (-8, -4, 0, 4)]
    assert probed == [[-8, -6, -4, -2, 0, 2, 4, 6]]


@pytest.mark.parametrize("mode", MODES)
def test_an_engine_error_in_the_end_probes_takes_the_old_path(monkeypatch, mode):
    # every probe fails its norm check: the end probes prove nothing, and the
    # per-edge re-check raises the error, or finds no cycle to re-check
    monkeypatch.setattr(simulation, "NORM_TOLERANCE", -1.0)
    config = SimulationConfig(mode)
    for lo, hi in ((0, 10), (11, 15)):
        assert_same_cycles(synth_arbitrary(11), lo, hi, config)
    with pytest.raises(simulation.NormDrift):
        discover_cycles(synth_arbitrary(11), 0, 10, config)
