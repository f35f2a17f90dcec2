"""The residue-class engine against the packet engine: `window_permutation`
must return, and raise, what probing the same window value by value does,
in both modes.  So must `probe_permutation`, whose `_probes` walks each
basis probe as one packet; that walk must read what the breadth-first loop
of `reference_netlist` does, value by value and bit for bit, and the
engine's loop must return what that reference loop does on any state.
Each state walked packet by packet must come out as it does with the state
run on the engine's loop."""

import enum
import math

import pytest
from hypothesis import example, given, settings, strategies as st
from reference_netlist import reference_propagate

from oamcycle import analysis, simulation
from oamcycle.elements import NonMultipleMode, z_phase
from oamcycle.model import (
    PRUNE_THRESHOLD,
    Hologram,
    ModeVector,
    Netlist,
    OamBeamSplitter,
    PathLabel,
    ZPlate,
    _image,
    extract_permutation,
    r_path,
    s_path,
)
from oamcycle.portgraph import PortGraph
from oamcycle.simulation import (
    PHYSICAL,
    STRICT,
    HopBudgetExceeded,
    NormDrift,
    SimulationConfig,
    _Window,
    probe_permutation,
    strict_pieces,
    transform,
    window_permutation,
)
from oamcycle.synthesis import VARIANTS, device_for, simplify, synth_arbitrary, synth_variant

R0, R1 = r_path(0), r_path(1)
PATHS = (r_path(0), r_path(1), r_path(2), s_path(0), s_path(1))
ERRORS = (HopBudgetExceeded, NormDrift, ValueError, TypeError)
MODES = (STRICT, PHYSICAL)


def outcome(read):
    try:
        return read()
    except ERRORS as exc:
        return type(exc), str(exc)


def by_value(device, domain, config):
    return outcome(
        lambda: extract_permutation(
            transform(device, config), domain, device.input_path, device.output_path
        )
    )


def assert_engines_agree(device, lo, hi):
    for mode in MODES:
        config = SimulationConfig(mode)
        by_class = outcome(lambda: window_permutation(device, lo, hi, config))
        assert by_class == by_value(device, range(lo, hi + 1), config), mode


def graph(nodes, wiring, entries, terminals=(None, R0), output=R0):
    return PortGraph(
        nodes=tuple(nodes),
        wiring=tuple(wiring),
        entries=entries,
        terminals=tuple(terminals),
        input_path=R0,
        output_path=output,
        dimension=2,
    )


# --- strategies -----------------------------------------------------------------


def elements():
    path = st.sampled_from(PATHS)
    return st.one_of(
        st.tuples(st.integers(1, 12), path, path)
        .filter(lambda t: t[1] != t[2])
        .map(lambda t: OamBeamSplitter(*t)),
        st.builds(Hologram, path, st.integers(-20, 20)),
        st.builds(ZPlate, path, st.integers(2, 12)),
    )


@st.composite
def netlists(draw):
    items = draw(st.lists(elements(), min_size=1, max_size=12))
    used = sorted({p for el in items for p in (
        (el.port_x, el.port_y) if isinstance(el, OamBeamSplitter) else (el.path,)
    )})
    return Netlist(
        tuple(items), draw(st.sampled_from(used)), draw(st.sampled_from(used)), 2
    )


@st.composite
def folded_gates(draw):
    d = draw(st.integers(2, 300))
    variant = draw(st.sampled_from(VARIANTS))
    shift = 0 if variant == "simplified" else draw(st.integers(-2 * d, 2 * d))
    return device_for(synth_variant(d, variant, shift), variant)


@st.composite
def wired_graphs(draw):
    """Arbitrary wiring: loops, backward ports, unwired and leaking exits."""
    nodes = draw(st.lists(elements(), min_size=1, max_size=5))
    terminals = (None, R0, R1)
    slots = st.one_of(
        st.integers(0, 4 * len(nodes) - 1), st.sampled_from([~0, ~1, ~1, ~2])
    )
    wiring = draw(st.lists(slots, min_size=4 * len(nodes), max_size=4 * len(nodes)))
    entry = draw(st.one_of(st.integers(0, 4 * len(nodes) - 1), st.sampled_from([~0, ~1])))
    return graph(nodes, wiring, {R0: entry}, terminals, draw(st.sampled_from((R0, R1))))


def windows():
    centre = st.one_of(
        st.integers(-120, 120), st.sampled_from([10**17, -(10**17), 2**60 + 3])
    )
    return st.tuples(centre, st.integers(-1, 80)).map(lambda t: (t[0], t[0] + t[1]))


# --- differential, in both modes --------------------------------------------------


# odd values reach the order-4 splitter as a class mod 2, which holds no
# multiple of 4, so the class loop drops it whole on the gcd test
GCD_DROP = Netlist((OamBeamSplitter(1, R0, R1), OamBeamSplitter(4, R0, R1)), R0, R0, 2)


@settings(max_examples=300, deadline=None)
@given(st.one_of(netlists(), folded_gates(), wired_graphs()), windows())
@example(GCD_DROP, (0, 9))
def test_classes_match_value_by_value_probes(device, window):
    assert_engines_agree(device, *window)


@settings(max_examples=200, deadline=None)
@given(st.one_of(netlists(), folded_gates(), wired_graphs()), windows())
@example(GCD_DROP, (0, 9))
def test_pieces_and_drops_account_for_every_window_value(device, window):
    # with no failure, each window value is a member of one piece, or of a
    # dropped class that it left as a non-multiple of the splitter's order
    lo, hi = window
    pieces, dropped, failure = strict_pieces(device, lo, hi)
    if failure is not None:
        return
    graph = simulation._graph(device)
    for ell in range(lo, hi + 1):
        held = [p for p in pieces if ell >= p[0] and (ell - p[0]) % p[1] == 0]
        left = [
            (first, q, offset, slot) for first, q, offset, slot in dropped
            if ell >= first and (ell - first) % q == 0
            and (ell + offset) % graph.nodes[slot >> 2].m
        ]
        assert len(held) + bool(left) == 1, (ell, held, left)


@settings(max_examples=300, deadline=None)
@given(st.one_of(netlists(), folded_gates(), wired_graphs()), windows())
@example(synth_variant(500), (0, 499))
def test_sibling_pieces_take_different_routes(device, window):
    # where a class splits at a splitter its two halves leave on different
    # ports, so with nothing dropped or failing every piece has a route and
    # no two share one: the certificate loses no window to its route check
    lo, hi = window
    graph = simulation._graph(device)
    window = _Window(lo, hi, *strict_pieces(graph, lo, hi))
    if window.dropped or window.failure is not None or graph.input_path not in graph.entries:
        return
    routes = [analysis._routes(graph, window, piece) for piece in window.pieces]
    assert all(type(route) is int for route in routes), (window.pieces, routes)
    assert len(set(routes)) == len(routes), (window.pieces, routes)


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("d", [2, 3, 11, 64, 500])
def test_gate_windows_match(variant, d):
    shift = 0 if variant == "simplified" else 7
    device = device_for(synth_variant(d, variant, shift), variant)
    assert_engines_agree(device, -4 * d, 4 * d)


def test_physical_interferometer_recombines_split_values():
    # odd values split at the first order-2 splitter and recombine at the
    # second: physically every odd value leaves on r1 whole, while strictly
    # the multiples of 2 end on r0 and the odd values are dropped
    interferometer = Netlist(
        (OamBeamSplitter(2, R0, R1), OamBeamSplitter(2, R0, R1)), R0, R1, 2
    )
    physical = window_permutation(interferometer, -3, 3, SimulationConfig(PHYSICAL))
    assert physical == {-3: -3, -1: -1, 1: 1, 3: 3}
    assert window_permutation(interferometer, -3, 3) == {}
    assert_engines_agree(interferometer, -3, 3)


def stay_then_add_2(m):
    return Netlist((OamBeamSplitter(m, R0, R1), Hologram(R0, 2)), R0, R0, 2)


@pytest.mark.parametrize(
    "device, hi, images, split",
    [
        (stay_then_add_2(1), 999, {ell: ell + 2 for ell in range(0, 1000, 2)}, []),
        (
            stay_then_add_2(2),
            999,
            {ell: ell + 2 for ell in range(0, 1000, 4)},
            list(range(1, 1000, 2)),
        ),
        # 4 crosses the order-4 splitter whole to r1; the odd values, dropped
        # by the gcd test, and 2 and 6 split there
        (GCD_DROP, 9, {0: 0, 8: 8}, [1, 2, 3, 5, 6, 7, 9]),
    ],
    ids=["1-split0", "2-split1", "gcd-drop"],
)
def test_physical_read_probes_only_split_values(monkeypatch, device, hi, images, split):
    # a class that reaches any terminal met only multiples, where both modes
    # route alike, so only the values split at a non-multiple are probed;
    # here the multiples that cross leak to r1 and are not probed
    probed = []
    real = simulation._probes

    def recording(device, values, config):
        values = list(values)
        probed.extend(values)
        return real(device, values, config)

    monkeypatch.setattr(simulation, "_probes", recording)
    assert window_permutation(device, 0, hi) == images
    assert window_permutation(device, 0, hi, SimulationConfig(PHYSICAL)) == images
    assert probed == split


# --- probes ---------------------------------------------------------------------


def domains():
    """Windows of up to 192 values, and lists of up to 128 values in any
    order, with repeats."""
    centre = st.one_of(
        st.integers(-120, 120), st.sampled_from([10**17, -(10**17), 2**60 + 3])
    )
    window = st.tuples(centre, st.integers(0, 192)).map(lambda t: range(t[0], t[0] + t[1]))
    values = st.tuples(centre, st.lists(st.integers(-40, 40), max_size=128)).map(
        lambda t: [t[0] + k for k in t[1]]
    )
    return st.one_of(window, values)


@settings(max_examples=200, deadline=None)
@given(st.one_of(netlists(), folded_gates(), wired_graphs()), domains())
def test_probes_match_value_by_value_probes(device, domain):
    for mode in MODES:
        config = SimulationConfig(mode)
        probed = outcome(lambda: probe_permutation(device, iter(domain), config))
        assert probed == by_value(device, domain, config), mode


PARTS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.6, -0.8, 5e-324, 1e-300, math.inf, math.nan]),
    st.floats(-2.0, 2.0),
)
ELLS = st.one_of(st.integers(-40, 40), st.sampled_from([10**17, -(10**17), 2**60 + 3]))
DEVICES = st.one_of(netlists(), folded_gates(), wired_graphs())
PER_NODE = st.sampled_from([1, 2, simulation.HOPS_PER_NODE])


def landed(run):
    """The terminal sums *run* returns, in order, with their parts as float
    hex, so that signed zeros and NaNs count; or the type and message of the
    error it raises."""
    try:
        out = run()
    except (NonMultipleMode, OverflowError, *ERRORS) as exc:
        return type(exc), str(exc)
    return [(key, amp.real.hex(), amp.imag.hex()) for key, amp in out.items()]


@st.composite
def packet_runs(draw):
    """``(graph, packets, norm, hops per node)`` for `_propagate`: one state
    of up to six packets, at any entry slot (a terminal too), with signed
    zeros, dust, infinities and NaNs among the amplitude parts, at norms that
    make its packets dust or not, and hop budgets that short routes reach."""
    graph = simulation._graph(draw(DEVICES))
    slots = st.sampled_from(sorted(graph.entries.values()))
    packets = {}
    for _ in range(draw(st.integers(0, 6))):
        packets[draw(slots), draw(ELLS)] = complex(draw(PARTS), draw(PARTS))
    norm = draw(st.sampled_from([1.0, 0.0, 1e-17, 1e-200, 1e200]))
    return graph, packets, norm, draw(PER_NODE)


# strict failures beside healthy packets: a state whose two packets both
# fail, one whose other packet lands, and one whose other packet loops
# until the hop budget; each raises the error its first failing packet met
SPLIT_R0 = Netlist((OamBeamSplitter(2, R0, R1),), R0, R0, 2)
SPLIT_LOOP = graph([OamBeamSplitter(2, R0, R1)], [0, ~1, ~0, ~0], {R0: 0})


@settings(max_examples=300, deadline=None)
@given(packet_runs())
@example((simulation._graph(SPLIT_R0), {(0, 1): 0.6 + 0j, (0, 3): 0.8 + 0j}, 1e-17, 10))
@example((simulation._graph(SPLIT_R0), {(0, 5): 0.6 + 0j, (0, 4): 0.8 + 0j}, 1.0, 10))
@example((SPLIT_LOOP, {(0, 1): 0.6 + 0j, (0, 0): 0.8 + 0j}, 1e200, 10))
@example((SPLIT_LOOP, {(0, 1): 0.6 + 0j, (0, 0): 0.8 + 0j}, 1.0, 10))
@example((simulation._graph(SPLIT_R0), {(0, 2): 0.6 + 0j, (0, 4): 0.8 + 0j}, 1.0, 10))
def test_the_packet_loop_matches_the_reference_loop(run):
    graph_of_device, packets, norm, per_node = run
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simulation, "HOPS_PER_NODE", per_node)
        for mode in MODES:
            config = SimulationConfig(mode)
            want = landed(lambda: reference_propagate(graph_of_device, dict(packets), norm, config))
            got = landed(lambda: simulation._propagate(graph_of_device, packets, norm, config))
            assert got == want, mode


def reference_probes(graph_of_device, values, config):
    """What `simulation._probes` yields for *values*, read value by value:
    each probe run alone by `reference_propagate`, its terminal sums named
    by their labels and read through `simulation._finish`."""
    source, target = graph_of_device.input_path, graph_of_device.output_path
    entry = graph_of_device.entries.get(source)
    for ell in values:
        if entry is None:
            yield ell, ell if source == target else None
            continue
        try:
            out = reference_propagate(graph_of_device, {(entry, ell): 1.0 + 0j}, 1.0, config)
        except NonMultipleMode:
            yield ell, None
            continue
        named = {(graph_of_device.terminals[t], e): amp for (t, e), amp in out.items()}
        yield ell, _image(simulation._finish(named, 1.0), target)


@st.composite
def probe_runs(draw):
    """``(graph, values, hops per node, prune threshold)`` for `_probes`: up
    to eight values, hop budgets that short routes reach, and prune
    thresholds at which a probe's own packet, or one a plate scales by an
    ulp, is dust."""
    graph_of_device = simulation._graph(draw(DEVICES))
    values = draw(st.lists(ELLS, max_size=8))
    prune = draw(st.sampled_from([PRUNE_THRESHOLD, 1.0 - 2.0**-53, 1.0, 2.0]))
    return graph_of_device, values, draw(PER_NODE), prune


def probe_run(device, values, per_node=simulation.HOPS_PER_NODE, prune=PRUNE_THRESHOLD):
    return simulation._graph(device), values, per_node, prune


@settings(max_examples=400, deadline=None)
@given(probe_runs())
# physical: 1 splits at the order-2 splitter and goes to the loop, after a walk
@example(probe_run(SPLIT_R0, [2, 1, 0]))
# 0 loops on the splitter until the hop budget, above the cut and below it
@example(probe_run(SPLIT_LOOP, [2, 0]))
@example(probe_run(SPLIT_LOOP, [2, 0], 1, 2.0))
# 3 is no multiple of 2; the entry on a terminal lands at once, as given
@example(probe_run(SPLIT_R0, [3, 4]))
@example(probe_run(graph([Hologram(R0, 1)], [~1, ~0, ~0, ~0], {R0: ~1}), [5], 1, 2.0))
# no cut at the first hop: a probe lands after one hop above any threshold,
# and is dust at the second
@example(probe_run(Netlist((Hologram(R0, 1),), R0, R0, 2), [0], 10, 2.0))
@example(probe_run(Netlist((Hologram(R0, 1), Hologram(R0, 1)), R0, R0, 2), [0], 10, 2.0))
# physical: 2 crosses two order-1 splitters, and only each hop's sum from 0j
# clears the signed zero the second crossing leaves
@example(probe_run(Netlist((OamBeamSplitter(1, R0, R1),) * 2, R0, R0, 2), [2]))
# a plate scales the packet to an ulp under 1, at or below one threshold
@example(probe_run(Netlist((ZPlate(R0, 3), Hologram(R0, 1)), R0, R0, 3), [1], 10, 1.0 - 2.0**-53))
# physical: the walk checks the cut only where the amplitude changes and the
# packet goes on to a node.  1 crosses an order-1 splitter onto a terminal,
# where no cut applies, or onto a hologram, whose hop drops it as dust
@example(probe_run(Netlist((OamBeamSplitter(1, R0, R1),), R0, R1, 2), [0, 1], 10, 1.0))
@example(probe_run(Netlist((OamBeamSplitter(1, R0, R1),), R0, R1, 2), [0, 1], 10, 2.0))
@example(
    probe_run(Netlist((OamBeamSplitter(1, R0, R1), Hologram(R1, 1)), R0, R1, 2), [0, 1], 10, 1.0)
)
@example(
    probe_run(Netlist((OamBeamSplitter(1, R0, R1), Hologram(R1, 1)), R0, R1, 2), [0, 1], 10, 2.0)
)
# a plate last before the terminal scales the packet, uncut, as it lands:
# 0 reaches it as 1, and leaves it an ulp under 1
@example(probe_run(Netlist((Hologram(R0, 1), ZPlate(R0, 3)), R0, R0, 3), [0, 1], 10, 1.0 - 2.0**-53))
# past the second hop too: 0 reaches the plate as 1 and is dust after it
@example(
    probe_run(
        Netlist((Hologram(R0, 1), ZPlate(R0, 3), Hologram(R0, 1)), R0, R0, 3), [0], 10, 1.0 - 2.0**-53
    )
)
# no element changes the unit packet, which is dust at the second hop
@example(probe_run(Netlist((Hologram(R0, 1), Hologram(R0, 1)), R0, R0, 2), [0], 10, 1.0))
# at one hop a node, a route of two hops through one node overruns the budget
@example(probe_run(graph([Hologram(R0, 1)], [2, ~0, ~1, ~0], {R0: 0}), [0], 1))
# an unwired exit
@example(probe_run(graph([OamBeamSplitter(1, R0, R1)], [~1, ~0, ~0, ~0], {R0: 0}), [0, 1, 2]))
# physical: 0 reaches the splitter as 1 at the second hop and splits, and its
# crossing half overruns the budget of 3 at its fourth hop, counted from the
# entry, not from the split
@example(
    probe_run(
        graph(
            [Hologram(R0, 1), OamBeamSplitter(2, R0, R1), Hologram(R1, 1)],
            [4, ~0, ~0, ~0, ~1, 8, ~0, ~0, 10, ~0, ~2, ~0],
            {R0: 0},
            (None, R0, R1),
        ),
        [0],
        1,
    )
)
def test_walked_probes_match_the_breadth_first_loop(run):
    graph_of_device, values, per_node, prune = run
    finished = []
    finish = simulation._finish

    def recording(out, norm_in):
        finished.append([(key, amp.real.hex(), amp.imag.hex()) for key, amp in out.items()])
        return finish(out, norm_in)

    def read(probes):
        # the pairs yielded up to the error raised, if any, and each landing
        # `_finish` read meanwhile, its parts as float hex
        finished.clear()
        yielded = []
        try:
            yielded.extend(probes)
        except ERRORS as exc:
            return yielded, (type(exc), str(exc)), finished[:]
        return yielded, None, finished[:]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simulation, "HOPS_PER_NODE", per_node)
        patch.setattr(simulation, "PRUNE_THRESHOLD", prune)
        patch.setattr(simulation, "_finish", recording)
        for mode in MODES:
            config = SimulationConfig(mode)
            got = read(simulation._probes(graph_of_device, values, config))[:2]
            assert got == read(reference_probes(graph_of_device, values, config))[:2], mode
        # below a zero tolerance no landing is read off its packet: each goes
        # through `_finish`, which shows its terminal sums bit for bit
        patch.setattr(simulation, "NORM_TOLERANCE", -1.0)
        for mode in MODES:
            config = SimulationConfig(mode)
            for ell in values:
                got = read(simulation._probes(graph_of_device, [ell], config))
                assert got == read(reference_probes(graph_of_device, [ell], config)), (mode, ell)


FINITE_PARTS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.6, -0.8, 5e-324, 1e-300]), st.floats(-2.0, 2.0)
)


@st.composite
def state_runs(draw):
    """``(graph, components, hops per node, prune threshold)`` for `_run`: up
    to six components, on the graph's entry paths and on r1, which may have
    none, so that they pass through; hop budgets that short routes reach,
    and prune thresholds at which a packet, or one a plate scales by an
    ulp, is dust."""
    graph_of_device = simulation._graph(draw(DEVICES))
    paths = st.sampled_from(sorted({*graph_of_device.entries, R1}))
    components = {}
    for _ in range(draw(st.integers(0, 6))):
        components[draw(paths), draw(ELLS)] = complex(draw(FINITE_PARTS), draw(FINITE_PARTS))
    prune = draw(st.sampled_from([PRUNE_THRESHOLD, 1.0 - 2.0**-53, 1.0, 2.0]))
    return graph_of_device, components, draw(PER_NODE), prune


def state_run(device, components, per_node=simulation.HOPS_PER_NODE, prune=PRUNE_THRESHOLD):
    return simulation._graph(device), components, per_node, prune


def loop_only(graph_of_device, packets, norm, config):
    """A walk that gets None for every packet, so `_run` runs each state on
    the packet loop."""
    return (None for _ in packets)


# two components land on one key, after one hop each or after one and two
ONE_KEY = graph(
    [Hologram(R0, 1), Hologram(R1, 2)],
    [~1, ~0, ~0, ~0, ~1, ~0, ~0, ~0],
    {R0: 0, R1: 4},
    (None, R0, R1),
)
ONE_KEY_LATER = graph(
    [Hologram(R0, 1), Hologram(R1, 1), Hologram(R1, 1)],
    [~1, ~0, ~0, ~0, 8, ~0, ~0, ~0, ~1, ~0, ~0, ~0],
    {R0: 0, R1: 4},
    (None, R0, R1),
)
# r0 and r1 meet at the third hologram after one hop each, and go on as one
MERGE_IN_FLIGHT = graph(
    [Hologram(R0, 1), Hologram(R1, 1), Hologram(R1, 1)],
    [8, ~0, ~0, ~0, 8, ~0, ~0, ~0, ~1, ~0, ~0, ~0],
    {R0: 0, R1: 4},
    (None, R0, R1),
)

# r0 and r1 meet at a hologram ahead of a splitter whose order is past the
# float range, where physical amplitudes raise OverflowError
HUGE_ORDER = graph(
    [Hologram(R0, 1), Hologram(R1, 1), Hologram(R0, 1), OamBeamSplitter(10**400, R0, R1)],
    [8, ~0, ~0, ~0, 8, ~0, ~0, ~0, 12, ~0, ~0, ~0, ~1, ~1, ~0, ~0],
    {R0: 0, R1: 4},
)


@settings(max_examples=300, deadline=None)
@given(state_runs())
# physical: 1 and 3 split at the first order-2 splitter and recombine at the
# second; strict: 1 is no multiple of 2
@example(
    state_run(
        Netlist((OamBeamSplitter(2, R0, R1), OamBeamSplitter(2, R0, R1)), R0, R1, 2),
        {(R0, 1): 0.6, (R0, 3): 0.8},
    )
)
# strict: 5 is no multiple of 2, after 2 has landed
@example(state_run(SPLIT_R0, {(R0, 2): 0.6, (R0, 5): 0.8}))
# a plate scales the packet to an ulp under 1, dust past the second hop
@example(
    state_run(
        Netlist((Hologram(R0, 1), ZPlate(R0, 3), Hologram(R0, 1)), R0, R0, 3),
        {(R0, 0): 1.0},
        10,
        1.0 - 2.0**-53,
    )
)
# no element changes the packet, which is dust at the second hop
@example(state_run(Netlist((Hologram(R0, 1), Hologram(R0, 1)), R0, R0, 2), {(R0, 0): 1.0}, 10, 1.0))
# at one hop a node, a route of two hops through one node overruns the budget
@example(state_run(graph([Hologram(R0, 1)], [2, ~0, ~1, ~0], {R0: 0}), {(R0, 0): 1.0}, 1))
# physical: 1 splits at the order-10**16 splitter, and its crossing dust is
# still in flight at the budget of two hops, which ends the run normally
@example(
    state_run(
        graph(
            [Hologram(R0, 0), OamBeamSplitter(10**16, R0, R1)],
            [4, ~0, ~0, ~0, ~1, 0, ~0, ~0],
            {R0: 0},
        ),
        {(R0, 1): 1.0},
        1,
    )
)
# 1 crosses to the y port, which feeds nothing
@example(
    state_run(
        graph([OamBeamSplitter(1, R0, R1)], [~1, ~0, ~0, ~0], {R0: 0}), {(R0, 0): 0.6, (R0, 1): 0.8}
    )
)
# r0 enters on a terminal and lands at once, before r1, which it follows in
# the state
@example(
    state_run(
        graph([Hologram(R1, 1)], [~1, ~0, ~0, ~0], {R0: ~2, R1: 0}, (None, R0, R1)),
        {(R1, 0): 0.6, (R0, 3): 0.8},
    )
)
@example(state_run(ONE_KEY, {(R0, 0): 0.6, (R1, -1): 0.8}))
@example(state_run(ONE_KEY_LATER, {(R1, -1): 0.8, (R0, 0): 0.6}))
# the two halves cancel where they meet, and nothing lands
@example(state_run(MERGE_IN_FLIGHT, {(R0, 0): 0.6, (R1, 0): -0.6}))
@example(state_run(MERGE_IN_FLIGHT, {(R0, 0): 0.6, (R1, 0): 0.8}))
# physical: the two cancel before the splitter, which no packet of the loop
# then reaches; where they do not cancel, the loop raises OverflowError too
@example(state_run(HUGE_ORDER, {(R0, 0): 0.6, (R1, 0): -0.6}))
@example(state_run(HUGE_ORDER, {(R0, 0): 0.6, (R1, 0): 0.8}))
def test_walked_states_match_the_breadth_first_loop(run):
    graph_of_device, components, per_node, prune = run
    finished = []
    finish = simulation._finish

    def recording(out, norm_in):
        finished.append([(key, amp.real.hex(), amp.imag.hex()) for key, amp in out.items()])
        return finish(out, norm_in)

    def read(state, config):
        # the output, or the error raised, and each state `_finish` read
        finished.clear()
        return landed(lambda: simulation._run(graph_of_device, state, config)), finished[:]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simulation, "HOPS_PER_NODE", per_node)
        patch.setattr(simulation, "PRUNE_THRESHOLD", prune)
        patch.setattr(simulation, "_finish", recording)
        for scale in (1.0, 1e200, 1e-200):
            state = ModeVector({key: amp * scale for key, amp in components.items()})
            for mode in MODES:
                config = SimulationConfig(mode)
                walked = read(state, config)
                with pytest.MonkeyPatch.context() as looping:
                    looping.setattr(simulation, "_walk", loop_only)
                    assert walked == read(state, config), (scale, mode)


def drawing(values, drawn):
    """*values*, each appended to *drawn* as it is drawn."""
    for ell in values:
        drawn.append(ell)
        yield ell


def test_probing_stops_at_the_first_failure():
    # even values stay on x and map to themselves; odd ones cross to the y
    # port, which feeds nothing.  The values before the failing one map
    # whole, and no value after it is drawn
    open_y = graph([OamBeamSplitter(1, R0, R1)], [~1, ~0, ~0, ~0], {R0: 0})
    evens = list(range(0, 128, 2))
    drawn = []
    cases = (
        ([1000, 1001, 1002], ValueError, [1000, 1001]),  # 1001 crosses to the unwired port
        ([1000, True, 1001], TypeError, [1000, True]),  # 1000 is probed, True is no OAM value
        ([1001, True], ValueError, [1001]),  # the earlier value decides
    )
    for mode in MODES:
        config = SimulationConfig(mode)
        assert probe_permutation(open_y, evens, config) == {ell: ell for ell in evens}
        for tail, error, probed in cases:
            drawn.clear()
            with pytest.raises(error):
                probe_permutation(open_y, drawing(evens + tail, drawn), config)
            assert drawn == evens + probed
            assert outcome(lambda: probe_permutation(open_y, evens + tail, config)) == by_value(
                open_y, evens + tail, config
            )


def test_probes_look_up_path_labels_once_per_call(monkeypatch):
    # each probe is read by terminal index, so the label lookups of a call
    # do not grow with its domain (five hashes and two comparisons per probe
    # made 2500 and 1000 at d = 500)
    calls = []

    def counted(name):
        real = getattr(PathLabel, name)
        return lambda *args: calls.append(name) or real(*args)

    def lookups(d):
        gate = synth_arbitrary(d)
        simulation._graph(gate)  # threading the netlist is not probing
        calls.clear()
        with monkeypatch.context() as patch:
            patch.setattr(PathLabel, "__hash__", counted("__hash__"))
            patch.setattr(PathLabel, "__eq__", counted("__eq__"))
            assert probe_permutation(gate, range(d)) == {k: (k + 1) % d for k in range(d)}
        return calls.count("__hash__"), calls.count("__eq__")

    hashes, compares = lookups(500)
    assert hashes + compares <= 8
    assert lookups(37) == lookups(4096) == (hashes, compares)


# --- the single-landing readout ----------------------------------------------------


class Charge(enum.IntEnum):
    LOW = -1
    ZERO = 0
    HIGH = 7


def typed(mapping):
    return [(type(k), k, type(v), v) for k, v in mapping.items()]


def test_a_probe_off_unit_modulus_goes_through_the_general_readout(monkeypatch):
    # the plate's phase for 1 (and 4) has modulus one ulp below 1, so that
    # probe is pruned, checked and rescaled as before; 0 and 3 pick up the
    # phase 1 exactly and are read off their one packet
    plate = Netlist((ZPlate(R0, 3),), R0, R0, 3)
    assert abs(z_phase(3, 1)) == 1.0 - 2.0**-53
    finished = []
    real = simulation._finish

    def counting(out, norm_in):
        finished.extend(ell for _, ell in out)
        return real(out, norm_in)

    monkeypatch.setattr(simulation, "_finish", counting)
    for mode in MODES:
        config = SimulationConfig(mode)
        finished.clear()
        assert probe_permutation(plate, [0, 1, 3, 4], config) == {0: 0, 1: 1, 3: 3, 4: 4}
        assert finished == [1, 4]
        assert probe_permutation(plate, [1], config) == by_value(plate, [1], config)


def test_int_enum_values_are_probed_and_keyed_as_given():
    # a batch of int subclasses fails the exact-type pass and is scanned
    # value by value; none of them is rejected
    ladder = synth_arbitrary(11)
    # even values stay on x, unchanged; odd ones cross to the other terminal
    plain = graph([OamBeamSplitter(1, R0, R1)], [~1, ~2, ~0, ~0], {R0: 0}, (None, R0, R1))
    for device in (ladder, simplify(ladder), plain):
        for domain in ([Charge.ZERO, 3, Charge.HIGH, Charge.LOW], list(Charge)):
            for mode in MODES:
                config = SimulationConfig(mode)
                mapping = probe_permutation(device, domain, config)
                assert typed(mapping) == typed(by_value(device, domain, config)), mode
    assert typed(probe_permutation(ladder, list(Charge))) == [
        (Charge, 0, int, 1), (Charge, 7, int, 8)
    ]
    assert typed(probe_permutation(plain, list(Charge))) == [(Charge, 0, Charge, 0)]


def test_a_bool_is_rejected_where_it_stands():
    # the values before it are probed and yielded; no value after it is drawn
    gate = synth_arbitrary(5)
    for mode in MODES:
        config = SimulationConfig(mode)
        for bad in (True, False):
            yielded, drawn = [], []
            with pytest.raises(TypeError) as raised:
                yielded.extend(
                    simulation._probes(gate, drawing([0, Charge.HIGH, 2, bad, 3], drawn), config)
                )
            assert str(raised.value) == f"OAM value must be int, got {bad}"
            assert [ell for ell, _ in yielded] == [0, Charge.HIGH, 2]
            assert drawn == [0, Charge.HIGH, 2, bad]
            yielded, drawn = [], []
            with pytest.raises(TypeError):
                yielded.extend(simulation._probes(gate, drawing([bad, 0], drawn), config))
            assert yielded == [] and drawn == [bad]


def test_native_window_is_the_cyclic_shift():
    assert window_permutation(synth_arbitrary(500), 0, 499) == {
        k: (k + 1) % 500 for k in range(500)
    }


# --- edge cases -------------------------------------------------------------------


def test_self_loop_exceeds_hop_budget():
    loop = graph([Hologram(R0, 1)], [0, ~0, ~0, ~0], {R0: 0})
    with pytest.raises(HopBudgetExceeded):
        window_permutation(loop, -3, 3)
    assert_engines_agree(loop, -3, 3)


def test_hop_budget_is_exact(monkeypatch):
    # through the hologram and back again: two traversals for one node
    there_and_back = graph([Hologram(R0, 3)], [2, ~0, ~1, ~0], {R0: 0})
    monkeypatch.setattr(simulation, "HOPS_PER_NODE", 2)
    assert window_permutation(there_and_back, -2, 2) == {k: k for k in range(-2, 3)}
    monkeypatch.setattr(simulation, "HOPS_PER_NODE", 1)
    with pytest.raises(HopBudgetExceeded):
        window_permutation(there_and_back, -2, 2)
    assert_engines_agree(there_and_back, -2, 2)


def test_unwired_port_raises():
    # odd multiples of 2 cross to the y port, which feeds nothing
    open_y = graph([OamBeamSplitter(2, R0, R1)], [~1, ~0, ~0, ~0], {R0: 0})
    with pytest.raises(ValueError, match="unwired port"):
        window_permutation(open_y, -4, 4)
    assert_engines_agree(open_y, -4, 4)
    # values 0 and 4 stay on x; a window without odd multiples raises nothing
    assert window_permutation(open_y, -1, 1) == {0: 0}


class Mirror(Hologram):
    """A hologram subclass: the engines dispatch on exact type, so it is
    an unknown element to them."""


def test_unknown_element_raises():
    # element kinds are checked when the device is built, before any loop
    for unknown in ("mirror", Mirror(R0, 1)):
        with pytest.raises(TypeError, match="unknown element"):
            graph([unknown], [~1, ~0, ~0, ~0], {R0: 0})
        with pytest.raises(TypeError, match="unknown element"):
            Netlist((Hologram(R0, 1), unknown), R0, R0, 2)


def test_smallest_failing_value_decides_the_error():
    # even multiples of 2 stay on x and meet a hologram wired to itself,
    # odd ones cross to y and leave through an unwired port
    split = graph(
        [OamBeamSplitter(2, R0, R1), Hologram(R0, 1)], [4, ~0, ~0, ~0, 4, ~0, ~0, ~0], {R0: 0}
    )
    with pytest.raises(HopBudgetExceeded):
        window_permutation(split, 0, 2)
    with pytest.raises(ValueError):
        window_permutation(split, 1, 4)
    assert_engines_agree(split, 0, 2)
    assert_engines_agree(split, 1, 4)


def test_input_path_with_no_entry():
    bypass = graph([Hologram(R1, 5)], [~1, ~0, ~0, ~0], {R1: 0})
    assert window_permutation(bypass, -2, 2) == {k: k for k in range(-2, 3)}
    leak = graph([Hologram(R1, 5)], [~1, ~0, ~0, ~0], {R1: 0}, output=R1)
    assert window_permutation(leak, -2, 2) == {}
    for config in (SimulationConfig(STRICT), SimulationConfig(PHYSICAL)):
        assert probe_permutation(bypass, [3, -1, 3], config) == {3: 3, -1: -1}
        assert probe_permutation(leak, [3, -1], config) == {}
    assert_engines_agree(bypass, -2, 2)
    assert_engines_agree(leak, -2, 2)


def test_empty_window():
    assert window_permutation(synth_arbitrary(5), 3, 2) == {}


def test_window_far_from_zero():
    lo = 10**17
    assert_engines_agree(synth_arbitrary(11), lo - 44, lo + 44)
