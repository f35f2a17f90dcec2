"""State propagation: the packet engine on netlists and port graphs,
cross-checked against the element-by-element reference interpreter."""

import cmath
import math
import random
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from reference_netlist import reference_apply_netlist, reference_transform, replaced

from oamcycle import portgraph, simulation
from oamcycle.analysis import simulate_word
from oamcycle.elements import NonMultipleMode, splitter_amplitudes, z_phase
from oamcycle.model import (
    PRUNE_THRESHOLD,
    Hologram,
    ModeVector,
    Netlist,
    OamBeamSplitter,
    ZPlate,
    equal_up_to_global_phase,
    extract_permutation,
    r_path,
    s_path,
)
from oamcycle.portgraph import PortGraph, netlist_to_portgraph
from oamcycle.simulation import (
    HopBudgetExceeded,
    NormDrift,
    SimulationConfig,
    apply_netlist,
    apply_portgraph,
    transform,
)
from oamcycle.synthesis import (
    VARIANTS,
    InvalidDimension,
    device_for,
    simplify,
    synth_arbitrary,
    synth_variant,
)

R0 = r_path(0)
R1 = r_path(1)
PHYSICAL = SimulationConfig(mode="physical")


def cyclic(d):
    return {k: (k + 1) % d for k in range(d)}


def gate_map(net, config=SimulationConfig()):
    return extract_permutation(
        lambda s: apply_netlist(net, s, config), range(net.dimension),
        net.input_path, net.output_path,
    )


# --- permutations through netlists -----------------------------------------------


@pytest.mark.parametrize("d", [2, 3, 4, 7, 8, 10, 11, 12, 16, 88])
def test_netlist_cycles_all_basis_states(d):
    assert gate_map(synth_arbitrary(d)) == cyclic(d)


def test_worked_example_d3():
    assert gate_map(synth_arbitrary(3)) == {0: 1, 1: 2, 2: 0}


def test_worked_example_d8_superposition():
    net = synth_arbitrary(8)
    state = ModeVector({(R0, 2): 0.6, (R0, 7): 0.8j})
    out = apply_netlist(net, state)
    expect = ModeVector({(R0, 3): 0.6, (R0, 0): 0.8j})
    assert equal_up_to_global_phase(out, expect, 1e-12)


def test_states_print_as_the_library_example_shows():
    # README's Library example prints this line; an empty state prints as 0
    out = apply_netlist(synth_arbitrary(11), ModeVector({(R0, 1): 0.6, (R0, 10): 0.8}))
    assert str(out) == "ModeVector[(0.8+0j)|0>@r0, (0.6+0j)|2>@r0]"
    assert str(ModeVector()) == "ModeVector[0]"


def test_superposition_strict_is_exact():
    net = synth_arbitrary(10)
    a, b = 1 / math.sqrt(3), math.sqrt(2 / 3) * 1j
    out = apply_netlist(net, ModeVector({(R0, 1): a, (R0, 2): b}))
    assert abs(out.get((R0, 2)) - a) < 1e-12
    assert abs(out.get((R0, 3)) - b) < 1e-12
    assert len(out) == 2


def test_strict_linearity():
    net = synth_arbitrary(11)
    rng = random.Random(7)
    for _ in range(20):
        j, k = rng.sample(range(11), 2)
        alpha = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        beta = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        scale = math.sqrt(abs(alpha) ** 2 + abs(beta) ** 2)
        alpha, beta = alpha / scale, beta / scale
        combined = apply_netlist(net, ModeVector({(R0, j): alpha, (R0, k): beta}))
        separate = apply_netlist(net, ModeVector.basis(R0, j)).scaled(alpha) + apply_netlist(
            net, ModeVector.basis(R0, k)
        ).scaled(beta)
        assert (combined - separate).norm() < 1e-12


def test_identity_netlist_is_identity():
    state = ModeVector({(R0, 0): 0.6, (R0, 5): 0.8})
    out = apply_netlist(Netlist.identity(), state)
    assert (out - state).norm() == 0.0


def test_empty_state_passes_through():
    assert not apply_netlist(synth_arbitrary(3), ModeVector())


def test_untouched_paths_pass_through():
    net = synth_arbitrary(3)  # touches r0, r1, s0 only
    state = ModeVector({(s_path(5), 4): 1.0})
    out = apply_netlist(net, state)
    assert out.get((s_path(5), 4)) == 1.0


# --- strict vs physical -------------------------------------------------------------


@pytest.mark.parametrize("d", [2, 3, 8, 10, 11])
def test_physical_basis_states_agree_up_to_phase(d):
    net = synth_arbitrary(d)
    for k in range(d):
        strict_out = apply_netlist(net, ModeVector.basis(R0, k))
        phys_out = apply_netlist(net, ModeVector.basis(R0, k), PHYSICAL)
        assert equal_up_to_global_phase(strict_out, phys_out, 1e-10), (d, k)


def test_physical_superpositions_can_pick_up_relative_phases():
    # the folded-ladder phases are value-dependent: a d=3 superposition
    # leaves the physical model with a relative -i the strict router
    # does not produce.  pinned here so the divergence stays visible.
    net = synth_arbitrary(3)
    state = ModeVector({(R0, 0): 1 / math.sqrt(2), (R0, 1): 1 / math.sqrt(2)})
    strict_out = apply_netlist(net, state)
    phys_out = apply_netlist(net, state, PHYSICAL)
    for key in ((R0, 1), (R0, 2)):
        assert abs(abs(phys_out.get(key)) - abs(strict_out.get(key))) < 1e-12
    assert not equal_up_to_global_phase(strict_out, phys_out, 1e-10)
    ratio = phys_out.get((R0, 2)) / phys_out.get((R0, 1))
    assert abs(ratio + 1j) < 1e-12


def test_strict_raises_on_non_multiple():
    net = synth_arbitrary(3)  # r1 first meets an order-2 splitter
    state = ModeVector.basis(r_path(1), 1)
    with pytest.raises(NonMultipleMode):
        apply_netlist(net, state)


def test_a_state_fails_with_the_first_error_of_its_own_packets():
    # r0 meets an order-2 splitter, r1 and s0 holograms wired to
    # themselves, and s1 leaves at once through an unwired port: the odd
    # value on r0, the first component, fails first in strict mode,
    # whatever the other component meets in the same hop or later
    device = PortGraph(
        nodes=(OamBeamSplitter(2, R0, R1), Hologram(R1, 1), Hologram(s_path(0), 1)),
        wiring=(~1, ~1, ~0, ~0, 4, ~0, ~0, ~0, 8, ~0, ~0, ~0),
        entries={R0: 0, R1: 4, s_path(0): 8, s_path(1): ~0},
        terminals=(None, R0),
        input_path=R0,
        output_path=R0,
        dimension=2,
    )
    for other in ((R0, 3), (R1, 0), (s_path(0), 0), (s_path(1), 0)):
        state = ModeVector({(R0, 1): 0.6, other: 0.8})
        with pytest.raises(NonMultipleMode, match="OAM value 1 "):
            apply_portgraph(device, state)


def test_physical_splits_instead_of_raising():
    net = synth_arbitrary(3)
    out = apply_netlist(net, ModeVector.basis(r_path(1), 1), PHYSICAL)
    assert len(out) > 1
    assert abs(out.norm() - 1.0) < 1e-12


def test_physical_huge_mode_stays_one_component():
    # ell is reduced mod 4m in integers, so 10**17 + 3 keeps full precision
    net = synth_arbitrary(11)
    state = ModeVector.basis(R0, 10**17 + 3)
    strict_out = apply_netlist(net, state)
    phys_out = apply_netlist(net, state, PHYSICAL)
    assert len(strict_out) == 1 and set(phys_out.keys()) == set(strict_out.keys())
    assert abs(abs(phys_out.get((R0, 10**17 + 4))) - 1.0) < 1e-12


def test_norm_drift_guard_trips():
    # not unitary: both out ports of the splitter feed the r0 terminal, so
    # the two input components add up there with norm sqrt(2)
    merge = PortGraph(
        nodes=(OamBeamSplitter(1, R0, R1),),
        wiring=(~1, ~1, ~0, ~0),
        entries={R0: 0, R1: 1},
        terminals=(None, R0),
        input_path=R0,
        output_path=R0,
        dimension=2,
    )
    state = ModeVector({(R0, 0): 1.0, (R1, 0): 1.0}).normalized()
    for config in (SimulationConfig(), PHYSICAL):
        with pytest.raises(NormDrift):
            apply_portgraph(merge, state, config)


def test_overflowing_output_is_rejected():
    # the same merge, at an amplitude whose sum at the terminal overflows
    merge = PortGraph(
        nodes=(OamBeamSplitter(1, R0, R1),),
        wiring=(~1, ~1, ~0, ~0),
        entries={R0: 0, R1: 1},
        terminals=(None, R0),
        input_path=R0,
        output_path=R0,
        dimension=2,
    )
    state = ModeVector({(R0, 0): 1.2e308, (R1, 0): 1.2e308})
    for config in (SimulationConfig(), PHYSICAL):
        with pytest.raises(ValueError, match=r"non-finite amplitude for r0\|0>"):
            apply_portgraph(merge, state, config)
    # an OAM value of one digit more than str() writes for an int is written in hex
    huge = 10 ** sys.get_int_max_str_digits()
    state = ModeVector({(R0, huge): 1.2e308, (R1, huge): 1.2e308})
    for config in (SimulationConfig(), PHYSICAL):
        with pytest.raises(ValueError) as raised:
            apply_portgraph(merge, state, config)
        assert str(raised.value) == f"non-finite amplitude for r0|{huge:#x}>"


def test_netlist_is_threaded_once(monkeypatch):
    calls = []
    thread = portgraph.netlist_to_portgraph
    monkeypatch.setattr(portgraph, "netlist_to_portgraph", lambda n: calls.append(n) or thread(n))
    net = synth_arbitrary(11)
    state = ModeVector.basis(R0, 3)
    for _ in range(2):
        assert apply_netlist(net, state).get((R0, 4)) == 1.0
    simulation.transform(net)(state)
    assert calls == [net]
    # an equal but distinct netlist is threaded for itself
    apply_netlist(synth_arbitrary(11), state)
    assert len(calls) == 2


# --- port graphs ---------------------------------------------------------------------


def _unit_state(rng, modes):
    amps = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in modes]
    scale = math.sqrt(sum(abs(a) ** 2 for a in amps))
    return ModeVector({(R0, k): a / scale for k, a in zip(modes, amps)})


@pytest.mark.parametrize("d", [2, 3, 8, 10, 11, 64, 500])
@pytest.mark.parametrize("mode", ["strict", "physical"])
def test_portgraph_matches_netlist(d, mode):
    # both entry points run the packet engine; the reference walks the
    # element sequence with whole-state steps instead
    net = synth_arbitrary(d)
    graph = netlist_to_portgraph(net)
    config = SimulationConfig(mode=mode)
    rng = random.Random(d)
    states = [ModeVector.basis(R0, k) for k in range(d)]
    states.append(_unit_state(rng, range(d)))
    if mode == "physical":  # off-window values split and interfere
        states.append(_unit_state(rng, rng.sample(range(-2 * d, 3 * d), min(8, 5 * d))))
    for state in states:
        want = reference_apply_netlist(net, state, config)
        for got in (apply_netlist(net, state, config), apply_portgraph(graph, state, config)):
            assert (got - want).norm() < 1e-11, state


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 256), st.integers(-200, 200), st.data())
def test_strict_and_physical_agree_componentwise(d, exponent, data):
    modes = data.draw(st.lists(st.integers(0, d - 1), min_size=1, max_size=8, unique=True))
    polar = data.draw(st.lists(
        st.tuples(st.floats(0.1, 1.0), st.floats(0.0, 2 * math.pi)),
        min_size=len(modes), max_size=len(modes),
    ))
    amps = [r * cmath.exp(1j * phi) for r, phi in polar]
    scale = 10.0**exponent  # amplitude scales 1e-200..1e200
    norm = math.sqrt(sum(abs(a) ** 2 for a in amps))
    state = ModeVector({(R0, k): a / norm * scale for k, a in zip(modes, amps)})
    net = synth_arbitrary(d)
    for device, apply in ((net, apply_netlist), (simplify(net), apply_portgraph)):
        strict_out = apply(device, state)
        phys_out = apply(device, state, PHYSICAL)
        assert set(strict_out.keys()) == set(phys_out.keys())
        for key in strict_out.keys():
            diff = abs(abs(phys_out.get(key)) - abs(strict_out.get(key)))
            assert diff < 1e-12 * scale, key


@pytest.mark.parametrize("d", [3, 11, 64, 500])
def test_scaled_states_keep_their_support(d):
    # pruning and the drift check are relative to the input norm, so a
    # state behaves the same at every amplitude scale
    net = synth_arbitrary(d)
    rng = random.Random(d)
    for device, apply in ((net, apply_netlist), (simplify(net), apply_portgraph)):
        for _ in range(8):
            state = _unit_state(rng, rng.sample(range(-2 * d, 3 * d), min(8, 5 * d)))
            unit = apply(device, state, PHYSICAL)
            for scale in (1e-200, 1e-20, 1e-12, 1e-4, 1e4, 1e8, 1e200):
                out = apply(device, state.scaled(scale), PHYSICAL)
                assert set(out.keys()) == set(unit.keys()), scale
                assert (out.scaled(1 / scale) - unit).norm() < 1e-12, scale


@pytest.mark.parametrize("d", [2, 3, 5, 9, 11, 15, 33])
def test_folded_graph_cycles_all_basis_states(d):
    graph = simplify(synth_arbitrary(d))
    mapping = extract_permutation(
        lambda s: apply_portgraph(graph, s), range(d), graph.input_path, graph.output_path
    )
    assert mapping == cyclic(d)


@pytest.mark.parametrize("d", [3, 11])
def test_folded_graph_physical_mode(d):
    graph = simplify(synth_arbitrary(d))
    for k in range(d):
        out = apply_portgraph(graph, ModeVector.basis(R0, k), PHYSICAL)
        expect = ModeVector.basis(R0, (k + 1) % d)
        assert equal_up_to_global_phase(out, expect, 1e-10), (d, k)


def test_folded_graph_superposition():
    graph = simplify(synth_arbitrary(11))
    state = ModeVector({(R0, 1): 0.6, (R0, 10): 0.8})
    out = apply_portgraph(graph, state)
    assert abs(out.get((R0, 2)) - 0.6) < 1e-12
    assert abs(out.get((R0, 0)) - 0.8) < 1e-12


def test_portgraph_passes_unknown_paths_through():
    graph = simplify(synth_arbitrary(3))
    state = ModeVector({(s_path(9), -2): 1.0})
    out = apply_portgraph(graph, state)
    assert out.get((s_path(9), -2)) == 1.0


def test_hop_budget_guard():
    loop = PortGraph(
        nodes=(Hologram(R0, 1),),
        wiring=(0, ~0, ~0, ~0),
        entries={R0: 0},
        terminals=(None,),
        input_path=R0,
        output_path=R0,
        dimension=2,
    )
    with pytest.raises(HopBudgetExceeded):
        apply_portgraph(loop, ModeVector.basis(R0, 0))


def test_dust_in_flight_at_the_hop_budget_ends_the_run_normally(monkeypatch):
    # r0 passes a hologram, then an order-10**16 splitter, which crosses
    # about 1.6e-16 of ell = 1 to its y port, below the prune cut; y feeds
    # the hologram again, so that dust is the only packet in flight when
    # the budget of two hops runs out
    device = PortGraph(
        nodes=(Hologram(R0, 0), OamBeamSplitter(10**16, R0, R1)),
        wiring=(4, ~0, ~0, ~0, ~1, 0, ~0, ~0),
        entries={R0: 0},
        terminals=(None, R0),
        input_path=R0,
        output_path=R0,
        dimension=2,
    )
    monkeypatch.setattr(simulation, "HOPS_PER_NODE", 1)
    stay, cross = splitter_amplitudes(10**16, 1)
    assert 0.0 < abs(cross) <= PRUNE_THRESHOLD
    out = apply_portgraph(device, ModeVector.basis(R0, 1), PHYSICAL)
    assert list(out.items()) == [((R0, 1), stay)]
    # half of ell = 5 * 10**15 crosses: light, not dust, is still in flight
    with pytest.raises(HopBudgetExceeded):
        apply_portgraph(device, ModeVector.basis(R0, 5 * 10**15), PHYSICAL)


def test_a_run_routes_the_packets_it_is_given():
    # r0 and r1 enter at one slot, where their components nearly cancel;
    # the remainder is below the prune cut but is routed, not dropped, so
    # it reaches the terminal and the norm check names it
    shared = PortGraph(
        nodes=(Hologram(R0, 0),),
        wiring=(~1, ~0, ~0, ~0),
        entries={R0: 0, R1: 0},
        terminals=(None, R0),
        input_path=R0,
        output_path=R0,
        dimension=2,
    )
    state = ModeVector({(R0, 0): 1.0, (R1, 0): -(1.0 - 2.0**-52)})
    assert 2.0**-52 <= PRUNE_THRESHOLD * state.norm()
    with pytest.raises(NormDrift, match=r"terminal norm 2\.220446049250313e-16 differs"):
        apply_portgraph(shared, state)


def test_pass_through_comes_first_in_its_terminal_sum():
    # r1 has no entry, so its component passes through to the r1 terminal,
    # where two packets land with the same OAM value; their landed sum is
    # added to it, 1 + (a + a), which rounds differently from (1 + a) + a
    a = 17 * 2.0**-53
    total = 1.0 + (a + a)
    assert total != (1.0 + a) + a
    device = PortGraph(
        nodes=(Hologram(R0, 1), Hologram(s_path(0), 2), Hologram(s_path(1), 0)),
        wiring=(~2, ~0, ~0, ~0, ~2, ~0, ~0, ~0, ~1, ~0, ~0, ~0),
        entries={R0: 0, s_path(0): 4, s_path(1): 8},
        terminals=(None, R0, R1),
        input_path=R0,
        output_path=R1,
        dimension=2,
    )
    state = ModeVector({(R1, 5): 1.0, (R0, 4): a, (s_path(0), 3): a, (s_path(1), 0): 1.0})
    factor = state.norm() / math.hypot(total, 1.0)
    for config in (SimulationConfig(), PHYSICAL):
        out = apply_portgraph(device, state, config)
        assert list(out.items()) == [((R1, 5), total * factor), ((R0, 0), factor)]


def test_folded_graphs_fit_default_hop_budget(monkeypatch):
    # every packet crosses each element at most twice after folding
    monkeypatch.setattr(simulation, "HOPS_PER_NODE", 4)
    for d in (2, 3, 10, 11, 88, 500):
        graph = simplify(synth_arbitrary(d))
        out = apply_portgraph(graph, ModeVector.basis(R0, 0))
        assert out.get((R0, 1)) == pytest.approx(1.0)


# --- states walked packet by packet -------------------------------------------------


def superposition(rng, d, n, lo=0):
    """*n* components on r0 with Gaussian amplitudes, a quarter of them (more
    when d < n) off the window [lo, lo + d - 1] of a gate, as the benchmark's
    physical-states workload draws its states."""
    n_in = min(n - n // 4, d)
    inside = rng.sample(range(lo, lo + d), n_in)
    off = [v for v in range(lo - 2 * d - 16, lo + 3 * d + 16) if not lo <= v < lo + d]
    outside = rng.sample(off, n - n_in)
    return ModeVector(
        {(R0, ell): complex(rng.gauss(0, 1), rng.gauss(0, 1)) for ell in inside + outside}
    )


def hexed(run):
    """The items of the state *run* returns, in order, with their parts as
    float hex; or the type and message of the error it raises."""
    try:
        out = run()
    except (NonMultipleMode, HopBudgetExceeded, NormDrift, ValueError) as exc:
        return type(exc), str(exc)
    return [(key, amp.real.hex(), amp.imag.hex()) for key, amp in out.items()]


def gate_devices(d, rng):
    """``(variant, window start, device)`` for every variant at d, the
    shifted one on a window drawn from *rng*."""
    shift = rng.choice((-1, 1)) * rng.randint(1, 4 * d)
    for variant in VARIANTS:
        lo = shift if variant == "shifted" else 0
        yield variant, lo, device_for(synth_variant(d, variant, lo), variant)


def check_states(d):
    """Assert that superpositions drawn from ``random.Random(d)``, at the
    scales 1, 1e200 and 1e-200, leave every variant's device at d as they
    leave `reference_transform`, bit for bit, in both modes."""
    rng = random.Random(d)
    for variant, lo, device in gate_devices(d, rng):
        for mode in ("strict", "physical"):
            config = SimulationConfig(mode)
            run = transform(device, config)
            for scale in (1.0, 1e200, 1e-200):
                state = superposition(rng, d, rng.randint(1, 32), lo).scaled(scale)
                want = hexed(lambda: reference_transform(device, state, config))
                assert hexed(lambda: run(state)) == want, (d, variant, mode, scale)


def test_states_match_the_reference_loop_up_to_d_300():
    # `tools/verify_differential.py states` runs the same check to any d
    for d in range(2, 301):
        check_states(d)


@pytest.mark.parametrize("mode", ["strict", "physical"])
def test_states_through_synthesized_gates_skip_the_packet_loop(monkeypatch, mode):
    # a synthesized gate meets only multiples of its splitter orders, on its
    # window and off it, so no packet of a state splits and no two land on
    # one key: every state is walked packet by packet, never on the loop
    config = SimulationConfig(mode)
    rng = random.Random(mode)
    runs = []
    for d in (2, 3, 5, 12, 64, 257, 1024):
        for _, lo, device in gate_devices(d, rng):
            for n in (1, 8, 32):
                state = superposition(rng, d, n, lo)
                want = hexed(lambda: reference_transform(device, state, config))
                runs.append((device, state, want))

    def loop(*args):
        raise AssertionError("a state ran on the packet loop")

    monkeypatch.setattr(simulation, "_propagate", loop)
    for device, state, want in runs:
        assert hexed(lambda: transform(device, config)(state)) == want


def test_portgraph_rejects_bad_dimension():
    graph = netlist_to_portgraph(synth_arbitrary(3))
    for d in (2.5, 2.0, "3", True, None, 0):
        with pytest.raises(ValueError, match="dimension must be an int"):
            replaced(graph, dimension=d)


def test_portgraph_rejects_a_terminal_label_twice():
    # the engine sums light per terminal index, so two terminals of one
    # label would split one output component in two
    graph = netlist_to_portgraph(synth_arbitrary(3))
    with pytest.raises(ValueError, match="terminal paths must differ, got r0 twice"):
        replaced(graph, terminals=(*graph.terminals, R0))
    assert replaced(graph, terminals=(*graph.terminals, None)).terminals[-1] is None


def test_portgraph_rejects_tables_the_loops_cannot_index():
    # each of these once built, and then every loop failed on it with a
    # bare IndexError
    base = PortGraph(
        nodes=(Hologram(R0, 1),),
        wiring=(~1, ~0, ~0, ~0),
        entries={R0: 0},
        terminals=(None, R0),
        input_path=R0,
        output_path=R0,
        dimension=2,
    )
    for field, value in (
        ("wiring", (7, ~0, ~0, ~0)),
        ("wiring", (~2, ~0, ~0, ~0)),
        ("wiring", (~5,)),
        ("wiring", (~1, ~0, ~0, ~0, ~0)),
        ("wiring", (~1, ~0, ~0, 1.0)),
        ("wiring", (True, ~0, ~0, ~0)),
        ("entries", {R0: 4}),
        ("entries", {R0: ~2}),
        ("entries", {R0: 0.0}),
        ("terminals", (R0, None)),
        ("terminals", ()),
    ):
        with pytest.raises(ValueError, match=f"^{field}"):
            replaced(base, **{field: value})
    # a string terminal label once came back as a state key no ModeVector
    # accepts, and a string entry left its light unread
    for field, value, what in (
        ("input_path", "r0", "input and output path"),
        ("output_path", "r0", "input and output path"),
        ("entries", {"r0": 0}, "entry path"),
        ("terminals", (None, "r0"), "terminal path"),
    ):
        with pytest.raises(ValueError, match=f"^{what} must be PathLabel, got 'r0'"):
            replaced(base, **{field: value})
    # an entry may lie on a terminal: its light lands there at once
    on_terminal = replaced(base, entries={R0: ~1})
    assert dict(apply_portgraph(on_terminal, ModeVector.basis(R0, 3)).items()) == {(R0, 3): 1}


def test_portgraph_keeps_its_own_tables():
    # a caller's edits after the build once got past the slot checks, and the
    # loops then failed with a bare IndexError
    graph = netlist_to_portgraph(synth_arbitrary(5))
    wiring, entries = list(graph.wiring), dict(graph.entries)
    built = PortGraph(graph.nodes, wiring, entries, graph.terminals, R0, R0, 5)
    state = ModeVector.basis(R0, 2)
    before = dict(apply_portgraph(built, state).items())
    entries[R0] = 99
    wiring[0] = 57
    assert dict(apply_portgraph(built, state).items()) == before == {(R0, 3): 1}
    assert simulation.window_permutation(built, 0, 4) == cyclic(5)
    assert built == graph


def test_per_slot_tables_hold_what_each_element_does():
    # the walks read each element's effect off these tables: a splitter's
    # order, minus a plate's dimension, and a hologram's charge, negated on
    # the backward slots a folded graph routes light through
    net = Netlist(
        (OamBeamSplitter(3, R0, R1), Hologram(R1, 5), ZPlate(R0, 7), Hologram(R0, -2)), R0, R0, 7
    )
    folded = simplify(synth_arbitrary(11))
    assert any(
        target >= 0 and target & portgraph.BACKWARD and type(folded.nodes[target >> 2]) is Hologram
        for target in folded.wiring
    )
    for graph in (netlist_to_portgraph(net), folded):
        orders, kicks = portgraph._tables(graph)
        assert portgraph._tables(graph) is portgraph._tables(graph)  # built once
        assert len(orders) == len(kicks) == len(graph.wiring)
        for slot, (order, kick) in enumerate(zip(orders, kicks)):
            element = graph.nodes[slot >> 2]
            if type(element) is OamBeamSplitter:
                assert (order, kick) == (element.m, 0), slot
            elif type(element) is Hologram:
                charge = -element.v if slot & portgraph.BACKWARD else element.v
                assert (order, kick) == (0, charge), slot
            else:
                assert (order, kick) == (-element.d, 0), slot
    assert portgraph._tables(netlist_to_portgraph(net)) == (
        (3, 3, 3, 3, 0, 0, 0, 0, -7, -7, -7, -7, 0, 0, 0, 0),
        (0, 0, 0, 0, 5, 5, -5, -5, 0, 0, 0, 0, -2, -2, 2, 2),
    )


# --- configuration -----------------------------------------------------------------


def test_config_rejects_unknown_mode():
    with pytest.raises(ValueError):
        SimulationConfig(mode="fast")


# --- gate words -----------------------------------------------------------------------


def test_word_x_alone():
    out = simulate_word(4, 1, 0, ModeVector.basis(R0, 3))
    assert abs(out.get((R0, 0)) - 1.0) < 1e-12


def test_word_full_cycle_is_identity():
    for d in (2, 3, 8, 10):
        for k in range(d):
            out = simulate_word(d, d, 0, ModeVector.basis(R0, k))
            assert abs(out.get((R0, k)) - 1.0) < 1e-12, (d, k)


@pytest.mark.parametrize("mode", ["strict", "physical"])
@pytest.mark.parametrize("d", [2, 5, 12])
def test_word_x_power_is_reduced_on_the_gate_window(monkeypatch, d, mode):
    # on 0..d-1 the gate is X (strict), or X times a diagonal of powers of i
    # (physical), so X^period is the identity there: at d = 5, X^5 is -i*I
    config = SimulationConfig(mode)
    period = d if mode == "strict" else 4 * d
    x_gate = simulation.transform(synth_arbitrary(d), config)
    rng = random.Random(d)
    mixed = ModeVector(
        {(R0, k): complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for k in range(d)}
    )
    states = [mixed] + [ModeVector.basis(R0, k) for k in range(d)]
    for r in (0, 1, d - 1):
        for state in states:
            looped = state
            for _ in range(period + r):
                looped = x_gate(looped)
            reduced = simulate_word(d, r, 0, state, config)
            if state is mixed:
                assert (looped - reduced).norm() <= 1e-12 * state.norm(), r
            else:
                assert list(looped.items()) == list(reduced.items()), (r, state)
    # a power of 10**18 takes fewer than `period` passes of the gate
    real = simulation._run
    calls = 0

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        if calls > 4 * d:
            raise AssertionError(f"more than {4 * d} passes of the gate")
        return real(*args, **kwargs)

    monkeypatch.setattr(simulation, "_run", counted)
    for state in states:
        calls = 0
        got = simulate_word(d, 10**18, 0, state, config)
        calls = 0
        assert list(got.items()) == list(
            simulate_word(d, 10**18 % period, 0, state, config).items()
        )


def test_word_z_power_is_one_exact_phase():
    # Z^30000 is the identity at d = 3: applied as 30000 plates, each of
    # modulus one ulp below 1, it drifted the norm past NORM_TOLERANCE
    for z_power, phase in ((3 * 10**4, 1.0), (10**18, z_phase(3, 1))):
        out = simulate_word(3, 0, z_power, ModeVector.basis(R0, 1))
        assert list(out.items()) == [((R0, 1), phase)], z_power


def test_word_z_at_a_dimension_past_the_float_range():
    # a quarter of 2**1200 picks up a quarter turn, past the float range
    out = simulate_word(2**1200, 0, 1, ModeVector.basis(R0, 2**1198))
    [(key, phase)] = out.items()
    assert key == (R0, 2**1198)
    assert abs(phase - 1j) < 1e-15


@pytest.mark.parametrize("d", [2, 3, 4, 8])
def test_words_match_clock_and_shift_matrices(d):
    # oracle: X as the cyclic permutation matrix, Z = diag(w^k)
    w = np.exp(2j * np.pi / d)
    x_mat = np.roll(np.eye(d), 1, axis=0)
    z_mat = np.diag([w**k for k in range(d)])
    rng = random.Random(d)
    amps = np.array([complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(d)])
    amps /= np.linalg.norm(amps)
    for x_pow in range(d + 1):
        for z_pow in range(d + 1):
            want = np.linalg.matrix_power(z_mat, z_pow) @ (
                np.linalg.matrix_power(x_mat, x_pow) @ amps
            )
            got = simulate_word(
                d, x_pow, z_pow, ModeVector({(R0, k): amps[k] for k in range(d)})
            )
            got_vec = np.array([got.get((R0, k)) for k in range(d)])
            assert np.linalg.norm(got_vec - want) < 1e-10, (d, x_pow, z_pow)


def test_word_identity_cases():
    state = ModeVector({(R0, 0): 0.6, (R0, 1): 0.8})
    assert (simulate_word(5, 0, 0, state) - state).norm() < 1e-15
    assert simulate_word(1, 3, 2, state) is state


def test_word_rejects_negative_powers():
    with pytest.raises(ValueError):
        simulate_word(3, -1, 0, ModeVector.basis(R0, 0))
    # bools once passed as powers: X^True gave |1>
    for d in (1, 2):
        for powers in ((True, 0), (0, True), (1.0, 0), (0, "1"), (-1, 0)):
            with pytest.raises(ValueError, match="gate powers must be non-negative ints"):
                simulate_word(d, *powers, ModeVector.basis(R0, 0))


def test_word_rejects_bad_dimensions_before_the_identity_shortcut():
    # d = True once took the d = 1 shortcut and returned the state unchanged
    for d in (True, False, 0, -1, 1.0, "1", None):
        with pytest.raises(InvalidDimension, match="dimension must be an integer >= 1"):
            simulate_word(d, 1, 0, ModeVector.basis(R0, 0))
