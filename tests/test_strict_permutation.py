"""The residue-class engine against the packet engine: `window_permutation`
must return, and raise, what probing the same window value by value does,
in both modes."""

import pytest
from hypothesis import given, settings, strategies as st

from oamcycle import simulation
from oamcycle.model import (
    Hologram,
    Netlist,
    OamBeamSplitter,
    ZPlate,
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
    transform,
    window_permutation,
)
from oamcycle.synthesis import VARIANTS, device_for, synth_arbitrary, synth_variant

R0, R1 = r_path(0), r_path(1)
PATHS = (r_path(0), r_path(1), r_path(2), s_path(0), s_path(1))
ERRORS = (HopBudgetExceeded, NormDrift, ValueError, TypeError)
MODES = (STRICT, PHYSICAL)


def outcome(read):
    try:
        return read()
    except ERRORS as exc:
        return type(exc), str(exc)


def assert_engines_agree(device, lo, hi):
    for mode in MODES:
        config = SimulationConfig(mode)
        by_class = outcome(lambda: window_permutation(device, lo, hi, config))
        by_value = outcome(
            lambda: extract_permutation(
                transform(device, config), range(lo, hi + 1), device.input_path, device.output_path
            )
        )
        assert by_class == by_value, mode


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


@settings(max_examples=300, deadline=None)
@given(st.one_of(netlists(), folded_gates(), wired_graphs()), windows())
def test_classes_match_value_by_value_probes(device, window):
    assert_engines_agree(device, *window)


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


@pytest.mark.parametrize("m, split", [(1, []), (2, list(range(1, 1000, 2)))])
def test_physical_read_probes_only_split_values(monkeypatch, m, split):
    # a class that reaches any terminal met only multiples, where both modes
    # route alike, so only the values split at a non-multiple are probed;
    # here the multiples of m that cross leak to r1 and are not probed
    probed = []
    real = simulation.extract_permutation

    def recording(gate, domain, input_path, output_path):
        probed.extend(domain)
        return real(gate, domain, input_path, output_path)

    monkeypatch.setattr(simulation, "extract_permutation", recording)
    device = Netlist((OamBeamSplitter(m, R0, R1), Hologram(R0, 2)), R0, R0, 2)
    physical = window_permutation(device, 0, 999, SimulationConfig(PHYSICAL))
    assert physical == window_permutation(device, 0, 999)
    assert probed == split


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


def test_unknown_element_raises():
    odd = graph(["mirror"], [~1, ~0, ~0, ~0], {R0: 0})
    with pytest.raises(TypeError, match="unknown element"):
        window_permutation(odd, 0, 2)
    assert_engines_agree(odd, 0, 2)


def test_smallest_failing_value_decides_the_error():
    # even multiples of 2 stay on x and meet an unknown element, odd ones
    # cross to y and leave through an unwired port
    split = graph(
        [OamBeamSplitter(2, R0, R1), "mirror"], [4, ~0, ~0, ~0, ~1, ~0, ~0, ~0], {R0: 0}
    )
    with pytest.raises(TypeError):
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
    assert_engines_agree(bypass, -2, 2)
    assert_engines_agree(leak, -2, 2)


def test_empty_window():
    assert window_permutation(synth_arbitrary(5), 3, 2) == {}


def test_window_far_from_zero():
    lo = 10**17
    assert_engines_agree(synth_arbitrary(11), lo - 44, lo + 44)
