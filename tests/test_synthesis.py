"""Netlist construction, count formulas, shift/invert/fold transforms."""

import json
import math
from dataclasses import replace
from unittest import mock

import pytest

from oamcycle import analysis, synthesis
from oamcycle.analysis import verify_gate
from oamcycle.model import Hologram, Netlist, OamBeamSplitter, ZPlate, element_paths, r_path, s_path
from oamcycle.portgraph import PortGraph
from oamcycle.serialization import parse, serialize
from oamcycle.simulation import _graph
from oamcycle.synthesis import (
    VARIANTS,
    InvalidDimension,
    NotSimplifiable,
    _emit,
    count_beamsplitters,
    decompose,
    device_for,
    invert,
    naive_count,
    predict_count,
    predict_simplified_count,
    shifted_gate,
    simplify,
    synth_arbitrary,
    synth_variant,
    variant_name,
)

R = r_path
S = s_path


def LI(m, a, b):
    return OamBeamSplitter(m, a, b)


def H(path, v):
    return Hologram(path, v)


# --- factorization ------------------------------------------------------------


def test_decompose_mixed():
    p = decompose(88)
    assert (p.two_exp, p.odd, p.nbits) == (3, 11, 4)
    assert p.bits == (1, 1, 0, 1)
    assert p.prev_one == (0, 0, 1, 1)


def test_decompose_power_of_two():
    p = decompose(8)
    assert (p.two_exp, p.odd, p.nbits) == (3, 1, 1)
    assert p.bits == (1,)


def test_decompose_odd():
    p = decompose(11)
    assert (p.two_exp, p.odd, p.nbits) == (0, 11, 4)
    assert p.prev_one == (0, 0, 1, 1)


def test_decompose_500():
    p = decompose(500)
    assert (p.two_exp, p.odd, p.nbits) == (2, 125, 7)


def test_decompose_first_and_last_bits_are_one():
    for d in range(2, 300):
        p = decompose(d)
        assert p.bits[0] == 1 and p.bits[-1] == 1
        assert p.odd % 2 == 1 and p.odd << p.two_exp == d


@pytest.mark.parametrize("bad", [1, 0, -3, True, 2.5, "8"])
def test_decompose_rejects(bad):
    with pytest.raises(InvalidDimension):
        decompose(bad)


def test_decompose_against_trig_identity():
    # the power-of-two exponent equals sum_n floor(cos^2(d*pi/2^n)); exact
    # in doubles only up to d=33, after which cos() of tiny angles rounds
    # to 1.0 and the floor picks up spurious terms
    for d in range(2, 34):
        trig = sum(math.floor(math.cos(d * math.pi / 2**n) ** 2) for n in range(1, d + 1))
        assert trig == decompose(d).two_exp, d


# --- frozen layouts -------------------------------------------------------------


def test_layout_d2():
    assert synth_arbitrary(2).elements == (
        LI(1, R(0), R(1)),
        H(R(1), -1),
        H(R(1), -2),
        H(R(1), 1),
        LI(1, R(0), R(1)),
        H(R(0), 1),
    )


def test_layout_d3():
    assert synth_arbitrary(3).elements == (
        LI(1, R(0), S(0)),
        H(S(0), 1),
        LI(2, R(0), R(1)),
        H(R(1), -2),
        LI(2, R(1), S(0)),
        H(R(1), -1),
        LI(1, R(0), R(1)),
        H(R(0), 1),
    )


def test_layout_d10():
    # mixed case: one doubling rung, a zero digit (so no hologram on that
    # rung), and one side ladder rung on each of the forward/backward arms
    assert synth_arbitrary(10).elements == (
        LI(1, R(0), R(1)),
        H(R(1), -1),
        LI(2, R(1), S(0)),
        H(S(0), 2),
        LI(4, R(1), R(2)),
        LI(8, R(1), R(3)),
        H(R(3), -8),
        LI(4, R(1), R(2)),
        LI(4, S(0), S(1)),
        LI(8, R(3), S(0)),
        LI(4, R(3), S(1)),
        H(R(3), -2),
        LI(2, R(1), R(3)),
        H(R(1), 1),
        LI(1, R(0), R(1)),
        H(R(0), 1),
    )


def test_no_zero_holograms_ever():
    for d in range(2, 200):
        assert all(el.v != 0 for el in synth_arbitrary(d).elements if isinstance(el, Hologram))


def test_synth_arbitrary_domain():
    # a bool is an int to isinstance: True once built the d = 2 gate
    for bad in (1, True, False):
        with pytest.raises(InvalidDimension):
            synth_arbitrary(bad)


def test_io_paths():
    for d in (2, 3, 10, 88):
        net = synth_arbitrary(d)
        assert net.input_path == net.output_path == R(0)
        assert net.dimension == d


# --- counts ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "d,count", [(2, 2), (8, 6), (9, 12), (10, 10), (11, 12), (13, 12), (15, 12), (88, 18), (500, 28)]
)
def test_known_splitter_counts(d, count):
    assert count_beamsplitters(synth_arbitrary(d)) == count
    assert predict_count(d)[0] == count


def test_count_formula_matches_tally():
    for d in range(2, 600):
        assert predict_count(d)[0] == count_beamsplitters(synth_arbitrary(d)), d


def test_bound_and_degenerate_case():
    assert predict_count(2)[1] is None
    for d in (3, 10, 100, 1024):
        count, bound = predict_count(d)
        assert bound == 4 * math.log2(d - 1)
        assert count <= bound


def test_bound_tight_at_power_of_two_plus_one():
    for k in (2, 3, 5, 8):
        d = 2**k + 1
        count, bound = predict_count(d)
        assert count == bound == 4 * k


@pytest.mark.parametrize("d,count", [(2, 1), (4, 2), (8, 3), (9, 8), (11, 8), (500, 16)])
def test_simplified_counts(d, count):
    assert predict_simplified_count(d) == count
    assert count_beamsplitters(simplify(synth_arbitrary(d))) == count


def test_naive_count():
    assert naive_count(10) == 18
    assert naive_count(2) == 2
    assert [naive_count(d) for d in (3, 4, 5)] == [4, 6, 8]


# --- shifted gates -----------------------------------------------------------------


def test_shifted_gate_wraps_with_holograms():
    base = synth_arbitrary(3)
    shifted = shifted_gate(base, 5)
    assert shifted.elements[0] == H(R(0), -5)
    assert shifted.elements[-1] == H(R(0), 5)
    assert shifted.elements[1:-1] == base.elements
    assert shifted.dimension == 3


def test_shifted_gate_zero_is_identity_transform():
    base = synth_arbitrary(3)
    assert shifted_gate(base, 0) is base


def test_shifted_gate_negative():
    shifted = shifted_gate(synth_arbitrary(10), -4)
    assert shifted.elements[0].v == 4 and shifted.elements[-1].v == -4


def test_shifted_gate_checks_the_charges_it_is_given():
    # the shift is checked before any hologram is built, as synth_variant
    # checks it, so a zero that is no int is no identity either
    net = synth_arbitrary(7)
    for m in (1.5, True, -2.5, 0.0, False, "1"):
        with pytest.raises(ValueError) as raised:
            shifted_gate(net, m)
        assert str(raised.value) == f"shift must be an int, got {m!r}"


# --- inversion ---------------------------------------------------------------------


def test_invert_reverses_and_negates():
    base = synth_arbitrary(3)
    inv = invert(base)
    assert len(inv.elements) == len(base.elements)
    assert inv.elements[0] == H(R(0), -1)
    assert inv.elements[-1] == LI(1, R(0), S(0))
    assert count_beamsplitters(inv) == count_beamsplitters(base)


def test_invert_is_an_involution():
    for d in (2, 3, 10, 88):
        net = synth_arbitrary(d)
        assert invert(invert(net)) == net


def test_invert_rejects_phase_plates():
    net = Netlist((ZPlate(R(0), 3),), R(0), R(0), 3)
    with pytest.raises(ValueError):
        invert(net)


# --- folding -----------------------------------------------------------------------


def test_simplify_returns_portgraph_with_fewer_splitters():
    for d in (2, 3, 8, 10, 11, 33, 500):
        net = synth_arbitrary(d)
        graph = simplify(net)
        assert isinstance(graph, PortGraph)
        assert count_beamsplitters(graph) == predict_simplified_count(d)
        assert count_beamsplitters(graph) <= count_beamsplitters(net)
        if d != 3:  # at d=3 only a hologram folds, so splitter counts tie
            assert count_beamsplitters(graph) < count_beamsplitters(net)
        assert graph.dimension == d
        assert graph.input_path == graph.output_path == R(0)


def test_simplify_keeps_all_holograms_or_fewer():
    # folding never adds elements
    for d in (3, 10, 88):
        net = synth_arbitrary(d)
        assert len(simplify(net).nodes) < len(net.elements)


def test_simplify_rejects_non_standard_layouts():
    with pytest.raises(NotSimplifiable):
        simplify(Netlist.identity())
    with pytest.raises(NotSimplifiable):
        simplify(shifted_gate(synth_arbitrary(3), 1))
    with pytest.raises(NotSimplifiable):
        simplify(invert(synth_arbitrary(10)))
    hand_rolled = Netlist((H(R(0), 1),), R(0), R(0), 2)
    with pytest.raises(NotSimplifiable):
        simplify(hand_rolled)
    # parsed documents carry no mirror pairs, so each is compared with the
    # standard layout: one charge flipped, one element gone, another dimension
    doc = json.loads(serialize(synth_arbitrary(10)))
    holograms = [i for i, el in enumerate(doc["elements"]) if el["kind"] == "HOLOG"]
    flipped, removed, redimensioned = (json.loads(json.dumps(doc)) for _ in range(3))
    flipped["elements"][holograms[1]]["v"] *= -1
    del removed["elements"][1]
    redimensioned["dimension"] = 12
    for edited in (flipped, removed, redimensioned):
        netlist = parse(json.dumps(edited)).netlist
        with pytest.raises(NotSimplifiable):
            simplify(netlist)


def rebuilt(device):
    """*device* built again through the public constructors, each element
    too, so that every check runs on every field it holds."""
    if isinstance(device, PortGraph):
        return replace(device, nodes=tuple(map(replace, device.nodes)))
    return replace(device, elements=tuple(map(replace, device.elements)))


def check_devices(d, shift):
    """Assert that each variant's netlist at d, its device and the port graph
    the engines run, all built unchecked, equal their checked rebuilds, the
    shifted variant on the window starting at *shift*."""
    for variant in VARIANTS:
        netlist = synth_variant(d, variant, shift if variant == "shifted" else 0)
        device = device_for(netlist, variant)
        for built in (netlist, device, _graph(device)):
            assert rebuilt(built) == built, (d, variant, type(built).__name__)


def test_unchecked_devices_equal_their_checked_rebuilds():
    for d in (*range(2, 301), 2**64 + 13, 2**256 - 1):
        check_devices(d, -d - 3)
        # the stored pairs fold as the comparison with the emitted layout does
        net = synth_arbitrary(d)
        parsed = parse(serialize(net)).netlist
        assert "_mirror_pairs" not in vars(parsed)
        assert simplify(net) == simplify(parsed), d


def test_simplify_of_a_synthesized_netlist_emits_nothing():
    net = synth_arbitrary(500)
    parsed = parse(serialize(net)).netlist
    with mock.patch.object(synthesis, "_emit", side_effect=AssertionError("emitted")):
        graph = simplify(net)
        with pytest.raises(AssertionError, match="emitted"):
            simplify(parsed)
    assert graph == simplify(parsed)


def test_simplify_folds_have_backward_wires():
    graph = simplify(synth_arbitrary(11))
    assert any(slot & 2 for slot, target in enumerate(graph.wiring) if target != ~0)


def test_emitter_records_each_mirror_pair():
    # simplify folds by exactly these pairs: each backward element mirrors an
    # earlier forward one, and only the figure's unmirrored elements stand alone
    for d in (*range(2, 513), 3073, 4095, 4096):
        emitted = _emit(d)
        p = decompose(d)
        M, top = p.two_exp, p.nbits - 1 + p.two_exp
        mirrored = set()
        for i, (element, j) in enumerate(emitted):
            if j is None:
                continue
            assert j < i and j not in mirrored, (d, i, j)
            mirrored.add(j)
            want = emitted[j][0]
            # the green rungs and the closing hologram meet the side rail s0
            # where their forward partner does, but from the apex rail
            if isinstance(want, Hologram):
                want = H(R(top) if want.path == S(0) else want.path, -want.v)
            elif want.port_x == S(0):
                want = LI(want.m, R(top), want.port_y)
            assert element == want, (d, i, j)
        lone = [el for i, (el, j) in enumerate(emitted) if j is None and i not in mirrored]
        if p.nbits == 1:
            assert lone == [H(R(M), -(2**M)), H(R(0), 1)], d  # centre, final
        else:
            apex = R(p.prev_one[p.nbits - 1] + M)
            assert lone == [
                LI(2**M, R(M), S(0)),  # stage 0
                LI(2**top, apex, R(top)),  # blue apex
                H(R(top), -(2**top)),
                LI(2**top, R(top), S(0)),  # green apex
                LI(2**M, R(M), R(top)),  # merger
                H(R(0), 1),  # final
            ], d


# --- variants ----------------------------------------------------------------------


def test_synth_variant_builds_each_variant():
    base = synth_arbitrary(10)
    assert synth_variant(10) == base
    assert synth_variant(10, "simplified") == base  # the document stores the ladder
    assert synth_variant(10, "inverse") == invert(base)
    assert synth_variant(10, "shifted", shift=-3) == shifted_gate(base, -3)
    assert synth_variant(10, "standard", shift=4) == shifted_gate(base, 4)
    assert synth_variant(10, "inverse", shift=2) == shifted_gate(invert(base), 2)


def test_synth_variant_rejects_a_shift_that_is_not_an_int():
    # each bad shift used to fail further in, with a message about a
    # hologram charge or an OAM value, or a TypeError from range()
    for shift in (True, False, 2.0, 0.0, "1", None):
        for variant in ("standard", "inverse", "shifted"):
            with pytest.raises(ValueError) as raised:
                synth_variant(5, variant, shift)
            assert str(raised.value) == f"shift must be an int, got {shift!r}"


def test_variant_name_files_a_shifted_standard_gate_as_shifted():
    assert variant_name("standard", 0) == "standard"
    assert variant_name("standard", -3) == "shifted"
    assert variant_name("shifted", 4) == "shifted"
    assert variant_name("inverse", 2) == "inverse"
    assert variant_name("simplified", 0) == "simplified"


def test_device_for_folds_only_the_simplified_variant():
    net = synth_arbitrary(11)
    for variant in VARIANTS:
        device = device_for(net, variant)
        if variant == "simplified":
            assert device == simplify(net)
        else:
            assert device is net


# --- shared path labels ----------------------------------------------------------------


def _labels(device):
    """Every label *device* holds: its element ports, its input and output
    path, and for a port graph its entries and terminals."""
    nodes = device.nodes if isinstance(device, PortGraph) else device.elements
    labels = [path for element in nodes for path in element_paths(element)]
    labels += [device.input_path, device.output_path]
    if isinstance(device, PortGraph):
        labels += [*device.entries, *device.terminals[1:]]
    return labels


@pytest.mark.parametrize("d", [2, 3, 12, 4096, 2**64 + 13])
@pytest.mark.parametrize("variant", VARIANTS)
def test_a_device_holds_one_object_per_label(variant, d):
    shift = -5 if variant == "shifted" else 0
    netlist = synth_variant(d, variant, shift)
    device = device_for(netlist, variant)
    graph = _graph(device)
    shared = {}
    for label in _labels(device) + _labels(graph):
        assert shared.setdefault(label, label) is label, label
    # and one object per label across devices
    assert shared[R(0)] is synth_arbitrary(5).input_path
    # a device rebuilt from fresh equal labels threads and verifies alike
    fresh = parse(serialize(netlist, variant_name(variant, shift))).netlist
    assert fresh == netlist
    assert not set(map(id, _labels(fresh))) & set(map(id, shared.values()))
    rebuilt = _graph(device_for(fresh, variant))
    assert rebuilt.wiring == graph.wiring
    assert list(rebuilt.entries.items()) == list(graph.entries.items())
    assert rebuilt.terminals == graph.terminals
    with mock.patch.object(analysis, "synth_variant", lambda *args: fresh):
        report = verify_gate(d, variant, shift)
    assert report == verify_gate(d, variant, shift) and report.passed
