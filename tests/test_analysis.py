"""Verification reports, orbit discovery, scaling tables."""

import math
import tracemalloc
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from oamcycle import analysis, simulation
from oamcycle.analysis import (
    CycleSet,
    discover_cycles,
    scaling_csv_lines,
    scaling_table,
    verify_gate,
)
from oamcycle.model import Hologram, Netlist, OamBeamSplitter, r_path
from oamcycle.portgraph import UNWIRED, PortGraph
from oamcycle.simulation import SimulationConfig
from oamcycle.synthesis import (
    predict_count,
    predict_simplified_count,
    shifted_gate,
    simplify,
    synth_arbitrary,
)


# --- verify_gate -------------------------------------------------------------


def test_verify_standard():
    report = verify_gate(10)
    assert report.passed and report.permutation_ok
    assert report.mapping == {k: (k + 1) % 10 for k in range(10)}
    assert report.count_actual == report.count_predicted == 10
    assert report.bound == pytest.approx(4 * math.log2(9))


def test_verify_simplified():
    report = verify_gate(11, "simplified")
    assert report.passed
    assert report.count_actual == report.count_predicted == 8


def test_verify_inverse():
    report = verify_gate(5, "inverse")
    assert report.passed
    assert report.mapping == {0: 4, 1: 0, 2: 1, 3: 2, 4: 3}
    assert report.count_actual == 8


def test_verify_shifted():
    report = verify_gate(3, "shifted", shift=5)
    assert report.passed
    assert report.mapping == {5: 6, 6: 7, 7: 5}
    report = verify_gate(10, "shifted", shift=-3)
    assert report.passed
    assert report.mapping[-3] == -2 and report.mapping[6] == -3


@pytest.mark.parametrize("d", [*range(2, 65), 127, 128, 500, 1000, 2000])
def test_verify_physical(d):
    # exact splitter amplitudes leave no float dust on the wrong port
    report = verify_gate(d, config=SimulationConfig(mode="physical"))
    assert report.passed, report.violations[:3]


def test_verify_d2_bound_is_degenerate():
    report = verify_gate(2)
    assert report.passed and report.bound is None


def test_every_variant_meets_the_log_bound():
    # inverse and shifted gates have the standard count; the simplified one
    # has M + 2(N-1) + 2 <= 2M + 4(N-1) for N >= 2, so verify_gate checks
    # the bound for every variant
    for d in range(3, 4097):
        count, bound = predict_count(d)
        assert predict_simplified_count(d) <= count <= bound, d


def test_verify_rejects_bad_arguments():
    with pytest.raises(ValueError):
        verify_gate(5, "reversed")
    with pytest.raises(ValueError):
        verify_gate(5, "simplified", shift=2)
    for shift in (True, 2.0, 0.0, False):
        with pytest.raises(ValueError) as raised:
            verify_gate(5, shift=shift)
        assert str(raised.value) == f"shift must be an int, got {shift!r}"
    for lo, hi in ((0.5, 2), (True, 2), (0, 2.0)):
        with pytest.raises(TypeError, match="OAM value must be int"):
            discover_cycles(synth_arbitrary(3), lo, hi)


def piece_ends(device, lo, hi):
    """The first and last member of each piece `strict_pieces` routes in the
    window [lo, hi] of *device*: the values a proven window read probes, in
    either mode."""
    pieces, _, _ = simulation.strict_pieces(device, lo, hi)
    return {end for first, q, _, _ in pieces for end in (first, hi - (hi - first) % q)}


def record_probes(monkeypatch, image=lambda image: image):
    """Record, per call of `_probes` by the re-check, `_resimulate`, the
    values it draws from its domain, each as it is drawn, and return the
    list of calls.  Each image the packet engine yields to the re-check is
    passed through *image*; the window reads' own probes are left alone."""
    calls = []
    real, resimulate = simulation._probes, simulation._resimulate

    def drawn(values, into):
        for ell in values:
            into.append(ell)
            yield ell

    def recording(device, values, config):
        calls.append([])
        for ell, got in real(device, drawn(values, calls[-1]), config):
            yield ell, image(got)

    def rechecking(device, domain, expected, config):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(simulation, "_probes", recording)
            return resimulate(device, domain, expected, config)

    for module in (analysis, simulation):  # the certificate's re-check, and the others
        monkeypatch.setattr(module, "_resimulate", rechecking)
    return calls


def test_verify_probes_each_piece_end_once(monkeypatch):
    # the strict window read routes classes into pieces; the re-check probes
    # the first and last member of each piece, in ascending order, in one
    # call: 2, 7, 13 and 15 pieces, of which 2, 2, 5 and 3 have one member,
    # so 2, 12, 21 and 27 values
    calls = record_probes(monkeypatch)
    for d, probes in ((2, 2), (64, 12), (65, 21), (500, 27)):
        calls.clear()
        assert verify_gate(d).passed
        assert calls == [sorted(piece_ends(synth_arbitrary(d), 0, d - 1))]
        assert len(calls[0]) == probes


@pytest.mark.parametrize("mode", ["strict", "physical"])
def test_unit_probes_skip_the_general_readout(monkeypatch, mode):
    # every probe of a correct gate is walked as one packet, never split onto
    # the packet loop, and lands with modulus exactly 1; it is read off that
    # packet: no pruning, norm check or rescale
    loops, finished = [], []
    finish = simulation._finish
    calls = record_probes(monkeypatch)
    monkeypatch.setattr(simulation, "_propagate", lambda *args: loops.append(args))
    monkeypatch.setattr(simulation, "_finish", lambda *args: finished.append(args) or finish(*args))
    config = SimulationConfig(mode=mode)
    assert verify_gate(257, config=config).passed
    gate = synth_arbitrary(257)
    devices = (gate, simplify(gate))
    for device in devices:
        assert len(discover_cycles(device, -4 * 257, 4 * 257, config)) == 4
    # in both modes: the ends of the 17 pieces of the gate window, then the
    # ends of the pieces of each cycle window (leaking ones too), one call each
    assert [len(values) for values in calls] == [29, 36, 36]
    assert len(piece_ends(gate, 0, 256)) == 29
    for device in devices:
        assert len(piece_ends(device, -4 * 257, 4 * 257)) == 36
    assert loops == finished == []


def shift_the_packet_engine(monkeypatch):
    """Make the packet engine add 1 to the OAM value of every probe the
    re-check reads on the output path, and return the values the re-check
    probes, per call, in lists that grow as it probes.

    The window pass routes residue classes and, on a gate's own window, never
    runs the packet engine, so only the re-check sees the change.
    """
    return record_probes(monkeypatch, lambda image: None if image is None else image + 1)


@pytest.mark.parametrize("mode", ["strict", "physical"])
def test_verify_recheck_catches_a_changed_gate(monkeypatch, mode):
    # the first and last member of each piece is probed on the packet engine,
    # in both modes; a packet engine that disagrees with the pieces at those
    # ends is an error, not a report
    shift_the_packet_engine(monkeypatch)
    with pytest.raises(AssertionError, match="failed re-simulation"):
        verify_gate(11, config=SimulationConfig(mode=mode))


def test_verify_recheck_stops_at_the_first_differing_value(monkeypatch):
    # the strict re-check probes the 27 ends of the 15 pieces in ascending
    # order; each is compared as it is probed, so the first value that
    # differs raises, no value after it is probed, and no value-by-value
    # read follows
    calls = shift_the_packet_engine(monkeypatch)
    with pytest.raises(AssertionError, match=r"^\|0> -> 1 failed re-simulation \(got 2\)$"):
        verify_gate(500)
    assert calls == [[0]]


def test_verify_reports_failures_instead_of_raising(monkeypatch):
    # an impossible norm tolerance makes every simulation fail; the report
    # must say so rather than blow up
    monkeypatch.setattr(simulation, "NORM_TOLERANCE", -1.0)
    for mode in ("strict", "physical"):
        report = verify_gate(4, config=SimulationConfig(mode=mode))
        assert not report.passed
        assert not report.permutation_ok
        assert report.mapping == {}
        assert report.violations[0].startswith("simulation failed: terminal norm")


def test_verify_reports_a_splitter_count_off_the_formula_and_the_bound(monkeypatch):
    # the permutation is still read and passes; only the tally is wrong
    monkeypatch.setattr(analysis, "count_beamsplitters", lambda device: 10**6)
    report = verify_gate(5)
    assert report.permutation_ok and not report.passed
    assert report.violations == (
        "splitter count 1000000 != predicted 8",
        "splitter count 1000000 exceeds bound 8.0",
    )


# --- discover_cycles ----------------------------------------------------------


def test_canonical_cycle_alone_in_native_window():
    cycles = discover_cycles(synth_arbitrary(11), 0, 10)
    assert cycles == [CycleSet(tuple(range(11)))]


def test_d11_wide_window_has_five_cycles():
    cycles = discover_cycles(synth_arbitrary(11), -44, 44)
    starts = [c.modes[0] for c in cycles]
    assert starts == [-32, -16, 0, 16, 32]
    assert all(len(c) == 11 for c in cycles)
    # each extra cycle is eleven consecutive values
    for c in cycles:
        assert c.modes == tuple(range(c.modes[0], c.modes[0] + 11))


def test_proven_cycle_search_probes_only_piece_ends(monkeypatch):
    # the window of every netlist cycle search below is proven from its
    # pieces, so the packet engine sees their ends and no cycle edge; a
    # leaking piece's ends are probed too, expected to leave on another path
    probed = []
    real = simulation._resimulate

    def recording(device, domain, expected, config):
        domain = list(domain)
        probed.append(domain)
        return real(device, domain, expected, config)

    for module in (analysis, simulation):  # the per-edge re-check, and the certificate's
        monkeypatch.setattr(module, "_resimulate", recording)
    gate = synth_arbitrary(11)
    for lo, hi in ((0, 10), (-44, 44), (11, 15), (0, 9)):
        probed.clear()
        discover_cycles(gate, lo, hi)
        assert probed == [sorted(piece_ends(gate, lo, hi))]
    pieces, _, _ = simulation.strict_pieces(gate, -44, 44)
    assert any(path != gate.output_path for _, _, _, path in pieces)


def test_cycle_recheck_catches_a_changed_gate(monkeypatch):
    # every edge of a reported cycle is simulated again on the packet
    # engine, so a packet engine that disagrees is caught
    shift_the_packet_engine(monkeypatch)
    with pytest.raises(AssertionError, match="failed re-simulation"):
        discover_cycles(synth_arbitrary(11), 0, 10)


def test_physical_window_pass_finds_the_strict_cycles():
    net = synth_arbitrary(11)
    physical = discover_cycles(net, -44, 44, SimulationConfig(mode="physical"))
    assert physical == discover_cycles(net, -44, 44)


def test_cycles_on_folded_graph_match_netlist():
    net = synth_arbitrary(11)
    assert discover_cycles(simplify(net), -44, 44) == discover_cycles(net, -44, 44)


def test_no_cycles_in_a_gap_window():
    assert discover_cycles(synth_arbitrary(11), 11, 15) == []


def test_shifted_window_cycle():
    shifted = shifted_gate(synth_arbitrary(3), 1)
    cycles = discover_cycles(shifted, 1, 3)
    assert cycles == [CycleSet((1, 2, 3))]


def test_partial_window_breaks_cycle():
    # chopping one value off the window must kill the canonical cycle
    assert discover_cycles(synth_arbitrary(11), 0, 9) == []


def test_cycles_of_a_map_that_is_not_injective():
    # even values go through an order-2 splitter to +2 or -2 holograms, odd
    # ones to a +1 hologram, and all three exits wire to r0: the 2-cycles
    # {4k, 4k+2} each receive odd values too, which no netlist can do
    r0, r1, r2 = r_path(0), r_path(1), r_path(2)
    nodes = (
        OamBeamSplitter(1, r0, r1),
        OamBeamSplitter(2, r0, r2),
        Hologram(r0, 2),
        Hologram(r2, -2),
        Hologram(r1, 1),
    )
    wiring = [UNWIRED] * 20
    wiring[0], wiring[1], wiring[4], wiring[5] = 4, 16, 8, 12
    wiring[8] = wiring[12] = wiring[16] = ~1
    device = PortGraph(nodes, tuple(wiring), {r0: 0}, (None, r0), r0, r0, 2)
    mapping = simulation.window_permutation(device, -4, 5)
    assert mapping[-4] == mapping[-3] == -2
    for mode in ("strict", "physical"):
        cycles = discover_cycles(device, -4, 5, SimulationConfig(mode=mode))
        assert cycles == [CycleSet((-4, -2)), CycleSet((0, 2))]


def stepwise_cycles(mapping, d, recheck):
    """Cycles found by stepping up to d times from every window value, each
    cycle re-checked on its own: the reference the one-pass walk matches."""
    cycles = []
    members = set()
    for start in sorted(mapping):
        if start in members:
            continue
        orbit, visited = [start], {start}
        current = start
        closed = False
        for _ in range(d):
            current = mapping.get(current, None)
            if current is None or (current != start and current in visited):
                break
            if current == start:
                closed = len(orbit) == d
                break
            orbit.append(current)
            visited.add(current)
        if not closed or start != min(orbit):
            continue
        recheck(orbit)
        members.update(orbit)
        cycles.append(CycleSet(tuple(orbit)))
    return cycles


def steps_of(mapping, lo, hi):
    """*mapping* as the step list `_steps` returns for the window [lo, hi]:
    ``image - ell`` at ``ell - lo`` for each image in the window, else None."""
    steps = [None] * (hi - lo + 1)
    for ell, image in mapping.items():
        if lo <= image <= hi:
            steps[ell - lo] = image - ell
    return steps


@st.composite
def partial_maps(draw):
    """Maps of up to 25 values in -12..12: permutations of their keys, rich
    in loops, or arbitrary images, which are rarely injective."""
    keys = draw(st.lists(st.integers(-12, 12), unique=True, max_size=25))
    if draw(st.booleans()):
        images = draw(st.permutations(keys))
    else:
        images = draw(st.lists(st.integers(-14, 14), min_size=len(keys), max_size=len(keys)))
    return dict(zip(keys, images))


@settings(max_examples=500, deadline=None)
@given(partial_maps(), st.integers(1, 6), st.sets(st.integers(-12, 12), max_size=3))
def test_cycles_match_the_stepwise_walk(mapping, d, bad):
    rechecks = []

    def recheck(domain):
        # fails like `_resimulate`: at the first value of *domain* in *bad*
        rechecks.append(list(domain))
        wrong = next((ell for ell in domain if ell in bad), None)
        if wrong is not None:
            raise AssertionError(f"|{wrong}> failed re-simulation")

    def outcome(find):
        try:
            return find()
        except AssertionError as exc:
            return str(exc)

    cycles = stepwise_cycles(mapping, d, lambda orbit: None)
    members = [ell for cycle in cycles for ell in cycle.modes]
    expected = outcome(lambda: stepwise_cycles(mapping, d, recheck))
    for proven in (False, True):
        rechecks.clear()
        with pytest.MonkeyPatch.context() as patch:
            # the window read as the map given, proven from pieces or not
            patch.setattr(simulation, "strict_pieces", lambda graph, lo, hi: ([], [], None))
            patch.setattr(analysis, "_certified", lambda *args: proven)
            patch.setattr(
                analysis,
                "_steps",
                lambda window, config: steps_of(mapping, window.lo, window.hi),
            )
            patch.setattr(
                analysis,
                "_resimulate",
                lambda device, domain, expected, config: recheck(list(domain)),
            )
            got = outcome(lambda: discover_cycles(SimpleNamespace(dimension=d), -12, 12))
        if proven:  # the ends of the pieces were probed: no member is again
            assert got == cycles and rechecks == []
        else:
            assert got == expected
            # one re-check of every member, in the order the stepwise walk checks them
            assert rechecks == [members]


class CountedReads(list):
    """A step list that counts the reads of its entries, one by index or in
    iteration, and stops a walk past *limit* of them."""

    def __init__(self, steps, limit):
        super().__init__(steps)
        self.count, self.limit = 0, limit

    def _read(self):
        self.count += 1
        if self.count > self.limit:
            raise AssertionError(f"more than {self.limit} reads")

    def __getitem__(self, index):
        self._read()
        return super().__getitem__(index)

    def __iter__(self):
        for index in range(len(self)):
            yield self[index]


def test_each_window_value_is_walked_once(monkeypatch):
    # a +1 chain through 20001 values: a walk of up to d steps from every
    # value would make about 2 * 10^8 reads
    chain = Netlist((Hologram(r_path(0), 1),), r_path(0), r_path(0), 10**6)
    real = analysis._steps
    counted = []

    def counting(window, config):
        size = window.hi - window.lo + 1
        counted.append(CountedReads(real(window, config), 4 * size))
        return counted[-1]

    monkeypatch.setattr(analysis, "_steps", counting)
    # the list walked is the one filled from the window's one proven piece
    assert discover_cycles(chain, 0, 20000) == []
    assert len(counted) == 1 and 0 < counted[0].count <= 4 * 20001


@pytest.mark.parametrize(
    "device, lo, hi, found",
    [
        (synth_arbitrary(2**13), -(2**15), 2**15 - 1, 8),
        (Netlist((Hologram(r_path(0), 1),), r_path(0), r_path(0), 2**16), 0, 2**16 - 1, 0),
    ],
    ids=["gate", "chain"],
)
def test_cycle_search_memory_per_window_value(device, lo, hi, found):
    # the step list costs one pointer a value and a walk keeps its last d
    # values, so the cycles found are most of the peak (40 bytes a value
    # here); a window dict of int pairs and a position dict per walk took
    # 121 bytes a value on this gate window and 161 on the chain
    discover_cycles(device, 0, 0)  # the netlist's port graph is kept on it
    tracemalloc.start()
    try:
        cycles = discover_cycles(device, lo, hi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(cycles) == found
    assert peak / (hi - lo + 1) < 72


# --- scaling table ---------------------------------------------------------------


def test_scaling_rows_small_range():
    rows = scaling_table(3, 12)
    by_d = {row.d: row for row in rows}
    assert by_d[3].n_arb_actual == 4 and by_d[3].n_s == 4 and by_d[3].naive == 4
    assert by_d[8].n_arb_actual == 6 and by_d[8].n_s == 3 and by_d[8].naive == 14
    assert by_d[11].n_arb_actual == 12 and by_d[11].n_s == 8 and by_d[11].naive == 20
    assert by_d[4].bound == pytest.approx(4 * math.log2(3))


def test_scaling_covers_endpoints():
    rows = scaling_table(2, 5)
    assert [row.d for row in rows] == [2, 3, 4, 5]
    assert rows[0].bound is None


def test_scaling_500():
    row = scaling_table(500, 500)[0]
    assert row.n_arb_actual == row.n_arb_predicted == 28
    assert row.n_s == 16
    assert row.naive == 998


def test_scaling_asserts_each_row_against_the_formula_and_the_bound(monkeypatch):
    with monkeypatch.context() as patched:
        patched.setattr(analysis, "count_beamsplitters", lambda device: 10**6)
        with pytest.raises(AssertionError) as raised:
            scaling_table(5, 5)
        assert str(raised.value) == "d=5: tallied 1000000 splitters, formula 8"
    monkeypatch.setattr(analysis, "predict_count", lambda d: (predict_count(d)[0], 0.5))
    with pytest.raises(AssertionError) as raised:
        scaling_table(5, 5)
    assert str(raised.value) == "d=5: count 8 exceeds bound 0.5"


def test_scaling_rejects_bad_range():
    with pytest.raises(ValueError):
        scaling_table(1, 5)
    with pytest.raises(ValueError):
        scaling_table(10, 5)


def test_scaling_csv_format():
    rows = scaling_table(3, 5)
    text = "".join(scaling_csv_lines(rows))
    lines = text.splitlines()
    assert lines[0] == "d,n_arb_actual,n_arb_predicted,n_s,naive,bound"
    assert lines[1] == "3,4,4,4,4,4.0"
    # bound column must round-trip to the exact float from the rows
    for line, row in zip(lines[1:], rows):
        assert float(line.split(",")[-1]) == row.bound


def test_scaling_csv_empty_bound_for_d2():
    text = "".join(scaling_csv_lines(scaling_table(2, 2)))
    assert text.splitlines()[1] == "2,2,2,1,2,"
