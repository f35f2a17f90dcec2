"""Verification reports, orbit discovery, scaling tables."""

import math
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from oamcycle import analysis, simulation
from oamcycle.analysis import (
    CycleSet,
    discover_cycles,
    scaling_csv,
    scaling_table,
    verify_gate,
)
from oamcycle.model import Hologram, ModeVector, Netlist, OamBeamSplitter, r_path
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


def shift_the_packet_engine(monkeypatch):
    """Make every re-simulation in `analysis` add 1 to each output OAM value.

    The window pass routes residue classes and never calls
    `analysis.transform`, so only the re-check sees the change.
    """
    real = analysis.transform

    def shifted(device, config):
        gate = real(device, config)
        return lambda state: ModeVector(
            {(path, ell + 1): amp for (path, ell), amp in gate(state).items()}
        )

    monkeypatch.setattr(analysis, "transform", shifted)


@pytest.mark.parametrize("mode", ["strict", "physical"])
def test_verify_recheck_catches_a_changed_gate(monkeypatch, mode):
    # every window value is probed again on the packet engine; a packet
    # engine that disagrees with the window read is an error, not a report
    shift_the_packet_engine(monkeypatch)
    with pytest.raises(AssertionError, match="failed re-simulation"):
        verify_gate(11, config=SimulationConfig(mode=mode))


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
    rechecks.clear()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(analysis, "window_permutation", lambda device, lo, hi, config: mapping)
        patch.setattr(analysis, "_resimulate", lambda device, domain, *images: recheck(domain))
        got = outcome(lambda: discover_cycles(SimpleNamespace(dimension=d), -12, 12))
    assert got == expected
    # one re-check of every member, in the order the stepwise walk checks them
    assert rechecks == [members]


class CountedLookups(dict):
    """A window map that counts its lookups and stops a walk past *limit*."""

    def __init__(self, mapping, limit):
        super().__init__(mapping)
        self.count, self.limit = 0, limit

    def _looked_up(self):
        self.count += 1
        if self.count > self.limit:
            raise AssertionError(f"more than {self.limit} lookups")

    def __contains__(self, key):
        self._looked_up()
        return super().__contains__(key)

    def __getitem__(self, key):
        self._looked_up()
        return super().__getitem__(key)

    def get(self, key, default=None):
        self._looked_up()
        return super().get(key, default)


def test_each_window_value_is_walked_once(monkeypatch):
    # a +1 chain through 20001 values: a walk of up to d steps from every
    # value would make about 2 * 10^8 lookups
    chain = Netlist((Hologram(r_path(0), 1),), r_path(0), r_path(0), 10**6)
    real = analysis.window_permutation
    counted = []

    def counting(device, lo, hi, config):
        counted.append(CountedLookups(real(device, lo, hi, config), 4 * (hi - lo + 1)))
        return counted[-1]

    monkeypatch.setattr(analysis, "window_permutation", counting)
    assert discover_cycles(chain, 0, 20000) == []
    assert 0 < counted[0].count <= 4 * 20001


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


def test_scaling_rejects_bad_range():
    with pytest.raises(ValueError):
        scaling_table(1, 5)
    with pytest.raises(ValueError):
        scaling_table(10, 5)


def test_scaling_csv_format():
    rows = scaling_table(3, 5)
    text = scaling_csv(rows)
    lines = text.splitlines()
    assert lines[0] == "d,n_arb_actual,n_arb_predicted,n_s,naive,bound"
    assert lines[1] == "3,4,4,4,4,4.0"
    # bound column must round-trip to the exact float from the rows
    for line, row in zip(lines[1:], rows):
        assert float(line.split(",")[-1]) == row.bound


def test_scaling_csv_empty_bound_for_d2():
    text = scaling_csv(scaling_table(2, 2))
    assert text.splitlines()[1] == "2,2,2,1,2,"
