"""Verification reports, orbit discovery, scaling tables."""

import math

import pytest

from oamcycle import analysis, simulation
from oamcycle.analysis import (
    CycleSet,
    discover_cycles,
    scaling_csv,
    scaling_table,
    verify_gate,
)
from oamcycle.model import ModeVector
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
