"""Acceptance gate: one test per headline claim, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the checklist.
Each test re-derives its expected values from an independent oracle
(modular arithmetic, numpy matrix powers, integer bit twiddling) rather
than from the code under test.
"""

import math
import random
import time
from contextlib import contextmanager

import numpy as np

from oamcycle import (
    ModeVector,
    Netlist,
    apply_netlist,
    apply_portgraph,
    count_beamsplitters,
    discover_cycles,
    equal_up_to_global_phase,
    extract_permutation,
    invert,
    normalize,
    parse,
    r_path,
    scaling_table,
    serialize,
    simplify,
    simulate_word,
    synth_arbitrary,
    verify_gate,
)
from oamcycle.analysis import scaling_csv_lines
from oamcycle.elements import PORT_X, splitter_route_strict, splitter_unitary

R0 = r_path(0)


@contextmanager
def checklist(name):
    try:
        yield
    except BaseException:
        print(f"[acceptance] {name}: FAIL")
        raise
    print(f"[acceptance] {name}: PASS")


def basis(ell, amp=1.0):
    return ModeVector({(R0, ell): amp})


def random_superposition(rng, modes):
    state = ModeVector({(R0, ell): complex(rng.gauss(0, 1), rng.gauss(0, 1))
                        for ell in modes})
    return normalize(state)


def netlist_map(netlist, domain):
    return extract_permutation(
        lambda s: apply_netlist(netlist, s), domain,
        netlist.input_path, netlist.output_path,
    )


def cyclic_map(d, shift=0, step=1):
    return {k: ((k - shift + step) % d) + shift for k in range(shift, shift + d)}


def test_01_permutation_correctness_d2_to_128():
    with checklist("01 cyclic permutation, d=2..128, <10s"):
        start = time.perf_counter()
        for d in range(2, 129):
            report = verify_gate(d)
            assert report.passed, (d, report.violations)
            assert report.mapping == cyclic_map(d)
        assert time.perf_counter() - start < 10.0


def test_02_worked_examples():
    with checklist("02 worked examples d=3,8,10,11,88 (1e-10, global phase)"):
        assert netlist_map(synth_arbitrary(3), range(3)) == {0: 1, 1: 2, 2: 0}
        rng = random.Random(2026)
        cases = [
            (8, [2, 7], [3, 0]),
            (10, [1, 2], [2, 3]),
            (11, [1, 10], [2, 0]),
            (88, [0, 15], [1, 16]),
        ]
        for d, modes_in, modes_out in cases:
            netlist = synth_arbitrary(d)
            a1 = complex(rng.gauss(0, 1), rng.gauss(0, 1))
            a2 = complex(rng.gauss(0, 1), rng.gauss(0, 1))
            state = normalize(ModeVector({(R0, modes_in[0]): a1,
                                          (R0, modes_in[1]): a2}))
            expected = normalize(ModeVector({(R0, modes_out[0]): a1,
                                             (R0, modes_out[1]): a2}))
            out = apply_netlist(netlist, state)
            assert equal_up_to_global_phase(out, expected, tol=1e-10), d


def _odd_part(d):
    exp = 0
    while d % 2 == 0:
        d //= 2
        exp += 1
    return exp, d


def test_03_element_counts():
    with checklist("03 splitter counts: 18@88, 28@500, 12@{9,11,13,15}, 6@8; "
                   "formula d=2..1024"):
        for d, expected in [(88, 18), (500, 28), (9, 12), (11, 12),
                            (13, 12), (15, 12), (8, 6)]:
            assert count_beamsplitters(synth_arbitrary(d)) == expected, d
        for d in range(2, 1025):
            exp, odd = _odd_part(d)
            formula = 2 * (exp + 2 * (odd.bit_length() - 1))
            assert count_beamsplitters(synth_arbitrary(d)) == formula, d


def test_04_scaling_bound_and_plateau():
    with checklist("04 count <= 4*log2(d-1) for d=3..1024; odd plateaus "
                   "up to exponent 9"):
        for d in range(3, 1025):
            assert count_beamsplitters(synth_arbitrary(d)) <= 4 * math.log2(d - 1), d
        for exp in range(1, 10):
            counts = {count_beamsplitters(synth_arbitrary(d))
                      for d in range(2**exp + 1, 2 ** (exp + 1), 2)}
            assert counts == {4 * exp}, exp


def test_05_simplified_variant():
    with checklist("05 simplified: 8 splitters @ d=11, 16 @ d=500; folded-graph "
                   "permutation d in {3,5,9,11,15,33}, <5s"):
        assert count_beamsplitters(simplify(synth_arbitrary(11))) == 8
        assert count_beamsplitters(simplify(synth_arbitrary(500))) == 16
        start = time.perf_counter()
        for d in (3, 5, 9, 11, 15, 33):
            report = verify_gate(d, variant="simplified")
            assert report.passed, (d, report.violations)
            assert report.mapping == cyclic_map(d)
        assert time.perf_counter() - start < 5.0


def test_06_inverse_gate():
    with checklist("06 inverse: k -> k-1 mod d for d=2..64, same count, "
                   "composition = identity"):
        rng = random.Random(64)
        for d in range(2, 65):
            forward = synth_arbitrary(d)
            backward = invert(forward)
            assert count_beamsplitters(backward) == count_beamsplitters(forward)
            assert netlist_map(backward, range(d)) == cyclic_map(d, step=-1)
            state = random_superposition(rng, range(d))
            round_trip = apply_netlist(backward, apply_netlist(forward, state))
            assert equal_up_to_global_phase(round_trip, state, tol=1e-10), d
            round_trip = apply_netlist(forward, apply_netlist(backward, state))
            assert equal_up_to_global_phase(round_trip, state, tol=1e-10), d


def test_07_shifted_windows():
    with checklist("07 shifted windows: d in {3,10}, start m in -5..5"):
        for d in (3, 10):
            for m in range(-5, 6):
                report = verify_gate(d, variant="shifted", shift=m)
                assert report.passed, (d, m, report.violations)
                assert report.mapping == cyclic_map(d, shift=m)


def test_08_alternative_cycles():
    with checklist("08 d=11 window [-44,44]: canonical + >=3 more closed "
                   "11-cycles, re-verified"):
        netlist = synth_arbitrary(11)
        cycles = discover_cycles(netlist, -44, 44)
        modes = [cycle.modes for cycle in cycles]
        assert tuple(range(11)) in modes
        assert len(modes) >= 4
        for cycle in modes:
            assert len(cycle) == 11
            for i, ell in enumerate(cycle):
                out = apply_netlist(netlist, basis(ell))
                entries = dict(out.items())
                assert set(entries) == {(R0, cycle[(i + 1) % 11])}
                amp = next(iter(entries.values()))
                assert abs(abs(amp) - 1.0) <= 1e-9


def test_09_element_model_cross_validation():
    with checklist("09 physical splitter routes like the strict router for "
                   "m=1..1024, l=k*m, |k|<=8 (1e-12)"):
        for exp in range(11):
            m = 2**exp
            for k in range(-8, 9):
                ell = k * m
                u = np.array(splitter_unitary(m, ell))
                assert np.allclose(u @ u.conj().T, np.eye(2), atol=1e-12)
                stays = splitter_route_strict(m, PORT_X, ell) == PORT_X
                routed = u[0, 0] if stays else u[1, 0]
                assert abs(abs(routed) ** 2 - 1.0) <= 1e-12, (m, ell)


def test_10_gate_algebra():
    with checklist("10 X^d = identity for d=2..32; X/Z words match clock-"
                   "matrix oracle for d in {2,3,4,8} (1e-10)"):
        rng = random.Random(10)
        for d in range(2, 33):
            netlist = synth_arbitrary(d)
            state = random_superposition(rng, range(d))
            out = state
            for _ in range(d):
                out = apply_netlist(netlist, out)
            assert equal_up_to_global_phase(out, state, tol=1e-10), d
        for d in (2, 3, 4, 8):
            shift = np.roll(np.eye(d, dtype=complex), 1, axis=0)
            clock = np.diag(np.exp(2j * np.pi * np.arange(d) / d))
            state = random_superposition(rng, range(d))
            vec = np.array([state.get((R0, k)) for k in range(d)])
            for x_pow in range(d + 1):
                for z_pow in range(d + 1):
                    got = simulate_word(d, x_pow, z_pow, state)
                    want = (np.linalg.matrix_power(clock, z_pow)
                            @ np.linalg.matrix_power(shift, x_pow) @ vec)
                    expected = ModeVector({(R0, k): want[k] for k in range(d)})
                    assert equal_up_to_global_phase(got, expected, tol=1e-10), \
                        (d, x_pow, z_pow)


def test_11_serialization_and_scaling_run():
    with checklist("11 JSON round-trip d=2..256; scaling 3..500 <30s; CSV "
                   "reproduces the published counts"):
        for d in range(2, 257):
            text = serialize(synth_arbitrary(d))
            assert serialize(parse(text).netlist) == text, d
        start = time.perf_counter()
        rows = scaling_table(3, 500)
        csv_text = "".join(scaling_csv_lines(rows))
        assert time.perf_counter() - start < 30.0
        table = {}
        lines = csv_text.splitlines()
        assert lines[0] == "d,n_arb_actual,n_arb_predicted,n_s,naive,bound"
        for line in lines[1:]:
            cells = line.split(",")
            table[int(cells[0])] = cells[1:]
        for d, expected in [(88, 18), (500, 28), (9, 12), (11, 12),
                            (13, 12), (15, 12), (8, 6)]:
            assert int(table[d][0]) == expected, d
            assert int(table[d][1]) == expected, d
        assert int(table[11][2]) == 8
        assert int(table[500][2]) == 16
        for d in (3, 88, 500):
            assert float(table[d][4]) >= int(table[d][0])
