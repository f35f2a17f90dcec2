"""`verify_gate` proves a gate from its residue-class pieces, in both modes;
these tests hold its reports to the value-by-value read and re-check it
replaced, and check the pieces with the certificate checker of
`reference_netlist`.

`check_dimension` is the differential for one d, in both modes, run here for
every d in 2..300 and by ``tools/verify_differential.py`` up to any bound.
Past any window that could be expanded, at the dimensions of `LARGE`, the
reports are checked against modular arithmetic at sampled values.
"""

import dataclasses
import random
import re
import sys
import time
from fractions import Fraction
from itertools import islice
from unittest import mock

import pytest

from oamcycle import analysis, simulation
from oamcycle.analysis import verify_gate
from oamcycle.model import Hologram, Netlist, OamBeamSplitter, r_path
from oamcycle.portgraph import PortGraph
from oamcycle.simulation import (
    HopBudgetExceeded,
    NormDrift,
    SimulationConfig,
    _resimulate,
    _Window,
    strict_pieces,
    window_permutation,
)
from oamcycle.synthesis import (
    VARIANTS,
    count_beamsplitters,
    device_for,
    predict_count,
    predict_simplified_count,
    synth_variant,
)
from reference_netlist import check_certificate
from test_analysis import piece_ends, record_probes, shift_the_packet_engine
from test_strict_permutation import MODES

#: large dimensions and the number of pieces of each variant's window
LARGE = {2**61 - 1: 121, 2**64 + 13: 129, 3**60: 191}


def reference_verify_gate(d, variant, shift, config, device):
    """The report `verify_gate` gave before pieces, for *device*: the window
    read value by value with `window_permutation`, every value probed again
    on the packet engine, and each compared with modular arithmetic."""
    step = -1 if variant == "inverse" else 1
    count_predicted, bound = predict_count(d)
    if variant == "simplified":
        count_predicted = predict_simplified_count(d)
    count_actual = count_beamsplitters(device)
    violations = []
    domain = range(shift, shift + d)
    mapping = {}
    try:
        read = window_permutation(device, shift, shift + d - 1, config)
        _resimulate(device, domain, map(read.get, domain), config)
        mapping = read
    except (NormDrift, HopBudgetExceeded) as exc:
        violations.append(f"simulation failed: {exc}")
    for k in domain:
        got, want = mapping.get(k), (k - shift + step) % d + shift
        if got != want:
            violations.append(f"|{k}> mapped to {got}, expected |{want}>")
    permutation_ok = not violations
    if count_actual != count_predicted:
        violations.append(f"splitter count {count_actual} != predicted {count_predicted}")
    if bound is not None and count_actual > bound:
        violations.append(f"splitter count {count_actual} exceeds bound {bound}")
    return analysis.VerificationReport(
        d, variant, shift, permutation_ok, mapping, count_actual, count_predicted, bound,
        tuple(violations),
    )


def with_one_charge_flipped(device, rng):
    """*device* with the charge of one of its holograms, drawn by *rng*, negated."""
    field = "nodes" if hasattr(device, "nodes") else "elements"
    elements = list(getattr(device, field))
    i = rng.choice([i for i, el in enumerate(elements) if type(el) is Hologram])
    elements[i] = Hologram(elements[i].path, -elements[i].v)
    return dataclasses.replace(device, **{field: tuple(elements)})


def gates(d):
    """``(variant, shift, device)`` for every variant at dimension d, each
    shift drawn from ``random.Random(d)``, then one of them, drawn too,
    with one hologram charge flipped."""
    rng = random.Random(d)
    made = []
    for variant in VARIANTS:
        shift = 0 if variant == "simplified" else rng.randint(-(10**6), 10**6)
        made.append((variant, shift, device_for(synth_variant(d, variant, shift), variant)))
    variant, shift, device = rng.choice(made)
    return made + [(variant, shift, with_one_charge_flipped(device, rng))]


def check_dimension(d):
    """Assert that `verify_gate` reports what `reference_verify_gate` does,
    in each mode of `MODES`, for every gate `gates` makes at dimension d,
    mapping order and repr and all, and that `check_certificate` accepts
    the pieces of each unbroken gate; return the number of gates that pass
    in each mode, in the order of `MODES`."""
    made = gates(d)
    for variant, shift, device in made[:-1]:
        window = (shift, shift + d - 1)
        step = -1 if variant == "inverse" else 1
        check_certificate(device, strict_pieces(device, *window), *window, step)
    passed = []
    for mode in MODES:
        config = SimulationConfig(mode)
        passed.append(0)
        for variant, shift, device in made:
            report = verify_with(device, d, variant, shift, config)
            want = reference_verify_gate(d, variant, shift, config, device)
            assert report == want, (d, variant, shift, mode)
            assert list(report.mapping.items()) == list(want.mapping.items()), (d, variant, mode)
            assert repr(report) == repr(want), (d, variant, mode)
            passed[-1] += report.passed
    return passed


def verify_with(device, d, variant, shift, config):
    """`verify_gate`'s report on *device* in place of the gate it synthesizes."""
    with mock.patch.object(analysis, "device_for", lambda netlist, name: device):
        return verify_gate(d, variant, shift, config)


def test_pieces_report_what_the_value_by_value_read_reports():
    for d in range(2, 301):
        # in each mode the four unbroken gates pass, and the broken one fails
        assert check_dimension(d) == [4, 4], d


def tampered(pieces, hi):
    """Each way of changing the pieces of a gate window ending at *hi* so
    that they prove nothing: one left out, one twice, one with another
    offset, one on another path, and one in place of another of as many
    members and the same offset, which leaves the count right."""
    (first, q, offset, path), *rest = pieces
    yield rest
    yield pieces + pieces[:1]
    yield [(first, q, offset + 1, path), *rest]
    yield [(first, q, offset, r_path(7)), *rest]
    alike = {}
    for i, (first, q, offset, _) in enumerate(pieces):
        j = alike.setdefault(((hi - first) // q, offset), i)
        if j != i:
            yield pieces[:i] + [pieces[j]] + pieces[i + 1 :]
            break


@pytest.mark.parametrize("d", [2, 12, 500])
def test_verify_reads_tampered_pieces_value_by_value(monkeypatch, d):
    device = synth_variant(d)
    config = SimulationConfig()
    window = _Window.routed(device, 0, d - 1)
    graph, pieces, dropped, failure = window.graph, window.pieces, window.dropped, window.failure
    assert simulation._certified(window, config)
    assert not analysis._off_oracle(window, 1)
    for changed in tampered(pieces, d - 1):
        changed = _Window(graph, 0, d - 1, changed, dropped, failure)
        assert not simulation._certified(changed, config)
    # a dropped class or a failure proves nothing either, whatever the pieces
    for rest in (([(0, 1, 0, 0)], None), ([], (0, ValueError()))):
        assert not simulation._certified(_Window(graph, 0, d - 1, pieces, *rest), config)
    # a certified window is off the oracle of the other step, except at d = 2,
    # where the shifts by +1 and -1 are one map
    assert (not analysis._off_oracle(window, -1)) == (d == 2)
    # and a gate its pieces do not prove is read value by value
    monkeypatch.setattr(analysis, "_certified", lambda *args: False)
    assert verify_gate(d) == reference_verify_gate(d, "standard", 0, config, device)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("d", [12, 257, 500])
def test_a_certified_broken_gate_is_not_probed_again(monkeypatch, mode, d):
    # the broken gate of the differential is certified and off the oracle: its
    # report is read from the map its pieces prove, so the packet engine sees
    # the ends of its pieces, in ascending order, in one call, and no window
    # value again, and the window is not filled in a second time
    variant, shift, device = gates(d)[-1]
    config = SimulationConfig(mode)

    def refill(*args):
        raise AssertionError("a certified window was filled again")

    with monkeypatch.context() as patch:
        calls = record_probes(patch)
        patch.setattr(analysis, "_expand", refill)
        report = verify_with(device, d, variant, shift, config)
    assert calls == [sorted(piece_ends(device, shift, shift + d - 1))]
    assert report == reference_verify_gate(d, variant, shift, config, device)
    assert not report.passed and not report.permutation_ok


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("variant, sign", [("standard", 1), ("inverse", 1), ("shifted", -1)])
def test_a_gate_passes_at_a_shift_too_long_to_print(mode, variant, sign):
    # the shift has one digit more than str() writes for an int: a piece on
    # the oracle is not named, so nothing is formatted
    shift = sign * 10 ** sys.get_int_max_str_digits()
    report = verify_gate(5, variant, shift, SimulationConfig(mode))
    assert report.passed and report.permutation_ok
    step = -1 if variant == "inverse" else 1
    assert [report.mapping[k] - shift for k in range(shift, shift + 5)] == [
        (k + step) % 5 for k in range(5)
    ]


def with_last_charge_raised(netlist):
    """*netlist* with the charge of its last hologram raised by 1: each value
    it maps leaves one above its image."""
    elements = list(netlist.elements)
    i = max(i for i, el in enumerate(elements) if type(el) is Hologram)
    elements[i] = Hologram(elements[i].path, elements[i].v + 1)
    return dataclasses.replace(netlist, elements=tuple(elements))


def shown(n):
    """*n* as a report writes it: in decimal up to `sys.get_int_max_str_digits()`
    digits, in hex past them."""
    if n is not None and abs(n) >= 10 ** sys.get_int_max_str_digits():
        return f"{n:#x}"
    return str(n)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("d", [5, simulation.MAX_WINDOW + 1])
def test_a_broken_gate_is_reported_at_a_shift_too_long_to_print(monkeypatch, mode, sign, d):
    # the shift has one digit more than str() writes for an int: every value
    # a violation names is written in decimal up to that many digits and in
    # hex past them, value by value up to MAX_WINDOW and piece by piece above
    big, small = sign * 10 ** sys.get_int_max_str_digits(), 10**5
    config = SimulationConfig(mode)
    devices = {s: with_last_charge_raised(synth_variant(d, "standard", s)) for s in (small, big)}
    report = verify_with(devices[big], d, "standard", big, config)
    assert not report.passed and not report.permutation_ok
    if d == 5:
        oracle = [(k, (k - big + 1) % d + big) for k in range(big, big + d)]
        want = [
            f"|{shown(k)}> mapped to {shown(image + 1)}, expected |{shown(image)}>"
            for k, image in oracle
        ]
    else:  # the texts of a shift that prints, with each window value moved
        def moved(match):
            return match[1] + shown(int(match[2]) - small + big)

        texts = verify_with(devices[small], d, "standard", small, config).violations
        want = [re.sub(r"(piece |at \|)(-?\d+)", moved, text) for text in texts]
    assert list(report.violations) == want
    if d > simulation.MAX_WINDOW:  # a window not proven is named by its bounds
        monkeypatch.setattr(analysis, "_certified", lambda *args: False)
        report = verify_with(devices[big], d, "standard", big, config)
        pieces = len(strict_pieces(devices[big], big, big + d - 1)[0])
        bounds = f"[{shown(big)}, {shown(big + d - 1)}]"
        assert report.violations == (f"window {bounds} not proven from its {pieces} pieces",)


@pytest.mark.parametrize("mode", MODES)
def test_a_passing_map_prints_at_a_shift_too_long_to_print(mode):
    # past MAX_WINDOW values the map's repr is a summary, which names its window
    d, shift = 2**21 + 3, 10 ** sys.get_int_max_str_digits()
    report = verify_gate(d, "standard", shift, SimulationConfig(mode))
    assert report.passed
    window = f"[{shift:#x}, {shift + d - 1:#x}]"
    pieces = len(strict_pieces(synth_variant(d, "standard", shift), shift, shift + d - 1)[0])
    summary = f"<map of {d} values of the window {window} from {pieces} pieces>"
    assert repr(report.mapping) == summary
    counts = f"count_actual={report.count_actual}, count_predicted={report.count_predicted}"
    assert repr(report) == (
        f"VerificationReport(d={d}, variant='standard', shift={shift:#x},"
        f" permutation_ok=True, mapping={summary}, {counts}, bound={report.bound!r},"
        " violations=())"
    )
    # a report that prints in decimal prints as the dataclass repr would
    small = verify_gate(5, "standard", 3, SimulationConfig(mode))
    assert repr(small) == (
        "VerificationReport(d=5, variant='standard', shift=3, permutation_ok=True,"
        " mapping={3: 4, 4: 5, 5: 6, 6: 7, 7: 3}, count_actual=8, count_predicted=8,"
        " bound=8.0, violations=())"
    )


@pytest.mark.parametrize("mode", MODES)
def test_a_failed_recheck_is_raised_at_a_shift_too_long_to_print(monkeypatch, mode):
    shift = 10 ** sys.get_int_max_str_digits()
    shift_the_packet_engine(monkeypatch)
    with pytest.raises(AssertionError) as raised:
        verify_gate(5, "standard", shift, SimulationConfig(mode))
    want = f"|{shift:#x}> -> {shift + 1:#x} failed re-simulation (got {shift + 2:#x})"
    assert str(raised.value) == want


@pytest.mark.parametrize("mode", MODES)
def test_a_window_with_a_dropped_class_is_compared_value_by_value(mode):
    # a gate of dimension 4 with one charge changed drops the class 1 mod 2 at
    # a splitter, while its one piece lies on the oracle: the map is not
    # proven, so the values the piece does not hold are compared one by one
    gate = synth_variant(4)
    elements = list(gate.elements)
    elements[1] = Hologram(elements[1].path, elements[1].v - 1)
    device = dataclasses.replace(gate, elements=tuple(elements))
    window = _Window.routed(device, 0, 3)
    assert window.dropped and window.failure is None
    assert not analysis._off_oracle(window, 1)
    config = SimulationConfig(mode)
    report = verify_with(device, 4, "standard", 0, config)
    assert report == reference_verify_gate(4, "standard", 0, config, device)
    assert not report.permutation_ok


def test_a_piece_is_proven_only_if_each_member_takes_its_route():
    # even values stay on r0 and odd ones cross to r1; each gains 1 and
    # crosses the second order-1 splitter onto r1, so the two classes mod 2
    # take two routes to one offset, and their union mod 1 is not one route
    r0, r1 = r_path(0), r_path(1)
    splitter = OamBeamSplitter(1, r0, r1)
    device = simulation._graph(
        Netlist((splitter, Hologram(r0, 1), Hologram(r1, 1), splitter), r0, r1, 2)
    )
    assert strict_pieces(device, 0, 3) == ([(0, 2, 1, r1), (1, 2, 1, r1)], [], None)
    window = _Window(device, 0, 3, [], [], None)
    assert simulation._routes(window, (0, 2, 1, r1))
    assert simulation._routes(window, (1, 2, 1, r1))
    routes = [simulation._routes(window, (first, 2, 1, r1)) for first in (0, 1)]
    assert all(type(route) is int for route in routes) and routes[0] != routes[1]
    assert not simulation._routes(window, (0, 1, 1, r1))
    assert simulation._routes(_Window(device, 0, 0, [], [], None), (0, 1, 1, r1))  # one member
    assert not simulation._routes(window, (0, 2, 2, r1))
    assert not simulation._routes(window, (0, 2, 1, r0))


def self_loop():
    """One hologram, its forward exit wired back to its forward entry: every
    value circles until the hop budget runs out."""
    r0 = r_path(0)
    return PortGraph((Hologram(r0, 1),), (0, ~0, ~0, ~0), {r0: 0}, (None, r0), r0, r0, 2)


def test_a_route_past_the_hop_budget_proves_nothing():
    loop = self_loop()
    window = _Window(loop, 0, 0, [], [], None)
    assert simulation._routes(window, (0, 1, 1, loop.output_path)) is None


@pytest.mark.parametrize("mode", MODES)
def test_a_failing_window_past_max_window_reports_its_failure(mode):
    # its pieces prove nothing and it is not read value by value: the report
    # names the failure, then the splitter count, 0 against the formula's
    d = simulation.MAX_WINDOW + 1
    report = verify_with(self_loop(), d, "standard", 0, SimulationConfig(mode))
    failure = "simulation failed: packets still in flight after 10 node traversals"
    assert report.violations[0] == failure
    assert report.violations[1:] == (f"splitter count 0 != predicted {predict_count(d)[0]}",)
    assert report.mapping == {} and not report.permutation_ok


@pytest.mark.parametrize("d", [2, 12, 500])
def test_certificate_checker_rejects_what_proves_nothing(d):
    device = synth_variant(d)
    pieces, dropped, failure = strict_pieces(device, 0, d - 1)
    for changed in tampered(pieces, d - 1):
        with pytest.raises(AssertionError):
            check_certificate(device, (changed, dropped, failure), 0, d - 1, 1)
    if d > 2:  # at d = 2 the shifts by +1 and -1 are one map
        with pytest.raises(AssertionError):
            check_certificate(device, (pieces, dropped, failure), 0, d - 1, -1)
    broken = with_one_charge_flipped(device, random.Random(d))
    with pytest.raises(AssertionError):
        check_certificate(broken, strict_pieces(broken, 0, d - 1), 0, d - 1, 1)


@pytest.mark.parametrize("d", LARGE)
@pytest.mark.parametrize("variant", ["standard", "simplified", "inverse"])
def test_certificate_checker_accepts_the_pieces_of_large_gates(d, variant):
    device = device_for(synth_variant(d, variant), variant)
    result = strict_pieces(device, 0, d - 1)
    check_certificate(device, result, 0, d - 1, -1 if variant == "inverse" else 1)
    assert len(result[0]) == LARGE[d]


def test_a_piece_map_reads_as_the_dict_it_stands_for(monkeypatch):
    device = synth_variant(12)
    read = simulation._PieceMap(_Window.routed(device, 0, 11))
    want = window_permutation(device, 0, 11)
    assert read == want and want == read and not read != want
    assert list(read.items()) == list(want.items())
    assert list(read) == list(want) and list(read.values()) == list(want.values())
    assert len(read) == 12 and repr(read) == repr(want)
    assert read.get(11) == 0 and 12 not in read and -1 not in read
    # keys equal to an int are found, as in a dict
    for key in (True, 1.0, Fraction(1), 1.5, "1", None, float("nan"), float("inf")):
        assert read.get(key) == want.get(key) and (key in read) == (key in want), key
    changed = {**want, 3: 5}, {k: v for k, v in want.items() if k != 3}, {**want, 12: 0}
    assert all(read != other for other in changed)
    assert read != list(want.items())
    # other pieces of the same map are equal; the same pieces on another window are not
    graph = read._window.graph
    out = graph.output_path

    def piece_map(pieces, lo, hi):
        return simulation._PieceMap(_Window(graph, lo, hi, pieces, [], None))

    whole = piece_map([(0, 1, 1, out)], 0, 3)
    assert whole == piece_map([(1, 2, 1, out), (0, 2, 1, out)], 0, 3)
    assert whole != piece_map([(0, 1, 1, out)], 0, 4)
    # the repr is the dict's up to MAX_WINDOW values, a summary above
    monkeypatch.setattr(simulation, "MAX_WINDOW", 4)
    assert repr(whole) == "{0: 1, 1: 2, 2: 3, 3: 4}"
    wide = piece_map([(0, 1, 1, out)], 0, 4)
    assert repr(wide) == "<map of 5 values of the window [0, 4] from 1 pieces>"


def large_gates():
    """``(d, variant, shift)`` for each of `LARGE`'s dimensions and four
    variants, the shifted one on a shift drawn from ``random.Random(d)``."""
    for d in LARGE:
        for variant in ("standard", "simplified", "inverse", "shifted"):
            shift = random.Random(d).randint(-d, d) if variant == "shifted" else 0
            yield d, variant, shift


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("d, variant, shift", large_gates())
def test_large_gates_are_proven_from_their_pieces(mode, d, variant, shift):
    report = verify_gate(d, variant, shift, SimulationConfig(mode))
    predicted = predict_simplified_count(d) if variant == "simplified" else predict_count(d)[0]
    assert report.passed and report.count_actual == predicted
    step = -1 if variant == "inverse" else 1
    lo, hi = shift, shift + d - 1
    rng = random.Random(d)
    for k in [lo, lo + 1, hi - 1, hi, *(rng.randint(lo, hi) for _ in range(50))]:
        assert report.mapping[k] == (k - shift + step) % d + shift
    assert lo - 1 not in report.mapping and report.mapping.get(hi + 1) is None
    assert list(islice(report.mapping.items(), 3)) == [
        (k, (k - shift + step) % d + shift) for k in range(lo, lo + 3)
    ]
    assert report.mapping.__len__() == d
    if d > sys.maxsize:  # as for a range
        with pytest.raises(OverflowError):
            len(report.mapping)
    assert len(repr(report.mapping)) < 200


@pytest.mark.parametrize("mode", MODES)
def test_an_unproven_large_gate_fails_with_few_violations(monkeypatch, mode):
    d = 2**64 + 13
    config = SimulationConfig(mode)
    # a certified gate off the oracle: one violation per piece off it
    variant, shift, device = gates(d)[-1]
    window = _Window.routed(device, shift, shift + d - 1)
    assert simulation._certified(window, config)
    start = time.perf_counter()
    report = verify_with(device, d, variant, shift, config)
    assert time.perf_counter() - start < 1.0
    assert not report.passed and not report.permutation_ok
    assert 0 < len(report.violations) <= len(window.pieces)
    piece = re.compile(r"piece -?\d+ mod \d+ \(members: \d+\): .*")
    assert all(map(piece.fullmatch, report.violations))
    assert len(repr(report.mapping)) < 200
    # a window its pieces do not prove: one violation, and no value read
    monkeypatch.setattr(analysis, "_certified", lambda *args: False)
    start = time.perf_counter()
    report = verify_gate(d, config=config)
    assert time.perf_counter() - start < 1.0
    assert report.violations == (f"window [0, {d - 1}] not proven from its 129 pieces",)
    assert report.mapping == {} and not report.permutation_ok
