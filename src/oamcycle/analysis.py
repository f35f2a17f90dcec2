"""Gate verification, cycle discovery, and scaling tables.

Everything here cross-checks two independent routes: simulated behavior
against the modular-arithmetic oracle, and tallied element counts
against the closed-form predictions.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Iterable, Iterator

from . import simulation
from .model import Netlist
from .portgraph import PortGraph, _tables
from .simulation import (
    DEFAULT_CONFIG,
    MAX_WINDOW,
    HopBudgetExceeded,
    NormDrift,
    SimulationConfig,
    _expand,
    _graph,
    _PieceMap,
    _probes,
    _steps,
    _Window,
    strict_pieces,
)
from .synthesis import (
    count_beamsplitters,
    device_for,
    naive_count,
    predict_count,
    predict_simplified_count,
    synth_arbitrary,
    synth_variant,
)


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of checking one synthesized gate against its oracle.

    ``mapping`` is the gate's map of its window [shift, shift + d - 1].
    For a window its pieces prove it is a read-only mapping backed by
    those pieces, never expanded, so it costs O(#pieces) at any d.  For
    a window they do not prove it is the dict read value by value, empty
    if the simulation failed, or for a window of more than ``MAX_WINDOW``
    values, which is not read value by value.
    """

    d: int
    variant: str
    shift: int
    permutation_ok: bool
    mapping: Mapping[int, int]
    count_actual: int
    count_predicted: int
    bound: float | None
    violations: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.violations


@dataclass(frozen=True)
class CycleSet:
    """A closed orbit of OAM values under a gate, canonical (minimum) first."""

    modes: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.modes)


def verify_gate(
    d: int,
    variant: str = "standard",
    shift: int = 0,
    config: SimulationConfig = DEFAULT_CONFIG,
) -> VerificationReport:
    """Synthesize the requested gate flavor and verify it end to end.

    The window is read one way in both modes: routed into residue-class
    pieces by `strict_pieces`, and proven by `_certified`, which probes
    each piece's first and last member on the packet engine, so the two
    engines check each other.  A proven window's map is read off its
    pieces, never expanded, and compared with the oracle piece by piece
    (`_off_oracle`), so a gate that passes costs O(#pieces) at any d.

    Only a window with a piece off the oracle, or not proven (a dropped
    class, a failure, an engine error in the end probes), is read value
    by value, and only up to ``MAX_WINDOW`` values: expanded, every value
    probed again if it is not proven, and each compared with modular
    arithmetic.  Above that bound the violations are the pieces off the
    oracle, or why the window is not proven.  Also checks the splitter
    tally against the count formula and (for d >= 3) the logarithmic
    bound.  Every discrepancy lands in ``violations``; simulation errors
    are recorded rather than raised.  An AssertionError means the engines
    disagree.
    """
    device = device_for(synth_variant(d, variant, shift), variant)
    step = -1 if variant == "inverse" else 1
    count_predicted, bound = predict_count(d)
    if variant == "simplified":
        count_predicted = predict_simplified_count(d)
    count_actual = count_beamsplitters(device)

    violations: list[str] = []
    graph = _graph(device)
    lo, hi = shift, shift + d - 1
    window = _Window(lo, hi, *strict_pieces(graph, lo, hi))
    mapping: Mapping[int, int] = {}
    if _certified(graph, window, config):
        mapping = _PieceMap(window, graph.output_path)
        violations = _off_oracle(graph, window, step)
        if violations and d <= MAX_WINDOW:
            violations = _misses(dict(mapping.items()), lo, hi, step)
    elif d <= MAX_WINDOW:
        domain = range(lo, hi + 1)
        try:
            read = _expand(graph, window, config)
            _resimulate(graph, domain, map(read.get, domain), config)
            mapping = read
        except (NormDrift, HopBudgetExceeded) as exc:
            violations.append(f"simulation failed: {exc}")
        violations += _misses(mapping, lo, hi, step)
    else:
        violations.append(_unproven(window))
    # the window read maps only window values, so no violation means equality
    permutation_ok = not violations

    if count_actual != count_predicted:
        violations.append(
            f"splitter count {count_actual} != predicted {count_predicted}"
        )
    if bound is not None and count_actual > bound:
        violations.append(f"splitter count {count_actual} exceeds bound {bound}")

    return VerificationReport(
        d=d,
        variant=variant,
        shift=shift,
        permutation_ok=permutation_ok,
        mapping=mapping,
        count_actual=count_actual,
        count_predicted=count_predicted,
        bound=bound,
        violations=tuple(violations),
    )


def _off_oracle(graph: PortGraph, window: _Window, step: int) -> list[str]:
    """A violation for each piece of the gate *window* of *graph* that does
    not reach the output path, or does not lie inside one of the oracle's
    two affine pieces (``+step`` on the window and the one wrap value) with
    its offset: its residue class, its member count, and its offset
    against the oracle's.  With none, a window that `_certified` proves
    is shifted by *step* (+1 or -1) mod its size."""
    lo, hi = window.lo, window.hi
    d = hi - lo + 1
    # the wrap value and the oracle's offset there
    wrap, back = (hi, 1 - d) if step == 1 else (lo, d - 1)
    violations = []
    for piece in window.pieces:
        first, q, offset, path = piece
        # a piece on the oracle formats nothing: its ints may have any size
        if path != graph.output_path:
            fault = f"leaves on {path}, expected {graph.output_path}"
        elif wrap < first or (wrap - first) % q:  # the wrap value is no member
            if offset == step:
                continue
            fault = f"shifted by {offset:+d}, expected {step:+d}"
        elif window.count(piece) == 1:
            if offset == back:
                continue
            fault = f"shifted by {offset:+d}, expected {back:+d}"
        else:
            fault = f"shifted by {offset:+d}, expected {step:+d}, and {back:+d} at |{wrap}>"
        violations.append(f"piece {first} mod {q} (members: {window.count(piece)}): {fault}")
    return violations


def _misses(read: Mapping[int, int], lo: int, hi: int, step: int) -> list[str]:
    """A violation for each value of the gate window [lo, hi] that *read*
    does not map as the oracle, a shift by *step* mod the window's size,
    does, each expected image computed where it is compared."""
    d = hi - lo + 1
    return [
        f"|{k}> mapped to {got}, expected |{want}>"
        for k in range(lo, hi + 1)
        if (got := read.get(k)) != (want := (k - lo + step) % d + lo)
    ]


def _unproven(window: _Window) -> str:
    """Why *window* proves nothing, as a violation: its failure, else its
    dropped classes, else its pieces, which `_certified` rejected."""
    if window.failure is not None:
        return f"simulation failed: {window.failure[1]}"
    dropped, pieces = len(window.dropped), len(window.pieces)
    because = f", {dropped} classes dropped at splitters" if dropped else ""
    return f"window [{window.lo}, {window.hi}] not proven from its {pieces} pieces{because}"


def _certified(graph: PortGraph, window: _Window, config: SimulationConfig) -> bool:
    """True if *window* of *graph*, as `strict_pieces` routes it, is a
    certificate of the window's map in either mode, checked on the packet
    engine under *config* at the ends of its pieces.

    The input path must have an entry, and nothing be dropped or failing.
    `_routes` proves that every member ``first + j*q`` of a piece takes
    its first member's port at every splitter and leaves on its path with
    its offset.  A value's walk from the input entry is fixed by the ports
    it takes, so a value in two pieces gives them one route: distinct
    routes mean disjoint pieces.  Every piece starts in the window (the
    classes of `strict_pieces` start at lo and only move up) and the member
    counts sum to its size, so the pieces partition it.  In physical mode
    too: a route meets each splitter at a multiple of its order, where
    `splitter_amplitudes` is one of its quarter turns, all the amplitude
    on the strict port times a power of i; a plate only adds a phase.
    Last, each piece's ends are probed with `_resimulate`, ascending, at
    ``ell + offset`` on the output path and left out otherwise; an
    AssertionError there is raised, an engine error gives False.
    """
    if window.dropped or window.failure is not None or graph.input_path not in graph.entries:
        return False
    if sum(map(window.count, window.pieces)) != window.hi - window.lo + 1:
        return False
    output = graph.output_path
    routes: set[int] = set()
    probes: dict[int, int | None] = {}
    for piece in window.pieces:
        route = _routes(graph, window, piece)
        if route is None or route in routes:
            return False
        routes.add(route)
        for end in (piece[0], window.last(piece)):
            probes[end] = end + piece[2] if piece[3] == output else None
    domain = sorted(probes)
    try:
        _resimulate(graph, domain, map(probes.get, domain), config)
    except (NormDrift, HopBudgetExceeded):
        return False
    return True


def _routes(graph: PortGraph, window: _Window, piece: tuple) -> int | None:
    """The route of *piece*, of *window*: the port its first member takes
    at each splitter, as the bits of an int below a leading 1, if that walk
    within the hop budget takes every member along and leaves on the
    piece's path with its offset; else None."""
    first, q, offset, path = piece
    wiring = graph.wiring
    orders, kicks = _tables(graph)
    slot, carried, route = graph.entries[graph.input_path], 0, 1
    for _ in range(simulation.HOPS_PER_NODE * max(1, len(graph.nodes)) + 1):
        if slot < 0:
            return route if graph.terminals[~slot] == path and carried == offset else None
        m = orders[slot]
        if m > 0:
            if (first + carried) % m or not (q % (2 * m) == 0 or window.count(piece) == 1):
                return None
            slot ^= (first + carried) // m & 1
            route = route << 1 | slot & 1
        else:  # a hologram, or a plate, which kicks by 0
            carried += kicks[slot]
        slot = wiring[slot]
    return None


def discover_cycles(
    device: Netlist | PortGraph,
    lo: int,
    hi: int,
    config: SimulationConfig = DEFAULT_CONFIG,
) -> list[CycleSet]:
    """Find every closed length-d orbit inside the OAM window [lo, hi].

    The window is read as `verify_gate` reads it, in both modes, and
    `_certified` probes the ends of its pieces whether they reach the
    output path or leak.  Values that split, leak to another path, or
    leave the window break the orbit they were part of.  The map is
    walked as the list of steps `_steps` fills from the pieces, one shared
    offset per piece: each value's step is marked None as it is walked,
    so no value is walked twice, and a walk that stops on the value it
    took d steps before closes a loop of length d, the last d values of
    the walk, which is all it keeps.  The loops are returned from their
    minimum, in ascending order of it.  A window not proven (an input
    path with no entry, a dropped class, a failure, an engine error in
    the end probes) has each cycle member probed again after the walk,
    in one pass, against its successor on its cycle, so the two engines
    check each other either way.
    """
    d = device.dimension
    graph = _graph(device)
    window = _Window(lo, hi, *strict_pieces(graph, lo, hi))
    steps = _steps(graph, window, config)
    proven = _certified(graph, window, config)
    cycles: list[tuple[int, ...]] = []
    # the last d values of a walk, as indices into steps; no loop is longer than the window
    last = deque(maxlen=min(d, len(steps)))
    for start, step in enumerate(steps):
        if step is None:  # no image in the window, or walked already
            continue
        i = start
        while (step := steps[i]) is not None:
            steps[i] = None
            last.append(i)
            i += step
        if len(last) == d and last[0] == i:  # back where it was d steps before
            loop = [lo + j for j in last]
            first = loop.index(min(loop))
            cycles.append(tuple(loop[first:] + loop[:first]))
        last.clear()
    del steps  # every entry None by now, but still a pointer each
    cycles.sort()
    if not proven:
        members = (ell for cycle in cycles for ell in cycle)
        successors = (image for cycle in cycles for image in cycle[1:] + cycle[:1])
        _resimulate(graph, members, successors, config)
    return [CycleSet(cycle) for cycle in cycles]


def _resimulate(
    device: Netlist | PortGraph,
    domain: Iterable[int],
    expected: Iterable[int | None],
    config: SimulationConfig,
) -> None:
    """Probe each value of *domain* on the packet engine with `_probes`, and
    raise AssertionError at the first whose image differs from its
    *expected* one, given in the order of *domain*, None meaning left out.

    Each value is compared as it is probed, so a differing value raises
    before any later value is probed: the AssertionError wins over an
    engine error at a later value, which a probe of the whole domain would
    have raised.
    """
    for (ell, image), want in zip(_probes(device, domain, config), expected, strict=True):
        if image != want:
            raise AssertionError(f"|{ell}> -> {want} failed re-simulation (got {image})")


@dataclass(frozen=True)
class ScalingRow:
    d: int
    n_arb_actual: int
    n_arb_predicted: int
    n_s: int
    naive: int
    bound: float | None


def scaling_rows(d_min: int, d_max: int) -> Iterator[ScalingRow]:
    """The rows of `scaling_table`, each made as it is drawn.

    The range is checked at once; a row that breaks the tally/formula
    identity or the bound raises when it is drawn.
    """
    if d_min < 2 or d_max < d_min:
        raise ValueError(f"need 2 <= d_min <= d_max, got [{d_min}, {d_max}]")
    return map(_scaling_row, range(d_min, d_max + 1))


def _scaling_row(d: int) -> ScalingRow:
    actual = count_beamsplitters(synth_arbitrary(d))
    predicted, bound = predict_count(d)
    if actual != predicted:
        raise AssertionError(f"d={d}: tallied {actual} splitters, formula {predicted}")
    if bound is not None and actual > bound:
        raise AssertionError(f"d={d}: count {actual} exceeds bound {bound}")
    return ScalingRow(d, actual, predicted, predict_simplified_count(d), naive_count(d), bound)


def scaling_table(d_min: int, d_max: int) -> list[ScalingRow]:
    """Tally-vs-formula splitter counts for every dimension in [d_min, d_max].

    Each row also carries the simplified and brute-force counts and the
    log bound; the tally/formula identity and the bound are asserted
    row by row.
    """
    return list(scaling_rows(d_min, d_max))


def scaling_csv_lines(rows: Iterable[ScalingRow]) -> Iterator[str]:
    """*rows* as CSV lines, newline included, the header first and then one
    per row as it is drawn; each bound is written with full float precision."""
    yield "d,n_arb_actual,n_arb_predicted,n_s,naive,bound\n"
    for row in rows:
        bound = repr(row.bound) if row.bound is not None else ""
        yield f"{row.d},{row.n_arb_actual},{row.n_arb_predicted},{row.n_s},{row.naive},{bound}\n"
