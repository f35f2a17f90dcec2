"""Gate verification, cycle discovery and gate words.

Everything here cross-checks simulated behavior against the
modular-arithmetic oracle, and a gate's tallied splitter count against
the closed-form prediction.  A window is routed, read and proven in
`simulation` (`_Window.routed`, `_certified`); this module compares what
it proves with the oracle, and reads no port table.  The scaling table,
which needs no simulation, is defined in `synthesis`; its names stay
importable here.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Mapping

from .elements import HopBudgetExceeded, NormDrift, _int_text, z_phase
from .model import MAX_WINDOW, ModeVector, Netlist, _is_int, _Record, _set
from .portgraph import PortGraph
from .simulation import (
    DEFAULT_CONFIG,
    STRICT,
    SimulationConfig,
    _certified,
    _expand,
    _PieceMap,
    _resimulate,
    _steps,
    _Window,
    transform,
)
from .synthesis import (  # the scaling names, defined in `synthesis`, stay importable here
    InvalidDimension,
    ScalingRow,
    count_beamsplitters,
    device_for,
    predict_count,
    predict_simplified_count,
    scaling_csv_lines,
    scaling_rows,
    scaling_table,
    synth_arbitrary,
    synth_variant,
)


class VerificationReport(_Record):
    """Outcome of checking one synthesized gate against its oracle.

    ``mapping`` is the gate's map of its window [shift, shift + d - 1].
    For a window its pieces prove it is a read-only mapping backed by
    those pieces, never expanded, so it costs O(#pieces) at any d.  For
    a window they do not prove it is the dict read value by value, empty
    if the simulation failed, or for a window of more than ``MAX_WINDOW``
    values, which is not read value by value.
    """

    _fields = (
        "d", "variant", "shift", "permutation_ok", "mapping", "count_actual",
        "count_predicted", "bound", "violations",
    )

    def __init__(
        self,
        d: int,
        variant: str,
        shift: int,
        permutation_ok: bool,
        mapping: Mapping[int, int],
        count_actual: int,
        count_predicted: int,
        bound: float | None,
        violations: tuple[str, ...],
    ):
        _set(self, "d", d)
        _set(self, "variant", variant)
        _set(self, "shift", shift)
        _set(self, "permutation_ok", permutation_ok)
        _set(self, "mapping", mapping)
        _set(self, "count_actual", count_actual)
        _set(self, "count_predicted", count_predicted)
        _set(self, "bound", bound)
        _set(self, "violations", violations)

    @property
    def passed(self) -> bool:
        return not self.violations


class CycleSet(_Record):
    """A closed orbit of OAM values under a gate, canonical (minimum) first."""

    _fields = ("modes",)

    def __init__(self, modes: tuple[int, ...]):
        _set(self, "modes", modes)

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
    lo, hi = shift, shift + d - 1
    window = _Window.routed(device, lo, hi)
    mapping: Mapping[int, int] = {}
    if _certified(window, config):
        mapping = _PieceMap(window)
        violations = _off_oracle(window, step)
        if violations and d <= MAX_WINDOW:
            violations = _misses(dict(mapping.items()), lo, hi, step)
    elif d <= MAX_WINDOW:
        domain = range(lo, hi + 1)
        try:
            read = _expand(window, config)
            _resimulate(window.graph, domain, map(read.get, domain), config)
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


def _off_oracle(window: _Window, step: int) -> list[str]:
    """A violation for each piece of the gate *window* that does not reach
    its graph's output path, or does not lie inside one of the oracle's
    two affine pieces (``+step`` on the window and the one wrap value) with
    its offset: its residue class, its member count, and its offset
    against the oracle's.  With none, a window that `_certified` proves
    is shifted by *step* (+1 or -1) mod its size."""
    lo, hi = window.lo, window.hi
    d = hi - lo + 1
    # the wrap value and the oracle's offset there
    wrap, back = (hi, 1 - d) if step == 1 else (lo, d - 1)
    output, violations = window.graph.output_path, []
    for piece in window.pieces:
        first, q, offset, path = piece
        # a piece on the oracle formats nothing; the ints of the others may
        # have any size, so `_int_text` writes them
        if path != output:
            fault = f"leaves on {path}, expected {output}"
        elif wrap < first or (wrap - first) % q:  # the wrap value is no member
            if offset == step:
                continue
            fault = f"shifted by {_int_text(offset, '+d')}, expected {step:+d}"
        elif window.count(piece) == 1:
            if offset == back:
                continue
            fault = f"shifted by {_int_text(offset, '+d')}, expected {_int_text(back, '+d')}"
        else:
            fault = (
                f"shifted by {_int_text(offset, '+d')}, expected {step:+d},"
                f" and {_int_text(back, '+d')} at |{_int_text(wrap)}>"
            )
        first, q, count = map(_int_text, (first, q, window.count(piece)))
        violations.append(f"piece {first} mod {q} (members: {count}): {fault}")
    return violations


def _misses(read: Mapping[int, int], lo: int, hi: int, step: int) -> list[str]:
    """A violation for each value of the gate window [lo, hi] that *read*
    does not map as the oracle, a shift by *step* mod the window's size,
    does, each expected image computed where it is compared."""
    d = hi - lo + 1
    return [
        f"|{_int_text(k)}> mapped to {_int_text(got)}, expected |{_int_text(want)}>"
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
    lo, hi = _int_text(window.lo), _int_text(window.hi)
    return f"window [{lo}, {hi}] not proven from its {pieces} pieces{because}"


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
    window = _Window.routed(device, lo, hi)
    steps = _steps(window, config)
    proven = _certified(window, config)
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
        _resimulate(window.graph, members, successors, config)
    return [CycleSet(cycle) for cycle in cycles]


def simulate_word(
    d: int,
    x_power: int,
    z_power: int,
    state: ModeVector,
    config: SimulationConfig = DEFAULT_CONFIG,
) -> ModeVector:
    """Apply the gate word X^x_power followed by Z^z_power in dimension d.

    X is the synthesized cyclic shift netlist.  On its window, a state
    whose every component is on its input path with 0 <= ell < d, X has
    period d in strict mode and 4d in physical mode (there every splitter
    meets a multiple of its order, so X is a permutation times a diagonal
    of powers of i), and x_power is reduced modulo that period.  Off the
    window the gate runs x_power times.  Z^z_power multiplies each
    component on its output path by the plate's phase for z_power * ell,
    reduced mod d, so its error does not grow with z_power.  For
    d = 1 both gates are the identity.  Raises InvalidDimension unless d is
    an int >= 1, and ValueError unless both powers are ints >= 0.
    """
    if not _is_int(d) or d < 1:
        raise InvalidDimension(f"dimension must be an integer >= 1, got {d!r}")
    if not (_is_int(x_power) and _is_int(z_power)) or x_power < 0 or z_power < 0:
        raise ValueError(f"gate powers must be non-negative ints, got {x_power!r}, {z_power!r}")
    if d == 1:
        return state
    shift = synth_arbitrary(d)
    x_gate = transform(shift, config)
    if all(path == shift.input_path and 0 <= ell < d for path, ell in state.keys()):
        x_power %= d if config.mode == STRICT else 4 * d
    out = state
    for _ in range(x_power):
        out = x_gate(out)
    if z_power:  # one phase per component, however large the power
        path = shift.output_path
        out = ModeVector(
            (key, amp * z_phase(d, z_power * key[1]) if key[0] == path else amp)
            for key, amp in out.items()
        )
    return out
