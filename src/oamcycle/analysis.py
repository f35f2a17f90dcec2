"""Gate verification, cycle discovery, and scaling tables.

Everything here cross-checks two independent routes: simulated behavior
against the modular-arithmetic oracle, and tallied element counts
against the closed-form predictions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .model import Netlist, extract_permutation
from .portgraph import PortGraph
from .simulation import (
    DEFAULT_CONFIG,
    STRICT,
    HopBudgetExceeded,
    NormDrift,
    SimulationConfig,
    strict_permutation,
    transform,
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
    """Outcome of checking one synthesized gate against its oracle."""

    d: int
    variant: str
    shift: int
    permutation_ok: bool
    mapping: dict[int, int]
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

    Checks the full permutation on the d-value window against modular
    arithmetic, the splitter tally against the count formula, and (for
    d >= 3) the logarithmic bound.  Every discrepancy lands in
    ``violations``; simulation errors are recorded rather than raised.
    """
    device = device_for(synth_variant(d, variant, shift), variant)
    step = -1 if variant == "inverse" else 1
    count_predicted, bound = predict_count(d)
    if variant == "simplified":
        count_predicted = predict_simplified_count(d)
    count_actual = count_beamsplitters(device)

    violations: list[str] = []
    domain = range(shift, shift + d)
    expected = {k: ((k - shift + step) % d) + shift for k in domain}
    mapping: dict[int, int] = {}
    try:
        mapping = extract_permutation(
            transform(device, config), domain, device.input_path, device.output_path
        )
    except (NormDrift, HopBudgetExceeded) as exc:
        violations.append(f"simulation failed: {exc}")
    for k in domain:
        got = mapping.get(k)
        if got != expected[k]:
            violations.append(f"|{k}> mapped to {got}, expected |{expected[k]}>")
    permutation_ok = mapping == expected

    if count_actual != count_predicted:
        violations.append(
            f"splitter count {count_actual} != predicted {count_predicted}"
        )
    if bound is not None and count_actual > bound and variant != "simplified":
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


def discover_cycles(
    device: Netlist | PortGraph,
    lo: int,
    hi: int,
    config: SimulationConfig = DEFAULT_CONFIG,
) -> list[CycleSet]:
    """Find every closed length-d orbit inside the OAM window [lo, hi].

    Every window value is routed through the device; values that split,
    leak to another path, or leave the window break the orbit they were
    part of.  In strict mode the window is routed by residue class
    (`strict_permutation`); in physical mode each value is simulated as a
    basis state.  Every edge of a returned cycle is then simulated again
    on the packet engine, in one pass per cycle, before the cycle is
    reported, so in strict mode the two engines check each other.
    """
    d = device.dimension
    if config.mode == STRICT:
        mapping = strict_permutation(device, lo, hi)
    else:
        mapping = extract_permutation(
            transform(device, config), range(lo, hi + 1), device.input_path, device.output_path
        )
    cycles: list[CycleSet] = []
    members: set[int] = set()
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
        edges = dict(zip(orbit, orbit[1:] + [start]))
        recheck = extract_permutation(
            transform(device, config), orbit, device.input_path, device.output_path
        )
        if recheck != edges:
            bad = next(u for u in orbit if recheck.get(u) != edges[u])
            raise AssertionError(f"cycle edge {bad} -> {edges[bad]} failed re-simulation")
        members.update(orbit)
        cycles.append(CycleSet(tuple(orbit)))
    return cycles


@dataclass(frozen=True)
class ScalingRow:
    d: int
    n_arb_actual: int
    n_arb_predicted: int
    n_s: int
    naive: int
    bound: float | None


def scaling_table(d_min: int, d_max: int) -> list[ScalingRow]:
    """Tally-vs-formula splitter counts for every dimension in [d_min, d_max].

    Each row also carries the simplified and brute-force counts and the
    log bound; the tally/formula identity and the bound are asserted
    row by row.
    """
    if d_min < 2 or d_max < d_min:
        raise ValueError(f"need 2 <= d_min <= d_max, got [{d_min}, {d_max}]")
    rows = []
    for d in range(d_min, d_max + 1):
        actual = count_beamsplitters(synth_arbitrary(d))
        predicted, bound = predict_count(d)
        if actual != predicted:
            raise AssertionError(f"d={d}: tallied {actual} splitters, formula {predicted}")
        if bound is not None and actual > bound:
            raise AssertionError(f"d={d}: count {actual} exceeds bound {bound}")
        rows.append(
            ScalingRow(d, actual, predicted, predict_simplified_count(d), naive_count(d), bound)
        )
    return rows


def scaling_csv(rows: list[ScalingRow]) -> str:
    """Render scaling rows as CSV, bounds written with full float precision."""
    lines = ["d,n_arb_actual,n_arb_predicted,n_s,naive,bound"]
    for row in rows:
        bound = repr(row.bound) if row.bound is not None else ""
        lines.append(
            f"{row.d},{row.n_arb_actual},{row.n_arb_predicted},{row.n_s},{row.naive},{bound}"
        )
    return "\n".join(lines) + "\n"
