"""Gate verification, cycle discovery, and scaling tables.

Everything here cross-checks two independent routes: simulated behavior
against the modular-arithmetic oracle, and tallied element counts
against the closed-form predictions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .model import Netlist, extract_permutation
from .portgraph import PortGraph
from .simulation import (
    DEFAULT_CONFIG,
    HopBudgetExceeded,
    NormDrift,
    SimulationConfig,
    transform,
    window_permutation,
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

    Reads the permutation of the d-value window with `window_permutation`
    and checks it against modular arithmetic, after probing every window
    value again on the packet engine, so the two engines check each
    other; each expected image is computed where it is compared.  Also
    checks the splitter tally against the count formula and (for d >= 3)
    the logarithmic bound.  Every discrepancy lands in ``violations``;
    simulation errors are recorded rather than raised.  An AssertionError
    means the engines disagree.
    """
    device = device_for(synth_variant(d, variant, shift), variant)
    step = -1 if variant == "inverse" else 1
    count_predicted, bound = predict_count(d)
    if variant == "simplified":
        count_predicted = predict_simplified_count(d)
    count_actual = count_beamsplitters(device)

    violations: list[str] = []
    domain = range(shift, shift + d)
    mapping: dict[int, int] = {}
    try:
        read = window_permutation(device, shift, shift + d - 1, config)
        _resimulate(device, domain, read, config)
        mapping = read
    except (NormDrift, HopBudgetExceeded) as exc:
        violations.append(f"simulation failed: {exc}")
    for k in domain:
        got, want = mapping.get(k), (k - shift + step) % d + shift
        if got != want:
            violations.append(f"|{k}> mapped to {got}, expected |{want}>")
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


def discover_cycles(
    device: Netlist | PortGraph,
    lo: int,
    hi: int,
    config: SimulationConfig = DEFAULT_CONFIG,
) -> list[CycleSet]:
    """Find every closed length-d orbit inside the OAM window [lo, hi].

    The window is read with `window_permutation`; values that split,
    leak to another path, or leave the window break the orbit they were
    part of.  Each window value is walked once, and a walk that comes
    back to one of its own values closes a loop; the loops of length d
    are returned from their minimum, in ascending order of it.  Every
    edge of them is then simulated again on the packet engine, in one
    pass, so the two engines check each other.
    """
    d = device.dimension
    mapping = window_permutation(device, lo, hi, config)
    cycles: list[tuple[int, ...]] = []
    owner: dict[int, int] = {}  # window value -> the start of the walk that reached it
    for start in mapping:
        walk, current = [], start
        while current in mapping and current not in owner:
            owner[current] = start
            walk.append(current)
            current = mapping[current]
        if owner.get(current) == start:  # the walk came back to one of its own values
            loop = walk[walk.index(current):]
            if len(loop) == d:
                first = loop.index(min(loop))
                cycles.append(tuple(loop[first:] + loop[:first]))
    cycles.sort()
    domain = [ell for cycle in cycles for ell in cycle]
    _resimulate(device, domain, {ell: mapping[ell] for ell in domain}, config)
    return [CycleSet(cycle) for cycle in cycles]


def _resimulate(
    device: Netlist | PortGraph,
    domain: Sequence[int],
    mapping: dict[int, int],
    config: SimulationConfig,
) -> None:
    """Probe *domain* on the packet engine; raise AssertionError at the
    first value whose image differs from *mapping*, a map on *domain*."""
    probed = extract_permutation(
        transform(device, config), domain, device.input_path, device.output_path
    )
    if probed != mapping:
        bad = next(ell for ell in domain if probed.get(ell) != mapping.get(ell))
        raise AssertionError(
            f"|{bad}> -> {mapping.get(bad)} failed re-simulation (got {probed.get(bad)})"
        )


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
