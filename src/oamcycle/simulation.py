"""State propagation through netlists and port graphs.

A device is propagated as its port graph: a netlist is threaded into one
the first time it is simulated, and the graph is kept on the netlist.
`transform` returns the device's map for many states.  One packet loop
serves every state: each (slot, OAM, amplitude) packet hops along the
graph's int wiring, visiting only the elements it reaches, until it
lands on a terminal, where amplitudes sum coherently.  Packets are
independent (the optics is linear), which lets folded graphs route
light backwards through an element.  Norm is checked once against the
terminal sum, since packets taking paths of different lengths make the
in-flight norm momentarily non-conserved under interference.  Both the
pruning of dust and the norm tolerance are relative to the input norm,
so a state behaves the same at every amplitude scale.

In strict mode splitters and holograms move basis states to basis
states with no phase; a phase plate applies its phase in both modes.
In physical mode splitters apply the full two-port amplitudes: basis
states still land on the strict port when the OAM value is a multiple
of the order, but with an extra value-dependent phase, so superpositions
generally agree with strict mode only componentwise, not in their
relative phases.

`window_permutation` is a second loop over the same int tables, for
reading a permutation off a window of OAM values in either mode.  A
splitter routes on ell mod 2m and a hologram adds a constant, so the
window values of one residue class take one route together; the loop
follows classes, not values, and its work grows with the number of
distinct routes rather than with the window.  A class meets only
multiples of each splitter's order, where both modes route it the same
way; in physical mode the values no class carries to a terminal, which
split at a non-multiple and may recombine, are handed to the packet loop
one by one.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

from . import portgraph
from .elements import NonMultipleMode, splitter_amplitudes, z_phase
from .model import (
    PRUNE_THRESHOLD,
    Hologram,
    ModeVector,
    Netlist,
    OamBeamSplitter,
    PathLabel,
    ZPlate,
    _norm,
    extract_permutation,
)
from .portgraph import BACKWARD, PortGraph
from .synthesis import synth_arbitrary

STRICT = "strict"
PHYSICAL = "physical"

#: node traversals a packet may make, per node of the device
HOPS_PER_NODE = 10

#: allowed drift of the terminal norm from the input norm, relative to it
NORM_TOLERANCE = 1e-12


class NormDrift(Exception):
    """Simulation lost or gained probability beyond `NORM_TOLERANCE`."""


class HopBudgetExceeded(Exception):
    """A packet exceeded the maximum number of node traversals."""


@dataclass(frozen=True)
class SimulationConfig:
    """The element model a run uses: ``"strict"`` or ``"physical"``."""

    mode: str = STRICT

    def __post_init__(self):
        if self.mode not in (STRICT, PHYSICAL):
            raise ValueError(f"mode must be 'strict' or 'physical', got {self.mode!r}")


DEFAULT_CONFIG = SimulationConfig()


def _graph(device: Netlist | PortGraph) -> PortGraph:
    """*device* as a port graph.  A netlist is threaded once and its graph
    kept on the instance: looked up by identity, since hashing a netlist
    walks all its elements."""
    if not isinstance(device, Netlist):
        return device
    graph = device.__dict__.get("_portgraph")
    if graph is None:
        graph = portgraph.netlist_to_portgraph(device)
        object.__setattr__(device, "_portgraph", graph)
    return graph


def _propagate(graph: PortGraph, state: ModeVector, config: SimulationConfig) -> ModeVector:
    """The packet loop; the contract is `apply_portgraph`'s."""
    nodes, wiring = graph.nodes, graph.wiring
    strict = config.mode == STRICT
    budget = HOPS_PER_NODE * max(1, len(nodes))
    norm_in = state.norm()
    cut = PRUNE_THRESHOLD * norm_in
    # packets: (in-slot, ell); landed: (~terminal, ell); out: (path, ell)
    packets: dict[tuple[int, int], complex] = {}
    landed: dict[tuple[int, int], complex] = {}
    out: dict[tuple[PathLabel, int], complex] = {}
    for (path, ell), amp in state.items():
        slot = graph.entries.get(path)
        into = out if slot is None else packets if slot >= 0 else landed
        key = (path, ell) if slot is None else (slot, ell)
        into[key] = into.get(key, 0j) + amp
    hops = 0
    while packets:
        hops += 1
        if hops > budget:
            raise HopBudgetExceeded(f"packets still in flight after {budget} node traversals")
        staged: dict[tuple[int, int], complex] = {}
        for (slot, ell), amp in packets.items():
            element = nodes[slot >> 2]
            kind = type(element)
            if kind is OamBeamSplitter:
                k = element.m
                if strict:  # the rule of splitter_route_strict, on slots
                    turns, rest = divmod(ell, k)
                    if rest:
                        raise NonMultipleMode(ell, k)
                    slot ^= turns & 1
                else:
                    stay, cross = splitter_amplitudes(k, ell)
                    if cross:
                        dest = wiring[slot ^ 1]
                        into = staged if dest >= 0 else landed
                        into[(dest, ell)] = into.get((dest, ell), 0j) + cross * amp
                    if not stay:
                        continue
                    amp *= stay
            elif kind is Hologram:
                ell = ell - element.v if slot & BACKWARD else ell + element.v
            elif kind is ZPlate:
                amp *= z_phase(element.d, ell)
            else:
                raise TypeError(f"unknown element {element!r}")
            dest = wiring[slot]
            into = staged if dest >= 0 else landed
            into[(dest, ell)] = into.get((dest, ell), 0j) + amp
        packets = {key: a for key, a in staged.items() if abs(a) > cut}
    for (dest, ell), amp in landed.items():
        path = graph.terminals[~dest]
        if path is None:
            raise ValueError("a packet left the device through an unwired port")
        out[(path, ell)] = out.get((path, ell), 0j) + amp
    norm_out = _norm(out.values())
    if not math.isfinite(norm_out):
        path, ell = next(key for key, amp in out.items() if not cmath.isfinite(amp))
        raise ValueError(f"non-finite amplitude for {path}|{ell}>")
    result = ModeVector._trusted(out)
    if len(result) < len(out):
        norm_out = result.norm()
    if abs(norm_out - norm_in) > NORM_TOLERANCE * norm_in:
        raise NormDrift(f"terminal norm {norm_out!r} differs from input norm {norm_in!r}")
    if result and norm_in > 0.0 and norm_out != norm_in:
        factor = norm_in / norm_out
        result = ModeVector._trusted({key: amp * factor for key, amp in result.items()})
    return result


def window_permutation(
    device: Netlist | PortGraph, lo: int, hi: int, config: SimulationConfig = DEFAULT_CONFIG
) -> dict[int, int]:
    """The map of the OAM window [lo, hi] from the device's input path to
    its output path under *config*, routed one residue class at a time.

    Returns what ``extract_permutation(transform(device, config),
    range(lo, hi + 1), device.input_path, device.output_path)`` returns,
    and raises what it raises: HopBudgetExceeded, or ValueError for an
    unwired port, or TypeError for an unknown element, or (from a physical
    probe) NormDrift, whichever the smallest failing window value meets.

    A value the classes map meets only multiples of each splitter's
    order, where the physical amplitudes are exactly a power of i on one
    port, and plates have unit modulus, so both modes route it as one
    unit component.  In physical mode light split at a non-multiple may
    recombine, so the window values below the first failing value that
    no class carries to a terminal are probed on the packet loop, in
    ascending order.
    """
    graph = _graph(device)
    span = hi - lo
    entry = graph.entries.get(graph.input_path)
    if span < 0 or entry is None:
        same = graph.input_path == graph.output_path
        return {ell: ell for ell in range(lo, hi + 1)} if same else {}
    nodes, wiring = graph.nodes, graph.wiring
    budget = HOPS_PER_NODE * max(1, len(nodes))
    images: list[int | None] = [None] * (span + 1)
    landed = bytearray(span + 1)  # 1 where the value's class reached a terminal
    failure: tuple[int, Exception] | None = None
    # (in-slot, hops, offset, r, q): the window values ell0 = r (mod q), which
    # reach in-slot after `hops` traversals carrying ell0 + offset
    classes = [(entry, 0, 0, 0, 1)]
    while classes:
        slot, hops, offset, r, q = classes.pop()
        error = None
        while slot >= 0:
            if hops >= budget:
                error = HopBudgetExceeded(f"packets still in flight after {budget} node traversals")
                break
            element = nodes[slot >> 2]
            kind = type(element)
            if kind is OamBeamSplitter:
                m = element.m
                g = math.gcd(q, m)
                if (r + offset) % g:
                    break  # no member is a multiple of m here
                if g < m:  # keep the members that are: one class mod lcm(q, m)
                    step = m // g
                    r += q * (-(r + offset) // g * pow(q // g, -1, step) % step)
                    q *= step
                    if (r - lo) % q > span:
                        break
                if q % (2 * m):  # ell / m alternates in parity: split the class
                    q *= 2
                    if (r + q // 2 - lo) % q <= span:
                        classes.append((slot, hops, offset, r + q // 2, q))
                    if (r - lo) % q > span:
                        break
                slot ^= (r + offset) // m & 1
            elif kind is Hologram:
                offset += -element.v if slot & BACKWARD else element.v
            elif kind is not ZPlate:
                error = TypeError(f"unknown element {element!r}")
                break
            hops += 1
            slot = wiring[slot]
        else:
            first = (r - lo) % q
            landed[first::q] = b"\1" * len(range(first, span + 1, q))
            path = graph.terminals[~slot]
            if path is None:
                error = ValueError("a packet left the device through an unwired port")
            elif path == graph.output_path:
                images[first::q] = range(lo + first + offset, hi + 1 + offset, q)
        if error is not None and (failure is None or (r - lo) % q < failure[0]):
            failure = ((r - lo) % q, error)
    if config.mode == PHYSICAL:
        stop = span + 1 if failure is None else failure[0]
        split = [lo + i for i in range(stop) if not landed[i]]
        if split:
            probed = extract_permutation(
                transform(graph, config), split, graph.input_path, graph.output_path
            )
            for ell, image in probed.items():
                images[ell - lo] = image
    if failure is not None:
        raise failure[1]
    return {ell: image for ell, image in zip(range(lo, hi + 1), images) if image is not None}


def transform(
    device: Netlist | PortGraph, config: SimulationConfig = DEFAULT_CONFIG
) -> Callable[[ModeVector], ModeVector]:
    """The map *device* applies to states under *config*.

    The returned function is the way to push many states through one
    device.
    """
    return partial(_propagate, _graph(device), config=config)


def apply_netlist(
    netlist: Netlist, state: ModeVector, config: SimulationConfig = DEFAULT_CONFIG
) -> ModeVector:
    """Propagate *state* through the element sequence, threaded into its
    port graph, with the contract of `apply_portgraph`."""
    return _propagate(_graph(netlist), state, config)


def apply_portgraph(
    graph: PortGraph, state: ModeVector, config: SimulationConfig = DEFAULT_CONFIG
) -> ModeVector:
    """Propagate *state* through a wired port graph.

    Components entering on paths with no entry port pass through
    unchanged.  Raises HopBudgetExceeded if a packet survives more than
    ``HOPS_PER_NODE`` times the node count of traversals, and NormDrift
    if the coherent terminal sum misses the input norm by more than
    ``NORM_TOLERANCE`` times the input norm.  Packets at or below
    ``PRUNE_THRESHOLD`` times the input norm are dropped at every hop,
    and the output is rescaled to the input norm (cleaning float dust).
    """
    return _propagate(graph, state, config)


def simulate_word(
    d: int,
    x_power: int,
    z_power: int,
    state: ModeVector,
    config: SimulationConfig = DEFAULT_CONFIG,
) -> ModeVector:
    """Apply the gate word X^x_power followed by Z^z_power in dimension d.

    X is the synthesized cyclic shift netlist; Z is the phase plate.  For
    d = 1 both gates are the identity.
    """
    if x_power < 0 or z_power < 0:
        raise ValueError("gate powers must be non-negative")
    if d == 1:
        return state
    shift = synth_arbitrary(d)
    x_gate = transform(shift, config)
    out = state
    for _ in range(x_power):
        out = x_gate(out)
    if z_power:
        plate = Netlist(
            (ZPlate(shift.output_path, d),) * z_power,
            shift.output_path,
            shift.output_path,
            d,
        )
        out = transform(plate, config)(out)
    return out
