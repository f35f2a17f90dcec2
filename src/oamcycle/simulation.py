"""State propagation through netlists and port graphs, on one engine.

A device is propagated as its port graph (a netlist is threaded into one
first); `transform` does that once and returns the map for many states.
One packet loop serves every entry point: each (slot, OAM, amplitude)
packet hops along the graph's int wiring, visiting only the elements it
reaches, until it lands on a terminal, where amplitudes sum coherently.
Packets are independent (the optics is linear), which lets folded graphs
route light backwards through an element.  Norm is checked once against
the terminal sum, since packets taking paths of different lengths make
the in-flight norm momentarily non-conserved under interference.  Both
the pruning of dust and the norm tolerance are relative to the input
norm, so a state behaves the same at every amplitude scale.

In strict mode every element moves basis states to basis states with no
phase, so simulation is exact.  In physical mode splitters apply the
full two-port amplitudes: basis states still land on the strict port when
the OAM value is a multiple of the order, but with an extra
value-dependent phase, so superpositions generally agree with strict
mode only componentwise, not in their relative phases.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

from .elements import NonMultipleMode, splitter_amplitudes, z_phase
from .model import (
    PRUNE_THRESHOLD,
    Hologram,
    ModeVector,
    Netlist,
    OamBeamSplitter,
    PathLabel,
    ZPlate,
)
from .portgraph import BACKWARD, PortGraph, netlist_to_portgraph
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
    result = ModeVector(out)
    norm_out = result.norm()
    if abs(norm_out - norm_in) > NORM_TOLERANCE * norm_in:
        raise NormDrift(f"terminal norm {norm_out!r} differs from input norm {norm_in!r}")
    if result and norm_in > 0.0 and norm_out != norm_in:
        result = result.scaled(norm_in / norm_out)
    return result


def transform(
    device: Netlist | PortGraph, config: SimulationConfig = DEFAULT_CONFIG
) -> Callable[[ModeVector], ModeVector]:
    """The map *device* applies to states under *config*.

    A netlist is threaded into its port graph once, here, so the returned
    function is the way to push many states through one device.
    """
    graph = netlist_to_portgraph(device) if isinstance(device, Netlist) else device
    return partial(_propagate, graph, config=config)


def apply_netlist(
    netlist: Netlist, state: ModeVector, config: SimulationConfig = DEFAULT_CONFIG
) -> ModeVector:
    """Propagate *state* through the element sequence, threaded into its
    port graph, with the contract of `apply_portgraph`."""
    return _propagate(netlist_to_portgraph(netlist), state, config)


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
