"""State propagation through netlists and port graphs, on one engine.

`compile_device` turns a device into int tables once: a netlist is first
threaded into a port graph, then each port becomes a small int slot and
the wiring a tuple from out-slot to in-slot.  `CompiledDevice.run` is the
one propagation loop.  Each (slot, OAM, amplitude) packet hops along the
wiring, visiting only the elements it reaches, until it lands on a
terminal, where amplitudes sum coherently.  Packets are independent (the
optics is linear), which lets folded graphs route light backwards through
an element.  Norm is checked once against the terminal sum, since packets
taking paths of different lengths make the in-flight norm momentarily
non-conserved under interference.

In strict mode every element moves basis states to basis states with no
phase, so simulation is exact.  In physical mode splitters apply the
full two-port amplitudes: basis states still land on the strict port when
the OAM value is a multiple of the order, but with an extra
value-dependent phase, so superpositions generally agree with strict
mode only componentwise, not in their relative phases.
"""

from __future__ import annotations

from dataclasses import dataclass

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
from .portgraph import PortGraph, netlist_to_portgraph

STRICT = "strict"
PHYSICAL = "physical"


class NormDrift(Exception):
    """Simulation lost or gained probability beyond the configured tolerance."""


class HopBudgetExceeded(Exception):
    """A packet exceeded the maximum number of node traversals."""


@dataclass(frozen=True)
class SimulationConfig:
    """Knobs of the propagation engine.

    ``hop_budget`` bounds the node traversals of any single packet (None
    means 10x the node count); ``amplitude_tolerance`` is the allowed
    drift of the terminal norm from the input norm.
    """

    mode: str = STRICT
    hop_budget: int | None = None
    amplitude_tolerance: float = 1e-12
    prune: float = PRUNE_THRESHOLD

    def __post_init__(self):
        if self.mode not in (STRICT, PHYSICAL):
            raise ValueError(f"mode must be 'strict' or 'physical', got {self.mode!r}")


DEFAULT_CONFIG = SimulationConfig()


_SPLITTER, _HOLOGRAM, _ZPLATE = 0, 1, 2
_KINDS = {OamBeamSplitter: _SPLITTER, Hologram: _HOLOGRAM, ZPlate: _ZPLATE}
_PARAMS = ("m", "v", "d")  # the attribute each kind is parametrized by
_BACKWARD = 2  # slot bit of the b* ports; bit 0 is the splitter side (y = 1)


def _slot(index: int, port: str) -> int:
    return 4 * index + _BACKWARD * port.startswith("b") + port.endswith("_y")


@dataclass(frozen=True)
class CompiledDevice:
    """A netlist or port graph as int tables, ready for `run`.

    Node i has element kind ``kinds[i]`` with order, charge or dimension
    ``params[i]``.  Its ports are the slots ``4*i + 2*backward + side``,
    numbered alike for in and out.  ``wiring[slot]`` is the in-slot an
    out-slot feeds, or ``~t`` for the terminal path ``terminals[t]``
    (``terminals[0]`` is None: unwired ports lead there).  ``entries``
    maps each path that enters the device to its first slot or terminal.
    """

    kinds: tuple[int, ...]
    params: tuple[int, ...]
    wiring: tuple[int, ...]
    entries: dict[PathLabel, int]
    terminals: tuple[PathLabel | None, ...]

    def run(self, state: ModeVector, config: SimulationConfig = DEFAULT_CONFIG) -> ModeVector:
        """Propagate *state*; the contract is `apply_portgraph`'s."""
        kinds, params, wiring = self.kinds, self.params, self.wiring
        strict, prune = config.mode == STRICT, config.prune
        budget = 10 * max(1, len(kinds)) if config.hop_budget is None else config.hop_budget
        norm_in = state.norm()
        # packets: (in-slot, ell); landed: (~terminal, ell); out: (path, ell)
        packets: dict[tuple[int, int], complex] = {}
        landed: dict[tuple[int, int], complex] = {}
        out: dict[tuple[PathLabel, int], complex] = {}
        for (path, ell), amp in state.items():
            slot = self.entries.get(path)
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
                node = slot >> 2
                kind, k = kinds[node], params[node]
                if kind == _SPLITTER:
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
                elif kind == _HOLOGRAM:
                    ell = ell - k if slot & _BACKWARD else ell + k
                else:
                    amp *= z_phase(k, ell)
                dest = wiring[slot]
                into = staged if dest >= 0 else landed
                into[(dest, ell)] = into.get((dest, ell), 0j) + amp
            packets = {key: a for key, a in staged.items() if abs(a) > prune}
        for (dest, ell), amp in landed.items():
            path = self.terminals[~dest]
            if path is None:
                raise ValueError("a packet left the device through an unwired port")
            out[(path, ell)] = out.get((path, ell), 0j) + amp
        result = ModeVector(out, prune=prune)
        norm_out = result.norm()
        if abs(norm_out - norm_in) > config.amplitude_tolerance:
            raise NormDrift(f"terminal norm {norm_out!r} differs from input norm {norm_in!r}")
        if result and norm_in > 0.0 and norm_out != norm_in:
            result = result.scaled(norm_in / norm_out)
        return result


def compile_device(device: Netlist | PortGraph) -> CompiledDevice:
    """Number the ports of *device* and flatten its wiring, once."""
    graph = netlist_to_portgraph(device) if isinstance(device, Netlist) else device
    terminals: list[PathLabel | None] = [None]

    def code(endpoint) -> int:
        if endpoint[0] == "node":
            return _slot(endpoint[1], endpoint[2])
        if endpoint[1] not in terminals:
            terminals.append(endpoint[1])
        return ~terminals.index(endpoint[1])

    wiring = [~0] * (4 * len(graph.nodes))
    for (index, port), endpoint in graph.wiring.items():
        wiring[_slot(index, port)] = code(endpoint)
    kinds = tuple(_KINDS.get(type(el)) for el in graph.nodes)
    if None in kinds:
        raise TypeError(f"unknown element {graph.nodes[kinds.index(None)]!r}")
    return CompiledDevice(
        kinds=kinds,
        params=tuple(getattr(el, _PARAMS[kind]) for el, kind in zip(graph.nodes, kinds)),
        wiring=tuple(wiring),
        entries={path: code(endpoint) for path, endpoint in graph.entries.items()},
        terminals=tuple(terminals),
    )


def apply_netlist(
    netlist: Netlist, state: ModeVector, config: SimulationConfig = DEFAULT_CONFIG
) -> ModeVector:
    """Propagate *state* through the element sequence: compile and run,
    with the contract of `apply_portgraph`."""
    return compile_device(netlist).run(state, config)


def apply_portgraph(
    graph: PortGraph, state: ModeVector, config: SimulationConfig = DEFAULT_CONFIG
) -> ModeVector:
    """Propagate *state* through a wired port graph.

    Components entering on paths with no entry port pass through
    unchanged.  Raises HopBudgetExceeded if a packet survives more node
    traversals than the budget allows, and NormDrift if the coherent
    terminal sum does not carry the input norm.  The output is rescaled
    to the input norm (cleaning float dust).
    """
    return compile_device(graph).run(state, config)


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
    from .synthesis import synth_arbitrary  # local import avoids a cycle

    if x_power < 0 or z_power < 0:
        raise ValueError("gate powers must be non-negative")
    if d == 1:
        return state
    shift = synth_arbitrary(d)
    engine = compile_device(shift)
    out = state
    for _ in range(x_power):
        out = engine.run(out, config)
    if z_power:
        plate = Netlist(
            (ZPlate(shift.output_path, d),) * z_power,
            shift.output_path,
            shift.output_path,
            d,
        )
        out = apply_netlist(plate, out, config)
    return out
