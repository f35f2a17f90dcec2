"""Reference interpreter for netlists, independent of the packet engine.

It walks the element sequence and transforms the whole state at each
element, pruning and checking the norm after every step, both relative
to the input norm.  This is a different propagation scheme from the
port-graph packet loop of `oamcycle.simulation`, so the tests can
cross-check the engine against it; it shares only the element functions
(`splitter_route_strict`, `splitter_unitary`, `z_phase`) and the norm
tolerance.

`reference_propagate` is the engine's breadth-first packet loop for one
state, kept whole here for every run: each hop stages every packet in
flight in one dict.  It is the reference for the engine's loop on states
of several packets, and, read value by value, for the engine's walk of
basis probes, bit for bit; `reference_transform` runs every state on it,
the reference for the engine's walk of each packet of a state.

`check_window_certificate` checks the pieces `oamcycle.simulation.strict_pieces`
returns for any window as a proof of the device's strict map there, with
the strict splitter rule and the graph's wiring alone; `check_certificate`
adds the gate oracle for a gate window.

`replaced` is a record with some fields changed, built again through its
public constructor.
"""

import math

from oamcycle.elements import (
    PORT_X,
    PORT_Y,
    NonMultipleMode,
    splitter_amplitudes,
    splitter_route_strict,
    splitter_unitary,
    z_phase,
)
from oamcycle.model import PRUNE_THRESHOLD, Hologram, ModeVector, OamBeamSplitter, ZPlate
from oamcycle import simulation
from oamcycle.portgraph import BACKWARD, netlist_to_portgraph
from oamcycle.simulation import NORM_TOLERANCE, STRICT, HopBudgetExceeded, NormDrift



def replaced(record, **changes):
    """*record* with *changes* to its fields, built again through its class's
    public constructor, so that every check runs on every field it holds."""
    fields = {name: getattr(record, name) for name in record._fields}
    return type(record)(**{**fields, **changes})

def _splitter_step(el, entries, mode):
    out = {}
    if mode == STRICT:
        for (path, ell), amp in entries.items():
            if path == el.port_x or path == el.port_y:
                side = "x" if path == el.port_x else "y"
                dest = el.port_x if splitter_route_strict(el.m, side, ell) == "x" else el.port_y
                out[(dest, ell)] = out.get((dest, ell), 0j) + amp
            else:
                out[(path, ell)] = out.get((path, ell), 0j) + amp
        return out
    touched = set()
    for (path, ell), amp in entries.items():
        if path == el.port_x or path == el.port_y:
            touched.add(ell)
        else:
            out[(path, ell)] = out.get((path, ell), 0j) + amp
    for ell in touched:
        u = splitter_unitary(el.m, ell)
        ax = entries.get((el.port_x, ell), 0j)
        ay = entries.get((el.port_y, ell), 0j)
        out[(el.port_x, ell)] = u[0][0] * ax + u[1][0] * ay
        out[(el.port_y, ell)] = u[1][0] * ax + u[0][0] * ay
    return out


def reference_apply_netlist(netlist, state, config):
    """Propagate *state* element by element; output rescaled to the input norm."""
    norm_in = state.norm()
    cut = PRUNE_THRESHOLD * norm_in
    entries = dict(state.items())
    for el in netlist.elements:
        if isinstance(el, OamBeamSplitter):
            entries = _splitter_step(el, entries, config.mode)
        elif isinstance(el, Hologram):
            stepped = {}
            for (path, ell), amp in entries.items():
                key = (path, ell + el.v) if path == el.path else (path, ell)
                stepped[key] = stepped.get(key, 0j) + amp
            entries = stepped
        elif isinstance(el, ZPlate):
            entries = {
                (path, ell): amp * z_phase(el.d, ell) if path == el.path else amp
                for (path, ell), amp in entries.items()
            }
        else:
            raise TypeError(f"unknown element {el!r}")
        entries = {k: v for k, v in entries.items() if abs(v) > cut}
        norm_now = math.hypot(*[abs(a) for a in entries.values()])
        if abs(norm_now - norm_in) > NORM_TOLERANCE * norm_in:
            raise NormDrift(f"norm moved from {norm_in!r} to {norm_now!r} at element {el!r}")
    result = ModeVector(entries)
    if result and norm_in > 0.0:
        result = result.scaled(norm_in / result.norm())
    return result


def reference_propagate(graph, packets, norm, config):
    """What `oamcycle.simulation._propagate` returns for the same arguments,
    by the breadth-first loop alone: the terminal sums of one state, keyed
    ``(t, ell)``, or the first error its packets meet, raised.  The hop
    budget and the prune threshold are read from `oamcycle.simulation` at
    call time, as the engine reads them."""
    nodes, wiring, terminals = graph.nodes, graph.wiring, graph.terminals
    strict = config.mode == STRICT
    budget = simulation.HOPS_PER_NODE * max(1, len(nodes))
    error = None
    # no cut at the first hop, since the packets given are routed as they are
    cut, limit = simulation.PRUNE_THRESHOLD * norm, -1.0
    landed = {}  # (~terminal, ell), summed in the order packets arrive
    if min(graph.entries.values(), default=0) < 0:  # an entry on a terminal lands at once
        landed = {key: amp for key, amp in packets.items() if key[0] < 0}
        packets = {key: amp for key, amp in packets.items() if key[0] >= 0}
    hops = 0
    while packets:
        hops += 1
        if hops > budget:
            if error is None and any(abs(amp) > cut for amp in packets.values()):
                error = HopBudgetExceeded(f"packets still in flight after {budget} node traversals")
            break
        staged = {}
        for (slot, ell), amp in packets.items():
            if not abs(amp) > limit:
                continue
            element = nodes[slot >> 2]
            kind = type(element)
            if kind is OamBeamSplitter:
                k = element.m
                if strict:
                    turns, rest = divmod(ell, k)
                    if rest:
                        if error is None:
                            error = NonMultipleMode(ell, k)
                        continue
                    slot ^= turns & 1
                else:
                    stay, cross = splitter_amplitudes(k, ell)
                    if cross:
                        dest = wiring[slot ^ 1]
                        into = staged if dest >= 0 else landed
                        key = (dest, ell)
                        into[key] = into.get(key, 0j) + cross * amp
                    if not stay:
                        continue
                    amp *= stay
            elif kind is Hologram:
                ell = ell - element.v if slot & BACKWARD else ell + element.v
            else:
                amp *= z_phase(element.d, ell)
            dest = wiring[slot]
            into = staged if dest >= 0 else landed
            key = (dest, ell)
            into[key] = into.get(key, 0j) + amp
        packets = staged
        limit = cut
    out = {}
    for (dest, ell), amp in landed.items():
        if error is None and terminals[~dest] is None:
            error = ValueError("a packet left the device through an unwired port")
        out[~dest, ell] = amp
    if error is not None:
        raise error
    return out


def reference_transform(device, state, config):
    """What ``oamcycle.simulation.transform(device, config)(state)`` returns,
    with every state run on `reference_propagate`: each component's path
    resolved to its entry slot, a component on a path with no entry passed
    through first in its key's sum, each terminal sum added under its label,
    and the sums read through `oamcycle.simulation._finish`."""
    graph = simulation._graph(device)
    out, packets = {}, {}
    for (path, ell), amp in state.items():
        slot = graph.entries.get(path)
        if slot is None:
            out[path, ell] = 0j + amp
        else:
            packets[slot, ell] = packets.get((slot, ell), 0j) + amp
    norm = state.norm()
    for (t, ell), amp in reference_propagate(graph, packets, norm, config).items():
        key = (graph.terminals[t], ell)
        out[key] = out.get(key, 0j) + amp
    return ModeVector._trusted(simulation._finish(out, norm))


def check_window_certificate(device, result, lo, hi):
    """Assert that *result*, ``(pieces, dropped, failure)`` for the window
    [lo, hi] of *device*, proves the device's strict map of the window:
    each piece's members all leave on its path with its offset.

    The input path has an entry, and nothing is dropped or failing; the
    pieces are pairwise disjoint residue classes (no common member by the
    Chinese remainder theorem) whose member counts sum to the window size.
    The first member of each piece is walked along the wiring with
    `splitter_route_strict`: at each splitter of order m the piece's
    modulus is a multiple of 2m, unless it has one member, so every member
    leaves on the same port as the first and the last; its offset is the
    signed sum of the hologram charges met, and the walk ends on the
    piece's path, the output path or any other.
    """
    graph = device if hasattr(device, "wiring") else netlist_to_portgraph(device)
    pieces, dropped, failure = result
    assert not dropped and failure is None, (dropped, failure)
    assert graph.input_path in graph.entries
    members = 0
    for i, (first, q, offset, path) in enumerate(pieces):
        assert lo <= first <= hi and q >= 1
        for other, modulus, _, _ in pieces[:i]:
            assert (first - other) % math.gcd(q, modulus), (first, q, other, modulus)
        count = (hi - first) // q + 1
        members += count
        last = first + (count - 1) * q
        slot, charge, hops = graph.entries[graph.input_path], 0, 0
        while slot >= 0:
            hops += 1
            assert hops <= len(graph.wiring), "the route revisits a port"
            element = graph.nodes[slot >> 2]
            if isinstance(element, OamBeamSplitter):
                m = element.m
                assert count == 1 or q % (2 * m) == 0, (first, q, m)
                port = PORT_Y if slot & 1 else PORT_X
                out = splitter_route_strict(m, port, first + charge)
                assert splitter_route_strict(m, port, last + charge) == out
                slot = slot & ~1 | (out == PORT_Y)
            elif isinstance(element, Hologram):
                charge += -element.v if slot & BACKWARD else element.v
            slot = graph.wiring[slot]
        assert graph.terminals[~slot] == path
        assert charge == offset, (first, charge, offset)
    assert members == hi - lo + 1


def check_certificate(device, result, lo, hi, step):
    """Assert that *result*, ``(pieces, dropped, failure)`` for the window
    [lo, hi] of *device*, proves that the device maps each window value
    ell to ``lo + (ell - lo + step) % d`` on its output path, d = hi - lo + 1.

    The pieces are a window certificate (`check_window_certificate`), each
    on the output path, and the first and last member of each meet the
    oracle with its offset; an affine piece whose two ends do lies on one
    side of the wrap.
    """
    check_window_certificate(device, result, lo, hi)
    graph = device if hasattr(device, "wiring") else netlist_to_portgraph(device)
    d = hi - lo + 1
    for first, q, offset, path in result[0]:
        assert path == graph.output_path
        for ell in (first, hi - (hi - first) % q):
            assert ell + offset == lo + (ell - lo + step) % d, (ell, offset)
