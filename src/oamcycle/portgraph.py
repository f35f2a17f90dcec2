"""Port-level wiring graphs for netlists, as int tables.

A netlist is a linear element sequence; threading each path through the
elements that touch it yields a directed graph of element ports.  The
graph form exists for two reasons: simplified layouts re-route light
through an element *backwards* (which a flat sequence cannot express),
and propagation, which hops packets along the wiring.

Every port is a small int slot ``4*node + 2*backward + side``, numbered
alike for in and out.  ``side`` is 0 for a splitter's x port and for the
one port of a single-path element, 1 for a splitter's y port; the
backward bit marks light entering against the element's orientation and
leaving on the matching backward out port.  This module is the one place
that writes the encoding, and the one where the engines learn what an
element does on a slot: `_tables` gives each graph a splitter order and
a hologram kick per slot, with the hologram's charge negated on its
backward slots, and the engines walk those ints instead of the elements.
"""

from __future__ import annotations

from typing import Mapping

from .model import (
    Hologram,
    Netlist,
    OamBeamSplitter,
    PathLabel,
    _check_kinds,
    _check_paths,
    _is_int,
    _Record,
    _set,
    _unchecked,
    element_paths,
)

#: slot bit of the ports that traverse an element backwards; bit 0 is the side
BACKWARD = 2

#: wiring value of an out-slot that feeds nothing (``terminals[0]`` is None)
UNWIRED = ~0


class PortGraph(_Record):
    """Feed-through wiring of elements, with per-path entry points.

    ``wiring[slot]`` is the in-slot an out-slot of ``nodes`` feeds, or
    ``~t`` when it leaves the device on the terminal path
    ``terminals[t]``; ``terminals[0]`` is None, so unwired ports hold
    ``UNWIRED``, and no path label names two terminals.  ``entries`` maps
    each path that enters the device to its first in-slot, or to a
    terminal index ``~t``; paths absent from ``entries`` pass straight
    through to the terminal of the same label.  The graph keeps its own
    copies of the tables it is given.  Raises TypeError for a
    node that is not one of the three element classes, and ValueError for
    tables the engines cannot index or a path that is not a PathLabel.

    The engine's own builders, `netlist_to_portgraph` and
    `contract_mirrors`, skip these checks and copies: they write fresh
    tables from a netlist or graph that was checked when it was built,
    and every slot they write is in range by construction.
    """

    _fields = (
        "nodes", "wiring", "entries", "terminals", "input_path", "output_path", "dimension"
    )

    def _check(self) -> None:
        # private copies, so a caller's later edits cannot get past the checks
        nodes, wiring, entries = tuple(self.nodes), tuple(self.wiring), dict(self.entries)
        terminals = tuple(self.terminals)
        _set(self, "nodes", nodes)
        _set(self, "wiring", wiring)
        _set(self, "entries", entries)
        _set(self, "terminals", terminals)
        if not _is_int(self.dimension) or self.dimension < 1:
            raise ValueError(f"dimension must be an int >= 1, got {self.dimension!r}")
        _check_kinds(nodes)
        if not terminals or terminals[0] is not None:
            raise ValueError(f"terminals[0] must be None, got {terminals!r}")
        slots = 4 * len(nodes)
        if len(wiring) != slots:
            raise ValueError(
                f"wiring must hold 4 slots per node, {slots} in all, got {len(wiring)}"
            )
        _check_slots("wiring", wiring, slots, len(terminals))
        _check_slots("entries", entries.values(), slots, len(terminals))
        _check_paths("input and output path", (self.input_path, self.output_path))
        _check_paths("entry path", entries.keys())
        labels = [path for path in terminals if path is not None]
        _check_paths("terminal path", labels)
        # the engine sums light per terminal index, so one label is one terminal
        if len(set(labels)) < len(labels):
            twice = next(path for i, path in enumerate(labels) if path in labels[:i])
            raise ValueError(f"terminal paths must differ, got {twice} twice")

    def port_path(self, slot: int) -> PathLabel:
        """The path label a port of a node lies on."""
        return element_paths(self.nodes[slot >> 2])[slot & 1]


def _check_slots(field: str, values, slots: int, terminals: int) -> None:
    """Raise ValueError unless each of *values* is an exact int: an in-slot below
    *slots*, or ``~t`` with t < *terminals*.  The engine builds its graphs unchecked."""
    for v in values:
        if type(v) is not int or not -terminals <= v < slots:
            raise ValueError(f"{field} must hold slots < {slots} or ~t, t < {terminals}, got {v!r}")


def _tables(graph: PortGraph) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """``(orders, kicks)``, what the element of each slot of *graph* does to
    a packet there, built once and kept on the graph.

    ``orders[slot]`` is a splitter's order, minus a plate's dimension, or 0
    for a hologram; ``kicks[slot]`` is what a hologram adds to ell entering
    on that slot, its charge, negated on a backward slot, and 0 for the
    other kinds.  So a walk reads two ints per hop and no element.
    """
    tables = graph.__dict__.get("_tables")
    if tables is None:
        orders: list[int] = []
        kicks: list[int] = []
        for element in graph.nodes:
            kind = type(element)
            if kind is Hologram:  # the slots with the BACKWARD bit, 2 and 3, run it in reverse
                v = element.v
                orders += (0, 0, 0, 0)
                kicks += (v, v, -v, -v)
            else:  # a splitter or a ZPlate: the graph admits only the three kinds
                k = element.m if kind is OamBeamSplitter else -element.d
                orders += (k, k, k, k)
                kicks += (0, 0, 0, 0)
        tables = (tuple(orders), tuple(kicks))
        _set(graph, "_tables", tables)
    return tables


def netlist_to_portgraph(netlist: Netlist) -> PortGraph:
    """Thread every path through the element sequence."""
    wiring = [UNWIRED] * (4 * len(netlist.elements))
    entries: dict[PathLabel, int] = {}
    open_out: dict[PathLabel, int] = {}
    for index, element in enumerate(netlist.elements):
        for side, path in enumerate(element_paths(element)):
            slot = 4 * index + side
            source = open_out.get(path)
            if source is None:
                entries[path] = slot
            else:
                wiring[source] = slot
            open_out[path] = slot
    for t, source in enumerate(open_out.values(), start=1):
        wiring[source] = ~t
    return _unchecked(
        PortGraph,
        nodes=netlist.elements,
        wiring=tuple(wiring),
        entries=entries,
        terminals=(None, *open_out),
        input_path=netlist.input_path,
        output_path=netlist.output_path,
        dimension=netlist.dimension,
    )


def contract_mirrors(graph: PortGraph, pairs: Mapping[int, int]) -> PortGraph:
    """Delete each node in ``pairs`` and re-route its wires through the
    paired survivor's backward ports.

    ``pairs`` maps removed node index -> kept node index.  Each slot of a
    removed node moves to the same side of the survivor with the backward
    bit set: a wire that fed the removed node now enters the survivor
    backwards, and wires leaving the removed node leave the survivor's
    backward out port, so light retraces the kept element in reverse.
    """
    kept = [i for i in range(len(graph.nodes)) if i not in pairs]
    relabel = {old: new for new, old in enumerate(kept)}

    def move(slot: int) -> int:
        if slot < 0:
            return slot
        node, port = divmod(slot, 4)
        if node in pairs:
            return 4 * relabel[pairs[node]] + (port | BACKWARD)
        return 4 * relabel[node] + port

    wiring = [UNWIRED] * (4 * len(kept))
    for source, target in enumerate(graph.wiring):
        if target != UNWIRED:
            wiring[move(source)] = move(target)
    return _unchecked(
        PortGraph,
        nodes=tuple([graph.nodes[i] for i in kept]),
        wiring=tuple(wiring),
        entries={path: move(slot) for path, slot in graph.entries.items()},
        terminals=graph.terminals,
        input_path=graph.input_path,
        output_path=graph.output_path,
        dimension=graph.dimension,
    )
