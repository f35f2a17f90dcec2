"""State propagation through netlists and port graphs.

A device is propagated as its port graph: a netlist is threaded into one
the first time it is simulated, and the graph is kept on the netlist.
`transform` returns the device's map for many states.  A state travels
as (slot, OAM, amplitude) packets, one per component, each hopping along
the graph's int wiring, visiting only the elements it reaches, until it
lands on a terminal, where amplitudes sum coherently.  Packets are
independent (the optics is linear), which lets folded graphs route
light backwards through an element.  Norm is checked once against the
terminal sum, since packets taking paths of different lengths make the
in-flight norm momentarily non-conserved under interference.  Both the
pruning of dust and the norm tolerance are relative to the input norm,
so a state behaves the same at every amplitude scale.  No loop here
reads an element: each walks the graph's per-slot int tables
(`portgraph._tables`), a splitter's order or a plate's dimension and a
hologram's kick, which is its charge, negated on a backward slot.

`_walk` takes one packet at a time, with no dict per hop, and lands it
where the packet loop would land it alone, bit for bit, though it
touches the amplitude only at a physical splitter or a plate, where it
can change.  It gives up wherever the packet splits, fails, is dropped
as dust, or lands on an unwired port.  The packet loop, `_propagate`,
is the one engine for light that splits, fails or interferes: one run
carries one state, whose input norm sets the prune cut, and dust is
pruned at the head of each hop.  Inside both everything is an int: a
packet is keyed (slot, ell) and lands on (terminal index, ell).  `_run`,
the path of `transform` and `apply_*`, is the one caller of the loop and
of the readout `_finish`, and the one place path labels appear: it
resolves each component's path to its entry slot, walks each packet,
and runs the whole state on the loop instead if a walk gives up or two
packets land on one key (packets that merge in flight do one or the
other).  A synthesized gate meets only multiples of its splitter orders,
so its states never reach the loop.  `_probes` walks each basis probe
and reads one that lands with modulus exactly 1 off its packet, by
terminal index: there is no dust to prune, nothing to rescale, and its
norm drifts by exactly 0.  Any other probe is read through `_run`.

In strict mode splitters and holograms move basis states to basis
states with no phase; a phase plate applies its phase in both modes.
In physical mode splitters apply the full two-port amplitudes: basis
states still land on the strict port when the OAM value is a multiple
of the order, but with an extra value-dependent phase, so superpositions
generally agree with strict mode only componentwise, not in their
relative phases.

`strict_pieces` is a second loop over the same int tables, for reading
a window of OAM values.  A splitter routes on ell mod 2m and a hologram
adds a constant, so the window values of one residue class take one
route together.  The loop follows classes, each held by its smallest
window value and modulus, so its work grows with the number of distinct
routes, not with the window: the classes that reach a terminal are the
window's pieces, each an affine map ``ell -> ell + offset`` on its
members (O(log d) of them for a synthesized gate, at any d), and it also
returns the classes it dropped at non-multiples and the first failure.
A routed window travels as one `_Window`, built by `_Window.routed`: it
holds the port graph it was routed on, so every reader of pieces takes
the window alone, and it is the one reader of a piece's member count,
last member and members in a part of the window.  `_expand`
(`window_permutation`) expands the pieces into the map of the window, in
either mode; only that expansion is linear in the window.  `_steps`
fills the same map in as a list of steps, one shared offset per piece,
which `analysis.discover_cycles` walks.  `_PieceMap` is the map of the
pieces, read off them and never expanded, so its lookups and length cost
O(#pieces).  A piece meets only multiples of each splitter's order,
where both modes route it the same way; in physical mode the values no
piece holds, which split at a non-multiple and may recombine, are probed
on the packet loop.  `_certified` proves that a window's pieces are its
map: `_routes` walks each piece on the int tables by its own arithmetic,
and `_resimulate` probes the ends of each piece on the packet engine.
This module is the one that reads the tables and the hop budget;
`analysis` compares the windows it routes and proves with the oracle.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import ItemsView, Mapping, ValuesView
from functools import partial
from itertools import compress, repeat, takewhile, tee
from operator import eq, is_not, itemgetter
from typing import Callable, Iterable, Iterator

from . import portgraph
from .elements import (
    HopBudgetExceeded,
    NonMultipleMode,
    NormDrift,
    _int_text,
    splitter_amplitudes,
    z_phase,
)
from .model import (
    MAX_WINDOW,
    PRUNE_THRESHOLD,
    ModeVector,
    Netlist,
    PathLabel,
    _checked,
    _image,
    _norm,
    _pruned,
    _Record,
    _set,
    _value_repr,
)
from .portgraph import PortGraph, _tables

STRICT = "strict"
PHYSICAL = "physical"

#: node traversals a packet may make, per node of the device
HOPS_PER_NODE = 10

#: allowed drift of the terminal norm from the input norm, relative to it
NORM_TOLERANCE = 1e-12


class SimulationConfig(_Record):
    """The element model a run uses: ``"strict"`` or ``"physical"``."""

    _fields = ("mode",)

    def __init__(self, mode: str = STRICT):
        if mode not in (STRICT, PHYSICAL):
            raise ValueError(f"mode must be 'strict' or 'physical', got {mode!r}")
        _set(self, "mode", mode)


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
        _set(device, "_portgraph", graph)
    return graph


def _propagate(
    graph: PortGraph,
    packets: dict[tuple[int, int], complex],
    norm: float,
    config: SimulationConfig,
) -> dict[tuple[int, int], complex]:
    """The packet loop, run once for one state.

    *packets* are keyed ``(slot, ell)``, each slot one of
    ``graph.entries``' values; an entry slot ``~t`` lands on
    ``terminals[t]`` at once.  *norm*, the state's input norm, sets the
    prune cut.  Returns the terminal sums keyed ``(t, ell)``, or raises
    the first error the packets meet: NonMultipleMode (strict mode),
    HopBudgetExceeded, else ValueError if a packet lands on a terminal
    with no label (an unwired port).  No path label is hashed or compared
    here; its caller, `_run`, turns terminal indices into labels.

    At the hop budget the run fails only with a packet still above the
    cut, so a run whose last packets are all dust ends normally.
    """
    wiring, terminals = graph.wiring, graph.terminals
    orders, kicks = _tables(graph)
    strict = config.mode == STRICT
    budget = HOPS_PER_NODE * max(1, len(graph.nodes))
    cut = PRUNE_THRESHOLD * norm
    # a packet is dropped at the head of a hop unless it clears `limit`: no
    # cut at the first hop, since the packets given are routed as they are
    limit = -1.0
    # landed: (~terminal, ell), summed in the order packets arrive
    landed: dict[tuple[int, int], complex] = {}
    if min(graph.entries.values(), default=0) < 0:  # an entry on a terminal lands at once
        landed = {key: amp for key, amp in packets.items() if key[0] < 0}
        packets = {key: amp for key, amp in packets.items() if key[0] >= 0}
    hops = 0
    while packets:
        hops += 1
        if hops > budget:
            if any(abs(amp) > cut for amp in packets.values()):
                raise HopBudgetExceeded(f"packets still in flight after {budget} node traversals")
            break
        staged: dict[tuple[int, int], complex] = {}
        for (slot, ell), amp in packets.items():
            if not abs(amp) > limit:
                continue
            k = orders[slot]
            if k > 0:  # a splitter of order k
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
                        key = (dest, ell)
                        into[key] = into.get(key, 0j) + cross * amp
                    if not stay:
                        continue
                    amp *= stay
            elif k:  # a plate of dimension -k
                amp *= z_phase(-k, ell)
            else:
                ell += kicks[slot]
            dest = wiring[slot]
            into = staged if dest >= 0 else landed
            key = (dest, ell)
            into[key] = into.get(key, 0j) + amp
        packets = staged
        limit = cut
    out: dict[tuple[int, int], complex] = {}
    for (dest, ell), amp in landed.items():
        if terminals[~dest] is None:
            raise ValueError("a packet left the device through an unwired port")
        out[~dest, ell] = amp
    return out


def _finish(out: dict[tuple, complex], norm_in: float) -> dict[tuple, complex]:
    """One state's output *out*, keyed ``(path, ell)``, pruned and rescaled
    to *norm_in*.  Raises ValueError for a non-finite amplitude, and
    NormDrift if the norm misses *norm_in*."""
    norm_out = _norm(out.values())
    if not math.isfinite(norm_out):
        path, ell = next(key for key, amp in out.items() if not cmath.isfinite(amp))
        raise ValueError(f"non-finite amplitude for {path}|{_int_text(ell)}>")
    result = _pruned(out)
    if len(result) < len(out):
        norm_out = _norm(result.values())
    if abs(norm_out - norm_in) > NORM_TOLERANCE * norm_in:
        raise NormDrift(f"terminal norm {norm_out!r} differs from input norm {norm_in!r}")
    if result and norm_in > 0.0 and norm_out != norm_in:
        factor = norm_in / norm_out
        result = _pruned({key: amp * factor for key, amp in result.items()})
    return result


def _run(graph: PortGraph, state: ModeVector, config: SimulationConfig) -> ModeVector:
    """*state* through the device, with path labels only at its ends: each
    component's path is resolved to its entry slot, a component on a path
    with no entry passes through (it comes first in its key's sum), and
    each terminal sum is added under its label.  The one caller of the
    loop and of `_finish`, for `transform`, `apply_*` and `_probes` alike.

    Each packet is walked alone by `_walk`, and the landings, in the
    loop's order (stable by landing hop, entries on terminals at hop 0),
    are what `_propagate` returns, bit for bit.  The whole state runs on
    the packet loop instead if a packet gets None from the walk, or two
    packets land on one key: packets that merge in flight land on one key
    or are dropped there, which the walk does not see.  The walk itself
    raises nothing: every element's amplitude is finite at any order or
    dimension."""
    entries = graph.entries
    out: dict[tuple[PathLabel, int], complex] = {}
    packets: dict[tuple[int, int], complex] = {}
    for (path, ell), amp in state.items():
        slot = entries.get(path)
        if slot is None:  # summed from 0j, like every output amplitude
            out[path, ell] = 0j + amp
        else:
            key = (slot, ell)
            packets[key] = packets.get(key, 0j) + amp
    norm_in = state.norm()
    walks = _walk(graph, (key + (amp,) for key, amp in packets.items()), norm_in, config)
    walked = list(takewhile(partial(is_not, None), walks))  # up to the first None
    walked.sort(key=itemgetter(0))
    landed = {(t, ell): amp for _, t, ell, amp in walked}
    if len(landed) < len(packets):  # a walk gave up, or two landed on one key
        landed = _propagate(graph, packets, norm_in, config)
    terminals = graph.terminals
    for (t, ell), amp in landed.items():
        key = (terminals[t], ell)
        out[key] = out.get(key, 0j) + amp
    return ModeVector._trusted(_finish(out, norm_in))


def _walk(
    graph: PortGraph,
    packets: Iterable[tuple[int, int, complex]],
    norm: float,
    config: SimulationConfig,
) -> Iterator[tuple[int, int, int, complex] | None]:
    """For each ``(slot, ell, amp)`` of *packets*, in order, the packet
    walked alone along the int tables, with no dict per hop: ``(hops, t,
    ell, amp)`` if it lands on ``terminals[t]`` after *hops* node
    traversals (0 for an entry on a terminal), which is what `_propagate`
    lands for it alone, bit for bit.  None where the loop must tell what
    happens: the packet splits, at a non-multiple in physical mode; meets
    a non-multiple in strict mode; is dropped as dust; is still in flight
    past the hop budget; or lands on a terminal with no label.  Its cut
    is ``PRUNE_THRESHOLD * norm``.

    *amp* is summed from 0j, as the loop sums each packet it stages, so
    the walk touches it only at a physical splitter or a plate, where it
    can change: there it is summed from 0j again, and checked against the
    cut if it goes on to another node.  The loop has no cut at the first
    hop, so the walk checks the cut once more at the second, on an
    amplitude no element may have changed yet.
    """
    wiring, terminals = graph.wiring, graph.terminals
    orders, kicks = _tables(graph)
    strict = config.mode == STRICT
    budget = HOPS_PER_NODE * max(1, len(graph.nodes))
    cut = PRUNE_THRESHOLD * norm
    for slot, ell, amp in packets:
        # past hop `until` the walk checks the cut once, at the second hop,
        # where the loop's cut starts, and then only the hop budget
        hops, until = 0, min(1, budget)
        while slot >= 0:
            hops += 1
            if hops > until:
                if hops > budget or not abs(amp) > cut:
                    break
                until = budget
            k = orders[slot]
            if k > 0:
                if strict:  # the rule of splitter_route_strict, on slots
                    turns, rest = divmod(ell, k)
                    if rest:
                        break
                    slot = wiring[slot ^ (turns & 1)]
                    continue
                stay, cross = splitter_amplitudes(k, ell)
                if cross:
                    if stay:  # it splits
                        break
                    slot ^= 1
                    amp = cross * amp
                else:  # then stay is 1 or -1: a multiple, or an angle that underflows
                    amp *= stay
            elif k:
                amp *= z_phase(-k, ell)
            else:
                ell += kicks[slot]
                slot = wiring[slot]
                continue
            # the amplitude changed: summed from 0j as the loop sums it, and
            # dropped as dust where the loop drops it, at the next hop's head
            amp = 0j + amp
            slot = wiring[slot]
            if slot >= 0 and not abs(amp) > cut:
                break
        else:
            if terminals[~slot] is not None:
                yield hops, ~slot, ell, amp
                continue
        yield None


def strict_pieces(
    device: Netlist | PortGraph, lo: int, hi: int
) -> tuple[
    list[tuple[int, int, int, PathLabel]],
    list[tuple[int, int, int, int]],
    tuple[int, Exception] | None,
]:
    """The OAM window [lo, hi] of the device's input path, routed one
    residue class at a time: ``(pieces, dropped, failure)``.

    Each piece ``(first, q, offset, terminal)`` is a class of window
    values ``first + k*q <= hi`` (k >= 0, *first* its smallest) that
    leaves the device on the path *terminal* as ``ell + offset``, every
    member by one route, meeting only multiples of each splitter's order;
    it has ``(hi - first) // q + 1`` members.  Pieces come in the order
    the loop ends them, and are pairwise disjoint residue classes.  Each
    of *dropped*, ``(first, q, offset, slot)``, is a class as it met the
    splitter at in-slot *slot*, where those of its members whose value
    ``ell + offset`` there is not a multiple of the order left it.
    *failure* is ``(first, error)`` for the class with the smallest
    first member that fails: HopBudgetExceeded, or ValueError for an
    unwired port.  A failing class is no piece.  With no entry for its
    input path the whole window passes through, as one piece on that
    path.  Raises TypeError unless *lo* and *hi* are ints.
    """
    lo, hi = _checked(lo), _checked(hi)
    graph = _graph(device)
    pieces: list[tuple[int, int, int, PathLabel]] = []
    dropped: list[tuple[int, int, int, int]] = []
    failure: tuple[int, Exception] | None = None
    entry = graph.entries.get(graph.input_path)
    if hi < lo:
        return pieces, dropped, failure
    if entry is None:
        return [(lo, 1, 0, graph.input_path)], dropped, failure
    wiring, terminals = graph.wiring, graph.terminals
    orders, kicks = _tables(graph)
    budget = HOPS_PER_NODE * max(1, len(graph.nodes))
    # (in-slot, hops, offset, first, q): the window values ell0 = first + k*q
    # (k >= 0), which reach in-slot after `hops` traversals carrying
    # ell0 + offset; first is the smallest, so first > hi leaves none
    classes = [(entry, 0, 0, lo, 1)]
    while classes:
        slot, hops, offset, first, q = classes.pop()
        error = None
        while slot >= 0:
            if hops >= budget:
                error = HopBudgetExceeded(f"packets still in flight after {budget} node traversals")
                break
            m = orders[slot]
            if m > 0:
                g = math.gcd(q, m)
                if (first + offset) % g:  # no member is a multiple of m here
                    dropped.append((first, q, offset, slot))
                    break
                if g < m:  # keep the members that are: one class mod lcm(q, m)
                    step = m // g
                    skip = -(first + offset) // g * pow(q // g, -1, step) % step
                    if skip or first + q <= hi:  # some member is not
                        dropped.append((first, q, offset, slot))
                    first += q * skip
                    q *= step
                    if first > hi:
                        break
                if q % (2 * m):  # ell / m alternates in parity: split the class
                    if first + q <= hi:
                        classes.append((slot, hops, offset, first + q, 2 * q))
                    q *= 2
                slot ^= (first + offset) // m & 1
            else:  # a hologram, or a plate, which routes nothing and kicks by 0
                offset += kicks[slot]
            hops += 1
            slot = wiring[slot]
        else:
            path = terminals[~slot]
            if path is not None:
                pieces.append((first, q, offset, path))
                continue
            error = ValueError("a packet left the device through an unwired port")
        if error is not None and (failure is None or first < failure[0]):
            failure = (first, error)
    return pieces, dropped, failure


def window_permutation(
    device: Netlist | PortGraph, lo: int, hi: int, config: SimulationConfig = DEFAULT_CONFIG
) -> dict[int, int]:
    """The map of the OAM window [lo, hi] from the device's input path to
    its output path under *config*: the pieces `strict_pieces` routes,
    expanded value by value.

    Returns what ``extract_permutation(transform(device, config),
    range(lo, hi + 1), device.input_path, device.output_path)`` returns,
    and raises what it raises: HopBudgetExceeded, or ValueError for an
    unwired port, or (from a physical probe) NormDrift, whichever the
    smallest failing window value meets.  Element kinds were checked when
    the device was built, so no window value meets an unknown one.

    A piece's members meet only multiples of each splitter's order, where
    the physical amplitudes are exactly a power of i on one port, and
    plates have unit modulus, so both modes route them as one unit
    component.  In physical mode light split at a non-multiple may
    recombine, so the window values below the first failing value that
    no piece holds are probed one by one, in ascending order.
    """
    return _expand(_Window.routed(device, lo, hi), config)


class _Window(_Record):
    """The window [lo, hi] of the port graph *graph* and what
    `strict_pieces` returns for it, the one reader of a piece ``(first, q,
    offset, terminal)``, whose members are ``first + k*q <= hi`` (k >= 0)."""

    _fields = ("graph", "lo", "hi", "pieces", "dropped", "failure")

    def __init__(
        self,
        graph: PortGraph,
        lo: int,
        hi: int,
        pieces: list[tuple[int, int, int, PathLabel]],
        dropped: list[tuple[int, int, int, int]],
        failure: tuple[int, Exception] | None,
    ):
        _set(self, "graph", graph)
        _set(self, "lo", lo)
        _set(self, "hi", hi)
        _set(self, "pieces", pieces)
        _set(self, "dropped", dropped)
        _set(self, "failure", failure)

    @classmethod
    def routed(cls, device: Netlist | PortGraph, lo: int, hi: int) -> _Window:
        """The window [lo, hi] of *device*, routed by `strict_pieces`."""
        graph = _graph(device)
        return cls(graph, lo, hi, *strict_pieces(graph, lo, hi))

    def count(self, piece: tuple) -> int:
        """The number of members of *piece*, an int at any window size."""
        return (self.hi - piece[0]) // piece[1] + 1

    def last(self, piece: tuple) -> int:
        """The last member of *piece*."""
        return self.hi - (self.hi - piece[0]) % piece[1]

    def members(self, piece: tuple, lo: int, hi: int) -> range:
        """The members of *piece* in [lo, hi], a part of the window or not."""
        first, q = piece[0], piece[1]
        return range(max(first, lo + (first - lo) % q), min(hi, self.hi) + 1, q)


def _expand(window: _Window, config: SimulationConfig) -> dict[int, int]:
    """`window_permutation`'s map of *window*, routed already, under
    *config*: its pieces expanded, then `_handoff`'s probes and failure."""
    lo, hi = window.lo, window.hi
    images = _images(window, lo, hi)
    for ell, image in _handoff(window, config):
        images[ell - lo] = image
    return {ell: image for ell, image in zip(range(lo, hi + 1), images) if image is not None}


def _steps(window: _Window, config: SimulationConfig) -> list[int | None]:
    """The map `_expand` returns, as a list of steps: entry ``ell - lo``
    is ``image - ell`` where ell's image lies in *window* [lo, hi], and
    None where ell has no image or one outside the window.  So each step
    that is not None leads to another entry.

    A piece's members share one int, its offset, filled in by one slice
    assignment, so the list costs one pointer per window value; each
    value of the physical hand-off fills its own entry.  Raises what
    `_expand` raises, after the same probes, by `_handoff`."""
    lo, hi = window.lo, window.hi
    steps: list[int | None] = [None] * (hi - lo + 1)
    for piece in window.pieces:
        if piece[3] == window.graph.output_path:
            offset = piece[2]
            members = window.members(piece, lo - offset, hi - offset)
            if members:  # else its slice stop may lie below the list
                steps[members.start - lo : members.stop - lo : piece[1]] = [offset] * len(members)
    for ell, image in _handoff(window, config):
        if image is not None and lo <= image <= hi:
            steps[ell - lo] = image - ell
    return steps


def _handoff(window: _Window, config: SimulationConfig) -> Iterator[tuple[int, int | None]]:
    """In physical mode, `_probes` of the values of *window* that none of
    its pieces holds, below its failing value if it has one, in ascending
    order: light split at a non-multiple may recombine.  Nothing in
    strict mode.  Then raises the window's failure, if it has one."""
    lo, failure = window.lo, window.failure
    if config.mode == PHYSICAL:
        landed = bytearray(window.hi - lo + 1)  # 1 where a piece holds the value
        for piece in window.pieces:
            landed[piece[0] - lo :: piece[1]] = b"\1" * window.count(piece)
        stop = len(landed) if failure is None else failure[0] - lo
        yield from _probes(window.graph, (lo + i for i in range(stop) if not landed[i]), config)
    if failure is not None:
        raise failure[1]


def _images(window: _Window, lo: int, hi: int) -> list[int | None]:
    """The image of each value of [lo, hi], a part of *window*, that one of
    its pieces carries to its graph's output path, in order, with None for
    every other value."""
    images: list[int | None] = [None] * (hi - lo + 1)
    for piece in window.pieces:
        if piece[3] == window.graph.output_path:
            members, offset = window.members(piece, lo, hi), piece[2]
            images[members.start - lo : members.stop - lo : piece[1]] = range(
                members.start + offset, members.stop + offset, piece[1]
            )
    return images


class _PieceMap(Mapping):
    """The map of *window* that its pieces carry to its graph's output
    path, read off the pieces and never expanded whole.

    ``map[ell]``, ``get`` and ``in`` cost O(#pieces); ``len`` is the sum
    of the member counts, so ``len()`` raises OverflowError past
    ``sys.maxsize``, as it does for a range.  Iteration yields keys in
    ascending order, expanding at most ``MAX_WINDOW`` values at a time.
    The map equals the dict `window_permutation` builds from the same
    window, item order too, and its repr is that dict's for a window of
    at most ``MAX_WINDOW`` values, a one-line summary above.
    """

    __slots__ = ("_window", "_pieces", "_size")

    def __init__(self, window: _Window):
        self._window, output = window, window.graph.output_path
        self._pieces = [piece for piece in window.pieces if piece[3] == output]
        self._size = sum(map(window.count, self._pieces))

    def __getitem__(self, ell: int) -> int:
        key = ell
        if not isinstance(key, int):  # a dict finds 3 under 3.0, as under 3
            try:
                key = int(ell)
            except (TypeError, ValueError, OverflowError):
                raise KeyError(ell) from None
            if key != ell:
                raise KeyError(ell)
        if key <= self._window.hi:
            for first, q, offset, _ in self._pieces:
                if first <= key and (key - first) % q == 0:
                    return key + offset
        raise KeyError(ell)

    def __len__(self) -> int:
        return self._size

    def __iter__(self) -> Iterator[int]:
        return map(itemgetter(0), self._items())

    def items(self) -> ItemsView[int, int]:
        return _PieceItems(self)

    def values(self) -> ValuesView[int]:
        return _PieceValues(self)

    def _items(self) -> Iterator[tuple[int, int]]:
        # blocks of 1, 2, 4, ... values, then MAX_WINDOW: the first items
        # cost O(#pieces) at any d, and a whole window about its expansion
        window, lo, size = self._window, self._window.lo, 1
        while lo <= window.hi:
            hi = min(lo + size - 1, window.hi)
            images = _images(window, lo, hi)
            yield from compress(zip(range(lo, hi + 1), images), map(is_not, images, repeat(None)))
            lo, size = hi + 1, min(2 * size, MAX_WINDOW)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Mapping):
            return NotImplemented
        window = self._window
        if isinstance(other, _PieceMap):
            if (other._pieces, other._window.hi) == (self._pieces, window.hi):
                return True
            size = other._size
        else:
            size = len(other)
        if size != self._size:
            return False
        for piece in self._pieces:
            members, offset = window.members(piece, window.lo, window.hi), piece[2]
            if not all(map(eq, map(other.get, members), map(offset.__add__, members))):
                return False
        return True

    def __repr__(self) -> str:
        lo, hi = self._window.lo, self._window.hi
        if hi - lo < MAX_WINDOW:
            return _value_repr(dict(self._items()))
        return (
            f"<map of {_int_text(self._size)} values of the window "
            f"[{_int_text(lo)}, {_int_text(hi)}] from {len(self._pieces)} pieces>"
        )


class _PieceItems(ItemsView):
    """The items of a `_PieceMap`, in ascending order of key, each image
    read off its piece rather than looked up."""

    __slots__ = ()

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return self._mapping._items()


class _PieceValues(ValuesView):
    """The values of a `_PieceMap`, in ascending order of key, each read
    off its piece rather than looked up."""

    __slots__ = ()

    def __iter__(self) -> Iterator[int]:
        return map(itemgetter(1), self._mapping._items())


def probe_permutation(
    device: Netlist | PortGraph, domain: Iterable[int], config: SimulationConfig = DEFAULT_CONFIG
) -> dict[int, int]:
    """The map of the OAM values *domain* from the device's input path to
    its output path under *config*, probed one basis state per value by
    `_probes`.

    Returns what ``extract_permutation(transform(device, config), domain,
    device.input_path, device.output_path)`` returns, and raises what it
    raises, at the first value of *domain* that fails: TypeError for a
    value that is not an int, or a bool, or the error its probe meets
    other than NonMultipleMode, which leaves the value out.
    """
    return {ell: image for ell, image in _probes(device, domain, config) if image is not None}


def _probes(
    device: Netlist | PortGraph, values: Iterable[int], config: SimulationConfig
) -> Iterator[tuple[int, int | None]]:
    """``(value, image or None)`` for each of *values*, in order: the map
    `probe_permutation` returns, None where it leaves a value out, and its
    error raised where the failing value would be yielded.  Each probe, a
    basis state of amplitude 1, is walked by `_walk`; one it lands with
    modulus exactly 1 maps to its OAM value on the output path and is left
    out elsewhere, its norm check comparing a drift of 0 with
    ``NORM_TOLERANCE``.  Any other probe (the walk gives up, the modulus is
    not exactly 1, or the input path has no entry) is read through `_run`,
    as `extract_permutation` reads `transform`.
    """
    graph = _graph(device)
    source, target = graph.input_path, graph.output_path
    # the output terminal is looked up once: a unit landing is read by index
    output = graph.terminals.index(target) if target in graph.terminals else None
    ells = map(_checked, values)
    walked = repeat(None)  # with no entry: nothing to walk, and no tee to buffer
    if (entry := graph.entries.get(source)) is not None:
        ells, probes = tee(ells)
        walked = _walk(graph, zip(repeat(entry), probes, repeat(1.0 + 0j)), 1.0, config)
    for ell, landing in zip(ells, walked):
        # one unit landing: no dust to prune, nothing to rescale, and a
        # drift of exactly 0, which fails only a negative tolerance
        if landing is not None and abs(landing[3]) == 1.0 and not 0.0 > NORM_TOLERANCE:
            yield ell, landing[2] if landing[1] == output else None
            continue
        probe = ModeVector._trusted({(source, ell): 1.0 + 0j})
        try:
            image = _image(_run(graph, probe, config), target)
        except NonMultipleMode:
            image = None
        yield ell, image


def _certified(window: _Window, config: SimulationConfig) -> bool:
    """True if *window*, as `strict_pieces` routes it, is a certificate of
    the window's map in either mode, checked on the packet engine under
    *config* at the ends of its pieces.

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
    graph = window.graph
    if window.dropped or window.failure is not None or graph.input_path not in graph.entries:
        return False
    if sum(map(window.count, window.pieces)) != window.hi - window.lo + 1:
        return False
    output = graph.output_path
    routes: set[int] = set()
    probes: dict[int, int | None] = {}
    for piece in window.pieces:
        route = _routes(window, piece)
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


def _routes(window: _Window, piece: tuple) -> int | None:
    """The route of *piece*, of *window*: the port its first member takes
    at each splitter, as the bits of an int below a leading 1, if that walk
    within the hop budget takes every member along and leaves on the
    piece's path with its offset; else None.  The walk is its own, not
    `strict_pieces`' class loop, so the two check each other."""
    first, q, offset, path = piece
    graph = window.graph
    wiring = graph.wiring
    orders, kicks = _tables(graph)
    slot, carried, route = graph.entries[graph.input_path], 0, 1
    for _ in range(HOPS_PER_NODE * max(1, len(graph.nodes)) + 1):
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
            ell, want, image = map(_int_text, (ell, want, image))
            raise AssertionError(f"|{ell}> -> {want} failed re-simulation (got {image})")


def transform(
    device: Netlist | PortGraph, config: SimulationConfig = DEFAULT_CONFIG
) -> Callable[[ModeVector], ModeVector]:
    """The map *device* applies to states under *config*.

    The returned function is the way to push many states through one
    device.
    """
    return partial(_run, _graph(device), config=config)


def apply_netlist(
    netlist: Netlist, state: ModeVector, config: SimulationConfig = DEFAULT_CONFIG
) -> ModeVector:
    """Propagate *state* through the element sequence, threaded into its
    port graph, with the contract of `apply_portgraph`."""
    return _run(_graph(netlist), state, config)


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
    return _run(graph, state, config)
