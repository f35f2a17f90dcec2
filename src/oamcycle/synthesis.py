"""Netlist synthesis for the cyclic OAM shift gate |k> -> |k+1 mod d>.

The construction factors d = 2^M * Q with Q odd and walks the binary
digits of Q.  Light climbs a ladder of splitters whose orders double at
each rung, gets shifted down by the value already accumulated, and is
recombined so that exactly the modes 0..d-1 cycle.  Rungs come in
mirror-symmetric forward/backward pairs around a central apex; holograms
carry the digit-dependent shifts.

`synth_arbitrary` builds every published layout: for d a power of two
(Q = 1) it is the plain doubling ladder, and for odd d (M = 0) the digit
walk alone.

The emitter records each mirror pair as it emits the backward element,
and `simplify` folds each such pair onto its forward partner, re-routing
the light backwards through the kept element, which roughly halves the
number of physical splitters.  The result is a port graph rather than a
netlist, since the element sequence no longer describes the traversal
order.  `synth_arbitrary` keeps the pairs its emitter recorded on the
netlist it returns, beside the fields, so folding that netlist emits
nothing again; any other netlist is compared with the emitted layout
first.

Synthesis builds its own elements and netlists unchecked (`_unchecked`),
since each field is valid by construction and the public constructors'
checks would only repeat what the builder knows: the elements `_emit`
places, and the netlists `synth_arbitrary`, `invert` and `shifted_gate`
return, each made of elements already checked or emitted.  A value a
caller chose still meets a public constructor: `shifted_gate`'s two
holograms carry the caller's shift, and `invert` negates the charges of
the caller's holograms.

Every device takes its path labels from one private table, one shared
`PathLabel` object per path, each hashed once when it is made: threading
and folding look labels up in dicts, and a shared label matches by
identity there before any equality test runs.  Correctness never depends
on it; a device of fresh equal labels behaves the same.

The gate variants are decided here and nowhere else: `synth_variant`
builds the element list a variant's document stores, and `device_for`
turns a stored list into the device the variant names.

`scaling_rows` tallies each dimension's synthesized splitters against
the count formulas and the log bound, and `scaling_csv_lines` writes the
rows; they read nothing but the tallies and formulas here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator

from .model import (
    Element,
    Hologram,
    Netlist,
    OamBeamSplitter,
    PathLabel,
    ZPlate,
    _dataclass_repr,
    _is_int,
    _unchecked,
)
from .portgraph import PortGraph, contract_mirrors, netlist_to_portgraph

#: the gate variants a document can name (see `synth_variant`)
VARIANTS = ("standard", "simplified", "inverse", "shifted")


#: the one label object per path that every synthesized device holds, one
#: dict per family; it grows to the largest device's M + N rails, and a
#: device holds more elements than that
_LABELS: dict[str, dict[int, PathLabel]] = {"r": {}, "s": {}}


def _shared(family: str, count: int) -> list[PathLabel]:
    """The labels of *family* with indices 0..count-1, from `_LABELS`.

    Two threads can at worst each make an equal label; `setdefault` keeps
    one of them.
    """
    table = _LABELS[family]
    return [table.get(i) or table.setdefault(i, PathLabel(family, i)) for i in range(count)]


class InvalidDimension(Exception):
    """Synthesis was asked for a dimension outside its domain."""


class NotSimplifiable(Exception):
    """Mirror contraction was asked of a netlist without the mirror layout."""


@dataclass(frozen=True)
class SynthesisParams:
    """Factorization d = 2^two_exp * odd and the digit walk over odd.

    ``bits`` holds the binary digits of ``odd``, least significant first
    (``nbits`` of them, first and last always 1).  ``prev_one[t]`` is the
    rung the ladder reconnects to at step t: the position of the most
    recent 1-digit strictly below t, or 0.  Index 0 is padding.
    """

    d: int
    two_exp: int
    odd: int
    nbits: int
    bits: tuple[int, ...]
    prev_one: tuple[int, ...]
    __repr__ = _dataclass_repr


def decompose(d: int) -> SynthesisParams:
    """Factor d and precompute the digit walk.  Requires d >= 2."""
    if not _is_int(d) or d < 2:
        raise InvalidDimension(f"dimension must be an integer >= 2, got {d!r}")
    two_exp = (d & -d).bit_length() - 1
    odd = d >> two_exp
    nbits = odd.bit_length()
    bits = tuple([(odd >> t) & 1 for t in range(nbits)])
    prev = [0, 0]  # prev_one[1] = 0 by definition
    for t in range(1, nbits - 1):
        prev.append(t if bits[t] else prev[t])
    prev_one = tuple(prev[: max(nbits, 1)])
    return SynthesisParams(d, two_exp, odd, nbits, bits, prev_one)


def _splitter(m: int, port_x: PathLabel, port_y: PathLabel) -> OamBeamSplitter:
    """A splitter `_emit` places, built unchecked: its order is a power of
    two, its ports are shared labels, and no rung joins a rail to itself."""
    return _unchecked(OamBeamSplitter, m=m, port_x=port_x, port_y=port_y)


def _hologram(path: PathLabel, v: int) -> Hologram:
    """A hologram `_emit` places, built unchecked: its charge is an int and
    its path a shared label."""
    return _unchecked(Hologram, path=path, v=v)


def _emit(d: int) -> list[tuple[Element, int | None]]:
    """Element sequence for dimension d, each element paired with the index
    of the forward element it mirrors, recorded as the backward element is
    emitted, or with None when it mirrors none."""
    p = decompose(d)
    M, N, bits, prev = p.two_exp, p.nbits, p.bits, p.prev_one
    r, s = _shared("r", M + N), _shared("s", N - 1)
    out: list[tuple[Element, int | None]] = []
    opened: list[int] = []  # forward elements whose mirror is still to come
    OPENS, CLOSES = 1, -1

    def emit(element, pair=0):
        # the ladders nest, so each mirror closes the latest pair opened
        if pair == OPENS:
            opened.append(len(out))
        out.append((element, opened.pop() if pair == CLOSES else None))

    for t in range(M):  # purple ladder, forward: the factor 2^M
        emit(_splitter(2**t, r[t], r[t + 1]), OPENS)
        emit(_hologram(r[t + 1], -(2**t)), OPENS)
    if N == 1:
        emit(_hologram(r[M], -(2**M)))  # centre
    else:
        top = N - 1 + M  # the rung of both apexes
        emit(_splitter(2**M, r[M], s[0]))  # stage 0
        emit(_hologram(s[0], 2**M), OPENS)
        for t in range(1, N - 1):  # blue ladder, forward: the digits of Q
            emit(_splitter(2 ** (t + M), r[prev[t] + M], r[t + M]), OPENS)
            if bits[t]:
                emit(_hologram(r[t + M], -(2 ** (t + M))), OPENS)
        emit(_splitter(2**top, r[prev[N - 1] + M], r[top]))  # blue apex
        emit(_hologram(r[top], -(2**top)))
        for t in range(N - 2, 0, -1):  # blue ladder, backward
            if bits[t]:
                emit(_hologram(r[t + M], 2 ** (t + M)), CLOSES)
            emit(_splitter(2 ** (t + M), r[prev[t] + M], r[t + M]), CLOSES)
        for t in range(1, N - 1):  # green ladder, forward
            emit(_splitter(2 ** (t + M), s[0], s[t]), OPENS)
        emit(_splitter(2**top, r[top], s[0]))  # green apex
        for t in range(N - 2, 0, -1):  # green ladder, backward
            emit(_splitter(2 ** (t + M), r[top], s[t]), CLOSES)
        emit(_hologram(r[top], -(2**M)), CLOSES)  # closing: mirrors stage 0's hologram
        emit(_splitter(2**M, r[M], r[top]))  # merger
    for t in range(M - 1, -1, -1):  # purple ladder, backward
        emit(_hologram(r[t + 1], 2**t), CLOSES)
        emit(_splitter(2**t, r[t], r[t + 1]), CLOSES)
    emit(_hologram(r[0], 1))
    return out


def _pairs(emitted: list[tuple[Element, int | None]]) -> dict[int, int]:
    """The mirror pairs of an `_emit` list, as `contract_mirrors` takes them."""
    return {i: mirrored for i, (_, mirrored) in enumerate(emitted) if mirrored is not None}


def synth_arbitrary(d: int) -> Netlist:
    """Netlist cycling OAM values 0..d-1 by +1 (mod d) on path r0."""
    emitted = _emit(d)
    r0 = _shared("r", 1)[0]
    netlist = _unchecked(
        Netlist,
        elements=tuple([element for element, _ in emitted]),
        input_path=r0,
        output_path=r0,
        dimension=d,
    )
    # kept beside the fields, as `simulation._graph` keeps the port graph,
    # so that `simplify` folds this netlist without emitting it again
    object.__setattr__(netlist, "_mirror_pairs", _pairs(emitted))
    return netlist


def count_beamsplitters(device: Netlist | PortGraph) -> int:
    """Number of physical splitters in a netlist or port graph."""
    elements = device.nodes if isinstance(device, PortGraph) else device.elements
    return sum(1 for el in elements if isinstance(el, OamBeamSplitter))


def predict_count(d: int) -> tuple[int, float | None]:
    """Splitter count of the standard layout and its log bound.

    Returns ``(2*(M + 2*floor(log2 Q)), 4*log2(d-1))``; the bound is None
    for d = 2 where it degenerates.
    """
    p = decompose(d)
    count = 2 * (p.two_exp + 2 * (p.nbits - 1))
    bound = 4 * math.log2(d - 1) if d >= 3 else None
    return count, bound


def predict_simplified_count(d: int) -> int:
    """Physical splitter count after mirror contraction."""
    p = decompose(d)
    if p.odd == 1:
        return p.two_exp
    return p.two_exp + 2 * (p.nbits - 1) + 2


def naive_count(d: int) -> int:
    """Splitter count of the brute-force one-interferometer-per-swap layout."""
    return 2 * (d - 1)


def shifted_gate(netlist: Netlist, m: int) -> Netlist:
    """Conjugate a gate onto the shifted OAM window {m, ..., m+d-1}.

    A hologram of charge -m maps the window onto the gate's native range
    and a +m hologram maps it back, so |k> -> |((k-m+1) mod d) + m| for a
    cyclic shift netlist.  A shift that is no int, or a bool, raises ValueError.
    """
    if not _is_int(m):
        raise ValueError(f"shift must be an int, got {m!r}")
    if m == 0:
        return netlist
    elements = (
        (Hologram(netlist.input_path, -m),)
        + netlist.elements
        + (Hologram(netlist.output_path, m),)
    )
    return _unchecked(
        Netlist,
        elements=elements,
        input_path=netlist.input_path,
        output_path=netlist.output_path,
        dimension=netlist.dimension,
    )


def invert(netlist: Netlist) -> Netlist:
    """Netlist of the inverse gate: elements reversed, hologram charges negated.

    Splitters route identically in both directions, so reversal alone
    inverts them; the splitter count is unchanged.  Phase plates have no
    charge to negate and are not accepted.
    """
    inverted: list[Element] = []
    for element in reversed(netlist.elements):
        if isinstance(element, Hologram):
            inverted.append(Hologram(element.path, -element.v))
        elif isinstance(element, ZPlate):
            raise ValueError("cannot invert a netlist containing phase plates")
        else:
            inverted.append(element)
    return _unchecked(
        Netlist,
        elements=tuple(inverted),
        input_path=netlist.output_path,
        output_path=netlist.input_path,
        dimension=netlist.dimension,
    )


def simplify(netlist: Netlist) -> PortGraph:
    """Fold the mirror-symmetric layout onto itself.

    Each backward-ladder element is deleted and its wires re-routed so the
    light traverses the forward partner in reverse; the stage-0 and closing
    holograms cancel the same way.  The pairs are those the emitter records
    as it emits each backward element, so only netlists that are element-
    for-element the standard layout for their dimension can be folded;
    anything else (shifted, inverted, hand-edited) raises NotSimplifiable.

    A netlist from `synth_arbitrary` carries the pairs its emitter
    recorded, and is folded by them at once.  Any other netlist, a parsed
    document among them, is compared element by element with the layout
    `_emit` writes for its dimension, and folded by that layout's pairs.
    Both routes give equal graphs.
    """
    pairs = netlist.__dict__.get("_mirror_pairs")
    if pairs is None:
        if netlist.dimension < 2:
            raise NotSimplifiable("the d=1 identity netlist has nothing to fold")
        emitted = _emit(netlist.dimension)
        if tuple([element for element, _ in emitted]) != netlist.elements:
            raise NotSimplifiable(f"netlist is not the standard d={netlist.dimension} layout")
        pairs = _pairs(emitted)
    return contract_mirrors(netlist_to_portgraph(netlist), pairs)


def synth_variant(d: int, variant: str = "standard", shift: int = 0) -> Netlist:
    """The element list a document of *variant* stores for dimension d,
    cycling the OAM window {shift, ..., shift+d-1}.

    A simplified document stores the standard list (`device_for` folds
    it); the simplified layout has no shifted window.  Raises ValueError
    for an unknown variant or a shift that is not an int, or a bool.
    """
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")
    if not _is_int(shift):
        raise ValueError(f"shift must be an int, got {shift!r}")
    if variant == "simplified" and shift != 0:
        raise ValueError("the simplified variant does not support a shifted window")
    netlist = synth_arbitrary(d)
    if variant == "inverse":
        netlist = invert(netlist)
    return shifted_gate(netlist, shift)


def variant_name(variant: str, shift: int) -> str:
    """The name a gate of *variant* on the window starting at *shift* goes
    by: a standard gate on a shifted window is ``"shifted"``."""
    return "shifted" if variant == "standard" and shift else variant


def device_for(netlist: Netlist, variant: str) -> Netlist | PortGraph:
    """The device a document of *variant* storing *netlist* describes."""
    return simplify(netlist) if variant == "simplified" else netlist


@dataclass(frozen=True)
class ScalingRow:
    d: int
    n_arb_actual: int
    n_arb_predicted: int
    n_s: int
    naive: int
    bound: float | None
    __repr__ = _dataclass_repr


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
