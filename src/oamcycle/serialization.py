"""Netlist JSON documents, DOT rendering, and the state expression grammar.

The JSON layout is canonical: fixed key order, one element per line, so
serialize(parse(text)) reproduces its input byte for byte.  Simplified
devices are stored as the standard element list tagged
``"variant": "simplified"``; the folded port graph is rebuilt on use.

``_FORMS`` is the one place where element forms are stated: each kind's
document ``kind``, parameter key, paths, name in messages and DOT label.
The writer, the reader and the DOT labels all read it, so a new kind is
one row there.
"""

from __future__ import annotations

import json
import re
import sys
from typing import NamedTuple

# the errors `parse` and `parse_state` raise, defined in `elements`, stay importable here
from .elements import ParseError, SchemaVersionMismatch, _int_text
from .model import (
    Element,
    Hologram,
    ModeVector,
    Netlist,
    OamBeamSplitter,
    PathLabel,
    ZPlate,
    _Record,
)
from .portgraph import BACKWARD, PortGraph, netlist_to_portgraph
from .synthesis import VARIANTS

SCHEMA_VERSION = "1"


class NetlistDocument(_Record):
    """A netlist and the gate variant its document names."""

    _fields = ("netlist", "variant")
    _defaults = {"variant": "standard"}


class _Form(NamedTuple):
    kind: str  # the document's "kind"
    key: str  # key and attribute of the int parameter
    paths: tuple[str, ...]  # path attributes, in document order
    noun: str  # the kind's name in messages
    label: tuple[str, str]  # DOT label: a prefix, and the parameter's format spec


#: keyed by exact class: `Netlist` and `PortGraph` admit no other
_FORMS = {
    OamBeamSplitter: _Form("LI", "m", ("port_x", "port_y"), "splitter", ("LI_", "")),
    Hologram: _Form("HOLOG", "v", ("path",), "hologram", ("Holog", "+d")),
    ZPlate: _Form("ZPLATE", "d", ("path",), "phase plate", ("Z_", "")),
}
_BY_KIND = {form.kind: (cls, form) for cls, form in _FORMS.items()}


def _decimal(value: int, what: str) -> int:
    """*value*, or ValueError naming *what* past the digit limit, where `parse` reads no int."""
    try:
        str(value)
    except ValueError:
        raise ValueError(f"{what} has more than {sys.get_int_max_str_digits()} digits") from None
    return value


def _element_to_obj(index: int, element: Element) -> dict:
    form = _FORMS[type(element)]
    paths = [str(getattr(element, field)) for field in form.paths]
    parameter = _decimal(getattr(element, form.key), f"element {index} key {form.key!r}")
    return {"kind": form.kind, form.key: parameter, "paths": paths}


def serialize(netlist: Netlist, variant: str = "standard") -> str:
    """Canonical JSON text for a netlist document; ValueError for an int past
    the digit limit of int-to-decimal conversion, which `parse` cannot read."""
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")
    lines = [
        "{",
        f'  "schema_version": {json.dumps(SCHEMA_VERSION)},',
        f'  "dimension": {_decimal(netlist.dimension, "dimension")},',
        f'  "variant": {json.dumps(variant)},',
        f'  "input_path": {json.dumps(str(netlist.input_path))},',
        f'  "output_path": {json.dumps(str(netlist.output_path))},',
        '  "elements": [',
    ]
    if netlist.elements:
        objs = map(_element_to_obj, range(len(netlist.elements)), netlist.elements)
        lines.append(",\n".join(f"    {json.dumps(obj)}" for obj in objs))
    lines.append("  ]")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _require(obj: dict, key: str, kind, what: str):
    if key not in obj:
        raise ParseError(f"{what} is missing key {key!r}")
    value = obj[key]
    if kind is int and isinstance(value, bool) or not isinstance(value, kind):
        raise ParseError(f"{what} key {key!r} must be {kind.__name__}, got {value!r}")
    return value


def _parse_path(text, what: str) -> PathLabel:
    if not isinstance(text, str):
        raise ParseError(f"{what} must be a path string, got {text!r}")
    try:
        return PathLabel.parse(text)
    except ValueError as exc:
        raise ParseError(f"{what}: {exc}") from exc


def _parse_element(obj, index: int) -> Element:
    what = f"element {index}"
    if not isinstance(obj, dict):
        raise ParseError(f"{what} must be an object, got {obj!r}")
    kind = _require(obj, "kind", str, what)
    paths = _require(obj, "paths", list, what)
    labels = [_parse_path(p, f"{what} path {i}") for i, p in enumerate(paths)]
    if kind not in _BY_KIND:
        raise ParseError(f"{what}: unknown kind {kind!r}")
    cls, form = _BY_KIND[kind]
    _check_keys(obj, {"kind", form.key, "paths"}, what)
    if len(labels) != len(form.paths):
        need = f"{len(form.paths)} path" + "s" * (len(form.paths) > 1)
        raise ParseError(f"{what}: {form.noun} needs {need}, got {len(labels)}")
    parameter = _require(obj, form.key, int, what)
    try:
        return cls(**{form.key: parameter}, **dict(zip(form.paths, labels)))
    except ValueError as exc:  # element invariant violations
        raise ParseError(f"{what}: {exc}") from exc


def _check_keys(obj: dict, allowed: set, what: str):
    extra = set(obj) - allowed
    if extra:
        raise ParseError(f"{what} has unexpected keys {sorted(extra)}")


def parse(text: str) -> NetlistDocument:
    """Read a netlist document; raises ParseError / SchemaVersionMismatch."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", exc.lineno, exc.colno) from exc
    except ValueError as exc:  # an int past the digit limit of decimal-to-int conversion
        raise ParseError(f"document not read: {exc}") from exc
    if not isinstance(obj, dict):
        raise ParseError(f"document must be an object, got {type(obj).__name__}")
    _check_keys(
        obj,
        {"schema_version", "dimension", "variant", "input_path", "output_path", "elements"},
        "document",
    )
    version = _require(obj, "schema_version", str, "document")
    if version != SCHEMA_VERSION:
        raise SchemaVersionMismatch(
            f"document has schema version {version!r}, expected {SCHEMA_VERSION!r}"
        )
    dimension = _require(obj, "dimension", int, "document")
    variant = _require(obj, "variant", str, "document")
    if variant not in VARIANTS:
        raise ParseError(f"document variant must be one of {VARIANTS}, got {variant!r}")
    input_path = _parse_path(_require(obj, "input_path", str, "document"), "input_path")
    output_path = _parse_path(_require(obj, "output_path", str, "document"), "output_path")
    raw_elements = _require(obj, "elements", list, "document")
    elements = tuple([_parse_element(el, i) for i, el in enumerate(raw_elements)])
    try:
        netlist = Netlist(elements, input_path, output_path, dimension)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    return NetlistDocument(netlist=netlist, variant=variant)


# --- DOT rendering ----------------------------------------------------------


def export_dot(device: Netlist | PortGraph) -> str:
    """Graphviz text for a netlist or port graph.

    Element nodes appear in netlist order as n0, n1, ...; entries are
    points and terminals double circles.  Edges carry the path label;
    edges re-entering an element backwards are dashed.
    """
    graph = device if isinstance(device, PortGraph) else netlist_to_portgraph(device)
    lines = ["digraph device {", "  rankdir=LR;"]
    for path in sorted(graph.entries):
        lines.append(f'  in_{path} [shape=point, xlabel="{path}"];')
    for index, element in enumerate(graph.nodes):
        form = _FORMS[type(element)]
        label = form.label[0] + _int_text(getattr(element, form.key), form.label[1])
        lines.append(f'  n{index} [shape=box, label="{label}"];')
    # the labelled terminals that out-slots or entries reach; a slot on a
    # terminal with no label (UNWIRED among them) draws no node and no edge
    blank = {~t for t, path in enumerate(graph.terminals) if path is None}
    targets = {*graph.wiring, *graph.entries.values()} - blank
    terminal_labels = sorted({str(graph.terminals[~t]) for t in targets if t < 0})
    for label in terminal_labels:
        lines.append(f'  t_{label} [shape=doublecircle, label="{label}"];')

    def endpoint_text(slot: int) -> str:
        return f"t_{graph.terminals[~slot]}" if slot < 0 else f"n{slot >> 2}"

    for path in sorted(graph.entries):
        target = graph.entries[path]
        if target not in blank:
            lines.append(f'  in_{path} -> {endpoint_text(target)} [label="{path}"];')
    # per node, the backward out-slots first
    for source in sorted(range(len(graph.wiring)), key=lambda slot: slot ^ BACKWARD):
        target = graph.wiring[source]
        if target in blank:
            continue
        backward = source & BACKWARD or (target >= 0 and target & BACKWARD)
        style = ", style=dashed" if backward else ""
        lines.append(
            f'  n{source >> 2} -> {endpoint_text(target)} '
            f'[label="{graph.port_path(source)}"{style}];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


# --- state expressions ------------------------------------------------------

_KET_RE = re.compile(r"\|\s*(-?[0-9]+)\s*>")


def _parse_coefficient(chunk: str, first: bool) -> complex:
    text = chunk.strip()
    if not first and (not text or text[0] not in "+-"):
        raise ParseError(f"expected '+' between terms, got {chunk!r}")
    if text.startswith("+"):  # the joiner; any sign belongs to the coefficient
        text = text[1:].strip()
    if text == "":
        return 1.0 + 0j
    if text == "-":
        return -1.0 + 0j
    if text.endswith("*"):
        text = text[:-1].strip()
    text = text.replace(" ", "")
    if text.startswith("(") and text.endswith(")"):
        text = text[1:-1]
    text = text.replace("i", "j")
    text = re.sub(r"(?<![0-9.])j", "1j", text)
    try:
        return complex(text)
    except ValueError as exc:
        raise ParseError(f"invalid coefficient {chunk.strip()!r}") from exc


def parse_state(expression: str, path: PathLabel) -> ModeVector:
    """Parse ``c*|k> + c*|k> + ...`` into a state on *path*.

    Coefficients are optional (default 1) and may be float or complex
    with either ``j`` or ``i`` as the imaginary unit; a leading ``-``
    negates its term.  Duplicate kets sum.
    """
    terms: list[tuple[tuple[PathLabel, int], complex]] = []
    cursor = 0
    first = True
    for match in _KET_RE.finditer(expression):
        coeff = _parse_coefficient(expression[cursor : match.start()], first)
        try:
            ell = int(match.group(1))
        except ValueError:  # more digits than sys.get_int_max_str_digits()
            limit = sys.get_int_max_str_digits()
            raise ParseError(f"ket {len(terms) + 1} has more than {limit} digits") from None
        terms.append(((path, ell), coeff))
        cursor = match.end()
        first = False
    if first:
        raise ParseError(f"no kets found in {expression!r}")
    if expression[cursor:].strip():
        raise ParseError(f"trailing text {expression[cursor:].strip()!r} after last ket")
    return ModeVector(terms)


def format_amplitude(amp: complex) -> str:
    """Short text for an amplitude; empty for 1, '-' for -1."""
    if abs(amp - 1) < 1e-9:
        return ""
    if abs(amp + 1) < 1e-9:
        return "-"
    real, imag = amp.real, amp.imag
    if abs(imag) < 1e-9:
        return f"{real:.10g}"
    if abs(real) < 1e-9:
        return f"{imag:.10g}j"
    return f"({real:.10g}{imag:+.10g}j)"


def format_state(state: ModeVector) -> str:
    """One line per component, sorted by path then OAM value."""
    lines = []
    for (path, ell), amp in sorted(state.items()):
        lines.append(f"{format_amplitude(amp)}|{_int_text(ell)}> @ {path}")
    return "\n".join(lines)
