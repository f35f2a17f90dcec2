"""JSON documents, DOT rendering, state expressions."""

import re
import sys

import pytest
from hypothesis import given, settings, strategies as st

from oamcycle.model import (
    Hologram,
    ModeVector,
    Netlist,
    OamBeamSplitter,
    PathLabel,
    ZPlate,
    element_paths,
    r_path,
    s_path,
)
from oamcycle.portgraph import PortGraph, netlist_to_portgraph
from oamcycle.serialization import (
    ParseError,
    SchemaVersionMismatch,
    export_dot,
    format_amplitude,
    format_state,
    parse,
    parse_state,
    serialize,
)
from oamcycle.synthesis import VARIANTS, ScalingRow, decompose, simplify, synth_arbitrary

R0 = r_path(0)

D3_DOC = """{
  "schema_version": "1",
  "dimension": 3,
  "variant": "standard",
  "input_path": "r0",
  "output_path": "r0",
  "elements": [
    {"kind": "LI", "m": 1, "paths": ["r0", "s0"]},
    {"kind": "HOLOG", "v": 1, "paths": ["s0"]},
    {"kind": "LI", "m": 2, "paths": ["r0", "r1"]},
    {"kind": "HOLOG", "v": -2, "paths": ["r1"]},
    {"kind": "LI", "m": 2, "paths": ["r1", "s0"]},
    {"kind": "HOLOG", "v": -1, "paths": ["r1"]},
    {"kind": "LI", "m": 1, "paths": ["r0", "r1"]},
    {"kind": "HOLOG", "v": 1, "paths": ["r0"]}
  ]
}
"""


def _swap_first_hologram(text: str, body: str) -> str:
    """*text* with its first hologram replaced by the element ``{body}``."""
    return text.replace('{"kind": "HOLOG", "v": 1, "paths": ["s0"]}', "{" + body + "}", 1)


def test_d3_document_is_frozen():
    assert serialize(synth_arbitrary(3)) == D3_DOC


def test_d3_document_element_tally():
    doc = parse(D3_DOC)
    kinds = [type(el).__name__ for el in doc.netlist.elements]
    assert kinds.count("OamBeamSplitter") == 4
    assert kinds.count("Hologram") == 4


@pytest.mark.parametrize("d", [2, 3, 10, 88, 256])
def test_round_trip_is_byte_identical(d):
    net = synth_arbitrary(d)
    text = serialize(net)
    doc = parse(text)
    assert doc.netlist == net
    assert doc.variant == "standard"
    assert serialize(doc.netlist, doc.variant) == text


@pytest.mark.parametrize("variant", ["simplified", "inverse", "shifted"])
def test_variant_survives_round_trip(variant):
    text = serialize(synth_arbitrary(8), variant)
    assert parse(text).variant == variant


def test_identity_netlist_round_trips():
    text = serialize(Netlist.identity())
    doc = parse(text)
    assert doc.netlist == Netlist.identity()
    assert '"elements": [' in text


def test_parse_rejects_an_empty_netlist_other_than_the_identity():
    text = serialize(Netlist.identity())
    for wrong in (
        text.replace('"dimension": 1', '"dimension": 5'),
        text.replace('"output_path": "r0"', '"output_path": "r3"'),
    ):
        with pytest.raises(ParseError, match="d=1 identity"):
            parse(wrong)


def test_zplate_round_trips():
    net = Netlist((ZPlate(R0, 4),), R0, R0, 4)
    assert parse(serialize(net)).netlist == net
    # the plate that the per-kind mangles below start from
    text = _swap_first_hologram(D3_DOC, '"kind": "ZPLATE", "d": 3, "paths": ["s0"]')
    assert parse(text).netlist.elements[1] == ZPlate(s_path(0), 3)


_paths = st.builds(PathLabel, st.sampled_from("rs"), st.integers(0, 12))
_elements = st.one_of(
    st.builds(
        lambda m, ports: OamBeamSplitter(m, *ports),
        st.integers(1, 2**70),
        st.lists(_paths, min_size=2, max_size=2, unique=True),
    ),
    st.builds(Hologram, _paths, st.integers(-(2**70), 2**70)),
    st.builds(ZPlate, _paths, st.integers(2, 2**70)),
)


@st.composite
def _netlists(draw):
    elements = tuple(draw(st.lists(_elements, min_size=1, max_size=12)))
    used = st.sampled_from(sorted({p for el in elements for p in element_paths(el)}))
    return Netlist(elements, draw(used), draw(used), draw(st.integers(1, 2**70)))


@settings(max_examples=300, deadline=None)
@given(_netlists(), st.sampled_from(VARIANTS))
def test_documents_of_every_kind_round_trip(net, variant):
    text = serialize(net, variant)
    doc = parse(text)
    assert doc.netlist == net and doc.variant == variant
    assert serialize(doc.netlist, variant) == text
    nodes = re.findall(r"^  n\d+ \[shape=box, label=", export_dot(net), re.MULTILINE)
    assert len(nodes) == len(net.elements)


def test_serialize_rejects_unknown_variant():
    with pytest.raises(ValueError):
        serialize(synth_arbitrary(2), "optimized")


# --- parse failures ------------------------------------------------------------


def test_parse_reports_json_position():
    with pytest.raises(ParseError) as err:
        parse('{\n  "schema_version": oops\n}')
    assert err.value.line == 2
    assert err.value.column is not None


def test_parse_schema_version_mismatch():
    text = D3_DOC.replace('"schema_version": "1"', '"schema_version": "2"')
    with pytest.raises(SchemaVersionMismatch):
        parse(text)


@pytest.mark.parametrize(
    "mangle",
    [
        lambda t: t.replace('"kind": "LI"', '"kind": "BS"', 1),
        lambda t: t.replace('"m": 1, ', "", 1),
        lambda t: t.replace('"m": 1', '"m": 0', 1),
        lambda t: t.replace('"m": 1', '"m": "1"', 1),
        lambda t: t.replace('["r0", "s0"]', '["r0"]', 1),
        lambda t: t.replace('["r0", "s0"]', '["r0", "r0"]', 1),
        lambda t: t.replace('["r0", "s0"]', '["r0", "q0"]', 1),
        lambda t: t.replace('"dimension": 3', '"dimension": 0'),
        lambda t: t.replace('"dimension": 3', '"dimension": true'),
        lambda t: t.replace('"dimension": 3', '"dimension": "3"'),
        lambda t: t.replace('"variant": "standard"', '"variant": "magic"'),
        lambda t: t.replace('"input_path": "r0"', '"input_path": "x1"'),
        lambda t: t.replace('"input_path": "r0"', '"input_path": "s9"'),
        lambda t: t.replace('"output_path": "r0",\n', ""),
        lambda t: t.replace('"variant"', '"flavour"'),
        lambda t: t.replace('{"kind": "HOLOG", "v": 1, "paths": ["s0"]}',
                            '{"kind": "HOLOG", "v": 1, "paths": ["s0"], "x": 2}'),
        lambda t: t.replace('{"kind": "HOLOG", "v": 1, "paths": ["s0"]}', "7"),
        # per kind: path count, missing, extra, bool and float parameters
        lambda t: _swap_first_hologram(t, '"kind": "HOLOG", "v": 1, "paths": ["s0", "r0"]'),
        lambda t: _swap_first_hologram(t, '"kind": "ZPLATE", "d": 3, "paths": ["s0", "r0"]'),
        lambda t: _swap_first_hologram(t, '"kind": "ZPLATE", "d": 3, "paths": []'),
        lambda t: _swap_first_hologram(t, '"kind": "HOLOG", "paths": ["s0"]'),
        lambda t: _swap_first_hologram(t, '"kind": "ZPLATE", "paths": ["s0"]'),
        lambda t: _swap_first_hologram(t, '"kind": "ZPLATE", "d": 3, "paths": ["s0"], "v": 1'),
        lambda t: _swap_first_hologram(t, '"kind": "ZPLATE", "m": 3, "paths": ["s0"]'),
        lambda t: t.replace('"m": 1', '"m": true', 1),
        lambda t: t.replace('"m": 1', '"m": 1.0', 1),
        lambda t: t.replace('"v": 1', '"v": false', 1),
        lambda t: t.replace('"v": 1', '"v": 1.5', 1),
        lambda t: _swap_first_hologram(t, '"kind": "ZPLATE", "d": true, "paths": ["s0"]'),
        lambda t: _swap_first_hologram(t, '"kind": "ZPLATE", "d": 3.0, "paths": ["s0"]'),
        lambda t: _swap_first_hologram(t, '"kind": "ZPLATE", "d": -3, "paths": ["s0"]'),
        lambda t: _swap_first_hologram(t, '"kind": "PLATE", "d": 3, "paths": ["s0", "x"]'),
        lambda t: t.replace('["r0", "s0"]', '[0, "r1"]', 1),
        lambda t: t.replace('["r0", "s0"]', "[null]", 1),
        # each label has one spelling: no leading zero, no trailing newline
        lambda t: t.replace('"input_path": "r0"', '"input_path": "r00"'),
        lambda t: t.replace('["r0", "s0"]', '["r0", "s0\\n"]', 1),
    ],
)
def test_parse_rejects_mangled_documents(mangle):
    with pytest.raises(ParseError):
        parse(mangle(D3_DOC))


@pytest.mark.parametrize("paths, got", [('[0, "r1"]', "0"), ("[null]", "None")])
def test_parse_names_a_path_that_is_not_a_string(paths, got):
    with pytest.raises(ParseError) as raised:
        parse(D3_DOC.replace('["r0", "s0"]', paths, 1))
    assert str(raised.value) == f"element 0 path 0 must be a path string, got {got}"


def test_parse_rejects_non_object():
    with pytest.raises(ParseError):
        parse("[1, 2]")


def test_parse_rejects_zplate_bad_dimension():
    text = serialize(Netlist((ZPlate(R0, 4),), R0, R0, 4)).replace('"d": 4', '"d": 1')
    with pytest.raises(ParseError):
        parse(text)


# --- DOT -----------------------------------------------------------------------


def test_dot_power_of_two_one():
    dot = export_dot(synth_arbitrary(2))
    assert dot.count("shape=box") == 6  # 2 splitters + 4 holograms
    assert dot.count('label="LI_1"') == 2
    assert 'label="Holog-2"' in dot
    assert 'n0 -> n4 [label="r0"]' in dot
    assert "in_r0" in dot and "t_r0" in dot
    assert "style=dashed" not in dot


def test_dot_is_deterministic():
    assert export_dot(synth_arbitrary(11)) == export_dot(synth_arbitrary(11))


SIMPLIFIED_D6_DOT = """digraph device {
  rankdir=LR;
  in_r0 [shape=point, xlabel="r0"];
  in_r1 [shape=point, xlabel="r1"];
  in_r2 [shape=point, xlabel="r2"];
  in_s0 [shape=point, xlabel="s0"];
  n0 [shape=box, label="LI_1"];
  n1 [shape=box, label="Holog-1"];
  n2 [shape=box, label="LI_2"];
  n3 [shape=box, label="Holog+2"];
  n4 [shape=box, label="LI_4"];
  n5 [shape=box, label="Holog-4"];
  n6 [shape=box, label="LI_4"];
  n7 [shape=box, label="LI_2"];
  n8 [shape=box, label="Holog+1"];
  t_r0 [shape=doublecircle, label="r0"];
  t_r1 [shape=doublecircle, label="r1"];
  t_r2 [shape=doublecircle, label="r2"];
  t_s0 [shape=doublecircle, label="s0"];
  in_r0 -> n0 [label="r0"];
  in_r1 -> n0 [label="r1"];
  in_r2 -> n4 [label="r2"];
  in_s0 -> n2 [label="s0"];
  n0 -> n8 [label="r0", style=dashed];
  n0 -> t_r1 [label="r1", style=dashed];
  n0 -> n0 [label="r0", style=dashed];
  n0 -> n1 [label="r1"];
  n1 -> n0 [label="r1", style=dashed];
  n1 -> n2 [label="r1"];
  n2 -> n4 [label="r1"];
  n2 -> n3 [label="s0"];
  n3 -> n7 [label="s0", style=dashed];
  n3 -> n6 [label="s0"];
  n4 -> n7 [label="r1"];
  n4 -> n5 [label="r2"];
  n5 -> n6 [label="r2"];
  n6 -> n3 [label="r2", style=dashed];
  n6 -> t_s0 [label="s0"];
  n7 -> n1 [label="r1", style=dashed];
  n7 -> t_r2 [label="r2"];
  n8 -> t_r0 [label="r0"];
}
"""


def test_dot_golden_folded_graph():
    # pins node, terminal and edge order and the dashed backward edges
    assert export_dot(simplify(synth_arbitrary(6))) == SIMPLIFIED_D6_DOT


def test_dot_folded_graph_has_back_edges():
    dot = export_dot(simplify(synth_arbitrary(11)))
    assert "style=dashed" in dot
    # at least one edge must point at an earlier (or the same) node
    backwards = [
        (int(a), int(b))
        for a, b in re.findall(r"\bn(\d+) -> n(\d+)", dot)
        if int(b) <= int(a)
    ]
    assert backwards


def test_dot_zplate_label():
    net = Netlist((ZPlate(R0, 4),), R0, R0, 4)
    assert 'label="Z_4"' in export_dot(net)


def test_dot_declares_each_terminal_an_entry_reaches():
    # an entry may lie on a terminal; one on ~0 reaches none and draws no edge
    r1 = r_path(1)
    graph = PortGraph(
        nodes=(Hologram(R0, 1),),
        wiring=(~1, ~0, ~0, ~0),
        entries={R0: 0, r1: ~2, s_path(0): ~0},
        terminals=(None, R0, r1),
        input_path=R0,
        output_path=R0,
        dimension=2,
    )
    dot = export_dot(graph)
    assert 't_r1 [shape=doublecircle, label="r1"];' in dot
    assert 'in_r1 -> t_r1 [label="r1"];' in dot
    assert 'in_s0 [shape=point, xlabel="s0"];' in dot
    assert "in_s0 ->" not in dot and "None" not in dot


def test_dot_draws_no_terminal_without_a_label():
    # a None terminal past index 0 is unwired to the engine, so it draws
    # no node and no edge, as UNWIRED does
    graph = PortGraph(
        nodes=(Hologram(R0, 1),),
        wiring=(~1, ~0, ~0, ~0),
        entries={R0: 0},
        terminals=(None, None),
        input_path=R0,
        output_path=R0,
        dimension=2,
    )
    assert export_dot(graph) == (
        "digraph device {\n"
        "  rankdir=LR;\n"
        '  in_r0 [shape=point, xlabel="r0"];\n'
        '  n0 [shape=box, label="Holog+1"];\n'
        '  in_r0 -> n0 [label="r0"];\n'
        "}\n"
    )


def test_dot_edge_labels_are_paths():
    dot = export_dot(synth_arbitrary(3))
    assert 'label="s0"' in dot and 'label="r1"' in dot


# --- state expressions ------------------------------------------------------------


def test_parse_state_single_ket():
    state = parse_state("|3>", R0)
    assert state.get((R0, 3)) == 1.0


def test_parse_state_with_coefficients():
    state = parse_state("0.6*|2> + 0.8i*|7>", R0)
    assert state.get((R0, 2)) == pytest.approx(0.6)
    assert state.get((R0, 7)) == pytest.approx(0.8j)


def test_parse_state_complex_and_negative():
    state = parse_state("(1+2j)*|0> - 0.5*|-4>", R0)
    assert state.get((R0, 0)) == pytest.approx(1 + 2j)
    assert state.get((R0, -4)) == pytest.approx(-0.5)


def test_parse_state_bare_imaginary_and_sign():
    state = parse_state("i*|1> + -|2>", R0)
    assert state.get((R0, 1)) == pytest.approx(1j)
    assert state.get((R0, 2)) == pytest.approx(-1)


def test_parse_state_duplicates_sum():
    state = parse_state("|1> + |1>", R0)
    assert state.get((R0, 1)) == 2.0


def test_parse_state_whitespace_and_no_star():
    state = parse_state("  0.5 |2>+0.5|0> ", R0)
    assert state.get((R0, 2)) == pytest.approx(0.5)
    assert state.get((R0, 0)) == pytest.approx(0.5)


@pytest.mark.parametrize(
    "bad", ["", "0.6*", "|1> trailing", "abc", "|1> |2>", "++|1>", "0.6&*|2>"]
)
def test_parse_state_rejects(bad):
    with pytest.raises(ParseError):
        parse_state(bad, R0)


def test_parse_state_reads_no_ket_past_the_digit_limit():
    limit = sys.get_int_max_str_digits()
    ket = "|" + "1" * (limit + 1) + ">"
    with pytest.raises(ParseError, match=f"^ket 2 has more than {limit} digits$"):
        parse_state("|0> + " + ket, R0)
    assert parse_state("|" + "1" * limit + ">", R0).keys() == {(R0, int("1" * limit))}


# --- formatting ----------------------------------------------------------------------


def test_format_amplitude():
    assert format_amplitude(1.0) == ""
    assert format_amplitude(-1.0) == "-"
    assert format_amplitude(0.6) == "0.6"
    assert format_amplitude(0.8j) == "0.8j"
    assert format_amplitude(0.6 + 0.8j) == "(0.6+0.8j)"
    assert format_amplitude(-0.5 - 0.5j) == "(-0.5-0.5j)"


def test_format_state_sorted():
    state = ModeVector({(s_path(0), 2): 1j, (R0, 5): 1.0, (R0, -1): -1.0})
    assert format_state(state).splitlines() == [
        "-|-1> @ r0",
        "|5> @ r0",
        "1j|2> @ s0",
    ]


# --- ints past the digit limit -------------------------------------------------------


#: one digit more than str() writes for an int, and the most it writes
HUGE = 10 ** sys.get_int_max_str_digits()
WIDEST = HUGE - 1


def test_writers_name_or_hex_an_int_past_the_digit_limit():
    # a document cannot hold the int for `parse` to read back, so serialize
    # refuses it by name; the DOT label writes it in hex
    r1, limit = r_path(1), sys.get_int_max_str_digits()
    huge = (OamBeamSplitter(HUGE, R0, r1), Hologram(r1, -HUGE), ZPlate(R0, HUGE))
    elements = (Hologram(R0, 1), *huge)
    for index, key in ((1, "m"), (2, "v"), (3, "d")):
        net = Netlist((elements[0], elements[index]), R0, R0, 2)
        with pytest.raises(ValueError, match=f"^element 1 key '{key}' has more than {limit} "):
            serialize(net)
    with pytest.raises(ValueError, match=f"^dimension has more than {limit} digits$"):
        serialize(Netlist(elements[:1], R0, R0, HUGE))
    dot = export_dot(Netlist(elements, R0, R0, 2))
    for label in ("Holog+1", f"LI_{HUGE:#x}", f"Holog-{HUGE:#x}", f"Z_{HUGE:#x}"):
        assert f'label="{label}"' in dot
    # the most digits str() writes are written, and read back, in decimal
    widest = Netlist((OamBeamSplitter(WIDEST, R0, r1), Hologram(r1, -WIDEST)), R0, R0, WIDEST)
    assert parse(serialize(widest)).netlist == widest
    assert f'label="LI_{WIDEST}"' in export_dot(widest)


def test_reprs_write_an_int_past_the_digit_limit_in_hex():
    # each repr names each field with its value's repr, byte for byte, with an
    # int past the digit limit in hex
    r0, r1 = repr(R0), repr(r_path(1))
    for n, text in ((3, "3"), (WIDEST, str(WIDEST)), (HUGE, f"{HUGE:#x}")):
        splitter = OamBeamSplitter(n, R0, r_path(1))
        assert repr(splitter) == f"OamBeamSplitter(m={text}, port_x={r0}, port_y={r1})"
        hologram = Hologram(R0, -n)
        assert repr(hologram) == f"Hologram(path={r0}, v=-{text})"
        assert repr(ZPlate(R0, n)) == f"ZPlate(path={r0}, d={text})"
        net = Netlist((splitter, hologram), R0, R0, n)
        fields = f"input_path={r0}, output_path={r0}, dimension={text}"
        assert repr(net) == f"Netlist(elements=({splitter!r}, {hologram!r}), {fields})"
        graph = netlist_to_portgraph(net)
        tables = f"wiring={graph.wiring!r}, entries={graph.entries!r}"
        assert repr(graph) == (
            f"PortGraph(nodes={graph.nodes!r}, {tables}, terminals={graph.terminals!r}, {fields})"
        )
        assert repr(ScalingRow(n, 1, 1, 1, 1, None)) == (
            f"ScalingRow(d={text}, n_arb_actual=1, n_arb_predicted=1, n_s=1, naive=1, bound=None)"
        )
    p = decompose(HUGE)  # its odd part, 5**limit, has fewer digits than the limit
    assert repr(p) == (
        f"SynthesisParams(d={HUGE:#x}, two_exp={p.two_exp}, odd={p.odd}, nbits={p.nbits},"
        f" bits={p.bits!r}, prev_one={p.prev_one!r})"
    )


def test_parse_reads_no_int_past_the_digit_limit():
    text = D3_DOC.replace('"dimension": 3', f'"dimension": 1{"0" * sys.get_int_max_str_digits()}')
    with pytest.raises(ParseError, match="^document not read: "):
        parse(text)
