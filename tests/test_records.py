"""The value behaviour of the package's record classes: equality, hashing,
ordering, immutability, copies and reprs, one table for all thirteen."""

import copy
import pickle

import pytest

from oamcycle.analysis import CycleSet, verify_gate
from oamcycle.model import Hologram, Netlist, OamBeamSplitter, PathLabel, ZPlate, r_path, s_path
from oamcycle.portgraph import PortGraph
from oamcycle.serialization import NetlistDocument
from oamcycle.simulation import SimulationConfig, _graph, _Window
from oamcycle.synthesis import ScalingRow, decompose, synth_arbitrary

R0, R1 = r_path(0), r_path(1)

#: the repr of r0, which most of the reprs below hold
r0 = "PathLabel(family='r', index=0)"


def one_hologram(v=1):
    return Netlist((Hologram(R0, v),), R0, R0, 2)


def graph(wiring=(~1, ~0, ~0, ~0)):
    return PortGraph((Hologram(R0, 1),), wiring, {R0: 0}, (None, R0), R0, R0, 2)


GRAPH = (
    f"PortGraph(nodes=(Hologram(path={r0}, v=1),), wiring=(-2, -1, -1, -1),"
    f" entries={{{r0}: 0}}, terminals=(None, {r0}), input_path={r0}, output_path={r0},"
    " dimension=2)"
)
NETLIST = (
    f"Netlist(elements=(Hologram(path={r0}, v=1),), input_path={r0}, output_path={r0},"
    " dimension=2)"
)

#: ``(make, other, field, repr)``: *make* builds a new record each call, all
#: of them equal, *other* one unequal to them, *field* names a field, and
#: *repr* is the repr of what *make* builds
RECORDS = {
    "PathLabel": (lambda: PathLabel("s", 12), lambda: PathLabel("r", 12), "index",
                  "PathLabel(family='s', index=12)"),
    "OamBeamSplitter": (
        lambda: OamBeamSplitter(4, R0, s_path(1)), lambda: OamBeamSplitter(4, s_path(1), R0),
        "m", f"OamBeamSplitter(m=4, port_x={r0}, port_y=PathLabel(family='s', index=1))"),
    "Hologram": (lambda: Hologram(R1, -3), lambda: Hologram(R1, 3), "v",
                 "Hologram(path=PathLabel(family='r', index=1), v=-3)"),
    "ZPlate": (lambda: ZPlate(R0, 5), lambda: ZPlate(R1, 5), "d", f"ZPlate(path={r0}, d=5)"),
    "Netlist": (one_hologram, lambda: one_hologram(2), "elements", NETLIST),
    "PortGraph": (graph, lambda: graph((~1, ~0, ~1, ~0)), "wiring", GRAPH),
    "SynthesisParams": (
        lambda: decompose(12), lambda: decompose(24), "odd",
        "SynthesisParams(d=12, two_exp=2, odd=3, nbits=2, bits=(1, 1), prev_one=(0, 0))"),
    "ScalingRow": (
        lambda: ScalingRow(3, 4, 4, 4, 4, 4.0), lambda: ScalingRow(3, 4, 4, 4, 4, None), "bound",
        "ScalingRow(d=3, n_arb_actual=4, n_arb_predicted=4, n_s=4, naive=4, bound=4.0)"),
    "NetlistDocument": (
        lambda: NetlistDocument(one_hologram(), "inverse"), lambda: NetlistDocument(one_hologram()),
        "variant", f"NetlistDocument(netlist={NETLIST}, variant='inverse')"),
    "SimulationConfig": (lambda: SimulationConfig("physical"), SimulationConfig, "mode",
                         "SimulationConfig(mode='physical')"),
    "_Window": (
        lambda: _Window.routed(one_hologram(), 0, 1), lambda: _Window.routed(one_hologram(), 0, 2),
        "lo", f"_Window(graph={GRAPH}, lo=0, hi=1, pieces=[(0, 1, 1, {r0})], dropped=[],"
              " failure=None)"),
    "VerificationReport": (
        lambda: verify_gate(3, "inverse", -1), lambda: verify_gate(3, "inverse", 0), "mapping",
        "VerificationReport(d=3, variant='inverse', shift=-1, permutation_ok=True,"
        " mapping={-1: 1, 0: -1, 1: 0}, count_actual=4, count_predicted=4, bound=4.0,"
        " violations=())"),
    "CycleSet": (lambda: CycleSet((-2, 0, 5)), lambda: CycleSet((0, 5, -2)), "modes",
                 "CycleSet(modes=(-2, 0, 5))"),
}

#: the records holding a dict, a list or a map, which are unhashable
UNHASHABLE = {"PortGraph", "_Window", "VerificationReport"}


@pytest.mark.parametrize("name", RECORDS)
def test_a_record_is_a_frozen_value(name):
    make, other, field, text = RECORDS[name]
    record, twin, unlike = make(), make(), other()
    assert type(record).__name__ == name and record is not twin
    assert record == twin and not record != twin
    assert record != unlike and not record == unlike
    assert record != (record,) and record != text
    if name in UNHASHABLE:
        with pytest.raises(TypeError, match="unhashable"):
            hash(record)
    else:
        assert hash(record) == hash(twin)
        assert {record: 1}[twin] == 1
    assert repr(record) == text
    with pytest.raises(AttributeError, match=f"^cannot assign to field '{field}'$"):
        setattr(record, field, 1)
    with pytest.raises(AttributeError, match=f"^cannot delete field '{field}'$"):
        delattr(record, field)
    assert record == twin and repr(record) == text
    for copied in (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)):
        assert type(copied) is type(record) and copied == record and repr(copied) == text


@pytest.mark.parametrize("name", RECORDS)
def test_a_record_takes_no_new_attribute(name):
    # a frozen dataclass with slots, as `_Window` was, raised TypeError here
    record = RECORDS[name][0]()
    with pytest.raises(AttributeError, match="^cannot assign to field 'extra'$"):
        record.extra = 1
    with pytest.raises(AttributeError, match="^cannot delete field 'extra'$"):
        del record.extra


def test_labels_are_ordered_by_family_then_index():
    labels = [s_path(0), r_path(10), s_path(2), r_path(2), r_path(1)]
    assert sorted(labels) == [r_path(1), r_path(2), r_path(10), s_path(0), s_path(2)]
    assert R0 < R1 <= R1 <= r_path(1) and s_path(0) > r_path(9) >= r_path(9)
    assert not R1 < R0 and not R1 <= R0 and not R0 > R1 and not R0 >= R1
    for compare in (lambda a, b: a < b, lambda a, b: a <= b, lambda a, b: a > b,
                    lambda a, b: a >= b):
        with pytest.raises(TypeError):
            compare(R0, ("r", 0))
    # the other records have no order
    with pytest.raises(TypeError):
        Hologram(R0, 1) < Hologram(R0, 2)


def test_a_copied_label_keeps_its_stored_hash():
    # the hash is restored from the label's state, not computed again
    label = PathLabel("s", 3)
    object.__setattr__(label, "_hash", 12345)
    for copied in (pickle.loads(pickle.dumps(label)), copy.copy(label), copy.deepcopy(label)):
        assert hash(copied) == 12345 and copied == label


def test_a_cache_is_no_field():
    # a netlist keeps its port graph and its mirror pairs beside its fields
    cached, plain = synth_arbitrary(5), synth_arbitrary(5)
    _graph(cached)
    assert "_portgraph" in vars(cached) and cached == plain and hash(cached) == hash(plain)
    bare = Netlist(cached.elements, R0, R0, 5)
    assert "_mirror_pairs" not in vars(bare) and bare == cached and repr(bare) == repr(cached)
