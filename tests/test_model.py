"""Sparse states, path labels, netlist invariants, permutation extraction."""

import cmath
import copy
import math
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import oamcycle
from oamcycle.model import (
    Hologram,
    ModeVector,
    Netlist,
    OamBeamSplitter,
    PathLabel,
    ZPlate,
    ZeroState,
    equal_up_to_global_phase,
    extract_permutation,
    normalize,
    r_path,
    s_path,
)
from oamcycle.serialization import format_state

R0 = r_path(0)
R1 = r_path(1)
S0 = s_path(0)


# --- path labels ------------------------------------------------------------


@pytest.mark.parametrize("text", ["r0", "s0", "r12", "s7"])
def test_path_parse_roundtrip(text):
    assert str(PathLabel.parse(text)) == text


@pytest.mark.parametrize(
    "text", ["q0", "R0", "r-1", "r", "0", "", "r0x", "rr1", "r01", "s00", "r0\n"]
)
def test_path_parse_rejects(text):
    with pytest.raises(ValueError):
        PathLabel.parse(text)


def test_path_family_validation():
    with pytest.raises(ValueError):
        PathLabel("t", 0)
    with pytest.raises(ValueError):
        PathLabel("r", -1)
    for index in (True, 1.0):
        with pytest.raises(ValueError, match="path index"):
            PathLabel("r", index)


def test_paths_sort_r_before_s():
    assert sorted([S0, R1, R0]) == [R0, R1, S0]


@pytest.mark.parametrize("family, index", [("r", 0), ("s", 7), ("r", 2**70 + 1)])
def test_equal_labels_hash_alike_however_made(family, index):
    make = r_path if family == "r" else s_path
    label = PathLabel(family, index)
    made = [
        make(index),
        PathLabel.parse(f"{family}{index}"),
        copy.deepcopy(label),
        pickle.loads(pickle.dumps(label)),
    ]
    table, members = {label: "found"}, {label}
    for other in made:
        assert other == label and hash(other) == hash(label)
        assert table[other] == "found" and other in members
        assert {other: 1} == {label: 1}
    assert repr(label) == f"PathLabel(family={family!r}, index={index})"


def test_no_subclass_tuple_or_str_equals_a_label():
    class Sub(PathLabel):
        pass

    for other in (Sub("s", 7), ("s", 7), "s7"):
        assert S0 != other and s_path(7) != other and other != s_path(7)


#: a child process prints a pickled label and the hash of a str
PICKLE_A_LABEL = (
    "import pickle; from oamcycle.model import s_path; "
    "print(pickle.dumps(s_path(7)).hex(), hash('s7'))"
)


def test_a_label_pickled_under_another_hash_seed_finds_its_key():
    # the stored hash is restored as pickled, so a hash seeded per process
    # (any str hash) would be the child's, and miss this process's key
    src = str(Path(oamcycle.__file__).parents[1])
    table = {s_path(7): "found"}
    seeded_apart = 0
    for seed in ("1", "2"):  # one of the two, at least, is not this process's seed
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run([sys.executable, "-c", PICKLE_A_LABEL], env=env,
                              capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        data, str_hash = done.stdout.split()
        label = pickle.loads(bytes.fromhex(data))
        assert table[label] == "found" and label in set(table)
        seeded_apart += int(str_hash) != hash("s7")
    assert seeded_apart


def test_labels_and_states_write_an_int_past_the_digit_limit_in_hex():
    # one digit more than str() writes for an int is written in hex, and one
    # digit less in decimal, as str() writes it
    huge = 10 ** sys.get_int_max_str_digits()
    nines = "9" * sys.get_int_max_str_digits()
    assert str(r_path(huge)) == f"r{huge:#x}"
    assert repr(s_path(huge)) == f"PathLabel(family='s', index={huge:#x})"
    assert str(s_path(huge - 1)) == f"s{nines}"
    assert repr(r_path(huge - 1)) == f"PathLabel(family='r', index={nines})"
    assert repr(r_path(3)) == "PathLabel(family='r', index=3)"
    state = ModeVector({(R0, huge): 1, (R1, 1 - huge): -1, (r_path(huge), 5): 0.5j})
    assert repr(state) == (
        f"ModeVector[(1+0j)|{huge:#x}>@r0, (-1+0j)|-{nines}>@r1, (0+0.5j)|5>@r{huge:#x}]"
    )
    assert format_state(state) == f"|{huge:#x}> @ r0\n-|-{nines}> @ r1\n0.5j|5> @ r{huge:#x}"


# --- mode vectors -----------------------------------------------------------


def test_basis_state():
    state = ModeVector.basis(R0, 3)
    assert len(state) == 1
    assert state.get((R0, 3)) == 1.0
    assert state.norm() == 1.0


def test_duplicate_keys_sum():
    state = ModeVector([((R0, 1), 0.5), ((R0, 1), 0.25)])
    assert state.get((R0, 1)) == 0.75


def test_prune_drops_dust():
    state = ModeVector({(R0, 0): 1.0, (R0, 1): 1e-16})
    assert (R0, 1) not in state
    assert len(state) == 1


def test_exact_cancellation_prunes():
    state = ModeVector([((R0, 2), 1.0), ((R0, 2), -1.0)])
    assert not state


def test_add_sub_scale():
    a = ModeVector({(R0, 0): 1.0})
    b = ModeVector({(R0, 1): 1j})
    both = a + b
    assert both.get((R0, 0)) == 1.0 and both.get((R0, 1)) == 1j
    assert not (both - both)
    assert a.scaled(2j).get((R0, 0)) == 2j


def test_rejects_bad_keys_and_amplitudes():
    with pytest.raises(TypeError):
        ModeVector({("r0", 0): 1.0})

    class Sub(PathLabel):
        pass

    # a subclass prints as its label but equals none, so no device would route it
    with pytest.raises(TypeError, match="state key path must be PathLabel"):
        ModeVector({(Sub("r", 0), 1): 1.0})
    # bools and floats are not OAM values, not even integral ones
    for ell in (1.5, 1.0, True, "1", None):
        with pytest.raises(TypeError, match="OAM value must be int"):
            ModeVector({(R0, ell): 1.0})
    with pytest.raises(ValueError):
        ModeVector({(R0, 0): float("nan")})
    # an OAM value of one digit more than str() writes for an int is written in hex
    huge = 10 ** sys.get_int_max_str_digits()
    for ell in (huge, -huge):
        with pytest.raises(ValueError) as raised:
            ModeVector({(R0, ell): float("nan")})
        assert str(raised.value) == f"non-finite amplitude for r0|{ell:#x}>"


def test_normalize_examples():
    assert normalize(ModeVector({(R0, 1): 3.0})).get((R0, 1)) == 1.0
    state = normalize(ModeVector({(R0, 0): 3.0, (R0, 1): 4.0}))
    assert abs(state.get((R0, 0)) - 0.6) < 1e-15
    assert abs(state.get((R0, 1)) - 0.8) < 1e-15
    assert abs(state.norm() - 1.0) < 1e-15
    # a subnormal norm, whose reciprocal overflows
    assert normalize(ModeVector({(R0, 1): 1e-320})).get((R0, 1)) == 1.0


@pytest.mark.parametrize(
    "entries",
    [
        {(R0, 1): 1.7e308, (R0, 2): 1.7e308},
        {(R0, 1): 1.7e308 + 1.7e308j},
        [((R0, 1), 1.7e308), ((R0, 1), 1.7e308)],
        {(R0, 1): 10**400},
        {(R0, 1): 0.5, (R0, 2): -(10**400)},
    ],
    ids=["norm", "modulus", "sum", "int", "int-second"],
)
def test_state_norm_beyond_the_float_range_rejected(entries):
    # an infinite norm would make an infinite prune cut, dropping every entry
    with pytest.raises(ValueError, match="state norm is beyond the float range"):
        ModeVector(entries)


def test_normalize_zero_state_raises():
    with pytest.raises(ZeroState):
        normalize(ModeVector())


# --- global phase comparison -------------------------------------------------


def test_equal_up_to_global_phase_basic():
    a = ModeVector({(R0, 0): 0.6, (R0, 1): 0.8})
    assert equal_up_to_global_phase(a, a, 1e-12)
    rotated = a.scaled(cmath.exp(0.3j))
    assert equal_up_to_global_phase(a, rotated, 1e-12)
    assert not equal_up_to_global_phase(a, ModeVector.basis(R0, 0), 1e-10)
    assert not equal_up_to_global_phase(a, ModeVector.basis(R0, 2), 1e-10)


def test_equal_up_to_global_phase_relative_phase_differs():
    a = ModeVector({(R0, 0): 1.0, (R0, 1): 1.0})
    b = ModeVector({(R0, 0): 1.0, (R0, 1): -1.0})
    assert not equal_up_to_global_phase(a, b, 1e-10)


def test_equal_up_to_global_phase_empty_states():
    assert equal_up_to_global_phase(ModeVector(), ModeVector(), 1e-12)
    assert not equal_up_to_global_phase(ModeVector(), ModeVector.basis(R0, 0), 1e-12)


def test_equal_up_to_global_phase_tolerance_boundary():
    a = ModeVector({(R0, 0): 1.0})
    b = ModeVector({(R0, 0): 1.0, (R0, 1): 1e-6})
    assert equal_up_to_global_phase(a, b, 1e-5)
    assert not equal_up_to_global_phase(a, b, 1e-7)


@pytest.mark.parametrize("scale", [1e-200, 1e-20, 1.0, 1e6, 1e20, 1e200])
def test_equal_up_to_global_phase_is_scale_free(scale):
    a = ModeVector({(R0, 0): 0.6 * scale, (R0, 1): 0.8 * scale})
    assert equal_up_to_global_phase(a, a.scaled(cmath.exp(0.3j)))
    nudged = ModeVector({(R0, 0): 0.6 * scale * (1 + 1e-15), (R0, 1): 0.8 * scale})
    assert equal_up_to_global_phase(a, nudged)
    flipped = ModeVector({(R0, 0): 0.6 * scale, (R0, 1): -0.8 * scale})
    assert not equal_up_to_global_phase(a, flipped)
    # disjoint supports are never equal, however small the amplitudes
    zero, one = ModeVector.basis(R0, 0).scaled(scale), ModeVector.basis(R0, 1).scaled(scale)
    assert not equal_up_to_global_phase(zero, one)


def test_equal_up_to_global_phase_when_the_amplitude_ratio_overflows():
    # 1 / 1e-313 is not a float; the states still compare, both ways round
    big = ModeVector.basis(R0, 0)
    tiny = big.scaled(1e-313)
    assert not equal_up_to_global_phase(big, tiny)
    assert not equal_up_to_global_phase(tiny, big)


def test_equal_up_to_global_phase_near_the_top_of_the_float_range():
    # a - b here holds 1.6e308, and the difference of the states has a norm
    # beyond the float range; the residual is taken of the scaled states
    a = ModeVector({(R0, 1): 1e308, (R0, 2): 0.8e308, (R0, 3): 0.8e308})
    b = ModeVector({(R0, 1): 1e308, (R0, 2): -0.8e308, (R0, 3): -0.8e308})
    assert not equal_up_to_global_phase(a, b)
    assert not equal_up_to_global_phase(b, a)
    assert equal_up_to_global_phase(a, a.scaled(-1.0))
    small = a.scaled(1e-300)
    assert not equal_up_to_global_phase(small, b.scaled(1e-300))
    assert equal_up_to_global_phase(small, small.scaled(1j))


_paths = st.builds(PathLabel, st.sampled_from("rs"), st.integers(0, 3))
_amps = st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False)
_states = st.dictionaries(
    st.tuples(_paths, st.integers(-20, 20)), _amps, min_size=1, max_size=6
).map(ModeVector)


@given(_states, st.floats(0, 2 * math.pi))
def test_phase_rotation_is_always_equal(state, theta):
    rotated = state.scaled(cmath.exp(1j * theta))
    assert equal_up_to_global_phase(state, rotated, 1e-9)
    assert equal_up_to_global_phase(rotated, state, 1e-9)


@given(_states, _states)
def test_equality_is_symmetric(a, b):
    assert equal_up_to_global_phase(a, b, 1e-9) == equal_up_to_global_phase(b, a, 1e-9)


# --- permutation extraction ---------------------------------------------------


def _remap(fn):
    return lambda state: ModeVector({(p, fn(ell)): amp for (p, ell), amp in state.items()})


def test_extract_permutation_total():
    mapping = extract_permutation(_remap(lambda e: (e + 1) % 5), range(5), R0, R0)
    assert mapping == {0: 1, 1: 2, 2: 3, 3: 4, 4: 0}


def test_extract_permutation_skips_splitting():
    def split(state):
        out = {}
        for (p, ell), amp in state.items():
            if ell == 1:
                out[(p, 10)] = amp / math.sqrt(2)
                out[(p, 11)] = amp / math.sqrt(2)
            else:
                out[(p, ell)] = amp
        return ModeVector(out)

    mapping = extract_permutation(split, range(3), R0, R0)
    assert mapping == {0: 0, 2: 2}


def test_extract_permutation_skips_wrong_path():
    def leak(state):
        return ModeVector({(S0, ell): amp for (p, ell), amp in state.items()})

    assert extract_permutation(leak, range(3), R0, R0) == {}


def test_extract_permutation_skips_lossy():
    lossy = lambda state: state.scaled(0.5)
    assert extract_permutation(lossy, range(2), R0, R0) == {}


def test_extract_permutation_swallows_routing_errors():
    from oamcycle.elements import NonMultipleMode

    def picky(state):
        ((_, ell),) = state.keys()
        if ell % 2:
            raise NonMultipleMode(ell, 2)
        return state

    assert extract_permutation(picky, range(4), R0, R0) == {0: 0, 2: 2}


# --- elements and netlists ----------------------------------------------------


def test_element_validation():
    with pytest.raises(ValueError):
        OamBeamSplitter(0, R0, R1)
    with pytest.raises(ValueError):
        OamBeamSplitter(2, R0, R0)
    with pytest.raises(ValueError):
        ZPlate(R0, 1)
    assert Hologram(R0, -3).v == -3
    # the engines do integer arithmetic on these and trust the result
    for charge in (1.0, 2.5, "1", True, None):
        with pytest.raises(ValueError, match="hologram charge"):
            Hologram(R0, charge)
    for order in (1.5, 2.0, "2", True, None):
        with pytest.raises(ValueError, match="splitter order"):
            OamBeamSplitter(order, R0, R1)
    for d in (2.5, 3.0, "3", True, None):
        with pytest.raises(ValueError, match="phase plate dimension"):
            ZPlate(R0, d)
    # the engines hash and compare path labels, and neither a string nor a
    # subclass instance ever equals a PathLabel
    for path in ("r0", None, ("r", 0), type("Label", (PathLabel,), {})("r", 0)):
        for ports in ((R0, path), (path, R0)):
            with pytest.raises(ValueError, match="splitter port must be PathLabel"):
                OamBeamSplitter(2, *ports)
        with pytest.raises(ValueError, match="hologram path must be PathLabel"):
            Hologram(path, 1)
        with pytest.raises(ValueError, match="phase plate path must be PathLabel"):
            ZPlate(path, 2)
        # the element-less identity reads no element paths, so it checks its own
        for io in ((path, path), (R0, path), (path, R0)):
            with pytest.raises(ValueError, match="input and output path must be PathLabel"):
                Netlist((), *io, 1)
        with pytest.raises(ValueError, match="input and output path must be PathLabel"):
            Netlist((Hologram(R0, 1),), R0, path, 2)


def test_netlist_identity():
    net = Netlist.identity()
    assert net.dimension == 1
    assert net.elements == ()
    assert net.input_path == net.output_path == R0


def test_netlist_requires_connected_io():
    elements = (Hologram(R0, 1),)
    Netlist(elements, R0, R0, 2)
    with pytest.raises(ValueError):
        Netlist(elements, R1, R0, 2)
    with pytest.raises(ValueError):
        Netlist(elements, R0, S0, 2)


def test_netlist_rejects_bad_dimension():
    with pytest.raises(ValueError):
        Netlist((), R0, R0, 0)
    for d in (2.5, 2.0, "2", True, None):
        with pytest.raises(ValueError, match="dimension must be an int"):
            Netlist((Hologram(R0, 1),), R0, R0, d)


def test_an_empty_netlist_is_the_identity():
    for dimension, output in ((5, R0), (1, R1), (5, R1)):
        with pytest.raises(ValueError, match="no elements is the d=1 identity"):
            Netlist((), R0, output, dimension)
    assert Netlist((), R1, R1, 1).paths() == set()


def test_netlist_paths():
    net = Netlist((OamBeamSplitter(1, R0, S0), Hologram(S0, 1)), R0, S0, 2)
    assert net.paths() == {R0, S0}
