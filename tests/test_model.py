"""Sparse states, path labels, netlist invariants, permutation extraction."""

import cmath
import math

import pytest
from hypothesis import given, strategies as st

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

R0 = r_path(0)
R1 = r_path(1)
S0 = s_path(0)


# --- path labels ------------------------------------------------------------


@pytest.mark.parametrize("text", ["r0", "s0", "r12", "s7"])
def test_path_parse_roundtrip(text):
    assert str(PathLabel.parse(text)) == text


@pytest.mark.parametrize("text", ["q0", "R0", "r-1", "r", "0", "", "r0x", "rr1"])
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
    with pytest.raises(TypeError):
        ModeVector({(R0, 1.5): 1.0})
    with pytest.raises(ValueError):
        ModeVector({(R0, 0): float("nan")})


def test_normalize_examples():
    assert normalize(ModeVector({(R0, 1): 3.0})).get((R0, 1)) == 1.0
    state = normalize(ModeVector({(R0, 0): 3.0, (R0, 1): 4.0}))
    assert abs(state.get((R0, 0)) - 0.6) < 1e-15
    assert abs(state.get((R0, 1)) - 0.8) < 1e-15
    assert abs(state.norm() - 1.0) < 1e-15


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


def test_netlist_paths():
    net = Netlist((OamBeamSplitter(1, R0, S0), Hologram(S0, 1)), R0, S0, 2)
    assert net.paths() == {R0, S0}
