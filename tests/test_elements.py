"""Splitter routing (strict and physical), holograms, phase plates."""

import cmath
import math
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from oamcycle.elements import (
    NonMultipleMode,
    splitter_amplitudes,
    splitter_route_strict,
    splitter_unitary,
    z_phase,
)
from oamcycle.model import Hologram, ModeVector, Netlist, r_path
from oamcycle.simulation import apply_netlist


def _route_oracle(m, port, ell):
    # independent statement of the sorting rule: write ell = q*m and sort by
    # the parity of q, counting q explicitly instead of dividing
    q = 0
    while q * m < abs(ell):
        q += 1
    assert q * m == abs(ell)
    even = q % 2 == 0
    if even:
        return port
    return "y" if port == "x" else "x"


@pytest.mark.parametrize("m", [1, 2, 4, 8])
@pytest.mark.parametrize("port", ["x", "y"])
def test_strict_routing_matches_parity_table(m, port):
    for ell in range(-32, 33):
        if ell % m:
            with pytest.raises(NonMultipleMode):
                splitter_route_strict(m, port, ell)
        else:
            assert splitter_route_strict(m, port, ell) == _route_oracle(m, port, ell)


def test_strict_routing_examples():
    assert splitter_route_strict(1, "x", 0) == "x"
    assert splitter_route_strict(1, "x", 1) == "y"
    assert splitter_route_strict(1, "y", 1) == "x"
    assert splitter_route_strict(8, "y", 8) == "x"
    assert splitter_route_strict(8, "y", 16) == "y"
    assert splitter_route_strict(2, "y", -2) == "x"
    assert splitter_route_strict(2, "x", -4) == "x"


def test_strict_routing_rejects_bad_port():
    with pytest.raises(ValueError):
        splitter_route_strict(1, "z", 0)


def test_non_multiple_error_carries_context():
    with pytest.raises(NonMultipleMode) as err:
        splitter_route_strict(4, "x", 6)
    assert err.value.ell == 6 and err.value.m == 4
    # its args are (ell, m), so it pickles, and its message is written when read
    copy = pickle.loads(pickle.dumps(NonMultipleMode(5, 3)))
    assert (copy.args, copy.ell, copy.m) == ((5, 3), 5, 3)
    assert str(copy) == "OAM value 5 is not a multiple of splitter order 3"
    # one digit more than str() writes for an int: building it formats nothing
    huge = 10 ** sys.get_int_max_str_digits()
    assert NonMultipleMode(huge, 3).args == (huge, 3)
    # reading it writes such a value in hex, and one digit less in decimal
    nines = "9" * sys.get_int_max_str_digits()
    for error, ell, m in (
        (NonMultipleMode(huge, 3), f"{huge:#x}", "3"),
        (NonMultipleMode(-huge, huge), f"{-huge:#x}", f"{huge:#x}"),
        (NonMultipleMode(1 - huge, 2), f"-{nines}", "2"),
    ):
        assert str(error) == f"OAM value {ell} is not a multiple of splitter order {m}"


@given(st.integers(1, 1024), st.integers(-16, 16), st.sampled_from(["x", "y"]))
def test_strict_routing_is_an_involution(m, k, port):
    ell = k * m
    once = splitter_route_strict(m, port, ell)
    assert splitter_route_strict(m, once, ell) == port


# --- physical model -----------------------------------------------------------


@given(st.integers(1, 1024), st.integers(-2048, 2048))
def test_physical_model_is_unitary(m, ell):
    u = np.array(splitter_unitary(m, ell))
    assert np.allclose(u @ u.conj().T, np.eye(2), atol=1e-12)


def test_physical_phase_value():
    # phi = pi*6/4 = 3pi/2: stay cos(3pi/4), cross i*sin(3pi/4)
    (stay, cross), (cross_back, stay_back) = splitter_unitary(4, 6)
    assert stay == pytest.approx(-math.sqrt(0.5), abs=1e-15)
    assert cross == pytest.approx(1j * math.sqrt(0.5), abs=1e-15)
    assert (cross_back, stay_back) == (cross, stay)


def test_physical_even_multiple_stays():
    for m, k in [(1, 0), (2, 2), (8, -4), (16, 6)]:
        u = np.array(splitter_unitary(m, 2 * k * m))
        assert abs(abs(u[0, 0]) - 1.0) < 1e-12
        assert abs(u[1, 0]) < 1e-12


def test_physical_odd_multiple_crosses():
    for m, k in [(1, 0), (2, 1), (8, -2), (16, 3)]:
        u = np.array(splitter_unitary(m, (2 * k + 1) * m))
        assert abs(abs(u[1, 0]) - 1.0) < 1e-12
        assert abs(u[0, 0]) < 1e-12


def test_physical_half_multiple_splits_evenly():
    u = np.array(splitter_unitary(8, 4))  # phase pi/2: a 50/50 split
    assert abs(u[0, 0]) == pytest.approx(math.sqrt(0.5), abs=1e-12)
    assert abs(u[1, 0]) == pytest.approx(math.sqrt(0.5), abs=1e-12)


def test_physical_rejects_bad_order():
    with pytest.raises(ValueError):
        splitter_unitary(0, 1)


@pytest.mark.parametrize("m", [2**t for t in range(11)])
def test_models_agree_on_multiples(m):
    # the strict router's port carries all probability in the physical
    # model, exactly: 1, i, -1, -i on that port and 0 on the other
    for k in range(-8, 9):
        ell = k * m
        u = np.array(splitter_unitary(m, ell))
        quarter = (1, 1j, -1, -1j)[k % 4]
        if splitter_route_strict(m, "x", ell) == "x":
            assert (u[0, 0], u[1, 0]) == (quarter, 0)
        else:
            assert (u[0, 0], u[1, 0]) == (0, quarter)
        assert splitter_amplitudes(m, ell) == (u[0, 0], u[1, 0])


def test_amplitudes_keep_precision_for_huge_modes():
    # float(ell) would round 2**60 + 1 to 2**60; the integer reduction does not
    assert splitter_amplitudes(1, 2**60 + 1) == (0, 1j)
    assert splitter_amplitudes(4, 10**17 + 2) == splitter_amplitudes(4, 2)
    assert splitter_amplitudes(3, -12 * 10**17 - 1) == splitter_amplitudes(3, -1)


def test_import_does_not_load_numpy():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    probe = "import sys, oamcycle; print('numpy' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


# --- holograms and phase plates ------------------------------------------------


def test_hologram_shift():
    r0 = r_path(0)
    for v, ell, shifted in ((3, 4, 7), (-8, 0, -8), (0, 5, 5)):
        out = apply_netlist(Netlist((Hologram(r0, v),), r0, r0, 2), ModeVector.basis(r0, ell))
        assert dict(out.items()) == {(r0, shifted): 1}


def test_z_phase_values():
    assert z_phase(4, 0) == 1.0
    assert abs(z_phase(4, 1) - 1j) < 1e-15
    assert abs(z_phase(2, 1) + 1.0) < 1e-15
    assert abs(z_phase(3, 1) - cmath.exp(2j * math.pi / 3)) < 1e-15


def test_z_phase_is_exactly_periodic():
    for d in (2, 3, 7, 16):
        for ell in range(-2 * d, 2 * d):
            assert z_phase(d, ell + d) == z_phase(d, ell)


def test_z_phase_roots_sum_to_zero():
    for d in (2, 3, 5, 8):
        assert abs(sum(z_phase(d, ell) for ell in range(d))) < 1e-12


def test_z_phase_rejects_small_dimension():
    with pytest.raises(ValueError):
        z_phase(1, 0)


# --- phases as int ratios of a turn ---------------------------------------------


def _bits(lo, hi):
    """Ints of lo..hi bits, every size alike."""
    return st.integers(lo, hi).flatmap(lambda b: st.integers(2 ** (b - 1), 2**b - 1))


ANY_ELL = st.one_of(st.integers(), st.integers(-(2**1600), 2**1600))


def _hexes(*amps):
    return [part.hex() for amp in amps for part in (amp.real, amp.imag)]


@given(_bits(1, 1000), ANY_ELL)
def test_splitter_phase_is_pi_r_over_2m_bit_for_bit_below_2_1000(m, ell):
    # below 2**1021 `_angle` rounds the half phase as pi * r / (2m) does
    r = ell % (4 * m)
    if r % m:
        half = math.pi * r / (2 * m)
        want = (complex(math.cos(half)), 1j * math.sin(half))
        assert _hexes(*splitter_amplitudes(m, ell)) == _hexes(*want)


@given(_bits(2, 1000), ANY_ELL)
def test_z_phase_is_2_pi_i_ell_over_d_bit_for_bit_below_2_1000(d, ell):
    # below 2**1021 `_angle` rounds the plate phase as this expression does
    want = cmath.exp(2j * math.pi * (ell % d) / d)
    assert _hexes(z_phase(d, ell)) == _hexes(want)


def _turn(n, den):
    """2*pi*n/den radians from the exact fraction, rounded once."""
    return math.tau * float(Fraction(n, den))


# from 2**1021 on, tau * float(n) for n < d may be past the float range
PAST_THE_FLOATS = st.one_of(st.just(10**400), _bits(1022, 1500))


@given(PAST_THE_FLOATS, ANY_ELL)
def test_splitter_phase_is_finite_past_the_float_range(m, ell):
    stay, cross = splitter_amplitudes(m, ell)
    half = _turn(ell % (4 * m), 4 * m)
    assert cmath.isfinite(stay) and cmath.isfinite(cross)
    assert abs(stay - math.cos(half)) <= 1e-15
    assert abs(cross - 1j * math.sin(half)) <= 1e-15


@given(PAST_THE_FLOATS, ANY_ELL)
def test_z_phase_is_finite_past_the_float_range(d, ell):
    phase = z_phase(d, ell)
    angle = _turn(ell % d, d)
    assert cmath.isfinite(phase)
    assert abs(phase.real - math.cos(angle)) <= 1e-15
    assert abs(phase.imag - math.sin(angle)) <= 1e-15


@given(_bits(1, 1100), ANY_ELL)
@example(10**400, 1)
@example(2**1100 - 1, 2**1098)
def test_a_splitter_never_blocks_both_ports(m, ell):
    # the walk has no branch for a splitter with no port: a multiple gives one
    # quarter turn, elsewhere cos(phi/2) is never exactly 0, and sin(phi/2) is
    # 0 only where the angle underflows, and then cos(phi/2) is 1
    stay, cross = splitter_amplitudes(m, ell)
    assert (stay, cross) != (0, 0)
    assert cross or abs(stay) == 1


def test_phases_past_the_float_range_examples():
    m = 10**400
    assert splitter_amplitudes(m, m // 2) == splitter_amplitudes(8, 4)  # phi = pi/2
    assert splitter_amplitudes(m, 3 * m) == (0j, -1j)
    assert splitter_amplitudes(m, 1) == (1 + 0j, 0j)  # phi/2 underflows to 0
    assert abs(z_phase(m, m // 4) - 1j) < 1e-15
    assert abs(z_phase(m, -m // 2) + 1) < 1e-15
