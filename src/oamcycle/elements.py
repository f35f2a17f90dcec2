"""Element semantics: beam-splitter routing and phase plates.

The OAM beam-splitter of order m sorts by the parity of ell/m: even
multiples of m exit on the port they entered, odd multiples cross over.
Two models of that behavior are provided.

* The strict router (`splitter_route_strict`) moves the whole amplitude
  to a single port and is defined only when ell is a multiple of m.  It
  is phase-free and exact.  The engines apply its rule on port slots,
  reading each splitter's order from the per-slot tables of
  `portgraph._tables`; the test reference and the benchmark tracer call
  it.
* The physical model (`splitter_amplitudes`; `splitter_unitary` as a 2x2
  matrix of rows) is the two-port interferometer with internal phase
  phi = pi*ell/m, defined for every ell.  At multiples of m it puts all
  probability, exactly, on the strict router's port, with an
  ell-dependent phase on top.

Every phase is an int ratio of a turn, turned into radians in one place,
`_angle`: a splitter's half phase phi/2 is (ell mod 4m)/(4m) of a turn
(at a multiple of m, an exact quarter turn that needs no angle), and a
plate's phase is (ell mod d)/d of a turn.  The conversion is finite at
any order and dimension, also past the float range.
"""

from __future__ import annotations

import cmath
import math

PORT_X = "x"
PORT_Y = "y"


class NonMultipleMode(Exception):
    """Strict routing met an OAM value not divisible by the order: args ``(ell, m)``."""

    def __init__(self, ell: int, m: int):
        super().__init__(ell, m)
        self.ell, self.m = ell, m

    def __str__(self) -> str:
        ell, m = _int_text(self.ell), _int_text(self.m)
        return f"OAM value {ell} is not a multiple of splitter order {m}"


def _int_text(n: int | None, spec: str = "") -> str:
    """``format(n, spec)`` for *spec* "" or "+d", in hex past the digit
    limit of int-to-decimal conversion, which hex does not have."""
    try:
        return format(n, spec)
    except ValueError:  # more digits than sys.get_int_max_str_digits()
        return format(n, spec.rstrip("d") + "#x")


def splitter_route_strict(m: int, input_port: str, ell: int) -> str:
    """Output port ('x' or 'y') for a basis mode entering an order-m splitter.

    Raises NonMultipleMode unless ell is a multiple of m.  The routing is
    an involution: applying it twice from the returned port restores the
    input port.
    """
    if input_port not in (PORT_X, PORT_Y):
        raise ValueError(f"input port must be 'x' or 'y', got {input_port!r}")
    if ell % m != 0:
        raise NonMultipleMode(ell, m)
    if (ell // m) % 2 == 0:
        return input_port
    return PORT_Y if input_port == PORT_X else PORT_X


#: below this denominator tau * float(n) stays finite: tau * 2**1021 < 2**1024
_FLOAT_SAFE = 2**1021


def _angle(n: int, den: int) -> float:
    """2*pi*n/den radians, for ints 0 <= n < den, finite at any size.

    Below `_FLOAT_SAFE` it is ``math.tau * n / den``.  From there on the
    int ratio is divided first, which Python rounds correctly at any size.
    """
    if den < _FLOAT_SAFE:
        return math.tau * n / den
    return math.tau * (n / den)


#: (stay, cross) at ell = 0, m, 2m, 3m (mod 4m)
_QUARTER_TURNS = ((1 + 0j, 0j), (0j, 1j), (-1 + 0j, 0j), (0j, -1j))


def splitter_amplitudes(m: int, ell: int) -> tuple[complex, complex]:
    """(stay, cross) amplitudes cos(phi/2), i*sin(phi/2), phi = pi*ell/m.

    ell is reduced mod 4m (the period in ell) in integers before any float
    arithmetic, so huge ell keep full precision and multiples of m give
    exactly 1, i, -1 or -i on one port and 0 on the other.  Elsewhere
    phi/2 is `_angle` of (ell mod 4m)/(4m), finite at any order.
    """
    if m < 1:
        raise ValueError(f"splitter order must be >= 1, got {m}")
    r = ell % (4 * m)
    turns, rest = divmod(r, m)
    if not rest:
        return _QUARTER_TURNS[turns]
    half = _angle(r, 4 * m)
    return complex(math.cos(half)), 1j * math.sin(half)


def splitter_unitary(m: int, ell: int) -> tuple[tuple[complex, complex], ...]:
    """Physical transfer matrix of an order-m splitter for OAM value ell, as
    rows ``((stay, cross), (cross, stay))`` in the basis (same port, other port)."""
    stay, cross = splitter_amplitudes(m, ell)
    return ((stay, cross), (cross, stay))


def z_phase(d: int, ell: int) -> complex:
    """Phase factor exp(2*pi*i*ell/d) of the dimension-d plate.

    The OAM value is reduced mod d before `_angle` turns (ell mod d)/d
    into radians, so the result is exactly period-d in ell (bit-identical,
    not merely close) and finite at any d.
    """
    if d < 2:
        raise ValueError(f"phase plate dimension must be >= 2, got {d}")
    return cmath.exp(1j * _angle(ell % d, d))
