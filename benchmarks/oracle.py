"""Independent oracle for the benchmark.

Nothing here imports oamcycle: devices are read as plain element tuples,
so a defect in the package's simulators cannot hide itself by being
copied into the check.

* `run_strict` is the integer router: a basis mode either lands on one
  (path, mode) or hits a splitter whose order does not divide it.
* `run_physical` propagates complex amplitudes with the splitter's exact
  2x2 transfer matrix: the OAM value is reduced mod 4m in integers first,
  so multiples of m give exact 0/+-1/+-i entries and no float dust.
* `increment`, `splitter_count` and `closed_cycles` state the paper's
  claims directly from d = 2^M * Q.
* `probability_ok` and `distance` compare physical states relative to
  the input norm, never against an absolute threshold.
"""

from __future__ import annotations

import cmath
import math

LI, HOLOG, ZPLATE = "LI", "HOLOG", "ZPLATE"


def element_tuples(elements) -> tuple:
    """Element objects or netlist-JSON dicts as ``(kind, k, path_a, path_b)``.

    ``k`` is the splitter order, the hologram charge or the plate
    dimension; ``path_b`` is None for single-path elements.
    """
    out = []
    for el in elements:
        if isinstance(el, dict):
            paths = el["paths"]
            kind = el["kind"]
            k = el["m"] if kind == LI else el["v"] if kind == HOLOG else el["d"]
            out.append((kind, k, paths[0], paths[1] if len(paths) > 1 else None))
        elif hasattr(el, "m"):
            out.append((LI, el.m, str(el.port_x), str(el.port_y)))
        elif hasattr(el, "v"):
            out.append((HOLOG, el.v, str(el.path), None))
        else:
            out.append((ZPLATE, el.d, str(el.path), None))
    return tuple(out)


def run_strict(elements: tuple, path: str, ell: int):
    """Route one basis mode; None when a splitter's order does not divide it."""
    for kind, k, a, b in elements:
        if kind == LI:
            if path == a or path == b:
                if ell % k:
                    return None
                if (ell // k) % 2:
                    path = b if path == a else a
        elif kind == HOLOG and path == a:
            ell += k
    return path, ell


def _half_angle(m: int, ell: int) -> tuple[float, float]:
    """(cos, sin) of pi*ell/(2m), exact at multiples of m."""
    r = ell % (4 * m)
    if r % m == 0:
        return ((1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0))[r // m]
    angle = math.pi * r / (2 * m)
    return math.cos(angle), math.sin(angle)


def run_physical(elements: tuple, state: dict) -> dict:
    """Propagate ``{(path, ell): amplitude}`` through the exact physical model."""
    for kind, k, a, b in elements:
        if kind == LI:
            out = {key: amp for key, amp in state.items() if key[0] != a and key[0] != b}
            for ell in {e for (p, e) in state if p == a or p == b}:
                c, s = _half_angle(k, ell)
                ax, ay = state.get((a, ell), 0j), state.get((b, ell), 0j)
                out[(a, ell)] = c * ax + 1j * s * ay
                out[(b, ell)] = 1j * s * ax + c * ay
            state = {key: amp for key, amp in out.items() if amp != 0}
        elif kind == HOLOG:
            state = {((p, e + k) if p == a else (p, e)): amp for (p, e), amp in state.items()}
        else:
            state = {
                (p, e): amp * cmath.exp(2j * math.pi * (e % k) / k) if p == a else amp
                for (p, e), amp in state.items()
            }
    return state


def increment(d: int, variant: str, shift: int = 0) -> dict[int, int]:
    """The gate's claimed permutation of its window: +1 mod d, or -1 for inverse."""
    step = -1 if variant == "inverse" else 1
    return {k: (k - shift + step) % d + shift for k in range(shift, shift + d)}


def splitter_count(d: int, variant: str) -> int:
    """2*(M + 2*floor(log2 Q)) splitters; folded: M + 2*floor(log2 Q) + 2.

    With Q = 1 there is no odd stage, so the folded device keeps only the
    M ladder splitters.
    """
    two_exp = (d & -d).bit_length() - 1
    odd_log = (d >> two_exp).bit_length() - 1
    if variant == "simplified":
        return two_exp + 2 * odd_log + 2 if odd_log else two_exp
    return 2 * (two_exp + 2 * odd_log)


def strict_map(elements: tuple, window, in_path: str, out_path: str) -> dict[int, int]:
    """Partial OAM map of the window: values that land as one mode on out_path."""
    mapping = {}
    for ell in window:
        hit = run_strict(elements, in_path, ell)
        if hit is not None and hit[0] == out_path:
            mapping[ell] = hit[1]
    return mapping


def closed_cycles(mapping: dict[int, int], d: int) -> list[tuple[int, ...]]:
    """Orbits of exactly d distinct values, smallest first, sorted."""
    cycles, members = [], set()
    for start in sorted(mapping):
        if start in members:
            continue
        orbit, cur = [start], mapping[start]
        while cur != start and cur in mapping and cur not in orbit and len(orbit) < d:
            orbit.append(cur)
            cur = mapping[cur]
        if cur == start and len(orbit) == d:
            members.update(orbit)
            cycles.append(tuple(orbit))
    return cycles


def norm2(state: dict) -> float:
    return sum(abs(a) ** 2 for a in state.values())


def probability_ok(state_in: dict, state_out: dict, rel_tol: float = 1e-9) -> bool:
    """Output probability equals input probability, relative to the input norm."""
    p_in = norm2(state_in)
    return abs(norm2(state_out) - p_in) <= rel_tol * p_in


def distance(a: dict, b: dict) -> float:
    """2-norm of a - b."""
    return math.sqrt(sum(abs(a.get(k, 0j) - b.get(k, 0j)) ** 2 for k in a.keys() | b.keys()))


def support(state: dict, rel: float = 1e-12) -> set:
    """Keys carrying more than ``rel`` of the state's norm."""
    floor = rel * math.sqrt(norm2(state))
    return {key for key, amp in state.items() if abs(amp) > floor}
