"""Reference interpreter for netlists, independent of the packet engine.

It walks the element sequence and transforms the whole state at each
element, pruning and checking the norm after every step, both relative
to the input norm.  This is a different propagation scheme from the
port-graph packet loop of `oamcycle.simulation`, so the tests can
cross-check the engine against it; it shares only the element functions
(`splitter_route_strict`, `splitter_unitary`, `z_phase`) and the norm
tolerance.
"""

import math

from oamcycle.elements import splitter_route_strict, splitter_unitary, z_phase
from oamcycle.model import PRUNE_THRESHOLD, Hologram, ModeVector, OamBeamSplitter, ZPlate
from oamcycle.simulation import NORM_TOLERANCE, STRICT, NormDrift


def _splitter_step(el, entries, mode):
    out = {}
    if mode == STRICT:
        for (path, ell), amp in entries.items():
            if path == el.port_x or path == el.port_y:
                side = "x" if path == el.port_x else "y"
                dest = el.port_x if splitter_route_strict(el.m, side, ell) == "x" else el.port_y
                out[(dest, ell)] = out.get((dest, ell), 0j) + amp
            else:
                out[(path, ell)] = out.get((path, ell), 0j) + amp
        return out
    touched = set()
    for (path, ell), amp in entries.items():
        if path == el.port_x or path == el.port_y:
            touched.add(ell)
        else:
            out[(path, ell)] = out.get((path, ell), 0j) + amp
    for ell in touched:
        u = splitter_unitary(el.m, ell)
        ax = entries.get((el.port_x, ell), 0j)
        ay = entries.get((el.port_y, ell), 0j)
        out[(el.port_x, ell)] = u[0][0] * ax + u[1][0] * ay
        out[(el.port_y, ell)] = u[1][0] * ax + u[0][0] * ay
    return out


def reference_apply_netlist(netlist, state, config):
    """Propagate *state* element by element; output rescaled to the input norm."""
    norm_in = state.norm()
    cut = PRUNE_THRESHOLD * norm_in
    entries = dict(state.items())
    for el in netlist.elements:
        if isinstance(el, OamBeamSplitter):
            entries = _splitter_step(el, entries, config.mode)
        elif isinstance(el, Hologram):
            stepped = {}
            for (path, ell), amp in entries.items():
                key = (path, ell + el.v) if path == el.path else (path, ell)
                stepped[key] = stepped.get(key, 0j) + amp
            entries = stepped
        elif isinstance(el, ZPlate):
            entries = {
                (path, ell): amp * z_phase(el.d, ell) if path == el.path else amp
                for (path, ell), amp in entries.items()
            }
        else:
            raise TypeError(f"unknown element {el!r}")
        entries = {k: v for k, v in entries.items() if abs(v) > cut}
        norm_now = math.hypot(*[abs(a) for a in entries.values()])
        if abs(norm_now - norm_in) > NORM_TOLERANCE * norm_in:
            raise NormDrift(f"norm moved from {norm_in!r} to {norm_now!r} at element {el!r}")
    result = ModeVector(entries)
    if result and norm_in > 0.0:
        result = result.scaled(norm_in / result.norm())
    return result
