"""Domain model: paths, sparse mode states, optical elements, netlists.

A photonic state lives on named paths and carries an integer orbital
angular momentum (OAM) value per component.  States are sparse maps
``(path, oam) -> complex amplitude``; netlists are ordered element
sequences with a designated input and output path.  Everything here is
immutable: transformations return new objects.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass, field, fields
from typing import Callable, Iterable, Iterator, Mapping, Union, get_args

from .elements import NonMultipleMode, _int_text

#: amplitudes at or below this fraction of their state's norm are dropped
PRUNE_THRESHOLD = 1e-15

#: tolerance on |amplitude| - 1 when reading a permutation off a state
PERMUTATION_AMPLITUDE_TOL = 1e-9

#: most OAM values read one by one: the window of ``oamcycle cycles``, the
#: dimensions ``oamcycle scaling`` synthesizes, and a `verify_gate` window
#: read value by value or printed as a dict
MAX_WINDOW = 2**20

#: one spelling per label: no sign, no leading zero, nothing after the digits
_PATH_RE = re.compile(r"([rs])(0|[1-9][0-9]*)")


def _is_int(value) -> bool:
    """True for an int that is not a bool: the engines do integer arithmetic
    on element parameters and trust the result."""
    return isinstance(value, int) and not isinstance(value, bool)


def _checked(ell: int) -> int:
    """*ell*, if it is an OAM value: an int, and no bool."""
    if type(ell) is not int and not _is_int(ell):
        raise TypeError(f"OAM value must be int, got {ell!r}")
    return ell


def _dataclass_repr(self) -> str:
    """The dataclass repr of *self*, with `_int_text` writing each int field, in hex
    past the digit limit; a dataclass keeps it as the ``__repr__`` its body sets."""
    values = ((f.name, getattr(self, f.name)) for f in fields(self) if f.repr)
    text = (f"{k}={_int_text(v) if type(v) is int else repr(v)}" for k, v in values)
    return f"{type(self).__qualname__}({', '.join(text)})"


class ZeroState(Exception):
    """Normalization was asked of a state with no support."""


@dataclass(frozen=True, order=True)
class PathLabel:
    """A beam path: family ``r`` (main rail) or ``s`` (side rail) plus index.

    The hash is computed once, when the label is built, from ints only
    (the index, and the family as 0/1), and stored.  A pickled or copied
    label restores it from its stored state, which is valid in any
    process, since no ``str`` hash (seeded per process) goes into it.
    The engines hash labels at every dict lookup; synthesis hands each
    device one shared object per label, so those lookups also match by
    identity, though equality never depends on it.
    """

    family: str
    index: int
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.family not in ("r", "s"):
            raise ValueError(f"path family must be 'r' or 's', got {self.family!r}")
        if not _is_int(self.index) or self.index < 0:
            raise ValueError(f"path index must be a non-negative int, got {self.index!r}")
        object.__setattr__(self, "_hash", hash((self.index, self.family == "s")))

    def __hash__(self) -> int:
        return self._hash

    @classmethod
    def parse(cls, text: str) -> "PathLabel":
        m = _PATH_RE.fullmatch(text)
        if m is None:
            raise ValueError(f"invalid path label {text!r} (expected e.g. 'r0', 's2')")
        return cls(m.group(1), int(m.group(2)))

    def __str__(self) -> str:
        return f"{self.family}{_int_text(self.index)}"

    __repr__ = _dataclass_repr


def _check_paths(what: str, paths: Iterable) -> None:
    """Raise ValueError unless each of *paths* is exactly a PathLabel: the engines
    hash and compare labels, and a subclass compares unequal to every label."""
    # a plain loop: at the few dozen labels a device holds it beats set(map(type, ...))
    for path in paths:
        if type(path) is not PathLabel:
            raise ValueError(f"{what} must be PathLabel, got {path!r}")


def _unchecked(cls, **fields):
    """An instance of the frozen dataclass *cls* holding *fields* as given.

    ``__post_init__`` does not run, so nothing is checked or copied.  Give
    every field of *cls*, each valid by construction: an element
    `synthesis` emits, or a `Netlist` or `PortGraph` the engine builds
    from a device already checked.  Public constructors keep every check.
    """
    instance = object.__new__(cls)
    # filled through ``__dict__`` at once: about half the cost of setting
    # one field at a time, and the fields read slower only outside the
    # walks, which read `portgraph._tables`, built once per graph
    instance.__dict__.update(fields)
    return instance


def r_path(index: int) -> PathLabel:
    return PathLabel("r", index)


def s_path(index: int) -> PathLabel:
    return PathLabel("s", index)


StateKey = tuple[PathLabel, int]


def _norm(amps: Iterable[complex]) -> float:
    """2-norm of *amps*, free of overflow and underflow at any scale."""
    # a list, not map(): unpacking an iterator of unknown length shrinks a
    # 10-slot tuple to size, which parks a spare tuple on the interpreter's
    # per-size free lists each call (up to 2000 per size, a few MB in all)
    return math.hypot(*[abs(a) for a in amps])


def _pruned(entries: dict[StateKey, complex]) -> dict[StateKey, complex]:
    """*entries* without those at or below ``PRUNE_THRESHOLD`` times their norm."""
    # a lone entry is its own norm, so only an exact zero is dropped
    cut = PRUNE_THRESHOLD * _norm(entries.values()) if len(entries) > 1 else 0.0
    return {k: v for k, v in entries.items() if abs(v) > cut}


class ModeVector:
    """Sparse complex state over ``(path, oam)`` pairs.

    Entries with magnitude <= ``PRUNE_THRESHOLD`` times the state's norm
    are dropped on construction, so a state never stores numerical dust,
    at any amplitude scale.  A non-finite amplitude, or a norm beyond the
    float range, is a ValueError.  Instances are treated as immutable;
    all arithmetic returns new vectors.
    """

    __slots__ = ("_entries",)

    def __init__(
        self,
        entries: Mapping[StateKey, complex] | Iterable[tuple[StateKey, complex]] = (),
    ):
        items = entries.items() if isinstance(entries, Mapping) else entries
        acc: dict[StateKey, complex] = {}
        try:
            for key, amp in items:
                path, ell = key
                if type(path) is not PathLabel:  # a subclass equals no label
                    raise TypeError(f"state key path must be PathLabel, got {path!r}")
                _checked(ell)
                a = complex(amp)  # OverflowError for an int past the float range
                if not (math.isfinite(a.real) and math.isfinite(a.imag)):
                    raise ValueError(f"non-finite amplitude for {path}|{_int_text(ell)}>")
                acc[key] = acc.get(key, 0j) + a
            norm = _norm(acc.values())
        except OverflowError:  # an amplitude, or abs() of one, is past the float range
            norm = math.inf
        if norm == math.inf:
            raise ValueError("state norm is beyond the float range")
        self._entries = _pruned(acc)

    @classmethod
    def _trusted(cls, entries: dict[StateKey, complex]) -> "ModeVector":
        """A state over *entries*, taken as they are: neither checked nor pruned.

        Only for amplitudes already summed per key, keyed by
        ``(PathLabel, int)``, finite and pruned: the simulation engine's
        output, and the basis probes it reads through its own path.
        """
        state = cls.__new__(cls)
        state._entries = entries
        return state

    @classmethod
    def basis(cls, path: PathLabel, ell: int) -> "ModeVector":
        return cls({(path, ell): 1.0 + 0j})

    def items(self) -> Iterator[tuple[StateKey, complex]]:
        return iter(self._entries.items())

    def keys(self):
        return self._entries.keys()

    def get(self, key: StateKey) -> complex:
        return self._entries.get(key, 0j)

    def __len__(self) -> int:
        return len(self._entries)

    def __bool__(self) -> bool:
        return bool(self._entries)

    def __iter__(self) -> Iterator[StateKey]:
        return iter(self._entries)

    def norm(self) -> float:
        return _norm(self._entries.values())

    def scaled(self, factor: complex) -> "ModeVector":
        return ModeVector({k: v * factor for k, v in self._entries.items()})

    def __add__(self, other: "ModeVector") -> "ModeVector":
        merged = dict(self._entries)
        for k, v in other._entries.items():
            merged[k] = merged.get(k, 0j) + v
        return ModeVector(merged)

    def __sub__(self, other: "ModeVector") -> "ModeVector":
        return self + other.scaled(-1.0)

    def normalized(self) -> "ModeVector":
        n = self.norm()
        if n == 0.0:
            raise ZeroState("cannot normalize a state with no support")
        # a quotient per amplitude: 1.0 / n overflows for a subnormal norm
        return ModeVector({k: v / n for k, v in self._entries.items()})

    def __repr__(self) -> str:
        entries = sorted(self._entries.items())
        terms = ", ".join(f"({amp:.6g})|{_int_text(ell)}>@{path}" for (path, ell), amp in entries)
        return f"ModeVector[{terms}]" if terms else "ModeVector[0]"


def normalize(state: ModeVector) -> ModeVector:
    """Scale *state* to unit 2-norm.  Raises ZeroState on empty support."""
    return state.normalized()


def equal_up_to_global_phase(a: ModeVector, b: ModeVector, tol: float = 1e-10) -> bool:
    """True when ``a = exp(i*gamma) * b`` for some global phase gamma.

    The phase is read off the largest-magnitude entry the two states share,
    then the residual ``||a - exp(i*gamma)*b||`` is compared against *tol*
    times the larger of the two norms.  The residual is taken of both
    states divided by that norm, so no difference overflows near the top
    of the float range and the answer is the same at every amplitude
    scale.  Below the smallest normal float, where amplitudes keep only
    absolute precision, the scale is taken as that float.
    """
    if not a and not b:
        return True
    norm = max(a.norm(), b.norm())
    scale = max(norm, sys.float_info.min)
    shared = a.keys() & b.keys()
    if not shared:
        return norm <= tol * scale
    key = max(shared, key=lambda k: abs(a.get(k)) + abs(b.get(k)))
    ka, kb = a.get(key), b.get(key)
    # the phase of ka / kb, without forming the ratio, which can overflow
    phase = ka / abs(ka) * (kb / abs(kb)).conjugate()
    residual = _norm([a.get(k) / scale - b.get(k) / scale * phase for k in a.keys() | b.keys()])
    return residual <= tol


def extract_permutation(
    transform: Callable[[ModeVector], ModeVector],
    domain: Iterable[int],
    input_path: PathLabel,
    output_path: PathLabel,
) -> dict[int, int]:
    """Probe *transform* with basis states and read back an OAM permutation.

    Returns a partial map ``ell -> ell'`` containing only the inputs whose
    image is a single basis state on *output_path* with unit magnitude
    (within ``PERMUTATION_AMPLITUDE_TOL``).  Inputs that split, leak to
    another path, lose amplitude or raise NonMultipleMode are omitted;
    any other error *transform* raises is raised.
    """
    mapping: dict[int, int] = {}
    for ell in domain:
        try:
            out = transform(ModeVector.basis(input_path, ell))
        except NonMultipleMode:
            continue
        image = _image(out, output_path)
        if image is not None:
            mapping[ell] = image
    return mapping


def _image(out: ModeVector | Mapping[StateKey, complex], output_path: PathLabel) -> int | None:
    """The OAM value of *out* when it is a single basis state on
    *output_path* with unit magnitude (within ``PERMUTATION_AMPLITUDE_TOL``),
    else None: the readout rule of every basis probe."""
    if len(out) != 1:
        return None
    (path, image), amp = next(iter(out.items()))
    if path != output_path or abs(abs(amp) - 1.0) > PERMUTATION_AMPLITUDE_TOL:
        return None
    return image


# --- optical elements -------------------------------------------------------


@dataclass(frozen=True)
class OamBeamSplitter:
    """Order-``m`` OAM sorter coupling two ports.

    OAM values that are even multiples of ``m`` leave on the port they
    entered; odd multiples cross to the other port.  Serialized kind: LI.
    """

    m: int
    port_x: PathLabel
    port_y: PathLabel
    __repr__ = _dataclass_repr

    def __post_init__(self):
        if not _is_int(self.m) or self.m < 1:
            raise ValueError(f"splitter order must be an int >= 1, got {self.m!r}")
        _check_paths("splitter port", (self.port_x, self.port_y))
        if self.port_x == self.port_y:
            raise ValueError(f"splitter ports must differ, got {self.port_x} twice")


@dataclass(frozen=True)
class Hologram:
    """Shifts the OAM value on one path by ``v`` (positive or negative)."""

    path: PathLabel
    v: int
    __repr__ = _dataclass_repr

    def __post_init__(self):
        if not _is_int(self.v):
            raise ValueError(f"hologram charge must be an int, got {self.v!r}")
        _check_paths("hologram path", (self.path,))


@dataclass(frozen=True)
class ZPlate:
    """Phase element: multiplies an OAM-``ell`` component by exp(2*pi*i*ell/d)."""

    path: PathLabel
    d: int
    __repr__ = _dataclass_repr

    def __post_init__(self):
        if not _is_int(self.d) or self.d < 2:
            raise ValueError(f"phase plate dimension must be an int >= 2, got {self.d!r}")
        _check_paths("phase plate path", (self.path,))


Element = Union[OamBeamSplitter, Hologram, ZPlate]


def _check_kinds(elements: tuple) -> None:
    """Raise TypeError unless each member's exact type is one of `Element`'s, on
    which the engines dispatch; devices call this when built, so no loop does."""
    kinds = get_args(Element)
    for element in elements:
        if type(element) not in kinds:
            raise TypeError(f"unknown element {element!r}")


def element_paths(element: Element) -> tuple[PathLabel, ...]:
    if isinstance(element, OamBeamSplitter):
        return (element.port_x, element.port_y)
    return (element.path,)


@dataclass(frozen=True)
class Netlist:
    """Ordered element sequence realizing a gate on ``dimension`` OAM levels.

    Light enters on ``input_path`` and the designed output appears on
    ``output_path``.  The only legal empty netlist is the d=1 identity.
    Raises TypeError for a member that is not one of the three element
    classes, and ValueError for a path that is not a PathLabel.
    """

    elements: tuple[Element, ...]
    input_path: PathLabel
    output_path: PathLabel
    dimension: int
    __repr__ = _dataclass_repr

    def __post_init__(self):
        object.__setattr__(self, "elements", tuple(self.elements))
        if not _is_int(self.dimension) or self.dimension < 1:
            raise ValueError(f"dimension must be an int >= 1, got {self.dimension!r}")
        _check_kinds(self.elements)
        _check_paths("input and output path", (self.input_path, self.output_path))
        if self.elements:
            used = self.paths()
            for role, path in (("input", self.input_path), ("output", self.output_path)):
                if path not in used:
                    raise ValueError(f"{role} path {path} not referenced by any element")
        elif self.dimension != 1 or self.input_path != self.output_path:
            raise ValueError(
                f"a netlist with no elements is the d=1 identity, got d={self.dimension}, "
                f"{self.input_path} -> {self.output_path}"
            )

    @classmethod
    def identity(cls) -> "Netlist":
        """The degenerate d=1 netlist: no elements, input = output = r0."""
        return cls((), r_path(0), r_path(0), 1)

    def paths(self) -> set[PathLabel]:
        return {p for el in self.elements for p in element_paths(el)}
