"""Synthesis, simulation and verification of cyclic OAM mode-shift circuits.

`_PUBLIC` names each public submodule with the names it defines.
``import oamcycle`` loads none of them: a module ``__getattr__`` (PEP
562) imports a name's module on its first use and keeps the name here,
so each command line process loads only the modules it runs.
"""

from importlib import import_module as _import_module

_PUBLIC = {
    "analysis": "CycleSet VerificationReport discover_cycles simulate_word verify_gate",
    "elements": """HopBudgetExceeded NonMultipleMode NormDrift ParseError SchemaVersionMismatch
        splitter_amplitudes z_phase""",
    "model": """Element Hologram ModeVector Netlist OamBeamSplitter PathLabel ZPlate ZeroState
        equal_up_to_global_phase extract_permutation normalize r_path s_path""",
    "portgraph": "PortGraph netlist_to_portgraph",
    "serialization": "NetlistDocument export_dot format_state parse parse_state serialize",
    "simulation": """SimulationConfig apply_netlist apply_portgraph probe_permutation
        strict_pieces transform window_permutation""",
    "synthesis": """InvalidDimension NotSimplifiable ScalingRow SynthesisParams
        count_beamsplitters decompose invert naive_count predict_count
        predict_simplified_count scaling_table shifted_gate simplify synth_arbitrary""",
}

#: each public name's module
_MODULE = {name: module for module, names in _PUBLIC.items() for name in names.split()}

__all__ = [*_PUBLIC, *_MODULE]

__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _PUBLIC:
        value = _import_module(f".{name}", __name__)
    elif name in _MODULE:
        value = getattr(_import_module(f".{_MODULE[name]}", __name__), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
