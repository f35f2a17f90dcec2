"""Synthesis, simulation and verification of cyclic OAM mode-shift circuits."""

from .analysis import (
    CycleSet,
    ScalingRow,
    VerificationReport,
    discover_cycles,
    scaling_table,
    simulate_word,
    verify_gate,
)
from .elements import NonMultipleMode, splitter_amplitudes, z_phase
from .model import (
    Element,
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
from .portgraph import PortGraph, netlist_to_portgraph
from .serialization import (
    NetlistDocument,
    ParseError,
    SchemaVersionMismatch,
    export_dot,
    format_state,
    parse,
    parse_state,
    serialize,
)
from .simulation import (
    HopBudgetExceeded,
    NormDrift,
    SimulationConfig,
    apply_netlist,
    apply_portgraph,
    probe_permutation,
    strict_pieces,
    transform,
    window_permutation,
)
from .synthesis import (
    InvalidDimension,
    NotSimplifiable,
    SynthesisParams,
    count_beamsplitters,
    decompose,
    invert,
    naive_count,
    predict_count,
    predict_simplified_count,
    shifted_gate,
    simplify,
    synth_arbitrary,
)

__version__ = "0.1.0"
