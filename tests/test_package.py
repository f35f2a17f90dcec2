"""The package namespace, and the modules `import oamcycle` and each command load."""

import importlib
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import oamcycle
from oamcycle.cli import main

#: every public name ``import oamcycle`` gave when it imported each
#: submodule at once, by the module that defines it
PUBLIC = {
    "analysis": ["CycleSet", "VerificationReport", "discover_cycles", "simulate_word",
                 "verify_gate"],
    "elements": ["HopBudgetExceeded", "NonMultipleMode", "NormDrift", "ParseError",
                 "SchemaVersionMismatch", "splitter_amplitudes", "z_phase"],
    "model": ["Element", "Hologram", "ModeVector", "Netlist", "OamBeamSplitter", "PathLabel",
              "ZPlate", "ZeroState", "equal_up_to_global_phase", "extract_permutation",
              "normalize", "r_path", "s_path"],
    "portgraph": ["PortGraph", "netlist_to_portgraph"],
    "serialization": ["NetlistDocument", "export_dot", "format_state", "parse", "parse_state",
                      "serialize"],
    "simulation": ["SimulationConfig", "apply_netlist", "apply_portgraph", "probe_permutation",
                   "strict_pieces", "transform", "window_permutation"],
    "synthesis": ["InvalidDimension", "NotSimplifiable", "ScalingRow", "SynthesisParams",
                  "count_beamsplitters", "decompose", "invert", "naive_count", "predict_count",
                  "predict_simplified_count", "scaling_table", "shifted_gate", "simplify",
                  "synth_arbitrary"],
}
NAMES = [*PUBLIC, *(name for names in PUBLIC.values() for name in names)]


def test_the_namespace_holds_each_public_name_once():
    assert len(NAMES) == len(set(NAMES)) == 61
    assert sorted(oamcycle.__all__) == sorted(NAMES)
    star = {}
    exec("from oamcycle import *", star)
    assert set(NAMES) <= set(star) and set(NAMES) <= set(dir(oamcycle))
    for module, names in PUBLIC.items():
        defining = importlib.import_module(f"oamcycle.{module}")
        assert getattr(oamcycle, module) is star[module] is defining
        for name in names:
            value = getattr(oamcycle, name)
            assert value is star[name] is getattr(defining, name)
            assert getattr(value, "__module__", defining.__name__) in (defining.__name__, "typing")
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        oamcycle.no_such_name


def test_moved_names_keep_their_old_import_paths():
    # the errors moved beside NonMultipleMode, the scaling names to synthesis
    from oamcycle import analysis, elements, model, serialization, simulation, synthesis

    assert simulation.NormDrift is oamcycle.NormDrift is elements.NormDrift
    assert simulation.HopBudgetExceeded is oamcycle.HopBudgetExceeded
    assert serialization.ParseError is oamcycle.ParseError is elements.ParseError
    assert serialization.SchemaVersionMismatch is oamcycle.SchemaVersionMismatch
    # a pickle written while the reader's errors were defined in `serialization`
    old = pickle.loads(b"coamcycle.serialization\nParseError\n(Vbad document\ntR.")
    assert type(old) is elements.ParseError and old.args == ("bad document",)
    assert simulation.MAX_WINDOW == model.MAX_WINDOW == 2**20
    for name in ("ScalingRow", "scaling_rows", "scaling_table", "scaling_csv_lines"):
        assert getattr(analysis, name) is getattr(synthesis, name)
    errors = (oamcycle.NormDrift("drift"), oamcycle.HopBudgetExceeded("hops"),
              oamcycle.ParseError("parse", 1, 2), oamcycle.SchemaVersionMismatch("version"))
    for error in errors:
        copy = pickle.loads(pickle.dumps(error))
        assert type(copy) is type(error) and copy.args == error.args


#: imports oamcycle, runs ``python -m oamcycle`` on the arguments after the
#: first if there are any, and writes the names of the modules then loaded,
#: one a line, to the file the first names
IMPORT_RUN_AND_LIST = """
import runpy, sys
import oamcycle
listing, argv = sys.argv[1], sys.argv[2:]
if argv:
    sys.argv = ["oamcycle", *argv]
    try:
        runpy.run_module("oamcycle", run_name="__main__", alter_sys=True)
    except SystemExit as done:
        assert done.code == 0, done.code
with open(listing, "w") as out:
    out.write("\\n".join(sorted(sys.modules)))
"""

SUBMODULES = [f"oamcycle.{name}" for name in ("analysis", "cli", "elements", "model",
              "portgraph", "serialization", "simulation", "synthesis")]

#: what frozen dataclasses would cost each process: `dataclasses`, which
#: imports `inspect`, and the code it generates for each record class
RECORD_CODE = ["dataclasses", "inspect"]

#: what reading or writing a document costs a process
DOCUMENTS = ["oamcycle.serialization", "json"]

ENGINES = ["oamcycle.analysis", "oamcycle.simulation"]


@pytest.mark.parametrize(
    "argv, unloaded",
    [
        ([], [*SUBMODULES, *RECORD_CODE]),
        (["synth", "5"], [*ENGINES, *RECORD_CODE]),
        (["export", "gate.json"], [*ENGINES, *RECORD_CODE]),
        (["scaling", "--max", "9"], [*ENGINES, *DOCUMENTS, *RECORD_CODE]),
        (["simulate", "gate.json", "--input", "|3>"], ["oamcycle.analysis", *RECORD_CODE]),
        (["verify", "5"], [*DOCUMENTS, *RECORD_CODE]),
        (["cycles", "gate.json"], RECORD_CODE),
    ],
    ids=["import", "synth", "export", "scaling", "simulate", "verify", "cycles"],
)
def test_each_command_loads_only_the_modules_it_runs(tmp_path, argv, unloaded):
    # each command is a process of its own, which compiles every module it loads
    assert main(["synth", "5", "--out", str(tmp_path / "gate.json")]) == 0
    src = str(Path(oamcycle.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    listing = tmp_path / "modules.txt"
    done = subprocess.run([sys.executable, "-c", IMPORT_RUN_AND_LIST, str(listing), *argv],
                          cwd=tmp_path, env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    loaded = set(listing.read_text().split("\n"))
    assert loaded & set(unloaded) == set()
    if argv:
        assert {"oamcycle.cli", "oamcycle.elements"} <= loaded  # the command ran
