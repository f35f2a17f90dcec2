"""The package namespace, and the modules `import oamcycle` and each command load."""

import importlib
import json
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
    "elements": ["HopBudgetExceeded", "NonMultipleMode", "NormDrift", "splitter_amplitudes",
                 "z_phase"],
    "model": ["Element", "Hologram", "ModeVector", "Netlist", "OamBeamSplitter", "PathLabel",
              "ZPlate", "ZeroState", "equal_up_to_global_phase", "extract_permutation",
              "normalize", "r_path", "s_path"],
    "portgraph": ["PortGraph", "netlist_to_portgraph"],
    "serialization": ["NetlistDocument", "ParseError", "SchemaVersionMismatch", "export_dot",
                      "format_state", "parse", "parse_state", "serialize"],
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
    from oamcycle import analysis, elements, model, simulation, synthesis

    assert simulation.NormDrift is oamcycle.NormDrift is elements.NormDrift
    assert simulation.HopBudgetExceeded is oamcycle.HopBudgetExceeded
    assert simulation.MAX_WINDOW == model.MAX_WINDOW == 2**20
    for name in ("ScalingRow", "scaling_rows", "scaling_table", "scaling_csv_lines"):
        assert getattr(analysis, name) is getattr(synthesis, name)
    for error in (oamcycle.NormDrift("drift"), oamcycle.HopBudgetExceeded("hops")):
        copy = pickle.loads(pickle.dumps(error))
        assert type(copy) is type(error) and copy.args == error.args


#: imports oamcycle, runs ``python -m oamcycle`` on the arguments after the
#: first if there are any, and writes the package's modules then loaded to
#: the file the first names
IMPORT_RUN_AND_LIST = """
import json, runpy, sys
import oamcycle
listing, argv = sys.argv[1], sys.argv[2:]
if argv:
    sys.argv = ["oamcycle", *argv]
    try:
        runpy.run_module("oamcycle", run_name="__main__", alter_sys=True)
    except SystemExit as done:
        assert done.code == 0, done.code
with open(listing, "w") as out:
    json.dump(sorted(m for m in sys.modules if m.startswith("oamcycle.")), out)
"""

SUBMODULES = ["analysis", "cli", "elements", "model", "portgraph", "serialization",
              "simulation", "synthesis"]


@pytest.mark.parametrize(
    "argv, unloaded",
    [
        ([], SUBMODULES),
        (["synth", "5"], ["analysis", "simulation"]),
        (["export", "gate.json"], ["analysis", "simulation"]),
        (["scaling", "--max", "9"], ["analysis", "simulation"]),
        (["simulate", "gate.json", "--input", "|3>"], ["analysis"]),
    ],
    ids=["import", "synth", "export", "scaling", "simulate"],
)
def test_each_command_loads_only_the_modules_it_runs(tmp_path, argv, unloaded):
    # each command is a process of its own, which compiles every module it loads
    assert main(["synth", "5", "--out", str(tmp_path / "gate.json")]) == 0
    src = str(Path(oamcycle.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    listing = tmp_path / "modules.json"
    done = subprocess.run([sys.executable, "-c", IMPORT_RUN_AND_LIST, str(listing), *argv],
                          cwd=tmp_path, env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    loaded = {module.removeprefix("oamcycle.") for module in json.loads(listing.read_text())}
    assert loaded & set(unloaded) == set()
    if argv:
        assert {"cli", "elements"} <= loaded  # the command ran
