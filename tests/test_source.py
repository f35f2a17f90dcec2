"""Idioms the package source avoids."""

import ast
import sys
from pathlib import Path

import oamcycle

SOURCE = Path(oamcycle.__file__).parent

#: what only `portgraph`, which builds the slot tables, and `simulation`,
#: which walks them within the hop budget, may name
TABLE_NAMES = {"_tables", "HOPS_PER_NODE"}


def test_no_tuple_of_a_generator():
    # tuple(<generator>) keeps about 86 bytes per call alive until the next
    # full collection, so hot paths raise RSS; tuple([...]) does not
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "tuple"
                and any(isinstance(arg, ast.GeneratorExp) for arg in node.args)
            ):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_imports_only_the_standard_library():
    # the package has no runtime dependency; numpy is for the tests alone
    found = []
    for path in sorted(SOURCE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [
                f"{path.name}:{node.lineno} {name}"
                for name in names
                if name.partition(".")[0] not in sys.stdlib_module_names
            ]
    assert found == []


def test_the_walks_read_element_effects_off_the_port_tables():
    # the hologram direction rule is written once, in `portgraph`, which owns
    # the slot encoding: the walks read its per-slot tables and no element.
    # `simulation` is the one module that walks them, with its hop budget:
    # it imports nothing above `portgraph`, and builds every `_Window` in
    # `_Window.routed`; `analysis` reads windows only through its names
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        name = path.name
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if name in ("simulation.py", "analysis.py"):
                if isinstance(node, ast.alias) and node.name == "BACKWARD":
                    found.append(f"{name}:{node.lineno} imports BACKWARD")
                elif isinstance(node, ast.Attribute) and node.attr in ("v", "BACKWARD"):
                    found.append(f"{name}:{node.lineno} reads .{node.attr}")
            if name not in ("portgraph.py", "simulation.py"):  # a name, attribute or import
                named = {getattr(node, key, None) for key in ("id", "attr", "name")}
                found += [f"{name}:{node.lineno} names {n}" for n in named & TABLE_NAMES]
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                modules = [node.module] if node.module else [alias.name for alias in node.names]
                for module in modules:
                    if name == "simulation.py" and module not in ("elements", "model", "portgraph"):
                        found.append(f"{name}:{node.lineno} imports {module}")
                    if name == "analysis.py" and node.module is None and module == "simulation":
                        found.append(f"{name}:{node.lineno} imports the simulation module")
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_Window":
                found.append(f"{name}:{node.lineno} builds a _Window outside _Window.routed")
    assert found == []


def test_the_packet_loop_and_the_readout_have_one_caller():
    # `_run` is the one path from a state to its readout: `_probes` reads
    # every probe it does not read off a unit landing through `_run`, so
    # nothing else names the loop or the readout
    names = {"_propagate", "_finish"}
    found = set()

    def visit(node, module, owner):
        # each name or attribute is found under the innermost function naming it
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, module, child.name)
                continue
            named = {getattr(child, key, None) for key in ("id", "attr")} & names
            found.update((module, owner, name) for name in named)
            visit(child, module, owner)

    for path in sorted(SOURCE.glob("*.py")):
        visit(ast.parse(path.read_text(), str(path)), path.name, "")
    assert found == {("simulation.py", "_run", "_propagate"), ("simulation.py", "_run", "_finish")}


def test_no_record_writes_its_own_constructor():
    # every record is built by `_Record.__init__`, which binds the fields and
    # then runs the record's `_check`; a record of its own writes only `_check`
    records, found = [], []
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ClassDef) and "_Record" in [
                getattr(base, "id", None) for base in node.bases
            ]:
                records.append(node.name)
                found += [
                    f"{path.name}:{item.lineno} {node.name}.__init__"
                    for item in node.body
                    if isinstance(item, ast.FunctionDef) and item.name == "__init__"
                ]
    assert len(records) == 13 and found == []
