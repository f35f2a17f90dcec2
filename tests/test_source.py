"""Idioms the package source avoids."""

import ast
import sys
from pathlib import Path

import oamcycle

SOURCE = Path(oamcycle.__file__).parent


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
    # the slot encoding: the walks read its per-slot tables and no element
    found = []
    for name in ("simulation.py", "analysis.py"):
        path = SOURCE / name
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.alias) and node.name == "BACKWARD":
                found.append(f"{name}:{node.lineno} imports BACKWARD")
            elif isinstance(node, ast.Attribute) and node.attr in ("v", "BACKWARD"):
                found.append(f"{name}:{node.lineno} reads .{node.attr}")
    assert found == []
