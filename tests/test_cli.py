"""End-to-end tests for the command line interface.

Every test but the closed-pipe one drives ``main(argv)`` directly and
checks the exit code plus whatever landed on stdout/stderr or in the output
files.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import oamcycle
from oamcycle import (
    Hologram,
    Netlist,
    OamBeamSplitter,
    ZPlate,
    analysis,
    cli,
    parse,
    r_path,
    serialize,
)
from oamcycle.cli import main
from reference_netlist import replaced


def synth_file(tmp_path, d, *extra):
    path = tmp_path / f"gate{d}.json"
    code = main(["synth", str(d), "--out", str(path), *extra])
    assert code == 0
    return str(path)


# -- synth --------------------------------------------------------------


def test_synth_writes_canonical_json_to_stdout(capsys):
    assert main(["synth", "3"]) == 0
    out = capsys.readouterr().out
    doc = parse(out)
    assert doc.netlist.dimension == 3
    assert doc.variant == "standard"
    # canonical form: re-serializing gives back the same bytes
    assert serialize(doc.netlist, doc.variant) == out


def test_synth_out_file(tmp_path, capsys):
    path = synth_file(tmp_path, 10)
    assert capsys.readouterr().out == ""
    doc = parse(Path(path).read_text(encoding="utf-8"))
    assert doc.netlist.dimension == 10


def test_synth_variant_tags(tmp_path):
    inv = parse(Path(synth_file(tmp_path, 5, "--variant", "inverse")).read_text(encoding="utf-8"))
    assert inv.variant == "inverse"
    simp = parse(
        Path(synth_file(tmp_path, 9, "--variant", "simplified")).read_text(encoding="utf-8")
    )
    assert simp.variant == "simplified"
    shifted = parse(Path(synth_file(tmp_path, 3, "--shift", "5")).read_text(encoding="utf-8"))
    assert shifted.variant == "shifted"


def test_synth_rejects_bad_dimension(capsys):
    assert main(["synth", "1"]) == 2
    assert "error:" in capsys.readouterr().err


def test_synth_rejects_simplified_shift(capsys):
    assert main(["synth", "5", "--variant", "simplified", "--shift", "2"]) == 2
    assert "error:" in capsys.readouterr().err


# -- simulate -----------------------------------------------------------


def test_simulate_basis_state(tmp_path, capsys):
    path = synth_file(tmp_path, 3)
    capsys.readouterr()
    assert main(["simulate", path, "--input", "|0>"]) == 0
    captured = capsys.readouterr()
    assert captured.out.strip() == "|1> @ r0"
    assert captured.err == ""


def test_simulate_superposition(tmp_path, capsys):
    path = synth_file(tmp_path, 8)
    capsys.readouterr()
    assert main(["simulate", path, "--input", "0.6*|2> + 0.8i*|7>"]) == 0
    out = capsys.readouterr().out
    assert "0.6|3> @ r0" in out
    assert "0.8j|0> @ r0" in out


def test_simulate_normalizes_and_warns(tmp_path, capsys):
    path = synth_file(tmp_path, 3)
    capsys.readouterr()
    assert main(["simulate", path, "--input", "2*|0>"]) == 0
    captured = capsys.readouterr()
    assert "normalized" in captured.err
    assert captured.out.strip() == "|1> @ r0"


def test_simulate_physical_mode(tmp_path, capsys):
    path = synth_file(tmp_path, 3)
    capsys.readouterr()
    assert main(["simulate", path, "--input", "|0>", "--mode", "physical"]) == 0
    assert "|1> @ r0" in capsys.readouterr().out


def test_simulate_simplified_document_uses_folded_graph(tmp_path, capsys):
    path = synth_file(tmp_path, 11, "--variant", "simplified")
    capsys.readouterr()
    assert main(["simulate", path, "--input", "|3>"]) == 0
    assert capsys.readouterr().out.strip() == "|4> @ r0"


def test_simulate_non_multiple_mode_is_exit_one(tmp_path, capsys):
    # a lone 50/50 splitter: |1> is not a multiple of 2, strict mode refuses
    netlist = Netlist(
        elements=(OamBeamSplitter(2, r_path(0), r_path(1)),),
        dimension=2,
        input_path=r_path(0),
        output_path=r_path(0),
    )
    path = tmp_path / "splitter.json"
    path.write_text(serialize(netlist), encoding="utf-8")
    assert main(["simulate", str(path), "--input", "|1>"]) == 1
    assert "simulation failed" in capsys.readouterr().err


@pytest.mark.parametrize(
    "element, mode",
    [
        (OamBeamSplitter(10**400, r_path(0), r_path(1)), "physical"),
        (ZPlate(r_path(0), 10**400), "strict"),
    ],
    ids=["splitter", "plate"],
)
def test_simulate_order_past_the_float_range(tmp_path, capsys, element, mode):
    # a splitter order or plate dimension of 10**400 gives a finite phase
    netlist = Netlist(elements=(element,), dimension=2, input_path=r_path(0), output_path=r_path(0))
    path = tmp_path / "huge.json"
    path.write_text(serialize(netlist), encoding="utf-8")
    assert main(["simulate", str(path), "--input", "|1>", "--mode", mode]) == 0
    captured = capsys.readouterr()
    assert captured.out.strip() == "|1> @ r0"
    assert captured.err == ""


@pytest.mark.parametrize(
    "state, image",
    [("1e-16*|3>", "|4>"), ("1e-200*|1>", "|2>"), ("1e200*|1>", "|2>"), ("1e-320*|1>", "|2>")],
    ids=["1e-16", "1e-200", "1e200", "1e-320"],
)
def test_simulate_tiny_amplitude_normalizes(tmp_path, capsys, state, image):
    # dust is pruned relative to the state's norm and the norm neither
    # overflows nor underflows, so an input at any scale survives
    path = synth_file(tmp_path, 5)
    capsys.readouterr()
    assert main(["simulate", path, "--input", state]) == 0
    assert capsys.readouterr().out.strip() == f"{image} @ r0"


@pytest.mark.parametrize(
    "state", ["1.7e308*|1> + 1.7e308*|2>", "(1.7e308+1.7e308i)*|1>"], ids=["norm", "modulus"]
)
def test_simulate_state_beyond_the_float_range_rejected(tmp_path, capsys, state):
    path = synth_file(tmp_path, 5)
    capsys.readouterr()
    assert main(["simulate", path, "--input", state]) == 2
    assert capsys.readouterr().err == "error: state norm is beyond the float range\n"


@pytest.mark.parametrize("state", ["-|1>", "-0.5|1>"])
def test_simulate_state_with_a_leading_minus(tmp_path, capsys, state):
    # argparse would take the state for an option flag
    path = synth_file(tmp_path, 5)
    capsys.readouterr()
    assert main(["simulate", path, "--input", state]) == 0
    assert capsys.readouterr().out.strip() == "-|2> @ r0"


def test_simulate_zero_state_rejected(tmp_path, capsys):
    path = synth_file(tmp_path, 3)
    capsys.readouterr()
    assert main(["simulate", path, "--input", "0*|0>"]) == 2
    assert "error:" in capsys.readouterr().err


def test_simulate_zero_state_prints_no_normalization_note(tmp_path, capsys):
    # the note follows a normalization that happened; a zero state has none
    path = synth_file(tmp_path, 3)
    capsys.readouterr()
    assert main(["simulate", path, "--input", "0*|3>"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: cannot normalize a state with no support\n"
    assert captured.out == ""


def test_simulate_missing_file(tmp_path, capsys):
    assert main(["simulate", str(tmp_path / "nope.json"), "--input", "|0>"]) == 2
    assert "error:" in capsys.readouterr().err


# -- verify -------------------------------------------------------------


def test_verify_standard(capsys):
    assert main(["verify", "10"]) == 0
    out = capsys.readouterr().out
    assert "d=10 variant=standard" in out
    assert "splitters: 10 (predicted 10)" in out
    assert out.strip().endswith("PASS")


def test_verify_simplified(capsys):
    assert main(["verify", "11", "--variant", "simplified"]) == 0
    out = capsys.readouterr().out
    assert "splitters: 8" in out
    assert out.strip().endswith("PASS")


def test_verify_shift_flag_selects_shifted_variant(capsys):
    assert main(["verify", "3", "--shift", "5"]) == 0
    out = capsys.readouterr().out
    assert "variant=shifted shift=5" in out
    assert out.strip().endswith("PASS")


def test_verify_inverse(capsys):
    assert main(["verify", "7", "--variant", "inverse"]) == 0
    assert capsys.readouterr().out.strip().endswith("PASS")


def flip_first_charge(monkeypatch):
    """Make `verify_gate` check its gate with the first hologram's charge flipped."""
    real = analysis.synth_variant

    def broken(d, variant="standard", shift=0):
        netlist = real(d, variant, shift)
        elements = list(netlist.elements)
        i = next(i for i, el in enumerate(elements) if isinstance(el, Hologram))
        elements[i] = Hologram(elements[i].path, -elements[i].v)
        return replaced(netlist, elements=tuple(elements))

    monkeypatch.setattr(analysis, "synth_variant", broken)


def test_verify_reports_a_failing_gate(monkeypatch, capsys):
    # the first hologram's charge flipped: 16 of the 32 values go wrong
    flip_first_charge(monkeypatch)
    assert main(["verify", "32"]) == 1
    out = capsys.readouterr().out
    assert "permutation: FAILED (32/32 values mapped)" in out
    assert len(re.findall(r"^violation: \|\d+> mapped to \d+, expected \|\d+>$", out, re.M)) == 10
    assert "... and 6 more violations" in out
    assert out.strip().endswith("FAIL")


def test_verify_bad_dimension(capsys):
    assert main(["verify", "0"]) == 2


def test_verify_rejects_a_dimension_or_shift_past_the_bit_bound(monkeypatch, capsys):
    # refused before synthesis: the proof grows with the bits of d and shift
    synthesized = []
    real = analysis.synth_variant
    monkeypatch.setattr(
        analysis, "synth_variant", lambda *args: synthesized.append(args) or real(*args)
    )
    for argv in (["verify", str(2**256)], ["verify", "3", "--shift", str(-(2**256))]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "error:" in captured.err and "more than 256 bits" in captured.err
        assert captured.out == ""
    assert synthesized == []
    # a shift of 256 bits is accepted, and so is a d of 256 bits
    assert main(["verify", "3", "--shift", str(-(2**256 - 1))]) == 0
    assert synthesized == [(3, "shifted", -(2**256 - 1))]
    assert capsys.readouterr().out.endswith("PASS\n")
    report, checked = analysis.verify_gate(2), []
    monkeypatch.setattr(analysis, "verify_gate", lambda d, **kw: checked.append(d) or report)
    assert main(["verify", str(2**256 - 1)]) == 0
    assert checked == [2**256 - 1]


def test_verify_a_dimension_past_sys_maxsize(monkeypatch, capsys):
    # len() of the map raises OverflowError past sys.maxsize, so neither
    # count line may take it
    d = 2**64 + 13
    assert d > sys.maxsize
    assert main(["verify", str(d)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1:3] == [f"permutation: {d}/{d} values correct", "splitters: 256 (predicted 256)"]
    assert lines[-1] == "PASS"
    # with one charge flipped the gate leaks one value and shifts the rest
    # wrongly: its pieces are listed, not its values
    flip_first_charge(monkeypatch)
    assert main(["verify", str(d)]) == 1
    out = capsys.readouterr().out
    assert f"permutation: FAILED ({d - 1}/{d} values mapped)" in out
    assert f"violation: piece 1 mod {2**65} (members: 1): leaves on s0, expected r0" in out
    assert len(re.findall(r"^violation: piece \d+ mod \d+ \(members: \d+\): ", out, re.M)) == 10
    assert out.strip().endswith("FAIL")


# -- scaling ------------------------------------------------------------


def test_scaling_stdout(capsys):
    assert main(["scaling", "--min", "3", "--max", "12"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "d,n_arb_actual,n_arb_predicted,n_s,naive,bound"
    assert len(lines) == 11
    assert lines[1].startswith("3,4,4,")


def test_scaling_csv_file(tmp_path, capsys):
    path = tmp_path / "table.csv"
    assert main(["scaling", "--min", "3", "--max", "20", "--csv", str(path)]) == 0
    assert "wrote 18 rows" in capsys.readouterr().out
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "d,n_arb_actual,n_arb_predicted,n_s,naive,bound"
    assert len(lines) == 19


def test_scaling_rejects_bad_range(capsys):
    assert main(["scaling", "--min", "10", "--max", "5"]) == 2


def test_scaling_rejects_oversized_range(capsys, monkeypatch):
    # refused before synthesis: every dimension in the range is synthesized
    assert main(["scaling", "--min", "3", "--max", "1000000000000"]) == 2
    captured = capsys.readouterr()
    assert "error:" in captured.err and "more than 1048576" in captured.err
    assert captured.out == ""
    # a range of exactly 2**20 dimensions is accepted
    monkeypatch.setattr(cli, "scaling_rows", lambda lo, hi: [])
    assert main(["scaling", "--min", "3", "--max", str(2 + 2**20)]) == 0
    assert main(["scaling", "--min", "3", "--max", str(3 + 2**20)]) == 2


# -- cycles -------------------------------------------------------------


def test_cycles_window_with_negative_bound(tmp_path, capsys):
    path = synth_file(tmp_path, 11)
    capsys.readouterr()
    assert main(["cycles", path, "--window", "-44..44"]) == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l.startswith("cycle:")]
    assert len(lines) == 5
    assert "cycle: 0 1 2 3 4 5 6 7 8 9 10" in lines


def test_cycles_default_window(tmp_path, capsys):
    path = synth_file(tmp_path, 3)
    capsys.readouterr()
    assert main(["cycles", path]) == 0
    assert "cycle: 0 1 2" in capsys.readouterr().out


def test_cycles_empty_window_message(tmp_path, capsys):
    path = synth_file(tmp_path, 3)
    capsys.readouterr()
    assert main(["cycles", path, "--window", "101..105"]) == 0
    assert "no closed cycles" in capsys.readouterr().out


@pytest.mark.parametrize("window", ["3..1", "abc", "1..", "..4"])
def test_cycles_rejects_malformed_window(tmp_path, capsys, window):
    path = synth_file(tmp_path, 3)
    capsys.readouterr()
    assert main(["cycles", path, "--window", window]) == 2


@pytest.mark.parametrize(
    "command, flag, text",
    [
        ("cycles", "--window", "0..5\n"),  # a newline after the window
        ("cycles", "--window", "\u0660..\u0664"),  # Arabic-Indic digits 0..4
        ("simulate", "--input", "|\u0663>"),  # the Arabic-Indic digit 3
    ],
    ids=["trailing-newline", "window-digits", "ket-digits"],
)
def test_numbers_are_written_in_ascii_digits_alone(tmp_path, capsys, command, flag, text):
    path = synth_file(tmp_path, 5)
    capsys.readouterr()
    assert main([command, path, flag, text]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")


def test_a_ket_past_the_digit_limit_is_exit_two(tmp_path, capsys):
    path = synth_file(tmp_path, 5)
    capsys.readouterr()
    limit = sys.get_int_max_str_digits()
    assert main(["simulate", path, "--input", "|" + "1" * (limit + 1) + ">"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: ket 1 has more than {limit} digits\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "\u0665"],  # the Arabic-Indic digit 5
        ["verify", "5", "--shift", "\u0663"],
        ["synth", "\uff15"],  # the fullwidth digit 5
        ["synth", "5", "--shift", " 3"],
        ["scaling", "--min", "\u0663", "--max", "\u0665"],
        ["scaling", "--max", "1_0"],
        ["verify", "+5"],
    ],
    ids=["verify-d", "verify-shift", "synth-d", "synth-shift", "scaling", "underscore", "plus"],
)
def test_int_arguments_are_written_in_ascii_digits_alone(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "invalid int value: " in captured.err


@pytest.mark.parametrize("d, window", [(3, "-100000000..100000000"), (131072, None)])
def test_cycles_rejects_oversized_window(tmp_path, capsys, d, window):
    # explicit or default, a window of more than 2**20 values is refused
    # before any probe runs
    path = synth_file(tmp_path, d)
    capsys.readouterr()
    extra = ["--window", window] if window else []
    assert main(["cycles", path, *extra]) == 2
    captured = capsys.readouterr()
    assert "more than 1048576" in captured.err and captured.out == ""


# -- export -------------------------------------------------------------


def test_export_stdout(tmp_path, capsys):
    path = synth_file(tmp_path, 4)
    capsys.readouterr()
    assert main(["export", path]) == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph device {")
    assert 'label="LI_1"' in out


def test_export_dot_file(tmp_path, capsys):
    netlist_path = synth_file(tmp_path, 11, "--variant", "simplified")
    dot_path = tmp_path / "gate.dot"
    capsys.readouterr()
    assert main(["export", netlist_path, "--dot", str(dot_path)]) == 0
    text = dot_path.read_text(encoding="utf-8")
    assert "digraph" in text
    assert "dashed" in text  # folded graphs carry backward-pass edges


# -- closed output pipe -------------------------------------------------


def test_closed_output_pipe_exits_one_without_noise(tmp_path):
    # the reader of `oamcycle cycles ... | head -1` leaves after one line; the
    # write that follows once raised "error: [Errno 32] Broken pipe", exit 2
    path = synth_file(tmp_path, 3)
    src = str(Path(oamcycle.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    argv = [sys.executable, "-m", "oamcycle", "cycles", path, "--window", "-40000..40000"]
    with subprocess.Popen(
        argv, cwd=tmp_path, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE
    ) as proc:
        assert proc.stdout.readline().startswith(b"cycle: ")
        proc.stdout.close()  # some 20000 lines, far more than a pipe buffers, are left
        stderr = proc.stderr.read()
        code = proc.wait(timeout=120)
    assert (code, stderr) == (1, b"")


# -- parser-level errors ------------------------------------------------


def test_unknown_command_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_simulate_requires_input_flag(tmp_path):
    path = synth_file(tmp_path, 3)
    with pytest.raises(SystemExit) as exc:
        main(["simulate", path])
    assert exc.value.code == 2


def test_corrupt_document_is_exit_two(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"schema_version": "1"', encoding="utf-8")
    assert main(["cycles", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_a_document_int_past_the_digit_limit_is_exit_two(tmp_path, capsys):
    text = Path(synth_file(tmp_path, 3)).read_text(encoding="utf-8")
    path = tmp_path / "huge.json"
    digits = "1" * (sys.get_int_max_str_digits() + 1)
    path.write_text(text.replace('"dimension": 3', f'"dimension": {digits}'), encoding="utf-8")
    assert main(["export", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: document not read: ")


def test_wrong_schema_version_is_exit_two(tmp_path, capsys):
    good = json.loads(Path(synth_file(tmp_path, 3)).read_text(encoding="utf-8"))
    good["schema_version"] = "99"
    path = tmp_path / "future.json"
    path.write_text(json.dumps(good), encoding="utf-8")
    assert main(["simulate", str(path), "--input", "|0>"]) == 2
    assert "error:" in capsys.readouterr().err
