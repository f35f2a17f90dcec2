"""Command line front end.

Exit codes: 0 success, 1 verification/simulation failure, 2 usage or
document errors.  When the reader of stdout closes it early (as in
``oamcycle cycles ... | head -1``) the command stops silently with 1,
Python's own exit code for a broken pipe.

Each command is its own process, so the module imports at its top only
what parsing and `main`'s error handling need for every command; the
commands that run the engines import them: `simulation` for `simulate`,
`analysis` for `verify` and `cycles`.  `synth`, `export` and `scaling`
load neither.  The commands that read or write a document or a state
import `serialization`, and with it `json`: `verify` and `scaling` load
neither.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from pathlib import Path

from .elements import (
    HopBudgetExceeded,
    NonMultipleMode,
    NormDrift,
    ParseError,
    SchemaVersionMismatch,
    _int_text,
)
from .model import MAX_WINDOW, ZeroState, normalize
from .synthesis import (
    VARIANTS,
    InvalidDimension,
    NotSimplifiable,
    device_for,
    scaling_csv_lines,
    scaling_rows,
    synth_variant,
    variant_name,
)

_WINDOW_RE = re.compile(r"(-?[0-9]+)\.\.(-?[0-9]+)")

#: an int argument: ASCII digits, with an optional minus sign
_INT_RE = re.compile(r"-?[0-9]+")

#: most bits of `verify`'s dimension and shift: its window splits into
#: O(log d) residue-class pieces, so a d of 256 bits is proven in under a
#: second; `cycles` and `scaling` are bounded by ``MAX_WINDOW`` values
_MAX_BITS = 256


def _int(text: str) -> int:
    """*text* as an int, if it is one in ASCII digits: Python's ``int`` also
    takes other Unicode digits, blanks, a plus sign and underscores."""
    if _INT_RE.fullmatch(text) is not None:
        try:
            return int(text)
        except ValueError:  # more digits than sys.get_int_max_str_digits()
            pass
    # argparse's message for a value ``int`` rejects
    raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")


def _load_document(path_text: str):
    from .serialization import parse

    return parse(Path(path_text).read_text(encoding="utf-8"))


def _write_or_print(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _cmd_synth(args) -> int:
    from .serialization import serialize

    netlist = synth_variant(args.d, args.variant, args.shift)
    _write_or_print(serialize(netlist, variant_name(args.variant, args.shift)), args.out)
    return 0


def _cmd_simulate(args) -> int:
    from .serialization import format_state, parse_state
    from .simulation import SimulationConfig, transform

    doc = _load_document(args.netlist)
    state = parse_state(args.input, doc.netlist.input_path)
    norm = state.norm()
    if abs(norm - 1.0) > 1e-9:
        state = normalize(state)  # raises ZeroState before any note is printed
        print(f"note: input normalized (norm was {norm:.6g})", file=sys.stderr)
    out = transform(device_for(doc.netlist, doc.variant), SimulationConfig(mode=args.mode))(state)
    print(format_state(out))
    return 0


def _cmd_verify(args) -> int:
    from .analysis import verify_gate

    for name, value in (("dimension", args.d), ("shift", args.shift)):
        if value.bit_length() > _MAX_BITS:
            raise ValueError(f"{name} {value} has more than {_MAX_BITS} bits")
    report = verify_gate(args.d, variant=variant_name(args.variant, args.shift), shift=args.shift)
    window = f" shift={report.shift}" if report.shift else ""
    print(f"d={report.d} variant={report.variant}{window}")
    # a correct map holds every window value; len() raises past sys.maxsize
    print(f"permutation: {report.d}/{report.d} values correct"
          if report.permutation_ok
          else f"permutation: FAILED ({report.mapping.__len__()}/{report.d} values mapped)")
    print(f"splitters: {report.count_actual} (predicted {report.count_predicted})")
    if report.bound is not None:
        print(f"bound: {report.bound:.6g}")
    for violation in report.violations[:10]:
        print(f"violation: {violation}")
    if len(report.violations) > 10:
        print(f"... and {len(report.violations) - 10} more violations")
    print("PASS" if report.passed else "FAIL")
    return 0 if report.passed else 1


def _cmd_scaling(args) -> int:
    if args.max - args.min + 1 > MAX_WINDOW:
        raise ValueError(
            f"range [{args.min}, {args.max}] holds {args.max - args.min + 1} dimensions, "
            f"more than {MAX_WINDOW}"
        )
    # each row is written as it is made, so memory stays flat over the range
    lines = scaling_csv_lines(scaling_rows(args.min, args.max))
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as out:
            out.writelines(lines)
        print(f"wrote {args.max - args.min + 1} rows to {args.csv}")
    else:
        sys.stdout.writelines(lines)
    return 0


def _cmd_cycles(args) -> int:
    from .analysis import discover_cycles

    doc = _load_document(args.netlist)
    if args.window:
        match = _WINDOW_RE.fullmatch(args.window)
        if match is None:
            raise ValueError(f"--window must look like -44..44, got {args.window!r}")
        try:
            lo, hi = int(match.group(1)), int(match.group(2))
        except ValueError:  # more digits than sys.get_int_max_str_digits()
            limit = sys.get_int_max_str_digits()
            raise ValueError(f"--window has an end of more than {limit} digits") from None
        if lo > hi:
            raise ValueError(f"empty window {args.window!r}")
    else:
        lo, hi = -4 * doc.netlist.dimension, 4 * doc.netlist.dimension
    if hi - lo + 1 > MAX_WINDOW:
        raise ValueError(
            f"window [{lo}, {hi}] holds {_int_text(hi - lo + 1)} values, more than {MAX_WINDOW}"
        )
    cycles = discover_cycles(device_for(doc.netlist, doc.variant), lo, hi)
    for cycle in cycles:
        print("cycle:", " ".join(str(v) for v in cycle.modes))
    if not cycles:
        print(f"no closed cycles in window [{lo}, {hi}]")
    return 0


def _cmd_export(args) -> int:
    from .serialization import export_dot

    doc = _load_document(args.netlist)
    _write_or_print(export_dot(device_for(doc.netlist, doc.variant)), args.dot)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oamcycle",
        description="Synthesize, simulate and verify cyclic OAM mode-shift circuits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="synthesize a netlist and write it as JSON")
    p.add_argument("d", type=_int, help="gate dimension (>= 2)")
    p.add_argument("--variant", choices=[v for v in VARIANTS if v != "shifted"],
                   default="standard")
    p.add_argument("--shift", type=_int, default=0, metavar="M",
                   help="operate on the OAM window starting at M")
    p.add_argument("--out", metavar="FILE", help="write here instead of stdout")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("simulate", help="propagate a state through a netlist")
    p.add_argument("netlist", help="netlist JSON file")
    p.add_argument("--input", required=True, metavar="STATE",
                   help="e.g. \"0.6*|2> + 0.8i*|7>\"")
    p.add_argument("--mode", choices=("strict", "physical"), default="strict")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("verify", help="check a synthesized gate against its oracle")
    p.add_argument("d", type=_int, help=f"gate dimension, from 2 to {_MAX_BITS} bits")
    p.add_argument("--variant", choices=VARIANTS, default="standard")
    p.add_argument("--shift", type=_int, default=0, metavar="M",
                   help=f"operate on the OAM window starting at M; at most {_MAX_BITS} bits")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("scaling", help="splitter counts over a dimension range")
    p.add_argument("--min", type=_int, default=3)
    p.add_argument("--max", type=_int, default=500,
                   help=f"last dimension; at most {MAX_WINDOW} dimensions from --min")
    p.add_argument("--csv", metavar="FILE")
    p.set_defaults(func=_cmd_scaling)

    p = sub.add_parser("cycles", help="find closed OAM orbits in a window")
    p.add_argument("netlist")
    p.add_argument("--window", metavar="LO..HI",
                   help=f"default: -4d..4d for the netlist's dimension; "
                        f"at most {MAX_WINDOW} values")
    p.set_defaults(func=_cmd_cycles)

    p = sub.add_parser("export", help="render a netlist as Graphviz DOT")
    p.add_argument("netlist")
    p.add_argument("--dot", metavar="FILE", help="write here instead of stdout")
    p.set_defaults(func=_cmd_export)
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # a window like -44..44, or a state like -|1>, looks like an option flag to argparse
    for i in range(len(argv) - 1):
        if argv[i] in ("--window", "--input") and argv[i + 1].startswith("-"):
            argv[i : i + 2] = [f"{argv[i]}={argv[i + 1]}"]
            break
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:  # an OSError, but the reader left, not the document
        return 1
    except (NonMultipleMode, NormDrift, HopBudgetExceeded) as exc:
        print(f"simulation failed: {exc}", file=sys.stderr)
        return 1
    except (ParseError, SchemaVersionMismatch, InvalidDimension, NotSimplifiable,
            ZeroState, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    code = main()
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        # nothing more reaches the reader; point stdout at devnull so that the
        # flush at interpreter shutdown has nothing to report
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    entry()
