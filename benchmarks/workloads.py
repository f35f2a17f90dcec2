"""The four benchmark workloads, their seeded inputs and their output checks.

Every workload is a closed loop: one operation at a time, the next one
starting when the previous returns.  Inputs come in rounds, and round r
of a seed is always the same.  A run builds rounds 0..ROUNDS_PER_RUN-1
and cycles through them, so the operations it attempts, and which of
them fail, depend on the seed only and not on how many cycles fit in
its time.  Each round draws log2(d) once per octave as an antithetic
pair (u, 1-u); u walks a golden-ratio sequence from a seeded offset, so
the rounds of a run fill every octave evenly.  The mix of sizes, and
with it a run's total work, then hardly depends on the seed, which
keeps the run-to-run spread of the metrics small.

* verify-sweep   strict `verify_gate`, d in 2..4096, all four variants
* cycle-search   `discover_cycles` over -4d..4d, d in 2..256, standard
                 netlist and folded graph of the same d
* physical-states  superpositions through `apply_netlist` and
                 `apply_portgraph` in physical mode, plus physical
                 `verify_gate`, d in 2..1024
* cli-session    a fixed script of `python -m oamcycle` commands, d in 64..128

An operation's ``check`` returns None or ``(reason, known)``.  ``known``
is true only for the wrong FAIL verdict of physical `verify_gate` at
d >= 12 on a gate the oracle proves correct, when every violation is a
window value left unmapped: float dust (~5e-15) at exact multiples of a
splitter's order survives the 1e-15 prune, so the probe's output has
stray components (ROADMAP item 2).  Those operations still count as
failed; the fail_ratio of physical-states is expected to drop when item
2 lands.  Any other physical failure is unknown.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import re
import shutil
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from oamcycle import analysis, cli, simulation
from oamcycle.model import ModeVector, r_path
from oamcycle.simulation import SimulationConfig
from oamcycle.synthesis import simplify, synth_arbitrary

import oracle

VARIANTS = ("standard", "simplified", "inverse", "shifted")
PHYSICAL = SimulationConfig(mode="physical")
STATE_TOL = 1e-9  # allowed state error, relative to the input norm
PRINTED_TOL = 1e-8  # the CLI prints amplitudes with 10 significant digits


@dataclass
class Op:
    kind: str
    probes: int
    call: Callable[[], object]
    check: Callable[[object], tuple[str, bool] | None]
    graphs: tuple = field(default=())  # (graph, netlist) pairs for the tracer


GOLDEN = (5**0.5 - 1) / 2

#: distinct rounds a run cycles through; even, so PhysicalStates.verify_d
#: takes the upper half of octave 3 exactly half the time
ROUNDS_PER_RUN = 4


class Workload:
    """Rounds of operations for one seed; round r is always the same."""

    in_process = False  # cli-session runs cli.main in-process when traced

    def __init__(self, seed: int, root: Path):
        self.seed = seed
        self.root = root
        offsets = random.Random(f"{type(self).__name__}:{seed}")
        self.offsets = [offsets.random() for _ in range(16)]

    def fraction(self, r: int, stratum: int) -> float:
        """Round r's position in [0, 1) for one stratum: low-discrepancy over r."""
        return (self.offsets[stratum] + r * GOLDEN) % 1.0

    def octave_pairs(self, r: int, lo: int, hi: int) -> list[tuple[float, float]]:
        """log2(d) for octaves lo..hi-1, one antithetic pair each."""
        pairs = []
        for octave in range(lo, hi):
            u = self.fraction(r, octave) / 2
            pairs.append((octave + u, octave + 1 - u))
        return pairs

    def round(self, r: int) -> list[Op]:
        raise NotImplementedError

    def close(self) -> None:
        """Remove whatever the workload wrote."""


def _amps(state: ModeVector) -> dict:
    return {(str(p), ell): a for (p, ell), a in state.items()}


def _gate_is_correct(d: int) -> bool:
    elements = oracle.element_tuples(synth_arbitrary(d).elements)
    return oracle.strict_map(elements, range(d), "r0", "r0") == oracle.increment(d, "standard")


#: smallest d at which physical verify_gate meets the float dust of ROADMAP item 2
KNOWN_DUST_MIN_D = 12
_UNMAPPED = re.compile(r"\|-?\d+> mapped to None, expected \|-?\d+>")


def check_report(report, d: int, variant: str, shift: int, physical: bool):
    count = oracle.splitter_count(d, variant)
    if report.count_actual != count or report.count_predicted != count:
        return (f"d={d} {variant}: splitters {report.count_actual}/"
                f"{report.count_predicted}, oracle {count}", False)
    expected = oracle.increment(d, variant, shift)
    if report.passed:
        if report.mapping != expected:
            return (f"d={d} {variant}: PASS with a wrong mapping", False)
        return None
    if report.mapping == expected or not _gate_is_correct(d):
        return (f"d={d} {variant}: wrong verdict {report.violations[:1]}", False)
    known = physical and d >= KNOWN_DUST_MIN_D and all(map(_UNMAPPED.fullmatch, report.violations))
    return (f"d={d} {variant}: FAIL verdict on a correct gate {report.violations[:1]}", known)


def verify_op(d: int, variant: str, shift: int, physical: bool) -> Op:
    config = PHYSICAL if physical else SimulationConfig()
    return Op(
        kind="verify-physical" if physical else f"verify-{variant}",
        probes=d,
        call=lambda: analysis.verify_gate(d, variant=variant, shift=shift, config=config),
        check=lambda report: check_report(report, d, variant, shift, physical),
    )


class VerifySweep(Workload):
    """Strict verification is the paper's central claim checked by simulation."""

    def round(self, r: int) -> list[Op]:
        rng = random.Random(f"verify-sweep:{self.seed}:{r}")
        ops = []
        for octave, pair in enumerate(self.octave_pairs(r, 1, 12)):
            # each d of the pair takes two variants; which d takes the costly
            # inverse/shifted pair alternates, so a round's work stays level
            halves = (VARIANTS[:2], VARIANTS[2:]) if (r + octave) % 2 else (VARIANTS[2:], VARIANTS[:2])
            for x, variants in zip(pair, halves):
                d = round(2**x)
                for variant in variants:
                    shift = rng.choice((-1, 1)) * rng.randint(1, 4 * d) if variant == "shifted" else 0
                    ops.append(verify_op(d, variant, shift, physical=False))
        return ops


class CycleSearch(Workload):
    """8d+1 probes per device, orbit tracing, and every cycle edge simulated
    again.  At the seed commit no probe raises and about 7 per device leak
    to another path; an engine tuned only for all-success sweeps shows here."""

    def round(self, r: int) -> list[Op]:
        ops = []
        for pair in self.octave_pairs(r, 1, 8):
            for x in pair:
                d = round(2**x)
                netlist = synth_arbitrary(d)
                graph = simplify(netlist)
                expected = _LazyCycles(netlist, d)
                for kind, device in (("cycles-netlist", netlist), ("cycles-graph", graph)):
                    ops.append(Op(
                        kind=kind,
                        probes=8 * d + 1,
                        call=lambda device=device, d=d: analysis.discover_cycles(device, -4 * d, 4 * d),
                        check=lambda found, expected=expected: expected.compare(found),
                        graphs=((graph, netlist),),
                    ))
        return ops


class _LazyCycles:
    """Oracle cycle set of the standard netlist, shared by its folded graph."""

    def __init__(self, netlist, d: int):
        self.netlist, self.d, self.cycles = netlist, d, None

    def compare(self, found):
        if self.cycles is None:
            elements = oracle.element_tuples(self.netlist.elements)
            window = range(-4 * self.d, 4 * self.d + 1)
            mapping = oracle.strict_map(elements, window, "r0", "r0")
            self.cycles = oracle.closed_cycles(mapping, self.d)
        got = [c.modes for c in found]
        if got != self.cycles:
            return (f"d={self.d}: {len(got)} cycles, oracle {len(self.cycles)}", False)
        return None


def random_state(rng: random.Random, d: int, n: int) -> ModeVector:
    """n components, a quarter (more when d < n) off the window 0..d-1."""
    n_in = min(n - n // 4, d)
    inside = rng.sample(range(d), n_in)
    outside = rng.sample([v for v in range(-2 * d - 16, 3 * d + 16) if not 0 <= v < d], n - n_in)
    return ModeVector(
        {(r_path(0), ell): complex(rng.gauss(0, 1), rng.gauss(0, 1)) for ell in inside + outside}
    )


def check_state(state_in: ModeVector, out: ModeVector, elements: tuple):
    amps_in, amps_out = _amps(state_in), _amps(out)
    if not oracle.probability_ok(amps_in, amps_out, STATE_TOL):
        return ("probability not conserved", False)
    err = oracle.distance(amps_out, oracle.run_physical(elements, amps_in))
    if err > STATE_TOL * math.sqrt(oracle.norm2(amps_in)):
        return (f"state differs from the oracle by {err:.3g}", False)
    return None


class PhysicalStates(Workload):
    """The 2x2 unitary, amplitude arithmetic and support growth dominate here."""

    STATES_PER_DEVICE = 5

    def round(self, r: int) -> list[Op]:
        rng = random.Random(f"physical-states:{self.seed}:{r}")
        ops = []
        for octave, pair in enumerate(self.octave_pairs(r, 1, 10), start=1):
            for x in pair:
                d = round(2**x)
                netlist = synth_arbitrary(d)
                graph = simplify(netlist)
                elements = oracle.element_tuples(netlist.elements)
                for _ in range(self.STATES_PER_DEVICE):
                    n = rng.randint(1, 32)
                    for kind, n_comp, apply, device in (
                        ("apply-netlist", n, "apply_netlist", netlist),
                        ("apply-graph", 33 - n, "apply_portgraph", graph),
                    ):
                        state = random_state(rng, d, n_comp)
                        ops.append(Op(
                            kind=kind,
                            probes=len(state),
                            call=lambda a=apply, g=device, s=state: getattr(simulation, a)(g, s, PHYSICAL),
                            check=lambda out, s=state, e=elements: check_state(s, out, e),
                            graphs=((graph, netlist),),
                        ))
            ops.append(verify_op(self.verify_d(r, octave), "standard", 0, physical=True))
        return ops

    def verify_d(self, r: int, octave: int) -> int:
        """An integer antithetic pair per octave and pair of rounds: lo + k
        on the even round, 2*lo - 1 - k on the odd one.

        The pair's sum is fixed, so a run's physical verification work
        hardly depends on the seed.  In octave 3 the lower half is 8..11
        and the upper 12..15, so the known failures (d >= 12) of a cycle
        of ROUNDS_PER_RUN rounds do not depend on it either.
        """
        lo = 2**octave
        k = int(self.fraction(r - r % 2, octave) * lo / 2)
        return lo + k if r % 2 == 0 else 2 * lo - 1 - k


# --- cli-session ------------------------------------------------------------

_README_D2 = """{
  "schema_version": "1",
  "dimension": 2,
  "variant": "standard",
  "input_path": "r0",
  "output_path": "r0",
  "elements": [
    {"kind": "LI", "m": 1, "paths": ["r0", "r1"]},
    {"kind": "HOLOG", "v": -1, "paths": ["r1"]},
    {"kind": "HOLOG", "v": -2, "paths": ["r1"]},
    {"kind": "HOLOG", "v": 1, "paths": ["r1"]},
    {"kind": "LI", "m": 1, "paths": ["r0", "r1"]},
    {"kind": "HOLOG", "v": 1, "paths": ["r0"]}
  ]
}
"""


def _parse_printed_state(text: str) -> dict:
    state = {}
    for line in text.splitlines():
        amp_text, rest = line.split("|", 1)
        ell_text, path = rest.split("> @ ")
        amp_text = {"": "1", "-": "-1"}.get(amp_text, amp_text)
        state[(path.strip(), int(ell_text))] = complex(amp_text)
    return state


def _document(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def _check_document(doc: dict, d: int, variant: str, shift: int):
    elements = oracle.element_tuples(doc["elements"])
    window = range(shift, shift + d)
    got = oracle.strict_map(elements, window, doc["input_path"], doc["output_path"])
    if doc["variant"] != variant or doc["dimension"] != d or got != oracle.increment(d, variant, shift):
        return (f"synth d={d} {variant}: document does not realize the gate", False)
    counted = sum(1 for kind, *_ in elements if kind == oracle.LI)
    if counted != oracle.splitter_count(d, "standard"):
        return (f"synth d={d} {variant}: {counted} splitters", False)
    return None


class CliSession(Workload):
    """Every command pays interpreter start and `import oamcycle`, which no
    in-process workload does."""

    def __init__(self, seed: int, root: Path):
        super().__init__(seed, root)
        self.workdir = root / "benchmarks" / "out" / f"cli-{os.getpid()}"

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)

    def run(self, argv: list[str]) -> tuple[int, str]:
        if self.in_process:
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(argv)
            return code, out.getvalue()
        env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        done = subprocess.run(
            [sys.executable, "-m", "oamcycle", *argv],
            cwd=self.root, env=env, capture_output=True, text=True, timeout=120,
        )
        return done.returncode, done.stdout

    def _op(self, kind: str, probes: int, argv: list[str], check) -> Op:
        def checked(result):
            code, stdout = result
            if code != 0:
                return (f"{kind}: exit code {code}", False)
            return check(stdout)

        return Op(kind=f"cli-{kind}", probes=probes, call=lambda: self.run(argv), check=checked)

    def round(self, r: int) -> list[Op]:
        rng = random.Random(f"cli-session:{self.seed}:{r}")
        # d in 64..128: the probe count grows with d while the command time
        # hardly does, so a wider range would make probes_per_s seed-bound
        d = 64 + round(64 * self.fraction(r, 0))
        shift = rng.choice((-1, 1)) * rng.randint(1, 4 * d)
        self.workdir.mkdir(parents=True, exist_ok=True)
        std, simp, inv, shf = (self.workdir / f"{name}.json" for name in ("std", "simp", "inv", "shf"))
        ops = [
            self._op("synth", 0, ["synth", str(d), "--out", str(std)],
                     lambda _: _check_document(_document(std), d, "standard", 0)),
            self._op("synth", 0, ["synth", str(d), "--variant", "simplified", "--out", str(simp)],
                     lambda _: _check_document(_document(simp), d, "simplified", 0)),
            self._op("synth", 0, ["synth", str(d), "--variant", "inverse", "--out", str(inv)],
                     lambda _: _check_document(_document(inv), d, "inverse", 0)),
            self._op("synth", 0, ["synth", str(d), "--shift", str(shift), "--out", str(shf)],
                     lambda _: _check_document(_document(shf), d, "shifted", shift)),
        ]
        for path, mode in ((std, "strict"), (inv, "strict"), (simp, "physical")):
            kets = rng.sample(range(d), min(d, 3))
            amps = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in kets]
            scale = math.sqrt(sum(abs(a) ** 2 for a in amps))
            amps = [a / scale for a in amps]
            text = " + ".join(f"({a.real!r}{a.imag:+.17g}j)*|{k}>" for a, k in zip(amps, kets))
            state_in = {("r0", k): a for a, k in zip(amps, kets)}
            ops.append(self._op(
                f"simulate-{mode}", len(kets),
                ["simulate", str(path), "--input", text, "--mode", mode],
                lambda stdout, p=path, s=state_in, m=mode: self._check_simulated(p, s, m, stdout),
            ))
        variant = rng.choice(VARIANTS)
        argv = ["verify", str(d), "--variant", variant]
        vshift = shift if variant == "shifted" else 0
        if vshift:
            argv += ["--shift", str(vshift)]
        count = oracle.splitter_count(d, variant)
        ops.append(self._op("verify", d, argv, lambda out: None
                            if out.endswith("PASS\n") and f"splitters: {count} (predicted {count})" in out
                            else (f"verify d={d} {variant}: {out.splitlines()[-1:]}", False)))
        cyc_path = std if r % 2 == 0 else simp
        ops.append(self._op("cycles", 8 * d + 1, ["cycles", str(cyc_path)],
                            lambda out: self._check_cycles(std, d, out)))
        ops.append(self._op("export", 0, ["export", str(simp)], lambda out: None
                            if out.startswith("digraph device {")
                            and out.count('label="LI_') == oracle.splitter_count(d, "simplified")
                            else (f"export d={d}: wrong splitter nodes", False)))
        top = max(3, d)
        ops.append(self._op("scaling", 0, ["scaling", "--min", "3", "--max", str(top)],
                            lambda out: self._check_scaling(out, top)))
        return ops

    @staticmethod
    def _check_simulated(path: Path, state_in: dict, mode: str, stdout: str):
        doc = _document(path)
        elements = oracle.element_tuples(doc["elements"])
        if mode == "physical":
            expected = oracle.run_physical(elements, state_in)
        else:
            expected = {oracle.run_strict(elements, p, ell): a for (p, ell), a in state_in.items()}
        if oracle.distance(_parse_printed_state(stdout), expected) > PRINTED_TOL:
            return (f"simulate {path.name}: output differs from the oracle", False)
        return None

    @staticmethod
    def _check_cycles(std: Path, d: int, stdout: str):
        elements = oracle.element_tuples(_document(std)["elements"])
        mapping = oracle.strict_map(elements, range(-4 * d, 4 * d + 1), "r0", "r0")
        expected = [" ".join(map(str, c)) for c in oracle.closed_cycles(mapping, d)]
        got = [line[len("cycle: "):] for line in stdout.splitlines() if line.startswith("cycle: ")]
        return None if got == expected else (f"cycles d={d}: {len(got)} found, oracle {len(expected)}", False)

    @staticmethod
    def _check_scaling(stdout: str, top: int):
        rows = stdout.splitlines()[1:]
        if len(rows) != top - 2:
            return (f"scaling: {len(rows)} rows", False)
        for row in rows:
            d, actual, predicted, n_s, naive, _ = row.split(",")
            d = int(d)
            want = (oracle.splitter_count(d, "standard"),) * 2 + (
                oracle.splitter_count(d, "simplified"), 2 * (d - 1))
            if (int(actual), int(predicted), int(n_s), int(naive)) != want:
                return (f"scaling: row {row}", False)
        return None


WORKLOADS = {
    "verify-sweep": VerifySweep,
    "cycle-search": CycleSearch,
    "physical-states": PhysicalStates,
    "cli-session": CliSession,
}


def self_check_ops() -> list[Op]:
    """The README's d=2 netlist must pass the workloads' own checkers; with
    one hologram charge flipped it must be counted as a failed operation.

    Each netlist goes through `check_report`, as a PASS report carrying the
    mapping that `apply_netlist` gives it, and through cli-session's
    document check.
    """
    from oamcycle.analysis import VerificationReport
    from oamcycle.model import extract_permutation
    from oamcycle.serialization import parse
    from oamcycle.synthesis import count_beamsplitters, predict_count

    good = json.loads(_README_D2)
    bad = json.loads(_README_D2)
    bad["elements"][-1]["v"] = -bad["elements"][-1]["v"]
    ops = []
    for name, doc in (("readme-d2", good), ("readme-d2-flipped", bad)):
        netlist = parse(json.dumps(doc)).netlist

        def claim_pass(netlist=netlist):
            mapping = extract_permutation(
                lambda s: simulation.apply_netlist(netlist, s), range(2), r_path(0), r_path(0)
            )
            return VerificationReport(
                d=2, variant="standard", shift=0, permutation_ok=True, mapping=mapping,
                count_actual=count_beamsplitters(netlist), count_predicted=predict_count(2)[0],
                bound=None, violations=(),
            )

        ops.append(Op(kind=name, probes=2, call=claim_pass,
                      check=lambda report: check_report(report, 2, "standard", 0, physical=False)))
        ops.append(Op(kind=name, probes=0, call=lambda doc=doc: doc,
                      check=lambda doc: _check_document(doc, 2, "standard", 0)))
    return ops
