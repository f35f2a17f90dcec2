"""In-memory span recorder that wraps oamcycle's public functions from outside.

`Tracer.install` rebinds every module attribute that refers to a traced
function (``from .elements import splitter_unitary`` makes a second
reference in simulation, which is rebound too), so no file of the
package changes.  Each call records a span: name, start, end and the
span that was open when it started.  Self time is a span's duration
minus the part covered by its child spans; hook time (oracle work done
for a counter) is charged to no layer.
"""

from __future__ import annotations

import array
import gzip
import json
import sys
import time

import oracle

#: (module, function) pairs wrapped in the traced run, in report order
LAYERS = (
    ("elements", "splitter_unitary"),
    ("elements", "splitter_route_strict"),
    ("simulation", "apply_netlist"),
    ("simulation", "apply_portgraph"),
    ("model", "extract_permutation"),
    ("analysis", "verify_gate"),
    ("analysis", "discover_cycles"),
    ("synthesis", "synth_arbitrary"),
    ("synthesis", "simplify"),
    ("portgraph", "netlist_to_portgraph"),
    ("portgraph", "contract_mirrors"),
    ("serialization", "serialize"),
    ("serialization", "parse"),
    ("serialization", "parse_state"),
    ("serialization", "format_state"),
    ("serialization", "export_dot"),
    ("cli", "main"),
)

RAISE_COUNTED = {"simulation.apply_netlist", "simulation.apply_portgraph"}


class Tracer:
    def __init__(self):
        self.names = [f"{mod}.{fn}" for mod, fn in LAYERS]
        self.calls = [0] * len(LAYERS)
        self.self_ns = [0] * len(LAYERS)
        self.raised = [0] * len(LAYERS)
        self.span_name = array.array("B")
        self.span_parent = array.array("i")
        self.span_start = array.array("q")
        self.span_end = array.array("q")
        self._open: list[int] = []  # indices of open spans
        self._child_ns: list[int] = []  # child time accumulated per open span
        self._undo: list[tuple[object, str, object]] = []
        self.hook_ns = 0
        self.probed = 0
        self.mapped = 0
        self.out_components = 0
        self.extra_components = 0
        self._graph_source: dict[int, tuple] = {}

    # --- wrapping -------------------------------------------------------

    def _wrap(self, layer: int, fn, hook=None):
        counts_raise = self.names[layer] in RAISE_COUNTED
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(self.span_start)
            self.span_name.append(layer)
            self.span_parent.append(self._open[-1] if self._open else -1)
            self._open.append(idx)
            self._child_ns.append(0)
            start = clock()
            self.span_start.append(start)
            self.span_end.append(start)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                if counts_raise:
                    self.raised[layer] += 1
                raise
            finally:
                end = clock()
                self.span_end[idx] = end
                self._open.pop()
                child = self._child_ns.pop()
                self.calls[layer] += 1
                self.self_ns[layer] += end - start - child
                if self._child_ns:
                    self._child_ns[-1] += end - start
            if hook is not None:
                hook_start = clock()
                hook(args, kwargs, result)
                hook_ns = clock() - hook_start
                self.hook_ns += hook_ns
                if self._child_ns:  # keep oracle work out of the caller's self time
                    self._child_ns[-1] += hook_ns
            return result

        return traced

    def install(self) -> None:
        hooks = {
            "model.extract_permutation": self._on_permutation,
            "simulation.apply_netlist": self._on_apply,
            "simulation.apply_portgraph": self._on_apply,
            "synthesis.simplify": self._on_simplify,
        }
        modules = [m for name, m in sys.modules.items() if name.startswith("oamcycle")]
        for layer, (mod, fn) in enumerate(LAYERS):
            original = getattr(sys.modules[f"oamcycle.{mod}"], fn)
            wrapper = self._wrap(layer, original, hooks.get(self.names[layer]))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._undo.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._undo):
            setattr(module, attr, original)
        self._undo.clear()
        self._graph_source.clear()

    # --- counters measured where the work happens -----------------------

    def _on_permutation(self, args, kwargs, result) -> None:
        domain = args[1] if len(args) > 1 else kwargs["domain"]
        self.probed += len(domain)
        self.mapped += len(result)

    def register_graph(self, graph, netlist) -> None:
        """Remember the standard netlist a folded graph realizes."""
        self._graph_source[id(graph)] = (graph, oracle.element_tuples(netlist.elements))

    def _on_simplify(self, args, kwargs, graph) -> None:
        self.register_graph(graph, args[0] if args else kwargs["netlist"])

    def _on_apply(self, args, kwargs, result) -> None:
        device, state = args[0], args[1]
        config = args[2] if len(args) > 2 else kwargs.get("config")
        if hasattr(device, "elements"):
            elements = oracle.element_tuples(device.elements)
        else:  # a folded graph realizes the standard netlist it came from
            elements = self._graph_source[id(device)][1]
        amps = {(str(p), ell): a for (p, ell), a in state.items()}
        if config is not None and config.mode == "physical":
            expected = oracle.support(oracle.run_physical(elements, amps))
        else:
            expected = {oracle.run_strict(elements, p, ell) for (p, ell) in amps}
        self.out_components += len(result)
        self.extra_components += sum(1 for (p, ell) in result.keys() if (str(p), ell) not in expected)

    # --- report ---------------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        out: dict[str, tuple[float, str]] = {}
        for layer, name in enumerate(self.names):
            out[f"{name}.calls"] = (self.calls[layer], "count")
            out[f"{name}.self_ms"] = (self.self_ns[layer] / 1e6, "ms")
            if name in RAISE_COUNTED:
                out[f"{name}.raised"] = (self.raised[layer], "count")
        out["simulation.out_components"] = (self.out_components, "count")
        out["simulation.extra_components"] = (self.extra_components, "count")
        out["model.extract_permutation.mapped_ratio"] = (
            self.mapped / self.probed if self.probed else 0.0,
            "ratio",
        )
        out["trace.spans"] = (len(self.span_start), "count")
        out["trace.hook_ms"] = (self.hook_ns / 1e6, "ms")
        return out

    def write(self, path) -> None:
        """Spans as a gzip file: one JSON header line, then the four arrays."""
        header = {
            "names": self.names,
            "count": len(self.span_start),
            "arrays": [
                ["name", "B"],
                ["parent", "i"],
                ["start_ns", "q"],
                ["end_ns", "q"],
            ],
            "byteorder": sys.byteorder,
        }
        with gzip.open(path, "wb", compresslevel=1) as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
                arr.tofile(fh)
