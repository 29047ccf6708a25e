"""Per-layer span tracing, installed from outside the program.

The traced run wraps the public functions and methods of each layer's
modules (see :data:`LAYERS`) with timing wrappers, so the program itself
stays untouched and ``repro.obs`` stays detached. Every wrapped call is a
span: name, start, end, parent span and op id, kept in memory and written
out as a chrome trace when the run ends.

Generator functions are DES processes or parts of one. For those, each
*resumption* of the generator is a span, not the call that creates it:
creating a generator runs none of its body. Every generator handed to
``Simulator.process`` is wrapped the same way, named after the module
that defines it, so process time is charged to the layer whose code runs.

A span's self time is its duration minus the time its child spans cover.
Spans nest strictly (the program is single-threaded and the simulator
resumes one generator at a time), so the self times inside one op sum to
the op's wall time minus the op root's own share.
"""

from __future__ import annotations

import enum
import functools
import importlib
import inspect
import json
import re
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Any, Callable, Iterator, Optional

#: Layer -> the ``repro`` modules whose public functions are traced, the
#: per-layer metrics named after it, the end-to-end metrics a change to it
#: should move, and the workloads it runs on. ``BENCHMARK.json`` cannot
#: hold this table (its keys are fixed), so later changes state their
#: predictions against this one.
LAYERS = {
    "sql": {
        "modules": ["repro.sql", "repro.sql.lexer", "repro.sql.parser",
                    "repro.sql.binder"],
        "should_move": ["latency_p50_ms"],
        "on": "olap-scan; absent elsewhere",
    },
    "serve": {
        "modules": ["repro.serve.frontend", "repro.serve.cache"],
        "should_move": ["ops_per_s", "latency_p50_ms"],
        "on": "serve-mix; absent elsewhere",
    },
    "sched": {
        "modules": ["repro.sched.scheduler", "repro.sched.qos"],
        "should_move": ["sim_ops_per_vs", "ops_per_s"],
        "on": "serve-mix, htap-mixed; light on olap-scan",
    },
    "writepath": {
        "modules": ["repro.writepath", "repro.host.dml"],
        "should_move": ["latency_p90_ms", "sim_latency_p90_ms"],
        "on": "htap-mixed; zero elsewhere except serve-mix updates",
    },
    "host": {
        "modules": ["repro.host.db", "repro.host.executor",
                    "repro.host.planner", "repro.host.optimizer",
                    "repro.host.bufferpool", "repro.host.catalog",
                    "repro.host.machine"],
        "should_move": ["latency_p90_ms"],
        "on": "olap-scan (host placements)",
    },
    "engine": {
        "modules": ["repro.engine.expressions", "repro.engine.kernels",
                    "repro.engine.plans", "repro.engine.pruning"],
        "should_move": ["ops_per_s"],
        "on": "olap-scan, serve-mix misses; no change on cache hits",
    },
    "storage": {
        "modules": ["repro.storage.layout", "repro.storage.pax",
                    "repro.storage.nsm", "repro.storage.page",
                    "repro.storage.unitdecode", "repro.storage.stats",
                    "repro.storage.heapfile"],
        "should_move": ["setup_s", "ops_per_s", "latency_p90_ms"],
        "on": "setup_s (encode) on all; ops_per_s (decode) on olap-scan; "
              "latency_p90_ms (re-encode on flush) on htap-mixed",
    },
    "smart": {
        "modules": ["repro.smart.device", "repro.smart.runtime",
                    "repro.smart.protocol", "repro.smart.programs.base",
                    "repro.smart.programs.shared"],
        "should_move": ["ops_per_s"],
        "on": "olap-scan",
    },
    "flash": {
        "modules": ["repro.flash.ssd", "repro.flash.controller",
                    "repro.flash.ftl", "repro.flash.gc", "repro.flash.nand",
                    "repro.flash.dram", "repro.flash.geometry"],
        "should_move": ["write_amplification", "sim_latency_p90_ms",
                        "sim_energy_j_per_op"],
        "on": "write_amplification and sim_latency_p90_ms on htap-mixed; "
              "sim_energy_j_per_op on olap-scan, where GC counts are zero",
    },
    "sim": {
        "modules": ["repro.sim.engine", "repro.sim.resources",
                    "repro.sim.stats"],
        "should_move": ["ops_per_s", "latency_p50_ms"],
        "on": "olap-scan; light on htap-mixed",
    },
}

#: Methods that belong to another layer than their module's.
_LAYER_OVERRIDES = {
    "Database.update_rows": "writepath",
    "Database.flush_table": "writepath",
}

#: Per-page, per-token and per-event helpers: left to their callers' spans
#: (always in the same layer, or a codec lookup) to keep the traced run's
#: overhead and span count low.
_UNTRACED = {
    "Token.matches", "BufferPool.lookup", "BufferPool.insert",
    "BufferPool.contains", "EvalContext.charge_extract",
    "PagePruner.page_might_match", "ExtentStats.page", "NandArray.read",
    "NandArray.program", "NandArray.state", "NandGeometry.channel_of",
    "NandGeometry.ppn", "NandGeometry.unflatten", "BusyTracker.adjust",
    "BusyTracker.set_level",
}

#: Storage spans split into encode (load, re-encode on update, page stats)
#: and decode (everything on the read path).
_ENCODE = re.compile(r"encode|build|from_rows|from_pages|from_values|refresh")

def _decoded_nbytes(columns) -> int:
    return sum(values.nbytes for values in columns.values())


#: Counts taken when a traced call returns: function -> (count name,
#: amount from the call's positional args, keyword args and result).
_PROBES = {
    "repro.storage.pax.encode_pax_page":
        ("storage.pages_encoded", lambda args, kwargs, result: 1),
    "repro.storage.nsm.encode_nsm_page":
        ("storage.pages_encoded", lambda args, kwargs, result: 1),
    "repro.storage.pax.encode_pax_pages":
        ("storage.pages_encoded", lambda args, kwargs, result: len(result)),
    "repro.storage.nsm.encode_nsm_pages":
        ("storage.pages_encoded", lambda args, kwargs, result: len(result)),
    "repro.storage.unitdecode.UnitColumns.decode":
        ("storage.decoded_bytes",
         lambda args, kwargs, result: _decoded_nbytes(result)),
    "repro.storage.layout.decode_columns":
        ("storage.decoded_bytes",
         lambda args, kwargs, result: _decoded_nbytes(result)),
    "repro.storage.layout.decode_page":
        ("storage.decoded_bytes", lambda args, kwargs, result: result.nbytes),
    "repro.engine.kernels.BatchKernel.process_unit":
        ("engine.unit_pages", lambda args, kwargs, result: len(args[1])),
    "repro.engine.kernels.BatchKernel.process_decoded_unit":
        ("engine.unit_pages", lambda args, kwargs, result: len(args[2])),
    # The per-page fallback; a zero-row call (a fully skipped scan) holds
    # no page.
    "repro.engine.kernels.PageKernel.process_page":
        ("engine.page_kernel_pages", lambda args, kwargs, result: 1),
    "repro.engine.kernels.PageKernel.process_decoded":
        ("engine.page_kernel_pages",
         lambda args, kwargs, result: int(kwargs.get("n", args[-1]) > 0)),
}

#: Batch-kernel entry points: one call per I/O unit.
UNIT_KERNEL_SPANS = ("engine:kernels.BatchKernel.process_unit",
                     "engine:kernels.BatchKernel.process_decoded_unit")

#: Flash I/O units: one controller read or write per unit.
IO_UNIT_SPANS = ("flash:controller.FlashController.read_lpns",
                 "flash:controller.FlashController.write_lpns")

#: ``Simulator`` calls that schedule work, counted as ``sim.events``.
EVENT_SPANS = ("sim:engine.Simulator.event", "sim:engine.Simulator.timeout",
               "sim:engine.Simulator.process", "sim:engine.Simulator.all_of")

#: Name and layer of the root span the benchmark opens around each request
#: and around the traced setup; its self time is benchmark code.
OP_ROOT = "op"


def layer_of_module(module: str) -> Optional[str]:
    """The layer whose module list holds ``module``, or None."""
    for layer, spec in LAYERS.items():
        if module in spec["modules"]:
            return layer
    return None


class Tracer:
    """In-memory span recorder with per-layer self-time accounting."""

    def __init__(self):
        #: Current op id; spans are recorded only while it is not None.
        self.op: Optional[Any] = None
        self.names: list[str] = []
        self.layers: list[str] = []
        self._ids: dict[str, int] = {}
        #: ``(name id, start, end, parent index, op, self seconds)``.
        self.spans: list[tuple] = []
        self._stack: list[list] = []
        self.counts: Counter = Counter()
        self._patches: list[tuple[Any, str, Any]] = []

    # -- spans -------------------------------------------------------------

    def name_id(self, name: str, layer: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.layers.append(layer)
        return nid

    def enter(self, nid: int) -> list:
        frame = [len(self.spans), nid, 0.0, 0.0]
        self.spans.append(None)
        self._stack.append(frame)
        frame[2] = time.perf_counter()
        return frame

    def exit(self, frame: list) -> None:
        end = time.perf_counter()
        stack = self._stack
        if stack[-1] is not frame:
            raise RuntimeError("span stack corrupted: spans do not nest")
        stack.pop()
        duration = end - frame[2]
        parent = -1
        if stack:
            stack[-1][3] += duration
            parent = stack[-1][0]
        self.spans[frame[0]] = (frame[1], frame[2], end, parent, self.op,
                                duration - frame[3])

    def begin_op(self, op: Any) -> list:
        """Open the root span of one op (or of the traced setup)."""
        if self._stack:
            raise RuntimeError("an op is already open")
        self.op = op
        return self.enter(self.name_id(OP_ROOT, OP_ROOT))

    def end_op(self, frame: list) -> None:
        self.exit(frame)
        self.op = None

    def resumptions(self, gen, nid: int):
        """Drive ``gen``, timing each resumption as one span."""
        value = None
        error = None
        while True:
            # A generator created inside an op may outlive it (a shared
            # scan kept for late attaches); it runs untraced afterwards.
            frame = self.enter(nid) if self.op is not None else None
            try:
                if error is None:
                    target = gen.send(value)
                else:
                    target = gen.throw(error)
            except StopIteration as stop:
                if frame is not None:
                    self.exit(frame)
                return stop.value
            except BaseException:
                if frame is not None:
                    self.exit(frame)
                raise
            if frame is not None:
                self.exit(frame)
            error = None
            try:
                value = yield target
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as exc:  # delivered into the inner generator
                value = None
                error = exc

    # -- instrumentation ---------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function; :meth:`uninstall` restores them."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        replaced: dict[int, tuple[Callable, Callable]] = {}
        for layer, spec in LAYERS.items():
            for module_name in spec["modules"]:
                module = importlib.import_module(module_name)
                for attr, value in list(vars(module).items()):
                    if attr.startswith("_"):
                        continue
                    if getattr(value, "__module__", None) != module_name:
                        continue
                    if inspect.isfunction(value):
                        wrapped = self._wrap(value, module_name,
                                             value.__qualname__, layer)
                        replaced[id(value)] = (value, wrapped)
                    elif inspect.isclass(value) and not issubclass(
                            value, (enum.Enum, BaseException)):
                        self._wrap_class(value, module_name, layer)
        # ``from x import f`` binds f in the importer too: rebind there.
        for module in list(sys.modules.values()):
            name = getattr(module, "__name__", "")
            if not (name == "repro" or name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                hit = replaced.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(module, attr, hit[1])
        from repro.sim.engine import Simulator
        self._patch(Simulator, "process",
                    self._wrap_process(Simulator.process))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _wrap_class(self, cls: type, module_name: str, layer: str) -> None:
        for attr, value in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            qualname = f"{cls.__qualname__}.{attr}"
            if qualname in _UNTRACED or qualname == "Simulator.process":
                continue  # Simulator.process: see _wrap_process
            if isinstance(value, staticmethod):
                self._patch(cls, attr, staticmethod(self._wrap(
                    value.__func__, module_name, qualname, layer)))
            elif isinstance(value, classmethod):
                self._patch(cls, attr, classmethod(self._wrap(
                    value.__func__, module_name, qualname, layer)))
            elif inspect.isfunction(value):
                self._patch(cls, attr, self._wrap(value, module_name,
                                                  qualname, layer))

    def _span_name(self, module_name: str, qualname: str,
                   layer: str) -> tuple[str, str]:
        layer = _LAYER_OVERRIDES.get(qualname, layer)
        if layer == "storage":
            layer = ("storage.encode" if _ENCODE.search(qualname)
                     else "storage.decode")
        short = module_name.split(".")[-1]
        return f"{layer.split('.')[0]}:{short}.{qualname}", layer

    def _wrap(self, fn: Callable, module_name: str, qualname: str,
              layer: str) -> Callable:
        name, layer = self._span_name(module_name, qualname, layer)
        nid = self.name_id(name, layer)
        full = f"{module_name}.{qualname}"
        tracer = self
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def traced_generator(*args, **kwargs):
                gen = fn(*args, **kwargs)
                if tracer.op is None:
                    return gen
                return tracer.resumptions(gen, nid)
            return traced_generator

        probe = _PROBES.get(full)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            frame = tracer.enter(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit(frame)
            if probe is not None:
                tracer.counts[probe[0]] += probe[1](args, kwargs, result)
            return result
        return traced

    def _wrap_process(self, original: Callable) -> Callable:
        tracer = self
        nid = self.name_id("sim:engine.Simulator.process", "sim")
        resumptions_code = Tracer.resumptions.__code__

        @functools.wraps(original)
        def process(sim, generator, name="process"):
            if tracer.op is None:
                return original(sim, generator, name)
            frame = tracer.enter(nid)
            try:
                if getattr(generator, "gi_code", None) is not \
                        resumptions_code:
                    generator = tracer.resumptions(
                        generator, tracer._process_id(generator))
                return original(sim, generator, name)
            finally:
                tracer.exit(frame)
        return process

    def _process_id(self, generator) -> int:
        code = generator.gi_code
        module_name = generator.gi_frame.f_globals.get("__name__", "")
        layer = layer_of_module(module_name) or "other"
        name, layer = self._span_name(module_name, code.co_qualname, layer)
        return self.name_id(name, layer)

    # -- results -----------------------------------------------------------

    def finished_spans(self) -> Iterator[tuple]:
        return (span for span in self.spans if span is not None)

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """``{layer: {"calls": n, "self_s": seconds}}`` over every span."""
        totals: dict[str, dict[str, float]] = {}
        for nid, __, __, __, __, self_s in self.finished_spans():
            layer = self.layers[nid]
            entry = totals.setdefault(layer, {"calls": 0, "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += self_s
        return totals

    def calls_by_name(self) -> Counter:
        counter: Counter = Counter()
        for span in self.finished_spans():
            counter[self.names[span[0]]] += 1
        return counter

    def check(self, op_walls: dict[Any, float]) -> list[str]:
        """Nesting and self-time invariants; returns the violations found.

        Every span lies inside its parent, no self time is negative, and
        the layer self times of each op sum to no more than the op's wall
        time as the benchmark measured it around the public call.
        """
        problems = []
        spans = self.spans
        per_op: dict[Any, float] = {}
        slack = 1e-6
        for index, span in enumerate(spans):
            if span is None:
                problems.append(f"span {index} never closed")
                continue
            nid, start, end, parent, op, self_s = span
            if end < start or self_s < -slack:
                problems.append(f"span {index} has negative time")
            if parent >= 0:
                outer = spans[parent]
                if outer is None or start < outer[1] or end > outer[2]:
                    problems.append(f"span {index} escapes its parent")
            if self.layers[nid] != OP_ROOT:
                per_op[op] = per_op.get(op, 0.0) + self_s
        for op, wall in op_walls.items():
            if per_op.get(op, 0.0) > wall + slack:
                problems.append(
                    f"op {op}: layer self time {per_op[op]:.6f}s exceeds "
                    f"its wall time {wall:.6f}s")
        return problems

    def chrome_trace(self, ops: Optional[set] = None) -> dict:
        """The spans as a Trace Event Format payload (one thread).

        ``ops`` limits the payload to the spans of those ops.
        """
        finished = [span for span in self.finished_spans()
                    if ops is None or span[4] in ops]
        origin = min((span[1] for span in finished), default=0.0)
        events: list[dict] = [
            {"name": "process_name", "ph": "M", "pid": 1,
             "args": {"name": "perfbench"}},
            {"name": "thread_name", "ph": "M", "pid": 1, "tid": 1,
             "args": {"name": "main"}},
        ]
        for index, span in enumerate(self.spans):
            if span is None or (ops is not None and span[4] not in ops):
                continue
            nid, start, end, parent, op, self_s = span
            events.append({
                "name": self.names[nid], "ph": "X", "pid": 1, "tid": 1,
                "ts": (start - origin) * 1e6, "dur": (end - start) * 1e6,
                "args": {"layer": self.layers[nid], "op": str(op),
                         "span": index, "parent": parent},
            })
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path: Path,
                           ops: Optional[set] = None) -> int:
        """Validate and write the chrome trace; returns the event count."""
        from repro.obs.export import validate_chrome_trace
        payload = self.chrome_trace(ops)
        validate_chrome_trace(payload)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload))
        return len(payload["traceEvents"])
