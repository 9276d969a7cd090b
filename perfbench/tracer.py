"""Span recording at the layer boundaries of ``repro``, from outside ``src/``.

A :class:`Recorder` keeps spans in memory and writes them as JSON lines
when asked (:meth:`Recorder.dump`).  A span has a name, start and end
(``time.perf_counter`` seconds), the id of the span open beneath it on the
same thread, and the cell id it works for.  Hot inner calls -- the
policies' ``on_block_entry``/``execute``/``execute_run``, the fabric's
``ensure_configured`` and ``ResultWriter.append`` -- are never spans: each
adds to a ``[count, total, self]`` entry on the span open around it, and
the time they cover is summed in the span's ``cover`` field.

:func:`install` wraps the boundaries by rebinding module attributes and
class methods, so the program's own code is unchanged.  Wrapping costs
time, which is why only the benchmark's traced run installs it.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
from time import perf_counter
from typing import Callable, Dict, List, Optional

import inputs


class _Frame:
    __slots__ = ("id", "name", "start", "parent", "cell", "inner", "cover",
                 "istack", "attrs")

    def __init__(self, span_id, name, start, parent, cell):
        self.id = span_id
        self.name = name
        self.start = start
        self.parent = parent
        self.cell = cell
        self.inner: Dict[str, List[float]] = {}
        self.cover = 0.0
        self.istack: List[list] = []
        self.attrs: Dict[str, object] = {}


class Recorder:
    """Spans of one process; thread-safe (each thread has its own stack)."""

    def __init__(self):
        self.spans: List[Dict[str, object]] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self.pid = os.getpid()

    def after_fork(self) -> None:
        """A forked child starts with no spans of its parent."""
        self.spans = []
        self._local = threading.local()
        self.pid = os.getpid()

    def _stack(self) -> List[_Frame]:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    # ---------------------------------------------------------- spans
    def begin(self, name: str, cell: Optional[str] = None) -> _Frame:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if cell is None and parent is not None:
            cell = parent.cell
        frame = _Frame(
            next(self._ids), name, perf_counter(),
            parent.id if parent is not None else None, cell,
        )
        stack.append(frame)
        return frame

    def end(self, frame: _Frame) -> None:
        end = perf_counter()
        stack = self._stack()
        stack.pop()
        in_inner = False
        if stack and stack[-1].istack:
            # Opened inside a hot inner call: that call's time already
            # covers this span, and its own self time must exclude it.
            stack[-1].istack[-1][1] += end - frame.start
            in_inner = True
        self.spans.append({
            "pid": self.pid,
            "id": frame.id,
            "name": frame.name,
            "start": frame.start,
            "end": end,
            "parent": frame.parent,
            "cell": frame.cell,
            "inner": frame.inner,
            "cover": frame.cover,
            "in_inner": in_inner,
            "attrs": frame.attrs,
        })

    def spanned(self, name: str, fn: Callable, cell_of=None, on_result=None) -> Callable:
        """``fn`` wrapped in a span; ``on_result(attrs, args, result)``
        may attach attributes."""
        recorder = self

        def wrapper(*args, **kwargs):
            frame = recorder.begin(name, cell_of(*args) if cell_of else None)
            try:
                result = fn(*args, **kwargs)
                if on_result is not None:
                    on_result(frame.attrs, args, result)
                return result
            finally:
                recorder.end(frame)

        wrapper.__wrapped__ = fn
        return wrapper

    def inner(self, name: str, fn: Callable) -> Callable:
        """``fn`` summed as a count and a time on the enclosing span.

        A call nested directly in another call of the same name (a
        subclass delegating to its base) is not counted twice."""
        recorder = self

        def wrapper(*args, **kwargs):
            stack = recorder._stack()
            if not stack:
                return fn(*args, **kwargs)
            frame = stack[-1]
            istack = frame.istack
            if istack and istack[-1][0] == name:
                return fn(*args, **kwargs)
            entry = [name, 0.0]
            istack.append(entry)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                istack.pop()
                acc = frame.inner.get(name)
                if acc is None:
                    acc = frame.inner[name] = [0, 0.0, 0.0]
                acc[0] += 1
                acc[1] += elapsed
                acc[2] += elapsed - entry[1]
                if istack:
                    istack[-1][1] += elapsed
                else:
                    frame.cover += elapsed

        wrapper.__wrapped__ = fn
        return wrapper

    def dump(self, path: str) -> None:
        """Write the spans, headed by this process's construction-memo
        counters (``engine.BUILD_COUNTERS``)."""
        from repro.experiments import engine

        header = {"pid": self.pid, "counters": dict(engine.BUILD_COUNTERS)}
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(header) + "\n")
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def _cell_id(cell) -> str:
    return inputs.cell_id_of_payload(cell.payload())


def _executions(record) -> int:
    return sum(record.get("executions_by_mode", {}).values())


def install(recorder: Recorder, dump_path: Optional[str] = None) -> None:
    """Wrap the layer boundaries of an imported ``repro`` with ``recorder``.

    With ``dump_path`` given, forked worker processes write their own spans
    to ``<dump_path>.<pid>.jsonl`` when their worker loop returns.
    """
    from repro.core import packed, selector
    from repro.experiments import engine
    from repro.experiments.backends import worker
    from repro.fabric.reconfig import ReconfigurationController
    from repro.results.store import ResultWriter
    from repro.service import wire
    from repro.sim.policy import RuntimePolicy
    from repro.sim.simulator import Simulator

    os.register_at_fork(after_in_child=recorder.after_fork)

    for name, family in list(engine.WORKLOADS.items()):
        engine.register_workload(
            name,
            recorder.spanned("workloads.app_build", family.application),
            recorder.spanned("ise.library_compile", family.library),
        )

    engine.cell_key = recorder.spanned("engine.cell_key", engine.cell_key)

    def cell_result(attrs, args, record):
        attrs["policy"] = args[0].policy
        attrs["executions"] = _executions(record)

    engine.execute_cell = recorder.spanned(
        "engine.execute_cell", engine.execute_cell,
        cell_of=_cell_id, on_result=cell_result,
    )

    def engine_result(attrs, args, result):
        stats = args[0].stats
        attrs["cache_hits"] = stats.cache_hits
        attrs["executed"] = stats.executed
        attrs["cells"] = stats.cells

    for method in ("run", "run_streamed"):
        setattr(engine.SweepEngine, method, recorder.spanned(
            "engine.run", getattr(engine.SweepEngine, method),
            on_result=engine_result,
        ))

    def sim_result(attrs, args, result):
        stats = result.stats
        attrs["executions"] = sum(stats.executions_by_mode.values())
        attrs["ecu_calls"] = stats.ecu_calls
        attrs["fastforwarded"] = stats.executions_fastforwarded
        attrs["events_processed"] = stats.events_processed
        attrs["profit_evaluations"] = stats.profit_evaluations
        attrs["evaluations_saved"] = stats.evaluations_skipped + stats.evaluations_pruned
        attrs["reconfigurations"] = stats.reconfigurations

    Simulator.run = recorder.spanned("sim.run", Simulator.run, on_result=sim_result)

    pack_program = recorder.spanned("packed.pack", packed.pack_program)
    pack_library = recorder.spanned("packed.pack", packed.pack_library)
    packed.pack_program = pack_program
    packed.pack_library = pack_library
    selector.pack_library = pack_library

    policy_classes = {RuntimePolicy}
    for factory in engine.POLICIES.values():
        if isinstance(factory, type):
            policy_classes.update(
                cls for cls in factory.__mro__ if issubclass(cls, RuntimePolicy)
            )
    layers = {
        "on_block_entry": "selector.on_block_entry",
        "execute": "ecu.execute",
        "execute_run": "ecu.execute",
    }
    for cls in policy_classes:
        for method, name in layers.items():
            fn = cls.__dict__.get(method)
            if fn is not None and not getattr(fn, "__isabstractmethod__", False):
                setattr(cls, method, recorder.inner(name, fn))

    ReconfigurationController.ensure_configured = recorder.inner(
        "fabric.ensure_configured", ReconfigurationController.ensure_configured
    )
    ResultWriter.append = recorder.inner("results.append", ResultWriter.append)
    ResultWriter.close = recorder.spanned("results.close", ResultWriter.close)
    wire.decode_record_block = recorder.spanned("wire.decode", wire.decode_record_block)

    if dump_path is not None:
        loop = worker.worker_loop

        def traced_worker_loop(*args, **kwargs):
            try:
                return loop(*args, **kwargs)
            finally:
                recorder.dump(f"{dump_path}.{os.getpid()}.jsonl")

        worker.worker_loop = traced_worker_loop
