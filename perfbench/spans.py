"""Span recorder for the traced run, and the layer metrics derived from it.

Spans are recorded by wrappers that the benchmark installs around the
public functions of each layer; nothing inside the program is changed.
Each wrapper is bound where its caller resolves the name:

* module-level functions (emitters, ``partition_graph``,
  ``schedule_streams``, ...) are re-bound in every loaded ``repro``
  module that holds them, because modules such as ``repro.solver`` bind
  them at import;
* ``band_to_bidiagonal`` / ``svdvals_bidiag`` are imported by
  ``NumericExecutor`` at call time, so re-binding their defining module
  covers them;
* the ``repro.kernels.*`` package names are captured by
  ``NumericExecutor`` at construction, so they are re-bound there before
  any executor exists;
* methods (``Solver.predict``, ``NumericExecutor.run``, ...) are
  replaced on their class.

A span is ``[name, start_ns, end_ns, parent, thread_id]``.  The parent is
the innermost open span of the same thread, so spans recorded in the
serving executor thread nest under that thread's own spans.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from collections import defaultdict

KERNELS = ("geqrt", "unmqr", "tsqrt", "tsmqr", "ftsqrt", "ftsmqr")

#: Kernel flop counts from tile shapes (the LAPACK/PLASMA formulas for
#: QR of an ts x ts tile, and for applying ts reflectors to ts x cw).
_FLOPS = {
    "geqrt": lambda a: 4.0 / 3.0 * a[0].shape[1] ** 3,
    "unmqr": lambda a: 2.0 * a[0].shape[1] ** 2 * a[2].shape[1],
    "tsqrt": lambda a: 2.0 * a[0].shape[1] ** 3,
    "tsmqr": lambda a: 4.0 * a[0].shape[1] ** 2 * a[3].shape[1],
    "ftsqrt": lambda a: 2.0 * len(a[1]) * a[0].shape[1] ** 3,
    "ftsmqr": lambda a: 4.0 * sum(v.shape[1] ** 2 * x.shape[1] for v, x in zip(a[0], a[3])),
    # the executor's direct tile body (mixed-precision fused update)
    "ftsmqr_body": lambda a: 4.0 * a[0].shape[1] ** 2 * a[3].shape[1],
}


class Tracer:
    """In-memory span log; wrappers record only while ``enabled``."""

    def __init__(self) -> None:
        self.spans = []
        self.flops = defaultdict(float)
        self.enabled = False
        self._local = threading.local()
        self._undo = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, flops=None):
        """Return ``fn`` wrapped to record a span named ``name``.

        ``flops(args)``, if given, counts the call's computed flops.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            stack = self._stack()
            rec = [name, time.perf_counter_ns(), 0, stack[-1] if stack else -1,
                   threading.get_ident()]
            stack.append(len(self.spans))
            self.spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter_ns()
                stack.pop()
                if flops is not None:
                    self.flops[name] += flops(args)

        return wrapper

    # ------------------------------------------------------------------ #
    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _rebind_function(self, fn, name, flops=None) -> None:
        """Replace every ``repro`` module binding of ``fn`` by one wrapper."""
        wrapped = self.wrap(name, fn, flops)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._set(mod, attr, wrapped)

    def _wrap_method(self, cls, attr, name) -> None:
        self._set(cls, attr, self.wrap(name, getattr(cls, attr)))

    def install(self, repro) -> None:
        """Wrap every traced layer entry point of the loaded ``repro``."""
        import repro.core.bidiag as bidiag
        import repro.core.brd as brd
        import repro.kernels as kernels
        import repro.serve.admission as admission
        import repro.serve.batcher as batcher
        import repro.sim.events as events
        import repro.sim.graph as graph
        import repro.sim.outofcore as outofcore
        import repro.sim.partition as partition
        import repro.sim.timeline as timeline

        for k in KERNELS:
            # only the package names NumericExecutor reads: the flop
            # counters assume its positional call signatures
            self._set(kernels, k, self.wrap(f"kernels.{k}", getattr(kernels, k), _FLOPS[k]))
        self._rebind_function(brd.band_to_bidiagonal, "core.brd")
        self._rebind_function(bidiag.svdvals_bidiag, "core.bidiag")
        emitters = {
            getattr(mod, attr)
            for mod_name, mod in list(sys.modules.items())
            if mod is not None and mod_name.startswith("repro.core.")
            for attr in vars(mod)
            if attr.startswith("emit_") and callable(getattr(mod, attr))
        }
        for fn in sorted(emitters, key=lambda f: f.__qualname__):
            self._rebind_function(fn, "core.emit")
        self._rebind_function(partition.partition_graph, "sim.partition")
        self._rebind_function(outofcore.rewrite_out_of_core, "sim.outofcore")
        self._rebind_function(timeline.schedule_streams, "sim.timeline")
        self._rebind_function(events.simulate_events, "sim.events")

        executor = graph.NumericExecutor
        self._wrap_method(executor, "run", "sim.graph.replay")
        init = executor.__init__
        tracer = self

        @functools.wraps(init)
        def traced_init(ex, *args, **kwargs):
            init(ex, *args, **kwargs)
            # the mixed-precision fused update calls its tile body directly
            ex._tsmqr_body = tracer.wrap(
                "kernels.ftsmqr", ex._tsmqr_body, _FLOPS["ftsmqr_body"]
            )

        self._set(executor, "__init__", traced_init)
        self._wrap_method(repro.Solver, "predict", "solver.predict")
        self._wrap_method(repro.Solver, "tune", "tuning.tune")
        self._wrap_method(admission.AdmissionController, "admit", "serve.admit")
        self._wrap_method(batcher.BatchRunner, "run", "serve.execute")

    def uninstall(self) -> None:
        """Restore every binding :meth:`install` replaced."""
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # ------------------------------------------------------------------ #
    def layer_times(self):
        """Per span name: outermost ``calls``, ``busy_s`` and ``self_s``.

        ``busy_s`` sums spans with no ancestor of the same name, so a
        recursive or nested call is not counted twice.  ``self_s`` is each
        span's duration minus the durations of its direct children.
        """
        spans = self.spans
        child_ns = [0] * len(spans)
        for rec in spans:
            if rec[3] >= 0:
                child_ns[rec[3]] += rec[2] - rec[1]
        out = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        for i, (name, t0, t1, parent, _tid) in enumerate(spans):
            agg = out[name]
            agg["self_s"] += (t1 - t0 - child_ns[i]) * 1e-9
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p < 0:
                agg["calls"] += 1
                agg["busy_s"] += (t1 - t0) * 1e-9
        return out


def write_chrome_trace(path, tracer, op_spans, metadata) -> int:
    """Write spans as Chrome Trace Event JSON (opens in Perfetto).

    ``op_spans`` are the benchmark's own per-operation spans
    ``(name, start_ns, end_ns, lane)``; each lane becomes one track, so
    overlapping requests of different clients do not overlap on a track.
    Returns the number of events written.
    """
    starts = [s[1] for s in tracer.spans] + [s[1] for s in op_spans]
    base = min(starts) if starts else 0
    tids = {}
    events = []
    for i, (name, t0, t1, parent, tid) in enumerate(tracer.spans):
        lane = tids.setdefault(tid, len(tids) + 1)
        events.append({
            "name": name, "cat": name.split(".")[0], "ph": "X", "pid": 1,
            "tid": lane, "ts": (t0 - base) / 1e3, "dur": (t1 - t0) / 1e3,
            "args": {"id": i, "parent": parent},
        })
    for name, t0, t1, lane in op_spans:
        events.append({
            "name": name, "cat": "op", "ph": "X", "pid": 2, "tid": lane,
            "ts": (t0 - base) / 1e3, "dur": (t1 - t0) / 1e3,
        })
    events.append({"name": "process_name", "ph": "M", "pid": 1,
                   "args": {"name": "program layers (measured)"}})
    events.append({"name": "process_name", "ph": "M", "pid": 2,
                   "args": {"name": "benchmark operations (measured)"}})
    for tid, lane in tids.items():
        events.append({"name": "thread_name", "ph": "M", "pid": 1, "tid": lane,
                       "args": {"name": f"thread {tid}"}})
    with open(path, "w") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms",
                   "otherData": metadata}, fh)
    return len(events)
