"""The per-layer metrics of the traced run: names, units, derivation.

Layer names follow the program's modules.  Every traced run reports
every metric below; a layer a workload does not reach reads 0.  Times
are wall-clock seconds of the traced timed phase on the host; ``.share``
is a layer's busy time divided by that phase's wall time.
"""

from __future__ import annotations

from spans import KERNELS

PER_LAYER = [
    *[
        (f"kernels.{k}.{m}", unit, better)
        for k in KERNELS
        for m, unit, better in (
            ("calls", "count", "lower"),
            ("busy_s", "s", "lower"),
            ("gflops_computed", "GFLOP/s", "higher"),
        )
    ],
    ("core.banddiag.busy_s", "s", "lower"),
    ("core.banddiag.share", "ratio", "lower"),
    ("core.brd.busy_s", "s", "lower"),
    ("core.brd.calls", "count", "lower"),
    ("core.brd.share", "ratio", "lower"),
    ("core.bidiag.busy_s", "s", "lower"),
    ("core.bidiag.share", "ratio", "lower"),
    ("sim.graph.replay.self_s", "s", "lower"),
    ("core.emit.calls", "count", "lower"),
    ("core.emit.busy_s", "s", "lower"),
    *[
        (f"{layer}.{m}", unit, "lower")
        for layer in ("sim.partition", "sim.outofcore", "sim.timeline", "sim.events")
        for m, unit in (("calls", "count"), ("busy_s", "s"))
    ],
    ("sim.table.bound_hit_ratio", "ratio", "higher"),
    ("solver.predict.calls", "count", "lower"),
    ("solver.predict.self_s", "s", "lower"),
    ("tuning.tune.busy_s", "s", "lower"),
    ("tuning.tune.evaluations", "count", "lower"),
    ("tuning.cache_hit_ratio", "ratio", "higher"),
    ("serve.admit.calls", "count", "lower"),
    ("serve.admit.busy_s", "s", "lower"),
    ("serve.execute.busy_s", "s", "lower"),
    ("serve.execute.utilization", "ratio", "higher"),
    ("serve.queue_wait_mean_s", "s", "lower"),
    ("serve.batch_size_mean", "count", "higher"),
    ("serve.shed", "count", "lower"),
    ("serve.graph_cache_hit_ratio", "ratio", "higher"),
    ("serve.price_cache_hit_ratio", "ratio", "higher"),
    ("trace.overhead", "ratio", "higher"),
]

UNITS = {name: unit for name, unit, _ in PER_LAYER}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer, wall_s: float, extra: dict) -> dict:
    """Every per-layer metric of one traced phase.

    ``extra`` carries what the program counts itself: ``bound_hits`` /
    ``bound_misses`` (``bound_table_stats``), ``tune_evaluations``,
    ``tune_hits`` / ``tune_misses`` (``tune_cache_stats``), ``serve_stats``
    (a ``ServiceStats`` or ``None``) and ``trace_overhead`` (traced over
    untraced ``ops_per_s``).
    """
    t = tracer.layer_times()

    def get(name, field):
        return t[name][field] if name in t else (0 if field == "calls" else 0.0)

    out = {}
    for k in KERNELS:
        busy = get(f"kernels.{k}", "busy_s")
        out[f"kernels.{k}.calls"] = get(f"kernels.{k}", "calls")
        out[f"kernels.{k}.busy_s"] = busy
        out[f"kernels.{k}.gflops_computed"] = _ratio(
            tracer.flops.get(f"kernels.{k}", 0.0) * 1e-9, busy
        )
    brd, bidiag = get("core.brd", "busy_s"), get("core.bidiag", "busy_s")
    # stage 1 is replay time outside the stage-2/3 spans
    stage1 = max(get("sim.graph.replay", "busy_s") - brd - bidiag, 0.0)
    out["core.banddiag.busy_s"] = stage1
    out["core.banddiag.share"] = _ratio(stage1, wall_s)
    out["core.brd.busy_s"] = brd
    out["core.brd.calls"] = get("core.brd", "calls")
    out["core.brd.share"] = _ratio(brd, wall_s)
    out["core.bidiag.busy_s"] = bidiag
    out["core.bidiag.share"] = _ratio(bidiag, wall_s)
    out["sim.graph.replay.self_s"] = get("sim.graph.replay", "self_s")
    out["core.emit.calls"] = get("core.emit", "calls")
    out["core.emit.busy_s"] = get("core.emit", "busy_s")
    for layer in ("sim.partition", "sim.outofcore", "sim.timeline", "sim.events"):
        out[f"{layer}.calls"] = get(layer, "calls")
        out[f"{layer}.busy_s"] = get(layer, "busy_s")
    out["sim.table.bound_hit_ratio"] = _ratio(
        extra["bound_hits"], extra["bound_hits"] + extra["bound_misses"]
    )
    out["solver.predict.calls"] = get("solver.predict", "calls")
    out["solver.predict.self_s"] = get("solver.predict", "self_s")
    out["tuning.tune.busy_s"] = get("tuning.tune", "busy_s")
    out["tuning.tune.evaluations"] = extra["tune_evaluations"]
    out["tuning.cache_hit_ratio"] = _ratio(
        extra["tune_hits"], extra["tune_hits"] + extra["tune_misses"]
    )
    execute = get("serve.execute", "busy_s")
    out["serve.admit.calls"] = get("serve.admit", "calls")
    out["serve.admit.busy_s"] = get("serve.admit", "busy_s")
    out["serve.execute.busy_s"] = execute
    out["serve.execute.utilization"] = _ratio(execute, wall_s)
    st = extra.get("serve_stats")
    out["serve.queue_wait_mean_s"] = st.mean_queue_wait_s if st else 0.0
    out["serve.batch_size_mean"] = st.mean_batch_size if st else 0.0
    out["serve.shed"] = st.shed if st else 0
    out["serve.graph_cache_hit_ratio"] = _ratio(
        st.graph_cache_hits, st.graph_cache_hits + st.graph_cache_misses
    ) if st else 0.0
    out["serve.price_cache_hit_ratio"] = _ratio(
        st.price_cache_hits, st.price_cache_hits + st.price_cache_misses
    ) if st else 0.0
    out["trace.overhead"] = extra["trace_overhead"]
    assert set(out) == set(UNITS), set(out) ^ set(UNITS)
    return out
