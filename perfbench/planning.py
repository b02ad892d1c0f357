"""``plan``: one closed-loop caller asking the planner, no numerics timed.

A cycle clears the program's plan caches, then sends the seeded stream of
``Solver.predict`` queries (Zipf key popularity, see
:data:`inputs.PLAN_KEYS`) and three cold ``Solver.tune(budget=32)``
calls.  A run measures as many whole cycles as fit in ``--seconds`` (at
least :data:`MIN_CYCLES`); every cycle sends the same operations, and
each operation of the cycle is timed by its fastest cycle
(:func:`common.best`).  Predictions are model outputs; they are checked,
never reported as metrics.

In the untimed gap after each cycle each tune result's handle
(``TunePlan.apply()``) solves the first of four seeded 128x128 check
matrices, and its fastest time over LAPACK's gives ``lapack_ratio``;
after the timed phase each winner's handle solves all four, which give
``rel_err_max_eps``.  So the planner's output is judged by the values its
handle computes.
"""

from __future__ import annotations

import dataclasses
import math
import time

import numpy as np

import common
import inputs

AXES = {
    "single": {},
    "batch": {"batch": 8},
    "streams2": {"streams": 2},
    "ngpu4": {"ngpu": 4},
    "ngpu4_nodes2": {"ngpu": 4, "nodes": 2},
    "out_of_core": {"out_of_core": True},
    "lowrank": {"workload": "lowrank", "rank": 64},
    "eigh": {"workload": "eigh"},
}

#: The mixed fleet of the ``topology`` axis: 2 x h100 + 2 x a100.
FLEET = ("h100", "h100", "a100", "a100")

#: A :class:`common.Reference` sample follows every this many operations.
REF_EVERY = 100

#: The fewest whole cycles per timed phase.
MIN_CYCLES = 3


def build(repro):
    pairs = {(b, p) for b, p, _a, _n in inputs.PLAN_KEYS}
    pairs |= {(b, p) for b, p, _n in inputs.TUNE_CASES}
    solvers = {bp: repro.Solver(backend=bp[0], precision=bp[1]) for bp in sorted(pairs)}
    axes = dict(AXES, topology={"topology": repro.Topology(FLEET)})
    return repro, solvers, axes


def _seconds(result) -> float:
    """The predicted time of any ``predict`` result type."""
    return result.makespan_s if hasattr(result, "makespan_s") else result.total_s


def _clear(repro, totals) -> None:
    """Fold the cycle's cache counters into ``totals``, then clear caches."""
    import repro.tuning.planner as planner
    import repro.tuning.search as search

    bound = repro.sim.table.bound_table_stats()
    tune = planner.tune_cache_stats()
    totals["bound_hits"] += bound["hits"]
    totals["bound_misses"] += bound["misses"]
    totals["tune_hits"] += tune["hits"]
    totals["tune_misses"] += tune["misses"]
    repro.sim.table.clear_bound_tables()
    planner.clear_tune_cache()
    search.clear_autotune_cache()


def cycle_ops(stream):
    """The operations of one cycle, in order: ``(op, key)``."""
    return [("predict", k) for k in stream] + [
        ("tune", j) for j in range(len(inputs.TUNE_CASES))]


def fastest(records, stream) -> dict:
    """Per position in the cycle, the fastest time of its passing records."""
    n = len(cycle_ops(stream))
    return common.best((pos % n, (r[3] - r[2]) * 1e-9)
                       for pos, r in enumerate(records) if r[5] is None)


def timed_phase(state, stream, seconds, totals, check=None):
    """Whole cycles until ``seconds`` have elapsed, at least :data:`MIN_CYCLES`.

    Returns ``(records, wall_s, ref, sync)``; a record is
    ``(op, key, start_ns, end_ns, result or None, error or None)`` with
    ``op`` "predict" (key: index into PLAN_KEYS) or "tune" (key: index
    into TUNE_CASES).  ``check(cycle_records)``, if given, runs after each
    cycle and returns check-solve records, collected in ``sync``.
    """
    repro, solvers, axes = state
    records, ref, sync = [], common.Reference(), []
    t0 = time.perf_counter_ns()
    deadline = t0 + int(seconds * 1e9)
    _clear(repro, {k: 0 for k in totals})  # start cold, uncounted
    ops = cycle_ops(stream)
    while len(records) < MIN_CYCLES * len(ops) or time.perf_counter_ns() < deadline:
        for pos, (op, k) in enumerate(ops):
            start = time.perf_counter_ns()
            try:
                if op == "predict":
                    b, p, axis, n = inputs.PLAN_KEYS[k]
                    result = solvers[b, p].predict(n, **axes[axis])
                else:
                    b, p, n = inputs.TUNE_CASES[k]
                    result = solvers[b, p].tune(n, budget=inputs.TUNE_BUDGET)
                err = None
            except Exception as exc:  # every raise is one failed query
                result, err = None, exc
            records.append((op, k, start, time.perf_counter_ns(), result, err))
            if pos % REF_EVERY == 0:
                ref.sample()
        if check is not None:
            sync += check(records[-len(ops):])
        _clear(repro, totals)
    return records, (records[-1][3] - t0) * 1e-9, ref, sync


def check_solves(seed):
    """The check run after each cycle: each tune result's handle solves
    its first check matrix.

    A record is ``(tune case, solve seconds, LAPACK seconds, values or
    None, error or None)``.
    """
    first = {j: inputs.tuned_check_matrices(seed, j, p)[0]
             for j, (_b, p, _n) in enumerate(inputs.TUNE_CASES)}

    def check(cycle_records):
        out = []
        for op, j, _s, _t, result, err in cycle_records:
            if op != "tune" or err is not None:
                continue
            A = first[j]
            t0 = time.perf_counter()
            try:
                values, err = result.apply().solve(A), None
            except Exception as exc:  # a tuned handle that cannot solve fails
                values, err = None, exc
            out.append((j, time.perf_counter() - t0, common.lapack_seconds(A), values, err))
        return out

    return check


def run(seed, seconds, tracer=None):
    stream = inputs.plan_stream(seed)
    setup_s, state = common.timed_setup(build)
    if tracer is not None:  # the untraced and the traced phase share the time
        seconds /= 2
    zero = {"bound_hits": 0, "bound_misses": 0, "tune_hits": 0, "tune_misses": 0}
    phases = [timed_phase(state, stream, seconds, dict(zero), check_solves(seed))]
    repro = state[0]
    if tracer is not None:
        tracer.install(repro)
        totals = dict(zero)
        tracer.enabled = True
        phases.append(timed_phase(state, stream, seconds, totals))
        tracer.enabled = False
        tracer.uninstall()

    # ---- checks (after the timed phases) ----
    attempted = failed = 0
    failures, seen, winners = [], {}, {}
    for records, _wall, _ref, _sync in phases:
        for pos, (op, k, start, end, result, err) in enumerate(records):
            attempted += 1
            if err is None and op == "predict":
                t = _seconds(result)
                fingerprint = repr(dataclasses.asdict(result))
                if not (math.isfinite(t) and t > 0):
                    err = f"predicted time {t!r} is not finite and positive"
                elif seen.setdefault(k, fingerprint) != fingerprint:
                    err = "repeated key returned a different result"
            elif err is None:
                best, default = result.best.predicted_s, result.default.predicted_s
                if not (math.isfinite(best) and best > 0 and best <= default):
                    err = f"tune winner {best!r} is not <= its default {default!r}"
                winners[k] = result
            if err is not None:
                failed += 1
                failures.append(f"{op} {k}: {err!r}")
                # a failed record gives no time (see fastest)
                records[pos] = (op, k, start, end, None, err)

    worst_eps, solve_s, lapack_s = 0.0, {}, {}

    def check_values(j, values, A):
        """Count one check solve; its error in eps if within bound, else None."""
        nonlocal attempted, failed
        prec = inputs.TUNE_CASES[j][1]
        attempted += 1
        e = common.rel_err(values, np.linalg.svd(A.astype(np.float64), compute_uv=False))
        if e <= common.rel_err_bound(prec, A.shape[0]):
            return e / common.EPS[prec]
        failed += 1
        failures.append(f"tuned handle {j}: rel_err {e:.3g} above bound")
        return None

    for j, solve_t, lapack, values, err in phases[0][3]:
        if err is not None:
            attempted += 1
            failed += 1
            failures.append(f"tuned handle {j}: {err!r}")
            continue
        _b, prec, _n = inputs.TUNE_CASES[j]
        eps = check_values(j, values, inputs.tuned_check_matrices(seed, j, prec)[0])
        if eps is not None:
            worst_eps = max(worst_eps, eps)
            solve_s[j] = min(solve_t, solve_s.get(j, math.inf))
            lapack_s[j] = min(lapack, lapack_s.get(j, math.inf))
    k = phases[0][2].ratio_scale()
    ratios = [solve_s[j] / lapack_s[j] * k for j in solve_s]
    for j, plan in sorted(winners.items()):
        _b, prec, _n = inputs.TUNE_CASES[j]
        handle = plan.apply()
        for A in inputs.tuned_check_matrices(seed, j, prec):
            try:
                values = handle.solve(A)
            except Exception as exc:  # a tuned handle that cannot solve fails
                attempted += 1
                failed += 1
                failures.append(f"tuned handle {j}: {exc!r}")
                continue
            eps = check_values(j, values, A)
            if eps is not None:
                worst_eps = max(worst_eps, eps)

    e2e = common.end_to_end(
        setup_s, *common.unit_metrics(fastest(phases[0][0], stream), phases[0][2].scale()),
        attempted, failed, worst_eps, ratios)
    out = {"attempted": attempted, "failed": failed, "failures": failures,
           "e2e": e2e, "samples": len(phases[0][0]),
           "reference_s": phases[0][2].fast_s()}
    if tracer is not None:
        traced, twall, tref, _sync = phases[1]
        out["layer_wall_s"] = twall
        out["layer_extra"] = dict(
            totals,
            tune_evaluations=sum(r[4].evaluations for r in traced
                                 if r[0] == "tune" and r[5] is None),
            serve_stats=None,
            trace_overhead=(common.unit_metrics(fastest(traced, stream), tref.scale())[0]
                            / e2e["ops_per_s"]),
        )
        out["op_spans"] = [
            (f"{o} {inputs.PLAN_KEYS[k] if o == 'predict' else inputs.TUNE_CASES[k]}", s, t, 0)
            for o, k, s, t, _r, _e in traced
        ]
    return out
