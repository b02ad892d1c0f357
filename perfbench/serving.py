"""``serve``: 16 closed-loop clients against one live ``SvdService``.

The clients are coroutines on one event loop.  The timed phase is a
sequence of identical rounds, as many as fit in ``--seconds`` (at least
:data:`MIN_ROUNDS`).  In a round each client submits one matrix from a
seeded fp32 pool (n in {64, 96, 128}, three shape classes, taken in
rotation) and waits for the reply; the round ends when every client has
its reply.  Every round sends the same sizes, so the metrics are those
of the fastest round (:func:`common.best`).  Between rounds, with the
service idle, the main thread takes a :class:`common.Reference` sample
and one synchronous check solve.  The service runs with default knobs
and no ``slo_s``, so admission sheds nothing by design.
"""

from __future__ import annotations

import asyncio
import math
import statistics
import time

import numpy as np

import common
import inputs

#: The fewest rounds per timed phase.
MIN_ROUNDS = 6


async def _setup():
    """Set-up samples: import, ``Solver``, service construction and start.

    Scaled like :func:`common.timed_setup`.
    """
    samples, ref = [], common.Reference()
    for i in range(common.SETUP_REPEATS):
        ref_s = ref.sample()
        t0 = time.perf_counter()
        repro = common.fresh_import()
        solver = repro.Solver(backend="h100", precision="fp32")
        service = solver.serve()
        service.start()
        samples.append((time.perf_counter() - t0) * common.REFERENCE_NOMINAL_S / ref_s)
        if i < common.SETUP_REPEATS - 1:
            await service.close()
    return statistics.median(samples), repro, solver, service


async def timed_phase(service, pool, orders, seconds, check=None):
    """Run rounds of the clients; return ``(rounds, wall_s, ref, sync)``.

    In every round client ``c`` sends the size at offset ``c`` of
    :data:`inputs.SERVE_ROTATION`, so every round sends the same size mix.
    Within a size, requests take the pool matrices in the seeded
    ``orders``, cycling, so every pool matrix is served once a size has
    had as many requests as it has matrices.  A round is
    ``(start_ns, end_ns, records)``; a record is
    ``(client, pool index, submit_ns, done_ns, values, error)``.

    ``check(g)``, if given, is called in gap ``g`` after the round and
    returns a synchronous check record, collected in ``sync``.
    """
    rounds, ref, sync = [], common.Reference(), []
    sent = [0] * len(orders)
    per = inputs.SERVE_POOL_PER_SIZE
    rotation = inputs.SERVE_ROTATION
    t0 = time.perf_counter_ns()
    deadline = t0 + int(seconds * 1e9)

    async def client(c, records):
        size = rotation[c % len(rotation)]
        i = size * per + int(orders[size][sent[size] % per])
        sent[size] += 1
        start = time.perf_counter_ns()
        try:
            future = await service.submit(pool[i])
            values, err = await future, None
        except Exception as exc:  # shed or raised: one failed request
            values, err = None, exc
        records.append((c, i, start, time.perf_counter_ns(), values, err))

    while len(rounds) < MIN_ROUNDS or time.perf_counter_ns() < deadline:
        records, start = [], time.perf_counter_ns()
        await asyncio.gather(*(client(c, records) for c in range(inputs.SERVE_CLIENTS)))
        rounds.append((start, time.perf_counter_ns(), records))
        ref.sample()
        if check is not None:
            sync.append(check(len(rounds) - 1))
    return rounds, (rounds[-1][1] - t0) * 1e-9, ref, sync


async def _run(pool, orders, seconds, tracer, check_for):
    setup_s, repro, solver, service = await _setup()
    if tracer is not None:  # the untraced and the traced phase share the time
        seconds /= 2
    phases = [await timed_phase(service, pool, orders, seconds, check_for(solver))]
    await service.close()
    stats = None
    if tracer is not None:
        tracer.install(repro)
        before = repro.sim.table.bound_table_stats()
        service = solver.serve()
        service.start()
        tracer.enabled = True
        # no synchronous solves here: they would add to the traced layers
        phases.append(await timed_phase(service, pool, orders, seconds))
        tracer.enabled = False
        await service.close()
        stats = service.stats()
        after = repro.sim.table.bound_table_stats()
        tracer.uninstall()
    return setup_s, phases, stats, (before, after) if tracer else None


def run(seed, seconds, tracer=None):
    pool = inputs.serve_pool(seed)
    # a seeded sample, one matrix per shape class, is solved synchronously
    # in the gaps between rounds (the classes in turn); each solve must be
    # bitwise equal to the served values, and gives lapack_ratio
    rng = np.random.default_rng([seed, 6])
    per = inputs.SERVE_POOL_PER_SIZE
    checks = [k * per + int(rng.integers(per)) for k in range(len(inputs.SERVE_SIZES))]

    def check_for(solver):
        def check(gap):
            i = checks[gap % len(checks)]
            t0 = time.perf_counter()
            values = solver.solve(pool[i])
            return i, time.perf_counter() - t0, common.lapack_seconds(pool[i]), values
        return check

    setup_s, phases, stats, bound = asyncio.run(
        _run(pool, inputs.serve_orders(seed), seconds, tracer, check_for)
    )

    # ---- checks (after the timed phases) ----
    refs = [np.linalg.svd(A.astype(np.float64), compute_uv=False) for A in pool]
    served = {}
    attempted = failed = 0
    worst_eps, failures = 0.0, []
    for rounds, _wall, _ref, _sync in phases:
        for _c, i, _s, _t, values, err in (r for _a, _b, recs in rounds for r in recs):
            attempted += 1
            if err is None:
                e = common.rel_err(values, refs[i]) if len(values) == len(refs[i]) else np.inf
                if not np.isfinite(e) or e > common.rel_err_bound("fp32", len(refs[i])):
                    err = f"rel_err {e:.3g} above bound"
                elif i in served and not np.array_equal(served[i], values):
                    err = "not bitwise equal to an earlier reply for the same matrix"
            if err is not None:
                failed += 1
                failures.append(f"pool[{i}]: {err!r}")
                continue
            served.setdefault(i, values)
            worst_eps = max(worst_eps, e / common.EPS["fp32"])
    solve_s, lapack_s = {}, {}
    for i, solve_t, lapack, values in phases[0][3]:
        attempted += 1
        if i in served and not np.array_equal(values, served[i]):
            failed += 1
            failures.append(f"pool[{i}]: served values differ from Solver.solve")
            continue
        solve_s[i] = min(solve_t, solve_s.get(i, math.inf))
        lapack_s[i] = min(lapack, lapack_s.get(i, math.inf))
    k = phases[0][2].ratio_scale()
    ratios = [solve_s[i] / lapack_s[i] * k for i in solve_s]

    e2e = common.end_to_end(setup_s, *round_metrics(phases[0]), attempted, failed,
                            worst_eps, ratios)
    out = {"attempted": attempted, "failed": failed, "failures": failures,
           "e2e": e2e, "samples": sum(len(recs) for _a, _b, recs in phases[0][0]),
           "reference_s": phases[0][2].fast_s()}
    if tracer is not None:
        traced = phases[1]
        before, after = bound
        out["layer_wall_s"] = sum((end - start) * 1e-9 for start, end, _r in traced[0])
        out["layer_extra"] = {
            "bound_hits": after["hits"] - before["hits"],
            "bound_misses": after["misses"] - before["misses"],
            "tune_evaluations": 0, "tune_hits": 0, "tune_misses": 0,
            "serve_stats": stats,
            "trace_overhead": round_metrics(traced)[0] / e2e["ops_per_s"],
        }
        out["op_spans"] = [
            (f"request n={len(pool[i])}", s, t, 100 + c)
            for _a, _b, recs in traced[0] for c, i, s, t, _v, _e in recs
        ]
    return out


def round_metrics(phase):
    """``(ops_per_s, p50_ms, p90_ms)`` of a phase's fastest rounds.

    Each metric is taken from the round where it is best: completed
    requests per second of round wall time, and the p50 and p90 request
    latencies of the round.  Times are scaled to the nominal host speed
    by the phase's :class:`common.Reference`.
    """
    rounds, _wall, ref, _sync = phase
    scale = ref.scale()
    per_round = []
    for start, end, records in rounds:
        lat = [(t - s) * 1e-9 * scale for _c, _i, s, t, _v, err in records if err is None]
        if lat:
            per_round.append((len(lat) / ((end - start) * 1e-9 * scale),
                              common.percentile_ms(lat, 50), common.percentile_ms(lat, 90)))
    if not per_round:
        return math.inf, math.inf, math.inf
    ops, p50, p90 = zip(*per_round)
    return max(ops), min(p50), min(p90)
