"""``dense``: one closed-loop caller solving a seeded sequence of matrices.

A run solves the whole sequence of :data:`inputs.DENSE_CASES` in order,
as many whole passes as fit in ``--seconds`` (at least
:data:`MIN_PASSES`), so every run solves the same shapes and precisions
and only the entries vary with the seed.  Each case is timed by its
fastest pass (:func:`common.best`).  All solves go through
``Solver(backend="h100").solve``.
"""

from __future__ import annotations

import time

import numpy as np

import common
import inputs

PRECISIONS = ("fp16", "fp32", "fp64")

#: Every case is solved at least this many times per timed phase.
MIN_PASSES = 3


def build(repro):
    return {p: repro.Solver(backend="h100", precision=p) for p in PRECISIONS}


def timed_phase(solvers, cases, seconds):
    """Solve whole passes over ``cases`` until ``seconds`` have elapsed.

    At least :data:`MIN_PASSES` passes run.

    Each solve is followed, outside its timing, by the LAPACK timing of
    the same matrix, and each pass by a :class:`common.Reference` sample,
    so all three see the same host speeds.  Returns ``(records, wall_s, ref)``;
    a record is ``(case index, start_ns, end_ns, values or None, error or
    None, LAPACK seconds)`` and ``wall_s`` sums the solve times.
    """
    records, ref = [], common.Reference()
    deadline = time.perf_counter_ns() + int(seconds * 1e9)
    while len(records) < MIN_PASSES * len(cases) or time.perf_counter_ns() < deadline:
        for i, (_label, prec, A) in enumerate(cases):
            start = time.perf_counter_ns()
            try:
                values, err = solvers[prec].solve(A), None
            except Exception as exc:  # every raise is one failed solve
                values, err = None, exc
            end = time.perf_counter_ns()
            records.append((i, start, end, values, err, common.lapack_seconds(A)))
        ref.sample()
    return records, sum(r[2] - r[1] for r in records) * 1e-9, ref


def run(seed, seconds, tracer=None):
    cases = inputs.dense_inputs(seed)
    setup_s, solvers = common.timed_setup(build)
    if tracer is not None:  # the untraced and the traced phase share the time
        seconds /= 2
    phases = [timed_phase(solvers, cases, seconds)]
    if tracer is not None:
        import repro

        tracer.install(repro)
        before = repro.sim.table.bound_table_stats()
        tracer.enabled = True
        phases.append(timed_phase(solvers, cases, seconds))
        tracer.enabled = False
        after = repro.sim.table.bound_table_stats()
        tracer.uninstall()

    # ---- checks (after the timed phases) ----
    # the storage-rounded input; the rescale case is out of fp16's range
    # by design, so its reference is the delivered fp32 matrix
    refs = [np.linalg.svd(A.astype(np.float64), compute_uv=False) for _l, _p, A in cases]
    attempted = failed = 0
    worst_eps, failures = 0.0, []
    ok = []  # per phase, the records that passed their check
    for records, _wall, _ref in phases:
        ok.append([])
        for rec in records:
            i, _start, _end, values, err, _lapack = rec
            label, prec, A = cases[i]
            attempted += 1
            if err is None:
                e = common.rel_err(values, refs[i]) if len(values) == len(refs[i]) else np.inf
                if not np.isfinite(e) or e > common.rel_err_bound(prec, max(A.shape)):
                    err = f"rel_err {e:.3g} above bound"
            if err is not None:
                failed += 1
                failures.append(f"{label}: {err!r}")
                continue
            worst_eps = max(worst_eps, e / common.EPS[prec])
            ok[-1].append(rec)

    def fastest(records):
        return common.best((r[0], (r[2] - r[1]) * 1e-9) for r in records)

    solve_s = fastest(ok[0])
    lapack_s = common.best((r[0], r[5]) for r in ok[0])
    k = phases[0][2].ratio_scale()
    ratios = [solve_s[i] / lapack_s[i] * k for i in solve_s]
    e2e = common.end_to_end(setup_s, *common.unit_metrics(solve_s, phases[0][2].scale()),
                            attempted, failed, worst_eps, ratios)
    out = {"attempted": attempted, "failed": failed, "failures": failures,
           "e2e": e2e, "samples": len(phases[0][0]),
           "reference_s": phases[0][2].fast_s()}
    if tracer is not None:
        traced, twall, tref = phases[1]
        out["layer_wall_s"] = twall
        out["layer_extra"] = {
            "bound_hits": after["hits"] - before["hits"],
            "bound_misses": after["misses"] - before["misses"],
            "tune_evaluations": 0, "tune_hits": 0, "tune_misses": 0,
            "serve_stats": None,
            "trace_overhead": (common.unit_metrics(fastest(ok[1]), tref.scale())[0]
                               / e2e["ops_per_s"]),
        }
        out["op_spans"] = [(f"solve {cases[r[0]][0]}", r[1], r[2], 0) for r in traced]
    return out
