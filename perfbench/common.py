"""Helpers shared by the workloads: statistics, set-up timing, stamps."""

from __future__ import annotations

import hashlib
import importlib
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Set-up is repeated this many times per run; ``setup_s`` is the median
#: of the repeats, each scaled by a reference loop timed right before it
#: (see :func:`timed_setup`).
SETUP_REPEATS = 7

#: A LAPACK reference time is the fastest of at least LAPACK_REPEATS calls,
#: and of more for small matrices, until the calls add up to LAPACK_MIN_S.
#: The minimum drops calls the host preempted, which for sub-millisecond
#: matrices would otherwise dominate the reference.
LAPACK_REPEATS = 5
LAPACK_MAX_REPEATS = 51
LAPACK_MIN_S = 0.05

EPS = {p: float(np.finfo(d).eps) for p, d in
       (("fp16", np.float16), ("fp32", np.float32), ("fp64", np.float64))}

#: Worst relative Frobenius error per precision that
#: ``benchmarks/results/table1_accuracy.txt`` shows, across its unified and
#: reference-library columns and its sizes up to n=256: fp64 2.4e-15
#: (unified), fp32 3.1e-7 (reference), fp16 9.0e-3 (unified; no
#: reference).  Error bounds grow linearly with n, so the bound at size n
#: is this value times ``max(1, n / 256)``.
TABLE1_MAX_REL_ERR = {"fp64": 2.4e-15, "fp32": 3.1e-7, "fp16": 9.0e-3}
TABLE1_N = 256


def rel_err_bound(precision: str, n: int) -> float:
    """Accepted relative Frobenius error of a solve of size ``n``."""
    return TABLE1_MAX_REL_ERR[precision] * max(1.0, n / TABLE1_N)


def rel_err(values, ref) -> float:
    """Relative Frobenius error of singular values against a reference."""
    values = np.asarray(values, dtype=np.float64)
    return float(np.linalg.norm(values - ref) / np.linalg.norm(ref))


def lapack_seconds(A: np.ndarray) -> float:
    """Wall time of ``np.linalg.svd(A, compute_uv=False)``, fastest call.

    fp16 has no LAPACK routine; it is timed in fp32, the nearest one.
    """
    if A.dtype == np.float16:
        A = A.astype(np.float32)
    times = []
    while len(times) < LAPACK_REPEATS or (
        sum(times) < LAPACK_MIN_S and len(times) < LAPACK_MAX_REPEATS
    ):
        t0 = time.perf_counter()
        np.linalg.svd(A, compute_uv=False)
        times.append(time.perf_counter() - t0)
    return min(times)


def best(samples) -> dict:
    """Per key, the fastest of its ``(key, seconds)`` samples.

    A run repeats the same unit of work (a case, a query, a round), and
    each metric is built from the fastest repeat of each unit.  The
    hosts this runs on share their cores: on the 2-vCPU measurement host
    the same solve ran 1.0x to 2.1x its fastest time within 40 seconds,
    in phases of several seconds, while its fastest tenth stayed within
    2% of the fastest.  So the fastest repeat measures the program, and a
    median over a run would measure the neighbours.  What drifts slower
    than a run is taken out by :class:`Reference`.
    """
    out = {}
    for key, seconds in samples:
        out[key] = min(seconds, out.get(key, math.inf))
    return out


def reference_loop() -> int:
    """A fixed pure-Python loop that gauges the host's current speed.

    It runs no ``repro`` code, so no change to the program moves it.
    """
    table, acc = {}, 0
    for i in range(400000):
        key = i % 97
        table[key] = table.get(key, 0) + i
        acc += len(str(i))
    return acc + len(table)


#: The :func:`reference_loop` time that scaled times refer to: about its
#: fastest time on the measurement host (2 vCPU x86_64, Python 3.11)
#: with quiet neighbours.
REFERENCE_NOMINAL_S = 0.052


#: The fixed matrix of :func:`lapack_reference_loop`.
_LAPACK_REFERENCE_MATRIX = np.random.default_rng(0).standard_normal((96, 96))


def lapack_reference_loop() -> None:
    """A fixed LAPACK workload that gauges the host's speed for compiled code.

    A loaded host slows LAPACK less than Python: with the Python loop 1.6-1.9x
    slower than on a quiet host, the LAPACK/solve ratios of the workloads rose
    22-46%, so each side of a ratio is scaled by a loop of its own kind.
    """
    for _ in range(50):
        np.linalg.svd(_LAPACK_REFERENCE_MATRIX, compute_uv=False)


#: The :func:`lapack_reference_loop` time that scaled LAPACK times refer to
#: (about its fastest time on the measurement host).
LAPACK_REFERENCE_NOMINAL_S = 0.026


class Reference:
    """Host speed over a timed phase, from interleaved reference loops.

    The workloads call :meth:`sample` between their operations, so the
    reference runs through the same host speeds as the program.  Whole
    runs of the same code differ in speed too (the loop's fastest time
    moved between 50 and 154 ms across runs minutes apart on the
    measurement host), and the program's fastest repeats move with it:
    scaling them by the loop cut the ten-run spread of the dense timings
    from 0.40-0.44 to 0.12-0.15 of their medians there.  The loop
    lasts about as long as one operation (50 ms), so that a host
    that time-slices its cores cuts into it as it cuts into the
    operations, and it is timed by its fastest sample, as they are.
    """

    def __init__(self) -> None:
        self.samples = []
        self.lapack_samples = []

    def sample(self) -> float:
        """Time one :func:`reference_loop` and one :func:`lapack_reference_loop`.

        Records both and returns the first's seconds.
        """
        t0 = time.perf_counter()
        lapack_reference_loop()
        t1 = time.perf_counter()
        reference_loop()
        self.lapack_samples.append(t1 - t0)
        self.samples.append(time.perf_counter() - t1)
        return self.samples[-1]

    def fast_s(self) -> float:
        """The fastest sample, like the program's fastest repeats."""
        return min(self.samples)

    def scale(self) -> float:
        """Measured seconds times this are seconds at the nominal speed."""
        return REFERENCE_NOMINAL_S / self.fast_s()

    def ratio_scale(self) -> float:
        """A solve-over-LAPACK time ratio times this has both sides scaled."""
        return self.scale() * min(self.lapack_samples) / LAPACK_REFERENCE_NOMINAL_S


def geomean(values) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def percentile_ms(latencies_s, q: float) -> float:
    """Linear-interpolated percentile of latencies, in milliseconds."""
    return float(np.percentile(np.asarray(latencies_s), q)) * 1e3


def end_to_end(setup_s, ops_per_s, p50_ms, p90_ms, attempted, failed,
               worst_eps, ratios) -> dict:
    """The end-to-end metrics every workload reports (tracing off)."""
    return {
        "setup_s": setup_s,
        "ops_per_s": ops_per_s,
        "latency_p50_ms": p50_ms,
        "latency_p90_ms": p90_ms,
        "success_rate": 1.0 - failed / attempted,
        "rel_err_max_eps": worst_eps,
        "lapack_ratio": geomean(ratios) if ratios else math.inf,
        # peak resident set size of this process (Linux reports KiB)
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def unit_metrics(best_s: dict, scale: float):
    """``(ops_per_s, p50_ms, p90_ms)`` of per-operation fastest times.

    Times are multiplied by ``scale`` (:meth:`Reference.scale`) first.
    ``ops_per_s`` is the operations per second of one repeat made of
    every operation at its fastest.
    """
    times = [t * scale for t in best_s.values()]
    if not times:
        return math.inf, math.inf, math.inf
    return len(times) / sum(times), percentile_ms(times, 50), percentile_ms(times, 90)


def fresh_import():
    """Import ``repro`` from scratch and return the module.

    Every ``repro`` module is dropped from ``sys.modules`` first, so each
    call pays the full import, as a new process would (NumPy stays
    loaded: input generation needs it and is not part of set-up).
    """
    for name in [m for m in sys.modules if m == "repro" or m.startswith("repro.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    return importlib.import_module("repro")


def timed_setup(build):
    """Run ``build(repro)`` after a fresh import, :data:`SETUP_REPEATS` times.

    Returns ``(median seconds at nominal speed, last build result)``; each
    sample covers the import and ``build`` and is scaled by the reference
    loop timed right before it.
    """
    samples, state, ref = [], None, Reference()
    for _ in range(SETUP_REPEATS):
        ref_s = ref.sample()
        t0 = time.perf_counter()
        repro = fresh_import()
        state = build(repro)
        samples.append((time.perf_counter() - t0) * REFERENCE_NOMINAL_S / ref_s)
    return statistics.median(samples), state


def _git_commit():
    """Commit of a git checkout, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            path = ROOT / ".git" / ref[5:]
            if path.exists():
                return path.read_text().strip()
            packed = ROOT / ".git" / "packed-refs"
            for line in packed.read_text().splitlines():
                if line.endswith(" " + ref[5:]):
                    return line.split()[0]
            return None
        return ref
    except OSError:
        return None


def src_digest() -> str:
    """SHA-256 over ``src/repro``'s Python files (identifies the code)."""
    h = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def env_stamp(seed: int, workload: str) -> dict:
    """The environment every result is stamped with."""
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except Exception:  # older NumPy: no dict mode
        pass
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "commit": _git_commit(),
        "src_sha256": src_digest(),
    }
