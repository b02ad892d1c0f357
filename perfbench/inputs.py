"""Seeded inputs of the three workloads.

Everything the program under test receives is generated here from the
``--seed`` argument with NumPy alone, so the same seed gives the same
matrices and queries on every host.  The seed varies matrix entries and
the order of queries; the shapes, precisions and query key counts are
fixed, so runs with different seeds do the same amount of work.
"""

from __future__ import annotations

import numpy as np

# --------------------------------------------------------------------- #
# dense
# --------------------------------------------------------------------- #
#: (label, precision, rows, cols, spectrum).  Square n in {96, 128, 160}
#: in fp32 and fp64, one in-range fp16 n=96, one fp16 input beyond the
#: fp16 range (the solver's power-of-two rescale path) and one tall fp32.
#: The sizes are small enough that a pass takes about two seconds, so
#: every case is solved many times in a run (see ``dense.py``).
DENSE_CASES = (
    ("fp32-96-graded", "fp32", 96, 96, "graded"),
    ("fp64-96-gauss", "fp64", 96, 96, "gauss"),
    ("fp32-128-graded", "fp32", 128, 128, "graded"),
    ("fp64-128-gauss", "fp64", 128, 128, "gauss"),
    ("fp32-160-gauss", "fp32", 160, 160, "gauss"),
    ("fp64-160-gauss", "fp64", 160, 160, "gauss"),
    ("fp16-96-gauss", "fp16", 96, 96, "gauss"),
    ("fp16-96-rescale", "fp16", 96, 96, "rescale"),
    ("fp32-384x96-graded", "fp32", 384, 96, "graded"),
)

_DTYPES = {"fp16": np.float16, "fp32": np.float32, "fp64": np.float64}

def _orthonormal(rng: np.random.Generator, m: int, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((m, n)))
    return q * np.sign(np.diag(r))


def _matrix(rng: np.random.Generator, m: int, n: int, kind: str) -> np.ndarray:
    if kind == "graded":
        # singular values graded geometrically over four decades
        k = min(m, n)
        sigma = np.logspace(0.0, -4.0, k)
        return (_orthonormal(rng, m, k) * sigma) @ _orthonormal(rng, n, k).T
    return rng.standard_normal((m, n))


def dense_inputs(seed: int):
    """``[(label, precision, A)]`` in solve order.

    In-range inputs are delivered in their storage dtype.  The fp16
    in-range input is scaled so that no rescaling is needed; the rescale
    input is fp32 with entries far above fp16's largest finite value.
    """
    rng = np.random.default_rng([seed, 1])
    out = []
    for label, prec, m, n, kind in DENSE_CASES:
        A = _matrix(rng, m, n, kind)
        if kind == "rescale":
            A = (A * 2.0**17).astype(np.float32)
        elif prec == "fp16":
            A = (A * (0.25 / np.max(np.abs(A)))).astype(np.float16)
        else:
            A = A.astype(_DTYPES[prec])
        out.append((label, prec, A))
    return out


# --------------------------------------------------------------------- #
# serve
# --------------------------------------------------------------------- #
SERVE_SIZES = (64, 96, 128)
SERVE_POOL_PER_SIZE = 24
SERVE_CLIENTS = 16


def serve_pool(seed: int):
    """fp32 Gaussian matrices, :data:`SERVE_POOL_PER_SIZE` per size."""
    rng = np.random.default_rng([seed, 2])
    return [
        rng.standard_normal((n, n)).astype(np.float32)
        for n in SERVE_SIZES
        for _ in range(SERVE_POOL_PER_SIZE)
    ]


#: The size rotation of every client (indices into SERVE_SIZES).  n=128
#: comes twice, so the median request falls inside the slow mode of the
#: latency distribution rather than on the edge between the fast n=64
#: mode and the rest, where it would jump from run to run.
SERVE_ROTATION = (0, 1, 2, 2)


def serve_orders(seed: int):
    """Per size, the seeded order in which its pool matrices are sent."""
    rng = np.random.default_rng([seed, 3])
    return [rng.permutation(SERVE_POOL_PER_SIZE) for _ in SERVE_SIZES]


# --------------------------------------------------------------------- #
# plan
# --------------------------------------------------------------------- #
#: Query keys in popularity order: (backend, precision, axis, n).  Axis
#: names map to ``Solver.predict`` keyword sets in ``planning.py``.
PLAN_KEYS = (
    ("h100", "fp32", "single", 8192),
    ("h100", "fp32", "single", 32768),
    ("h100", "fp32", "streams2", 8192),
    ("a100", "fp64", "single", 16384),
    ("h100", "fp32", "batch", 2048),
    ("mi250", "fp32", "single", 8192),
    ("h100", "fp32", "ngpu4_nodes2", 4096),
    ("h100", "fp16", "single", 16384),
    ("a100", "fp32", "eigh", 8192),
    ("h100", "fp32", "lowrank", 32768),
    ("a100", "fp64", "topology", 4096),
    ("h100", "fp32", "ngpu4", 16384),
    ("a100", "fp32", "out_of_core", 8192),
    ("mi250", "fp64", "streams2", 4096),
    ("h100", "fp64", "single", 2048),
    ("a100", "fp32", "batch", 4096),
    ("h100", "fp32", "out_of_core", 32768),
    ("mi250", "fp32", "ngpu4", 8192),
    ("a100", "fp16", "lowrank", 16384),
    ("h100", "fp64", "eigh", 4096),
    ("a100", "fp32", "ngpu4_nodes2", 2048),
    ("h100", "fp32", "topology", 2048),
    ("mi250", "fp32", "single", 32768),
    ("a100", "fp64", "out_of_core", 16384),
    ("h100", "fp16", "batch", 8192),
    ("a100", "fp32", "streams2", 2048),
    ("h100", "fp64", "lowrank", 8192),
    ("mi250", "fp32", "eigh", 16384),
    ("a100", "fp64", "ngpu4", 32768),
    ("h100", "fp32", "single", 2048),
    ("mi250", "fp64", "topology", 8192),
    ("a100", "fp32", "single", 4096),
    ("h100", "fp64", "streams2", 16384),
    ("mi250", "fp32", "out_of_core", 4096),
    ("a100", "fp16", "single", 32768),
    ("h100", "fp64", "ngpu4_nodes2", 8192),
    ("mi250", "fp32", "batch", 16384),
    ("a100", "fp64", "eigh", 32768),
    ("h100", "fp32", "ngpu4", 4096),
    ("mi250", "fp64", "lowrank", 2048),
    ("a100", "fp32", "topology", 16384),
    ("h100", "fp16", "out_of_core", 4096),
    ("mi250", "fp32", "streams2", 32768),
    ("a100", "fp64", "batch", 2048),
    ("h100", "fp32", "eigh", 2048),
    ("mi250", "fp64", "ngpu4", 16384),
    ("a100", "fp32", "lowrank", 4096),
    ("h100", "fp64", "out_of_core", 2048),
    ("mi250", "fp32", "ngpu4_nodes2", 16384),
    ("a100", "fp16", "eigh", 4096),
    ("h100", "fp32", "single", 16384),
    ("mi250", "fp64", "single", 4096),
)

PLAN_QUERIES = 400
ZIPF_S = 1.0

#: Three cold ``tune(budget=32)`` calls on different backend/precision
#: pairs: (backend, precision, n).
TUNE_CASES = (
    ("mi250", "fp32", 1024),
    ("h100", "fp32", 1024),
    ("a100", "fp64", 1024),
)
TUNE_BUDGET = 32


def zipf_counts(nkeys: int = len(PLAN_KEYS), total: int = PLAN_QUERIES):
    """Per-key query counts proportional to ``rank**-s``; each key >= 1.

    Largest-remainder rounding makes the counts sum to ``total`` exactly,
    independent of the seed.
    """
    w = np.arange(1, nkeys + 1, dtype=float) ** -ZIPF_S
    raw = total * w / w.sum()
    counts = np.maximum(np.floor(raw).astype(int), 1)
    rest = total - int(counts.sum())
    order = np.argsort(-(raw - np.floor(raw)), kind="stable")
    counts[order[:rest]] += 1
    return counts


def plan_stream(seed: int):
    """The query sequence: key indices with Zipf counts, seeded order."""
    counts = zipf_counts()
    keys = np.repeat(np.arange(len(PLAN_KEYS)), counts)
    rng = np.random.default_rng([seed, 4])
    return [int(k) for k in rng.permutation(keys)]


#: Each tuned handle solves this many seeded n x n matrices after the
#: timed phase.
TUNED_CHECKS = 4
TUNED_CHECK_N = 128


def tuned_check_matrices(seed: int, i: int, precision: str):
    """The matrices tuned handle ``i`` solves after the timed phase."""
    rng = np.random.default_rng([seed, 5, i])
    n = TUNED_CHECK_N
    return [rng.standard_normal((n, n)).astype(_DTYPES[precision])
            for _ in range(TUNED_CHECKS)]
