"""Golden pin of the stage-2 bytes: ``band_to_bidiagonal``'s ``(d, e)``.

For every dtype x size x bandwidth x input pattern of the grid below, the
sha256 of ``d.tobytes() + e.tobytes()`` is compared with
``tests/data/numeric_golden.json``, which was written by the classical
one-rotation-at-a-time bulge chase.  Any reorganisation of stage 2 (wave
scheduling, stacking problems) must reproduce it byte for byte, signed
zeros included.

Inputs come from a fixed integer formula, not a random stream, so the pin
does not depend on a generator's implementation.  Only stage 2 is hashed:
stage 1 calls BLAS matrix products, whose bytes may differ between hosts.
Regenerate only on a deliberate numerical change with::

    PYTHONPATH=src python tests/test_numeric_golden.py --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from repro.core.brd import band_to_bidiagonal

GOLDEN = Path(__file__).parent / "data" / "numeric_golden.json"

DTYPES = ("float16", "float32", "float64")
SIZES = (1, 2, 3, 5, 33, 64, 96, 160)
BANDS = (1, 2, 3, 8, 32)
PATTERNS = ("dense", "holes")


def golden_input(n: int, band: int, dtype: str, pattern: str) -> np.ndarray:
    """An ``n x n`` upper-band matrix (diagonals ``0..band``) from integers.

    Entries are multiples of 1/8 in [-11/8, 11/8], exact in every dtype;
    the formula itself yields some exact zeros.  ``holes`` adds more exact
    zeros, ``-0.0`` entries inside the band and zero trailing rows and
    columns (the padding a tiled driver appends).
    """
    i, j = np.indices((n, n))
    v = ((7 * i + 13 * j + 3 * n + band) % 23 - 11).astype(np.float64) / 8.0
    if pattern == "holes":
        v[(i * j + i) % 5 == 0] = 0.0
        v[(i + 2 * j) % 7 == 3] = -0.0
        pad = n // 4
        if pad:
            v[n - pad :, :] = 0.0
            v[:, n - pad :] = 0.0
    inside = (j >= i) & (j - i <= band)
    return np.where(inside, v, 0.0).astype(dtype)


def _digest(d: np.ndarray, e: np.ndarray) -> str:
    return hashlib.sha256(d.tobytes() + e.tobytes()).hexdigest()


def compute_golden() -> dict:
    out = {}
    for dtype in DTYPES:
        for n in SIZES:
            for band in BANDS:
                for pattern in PATTERNS:
                    A = golden_input(n, band, dtype, pattern)
                    d, e = band_to_bidiagonal(A, band)
                    assert d.dtype == e.dtype == np.dtype(dtype)
                    out[f"{dtype}/n{n}/band{band}/{pattern}"] = _digest(d, e)
    return out


def test_stage2_bytes_match_golden():
    golden = json.loads(GOLDEN.read_text())
    fresh = compute_golden()
    assert sorted(fresh) == sorted(golden)
    drift = [k for k in golden if fresh[k] != golden[k]]
    assert not drift, f"{len(drift)} cases drifted, e.g. {drift[:5]}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_numeric_golden.py --write")
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(compute_golden(), indent=1, sort_keys=True) + "\n")
