"""Reference stage 2: the classical one-rotation-at-a-time bulge chase.

This is the scalar loop ``repro.core.brd`` ran before the wave engine: for
each row, annihilate the out-of-bidiagonal band entries with right Givens
rotations and chase each bulge down the band with alternating left/right
rotations, one NumPy slice update per rotation.  The property tests hold
the engine to it byte for byte.
"""

from __future__ import annotations

import numpy as np

from repro.core.brd import givens


def _rot_cols(A, j1, j2, r0, r1, c, s):
    """Apply a right rotation to columns ``j1, j2`` over rows ``r0..r1``."""
    a = A[r0 : r1 + 1, j1].copy()
    b = A[r0 : r1 + 1, j2]
    A[r0 : r1 + 1, j1] = c * a + s * b
    A[r0 : r1 + 1, j2] = -s * a + c * b


def _rot_rows(A, i1, i2, c0, c1, c, s):
    """Apply a left rotation to rows ``i1, i2`` over columns ``c0..c1``."""
    a = A[i1, c0 : c1 + 1].copy()
    b = A[i2, c0 : c1 + 1]
    A[i1, c0 : c1 + 1] = c * a + s * b
    A[i2, c0 : c1 + 1] = -s * a + c * b


def reference_band_to_bidiagonal(A: np.ndarray, band: int):
    """``(d, e)`` of an ``(n, n)`` upper-band matrix, in ``A``'s dtype."""
    n = A.shape[0]
    if band <= 1 or n <= 2:
        d = np.diagonal(A).copy()
        e = np.diagonal(A, 1).copy() if n > 1 else np.zeros(0, A.dtype)
        return d, e
    W = np.array(A, copy=True)
    for i in range(n - 1):
        hi = min(i + band, n - 1)
        for j in range(hi, i + 1, -1):
            f = float(W[i, j - 1])
            g = float(W[i, j])
            if g == 0.0:
                continue
            c, s, _ = givens(f, g)
            _rot_cols(W, j - 1, j, i, min(n - 1, j), c, s)
            W[i, j] = 0.0
            p = j
            while p < n:
                f = float(W[p - 1, p - 1])
                g = float(W[p, p - 1])
                if g != 0.0:
                    c, s, _ = givens(f, g)
                    _rot_rows(W, p - 1, p, p - 1, min(n - 1, p + band), c, s)
                    W[p, p - 1] = 0.0
                q = p + band
                if q > n - 1:
                    break
                f = float(W[p - 1, q - 1])
                g = float(W[p - 1, q])
                if g != 0.0:
                    c, s, _ = givens(f, g)
                    _rot_cols(W, q - 1, q, p - 1, min(n - 1, q), c, s)
                    W[p - 1, q] = 0.0
                p = q
    return np.diagonal(W).copy(), np.diagonal(W, 1).copy()
