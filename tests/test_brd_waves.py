"""The wave engine of stage 2 against the one-rotation-at-a-time reference.

``repro.core.brd`` regroups the classical chase into dependency waves and
runs them over a stack of problems.  These tests hold it to
``tests/reference_brd.py`` byte for byte, per problem, and check the
schedule itself: rotations in one wave share no element, and every
element sees its rotations in classical order.  Any ``RuntimeWarning``
(overflow, invalid operation) fails the module.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.brd as brd
from repro.core.brd import band_to_bidiagonal
from tests.conftest import rel_err, scipy_svdvals
from tests.reference_brd import reference_band_to_bidiagonal

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

DTYPES = (np.float16, np.float32, np.float64)


def _band_stack(seed, nb, n, band, dtype, zeros, negzeros, empty):
    """``nb`` upper-band problems; problem ``empty`` (if any) is all zero."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((nb, n, n))
    i, j = np.indices((n, n))
    inside = (j >= i) & (j - i <= band)
    X[rng.random(X.shape) < zeros] = 0.0
    X[(rng.random(X.shape) < negzeros) & inside] = -0.0
    X = np.where(inside, X, 0.0).astype(dtype)
    if empty is not None:
        X[empty % nb] = 0.0
    return X


def _assert_matches_reference(X, band):
    d, e = band_to_bidiagonal(X, band)
    assert d.shape == X.shape[:2] and e.shape == (X.shape[0], X.shape[1] - 1)
    for p in range(X.shape[0]):
        dr, er = reference_band_to_bidiagonal(X[p], band)
        assert d[p].tobytes() == dr.tobytes(), f"d of problem {p}"
        assert e[p].tobytes() == er.tobytes(), f"e of problem {p}"


class TestMatchesReference:
    @given(
        nb=st.integers(1, 8),
        n=st.integers(1, 40),
        band=st.integers(1, 34),
        dtype=st.sampled_from(DTYPES),
        zeros=st.sampled_from((0.0, 0.2, 0.6)),
        negzeros=st.sampled_from((0.0, 0.1)),
        empty=st.one_of(st.none(), st.integers(0, 7)),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=60, deadline=None)
    def test_stack_bytes_equal_reference(
        self, nb, n, band, dtype, zeros, negzeros, empty, seed
    ):
        X = _band_stack(seed, nb, n, band, dtype, zeros, negzeros, empty)
        _assert_matches_reference(X, band)

    @pytest.mark.parametrize("wide", [1, 10**9])
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_wide_and_narrow_paths_agree(self, monkeypatch, wide, dtype):
        """Forcing every wave onto one path still gives reference bytes."""
        monkeypatch.setattr(brd, "WIDE_WAVE", wide)
        X = _band_stack(7, 3, 70, 8, dtype, 0.1, 0.05, 1)
        _assert_matches_reference(X, 8)
        _assert_matches_reference(X[:1], 8)

    def test_serve_shapes(self):
        """The stacks batched replay sends: tile-size bands, padded rows."""
        for nb, n in ((4, 64), (4, 96), (8, 128)):
            X = _band_stack(n, nb, n, 32, np.float32, 0.0, 0.0, None)
            X[-1, n - 20 :, :] = 0.0
            X[-1, :, n - 20 :] = 0.0
            _assert_matches_reference(X, 32)


def _classical(n, band):
    """Rotation windows ``(kind, k, lo, hi, chase)`` in classical order."""
    out = []
    chase = 0
    for i in range(n - 1):
        for j in range(min(i + band, n - 1), i + 1, -1):
            out.append((brd._HEAD, j - 1, i, min(n - 1, j), chase))
            p = j
            while p < n:
                out.append((brd._ROW, p - 1, p - 1, min(n - 1, p + band), chase))
                q = p + band
                if q > n - 1:
                    break
                out.append((brd._COL, q - 1, p - 1, min(n - 1, q), chase))
                p = q
            chase += 1
    return out


class TestSchedule:
    @pytest.mark.parametrize("n", [3, 4, 17, 33, 64, 100, 160])
    @pytest.mark.parametrize("band", [2, 3, 8, 32])
    def test_waves_are_disjoint_and_keep_element_order(self, n, band):
        band = min(band, n - 1)
        if band < 2:
            pytest.skip("bands below 2 have no chase")
        sched = brd._schedule(n, band)
        order = {rot: r for r, rot in enumerate(_classical(n, band))}
        rots = list(zip(*(a.tolist() for a in sched[:5])))
        assert sorted(rots, key=order.__getitem__) == list(order)
        wave = np.repeat(
            np.arange(len(sched.wave_ptr) - 1), np.diff(sched.wave_ptr)
        )
        elem, wv, rank = [], [], []
        for (kind, k, lo, hi, ch), w in zip(rots, wave.tolist()):
            span = np.arange(lo, hi + 1)
            if kind == brd._ROW:
                cells = np.concatenate([k * n + span, (k + 1) * n + span])
            else:
                cells = np.concatenate([span * n + k, span * n + k + 1])
            elem.append(cells)
            wv.append(np.full(cells.size, w))
            rank.append(np.full(cells.size, order[(kind, k, lo, hi, ch)]))
        elem, wv, rank = map(np.concatenate, (elem, wv, rank))
        idx = np.lexsort((wv, elem))
        elem, wv, rank = elem[idx], wv[idx], rank[idx]
        same = elem[1:] == elem[:-1]
        # no element is touched twice in one wave ...
        assert np.all(wv[1:][same] > wv[:-1][same])
        # ... and wave order is classical order on every element
        assert np.all(rank[1:][same] > rank[:-1][same])

    def test_memo_is_compact(self):
        sched = brd._schedule(160, 32)
        nbytes = sum(a.nbytes for a in sched[:6])
        assert nbytes <= 2 * 2**20
        assert all(a.dtype.itemsize <= 4 for a in sched[:6])


class TestContract:
    def test_below_band_content_is_ignored(self):
        """A strictly lower triangle must not leak into the chase."""
        rng = np.random.default_rng(3)
        n, band = 12, 3
        A = rng.standard_normal((n, n))
        clean = np.triu(np.tril(A, band))
        d, e = band_to_bidiagonal(A, band)
        dc, ec = band_to_bidiagonal(clean, band)
        assert d.tobytes() == dc.tobytes() and e.tobytes() == ec.tobytes()
        B = np.diag(d) + np.diag(e, 1)
        assert rel_err(scipy_svdvals(B), scipy_svdvals(clean)) < 1e-12

    def test_inplace_on_a_non_contiguous_input(self):
        X = _band_stack(5, 1, 20, 4, np.float64, 0.0, 0.0, None)[0]
        F = np.asfortranarray(X)
        d, e = band_to_bidiagonal(F, 4, inplace=True)
        dr, er = reference_band_to_bidiagonal(X, 4)
        assert d.tobytes() == dr.tobytes() and e.tobytes() == er.tobytes()
        assert np.array_equal(np.diagonal(F), d)

    def test_stack_of_trivial_bands(self):
        X = _band_stack(1, 3, 6, 1, np.float32, 0.0, 0.0, None)
        d, e = band_to_bidiagonal(X, 1)
        assert d.shape == (3, 6) and e.shape == (3, 5)
        assert np.array_equal(d, np.diagonal(X, 0, 1, 2))
