"""Stage 2: band -> bidiagonal reduction by Givens bulge chasing.

The paper performs this memory-bound stage on the GPU with cache-efficient
tile kernels (Haidar et al., SC'11) and runs many chase sweeps at once, the
pipelined schedule of Ballard, Demmel & Knight ("Avoiding communication in
successive band reduction", TOPC 2015).  This reproduction keeps the
classical rotation *sequence* - for each row, annihilate the
out-of-bidiagonal band entries with right Givens rotations, chasing each
bulge down the band with alternating left/right rotations - and runs it in
dependency *waves* over a ``(B, n, n)`` stack of problems.

Schedule.  Every rotation touches a fixed window: two adjacent columns
over a row range, or two adjacent rows over a column range.  The windows
depend only on ``n`` and ``band``; the data decides only whether a
rotation is skipped (its annihilation target is already zero, or its
chase was never started).  :func:`_schedule` walks the classical order
once per ``(n, band)`` and puts each rotation in the first wave after
every earlier rotation whose window overlaps it.  The memo holds compact
int32 per-rotation descriptors (kind, pivot line, range, chase), never
per-element index arrays.

Byte identity.  Rotations in one wave touch disjoint elements, and any two
rotations sharing an element keep their classical order across waves, so
every element sees the same floating-point operations in the same order
as in the one-at-a-time loop.  Each ``(c, s)`` pair still comes from the
scalar :func:`givens`, the products and sums run in the work dtype, and a
skipped rotation leaves its window's bytes untouched (``-0.0`` included),
so the result is byte-identical by construction; ``tests/data/
numeric_golden.json`` pins it.

Execution.  A wave with at least :data:`WIDE_WAVE` rotations across the
stack is applied at once: its windows are gathered from the flattened
stack, rotated in one vectorised expression and scattered back.  Narrower
waves - single solves have only 1-3 rotations per wave - are applied
rotation by rotation with basic slices, where a gather would cost more
than it saves.

The routine returns the main diagonal and superdiagonal of the bidiagonal
result.  Orthogonal equivalence guarantees the singular values are
preserved - the property tests pin this against SciPy on random band
matrices.
"""

from __future__ import annotations

import math
from array import array
from functools import lru_cache
from typing import List, NamedTuple, Optional, Tuple

import numpy as np

from ..errors import ShapeError
from ..sim.costmodel import brd_launch_count
from ..sim.graph import LaunchNode
from ..sim.session import Session
from ..sim.tracing import Stage

__all__ = ["band_to_bidiagonal", "emit_brd_chase", "givens"]

#: Waves with at least this many rotations across the whole stack are
#: applied by one gather-rotate-scatter; narrower ones rotation by rotation.
WIDE_WAVE = 5

#: Rotations per block of descriptors expanded at run time (bounds the
#: transient memory; the memo keeps only compact per-rotation data).
_BLOCK = 256

# rotation kinds: the right rotation that starts a chase, a left rotation
# (rows k, k+1 over columns lo..hi), a right rotation (columns k, k+1 over
# rows lo..hi).  The pivot pair (f, g) is always the first element of the
# two rotated lines, and g is the element the rotation annihilates.
_HEAD, _ROW, _COL = 0, 1, 2


def emit_brd_chase(
    n: int, band: int, coeffs, deps: Tuple[int, ...] = (), start: int = 0
) -> List[LaunchNode]:
    """Emit the stage-2 bulge-chasing launch nodes for an ``n x n`` band.

    The chase issues :func:`~repro.sim.costmodel.brd_launch_count` fused
    kernel launches; the aggregate stage cost rides on the first (primary)
    node and the remaining launches charge only their overhead, exactly
    like :meth:`repro.sim.session.Session.launch_brd` records them.
    ``deps`` anchors the first launch on the tail of stage 1, ``start`` is
    the global index these nodes begin at (the chase is a serial chain, so
    launch ``i`` depends on launch ``i - 1``).
    """
    nbrd = brd_launch_count(n, band, coeffs)
    nodes: List[LaunchNode] = []
    for i in range(nbrd):
        nodes.append(
            LaunchNode(
                "brd_chase",
                Stage.BRD,
                ("brd", n, band),
                deps=tuple(deps) if i == 0 else (start + i - 1,),
                primary=(i == 0),
            )
        )
    return nodes


def givens(f: float, g: float) -> Tuple[float, float, float]:
    """LAPACK ``lartg``-style rotation: ``c f + s g = r``, ``-s f + c g = 0``.

    Returns ``(c, s, r)`` with ``c^2 + s^2 = 1``, computed without spurious
    overflow for moderate inputs.
    """
    if g == 0.0:
        return 1.0, 0.0, f
    if f == 0.0:
        return 0.0, 1.0, g
    r = math.hypot(f, g)
    if abs(f) > abs(g):
        # keep the sign convention of f to limit sign churn along the band
        r = math.copysign(r, f)
    return f / r, g / r, r


class _Schedule(NamedTuple):
    """Per-rotation descriptors in wave order (all int32 but ``kind``)."""

    kind: np.ndarray  # int8: _HEAD / _ROW / _COL
    k: np.ndarray  # first of the two rotated rows (_ROW) or columns
    lo: np.ndarray  # first index of the rotated range (the pivot's)
    hi: np.ndarray  # last index of the rotated range (inclusive)
    chase: np.ndarray  # chase id (one per _HEAD, in classical order)
    wave_ptr: np.ndarray  # rotations of wave w: wave_ptr[w]:wave_ptr[w+1]
    nchase: int


@lru_cache(maxsize=16)
def _schedule(n: int, band: int) -> _Schedule:
    """The wave schedule of the classical chase of an ``n x n`` band.

    ``band`` must lie in ``2..n-1`` (wider bands chase exactly like
    ``n - 1``).  Each rotation's wave is one past the latest wave of any
    earlier rotation whose window overlaps its own.
    """
    cols = [array("i") for _ in range(6)]  # kind, k, lo, hi, chase, wave
    kinds, ks, los, his, chases, waves = (c.append for c in cols)
    last = np.full((n, n), -1, dtype=np.int32)  # latest wave per element

    def add(kind, k, lo, hi, chase):
        if kind == _ROW:
            win = last[k : k + 2, lo : hi + 1]
        else:
            win = last[lo : hi + 1, k : k + 2]
        w = int(win.max()) + 1
        win[...] = w
        kinds(kind)
        ks(k)
        los(lo)
        his(hi)
        chases(chase)
        waves(w)

    chase = 0
    for i in range(n - 1):
        for j in range(min(i + band, n - 1), i + 1, -1):
            add(_HEAD, j - 1, i, min(n - 1, j), chase)
            p = j
            while p < n:
                add(_ROW, p - 1, p - 1, min(n - 1, p + band), chase)
                q = p + band
                if q > n - 1:
                    break
                add(_COL, q - 1, p - 1, min(n - 1, q), chase)
                p = q
            chase += 1

    kind, k, lo, hi, chase_id, wave = (
        np.frombuffer(c, dtype=np.int32) for c in cols
    )
    order = np.argsort(wave, kind="stable")
    counts = np.bincount(wave)
    wave_ptr = np.zeros(counts.size + 1, dtype=np.int32)
    np.cumsum(counts, out=wave_ptr[1:])
    return _Schedule(
        kind[order].astype(np.int8), k[order], lo[order], hi[order],
        chase_id[order], wave_ptr, chase,
    )


def _band_mask(n: int, band: int) -> np.ndarray:
    """True outside diagonals ``0..band`` (entries stage 2 must ignore)."""
    return np.tri(n, n, -1, dtype=bool) | ~np.tri(n, n, band, dtype=bool)


def _apply_narrow(M, K, kind, k, lo, hi, alive, chase) -> bool:
    """One rotation on one problem ``M`` with basic slices.

    ``K`` is a ``(2, 2, 1)`` scratch array in ``M``'s dtype; it receives
    ``[[c, s], [-s, c]]`` so that one broadcast product and one sum give
    both rotated lines: ``c a + s b`` and ``-s a + c b``, each product
    and sum rounded once in the work dtype exactly as the scalar
    expressions are.  Returns whether the rotation skips its whole chase.
    """
    if kind == _ROW:
        f = M.item(k, lo)
        g = M.item(k + 1, lo)
    else:
        f = M.item(lo, k)
        g = M.item(lo, k + 1)
    if kind == _HEAD:
        if g == 0.0:
            # a chase whose first target is already zero is skipped whole
            alive[chase] = False
            return True
    elif g == 0.0 or not alive[chase]:
        return False
    c, s, _ = givens(f, g)
    K[0, 0, 0] = K[1, 1, 0] = c
    K[0, 1, 0] = s
    K[1, 0, 0] = -s
    if kind == _ROW:
        lines = M[k : k + 2, lo : hi + 1]
    else:
        lines = M[lo : hi + 1, k : k + 2].T
    P = K * lines
    lines[...] = P[:, 0] + P[:, 1]
    lines[1, 0] = 0.0
    return False


class _WideIndex:
    """Flat element indices of a block of rotations ``r0:r1``.

    ``lines[0]``/``lines[1]`` index the two rotated lines of every
    rotation in the flattened ``(n * n)`` problem; ``eptr[r - r0]`` is
    where rotation ``r``'s elements start and ``rel`` maps each element to
    its rotation.
    """

    def __init__(self, sched: _Schedule, n: int, r0: int, r1: int) -> None:
        kind = sched.kind[r0:r1]
        k = sched.k[r0:r1].astype(np.intp)
        lo = sched.lo[r0:r1].astype(np.intp)
        length = sched.hi[r0:r1].astype(np.intp) - lo + 1
        row = kind == _ROW
        # a rotated column runs down the rows (stride n), a row across
        base = np.where(row, k * n + lo, lo * n + k)
        stride = np.where(row, 1, n)
        self.eptr = np.zeros(r1 - r0 + 1, dtype=np.intp)
        np.cumsum(length, out=self.eptr[1:])
        self.rel = np.repeat(np.arange(r1 - r0), length)
        t = np.arange(self.eptr[-1]) - self.eptr[:-1][self.rel]
        first = base[self.rel] + stride[self.rel] * t
        self.lines = np.stack([first, first + np.where(row, n, 1)[self.rel]])
        self.head = kind == _HEAD
        self.r0 = r0


def _apply_wide(Wf, offs, idx: _WideIndex, p0, p1, chase, alive, dead) -> bool:
    """Apply rotations ``p0:p1`` (one wave) to every problem of the stack.

    ``Wf`` is the flattened stack and ``offs`` each problem's offset in
    it.  The windows are gathered into ``X`` of shape ``(2, B, E)`` (the
    two rotated lines); ``K[:, :, b, r]`` holds ``[[c, s], [-s, c]]`` of
    problem ``b``'s rotation ``r``, so one broadcast product and one sum
    rotate every window, rounding each product and sum once in the work
    dtype exactly as the scalar expressions do.  ``chase`` is the wave's
    chase ids; ``dead`` says whether any chase has been skipped so far.
    Returns whether one is skipped now.
    """
    q0, q1 = p0 - idx.r0, p1 - idx.r0
    e0, e1 = idx.eptr[q0], idx.eptr[q1]
    rel = idx.rel[e0:e1] - q0
    first = idx.eptr[q0:q1] - e0
    gidx = idx.lines[:, None, e0:e1] + offs
    X = Wf[gidx]
    fg = X[:, :, first]
    f, g = fg.reshape(2, -1).tolist()
    c, s, _ = zip(*map(givens, f, g))
    K = np.array((c, s, s, c), dtype=Wf.dtype)
    np.negative(K[2], out=K[2])
    K = K.reshape(2, 2, *fg.shape[1:])[..., rel]
    P = K * X
    new = P[:, 0] + P[:, 1]
    new[1, :, first] = 0.0
    killed = False
    if dead or 0.0 in g:
        # mask the skips: a zero target, or a chase that never started
        act = alive[:, chase] & (fg[1] != 0.0)
        starts = idx.head[q0:q1]
        if starts.any():
            alive[:, chase[starts]] = act[:, starts]
            killed = not act[:, starts].all()
        if not act.all():
            new = np.where(act[:, rel], new, X)
    Wf[gidx] = new
    return killed


def _chase(W: np.ndarray, band: int) -> None:
    """Run the wave schedule in place over a C-contiguous ``(B, n, n)``.

    Waves are taken in blocks of about :data:`_BLOCK` rotations, whose
    descriptors (and wide-wave indices) are expanded one block at a time.
    """
    nb, n, _ = W.shape
    sched = _schedule(n, band)
    Wf = W.reshape(-1)
    offs = (np.arange(nb) * (n * n))[:, None]
    alive = np.ones((nb, sched.nchase), dtype=bool)
    alive_rows = list(alive)  # per-problem views for the slice path
    dead = False  # has any chase been skipped whole?
    K = np.empty((2, 2, 1), dtype=W.dtype)
    mats = list(W)
    ptr = sched.wave_ptr
    wide = np.diff(ptr) * nb >= WIDE_WAVE
    nwaves = len(wide)
    w0 = 0
    while w0 < nwaves:
        w1 = int(np.searchsorted(ptr, ptr[w0] + _BLOCK, side="right")) - 1
        w1 = min(max(w1, w0 + 1), nwaves)
        r0, r1 = int(ptr[w0]), int(ptr[w1])
        idx = _WideIndex(sched, n, r0, r1) if wide[w0:w1].any() else None
        kinds, ks, los, his, chases = (
            a[r0:r1].tolist()
            for a in (sched.kind, sched.k, sched.lo, sched.hi, sched.chase)
        )
        bounds = ptr[w0 : w1 + 1].tolist()
        for w, p0, p1 in zip(range(w0, w1), bounds, bounds[1:]):
            if wide[w]:
                dead |= _apply_wide(
                    Wf, offs, idx, p0, p1, sched.chase[p0:p1], alive, dead
                )
                continue
            for r in range(p0 - r0, p1 - r0):
                kind, k, lo, hi, ch = kinds[r], ks[r], los[r], his[r], chases[r]
                for M, al in zip(mats, alive_rows):
                    dead |= _apply_narrow(M, K, kind, k, lo, hi, al, ch)
        w0 = w1


def band_to_bidiagonal(
    A: np.ndarray,
    band: int,
    session: Optional[Session] = None,
    inplace: bool = False,
) -> Tuple[np.ndarray, np.ndarray]:
    """Reduce an upper-band matrix, or a stack of them, to bidiagonal form.

    Parameters
    ----------
    A:
        ``(n, n)`` array, or ``(B, n, n)`` stack, whose nonzeros lie on
        diagonals ``0..band``.  Content outside the band is ignored
        (zeroed on entry), so stage-1 output with resident reflector
        tails may be passed as is.
    band:
        Upper bandwidth of the input (``TILESIZE`` after stage 1).
    session:
        Simulator session; charged with the aggregate stage-2 cost once
        per problem.
    inplace:
        Mutate ``A`` instead of a copy (the copy is in ``A``'s dtype).

    Returns
    -------
    (d, e):
        Main diagonal (length ``n``) and superdiagonal (length ``n-1``) of
        the bidiagonal matrix, in ``A``'s dtype; ``(B, n)`` and
        ``(B, n-1)`` for a stack.  Each problem of a stack gets exactly
        the bytes it would get alone.
    """
    stacked = A.ndim == 3
    if A.ndim not in (2, 3) or A.shape[-1] != A.shape[-2]:
        raise ShapeError(f"expected a square matrix or a stack, got {A.shape}")
    n = A.shape[-1]
    if session is not None:
        for _ in range(A.shape[0] if stacked else 1):
            session.launch_brd(n, band)
    if band <= 1 or n <= 2:
        d = np.diagonal(A, 0, -2, -1).copy()
        e = np.diagonal(A, 1, -2, -1).copy()
        return d, e

    band = min(band, n - 1)
    W = A if inplace and A.flags.c_contiguous else np.array(A, order="C")
    np.copyto(W, 0.0, where=_band_mask(n, band))
    _chase(W if stacked else W[None], band)
    if W is not A and inplace:
        A[...] = W
    d = np.diagonal(W, 0, -2, -1).copy()
    e = np.diagonal(W, 1, -2, -1).copy()
    return d, e
