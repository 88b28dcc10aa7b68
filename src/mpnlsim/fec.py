"""LDPC coding: quasi-cyclic rate-1/2 mother code, normalized min-sum
decoding (max 10 iterations), and shortening/puncturing rate matching to
hit MCS code rates.

The shipped code lifts a 12x24 base matrix with circulant size 54
(n = 1296, k = 648).  The base matrix was searched offline for girth >= 6
and full rank; the parity part is dual-diagonal.  It is the only mother
code: no config key selects another.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from typing import NamedTuple

import numpy as np

MIN_SUM_NORMALIZATION = 0.8125
DEFAULT_MAX_ITER = 10
# Words decoded together; larger batches are split into blocks this size,
# which keeps the working arrays small and leaves every output unchanged.
DECODE_BLOCK = 128

# LLR magnitude assigned to shortened (known-zero) bits at the decoder.
SHORTENED_LLR = 1e7

LIFT = 54
# -1 marks an all-zero block; other entries are circulant right-shifts.
BASE_MATRIX = (
    (-1, -1, -1, -1, -1, -1, 47, -1, -1, 16, -1, 45, 1, 0, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1),
    (-1, -1, -1, -1, -1, -1, 24, -1, 29, -1, 8, -1, -1, 0, 0, -1, -1, -1, -1, -1, -1, -1, -1, -1),
    (-1, -1, 20, 46, -1, -1, -1, 0, -1, -1, -1, -1, -1, -1, 0, 0, -1, -1, -1, -1, -1, -1, -1, -1),
    (-1, -1, -1, 0, 13, -1, -1, 53, -1, -1, -1, -1, -1, -1, -1, 0, 0, -1, -1, -1, -1, -1, -1, -1),
    (-1, -1, -1, -1, 4, -1, -1, 9, -1, -1, 23, -1, -1, -1, -1, -1, 0, 0, -1, -1, -1, -1, -1, -1),
    (14, -1, -1, -1, -1, 52, -1, -1, -1, -1, -1, 11, -1, -1, -1, -1, -1, 0, 0, -1, -1, -1, -1, -1),
    (-1, -1, -1, -1, -1, 13, -1, -1, 37, -1, 24, -1, 0, -1, -1, -1, -1, -1, 0, 0, -1, -1, -1, -1),
    (-1, -1, -1, -1, 7, 4, -1, -1, -1, 26, -1, -1, -1, -1, -1, -1, -1, -1, -1, 0, 0, -1, -1, -1),
    (-1, 34, -1, -1, -1, -1, -1, -1, 39, -1, -1, 29, -1, -1, -1, -1, -1, -1, -1, -1, 0, 0, -1, -1),
    (22, 43, 28, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, 0, 0, -1),
    (35, -1, -1, 26, -1, -1, -1, -1, -1, 50, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, 0, 0),
    (-1, 48, 10, -1, -1, -1, 31, -1, -1, -1, -1, -1, 1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, 0),
)


def expand_base_matrix() -> np.ndarray:
    """Lift BASE_MATRIX's circulant shifts to the dense binary H."""
    base = np.asarray(BASE_MATRIX)
    mb, nb = base.shape
    h = np.zeros((mb * LIFT, nb * LIFT), dtype=np.uint8)
    eye = np.eye(LIFT, dtype=np.uint8)
    for i in range(mb):
        for j in range(nb):
            s = base[i, j]
            if s >= 0:
                h[i * LIFT:(i + 1) * LIFT, j * LIFT:(j + 1) * LIFT] = \
                    np.roll(eye, -int(s), axis=1)
    return h


def _gf2_parity_solver(h: np.ndarray) -> np.ndarray:
    """E such that parity = E @ info (mod 2) for systematic encoding.

    Info bits occupy the first k columns, parity the last n - k; raises
    if the parity submatrix is singular.
    """
    m, n = h.shape
    k = n - m
    work = h.astype(np.uint8).copy()
    # eliminate on the parity columns
    for r, c in enumerate(range(k, n)):
        piv = np.nonzero(work[r:, c])[0]
        if piv.size == 0:
            raise ValueError("parity submatrix is singular")
        p = piv[0] + r
        if p != r:
            work[[r, p]] = work[[p, r]]
        mask = work[:, c].astype(bool)
        mask[r] = False
        work[mask] ^= work[r]
    return work[:, :k].copy()


@dataclass
class LdpcCode:
    """Binary LDPC code defined by its parity-check matrix."""

    parity_check: np.ndarray

    def __post_init__(self):
        h = np.asarray(self.parity_check, dtype=np.uint8)
        if h.ndim != 2 or h.shape[0] >= h.shape[1]:
            raise ValueError("parity-check matrix must be m x n with m < n")
        self.parity_check = h

    @property
    def n(self) -> int:
        return self.parity_check.shape[1]

    @property
    def k(self) -> int:
        return self.n - self.parity_check.shape[0]

    @cached_property
    def _encoder(self) -> np.ndarray:
        # float32 sums of at most k ones are exact while k < 2**24
        return _gf2_parity_solver(self.parity_check).astype(np.float32)

    @cached_property
    def _graph(self):
        """Padded edge structures for vectorized min-sum, slot-major: the
        s-th variable of check r is check_vars[s, r], edge s * m + r, and
        the s-th edge of variable v is var_edges[s, v]."""
        h = self.parity_check
        m, n = h.shape
        rows, cols = np.nonzero(h)
        dc = np.bincount(rows, minlength=m)
        dv = np.bincount(cols, minlength=n)
        max_dc, max_dv = int(dc.max()), int(dv.max())
        # edges come row-major: a check slot is the edge index minus that
        # of its check's first edge
        slot = np.arange(rows.size) - (np.cumsum(dc) - dc)[rows]
        check_vars = np.zeros((max_dc, m), dtype=np.int64)
        check_vars[slot, rows] = cols
        check_mask = np.zeros((max_dc, m), dtype=bool)
        check_mask[slot, rows] = True
        # var-centric view: flat edge indices, padded with a dummy slot
        by_var = np.argsort(cols, kind="stable")
        var_cols = cols[by_var]
        var_slot = np.arange(cols.size) - (np.cumsum(dv) - dv)[var_cols]
        var_edges = np.full((max_dv, n), m * max_dc, dtype=np.int64)
        var_edges[var_slot, var_cols] = (slot * m + rows)[by_var]
        return check_vars, check_mask, var_edges

    @cached_property
    def _workspace(self) -> _MinSumArrays:
        """_min_sum's working set for DECODE_BLOCK words, reused by every
        block so that its loop allocates nothing (freed temporaries of
        this size cost a page fault per page on every iteration)."""
        max_dc, m = self._graph[0].shape
        w, n, e = DECODE_BLOCK, self.n, max_dc * m
        return _MinSumArrays(
            llrs=np.empty((n, w)), total=np.empty((n, w)),
            gather=np.empty((n, w)), hard=np.empty((n, w), dtype=bool),
            m_vc=np.empty((e, w)), suffix=np.empty((e, w)),
            flip=np.empty((e, w), dtype=bool),
            parity=np.empty((m, w), dtype=bool),
            m_cv_flat=np.empty((e + 1, w)),
            checks=np.empty((max_dc, m, w), dtype=np.uint8))


class _MinSumArrays(NamedTuple):
    """Word-minor: one column per word, so that row v holds variable v and
    row s * m + r edge s * m + r of every word.  A block of b words works
    on the first rows * b elements of each array, viewed by cols(b) as a
    contiguous (rows, b)."""

    llrs: np.ndarray        # (n, W) channel LLRs of the words still decoding
    total: np.ndarray       # (n, W) posterior LLRs
    gather: np.ndarray      # (n, W) one edge slot's messages per variable
    hard: np.ndarray        # (n, W) bool hard decision, total < 0
    m_vc: np.ndarray        # (e, W) variable-to-check messages
    # scratch: suffix minima, then signs, then the columns kept on a repack
    suffix: np.ndarray      # (e, W)
    flip: np.ndarray        # (e, W) bool: outgoing message is negative
    parity: np.ndarray      # (m, W) bool: XOR of a check's incoming signs
    # check-to-variable messages, plus a zero row for var_edges' pad
    m_cv_flat: np.ndarray   # (e + 1, W)
    checks: np.ndarray      # (max_dc, m, W) uint8: the syndrome's gather

    def cols(self, b: int) -> _MinSumArrays:
        return _MinSumArrays(*(_prefix(a, a.shape[:-1] + (b,)) for a in self))


def _prefix(a: np.ndarray, shape: tuple) -> np.ndarray:
    """The first elements of contiguous a, as a contiguous array of shape."""
    return a.reshape(-1)[:math.prod(shape)].reshape(shape)


def ldpc_encode(code: LdpcCode, info: np.ndarray) -> np.ndarray:
    """Systematic encoding of (..., k) bit arrays into (..., n)."""
    info = np.asarray(info, dtype=np.uint8)
    if info.shape[-1] != code.k:
        raise ValueError(f"info length {info.shape[-1]} != k = {code.k}")
    parity = (info.astype(np.float32) @ code._encoder.T).astype(np.uint32)
    return np.concatenate([info, (parity & 1).astype(np.uint8)], axis=-1)


def ldpc_syndrome(code: LdpcCode, bits: np.ndarray, *,
                  out: np.ndarray | None = None) -> np.ndarray:
    """H @ bits mod 2 over the last axis, as an XOR over each check's
    variables; (..., n) -> (..., m) uint8.

    The bits are gathered along the bit axis moved to the front, into out
    if given: a (max_dc, m, ...) uint8 scratch, with which the call
    allocates nothing and returns a view of out.  A (b, n) transpose of a
    contiguous (n, b) array is gathered by whole rows.
    """
    check_vars, check_mask, _ = code._graph
    bits = np.asarray(bits, dtype=np.uint8)
    if bits.shape[-1] != code.n:
        raise ValueError(f"bits length {bits.shape[-1]} != n = {code.n}")
    checks = np.take(np.moveaxis(bits, -1, 0), check_vars, axis=0, out=out,
                     mode="clip")
    mask = check_mask.view(np.uint8).reshape(
        check_mask.shape + (1,) * (bits.ndim - 1))
    np.bitwise_and(checks, mask, out=checks)
    for slot in checks[1:]:
        np.bitwise_xor(checks[0], slot, out=checks[0])
    return np.moveaxis(checks[0], 0, -1)


def ldpc_decode(code: LdpcCode, llrs: np.ndarray,
                max_iter: int = DEFAULT_MAX_ITER):
    """Normalized min-sum decoding (MIN_SUM_NORMALIZATION).

    llrs: (..., n), positive = bit 0 more likely.  Returns (info bits
    (..., k), converged (...)).  Convergence is a zero syndrome on the
    running hard decision; non-convergence yields the final-iteration hard
    decision.  Words are decoded DECODE_BLOCK at a time; each word's
    result does not depend on the others.

    The working arrays belong to `code` and are reused by every call, so
    do not decode on one LdpcCode from two threads at once (the library
    parallelizes with processes only).
    """
    if max_iter < 0:
        raise ValueError(f"max_iter must be >= 0, got {max_iter}")
    llrs = np.asarray(llrs, dtype=np.float64)
    if not np.all(np.isfinite(llrs)):
        raise ValueError("LLRs must be finite")
    *lead, n = llrs.shape
    if n != code.n:
        raise ValueError(f"LLR length {n} != codeword length {code.n}")
    flat = llrs.reshape(-1, n)
    info = np.empty((len(flat), code.k), dtype=np.uint8)
    done = np.empty(len(flat), dtype=bool)
    for i in range(0, len(flat), DECODE_BLOCK):
        blk = slice(i, i + DECODE_BLOCK)
        _min_sum(code, flat[blk], max_iter, info[blk], done[blk])
    return info.reshape(*lead, code.k), done.reshape(lead)


def _min_sum(code: LdpcCode, llrs: np.ndarray, max_iter: int,
             info: np.ndarray, done: np.ndarray) -> None:
    """ldpc_decode on one (b, n) block, into its (b, k) info and (b,) done.

    Word-minor: every array of the loop is a contiguous (rows, b') view of
    code._workspace, one column per word still decoding, written with
    out=.  So each gather by variable, edge or check is a copy of whole
    rows, and each of the max_dc check slots is one contiguous (m, b')
    block.  The LLRs are transposed in once and the info bits out after
    each syndrome.  A converged word leaves the working columns; the
    others are updated until max_iter.
    """
    check_vars, check_mask, var_edges = code._graph
    max_dc, m = check_vars.shape
    edge_vars, pad = check_vars.ravel(), np.flatnonzero(~check_mask.ravel())
    ws = code._workspace
    w = ws.cols(len(llrs))
    np.copyto(w.llrs, llrs.T)
    np.less(w.llrs, 0, out=w.hard)
    act = np.arange(len(llrs))                        # words still decoding
    for it in range(max_iter + 1):
        bits = w.hard.view(np.uint8)
        conv = ~np.any(ldpc_syndrome(code, bits.T, out=w.checks), axis=1)
        # unconverged words keep their latest hard decision
        info[act] = bits[:code.k].T
        done[act] = conv
        if it == max_iter or conv.all():
            break
        if conv.any():
            # the unconverged columns, through scratch, into a narrower view
            keep = np.flatnonzero(~conv)
            new = ws.cols(keep.size)
            state = ((w.llrs, new.llrs), (w.total, new.total),
                     (w.m_cv_flat[:-1], new.m_cv_flat[:-1]))
            # before the first iteration only the channel LLRs hold state
            for old, now in state[:3 if it else 1]:
                kept = _prefix(ws.suffix, (len(old), keep.size))
                np.copyto(now, np.take(old, keep, axis=1, out=kept,
                                       mode="clip"))
            act, w = act[keep], new
        m_cv = w.m_cv_flat[:-1]
        # variable-to-check messages: the channel LLRs at first, then the
        # last totals minus each edge's own message
        np.take(w.total if it else w.llrs, edge_vars, axis=0, out=w.m_vc,
                mode="clip")
        if it:
            np.subtract(w.m_vc, m_cv, out=w.m_vc)
        w.m_vc[pad] = np.inf
        # check-node update: normalized sign * min over the other edges
        flip = np.less(w.m_vc, 0, out=w.flip).reshape(max_dc, m, -1)
        np.logical_xor(flip, np.logical_xor.reduce(flip, axis=0,
                                                   out=w.parity),
                       out=flip)
        _min_of_others(np.abs(w.m_vc, out=w.m_vc).reshape(max_dc, -1),
                       m_cv.reshape(max_dc, -1),
                       w.suffix.reshape(max_dc, -1))
        sign = np.multiply(w.flip, -2 * MIN_SUM_NORMALIZATION, out=w.suffix)
        np.add(sign, MIN_SUM_NORMALIZATION, out=sign)  # exactly -K or K
        np.multiply(sign, m_cv, out=m_cv)
        # variable-node update; edges summed left to right (fixes rounding)
        w.m_cv_flat[-1] = 0                             # var_edges' pad
        np.take(w.m_cv_flat, var_edges[0], axis=0, out=w.total, mode="clip")
        for edges in var_edges[1:]:
            np.take(w.m_cv_flat, edges, axis=0, out=w.gather, mode="clip")
            np.add(w.total, w.gather, out=w.total)
        np.add(w.total, w.llrs, out=w.total)
        np.less(w.total, 0, out=w.hard)


def _min_of_others(mag: np.ndarray, out: np.ndarray,
                   suffix: np.ndarray) -> None:
    """For each row (slot) of (d, L) mag, the minimum over the other rows
    (inf if there is none) into out, from running minima taken from both
    ends; suffix is scratch of mag's shape."""
    d = len(mag)
    out[0] = suffix[-1] = np.inf
    for j in range(1, d):
        np.minimum(out[j - 1], mag[j - 1], out=out[j])
        np.minimum(suffix[d - j], mag[d - j], out=suffix[d - j - 1])
    np.minimum(out, suffix, out=out)


@cache
def default_code() -> LdpcCode:
    return LdpcCode(expand_base_matrix())


# ---------------------------------------------------------------------------
# rate matching
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RateMatch:
    """Shortening/puncturing pattern fitting the mother code to a target
    rate and transmitted block length."""

    n_tx: int
    k_tb: int

    @property
    def effective_rate(self) -> float:
        return self.k_tb / self.n_tx


def design_rate_match(code: LdpcCode, target_rate, n_tx: int) -> RateMatch:
    """Fit the mother code to n_tx transmitted bits at target_rate.

    Shortens trailing info bits (known zeros) and punctures trailing
    parity bits.  The effective rate must land within 2% of the target.
    """
    target = Fraction(target_rate)
    if not 0 < target < 1:
        raise ValueError("target rate must be in (0, 1)")
    k_tb = max(1, round(n_tx * target))
    p = n_tx - k_tb
    if k_tb > code.k:
        raise ValueError(f"needs {k_tb} info bits; mother code has {code.k}")
    if p > code.n - code.k:
        raise ValueError(f"needs {p} parity bits; mother code has "
                         f"{code.n - code.k}")
    if p < 1:
        raise ValueError("allocation leaves no parity bits")
    rm = RateMatch(n_tx=n_tx, k_tb=k_tb)
    if abs(rm.effective_rate - float(target)) > 0.02 * float(target):
        raise ValueError(
            f"effective rate {rm.effective_rate:.4f} misses target "
            f"{float(target):.4f} by more than 2%")
    return rm


def encode_rate_matched(code: LdpcCode, rm: RateMatch,
                        info: np.ndarray) -> np.ndarray:
    """Encode (B, k_tb) info bits into (B, n_tx) transmitted bits."""
    info = np.asarray(info, dtype=np.uint8)
    if info.ndim != 2 or info.shape[1] != rm.k_tb:
        raise ValueError(f"info shape {info.shape} != (B, k_tb = {rm.k_tb})")
    full = np.zeros((info.shape[0], code.k), dtype=np.uint8)
    full[:, :rm.k_tb] = info
    cw = ldpc_encode(code, full)
    p = rm.n_tx - rm.k_tb
    return np.concatenate([cw[:, :rm.k_tb], cw[:, code.k:code.k + p]],
                          axis=-1)


def decode_rate_matched(code: LdpcCode, rm: RateMatch, llrs_tx: np.ndarray):
    """Decode (B, n_tx) transmitted-bit LLRs back to (B, k_tb) info bits
    and a (B,) converged flag."""
    llrs_tx = np.asarray(llrs_tx, dtype=np.float64)
    if llrs_tx.ndim != 2 or llrs_tx.shape[1] != rm.n_tx:
        raise ValueError(f"LLR shape {llrs_tx.shape} != (B, n_tx = {rm.n_tx})")
    b = llrs_tx.shape[0]
    p = rm.n_tx - rm.k_tb
    full = np.zeros((b, code.n))
    full[:, :rm.k_tb] = llrs_tx[:, :rm.k_tb]
    full[:, rm.k_tb:code.k] = SHORTENED_LLR          # known zeros
    full[:, code.k:code.k + p] = llrs_tx[:, rm.k_tb:]
    info, conv = ldpc_decode(code, full)
    return info[:, :rm.k_tb], conv
