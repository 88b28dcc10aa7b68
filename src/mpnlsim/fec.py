"""LDPC coding: quasi-cyclic rate-1/2 mother code, normalized min-sum
decoding (max 10 iterations), and shortening/puncturing rate matching to
hit MCS code rates.

The shipped code lifts a 12x24 base matrix with circulant size 54
(n = 1296, k = 648).  The base matrix was searched offline for girth >= 6
and full rank; the parity part is dual-diagonal.  It is the only mother
code: no config key selects another.
"""

from __future__ import annotations

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
        return _gf2_parity_solver(self.parity_check)

    @cached_property
    def _encoder_f32(self) -> np.ndarray:
        # float32 sums of at most k ones are exact while k < 2**24
        return self._encoder.astype(np.float32)

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
            llrs=np.empty((w, n)), total=np.empty((w, n)),
            gather=np.empty((w, n)), hard=np.empty((w, n), dtype=bool),
            m_vc=np.empty((w, e)), suffix=np.empty((w, e)),
            flip=np.empty((w, e), dtype=bool),
            parity=np.empty((w, m), dtype=bool),
            m_cv_flat=np.zeros((w, e + 1)))


class _MinSumArrays(NamedTuple):
    """One row per word, edges by flat index s * m + r; a block of b words
    works on rows [:b]."""

    llrs: np.ndarray        # (W, n) channel LLRs of the words still decoding
    total: np.ndarray       # (W, n) posterior LLRs
    gather: np.ndarray      # (W, n) one edge slot's messages per variable
    hard: np.ndarray        # (W, n) bool hard decision, total < 0
    m_vc: np.ndarray        # (W, e) variable-to-check messages
    suffix: np.ndarray      # (W, e) scratch: suffix minima, then signs
    flip: np.ndarray        # (W, e) bool: outgoing message is negative
    parity: np.ndarray      # (W, m) bool: XOR of a check's incoming signs
    # check-to-variable messages, plus a zero for var_edges' pad
    m_cv_flat: np.ndarray   # (W, e + 1)

    def rows(self, b: int) -> _MinSumArrays:
        return _MinSumArrays(*(a[:b] for a in self))


def ldpc_encode(code: LdpcCode, info: np.ndarray) -> np.ndarray:
    """Systematic encoding; accepts (k,) or (B, k) bit arrays."""
    info = np.asarray(info, dtype=np.uint8)
    single = info.ndim == 1
    if single:
        info = info[None]
    if info.shape[-1] != code.k:
        raise ValueError(f"info length {info.shape[-1]} != k = {code.k}")
    parity = (info.astype(np.float32) @ code._encoder_f32.T).astype(np.uint32)
    cw = np.concatenate([info, (parity & 1).astype(np.uint8)], axis=-1)
    return cw[0] if single else cw


def ldpc_syndrome(code: LdpcCode, bits: np.ndarray) -> np.ndarray:
    """H @ bits mod 2 over the last axis, as an XOR over each check's
    variables; (..., n) -> (..., m) uint8."""
    check_vars, check_mask, _ = code._graph
    bits = np.asarray(bits, dtype=np.uint8)
    return np.bitwise_xor.reduce(np.take(bits, check_vars, axis=-1)
                                 & check_mask, axis=-2)


def ldpc_decode(code: LdpcCode, llrs: np.ndarray,
                max_iter: int = DEFAULT_MAX_ITER):
    """Normalized min-sum decoding (MIN_SUM_NORMALIZATION).

    llrs: (n,) or (B, n), positive = bit 0 more likely.  Returns
    (info bits, converged) with matching leading shape.  Convergence is a
    zero syndrome on the running hard decision; non-convergence yields the
    final-iteration hard decision.  Words are decoded DECODE_BLOCK at a
    time; each word's result does not depend on the others.

    The working arrays belong to `code` and are reused by every call, so
    do not decode on one LdpcCode from two threads at once (the library
    parallelizes with processes only).
    """
    llrs = np.asarray(llrs, dtype=np.float64)
    single = llrs.ndim == 1
    if single:
        llrs = llrs[None]
    if not np.all(np.isfinite(llrs)):
        raise ValueError("LLRs must be finite")
    b, n = llrs.shape
    if n != code.n:
        raise ValueError(f"LLR length {n} != codeword length {code.n}")
    info = np.empty((b, code.k), dtype=np.uint8)
    done = np.empty(b, dtype=bool)
    for i in range(0, b, DECODE_BLOCK):
        blk = slice(i, i + DECODE_BLOCK)
        _min_sum(code, llrs[blk], max_iter, info[blk], done[blk])
    if single:
        return info[0], bool(done[0])
    return info, done


def _min_sum(code: LdpcCode, llrs: np.ndarray, max_iter: int,
             info: np.ndarray, done: np.ndarray) -> None:
    """ldpc_decode on one (b, n) block, into its (b, k) info and (b,) done.
    A converged word leaves the working rows; the others are updated until
    max_iter.  Every array of the loop is a row prefix of code._workspace,
    written with out=; edge arrays stay 2-D, where in-place ufuncs on the
    strided m_cv run at contiguous speed."""
    check_vars, check_mask, var_edges = code._graph
    max_dc, m = check_vars.shape
    edge_vars, pad = check_vars.ravel(), ~check_mask.ravel()

    w = code._workspace.rows(len(llrs))
    bits = np.less(llrs, 0, out=w.hard).view(np.uint8)
    done[:] = ~np.any(ldpc_syndrome(code, bits), axis=1)
    info[:] = bits[:, :code.k]

    act = np.flatnonzero(~done)                       # words still decoding
    w = code._workspace.rows(act.size)
    np.take(llrs, act, axis=0, out=w.llrs, mode="clip")
    for it in range(max_iter):
        if act.size == 0:
            break
        m_cv = w.m_cv_flat[:, :-1]
        # variable-to-check messages: the channel LLRs at first, then the
        # last totals minus each edge's own message
        np.take(w.total if it else w.llrs, edge_vars, axis=1, out=w.m_vc,
                mode="clip")
        if it:
            np.subtract(w.m_vc, m_cv, out=w.m_vc)
        np.copyto(w.m_vc, np.inf, where=pad)
        # check-node update: normalized sign * min over the other edges
        flip = np.less(w.m_vc, 0, out=w.flip).reshape(act.size, max_dc, m)
        np.logical_xor(flip, np.logical_xor.reduce(flip, axis=1,
                                                   out=w.parity)[:, None],
                       out=flip)
        _min_of_others(np.abs(w.m_vc, out=w.m_vc), max_dc, m_cv, w.suffix)
        sign = np.multiply(w.flip, -2 * MIN_SUM_NORMALIZATION, out=w.suffix)
        np.add(sign, MIN_SUM_NORMALIZATION, out=sign)  # exactly -K or K
        np.multiply(sign, m_cv, out=m_cv)
        # variable-node update; edges summed left to right (fixes rounding)
        np.take(w.m_cv_flat, var_edges[0], axis=1, out=w.total, mode="clip")
        for edges in var_edges[1:]:
            np.take(w.m_cv_flat, edges, axis=1, out=w.gather, mode="clip")
            np.add(w.total, w.gather, out=w.total)
        np.add(w.total, w.llrs, out=w.total)
        bits = np.less(w.total, 0, out=w.hard).view(np.uint8)
        conv = ~np.any(ldpc_syndrome(code, bits), axis=1)
        # unconverged words keep their latest hard decision
        info[act] = bits[:, :code.k]
        if conv.any():
            # the last unconverged rows fill the converged rows' places
            done[act[conv]] = True
            n_left = act.size - int(conv.sum())
            holes = np.flatnonzero(conv[:n_left])
            movers = n_left + np.flatnonzero(~conv[n_left:])
            for a in (w.llrs, w.total, w.m_cv_flat):
                a[holes] = a[movers]
            act[holes] = act[movers]
            act = act[:n_left]
            w = w.rows(n_left)


def _min_of_others(mag: np.ndarray, d: int, out: np.ndarray,
                   suffix: np.ndarray) -> None:
    """For each of the d equal column slots of (B, d * m) mag, the minimum
    over the other slots (inf if there is none) into out, from running
    minima taken from both ends; suffix is scratch of mag's shape."""
    m = mag.shape[1] // d
    slot = [np.s_[:, j * m:(j + 1) * m] for j in range(d)]
    out[slot[0]] = suffix[slot[-1]] = np.inf
    for j in range(1, d):
        np.minimum(out[slot[j - 1]], mag[slot[j - 1]], out=out[slot[j]])
        np.minimum(suffix[slot[d - j]], mag[slot[d - j]],
                   out=suffix[slot[d - j - 1]])
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
