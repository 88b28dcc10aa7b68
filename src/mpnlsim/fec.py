"""LDPC coding: quasi-cyclic rate-1/2 mother code, normalized min-sum
decoding (max 10 iterations), and shortening/puncturing rate matching to
hit MCS code rates.  A rate-matched block is coded on the mother code's
transmitted sub-code: the shortened info bits are left out of the
encoder product and of the decoder's graph, not filled in as zeros.

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
# At 64 words the shipped code's working set is about 5.6 MB, and a
# word-iteration costs less than at 128.
DECODE_BLOCK = 64

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
        if not h.any(axis=1).all():
            raise ValueError("every check must involve at least one bit")
        self.parity_check = h

    @property
    def n(self) -> int:
        return self.parity_check.shape[1]

    @property
    def k(self) -> int:
        return self.n - self.parity_check.shape[0]

    @cached_property
    def _encoder(self) -> np.ndarray:
        return _gf2_parity_solver(self.parity_check).astype(np.float32)

    @cached_property
    def _graph(self) -> _EdgeGraph:
        return _edge_graph(*np.nonzero(self.parity_check),
                           *self.parity_check.shape)

    @cached_property
    def _workspace(self) -> _MinSumArrays:
        """_min_sum's working set for DECODE_BLOCK words, reused by every
        block so that its loop allocates nothing (freed temporaries of
        this size cost a page fault per page on every iteration)."""
        return _min_sum_arrays(self._graph, self.n)

    @cached_property
    def _sub_codes(self) -> dict:
        """_transmitted's sub-codes by k_tb; at most k of them."""
        return {}

    def _transmitted(self, k_tb: int) -> _SubCode:
        """The sub-code of a block that shortens every info bit from k_tb
        on: H without those columns, so k_tb info bits and all n - k parity
        bits, 1 <= k_tb <= k.  It is built once per k_tb, holds its edge
        graph but no dense H, and decodes in prefix views of this code's
        working set, so decode on one of this code's sub-codes at a time.

        On the shipped code, min-sum on it gives the bytes that min-sum on
        the mother code gives with the shortened bits at LLR S = 1e7, for
        |LLR| <= L = 2e4 on the other bits and up to DEFAULT_MAX_ITER
        iterations:
        - The parity part is dual-diagonal, so every check keeps at least
          2 edges whatever k_tb is.
        - Every variable has at most 3 checks, and a check message is at
          most K = MIN_SUM_NORMALIZATION times its check's other incoming
          magnitudes.  So a kept bit's messages at iteration t are at most
          A_t = L + 2K A_(t-1), A_0 = L, which gives A_9 < 204 L.  A
          shortened bit's message is at least S - 2K A_(t-1) > A_t, and
          its total at least S - 3K A_9 > S - 497 L > 0.
        - Hence a shortened message is never the minimum over a check's
          other edges, since a smaller kept edge is among them, and never
          flips a sign.  Every message to a kept bit is the same float,
          every kept bit's total sums the same checks in the same order,
          shortened bits decide 0 and both syndromes agree.
        The detectors clip LLRs at 20.  Beyond L the sub-code still gives
        the exact known-zero decode (shortened LLR +inf), which S only
        approximated.
        """
        if k_tb not in self._sub_codes:
            rows, cols = np.nonzero(self.parity_check)
            keep = (cols < k_tb) | (cols >= self.k)
            cols = np.where(cols < k_tb, cols, cols - (self.k - k_tb))
            m = len(self.parity_check)
            graph = _edge_graph(rows[keep], cols[keep], m, k_tb + m)
            self._sub_codes[k_tb] = _SubCode(
                n=k_tb + m, k=k_tb, _graph=graph,
                _workspace=_min_sum_arrays(graph, k_tb + m,
                                           base=self._workspace))
        return self._sub_codes[k_tb]


def _edge_graph(rows: np.ndarray, cols: np.ndarray, m: int,
                n: int) -> _EdgeGraph:
    """Edge structures for vectorized min-sum, grouped by check degree,
    from the (row, column) of each one of an m x n H in row-major order.

    The checks are ordered by degree, highest first (stably), so that
    check slot s covers the first rows_s checks of that order: the s-th
    variable of the check at position p is edge start_s + p, and slots =
    ((start_s, rows_s), ...).  No edge is padding.  The s-th edge of
    variable v, in its checks' original order, is var_edges[s, v]; the
    pad is edge e, one past the last.  The check at original row r has
    position check_pos[r].
    """
    dc = np.bincount(rows, minlength=m)
    dv = np.bincount(cols, minlength=n)
    order = np.argsort(-dc, kind="stable")
    check_pos = np.empty(m, dtype=np.int64)
    check_pos[order] = np.arange(m)
    slot_rows = np.count_nonzero(dc[:, None] > np.arange(dc.max()), axis=0)
    starts = np.cumsum(slot_rows) - slot_rows
    # edges come row-major: a check slot is the edge index minus that of
    # its check's first edge
    slot = np.arange(rows.size) - (np.cumsum(dc) - dc)[rows]
    edge = starts[slot] + check_pos[rows]
    edge_vars = np.empty(rows.size, dtype=np.int64)
    edge_vars[edge] = cols
    # var-centric view, padded with the edge one past the last
    by_var = np.argsort(cols, kind="stable")
    var_cols = cols[by_var]
    var_slot = np.arange(cols.size) - (np.cumsum(dv) - dv)[var_cols]
    var_edges = np.full((int(dv.max()), n), rows.size, dtype=np.int64)
    var_edges[var_slot, var_cols] = edge[by_var]
    return _EdgeGraph(edge_vars, tuple(zip(starts.tolist(),
                                           slot_rows.tolist())),
                      var_edges, check_pos)


@dataclass(frozen=True, eq=False)
class _SubCode:
    """LdpcCode._transmitted(k_tb): what ldpc_decode reads of a code."""

    n: int
    k: int
    _graph: _EdgeGraph
    _workspace: _MinSumArrays


class _EdgeGraph(NamedTuple):
    """LdpcCode._graph: the code's edges, check slots grouped by degree."""

    edge_vars: np.ndarray   # (e,) the variable of each edge
    slots: tuple            # (start, rows) of each check slot's edges
    var_edges: np.ndarray   # (max_dv, n) each variable's edges, pad e
    check_pos: np.ndarray   # (m,) each check's position in the slots


class _MinSumArrays(NamedTuple):
    """Word-minor: one column per word, so that row v holds variable v and
    row i edge i of every word.  A block of b words works on the first
    rows * b elements of each array, viewed by cols(b) as a contiguous
    (rows, b)."""

    llrs: np.ndarray        # (n, W) channel LLRs of the words still decoding
    total: np.ndarray       # (n, W) posterior LLRs
    hard: np.ndarray        # (n, W) bool hard decision, total < 0
    # variable-to-check messages, then their magnitudes, then the signs,
    # then the variable update's gather and the columns kept on a repack
    m_vc: np.ndarray        # (max(e + 1, n), W)
    # check-to-variable messages, plus a zero row e for var_edges' pad
    m_cv: np.ndarray        # (max(e + 1, n), W)
    run: np.ndarray         # (m, W) minimum over a check's later slots
    flip: np.ndarray        # (e, W) bool: outgoing message is negative
    parity: np.ndarray      # (m, W) bool: XOR of a check's incoming signs
    checks: np.ndarray      # (e + m, W) uint8: the syndrome's scratch

    def cols(self, b: int) -> _MinSumArrays:
        return _MinSumArrays(*(_prefix(a, a.shape[:-1] + (b,)) for a in self))


def _min_sum_arrays(graph: _EdgeGraph, n: int,
                    base: _MinSumArrays | None = None) -> _MinSumArrays:
    """_min_sum's working set for DECODE_BLOCK words of a code with graph's
    edges and n variables: fresh arrays, or views of the first elements of
    base's, a larger code's set, so that codes sharing base share memory.
    The message buffers swap roles, and m_vc doubles as an (n, W) gather,
    so each holds e + 1 rows (m_cv's pad) and at least n."""
    m, e = len(graph.check_pos), len(graph.edge_vars)
    rows = max(e + 1, n)
    specs = _MinSumArrays(
        llrs=(n, np.float64), total=(n, np.float64), hard=(n, bool),
        m_vc=(rows, np.float64), m_cv=(rows, np.float64),
        run=(m, np.float64), flip=(e, bool), parity=(m, bool),
        checks=(e + m, np.uint8))
    if base is None:
        return _MinSumArrays(*(np.empty((r, DECODE_BLOCK), dtype=d)
                               for r, d in specs))
    return _MinSumArrays(*(_prefix(a, (r, DECODE_BLOCK))
                           for a, (r, _) in zip(base, specs)))


def _prefix(a: np.ndarray, shape: tuple) -> np.ndarray:
    """The first elements of contiguous a, as a contiguous array of shape."""
    return a.reshape(-1)[:math.prod(shape)].reshape(shape)


def ldpc_encode(code: LdpcCode, info: np.ndarray) -> np.ndarray:
    """Systematic encoding of (..., k) bit arrays into (..., n)."""
    info = np.asarray(info, dtype=np.uint8)
    if info.shape[-1] != code.k:
        raise ValueError(f"info length {info.shape[-1]} != k = {code.k}")
    return _systematic(info, code._encoder)


def _systematic(info: np.ndarray, encoder: np.ndarray) -> np.ndarray:
    """uint8 info bits (..., k') followed by their parity bits, encoder @
    info mod 2 for a (p, k') float32 encoder: sums of at most k' ones,
    exact while k' < 2**24."""
    parity = (info.astype(np.float32) @ encoder.T).astype(np.uint32)
    return np.concatenate([info, (parity & 1).astype(np.uint8)], axis=-1)


def ldpc_syndrome(code: LdpcCode, bits: np.ndarray, *,
                  out: np.ndarray | None = None) -> np.ndarray:
    """H @ bits mod 2 over the last axis, as an XOR over each check's
    variables; (..., n) -> (..., m) uint8, checks in H's row order.

    The bits are gathered by edge along the bit axis moved to the front,
    each later check slot's block is XORed onto the first slot's rows,
    and those rows are taken back into H's order.  Both steps write into
    out if given: an (e + m, ...) uint8 scratch, with which the call
    allocates nothing and returns a view of out.  A (b, n) transpose of a
    contiguous (n, b) array is gathered by whole rows.
    """
    edge_vars, slots, _, check_pos = code._graph
    bits = np.asarray(bits, dtype=np.uint8)
    if bits.shape[-1] != code.n:
        raise ValueError(f"bits length {bits.shape[-1]} != n = {code.n}")
    e = len(edge_vars)
    if out is None:
        out = np.empty((e + len(check_pos),) + bits.shape[:-1],
                       dtype=np.uint8)
    checks = np.take(np.moveaxis(bits, -1, 0), edge_vars, axis=0,
                     out=out[:e], mode="clip")
    for start, rows in slots[1:]:
        np.bitwise_xor(checks[:rows], checks[start:start + rows],
                       out=checks[:rows])
    synd = np.take(checks, check_pos, axis=0, out=out[e:], mode="clip")
    return np.moveaxis(synd, 0, -1)


def ldpc_decode(code: LdpcCode, llrs: np.ndarray,
                max_iter: int = DEFAULT_MAX_ITER):
    """Normalized min-sum decoding (MIN_SUM_NORMALIZATION).

    llrs: (..., n), positive = bit 0 more likely.  Returns (info bits
    (..., k), converged (...)).  Convergence is a zero syndrome on the
    running hard decision; non-convergence yields the final-iteration hard
    decision.  Words are decoded DECODE_BLOCK at a time; each word's
    result does not depend on the others.

    code is an LdpcCode or one of its sub-codes (LdpcCode._transmitted).
    The working arrays belong to `code`, a sub-code's to its mother code,
    and are reused by every call, so do not decode on one LdpcCode or its
    sub-codes from two threads at once (the library parallelizes with
    processes only).
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
    rows, and each check slot is one contiguous (rows_s, b') block.  The
    LLRs are transposed in once, and a word's info bits out once: when it
    converges, or after max_iter.  A converged word leaves the working
    columns; the others are updated until max_iter.
    """
    edge_vars, slots, var_edges, _ = code._graph
    e, k, n = len(edge_vars), code.k, code.n
    ws = code._workspace
    w = ws.cols(len(llrs))
    np.copyto(w.llrs, llrs.T)
    np.less(w.llrs, 0, out=w.hard)
    act = np.arange(len(llrs))                        # words still decoding
    for it in range(max_iter + 1):
        bits = w.hard.view(np.uint8)
        conv = ~np.any(ldpc_syndrome(code, bits.T, out=w.checks), axis=1)
        if it == max_iter or conv.all():
            # unconverged words keep their latest hard decision
            info[act] = bits[:k].T
            done[act] = conv
            break
        if conv.any():
            fin, keep = np.flatnonzero(conv), np.flatnonzero(~conv)
            info[act[fin]] = bits[:k, fin].T
            done[act[fin]] = True
            # the unconverged columns into a narrower view: m_cv's into the
            # dead m_vc buffer, whose roles then swap, and the others
            # through m_vc; before the first iteration only the channel
            # LLRs hold state
            ws = ws._replace(m_vc=ws.m_cv, m_cv=ws.m_vc)
            new = ws.cols(keep.size)
            if it:
                np.take(w.m_cv[:e], keep, axis=1, out=new.m_cv[:e],
                        mode="clip")
            state = ((w.llrs, new.llrs), (w.total, new.total))
            for old, now in state[:2 if it else 1]:
                np.copyto(now, np.take(old, keep, axis=1,
                                       out=new.m_vc[:len(old)], mode="clip"))
            act, w = act[keep], new
        m_vc, m_cv = w.m_vc[:e], w.m_cv[:e]
        # variable-to-check messages: the channel LLRs at first, then the
        # last totals minus each edge's own message
        np.take(w.total if it else w.llrs, edge_vars, axis=0, out=m_vc,
                mode="clip")
        if it:
            np.subtract(m_vc, m_cv, out=m_vc)
        # check-node update: normalized sign * min over the other edges
        flip = np.less(m_vc, 0, out=w.flip)
        parity = w.parity
        np.copyto(parity, flip[:len(parity)])             # slot 0: every check
        for start, rows in slots[1:]:
            np.logical_xor(parity[:rows], flip[start:start + rows],
                           out=parity[:rows])
        for start, rows in slots:
            np.logical_xor(flip[start:start + rows], parity[:rows],
                           out=flip[start:start + rows])
        _min_of_others(slots, np.abs(m_vc, out=m_vc), m_cv, w.run)
        # m_vc is dead: it takes the signs, then the variable update's gather
        sign = np.multiply(flip, -2 * MIN_SUM_NORMALIZATION, out=m_vc)
        np.add(sign, MIN_SUM_NORMALIZATION, out=sign)  # exactly -K or K
        np.multiply(sign, m_cv, out=m_cv)
        # variable-node update; edges summed left to right (fixes rounding)
        w.m_cv[e] = 0                                   # var_edges' pad
        np.take(w.m_cv, var_edges[0], axis=0, out=w.total, mode="clip")
        gather = w.m_vc[:n]
        for edges in var_edges[1:]:
            np.take(w.m_cv, edges, axis=0, out=gather, mode="clip")
            np.add(w.total, gather, out=w.total)
        np.add(w.total, w.llrs, out=w.total)
        np.less(w.total, 0, out=w.hard)


def _min_of_others(slots: tuple, mag: np.ndarray, out: np.ndarray,
                   run: np.ndarray) -> None:
    """For each edge row of (e, L) mag, the minimum over the other edges
    of its check (inf if there is none) into out; slots as in
    LdpcCode._graph.  A slot's prefix minimum goes straight into out, and
    run, (m, L) scratch, holds the minimum over the later slots while the
    slots are walked back down."""
    mags = [mag[start:start + rows] for start, rows in slots]
    outs = [out[start:start + rows] for start, rows in slots]
    d = len(slots)
    if d > 1:
        np.copyto(outs[1], mags[0][:len(outs[1])])
    for j in range(2, d):
        rows = len(outs[j])
        np.minimum(outs[j - 1][:rows], mags[j - 1][:rows], out=outs[j])
    run.fill(np.inf)
    for j in range(d - 1, 0, -1):
        rows = len(outs[j])
        if j < d - 1:                       # the last slot keeps its prefix
            np.minimum(outs[j], run[:rows], out=outs[j])
        np.minimum(run[:rows], mags[j], out=run[:rows])
    np.copyto(outs[0], run)                 # slot 0 has no prefix


@cache
def default_code() -> LdpcCode:
    return LdpcCode(expand_base_matrix())


# ---------------------------------------------------------------------------
# rate matching
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RateMatch:
    """Shortening/puncturing pattern fitting the mother code to a target
    rate and transmitted block length: the first k_tb info bits and the
    first n_tx - k_tb parity bits are sent."""

    n_tx: int
    k_tb: int

    def __post_init__(self):
        if self.k_tb < 1:
            raise ValueError(f"k_tb must be >= 1, got {self.k_tb}")
        if self.n_tx - self.k_tb < 1:
            raise ValueError(f"n_tx = {self.n_tx} leaves no parity bits "
                             f"after k_tb = {self.k_tb}")

    @property
    def effective_rate(self) -> float:
        return self.k_tb / self.n_tx


def _check_fit(code: LdpcCode, rm: RateMatch):
    """ValueError unless code has rm's k_tb info and n_tx - k_tb parity
    bits."""
    if rm.k_tb > code.k:
        raise ValueError(f"k_tb: needs {rm.k_tb} info bits; mother code "
                         f"has {code.k}")
    p = rm.n_tx - rm.k_tb
    if p > code.n - code.k:
        raise ValueError(f"n_tx - k_tb: needs {p} parity bits; mother code "
                         f"has {code.n - code.k}")


def design_rate_match(code: LdpcCode, target_rate, n_tx: int) -> RateMatch:
    """Fit the mother code to n_tx transmitted bits at target_rate.

    Shortens trailing info bits (known zeros) and punctures trailing
    parity bits.  The effective rate must land within 2% of the target.
    """
    target = Fraction(target_rate)
    if not 0 < target < 1:
        raise ValueError("target rate must be in (0, 1)")
    rm = RateMatch(n_tx=n_tx, k_tb=max(1, round(n_tx * target)))
    _check_fit(code, rm)
    if abs(rm.effective_rate - float(target)) > 0.02 * float(target):
        raise ValueError(
            f"effective rate {rm.effective_rate:.4f} misses target "
            f"{float(target):.4f} by more than 2%")
    return rm


def encode_rate_matched(code: LdpcCode, rm: RateMatch,
                        info: np.ndarray) -> np.ndarray:
    """Encode (B, k_tb) info bits into (B, n_tx) transmitted bits: the
    info bits, then parity from the encoder's first n_tx - k_tb rows and
    first k_tb columns (the shortened zeros add nothing to the exact
    float32 sums)."""
    _check_fit(code, rm)
    info = np.asarray(info, dtype=np.uint8)
    if info.ndim != 2 or info.shape[1] != rm.k_tb:
        raise ValueError(f"info shape {info.shape} != (B, k_tb = {rm.k_tb})")
    return _systematic(info, code._encoder[:rm.n_tx - rm.k_tb, :rm.k_tb])


def decode_rate_matched(code: LdpcCode, rm: RateMatch, llrs_tx: np.ndarray):
    """Decode (B, n_tx) transmitted-bit LLRs back to (B, k_tb) info bits
    and a (B,) converged flag, on the sub-code without the shortened bits
    (LdpcCode._transmitted); punctured parity bits enter at LLR 0."""
    _check_fit(code, rm)
    llrs_tx = np.asarray(llrs_tx, dtype=np.float64)
    if llrs_tx.ndim != 2 or llrs_tx.shape[1] != rm.n_tx:
        raise ValueError(f"LLR shape {llrs_tx.shape} != (B, n_tx = {rm.n_tx})")
    sub = code._transmitted(rm.k_tb)
    return ldpc_decode(sub, np.pad(llrs_tx, ((0, 0), (0, sub.n - rm.n_tx))))
