"""MIMO detectors.

Linear ZF/MMSE, exhaustive maximum-likelihood search, and the
fixed-complexity parallel-path detector ("mpnl"): a channel-time
preprocessing step plans a sorted-QR candidate tree whose per-layer
expansion counts multiply to exactly n_paths, and at transmission time
the n_paths candidate vectors are completed independently of each other,
so they can be evaluated on any number of workers with bit-identical
results.

All detectors break metric ties lexicographically over candidate bit
labels.  The kernels (trailing `_batch`) operate on stacks of instances
and hold the math; a single instance is a stack of one.
`DETECTORS` is the one table every caller dispatches through: per name,
the batched channel-time plan, the transmission-time LLRs and hard
labels, each computed alone, and the smallest antenna count the
detector can serve.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .core import (LLR_CLIP, SEARCH_BLOCK, Constellation, blockwise,
                   demap_llr)

# the bound on ML's enumeration and on MPNL's n_paths
LIST_BLOCK = 1 << 16


class SingularChannelError(ValueError):
    pass


@functools.cache
def _enumerate_labels(n: int, q: int) -> np.ndarray:
    """All q^n label vectors in lexicographic order (stream 0 most
    significant), one read-only table per (n, q)."""
    table = np.stack(np.unravel_index(np.arange(q ** n), (q,) * n), axis=-1)
    table.flags.writeable = False
    return table


def _check_enumeration(n: int, q: int):
    """ValueError when exhaustive ML would enumerate more than LIST_BLOCK."""
    if q ** n > LIST_BLOCK:
        raise ValueError(f"enumeration {q}^{n} exceeds guard {LIST_BLOCK}")


def _path_metrics(h: np.ndarray, y: np.ndarray, labels: np.ndarray,
                  c: Constellation) -> np.ndarray:
    """The one list metric: ||y - H x||^2 (B, P) of labels (B, P, N).

    The residuals are formed antenna-major, (B, M, P), the layout numpy's
    non-BLAS einsum writes fastest here; it still sums each output over n
    in ascending order from zero with the same complex product, so the
    layout changes no bit.  The squared magnitudes are summed over M in
    place by `_antenna_sum`, in the order numpy's pairwise sum takes over M
    contiguous terms.
    """
    resid = np.einsum("bmn,bpn->bmp", h, c.points[labels])
    np.subtract(y[:, :, None], resid, out=resid)
    dist = np.abs(resid)
    return _antenna_sum(np.square(dist, out=dist))


def _antenna_sum(d: np.ndarray) -> np.ndarray:
    """Sum d (B, M, P) over M into a new (B, P) array, overwriting d.

    Adds the (B, P) slabs in numpy's pairwise order for a contiguous run
    of M terms, so each sum has the bytes of `d.transpose(0, 2, 1)`'s
    `.sum(axis=2)`: one by one below 8 terms; from 8 to 128, eight running
    sums r0..r7 over the multiples of 8, combined as ((r0 + r1) + (r2 +
    r3)) + ((r4 + r5) + (r6 + r7)), then the rest one by one; above 128,
    the two halves split at a multiple of 8, each summed alike.
    """
    m = d.shape[1]
    if m > 128:
        half = m // 2 - m // 2 % 8
        return _antenna_sum(d[:, :half]) + _antenna_sum(d[:, half:])
    if m < 8:
        total, rest = d[:, 0].copy(), 1
    else:
        rest = m - m % 8
        runs = d[:, :8]
        for i in range(8, rest, 8):
            runs += d[:, i:i + 8]
        pairs = runs[:, 0::2] + runs[:, 1::2]
        total = (pairs[:, 0] + pairs[:, 1]) + (pairs[:, 2] + pairs[:, 3])
    for i in range(rest, m):
        total += d[:, i]
    return total


# ---------------------------------------------------------------------------
# linear detectors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LinearPlan:
    """ZF/MMSE channel-time work on a (B, M, N) stack: everything that does
    not depend on the observations."""

    hh: np.ndarray = field(repr=False)      # (B, N, M) H^H
    a_inv: np.ndarray = field(repr=False)   # (B, N, N) (H^H H [+ nv I])^-1
    beta: np.ndarray | None = field(repr=False)  # (B, N) MMSE bias; ZF None
    nv_eff: np.ndarray = field(repr=False)  # (B, N) per-stream noise


def linear_plan_batch(h: np.ndarray, noise_var, mode: str) -> LinearPlan:
    """Plan ZF or MMSE for a (B, M, N) stack; noise_var is a scalar or one
    variance per row.  ZF raises SingularChannelError when M < N or any
    channel of the stack is rank-deficient.

    MMSE's bias is beta_i = 1 - nv [(H^H H + nv I)^-1]_ii, and its unbiased
    estimates see effective noise variance (1 - beta_i) / beta_i; ZF's
    see nv [(H^H H)^-1]_ii.
    """
    b, m, n = h.shape
    if mode not in ("zf", "mmse"):
        raise ValueError(f"unknown linear mode {mode!r}")
    zf = mode == "zf"
    if zf and m < n:
        raise SingularChannelError("ZF requires M >= N")
    hh = h.conj().transpose(0, 2, 1)
    gram = hh @ h
    nv = np.broadcast_to(np.asarray(noise_var, dtype=float), (b,))
    a = gram if zf else gram + nv[:, None, None] * np.eye(n)
    try:
        a_inv = np.linalg.inv(a)
    except np.linalg.LinAlgError:
        raise SingularChannelError("rank-deficient channel") from None
    # a NaN or infinite condition number fails the comparison too
    if zf and not np.all(np.linalg.cond(gram) <= 1e12):
        raise SingularChannelError("rank-deficient channel")
    diag = np.real(np.einsum("bii->bi", a_inv))
    if zf:
        return LinearPlan(hh=hh, a_inv=a_inv, beta=None,
                          nv_eff=nv[:, None] * diag)
    beta = np.clip(1.0 - nv[:, None] * diag, 1e-12, None)
    return LinearPlan(hh=hh, a_inv=a_inv, beta=beta,
                      nv_eff=np.clip((1.0 - beta) / beta, 1e-15, None))


def _linear_estimates(plan: LinearPlan, y: np.ndarray):
    """Planned ZF/MMSE on observations y (B, M): (raw soft estimates
    (B, N), the unbiased estimates (B, N) that slicing and LLRs use).
    MMSE's raw estimate is the biased (H^H H + nv I)^-1 H^H y, and its
    unbiased one soft / beta."""
    hy = np.einsum("bnm,bm->bn", plan.hh, y)
    soft = np.einsum("bij,bj->bi", plan.a_inv, hy)
    return soft, soft if plan.beta is None else soft / plan.beta


def _linear_llrs(plan: LinearPlan, y: np.ndarray, c: Constellation):
    """Planned ZF/MMSE LLRs (B, N, bps) of observations y (B, M)."""
    return demap_llr(_linear_estimates(plan, y)[1], plan.nv_eff[..., None], c)


def _linear_hard(plan: LinearPlan, y: np.ndarray, c: Constellation):
    """Planned ZF/MMSE hard labels (B, N) of observations y (B, M)."""
    return c.nearest(_linear_estimates(plan, y)[1])


def linear_detect_batch(h: np.ndarray, y: np.ndarray, noise_var,
                        c: Constellation, mode: str):
    """Batched ZF/MMSE, planned and applied once.  Returns (hard labels
    (B, N), llrs (B, N, bps))."""
    plan = linear_plan_batch(h, noise_var, mode)
    est = _linear_estimates(plan, y)[1]
    return c.nearest(est), demap_llr(est, plan.nv_eff[..., None], c)


# ---------------------------------------------------------------------------
# exhaustive maximum-likelihood search
# ---------------------------------------------------------------------------

def ml_detect_batch(h: np.ndarray, y: np.ndarray, c: Constellation):
    """Exhaustive search over a (B, M, N) / (B, M) stack.  Returns (labels
    (B, Q^N, N), metrics (B, Q^N), best (B,)); best is the first minimum,
    so ties break lexicographically.  The labels are one table broadcast
    over the stack; the metrics are scored in row blocks of at most
    SEARCH_BLOCK candidates."""
    b, m, n = h.shape
    _check_enumeration(n, c.order)
    labels = _enumerate_labels(n, c.order)
    labels = np.broadcast_to(labels, (b,) + labels.shape)
    metrics = blockwise(lambda h, y, x: _path_metrics(h, y, x, c),
                        labels.shape[1], SEARCH_BLOCK, h, y, labels)
    return labels, metrics, np.argmin(metrics, axis=1)


# ---------------------------------------------------------------------------
# fixed-complexity parallel-path detector
# ---------------------------------------------------------------------------

def allocate_expansions(n_layers: int, q: int,
                        n_paths: int) -> tuple[np.ndarray, int]:
    """Per-layer expansion counts, non-increasing from the top layer down.

    Returns (expansions indexed by tree position, realized path count).
    Position n_layers-1 is the top (first-detected) layer.  The realized
    count is the largest up to min(n_paths, q^n_layers) that is a product
    of n_layers factors <= q.
    """
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    n_paths = min(n_paths, q ** n_layers)

    def factorize(budget: int, slots: int, cap: int):
        if budget == 1:
            return []
        if slots == 0:
            return None
        for d in range(min(cap, budget), 1, -1):
            if budget % d:
                continue
            rest = factorize(budget // d, slots - 1, d)
            if rest is not None:
                return [d] + rest
        return None

    # 1 factorizes (rest = []), so the walk always returns
    for target in range(n_paths, 0, -1):
        rest = factorize(target, n_layers, q)
        if rest is not None:
            e = rest + [1] * (n_layers - len(rest))
            return np.array(sorted(e), dtype=np.int64), target


@dataclass(frozen=True)
class BatchPathPlan:
    """Candidate-tree plans for a stack of channel matrices."""

    perm: np.ndarray = field(repr=False)        # (B, N) column order by position
    qh: np.ndarray = field(repr=False)          # (B, N, M) top rows of Q^H
    r: np.ndarray = field(repr=False)           # (B, N, N) upper triangular
    expansions: np.ndarray = field(repr=False)  # (N,) shared across the batch
    n_paths: int = 0

    @property
    def batch(self) -> int:
        return self.perm.shape[0]

    def __getitem__(self, s: slice) -> BatchPathPlan:
        """The plans of rows s of the stack."""
        return replace(self, perm=self.perm[s], qh=self.qh[s], r=self.r[s])


def _sorted_qr_batch(a: np.ndarray):
    """Column-pivoted QR over a batch: strongest residual column first.

    a: (B, Ma, N).  Returns perm (B, N), q^T with the batch last
    (N, Ma, B) and r (B, N, N) with real non-negative diagonal.  Position
    0 holds the strongest column, so |r_ii| decreases toward the top
    (first-detected) layer.

    Column j is kept as row j of g = [q^T | r^T] (N, Ma + N, B), batch
    last, so every step works on whole (B,) rows and a pivot swap moves
    each stack's two rows with one gather and one scatter.
    """
    a = np.ascontiguousarray(a, dtype=complex)
    b, ma, n = a.shape
    norms = np.ascontiguousarray(np.sum(np.abs(a) ** 2, axis=1).T)
    g = np.zeros((n, ma + n, b), dtype=complex)
    g[:, :ma] = a.transpose(2, 1, 0)
    qt, rt = g[:, :ma], g[:, ma:]
    perm = np.repeat(np.arange(n)[:, None], b, axis=1)
    cols = np.arange(b)
    span = np.arange(ma + n)[:, None] * b + cols
    for k in range(n):
        piv = k + np.argmax(norms[k:], axis=0)
        # swap column k <-> pivot in g, norms and perm
        at = piv * b + cols
        for x, src in ((g, piv[None] * (ma + n) * b + span), (norms, at),
                       (perm, at)):
            flat = x.reshape(-1)
            row = flat[src]
            flat[src] = x[k]
            x[k] = row
        rkk = np.sqrt(np.sum(np.abs(qt[k].T, out=np.empty((b, ma))) ** 2,
                             axis=1))
        rkk = np.maximum(rkk, 1e-300)
        rt[k, k] = rkk
        qk = np.divide(qt[k], rkk, out=qt[k])
        if k + 1 < n:
            proj = np.einsum("mb,jmb->jb", qk.conj(), qt[k + 1:])
            rt[k + 1:, k] = proj
            qt[k + 1:] -= qk * proj[:, None]
            norms[k + 1:] = np.maximum(norms[k + 1:] - np.abs(proj) ** 2, 0.0)
    return (np.ascontiguousarray(perm.T), qt,
            np.ascontiguousarray(rt.transpose(2, 1, 0)))


def mpnl_plan_batch(h: np.ndarray, noise_var, n_paths: int,
                    c: Constellation) -> BatchPathPlan:
    """Plan candidate trees for a (B, M, N) channel stack; noise_var is a
    scalar or one variance per row.

    Overloaded channels (N > M) are planned on the noise-augmented matrix
    [H; sqrt(nv) I], so every layer has a positive diagonal and the
    budget's expansions are spread as on any other channel.
    """
    h = np.asarray(h, dtype=complex)
    b, m, n = h.shape
    expansions, realized = allocate_expansions(n, c.order, n_paths)
    if n > m:
        a = np.concatenate([h, np.broadcast_to(
            np.sqrt(np.reshape(noise_var, (-1, 1, 1))) * np.eye(n),
            (b, n, n))], axis=1)
    else:
        a = h
    perm, qt, r = _sorted_qr_batch(a)
    qh = np.conj(qt[:, :m].transpose(2, 0, 1),
                 out=np.empty((b, n, m), dtype=complex))
    return BatchPathPlan(perm=perm, qh=qh, r=r, expansions=expansions,
                         n_paths=realized)


def _closest(d: np.ndarray, e: int) -> np.ndarray:
    """The first e indices of a stable argsort of d (Q, ...) along its
    first axis, returned as a C-contiguous (..., e) array.

    Below log2(Q) children it takes e first-minimum picks instead, which
    measured 1.4-8x faster than the sort on 16- and 64-QAM layers of 672
    REs x 1-64 paths (2-core x86_64).  The bound is conservative: picks
    stop paying near 5-10 children on 16-QAM and 20-24 on 64-QAM, and on
    QPSK they lose on single-path layers.  A pick is the lowest index
    holding the minimum over the indices not yet picked, which is the
    sort's next index while that minimum is below inf; a row whose minimum
    is inf (a picked index could tie it) or NaN (the sort puts NaN last)
    is sorted instead.
    """
    q = d.shape[0]
    if e >= q.bit_length() - 1:
        return np.ascontiguousarray(np.moveaxis(
            np.argsort(d, axis=0, kind="stable")[:e], 0, -1))
    flat = d.reshape(q, -1)
    masked = flat.copy()
    cols = np.arange(flat.shape[1])
    # index i weighs q - i, so the heaviest match is the lowest index
    weight = np.arange(q, 0, -1, dtype=np.uint8)[:, None]
    idx = np.empty((flat.shape[1], e), dtype=np.intp)
    ok = np.ones(flat.shape[1], dtype=bool)
    for k in range(e):
        low = masked.min(axis=0)
        ok &= low < np.inf
        heaviest = ((masked == low) * weight).max(axis=0)
        idx[:, k] = pick = q - np.maximum(heaviest, 1)
        masked[pick, cols] = np.inf
    if not ok.all():
        idx[~ok] = np.argsort(flat[:, ~ok], axis=0, kind="stable")[:e].T
    return idx.reshape(d.shape[1:] + (e,))


def _tree_labels(z: np.ndarray, r: np.ndarray, expansions: np.ndarray,
                 c: Constellation, perm: np.ndarray) -> np.ndarray:
    """Expand the planned tree; returns point labels (B, n_paths, N) with
    tree position j in column perm[b, j].

    Each partial path expands to its expansions[pos] best children in
    Schnorr-Euchner (closest-first) order; paths never interact, so the
    result is independent of evaluation order and worker partitioning.
    A single-child layer slices its centres (c.nearest gives the first
    minimum, which is where a stable sort puts it); a multi-child layer
    keeps the first e of a stable sort of its (Q, B, W) distances.

    The search runs position-major: acc[j, b, w] is the interference of
    partial path w on tree position j, rcol[pos, j, b] = r[b, j, pos], and
    z and the real diagonal are stored (N, B), so a layer reads its centres
    from one contiguous row.  A layer's new interference, acc[:pos] plus
    rcol[pos, :pos] times the chosen symbols, is summed into its
    (pos, B, W, e) product, where child k of path w reads row w of acc
    without a copy.  Partial path j of width w is the ancestor of the
    P // w final paths from j * (P // w) on, so each layer's choices are
    written once, at the end, straight into their stream columns.
    """
    b, n = z.shape
    points = c.points
    zt = np.ascontiguousarray(z.T)
    rcol = np.ascontiguousarray(r.transpose(2, 1, 0))
    diag = np.ascontiguousarray(np.einsum("bii->ib", r).real)
    acc = np.zeros((n, b, 1), dtype=complex)
    chosen = []
    for pos in range(n - 1, -1, -1):
        e = int(expansions[pos])
        w = acc.shape[2]
        center = (zt[pos, :, None] - acc[pos]) / diag[pos, :, None]
        if e == 1:
            idx = c.nearest(center)                              # (B, W)
        else:
            d = np.abs(center - points[:, None, None]) ** 2  # (Q, B, W)
            idx = _closest(d, e).reshape(b, w * e)
        chosen.append((pos, idx))
        if pos:
            grown = (rcol[pos, :pos, :, None] * points[idx]).reshape(
                pos, b, w, e)
            acc = np.add(acc[:pos, :, :, None], grown, out=grown).reshape(
                pos, b, w * e)
    p = chosen[-1][1].shape[1]
    rows = np.arange(b)
    labels = np.empty((b, p, n), dtype=np.int64)
    for pos, idx in chosen:
        w = idx.shape[1]
        labels.reshape(b, w, p // w, n)[rows, :, :, perm[:, pos]] = \
            idx[:, :, None]
    return labels


def _candidate_llrs_batch(labels: np.ndarray, metrics: np.ndarray,
                          noise_var, c: Constellation) -> np.ndarray:
    """Max-log LLRs over candidate lists: labels (B, P, N), metrics (B, P);
    noise_var is a scalar or one variance per row.  Rows run in blocks of
    at most SEARCH_BLOCK paths."""
    nv = np.broadcast_to(np.reshape(noise_var, -1), (len(labels),))
    return blockwise(lambda x, m, v: _candidate_llrs_rows(x, m, v, c),
                     labels.shape[1], SEARCH_BLOCK, labels, metrics, nv)


def _candidate_llrs_rows(labels: np.ndarray, metrics: np.ndarray,
                         noise_var, c: Constellation) -> np.ndarray:
    """_candidate_llrs_batch in one block.

    On every bit, the side holding the first minimum-metric path has the
    list's minimum (NaN if any metric is NaN), so only the other side is
    reduced over paths.  A path's cost on a bit is its metric plus a
    penalty, -0.0 where its bit differs from the top path's and inf where
    it agrees: -0.0 + m == m exactly, also for m = -0.0.  A NaN metric
    makes both sides NaN, which its row's NaN `low` does anyway.
    """
    rows = np.arange(labels.shape[0])
    top = np.argmin(metrics, axis=1)
    low = metrics[rows, top][:, None, None]              # (B, 1, 1)
    top_labels = labels[rows, top]                       # (B, N)
    table = c.labels.astype(bool)                        # (Q, bps)
    top_bits = np.take(table, top_labels, axis=0)        # (B, N, bps)
    penalty = np.where(table, -0.0, np.inf)
    # path-major, so the minimum runs over whole (B, N, bps) slabs
    differ = (labels ^ top_labels[:, None]).transpose(1, 0, 2)
    cost = np.take(penalty, differ, axis=0)              # (P, B, N, bps)
    cost += metrics.T[:, :, None, None]
    other = cost.min(axis=0)
    min1 = np.where(top_bits, low, other)                # (B, N, bps)
    min0 = np.where(top_bits, other, low)
    with np.errstate(invalid="ignore"):
        llr = (min1 - min0) / np.reshape(noise_var, (-1, 1, 1))
    return np.clip(llr, -LLR_CLIP, LLR_CLIP)


def _select_best(labels: np.ndarray, metrics: np.ndarray):
    """Total-order (metric, label) argmin per batch row.  The first
    minimum decides unless it is tied or NaN; those rows are lexsorted."""
    b, p, n = labels.shape
    best = np.argmin(metrics, axis=1)
    low = metrics[np.arange(b), best][:, None]
    redo = np.flatnonzero(np.isnan(low[:, 0])
                          | (np.count_nonzero(metrics == low, axis=1) > 1))
    if redo.size:
        keys = ([labels[redo, :, j] for j in range(n - 1, -1, -1)]
                + [metrics[redo]])
        best[redo] = np.lexsort(tuple(keys), axis=1)[:, 0]
    return best


def mpnl_detect_batch(plan: BatchPathPlan, h: np.ndarray, y: np.ndarray,
                      c: Constellation):
    """Run the planned parallel-path search on observations y (B, M).

    Returns (labels (B, P, N), metrics (B, P), best index (B,)).  Metrics
    are the true residuals ||y - H x||^2 regardless of any augmentation
    used during planning.  Rows run in blocks of at most SEARCH_BLOCK
    paths.
    """
    return blockwise(lambda p, h, y: _mpnl_rows(p, h, y, c), plan.n_paths,
                     SEARCH_BLOCK, plan, h, y)


def _mpnl_rows(plan: BatchPathPlan, h: np.ndarray, y: np.ndarray,
               c: Constellation):
    """mpnl_detect_batch in one block."""
    z = np.einsum("bnm,bm->bn", plan.qh, y)
    labels = _tree_labels(z, plan.r, plan.expansions, c, plan.perm)
    metrics = _path_metrics(h, y, labels, c)
    return labels, metrics, _select_best(labels, metrics)


# ---------------------------------------------------------------------------
# detector table
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Detector:
    """One row of DETECTORS: min_antennas(n, q, n_paths), the smallest M
    serving n streams; plan(h, noise_var, c, n_paths), channel-time work
    on a (B, M, N) stack; and two transmission-time entries on the plan,
    each computing only its output: llrs(plan, h, y, noise_var, c) ->
    LLRs (B, N, bps), which the link chain decodes, and hard(plan, h, y,
    noise_var, c) -> hard labels (B, N), which bench scores.  Every entry
    takes noise_var as a scalar or one variance per stack row, and looks
    kernels up as module globals at call time, so a wrapper installed on
    one sees every call.
    """

    min_antennas: Callable
    llrs: Callable
    hard: Callable
    plan: Callable = lambda h, noise_var, c, n_paths: None


def _list_output(search, output, n_cands: int, c, noise_var, *rows):
    """One output of a batched candidate-list search, in row blocks.

    rows are the search's per-row inputs, ending with the observations y.
    search(*(x[s] for x in rows), c) scores n_cands candidates on each row
    of block s, giving (labels, metrics, best), and output(labels,
    metrics, best, nv, c) reduces them, nv being the block's slice of
    noise_var (a scalar or one variance per row).  The blocks are
    core.blockwise's at SEARCH_BLOCK candidates, so each search and output
    call fits in one block; rows are independent, so the split changes no
    output.
    """
    nv = np.broadcast_to(noise_var, (len(rows[-1]),))
    return blockwise(lambda *x: output(*search(*x[:-1], c), x[-1], c),
                     n_cands, SEARCH_BLOCK, *rows, nv)


def _list_llrs(labels, metrics, best, nv, c):
    return _candidate_llrs_batch(labels, metrics, nv, c)


def _list_hard(labels, metrics, best, nv, c):
    return np.take_along_axis(labels, best[:, None, None], axis=1)[:, 0]


def _check_paths(n_paths: int):
    """ValueError unless MPNL's path budget is in [1, LIST_BLOCK]."""
    if not 1 <= n_paths <= LIST_BLOCK:
        raise ValueError(f"n_paths must be in [1, {LIST_BLOCK}]")


DETECTORS = {
    "zf": Detector(
        min_antennas=lambda n, q, n_paths: n,
        plan=lambda h, nv, c, n_paths: linear_plan_batch(h, nv, "zf"),
        llrs=lambda plan, h, y, nv, c: _linear_llrs(plan, y, c),
        hard=lambda plan, h, y, nv, c: _linear_hard(plan, y, c)),
    "mmse": Detector(
        min_antennas=lambda n, q, n_paths: 1,
        plan=lambda h, nv, c, n_paths: linear_plan_batch(h, nv, "mmse"),
        llrs=lambda plan, h, y, nv, c: _linear_llrs(plan, y, c),
        hard=lambda plan, h, y, nv, c: _linear_hard(plan, y, c)),
    # ML serves any M, but not past its enumeration guard
    "ml": Detector(
        min_antennas=lambda n, q, n_paths: _check_enumeration(n, q) or 1,
        llrs=lambda _, h, y, nv, c: _list_output(
            ml_detect_batch, _list_llrs, c.order ** h.shape[2], c, nv, h, y),
        hard=lambda _, h, y, nv, c: _list_output(
            ml_detect_batch, _list_hard, c.order ** h.shape[2], c, nv, h, y)),
    # MPNL serves any M, but not past its path-budget guard
    "mpnl": Detector(
        min_antennas=lambda n, q, n_paths: _check_paths(n_paths) or 1,
        plan=lambda h, nv, c, n_paths: mpnl_plan_batch(h, nv, n_paths, c),
        llrs=lambda plan, h, y, nv, c: _list_output(
            mpnl_detect_batch, _list_llrs, plan.n_paths, c, nv,
            plan, h, y),
        hard=lambda plan, h, y, nv, c: _list_output(
            mpnl_detect_batch, _list_hard, plan.n_paths, c, nv,
            plan, h, y)),
}


def check_antenna_floor(name: str, n: int, m: int, q: int, n_paths: int):
    """The admission rule: detector `name`'s antenna floor for n streams,
    or ValueError for an unknown name or for m below that floor."""
    if name not in DETECTORS:
        raise ValueError(f"unknown detector {name!r}")
    need = DETECTORS[name].min_antennas(n, q, n_paths)
    if m < need:
        raise ValueError(f"detector {name!r} needs at least {need} "
                         f"antennas for {n} streams")
    return need
