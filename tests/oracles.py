"""Reference implementations of the detector and decoder tests.

A depth-first Schnorr-Euchner sphere decoder: an exact maximum-likelihood
search that shares no code with `mpnlsim.detect.ml_detect_batch`, so the
two check each other.  The list metric in the path-major layout it had
before it was formed antenna-major, which the kernel must match byte for
byte.  And normalized min-sum written as loops over words, checks and
variables, which `mpnlsim.fec.ldpc_decode` must match byte for byte.
Rate matching on the mother code, with the shortened info bits filled
in as zeros (LLR SHORTENED_LLR at the decoder), which coding on the
transmitted sub-code must match byte for byte.
Tests import them as ``from oracles import sphere_detect``; pytest puts
this directory on ``sys.path``.
"""

import math

import numpy as np

from mpnlsim import fec
from mpnlsim.core import Constellation
from mpnlsim.detect import SingularChannelError


def sphere_detect(h: np.ndarray, y: np.ndarray,
                  c: Constellation) -> np.ndarray:
    """Depth-first Schnorr-Euchner sphere decoder on one (M, N) channel and
    (M,) observation; returns the (N,) exact-ML point labels."""
    m, n = h.shape
    if m < n:
        raise SingularChannelError("sphere decoder requires M >= N")
    qm, r = np.linalg.qr(h)
    diag = np.diag(r)
    if np.min(np.abs(diag)) < 1e-10 * np.max(np.abs(diag)):
        raise SingularChannelError("rank-deficient channel")
    # make the diagonal real positive
    phase = diag / np.abs(diag)
    r = (r.T * phase.conj()).T
    qm = qm * phase
    z = qm.conj().T @ y
    pts = c.points

    best_labels = None
    best_metric = np.inf

    stack = [(n - 1, 0.0, np.zeros(n, dtype=np.int64), z.copy())]
    while stack:
        layer, metric, labels, resid = stack.pop()
        center = resid[layer] / r[layer, layer]
        d = np.abs(center - pts) ** 2 * np.abs(r[layer, layer]) ** 2
        order = np.argsort(d, kind="stable")
        children = []
        for k in order:
            pm = metric + d[k]
            if pm >= best_metric:
                break                    # SE order: the rest are worse
            lab = labels.copy()
            lab[layer] = k
            if layer == 0:
                best_metric = pm
                best_labels = lab
            else:
                res = resid - r[:, layer] * pts[k]
                children.append((layer - 1, pm, lab, res))
        stack.extend(reversed(children))  # visit best child first
    return best_labels


def path_metrics_bpm(h: np.ndarray, y: np.ndarray, labels: np.ndarray,
                     c: Constellation) -> np.ndarray:
    """The list metric ||y - H x||^2 (B, P) of labels (B, P, N), with the
    residuals laid out path-major, (B, P, M), as `_path_metrics` first
    formed them; the antenna-major kernel must give its bytes."""
    resid = np.einsum("bmn,bpn->bpm", h, c.points[labels])
    np.subtract(y[:, None, :], resid, out=resid)
    dist = np.abs(resid)
    return np.square(dist, out=dist).sum(axis=2)


def min_sum_decode(h: np.ndarray, llrs: np.ndarray, max_iter: int,
                   normalization: float):
    """Normalized min-sum on each (n,) word of (B, n) llrs under parity
    checks h (m, n), one word, check and variable at a time, in Python
    floats.  Flooding schedule: every check-to-variable message is
    normalization * (the sign product and the minimum magnitude of the
    check's other incoming messages); a variable's posterior is its
    messages summed in ascending check order, then its LLR.  A word stops
    at a zero syndrome of its hard decision, checked before the first
    iteration and after each.  Returns (info bits (B, n - m), converged
    (B,))."""
    m, n = h.shape
    checks = [np.flatnonzero(row).tolist() for row in h]
    var_checks = [np.flatnonzero(col).tolist() for col in h.T]
    info = np.zeros((len(llrs), n - m), dtype=np.uint8)
    converged = np.zeros(len(llrs), dtype=bool)
    for b, word in enumerate(np.asarray(llrs, dtype=np.float64).tolist()):
        total = list(word)
        # with no message yet, each edge's variable-to-check message is
        # the channel LLR: x - 0.0 == x
        m_cv = {(r, v): 0.0 for r in range(m) for v in checks[r]}
        for it in range(max_iter + 1):
            hard = [t < 0 for t in total]
            if not any(sum(hard[v] for v in vs) % 2 for vs in checks):
                converged[b] = True
                break
            if it == max_iter:
                break
            m_vc = {(r, v): total[v] - c for (r, v), c in m_cv.items()}
            for r, vs in enumerate(checks):
                for v in vs:
                    others = [m_vc[r, u] for u in vs if u != v]
                    negative = sum(x < 0 for x in others) % 2
                    least = min((abs(x) for x in others), default=math.inf)
                    m_cv[r, v] = (-normalization if negative
                                  else normalization) * least
            for v in range(n):
                acc = 0.0
                for r in var_checks[v]:
                    acc += m_cv[r, v]
                total[v] = acc + word[v]
        info[b] = [t < 0 for t in total[:n - m]]
    return info, converged


# LLR magnitude of a shortened (known-zero) bit at the mother-code decoder
SHORTENED_LLR = 1e7


def rate_matched_encode(code, rm, info: np.ndarray) -> np.ndarray:
    """(B, k_tb) info bits zero-filled to k, encoded on the mother code,
    and sent as the first k_tb info and first n_tx - k_tb parity bits."""
    full = np.zeros((info.shape[0], code.k), dtype=np.uint8)
    full[:, :rm.k_tb] = info
    cw = fec.ldpc_encode(code, full)
    p = rm.n_tx - rm.k_tb
    return np.concatenate([cw[:, :rm.k_tb], cw[:, code.k:code.k + p]],
                          axis=-1)


def rate_matched_decode(code, rm, llrs_tx: np.ndarray,
                        max_iter: int = fec.DEFAULT_MAX_ITER):
    """(B, n_tx) transmitted-bit LLRs decoded on the mother code: the
    shortened info bits at SHORTENED_LLR, the punctured parity bits at 0.
    Returns ((B, k_tb) info bits, (B,) converged)."""
    p = rm.n_tx - rm.k_tb
    full = np.zeros((len(llrs_tx), code.n))
    full[:, :rm.k_tb] = llrs_tx[:, :rm.k_tb]
    full[:, rm.k_tb:code.k] = SHORTENED_LLR
    full[:, code.k:code.k + p] = llrs_tx[:, rm.k_tb:]
    info, conv = fec.ldpc_decode(code, full, max_iter)
    return info[:, :rm.k_tb], conv
