"""Reference implementations of the detector tests.

A depth-first Schnorr-Euchner sphere decoder: an exact maximum-likelihood
search that shares no code with `mpnlsim.detect.ml_detect_batch`, so the
two check each other.  And the list metric in the path-major layout it had
before it was formed antenna-major, which the kernel must match byte for
byte.  Tests import them as ``from oracles import sphere_detect``; pytest
puts this directory on ``sys.path``.
"""

import numpy as np

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
