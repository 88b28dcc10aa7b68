import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from mpnlsim import channel as ch
from mpnlsim import detect as det
from mpnlsim import linksim, search
from mpnlsim.core import QAM16, QAM64, QPSK, constellation_for, demap_llr
from oracles import path_metrics_bpm, sphere_detect


def rand_channel(rng, m, n):
    return (rng.standard_normal((m, n))
            + 1j * rng.standard_normal((m, n))) / np.sqrt(2)


def rand_instance(rng, m, n, c, snr_db):
    """A stack of one: channel (1, M, N), observation (1, M), the noise
    variance and the transmitted labels (N,)."""
    h = rand_channel(rng, m, n)
    labels = rng.integers(0, c.order, n)
    x = c.points[labels]
    nv = n / 10 ** (snr_db / 10)
    noise = np.sqrt(nv / 2) * (rng.standard_normal(m)
                               + 1j * rng.standard_normal(m))
    return h[None], (h @ x + noise)[None], nv, labels


def _both(d, plan, h, y, nv, c):
    """A DETECTORS row's (hard labels, LLRs), one from each entry."""
    return d.hard(plan, h, y, nv, c), d.llrs(plan, h, y, nv, c)


def table_index(labels, c):
    """Row of a label vector in ML's lexicographic table."""
    return np.ravel_multi_index(tuple(labels), (c.order,) * len(labels))


# ---------------------------------------------------------------------------
# linear detectors
# ---------------------------------------------------------------------------

def test_zf_identity_channel():
    y = QPSK.points[[0, 3]]
    labels, _ = det.linear_detect_batch(np.eye(2, dtype=complex)[None],
                                        y[None], 0.01, QPSK, "zf")
    assert np.array_equal(labels[0], [0, 3])


def test_zf_scaling_invariance():
    s = QPSK.points[[2, 1]]
    labels, _ = det.linear_detect_batch(2 * np.eye(2, dtype=complex)[None],
                                        2 * s[None], 0.01, QPSK, "zf")
    assert np.allclose(QPSK.points[labels[0]], s)


def test_zf_noiseless_consistency():
    rng = np.random.default_rng(11)
    for _ in range(100):
        h = rand_channel(rng, 4, 4)
        labels = rng.integers(0, 4, 4)
        y = h @ QPSK.points[labels]
        got, _ = det.linear_detect_batch(h[None], y[None], 1e-6, QPSK, "zf")
        assert np.array_equal(got[0], labels)


def test_zf_rejects_singular_channel():
    h = np.ones((1, 2, 2), dtype=complex)
    with pytest.raises(det.SingularChannelError):
        det.linear_detect_batch(h, np.ones((1, 2)), 0.1, QPSK, "zf")
    # a stack of them, and too few antennas
    stack, y = np.ones((3, 2, 2), dtype=complex), np.ones((3, 2))
    with pytest.raises(det.SingularChannelError):
        det.linear_detect_batch(stack, y, 0.1, QPSK, "zf")
    with pytest.raises(det.SingularChannelError):
        det.linear_detect_batch(stack[:, :1], y[:, :1], 0.1, QPSK, "zf")
    # numerically rank-1 Grams that inv accepts, one with a negative
    # lam_min, and two either side of cond = 1e12: each stack and each row
    # gets np.linalg.cond's decision
    r = np.random.default_rng(1)
    a, b = (r.standard_normal(s) + 1j * r.standard_normal(s)
            for s in ((3, 2, 1), (3, 1, 2)))
    rank1 = a @ b
    q = np.linalg.qr(rand_channel(r, 2, 2))[0]
    edge = np.stack([q @ np.diag([1.0, (1e12 * (1 + d)) ** -0.5])
                     for d in (1e-6, -1e-6)])
    gram = rank1.conj().transpose(0, 2, 1) @ rank1
    np.linalg.inv(gram)
    assert np.linalg.eigvalsh(gram)[:, 0].min() < 0
    decisions = []
    for h in (rank1, *rank1[:, None], edge, *edge[:, None]):
        gram = h.conj().transpose(0, 2, 1) @ h
        try:
            det.linear_plan_batch(h, 0.1, "zf")
            accepted = True
        except det.SingularChannelError:
            accepted = False
        assert accepted == np.all(np.linalg.cond(gram) <= 1e12)
        decisions.append(accepted)
    assert decisions == [False] * 6 + [True]


def test_zf_rejects_zero_noise_variance():
    """ZF's LLRs scale by noise_var * diag((H^H H)^-1), so noise_var 0
    fails the demapper's check, not as a division by zero."""
    with pytest.raises(ValueError, match="noise_var must be positive"):
        det.linear_detect_batch(np.eye(2, dtype=complex)[None],
                                QPSK.points[[0, 3]][None], 0.0, QPSK, "zf")


def test_mmse_identity_closed_form():
    y = np.array([0.3 + 0.1j, -0.2 + 0.5j])
    for nv in (0.1, 1.0, 3.0):
        plan = det.linear_plan_batch(np.eye(2, dtype=complex)[None], nv,
                                     "mmse")
        soft = det._linear_estimates(plan, y[None])[0]
        assert np.allclose(soft[0], y / (1 + nv))


def test_mmse_zf_limit():
    rng = np.random.default_rng(3)
    h = rand_channel(rng, 2, 2)
    y = h @ QPSK.points[[1, 2]] + 0.01
    mmse, _ = det.linear_detect_batch(h[None], y[None], 1e-12, QPSK, "mmse")
    zf, _ = det.linear_detect_batch(h[None], y[None], 1e-12, QPSK, "zf")
    assert np.array_equal(mmse, zf)


def test_mmse_matches_direct_solve():
    rng = np.random.default_rng(5)
    for _ in range(100):
        h = rand_channel(rng, 4, 4)
        y = (rng.standard_normal(4) + 1j * rng.standard_normal(4))
        nv = float(rng.uniform(0.01, 2.0))
        ref = np.linalg.solve(h.conj().T @ h + nv * np.eye(4), h.conj().T @ y)
        got = det._linear_estimates(
            det.linear_plan_batch(h[None], nv, "mmse"), y[None])[0][0]
        assert np.linalg.norm(got - ref) <= 1e-10 * np.linalg.norm(ref)


def test_linear_batch_matches_scalar():
    # reference: a direct solve per instance, then per-stream slicing and
    # demapping at the effective noise variance
    rng = np.random.default_rng(9)
    h = np.stack([rand_channel(rng, 3, 2) for _ in range(20)])
    y = rng.standard_normal((20, 3)) + 1j * rng.standard_normal((20, 3))
    nv = 0.2
    for mode in ("zf", "mmse"):
        labels, llrs = det.linear_detect_batch(h, y, nv, QPSK, mode)
        for i in range(20):
            hh = h[i].conj().T
            a = hh @ h[i] + (nv * np.eye(2) if mode == "mmse" else 0)
            soft = np.linalg.solve(a, hh @ y[i])
            diag = np.real(np.diag(np.linalg.inv(a)))
            if mode == "zf":
                est, nv_eff = soft, nv * diag
            else:
                beta = 1 - nv * diag
                est, nv_eff = soft / beta, (1 - beta) / beta
            ref = np.stack([demap_llr(est[k], nv_eff[k], QPSK)
                            for k in range(2)])
            near = np.argmin(np.abs(est[:, None] - QPSK.points) ** 2, axis=1)
            assert np.array_equal(labels[i], near)
            assert np.allclose(llrs[i], ref, atol=1e-9)


def test_linear_detect_batch_is_the_table_plan_then_apply():
    """linear_detect_batch gives the bytes of its DETECTORS row's plan and
    hard and llrs entries, for a scalar and a per-row noise variance, and one plan serves
    several observation sets with the bytes of a fresh plan for each."""
    rng = np.random.default_rng(191)
    h = _stack(rng, 12, 4, 3)
    ys = [_stack(rng, 12, 4, 1)[..., 0] for _ in range(3)]
    for mode in ("zf", "mmse"):
        d = det.DETECTORS[mode]
        for nv in (0.3, 0.3 * rng.uniform(0.5, 2.0, 12)):
            plan = d.plan(h, nv, QAM16, 32)
            for y in ys:
                for got, want in zip(_both(d, plan, h, y, nv, QAM16),
                                     det.linear_detect_batch(h, y, nv, QAM16,
                                                             mode)):
                    assert got.dtype == want.dtype
                    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("m", [*range(1, linksim.MAX_ANTENNAS + 1), 129,
                               256])
def test_path_metrics_match_path_major_oracle(m):
    """_path_metrics gives the bytes of the path-major formula it replaced
    (tests/oracles.py), whose sum is numpy's own over M contiguous terms:
    at every antenna count the link chain takes and past numpy's 128-term
    block, on random label stacks for N up to 12 with antenna gains from
    1e-4 to 1e3, on ML's broadcast enumeration, and on stacks holding
    zero, inf and NaN channel or observation entries.  A numpy release
    that changes its reduction order fails here before it moves a
    golden."""
    rng = np.random.default_rng(193 + m)
    cases = []
    for n, c in ((1, QAM64), (2, QAM16), (3, QPSK), (4, QAM16), (8, QPSK),
                 (12, QAM64)):
        gain = 10.0 ** rng.integers(-4, 4, (9, m, 1))
        h = _stack(rng, 9, m, n) * gain
        y = _stack(rng, 9, m, 1)[..., 0] * gain[..., 0]
        h[0] = 0
        h[1, 0, -1] = np.inf
        h[2, -1, 0] = complex(np.nan, 1.0)
        h[3, :, 0] = -np.inf
        y[4] = 0
        y[5, 0] = complex(0.0, np.inf)
        y[6, -1] = np.nan
        cases.append((h, y, rng.integers(0, c.order, (9, 17, n)), c))
    for n, c in ((2, QAM16), (4, QPSK), (1, QAM64)):
        labels = det._enumerate_labels(n, c.order)
        cases.append((_stack(rng, 5, m, n), _stack(rng, 5, m, 1)[..., 0],
                      np.broadcast_to(labels, (5,) + labels.shape), c))
    with np.errstate(all="ignore"):
        for h, y, labels, c in cases:
            got = det._path_metrics(h, y, labels, c)
            want = path_metrics_bpm(h, y, labels, c)
            assert got.shape == want.shape == labels.shape[:2]
            assert np.array_equal(got.view(np.int64), want.view(np.int64))


# ---------------------------------------------------------------------------
# exact oracles
# ---------------------------------------------------------------------------

def test_ml_noiseless_recovers_truth():
    rng = np.random.default_rng(1)
    h, y, _, truth = rand_instance(rng, 3, 3, QPSK, 100.0)
    labels, _, best = det.ml_detect_batch(h, y, QPSK)
    assert np.array_equal(labels[0, best[0]], truth)


def test_ml_single_stream_is_slicing():
    rng = np.random.default_rng(2)
    h = rand_channel(rng, 1, 1)
    y = np.array([0.4 - 0.2j])
    labels, _, best = det.ml_detect_batch(h[None], y[None], QAM16)
    assert labels[0, best[0], 0] == QAM16.nearest(y[0] / h[0, 0])


def test_ml_matches_explicit_enumeration():
    rng = np.random.default_rng(7)
    h, y, _, _ = rand_instance(rng, 2, 2, QPSK, 10.0)
    explicit = [np.sum(np.abs(y[0] - h[0] @ QPSK.points[[i, j]]) ** 2)
                for i in range(4) for j in range(4)]
    _, metrics, best = det.ml_detect_batch(h, y, QPSK)
    assert metrics[0, best[0]] == pytest.approx(min(explicit), rel=1e-12)


def test_ml_enumeration_guard():
    rng = np.random.default_rng(0)
    h = rand_channel(rng, 3, 3)
    with pytest.raises(ValueError, match="guard"):
        det.ml_detect_batch(h[None], np.zeros((1, 3)), constellation_for(64))


def test_ml_enumeration_built_once_read_only():
    # every ML call on one (N, Q) shares its table, so it refuses writes
    table = det._enumerate_labels(4, 16)
    assert det._enumerate_labels(4, 16) is table
    with pytest.raises(ValueError, match="read-only"):
        table[0, 0] = 1


def test_ml_permutation_equivariance():
    rng = np.random.default_rng(13)
    h, y, _, _ = rand_instance(rng, 4, 4, QPSK, 8.0)
    perm = rng.permutation(4)
    l1, m1, b1 = det.ml_detect_batch(h, y, QPSK)
    l2, m2, b2 = det.ml_detect_batch(h[:, :, perm], y, QPSK)
    assert m1[0, b1[0]] == pytest.approx(m2[0, b2[0]], rel=1e-12)
    assert np.array_equal(l1[0, b1[0]][perm], l2[0, b2[0]])


@pytest.mark.parametrize("m,n,order", [(2, 2, 4), (4, 4, 4), (3, 3, 16)])
def test_sphere_equals_ml(m, n, order):
    rng = np.random.default_rng(100 + m + order)
    c = constellation_for(order)
    for snr in (0, 10, 20):
        for _ in range(50):
            h, y, _, _ = rand_instance(rng, m, n, c, snr)
            labels, metrics, best = det.ml_detect_batch(h, y, c)
            got = sphere_detect(h[0], y[0], c)
            assert np.array_equal(got, labels[0, best[0]])
            assert metrics[0, table_index(got, c)] == metrics[0, best[0]]


def test_sphere_noiseless_zero_metric():
    rng = np.random.default_rng(4)
    h, _, _, labels = rand_instance(rng, 4, 4, QPSK, 300.0)
    y = h[0] @ QPSK.points[labels]
    got = sphere_detect(h[0], y, QPSK)
    assert np.array_equal(got, labels)
    resid = y - h[0] @ QPSK.points[got]
    assert np.sum(np.abs(resid) ** 2) == pytest.approx(0.0, abs=1e-20)


def test_sphere_single_layer_slices():
    h = np.array([[0.8 - 0.3j]])
    y = np.array([0.5 + 0.1j])
    assert sphere_detect(h, y, QAM16)[0] == QAM16.nearest(y[0] / h[0, 0])


# ---------------------------------------------------------------------------
# path planning
# ---------------------------------------------------------------------------

def test_allocation_full_tree():
    e, r = det.allocate_expansions(3, 4, 64)
    assert r == 64 and np.all(e == 4)


def test_allocation_single_path():
    e, r = det.allocate_expansions(5, 4, 1)
    assert r == 1 and np.all(e == 1)


def test_allocation_rounds_down_unrepresentable():
    # 17 is prime and > Q: cannot be a product of factors <= 4
    e, r = det.allocate_expansions(3, 4, 17)
    assert r == 16
    assert np.prod(e) == 16


def test_allocation_caps_at_full_tree():
    e, r = det.allocate_expansions(2, 4, 1000)
    assert r == 16 and np.all(e == 4)


def test_allocation_doubling_dominates_layerwise():
    for k in (1, 2, 4, 8, 16, 32):
        e1, _ = det.allocate_expansions(4, 4, k)
        e2, _ = det.allocate_expansions(4, 4, 2 * k)
        if np.prod(e2) == 2 * k:
            assert np.all(e2 >= e1)


def test_allocation_matches_golden():
    """Every input hashes to the digest of the allocator before its
    forced full expansion of overloaded layers was removed."""
    digest = hashlib.sha256()
    paths = list(range(1, 300)) + [512, 1000, 1024, 4096, 5000, 65536]
    for q in (4, 16, 64):
        for n_layers in range(1, 9):
            for n_paths in paths:
                e, realized = det.allocate_expansions(n_layers, q, n_paths)
                digest.update(e.tobytes())
                digest.update(str(realized).encode())
    assert digest.hexdigest() == ("5c6cd6bdcfd1d4026a9e95ad04027471"
                                  "2473a38c76c260ae85d7c7e2d7be3468")


def test_plan_invariants():
    rng = np.random.default_rng(21)
    h = rand_channel(rng, 4, 4)
    plan = det.mpnl_plan_batch(h[None], 0.1, 32, QPSK)
    r = plan.r[0]
    assert np.allclose(np.tril(r, -1), 0)
    assert np.all(np.diag(r).real > 0)
    assert np.all(np.abs(np.diag(r).imag) < 1e-12)
    assert np.prod(plan.expansions) == plan.n_paths == 32
    assert sorted(plan.perm[0]) == list(range(4))
    # weaker layers sit at the top (first detected, most expanded)
    diag = np.diag(r).real
    assert diag[0] == max(diag)


def test_plan_reconstructs_channel():
    rng = np.random.default_rng(22)
    h = rand_channel(rng, 6, 4)
    plan = det.mpnl_plan_batch(h[None], 0.1, 16, QPSK)
    hp = h[:, plan.perm[0]]
    assert np.allclose(plan.qh[0].conj().T @ plan.r[0], hp, atol=1e-10)


def test_plan_overloaded_partial_expansion():
    # QPSK, N=3, M=1: 8 paths cannot fully expand the two layers beyond
    # the channel's rank, and the augmented plan spends them anyway
    rng = np.random.default_rng(23)
    h = rand_channel(rng, 1, 3)
    plan = det.mpnl_plan_batch(h[None], 0.1, 8, QPSK)
    assert np.prod(plan.expansions) == plan.n_paths == 8
    assert np.all(np.einsum("bii->bi", plan.r).real > 0)


# ---------------------------------------------------------------------------
# parallel-path detection
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("nv", [1e-3, 0.1, 1.0])
@pytest.mark.parametrize("q, n, m", [
    (q, n, m) for q in (4, 16) for n in range(1, 5)
    for m in sorted({1, 2, n, n + 2})])
def test_mpnl_full_enumeration_equals_ml(q, n, m, nv):
    """At n_paths = Q^N the tree holds every label vector, so MPNL's
    DETECTORS row gives ML's hard labels and LLRs byte for byte, also on
    overloaded stacks (N > M)."""
    c = constellation_for(q)
    rng = np.random.default_rng([q, n, m, int(1 / nv)])
    b = 4
    h = _stack(rng, b, m, n)
    x = c.points[rng.integers(0, q, (b, n))]
    noise = np.sqrt(nv / 2) * (rng.standard_normal((b, m))
                               + 1j * rng.standard_normal((b, m)))
    y = np.einsum("bmn,bn->bm", h, x) + noise
    got, want = (
        _both(d, d.plan(h, nv, c, q ** n), h, y, nv, c)
        for d in (det.DETECTORS["mpnl"], det.DETECTORS["ml"]))
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes()


def test_mpnl_single_path_equals_sic():
    rng = np.random.default_rng(41)
    for _ in range(200):
        h, y, nv, _ = rand_instance(rng, 4, 4, QPSK, 12.0)
        plan = det.mpnl_plan_batch(h, nv, 1, QPSK)
        labels, _, best = det.mpnl_detect_batch(plan, h, y, QPSK)
        # independent SIC along the plan's ordering via back-substitution
        ordering = plan.perm[0]
        hp = h[0][:, ordering]
        q, r = np.linalg.qr(hp)
        phase = np.diag(r) / np.abs(np.diag(r))
        r = (r.T * phase.conj()).T
        z = (q * phase).conj().T @ y[0]
        sic = np.zeros(4, dtype=np.int64)
        x = np.zeros(4, dtype=complex)
        for i in range(3, -1, -1):
            center = (z[i] - r[i, i + 1:] @ x[i + 1:]) / r[i, i]
            sic[i] = np.argmin(np.abs(center - QPSK.points) ** 2)
            x[i] = QPSK.points[sic[i]]
        expect = np.empty(4, dtype=np.int64)
        expect[ordering] = sic
        assert np.array_equal(labels[0, best[0]], expect)


def test_mpnl_noiseless_any_budget():
    rng = np.random.default_rng(51)
    for npaths in (1, 2, 4, 8, 32):
        h = rand_channel(rng, 4, 4)
        labels = rng.integers(0, 4, 4)
        y = h @ QPSK.points[labels]
        plan = det.mpnl_plan_batch(h[None], 0.01, npaths, QPSK)
        got, _, best = det.mpnl_detect_batch(plan, h[None], y[None], QPSK)
        assert np.array_equal(got[0, best[0]], labels)


def test_mpnl_metric_dominates_ml():
    rng = np.random.default_rng(61)
    for _ in range(100):
        h, y, nv, _ = rand_instance(rng, 4, 4, QPSK, 5.0)
        plan = det.mpnl_plan_batch(h, nv, 8, QPSK)
        _, metrics, best = det.mpnl_detect_batch(plan, h, y, QPSK)
        _, ml_metrics, ml_best = det.ml_detect_batch(h, y, QPSK)
        assert metrics[0, best[0]] >= ml_metrics[0, ml_best[0]] - 1e-12


def test_mpnl_candidates_nested_under_doubling():
    rng = np.random.default_rng(71)
    h, y, nv, _ = rand_instance(rng, 4, 4, QPSK, 8.0)
    prev = None
    for k in (1, 2, 4, 8, 16, 32):
        plan = det.mpnl_plan_batch(h, nv, k, QPSK)
        labels, _, _ = det.mpnl_detect_batch(plan, h, y, QPSK)
        cur = {tuple(row) for row in labels[0]}
        assert len(cur) == k            # pairwise distinct
        if prev is not None:
            assert prev <= cur
        prev = cur


def test_mpnl_candidate_metrics_consistent():
    rng = np.random.default_rng(81)
    h, y, nv, _ = rand_instance(rng, 4, 4, QAM16, 15.0)
    plan = det.mpnl_plan_batch(h, nv, 16, QAM16)
    labels, metrics, best = det.mpnl_detect_batch(plan, h, y, QAM16)
    for lab, metric in zip(labels[0], metrics[0]):
        direct = np.sum(np.abs(y[0] - h[0] @ QAM16.points[lab]) ** 2)
        assert metric == pytest.approx(direct, rel=1e-9)
    assert metrics[0, best[0]] == pytest.approx(metrics[0].min(), rel=1e-12)


def test_mpnl_overloaded_runs():
    rng = np.random.default_rng(101)
    h = rand_channel(rng, 2, 3)
    labels = rng.integers(0, 4, 3)
    y = h @ QPSK.points[labels]
    plan = det.mpnl_plan_batch(h[None], 1e-4, 32, QPSK)
    assert plan.expansions[2] == 4       # 32 = 4 * 4 * 2 from the top
    got, _, best = det.mpnl_detect_batch(plan, h[None], y[None], QPSK)
    assert np.array_equal(got[0, best[0]], labels)


def _stack(rng, b, m, n):
    return (rng.standard_normal((b, m, n))
            + 1j * rng.standard_normal((b, m, n))) / np.sqrt(2)


def _kernel_case(h, y, nv, c, n_paths, llr_nv=None):
    """A thunk running the MPNL kernels on one stack; it returns labels,
    metrics and best of mpnl_detect_batch and the _candidate_llrs_batch
    LLRs at llr_nv (default nv)."""
    def run():
        plan = det.mpnl_plan_batch(h, nv, n_paths, c)
        labels, metrics, best = det.mpnl_detect_batch(plan, h, y, c)
        llrs = det._candidate_llrs_batch(
            labels, metrics, nv if llr_nv is None else llr_nv, c)
        return labels, metrics, best, llrs
    run.plan = lambda: det.mpnl_plan_batch(h, nv, n_paths, c)
    return run


def _quiet(run):
    """run with floating-point warnings silenced (inf and NaN inputs)."""
    def quiet():
        with np.errstate(all="ignore"):
            return run()
    quiet.plan = run.plan
    return quiet


def _mpnl_golden_cases():
    """(name, thunk) pairs over N in {2, 4, 8} and QPSK/16/64-QAM: single
    path, mixed and full trees, overloaded N > M,
    noiseless on-grid and midpoint observations (distance ties), an
    all-zero channel column (the 1e-300 diagonal floor), scalar and
    per-row noise_var, observations that overflow or are infinite or NaN,
    and the LLR and best-path reductions on crafted tied, infinite and NaN
    metrics."""
    rng = np.random.default_rng(20241)
    for n, m, c, n_paths in ((2, 2, QPSK, 16), (2, 2, QAM64, 1),
                             (4, 4, QAM16, 32), (4, 2, QPSK, 32),
                             (4, 4, QAM64, 128), (8, 8, QAM16, 32),
                             (8, 8, QPSK, 1), (8, 8, QAM64, 8)):
        h = _stack(rng, 48, m, n)
        x = c.points[rng.integers(0, c.order, (48, n))]
        nv = n / 10 ** (12.0 / 10)
        noise = np.sqrt(nv / 2) * (rng.standard_normal((48, m))
                                   + 1j * rng.standard_normal((48, m)))
        y = np.einsum("bmn,bn->bm", h, x)
        tag = f"n{n}m{m}_q{c.order}_p{n_paths}"
        yield f"{tag}_noisy", _kernel_case(h, y + noise, nv, c, n_paths)
        yield f"{tag}_noiseless", _kernel_case(h, y, 1e-3, c, n_paths)
        yield f"{tag}_rownv", _kernel_case(
            h, y + noise, nv, c, n_paths,
            llr_nv=nv * rng.uniform(0.5, 2.0, 48))
    # identity and diagonal channels: observations on the grid, halfway
    # between neighbours and at the origin tie the layer distances exactly
    for c, n_paths in ((QPSK, 1), (QPSK, 8), (QAM16, 1), (QAM16, 32)):
        p = c.points
        near = p[np.argsort(np.abs(p - p[0]), kind="stable")[1]]
        obs = np.array([p[0], (p[0] + near) / 2, 0.0, p[-1],
                        (p[0] + p[-1]) / 2, 0.5 * p[3]])
        y = obs[rng.integers(0, obs.size, (24, 4))]
        h = np.broadcast_to(np.eye(4, dtype=complex), (24, 4, 4))
        diag = h * np.array([1.0, 2.0, 0.5, 1.0])
        tag = f"eye4_q{c.order}_p{n_paths}"
        yield f"{tag}_identity", _kernel_case(h, y, 0.1, c, n_paths)
        yield f"{tag}_diagonal", _kernel_case(
            diag, np.einsum("bmn,bn->bm", diag, y), 0.1, c, n_paths)
    # an all-zero column hits the diagonal floor of the sorted QR
    for c, n_paths in ((QPSK, 4), (QAM16, 32)):
        h = _stack(rng, 24, 4, 4)
        h[:, :, 2] = 0
        x = c.points[rng.integers(0, c.order, (24, 4))]
        y = np.einsum("bmn,bn->bm", h, x)
        yield f"zero_col_q{c.order}_p{n_paths}_noiseless", _kernel_case(
            h, y, 0.05, c, n_paths)
        yield f"zero_col_q{c.order}_p{n_paths}_noisy", _kernel_case(
            h, y + 0.1 * _stack(rng, 24, 4, 1)[..., 0], 0.05, c, n_paths)
    # the reductions alone: tied, infinite and NaN metrics
    labels = rng.integers(0, 16, (6, 8, 3))
    metrics = rng.integers(0, 4, (6, 8)).astype(float)
    metrics[1] = 2.0
    metrics[2, [1, 5]] = np.inf
    metrics[3] = np.inf
    metrics[4, 3] = np.nan
    metrics[5, [0, 6]] = np.nan
    metrics[5, 2] = -0.0
    yield "crafted_llrs_clip20.0", lambda: (
        det._candidate_llrs_batch(labels, metrics, 0.5, QAM16),)
    yield "crafted_best", lambda: (det._select_best(labels, metrics),)
    # huge, infinite and NaN observations put 1e300, inf and NaN in z, so
    # every distance of a layer overflows to inf or is NaN, on single-child
    # layers, on layers keeping 2..Q-1 children and on fully expanded ones
    rng = np.random.default_rng(20242)
    for n, c, n_paths in ((4, QAM16, 32), (3, QAM16, 6), (4, QPSK, 8),
                          (8, QAM16, 32)):
        h = _stack(rng, 12, n, n)
        y = np.einsum("bmn,bn->bm", h,
                      c.points[rng.integers(0, c.order, (12, n))])
        y[0] = 1e300
        y[1, 0] = 1e300
        y[2, -1] = -1e300j
        y[3] = 1.7e308 * (1 + 1j)
        y[4, 1] = np.nan
        y[5, 0] = np.inf
        y[6, 0] = complex(np.inf, np.nan)
        y[7] = 1.3e154
        y[8, 0] = 1e160
        yield f"nonfinite_n{n}_q{c.order}_p{n_paths}", _quiet(
            _kernel_case(h, y, 0.1, c, n_paths))


def _digest(*arrays):
    h = hashlib.sha256()
    for a in map(np.asarray, arrays):
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


# SHA-256 of (labels, metrics, best, llrs) per case in _mpnl_golden_cases,
# taken from the dense-sort kernels (the nonfinite cases from the argmin
# tree search that followed them, before per-axis slicing).  Any change to
# the MPNL search, the best-path selection or the list LLRs must reproduce
# them.
GOLDEN_MPNL = {
    "n2m2_q4_p16_noisy": "f442a5f04deb5b29d359dd41e80dc8d6fd8e1d64e8856973dc2ef467ba8c58b8",
    "n2m2_q4_p16_noiseless": "5dcf1e7b86a11ebf277ab919fb47c50efb8feb65d3547e0c5eead04567d1bc01",
    "n2m2_q4_p16_rownv": "6e7998270f86a2a67802a92f6e39ceace5692e96100143add1586450349bfa38",
    "n2m2_q64_p1_noisy": "cdcc722ff5c82f7557f6d3bd1a1e3ad63eae1582cc0db16515b7b0b7654f9518",
    "n2m2_q64_p1_noiseless": "04b67fd808b9df5b50dad50f44a8c7d23afd4bdcf6fd6a5ba33becd5332bfc0d",
    "n2m2_q64_p1_rownv": "cdcc722ff5c82f7557f6d3bd1a1e3ad63eae1582cc0db16515b7b0b7654f9518",
    "n4m4_q16_p32_noisy": "283d7fa9fd04b748d50476757ab61b5704a8362400d21947db1810f7b94f9681",
    "n4m4_q16_p32_noiseless": "08dfc9d7b675b9fb0d3a29799d7a93251ae4c239928d1826d1a302b7ed09f488",
    "n4m4_q16_p32_rownv": "e3573a75f4291cbb4f47977a0ef894f1809dacff7b6de6bdf4a32ebd681e6e42",
    "n4m2_q4_p32_noisy": "a568d1b55c24d3c50e18dae90e6a64a49dccb9c6eefcd4ec97cf3a21843cfe29",
    "n4m2_q4_p32_noiseless": "5cd62e32048db147e4a0834d05a57affa473b216a053cb416b8febce75c9f1be",
    "n4m2_q4_p32_rownv": "0afa88a07a8f472a290a2259b510a5672c2846b8ca146d43b81479760a68f438",
    "n4m4_q64_p128_noisy": "b085e219177dfa3490f981480ae96cbd6f28c31cefd5b176d48574dfee7c2d96",
    "n4m4_q64_p128_noiseless": "54fc0385e76d87f956d150f8ba167dad80dd7f78e7dc264fa73d766c4ea8140d",
    "n4m4_q64_p128_rownv": "65c0ebbd12f417ecf941939efc3fbb0a025ca9bc4ef98902952feb81222f9935",
    "n8m8_q16_p32_noisy": "a0c2614c12a7d24b5b5a725dd7a18ed860ff54951d278af09671eec2e8637b76",
    "n8m8_q16_p32_noiseless": "3d9b939308cf19675475483d6a2315b4bbe69a26af6d21649e6525dd4adc99d5",
    "n8m8_q16_p32_rownv": "5d07da17a12c3aef0e39baf2f07f8ca15ef078010525ebc4ca7c0d3b1e6e6a2b",
    "n8m8_q4_p1_noisy": "fa87e9cf96e8c8cd6b1a3e33436f23b2bb563d2c4e5b721312adb983c4f8df5a",
    "n8m8_q4_p1_noiseless": "8b69fd13fe52243fa76777a299884f60a91852d6a09430686ce2931446591612",
    "n8m8_q4_p1_rownv": "fa87e9cf96e8c8cd6b1a3e33436f23b2bb563d2c4e5b721312adb983c4f8df5a",
    "n8m8_q64_p8_noisy": "cdf9fc8b52d48983dfb8f5b3c959088defedf1c020f12983e53105e5c71f5c25",
    "n8m8_q64_p8_noiseless": "660a0a8d404cc1de749d847963a36972012f987dd1150c32f92c7d797ed2d306",
    "n8m8_q64_p8_rownv": "354e3b450b7a4d3669ed3d2135022ff6352868cdc6f113ef3f005e0dccd26a70",
    "eye4_q4_p1_identity": "23e47def8a50a30b1d523e38886c5d1c7686d7ba44c8ea254ef12546bade0d7d",
    "eye4_q4_p1_diagonal": "80c82e43f1977548c557c8230d0b9da8f84b1ca503c3e612ca5b4db45ae72384",
    "eye4_q4_p8_identity": "ed60b86b678f0a40f2da279c77e00781bbc8d5c87cc24e7e1a5b8e424c72057d",
    "eye4_q4_p8_diagonal": "40e753cf861d733d39d28a06970e645304e348c2c0c21d1bae7b92ab6f3b9ddc",
    "eye4_q16_p1_identity": "2d69c2e898cb7efa875209ab8833f1d5eeeff301e9560bbbdafc417f69522a2f",
    "eye4_q16_p1_diagonal": "e2d9607007d3653d27ee22d61037774caa042ebb771e6a8c786555bcc7a8ae04",
    "eye4_q16_p32_identity": "eaa593593a9d2ca2252206572951ed2d57b16e0acc1e23f47aee11c696bb7507",
    "eye4_q16_p32_diagonal": "24293116c0f038b441f5b12157794850a14b7a3cf3e81205939696cfe46f6bb8",
    "zero_col_q4_p4_noiseless": "02a0141899a4189178504f7a2b480b7f206698771e9a84a4f2b1b2461e46e7fd",
    "zero_col_q4_p4_noisy": "7cd982cd18eb838d7c86c465b2f383d0f8f9dc8748dfe21ea3e6289bb3b536a9",
    "zero_col_q16_p32_noiseless": "83c86440ae30196fa09c0b8ea10fad9967a9c108bb3352c2c709f55e62b416ee",
    "zero_col_q16_p32_noisy": "4e81681801abaacc2da665cc630149afcf2fb4d2b401fdcdab81ebc584e5d1c3",
    "crafted_llrs_clip20.0": "5f09cbd3b7adf4c9ed9e93e0981c60422553b9ed60192133fa85b97f471ec2cb",
    "crafted_best": "fb85fc7ba0394ab01ff57f73546eb4f0828eafa4f4a78abce13a155e2eda720f",
    "nonfinite_n4_q16_p32": "bf084807158ce4590aa83276e9d9952ca59a68d8fa7f41933ef2a9f614b6718d",
    "nonfinite_n3_q16_p6": "ff080f37f21f466c48df99c256507f1eb2871c20b7b03fde9632d1b3b8e695bd",
    "nonfinite_n4_q4_p8": "fea0bd7ca01fcfff99577266e5294fc4f36cd8f10be0a4f474b490f196a23434",
    "nonfinite_n8_q16_p32": "434388be45941ad04aa028ee09018476898c018ac0e67635860bb5e8669e2bbd",
}


def test_mpnl_kernels_match_golden():
    got = {name: _digest(*run()) for name, run in _mpnl_golden_cases()}
    assert got == GOLDEN_MPNL


# SHA-256 of the plan (perm, qh, r) of mpnl_plan_batch per stack case in
# _mpnl_golden_cases, taken from the sorted QR before its data movement was
# cut.  GOLDEN_MPNL sees the plan only through labels and metrics, so a
# last-bit change in r could pass it; this cannot.
GOLDEN_PLAN = {
    "n2m2_q4_p16_noisy": "fe78dd0c008c575fe1e75edbb6ecb548d69c9fc11664c957339a0da45bf1b18c",
    "n2m2_q4_p16_noiseless": "fe78dd0c008c575fe1e75edbb6ecb548d69c9fc11664c957339a0da45bf1b18c",
    "n2m2_q4_p16_rownv": "fe78dd0c008c575fe1e75edbb6ecb548d69c9fc11664c957339a0da45bf1b18c",
    "n2m2_q64_p1_noisy": "086ccd2c17f63a5e0044aeb37a4e4506025d735de119d133f6e543616aea12d4",
    "n2m2_q64_p1_noiseless": "086ccd2c17f63a5e0044aeb37a4e4506025d735de119d133f6e543616aea12d4",
    "n2m2_q64_p1_rownv": "086ccd2c17f63a5e0044aeb37a4e4506025d735de119d133f6e543616aea12d4",
    "n4m4_q16_p32_noisy": "b58126245fefa3918dbd8472878136332118f6d6dce1061f637eec4f74dd6986",
    "n4m4_q16_p32_noiseless": "b58126245fefa3918dbd8472878136332118f6d6dce1061f637eec4f74dd6986",
    "n4m4_q16_p32_rownv": "b58126245fefa3918dbd8472878136332118f6d6dce1061f637eec4f74dd6986",
    "n4m2_q4_p32_noisy": "3d1904ed6254f64e4f6fd46d5006696ee2324ef3ce97f444fa3a8aebd596be71",
    "n4m2_q4_p32_noiseless": "163e6a680d7feafca92c5bda2043630e97fc4a7f5ea822898e422baaa8520bcf",
    "n4m2_q4_p32_rownv": "3d1904ed6254f64e4f6fd46d5006696ee2324ef3ce97f444fa3a8aebd596be71",
    "n4m4_q64_p128_noisy": "ffe2ac031d4758f473b60c1c18baee4f57045a0b42446b40b34f86af6e196b99",
    "n4m4_q64_p128_noiseless": "ffe2ac031d4758f473b60c1c18baee4f57045a0b42446b40b34f86af6e196b99",
    "n4m4_q64_p128_rownv": "ffe2ac031d4758f473b60c1c18baee4f57045a0b42446b40b34f86af6e196b99",
    "n8m8_q16_p32_noisy": "034062bd2f2988da6e34a915230748b88fc2c4501b9701cdc000647204ffc019",
    "n8m8_q16_p32_noiseless": "034062bd2f2988da6e34a915230748b88fc2c4501b9701cdc000647204ffc019",
    "n8m8_q16_p32_rownv": "034062bd2f2988da6e34a915230748b88fc2c4501b9701cdc000647204ffc019",
    "n8m8_q4_p1_noisy": "9a8748ce18f4659db1fa0bfdccc0cbedd00594285a21e6bca935ab56beb691eb",
    "n8m8_q4_p1_noiseless": "9a8748ce18f4659db1fa0bfdccc0cbedd00594285a21e6bca935ab56beb691eb",
    "n8m8_q4_p1_rownv": "9a8748ce18f4659db1fa0bfdccc0cbedd00594285a21e6bca935ab56beb691eb",
    "n8m8_q64_p8_noisy": "cf04ccf30aa3b1c1f5bc68cde5d824770b36e992bd366f73ea84a828729ee124",
    "n8m8_q64_p8_noiseless": "cf04ccf30aa3b1c1f5bc68cde5d824770b36e992bd366f73ea84a828729ee124",
    "n8m8_q64_p8_rownv": "cf04ccf30aa3b1c1f5bc68cde5d824770b36e992bd366f73ea84a828729ee124",
    "eye4_q4_p1_identity": "0f89ada489f1be4e9662b331a0c888d1a79ad380e6236a3e800a3c45a10b8c7c",
    "eye4_q4_p1_diagonal": "d9755fea75e5a099a7a9197a1ae2b784a1dad3420c37dedb13feb48f497b13b9",
    "eye4_q4_p8_identity": "0f89ada489f1be4e9662b331a0c888d1a79ad380e6236a3e800a3c45a10b8c7c",
    "eye4_q4_p8_diagonal": "d9755fea75e5a099a7a9197a1ae2b784a1dad3420c37dedb13feb48f497b13b9",
    "eye4_q16_p1_identity": "0f89ada489f1be4e9662b331a0c888d1a79ad380e6236a3e800a3c45a10b8c7c",
    "eye4_q16_p1_diagonal": "d9755fea75e5a099a7a9197a1ae2b784a1dad3420c37dedb13feb48f497b13b9",
    "eye4_q16_p32_identity": "0f89ada489f1be4e9662b331a0c888d1a79ad380e6236a3e800a3c45a10b8c7c",
    "eye4_q16_p32_diagonal": "d9755fea75e5a099a7a9197a1ae2b784a1dad3420c37dedb13feb48f497b13b9",
    "zero_col_q4_p4_noiseless": "9d56d8428bc74d485cb0c06c24d047675fb35c8fa6f4e5ee1290f08fa7727f20",
    "zero_col_q4_p4_noisy": "9d56d8428bc74d485cb0c06c24d047675fb35c8fa6f4e5ee1290f08fa7727f20",
    "zero_col_q16_p32_noiseless": "a44c429e2451ad7df7148cdc232f81af48421f2cc4370d6fd7cdf8cacf2c9b37",
    "zero_col_q16_p32_noisy": "a44c429e2451ad7df7148cdc232f81af48421f2cc4370d6fd7cdf8cacf2c9b37",
    "nonfinite_n4_q16_p32": "039e039d1ed40a60d6eeefdf923dd2fdfae5894f5d0dcc4401ce0c4923215eab",
    "nonfinite_n3_q16_p6": "94cd5c575911a92b661e751fb12ce06156ca6231f70887d9495351a8c65b5a77",
    "nonfinite_n4_q4_p8": "03b46e4be0fb5520f4b1a00e9b57842ceb4ff7e29e112909e6e42f1b5be02eb8",
    "nonfinite_n8_q16_p32": "d63b92d6e38bcb6dc32adcc70151ae17cc7a99cf8757da91be3410514cbe0654",
}


def test_mpnl_plan_matches_golden():
    got = {}
    for name, run in _mpnl_golden_cases():
        if hasattr(run, "plan"):
            plan = run.plan()
            got[name] = _digest(plan.perm, plan.qh, plan.r)
    assert got == GOLDEN_PLAN


def test_kernels_bit_identical_across_batch_splits():
    """The kernels work RE by RE: on a 672-RE TDL stack, the MPNL plan,
    search and LLRs and MMSE give the bytes of the concatenated runs over
    the stack's splits at REs 1, 250 and 671."""
    c = QAM16
    grids, nvs = search.FixtureConfig(channels_per_group=1,
                                      n_subcarriers=48).channels(8, 8)
    h, nv = grids[0].h.reshape(-1, 8, 8), nvs[0]
    rng = np.random.default_rng(181)
    x = c.points[rng.integers(0, c.order, (672, 8))]
    y = np.einsum("bmn,bn->bm", h, x) + np.sqrt(nv / 2) * (
        rng.standard_normal((672, 8)) + 1j * rng.standard_normal((672, 8)))

    def run(rows):
        plan = det.mpnl_plan_batch(h[rows], nv, 32, c)
        labels, metrics, best = det.mpnl_detect_batch(plan, h[rows],
                                                      y[rows], c)
        llrs = det._candidate_llrs_batch(labels, metrics, nv, c)
        return (plan.perm, plan.qh, plan.r, labels, metrics, best, llrs,
                *det.linear_detect_batch(h[rows], y[rows], nv, c, "mmse"))

    cuts = (0, 1, 250, 671, 672)
    parts = [run(slice(a, b)) for a, b in zip(cuts, cuts[1:])]
    for got, *pieces in zip(run(slice(None)), *parts):
        want = np.concatenate(pieces)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def _observed_stack(rng, b, m, n, c):
    """A (B, M, N) Rayleigh stack, its (B, M) observations at 10 dB and
    the noise variance."""
    h, nv = _stack(rng, b, m, n), n / 10.0
    y = np.einsum("bmn,bn->bm", h, c.points[rng.integers(0, c.order, (b, n))])
    return h, y + np.sqrt(nv) * _stack(rng, b, m, 1)[..., 0], nv


def _record_rows(monkeypatch, kernel):
    """Wrap detect's list kernel `kernel`; returns the list that gets the
    row count of every call."""
    rows = []
    search = getattr(det, kernel)
    monkeypatch.setattr(det, kernel, lambda *a: rows.append(len(a[-2]))
                        or search(*a))
    return rows


def _direct(kernel, plan, h, y, nv, c):
    """List kernel `kernel` called directly on the stack: its (labels,
    metrics, best), and the candidate LLRs of those lists at noise
    variance nv."""
    args = (h, y, c) if kernel == "ml_detect_batch" else (plan, h, y, c)
    labels, metrics, best = getattr(det, kernel)(*args)
    return (labels, metrics, best,
            det._candidate_llrs_batch(labels, metrics, nv, c))


def _check_row_blocks(rows, b, n_cands):
    """rows are the row blocks of a b-row stack: no block holds more than
    SEARCH_BLOCK candidates unless it is one row, they cover the stack in
    the fewest such blocks, and their sizes differ by at most one row."""
    assert sum(rows) == b
    assert all(r * n_cands <= det.SEARCH_BLOCK or r == 1 for r in rows)
    assert len(rows) == -(-b // max(1, det.SEARCH_BLOCK // n_cands))
    assert max(rows) - min(rows) <= 1


@pytest.mark.parametrize("name, kernel", [("ml", "ml_detect_batch"),
                                          ("mpnl", "mpnl_detect_batch")])
def test_list_row_blocks_change_no_output(monkeypatch, name, kernel):
    """A list detector's hard and llrs entries give the same bytes in one
    kernel call each and in the fewest even row blocks of at most
    SEARCH_BLOCK candidates (16-QAM, N = 2: 256 ML candidates and 32 MPNL
    paths per RE): 10 REs in blocks of at most 3 rows run as 2, 3, 2 and
    3 rows, and a block smaller than one RE's candidates takes one RE.
    So do the kernel and the candidate LLRs called directly, at a scalar
    and a per-row noise variance, each a single call of the kernel's
    module global however many blocks it runs."""
    c = QAM16
    n_cands = 256 if name == "ml" else 32
    rng = np.random.default_rng(185)
    h, y, nv = _observed_stack(rng, 10, 3, 2, c)
    nvs = nv * rng.uniform(0.5, 2.0, 10)
    d = det.DETECTORS[name]
    plan = d.plan(h, nv, c, 32)
    rows = _record_rows(monkeypatch, kernel)
    whole = _both(d, plan, h, y, nv, c)
    assert rows == [10, 10]
    direct = [_direct(kernel, plan, h, y, v, c) for v in (nv, nvs)]
    for block_rows, calls in ((3, [2, 3, 2, 3]), (4, [3, 3, 4]),
                              (5, [5, 5]), (10, [10]), (0.5, [1] * 10)):
        monkeypatch.setattr(det, "SEARCH_BLOCK", int(block_rows * n_cands))
        rows.clear()
        for got, want in zip(_both(d, plan, h, y, nv, c), whole):
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()
        assert rows == calls * 2
        _check_row_blocks(calls, 10, n_cands)
        for v, outs in zip((nv, nvs), direct):
            for got, want in zip(_direct(kernel, plan, h, y, v, c), outs):
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes()
        assert rows == calls * 2 + [10, 10]


@pytest.mark.parametrize("b, calls", [(288, [288]), (600, [300, 300]),
                                      (1025, [341, 342, 342])])
def test_mpnl_row_blocks_at_the_shipped_block(monkeypatch, b, calls):
    """At SEARCH_BLOCK, 32-path MPNL (QPSK, N = M = 4) runs a 288-RE genie
    stack in one call, a 600-RE LS stack in two 300-RE calls and 1025 REs
    in three, and each entry gives the bytes of one call on the whole
    stack.  So do mpnl_detect_batch, ml_detect_batch (256 candidates per
    RE) and their candidate LLRs called directly, each one call of the
    kernel's module global."""
    h, y, nv = _observed_stack(np.random.default_rng(184), b, 4, 4, QPSK)
    d = det.DETECTORS["mpnl"]
    plan = d.plan(h, nv, QPSK, 32)
    rows = _record_rows(monkeypatch, "mpnl_detect_batch")
    blocked = _both(d, plan, h, y, nv, QPSK)
    assert rows == calls * 2
    _check_row_blocks(calls, b, 32)
    kernels = ("mpnl_detect_batch", "ml_detect_batch")
    direct = [_direct(k, plan, h, y, nv, QPSK) for k in kernels]
    assert rows == calls * 2 + [b]
    monkeypatch.setattr(det, "SEARCH_BLOCK", b * 256)
    for got, want in zip(blocked, _both(d, plan, h, y, nv, QPSK)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    for k, outs in zip(kernels, direct):
        for got, want in zip(outs, _direct(k, plan, h, y, nv, QPSK)):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("name", sorted(det.DETECTORS))
def test_detectors_on_a_stack_of_no_rows(name):
    """Every DETECTORS row plans and applies a zero-row stack, with a
    scalar or a per-row (empty) noise variance: (0, N) int64 hard labels
    and (0, N, bps) float64 LLRs."""
    h, y = np.zeros((0, 3, 2), dtype=complex), np.zeros((0, 3), dtype=complex)
    d = det.DETECTORS[name]
    for nv in (0.1, np.zeros(0)):
        hard, llrs = _both(d, d.plan(h, nv, QAM16, 32), h, y, nv, QAM16)
        assert hard.shape == (0, 2) and hard.dtype == np.int64
        assert llrs.shape == (0, 2, QAM16.bits_per_symbol)
        assert llrs.dtype == np.float64


@pytest.mark.parametrize("name, m", [("zf", 3), ("mmse", 3), ("ml", 3),
                                     ("mpnl", 3), ("mpnl", 1)],
                         ids=["zf", "mmse", "ml", "mpnl", "mpnl-overloaded"])
def test_detectors_row_independent_under_per_row_noise_variance(
        monkeypatch, name, m):
    """plan, hard and llrs on a 10-RE stack with one noise variance per RE
    give the bytes of the per-RE calls with that RE's scalar variance,
    also when the list detectors run in row blocks of at most 3 (16-QAM,
    N = 2: 256 ML candidates and 32 MPNL paths per RE)."""
    c = QAM16
    rng = np.random.default_rng(187)
    h, y, nv = _observed_stack(rng, 10, m, 2, c)
    nvs = nv * rng.uniform(0.5, 2.0, 10)
    d = det.DETECTORS[name]
    monkeypatch.setattr(det, "SEARCH_BLOCK", 3 * (256 if name == "ml" else 32))
    listed = name in ("ml", "mpnl")
    if listed:
        calls = _record_rows(monkeypatch, f"{name}_detect_batch")
    whole = _both(d, d.plan(h, nvs, c, 32), h, y, nvs, c)
    if listed:
        assert calls == [2, 3, 2, 3] * 2
    rows = [_both(d, d.plan(h[i:i + 1], nvs[i], c, 32), h[i:i + 1],
                    y[i:i + 1], nvs[i], c) for i in range(10)]
    for got, *pieces in zip(whole, *rows):
        want = np.concatenate(pieces)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("name, n_paths, b", [("ml", 32, 16),
                                              ("mpnl", 1 << 16, 8)])
def test_list_apply_memory_stays_within_row_blocks(name, n_paths, b):
    """At N = M = 8 QPSK, ML and a 65536-path MPNL score 2^16 candidates
    per RE, about 30 MB of working arrays each.  Each entry on B REs
    equals its per-RE calls, and its traced peak stays under 64 MB, where
    one call on the whole stack peaks near 270 (ML) and 200 MB (MPNL)."""
    h, y, nv = _observed_stack(np.random.default_rng(186), b, 8, 8, QPSK)
    d = det.DETECTORS[name]
    plan = d.plan(h, nv, QPSK, n_paths)
    tracemalloc.start()
    try:
        got = _both(d, plan, h, y, nv, QPSK)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
    rows = [slice(i, i + 1) for i in range(b)]
    for got_part, *pieces in zip(got, *(
            _both(d, d.plan(h[s], nv, QPSK, n_paths), h[s], y[s], nv, QPSK)
            for s in rows)):
        assert got_part.tobytes() == np.concatenate(pieces).tobytes()


def _traced(call):
    """call()'s traced peak and the traced bytes still held after it, the
    result's own included."""
    tracemalloc.start()
    try:
        out = call()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del out
    return peak, kept


@pytest.mark.parametrize("kernel, per_row", [
    ("demap_llr", 4), ("ml_detect_batch", 256), ("mpnl_detect_batch", 32),
    ("_candidate_llrs_batch", 32)])
def test_kernel_memory_stays_within_row_blocks(kernel, per_row):
    """Called directly on a stack of 8 SEARCH_BLOCK row blocks (QPSK,
    N = M = 4: 4 points per demapped symbol, 256 ML candidates and 32
    MPNL paths per RE), a kernel's traced peak above what it returns stays
    under twice its peak on one block; scoring the whole stack at once
    peaks near 8 times that."""
    rows = det.SEARCH_BLOCK // per_row
    rng = np.random.default_rng(188)
    h, y, nv = _observed_stack(rng, 8 * rows, 4, 4, QPSK)
    plan = det.mpnl_plan_batch(h, nv, 32, QPSK)
    labels, metrics, _ = det.mpnl_detect_batch(plan, h, y, QPSK)
    calls = {
        "demap_llr": lambda s: demap_llr(y[s, 0], nv, QPSK),
        "ml_detect_batch": lambda s: det.ml_detect_batch(h[s], y[s], QPSK),
        "mpnl_detect_batch": lambda s: det.mpnl_detect_batch(
            plan[s], h[s], y[s], QPSK),
        "_candidate_llrs_batch": lambda s: det._candidate_llrs_batch(
            labels[s], metrics[s], nv, QPSK),
    }
    call = calls[kernel]
    one, _ = _traced(lambda: call(slice(0, rows)))
    peak, kept = _traced(lambda: call(slice(None)))
    assert peak - kept < 2 * one


def _table_golden_cases():
    """(name, thunk) pairs over QPSK N x M 1x1, 2x2, 3x2, 4x4 and 8x8,
    16-QAM 2x2, 3x4 and 4x3 and 64-QAM 2x2: ml_detect_batch's (labels,
    metrics, best) and each DETECTORS row's (hard, LLRs), read through its
    hard and llrs entries, MPNL at 32 paths.  Every stack holds a zero channel, a zero column, an identity
    channel and a y = 0 row, whose metrics tie.  ZF runs on the rows from
    the identity channel on, and gives its error message where M < N."""
    rng = np.random.default_rng(187)
    for c, n, m in ((QPSK, 1, 1), (QPSK, 2, 2), (QPSK, 3, 2), (QPSK, 4, 4),
                    (QPSK, 8, 8), (QAM16, 2, 2), (QAM16, 3, 4),
                    (QAM16, 4, 3), (QAM64, 2, 2)):
        h, y, nv = _observed_stack(rng, 12, m, n, c)
        h[0] = 0
        h[1, :, -1] = 0
        h[2] = np.eye(m, n)
        y[3] = 0
        tag = f"q{c.order}_n{n}m{m}"
        yield f"{tag}_ml_kernel", lambda h=h, y=y, c=c: det.ml_detect_batch(
            h, y, c)
        for name, d in det.DETECTORS.items():
            def both(d=d, s=slice(2 if name == "zf" else 0, None), h=h,
                     y=y, nv=nv, c=c):
                try:
                    return _both(d, d.plan(h[s], nv, c, 32), h[s], y[s], nv, c)
                except det.SingularChannelError as e:
                    return (str(e),)
            yield f"{tag}_{name}", both


# SHA-256 of each _table_golden_cases output, taken before ML and MPNL
# shared one path metric, the linear LLRs were scaled inside the demapper
# and each row's apply was split into hard and llrs; all three must leave
# every byte as it was.
GOLDEN_TABLE = {
    "q4_n1m1_ml_kernel": "7974f2ea32b306e459043c6774b387408be11e5bda87a764686905a51c17ec29",
    "q4_n1m1_zf": "8c22b25d987992e103d147eccd7bb070d5ba8843bfd52f97910cb5a9d4bad89e",
    "q4_n1m1_mmse": "c4b2cf9891a3812656e1a40918db49a08663ba6c156c667a4176186baed2a252",
    "q4_n1m1_ml": "79ae7b0103c5ad3b8532388d10d78172ed1beb6ee7cdacbe965b9d99ec681c45",
    "q4_n1m1_mpnl": "79ae7b0103c5ad3b8532388d10d78172ed1beb6ee7cdacbe965b9d99ec681c45",
    "q4_n2m2_ml_kernel": "f1155188fe0319d1b8dece523083514e25ed60ae3b3998e1b5d2c7111cc0dcba",
    "q4_n2m2_zf": "8e9c6033d35d0ed77f08668e56c99fa40bc931626b1b005f51cda8b18960a991",
    "q4_n2m2_mmse": "216e332d2179a33dfddcbe6c7669ea8295cbe30d884c28a213edd0020c7afc24",
    "q4_n2m2_ml": "c8186e67bf0fe0a840c0576f82615845482fdeb74a2c6a9fc74f4eb3f9b43d29",
    "q4_n2m2_mpnl": "c8186e67bf0fe0a840c0576f82615845482fdeb74a2c6a9fc74f4eb3f9b43d29",
    "q4_n3m2_ml_kernel": "27484386efa651faac6cdd713dd4d23f178d0d704ac8684467525b62454e7b40",
    "q4_n3m2_zf": "dc7ac06d05b9d1b58c7b664f4eec01821e6872632c7b5aebb525106f395ac046",
    "q4_n3m2_mmse": "306fb510bc95018e9686e99b069373553fe98c5b40dd340a5df0742011221684",
    "q4_n3m2_ml": "f01aa57377f8e99cd7839faec3ddf2f0e7a24d37c17d3b337b495c9ed13223d6",
    "q4_n3m2_mpnl": "327e0bb95f05f939a0319569f123ba08fbfcaca363997666a55cb7a3a9224eaa",
    "q4_n4m4_ml_kernel": "f2be1a4dec23d055965bb213cc6388c9f1ccc843f661ef05f951b6fcf831d229",
    "q4_n4m4_zf": "dcfd2c422d35e7432e9d6d611dadd11e0cfea4dbe12f8e30e020a6394265051f",
    "q4_n4m4_mmse": "412b2d754ef4b6facbebe59badfc72790ec8e8a5d6a47b10e1c5e9629a46cce1",
    "q4_n4m4_ml": "27898e4ebaa3d445e18532774859730327a5e54afddf255ad365f987ee0c6a8e",
    "q4_n4m4_mpnl": "95852f66eb2de62536114844a051a838e5249268d97f2777bcd8f8a2942d2980",
    "q4_n8m8_ml_kernel": "fcb649f00d5f357930c351c47ec7e9c31f98ed30a70f026eaff728e5d2c52083",
    "q4_n8m8_zf": "34903eb812d646db799941eb66bbc829150feb79d6e5a95d014957b8befe588e",
    "q4_n8m8_mmse": "f7489b609f44adcac50a60fcfd13b04eeb8fc8f3bdf95e7b5f0e927e5eb97582",
    "q4_n8m8_ml": "a19232be60c4644c6100d54190744462a994c6d3d24980ace7a21d8be162fe0b",
    "q4_n8m8_mpnl": "a615c79bd41bfbd7c11fad8cdcc796428f05265482a115664e673d528ec062b9",
    "q16_n2m2_ml_kernel": "ba6029f8f9c50b9144ba7558f927d94ede708026fb7329df4bd3200e625864a9",
    "q16_n2m2_zf": "5fec0b6c8c25a1199db1a812cf6398a0e526d36a871b7891c5d7d956f0a787f0",
    "q16_n2m2_mmse": "568da3d161828f228cb7f1d84b5bf1da4449f80d98b0f15933cd5121cddf3799",
    "q16_n2m2_ml": "fe2df5e32e8c197c8ba36286afa63a063aa872010715e5f85fe99279174e9e69",
    "q16_n2m2_mpnl": "65d1b92e392a079279d3b6340cbbd86a451b59d26943b3e2c17e7b440fad16cf",
    "q16_n3m4_ml_kernel": "f592c8c849e22ce6c177ba0e085034fd204ffe1525148d04e06295dd3c1ac298",
    "q16_n3m4_zf": "4b5ee5e0a61ff893111f2d3a953e84092e05755ec977f7a639ae5011eb9efdbc",
    "q16_n3m4_mmse": "a6b22b6a8255069df7c79e64d19a7b3d0df74969933b2f14076c02459ca47c7b",
    "q16_n3m4_ml": "dc98737862024eda37dee7b60b4a4ad6a05c894e88d755a75bc414822343e449",
    "q16_n3m4_mpnl": "478f29d8b2f88a1ffe47483ea91fcef91d0baa39b7feae20a279b1d1dbb3a6dc",
    "q16_n4m3_ml_kernel": "cfa267e8f98de73520aa929f8f6c81f58ef7fb8de61b9607db645f367048d1b2",
    "q16_n4m3_zf": "dc7ac06d05b9d1b58c7b664f4eec01821e6872632c7b5aebb525106f395ac046",
    "q16_n4m3_mmse": "3a036abde391a2ec389810198ebe53a795c1937cd89723c2bcbbe8c53a028e47",
    "q16_n4m3_ml": "705d8198c5311ad5fd479fca1204d931a78e5affff728b4bd2085259f28aed64",
    "q16_n4m3_mpnl": "441520e77afffabacacbca9b785d2887da747bf320586ed8f781e17a5f848691",
    "q64_n2m2_ml_kernel": "23c4776ff9f2f9e6d4e0196f45500c73a1f4ca0f089fa79c554b0bfd23ab6c24",
    "q64_n2m2_zf": "daa49172b050aedf0c50b39fc589f710490379c0164dadaf24de16a13b13542f",
    "q64_n2m2_mmse": "35983ed889a8f49789e3b69aef54d818690cab995f47cda92a3048a0b21f1415",
    "q64_n2m2_ml": "3e0a48ca63f6c2ccbcf28b261848a2ae32bd4f141d7f60bbcaa31667ed8313ea",
    "q64_n2m2_mpnl": "922f6952e956c5ee654c3e51c6ec6f17a1a23c52b4e727b1a50e3404d5f6356b",
}


def test_detector_table_matches_golden():
    got = {name: _digest(*run()) for name, run in _table_golden_cases()}
    assert got == GOLDEN_TABLE


def test_closest_matches_stable_sort():
    """_closest keeps the first e of a stable sort for every e, on both of
    its paths: distances from few values tie on most rows, and rows with
    only 0-6 finite entries reach an inf or NaN after finite picks."""
    rng = np.random.default_rng(171)
    for q in (4, 16, 64):
        d = rng.integers(0, 5, (q, 90, 3)).astype(float)
        # rows 0-59 keep row % 7 finite entries at random places; the rest
        # are inf (rows 0-29) or NaN (rows 30-59); rows 60-89 mix all three
        rest = np.arange(q)[:, None, None] >= np.arange(60)[:, None] % 7
        rest = rng.permuted(np.broadcast_to(rest, (q, 60, 3)), axis=0)
        d[:, :30][rest[:, :30]] = np.inf
        d[:, 30:60][rest[:, 30:]] = np.nan
        d[:, 60:][rng.random((q, 30, 3)) < 0.3] = np.inf
        d[:, 75:][rng.random((q, 15, 3)) < 0.3] = np.nan
        for e in range(2, q + 1):
            want = np.moveaxis(np.argsort(d, axis=0, kind="stable")[:e], 0, -1)
            assert np.array_equal(det._closest(d, e), want)


def test_select_best_matches_lexsort():
    """The best path is the (metric, labels) lexicographic minimum: metrics
    drawn from few values tie two or more paths on most rows."""
    rng = np.random.default_rng(161)
    labels = rng.integers(0, 4, (400, 6, 3))
    metrics = rng.integers(0, 6, (400, 6)).astype(float)
    metrics[::7, 2] = np.inf
    metrics[::11] = np.inf
    metrics[::13, 4] = np.nan
    keys = [labels[:, :, j] for j in range(2, -1, -1)] + [metrics]
    want = np.lexsort(tuple(keys), axis=1)[:, 0]
    assert np.array_equal(det._select_best(labels, metrics), want)


def _reference_tree(z, r, expansions, points):
    """Per-path Schnorr-Euchner expansion, one stable sort per node: the
    list of (labels, interference) partial paths grows top layer first;
    each node keeps its expansions[pos] closest children in order."""
    n = z.size
    paths = [(np.zeros(n, dtype=np.int64), np.zeros(n, dtype=complex))]
    for pos in range(n - 1, -1, -1):
        grown = []
        for labels, acc in paths:
            center = (z[pos:pos + 1] - acc[pos:pos + 1]) / r[pos, pos:pos + 1].real
            d = np.abs(center - points) ** 2
            for k in np.argsort(d, kind="stable")[:expansions[pos]]:
                child = labels.copy()
                child[pos] = k
                grown.append((child, acc + r[:, pos] * points[k]))
        paths = grown
    return np.array([labels for labels, _ in paths])


def test_tree_labels_match_per_path_reference():
    rng = np.random.default_rng(151)
    for n, m, c, n_paths in ((2, 2, QPSK, 1), (3, 3, QPSK, 2),
                             (3, 3, QAM16, 6), (4, 4, QPSK, 8),
                             (4, 4, QAM16, 32), (4, 3, QAM16, 32),
                             (3, 3, QAM64, 12), (5, 5, QPSK, 4),
                             (8, 8, QAM16, 32), (4, 4, QAM16, 48),
                             (3, 3, QAM64, 3), (3, 3, QAM64, 4),
                             (3, 3, QAM64, 5), (3, 3, QAM64, 256)):
        h = _stack(rng, 16, m, n)
        x = c.points[rng.integers(0, c.order, (16, n))]
        y = np.einsum("bmn,bn->bm", h, x) + 0.3 * _stack(rng, 16, m, 1)[..., 0]
        y[:4] = np.einsum("bmn,bn->bm", h[:4], x[:4])     # noiseless rows
        plan = det.mpnl_plan_batch(h, 0.1, n_paths, c)
        assert 1 in plan.expansions
        z = np.einsum("bnm,bm->bn", plan.qh, y)
        # eight more rows, on the factors of rows 4-11, whose layer
        # distances overflow to inf or are NaN
        r = np.concatenate([plan.r, plan.r[4:12]])
        bad = z[4:12].copy()
        bad[0, -1] = 1e300
        bad[1] = 1e300
        bad[2, n // 2] = np.nan
        bad[3, -1] = np.inf
        bad[4, 0] = complex(-np.inf, np.inf)
        bad[5] = 1.3e154 * np.exp(1j * np.arange(n))
        bad[6, 1] = 1e160j
        bad[7, -1] = complex(np.nan, 1.0)
        z = np.concatenate([z, bad])
        with np.errstate(all="ignore"):
            got = det._tree_labels(z, r, plan.expansions, c,
                                   np.broadcast_to(np.arange(n), (24, n)))
            for i in range(24):
                want = _reference_tree(z[i], r[i], plan.expansions, c.points)
                assert np.array_equal(got[i], want)


# ---------------------------------------------------------------------------
# list-based soft output
# ---------------------------------------------------------------------------

def test_llr_full_list_equals_exact_maxlog():
    rng = np.random.default_rng(111)
    h, y, nv, _ = rand_instance(rng, 2, 2, QPSK, 6.0)
    ml_labels, ml_metrics, _ = det.ml_detect_batch(h, y, QPSK)
    want = det._candidate_llrs_batch(ml_labels, ml_metrics, nv, QPSK)
    plan = det.mpnl_plan_batch(h, nv, 16, QPSK)
    labels, metrics, _ = det.mpnl_detect_batch(plan, h, y, QPSK)
    llrs = det._candidate_llrs_batch(labels, metrics, nv, QPSK)
    assert np.allclose(llrs, want, atol=1e-9)


def test_llr_single_candidate_saturates():
    rng = np.random.default_rng(121)
    h, y, nv, _ = rand_instance(rng, 2, 2, QPSK, 10.0)
    plan = det.mpnl_plan_batch(h, nv, 1, QPSK)
    labels, metrics, best = det.mpnl_detect_batch(plan, h, y, QPSK)
    llrs = det._candidate_llrs_batch(labels, metrics, nv, QPSK)[0]
    assert np.all(np.abs(llrs) == det.LLR_CLIP)
    bits = (llrs < 0).astype(int)
    assert np.array_equal(bits, QPSK.labels[labels[0, best[0]]])


def test_llr_signs_match_ml_when_ml_in_list():
    rng = np.random.default_rng(131)
    hits = 0
    for _ in range(100):
        h, y, nv, _ = rand_instance(rng, 2, 2, QPSK, 12.0)
        ml_labels, _, ml_best = det.ml_detect_batch(h, y, QPSK)
        ml_hard = ml_labels[0, ml_best[0]]
        plan = det.mpnl_plan_batch(h, nv, 4, QPSK)
        labels, metrics, _ = det.mpnl_detect_batch(plan, h, y, QPSK)
        in_list = any(np.array_equal(l, ml_hard) for l in labels[0])
        if not in_list:
            continue
        hits += 1
        llrs = det._candidate_llrs_batch(labels, metrics, nv, QPSK)[0]
        bits = (llrs < 0).astype(int)
        assert np.array_equal(bits, QPSK.labels[ml_hard])
    assert hits > 50


# ---------------------------------------------------------------------------
# absolute error rates against closed forms
# ---------------------------------------------------------------------------

# two-sided 99.9% normal quantile of the interval over instances
Z_INTERVAL = 3.29


def mrc_ber(gamma, branches):
    """Bit error rate of Gray QPSK (BPSK per axis) after maximal-ratio
    combining of `branches` i.i.d. Rayleigh branches at mean per-branch
    per-bit SNR `gamma` (Proakis, Digital Communications, MRC over
    Rayleigh fading)."""
    mu = math.sqrt(gamma / (1 + gamma))
    return ((1 - mu) / 2) ** branches * sum(
        math.comb(branches - 1 + k, k) * ((1 + mu) / 2) ** k
        for k in range(branches))


def rayleigh_qpsk(rng, b, m, n, snr_db):
    """b instances of Gray QPSK over i.i.d. unit-power Rayleigh: channels,
    observations, noise variance and transmitted labels."""
    h = _stack(rng, b, m, n)
    labels = rng.integers(0, 4, (b, n))
    nv = n / 10 ** (snr_db / 10)
    y = (np.einsum("bmn,bn->bm", h, QPSK.points[labels])
         + np.sqrt(nv / 2) * (rng.standard_normal((b, m))
                              + 1j * rng.standard_normal((b, m))))
    return h, y, nv, labels


def assert_ber(hard, labels, want):
    """The BER of hard labels matches `want` within the simulation's own
    interval: per-instance bit error fractions, Z_INTERVAL standard
    errors of their mean."""
    per = np.mean(QPSK.labels[hard] != QPSK.labels[labels], axis=(1, 2))
    half = Z_INTERVAL * per.std(ddof=1) / np.sqrt(per.size)
    assert abs(per.mean() - want) <= half, (
        f"BER {per.mean():.4e} +/- {half:.1e}, closed form {want:.4e}")


@pytest.mark.parametrize("n,m,snr_db,seed", [(2, 2, 20.0, 171),
                                             (4, 6, 10.0, 172)])
def test_zf_ber_matches_diversity_closed_form(n, m, snr_db, seed):
    """Each ZF stream sees M - N + 1 branch diversity at per-branch
    per-bit SNR 1 / (2 nv) (Winters, Salz & Gitlin, IEEE TCOM 1994)."""
    rng = np.random.default_rng(seed)
    h, y, nv, labels = rayleigh_qpsk(rng, 100_000, m, n, snr_db)
    hard, _ = det.linear_detect_batch(h, y, nv, QPSK, "zf")
    assert_ber(hard, labels, mrc_ber(1 / (2 * nv), m - n + 1))


def test_single_stream_detectors_agree_with_mrc():
    """At N = 1 every detector is maximal-ratio combining and slicing."""
    rng = np.random.default_rng(173)
    h, y, nv, labels = rayleigh_qpsk(rng, 100_000, 4, 1, 0.0)
    hard = {}
    for name, d in det.DETECTORS.items():
        plan = d.plan(h, nv, QPSK, 32)
        hard[name] = d.hard(plan, h, y, nv, QPSK)
    for name in hard:
        assert np.array_equal(hard[name], hard["mmse"]), name
    assert_ber(hard["mmse"], labels, mrc_ber(1 / (2 * nv), 4))


def test_zf_ber_on_tdl_fixtures_matches_jittered_closed_form():
    """Channel normalization, noise calibration and ZF together: Gray QPSK
    through ZF on TDL fixture REs at each grid's calibrated noise variance
    matches 1-branch (M - N + 1) MRC BER averaged over the region's uniform
    +/-1 dB SNR jitter.  REs of one grid share a nearly static channel, so
    the interval is over per-grid bit error fractions."""
    n, m, region = 2, 2, ch.REGION_R2
    fixtures = search.FixtureConfig(region=region, channels_per_group=600,
                                    base_seed=191, n_subcarriers=192)
    grids, nvs = fixtures.channels(n, m)
    # symbols 0 and 7, every sixth subcarrier: 64 REs per grid over 5.8 MHz
    h = np.stack([g.h[::7, ::6] for g in grids]).reshape(-1, m, n)
    nv = np.repeat(nvs, h.shape[0] // len(grids))
    rng = np.random.default_rng(192)
    b = h.shape[0]
    labels = rng.integers(0, 4, (b, n))
    y = (np.einsum("bmn,bn->bm", h, QPSK.points[labels])
         + np.sqrt(nv / 2)[:, None] * (rng.standard_normal((b, m))
                                       + 1j * rng.standard_normal((b, m))))
    hard, _ = det.linear_detect_batch(h, y, nv, QPSK, "zf")
    # midpoint rule over the jitter; per-bit SNR 1 / (2 nv), nv = N / snr
    snr_db = region.target_snr_db + region.jitter_db * (
        (np.arange(1000) + 0.5) / 500 - 1)
    want = np.mean([mrc_ber(10 ** (s / 10) / (2 * n), m - n + 1)
                    for s in snr_db])
    assert_ber(hard.reshape(len(grids), -1), labels.reshape(len(grids), -1),
               want)
