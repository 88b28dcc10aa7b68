import hashlib

import numpy as np
import pytest

from mpnlsim import detect as det
from mpnlsim.core import QAM16, QAM64, QPSK, constellation_for, demap_llr


def rand_channel(rng, m, n):
    return (rng.standard_normal((m, n))
            + 1j * rng.standard_normal((m, n))) / np.sqrt(2)


def rand_instance(rng, m, n, c, snr_db):
    h = rand_channel(rng, m, n)
    labels = rng.integers(0, c.order, n)
    x = c.points[labels]
    nv = n / 10 ** (snr_db / 10)
    noise = np.sqrt(nv / 2) * (rng.standard_normal(m)
                               + 1j * rng.standard_normal(m))
    return det.DetectorInput(h=h, y=h @ x + noise, noise_var=nv,
                             constellation=c), labels


# ---------------------------------------------------------------------------
# linear detectors
# ---------------------------------------------------------------------------

def test_zf_identity_channel():
    y = QPSK.points[[0, 3]]
    inp = det.DetectorInput(h=np.eye(2), y=y, noise_var=0.01,
                            constellation=QPSK)
    assert np.array_equal(det.zf_detect(inp).hard_labels, [0, 3])


def test_zf_scaling_invariance():
    s = QPSK.points[[2, 1]]
    inp = det.DetectorInput(h=2 * np.eye(2), y=2 * s, noise_var=0.01,
                            constellation=QPSK)
    assert np.allclose(det.zf_detect(inp).hard, s)


def test_zf_noiseless_consistency():
    rng = np.random.default_rng(11)
    for _ in range(100):
        h = rand_channel(rng, 4, 4)
        labels = rng.integers(0, 4, 4)
        inp = det.DetectorInput(h=h, y=h @ QPSK.points[labels],
                                noise_var=1e-6, constellation=QPSK)
        assert np.array_equal(det.zf_detect(inp).hard_labels, labels)


def test_zf_rejects_singular_channel():
    h = np.ones((2, 2), dtype=complex)
    inp = det.DetectorInput(h=h, y=np.ones(2), noise_var=0.1,
                            constellation=QPSK)
    with pytest.raises(det.SingularChannelError):
        det.zf_detect(inp)
    # the batched kernel rejects the same channel, and too few antennas
    stack, y = np.ones((3, 2, 2), dtype=complex), np.ones((3, 2))
    with pytest.raises(det.SingularChannelError):
        det.linear_detect_batch(stack, y, 0.1, QPSK, "zf")
    with pytest.raises(det.SingularChannelError):
        det.linear_detect_batch(stack[:, :1], y[:, :1], 0.1, QPSK, "zf")


def test_mmse_identity_closed_form():
    y = np.array([0.3 + 0.1j, -0.2 + 0.5j])
    for nv in (0.1, 1.0, 3.0):
        inp = det.DetectorInput(h=np.eye(2), y=y, noise_var=nv,
                                constellation=QPSK)
        assert np.allclose(det.mmse_detect(inp).soft, y / (1 + nv))


def test_mmse_zf_limit():
    rng = np.random.default_rng(3)
    h = rand_channel(rng, 2, 2)
    y = h @ QPSK.points[[1, 2]] + 0.01
    inp = det.DetectorInput(h=h, y=y, noise_var=1e-12, constellation=QPSK)
    assert np.array_equal(det.mmse_detect(inp).hard_labels,
                          det.zf_detect(inp).hard_labels)


def test_mmse_matches_direct_solve():
    rng = np.random.default_rng(5)
    for _ in range(100):
        h = rand_channel(rng, 4, 4)
        y = (rng.standard_normal(4) + 1j * rng.standard_normal(4))
        nv = float(rng.uniform(0.01, 2.0))
        inp = det.DetectorInput(h=h, y=y, noise_var=nv, constellation=QPSK)
        ref = np.linalg.solve(h.conj().T @ h + nv * np.eye(4), h.conj().T @ y)
        got = det.mmse_detect(inp).soft
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


# ---------------------------------------------------------------------------
# exact oracles
# ---------------------------------------------------------------------------

def test_ml_noiseless_recovers_truth():
    rng = np.random.default_rng(1)
    inp, labels = rand_instance(rng, 3, 3, QPSK, 100.0)
    assert np.array_equal(det.ml_detect(inp).hard_labels, labels)


def test_ml_single_stream_is_slicing():
    rng = np.random.default_rng(2)
    h = rand_channel(rng, 1, 1)
    y = np.array([0.4 - 0.2j])
    inp = det.DetectorInput(h=h, y=y, noise_var=0.1, constellation=QAM16)
    out = det.ml_detect(inp)
    assert out.hard_labels[0] == QAM16.nearest(y[0] / h[0, 0])


def test_ml_matches_explicit_enumeration():
    rng = np.random.default_rng(7)
    inp, _ = rand_instance(rng, 2, 2, QPSK, 10.0)
    metrics = [np.sum(np.abs(inp.y - inp.h @ QPSK.points[[i, j]]) ** 2)
               for i in range(4) for j in range(4)]
    assert det.ml_detect(inp).min_metric == pytest.approx(min(metrics),
                                                          rel=1e-12)


def test_ml_enumeration_guard():
    rng = np.random.default_rng(0)
    h = rand_channel(rng, 3, 3)
    inp = det.DetectorInput(h=h, y=np.zeros(3), noise_var=1.0,
                            constellation=constellation_for(64))
    with pytest.raises(ValueError, match="guard"):
        det.ml_detect(inp)


def test_ml_permutation_equivariance():
    rng = np.random.default_rng(13)
    inp, _ = rand_instance(rng, 4, 4, QPSK, 8.0)
    perm = rng.permutation(4)
    inp2 = det.DetectorInput(h=inp.h[:, perm], y=inp.y,
                             noise_var=inp.noise_var, constellation=QPSK)
    o1, o2 = det.ml_detect(inp), det.ml_detect(inp2)
    assert o1.min_metric == pytest.approx(o2.min_metric, rel=1e-12)
    assert np.array_equal(o1.hard_labels[perm], o2.hard_labels)


@pytest.mark.parametrize("m,n,order", [(2, 2, 4), (4, 4, 4), (3, 3, 16)])
def test_sphere_equals_ml(m, n, order):
    rng = np.random.default_rng(100 + m + order)
    c = constellation_for(order)
    for snr in (0, 10, 20):
        for _ in range(50):
            inp, _ = rand_instance(rng, m, n, c, snr)
            a, b = det.ml_detect(inp), det.sphere_detect(inp)
            assert np.array_equal(a.hard_labels, b.hard_labels)
            assert a.min_metric == b.min_metric


def test_sphere_noiseless_zero_metric():
    rng = np.random.default_rng(4)
    inp, labels = rand_instance(rng, 4, 4, QPSK, 300.0)
    inp = det.DetectorInput(h=inp.h, y=inp.h @ QPSK.points[labels],
                            noise_var=0.1, constellation=QPSK)
    out = det.sphere_detect(inp)
    assert np.array_equal(out.hard_labels, labels)
    assert out.min_metric == pytest.approx(0.0, abs=1e-20)


def test_sphere_single_layer_slices():
    h = np.array([[0.8 - 0.3j]])
    y = np.array([0.5 + 0.1j])
    inp = det.DetectorInput(h=h, y=y, noise_var=0.2, constellation=QAM16)
    assert det.sphere_detect(inp).hard_labels[0] == QAM16.nearest(y[0] / h[0, 0])


# ---------------------------------------------------------------------------
# path planning
# ---------------------------------------------------------------------------

def test_allocation_full_tree():
    e, r = det.allocate_expansions(3, 4, 64)
    assert r == 64 and np.all(e == 4)


def test_allocation_single_path():
    e, r = det.allocate_expansions(5, 4, 1)
    assert r == 1 and np.all(e == 1)


def test_allocation_overloaded_forcing():
    e, r = det.allocate_expansions(4, 4, 32, n_forced=2)
    assert r == 32
    assert e[3] == 4 and e[2] == 4 and e[1] * e[0] == 2
    assert np.all(np.diff(e) >= 0)      # non-increasing from top down


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
    """Every admitted input (budget >= q^forced) hashes to the digest of
    the allocator before its degraded-forcing branch was removed."""
    digest = hashlib.sha256()
    paths = list(range(1, 300)) + [512, 1000, 1024, 4096, 5000, 65536]
    for q in (4, 16, 64):
        for n_layers in range(1, 9):
            for n_forced in range(n_layers + 1):
                for n_paths in paths:
                    if n_paths < q ** min(n_forced, n_layers):
                        continue
                    e, realized = det.allocate_expansions(
                        n_layers, q, n_paths, n_forced=n_forced)
                    digest.update(e.tobytes())
                    digest.update(str(realized).encode())
    assert digest.hexdigest() == ("9f91bd3980c1560ce8db81788045d597"
                                  "0906122eb8ebaaedfd5addb621a15ace")


def test_plan_invariants():
    rng = np.random.default_rng(21)
    h = rand_channel(rng, 4, 4)
    plan = det.mpnl_preprocess(h, 0.1, 32, QPSK)
    r = plan.r_factor
    assert np.allclose(np.tril(r, -1), 0)
    assert np.all(np.diag(r).real > 0)
    assert np.all(np.abs(np.diag(r).imag) < 1e-12)
    assert np.prod(plan.expansions) == plan.n_paths == 32
    assert sorted(plan.ordering) == list(range(4))
    # weaker layers sit at the top (first detected, most expanded)
    diag = np.diag(r).real
    assert diag[0] == max(diag)


def test_plan_reconstructs_channel():
    rng = np.random.default_rng(22)
    h = rand_channel(rng, 6, 4)
    plan = det.mpnl_preprocess(h, 0.1, 16, QPSK)
    hp = h[:, plan.ordering]
    assert np.allclose(plan.q_factor @ plan.r_factor, hp, atol=1e-10)


def test_plan_rejects_budget_below_forced():
    rng = np.random.default_rng(23)
    h = rand_channel(rng, 1, 3)
    with pytest.raises(ValueError, match="rank-deficient"):
        det.mpnl_preprocess(h, 0.1, 8, QPSK)


# ---------------------------------------------------------------------------
# parallel-path detection
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [2, 4])
def test_mpnl_full_enumeration_equals_ml(n):
    rng = np.random.default_rng(31 + n)
    for _ in range(100):
        inp, _ = rand_instance(rng, n, n, QPSK, 10.0)
        plan = det.mpnl_preprocess(inp.h, inp.noise_var, 4 ** n, QPSK)
        _, out = det.mpnl_detect(plan, inp)
        ref = det.ml_detect(inp)
        assert np.array_equal(out.hard_labels, ref.hard_labels)
        assert out.min_metric == ref.min_metric


def test_mpnl_single_path_equals_sic():
    rng = np.random.default_rng(41)
    for _ in range(200):
        inp, _ = rand_instance(rng, 4, 4, QPSK, 12.0)
        plan = det.mpnl_preprocess(inp.h, inp.noise_var, 1, QPSK)
        _, out = det.mpnl_detect(plan, inp)
        # independent SIC along the plan's ordering via back-substitution
        hp = inp.h[:, plan.ordering]
        q, r = np.linalg.qr(hp)
        phase = np.diag(r) / np.abs(np.diag(r))
        r = (r.T * phase.conj()).T
        z = (q * phase).conj().T @ inp.y
        sic = np.zeros(4, dtype=np.int64)
        x = np.zeros(4, dtype=complex)
        for i in range(3, -1, -1):
            center = (z[i] - r[i, i + 1:] @ x[i + 1:]) / r[i, i]
            sic[i] = np.argmin(np.abs(center - QPSK.points) ** 2)
            x[i] = QPSK.points[sic[i]]
        expect = np.empty(4, dtype=np.int64)
        expect[plan.ordering] = sic
        assert np.array_equal(out.hard_labels, expect)


def test_mpnl_noiseless_any_budget():
    rng = np.random.default_rng(51)
    for npaths in (1, 2, 4, 8, 32):
        h = rand_channel(rng, 4, 4)
        labels = rng.integers(0, 4, 4)
        inp = det.DetectorInput(h=h, y=h @ QPSK.points[labels],
                                noise_var=0.01, constellation=QPSK)
        plan = det.mpnl_preprocess(h, 0.01, npaths, QPSK)
        _, out = det.mpnl_detect(plan, inp)
        assert np.array_equal(out.hard_labels, labels)


def test_mpnl_metric_dominates_ml():
    rng = np.random.default_rng(61)
    for _ in range(100):
        inp, _ = rand_instance(rng, 4, 4, QPSK, 5.0)
        plan = det.mpnl_preprocess(inp.h, inp.noise_var, 8, QPSK)
        _, out = det.mpnl_detect(plan, inp)
        assert out.min_metric >= det.ml_detect(inp).min_metric - 1e-12


def test_mpnl_candidates_nested_under_doubling():
    rng = np.random.default_rng(71)
    inp, _ = rand_instance(rng, 4, 4, QPSK, 8.0)
    prev = None
    for k in (1, 2, 4, 8, 16, 32):
        plan = det.mpnl_preprocess(inp.h, inp.noise_var, k, QPSK)
        clist, _ = det.mpnl_detect(plan, inp)
        cur = {tuple(row) for row in clist.labels}
        assert len(cur) == k            # pairwise distinct
        if prev is not None:
            assert prev <= cur
        prev = cur


def test_mpnl_candidate_metrics_consistent():
    rng = np.random.default_rng(81)
    inp, _ = rand_instance(rng, 4, 4, QAM16, 15.0)
    plan = det.mpnl_preprocess(inp.h, inp.noise_var, 16, QAM16)
    clist, out = det.mpnl_detect(plan, inp)
    for cand, metric in zip(clist.candidates, clist.metrics):
        direct = np.sum(np.abs(inp.y - inp.h @ cand) ** 2)
        assert metric == pytest.approx(direct, rel=1e-9)
    assert out.min_metric == pytest.approx(clist.metrics.min(), rel=1e-12)


def test_mpnl_fingerprint_mismatch_rejected():
    rng = np.random.default_rng(91)
    inp, _ = rand_instance(rng, 2, 2, QPSK, 10.0)
    other = rand_channel(rng, 2, 2)
    plan = det.mpnl_preprocess(other, inp.noise_var, 4, QPSK)
    with pytest.raises(ValueError, match="fingerprint"):
        det.mpnl_detect(plan, inp)


def test_mpnl_overloaded_runs():
    rng = np.random.default_rng(101)
    h = rand_channel(rng, 2, 3)
    labels = rng.integers(0, 4, 3)
    y = h @ QPSK.points[labels]
    inp = det.DetectorInput(h=h, y=y, noise_var=1e-4, constellation=QPSK)
    plan = det.mpnl_preprocess(h, 1e-4, 32, QPSK)
    assert plan.expansions[2] == 4       # rank-deficient top layer forced
    _, out = det.mpnl_detect(plan, inp)
    assert np.array_equal(out.hard_labels, labels)


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
    return run


def _quiet(run):
    """run with floating-point warnings silenced (inf and NaN inputs)."""
    def quiet():
        with np.errstate(all="ignore"):
            return run()
    return quiet


def _mpnl_golden_cases():
    """(name, thunk) pairs over N in {2, 4, 8} and QPSK/16/64-QAM: single
    path, mixed and full trees, overloaded N > M with forced layers,
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
    for clip in (det.LLR_CLIP, np.inf):
        yield f"crafted_llrs_clip{clip}", lambda clip=clip: (
            det._candidate_llrs_batch(labels, metrics, 0.5, QAM16, clip),)
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
    "crafted_llrs_clipinf": "f26c11bfc738dbe87b5e36787ca38d82775ad0b9afc0932daa61f5c4d91881e6",
    "crafted_best": "fb85fc7ba0394ab01ff57f73546eb4f0828eafa4f4a78abce13a155e2eda720f",
    "nonfinite_n4_q16_p32": "bf084807158ce4590aa83276e9d9952ca59a68d8fa7f41933ef2a9f614b6718d",
    "nonfinite_n3_q16_p6": "ff080f37f21f466c48df99c256507f1eb2871c20b7b03fde9632d1b3b8e695bd",
    "nonfinite_n4_q4_p8": "fea0bd7ca01fcfff99577266e5294fc4f36cd8f10be0a4f474b490f196a23434",
    "nonfinite_n8_q16_p32": "434388be45941ad04aa028ee09018476898c018ac0e67635860bb5e8669e2bbd",
}


def test_mpnl_kernels_match_golden():
    got = {name: _digest(*run()) for name, run in _mpnl_golden_cases()}
    assert got == GOLDEN_MPNL


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
                             (3, 3, QAM64, 12), (5, 5, QPSK, 4)):
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
            got = det._tree_labels(z, r, plan.expansions, c)
            for i in range(24):
                want = _reference_tree(z[i], r[i], plan.expansions, c.points)
                assert np.array_equal(got[i], want)


# ---------------------------------------------------------------------------
# list-based soft output
# ---------------------------------------------------------------------------

def test_llr_full_list_equals_exact_maxlog():
    rng = np.random.default_rng(111)
    inp, _ = rand_instance(rng, 2, 2, QPSK, 6.0)
    ml = det.ml_detect(inp)
    plan = det.mpnl_preprocess(inp.h, inp.noise_var, 16, QPSK)
    clist, _ = det.mpnl_detect(plan, inp)
    llrs = det.llr_from_candidates(clist, inp.noise_var, QPSK)
    assert np.allclose(llrs, ml.llrs, atol=1e-9)


def test_llr_single_candidate_saturates():
    rng = np.random.default_rng(121)
    inp, _ = rand_instance(rng, 2, 2, QPSK, 10.0)
    plan = det.mpnl_preprocess(inp.h, inp.noise_var, 1, QPSK)
    clist, out = det.mpnl_detect(plan, inp)
    llrs = det.llr_from_candidates(clist, inp.noise_var, QPSK)
    assert np.all(np.abs(llrs) == det.LLR_CLIP)
    bits = (llrs < 0).astype(int)
    assert np.array_equal(bits, QPSK.labels[out.hard_labels])


def test_llr_signs_match_ml_when_ml_in_list():
    rng = np.random.default_rng(131)
    hits = 0
    for _ in range(100):
        inp, _ = rand_instance(rng, 2, 2, QPSK, 12.0)
        ml = det.ml_detect(inp)
        plan = det.mpnl_preprocess(inp.h, inp.noise_var, 4, QPSK)
        clist, _ = det.mpnl_detect(plan, inp)
        in_list = any(np.array_equal(l, ml.hard_labels) for l in clist.labels)
        if not in_list:
            continue
        hits += 1
        llrs = det.llr_from_candidates(clist, inp.noise_var, QPSK)
        bits = (llrs < 0).astype(int)
        assert np.array_equal(bits, QPSK.labels[ml.hard_labels])
    assert hits > 50

