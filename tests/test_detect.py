import numpy as np
import pytest

from mpnlsim import detect as det
from mpnlsim.core import QAM16, QPSK, constellation_for, demap_llr


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
            assert np.array_equal(labels[i], QPSK.nearest(est))
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


def test_plan_warns_when_budget_below_forced():
    rng = np.random.default_rng(23)
    h = rand_channel(rng, 1, 3)
    with pytest.warns(UserWarning, match="rank-deficient"):
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
            sic[i] = QPSK.nearest(center)
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


def test_detect_dispatch_names():
    rng = np.random.default_rng(141)
    inp, _ = rand_instance(rng, 2, 2, QPSK, 20.0)
    outs = {name: det.detect(name, inp) for name in det.DETECTOR_NAMES}
    assert np.array_equal(outs["ml"].hard_labels, outs["sphere"].hard_labels)
    with pytest.raises(ValueError):
        det.detect("turbo", inp)
