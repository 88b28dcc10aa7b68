import numpy as np
import pytest

from mpnlsim import channel as ch
from mpnlsim import detect, fec, linksim
from mpnlsim.core import DEFAULT_NUMEROLOGY, Constellation, mcs_entry

MCS_QPSK = mcs_entry(7)      # QPSK, mid rate


def make_cfg(**kw):
    base = dict(n_streams=2, m_antennas=4, mcs=MCS_QPSK, detector="mmse",
                rb_per_vehicle=1, seed=11)
    base.update(kw)
    return linksim.LinkConfig(**base)


def make_grid(cfg, seed=0):
    """A constant, frequency-flat i.i.d. CN(0, 1) channel over the slot."""
    m, n = cfg.m_antennas, cfg.n_streams
    rng = np.random.default_rng(seed)
    h0 = (rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n)))
    h0 /= np.sqrt(2.0)
    return ch.ChannelGrid(h=np.broadcast_to(h0, (
        DEFAULT_NUMEROLOGY.symbols_per_slot, cfg.n_subcarriers, m, n)).copy())


def test_config_validation():
    with pytest.raises(ValueError):
        make_cfg(n_streams=13)
    with pytest.raises(ValueError):
        make_cfg(m_antennas=0)
    with pytest.raises(ValueError):
        make_cfg(detector="genie-aided")
    with pytest.raises(ValueError):
        make_cfg(csi="perfect")
    with pytest.raises(ValueError):
        make_cfg(rb_per_vehicle=10_000)
    # unknown detectors (the sphere oracle is not in the table) and
    # detectors with too few antennas
    with pytest.raises(ValueError, match="unknown detector 'turbo'"):
        detect.check_antenna_floor("turbo", 2, 4, 4, 32)
    with pytest.raises(ValueError, match="sphere"):
        make_cfg(detector="sphere")
    with pytest.raises(ValueError, match="'zf' needs at least 4"):
        make_cfg(detector="zf", n_streams=4, m_antennas=2)
    # MPNL serves any M, also with fewer than 4^3 paths at QPSK, N=4, M=1
    make_cfg(detector="mpnl", n_streams=4, m_antennas=1)
    # the path budget is bounded like ML's enumeration, by LIST_BLOCK
    for n_paths in (0, 65537):
        with pytest.raises(ValueError, match="n_paths must be in"):
            make_cfg(detector="mpnl", n_paths=n_paths)
    make_cfg(detector="mpnl", n_paths=65536)
    make_cfg(detector="mmse", n_streams=4, m_antennas=1)
    # exhaustive ML stops at its enumeration guard: QPSK 4^8 = 2^16
    with pytest.raises(ValueError, match="enumeration 4\\^9 exceeds guard"):
        make_cfg(detector="ml", n_streams=9, m_antennas=9)
    make_cfg(detector="ml", n_streams=8, m_antennas=8)
    # an explicit allocation must fit the mother code too
    with pytest.raises(ValueError, match="needs 1221 info bits"):
        make_cfg(mcs=mcs_entry(12), rb_per_vehicle=5)


def test_bits_per_block():
    cfg = make_cfg(rb_per_vehicle=2)
    assert cfg.n_subcarriers == 24
    # the transport block fills 24 subcarriers x 12 data symbols of QPSK
    assert cfg.rate_match.n_tx == 24 * 12 * 2


# default RB counts of MCS 0-23; MCS 24-27 fit not even one RB
RB_DEFAULTS = [2, 2, 2, 2, 3, 3, 4, 4, 3, 3, 1, 1, 1, 2, 2, 1, 1, 1, 1, 1, 1,
               1, 1, 1]


@pytest.mark.parametrize("idx", range(28))
def test_default_rb_allocation_always_rate_matchable(idx):
    mcs = mcs_entry(idx)
    if idx >= len(RB_DEFAULTS):
        with pytest.raises(ValueError, match=f"MCS {idx} does not fit"):
            linksim.default_rb_allocation(mcs)
        return
    rb = linksim.default_rb_allocation(mcs)
    assert rb == RB_DEFAULTS[idx]
    assert make_cfg(mcs=mcs, rb_per_vehicle=None).rb_per_vehicle == rb
    bits_per_rb = 12 * len(linksim.DATA_SYMBOLS) * \
        mcs.constellation.bits_per_symbol
    # every count up to the default fits; one more RB does not
    for k in range(1, rb + 1):
        fec.design_rate_match(fec.default_code(), mcs.code_rate,
                              k * bits_per_rb)
    with pytest.raises(ValueError):
        fec.design_rate_match(fec.default_code(), mcs.code_rate,
                              (rb + 1) * bits_per_rb)


def test_dmrs_combs_disjoint():
    assert sorted(linksim.DATA_SYMBOLS + linksim.DMRS_SYMBOLS) == list(
        range(DEFAULT_NUMEROLOGY.symbols_per_slot))
    sym, sc = linksim._pilots(linksim.MAX_STREAMS, 24)
    assert sc.shape == (12, 4)
    pilots = {(s, k) for s, row in zip(sym, sc) for k in row}
    assert len(pilots) == sc.size
    assert set(sym) == set(linksim.DMRS_SYMBOLS)


def test_ls_estimate_exact_on_constant_channel():
    cfg = make_cfg(n_streams=2, m_antennas=3, csi="ls_dmrs")
    rng = np.random.default_rng(5)
    h = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    n_sc = cfg.n_subcarriers
    sym, sc = linksim._pilots(2, n_sc)
    obs = np.zeros((1, DEFAULT_NUMEROLOGY.symbols_per_slot, n_sc, 3),
                   dtype=complex)
    for v in range(2):
        obs[0, sym[v], sc[v], :] += h[:, v]
    est = linksim.estimate_channel_ls(obs, cfg)
    assert est.shape == (1, n_sc, 3, 2)
    assert np.allclose(est, h[None, None], atol=1e-12)


@pytest.mark.parametrize("n", [1, 2, 5, 6, 7, 12])
@pytest.mark.parametrize("rb", [1, 3])
def test_ls_estimate_takes_nearest_pilot(n, rb):
    # random observations on every RE: each subcarrier must copy its
    # stream's nearest pilot, the lower one on a tie, on every frame
    cfg = make_cfg(n_streams=n, m_antennas=6, rb_per_vehicle=rb,
                   csi="ls_dmrs")
    n_sc, comb = cfg.n_subcarriers, linksim.DMRS_COMBS
    rng = np.random.default_rng(n * 10 + rb)
    shape = (3, DEFAULT_NUMEROLOGY.symbols_per_slot, n_sc, cfg.m_antennas)
    y = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    est = linksim.estimate_channel_ls(y, cfg)
    ref = np.empty_like(est)
    for v in range(n):
        sym = linksim.DMRS_SYMBOLS[v // comb]
        pilots = range(v % comb, n_sc, comb)
        for k in range(n_sc):
            near = min(pilots, key=lambda p: (abs(p - k), p))
            ref[:, k, :, v] = y[:, sym, near, :]
    assert np.array_equal(est, ref)
    if n >= 7:
        # stream 6 is the first on the second DMRS symbol
        assert np.array_equal(est[:, 0, :, 6],
                              y[:, linksim.DMRS_SYMBOLS[1], 0, :])
    # comb 0 has pilots at 0 and 6: subcarrier 3 ties and takes 0
    assert np.array_equal(est[:, 3, :, 0], y[:, linksim.DMRS_SYMBOLS[0], 0])


@pytest.mark.parametrize("detector", list(detect.DETECTORS))
def test_near_noiseless_all_blocks_decode(detector):
    cfg = make_cfg(detector=detector)
    grid = make_grid(cfg)
    ok = linksim.simulate_frames(cfg, grid, 1e-9, 0, range(3))
    assert ok.shape == (3, 2)
    assert ok.all()


def test_heavy_noise_all_blocks_fail():
    cfg = make_cfg()
    grid = make_grid(cfg)
    ok = linksim.simulate_frames(cfg, grid, 1e3, 0, range(3))
    assert not ok.any()


@pytest.mark.parametrize("csi", linksim.CSI_MODES)
@pytest.mark.parametrize("detector", ["mmse", "mpnl"])
def test_frames_deterministic_and_batch_invariant(csi, detector):
    cfg = make_cfg(detector=detector, csi=csi)
    grid = make_grid(cfg)
    nv = 0.4       # some blocks fail and some decode in every case
    full = linksim.simulate_frames(cfg, grid, nv, 0, range(6))
    assert 0 < full.sum() < full.size
    again = linksim.simulate_frames(cfg, grid, nv, 0, range(6))
    assert np.array_equal(full, again)
    parts = np.concatenate([
        linksim.simulate_frames(cfg, grid, nv, 0, range(0, 2)),
        linksim.simulate_frames(cfg, grid, nv, 0, range(2, 6))])
    assert np.array_equal(full, parts)


@pytest.mark.parametrize("detector, kernel, csi", [
    pytest.param(name, kernel, csi,
                 id=csi if name == "mpnl" else f"{name}-{csi}")
    for name, kernel in (("mpnl", "mpnl_plan_batch"),
                         ("mmse", "linear_plan_batch"),
                         ("zf", "linear_plan_batch"))
    for csi in linksim.CSI_MODES])
def test_one_plan_per_batch_on_its_distinct_channels(monkeypatch, detector,
                                                     kernel, csi):
    # genie CSI knows one channel per data RE, LS one per frame and
    # subcarrier; either way each planned row plans the batch once
    planned = []
    orig = getattr(detect, kernel)

    def plan(h, *args):
        planned.append(h.shape[0])
        return orig(h, *args)

    monkeypatch.setattr(detect, kernel, plan)
    cfg = make_cfg(detector=detector, csi=csi, rb_per_vehicle=2)
    n_frames = 5
    linksim.simulate_frames(cfg, make_grid(cfg), 0.1, 0, range(n_frames))
    per_sc = {"genie": len(linksim.DATA_SYMBOLS), "ls_dmrs": n_frames}[csi]
    assert planned == [per_sc * cfg.n_subcarriers]


@pytest.mark.parametrize("csi", linksim.CSI_MODES)
@pytest.mark.parametrize("detector", ["zf", "mmse"])
def test_linear_chain_slices_no_symbol(monkeypatch, detector, csi):
    # the chain decodes LLRs only, so ZF and MMSE never call the slicer;
    # MPNL's single-child tree layers still do, so it is not counted
    calls = []
    nearest = Constellation.nearest

    def counted(self, y):
        calls.append(y.shape)
        return nearest(self, y)

    monkeypatch.setattr(Constellation, "nearest", counted)
    cfg = make_cfg(detector=detector, csi=csi)
    ok = linksim.simulate_frames(cfg, make_grid(cfg), 0.1, 0, range(3))
    assert ok.shape == (3, 2) and not calls
    # the counter sees the slicer where a caller does read hard labels
    detect.linear_detect_batch(np.eye(2, dtype=complex)[None],
                               np.ones((1, 2)), 0.1, MCS_QPSK.constellation,
                               detector)
    assert calls == [(1, 2)]


def test_frames_differ_across_channel_index():
    cfg = make_cfg()
    grid = make_grid(cfg)
    nv = 0.3
    a = linksim.simulate_frames(cfg, grid, nv, 0, range(20))
    b = linksim.simulate_frames(cfg, grid, nv, 1, range(20))
    assert not np.array_equal(a, b)


def test_ls_csi_decodes_at_high_snr():
    cfg = make_cfg(csi="ls_dmrs", m_antennas=6)
    grid = make_grid(cfg)
    ok = linksim.simulate_frames(cfg, grid, 1e-4, 0, range(3))
    assert ok.all()


def test_grid_too_small_rejected():
    cfg = make_cfg(m_antennas=8)
    grid = make_grid(make_cfg(m_antennas=4))
    with pytest.raises(ValueError):
        linksim.simulate_frames(cfg, grid, 0.1, 0, [0])


def test_per_result_stats():
    r = linksim.PerResult(frames=400, errors=40)
    assert r.per == pytest.approx(0.1)
    assert r.ci95_halfwidth == pytest.approx(1.96 * np.sqrt(0.09 / 400))


def test_measure_per_counts_blocks():
    cfg = make_cfg()
    grids = [make_grid(cfg, seed=s) for s in range(3)]
    res = linksim.measure_per(cfg, grids, [1e-9] * 3, frames_per_channel=5)
    assert res.frames == 3 * 5 * cfg.n_streams
    assert res.per == 0.0


def test_measure_per_early_stop():
    cfg = make_cfg()
    grids = [make_grid(cfg, seed=s) for s in range(20)]
    res = linksim.measure_per(cfg, grids, [1e3] * 20, frames_per_channel=50,
                              stop_threshold=0.10)
    assert res.per > 0.9
    assert 400 <= res.frames < 20 * 50 * cfg.n_streams


def test_measure_per_rejects_empty_budget():
    cfg = make_cfg()
    with pytest.raises(ValueError):
        linksim.measure_per(cfg, [], [], frames_per_channel=0)


def test_measure_per_rejects_bad_channel_set():
    cfg = make_cfg()
    with pytest.raises(ValueError, match="got 0 channels"):
        linksim.measure_per(cfg, [], [], frames_per_channel=5)
    grids = [make_grid(cfg, seed=s) for s in range(2)]
    with pytest.raises(ValueError, match="got 2 channels, 3 noise"):
        linksim.measure_per(cfg, grids, [1e-9] * 3, frames_per_channel=5)
