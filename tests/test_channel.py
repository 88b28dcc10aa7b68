import hashlib
import math

import numpy as np
import pytest
from scipy.special import j0

from mpnlsim import channel as ch
from mpnlsim.core import DEFAULT_NUMEROLOGY


def zero_grid(m, n):
    """A one-subcarrier grid of M antennas and N streams."""
    return ch.ChannelGrid(h=np.zeros((14, 1, m, n), dtype=complex))


def test_doppler_constant():
    mob = ch.MobilityConfig(speed_kmh=30, carrier_hz=3.5e9)
    assert abs(mob.doppler_hz - 97.24) < 0.1


@pytest.mark.parametrize("speed, carrier, match", [
    (math.nan, 3.5e9, "speed_kmh"),
    (math.inf, 3.5e9, "speed_kmh"),
    (30.0, math.inf, "carrier_hz"),
    (30.0, math.nan, "carrier_hz"),
    # both finite, but (1e300 / 3.6) * 1e300 overflows
    (1e300, 1e300, "Doppler"),
])
def test_mobility_rejects_non_finite(speed, carrier, match):
    with pytest.raises(ValueError, match=match):
        ch.MobilityConfig(speed_kmh=speed, carrier_hz=carrier)


def test_j0_port_equals_scipy_bit_for_bit():
    x = np.concatenate([
        np.linspace(0.0, 60.0, 120_001),
        [0.0, -0.0, 1e-5, np.nextafter(1e-5, 0), 5.0, np.nextafter(5.0, 6.0),
         np.nextafter(5.0, 0.0), 1e-300, 1e4],
        -np.linspace(0.0, 60.0, 6_001),
    ])
    port = np.array([ch._j0(v) for v in x.tolist()])
    assert np.array_equal(port.view(np.int64), j0(x).view(np.int64))


def test_jakes_factor_once_per_doppler(monkeypatch):
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh",
                        lambda a: calls.append(a.shape) or eigh(a))
    ch._jakes_factor.cache_clear()
    mob = ch.MobilityConfig(speed_kmh=123.0)
    for s in range(3):
        ch.tdl_generate(ch.TDL_B_LIKE, mob, m=2, n=2, seed=s, n_subcarriers=4)
    assert calls == [(14, 14)]
    f = ch._jakes_factor(mob.doppler_hz)
    assert f is ch._jakes_factor(mob.doppler_hz)
    assert not f.flags.writeable


# SHA-256 of tdl_generate(...).h, as the scipy-based channel produced it
@pytest.mark.parametrize("profile, mob, digest", [
    (ch.TDL_B_LIKE, ch.MobilityConfig(speed_kmh=30.0),
     "1f01f2e95eefb2f15acd41d47c1891e9b7659774d19d6dc193cc23a072bd7bf6"),
    # the LOS branch, and J0 arguments up to 38: J0's x > 5 branch
    (ch.TDL_D_LIKE, ch.MobilityConfig(speed_kmh=500.0, carrier_hz=28e9),
     "deea8b7ae54d345fcad37de6cfad23acc7fe857c60209de3319f6b7ff6b21038"),
])
def test_tdl_generate_bytes_pinned(profile, mob, digest):
    g = ch.tdl_generate(profile, mob, m=4, n=2, seed=11, n_subcarriers=24)
    assert g.h.shape == (14, 24, 4, 2) and g.h.flags.c_contiguous
    assert hashlib.sha256(g.h.tobytes()).hexdigest() == digest


def test_profile_invariants():
    for p in (ch.TDL_B_LIKE, ch.TDL_D_LIKE):
        assert abs(sum(p.powers) - 1.0) < 1e-9
        assert all(d >= 0 for d in p.delays)
        assert list(p.delays) == sorted(p.delays)
    assert ch.TDL_D_LIKE.los and not ch.TDL_B_LIKE.los


def test_profile_from_config_dict():
    p = ch.profile_from_dict({"name": "x", "delays_ns": [0, 100],
                              "powers_db": [0, -3], "rician_k_db": 7})
    assert p.los
    assert abs(sum(p.powers) - 1) < 1e-12


def test_profile_rejects_unsorted_delays():
    with pytest.raises(ValueError):
        ch.ClusterProfile("bad", (1e-7, 0.0), (0.5, 0.5))


@pytest.mark.parametrize("delays, powers", [
    ((0.0, 1e-7), (1.0, math.nan)),
    ((0.0, 1e-7), (math.inf, 0.0)),
    ((0.0, math.inf), (0.5, 0.5)),
    ((0.0, math.nan), (0.5, 0.5)),
    ((0.0, 1e-7), (1.5, -0.5)),
])
def test_profile_rejects_non_finite_or_negative(delays, powers):
    with pytest.raises(ValueError):
        ch.ClusterProfile("bad", delays, powers)


def test_profile_from_dict_rejects_overflowing_powers():
    # 10 ** 400 overflows to inf and normalizes to NaN
    with pytest.raises(ValueError, match="finite"):
        ch.profile_from_dict({"delays_ns": [0, 100], "powers_db": [0, 4000]})


def test_tdl_zero_speed_static_in_time():
    g = ch.tdl_generate(ch.TDL_B_LIKE, ch.MobilityConfig(speed_kmh=0),
                        m=2, n=2, seed=3, n_subcarriers=12)
    assert np.allclose(g.h, g.h[0], atol=1e-7)


def test_tdl_single_zero_delay_cluster_flat_in_frequency():
    prof = ch.ClusterProfile("flat", (0.0,), (1.0,))
    g = ch.tdl_generate(prof, ch.MobilityConfig(), m=2, n=2, seed=3,
                        n_subcarriers=24)
    assert np.allclose(g.h, g.h[:, :1], atol=1e-12)


def test_tdl_rejects_delay_beyond_guard():
    with pytest.raises(ValueError, match="guard"):
        ch.ClusterProfile("late", (0.0, 3e-6), (0.5, 0.5))


@pytest.mark.parametrize("profile", [ch.TDL_B_LIKE, ch.TDL_D_LIKE])
def test_tdl_ensemble_power_normalized(profile):
    acc = 0.0
    n_seeds = 1000
    for s in range(n_seeds):
        g = ch.tdl_generate(profile, ch.MobilityConfig(), m=2, n=2,
                            seed=s, n_subcarriers=4)
        acc += np.mean(np.abs(g.h) ** 2)
    assert 0.95 < acc / n_seeds < 1.05


def test_tdl_temporal_autocorrelation_matches_bessel():
    # NLOS single-cluster channel isolates the Doppler process
    prof = ch.ClusterProfile("one", (0.0,), (1.0,))
    mob = ch.MobilityConfig(speed_kmh=500)   # resolvable within one slot
    num = DEFAULT_NUMEROLOGY
    fd = mob.doppler_hz
    samples = np.stack([
        ch.tdl_generate(prof, mob, m=1, n=1, seed=s, n_subcarriers=1
                        ).h[:, 0, 0, 0]
        for s in range(10_000)])
    for lag in range(1, num.symbols_per_slot):
        emp = np.mean(samples[:, lag:] * samples[:, :-lag].conj()).real
        ref = j0(2 * np.pi * fd * lag * num.symbol_duration_s)
        assert abs(emp - ref) < 0.05


def test_tdl_seeds_independent():
    grids = [ch.tdl_generate(ch.TDL_B_LIKE, ch.MobilityConfig(), m=4, n=4,
                             seed=s, n_subcarriers=8).h.ravel()
             for s in range(80)]
    cross = np.mean([np.vdot(grids[i], grids[i + 1])
                     for i in range(len(grids) - 1)])
    power = np.mean([np.vdot(g, g).real for g in grids])
    assert abs(cross) / power < 0.05


def test_calibrate_noise_definition():
    g = zero_grid(1, 1)
    region = ch.SnrRegion(20.0, jitter_db=1.0)
    nv = ch.calibrate_noise(region, g, seed=5)
    assert 10 ** -2.1 <= nv <= 10 ** -1.9


def test_calibrate_noise_scales_with_streams():
    g = zero_grid(4, 4)
    region = ch.SnrRegion(15.0, jitter_db=1.0)
    nv = ch.calibrate_noise(region, g, seed=5)
    assert 4 * 10 ** -1.6 <= nv <= 4 * 10 ** -1.4


def test_calibrate_noise_zero_jitter_deterministic():
    g = zero_grid(2, 2)
    region = ch.SnrRegion(10.0, jitter_db=0.0)
    assert ch.calibrate_noise(region, g, 1) == ch.calibrate_noise(region, g, 2)
    assert ch.calibrate_noise(region, g, 1) == pytest.approx(2 / 10.0)


@pytest.mark.parametrize("target, jitter, message", [
    (math.nan, 1.0, "target_snr_db must be finite"),
    (math.inf, 1.0, "target_snr_db must be finite"),
    (20.0, math.nan, "jitter_db must be finite"),
    (20.0, math.inf, "jitter_db must be finite"),
    (20.0, -1.0, "jitter_db must be >= 0"),
    # 10 ** (snr / 10) overflows
    (1e300, 1.0, "for N = 1"),
    # 10 ** (snr / 10) underflows to 0
    (-1e300, 1.0, "for N = 1"),
    # the jitter reaches both
    (0.0, 1e300, "for N = 1"),
    # finite for one stream, infinite for MAX_STREAMS
    (-3073.0, 1.0, "for N = 12"),
    # finite for MAX_STREAMS, but its square overflows
    (-1530.0, 1.0, "for N = 12"),
])
def test_region_rejects_snr_without_finite_noise(target, jitter, message):
    with pytest.raises(ValueError, match=message):
        ch.SnrRegion(target, jitter_db=jitter)


def test_region_at_the_float_range_gives_finite_noise():
    """The extreme regions SnrRegion admits calibrate a finite, positive
    noise variance for 1 and 12 streams, at most MAX_NOISE_VARIANCE."""
    for target in (-1529.0, 3080.0):
        region = ch.SnrRegion(target, jitter_db=1.0)
        for n in (1, 12):
            nv = ch.calibrate_noise(region, zero_grid(1, n), seed=5)
            assert 0 < nv <= ch.MAX_NOISE_VARIANCE


def test_region_defaults_follow_figure_captions():
    assert ch.REGION_R1.target_snr_db == 20.0
    assert ch.REGION_R2.target_snr_db == 15.0
