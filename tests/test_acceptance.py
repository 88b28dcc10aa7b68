"""End-to-end acceptance checks.

Each test covers one numbered release criterion and prints a single
PASS/FAIL line (visible with ``pytest -s`` or on failure).  Run with::

    pytest tests/test_acceptance.py -v
"""

import os
import sys

import numpy as np
import pytest

from mpnlsim import channel as ch
from mpnlsim import cli, connectivity as conn, detect as det, fec, search
from mpnlsim.core import (DEFAULT_NUMEROLOGY, DEFAULT_USE_CASES, QAM16, QPSK,
                          UseCase, demap_llr, mcs_entry, modulate)
from oracles import sphere_detect


def report(num: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:2d}: {status} - {detail}", file=sys.stderr)
    assert ok, f"criterion {num} failed: {detail}"


def rand_instances(rng, b, m, n, c, snr_db):
    h = (rng.standard_normal((b, m, n))
         + 1j * rng.standard_normal((b, m, n))) / np.sqrt(2)
    labels = rng.integers(0, c.order, (b, n))
    nv = n / 10 ** (snr_db / 10)
    noise = np.sqrt(nv / 2) * (rng.standard_normal((b, m))
                               + 1j * rng.standard_normal((b, m)))
    y = np.einsum("bmn,bn->bm", h, c.points[labels]) + noise
    return h, y, labels, nv


def table_index(labels, c):
    """Row of a label vector in ML's lexicographic table."""
    return np.ravel_multi_index(tuple(labels), (c.order,) * len(labels))


def test_criterion_01_sphere_equals_ml():
    rng = np.random.default_rng(1001)
    checked = 0
    for size in (2, 4):
        for c in (QPSK, QAM16):
            for i in range(500):
                snr = (0, 10, 20)[i % 3]
                h, y, _, _ = rand_instances(rng, 1, size, size, c, snr)
                labels, metrics, best = det.ml_detect_batch(h, y, c)
                got = sphere_detect(h[0], y[0], c)
                same = (np.array_equal(got, labels[0, best[0]])
                        and metrics[0, table_index(got, c)]
                        == metrics[0, best[0]])
                if not same:
                    report(1, False, f"mismatch at {size}x{size} "
                                     f"{c.order}-point, snr {snr} dB")
                checked += 1
    report(1, True, f"sphere == ML exactly on {checked} instances")


def test_criterion_02_mpnl_full_enumeration_equals_ml():
    rng = np.random.default_rng(1002)
    checked = 0
    for size in (2, 4):
        for _ in range(300):
            h, y, _, nv = rand_instances(rng, 1, size, size, QPSK, 10.0)
            plan = det.mpnl_plan_batch(h, nv, 4 ** size, QPSK)
            labels, _, best = det.mpnl_detect_batch(plan, h, y, QPSK)
            ml_labels, ml_metrics, ml_best = det.ml_detect_batch(h, y, QPSK)
            got = labels[0, best[0]]
            same = (np.array_equal(got, ml_labels[0, ml_best[0]])
                    and ml_metrics[0, table_index(got, QPSK)]
                    == ml_metrics[0, ml_best[0]])
            if not same:
                report(2, False, f"mismatch at {size}x{size}")
            checked += 1
    report(2, True, f"full-enumeration parallel-path == ML on "
                    f"{checked} instances")


def test_criterion_03_mmse_matches_direct_solve():
    rng = np.random.default_rng(1003)
    worst = 0.0
    for _ in range(100):
        h = (rng.standard_normal((8, 8))
             + 1j * rng.standard_normal((8, 8))) / np.sqrt(2)
        y = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        nv = float(rng.uniform(0.01, 2.0))
        got = det._linear_estimates(
            det.linear_plan_batch(h[None], nv, "mmse"), y[None])[0][0]
        ref = np.linalg.solve(h.conj().T @ h + nv * np.eye(8), h.conj().T @ y)
        worst = max(worst, np.linalg.norm(got - ref) / np.linalg.norm(ref))
    report(3, worst <= 1e-10,
           f"max relative error {worst:.2e} on 100 8x8 instances "
           f"(tolerance 1e-10)")


def test_criterion_04_vehicle_count_936():
    num = DEFAULT_NUMEROLOGY
    rb_rate = num.scs_hz * num.sc_per_rb
    got = conn.max_vehicles(UseCase("sub-RB demand", 0.5 * rb_rate), se=1.0,
                            n_streams=12)
    report(4, got == 936 and num.n_rb == 78,
           f"NRB=78, N=12, demand ratio < 1 -> {got} vehicles (expected 936)")


def _ser_batched(detector, snr_db, trials, rng, n, m, c, n_paths=32,
                 batch=20_000):
    nv = n / 10 ** (snr_db / 10)
    errors = symbols = 0
    done = 0
    while done < trials:
        take = min(batch, trials - done)
        h, y, labels, _ = rand_instances(rng, take, m, n, c, snr_db)
        if detector == "mpnl":
            plan = det.mpnl_plan_batch(h, nv, n_paths, c)
            cand, _, best = det.mpnl_detect_batch(plan, h, y, c)
            hard = np.take_along_axis(cand, best[:, None, None], axis=1)[:, 0]
        elif detector == "ml":
            cand, _, best = det.ml_detect_batch(h, y, c)
            hard = cand[np.arange(take), best]
        else:
            hard, _ = det.linear_detect_batch(h, y, nv, c, detector)
        errors += int((hard != labels).sum())
        symbols += take * n
        done += take
    return errors / symbols, errors, symbols


def test_criterion_05_ml_diversity_slope_vs_zf():
    rng = np.random.default_rng(1005)
    snrs = np.array([14.0, 18.0, 22.0])
    trials = 1_000_000
    slopes = {}
    for name in ("ml", "zf"):
        sers = [
            _ser_batched(name, s, trials, rng, n=2, m=2, c=QPSK)[0]
            for s in snrs]
        slopes[name] = np.polyfit(snrs, np.log10(sers), 1)[0]
    ratio = slopes["ml"] / slopes["zf"]
    report(5, ratio >= 1.6,
           f"log10(SER) slope ml {slopes['ml']:.3f} vs zf "
           f"{slopes['zf']:.3f} per dB; ratio {ratio:.2f} (need >= 1.6)")


def test_criterion_06_overloaded_mpnl_beats_mmse():
    rng = np.random.default_rng(1006)
    trials = 100_000
    stats = {}
    for snr in (10.0, 20.0, 30.0):
        for name in ("mpnl", "mmse"):
            ser, errs, syms = _ser_batched(name, snr, trials, rng,
                                           n=3, m=2, c=QPSK, batch=10_000)
            hw = 1.96 * np.sqrt(max(ser * (1 - ser), 1e-12) / syms)
            stats[(name, snr)] = (ser, hw)
    mp30, mm30 = stats[("mpnl", 30.0)][0], stats[("mmse", 30.0)][0]
    halved = mp30 <= 0.5 * mm30
    monotone = all(
        stats[("mpnl", a)][0] - stats[("mpnl", a)][1]
        > stats[("mpnl", b)][0] + stats[("mpnl", b)][1]
        for a, b in ((10.0, 20.0), (20.0, 30.0)))
    report(6, halved and monotone,
           f"N=3,M=2 @30dB: mpnl SER {mp30:.2e} vs mmse {mm30:.2e} "
           f"(need <= 0.5x); mpnl monotone over 10/20/30 dB: {monotone}")


@pytest.fixture(scope="module")
def shipped_table():
    cells = search.read_heatmap_csv(cli.shipped_heatmap_path())
    return search.cells_to_table(cells)


def test_criterion_07_heatmap_dominance(shipped_table):
    strict = below_n = 0
    for n in (2, 4, 6):
        for mi in (2, 7, 12):
            mp = shipped_table[(n, mi, "mpnl")]
            mm = shipped_table[(n, mi, "mmse")]
            if not (mp.supported and mm.supported
                    and mp.min_antennas <= mm.min_antennas):
                report(7, False, f"cell N={n}, MCS {mi}: mpnl "
                                 f"{mp.min_antennas} vs mmse {mm.min_antennas}")
            strict += mp.min_antennas < mm.min_antennas
            below_n += mp.min_antennas < n
    report(7, strict >= 1 and below_n >= 1,
           f"mpnl <= mmse in all 9 cells; strict in {strict}, "
           f"below stream count in {below_n}")


def test_criterion_08_ldpc_sanity():
    code = fec.default_code()
    rng = np.random.default_rng(1008)

    info = rng.integers(0, 2, (1000, code.k)).astype(np.uint8)
    cw = fec.ldpc_encode(code, info)
    syndrome_ok = not fec.ldpc_syndrome(code, cw).any()
    out, conv = fec.ldpc_decode(code, 8.0 * (1 - 2 * cw.astype(np.float64)))
    roundtrip_ok = conv.all() and np.array_equal(out, info)

    def coded_per(snr_db, frames=10_000):
        info = rng.integers(0, 2, (frames, code.k)).astype(np.uint8)
        tx = fec.ldpc_encode(code, info)
        sym = modulate(tx.reshape(-1), QPSK).reshape(frames, -1)
        nv = 1 / 10 ** (snr_db / 10)
        y = sym + np.sqrt(nv / 2) * (rng.standard_normal(sym.shape)
                                     + 1j * rng.standard_normal(sym.shape))
        llr = demap_llr(y.reshape(-1), nv, QPSK).reshape(frames, code.n)
        dec, conv = fec.ldpc_decode(code, llr)
        ok = conv & np.all(dec == info, axis=1)
        return 1 - ok.mean()

    pers = [coded_per(s) for s in (2.2, 2.8, 3.4)]
    decreasing = pers[0] > pers[1] > pers[2]
    report(8, syndrome_ok and roundtrip_ok and decreasing,
           f"zero syndrome: {syndrome_ok}; 1000-word noiseless roundtrip: "
           f"{roundtrip_ok}; coded AWGN PER sweep "
           f"{[f'{p:.3g}' for p in pers]} strictly decreasing: {decreasing}")


def test_criterion_09_connectivity_dominance(shipped_table):
    se = mcs_entry(12).spectral_efficiency
    rows = conn.connectivity_report(DEFAULT_USE_CASES, se, shipped_table,
                                    mcs_index=12,
                                    antenna_budgets=[2, 4, 6, 8])
    dominated = all(r.vehicles["mpnl"] >= r.vehicles["mmse"] for r in rows)
    gains = sum(r.gain_ratio > 1 for r in rows)
    report(9, dominated and gains >= len(rows) / 2,
           f"mpnl >= mmse vehicles in {len(rows)}/{len(rows)} rows; "
           f"gain > 1 in {gains}/{len(rows)} (need >= half)")


def test_criterion_10_power_arithmetic():
    got = conn.power_savings(21, 7, 15.6)
    report(10, got == 218.4, f"(21 - 7) chains x 15.6 W = {got} W "
                             f"(expected exactly 218.4)")


def test_criterion_11_parallel_bit_identity_and_scaling():
    kwargs = dict(name="mpnl", n=8, m=8, order=16, n_paths=32, snr_db=20.0,
                  seed=1011, n_instances=2048, chunk_size=256)
    results = {}
    for w in (1, 4, 8):
        times, hard = cli.run_bench(workers=w, repeats=1, **kwargs)
        results[w] = (times[0], hard)
    identical = all(np.array_equal(results[w][1], results[1][1])
                    for w in (4, 8))
    if not identical:
        report(11, False, "worker count changed detection output")
    cpus = os.cpu_count() or 1
    if cpus < 8:
        report(11, True,
               f"bit-identical output for 1/4/8 workers; scaling check "
               f"skipped: host has {cpus} CPU core(s), needs >= 8")
        return
    speedup = results[1][0] / results[8][0]
    report(11, speedup >= 0.6 * 8,
           f"bit-identical output for 1/4/8 workers; 8-worker speedup "
           f"{speedup:.2f}x (need >= 4.8x)")


def test_criterion_12_doppler_constant():
    fd = ch.MobilityConfig(speed_kmh=30.0, carrier_hz=3.5e9).doppler_hz
    report(12, abs(fd - 97.24) < 0.1,
           f"30 km/h at 3.5 GHz -> {fd:.3f} Hz (expected 97.24 +/- 0.1)")
