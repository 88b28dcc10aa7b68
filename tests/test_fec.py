import hashlib
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from mpnlsim import fec
from mpnlsim.core import LLR_CLIP
from oracles import min_sum_decode, rate_matched_decode, rate_matched_encode


@pytest.fixture(scope="module")
def code():
    return fec.default_code()


def test_code_dimensions(code):
    assert (code.n, code.k) == (1296, 648)


def test_parity_matrix_full_rank(code):
    h = code.parity_check.astype(np.float64)
    # GF(2) rank via elimination
    h = h.copy().astype(np.uint8)
    rank, rows, cols = 0, h.shape[0], h.shape[1]
    r = 0
    for c in range(cols):
        piv = np.nonzero(h[r:, c])[0]
        if piv.size == 0:
            continue
        p = piv[0] + r
        h[[r, p]] = h[[p, r]]
        mask = h[:, c].astype(bool).copy()
        mask[r] = False
        h[mask] ^= h[r]
        r += 1
        if r == rows:
            break
    assert r == code.n - code.k


def _max_shared_variables(h) -> float:
    """The most variables two distinct checks of `h` share: more than 1
    is a 4-cycle.  A float64 product counts them exactly (at most n)."""
    f = h.astype(np.float64)
    shared = f @ f.T
    np.fill_diagonal(shared, 0)
    return shared.max()


def test_girth_at_least_six(code):
    assert _max_shared_variables(code.parity_check) <= 1
    # two checks sharing two variables: a 4-cycle the check must see
    planted = code.parity_check.copy()
    planted[1] = 0
    planted[1, np.flatnonzero(planted[0])[:2]] = 1
    assert _max_shared_variables(planted) == 2


def test_encode_satisfies_parity(code):
    rng = np.random.default_rng(0)
    info = rng.integers(0, 2, (8, code.k)).astype(np.uint8)
    cw = fec.ldpc_encode(code, info)
    assert cw.shape == (8, code.n)
    assert np.array_equal(cw[:, :code.k], info)       # systematic
    assert not fec.ldpc_syndrome(code, cw).any()


def test_encode_linearity(code):
    rng = np.random.default_rng(1)
    a = rng.integers(0, 2, code.k).astype(np.uint8)
    b = rng.integers(0, 2, code.k).astype(np.uint8)
    ca, cb = fec.ldpc_encode(code, a), fec.ldpc_encode(code, b)
    assert np.array_equal(fec.ldpc_encode(code, a ^ b), ca ^ cb)


def test_encode_zero_word(code):
    cw = fec.ldpc_encode(code, np.zeros(code.k, dtype=np.uint8))
    assert not cw.any()


def test_decode_noiseless(code):
    rng = np.random.default_rng(2)
    info = rng.integers(0, 2, (4, code.k)).astype(np.uint8)
    cw = fec.ldpc_encode(code, info)
    llr = 8.0 * (1 - 2 * cw.astype(np.float64))      # positive <=> bit 0
    out, conv = fec.ldpc_decode(code, llr)
    assert conv.all()
    assert np.array_equal(out, info)


def test_decode_corrects_scattered_errors(code):
    rng = np.random.default_rng(3)
    info = rng.integers(0, 2, code.k).astype(np.uint8)
    cw = fec.ldpc_encode(code, info)
    llr = 4.0 * (1 - 2 * cw.astype(np.float64))
    flips = rng.choice(code.n, 20, replace=False)
    llr[flips] *= -1
    out, conv = fec.ldpc_decode(code, llr[None])
    assert conv[0]
    assert np.array_equal(out[0], info)


def test_decode_awgn_waterfall(code):
    """Coded BPSK over AWGN: near-certain failure at low SNR, near-certain
    success a couple of dB later."""
    rng = np.random.default_rng(4)
    n_words = 40
    info = rng.integers(0, 2, (n_words, code.k)).astype(np.uint8)
    cw = fec.ldpc_encode(code, info)
    tx = 1 - 2 * cw.astype(np.float64)

    def wer(snr_db):
        nv = 10 ** (-snr_db / 10)
        y = tx + rng.normal(0, np.sqrt(nv), tx.shape)
        out, conv = fec.ldpc_decode(code, 2 * y / nv)
        ok = conv & np.all(out == info, axis=1)
        return 1 - ok.mean()

    assert wer(-2.0) > 0.9
    assert wer(3.0) < 0.05


def test_decode_unconverged_flag(code):
    rng = np.random.default_rng(5)
    llr = rng.normal(0, 1, (2, code.n))     # pure noise, no codeword
    _, conv = fec.ldpc_decode(code, llr, max_iter=5)
    assert not conv.any()


def test_decode_batch_matches_single(code):
    rng = np.random.default_rng(6)
    info = rng.integers(0, 2, (3, code.k)).astype(np.uint8)
    cw = fec.ldpc_encode(code, info)
    llr = 2.0 * (1 - 2 * cw.astype(np.float64))
    llr += rng.normal(0, 0.8, llr.shape)
    batch_out, batch_conv = fec.ldpc_decode(code, llr)
    for i in range(3):
        single_out, single_conv = fec.ldpc_decode(code, llr[i][None])
        assert np.array_equal(batch_out[i], single_out[0])
        assert batch_conv[i] == single_conv[0]


def test_any_leading_shape_equals_flattened_call(code):
    """A (2, 3, k) encode and a (2, 3, n) decode give the bytes of the
    (6, k) and (6, n) calls, in the leading shape."""
    rng = np.random.default_rng(14)
    info = rng.integers(0, 2, (2, 3, code.k)).astype(np.uint8)
    cw = fec.ldpc_encode(code, info)
    want = fec.ldpc_encode(code, info.reshape(6, code.k))
    assert cw.shape == (2, 3, code.n) and cw.tobytes() == want.tobytes()
    llr = 2.0 * (1 - 2 * cw.astype(np.float64))
    llr += rng.normal(0, 1.2, llr.shape)
    got = fec.ldpc_decode(code, llr)
    for g, w in zip(got, fec.ldpc_decode(code, llr.reshape(6, code.n))):
        assert g.shape == (2, 3) + w.shape[1:] and g.tobytes() == w.tobytes()


def _irregular_code():
    """Small code whose checks have degrees 2, 4, 5, 6, 7 and 7, so its
    seven check slots hold 6, 6, 5, 5, 4, 3 and 2 checks; the parity part
    is dual-diagonal, hence invertible."""
    rng = np.random.default_rng(11)
    m, k = 6, 10
    info_part = np.zeros((m, k), dtype=np.uint8)
    for r, deg in enumerate((1, 2, 3, 4, 5, 5)):
        info_part[r, rng.choice(k, deg, replace=False)] = 1
    parity_part = np.eye(m, dtype=np.uint8) + np.eye(m, k=-1, dtype=np.uint8)
    return fec.LdpcCode(np.hstack([info_part, parity_part]))


def _regular_code():
    """Small code whose checks all have degree 3: one info bit and two
    parity bits, on a cyclic dual diagonal."""
    m = 6
    h = np.zeros((m, 2 * m), dtype=np.uint8)
    for r in range(m):
        h[r, [r, m + r, m + (r + 1) % m]] = 1
    return fec.LdpcCode(h)


def test_code_rejects_an_empty_check():
    h = _irregular_code().parity_check.copy()
    h[2] = 0
    with pytest.raises(ValueError, match="every check"):
        fec.LdpcCode(h)


@pytest.mark.parametrize("which", ["default", "irregular"])
def test_syndrome_and_encode_match_dense(code, which):
    c = code if which == "default" else _irregular_code()
    if which == "irregular":
        assert len(set(c.parity_check.sum(axis=1))) > 1
    h, enc = c.parity_check, c._encoder
    rng = np.random.default_rng(12)
    for lead in ((), (7,)):
        bits = rng.integers(0, 2, lead + (c.n,), dtype=np.uint8)
        want = (bits @ h.T) % 2
        got = fec.ldpc_syndrome(c, bits)
        assert got.dtype == want.dtype and np.array_equal(got, want)
        info = rng.integers(0, 2, lead + (c.k,), dtype=np.uint8)
        cw = fec.ldpc_encode(c, info)
        assert cw.dtype == np.uint8 and cw.shape == lead + (c.n,)
        assert np.array_equal(cw[..., :c.k], info)
        assert np.array_equal(cw[..., c.k:], (info @ enc.T) % 2)
        assert not fec.ldpc_syndrome(c, cw).any()


# SHA-256 of (info, converged) from the dense reference decoder, one per
# case in _golden_cases.  Any change to the decoder must reproduce them.
GOLDEN_DECODE = {
    "awgn_-1.0dB": "42214ab47716923fdd8bc89fe905fbbb89e8118c3f36137f4f98c756c586747e",
    "awgn_+1.5dB": "b670b21501252bd46a59eafe573bcd5a316f3861ea4782e35f41611af5f0539f",
    "awgn_+2.5dB": "c9a3f648609781bbe1b43f606c512a815eabe2f14d708dc8538e7b4a2bb018f4",
    "awgn_+4.0dB": "2886b06fc33846592347e1ff4fecb7d8207f313d46c7608d492c98c5fc812d76",
    "max_iter_0": "723b072bb5e7b98242d26cf1b905090895a267ba30e5c2029c49fd3277aad383",
    "max_iter_1": "9959b0a04b5aa19f3e05251e04db88841612443f78679e0022205a960f17f0ee",
    "max_iter_5": "cc1997c9ad0b24f98109afe125d77548b3156a58ab7d37e3f3e9b339ececd80e",
    "max_iter_10": "1e999c93fc40f34ec7a6c29e5e4804ac01810991f9422f281538574b0ad54cd3",
    "rate_matched": "b6134cf42a4527b7e9bbb86ad3e4209ab705f523446cf9c015959b6c856cf796",
    "single": "228905275bfa5bf27754ee582ac2bbed2a2aec6e586b4a58e73c9a469dd2b8eb",
    "empty": "15243e0df6f2b29be1cb091914a1ad61a54914d43cad0f36190b4e0055562c65",
}


def _awgn_llrs(code, rng, words, snr_db):
    info = rng.integers(0, 2, (words, code.k)).astype(np.uint8)
    tx = 1 - 2 * fec.ldpc_encode(code, info).astype(np.float64)
    nv = 10 ** (-snr_db / 10)
    return 2 * (tx + rng.normal(0, np.sqrt(nv), tx.shape)) / nv


def _golden_cases(code):
    """(name, decode thunk) pairs: 64-word AWGN batches from none to all
    converged, a max_iter sweep, a shortened+punctured batch, a 1-D word
    and an empty batch."""
    for snr in (-1.0, 1.5, 2.5, 4.0):      # converged: 0, 6, 49, 64 of 64
        llr = _awgn_llrs(code, np.random.default_rng(int(100 + 10 * snr)),
                         64, snr)
        yield f"awgn_{snr:+.1f}dB", lambda llr=llr: fec.ldpc_decode(code, llr)
    llr = _awgn_llrs(code, np.random.default_rng(200), 64, 2.5)
    for it in (0, 1, 5, 10):
        yield (f"max_iter_{it}",
               lambda it=it: fec.ldpc_decode(code, llr, max_iter=it))
    rm = fec.design_rate_match(code, Fraction(1, 3), 900)
    rng = np.random.default_rng(300)
    info = rng.integers(0, 2, (64, rm.k_tb)).astype(np.uint8)
    tx = 1 - 2 * fec.encode_rate_matched(code, rm, info).astype(np.float64)
    nv = 10 ** (-0.5 / 10)
    rm_llr = 2 * (tx + rng.normal(0, np.sqrt(nv), tx.shape)) / nv
    yield "rate_matched", lambda: fec.decode_rate_matched(code, rm, rm_llr)
    word = _awgn_llrs(code, np.random.default_rng(400), 1, 2.0)[0]
    yield "single", lambda: fec.ldpc_decode(code, word)
    yield "empty", lambda: fec.ldpc_decode(code, np.zeros((0, code.n)))


def _digest(*arrays):
    h = hashlib.sha256()
    for a in map(np.asarray, arrays):
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def test_decode_matches_golden(code):
    got = {name: _digest(*run()) for name, run in _golden_cases(code)}
    assert got == GOLDEN_DECODE


def test_reused_working_set_does_not_leak_between_calls(code):
    """The decoder reuses one working set per code object; batches of
    other sizes and codes, interleaved, must decode as on a fresh one."""
    irregular = _irregular_code()
    rng = np.random.default_rng(13)
    cases = [(c, _awgn_llrs(c, rng, words, snr)) for c, words, snr in (
        (code, 100, 2.0), (irregular, 1, 1.0), (code, 0, 2.0),
        (irregular, 100, 1.0), (code, 1, 1.5), (code, 100, 1.5))]
    # words that converge mid-loop while others go on make the decoder
    # compact its rows
    for c, llr in (cases[0], cases[3]):
        _, start = fec.ldpc_decode(c, llr, max_iter=0)
        _, end = fec.ldpc_decode(c, llr)
        assert (end & ~start).any() and not end.all()
    fresh = [fec.ldpc_decode(fec.LdpcCode(c.parity_check), llr)
             for c, llr in cases]
    for (c, llr), (want_info, want_conv) in zip(cases, fresh):
        info, conv = fec.ldpc_decode(c, llr)
        assert np.array_equal(info, want_info)
        assert np.array_equal(conv, want_conv)


@pytest.mark.parametrize("which", ["default", "irregular", "regular"])
def test_decode_matches_loop_oracle(code, which):
    """ldpc_decode gives the bytes of the loop oracle, (info, converged),
    at max_iter 0, 1 and 10, on words that converge before the first
    iteration, in the loop and never.  The small codes decode noisy
    all-zero codewords."""
    if which == "default":
        c, llr = code, _mixed_batch(code)[:12]
    else:
        c = _irregular_code() if which == "irregular" else _regular_code()
        sigma = 0.8
        rng = np.random.default_rng(16)
        llr = 2 * (1 + rng.normal(0, sigma, (40, c.n))) / sigma**2
    slots = {"default": (648,) * 5 + (54,), "irregular": (6, 6, 5, 5, 4, 3, 2),
             "regular": (6, 6, 6)}[which]
    assert tuple(rows for _, rows in c._graph.slots) == slots
    first = _first_converged(c, llr)
    assert (first == 0).any() and ((first > 0) & (first < 10)).any()
    assert not fec.ldpc_decode(c, llr)[1].all()
    for max_iter in (0, 1, 10):
        got = fec.ldpc_decode(c, llr, max_iter=max_iter)
        want = min_sum_decode(c.parity_check, llr, max_iter,
                              fec.MIN_SUM_NORMALIZATION)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.tobytes() == w.tobytes()


def test_working_set_holds_two_edge_arrays(code):
    """For the shipped code the decoder's working set holds two float
    arrays of edge rows, m_vc and m_cv, of at most e + 1 rows each (no
    padding), and at most 6 MB in all at DECODE_BLOCK words."""
    e = int(code.parity_check.sum())
    arrays = code._workspace._asdict()
    assert {a.shape[-1] for a in arrays.values()} == {fec.DECODE_BLOCK}
    edge_scale = {name for name, a in arrays.items()
                  if a.dtype.kind == "f" and len(a) > code.n}
    assert edge_scale == {"m_vc", "m_cv"}
    assert max(len(arrays[name]) for name in edge_scale) <= e + 1 == 3295
    assert sum(a.nbytes for a in arrays.values()) <= 6 * 10**6


def test_decode_loop_allocates_no_working_arrays(code):
    """After a warm-up, a 100-word decode allocates its outputs and small
    index arrays only: neither the loop nor its syndrome makes a fresh
    set of arrays per iteration."""
    llr = _awgn_llrs(code, np.random.default_rng(14), 100, 1.5)
    fec.ldpc_decode(code, llr)
    tracemalloc.start()
    try:
        fec.ldpc_decode(code, llr)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 256 * 2**10


def _mixed_batch(code):
    """300 shuffled words, more than two decode blocks: 100 that converge
    at iteration 0, 100 AWGN words at 2 dB (most converge mid-loop) and
    100 of pure noise that never converge."""
    rng = np.random.default_rng(15)
    info = rng.integers(0, 2, (100, code.k)).astype(np.uint8)
    clean = 8.0 * (1 - 2 * fec.ldpc_encode(code, info).astype(np.float64))
    llr = np.concatenate([clean, _awgn_llrs(code, rng, 100, 2.0),
                          rng.normal(0, 1, (100, code.n))])
    return llr[rng.permutation(len(llr))]


def _first_converged(code, llr):
    """The iteration at which each word converges, DEFAULT_MAX_ITER if
    never."""
    first = np.full(len(llr), fec.DEFAULT_MAX_ITER)
    for it in range(fec.DEFAULT_MAX_ITER, -1, -1):
        first[fec.ldpc_decode(code, llr, max_iter=it)[1]] = it
    return first


def test_decode_across_blocks_matches_word_by_word(code):
    llr = _mixed_batch(code)
    assert len(llr) > 2 * fec.DECODE_BLOCK
    first = _first_converged(code, llr)
    info, conv = fec.ldpc_decode(code, llr)
    for i in range(0, len(llr), fec.DECODE_BLOCK):
        blk = slice(i, i + fec.DECODE_BLOCK)
        # every block has words that leave the working columns before the
        # first iteration and in the loop, and words that stay to the end
        assert (first[blk] == 0).any() and (~conv[blk]).any()
        assert ((first[blk] > 0) & conv[blk]).any()
    for i, word in enumerate(llr):
        want_info, want_conv = fec.ldpc_decode(code, word)
        assert np.array_equal(info[i], want_info) and conv[i] == want_conv


def test_decode_calls_syndrome_once_per_block_and_iteration(code,
                                                            monkeypatch):
    """perfbench's traced run derives fec.decode_iters from these calls:
    one per block and one per iteration it ran, through the module-level
    name."""
    llr = _mixed_batch(code)
    # a block iterates until its last word converges
    last = [int(f.max()) for f in np.split(
        _first_converged(code, llr),
        range(fec.DECODE_BLOCK, len(llr), fec.DECODE_BLOCK))]
    calls = []
    syndrome = fec.ldpc_syndrome

    def counted(*args, **kwargs):
        calls.append(1)
        return syndrome(*args, **kwargs)

    monkeypatch.setattr(fec, "ldpc_syndrome", counted)
    for max_iter in (fec.DEFAULT_MAX_ITER, 3, 0):
        calls.clear()
        fec.ldpc_decode(code, llr, max_iter=max_iter)
        assert len(calls) == sum(1 + min(it, max_iter) for it in last)
    calls.clear()
    fec.ldpc_decode(code, llr[:0])
    assert not calls


def test_decode_rejects_negative_max_iter(code):
    with pytest.raises(ValueError, match="max_iter"):
        fec.ldpc_decode(code, np.ones(code.n), max_iter=-1)


def test_syndrome_rejects_wrong_length(code):
    extra = np.zeros((2, code.n + 5), dtype=np.uint8)
    extra[:, -1] = 1          # a bit beyond n that no check reads
    for bits in (extra, np.zeros((2, code.n - 1), dtype=np.uint8)):
        with pytest.raises(ValueError, match="length"):
            fec.ldpc_syndrome(code, bits)


# ---------------------------------------------------------------------------
# rate matching
# ---------------------------------------------------------------------------

def test_rate_match_identity(code):
    rm = fec.design_rate_match(code, Fraction(1, 2), code.n)
    assert rm.k_tb == code.k and rm.n_tx == code.n


def test_rate_match_low_rate_shortens(code):
    rm = fec.design_rate_match(code, Fraction(120, 1024), 720)
    assert rm.k_tb == round(720 * 120 / 1024)
    assert rm.n_tx == 720 and rm.k_tb < code.k        # shortened
    assert abs(rm.effective_rate - 120 / 1024) <= 0.02 * 120 / 1024


def test_rate_match_high_rate_punctures(code):
    rm = fec.design_rate_match(code, Fraction(3, 4), 800)
    assert rm.k_tb == 600
    assert rm.n_tx - rm.k_tb == 200 < code.n - code.k   # punctured


def test_rate_match_rejects_infeasible(code):
    with pytest.raises(ValueError):
        fec.design_rate_match(code, Fraction(1, 2), 2 * code.n)
    with pytest.raises(ValueError):
        fec.design_rate_match(code, Fraction(999, 1000), 1000)
    with pytest.raises(ValueError):
        fec.design_rate_match(code, Fraction(3, 2), 100)


def test_rate_matched_roundtrip_noiseless(code):
    rng = np.random.default_rng(7)
    for rate, n_tx in ((Fraction(1, 3), 900), (Fraction(193, 1024), 576),
                       (Fraction(3, 4), 800)):
        rm = fec.design_rate_match(code, rate, n_tx)
        info = rng.integers(0, 2, (4, rm.k_tb)).astype(np.uint8)
        tx = fec.encode_rate_matched(code, rm, info)
        assert tx.shape == (4, n_tx)
        llr = 8.0 * (1 - 2 * tx.astype(np.float64))
        out, conv = fec.decode_rate_matched(code, rm, llr)
        assert conv.all()
        assert np.array_equal(out, info)


def test_rate_matched_low_rate_outcodes_mother(code):
    """Heavy shortening should decode reliably at an SNR where the
    un-shortened rate-1/2 code mostly fails."""
    rng = np.random.default_rng(8)
    rm = fec.design_rate_match(code, Fraction(1, 4), 864)
    info = rng.integers(0, 2, (30, rm.k_tb)).astype(np.uint8)
    tx = fec.encode_rate_matched(code, rm, info)
    nv = 10 ** (-0.15)                      # 1.5 dB: mother code mostly fails
    y = (1 - 2 * tx.astype(np.float64)) + rng.normal(0, np.sqrt(nv), tx.shape)
    out, conv = fec.decode_rate_matched(code, rm, 2 * y / nv)
    ok = conv & np.all(out == info, axis=1)
    assert ok.mean() > 0.9


def test_rate_matched_rejects_1d_input(code):
    rm = fec.design_rate_match(code, Fraction(1, 3), 900)
    with pytest.raises(ValueError, match="k_tb"):
        fec.encode_rate_matched(code, rm, np.zeros(rm.k_tb, dtype=np.uint8))
    with pytest.raises(ValueError, match="n_tx"):
        fec.decode_rate_matched(code, rm, np.ones(rm.n_tx))


def test_rate_match_rejects_what_the_code_cannot_carry(code):
    """No info bit, no parity bit, more info bits than k or more parity
    bits than n - k: a ValueError naming the field, never a block of the
    wrong length."""
    for n_tx, k_tb, field in ((10, 0, "k_tb"), (5, 5, "n_tx"),
                              (3, 7, "n_tx")):
        with pytest.raises(ValueError, match=field):
            fec.RateMatch(n_tx=n_tx, k_tb=k_tb)
    for rm, field in ((fec.RateMatch(n_tx=2000, k_tb=10), "n_tx - k_tb"),
                      (fec.RateMatch(n_tx=800, k_tb=700), "k_tb")):
        with pytest.raises(ValueError, match=f"^{field}: needs"):
            fec.encode_rate_matched(
                code, rm, np.zeros((2, rm.k_tb), dtype=np.uint8))
        with pytest.raises(ValueError, match=f"^{field}: needs"):
            fec.decode_rate_matched(code, rm, np.ones((2, rm.n_tx)))


def test_sub_code_matches_mother_code_oracle(code):
    """Encode and decode on the transmitted sub-code give the bytes of the
    mother code with zero-filled shortened bits (tests/oracles.py), for
    k_tb from 1 to k, unpunctured and punctured, on words with LLRs up
    to +/-LLR_CLIP that converge at once, in the loop and never, at
    max_iter 0, 1 and 10 (decode_rate_matched's default)."""
    rng = np.random.default_rng(17)
    sigma = np.repeat([0.3, 0.8, 1.2, 2.5], 2)[:, None]
    seen = []
    for k_tb in sorted({1, 2, 244, 296, 647, 648, *range(1, 649, 54)}):
        for p in (code.n - code.k, 1 + (37 * k_tb) % (code.n - code.k - 1)):
            rm = fec.RateMatch(n_tx=k_tb + p, k_tb=k_tb)
            info = rng.integers(0, 2, (len(sigma), k_tb), dtype=np.uint8)
            tx = fec.encode_rate_matched(code, rm, info)
            assert tx.tobytes() == rate_matched_encode(code, rm,
                                                       info).tobytes()
            sign = 1 - 2 * tx.astype(np.float64)
            llr = 2 * (sign + sigma * rng.standard_normal(tx.shape))
            llr = np.clip(llr / sigma**2, -LLR_CLIP, LLR_CLIP)
            sub = code._transmitted(k_tb)
            padded = np.pad(llr, ((0, 0), (0, sub.n - rm.n_tx)))
            for max_iter in (0, 1, 10):
                want = rate_matched_decode(code, rm, llr, max_iter)
                got = (fec.decode_rate_matched(code, rm, llr)
                       if max_iter == fec.DEFAULT_MAX_ITER
                       else fec.ldpc_decode(sub, padded, max_iter))
                for g, w in zip(got, want):
                    assert g.dtype == w.dtype and g.tobytes() == w.tobytes()
                seen.append((max_iter, *want[1]))
    seen = np.array(seen)
    assert (np.abs(llr) == LLR_CLIP).any()
    for max_iter in (0, 10):
        conv = seen[seen[:, 0] == max_iter, 1:]
        assert conv.any() and not conv.all()
    assert (seen[seen[:, 0] == 10, 1:] > seen[seen[:, 0] == 0, 1:]).any()
