import hashlib

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mpnlsim import core, detect


def _digest(*arrays):
    """SHA-256 over each array's bytes, shape and dtype."""
    h = hashlib.sha256()
    for a in map(np.asarray, arrays):
        h.update(a.tobytes())
        h.update(repr((a.shape, a.dtype.str)).encode())
    return h.hexdigest()


# digests of the tables the QAM map was first built with
_TABLE_DIGESTS = {
    4: "a7e1cd5d7b5e505b6fe6b5a565f759fe5af53c66fd504ce391ae5183b613abaf",
    16: "4aa4e717627d921be20d29f25bfdc1e81e5f8da01b0874a62f00836753f0180b",
    64: "d8be5d104ea599da303483031dbe0e1a9346da240ad06eba8e5b132605ece968",
}
_ENUMERATION_DIGESTS = {
    (1, 4): "0450d5882f64b35ddd213d1f3d062c2143dd88bd8754ae2eafcb69be53160167",
    (3, 4): "7a8d3559322f4392e93763ce0a6edc2ef575869121baf64ae67e5f679d955801",
    (2, 16): "a03887fb1830d07c9e60e2fe31a903e2f1179626ec8ae03ab461ee63adb99e12",
    (4, 4): "e1bdaeddbecdc20c7ba8ce83adbe4ca5cbdb42b571cf20f960870fe3ee1c4bab",
}


def test_constellation_tables_match_golden():
    # points, labels, bit sets and the slicer of every order, and ML's
    # label enumeration, byte for byte with shape and dtype
    for order, want in _TABLE_DIGESTS.items():
        c = core.constellation_for(order)
        scale, table = c._slicer
        assert _digest(c.points, c.labels, c.bit_sets, scale, table) == want
    for (n, q), want in _ENUMERATION_DIGESTS.items():
        assert _digest(detect._enumerate_labels(n, q)) == want


def test_constellation_labels_read_only_and_order_checked():
    # the label table is shared by every consumer, so it refuses writes
    with pytest.raises(ValueError, match="read-only"):
        core.QAM16.labels[0, 0] = 1
    assert core.QAM16.labels is core.QAM16.labels
    with pytest.raises(ValueError, match="unsupported constellation order 8"):
        core.Constellation(8)


@pytest.mark.parametrize("order", [4, 16, 64])
def test_unit_energy(order):
    c = core.constellation_for(order)
    assert np.mean(np.abs(c.points) ** 2) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("order", [4, 16, 64])
def test_labels_bijective(order):
    c = core.constellation_for(order)
    labs = {tuple(row) for row in c.labels}
    assert len(labs) == order
    assert len(set(np.round(c.points, 12))) == order


@pytest.mark.parametrize("order", [4, 16, 64])
def test_gray_property(order):
    # nearest horizontal/vertical neighbours differ in exactly one bit
    c = core.constellation_for(order)
    d = np.abs(c.points[:, None] - c.points[None, :])
    d[d == 0] = np.inf
    step = d.min()
    for i in range(order):
        for j in np.where(np.isclose(d[i], step))[0]:
            assert (c.labels[i] ^ c.labels[j]).sum() == 1


def test_qpsk_anchor_point():
    s = core.modulate([0, 0], core.QPSK)
    assert s[0] == pytest.approx((1 + 1j) / np.sqrt(2))


def test_qpsk_constant_modulus():
    s = core.modulate([0, 1, 1, 0, 1, 1, 0, 0], core.QPSK)
    assert s.size == 4
    assert np.allclose(np.abs(s), 1.0)


def test_16qam_mean_energy_over_all_labels():
    bits = core.bits_from_labels(np.arange(16), core.QAM16).reshape(-1)
    s = core.modulate(bits, core.QAM16)
    assert np.mean(np.abs(s) ** 2) == pytest.approx(1.0, abs=1e-12)


def test_modulate_rejects_ragged_input():
    with pytest.raises(ValueError):
        core.modulate([0, 1, 0], core.QPSK)


def test_demap_rejects_zero_noise():
    with pytest.raises(ValueError):
        core.demap_llr(0.1 + 0.1j, 0.0, core.QPSK)


def test_demap_array_noise_matches_scalar_calls():
    """A noise variance per symbol or per row, broadcast against the
    (..., bps) output, gives each element's scalar call byte for byte; one
    non-positive entry is rejected."""
    rng = np.random.default_rng(5)
    for c in (core.QPSK, core.QAM16, core.QAM64):
        y = 1.5 * (rng.standard_normal((3, 5))
                   + 1j * rng.standard_normal((3, 5)))
        for nv in (rng.uniform(1e-3, 3.0, (3, 5, 1)),
                   rng.uniform(1e-3, 3.0, (3, 1, 1))):
            got = core.demap_llr(y, nv, c)
            each = np.broadcast_to(nv, y.shape + (1,))
            for idx in np.ndindex(y.shape):
                want = core.demap_llr(y[idx], each[idx][0], c)
                assert got[idx].tobytes() == want.tobytes()
        with pytest.raises(ValueError, match="noise_var must be positive"):
            core.demap_llr(y, np.array([[0.5], [0.0], [1.0]]), c)


@pytest.mark.parametrize("rows, per_row", [(0, 4), (1, 64), (7, 3),
                                           (35, 4), (100, 7), (9, 40)])
@pytest.mark.parametrize("budget", [1, 5, 16, 39, 1 << 14])
def test_row_blocks_are_the_fewest_even_blocks_within_budget(rows, per_row,
                                                             budget):
    """row_blocks covers the rows in order with the fewest blocks of at
    most `budget` candidates (one row where a row alone exceeds it),
    sized within one row of each other; no rows is one empty block."""
    blocks = core.row_blocks(rows, per_row, budget)
    sizes = [s.stop - s.start for s in blocks]
    assert [s.start for s in blocks] == [0] + [s.stop for s in blocks[:-1]]
    assert blocks[-1].stop == rows
    assert all(n * per_row <= budget or n == 1 for n in sizes)
    assert len(blocks) == max(1, -(-rows // max(1, budget // per_row)))
    assert max(sizes) - min(sizes) <= 1


@pytest.mark.parametrize("order", [4, 16, 64])
def test_demap_row_blocks_change_no_output(monkeypatch, order):
    """demap_llr gives the same bytes, shape and dtype in one block and in
    row blocks of 1, 3, 8 and 34 symbols' point distances: a (5, 7) input
    with a scalar, a per-symbol (..., 1), a per-bit (..., bps) and a
    per-row (5, 1, 1) noise variance, and an empty input."""
    c = core.constellation_for(order)
    bps = c.bits_per_symbol
    rng = np.random.default_rng(order + 1)
    y = 1.5 * (rng.standard_normal((5, 7)) + 1j * rng.standard_normal((5, 7)))
    cases = [(y, 0.3)] + [(y, rng.uniform(0.05, 2.0, shape)) for shape in
                          ((5, 7, 1), (5, 7, bps), (5, 1, 1))]
    cases.append((np.zeros((0, 3), dtype=complex), 0.3))
    whole = [core.demap_llr(y, nv, c) for y, nv in cases]
    sizes = []
    block = core._demap_rows
    monkeypatch.setattr(core, "_demap_rows",
                        lambda y, *a: sizes.append(y.size) or block(y, *a))
    for symbols in (1, 3, 8, 34):
        monkeypatch.setattr(core, "SEARCH_BLOCK", symbols * order)
        for (y, nv), want in zip(cases, whole):
            sizes.clear()
            got = core.demap_llr(y, nv, c)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
            assert len(sizes) == max(1, -(-y.size // symbols))
            assert max(sizes) <= symbols


def test_demap_saturates_far_from_boundary():
    y = 10 * (1 + 1j) / np.sqrt(2)
    llr = core.demap_llr(y, 1.0, core.QPSK)
    assert np.allclose(llr, core.LLR_CLIP)   # both bits favour 0


def test_demap_symmetry_at_origin():
    assert np.allclose(core.demap_llr(0.0 + 0.0j, 1.0, core.QPSK), 0.0)


def test_demap_hard_decision_recovers_16qam_labels():
    c = core.QAM16
    for label in range(16):
        llr = core.demap_llr(c.points[label], 1.0, c)
        bits = (llr < 0).astype(int)
        assert np.array_equal(bits.ravel(), c.labels[label])


@pytest.mark.parametrize("order", [4, 16, 64])
@pytest.mark.parametrize("nv", [0.01, 0.5, 3.0])
def test_roundtrip_all_points(order, nv):
    c = core.constellation_for(order)
    llr = core.demap_llr(c.points, nv, c)
    bits = (llr < 0).astype(int)
    assert np.array_equal(bits, c.labels)


def _unclipped_llrs(y, nv, c):
    """Each bit's nearest 1-labelled point's distance minus its nearest
    0-labelled point's, over nv, computed point by point."""
    d = np.abs(np.asarray(y, dtype=complex)[..., None] - c.points) ** 2
    want = np.empty(np.shape(y) + (c.bits_per_symbol,))
    with np.errstate(invalid="ignore"):
        for idx in np.ndindex(np.shape(y)):
            for k in range(c.bits_per_symbol):
                one = c.labels[:, k] == 1
                want[idx + (k,)] = (np.min(d[idx][one])
                                    - np.min(d[idx][~one])) / nv
    return want


@given(st.integers(0, 63),
       st.floats(0.05, 4.0, allow_nan=False))
def test_demap_scaling_before_clip(label, nv):
    # the 1 / nv scaling comes first, so a small nv saturates at the clip
    c = core.QAM64
    y = c.points[label] + 0.1 + 0.05j
    want = np.clip(_unclipped_llrs(y, nv, c), -core.LLR_CLIP, core.LLR_CLIP)
    assert np.array_equal(core.demap_llr(y, nv, c), want)


@pytest.mark.parametrize("order", [4, 16, 64])
def test_demap_matches_direct_formula(order):
    """demap_llr gives the direct formula clipped at LLR_CLIP, for scalar,
    1-D and 2-D inputs, NaN and infinite observations included."""
    c = core.constellation_for(order)
    rng = np.random.default_rng(order)
    y = 1.5 * (rng.standard_normal((3, 7)) + 1j * rng.standard_normal((3, 7)))
    y[0, :4] = [np.nan, np.inf, c.points[1], (c.points[0] + c.points[1]) / 2]
    for inp in (y[1, 2], 0.0, y[0], y):
        for nv in (0.01, 0.3, 1.0):
            want = np.clip(_unclipped_llrs(inp, nv, c), -core.LLR_CLIP,
                           core.LLR_CLIP)
            with np.errstate(invalid="ignore"):
                got = core.demap_llr(inp, nv, c)
            assert got.shape == want.shape
            assert np.array_equal(got, want, equal_nan=True)


def _ulp_walk(x, steps):
    """x and the `steps` floats on either side of it, one ulp apart."""
    out, lo, hi = [x], x, x
    for _ in range(steps):
        lo, hi = np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)
        out += [lo, hi]
    return np.array(out)


def _cplx(re, im):
    """re + 1j*im without the NaN that 1j * inf makes in the real part."""
    re, im = np.broadcast_arrays(re, im)
    out = np.empty(re.shape, dtype=complex)
    out.real, out.imag = re, im
    return out


def _slicing_inputs(c, rng):
    """Observations for nearest(): random points, every interior decision
    boundary +-0..50 ulp on each axis, midpoints between neighbours,
    far-outside corners, magnitudes whose squared distance overflows,
    denormals, +-0.0, NaN and +-inf in either part."""
    levels = np.unique(c.points.real)
    walks = np.concatenate([_ulp_walk((a + b) / 2, 50)
                            for a, b in zip(levels, levels[1:])])
    other = rng.choice(np.concatenate([levels, 1.7 * rng.standard_normal(8)]),
                       walks.size)
    p = c.points
    mid = ((p[:, None] + p[None, :]) / 2).ravel()
    corners = (np.array([1, -1, 1j, -1j, 1 + 1j, -1 - 1j, 1 - 1j, -1 + 1j])
               * np.array([2.0, 10.0, 1e3, 1e9, 1e20])[:, None]).ravel()
    special = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-310,
                        1e154, -1.34e154, 1e160, -3e200, 1e300, 1.7e308,
                        -1.7e308, np.inf, -np.inf, np.nan])
    sp_re, sp_im = np.meshgrid(np.concatenate([special, levels[:2]]),
                               np.concatenate([special, levels[-2:]]))
    return np.concatenate([
        1.5 * (rng.standard_normal(400) + 1j * rng.standard_normal(400)),
        _cplx(walks, other), _cplx(other, walks), _cplx(walks, walks[::-1]),
        mid, (p[0] + p[-1]) / 2 + mid[::7], corners,
        _cplx(sp_re, sp_im).ravel(),
    ])


@pytest.mark.parametrize("order", [4, 16, 64])
def test_nearest_matches_direct_argmin(order):
    """nearest() is the first minimum of |y - p|^2 over the points, element
    by element, for scalar, 1-D and N-D inputs, on and near every
    decision boundary and at non-finite or overflowing observations."""
    c = core.constellation_for(order)
    y = _slicing_inputs(c, np.random.default_rng(order + 7))
    cut = y[: y.size // 60 * 60]

    def direct(obs):
        return np.array([np.argmin(np.abs(v - c.points) ** 2)
                         for v in np.ravel(obs)]).reshape(np.shape(obs))

    with np.errstate(over="ignore", invalid="ignore"):
        # 1-D, N-D, strided and real inputs; scalars of both kinds
        for obs in (y, cut.reshape(3, 4, -1), cut.reshape(-1, 6)[:, ::2],
                    cut.reshape(5, -1).T, y.real[::3]):
            got = c.nearest(obs)
            assert got.shape == obs.shape
            assert np.array_equal(got, direct(obs))
        for v in y[::37]:
            for obs in (v, complex(v)):
                got = c.nearest(obs)
                assert np.shape(got) == () and got == direct(v)


def test_mcs_table_shape_and_monotonicity():
    ses = [e.spectral_efficiency for e in core.MCS_TABLE]
    assert len(core.MCS_TABLE) == 28
    assert all(b > a for a, b in zip(ses, ses[1:]))
    for e in core.MCS_TABLE[:10]:
        assert e.modulation_order == 4
    assert {e.modulation_order for e in core.MCS_TABLE[10:17]} == {16}
    assert {e.modulation_order for e in core.MCS_TABLE[17:]} == {64}


def test_mcs_entry_bounds():
    with pytest.raises(ValueError):
        core.mcs_entry(28)
    assert core.mcs_entry(0).index == 0


def test_numerology_defaults():
    n = core.DEFAULT_NUMEROLOGY
    assert n.n_rb * n.sc_per_rb * n.scs_hz <= n.bandwidth_hz
    assert n.n_rb == 78


def test_numerology_validation():
    with pytest.raises(ValueError):
        core.Numerology(n_rb=300)


def test_use_case_defaults():
    rates = {u.name: u.rate_bps for u in core.DEFAULT_USE_CASES}
    assert rates["Teleoperated Driving"] == 50e6
    assert rates["Traffic Efficiency"] == 2e6
    with pytest.raises(ValueError):
        core.UseCase("bad", 0)
