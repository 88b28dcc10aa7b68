import numpy as np

from mpnlsim import channel as ch
from mpnlsim import linksim, search
from mpnlsim.core import mcs_entry


def small_fixtures(**kw):
    base = dict(channels_per_group=2, n_subcarriers=12, base_seed=77)
    base.update(kw)
    return search.FixtureConfig(**base)


def test_fixture_seeds_deterministic_and_pair_specific():
    fx = small_fixtures()
    a = [s.generate_state(2).tolist() for s in fx.seeds(2, 4)]
    b = [s.generate_state(2).tolist() for s in fx.seeds(2, 4)]
    c = [s.generate_state(2).tolist() for s in fx.seeds(2, 5)]
    assert a == b
    assert a != c


def test_fixture_channels_reproducible():
    fx = small_fixtures()
    g1, nv1 = fx.channels(2, 3)
    g2, nv2 = fx.channels(2, 3)
    assert len(g1) == fx.channels_per_group
    for a, b in zip(g1, g2):
        assert np.array_equal(a.h, b.h)
    assert nv1 == nv2


def test_fixture_generate_leaves_its_seeds_as_found():
    fx = small_fixtures()
    seeds = fx.seeds(2, 2)
    g1, nv1 = fx.generate(2, 2, seeds)
    g2, nv2 = fx.generate(2, 2, seeds)
    for a, b in zip(g1, g2):
        assert np.array_equal(a.h, b.h)
    assert nv1 == nv2


def test_fixture_link_clamps_rb_to_width_and_seeds_with_base_seed():
    # MCS 7 fits 4 RB of the slot, but a 24-subcarrier fixture holds 2
    mcs = mcs_entry(7)
    assert linksim.default_rb_allocation(mcs) == 4
    fx = small_fixtures(n_subcarriers=24, base_seed=5)
    cfg = fx.link(4, 6, mcs, "mmse", 16, csi="ls_dmrs")
    assert cfg == linksim.LinkConfig(
        n_streams=4, m_antennas=6, mcs=mcs, detector="mmse", n_paths=16,
        csi="ls_dmrs", seed=5, rb_per_vehicle=2)
    # an allocation narrower than the fixture is kept
    assert small_fixtures(n_subcarriers=24).link(
        2, 2, mcs_entry(12), "mmse", 32).rb_per_vehicle == 1


def test_min_antennas_easy_case():
    fx = small_fixtures()
    cell = search.min_antennas(2, 0, "mmse", fx, frames_per_channel=2,
                                n_paths=32)
    assert cell.supported
    assert cell.min_antennas >= 2
    assert cell.measured_per <= search.PER_THRESHOLD
    assert np.isnan(cell.per_below) or cell.per_below > search.PER_THRESHOLD


def test_min_antennas_unsupported_sentinel():
    fx = small_fixtures(region=ch.SnrRegion(-20.0, jitter_db=0.0))
    cell = search.min_antennas(2, 12, "mmse", fx, frames_per_channel=2,
                                n_paths=32)
    assert not cell.supported
    assert cell.min_antennas == search.UNSUPPORTED
    # the blocks behind measured_per, those at M_MAX: 2 channels x 2
    # frames x 2 streams
    assert cell.frames == 8


def test_min_antennas_measures_per_below_overloaded_mpnl():
    # QPSK, N=6, 32 paths: the walk starts at M_MIN, so the PER one
    # antenna below the answer is measured, not the 1.0 of a skipped M
    cell = search.min_antennas(6, 2, "mpnl", small_fixtures(),
                               frames_per_channel=2, n_paths=32)
    assert cell.min_antennas == 4
    assert search.PER_THRESHOLD < cell.per_below < 1.0


def test_min_antennas_zf_requires_full_rank():
    fx = small_fixtures()
    cell = search.min_antennas(3, 0, "zf", fx, frames_per_channel=2,
                                n_paths=32)
    assert cell.min_antennas >= 3


def test_heatmap_runs_and_reports_progress():
    fx = small_fixtures()
    seen = []
    cells = search.heatmap([2], [0], ["mmse", "mpnl"], fx,
                           frames_per_channel=2, n_paths=32,
                           progress=seen.append)
    assert len(cells) == len(seen) == 2
    assert {c.detector for c in cells} == {"mmse", "mpnl"}


def test_csv_roundtrip(tmp_path):
    cells = [
        search.SearchCell(2, 0, "mmse", 3, 0.05, 0.4, 400),
        search.SearchCell(4, 12, "mpnl", search.UNSUPPORTED, 0.9, 0.9, 0),
    ]
    path = tmp_path / "grid.csv"
    search.write_csv(path, {"seed": 1}, search.HEATMAP_HEADER,
                     search.heatmap_rows(cells))
    text = path.read_text()
    assert text.startswith("# seed: 1\n")
    assert "unsupported" in text
    back = search.read_heatmap_csv(path)
    assert back == cells
    # a header-only table is a table with no cells
    search.write_csv(path, {}, search.HEATMAP_HEADER, search.heatmap_rows([]))
    assert search.read_heatmap_csv(path) == []


def test_cells_to_table():
    cell = search.SearchCell(2, 0, "mmse", 3, 0.05, 0.4, 400)
    table = search.cells_to_table([cell])
    assert table[(2, 0, "mmse")] is cell
