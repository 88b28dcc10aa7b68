import math

import pytest

from mpnlsim import connectivity as conn
from mpnlsim.core import DEFAULT_NUMEROLOGY, UseCase
from mpnlsim.search import SearchCell, UNSUPPORTED, cells_to_table

RB_RATE = DEFAULT_NUMEROLOGY.scs_hz * DEFAULT_NUMEROLOGY.sc_per_rb  # bps/RB @ SE 1


def vehicles(rate_bps, se, n):
    return conn.max_vehicles(UseCase("t", rate_bps), se, n)


def test_low_demand_limited_by_scheduling_unit():
    # demand below one RB: every RB can serve a vehicle
    assert vehicles(0.5 * RB_RATE, 1.0, 4) == DEFAULT_NUMEROLOGY.n_rb * 4


def test_integer_rb_demand():
    # exactly 2 RBs per vehicle at SE 1
    assert vehicles(2 * RB_RATE, 1.0, 3) == (DEFAULT_NUMEROLOGY.n_rb // 2) * 3


def test_fractional_demand_floors():
    # 2.9 RBs of demand floors to 2 RBs per vehicle
    assert vehicles(2.9 * RB_RATE, 1.0, 1) == DEFAULT_NUMEROLOGY.n_rb // 2


def test_boundary_ratio_one():
    assert vehicles(RB_RATE, 1.0, 2) == DEFAULT_NUMEROLOGY.n_rb * 2


def test_se_scales_capacity():
    lo = vehicles(6 * RB_RATE, 1.0, 1)
    hi = vehicles(6 * RB_RATE, 2.0, 1)
    assert hi == 2 * lo


def test_unsupportable_demand():
    # more RBs per vehicle than the carrier has: no vehicle is served, also
    # at an infinite demand, which cannot be floored; a ratio in
    # [n_rb, n_rb + 1) still serves one vehicle per stream
    assert vehicles((DEFAULT_NUMEROLOGY.n_rb + 1) * RB_RATE, 1.0, 1) == 0
    assert conn.max_vehicles(UseCase("x", math.inf), 1.0, 4) == 0
    assert vehicles((DEFAULT_NUMEROLOGY.n_rb + 0.5) * RB_RATE, 1.0, 4) == 4


def test_query_validation():
    with pytest.raises(ValueError):
        vehicles(1e6, 0.0, 1)
    with pytest.raises(ValueError):
        vehicles(1e6, 1.0, 0)


def test_power_savings():
    assert conn.power_savings(10, 4) == pytest.approx(93.6)
    assert conn.power_savings(5, 5) == 0.0
    assert conn.power_savings(3, 1, p_chain_w=2.0) == pytest.approx(4.0)
    with pytest.raises(ValueError):
        conn.power_savings(2, 4)


def fake_table():
    cells = [
        SearchCell(2, 12, "mmse", 3, 0.05, 0.2, 400),
        SearchCell(4, 12, "mmse", 5, 0.05, 0.2, 400),
        SearchCell(6, 12, "mmse", 8, 0.05, 0.2, 400),
        SearchCell(2, 12, "mpnl", 2, 0.05, 0.2, 400),
        SearchCell(4, 12, "mpnl", 4, 0.05, 0.2, 400),
        SearchCell(6, 12, "mpnl", 6, 0.05, 0.2, 400),
        SearchCell(6, 2, "mpnl", UNSUPPORTED, 0.9, 0.9, 0),
    ]
    return cells_to_table(cells)


def test_max_streams_for_budget():
    table = fake_table()
    assert conn.max_streams_for_budget(table, "mpnl", 12, 6) == 6
    assert conn.max_streams_for_budget(table, "mmse", 12, 6) == 4
    assert conn.max_streams_for_budget(table, "mmse", 12, 2) == 0
    assert conn.max_streams_for_budget(table, "zf", 12, 8) is None
    assert conn.max_streams_for_budget(table, "mpnl", 2, 8) == 0  # unsupported


def test_connectivity_report_shape_and_gains():
    table = fake_table()
    uc = [UseCase("a", 2 * RB_RATE), UseCase("b", 0.1 * RB_RATE)]
    rows = conn.connectivity_report(uc, 1.0, table, 12, [4, 8])
    assert len(rows) == 4
    for row in rows:
        assert set(row.streams) == {"mmse", "mpnl"}
        assert row.vehicles["mpnl"] >= row.vehicles["mmse"]
        assert row.gain_ratio >= 1.0
    by_key = {(r.use_case, r.antenna_budget): r for r in rows}
    # budget 4: mpnl fits 4 streams, mmse only 2 -> double the vehicles
    assert by_key[("a", 4)].gain_ratio == pytest.approx(2.0)
    # budget 8: both reach 6 streams
    assert by_key[("a", 8)].gain_ratio == pytest.approx(1.0)


def test_connectivity_report_zero_baseline_is_infinite_gain():
    table = fake_table()
    rows = conn.connectivity_report([UseCase("a", RB_RATE)], 1.0, table, 12,
                                    [2])
    assert rows[0].vehicles["mmse"] == 0
    assert rows[0].gain_ratio == math.inf


def test_connectivity_report_equal_rows_ratio_one():
    cells = [SearchCell(2, 12, "mmse", 2, 0.0, 0.2, 400),
             SearchCell(2, 12, "mpnl", 2, 0.0, 0.2, 400)]
    rows = conn.connectivity_report([UseCase("a", RB_RATE)], 1.0,
                                    cells_to_table(cells), 12, [4])
    assert rows[0].gain_ratio == 1.0
