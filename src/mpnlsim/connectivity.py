"""Vehicle-count dimensioning and RF-chain power savings.

The maximum number of concurrently served vehicles for a use case with
uplink rate R is

    floor(NRB / floor(R / (SE * SCS * SC_RB))) * N

with a one-resource-block scheduling unit; when the per-vehicle demand
ratio R / (SE * SCS * SC_RB) is below 1, the scheduling unit dictates the
maximum, NRB * N.  A ratio of exactly 1 takes the floor branch (same
result, fixed boundary).  A demand above NRB resource blocks serves no
vehicle: the outer floor is 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import DEFAULT_NUMEROLOGY, UseCase

DEFAULT_CHAIN_POWER_W = 15.6


def max_vehicles(use_case: UseCase, se: float, n_streams: int) -> int:
    """Vehicles served on DEFAULT_NUMEROLOGY at `se` average per-vehicle
    bits/s/Hz with `n_streams` concurrent streams."""
    if se <= 0:
        raise ValueError("spectral efficiency must be positive")
    if n_streams < 1:
        raise ValueError("n_streams must be >= 1")
    num = DEFAULT_NUMEROLOGY
    ratio = use_case.rate_bps / (se * num.scs_hz * num.sc_per_rb)
    if ratio < 1:
        return num.n_rb * n_streams
    # the floor below is 0 here, and an infinite ratio cannot be floored
    if ratio >= num.n_rb + 1:
        return 0
    return (num.n_rb // math.floor(ratio)) * n_streams


def power_savings(m_linear: int, m_nonlinear: int,
                  p_chain_w: float = DEFAULT_CHAIN_POWER_W) -> float:
    """Saved watts from the removed RF chains."""
    if not m_linear >= m_nonlinear >= 0:
        raise ValueError("need m_linear >= m_nonlinear >= 0")
    return (m_linear - m_nonlinear) * p_chain_w


@dataclass(frozen=True)
class ReportRow:
    use_case: str
    antenna_budget: int
    streams: dict            # detector -> supported streams (or None)
    vehicles: dict           # detector -> vehicle count (or None)
    gain_ratio: float | None


def max_streams_for_budget(table: dict, detector: str, mcs_index: int,
                           budget: int):
    """Largest stream count whose min-antenna entry fits the budget.

    table maps (streams, mcs, detector) -> SearchCell.  Returns 0 when no
    entry fits, None when the table has no cells for this detector/MCS.
    """
    cells = [(n, cell) for (n, mi, det), cell in table.items()
             if det == detector and mi == mcs_index]
    if not cells:
        return None
    return max((n for n, cell in cells
                if cell.supported and cell.min_antennas <= budget), default=0)


def connectivity_report(use_cases, se: float, table: dict, mcs_index: int,
                        antenna_budgets) -> list[ReportRow]:
    """Vehicles per (use case, antenna budget) for mmse and mpnl.

    Rows where the table lacks entries are marked unavailable (None).
    The gain ratio compares mpnl against the mmse baseline; equal-zero
    rows get ratio 1.
    """
    rows = []
    for uc in use_cases:
        for budget in antenna_budgets:
            streams = {d: max_streams_for_budget(table, d, mcs_index, budget)
                       for d in ("mmse", "mpnl")}
            vehicles = {d: n and max_vehicles(uc, se, n)
                        for d, n in streams.items()}
            vb, vo = vehicles["mmse"], vehicles["mpnl"]
            ratio = (None if vb is None or vo is None else 1.0 if vb == vo
                     else math.inf if vb == 0 else vo / vb)
            rows.append(ReportRow(uc.name, budget, streams, vehicles, ratio))
    return rows
