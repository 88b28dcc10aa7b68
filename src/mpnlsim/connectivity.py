"""Vehicle-count dimensioning and RF-chain power savings.

The maximum number of concurrently served vehicles for a use case with
uplink rate R is

    floor(NRB / floor(R / (SE * SCS * SC_RB))) * N

with a one-resource-block scheduling unit; when the per-vehicle demand
ratio R / (SE * SCS * SC_RB) is below 1, the scheduling unit dictates the
maximum, NRB * N.  A ratio of exactly 1 takes the floor branch (same
result, fixed boundary).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import linksim
from .core import DEFAULT_NUMEROLOGY, Numerology, UseCase

DEFAULT_CHAIN_POWER_W = 15.6


class UnsupportableUseCase(ValueError):
    """Per-vehicle RB demand exceeds the carrier's resource blocks."""


@dataclass(frozen=True)
class ConnectivityQuery:
    use_case: UseCase
    se: float                       # average per-vehicle bits/s/Hz
    n_streams: int
    numerology: Numerology = DEFAULT_NUMEROLOGY

    def __post_init__(self):
        if self.se <= 0:
            raise ValueError("spectral efficiency must be positive")
        if self.n_streams < 1:
            raise ValueError("n_streams must be >= 1")


def max_vehicles(q: ConnectivityQuery) -> int:
    num = q.numerology
    ratio = q.use_case.rate_bps / (q.se * num.scs_hz * num.sc_per_rb)
    if ratio < 1:
        return num.n_rb * q.n_streams
    rb_per_vehicle = math.floor(ratio)
    if rb_per_vehicle > num.n_rb:
        raise UnsupportableUseCase(
            f"{q.use_case.name}: needs {rb_per_vehicle} RBs/vehicle, "
            f"carrier has {num.n_rb}")
    return (num.n_rb // rb_per_vehicle) * q.n_streams


@dataclass(frozen=True)
class PowerQuery:
    m_linear: int
    m_nonlinear: int
    p_chain_w: float = DEFAULT_CHAIN_POWER_W

    def __post_init__(self):
        if not self.m_linear >= self.m_nonlinear >= 0:
            raise ValueError("need m_linear >= m_nonlinear >= 0")


def power_savings(q: PowerQuery) -> float:
    """Saved watts from the removed RF chains."""
    return (q.m_linear - q.m_nonlinear) * q.p_chain_w


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
    Stream counts above linksim.MAX_STREAMS are ignored.
    """
    best = None
    for (n, mi, det), cell in table.items():
        if det != detector or mi != mcs_index or n > linksim.MAX_STREAMS:
            continue
        if best is None:
            best = 0
        if cell.supported and cell.min_antennas <= budget:
            best = max(best, n)
    return best


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
            streams, vehicles = {}, {}
            for det in ("mmse", "mpnl"):
                n = max_streams_for_budget(table, det, mcs_index, budget)
                streams[det] = n
                if n is None:
                    vehicles[det] = None
                elif n == 0:
                    vehicles[det] = 0
                else:
                    q = ConnectivityQuery(use_case=uc, se=se, n_streams=n)
                    try:
                        vehicles[det] = max_vehicles(q)
                    except UnsupportableUseCase:
                        vehicles[det] = 0
            vb, vo = vehicles["mmse"], vehicles["mpnl"]
            if vb is None or vo is None:
                ratio = None
            elif vb == vo:
                ratio = 1.0
            elif vb == 0:
                ratio = math.inf
            else:
                ratio = vo / vb
            rows.append(ReportRow(use_case=uc.name, antenna_budget=budget,
                                  streams=streams, vehicles=vehicles,
                                  gain_ratio=ratio))
    return rows
