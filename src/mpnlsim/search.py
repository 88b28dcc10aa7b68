"""Minimum-antenna search: sweep the antenna count upward per
(streams, MCS, detector) until the average PER meets the 10% threshold,
and assemble the result grid for heatmap emission.

Channel fixtures are deterministic functions of (base seed, N, M, index),
so both detectors are evaluated on identical channel sets (paired
comparison).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from . import channel as ch
from . import detect, linksim
from .core import DEFAULT_NUMEROLOGY, Numerology, mcs_entry

PER_THRESHOLD = 0.10
M_MIN, M_MAX = 2, 32
UNSUPPORTED = 0   # sentinel for "no antenna count up to 32 qualifies"


@dataclass(frozen=True)
class FixtureConfig:
    """Seeded channel-fixture generator shared across detectors."""

    profile: ch.ClusterProfile = ch.TDL_B_LIKE
    mobility: ch.MobilityConfig = ch.MobilityConfig()
    region: ch.SnrRegion = ch.REGION_R1
    channels_per_group: int = 50
    base_seed: int = 20240
    n_subcarriers: int = 24
    numerology: ClassVar[Numerology] = DEFAULT_NUMEROLOGY

    def seeds(self, n: int, m: int):
        root = np.random.SeedSequence(entropy=(self.base_seed, n, m))
        return root.spawn(self.channels_per_group)

    def channels(self, n: int, m: int):
        """The fixture group for one (streams, antennas) pair."""
        return self.generate(n, m, self.seeds(n, m))

    def generate(self, n: int, m: int, seeds):
        """One channel grid and calibrated noise variance per SeedSequence;
        a child of each seed draws the SNR jitter."""
        grids, nvs = [], []
        for ss in seeds:
            g = ch.tdl_generate(self.profile, self.mobility,
                                m=m, n=n, seed=ss,
                                n_subcarriers=self.n_subcarriers)
            grids.append(g)
            nvs.append(ch.calibrate_noise(self.region, g, ss.spawn(1)[0]))
        return grids, nvs

    def rb_per_vehicle(self, mcs) -> int:
        """The RB allocation for `mcs`, clamped to this fixture's width."""
        return min(linksim.default_rb_allocation(mcs),
                   self.n_subcarriers // self.numerology.sc_per_rb)


@dataclass(frozen=True)
class SearchCell:
    n_streams: int
    mcs_index: int
    detector: str
    min_antennas: int            # UNSUPPORTED (0) if none up to 32 qualify
    measured_per: float
    per_below: float             # recorded PER at min_antennas - 1 (nan at M=2)
    frames: int

    @property
    def supported(self) -> bool:
        return self.min_antennas != UNSUPPORTED


def min_antennas(n: int, mcs_index: int, detector: str,
                 fixtures: FixtureConfig,
                 frames_per_channel: int = 8,
                 n_paths: int = 32,
                 m_range=(M_MIN, M_MAX)) -> SearchCell:
    """Smallest antenna count meeting the PER threshold (first hit)."""
    mcs = mcs_entry(mcs_index)
    m_needed = detect.soft_detector(detector).min_antennas(
        n, mcs.constellation.order, n_paths)
    lo, hi = m_range
    rb = fixtures.rb_per_vehicle(mcs)
    # too few antennas for the detector counts as failing
    prev_per = 1.0 if lo < m_needed else float("nan")
    for m in range(max(lo, m_needed), hi + 1):
        cfg = linksim.LinkConfig(n_streams=n, m_antennas=m, mcs=mcs,
                                 detector=detector, n_paths=n_paths,
                                 seed=fixtures.base_seed, rb_per_vehicle=rb)
        grids, nvs = fixtures.channels(n, m)
        res = linksim.measure_per(cfg, grids, nvs,
                                  frames_per_channel=frames_per_channel,
                                  stop_threshold=PER_THRESHOLD)
        if res.per <= PER_THRESHOLD:
            return SearchCell(n_streams=n, mcs_index=mcs_index,
                              detector=detector, min_antennas=m,
                              measured_per=res.per, per_below=prev_per,
                              frames=res.frames)
        prev_per = res.per
    return SearchCell(n_streams=n, mcs_index=mcs_index, detector=detector,
                      min_antennas=UNSUPPORTED, measured_per=prev_per,
                      per_below=prev_per, frames=0)


def heatmap(streams, mcs_list, detectors, fixtures: FixtureConfig,
            frames_per_channel: int = 8, n_paths: int = 32,
            progress=None) -> list[SearchCell]:
    """Full (streams x MCS x detector) minimum-antenna grid."""
    for name in detectors:     # fail on a bad name before any cell runs
        detect.soft_detector(name)
    cells = []
    for n in streams:
        for mi in mcs_list:
            for name in detectors:
                cell = min_antennas(n, mi, name, fixtures,
                                    frames_per_channel=frames_per_channel,
                                    n_paths=n_paths)
                cells.append(cell)
                if progress:
                    progress(cell)
    return cells


def write_heatmap_csv(cells, path, manifest_lines=()) -> None:
    with open(path, "w", newline="") as f:
        for line in manifest_lines:
            f.write(f"# {line}\n")
        w = csv.writer(f)
        w.writerow(["streams", "mcs", "detector", "min_antennas", "per",
                    "per_below", "frames"])
        for c in cells:
            w.writerow([c.n_streams, c.mcs_index, c.detector,
                        c.min_antennas if c.supported else "unsupported",
                        f"{c.measured_per:.6g}", f"{c.per_below:.6g}",
                        c.frames])


def read_heatmap_csv(path) -> list[SearchCell]:
    """Read back a grid written by write_heatmap_csv."""
    cells = []
    with open(path) as f:
        rows = [r for r in csv.reader(
            line for line in f if not line.startswith("#"))]
    for row in rows[1:]:
        n, mi, detector, m, per, per_below, frames = row
        cells.append(SearchCell(
            n_streams=int(n), mcs_index=int(mi), detector=detector,
            min_antennas=UNSUPPORTED if m == "unsupported" else int(m),
            measured_per=float(per), per_below=float(per_below),
            frames=int(frames)))
    return cells


def cells_to_table(cells) -> dict:
    """Index cells by (streams, mcs, detector) for report consumption."""
    return {(c.n_streams, c.mcs_index, c.detector): c for c in cells}
