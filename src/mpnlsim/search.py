"""Minimum-antenna search: sweep the antenna count upward per
(streams, MCS, detector) until the average PER meets the 10% threshold,
and assemble the result grid for heatmap emission.

Channel fixtures are deterministic functions of (base seed, N, M, index),
so both detectors draw from the same channel group; the early stop may
end them on different prefixes of it.
"""

from __future__ import annotations

import csv
import itertools
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from . import channel as ch
from . import detect, linksim
from .core import DEFAULT_NUMEROLOGY, Numerology, mcs_entry

PER_THRESHOLD = 0.10
M_MIN, M_MAX = 2, linksim.MAX_ANTENNAS
UNSUPPORTED = 0   # sentinel for "no antenna count up to 32 qualifies"
HEATMAP_HEADER = ("streams", "mcs", "detector", "min_antennas", "per",
                  "per_below", "frames")


@dataclass(frozen=True)
class FixtureConfig:
    """Seeded channel-fixture generator shared across detectors."""

    profile: ch.ClusterProfile = ch.TDL_B_LIKE
    mobility: ch.MobilityConfig = ch.MobilityConfig()
    region: ch.SnrRegion = ch.REGION_R1
    channels_per_group: int = 50
    base_seed: int = 20240
    n_subcarriers: int = 24
    # the link chain's slot, read only by perfbench/workloads.py
    numerology: ClassVar[Numerology] = DEFAULT_NUMEROLOGY

    def seeds(self, n: int, m: int):
        root = np.random.SeedSequence(entropy=(self.base_seed, n, m))
        return root.spawn(self.channels_per_group)

    def channels(self, n: int, m: int):
        """The fixture group for one (streams, antennas) pair."""
        return self.generate(n, m, self.seeds(n, m))

    def generate(self, n: int, m: int, seeds):
        """One channel grid and calibrated noise variance per SeedSequence;
        its first child, made without spawning, draws the SNR jitter."""
        grids, nvs = [], []
        for ss in seeds:
            g = ch.tdl_generate(self.profile, self.mobility,
                                m=m, n=n, seed=ss,
                                n_subcarriers=self.n_subcarriers)
            grids.append(g)
            jitter = np.random.SeedSequence(ss.entropy,
                                            spawn_key=(*ss.spawn_key, 0))
            nvs.append(ch.calibrate_noise(self.region, g, jitter))
        return grids, nvs

    def link(self, n: int, m: int, mcs, detector: str, n_paths: int,
             csi: str = "genie") -> linksim.LinkConfig:
        """A cell's link on this fixture: the RB allocation for `mcs`
        clamped to its width, payloads and noise seeded by base_seed."""
        rb = min(linksim.default_rb_allocation(mcs),
                 self.n_subcarriers // DEFAULT_NUMEROLOGY.sc_per_rb)
        return linksim.LinkConfig(
            n_streams=n, m_antennas=m, mcs=mcs, detector=detector,
            n_paths=n_paths, csi=csi, seed=self.base_seed, rb_per_vehicle=rb)


@dataclass(frozen=True)
class SearchCell:
    n_streams: int
    mcs_index: int
    detector: str
    min_antennas: int            # UNSUPPORTED (0) if none up to 32 qualify
    measured_per: float
    per_below: float             # PER at min_antennas - 1: nan at M_MIN,
                                 # 1.0 below ZF's floor of N > M_MIN
    frames: int

    @property
    def supported(self) -> bool:
        return self.min_antennas != UNSUPPORTED


def min_antennas(n: int, mcs_index: int, detector: str,
                 fixtures: FixtureConfig, frames_per_channel: int,
                 n_paths: int) -> SearchCell:
    """Smallest antenna count meeting the PER threshold (first hit)."""
    mcs = mcs_entry(mcs_index)
    m_needed = detect.check_antenna_floor(
        detector, n, M_MAX, mcs.constellation.order, n_paths)
    # too few antennas for the detector counts as failing
    prev_per = 1.0 if M_MIN < m_needed else float("nan")
    frames = 0
    for m in range(max(M_MIN, m_needed), M_MAX + 1):
        cfg = fixtures.link(n, m, mcs, detector, n_paths)
        grids, nvs = fixtures.channels(n, m)
        res = linksim.measure_per(cfg, grids, nvs,
                                  frames_per_channel=frames_per_channel,
                                  stop_threshold=PER_THRESHOLD)
        if res.per <= PER_THRESHOLD:
            return SearchCell(n_streams=n, mcs_index=mcs_index,
                              detector=detector, min_antennas=m,
                              measured_per=res.per, per_below=prev_per,
                              frames=res.frames)
        prev_per, frames = res.per, res.frames
    # the blocks behind measured_per: those measured at M_MAX
    return SearchCell(n_streams=n, mcs_index=mcs_index, detector=detector,
                      min_antennas=UNSUPPORTED, measured_per=prev_per,
                      per_below=prev_per, frames=frames)


def heatmap(streams, mcs_list, detectors, fixtures: FixtureConfig,
            frames_per_channel: int, n_paths: int,
            progress=None) -> list[SearchCell]:
    """Full (streams x MCS x detector) minimum-antenna grid."""
    grid = list(itertools.product(streams, mcs_list, detectors))
    # every cell's link settings fail before any cell runs
    for n, mi, name in grid:
        fixtures.link(n, M_MAX, mcs_entry(mi), name, n_paths)
    cells = []
    for n, mi, name in grid:
        cell = min_antennas(n, mi, name, fixtures,
                            frames_per_channel=frames_per_channel,
                            n_paths=n_paths)
        cells.append(cell)
        if progress:
            progress(cell)
    return cells


def write_csv(path, manifest: dict, header, rows) -> None:
    """A table: one `# key: value` line per manifest entry, then the
    header and the rows."""
    with open(path, "w", newline="") as f:
        f.writelines(f"# {k}: {v}\n" for k, v in manifest.items())
        csv.writer(f).writerows([header, *rows])


def heatmap_rows(cells) -> list[list]:
    """The HEATMAP_HEADER rows of `cells`."""
    return [[c.n_streams, c.mcs_index, c.detector,
             c.min_antennas if c.supported else "unsupported",
             f"{c.measured_per:.6g}", f"{c.per_below:.6g}", c.frames]
            for c in cells]


def read_heatmap_csv(path) -> list[SearchCell]:
    """Read back a grid written by write_csv with HEATMAP_HEADER and
    heatmap_rows, skipping its manifest lines; ValueError unless its
    first row is HEATMAP_HEADER, each row has a field per column, a stream
    count in [1, linksim.MAX_STREAMS], a min_antennas of "unsupported" or
    in [M_MIN, M_MAX], and a (streams, mcs, detector) no other row has."""
    cells, keys = [], set()
    with open(path) as f:
        rows = [r for r in csv.reader(
            line for line in f if not line.startswith("#"))]
    if rows[:1] != [list(HEATMAP_HEADER)] or any(
            len(row) != len(HEATMAP_HEADER) for row in rows):
        raise ValueError(f"{path} is not a heatmap table written by search")
    for row in rows[1:]:
        n, mi, detector, m, per, per_below, frames = row
        key = (int(n), int(mi), detector)
        if not 1 <= key[0] <= linksim.MAX_STREAMS:
            raise ValueError(f"{path}: {n} streams is outside "
                             f"[1, {linksim.MAX_STREAMS}]")
        if m != "unsupported" and not M_MIN <= int(m) <= M_MAX:
            raise ValueError(f"{path}: row {','.join(row)} has min_antennas "
                             f"outside [{M_MIN}, {M_MAX}]")
        if key in keys:
            raise ValueError(f"{path}: row {','.join(row)} repeats its "
                             "(streams, mcs, detector)")
        keys.add(key)
        cells.append(SearchCell(
            *key, min_antennas=UNSUPPORTED if m == "unsupported" else int(m),
            measured_per=float(per), per_below=float(per_below),
            frames=int(frames)))
    return cells


def cells_to_table(cells) -> dict:
    """Index cells by (streams, mcs, detector) for report consumption."""
    return {(c.n_streams, c.mcs_index, c.detector): c for c in cells}
