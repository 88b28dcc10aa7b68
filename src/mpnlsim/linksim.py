"""End-to-end uplink slot simulation.

One frame = one slot: each of the N single-antenna vehicles encodes one
transport block (one LDPC codeword, rate-matched to its resource
allocation), modulates it over rb_per_vehicle resource blocks x 12 data
symbols, and all N streams superpose at the M-antenna receiver through
the channel grid.  Two DMRS symbols carry per-stream disjoint comb pilots
for least-squares channel estimation; in genie mode the true per-RE
channel is used instead.  Detection runs per resource element; LLRs are
concatenated per vehicle and LDPC-decoded.

Per-frame randomness is drawn from streams keyed by
(seed, channel index, frame index), so results are independent of
worker scheduling and batch partitioning.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import detect as det
from . import fec
from .channel import ChannelGrid
from .core import (DATA_SYMBOLS, DEFAULT_NUMEROLOGY, DMRS_COMBS,
                   DMRS_SYMBOLS, MAX_STREAMS, McsEntry, modulate)

MAX_ANTENNAS = 32
MIN_FRAMES = 400   # blocks measured before an early stop may fire
FRAME_BATCH = 25   # frames per simulate_frames call in measure_per
CSI_MODES = ("genie", "ls_dmrs")


@dataclass(frozen=True)
class LinkConfig:
    n_streams: int
    m_antennas: int
    mcs: McsEntry
    detector: str = "mpnl"
    n_paths: int = 32
    rb_per_vehicle: int | None = None
    csi: str = "genie"
    seed: int = 0

    def __post_init__(self):
        if not 1 <= self.n_streams <= MAX_STREAMS:
            raise ValueError(f"n_streams must be in [1, {MAX_STREAMS}]")
        if not 1 <= self.m_antennas <= MAX_ANTENNAS:
            raise ValueError(f"m_antennas must be in [1, {MAX_ANTENNAS}]")
        det.check_antenna_floor(self.detector, self.n_streams, self.m_antennas,
                                self.mcs.constellation.order, self.n_paths)
        if self.csi not in CSI_MODES:
            raise ValueError(f"csi must be one of {CSI_MODES}")
        if self.rb_per_vehicle is None:
            object.__setattr__(self, "rb_per_vehicle",
                               default_rb_allocation(self.mcs))
        if not 1 <= self.rb_per_vehicle <= DEFAULT_NUMEROLOGY.n_rb:
            raise ValueError("rb_per_vehicle out of range")
        self.rate_match         # a block the code cannot fit fails here

    @property
    def n_subcarriers(self) -> int:
        return self.rb_per_vehicle * DEFAULT_NUMEROLOGY.sc_per_rb

    @property
    def rate_match(self) -> fec.RateMatch:
        """The transport block's fit to the mother code."""
        return design_block(self.mcs, self.rb_per_vehicle)


@functools.cache
def design_block(mcs: McsEntry, rb: int) -> fec.RateMatch:
    """The one block-size rule: the mother code fit by fec.design_rate_match
    to the data bits of rb RBs at `mcs`, or its ValueError."""
    bits = rb * DEFAULT_NUMEROLOGY.sc_per_rb * len(DATA_SYMBOLS) * \
        mcs.constellation.bits_per_symbol
    return fec.design_rate_match(fec.default_code(), mcs.code_rate, bits)


@functools.cache
def default_rb_allocation(mcs: McsEntry) -> int:
    """Largest RB count, up to n_rb, that design_block accepts."""
    for rb in range(DEFAULT_NUMEROLOGY.n_rb, 0, -1):
        try:
            design_block(mcs, rb)
            return rb
        except ValueError as e:
            reason = e
    raise ValueError(f"MCS {mcs.index} does not fit one RB: {reason}")


@dataclass(frozen=True)
class PerResult:
    frames: int
    errors: int

    @property
    def per(self) -> float:
        return self.errors / self.frames

    @property
    def ci95_halfwidth(self) -> float:
        p = self.per
        return 1.96 * np.sqrt(max(p * (1 - p), 1e-12) / self.frames)


def _frame_rng(seed: int, chan_idx: int, frame_idx: int):
    return np.random.default_rng(
        np.random.SeedSequence(entropy=(seed, chan_idx, frame_idx)))


def _pilots(n: int, n_sc: int):
    """The (N,) DMRS symbols and (N, n_sc / DMRS_COMBS) pilot subcarriers of
    N streams: stream v fills comb v % DMRS_COMBS of DMRS symbol
    v // DMRS_COMBS."""
    v = np.arange(n)
    sc = v[:, None] % DMRS_COMBS + np.arange(0, n_sc, DMRS_COMBS)
    return np.take(DMRS_SYMBOLS, v // DMRS_COMBS), sc


def estimate_channel_ls(y: np.ndarray, cfg: LinkConfig) -> np.ndarray:
    """LS channel estimates of a batch from its DMRS observations.

    y: (F, symbols, subcarriers, M) received samples of F slots.  Every
    pilot is 1, so a stream's observations at its pilots are its LS
    estimate.  Returns the (F, subcarriers, M, N) estimate, the same on
    every symbol: each subcarrier takes its stream's nearest pilot, the
    lower one on a tie.
    """
    n_sc, n = cfg.n_subcarriers, cfg.n_streams
    sym, sc = _pilots(n, n_sc)
    near = np.abs(np.arange(n_sc)[:, None, None] - sc).argmin(axis=2)
    pilot = sc[np.arange(n), near]                       # (n_sc, N)
    ant = np.arange(y.shape[-1])[:, None]
    return y[:, sym, pilot[:, None, :], ant]


def simulate_frames(cfg: LinkConfig, grid: ChannelGrid, noise_var: float,
                    chan_idx: int, frame_indices) -> np.ndarray:
    """Simulate a batch of frames on one channel realization.

    Returns a boolean array (n_frames, n_streams): True = transport block
    decoded correctly (converged and bit-exact).
    """
    n_sym = DEFAULT_NUMEROLOGY.symbols_per_slot
    n_sc = cfg.n_subcarriers
    n, m = cfg.n_streams, cfg.m_antennas
    if any(np.less(grid.h.shape[1:], (n_sc, m, n))):
        raise ValueError("channel grid is smaller than the configuration")
    h = grid.h[:, :n_sc, :m, :n]
    c = cfg.mcs.constellation
    bps = c.bits_per_symbol
    code = fec.default_code()
    rm = cfg.rate_match
    n_data = len(DATA_SYMBOLS)
    frame_indices = list(frame_indices)
    f = len(frame_indices)

    # per-frame payloads and noise, drawn from per-frame streams
    info = np.empty((f, n, rm.k_tb), dtype=np.uint8)
    noise = np.empty((f, n_sym, n_sc, m), dtype=complex)
    for i, fi in enumerate(frame_indices):
        rng = _frame_rng(cfg.seed, chan_idx, fi)
        info[i] = rng.integers(0, 2, (n, rm.k_tb))
        noise[i] = np.sqrt(noise_var / 2) * (
            rng.standard_normal((n_sym, n_sc, m))
            + 1j * rng.standard_normal((n_sym, n_sc, m)))

    tx_bits = fec.encode_rate_matched(code, rm, info.reshape(f * n, rm.k_tb))
    symbols = modulate(tx_bits.reshape(-1), c).reshape(f, n, n_data, n_sc)

    # transmit grid: (F, symbols, subcarriers, N), unit pilots
    x = np.zeros((f, n_sym, n_sc, n), dtype=complex)
    x[:, DATA_SYMBOLS] = symbols.transpose(0, 2, 3, 1)
    sym, sc = _pilots(n, n_sc)
    x[:, sym[:, None], sc, np.arange(n)[:, None]] = 1

    y = np.einsum("tfmn,btfn->btfm", h, x) + noise    # (F, sym, sc, M)

    # per-RE detection, planned once on the batch's distinct channels and
    # applied to each observation set sharing them: genie CSI is one channel
    # per data RE for every frame, LS one per frame and subcarrier for every
    # data symbol
    detector = det.DETECTORS[cfg.detector]
    y_data = y[:, DATA_SYMBOLS]                        # (F, data, sc, M)
    llrs = np.empty((f, n_data, n_sc, n, bps))
    if cfg.csi == "genie":
        h_known = np.take(h, DATA_SYMBOLS, axis=0)     # (data, sc, M, N)
        obs_sets, llr_sets = y_data, llrs
    else:
        h_known = estimate_channel_ls(y, cfg)          # (F, sc, M, N)
        obs_sets, llr_sets = y_data.swapaxes(0, 1), llrs.swapaxes(0, 1)
    h_known = h_known.reshape(-1, m, n)
    plan = detector.plan(h_known, noise_var, c, cfg.n_paths)
    for obs, out in zip(obs_sets, llr_sets):
        out[...] = detector.llrs(plan, h_known, obs.reshape(-1, m),
                                 noise_var, c).reshape(out.shape)

    # per-vehicle LLR concatenation in RE order -> decode
    llrs_v = llrs.transpose(0, 3, 1, 2, 4).reshape(f * n, -1)
    dec, conv = fec.decode_rate_matched(code, rm, llrs_v)
    ok = conv & ~np.any(dec != info.reshape(f * n, rm.k_tb), axis=1)
    return ok.reshape(f, n)


def measure_per(cfg: LinkConfig, channels, noise_vars, frames_per_channel: int,
                stop_threshold: float | None = None) -> PerResult:
    """Average transport-block error rate over a channel fixture set.

    channels: sequence of ChannelGrid; noise_vars: matching per-channel
    noise variances.  When stop_threshold is given, measurement stops
    early once the 95% CI excludes it, after at least MIN_FRAMES blocks
    (adaptive budget for sweeps).
    """
    if frames_per_channel < 1:
        raise ValueError("need at least one frame per channel")
    if len(channels) == 0 or len(channels) != len(noise_vars):
        raise ValueError(f"need a non-empty channel set with one noise "
                         f"variance per channel (got {len(channels)} "
                         f"channels, {len(noise_vars)} noise variances)")
    frames = 0
    errors = 0
    for chan_idx, (grid, nv) in enumerate(zip(channels, noise_vars)):
        for start in range(0, frames_per_channel, FRAME_BATCH):
            ok = simulate_frames(
                cfg, grid, nv, chan_idx,
                range(start, min(start + FRAME_BATCH, frames_per_channel)))
            errors += int((~ok).sum())
            frames += ok.size
            if stop_threshold is not None and frames >= MIN_FRAMES:
                res = PerResult(frames=frames, errors=errors)
                lo = res.per - res.ci95_halfwidth
                hi = res.per + res.ci95_halfwidth
                if lo > stop_threshold or hi < stop_threshold:
                    return res
    return PerResult(frames=frames, errors=errors)
