"""Fading channel generation.

One generator: a clustered tapped-delay-line model with classical-Doppler
fading, a configurable stand-in for CDL-style profiles.  Doppler fading is
produced by a linear transform of white Gaussians whose covariance is the
exact Jakes autocorrelation J0(2*pi*fd*dt), so the process is exactly
Gaussian with the classical spectrum.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import j0

from .core import DEFAULT_NUMEROLOGY

SPEED_OF_LIGHT = 299_792_458.0

# CP-equivalent guard for 30 kHz SCS; cluster delays must stay inside it.
DELAY_GUARD_S = 2.34e-6


@dataclass(frozen=True)
class ClusterProfile:
    name: str
    delays: tuple          # seconds
    powers: tuple          # linear, sums to 1
    rician_k_db: float | None = None

    def __post_init__(self):
        d = np.asarray(self.delays, dtype=float)
        p = np.asarray(self.powers, dtype=float)
        if d.shape != p.shape or d.ndim != 1 or d.size == 0:
            raise ValueError("delays and powers must be equal-length 1-D")
        if not (np.all(np.isfinite(d)) and np.all(np.isfinite(p))):
            raise ValueError("delays and powers must be finite")
        if np.any(d < 0) or np.any(np.diff(d) < 0):
            raise ValueError("delays must be non-negative and sorted")
        if d[-1] >= DELAY_GUARD_S:
            raise ValueError(
                f"cluster delay exceeds the {DELAY_GUARD_S*1e6} us guard")
        if np.any(p < 0):
            raise ValueError("cluster powers must be non-negative")
        if abs(p.sum() - 1.0) > 1e-9:
            raise ValueError("cluster powers must sum to 1")

    @property
    def los(self) -> bool:
        return self.rician_k_db is not None


def _exp_decay_powers(n: int, decay_db: float) -> tuple:
    p = 10 ** (-decay_db * np.arange(n) / 10)
    return tuple(p / p.sum())


# NLOS stand-in: 6 clusters, 3 dB/cluster exponential decay.
TDL_B_LIKE = ClusterProfile(
    name="tdl-b-like",
    delays=(0.0, 100e-9, 200e-9, 350e-9, 600e-9, 1000e-9),
    powers=_exp_decay_powers(6, 3.0),
)

# LOS stand-in: Rician K = 10 dB on the first cluster + 4 NLOS clusters.
TDL_D_LIKE = ClusterProfile(
    name="tdl-d-like",
    delays=(0.0, 80e-9, 200e-9, 400e-9, 700e-9),
    powers=(0.6, 0.16, 0.12, 0.08, 0.04),
    rician_k_db=10.0,
)

PROFILES = {p.name: p for p in (TDL_B_LIKE, TDL_D_LIKE)}


def profile_from_dict(d: dict) -> ClusterProfile:
    """Load a profile from config fields (delays in ns, powers in dB).
    Powers that overflow normalize to NaN, which ClusterProfile rejects."""
    with np.errstate(over="ignore", invalid="ignore"):
        p = 10 ** (np.asarray(d["powers_db"], dtype=float) / 10)
        p = p / p.sum()
    return ClusterProfile(
        name=d.get("name", "custom"),
        delays=tuple(np.asarray(d["delays_ns"], dtype=float) * 1e-9),
        powers=tuple(p),
        rician_k_db=d.get("rician_k_db"),
    )


@dataclass(frozen=True)
class MobilityConfig:
    speed_kmh: float = 30.0
    carrier_hz: float = 3.5e9

    def __post_init__(self):
        if self.speed_kmh < 0 or self.carrier_hz <= 0:
            raise ValueError("invalid mobility parameters")

    @property
    def doppler_hz(self) -> float:
        return (self.speed_kmh / 3.6) * self.carrier_hz / SPEED_OF_LIGHT


@dataclass(frozen=True)
class SnrRegion:
    name: str
    target_snr_db: float
    jitter_db: float = 1.0


# Figure-caption assignment: the nearer region gets the higher SNR.
REGION_R1 = SnrRegion("R1", 20.0)
REGION_R2 = SnrRegion("R2", 15.0)
REGIONS = {"R1": REGION_R1, "R2": REGION_R2}


@dataclass(frozen=True)
class ChannelGrid:
    """Per-slot channel: h[symbol, subcarrier] is an M x N complex matrix."""

    h: np.ndarray = field(repr=False)   # (symbols, subcarriers, M, N)

    def __post_init__(self):
        if self.h.ndim != 4:
            raise ValueError("grid must be (symbols, subcarriers, M, N)")

    @property
    def n_subcarriers(self) -> int:
        return self.h.shape[1]

    @property
    def m_antennas(self) -> int:
        return self.h.shape[2]

    @property
    def n_streams(self) -> int:
        return self.h.shape[3]


def _jakes_gains(rng, n_clusters: int, m: int, n: int,
                 t: np.ndarray, doppler_hz: float) -> np.ndarray:
    """Unit-variance complex Gaussians with Jakes temporal correlation.

    Returns shape (n_clusters, m, n, len(t)).
    """
    n_t = t.size
    cov = j0(2 * np.pi * doppler_hz * (t[:, None] - t[None, :]))
    w, v = np.linalg.eigh(cov)
    w = np.clip(w, 0.0, None)
    chol = v * np.sqrt(w)           # cov = chol @ chol.T
    white = (rng.standard_normal((n_clusters, m, n, n_t))
             + 1j * rng.standard_normal((n_clusters, m, n, n_t)))
    white /= np.sqrt(2.0)
    return white @ chol.T


def tdl_generate(profile: ClusterProfile, mob: MobilityConfig, *, m: int,
                 n: int, seed, n_subcarriers: int) -> ChannelGrid:
    """Clustered TDL channel over one slot, unit average per-link power."""
    num = DEFAULT_NUMEROLOGY
    delays = np.asarray(profile.delays)
    rng = np.random.default_rng(seed)
    n_sym = num.symbols_per_slot
    t = np.arange(n_sym) * num.symbol_duration_s
    powers = np.asarray(profile.powers)

    g = _jakes_gains(rng, delays.size, m, n, t, mob.doppler_hz)

    if profile.los:
        k = 10 ** (profile.rician_k_db / 10)
        # deterministic (per-seed) LOS phase per link on the first cluster
        phase = rng.uniform(0, 2 * np.pi, size=(m, n))
        los = np.exp(1j * phase)[..., None]
        g = g.copy()
        g[0] = np.sqrt(k / (k + 1)) * los + np.sqrt(1 / (k + 1)) * g[0]

    f = np.arange(n_subcarriers) * num.scs_hz
    steer = np.exp(-2j * np.pi * f[:, None] * delays[None, :])  # (sc, cl)
    amp = np.sqrt(powers)
    # h[sym, sc, m, n] = sum_c amp_c g_c[m, n, sym] steer[sc, c]
    h = np.einsum("c,cmnt,fc->tfmn", amp, g, steer, optimize=True)
    return ChannelGrid(h=np.ascontiguousarray(h))


def calibrate_noise(region: SnrRegion, grid: ChannelGrid, seed) -> float:
    """Noise variance realizing the region's jittered SNR target.

    SNR is defined as per-receive-antenna total signal power over noise
    power, with unit transmit power per stream and unit per-link channel
    gain, so the average signal power per receive antenna equals the
    number of streams.
    """
    rng = np.random.default_rng(seed)
    snr_db = region.target_snr_db + rng.uniform(-region.jitter_db,
                                                region.jitter_db)
    return grid.n_streams / 10 ** (snr_db / 10)
