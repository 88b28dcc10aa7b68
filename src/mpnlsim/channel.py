"""Fading channel generation.

One generator: a clustered tapped-delay-line model with classical-Doppler
fading, a configurable stand-in for CDL-style profiles.  Doppler fading is
produced by a linear transform of white Gaussians whose covariance is the
exact Jakes autocorrelation J0(2*pi*fd*dt), so the process is exactly
Gaussian with the classical spectrum.  J0 is a port of the Cephes routine
that ``scipy.special.j0`` runs, so the package needs no scipy, and the
covariance's factor is computed once per Doppler shift.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .core import DEFAULT_NUMEROLOGY, MAX_STREAMS

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
        for name in ("speed_kmh", "carrier_hz"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.speed_kmh < 0 or self.carrier_hz <= 0:
            raise ValueError("invalid mobility parameters")
        # the Jakes argument 2*pi*fd*dt must stay finite
        if not math.isfinite(2 * math.pi * self.doppler_hz):
            raise ValueError(
                f"speed_kmh={self.speed_kmh} and carrier_hz={self.carrier_hz}"
                " give a Doppler shift beyond the float range")

    @property
    def doppler_hz(self) -> float:
        return (self.speed_kmh / 3.6) * self.carrier_hz / SPEED_OF_LIGHT


@dataclass(frozen=True)
class SnrRegion:
    """An SNR target whose fixtures draw their SNR uniformly within
    +- jitter_db of it."""

    target_snr_db: float
    jitter_db: float = 1.0

    def __post_init__(self):
        for name in ("target_snr_db", "jitter_db"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.jitter_db < 0:
            raise ValueError("jitter_db must be >= 0")
        t, j = self.target_snr_db, self.jitter_db
        check_snr_range(f"target_snr_db={t} with jitter_db={j}", t - j,
                        t + j, MAX_STREAMS)


# The largest noise variance a region or bench may give: a product of two
# noise-scale quantities, such as a squared residual, stays finite.
MAX_NOISE_VARIANCE = math.sqrt(sys.float_info.max)


def noise_variance(n_streams: int, snr_db: float) -> float:
    """The noise variance at which n_streams unit-power streams over
    unit-gain links arrive at snr_db per receive antenna."""
    return n_streams / 10 ** (snr_db / 10)


def check_snr_range(what: str, lo_db: float, hi_db: float,
                    max_streams: int):
    """ValueError naming `what` unless every SNR in [lo_db, hi_db] gives 1
    to max_streams streams a noise variance in (0, MAX_NOISE_VARIANCE].
    The variance falls with the SNR and grows with the stream count, so
    one stream at hi_db decides the lower end and max_streams at lo_db the
    upper."""
    def variance(n, snr):
        try:
            return noise_variance(n, snr)
        except (OverflowError, ZeroDivisionError):
            return math.nan

    for n, ok in ((1, variance(1, hi_db) > 0),
                  (max_streams, variance(max_streams, lo_db)
                   <= MAX_NOISE_VARIANCE)):
        if not ok:
            raise ValueError(f"{what} gives a noise variance outside "
                             f"(0, {MAX_NOISE_VARIANCE:.3g}] for N = {n}")


# Figure-caption assignment: the nearer region gets the higher SNR.
REGION_R1 = SnrRegion(20.0)
REGION_R2 = SnrRegion(15.0)
REGIONS = {"R1": REGION_R1, "R2": REGION_R2}


@dataclass(frozen=True)
class ChannelGrid:
    """Per-slot channel: h[symbol, subcarrier] is an M x N complex matrix."""

    h: np.ndarray = field(repr=False)   # (symbols, subcarriers, M, N)

    def __post_init__(self):
        if self.h.ndim != 4:
            raise ValueError("grid must be (symbols, subcarriers, M, N)")


# Cephes j0 coefficients.  x <= 5: J0 = (z - DR1)(z - DR2) RP(z) / RQ(z),
# z = x^2, DR1 and DR2 the squares of J0's first two zeros; x > 5: the
# asymptotic form with P = PP/PQ and Q = QP/QQ in 25/x^2.  RQ and QQ carry
# the leading 1 that Cephes' p1evl implies: 1.0 * z + c rounds as z + c.
_J0_DR1 = 5.78318596294678452118E0
_J0_DR2 = 3.04712623436620863991E1
_J0_RP = (-4.79443220978201773821E9, 1.95617491946556577543E12,
          -2.49248344360967716204E14, 9.70862251047306323952E15)
_J0_RQ = (1.0, 4.99563147152651017219E2, 1.73785401676374683123E5,
          4.84409658339962045305E7, 1.11855537045356834862E10,
          2.11277520115489217587E12, 3.10518229857422583814E14,
          3.18121955943204943306E16, 1.71086294081043136091E18)
_J0_PP = (7.96936729297347051624E-4, 8.28352392107440799803E-2,
          1.23953371646414299388E0, 5.44725003058768775090E0,
          8.74716500199817011941E0, 5.30324038235394892183E0,
          9.99999999999999997821E-1)
_J0_PQ = (9.24408810558863637013E-4, 8.56288474354474431428E-2,
          1.25352743901058953537E0, 5.47097740330417105182E0,
          8.76190883237069594232E0, 5.30605288235394617618E0,
          1.00000000000000000218E0)
_J0_QP = (-1.13663838898469149931E-2, -1.28252718670509318512E0,
          -1.95539544257735972385E1, -9.32060152123768231369E1,
          -1.77681167980488050595E2, -1.47077505154951170175E2,
          -5.14105326766599330220E1, -6.05014350600728481186E0)
_J0_QQ = (1.0, 6.43178256118178023184E1, 8.56430025976980587198E2,
          3.88240183605401609683E3, 7.24046774195652478189E3,
          5.93072701187316984827E3, 2.06209331660327847417E3,
          2.42005740240291393179E2)
_SQ2OPI = 7.9788456080286535587989E-1    # sqrt(2 / pi)


def _polevl(x: float, coef: tuple) -> float:
    """coef[0] x^n + ... + coef[n] by Horner's rule, as Cephes' polevl."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _j0(x: float) -> float:
    """Bessel J0 of a finite float, bit for bit ``scipy.special.j0``: the
    Cephes routine's operations in its order, on Python floats (no fused
    multiply-add)."""
    x = abs(x)
    if x <= 5.0:
        z = x * x
        if x < 1.0e-5:
            return 1.0 - z / 4.0
        return ((z - _J0_DR1) * (z - _J0_DR2) * _polevl(z, _J0_RP)
                / _polevl(z, _J0_RQ))
    w = 5.0 / x
    q = 25.0 / (x * x)
    p = _polevl(q, _J0_PP) / _polevl(q, _J0_PQ)
    q = _polevl(q, _J0_QP) / _polevl(q, _J0_QQ)
    xn = x - math.pi / 4
    p = p * math.cos(xn) - w * q * math.sin(xn)
    return p * _SQ2OPI / math.sqrt(x)


@functools.cache
def _jakes_factor(doppler_hz: float) -> np.ndarray:
    """Read-only F with F @ F.T the Jakes covariance J0(2*pi*fd*dt) over
    one slot's symbol times, computed once per Doppler shift."""
    num = DEFAULT_NUMEROLOGY
    t = np.arange(num.symbols_per_slot) * num.symbol_duration_s
    arg = 2 * np.pi * doppler_hz * (t[:, None] - t[None, :])
    # every element: t_i - t_j at equal |i - j| can differ in the last bit
    cov = np.array([_j0(a) for a in arg.ravel().tolist()]).reshape(arg.shape)
    w, v = np.linalg.eigh(cov)
    w = np.clip(w, 0.0, None)
    chol = v * np.sqrt(w)           # cov = chol @ chol.T
    chol.flags.writeable = False
    return chol


def _jakes_gains(rng, n_clusters: int, m: int, n: int,
                 doppler_hz: float) -> np.ndarray:
    """Unit-variance complex Gaussians with Jakes temporal correlation.

    Returns shape (n_clusters, m, n, symbols per slot), a fresh array.
    """
    chol = _jakes_factor(doppler_hz)
    n_t = chol.shape[0]
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
    powers = np.asarray(profile.powers)

    g = _jakes_gains(rng, delays.size, m, n, mob.doppler_hz)

    if profile.los:
        k = 10 ** (profile.rician_k_db / 10)
        # deterministic (per-seed) LOS phase per link on the first cluster
        phase = rng.uniform(0, 2 * np.pi, size=(m, n))
        los = np.exp(1j * phase)[..., None]
        g[0] = np.sqrt(k / (k + 1)) * los + np.sqrt(1 / (k + 1)) * g[0]

    f = np.arange(n_subcarriers) * num.scs_hz
    steer = np.exp(-2j * np.pi * f[:, None] * delays[None, :])  # (sc, cl)
    amp = np.sqrt(powers)
    # h[sym, sc, m, n] = sum_c amp_c g_c[m, n, sym] steer[sc, c]
    h = np.einsum(_TDL_SPEC, amp, g, steer,
                  optimize=_tdl_path(amp.shape, g.shape, steer.shape))
    return ChannelGrid(h=np.ascontiguousarray(h))


_TDL_SPEC = "c,cmnt,fc->tfmn"


@functools.cache
def _tdl_path(*shapes) -> list:
    """The contraction path that optimize=True picks for tdl_generate's
    einsum on operands of these shapes; it depends on the shapes alone,
    so it is searched once per shape, not once per channel."""
    return np.einsum_path(_TDL_SPEC, *(np.broadcast_to(0j, s) for s in shapes),
                          optimize=True)[0]


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
    return noise_variance(grid.h.shape[3], snr_db)
