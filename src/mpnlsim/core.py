"""Constellations, MCS table, numerology constants and bit/symbol mapping.

Mapping convention (normative): square QAM with independent per-axis Gray
coding. A log2(Q)-bit group is split in half; the first half indexes the
in-phase (real) level, the second half the quadrature level, MSB first.
Per-axis labels follow the binary-reflected Gray code over the amplitude
levels listed in *descending* order, so the all-zero label lands on the
most positive level (QPSK bits 00 -> (+1+1j)/sqrt(2)).

LLR sign convention (normative): positive LLR means bit 0 is more likely.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

# The one max-log LLR clip, which fec.LdpcCode._transmitted's proof needs.
LLR_CLIP = 20.0

# Relative margin an observation must keep from every decision boundary
# before Constellation.nearest slices it per axis (see nearest).
SLICE_GUARD = 1e-9

# candidates a kernel scores in one block: the one working-set budget of
# every kernel whose arrays grow with rows x candidates (demap_llr's Q
# points per symbol, the list detectors' paths per RE).  At 32 paths a
# 600-RE LS stack runs as two 300-RE calls.  Whole, each such QPSK stack
# took about 10,400 minor page faults on every link_slots pass; in
# blocks, a steady pass takes under 10
SEARCH_BLOCK = 1 << 14


@dataclass(frozen=True)
class Constellation:
    """Unit-energy Gray-labelled square QAM, built from its order alone."""

    order: int

    def __post_init__(self):
        if self.order not in (4, 16, 64):
            raise ValueError(f"unsupported constellation order {self.order}")

    @property
    def bits_per_symbol(self) -> int:
        return self.order.bit_length() - 1

    @cached_property
    def points(self) -> np.ndarray:
        """Points indexed by integer label, mapped as the module states."""
        side = 1 << (self.bits_per_symbol // 2)        # levels per axis
        # per-axis levels indexed by Gray label: the pos-th of the
        # descending levels L-1, L-3, ..., -(L-1) has label pos ^ (pos >> 1)
        pos = np.arange(side)
        lv = np.empty(side)
        lv[pos ^ (pos >> 1)] = np.arange(side - 1, -side, -2, dtype=float)
        norm = np.sqrt(2.0 * (self.order - 1) / 3.0)
        i, q = np.divmod(np.arange(self.order), side)
        return (lv[i] + 1j * lv[q]) / norm

    @cached_property
    def labels(self) -> np.ndarray:
        """Bit labels, shape (Q, bits_per_symbol), read-only; row i labels
        points[i], MSB first."""
        shifts = np.arange(self.bits_per_symbol - 1, -1, -1)
        table = (np.arange(self.order)[:, None] >> shifts) & 1
        table.flags.writeable = False
        return table

    @cached_property
    def bit_sets(self) -> np.ndarray:
        """Point indices (Q/2, 2, bits_per_symbol), built once: [:, 0, k]
        are the points whose bit k is 1, [:, 1, k] those whose bit k is 0."""
        ones_first = np.argsort(1 - self.labels, axis=0, kind="stable")
        return ones_first.reshape(2, -1, self.bits_per_symbol).swapaxes(0, 1)

    @cached_property
    def _slicer(self) -> tuple[float, np.ndarray]:
        """(scale, table), read from the points once: y * scale puts each
        axis's L levels on the odd integers -(L-1)..L-1, and table[i, j]
        is the label of the point with in-phase level L-1-2i and
        quadrature level L-1-2j."""
        scale = 1.0 / np.min(np.abs(self.points.real))
        side = round(np.sqrt(self.order))
        row, col = (np.rint((side - 1 - part * scale) / 2).astype(int)
                    for part in (self.points.real, self.points.imag))
        table = np.empty((side, side), dtype=np.intp)
        table[row, col] = np.arange(self.order)
        return scale, table

    def nearest(self, y: np.ndarray) -> np.ndarray:
        """Integer labels of the nearest constellation points to y: the
        first minimum of np.abs(y - points) ** 2, as computed.

        Square QAM is sliced per axis.  In scaled units (u, v) = y * scale
        the levels are the odd integers up to L - 1 and the interior
        decision boundaries the even integers from -(L - 2) to L - 2.  Let
        m be the distance of u or v, whichever is nearer, to its nearest
        interior boundary, and S = |u| + |v| + L.  Every other point is
        farther from (u, v) than the sliced one by at least 4 * m in
        squared scaled distance: moving one level across a boundary at
        distance m' >= m changes (u - level)^2 by 4 * m', and moving
        further only adds.  Each computed |c - p|^2 is within about 4 ulp
        of exact, because the subtraction is correctly rounded and abs and
        the square add about 1 ulp each; no squared scaled distance exceeds
        4 * S^2, so rounding moves the gap by less than 1e-14 * S^2.  Hence
        where m > SLICE_GUARD * S^2 the sliced point is the strict computed
        minimum, with ample room for the rounding of y * scale and of the
        points themselves.  Every other element takes the exact argmin,
        whose ties go to the lower label: one near a boundary, one with a
        NaN or infinite part (the comparison fails), and any past
        |u| + |v| = 1 / SLICE_GUARD, far below where a distance overflows.
        """
        y = np.asarray(y)
        flat = y.reshape(-1)
        scale, table = self._slicer
        side = table.shape[0]
        with np.errstate(over="ignore", invalid="ignore"):
            # t = (L - u) / 2: level k of either axis (from the top) holds
            # k <= t < k + 1, and the interior boundaries sit at t = 1..L-1
            a, b = flat.real * (scale / 2), flat.imag * (scale / 2)
            tu, tv = side / 2 - a, side / 2 - b
            margin = np.minimum(
                np.abs(tu - np.clip(np.rint(tu), 1, side - 1)),
                np.abs(tv - np.clip(np.rint(tv), 1, side - 1)))
            # m = 2 * margin, and (|u| + |v| + L)^2 = 4 * (|a| + |b| + L/2)^2
            ok = margin > 2 * SLICE_GUARD * (np.abs(a) + np.abs(b)
                                             + side / 2) ** 2
            cell = (np.clip(np.floor(tu), 0, side - 1) * side
                    + np.clip(np.floor(tv), 0, side - 1)).astype(np.intp)
        # an element failing the guard may hold any cell until it is redone
        labels = np.take(table, cell, mode="clip")
        if not ok.all():
            redo = ~ok
            labels[redo] = np.argmin(
                np.abs(flat[redo, None] - self.points) ** 2, axis=-1)
        return labels.reshape(y.shape)[()]


QPSK = Constellation(4)
QAM16 = Constellation(16)
QAM64 = Constellation(64)

_BY_ORDER = {4: QPSK, 16: QAM16, 64: QAM64}


def constellation_for(order: int) -> Constellation:
    """The shared instance of a supported order; any other order fails
    Constellation's own check."""
    return _BY_ORDER.get(order) or Constellation(order)


@dataclass(frozen=True)
class McsEntry:
    index: int
    modulation_order: int
    code_rate: Fraction

    @property
    def spectral_efficiency(self) -> float:
        return float(np.log2(self.modulation_order) * self.code_rate)

    @property
    def constellation(self) -> Constellation:
        return constellation_for(self.modulation_order)


# 28-entry table patterned on the 5G-NR 64QAM MCS table: indices 0-9 QPSK,
# 10-16 16-QAM, 17-27 64-QAM.  Index 16 uses 650/1024 (instead of NR's 658)
# so spectral efficiency is strictly increasing across the table.
_MCS_RATES = [
    (4, 120), (4, 157), (4, 193), (4, 251), (4, 308),
    (4, 379), (4, 449), (4, 526), (4, 602), (4, 679),
    (16, 340), (16, 378), (16, 434), (16, 490), (16, 553),
    (16, 616), (16, 650),
    (64, 438), (64, 466), (64, 517), (64, 567), (64, 616),
    (64, 666), (64, 719), (64, 772), (64, 822), (64, 873),
]

MCS_TABLE = tuple(
    McsEntry(i, q, Fraction(r, 1024)) for i, (q, r) in enumerate(_MCS_RATES)
) + (McsEntry(27, 64, Fraction(910, 1024)),)


def mcs_entry(index: int) -> McsEntry:
    if not 0 <= index <= 27:
        raise ValueError(f"MCS index {index} out of range [0, 27]")
    return MCS_TABLE[index]


@dataclass(frozen=True)
class Numerology:
    scs_hz: int = 30_000
    bandwidth_hz: int = 30_000_000
    n_rb: int = 78
    sc_per_rb: int = 12
    symbols_per_slot: int = 14
    slot_duration_s: float = 0.0005

    def __post_init__(self):
        if self.n_rb * self.sc_per_rb * self.scs_hz > self.bandwidth_hz:
            raise ValueError("resource grid exceeds the bandwidth")

    @property
    def symbol_duration_s(self) -> float:
        return self.slot_duration_s / self.symbols_per_slot


DEFAULT_NUMEROLOGY = Numerology()

# the slot layout, after the PUSCH DMRS of TS 38.211: each stream sends
# unit pilots on one of DMRS_COMBS disjoint subcarrier combs of one DMRS
# symbol, and data on every other symbol of the slot
DMRS_SYMBOLS = (3, 12)
DMRS_COMBS = 6
DATA_SYMBOLS = tuple(s for s in range(DEFAULT_NUMEROLOGY.symbols_per_slot)
                     if s not in DMRS_SYMBOLS)
MAX_STREAMS = DMRS_COMBS * len(DMRS_SYMBOLS)   # one pilot port per stream


@dataclass(frozen=True)
class UseCase:
    name: str
    rate_bps: float

    def __post_init__(self):
        if self.rate_bps <= 0:
            raise ValueError("use-case rate must be positive")


# V2I/V2N uplink rate requirements (Mbps): teleoperated driving 50,
# basic safety 30, cooperative sensing 25, cooperative manoeuvring 5,
# traffic efficiency 2.
DEFAULT_USE_CASES = (
    UseCase("Teleoperated Driving", 50e6),
    UseCase("Basic Safety", 30e6),
    UseCase("Cooperative Sensing", 25e6),
    UseCase("Cooperative Manouvering", 5e6),
    UseCase("Traffic Efficiency", 2e6),
)


def modulate(bits, c: Constellation) -> np.ndarray:
    """Map a bit sequence onto constellation symbols, MSB-first per group."""
    bits = np.asarray(bits, dtype=np.int64).ravel()
    bps = c.bits_per_symbol
    if bits.size % bps:
        raise ValueError(f"bit count {bits.size} not divisible by {bps}")
    groups = bits.reshape(-1, bps)
    weights = 1 << np.arange(bps - 1, -1, -1)
    return c.points[groups @ weights]


def row_blocks(rows: int, per_row: int, budget: int) -> list[slice]:
    """The fewest row blocks of `rows` rows holding at most `budget` of
    `per_row` candidates each (one row where a row alone exceeds it),
    sized within one row of each other; no rows is one empty block."""
    per_block = max(1, budget // per_row)
    blocks = max(1, -(-rows // per_block))
    cuts = [k * rows // blocks for k in range(blocks + 1)]
    return [slice(i, j) for i, j in zip(cuts, cuts[1:])]


def blockwise(kernel, per_row: int, budget: int, *rows):
    """kernel(*rows) run on the row_blocks of `budget` candidates, per_row
    to a row, written into one preallocated array per output.

    rows are the kernel's per-row inputs, the last an array; it returns an
    array or a tuple of arrays, each with one entry per row on its first
    axis.  A stack that fits in one block is one call on the inputs as
    given.  The blocks give the bytes of that call when the kernel is
    row-independent.
    """
    n = len(rows[-1])
    blocks = row_blocks(n, per_row, budget)
    if len(blocks) == 1:
        return kernel(*rows)
    outs = None
    for s in blocks:
        part = kernel(*(x[s] for x in rows))
        parts = part if isinstance(part, tuple) else (part,)
        if outs is None:
            outs = tuple(np.empty((n,) + p.shape[1:], p.dtype) for p in parts)
        for out, p in zip(outs, parts):
            out[s] = p
    return outs if isinstance(part, tuple) else outs[0]


def demap_llr(y_eq, noise_var, c: Constellation) -> np.ndarray:
    """Max-log per-bit LLRs, clipped at LLR_CLIP; positive favours bit 0.

    y_eq may be scalar or an array; output gains a trailing
    bits_per_symbol axis, against which noise_var broadcasts.  Symbols run
    in row blocks of at most SEARCH_BLOCK point distances, each through
    _demap_rows, so a wrapper installed on demap_llr sees one call.
    """
    if np.any(np.asarray(noise_var) <= 0):
        raise ValueError("noise_var must be positive")
    y = np.asarray(y_eq, dtype=complex)
    if len(row_blocks(y.size, c.order, SEARCH_BLOCK)) == 1:
        return _demap_rows(y, noise_var, c)
    shape = np.broadcast_shapes(y.shape + (c.bits_per_symbol,),
                                np.shape(noise_var))
    rows = (np.broadcast_to(y, shape[:-1]).reshape(-1),
            np.broadcast_to(noise_var, shape).reshape(-1, shape[-1]))
    return blockwise(lambda y, nv: _demap_rows(y, nv, c), c.order,
                     SEARCH_BLOCK, *rows).reshape(shape)


def _demap_rows(y: np.ndarray, noise_var, c: Constellation) -> np.ndarray:
    """demap_llr of complex observations y in one block."""
    d = np.abs(y[..., None] - c.points) ** 2      # (..., Q)
    # points on the leading axis, so the minimum runs over whole rows
    near = np.take(np.moveaxis(d, -1, 0), c.bit_sets, axis=0).min(axis=0)
    llr = np.moveaxis(near[0] - near[1], 0, -1) / noise_var   # (..., bps)
    return np.clip(llr, -LLR_CLIP, LLR_CLIP)


def bits_from_labels(labels: np.ndarray, c: Constellation) -> np.ndarray:
    """Expand integer point labels to bit arrays (trailing bps axis)."""
    return c.labels[np.asarray(labels, dtype=np.int64)]
