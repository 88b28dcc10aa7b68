"""The benchmark's three workloads.

Each workload is a fixed list of operations (a pass) that the runner
repeats, closed loop, until the run's time is up.  A workload builds all
of its inputs from the run's seed, drives the library only through calls
into ``linksim``, ``detect``, ``search`` and ``channel``, and checks every
output it gets back.

Interface used by ``run.py``:

- ``setup()``: one set-up (LDPC code build, fixtures, warm-up); the runner
  repeats it and reports the median.
- ``prepare(p)``: make pass ``p``'s inputs, outside the operation timers.
- ``run_op(p, i)`` -> output; ``items(out)`` -> units of work it did.
- ``check_op(p, i, out)`` -> error message or None.
- ``check_pass(p, outs)`` -> error message or None, for checks that need
  the whole pass.
- ``verify(outs)`` -> [(op index, message)], extra checks on pass 0 run
  after the timed passes.
- ``digests(outs)`` -> (portable digest, bit-exact digest) of a pass.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np
import yaml

from mpnlsim import channel, core, detect, fec, linksim, search

# {mmse, mpnl} x {genie, ls_dmrs} x MCS {2, 7, 12}: both CSI paths, both
# detectors, and MCS 7 genie (decoder converges early) next to MCS 12
# ls_dmrs (decoder runs to its iteration cap).
LINK_MATRIX = tuple((d, csi, mcs) for d in ("mmse", "mpnl")
                    for csi in ("genie", "ls_dmrs") for mcs in (2, 7, 12))
LINK_STREAMS = LINK_ANTENNAS = 4
FRAMES_PER_OP = 25                 # measure_per's batch size

# mpnlsim bench defaults: 8 layers x 32 paths makes the tree search dominant
DETECT_STREAMS = DETECT_ANTENNAS = 8
DETECT_ORDER = 16
DETECT_PATHS = 32
DETECT_CHANNELS = 16               # channel stacks per pass
DETECT_SUBCARRIERS = 48            # x 14 symbols = 672 REs per stack

# Shipped-grid cells whose rows the shipped heatmap CSV holds.
SEARCH_CELLS = ((2, 12, "mmse"), (2, 12, "mpnl"),
                (4, 7, "mmse"), (4, 7, "mpnl"))
SEARCH_SEED = 20240                # seed the shipped heatmap was made with
DATA = Path(search.__file__).parent / "data"


def build_code() -> fec.LdpcCode:
    """Build the mother code as ``fec.default_code()`` first pays for it:
    lift H, then the encoder and decoder graph on first encode/decode."""
    code = fec.LdpcCode(fec.expand_base_matrix())
    fec.ldpc_encode(code, np.zeros(code.k, dtype=np.uint8))
    fec.ldpc_decode(code, np.ones(code.n))
    return code


def _sha(chunks) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(np.ascontiguousarray(c).tobytes())
    return h.hexdigest()


class Workload:
    name = ""
    item = ""
    n_ops = 0

    def prepare(self, p):
        pass

    def check_pass(self, p, outs):
        return None

    def verify(self, outs):
        return []


class LinkSlots(Workload):
    """One op: ``simulate_frames`` on a 25-frame batch of one config."""

    name = "link_slots"
    item = "transport block"

    def __init__(self, seed, matrix=LINK_MATRIX, frames=FRAMES_PER_OP):
        self.seed = seed
        self.matrix = matrix
        self.frames = frames
        self.n_ops = len(matrix)

    def setup(self):
        build_code()
        fixtures = search.FixtureConfig()
        n_rb = fixtures.n_subcarriers // fixtures.numerology.sc_per_rb
        self.configs = []
        for det_name, csi, mcs_index in self.matrix:
            mcs = core.mcs_entry(mcs_index)
            self.configs.append(linksim.LinkConfig(
                n_streams=LINK_STREAMS, m_antennas=LINK_ANTENNAS, mcs=mcs,
                detector=det_name, csi=csi, seed=self.seed,
                rb_per_vehicle=min(linksim.default_rb_allocation(mcs),
                                   n_rb)))
        grids, nvs = fixtures.channels(LINK_STREAMS, LINK_ANTENNAS)
        # config i always runs on fixture channel i; the seed draws the
        # payloads and noise, so every seed sees the same channel set
        self.channels = list(zip(grids, nvs))[:self.n_ops]
        for cfg in (self.configs[0], self.configs[-1]):
            linksim.simulate_frames(cfg, grids[0], nvs[0], 0, [0])

    def _simulate(self, i, frames):
        grid, nv = self.channels[i]
        return linksim.simulate_frames(self.configs[i], grid, nv, i, frames)

    def run_op(self, p, i):
        return self._simulate(i, range(p * self.frames,
                                       (p + 1) * self.frames))

    def items(self, out):
        return out.size

    def check_op(self, p, i, out):
        if out.shape != (self.frames, LINK_STREAMS) or out.dtype != bool:
            return f"ok mask has shape {out.shape} and dtype {out.dtype}"
        return None

    def verify(self, outs):
        # frames draw from per-frame streams, so splitting a batch must
        # not change any outcome
        half = self.frames // 2
        split = np.concatenate([self._simulate(0, range(half)),
                                self._simulate(0, range(half, self.frames))])
        if outs[0] is not None and not np.array_equal(split, outs[0]):
            return [(0, "batch split changed the ok mask")]
        return []

    def digests(self, outs):
        d = _sha(np.packbits(o) for o in outs)
        return d, d


class DetectKernels(Workload):
    """One op: one channel stack through MPNL (plan, search, LLRs) and
    MMSE."""

    name = "detect_kernels"
    item = "RE detection"

    def __init__(self, seed, channels=DETECT_CHANNELS,
                 subcarriers=DETECT_SUBCARRIERS):
        self.seed = seed
        self.n_ops = channels
        self.subcarriers = subcarriers
        self.constellation = core.constellation_for(DETECT_ORDER)
        self._inputs = {}

    def _make_inputs(self, p):
        base = int(np.random.SeedSequence((self.seed, p)).generate_state(1)[0])
        fixtures = search.FixtureConfig(base_seed=base,
                                        channels_per_group=self.n_ops,
                                        n_subcarriers=self.subcarriers)
        grids, nvs = fixtures.channels(DETECT_STREAMS, DETECT_ANTENNAS)
        rng = np.random.default_rng((self.seed, p))
        points = self.constellation.points
        inputs = []
        for g, nv in zip(grids, nvs):
            h = g.h.reshape(-1, DETECT_ANTENNAS, DETECT_STREAMS)
            labels = rng.integers(0, DETECT_ORDER, (h.shape[0], DETECT_STREAMS))
            noise = np.sqrt(nv / 2) * (
                rng.standard_normal((h.shape[0], DETECT_ANTENNAS))
                + 1j * rng.standard_normal((h.shape[0], DETECT_ANTENNAS)))
            y = np.einsum("bmn,bn->bm", h, points[labels]) + noise
            inputs.append((h, y, nv, labels))
        return inputs

    def setup(self):
        self._inputs = {0: self._make_inputs(0)}
        h, y, nv, _ = self._inputs[0][0]
        self._detect(h[:8], y[:8], nv)

    def prepare(self, p):
        if p not in self._inputs:
            self._inputs = {p: self._make_inputs(p)}

    def _detect(self, h, y, nv):
        c = self.constellation
        plan = detect.mpnl_plan_batch(h, nv, DETECT_PATHS, c)
        labels, metrics, best = detect.mpnl_detect_batch(plan, h, y, c)
        llr_mpnl = detect._candidate_llrs_batch(labels, metrics, nv, c)
        hard_mpnl = np.take_along_axis(labels, best[:, None, None],
                                       axis=1)[:, 0]
        hard_mmse, llr_mmse = detect.linear_detect_batch(h, y, nv, c, "mmse")
        return hard_mpnl, llr_mpnl, hard_mmse, llr_mmse

    def run_op(self, p, i):
        h, y, nv, _ = self._inputs[p][i]
        return self._detect(h, y, nv)

    def items(self, out):
        return 2 * out[0].shape[0]

    def _symbol_errors(self, p, i, out):
        sent = self._inputs[p][i][3]
        return (out[0] != sent).mean(), (out[2] != sent).mean()

    def check_op(self, p, i, out):
        b = self._inputs[p][i][0].shape[0]
        bps = self.constellation.bits_per_symbol
        for hard, llr in ((out[0], out[1]), (out[2], out[3])):
            if hard.shape != (b, DETECT_STREAMS) or \
                    llr.shape != (b, DETECT_STREAMS, bps):
                return "output shapes do not match the stack"
            if not np.all(np.isfinite(llr)):
                return "non-finite LLR"
            # max-log LLRs take the sign of the best hypothesis's bits
            bits = core.bits_from_labels(hard, self.constellation) == 1
            if np.any((llr != 0) & ((llr < 0) != bits)):
                return "LLR signs disagree with the hard decision"
        ser_mpnl, ser_mmse = self._symbol_errors(p, i, out)
        if ser_mpnl > 0.5 or ser_mmse > 0.8:
            return f"symbol error rate mpnl {ser_mpnl:.3f} mmse {ser_mmse:.3f}"
        return None

    def check_pass(self, p, outs):
        sers = [self._symbol_errors(p, i, o) for i, o in enumerate(outs)
                if o is not None]
        ser_mpnl, ser_mmse = np.mean(sers, axis=0)
        if not ser_mpnl < ser_mmse:
            return (f"MPNL symbol error rate {ser_mpnl:.4f} is not below "
                    f"MMSE's {ser_mmse:.4f}")
        return None

    def digests(self, outs):
        # LLRs rounded to 1e-3 keep the portable digest stable across
        # CPUs whose floating-point kernels differ in the last bits
        portable = _sha(a for o in outs for a in
                        (o[0], np.rint(o[1] * 1e3).astype(np.int32),
                         o[2], np.rint(o[3] * 1e3).astype(np.int32)))
        exact = _sha(a for o in outs for a in o)
        return portable, exact


class SearchGrid(Workload):
    """One op: one heatmap cell; the seed sets the order of the cells."""

    name = "search_grid"
    item = "heatmap cell"

    def __init__(self, seed, cells=SEARCH_CELLS):
        order = np.random.default_rng(seed).permutation(len(cells))
        self.cells = [cells[k] for k in order]
        self.n_ops = len(cells)

    def setup(self):
        build_code()
        with open(DATA / "heatmap_default.yaml") as f:
            cfg = yaml.safe_load(f)
        self.fixtures = search.FixtureConfig(
            profile=channel.PROFILES[cfg["profile"]],
            mobility=channel.MobilityConfig(speed_kmh=cfg["speed_kmh"]),
            region=channel.REGIONS[cfg["region"]],
            channels_per_group=cfg["channels_per_group"],
            base_seed=SEARCH_SEED, n_subcarriers=cfg["n_subcarriers"])
        self.frames_per_channel = cfg["frames_per_channel"]
        self.n_paths = cfg["n_paths"]
        self.expected = search.cells_to_table(
            search.read_heatmap_csv(DATA / "heatmap_default.csv"))
        grids, nvs = search.FixtureConfig(channels_per_group=1).channels(2, 2)
        for det_name in ("mmse", "mpnl"):
            link = linksim.LinkConfig(n_streams=2, m_antennas=2,
                                      mcs=core.mcs_entry(12),
                                      detector=det_name, seed=SEARCH_SEED)
            linksim.simulate_frames(link, grids[0], nvs[0], 0, [0])

    def run_op(self, p, i):
        n, mcs_index, det_name = self.cells[i]
        return search.heatmap([n], [mcs_index], [det_name], self.fixtures,
                              frames_per_channel=self.frames_per_channel,
                              n_paths=self.n_paths)[0]

    def items(self, out):
        return 1

    @staticmethod
    def _row(c):
        return (f"{c.n_streams},{c.mcs_index},{c.detector},"
                f"{c.min_antennas},{c.measured_per:.6g},"
                f"{c.per_below:.6g},{c.frames}")

    def check_op(self, p, i, out):
        want = self._row(self.expected[self.cells[i]])
        got = self._row(out)
        return None if got == want else f"cell {got} != shipped row {want}"

    def digests(self, outs):
        rows = sorted(self._row(c) for c in outs)
        d = hashlib.sha256("\n".join(rows).encode()).hexdigest()
        return d, d


WORKLOADS = {w.name: w for w in (LinkSlots, DetectKernels, SearchGrid)}
