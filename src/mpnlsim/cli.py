"""Command-line front end.

Commands: per-sweep, search, connectivity, bench.  Each
command reads a single YAML config, runs non-interactively, and emits
CSV/JSON files stamped with a run manifest (command, config digest, seed,
version, timestamp).  Identical (config, seed) reproduce identical data
rows; bench's worker count never changes its hard decisions.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import hashlib
import json
import math
import multiprocessing
import statistics
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, replace

import numpy as np
import yaml

from . import __version__
from . import channel as ch
from . import connectivity as conn
from . import detect as det
from . import linksim, search
from .core import DEFAULT_USE_CASES, UseCase, constellation_for, mcs_entry


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class RunManifest:
    command: str
    config_digest: str
    seed: int
    version: str
    timestamp: str

    def header_lines(self):
        d = asdict(self)
        return [f"{k}: {v}" for k, v in d.items()]


def _load_config(path) -> tuple[dict, str]:
    try:
        raw = open(path, "rb").read()
    except OSError as e:
        raise ConfigError(f"cannot read config: {e}") from None
    digest = hashlib.sha256(raw).hexdigest()
    try:
        cfg = yaml.safe_load(raw)
    except yaml.YAMLError as e:
        raise ConfigError(f"cannot parse config: {e}") from None
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a mapping")
    return cfg, digest


def _setting(cfg: dict, key: str, default, floor=1, number=False,
             strict=False, choices=None):
    """cfg[key] (or default): a str in `choices` where given, else an int,
    or a real number where `number` is set, never a bool, >= floor
    (> floor where `strict`); a list of them where the default is a list."""
    value = cfg.get(key, default)
    many = isinstance(default, list)
    items = value if many else [value]
    if choices is not None:
        ok = isinstance(items, list) and all(
            type(v) is str and v in choices for v in items)
        kind = f"{'names' if many else 'a name'} from {sorted(choices)}"
    else:
        types = (int, float) if number else (int,)
        ok = isinstance(items, list) and all(
            type(v) in types and (v > floor if strict else v >= floor)
            for v in items)
        noun = "number" if number else "integer"
        kind = (f"{noun}s" if many else "a number" if number
                else "an integer") + f" {'>' if strict else '>='} {floor}"
    if not ok:
        raise ConfigError(f"{key} must be {'a list of ' if many else ''}"
                          f"{kind} (got {value!r})")
    return value


def _manifest(command, digest, seed) -> RunManifest:
    return RunManifest(command=command, config_digest=digest, seed=seed,
                       version=__version__,
                       timestamp=time.strftime("%Y-%m-%dT%H:%M:%S"))


def _write_csv(path, manifest, header, rows):
    with open(path, "w", newline="") as f:
        for line in manifest.header_lines():
            f.write(f"# {line}\n")
        w = csv.writer(f)
        w.writerow(header)
        w.writerows(rows)


def _fixture_config(cfg: dict, seed: int) -> search.FixtureConfig:
    profile = cfg.get("profile")
    prof = (ch.profile_from_dict(profile) if isinstance(profile, dict) else
            ch.PROFILES[_setting(cfg, "profile", "tdl-b-like",
                                 choices=ch.PROFILES)])
    mob = ch.MobilityConfig(
        speed_kmh=_setting(cfg, "speed_kmh", 30.0, 0, number=True),
        carrier_hz=_setting(cfg, "carrier_hz", 3.5e9, 0, number=True,
                            strict=True))
    return search.FixtureConfig(
        profile=prof, mobility=mob,
        region=ch.REGIONS[_setting(cfg, "region", "R1", choices=ch.REGIONS)],
        channels_per_group=_setting(cfg, "channels_per_group", 50, 0),
        base_seed=seed, n_subcarriers=_setting(cfg, "n_subcarriers", 24))


# ---------------------------------------------------------------------------
# per-sweep
# ---------------------------------------------------------------------------

def cmd_per_sweep(cfg: dict, manifest: RunManifest, out, seed: int):
    snrs = _setting(cfg, "snr_db", [], -math.inf, number=True)
    jitter = _setting(cfg, "snr_jitter_db", 0.0, 0, number=True)
    if not snrs:
        raise ConfigError("empty sweep: snr_db list is required")
    n = _setting(cfg, "n_streams", 4)
    m = _setting(cfg, "m_antennas", 8)
    mcs = mcs_entry(_setting(cfg, "mcs", 7, 0))
    n_channels = _setting(cfg, "channels", 10, 0)
    frames = _setting(cfg, "frames_per_channel", 20)
    fx = _fixture_config(cfg, seed)
    # every config is checked before the first SNR point runs
    configs = [linksim.LinkConfig(
        n_streams=n, m_antennas=m, mcs=mcs, detector=name,
        n_paths=_setting(cfg, "n_paths", 32), seed=seed,
        csi=_setting(cfg, "csi", "genie", choices=linksim.CSI_MODES),
        rb_per_vehicle=min(linksim.default_rb_allocation(mcs),
                           fx.n_subcarriers // fx.numerology.sc_per_rb))
        for name in _setting(cfg, "detectors", ["mmse", "mpnl"],
                             choices=det.DETECTORS)]
    rows = []
    for snr in snrs:
        region = ch.SnrRegion(name=f"{snr}dB", target_snr_db=float(snr),
                              jitter_db=jitter)
        seeds = np.random.SeedSequence(
            entropy=(seed, int(round(snr * 1000)))).spawn(n_channels)
        grids, nvs = replace(fx, region=region).generate(n, m, seeds)
        for lc in configs:
            res = linksim.measure_per(lc, grids, nvs,
                                      frames_per_channel=frames)
            rows.append([snr, lc.detector, f"{res.per:.6g}",
                         f"{res.ci95_halfwidth:.6g}", res.frames])
    _write_csv(out, manifest, ["snr_db", "detector", "per", "ci95", "frames"],
               rows)


# ---------------------------------------------------------------------------
# search / heatmap
# ---------------------------------------------------------------------------

def cmd_search(cfg: dict, manifest: RunManifest, out, seed: int):
    fx = _fixture_config(cfg, seed)
    cells = search.heatmap(
        streams=_setting(cfg, "streams", [2, 4, 6]),
        mcs_list=_setting(cfg, "mcs", [2, 7, 12], 0),
        detectors=_setting(cfg, "detectors", ["mmse", "mpnl"],
                           choices=det.DETECTORS),
        fixtures=fx,
        frames_per_channel=_setting(cfg, "frames_per_channel", 8),
        n_paths=_setting(cfg, "n_paths", 32),
        progress=lambda c: print(
            f"  {c.detector} N={c.n_streams} mcs={c.mcs_index} -> "
            f"{c.min_antennas or 'unsupported'}", file=sys.stderr))
    search.write_heatmap_csv(cells, out,
                             manifest_lines=manifest.header_lines())


# ---------------------------------------------------------------------------
# connectivity
# ---------------------------------------------------------------------------

def _use_cases_from_config(cfg: dict):
    if "use_cases" not in cfg:
        return DEFAULT_USE_CASES
    ucs = []
    for item in cfg["use_cases"]:
        try:
            ucs.append(UseCase(item["name"], float(item["rate_mbps"]) * 1e6))
        except (KeyError, TypeError, ValueError) as e:
            raise ConfigError(f"bad use case entry {item!r}: {e}") from None
    if not ucs:
        raise ConfigError("use_cases override is empty")
    return tuple(ucs)


def cmd_connectivity(cfg: dict, manifest: RunManifest, out, seed: int):
    table_path = cfg.get("table_csv")
    if table_path is None:
        table_path = shipped_heatmap_path()
    try:
        cells = search.read_heatmap_csv(table_path)
    except OSError as e:
        raise ConfigError(f"cannot read antenna table: {e}") from None
    table = search.cells_to_table(cells)
    mcs_index = _setting(cfg, "mcs", 12, 0)
    se = _setting(cfg, "se", mcs_entry(mcs_index).spectral_efficiency, 0,
                  number=True, strict=True)
    rows = conn.connectivity_report(
        use_cases=_use_cases_from_config(cfg), se=se, table=table,
        mcs_index=mcs_index,
        antenna_budgets=_setting(cfg, "antenna_budgets", [2, 4, 6, 8]))
    payload = {
        "manifest": asdict(manifest),
        "spectral_efficiency": se,
        "mcs": mcs_index,
        "rows": [
            {"use_case": r.use_case, "antenna_budget": r.antenna_budget,
             "streams": r.streams, "vehicles": r.vehicles,
             "gain_ratio": (None if r.gain_ratio is None
                            else float(r.gain_ratio))}
            for r in rows],
    }
    with open(out, "w") as f:
        json.dump(payload, f, indent=2, default=str)
    csv_rows = [[r.use_case, r.antenna_budget,
                 r.vehicles.get("mmse"), r.vehicles.get("mpnl"),
                 r.gain_ratio] for r in rows]
    _write_csv(str(out) + ".csv", manifest,
               ["use_case", "antenna_budget", "vehicles_mmse",
                "vehicles_mpnl", "gain_ratio"], csv_rows)


def shipped_heatmap_path():
    from importlib.resources import files
    return files("mpnlsim").joinpath("data/heatmap_default.csv")


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------

def _bench_chunk(args):
    """Detect one seeded chunk of instances; pure function of its args."""
    (name, n, m, order, n_paths, snr_db, seed, chunk_idx, chunk_size) = args
    c = constellation_for(order)
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=(seed, chunk_idx)))
    h = (rng.standard_normal((chunk_size, m, n))
         + 1j * rng.standard_normal((chunk_size, m, n))) / np.sqrt(2)
    labels_true = rng.integers(0, order, (chunk_size, n))
    nv = n / 10 ** (snr_db / 10)
    noise = np.sqrt(nv / 2) * (rng.standard_normal((chunk_size, m))
                               + 1j * rng.standard_normal((chunk_size, m)))
    y = np.einsum("bmn,bn->bm", h, c.points[labels_true]) + noise
    detector = det.soft_detector(name)
    return detector.apply(detector.plan(h, nv, c, n_paths), h, y, nv, c)[0]


def run_bench(name, n, m, order, n_paths, snr_db, seed, n_instances,
              chunk_size, workers, repeats):
    """Timed passes on one worker pool; returns (elapsed seconds per pass,
    stacked hard decisions of the last pass).  With workers > 1, starting
    the pool is not timed."""
    chunks = [(name, n, m, order, n_paths, snr_db, seed, i, chunk_size)
              for i in range(n_instances // chunk_size)]
    with contextlib.ExitStack() as stack:
        run = map
        if workers > 1:
            # each worker imports this module and runs one chunk as it
            # starts; the untimed map below starts all of them
            pool = stack.enter_context(ProcessPoolExecutor(
                workers, mp_context=multiprocessing.get_context("spawn"),
                initializer=_bench_chunk, initargs=(chunks[0],)))
            run = functools.partial(pool.map, chunksize=1)
            list(run(_bench_chunk, chunks[:workers]))
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            results = list(run(_bench_chunk, chunks))
            times.append(time.perf_counter() - t0)
    return times, np.concatenate(results)


def run_bench_once(name, n, m, order, n_paths, snr_db, seed,
                   n_instances, chunk_size, workers):
    """One timed pass; returns (elapsed seconds, stacked hard decisions)."""
    times, hard = run_bench(name, n, m, order, n_paths, snr_db, seed,
                            n_instances, chunk_size, workers, repeats=1)
    return times[0], hard


def cmd_bench(cfg: dict, manifest: RunManifest, out, seed: int):
    name = _setting(cfg, "detector", "mpnl", choices=det.DETECTORS)
    n = _setting(cfg, "n_streams", 8)
    m = _setting(cfg, "m_antennas", 8)
    order = _setting(cfg, "modulation_order", 16)
    n_paths = _setting(cfg, "n_paths", 32)
    snr_db = _setting(cfg, "snr_db", 20.0, -math.inf, number=True)
    n_instances = _setting(cfg, "n_instances", 8192, 0)
    chunk_size = _setting(cfg, "chunk_size", 512)
    workers_list = _setting(cfg, "workers", [1, 4, 8])
    repeats = _setting(cfg, "repeats", 5)
    if n_instances < 1 or n_instances % chunk_size:
        raise ConfigError("n_instances must be a positive multiple of "
                          "chunk_size")
    # a bad order, name or antenna count fails before any pool starts
    constellation_for(order)
    det.check_antenna_floor(name, n, m, order, n_paths)
    rows = []
    # one worker runs first: the speed baseline and the bit-identity reference
    for w in [1] + [w for w in workers_list if w != 1]:
        times, hard = run_bench(name, n, m, order, n_paths, snr_db, seed,
                                n_instances, chunk_size, w, repeats)
        med = statistics.median(times)
        rate = n_instances / med
        if w == 1:
            baseline, ref_hard = rate, hard
        identical = bool(np.array_equal(hard, ref_hard))
        rows.append([name, n, m, order, n_paths, w, f"{med:.4f}",
                     f"{rate:.1f}", f"{rate / baseline:.3f}", identical])
    _write_csv(out, manifest,
               ["detector", "n", "m", "order", "n_paths", "workers",
                "median_s", "detections_per_s", "speedup", "bit_identical"],
               rows)
    return rows


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

# the keys of _fixture_config that per-sweep reads as well as search
_FIXTURE_KEYS = ("profile", "speed_kmh", "carrier_hz", "n_subcarriers")

# command -> (function, the config keys it reads besides `seed`)
COMMANDS = {
    "per-sweep": (cmd_per_sweep, _FIXTURE_KEYS + (
        "snr_db", "snr_jitter_db", "n_streams", "m_antennas", "mcs",
        "channels", "frames_per_channel", "n_paths", "csi", "detectors")),
    "search": (cmd_search, _FIXTURE_KEYS + (
        "streams", "mcs", "detectors", "frames_per_channel", "n_paths",
        "region", "channels_per_group")),
    "connectivity": (cmd_connectivity, (
        "table_csv", "mcs", "se", "antenna_budgets", "use_cases")),
    "bench": (cmd_bench, (
        "detector", "n_streams", "m_antennas", "modulation_order", "n_paths",
        "snr_db", "n_instances", "chunk_size", "workers", "repeats")),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="mpnlsim",
        description="Uplink MU-MIMO detection, antenna-search, and "
                    "connectivity experiments")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--workers", type=int, default=None)
    args = parser.parse_args(argv)
    try:
        cfg, digest = _load_config(args.config)
        command, keys = COMMANDS[args.command]
        for key in cfg:
            if key != "seed" and key not in keys:
                raise ConfigError(f"{args.command} does not read {key!r}")
        seed = (_setting(cfg, "seed", 0, 0) if args.seed is None
                else args.seed)
        if args.workers is not None:
            if args.command != "bench":
                raise ConfigError("--workers applies only to bench")
            cfg["workers"] = [args.workers]
        manifest = _manifest(args.command, digest, seed)
        command(cfg, manifest, args.out, seed)
    except (ConfigError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
