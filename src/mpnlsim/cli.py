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
import functools
import hashlib
import json
import math
import multiprocessing
import statistics
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, replace

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


class Above(float):
    """A float floor that a setting must exceed."""


class Required(list):
    """The default of a list setting that every config must give."""


def _load_config(path) -> tuple[dict, str]:
    try:
        with open(path, "rb") as f:
            raw = f.read()
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


def _setting(key: str, value, default, rule):
    """Check `value` against `rule`, never a bool: a str from a table of
    names, an int >= an int floor, or a number within the float range >= a
    float floor (> an `Above` one); a non-empty list of them for a list
    `default`.  A callable rule checks a structured setting itself."""
    if callable(rule):
        return rule(key, value)
    many = isinstance(default, list)
    items = value if many else [value]
    if isinstance(rule, (int, float)):
        number, strict = isinstance(rule, float), isinstance(rule, Above)
        # an int compares exactly with a float; NaN fails the comparison
        ok = isinstance(items, list) and all(
            (type(v) in (int, float) and abs(v) <= sys.float_info.max
             if number else type(v) is int)
            and (v > rule if strict else v >= rule) for v in items)
        noun = "finite number" if number else "integer"
        kind = (f"{noun}s" if many else f"a {noun}" if number
                else "an integer") + f" {'>' if strict else '>='} {rule}"
    else:
        ok = isinstance(items, list) and all(
            type(v) is str and v in rule for v in items)
        kind = f"{'names' if many else 'a name'} from {sorted(rule)}"
    if not (ok and items):
        raise ConfigError(f"{key} must be {'a non-empty list of ' * many}"
                          f"{kind} (got {value!r})")


def _profile(key, value):
    """A shipped profile name, or a mapping of `delays_ns` and `powers_db`
    lists with an optional `name` and Rician `rician_k_db`."""
    if not isinstance(value, dict):
        return _setting(key, value, "", ch.PROFILES)
    for field in sorted(set(value) - {"name", "delays_ns", "powers_db",
                                      "rician_k_db"}):
        raise ConfigError(f"{key} does not read {field!r}")
    _setting(f"{key}.delays_ns", value.get("delays_ns"), [], 0.0)
    _setting(f"{key}.powers_db", value.get("powers_db"), [], -math.inf)
    if value.get("rician_k_db") is not None:
        _setting(f"{key}.rician_k_db", value["rician_k_db"], 0.0, -math.inf)


def _path(key, value):
    if type(value) is not str or not value:
        raise ConfigError(f"{key} must be a path (got {value!r})")


def _use_cases(key, value):
    if not (isinstance(value, list) and value and all(
            isinstance(u, dict) and set(u) == {"name", "rate_mbps"}
            and type(u["name"]) is str for u in value)
            and len({u["name"] for u in value}) == len(value)):
        raise ConfigError(f"{key} must be a non-empty list of {{name, "
                          f"rate_mbps}} mappings with distinct names "
                          f"(got {value!r})")
    _setting(f"{key} rate_mbps", [u["rate_mbps"] for u in value], [],
             Above(0.0))


def _fixture_config(cfg: dict, seed: int, **kw) -> search.FixtureConfig:
    profile = cfg["profile"]
    return search.FixtureConfig(
        profile=(ch.profile_from_dict(profile) if isinstance(profile, dict)
                 else ch.PROFILES[profile]),
        mobility=ch.MobilityConfig(speed_kmh=cfg["speed_kmh"],
                                   carrier_hz=cfg["carrier_hz"]),
        base_seed=seed, n_subcarriers=cfg["n_subcarriers"], **kw)


# ---------------------------------------------------------------------------
# per-sweep
# ---------------------------------------------------------------------------

def _sweep_entropy(seed: int, snr) -> tuple:
    """SeedSequence entropy of a per-sweep point; a negative k = snr * 1000
    keys (seed, -k, 1), apart from +k's (seed, k), which equals (seed, k, 0)."""
    k = int(round(snr * 1000))
    return (seed, k) if k >= 0 else (seed, -k, 1)


def cmd_per_sweep(cfg: dict, manifest: dict, out, seed: int):
    n, m = cfg["n_streams"], cfg["m_antennas"]
    mcs = mcs_entry(cfg["mcs"])
    fx = _fixture_config(cfg, seed)
    # every config and SNR point is checked before the first point runs
    configs = [fx.link(n, m, mcs, name, cfg["n_paths"], cfg["csi"])
               for name in cfg["detectors"]]
    regions = [ch.SnrRegion(float(snr), jitter_db=cfg["snr_jitter_db"])
               for snr in cfg["snr_db"]]
    rows = []
    for snr, region in zip(cfg["snr_db"], regions):
        seeds = np.random.SeedSequence(
            entropy=_sweep_entropy(seed, snr)).spawn(cfg["channels"])
        grids, nvs = replace(fx, region=region).generate(n, m, seeds)
        for lc in configs:
            res = linksim.measure_per(
                lc, grids, nvs, frames_per_channel=cfg["frames_per_channel"])
            rows.append([snr, lc.detector, f"{res.per:.6g}",
                         f"{res.ci95_halfwidth:.6g}", res.frames])
    search.write_csv(out, manifest,
                     ["snr_db", "detector", "per", "ci95", "frames"], rows)


# ---------------------------------------------------------------------------
# search / heatmap
# ---------------------------------------------------------------------------

def cmd_search(cfg: dict, manifest: dict, out, seed: int):
    fx = _fixture_config(cfg, seed, region=ch.REGIONS[cfg["region"]],
                         channels_per_group=cfg["channels_per_group"])
    cells = search.heatmap(
        streams=cfg["streams"], mcs_list=cfg["mcs"],
        detectors=cfg["detectors"], fixtures=fx,
        frames_per_channel=cfg["frames_per_channel"], n_paths=cfg["n_paths"],
        progress=lambda c: print(
            f"  {c.detector} N={c.n_streams} mcs={c.mcs_index} -> "
            f"{c.min_antennas or 'unsupported'}", file=sys.stderr))
    search.write_csv(out, manifest, search.HEATMAP_HEADER,
                     search.heatmap_rows(cells))


# ---------------------------------------------------------------------------
# connectivity
# ---------------------------------------------------------------------------

def cmd_connectivity(cfg: dict, manifest: dict, out, seed: int):
    try:
        cells = search.read_heatmap_csv(
            cfg["table_csv"] or shipped_heatmap_path())
    except (OSError, ValueError) as e:
        raise ConfigError(f"cannot read table_csv: {e}") from None
    table = search.cells_to_table(cells)
    mcs_index = cfg["mcs"]
    mcs = mcs_entry(mcs_index)  # rejects an index outside the MCS table
    se = cfg["se"] or mcs.spectral_efficiency
    use_cases = DEFAULT_USE_CASES if cfg["use_cases"] is None else tuple(
        UseCase(u["name"], u["rate_mbps"] * 1e6) for u in cfg["use_cases"])
    report = conn.connectivity_report(
        use_cases=use_cases, se=se, table=table, mcs_index=mcs_index,
        antenna_budgets=cfg["antenna_budgets"])
    # strict JSON has no Infinity: an infinite ratio (mmse serves no
    # vehicle) takes the CSV's token in both files
    rows = [{**asdict(r), "gain_ratio": "inf" if r.gain_ratio == math.inf
             else r.gain_ratio} for r in report]
    with open(out, "w") as f:
        json.dump({"manifest": manifest, "spectral_efficiency": se,
                   "mcs": mcs_index, "rows": rows},
                  f, indent=2, default=str, allow_nan=False)
    search.write_csv(str(out) + ".csv", manifest,
                     ["use_case", "antenna_budget", "vehicles_mmse",
                      "vehicles_mpnl", "gain_ratio"],
                     [[r["use_case"], r["antenna_budget"],
                       r["vehicles"]["mmse"], r["vehicles"]["mpnl"],
                       r["gain_ratio"]] for r in rows])


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
    nv = ch.noise_variance(n, snr_db)
    noise = np.sqrt(nv / 2) * (rng.standard_normal((chunk_size, m))
                               + 1j * rng.standard_normal((chunk_size, m)))
    y = np.einsum("bmn,bn->bm", h, c.points[labels_true]) + noise
    detector = det.DETECTORS[name]      # cmd_bench admitted the name
    return detector.hard(detector.plan(h, nv, c, n_paths), h, y, nv, c)


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


def cmd_bench(cfg: dict, manifest: dict, out, seed: int):
    name, n, m = cfg["detector"], cfg["n_streams"], cfg["m_antennas"]
    order, n_paths = cfg["modulation_order"], cfg["n_paths"]
    n_instances, chunk_size = cfg["n_instances"], cfg["chunk_size"]
    if n_instances % chunk_size:
        raise ConfigError("n_instances must be a multiple of chunk_size")
    # a bad order, name, antenna count or SNR fails before any pool starts
    constellation_for(order)
    det.check_antenna_floor(name, n, m, order, n_paths)
    ch.check_snr_range(f"snr_db={cfg['snr_db']}", cfg["snr_db"],
                       cfg["snr_db"], n)
    rows = []
    # one worker runs first: the speed baseline and the bit-identity reference
    for w in [1] + [w for w in cfg["workers"] if w != 1]:
        times, hard = run_bench(name, n, m, order, n_paths, cfg["snr_db"],
                                seed, n_instances, chunk_size, w,
                                cfg["repeats"])
        med = statistics.median(times)
        rate = n_instances / med
        if w == 1:
            baseline, ref_hard = rate, hard
        identical = bool(np.array_equal(hard, ref_hard))
        rows.append([name, n, m, order, n_paths, w, f"{med:.4f}",
                     f"{rate:.1f}", f"{rate / baseline:.3f}", identical])
    search.write_csv(out, manifest,
                     ["detector", "n", "m", "order", "n_paths", "workers",
                      "median_s", "detections_per_s", "speedup",
                      "bit_identical"], rows)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

# the fixture settings that per-sweep shares with search
_FIXTURE_SETTINGS = {
    "profile": ("tdl-b-like", _profile), "speed_kmh": (30.0, 0.0),
    "carrier_hz": (3.5e9, Above(0.0)),
    "n_subcarriers": (24, linksim.DEFAULT_NUMEROLOGY.sc_per_rb)}

# command -> (function, {config key: (default, rule)}), the one declaration
# of what a command reads besides `seed`; a rule is a table of names, an
# int floor, a float floor (strict where `Above`) or a structured check,
# and a `Required` default marks a key the config must give
COMMANDS = {
    "per-sweep": (cmd_per_sweep, {
        **_FIXTURE_SETTINGS, "snr_db": (Required(), -math.inf),
        "snr_jitter_db": (0.0, 0.0), "n_streams": (4, 1), "m_antennas": (8, 1),
        "mcs": (7, 0), "channels": (10, 1), "frames_per_channel": (20, 1),
        "n_paths": (32, 1), "csi": ("genie", linksim.CSI_MODES),
        "detectors": (["mmse", "mpnl"], det.DETECTORS)}),
    "search": (cmd_search, {
        **_FIXTURE_SETTINGS, "streams": ([2, 4, 6], 1),
        "mcs": ([2, 7, 12], 0), "detectors": (["mmse", "mpnl"], det.DETECTORS),
        "frames_per_channel": (8, 1), "n_paths": (32, 1),
        "region": ("R1", ch.REGIONS), "channels_per_group": (50, 1)}),
    "connectivity": (cmd_connectivity, {
        "table_csv": (None, _path), "mcs": (12, 0),
        "se": (None, Above(0.0)),  # None: the MCS's spectral efficiency
        "antenna_budgets": ([2, 4, 6, 8], 1),
        "use_cases": (None, _use_cases)}),
    "bench": (cmd_bench, {
        "detector": ("mpnl", det.DETECTORS), "n_streams": (8, 1),
        "m_antennas": (8, 1), "modulation_order": (16, 1), "n_paths": (32, 1),
        "snr_db": (20.0, -math.inf), "n_instances": (8192, 1),
        "chunk_size": (512, 1), "workers": ([1, 4, 8], 1), "repeats": (5, 1)}),
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
        command, table = COMMANDS[args.command]
        seed = cfg.pop("seed", 0)
        _setting("seed", seed, 0, 0)  # checked even where --seed overrides it
        if args.seed is not None:
            seed = args.seed
            _setting("seed", seed, 0, 0)
        if args.workers is not None:
            if args.command != "bench":
                raise ConfigError("--workers applies only to bench")
            cfg["workers"] = [args.workers]
        # every setting is checked before the command does any work
        for key, value in cfg.items():
            if key not in table:
                raise ConfigError(f"{args.command} does not read {key!r}")
            default, rule = table[key]
            _setting(key, value, default, rule)
            # a list setting is a set: its values name grid points or runs
            if isinstance(default, list) and len(set(value)) < len(value):
                raise ConfigError(f"{key} repeats a value (got {value!r})")
        for key, (default, _) in table.items():
            if isinstance(default, Required) and key not in cfg:
                raise ConfigError(f"{args.command} needs {key!r}")
        settings = {key: cfg.get(key, default)
                    for key, (default, _) in table.items()}
        manifest = {"command": args.command, "config_digest": digest,
                    "seed": seed, "version": __version__,
                    "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S")}
        command(settings, manifest, args.out, seed)
    except (ConfigError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
