import csv
import hashlib
import json
import math
import re
import warnings

import numpy as np
import pytest
import yaml

from mpnlsim import channel as ch
from mpnlsim import cli, linksim, search
from mpnlsim import detect as det


def write_config(tmp_path, data, name="cfg.yaml"):
    p = tmp_path / name
    p.write_text(yaml.safe_dump(data))
    return str(p)


def read_rows(path):
    with open(path) as f:
        manifest = []
        while True:
            pos = f.tell()
            line = f.readline()
            if not line.startswith("# "):
                f.seek(pos)
                break
            manifest.append(line[2:].strip())
        rows = list(csv.reader(f))
    return manifest, rows


def test_unknown_command_rejected(capsys):
    with pytest.raises(SystemExit):
        cli.main(["frobnicate", "--config", "x", "--out", "y"])


def test_missing_config_is_clean_error(tmp_path, capsys):
    rc = cli.main(["bench", "--config", str(tmp_path / "nope.yaml"),
                   "--out", str(tmp_path / "o.csv")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_non_mapping_config_rejected(tmp_path, capsys):
    p = tmp_path / "bad.yaml"
    p.write_text("- just\n- a list\n")
    rc = cli.main(["bench", "--config", str(p),
                   "--out", str(tmp_path / "o.csv")])
    assert rc == 2


def test_malformed_yaml_rejected(tmp_path, capsys):
    p = tmp_path / "bad.yaml"
    p.write_text("snr_db: [10\n  bad: ]\n")
    rc = cli.main(["per-sweep", "--config", str(p),
                   "--out", str(tmp_path / "o.csv")])
    assert rc == 2
    assert "cannot parse config" in capsys.readouterr().err


def test_per_sweep_requires_snr_list(tmp_path, capsys):
    # an explicit empty list fails its setting check; an absent one fails
    # as a Required key before the sweep runs
    out = tmp_path / "o.csv"
    for data, msg in (({"snr_db": []}, "snr_db must be a non-empty list"),
                      ({}, "per-sweep needs 'snr_db'")):
        rc = cli.main(["per-sweep", "--config", write_config(tmp_path, data),
                       "--out", str(out)])
        assert rc == 2
        assert msg in capsys.readouterr().err
        assert not out.exists()


def sweep_config(tmp_path, **kw):
    data = dict(snr_db=[20], detectors=["mmse"], n_streams=2, m_antennas=4,
                mcs=2, channels=2, frames_per_channel=2, n_subcarriers=12)
    data.update(kw)
    return write_config(tmp_path, data)


def test_per_sweep_writes_manifest_and_rows(tmp_path):
    cfgp = sweep_config(tmp_path)
    out = tmp_path / "sweep.csv"
    assert cli.main(["per-sweep", "--config", cfgp, "--out", str(out),
                     "--seed", "3"]) == 0
    manifest, rows = read_rows(out)
    assert any(m.startswith("command: per-sweep") for m in manifest)
    assert any(m.startswith("config_digest: ") for m in manifest)
    assert any(m == "seed: 3" for m in manifest)
    assert rows[0] == ["snr_db", "detector", "per", "ci95", "frames"]
    assert len(rows) == 2
    assert rows[1][1] == "mmse"


def test_per_sweep_reproducible(tmp_path):
    cfgp = sweep_config(tmp_path)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    cli.main(["per-sweep", "--config", cfgp, "--out", str(a), "--seed", "3"])
    cli.main(["per-sweep", "--config", cfgp, "--out", str(b), "--seed", "3"])
    assert read_rows(a)[1] == read_rows(b)[1]


@pytest.mark.parametrize("csi, digest", [
    ("genie",
     "b4eabc491090552e7e9dc13bef4d7b9d79922304966c8b5bc6ab4f1f4c811ca9"),
    ("ls_dmrs",
     "affdb753c9f32c46587102084489d60f166b161a39cfc03cbb6ee3ab61ca8fd4"),
])
def test_per_sweep_matches_golden(tmp_path, csi, digest):
    # mixed PERs (0 to 0.71), so any change in the link chain shows
    cfgp = sweep_config(tmp_path, snr_db=[12, 20], detectors=["mmse", "mpnl"],
                        n_streams=4, m_antennas=4, mcs=2, channels=3,
                        frames_per_channel=4, n_subcarriers=24, csi=csi)
    out = tmp_path / "sweep.csv"
    assert cli.main(["per-sweep", "--config", cfgp, "--out", str(out),
                     "--seed", "5"]) == 0
    _, rows = read_rows(out)
    text = "\n".join(",".join(r) for r in rows)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_per_sweep_negative_snr(tmp_path):
    # a negative point keys its channels apart from its positive mirror
    cfgp = sweep_config(tmp_path, snr_db=[-5, 5])
    out = tmp_path / "sweep.csv"
    assert cli.main(["per-sweep", "--config", cfgp, "--out", str(out),
                     "--seed", "3"]) == 0
    _, rows = read_rows(out)
    assert [r[0] for r in rows[1:]] == ["-5", "5"]
    assert float(rows[1][2]) >= float(rows[2][2])
    # non-negative points keep their entropy; -x draws apart from +x
    assert cli._sweep_entropy(3, 5) == (3, 5000)
    assert cli._sweep_entropy(3, 0) == (3, 0)
    for snr in (-5, -0.5, -20):
        states = [np.random.SeedSequence(
            entropy=cli._sweep_entropy(3, x)).generate_state(4)
            for x in (snr, -snr)]
        assert not np.array_equal(*states)


def test_per_sweep_rejects_zero_channels(tmp_path, capsys):
    cfgp = sweep_config(tmp_path, channels=0)
    out = tmp_path / "sweep.csv"
    assert cli.main(["per-sweep", "--config", cfgp, "--out", str(out)]) == 2
    assert "channels must be an integer >= 1" in capsys.readouterr().err
    assert not out.exists()


def bare_config(tmp_path, **kw):
    return write_config(tmp_path, kw)


def search_config(tmp_path, **kw):
    data = dict(streams=[2], mcs=[0], detectors=["mmse"],
                channels_per_group=2, frames_per_channel=2, n_subcarriers=12)
    data.update(kw)
    return write_config(tmp_path, data)


@pytest.mark.parametrize("command, config, bad, key", [
    ("per-sweep", sweep_config, dict(channels=-1), "channels"),
    ("per-sweep", sweep_config, dict(frames_per_channel="2"),
     "frames_per_channel"),
    ("per-sweep", sweep_config, dict(n_streams=2.0), "n_streams"),
    ("per-sweep", sweep_config, dict(mcs=True), "mcs"),
    ("per-sweep", sweep_config, dict(seed="1"), "seed"),
    ("per-sweep", sweep_config, dict(region="R2"), "region"),
    ("per-sweep", sweep_config, dict(channels_per_group=7),
     "channels_per_group"),
    ("search", search_config, dict(channels_per_group=-1),
     "channels_per_group"),
    ("search", search_config, dict(frames_per_channel="2"),
     "frames_per_channel"),
    ("search", search_config, dict(streams=[2, "4"]), "streams"),
    ("search", search_config, dict(mcs=7), "mcs"),
    ("search", search_config, dict(n_subcarriers=0), "n_subcarriers"),
    ("per-sweep", sweep_config, dict(snr_db=10), "snr_db"),
    ("per-sweep", sweep_config, dict(snr_db=[20, True]), "snr_db"),
    ("per-sweep", sweep_config, dict(speed_kmh="30"), "speed_kmh"),
    ("per-sweep", sweep_config, dict(snr_jitter_db="1"), "snr_jitter_db"),
    ("per-sweep", sweep_config, dict(snr_jitter_db=-1.0), "snr_jitter_db"),
    ("search", search_config, dict(speed_kmh=True), "speed_kmh"),
    ("search", search_config, dict(carrier_hz=0), "carrier_hz"),
    ("search", search_config, dict(carrier_hz="3.5e9"), "carrier_hz"),
    ("search", search_config, dict(region=["R1"]), "region"),
    ("search", search_config, dict(region="R3"), "region"),
    ("search", search_config, dict(detectors="mmse"), "detectors"),
    ("search", search_config, dict(profile=["tdl-b-like"]), "profile"),
    ("search", search_config, dict(profile="tdl-x"), "profile"),
    ("per-sweep", sweep_config, dict(detectors="mmse"), "detectors"),
    ("per-sweep", sweep_config, dict(detectors=["mmse", 3]), "detectors"),
    ("per-sweep", sweep_config, dict(csi="perfect"), "csi"),
    ("per-sweep", sweep_config, dict(csi=["genie"]), "csi"),
    ("search", search_config, dict(csi="ls_dmrs"),
     "search does not read 'csi'"),
    ("per-sweep", sweep_config, dict(n_stream=4), "does not read 'n_stream'"),
    ("search", search_config, dict(profile={"delays_ns": [0, 100]}),
     "powers_db"),
    ("search", search_config, dict(profile={
        "delays_ns": [0, 100], "powers_db": [0, -3], "rician_k_db": "x"}),
     "rician_k_db"),
    ("per-sweep", sweep_config, dict(profile={
        "delays_ns": [0, 100], "powers_db": [0, -3], "rician_k": 10}),
     "profile does not read 'rician_k'"),
    ("per-sweep", sweep_config, dict(snr_db=[math.inf]), "snr_db"),
    ("per-sweep", sweep_config, dict(snr_db=[20, -math.inf]), "snr_db"),
    ("per-sweep", sweep_config, dict(snr_jitter_db=math.inf),
     "snr_jitter_db"),
    ("per-sweep", sweep_config, dict(speed_kmh=math.inf), "speed_kmh"),
    ("search", search_config, dict(carrier_hz=math.nan), "carrier_hz"),
    ("per-sweep", sweep_config, dict(snr_db=[10**400]), "snr_db"),
    ("search", search_config, dict(profile={
        "delays_ns": [0, 100], "powers_db": [0, 4000]}), "powers"),
    ("per-sweep", sweep_config, dict(n_subcarriers=6), "n_subcarriers"),
    ("search", search_config, dict(n_subcarriers=6), "n_subcarriers"),
    ("per-sweep", sweep_config, dict(detectors=["mmse", "ml"], n_streams=9,
                                     m_antennas=9), "exceeds guard"),
    ("per-sweep", sweep_config, dict(mcs=24), "MCS 24"),
    ("per-sweep", sweep_config, dict(detectors=["mpnl"], n_paths=65537),
     "n_paths"),
    ("search", search_config, dict(channels_per_group=0),
     "channels_per_group"),
    ("per-sweep", sweep_config, dict(detectors=[]), "detectors"),
    ("search", search_config, dict(streams=[]), "streams"),
    ("connectivity", bare_config, dict(antenna_budgets=[]),
     "antenna_budgets"),
    ("bench", bare_config, dict(workers=[]), "workers"),
    # finite numbers whose noise variance is not: the second point fails
    # before the first runs
    ("per-sweep", sweep_config, dict(snr_db=[20, 1.0e300]),
     "target_snr_db=1e+300"),
    ("per-sweep", sweep_config, dict(snr_db=[20, -1.0e300]),
     "target_snr_db=-1e+300"),
    ("per-sweep", sweep_config, dict(snr_jitter_db=1.0e300),
     "jitter_db=1e+300"),
    # a repeated value would run its cell or pass twice and write its row
    # twice, a table that connectivity then refuses
    ("search", search_config, dict(streams=[2, 2]), "streams repeats"),
    ("search", search_config, dict(mcs=[0, 7, 0]), "mcs repeats"),
    ("search", search_config, dict(detectors=["mmse", "mmse"]),
     "detectors repeats"),
    ("per-sweep", sweep_config, dict(snr_db=[20, 20.0]), "snr_db repeats"),
    ("connectivity", bare_config, dict(antenna_budgets=[4, 4]),
     "antenna_budgets repeats"),
    ("connectivity", bare_config, dict(use_cases=[
        {"name": "a", "rate_mbps": 1.0}, {"name": "a", "rate_mbps": 2.0}]),
     "distinct names"),
    ("bench", bare_config, dict(workers=[1, 1]), "workers repeats"),
])
def test_rejects_bad_integer_setting_before_any_cell(
        tmp_path, capsys, monkeypatch, command, config, bad, key):
    def measure_per(*args, **kwargs):
        raise AssertionError("a cell ran")

    monkeypatch.setattr(linksim, "measure_per", measure_per)
    out = tmp_path / "out.csv"
    assert cli.main([command, "--config", config(tmp_path, **bad),
                     "--out", str(out)]) == 2
    assert key in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("bad, key", [
    (dict(detectors=["mmse", "sphere"]), "sphere"),
    (dict(streams=[2, 13]), "n_streams"),
    (dict(mcs=[2, 28]), "MCS index 28"),
    (dict(streams=[2, 9], detectors=["mmse", "ml"]), "exceeds guard"),
    (dict(mcs=[2, 24]), "MCS 24"),
], ids=["sphere", "13-streams", "mcs-28", "ml-9-streams", "mcs-24"])
def test_search_rejects_bad_detector_before_any_cell(tmp_path, capsys,
                                                    monkeypatch, bad, key):
    # the first cell alone is valid, so only an up-front check stops it
    def measure_per(*args, **kwargs):
        raise AssertionError("a cell ran")

    monkeypatch.setattr(linksim, "measure_per", measure_per)
    out = tmp_path / "grid.csv"
    assert cli.main(["search", "--config", search_config(tmp_path, **bad),
                     "--out", str(out)]) == 2
    assert key in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, config", [
    ("per-sweep", sweep_config), ("search", search_config)])
def test_profile_beyond_guard_rejected_before_any_grid(
        tmp_path, capsys, monkeypatch, command, config):
    # a 3000 ns cluster is past the 2340 ns guard
    def tdl_generate(*args, **kwargs):
        raise AssertionError("a grid was drawn")

    monkeypatch.setattr(ch, "tdl_generate", tdl_generate)
    out = tmp_path / "out.csv"
    cfgp = config(tmp_path, profile={"delays_ns": [0, 3000],
                                     "powers_db": [0, -3]})
    assert cli.main([command, "--config", cfgp, "--out", str(out)]) == 2
    assert "guard" in capsys.readouterr().err
    assert not out.exists()


def test_workers_flag_only_for_bench(tmp_path, capsys):
    cfgp = sweep_config(tmp_path)
    out = tmp_path / "sweep.csv"
    assert cli.main(["per-sweep", "--config", cfgp, "--out", str(out),
                     "--workers", "2"]) == 2
    assert "--workers applies only to bench" in capsys.readouterr().err
    assert not out.exists()


def test_search_command_writes_grid(tmp_path):
    cfgp = write_config(tmp_path, dict(
        streams=[2], mcs=[0], detectors=["mmse"], channels_per_group=2,
        frames_per_channel=2, n_subcarriers=12))
    out = tmp_path / "grid.csv"
    assert cli.main(["search", "--config", cfgp, "--out", str(out),
                     "--seed", "5"]) == 0
    cells = search.read_heatmap_csv(out)
    assert len(cells) == 1
    assert cells[0].detector == "mmse"


def test_connectivity_uses_shipped_table(tmp_path):
    cfgp = write_config(tmp_path, dict(antenna_budgets=[4, 8]))
    out = tmp_path / "report.json"
    assert cli.main(["connectivity", "--config", cfgp,
                     "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["mcs"] == 12
    assert len(payload["rows"]) == 2 * 5       # 5 default use cases
    manifest, rows = read_rows(str(out) + ".csv")
    assert rows[0][0] == "use_case"
    assert len(rows) == 1 + 2 * 5


def test_connectivity_custom_use_cases_and_table(tmp_path):
    cells = [search.SearchCell(2, 12, "mmse", 3, 0.0, 0.5, 400),
             search.SearchCell(2, 12, "mpnl", 2, 0.0, 0.5, 400)]
    table = tmp_path / "table.csv"
    search.write_csv(table, {}, search.HEATMAP_HEADER,
                     search.heatmap_rows(cells))
    cfgp = write_config(tmp_path, dict(
        table_csv=str(table), antenna_budgets=[2],
        use_cases=[{"name": "custom", "rate_mbps": 1.0}]))
    out = tmp_path / "r.json"
    assert cli.main(["connectivity", "--config", cfgp,
                     "--out", str(out)]) == 0
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    payload = json.loads(out.read_text(), parse_constant=reject)
    row = payload["rows"][0]
    assert row["use_case"] == "custom"
    assert row["streams"]["mpnl"] == 2 and row["streams"]["mmse"] == 0
    assert row["gain_ratio"] == "inf"


@pytest.mark.parametrize("bad, key", [
    (dict(mcs="12"), "mcs"),
    (dict(mcs=-1), "mcs"),
    (dict(antenna_budgets=4), "antenna_budgets"),
    (dict(antenna_budgets=[4, 0]), "antenna_budgets"),
    (dict(se="x"), "se"),
    (dict(se=0), "se"),
    (dict(se=False), "se"),
    (dict(use_cases=5), "use_cases"),
    (dict(use_cases=[]), "use_cases"),
    (dict(use_cases=[{"name": "x", "rate_mbps": "1"}]), "use_cases"),
    (dict(table_csv=5), "table_csv"),
    (dict(se=math.inf), "se"),
])
def test_connectivity_rejects_bad_setting(tmp_path, capsys, bad, key):
    out = tmp_path / "r.json"
    assert cli.main(["connectivity", "--config", write_config(tmp_path, bad),
                     "--out", str(out)]) == 2
    assert key in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("table", [
    "", "snr_db,detector,per,ci95,frames\n20,mmse,0.1,0.05,40\n",
    # more streams than linksim.MAX_STREAMS: a row no search can write
    ",".join(search.HEATMAP_HEADER) + "\n2,12,mpnl,2,0.05,0.2,400\n"
    "14,12,mpnl,14,0.05,0.2,400\n",
    # a second row for one (streams, mcs, detector)
    ",".join(search.HEATMAP_HEADER) + "\n2,12,mmse,3,0.05,0.2,400\n"
    "2,12,mmse,9,0.05,0.2,400\n",
    # an antenna count no search can report
    ",".join(search.HEATMAP_HEADER) + "\n2,12,mmse,-3,0.05,0.2,400\n",
], ids=["empty", "per-sweep-columns", "14-streams", "repeated-key",
        "negative-antennas"])
def test_connectivity_rejects_non_heatmap_table(tmp_path, capsys, table):
    path = tmp_path / "table.csv"
    path.write_text(table)
    out = tmp_path / "r.json"
    cfgp = write_config(tmp_path, dict(table_csv=str(path)))
    assert cli.main(["connectivity", "--config", cfgp,
                     "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "cannot read table_csv" in err and str(path) in err
    assert not out.exists()


# SHA-256 of the report's JSON and CSV with their manifests left out, over
# se {the MCS's, 0.5, 3.0} x {default use cases, three custom rates} with
# budgets 1-32 on the shipped table, taken before the report's rewrite
@pytest.mark.parametrize("mcs, digest", [
    (2, "5307ca80047928b103c155cb0ecdeb0351e07777229d322695fd1778d7688cbf"),
    (7, "7f83e278c86d169f5422a7b5f25b0b0a0dd7f5a056e0513485463aed5931b018"),
    (12, "a0eab848bae5221c374f03d7dd40c3402fd89fcccd947105f8a97b827a422f51"),
])
def test_connectivity_matches_golden(tmp_path, mcs, digest):
    # 0.1 Mbps is below one RB, 400 Mbps above the carrier at se 0.5
    custom = [{"name": "slow", "rate_mbps": 0.1},
              {"name": "mid", "rate_mbps": 20},
              {"name": "fast", "rate_mbps": 400}]
    h = hashlib.sha256()
    for se in ({}, {"se": 0.5}, {"se": 3.0}):
        for uc in ({}, {"use_cases": custom}):
            cfgp = write_config(tmp_path, dict(
                mcs=mcs, antenna_budgets=list(range(1, 33)), **se, **uc))
            out = tmp_path / "r.json"
            assert cli.main(["connectivity", "--config", cfgp,
                             "--out", str(out)]) == 0
            # the manifest is the first member, one line per field
            text = re.sub(r'^  "manifest": \{\n(?:    .*\n)*  \},\n', "",
                          out.read_text(), count=1, flags=re.M)
            assert '"manifest"' not in text
            with open(str(out) + ".csv") as f:
                rows = "".join(line for line in f if not line.startswith("# "))
            h.update(text.encode())
            h.update(rows.encode())
    assert h.hexdigest() == digest


def test_connectivity_unbounded_demand_serves_no_vehicle(tmp_path):
    # 1e303 Mbps passes the finite check and overflows to inf in bits/s
    cfgp = write_config(tmp_path, dict(
        antenna_budgets=[8],
        use_cases=[{"name": "big", "rate_mbps": 1.0e+303}]))
    out = tmp_path / "r.json"
    assert cli.main(["connectivity", "--config", cfgp,
                     "--out", str(out)]) == 0
    row, = json.loads(out.read_text())["rows"]
    assert row["vehicles"] == {"mmse": 0, "mpnl": 0}


def test_connectivity_rejects_bad_use_case(tmp_path, capsys):
    cfgp = write_config(tmp_path, dict(use_cases=[{"name": "x"}]))
    rc = cli.main(["connectivity", "--config", cfgp,
                   "--out", str(tmp_path / "r.json")])
    assert rc == 2


def bench_config(tmp_path, **kw):
    data = dict(detector="mpnl", n_streams=4, m_antennas=4,
                modulation_order=4, n_paths=8, n_instances=256,
                chunk_size=64, workers=[1, 2], repeats=1)
    data.update(kw)
    return write_config(tmp_path, data)


@pytest.mark.parametrize("workers", [[1, 2], [2, 1]])
def test_bench_bit_identical_across_workers(tmp_path, workers):
    cfgp = bench_config(tmp_path, workers=workers)
    out = tmp_path / "bench.csv"
    assert cli.main(["bench", "--config", cfgp, "--out", str(out),
                     "--seed", "9"]) == 0
    _, rows = read_rows(out)
    head = rows[0]
    assert head[-1] == "bit_identical"
    workers = [int(r[head.index("workers")]) for r in rows[1:]]
    assert workers == [1, 2]
    assert rows[1][head.index("speedup")] == "1.000"
    assert all(r[-1] == "True" for r in rows[1:])


def test_bench_workers_flag_overrides_config(tmp_path):
    cfgp = bench_config(tmp_path, workers=[2])
    out = tmp_path / "bench.csv"
    assert cli.main(["bench", "--config", cfgp, "--out", str(out),
                     "--workers", "1"]) == 0
    _, rows = read_rows(out)
    assert [r[5] for r in rows[1:]] == ["1"]


@pytest.mark.parametrize("bad, message", [
    (dict(repeats=0), "repeats"),
    (dict(chunk_size=0), "chunk_size"),
    (dict(workers=[1, 0]), "workers"),
    (dict(n_instances=100), "multiple of chunk_size"),
    (dict(n_instances=0), "n_instances"),
    (dict(repeats="3"), "repeats"),
    (dict(repeats=True), "repeats"),
    (dict(chunk_size=64.0), "chunk_size"),
    (dict(workers=2), "workers"),
    (dict(workers=[1, "2"]), "workers"),
    (dict(n_paths=65537), "n_paths must be in"),
    (dict(detector="zf", n_streams=4, m_antennas=2, workers=[2, 1]),
     "needs at least 4"),
    (dict(modulation_order=8), "constellation order 8"),
    (dict(snr_db="20"), "snr_db"),
    (dict(detector=["mpnl"]), "detector"),
    (dict(detector="sphere"), "detector"),
    (dict(detectors=["mpnl"]), "bench does not read 'detectors'"),
    (dict(snr_db=math.inf), "snr_db"),
    (dict(snr_db=1.0e300), "snr_db=1e+300"),
    (dict(snr_db=-1.0e300), "snr_db=-1e+300"),
    # finite for one stream, infinite for the four the bench draws
    (dict(snr_db=-3080.0, n_streams=4, m_antennas=4), "N = 4"),
    # finite for four streams, but its square overflows
    (dict(snr_db=-3069.0), "snr_db=-3069.0"),
])
def test_bench_rejects_bad_config(tmp_path, capsys, monkeypatch, bad,
                                  message):
    def pool(*args, **kwargs):
        raise AssertionError("a pool started")

    monkeypatch.setattr(cli, "ProcessPoolExecutor", pool)
    cfgp = bench_config(tmp_path, **bad)
    out = tmp_path / "bench.csv"
    assert cli.main(["bench", "--config", cfgp, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("detector", sorted(det.DETECTORS))
def test_bench_runs_clean_at_the_lowest_admitted_snr(tmp_path, detector):
    """At the lowest SNR bench admits for four streams, about -1535 dB,
    every detector runs with no floating-point warning."""
    snr = math.ceil(10 * math.log10(4 / ch.MAX_NOISE_VARIANCE) * 1000) / 1000
    cfgp = bench_config(tmp_path, detector=detector, snr_db=snr,
                        n_instances=64, workers=[1])
    out = tmp_path / "bench.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["bench", "--config", cfgp, "--out", str(out)]) == 0
    with pytest.raises(ValueError, match="N = 4"):
        ch.check_snr_range("x", snr - 0.01, snr - 0.01, 4)


def required_settings(table):
    """A value for each `Required` key of a command's table; the one such
    key, per-sweep's snr_db, is a list of numbers."""
    return {key: [20.0] for key, (default, _) in table.items()
            if isinstance(default, cli.Required)}


@pytest.mark.parametrize("command", sorted(cli.COMMANDS))
def test_seed_flag_checked_like_config_seed(tmp_path, capsys, monkeypatch,
                                            command):
    required = required_settings(cli.COMMANDS[command][1])
    ran = []
    monkeypatch.setitem(cli.COMMANDS, command, (
        lambda settings, manifest, out, seed: ran.append(
            (manifest["seed"], seed)),
        cli.COMMANDS[command][1]))
    out = tmp_path / "out"
    # each seed present is checked, whichever one the run uses
    for data, argv in [({}, ["--seed", "-1"]), ({"seed": -1}, []),
                       ({"seed": -1}, ["--seed", "1"]),
                       ({"seed": 1}, ["--seed", "-1"])]:
        cfgp = write_config(tmp_path, {**required, **data})
        assert cli.main([command, "--config", cfgp, "--out", str(out),
                         *argv]) == 2
        assert "seed must be an integer >= 0 (got -1)" in \
            capsys.readouterr().err
        assert not out.exists()
    assert ran == []
    # --seed overrides a valid config seed
    cfgp = write_config(tmp_path, {**required, "seed": 5})
    assert cli.main([command, "--config", cfgp, "--out", str(out),
                     "--seed", "7"]) == 0
    assert ran == [(7, 7)]


@pytest.mark.parametrize("command", sorted(cli.COMMANDS))
def test_settings_defaults_pass_their_rules(tmp_path, monkeypatch, command):
    _, table = cli.COMMANDS[command]
    received = []
    monkeypatch.setitem(cli.COMMANDS, command, (
        lambda settings, manifest, out, seed: received.append(settings),
        table))
    # None stands for an absent setting, which no config can spell; a
    # Required key has no default and every config gives it
    required = required_settings(table)
    spelled = {key: default for key, (default, _) in table.items()
               if default is not None and key not in required}
    for name, data in [("empty.yaml", required),
                       ("spelled.yaml", {**spelled, **required})]:
        assert cli.main([command, "--config",
                         write_config(tmp_path, data, name),
                         "--out", str(tmp_path / "out")]) == 0
    assert received[0] == received[1]


def test_bench_chunk_is_deterministic():
    args = ("mpnl", 2, 2, 4, 4, 20.0, 7, 0, 32)
    assert np.array_equal(cli._bench_chunk(args), cli._bench_chunk(args))
