"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def smoke(name, seed=0):
    """A shrunken copy of each workload."""
    if name == "link_slots":
        return workloads.LinkSlots(
            seed, matrix=(("mmse", "genie", 2), ("mpnl", "ls_dmrs", 12)),
            frames=2)
    if name == "detect_kernels":
        return workloads.DetectKernels(seed, channels=2, subcarriers=4)
    return workloads.SearchGrid(seed, cells=((2, 2, "mpnl"),))


@pytest.fixture(scope="module", params=sorted(workloads.WORKLOADS))
def runs(request):
    """(untraced, traced) runs of one smoke workload: (record, result)."""
    return (run.measure(smoke(request.param), 0, trace=False),
            run.measure(smoke(request.param), 0, trace=True))


def _names(kind):
    return [m["name"] for m in BENCH[kind]]


def _check_metrics(result, kind):
    assert list(result["metrics"]) == _names(kind)
    for m in BENCH[kind]:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float)


def test_smoke_pass_completes_without_failures(runs):
    for record, result in runs:
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        assert record["failed_ratio"] == 0


def test_printed_metric_names_match_benchmark_json(runs):
    (_, plain), (_, traced) = runs
    _check_metrics(plain, "end_to_end")
    _check_metrics(traced, "per_layer")
    assert all(m["value"] > 0 for m in plain["metrics"].values())


def test_traced_outputs_match_untraced(runs):
    (plain, _), (traced, _) = runs
    assert traced["traced_identical"]
    assert traced["exact_digest"] == plain["exact_digest"]


def test_wrappers_restored_after_traced_run():
    before = [owner.__dict__[attr] for owner, attr, _, _ in spans.TARGETS]
    original = workloads.linksim.simulate_frames
    with pytest.raises(RuntimeError):
        with spans.installed(spans.Tracer()):
            assert workloads.linksim.simulate_frames is not original
            raise RuntimeError
    run.measure(smoke("detect_kernels"), 0, trace=True)
    after = [owner.__dict__[attr] for owner, attr, _, _ in spans.TARGETS]
    assert all(a is b for a, b in zip(before, after))


def test_tracer_self_time_and_nesting():
    tr = spans.Tracer()
    inner = tr.wrap("fec.syndrome", lambda: None)
    outer = tr.wrap("fec.decode", lambda: (inner(), inner()))
    outer()
    t = tr.totals()
    assert t["fec.decode_calls"] == 1 and t["fec.syndrome_calls"] == 2
    assert t["fec.syndrome_in_decode"] == 2
    assert [s[3] for s in tr.spans] == [-1, 0, 0]


def test_golden_digests_are_for_full_size_workloads():
    golden = json.loads((HERE / "golden.json").read_text())
    assert golden["seed"] == run.DEFAULT_SEED
    assert set(golden["digests"]) == {"link_slots", "detect_kernels"}


def test_benchmark_json_contract():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert BENCH["command"][:2] == ["python3", "perfbench/run.py"]
    assert BENCH["paths"] == ["perfbench"]
    assert 1 <= BENCH["run_seconds"] <= 60
    assert {w["name"] for w in BENCH["workloads"]} == set(workloads.WORKLOADS)
    names = [m["name"] for k in ("workloads", "end_to_end", "per_layer")
             for m in BENCH[k]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    for w in BENCH["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200
    for m in BENCH["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in BENCH["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in BENCH["end_to_end"] + BENCH["per_layer"]:
        assert UNIT.fullmatch(m["unit"]) and m["better"] in ("lower",
                                                             "higher")
    setup = next(m for m in BENCH["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in BENCH["end_to_end"])


def test_fails_without_library_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "link_slots",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
