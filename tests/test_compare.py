"""The verdict rule of tools/compare.py on synthetic pairs, and the source
export each side runs from."""

import importlib.util
import shutil
import subprocess
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "compare", Path(__file__).resolve().parents[1] / "tools" / "compare.py")
compare = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare)

# ten parent runs with median 100 and quartiles 99 and 101 (IQR 2)
PARENT = [98.0, 98.5, 99.0, 99.0, 100.0, 100.0, 101.0, 101.0, 101.5, 102.0]


def shifted(delta, losses=0):
    """The parent's runs moved by delta, with the first `losses` pairs
    moved the other way."""
    return [p - delta if k < losses else p + delta
            for k, p in enumerate(PARENT)]


def test_quartiles_interpolate_linearly():
    assert compare.quartiles(PARENT) == (99.0, 100.0, 101.0)
    assert compare.quartiles([3.0, 1.0, 2.0, 4.0]) == (1.75, 2.5, 3.25)
    assert compare.quartiles([5.0]) == (5.0, 5.0, 5.0)


@pytest.mark.parametrize("change, better, want", [
    # every pair won and the median gap (3) beats the parent's IQR (2)
    (shifted(3.0), "higher", "gain"),
    # nine of ten pairs is still a gain; eight is not
    (shifted(3.0, losses=1), "higher", "gain"),
    (shifted(3.0, losses=2), "higher", "no regression"),
    # every pair won but by less than the parent's IQR
    (shifted(1.5), "higher", "no regression"),
    # the same runs read the other way for a lower-is-better metric
    (shifted(-3.0), "lower", "gain"),
    (shifted(3.0), "lower", "no regression"),
    # worse by 30% of the median against a 25% bound
    (shifted(-30.0), "higher", "regression"),
    (shifted(30.0), "lower", "regression"),
    # worse by 20%: within the bound
    (shifted(-20.0), "higher", "no regression"),
    # ties count for neither side
    (list(PARENT), "higher", "no regression"),
])
def test_verdict_on_synthetic_pairs(change, better, want):
    assert compare.verdict(PARENT, change, better, 0.25) == want


def test_fewer_than_ten_pairs_are_unresolved():
    change = [p + 50.0 for p in PARENT]
    assert compare.verdict(PARENT[:9], change[:9], "higher", 0.25) == \
        "unresolved"
    assert compare.verdict(PARENT, change, "higher", 0.25) == "gain"


def test_parent_spread_wider_than_the_bound_is_unresolved():
    # IQR 2 against a 1% bound: no verdict of "unchanged" is possible
    assert compare.verdict(PARENT, list(PARENT), "higher", 0.01) == \
        "unresolved"
    # unless every change run beats every parent run
    assert compare.verdict(PARENT, [103.0] * 10, "higher", 0.01) == "gain"
    # runs whose low quartile is far down (IQR 20): 101 beats every run
    # but not by the IQR
    wide = [80.0] * 4 + [99.0] + [100.0] * 5
    assert compare.verdict(wide, [101.0] * 10, "higher", 0.01) == \
        "no regression"
    assert compare.verdict(wide, [100.0] * 10, "higher", 0.01) == \
        "unresolved"


def test_verdict_rejects_unpaired_runs_and_unknown_direction():
    with pytest.raises(ValueError, match="one value per pair"):
        compare.verdict(PARENT, PARENT[:9], "higher", 0.25)
    with pytest.raises(ValueError, match="better"):
        compare.verdict(PARENT, PARENT, "up", 0.25)


def test_gain_with_more_failed_operations_is_unresolved():
    change = shifted(3.0)
    # the change fails a larger share of its operations than the parent
    assert compare.verdict(PARENT, change, "higher", 0.25,
                           failed_share=(0.0, 0.01)) == "unresolved"
    assert compare.verdict(PARENT, change, "higher", 0.25,
                           failed_share=(0.02, 0.01)) == "gain"
    # a regression stays a regression whatever fails
    assert compare.verdict(PARENT, shifted(-30.0), "higher", 0.25,
                           failed_share=(0.0, 0.01)) == "regression"


def test_summary_counts_failed_operations_of_every_pair():
    def run(value, attempted, failed):
        return {"metrics": {"throughput_per_s": value},
                "attempted": attempted, "failed": failed}
    pairs = [{"parent": run(p, 10, 0), "change": run(p + 3.0, 10, k == 4)}
             for k, p in enumerate(PARENT)]
    metric = {"name": "throughput_per_s", "unit": "1/s", "better": "higher",
              "bound": 0.25}
    out = compare.summarize(pairs, [metric])["throughput_per_s"]
    assert out["wins"] == 10 and out["verdict"] == "unresolved"
    pairs[4]["change"]["failed"] = 0
    assert compare.summarize(pairs, [metric])["throughput_per_s"][
        "verdict"] == "gain"


def test_source_digest_covers_every_listed_file(tmp_path):
    (tmp_path / "a.py").write_bytes(b"x = 1\n")
    (tmp_path / "b.py").write_bytes(b"")
    base = compare.source_sha256(tmp_path, ["a.py", "b.py"])
    assert compare.source_sha256(tmp_path, ["b.py", "a.py"]) == base
    assert compare.source_sha256(tmp_path, ["a.py"]) != base
    (tmp_path / "b.py").write_bytes(b"y = 2\n")
    assert compare.source_sha256(tmp_path, ["a.py", "b.py"]) != base


def test_run_order_is_drawn_from_the_seed():
    """Over 10 pairs each side runs first in 5, in no fixed alternation,
    and a seed always gives the same order."""
    orders = [compare.run_order(k) for k in range(1, 11)]
    assert all(sorted(o) == ["change", "parent"] for o in orders)
    firsts = [o[0] for o in orders]
    assert firsts.count("parent") == 5
    assert firsts[0::2] != ["parent"] * 5 and firsts[0::2] != ["change"] * 5
    assert [compare.run_order(k) for k in range(1, 11)] == orders


def _git_repo(root, files):
    """A repository at `root` with `files` ({path: text}) committed."""
    for path, text in files.items():
        (root / path).parent.mkdir(parents=True, exist_ok=True)
        (root / path).write_text(text)

    def git(*args):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t",
                        *args], cwd=root, check=True, capture_output=True)
    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "base")


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_export_is_one_routine_for_both_sides(tmp_path):
    """A revision exported twice, and a clean working tree, give the same
    files and source_sha256."""
    repo = tmp_path / "repo"
    _git_repo(repo, {"src/pkg/a.py": "a = 1\n", "perfbench/b.py": "b = 1\n"})
    digests = []
    for k, rev in enumerate(("HEAD", "HEAD", None)):
        dest = tmp_path / f"side{k}"
        dest.mkdir()
        files = compare.export(repo, dest, rev)
        assert sorted(files) == ["perfbench/b.py", "src/pkg/a.py"]
        digests.append(compare.source_sha256(dest, files))
    assert len(set(digests)) == 1


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_export_copies_sources_without_caches(tmp_path):
    """Both sides are fresh copies of SOURCES: a revision as committed, and
    the working tree with its edits and untracked files but without
    ignored bytecode caches, deleted files or files outside SOURCES.  The
    working tree's export leaves the repository's status as it was."""
    repo = tmp_path / "repo"
    _git_repo(repo, {"src/pkg/a.py": "a = 1\n", "perfbench/b.py": "b = 1\n",
                     "perfbench/gone.py": "c = 1\n", "tools/t.py": "t = 1\n",
                     ".gitignore": "__pycache__/\n"})
    (repo / "src/pkg/a.py").write_text("a = 2\n")
    (repo / "src/pkg/new.py").write_text("n = 1\n")
    (repo / "src/pkg/__pycache__").mkdir()
    (repo / "src/pkg/__pycache__/a.cpython-311.pyc").write_bytes(b"stale")
    (repo / "perfbench/gone.py").unlink()

    def status():
        return subprocess.run(["git", "status", "--porcelain"], cwd=repo,
                              check=True, capture_output=True).stdout
    before = status()
    listed = {}
    for side, rev in (("parent", "HEAD"), ("change", None)):
        dest = tmp_path / side
        dest.mkdir()
        listed[side] = sorted(compare.export(repo, dest, rev))
        assert listed[side] == sorted(f.relative_to(dest).as_posix()
                                      for f in dest.rglob("*") if f.is_file())
    assert listed["parent"] == ["perfbench/b.py", "perfbench/gone.py",
                                "src/pkg/a.py"]
    assert listed["change"] == ["perfbench/b.py", "src/pkg/a.py",
                                "src/pkg/new.py"]
    assert (tmp_path / "parent/src/pkg/a.py").read_text() == "a = 1\n"
    assert (tmp_path / "change/src/pkg/a.py").read_text() == "a = 2\n"
    assert status() == before           # the repository's index untouched
