"""Paired benchmark runs of a parent revision against the working tree.

Run from the repository root:

    python3 tools/compare.py PARENT_REV --out BENCH_<n>.json [--pairs 10]

Each side runs from a fresh copy of the files under ``SOURCES`` in a
temporary directory, written by ``export`` with ``git archive`` for both
sides: the parent's as committed, the change's as the working tree has
them, uncommitted edits and untracked files included and ignored files
(bytecode caches) left out, so the two sides differ in code only.  For
every workload of ``BENCHMARK.json`` and each pair k = 1..pairs, each side
runs its own, unchanged ``perfbench/run.py --workload W --seed k
--seconds S`` in a fresh process, S being ``run_seconds`` from
``BENCHMARK.json``, in the order ``run_order(k)`` draws.  Every pair must
give equal ``exact_digest`` values and the change no failed operation.

For every end-to-end metric of ``BENCHMARK.json`` the file written holds
the per-pair values, each side's median and quartiles, the change's pair
wins and a verdict from ``verdict``.  It is rewritten after every pair, so
a cut run keeps what it measured.  The host (nproc, python, numpy, BLAS)
is the environment record of the runs.  Each side is identified by its
revision and by ``source_sha256``, a hash of the files under ``SOURCES``
that it ran; the change side's ``dirty`` counts untracked files too.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MIN_PAIRS = 10
WIN_SHARE = 0.9
SOURCES = ("src", "perfbench")   # what perfbench/run.py imports and reads


def quartiles(xs) -> tuple[float, float, float]:
    """(q1, median, q3) of xs, numpy's default linear interpolation."""
    xs = sorted(xs)

    def at(q):
        pos = q * (len(xs) - 1)
        lo = int(pos)
        hi = min(lo + 1, len(xs) - 1)
        return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)
    return at(0.25), at(0.5), at(0.75)


def verdict(parent, change, better: str, bound: float,
            failed_share=(0.0, 0.0)) -> str:
    """The verdict on one metric from paired runs (parent[k], change[k]).

    `failed_share` is each side's (parent, change) share of failed
    operations over all its runs.

    - "unresolved" with fewer than MIN_PAIRS pairs;
    - "gain" when the change is better in at least WIN_SHARE of the pairs
      (ties count for neither side) and its median is better than the
      parent's by more than the parent's interquartile range, but
      "unresolved" instead when the change fails a larger share of
      operations than the parent;
    - "regression" when the change's median is worse than the parent's by
      more than `bound`, a fraction of the parent's median;
    - "unresolved" when the parent's interquartile range exceeds `bound`
      of its median, unless every change run is better than every parent
      run;
    - "no regression" otherwise.
    """
    if len(parent) != len(change):
        raise ValueError("parent and change need one value per pair")
    if better not in ("higher", "lower"):
        raise ValueError(f"better must be 'higher' or 'lower', not {better!r}")
    if len(parent) < MIN_PAIRS:
        return "unresolved"
    sign = 1.0 if better == "higher" else -1.0
    p1, pmed, p3 = quartiles(parent)
    gap = sign * (statistics.median(change) - pmed)
    if wins(parent, change, better) >= WIN_SHARE * len(parent) \
            and gap > p3 - p1:
        return "gain" if failed_share[1] <= failed_share[0] \
            else "unresolved"
    if -gap > bound * abs(pmed):
        return "regression"
    clear = all(sign * (c - p) > 0 for c in change for p in parent)
    if p3 - p1 > bound * abs(pmed) and not clear:
        return "unresolved"
    return "no regression"


def wins(parent, change, better: str) -> int:
    """Pairs in which the change is better; a tie counts for neither."""
    sign = 1.0 if better == "higher" else -1.0
    return sum(sign * (c - p) > 0 for p, c in zip(parent, change))


def failed_share(pairs, side: str) -> float:
    """The share of `side`'s operations that failed over all pairs."""
    attempted = sum(p[side]["attempted"] for p in pairs)
    return sum(p[side]["failed"] for p in pairs) / max(attempted, 1)


def summarize(pairs, metrics) -> dict:
    """Medians, quartiles, wins and verdicts per end-to-end metric."""
    failed = (failed_share(pairs, "parent"), failed_share(pairs, "change"))
    out = {}
    for m in metrics:
        name = m["name"]
        parent = [p["parent"]["metrics"][name] for p in pairs]
        change = [p["change"]["metrics"][name] for p in pairs]
        sides = {}
        for side, xs in (("parent", parent), ("change", change)):
            q1, med, q3 = quartiles(xs)
            sides[side] = {"median": med, "q1": q1, "q3": q3,
                           "iqr": q3 - q1}
        out[name] = {
            "unit": m["unit"], "better": m["better"], "bound": m["bound"],
            **sides,
            "wins": wins(parent, change, m["better"]),
            "pairs": len(pairs),
            "verdict": verdict(parent, change, m["better"], m["bound"],
                               failed),
        }
    return out


def run_side(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in `root`: its metrics, digest and failures."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=root, capture_output=True, text=True, timeout=3600)
    if proc.returncode:
        raise RuntimeError(f"{root}: {workload} seed {seed} exited "
                           f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    record_line, result_line = proc.stdout.strip().splitlines()[-2:]
    record = json.loads(record_line)["record"]
    result = json.loads(result_line)
    return {"metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "exact_digest": record["exact_digest"],
            "attempted": result["attempted"], "failed": result["failed"],
            "environment": record["environment"]}


def git(*args, cwd: Path = ROOT) -> str:
    return subprocess.run(["git", *args], cwd=cwd, capture_output=True,
                          text=True, check=True).stdout.strip()


def run_order(seed: int) -> tuple[str, str]:
    """The sides of pair `seed` in the order they run.  Pairs 2j - 1 and
    2j run in opposite orders, the first of them drawn from j, so each
    side runs first in half of any even number of pairs, and no fixed
    period of the host's load lines up with one side."""
    flip = random.Random(-(-seed // 2)).random() < 0.5
    return ("parent", "change") if flip == (seed % 2 == 1) else ("change",
                                                             "parent")


def export(root: Path, dest: Path, rev: str | None = None) -> list[str]:
    """Write the files under SOURCES of the repository at `root` into the
    directory `dest` with `git archive`: at revision `rev`, or with `rev`
    None as the working tree has them, untracked files included and
    ignored ones left out.  The working tree is archived as a tree object
    staged in a temporary index, so its blobs enter the repository's
    object store but its index stays as it is.  Returns the paths
    written, relative to `dest`."""
    if rev is None:
        with tempfile.TemporaryDirectory(prefix="compare-index-") as tmp:
            env = {**os.environ, "GIT_INDEX_FILE": str(Path(tmp) / "index")}
            subprocess.run(["git", "add", "-A", "--", *SOURCES], cwd=root,
                           env=env, capture_output=True, check=True)
            rev = subprocess.run(["git", "write-tree"], cwd=root, env=env,
                                 capture_output=True, text=True,
                                 check=True).stdout.strip()
    archive = subprocess.run(["git", "archive", rev, "--", *SOURCES],
                             cwd=root, capture_output=True, check=True)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive.stdout,
                   check=True)
    return git("ls-tree", "-r", "--name-only", rev, "--", *SOURCES,
               cwd=root).splitlines()


def source_sha256(root: Path, paths) -> str:
    """sha256 over the path and bytes of each of `paths` under `root`."""
    h = hashlib.sha256()
    for path in sorted(paths):
        data = (root / path).read_bytes()
        h.update(f"{path}\0{len(data)}\0".encode())
        h.update(data)
    return h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="git revision to compare against")
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--pairs", type=int, default=MIN_PAIRS)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    report = {
        "parent": {"rev": git("rev-parse", args.parent)},
        "change": {"rev": git("rev-parse", "HEAD"),
                   "dirty": bool(git("status", "--porcelain"))},
        "run_seconds": seconds, "pairs_planned": args.pairs,
        "host": None, "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="compare-") as tmp:
        revs = {"parent": report["parent"]["rev"], "change": None}
        roots = {side: Path(tmp) / side for side in revs}
        for side, rev in revs.items():
            roots[side].mkdir()
            files = export(ROOT, roots[side], rev)
            report[side]["source_sha256"] = source_sha256(roots[side], files)
        for w in (w["name"] for w in bench["workloads"]):
            pairs = []
            entry = report["workloads"][w] = {"pairs": pairs}
            for k in range(1, args.pairs + 1):
                order = run_order(k)
                pair = {"seed": k, "first": order[0]}
                for side in order:
                    run = run_side(roots[side], w, k, seconds)
                    env = run.pop("environment")
                    report["host"] = report["host"] or env
                    pair[side] = run
                pair["digests_equal"] = (pair["parent"]["exact_digest"]
                                         == pair["change"]["exact_digest"])
                pairs.append(pair)
                entry["outputs_equal"] = all(p["digests_equal"]
                                             for p in pairs)
                entry["failed"] = {s: sum(p[s]["failed"] for p in pairs)
                                   for s in roots}
                entry["metrics"] = summarize(pairs, bench["end_to_end"])
                args.out.write_text(json.dumps(report, indent=1) + "\n")
                print(f"{w} pair {k}: " + ", ".join(
                    f"{m} {pair['parent']['metrics'][m]:.4g} -> "
                    f"{pair['change']['metrics'][m]:.4g}"
                    for m in entry["metrics"]), file=sys.stderr, flush=True)
    bad = [w for w, e in report["workloads"].items()
           if not e["outputs_equal"] or e["failed"]["change"]]
    for w, e in report["workloads"].items():
        for name, m in e["metrics"].items():
            print(f"{w} {name}: {m['parent']['median']:.4g} -> "
                  f"{m['change']['median']:.4g} {m['unit']} "
                  f"({m['wins']}/{m['pairs']} wins) {m['verdict']}")
    if bad:
        print(f"outputs differ or operations failed on {bad}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
