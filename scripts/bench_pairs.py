#!/usr/bin/env python3
"""Alternating parent/change runs of perfbench; writes BENCH_<workload>.json.

    python3 scripts/bench_pairs.py --workload sample-mri --seed 501 --parent HEAD

Both sides run from plain copies in temporary sibling directories under
``.bench_build/``, removed afterwards: the parent from the files of its
revision (``git archive``), the change from this checkout's working tree,
its tracked and untracked files that git does not ignore (``git ls-files
--cached --others --exclude-standard``), uncommitted edits included.  A side
run from a git worktree or from the checkout itself read 1.4-3 % apart from
a copy of the same code on train-mixture.  There are 10 pairs of 30 s runs, the
benchmark's run length.  Pair i runs ``perfbench/run.py --seed <seed + i>``
once on each side, the parent first on even pairs and the change first on
odd ones, one run at a time.  The output keeps every run's result line and
its ``{"perfbench": ...}`` record (machine, BLAS, commit, output digest), the
median and quartiles of each end-to-end metric per side, in how many
pairs the change was lower, and a verdict per end-to-end metric of
``BENCHMARK.json``, judged against that metric's ``bound`` in its
``better`` direction:

- ``better``: the change wins at least 9 in 10 pairs (ties count for
  neither) and its median beats the parent's by more than the parent's IQR;
- ``unresolved``: otherwise, if the parent's IQR is more than ``bound``
  times its median, unless every change run beats every parent run;
- ``worse``: otherwise, if the change's median is worse than the parent's
  by more than ``bound`` times the parent's median;
- ``within bound``: every other case.

Each side also records the size of its package source, the per-file and
total line counts of ``wc -l src/sysbridge/*.py``.  Both runs of a pair use
the same seed, so their output digests compare: the record keeps in how many
pairs the two were equal.

The script prints one summary line per metric: both medians, the pairs the
change won, the verdict, and the parent's IQR as a percentage of its median,
next to the metric's bound where it has one, so that an ``unresolved``
verdict shows at a glance how far the parent's spread exceeds the bound::

    setup_s: parent 0.0008 change 0.001 lower in 3/10: unresolved; parent IQR 27 % of median, bound 25 %

and then one line on the digests::

    output digest: equal in 10/10 pairs
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10
SECONDS = 30.0


def git(*args, cwd=ROOT) -> str:
    return subprocess.run(
        ["git", *args], cwd=cwd, check=True, capture_output=True, text=True
    ).stdout.strip()


def run_perfbench(checkout: Path, workload: str, seed: int) -> dict:
    """One untraced perfbench run: its perfbench record and its result line."""
    proc = subprocess.run(
        [sys.executable, str(checkout / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"perfbench failed in {checkout} (exit {proc.returncode}):\n{proc.stderr}")
    return {"perfbench": json.loads(lines[-2])["perfbench"], "result": json.loads(lines[-1])}


def copy_revision(rev: str, dest: Path) -> Path:
    """Extract the files of git revision ``rev`` into ``dest``; returns ``dest``."""
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return dest


def copy_working_tree(dest: Path) -> Path:
    """Copy this checkout's tracked and untracked, non-ignored files, as they
    are in the working tree, into ``dest``; returns ``dest``."""
    names = git("ls-files", "-z", "--cached", "--others", "--exclude-standard", cwd=ROOT)
    for name in filter(None, names.split("\0")):
        source = ROOT / name
        if source.is_file():  # not a tracked file deleted from the working tree
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, dest / name)
    return dest


def src_lines(checkout: Path) -> dict:
    """``wc -l src/sysbridge/*.py`` of a checkout: newlines per file and their total."""
    files = {
        path.name: path.read_bytes().count(b"\n")
        for path in sorted((checkout / "src" / "sysbridge").glob("*.py"))
    }
    return {"files": files, "total": sum(files.values())}


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def side_summary(runs):
    metrics = runs[0]["result"]["metrics"]
    return {
        name: {"unit": metrics[name]["unit"],
               **summary([r["result"]["metrics"][name]["value"] for r in runs])}
        for name in metrics
    }


def end_to_end_bounds():
    """{metric: (bound, better)} for the end-to-end metrics of BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}


def verdict(pairs, bound, better):
    """The verdict on one metric's (parent, change) value pairs; see the module doc."""
    sign = 1.0 if better == "lower" else -1.0
    parent = [sign * p for p, _ in pairs]  # lower is better on both sides now
    change = [sign * c for _, c in pairs]
    stats = summary(parent)
    base, iqr = stats["median"], stats["iqr"]
    moved = summary(change)["median"] - base
    if 10 * sum(c < p for p, c in zip(parent, change)) >= 9 * len(pairs) and -moved > iqr:
        return "better"
    if iqr > bound * abs(base) and not max(change) < min(parent):
        return "unresolved"
    if moved > bound * abs(base):
        return "worse"
    return "within bound"


def compare(parent_runs, change_runs):
    """Per metric: pairs where the change is lower, the median move and, for
    an end-to-end metric, its verdict."""
    bounds = end_to_end_bounds()
    parent, change = side_summary(parent_runs), side_summary(change_runs)
    out = {}
    for name in parent:
        pairs = [
            (p["result"]["metrics"][name]["value"], c["result"]["metrics"][name]["value"])
            for p, c in zip(parent_runs, change_runs)
        ]
        base = parent[name]["median"]
        out[name] = {
            "verdict": verdict(pairs, *bounds[name]) if name in bounds else None,
            "change_lower_pairs": sum(c < p for p, c in pairs),
            "pairs": len(pairs),
            "median_rel_change": (change[name]["median"] - base) / base if base else None,
            "median_drop_over_parent_iqr": (
                (base - change[name]["median"]) / parent[name]["iqr"] if parent[name]["iqr"] else None
            ),
        }
    return parent, change, out


def summary_lines(record) -> list:
    """One line per metric of a record: medians, pairs won, verdict, and the
    parent's IQR as a percentage of its median beside the metric's bound;
    then the pairs whose two runs had the same output digest."""
    bounds = end_to_end_bounds()
    lines = []
    for name, cmp in record["comparison"].items():
        parent, change = record["parent"]["summary"][name], record["change"]["summary"][name]
        spread = (f"parent IQR {100 * parent['iqr'] / abs(parent['median']):.0f} % of median"
                  if parent["median"] else f"parent IQR {parent['iqr']:.4g}, median 0")
        bound = f", bound {100 * bounds[name][0]:.0f} %" if name in bounds else ""
        lines.append(f"{name}: parent {parent['median']:.4g} change {change['median']:.4g} "
                     f"lower in {cmp['change_lower_pairs']}/{cmp['pairs']}: {cmp['verdict']}; "
                     f"{spread}{bound}")
    lines.append(f"output digest: equal in {record['digest_equal_pairs']}/{record['pairs']} pairs")
    return lines


def record_pairs(workload: str, seed: int, parent_rev: str, checkouts: dict) -> dict:
    """The record of PAIRS alternating runs of the ``checkouts`` of each side,
    {"parent": path, "change": path}."""
    lines = {side: src_lines(checkouts[side]) for side in ("parent", "change")}
    runs = {"parent": [], "change": []}
    for i in range(PAIRS):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            run = run_perfbench(checkouts[side], workload, seed + i)
            runs[side].append({"pair": i, "seed": seed + i, "order": order.index(side), **run})
            value = run["result"]["metrics"]["time_vs_control"]["value"]
            print(f"pair {i} seed {seed + i} {side}: time_vs_control {value:.4f}", file=sys.stderr)

    parent, change, pairs = compare(runs["parent"], runs["change"])
    same = sum(p["perfbench"]["digest"] == c["perfbench"]["digest"]
               for p, c in zip(runs["parent"], runs["change"]))
    dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
    return {
        "workload": workload,
        "seconds": SECONDS,
        "pairs": PAIRS,
        "seeds": [seed + i for i in range(PAIRS)],
        "parent": {"rev": parent_rev, "src_lines": lines["parent"], "summary": parent,
                   "runs": runs["parent"]},
        "change": {"rev": git("rev-parse", "HEAD"), "uncommitted_changes": dirty,
                   "src_lines": lines["change"], "summary": change, "runs": runs["change"]},
        "comparison": pairs,
        "digest_equal_pairs": same,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True, help="seed of the first pair")
    ap.add_argument("--parent", default="HEAD", help="git revision to compare against")
    ap.add_argument("--output", default=None, help="default: BENCH_<workload>.json in the checkout")
    args = ap.parse_args(argv)

    parent_rev = git("rev-parse", args.parent)
    scratch = ROOT / ".bench_build"
    scratch.mkdir(exist_ok=True)
    parent = Path(tempfile.mkdtemp(prefix="parent-", dir=scratch))
    change = Path(tempfile.mkdtemp(prefix="change-", dir=scratch))
    try:
        record = record_pairs(args.workload, args.seed, parent_rev, {
            "parent": copy_revision(parent_rev, parent), "change": copy_working_tree(change),
        })
    finally:
        shutil.rmtree(parent, ignore_errors=True)
        shutil.rmtree(change, ignore_errors=True)

    out = Path(args.output) if args.output else ROOT / f"BENCH_{args.workload}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print("\n".join(summary_lines(record)))
    lines = [record[side]["src_lines"]["total"] for side in ("parent", "change")]
    print(f"src/sysbridge lines: parent {lines[0]} change {lines[1]}")
    print(f"written to {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
