"""The pair recorder's summary of parent and change runs."""

import importlib.util
import subprocess
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def run(ratio, loss):
    metrics = {"time_vs_control": {"value": ratio, "unit": "ratio"},
               "final_loss": {"value": loss, "unit": "L1"}}
    return {"perfbench": {}, "result": {"metrics": metrics}}


def test_medians_quartiles_and_lower_pairs():
    parent = [run(r, 1.0) for r in (0.60, 0.58, 0.62, 0.59, 0.61)]
    change = [run(r, 1.0) for r in (0.55, 0.53, 0.63, 0.54, 0.56)]
    p, c, cmp = bench_pairs.compare(parent, change)
    assert p["time_vs_control"] == {"unit": "ratio", "median": 0.60, "q1": 0.59, "q3": 0.61,
                                    "iqr": pytest.approx(0.02)}
    assert c["time_vs_control"]["median"] == 0.55
    ratio = cmp["time_vs_control"]
    assert ratio["change_lower_pairs"] == 4 and ratio["pairs"] == 5
    assert ratio["median_rel_change"] == pytest.approx(-0.05 / 0.60)
    assert ratio["median_drop_over_parent_iqr"] == pytest.approx(2.5)
    # equal values are not lower, and a zero spread gives no ratio
    assert cmp["final_loss"]["change_lower_pairs"] == 0
    assert cmp["final_loss"]["median_drop_over_parent_iqr"] is None


STEADY = (1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00)


@pytest.mark.parametrize("label, parent, change", [
    # wins 10/10 and the median drops by 0.1, more than the parent's IQR
    ("better", STEADY, tuple(v - 0.1 for v in STEADY)),
    # +30 % against time_vs_control's 20 % bound, on a steady parent
    ("worse", STEADY, tuple(v + 0.3 for v in STEADY)),
    # +10 %: a move, but inside the bound
    ("within bound", STEADY, tuple(v + 0.1 for v in STEADY)),
    # the parent's IQR (0.65) is more than 0.2 times its median (1.0)
    ("unresolved", (0.5, 1.6, 0.7, 1.3, 1.0, 0.6, 1.4, 1.0, 0.8, 1.5),
     (1.0, 1.1, 0.9, 1.2, 0.8, 1.0, 1.1, 0.9, 1.0, 1.0)),
])
def test_verdict_against_the_benchmark_bound(label, parent, change):
    _, _, cmp = bench_pairs.compare([run(r, 1.0) for r in parent], [run(r, 1.0) for r in change])
    assert cmp["time_vs_control"]["verdict"] == label
    # equal losses move by nothing
    assert cmp["final_loss"]["verdict"] == "within bound"


def test_wide_parent_resolved_when_every_change_run_beats_it():
    # the parent's IQR is wide, but every change run is below every parent
    # run; the drop (0.55) is not above that IQR, so it is no gain either
    parent = (0.5, 1.6, 0.7, 1.3, 1.0, 0.6, 1.4, 1.0, 0.8, 1.5)
    _, _, cmp = bench_pairs.compare([run(r, 1.0) for r in parent], [run(0.45, 1.0)] * 10)
    assert cmp["time_vs_control"]["verdict"] == "within bound"


def test_summary_line_shows_the_parent_spread_beside_the_bound():
    # the parent's IQR is 0.02 on a median of 0.60: 3 % of it, under 20 %
    parent = [run(r, 1.0) for r in (0.60, 0.58, 0.62, 0.59, 0.61)]
    change = [run(r, 1.0) for r in (0.55, 0.53, 0.63, 0.54, 0.56)]
    p, c, cmp = bench_pairs.compare(parent, change)
    lines = bench_pairs.summary_lines({"parent": {"summary": p}, "change": {"summary": c},
                                       "comparison": cmp})
    assert lines[0] == ("time_vs_control: parent 0.6 change 0.55 lower in 4/5: within bound; "
                        "parent IQR 3 % of median, bound 20 %")
    assert lines[1].endswith("; parent IQR 0 % of median, bound 15 %")


def test_metric_without_a_bound_has_no_verdict():
    def runs(value):
        return [{"result": {"metrics": {"steps": {"value": value + i, "unit": "count"}}}}
                for i in range(5)]

    _, _, cmp = bench_pairs.compare(runs(10.0), runs(20.0))
    assert cmp["steps"]["verdict"] is None


def test_source_lines_count_newlines_per_package_file(tmp_path):
    package = tmp_path / "src" / "sysbridge"
    package.mkdir(parents=True)
    (package / "a.py").write_text("x = 1\ny = 2\n")
    (package / "b.py").write_text("z = 3")  # wc -l counts no line without a newline
    (package / "notes.txt").write_text("not\ncounted\n")
    assert bench_pairs.src_lines(tmp_path) == {"files": {"a.py": 2, "b.py": 0}, "total": 2}


def test_source_lines_of_this_checkout_match_wc():
    root = SCRIPT.parents[1]
    files = sorted(str(path) for path in (root / "src" / "sysbridge").glob("*.py"))
    out = subprocess.run(["wc", "-l", *files], capture_output=True, text=True, check=True).stdout
    assert bench_pairs.src_lines(root)["total"] == int(out.splitlines()[-1].split()[0])


def test_record_keeps_both_sides_source_lines(tmp_path, monkeypatch):
    sides = {}
    for side, text in (("parent", "a = 1\nb = 2\nc = 3\n"), ("change", "a = 1\n")):
        package = tmp_path / side / "src" / "sysbridge"
        package.mkdir(parents=True)
        (package / "m.py").write_text(text)
        sides[tmp_path / side] = side
    benchmark = SCRIPT.parents[1] / "BENCHMARK.json"
    (tmp_path / "change" / "BENCHMARK.json").write_text(benchmark.read_text())
    calls = []

    def fake_run(checkout, workload, seed):
        calls.append((sides[checkout], seed))
        return run(0.5 if sides[checkout] == "parent" else 0.4, 1.0)

    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path / "change")
    monkeypatch.setattr(bench_pairs, "run_perfbench", fake_run)
    monkeypatch.setattr(bench_pairs, "git", lambda *args, **kw: "")
    record = bench_pairs.record_pairs(
        "sample-mri", 40, "p0", {side: tmp_path / side for side in ("parent", "change")})
    assert record["parent"]["src_lines"] == {"files": {"m.py": 3}, "total": 3}
    assert record["change"]["src_lines"] == {"files": {"m.py": 1}, "total": 1}
    assert calls[:4] == [("parent", 40), ("change", 40), ("change", 41), ("parent", 41)]
    assert record["comparison"]["time_vs_control"]["change_lower_pairs"] == bench_pairs.PAIRS


def _files(root):
    return {str(p.relative_to(root)): p.read_text() for p in root.rglob("*") if p.is_file()}


def test_side_copies_hold_the_revision_and_the_working_tree(tmp_path, monkeypatch):
    repo = tmp_path / "repo"
    (repo / "src").mkdir(parents=True)
    git = ["git", "-c", "user.name=t", "-c", "user.email=t@example.invalid"]
    subprocess.run([*git, "init", "-q", str(repo)], check=True)
    (repo / ".gitignore").write_text("*.log\n")
    (repo / "src" / "m.py").write_text("a = 1\n")
    subprocess.run([*git, "add", "-A"], cwd=repo, check=True)
    subprocess.run([*git, "commit", "-q", "-m", "m"], cwd=repo, check=True)
    (repo / "src" / "m.py").write_text("a = 2\n")        # an uncommitted edit
    (repo / "src" / "new.py").write_text("b = 1\n")      # an untracked file
    (repo / "src" / "run.log").write_text("ignored\n")   # an ignored file
    monkeypatch.setattr(bench_pairs, "ROOT", repo)
    (tmp_path / "parent").mkdir()
    parent = bench_pairs.copy_revision("HEAD", tmp_path / "parent")
    change = bench_pairs.copy_working_tree(tmp_path / "change")
    assert _files(parent) == {".gitignore": "*.log\n", "src/m.py": "a = 1\n"}
    assert _files(change) == {".gitignore": "*.log\n", "src/m.py": "a = 2\n", "src/new.py": "b = 1\n"}
