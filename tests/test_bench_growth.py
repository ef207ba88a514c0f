"""Smoke test of the growth benchmark harness at its smallest window bound."""

import importlib.util
import json
import os
import shutil
import subprocess

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_growth():
    spec = importlib.util.spec_from_file_location(
        "growth", os.path.join(ROOT, "bench", "growth.py"))
    growth = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(growth)
    return growth


def test_growth_harness_writes_a_comparable_record(tmp_path, monkeypatch):
    growth = load_growth()
    monkeypatch.setattr(growth, "BOUNDS", (3,))
    monkeypatch.setattr(growth, "REPEAT", 1)
    monkeypatch.setattr(growth, "ROUNDS", 3)
    src = os.path.join(ROOT, "src")
    out = tmp_path / "growth.json"
    growth.main(["--tree", f"a={src}", "--tree", f"b={src}", "--out", str(out)])
    record = json.loads(out.read_text())
    assert set(record) == {"workload", "python", "machine", "repeat", "rounds", "timer",
                           "trees", "comparison"}
    assert record["repeat"] == 1 and record["rounds"] == 3
    assert "process_time" in record["timer"]
    assert list(record["trees"]) == ["a", "b"]
    row = record["trees"]["a"]["bounds"]["3"]
    assert row["relations"] == 16 and len(row["runs_cpu_s"]) == 3
    assert row["cpu_s"] == sorted(row["runs_cpu_s"])[1]
    assert row["checked"] + row["inconclusive"] > 0
    assert row["heap_peak_kb"] > 0
    assert row["build_cpu_s"] > 0
    assert row["parse_cpu_s"] > 0
    assert record["trees"]["b"]["bounds"]["3"]["report_sha256"] == row["report_sha256"]
    comparison = record["comparison"]["a/b"]["3"]
    assert comparison["identical_reports"] is True
    assert comparison["time_ratio"] > 0
    assert 0 <= comparison["rounds_faster"] <= 3
    assert comparison["heap_ratio"] > 0
    assert comparison["build_ratio"] > 0
    assert comparison["parse_ratio"] > 0
    tree = record["trees"]["a"]
    assert tree["src_sha256"] == growth.tree_of(src)["src_sha256"]
    assert (tree["commit"] is None) == (tree["dirty"] is None)
    assert "maps" in record["workload"]
    # the maps row sits beside the bounds, once per tree: the six base suites
    # on T^2 and S^2 x S^2 over Q and F3, every input checked (no window)
    assert len(growth.MAPS_SUITES) == 6 and len(growth.MAPS_CASES) == 4
    assert list(tree["bounds"]) == ["3"]
    maps = tree["maps"]
    assert set(maps) == {"cpu_s", "runs_cpu_s", "heap_peak_kb", "relations", "checked",
                         "inconclusive", "report_sha256"}
    assert len(maps["runs_cpu_s"]) == 3 and maps["cpu_s"] == sorted(maps["runs_cpu_s"])[1]
    assert maps["relations"] > 24 and maps["checked"] > 0 and maps["inconclusive"] == 0
    assert maps["heap_peak_kb"] > 0
    assert record["trees"]["b"]["maps"]["report_sha256"] == maps["report_sha256"]
    assert list(record["comparison"]["a/b"]) == ["3", "maps"]
    comparison = record["comparison"]["a/b"]["maps"]
    assert set(comparison) == {"time_ratio", "rounds_faster", "heap_ratio",
                               "identical_reports"}
    assert comparison["identical_reports"] is True
    assert comparison["time_ratio"] > 0
    assert 0 <= comparison["rounds_faster"] <= 3


def test_the_maps_row_digest_is_the_reports_of_its_suites():
    """A fresh maps run digests the JSON reports of every suite on every
    structure, in order: the digest computed here from the same suites."""
    import hashlib
    import cofrob
    from cofrob.reports import render_json
    from cofrob.suites import run_suite
    growth = load_growth()
    row = growth.run_once(os.path.join(ROOT, "src"), growth.MAPS)
    digest = hashlib.sha256()
    relations = 0
    for name, reports in growth._maps_suites(run_suite, growth._maps_structures(cofrob)):
        digest.update(render_json(name, reports).encode())
        relations += len(reports)
    assert row["report_sha256"] == digest.hexdigest()
    assert row["relations"] == relations


def _copy_tree(tmp_path):
    tree = tmp_path / "tree"
    shutil.copytree(os.path.join(ROOT, "src", "cofrob"), tree / "src" / "cofrob",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return tree


def test_a_copy_outside_git_is_recorded_by_its_digest_alone(tmp_path):
    """A `git archive` copy was recorded as null; the digest depends on the
    files' names and bytes only, so a copy reads as its original."""
    growth = load_growth()
    src = str(_copy_tree(tmp_path) / "src")
    digest = growth.tree_of(os.path.join(ROOT, "src"))["src_sha256"]
    assert growth.tree_of(src) == {"commit": None, "dirty": None, "src_sha256": digest}


def test_a_checkout_without_a_commit_is_recorded_by_its_digest_alone(tmp_path):
    """A `git init`-ed tree with no commit was recorded with commit null but
    dirty true."""
    if shutil.which("git") is None:
        pytest.skip("git is not installed")
    growth = load_growth()
    tree = _copy_tree(tmp_path)
    subprocess.run(["git", "init", "-q"], cwd=tree, check=True)
    digest = growth.tree_of(os.path.join(ROOT, "src"))["src_sha256"]
    assert growth.tree_of(str(tree / "src")) == {"commit": None, "dirty": None,
                                                 "src_sha256": digest}


def test_a_changed_checkout_is_recorded_as_dirty(tmp_path):
    """A checkout with an uncommitted change to src/ was recorded as its
    clean parent commit; it is now marked dirty and told apart by digest."""
    if shutil.which("git") is None:
        pytest.skip("git is not installed")
    growth = load_growth()
    tree = _copy_tree(tmp_path)
    src = str(tree / "src")

    def git(*args):
        return subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
                              cwd=tree, capture_output=True, text=True,
                              check=True).stdout.strip()

    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "tree")
    clean = growth.tree_of(src)
    assert clean == {"commit": git("rev-parse", "--short", "HEAD"), "dirty": False,
                     "src_sha256": growth.tree_of(os.path.join(ROOT, "src"))["src_sha256"]}
    with open(os.path.join(src, "cofrob", "fields.py"), "a", encoding="utf-8") as handle:
        handle.write("\n")
    changed = growth.tree_of(src)
    assert changed["commit"] == clean["commit"] and changed["dirty"] is True
    assert changed["src_sha256"] != clean["src_sha256"]
