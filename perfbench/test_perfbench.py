"""The benchmark's own tests, on the smoke size.

    python3 -m pytest -q perfbench
"""

import json
import os
import shutil
import subprocess
import sys
from types import SimpleNamespace

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
sys.path.insert(0, HERE)

import expected  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    BENCHMARK = json.load(_handle)
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def run(workload, trace, seed=3, cwd=ROOT, script=RUN):
    done = subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace), "--size", "smoke"],
        capture_output=True, text=True, cwd=cwd, timeout=180)
    return done


def result(done):
    assert done.returncode == 0, done.stderr
    out = json.loads(done.stdout.splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    return out


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_prints_every_end_to_end_metric(workload):
    out = result(run(workload, 0))
    assert out["correct"] is True
    assert out["attempted"] >= 1
    names = [m["name"] for m in BENCHMARK["end_to_end"]]
    assert list(out["metrics"]) == names
    for metric in BENCHMARK["end_to_end"]:
        value = out["metrics"][metric["name"]]
        assert value["unit"] == metric["unit"]
        assert value["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_across_runs(workload):
    first, second = result(run(workload, 1)), result(run(workload, 1))
    assert first["correct"] and second["correct"]
    names = [m["name"] for m in BENCHMARK["per_layer"]]
    assert list(first["metrics"]) == names
    units = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert all(first["metrics"][n]["unit"] == units[n] for n in names)
    counts = [n for n in names if units[n] == "count"]
    assert {n: first["metrics"][n] for n in counts} == \
           {n: second["metrics"][n] for n in counts}


def test_window_suites_names_the_field_bug_jobs():
    done = run("window-suites", 0)
    out = result(done)
    failed = [line for line in done.stdout.splitlines() if "FAILED" in line]
    assert any("rabinowitz_loop_sphere(3,4,F5)" in line for line in failed)
    assert any("loop_sphere(3,4,F5)" in line for line in failed)
    passes = out["attempted"] // 10  # ten jobs per pass
    assert out["failed"] == len(failed) * passes


def test_fails_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = run("rab-infinitesimal", 0, cwd=tmp_path,
               script=str(tmp_path / "perfbench" / "run.py"))
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def _job(family, field, suite):
    return SimpleNamespace(family=family, field=field, suite=suite)


@pytest.mark.parametrize("manifold, field, holds", [
    ("S2", "Q", False), ("S2", "F2", True), ("S2", "F3", False), ("S3", "F5", True),
    ("T2", "F7", True), ("S2xS2", "F2", True), ("S2xS2", "F3", False),
    ("S2xS2", "Q", False), ("S6", "F7", False),
])
def test_involutivity_tracks_the_euler_characteristic(manifold, field, holds):
    job = _job(f"manifold:{manifold}", field, "involutivity")
    assert expected.allowed_verdicts(job, "involutive-mu-lam", False) == \
        ({"pass"} if holds else {"fail"})


def test_expected_answers_for_pairs_and_loop_models():
    assert expected.allowed_verdicts(_job("pair:factor", "Q", "cardy"),
                                     "rel6-cardy", False) == {"fail"}
    assert expected.allowed_verdicts(_job("pair:equator", "Q", "cardy"),
                                     "rel6-cardy", False) == {"pass"}
    loop = _job("loop", "Q", "unital-cofrobenius")
    assert expected.allowed_verdicts(loop, "unital-cofrobenius-left", True) == {"fail"}
    assert expected.allowed_verdicts(loop, "associativity", True) == \
        {"pass", "window-inconclusive"}
