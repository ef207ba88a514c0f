"""Smoke test of the growth benchmark harness at its smallest window bound."""

import importlib.util
import json
import os

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
    src = os.path.join(ROOT, "src")
    out = tmp_path / "growth.json"
    growth.main(["--tree", f"a={src}", "--tree", f"b={src}", "--out", str(out)])
    record = json.loads(out.read_text())
    assert set(record) == {"workload", "python", "machine", "repeat", "trees",
                           "comparison"}
    assert record["repeat"] == 1
    assert list(record["trees"]) == ["a", "b"]
    row = record["trees"]["a"]["bounds"]["3"]
    assert row["relations"] == 16 and len(row["runs_s"]) == 1
    assert row["checked"] + row["inconclusive"] > 0
    assert row["heap_peak_kb"] > 0
    assert row["build_s"] > 0
    assert record["trees"]["b"]["bounds"]["3"]["report_sha256"] == row["report_sha256"]
    assert record["comparison"]["a/b"]["3"]["identical_reports"] is True
    assert record["comparison"]["a/b"]["3"]["heap_ratio"] > 0
    assert record["comparison"]["a/b"]["3"]["build_ratio"] > 0
