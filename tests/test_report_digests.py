"""Byte-identity gate: report outputs must match the benchmark's pinned digests.

Loads `perfbench/workloads.py` and `perfbench/expected.py` read-only and
runs every window-model job and every manifold-docs job over Q, comparing
each output with `perfbench/digests.json`. A job pinned to null failed
when the digests were pinned (see `perfbench/README.md`) and must still
fail: a change that makes it pass has to be re-pinned on purpose.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module   # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads")
expected = _load("expected")
PINNED = json.loads((PERFBENCH / "digests.json").read_text(encoding="utf-8"))
JOBS = [job for job in workloads.every_job()
        if job.build is not None or job.field == "Q"]


def test_gate_covers_window_models_and_q_documents():
    assert sum(job.build is not None for job in JOBS) >= 10
    assert sum(job.kind != "check" for job in JOBS) >= 50
    assert all(job.key in PINNED for job in JOBS)


@pytest.mark.parametrize("job", JOBS, ids=[job.key for job in JOBS])
def test_output_matches_pinned_digest(job):
    out = workloads.run_job(job)
    reasons = expected.failure_reasons(job, out, PINNED)
    if PINNED[job.key] is None:
        assert reasons, "a job pinned as failing now passes"
    else:
        assert not reasons, reasons
        assert expected.digest(out.output) == PINNED[job.key]
