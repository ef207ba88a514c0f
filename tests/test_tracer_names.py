"""The benchmark tracer wraps the model builders by name.

Loads `perfbench/tracer.py` read-only, as `tests/test_report_digests.py`
loads `perfbench/workloads.py`.  The tracer skips a name it cannot find,
so a renamed builder would make `models.build_s` read 0 without an error.
"""

import importlib.util
import sys
from pathlib import Path

from cofrob import models

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_every_traced_model_builder_exists():
    tracer = _load_tracer()
    assert tracer.MODEL_BUILDERS
    missing = [name for name in tracer.MODEL_BUILDERS
               if not callable(getattr(models, name, None))]
    assert missing == []
