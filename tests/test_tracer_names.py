"""The benchmark tracer wraps library functions by name.

Loads `perfbench/tracer.py` read-only, as `tests/test_report_digests.py`
loads `perfbench/workloads.py`.  The tracer skips a name it cannot find,
so a renamed builder would make `models.build_s` read 0 without an error.
"""

import importlib
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


# Names the tracer still lists that the library no longer has; their
# metrics read 0 (`structures.s_operator_s` and the per-group
# `structures.check_*_s` of the removed one-call wrappers, which read 0
# before their removal) or lose a span (`reports.relation`).  The next
# change to the benchmark drops them.
STALE = {"s_operator", "check_elements_equal", "check_relation",
         "check_product_laws", "check_coproduct_laws", "check_unital_infinitesimal",
         "check_unital_antisymmetry", "check_counital_infinitesimal",
         "check_counital_antisymmetry", "check_biunital_infinitesimal",
         "check_copairing_symmetry", "check_pairing_symmetry"}


def test_every_traced_name_resolves_but_the_pinned_stale_ones():
    """Every `HOT` and `SPANS` name resolves in its `cofrob` module, as
    `Tracer.install` looks it up, except exactly the pinned stale names."""
    tracer = _load_tracer()
    missing = set()
    for table in (tracer.HOT, tracer.SPANS):
        for modname, names in table.values():
            module = importlib.import_module(f"cofrob.{modname}")
            for name in names:
                owner_name, _, attr = name.rpartition(".")
                owner = getattr(module, owner_name, None) if owner_name else module
                if owner is None or not callable(vars(owner).get(attr)):
                    missing.add(name)
    assert missing == STALE
