"""Golden digests of every named suite on a fixed set of structures.

Each entry of `suite_goldens.json` is the SHA-256 of `render_json` for one
(structure, suite) pair, or `error: <message>` where the suite refuses the
structure.  The structures cover the skip paths (a unit or counit
removed), an odd |mu| (shifted S^3), a field of characteristic 2, and the
window models, so the product, coproduct and infinitesimal suites are
pinned too.  Regenerate on purpose only, with

    PYTHONPATH=src python tests/test_suite_goldens.py
"""

import hashlib
import json
from pathlib import Path

import pytest

from cofrob import (PrimeField, circle_models, equator_pair, loop_sphere,
                    loop_tqft_sphere, manifold_from_cup, rabinowitz_loop_sphere,
                    shift_structure, sphere_cohomology, torus_cup_data)
from cofrob.reports import render_json
from cofrob.suites import DATA_SUITES, TQFT_SUITES, run_suite

GOLDENS = Path(__file__).resolve().parent / "suite_goldens.json"


def _torus_f2():
    cup = torus_cup_data()
    cup.field = PrimeField(2)
    return manifold_from_cup(cup)


STRUCTURES = {
    "sphere3-Q": lambda: sphere_cohomology(3),
    "torus-F2": _torus_f2,
    "sphere3-shifted": lambda: shift_structure(sphere_cohomology(3)),
    "rabinowitz3-N4": lambda: rabinowitz_loop_sphere(3, 4),
    "loop3-N6": lambda: loop_sphere(3, 6),
    "circle-loop-N6": lambda: circle_models(6, flavor="loop"),
    "sphere3-no-eta": lambda: sphere_cohomology(3).replace(eta=None),
    "sphere3-no-eps": lambda: sphere_cohomology(3).replace(eps=None),
}

PAIRS = {
    "equator": equator_pair,
    "loop-tqft3-N4": lambda: loop_tqft_sphere(3, 4),
    "loop-tqft1-N4": lambda: loop_tqft_sphere(1, 4),
}


def _digest(suite, obj):
    try:
        reports = run_suite(suite, obj)
    except ValueError as exc:
        return f"error: {exc}"
    return hashlib.sha256(render_json(suite, reports).encode("utf-8")).hexdigest()


def _cases():
    for name, build in STRUCTURES.items():
        for suite in DATA_SUITES:
            yield name, build, suite
    for name, build in PAIRS.items():
        for suite in TQFT_SUITES:
            yield name, build, suite


CASES = list(_cases())
_BUILT = {}


def _built(name, build):
    if name not in _BUILT:
        _BUILT[name] = build()
    return _BUILT[name]


def test_goldens_cover_every_suite_and_structure():
    pinned = json.loads(GOLDENS.read_text(encoding="utf-8"))
    assert sorted(pinned) == sorted(f"{name} {suite}" for name, _, suite in CASES)


@pytest.mark.parametrize("name,build,suite", CASES,
                         ids=[f"{name}-{suite}" for name, _, suite in CASES])
def test_suite_output_matches_golden(name, build, suite):
    pinned = json.loads(GOLDENS.read_text(encoding="utf-8"))
    assert _digest(suite, _built(name, build)) == pinned[f"{name} {suite}"]


if __name__ == "__main__":
    table = {f"{name} {suite}": _digest(suite, _built(name, build))
             for name, build, suite in CASES}
    GOLDENS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
