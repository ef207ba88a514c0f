"""Golden digests of the loop-space model builders.

Each entry of `model_goldens.json` pins one call of a public loop builder:
the SHA-256 of `docio.render` of the built structure (`from_bialgebra`, or
`from_tqft` for a TQFT) and its module name, or `error: <message>` where
the builder refuses the arguments.  The grid covers the four sphere
builders, every circle flavor with both vector fields, the loop TQFTs, the
refusals (even n, n = 1, a bound below 3, an unknown flavor or vector
field) and today's behaviour over F5.  Regenerate on purpose only, with

    PYTHONPATH=src python tests/test_model_goldens.py
"""

import hashlib
import json
from pathlib import Path

import pytest

from cofrob import (PrimeField, based_loop_sphere, based_rabinowitz_loop_sphere,
                    circle_models, from_bialgebra, from_tqft, loop_sphere,
                    loop_tqft_sphere, rabinowitz_loop_sphere, render)
from cofrob.tqft import OpenClosedTQFT

GOLDENS = Path(__file__).resolve().parent / "model_goldens.json"

SPHERE_BUILDERS = {
    "rabinowitz_loop_sphere": rabinowitz_loop_sphere,
    "loop_sphere": loop_sphere,
    "based_rabinowitz_loop_sphere": based_rabinowitz_loop_sphere,
    "based_loop_sphere": based_loop_sphere,
}
FLAVORS = ("rabinowitz", "based-rabinowitz", "loop", "based-loop")
F5 = PrimeField(5)


def _cases():
    for name, build in SPHERE_BUILDERS.items():
        for n in (3, 5):
            for bound in (3, 4, 6):
                yield f"{name}({n},{bound})", lambda b=build, n=n, N=bound: b(n, N)
        for n, bound in ((4, 4), (1, 4), (3, 2)):
            yield f"{name}({n},{bound})", lambda b=build, n=n, N=bound: b(n, N)
        yield f"{name}(3,4,F5)", lambda b=build: b(3, 4, field=F5)
    for flavor in FLAVORS:
        for which in ("+", "-"):
            for bound in (3, 4, 6):
                yield (f"circle_models({bound},{which},{flavor})",
                       lambda N=bound, w=which, f=flavor: circle_models(N, w, f))
        yield (f"circle_models(4,+,{flavor},F5)",
               lambda f=flavor: circle_models(4, "+", f, field=F5))
    yield "circle_models(2,+,loop)", lambda: circle_models(2, "+", "loop")
    yield "circle_models(4,*,loop)", lambda: circle_models(4, "*", "loop")
    yield "circle_models(4,+,free)", lambda: circle_models(4, "+", "free")
    for n in (1, 3):
        for bound in (3, 4, 6):
            yield f"loop_tqft_sphere({n},{bound})", lambda n=n, N=bound: loop_tqft_sphere(n, N)
        yield f"loop_tqft_sphere({n},4,F5)", lambda n=n: loop_tqft_sphere(n, 4, field=F5)
    for n, bound in ((4, 4), (3, 2), (1, 2)):
        yield f"loop_tqft_sphere({n},{bound})", lambda n=n, N=bound: loop_tqft_sphere(n, N)


CASES = list(_cases())


def _pin(build):
    try:
        built = build()
    except ValueError as exc:
        return f"error: {exc}"
    if isinstance(built, OpenClosedTQFT):
        doc = from_tqft(built)
        name = f"{built.closed.module.name} | {built.open.module.name}"
    else:
        doc = from_bialgebra(built)
        name = built.module.name
    return {"render": hashlib.sha256(render(doc).encode("utf-8")).hexdigest(),
            "module": name}


def test_goldens_cover_every_case():
    pinned = json.loads(GOLDENS.read_text(encoding="utf-8"))
    assert sorted(pinned) == sorted(key for key, _ in CASES)


@pytest.mark.parametrize("key,build", CASES, ids=[key for key, _ in CASES])
def test_model_matches_golden(key, build):
    pinned = json.loads(GOLDENS.read_text(encoding="utf-8"))
    assert _pin(build) == pinned[key]


if __name__ == "__main__":
    table = {key: _pin(build) for key, build in CASES}
    GOLDENS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
