"""`counit_solve` and `derive_cozipper` against the hand-built solvers they
replaced (`tests/solver_reference.py`), and every solved map against the
relation it was solved from.

The grid: `counit_solve` on every loop model at N = 3..6 and on S^1-S^6,
T^2 and S^2 x S^2 over Q, F2, F3 and F5, each also dualized and shifted;
`derive_cozipper` on the equator, diagonal and factor pairs with the
zipper zeta and with 2 zeta, and on `loop_tqft_sphere(1|3|5, 3..6)`.
Both solvers must give the same map, the same None or a refusal on the
same case.  Refusal messages are pinned separately below; the counit's
"no window-valid equation" refusal is pinned in `test_structures.py`.
"""

from functools import lru_cache

import pytest

import solver_reference as reference
from cofrob import (GradedMap, GradedModule, OpenClosedTQFT, PrimeField, QQ, Relation,
                    TensorSpace, check_relations, scalar_space,
                    circle_models, counit_solve, derive_cozipper, diagonal_pair, dualize,
                    equator_pair, factor_pair, loop_tqft_sphere, manifold_from_cup,
                    rabinowitz_loop_sphere, loop_sphere, based_loop_sphere,
                    based_rabinowitz_loop_sphere, s2xs2_cup_data, shift_structure,
                    sphere_cup_data, torus_cup_data)
from cofrob.reports import PASS, INCONCLUSIVE
from cofrob.structures import BialgebraData, _Ops, run_entries
from cofrob.tqft import TQFT_RELATIONS

FIELDS = {"Q": QQ, "F2": PrimeField(2), "F3": PrimeField(3), "F5": PrimeField(5)}
TRANSFORMS = {"plain": lambda d: d, "dualized": dualize, "shifted": shift_structure}
LOOP_BUILDERS = {
    "rabinowitz": rabinowitz_loop_sphere, "loop": loop_sphere,
    "based-rabinowitz": based_rabinowitz_loop_sphere, "based-loop": based_loop_sphere,
}
CIRCLE_FLAVORS = [("rabinowitz", "+"), ("based-rabinowitz", "+"),
                  ("loop", "+"), ("loop", "-"), ("based-loop", "+"), ("based-loop", "-")]


def _manifold(name, field):
    if name in ("T2", "S2xS2"):
        cup = {"T2": torus_cup_data, "S2xS2": s2xs2_cup_data}[name]()
    else:
        cup = sphere_cup_data(int(name[1:]))
    cup.field = field
    return manifold_from_cup(cup)


@lru_cache(maxsize=None)
def counit_case(case):
    """The structure a counit case id names: family, parameters, transform."""
    *head, transform = case.split("/")
    if head[0] == "manifold":
        data = _manifold(head[1], FIELDS[head[2]])
    elif head[0] == "circle":
        data = circle_models(int(head[3]), which=head[2], flavor=head[1])
    else:
        data = LOOP_BUILDERS[head[0]](int(head[1]), int(head[2]))
    return TRANSFORMS[transform](data)


COUNIT_CASES = (
    [f"manifold/{m}/{f}/{t}" for m in ("S1", "S2", "S3", "S4", "S5", "S6", "T2", "S2xS2")
     for f in FIELDS for t in TRANSFORMS]
    + [f"{b}/{n}/{N}/{t}" for b in LOOP_BUILDERS for n in (3, 5) for N in (3, 4, 5, 6)
       for t in TRANSFORMS]
    + [f"circle/{flavor}/{which}/{N}/{t}" for flavor, which in CIRCLE_FLAVORS
       for N in (3, 4, 5, 6) for t in TRANSFORMS])


@lru_cache(maxsize=None)
def cozipper_case(case):
    """(closed, open, zipper) of a cozipper case id."""
    family, *rest = case.split("/")
    if family == "loop-tqft":
        t = loop_tqft_sphere(int(rest[0]), int(rest[1]))
        return t.closed, t.open, t.zipper
    t = {"equator": equator_pair, "diagonal": diagonal_pair, "factor": factor_pair}[family]()
    return t.closed, t.open, t.zipper.scale(int(rest[0]))


COZIPPER_CASES = ([f"{p}/{k}" for p in ("equator", "diagonal", "factor") for k in (1, 2)]
                  + [f"loop-tqft/{n}/{N}" for n in (1, 3, 5) for N in (3, 4, 5, 6)])


def outcome(solve, *args):
    """The solved map's signature and entries, None, or "refused"."""
    try:
        found = solve(*args)
    except ValueError:
        return "refused"
    if found is None:
        return None
    return found.source, found.target, found.degree, found.entries


@pytest.mark.parametrize("case", COUNIT_CASES)
def test_counit_solve_matches_the_hand_built_solver(case):
    data = counit_case(case)
    assert outcome(counit_solve, data) == outcome(reference.counit_solve, data)


@pytest.mark.parametrize("case", COZIPPER_CASES)
def test_derive_cozipper_matches_the_hand_built_solver(case):
    args = cozipper_case(case)
    assert outcome(derive_cozipper, *args) == outcome(reference.derive_cozipper, *args)


@pytest.mark.parametrize("case", COUNIT_CASES)
def test_a_solved_counit_passes_the_counit_law(case):
    data = counit_case(case)
    try:
        eps = counit_solve(data)
    except ValueError:
        return
    if eps is None:
        return
    reports = run_entries(data.replace(eps=eps), ("counit",))
    assert [r.name for r in reports] == ["counit-left", "counit-right"]
    assert all(r.verdict in (PASS, INCONCLUSIVE) for r in reports), reports


@pytest.mark.parametrize("case", COZIPPER_CASES)
def test_a_derived_cozipper_passes_the_pairing_form(case):
    closed, open_, zipper = cozipper_case(case)
    # solved with every equation, so checked on every input: no window
    t = OpenClosedTQFT(closed, open_, zipper, derive_cozipper(closed, open_, zipper))
    built = TQFT_RELATIONS["rel5-pairing-form"](t, _Ops(closed), _Ops(open_))
    assert check_relations([Relation("rel5-pairing-form", *built)])[0].verdict == PASS


# ------------------------------------------------------------------ refusals

@pytest.mark.parametrize("pair", [equator_pair, diagonal_pair])
def test_a_degenerate_closed_pairing_names_the_pairing_form(pair):
    # was "pairing degenerate: no cozipper value at ..."
    t = pair()
    closed = t.closed.replace(eps=t.closed.eps.scale(0))
    with pytest.raises(ValueError, match="^no cozipper satisfies rel5-pairing-form$"):
        derive_cozipper(closed, t.open, t.zipper)


def test_a_zipper_that_is_not_c_to_a_is_refused():
    # was "no cozipper: inconsistent at 1"
    t = equator_pair()
    with pytest.raises(ValueError, match="^zipper must map C -> A$"):
        derive_cozipper(t.closed, t.open, t.cozipper)


def test_the_zero_module_has_the_zero_counit():
    module = GradedModule([], name="zero")
    space, space2 = TensorSpace((module,)), TensorSpace((module, module))
    data = BialgebraData(module, GradedMap.zero(space2, space, 0),
                         GradedMap.zero(space, space2, 3))
    eps = counit_solve(data)
    assert (eps.source, eps.target, eps.degree, eps.entries) == (space, scalar_space(QQ), -3, {})


def test_a_coproduct_degree_no_basis_element_has_gives_no_counit():
    sphere = manifold_from_cup(sphere_cup_data(2))
    assert counit_solve(sphere.replace(lam=GradedMap.zero(sphere.space, sphere.space2, 5))) is None
