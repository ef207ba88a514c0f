"""`check_relations` without a window against the input-major engine.

Without a window each side of a relation is composed into one map and the
two maps are compared row by row; with one, term kernels are run input by
input.  `WindowSpec(1, 0, {})` accepts every input and masks nothing, so
under it the input-major engine must give exactly the reports the map
route gives with no window: on every suite of the finite-dimensional
examples and their transforms, and on the engine's error cases."""

import pytest

from cofrob import (GradedMap, PrimeField, QQ, TensorSpace, dualize,
                    equator_pair, diagonal_pair, factor_pair, make_module,
                    manifold_from_cup, s2xs2_cup_data, shift_structure, sphere_cohomology,
                    torus_cup_data, transpose_structure)
from cofrob import reports
from cofrob.reports import FAIL, INCONCLUSIVE, PASS, Relation, check_relations
from cofrob.suites import DATA_SUITES, TQFT_SUITES
from cofrob.tqft import OpenClosedTQFT

from test_tensor import OPEN_WINDOW

FIELDS = {"Q": QQ, "F2": PrimeField(2), "F3": PrimeField(3), "F5": PrimeField(5)}


def _manifold(cup_data, field):
    cup = cup_data()
    cup.field = field
    return manifold_from_cup(cup)


MANIFOLDS = {
    **{f"S{n}": (lambda field, n=n: sphere_cohomology(n, field=field)) for n in range(1, 6)},
    "T2": lambda field: _manifold(torus_cup_data, field),
    "S2xS2": lambda field: _manifold(s2xs2_cup_data, field),
}
TRANSFORMS = {
    "plain": lambda data: data,
    "shifted": shift_structure,
    "dualized": dualize,
    "transposed": transpose_structure,
}


def _reports(suite, obj):
    """The suite's reports as dicts, or the message it refuses `obj` with."""
    try:
        return [r.as_dict() for r in suite(obj)]
    except ValueError as exc:
        return f"error: {exc}"


@pytest.mark.parametrize("field", list(FIELDS))
@pytest.mark.parametrize("manifold", list(MANIFOLDS))
def test_data_suites_report_alike_on_both_routes(manifold, field):
    base = MANIFOLDS[manifold](FIELDS[field])
    for transform, apply in TRANSFORMS.items():
        data = apply(base)
        assert data.window is None
        windowed = data.replace(window=OPEN_WINDOW)
        for name, suite in DATA_SUITES.items():
            assert _reports(suite, data) == _reports(suite, windowed), (transform, name)


@pytest.mark.parametrize("pair", [equator_pair, diagonal_pair, factor_pair],
                         ids=["equator", "diagonal", "factor"])
def test_tqft_suites_report_alike_on_both_routes(pair):
    t = pair()
    assert t.window is None
    windowed = OpenClosedTQFT(t.closed.replace(window=OPEN_WINDOW),
                              t.open.replace(window=OPEN_WINDOW), t.zipper, t.cozipper)
    for name, suite in TQFT_SUITES.items():
        assert _reports(suite, t) == _reports(suite, windowed), name


def test_the_comparison_reaches_a_witness_past_the_first_input():
    """`involutive-mu-lam` fails on the dual of H*(S2 x S2) at its fourth
    input, so the comparison pins the inputs counted up to a witness."""
    data = dualize(MANIFOLDS["S2xS2"](QQ))
    [report] = [r for r in DATA_SUITES["involutivity"](data) if r.name == "involutive-mu-lam"]
    assert report.verdict == FAIL and report.checked == 4


A = make_module([("1", 0), ("x", 1)], field=PrimeField(3), name="A")
A1, A2 = TensorSpace((A,)), TensorSpace((A, A))
ID1 = GradedMap.identity(A1)
# the product of the exterior algebra on x: 1 is the unit and x x = 0
MU = GradedMap(A2, A1, 0, {(0, 0): {(0,): 1}, (0, 1): {(1,): 1}, (1, 0): {(1,): 1}})


def _both_routes(specs):
    """The reports of `specs` with no window and under OPEN_WINDOW, as dicts,
    or the message of the ValueError each route raises."""
    out = []
    for window in (None, OPEN_WINDOW):
        try:
            out.append([r.as_dict() for r in check_relations(specs, window)])
        except ValueError as exc:
            out.append(f"error: {exc}")
    return out


@pytest.mark.parametrize("spec, expected", [
    (Relation("uncovered", A2, [(1, [[ID1]])], [(1, [])]),
     "error: apply_stage: the stage's sources do not match the element's factors"),
    (Relation("past-the-last-factor", A1, [(1, [[MU]])], [(1, [])]),
     "error: apply_stage: the stage's sources do not match the element's factors"),
    (Relation("mixed-side", A2, [(1, [[MU]]), (1, [])], []),
     "error: cannot add elements of different spaces"),
], ids=["uncovered", "past-the-last-factor", "mixed-side"])
def test_compile_errors_are_the_same_on_both_routes(spec, expected):
    assert _both_routes([spec]) == [expected, expected]


def test_sides_in_different_spaces_fail_at_the_first_input():
    spec = Relation("different-spaces", A2, [(1, [[MU]])], [(1, [])])
    plain, windowed = _both_routes([spec])
    assert plain == windowed
    [report] = plain
    assert report["verdict"] == FAIL and report["checked"] == 1
    assert report["inconclusive"] == 0 and report["witness"]["input"] == ["1", "1"]


def test_an_empty_module_is_window_inconclusive_on_both_routes():
    empty = make_module([], field=PrimeField(3))
    space = TensorSpace((empty, empty))
    ident = GradedMap.identity(TensorSpace((empty,)))
    specs = [Relation("zero-maps", space, [], []),
             Relation("stages", space, [(1, [[ident, ident]])], [(2, [])])]
    plain, windowed = _both_routes(specs)
    assert plain == windowed
    assert {(r["verdict"], r["checked"], r["inconclusive"]) for r in plain} == {
        (INCONCLUSIVE, 0, 0)}


def test_only_a_window_runs_stage_plans(monkeypatch):
    """The route is chosen by whether a window is given: with none no term
    is compiled into a kernel, with one every distinct term is."""
    compiled = []
    compile_term = reports.term_kernel

    def record(stages, source, tables=None):
        compiled.append(stages)
        return compile_term(stages, source, tables)

    monkeypatch.setattr(reports, "term_kernel", record)
    specs = [Relation("associativity", TensorSpace((A, A, A)),
                      [(1, [[MU, ID1], [MU]])], [(1, [[ID1, MU], [MU]])])]
    check_relations(specs)
    assert not compiled
    check_relations(specs, OPEN_WINDOW)
    assert len(compiled) == 2


@pytest.mark.parametrize("field, zero", [(QQ, 0), (PrimeField(5), 5)], ids=["0-over-Q", "5-over-F5"])
@pytest.mark.parametrize("lhs, rhs, expected", [
    ("zero mu-lam + id", "id", (PASS, 2, None)),
    ("zero mu-lam", "", (PASS, 2, None)),
    ("zero mu-lam + 2 id", "id", (FAIL, 1, ("2*1", "1*1"))),
    ("zero mu-lam", "mu-lam", (FAIL, 1, ("0", "2*w"))),
], ids=["beside-pass", "alone-pass", "beside-fail", "alone-fail"])
def test_a_term_whose_sign_coerces_to_zero_contributes_nothing(field, zero, lhs, rhs, expected):
    """On H*(S2), mu lam(1) = 2w.  A term whose sign is zero in the field,
    beside other terms or as a side's only term, adds nothing to its side:
    not a 0*w coordinate to a witness, nor a mismatch to a passing check."""
    data = sphere_cohomology(2, field=field)
    terms = {"zero mu-lam": (zero, [[data.lam], [data.mu]]),
             "mu-lam": (1, [[data.lam], [data.mu]]),
             "id": (1, []), "2 id": (2, [])}

    def side(text):
        return [terms[name] for name in text.split(" + ")] if text else []

    plain, windowed = _both_routes([Relation("zero-sign", data.space, side(lhs), side(rhs))])
    assert plain == windowed
    [report] = plain
    verdict, checked, witness = expected
    assert (report["verdict"], report["checked"]) == (verdict, checked)
    if witness is None:
        assert report["witness"] is None
    else:
        assert report["witness"] == {"input": ["1"], "lhs": witness[0], "rhs": witness[1]}
