"""The built-in models reproduce their closed-form structure maps on
window-valid inputs, and window verdicts are stable under enlargement."""

import pytest

from cofrob import (Element, apply, map_equal, sphere_cohomology,
                    manifold_from_cup, sphere_cup_data,
                    rabinowitz_loop_sphere, loop_sphere, based_loop_sphere,
                    based_rabinowitz_loop_sphere,
                    circle_models, loop_tqft_sphere, CupData,
                    check_cofrobenius, check_involutive,
                    pairing_handle, PrimeField, OpenClosedTQFT)
from cofrob.structures import sgn, run_entries, BIUNITAL_INFINITESIMAL, UNITAL_ANTISYMMETRY

from conftest import all_pass, failing


# ----------------------------------------------------------------- spheres

@pytest.mark.parametrize("n,coeff", [(1, 0), (2, 2), (3, 0), (4, 2)])
def test_sphere_euler_characteristic(n, coeff):
    data = sphere_cohomology(n)
    out = data.mu(data.lam(data.eta))
    w = data.module.index["w"]
    assert out.coeffs == ({} if coeff == 0 else {(w,): coeff})


def test_sphere_counit_recovered_from_unit():
    # (-1)^l eps = p(1 (x) eta)
    for n in (1, 2, 3):
        data = sphere_cohomology(n)
        p = data.pairing()
        got = {}
        for i in range(data.module.dim):
            from pipeline_reference import apply_pipeline
            from cofrob import GradedMap, element_as_map
            val = apply_pipeline(
                [[GradedMap.identity(data.space), data.eta_map()], [p]],
                Element.basis(data.space, (i,)))
            got[i] = val.coeffs.get((), 0)
        expected = {i: sgn(n) * data.eps((i,)).coeffs.get((), 0)
                    for i in range(data.module.dim)}
        assert got == expected


def test_sphere_equals_manifold_from_cup():
    for n in (1, 2, 3):
        a = sphere_cohomology(n)
        b = manifold_from_cup(sphere_cup_data(n))
        assert a.module == b.module
        assert map_equal(a.mu, b.mu) and map_equal(a.lam, b.lam)
        assert a.eta == b.eta and map_equal(a.eps, b.eps)


def test_sphere_rejects_bad_dimension():
    with pytest.raises(ValueError):
        sphere_cohomology(0)


# --------------------------------------------------------------- manifolds

def test_torus_suite_and_euler(torus):
    assert all_pass(check_cofrobenius(torus, "biunital"))
    out = torus.mu(torus.lam(torus.eta))
    assert out.is_zero  # chi(T^2) = 0


def test_s2xs2_suite_and_euler(s2xs2):
    assert all_pass(check_cofrobenius(s2xs2, "biunital"))
    out = s2xs2.mu(s2xs2.lam(s2xs2.eta))
    top = s2xs2.module.index["w1w2"]
    assert out.coeffs == {(top,): 4}  # chi = 4


def test_manifold_rejects_noncommutative():
    bad = CupData(
        dim=2,
        basis=[("1", 0), ("a", 1), ("b", 1), ("ab", 2)],
        products={("1", "1"): [(1, "1")], ("1", "a"): [(1, "a")], ("a", "1"): [(1, "a")],
                  ("1", "b"): [(1, "b")], ("b", "1"): [(1, "b")],
                  ("1", "ab"): [(1, "ab")], ("ab", "1"): [(1, "ab")],
                  ("a", "b"): [(1, "ab")], ("b", "a"): [(1, "ab")]},  # wrong sign
        integral={"ab": 1})
    with pytest.raises(ValueError, match="graded-commutative"):
        manifold_from_cup(bad)


def test_manifold_rejects_nonassociative():
    # commutative (every degree even), but (a a) b = c b = t and a (a b) = 0
    bad = CupData(
        dim=6,
        basis=[("1", 0), ("a", 2), ("b", 2), ("c", 4), ("t", 6)],
        products={**{(x, "1"): [(1, x)] for x in ("1", "a", "b", "c", "t")},
                  **{("1", x): [(1, x)] for x in ("a", "b", "c", "t")},
                  ("a", "a"): [(1, "c")], ("b", "c"): [(1, "t")], ("c", "b"): [(1, "t")]},
        integral={"t": 1})
    with pytest.raises(ValueError, match="^input is not associative$"):
        manifold_from_cup(bad)


def test_manifold_rejects_degenerate_pairing():
    bad = CupData(
        dim=2,
        basis=[("1", 0), ("x", 1), ("w", 2)],
        products={("1", "1"): [(1, "1")], ("1", "x"): [(1, "x")], ("x", "1"): [(1, "x")],
                  ("1", "w"): [(1, "w")], ("w", "1"): [(1, "w")],
                  ("x", "x"): []},
        integral={"w": 1})
    with pytest.raises(ValueError, match="Poincare-duality"):
        manifold_from_cup(bad)


def test_manifold_rejects_a_unit_that_is_not_one():
    # two points: u and v are orthogonal idempotents, so the pairing is
    # perfect, but u is not the unit (u v = 0)
    bad = CupData(dim=0, basis=[("u", 0), ("v", 0)],
                  products={("u", "u"): [(1, "u")], ("v", "v"): [(1, "v")]},
                  integral={"u": 1, "v": 1}, unit="u")
    with pytest.raises(ValueError) as refusal:
        manifold_from_cup(bad)
    assert str(refusal.value) == ("input is not a Poincare-duality algebra: input "
                                  "(mu, eta, eps) is not Frobenius-compatible: fails unit-left")


def test_manifold_build_checks_each_relation_once(monkeypatch):
    """The completion reads the precheck's associativity report instead of
    checking associativity again."""
    from collections import Counter
    from cofrob import s2xs2_cup_data, structures
    counts = Counter()
    check_relations = structures.check_relations

    def counting(specs, window=None):
        counts.update(spec.name for spec in specs)
        return check_relations(specs, window)

    monkeypatch.setattr(structures, "check_relations", counting)
    manifold_from_cup(s2xs2_cup_data())
    assert counts["associativity"] == 1 and counts["counit-left"] == 1
    assert set(counts.values()) == {1}, counts


@pytest.mark.parametrize("restriction, message", [
    ({"1": [], "w1": [(1, "w1")], "w2": [(1, "w2")], "w1w2": []},
     "restriction is not unital"),
    ({"1": [(1, "1")], "w1": [(1, "w1")], "w2": [(1, "w2")], "w1w2": []},
     "restriction is not a ring map: ('w1', 'w2')"),
], ids=["not-unital", "not-multiplicative"])
def test_submanifold_refuses_a_restriction_that_is_not_a_unital_ring_map(restriction,
                                                                         message):
    from cofrob import s2xs2_cup_data, submanifold_tqft
    with pytest.raises(ValueError) as refusal:
        submanifold_tqft(s2xs2_cup_data(), s2xs2_cup_data(), restriction)
    assert str(refusal.value) == message


# --------------------------------------------------------------- loop space

def test_rabinowitz_formulas(rab3):
    mod = rab3.module
    # lam(AU^k) = sum_{i+j=k-1} AU^i (x) AU^j on the window
    got = apply(rab3.lam, Element.basis(rab3.space, (mod.index["AU^1"],)))
    expected = {}
    for i in range(-6, 7):
        j = -i
        if -6 <= j <= 6:
            expected[(mod.index[f"AU^{i}"], mod.index[f"AU^{j}"])] = 1
    assert got == Element(rab3.space2, expected)
    # eps values
    for k in range(-6, 7):
        val = rab3.eps((mod.index[f"U^{k}"],))
        assert val.is_zero
        val_a = rab3.eps((mod.index[f"AU^{k}"],))
        assert val_a.coeffs == ({(): 1} if k == -1 else {})


def test_rabinowitz_pairing_values(rab3):
    p = rab3.pairing()
    mod = rab3.module

    def pval(x, y):
        return p.entries.get((mod.index[x], mod.index[y]), {}).get((), 0)

    assert pval("U^0", "U^-1") == 0
    assert pval("AU^0", "AU^-1") == 0
    assert pval("AU^0", "U^-1") == -1
    assert pval("U^0", "AU^-1") == -1
    assert pval("AU^2", "U^-3") == -1
    assert pval("AU^0", "U^0") == 0


def test_rabinowitz_copairing(rab3):
    # c = lam(1) = sum_{i+j=-1} (AU^i (x) U^j - U^i (x) AU^j)
    mod = rab3.module
    expected = {}
    for i in range(-6, 7):
        j = -1 - i
        if -6 <= j <= 6:
            expected[(mod.index[f"AU^{i}"], mod.index[f"U^{j}"])] = 1
            expected[(mod.index[f"U^{i}"], mod.index[f"AU^{j}"])] = -1
    assert rab3.copairing() == Element(rab3.space2, expected)
    assert rab3.copairing() == rab3.lam(rab3.eta)  # |mu| = 0


def test_based_rabinowitz_formulas(based3):
    mod = based3.module
    got = apply(based3.lam, Element.basis(based3.space, (mod.index["U^0"],)))
    expected = {(mod.index[f"U^{i}"], mod.index[f"U^{-1 - i}"]): 1
                for i in range(-6, 7) if -6 <= -1 - i <= 6}
    assert got == Element(based3.space2, expected)
    assert based3.copairing() == got  # c = lam(1)
    for k in range(-6, 7):
        val = based3.eps((mod.index[f"U^{k}"],))
        assert val.coeffs == ({(): 1} if k == -1 else {})


def test_loop_models_sullivan(loop3, based_loop3):
    for data in (loop3, based_loop3):
        assert data.lam(data.eta).is_zero
        assert run_entries(data, ("unital-infinitesimal",))[0].verdict == "pass"


def test_involutivity_split(rab3, based3):
    # free-loop Rabinowitz model involutive, based model not
    assert not failing(check_involutive(rab3))
    based_reports = check_involutive(based3)
    assert any(r.verdict == "fail" for r in based_reports)


def test_window_stability_under_enlargement():
    # a window-valid pass at N stays a pass at N+2 on the same inputs, and
    # the valid inputs at N remain valid at N+2
    small = rabinowitz_loop_sphere(3, 4)
    large = rabinowitz_loop_sphere(3, 6)
    reports_small = check_cofrobenius(small, "biunital")
    reports_large = check_cofrobenius(large, "biunital")
    for rs, rl in zip(reports_small, reports_large):
        assert rs.name == rl.name
        if rs.verdict == "pass":
            assert rl.verdict == "pass"
        assert rl.checked >= rs.checked
    for labels in [("U^0",), ("AU^0",), ("U^0", "AU^0")]:
        if small.window.input_valid(labels):
            assert large.window.input_valid(labels)


def test_minimal_window_is_inconclusive_not_failing():
    # at the minimal bound every input is gated; the suite reports
    # window-inconclusive verdicts and still does not fail
    from cofrob import suite_passes
    tight = rabinowitz_loop_sphere(3, 3)
    reports = check_cofrobenius(tight, "biunital")
    assert suite_passes(reports)
    assert all(r.verdict in ("pass", "window-inconclusive") for r in reports)
    assert any(r.verdict == "window-inconclusive" for r in reports)


def test_window_bound_validation():
    with pytest.raises(ValueError, match="window bound"):
        rabinowitz_loop_sphere(3, 2)
    with pytest.raises(ValueError, match="odd"):
        rabinowitz_loop_sphere(4, 6)
    with pytest.raises(ValueError, match="circle"):
        rabinowitz_loop_sphere(1, 6)
    # the other loop builders refuse a small bound with the same message
    # instead of building a module that lacks the labels their maps name
    for build in (loop_sphere, based_loop_sphere, based_rabinowitz_loop_sphere):
        for bound in (2, 0, -2):
            with pytest.raises(ValueError, match="window bound must be >= 3"):
                build(3, bound)


# ------------------------------------------------------------------ circle

def test_circle_rabinowitz_biunital(circle_rab):
    assert not failing(check_cofrobenius(circle_rab, "biunital"))
    assert not failing(run_entries(circle_rab, BIUNITAL_INFINITESIMAL))


def test_circle_rabinowitz_counit(circle_rab):
    mod = circle_rab.module
    assert circle_rab.eps((mod.index["AU+^0"],)).coeffs == {(): 1}
    assert circle_rab.eps((mod.index["AU-^0"],)).coeffs == {(): 1}
    assert circle_rab.eps((mod.index["U+^0"],)).is_zero


def test_circle_vec_p(circle_rab):
    # per component: vec p(U^i) = -(AU^{-i})^v, vec p(AU^i) = -(U^{-i})^v
    handle = pairing_handle(circle_rab)
    dual = handle.vec_p.target.modules[0]
    for comp in "+-":
        for i in (-1, 0, 1):
            out = handle.vec_p((circle_rab.module.index[f"U{comp}^{i}"],))
            assert out == Element.basis(handle.vec_p.target,
                                        (dual.index[f"AU{comp}^{-i}'"],)).scale(-1)


def test_circle_lambda_plus_minus_values():
    plus = circle_models(6, which="+", flavor="loop")
    minus = circle_models(6, which="-", flavor="loop")
    mod = plus.module
    # lam_pm(1) = pm(A (x) 1 - 1 (x) A)
    a0, u0 = mod.index["AU^0"], mod.index["U^0"]
    assert plus.lam(plus.eta) == Element(plus.space2, {(a0, u0): 1, (u0, a0): -1})
    assert minus.lam(minus.eta) == Element(minus.space2, {(a0, u0): -1, (u0, a0): 1})
    # lam_+(U^k) for k < 0 carries the boundary minus sign
    got = plus.lam((mod.index["U^-2"],))
    expected = {}
    for i in (-1,):
        expected[(mod.index[f"AU^{i}"], mod.index[f"U^{-2 - i}"])] = -1
        expected[(mod.index[f"U^{i}"], mod.index[f"AU^{-2 - i}"])] = 1
    assert got == Element(plus.space2, expected)
    # lam_+(U^-1) is the empty sum
    assert plus.lam((mod.index["U^-1"],)).is_zero


def test_circle_unital_infinitesimal():
    for flavor in ("loop", "based-loop"):
        for which in "+-":
            data = circle_models(6, which=which, flavor=flavor)
            assert run_entries(data, ("unital-infinitesimal",))[0].verdict == "pass"
            assert not failing(run_entries(data, UNITAL_ANTISYMMETRY))


def test_based_circle_loday_ronco_normalization():
    # the based models with lam_+ and with -lam_- both satisfy
    # lam eta = 1 (x) 1, the unital-infinitesimal normalization of
    # Loday-Ronco type
    plus = circle_models(6, which="+", flavor="based-loop")
    minus = circle_models(6, which="-", flavor="based-loop")
    neg_minus = minus.replace(lam=minus.lam.scale(-1))
    u0 = plus.module.index["U^0"]
    for data in (plus, neg_minus):
        assert data.lam(data.eta) == Element(data.space2, {(u0, u0): 1})
        assert run_entries(data, ("unital-infinitesimal",))[0].verdict == "pass"


def test_based_circle_loday_ronco_form():
    # lam_pm mu = (1 (x) mu)(lam_pm (x) 1) + (mu (x) 1)(1 (x) lam_pm) -+ id
    from cofrob import GradedMap, Relation, check_relations
    for which, s in (("+", -1), ("-", 1)):
        data = circle_models(6, which=which, flavor="based-loop")
        idm = GradedMap.identity(data.space)
        [rep] = check_relations([Relation(
            "loday-ronco-form", data.space2,
            [(1, [[data.mu], [data.lam]])],
            [(1, [[data.lam, idm], [idm, data.mu]]),
             (1, [[idm, data.lam], [data.mu, idm]]),
             (s, [])])],
            data.window)
        assert rep.verdict == "pass"
        assert rep.checked > 0


def test_circle_tqft_zipper(tqft1):
    assert tqft1.cozipper.degree == -1
    c = tqft1.closed
    for comp in "+-":
        assert tqft1.zipper((c.module.index[f"AU{comp}^0"],)).is_zero


def test_loop_tqft_requires_valid_n():
    with pytest.raises(ValueError, match="odd"):
        loop_tqft_sphere(2, 6)


# ------------------------------------------------------ coefficient fields

F5 = PrimeField(5)
F5_BUILDS = {
    "loop_sphere": lambda: loop_sphere(3, 4, field=F5),
    "based_loop_sphere": lambda: based_loop_sphere(3, 4, field=F5),
    "rabinowitz_loop_sphere": lambda: rabinowitz_loop_sphere(3, 4, field=F5),
    "based_rabinowitz_loop_sphere": lambda: based_rabinowitz_loop_sphere(3, 4, field=F5),
    **{f"circle_models-{flavor}": lambda flavor=flavor: circle_models(4, flavor=flavor,
                                                                      field=F5)
       for flavor in ("rabinowitz", "based-rabinowitz", "loop", "based-loop")},
    "loop_tqft_sphere-1": lambda: loop_tqft_sphere(1, 4, field=F5),
    "loop_tqft_sphere-3": lambda: loop_tqft_sphere(3, 4, field=F5),
}


@pytest.mark.xfail(strict=True, reason=(
    "the loop builders pass `field` to the counit only and build the module "
    "over Q (ROADMAP.md item 2); threading it waits for the two F5 window-suites "
    "jobs to be re-pinned in perfbench/digests.json"))
@pytest.mark.parametrize("build", F5_BUILDS.values(), ids=F5_BUILDS.keys())
def test_loop_models_build_over_the_requested_field(build):
    built = build()
    sectors = (built.closed, built.open) if isinstance(built, OpenClosedTQFT) else (built,)
    assert all(data.field == F5 for data in sectors)
