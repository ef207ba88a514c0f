"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Expected values tagged as derived are computed by independent oracles in
this module (hand-rolled 2x2 pairing inversion, Kunneth/Euler counts),
never by the code paths they check.  All comparisons are exact; there are
no tolerances anywhere.
"""

import random
from fractions import Fraction

import pytest

from cofrob import (Element, GradedMap, compose, map_equal, tensor_maps,
                    twist, ShiftMaps, check_cofrobenius,
                    check_derived_identities, check_poincare_duality,
                    cyclic_triple_checks, dualize, shift_structure,
                    rescale_signs, transpose_structure, pairing_handle,
                    copairing_handle, check_perfect, complete_from_pairing,
                    check_intertwines_product, check_intertwines_coproduct,
                    sphere_cohomology, manifold_from_cup, torus_cup_data,
                    s2xs2_cup_data, OpenClosedTQFT, run_full_tqft_suite,
                    check_cardy, scalar_space, Relation, check_relations)
from cofrob.structures import (sgn, run_entries, PRODUCT_LAWS, COPRODUCT_LAWS,
                               UNITAL_ANTISYMMETRY)
from cofrob.tqft import run_tqft_entries

from conftest import all_pass, failing
from dual_reference import double_dual


# relation (5), its pairing form, and the agreement of their verdicts
REL5 = ("rel5-cozipper-duality", "rel5-pairing-form", "rel5-equivalence")


def report(criterion, label, ok):
    print(f"ACCEPTANCE {criterion} ({label}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {criterion} failed: {label}"


# ---------------------------------------------------------- oracle helpers

def sphere_oracle(n):
    """Brute-force expansion of (1 (x) mu)(c (x) 1) on the two-element basis,
    with c obtained by inverting the 2x2 pairing matrix by hand.  Uses plain
    dicts and Fractions only."""
    deg = {"1": 0, "w": n}
    mu = {("1", "1"): "1", ("1", "w"): "w", ("w", "1"): "w"}
    eps = {"w": Fraction(1)}
    s = Fraction(-1 if n % 2 else 1)

    def p(x, y):
        prod = mu.get((x, y))
        return s * eps.get(prod, Fraction(0)) if prod else Fraction(0)

    # solve (1 (x) p)(c (x) 1) = 1 for c = c1 * 1(x)w + c2 * w(x)1:
    # output "1" from x = "1":  c1 * (-1)^{|p| deg(1)} p(w, 1) = 1
    # output "w" from x = "w":  c2 * (-1)^{|p| deg(w)} p(1, w) = 1
    c1 = 1 / (Fraction(-1 if ((-n) * deg["1"]) % 2 else 1) * p("w", "1"))
    c2 = 1 / (Fraction(-1 if ((-n) * deg["w"]) % 2 else 1) * p("1", "w"))
    c = {("1", "w"): c1, ("w", "1"): c2}
    # consistency of the remaining equations
    assert c1 * p("w", "w") == 0 and c2 * p("1", "1") == 0
    # lam(x) = sum c_uv * u (x) mu(v, x); mu lam(1) top coefficient
    mulam1 = Fraction(0)
    for (u, v), coeff in c.items():
        prod = mu.get((v, "1"))
        if prod is None:
            continue
        final = mu.get((u, prod))
        if final == "w":
            mulam1 += coeff
    return c, mulam1


def euler_characteristic(cup):
    chi = 0
    for _, d in cup.basis:
        chi += (-1) ** d
    return chi


# -------------------------------------------------------------- criterion 1

@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_criterion_1_spheres(n):
    data = sphere_cohomology(n)
    ok = all_pass(check_cofrobenius(data, "biunital"))
    ok &= all_pass(check_derived_identities(data, "biunital"))
    ok &= all_pass(cyclic_triple_checks(data))
    ok &= all_pass(check_poincare_duality(data))
    oracle_c, oracle_mulam = sphere_oracle(n)
    one, w = data.module.index["1"], data.module.index["w"]
    ok &= data.copairing() == Element(data.space2, {(one, w): oracle_c[("1", "w")],
                                                    (w, one): oracle_c[("w", "1")]})
    got = data.mu(data.lam(data.eta))
    got_top = got.coeffs.get((w,), Fraction(0))
    ok &= got_top == oracle_mulam == (0 if n % 2 else 2)
    report(1, f"sphere n={n}", ok)


# -------------------------------------------------------------- criterion 2

@pytest.mark.parametrize("builder,chi", [(torus_cup_data, 0), (s2xs2_cup_data, 4)])
def test_criterion_2_manifolds(builder, chi):
    cup = builder()
    assert euler_characteristic(cup) == chi  # Kunneth / Betti-number oracle
    data = manifold_from_cup(cup)
    ok = all_pass(check_cofrobenius(data, "biunital"))
    ok &= all_pass(check_derived_identities(data, "biunital"))
    got = data.mu(data.lam(data.eta))
    top = data.module.index[cup.basis[-1][0]]
    got_top = got.coeffs.get((top,), Fraction(0))
    ok &= got_top == chi
    report(2, f"{cup.name} chi={chi}", ok)


# -------------------------------------------------------------- criterion 3

def test_criterion_3_loop_models(rab3, loop3, based3, based_loop3):
    ok = not failing(check_cofrobenius(rab3, "biunital"))
    ok &= not failing(check_poincare_duality(rab3))
    ok &= rab3.eps((rab3.module.index["AU^-1"],)).coeffs == {(): 1}
    handle = pairing_handle(rab3)
    dual = handle.vec_p.target.modules[0]
    for i in range(-3, 3):
        expected = Element.basis(handle.vec_p.target,
                                 (dual.index[f"AU^{-i-1}'"],)).scale(-1)
        ok &= handle.vec_p((rab3.module.index[f"U^{i}"],)) == expected
    # ordinary loop homology: Sullivan form, and unital coFrobenius fails
    ok &= loop3.lam(loop3.eta).is_zero
    ok &= run_entries(loop3, ("unital-infinitesimal",))[0].verdict == "pass"
    ok &= all(r.verdict != "fail" for r in run_entries(loop3, UNITAL_ANTISYMMETRY))
    cofrob = check_cofrobenius(loop3.replace(eps=None), "unital")
    bad = [r for r in cofrob if r.verdict == "fail"]
    ok &= any(r.name == "unital-cofrobenius-left" and r.witness is not None
              for r in bad)
    # based models reproduce the formulas verbatim on window-valid inputs
    mod = based3.module
    for k in range(-2, 3):
        got = based3.lam((mod.index[f"U^{k}"],))
        expected = {(mod.index[f"U^{i}"], mod.index[f"U^{k - 1 - i}"]): 1
                    for i in range(-6, 7) if -6 <= k - 1 - i <= 6}
        ok &= got == Element(based3.space2, expected)
    ok &= not failing(check_cofrobenius(based3, "biunital"))
    ok &= based_loop3.lam(based_loop3.eta).is_zero
    ok &= run_entries(based_loop3, ("unital-infinitesimal",))[0].verdict == "pass"
    report(3, "loop models n=3 window 6", ok)


# -------------------------------------------------------------- criterion 4

def test_criterion_4_circle_models(circle_rab):
    from cofrob import circle_models
    ok = True
    for which, s in (("+", 1), ("-", -1)):
        data = circle_models(6, which=which, flavor="loop")
        ok &= run_entries(data, ("unital-infinitesimal",))[0].verdict == "pass"
        ok &= all(r.verdict != "fail" for r in run_entries(data, UNITAL_ANTISYMMETRY))
        a0, u0 = data.module.index["AU^0"], data.module.index["U^0"]
        ok &= data.lam(data.eta) == Element(data.space2,
                                            {(a0, u0): s, (u0, a0): -s})
        based = circle_models(6, which=which, flavor="based-loop")
        idm = GradedMap.identity(based.space)
        [rep] = check_relations([Relation(
            "loday-ronco-form", based.space2,
            [(1, [[based.mu], [based.lam]])],
            [(1, [[based.lam, idm], [idm, based.mu]]),
             (1, [[idm, based.lam], [based.mu, idm]]),
             (-s, [])])],
            based.window)
        ok &= rep.verdict == "pass" and rep.checked > 0
    ok &= not failing(check_cofrobenius(circle_rab, "biunital"))
    report(4, "circle models window 6", ok)


# -------------------------------------------------------------- criterion 5

def test_criterion_5_tqft_suites(tqft3, equator, diagonal, factor):
    reports = run_full_tqft_suite(tqft3)
    ok = not failing(reports)
    ok &= all(r.verdict != "fail" for r in run_tqft_entries(tqft3, REL5)[1:])
    coalg = run_tqft_entries(tqft3, ("cozipper-coproducts", "cozipper-counits"))
    ok &= not failing(coalg)
    ok &= sgn(tqft3.cozipper.degree * tqft3.open.lam.degree) == 1  # lam_C zeta* form
    ok &= not failing(run_tqft_entries(tqft3, ("module-rel-a", "module-rel-b")))
    ok &= all_pass(run_full_tqft_suite(equator))
    factor_reports = run_full_tqft_suite(factor)
    cardy = next(r for r in factor_reports if r.name == "rel6-cardy")
    ok &= cardy.verdict == "fail" and cardy.witness.rhs == "2*w"
    ok &= all(r.verdict == "pass" for r in factor_reports if r.name != "rel6-cardy")
    ok &= check_cardy(diagonal).verdict == "pass"
    report(5, "TQFT suites", ok)


# -------------------------------------------------------------- criterion 6

def expected_dual_copairing(data):
    dual = dualize(data)
    p = data.pairing()
    coeffs = {}
    for (i, j), row in p.entries.items():
        v = row.get((), None)
        if v is None:
            continue
        s = sgn(data.module.degree(i) * data.module.degree(j))
        coeffs[(i, j)] = Fraction(s) * v
    return Element(dual.space2, coeffs)


def expected_dual_pairing(data):
    dual = dualize(data)
    c = data.copairing()
    c_deg = data.lam.degree - data.mu.degree
    entries = {}
    for (i, j), v in c.coeffs.items():
        s = sgn(data.module.degree(i) * data.module.degree(j) + c_deg)
        entries[(i, j)] = {(): Fraction(s) * v}
    return GradedMap(dual.space2, scalar_space(data.field), c_deg, entries)


EXAMPLES_6 = ["sphere1", "sphere2", "sphere3", "sphere4", "torus", "s2xs2",
              "rab3", "based3", "circle_rab"]


@pytest.mark.parametrize("name", EXAMPLES_6)
def test_criterion_6_transform_invariance(name, request, torus, s2xs2, rab3,
                                          based3, circle_rab):
    pool = {"sphere1": sphere_cohomology(1), "sphere2": sphere_cohomology(2),
            "sphere3": sphere_cohomology(3), "sphere4": sphere_cohomology(4),
            "torus": torus, "s2xs2": s2xs2, "rab3": rab3, "based3": based3,
            "circle_rab": circle_rab}
    data = pool[name]
    m, l = data.mu.degree, data.lam.degree
    ok = not failing(check_cofrobenius(data, "biunital"))

    dual = dualize(data)
    ok &= not failing(check_cofrobenius(dual, "biunital"))
    ok &= dual.copairing() == expected_dual_copairing(data)      # c' = p^v
    ok &= map_equal(dual.pairing(), expected_dual_pairing(data))  # p' = c^v

    shifted = shift_structure(data)
    ok &= not failing(check_cofrobenius(shifted, "biunital"))
    sh = ShiftMaps(data.module)
    ok &= shifted.copairing() == tensor_maps(sh.s, sh.s)(data.copairing()).scale(sgn(l))
    ok &= map_equal(shifted.pairing(),
                    compose(data.pairing(), tensor_maps(sh.omega, sh.omega)).scale(sgn(l + 1)))

    resc = rescale_signs(data, 1, 0)
    ok &= not failing(check_cofrobenius(resc, "biunital"))
    ok &= resc.copairing() == data.copairing().scale(-1)
    ok &= map_equal(resc.pairing(), data.pairing().scale(-1))

    transp = transpose_structure(data)
    ok &= not failing(check_cofrobenius(transp, "biunital"))
    tau = twist(data.module, data.module)
    ok &= map_equal(transp.pairing(), compose(data.pairing(), tau).scale(sgn(l)))
    ok &= transp.copairing() == tau(data.copairing()).scale(sgn(m))

    # dualize twice recovers the original under the canonical double dual
    twice = dualize(dual)
    dd = double_dual(data.module)
    dd2 = tensor_maps(dd, dd)
    ok &= map_equal(compose(twice.mu, dd2), compose(dd, data.mu))
    ok &= map_equal(compose(dd2, data.lam), compose(twice.lam, dd))
    ok &= twice.eta == dd(data.eta)
    ok &= map_equal(compose(twice.eps, dd), data.eps)
    report(6, f"transform invariance: {name}", ok)


# -------------------------------------------------------------- criterion 7

def flip_entry(gmap, rng):
    rows = sorted(gmap.entries)
    src = rows[rng.randrange(len(rows))]
    dsts = sorted(gmap.entries[src])
    dst = dsts[rng.randrange(len(dsts))]
    entries = {s: dict(r) for s, r in gmap.entries.items()}
    entries[src][dst] = -entries[src][dst]
    return GradedMap(gmap.source, gmap.target, gmap.degree, entries)


def test_criterion_7_mutant_properties(equator):
    rng = random.Random(20260809)
    bases = [sphere_cohomology(2), sphere_cohomology(3),
             manifold_from_cup(torus_cup_data())]
    mutants = []
    for base in bases:
        for m in (0, 1):
            for L in (0, 1):
                mutants.append(rescale_signs(base, m, L))
        for _ in range(32):
            kind = rng.choice(["mu", "lam", "eta", "mu+lam"])
            data = base
            if kind in ("mu", "mu+lam"):
                data = data.replace(mu=flip_entry(data.mu, rng))
            if kind in ("lam", "mu+lam"):
                data = data.replace(lam=flip_entry(data.lam, rng))
            if kind == "eta":
                data = data.replace(eta=data.eta.scale(-1))
            mutants.append(data)
    assert len(mutants) >= 100
    implication_hits = 0
    agreement_hits = 0
    ok = True
    for data in mutants:
        cofrob = check_cofrobenius(data.replace(eps=None), "unital")
        if all(r.verdict == "pass" for r in cofrob):
            implication_hits += 1
            ok &= run_entries(data, ("unital-infinitesimal",))[0].verdict == "pass"
            ok &= all(r.verdict == "pass" for r in run_entries(data, UNITAL_ANTISYMMETRY))
        base_laws = run_entries(data, PRODUCT_LAWS) + run_entries(data, COPRODUCT_LAWS)
        base_ok = all(r.verdict != "fail" for r in base_laws
                      if r.name.startswith(("assoc", "coassoc", "unit")))
        if base_ok:
            agreement_hits += 1
            reports = run_entries(data, UNITAL_ANTISYMMETRY)
            six = next(r for r in reports if r.name == "unital-anti-symmetry")
            s_form = next(r for r in reports if r.name == "anti-symmetry-S-operator")
            ok &= six.verdict == s_form.verdict
    ok &= implication_hits >= 12 and agreement_hits >= 12
    # relation (5) and its pairing form agree on TQFT mutants
    rel5_hits = 0
    for _ in range(16):
        bad = OpenClosedTQFT(equator.closed, equator.open, equator.zipper,
                             flip_entry(equator.cozipper, rng))
        [rel5] = run_tqft_entries(bad, ("rel5-cozipper-duality",))
        form = next(r for r in run_tqft_entries(bad, REL5)
                    if r.name == "rel5-pairing-form")
        ok &= rel5.verdict == form.verdict
        rel5_hits += 1
    [rel5] = run_tqft_entries(equator, ("rel5-cozipper-duality",))
    form = next(r for r in run_tqft_entries(equator, REL5)
                if r.name == "rel5-pairing-form")
    ok &= rel5.verdict == form.verdict == "pass"
    report(7, f"{len(mutants)} mutants, {implication_hits} coFrobenius-passing, "
              f"{agreement_hits} base-law-passing, {rel5_hits} TQFT mutants", ok)


# -------------------------------------------------------------- criterion 8

def appendix_shifted(data, sh):
    # (s (x) s)^{-1} = -(omega (x) omega)
    from cofrob.structures import BialgebraData
    inv2 = tensor_maps(sh.omega, sh.omega).scale(-1)
    mu_p = compose(sh.s, compose(data.mu, inv2)).scale(sgn(data.mu.degree))
    lam_p = compose(tensor_maps(sh.s, sh.s),
                    compose(data.lam, sh.omega)).scale(sgn(data.lam.degree))
    return BialgebraData(sh.shifted, mu_p, lam_p, None, None, None)


@pytest.mark.parametrize("n", [2, 3])
def test_criterion_8_intertwiner_composition(n):
    data0 = sphere_cohomology(n)
    sh1 = ShiftMaps(data0.module)
    data1 = appendix_shifted(data0, sh1)
    sh2 = ShiftMaps(data1.module)
    data2 = appendix_shifted(data1, sh2)
    ok = True
    for phi, a, b in [(sh1.s, data0, data1), (sh2.s, data1, data2),
                      (compose(sh2.s, sh1.s), data0, data2)]:
        ok &= check_intertwines_product(phi, a, b)[0].verdict == "pass"
        ok &= check_intertwines_coproduct(phi, a, b)[0].verdict == "pass"
    report(8, f"shift chain A -> A[1] -> A[2] on sphere n={n}", ok)


# -------------------------------------------------------------- criterion 9

@pytest.mark.parametrize("name", ["sphere2", "sphere3", "torus", "s2xs2"])
def test_criterion_9_completion_idempotent(name, torus, s2xs2):
    pool = {"sphere2": sphere_cohomology(2), "sphere3": sphere_cohomology(3),
            "torus": torus, "s2xs2": s2xs2}
    data = pool[name]
    again = complete_from_pairing(data.module, data.mu, data.eta, data.eps)
    ok = map_equal(again.lam, data.lam)
    ok &= again.copairing() == data.copairing()
    ok &= map_equal(again.pairing(), data.pairing())
    # (1 (x) p)(c (x) 1) = 1 exactly
    perfect = check_perfect(pairing_handle(again), copairing_handle(again), None)
    ok &= all_pass(perfect)
    report(9, f"complete_from_pairing idempotent: {name}", ok)
