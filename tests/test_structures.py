"""Axiom suites of the bialgebra flavors on the built-in structures,
including deliberately corrupted negative controls."""

import sys

import pytest

from cofrob import (Element, GradedMap, map_equal, twist, check_cofrobenius,
                    check_derived_identities, check_involutive, direct_sum,
                    counit_solve, dualize, shift_structure, circle_models,
                    sphere_cohomology,
                    tensor_maps, compose, manifold_from_cup, torus_cup_data,
                    s2xs2_cup_data, rabinowitz_loop_sphere)
from cofrob.structures import (BialgebraData, _Ops, _s_terms, sgn, run_entries,
                               PRODUCT_LAWS, COPRODUCT_LAWS, UNITAL_ANTISYMMETRY,
                               COUNITAL_ANTISYMMETRY, BIUNITAL_INFINITESIMAL)

from conftest import all_pass, failing, relabeled_sphere3
from pipeline_reference import apply_pipeline


def s_operator(data):
    """S = (mu(x)1)(1(x)tau lam) - (-1)^{|mu|} (1(x)mu)(tau lam(x)1), degree |mu|+|lam|.

    Materialized on A(x)A(x)A, the reference for the streamed sum the
    anti-symmetry check evaluates (`_s_terms`)."""
    o = _Ops(data)
    first = compose(tensor_maps(o.mu, o.id), tensor_maps(o.id, o.tl))
    second = compose(tensor_maps(o.id, o.mu), tensor_maps(o.tl, o.id))
    return first - second.scale(sgn(o.m))


def corrupt_map(gmap, src, dst):
    """Flip the sign of a single matrix entry."""
    entries = {s: dict(row) for s, row in gmap.entries.items()}
    entries[src][dst] = -entries[src][dst]
    return GradedMap(gmap.source, gmap.target, gmap.degree, entries)


def by_name(reports, name):
    return next(r for r in reports if r.name == name)


def test_product_laws_sphere3(sphere3):
    reports = run_entries(sphere3, PRODUCT_LAWS)
    assert all_pass(reports)
    assert {r.name for r in reports} == {"associativity", "commutativity",
                                         "unit-left", "unit-right"}


def test_unit_law_window(rab3):
    reports = run_entries(rab3, PRODUCT_LAWS)
    assert all_pass(reports)


def test_corrupted_mu_fails_associativity(sphere2):
    mu_bad = corrupt_map(sphere2.mu, (sphere2.module.index["1"], sphere2.module.index["w"]),
                         (sphere2.module.index["w"],))
    bad = sphere2.replace(mu=mu_bad)
    rep = by_name(run_entries(bad, PRODUCT_LAWS), "associativity")
    assert rep.verdict == "fail"
    assert rep.witness is not None


def test_coproduct_laws_window(rab3):
    reports = run_entries(rab3, COPRODUCT_LAWS)
    assert all_pass(reports)
    # counit value printed in the source: eps(AU^-1) = 1
    assert rab3.eps((rab3.module.index["AU^-1"],)).coeffs == {(): 1}


def test_no_counit_for_loop_model(loop3):
    assert counit_solve(loop3) is None


def test_counit_solve_without_window_valid_equations_raises():
    # at N = 3 the window keeps no input of the counit law, so no equation
    # determines eps; solving the empty system used to raise IndexError
    with pytest.raises(ValueError, match="no window-valid equation determines the counit"):
        counit_solve(rabinowitz_loop_sphere(3, 3))


def test_counit_solver_recovers_eps(rab3, based3):
    for data in (rab3, based3):
        found = counit_solve(data)
        assert found is not None
        assert map_equal(found, data.eps)


def test_corrupted_lambda_fails_coassociativity(sphere3):
    lam_bad = corrupt_map(sphere3.lam, (sphere3.module.index["1"],),
                          (sphere3.module.index["w"], sphere3.module.index["1"]))
    bad = sphere3.replace(lam=lam_bad)
    rep = by_name(run_entries(bad, COPRODUCT_LAWS), "coassociativity")
    assert rep.verdict == "fail" and rep.witness is not None


def test_unital_infinitesimal_loop_sullivan(loop3):
    # lam eta = 0, so the relation reduces to Sullivan's form and passes
    assert loop3.lam(loop3.eta).is_zero
    assert run_entries(loop3, ("unital-infinitesimal",))[0].verdict == "pass"


def test_unital_infinitesimal_based_circle():
    for which in "+-":
        data = circle_models(6, which=which, flavor="based-loop")
        # lam_pm eta = pm 1 (x) 1: the extra term is active
        lh = data.lam(data.eta)
        one = data.module.index["U^0"]
        assert lh.coeffs == {(one, one): 1 if which == "+" else -1}
        assert run_entries(data, ("unital-infinitesimal",))[0].verdict == "pass"


def test_unital_antisymmetry_sphere2(sphere2):
    reports = run_entries(sphere2, UNITAL_ANTISYMMETRY)
    assert all_pass(reports)


def test_antisymmetry_formulations_agree_on_corruption(sphere2, sphere3):
    # a sign-corrupted lam(1) breaks the six-term relation and the
    # S-operator form together
    for base in (sphere2, sphere3):
        i1 = base.module.index["1"]
        iw = base.module.index["w"]
        bad = base.replace(lam=corrupt_map(base.lam, (i1,), (i1, iw)))
        reports = run_entries(bad, UNITAL_ANTISYMMETRY)
        six = by_name(reports, "unital-anti-symmetry")
        s_form = by_name(reports, "anti-symmetry-S-operator")
        assert six.verdict == s_form.verdict == "fail"


def test_antisymmetry_formulations_agree_on_exact_structures(sphere2, sphere3, torus):
    # the equivalence holds within the ambient axioms (unit, associativity,
    # coassociativity); checked on exact structures, including sign rescales
    from cofrob import rescale_signs
    for base in (sphere2, sphere3, torus):
        for m in (0, 1):
            for l in (0, 1):
                data = rescale_signs(base, m, l)
                reports = run_entries(data, UNITAL_ANTISYMMETRY)
                six = by_name(reports, "unital-anti-symmetry")
                s_form = by_name(reports, "anti-symmetry-S-operator")
                assert six.verdict == s_form.verdict == "pass"


UNITAL_EXAMPLES = {
    **{f"S{n}": (lambda n=n: sphere_cohomology(n)) for n in range(1, 6)},
    "T2": lambda: manifold_from_cup(torus_cup_data()),
    "S2xS2": lambda: manifold_from_cup(s2xs2_cup_data()),
    "rabinowitz-S3-N5": lambda: rabinowitz_loop_sphere(3, 5),
    **{f"circle-{flavor}{which}-N5": (lambda flavor=flavor, which=which:
                                      circle_models(5, which=which, flavor=flavor))
       for flavor in ("rabinowitz", "based-rabinowitz", "loop", "based-loop")
       for which in ("+", "-")},
}
TRANSFORM_CHAINS = {
    "none": lambda data: data,
    "shift": shift_structure,
    "shift2": lambda data: shift_structure(shift_structure(data)),
    "dualize": dualize,
    "shift-of-dual": lambda data: shift_structure(dualize(data)),
}


@pytest.mark.parametrize("example", list(UNITAL_EXAMPLES))
def test_s_form_agrees_with_the_six_term_relation_on_every_transform(example):
    """The S-operator form and the six-term relation give one verdict on
    every transform chain of every shipped unital example, all of them
    graded commutative and cocommutative; an odd |mu| (a shift of S^3) no
    longer fails the S-form alone.  The dual of a loop flavor has no unit,
    so both are skipped there."""
    base = UNITAL_EXAMPLES[example]()
    for chain, transform in TRANSFORM_CHAINS.items():
        data = transform(base)
        reports = run_entries(data, UNITAL_ANTISYMMETRY)
        six = by_name(reports, "unital-anti-symmetry")
        s_form = by_name(reports, "anti-symmetry-S-operator")
        assert s_form.verdict == six.verdict, (chain, six, s_form)


def test_counital_laws_of_dual(sphere3, rab3):
    # the dual of a unital structure passes the counital suite
    for data in (sphere3, rab3):
        dual = dualize(data)
        assert run_entries(dual, ("counital-infinitesimal",))[0].verdict == "pass"
        assert all_pass(run_entries(dual, COUNITAL_ANTISYMMETRY))


def test_eps_mu_twist_consequence(rab3):
    rep = by_name(run_entries(rab3, COUNITAL_ANTISYMMETRY), "eps-mu-twist")
    assert rep.verdict == "pass"


def test_biunital_infinitesimal_examples(sphere2, rab3):
    assert all_pass(run_entries(sphere2, BIUNITAL_INFINITESIMAL))
    assert all_pass(run_entries(rab3, BIUNITAL_INFINITESIMAL))


def test_wrong_sign_unit_breaks_bridge(sphere2):
    bad = sphere2.replace(eta=sphere2.eta.scale(-1))
    reports = run_entries(bad, BIUNITAL_INFINITESIMAL)
    assert by_name(reports, "biunital-bridge").verdict == "fail"
    assert by_name(reports, "biunital-bridge").witness is not None


def test_cofrobenius_flavors(sphere2, based3):
    for data in (sphere2, based3):
        assert all_pass(check_cofrobenius(data, "unital"))
        assert all_pass(check_cofrobenius(data, "counital"))
        assert all_pass(check_cofrobenius(data, "biunital"))
    with pytest.raises(ValueError, match="flavor"):
        check_cofrobenius(sphere2, "nonsense")


def test_unital_cofrobenius_fails_for_loop(loop3):
    # c = lam(1) = 0 but lam != 0
    data = loop3
    assert data.copairing().is_zero
    reports = check_cofrobenius(data.replace(eps=None), "unital")
    rep = by_name(reports, "unital-cofrobenius-left")
    assert rep.verdict == "fail"
    assert rep.witness.rhs == "0"


def test_unital_cofrob_implies_unital_infinitesimal(sphere2, sphere3, rab3, based3):
    # implication tested over the built-in examples
    for data in (sphere2, sphere3, rab3, based3):
        assert all(r.verdict != "fail" for r in check_cofrobenius(data, "unital"))
        assert run_entries(data, ("unital-infinitesimal",))[0].verdict == "pass"
        assert all(r.verdict != "fail" for r in run_entries(data, UNITAL_ANTISYMMETRY))


def test_derived_identities(sphere2, rab3):
    assert all_pass(check_derived_identities(sphere2, "biunital"))
    reports = check_derived_identities(rab3, "biunital")
    assert not failing(reports)
    # counit recovered from the unit: (-1)^l eps = p(1 (x) eta)
    assert by_name(reports, "derived-eps-from-p-eta").verdict == "pass"


def test_involutivity_contrast(rab3, based3):
    # free loop window model is involutive (opposite parity), based is not
    reports = check_involutive(rab3)
    assert not failing(reports)
    based_reports = check_involutive(based3)
    assert by_name(based_reports, "involutive-mu-lam").verdict == "fail"
    # equivalence with mu c = 0 on unital coFrobenius structures
    mu_lam = by_name(based_reports, "involutive-mu-lam")
    mu_c = by_name(based_reports, "involutive-mu-c")
    assert mu_lam.verdict == mu_c.verdict == "fail"
    assert by_name(reports, "involutive-mu-lam").verdict == \
        by_name(reports, "involutive-mu-c").verdict


def test_direct_sum_passes_biunital(sphere3):
    summed = direct_sum(sphere3, relabeled_sphere3())
    assert all_pass(check_cofrobenius(summed, "biunital"))
    # eta is the pair of units, eps the sum of counits
    assert summed.eta.coeffs == {(0,): 1, (2,): 1}
    assert sorted(summed.eps.entries) == [(1,), (3,)]


def test_direct_sum_with_zero_module_is_neutral(sphere3):
    from cofrob import make_module, TensorSpace, scalar_space
    zero_mod = make_module([])
    sp = TensorSpace((zero_mod,))
    sp2 = TensorSpace((zero_mod, zero_mod))
    zero = BialgebraData(zero_mod,
                         GradedMap.zero(sp2, sp, 0),
                         GradedMap.zero(sp, sp2, 3),
                         Element(sp),
                         GradedMap.zero(sp, scalar_space(), -3))
    summed = direct_sum(sphere3, zero)
    assert summed.module == sphere3.module
    assert map_equal(summed.mu, sphere3.mu) and map_equal(summed.lam, sphere3.lam)
    assert summed.eta == sphere3.eta and map_equal(summed.eps, sphere3.eps)


def test_direct_sum_flavor_mismatch(sphere2, loop3):
    with pytest.raises(ValueError, match="flavor"):
        direct_sum(sphere2.replace(window=None), loop3.replace(window=None))


def test_circle_rabinowitz_is_direct_sum(circle_rab):
    # two components, unit supported on both
    assert len(circle_rab.eta.coeffs) == 2
    labels = {circle_rab.module.labels[i[0]] for i in circle_rab.eta.coeffs}
    assert labels == {"U+^0", "U-^0"}


def test_s_operator_degree(sphere3):
    s = s_operator(sphere3)
    assert s.degree == sphere3.mu.degree + sphere3.lam.degree


@pytest.mark.parametrize("build", [
    lambda: sphere_cohomology(3),
    lambda: manifold_from_cup(torus_cup_data()),
    lambda: manifold_from_cup(s2xs2_cup_data()),
    lambda: rabinowitz_loop_sphere(3, 4),
    lambda: circle_models(4),
], ids=["sphere3", "torus", "s2xs2", "rabinowitz3-4", "circle4"])
def test_streamed_s_operator_matches_materialized(build):
    """The anti-symmetry check evaluates S as a signed sum of pipelines; on
    every basis input of A(x)A that sum equals the materialized s_operator."""
    data = build()
    s = s_operator(data)
    terms = _s_terms(_Ops(data))
    for idx in data.space2.basis():
        x = Element.basis(data.space2, idx)
        streamed = Element(s.target)
        for sign, stages in terms:
            streamed = streamed + apply_pipeline(stages, x).scale(sign)
        assert streamed == s(x), data.space2.labels_of(idx)


def _relation_key(name, source, lhs, rhs):
    """A checked relation: its name, source and both sides, with maps
    compared by value, so that an operator context built twice for one
    structure still gives the same key."""

    def side(terms):
        return tuple((sign, tuple(map(tuple, stages))) for sign, stages in terms)

    return name, source, side(lhs), side(rhs)


def _evaluations(monkeypatch, run):
    """The key of every relation that `run()` evaluates, in order, through
    a `check_relations` batch."""
    import sys
    from cofrob import reports
    keys = []

    def batch(specs, window=None):
        keys.extend(_relation_key(*spec[:4]) for spec in specs)
        return reports.check_relations(specs, window)

    with monkeypatch.context() as patch:
        for modname, module in list(sys.modules.items()):
            if modname.startswith("cofrob.") and module is not reports:
                if getattr(module, "check_relations", None) is reports.check_relations:
                    patch.setattr(module, "check_relations", batch)
        run()
    return keys


def test_each_relation_evaluated_once(monkeypatch, sphere3, torus, equator):
    """No suite call evaluates a relation of one structure twice.  The
    refusal precheck of poincare-duality evaluates the structure's own
    relations, while the suite reports those of its dual, so it repeats
    nothing either."""
    from collections import Counter
    from cofrob.suites import DATA_SUITES, run_suite
    runs = [(name, sphere3) for name in DATA_SUITES]
    runs += [("tqft-full", equator), ("cyclic", torus)]
    for suite, obj in runs:
        keys = _evaluations(monkeypatch, lambda: run_suite(suite, obj))
        assert keys, suite
        repeated = sorted(key[0] for key, n in Counter(keys).items() if n > 1)
        assert not repeated, (suite, repeated)


def _collapsed(names, law):
    """`names` with `law`-left and `law`-right folded into one `law`."""
    out = []
    for name in names:
        if name in (f"{law}-left", f"{law}-right"):
            if law in out:
                continue
            name = law
        out.append(name)
    return out


@pytest.mark.parametrize("missing", ["eta", "eps"])
def test_missing_unit_or_counit_is_skipped(sphere3, missing):
    """A checker skips each relation that needs a missing unit or counit,
    one report per relation, and still checks every other relation.
    check_involutive leaves out the cross-check it lacks the map for."""
    from cofrob.suites import DATA_SUITES
    data = sphere3.replace(**{missing: None})
    law, note = (("unit", "no unit present") if missing == "eta"
                 else ("counit", "no counit present"))
    bridges = {"biunital-bridge", "biunital-anti-bridge-1", "biunital-anti-bridge-2"}
    needs = bridges | ({"unit", "unital-infinitesimal", "unital-anti-symmetry",
                        "anti-symmetry-S-operator", "twist-of-lam-eta",
                        "unital-cofrobenius-left", "unital-cofrobenius-right",
                        "copairing-symmetry"} if missing == "eta"
                       else {"counit", "counital-infinitesimal", "counital-anti-symmetry",
                             "eps-mu-twist", "counital-cofrobenius-left",
                             "counital-cofrobenius-right", "pairing-symmetry"})
    for suite in ("unital-infinitesimal", "counital-infinitesimal",
                  "biunital-infinitesimal", "unital-cofrobenius",
                  "counital-cofrobenius", "biunital-cofrobenius"):
        reports = DATA_SUITES[suite](data)
        full = [r.name for r in DATA_SUITES[suite](sphere3)]
        assert [r.name for r in reports] == _collapsed(full, law), suite
        for r in reports:
            expected = ("skipped", note) if r.name in needs else ("pass", "")
            assert (r.verdict, r.note) == expected, (suite, r.name)
    biunital = {"derived-eps-from-p-eta", "derived-p-eta-sides", "derived-eta-from-eps-c",
                "derived-eps-c-sides", "derived-p-c-left-inverse",
                "derived-p-c-right-inverse"}
    needs = biunital | ({"derived-c-c-triple", "derived-lam-c-symmetric",
                         "derived-four-way-b", "derived-four-way-c"} if missing == "eta"
                        else {"derived-p-p-triple", "derived-p-mu-symmetric",
                              "derived-lam-lam-p"})
    for flavor in ("unital", "counital", "biunital"):
        reports = check_derived_identities(data, flavor)
        full = [r.name for r in check_derived_identities(sphere3, flavor)]
        assert [r.name for r in reports] == full, flavor
        for r in reports:
            if r.name in needs:
                assert (r.verdict, r.note) == ("skipped", note), (flavor, r.name)
            else:
                assert r.verdict == "pass", (flavor, r.name)
    left_out = "involutive-mu-c" if missing == "eta" else "involutive-p-lam"
    full = [r.name for r in check_involutive(sphere3)]
    assert [r.name for r in check_involutive(data)] == [n for n in full if n != left_out]


def test_relation_tables_are_consistent(monkeypatch, sphere3, equator):
    """Every suite and checker tuple names entries of its table, and every
    entry is reached by some suite: none is dead."""
    from cofrob import structures, tqft
    from cofrob.suites import DATA_SUITES, SUITE_RELATIONS, TQFT_SUITES
    tuples = [*SUITE_RELATIONS.values(), *structures.COFROBENIUS.values(),
              *structures.DERIVED_IDENTITIES.values(), structures.INVOLUTIVE,
              structures.PRODUCT_LAWS, structures.COPRODUCT_LAWS,
              structures.UNITAL_ANTISYMMETRY, structures.COUNITAL_ANTISYMMETRY,
              structures.BIUNITAL_INFINITESIMAL, structures.CYCLIC, tqft.CLOSED_SECTOR]
    for names in tuples:
        assert set(names) <= set(structures.RELATIONS), names
    assert {*structures.GATES, *structures.GATES.values()} <= set(structures.RELATIONS)
    assert not any(structures.RELATIONS[gate][0] for gate in structures.GATES.values())
    assert set(tqft.TQFT_FULL) <= set(tqft.TQFT_RELATIONS)

    reached = {"structures": set(), "tqft": set()}

    def recording(table, seen):
        class Recording(dict):
            def __getitem__(self, name):
                seen.add(name)
                return dict.__getitem__(self, name)
        return Recording(table)

    monkeypatch.setattr(structures, "RELATIONS",
                        recording(structures.RELATIONS, reached["structures"]))
    monkeypatch.setattr(tqft, "TQFT_RELATIONS",
                        recording(tqft.TQFT_RELATIONS, reached["tqft"]))
    for suite in DATA_SUITES.values():
        suite(sphere3)
    for suite in TQFT_SUITES.values():
        suite(equator)
    assert reached["structures"] == set(structures.RELATIONS)
    assert reached["tqft"] == set(tqft.TQFT_RELATIONS)


def _operators_built(monkeypatch, run):
    """The names of the `_Ops` operators that `run()` builds, and the
    number of twists the library builds, by any caller."""
    contexts, twists = _contexts_and_twists(monkeypatch, run)
    return set().union(*(vars(o) for o in contexts)), len(twists)


def _contexts_and_twists(monkeypatch, run):
    """The `_Ops` that `run()` makes, and the module pairs of the twists
    the library builds, by any caller, in order."""
    from cofrob import tensor
    contexts, twists = [], []
    init, original = _Ops.__init__, tensor.twist

    def recording_init(o, data, tau=None):
        init(o, data, tau)
        contexts.append(o)

    def counting_twist(a, b):
        twists.append((a, b))
        return original(a, b)

    with monkeypatch.context() as patch:
        patch.setattr(_Ops, "__init__", recording_init)
        for modname, module in list(sys.modules.items()):
            if modname.startswith("cofrob") and getattr(module, "twist", None) is original:
                patch.setattr(module, "twist", counting_twist)
        run()
    return contexts, twists


@pytest.mark.parametrize("build", [lambda: sphere_cohomology(3),
                                   lambda: rabinowitz_loop_sphere(3, 4)],
                         ids=["sphere3", "rab3-4"])
def test_operators_are_built_only_when_a_relation_reads_them(monkeypatch, build):
    """derived-identities and involutivity build no twist; no coFrobenius
    flavor, poincare-duality or cyclic (which reads tau only for its
    (co)commutativity preconditions) builds tau lam or mu tau, which the
    anti-symmetry relations of biunital-infinitesimal do read."""
    from cofrob.suites import DATA_SUITES
    data = build()
    for suite in ("derived-identities", "involutivity"):
        built, twists = _operators_built(monkeypatch, lambda: DATA_SUITES[suite](data))
        assert "tau" not in built and twists == 0, suite
    for suite in ("unital-cofrobenius", "counital-cofrobenius", "biunital-cofrobenius",
                  "poincare-duality", "cyclic"):
        built, _ = _operators_built(monkeypatch, lambda: DATA_SUITES[suite](data))
        assert not {"tl", "mt"} & built, suite
    built, twists = _operators_built(
        monkeypatch, lambda: DATA_SUITES["biunital-infinitesimal"](data))
    assert {"tau", "tl", "mt"} <= built and twists == 1


@pytest.mark.parametrize("build", [lambda: sphere_cohomology(3),
                                   lambda: rabinowitz_loop_sphere(3, 4)],
                         ids=["sphere3", "rab3-4"])
def test_poincare_duality_builds_one_context_and_one_twist_per_structure(monkeypatch,
                                                                         build):
    """One check_poincare_duality call makes one `_Ops` for the data and one
    for its dual, the data's first, and twists each module once; the dual's
    context holds the twist its structure was built with."""
    from cofrob import check_poincare_duality, dual_module
    data = build()
    dual = dual_module(data.module)
    contexts, twists = _contexts_and_twists(monkeypatch, lambda: check_poincare_duality(data))
    assert len(contexts) == 2 and contexts[0].data is data
    assert contexts[1].data.module is dual
    assert len(twists) == 2 and all(a is b for a, b in twists)
    assert {a for a, _ in twists} == {data.module, dual}
    assert vars(contexts[1])["tau"].source.modules == (dual, dual)


@pytest.mark.parametrize("build", [lambda: sphere_cohomology(3),
                                   lambda: rabinowitz_loop_sphere(3, 4)],
                         ids=["sphere3", "rab3-4"])
def test_transpose_builds_one_context_and_one_twist(monkeypatch, build):
    """transpose_structure reads tau from the context of its precheck."""
    from cofrob import transpose_structure
    data = build()
    contexts, twists = _contexts_and_twists(monkeypatch, lambda: transpose_structure(data))
    assert len(contexts) == 1 and contexts[0].data is data
    assert twists == [(data.module, data.module)]


def test_wrong_degree_unit_is_refused_by_every_data_suite(sphere3):
    """An eta outside degree -|mu| is refused by the operator context of
    every data suite, also by those whose relations read no unit."""
    from cofrob.suites import DATA_SUITES
    assert len(DATA_SUITES) == 12
    top = sphere3.module.index["w"]
    bad = sphere3.replace(eta=Element.basis(sphere3.space, (top,)))
    for name, suite in DATA_SUITES.items():
        with pytest.raises(ValueError, match="homogeneity"):
            suite(bad)
