"""Perfectness, the structure transforms with their sign tables, algebraic
Poincare duality, pairing completion, and cyclic symmetry."""

from fractions import Fraction

import pytest

from cofrob import (Element, GradedMap, TensorSpace, compose, element_as_map, map_equal,
                    scalar_space, tensor_maps, twist,
                    check_cofrobenius, check_perfect, pairing_handle,
                    copairing_handle, dualize, shift_structure, rescale_signs,
                    transpose_structure, check_intertwines_product,
                    check_intertwines_coproduct, poincare_dual_structure,
                    check_poincare_duality, complete_from_pairing,
                    cyclic_triple_checks, sphere_cohomology, ShiftMaps)
from cofrob.structures import BialgebraData, sgn
from cofrob.tensor import apply_stage, dual_map, dual_module, DUAL_SUFFIX

from conftest import all_pass, no_failures, failing
from dual_reference import double_dual


def biunital_ok(data):
    return no_failures(check_cofrobenius(data, "biunital"))


# ------------------------------------------------------------- perfectness

def test_check_perfect_spheres(sphere2, sphere3):
    for data in (sphere2, sphere3):
        reports = check_perfect(pairing_handle(data), copairing_handle(data),
                                data.window)
        assert all_pass(reports)


def test_check_perfect_window(rab3, based3, circle_rab):
    for data in (rab3, based3, circle_rab):
        reports = check_perfect(pairing_handle(data), copairing_handle(data),
                                data.window)
        assert not failing(reports)


def test_vec_p_window_formula(rab3):
    # vec p(U^i) = -(AU^{-i-1})^v and vec p(AU^i) = -(U^{-i-1})^v
    handle = pairing_handle(rab3)
    dual = handle.vec_p.target.modules[0]
    for i in range(-3, 3):
        out = handle.vec_p((rab3.module.index[f"U^{i}"],))
        assert out == Element.basis(handle.vec_p.target,
                                    (dual.index[f"AU^{-i-1}" + DUAL_SUFFIX],)).scale(-1)
        out_a = handle.vec_p((rab3.module.index[f"AU^{i}"],))
        assert out_a == Element.basis(handle.vec_p.target,
                                      (dual.index[f"U^{-i-1}" + DUAL_SUFFIX],)).scale(-1)


def test_vec_p_based_formula(based3):
    handle = pairing_handle(based3)
    dual = handle.vec_p.target.modules[0]
    for i in range(-3, 3):
        out = handle.vec_p((based3.module.index[f"U^{i}"],))
        assert out == Element.basis(handle.vec_p.target,
                                    (dual.index[f"U^{-i-1}" + DUAL_SUFFIX],))


def test_degenerate_pairing_fails(sphere2):
    # zero one row of p by deleting eps: use a pairing with a dead row
    p = sphere2.pairing()
    entries = {s: dict(r) for s, r in p.entries.items()
               if s != (sphere2.module.index["w"], sphere2.module.index["1"])}
    p_bad = GradedMap(p.source, p.target, p.degree, entries)
    from cofrob.duality import vec_p_map, PairingHandle
    handle = PairingHandle(p_bad, vec_p_map(p_bad))
    reports = check_perfect(handle, copairing_handle(sphere2), None)
    assert any(r.verdict == "fail" and r.witness is not None for r in reports)


# -------------------------------------------------------------- transforms

def p_dual_element(data):
    """p^v as an element of A^v (x) A^v: sum (-1)^{|x||y|} p(x,y) x^v (x) y^v."""
    dmod = dual_module(data.module)
    sp = TensorSpace((dmod, dmod))
    p = data.pairing()
    coeffs = {}
    for (i, j), row in p.entries.items():
        v = row.get((), None)
        if v is None:
            continue
        s = sgn(data.module.degree(i) * data.module.degree(j))
        coeffs[(i, j)] = Fraction(s) * v
    return Element(sp, coeffs)


def c_dual_map(data):
    """c^v as a pairing on A^v: c^v(x^v (x) y^v) = (-1)^{|x||y|+|c|} c_{xy}."""
    dmod = dual_module(data.module)
    sp = TensorSpace((dmod, dmod))
    c = data.copairing()
    c_deg = data.lam.degree - data.mu.degree
    entries = {}
    for (i, j), v in c.coeffs.items():
        s = sgn(data.module.degree(i) * data.module.degree(j) + c_deg)
        entries[(i, j)] = {(): Fraction(s) * v}
    return GradedMap(sp, scalar_space(data.field), c_deg, entries)


@pytest.mark.parametrize("example", ["sphere2", "sphere3", "torus", "based3"])
def test_dualize_preserves_biunital_and_sign_table(example, request):
    data = request.getfixturevalue(example)
    dual = dualize(data)
    assert no_failures(check_cofrobenius(dual, "biunital"))
    # copairing of the dual is p^v, pairing of the dual is c^v
    assert dual.copairing() == p_dual_element(data)
    assert map_equal(dual.pairing(), c_dual_map(data))


def dual_eta(eps):
    """eps^v in A^v: the functional eps viewed as an element of the dual module."""
    a = eps.source.modules[0]
    dspace = TensorSpace((dual_module(a),))
    coeffs = {}
    for (i,), row in eps.entries.items():
        v = row.get((), None)
        if v is not None:
            coeffs[(i,)] = v
    return Element(dspace, coeffs)


def dual_eps(eta, eta_degree):
    """eta^v : A^v -> R, f |-> (-1)^{|f||eta|} f(eta); degree |eta|."""
    a = eta.space.modules[0]
    dspace = TensorSpace((dual_module(a),))
    field = a.field
    entries = {}
    for (i,), v in eta.coeffs.items():
        s = sgn((a.degree(i) % 2) * (eta_degree % 2))
        entries[(i,)] = {(): field.mul(field.coerce(s), v)}
    return GradedMap(dspace, scalar_space(field), eta_degree, entries)


def test_dual_map_of_maps_with_an_arity_zero_side(dual_examples):
    """R^v = R and the empty tuple has iota sign +1, so dual_map takes maps
    to or from the ground ring: eps^v is the dual's unit, eta^v its counit,
    the copairing's dual its pairing and the pairing's dual its copairing
    (the paper's copairing p^v and pairing c^v).  The unit and counit are
    compared with eps^v and eta^v built by hand from their definitions."""
    for name, data in dual_examples:
        dual = dualize(data)
        assert dual.eta == dual_eta(data.eps), name
        assert map_equal(dual_map(data.eps), element_as_map(dual.eta, data.eps.degree)), name
        assert map_equal(dual_map(data.eta_map()), dual_eps(data.eta, -data.mu.degree)), name
        assert map_equal(dual.eps, dual_eps(data.eta, -data.mu.degree)), name
        assert map_equal(dual_map(data.copairing_map()), dual.pairing()), name
        assert map_equal(dual_map(data.pairing()), dual.copairing_map()), name


def test_dualize_window_sign_table(rab3):
    dual = dualize(rab3)
    assert no_failures(check_cofrobenius(dual, "biunital"))
    assert dual.copairing() == p_dual_element(rab3)
    assert map_equal(dual.pairing(), c_dual_map(rab3))


def test_double_dual_recovers_original(sphere3, torus):
    for data in (sphere3, torus):
        dd_data = dualize(dualize(data))
        dd = double_dual(data.module)
        dd2 = tensor_maps(dd, dd)
        # mu^vv (dd (x) dd) = dd mu ; (dd (x) dd) lam ... = lam^vv dd
        assert map_equal(compose(dd_data.mu, dd2), compose(dd, data.mu))
        assert map_equal(compose(dd2, data.lam), compose(dd_data.lam, dd))
        assert dd_data.eta == dd(data.eta)
        assert map_equal(compose(dd_data.eps, dd), data.eps)


@pytest.mark.parametrize("example", ["sphere2", "sphere3", "rab3", "based3"])
def test_shift_preserves_biunital_and_sign_table(example, request):
    data = request.getfixturevalue(example)
    shifted = shift_structure(data)
    assert no_failures(check_cofrobenius(shifted, "biunital"))
    sh = ShiftMaps(data.module)
    l = data.lam.degree
    # c-bar = (-1)^l (s (x) s) c
    expected_c = apply_stage([sh.s, sh.s], data.copairing()).scale(sgn(l))
    assert shifted.copairing() == expected_c
    # p-bar = (-1)^{l+1} p (omega (x) omega)
    expected_p = compose(data.pairing(), tensor_maps(sh.omega, sh.omega)).scale(sgn(l + 1))
    assert map_equal(shifted.pairing(), expected_p)


def test_double_shift_then_checks(sphere3):
    twice = shift_structure(shift_structure(sphere3))
    assert no_failures(check_cofrobenius(twice, "biunital"))
    assert twice.mu.degree == 2 and twice.lam.degree == 1


@pytest.mark.parametrize("ml", [(0, 0), (1, 0), (0, 1), (1, 1)])
def test_rescale_signs(sphere2, ml):
    m, l = ml
    out = rescale_signs(sphere2, m, l)
    assert no_failures(check_cofrobenius(out, "biunital"))
    assert out.copairing() == sphere2.copairing().scale(sgn(m + l))
    assert map_equal(out.pairing(), sphere2.pairing().scale(sgn(m + l)))
    if ml == (0, 0):
        assert map_equal(out.mu, sphere2.mu) and map_equal(out.lam, sphere2.lam)


def test_rescale_involution(sphere2):
    again = rescale_signs(rescale_signs(sphere2, 1, 0), 1, 0)
    assert map_equal(again.mu, sphere2.mu)
    assert again.eta == sphere2.eta


@pytest.mark.parametrize("example", ["sphere2", "sphere3", "rab3", "based3"])
def test_transpose_structure(example, request):
    data = request.getfixturevalue(example)
    out = transpose_structure(data)
    assert no_failures(check_cofrobenius(out, "biunital"))
    tau = twist(data.module, data.module)
    l, m = data.lam.degree, data.mu.degree
    # derived pairing (-1)^l p tau, copairing (-1)^m tau c
    assert map_equal(out.pairing(), compose(data.pairing(), tau).scale(sgn(l)))
    assert out.copairing() == tau(data.copairing()).scale(sgn(m))


def test_transpose_of_commutative_is_rescale(sphere3):
    # mu tau = (-1)^m mu, tau lam = (-1)^l lam: transpose equals the rescale
    out = transpose_structure(sphere3)
    resc = rescale_signs(sphere3, sphere3.mu.degree, sphere3.lam.degree)
    assert map_equal(out.mu, resc.mu) and map_equal(out.lam, resc.lam)
    assert out.eta == resc.eta and map_equal(out.eps, resc.eps)


def test_transpose_twice_is_identity(sphere3, sphere2):
    # tau tau = 1 and (-1)^{2|mu|} = 1: applying the transpose twice gives
    # back the original structure on the nose
    for data in (sphere2, sphere3):
        out = transpose_structure(transpose_structure(data))
        assert map_equal(out.mu, data.mu) and map_equal(out.lam, data.lam)
        assert out.eta == data.eta and map_equal(out.eps, data.eps)


def test_transpose_refuses_non_cofrobenius(loop3):
    with pytest.raises(ValueError, match="transpose refused"):
        transpose_structure(loop3.replace(eps=None))


# ------------------------------------------------------------ intertwining

def test_identity_intertwines(sphere3):
    one = GradedMap.identity(sphere3.space)
    assert all_pass(check_intertwines_product(one, sphere3, sphere3))
    assert all_pass(check_intertwines_coproduct(one, sphere3, sphere3))


def appendix_shifted(data, sh):
    """The Appendix-convention shifted structure on A[1]:
    mu' = (-1)^{|mu|} s mu (s (x) s)^{-1}, lam' = (-1)^{|lam|} (s (x) s) lam s^{-1},
    for which s itself intertwines products and coproducts.  Note
    (s (x) s)^{-1} = -(omega (x) omega) by the tensor-composition sign rule.
    """
    inv2 = tensor_maps(sh.omega, sh.omega).scale(-1)
    mu_p = compose(sh.s, compose(data.mu, inv2)).scale(sgn(data.mu.degree))
    lam_p = compose(tensor_maps(sh.s, sh.s),
                    compose(data.lam, sh.omega)).scale(sgn(data.lam.degree))
    return BialgebraData(sh.shifted, mu_p, lam_p, None, None,
                         data.window.shifted() if data.window else None)


def test_shift_chain_intertwines_and_composes(sphere3):
    # s: A -> A[1] intertwines into the Appendix-convention structures, and
    # the composite A -> A[2] intertwines as well (composition closure)
    data0 = sphere3
    sh1 = ShiftMaps(data0.module)
    data1 = appendix_shifted(data0, sh1)
    sh2 = ShiftMaps(data1.module)
    data2 = appendix_shifted(data1, sh2)
    for phi, a, b in [(sh1.s, data0, data1), (sh2.s, data1, data2),
                      (compose(sh2.s, sh1.s), data0, data2)]:
        assert check_intertwines_product(phi, a, b)[0].verdict == "pass"
        assert check_intertwines_coproduct(phi, a, b)[0].verdict == "pass"


def test_standard_shift_does_not_intertwine(sphere3):
    # with the self-duality-compatible shift mu-bar = s mu (omega (x) omega),
    # s is NOT an intertwiner in the sense of the definition
    shifted = shift_structure(sphere3)
    sh = ShiftMaps(sphere3.module)
    rep = check_intertwines_product(sh.s, sphere3, shifted)[0]
    assert rep.verdict == "fail"


# -------------------------------------------------------- Poincare duality

@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_poincare_duality_spheres(n):
    reports = check_poincare_duality(sphere_cohomology(n))
    assert all_pass(reports)


def test_poincare_duality_window(rab3):
    assert not failing(check_poincare_duality(rab3))


def test_poincare_duality_circle(circle_rab):
    assert not failing(check_poincare_duality(circle_rab))


def test_poincare_duality_requires_cofrobenius(loop3):
    with pytest.raises(ValueError, match="poincare duality"):
        check_poincare_duality(loop3.replace(eps=None))


def test_poincare_duality_refuses_failing_cofrobenius(sphere3):
    # a unit and a counit, but (eps (x) 1) lam = 2
    bad = sphere3.replace(lam=sphere3.lam.scale(2))
    with pytest.raises(ValueError) as exc:
        check_poincare_duality(bad)
    assert str(exc.value) == ("poincare duality needs a biunital coFrobenius input; "
                              "fails counit-left")


def test_prechecks_name_the_failing_relation(sphere2, sphere3):
    with pytest.raises(ValueError) as exc:
        transpose_structure(sphere3.replace(lam=sphere3.lam.scale(2)))
    assert str(exc.value) == "transpose refused: input fails counit-left"
    with pytest.raises(ValueError) as exc:
        complete_from_pairing(sphere2.module, sphere2.mu.scale(2), sphere2.eta, sphere2.eps)
    assert str(exc.value) == ("input (mu, eta, eps) is not Frobenius-compatible: "
                              "fails unit-left")


def test_poincare_twice_recovers_original(sphere2, sphere3):
    # dualize-with-theorem-signs twice returns the original under the
    # canonical double dual, up to the uniform sign (-1)^{m+ml+l} coming
    # from mu'' = (-1)^{m+ml+l} mu^vv; the theorem's own identification
    # vec_p_B vec_p_A intertwines the structures exactly
    from cofrob import pairing_handle, check_intertwines_product, \
        check_intertwines_coproduct
    for data in (sphere2, sphere3):
        m, l = data.mu.degree, data.lam.degree
        s = sgn(m + m * l + l)
        once = poincare_dual_structure(data)
        assert no_failures(check_cofrobenius(once, "biunital"))
        twice = poincare_dual_structure(once)
        dd = double_dual(data.module)
        dd2 = tensor_maps(dd, dd)
        assert map_equal(compose(twice.mu, dd2), compose(dd, data.mu).scale(s))
        assert map_equal(compose(dd2, data.lam).scale(s), compose(twice.lam, dd))
        assert twice.eta == dd(data.eta).scale(s)
        assert map_equal(compose(twice.eps, dd), data.eps.scale(s))
        phi = compose(pairing_handle(once).vec_p, pairing_handle(data).vec_p)
        assert check_intertwines_product(phi, data, twice)[0].verdict == "pass"
        assert check_intertwines_coproduct(phi, data, twice)[0].verdict == "pass"


# --------------------------------------------------- completion and cyclic

def test_complete_from_pairing_sphere_oracle():
    # frozen oracle: invert the 2x2 pairing blocks by hand (see the
    # acceptance module for the independent derivation)
    s2 = sphere_cohomology(2)
    one, w = s2.module.index["1"], s2.module.index["w"]
    assert s2.copairing() == Element(s2.space2, {(one, w): 1, (w, one): 1})
    assert s2.lam((w,)) == Element.basis(s2.space2, (w, w))
    s3 = sphere_cohomology(3)
    one, w = s3.module.index["1"], s3.module.index["w"]
    assert s3.copairing() == Element(s3.space2, {(one, w): -1, (w, one): 1})


def test_complete_from_pairing_composes_eps_mu_once(monkeypatch):
    """`complete_from_pairing` on S^3 composes eps mu once: the biunital
    suite it runs reads the pairing from the context it is handed."""
    from cofrob import core, duality, structures
    data = sphere_cohomology(3)
    compositions = []

    def counting(f, g):
        compositions.append((f, g))
        return core.compose(f, g)

    for module in (duality, structures):
        monkeypatch.setattr(module, "compose", counting)
    complete_from_pairing(data.module, data.mu, data.eta, data.eps)
    assert sum(f is data.eps and g is data.mu for f, g in compositions) == 1


def test_complete_from_pairing_rejects_zero_eps(sphere2):
    zero_eps = GradedMap.zero(sphere2.space, scalar_space(sphere2.field),
                              sphere2.eps.degree)
    with pytest.raises(ValueError, match="not perfect"):
        complete_from_pairing(sphere2.module, sphere2.mu, sphere2.eta, zero_eps)


def test_complete_from_pairing_requires_degree_zero_mu(sphere2):
    shifted = shift_structure(sphere2)
    with pytest.raises(ValueError, match=r"\|mu\| = 0"):
        complete_from_pairing(shifted.module, shifted.mu, shifted.eta, shifted.eps)


def test_complete_from_pairing_idempotent(sphere2, torus):
    for data in (sphere2, torus):
        again = complete_from_pairing(data.module, data.mu, data.eta, data.eps)
        assert map_equal(again.lam, data.lam)
        assert again.copairing() == data.copairing()
        assert map_equal(again.pairing(), data.pairing())


def test_cyclic_checks(sphere2, sphere3, rab3):
    assert all_pass(cyclic_triple_checks(sphere2))
    reports = cyclic_triple_checks(sphere3)
    assert all_pass(reports)
    assert {r.name for r in reports} == {"beta-cyclic", "beta-tau12",
                                         "B-cyclic", "B-tau12"}
    assert not failing(cyclic_triple_checks(rab3))


def _doubled(f, side):
    """f with its first coefficient at an off-diagonal pair (a, b), a != b,
    of its source (side 0) or target (side 1) doubled."""
    entries = {src: dict(row) for src, row in f.entries.items()}
    src, dst = next((src, dst) for src, row in entries.items() for dst in row
                    if len(set((src, dst)[side])) == 2)
    entries[src][dst] *= 2
    return GradedMap(f.source, f.target, f.degree, entries)


def test_cyclic_reports_a_tau12_refinement_only_where_its_gate_passes(sphere3):
    """beta-tau12 is reported only where cocommutativity passes and B-tau12
    only where commutativity passes; neither gate is reported."""
    from cofrob.structures import run_entries, COPRODUCT_LAWS, PRODUCT_LAWS
    skew_lam = sphere3.replace(lam=_doubled(sphere3.lam, 1))
    skew_mu = sphere3.replace(mu=_doubled(sphere3.mu, 0))
    assert run_entries(skew_lam, COPRODUCT_LAWS)[1].failed
    assert run_entries(skew_mu, PRODUCT_LAWS)[1].failed
    for data, names in ((sphere3, ["beta-cyclic", "beta-tau12", "B-cyclic", "B-tau12"]),
                        (skew_lam, ["beta-cyclic", "B-cyclic", "B-tau12"]),
                        (skew_mu, ["beta-cyclic", "beta-tau12", "B-cyclic"])):
        assert [r.name for r in cyclic_triple_checks(data)] == names


def test_beta_tau12_sign_odd_lambda(sphere3):
    # tau_12 beta = -beta for odd |lam|: check the sign by direct expansion
    from cofrob.tensor import permute, Permutation
    from pipeline_reference import apply_pipeline
    c_map = sphere3.copairing_map()
    idm = GradedMap.identity(sphere3.space)
    beta = apply_pipeline([[c_map, c_map], [idm, sphere3.mu, idm]],
                          Element.basis(scalar_space(sphere3.field), ()))
    tau12 = permute(Permutation.transposition(3, 1, 2), sphere3.space3)
    assert tau12(beta) == beta.scale(-1)
    assert not beta.is_zero
