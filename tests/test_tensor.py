"""Koszul sign laws: twist, tensor, permutations, duals, iota, shifts."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cofrob import (make_module, TensorSpace, Element, GradedMap, PrimeField, QQ, compose,
                    map_equal, tensor_maps, twist, permute, Permutation,
                    dual_module, dual_map, ShiftMaps, shift_map, sphere_cohomology,
                    manifold_from_cup, torus_cup_data, s2xs2_cup_data,
                    rabinowitz_loop_sphere, circle_models, WindowSpec)

from dual_reference import (tensor_modules, raw_dual, iota, iota_inverse, flattener,
                            unflattener, double_dual)
from permute_reference import permute_reference


MOD = make_module([("x", -1), ("y", 0), ("z", 2)])
SP1 = TensorSpace((MOD,))


def sgn(e):
    return -1 if e % 2 else 1


@st.composite
def self_maps(draw, degrees=(-2, -1, 0, 1, 2)):
    """A sparse homogeneous self-map of MOD with small rational entries."""
    degree = draw(st.sampled_from(degrees))
    entries = {}
    for i in range(MOD.dim):
        row = {}
        for j in range(MOD.dim):
            if MOD.degree(j) != MOD.degree(i) + degree:
                continue
            coeff = draw(st.integers(min_value=-3, max_value=3))
            if coeff:
                row[(j,)] = Fraction(coeff)
        if row:
            entries[(i,)] = row
    return GradedMap(SP1, SP1, degree, entries)


@settings(max_examples=60, deadline=None)
@given(self_maps(), self_maps(), self_maps())
def test_compose_associative(f, g, h):
    assert map_equal(compose(h, compose(g, f)), compose(compose(h, g), f))


@settings(max_examples=60, deadline=None)
@given(self_maps(), self_maps(), self_maps(), self_maps())
def test_tensor_compose_sign_rule(f, g, fp, gp):
    # (f (x) g)(f' (x) g') = (-1)^{|g||f'|} (ff') (x) (gg')
    lhs = compose(tensor_maps(f, g), tensor_maps(fp, gp))
    rhs = tensor_maps(compose(f, fp), compose(g, gp)).scale(sgn(g.degree * fp.degree))
    assert map_equal(lhs, rhs)


@settings(max_examples=60, deadline=None)
@given(self_maps(), self_maps())
def test_dual_composition_sign(f, g):
    # (g f)^v = (-1)^{|f||g|} f^v g^v
    lhs = raw_dual(compose(g, f))
    rhs = compose(raw_dual(f), raw_dual(g)).scale(sgn(f.degree * g.degree))
    assert map_equal(lhs, rhs)


@settings(max_examples=40, deadline=None)
@given(self_maps())
def test_double_dual_is_canonical(f):
    # f^vv composed with the canonical iso A -> A^vv equals the iso after f
    dd = double_dual(MOD)
    assert map_equal(compose(raw_dual(raw_dual(f)), dd), compose(dd, f))


@settings(max_examples=40, deadline=None)
@given(self_maps(), self_maps())
def test_tensor_dual_compatible_with_iota(f, g):
    # (f (x) g)^v = f^v (x) g^v after precomposition with iota
    fg = tensor_maps(f, g)
    flat = compose(flattener(fg.target), compose(fg, unflattener(fg.source)))
    lhs = compose(raw_dual(flat), iota(fg.target))
    rhs = compose(iota(fg.source), tensor_maps(raw_dual(f), raw_dual(g)))
    assert map_equal(lhs, rhs)


PERMS3 = [Permutation(images) for images in
          [(1, 2, 3), (2, 1, 3), (1, 3, 2), (3, 2, 1), (2, 3, 1), (3, 1, 2)]]


@settings(max_examples=36, deadline=None)
@given(st.sampled_from(PERMS3), st.sampled_from(PERMS3))
def test_permutation_group_action(rho, sig):
    sp3 = TensorSpace((MOD, MOD, MOD))
    lhs = permute(rho * sig, sp3)
    # act with sig first, then rho
    rhs = compose(permute(rho, permute(sig, sp3).target), permute(sig, sp3))
    assert map_equal(lhs, rhs)


def test_twist_signs():
    a = make_module([("u", 1)])
    b = make_module([("v", 1), ("e", 0)])
    t = twist(a, b)
    sp = TensorSpace((a, b))
    uv = Element.basis(sp, (0, 0))
    ue = Element.basis(sp, (0, 1))
    assert t(uv) == Element.basis(t.target, (0, 0)).scale(-1)   # |u||v| odd
    assert t(ue) == Element.basis(t.target, (1, 0))             # even factor


def test_twist_involution():
    t1 = twist(MOD, MOD)
    assert map_equal(compose(t1, t1), GradedMap.identity(TensorSpace((MOD, MOD))))


@st.composite
def module_pairs(draw):
    """Two different modules over one of Q, F2 and F3, with random degrees
    (odd degrees included)."""
    field = draw(st.sampled_from([QQ, PrimeField(2), PrimeField(3)]))
    degrees = st.lists(st.integers(min_value=-3, max_value=3), max_size=5)
    a = make_module([(f"a{i}", d) for i, d in enumerate(draw(degrees))], field=field)
    b = make_module([(f"b{i}", d) for i, d in enumerate(draw(degrees))], field=field)
    return a, b


@settings(max_examples=100, deadline=None)
@given(module_pairs())
def test_twist_equals_the_general_permutation(pair):
    """The one-pass twist is the transposition `permute` builds, on A(x)B,
    B(x)A and A(x)A, entry order included."""
    a, b = pair
    for x, y in ((a, b), (b, a), (a, a)):
        t = twist(x, y)
        ref = permute(Permutation((2, 1)), TensorSpace((x, y)))
        assert (t.source, t.target, t.degree) == (ref.source, ref.target, ref.degree)
        assert list(t.entries.items()) == list(ref.entries.items())


@st.composite
def factor_spaces(draw):
    """A tensor space of arity 1-4 over one of Q, F2 and F3, its factors
    drawn from up to four modules, each with an odd degree among random
    ones, so that a module may stand in more than one slot."""
    field = draw(st.sampled_from([QQ, PrimeField(2), PrimeField(3)]))
    arity = draw(st.integers(min_value=1, max_value=4))
    degrees = st.lists(st.integers(min_value=-3, max_value=3), max_size=2)
    pool = []
    for k in range(draw(st.integers(min_value=1, max_value=arity))):
        odd = draw(st.sampled_from([-3, -1, 1, 3]))
        degs = draw(st.permutations([odd, *draw(degrees)]))
        pool.append(make_module([(f"m{k}_{i}", d) for i, d in enumerate(degs)], field=field))
    return TensorSpace(tuple(draw(st.sampled_from(pool)) for _ in range(arity)))


@settings(max_examples=100, deadline=None)
@given(factor_spaces())
def test_permute_equals_its_reference(space):
    """`permute` builds what the inversion-by-inversion reference builds for
    every permutation of the arity: the same entries, row order and key
    order."""
    for images in itertools.permutations(range(1, space.arity + 1)):
        rho = Permutation(images)
        got, ref = permute(rho, space), permute_reference(rho, space)
        assert (got.source, got.target, got.degree) == (ref.source, ref.target, ref.degree)
        assert [(src, list(row.items())) for src, row in got.entries.items()] == \
            [(src, list(row.items())) for src, row in ref.entries.items()]


def test_twist_refuses_modules_over_different_fields():
    f3 = make_module([("u", 1)], field=PrimeField(3))
    with pytest.raises(ValueError, match="different fields"):
        twist(MOD, f3)


def test_sigma_action_formula():
    # sigma(a (x) b (x) c) = (-1)^{(|a|+|b|)|c|} c (x) a (x) b
    sp3 = TensorSpace((MOD, MOD, MOD))
    sig = permute(Permutation.cycle(3, [1, 2, 3]), sp3)
    a, b, c = 0, 1, 2  # degrees -1, 0, 2
    out = sig(Element.basis(sp3, (a, b, c)))
    assert out == Element.basis(sig.target, (c, a, b))  # (|a|+|b|)|c| even
    out2 = sig(Element.basis(sp3, (a, b, a)))
    assert out2 == Element.basis(sig.target, (a, a, b)).scale(-1)  # (-1+0)*(-1) odd


def test_perm_relations_sigma_tau():
    sp3 = TensorSpace((MOD, MOD, MOD))
    sig = permute(Permutation.cycle(3, [1, 2, 3]), sp3)
    t12 = Permutation.transposition(3, 1, 2)
    t23 = Permutation.transposition(3, 2, 3)
    assert Permutation.cycle(3, [1, 2, 3]) == t12 * t23
    sig2 = permute(Permutation.cycle(3, [1, 2, 3]) * Permutation.cycle(3, [1, 2, 3]), sp3)
    rhs = compose(permute(t23, permute(t12, sp3).target), permute(t12, sp3))
    assert map_equal(sig2, rhs)  # sigma^2 = tau_23 tau_12


def test_identity_permutation():
    sp3 = TensorSpace((MOD, MOD, MOD))
    assert map_equal(permute(Permutation.identity(3), sp3), GradedMap.identity(sp3))


def test_permute_arity_mismatch():
    with pytest.raises(ValueError, match="arity"):
        permute(Permutation.identity(2), TensorSpace((MOD, MOD, MOD)))


def test_tensor_modules_dims():
    a = make_module([("p", 0)])
    b = make_module([("q", 2)])
    ab = tensor_modules(a, b)
    assert ab.dim == 1 and ab.degrees == (2,)
    s2 = make_module([("1", 0), ("w", 2)])
    t = tensor_modules(s2, s2)
    dims = {d: len(t.basis_at(d)) for d in range(5)}
    assert dims == {0: 1, 1: 0, 2: 2, 3: 0, 4: 1}
    unit = make_module([("r", 0)])
    assert tensor_modules(s2, unit).degrees == s2.degrees


def test_dual_module_degrees():
    d = dual_module(MOD)
    assert d.degrees == (1, 0, -2)
    assert map_equal(raw_dual(GradedMap.identity(SP1)),
                     GradedMap.identity(TensorSpace((d,))))


def test_a_module_keeps_one_dual_with_no_reference_back():
    """dual_module returns the one dual a module object keeps, shared by
    the spaces dual_map builds; the dual holds no reference back, so the
    module is freed while its dual lives on, and the dual is freed with the
    module, both without the cycle collector."""
    import weakref
    data = sphere_cohomology(2)
    dual = dual_module(data.module)
    assert dual_module(data.module) is dual
    assert all(m is dual for f in (data.mu, data.lam)
               for m in (*dual_map(f).source.modules, *dual_map(f).target.modules))
    a = make_module([("x", 1), ("y", 2)])
    kept, gone = dual_module(a), weakref.ref(a)
    del a
    assert gone() is None and kept.labels == ("x'", "y'")
    b = make_module([("x", 1)])
    gone = weakref.ref(dual_module(b))
    del b
    assert gone() is None


def test_dual_map_builds_one_dual_module_per_distinct_factor(monkeypatch):
    """Each dual_map call on the maps of H*(S^2) builds A^v once, for both
    sides together, and the sides share it."""
    from cofrob import tensor
    calls = []
    monkeypatch.setattr(tensor, "dual_module", lambda a: calls.append(a) or dual_module(a))
    data = sphere_cohomology(2)
    for f in (data.mu, data.lam, data.eps, data.eta_map()):
        calls.clear()
        fv = dual_map(f)
        assert calls == [data.module]
        (dmod,) = {*fv.source.modules, *fv.target.modules}
        assert dmod == dual_module(data.module)


def test_iota_is_isomorphism_on_sphere_pair():
    s2 = make_module([("1", 0), ("w", 2)])
    sp = TensorSpace((s2, s2))
    i = iota(sp)
    assert sum(len(r) for r in i.entries.values()) == 4  # full rank: 4 diagonal entries
    assert map_equal(compose(iota_inverse(sp), i), GradedMap.identity(i.source))


def test_iota_evaluation_example():
    # iota(1^v (x) w^v) kills w (x) 1 and sends 1 (x) w to 1 (|w| even)
    s2 = make_module([("1", 0), ("w", 2)])
    sp = TensorSpace((s2, s2))
    i = iota(sp)
    img = i(Element.basis(i.source, (0, 1)))
    flat = i.target.modules[0]
    assert img == Element.basis(i.target, (flat.index["1(x)w'"],))


def test_iota_twist_compatibility():
    # iota tau = tau^v iota
    sp = TensorSpace((MOD, MOD))
    dsp = TensorSpace((dual_module(MOD), dual_module(MOD)))
    tau_dual = twist(dual_module(MOD), dual_module(MOD))
    tau = twist(MOD, MOD)
    tau_flat = compose(flattener(tau.target), compose(tau, unflattener(sp)))
    lhs = compose(iota(sp), tau_dual)
    rhs = compose(raw_dual(tau_flat), iota(sp))
    assert map_equal(lhs, rhs)


def test_shift_maps_inverse():
    sh = ShiftMaps(MOD)
    assert map_equal(compose(sh.omega, sh.s), GradedMap.identity(SP1))
    assert map_equal(compose(sh.s, sh.omega), GradedMap.identity(TensorSpace((sh.shifted,))))
    assert sh.s.degree == -1 and sh.omega.degree == 1


def test_shift_of_identity():
    sh = ShiftMaps(MOD)
    assert map_equal(shift_map(GradedMap.identity(SP1), sh),
                     GradedMap.identity(TensorSpace((sh.shifted,))))


def test_tensor_s_s_sign():
    # (s (x) s)(a (x) b) = (-1)^{|a|} s(a) (x) s(b)
    sh = ShiftMaps(MOD)
    ss = tensor_maps(sh.s, sh.s)
    src = TensorSpace((MOD, MOD))
    for i in range(MOD.dim):
        for j in range(MOD.dim):
            out = ss(Element.basis(src, (i, j)))
            expected = Element.basis(ss.target, (i, j)).scale(sgn(MOD.degree(i)))
            assert out == expected


def test_shift_unit_and_counit_formulas(sphere3):
    # unit of the shifted product is (-1)^{|mu|} s(eta); counit is (-1)^{|lam|} eps omega
    from cofrob import shift_structure
    sh = ShiftMaps(sphere3.module)
    shifted = shift_structure(sphere3)
    assert shifted.eta == sh.s(sphere3.eta).scale(sgn(sphere3.mu.degree))
    assert map_equal(shifted.eps,
                     compose(sphere3.eps, sh.omega).scale(sgn(sphere3.lam.degree)))


def test_dual_of_shift_maps():
    # s^v acts like omega (degree -1, reindexing down) and omega^v like s
    # (degree +1) under A[1]^v = A^v[-1]; they compose to -1 because
    # (omega s)^v = (-1)^{|s||omega|} s^v omega^v and omega s = 1.
    sh = ShiftMaps(MOD)
    sv = raw_dual(sh.s)      # dual(A[1]) -> dual(A), degree -1
    wv = raw_dual(sh.omega)  # dual(A) -> dual(A[1]), degree +1
    assert sv.degree == -1 and wv.degree == 1
    minus_dual = GradedMap.identity(wv.source).scale(-1)
    minus_shifted = GradedMap.identity(sv.source).scale(-1)
    assert map_equal(compose(sv, wv), minus_dual)
    assert map_equal(compose(wv, sv), minus_shifted)
    # per generator: s^v((s.a)^v) = (-1)^{|a|+1} a^v, omega^v(a^v) = (-1)^{|a|} (s.a)^v
    for i in range(MOD.dim):
        deg = MOD.degree(i)
        assert sv.entries[(i,)] == {(i,): Fraction(sgn(deg + 1))}
        assert wv.entries[(i,)] == {(i,): Fraction(sgn(deg))}


@pytest.mark.parametrize("which", ["mu", "lam"])
def test_shift_dual_interaction(sphere3, which):
    # mu-bar^v = (-1)^{|mu|} (mu^v)-bar and lam-bar^v = (-1)^{|lam|} (lam^v)-bar,
    # with the right-hand shift built from s^v and omega^v on A[1]^v = A^v[-1]
    data = sphere3
    sh = ShiftMaps(data.module)
    sv = raw_dual(sh.s)
    wv = raw_dual(sh.omega)
    if which == "mu":
        lhs = dual_map(shift_map(data.mu, sh))          # A[1]^v -> A[1]^v (x) A[1]^v
        inner = dual_map(data.mu)                        # A^v -> A^v (x) A^v
        rhs = compose(tensor_maps(wv, wv), compose(inner, sv)).scale(sgn(data.mu.degree))
    else:
        lhs = dual_map(shift_map(data.lam, sh))
        inner = dual_map(data.lam)
        rhs = compose(wv, compose(inner, tensor_maps(sv, sv))).scale(sgn(data.lam.degree))
    assert map_equal(lhs, rhs)


def _dual_via_iota(f):
    """The dual of f: X_1 (x) ... (x) X_k -> Y_1 (x) ... (x) Y_l composed as
    iota_X^{-1} o (flat f)^v o iota_Y from the validating flattening, raw
    dual and iota maps: the reference for `dual_map`'s one-pass sign rule.
    A side of arity 0 cannot be flattened."""
    g = f
    if f.source.arity != 1:
        g = compose(g, unflattener(f.source))
    if f.target.arity != 1:
        g = compose(flattener(f.target), g)
    d = raw_dual(g)
    if f.target.arity != 1:
        d = compose(d, iota(f.target))
    if f.source.arity != 1:
        d = compose(iota_inverse(f.source), d)
    return d


def _dual_via_iota_where_defined(f):
    """The iota route for maps between nonzero tensor powers; `dual_map`
    for a unit or counit, which the route cannot flatten (those are
    checked against eps^v and eta^v built by hand in test_duality.py)."""
    return _dual_via_iota(f) if f.source.arity and f.target.arity else dual_map(f)


def test_dualize_and_poincare_dual_match_the_iota_route(monkeypatch, dual_examples):
    """On every example and its shifts, `dualize` and the sign-twisted
    `poincare_dual_structure` build the same structure maps as with every
    dual between nonzero tensor powers routed through iota."""
    from cofrob import duality
    for name, data in dual_examples:
        built = [duality.dualize(data), duality.poincare_dual_structure(data)]
        with monkeypatch.context() as patch:
            patch.setattr(duality, "dual_map", _dual_via_iota_where_defined)
            routed = [duality.dualize(data), duality.poincare_dual_structure(data)]
        for got, want in zip(built, routed):
            assert map_equal(got.mu, want.mu) and map_equal(got.lam, want.lam), name
            assert got.eta == want.eta and map_equal(got.eps, want.eps), name


# Accepts every input and masks nothing, so the suites report what they
# report without a window; but only a windowed check runs stage plans (an
# unwindowed one composes each side into one map).
OPEN_WINDOW = WindowSpec(1, 0, {})


def _windowed(data):
    """`data` checked through stage plans: under OPEN_WINDOW if it has no window."""
    return data if data.window is not None else data.replace(window=OPEN_WINDOW)


def _recorded_plans(monkeypatch, structures):
    """Every stage plan the built-in data suites compile, with the
    coefficient dicts the relation pipelines ran it on (each structure
    without a window is checked under OPEN_WINDOW)."""
    from cofrob.tensor import StagePlan
    from cofrob.suites import DATA_SUITES
    original = StagePlan.run
    seen = {}

    def record(plan, coeffs, out=None):
        seen.setdefault(id(plan), (plan, []))[1].append(dict(coeffs))
        return original(plan, coeffs, out)

    with monkeypatch.context() as patch:
        patch.setattr(StagePlan, "run", record)
        for data in structures:
            for suite in DATA_SUITES.values():
                suite(_windowed(data))
    return list(seen.values())


def test_apply_stage_output_passes_full_validation(monkeypatch):
    """The stage kernel (`StagePlan.run`, behind `apply_stage`) skips
    Element validation; on every basis input of every plan the built-in
    relation pipelines compile, and on the coefficient dicts those
    pipelines ran it on, its result is exactly what the validating
    constructor builds and holds no zero coefficient."""
    from cofrob import (PrimeField, sphere_cohomology, manifold_from_cup,
                        torus_cup_data)
    torus = torus_cup_data()
    torus.field = PrimeField(3)
    plans = _recorded_plans(monkeypatch, [sphere_cohomology(3),
                                          manifold_from_cup(torus)])
    assert len(plans) > 100
    for plan, fed in plans:
        field = plan.source.field
        basis = [{idx: field.one} for idx in plan.source.basis()]
        for coeffs in basis + fed:
            result = plan.run(coeffs)
            assert result == Element(plan.space, result).coeffs
            assert not any(field.is_zero(v) for v in result.values())
            assert all(type(v) is int or v.denominator != 1
                       for v in result.values())


def test_apply_stage_rejects_a_stage_that_does_not_cover_the_input(sphere2):
    """A stage must read exactly the element's factors: id_A on A (x) A
    would drop a factor, and mu on A would read past the last one."""
    from cofrob.tensor import apply_stage
    ident = GradedMap.identity(sphere2.space)
    one_w = Element.from_labels(sphere2.space2, [(1, ("1", "w"))])
    with pytest.raises(ValueError, match="apply_stage"):
        apply_stage([ident], one_w)
    with pytest.raises(ValueError, match="apply_stage"):
        apply_stage([sphere2.mu], Element.from_labels(sphere2.space, [(1, ("w",))]))
    assert apply_stage([ident, ident], one_w) == one_w
    assert apply_stage([sphere2.mu], one_w) == Element.from_labels(sphere2.space, [(1, ("w",))])


def _linked_pairs(monkeypatch, data):
    """Every (plan, consumer, unlinked plan, fed) the data suites compile
    for `data` (under OPEN_WINDOW if it has none): each plan linked to the
    next plan of its term, the same stage compiled without a consumer, and
    the coefficient dicts the relation pipelines fed the plan."""
    from cofrob import reports
    from cofrob.tensor import StagePlan
    from cofrob.suites import DATA_SUITES
    term_init, run = reports._Term.__init__, StagePlan.run
    terms_seen, fed = [], {}
    data = _windowed(data)

    def record_term(term, stages, source):
        term_init(term, stages, source)
        terms_seen.append((stages, term.plans))

    def record_run(plan, coeffs, out=None):
        fed.setdefault(id(plan), []).append(dict(coeffs))
        return run(plan, coeffs, out)

    with monkeypatch.context() as patch:
        patch.setattr(reports._Term, "__init__", record_term)
        patch.setattr(StagePlan, "run", record_run)
        for name, suite in DATA_SUITES.items():
            try:
                suite(data)
            except ValueError:      # poincare-duality refuses data without eps
                assert name == "poincare-duality" and data.eps is None
    return [(plan, consumer, StagePlan(stages[i], plan.source), fed.get(id(plan), []))
            for stages, plans in terms_seen
            for i, (plan, consumer) in enumerate(zip(plans, plans[1:]))]


def _manifold_over(cup_data, p):
    cup = cup_data()
    cup.field = PrimeField(p)
    return manifold_from_cup(cup)


@pytest.mark.parametrize("build", [
    lambda: sphere_cohomology(3),
    lambda: _manifold_over(torus_cup_data, 3),
    lambda: _manifold_over(s2xs2_cup_data, 2),
    lambda: rabinowitz_loop_sphere(3, 4),
    lambda: circle_models(4, flavor="loop"),
], ids=["S3-Q", "T2-F3", "S2xS2-F2", "rabinowitz-S3-N4", "circle-loop-N4"])
def test_consumer_pruning_keeps_what_the_consumer_computes(monkeypatch, build):
    """A plan linked to its consumer drops only keys the consumer would
    skip: on every input the suites fed it, its output is a sub-dict of the
    unlinked plan's output and the consumer computes the same from both.
    Each structure has a plan that prunes something."""
    pairs = _linked_pairs(monkeypatch, build())
    dropped = 0
    for plan, consumer, unlinked, fed in pairs:
        for coeffs in fed:
            pruned, full = plan.run(coeffs), unlinked.run(coeffs)
            assert pruned.items() <= full.items()
            assert consumer.run(pruned) == consumer.run(full)
            dropped += len(full) - len(pruned)
    assert dropped > 0


F3_MOD = make_module([("a", -1), ("b", 0), ("c", 1)], field=PrimeField(3))


@st.composite
def f3_maps(draw, k, t, degrees=(-1, 0, 1), module=F3_MOD):
    """A sparse homogeneous map module^k -> module^t of a degree in `degrees`
    (F3_MOD unless another module is given)."""
    source = TensorSpace((module,) * k, field=module.field)
    target = TensorSpace((module,) * t, field=module.field)
    degree = draw(st.sampled_from(degrees))
    entries = {}
    for src in source.basis():
        row = {dst: v for dst in target.basis()
               if target.degree(dst) == source.degree(src) + degree
               and (v := draw(st.sampled_from((0, 0, 1, 2))))}
        if row:
            entries[src] = row
    return GradedMap(source, target, degree, entries)


@st.composite
def linked_stages(draw):
    """A stage of two or three sparse maps, the stage that reads its output,
    and a coefficient dict of its source.  The reading maps take 1 to 3
    factors each, so their inputs may straddle two maps' outputs."""
    shapes = draw(st.lists(st.sampled_from([(1, 1), (1, 2), (2, 1), (2, 2), (1, 0)]),
                           min_size=2, max_size=3)
                  .filter(lambda s: 2 <= sum(t for _, t in s) <= 4))
    producer = [draw(f3_maps(k, t)) for k, t in shapes]
    width, consumer = sum(t for _, t in shapes), []
    while width:
        k = draw(st.integers(min_value=1, max_value=min(3, width)))
        consumer.append(draw(f3_maps(k, draw(st.integers(min_value=0, max_value=1)))))
        width -= k
    source = TensorSpace((F3_MOD,) * sum(k for k, _ in shapes))
    coeffs = {idx: v for idx in source.basis()
              if (v := draw(st.sampled_from((0, 0, 0, 1, 2))))}
    return producer, consumer, source, coeffs


@settings(max_examples=80, deadline=None)
@given(linked_stages())
def test_linked_plan_drops_exactly_the_keys_its_consumer_skips(stages):
    """Over F3, with odd-degree maps: a plan fed to its consumer returns the
    unlinked plan's output restricted to the keys every consumer map has a
    row for, and the consumer computes the same from both."""
    from cofrob.tensor import StagePlan
    producer, consumer, source, coeffs = stages
    plan = StagePlan(producer, source)
    reader = StagePlan(consumer, plan.space)
    plan.feed(reader)
    pruned = plan.run(coeffs)
    full = StagePlan(producer, source).run(coeffs)
    assert pruned == {key: v for key, v in full.items()
                      if all(key[a:b] in entries for a, b, entries in reader.groups)}
    assert reader.run(pruned) == reader.run(full)


KERNEL_FIELDS = (QQ, PrimeField(2), PrimeField(3))


@st.composite
def kernel_maps(draw, module, k):
    """A map a stage reads from k factors of `module`: a nonzero sparse one
    of degree -1, 0 or 1 into 0 to 2 factors, the identity, the identity's
    entries built by the validating constructor (no identity flag, so the
    stage reads it by lookup), or a near-identity (the identity with one
    row missing or one coefficient 2, or the degree-0 swap `twist` on
    module (x) module)."""
    space = TensorSpace((module,) * k, field=module.field)
    kind = draw(st.sampled_from(("sparse", "sparse", "identity", "identity by constructor",
                                 "row missing", "coefficient 2")
                                + (("twist",) if k == 2 else ())))
    if kind == "sparse":
        t = draw(st.integers(min_value=0, max_value=2))
        return draw(f3_maps(k, t, module=module).filter(lambda f: f.entries))
    if kind == "identity":
        return GradedMap.identity(space)
    if kind == "twist":
        return twist(module, module)
    entries = {src: dict(row) for src, row in GradedMap.identity(space).entries.items()}
    if kind == "identity by constructor":
        return GradedMap(space, space, 0, entries)
    src = draw(st.sampled_from(sorted(entries)))
    if kind == "row missing":
        del entries[src]
    else:
        entries[src] = {src: 2}
    return GradedMap(space, space, 0, entries)


@st.composite
def kernel_stages(draw):
    """Over Q, F2 or F3: a stage of two to four maps reading at most four
    factors, one of them the identity on R, on A or on A (x) A at any
    position among sparse maps, identities and near-identities; the stage
    that reads its output, whose maps read one or two factors each, with at
    times a map on R among them (the identity, twice it, the zero map or a
    sparse map out of R); and a coefficient dict of its source.  A has two
    basis elements of one degree, so rows with several entries are common."""
    field = draw(st.sampled_from(KERNEL_FIELDS))
    module = make_module([("a", 0), ("b", 1), ("c", 1)], field=field)
    arities = draw(st.lists(st.integers(min_value=0, max_value=2), min_size=1, max_size=3)
                   .filter(lambda ks: sum(ks) <= 4))
    maps = [draw(kernel_maps(module, k)) for k in arities]
    k = draw(st.integers(min_value=0, max_value=min(2, 4 - sum(arities))))
    maps.insert(draw(st.integers(min_value=0, max_value=len(maps))),
                GradedMap.identity(TensorSpace((module,) * k, field=field)))
    width, consumer = sum(f.target.arity for f in maps), []
    while width:
        k = draw(st.integers(min_value=1, max_value=min(2, width)))
        consumer.append(draw(kernel_maps(module, k)))
        width -= k
    if draw(st.booleans()):
        consumer.insert(draw(st.integers(min_value=0, max_value=len(consumer))),
                        draw(kernel_maps(module, 0)))
    source = TensorSpace(tuple(m for f in maps for m in f.source.modules), field=field)
    coeffs = {idx: v for idx in source.basis()
              if not field.is_zero(v := field.coerce(draw(st.sampled_from((0, 1, 2, -1)))))}
    return maps, consumer, source, coeffs


@settings(max_examples=100, deadline=None)
@given(kernel_stages())
def test_stage_plan_applies_the_tensor_of_its_maps(stages):
    """The stage kernel, with its identity pass-through, single-entry
    folding and parity-table signs, computes what the materialized tensor
    of the stage's maps computes; linked to the stage that reads its
    output, it returns that result restricted to the keys every map of the
    reader has a row for."""
    from cofrob.tensor import StagePlan, tensor_many
    maps, consumer, source, coeffs = stages
    expected = tensor_many(maps)(Element(source, coeffs)).coeffs
    plan = StagePlan(maps, source)
    assert plan.run(coeffs) == expected
    reader = StagePlan(consumer, plan.space)
    plan.feed(reader)
    assert plan.run(coeffs) == {key: v for key, v in expected.items()
                                if all(key[a:b] in entries for a, b, entries in reader.groups)}


@pytest.mark.parametrize("k", [0, 1, 2])
def test_only_the_identity_constructor_sets_the_identity_flag(k):
    """`GradedMap.identity` flags the map it returns; a map with the same
    entries built any other way reads False, so a stage reads it by lookup."""
    space = TensorSpace((MOD,) * k)
    idm = GradedMap.identity(space)
    assert idm.is_identity is True
    others = {"validating constructor": GradedMap(space, space, 0, idm.entries),
              "compose": compose(idm, idm),
              "scale by one": idm.scale(1)}
    for name, f in others.items():
        assert f.entries == idm.entries, name
        assert f.is_identity is False, name
    assert GradedMap.is_identity is False


def test_a_plan_fed_to_a_zero_map_on_r_keeps_nothing():
    """The zero map R -> R has no row for the empty key, so the plan that
    feeds it, here the identity on R, keeps no key."""
    from cofrob import scalar_space
    from cofrob.tensor import StagePlan
    r = scalar_space(QQ)
    plan = StagePlan([GradedMap.identity(r)], r)
    plan.feed(StagePlan([GradedMap(r, r, 0, {})], r))
    assert plan.run({(): 1}) == {}
    assert plan.run({(): 1}, {(): 5}) == {(): 5}


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=1, max_value=3), st.integers(min_value=1, max_value=3),
       st.data())
def test_dual_map_matches_the_iota_route(k, t, data):
    """Over F3, on sparse homogeneous maps F3_MOD^k -> F3_MOD^t of degree
    -2 to 2 (odd degrees bring in the |f||b| sign, odd factors the iota
    signs): the one-pass dual equals the iota-routed composite in source,
    target, degree and entries, and is what the validating constructor
    builds."""
    f = data.draw(f3_maps(k, t, degrees=(-2, -1, 0, 1, 2)))
    dual = dual_map(f)
    assert map_equal(dual, _dual_via_iota(f))
    assert dual == GradedMap(dual.source, dual.target, dual.degree, dual.entries)
