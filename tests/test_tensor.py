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
# report without a window; but only a windowed check runs term kernels (an
# unwindowed one composes each side into one map).
OPEN_WINDOW = WindowSpec(1, 0, {})


def _windowed(data):
    """`data` checked through term kernels: under OPEN_WINDOW if it has no window."""
    return data if data.window is not None else data.replace(window=OPEN_WINDOW)


def _recorded_terms(monkeypatch, structures):
    """Every term the built-in data suites compile for `structures` (each
    one without a window checked under OPEN_WINDOW): its stages, source,
    output space and kernel, and the (input, coefficient) pairs the
    relation walk called the kernel with."""
    from cofrob import reports
    from cofrob.suites import DATA_SUITES
    init = reports._Term.__init__
    terms = []

    def record(term, stages, source, tables):
        init(term, stages, source, tables)
        kernel, calls = term.kernel, []

        def recording(idx, v, out):
            calls.append((idx, v))
            kernel(idx, v, out)
        term.kernel = recording
        terms.append((stages, source, term.space, kernel, calls))

    with monkeypatch.context() as patch:
        patch.setattr(reports._Term, "__init__", record)
        for data in structures:
            for name, suite in DATA_SUITES.items():
                try:
                    suite(_windowed(data))
                except ValueError:      # poincare-duality refuses data without eps
                    assert name == "poincare-duality" and data.eps is None
    return terms


def test_term_kernel_output_passes_full_validation(monkeypatch):
    """The term kernels (behind the window walk) skip Element validation;
    on every basis input of every term the built-in relation pipelines
    compile, on the inputs the walk called it with, and summed over those
    inputs as a side sums them, a kernel's result is exactly what the
    validating constructor builds and holds no zero coefficient.  So is
    the result of the kernel of each term's first stage alone."""
    from cofrob import (PrimeField, sphere_cohomology, manifold_from_cup,
                        torus_cup_data)
    from cofrob.tensor import term_kernel
    torus = torus_cup_data()
    torus.field = PrimeField(3)
    terms = _recorded_terms(monkeypatch, [sphere_cohomology(3), manifold_from_cup(torus)])
    assert len(terms) > 100
    for stages, source, space, kernel, calls in terms:
        field = source.field
        results, summed = [], {}
        for idx, v in [(idx, field.one) for idx in source.basis()] + calls:
            results.append((space, {}))
            kernel(idx, v, results[-1][1])
            kernel(idx, v, summed)
        results.append((space, summed))
        if stages:
            results.append((term_kernel(stages[:1], source)[1],
                            _fused(stages[:1], source, {idx: field.one})))
        for space_out, result in results:
            assert result == Element(space_out, result).coeffs
            assert not any(field.is_zero(v) for v in result.values())
            assert all(type(v) is int or v.denominator != 1
                       for v in result.values())


def test_term_kernel_rejects_a_stage_that_does_not_cover_the_input(sphere2):
    """A stage must read exactly its source's factors: id_A on A (x) A
    would drop a factor, and mu on A would read past the last one.  The
    message keeps its "apply_stage:" prefix, which the CLI prints."""
    from cofrob.tensor import term_kernel
    ident = GradedMap.identity(sphere2.space)
    one_w = Element.from_labels(sphere2.space2, [(1, ("1", "w"))])
    with pytest.raises(ValueError, match="apply_stage"):
        term_kernel([[ident]], sphere2.space2)
    with pytest.raises(ValueError, match="apply_stage"):
        term_kernel([[sphere2.mu]], sphere2.space)
    for stage, expected in (([ident, ident], one_w),
                            ([sphere2.mu], Element.from_labels(sphere2.space, [(1, ("w",))]))):
        space = term_kernel([stage], sphere2.space2)[1]
        assert Element(space, _fused([stage], sphere2.space2, one_w.coeffs)) == expected


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
def test_each_term_kernel_matches_the_reference_pipeline(monkeypatch, build):
    """On every term the data suites compile (under OPEN_WINDOW where the
    structure has no window), the term's kernel gives, on every basis input
    of its source, what its stages applied one by one give
    (`pipeline_reference`).  Each structure has a term whose
    second stage has no row for a key its first stage gives, so the
    kernels' early row lookups skip a path."""
    from pipeline_reference import apply_pipeline
    skips = False
    for stages, source, space, kernel, _ in _recorded_terms(monkeypatch, [build()]):
        for idx in source.basis():
            value = {}
            kernel(idx, source.field.one, value)
            x = Element.basis(source, idx)
            assert Element(space, value) == apply_pipeline(stages, x), (stages, idx)
            if len(stages) > 1 and not skips:
                first = apply_pipeline(stages[:1], x)
                skips = any(key[a:b] not in entries for key in first.coeffs
                            for a, b, entries in _groups(stages[1]))
    assert skips


def _groups(maps):
    """(first factor, end factor, entries) of each map of a stage: the
    factors of the stage's input that it reads, and its rows."""
    groups, pos = [], 0
    for f in maps:
        groups.append((pos, pos + f.source.arity, f.entries))
        pos += f.source.arity
    return groups


def _fused(stages, source, coeffs):
    """The pipeline `stages` applied to the coefficient dict `coeffs` of
    `source` through its kernel (`term_kernel`)."""
    from cofrob.tensor import term_kernel
    out, (kernel, _) = {}, term_kernel(stages, source)
    for idx, v in coeffs.items():
        kernel(idx, v, out)
    return out


F3_MOD = make_module([("a", -1), ("b", 0), ("c", 1)], field=PrimeField(3))


@st.composite
def f3_maps(draw, k, t, degrees=(-1, 0, 1), module=F3_MOD, values=(0, 0, 1, 2)):
    """A sparse homogeneous map module^k -> module^t of a degree in `degrees`
    (F3_MOD unless another module is given), its entries drawn from
    `values`."""
    source = TensorSpace((module,) * k, field=module.field)
    target = TensorSpace((module,) * t, field=module.field)
    degree = draw(st.sampled_from(degrees))
    entries = {}
    for src in source.basis():
        row = {dst: v for dst in target.basis()
               if target.degree(dst) == source.degree(src) + degree
               and (v := draw(st.sampled_from(values)))}
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
    """Over F3, with odd-degree maps: the kernel fused from a stage and the
    stage that reads its output, whose row lookups skip each key of the
    first stage that a map of the second has no row for, computes what
    the second stage computes from the first stage's whole output, which
    is what it computes from that output restricted to the keys every map
    of the second stage has a row for."""
    from cofrob.tensor import term_kernel
    producer, consumer, source, coeffs = stages
    _, middle = term_kernel([producer], source)
    full = _fused([producer], source, coeffs)
    kept = {key: v for key, v in full.items()
            if all(key[a:b] in entries for a, b, entries in _groups(consumer))}
    assert _fused([producer, consumer], source, coeffs) == _fused(
        [consumer], middle, full) == _fused([consumer], middle, kept)


KERNEL_FIELDS = (QQ, PrimeField(2), PrimeField(3))


@st.composite
def kernel_maps(draw, module, k, values=(0, 0, 1, 2)):
    """A map a stage reads from k factors of `module`: a nonzero sparse one
    of degree -1, 0 or 1 into 0 to 2 factors, its entries drawn from
    `values`, the identity, the identity's entries built by the validating
    constructor (no identity flag, so the stage reads it by lookup), or a
    near-identity (the identity with one row missing or one coefficient 2,
    or the degree-0 swap `twist` on module (x) module)."""
    space = TensorSpace((module,) * k, field=module.field)
    kind = draw(st.sampled_from(("sparse", "sparse", "identity", "identity by constructor",
                                 "row missing", "coefficient 2")
                                + (("twist",) if k == 2 else ())))
    if kind == "sparse":
        t = draw(st.integers(min_value=0, max_value=2))
        return draw(f3_maps(k, t, module=module, values=values).filter(lambda f: f.entries))
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
    """A stage's kernel, with its identity pass-through and parity-table
    signs, computes what the materialized tensor of the stage's maps
    computes; fused with the stage that reads its output, it computes what
    the two materialized tensors compute one after the other."""
    from cofrob.tensor import tensor_many
    maps, consumer, source, coeffs = stages
    expected = tensor_many(maps)(Element(source, coeffs))
    assert _fused([maps], source, coeffs) == expected.coeffs
    fused = _fused([maps, consumer], source, coeffs)
    # a stage of no maps, on R, is the identity
    assert fused == (tensor_many(consumer)(expected) if consumer else expected).coeffs


@st.composite
def kernel_pipelines(draw):
    """Over Q or F3 on a module with two basis elements of one odd degree
    (so that rows with several entries, and sums of several paths, are
    common), or over F3 on F3_MOD: a source of up to three factors, a
    pipeline of one to three stages of `kernel_maps` reading one or two
    factors each (sparse maps of odd and even degree, identities, partial
    maps), at times with a map out of R among them (a sparse one, the
    identity, twice it, or the zero map, a partial map on R), and a
    coefficient dict of the source.  Over Q, map entries and coefficients
    may be 1/2 or -3/2, so that products and sums that are integral again
    pass through the kernel as Fractions."""
    module = draw(st.sampled_from([make_module([("a", 0), ("b", 1), ("c", 1)], field=field)
                                   for field in (QQ, PrimeField(3))] + [F3_MOD]))
    field = module.field
    halves = (Fraction(1, 2), Fraction(-3, 2)) if field == QQ else ()
    values = (0, 0, 1, 2) + halves
    width = draw(st.integers(min_value=0, max_value=3))
    source = TensorSpace((module,) * width, field=field)
    stages = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        maps, left = [], width
        while left:
            k = draw(st.integers(min_value=1, max_value=min(2, left)))
            maps.append(draw(kernel_maps(module, k, values)))
            left -= k
        if not maps or draw(st.booleans()):
            maps.insert(draw(st.integers(min_value=0, max_value=len(maps))),
                        draw(kernel_maps(module, 0, values)))
        stages.append(maps)
        width = sum(f.target.arity for f in maps)
        if width > 3:
            break
    coeffs = {idx: v for idx in source.basis()
              if not field.is_zero(v := field.coerce(draw(st.sampled_from((0, 1, 2, -1)
                                                                          + halves))))}
    return source, stages, coeffs


def _canonical(field, v):
    """Whether the scalar v is in the form the field's own operations give:
    over Q an int, or a Fraction only when it is not integral; over F_p an
    int in [0, p)."""
    if field == QQ:
        return type(v) is int or type(v) is Fraction and v.denominator != 1
    return type(v) is int and 0 <= v < field.p


@settings(max_examples=150, deadline=None)
@given(kernel_pipelines())
def test_term_kernel_matches_the_reference_pipeline(pipeline):
    """A term's kernel, summed over a coefficient dict, gives what
    its stages applied one by one give (`pipeline_reference`), and every
    value it leaves is canonical: an int wherever it is integral over Q
    (`Fraction(2, 1) == 2`, so equality alone would not tell), an int in
    [0, p) over F_p."""
    from pipeline_reference import apply_pipeline
    source, stages, coeffs = pipeline
    fused = _fused(stages, source, coeffs)
    assert fused == apply_pipeline(stages, Element(source, coeffs)).coeffs
    assert all(_canonical(source.field, v) for v in fused.values()), fused


@settings(max_examples=60, deadline=None)
@given(kernel_pipelines())
def test_the_sparse_reference_matches_the_materialized_one(pipeline):
    """The row-sparse reference pipeline gives what each stage's
    materialized tensor gives, on odd and even maps, identities, partial
    maps and maps out of R."""
    from pipeline_reference import apply_pipeline, apply_pipeline_materialized
    source, stages, coeffs = pipeline
    x = Element(source, coeffs)
    assert apply_pipeline(stages, x) == apply_pipeline_materialized(stages, x)


def test_the_sparse_reference_matches_the_materialized_one_on_s3(monkeypatch):
    """On every term the data suites compile for H*(S3), on every basis
    input, the two reference routes agree."""
    from pipeline_reference import apply_pipeline, apply_pipeline_materialized
    for stages, source, _, _, _ in _recorded_terms(monkeypatch, [sphere_cohomology(3)]):
        for idx in source.basis():
            x = Element.basis(source, idx)
            assert apply_pipeline(stages, x) == apply_pipeline_materialized(stages, x)


def test_a_term_of_more_loops_than_python_nests_runs_as_two_kernels():
    """One function nests at most 20 loops: a term of 23 stages that read
    rows runs its first stage and the rest as separate kernels and still
    gives the reference value; a stage of 21 such maps is refused."""
    from pipeline_reference import apply_pipeline
    from cofrob import scalar_space
    from cofrob.tensor import term_kernel
    double = GradedMap(SP1, SP1, 0, {(i,): {(i,): 2} for i in range(MOD.dim)})
    stages = [[double]] * 23
    coeffs = {(i,): i + 1 for i in range(MOD.dim)}
    fused = _fused(stages, SP1, coeffs)
    assert fused == {(i,): (i + 1) * 2 ** 23 for i in range(MOD.dim)}
    assert fused == apply_pipeline(stages, Element(SP1, coeffs)).coeffs
    r = scalar_space(QQ)
    two = GradedMap(r, r, 0, {(): {(): 2}})
    assert _fused([[two] * 20], r, {(): 1}) == {(): 2 ** 20}
    with pytest.raises(ValueError, match="at most 20 maps"):
        term_kernel([[two] * 21], r)


def test_a_term_whose_joins_pass_the_nesting_limit_runs_as_two_kernels():
    """A join opens two loops, so it counts twice against the 20 loops one
    function nests: ten producers into two factors and the nine pairings
    that straddle them are 19 maps, but with their nine joins 28 loops, so
    the term runs as two kernels split at its stage boundary, and gives
    the reference value on odd maps with rows of two entries."""
    from pipeline_reference import apply_pipeline
    from cofrob.tensor import term_kernel
    a = make_module([("x", 0), ("y", 1)])
    one, two = TensorSpace((a,)), TensorSpace((a, a))
    produce = GradedMap(one, two, 1, {(0,): {(0, 1): 1, (1, 0): 2}, (1,): {(1, 1): -1}})
    pair = GradedMap(two, TensorSpace(()), -1, {(0, 1): {(): 1}, (1, 0): {(): Fraction(1, 2)}})
    ident = GradedMap.identity(one)
    stages = [[produce] * 10, [ident] + [pair] * 9 + [ident]]
    source = TensorSpace((a,) * 10)
    tables = {}
    kernel, space = term_kernel(stages, source, tables)
    assert kernel.__code__.co_filename != "<kernel>" and not tables
    inputs = list(itertools.islice(source.basis(), 0, 1024, 67))
    for idx in inputs:
        out = {}
        kernel(idx, 1, out)
        assert out == apply_pipeline(stages, Element.basis(source, idx)).coeffs, idx
    assert any(out for idx in inputs if (out := _fused(stages, source, {idx: 1})))
    joined, _ = term_kernel([[produce] * 3, [ident, pair, pair, ident]], TensorSpace((a,) * 3),
                            tables)
    assert joined.__code__.co_filename == "<kernel>" and tables


@st.composite
def joined_pipelines(draw):
    """Over Q (map entries and coefficients may be 1/2 or -3/2) or F3, on a
    module with one even and two odd basis elements: a source of two or
    three factors, a pipeline whose pairings (maps into R of two or three
    factors) read the factors of two or three loops, so that its kernel
    joins them, and a coefficient dict of the source.  Either the first
    stage is two or three producers, each into one or two factors, their
    rows of several entries often sharing the factor a pairing reads, and
    the second stage pairs the factors that straddle adjacent producers
    (two pairings make a chain of joins: the second one's outer factor
    comes from the first one's producer; a three-factor pairing reads all
    three producers), the other factors going through identities or
    sparse maps; or three one-factor maps, then a producer between two
    identities, then one pairing of all three factors, whose outer factors
    stand on both sides of the producer's."""
    field = draw(st.sampled_from((QQ, PrimeField(3))))
    module = make_module([("a", 0), ("b", 1), ("c", 1)], field=field)
    halves = (Fraction(1, 2), Fraction(-3, 2)) if field == QQ else ()
    values = (0, 1, 2) + halves
    ident = GradedMap.identity(TensorSpace((module,), field=field))

    def some(k, t, degrees=(-1, 0, 1), values=values):
        return draw(f3_maps(k, t, degrees, module, values).filter(lambda f: f.entries))

    if draw(st.booleans()):
        ts = [draw(st.sampled_from((1, 2, 2))) for _ in range(draw(st.sampled_from((2, 3, 3))))]
        stages = [[some(1, t, (0, 1, 1), values[1:]) for t in ts]]
        ends = list(itertools.accumulate(ts))
        if len(ts) == 3 and ts[1] == 1 and draw(st.booleans()):
            cuts = [(ends[0] - 1, ends[1] + 1)]
        else:
            cuts = [(end - 1, end + 1) for end in ends[:-1]]
        consumer, pos = [], 0
        for lo, hi in cuts:
            if lo < pos:
                continue
            consumer += [draw(st.sampled_from((ident, some(1, 1)))) for _ in range(lo - pos)]
            consumer.append(some(hi - lo, 0, (-3, -2, -1, 0)))
            pos = hi
        consumer += [draw(st.sampled_from((ident, some(1, 1)))) for _ in range(ends[-1] - pos)]
        stages.append(consumer)
        width = len(ts)
    else:
        stages = [[some(1, 1) for _ in range(3)], [ident, some(1, 1), ident],
                  [some(3, 0, (-3, -2, -1, 0))]]
        width = 3
    source = TensorSpace((module,) * width, field=field)
    coeffs = {idx: v for idx in source.basis()
              if not field.is_zero(v := field.coerce(draw(st.sampled_from((0, 1, -1)
                                                                          + halves))))}
    return source, stages, coeffs


@settings(max_examples=120, deadline=None)
@given(joined_pipelines())
def test_a_joined_kernel_matches_the_reference_pipeline(pipeline):
    """A kernel that joins pairings of two or three loops' factors (it
    builds grouped rows and indexes), summed over a coefficient dict,
    gives what its stages applied one by one give (`pipeline_reference`),
    and every value it leaves is canonical."""
    from pipeline_reference import apply_pipeline
    from cofrob.tensor import term_kernel
    source, stages, coeffs = pipeline
    tables = {}
    kernel, _ = term_kernel(stages, source, tables)
    assert tables
    out = {}
    for idx, v in coeffs.items():
        kernel(idx, v, out)
    assert out == apply_pipeline(stages, Element(source, coeffs)).coeffs
    assert all(_canonical(source.field, v) for v in out.values()), out


def test_a_pairing_of_two_coproducts_is_probed_once_per_outer_path():
    """On Rabinowitz S3 at N = 6, the kernel of (1 (x) eps mu (x) 1)(lam (x)
    lam) looks up at most 2 + (1 + m)|lam(a)| rows on each window-valid
    input a (x) b, m being the most partners eps mu gives one factor: lam's
    two rows, eps mu's index once per path of lam(a), and lam(b)'s rows
    grouped by the paired factor once per partner found.  Walking
    lam(a) (x) lam(b) and probing eps mu at each pair takes |lam(a)||lam(b)|
    lookups, which is more in sum.  Lookups are `get` calls on any dict
    but the output's, counted by a profile hook."""
    import sys
    from cofrob.structures import _Ops
    from cofrob.tensor import term_kernel
    from pipeline_reference import apply_pipeline
    data = rabinowitz_loop_sphere(3, 6)
    ops = _Ops(data)
    lam, pm = data.lam, ops.pm
    stages = [[lam, lam], [ops.id, pm, ops.id]]
    kernel, _ = term_kernel(stages, data.space2)
    partners = max(sum(key[0] == x for key in pm.entries) for x in range(data.module.dim))
    lookups, bound, pairs = 0, 0, 0
    for idx in data.window.valid_inputs(data.space2):
        out, counted = {}, []

        def hook(frame, event, arg):
            if event == "c_call" and getattr(arg, "__name__", "") == "get" \
                    and arg.__self__ is not out:
                counted.append(1)
        sys.setprofile(hook)
        try:
            kernel(idx, 1, out)
        finally:
            sys.setprofile(None)
        a, b = (len(lam.entries.get((i,), {})) for i in idx)
        assert len(counted) <= 2 + (1 + partners) * a, idx
        assert out == apply_pipeline(stages, Element.basis(data.space2, idx)).coeffs
        lookups, bound, pairs = lookups + len(counted), bound + 2 + (1 + partners) * a, pairs + a * b
    assert lookups <= bound < pairs


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
    """The zero map R -> R has no row for the empty key, so the kernel of
    the identity on R followed by it adds nothing; so does a term whose
    map out of R has no row, read when the kernel is bound."""
    from cofrob import scalar_space
    from cofrob.tensor import term_kernel
    r = scalar_space(QQ)
    zero = GradedMap(r, r, 0, {})
    for stages in ([[GradedMap.identity(r)], [zero]], [[zero]], [[zero], [GradedMap.identity(r)]]):
        kernel, _ = term_kernel(stages, r)
        for out, expected in (({}, {}), ({(): 5}, {(): 5})):
            kernel((), 1, out)
            assert out == expected


def test_a_term_with_no_row_out_of_r_still_checks_every_stage():
    """A map out of R with no row makes a term add nothing, but only once
    every stage has been checked: a later stage that does not read R is
    refused, as it is after any other first stage."""
    from cofrob import scalar_space
    from cofrob.tensor import term_kernel
    r = scalar_space(QQ)
    zero = GradedMap(r, r, 0, {})
    with pytest.raises(ValueError, match="sources do not match"):
        term_kernel([[zero], [GradedMap.identity(SP1)]], r)


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


def _relabeled(data, label):
    """`data` with each basis label l of its module renamed label(i) (i its
    index), in its maps, its unit and its window weights alike."""
    from cofrob import BialgebraData
    a = data.module
    module = make_module([(label(i), d) for i, d in enumerate(a.degrees)],
                         field=a.field, name=a.name)

    def moved(f):
        spaces = [TensorSpace((module,) * s.arity, field=a.field)
                  for s in (f.source, f.target)]
        return GradedMap(*spaces, f.degree, f.entries)

    window = data.window and WindowSpec(data.window.bound, data.window.slack, {
        label(a.index[lbl]): w for lbl, w in data.window.weights.items()})
    return BialgebraData(module, moved(data.mu), moved(data.lam),
                         Element(TensorSpace((module,)), data.eta.coeffs),
                         moved(data.eps), window)


def test_labels_never_reach_kernel_source():
    """Kernel source is written from the term's shape alone: labels made of
    quotes, newlines, braces and `__import__` calls give the reports that
    plain labels give, on a windowed model whose doubled coproduct fails
    relations with witnesses."""
    from cofrob import BialgebraData, rabinowitz_loop_sphere
    from cofrob.suites import DATA_SUITES
    base = rabinowitz_loop_sphere(3, 4)
    base = BialgebraData(base.module, base.mu, base.lam.scale(2), base.eta, base.eps,
                         base.window)
    hostile = [f'"{i}\'\n{{{i}}}}}__import__("sys").exit({i})' for i in range(base.module.dim)]
    plain = [f"p{i}q" for i in range(base.module.dim)]

    def translated(text):
        for bad, good in zip(hostile, plain):
            text = text.replace(bad, good)
        return text

    def reports(suite, label):
        try:
            return [r.as_dict() for r in suite(_relabeled(base, label))]
        except ValueError as refusal:     # poincare-duality refuses a failing input
            return str(refusal)

    witnesses = 0
    for name, suite in DATA_SUITES.items():
        got, want = reports(suite, hostile.__getitem__), reports(suite, plain.__getitem__)
        for r in got if isinstance(got, list) else []:
            if r["witness"]:
                witnesses += 1
                r["witness"] = {"input": [translated(x) for x in r["witness"]["input"]],
                                "lhs": translated(r["witness"]["lhs"]),
                                "rhs": translated(r["witness"]["rhs"])}
        assert got == want, name
    assert witnesses


def test_a_windowed_check_keeps_nothing_of_its_structure():
    """The kernel factories are cached by shape and hold no map or module:
    after a windowed check, the structure's module is freed with it."""
    import gc
    import weakref
    from cofrob import run_suite
    data = rabinowitz_loop_sphere(3, 4)
    assert run_suite("biunital-infinitesimal", data)
    module = weakref.ref(data.module)
    del data
    gc.collect()
    assert module() is None


def test_a_windowed_check_keeps_no_joined_table(monkeypatch):
    """The grouped rows and indexes of the joins are built once per
    `check_relations` call, each (role, map, factors) once, and none of
    them outlives the call: after the suite, each is freed."""
    import gc
    import weakref
    from cofrob import run_suite, tensor

    class Table(dict):
        """A dict that a weak reference can watch."""

    built, refs = [], []
    for name in ("_grouped", "_indexed"):
        def watched(entries, lo, hi, made=getattr(tensor, name), name=name):
            table = Table(made(entries, lo, hi))
            built.append((name, id(entries), lo, hi))
            refs.append(weakref.ref(table))
            return table
        monkeypatch.setattr(tensor, name, watched)
    monkeypatch.setattr(tensor, "_FACTORIES", {})
    assert run_suite("biunital-infinitesimal", rabinowitz_loop_sphere(3, 4))
    gc.collect()
    assert {name for name, *_ in built} == {"_grouped", "_indexed"}
    assert len(set(built)) == len(built)
    assert all(ref() is None for ref in refs)


def _merge_cases():
    values = st.sampled_from((0, 1, 2, -1, Fraction(1, 2), Fraction(-3, 2), Fraction(4, 2)))
    return st.tuples(st.sampled_from((QQ, PrimeField(3), PrimeField(5))), values,
                     st.dictionaries(st.integers(0, 4).map(lambda i: (i,)), values),
                     st.dictionaries(st.integers(0, 4).map(lambda i: (i,)), values))


@settings(max_examples=150, deadline=None)
@given(_merge_cases())
def test_term_merge_adds_a_signed_value_as_the_field_does(case):
    """`term_merge` of Q, F3 or F5, its arithmetic written inline, adds
    sign times a dict of canonical values into a dict of canonical values
    as the field's own `mul`, `add` and `is_zero` do, keeping no zero sum
    and leaving each value canonical."""
    from cofrob.tensor import term_merge
    field, sign, value, out = case
    sign = field.coerce(sign)
    value = {k: c for k, v in value.items() if not field.is_zero(c := field.coerce(v))}
    out = {k: c for k, v in out.items() if not field.is_zero(c := field.coerce(v))}
    expected = dict(out)
    for k, v in value.items():
        s = field.add(expected.get(k, field.zero), field.mul(sign, v))
        if field.is_zero(s):
            expected.pop(k, None)
        else:
            expected[k] = s
    term_merge(field)(sign, value, out)
    assert out == expected
    assert all(_canonical(field, v) for v in out.values()), out


def test_kernel_cache_keys_hold_only_ints_and_kind_tags(monkeypatch):
    """Every key of the kernel factory cache, after the data suites have
    run on windowed models and under OPEN_WINDOW, over Q and over F3, is
    made of ints, the three map kind tags and the two field kind tags
    only, and kernels of both field kinds are cached."""
    from cofrob import tensor
    from cofrob.suites import DATA_SUITES
    monkeypatch.setattr(tensor, "_FACTORIES", {})
    for data in (rabinowitz_loop_sphere(3, 4), circle_models(4, flavor="loop"),
                 _windowed(sphere_cohomology(3)),
                 _windowed(sphere_cohomology(3, PrimeField(3)))):
        for name, suite in DATA_SUITES.items():
            if name != "poincare-duality" or data.eps is not None:
                suite(data)

    def plain(key):
        if isinstance(key, tuple):
            return all(map(plain, key))
        return type(key) is int or key in ("id", "row", "R", "Q", "Fp")

    assert all(plain(key) for key in tensor._FACTORIES)
    assert {kind for kind, _ in tensor._FACTORIES} == {"Q", "Fp"}


def _constants(code):
    """The constants of `code` and of every code object nested in it."""
    for c in code.co_consts:
        yield c
        if hasattr(c, "co_consts"):
            yield from _constants(c)


def test_gate_cache_keys_hold_only_ints_and_kind_tags(monkeypatch):
    """Every key of the window gate cache, after the data suites have run
    on windowed models and under OPEN_WINDOW, over Q and over F3, is a role
    tag and an arity, and both roles are cached.  A cached factory keeps
    no module, weight tuple or label: it has no closure and no defaults,
    its globals are those the compiler gave it, and its constants are
    ints, None, code and the names of its own functions."""
    from cofrob import windows
    from cofrob.suites import DATA_SUITES
    monkeypatch.setattr(windows, "_GATES", {})
    for data in (rabinowitz_loop_sphere(3, 4), circle_models(4, flavor="loop"),
                 _windowed(sphere_cohomology(3, PrimeField(3)))):
        for name, suite in DATA_SUITES.items():
            if name != "poincare-duality" or data.eps is not None:
                suite(data)
    assert {role for role, _ in windows._GATES} == {"gate", "limit"}
    for (role, arity), factory in windows._GATES.items():
        assert role in ("gate", "limit") and type(arity) is int
        assert factory.__closure__ is None and factory.__defaults__ is None
        assert set(factory.__globals__) == {"__builtins__", "_integral", "factory"}
        for c in _constants(factory.__code__):
            assert (c is None or type(c) is int or hasattr(c, "co_consts")
                    or (type(c) is str and c.startswith("factory"))), (role, arity, c)


def test_labels_and_weights_never_reach_gate_source():
    """Two windows with different labels, weights, bounds and slacks share
    one compiled source per role and arity: their gates and limits run
    the same code, bound to different weights, and each keeps what the
    label-based `coordinate_reliable` keeps."""
    from window_reference import coordinate_reliable
    first = make_module([("a", 0), ("b", 1), ("c", 2)])
    second = make_module([('"\'\n{', 0), ("__import__('os')", 1), ("}}", 2)])
    windows = (WindowSpec(6, 1, {"a": 2, "b": -1}),
               WindowSpec(4, 0, {'"\'\n{': -3, "}}": 1}))
    for arity in range(4):
        codes = set()
        for module, window in zip((first, second), windows):
            space = TensorSpace((module,) * arity)
            gate, limit = window.gate(space), window.input_limit(space)
            codes.add((gate.__code__, limit.__code__))
            coeffs = {idx: 1 for idx in space.basis()}
            for idx in space.basis():
                assert gate(coeffs, limit(idx)) == {y: 1 for y in space.basis() if (
                    coordinate_reliable(window, space.labels_of(idx), space.labels_of(y)))}
        assert len(codes) == 1
