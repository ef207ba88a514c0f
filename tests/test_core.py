import re
import sys

import pytest
from hypothesis import given, settings, strategies as st

from cofrob import (make_module, TensorSpace, Element, GradedMap, apply, compose,
                    map_equal, scalar_space)
from cofrob.tensor import twist


def two_sphere_carrier():
    # H*(S^2) carrier: one generator in degree 0, one in degree 2
    return make_module([("1", 0), ("w", 2)])


def test_make_module_dims():
    mod = two_sphere_carrier()
    assert mod.dim == 2
    assert mod.basis_at(0) == [0] and mod.basis_at(2) == [1]


def test_make_module_laurent_window():
    # window of Laurent algebra on U with |U| = n-1 = 2
    mod = make_module([("U^-1", -2), ("U^0", 0), ("U^1", 2)])
    assert mod.degrees == (-2, 0, 2)


def test_make_module_duplicate_label():
    with pytest.raises(ValueError, match="duplicate basis label 'x'"):
        make_module([("x", 0), ("x", 1)])


def test_apply_identity_and_zero():
    mod = two_sphere_carrier()
    sp = TensorSpace((mod,))
    x = Element.from_labels(sp, [(2, ("w",)), (1, ("1",))])
    assert GradedMap.identity(sp)(x) == x
    assert GradedMap.zero(sp, sp, 0)(x).is_zero


def test_apply_parent_mismatch():
    mod = two_sphere_carrier()
    other = make_module([("y", 0)])
    f = GradedMap.identity(TensorSpace((mod,)))
    x = Element.basis(TensorSpace((other,)), (0,))
    with pytest.raises(ValueError, match="parent"):
        apply(f, x)


def test_apply_degree_shift():
    mod = two_sphere_carrier()
    sp = TensorSpace((mod,))
    f = GradedMap.from_labels(sp, sp, 2, [(("1",), [(3, ("w",))])])
    y = f(Element.basis(sp, (0,)))
    assert y.degree() == 2  # = |x| + |f|


def test_homogeneity_enforced():
    mod = two_sphere_carrier()
    sp = TensorSpace((mod,))
    with pytest.raises(ValueError, match="homogeneity"):
        GradedMap.from_labels(sp, sp, 1, [(("1",), [(1, ("w",))])])


# ------------------------------------------------ what the constructors check

def named_spaces(field=None):
    """A = H*(S^2) named "H" over `field` (Q by default): A and A (x) A."""
    kwargs = {"field": field} if field is not None else {}
    mod = make_module([("1", 0), ("w", 2)], name="H", **kwargs)
    return TensorSpace((mod,)), TensorSpace((mod, mod))


# out of range, negative, wrong arity (too long, too short)
BAD_KEYS = [(2,), (-1,), (-3,), (0, 0), ()]


@pytest.mark.parametrize("key", BAD_KEYS)
def test_graded_map_refuses_a_bad_source_key(key):
    sp, _ = named_spaces()
    message = re.escape(f"index {key} not a basis tuple of the source")
    with pytest.raises(ValueError, match=message):
        GradedMap(sp, sp, 0, {key: {(0,): 1}})
    with pytest.raises(ValueError, match=message):   # checked before its row is read
        GradedMap(sp, sp, 0, {(0,): {(0,): 1}, key: {}})


@pytest.mark.parametrize("key", BAD_KEYS)
def test_graded_map_refuses_a_bad_target_key(key):
    sp, _ = named_spaces()
    message = re.escape(f"index {key} not a basis tuple of the target")
    with pytest.raises(ValueError, match=message):
        GradedMap(sp, sp, 0, {(0,): {(0,): 1, key: 1}})
    with pytest.raises(ValueError, match=message):   # checked before its value is read
        GradedMap(sp, sp, 0, {(1,): {key: 0}})


@pytest.mark.parametrize("key", BAD_KEYS)
def test_element_refuses_a_bad_key(key):
    sp, _ = named_spaces()
    message = re.escape(f"index {key} not a basis tuple of H")
    with pytest.raises(ValueError, match=message):
        Element(sp, {(0,): 1, key: 1})
    with pytest.raises(ValueError, match=message):
        Element(sp, {key: 0})


def test_graded_map_homogeneity_message():
    sp, sp2 = named_spaces()
    with pytest.raises(ValueError, match=re.escape(
            "entry ('w', '1') -> ('1',) violates homogeneity: 0 != 2 + (0)")):
        GradedMap(sp2, sp, 0, {(0, 0): {(0,): 1}, (1, 0): {(0,): 1}})
    with pytest.raises(ValueError, match=re.escape(
            "entry ('1',) -> ('1',) violates homogeneity: 0 != 0 + (-2)")):
        GradedMap(sp, sp, -2, {(1,): {(0,): 1}, (0,): {(0,): 0}})   # a zero value too


def test_graded_map_refuses_mixed_fields():
    from cofrob import PrimeField
    sp, _ = named_spaces()
    sp_f2, _ = named_spaces(PrimeField(2))
    for source, target in ((sp, sp_f2), (sp_f2, sp), (sp, scalar_space(PrimeField(2))),
                           (scalar_space(PrimeField(2)), sp)):
        with pytest.raises(ValueError, match="source and target over different fields"):
            GradedMap(source, target, 0, {})


def test_constructors_drop_zero_values_and_empty_rows():
    from fractions import Fraction
    from cofrob import PrimeField
    sp, _ = named_spaces()
    f = GradedMap(sp, sp, 0, {(0,): {(0,): 0}, (1,): {(1,): Fraction(6, 2)}})
    assert f.entries == {(1,): {(1,): 3}} and type(f.entries[(1,)][(1,)]) is int
    assert GradedMap(sp, sp, 0, {(0,): {}, (1,): {(1,): 0}}).entries == {}
    assert Element(sp, {(0,): 0, (1,): "1/2"}).coeffs == {(1,): Fraction(1, 2)}
    sp_f2, _ = named_spaces(PrimeField(2))
    g = GradedMap(sp_f2, sp_f2, 0, {(0,): {(0,): -1}, (1,): {(1,): 2}})
    assert g.entries == {(0,): {(0,): 1}}
    assert Element(sp_f2, {(0,): -1, (1,): 4}).coeffs == {(0,): 1}


def test_constructors_on_the_ground_ring():
    sp, _ = named_spaces()
    r = scalar_space()
    assert GradedMap(r, sp, 2, {(): {(1,): 3}}).entries == {(): {(1,): 3}}
    assert GradedMap(sp, r, -2, {(1,): {(): 1}}).entries == {(1,): {(): 1}}
    assert GradedMap(r, r, 0, {(): {(): 5}}).entries == {(): {(): 5}}
    assert Element(r, {(): 5}).coeffs == {(): 5}
    with pytest.raises(ValueError, match=re.escape("index (0,) not a basis tuple of the source")):
        GradedMap(r, sp, 0, {(0,): {(0,): 1}})
    with pytest.raises(ValueError, match=re.escape("index (0,) not a basis tuple of the target")):
        GradedMap(sp, r, 0, {(0,): {(0,): 1}})
    with pytest.raises(ValueError, match=re.escape("index (0,) not a basis tuple of R")):
        Element(r, {(0,): 1})
    with pytest.raises(ValueError, match=re.escape(
            "entry () -> ('w',) violates homogeneity: 2 != 0 + (0)")):
        GradedMap(r, sp, 0, {(): {(1,): 1}})
    with pytest.raises(ValueError, match=re.escape(
            "entry ('1',) -> () violates homogeneity: 0 != 0 + (-2)")):
        GradedMap(sp, r, -2, {(0,): {(): 1}})


def test_from_labels_names_an_unknown_label():
    sp, sp2 = named_spaces()
    with pytest.raises(ValueError, match=re.escape("unknown basis label 'x' of the source")):
        GradedMap.from_labels(sp, sp, 0, [(("x",), [(1, ("1",))])])
    with pytest.raises(ValueError, match=re.escape("unknown basis label 'y' of the target")):
        GradedMap.from_labels(sp, sp2, 0, [(("1",), [(1, ("1", "y"))])])
    with pytest.raises(ValueError, match=re.escape("unknown basis label 'x' of H")):
        Element.from_labels(sp, [(1, ("x",))])
    with pytest.raises(ValueError, match=re.escape("unknown basis label 'x' of H (x) H")):
        Element.from_labels(sp2, [(1, ("w", "x"))])


def test_from_labels_refuses_a_label_count_other_than_the_arity():
    """Labels used to be zipped with the factors, so extra ones were dropped:
    the second row below was added to the first, giving mu(1, 1) = 2*1."""
    sp, sp2 = named_spaces()
    with pytest.raises(ValueError, match=re.escape(
            "3 labels ('1', '1', 'w'), not 2, for the source")):
        GradedMap.from_labels(sp2, sp, 0, [(("1", "1"), [(1, ("1",))]),
                                           (("1", "1", "w"), [(1, ("1",))])])
    with pytest.raises(ValueError, match=re.escape("2 labels ('1', 'w'), not 1, for the target")):
        GradedMap.from_labels(sp, sp, 0, [(("1",), [(1, ("1", "w"))])])
    with pytest.raises(ValueError, match=re.escape("1 labels ('1',), not 2, for the source")):
        GradedMap.from_labels(sp2, sp, 0, [(("1",), [(1, ("1",))])])
    with pytest.raises(ValueError, match=re.escape("2 labels ('1', 'w'), not 1, for H")):
        Element.from_labels(sp, [(1, ("1", "w"))])
    with pytest.raises(ValueError, match=re.escape("1 labels ('w',), not 2, for H (x) H")):
        Element.from_labels(sp2, [(1, ("w",))])


def test_compose_identity_neutral():
    mod = two_sphere_carrier()
    sp = TensorSpace((mod,))
    f = GradedMap.from_labels(sp, sp, 2, [(("1",), [(1, ("w",))])])
    one = GradedMap.identity(sp)
    assert compose(one, f) == f
    assert compose(f, one) == f


def test_compose_shape_mismatch():
    mod = two_sphere_carrier()
    sp = TensorSpace((mod,))
    sp2 = TensorSpace((mod, mod))
    f = GradedMap.identity(sp)
    g = GradedMap.identity(sp2)
    with pytest.raises(ValueError, match="compose"):
        compose(g, f)


@pytest.mark.parametrize("other", [1, None, "x"])
def test_subtraction_refuses_a_wrong_operand_as_addition_does(other):
    """`-` refuses an operand that is not an Element (a GradedMap) with the
    ValueError of `+`, not with an AttributeError from the operand."""
    sp = TensorSpace((two_sphere_carrier(),))
    x, f = Element.basis(sp, (0,)), GradedMap.identity(sp)
    for value, message in ((x, "cannot add elements"), (f, "cannot add maps")):
        with pytest.raises(ValueError, match=message):
            value + other
        with pytest.raises(ValueError, match=message):
            value - other


def test_map_equal_reflexive_and_shape_unequal():
    mod = two_sphere_carrier()
    sp = TensorSpace((mod,))
    f = GradedMap.from_labels(sp, sp, 2, [(("1",), [(1, ("w",))])])
    g = GradedMap.from_labels(sp, sp, 0, [])
    assert map_equal(f, f)
    # degree mismatch is reported as unequal, not an exception
    assert not map_equal(f, g)
    assert not map_equal(f, GradedMap.identity(TensorSpace((mod, mod))))


def test_map_equal_commutative_product_on_sphere3(sphere3):
    tau = twist(sphere3.module, sphere3.module)
    assert map_equal(compose(sphere3.mu, tau), sphere3.mu)


def test_map_equal_skew_cocommutative_window(rab3):
    # lam and tau lam differ by (-1)^{|lam|} with |lam| odd: not equal
    tau = twist(rab3.module, rab3.module)
    assert not map_equal(compose(tau, rab3.lam), rab3.lam)
    assert map_equal(compose(tau, rab3.lam), rab3.lam.scale(-1))


def test_rabinowitz_lambda_on_u2(rab3):
    # lam(U^2) = sum over i+j=1 of (AU^i (x) U^j - U^i (x) AU^j), window-truncated
    sp = rab3.space
    got = apply(rab3.lam, Element.basis(sp, (rab3.module.index["U^2"],)))
    expected = {}
    for i in range(-6, 7):
        j = 1 - i
        if -6 <= j <= 6:
            expected[(rab3.module.index[f"AU^{i}"], rab3.module.index[f"U^{j}"])] = 1
            expected[(rab3.module.index[f"U^{i}"], rab3.module.index[f"AU^{j}"])] = -1
    assert got == Element(rab3.space2, expected)


def test_loop_lambda_on_u2_matches_nonnegative_sum(loop3):
    # uncompleted model: only the i, j >= 0 terms survive
    got = apply(loop3.lam, Element.basis(loop3.space, (loop3.module.index["U^2"],)))
    expected = Element.from_labels(
        loop3.space2,
        [(1, ("AU^0", "U^1")), (1, ("AU^1", "U^0")),
         (-1, ("U^0", "AU^1")), (-1, ("U^1", "AU^0"))])
    assert got == expected


def test_zero_element_degree_undefined():
    mod = two_sphere_carrier()
    sp = TensorSpace((mod,))
    with pytest.raises(ValueError, match="zero element"):
        Element(sp).degree()


def test_scalar_space_basis():
    sp = scalar_space()
    assert list(sp.basis()) == [()]
    assert sp.degree(()) == 0


# ------------------------------------------------ joining tensor spaces

def _concat_spaces():
    """A = H*(S^2) over Q and F5, and R over Q and F5, as spaces."""
    from cofrob import PrimeField, QQ
    f5 = PrimeField(5)
    a_q, _ = named_spaces(QQ)
    a_5, _ = named_spaces(f5)
    return {"R/Q": scalar_space(QQ), "R/F5": scalar_space(f5), "A/Q": a_q, "A/F5": a_5}


@pytest.mark.parametrize("left, right", [
    ("R/F5", "A/Q"), ("A/Q", "R/F5"), ("R/Q", "R/F5"), ("A/Q", "A/F5"),
    ("R/Q", "A/F5"), ("A/F5", "R/Q")])
def test_concat_refuses_spaces_over_different_fields(left, right):
    """R included: R over F5 joined with A over Q gave a space over Q."""
    spaces = _concat_spaces()
    with pytest.raises(ValueError, match="tensor factors over different fields"):
        spaces[left].concat(spaces[right])


@pytest.mark.parametrize("left, right", [
    ("R/Q", "R/Q"), ("R/F5", "R/F5"), ("R/Q", "A/Q"), ("A/F5", "R/F5"), ("A/Q", "A/Q"),
    ("A/F5", "A/F5")])
def test_concat_is_the_space_of_the_joined_factors(left, right):
    spaces = _concat_spaces()
    joined = spaces[left].concat(spaces[right])
    modules = spaces[left].modules + spaces[right].modules
    built = TensorSpace(modules, field=spaces[left].field)
    assert joined == built and built == joined
    assert hash(joined) == hash(built)
    assert joined.modules == modules and joined.field == spaces[left].field


def test_tensor_space_equality_compares_fields_of_r_and_is_reflexive():
    spaces = _concat_spaces()
    assert spaces["R/Q"] != spaces["R/F5"] and spaces["R/F5"] != spaces["R/Q"]
    assert spaces["A/Q"] != spaces["A/F5"]
    assert spaces["R/F5"] == scalar_space(spaces["R/F5"].field)
    for space in spaces.values():
        assert space == space
        assert space != space.modules


@pytest.mark.parametrize("factors, field", [
    ("A/Q", "R/F5"), ("A/F5", "R/Q"), ("A/Q", "A/F5")])
def test_tensor_space_refuses_a_field_other_than_its_factors(factors, field):
    """TensorSpace((A over Q,), field=F5) was a space over Q, with no error."""
    spaces = _concat_spaces()
    for modules in (spaces[factors].modules, spaces[factors].modules * 2):
        with pytest.raises(ValueError, match="^tensor factors over different fields$"):
            TensorSpace(modules, field=spaces[field].field)


def test_tensor_space_accepts_its_factors_field_or_none():
    """None, the factors' own field object or an equal one keeps that field,
    and R keeps the field it is given."""
    from cofrob import PrimeField
    from cofrob.fields import RationalField
    spaces = _concat_spaces()
    for name, equal in (("A/Q", RationalField()), ("A/F5", PrimeField(5))):
        modules, field = spaces[name].modules, spaces[name].field
        assert equal is not field
        for given in (None, field, equal):
            assert TensorSpace(modules, field=given).field is field
    assert TensorSpace((), field=PrimeField(5)).field == PrimeField(5)


def _library_built_maps(monkeypatch, builders):
    """Every map compose, permute, twist, GradedMap.identity, tensor_maps,
    dual_map and GradedMap.scale returned, every element Element.scale
    returned, the mu and lam of every direct_sum and every Laurent model,
    every lam(eta), copairing and pairing map an operator context built
    on demand, and the maps and copairing element of every pairing and
    copairing handle built from a context, while building each structure,
    dualizing it and running every data suite on it.  Each context's
    handles equal what `pairing_handle` and `copairing_handle` build."""
    from cofrob import duality, models, structures, tensor
    from cofrob.structures import _Ops
    from cofrob.suites import DATA_SUITES
    from cofrob.duality import dualize, pairing_handle, copairing_handle
    built = {"compose": [], "permute": [], "twist": [], "identity": [], "tensor_maps": [],
             "dual_map": [], "scale": [], "element_scale": [], "direct_sum": [],
             "_laurent_model": [], "lh": [], "c_map": [], "p_map": [], "_handles": []}
    contexts = []
    handles = []
    ops_init = _Ops.__init__
    handles_of = duality._handles

    def recording_ops(o, data, tau=None):
        ops_init(o, data, tau)
        contexts.append(o)

    def recording_handles(o):
        out = handles_of(o)
        handles.append((o.data, out))
        return out

    def recording(fn, name, outputs=lambda out: [out]):
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            built[name].extend(outputs(out))
            return out
        return wrapper

    with monkeypatch.context() as patch:
        wrappers = [(fn, recording(fn, fn.__name__))
                    for fn in (compose, tensor.permute, tensor.twist, tensor.tensor_maps,
                               tensor.dual_map)]
        for fn in (structures.direct_sum, models._laurent_model):
            wrappers.append((fn, recording(fn, fn.__name__, lambda data: [data.mu, data.lam])))
        for fn, wrapper in wrappers:
            for modname, module in list(sys.modules.items()):
                if modname.startswith("cofrob"):
                    for attr, value in list(vars(module).items()):
                        if value is fn:
                            patch.setattr(module, attr, wrapper)
        patch.setattr(GradedMap, "identity",
                      classmethod(recording(GradedMap.identity.__func__, "identity")))
        patch.setattr(GradedMap, "scale", recording(GradedMap.scale, "scale"))
        patch.setattr(Element, "scale", recording(Element.scale, "element_scale"))
        patch.setattr(_Ops, "__init__", recording_ops)
        patch.setattr(duality, "_handles", recording_handles)
        for build in builders:
            data = build()
            dualize(data)
            for suite in DATA_SUITES.values():
                suite(data)
    for o in contexts:
        ops, data = vars(o), o.data
        for name in ("lh", "c_map", "p_map"):
            if ops.get(name) is not None:
                built[name].append(ops[name])
        if ops.get("c_map") is not None:
            assert o.lh == compose(data.lam, data.eta_map()) and o.c_map == data.copairing_map()
        if ops.get("p_map") is not None:
            assert o.p_map == data.pairing()
    for data, (pair, copair) in handles:
        built["_handles"].extend([pair.p, pair.vec_p, copair.c, copair.vec_c])
        assert (pair, copair) == (pairing_handle(data), copairing_handle(data))
    return built


def test_library_built_maps_pass_full_validation(monkeypatch):
    """compose, permute, twist, GradedMap.identity, tensor_maps, dual_map,
    GradedMap.scale, Element.scale, the lifted mu and lam of direct_sum, the
    mu and lam of the Laurent loop models and the lam(eta), copairing and
    pairing maps of the operator context skip the validating constructor;
    every map and element they build for the models, their duals and the
    data suites is exactly what it builds, with no zero value and no empty
    row, and the context's maps equal what the validating BialgebraData
    methods build. F2 matters because -1 is 1 there.  direct_sum is reached
    through an explicit sum of S^3 and a relabeled S^3."""
    from cofrob import (PrimeField, QQ, sphere_cup_data, torus_cup_data,
                        s2xs2_cup_data, manifold_from_cup, rabinowitz_loop_sphere,
                        shift_structure, sphere_cohomology, circle_models,
                        based_rabinowitz_loop_sphere)
    import cofrob
    from conftest import relabeled_sphere3

    def manifold(cup_data, field):
        def build():
            cup = cup_data()
            cup.field = field
            return manifold_from_cup(cup)
        return build

    builders = [manifold(cup, field)
                for cup in (lambda: sphere_cup_data(3), torus_cup_data, s2xs2_cup_data)
                for field in (QQ, PrimeField(2), PrimeField(3))]
    builders.append(lambda: rabinowitz_loop_sphere(3, 4))
    builders.append(lambda: shift_structure(sphere_cohomology(3)))  # c = -lam(eta)
    builders.append(lambda: circle_models(4))
    builders.append(lambda: circle_models(4, flavor="based-rabinowitz"))
    builders.append(lambda: based_rabinowitz_loop_sphere(5, 4))
    # looked up when called, so that the recording wrapper is what runs
    builders.append(lambda: cofrob.direct_sum(sphere_cohomology(3), relabeled_sphere3()))
    built = _library_built_maps(monkeypatch, builders)
    for name, maps in built.items():
        assert maps, f"{name} was never called"
        for out in maps:
            if isinstance(out, Element):
                assert out == Element(out.space, out.coeffs)
                assert not any(out.space.field.is_zero(v) for v in out.coeffs.values())
                continue
            field = out.source.field
            assert out == GradedMap(out.source, out.target, out.degree, out.entries)
            assert all(out.entries.values()), f"{name} left an empty row"
            assert not any(field.is_zero(v) for row in out.entries.values()
                           for v in row.values()), f"{name} kept a zero value"


@pytest.mark.parametrize("p", [None, 2])
def test_compose_drops_cancelled_sums(p):
    """mu after w -> 1(x)w - w(x)1 cancels on H*(S^2), over Q and over F2
    (where -1 is 1): the composite has no zero value and no empty row."""
    from cofrob import PrimeField, QQ, sphere_cup_data, manifold_from_cup
    cup = sphere_cup_data(2)
    cup.field = PrimeField(p) if p else QQ
    data = manifold_from_cup(cup)
    f = GradedMap.from_labels(data.space, data.space2, 0,
                              [(("w",), [(1, ("1", "w")), (-1, ("w", "1"))])])
    assert compose(data.mu, f).entries == {}


def _compose_reference(g, f):
    """g after f by the loop `compose` ran before first-touch sums: every
    product is added to the running sum from zero, and a sum that cancels
    is popped, so a key that comes back goes to the end of its row."""
    field = f.source.field
    entries = {}
    for src, row in f.entries.items():
        out = {}
        for mid, v in row.items():
            for dst, w in g.entries.get(mid, {}).items():
                s = field.add(out.get(dst, field.zero), field.mul(v, w))
                if field.is_zero(s):
                    out.pop(dst, None)
                else:
                    out[dst] = s
        if out:
            entries[src] = out
    return entries


@st.composite
def composable_maps(draw):
    """(g, f) with f: S -> M and g: M -> T homogeneous of degree 0 over Q,
    F2 or F3.  The middle space is wide and the target narrow, and values
    are small, so products often cancel and cancelled keys come back."""
    from fractions import Fraction
    from cofrob import PrimeField, QQ
    field = draw(st.sampled_from([QQ, PrimeField(2), PrimeField(3)]))
    values = [1, -1, 1, -1, 2] + ([Fraction(1, 2), Fraction(-1, 2)] if field == QQ else [])
    spaces = []
    for name, least, most in (("S", 1, 3), ("M", 3, 6), ("T", 1, 2)):
        degrees = draw(st.lists(st.sampled_from([0, 0, 0, 1]), min_size=least,
                                max_size=most))
        spaces.append(TensorSpace((make_module(
            [(f"{name}{i}", d) for i, d in enumerate(degrees)], field=field, name=name),)))

    def draw_map(source, target):
        entries = {}
        for i, d in enumerate(source.modules[0].degrees):
            entries[(i,)] = {(j,): draw(st.sampled_from(values))
                             for j, e in enumerate(target.modules[0].degrees)
                             if e == d and draw(st.integers(0, 3))}
        return GradedMap(source, target, 0, entries)

    f = draw_map(spaces[0], spaces[1])
    return draw_map(spaces[1], spaces[2]), f


@settings(max_examples=300, deadline=None)
@given(composable_maps())
def test_compose_matches_the_add_from_zero_loop(maps):
    """Entries, the order of the rows and of each row's keys, and no zero
    value or empty row: `compose` is the loop it replaced, key for key."""
    g, f = maps
    field = f.source.field
    got = compose(g, f)
    want = _compose_reference(g, f)
    assert [(src, list(row.items())) for src, row in got.entries.items()] == \
        [(src, list(row.items())) for src, row in want.items()]
    assert all(got.entries.values())
    assert not any(field.is_zero(v) for row in got.entries.values() for v in row.values())
    assert got == GradedMap(f.source, g.target, 0, want)


def test_compose_puts_a_cancelled_key_that_comes_back_last():
    """Over F2, m0 + m1 + m2 all reach t0 (1 + 1 + 1: cancelled, then back)
    and m0 also reaches t1, so t1 comes first in the composite's row."""
    from cofrob import PrimeField
    field = PrimeField(2)
    s, m, t = (TensorSpace((make_module([(f"{n}{i}", 0) for i in range(k)], field=field),))
               for n, k in (("s", 1), ("m", 3), ("t", 2)))
    f = GradedMap(s, m, 0, {(0,): {(0,): 1, (1,): 1, (2,): 1}})
    g = GradedMap(m, t, 0, {(0,): {(0,): 1, (1,): 1}, (1,): {(0,): 1}, (2,): {(0,): 1}})
    assert list(compose(g, f).entries[(0,)].items()) == [((1,), 1), ((0,), 1)]
