"""The Laurent loop models' mu and lam are exactly what the validating
constructor builds from their entries: same entries, row order and key
order, with no zero value and no empty row.  The two-component Rabinowitz
circles are the direct sums of their two single-component models."""

import pytest

from cofrob import (GradedMap, based_loop_sphere, based_rabinowitz_loop_sphere,
                    circle_models, direct_sum, loop_sphere, loop_tqft_sphere,
                    rabinowitz_loop_sphere)
from cofrob import models

SPHERE_BUILDERS = {
    "rabinowitz_loop_sphere": rabinowitz_loop_sphere,
    "loop_sphere": loop_sphere,
    "based_rabinowitz_loop_sphere": based_rabinowitz_loop_sphere,
    "based_loop_sphere": based_loop_sphere,
}
FLAVORS = ("rabinowitz", "based-rabinowitz", "loop", "based-loop")


def ordered(f):
    """f's entries as a list: rows in order, each row's keys in order, with
    each value and its type."""
    return [(src, [(dst, v, type(v)) for dst, v in row.items()])
            for src, row in f.entries.items()]


def assert_validated(data):
    field = data.field
    for f in (data.mu, data.lam):
        rebuilt = GradedMap(f.source, f.target, f.degree, f.entries)
        assert ordered(f) == ordered(rebuilt)
        assert all(f.entries.values()), "empty row"
        assert not any(field.is_zero(v) for row in f.entries.values() for v in row.values())


@pytest.mark.parametrize("n", [3, 5, 7])
@pytest.mark.parametrize("name", SPHERE_BUILDERS)
def test_sphere_models_are_what_the_constructor_builds(name, n):
    for bound in range(3, 13):
        assert_validated(SPHERE_BUILDERS[name](n, bound))


@pytest.mark.parametrize("which", ["+", "-"])
@pytest.mark.parametrize("flavor", FLAVORS)
def test_circle_models_are_what_the_constructor_builds(flavor, which):
    for bound in range(3, 13):
        assert_validated(circle_models(bound, which=which, flavor=flavor))


@pytest.mark.parametrize("n", [1, 3, 5])
def test_loop_tqft_sectors_are_what_the_constructor_builds(n):
    for bound in range(3, 9):
        tqft = loop_tqft_sphere(n, bound)
        assert_validated(tqft.closed)
        assert_validated(tqft.open)


def component(bound, with_a, comp):
    """One connected component of the Rabinowitz circle, built alone."""
    return models._laurent_model(1, bound, laurent=True, with_a=with_a, counit=True,
                                 comps=(comp,))


@pytest.mark.parametrize("flavor", ["rabinowitz", "based-rabinowitz"])
def test_rabinowitz_circles_are_the_direct_sums_of_their_components(flavor):
    for bound in range(3, 9):
        circle = circle_models(bound, flavor=flavor)
        summed = direct_sum(*(component(bound, flavor == "rabinowitz", comp)
                              for comp in ("+", "-")))
        assert circle.module.labels == summed.module.labels
        assert circle.module.degrees == summed.module.degrees
        assert circle.module.name == summed.module.name
        assert circle.module == summed.module
        for attr in ("mu", "lam", "eps"):
            got, want = getattr(circle, attr), getattr(summed, attr)
            assert (got.source, got.target, got.degree) == (want.source, want.target,
                                                            want.degree)
            assert ordered(got) == ordered(want), attr
        assert circle.eta.space == summed.eta.space
        assert list(circle.eta.coeffs.items()) == list(summed.eta.coeffs.items())
        assert (circle.window.bound, circle.window.slack) == (summed.window.bound,
                                                              summed.window.slack)
        assert list(circle.window.weights.items()) == list(summed.window.weights.items())


# ------------------------------------------------ mutants of the rule table

def mutate(monkeypatch, which_map, change):
    """Patch the rule table: `change(drift, rules)` returns the new (drift,
    rules) of mu (which_map 0) or lam (1)."""
    table = models._laurent_rules

    def patched(with_a, shift):
        maps = list(table(with_a, shift))
        maps[which_map] = change(*maps[which_map])
        return tuple(maps)

    monkeypatch.setattr(models, "_laurent_rules", patched)


def replace_rule(index, rule):
    return lambda drift, rules: (drift, rules[:index] + (rule,) + rules[index + 1:])


@pytest.mark.parametrize("which_map, change, build, message", [
    (0, replace_rule(0, (("", ""), ("A",), 1)), lambda: rabinowitz_loop_sphere(3, 4),
     "RabinowitzLoop(S3): mu rule U (x) U -> AU has degree -3, not 0"),
    (1, replace_rule(1, (("",), ("", ""), 1)), lambda: loop_sphere(5, 4),
     "Loop(S5): lam rule U -> U (x) U has degree -4, not -9"),
    (1, lambda drift, rules: (0, rules), lambda: based_rabinowitz_loop_sphere(3, 4),
     "BasedRabinowitzLoop(S3): lam rule U -> U (x) U has degree 0, not -2"),
    (1, lambda drift, rules: (-2, rules), lambda: rabinowitz_loop_sphere(3, 4),
     "RabinowitzLoop(S3): lam rule AU -> AU (x) AU has degree -7, not -5"),
    (0, replace_rule(2, (("", "A"), ("A",), 0)), lambda: circle_models(4),
     "RabinowitzLoop(S1)+(+)RabinowitzLoop(S1)-: mu rule U (x) AU -> AU has "
     "coefficient 0, zero in the field"),
    (1, replace_rule(2, (("",), ("", "A"), 0)), lambda: circle_models(4, "-", "loop"),
     "Loop(S1)-: lam rule U -> U (x) AU has coefficient 0, zero in the field"),
    (1, lambda drift, rules: (1, rules), lambda: circle_models(4, "+", "loop"),
     "Loop(S1)+: lam rule AU -> AU (x) AU leaves the exponent range [-4, 4] on AU^4"),
    (1, lambda drift, rules: (-1, rules), lambda: circle_models(4, "-", "based-loop"),
     "BasedLoop(S1)-: lam rule U -> U (x) U leaves the exponent range [-4, 4] on U^-4"),
    (0, replace_rule(0, (("", "A"), ("A",), 1)), lambda: based_loop_sphere(3, 4),
     "BasedLoop(S3): mu rule U (x) AU -> AU does not map 2 to 1 factors of markers ('',)"),
    (1, replace_rule(0, (("A",), ("A",), 1)), lambda: rabinowitz_loop_sphere(3, 4),
     "RabinowitzLoop(S3): lam rule AU -> AU does not map 1 to 2 factors of markers "
     "('', 'A')"),
], ids=["wrong-marker", "u-to-uu-with-a", "drift-zero", "drift-minus-two",
        "zero-mu-coefficient", "zero-lam-coefficient", "row-above-range",
        "row-below-range", "absent-marker", "wrong-arity"])
def test_a_wrong_rule_is_refused_by_name(monkeypatch, which_map, change, build, message):
    mutate(monkeypatch, which_map, change)
    with pytest.raises(ValueError) as refusal:
        build()
    assert str(refusal.value) == message


def test_the_rule_table_is_what_the_builder_expands(monkeypatch):
    """A patched rule table reaches the built maps: lam with its signs
    flipped is the model's lam negated."""
    plain = rabinowitz_loop_sphere(3, 5)
    mutate(monkeypatch, 1, lambda drift, rules: (drift, tuple((i, o, -s) for i, o, s in rules)))
    flipped = rabinowitz_loop_sphere(3, 5)
    assert ordered(flipped.lam) == ordered(plain.lam.scale(-1))
    assert ordered(flipped.mu) == ordered(plain.mu)
