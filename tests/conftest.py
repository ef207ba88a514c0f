import pytest

from cofrob import (sphere_cohomology, manifold_from_cup, torus_cup_data,
                    s2xs2_cup_data, rabinowitz_loop_sphere, loop_sphere,
                    based_rabinowitz_loop_sphere, based_loop_sphere,
                    circle_models, loop_tqft_sphere, equator_pair,
                    diagonal_pair, factor_pair, shift_structure, PrimeField, QQ)


@pytest.fixture(scope="session")
def sphere2():
    return sphere_cohomology(2)


@pytest.fixture(scope="session")
def sphere3():
    return sphere_cohomology(3)


@pytest.fixture(scope="session")
def torus():
    return manifold_from_cup(torus_cup_data())


@pytest.fixture(scope="session")
def s2xs2():
    return manifold_from_cup(s2xs2_cup_data())


@pytest.fixture(scope="session")
def rab3():
    return rabinowitz_loop_sphere(3, 6)


@pytest.fixture(scope="session")
def based3():
    return based_rabinowitz_loop_sphere(3, 6)


@pytest.fixture(scope="session")
def loop3():
    return loop_sphere(3, 6)


@pytest.fixture(scope="session")
def based_loop3():
    return based_loop_sphere(3, 6)


@pytest.fixture(scope="session")
def circle_rab():
    return circle_models(6, flavor="rabinowitz")


@pytest.fixture(scope="session")
def tqft3():
    return loop_tqft_sphere(3, 6)


@pytest.fixture(scope="session")
def tqft1():
    return loop_tqft_sphere(1, 6)


@pytest.fixture(scope="session")
def equator():
    return equator_pair()


@pytest.fixture(scope="session")
def diagonal():
    return diagonal_pair()


@pytest.fixture(scope="session")
def factor():
    return factor_pair()


@pytest.fixture(scope="session")
def dual_examples():
    """(name, structure) for the structures the dual-map tests run on:
    S^1..S^5 over Q, F2, F3 and F5, T^2, S^2 x S^2, Rabinowitz and based
    Rabinowitz S^3 at N = 5 and the Rabinowitz circle at N = 4, each also
    shifted once and twice (odd shifts make |mu| and |lam| odd)."""
    examples = [(f"S{n}-{field}", sphere_cohomology(n, field=field))
                for n in range(1, 6) for field in (QQ, PrimeField(2), PrimeField(3),
                                                    PrimeField(5))]
    examples += [("T2", manifold_from_cup(torus_cup_data())),
                 ("S2xS2", manifold_from_cup(s2xs2_cup_data())),
                 ("rab3-N5", rabinowitz_loop_sphere(3, 5)),
                 ("based3-N5", based_rabinowitz_loop_sphere(3, 5)),
                 ("circle-N4", circle_models(4))]
    out = []
    for name, data in examples:
        for shifts in range(3):
            out.append((name + "[1]" * shifts, data))
            data = shift_structure(data)
    return out


def all_pass(reports):
    return all(r.verdict == "pass" for r in reports)


def no_failures(reports):
    return all(r.verdict != "fail" for r in reports)


def failing(reports):
    return [r for r in reports if r.verdict == "fail"]


def relabeled_sphere3():
    """S^3 rebuilt on fresh labels so direct sums have disjoint bases."""
    from cofrob import BialgebraData, Element, GradedMap, make_module, TensorSpace
    three = sphere_cohomology(3)
    mod2 = make_module([("e", 0), ("f", 3)])
    sp, sp2 = TensorSpace((mod2,)), TensorSpace((mod2, mod2))
    return BialgebraData(
        mod2,
        GradedMap(sp2, sp, 0, {s: dict(r) for s, r in three.mu.entries.items()}),
        GradedMap(sp, sp2, 3, {s: dict(r) for s, r in three.lam.entries.items()}),
        Element(sp, dict(three.eta.coeffs)),
        GradedMap(sp, three.eps.target, -3,
                  {s: dict(r) for s, r in three.eps.entries.items()}),
    )
