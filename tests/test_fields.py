from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cofrob.fields import QQ, PrimeField, field_from_name, solve_linear, invert_matrix
from cofrob.fields import PRIME_LIMIT, is_prime


def test_rational_arithmetic():
    assert QQ.add(Fraction(1, 2), Fraction(1, 3)) == Fraction(5, 6)
    assert QQ.inv(Fraction(3, 4)) == Fraction(4, 3)
    assert QQ.parse("-7/2") == Fraction(-7, 2)
    assert QQ.format(Fraction(5, 3)) == "5/3"
    with pytest.raises(ZeroDivisionError):
        QQ.inv(Fraction(0))


def test_prime_field():
    f5 = PrimeField(5)
    assert f5.coerce(7) == 2
    assert f5.mul(3, 4) == 2
    assert f5.inv(2) == 3
    assert f5.coerce(Fraction(1, 2)) == 3
    assert f5.parse("1/2") == 3
    with pytest.raises(ValueError):
        PrimeField(6)


def test_field_from_name():
    assert field_from_name("Q") == QQ
    assert field_from_name("F7") == PrimeField(7)
    with pytest.raises(ValueError):
        field_from_name("R")


def test_solve_linear_consistent():
    sol = solve_linear([[1, 2], [3, 4]], [5, 6], QQ)
    assert sol == [Fraction(-4), Fraction(9, 2)]


def test_solve_linear_inconsistent():
    assert solve_linear([[1, 1], [2, 2]], [1, 3], QQ) is None


def test_solve_linear_underdetermined_frees_zero():
    sol = solve_linear([[1, 1]], [2], QQ)
    assert sol == [Fraction(2), Fraction(0)]


def test_invert_matrix():
    inv = invert_matrix([[1, 2], [3, 4]], QQ)
    assert inv == [[Fraction(-2), Fraction(1)], [Fraction(3, 2), Fraction(-1, 2)]]
    assert invert_matrix([[1, 2], [2, 4]], QQ) is None
    f5 = PrimeField(5)
    assert invert_matrix([[2]], f5) == [[3]]


# Exactness by type: Fraction(9, 2) == 4.5, so a float leak passes every
# value assert above. These pin the representation itself.

def assert_exact(x):
    """A Q scalar is an int, or a Fraction that is not integral."""
    assert type(x) in (int, Fraction), f"{x!r} is a {type(x).__name__}"
    if type(x) is Fraction:
        assert x.denominator != 1, f"integral {x!r} kept as a Fraction"


def test_rational_constants_are_ints():
    assert type(QQ.zero) is int and QQ.zero == 0
    assert type(QQ.one) is int and QQ.one == 1


def test_rational_inverse_is_a_fraction_not_a_float():
    assert type(QQ.inv(3)) is Fraction and QQ.inv(3) == Fraction(1, 3)
    assert QQ.inv(-1) == -1 and type(QQ.inv(-1)) is int
    assert type(QQ.inv(Fraction(1, 4))) is int and QQ.inv(Fraction(1, 4)) == 4


def test_rational_results_normalize_to_int():
    half = QQ.inv(2)
    assert_exact(half)
    assert type(QQ.add(half, half)) is int
    assert type(QQ.mul(half, 2)) is int
    assert type(QQ.sub(Fraction(3, 2), half)) is int
    for token in ("4", "-8/2", "7/3", "0"):
        assert_exact(QQ.parse(token))
        assert_exact(QQ.coerce(token))
    for value in (5, Fraction(6, 3), Fraction(2, 3), True):
        assert_exact(QQ.coerce(value))
    with pytest.raises(ValueError):
        QQ.coerce(0.5)


def test_solvers_return_no_float():
    rows = [[2, 1, 0], [1, 3, 1], [0, 1, 4]]
    sol = solve_linear(rows, [1, 2, 3], QQ)
    inv = invert_matrix(rows, QQ)
    for x in sol + [v for row in inv for v in row]:
        assert_exact(x)
    (x,) = solve_linear([[2]], [6], QQ)
    assert x == 3 and type(x) is int


rationals = st.fractions(max_denominator=12).map(QQ.coerce)


@settings(max_examples=300, deadline=None)
@given(rationals, rationals)
def test_rational_ops_match_fractions(a, b):
    fa, fb = Fraction(a), Fraction(b)
    cases = [(QQ.add(a, b), fa + fb), (QQ.sub(a, b), fa - fb),
             (QQ.mul(a, b), fa * fb), (QQ.neg(a), -fa)]
    if fa != 0:
        cases.append((QQ.inv(a), 1 / fa))
    for got, want in cases:
        assert_exact(got)
        assert got == want


PRIME_CHECKS = [561, 41041, 2**61 - 1, 10**20 + 39, 2**64 - 59,
                # strong pseudoprimes to every prime base up to 31 and 37
                3825123056546413051, 318665857834031151167461]
PRIME_SQUARES = [p * p for p in (2, 3, 5, 41, 43, 65521, 2**31 - 1, 2**61 - 1)]


def test_primality_matches_sympy():
    """The Miller-Rabin test agrees with sympy on 0..2000, on Carmichael
    numbers, on squares of primes and on primes near 2^61, 10^20 and 2^64."""
    sympy = pytest.importorskip("sympy")
    for n in list(range(2001)) + PRIME_CHECKS + PRIME_SQUARES:
        assert is_prime(n) == sympy.isprime(n), n


def test_large_prime_fields_are_built_or_refused_at_once():
    # trial division to sqrt(p) took more than 20 s on 2^61 - 1
    f = PrimeField(2**61 - 1)
    assert f.mul(2**60, 2) == 1
    assert PrimeField(10**20 + 39).name == "F100000000000000000039"
    with pytest.raises(ValueError, match="is not prime"):
        PrimeField(10**20 + 41)
    with pytest.raises(ValueError, match=f"prime fields need p < {PRIME_LIMIT}"):
        PrimeField(2**89 - 1)
