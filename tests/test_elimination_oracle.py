"""`solve_linear` and `invert_matrix` against SymPy's `DomainMatrix`.

Both solvers share one Gauss-Jordan elimination; SymPy's rank and reduced
row echelon form are the independent oracle, over Q and small prime fields.
The module is skipped when SymPy is not installed.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cofrob.fields import QQ, PrimeField, solve_linear, invert_matrix

sympy = pytest.importorskip("sympy")
from sympy.polys.matrices import DomainMatrix  # noqa: E402

FIELDS = [(QQ, sympy.QQ), (PrimeField(2), sympy.GF(2)), (PrimeField(3), sympy.GF(3)),
          (PrimeField(5), sympy.GF(5))]

# Small entries make singular and inconsistent systems common; the
# fractions keep the rational path honest and are defined in every F_p here.
SCALARS = st.one_of(st.integers(-2, 2), st.sampled_from([Fraction(1, 7), Fraction(-3, 7)]))


def _domain_matrix(rows, ncols, field, domain):
    """The matrix over SymPy's domain, entries first coerced by `field`
    (a Fraction over F_p means its image there)."""
    return DomainMatrix([[domain.convert(field.coerce(v)) for v in row] for row in rows],
                        (len(rows), ncols), domain)


def _matrix(draw, nrows, ncols):
    return [[draw(SCALARS) for _ in range(ncols)] for _ in range(nrows)]


def _times(rows, x, field):
    return [field.coerce(sum(field.mul(field.coerce(v), w) for v, w in zip(row, x)))
            for row in rows]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(FIELDS), st.integers(1, 4), st.integers(1, 4), st.data())
def test_solve_linear_matches_sympy_rank(fields, nrows, ncols, data):
    """None exactly when rank M < rank [M | b]; otherwise M x = b, with
    every free variable (a non-pivot column of rref M) set to zero."""
    field, domain = fields
    rows = _matrix(data.draw, nrows, ncols)
    rhs = [data.draw(SCALARS) for _ in range(nrows)]
    m = _domain_matrix(rows, ncols, field, domain)
    aug = _domain_matrix([row + [b] for row, b in zip(rows, rhs)], ncols + 1, field, domain)
    x = solve_linear(rows, rhs, field)
    if m.rank() < aug.rank():
        assert x is None
        return
    assert x is not None and len(x) == ncols
    assert _times(rows, x, field) == [field.coerce(b) for b in rhs]
    _, pivots = m.rref()
    assert all(field.is_zero(x[c]) for c in range(ncols) if c not in pivots)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(FIELDS), st.integers(1, 4), st.data())
def test_invert_matrix_matches_sympy_rank(fields, n, data):
    """None exactly when rank M < n; otherwise M inv = I."""
    field, domain = fields
    rows = _matrix(data.draw, n, n)
    inv = invert_matrix(rows, field)
    if _domain_matrix(rows, n, field, domain).rank() < n:
        assert inv is None
        return
    assert inv is not None
    columns = list(zip(*inv))
    assert [_times(rows, col, field) for col in columns] == \
        [[field.one if i == j else field.zero for i in range(n)] for j in range(n)]


def test_invert_matrix_refuses_a_non_square_matrix():
    assert invert_matrix([[1, 0, 0], [0, 1, 0]], QQ) is None
    assert invert_matrix([[1], [0]], PrimeField(3)) is None
