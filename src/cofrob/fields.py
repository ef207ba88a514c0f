"""Exact coefficient fields: the rationals and prime fields F_p.

Every computation in this package is exact; there is no floating point
anywhere.  Rational scalars are Python ints, or `fractions.Fraction` when
not integral; prime-field scalars are ints reduced mod p.  Field objects
bundle the arithmetic, and the code that calls them does not depend on
the representation.  The one other place that knows it is the relation
term kernel generator (`tensor._ARITHMETIC`), which writes Q's and F_p's
products, negations and sums into the kernels' source and keeps the same
canonical forms where a value leaves a kernel.
"""

from fractions import Fraction


def _integral(q):
    """A Fraction with denominator 1 as an int; any other value unchanged."""
    if type(q) is Fraction and q.denominator == 1:
        return q.numerator
    return q


class RationalField:
    """The field Q; scalars are ints, or Fraction instances when not integral.

    Coefficients of structure maps are almost always +-1, so integers keep
    the hot paths off Fraction arithmetic. A Fraction appears only when a
    division or a parsed token is not integral, and every result that is
    integral again is returned as an int.
    """

    name = "Q"
    zero = 0
    one = 1

    def coerce(self, x):
        if isinstance(x, int):
            return int(x)
        if isinstance(x, Fraction):
            return _integral(x)
        if isinstance(x, str):
            return _integral(Fraction(x))
        raise ValueError(f"cannot coerce {x!r} into Q")

    def add(self, a, b):
        c = a + b
        return c if type(c) is int else _integral(c)

    def sub(self, a, b):
        c = a - b
        return c if type(c) is int else _integral(c)

    def mul(self, a, b):
        c = a * b
        return c if type(c) is int else _integral(c)

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in Q")
        return _integral(Fraction(1, a))

    def is_zero(self, a):
        return a == 0

    def parse(self, token):
        try:
            return _integral(Fraction(token))
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"malformed rational scalar {token!r}") from exc

    def format(self, a):
        return str(a)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("Q")

    def __repr__(self):
        return "Q"


_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_LIMIT = 3317044064679887385961981     # the witnesses above decide every n below it


def is_prime(n):
    """Whether n < PRIME_LIMIT is prime: Miller-Rabin to the bases 2 to 41,
    which no composite below the limit passes."""
    if n < 2:
        return False
    for a in _WITNESSES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """The field F_p for a prime p below PRIME_LIMIT; scalars are ints in [0, p)."""

    def __init__(self, p):
        if p >= PRIME_LIMIT:
            raise ValueError(f"{p} is too large: prime fields need p < {PRIME_LIMIT}")
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.name = f"F{p}"

    def coerce(self, x):
        if isinstance(x, int):
            return x % self.p
        if isinstance(x, Fraction):
            if x.denominator % self.p == 0:
                raise ZeroDivisionError(f"denominator divisible by {self.p}")
            return (x.numerator * pow(x.denominator, -1, self.p)) % self.p
        if isinstance(x, str):
            return self.parse(x)
        raise ValueError(f"cannot coerce {x!r} into F{self.p}")

    @property
    def zero(self):
        return 0

    @property
    def one(self):
        return 1

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError(f"inverse of 0 in F{self.p}")
        return pow(a, -1, self.p)

    def is_zero(self, a):
        return a % self.p == 0

    def parse(self, token):
        try:
            if "/" in token:
                num, den = token.split("/")
                return self.coerce(Fraction(int(num), int(den)))
            return int(token) % self.p
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"malformed F{self.p} scalar {token!r}") from exc

    def format(self, a):
        return str(a % self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("F", self.p))

    def __repr__(self):
        return f"F{self.p}"


QQ = RationalField()


def field_from_name(name):
    """Parse a field descriptor: 'Q' or 'F<p>' (e.g. 'F5')."""
    if name == "Q":
        return QQ
    if name.startswith("F") and name[1:].isdigit():
        return PrimeField(int(name[1:]))
    raise ValueError(f"unknown field descriptor {name!r}")


def _eliminate(rows, ncols, field):
    """Gauss-Jordan elimination on the first `ncols` columns of the
    augmented `rows`, in place: each pivot is scaled to one and cleared
    from every other row.  Returns the pivot columns in order; pivot i
    sits in row i, so their number is the rank."""
    nrows = len(rows)
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        pivot = next((i for i in range(r, nrows) if not field.is_zero(rows[i][c])), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = field.inv(rows[r][c])
        top = rows[r] = [field.mul(inv, v) for v in rows[r]]
        for i in range(nrows):
            if i != r and not field.is_zero(rows[i][c]):
                f = rows[i][c]
                rows[i] = [field.sub(v, field.mul(f, w)) for v, w in zip(rows[i], top)]
        pivots.append(c)
    return pivots


def solve_linear(rows, rhs, field):
    """Solve M x = rhs exactly over the field; rows is a list of lists.

    Returns a solution vector with free variables set to zero, or None if
    the system is inconsistent.
    """
    ncols = len(rows[0]) if rows else 0
    aug = [[field.coerce(v) for v in row] + [field.coerce(rhs[i])]
           for i, row in enumerate(rows)]
    pivots = _eliminate(aug, ncols, field)
    if any(not field.is_zero(row[ncols]) for row in aug[len(pivots):]):
        return None
    x = [field.zero] * ncols
    for row, c in zip(aug, pivots):
        x[c] = row[ncols]
    return x


def invert_matrix(rows, field):
    """Exact Gauss-Jordan inverse of a square matrix, or None if singular."""
    n = len(rows)
    if any(len(row) != n for row in rows):
        return None
    aug = [[field.coerce(v) for v in row] + [field.one if i == j else field.zero
                                            for j in range(n)]
           for i, row in enumerate(rows)]
    if len(_eliminate(aug, n, field)) < n:
        return None
    return [row[n:] for row in aug]
