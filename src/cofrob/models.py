"""Built-in structures: manifold cohomology rings, loop space homology of
odd spheres and the circle, and their open-closed TQFTs.

Manifold conventions: H^i sits in module degree i, the product is the cup
product, eta = 1, eps = integration over the fundamental class (nonzero
exactly on degree n), and the coproduct is produced by
complete_from_pairing, so |lam| = n.

Loop space models (odd n >= 3, window bound N, labels U^k / AU^k with
|U| = n-1, |A| = -n):

    rabinowitz:  lam(AU^k) = sum_{i+j=k-1} AU^i (x) AU^j
                 lam(U^k)  = sum_{i+j=k-1} (AU^i (x) U^j - U^i (x) AU^j)
                 eps(AU^-1) = 1, all other values 0
    loop:        same sums restricted to i, j >= 0; no counit
    based:       Laurent algebra on U alone, lam(U^k) = sum U^i (x) U^j

For n = 1 the exponent shift disappears (sums over i+j = k, counit at
k = 0) and the free-loop model is a direct sum of two components, one per
connected component of the unit cotangent bundle.  Ordinary circle
homology carries the two vector-field coproducts lam_+ / lam_- with their
piecewise boundary formulas.

Completions are realized only as symmetric truncation windows with an
explicit validity predicate (slack 3: the deepest shipped relation
composes three exponent-shifting maps).
"""

from .core import GradedModule, TensorSpace, Element, GradedMap, compose, scalar_space
from .fields import QQ
from .structures import BialgebraData, direct_sum
from .duality import complete_from_pairing
from .tqft import OpenClosedTQFT, derive_cozipper, run_full_tqft_suite
from .reports import FAIL
from .windows import WindowSpec

WINDOW_SLACK = 3


# ---------------------------------------------------------------- manifolds

class CupData:
    """A cohomology ring presented by structure constants.

    products maps (label, label) -> list of (coeff, label); omitted pairs
    multiply to zero.  integral is the fundamental cocycle, nonzero exactly
    on top degree.
    """

    def __init__(self, dim, basis, products, integral, unit="1", name="", field=QQ):
        self.dim = dim
        self.basis = list(basis)
        self.products = {k: list(v) for k, v in products.items()}
        self.integral = dict(integral)
        self.unit = unit
        self.name = name
        self.field = field


def sphere_cup_data(n, top="w"):
    return CupData(
        dim=n,
        basis=[("1", 0), (top, n)],
        products={("1", "1"): [(1, "1")], ("1", top): [(1, top)], (top, "1"): [(1, top)]},
        integral={top: 1},
        name=f"H*(S{n})")


def torus_cup_data():
    """T^2 over Q: basis 1, a, b, ab with a.b = ab = -b.a."""
    return CupData(
        dim=2,
        basis=[("1", 0), ("a", 1), ("b", 1), ("ab", 2)],
        products={("1", "1"): [(1, "1")], ("1", "a"): [(1, "a")], ("a", "1"): [(1, "a")],
                  ("1", "b"): [(1, "b")], ("b", "1"): [(1, "b")],
                  ("1", "ab"): [(1, "ab")], ("ab", "1"): [(1, "ab")],
                  ("a", "b"): [(1, "ab")], ("b", "a"): [(-1, "ab")]},
        integral={"ab": 1},
        name="H*(T2)")


def s2xs2_cup_data():
    return CupData(
        dim=4,
        basis=[("1", 0), ("w1", 2), ("w2", 2), ("w1w2", 4)],
        products={("1", "1"): [(1, "1")], ("1", "w1"): [(1, "w1")], ("w1", "1"): [(1, "w1")],
                  ("1", "w2"): [(1, "w2")], ("w2", "1"): [(1, "w2")],
                  ("1", "w1w2"): [(1, "w1w2")], ("w1w2", "1"): [(1, "w1w2")],
                  ("w1", "w2"): [(1, "w1w2")], ("w2", "w1"): [(1, "w1w2")]},
        integral={"w1w2": 1},
        name="H*(S2xS2)")


def manifold_from_cup(cup):
    """Biunital coFrobenius structure of a closed oriented manifold from its
    cup-product structure constants; the coproduct is the Poincare dual of
    the homology coproduct, produced by complete_from_pairing."""
    field = cup.field
    module = GradedModule(cup.basis, field=field, name=cup.name)
    space = TensorSpace((module,))
    space2 = TensorSpace((module, module))
    unit_deg = dict(cup.basis).get(cup.unit)
    if unit_deg != 0:
        raise ValueError(f"unit label {cup.unit!r} must sit in degree 0")
    rows = []
    for (x, y), terms in cup.products.items():
        rows.append(((x, y), [(c, (z,)) for c, z in terms]))
    mu = GradedMap.from_labels(space2, space, 0, rows)
    # graded commutativity and associativity of the input data
    from .tensor import twist
    tau = twist(module, module)
    from .core import map_equal
    if not map_equal(compose(mu, tau), mu):
        raise ValueError("input is not graded-commutative")
    idm = GradedMap.identity(space)
    from .tensor import tensor_maps
    if not map_equal(compose(mu, tensor_maps(mu, idm)), compose(mu, tensor_maps(idm, mu))):
        raise ValueError("input is not associative")
    eta = Element.from_labels(space, [(1, (cup.unit,))])
    for lbl, val in cup.integral.items():
        if dict(cup.basis)[lbl] != cup.dim:
            raise ValueError(f"integral must be supported on top degree {cup.dim}")
    eps = GradedMap.from_labels(space, scalar_space(field), -cup.dim,
                                [((lbl,), [(v, ())]) for lbl, v in cup.integral.items()])
    try:
        return complete_from_pairing(module, mu, eta, eps)
    except ValueError as exc:
        raise ValueError(f"input is not a Poincare-duality algebra: {exc}") from exc


def sphere_cohomology(n, field=QQ):
    """H*(S^n): basis 1 (degree 0) and w (degree n), cup product, eta = 1,
    eps(w) = 1; the biunital coFrobenius suite passes by construction."""
    if n < 1:
        raise ValueError("sphere dimension must be >= 1")
    cup = sphere_cup_data(n)
    cup.field = field
    return manifold_from_cup(cup)


def submanifold_tqft(m_cup, z_cup, restriction):
    """Open-closed TQFT of a closed oriented manifold pair: closed sector
    H*(M), open sector H*(Z), zipper = restriction (a unital ring map,
    checked), cozipper derived from the pairing relation.

    Relations (1)-(5) must pass; Cardy is reported by the full suite, not
    required here.
    """
    closed = manifold_from_cup(m_cup)
    open_ = manifold_from_cup(z_cup)
    rows = [((x,), [(c, (z,)) for c, z in terms]) for x, terms in restriction.items()]
    zipper = GradedMap.from_labels(closed.space, open_.space, 0, rows)
    # ring map: r(1) = 1 and r(x cup y) = r(x) cup r(y)
    if zipper(closed.eta) != open_.eta:
        raise ValueError("restriction is not unital")
    from .reports import check_relation
    ring = check_relation(
        "restriction-ring-map", closed.space2,
        [(1, [[closed.mu], [zipper]])],
        [(1, [[zipper, zipper], [open_.mu]])], None)
    if ring.verdict == FAIL:
        raise ValueError(f"restriction is not a ring map: "
                         f"{ring.witness.input_labels}")
    cozipper = derive_cozipper(closed, open_, zipper)
    t = OpenClosedTQFT(closed, open_, zipper, cozipper)
    for rep in run_full_tqft_suite(t):
        if rep.verdict == FAIL and rep.name != "rel6-cardy":
            raise ValueError(f"sector construction failure: {rep.name}")
    return t


def equator_pair():
    """S^1 inside S^2: restriction kills the top class by degree."""
    return submanifold_tqft(sphere_cup_data(2), sphere_cup_data(1, top="t"),
                            {"1": [(1, "1")], "w": []})


def diagonal_pair():
    """The diagonal S^2 inside S^2 x S^2: w1, w2 both restrict to w."""
    return submanifold_tqft(s2xs2_cup_data(), sphere_cup_data(2),
                            {"1": [(1, "1")], "w1": [(1, "w")], "w2": [(1, "w")],
                             "w1w2": []})


def factor_pair():
    """S^2 x {pt} inside S^2 x S^2: w1 restricts to w, w2 to zero.

    The Cardy condition fails here (Euler class of the normal bundle is 0,
    Euler class of the tangent bundle is 2w).
    """
    return submanifold_tqft(s2xs2_cup_data(), sphere_cup_data(2),
                            {"1": [(1, "1")], "w1": [(1, "w")], "w2": [],
                             "w1w2": []})


# ------------------------------------------------------------- loop spaces

def _u_label(k, marker="", comp=""):
    return f"{marker}U{comp}^{k}"


def _loop_module(n, kmin, kmax, with_a, comp="", field=QQ, name=""):
    """Basis U^k (degree (n-1)k) and optionally AU^k (degree -n + (n-1)k)."""
    basis = []
    weights = {}
    for k in range(kmin, kmax + 1):
        lbl = _u_label(k, "", comp)
        basis.append((lbl, (n - 1) * k))
        weights[lbl] = k
    if with_a:
        for k in range(kmin, kmax + 1):
            lbl = _u_label(k, "A", comp)
            basis.append((lbl, -n + (n - 1) * k))
            weights[lbl] = k
    return GradedModule(basis, field=field, name=name), weights


def _exterior_laurent_mu(module, n, kmin, kmax, with_a, comp=""):
    """U^i U^j = U^{i+j}, U^i AU^j = AU^i U^j = AU^{i+j}, A^2 = 0,
    truncated to the window."""
    space = TensorSpace((module,))
    space2 = TensorSpace((module, module))
    rows = []
    ks = range(kmin, kmax + 1)
    for i in ks:
        for j in ks:
            if kmin <= i + j <= kmax:
                rows.append(((_u_label(i, "", comp), _u_label(j, "", comp)),
                             [(1, (_u_label(i + j, "", comp),))]))
                if with_a:
                    rows.append(((_u_label(i, "A", comp), _u_label(j, "", comp)),
                                 [(1, (_u_label(i + j, "A", comp),))]))
                    rows.append(((_u_label(i, "", comp), _u_label(j, "A", comp)),
                                 [(1, (_u_label(i + j, "A", comp),))]))
    return GradedMap.from_labels(space2, space, 0, rows)


def _check_odd(n):
    if n % 2 == 0 or n < 1:
        raise ValueError(f"only odd sphere dimensions are supported, got {n}")


def rabinowitz_loop_sphere(n, window_bound, field=QQ):
    """Rabinowitz loop homology of S^n (odd n >= 3) on the window
    |exponent| <= window_bound; biunital coFrobenius on window-valid inputs."""
    _check_odd(n)
    if n < 3:
        raise ValueError("use circle_models for n = 1")
    if window_bound < 3:
        raise ValueError("window bound must be >= 3")
    N = window_bound
    module, weights = _loop_module(n, -N, N, with_a=True, name=f"RabinowitzLoop(S{n})")
    space = TensorSpace((module,))
    space2 = TensorSpace((module, module))
    mu = _exterior_laurent_mu(module, n, -N, N, with_a=True)
    lam_rows = []
    for k in range(-N, N + 1):
        a_terms, u_terms = [], []
        for i in range(-N, N + 1):
            j = k - 1 - i
            if -N <= j <= N:
                a_terms.append((1, (_u_label(i, "A"), _u_label(j, "A"))))
                u_terms.append((1, (_u_label(i, "A"), _u_label(j))))
                u_terms.append((-1, (_u_label(i), _u_label(j, "A"))))
        lam_rows.append(((_u_label(k, "A"),), a_terms))
        lam_rows.append(((_u_label(k),), u_terms))
    lam = GradedMap.from_labels(space, space2, 1 - 2 * n, lam_rows)
    eta = Element.from_labels(space, [(1, (_u_label(0),))])
    eps = GradedMap.from_labels(space, scalar_space(field), 2 * n - 1,
                                [((_u_label(-1, "A"),), [(1, ())])])
    return BialgebraData(module, mu, lam, eta, eps,
                         WindowSpec(N, WINDOW_SLACK, weights))


def loop_sphere(n, window_bound, field=QQ):
    """Ordinary loop homology of S^n (odd n >= 3): exponents >= 0, the sums
    restricted to i, j >= 0; unital infinitesimal anti-symmetric, no counit."""
    _check_odd(n)
    if n < 3:
        raise ValueError("use circle_models for n = 1")
    if window_bound < 3:
        raise ValueError("window bound must be >= 3")
    N = window_bound
    module, weights = _loop_module(n, 0, N, with_a=True, name=f"Loop(S{n})")
    space = TensorSpace((module,))
    space2 = TensorSpace((module, module))
    mu = _exterior_laurent_mu(module, n, 0, N, with_a=True)
    lam_rows = []
    for k in range(0, N + 1):
        a_terms, u_terms = [], []
        for i in range(0, k):
            j = k - 1 - i
            a_terms.append((1, (_u_label(i, "A"), _u_label(j, "A"))))
            u_terms.append((1, (_u_label(i, "A"), _u_label(j))))
            u_terms.append((-1, (_u_label(i), _u_label(j, "A"))))
        lam_rows.append(((_u_label(k, "A"),), a_terms))
        lam_rows.append(((_u_label(k),), u_terms))
    lam = GradedMap.from_labels(space, space2, 1 - 2 * n, lam_rows)
    eta = Element.from_labels(space, [(1, (_u_label(0),))])
    return BialgebraData(module, mu, lam, eta, None,
                         WindowSpec(N, WINDOW_SLACK, weights))


def based_rabinowitz_loop_sphere(n, window_bound, field=QQ):
    """Based Rabinowitz loop homology of S^n: Laurent algebra on U with
    lam(U^k) = sum_{i+j=k-1} U^i (x) U^j; biunital coFrobenius."""
    _check_odd(n)
    if n < 3:
        raise ValueError("use circle_models for n = 1")
    if window_bound < 3:
        raise ValueError("window bound must be >= 3")
    N = window_bound
    module, weights = _loop_module(n, -N, N, with_a=False, name=f"BasedRabinowitzLoop(S{n})")
    space = TensorSpace((module,))
    space2 = TensorSpace((module, module))
    mu = _exterior_laurent_mu(module, n, -N, N, with_a=False)
    lam_rows = []
    for k in range(-N, N + 1):
        terms = []
        for i in range(-N, N + 1):
            j = k - 1 - i
            if -N <= j <= N:
                terms.append((1, (_u_label(i), _u_label(j))))
        lam_rows.append(((_u_label(k),), terms))
    lam = GradedMap.from_labels(space, space2, 1 - n, lam_rows)
    eta = Element.from_labels(space, [(1, (_u_label(0),))])
    eps = GradedMap.from_labels(space, scalar_space(field), n - 1,
                                [((_u_label(-1),), [(1, ())])])
    return BialgebraData(module, mu, lam, eta, eps,
                         WindowSpec(N, WINDOW_SLACK, weights))


def based_loop_sphere(n, window_bound, field=QQ):
    """Based loop homology of S^n: polynomial algebra on U, sums over
    i, j >= 0; no counit."""
    _check_odd(n)
    if n < 3:
        raise ValueError("use circle_models for n = 1")
    if window_bound < 3:
        raise ValueError("window bound must be >= 3")
    N = window_bound
    module, weights = _loop_module(n, 0, N, with_a=False, name=f"BasedLoop(S{n})")
    space = TensorSpace((module,))
    space2 = TensorSpace((module, module))
    mu = _exterior_laurent_mu(module, n, 0, N, with_a=False)
    lam_rows = []
    for k in range(0, N + 1):
        terms = [(1, (_u_label(i), _u_label(k - 1 - i))) for i in range(0, k)]
        lam_rows.append(((_u_label(k),), terms))
    lam = GradedMap.from_labels(space, space2, 1 - n, lam_rows)
    eta = Element.from_labels(space, [(1, (_u_label(0),))])
    return BialgebraData(module, mu, lam, eta, None,
                         WindowSpec(N, WINDOW_SLACK, weights))


# ------------------------------------------------------------- the circle

def _circle_component(window_bound, comp, based, field=QQ):
    """One connected component of the (based) Rabinowitz circle model:
    |U| = 0, |A| = -1, sums over i+j = k, counit at exponent 0."""
    N = window_bound
    module, weights = _loop_module(1, -N, N, with_a=not based, comp=comp,
                                   name=f"{'Based' if based else ''}RabinowitzLoop(S1){comp}")
    space = TensorSpace((module,))
    space2 = TensorSpace((module, module))
    mu = _exterior_laurent_mu(module, 1, -N, N, with_a=not based, comp=comp)
    lam_rows = []
    for k in range(-N, N + 1):
        if based:
            terms = []
            for i in range(-N, N + 1):
                j = k - i
                if -N <= j <= N:
                    terms.append((1, (_u_label(i, "", comp), _u_label(j, "", comp))))
            lam_rows.append(((_u_label(k, "", comp),), terms))
        else:
            a_terms, u_terms = [], []
            for i in range(-N, N + 1):
                j = k - i
                if -N <= j <= N:
                    a_terms.append((1, (_u_label(i, "A", comp), _u_label(j, "A", comp))))
                    u_terms.append((1, (_u_label(i, "A", comp), _u_label(j, "", comp))))
                    u_terms.append((-1, (_u_label(i, "", comp), _u_label(j, "A", comp))))
            lam_rows.append(((_u_label(k, "A", comp),), a_terms))
            lam_rows.append(((_u_label(k, "", comp),), u_terms))
    lam = GradedMap.from_labels(space, space2, 0 if based else -1, lam_rows)
    eta = Element.from_labels(space, [(1, (_u_label(0, "", comp),))])
    counit_on = _u_label(0, "", comp) if based else _u_label(0, "A", comp)
    eps = GradedMap.from_labels(space, scalar_space(field), 0 if based else 1,
                                [((counit_on,), [(1, ())])])
    return BialgebraData(module, mu, lam, eta, eps,
                         WindowSpec(N, WINDOW_SLACK, weights))


def _circle_ordinary(window_bound, sign, based, field=QQ):
    """Ordinary (based) loop homology of S^1 with the vector-field coproduct
    lam_+ or lam_-; unital infinitesimal anti-symmetric, no counit."""
    N = window_bound
    module, weights = _loop_module(1, -N, N, with_a=not based,
                                   name=f"{'Based' if based else ''}Loop(S1){sign}")
    space = TensorSpace((module,))
    space2 = TensorSpace((module, module))
    mu = _exterior_laurent_mu(module, 1, -N, N, with_a=not based)

    def plus_range(k):
        if k >= 0:
            return 1, range(0, k + 1)
        return -1, range(k + 1, 0)

    def minus_range(k):
        if k > 0:
            return 1, range(1, k)
        return -1, range(k, 1)

    pick = plus_range if sign == "+" else minus_range
    lam_rows = []
    for k in range(-N, N + 1):
        coeff, rng = pick(k)
        if based:
            terms = [(coeff, (_u_label(i), _u_label(k - i))) for i in rng]
            lam_rows.append(((_u_label(k),), terms))
        else:
            a_terms, u_terms = [], []
            for i in rng:
                a_terms.append((coeff, (_u_label(i, "A"), _u_label(k - i, "A"))))
                u_terms.append((coeff, (_u_label(i, "A"), _u_label(k - i))))
                u_terms.append((-coeff, (_u_label(i), _u_label(k - i, "A"))))
            lam_rows.append(((_u_label(k, "A"),), a_terms))
            lam_rows.append(((_u_label(k),), u_terms))
    lam = GradedMap.from_labels(space, space2, 0 if based else -1, lam_rows)
    eta = Element.from_labels(space, [(1, (_u_label(0),))])
    return BialgebraData(module, mu, lam, eta, None,
                         WindowSpec(N, WINDOW_SLACK, weights))


def circle_models(window_bound, which="+", flavor="rabinowitz", field=QQ):
    """The S^1 family.

    flavor 'rabinowitz' / 'based-rabinowitz': two-component direct sums,
    biunital coFrobenius (the vector-field choice is irrelevant).
    flavor 'loop' / 'based-loop': ordinary homology with lam_+ or lam_-
    selected by `which`; unital infinitesimal anti-symmetric, no counit.
    """
    if window_bound < 3:
        raise ValueError("window bound must be >= 3")
    if which not in ("+", "-"):
        raise ValueError(f"vector field must be '+' or '-', got {which!r}")
    if flavor == "rabinowitz":
        return direct_sum(_circle_component(window_bound, "+", based=False, field=field),
                          _circle_component(window_bound, "-", based=False, field=field))
    if flavor == "based-rabinowitz":
        return direct_sum(_circle_component(window_bound, "+", based=True, field=field),
                          _circle_component(window_bound, "-", based=True, field=field))
    if flavor == "loop":
        return _circle_ordinary(window_bound, which, based=False, field=field)
    if flavor == "based-loop":
        return _circle_ordinary(window_bound, which, based=True, field=field)
    raise ValueError(f"unknown circle flavor {flavor!r}")


# ------------------------------------------------------------- loop TQFTs

def loop_tqft_sphere(n, window_bound, field=QQ):
    """The open-closed TQFT with closed sector Rabinowitz loop homology and
    open sector based Rabinowitz loop homology: zeta(U^k) = U^k,
    zeta(AU^k) = 0, zeta*(U^k) = AU^k (per component for n = 1)."""
    if n == 1:
        closed = circle_models(window_bound, flavor="rabinowitz", field=field)
        open_ = circle_models(window_bound, flavor="based-rabinowitz", field=field)
        comps = ("+", "-")
    else:
        _check_odd(n)
        closed = rabinowitz_loop_sphere(n, window_bound, field=field)
        open_ = based_rabinowitz_loop_sphere(n, window_bound, field=field)
        comps = ("",)
    N = window_bound
    z_rows, zs_rows = [], []
    for comp in comps:
        for k in range(-N, N + 1):
            z_rows.append(((_u_label(k, "", comp),), [(1, (_u_label(k, "", comp),))]))
            z_rows.append(((_u_label(k, "A", comp),), []))
            zs_rows.append(((_u_label(k, "", comp),), [(1, (_u_label(k, "A", comp),))]))
    zipper = GradedMap.from_labels(closed.space, open_.space, 0, z_rows)
    cozipper = GradedMap.from_labels(open_.space, closed.space,
                                     closed.lam.degree - open_.lam.degree, zs_rows)
    return OpenClosedTQFT(closed, open_, zipper, cozipper)
