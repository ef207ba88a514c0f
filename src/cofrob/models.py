"""Built-in structures: manifold cohomology rings, loop space homology of
odd spheres and the circle, and their open-closed TQFTs.

Manifold conventions: H^i sits in module degree i, the product is the cup
product, eta = 1, eps = integration over the fundamental class (nonzero
exactly on degree n), and the coproduct is produced by
complete_from_pairing, so |lam| = n.

Loop space models (odd n, window bound N, labels U^k / AU^k with
|U| = n-1, |A| = -n) are all one exterior Laurent algebra, built by
`_laurent_model`:

    mu:   U^i U^j = U^{i+j},  AU^i U^j = U^i AU^j = AU^{i+j},  A^2 = 0
    lam:  lam(AU^k) = sum_{i+j=k+s} c AU^i (x) AU^j
          lam(U^k)  = sum_{i+j=k+s} c (AU^i (x) U^j - U^i (x) AU^j)
          (without A: lam(U^k) = sum_{i+j=k+s} c U^i (x) U^j)
    eps:  eps((A)U^s) = 1, all other values 0

Its parameters are the exponent range ([-N, N] for the Rabinowitz
flavors and the circle, [0, N] for ordinary loops of S^n), whether A is
present (free loops) or not (based loops), a label suffix per connected
component, whether there is a counit, and the coefficient rule: c = 1 over
every i whose partner j lies in range, or the piecewise lam_+ / lam_- of
ordinary circle homology.  It derives the rest from n: the shift s = -1
(s = 0 for n = 1), |lam| = 1-2n with A and 1-n without, and
|eps| = -|lam|.  The Rabinowitz circle is a direct sum of two components,
one per connected component of the unit cotangent bundle, and one call
builds both: each component's basis, mu and lam follow the one before,
which gives the labels, name (`...(+)...`), eta, eps and window weights of
`direct_sum` of the two.

mu and lam are recorded as exponent rules (`_laurent_rules`): per map a
drift d, the sum of the output exponents minus that of the inputs, and a
list of rules (input markers, output markers, sign), a marker "" standing
for U^k and "A" for AU^k:

    mu,  d = 0:  U (x) U -> U  +1,  AU (x) U -> AU  +1,  U (x) AU -> AU  +1
    lam, d = s:  AU -> AU (x) AU  +1,  U -> AU (x) U  +1,  U -> U (x) AU  -1
    without A:   mu U (x) U -> U  +1, d = 0;  lam U -> U (x) U  +1, d = s

A rule's terms carry its sign times the row's coefficient c (c = 1 for
mu).  The basis lists U^k, then AU^k, over the exponent range [lo, N], so
(marker)U^k has index (k - lo), plus the range's length for A.  The
builder expands the rules straight into index entries, never formatting
or looking up a label per entry, and wraps mu and lam without the
validating constructor, because it checks once what that constructor
checks per entry:

- homogeneity, once per rule: the output markers' degrees plus (n-1) d
  equal the input markers' degrees plus the map's degree, every marker is
  one of the model's and the arity is the map's;
- range: mu's pairs (i, j) are those with i + j + d in range, and each lam
  row's exponent interval is checked at both ends, for i and for its
  partner j = k + d - i;
- nonzero values: each rule's value is coerced through the module's field
  once (per row for lam, whose c varies with k), and a zero is refused;
  a row whose sum is empty is not emitted.

A wrong rule raises ValueError naming the model and the rule.  mu's rows
go by (i, j), then by rule; lam's by k, the AU^k row before the U^k row,
and a row's terms by pair (i, j), then by rule.  eta and eps go through
the validating constructors.

Only the counit reads `field`: the module is built over Q, so a loop model
asked for another field is built over Q when it has no counit and is
refused ("source and target over different fields") when it has one.

Completions are realized only as truncation windows on the exponent range
above, with an explicit validity predicate on |exponent| (slack 3: the
deepest shipped relation composes three exponent-shifting maps).
"""

from .core import GradedModule, TensorSpace, Element, GradedMap, scalar_space
from .fields import QQ
from .structures import BialgebraData, run_entries
from .duality import _complete
from .tqft import OpenClosedTQFT, derive_cozipper, run_tqft_entries, TQFT_FULL
from .reports import FAIL, prefixed
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
    commutative, associative = run_entries(BialgebraData(module, mu, None),
                                           ("commutativity", "associativity"))
    if commutative.verdict == FAIL:
        raise ValueError("input is not graded-commutative")
    if associative.verdict == FAIL:
        raise ValueError("input is not associative")
    eta = Element.from_labels(space, [(1, (cup.unit,))])
    for lbl, val in cup.integral.items():
        if dict(cup.basis)[lbl] != cup.dim:
            raise ValueError(f"integral must be supported on top degree {cup.dim}")
    eps = GradedMap.from_labels(space, scalar_space(field), -cup.dim,
                                [((lbl,), [(v, ())]) for lbl, v in cup.integral.items()])
    try:    # the completion checks the rest of the biunital suite
        return _complete(module, mu, eta, eps, checked=[associative])
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
    H*(M), open sector H*(Z), zipper = restriction, cozipper derived from
    the pairing relation.

    Relations (1)-(5) must pass; Cardy is reported by the full suite, not
    required here.  A FAIL of relation (3) refuses the restriction as not
    unital or, with its witness input, not a ring map.
    """
    closed = manifold_from_cup(m_cup)
    open_ = manifold_from_cup(z_cup)
    rows = [((x,), [(c, (z,)) for c, z in terms]) for x, terms in restriction.items()]
    zipper = GradedMap.from_labels(closed.space, open_.space, 0, rows)
    cozipper = derive_cozipper(closed, open_, zipper)
    t = OpenClosedTQFT(closed, open_, zipper, cozipper)
    reports = run_tqft_entries(t, TQFT_FULL)
    by_name = {r.name: r for r in reports}
    if by_name["rel3-zipper-unit"].verdict == FAIL:
        raise ValueError("restriction is not unital")
    ring = by_name["rel3-zipper-products"]
    if ring.verdict == FAIL:
        raise ValueError(f"restriction is not a ring map: {ring.witness.input_labels}")
    # manifold_from_cup has refused a FAIL of commutativity, associativity and
    # the biunital coFrobenius suite in both sectors; the rest is new here
    closed_reports = prefixed("closed-", run_entries(closed, ("cocommutativity",)))
    for rep in [*closed_reports, *reports]:
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


def _plus_range(k):
    """lam_+ on U^k: the sign and the exponents i of its terms."""
    if k >= 0:
        return 1, range(0, k + 1)
    return -1, range(k + 1, 0)


def _minus_range(k):
    """lam_- on U^k: the sign and the exponents i of its terms."""
    if k > 0:
        return 1, range(1, k)
    return -1, range(k, 1)


def _laurent_rules(with_a, shift):
    """The exponent rules of mu and lam: per map, its drift and its rules
    (input markers, output markers, sign), a marker "" standing for U^k
    and "A" for AU^k (module docstring)."""
    if not with_a:
        return ((0, ((("", ""), ("",), 1),)),
                (shift, ((("",), ("", ""), 1),)))
    return ((0, ((("", ""), ("",), 1),
                 (("A", ""), ("A",), 1),
                 (("", "A"), ("A",), 1))),
            (shift, ((("A",), ("A", "A"), 1),
                     (("",), ("A", ""), 1),
                     (("",), ("", "A"), -1))))


def _rule_text(inputs, outputs):
    return f"{' (x) '.join(m + 'U' for m in inputs)} -> {' (x) '.join(m + 'U' for m in outputs)}"


def _laurent_model(n, window_bound, laurent, with_a, counit, comps=("",), which=None,
                   field=QQ):
    """The exterior Laurent model on U (and A) with exponents in [-N, N]
    (`laurent`) or [0, N], one connected component per label suffix in
    `comps`; see the module docstring.  `which` picks the piecewise
    vector-field coefficients of the ordinary circle (None: coefficient 1
    wherever j is in range), and each component's name ends in its suffix
    and `which`."""
    N = window_bound
    ks = range(-N if laurent else 0, N + 1)
    lo, hi = ks[0], ks[-1]
    shift = 0 if n == 1 else -1
    lam_degree = 1 - 2 * n if with_a else 1 - n
    markers = ("", "A") if with_a else ("",)
    marker_degree = {"": 0, "A": -n}

    name = "(+)".join(f"{'' if with_a else 'Based'}{'Rabinowitz' if counit else ''}"
                      f"Loop(S{n}){comp}{which or ''}" for comp in comps)
    # over Q whatever `field` is: only the counit reads it (module docstring)
    module = GradedModule([(_u_label(k, m, comp), (n - 1) * k + marker_degree[m])
                           for comp in comps for m in markers for k in ks], name=name)
    space = TensorSpace((module,))
    space2 = TensorSpace((module, module))
    coerce, is_zero = module.field.coerce, module.field.is_zero
    # (marker)U^k of component c has index c * block + (k - lo) + offset[marker]
    offset = dict(zip(markers, (0, len(ks))))
    block = len(markers) * len(ks)
    starts = range(0, len(comps) * block, block)

    def checked(map_name, degree, arity, drift, rules):
        """(name, input markers, output markers, sign) per rule, once its
        arity, markers and degree balance are checked."""
        out = []
        for inputs, outputs, sign in rules:
            rule = f"{map_name} rule {_rule_text(inputs, outputs)}"
            if ((len(inputs), len(outputs)) != arity
                    or not {*inputs, *outputs} <= offset.keys()):
                raise ValueError(f"{name}: {rule} does not map {arity[0]} to {arity[1]} "
                                 f"factors of markers {markers}")
            balance = (sum(marker_degree[m] for m in outputs) + (n - 1) * drift
                       - sum(marker_degree[m] for m in inputs))
            if balance != degree:
                raise ValueError(f"{name}: {rule} has degree {balance}, not {degree}")
            out.append((rule, inputs, outputs, sign))
        return out

    def value(rule, c):
        v = coerce(c)
        if is_zero(v):
            raise ValueError(f"{name}: {rule} has coefficient {c}, zero in the field")
        return v

    (mu_drift, mu_rules), (lam_drift, lam_rules) = _laurent_rules(with_a, shift)
    mu_terms = [(offset[m1], offset[m2], offset[m], value(rule, sign))
                for rule, (m1, m2), (m,), sign in checked("mu", 0, (2, 1), mu_drift, mu_rules)]
    mu_entries = {}
    for start in starts:
        for i in ks:
            for j in range(max(lo, lo - mu_drift - i), min(hi, hi - mu_drift - i) + 1):
                ui, uj, uij = i - lo + start, j - lo + start, i + j + mu_drift - lo + start
                for oi, oj, o, v in mu_terms:
                    mu_entries[ui + oi, uj + oj] = {(uij + o,): v}

    def constant(k):
        return 1, range(max(lo, k + lam_drift - hi), min(hi, k + lam_drift - lo) + 1)

    coefficient = {"+": _plus_range, "-": _minus_range}.get(which, constant)
    rows = {}   # input marker -> its rules, rows in the order of their first rule
    for rule, (m,), (m1, m2), sign in checked("lam", lam_degree, (1, 2), lam_drift,
                                              lam_rules):
        rows.setdefault(m, []).append((rule, offset[m1], offset[m2], sign))
    lam_rows = []   # (k, exponents i, [(input offset, [(o1, o2, value), ...]), ...])
    for k in ks:
        c, rng = coefficient(k)
        if not rng:     # an empty sum: no row
            continue
        ends = (rng[0], rng[-1], k + lam_drift - rng[0], k + lam_drift - rng[-1])
        terms = []
        for m, group in rows.items():
            if not lo <= min(ends) <= max(ends) <= hi:
                raise ValueError(f"{name}: {group[0][0]} leaves the exponent range "
                                 f"[{lo}, {hi}] on {m}U^{k}")
            terms.append((offset[m], [(oi, oj, value(rule, c * sign))
                                      for rule, oi, oj, sign in group]))
        lam_rows.append((k, rng, terms))
    lam_entries = {}
    for start in starts:
        for k, rng, terms in lam_rows:
            for o, row_terms in terms:
                row = lam_entries[(k - lo + start + o,)] = {}
                for i in rng:
                    ui, uj = i - lo + start, k + lam_drift - i - lo + start
                    for oi, oj, v in row_terms:
                        row[ui + oi, uj + oj] = v
    mu = GradedMap._trusted(space2, space, 0, mu_entries)
    lam = GradedMap._trusted(space, space2, lam_degree, lam_entries)

    eta = Element(space, {(start - lo,): 1 for start in starts})
    eps = None
    if counit:
        eps = GradedMap(space, scalar_space(field), -lam_degree,
                        {(start + shift - lo + offset[markers[-1]],): {(): 1}
                         for start in starts})
    weights = dict(zip(module.labels, [k for _ in comps for _ in markers for k in ks]))
    return BialgebraData(module, mu, lam, eta, eps, WindowSpec(N, WINDOW_SLACK, weights))


def _check_odd(n):
    if n % 2 == 0 or n < 1:
        raise ValueError(f"only odd sphere dimensions are supported, got {n}")


def _check_sphere(n, window_bound):
    _check_odd(n)
    if n < 3:
        raise ValueError("use circle_models for n = 1")
    if window_bound < 3:
        raise ValueError("window bound must be >= 3")


def rabinowitz_loop_sphere(n, window_bound, field=QQ):
    """Rabinowitz loop homology of S^n (odd n >= 3) on the window
    |exponent| <= window_bound; biunital coFrobenius on window-valid inputs."""
    _check_sphere(n, window_bound)
    return _laurent_model(n, window_bound, laurent=True, with_a=True, counit=True,
                          field=field)


def loop_sphere(n, window_bound, field=QQ):
    """Ordinary loop homology of S^n (odd n >= 3): exponents >= 0, the sums
    restricted to i, j >= 0; unital infinitesimal anti-symmetric, no counit."""
    _check_sphere(n, window_bound)
    return _laurent_model(n, window_bound, laurent=False, with_a=True, counit=False,
                          field=field)


def based_rabinowitz_loop_sphere(n, window_bound, field=QQ):
    """Based Rabinowitz loop homology of S^n: Laurent algebra on U with
    lam(U^k) = sum_{i+j=k-1} U^i (x) U^j; biunital coFrobenius."""
    _check_sphere(n, window_bound)
    return _laurent_model(n, window_bound, laurent=True, with_a=False, counit=True,
                          field=field)


def based_loop_sphere(n, window_bound, field=QQ):
    """Based loop homology of S^n: polynomial algebra on U, sums over
    i, j >= 0; no counit."""
    _check_sphere(n, window_bound)
    return _laurent_model(n, window_bound, laurent=False, with_a=False, counit=False,
                          field=field)


# ------------------------------------------------------------- the circle

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
    if flavor in ("rabinowitz", "based-rabinowitz"):
        return _laurent_model(1, window_bound, laurent=True, with_a=flavor == "rabinowitz",
                              counit=True, comps=("+", "-"), field=field)
    if flavor in ("loop", "based-loop"):
        return _laurent_model(1, window_bound, laurent=True, with_a=flavor == "loop",
                              counit=False, which=which, field=field)
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
