"""Products, coproducts, (co)units, and the bialgebra axiom checkers.

A BialgebraData bundles a graded module A with a product mu: A(x)A -> A,
a coproduct lam: A -> A(x)A, an optional unit eta in A and an optional
counit eps: A -> R, plus an optional truncation window.  The derived
copairing and pairing are

    c = (-1)^{|lam||mu| + |mu|} lam(eta),      p = (-1)^{|lam|} eps mu.

Every axiom is decided by exact map equality, expanding both sides on
each basis tuple.  Sign conventions (|m| = |mu|, |l| = |lam|):

    commutativity       mu tau = (-1)^m mu
    associativity       mu(mu(x)1) = (-1)^m mu(1(x)mu)
    unit                (-1)^m mu(eta(x)1) = 1 = mu(1(x)eta)
    cocommutativity     tau lam = (-1)^l lam
    coassociativity     (lam(x)1)lam = (-1)^l (1(x)lam)lam
    counit              (eps(x)1)lam = 1 = (-1)^l (1(x)eps)lam

together with the unital/counital/biunital infinitesimal relations, the
six-term anti-symmetry relations and their S-operator reformulation, the
coFrobenius relations and their derived identities, and the cyclic
symmetries of (1(x)mu(x)1)(c(x)c) and (p(x)p)(1(x)lam(x)1).

Each relation is written once, as an entry of `RELATIONS`: what it needs
(the unit eta, the counit eps, or both) and its builder over `_Ops`.
Every checker and suite is a tuple of entry names, such as `PRODUCT_LAWS`
or `("unital-infinitesimal",)`, run by `run_entries`: it makes one
`_Ops`, gives a skipped report named after each entry whose need is
missing (noting the unit before the counit), and checks the other
relations in one `check_relations` call.  The named checkers below
(`check_cofrobenius`, `check_derived_identities`, `check_involutive`)
pick the tuple from a flavor or from the maps the data has.  `_Ops`
builds each operator when a builder first reads it, so a suite builds
only the operators of the relations it checks.
"""

from functools import cached_property

from .core import (TensorSpace, Element, GradedMap, compose, element_as_map,
                   scalar_space)
from .tensor import Permutation, permute, twist
from .reports import Relation, check_relations, skipped, solve_map, FAIL
from .windows import merge_windows


def sgn(e):
    return -1 if e % 2 else 1


class BialgebraData:
    def __init__(self, module, mu, lam, eta=None, eps=None, window=None):
        self.module = module
        self.space = TensorSpace((module,))
        self.space2 = TensorSpace((module, module))
        self.space3 = TensorSpace((module, module, module))
        if mu is not None and (mu.source != self.space2 or mu.target != self.space):
            raise ValueError("mu must map A(x)A -> A")
        if lam is not None and (lam.source != self.space or lam.target != self.space2):
            raise ValueError("lam must map A -> A(x)A")
        if eta is not None and eta.space != self.space:
            raise ValueError("eta must be an element of A")
        if eps is not None and (eps.source != self.space or eps.target.arity != 0):
            raise ValueError("eps must map A -> R")
        self._mu = mu
        self._lam = lam
        self.eta = eta
        self.eps = eps
        self.window = window
        self.field = module.field

    mu = property(lambda self: self._present(self._mu, "mu"))
    lam = property(lambda self: self._present(self._lam, "lambda"))

    def _present(self, gmap, name):
        """`gmap`, or the refusal of data that lacks it, named as documents do."""
        if gmap is None:
            raise ValueError(f"{self.module.name or 'structure'} has no map {name}")
        return gmap

    def eta_map(self):
        """eta as a map R -> A of degree |eta| = -|mu|."""
        return element_as_map(self.eta, degree=-self.mu.degree)

    def eps_mu(self):
        """The unsigned map eps mu : A(x)A -> R."""
        return compose(self.eps, self.mu)

    def copairing(self):
        """c = (-1)^{|lam||mu| + |mu|} lam(eta)."""
        l, m = self.lam.degree, self.mu.degree
        return self.lam(self.eta).scale(sgn(l * m + m))

    def copairing_map(self):
        return element_as_map(self.copairing(), degree=self.lam.degree - self.mu.degree)

    def pairing(self):
        """p = (-1)^{|lam|} eps mu."""
        return self.eps_mu().scale(sgn(self.lam.degree))

    def replace(self, **kw):
        args = dict(module=self.module, mu=self._mu, lam=self._lam,
                    eta=self.eta, eps=self.eps, window=self.window)
        args.update(kw)
        return BialgebraData(**args)

    def __repr__(self):
        parts = [p for p, v in [("mu", self._mu), ("lam", self._lam),
                                ("eta", self.eta), ("eps", self.eps)] if v is not None]
        return f"BialgebraData({self.module.name or self.module!r}; {', '.join(parts)})"


class _Ops:
    """The building blocks of the relation pipelines of one structure, one
    context per structure per job: the runner (`run_entries`) makes one for
    a suite call, and a job that checks more than one suite on a structure
    (`duality.check_poincare_duality`, `duality.transpose_structure`)
    makes one and hands it to `require_cofrobenius`, `run_entries` and the
    `MORPHISMS` builders alike.  A context is never cached on the data:
    it points back to it, and a cache on the data that held one made a
    reference cycle that grew the window-suites RSS pass by pass (ROADMAP,
    measured dead ends).  `tau` is the twist A(x)A -> A(x)A when the
    caller has already built it, as the Poincare dual structure has.

    Each operator is built on its first read, so a call pays only for what
    its relations read, and reading mu or lam refuses data that lacks it
    (`BialgebraData._present`).  Only relations that need a unit read the
    unit group (`eta_map`, `lh` = lam eta, the copairing map `c_map`) and
    only those that need a counit read the pairing group (`pm` = eps mu,
    `p_map`).  An identity between elements reads the element's map out
    of R.  Only `eta_map` is built here, when the data has eta and mu: its
    validating constructor refuses an eta of the wrong degree, whichever
    relations the call reads."""

    def __init__(self, data, tau=None):
        self.data = data
        if tau is not None:
            self.tau = tau
        if data.eta is not None and data._mu is not None:
            self.eta_map = data.eta_map()

    mu = cached_property(lambda o: o.data.mu)
    lam = cached_property(lambda o: o.data.lam)
    m = cached_property(lambda o: o.mu.degree)
    l = cached_property(lambda o: o.lam.degree)
    id = cached_property(lambda o: GradedMap.identity(o.data.space))
    tau = cached_property(lambda o: twist(o.data.module, o.data.module))
    tl = cached_property(lambda o: compose(o.tau, o.lam))
    mt = cached_property(lambda o: compose(o.mu, o.tau))
    eta_map = cached_property(lambda o: o.data.eta_map())
    lh = cached_property(lambda o: compose(o.lam, o.eta_map))
    c_map = cached_property(lambda o: o.lh.scale(sgn(o.l * o.m + o.m)))
    pm = cached_property(lambda o: o.data.eps_mu())
    p_map = cached_property(lambda o: o.pm.scale(sgn(o.l)))
    sigma = cached_property(lambda o: permute(Permutation.cycle(3, [1, 2, 3]), o.data.space3))
    tau12 = cached_property(
        lambda o: permute(Permutation.transposition(3, 1, 2), o.data.space3))


# ---------------------------------------------------------- the relation table

def _s_terms(o):
    """The S-operator S = (mu(x)1)(1(x)tau lam) - (-1)^{|mu|} (1(x)mu)(tau lam(x)1),
    of degree |mu|+|lam|, as a signed sum of pipelines, never materialized
    on A(x)A(x)A.

    "anti-symmetry-S-operator" states tau S tau = -(-1)^{|lam|} S.  The
    Koszul derivation, with m = |mu|, l = |lam|, ab = mu(a(x)b),
    lam(x) = x_1 (x) x_2 (summed) and (f(x)g)(a(x)b) = (-1)^{|g||a|} f(a)(x)g(b):

    1. On a(x)b the two terms of S are
         (mu(x)1)(1(x)tau lam):  (-1)^{l|a| + |b_1||b_2|} a b_2 (x) b_1,
         (1(x)mu)(tau lam(x)1):  (-1)^{|a_1||a_2| + m|a_2|} a_2 (x) a_1 b.
    2. Conjugating by tau(a(x)b) = (-1)^{|a||b|} b(x)a, they become
         (-1)^{|a||b| + l|b| + |b||a_1| + m|a_1|} a_1 (x) b a_2,
         (-1)^{|a||b| + |a||b_2|} b_1 a (x) b_2.
    3. Graded commutativity, mu tau = (-1)^m mu, that is
       ba = (-1)^{m + |a||b|} ab, is the one step that needs it.  With
       |x_1| + |x_2| = |x| + l it turns them into (-1)^m (1(x)mu)(lam(x)1)
       and (-1)^m (mu(x)1)(1(x)lam), so
         tau S tau = (-1)^m (1(x)mu)(lam(x)1) - (mu(x)1)(1(x)lam).
    4. Put tau lam = (-1)^l lam + D into S:
         tau S tau + (-1)^l S = (-1)^l ((mu(x)1)(1(x)D) - (-1)^m (1(x)mu)(D(x)1)).

    So on graded commutative data the sign -(-1)^l makes the relation hold
    wherever lam is graded cocommutative (D = 0).  With the sign
    -(-1)^{m+l} the residual would gain -2(-1)^l S for odd m, so there it
    would demand S = 0.  With a unit and D(eta) = 0 (twist-of-lam-eta),
    the right side at eta (x) b is +-D(b), so the relation then forces
    D = 0 too."""
    return [(1, [[o.id, o.tl], [o.mu, o.id]]),
            (-sgn(o.m), [[o.tl, o.id], [o.id, o.mu]])]


def _beta(o):
    """beta = (1(x)mu(x)1)(c(x)c): R -> A(x)A(x)A, as a pipeline."""
    return [[o.c_map, o.c_map], [o.id, o.mu, o.id]]


def _big_b(o):
    """B = (p(x)p)(1(x)lam(x)1): A(x)A(x)A -> R, as a pipeline."""
    return [[o.id, o.lam, o.id], [o.p_map, o.p_map]]


_ETA, _EPS, _BOTH = ("eta",), ("eps",), ("eta", "eps")
_MISSING = {"eta": "no unit present", "eps": "no counit present"}

# name -> (needs, builder).  A builder over (data, _Ops) gives the
# relation's (source, lhs, rhs), or a list of relations: the left and right
# laws of `unit` and `counit`.  An identity between elements is a relation
# on the scalar space R, whose pipelines start at the element's map R -> V.
RELATIONS = {
    "associativity": ((), lambda d, o: (
        d.space3,
        [(1, [[o.mu, o.id], [o.mu]])],
        [(sgn(o.m), [[o.id, o.mu], [o.mu]])])),
    "commutativity": ((), lambda d, o: (
        d.space2, [(1, [[o.tau], [o.mu]])], [(sgn(o.m), [[o.mu]])])),
    "unit": (_ETA, lambda d, o: [
        Relation("unit-left", d.space, [(sgn(o.m), [[o.eta_map, o.id], [o.mu]])],
                 [(1, [])]),
        Relation("unit-right", d.space, [(1, [[o.id, o.eta_map], [o.mu]])], [(1, [])])]),
    "coassociativity": ((), lambda d, o: (
        d.space,
        [(1, [[o.lam], [o.lam, o.id]])],
        [(sgn(o.l), [[o.lam], [o.id, o.lam]])])),
    "cocommutativity": ((), lambda d, o: (
        d.space, [(1, [[o.lam], [o.tau]])], [(sgn(o.l), [[o.lam]])])),
    "counit": (_EPS, lambda d, o: [
        Relation("counit-left", d.space, [(1, [[o.lam], [d.eps, o.id]])], [(1, [])]),
        Relation("counit-right", d.space, [(sgn(o.l), [[o.lam], [o.id, d.eps]])],
                 [(1, [])])]),

    # the infinitesimal relations and their bridges
    "unital-infinitesimal": (_ETA, lambda d, o: (
        d.space2,
        [(1, [[o.mu], [o.lam]])],
        [(sgn(o.l * o.m), [[o.lam, o.id], [o.id, o.mu]]),
         (sgn(o.l * o.m), [[o.id, o.lam], [o.mu, o.id]]),
         (-sgn(o.m), [[o.id, o.lh, o.id], [o.mu, o.mu]])])),
    "counital-infinitesimal": (_EPS, lambda d, o: (
        d.space2,
        [(1, [[o.mu], [o.lam]])],
        [(sgn(o.l * o.m), [[o.lam, o.id], [o.id, o.mu]]),
         (sgn(o.l * o.m), [[o.id, o.lam], [o.mu, o.id]]),
         (-sgn(o.l), [[o.lam, o.lam], [o.id, o.pm, o.id]])])),
    "biunital-bridge": (_BOTH, lambda d, o: (
        d.space2,
        [(sgn(o.l), [[o.lam, o.lam], [o.id, o.pm, o.id]])],
        [(sgn(o.m), [[o.id, o.lh, o.id], [o.mu, o.mu]])])),
    "biunital-anti-bridge-1": (_BOTH, lambda d, o: (
        d.space2,
        [(1, [[o.id, o.lh, o.id], [o.mt, o.mu]])],
        [(1, [[o.tl, o.lam], [o.id, o.pm, o.id]])])),
    "biunital-anti-bridge-2": (_BOTH, lambda d, o: (
        d.space2,
        [(1, [[o.id, o.lh, o.id], [o.mu, o.mt]])],
        [(1, [[o.lam, o.tl], [o.id, o.pm, o.id]])])),

    # the six-term anti-symmetry relations and their consequences
    "unital-anti-symmetry": (_ETA, lambda d, o: (
        d.space2,
        [(sgn(o.m * (o.l + 1)), [[o.tl, o.id], [o.id, o.mu]]),
         (sgn(o.l * (o.m + 1)), [[o.id, o.lam], [o.mt, o.id]]),
         (-sgn(o.l + o.m), [[o.id, o.lh, o.id], [o.mt, o.mu]])],
        [(sgn(o.l * o.m), [[o.lam, o.id], [o.id, o.mt], [o.tau]]),
         (-sgn((o.l + 1) * (o.m + 1)), [[o.id, o.tl], [o.mu, o.id], [o.tau]]),
         (-sgn(o.m), [[o.id, o.lh, o.id], [o.mu, o.mt], [o.tau]])])),
    "anti-symmetry-S-operator": (_ETA, lambda d, o: (
        d.space2,
        [(sign, [[o.tau], *stages, [o.tau]]) for sign, stages in _s_terms(o)],
        [(-sgn(o.l) * sign, stages) for sign, stages in _s_terms(o)])),
    "twist-of-lam-eta": (_ETA, lambda d, o: (
        scalar_space(d.field), [(1, [[o.lh], [o.tau]])], [(sgn(o.l), [[o.lh]])])),
    "counital-anti-symmetry": (_EPS, lambda d, o: (
        d.space2,
        [(sgn(o.m * (o.l + 1)), [[o.tl, o.id], [o.id, o.mu]]),
         (sgn(o.l * (o.m + 1)), [[o.id, o.lam], [o.mt, o.id]]),
         (-sgn(o.l + o.m), [[o.tl, o.lam], [o.id, o.pm, o.id]])],
        [(sgn(o.l * o.m), [[o.lam, o.id], [o.id, o.mt], [o.tau]]),
         (-sgn((o.l + 1) * (o.m + 1)), [[o.id, o.tl], [o.mu, o.id], [o.tau]]),
         (-sgn(o.l), [[o.tau], [o.lam, o.tl], [o.id, o.pm, o.id]])])),
    "eps-mu-twist": (_EPS, lambda d, o: (
        d.space2, [(1, [[o.tau], [o.pm]])], [(sgn(o.m), [[o.pm]])])),

    # the coFrobenius relations (see `check_cofrobenius`)
    "unital-cofrobenius-left": (_ETA, lambda d, o: (
        d.space, [(1, [[o.lam]])], [(1, [[o.c_map, o.id], [o.id, o.mu]])])),
    "unital-cofrobenius-right": (_ETA, lambda d, o: (
        d.space, [(1, [[o.lam]])], [(sgn(o.m), [[o.id, o.c_map], [o.mu, o.id]])])),
    "copairing-symmetry": (_ETA, lambda d, o: (
        scalar_space(d.field), [(1, [[o.c_map], [o.tau]])], [(sgn(o.l), [[o.c_map]])])),
    "counital-cofrobenius-left": (_EPS, lambda d, o: (
        d.space2,
        [(1, [[o.mu]])],
        [(sgn(o.m * o.l + o.l), [[o.id, o.lam], [o.p_map, o.id]])])),
    "counital-cofrobenius-right": (_EPS, lambda d, o: (
        d.space2, [(1, [[o.mu]])], [(sgn(o.m * o.l), [[o.lam, o.id], [o.id, o.p_map]])])),
    "pairing-symmetry": (_EPS, lambda d, o: (
        d.space2, [(1, [[o.tau], [o.p_map]])], [(sgn(o.m), [[o.p_map]])])),

    # the derived identities of the coFrobenius propositions
    "derived-c-c-triple": (_ETA, lambda d, o: (
        scalar_space(d.field),
        [(1, [[o.c_map, o.c_map], [o.id, o.mu, o.id]])],
        [(1, [[o.c_map], [o.lam, o.id]])])),
    "derived-lam-c-symmetric": (_ETA, lambda d, o: (
        scalar_space(d.field),
        [(1, [[o.c_map], [o.lam, o.id]])],
        [(sgn(o.l), [[o.c_map], [o.id, o.lam]])])),
    "derived-four-way-a": ((), lambda d, o: (
        d.space2,
        [(1, [[o.lam, o.id], [o.id, o.mu]])],
        [(1, [[o.id, o.lam], [o.mu, o.id]])])),
    "derived-four-way-b": (_ETA, lambda d, o: (
        d.space2,
        [(1, [[o.id, o.lam], [o.mu, o.id]])],
        [(1, [[o.id, o.c_map, o.id], [o.mu, o.mu]])])),
    "derived-four-way-c": (_ETA, lambda d, o: (
        d.space2,
        [(1, [[o.id, o.c_map, o.id], [o.mu, o.mu]])],
        [(sgn(o.l * o.m), [[o.mu], [o.lam]])])),
    "derived-p-p-triple": (_EPS, lambda d, o: (
        d.space3,
        [(sgn(o.p_map.degree * o.m), [[o.id, o.lam, o.id], [o.p_map, o.p_map]])],
        [(1, [[o.mu, o.id], [o.p_map]])])),
    "derived-p-mu-symmetric": (_EPS, lambda d, o: (
        d.space3,
        [(1, [[o.mu, o.id], [o.p_map]])],
        [(sgn(o.m), [[o.id, o.mu], [o.p_map]])])),
    "derived-lam-lam-p": (_EPS, lambda d, o: (
        d.space2,
        [(1, [[o.lam, o.lam], [o.id, o.p_map, o.id]])],
        [(1, [[o.mu], [o.lam]])])),
    "derived-eps-from-p-eta": (_BOTH, lambda d, o: (
        d.space, [(sgn(o.l), [[d.eps]])], [(1, [[o.id, o.eta_map], [o.p_map]])])),
    "derived-p-eta-sides": (_BOTH, lambda d, o: (
        d.space,
        [(1, [[o.id, o.eta_map], [o.p_map]])],
        [(sgn(o.m), [[o.eta_map, o.id], [o.p_map]])])),
    "derived-eta-from-eps-c": (_BOTH, lambda d, o: (
        scalar_space(d.field),
        [(sgn(o.l * o.m + o.m), [[o.eta_map]])],
        [(1, [[o.c_map], [d.eps, o.id]])])),
    "derived-eps-c-sides": (_BOTH, lambda d, o: (
        scalar_space(d.field),
        [(1, [[o.c_map], [d.eps, o.id]])],
        [(sgn(o.l), [[o.c_map], [o.id, d.eps]])])),
    "derived-p-c-left-inverse": (_BOTH, lambda d, o: (
        d.space, [(1, [[o.c_map, o.id], [o.id, o.p_map]])], [(1, [])])),
    "derived-p-c-right-inverse": (_BOTH, lambda d, o: (
        d.space, [(sgn(o.l + o.m), [[o.id, o.c_map], [o.p_map, o.id]])], [(1, [])])),

    # involutivity and its cross-checks
    "involutive-mu-lam": ((), lambda d, o: (d.space, [(1, [[o.lam], [o.mu]])], [])),
    "involutive-mu-c": (_ETA, lambda d, o: (
        scalar_space(d.field), [(1, [[o.c_map], [o.mu]])], [])),
    "involutive-p-lam": (_EPS, lambda d, o: (d.space, [(1, [[o.lam], [o.p_map]])], [])),

    # the cyclic symmetries of beta and B, and their tau_12 refinements
    "beta-cyclic": (_ETA, lambda d, o: (
        scalar_space(d.field), [(1, [*_beta(o), [o.sigma]])], [(1, _beta(o))])),
    "beta-tau12": (_ETA, lambda d, o: (
        scalar_space(d.field), [(1, [*_beta(o), [o.tau12]])], [(sgn(o.l), _beta(o))])),
    "B-cyclic": (_EPS, lambda d, o: (
        d.space3, [(1, [[o.sigma], *_big_b(o)])], [(1, _big_b(o))])),
    "B-tau12": (_EPS, lambda d, o: (
        d.space3, [(1, [[o.tau12], *_big_b(o)])], [(sgn(o.m), _big_b(o))])),
}

# name -> the entry, of no need, that must pass for the name's relation to
# be reported: a tau_12 refinement of a cyclic symmetry is stated only on
# (co)commutative data.
GATES = {"beta-tau12": "cocommutativity", "B-tau12": "commutativity"}


# name -> (needs, builder) for a map phi: A -> B.  A builder over phi and
# the `_Ops` of A and B gives the relation's (source, lhs, rhs): phi is an
# algebra map by the first two entries and a coalgebra map by the last two.
MORPHISMS = {
    "intertwines-product": ((), lambda phi, a, b: (
        a.data.space2,
        [(1, [[a.mu], [phi]])],
        [(sgn(phi.degree * a.m), [[phi, phi], [b.mu]])])),
    "unit-transport": (_ETA, lambda phi, a, b: (
        scalar_space(a.data.field),
        [(1, [[b.eta_map]])],
        [(sgn(phi.degree), [[a.eta_map], [phi]])])),
    "intertwines-coproduct": ((), lambda phi, a, b: (
        a.data.space,
        [(1, [[a.lam], [phi, phi]])],
        [(sgn(phi.degree * a.l), [[phi], [b.lam]])])),
    "counit-transport": (_EPS, lambda phi, a, b: (
        a.data.space, [(1, [[a.data.eps]])], [(1, [[phi], [b.data.eps]])])),
}


def _missing(data, needs):
    """The first of `needs` that `data` lacks, or None."""
    return next((need for need in needs if getattr(data, need) is None), None)


def _morphisms(phi, a, b, names, prefix=""):
    """The relations of the `MORPHISMS` entries `names` for phi from the
    structure of the `_Ops` a to that of b, each named with `prefix`.  An
    entry whose need either structure lacks is left out."""
    return [Relation(prefix + name, *MORPHISMS[name][1](phi, a, b)) for name in names
            if not any(_missing(o.data, MORPHISMS[name][0]) for o in (a, b))]


def _available(data, names):
    """The entries of `names` whose needs `data` has."""
    return [name for name in names if _missing(data, RELATIONS[name][0]) is None]


def run_entries(data, names, o=None):
    """The reports of the entries `names` on `data`, in order.

    An entry whose need is missing gives one skipped report under its own
    name.  The relations of the others, and the gates (`GATES`) of those
    that have one, are checked in one `check_relations` call; an entry
    with a gate is reported only where its gate passes, and the gates'
    own reports are not returned.  `o` is the data's `_Ops` when the
    caller already has them."""
    o = o or _Ops(data)
    items, gates = [], {}
    for name in names:
        missing = _missing(data, RELATIONS[name][0])
        if missing is not None:
            items.append(skipped(name, _MISSING[missing]))
            continue
        built = RELATIONS[name][1](data, o)
        items.extend(built if isinstance(built, list) else [Relation(name, *built)])
        if name in GATES:
            gates[name] = Relation(GATES[name], *RELATIONS[GATES[name]][1](data, o))
    reports = _checked(items + list(gates.values()), data.window)
    passed = {r.name for r in reports[len(items):] if r.passed}
    return [r for r in reports[:len(items)] if r.name not in gates or GATES[r.name] in passed]


def _checked(items, window):
    """The report of each item, in order.  The `Relation` items are checked
    together in one `check_relations` call; the others pass through: the
    skipped reports, and the callables of `tqft.TQFT_RELATIONS` that make
    their report from the call's."""
    specs = [item for item in items if isinstance(item, Relation)]
    reports = iter(check_relations(specs, window))
    return [next(reports) if isinstance(item, Relation) else item for item in items]


# ------------------------------------------------------ suites of the table

PRODUCT_LAWS = ("associativity", "commutativity", "unit")
COPRODUCT_LAWS = ("coassociativity", "cocommutativity", "counit")
UNITAL_ANTISYMMETRY = ("unital-anti-symmetry", "anti-symmetry-S-operator",
                       "twist-of-lam-eta")
COUNITAL_ANTISYMMETRY = ("counital-anti-symmetry", "eps-mu-twist")
BIUNITAL_INFINITESIMAL = ("unital-infinitesimal", "counital-infinitesimal",
                          "biunital-bridge", "biunital-anti-bridge-1",
                          "biunital-anti-bridge-2", *UNITAL_ANTISYMMETRY,
                          *COUNITAL_ANTISYMMETRY)
_UNITAL_COFROBENIUS = ("unital-cofrobenius-left", "unital-cofrobenius-right",
                       "copairing-symmetry")
_COUNITAL_COFROBENIUS = ("counit", "counital-cofrobenius-left",
                         "counital-cofrobenius-right", "pairing-symmetry")
COFROBENIUS = {
    "unital": ("associativity", "unit", "coassociativity", *_UNITAL_COFROBENIUS),
    "counital": ("associativity", "coassociativity", *_COUNITAL_COFROBENIUS),
    "biunital": ("associativity", "unit", "coassociativity", *_UNITAL_COFROBENIUS,
                 *_COUNITAL_COFROBENIUS),
}
_UNITAL_DERIVED = ("derived-c-c-triple", "derived-lam-c-symmetric", "derived-four-way-a",
                   "derived-four-way-b", "derived-four-way-c")
_COUNITAL_DERIVED = ("derived-p-p-triple", "derived-p-mu-symmetric", "derived-lam-lam-p")
DERIVED_IDENTITIES = {
    "unital": _UNITAL_DERIVED,
    "counital": _COUNITAL_DERIVED,
    "biunital": (*_UNITAL_DERIVED, *_COUNITAL_DERIVED, "derived-eps-from-p-eta",
                 "derived-p-eta-sides", "derived-eta-from-eps-c", "derived-eps-c-sides",
                 "derived-p-c-left-inverse", "derived-p-c-right-inverse"),
}
INVOLUTIVE = ("involutive-mu-lam", "involutive-mu-c", "involutive-p-lam")
CYCLIC = ("beta-cyclic", "beta-tau12", "B-cyclic", "B-tau12")


def check_cofrobenius(data, flavor="biunital"):
    """The defining relations of the requested coFrobenius flavor.

    unital:   lam = (1(x)mu)(c(x)1) = (-1)^m (mu(x)1)(1(x)c), tau c = (-1)^l c
    counital: mu = (-1)^{ml+l}(p(x)1)(1(x)lam) = (-1)^{ml}(1(x)p)(lam(x)1),
              p tau = (-1)^m p
    plus unit/counit laws and (co)associativity for the flavor.  Relations
    that need a missing unit or counit are skipped.
    """
    if flavor not in COFROBENIUS:
        raise ValueError(f"unknown coFrobenius flavor {flavor!r}")
    return run_entries(data, COFROBENIUS[flavor])


def require_cofrobenius(data, refusal, checked=(), o=None):
    """Raise ValueError(f"{refusal} {name}") with the name of the first
    biunital coFrobenius relation that `data` fails.  `checked` holds
    reports the caller has already made on `data`'s maps and window of
    entries of that suite that check one relation under their own name
    (such as associativity); those entries are not checked again, and
    their reports are read first.  `o` is the data's `_Ops` when the
    caller goes on to use them (see `run_entries`)."""
    done = {r.name for r in checked}
    reports = run_entries(
        data, [name for name in COFROBENIUS["biunital"] if name not in done], o)
    bad = next((r for r in [*checked, *reports] if r.verdict == FAIL), None)
    if bad is not None:
        raise ValueError(f"{refusal} {bad.name}")


def check_derived_identities(data, flavor="biunital"):
    """The derived identities of the coFrobenius propositions.  Relations
    that need a missing unit or counit are skipped."""
    if flavor not in DERIVED_IDENTITIES:
        raise ValueError(f"unknown coFrobenius flavor {flavor!r}")
    return run_entries(data, DERIVED_IDENTITIES[flavor])


def check_involutive(data):
    """mu lam = 0; for unital coFrobenius data also cross-checks mu c = 0,
    for counital also p lam = 0 (equivalent formulations).  The cross-checks
    the data lacks the maps for are left out, not skipped."""
    return run_entries(data, _available(data, INVOLUTIVE))


def direct_sum(d1, d2):
    """Block-diagonal sum: mu, lam act componentwise, eta = (eta1, eta2),
    eps = eps1 + eps2."""
    if d1.field != d2.field:
        raise ValueError("direct sum needs the same coefficient field")
    for attr in ("eta", "eps"):
        if (getattr(d1, attr) is None) != (getattr(d2, attr) is None):
            raise ValueError(f"direct sum flavor mismatch: {attr} present on one side only")
    if (d1.mu.degree, d1.lam.degree) != (d2.mu.degree, d2.lam.degree):
        raise ValueError("direct sum needs matching structure degrees")
    a, b = d1.module, d2.module
    from .core import GradedModule
    module = GradedModule(list(zip(a.labels, a.degrees)) + list(zip(b.labels, b.degrees)),
                          field=d1.field,
                          name=f"{a.name}(+){b.name}" if a.name or b.name else "")
    off = a.dim
    sp1 = TensorSpace((module,))
    sp2 = TensorSpace((module, module))

    def lift(idx):
        return tuple(i + off for i in idx)

    def lifted(f1, f2):
        """f1's entries, then f2's moved past A1's basis."""
        entries = dict(f1.entries)
        entries.update({lift(src): {lift(dst): v for dst, v in row.items()}
                        for src, row in f2.entries.items()})
        return entries

    # The components' entries are validated, their supports are disjoint,
    # the offset keeps each degree and the fields are equal, so the lifted
    # mu and lam need no re-validation.
    mu = GradedMap._trusted(sp2, sp1, d1.mu.degree, lifted(d1.mu, d2.mu))
    lam = GradedMap._trusted(sp1, sp2, d1.lam.degree, lifted(d1.lam, d2.lam))

    eta = None
    if d1.eta is not None:
        coeffs = dict(d1.eta.coeffs)
        coeffs.update({lift(idx): v for idx, v in d2.eta.coeffs.items()})
        eta = Element(sp1, coeffs)
    eps = None
    if d1.eps is not None:
        # The counits' degrees are not compared, so the sum is validated.
        eps = GradedMap(sp1, scalar_space(d1.field), d1.eps.degree, lifted(d1.eps, d2.eps))

    return BialgebraData(module, mu, lam, eta, eps, merge_windows(d1.window, d2.window))


def counit_solve(data):
    """Solve (eps(x)1)lam = 1 = (-1)^l (1(x)eps)lam exactly for eps: the
    `RELATIONS` entry "counit", solved by `solve_map`.

    Returns the counit as a GradedMap A -> R, or None when the linear
    system is infeasible.  On window models only window-valid equations
    are used, so infeasibility of the restricted system certifies
    infeasibility of the full one.  A window that keeps no equation
    determines nothing and raises ValueError.
    """
    o = _Ops(data)
    return solve_map("counit", data.space, scalar_space(data.field), -o.l,
                     lambda eps: RELATIONS["counit"][1](data.replace(eps=eps), o),
                     data.window)
