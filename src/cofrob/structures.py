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
six-term anti-symmetry relations and their S-operator reformulation, and
the coFrobenius relations.
"""

from .core import (TensorSpace, Element, GradedMap, compose, element_as_map,
                   scalar_space)
from .tensor import twist
from .reports import Relation, check_relations, check_elements_equal, skipped


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
        self.mu = mu
        self.lam = lam
        self.eta = eta
        self.eps = eps
        self.window = window
        self.field = module.field

    def eta_map(self):
        """eta as a map R -> A of degree |eta| = -|mu|."""
        return element_as_map(self.eta, degree=-self.mu.degree)

    def lam_eta(self):
        """The unsigned element lam(eta)."""
        return self.lam(self.eta)

    def eps_mu(self):
        """The unsigned map eps mu : A(x)A -> R."""
        return compose(self.eps, self.mu)

    def copairing(self):
        """c = (-1)^{|lam||mu| + |mu|} lam(eta)."""
        l, m = self.lam.degree, self.mu.degree
        return self.lam_eta().scale(sgn(l * m + m))

    def copairing_map(self):
        return element_as_map(self.copairing(), degree=self.lam.degree - self.mu.degree)

    def pairing(self):
        """p = (-1)^{|lam|} eps mu."""
        return self.eps_mu().scale(sgn(self.lam.degree))

    def replace(self, **kw):
        args = dict(module=self.module, mu=self.mu, lam=self.lam,
                    eta=self.eta, eps=self.eps, window=self.window)
        args.update(kw)
        return BialgebraData(**args)

    def __repr__(self):
        parts = [p for p, v in [("mu", self.mu), ("lam", self.lam),
                                ("eta", self.eta), ("eps", self.eps)] if v is not None]
        return f"BialgebraData({self.module.name or self.module!r}; {', '.join(parts)})"


class _Ops:
    """Precomputed building blocks for the relation pipelines.

    A checker takes them as `o` from a caller that built them for the same
    data and builds its own otherwise, so that one suite call builds them
    once.  They are never cached on the data: they point back to it."""

    def __init__(self, data):
        self.data = data
        self.id = GradedMap.identity(data.space)
        self.tau = twist(data.module, data.module)
        self.mu = data.mu
        self.lam = data.lam
        self.m = data.mu.degree if data.mu is not None else 0
        self.l = data.lam.degree if data.lam is not None else 0
        if data.lam is not None:
            self.tl = compose(self.tau, data.lam)
        if data.mu is not None:
            self.mt = compose(data.mu, self.tau)
        self.lh = self.c_map = self.eta_map = self.lam_eta = self.c = None
        self.pm = self.p_map = None
        if data.eta is not None and data.mu is not None and data.lam is not None:
            # lam(eta) is computed once, from validated maps; eta_map's own
            # check guards the degree of eta.
            self.eta_map = data.eta_map()
            self.lh = compose(data.lam, self.eta_map)
            self.c_map = self.lh.scale(sgn(self.l * self.m + self.m))
            self.lam_eta = Element._trusted(data.space2, self.lh.entries.get((), {}))
            self.c = Element._trusted(data.space2, self.c_map.entries.get((), {}))
        if data.eps is not None and data.mu is not None:
            self.pm = data.eps_mu()
            self.p_map = self.pm.scale(sgn(self.l))


def _associativity(data, o):
    return Relation("associativity", data.space3,
                    [(1, [[o.mu, o.id], [o.mu]])],
                    [(sgn(o.m), [[o.id, o.mu], [o.mu]])])


def _commutativity(data, o):
    return Relation("commutativity", data.space2,
                    [(1, [[o.tau], [o.mu]])],
                    [(sgn(o.m), [[o.mu]])])


def _unit(data, o):
    if data.eta is None:
        return [skipped("unit", "no unit present")]
    return [Relation("unit-left", data.space,
                     [(sgn(o.m), [[o.eta_map, o.id], [o.mu]])],
                     [(1, [])]),
            Relation("unit-right", data.space,
                     [(1, [[o.id, o.eta_map], [o.mu]])],
                     [(1, [])])]


def _coassociativity(data, o):
    return Relation("coassociativity", data.space,
                    [(1, [[o.lam], [o.lam, o.id]])],
                    [(sgn(o.l), [[o.lam], [o.id, o.lam]])])


def _cocommutativity(data, o):
    return Relation("cocommutativity", data.space,
                    [(1, [[o.lam], [o.tau]])],
                    [(sgn(o.l), [[o.lam]])])


def _counit(data, o):
    if data.eps is None:
        return [skipped("counit", "no counit present")]
    return [Relation("counit-left", data.space,
                     [(1, [[o.lam], [data.eps, o.id]])],
                     [(1, [])]),
            Relation("counit-right", data.space,
                     [(sgn(o.l), [[o.lam], [o.id, data.eps]])],
                     [(1, [])])]


def _skip_all(names, note):
    return [skipped(name, note) for name in names]


def check_product_laws(data):
    """Associativity, commutativity, and the unit law (skipped without eta)."""
    o = _Ops(data)
    return _checked([_associativity(data, o), _commutativity(data, o), *_unit(data, o)],
                    data.window)


def check_coproduct_laws(data):
    """Coassociativity, cocommutativity, and the counit law (skipped without eps)."""
    o = _Ops(data)
    return _checked([_coassociativity(data, o), _cocommutativity(data, o), *_counit(data, o)],
                    data.window)


def _checked(items, window):
    """The report of each item, in order.  The `Relation` items are checked
    together in one `check_relations` call; the others are finished
    reports (skipped relations, element equalities)."""
    specs = [item for item in items if isinstance(item, Relation)]
    reports = iter(check_relations(specs, window))
    return [next(reports) if isinstance(item, Relation) else item for item in items]


def _unital_infinitesimal(data, o):
    if data.eta is None:
        return skipped("unital-infinitesimal", "no unit present")
    l, m = o.l, o.m
    return Relation(
        "unital-infinitesimal", data.space2,
        [(1, [[o.mu], [o.lam]])],
        [(sgn(l * m), [[o.lam, o.id], [o.id, o.mu]]),
         (sgn(l * m), [[o.id, o.lam], [o.mu, o.id]]),
         (-sgn(m), [[o.id, o.lh, o.id], [o.mu, o.mu]])])


def check_unital_infinitesimal(data, o=None):
    return _checked([_unital_infinitesimal(data, o or _Ops(data))], data.window)[0]


def _s_terms(o):
    """The S-operator S = (mu(x)1)(1(x)tau lam) - (-1)^{|mu|} (1(x)mu)(tau lam(x)1),
    of degree |mu|+|lam|, as a signed sum of pipelines, never materialized
    on A(x)A(x)A."""
    return [(1, [[o.id, o.tl], [o.mu, o.id]]),
            (-sgn(o.m), [[o.tl, o.id], [o.id, o.mu]])]


def _unital_antisymmetry(data, o):
    if data.eta is None:
        return _skip_all(("unital-anti-symmetry", "anti-symmetry-S-operator",
                          "twist-of-lam-eta"), "no unit present")
    l, m = o.l, o.m
    six = Relation(
        "unital-anti-symmetry", data.space2,
        [(sgn(m * (l + 1)), [[o.tl, o.id], [o.id, o.mu]]),
         (sgn(l * (m + 1)), [[o.id, o.lam], [o.mt, o.id]]),
         (-sgn(l + m), [[o.id, o.lh, o.id], [o.mt, o.mu]])],
        [(sgn(l * m), [[o.lam, o.id], [o.id, o.mt], [o.tau]]),
         (-sgn((l + 1) * (m + 1)), [[o.id, o.tl], [o.mu, o.id], [o.tau]]),
         (-sgn(m), [[o.id, o.lh, o.id], [o.mu, o.mt], [o.tau]])])
    s_terms = _s_terms(o)
    s_form = Relation(
        "anti-symmetry-S-operator", data.space2,
        [(sign, [[o.tau], *stages, [o.tau]]) for sign, stages in s_terms],
        [(-sgn(m + l) * sign, stages) for sign, stages in s_terms])
    consequence = check_elements_equal(
        "twist-of-lam-eta",
        o.tau(o.lam_eta),
        o.lam_eta.scale(sgn(l)),
        data.window)
    return [six, s_form, consequence]


def check_unital_antisymmetry(data, o=None):
    """The six-term relation, its S-operator form, and the eta (x) eta consequence."""
    return _checked(_unital_antisymmetry(data, o or _Ops(data)), data.window)


def _counital_infinitesimal(data, o):
    if data.eps is None:
        return skipped("counital-infinitesimal", "no counit present")
    l, m = o.l, o.m
    return Relation(
        "counital-infinitesimal", data.space2,
        [(1, [[o.mu], [o.lam]])],
        [(sgn(l * m), [[o.lam, o.id], [o.id, o.mu]]),
         (sgn(l * m), [[o.id, o.lam], [o.mu, o.id]]),
         (-sgn(l), [[o.lam, o.lam], [o.id, o.pm, o.id]])])


def check_counital_infinitesimal(data, o=None):
    return _checked([_counital_infinitesimal(data, o or _Ops(data))], data.window)[0]


def _counital_antisymmetry(data, o):
    if data.eps is None:
        return _skip_all(("counital-anti-symmetry", "eps-mu-twist"), "no counit present")
    l, m = o.l, o.m
    six = Relation(
        "counital-anti-symmetry", data.space2,
        [(sgn(m * (l + 1)), [[o.tl, o.id], [o.id, o.mu]]),
         (sgn(l * (m + 1)), [[o.id, o.lam], [o.mt, o.id]]),
         (-sgn(l + m), [[o.tl, o.lam], [o.id, o.pm, o.id]])],
        [(sgn(l * m), [[o.lam, o.id], [o.id, o.mt], [o.tau]]),
         (-sgn((l + 1) * (m + 1)), [[o.id, o.tl], [o.mu, o.id], [o.tau]]),
         (-sgn(l), [[o.tau], [o.lam, o.tl], [o.id, o.pm, o.id]])])
    consequence = Relation(
        "eps-mu-twist", data.space2,
        [(1, [[o.tau], [o.pm]])],
        [(sgn(m), [[o.pm]])])
    return [six, consequence]


def check_counital_antisymmetry(data, o=None):
    return _checked(_counital_antisymmetry(data, o or _Ops(data)), data.window)


def _bridges(data, o):
    """The bridging equalities of the biunital definition."""
    names = ("biunital-bridge", "biunital-anti-bridge-1", "biunital-anti-bridge-2")
    if data.eta is None or data.eps is None:
        return _skip_all(names, "no unit present" if data.eta is None
                         else "no counit present")
    l, m = o.l, o.m
    return [
        Relation(names[0], data.space2,
                 [(sgn(l), [[o.lam, o.lam], [o.id, o.pm, o.id]])],
                 [(sgn(m), [[o.id, o.lh, o.id], [o.mu, o.mu]])]),
        Relation(names[1], data.space2,
                 [(1, [[o.id, o.lh, o.id], [o.mt, o.mu]])],
                 [(1, [[o.tl, o.lam], [o.id, o.pm, o.id]])]),
        Relation(names[2], data.space2,
                 [(1, [[o.id, o.lh, o.id], [o.mu, o.mt]])],
                 [(1, [[o.lam, o.tl], [o.id, o.pm, o.id]])])]


def _biunital_infinitesimal(data, o):
    return [_unital_infinitesimal(data, o), _counital_infinitesimal(data, o),
            *_bridges(data, o), *_unital_antisymmetry(data, o),
            *_counital_antisymmetry(data, o)]


def check_biunital_infinitesimal(data, o=None):
    """Both infinitesimal relations, the bridging equalities of the biunital
    definition and both anti-symmetry relations."""
    return _checked(_biunital_infinitesimal(data, o or _Ops(data)), data.window)


def copairing(data):
    return data.copairing()


def pairing(data):
    return data.pairing()


def check_copairing_symmetry(data, o=None):
    if data.eta is None:
        return skipped("copairing-symmetry", "no unit present")
    o = o or _Ops(data)
    return check_elements_equal(
        "copairing-symmetry", o.tau(o.c), o.c.scale(sgn(o.l)), data.window)


def _pairing_symmetry(data, o):
    if data.eps is None:
        return skipped("pairing-symmetry", "no counit present")
    return Relation("pairing-symmetry", data.space2,
                    [(1, [[o.tau], [o.p_map]])],
                    [(sgn(o.m), [[o.p_map]])])


def check_pairing_symmetry(data, o=None):
    return _checked([_pairing_symmetry(data, o or _Ops(data))], data.window)[0]


def _cofrobenius(data, flavor, o):
    l, m = o.l, o.m
    unital = flavor in ("unital", "biunital")
    out = [_associativity(data, o)]
    if unital:
        out.extend(_unit(data, o))
    out.append(_coassociativity(data, o))
    if unital:
        if data.eta is None:
            out.extend(_skip_all(("unital-cofrobenius-left", "unital-cofrobenius-right"),
                                 "no unit present"))
        else:
            out.append(Relation(
                "unital-cofrobenius-left", data.space,
                [(1, [[o.lam]])],
                [(1, [[o.c_map, o.id], [o.id, o.mu]])]))
            out.append(Relation(
                "unital-cofrobenius-right", data.space,
                [(1, [[o.lam]])],
                [(sgn(m), [[o.id, o.c_map], [o.mu, o.id]])]))
        out.append(check_copairing_symmetry(data, o))
    if flavor in ("counital", "biunital"):
        out.extend(_counit(data, o))
        if data.eps is None:
            out.extend(_skip_all(("counital-cofrobenius-left",
                                  "counital-cofrobenius-right"), "no counit present"))
        else:
            out.append(Relation(
                "counital-cofrobenius-left", data.space2,
                [(1, [[o.mu]])],
                [(sgn(m * l + l), [[o.id, o.lam], [o.p_map, o.id]])]))
            out.append(Relation(
                "counital-cofrobenius-right", data.space2,
                [(1, [[o.mu]])],
                [(sgn(m * l), [[o.lam, o.id], [o.id, o.p_map]])]))
        out.append(_pairing_symmetry(data, o))
    return out


def check_cofrobenius(data, flavor="biunital", o=None):
    """The defining relations of the requested coFrobenius flavor.

    unital:   lam = (1(x)mu)(c(x)1) = (-1)^m (mu(x)1)(1(x)c), tau c = (-1)^l c
    counital: mu = (-1)^{ml+l}(p(x)1)(1(x)lam) = (-1)^{ml}(1(x)p)(lam(x)1),
              p tau = (-1)^m p
    plus unit/counit laws and (co)associativity for the flavor.  Relations
    that need a missing unit or counit are skipped.
    """
    if flavor not in ("unital", "counital", "biunital"):
        raise ValueError(f"unknown coFrobenius flavor {flavor!r}")
    return _checked(_cofrobenius(data, flavor, o or _Ops(data)), data.window)


def check_derived_identities(data, flavor="biunital"):
    """The derived identities of the coFrobenius propositions.  Relations
    that need a missing unit or counit are skipped."""
    o = _Ops(data)
    l, m = o.l, o.m
    scal = scalar_space(data.field)
    no_unit = "no unit present" if data.eta is None else None
    no_counit = "no counit present" if data.eps is None else None
    out = []

    def relation(name, missing, source, lhs, rhs):
        out.append(skipped(name, missing) if missing else Relation(name, source, lhs, rhs))

    if flavor in ("unital", "biunital"):
        relation("derived-c-c-triple", no_unit, scal,
                 [(1, [[o.c_map, o.c_map], [o.id, o.mu, o.id]])],
                 [(1, [[o.c_map], [o.lam, o.id]])])
        relation("derived-lam-c-symmetric", no_unit, scal,
                 [(1, [[o.c_map], [o.lam, o.id]])],
                 [(sgn(l), [[o.c_map], [o.id, o.lam]])])
        relation("derived-four-way-a", None, data.space2,
                 [(1, [[o.lam, o.id], [o.id, o.mu]])],
                 [(1, [[o.id, o.lam], [o.mu, o.id]])])
        relation("derived-four-way-b", no_unit, data.space2,
                 [(1, [[o.id, o.lam], [o.mu, o.id]])],
                 [(1, [[o.id, o.c_map, o.id], [o.mu, o.mu]])])
        relation("derived-four-way-c", no_unit, data.space2,
                 [(1, [[o.id, o.c_map, o.id], [o.mu, o.mu]])],
                 [(sgn(l * m), [[o.mu], [o.lam]])])
    if flavor in ("counital", "biunital"):
        p_deg = o.p_map.degree if o.p_map is not None else 0
        relation("derived-p-p-triple", no_counit, data.space3,
                 [(sgn(p_deg * m), [[o.id, o.lam, o.id], [o.p_map, o.p_map]])],
                 [(1, [[o.mu, o.id], [o.p_map]])])
        relation("derived-p-mu-symmetric", no_counit, data.space3,
                 [(1, [[o.mu, o.id], [o.p_map]])],
                 [(sgn(m), [[o.id, o.mu], [o.p_map]])])
        relation("derived-lam-lam-p", no_counit, data.space2,
                 [(1, [[o.lam, o.lam], [o.id, o.p_map, o.id]])],
                 [(1, [[o.mu], [o.lam]])])
    if flavor == "biunital":
        missing = no_unit or no_counit
        relation("derived-eps-from-p-eta", missing, data.space,
                 [(sgn(l), [[data.eps]])],
                 [(1, [[o.id, o.eta_map], [o.p_map]])])
        relation("derived-p-eta-sides", missing, data.space,
                 [(1, [[o.id, o.eta_map], [o.p_map]])],
                 [(sgn(m), [[o.eta_map, o.id], [o.p_map]])])
        relation("derived-eta-from-eps-c", missing, scal,
                 [(sgn(l * m + m), [[o.eta_map]])],
                 [(1, [[o.c_map], [data.eps, o.id]])])
        relation("derived-eps-c-sides", missing, scal,
                 [(1, [[o.c_map], [data.eps, o.id]])],
                 [(sgn(l), [[o.c_map], [o.id, data.eps]])])
        relation("derived-p-c-left-inverse", missing, data.space,
                 [(1, [[o.c_map, o.id], [o.id, o.p_map]])],
                 [(1, [])])
        relation("derived-p-c-right-inverse", missing, data.space,
                 [(sgn(l + m), [[o.id, o.c_map], [o.p_map, o.id]])],
                 [(1, [])])
    return _checked(out, data.window)


def check_involutive(data):
    """mu lam = 0; for unital coFrobenius data also cross-checks mu c = 0,
    for counital also p lam = 0 (equivalent formulations)."""
    o = _Ops(data)
    out = [Relation("involutive-mu-lam", data.space, [(1, [[o.lam], [o.mu]])], [])]
    if data.eta is not None:
        out.append(check_elements_equal(
            "involutive-mu-c", data.mu(o.c),
            Element(data.space), data.window))
    if data.eps is not None:
        out.append(Relation("involutive-p-lam", data.space,
                            [(1, [[o.lam], [o.p_map]])], []))
    return _checked(out, data.window)


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

    def lift(idx, offset):
        return tuple(i + offset for i in idx)

    mu_entries = {}
    for src, row in d1.mu.entries.items():
        mu_entries[src] = {dst: v for dst, v in row.items()}
    for src, row in d2.mu.entries.items():
        mu_entries[lift(src, off)] = {lift(dst, off): v for dst, v in row.items()}
    mu = GradedMap(sp2, sp1, d1.mu.degree, mu_entries)

    lam_entries = {}
    for src, row in d1.lam.entries.items():
        lam_entries[src] = {dst: v for dst, v in row.items()}
    for src, row in d2.lam.entries.items():
        lam_entries[lift(src, off)] = {lift(dst, off): v for dst, v in row.items()}
    lam = GradedMap(sp1, sp2, d1.lam.degree, lam_entries)

    eta = None
    if d1.eta is not None:
        coeffs = dict(d1.eta.coeffs)
        coeffs.update({lift(idx, off): v for idx, v in d2.eta.coeffs.items()})
        eta = Element(sp1, coeffs)
    eps = None
    if d1.eps is not None:
        entries = {src: dict(row) for src, row in d1.eps.entries.items()}
        entries.update({lift(src, off): dict(row) for src, row in d2.eps.entries.items()})
        eps = GradedMap(sp1, scalar_space(d1.field), d1.eps.degree, entries)

    if d1.window is None and d2.window is None:
        window = None
    elif d1.window is None:
        window = d2.window
    elif d2.window is None:
        window = d1.window
    else:
        window = d1.window.merged(d2.window)
    return BialgebraData(module, mu, lam, eta, eps, window)


def counit_solve(data):
    """Solve (eps(x)1)lam = 1 = (-1)^l (1(x)eps)lam exactly for eps.

    Returns the counit as an Element of A^v-coefficients (a dict
    label -> scalar) or None when the linear system is infeasible.  On
    window models only window-valid equations are used, so infeasibility
    of the restricted system certifies infeasibility of the full one.
    """
    from .fields import solve_linear
    l = data.lam.degree
    field = data.field
    module = data.module
    unknowns = [i for i in range(module.dim) if module.degree(i) == l]
    col = {i: k for k, i in enumerate(unknowns)}
    rows, rhs = [], []
    w = data.window
    for x in range(module.dim):
        labels = (module.labels[x],)
        if w is not None and not w.input_valid(labels):
            continue
        expansion = data.lam((x,))
        for y in range(module.dim):
            if w is not None and not w.coordinate_reliable(labels, (module.labels[y],)):
                continue
            row_left = [field.zero] * len(unknowns)
            row_right = [field.zero] * len(unknowns)
            for (u, v), cf in expansion.coeffs.items():
                if v == y and u in col:
                    row_left[col[u]] = field.add(row_left[col[u]], cf)
                if u == y and v in col:
                    s = sgn(l * (module.degree(u) % 2)) * sgn(l)
                    row_right[col[v]] = field.add(row_right[col[v]],
                                                  field.mul(field.coerce(s), cf))
            target = field.one if x == y else field.zero
            rows.append(row_left)
            rhs.append(target)
            rows.append(row_right)
            rhs.append(target)
    if not unknowns:
        if all(field.is_zero(b) for b in rhs):
            return GradedMap(data.space, scalar_space(field), -l, {})
        return None
    sol = solve_linear(rows, rhs, field)
    if sol is None:
        return None
    entries = {(unknowns[k],): {(): sol[k]}
               for k in range(len(unknowns)) if not field.is_zero(sol[k])}
    return GradedMap(data.space, scalar_space(field), -l, entries)
