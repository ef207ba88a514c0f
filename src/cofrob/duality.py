"""Perfectness, algebraic Poincare duality, and the structure transforms.

The transforms implement the invariance statements for biunital
coFrobenius bialgebras:

- dualize:     (A^v, lam^v, mu^v, eps^v, eta^v) with copairing p^v and
               pairing c^v (the dual of a map between tensor powers is
               built by `tensor.dual_map`'s sign rule);
- shift:       (A[1], s mu (w(x)w), (s(x)s) lam w, (-1)^m s eta,
               (-1)^l eps w) with c-bar = (-1)^l (s(x)s)c and
               p-bar = (-1)^{l+1} p (w(x)w);
- rescale:     ((-1)^m mu, (-1)^l lam, (-1)^m eta, (-1)^l eps), scaling
               c and p by (-1)^{m+l};
- transpose:   (mu tau, tau lam, (-1)^m eta, (-1)^l eps) with pairing
               (-1)^l p tau and copairing (-1)^m tau c;
- Poincare duality: vec p : A -> A^v and its inverse vec c realize an
  isomorphism onto (A^v, (-1)^l lam^v tau, (-1)^{ml+l} tau mu^v, eps^v,
  (-1)^{ml+l+m} eta^v).

A pairing p induces vec p(a) = p(a (x) .), a copairing c induces
vec c(f) = (-1)^{|f||c|} (f (x) 1)c; both are bijective exactly when the
structure is perfect, which is decided by exact per-degree rank.
"""

from dataclasses import dataclass

from .core import TensorSpace, Element, GradedMap, compose, element_as_map
from .tensor import twist, tensor_maps, dual_module, dual_map, ShiftMaps, shift_map
from .reports import Relation, check_relations, prefixed
from .structures import (BialgebraData, _Ops, _available, _morphisms, run_entries,
                         MORPHISMS, COFROBENIUS, CYCLIC, require_cofrobenius, sgn)
from .windows import merge_windows
from .fields import invert_matrix


@dataclass
class PairingHandle:
    p: GradedMap          # A (x) A -> R
    vec_p: GradedMap      # A -> A^v with <vec_p(a), b> = p(a (x) b)


@dataclass
class CopairingHandle:
    c: Element            # element of A (x) A
    vec_c: GradedMap      # A^v -> A with vec_c(f) = (-1)^{|f||c|}(f (x) 1)c


def vec_p_map(p):
    """vec p : A -> A^v, the unique map with p = ev(vec p (x) 1)."""
    a = p.source.modules[0]
    target = TensorSpace((dual_module(a),))
    entries = {}
    for (i, j), row in p.entries.items():
        val = row.get((), None)
        if val is None:
            continue
        entries.setdefault((i,), {})[(j,)] = val
    return GradedMap(TensorSpace((a,)), target, p.degree, entries)


def vec_c_map(c, c_degree):
    """vec c : A^v -> A with vec_c(b^v) = (-1)^{|b||c|} sum_y c_{b,y} y."""
    a = c.space.modules[0]
    source = TensorSpace((dual_module(a),))
    target = TensorSpace((a,))
    field = a.field
    entries = {}
    for (i, j), v in c.coeffs.items():
        s = sgn((a.degree(i) % 2) * (c_degree % 2))
        row = entries.setdefault((i,), {})
        row[(j,)] = field.add(row.get((j,), field.zero), field.mul(field.coerce(s), v))
    return GradedMap(source, target, c_degree, entries)


def pairing_handle(data):
    p = data.pairing()
    return PairingHandle(p, vec_p_map(p))


def copairing_handle(data):
    c = data.copairing()
    return CopairingHandle(c, vec_c_map(c, data.lam.degree - data.mu.degree))


def _handles(o):
    """The pairing and copairing handles of the structure of the `_Ops` o,
    built from its p_map and c_map: what `pairing_handle` and
    `copairing_handle` build, without computing p, lam(eta) or c again."""
    c_map = o.c_map
    c = Element._trusted(c_map.target, c_map.entries.get((), {}))
    return (PairingHandle(o.p_map, vec_p_map(o.p_map)),
            CopairingHandle(c, vec_c_map(c, c_map.degree)))


def check_perfect(pair, copair, window=None):
    """(1(x)p)(c(x)1) = 1 = (-1)^{|p||c|}(p(x)1)(1(x)c), and the induced
    maps vec_c, vec_p are mutually inverse."""
    return _check_perfect(pair, copair, window)


def _check_perfect(pair, copair, window, c_map=None):
    """`check_perfect`, reading c as the map `c_map` R -> A(x)A when the
    caller has it."""
    p, vec_p = pair.p, pair.vec_p
    c, vec_c = copair.c, copair.vec_c
    if p.degree != -vec_c.degree:
        raise ValueError(f"degree mismatch: |p| = {p.degree}, |c| = {vec_c.degree}")
    a_space = vec_p.source
    if c_map is None:
        c_map = element_as_map(c, degree=vec_c.degree)
    idm = GradedMap.identity(a_space)
    return check_relations([
        Relation("perfect-left", a_space, [(1, [[c_map, idm], [idm, p]])], [(1, [])]),
        Relation("perfect-right", a_space,
                 [(sgn(p.degree * vec_c.degree), [[idm, c_map], [p, idm]])], [(1, [])]),
        Relation("vec-c-after-vec-p", a_space, [(1, [[vec_p], [vec_c]])], [(1, [])]),
        Relation("vec-p-after-vec-c", vec_c.source, [(1, [[vec_c], [vec_p]])], [(1, [])]),
    ], window.merged(window.dualized()) if window else None)


def _dual_unit(eps):
    """eps^v = dual_map(eps) : R -> A^v, as the element eps^v(1) of A^v."""
    dual = dual_map(eps)
    return Element._trusted(dual.target, dict(dual.entries.get((), {})))


def dualize(data):
    """(A^v, lam^v, mu^v, eps^v, eta^v): flavor-preserving duality."""
    dmod = dual_module(data.module)
    mu_d = dual_map(data.lam)
    lam_d = dual_map(data.mu)
    eta_d = _dual_unit(data.eps) if data.eps is not None else None
    eps_d = dual_map(data.eta_map()) if data.eta is not None else None
    window = data.window.dualized() if data.window is not None else None
    return BialgebraData(dmod, mu_d, lam_d, eta_d, eps_d, window)


def shift_structure(data):
    """The shifted structure on A[1] with the sign table of the invariance lemma."""
    sh = ShiftMaps(data.module)
    m, l = data.mu.degree, data.lam.degree
    mu_s = shift_map(data.mu, sh)
    lam_s = shift_map(data.lam, sh)
    eta_s = sh.s(data.eta).scale(sgn(m)) if data.eta is not None else None
    eps_s = compose(data.eps, sh.omega).scale(sgn(l)) if data.eps is not None else None
    window = data.window.shifted() if data.window is not None else None
    return BialgebraData(sh.shifted, mu_s, lam_s, eta_s, eps_s, window)


def rescale_signs(data, m, l):
    """((-1)^m mu, (-1)^l lam, (-1)^m eta, (-1)^l eps); c, p scale by (-1)^{m+l}."""
    return data.replace(
        mu=data.mu.scale(sgn(m)),
        lam=data.lam.scale(sgn(l)),
        eta=data.eta.scale(sgn(m)) if data.eta is not None else None,
        eps=data.eps.scale(sgn(l)) if data.eps is not None else None)


def transpose_structure(data):
    """(A, mu tau, tau lam, (-1)^m eta, (-1)^l eps); requires a genuine
    biunital coFrobenius input and refuses otherwise, naming the failing
    relation."""
    if data.eta is None or data.eps is None:
        raise ValueError("transpose refused: input is not biunital coFrobenius "
                         "(missing unit or counit)")
    o = _Ops(data)
    require_cofrobenius(data, "transpose refused: input fails", o=o)
    return data.replace(
        mu=o.mt,
        lam=o.tl,
        eta=data.eta.scale(sgn(data.mu.degree)),
        eps=data.eps.scale(sgn(data.lam.degree)))


def _intertwines(phi, data_a, data_b, window, names):
    if window is None:
        window = merge_windows(data_a.window, data_b.window)
    return check_relations(_morphisms(phi, _Ops(data_a), _Ops(data_b), names), window)


def check_intertwines_product(phi, data_a, data_b, window=None):
    """phi mu_A = (-1)^{|phi||mu_A|} mu_B phi^{(x)2}; with bijective phi and
    units on both sides, also the unit transport eta_B = (-1)^{|phi|} phi(eta_A)
    (`structures.MORPHISMS`)."""
    return _intertwines(phi, data_a, data_b, window,
                        ("intertwines-product", "unit-transport"))


def check_intertwines_coproduct(phi, data_a, data_b, window=None):
    """phi^{(x)2} lam_A = (-1)^{|phi||lam_A|} lam_B phi; with counits on both
    sides also the counit transport eps_A = eps_B phi (`structures.MORPHISMS`)."""
    return _intertwines(phi, data_a, data_b, window,
                        ("intertwines-coproduct", "counit-transport"))


def poincare_dual_structure(data):
    """The sign-twisted dual structure of the algebraic Poincare duality
    theorem: (A^v, (-1)^l lam^v tau, (-1)^{ml+l} tau mu^v, eps^v,
    (-1)^{ml+l+m} eta^v)."""
    return _poincare_dual(_Ops(data))[0]


def _poincare_dual(o):
    """`poincare_dual_structure` of the structure of the `_Ops` o, read
    from o, and the twist tau of the dual module it was built with."""
    data, m, l = o.data, o.m, o.l
    dmod = dual_module(data.module)
    tau_d = twist(dmod, dmod)
    mu_b = compose(dual_map(o.lam), tau_d).scale(sgn(l))
    lam_b = compose(tau_d, dual_map(o.mu)).scale(sgn(m * l + l))
    eta_b = _dual_unit(data.eps)
    eps_b = dual_map(o.eta_map).scale(sgn(m * l + l + m))
    window = data.window.dualized() if data.window is not None else None
    return BialgebraData(dmod, mu_b, lam_b, eta_b, eps_b, window), tau_d


def check_poincare_duality(data):
    """vec p realizes an isomorphism of biunital coFrobenius bialgebras onto
    the sign-twisted dual, with vec c as the inverse intertwiner: the
    dual's biunital suite under "dual-", then the four `MORPHISMS`
    relations of vec p and those of vec c under "inverse-", in one call,
    then perfectness.  Each structure has one `_Ops` for all of it: the
    data's serves the precheck, the morphisms, the handles and
    perfectness, and the dual's starts with the twist the dual was built
    with."""
    if data.eta is None or data.eps is None:
        raise ValueError("poincare duality needs a biunital coFrobenius input "
                         "(missing unit or counit)")
    ops = _Ops(data)
    require_cofrobenius(data, "poincare duality needs a biunital coFrobenius input; fails",
                        o=ops)
    target, tau_d = _poincare_dual(ops)
    target_ops = _Ops(target, tau=tau_d)
    out = prefixed("dual-", run_entries(target, COFROBENIUS["biunital"], target_ops))
    handle_p, handle_c = _handles(ops)
    out.extend(check_relations(
        _morphisms(handle_p.vec_p, ops, target_ops, MORPHISMS)
        + _morphisms(handle_c.vec_c, target_ops, ops, MORPHISMS, "inverse-"),
        merge_windows(data.window, target.window)))
    out.extend(_check_perfect(handle_p, handle_c, data.window, ops.c_map))
    return out


def _invert_vec_p(vec_p, window=None):
    """Exact per-degree inversion of vec_p : A -> A^v.

    A singular or non-square block aborts with the offending degree.  With
    a window, rows and columns outside the window-valid region are
    excluded first (mutually: only basis elements that actually pair with a
    kept partner survive), and the inverse is computed on the remaining
    block.
    """
    a = vec_p.source.modules[0]
    dual = vec_p.target.modules[0]
    field = a.field
    win_all = None
    if window is not None:
        win_all = window.merged(window.dualized())
    entries = {}
    for deg in sorted(set(a.degrees)):
        rows_idx = list(a.basis_at(deg))
        cols_idx = list(dual.basis_at(deg + vec_p.degree))
        if win_all is not None:
            rows_idx = [i for i in rows_idx if win_all.input_valid((a.labels[i],))]
            cols_idx = [j for j in cols_idx if win_all.input_valid((dual.labels[j],))]
            rows_idx = [i for i in rows_idx
                        if any((j,) in vec_p.entries.get((i,), {}) for j in cols_idx)]
            cols_idx = [j for j in cols_idx
                        if any((j,) in vec_p.entries.get((i,), {}) for i in rows_idx)]
        if not rows_idx and not cols_idx:
            continue
        if len(rows_idx) != len(cols_idx):
            raise ValueError(f"pairing not perfect at degree {deg}: "
                             f"{len(rows_idx)} x {len(cols_idx)} block")
        mat = [[vec_p.entries.get((i,), {}).get((j,), field.zero) for j in cols_idx]
               for i in rows_idx]
        inv = invert_matrix(mat, field)
        if inv is None:
            raise ValueError(f"pairing not perfect at degree {deg}: singular block")
        for r, j in enumerate(cols_idx):
            row = {}
            for c_, i in enumerate(rows_idx):
                if not field.is_zero(inv[r][c_]):
                    row[(i,)] = inv[r][c_]
            if row:
                entries[(j,)] = row
    return GradedMap(vec_p.target, vec_p.source, -vec_p.degree, entries)


def copairing_from_vec_c(vec_c):
    """Reconstruct c from vec_c via c = sum_b (-1)^{|b||c|} b (x) vec_c(b^v)."""
    a = vec_c.target.modules[0]
    field = a.field
    space2 = TensorSpace((a, a))
    c_deg = vec_c.degree
    coeffs = {}
    for (i,), row in vec_c.entries.items():
        s = sgn((a.degree(i) % 2) * (c_deg % 2))
        for (j,), v in row.items():
            coeffs[(i, j)] = field.mul(field.coerce(s), v)
    return Element(space2, coeffs)


def complete_from_pairing(module, mu, eta, eps, window=None):
    """Build the coproduct from (mu, eta, eps) via the perfect pairing.

    Requires |mu| = 0 (the degree of lam is fixed as -|eps| before p
    exists).  Computes p = (-1)^{|lam|} eps mu, inverts vec_p per degree,
    sets lam = (1 (x) mu)(c (x) 1), and runs the full biunital coFrobenius
    suite, which must pass.
    """
    return _complete(module, mu, eta, eps, window)


def _complete(module, mu, eta, eps, window=None, checked=()):
    """`complete_from_pairing`, taking the reports `checked` of relations
    of the biunital suite that the caller has already checked on `mu`
    under `window` as they are (`require_cofrobenius`).  The suite's
    context is handed eps mu and p as built here, so eps mu is composed
    once."""
    if mu.degree != 0:
        raise ValueError("complete_from_pairing requires |mu| = 0; shift first")
    lam_degree = -eps.degree
    eps_mu = compose(eps, mu)
    p = eps_mu.scale(sgn(lam_degree))
    vec_p = vec_p_map(p)
    vec_c = _invert_vec_p(vec_p, window)
    c = copairing_from_vec_c(vec_c)
    idm = GradedMap.identity(TensorSpace((module,)))
    c_map = element_as_map(c, degree=lam_degree)
    # lam = (1 (x) mu)(c (x) 1); |id| = |mu| = 0, so neither tensor has a sign
    lam = compose(tensor_maps(idm, mu), tensor_maps(c_map, idm))
    data = BialgebraData(module, mu, lam, eta, eps, window)
    o = _Ops(data)
    o.pm, o.p_map = eps_mu, p   # |lam| = lam_degree, so p is the context's p_map
    require_cofrobenius(data, "input (mu, eta, eps) is not Frobenius-compatible: fails",
                        checked, o=o)
    return data


def cyclic_triple_checks(data):
    """beta = (1(x)mu(x)1)(c(x)c) is cyclically symmetric; B = (p(x)p)(1(x)lam(x)1)
    satisfies B sigma = B; plus the tau_12 refinements, each reported only
    where its gate (`structures.GATES`), cocommutativity for beta and
    commutativity for B, passes.  The entries of `structures.CYCLIC` that
    need a unit or counit the data lacks are left out, not skipped."""
    return run_entries(data, _available(data, CYCLIC))
