"""Graded 2D open-closed TQFTs: zipper, cozipper, relations (1)-(6).

The data is a closed sector C (commutative and cocommutative biunital
coFrobenius), an open sector A (biunital coFrobenius), a zipper
zeta: C -> A and a cozipper zeta*: A -> C.  Degrees are normalized so that
|mu_C| = |mu_A| = |zeta| = 0 (callers holding nonzero-degree products
must shift first); then |zeta*| = |lam_C| - |lam_A| is forced.

Relations, in the numbered order (the suite short-circuits nothing):

(1) closed sector: commutative cocommutative biunital coFrobenius;
(2) open sector: biunital coFrobenius;
(3) mu_A(zeta (x) zeta) = zeta mu_C  and  zeta eta_C = eta_A;
(4) mu_A(zeta (x) 1) = mu_A tau (zeta (x) 1);
(5) (1 (x) zeta) c_C = (zeta* (x) 1) c_A;
(6) graded Cardy: zeta zeta* = (-1)^{|lam_A|} mu_A tau lam_A when
    |lam_C| = 2 |lam_A|, and zeta zeta* = 0 otherwise (the degree gate is
    computed, never assumed).

Derived statements: relation (5) is equivalent to the pairing form
p_C(1 (x) zeta*) = (-1)^{|lam_A|+|lam_C|} p_A(zeta (x) 1); given
(1),(2),(3),(5) the cozipper is a coalgebra map; and the module relations
(zeta (x) 1)c_C = (-1)^{|lam_C|+|lam_A|}(1 (x) zeta*)c_A and
mu_C(zeta* (x) 1) = zeta* mu_A(1 (x) zeta) hold.

Relations (1) and (2) are suites of the sectors' relation table
(`structures.RELATIONS`), reported under "closed-" and "open-".  The
others are the entries of `TQFT_RELATIONS`, built over the TQFT and the
`_Ops` of both sectors, which one suite call makes once.  A check of some
of them is a tuple of entry names, such as `("module-rel-a",
"module-rel-b")`, run by `run_tqft_entries` in one `check_relations`
call; `check_cardy` is relation (6) alone.  Relation (3) and
the cozipper's coalgebra-map relations read `structures.MORPHISMS`.
`derive_cozipper` solves the entry "rel5-pairing-form" for zeta*
(`reports.solve_map`).  Both sectors must have a unit and a counit
(`require_biunital_sectors`), and the zipper must map C -> A.
"""

from functools import partial
from types import SimpleNamespace

from .core import TensorSpace, scalar_space
from .reports import CheckReport, Relation, prefixed, solve_map, PASS, FAIL
from .structures import _Ops, _checked, run_entries, COFROBENIUS, MORPHISMS, sgn
from .windows import merge_windows


def require_biunital_sectors(closed, open):
    """Refuse a sector without a unit or a counit: relations (3)-(6) and
    the cozipper solver read both sectors' units and counits."""
    for sector, data in (("closed", closed), ("open", open)):
        for attr, what in (("eta", "unit"), ("eps", "counit")):
            if getattr(data, attr) is None:
                raise ValueError(f"TQFT {sector} sector has no {what} ({attr}); "
                                 "both sectors must be biunital")


class OpenClosedTQFT:
    def __init__(self, closed, open, zipper, cozipper):
        require_biunital_sectors(closed, open)
        if closed.mu.degree != 0 or open.mu.degree != 0:
            raise ValueError("degree normalization violated: products must have "
                             f"degree 0 (got |mu_C| = {closed.mu.degree}, "
                             f"|mu_A| = {open.mu.degree}); shift first")
        if zipper.degree != 0:
            raise ValueError(f"degree normalization violated: |zeta| = {zipper.degree} != 0")
        if zipper.source != closed.space or zipper.target != open.space:
            raise ValueError("zipper must map C -> A")
        if cozipper.source != open.space or cozipper.target != closed.space:
            raise ValueError("cozipper must map A -> C")
        expected = closed.lam.degree - open.lam.degree
        if cozipper.degree != expected:
            raise ValueError(f"|zeta*| must be |lam_C| - |lam_A| = {expected}, "
                             f"got {cozipper.degree}")
        self.closed = closed
        self.open = open
        self.zipper = zipper
        self.cozipper = cozipper
        self.window = merge_windows(closed.window, open.window)

    def __repr__(self):
        return (f"OpenClosedTQFT(closed={self.closed.module.name or '?'}, "
                f"open={self.open.module.name or '?'})")


def _cardy(t, c, a):
    """Relation (6) with the degree gate evaluated first; the note gives
    both coproduct degrees."""
    gate = c.l == 2 * a.l
    note = f"|lam_C| = {c.l}, 2|lam_A| = {2 * a.l}, gate {'passes' if gate else 'fails'}"
    rhs = [(sgn(a.l), [[a.lam], [a.tau], [a.mu]])] if gate else []
    return t.open.space, [(1, [[t.cozipper], [t.zipper]])], rhs, note


def _rel5_equivalence(t, c, a):
    """Relation (5) and its pairing form agree in verdict: a report made
    from theirs once both are checked."""
    def report(done):
        rel5, form = done["rel5-cozipper-duality"], done["rel5-pairing-form"]
        agree = (rel5.verdict == form.verdict
                 or {rel5.verdict, form.verdict} <= {PASS, "window-inconclusive"})
        return CheckReport(
            "rel5-equivalence", PASS if agree else FAIL,
            note=f"relation (5) verdict {rel5.verdict}, pairing form {form.verdict}")
    return [report]


def _rel3(name, t, c, a):
    """Relation (3) as the `MORPHISMS` entry `name` on the zipper C -> A,
    its sides swapped to the paper's: mu_A(zeta (x) zeta) and zeta eta_C
    on the left."""
    source, lhs, rhs = MORPHISMS[name][1](t.zipper, c, a)
    return source, rhs, lhs


# name -> builder over the TQFT and the `_Ops` of its closed and open
# sectors, built once per call.  A builder gives the relation's (source,
# lhs, rhs[, note]) or a list of finished items; a callable item makes its
# report from the reports of the call, by name.
TQFT_RELATIONS = {
    "rel3-zipper-products": partial(_rel3, "intertwines-product"),
    "rel3-zipper-unit": partial(_rel3, "unit-transport"),
    "rel4-zipper-central": lambda t, c, a: (
        TensorSpace((t.closed.module, t.open.module)),
        [(1, [[t.zipper, a.id], [a.mu]])],
        [(1, [[t.zipper, a.id], [a.tau], [a.mu]])]),
    "rel5-cozipper-duality": lambda t, c, a: (
        scalar_space(t.closed.field),
        [(1, [[c.c_map], [c.id, t.zipper]])],
        [(1, [[a.c_map], [t.cozipper, a.id]])]),
    "rel6-cardy": _cardy,
    "rel5-pairing-form": lambda t, c, a: (
        TensorSpace((t.closed.module, t.open.module)),
        [(1, [[c.id, t.cozipper], [c.p_map]])],
        [(sgn(a.l + c.l), [[t.zipper, a.id], [a.p_map]])]),
    "rel5-equivalence": _rel5_equivalence,
    "cozipper-coproducts": lambda t, c, a: (
        MORPHISMS["intertwines-coproduct"][1](t.cozipper, a, c)),
    "cozipper-counits": lambda t, c, a: MORPHISMS["counit-transport"][1](t.cozipper, a, c),
    "module-rel-a": lambda t, c, a: (
        scalar_space(t.closed.field),
        [(1, [[c.c_map], [t.zipper, c.id]])],
        [(sgn(c.l + a.l), [[a.c_map], [a.id, t.cozipper]])]),
    "module-rel-b": lambda t, c, a: (
        TensorSpace((t.open.module, t.closed.module)),
        [(1, [[t.cozipper, c.id], [c.mu]])],
        [(1, [[a.id, t.zipper], [a.mu], [t.cozipper]])]),
}

CLOSED_SECTOR = (*COFROBENIUS["biunital"], "commutativity", "cocommutativity")
TQFT_FULL = tuple(TQFT_RELATIONS)


def run_tqft_entries(t, names, ops=None):
    """The reports of the entries `names` on `t`, in order, its relations
    checked in one `check_relations` call under the TQFT's window.  `ops`
    is the pair of sector `_Ops` when the caller already has it."""
    c, a = ops or (_Ops(t.closed), _Ops(t.open))
    items = []
    for name in names:
        built = TQFT_RELATIONS[name](t, c, a)
        items.extend(built if isinstance(built, list) else [Relation(name, *built)])
    out = _checked(items, t.window)
    done = {r.name: r for r in out if not callable(r)}
    return [r(done) if callable(r) else r for r in out]


def check_cardy(t):
    """Relation (6) with the degree gate evaluated first; the report notes
    both coproduct degrees."""
    return run_tqft_entries(t, ("rel6-cardy",))[0]


def run_full_tqft_suite(t):
    """Relations (1)-(6) in order, plus the derived lemma checks; nothing
    short-circuits.  One pair of sector `_Ops` serves the whole suite."""
    ops = c, a = _Ops(t.closed), _Ops(t.open)
    return [*prefixed("closed-", run_entries(t.closed, CLOSED_SECTOR, c)),
            *prefixed("open-", run_entries(t.open, COFROBENIUS["biunital"], a)),
            *run_tqft_entries(t, TQFT_FULL, ops)]


def derive_cozipper(closed, open, zipper):
    """A zeta* with p_C(1 (x) zeta*) = (-1)^{|lam_A|+|lam_C|} p_A(zeta (x) 1):
    `solve_map` over the entry "rel5-pairing-form".

    Both sectors must have a unit and a counit.  An inconsistent system
    raises ValueError; otherwise unknowns the system leaves free are set
    to zero, and the rank is not reported, so zeta* is unique only when
    p_C is perfect (with both pairings scaled to 0 every unknown is free
    and zeta* is the zero map).  Every equation is used (no window): the
    pairing entries of the shipped window models are exact for in-window
    arguments, and coordinates the truncation leaves undetermined are set
    to zero (truncation-consistent).
    """
    require_biunital_sectors(closed, open)
    if zipper.source != closed.space or zipper.target != open.space:
        raise ValueError("zipper must map C -> A")
    ops = _Ops(closed), _Ops(open)
    form = TQFT_RELATIONS["rel5-pairing-form"]
    cozipper = solve_map(
        "cozipper", open.space, closed.space, closed.lam.degree - open.lam.degree,
        lambda x: [Relation("rel5-pairing-form", *form(
            SimpleNamespace(closed=closed, open=open, zipper=zipper, cozipper=x), *ops))])
    if cozipper is None:
        raise ValueError("no cozipper satisfies rel5-pairing-form")
    return cozipper
