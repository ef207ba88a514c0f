"""Check reports and the relation-checking engine.

A relation is an equality of two linear maps, each given as a sum of
signed pipelines (lists of stages; a stage is a list of maps tensored side
by side).  An element of V is a map R -> V, so an identity between
elements (a copairing's symmetry, a unit's transport) is a relation whose
source is the scalar space R, checked like any other.  `check_relations`
checks a list of relations in one call; one relation is a list of one.
The relations on one source space are checked together, by one of two
routes, chosen by whether a window is given.

Without a window every basis tuple is an input, so a relation is an
equality of two maps.  Each distinct stage is tensored once per call
(`tensor_many`) and shared by every source of the call; each distinct
term (a pipeline, told apart by the identity of its maps) is composed
once per source (`compose`; an empty term is the identity); and each
side is the signed sum of its terms' maps.  Equal
sums pass on every input; otherwise the first basis tuple, in canonical
order, on which their rows differ is the witness.  Composition walks
only the rows the maps have, so an input on which every map is zero costs
nothing.

With a window the check is input-major.  Composed terms would hold each
term's value on every input for the whole call: on the window models that
is a memo per (term, input), whose traced heap grew to 21 MB at N = 10
and 41 MB at N = 12.  Instead every distinct term is compiled once into
one generated kernel (`tensor.term_kernel`), which runs its whole
pipeline on one input as nested loops with no dict between the stages,
and the window-valid inputs are walked once in canonical order.  At each
input a term named more than once is evaluated once and its value added,
with each use's sign, into every still-open side that names it; a term
named once has its kernel add its value, times its sign, straight into
its side.  Both sides are expanded on basis tuples rather than
materialized as composite matrices, which keeps sparse intermediates
small.  A kernel looks up each map's row as soon as that map's input
factors are bound, so a path the next stage has no row for is dropped
before it is multiplied.  A pairing that reads two loops' factors, as in
(1(x)p(x)1)(lam(x)lam), is joined: p is probed once per path of lam(x),
in an index keyed by that path's factor, and only the paths of lam(y)
whose first factor it pairs with are read, from lam(y)'s row grouped by
that factor, so lam(x) (x) lam(y) is never walked whole.  The call builds
each grouped row and index once (`tensor.term_kernel`'s `tables`) and
drops them when it returns.  A dropped path adds nothing, so every sum,
verdict and witness is what stage-by-stage application gives.
Only the window-valid tuples are enumerated and evaluated
(`WindowSpec.valid_inputs`); the rest are never built and are counted as
inconclusive.  The gate masks each
coordinate that is not reliable for the input, by index: an input's
limit is `WindowSpec.input_limit` of its indices, and a coordinate is
kept when both its signed weight sums stay within it.  Each module's
weights are built once per call (`factor_weights`), and the window keeps
none of them.  Equal sides gated by equal weights stay equal, so when a
relation's sides land in one space and agree on an input, one side is
gated and its masked count doubled; sides that differ are both gated and
then compared.  On either route the composed maps, kernels, joined
tables, weights and per-input values live only for that one call.

Checks with a window walk inputs; every other job composes maps.  So
`solve_map` reads lhs - rhs from composed sides, under a window from the
window-valid rows only, gated as a windowed check gates them.

Verdicts are `pass`, `fail` (always with a witness), `window-inconclusive`
(no input survived the validity gate), or `skipped`: a checker returns one
skipped report per relation that needs a unit or counit the structure
lacks.  Reports are deterministic: inputs are evaluated in canonical basis
order and the first mismatch wins.  On a fail, the inconclusive count
covers only the inputs that precede the witness in that order.  Each
relation of a call keeps its own checked and masked counts and its own
first witness, so its report is the one it gets when checked alone.
"""

from dataclasses import dataclass
from typing import NamedTuple

from .core import Element, GradedMap, TensorSpace, compose, format_element
from .fields import solve_linear
from .tensor import tensor_many, term_kernel, term_merge

PASS = "pass"
FAIL = "fail"
INCONCLUSIVE = "window-inconclusive"
SKIPPED = "skipped"


@dataclass
class Witness:
    input_labels: tuple
    lhs: str
    rhs: str

    def as_dict(self):
        return {"input": list(self.input_labels), "lhs": self.lhs, "rhs": self.rhs}


@dataclass
class CheckReport:
    name: str
    verdict: str
    witness: Witness | None = None
    checked: int = 0
    inconclusive: int = 0
    masked_coords: int = 0
    note: str = ""

    @property
    def passed(self):
        return self.verdict == PASS

    @property
    def failed(self):
        return self.verdict == FAIL

    def as_dict(self):
        out = {"name": self.name, "verdict": self.verdict}
        out["checked"] = self.checked
        out["inconclusive"] = self.inconclusive
        if self.masked_coords:
            out["masked_coords"] = self.masked_coords
        if self.note:
            out["note"] = self.note
        out["witness"] = self.witness.as_dict() if self.witness else None
        return out


def skipped(name, note):
    return CheckReport(name, SKIPPED, note=note)


def prefixed(prefix, reports):
    """The reports with `prefix` put before each relation name, each built
    field by field (`dataclasses.replace` costs more per report)."""
    return [CheckReport(prefix + r.name, r.verdict, r.witness, r.checked, r.inconclusive,
                        r.masked_coords, r.note) for r in reports]


def suite_passes(reports):
    """Window-inconclusive and skipped relations do not fail a suite."""
    return not any(r.verdict == FAIL for r in reports)


class _Term:
    """One distinct pipeline of a `check_relations` call: its kernel and
    the space it lands in (`term_kernel`, its joined tables kept in the
    call's `tables`), how often the relations name it, and its slot in the
    per-input values when it is named more than once (None otherwise)."""

    __slots__ = ("kernel", "space", "uses", "slot")

    def __init__(self, stages, source, tables):
        self.kernel, self.space = term_kernel(stages, source, tables)
        self.uses = 0
        self.slot = None


class _Composite:
    """One distinct pipeline of an unwindowed call, composed into one map:
    each stage is tensored once per call (`stage_maps` holds them by the
    ids of their maps) and the stages are composed in order.  An empty
    pipeline is the identity of the source."""

    __slots__ = ("map", "space", "uses")

    def __init__(self, stages, source, stage_maps):
        term, space = None, source
        for maps in stages:
            key = tuple(map(id, maps))
            stage = stage_maps.get(key)
            if stage is None:
                stage = stage_maps[key] = maps[0] if len(maps) == 1 else tensor_many(maps)
            if stage.source.modules != space.modules:
                raise ValueError(
                    "apply_stage: the stage's sources do not match the element's factors")
            term = stage if term is None else compose(stage, term)
            space = stage.target
        self.map = GradedMap.identity(source) if term is None else term
        self.space = space
        self.uses = 0


def _compile_side(terms, source, table, make):
    """Compile one side of a relation: (sign, term) per signed term, and the
    space the side lands in (None for the zero map, an empty side).

    `table` holds the call's terms by the ids of their maps, stage by
    stage, so each distinct pipeline is built once, by `make(stages,
    source)`.  Terms of one side that land in different spaces cannot be
    added and raise ValueError."""
    field = source.field
    compiled = []
    space = None
    for sign, stages in terms:
        key = tuple([tuple(map(id, maps)) for maps in stages])
        term = table.get(key)
        if term is None:
            term = table[key] = make(stages, source)
        term.uses += 1
        if space is not None and term.space != space:
            raise ValueError("cannot add elements of different spaces")
        space = term.space
        compiled.append((field.coerce(sign), term))
    return compiled, space


def _evaluate(side, idx, merge, values):
    """The summed value of a compiled side on the basis tuple `idx`.

    `side` is (read once, shared), as `_split` gives it.  The kernel of a
    term read once adds its value, times its sign, straight into the sum.
    A shared term is evaluated unsigned (times 1, the one of both field
    kinds) at its first use on this input, kept in `values` under its
    slot, and added with its sign by every use, through `merge`
    (`tensor.term_merge` of the field)."""
    fused, shared = side
    total = {}
    for sign, kernel in fused:
        kernel(idx, sign, total)
    for sign, slot, kernel in shared:
        value = values[slot]
        if value is None:
            value = values[slot] = {}
            kernel(idx, 1, value)
        if sign == 1 and not total:
            total.update(value)
        else:
            merge(sign, value, total)
    return total


def _gate(coeffs, weights, limit):
    """The coordinates of `coeffs` reliable for an input whose
    `WindowSpec.input_limit` is `limit`; `weights` is
    `WindowSpec.factor_weights` of their space."""
    positive, negative = weights
    at = tuple.__getitem__
    return {idx: v for idx, v in coeffs.items()
            if sum(map(at, positive, idx)) <= limit
            and sum(map(at, negative, idx)) <= limit}


def _rank(space, idx):
    """Position of a basis tuple in `space.basis()` order (mixed radix)."""
    rank = 0
    for module, i in zip(space.modules, idx):
        rank = rank * module.dim + i
    return rank


class Relation(NamedTuple):
    """One relation for `check_relations`: the signed-pipeline sums `lhs`
    and `rhs` agree on every (window-valid) basis tuple of `source`."""
    name: str
    source: TensorSpace
    lhs: list
    rhs: list
    note: str = ""


def check_relations(specs, window=None):
    """The report of each `Relation` in `specs`, in order, under one window.

    Relations with equal sources are checked together: every distinct
    term (pipeline of maps) is compiled once, the window-valid inputs are
    walked once in canonical order, and at each input a term named more
    than once is evaluated once, for the still-open relations that use it.
    Each relation keeps its own checked and masked counts and stops at its
    first mismatch, so its report is the one it gets on its own.  Terms
    are shared whole: each is one kernel (`tensor.term_kernel`), so
    equal stage prefixes of different terms are not shared.  Term keys
    are the ids of the maps, which `specs` keeps alive for the call;
    nothing outlives it but the kernel factories, cached by term shape."""
    reports = [None] * len(specs)
    groups = []     # (source, [(index, spec)]) in order of first appearance
    for item in enumerate(specs):
        source = item[1].source
        for group_source, members in groups:
            if group_source == source:
                members.append(item)
                break
        else:
            groups.append((source, [item]))
    stage_maps = {}     # tensored stages by the ids of their maps, shared by the groups
    tables = {}         # the kernels' joined tables (`term_kernel`), shared likewise
    for source, members in groups:
        if window is None:
            _check_maps(source, members, reports, stage_maps)
        else:
            _check_group(source, members, window, reports, tables)
    return reports


def _signed_sum(side, field):
    """The entries of a side compiled into `_Composite` terms: each term's
    entries times its sign, added row by row, with zero sums and empty rows
    dropped (a term read alone with sign 1 is its own map's entries).

    A term whose sign is zero in the field (0 over Q, p over F_p) is
    skipped.  Every other sign times a nonzero entry is nonzero, so the
    first value that reaches a key is stored as it is, as in `compose`."""
    if len(side) == 1 and side[0][0] == field.one:
        return side[0][1].map.entries
    add, mul, is_zero, one = field.add, field.mul, field.is_zero, field.one
    total = {}
    for sign, term in side:
        if is_zero(sign):
            continue
        for src, row in term.map.entries.items():
            out = total.setdefault(src, {})
            for dst, v in row.items():
                if sign != one:
                    v = mul(sign, v)
                s = out.get(dst)
                if s is None:
                    out[dst] = v
                    continue
                s = add(s, v)
                if is_zero(s):
                    del out[dst]
                else:
                    out[dst] = s
    return {src: row for src, row in total.items() if row}


def _first_mismatch(source, left, right, same_space):
    """(position, input) of the first basis tuple of `source` on which the
    entries `left` and `right` have different rows, or on which the check
    stops because the sides land in different spaces; None if there is none."""
    if same_space and left == right:
        return None
    empty = {}
    for position, idx in enumerate(source.basis()):
        if not same_space or left.get(idx, empty) != right.get(idx, empty):
            return position, idx
    return None


def _composed_sides(spec, table, stage_maps):
    """The sides of `spec` composed into maps: the entries of each side's
    `_signed_sum` of `_Composite` terms, and each side's space (an empty
    side takes the other's; None if both are empty).  `table` and
    `stage_maps` hold the caller's terms and stages by the ids of their
    maps, and are dropped when its call ends."""
    source = spec.source

    def make(stages, src):
        return _Composite(stages, src, stage_maps)

    lhs, lhs_space = _compile_side(spec.lhs, source, table, make)
    rhs, rhs_space = _compile_side(spec.rhs, source, table, make)
    return (_signed_sum(lhs, source.field), _signed_sum(rhs, source.field),
            lhs_space or rhs_space, rhs_space or lhs_space)


def _check_maps(source, specs, reports, stage_maps):
    """Fill `reports` for the (index, spec) pairs of one source checked
    without a window.  Each distinct term is built once per source and each
    distinct stage once per call (`stage_maps`, the caller's table, which
    every source group of the call shares); each side is the signed sum of
    its terms' maps, and the first input, in basis order, on which the two
    sides' rows differ is the witness."""
    table = {}
    size = source.size
    for i, spec in specs:
        left, right, lhs_space, rhs_space = _composed_sides(spec, table, stage_maps)
        if size == 0:
            reports[i] = CheckReport(spec.name, INCONCLUSIVE, None, 0, 0, 0,
                                     spec.note or "no window-valid inputs")
            continue
        mismatch = _first_mismatch(source, left, right, lhs_space == rhs_space)
        if mismatch is None:
            reports[i] = CheckReport(spec.name, PASS, None, size, 0, 0, spec.note)
            continue
        position, idx = mismatch
        witness = Witness(source.labels_of(idx),
                          format_element(Element._trusted(lhs_space, left.get(idx, {}))),
                          format_element(Element._trusted(rhs_space, right.get(idx, {}))))
        reports[i] = CheckReport(spec.name, FAIL, witness, position + 1, 0, 0, spec.note)


def _split(side):
    """A compiled side as (read once, shared): (sign, kernel) for each term
    read once, (sign, slot, kernel) for each shared term."""
    return ([(sign, t.kernel) for sign, t in side if t.slot is None],
            [(sign, t.slot, t.kernel) for sign, t in side if t.slot is not None])


def _compile(source, specs, window, known, tables):
    """The relations of one source compiled for `_check_group`: the open
    relations (index, spec, lhs, rhs, their spaces, whether the spaces are
    equal, their window weights), the (index, spec) of those whose sides
    are both empty, and the number of shared-term slots.  `known` is the
    caller's `WindowSpec.factor_weights` dict and `tables` its dict of
    joined tables (`term_kernel`).  The term table is dropped on return;
    the sides hold what the walk needs."""
    table = {}
    compiled = []

    def make(stages, src):
        return _Term(stages, src, tables)

    for i, spec in specs:
        lhs, lhs_space = _compile_side(spec.lhs, source, table, make)
        rhs, rhs_space = _compile_side(spec.rhs, source, table, make)
        compiled.append((i, spec, lhs, rhs,
                         rhs_space if lhs_space is None else lhs_space,
                         lhs_space if rhs_space is None else rhs_space))
    slots = 0
    for term in table.values():
        if term.uses > 1:
            term.slot = slots
            slots += 1
    relations = []
    zero_maps = []
    for i, spec, lhs, rhs, lhs_space, rhs_space in compiled:
        if lhs_space is None:
            zero_maps.append((i, spec))
            continue
        relations.append((i, spec, _split(lhs), _split(rhs), lhs_space, rhs_space,
                          lhs_space == rhs_space,
                          (window.factor_weights(lhs_space, known),
                           window.factor_weights(rhs_space, known))))
    return relations, zero_maps, slots


def _check_group(source, specs, window, reports, tables):
    """Fill `reports` for the (index, spec) pairs of one source checked
    under `window`, input-major; `tables` is the call's dict of joined
    tables (`term_kernel`)."""
    merge = term_merge(source.field)
    known = {}      # module -> its window weights, for this call
    relations, zero_maps, slots = _compile(source, specs, window, known, tables)
    inputs = window.valid_inputs(source, known)
    source_weights = window.factor_weights(source, known)
    size = len(inputs)
    masked = {}             # index -> coordinates masked so far
    checked = 0
    values = None
    for idx in inputs:
        if not relations:
            break
        checked += 1
        if slots:
            values = [None] * slots
        limit = window.input_limit(source_weights, idx)
        closed = False
        for i, spec, lhs, rhs, lhs_space, rhs_space, same_space, weights in relations:
            lhs = _evaluate(lhs, idx, merge, values)
            rhs = _evaluate(rhs, idx, merge, values)
            if same_space and lhs == rhs:   # equal sides stay equal under one gate
                kept = _gate(lhs, weights[0], limit)
                masked[i] = masked.get(i, 0) + 2 * (len(lhs) - len(kept))
                continue
            n = len(lhs) + len(rhs)
            lhs, rhs = _gate(lhs, weights[0], limit), _gate(rhs, weights[1], limit)
            masked[i] = masked.get(i, 0) + n - len(lhs) - len(rhs)
            if lhs != rhs or not same_space:
                witness = Witness(source.labels_of(idx),
                                  format_element(Element._trusted(lhs_space, lhs)),
                                  format_element(Element._trusted(rhs_space, rhs)))
                inconclusive = _rank(source, idx) + 1 - checked
                reports[i] = CheckReport(spec.name, FAIL, witness, checked, inconclusive,
                                         masked.get(i, 0), spec.note)
                closed = True
        if closed:
            relations = [rel for rel in relations if reports[rel[0]] is None]
    for i, spec in [rel[:2] for rel in relations] + zero_maps:
        if size == 0:
            reports[i] = CheckReport(spec.name, INCONCLUSIVE, None, 0, source.size,
                                     masked.get(i, 0), spec.note or "no window-valid inputs")
        else:
            reports[i] = CheckReport(spec.name, PASS, None, size, source.size - size,
                                     masked.get(i, 0), spec.note)


def _residuals(specs, window, known):
    """lhs - rhs of each relation of `specs`, read from its sides composed
    into maps and, under a window, from the window-valid inputs only, gated
    as `check_relations` gates them: the nonzero values by (position,
    input, coordinate).  `known` is the caller's
    `WindowSpec.factor_weights` dict."""
    out = {}
    for i, spec in enumerate(specs):
        source, field = spec.source, spec.source.field
        left, right, lhs_space, rhs_space = _composed_sides(spec, {}, {})
        inputs = left.keys() | right.keys()
        if window is not None and inputs:
            inputs &= set(window.valid_inputs(source, known))
            source_weights = window.factor_weights(source, known)
            weights = (window.factor_weights(lhs_space, known),
                       window.factor_weights(rhs_space, known))
        for idx in inputs:
            lrow, rrow = left.get(idx, {}), right.get(idx, {})
            if window is not None:
                limit = window.input_limit(source_weights, idx)
                lrow, rrow = _gate(lrow, weights[0], limit), _gate(rrow, weights[1], limit)
            for coord in lrow.keys() | rrow.keys():
                v = field.sub(lrow.get(coord, field.zero), rrow.get(coord, field.zero))
                if not field.is_zero(v):
                    out[i, idx, coord] = v
    return out


def _naming(x, terms):
    """The signed terms that have the map `x` in a stage."""
    return [(sign, stages) for sign, stages in terms
            if any(f is x for stage in stages for f in stage)]


def solve_map(name, source, target, degree, relations, window=None):
    """The map X: source -> target of `degree` for which every relation of
    `relations(X)` holds on the window-valid inputs, or None if none does.

    A term may name X once, as a map of a stage, so lhs - rhs is affine in
    X: its value at X = 0 and that of the terms naming X at each
    homogeneous basis entry of X, read from the sides composed into maps
    and gated as `check_relations` gates them, give one `solve_linear`
    call.  Unknowns left free are set to zero.  A window that leaves no
    input to determine an unknown raises ValueError naming the map."""
    field, zero = source.field, source.field.zero
    unknowns = [(src, dst) for src in source.basis() for dst in target.basis()
                if target.degree(dst) == source.degree(src) + degree]
    specs = relations(GradedMap._trusted(source, target, degree, {}))
    known = {}      # module -> its window weights, for this call
    if unknowns and window is not None and not any(
            window.valid_inputs(spec.source, known) for spec in specs):
        raise ValueError(f"no window-valid equation determines the {name}")
    base = _residuals(specs, window, known)
    columns = []
    for src, dst in unknowns:
        x = GradedMap._trusted(source, target, degree, {src: {dst: field.one}})
        columns.append(_residuals([spec._replace(lhs=_naming(x, spec.lhs),
                                                 rhs=_naming(x, spec.rhs))
                                   for spec in relations(x)], window, known))
    keys = dict.fromkeys(key for part in (base, *columns) for key in part)
    solution = solve_linear([[column.get(key, zero) for column in columns] for key in keys],
                            [field.neg(base.get(key, zero)) for key in keys], field)
    if solution is None:
        return None
    entries = {}
    for (src, dst), v in zip(unknowns, solution):
        entries.setdefault(src, {})[dst] = v    # the constructor drops zeros
    return GradedMap(source, target, degree, entries)


def render_text(suite_name, reports):
    lines = []
    for r in reports:
        stats = f"checked={r.checked}, inconclusive={r.inconclusive}"
        if r.masked_coords:
            stats += f", masked={r.masked_coords}"
        line = f"relation {r.name}: {r.verdict.upper()} ({stats})"
        if r.note:
            line += f" [{r.note}]"
        lines.append(line)
        if r.witness is not None:
            inp = ", ".join(r.witness.input_labels) or "R"
            lines.append(f"  witness input: ({inp})")
            lines.append(f"    lhs: {r.witness.lhs}")
            lines.append(f"    rhs: {r.witness.rhs}")
    verdict = "PASS" if suite_passes(reports) else "FAIL"
    lines.append(f"suite {suite_name}: {verdict}")
    return "\n".join(lines)


def render_json(suite_name, reports):
    """The reports as JSON: byte for byte `json.dumps(payload, indent=2)`
    of {"suite": suite_name, "relations": [r.as_dict() ...], "pass":
    suite_passes(reports)}.

    The schema is fixed, so the layout is written out here and each string
    goes through `encode_basestring_ascii`, the C escaper `json.dumps` uses
    with `ensure_ascii`.  `json.dumps` with an indent runs the pure-Python
    encoder instead, whose closures leave reference cycles behind."""
    from json.encoder import encode_basestring_ascii as q
    out = ['{\n  "suite": ', q(suite_name), ',\n  "relations": [']
    sep = "\n    {"
    for r in reports:
        out += (sep, '\n      "name": ', q(r.name), ',\n      "verdict": ', q(r.verdict),
                f',\n      "checked": {r.checked},\n      "inconclusive": {r.inconclusive}')
        if r.masked_coords:
            out.append(f',\n      "masked_coords": {r.masked_coords}')
        if r.note:
            out += (',\n      "note": ', q(r.note))
        w = r.witness
        if w:
            labels = ",\n          ".join(map(q, w.input_labels))
            out += (',\n      "witness": {\n        "input": ',
                    f"[\n          {labels}\n        ]" if labels else "[]",
                    ',\n        "lhs": ', q(w.lhs), ',\n        "rhs": ', q(w.rhs),
                    "\n      }\n    }")
        else:
            out.append(',\n      "witness": null\n    }')
        sep = ",\n    {"
    out.append("]" if sep == "\n    {" else "\n  ]")
    out.append(',\n  "pass": true\n}' if suite_passes(reports) else ',\n  "pass": false\n}')
    return "".join(out)
