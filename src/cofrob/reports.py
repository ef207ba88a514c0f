"""Check reports and the relation-checking engine.

A relation is an equality of two linear maps, each given as a sum of
signed pipelines (lists of stages; a stage is a list of maps tensored side
by side).  `check_relation` compiles each stage of each term once into a
`StagePlan` and then expands both sides on basis tuples of the common
source rather than materializing composite matrices, which keeps sparse
intermediates small.  Each plan is linked to the next plan of its term,
its consumer (`StagePlan.feed`), so a stage never builds a product term
the next stage would skip for lack of a row: pairings such as
(1(x)p(x)1)(lam(x)lam) discard most terms of lam(x) (x) lam(y).  Only such
terms are dropped, so every sum, verdict and witness is what the unlinked
plans give.  The plans live only for that one call.  Without a
window every basis tuple is evaluated.  With one, only the window-valid
tuples are enumerated and evaluated (`WindowSpec.valid_inputs`); the rest
are never built and are counted as inconclusive.

Verdicts are `pass`, `fail` (always with a witness), `window-inconclusive`
(no input survived the validity gate), or `skipped`: a checker returns one
skipped report per relation that needs a unit or counit the structure
lacks.  Reports are deterministic: inputs are evaluated in canonical basis
order and the first mismatch wins.  On a fail, the inconclusive count
covers only the inputs that precede the witness in that order.
"""

from dataclasses import dataclass, replace

from .core import Element, format_element
from .tensor import StagePlan

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
    """The reports with `prefix` put before each relation name."""
    return [replace(r, name=prefix + r.name) for r in reports]


def suite_passes(reports):
    """Window-inconclusive and skipped relations do not fail a suite."""
    return not any(r.verdict == FAIL for r in reports)


def _compile_side(terms, source):
    """Compile one side of a relation: (sign, plans) per signed term, and
    the space the side lands in (None for the zero map, an empty side).

    Terms of one side that land in different spaces cannot be added and
    raise ValueError."""
    field = source.field
    compiled = []
    space = None
    for sign, stages in terms:
        plans = []
        term_space = source
        for maps in stages:
            plan = StagePlan(maps, term_space)
            if plans:
                plans[-1].feed(plan)
            plans.append(plan)
            term_space = plan.space
        if space is not None and term_space != space:
            raise ValueError("cannot add elements of different spaces")
        space = term_space
        compiled.append((field.coerce(sign), plans))
    return compiled, space


def _evaluate(compiled, idx, field):
    """The summed value of a compiled side on the basis tuple `idx`: each
    term is seeded with its sign and its last plan adds into one dict."""
    total = {}
    for sign, plans in compiled:
        if not plans:       # a signed identity term
            s = field.add(total.get(idx, field.zero), sign)
            if field.is_zero(s):
                total.pop(idx, None)
            else:
                total[idx] = s
            continue
        coeffs = {idx: sign}
        for plan in plans[:-1]:
            coeffs = plan.run(coeffs)
        plans[-1].run(coeffs, total)
    return total


def _restrict(elem, weights, limit):
    """The coordinates of `elem` reliable for an input whose
    `WindowSpec.coordinate_limit` is `limit`, and how many were masked;
    `weights` is `WindowSpec.factor_weights(elem.space)`."""
    positive, negative = weights
    at = tuple.__getitem__
    kept = {idx: v for idx, v in elem.coeffs.items()
            if sum(map(at, positive, idx)) <= limit
            and sum(map(at, negative, idx)) <= limit}
    return Element._trusted(elem.space, kept), len(elem.coeffs) - len(kept)


def _rank(space, idx):
    """Position of a basis tuple in `space.basis()` order (mixed radix)."""
    rank = 0
    for module, i in zip(space.modules, idx):
        rank = rank * module.dim + i
    return rank


def check_relation(name, source, lhs_terms, rhs_terms, window=None, note=""):
    """Compare two signed-pipeline sums on every (window-valid) basis tuple of `source`.

    Each stage of each term is compiled once into a `StagePlan`; the plans
    live only for this call.  An empty side is the zero map."""
    field = source.field
    lhs_plan, lhs_space = _compile_side(lhs_terms, source)
    rhs_plan, rhs_space = _compile_side(rhs_terms, source)
    if lhs_space is None:
        lhs_space = rhs_space
    if rhs_space is None:
        rhs_space = lhs_space
    checked = 0
    masked_total = 0
    if window is None:
        inputs = source.basis()
    else:
        inputs = window.valid_inputs(source)
        if lhs_space is not None:
            lhs_weights = window.factor_weights(lhs_space)
            rhs_weights = window.factor_weights(rhs_space)
    for idx in inputs:
        checked += 1
        if lhs_space is None:       # both sides are the zero map
            continue
        lhs = Element._trusted(lhs_space, _evaluate(lhs_plan, idx, field))
        rhs = Element._trusted(rhs_space, _evaluate(rhs_plan, idx, field))
        if window is not None:
            limit = window.coordinate_limit(source.labels_of(idx))
            lhs, m1 = _restrict(lhs, lhs_weights, limit)
            rhs, m2 = _restrict(rhs, rhs_weights, limit)
            masked_total += m1 + m2
        if lhs != rhs:
            witness = Witness(source.labels_of(idx), format_element(lhs),
                              format_element(rhs))
            inconclusive = _rank(source, idx) + 1 - checked
            return CheckReport(name, FAIL, witness, checked, inconclusive,
                               masked_total, note)
    inconclusive = source.size - checked
    if checked == 0:
        return CheckReport(name, INCONCLUSIVE, None, checked, inconclusive,
                           masked_total, note or "no window-valid inputs")
    return CheckReport(name, PASS, None, checked, inconclusive, masked_total, note)


def check_elements_equal(name, lhs, rhs, window=None, note=""):
    """Equality of two elements, coordinate-gated under a window."""
    masked = 0
    if window is not None:
        limit = window.coordinate_limit(())
        lhs, m1 = _restrict(lhs, window.factor_weights(lhs.space), limit)
        rhs, m2 = _restrict(rhs, window.factor_weights(rhs.space), limit)
        masked = m1 + m2
    if lhs != rhs:
        witness = Witness((), format_element(lhs), format_element(rhs))
        return CheckReport(name, FAIL, witness, 1, 0, masked, note)
    return CheckReport(name, PASS, None, 1, 0, masked, note)


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
    import json
    payload = {
        "suite": suite_name,
        "relations": [r.as_dict() for r in reports],
        "pass": suite_passes(reports),
    }
    return json.dumps(payload, indent=2)
