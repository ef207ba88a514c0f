"""Check reports and the relation-checking engine.

A relation is an equality of two linear maps, each given as a sum of
signed pipelines (lists of stages; a stage is a list of maps tensored side
by side).  Both sides are expanded on basis tuples of the common source
rather than materialized as composite matrices, which keeps sparse
intermediates small.  Without a window every basis tuple is evaluated.
With one, only the window-valid tuples are enumerated and evaluated
(`WindowSpec.valid_inputs`); the rest are never built and are counted as
inconclusive.

Verdicts are `pass`, `fail` (always with a witness), `window-inconclusive`
(no input survived the validity gate), or `skipped` (missing structure).
Reports are deterministic: inputs are evaluated in canonical basis order
and the first mismatch wins.  On a fail, the inconclusive count covers
only the inputs that precede the witness in that order.
"""

from dataclasses import dataclass

from .core import Element, format_element
from .tensor import apply_pipeline

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


def suite_passes(reports):
    """Window-inconclusive and skipped relations do not fail a suite."""
    return not any(r.verdict == FAIL for r in reports)


def _side_eval(terms, x, field):
    """terms: list of (sign:int, stages). Returns the summed Element.

    An empty terms list denotes the zero map; None is returned and the
    caller compares against zero.
    """
    total = None
    for sign, stages in terms:
        val = apply_pipeline(stages, x)
        if sign != 1:
            val = val.scale(sign)
        total = val if total is None else total + val
    return total


def _restrict(elem, input_labels, window):
    kept = {}
    masked = 0
    for idx, v in elem.coeffs.items():
        labels = elem.space.labels_of(idx)
        if window.coordinate_reliable(input_labels, labels):
            kept[idx] = v
        else:
            masked += 1
    return Element(elem.space, kept), masked


def _rank(space, idx):
    """Position of a basis tuple in `space.basis()` order (mixed radix)."""
    rank = 0
    for module, i in zip(space.modules, idx):
        rank = rank * module.dim + i
    return rank


def check_relation(name, source, lhs_terms, rhs_terms, window=None, note=""):
    """Compare two signed-pipeline sums on every (window-valid) basis tuple of `source`."""
    field = source.field
    checked = 0
    masked_total = 0
    inputs = source.basis() if window is None else window.valid_inputs(source)
    for idx in inputs:
        labels = source.labels_of(idx)
        x = Element.basis(source, idx)
        lhs = _side_eval(lhs_terms, x, field)
        rhs = _side_eval(rhs_terms, x, field)
        if lhs is None and rhs is None:
            checked += 1
            continue
        if lhs is None:
            lhs = Element(rhs.space)
        if rhs is None:
            rhs = Element(lhs.space)
        if window is not None:
            lhs, m1 = _restrict(lhs, labels, window)
            rhs, m2 = _restrict(rhs, labels, window)
            masked_total += m1 + m2
        checked += 1
        if lhs != rhs:
            witness = Witness(labels, format_element(lhs), format_element(rhs))
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
        lhs, m1 = _restrict(lhs, (), window)
        rhs, m2 = _restrict(rhs, (), window)
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
