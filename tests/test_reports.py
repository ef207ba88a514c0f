"""`check_relation` against the loop it replaced, which visits every input,
tests it against the window, applies each stage to a validated `Element`
and gates coordinates by their labels: whole reports must agree on every
relation of every data suite."""

import sys

import pytest
from hypothesis import given, settings, strategies as st

from cofrob import (BialgebraData, Element, PrimeField, TensorSpace, WindowSpec,
                    circle_models, loop_sphere, make_module, manifold_from_cup,
                    rabinowitz_loop_sphere, sphere_cohomology, torus_cup_data)
from cofrob import reports
from cofrob.reports import (CheckReport, FAIL, INCONCLUSIVE, PASS, Witness,
                            _restrict, check_relation)
from cofrob.core import format_element
from cofrob.suites import DATA_SUITES
from cofrob.tensor import apply_pipeline


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


def _reliable(elem, input_labels, window):
    """The coordinates `WindowSpec.coordinate_reliable` keeps for the
    input, read by label, and how many it masks."""
    kept = {idx: v for idx, v in elem.coeffs.items()
            if window.coordinate_reliable(input_labels, elem.space.labels_of(idx))}
    return Element(elem.space, kept), len(elem.coeffs) - len(kept)


def reference_check_relation(name, source, lhs_terms, rhs_terms, window=None, note=""):
    """Builds every basis input, then tests it against the window."""
    field = source.field
    checked = 0
    inconclusive = 0
    masked_total = 0
    for idx in source.basis():
        labels = source.labels_of(idx)
        if window is not None and not window.input_valid(labels):
            inconclusive += 1
            continue
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
            lhs, m1 = _reliable(lhs, labels, window)
            rhs, m2 = _reliable(rhs, labels, window)
            masked_total += m1 + m2
        checked += 1
        if lhs != rhs:
            witness = Witness(labels, format_element(lhs), format_element(rhs))
            return CheckReport(name, FAIL, witness, checked, inconclusive,
                               masked_total, note)
    if checked == 0:
        return CheckReport(name, INCONCLUSIVE, None, checked, inconclusive,
                           masked_total, note or "no window-valid inputs")
    return CheckReport(name, PASS, None, checked, inconclusive, masked_total, note)


def _compared_calls(monkeypatch, data):
    """(call arguments, report, reference report) for every check_relation
    call made by every data suite that `data` has the maps for."""
    calls = []

    def both(*args, **kwargs):
        report = check_relation(*args, **kwargs)
        calls.append((args, kwargs, report, reference_check_relation(*args, **kwargs)))
        return report

    with monkeypatch.context() as patch:
        for modname, module in list(sys.modules.items()):
            if modname.startswith("cofrob.") and module is not reports:
                if getattr(module, "check_relation", None) is check_relation:
                    patch.setattr(module, "check_relation", both)
        for name, suite in DATA_SUITES.items():
            if name == "poincare-duality" and (data.eta is None or data.eps is None):
                continue    # refused with a ValueError (tests/test_duality.py)
            suite(data)
    return calls


def _window(args, kwargs):
    return kwargs.get("window", args[4] if len(args) > 4 else None)


def _with_window(data, window):
    return BialgebraData(data.module, data.mu, data.lam, data.eta, data.eps, window)


def _torus_f2():
    cup = torus_cup_data()
    cup.field = PrimeField(2)
    return manifold_from_cup(cup)


def _models():
    yield "sphere3-F3", sphere_cohomology(3, field=PrimeField(3))
    yield "torus-F2", _torus_f2()
    rab = rabinowitz_loop_sphere(3, 4)
    yield "rab3-N4", rab
    for flavor in ("rabinowitz", "based-rabinowitz", "loop", "based-loop"):
        yield f"circle-{flavor}-N4", circle_models(4, flavor=flavor)
    yield "loop3-N6", loop_sphere(3, 6)
    yield "circle-loop-N6", circle_models(6, flavor="loop")
    yield "rab3-N4-slack-4", _with_window(
        rab, WindowSpec(rab.window.bound, rab.window.bound, rab.window.weights))


MODELS = dict(_models())


def _fails(calls):
    return any(report.failed for _, _, report, _ in calls)


def _fails_past_invalid_inputs(calls):
    return any(report.failed and report.inconclusive for _, _, report, _ in calls)


def _all_windowed_inconclusive(calls):
    windowed = [report for args, kwargs, report, _ in calls
                if _window(args, kwargs) is not None]
    return windowed and all(r.verdict == INCONCLUSIVE for r in windowed)


def _arity_zero_windowed(calls):
    return any(args[1].arity == 0 and _window(args, kwargs) is not None
               and report.name == "derived-c-c-triple"
               for args, kwargs, report, _ in calls)


def _negative_sign_term(calls):
    return any(sign == -1 for args, _, _, _ in calls
               for sign, _ in (*args[2], *args[3]))


# each case the gate rewrite and the compiled sign seeds must get right is
# reached by one of the models
REACHES = {
    "sphere3-F3": _negative_sign_term,
    "loop3-N6": _fails,
    "circle-loop-N6": _fails_past_invalid_inputs,
    "rab3-N4-slack-4": _all_windowed_inconclusive,
    "rab3-N4": _arity_zero_windowed,
}


@pytest.mark.parametrize("model", list(MODELS))
def test_reports_match_visit_every_input(monkeypatch, model):
    calls = _compared_calls(monkeypatch, MODELS[model])
    assert calls
    for args, kwargs, report, ref in calls:
        assert report == ref, (args[0], report, ref)
    if model in REACHES:
        assert REACHES[model](calls)


@st.composite
def gated_elements(draw):
    """A window over random weights, a bound and a slack, an input's labels,
    and an element of a tensor space of arity 0 to 3 with every basis tuple
    as a coordinate."""
    weights = draw(st.lists(st.integers(min_value=-6, max_value=6), min_size=3, max_size=3))
    labels = ("u", "v", "w")
    window = WindowSpec(draw(st.integers(min_value=0, max_value=10)),
                        draw(st.integers(min_value=0, max_value=4)),
                        {lbl: w for lbl, w in zip(labels, weights) if w})
    module = make_module([(lbl, 0) for lbl in labels])
    space = TensorSpace((module,) * draw(st.integers(min_value=0, max_value=3)))
    elem = Element(space, {idx: 1 for idx in space.basis()})
    input_labels = tuple(draw(st.lists(st.sampled_from(labels), max_size=3)))
    return window, input_labels, elem


@settings(max_examples=150, deadline=None)
@given(gated_elements())
def test_index_gate_keeps_what_coordinate_reliable_keeps(case):
    """`_restrict`'s index-level gate keeps exactly the coordinates that
    the label-based `coordinate_reliable` keeps, and masks the rest."""
    window, input_labels, elem = case
    gated = _restrict(elem, window.factor_weights(elem.space),
                      window.coordinate_limit(input_labels))
    assert gated == _reliable(elem, input_labels, window)
