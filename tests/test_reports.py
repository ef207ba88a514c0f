"""`check_relations` against the loop it replaced,
which visits every input, tests it against the window, applies each stage
to a validated `Element` and gates coordinates by their labels: whole
reports must agree on every relation of every data suite, and a batch of
relations must report each one as it is reported alone."""

import sys
from dataclasses import replace

import pytest
from hypothesis import example, given, settings, strategies as st

from cofrob import (BialgebraData, Element, GradedMap, PrimeField, TensorSpace, WindowSpec,
                    circle_models, loop_sphere, make_module, manifold_from_cup,
                    rabinowitz_loop_sphere, sphere_cohomology, torus_cup_data)
from cofrob import reports
from cofrob.reports import (CheckReport, FAIL, INCONCLUSIVE, PASS, SKIPPED, Relation,
                            Witness, check_relations)
from cofrob.core import format_element
from cofrob.suites import DATA_SUITES

from pipeline_reference import apply_pipeline
from window_reference import coordinate_reliable, input_valid
from test_tensor import F3_MOD, f3_maps


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
    """The coordinates `window_reference.coordinate_reliable` keeps for the
    input, read by label, and how many it masks."""
    kept = {idx: v for idx, v in elem.coeffs.items()
            if coordinate_reliable(window, input_labels, elem.space.labels_of(idx))}
    return Element(elem.space, kept), len(elem.coeffs) - len(kept)


def reference_check_relation(name, source, lhs_terms, rhs_terms, window=None, note=""):
    """Builds every basis input, then tests it against the window."""
    field = source.field
    checked = 0
    inconclusive = 0
    masked_total = 0
    for idx in source.basis():
        labels = source.labels_of(idx)
        if window is not None and not input_valid(window, labels):
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


def _unbacked(out, produced):
    """The names of the non-skipped reports in `out` that are not among
    `produced`, the reports of the compared relations.  A prefixed report
    ("dual-...") matches the report it was renamed from; the latest one is
    taken first, since a suite may check a relation of the same name
    beforehand without reporting it (the poincare-duality precheck)."""
    pool = list(produced)
    missing = []
    for r in out:
        if r.verdict == SKIPPED:
            continue
        for k in reversed(range(len(pool))):
            q = pool[k]
            if r.name.endswith(q.name) and replace(q, name=r.name) == r:
                del pool[k]
                break
        else:
            missing.append(r.name)
    return missing


def _compared_calls(monkeypatch, data):
    """(relation, window, report, reference report) for every relation that
    every data suite that `data` has the maps for checks in a
    `check_relations` batch.  Every non-skipped
    report a suite returns must come from one of them, so a relation
    checked any other way fails."""
    calls = []

    def compare(spec, window, report):
        ref = reference_check_relation(*spec[:4], window, spec.note)
        calls.append((spec, window, report, ref))

    def batch(specs, window=None):
        out = check_relations(specs, window)
        for spec, report in zip(specs, out):
            compare(spec, window, report)
        return out

    with monkeypatch.context() as patch:
        for modname, module in list(sys.modules.items()):
            if modname.startswith("cofrob.") and module is not reports:
                if getattr(module, "check_relations", None) is check_relations:
                    patch.setattr(module, "check_relations", batch)
        for name, suite in DATA_SUITES.items():
            if name == "poincare-duality" and (data.eta is None or data.eps is None):
                continue    # refused with a ValueError (tests/test_duality.py)
            first = len(calls)
            out = suite(data)
            produced = [report for _, _, report, _ in calls[first:]]
            assert not _unbacked(out, produced), (name, _unbacked(out, produced))
    return calls


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
    windowed = [report for _, window, report, _ in calls if window is not None]
    return windowed and all(r.verdict == INCONCLUSIVE for r in windowed)


def _arity_zero_windowed(calls):
    return any(spec.source.arity == 0 and window is not None
               and report.name == "derived-c-c-triple"
               for spec, window, report, _ in calls)


def _negative_sign_term(calls):
    return any(sign == -1 for spec, _, _, _ in calls
               for sign, _ in (*spec.lhs, *spec.rhs))


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
    for spec, _, report, ref in calls:
        assert report == ref, (spec.name, report, ref)
    if model in REACHES:
        assert REACHES[model](calls)


# the identities between elements, each a relation on R, with the model and
# suite that report them; the TQFT reports its sectors' copairing symmetry
ELEMENT_IDENTITIES = [
    ("rab3", "biunital-infinitesimal", "twist-of-lam-eta"),
    ("rab3", "biunital-cofrobenius", "copairing-symmetry"),
    ("rab3", "involutivity", "involutive-mu-c"),
    ("rab3", "poincare-duality", "unit-transport"),
    ("rab3", "poincare-duality", "inverse-unit-transport"),
    ("loop-tqft3", "tqft-full", "closed-copairing-symmetry"),
    ("loop-tqft3", "tqft-full", "open-copairing-symmetry"),
    ("loop-tqft3", "tqft-full", "rel3-zipper-unit"),
]


@pytest.mark.parametrize("model, suite, name", ELEMENT_IDENTITIES,
                         ids=[f"{m}-{n}" for m, _, n in ELEMENT_IDENTITIES])
def test_element_identities_are_window_inconclusive_without_valid_inputs(model, suite, name):
    """At bound 3 with slack 3 no input is window-valid, R's one input
    included, so an identity between elements is window-inconclusive like
    every other relation, not a pass with every coordinate masked."""
    from cofrob import loop_tqft_sphere, run_suite
    obj = (rabinowitz_loop_sphere(3, 3) if model == "rab3" else loop_tqft_sphere(3, 3))
    window = obj.window
    assert window.bound <= window.slack
    [report] = [r for r in run_suite(suite, obj) if r.name == name]
    assert (report.verdict, report.checked, report.inconclusive) == (INCONCLUSIVE, 0, 1)
    assert report.masked_coords == 0 and report.witness is None


@st.composite
def gated_elements(draw):
    """A window over random weights, a bound and a slack, an input (its
    space and index tuple, of arity 0 to 5), and an element of a tensor
    space of arity 0 to 5 with every basis tuple as a coordinate.  Each
    arity is its own generated gate and limit source."""
    weights = draw(st.lists(st.integers(min_value=-6, max_value=6), min_size=3, max_size=3))
    labels = ("u", "v", "w")
    window = WindowSpec(draw(st.integers(min_value=0, max_value=10)),
                        draw(st.integers(min_value=0, max_value=4)),
                        {lbl: w for lbl, w in zip(labels, weights) if w})
    module = make_module([(lbl, 0) for lbl in labels])
    space = TensorSpace((module,) * draw(st.integers(min_value=0, max_value=5)))
    elem = Element(space, {idx: 1 for idx in space.basis()})
    input_idx = tuple(draw(st.lists(st.integers(min_value=0, max_value=2), max_size=5)))
    return window, TensorSpace((module,) * len(input_idx)), input_idx, elem


@settings(max_examples=150, deadline=None)
@given(gated_elements())
def test_index_gate_keeps_what_coordinate_reliable_keeps(case):
    """The generated `WindowSpec.gate` of the element's space, under the
    limit that the generated `input_limit` of the input's space reads from
    its indices, keeps exactly the coordinates that the label-based
    `coordinate_reliable` keeps, and masks the rest."""
    window, input_space, input_idx, elem = case
    kept = window.gate(elem.space)(elem.coeffs, window.input_limit(input_space)(input_idx))
    reliable, masked = _reliable(elem, input_space.labels_of(input_idx), window)
    assert kept == reliable.coeffs
    assert len(elem.coeffs) - len(kept) == masked


@st.composite
def relation_batches(draw):
    """A window or none, and one to four relations on F3^1 or F3^2 whose
    sides are 0 to 3 signed terms drawn from one pool per source, so that
    relations and sides share terms, repeat them with other signs, and
    use the identity term when source and target have the same arity.
    The maps are random, so most relations fail, many at an early input."""
    target = draw(st.integers(min_value=1, max_value=2))
    pools = {}
    for k in (1, 2):
        pool = [[]] if k == target else []
        for _ in range(draw(st.integers(min_value=1, max_value=3))):
            shape = draw(st.sampled_from(("one", "two", "tensor")))
            if shape == "one":
                pool.append([[draw(f3_maps(k, target))]])
            elif shape == "two":
                j = draw(st.integers(min_value=1, max_value=2))
                pool.append([[draw(f3_maps(k, j))], [draw(f3_maps(j, target))]])
            else:
                pool.append([[draw(f3_maps(k, 2))],
                             [draw(f3_maps(1, 1)), draw(f3_maps(1, target - 1))]])
        pools[k] = pool

    def side(k):
        return [(draw(st.sampled_from((1, -1, 2))), draw(st.sampled_from(pools[k])))
                for _ in range(draw(st.integers(min_value=0, max_value=3)))]

    specs = []
    for n in range(draw(st.integers(min_value=1, max_value=4))):
        k = draw(st.integers(min_value=1, max_value=2))
        specs.append(Relation(f"r{n}", TensorSpace((F3_MOD,) * k), side(k), side(k),
                              draw(st.sampled_from(("", "note")))))
    window = None
    if draw(st.booleans()):
        weights = draw(st.lists(st.integers(min_value=-2, max_value=2),
                                min_size=3, max_size=3))
        window = WindowSpec(draw(st.integers(min_value=0, max_value=6)),
                            draw(st.integers(min_value=0, max_value=2)),
                            dict(zip(F3_MOD.labels, weights)))
    return specs, window


def _against_identity(name, scales):
    """The relation id = D on F3_MOD, D the degree-0 map that multiplies
    each basis vector by its entry of `scales`."""
    space = TensorSpace((F3_MOD,))
    diagonal = GradedMap(space, space, 0, {(i,): {(i,): c} for i, c in enumerate(scales)})
    return Relation(name, space, [(1, [])], [(1, [[diagonal]])])


# Only `a` has a weight: the input a is window-valid (2 + 0 <= 3 - 1), and
# its coordinate a is masked (2 + 2 + 0 > 3); b and c weigh 0 and are kept.
MASK_A = WindowSpec(3, 0, {"a": 2})
# The sides differ only at the masked coordinate a, or also at the kept c.
DIFFER_WHERE_MASKED = ([_against_identity("differ-where-masked", (2, 1, 1))], MASK_A)
DIFFER_WHERE_KEPT = ([_against_identity("differ-where-kept", (2, 1, 2))], MASK_A)


@settings(max_examples=150, deadline=None)
@given(relation_batches())
@example(DIFFER_WHERE_MASKED)
@example(DIFFER_WHERE_KEPT)
def test_batched_relations_report_as_checked_one_by_one(batch):
    """Over F3: `check_relations` gives each relation the report that it
    gives the relation alone, and that the visit-every-input reference
    gives."""
    specs, window = batch
    reports_ = check_relations(specs, window)
    assert len(reports_) == len(specs)
    for spec, report in zip(specs, reports_):
        assert [report] == check_relations([spec], window), spec.name
        assert report == reference_check_relation(*spec[:4], window, spec.note), spec.name


def test_prefixed_keeps_every_field_of_each_report():
    """`prefixed` changes only the name: each report equals the one
    `dataclasses.replace` makes, every field of `CheckReport` set."""
    from dataclasses import fields
    full = CheckReport("r", FAIL, Witness(("a", "b"), "1*a", "2*b"), checked=3,
                       inconclusive=2, masked_coords=5, note="n")
    assert all(getattr(full, f.name) != f.default for f in fields(CheckReport))
    reports_in = [full, CheckReport("s", PASS, checked=1), CheckReport("t", SKIPPED, note="x")]
    assert reports.prefixed("dual-", reports_in) == \
        [replace(r, name="dual-" + r.name) for r in reports_in]


def test_sides_that_differ_are_gated_each():
    """Sides that differ before the gate are gated one by one: differing
    only where it masks, they pass with both sides' masked coordinate
    counted; differing at a kept coordinate, they fail there."""
    [passed] = check_relations(*DIFFER_WHERE_MASKED)
    assert (passed.verdict, passed.checked, passed.masked_coords) == (PASS, 3, 2)
    [failed] = check_relations(*DIFFER_WHERE_KEPT)
    assert (failed.verdict, failed.checked, failed.masked_coords) == (FAIL, 3, 2)
    assert failed.witness == Witness(("c",), "1*c", "2*c")


def test_each_distinct_term_runs_once_per_input(monkeypatch):
    """On `rabinowitz_loop_sphere(3, 4)` the biunital infinitesimal
    relations name some terms more than once, yet each distinct term is
    compiled into one kernel once and its kernel is called once on each
    input checked for its source.  The batch has two sources: the twist of
    lam(eta) is a relation on R."""
    from collections import Counter
    from cofrob import structures
    data = rabinowitz_loop_sphere(3, 4)
    batches, calls, terms = [], Counter(), []
    term_init = reports._Term.__init__

    def recording(term, stages, source, tables):
        term_init(term, stages, source, tables)
        kernel = term.kernel

        def counting(idx, v, out):
            calls[term] += 1
            kernel(idx, v, out)
        term.kernel = counting
        terms.append((source, term))

    def batch(specs, window=None):
        with monkeypatch.context() as patch:
            patch.setattr(reports._Term, "__init__", recording)
            out = check_relations(specs, window)
        batches.append((specs, out))
        return out

    monkeypatch.setattr(structures, "check_relations", batch)
    structures.run_entries(data, structures.BIUNITAL_INFINITESIMAL)
    [(specs, out)] = batches
    assert all(r.passed for r in out)
    sources = {spec.source for spec in specs}
    assert len(sources) == 2
    repeated = False
    for source in sources:
        named = [(spec, r) for spec, r in zip(specs, out) if spec.source == source]
        occurrences = [stages for spec, _ in named for _, stages in (*spec.lhs, *spec.rhs)]
        distinct = {tuple(tuple(map(id, maps)) for maps in stages)
                    for stages in occurrences}
        repeated |= len(occurrences) > len(distinct)
        compiled = [term for s, term in terms if s == source]
        assert len(compiled) == len(distinct)
        [checked] = {r.checked for _, r in named}
        assert {calls[term] for term in compiled} == {checked}
    assert repeated
    assert len(calls) == len(terms)


def test_solves_build_no_stage_plan(monkeypatch):
    """`solve_map` reads its residuals from composed maps, with or without
    a window: only windowed checks walk inputs through term kernels."""
    from cofrob import counit_solve, derive_cozipper, equator_pair, map_equal
    from cofrob.structures import run_entries
    compiled = []
    compile_term = reports.term_kernel

    def record(stages, source, tables=None):
        compiled.append(stages)
        return compile_term(stages, source, tables)

    monkeypatch.setattr(reports, "term_kernel", record)
    data, pair = rabinowitz_loop_sphere(3, 6), equator_pair()
    assert data.window is not None
    assert map_equal(counit_solve(data), data.eps)
    assert map_equal(derive_cozipper(pair.closed, pair.open, pair.zipper), pair.cozipper)
    assert not compiled
    run_entries(data, ("counit",))
    assert compiled


# Quotes, backslashes, control characters, a DEL, non-ASCII letters and an
# astral character (escaped as a surrogate pair).
json_text = st.text(alphabet=st.sampled_from(
    ['a', 'Z', '0', ' ', '"', '\\', '/', '\n', '\t', '\x00', '\x1f', '\x7f',
     'é', 'λ', '⊗', ' ', '\U0001d4ae']), max_size=8)
json_reports = st.builds(
    CheckReport, name=json_text, verdict=st.sampled_from((PASS, FAIL, INCONCLUSIVE, SKIPPED)),
    witness=st.none() | st.builds(Witness, st.lists(json_text, max_size=3).map(tuple),
                                  json_text, json_text),
    checked=st.integers(min_value=0, max_value=10**6),
    inconclusive=st.integers(min_value=0, max_value=10**6),
    masked_coords=st.sampled_from((0, 0, 1, 37)), note=json_text | st.just(""))


@settings(max_examples=300, deadline=None)
@given(json_text, st.lists(json_reports, max_size=4))
def test_render_json_is_json_dumps_with_indent_2(suite, reports_):
    """The hand-written emitter gives the bytes of the stdlib encoder it
    replaced, on every string escape, an empty or missing witness input, a
    report with and without masked coordinates and note, and no reports."""
    import json
    payload = {"suite": suite, "relations": [r.as_dict() for r in reports_],
               "pass": reports.suite_passes(reports_)}
    assert reports.render_json(suite, reports_) == json.dumps(payload, indent=2)
