"""The line-oriented structure file format: round trips and diagnostics."""

from fractions import Fraction

import pytest

from cofrob import (parse, render, to_bialgebra, to_tqft, from_bialgebra,
                    from_tqft, ParseError, map_equal, check_cofrobenius,
                    run_full_tqft_suite)
from cofrob.fields import PrimeField

from conftest import all_pass

S2_TEXT = """\
# a hand-written two-sphere
field Q
module:
1 0
w 2
map mu degree 0:
1,1 -> 1 * 1
1,w -> 1 * w
w,1 -> 1 * w
map lambda degree 2:
1 -> 1 * 1#w + 1 * w#1
w -> 1 * w#w
eta:
1 * 1
map eps degree -2:
w -> 1 * R
"""


def test_parse_well_formed_sphere():
    doc = parse(S2_TEXT)
    assert doc.modules[""] == (("1", 0), ("w", 2))
    assert set(doc.maps) == {"mu", "lambda", "eps"}
    assert doc.etas[""] == ((1, "1"),)
    data = to_bialgebra(doc)
    assert all_pass(check_cofrobenius(data, "biunital"))


def test_round_trip_identity():
    doc = parse(S2_TEXT)
    assert parse(render(doc)) == doc


def test_round_trip_from_builders(sphere3, rab3, tqft3, equator):
    for doc in (from_bialgebra(sphere3), from_bialgebra(rab3)):
        assert parse(render(doc)) == doc
    for doc in (from_tqft(tqft3), from_tqft(equator)):
        assert parse(render(doc)) == doc


def test_render_deterministic(rab3):
    doc = from_bialgebra(rab3)
    assert render(doc) == render(doc)
    assert render(parse(render(doc))) == render(doc)


def test_to_bialgebra_reproduces_structure(sphere3):
    back = to_bialgebra(parse(render(from_bialgebra(sphere3))))
    assert map_equal(back.mu, sphere3.mu)
    assert map_equal(back.lam, sphere3.lam)
    assert back.eta == sphere3.eta
    assert map_equal(back.eps, sphere3.eps)


def test_tqft_document_suite(equator):
    t = to_tqft(parse(render(from_tqft(equator))))
    assert all_pass(run_full_tqft_suite(t))


def test_tqft_document_derives_missing_cozipper(equator):
    doc = from_tqft(equator)
    del doc.maps["cozipper"]
    t = to_tqft(parse(render(doc)))
    assert map_equal(t.cozipper, equator.cozipper)


def test_window_round_trip(rab3):
    doc = from_bialgebra(rab3)
    back = to_bialgebra(parse(render(doc)))
    assert back.window == rab3.window
    assert not any(r.verdict == "fail" for r in check_cofrobenius(back, "biunital"))


def test_prime_field_document():
    text = S2_TEXT.replace("field Q", "field F5")
    data = to_bialgebra(parse(text))
    assert data.field == PrimeField(5)
    assert all_pass(check_cofrobenius(data, "biunital"))


def test_undeclared_label_position():
    text = S2_TEXT.replace("w,1 -> 1 * w", "x,1 -> 1 * w")
    with pytest.raises(ParseError, match=r"line 9: undeclared label 'x'"):
        parse(text)


def test_degree_error_names_entry():
    text = S2_TEXT.replace("w -> 1 * w#w", "w -> 1 * 1#w")
    with pytest.raises(ParseError, match="degree error in entry 'w -> 1#w'"):
        parse(text)


def test_malformed_scalar_position():
    text = S2_TEXT.replace("1,w -> 1 * w", "1,w -> oops * w")
    with pytest.raises(ParseError, match="line 8"):
        parse(text)


def test_duplicate_label_rejected():
    text = S2_TEXT.replace("w 2", "w 2\nw 2")
    with pytest.raises(ParseError, match="duplicate basis label"):
        parse(text)


def test_unknown_map_name():
    text = S2_TEXT + "map zeta degree 0:\n"
    with pytest.raises(ParseError, match="unknown map name"):
        parse(text)


def test_missing_module_section():
    with pytest.raises(ParseError, match="no module section"):
        parse("field Q\n")


def test_counit_must_target_r():
    text = S2_TEXT.replace("w -> 1 * R", "w -> 1 * 1")
    with pytest.raises(ParseError, match="counit entries must target R"):
        parse(text)


def test_declared_suite_survives_round_trip():
    doc = parse("suite biunital-cofrobenius\n" + S2_TEXT)
    assert doc.suite == "biunital-cofrobenius"
    assert parse(render(doc)).suite == "biunital-cofrobenius"


@pytest.mark.parametrize("bound,slack", [(6, -1), (6, -2), (-6, 3)])
def test_negative_window_bound_or_slack_names_the_window_line(rab3, bound, slack):
    text = render(from_bialgebra(rab3))
    lines = text.splitlines()
    lineno = next(i for i, line in enumerate(lines, 1) if line.startswith("window"))
    lines[lineno - 1] = f"window bound {bound} slack {slack}:"
    with pytest.raises(ParseError, match=rf"line {lineno}: bound and slack must be "
                                         "non-negative"):
        parse("\n".join(lines))


@pytest.mark.parametrize("text,lineno", [
    # a field after a section would apply only to the coefficients after it
    (S2_TEXT.replace("field Q\n", "") + "field F5\n", 16),
    (S2_TEXT.replace("module:\n", "module:\nfield F5\n"), 4),
    (S2_TEXT.replace("field Q\n", "field Q\nfield F5\n"), 3),
], ids=["trailing", "in-a-section", "repeated"])
def test_field_must_come_before_every_section_and_once(text, lineno):
    with pytest.raises(ParseError, match=rf"^line {lineno}: field must precede every "
                                         "section and appear once$"):
        parse(text)


def test_field_after_comments_and_suite_is_read():
    doc = parse("# comment\n\nsuite product-laws\n" + S2_TEXT.replace("field Q", "field F5"))
    assert doc.field == PrimeField(5)


def test_structure_without_lambda_round_trips(sphere3):
    doc = from_bialgebra(sphere3.replace(lam=None))
    assert "map lambda" not in render(doc)
    assert parse(render(doc)) == doc


@pytest.mark.parametrize("text,lineno,message", [
    # each repeat used to be summed (or, for a window label, overwritten)
    (S2_TEXT.replace("1,w -> 1 * w\n", "1,w -> 1 * w\n1,w -> 1 * w\n"), 9,
     "duplicate source '1,w'"),
    (S2_TEXT.replace("eta:\n1 * 1\n", "eta:\n1 * 1\n1 * 1\n"), 15, "duplicate term for '1'"),
    (S2_TEXT.replace("eta:\n1 * 1\n", "eta:\n1 * 1 + 1 * 1\n"), 14, "duplicate term for '1'"),
    (S2_TEXT.replace("w -> 1 * w#w", "w -> 1 * w#w + 2 * w#w"), 12,
     "duplicate term for 'w#w'"),
    # a second window section used to replace the first
    (S2_TEXT + "window bound 3 slack 1:\nw 1\nwindow bound 5 slack 2:\nw 2\n", 19,
     "duplicate window section ''"),
], ids=["map-source", "eta-line", "eta-term", "map-target", "window-section"])
def test_repeated_entries_are_refused_at_their_line(text, lineno, message):
    with pytest.raises(ParseError, match=rf"^line {lineno}: {message}$"):
        parse(text)


def test_repeated_window_label_is_refused_at_its_line(rab3):
    lines = render(from_bialgebra(rab3)).splitlines()
    at = next(i for i, line in enumerate(lines) if line.startswith("window")) + 1
    label = lines[at].split()[0]
    lines.insert(at + 1, f"{label} 0")
    with pytest.raises(ParseError) as refused:
        parse("\n".join(lines))
    assert str(refused.value) == f"line {at + 2}: duplicate window label {label!r}"


def test_a_large_model_document_round_trips():
    from cofrob import rabinowitz_loop_sphere
    doc = from_bialgebra(rabinowitz_loop_sphere(3, 14))
    text = render(doc)
    assert sum("->" in line for line in text.splitlines()) == 1952
    assert parse(text) == doc


def _long_document(repeat):
    """A document with 1,100 labels, counit rows, mu terms and eta lines, and
    the first copy of `repeat` ('label', 'source', 'target' or 'eta') written
    again 1,000 entries later; returns its text and the repeat's line."""
    labels = [f"x{i}" for i in range(1100)]
    lines = ["field Q", "module:"] + [f"{x} 0" for x in labels]
    if repeat == "label":
        lines.insert(1002, "x0 0")
        return "\n".join(lines) + "\n", 1003
    lines.append("map mu degree 0:")
    terms = [f"1 * {x}" for x in labels[:1000]]
    if repeat == "target":
        terms.append("-2 * x0")
    lines.append("x0,x0 -> " + " + ".join(terms))
    target_line = len(lines)
    lines.append("eta:")
    lines += [f"1 * {x}" for x in labels[:1000]]
    if repeat == "eta":
        lines.append("3 * x0")
    eta_line = len(lines)
    lines.append("map eps degree 0:")
    lines += [f"{x} -> 1 * R" for x in labels]
    if repeat == "source":
        lines.insert(len(lines) - 100, "x0 -> 2 * R")    # right after x999's row
    source_line = len(lines) - 100
    line = {"target": target_line, "eta": eta_line, "source": source_line}[repeat]
    return "\n".join(lines) + "\n", line


@pytest.mark.parametrize("repeat,message", [
    ("label", "duplicate basis label 'x0'"),
    ("source", "duplicate source 'x0'"),
    ("target", "duplicate term for 'x0'"),
    ("eta", "duplicate term for 'x0'"),
])
def test_a_far_repeat_is_refused_at_its_own_line(repeat, message):
    text, line = _long_document(repeat)
    with pytest.raises(ParseError) as info:
        parse(text)
    assert info.value.line == line
    assert str(info.value) == f"line {line}: {message}"


def test_the_long_document_parses_without_its_repeat():
    text, _ = _long_document("target")
    doc = parse(text.replace(" + -2 * x0", ""))
    assert len(doc.modules[""]) == 1100 and len(doc.maps["eps"][1]) == 1100
    assert len(doc.maps["mu"][1][0][1]) == 1000 and len(doc.etas[""]) == 1000


@pytest.mark.parametrize("token,value", [
    ("1", 1), ("-1", -1), ("+1", 1), ("007", 7), ("-0", 0), ("1/2", Fraction(1, 2)),
    ("-3/6", Fraction(-1, 2)), ("1_000", 1000), ("٣", 3), ("-٣", -3),
    ("１", 1), ("--1", None), ("-", None), ("0x1", None), ("1" * 5000, None),
])
def test_rational_coefficient_tokens(token, value):
    """A plain integer is an int, a non-integral rational a Fraction, and
    the tokens Fraction reads besides (a sign, leading zeros, underscores,
    non-ASCII digits) give what Fraction gives; the rest are refused."""
    text = f"module:\nx 0\neta:\n{token} * x\n"
    if value is None:
        with pytest.raises(ParseError) as info:
            parse(text)
        assert str(info.value) == f"line 4: malformed rational scalar {token!r}"
    else:
        ((coeff, _),) = parse(text).etas[""]
        assert coeff == value and type(coeff) is type(value)
