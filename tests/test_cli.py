"""End-to-end command line behavior: subcommands, exit codes, formats."""

import io
import json
import contextlib

import pytest
from hypothesis import given, settings, strategies as st

from cofrob.cli import main
from cofrob.suites import DATA_SUITES, TQFT_SUITES


def run_cli(*argv):
    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def emit_example(tmp_path, name, *extra):
    path = tmp_path / f"{name.replace('-', '_')}.cofrob"
    code, _, err = run_cli("example", "--name", name, *extra, "--emit", str(path))
    assert code == 0, err
    return str(path)


def test_example_pipe_to_check(tmp_path):
    path = emit_example(tmp_path, "sphere", "--n", "3")
    code, out, _ = run_cli("check", "--suite", "biunital-cofrobenius", path)
    assert code == 0
    assert out.strip().endswith("suite biunital-cofrobenius: PASS")


def test_loop_sphere_unital_cofrobenius_fails(tmp_path):
    path = emit_example(tmp_path, "loop-sphere", "--n", "3", "--window", "6")
    code, out, _ = run_cli("check", "--suite", "unital-cofrobenius", path)
    assert code == 1
    assert "unital-cofrobenius-left: FAIL" in out
    assert "witness" in out


def test_cardy_failure_witness_coefficient_two(tmp_path):
    path = emit_example(tmp_path, "submanifold", "--pair", "factor")
    code, out, _ = run_cli("check", "--suite", "cardy", path)
    assert code == 1
    assert "rel6-cardy: FAIL" in out
    assert "rhs: 2*w" in out


def test_cardy_passes_for_diagonal(tmp_path):
    path = emit_example(tmp_path, "submanifold", "--pair", "diagonal")
    code, out, _ = run_cli("check", "--suite", "cardy", path)
    assert code == 0


def test_tqft_full_suite_on_loop(tmp_path):
    path = emit_example(tmp_path, "loop-tqft", "--n", "3", "--window", "6")
    code, out, _ = run_cli("check", "--suite", "tqft-full", path)
    assert code == 0
    assert "rel6-cardy" in out


def test_json_format_stable(tmp_path):
    path = emit_example(tmp_path, "submanifold", "--pair", "factor")
    code1, out1, _ = run_cli("check", "--suite", "cardy", "--format", "json", path)
    code2, out2, _ = run_cli("check", "--suite", "cardy", "--format", "json", path)
    assert code1 == code2 == 1
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["suite"] == "cardy"
    assert payload["pass"] is False
    assert payload["relations"][0]["witness"]["rhs"] == "2*w"


def test_unknown_suite_rejected(tmp_path):
    path = emit_example(tmp_path, "sphere", "--n", "2")
    with pytest.raises(SystemExit):
        run_cli("check", "--suite", "nonsense", path)


def test_parse_error_exit_code(tmp_path):
    path = tmp_path / "bad.cofrob"
    path.write_text("field Q\nmodule:\nx zero\n")
    code, _, err = run_cli("check", "--suite", "product-laws", str(path))
    assert code == 2
    assert "line 3" in err


def test_missing_file_exit_code():
    code, _, err = run_cli("check", "--suite", "product-laws", "/nonexistent.cofrob")
    assert code == 2


def test_suite_structure_mismatch(tmp_path):
    pair = emit_example(tmp_path, "submanifold", "--pair", "equator")
    code, _, err = run_cli("check", "--suite", "product-laws", pair)
    assert code == 2
    assert "single structure" in err


def drop_section(text, header):
    """`text` without the section that starts with the line `header`."""
    out, dropping = [], False
    for line in text.splitlines(keepends=True):
        if line.rstrip().endswith(":"):
            dropping = line.startswith(header)
        if not dropping:
            out.append(line)
    return "".join(out)


@pytest.mark.parametrize("derived", [False, True], ids=["given-cozipper", "derived-cozipper"])
@pytest.mark.parametrize("header,message", [
    ("eta closed", "TQFT closed sector has no unit (eta)"),
    ("map open.eps", "TQFT open sector has no counit (eps)")])
def test_tqft_sector_without_unit_or_counit_exits_2(tmp_path, header, message, derived):
    text = drop_section(open(emit_example(tmp_path, "submanifold", "--pair", "equator")).read(),
                        header)
    if derived:
        text = drop_section(text, "map cozipper")
    path = tmp_path / "cut.cofrob"
    path.write_text(text, encoding="utf-8")
    code, _, err = run_cli("check", "--suite", "tqft-full", str(path))
    assert code == 2
    assert message in err
    assert "Traceback" not in err


def test_transform_dual_then_check(tmp_path):
    path = emit_example(tmp_path, "sphere", "--n", "2")
    out_path = tmp_path / "dual.cofrob"
    code, _, _ = run_cli("transform", "--op", "dual", path, "--emit", str(out_path))
    assert code == 0
    code, out, _ = run_cli("check", "--suite", "biunital-cofrobenius", str(out_path))
    assert code == 0


def test_transform_rescale_roundtrip(tmp_path):
    path = emit_example(tmp_path, "sphere", "--n", "2")
    once = tmp_path / "r1.cofrob"
    twice = tmp_path / "r2.cofrob"
    run_cli("transform", "--op", "rescale", "--m", "1", "--l", "0", path,
            "--emit", str(once))
    run_cli("transform", "--op", "rescale", "--m", "1", "--l", "0", str(once),
            "--emit", str(twice))
    assert (tmp_path / "r2.cofrob").read_text() == open(path).read()


def test_derive_from_pairing(tmp_path):
    path = emit_example(tmp_path, "sphere", "--n", "2")
    # strip the coproduct section, then re-derive it
    lines = open(path).read().splitlines()
    kept, in_lambda = [], False
    for line in lines:
        if line.startswith("map lambda"):
            in_lambda = True
            continue
        if in_lambda and "->" in line:
            continue
        in_lambda = False
        kept.append(line)
    stripped = tmp_path / "nolambda.cofrob"
    stripped.write_text("\n".join(kept) + "\n")
    code, out, _ = run_cli("derive", "--from-pairing", str(stripped))
    assert code == 0
    assert out == open(path).read()


def test_derive_rejects_missing_eps(tmp_path):
    path = emit_example(tmp_path, "loop-sphere", "--n", "3", "--window", "6")
    code, _, err = run_cli("derive", "--from-pairing", path)
    assert code == 2
    assert "eps" in err


def test_declared_suite_used_as_default(tmp_path):
    path = emit_example(tmp_path, "sphere", "--n", "2")
    text = "suite biunital-cofrobenius\n" + open(path).read()
    doc_path = tmp_path / "declared.cofrob"
    doc_path.write_text(text)
    code, out, _ = run_cli("check", str(doc_path))
    assert code == 0
    assert "suite biunital-cofrobenius: PASS" in out


def test_circle_examples(tmp_path):
    path = emit_example(tmp_path, "circle", "--window", "6")
    code, _, _ = run_cli("check", "--suite", "biunital-cofrobenius", path)
    assert code == 0
    path = emit_example(tmp_path, "circle", "--flavor", "based-loop",
                        "--vector-field", "-", "--window", "6")
    code, _, _ = run_cli("check", "--suite", "unital-infinitesimal", path)
    assert code == 0


def test_window_inconclusive_does_not_fail(tmp_path):
    path = emit_example(tmp_path, "rabinowitz-loop-sphere", "--n", "3",
                        "--window", "6")
    code, out, _ = run_cli("check", "--suite", "biunital-cofrobenius", path)
    assert code == 0
    assert "inconclusive=" in out


def test_missing_unit_is_skipped_not_refused(tmp_path):
    from cofrob import docio, sphere_cohomology
    path = tmp_path / "counit_only.cofrob"
    data = sphere_cohomology(3).replace(eta=None)
    path.write_text(docio.render(docio.from_bialgebra(data)), encoding="utf-8")
    code, out, _ = run_cli("check", "--suite", "unital-infinitesimal", str(path))
    assert code == 0
    assert "relation unital-infinitesimal: SKIPPED" in out
    assert "relation unital-anti-symmetry: SKIPPED" in out
    assert "[no unit present]" in out
    assert out.strip().endswith("suite unital-infinitesimal: PASS")


def test_derived_identities_without_unit_or_counit_are_skipped(tmp_path):
    from cofrob import docio, sphere_cohomology
    path = tmp_path / "bare.cofrob"
    data = sphere_cohomology(3).replace(eta=None, eps=None)
    path.write_text(docio.render(docio.from_bialgebra(data)), encoding="utf-8")
    code, out, err = run_cli("check", "--suite", "derived-identities", str(path))
    assert code == 0, err
    for name in ("derived-p-p-triple", "derived-p-mu-symmetric", "derived-lam-lam-p"):
        assert f"relation {name}: SKIPPED (checked=0, inconclusive=0) [no counit present]" in out
    assert out.strip().endswith("suite derived-identities: PASS")


@pytest.mark.parametrize("slack", ["-1", "-2"])
def test_negative_window_slack_exits_2(tmp_path, slack):
    # the document passes biunital-cofrobenius at its own slack; a negative
    # slack used to report failing relations with exit code 1
    path = emit_example(tmp_path, "rabinowitz-loop-sphere", "--n", "3", "--window", "6")
    text = open(path, encoding="utf-8").read().replace("slack 3:", f"slack {slack}:")
    bad = tmp_path / "negative.cofrob"
    bad.write_text(text, encoding="utf-8")
    code, out, err = run_cli("check", "--suite", "biunital-cofrobenius", str(bad))
    assert code == 2 and not out
    assert err.startswith("error: line ") and "non-negative" in err


@pytest.mark.parametrize("argv,message", [
    (("--name", "sphere", "--n", "0"), "sphere dimension must be >= 1"),
    (("--name", "loop-sphere", "--n", "0"), "only odd sphere dimensions"),
    (("--name", "loop-sphere", "--window", "-2"), "window bound must be >= 3"),
    (("--name", "based-loop-sphere", "--window", "2"), "window bound must be >= 3"),
    (("--name", "based-rabinowitz-loop-sphere", "--window", "-2"),
     "window bound must be >= 3"),
], ids=["sphere-n0", "loop-n0", "loop-window-2", "based-loop-window2",
        "based-rabinowitz-window-2"])
def test_bad_example_arguments_exit_2(argv, message):
    code, out, err = run_cli("example", *argv)
    assert code == 2 and not out
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize("command", ["example", "derive", "transform"])
def test_an_unwritable_emit_path_exits_2(tmp_path, command):
    """`--emit` into a directory that does not exist is refused with one
    error line and exit 2, as an unreadable input is, not a traceback."""
    target = tmp_path / "missing" / "out.cofrob"
    argv = {"example": ("example", "--name", "sphere"),
            "derive": ("derive", "--from-pairing", emit_example(tmp_path, "sphere")),
            "transform": ("transform", "--op", "dual", emit_example(tmp_path, "sphere"))}
    code, out, err = run_cli(*argv[command], "--emit", str(target))
    assert code == 2 and not out
    assert err.startswith(f"error: cannot write {target}: ")
    assert not target.parent.exists()


def write(tmp_path, text, name="doc.cofrob"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("edit,lineno", [
    # 1/5 was parsed over Q, then the late field F5 divided by zero
    (lambda text: text.replace("field Q\n", "").replace("w -> 1 * R", "w -> 1/5 * R")
     + "field F5\n", 15),
    # the coefficients were parsed over Q and the structure built over F5
    (lambda text: text.replace("field Q\n", "field Q\nfield F5\n"), 2),
], ids=["trailing", "repeated"])
def test_late_or_repeated_field_exits_2_at_its_line(tmp_path, edit, lineno):
    text = edit(open(emit_example(tmp_path, "sphere", "--n", "2")).read())
    code, out, err = run_cli("check", "--suite", "biunital-cofrobenius", write(tmp_path, text))
    assert code == 2 and not out
    assert err == f"error: line {lineno}: field must precede every section and appear once\n"


@pytest.mark.parametrize("edit,message", [
    # the extra label was dropped, and biunital-cofrobenius passed
    (lambda text: text.replace("w -> 1 * w#w\n", "w -> 1 * w#w#1\n"),
     "line 11: target 'w#w#1' has arity 3; lambda gives 2"),
    # the row was truncated to 1,1 and added to it: mu(1, 1) = 2*1
    (lambda text: text.replace("map mu degree 0:\n", "map mu degree 0:\n1,1,1 -> 1 * 1\n"),
     "line 6: source '1,1,1' has arity 3; mu takes 2"),
    # refused when the map was built, without a line number
    (lambda text: text.replace("1,w -> 1 * w\n", "1 -> 1 * 1\n"),
     "line 7: source '1' has arity 1; mu takes 2"),
    (lambda text: text + "w,w -> 1 * R\n", "line 16: source 'w,w' has arity 2; eps takes 1"),
], ids=["lambda-target", "mu-source-long", "mu-source-short", "eps-source"])
def test_map_rows_of_the_wrong_arity_exit_2_at_their_line(tmp_path, edit, message):
    text = edit(open(emit_example(tmp_path, "sphere", "--n", "2")).read())
    code, out, err = run_cli("check", "--suite", "biunital-cofrobenius", write(tmp_path, text))
    assert code == 2 and not out
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("header,argv", [
    *[("map lambda", ("check", "--suite", suite))
      for suite in ("coproduct-laws", "biunital-cofrobenius", "biunital-infinitesimal",
                    "involutivity", "derived-identities", "poincare-duality", "cyclic")],
    *[("map lambda", ("transform", "--op", op)) for op in ("dual", "shift", "rescale")],
    ("map mu", ("check", "--suite", "product-laws")),
    ("map mu", ("transform", "--op", "dual")),
], ids=lambda value: value if isinstance(value, str) else value[-1])
def test_missing_mu_or_lambda_exits_2_naming_the_map(tmp_path, header, argv):
    text = drop_section(open(emit_example(tmp_path, "sphere", "--n", "2")).read(), header)
    code, out, err = run_cli(*argv, write(tmp_path, text))
    assert code == 2 and not out
    assert err == f"error: structure has no map {header.split()[1]}\n"


@pytest.mark.parametrize("derived", [False, True], ids=["given-cozipper", "derived-cozipper"])
@pytest.mark.parametrize("header", ["map closed.lambda", "map open.mu"])
def test_tqft_sector_without_mu_or_lambda_exits_2(tmp_path, header, derived):
    text = drop_section(open(emit_example(tmp_path, "submanifold", "--pair", "equator")).read(),
                        header)
    if derived:
        text = drop_section(text, "map cozipper")
    code, out, err = run_cli("check", "--suite", "tqft-full", write(tmp_path, text))
    assert code == 2 and not out
    sector, name = header.split()[1].split(".")
    assert err == f"error: {sector} has no map {name}\n"


@pytest.mark.parametrize("headers", [("map lambda",), ("map lambda", "eta", "map eps")],
                         ids=["no-lambda", "mu-only"])
def test_product_laws_read_no_lambda(tmp_path, headers):
    text = open(emit_example(tmp_path, "sphere", "--n", "2")).read()
    for header in headers:
        text = drop_section(text, header)
    code, out, err = run_cli("check", "--suite", "product-laws", write(tmp_path, text))
    assert code == 0, err
    assert out.strip().endswith("suite product-laws: PASS")


# ------------------------------------------------- line mutations of documents

@pytest.fixture(scope="module")
def mutation_documents(tmp_path_factory):
    """The rendered documents to mutate, and a directory for the mutants."""
    from cofrob import (docio, sphere_cohomology, manifold_from_cup, torus_cup_data,
                        rabinowitz_loop_sphere, equator_pair)
    documents = {
        "S2": docio.render(docio.from_bialgebra(sphere_cohomology(2))),
        "T2": docio.render(docio.from_bialgebra(manifold_from_cup(torus_cup_data()))),
        "rab3-3": docio.render(docio.from_bialgebra(rabinowitz_loop_sphere(3, 3))),
        "equator": docio.render(docio.from_tqft(equator_pair()))}
    return documents, tmp_path_factory.mktemp("mutants")


def mutate(text, kind, at):
    """`text` with one line dropped, duplicated or moved to the end, or
    with one whole section dropped; `at` picks the line or the section."""
    lines = text.splitlines(keepends=True)
    if kind == "drop-section":
        headers = [line for line in lines if line.rstrip().endswith(":")]
        return drop_section(text, headers[at % len(headers)].rstrip())
    i = at % len(lines)
    rest = lines[:i] + lines[i + 1:]
    return "".join({"drop": rest, "duplicate": lines[:i + 1] + lines[i:],
                    "move-to-end": rest + [lines[i]]}[kind])


SINGLE_COMMANDS = ([("check", "--suite", suite) for suite in DATA_SUITES]
                   + [("transform", "--op", op)
                      for op in ("dual", "shift", "transpose", "rescale")])


@settings(max_examples=200, deadline=None)
@given(name=st.sampled_from(["S2", "T2", "rab3-3", "equator"]),
       kind=st.sampled_from(["drop", "duplicate", "move-to-end", "drop-section"]),
       at=st.integers(0, 10 ** 4), pick=st.integers(0, 10 ** 4))
def test_no_line_mutation_gives_a_traceback(mutation_documents, name, kind, at, pick):
    """Whatever one line or one section of a document is dropped, doubled
    or moved, every command ends with exit code 0, 1 or 2."""
    documents, directory = mutation_documents
    commands = ([("check", "--suite", suite) for suite in TQFT_SUITES]
                if name == "equator" else SINGLE_COMMANDS)
    path = directory / "mutant.cofrob"
    path.write_text(mutate(documents[name], kind, at), encoding="utf-8")
    code, _, _ = run_cli(*commands[pick % len(commands)], str(path))
    assert code in (0, 1, 2)


@pytest.mark.parametrize("example,edit,suite", [
    # mu(1, w) became 2w, and product-laws failed with exit code 1
    (("sphere", "--n", "2"), lambda text: text.replace("1,w -> 1 * w\n",
                                                      "1,w -> 1 * w\n1,w -> 1 * w\n"),
     "product-laws"),
    # eta became 2 * 1
    (("sphere", "--n", "2"), lambda text: text.replace("eta:\n1 * 1\n", "eta:\n1 * 1\n1 * 1\n"),
     "product-laws"),
    # the last weight was kept, and the check passed with exit code 0
    (("rabinowitz-loop-sphere", "--n", "3", "--window", "6"),
     lambda text: text.replace("slack 3:\n", "slack 3:\nU^0 5\n"), "biunital-cofrobenius"),
], ids=["map-source", "eta", "window-label"])
def test_repeated_entries_exit_2_at_their_line(tmp_path, example, edit, suite):
    text = open(emit_example(tmp_path, *example)).read()
    edited = edit(text)
    assert edited != text
    code, out, err = run_cli("check", "--suite", suite, write(tmp_path, edited))
    assert code == 2 and not out
    assert err.startswith("error: line ") and "duplicate" in err


def test_a_large_prime_field_is_checked_and_a_too_large_one_exits_2(tmp_path):
    """Trial division kept `check` on F(10^20 + 39) running for over 10 s;
    a modulus past the primality test's range is refused at its line."""
    path = emit_example(tmp_path, "sphere", "--n", "2", "--field", "F100000000000000000039")
    text = open(path).read()
    assert text.startswith("field F100000000000000000039\n")
    code, out, _ = run_cli("check", "--suite", "product-laws", path)
    assert code == 0 and out.strip().endswith("suite product-laws: PASS")
    huge = text.replace("F100000000000000000039", "F618970019642690137449562111", 1)
    code, out, err = run_cli("check", "--suite", "product-laws", write(tmp_path, huge))
    assert code == 2 and not out
    assert err.startswith("error: line 1: 618970019642690137449562111 is too large")
