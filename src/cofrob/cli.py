"""Command line driver.

Commands:

    cofrob check --suite <name> [--format json] <file>
    cofrob example --name <name> [--n N] [--window N] [--vector-field +|-]
                   [--pair equator|diagonal|factor] [--flavor ...] [--emit FILE]
    cofrob derive --from-pairing <file> [--emit FILE]
    cofrob transform --op dual|shift|transpose|rescale [--m M] [--l L] <file>
                     [--emit FILE]

`check` reads the file argument or stdin when the argument is `-`, so
`cofrob example --name sphere --n 3 | cofrob check --suite biunital-cofrobenius -`
works as a pipeline.  Exit codes: 0 all required relations pass
(window-inconclusive does not fail), 1 relation failure, 2 input error.
"""

import argparse
import sys

from .docio import parse, render, to_bialgebra, to_tqft, from_bialgebra, from_tqft, ParseError
from .fields import field_from_name
from .reports import render_text, render_json, suite_passes
from .suites import run_suite, SUITE_NAMES, TQFT_SUITES

EXAMPLE_NAMES = ("sphere", "torus", "s2xs2", "loop-sphere", "based-loop-sphere",
                 "rabinowitz-loop-sphere", "based-rabinowitz-loop-sphere",
                 "circle", "loop-tqft", "submanifold")


def _read_document(path):
    if path == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            raise ValueError(f"cannot read {path}: {exc}") from exc
    return parse(text)


def _emit(text, path):
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        try:
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            raise ValueError(f"cannot write {path}: {exc}") from exc


def cmd_check(args):
    doc = _read_document(args.file)
    suite = args.suite or doc.suite
    if suite is None:
        raise ValueError("no suite given (--suite) and none declared in the document")
    obj = to_tqft(doc) if suite in TQFT_SUITES else to_bialgebra(doc)
    reports = run_suite(suite, obj)
    if args.format == "json":
        print(render_json(suite, reports))
    else:
        print(render_text(suite, reports))
    return 0 if suite_passes(reports) else 1


def build_example(args):
    from . import models
    field = field_from_name(args.field)
    n = args.n
    loop_n = 3 if n is None else n
    window = args.window
    name = args.name
    if name == "sphere":
        return from_bialgebra(models.sphere_cohomology(2 if n is None else n, field=field))
    if name == "torus":
        cup = models.torus_cup_data()
        cup.field = field
        return from_bialgebra(models.manifold_from_cup(cup))
    if name == "s2xs2":
        cup = models.s2xs2_cup_data()
        cup.field = field
        return from_bialgebra(models.manifold_from_cup(cup))
    if name == "loop-sphere":
        return from_bialgebra(models.loop_sphere(loop_n, window, field=field))
    if name == "based-loop-sphere":
        return from_bialgebra(models.based_loop_sphere(loop_n, window, field=field))
    if name == "rabinowitz-loop-sphere":
        return from_bialgebra(models.rabinowitz_loop_sphere(loop_n, window, field=field))
    if name == "based-rabinowitz-loop-sphere":
        return from_bialgebra(models.based_rabinowitz_loop_sphere(loop_n, window, field=field))
    if name == "circle":
        return from_bialgebra(models.circle_models(window, which=args.vector_field,
                                                   flavor=args.flavor, field=field))
    if name == "loop-tqft":
        return from_tqft(models.loop_tqft_sphere(loop_n, window, field=field))
    if name == "submanifold":
        pair = {"equator": models.equator_pair, "diagonal": models.diagonal_pair,
                "factor": models.factor_pair}[args.pair]
        return from_tqft(pair())
    raise ValueError(f"unknown example {name!r}")


def cmd_example(args):
    doc = build_example(args)
    _emit(render(doc), args.emit)
    return 0


def cmd_derive(args):
    from .duality import complete_from_pairing
    doc = _read_document(args.from_pairing)
    data = to_bialgebra(doc)
    if data.eta is None or data.eps is None:
        raise ValueError("derive needs mu, eta, and eps in the input document")
    completed = complete_from_pairing(data.module, data.mu, data.eta, data.eps,
                                      window=data.window)
    _emit(render(from_bialgebra(completed)), args.emit)
    return 0


def cmd_transform(args):
    from . import duality
    doc = _read_document(args.file)
    data = to_bialgebra(doc)
    if args.op == "dual":
        out = duality.dualize(data)
    elif args.op == "shift":
        out = duality.shift_structure(data)
    elif args.op == "transpose":
        out = duality.transpose_structure(data)
    elif args.op == "rescale":
        out = duality.rescale_signs(data, args.m, args.l)
    else:
        raise ValueError(f"unknown transform {args.op!r}")
    _emit(render(from_bialgebra(out)), args.emit)
    return 0


def make_parser():
    parser = argparse.ArgumentParser(
        prog="cofrob",
        description="Exact verification of graded bialgebra structures and "
                    "2D open-closed TQFTs.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="run a named axiom suite on a structure file")
    p.add_argument("--suite", choices=SUITE_NAMES)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("file", help="structure file, or - for stdin")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("example", help="emit a built-in example as a structure file")
    p.add_argument("--name", required=True, choices=EXAMPLE_NAMES)
    p.add_argument("--n", type=int, default=None, help="sphere dimension")
    p.add_argument("--window", type=int, default=6, help="window bound for loop models")
    p.add_argument("--vector-field", choices=("+", "-"), default="+")
    p.add_argument("--pair", choices=("equator", "diagonal", "factor"),
                   default="equator", help="submanifold pair")
    p.add_argument("--flavor",
                   choices=("rabinowitz", "loop", "based-rabinowitz", "based-loop"),
                   default="rabinowitz", help="circle model family member")
    p.add_argument("--field", default="Q", help="coefficient field: Q or F<p>")
    p.add_argument("--emit", default=None, help="output file (default: stdout)")
    p.set_defaults(func=cmd_example)

    p = sub.add_parser("derive", help="complete (mu, eta, eps) to a biunital "
                                      "coFrobenius structure from its pairing")
    p.add_argument("--from-pairing", required=True, dest="from_pairing",
                   help="structure file with mu, eta, eps")
    p.add_argument("--emit", default=None)
    p.set_defaults(func=cmd_derive)

    p = sub.add_parser("transform", help="apply a structure transform and emit the result")
    p.add_argument("--op", required=True, choices=("dual", "shift", "transpose", "rescale"))
    p.add_argument("--m", type=int, default=0, help="product sign exponent for rescale")
    p.add_argument("--l", type=int, default=0, help="coproduct sign exponent for rescale")
    p.add_argument("--emit", default=None)
    p.add_argument("file", help="structure file, or - for stdin")
    p.set_defaults(func=cmd_transform)
    return parser


def main(argv=None):
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
