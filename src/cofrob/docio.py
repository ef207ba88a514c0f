"""Line-oriented structure-description files.

Grammar (one statement per line; `#` starts a comment only at line start):

    field Q | F<p>                    optional; once, before every section
    suite <name>                      optional default check suite
    module:                           single-structure documents
    module closed: / module open:     TQFT pair documents
    <label> <degree>                  inside a module section
    window [closed|open] bound <N> slack <s>:
    <label> <exponent-weight>         inside a window section
    map <name> degree <d>:            named map section
    <src>[,<src>] -> <coeff> * <dst>[#<dst>] [ + <term> ...]
    eta [closed|open]:
    <coeff> * <label> [ + <term> ...]

Map names are mu, lambda, eps for single documents; closed.mu, open.lambda,
..., zipper, cozipper for pairs.  Counit entries target the literal `R`;
every other source and target has as many labels as the map's arity.
Coefficients are integers or fractions a/b.  A repeated section (module,
window, map or eta) and a repeated basis label, map source, row target,
window label or eta term are refused at their line.
parse(render(doc)) == doc.

`parse` takes time linear in the document: repeats are found in a dict or
set per section or row, and a rendered Laurent model document with twice
the rows parses in about twice the time.
"""

from dataclasses import dataclass, field as dc_field

from .core import GradedModule, TensorSpace, Element, GradedMap, scalar_space
from .fields import QQ, field_from_name
from .structures import BialgebraData
from .windows import WindowSpec

SINGLE_MAPS = ("mu", "lambda", "eps")
PAIR_MAPS = ("closed.mu", "closed.lambda", "closed.eps",
             "open.mu", "open.lambda", "open.eps", "zipper", "cozipper")
ARITIES = {"mu": (2, 1), "lambda": (1, 2), "eps": (1, 0), "zipper": (1, 1), "cozipper": (1, 1)}


class ParseError(ValueError):
    def __init__(self, message, line):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass
class StructureDocument:
    field: object = QQ
    suite: str | None = None
    modules: dict = dc_field(default_factory=dict)   # name -> tuple of (label, degree)
    windows: dict = dc_field(default_factory=dict)   # name -> (bound, slack, weights)
    maps: dict = dc_field(default_factory=dict)      # name -> (degree, rows)
    etas: dict = dc_field(default_factory=dict)      # name -> tuple of (coeff, label)

    @property
    def is_pair(self):
        return "closed" in self.modules

    def __eq__(self, other):
        return (isinstance(other, StructureDocument)
                and self.field == other.field and self.suite == other.suite
                and self.modules == other.modules and self.windows == other.windows
                and self.maps == other.maps and self.etas == other.etas)


def _coefficient(token, fieldobj):
    """`fieldobj.parse(token)`; over Q a plain ASCII integer, with an
    optional leading '-', is read with `int`, which gives the same value
    without building a Fraction."""
    digits = token[1:] if token[:1] == "-" else token
    if fieldobj is QQ and digits.isascii() and digits.isdigit():
        try:
            return int(token)
        except ValueError:      # past int's digit limit: parse names the token
            pass
    return fieldobj.parse(token)


def _parse_terms(text, fieldobj, lineno):
    """The terms of one line, each (coefficient, target tuple)."""
    terms = []
    seen = set()
    for chunk in text.split(" + "):
        chunk = chunk.strip()
        if not chunk:
            raise ParseError("empty term", lineno)
        if "*" not in chunk:
            raise ParseError(f"term {chunk!r} needs the form coeff * target", lineno)
        coeff_text, _, dst_text = chunk.partition("*")
        try:
            coeff = _coefficient(coeff_text.strip(), fieldobj)
        except ValueError as exc:
            raise ParseError(str(exc), lineno) from exc
        dst_text = dst_text.strip()
        if dst_text == "R":
            dst = ()
        else:
            dst = tuple(p.strip() for p in dst_text.split("#"))
            if any(not p for p in dst):
                raise ParseError(f"malformed target {dst_text!r}", lineno)
        if dst in seen:
            raise ParseError(f"duplicate term for {dst_text!r}", lineno)
        seen.add(dst)
        terms.append((coeff, dst))
    return tuple(terms)


def _parse_row(line, rows, fieldobj, lineno):
    """One `<src> -> <terms>` line of a map section into `rows` (source ->
    (terms, line number))."""
    src_text, _, terms_text = line.partition("->")
    src = tuple(p.strip() for p in src_text.strip().split(","))
    if any(not p for p in src):
        raise ParseError("malformed source tuple", lineno)
    if src in rows:
        raise ParseError(f"duplicate source {','.join(src)!r}", lineno)
    rows[src] = (_parse_terms(terms_text.strip(), fieldobj, lineno), lineno)


def parse(text):
    """The document in `text`, or ParseError naming the first bad line.

    One pass reads the lines; each repeated map source, row target, basis
    label, window label or eta term is found in a dict or set of its
    section or row, so the pass is linear in the document.  A line inside
    a map section that holds `->` and is no header is read as a row
    directly.  A second pass checks names, labels, arities and degrees
    against the declared modules."""
    doc = StructureDocument()
    section = None          # ("module", name) | ("window", name) | ("map", name) | ("eta", name)
    rows = None             # the open map section's rows, source -> (terms, line number)
    raw_maps = {}
    raw_etas = {}
    raw_windows = {}
    field_open = True       # until the first section or field statement
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if raw.startswith("#"):
            continue
        line = raw.strip()
        if not line:
            continue
        if (rows is not None and "->" in line and not line.endswith(":")
                and not line.startswith(("field", "suite"))):
            _parse_row(line, rows, doc.field, lineno)
            continue
        tokens = line.split()
        head = tokens[0]
        is_header = line.endswith(":")
        base = head[:-1] if head.endswith(":") else head
        rows = None
        if head == "field":
            if len(tokens) != 2:
                raise ParseError("expected: field Q | F<p>", lineno)
            if not field_open:
                raise ParseError("field must precede every section and appear once", lineno)
            try:
                doc.field = field_from_name(tokens[1])
            except ValueError as exc:
                raise ParseError(str(exc), lineno) from exc
        elif head == "suite":
            if len(tokens) != 2:
                raise ParseError("expected: suite <name>", lineno)
            doc.suite = tokens[1]
            section = None
        elif is_header and base == "module":
            rest = line[len("module"):].strip()
            if not rest.endswith(":"):
                raise ParseError("module section must end with ':'", lineno)
            name = rest[:-1].strip()
            if name not in ("", "closed", "open"):
                raise ParseError(f"unknown module name {name!r}", lineno)
            if name in doc.modules:
                raise ParseError(f"duplicate module section {name!r}", lineno)
            doc.modules[name] = {}
            section = ("module", name)
        elif is_header and base == "window":
            rest = line[len("window"):].strip()
            if not rest.endswith(":"):
                raise ParseError("window section must end with ':'", lineno)
            parts = rest[:-1].split()
            name = ""
            if parts and parts[0] in ("closed", "open"):
                name = parts[0]
                parts = parts[1:]
            if len(parts) != 4 or parts[0] != "bound" or parts[2] != "slack":
                raise ParseError("expected: window [closed|open] bound <N> slack <s>:", lineno)
            try:
                bound, slack = int(parts[1]), int(parts[3])
            except ValueError as exc:
                raise ParseError("bound and slack must be integers", lineno) from exc
            if bound < 0 or slack < 0:
                raise ParseError("bound and slack must be non-negative", lineno)
            if name not in doc.modules:
                raise ParseError(f"window for undeclared module {name!r}", lineno)
            if name in raw_windows:
                raise ParseError(f"duplicate window section {name!r}", lineno)
            raw_windows[name] = (bound, slack, {}, lineno)
            section = ("window", name)
        elif is_header and base == "map":
            rest = line[len("map"):].strip()
            if not rest.endswith(":"):
                raise ParseError("map section must end with ':'", lineno)
            parts = rest[:-1].split()
            if len(parts) != 3 or parts[1] != "degree":
                raise ParseError("expected: map <name> degree <d>:", lineno)
            name = parts[0]
            try:
                degree = int(parts[2])
            except ValueError as exc:
                raise ParseError("map degree must be an integer", lineno) from exc
            if name in raw_maps:
                raise ParseError(f"duplicate map section {name!r}", lineno)
            rows = {}
            raw_maps[name] = (degree, rows, lineno)
            section = ("map", name)
        elif is_header and base == "eta":
            rest = line[len("eta"):].strip()
            if not rest.endswith(":"):
                raise ParseError("eta section must end with ':'", lineno)
            name = rest[:-1].strip()
            if name not in ("", "closed", "open"):
                raise ParseError(f"unknown eta qualifier {name!r}", lineno)
            if name in raw_etas:
                raise ParseError(f"duplicate eta section {name!r}", lineno)
            raw_etas[name] = ({}, lineno)
            section = ("eta", name)
        elif section is not None and section[0] == "module":
            if len(tokens) != 2:
                raise ParseError("expected: <label> <degree>", lineno)
            label, deg_text = tokens
            try:
                degree = int(deg_text)
            except ValueError as exc:
                raise ParseError(f"malformed degree {deg_text!r}", lineno) from exc
            mod = doc.modules[section[1]]
            if label in mod:
                raise ParseError(f"duplicate basis label {label!r}", lineno)
            mod[label] = degree
        elif section is not None and section[0] == "window":
            if len(tokens) != 2:
                raise ParseError("expected: <label> <weight>", lineno)
            label, w_text = tokens
            try:
                weight = int(w_text)
            except ValueError as exc:
                raise ParseError(f"malformed weight {w_text!r}", lineno) from exc
            if label in raw_windows[section[1]][2]:
                raise ParseError(f"duplicate window label {label!r}", lineno)
            raw_windows[section[1]][2][label] = weight
        elif section is not None and section[0] == "map":
            if "->" not in line:
                raise ParseError("expected: <src> -> <terms>", lineno)
            rows = raw_maps[section[1]][1]
            _parse_row(line, rows, doc.field, lineno)
        elif section is not None and section[0] == "eta":
            terms = _parse_terms(line, doc.field, lineno)
            eta = raw_etas[section[1]][0]
            for coeff, dst in terms:
                if len(dst) != 1:
                    raise ParseError("eta terms must be single generators", lineno)
                if dst[0] in eta:
                    raise ParseError(f"duplicate term for {dst[0]!r}", lineno)
                eta[dst[0]] = coeff
        else:
            raise ParseError(f"unrecognized statement {line!r}", lineno)
        field_open = field_open and head == "suite"

    if not doc.modules:
        raise ParseError("no module section", 1)
    if set(doc.modules) not in ({""}, {"closed", "open"}):
        raise ParseError("declare either one unnamed module or closed and open", 1)
    degrees = doc.modules
    doc.modules = {k: tuple(v.items()) for k, v in degrees.items()}

    def module_of(map_name, side):
        if map_name in ("mu", "lambda", "eps"):
            return ""
        if map_name == "zipper":
            return "closed" if side == "src" else "open"
        if map_name == "cozipper":
            return "open" if side == "src" else "closed"
        if "." in map_name:
            return map_name.split(".", 1)[0]
        return ""

    for name, (bound, slack, weights, lineno) in raw_windows.items():
        for lbl in weights:
            if lbl not in degrees[name]:
                raise ParseError(f"window weight for undeclared label {lbl!r}", lineno)
        doc.windows[name] = (bound, slack, dict(sorted(weights.items())))

    allowed = SINGLE_MAPS if not doc.is_pair else PAIR_MAPS
    for name, (degree, rows, header_line) in raw_maps.items():
        if name not in allowed:
            raise ParseError(f"unknown map name {name!r} (allowed: {', '.join(allowed)})",
                             header_line)
        src_degs = degrees[module_of(name, "src")]
        dst_degs = degrees[module_of(name, "dst")]
        is_counit = name.endswith("eps")
        src_arity, dst_arity = ARITIES[name.rpartition(".")[2]]
        for src, (terms, lineno) in rows.items():
            if len(src) != src_arity:
                raise ParseError(f"source {','.join(src)!r} has arity {len(src)}; "
                                 f"{name} takes {src_arity}", lineno)
            src_deg = 0
            for lbl in src:
                if lbl not in src_degs:
                    raise ParseError(f"undeclared label {lbl!r}", lineno)
                src_deg += src_degs[lbl]
            for coeff, dst in terms:
                if is_counit:
                    if dst != ():
                        raise ParseError("counit entries must target R", lineno)
                    dst_deg = 0
                else:
                    if dst == ():
                        raise ParseError("only counit entries may target R", lineno)
                    if len(dst) != dst_arity:
                        raise ParseError(f"target {'#'.join(dst)!r} has arity {len(dst)}; "
                                         f"{name} gives {dst_arity}", lineno)
                    dst_deg = 0
                    for lbl in dst:
                        if lbl not in dst_degs:
                            raise ParseError(f"undeclared label {lbl!r}", lineno)
                        dst_deg += dst_degs[lbl]
                if dst_deg != src_deg + degree:
                    entry = f"{','.join(src)} -> {'#'.join(dst) or 'R'}"
                    raise ParseError(
                        f"degree error in entry {entry!r}: image degree {dst_deg} != "
                        f"source degree {src_deg} + map degree {degree}", lineno)
        doc.maps[name] = (degree, tuple((src, terms) for src, (terms, _) in rows.items()))

    for name, (terms, lineno) in raw_etas.items():
        if (name == "") != (not doc.is_pair):
            raise ParseError("eta qualifier must match the module layout", lineno)
        for lbl in terms:
            if lbl not in degrees[name]:
                raise ParseError(f"undeclared label {lbl!r} in eta", lineno)
        doc.etas[name] = tuple((coeff, lbl) for lbl, coeff in terms.items())
    return doc


def _format_terms(terms, fieldobj):
    parts = []
    for coeff, dst in terms:
        name = "#".join(dst) if dst else "R"
        parts.append(f"{fieldobj.format(coeff)} * {name}")
    return " + ".join(parts)


def render(doc):
    out = [f"field {doc.field.name}"]
    if doc.suite:
        out.append(f"suite {doc.suite}")
    names = [""] if not doc.is_pair else ["closed", "open"]
    for name in names:
        out.append(f"module{' ' + name if name else ''}:")
        for lbl, deg in doc.modules[name]:
            out.append(f"{lbl} {deg}")
        if name in doc.windows:
            bound, slack, weights = doc.windows[name]
            out.append(f"window{' ' + name if name else ''} bound {bound} slack {slack}:")
            for lbl, w in weights.items():
                out.append(f"{lbl} {w}")
    map_order = SINGLE_MAPS if not doc.is_pair else PAIR_MAPS
    for map_name in map_order:
        if map_name in ("eps", "closed.eps", "open.eps"):
            eta_name = {"eps": "", "closed.eps": "closed", "open.eps": "open"}[map_name]
            if eta_name in doc.etas:
                out.append(f"eta{' ' + eta_name if eta_name else ''}:")
                out.append(_format_terms([(c, (lbl,)) for c, lbl in doc.etas[eta_name]],
                                         doc.field))
        if map_name not in doc.maps:
            continue
        degree, rows = doc.maps[map_name]
        out.append(f"map {map_name} degree {degree}:")
        for src, terms in rows:
            out.append(f"{','.join(src)} -> {_format_terms(terms, doc.field)}")
    return "\n".join(out) + "\n"


def _window_spec(doc, name):
    if name not in doc.windows:
        return None
    bound, slack, weights = doc.windows[name]
    return WindowSpec(bound, slack, weights)


def _build_module(doc, name):
    return GradedModule(doc.modules[name], field=doc.field,
                        name=name or "structure")


def _build_map(doc, name, source, target):
    if name not in doc.maps:
        return None
    degree, rows = doc.maps[name]
    return GradedMap.from_labels(source, target, degree,
                                 [(src, [(c, d) for c, d in terms])
                                  for src, terms in rows])


def _build_data(doc, name=""):
    module = _build_module(doc, name)
    sp = TensorSpace((module,))
    sp2 = TensorSpace((module, module))
    prefix = f"{name}." if name else ""
    mu = _build_map(doc, prefix + "mu", sp2, sp)
    lam = _build_map(doc, prefix + "lambda", sp, sp2)
    eps = _build_map(doc, prefix + "eps", sp, scalar_space(doc.field))
    eta = None
    if name in doc.etas:
        eta = Element.from_labels(sp, [(c, (lbl,)) for c, lbl in doc.etas[name]])
    return BialgebraData(module, mu, lam, eta, eps, _window_spec(doc, name))


def to_bialgebra(doc):
    if doc.is_pair:
        raise ValueError("document describes a TQFT pair; expected a single structure")
    return _build_data(doc, "")


def to_tqft(doc):
    """Build the open-closed TQFT; a missing cozipper is derived from the
    pairing relation."""
    from .tqft import OpenClosedTQFT, derive_cozipper
    if not doc.is_pair:
        raise ValueError("document describes a single structure; expected a TQFT pair")
    closed = _build_data(doc, "closed")
    open_ = _build_data(doc, "open")
    zipper = _build_map(doc, "zipper", closed.space, open_.space)
    if zipper is None:
        raise ValueError("TQFT document needs a zipper map")
    cozipper = _build_map(doc, "cozipper", open_.space, closed.space)
    if cozipper is None:
        cozipper = derive_cozipper(closed, open_, zipper)
    return OpenClosedTQFT(closed, open_, zipper, cozipper)


def _map_rows(gmap, src_mod, dst_mods):
    rows = []
    for src in sorted(gmap.entries):
        labels = tuple(src_mod.labels[i] for i in src)
        terms = []
        for dst in sorted(gmap.entries[src]):
            dst_labels = tuple(m.labels[i] for m, i in zip(dst_mods, dst))
            terms.append((gmap.entries[src][dst], dst_labels))
        rows.append((labels, tuple(terms)))
    return tuple(rows)


def _emit_data(doc, data, name=""):
    module = data.module
    doc.modules[name] = tuple(zip(module.labels, module.degrees))
    if data.window is not None:
        weights = {lbl: data.window.weight(lbl) for lbl in module.labels
                   if lbl in data.window.weights}
        doc.windows[name] = (data.window.bound, data.window.slack,
                             dict(sorted(weights.items())))
    prefix = f"{name}." if name else ""
    if data._mu is not None:
        doc.maps[prefix + "mu"] = (data.mu.degree,
                                   _map_rows(data.mu, module, (module,)))
    if data._lam is not None:
        doc.maps[prefix + "lambda"] = (data.lam.degree,
                                       _map_rows(data.lam, module, (module, module)))
    if data.eps is not None:
        doc.maps[prefix + "eps"] = (data.eps.degree,
                                    _map_rows(data.eps, module, ()))
    if data.eta is not None:
        doc.etas[name] = tuple((v, module.labels[idx[0]])
                               for idx, v in sorted(data.eta.coeffs.items()))


def from_bialgebra(data, suite=None):
    doc = StructureDocument(field=data.field, suite=suite)
    _emit_data(doc, data, "")
    return doc


def from_tqft(t, suite=None):
    doc = StructureDocument(field=t.closed.field, suite=suite)
    _emit_data(doc, t.closed, "closed")
    _emit_data(doc, t.open, "open")
    doc.maps["zipper"] = (t.zipper.degree,
                          _map_rows(t.zipper, t.closed.module, (t.open.module,)))
    doc.maps["cozipper"] = (t.cozipper.degree,
                            _map_rows(t.cozipper, t.open.module, (t.closed.module,)))
    return doc
