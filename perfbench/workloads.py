"""Workload generation and job execution for the cofrob benchmark.

A job mirrors one `cofrob` command and calls the same public functions
that `cofrob.cli` calls:

- check:     build or parse -> to_bialgebra / to_tqft -> run_suite -> render_json
- derive:    parse -> complete_from_pairing -> render(from_bialgebra(...))
- transform: parse -> dualize / shift_structure / rescale_signs /
             transpose_structure -> render(from_bialgebra(...))

Every call into the library goes through a module attribute
(`models.circle_models`, `docio.parse`, ...), so the traced run can wrap a
function by rebinding it where its callers look it up.

A job key names the job's content and never the seed, so the expected
answers and pinned digests apply to every seed.
"""

import random
from dataclasses import dataclass

from cofrob import docio, duality, models, reports, suites
from cofrob.fields import field_from_name

WORKLOADS = ("rab-infinitesimal", "window-suites", "manifold-docs")
SIZES = ("full", "smoke")

MANIFOLDS = ("S1", "S2", "S3", "S4", "S5", "S6", "T2", "S2xS2")
FIELDS = ("Q", "F2", "F3", "F5", "F7")
RESCALES = ((0, 1), (1, 0), (1, 1))
BASE_SUITES = ("biunital-cofrobenius", "poincare-duality", "derived-identities",
               "cyclic", "biunital-infinitesimal", "involutivity")
# The paper's transforms preserve the biunital coFrobenius verdict, and the
# other suites below follow from it; it gives no answer for the
# infinitesimal relations on a transformed structure, so that suite runs
# on untransformed documents only.
TRANSFORMED_SUITES = BASE_SUITES[:4] + ("involutivity",)
PAIRS = ("equator", "diagonal", "factor")
SMOKE_BASES = 10


@dataclass
class Job:
    key: str                 # names the content; indexes answers and digests
    kind: str                # "check", "derive" or "transform"
    family: str              # expected-answer family, see expected.py
    field: str               # the field the job asks for
    suite: str | None = None
    build: object = None     # zero-argument builder of a built-in model
    text: str | None = None  # input document
    op: tuple = ()           # transform name and its extra arguments


@dataclass
class Outcome:
    output: str | None = None
    reports: list | None = None
    field: str | None = None
    window: int | None = None   # window bound of a window model
    dims: tuple = ()
    error: str | None = None


def _structure_info(obj):
    """(field name, window bound or None, module dimensions) of a structure or pair."""
    parts = (obj.closed, obj.open) if hasattr(obj, "closed") else (obj,)
    fields = {p.field.name for p in parts}
    field = fields.pop() if len(fields) == 1 else "mixed"
    bounds = [p.window.bound for p in parts if p.window is not None]
    return field, max(bounds, default=None), tuple(p.module.dim for p in parts)


def run_job(job):
    """Run one job; an exception becomes the outcome's error."""
    out = Outcome()
    try:
        if job.kind == "check":
            if job.build is not None:
                obj = job.build()
            else:
                doc = docio.parse(job.text)
                obj = (docio.to_tqft(doc) if job.suite in suites.TQFT_SUITES
                       else docio.to_bialgebra(doc))
            out.field, out.window, out.dims = _structure_info(obj)
            out.reports = suites.run_suite(job.suite, obj)
            out.output = reports.render_json(job.suite, out.reports)
        else:
            data = docio.to_bialgebra(docio.parse(job.text))
            if job.kind == "derive":
                result = duality.complete_from_pairing(data.module, data.mu, data.eta,
                                                       data.eps, window=data.window)
            else:
                name, *extra = job.op
                result = getattr(duality, name)(data, *extra)
            out.field, out.window, out.dims = _structure_info(result)
            out.output = docio.render(docio.from_bialgebra(result))
    except Exception as exc:  # a failed job is counted, not fatal
        out.error = f"{type(exc).__name__}: {exc}"
    return out


# ------------------------------------------------------------ window models

def _window_check(call, family, field, suite, builder):
    return Job(f"check {call} {suite}", "check", family, field, suite=suite, build=builder)


def _rab_infinitesimal_jobs(size):
    # N = 5 keeps the job near 1 s, so a run times it many times and its
    # fastest time is steady on a machine whose speed changes every few seconds
    n = 5 if size == "full" else 4
    return [_window_check(f"rabinowitz_loop_sphere(3,{n},Q)", "rabinowitz", "Q",
                          "biunital-infinitesimal",
                          lambda: models.rabinowitz_loop_sphere(3, n))]


def _window_suite_jobs(size):
    # Windows small enough that no job takes much over 0.6 s, as for
    # rab-infinitesimal. The ordinary loop models exit at their first
    # witness, so they keep a window large enough to show it (N >= 5).
    small = size == "smoke"
    c = 4                     # circle and loop TQFT of S^1
    s = 4 if small else 5     # models of S^3
    cl, sl = (4, 4) if small else (6, 8)   # the ordinary loop models
    f5 = field_from_name("F5")
    return [
        _window_check(f"circle_models({c},rabinowitz,Q)", "rabinowitz", "Q",
                      "biunital-cofrobenius", lambda: models.circle_models(c)),
        _window_check(f"circle_models({c},based-rabinowitz,Q)", "rabinowitz", "Q",
                      "biunital-cofrobenius",
                      lambda: models.circle_models(c, flavor="based-rabinowitz")),
        _window_check(f"loop_tqft_sphere(1,{c},Q)", "rabinowitz", "Q", "tqft-full",
                      lambda: models.loop_tqft_sphere(1, c)),
        _window_check(f"loop_tqft_sphere(3,{s},Q)", "rabinowitz", "Q", "tqft-full",
                      lambda: models.loop_tqft_sphere(3, s)),
        _window_check(f"rabinowitz_loop_sphere(3,{s},Q)", "rabinowitz", "Q",
                      "poincare-duality", lambda: models.rabinowitz_loop_sphere(3, s)),
        _window_check(f"based_rabinowitz_loop_sphere(3,{s},Q)", "rabinowitz", "Q",
                      "poincare-duality",
                      lambda: models.based_rabinowitz_loop_sphere(3, s)),
        _window_check(f"circle_models({cl},loop,Q)", "loop", "Q", "unital-cofrobenius",
                      lambda: models.circle_models(cl, flavor="loop")),
        _window_check(f"loop_sphere(3,{sl},Q)", "loop", "Q", "unital-cofrobenius",
                      lambda: models.loop_sphere(3, sl)),
        _window_check("rabinowitz_loop_sphere(3,4,F5)", "rabinowitz", "F5",
                      "biunital-cofrobenius",
                      lambda: models.rabinowitz_loop_sphere(3, 4, field=f5)),
        _window_check("loop_sphere(3,4,F5)", "loop", "F5", "unital-cofrobenius",
                      lambda: models.loop_sphere(3, 4, field=f5)),
    ]


# ------------------------------------------------------------ documents

def _manifold(name, field):
    if name.startswith("S") and name[1:].isdigit():
        return models.sphere_cohomology(int(name[1:]), field=field)
    cup = models.torus_cup_data() if name == "T2" else models.s2xs2_cup_data()
    cup.field = field
    return models.manifold_from_cup(cup)


def _text(data):
    return docio.render(docio.from_bialgebra(data))


def _without(doc, map_name):
    del doc.maps[map_name]
    return docio.render(doc)


def _manifold_doc_jobs(bases, rng=None):
    """Documents and jobs for each (manifold, field) base. With `rng`, each
    base draws one rescale and the one transformed document that the
    suites check; without it, every rescale and transformed document is
    checked. The transforms keep the module, so the draw barely changes
    how much work a base takes."""
    jobs = []
    for name, fname in bases:
        mls = RESCALES if rng is None else [rng.choice(RESCALES)]
        field = field_from_name(fname)
        data = _manifold(name, field)
        base = f"{name}/{fname}"
        family = f"manifold:{name}"
        text = _text(data)
        variants = [("base", text), ("dual", _text(duality.dualize(data))),
                    ("shift", _text(duality.shift_structure(data))),
                    ("transpose", _text(duality.transpose_structure(data)))]
        variants += [(f"rescale({m},{l})", _text(duality.rescale_signs(data, m, l)))
                     for m, l in mls]
        checked = variants[1:] if rng is None else [rng.choice(variants[1:])]
        for variant, vtext in variants[:1] + checked:
            for suite in BASE_SUITES if variant == "base" else TRANSFORMED_SUITES:
                jobs.append(Job(f"check {base}/{variant} {suite}", "check", family,
                                fname, suite=suite, text=vtext))
        jobs.append(Job(f"derive {base}", "derive", family, fname,
                        text=_without(docio.from_bialgebra(data), "lambda")))
        ops = [("dualize",), ("shift_structure",), ("transpose_structure",)]
        ops += [("rescale_signs", m, l) for m, l in mls]
        for op in ops:
            jobs.append(Job(f"transform {base} {'/'.join(map(str, op))}", "transform",
                            family, fname, text=text, op=op))
    for pair in PAIRS:
        text = _without(docio.from_tqft(getattr(models, f"{pair}_pair")()), "cozipper")
        for suite in ("tqft-full", "cardy"):
            jobs.append(Job(f"check pair:{pair} {suite}", "check", f"pair:{pair}", "Q",
                            suite=suite, text=text))
    return jobs


def _all_bases():
    return [(name, f) for name in MANIFOLDS for f in FIELDS]


def _manifold_docs_jobs(size, rng):
    bases = _all_bases()
    if size == "smoke":
        bases = rng.sample(bases, SMOKE_BASES)
    return _manifold_doc_jobs(bases, rng)


# ------------------------------------------------------------ entry points

def generate(workload, seed, size="full"):
    """The workload's jobs in the seeded order: the seed draws the
    rescales and checked transforms of manifold-docs (and its documents at
    smoke size) and the job order of every workload."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r} (known: {', '.join(WORKLOADS)})")
    if size not in SIZES:
        raise ValueError(f"unknown size {size!r}")
    rng = random.Random(seed)
    if workload == "rab-infinitesimal":
        jobs = _rab_infinitesimal_jobs(size)
    elif workload == "window-suites":
        jobs = _window_suite_jobs(size)
    else:
        jobs = _manifold_docs_jobs(size, rng)
    rng.shuffle(jobs)
    return jobs


def every_job():
    """Every job any seed can draw, at both sizes, without duplicates."""
    jobs = {}
    for size in SIZES:
        for job in _rab_infinitesimal_jobs(size) + _window_suite_jobs(size):
            jobs.setdefault(job.key, job)
    for job in _manifold_doc_jobs(_all_bases()):
        jobs.setdefault(job.key, job)
    return list(jobs.values())
