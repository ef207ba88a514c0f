"""Expected answers, written from the paper's statements, not from the program.

- A closed oriented manifold's cohomology is a biunital coFrobenius
  bialgebra over every field. Poincare duality, the derived identities,
  the cyclic symmetries and the biunital infinitesimal relations follow
  from that, so those suites pass.
- Dualize, shift, rescale and transpose preserve the biunital coFrobenius
  verdict. They also preserve involutivity, since they change mu lam only
  by a sign, a shift or a dual.
- Involutivity (mu lam = 0) holds exactly when the Euler characteristic
  is 0 in the field: mu lam(1) = chi(M) times the top class.
- In a submanifold pair the graded Cardy condition tracks the Euler
  classes. It fails for S^2 x {pt} in S^2 x S^2 and holds for the equator
  and the diagonal. Relations (1)-(5) hold for every pair.
- Every Rabinowitz loop model, and every loop TQFT built from them, passes
  its suite.
- The ordinary loop models violate the coFrobenius relation (c = 0 while
  lam != 0); their product and coproduct laws hold.

A relation that holds may read `window-inconclusive` on a window model,
because a window never claims what it cannot see. Everything else must
read exactly `pass` or `fail`.
"""

import hashlib

EULER = {"S1": 0, "S2": 2, "S3": 0, "S4": 2, "S5": 0, "S6": 2, "T2": 0, "S2xS2": 4}

LOOP_FAILURES = frozenset({"unital-cofrobenius-left", "unital-cofrobenius-right"})


def _characteristic(field):
    return 0 if field == "Q" else int(field[1:])


def _holds(family, field, suite, relation):
    """Whether the paper says `relation` of `suite` holds for the family."""
    kind, _, name = family.partition(":")
    if kind == "manifold":
        if suite == "involutivity":
            p = _characteristic(field)
            return EULER[name] == 0 if p == 0 else EULER[name] % p == 0
        return True
    if kind == "pair":
        return not (name == "factor" and relation == "rel6-cardy")
    if kind == "rabinowitz":
        return True
    if kind == "loop":
        return relation not in LOOP_FAILURES
    raise ValueError(f"no expected answers for family {family!r}")


def allowed_verdicts(job, relation, windowed):
    """The verdicts of `relation` that agree with the paper."""
    if _holds(job.family, job.field, job.suite, relation):
        return {"pass", "window-inconclusive"} if windowed else {"pass"}
    return {"fail"}


def digest(text):
    """The pinned fingerprint of a job's output."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def failure_reasons(job, out, pinned):
    """Why the job failed, or an empty list.

    `pinned` maps job keys to output digests; a key pinned to None failed
    when the digests were pinned, so it has no trusted output to compare.
    """
    if out.error is not None:
        return [f"raised {out.error}"]
    reasons = []
    if out.field != job.field:
        reasons.append(f"built over {out.field}, asked for {job.field}")
    if out.reports is not None:
        if not out.reports:
            reasons.append("the suite returned no relations")
        for rep in out.reports:
            if rep.verdict not in allowed_verdicts(job, rep.name, out.window is not None):
                reasons.append(f"{rep.name} reads {rep.verdict}")
    if job.key not in pinned:
        reasons.append("no pinned digest")
    elif pinned[job.key] is not None and pinned[job.key] != digest(out.output):
        reasons.append("output digest differs from the pinned one")
    return reasons
