"""Truncation windows standing in for completed tensor products.

An infinite model (Laurent-type basis U^k) is represented on the finite
window |k| <= bound.  A relation check on a basis input is *window-valid*
when no exponent reachable from it within `slack` structure-map
applications can leave the window; checks on window models aggregate only
window-valid inputs and flag the rest inconclusive.

Reachable exponents of the shipped relations are of the form
+-(subset sum of input exponents) +- (subset sum of the inspected output
coordinate's exponents) + drift with |drift| <= slack, so:

- an input x is valid iff  max|subset sum of x| + slack <= bound - 1;
- a coordinate y of the comparison is reliable for x iff
  max|subset sum of x| + max|subset sum of y| + slack <= bound.

Coordinates that are not reliable are masked from the comparison (counted,
never silently passed).  Basis labels without a recorded weight have
weight 0 and are always safe.

Both tests are decided on basis indices, never on labels; the per-label
forms of the two rules above are kept in `tests/window_reference.py` as
the reference these are checked against.

`valid_inputs` enumerates the valid basis tuples of a tensor space
directly, factor by factor, instead of testing every tuple.  A prefix is
kept only while its sum of positive weights and its sum of negative
weights (in absolute value) both stay within bound - 1 - slack.  Those two
sums are the largest subset sums of each sign, and neither can shrink as
factors are appended, so a prefix that exceeds the limit has no valid
extension and the pruning drops exactly the invalid tuples.

The coordinate test is made on indices the same way.  M(x), the largest
|subset sum| of x, is the larger of x's two signed weight sums, and a
coordinate y is reliable for x iff its own two sums are both at most
bound - slack - M(x).  `factor_weights(space)` gives those weights per
factor of a space, so neither the labels of an input nor those of a
coordinate are looked up.  Its `known` dict, kept by the caller for one
call, builds each module's weights once however many spaces name it.

The two sides of that test are generated code.  `input_limit(space)`
returns limit(idx), bound - slack - M(idx) for an input of `space`, and
`gate(space)` returns gate(coeffs, limit), the coordinates of `coeffs`
whose two sums are both at most `limit`.  Each sum is unrolled, one term
per factor: for arity 2 the gate keeps k when
p0[k[0]] + p1[k[1]] <= limit and n0[k[0]] + n1[k[1]] <= limit.  The
source depends on the arity alone and is compiled once per (role,
arity) into a factory kept in `_GATES`, which binds a space's weight
tuples and bound - slack; no label, module or weight reaches the source
or the cache, and the window itself keeps nothing.
"""

from .tensor import DUAL_SUFFIX, SHIFT_PREFIX, _compiled

_GATES = {}     # (role, arity), of ints and kind tags -> the factory of `gate` or `input_limit`


def _factory(role, arity):
    """The factory of the gate (role "gate") or input limit (role "limit")
    of a space of arity `arity`, compiled on first use into `_GATES`.  Its
    source names factor j's positive and negative weights p<j> and n<j>
    and sums them unrolled, one term per factor; the factory binds the
    weight tuples and, for a limit, bound - slack (`top`)."""
    factory = _GATES.get((role, arity))
    if factory is None:
        weights = [f"{sign}{j}" for sign in "pn" for j in range(arity)]

        def total(sign, idx):
            return " + ".join(f"{sign}{j}[{idx}[{j}]]" for j in range(arity)) or "0"

        if role == "gate":
            lines = [f"def factory({', '.join(weights)}):",
                     "    def gate(coeffs, limit):",
                     "        return {k: v for k, v in coeffs.items()",
                     f"                if {total('p', 'k')} <= limit"
                     f" and {total('n', 'k')} <= limit}}",
                     "    return gate"]
        else:
            lines = [f"def factory({', '.join(['top'] + weights)}):",
                     "    def limit(idx):",
                     f"        hi = {total('p', 'idx')}",
                     f"        lo = {total('n', 'idx')}",
                     "        return top - (hi if hi > lo else lo)",
                     "    return limit"]
        factory = _GATES[role, arity] = _compiled("\n".join(lines))
    return factory


class WindowSpec:
    def __init__(self, bound, slack, weights):
        self.bound = int(bound)
        self.slack = int(slack)
        if self.bound < 0 or self.slack < 0:
            raise ValueError(f"window bound and slack must be non-negative, "
                             f"got bound {self.bound}, slack {self.slack}")
        self.weights = dict(weights)

    def valid_inputs(self, space, known=None):
        """The basis tuples of `space` whose inputs are valid, in basis
        order; `known` is passed to `factor_weights`."""
        limit = self.bound - 1 - self.slack
        if limit < 0:
            return []
        factors = list(zip(*self.factor_weights(space, known)))
        if not factors:
            return [()]
        prefixes = [((), 0, 0)]  # (index tuple, positive sum, -negative sum)
        for k, (positive, negative) in enumerate(factors, 1):
            steps = [((i,), hi, lo) for i, (hi, lo) in enumerate(zip(positive, negative))]
            if k == len(factors):   # the full tuples, without their sums
                return [idx + step for idx, hi, lo in prefixes
                        for step, dhi, dlo in steps
                        if hi + dhi <= limit and lo + dlo <= limit]
            prefixes = [(idx + step, hi + dhi, lo + dlo)
                        for idx, hi, lo in prefixes
                        for step, dhi, dlo in steps
                        if hi + dhi <= limit and lo + dlo <= limit]

    def gate(self, space, known=None):
        """gate(coeffs, limit): the coordinates of `coeffs`, a dict keyed by
        basis tuples of `space`, that are reliable for an input whose
        `input_limit` is `limit`, as a new dict; `known` is passed to
        `factor_weights`."""
        positive, negative = self.factor_weights(space, known)
        return _factory("gate", len(positive))(*positive, *negative)

    def input_limit(self, space, known=None):
        """limit(idx): the most either signed weight sum of a coordinate
        may reach and still be reliable for the input `idx` of `space`;
        `known` is passed to `factor_weights`."""
        positive, negative = self.factor_weights(space, known)
        return _factory("limit", len(positive))(self.bound - self.slack,
                                                *positive, *negative)

    def factor_weights(self, space, known=None):
        """(positive, negative): per factor of `space`, a tuple holding
        each basis label's weight if positive (else 0), and the same for
        the absolute value of the negative weights.  `known`, a dict that
        the caller keeps for one call, holds each module's pair of tuples
        once it is built."""
        if known is None:
            known = {}
        positive, negative = [], []
        for module in space.modules:
            pair = known.get(module)
            if pair is None:
                ws = [self.weights.get(lbl, 0) for lbl in module.labels]
                pair = known[module] = (tuple([max(w, 0) for w in ws]),
                                        tuple([max(-w, 0) for w in ws]))
            positive.append(pair[0])
            negative.append(pair[1])
        return positive, negative

    def dualized(self):
        """The window of the dual modules, whose labels `dual_module` names."""
        return WindowSpec(self.bound, self.slack,
                          {lbl + DUAL_SUFFIX: -w for lbl, w in self.weights.items()})

    def shifted(self):
        """The window of the shifted modules, whose labels `shift_module` names."""
        return WindowSpec(self.bound, self.slack,
                          {SHIFT_PREFIX + lbl: w for lbl, w in self.weights.items()})

    def merged(self, other):
        if other is None:
            return self
        if (self.bound, self.slack) != (other.bound, other.slack):
            raise ValueError("cannot merge windows with different bound/slack")
        weights = dict(self.weights)
        for lbl, w in other.weights.items():
            if weights.get(lbl, w) != w:
                raise ValueError(f"conflicting window weight for label {lbl!r}")
            weights[lbl] = w
        return WindowSpec(self.bound, self.slack, weights)

    def __eq__(self, other):
        return (isinstance(other, WindowSpec)
                and (self.bound, self.slack, self.weights)
                == (other.bound, other.slack, other.weights))

    def __repr__(self):
        return f"WindowSpec(bound={self.bound}, slack={self.slack})"


def merge_windows(*specs):
    out = None
    for spec in specs:
        if spec is None:
            continue
        out = spec if out is None else out.merged(spec)
    return out
