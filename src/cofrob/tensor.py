"""Koszul-sign-correct tensor calculus: tensor products, twist, permutation
action, duals, and degree shifts.

Sign conventions used throughout:

- twist:            tau(a (x) b) = (-1)^{|a||b|} b (x) a;
- tensor of maps:   (f (x) g)(a (x) b) = (-1)^{|g||a|} f(a) (x) g(b),
  iterated left to right for higher arity;
- permutations:     rho(a_1 (x) ... (x) a_n) picks up the sign of reordering
  the odd-degree factors (inversion count);
- dual map:         <f^v(g), a> = (-1)^{|g||f|} <g, f(a)>;
- shift:            A[1]_i = A_{i+1}, s: A -> A[1] of degree -1 and
  omega: A[1] -> A of degree +1 are mutually inverse, and the shift of
  f: A^k -> A^l is s^{(x)l} f omega^{(x)k}.

The dual of a map between tensor powers is iota_X^{-1} o (flat f)^v o
iota_Y, where iota_X: X_1^v (x) ... (x) X_k^v -> (X_1 (x) ... (x) X_k)^v is
the canonical isomorphism, so that the dual of a coproduct is a product on
the dual module and vice versa.  Every factor is diagonal on basis duals, so
`dual_map` builds it in one pass: the entry of f^v at (b^v, a^v) is
(-1)^{e(a) + e(b) + |f||b|} f_{a,b}, where e(x) = sum_{i<j} |x_i||x_j| is
iota's sign (derived in `dual_map`).  The factors built one by one, and
the composite, are kept in `tests/dual_reference.py` as its reference.

Relation pipelines run through generated kernels.  `term_kernel`
compiles a term, its stages read against its source, into one Python
function, `kernel(idx, v, out)`, which adds v times the term's value at the
basis tuple idx into the dict `out` as nested loops, with no dict between
the stages.  For (1 (x) p (x) 1)(lam (x) lam) on A (x) A over Q, with |lam|
and |p| odd, it binds this source:

    def kernel(idx, v, out):
        r0_0 = E0_0.get((idx[0],))              # lam's row at a
        if r0_0 is None: return
        r0_1 = E0_1.get((idx[1],))              # lam's row at b, grouped
        if r0_1 is None: return                 # by its first factor
        if P0_0[idx[0]]: v = -v                 # (-1)^{|lam||a|}
        for d0_0, w in r0_0.items():            # a_1 (x) a_2
            i1_1 = E1_1.get((d0_0[1],))         # p's index at a_2: the
            if i1_1 is None: continue           # (b_1, row) it pairs with
            c0_0 = v * w
            if P1_0[d0_0[0]]: c0_0 = -c0_0      # (-1)^{|p||a_1|}
            for g0_1, r1_1 in i1_1:
                q0_1 = r0_1.get(g0_1)           # the b_1 (x) b_2 of lam(b)
                if q0_1 is None: continue       # with that b_1
                for d0_1, w in q0_1:
                    c0_1 = c0_0 * w
                    for d1_1, w in r1_1.items():
                        c1_1 = c0_1 * w
                        k = (d0_0[0], d0_1[1])
                        s = out.get(k, 0) + c1_1
                        if not s: out.pop(k, None)
                        elif type(s) is int: out[k] = s
                        else: out[k] = _integral(s)     # Q's integral values are ints

Identities pass their factors on with no code, a row is looked up as soon
as its input factors are bound, and each coefficient is multiplied only
after those lookups accept the path.  A pairing that reads the factors of
two loops is joined (`_joins`): rather than walking lam(a) (x) lam(b) and
probing p at each pair, the kernel probes p's index once per path of
lam(a), and reads lam(b)'s row grouped by the factor p pairs.  The grouped
rows and indexes are built once per `check_relations` call and dropped
with it.  The field's arithmetic is written into the source
(`_ARITHMETIC`): over Q a value is an int or a Fraction and is made
canonical only where it leaves the kernel; over F_p every product,
negation and sum is reduced mod p, the p the factory binds.  `term_merge`
adds a term's signed value into a side with the same arithmetic.  The
source is written from the term's field kind and shape alone (per stage,
each map's factor range, kind and target arity, and the sign factors) and
compiled once per kind and shape into a factory kept in `_FACTORIES`; the
factory binds a term's rows, grouped rows and indexes (E..), parity
tables (P..) and, over F_p, p.  Labels, names and documents never reach
the source, and the cache holds no map or module.
"""

from .core import DUAL_SUFFIX, GradedModule, TensorSpace, GradedMap, compose
from .fields import PrimeField, RationalField, _integral

SHIFT_PREFIX = "s."


_MAX_LOOPS = 20     # CPython nests at most 20 loops in one function
_FACTORIES = {}     # (field kind, term shape), of ints and kind tags -> (kernel factory, `_roles`)
_MERGES = {}        # field kind -> the factory of `term_merge`

# The scalar arithmetic of the kernels, per field kind: what the factory
# binds from the field, then the source of the product of c and a row value
# w, of the negation of c, and of the lines that add c into out[k].  Besides
# `fields.py`, this table is the one place that knows how scalars are
# represented; every value that leaves a kernel is canonical, as the
# field's own operations return it.
_KINDS = {RationalField: "Q", PrimeField: "Fp"}
_ARITHMETIC = {
    "Q": ("", "{c} * w", "-{c}", (
        "s = out.get(k, 0) + {c}",
        "if not s: out.pop(k, None)",
        "elif type(s) is int: out[k] = s",
        "else: out[k] = _integral(s)")),
    "Fp": ("p = field.p", "{c} * w % p", "-{c} % p", (
        "s = (out.get(k, 0) + {c}) % p",
        "if not s: out.pop(k, None)",
        "else: out[k] = s")),
}


def _add_nothing(idx, v, out):
    """The kernel of a term with a map out of R that has no row."""


def term_kernel(stages, source, tables=None):
    """(kernel, space) of the pipeline `stages` on `source` (an empty one is
    the identity): kernel(idx, v, out) adds v times the pipeline's value at
    the basis tuple idx into the coefficient dict `out`, dropping zero sums
    as they arise, and `space` is where it lands.

    Each stage f_1 (x) ... (x) f_m must read exactly its input's factors,
    or ValueError is raised (its "apply_stage:" prefix is what the CLI
    prints), and carries the sign (-1)^{sum_i |f_i| *
    deg(factors read before f_i)}: a factor counts once per odd map that
    starts after it, so a path's sign is the XOR of the degree parities of
    the factors with an odd count.  The term's shape (per stage, each map's
    factor range, kind and target arity, and the sign factors) and the
    field's kind (Q or F_p, `_KINDS`) key `_FACTORIES`, whose factory,
    written by `_kernel_source` with the kind's arithmetic inline, binds
    the rows, parity tables and, over F_p, p.  A map out of R with no row
    makes the term add nothing, once every stage is checked.

    A join of the shape (`_joins`) binds its producer's rows grouped by the
    factors the contraction reads, and the contraction's rows indexed by
    its other factors.  `tables` is the caller's dict of these, by role,
    map id and factor range, so that each is built once per caller (a
    `check_relations` call); the maps must outlive it.  Without one they
    are built for this term alone.  A term whose loops (one per map that
    reads a row, two per join) would nest deeper than _MAX_LOOPS runs its
    first stage and the rest as two kernels, with a dict between them."""
    shape, bound, modules, empty = [], [], source.modules, False
    for maps in stages:
        if tuple(m for f in maps for m in f.source.modules) != modules:
            raise ValueError("apply_stage: the stage's sources do not match the element's factors")
        if sum(not f.is_identity for f in maps) > _MAX_LOOPS:
            raise ValueError(f"apply_stage: a stage holds at most {_MAX_LOOPS} maps "
                             "besides identities")
        groups, odd_starts, pos = [], [], 0
        for f in maps:
            k = f.source.arity
            kind = "id" if f.is_identity else "R" if k == 0 else "row"
            if kind == "R":
                row = f.entries.get(())
                if row is None:
                    empty = True
                else:
                    bound.append(tuple(row.items()))
            elif kind == "row":
                bound.append(f.entries)
            groups.append((pos, pos + k, kind, f.target.arity))
            if f.degree % 2:
                odd_starts.append(pos)
            pos += k
        signs = tuple(i for i in range(pos) if sum(a > i for a in odd_starts) % 2)
        shape.append((tuple(groups), signs))
        bound += [tuple(d % 2 for d in modules[i].degrees) for i in signs]
        modules = tuple(m for f in maps for m in f.target.modules)
    space = TensorSpace(modules, field=source.field) if stages else source
    if empty:
        return _add_nothing, space
    key = (_KINDS[type(source.field)], tuple(shape))
    cached = _FACTORIES.get(key)
    if cached is None:
        joins = _joins(shape)
        if sum(m[2] != "id" for maps, _ in shape for m in maps) + len(joins) > _MAX_LOOPS:
            head, middle = term_kernel(stages[:1], source, tables)
            tail, _ = term_kernel(stages[1:], middle, tables)

            def kernel(idx, v, out):
                between = {}
                head(idx, v, between)
                for key, c in between.items():
                    tail(key, c, out)
            return kernel, space
        cached = _FACTORIES[key] = (_compiled(_kernel_source(*key)), _roles(shape, joins))
    factory, roles = cached
    if roles and tables is None:
        tables = {}
    for at, s, j, made, lo, hi in roles:
        f = stages[s][j]
        table = tables.get((made, lo, hi, id(f)))
        if table is None:
            table = tables[made, lo, hi, id(f)] = made(f.entries, lo, hi)
        bound[at] = table
    return factory(bound, source.field), space


def _compiled(source):
    """The function `factory` that `source` defines."""
    namespace = {"_integral": _integral}
    exec(compile(source, "<kernel>", "exec"), namespace)
    return namespace["factory"]


def _grouped(entries, lo, hi):
    """The rows of `entries`, each as a dict of lists of its (key, value)
    pairs by the key's factors [lo, hi)."""
    out = {}
    for src, row in entries.items():
        groups = out[src] = {}
        for dst, w in row.items():
            groups.setdefault(dst[lo:hi], []).append((dst, w))
    return out


def _indexed(entries, lo, hi):
    """The rows of `entries` indexed by their keys' factors outside
    [lo, hi): for each such tuple, the list of (key factors [lo, hi), row)
    pairs."""
    out = {}
    for src, row in entries.items():
        out.setdefault(src[:lo] + src[hi:], []).append((src[lo:hi], row))
    return out


def _joins(shape):
    """The joins of a term shape: (stage s, map j) -> (map k, first factor,
    end factor) for each producer j of stage s whose loop binds the
    factors [first, end) of stage s + 1's input that its contraction k
    reads, the contraction's other factors being bound by loops that open
    before j's.

    A contraction is a map of stage s + 1 that reads a row and lands in R
    (target arity 0), as a pairing does; its factors that j does not
    bind must each come from a map's loop, none from `idx` (an input
    factor passed on by identities).  A producer joins at most one
    contraction, the first.  Everything is read from the shape alone."""
    joins = {}
    width = max((m[1] for m in shape[0][0]), default=0) if shape else 0
    loops = [None] * width      # per stage input factor: the loop (s, j) that binds it
    for s, (maps, _) in enumerate(shape):
        bound = []
        for j, (a, b, kind, t) in enumerate(maps):
            bound += loops[a:b] if kind == "id" else [(s, j)] * t
        loops = bound
        if s + 1 == len(shape):
            break
        for k, (a, b, kind, t) in enumerate(shape[s + 1][0]):
            binders = set(loops[a:b])
            if kind != "row" or t or None in binders or len(binders) < 2:
                continue
            last = max(binders)
            if last[0] != s or maps[last[1]][2] != "row" or last in joins:
                continue
            inner = [i for i in range(a, b) if loops[i] == last]
            joins[last] = (k, inner[0], inner[-1] + 1)
    return joins


def _roles(shape, joins):
    """(place among the bound tables, stage, map, table builder, first
    factor, end factor) of each map of a join (`_joins`): the producer's
    rows grouped by the factors its contraction reads, the contraction's
    rows indexed by its other factors."""
    places, at = {}, 0
    for s, (maps, signs) in enumerate(shape):
        for j, m in enumerate(maps):
            if m[2] != "id":
                places[s, j], at = at, at + 1
        at += len(signs)
    roles = []
    for (s, j), (k, lo, hi) in joins.items():
        off = sum(m[3] for m in shape[s][0][:j])
        a = shape[s + 1][0][k][0]
        roles += [(places[s, j], s, j, _grouped, lo - off, hi - off),
                  (places[s + 1, k], s + 1, k, _indexed, lo - a, hi - a)]
    return tuple(roles)


def _kernel_source(kind, shape):
    """The source of the kernel factory for terms of one shape over a field
    of one kind, its arithmetic written inline (`_ARITHMETIC`).

    Stage by stage, each map that reads a row opens a loop over it, and an
    identity passes its factors on with no code.  A map's row is looked up
    at the first loop where its input factors are all bound, a missing row
    skipping the path; a loop's coefficient is multiplied after those
    lookups, and a stage's sign is applied at the first loop where its
    sign factors are all bound.

    A join (`_joins`) probes its contraction's index, keyed by the factors
    the outer loops bound, as soon as they are bound, and its producer's
    loop becomes two: one over the (factors, row) pairs the probe found,
    and one over the producer's row grouped by those factors, a missing
    group skipping the pair.  So a contraction of two loops' factors is
    probed once per outer path, not once per pair of paths."""
    joins = _joins(shape)
    probes = {(s + 1, k): (lo, hi) for (s, _), (k, lo, hi) in joins.items()}
    width = max((m[1] for m in shape[0][0]), default=0) if shape else 0
    factors = [[f"idx[{i}]" for i in range(width)]]  # per stage input, None until bound
    wholes = [{(0, width): "idx"}]      # per stage input: the ranges one name holds
    starts, params = [], []
    for s, (maps, signs) in enumerate(shape):
        starts.append([sum(m[3] for m in maps[:j]) for j in range(len(maps))])
        factors.append([None] * sum(m[3] for m in maps))
        wholes.append({})
        params += [f"{'R' if m[2] == 'R' else 'E'}{s}_{j}"
                   for j, m in enumerate(maps) if m[2] != "id"]
        params += [f"P{s}_{i}" for i in signs]
    bound, product, negation, accumulate = _ARITHMETIC[kind]
    lines = ["def factory(T, field):",
             f"    {', '.join(params)}, = T" if params else "",
             f"    {bound}" if bound else "",
             "    def kernel(idx, v, out):"]
    depth, coeff, leave = 2, "v", "return"
    looked, signed = set(), set()

    def key(s, lo, hi):
        """Factors [lo, hi) of stage s's input as an expression, or None if
        one of them is not bound yet."""
        items = factors[s][lo:hi]
        if (lo, hi) in wholes[s] or None in items:
            return wholes[s].get((lo, hi))
        return f"({', '.join(items)}{',' if len(items) == 1 else ''})"

    def bind():
        """Look up each row, probe each contraction's index, and pass on
        each identity's factors, whose input factors are all bound."""
        for s, (maps, _) in enumerate(shape):
            for j, (a, b, kind, t) in enumerate(maps):
                if (s, j) in looked or kind == "R":
                    continue
                if (s, j) in probes:
                    lo, hi = probes[s, j]
                    outer = factors[s][a:lo] + factors[s][hi:b]
                    if None not in outer:
                        looked.add((s, j))
                        lines.extend((
                            "    " * depth + f"i{s}_{j} = E{s}_{j}.get(({', '.join(outer)},))",
                            "    " * depth + f"if i{s}_{j} is None: {leave}"))
                    continue
                expr = key(s, a, b)
                if expr is None:
                    continue
                looked.add((s, j))
                if kind == "row":
                    lines.extend(("    " * depth + f"r{s}_{j} = E{s}_{j}.get({expr})",
                                  "    " * depth + f"if r{s}_{j} is None: {leave}"))
                    continue
                off = starts[s][j]
                factors[s + 1][off:off + t] = factors[s][a:b]
                if (a, b) in wholes[s]:
                    wholes[s + 1][off, off + t] = wholes[s][a, b]
                return bind()

    def sign():
        """Apply each stage's sign once its sign factors are all bound."""
        for s, (_, signs) in enumerate(shape):
            items = [factors[s][i] for i in signs]
            if s not in signed and None not in items:
                signed.add(s)
                if signs:
                    odd = " ^ ".join(f"P{s}_{i}[{x}]" for i, x in zip(signs, items))
                    lines.append("    " * depth + f"if {odd}: {coeff} = {negation.format(c=coeff)}")

    bind()
    sign()
    for s, (maps, _) in enumerate(shape):
        for j, (_, _, kind, t) in enumerate(maps):
            if kind != "id":
                name, off = f"d{s}_{j}", starts[s][j]
                row = f"R{s}_{j}" if kind == "R" else f"r{s}_{j}.items()"
                if (s, j) in joins:
                    k = joins[s, j][0]
                    lines.extend(("    " * depth + f"for g{s}_{j}, r{s + 1}_{k} in i{s + 1}_{k}:",
                                  "    " * depth + f"    q{s}_{j} = r{s}_{j}.get(g{s}_{j})",
                                  "    " * depth + f"    if q{s}_{j} is None: continue"))
                    depth, row = depth + 1, f"q{s}_{j}"
                lines.append("    " * depth + f"for {name}, w in {row}:")
                depth, leave = depth + 1, "continue"
                factors[s + 1][off:off + t] = [f"{name}[{i}]" for i in range(t)]
                wholes[s + 1][off, off + t] = name
                bind()
                lines.append("    " * depth + f"c{s}_{j} = {product.format(c=coeff)}")
                coeff = f"c{s}_{j}"
                sign()
    lines.append("    " * depth + f"k = {key(len(shape), 0, len(factors[-1]))}")
    lines += ["    " * depth + line.format(c=coeff) for line in accumulate]
    lines.append("    return kernel")
    return "\n".join(lines)


def term_merge(field):
    """merge(sign, value, out): adds sign times each value of the dict
    `value` into the dict `out`, dropping zero sums as they arise, with the
    arithmetic of the field's kind written inline (`_ARITHMETIC`); the
    factory of each kind is compiled once, into `_MERGES`."""
    kind = _KINDS[type(field)]
    factory = _MERGES.get(kind)
    if factory is None:
        bound, product, _, accumulate = _ARITHMETIC[kind]
        factory = _MERGES[kind] = _compiled("\n".join([
            "def factory(field):",
            f"    {bound}" if bound else "",
            "    def merge(sign, value, out):",
            "        for k, w in value.items():",
            f"            c = {product.format(c='sign')}",
            *["            " + line.format(c="c") for line in accumulate],
            "    return merge"]))
    return factory(field)


def tensor_maps(f, g):
    """Materialized f (x) g with the sign (-1)^{|g||a|} per basis element a.

    Every value is +-1 times a product of two nonzero validated values, so
    the result is built without re-validation."""
    source = f.source.concat(g.source)
    target = f.target.concat(g.target)
    field = source.field
    mul, neg = field.mul, field.neg
    entries = {}
    for sf, rowf in f.entries.items():
        negate = g.degree % 2 and f.source.degree(sf) % 2
        for sg, rowg in g.entries.items():
            row = {}
            for df, vf in rowf.items():
                for dg, vg in rowg.items():
                    v = mul(vf, vg)
                    row[df + dg] = neg(v) if negate else v
            entries[sf + sg] = row
    return GradedMap._trusted(source, target, f.degree + g.degree, entries)


def tensor_many(maps):
    out = maps[0]
    for f in maps[1:]:
        out = tensor_maps(out, f)
    return out


class Permutation:
    """A permutation of {1..n}; images[i] = rho(i+1) (1-based values)."""

    def __init__(self, images):
        self.images = tuple(images)
        self.n = len(self.images)
        if sorted(self.images) != list(range(1, self.n + 1)):
            raise ValueError(f"not a bijection on 1..{self.n}: {images}")

    @classmethod
    def identity(cls, n):
        return cls(range(1, n + 1))

    @classmethod
    def transposition(cls, n, i, j):
        images = list(range(1, n + 1))
        images[i - 1], images[j - 1] = j, i
        return cls(images)

    @classmethod
    def cycle(cls, n, cyc):
        images = list(range(1, n + 1))
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            images[a - 1] = b
        return cls(images)

    def inverse(self):
        images = [0] * self.n
        for i, v in enumerate(self.images):
            images[v - 1] = i + 1
        return Permutation(images)

    def __mul__(self, other):
        """(self * other)(i) = self(other(i))."""
        if other.n != self.n:
            raise ValueError("arity mismatch")
        return Permutation(self.images[other.images[i] - 1] for i in range(self.n))

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        return f"Permutation{self.images}"


def permute(rho, space):
    """The left action rho(a_1 (x) ... (x) a_n) = eps(rho, a) a_{rho^-1(1)} (x) ...

    eps counts inversions among odd-degree factors only.  Built in one
    pass over the basis tuples, as `twist` is: the inversions of rho and
    one degree-parity tuple per factor are worked out once, and a tuple's
    sign is the XOR of its factors' parities over each inversion.  Every
    value is +-1, so the map is built without re-validation.
    """
    if rho.n != space.arity:
        raise ValueError(f"permutation arity {rho.n} != tensor arity {space.arity}")
    inv = rho.inverse()
    perm0 = [inv.images[k] - 1 for k in range(rho.n)]  # output slot k <- input slot perm0[k]
    target = TensorSpace(tuple(space.modules[p] for p in perm0), field=space.field)
    one = space.field.one
    signs = (one, space.field.neg(one))
    parity = [tuple(d & 1 for d in m.degrees) for m in space.modules]
    inversions = [(perm0[a], perm0[b], parity[perm0[a]], parity[perm0[b]])
                  for a in range(rho.n) for b in range(a + 1, rho.n) if perm0[a] > perm0[b]]
    entries = {}
    for idx in space.basis():
        odd = 0
        for i, j, p, q in inversions:
            odd ^= p[idx[i]] & q[idx[j]]
        entries[idx] = {tuple([idx[k] for k in perm0]): signs[odd]}
    return GradedMap._trusted(space, target, 0, entries)


def twist(a, b):
    """tau: A (x) B -> B (x) A, tau(x (x) y) = (-1)^{|x||y|} y (x) x.

    Built in one pass over the pairs of basis indices, the sign read from
    the factors' degree parities; it equals
    `permute(Permutation((2, 1)), TensorSpace((a, b)))`, the general path.
    Every value is +-1, so the map is built without re-validation."""
    source = TensorSpace((a, b))
    one = source.field.one
    signs = (one, source.field.neg(one))
    odd_b = [d & 1 for d in b.degrees]
    entries = {(i, j): {(j, i): signs[p & q]}
               for i, p in enumerate([d & 1 for d in a.degrees])
               for j, q in enumerate(odd_b)}
    return GradedMap._trusted(source, TensorSpace((b, a)), 0, entries)


def dual_module(a):
    """A^v: (A^v)_i consists of the duals of the basis of A_{-i}.  Every
    call on one module object returns the one dual it keeps
    (`GradedModule.dual`)."""
    return a.dual


def dual_spaces(*spaces):
    """The dual A_1^v (x) ... (x) A_n^v of each space, in order.  Modules
    are equal by value, so the dual of a factor's first equal module is
    shared by every space that has it; that dual is the one its module
    object keeps, so every call shares it too."""
    duals = {}
    for space in spaces:
        for m in space.modules:
            if m not in duals:
                duals[m] = dual_module(m)
    return tuple(TensorSpace(tuple(duals[m] for m in space.modules), field=space.field)
                 for space in spaces)


def _iota_parity(space, idx):
    """(e(x), |x|) mod 2 for the basis tuple x = idx of `space`.

    e(x) = sum_{i<j} |x_i||x_j| is the sign exponent of iota on x^v.  With
    o odd factors both depend on o alone: e(x) = o(o-1)/2 and |x| = o
    mod 2."""
    odd = 0
    for module, i in zip(space.modules, idx):
        odd += module.degrees[i] & 1
    return (odd * (odd - 1) >> 1) & 1, odd & 1


def dual_map(f):
    """Dual of a map between tensor powers, in one pass over f's entries.

    For f: X_1 (x) ... (x) X_k -> Y_1 (x) ... (x) Y_l the dual is
    iota_X^{-1} o (flat f)^v o iota_Y : Y_1^v (x) ... (x) Y_l^v ->
    X_1^v (x) ... (x) X_k^v, so that the dual of a coproduct is a product
    on A^v and vice versa.  Each factor is diagonal on basis duals:

    - iota_Y sends b^v to (-1)^{e(b)} (flat b)^v, with
      e(x) = sum_{i<j} |x_i||x_j|;
    - the flat dual sends (flat b)^v to
      sum_a (-1)^{|f||b|} f_{a,b} (flat a)^v, since
      <(flat f)^v(b^v), a> = (-1)^{|b^v||f|} <b^v, f(a)> and |b^v| = -|b|;
    - iota_X^{-1} sends (flat a)^v to (-1)^{e(a)} a^v, iota's sign being
      its own inverse.

    So the entry of f^v at (b^v, a^v) is
    (-1)^{e(a) + e(b) + |f||b|} f_{a,b}, with |b| = sum_i |b_i|.  This is
    a bijection on entries, so no two of them add.  Arity 0 needs no
    special case: R^v = R and the empty tuple has e = 0 and degree 0, so
    the dual of a counit is a unit on A^v and that of a copairing map a
    pairing.  Every value is +-1 times a validated nonzero value, so the
    map is built without re-validation."""
    source, target = dual_spaces(f.target, f.source)
    neg = f.source.field.neg
    odd_f = f.degree & 1
    entries = {}
    for a, row in f.entries.items():
        e_a, _ = _iota_parity(f.source, a)
        for b, v in row.items():
            e_b, deg_b = _iota_parity(f.target, b)
            entries.setdefault(b, {})[a] = neg(v) if e_a ^ e_b ^ (odd_f & deg_b) else v
    return GradedMap._trusted(source, target, f.degree, entries)


def shift_module(a):
    """A[1]_i = A_{i+1}: each generator drops one degree, labels get the 's.' prefix."""
    basis = [(SHIFT_PREFIX + lbl, deg - 1) for lbl, deg in zip(a.labels, a.degrees)]
    return GradedModule(basis, field=a.field, name=f"{a.name}[1]" if a.name else "")


class ShiftMaps:
    """The canonical maps s: A -> A[1] (degree -1) and omega (degree +1)."""

    def __init__(self, a):
        self.module = a
        self.shifted = shift_module(a)
        src = TensorSpace((a,))
        dst = TensorSpace((self.shifted,))
        one = a.field.one
        self.s = GradedMap(src, dst, -1, {(i,): {(i,): one} for i in range(a.dim)})
        self.omega = GradedMap(dst, src, 1, {(i,): {(i,): one} for i in range(a.dim)})


def shift_map(f, shifts=None):
    """shift of f: A^k -> A^l is s^{(x)l} o f o omega^{(x)k} on A[1]."""
    mods = set(f.source.modules) | set(f.target.modules)
    if len(mods) != 1:
        raise ValueError("shift_map expects powers of a single module")
    (a,) = mods
    sh = shifts or ShiftMaps(a)
    g = f
    if f.source.arity:
        g = compose(g, tensor_many([sh.omega] * f.source.arity))
    if f.target.arity:
        g = compose(tensor_many([sh.s] * f.target.arity), g)
    return g
