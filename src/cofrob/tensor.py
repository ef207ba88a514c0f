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

Relation pipelines run through `StagePlan`, one compiled stage each; a plan
linked to the stage that reads its output (its consumer) skips the product
terms that stage would drop, which leaves the consumer's result unchanged.
A plan binds its step table and its field operations once, so a call
builds nothing before its first term.  The common terms cost little:
identity factors, marked by the flag `GradedMap.identity` sets (read in
O(1)), are copied into the output key with no lookup and no multiply; a
term whose rows each have one entry is carried as one (key, coefficient)
pair; and the Koszul sign is an XOR over a per-plan table of factor
degree parities.
"""

from .core import DUAL_SUFFIX, GradedModule, TensorSpace, Element, GradedMap, compose

SHIFT_PREFIX = "s."


class StagePlan:
    """A stage f_1 (x) ... (x) f_m compiled for one source space.

    Applies the stage with the Koszul sign
    (-1)^{sum_i |f_i| * deg(factors consumed before f_i)} per term.  The
    output space, the factor range each map reads, the sign table, the
    step table `run` walks and the field operations it calls are worked
    out once here, so `run` builds nothing per call and only multiplies
    and adds.  The maps' sources, concatenated, must be the source's
    factors: a stage that leaves a factor out or reads past the last one
    raises ValueError.

    Three things spare `run` work on every term:

    - a map built by `GradedMap.identity` (its `is_identity` flag, read
      in O(1)) is marked in its step, and `run` copies its factors into
      the key with no lookup and no multiply; a map that only equals the
      identity takes the lookup path, which gives the same terms;
    - a factor i enters the sign once for each odd-degree map that starts
      after it, so only the factors with an odd count of those matter;
      `signs` holds (i, parity of each basis degree of factor i) for
      them, and a term's sign is the XOR of its factors' parities;
    - most rows have a single entry, so `run` carries one (key,
      coefficient) pair and builds a list of partial terms only after a
      row with more than one entry.

    A plan may be linked to its consumer, the plan that reads its output
    (`feed`).  Expanding the product terms map by map, a linked plan then
    keeps an output key only if each partial consumer map (one with fewer
    rows than its source has basis tuples) whose input the key completes
    has a row for it.  The consumer skips every key without a row, its
    maps are linear and a dropped key is dropped whole, so what the
    consumer computes is unchanged; only the dead terms are never built.
    A partial consumer map on R has no row at all, so it makes every key
    dead (`dead`), and the plan then builds no term."""

    __slots__ = ("source", "space", "maps", "groups", "signs", "dead", "steps", "ops")

    def __init__(self, maps, source):
        if tuple(m for f in maps for m in f.source.modules) != source.modules:
            raise ValueError("apply_stage: the stage's sources do not match the element's factors")
        self.source = source
        self.space = TensorSpace(
            tuple(m for f in maps for m in f.target.modules), field=source.field)
        self.maps = maps
        self.groups = []      # (first factor, end factor, entries) read by each map
        odd_starts = []
        pos = 0
        for f in maps:
            k = f.source.arity
            self.groups.append((pos, pos + k, f.entries))
            if f.degree % 2:
                odd_starts.append(pos)
            pos += k
        self.signs = [(i, tuple(d % 2 for d in m.degrees))
                      for i, m in enumerate(source.modules)
                      if sum(a > i for a in odd_starts) % 2]
        self.dead = False  # whether the consumer reads no key (see feed)
        field = source.field
        self.ops = (field.add, field.mul, field.neg, field.is_zero, field.zero, field.one)
        self._bind_steps([()] * len(maps))

    def _bind_steps(self, probes):
        """Set the step table `run` walks: (a, b, entries, is_identity,
        probes) per map, `probes` being the consumer groups the map
        completes (see `feed`)."""
        self.steps = [(a, b, entries, f.is_identity, checks)
                      for (a, b, entries), f, checks in zip(self.groups, self.maps, probes)]

    def feed(self, consumer):
        """Link this plan to the plan that reads its output.

        Only the consumer's partial maps, those with fewer rows than their
        source has basis tuples, are probed: a group (a, b) of one is
        probed after the map whose output holds factor b - 1, the first
        map after which key[a:b] is complete; a map that completes no such
        group keeps every key.  A plan whose consumer has no partial map,
        like an unlinked one, has no group to probe after any map.  A
        partial map on R, a group (a, a), has no row for any key: the plan
        is then dead and `run` adds nothing."""
        partial = [g for g, f in zip(consumer.groups, consumer.maps)
                   if len(f.entries) < f.source.size]
        self.dead = any(a == b for a, b, _ in partial)
        probes = []
        start = 0
        for f in self.maps:
            end = start + f.target.arity
            probes.append([g for g in partial if start < g[1] <= end])
            start = end
        self._bind_steps(probes)

    def run(self, coeffs, out=None):
        """The stage applied to a coefficient dict of the source space.

        Every output index concatenates target indices of the maps'
        validated entries and zero sums are dropped as they arise, so the
        result needs no re-validation.  Results are added into `out` when
        it is given (a dict of the output space) and returned.

        Each term's sign is read from the parity table, an identity map
        appends its factors of the input, and a single-entry row extends
        the one (key, coefficient) pair carried so far; the list of partial
        terms is built only from the first row with more than one entry.
        A dead plan adds nothing."""
        if out is None:
            out = {}
        if self.dead:
            return out
        signs, steps = self.signs, self.steps
        add, mul, neg, is_zero, zero, one = self.ops
        for idx, v in coeffs.items():
            if signs:
                odd = 0
                for i, par in signs:
                    odd ^= par[idx[i]]
                if odd:
                    v = neg(v)
            key, partial = (), None
            for a, b, entries, identity, checks in steps:
                if identity:
                    if partial is None:
                        key += idx[a:b]
                        for x, y, e in checks:
                            if key[x:y] not in e:
                                break
                        else:
                            continue
                        break
                    row = {idx[a:b]: one}
                else:
                    row = entries.get(idx[a:b])
                    if row is None:
                        break
                    if partial is None:
                        if len(row) == 1:
                            (dst, w), = row.items()
                            key += dst
                            for x, y, e in checks:
                                if key[x:y] not in e:
                                    break
                            else:
                                v = mul(v, w)
                                continue
                            break
                        partial = [(key, v)]
                # The comprehension is the fast path; probing every map of every
                # plan instead costs the unlinked plans a few per cent.
                if checks:
                    kept = []
                    for prefix, c in partial:
                        for dst, w in row.items():
                            k = prefix + dst
                            for x, y, e in checks:
                                if k[x:y] not in e:
                                    break
                            else:
                                kept.append((k, mul(c, w)))
                    partial = kept
                else:
                    partial = [(prefix + dst, mul(c, w))
                               for prefix, c in partial for dst, w in row.items()]
            else:
                for dst, c in ([(key, v)] if partial is None else partial):
                    s = add(out.get(dst, zero), c)
                    if is_zero(s):
                        out.pop(dst, None)
                    else:
                        out[dst] = s
        return out


def apply_stage(maps, elem):
    """Apply f_1 (x) ... (x) f_m to an element (see `StagePlan`)."""
    plan = StagePlan(maps, elem.space)
    return Element._trusted(plan.space, plan.run(elem.coeffs))


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
