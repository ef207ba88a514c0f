"""The composite dual route, kept as the reference for `tensor.dual_map`.

The dual of a map between tensor powers is iota_X^{-1} o (flat f)^v o
iota_Y.  `dual_map` builds it in one pass from iota's sign rule; the maps
here build each factor on its own, so tests can compose them and compare:

- raw dual:     <f^v(g), a> = (-1)^{|g||f|} <g, f(a)> on single modules;
- iota:         iota(f (x) g) evaluates by (f (x) g)(a (x) b) =
  (-1)^{|g||a|} f(a) g(b); on basis duals iota(a^v (x) b^v) =
  (-1)^{|a||b|} (a (x) b)^v;
- double dual:  <a^vv, f> = (-1)^{|a|} f(a).
"""

from cofrob.core import GradedModule, TensorSpace, GradedMap
from cofrob.tensor import dual_module, dual_spaces


def tensor_modules(a, b):
    """Flattened tensor product module: basis = ordered pairs, degree additive."""
    basis = [(f"{la}(x){lb}", da + db)
             for la, da in zip(a.labels, a.degrees)
             for lb, db in zip(b.labels, b.degrees)]
    name = f"({a.name})(x)({b.name})" if a.name or b.name else ""
    mod = GradedModule(basis, field=a.field, name=name)
    return mod


def flatten_space(space):
    """Flatten a tensor space of arity >= 1 into a single module.

    Returns (module, to_flat, from_flat) where to_flat maps index tuples of
    the space to indices of the module.
    """
    mods = space.modules
    if not mods:
        raise ValueError("cannot flatten the ground ring")
    flat = mods[0]
    for m in mods[1:]:
        flat = tensor_modules(flat, m)
    to_flat = {}
    from_flat = {}
    for i, idx in enumerate(space.basis()):
        to_flat[idx] = i
        from_flat[i] = idx
    return flat, to_flat, from_flat


def raw_dual(f):
    """Dual of a map between single modules: <f^v(g), a> = (-1)^{|g||f|}<g, f(a)>."""
    if f.source.arity != 1 or f.target.arity != 1:
        raise ValueError("raw_dual expects arity-1 source and target")
    src_mod = f.source.modules[0]
    dst_mod = f.target.modules[0]
    source = TensorSpace((dual_module(dst_mod),))
    target = TensorSpace((dual_module(src_mod),))
    field = f.source.field
    entries = {}
    for (a,), row in f.entries.items():
        for (b,), v in row.items():
            # |b^v| = -|b|; sign exponent |g||f| with g = b^v
            sgn = -1 if (f.degree % 2 and dst_mod.degree(b) % 2) else 1
            drow = entries.setdefault((b,), {})
            prev = drow.get((a,), field.zero)
            drow[(a,)] = field.add(prev, field.mul(field.coerce(sgn), v))
    entries = {s: r for s, r in entries.items() if any(not field.is_zero(v) for v in r.values())}
    return GradedMap(source, target, f.degree, entries)


def iota(space):
    """iota: A_1^v (x) ... (x) A_n^v -> (A_1 (x) ... (x) A_n)^v.

    On basis duals iota picks up (-1)^{sum_{i<j} |a_i||a_j|}; an isomorphism
    for finite bases.
    """
    flat, to_flat, _ = flatten_space(space)
    source, = dual_spaces(space)
    target = TensorSpace((dual_module(flat),))
    field = space.field
    entries = {}
    for idx in space.basis():
        degs = [space.modules[i].degree(idx[i]) for i in range(space.arity)]
        sign = 1
        for a in range(len(degs)):
            for b in range(a + 1, len(degs)):
                if degs[a] % 2 and degs[b] % 2:
                    sign = -sign
        entries[idx] = {(to_flat[idx],): field.coerce(sign)}
    return GradedMap(source, target, 0, entries)


def iota_inverse(space):
    """Inverse of iota (both are diagonal with signs +-1)."""
    fwd = iota(space)
    field = space.field
    entries = {}
    for src, row in fwd.entries.items():
        (dst, v), = row.items()
        entries[dst] = {src: field.inv(v)}
    return GradedMap(fwd.target, fwd.source, 0, entries)


def flattener(space):
    """The identity reindexing (A_1, ..., A_n) -> flat module, no signs."""
    flat, to_flat, _ = flatten_space(space)
    target = TensorSpace((flat,))
    field = space.field
    entries = {idx: {(to_flat[idx],): field.one} for idx in space.basis()}
    return GradedMap(space, target, 0, entries)


def unflattener(space):
    flat = flattener(space)
    field = space.field
    entries = {}
    for src, row in flat.entries.items():
        for dst, v in row.items():
            entries[dst] = {src: v}
    return GradedMap(flat.target, flat.source, 0, entries)


def double_dual(a):
    """Canonical iso A -> A^vv, <a^vv, f> = (-1)^{|a|} f(a)."""
    dd = dual_module(dual_module(a))
    source = TensorSpace((a,))
    target = TensorSpace((dd,))
    field = a.field
    entries = {}
    for i, deg in enumerate(a.degrees):
        sign = -1 if deg % 2 else 1
        entries[(i,)] = {(i,): field.coerce(sign)}
    return GradedMap(source, target, 0, entries)
