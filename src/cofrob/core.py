"""Graded modules, tensor powers, elements, and homogeneous linear maps.

Conventions:

- a GradedModule has a finite ordered basis of labelled generators, each
  with an integer degree; labels are unique within a module;
- a TensorSpace is a finite tensor power A_1 (x) ... (x) A_k of graded
  modules; arity 0 is the ground ring R, whose single basis element is
  the empty tuple in degree 0 (so A (x) R = A on the nose);
- elements are sparse dicts basis-index-tuple -> scalar;
- a GradedMap of degree d sends a basis tuple of degree k into degree
  k + d; homogeneity is enforced entry by entry at construction;
- composition of maps carries no extra sign (signs enter only through
  duals and tensor products, see tensor.py).

All values are immutable after construction and safe to share.
"""

from functools import cached_property

from .fields import QQ

DUAL_SUFFIX = "'"


class GradedModule:
    def __init__(self, basis, field=QQ, name=""):
        basis = [(str(label), int(degree)) for label, degree in basis]
        seen = set()
        for label, _ in basis:
            if label in seen:
                raise ValueError(f"duplicate basis label {label!r}")
            seen.add(label)
        self.labels = tuple(label for label, _ in basis)
        self.degrees = tuple(degree for _, degree in basis)
        self.index = {label: i for i, label in enumerate(self.labels)}
        self.field = field
        self.name = name

    @property
    def dim(self):
        return len(self.labels)

    def degree(self, i):
        return self.degrees[i]

    def basis_at(self, degree):
        return [i for i, d in enumerate(self.degrees) if d == degree]

    @cached_property
    def dual(self):
        """A^v, whose degree -i part holds the duals of the basis of A_i,
        each label with DUAL_SUFFIX.  It is built on first read and kept,
        so every dual of this module object is one module object and
        comparing spaces of it takes the identity path.  The dual holds no
        reference back to this module, so keeping it makes no cycle."""
        basis = [(lbl + DUAL_SUFFIX, -deg) for lbl, deg in zip(self.labels, self.degrees)]
        return GradedModule(basis, field=self.field,
                            name=f"({self.name}){DUAL_SUFFIX}" if self.name else "")

    def __eq__(self, other):
        return (isinstance(other, GradedModule)
                and self.labels == other.labels
                and self.degrees == other.degrees
                and self.field == other.field)

    def __hash__(self):
        return hash((self.labels, self.degrees, self.field))

    def __repr__(self):
        return f"GradedModule({self.name or list(zip(self.labels, self.degrees))!r})"


def make_module(basis, field=QQ, name=""):
    """Build a graded module from (label, degree) pairs; labels must be distinct."""
    return GradedModule(basis, field=field, name=name)


class TensorSpace:
    """A tensor power of graded modules; arity 0 is the ground ring.

    `field` may be given beside factors only as their own field; a
    mismatch, like factors over different fields, raises ValueError."""

    def __init__(self, modules, field=None):
        self.modules = tuple(modules)
        if self.modules:
            first = self.modules[0].field
            if field is not None and field is not first and field != first:
                raise ValueError("tensor factors over different fields")
            for m in self.modules[1:]:
                if m.field != first:
                    raise ValueError("tensor factors over different fields")
            field = first
        elif field is None:
            field = QQ
        self.field = field

    @property
    def arity(self):
        return len(self.modules)

    @property
    def size(self):
        n = 1
        for m in self.modules:
            n *= m.dim
        return n

    def basis(self):
        """All basis index tuples, lexicographic in (factor, position)."""
        if not self.modules:
            yield ()
            return
        dims = [m.dim for m in self.modules]
        if any(d == 0 for d in dims):
            return
        idx = [0] * len(self.modules)
        while True:
            yield tuple(idx)
            k = len(idx) - 1
            while k >= 0:
                idx[k] += 1
                if idx[k] < dims[k]:
                    break
                idx[k] = 0
                k -= 1
            if k < 0:
                return

    def degree(self, idx):
        return sum(m.degree(i) for m, i in zip(self.modules, idx))

    def labels_of(self, idx):
        return tuple(m.labels[i] for m, i in zip(self.modules, idx))

    def concat(self, other):
        """The space self (x) other.  Spaces over different fields, the
        ground ring R included, raise ValueError; over one field both factor
        tuples already are, so the joined space is built without checks."""
        field = self.field
        if other.field is not field and other.field != field:
            raise ValueError("tensor factors over different fields")
        space = TensorSpace.__new__(TensorSpace)
        space.modules = self.modules + other.modules
        space.field = field
        return space

    def __eq__(self, other):
        """Equal factors, or for R equal fields: factors compare their
        fields, so equal non-empty factor tuples are over one field."""
        if self is other:
            return True
        if not isinstance(other, TensorSpace) or self.modules != other.modules:
            return False
        return bool(self.modules) or self.field == other.field

    def __hash__(self):
        return hash((self.modules, self.field))

    def __repr__(self):
        if not self.modules:
            return "R"
        return " (x) ".join(m.name or "?" for m in self.modules)


def scalar_space(field=QQ):
    return TensorSpace((), field=field)


def _degree(idx, degrees):
    """The degree of `idx` in a space whose factors have the degree tuples
    `degrees`, or None if `idx` is not a basis tuple of it: a wrong arity,
    a negative index, or one out of range (its lookup's IndexError)."""
    if len(idx) != len(degrees) or (idx and min(idx) < 0):
        return None
    try:
        return sum(map(tuple.__getitem__, degrees, idx))
    except IndexError:
        return None


def _label_indices(space, labels, side=None):
    """The index tuple of basis labels of `space`, one per factor; an
    unknown label, or a label count other than the arity, raises ValueError
    naming the `side` of a map ("source" or "target"), or else the space."""
    if len(labels) == space.arity:
        try:
            return tuple([m.index[lbl] for m, lbl in zip(space.modules, labels)])
        except KeyError as exc:
            problem = f"unknown basis label {exc.args[0]!r} of"
    else:
        problem = f"{len(labels)} labels {tuple(labels)!r}, not {space.arity}, for"
    raise ValueError(f"{problem} {f'the {side}' if side else repr(space)}")


class Element:
    """A sparse vector in a tensor space: dict basis-index-tuple -> scalar."""

    def __init__(self, space, coeffs=None):
        self.space = space
        field = space.field
        coerce, is_zero = field.coerce, field.is_zero
        degrees = [m.degrees for m in space.modules]
        clean = {}
        for idx, v in (coeffs or {}).items():
            idx = tuple(idx)
            if _degree(idx, degrees) is None:
                raise ValueError(f"index {idx} not a basis tuple of {space!r}")
            v = coerce(v)
            if not is_zero(v):
                clean[idx] = v
        self.coeffs = clean

    @classmethod
    def _trusted(cls, space, coeffs):
        """Wrap coefficients the library computed itself, without checks.

        The caller guarantees what __init__ would establish: every key is
        a basis tuple of `space`, every value is a scalar of its field and
        no value is zero.
        """
        elem = cls.__new__(cls)
        elem.space = space
        elem.coeffs = coeffs
        return elem

    @classmethod
    def basis(cls, space, idx):
        return cls(space, {tuple(idx): space.field.one})

    @classmethod
    def from_labels(cls, space, terms):
        """terms: iterable of (coeff, (label, ...))."""
        coeffs = {}
        field = space.field
        for coeff, labels in terms:
            idx = _label_indices(space, labels)
            coeffs[idx] = field.add(coeffs.get(idx, field.zero), field.coerce(coeff))
        return cls(space, coeffs)

    @property
    def is_zero(self):
        return not self.coeffs

    def degree(self):
        degs = {self.space.degree(idx) for idx in self.coeffs}
        if not degs:
            raise ValueError("degree of the zero element is undefined")
        if len(degs) > 1:
            raise ValueError(f"element is not homogeneous (degrees {sorted(degs)})")
        return degs.pop()

    def scale(self, a):
        """a times the element; by a nonzero scalar no value becomes zero
        (a field has no zero divisors), so the result needs no checks."""
        field = self.space.field
        a = field.coerce(a)
        if field.is_zero(a):
            return Element(self.space)
        mul = field.mul
        return Element._trusted(self.space, {i: mul(a, v) for i, v in self.coeffs.items()})

    def __add__(self, other):
        if not isinstance(other, Element) or other.space != self.space:
            raise ValueError("cannot add elements of different spaces")
        field = self.space.field
        out = dict(self.coeffs)
        for idx, v in other.coeffs.items():
            s = field.add(out.get(idx, field.zero), v)
            if field.is_zero(s):
                out.pop(idx, None)
            else:
                out[idx] = s
        return Element(self.space, out)

    def __sub__(self, other):
        # a non-Element gets the refusal of `__add__`
        return self + (other.scale(-1) if isinstance(other, Element) else other)

    def __neg__(self):
        return self.scale(-1)

    def __eq__(self, other):
        return (isinstance(other, Element)
                and self.space == other.space and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.space, frozenset(self.coeffs.items())))

    def __repr__(self):
        return format_element(self)


def format_element(elem):
    field = elem.space.field
    if elem.is_zero:
        return "0"
    parts = []
    for idx in sorted(elem.coeffs):
        labels = elem.space.labels_of(idx)
        name = "(x)".join(labels) if labels else "R"
        parts.append(f"{field.format(elem.coeffs[idx])}*{name}")
    return " + ".join(parts)


class GradedMap:
    """A degree-homogeneous linear map between tensor spaces, stored sparsely.

    entries: dict src-index-tuple -> dict dst-index-tuple -> scalar.

    The constructor checks each key once: its arity, no negative index,
    and then its degree read from the factors' degree tuples (hoisted per
    call), an out-of-range index failing that lookup; each target key's
    degree must be its source key's plus the map's.  Values are coerced
    into the field, and zero values and empty rows are dropped.

    `is_identity` is True only on the maps `identity` returns, so a stage
    reads it in O(1); any other map, even one with the identity's entries,
    reads False.
    """

    is_identity = False

    def __init__(self, source, target, degree, entries=None):
        if source.field != target.field:
            raise ValueError("source and target over different fields")
        self.source = source
        self.target = target
        self.degree = int(degree)
        field = source.field
        coerce, is_zero = field.coerce, field.is_zero
        src_degrees = [m.degrees for m in source.modules]
        dst_degrees = [m.degrees for m in target.modules]
        clean = {}
        for src, row in (entries or {}).items():
            src = tuple(src)
            srcdeg = _degree(src, src_degrees)
            if srcdeg is None:
                raise ValueError(f"index {src} not a basis tuple of the source")
            want = srcdeg + self.degree
            crow = {}
            for dst, v in row.items():
                dst = tuple(dst)
                dstdeg = _degree(dst, dst_degrees)
                if dstdeg is None:
                    raise ValueError(f"index {dst} not a basis tuple of the target")
                if dstdeg != want:
                    raise ValueError(
                        f"entry {source.labels_of(src)} -> {target.labels_of(dst)} "
                        f"violates homogeneity: {dstdeg} != {srcdeg} + ({self.degree})")
                v = coerce(v)
                if not is_zero(v):
                    crow[dst] = v
            if crow:
                clean[src] = crow
        self.entries = clean

    @classmethod
    def _trusted(cls, source, target, degree, entries):
        """Wrap entries the library computed itself, without checks.

        The caller guarantees what __init__ would establish: source and
        target are over one field, every key is a basis tuple of its space,
        every entry is homogeneous of degree `degree`, every value is a
        nonzero scalar of the field and no row is empty.
        """
        f = cls.__new__(cls)
        f.source = source
        f.target = target
        f.degree = degree
        f.entries = entries
        return f

    @classmethod
    def from_labels(cls, source, target, degree, rows):
        """rows: iterable of (src_labels, [(coeff, dst_labels), ...])."""
        entries = {}
        field = source.field
        for src_labels, terms in rows:
            row = entries.setdefault(_label_indices(source, src_labels, "source"), {})
            for coeff, dst_labels in terms:
                dst = _label_indices(target, dst_labels, "target")
                row[dst] = field.add(row.get(dst, field.zero), field.coerce(coeff))
        return cls(source, target, degree, entries)

    @classmethod
    def identity(cls, space):
        one = space.field.one
        f = cls._trusted(space, space, 0, {idx: {idx: one} for idx in space.basis()})
        f.is_identity = True
        return f

    @classmethod
    def zero(cls, source, target, degree):
        return cls(source, target, degree, {})

    def __call__(self, x):
        """Linear extension of the stored matrix; |f(x)| = |x| + |f|."""
        if isinstance(x, tuple):
            x = Element.basis(self.source, x)
        if not isinstance(x, Element) or x.space != self.source:
            raise ValueError("element parent does not match the map source")
        field = self.source.field
        out = {}
        for src, v in x.coeffs.items():
            for dst, w in self.entries.get(src, {}).items():
                s = field.add(out.get(dst, field.zero), field.mul(v, w))
                if field.is_zero(s):
                    out.pop(dst, None)
                else:
                    out[dst] = s
        return Element(self.target, out)

    def scale(self, a):
        """a times the map; by a nonzero scalar no value becomes zero (a
        field has no zero divisors) and every entry keeps its degree, so
        the result needs no checks."""
        field = self.source.field
        a = field.coerce(a)
        if field.is_zero(a):
            return GradedMap.zero(self.source, self.target, self.degree)
        mul = field.mul
        entries = {s: {d: mul(a, v) for d, v in row.items()}
                   for s, row in self.entries.items()}
        return GradedMap._trusted(self.source, self.target, self.degree, entries)

    def __add__(self, other):
        if (not isinstance(other, GradedMap) or other.source != self.source
                or other.target != self.target or other.degree != self.degree):
            raise ValueError("cannot add maps of different signatures")
        field = self.source.field
        entries = {s: dict(row) for s, row in self.entries.items()}
        for s, row in other.entries.items():
            tgt = entries.setdefault(s, {})
            for d, v in row.items():
                x = field.add(tgt.get(d, field.zero), v)
                if field.is_zero(x):
                    tgt.pop(d, None)
                else:
                    tgt[d] = x
        return GradedMap(self.source, self.target, self.degree, entries)

    def __sub__(self, other):
        # a non-GradedMap gets the refusal of `__add__`
        return self + (other.scale(-1) if isinstance(other, GradedMap) else other)

    def __eq__(self, other):
        return isinstance(other, GradedMap) and map_equal(self, other)

    def __hash__(self):
        return hash((self.source, self.target, self.degree))

    def __repr__(self):
        return (f"GradedMap({self.source!r} -> {self.target!r}, "
                f"degree {self.degree}, {sum(len(r) for r in self.entries.values())} entries)")


def apply(f, x):
    """Apply a graded map to an element (linear extension of the matrix)."""
    return f(x)


def compose(g, f):
    """g after f; degree |f|+|g|; no extra sign in direct composition.

    Entries are sums of products of validated entries with zero sums
    dropped, so the result is built without re-validation.  A field has no
    zero divisors, so the first product that reaches an output key is
    nonzero and stored as it is, without `add`; later ones are added, and
    a sum that cancels is deleted (a key that comes back goes last).  An
    intermediate key without a row of g is skipped."""
    if f.target != g.source:
        raise ValueError("compose: target of inner map differs from source of outer map")
    field = f.source.field
    add, mul, is_zero = field.add, field.mul, field.is_zero
    rows = g.entries.get
    entries = {}
    for src, row in f.entries.items():
        out = {}
        for mid, v in row.items():
            grow = rows(mid)
            if grow is None:
                continue
            for dst, w in grow.items():
                s = out.get(dst)
                if s is None:
                    out[dst] = mul(v, w)
                    continue
                s = add(s, mul(v, w))
                if is_zero(s):
                    del out[dst]
                else:
                    out[dst] = s
        if out:
            entries[src] = out
    return GradedMap._trusted(f.source, g.target, f.degree + g.degree, entries)


def map_equal(f, g):
    """Exact equality on every basis tuple; signature mismatch is unequal, not an error."""
    if not isinstance(f, GradedMap) or not isinstance(g, GradedMap):
        return False
    if f.source != g.source or f.target != g.target or f.degree != g.degree:
        return False
    return f.entries == g.entries


def element_as_map(elem, degree=None):
    """View an element of V as a graded map R -> V of degree |elem|."""
    if degree is None:
        degree = 0 if elem.is_zero else elem.degree()
    src = scalar_space(elem.space.field)
    entries = {(): dict(elem.coeffs)} if not elem.is_zero else {}
    return GradedMap(src, elem.space, degree, entries)
