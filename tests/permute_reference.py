"""The inversion-by-inversion permutation action, kept as the reference for
`tensor.permute`.

`permute` builds the action in one pass from a table of degree parities;
the loop here recomputes each basis tuple's degrees and walks every pair
of output slots, so tests can compare the two entry by entry, in order.
"""

from cofrob.core import TensorSpace, GradedMap


def permute_reference(rho, space):
    """rho(a_1 (x) ... (x) a_n) = eps(rho, a) a_{rho^-1(1)} (x) ..., eps
    counting the inversions among odd-degree factors."""
    if rho.n != space.arity:
        raise ValueError(f"permutation arity {rho.n} != tensor arity {space.arity}")
    inv = rho.inverse()
    perm0 = [inv.images[k] - 1 for k in range(rho.n)]  # output slot k <- input slot perm0[k]
    target = TensorSpace(tuple(space.modules[p] for p in perm0), field=space.field)
    field = space.field
    one = field.one
    minus_one = field.neg(one)
    entries = {}
    for idx in space.basis():
        degs = [space.modules[i].degree(idx[i]) for i in range(rho.n)]
        sign = 1
        for a in range(rho.n):
            for b in range(a + 1, rho.n):
                if perm0[a] > perm0[b] and degs[perm0[a]] % 2 and degs[perm0[b]] % 2:
                    sign = -sign
        dst = tuple(idx[p] for p in perm0)
        entries[idx] = {dst: one if sign == 1 else minus_one}
    return GradedMap._trusted(space, target, 0, entries)
