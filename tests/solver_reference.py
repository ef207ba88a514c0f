"""The parent's hand-built solvers, kept as the reference for `reports.solve_map`.

`counit_solve` and `derive_cozipper` used to build their linear systems by
hand, with their own Koszul signs and, for the counit, the label-based
window tests `WindowSpec.input_valid` and `coordinate_reliable`.  The
library now solves for both maps with the relations they must satisfy
(`structures.RELATIONS["counit"]`, `tqft.TQFT_RELATIONS["rel5-pairing-form"]`).
The bodies below are the hand-built versions, unchanged, so tests can
compare the two on a grid of structures: same map, or same None.
"""

from cofrob.core import GradedMap, scalar_space
from cofrob.fields import solve_linear
from cofrob.structures import sgn
from cofrob.tqft import require_biunital_sectors


def counit_solve(data):
    """Solve (eps(x)1)lam = 1 = (-1)^l (1(x)eps)lam exactly for eps.

    Returns the counit as a GradedMap A -> R, or None when the linear
    system is infeasible.  On window models only window-valid equations
    are used, so infeasibility of the restricted system certifies
    infeasibility of the full one.  A window that keeps no equation
    determines nothing and raises ValueError.
    """
    l = data.lam.degree
    field = data.field
    module = data.module
    unknowns = [i for i in range(module.dim) if module.degree(i) == l]
    col = {i: k for k, i in enumerate(unknowns)}
    rows, rhs = [], []
    w = data.window
    for x in range(module.dim):
        labels = (module.labels[x],)
        if w is not None and not w.input_valid(labels):
            continue
        expansion = data.lam((x,))
        for y in range(module.dim):
            if w is not None and not w.coordinate_reliable(labels, (module.labels[y],)):
                continue
            row_left = [field.zero] * len(unknowns)
            row_right = [field.zero] * len(unknowns)
            for (u, v), cf in expansion.coeffs.items():
                if v == y and u in col:
                    row_left[col[u]] = field.add(row_left[col[u]], cf)
                if u == y and v in col:
                    s = sgn(l * (module.degree(u) % 2)) * sgn(l)
                    row_right[col[v]] = field.add(row_right[col[v]],
                                                  field.mul(field.coerce(s), cf))
            target = field.one if x == y else field.zero
            rows.append(row_left)
            rhs.append(target)
            rows.append(row_right)
            rhs.append(target)
    if not unknowns:
        if all(field.is_zero(b) for b in rhs):
            return GradedMap(data.space, scalar_space(field), -l, {})
        return None
    if not rows:
        raise ValueError("no window-valid equation determines the counit")
    sol = solve_linear(rows, rhs, field)
    if sol is None:
        return None
    entries = {(unknowns[k],): {(): sol[k]}
               for k in range(len(unknowns)) if not field.is_zero(sol[k])}
    return GradedMap(data.space, scalar_space(field), -l, entries)


def derive_cozipper(closed, open, zipper):
    """The unique zeta* with p_C(1 (x) zeta*) = (-1)^{|lam_A|+|lam_C|}
    p_A(zeta (x) 1), solved exactly per basis element of A.

    Both sectors must be biunital coFrobenius with perfect pairings; a
    degenerate system raises.  On window models the pairing entries of the
    shipped models are exact for in-window arguments, so every in-window
    equation is used; coordinates left undetermined by the truncation are
    set to zero (truncation-consistent).
    """
    require_biunital_sectors(closed, open)
    field = closed.field
    p_c = closed.pairing()
    p_a = open.pairing()
    deg_zs = closed.lam.degree - open.lam.degree
    cmod, amod = closed.module, open.module
    sign_rel = sgn(closed.lam.degree + open.lam.degree)
    entries = {}
    for x in range(amod.dim):
        target_deg = amod.degree(x) + deg_zs
        cols = [i for i in range(cmod.dim) if cmod.degree(i) == target_deg]
        rows, rhs = [], []
        used_any = False
        for y in range(cmod.dim):
            # LHS: p_C(1 (x) zeta*)(y (x) x) = (-1)^{|zs||y|} p_C(y (x) zs(x))
            s_l = sgn(deg_zs * cmod.degree(y))
            row = []
            for i in cols:
                v = p_c.entries.get((y, i), {}).get((), field.zero)
                row.append(field.mul(field.coerce(s_l), v))
            # RHS: sign * p_A(zeta(y) (x) x)
            zy = zipper((y,))
            val = field.zero
            for (u,), w_ in zy.coeffs.items():
                val = field.add(val, field.mul(
                    w_, p_a.entries.get((u, x), {}).get((), field.zero)))
            val = field.mul(field.coerce(sign_rel), val)
            if any(not field.is_zero(v) for v in row) or not field.is_zero(val):
                rows.append(row)
                rhs.append(val)
                used_any = True
        if not cols:
            if any(not field.is_zero(b) for b in rhs):
                raise ValueError(f"no cozipper: inconsistent at {amod.labels[x]}")
            continue
        if not used_any:
            continue
        sol = solve_linear(rows, rhs, field)
        if sol is None:
            raise ValueError(f"pairing degenerate: no cozipper value at {amod.labels[x]}")
        row_out = {(cols[k],): sol[k] for k in range(len(cols))
                   if not field.is_zero(sol[k])}
        if row_out:
            entries[(x,)] = row_out
    return GradedMap(open.space, closed.space, deg_zs, entries)
