"""Whole pipelines applied stage by stage, kept as a reference for tests.

The library checks relations through term kernels (windowed) or composed
maps (unwindowed); tests compare both with this direct route, which shares
no code with either, nor with `tensor.tensor_maps`.  `apply_pipeline`
applies each stage only to the basis tuples the element reaches: on
a_1 (x) ... (x) a_n it splits the tuple into the factors each map reads,
looks up each map's row and multiplies the rows out, with the Koszul sign
(f_1 (x) ... (x) f_m)(a) = (-1)^{sum_{i<j} |f_j||a_i|} f_1(...) (x) ...
(x) f_m(...) written out factor by factor, a_i running over the factors
that the maps before f_j read.

`apply_pipeline_materialized` is the older route, each stage materialized
as the tensor of its maps (`tensor.tensor_many`) and applied with
`GradedMap.__call__`; a test cross-checks the two on small cases.
"""

from itertools import product

from cofrob import Element, TensorSpace
from cofrob.tensor import tensor_many


def _apply_stage(stage, elem):
    space, field = elem.space, elem.space.field
    if tuple(m for f in stage for m in f.source.modules) != space.modules:
        raise ValueError("the stage's sources are not the element's factors")
    target = TensorSpace(tuple(m for f in stage for m in f.target.modules), field=field)
    starts, pos = [], 0
    for f in stage:
        starts.append(pos)
        pos += f.source.arity
    out = {}
    for idx, v in elem.coeffs.items():
        odd = 0
        for start, f in zip(starts, stage):
            for i in range(start):      # the factors read before f
                odd += f.degree * space.modules[i].degrees[idx[i]]
        rows = [f.entries.get(idx[start:start + f.source.arity])
                for start, f in zip(starts, stage)]
        if any(row is None for row in rows):
            continue
        for path in product(*[row.items() for row in rows]):
            key, c = (), v
            for dst, w in path:
                key += dst
                c = field.mul(c, w)
            if odd % 2:
                c = field.neg(c)
            out[key] = field.add(out.get(key, field.zero), c)
    return Element(target, out)


def apply_pipeline(stages, elem):
    """Apply a list of stages (each a list of maps tensored side by side)."""
    for stage in stages:
        elem = _apply_stage(stage, elem)
    return elem


def apply_pipeline_materialized(stages, elem):
    """`apply_pipeline` through each stage's materialized tensor."""
    for stage in stages:
        elem = tensor_many(stage)(elem)
    return elem
