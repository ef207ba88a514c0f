"""Whole pipelines applied stage by stage, kept as a reference for tests.

The library checks relations through fused term kernels (windowed) or
composed maps (unwindowed); tests compare both with this direct route,
which shares no code with the kernels: each stage is materialized as the
tensor of its maps (`tensor.tensor_many`) and applied to the element with
`GradedMap.__call__`.  The last few stages' tensors are kept, with their
maps, so that a stage applied to every basis input is tensored once;
identities are keyed by their space, since equal spaces give equal ones.
"""

from cofrob.tensor import tensor_many

_TENSORS = {}   # stage key -> (the maps, kept so that no id is reused, and their tensor)
_KEPT = 16


def _tensor(stage):
    key = tuple(f.source if f.is_identity else id(f) for f in stage)
    kept = _TENSORS.get(key)
    if kept is None:
        if len(_TENSORS) == _KEPT:
            del _TENSORS[next(iter(_TENSORS))]
        kept = _TENSORS[key] = (tuple(stage), tensor_many(stage))
    return kept[1]


def apply_pipeline(stages, elem):
    """Apply a list of stages (each a list of maps tensored side by side)."""
    for stage in stages:
        elem = _tensor(stage)(elem)
    return elem
