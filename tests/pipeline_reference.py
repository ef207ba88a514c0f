"""Whole pipelines applied stage by stage, kept as a reference for tests.

The library checks relations through compiled stage plans (windowed) or
composed maps (unwindowed); tests compare both with this direct route,
which applies each stage to an element in turn with `tensor.apply_stage`.
"""

from cofrob.tensor import apply_stage


def apply_pipeline(stages, elem):
    """Apply a list of stages (each a list of maps tensored side by side)."""
    for stage in stages:
        elem = apply_stage(stage, elem)
    return elem
