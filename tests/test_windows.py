"""WindowSpec.valid_inputs against the per-tuple gate `window_reference.input_valid`."""

import pytest
from hypothesis import given, settings, strategies as st

from cofrob import make_module, TensorSpace, WindowSpec

from window_reference import input_valid

WEIGHTED = ("a", "b", "c", "d")
LABELS = WEIGHTED + ("free",)   # "free" never gets a weight


def reference(window, space):
    return [idx for idx in space.basis() if input_valid(window, space.labels_of(idx))]


@st.composite
def windows_and_spaces(draw):
    weights = draw(st.dictionaries(st.sampled_from(WEIGHTED), st.integers(-4, 4)))
    window = WindowSpec(draw(st.integers(0, 6)), draw(st.integers(0, 7)), weights)
    modules = []
    for _ in range(draw(st.integers(0, 3))):
        labels = draw(st.lists(st.sampled_from(LABELS), unique=True, max_size=5))
        modules.append(make_module([(lbl, 0) for lbl in labels]))
    return window, TensorSpace(modules)


@settings(max_examples=300, deadline=None)
@given(windows_and_spaces())
def test_valid_inputs_match_input_valid(case):
    window, space = case
    assert window.valid_inputs(space) == reference(window, space)


def test_negative_limit_gives_nothing():
    mod = make_module([("u", 0), ("free", 0)])
    window = WindowSpec(3, 3, {"u": 1})          # limit = 3 - 1 - 3 < 0
    for space in (TensorSpace(()), TensorSpace((mod,)), TensorSpace((mod, mod))):
        assert window.valid_inputs(space) == [] == reference(window, space)


def test_arity_zero_and_unweighted_labels():
    mod = make_module([("free", 0), ("u", 0), ("v", 0)])
    window = WindowSpec(3, 1, {"u": 1, "v": -2})  # limit 1
    assert window.valid_inputs(TensorSpace(())) == [()]
    # "free" weighs 0; u and v add to different sums, so (u, u) is out but (u, free) is in
    assert window.valid_inputs(TensorSpace((mod, mod))) == [(0, 0), (0, 1), (1, 0)]


def test_negative_bound_or_slack_is_refused():
    # a negative slack would mask coordinates the maps can reach and report
    # false failures
    for bound, slack in ((6, -1), (-2, 3)):
        with pytest.raises(ValueError, match="non-negative"):
            WindowSpec(bound, slack, {"u": 1})


def test_dualized_and_shifted_windows_weigh_the_renamed_labels():
    """A label the window misses weighs 0, always safe, so the renamed
    windows must use the labels `dual_module` and `shift_module` give."""
    from cofrob import dual_module, shift_module
    module = make_module([("a", 0), ("b", 1), ("free", 2)])
    window = WindowSpec(6, 1, {"a": 2, "b": -3})
    dual, shifted = dual_module(module), shift_module(module)
    assert window.dualized().weights == {dual.labels[0]: -2, dual.labels[1]: 3}
    assert window.shifted().weights == {shifted.labels[0]: 2, shifted.labels[1]: -3}
