"""The label-based window tests, kept as the reference for `windows.py`.

`WindowSpec` decides window validity on basis indices: `valid_inputs`
enumerates the valid tuples of a space and `input_limit` bounds the
coordinates reliable for one input.  The functions here are the per-label
forms of the same two rules, their bodies unchanged from when they were
`WindowSpec` methods, so tests can compare the two:

- an input x is valid iff  max|subset sum of x| + slack <= bound - 1;
- a coordinate y is reliable for x iff
  max|subset sum of x| + max|subset sum of y| + slack <= bound.

A label without a recorded weight has weight 0.
"""


def max_subset_abs(window, labels):
    """The largest |subset sum| of the weights of `labels`."""
    lo = hi = 0
    for lbl in labels:
        w = window.weights.get(lbl, 0)
        if w > 0:
            hi += w
        elif w < 0:
            lo += w
    return max(hi, -lo)


def input_valid(window, labels):
    return max_subset_abs(window, labels) + window.slack <= window.bound - 1


def coordinate_reliable(window, input_labels, coord_labels):
    return (max_subset_abs(window, input_labels)
            + max_subset_abs(window, coord_labels)
            + window.slack <= window.bound)
