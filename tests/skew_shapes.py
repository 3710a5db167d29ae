"""Enumeration of small skew diagrams, shared by the tests that sweep them."""

from twistfusion.diagrams import SkewDiagram
from twistfusion.errors import MalformedShape


def is_anchored(d: SkewDiagram) -> bool:
    """True when the shape touches the top row and leftmost column of its
    lambda bounding box (the pairs on which sharp is a literal involution)."""
    if d.size == 0:
        return d.lam == ()
    mu = d.mu_padded()
    return mu[0] < d.lam[0] and d.lam[-1] > 0 and mu[-1] == 0


def enumerate_skew(max_boxes: int, max_col_height: int | None = None):
    """Yield the anchored skew diagrams with 1 to max_boxes boxes (and
    columns at most max_col_height tall, if given)."""

    def partitions(bound_len, bound_val):
        yield ()
        stack = [(v,) for v in range(bound_val, 0, -1)]
        while stack:
            p = stack.pop()
            yield p
            if len(p) < bound_len:
                stack.extend(p + (v,) for v in range(min(p[-1], bound_val), 0, -1))

    for lam in partitions(max_boxes, max_boxes):
        if not lam:
            continue
        for mu in partitions(len(lam), lam[0]):
            try:
                d = SkewDiagram(lam, mu)
            except MalformedShape:
                continue
            if d.lam != lam:
                continue  # skip non-canonical duplicates
            if not 0 < d.size <= max_boxes or not is_anchored(d):
                continue
            if max_col_height is not None and d.max_column_height() > max_col_height:
                continue
            yield d
