"""Brute-force reference comparisons, written straight from the definitions.

These avoid the production code paths on purpose: cells are canonicalized
here from the definition, and there are no early exits beyond the
definition itself.
"""
import math
from collections import Counter
from itertools import permutations


def canonical_cell(value):
    """A float rounds to 6 places and a whole one becomes the int of its
    value; ints stay exact; a bool is kept apart from the numbers."""
    if isinstance(value, bool):
        return ("bool", value)
    if isinstance(value, float) and math.isfinite(value):
        value = round(value, 6)
        if value == math.floor(value):
            return int(value)
    return value


def _rows(result):
    return [tuple(canonical_cell(v) for v in row) for row in result.rows]


def exact_equal_reference(a, b):
    """Positional when either side is ordered, multiset otherwise."""
    if len(a.columns) != len(b.columns) or len(a.rows) != len(b.rows):
        return False
    if a.order_significant or b.order_significant:
        return _rows(a) == _rows(b)
    return Counter(_rows(a)) == Counter(_rows(b))


def relaxed_equal_reference(a, b):
    """Some injective mapping of the narrower columns into the wider ones
    makes the projected results match."""
    if len(a.rows) != len(b.rows):
        return False
    narrow, wide = (a, b) if len(a.columns) <= len(b.columns) else (b, a)
    if len(narrow.columns) == 0:
        return len(wide.columns) == 0
    ordered = narrow.order_significant or wide.order_significant
    narrow_rows = _rows(narrow)
    wide_rows = _rows(wide)
    for mapping in permutations(range(len(wide.columns)), len(narrow.columns)):
        projected = [tuple(row[i] for i in mapping) for row in wide_rows]
        if ordered:
            if projected == narrow_rows:
                return True
        elif Counter(projected) == Counter(narrow_rows):
            return True
    return False
