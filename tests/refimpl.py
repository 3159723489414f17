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


def _multiset(rows):
    return frozenset(Counter(rows).items())


def exact_equal_reference(a, b):
    """Positional when either side is ordered, multiset otherwise."""
    if len(a.columns) != len(b.columns) or len(a.rows) != len(b.rows):
        return False
    if a.order_significant or b.order_significant:
        return _rows(a) == _rows(b)
    return Counter(_rows(a)) == Counter(_rows(b))


class _Projections:
    """A result's canonical rows, and for each k up to its width the
    projections of those rows through every injective k-column mapping, as
    row sequences and as multisets."""

    def __init__(self, result):
        self.rows = tuple(_rows(result))
        self.multiset = _multiset(self.rows)
        width = len(result.columns)
        self.sequences = {}
        self.multisets = {}
        for k in range(1, width + 1):
            projected = [
                tuple(tuple(row[i] for i in mapping) for row in self.rows)
                for mapping in permutations(range(width), k)
            ]
            self.sequences[k] = set(projected)
            self.multisets[k] = set(map(_multiset, projected))


class RelaxedReference:
    """Relaxed equality from its definition: some injective mapping of the
    narrower columns into the wider ones makes the projected results match.

    Each result's projections are computed once per instance, so comparing
    a pair of results seen before is one lookup.
    """

    def __init__(self):
        # By result id; each entry holds its result, so no id is reused.
        self._projections: dict[int, tuple] = {}

    def _of(self, result) -> _Projections:
        entry = self._projections.get(id(result))
        if entry is None:
            entry = self._projections[id(result)] = (result, _Projections(result))
        return entry[1]

    def __call__(self, a, b) -> bool:
        if len(a.rows) != len(b.rows):
            return False
        narrow, wide = (a, b) if len(a.columns) <= len(b.columns) else (b, a)
        k = len(narrow.columns)
        if k == 0:
            return len(wide.columns) == 0
        narrow_views, wide_views = self._of(narrow), self._of(wide)
        if narrow.order_significant or wide.order_significant:
            return narrow_views.rows in wide_views.sequences[k]
        return narrow_views.multiset in wide_views.multisets[k]


def relaxed_equal_reference(a, b):
    """`RelaxedReference` on one pair."""
    return RelaxedReference()(a, b)
