"""Exact integer row reduction, small and incremental.

Rows are lists of ints.  The basis keeps itself in integer echelon
form: every stored row is primitive (the gcd of its entries is 1) and 0
to the left of its pivot, and the pivots strictly increase.  A row is
reduced by cross-multiplication, a*v - b*row with a/b the pivot ratio
in lowest terms, and the gcd of the result is divided out, so no
rational arithmetic is needed.  A stored row is never rewritten.  Ranks
are read off directly, and the rank of a matrix is the rank of the
basis its rows span.
"""

from __future__ import annotations

from bisect import bisect
from math import gcd


class RowBasis:
    """Incrementally built integer echelon basis of a Q^width subspace."""

    def __init__(self, width: int):
        self.width = width
        self.rows: list[list[int]] = []
        self.pivots: list[int] = []

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, vec) -> list[int]:
        """A primitive integer multiple of the residual of vec modulo the
        current span; 0 in every pivot column.  The rows are taken in
        increasing pivot order, so clearing a pivot never refills an
        earlier one."""
        v = list(vec)
        if len(v) != self.width:
            raise ValueError("vector width mismatch")
        for row, p in zip(self.rows, self.pivots):
            b = v[p]
            if b:
                a = row[p]
                g = gcd(a, b)
                a, b = a // g, b // g
                v = [a * x - b * y for x, y in zip(v, row)]
        g = gcd(*v)
        return [x // g for x in v] if g > 1 else v

    def insert(self, vec) -> bool:
        """Add vec to the span; True iff the rank grew."""
        v = self.reduce(vec)
        pivot = next((k for k, x in enumerate(v) if x), None)
        if pivot is None:
            return False
        at = bisect(self.pivots, pivot)
        self.rows.insert(at, v)
        self.pivots.insert(at, pivot)
        return True


def matrix_rank(rows) -> int:
    """Rank over Q: the rank of the basis the rows span."""
    rows = list(rows)
    basis = RowBasis(len(rows[0]) if rows else 0)
    for row in rows:
        basis.insert(row)
    return basis.rank
