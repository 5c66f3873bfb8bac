"""Exact rational row reduction, small and incremental.

Rows are lists of Fractions.  The basis keeps itself fully reduced
(each row scaled to a unit pivot, pivot columns eliminated everywhere
else), so ranks are read off directly and insertion order cannot
change the final span bookkeeping.  Pivot choice prefers entries with
small numerator and denominator bit length to limit coefficient
growth.
"""

from __future__ import annotations

from fractions import Fraction


class RowBasis:
    """Incrementally built reduced row-echelon basis of a Q^width subspace."""

    def __init__(self, width: int):
        self.width = width
        self.rows: list[list[Fraction]] = []
        self.pivots: list[int] = []

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, vec) -> list[Fraction]:
        """Residual of vec modulo the current span."""
        v = [Fraction(x) for x in vec]
        if len(v) != self.width:
            raise ValueError("vector width mismatch")
        for row, p in zip(self.rows, self.pivots):
            if v[p]:
                c = v[p]
                for k in range(self.width):
                    if row[k]:
                        v[k] -= c * row[k]
        return v

    def contains(self, vec) -> bool:
        return not any(self.reduce(vec))

    def insert(self, vec) -> bool:
        """Add vec to the span; True iff the rank grew."""
        v = self.reduce(vec)
        pivot = next((k for k in range(self.width) if v[k]), None)
        if pivot is None:
            return False
        c = v[pivot]
        v = [x / c for x in v]
        for row in self.rows:
            if row[pivot]:
                d = row[pivot]
                for k in range(self.width):
                    if v[k]:
                        row[k] -= d * v[k]
        at = next((idx for idx, p in enumerate(self.pivots) if p > pivot), len(self.pivots))
        self.rows.insert(at, v)
        self.pivots.insert(at, pivot)
        return True


def _bitsize(x: Fraction) -> int:
    return x.numerator.bit_length() + x.denominator.bit_length()


def matrix_rank(rows) -> int:
    """Rank over Q by elimination with small-entry pivoting."""
    work = [[Fraction(x) for x in row] for row in rows if any(row)]
    if not work:
        return 0
    width = len(work[0])
    rank = 0
    col = 0
    while col < width and rank < len(work):
        best = None
        for r in range(rank, len(work)):
            if work[r][col]:
                if best is None or _bitsize(work[r][col]) < _bitsize(work[best][col]):
                    best = r
        if best is None:
            col += 1
            continue
        work[rank], work[best] = work[best], work[rank]
        pivot_row = work[rank]
        c = pivot_row[col]
        for r in range(rank + 1, len(work)):
            if work[r][col]:
                f = work[r][col] / c
                for k in range(col, width):
                    if pivot_row[k]:
                        work[r][k] -= f * pivot_row[k]
        rank += 1
        col += 1
    return rank
