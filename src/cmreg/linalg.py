"""Exact matrix ranks over QQ and GF(p), by one sparse elimination on
integer rows held as {column: value} over non-negative int columns; over
GF(2), on int bitsets by one XOR loop, which also takes the Betti
oracle's rank d_2 off its edge masks.  No floating point anywhere.
"""

from math import gcd

from .fields import normalized


def rank(rows, characteristic, pivot_columns=None):
    """Rank of a sparse integer matrix over QQ (characteristic 0) or GF(p).

    Rows are {column: value} over non-negative int columns (face bitmasks
    or matrix indices), and are never mutated.  If `pivot_columns` is a
    set, the call adds to it the columns at which `_eliminate` kept a pivot
    row, one per unit of rank.
    """
    if characteristic == 0:
        return rank_int(rows, pivot_columns)
    return rank_mod_p(rows, characteristic, pivot_columns)


def rank_int(rows, pivot_columns=None):
    """Rank over QQ of sparse integer rows {column: value}."""
    return _count(_eliminate(rows, 0), pivot_columns)


def rank_mod_p(rows, p, pivot_columns=None):
    """Rank over GF(p) of sparse integer rows {column: value}; over GF(2)
    the rows are reduced as int bitsets, with no normalized pivot rows."""
    return _count(_eliminate(rows, p), pivot_columns)


def _count(columns, pivot_columns):
    if pivot_columns is not None:
        pivot_columns.update(columns)
    return len(columns)


def _eliminate(rows, p):
    """The pivot columns left by eliminating the rows in turn, over GF(p)
    for a prime p and over QQ for p = 0: the largest column of each pivot
    row, so as many columns as the rank.

    A row is reduced at its largest column by the pivot row stored for that
    column, until it is zero or becomes the pivot row of a new column: the
    "lowest one" of persistent-homology reduction (Zomorodian-Carlsson,
    2005).  In a boundary matrix of faces in bitmask order, the largest
    column of a face is the face without its lowest vertex, so two rows
    meet at one pivot only when they differ in that vertex and chains stay
    short; at the smallest column, every face that shares "face without its
    top vertex" would collide, and fill-in would grow.  The rank does not
    depend on the column a row is reduced at.

    A step r <- a*r - c*pivot, with a and c divided by their gcd, stays on
    integers.  Over odd GF(p) values are residues, and a pivot row is the
    canonical multiple of its row, `fields.normalized`.  So a = 1 whenever
    the pivot's lead is 1, and the row is updated in place.

    Over GF(2) a row is one int, bit j set for each odd value at column
    j >= 0, reduced by `_xor_pivots`.  Its pivot rows are the ones above
    mod 2, so the pivot columns are the same.
    """
    if p == 2:
        return _xor_pivots(sum((v & 1) << j for j, v in row.items()) for row in rows)
    pivots = {}
    for row in rows:
        row = {j: w for j, v in row.items() if (w := v % p if p else v)}
        while row:
            col = max(row)
            pivot = pivots.get(col)
            if pivot is None:
                pivots[col] = normalized(row, col, p)
                break
            h = gcd(pivot[col], row[col])
            a, c = pivot[col] // h, row[col] // h
            if a != 1:
                row = {j: a * v for j, v in row.items()}
            for j, v in pivot.items():
                w = row.get(j, 0) - c * v
                if p:
                    w %= p
                if w:
                    row[j] = w
                else:
                    del row[j]
    return pivots.keys()


def _xor_pivots(bitsets):
    """`_eliminate`'s pivot columns over GF(2), of rows given as int
    bitsets: r ^= pivot at the top bit of r, until r is zero or the pivot
    row of a new column (PHAT's columns, Bauer-Kerber-Reininghaus-Wagner)."""
    pivots = {}
    for r in bitsets:
        while r and (col := r.bit_length() - 1) in pivots:
            r ^= pivots[col]
        if r:
            pivots[col] = r
    return pivots.keys()
