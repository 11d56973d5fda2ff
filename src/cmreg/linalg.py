"""Exact matrix ranks: fraction-free (Bareiss) over the integers and
straightforward elimination over GF(p).  No floating point anywhere.
"""


def rank(rows, characteristic):
    """Rank of an integer matrix over QQ (characteristic 0) or GF(p)."""
    if characteristic == 0:
        return rank_int(rows)
    return rank_mod_p(rows, characteristic)


def rank_int(rows):
    """Rank over QQ of an integer matrix, by fraction-free elimination."""
    m = [list(r) for r in rows]
    if not m or not m[0]:
        return 0
    nrows, ncols = len(m), len(m[0])
    rank = 0
    prev = 1
    row = 0
    for col in range(ncols):
        piv = next((r for r in range(row, nrows) if m[r][col] != 0), None)
        if piv is None:
            continue
        m[row], m[piv] = m[piv], m[row]
        for r in range(row + 1, nrows):
            for c in range(col + 1, ncols):
                m[r][c] = (m[row][col] * m[r][c] - m[r][col] * m[row][c]) // prev
            m[r][col] = 0
        prev = m[row][col]
        rank += 1
        row += 1
        if row == nrows:
            break
    return rank


def rank_mod_p(rows, p):
    """Rank of a matrix over GF(p)."""
    m = [[v % p for v in r] for r in rows]
    if not m or not m[0]:
        return 0
    nrows, ncols = len(m), len(m[0])
    rank = 0
    row = 0
    for col in range(ncols):
        piv = next((r for r in range(row, nrows) if m[r][col] != 0), None)
        if piv is None:
            continue
        m[row], m[piv] = m[piv], m[row]
        inv = pow(m[row][col], -1, p)
        for r in range(row + 1, nrows):
            if m[r][col]:
                f = m[r][col] * inv % p
                m[r] = [(a - f * b) % p for a, b in zip(m[r], m[row])]
        rank += 1
        row += 1
        if row == nrows:
            break
    return rank
