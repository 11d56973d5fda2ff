"""The monomial order and exponent-vector arithmetic.

Monomials are plain tuples of non-negative integers (dense exponent
vectors).  The only order is degree reverse lexicographic, because the
c-invariants are defined for it: compare by total degree first, ties
broken by the LAST nonzero entry of the difference being negative.
"""

from operator import le, neg


def degrevlex_key(exps):
    return (sum(exps), tuple(map(neg, reversed(exps))))


def mono_divides(a, b):
    """True iff x^a divides x^b."""
    return all(map(le, a, b))


def mono_lcm(a, b):
    return tuple(map(max, a, b))


def m_index(a):
    """Largest 1-based variable index with positive exponent; 0 for 1."""
    for i in range(len(a) - 1, -1, -1):
        if a[i] > 0:
            return i + 1
    return 0
