"""Multi-index bookkeeping shared by every module.

All jet coordinates, series terms and matrix blocks are enumerated through
the single order implemented here: lower total degree first, ties broken
lexicographically on the exponent tuple.  Because the enumeration is
degree-ascending, the coordinates of degree <= k always form a prefix, which
is what makes the block decompositions of jet matrices line up.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb
from operator import add

from .errors import check_int


def degree(beta):
    return sum(beta)


def mono_key(beta):
    """Sort key for the order: compare (|b|, b1, ..., bn) lexicographically."""
    return (sum(beta),) + tuple(beta)


@lru_cache(maxsize=None, typed=True)
def indices_of_degree(arity, d):
    """The multi-indices of total degree d, ascending lexicographically, as
    a tuple built once per (arity, d) from those of lower arity.  arity is
    an int >= 1 and d an int >= 0, else InputError; the check runs once per
    cache entry, and the cache keys by type, so True never reads the entry
    of 1."""
    check_int(arity, "arity", 1)
    check_int(d, "degree", 0)
    if arity == 1:
        return ((d,),)
    return tuple((i,) + rest for i in range(d + 1)
                 for rest in indices_of_degree(arity - 1, d - i))


@lru_cache(maxsize=None, typed=True)
def indices_up_to(arity, d):
    """All multi-indices of degree <= d, in the shared order, as a tuple
    built once per (arity, d).  arity is an int >= 1 and d any int, the
    tuple empty for d < 0 (a generator whose order passes the degree has
    no multiples there); checked as indices_of_degree is."""
    check_int(arity, "arity", 1)
    check_int(d, "degree", None)
    return tuple(b for deg in range(d + 1)
                 for b in indices_of_degree(arity, deg))


def index_count(arity, d):
    """Number of multi-indices of degree <= d, i.e. comb(arity + d, d): 0 at
    d = -1, the count below degree 0.  arity is an int >= 1 and d an int
    >= -1, else InputError."""
    check_int(arity, "arity", 1)
    check_int(d, "degree", -1)
    if d < 0:
        return 0
    return comb(arity + d, d)


def index_add(beta, gamma):
    return tuple(map(add, beta, gamma))


def dominates(beta, gamma):
    """True when beta >= gamma componentwise (beta lies in gamma's cone)."""
    return all(b >= g for b, g in zip(beta, gamma))

