"""Groups that only the tests build."""

import itertools

from heckefuse.permcore import FiniteGroup, Perm


def symmetric(degree: int) -> FiniteGroup:
    """Sym(degree), through the checked constructor."""
    return FiniteGroup(degree, map(Perm, itertools.permutations(range(degree))))
