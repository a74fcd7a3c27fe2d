"""Groups that only the tests build."""

import itertools

from heckefuse.permcore import FiniteGroup, Perm


def symmetric(degree: int) -> FiniteGroup:
    """Sym(degree), through the checked constructor."""
    return FiniteGroup(degree, map(Perm, itertools.permutations(range(degree))))


def cyclic(degree: int) -> FiniteGroup:
    """Z/degree, generated by the shift i -> i + 1 on degree points."""
    shift = Perm([(i + 1) % degree for i in range(degree)])
    return FiniteGroup.generate(degree, [shift])
