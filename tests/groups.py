"""Groups that only the tests build, and the subgroup lattice by spans."""

import itertools

import numpy as np

from heckefuse.permcore import FiniteGroup, Perm, Subgroup


def symmetric(degree: int) -> FiniteGroup:
    """Sym(degree), through the checked constructor."""
    return FiniteGroup(degree, map(Perm, itertools.permutations(range(degree))))


def cyclic(degree: int) -> FiniteGroup:
    """Z/degree, generated by the shift i -> i + 1 on degree points."""
    shift = Perm([(i + 1) % degree for i in range(degree)])
    return FiniteGroup.generate(degree, [shift])


def span_subgroups(group: FiniteGroup) -> list[Subgroup]:
    """All subgroups, sorted like ``FiniteGroup.subgroups``: the fixpoint of
    joins with cyclic subgroups, each join closing from scratch, by
    ``span``, a registered subgroup's generators and one more element."""
    seen, queue = set(), []

    def register(gens: list[int]) -> None:
        idx = group.span([group.elements[i] for i in gens])
        if idx.tobytes() not in seen:
            seen.add(idx.tobytes())
            queue.append((idx, gens))

    for gens in [[]] + [[i] for i in range(len(group))]:
        register(gens)
    cyclic = [gens[0] for _, gens in queue[1:]]
    for idx, gens in queue:  # grows while iterating: every join is tried
        for c in np.setdiff1d(cyclic, idx, assume_unique=True).tolist():
            register(gens + [c])
    return sorted((Subgroup._of(group, idx) for idx, _ in queue),
                  key=lambda h: (len(h), h.key()))
