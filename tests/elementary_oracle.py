"""Moving an elementary object along its double coset by matrices, and the
isomorphism criterion built on it: the oracle that the one-move
identifications of ``heckefuse.elementary`` are checked against; and the
rule that named a constituent before them, the least rounded transferred
character over every move, read as a row over the basis objects."""

from typing import Optional

import numpy as np

from heckefuse import elementary
from heckefuse.cocycle import Cocycle, PhaseFunction
from heckefuse.elementary import ElementaryBimodule, _transfer, is_irreducible
from heckefuse.exthecke import FinitePair
from heckefuse.permcore import Perm
from heckefuse.projrep import Rep, _roots, equivalent, phase_roots, round_char, transport


def twist(a: Rep, phase: PhaseFunction) -> Rep:
    """Multiply by a scalar phase; the cocycle picks up the phase coboundary."""
    if phase.group != a.group:
        raise ValueError("phase lives on a different group")
    return Rep._of(a.group, a.cocycle * phase.coboundary(),
                   phase_roots(phase)[:, None, None] * a.matrices)


def transfer_rep(pair: FinitePair, omega: Cocycle, delta: Perm, rep: Rep,
                 g: Perm, h: Perm) -> Rep:
    """The representation that moves (delta, rep) to (g delta h, . ).

    Build (phase_g o Ad(delta h)) * (rep o Ad h) * phase_h on the right
    subgroup of g delta h, where phase_x is the conjugation phase of omega.
    """
    little, idx, phases = _transfer(pair, omega, delta, rep.group, g, h)
    return twist(transport(rep, little, idx), PhaseFunction(little, omega.modulus, phases))


def isomorphism_witness(h1: ElementaryBimodule,
                        h2: ElementaryBimodule) -> Optional[tuple[Perm, Perm]]:
    """(g, h) with delta2 = g delta1 h carrying rep1 to rep2, if one exists.

    Both objects must be irreducible; absence of a witness means the objects
    are not isomorphic.
    """
    if not (is_irreducible(h1) and is_irreducible(h2)):
        raise ValueError("the isomorphism criterion applies to irreducible objects")
    pair = h1.pair
    if pair.label_of(h1.delta) != pair.label_of(h2.delta):
        return None
    for g, h in pair.decompositions(h1.delta, h2.delta):
        moved = transfer_rep(pair, h1.omega, h1.delta, h1.rep, g, h)
        if equivalent(moved, h2.rep):
            return g, h
    return None


def row_by_row_canonical_terms(pair: FinitePair, omega: Cocycle, delta: Perm,
                               reps: list) -> list[tuple[tuple, int]]:
    """(canonical term, number of least rows) of (delta, rep) for each of
    reps: the transferred character of every decomposition label = g delta c
    rounded by ``round_char``, one row at a time, and the first least one
    kept by ``min``."""
    label = pair.label_of(delta)
    moves = [_transfer(pair, omega, delta, reps[0].group, g, c)[1:]
             for g, c in pair.decompositions(delta, label)]
    out = []
    for rep in reps:
        char = np.asarray(rep.character())
        keys = [round_char(_roots(omega.modulus)[phases] * char[idx]) for idx, phases in moves]
        least = min(keys)
        out.append(((label.images, least), keys.count(least)))
    return out


def term_rows(pair: FinitePair, omega: Cocycle, terms: list) -> np.ndarray:
    """A row over ``elementary.basis_objects`` per canonical term
    (label images, fingerprint): 1 at the basis object at that label whose
    class has that fingerprint."""
    index = {(label.images, cls.char): i
             for i, (label, cls) in enumerate(elementary._basis(pair, omega).classes)}
    rows = np.zeros((len(terms), len(index)), dtype=np.int64)
    for row, term in zip(rows, terms):
        row[index[term]] = 1
    return rows
