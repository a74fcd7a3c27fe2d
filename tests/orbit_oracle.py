"""The fusion product and the three-factor formula one orbit at a time: the
oracle that the block sweeps of ``heckefuse.exthecke`` are checked against.
With them, the paths of ``heckefuse.exthecke`` that only the tests take: the
triple product of elements and the transport of one class."""

import itertools

import numpy as np

from heckefuse.cocycle import Cocycle
from heckefuse.exthecke import (
    ExtHeckeElement,
    _character_on,
    _induce,
    triple_blocks,
)
from heckefuse.projrep import (
    add_multiset,
    conjugacy_classes,
    decompose_character,
    irreducibles,
    multiset_dim,
)


def induced_classes(little_g, meet, char, dim):
    """decompose(Ind from meet to little_g) of a dim-dimensional character of meet."""
    cls_of = conjugacy_classes(little_g)[1]
    return decompose_character(little_g, Cocycle.trivial(little_g),
                               _induce(little_g, meet, char[None])[:, cls_of],
                               dim * (len(little_g) // len(meet)))


def orbit_contribution(pair, x, y, g0, h):
    """decompose(Ind from little(g0) ∩ little(h) of (x at g0 h^-1 ∘ Ad h) ⊗
    (y at h)), or None where x or y is zero at those points."""
    w = g0 * h.inverse()
    label_w, label_h = pair.label_of(w), pair.label_of(h)
    if label_w not in x.support or label_h not in y.support:
        return None
    little_g = pair.little(g0)
    meet = pair.intersection(little_g, pair.little_of_element(h))
    product = (_character_on(x, w, meet, h)
               * _character_on(y, h, meet, pair.group.identity))
    dim = multiset_dim(x.support[label_w]) * multiset_dim(y.support[label_h])
    return induced_classes(little_g, meet, product, dim)


def orbit_triple_fuse(x, y, z):
    """The symmetric three-factor formula one (h, k) orbit at a time: the
    orbits of little(g0) on h, and for each h those of little(g0) ∩
    little(h) on k, each with its own induction and decomposition."""
    pair, identity = x.pair, x.pair.group.identity
    out = {}
    for g0 in pair.labels():
        little_g, total = pair.little(g0), {}
        for h_orbit, label_w, _ in pair.orbit_labels(g0):
            if label_w not in x.support:
                continue
            h = pair.random_coset_element(pair.pick(h_orbit))
            stab = pair.intersection(little_g, pair.little_of_element(h))
            for k_orbit in pair.coset_orbits(stab):
                k = pair.random_coset_element(pair.pick(k_orbit))
                v = h * k.inverse()
                label_v, label_k = pair.label_of(v), pair.label_of(k)
                if label_v not in y.support or label_k not in z.support:
                    continue
                meet = pair.intersection(stab, pair.little_of_element(k))
                product = (_character_on(x, g0 * h.inverse(), meet, h)
                           * _character_on(y, v, meet, k)
                           * _character_on(z, k, meet, identity))
                dim = (multiset_dim(x.support[label_w]) * multiset_dim(y.support[label_v])
                       * multiset_dim(z.support[label_k]))
                total = add_multiset(total, induced_classes(little_g, meet, product, dim))
        if total:
            out[g0] = total
    return ExtHeckeElement(pair, out)


def coefficients(pair, label, parts):
    """The multiplicities of parts as a vector over ``irreducibles`` at label."""
    index = pair.class_index(label)
    out = np.zeros(len(index), dtype=np.int64)
    for cls, mult in parts.items():
        out[index[cls]] = mult
    return out


def contract(pair, factors, blocks_of):
    """The multilinear contraction of blocks_of(pair, label tuples), the
    blocks of every tuple of labels of the supports of factors, with the
    factors' multiplicities."""
    supports = [factor.support for factor in factors]
    blocks = blocks_of(pair, list(itertools.product(*supports)))
    coeffs = itertools.product(*([coefficients(pair, label, parts)
                                  for label, parts in support.items()]
                                 for support in supports))
    axes = "ijk"[:len(factors)]
    contraction = f"{','.join(axes)},{axes}z->z"
    totals = {}
    for coeff, block in zip(coeffs, blocks):
        for g0, mults in block.items():
            mults = np.einsum(contraction, *coeff, mults)
            totals[g0] = totals[g0] + mults if g0 in totals else mults
    return ExtHeckeElement._of(pair, {
        g0: {cls: m for cls, m in zip(irreducibles(pair.little(g0)), totals[g0].tolist())
             if m} for g0 in pair.labels() if g0 in totals})


def triple_fuse(x, y, z):
    """The symmetric three-factor formula, the trilinear contraction of the
    ``triple_blocks`` of the label triples of the supports of x, y and z."""
    return contract(x.pair, [x, y, z], triple_blocks)


def transport_class(pair, label, cls, target):
    """The class over little(target) induced by equivariance from (label, cls)."""
    x = ExtHeckeElement(pair, {label: {cls: 1}})
    if pair.label_of(target) != label:
        raise ValueError(
            f"{target.cycle_string()} is not in the double coset of "
            f"{label.cycle_string()}")
    little = pair.little_of_element(target)
    char = _character_on(x, target, little, pair.group.identity)
    parts = decompose_character(little, Cocycle.trivial(little), char, cls.dim)
    if list(parts.values()) != [1]:
        raise ValueError("transport_class takes an irreducible class")
    return next(iter(parts))
