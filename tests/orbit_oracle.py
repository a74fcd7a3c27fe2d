"""The fusion product and the three-factor formula one orbit at a time: the
oracle that the block sweeps of ``heckefuse.exthecke`` are checked against.
With them, the paths of ``heckefuse.exthecke`` that only the tests take: the
triple product of elements and the transport of one class; and the coset
data of ``heckefuse.permcore``, kept there on element indices, as ``Perm``s
with their labels read by ``Perm`` products."""

import itertools

import numpy as np

from heckefuse.cocycle import Cocycle
from heckefuse.exthecke import ExtHeckeElement, _reads, triple_blocks
from heckefuse.permcore import _conj_rows, index_groups
from heckefuse.projrep import (
    add_multiset,
    conjugacy_classes,
    decompose_character,
    irreducibles,
    multiset_dim,
)


def character_on(x, point, meet, by):
    """The character of (x at point) ∘ Ad(by) on meet, in meet's element
    order, read through the map that ``_reads`` gives the fusion sweeps."""
    pair, gamma = x.pair, x.pair.gamma
    (label,), conj = _reads(pair, np.array([pair.group.index_of(point)]), gamma.positions(
        _conj_rows(gamma.images, [by.images])))
    reads = pair.cosets.little_at[label][conj[0, gamma.positions(meet.images)]]
    assert (reads >= 0).all(), "Ad by must carry meet into the little group"
    char = sum(m * cls.character() for cls, m in x.support[pair.labels()[label]].items())
    return char[reads]


def perm_cosets(group, sub):
    """``right_cosets`` as ``Perm``s: the sorted tuple of each right coset,
    in order of minimum, and the number of the coset holding each element."""
    members, number = group.right_cosets(sub)
    els = group.elements
    return (tuple(tuple(els[i] for i in row) for row in members.tolist()),
            dict(zip(els, number.tolist())))


def perm_orbits(group, sub, actor):
    """``coset_orbits`` as ``Perm``s: each orbit the sorted tuple of its
    cosets' minima, orbits in order of minimum."""
    members, els = group.right_cosets(sub)[0], group.elements
    return tuple(tuple(els[i] for i in members[cosets, 0].tolist())
                 for cosets in index_groups(group.coset_orbits(sub, actor)))


def random_coset_element(pair, coset_min):
    """An element of the right coset gamma * coset_min: its minimum, or
    one picked under the pair's rng."""
    cosets, coset_of = perm_cosets(pair.group, pair.gamma)
    return pair.pick(cosets[coset_of[coset_min]])


def orbit_labels(pair, label):
    """(orbit, label of label * m^-1, label of m) per orbit of little(label)
    on the right cosets, as ``Perm``s, with m the orbit's minimum."""
    return [(orbit, pair.label_of(label * orbit[0].inverse()), pair.label_of(orbit[0]))
            for orbit in perm_orbits(pair.group, pair.gamma, pair.little(label))]


def orbits_by_labels(pair):
    """(label, orbit) per orbit of every little group, grouped by the two
    labels of ``orbit_labels``, labels and orbits in order."""
    out = {}
    for g0 in pair.labels():
        for orbit, label_w, label_h in orbit_labels(pair, g0):
            out.setdefault((label_w, label_h), []).append((g0, orbit))
    return out


def induce_on_classes(little_g, meet, chars):
    """Ind from meet to little_g of each row of chars, a character of meet,
    as its value on each class of ``conjugacy_classes(little_g)``.

    Ind chi(g) = |little_g| / (|meet| |C|) sum over m in meet ∩ C of chi(m),
    with C the class of g in little_g (Isaacs, Character Theory of Finite
    Groups, ch. 5).
    """
    _, cls_of, sizes = conjugacy_classes(little_g)
    sums = chars @ (cls_of[little_g.positions(meet.images)][:, None] == np.arange(len(sizes)))
    return sums * (len(little_g) / (len(meet) * sizes))


def induced_classes(little_g, meet, char, dim):
    """decompose(Ind from meet to little_g) of a dim-dimensional character of meet."""
    cls_of = conjugacy_classes(little_g)[1]
    return decompose_character(little_g, Cocycle.trivial(little_g),
                               induce_on_classes(little_g, meet, char[None])[:, cls_of],
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
    product = (character_on(x, w, meet, h)
               * character_on(y, h, meet, pair.group.identity))
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
        for h_orbit, label_w, _ in orbit_labels(pair, g0):
            if label_w not in x.support:
                continue
            h = random_coset_element(pair, pair.pick(h_orbit))
            stab = pair.intersection(little_g, pair.little_of_element(h))
            for k_orbit in perm_orbits(pair.group, pair.gamma, stab):
                k = random_coset_element(pair, pair.pick(k_orbit))
                v = h * k.inverse()
                label_v, label_k = pair.label_of(v), pair.label_of(k)
                if label_v not in y.support or label_k not in z.support:
                    continue
                meet = pair.intersection(stab, pair.little_of_element(k))
                product = (character_on(x, g0 * h.inverse(), meet, h)
                           * character_on(y, v, meet, k)
                           * character_on(z, k, meet, identity))
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
    char = character_on(x, target, little, pair.group.identity)
    parts = decompose_character(little, Cocycle.trivial(little), char, cls.dim)
    if list(parts.values()) != [1]:
        raise ValueError("transport_class takes an irreducible class")
    return next(iter(parts))
