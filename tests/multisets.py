"""Elements of the extended Hecke algebra as multisets, the form the
reference oracles compute in: {label: {irreducible class: multiplicity}},
with the one conversion to and from the basis vectors of
``heckefuse.exthecke``."""

import numpy as np

from heckefuse.exthecke import ExtHeckeElement, basis_classes, basis_size, basis_spans


def multiset_dim(parts):
    return sum(cls.dim * mult for cls, mult in parts.items())


def add_multiset(a, b):
    out = dict(a)
    for cls, mult in b.items():
        out[cls] = out.get(cls, 0) + mult
    return out


def support(x):
    """The multiset of each label where x is nonzero."""
    out = {}
    for (label, cls), mult in zip(basis_classes(x.pair), x.vector.tolist()):
        if mult:
            out.setdefault(label, {})[cls] = mult
    return out


def element(pair, support):
    """The element of a support: each class at its index in its label's
    span.  A key that is no label, or a class of another group than the
    label's little group, raises ``ValueError``."""
    vector = np.zeros(basis_size(pair), dtype=np.int64)
    for label, parts in support.items():
        index, start = pair.class_index(label), basis_spans(pair)[label].start
        for cls, mult in parts.items():
            if cls not in index:
                raise ValueError("class lives on the wrong little group for its label")
            vector[start + index[cls]] += mult
    return ExtHeckeElement(pair, vector)
