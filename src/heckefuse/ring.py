"""Structure-constant tables of the based rings the package computes.

The Hecke algebra of a finite pair, its extended fusion algebra and the
elementary calculus under each ambient cocycle are based rings (Etingof,
Gelaki, Nikshych and Ostrik, *Tensor Categories*, 2015, section 3.1): a
basis with nonnegative integer structure constants T[x, y, z], the
multiplicity of z in the product of x and y, from which the algebra laws of
:mod:`heckefuse.checks` are read.
"""

from __future__ import annotations

import weakref

import numpy as np

from . import projrep


class Table:
    """Structure constants T[x, y, z], one int64 array over a basis whose
    labels each own a span of consecutive indices.

    ``fill(owner, label_pairs, views)`` writes the products of every basis
    element at label a with every one at label b into the zeroed view
    T[span of a, span of b, :] of each (a, b); it is called once per block,
    for the blocks a read reaches.  The table holds its owner weakly, so
    memoized on the owner it does not keep it alive.  The n^3 entries must
    fit in ``projrep.MAX_DENSE_BYTES``, or the constructor raises
    ``GroupTooLarge``; blocks never read are never written.
    """

    def __init__(self, owner, what: str, spans: dict, fill):
        sizes = [span.stop - span.start for span in spans.values()]
        n = sum(sizes)
        projrep.check_dense_size(f"the {what} of {n} basis elements", n ** 3, itemsize=8)
        self.spans = {label: slice(span.start, span.stop) for label, span in spans.items()}
        self._labels = list(spans)
        self._label_of = np.repeat(np.arange(len(sizes)), sizes)
        self._owner, self._fill = weakref.ref(owner), fill
        self._array = np.zeros((n, n, n), dtype=np.int64)
        self._filled = np.zeros(len(sizes) ** 2, dtype=bool)

    def __len__(self) -> int:
        return len(self._array)

    def _reach(self, codes) -> None:
        """Fill the blocks a * (number of labels) + b of codes not filled
        yet, in one call of the fill function."""
        codes = np.unique(np.asarray(codes, dtype=np.intp))
        missing = codes[~self._filled[codes]].tolist()
        if not missing:
            return
        owner = self._owner()
        if owner is None:
            raise ReferenceError("the table's owner is gone: read its blocks while it lives")
        width = len(self._labels)
        label_pairs = [(self._labels[c // width], self._labels[c % width]) for c in missing]
        views = [self._array[self.spans[a], self.spans[b]] for a, b in label_pairs]
        for view in views:
            view[...] = 0  # a fill that raised may have written part of it
        self._fill(owner, label_pairs, views)
        self._filled[missing] = True

    def rows(self, pairs) -> np.ndarray:
        """T[x, y, :] for each pair (x, y) of basis indices, a
        (len(pairs), n) array; fills only the blocks that pairs reach."""
        x, y = np.asarray(pairs, dtype=np.intp).reshape(-1, 2).T
        self._reach(self._label_of[x] * len(self._labels) + self._label_of[y])
        return self._array[x, y]

    def whole(self) -> np.ndarray:
        """The whole table, every block filled, a read-only view."""
        self._reach(np.arange(len(self._filled)))
        view = self._array[...]
        view.flags.writeable = False
        return view

    def product(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """The sum over x, y of a[x] b[y] T[x, y, :], for coefficient
        vectors a and b over the basis, from the rows it reaches."""
        x, y = np.nonzero(np.multiply.outer(a, b))
        return (a[x] * b[y]) @ self.rows(np.stack([x, y], axis=1))
