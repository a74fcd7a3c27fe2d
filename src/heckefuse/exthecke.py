"""The extended Hecke fusion algebra of a finite pair gamma <= G.

An element assigns to finitely many double cosets a multiset of irreducible
representation classes of the little group attached to the coset's canonical
representative g0 (the subgroup gamma ∩ g0^-1 gamma g0).  Values at other
points of the double coset are never stored; they are derived by transport:
for h = c1 * g0 * c2 with c1, c2 in gamma, the class at h is the class at g0
composed with conjugation by c2.  Representative independence of everything
built this way is a tested property, not an assumption.

The fusion product of x and y at an output label g sums over orbits of the
little group of g on right cosets of gamma in G; the orbit of h contributes
the induction, from little(g) ∩ little(h) up to little(g), of the transported
value of x at g h^-1 (composed with conjugation by h) tensored with the value
of y at h.  Each orbit reads x at one label la and y at one label lb, so the
products of all basis elements at la with all basis elements at lb form one
block of the structure constants N[x, y, z] over the basis
(``structure_constants``, a ``ring.Table``).  Its fill function computes the
blocks of many label pairs in one sweep on element indices: one
representative h per orbit, w = g0 h^-1 and the reads of both factors for
every orbit at once (``_orbit_reads``), the product characters of every
class pair summed per output label and label pair, induced, and decomposed
into irreducible classes in one batched step per output label.  ``fuse`` is
the bilinear contraction of the rows of N over the supports of x and y, so
elements stay canonical and multiplicities exact,
and the algebra-law checks read N.  Summing over all cosets instead of
orbits overcounts each orbit contribution exactly
[little(g) : little(g) ∩ little(h)] times; ``overcount_identity`` verifies
that divisibility on the term of every coset (``overcount_blocks``), and
``triple_blocks`` evaluate the symmetric three-factor formula that
associativity is checked against.  Each is computed in one sweep per call,
like the fusion blocks but independently of them.

Fusion, the triple product, conjugation and transport all work on
characters: transport reads a class's character through the conjugation,
tensor products are pointwise products, induction sums each character over
the conjugacy classes of the bigger group, and conjugation is complex
conjugation.  No representation matrix is built, and no induction coset
representatives are chosen (the character does not depend on them).  The
matrix constructions of :mod:`heckefuse.projrep` stay as the independent
path of elementary fusion and of the tests.
"""

from __future__ import annotations

import itertools
import re
from typing import Optional

import numpy as np

from . import projrep
from .cocycle import Cocycle
from .hecke import FiniteHecke, HeckeElement
from .permcore import (
    DoubleCosetSystem,
    FiniteGroup,
    Memo,
    Perm,
    Subgroup,
    _conj_rows,
    conjugate_intersection,
)
from .projrep import (
    Rep,
    RepClass,
    add_multiset,
    character_table,
    conjugacy_classes,
    decompose,
    decompose_character,
    decompose_stack,
    irreducibles,
    multiset_dim,
    restrict,
)
from .ring import Table


class FusionFormulaError(AssertionError):
    """An exactness property of the fusion formula failed; carries a witness."""


class FinitePair:
    """A finite pair gamma <= group, with its coset data and one cache store.

    ``rng`` (a random.Random) randomizes every representative choice: right
    coset representatives, transport decompositions, fusion orbit
    representatives, and the induction coset representatives of elementary
    fusion, the one path that still induces matrices.  The canonical pair
    (rng=None) makes the lexicographically least choice everywhere.

    The group keeps the right cosets of gamma and the orbits of each little
    group on them.  The pair keeps everything else in ``_memo``, under keys
    tagged by kind: little groups of elements, decompositions and meets of
    little groups (for elementary fusion and the overcount check), the
    orbits of every little group with the labels at which fusion reads its
    factors (``orbits``), the elements c2 of gamma that move each right
    coset onto its label (``right_factors``), the characters of the little
    groups laid out over gamma (``characters_on_gamma``), the maps through
    which conjugation reads characters (``_conjugation_reads``), the index
    of each class in its label's basis keys, the table of structure
    constants N (``structure_constants``) and the ``basis_spans`` it is
    indexed by, and the elementary structure constants with their basis,
    canonical terms, required cocycles and conjugation phases of elementary
    objects over it (filled by :mod:`heckefuse.elementary`).  None of them
    holds the pair, so a dropped pair is freed by reference counting.
    """

    def __init__(self, group: FiniteGroup, gamma: Subgroup, name: str = "",
                 rng=None):
        self.group = group
        self.gamma = gamma
        self.name = name
        self.rng = rng
        self.cosets = DoubleCosetSystem(group, gamma, rng=rng)
        self._hecke = FiniteHecke(group, gamma, self.cosets)
        # a label's little group is its double coset's own object, which
        # carries the index tables built on it
        self._memo = Memo({("little", dc.label): dc.little
                           for dc in self.cosets.cosets})

    def with_choices(self, rng) -> "FinitePair":
        """The same pair with all representative choices drawn from rng; it
        starts with this pair's ``orbits``, ``right_factors``,
        ``characters_on_gamma``, ``basis_spans`` and class indices, which no
        choice changes."""
        pair = FinitePair(self.group, self.gamma, self.name, rng)
        pair._memo.update((key, value) for key, value in self._memo.items() if key[0] in (
            "orbits", "right_factors", "characters", "basis_spans", "class_index"))
        return pair

    def hecke(self) -> FiniteHecke:
        return self._hecke

    def labels(self) -> list[Perm]:
        return self.cosets.labels()

    def label_of(self, g: Perm) -> Perm:
        return self.cosets.label_of(g)

    def little(self, label: Perm) -> Subgroup:
        try:
            return self.cosets.coset(label).little
        except KeyError:
            raise ValueError(
                f"{label!r} is not the label of a double coset") from None

    def class_index(self, label: Perm) -> dict[RepClass, int]:
        """The index of each irreducible class of little(label) in
        ``irreducibles``, the class part of a basis key; memoized."""
        return self._memo.get_or(("class_index", label), lambda: {
            cls: i for i, cls in enumerate(irreducibles(self.little(label)))})

    def little_of_element(self, t: Perm) -> Subgroup:
        return self._memo.get_or(("little", t), conjugate_intersection, self.gamma, t)

    def decomposition(self, label: Perm, target: Perm) -> tuple[Perm, Perm]:
        """(c1, c2) in gamma^2 with target = c1 * label * c2: the first of
        ``decompositions``, or one picked under rng; memoized."""
        return self._memo.get_or(("decomposition", label, target),
                                 self._decomposition, label, target)

    def _decomposition(self, label: Perm, target: Perm) -> tuple[Perm, Perm]:
        found = list(self.decompositions(label, target))
        if not found:
            raise ValueError(
                f"{target.cycle_string()} is not in the double coset of "
                f"{label.cycle_string()}")
        return self.pick(found)

    def decompositions(self, delta: Perm, target: Perm):
        """Every (c1, c2) in gamma^2 with target = c1 * delta * c2, in the
        order of c2 in gamma."""
        gamma = self.gamma
        # c1 = target c2^-1 delta^-1, for every c2 at once
        c2_inv = np.argsort(gamma.images, axis=1)
        rows = np.array(target.images)[c2_inv[:, np.argsort(delta.images)]]
        for c1, c2 in zip(gamma.positions(rows).tolist(), gamma.elements):
            if c1 >= 0:
                yield gamma.elements[c1], c2

    def intersection(self, a: Subgroup, b: Subgroup) -> Subgroup:
        return self._memo.get_or(("meet", a.key(), b.key()), lambda: Subgroup._of(
            a.parent, a.idx[b.positions(a.images) >= 0]))

    def coset_orbits(self, little: Subgroup) -> np.ndarray:
        """The number of the orbit of the little group holding each right
        coset of gamma (``FiniteGroup.coset_orbits``)."""
        return self.group.coset_orbits(self.gamma, little)

    def orbits(self) -> tuple:
        """(g0, start, size, label_w, label_h, cosets) over the orbits of
        every little group on the right cosets, labels in order and each
        one's orbits in order of minimum: the orbit at i is one of
        little(label g0[i]), its cosets are numbered cosets[start[i]:start[i]
        + size[i]], in order, and label_w[i] and label_h[i] number the double
        cosets of g0 m^-1 and m, m its minimum; memoized.

        Both labels are the same for every element of every coset of the
        orbit: g0 x^-1 lies in gamma g0 for x in little(g0).  They are where
        the fusion of x and y reads x and y on that orbit.
        """
        return self._memo.get_or(("orbits",), self._orbits)

    def _orbits(self) -> tuple:
        members, rows = self.group.right_cosets(self.gamma)[0], self.group.images
        orders, counts = [], []
        for dc in self.cosets.cosets:
            orbit = self.coset_orbits(dc.little)
            orders.append(np.argsort(orbit, kind="stable"))
            counts.append(np.bincount(orbit))
        size, cosets = np.concatenate(counts), np.concatenate(orders)
        start = np.cumsum(size) - size
        g0 = np.repeat(np.arange(len(counts)), list(map(len, counts)))
        m = members[cosets[start], 0]
        label_w = self._numbers(_times_inverse(rows[self.cosets.label_idx[g0]], rows[m]))
        return g0, start, size, label_w, self.cosets.number[m], cosets

    def right_factors(self) -> tuple:
        """(start, count, c2): the right coset numbered c (``right_cosets``)
        is gamma label c2 for the elements of gamma at positions
        c2[start[c]:start[c] + count[c]], in order, label its double coset's;
        memoized."""
        return self._memo.get_or(("right_factors",), self._right_factors)

    def _right_factors(self) -> tuple:
        gamma, number = self.gamma, self.group.right_cosets(self.gamma)[1]
        # the right coset of label c2 for every label and every c2 in gamma
        labels = self.group.images[self.cosets.label_idx]
        coset = number[self.group.positions(labels[:, gamma.images])]
        count = np.bincount(coset.ravel(), minlength=len(self.group) // len(gamma))
        return (np.cumsum(count) - count, count,
                np.argsort(coset, axis=None, kind="stable") % len(gamma))

    def _numbers(self, rows: np.ndarray) -> np.ndarray:
        """The number of the double coset of each image row, all elements."""
        return self.cosets.number[self.group.positions(rows)]

    def pick(self, items: list):
        """Orbit-representative choice: canonical minimum, or random under rng."""
        return items[self.draw([len(items)])[0]]

    def draw(self, sizes) -> np.ndarray:
        """An index below each entry of sizes: 0, the canonical choice, or
        one drawn under rng."""
        if self.rng is None:
            return np.zeros(len(sizes), dtype=np.intp)
        return np.array([self.rng.randrange(n) for n in np.asarray(sizes).tolist()],
                        dtype=np.intp)

    def orbit_elements(self, cosets: np.ndarray, start: np.ndarray,
                       size: np.ndarray) -> np.ndarray:
        """The position of one element of each orbit of right cosets, the
        orbit of cosets[start:start + size]: its minimum, or under rng an
        element of a coset of the orbit, the coset and the element drawn."""
        members = self.group.right_cosets(self.gamma)[0]
        picked = cosets[start + self.draw(size)]
        return members[picked, self.draw(np.full(len(picked), members.shape[1]))]


class ExtHeckeElement:
    """Double-coset-supported multisets of representation classes."""

    def __init__(self, pair: FinitePair, support: dict):
        clean = {}
        for label, parts in support.items():
            if not parts:
                continue
            little = pair.little(label)
            for cls, mult in parts.items():
                if not isinstance(mult, int) or mult < 1:
                    raise ValueError("multiplicities must be positive integers")
                if cls.group.key() != little.key():
                    raise ValueError(
                        "class lives on the wrong little group for its label")
                if not cls.cocycle.is_trivial_table():
                    raise ValueError("extended Hecke values carry trivial cocycles")
            clean[label] = dict(parts)
        self._fill(pair, clean)

    @classmethod
    def _of(cls, pair: FinitePair, support: dict) -> "ExtHeckeElement":
        """The element with this support, unchecked: for supports computed
        from checked elements and blocks."""
        el = cls.__new__(cls)
        el._fill(pair, support)
        return el

    def _fill(self, pair: FinitePair, support: dict) -> None:
        self.pair = pair
        self.support = support
        self._key = tuple(sorted(
            (label.images, tuple(sorted((c.key(), m) for c, m in parts.items())))
            for label, parts in support.items()))
        self._hash = hash(self._key)

    def key(self) -> tuple:
        return self._key

    def __eq__(self, other) -> bool:
        return (isinstance(other, ExtHeckeElement)
                and self._key == other._key
                and (self.pair is other.pair
                     or (self.pair.group == other.pair.group
                         and self.pair.gamma == other.pair.gamma)))

    def __hash__(self) -> int:
        return self._hash

    def __add__(self, other: "ExtHeckeElement") -> "ExtHeckeElement":
        out = {label: dict(parts) for label, parts in self.support.items()}
        for label, parts in other.support.items():
            out[label] = add_multiset(out.get(label, {}), parts)
        return ExtHeckeElement(self.pair, out)

    def scale(self, n: int) -> "ExtHeckeElement":
        return ExtHeckeElement(self.pair, {
            label: {c: n * m for c, m in parts.items()}
            for label, parts in self.support.items()})

    def terms(self) -> list[tuple[str, int]]:
        """(basis key "label:class index", multiplicity) per term, in the
        canonical order; the keys are those of ``basis``."""
        hk, out = self.pair.hecke(), []
        for label in sorted(self.support, key=lambda l: l.images):
            index, parts = self.pair.class_index(label), self.support[label]
            for cls in sorted(parts, key=lambda c: c.sort_key()):
                out.append((f"{hk.label_str(label)}:{index[cls]}", parts[cls]))
        return out

    def __str__(self) -> str:
        bits = [f"B[{z}]" if m == 1 else f"{m}*B[{z}]" for z, m in self.terms()]
        return " + ".join(bits) if bits else "0"

    def __repr__(self) -> str:
        return f"ExtHeckeElement({self})"


def unit(pair: FinitePair) -> ExtHeckeElement:
    """The identity: trivial representation of gamma at the unit coset."""
    label = pair.labels()[0]
    little = pair.little(label)
    triv = RepClass(little, Cocycle.trivial(little), 1, np.ones(len(little)))
    return ExtHeckeElement(pair, {label: {triv: 1}})


def from_rep(pair: FinitePair, rep: Rep) -> ExtHeckeElement:
    """Embed a representation of gamma, or the restriction to gamma of a
    representation of a group containing it, supported on the unit coset."""
    label = pair.labels()[0]
    little = pair.little(label)
    if rep.group.key() != little.key():
        rep = restrict(rep, little)
    return ExtHeckeElement(pair, {label: decompose(rep)})


def _reads(pair: FinitePair, p: np.ndarray, conj_b: np.ndarray) -> tuple:
    """Where x at the elements at positions p, composed with Ad(b), reads x
    at their labels, for conj_b the positions in gamma of b t b^-1 for each
    t in gamma, -1 outside it: (the number of the double coset of each
    element, conj).  Row i of conj holds the position in gamma of
    c2 b t (c2 b)^-1 for each t in gamma, -1 outside it, with
    p = c1 label c2 for c1, c2 in gamma: c2 is the first such element of
    gamma, or one drawn under rng.  x at p is (x at label) ∘ Ad(c2), so on
    little(b) the map of row i carries Ad(b) of x at p to x at label.
    """
    dcs, (start, count, c2) = pair.cosets, pair.right_factors()
    coset = pair.group.right_cosets(pair.gamma)[1][p]
    c2 = c2[start[coset] + pair.draw(count[coset])][:, None]
    # gamma is the little group of the identity, the first label
    mul, inv = dcs.cosets[0].little.mul_table(), dcs.cosets[0].little.inv_indices()
    return dcs.number[p], np.where(conj_b >= 0, mul[mul[c2, conj_b], inv[c2]], -1)


def _orbit_reads(pair: FinitePair, a: np.ndarray, h: np.ndarray,
                 around: np.ndarray) -> tuple:
    """For the elements at positions a and h, and masks around over gamma:
    (meets, [the reads of x at a h^-1 through Ad h, those of y at h]),
    meets the masks of around ∩ little(h), the reads as ``_reads`` gives
    them.  For a a label g0 and around little(g0), h an orbit's
    representative, they are what the fusion of x and y reads on the orbit."""
    rows, gamma, n = pair.group.images, pair.gamma, len(pair.gamma)
    at = pair.group.positions(np.concatenate([_times_inverse(rows[a], rows[h]), _conj_rows(
        gamma.images, rows[h]).reshape(-1, pair.group.degree)]))
    w, conj_h = at[:len(h)], at[len(h):].reshape(-1, n)
    # gamma is the right coset numbered 0, the one of the identity
    members, number = pair.group.right_cosets(gamma)
    conj_h = np.where(number[conj_h] == 0, np.searchsorted(members[0], conj_h), -1)
    return around & (conj_h >= 0), [
        _reads(pair, w, conj_h), _reads(pair, h, np.arange(n)[None])]


def _times_inverse(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The image rows of a b^-1 for the rows a and b of two stacks."""
    return a[np.arange(len(a))[:, None], np.argsort(b, axis=1)]


def _tagger(pair: FinitePair, label_tuples: list):
    """The function from columns of double-coset numbers, one per place of
    the tuples, to the index in label_tuples of each row's labels, -1 where
    they are not one of them."""
    index = {tuple(map(pair.cosets.number_of, labels)): i
             for i, labels in enumerate(label_tuples)}
    return lambda *columns: np.array([index.get(key, -1) for key in zip(
        *(column.tolist() for column in columns))], dtype=np.intp)


def _fusion_fill(pair: FinitePair, label_pairs: list, views: list) -> None:
    """The fill function of N: the fusion of every irreducible class at
    label_a with every one at label_b, for each (label_a, label_b) of
    label_pairs, added into its view (n_a, n_b, n) at the span of each
    output label, in one sweep.

    The sweep draws one representative h per orbit of ``orbits`` that reads
    a requested label pair, and reads both factors on the meet
    little(g0) ∩ little(h) (``_orbit_reads``, ``_induced_products``).
    """
    g0, start, size, label_w, label_h, cosets = pair.orbits()
    tag = _tagger(pair, label_pairs)(label_w, label_h)
    at = np.flatnonzero(tag >= 0)
    g0, dcs = g0[at], pair.cosets
    meets, factors = _orbit_reads(pair, dcs.label_idx[g0], pair.orbit_elements(
        cosets, start[at], size[at]), dcs.little_at[g0] >= 0)
    spans = list(basis_spans(pair).values())
    for t, g, mults in _induced_products(pair, tag[at], g0, meets, factors):
        views[t][:, :, spans[g]] += mults


def triple_blocks(pair: FinitePair, label_triples: list) -> list[dict]:
    """Per (label_a, label_b, label_c) of label_triples, the symmetric
    three-factor formula on every class triple at those labels, as a dict
    like a fusion block of arrays (n_a, n_b, n_c, classes of little(g0)),
    all computed in one sweep.

    The (h, k) orbit of little(g0) on pairs of right cosets contributes the
    induction from little(g0) ∩ little(h) ∩ little(k) of
    (x at g0 h^-1 ∘ Ad h) ⊗ (y at h k^-1 ∘ Ad k) ⊗ (z at k).  The sweep
    draws one h per orbit of little(g0) whose first label is requested, and
    one k per orbit of little(g0) ∩ little(h) whose labels, read at its
    minimum, complete a requested triple (``_induced_products``).
    """
    if not label_triples:
        return []
    wanted = {labels: {} for labels in label_triples}
    triples, rows, dcs = list(wanted), pair.group.images, pair.cosets
    tags = _tagger(pair, triples)
    g0, start, size, label_w, _, cosets = pair.orbits()
    first_label = np.zeros(len(dcs), dtype=bool)
    first_label[[dcs.number_of(labels[0]) for labels in triples]] = True
    at = np.flatnonzero(first_label[label_w])
    g0, h = g0[at], pair.orbit_elements(cosets, start[at], size[at])
    stabs, (first, _) = _orbit_reads(pair, dcs.label_idx[g0], h, dcs.little_at[g0] >= 0)
    # the k-orbits of every distinct stabilizer, numbered on from the last's
    distinct: dict[bytes, int] = {}
    stab_of = np.array([distinct.setdefault(stab.tobytes(), len(distinct))
                        for stab in stabs], dtype=np.intp)
    members, number, count = pair.group.right_cosets(pair.gamma)[0], [], []
    for mask in stabs[np.unique(stab_of, return_index=True)[1]]:
        orbit = pair.coset_orbits(Subgroup._of(pair.group, pair.gamma.idx[mask]))
        number.append(orbit + sum(count))
        count.append(orbit.max() + 1)
    number, count = np.concatenate(number), np.array(count)
    k_cosets, k_size = np.argsort(number, kind="stable") % len(members), np.bincount(number)
    k_start = np.cumsum(k_size) - k_size
    # every h with every k-orbit of its stabilizer, whose two labels are
    # constant on it: read them at its minimum m
    per, base = count[stab_of], (np.cumsum(count) - count)[stab_of]
    i = np.repeat(np.arange(len(h)), per)
    o = base[i] + np.arange(len(i)) - np.repeat(np.cumsum(per) - per, per)
    m = members[k_cosets[k_start[o]], 0]
    tag = tags(label_w[at[i]], pair._numbers(_times_inverse(rows[h[i]], rows[m])),
               dcs.number[m])
    keep = np.flatnonzero(tag >= 0)
    i, tag = i[keep], tag[keep]
    k = pair.orbit_elements(k_cosets, k_start[o[keep]], k_size[o[keep]])
    meets, (second, third) = _orbit_reads(pair, h[i], k, stabs[i])
    labels = pair.labels()
    for t, g, mults in _induced_products(pair, tag, g0[i], meets, [
            (first[0][i], first[1][i]), second, third]):
        wanted[triples[t]][labels[g]] = mults
    return [wanted[labels] for labels in label_triples]


def _induced_products(pair: FinitePair, tags: np.ndarray, g0: np.ndarray,
                      meets: np.ndarray, factors: list):
    """Per distinct (tag, g0) of the entries, (tag, g0, mults): mults[i, j,
    ..., z] the multiplicity of irreducible z of little(g0) in the sum, over
    the entries so tagged, of Ind from the entry's meet (a mask over gamma)
    of the product of class i at the first factor's label, class j at the
    second's, ..., each read through its factor's map (``_reads``).  The
    entries of one tag read the same labels.

    The class products of all entries are formed at once on the characters
    of ``characters_on_gamma``, padded to the most classes, in chunks of
    about 2^20 values, summed per (tag, g0), induced and decomposed, all
    (tag, g0) together in one ``decompose_stack`` call per chunk of
    ``projrep.MAX_DENSE_BYTES``.
    """
    if not len(tags):
        return
    dcs, n = pair.cosets, len(pair.gamma)
    chars_at, dims_at, induce_at = characters_on_gamma(pair)
    width = dims_at.shape[1]
    for labels, conj in factors:
        outside = meets & ((conj < 0) | (dcs.little_at[labels[:, None], conj] < 0))
        if outside.any():
            label = dcs.cosets[labels[np.argmax(outside.any(axis=1))]].label
            raise FusionFormulaError(
                f"a read at {label.cycle_string()} leaves its little group")
    # the entries in order of (g0, tag): a group per (g0, tag), from starts
    code = g0 * (tags.max() + 1) + tags
    order = np.argsort(code, kind="stable")
    code = code[order]
    starts = np.concatenate([[True], code[1:] != code[:-1]])
    group, first = np.cumsum(starts) - 1, order[starts]
    # the 1 / |meet| of induction goes into each entry's weight
    weights = meets / meets.sum(axis=1, keepdims=True)
    sums = np.zeros((len(first), width ** len(factors), n), dtype=complex)
    step = max(1, (1 << 20) // sums[0].size)  # entries per chunk
    for start in range(0, len(order), step):
        rows = order[start:start + step]
        product = weights[rows][:, None]
        for labels, conj in factors:
            read = chars_at[labels[rows][:, None, None], np.arange(width)[:, None],
                            conj[rows][:, None]]
            product = (product[:, :, None] * read[:, None]).reshape(len(rows), -1, n)
        at = starts[start:start + step].copy()
        at[0] = True  # a chunk may start inside a group
        at = np.flatnonzero(at)
        sums[group[start + at]] += np.add.reduceat(product, at, axis=0)
    # each product's dimension, times the sum of |little(g0)| / |meet|
    g0 = g0[first]
    size = (dcs.little_at[g0] >= 0).sum(axis=1)
    dims = np.rint(np.bincount(group, weights=1 / meets[order].sum(axis=1)) * size)
    dims = dims.astype(np.int64)[:, None]
    ncls = (dims_at > 0).sum(axis=1)
    for labels, _ in factors:
        dims = (dims[:, :, None] * dims_at[labels[first]][:, None]).reshape(len(first), -1)
    shapes = [tuple(map(slice, shape)) for shape in zip(
        *(ncls[labels[first]].tolist() for labels, _ in factors), ncls[g0].tolist())]
    tags, labels = tags[first].tolist(), g0.tolist()
    step = max(1, projrep.MAX_DENSE_BYTES // (16 * n * max(n, sums.shape[1])))
    for start in range(0, len(first), step):  # (tag, g0) per chunk
        at = slice(start, start + step)
        mults = decompose_stack(sums[at] @ induce_at[g0[at]], dims[at],
                                chars_at[g0[at]], dims_at[g0[at]], size[at])
        for a, block in zip(range(start, start + len(mults)), mults):
            yield tags[a], labels[a], block.reshape((width,) * (len(factors) + 1))[shapes[a]]


def fuse(x: ExtHeckeElement, y: ExtHeckeElement) -> ExtHeckeElement:
    """The fusion product: the bilinear contraction of the rows of N that
    the supports of x and y reach."""
    pair = x.pair
    if y.pair is not pair and (y.pair.group != pair.group
                               or y.pair.gamma != pair.gamma):
        raise ValueError("elements live over different pairs")
    total = structure_constants(pair).product(basis_vector(x), basis_vector(y))
    support = {}
    for label, span in basis_spans(pair).items():
        parts = {cls: m for cls, m in zip(irreducibles(pair.little(label)),
                                          total[span].tolist()) if m}
        if parts:
            support[label] = parts
    return ExtHeckeElement._of(pair, support)


def overcount_blocks(pair: FinitePair, label_pairs: list) -> list[list]:
    """Per (label_a, label_b) of label_pairs, (g0, cosets) per orbit of
    ``orbits`` that reads them: cosets maps each coset of the orbit, by its
    minimum h and in orbit order, to the int array
    (n_a, n_b, classes of little(g0)) of its fusion term, read at g0 h^-1
    and h.  All are computed in one sweep, which checks that every coset
    reads the orbit's two labels and that the orbit's size is the index
    [little(g0) : little(g0) ∩ little(h)] at each of its cosets."""
    g0, start, size, label_w, label_h, cosets = pair.orbits()
    tag = _tagger(pair, label_pairs)(label_w, label_h)
    at = np.flatnonzero(tag >= 0)
    # every coset of every orbit at, by its minimum, in orbit order
    orbit = np.repeat(at, size[at])
    first = np.repeat(np.cumsum(size[at]) - size[at], size[at])
    h = pair.group.right_cosets(pair.gamma)[0][
        cosets[start[orbit] + np.arange(len(orbit)) - first], 0]
    around = pair.cosets.little_at[g0[orbit]] >= 0
    meets, factors = _orbit_reads(pair, pair.cosets.label_idx[g0[orbit]], h, around)
    moved = (factors[0][0] != label_w[orbit]) | (factors[1][0] != label_h[orbit])
    index = around.sum(axis=1) // meets.sum(axis=1)
    els, labels = pair.group.elements, pair.labels()
    bad = moved | (index != size[orbit])
    if bad.any():
        i = np.argmax(bad)
        what = ("support is not orbit-invariant" if moved[i]
                else f"orbit size {size[orbit[i]]} != index {index[i]}")
        raise FusionFormulaError(f"orbit of {els[h[i]].cycle_string()} at label "
                                 f"{labels[g0[orbit[i]]].cycle_string()}: {what}")
    out, terms = [[] for _ in label_pairs], []
    for o, hs in zip(at.tolist(), np.split(h, np.cumsum(size[at])[:-1])):
        block = dict.fromkeys(els[x] for x in hs.tolist())
        out[tag[o]].append((labels[g0[o]], block))
        terms += [(block, els[x]) for x in hs.tolist()]
    for t, _, mults in _induced_products(pair, np.arange(len(h)), g0[orbit], meets, factors):
        block, key = terms[t]
        block[key] = mults
    return out


def overcount_identity(pair: FinitePair) -> None:
    """Re-derive the fusion by summing over all cosets; check exact
    divisibility, on the per-coset blocks of every label pair at once.

    Every coset of an orbit must read the orbit's labels, and the orbit
    size must be the index [little(g) : little(g) ∩ little(h)] (both
    checked by ``overcount_blocks``); the full sum must be exactly that
    index times the orbit representative's contribution, so divisible by
    it.  The identity is bilinear, so the blocks of basis elements cover
    every pair of elements.  Any failure is a fusion-formula implementation
    bug."""
    label_pairs = list(itertools.product(pair.labels(), repeat=2))
    for block in overcount_blocks(pair, label_pairs):
        for g0, cosets in block:
            terms = np.stack(list(cosets.values()))  # in orbit order
            if (terms.sum(axis=0) != len(terms) * terms[0]).any():
                raise FusionFormulaError(
                    f"orbit total at {g0.cycle_string()} is not the index "
                    f"{len(terms)} times the representative contribution")


def conjugate(x: ExtHeckeElement) -> ExtHeckeElement:
    """Support is inverted; the value at g becomes the conjugate of
    (value at g^-1) composed with Ad g.

    The defining axioms fix conjugation only up to these domain constraints;
    this formula is validated by the involutivity and reciprocity tests.
    """
    pair, out = x.pair, {}
    new, reads = _conjugation_reads(pair)
    for label, parts in x.support.items():
        k = pair.cosets.number_of(label)
        new_label = pair.labels()[new[k]]
        little_new = pair.little(new_label)
        char = np.conj(sum(m * cls.character() for cls, m in parts.items())[reads[k]])
        out[new_label] = add_multiset(out.get(new_label, {}), decompose_character(
            little_new, Cocycle.trivial(little_new), char, multiset_dim(parts)))
    return ExtHeckeElement._of(pair, out)


def _conjugation_reads(pair: FinitePair) -> tuple:
    """(new, reads): per label number k, the number new[k] of the double
    coset of label_k^-1, and the map reads[k] through which conjugation
    reads a value at label k: with N that coset's label, N^-1 lies in the
    double coset of label k, and reads[k] holds the position in little(label
    k) of c2 N t (c2 N)^-1 for each t in little(N), as ``_reads`` gives it;
    memoized."""
    return pair._memo.get_or(("conjugation",), _conjugation, pair)


def _conjugation(pair: FinitePair) -> tuple:
    dcs, gamma, rows = pair.cosets, pair.gamma, pair.group.images
    new = pair._numbers(np.argsort(rows[dcs.label_idx], axis=1))
    by = rows[dcs.label_idx[new]]
    _, conj = _reads(pair, pair.group.positions(np.argsort(by, axis=1)),
                     gamma.positions(_conj_rows(gamma.images, by)))
    reads = [dcs.little_at[k][conj[k][dcs.little_at[n] >= 0]]
             for k, n in enumerate(new.tolist())]
    if any((read < 0).any() for read in reads):
        raise FusionFormulaError("conjugation reads outside a little group")
    return new, reads


def to_hecke(x: ExtHeckeElement) -> HeckeElement:
    """Forget representations to their dimensions."""
    bk = x.pair.hecke()
    coeffs = {label: multiset_dim(parts) for label, parts in x.support.items()}
    return HeckeElement(bk, coeffs)


def dims(x: ExtHeckeElement) -> tuple[int, int]:
    """(left, right) dimensions: sum over labels of coset count times value dim."""
    left = right = 0
    for label, parts in x.support.items():
        dc = x.pair.cosets.coset(label)
        d = multiset_dim(parts)
        left += dc.left_count * d
        right += dc.right_count * d
    return left, right


def basis(pair: FinitePair) -> list[tuple[str, ExtHeckeElement]]:
    """All (double coset, irreducible class) generators, canonically ordered."""
    hk = pair.hecke()
    out = []
    for label in pair.labels():
        name = hk.label_str(label)
        for i, cls in enumerate(irreducibles(pair.little(label))):
            out.append((f"{name}:{i}", ExtHeckeElement._of(pair, {label: {cls: 1}})))
    return out


def characters_on_gamma(pair: FinitePair) -> tuple:
    """(chars, dims, induce), the irreducible characters of the little
    groups laid out over gamma for the fusion sweeps; memoized.

    chars[k, i, t] is the character of class i of ``irreducibles`` of the
    little group of label k at element t of gamma, zero outside that group
    and beyond its classes, and dims[k, i] the class's dimension, zero
    beyond.  A character chi of a subgroup M of little group L of label k,
    weighted by 1 / |M| and zero off M, times induce[k] is Ind from M to L
    of chi, laid out the same way: Ind chi(g) = |L| / (|M| |C|) sum over m
    in M ∩ C of chi(m), with C the class of g in L (Isaacs, Character
    Theory of Finite Groups, ch. 5).
    """
    return pair._memo.get_or(("characters",), _characters_on_gamma, pair)


def _characters_on_gamma(pair: FinitePair) -> tuple:
    dcs, n = pair.cosets, len(pair.gamma)
    tables = [character_table(dc.little, Cocycle.trivial(dc.little)) for dc in dcs.cosets]
    width = max(len(dims) for _, dims in tables)
    chars = np.zeros((len(tables), width, n), dtype=complex)
    dims = np.zeros((len(tables), width), dtype=np.int64)
    induce = np.zeros((len(tables), n, n))
    for k, (dc, (chars_k, dims_k)) in enumerate(zip(dcs.cosets, tables)):
        inside = dcs.little_at[k] >= 0
        chars[k, :len(dims_k), inside] = chars_k.T
        dims[k, :len(dims_k)] = dims_k
        _, cls_of, sizes = conjugacy_classes(dc.little)
        induce[k][np.ix_(inside, inside)] = (cls_of[:, None] == cls_of) * (
            len(dc.little) / sizes[cls_of])
    return chars, dims, induce


def basis_spans(pair: FinitePair) -> dict[Perm, slice]:
    """The positions in ``basis`` of each label's elements; memoized."""
    return pair._memo.get_or(("basis_spans",), _basis_spans, pair)


def _basis_spans(pair: FinitePair) -> dict[Perm, slice]:
    out, start = {}, 0
    for label in pair.labels():
        stop = start + len(irreducibles(pair.little(label)))
        out[label], start = slice(start, stop), stop
    return out


def basis_vector(x: ExtHeckeElement) -> np.ndarray:
    """The multiplicities of x over ``basis``, an int64 vector."""
    spans = basis_spans(x.pair)
    out = np.zeros(next(reversed(spans.values())).stop, dtype=np.int64)
    for label, parts in x.support.items():
        index, start = x.pair.class_index(label), spans[label].start
        for cls, mult in parts.items():
            out[start + index[cls]] = mult
    return out


def structure_constants(pair: FinitePair) -> Table:
    """N[x, y, z], the multiplicity of basis element z in the fusion of
    basis elements x and y, in ``basis`` order: the table of the extended
    fusion algebra, filled by the fusion sweep; memoized on the pair."""
    return pair._memo.get_or(("ring",), lambda: Table(
        pair, "structure constants", basis_spans(pair), _fusion_fill))


def crossed_dim_identity(pair: FinitePair) -> tuple[int, int]:
    """(|gamma\\G| * |gamma|,  sum over labels of right_count^2 * |little|)."""
    lhs = len(pair.group.right_cosets(pair.gamma)[0]) * len(pair.gamma)
    rhs = sum(dc.right_count ** 2 * len(dc.little) for dc in pair.cosets.cosets)
    return lhs, rhs


def parse_ext_element(pair: FinitePair, text: str) -> ExtHeckeElement:
    """Sums of integer multiples of basis descriptors: "B[K:0] + 2*B[e:1]"."""
    out: Optional[ExtHeckeElement] = None
    for term in text.split("+"):
        term = term.strip()
        m = re.fullmatch(r"(?:(\d+)\s*\*\s*)?B\[([^\]:]+):(\d+)\]", term)
        if not m:
            raise ValueError(f"cannot parse basis term {term!r}")
        mult = int(m.group(1)) if m.group(1) else 1
        label = pair.hecke().parse_label(m.group(2))
        classes = irreducibles(pair.little(label))
        idx = int(m.group(3))
        if idx >= len(classes):
            raise ValueError(f"class index {idx} out of range for {m.group(2)}")
        el = ExtHeckeElement(pair, {label: {classes[idx]: mult}})
        out = el if out is None else out + el
    if out is None:
        raise ValueError("empty element")
    return out
