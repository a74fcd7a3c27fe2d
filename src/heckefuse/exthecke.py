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
blocks of many label pairs in one sweep: one representative h per orbit, the
product characters of every class pair, induced per output label and meet,
and decomposed into irreducible classes in one batched step per output
label.  ``fuse`` is the bilinear contraction of the rows of N over the
supports of x and y, so elements stay canonical and multiplicities exact,
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
    conj_maps,
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
    decompose_characters,
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
    tagged by kind: little groups of elements, decompositions, meets of
    little groups, the double cosets each orbit reads (``orbit_labels``) and
    the orbits grouped by them (``orbits_by_labels``), the index arrays
    through which characters are read at a point (``_read_key``: keyed by
    label, total conjugator and meet), the index of each class in its
    label's basis keys, the table of structure constants N
    (``structure_constants``) and the ``basis_spans`` it is indexed by, and
    the elementary structure constants with their basis, canonical terms,
    required cocycles and conjugation phases of elementary objects over it
    (filled by :mod:`heckefuse.elementary`).  None of them holds the pair,
    so a dropped pair is freed by reference counting.
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
        """The same pair with all representative choices drawn from rng."""
        return FinitePair(self.group, self.gamma, self.name, rng)

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

    def coset_orbits(self, little: Subgroup) -> tuple:
        """Orbits of the little group on right cosets (as coset-min tuples)."""
        return self.group.coset_orbits(self.gamma, little)

    def orbit_labels(self, label: Perm) -> list[tuple[tuple, Perm, Perm]]:
        """(orbit, label of label * m^-1, label of m) per orbit of little(label),
        with m the orbit's minimum.

        Both labels are the same for every element of every coset of the
        orbit: label * x^-1 lies in gamma * label for x in little(label).
        They are where the fusion of x and y reads x and y on that orbit.
        """
        return self._memo.get_or(("orbit_labels", label), lambda: [
            (orbit, self.label_of(label * orbit[0].inverse()),
             self.label_of(orbit[0]))
            for orbit in self.coset_orbits(self.little(label))])

    def orbits_by_labels(self) -> dict[tuple[Perm, Perm], list[tuple[Perm, tuple]]]:
        """(label, orbit) per orbit of every little group, grouped by the two
        labels of ``orbit_labels`` at which fusion reads its factors;
        memoized."""
        return self._memo.get_or(("orbits_by_labels",), self._orbits_by_labels)

    def _orbits_by_labels(self) -> dict:
        out: dict[tuple[Perm, Perm], list] = {}
        for g0 in self.labels():
            for orbit, label_w, label_h in self.orbit_labels(g0):
                out.setdefault((label_w, label_h), []).append((g0, orbit))
        return out

    def pick(self, items: list):
        """Orbit-representative choice: canonical minimum, or random under rng."""
        if self.rng is None:
            return items[0]
        return items[self.rng.randrange(len(items))]

    def random_coset_element(self, coset_min: Perm) -> Perm:
        """An element of the right coset gamma * coset_min: its minimum, or
        one picked under rng."""
        cosets, coset_of = self.group.right_cosets(self.gamma)
        return self.pick(cosets[coset_of[coset_min]])


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


def _character_on(x: ExtHeckeElement, point: Perm, meet: Subgroup,
                  by: Perm) -> np.ndarray:
    """The character of (x at point) ∘ Ad(by) on meet, in meet's element order."""
    key = _read_key(x.pair, point, meet, by)
    reads = x.pair._memo.get_or(key, lambda: _conj_reads(x.pair, [key])[0])
    char = sum(m * cls.character() for cls, m in x.support[key[1]].items())
    return char[reads]


def _read_key(pair: FinitePair, point: Perm, meet: Subgroup, by: Perm) -> tuple:
    """("reads", label, c2 by, meet) with point = c1 * label * c2: x at
    point is (x at label) ∘ Ad(c2), so x at point composed with Ad(by)
    reads x at label through the map of this key."""
    label = pair.label_of(point)
    if point != label:
        by = pair.decomposition(label, point)[1] * by
    return ("reads", label, by, meet)


def _conj_reads(pair: FinitePair, keys: list) -> list[np.ndarray]:
    """Per key ("reads", label, x, meet), the positions in little(label) of
    x t x^-1 for t in meet, the maps of each (label, meet) from one
    ``conj_maps``; the pair memoizes them under their keys."""
    rows: dict[tuple, list] = {}
    for _, label, x, meet in keys:
        rows.setdefault((label, meet), []).append(x.images)
    maps = {(label, meet): iter(conj_maps(meet, xs, pair.little(label)))
            for (label, meet), xs in rows.items()}
    return [next(maps[label, meet]) for _, label, _, meet in keys]


def _induce(little_g: Subgroup, meet: Subgroup, chars: np.ndarray) -> np.ndarray:
    """Ind from meet to little_g of each row of chars, a character of meet,
    as its value on each class of ``conjugacy_classes(little_g)``.

    Ind chi(g) = |little_g| / (|meet| |C|) sum over m in meet ∩ C of chi(m),
    with C the class of g in little_g (Isaacs, Character Theory of Finite
    Groups, ch. 5).
    """
    _, cls_of, sizes = conjugacy_classes(little_g)
    at = cls_of[little_g.positions(meet.images)]
    sums = chars @ (at[:, None] == np.arange(len(sizes)))
    return sums * (len(little_g) / (len(meet) * sizes))


def _fusion_fill(pair: FinitePair, label_pairs: list, views: list) -> None:
    """The fill function of N: the fusion of every irreducible class at
    label_a with every one at label_b, for each (label_a, label_b) of
    label_pairs, added into its view (n_a, n_b, n) at the span of each
    output label, in one sweep.

    The sweep draws one representative h per orbit, label pairs in order and
    orbits in ``orbits_by_labels`` order, and reads both factors on the meet
    little(g0) ∩ little(h) (``_induced_products``).
    """
    identity, grouped, spans = pair.group.identity, pair.orbits_by_labels(), basis_spans(pair)
    entries = []
    for (label_a, label_b), view in zip(label_pairs, views):
        for g0, orbit in grouped.get((label_a, label_b), ()):
            h = pair.random_coset_element(pair.pick(orbit))
            meet = pair.intersection(pair.little(g0), pair.little_of_element(h))
            entries.append(((view, spans[g0]), g0, meet, [
                _read_key(pair, g0 * h.inverse(), meet, h),
                _read_key(pair, h, meet, identity)]))
    for (view, span), mults in _induced_products(pair, entries):
        view[:, :, span] += mults


def triple_blocks(pair: FinitePair, label_triples: list) -> list[dict]:
    """Per (label_a, label_b, label_c) of label_triples, the symmetric
    three-factor formula on every class triple at those labels, as a dict
    like a fusion block of arrays (n_a, n_b, n_c, classes of little(g0)),
    all computed in one sweep.

    The (h, k) orbit of little(g0) on pairs of right cosets contributes the
    induction from little(g0) ∩ little(h) ∩ little(k) of
    (x at g0 h^-1 ∘ Ad h) ⊗ (y at h k^-1 ∘ Ad k) ⊗ (z at k).  The sweep
    draws one h per orbit of little(g0) and one k per orbit of
    little(g0) ∩ little(h), each once (``_induced_products``).
    """
    identity = pair.group.identity
    wanted = {labels: {} for labels in label_triples}
    firsts, entries = {labels[0] for labels in label_triples}, []
    for g0 in pair.labels():
        little_g = pair.little(g0)
        for h_orbit, label_w, _ in pair.orbit_labels(g0):
            if label_w not in firsts:
                continue
            h = pair.random_coset_element(pair.pick(h_orbit))
            stab = pair.intersection(little_g, pair.little_of_element(h))
            for k_orbit in pair.coset_orbits(stab):
                k = pair.random_coset_element(pair.pick(k_orbit))
                v = h * k.inverse()
                block = wanted.get((label_w, pair.label_of(v), pair.label_of(k)))
                if block is None:
                    continue
                meet = pair.intersection(stab, pair.little_of_element(k))
                block[g0] = 0
                entries.append(((block, g0), g0, meet, [
                    _read_key(pair, g0 * h.inverse(), meet, h),
                    _read_key(pair, v, meet, k),
                    _read_key(pair, k, meet, identity)]))
    _summed_blocks(pair, entries)
    return [wanted[labels] for labels in label_triples]


def _summed_blocks(pair: FinitePair, entries: list) -> None:
    """Set block[key] to the sum of the ``_induced_products`` of the entries
    tagged (block, key)."""
    for (block, key), mults in _induced_products(pair, entries):
        block[key] = block[key] + mults


def _induced_products(pair: FinitePair, entries: list):
    """Per entry (tag, g0, meet, read keys), (tag, mults): mults[i, j, ...]
    the multiplicities, over ``irreducibles`` of little(g0), of Ind from meet
    of the product of class i at the first key's label, class j at the
    second's, ..., each read through its key's map (memoized on the pair).
    The products of one g0 and one meet are induced together, and all those
    of one g0 decomposed in one ``decompose_characters`` call per chunk of
    ``projrep.MAX_DENSE_BYTES``.
    """
    every_key = [key for *_, keys in entries for key in keys]
    reads = iter(pair._memo.get_all(every_key,
                                    lambda missing: _conj_reads(pair, missing)))
    tables = {label: character_table(pair.little(label),
                                     Cocycle.trivial(pair.little(label)))
              for label in {key[1] for key in every_key}}
    stacks: dict[Perm, dict] = {}  # g0 -> meet -> (tag, shape, chars, dims)
    for tag, g0, meet, keys in entries:
        chars, dims = tables[keys[0][1]]
        chars, shape = chars[:, next(reads)], (len(dims),)
        for key in keys[1:]:
            chars_f, dims_f = tables[key[1]]
            chars = (chars[:, None] * chars_f[None, :, next(reads)]).reshape(-1, len(meet))
            dims, shape = np.outer(dims, dims_f).ravel(), shape + (len(dims_f),)
        stacks.setdefault(g0, {}).setdefault(meet, []).append((tag, shape, chars, dims))
    for g0, meets in stacks.items():
        little_g, values, dims, parts = pair.little(g0), [], [], []
        for meet, stack in meets.items():
            values.append(_induce(little_g, meet, np.concatenate([s[2] for s in stack])))
            for tag, shape, _, dim in stack:
                dims.append(dim * (len(little_g) // len(meet)))
                parts.append((tag, shape, len(dim)))
        values, dims = np.concatenate(values), np.concatenate(dims)
        cls_of, step = conjugacy_classes(little_g)[1], max(
            1, projrep.MAX_DENSE_BYTES // (16 * len(little_g)))  # rows per chunk
        mults = np.concatenate([decompose_characters(
            little_g, Cocycle.trivial(little_g), values[i:i + step, cls_of],
            dims[i:i + step]) for i in range(0, len(dims), step)])
        for tag, shape, rows in parts:
            yield tag, mults[:rows].reshape(*shape, -1)
            mults = mults[rows:]


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
    ``orbits_by_labels``: cosets maps each coset of the orbit, by its
    minimum h and in orbit order, to the int array
    (n_a, n_b, classes of little(g0)) of its fusion term, read at g0 h^-1
    and h.  All are computed in one sweep, which checks that every coset
    reads the orbit's two labels."""
    identity, grouped = pair.group.identity, pair.orbits_by_labels()
    out, entries = [], []
    for labels in label_pairs:
        out.append([])
        for g0, orbit in grouped.get(labels, ()):
            cosets = dict.fromkeys(orbit, 0)
            out[-1].append((g0, cosets))
            for h in orbit:
                w = g0 * h.inverse()
                if (pair.label_of(w), pair.label_of(h)) != labels:
                    raise FusionFormulaError(
                        f"orbit of {orbit[0].cycle_string()} at label "
                        f"{g0.cycle_string()}: support is not orbit-invariant")
                meet = pair.intersection(pair.little(g0), pair.little_of_element(h))
                entries.append(((cosets, h), g0, meet, [
                    _read_key(pair, w, meet, h), _read_key(pair, h, meet, identity)]))
    _summed_blocks(pair, entries)
    return out


def overcount_identity(pair: FinitePair) -> None:
    """Re-derive the fusion by summing over all cosets; check exact
    divisibility, on the per-coset blocks of every label pair at once.

    Every coset of an orbit must read the orbit's labels (checked by
    ``overcount_blocks``), the orbit size must equal
    [little(g) : little(g) ∩ little(h)], and the full sum must be exactly
    that index times the orbit representative's contribution, so divisible
    by it.  The identity is bilinear, so the blocks of basis elements cover
    every pair of elements.  Any failure is a fusion-formula implementation
    bug."""
    label_pairs = list(itertools.product(pair.labels(), repeat=2))
    for orbits in overcount_blocks(pair, label_pairs):
        for g0, cosets in orbits:
            h, little_g = next(iter(cosets)), pair.little(g0)
            index = len(little_g) // len(pair.intersection(
                little_g, pair.little_of_element(h)))
            if index != len(cosets):
                raise FusionFormulaError(
                    f"orbit size {len(cosets)} != index {index} at "
                    f"({g0.cycle_string()}, {h.cycle_string()})")
            terms = np.stack(list(cosets.values()))  # in orbit order
            if (terms.sum(axis=0) != index * terms[0]).any():
                raise FusionFormulaError(
                    f"orbit total at {g0.cycle_string()} is not the index {index} "
                    "times the representative contribution")


def conjugate(x: ExtHeckeElement) -> ExtHeckeElement:
    """Support is inverted; the value at g becomes the conjugate of
    (value at g^-1) composed with Ad g.

    The defining axioms fix conjugation only up to these domain constraints;
    this formula is validated by the involutivity and reciprocity tests.
    """
    pair, out = x.pair, {}
    for label, parts in x.support.items():
        new_label = pair.label_of(label.inverse())
        little_new = pair.little(new_label)
        # new_label^-1 lies in the double coset of label
        char = np.conj(_character_on(x, new_label.inverse(), little_new, new_label))
        out[new_label] = add_multiset(out.get(new_label, {}), decompose_character(
            little_new, Cocycle.trivial(little_new), char, multiset_dim(parts)))
    return ExtHeckeElement._of(pair, out)


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
