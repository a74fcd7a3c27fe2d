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
of y at h.  Each contribution is decomposed into irreducible classes
immediately, so elements stay canonical and multiplicities exact.  Summing
over all cosets instead of orbits overcounts each orbit contribution exactly
[little(g) : little(g) ∩ little(h)] times; ``overcount_check`` verifies that
divisibility on concrete inputs.

Fusion, the triple product, conjugation and transport all work on
characters: transport reads a class's character through the conjugation,
tensor products are pointwise products, induction is the Frobenius formula
and conjugation is complex conjugation.  No representation matrix is built,
and no induction coset representatives are chosen (the character does not
depend on them).  The matrix constructions of :mod:`heckefuse.projrep` stay
as the independent path of elementary fusion and of the tests.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .cocycle import Cocycle
from .hecke import FiniteHecke, HeckeElement
from .permcore import (
    DoubleCosetSystem,
    FiniteGroup,
    Memo,
    Perm,
    Subgroup,
    conj_map,
    conjugate_intersection,
)
from .projrep import (
    Rep,
    RepClass,
    add_multiset,
    decompose,
    decompose_character,
    irreducibles,
    multiset_dim,
    restrict,
    trivial_rep,
)


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
    little groups, the double cosets each orbit reads (``orbit_labels``), the
    index arrays through which characters are read at a point, the index of
    each class in its label's basis keys, fusion and conjugation results
    (the elements themselves, keyed by their factors), and the canonical terms,
    representatives, required cocycles and conjugation phases of elementary
    objects over it (filled by :mod:`heckefuse.elementary`).
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
        self.pair = pair
        self.support = clean
        self._key = tuple(sorted(
            (label.images, tuple(sorted((c.key(), m) for c, m in parts.items())))
            for label, parts in clean.items()))
        self._hash = hash(self._key)

    def key(self) -> tuple:
        return self._key

    def __eq__(self, other) -> bool:
        return (isinstance(other, ExtHeckeElement)
                and self.pair.group == other.pair.group
                and self.pair.gamma == other.pair.gamma
                and self._key == other._key)

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
    triv = RepClass(trivial_rep(pair.little(label)))
    return ExtHeckeElement(pair, {label: {triv: 1}})


def from_rep(pair: FinitePair, rep: Rep) -> ExtHeckeElement:
    """Embed a representation of gamma, or the restriction to gamma of a
    representation of a group containing it, supported on the unit coset."""
    label = pair.labels()[0]
    little = pair.little(label)
    if rep.group.key() != little.key():
        rep = restrict(rep, little)
    return ExtHeckeElement(pair, {label: decompose(rep)})


def transport_class(pair: FinitePair, label: Perm, cls: RepClass,
                    target: Perm) -> RepClass:
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


def _character_on(x: ExtHeckeElement, point: Perm, meet: Subgroup,
                  by: Perm) -> np.ndarray:
    """The character of (x at point) ∘ Ad(by) on meet, in meet's element order.

    With point = c1 * label * c2, x at point is (x at label) ∘ Ad(c2), so the
    value at t is the label's multiset character at (c2 by) t (c2 by)^-1.
    """
    pair = x.pair
    label = pair.label_of(point)
    reads = pair._memo.get_or(("reads", point, by, meet.key()),
                              _read_map, pair, label, point, meet, by)
    char = sum(m * np.array(cls.rep.character())
               for cls, m in x.support[label].items())
    return char[reads]


def _read_map(pair: FinitePair, label: Perm, point: Perm, meet: Subgroup,
              by: Perm) -> np.ndarray:
    """Positions in little(label) of (c2 by) t (c2 by)^-1 for t in meet."""
    if point != label:
        by = pair.decomposition(label, point)[1] * by
    return conj_map(meet, by, pair.little(label))


def _induced_classes(pair: FinitePair, little_g: Subgroup, meet: Subgroup,
                     char: np.ndarray, dim: int) -> dict:
    """decompose(Ind from meet to little_g) of a dim-dimensional character of meet.

    The induced character is chi↑(g) = |meet|^-1 sum over x in little_g of
    chi(x g x^-1), with chi zero off meet (Isaacs, Character Theory of
    Finite Groups, ch. 5).
    """
    spread = np.zeros(len(little_g), dtype=complex)
    spread[little_g.positions(meet.images)] = char
    induced = spread[little_g.conj_table()].sum(axis=0) / len(meet)
    return decompose_character(little_g, Cocycle.trivial(little_g), induced,
                               dim * (len(little_g) // len(meet)))


def _orbit_contribution(pair: FinitePair, x: ExtHeckeElement, y: ExtHeckeElement,
                        g0: Perm, h: Perm) -> Optional[dict]:
    """decompose(Ind from little(g0) ∩ little(h) of (x at g0 h^-1 ∘ Ad h) ⊗ (y at h))."""
    w = g0 * h.inverse()
    label_w, label_h = pair.label_of(w), pair.label_of(h)
    if label_w not in x.support or label_h not in y.support:
        return None
    little_g = pair.little(g0)
    meet = pair.intersection(little_g, pair.little_of_element(h))
    product = (_character_on(x, w, meet, h)
               * _character_on(y, h, meet, pair.group.identity))
    dim = multiset_dim(x.support[label_w]) * multiset_dim(y.support[label_h])
    return _induced_classes(pair, little_g, meet, product, dim)


def fuse(x: ExtHeckeElement, y: ExtHeckeElement) -> ExtHeckeElement:
    """The fusion product, summed over little-group orbits of right cosets.

    Orbits whose labels miss the support of x or of y contribute nothing and
    are skipped before a representative is drawn.  Memoized on the pair: a
    repeated product returns the same element.
    """
    pair = x.pair
    if y.pair is not pair and (y.pair.group != pair.group
                               or y.pair.gamma != pair.gamma):
        raise ValueError("elements live over different pairs")
    return pair._memo.get_or(("fuse", x, y), _fuse, pair, x, y)


def _fuse(pair: FinitePair, x: ExtHeckeElement,
          y: ExtHeckeElement) -> ExtHeckeElement:
    out: dict[Perm, dict] = {}
    for g0 in pair.labels():
        total: dict[RepClass, int] = {}
        for orbit, label_w, label_h in pair.orbit_labels(g0):
            if label_w not in x.support or label_h not in y.support:
                continue
            h = pair.random_coset_element(pair.pick(orbit))
            total = add_multiset(total, _orbit_contribution(pair, x, y, g0, h))
        if total:
            out[g0] = total
    return ExtHeckeElement(pair, out)


def overcount_check(x: ExtHeckeElement, y: ExtHeckeElement) -> None:
    """Re-derive the fusion by summing over all cosets; check exact divisibility.

    Every coset of an orbit must contribute an isomorphic induction, the
    orbit size must equal [little(g) : little(g) ∩ little(h)], and the full
    sum must be exactly that index times the orbit representative's
    contribution.  Any failure is a fusion-formula implementation bug.
    """
    pair = x.pair
    for g0 in pair.labels():
        little_g = pair.little(g0)
        for orbit in pair.coset_orbits(little_g):
            contributions = [_orbit_contribution(pair, x, y, g0, h) for h in orbit]
            nonzero = [c for c in contributions if c]
            if not nonzero:
                continue
            if len(nonzero) != len(orbit):
                raise FusionFormulaError(
                    f"orbit of {orbit[0].cycle_string()} at label "
                    f"{g0.cycle_string()}: support is not orbit-invariant")
            h = orbit[0]
            meet = pair.intersection(little_g, pair.little_of_element(h))
            index = len(little_g) // len(meet)
            if index != len(orbit):
                raise FusionFormulaError(
                    f"orbit size {len(orbit)} != index {index} at "
                    f"({g0.cycle_string()}, {h.cycle_string()})")
            total: dict[RepClass, int] = {}
            for c in nonzero:
                total = add_multiset(total, c)
            for cls, mult in total.items():
                if mult % index:
                    raise FusionFormulaError(
                        f"multiplicity {mult} of a class at {g0.cycle_string()} "
                        f"is not divisible by the index {index}")
            if {c: m // index for c, m in total.items()} != nonzero[0]:
                raise FusionFormulaError(
                    f"orbit total at {g0.cycle_string()} is not index times "
                    "the representative contribution")


def triple_fuse(x: ExtHeckeElement, y: ExtHeckeElement,
                z: ExtHeckeElement) -> ExtHeckeElement:
    """Direct evaluation of the symmetric three-factor formula.

    Sums over orbits of little(g) acting diagonally on pairs of right cosets
    (h, k); the (h, k) orbit contributes the induction from
    little(g) ∩ little(h) ∩ little(k) of
    (x at g h^-1 ∘ Ad h) ⊗ (y at h k^-1 ∘ Ad k) ⊗ (z at k).
    The pair orbits are enumerated as the orbits of h, and for each h the
    orbits of its stabilizer little(g) ∩ little(h) on k.  Must agree with
    both iterated fusions.
    """
    pair = x.pair
    identity = pair.group.identity
    out: dict[Perm, dict] = {}
    for g0 in pair.labels():
        little_g = pair.little(g0)
        total: dict[RepClass, int] = {}
        for h_orbit, label_w, _ in pair.orbit_labels(g0):
            if label_w not in x.support:
                continue
            h = pair.random_coset_element(pair.pick(h_orbit))
            w = g0 * h.inverse()
            stab = pair.intersection(little_g, pair.little_of_element(h))
            for k_orbit in pair.coset_orbits(stab):
                k = pair.random_coset_element(pair.pick(k_orbit))
                v = h * k.inverse()
                label_v, label_k = pair.label_of(v), pair.label_of(k)
                if label_v not in y.support or label_k not in z.support:
                    continue
                meet = pair.intersection(stab, pair.little_of_element(k))
                product = (_character_on(x, w, meet, h)
                           * _character_on(y, v, meet, k)
                           * _character_on(z, k, meet, identity))
                dim = (multiset_dim(x.support[label_w])
                       * multiset_dim(y.support[label_v])
                       * multiset_dim(z.support[label_k]))
                total = add_multiset(
                    total, _induced_classes(pair, little_g, meet, product, dim))
        if total:
            out[g0] = total
    return ExtHeckeElement(pair, out)


def conjugate(x: ExtHeckeElement) -> ExtHeckeElement:
    """Support is inverted; the value at g becomes the conjugate of
    (value at g^-1) composed with Ad g.

    The defining axioms fix conjugation only up to these domain constraints;
    this formula is validated by the involutivity and reciprocity tests.
    Memoized on the pair, like ``fuse``.
    """
    return x.pair._memo.get_or(("conjugate", x), _conjugate, x)


def _conjugate(x: ExtHeckeElement) -> ExtHeckeElement:
    pair, out = x.pair, {}
    for label, parts in x.support.items():
        new_label = pair.label_of(label.inverse())
        little_new = pair.little(new_label)
        # new_label^-1 lies in the double coset of label
        char = np.conj(_character_on(x, new_label.inverse(), little_new, new_label))
        out[new_label] = add_multiset(out.get(new_label, {}), decompose_character(
            little_new, Cocycle.trivial(little_new), char, multiset_dim(parts)))
    return ExtHeckeElement(pair, out)


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
            out.append((f"{name}:{i}", ExtHeckeElement(pair, {label: {cls: 1}})))
    return out


def crossed_dim_identity(pair: FinitePair) -> tuple[int, int]:
    """(|gamma\\G| * |gamma|,  sum over labels of right_count^2 * |little|)."""
    lhs = len(pair.group.right_cosets(pair.gamma)[0]) * len(pair.gamma)
    rhs = sum(dc.right_count ** 2 * len(dc.little) for dc in pair.cosets.cosets)
    return lhs, rhs


def parse_ext_element(pair: FinitePair, text: str) -> ExtHeckeElement:
    """Sums of integer multiples of basis descriptors: "B[K:0] + 2*B[e:1]"."""
    import re
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
