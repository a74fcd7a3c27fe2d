"""Finite permutation groups, subgroups, cosets and double cosets.

Conventions used throughout the package:

* a permutation of degree n acts on the points 0..n-1 and is stored as its
  tuple of images;
* products compose like functions, (g * h)(i) = g(h(i)), so groups act on
  the left;
* the canonical order on permutations (and hence on group element lists)
  is lexicographic on image tuples;
* conjugation is Ad(g): x -> g x g^-1.

Everything here is an immutable value; all operations are pure functions,
so concurrent use needs no locking.  A group is its sorted element list plus
a (|G|, degree) array of image rows, looked up exactly by a sorted search
(``FiniteGroup.positions``); hot paths work on index arrays, not ``Perm``s.
A subgroup is its parent plus ``idx``, its elements' sorted parent positions,
and every group is closed from generator rows by one breadth-first closure.
Groups here are small: explicit lists beat stabilizer chains at this scale.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

DEFAULT_MAX_ORDER = 10_000
MAX_SYM_DEGREE = 8
MAX_ACTION_POINTS = 6


class GroupTooLarge(ValueError):
    """Raised when a closure exceeds the configured order cap."""


class DegreeTooLarge(ValueError):
    """Raised when a brute-force scan over Sym(n) is out of reach."""


_CYCLE_RE = re.compile(r"\(([^()]*)\)")


class Perm:
    """A permutation of {0, .., n-1}, stored as the tuple of images."""

    __slots__ = ("images", "_hash")

    def __init__(self, images: Iterable[int]):
        images = tuple(images)
        if sorted(images) != list(range(len(images))):
            raise ValueError(f"not a permutation of 0..{len(images)-1}: {images}")
        object.__setattr__(self, "images", images)
        object.__setattr__(self, "_hash", hash(images))

    @property
    def degree(self) -> int:
        return len(self.images)

    @classmethod
    def identity(cls, degree: int) -> "Perm":
        return cls(range(degree))

    @classmethod
    def from_cycles(cls, degree: int, cycles: Sequence[Sequence[int]]) -> "Perm":
        images = list(range(degree))
        for cycle in cycles:
            for a, b in zip(cycle, cycle[1:] + type(cycle)([cycle[0]])):
                if not 0 <= a < degree:
                    raise ValueError(f"point {a} out of range for degree {degree}")
                images[a] = b
        return cls(images)

    @classmethod
    def parse(cls, degree: int, text: str) -> "Perm":
        """Parse cycle notation: whitespace-separated 0-based points, e.g. "(0 1)(2 3)".

        Fixed points are omitted; "()" and "" denote the identity.
        """
        stripped = text.strip()
        body = _CYCLE_RE.sub("", stripped).strip()
        if body:
            raise ValueError(f"cannot parse cycle notation: {text!r}")
        cycles = []
        for group in _CYCLE_RE.findall(stripped):
            pts = [int(tok) for tok in group.replace(",", " ").split()]
            if len(pts) != len(set(pts)):
                raise ValueError(f"repeated point in cycle: {text!r}")
            if pts:
                cycles.append(pts)
        return cls.from_cycles(degree, cycles)

    def __call__(self, point: int) -> int:
        return self.images[point]

    def __mul__(self, other: "Perm") -> "Perm":
        a, b = self.images, other.images
        if len(a) != len(b):
            raise ValueError("degree mismatch")
        return Perm(a[b[i]] for i in range(len(a)))

    def inverse(self) -> "Perm":
        images = [0] * len(self.images)
        for i, j in enumerate(self.images):
            images[j] = i
        return Perm(images)

    __invert__ = inverse

    def __pow__(self, n: int) -> "Perm":
        g = Perm.identity(self.degree)
        base = self if n >= 0 else self.inverse()
        for _ in range(abs(n)):
            g = base * g
        return g

    def conjugate(self, by: "Perm") -> "Perm":
        """Ad(by) applied to self: by * self * by^-1."""
        return by * self * by.inverse()

    def order(self) -> int:
        n, g = 1, self
        e = Perm.identity(self.degree)
        while g != e:
            g = self * g
            n += 1
        return n

    def is_identity(self) -> bool:
        return all(i == j for i, j in enumerate(self.images))

    def cycles(self) -> list[list[int]]:
        seen, out = set(), []
        for start in range(self.degree):
            if start in seen:
                continue
            cyc, p = [start], self.images[start]
            seen.add(start)
            while p != start:
                cyc.append(p)
                seen.add(p)
                p = self.images[p]
            if len(cyc) > 1:
                out.append(cyc)
        return out

    def cycle_string(self) -> str:
        cycles = self.cycles()
        if not cycles:
            return "()"
        return "".join("(" + " ".join(map(str, c)) + ")" for c in cycles)

    def __eq__(self, other) -> bool:
        return isinstance(other, Perm) and self.images == other.images

    def __hash__(self) -> int:
        return self._hash

    def __lt__(self, other: "Perm") -> bool:
        return self.images < other.images

    def __le__(self, other: "Perm") -> bool:
        return self.images <= other.images

    def __repr__(self) -> str:
        return f"Perm{self.cycle_string()}"


def _row_keys(rows) -> np.ndarray:
    """Image rows as big-endian uint16 bytes, one np.void per row: they
    compare like the rows, lexicographically, at every degree below 2^16."""
    rows = np.ascontiguousarray(rows, dtype=">u2")
    return rows.view(np.dtype((np.void, 2 * rows.shape[-1])))[..., 0]


def _closure(gens: np.ndarray, max_order: int = DEFAULT_MAX_ORDER) -> np.ndarray:
    """The sorted image rows of the group the rows gens generate, breadth-first:
    each round composes every generator with the whole frontier at once."""
    degree = gens.shape[1]
    frontier = np.arange(degree)[None]
    keys = _row_keys(frontier)
    while len(frontier):
        products = gens[:, frontier].reshape(-1, degree)
        new, first = np.unique(_row_keys(products), return_index=True)
        at = np.searchsorted(keys, new)
        fresh = keys[np.minimum(at, len(keys) - 1)] != new
        frontier = products[first[fresh]]
        keys = np.insert(keys, at[fresh], new[fresh])
        if len(keys) > max_order:
            raise GroupTooLarge(f"group too large: closure exceeds {max_order} elements")
    rows = np.frombuffer(keys.tobytes(), dtype=">u2").reshape(len(keys), degree)
    return rows.astype(np.intp)


def _conj_rows(rows: np.ndarray, x: Perm) -> np.ndarray:
    """The image rows of x t x^-1 for each image row t."""
    xa = np.array(x.images)
    return xa[rows[..., np.argsort(xa)]]


class Memo(dict):
    """A cache store; every memo of the package is one, filled by ``get_or``.

    Each owner keeps one: a group its tables and coset data, a pair its
    coset, character and fusion data, a module its ``_UPPERCASE`` cache.
    """

    def get_or(self, key, compute: Callable, *args):
        """The value stored under key, else compute(*args), stored; a
        compute that raises stores nothing."""
        try:
            return self[key]
        except KeyError:
            pass
        value = self[key] = compute(*args)
        return value


class FiniteGroup:
    """A finite permutation group: its sorted element list, and ``images``,
    the same elements as a (|G|, degree) array of image rows.

    ``_memo`` holds what is computed once per group: the multiplication,
    inverse and conjugation tables, a small generating set, and the right
    cosets and coset orbits of each subgroup.
    """

    def __init__(self, degree: int, elements: Iterable[Perm],
                 generators: Sequence[Perm] = ()):
        elements = list(elements)
        if not elements:
            raise ValueError("a group needs at least the identity")
        for g in elements:
            if g.degree != degree:
                raise ValueError("degree mismatch in element list")
        rows = np.array([g.images for g in elements],
                        dtype=np.intp).reshape(len(elements), degree)
        keys, first = np.unique(_row_keys(rows), return_index=True)  # sorted, distinct
        self.degree = degree
        self.elements = tuple(elements[i] for i in first.tolist())
        self.generators = tuple(generators)
        self._index = dict(zip(self.elements, range(len(first))))
        self.images = rows[first]
        self._row_keys = keys
        self._key = (degree, keys.tobytes())
        self._memo = Memo()

    @classmethod
    def generate(cls, degree: int, generators: Sequence[Perm],
                 max_order: int = DEFAULT_MAX_ORDER) -> "FiniteGroup":
        for g in generators:
            if g.degree != degree:
                raise ValueError(f"generator degree {g.degree} != {degree}")
        rows = _closure(np.array([g.images for g in generators], dtype=np.intp)
                        .reshape(len(generators), degree), max_order)
        return cls(degree, map(Perm, rows.tolist()), generators)

    @classmethod
    def symmetric(cls, degree: int) -> "FiniteGroup":
        return cls(degree, (Perm(p) for p in itertools.permutations(range(degree))))

    @classmethod
    def cyclic(cls, degree: int) -> "FiniteGroup":
        shift = Perm([(i + 1) % degree for i in range(degree)])
        return cls.generate(degree, [shift])

    @property
    def identity(self) -> Perm:
        """Element 0: the identity is the lexicographically least permutation."""
        return self.elements[0]

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[Perm]:
        return iter(self.elements)

    def __contains__(self, g: Perm) -> bool:
        return g in self._index

    def index_of(self, g: Perm) -> int:
        return self._index[g]

    def positions(self, rows) -> np.ndarray:
        """The index of each image row (last axis) in the element list, or -1
        where the row is not an element; exact, by a sorted search."""
        rows = np.asarray(rows)
        if rows.shape[-1] != self.degree:
            return np.full(rows.shape[:-1], -1)
        keys = _row_keys(rows)
        pos = np.minimum(np.searchsorted(self._row_keys, keys), len(self) - 1)
        return np.where(self._row_keys[pos] == keys, pos, -1)

    def key(self):
        """Hashable identity of the group (degree + bytes of the sorted rows)."""
        return self._key

    def _product_blocks(self) -> Iterator[tuple[int, np.ndarray]]:
        """(i0, positions of e_i * e_j) for blocks of rows i from i0, each
        of about 2^20 entries; -1 where a product is not an element."""
        rows = self.images
        step = max(1, (1 << 20) // rows.size)
        for start in range(0, len(rows), step):
            block = rows[start:start + step]
            yield start, self.positions(block[np.arange(len(block))[:, None, None], rows])

    def mul_table(self) -> np.ndarray:
        """mul_table()[i, j] = index of e_i * e_j, as an int array."""
        return self._memo.get_or("mul_table", lambda: np.concatenate(
            [block for _, block in self._product_blocks()]))

    def inv_indices(self) -> np.ndarray:
        """inv_indices()[i] = index of the inverse of element i."""
        return self._memo.get_or("inv_indices", lambda: self.positions(
            np.argsort(self.images, axis=1)))

    def conj_table(self) -> np.ndarray:
        """conj_table()[x, g] = index of e_x * e_g * e_x^-1, as an int array."""
        return self._memo.get_or("conj_table", lambda: self.mul_table()[
            self.mul_table(), self.inv_indices()[:, None]])

    def right_cosets(self, sub: "FiniteGroup") -> tuple[tuple, dict]:
        """The right cosets sub * g, each a sorted tuple, in order of their
        minima, and the number of the coset holding each element.

        Computed once per subgroup and kept on the group, like ``mul_table``.
        """
        return self._memo.get_or(("right_cosets", sub.key()), self._right_cosets, sub)

    def _right_cosets(self, sub: "FiniteGroup") -> tuple[tuple, dict]:
        if not self.contains_subset(sub.elements):
            raise ValueError("cosets need a subgroup of the group")
        cosets, coset_of, els = [], {}, self.elements
        for g in els:
            if g not in coset_of:
                found = np.sort(self.positions(sub.images[:, g.images]))
                coset = tuple(els[i] for i in found.tolist())
                coset_of.update(dict.fromkeys(coset, len(cosets)))
                cosets.append(coset)
        return tuple(cosets), coset_of

    def coset_orbits(self, sub: "FiniteGroup", actor: "FiniteGroup") -> tuple:
        """The orbits of actor, acting by right multiplication on sub\\group,
        each the sorted tuple of its cosets' minima, in order of minimum.

        An orbit of sub on its own cosets is a double coset; one of L on
        R\\group is a double coset R g L.  Kept on the group, like
        ``right_cosets``.
        """
        return self._memo.get_or(("coset_orbits", sub.key(), actor.key()),
                                 self._coset_orbits, sub, actor)

    def _coset_orbits(self, sub: "FiniteGroup", actor: "FiniteGroup") -> tuple:
        cosets, coset_of = self.right_cosets(sub)
        seen, orbits, els = set(), [], self.elements
        for coset in cosets:
            if coset[0] not in seen:
                moved = self.positions(np.array(coset[0].images)[actor.images])
                orbit = tuple(sorted({cosets[coset_of[els[i]]][0]
                                      for i in moved.tolist()}))
                seen.update(orbit)
                orbits.append(orbit)
        return tuple(orbits)

    def __eq__(self, other) -> bool:
        return isinstance(other, FiniteGroup) and self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        return f"FiniteGroup(degree={self.degree}, order={len(self)})"

    def contains_subset(self, elements: Iterable[Perm]) -> bool:
        return all(g in self._index for g in elements)

    def subgroup(self, elements: Iterable[Perm]) -> "Subgroup":
        return Subgroup(self, elements)

    def small_generating_set(self) -> tuple[Perm, ...]:
        """A short generating list, verified to generate the group.

        The stored generators, followed by each element (in canonical order)
        that the list so far does not generate; empty for the trivial group.
        Computed once and kept on the group, like ``mul_table``.
        """
        return self._memo.get_or("small_generating_set", self._small_generating_set)

    def _small_generating_set(self) -> tuple[Perm, ...]:
        if not self.contains_subset(self.generators):
            raise ValueError("stored generators lie outside the group")
        found = [self.index_of(g) for g in self.generators]
        have = np.zeros(len(self), dtype=bool)
        while True:
            have[self.positions(_closure(self.images[found], len(self)))] = True
            if have.all():
                return tuple(self.elements[i] for i in found)
            found.append(int(np.argmin(have)))  # the least element not generated

    def subgroups(self) -> list["Subgroup"]:
        """All subgroups, grown to a fixpoint by joining with cyclic subgroups;
        a join closes the subgroup's generators and one more element."""
        seen, queue = set(), []

        def register(gens: list[int]) -> None:
            idx = self.positions(_closure(self.images[gens], len(self)))
            if idx.tobytes() not in seen:
                seen.add(idx.tobytes())
                queue.append((idx, gens))

        for gens in [[]] + [[i] for i in range(len(self))]:
            register(gens)
        cyclic = [gens[0] for _, gens in queue[1:]]
        for idx, gens in queue:  # grows while iterating: every join is tried
            for c in np.setdiff1d(cyclic, idx, assume_unique=True).tolist():
                register(gens + [c])
        return sorted((Subgroup._of(self, idx) for idx, _ in queue),
                      key=lambda h: (len(h), h.key()))


class Subgroup(FiniteGroup):
    """A subgroup: ``idx`` holds its elements' sorted positions in ``parent``,
    whose Perm objects it shares.  Closure is checked; ``_of`` is unchecked."""

    def __init__(self, parent: FiniteGroup, elements: Iterable[Perm]):
        elements = list(elements)
        if not parent.contains_subset(elements):
            raise ValueError("subgroup elements must lie in the parent group")
        idx = sorted({parent.index_of(g) for g in elements})
        super().__init__(parent.degree, map(parent.elements.__getitem__, idx))
        self.parent, self.idx = parent, np.array(idx, dtype=np.intp)
        els, inv = self.elements, self.inv_indices()
        if (inv < 0).any():
            raise ValueError(f"not closed under inverse: {els[np.argmax(inv < 0)]}")
        for start, prod in self._product_blocks():
            if (prod < 0).any():
                i, j = np.argwhere(prod < 0)[0]
                raise ValueError(
                    f"not closed under product: {els[start + i]}, {els[j]}")
        if len(parent) % len(els):
            raise ValueError("Lagrange violated; element list is not a subgroup")

    @classmethod
    def _of(cls, parent: FiniteGroup, idx: np.ndarray) -> "Subgroup":
        """The subgroup at sorted parent positions idx, unchecked."""
        sub = cls.__new__(cls)
        FiniteGroup.__init__(sub, parent.degree,
                             map(parent.elements.__getitem__, idx.tolist()))
        sub.parent, sub.idx = parent, idx
        return sub


def conjugate_intersection(gamma: Subgroup, g: Perm) -> Subgroup:
    """gamma ∩ g^-1 gamma g, the subgroup of gamma attached to the coset of g."""
    if g not in gamma.parent:
        raise ValueError("element must lie in the parent group")
    inside = gamma.positions(_conj_rows(gamma.images, g)) >= 0
    return Subgroup._of(gamma.parent, gamma.idx[inside])


def conj_map(src: FiniteGroup, x: Perm, dst: FiniteGroup) -> np.ndarray:
    """Positions in dst of x t x^-1 for each t in src; Ad x must carry src into dst."""
    pos = dst.positions(_conj_rows(src.images, x))
    if (pos < 0).any():
        raise ValueError(f"Ad {x.cycle_string()} does not carry src into dst")
    return pos


def commensuration_subgroups(gamma: Subgroup, delta: Perm) -> tuple[Subgroup, Subgroup]:
    """(gamma ∩ delta gamma delta^-1, gamma ∩ delta^-1 gamma delta).

    Ad(delta^-1) is verified to carry the left subgroup onto the right one.
    """
    dinv = delta.inverse()
    left, right = conjugate_intersection(gamma, dinv), conjugate_intersection(gamma, delta)
    carried = right.positions(_conj_rows(left.images, dinv))
    if len(left) != len(right) or (carried < 0).any():
        raise AssertionError("Ad(delta^-1) does not map the left onto the right subgroup")
    return left, right


@dataclass(frozen=True)
class DoubleCoset:
    """One double coset gamma * label * gamma, with canonical data.

    label        lexicographic minimum of the double coset
    elements     the full double coset as a frozenset
    right_reps   one representative per right coset gamma\\coset
    left_count   [gamma : gamma ∩ label gamma label^-1]
    right_count  [gamma : gamma ∩ label^-1 gamma label]
    little       gamma ∩ label^-1 gamma label, home of attached representations
    """
    label: Perm
    elements: frozenset
    right_reps: tuple
    left_count: int
    right_count: int
    little: Subgroup


class DoubleCosetSystem:
    """The partition of G into gamma-double cosets, with canonical labels."""

    def __init__(self, group: FiniteGroup, gamma: Subgroup, rng=None):
        if gamma.parent is not group and not group.contains_subset(gamma.elements):
            raise ValueError("gamma must be a subgroup of group")
        self.group = group
        self.gamma = gamma
        self.cosets: list[DoubleCoset] = []
        self._label_of: dict[Perm, Perm] = {}
        self._by_label: dict[Perm, DoubleCoset] = {}
        right_cosets, coset_of = group.right_cosets(gamma)
        # a double coset is an orbit of gamma on the right cosets gamma\G
        for orbit in group.coset_orbits(gamma, gamma):
            label = orbit[0]
            members = [right_cosets[coset_of[m]] for m in orbit]
            if rng is None:
                right_reps = orbit
            else:
                right_reps = tuple(rc[rng.randrange(len(rc))] for rc in members)
            little = conjugate_intersection(gamma, label)
            left_little = conjugate_intersection(gamma, label.inverse())
            dc = DoubleCoset(
                label=label,
                elements=frozenset(x for rc in members for x in rc),
                right_reps=right_reps,
                left_count=len(gamma) // len(left_little),
                right_count=len(gamma) // len(little),
                little=little,
            )
            if len(right_reps) != dc.right_count:
                raise RuntimeError(
                    f"double coset of {label.cycle_string()} has "
                    f"{len(right_reps)} right cosets, not {dc.right_count}")
            self.cosets.append(dc)
            self._by_label[label] = dc
            self._label_of.update(dict.fromkeys(dc.elements, label))

    def label_of(self, g: Perm) -> Perm:
        return self._label_of[g]

    def labels(self) -> list[Perm]:
        return [dc.label for dc in self.cosets]

    def coset(self, label: Perm) -> DoubleCoset:
        return self._by_label[label]

    def __len__(self) -> int:
        return len(self.cosets)


def double_cosets(group: FiniteGroup, gamma: Subgroup) -> DoubleCosetSystem:
    return DoubleCosetSystem(group, gamma)


def right_coset_reps(group: FiniteGroup, sub: FiniteGroup,
                     rng=None) -> list[Perm]:
    """Representatives of sub\\group, in order of coset minimum; the
    canonical choice is the minimum, else one rng draw per coset."""
    cosets = group.right_cosets(sub)[0]
    if rng is None:
        return [coset[0] for coset in cosets]
    return [coset[rng.randrange(len(coset))] for coset in cosets]


def normalizer_in_sym(gamma: FiniteGroup,
                      max_degree: int = MAX_SYM_DEGREE) -> FiniteGroup:
    """{s in Sym(degree) : s gamma s^-1 = gamma}, by scanning all of Sym."""
    n = gamma.degree
    if n > max_degree:
        raise DegreeTooLarge(f"degree too large for brute force: {n} > {max_degree}")
    sym = np.array(list(itertools.permutations(range(n))), dtype=np.intp)
    sym_inv, inside = np.argsort(sym, axis=1), np.ones(len(sym), dtype=bool)
    for g in gamma.images:  # s g s^-1 for every s at once
        inside &= gamma.positions(np.take_along_axis(sym, g[sym_inv], axis=1)) >= 0
    return FiniteGroup(n, [Perm(s) for s in sym[inside].tolist()])


class GroupAction:
    """An action of a finite group on points 0..npoints-1, as an explicit table."""

    def __init__(self, group: FiniteGroup, npoints: int,
                 act: Callable[[Perm, int], int]):
        self.group = group
        self.npoints = npoints
        table = np.array([[act(g, i) for i in range(npoints)] for g in group.elements],
                         dtype=np.intp).reshape(len(group), npoints)
        if table[0].tolist() != list(range(npoints)):  # the identity is element 0
            raise ValueError("identity must act trivially")
        # (g h).i = g.(h.i) for every g, h
        composed = table[np.arange(len(group))[:, None, None], table]
        fails = np.argwhere((table[group.mul_table()] != composed).any(axis=2))
        if len(fails):
            g, h = (group.elements[i] for i in fails[0])
            raise ValueError(f"not an action: fails at ({g}, {h})")
        self._table = table

    @classmethod
    def natural(cls, group: FiniteGroup) -> "GroupAction":
        return cls(group, group.degree, lambda g, i: g(i))

    @classmethod
    def regular(cls, group: FiniteGroup) -> "GroupAction":
        """Left multiplication on the element list (points = element indices)."""
        return cls(group, len(group),
                   lambda g, i: group.mul_table()[group.index_of(g), i])

    def act(self, g: Perm, i: int) -> int:
        return int(self._table[self.group.index_of(g), i])

    def orbits(self) -> list[list[int]]:
        seen, out = set(), []
        for i in range(self.npoints):
            if i in seen:
                continue
            orbit = sorted({self.act(g, i) for g in self.group})
            seen.update(orbit)
            out.append(orbit)
        return out

    def stabilizer(self, i: int) -> Subgroup:
        return Subgroup(self.group,
                        [g for g in self.group if self.act(g, i) == i])

    def fixed_points(self, g: Perm) -> list[int]:
        return [i for i in range(self.npoints) if self.act(g, i) == i]


@dataclass(frozen=True)
class ActionSummary:
    """Raw orbit/stabilizer/fixed-point data of a finite action.

    No attempt is made to decide infinite-action regularity conditions here:
    those have no finite analogue, so only the data itself is reported.
    """
    orbits: tuple
    stabilizer_orders: tuple
    fixed_points: dict


def action_summary(action: GroupAction) -> ActionSummary:
    return ActionSummary(
        orbits=tuple(tuple(o) for o in action.orbits()),
        stabilizer_orders=tuple(len(action.stabilizer(i))
                                for i in range(action.npoints)),
        fixed_points={g: tuple(action.fixed_points(g)) for g in action.group},
    )


@dataclass(frozen=True)
class Commensuration:
    """A triple (eta, domain subgroup, iso) with eta(g.i) = iso(g).eta(i).

    In this finite model every subgroup counts as "finite index"; the
    measure-space factor that would accompany eta in the ergodic-theory
    picture is not modelled and is reported symbolically elsewhere.
    """
    eta: tuple
    domain: tuple          # sorted elements of the subgroup of A.group
    iso: tuple             # pairs (g, iso(g)), sorted

    def inverse(self) -> "Commensuration":
        n = len(self.eta)
        eta_inv = [0] * n
        for i, j in enumerate(self.eta):
            eta_inv[j] = i
        iso_inv = tuple(sorted((b, a) for a, b in self.iso))
        return Commensuration(tuple(eta_inv),
                              tuple(sorted(b for _, b in self.iso)),
                              iso_inv)


def _hom_from_generators(group: FiniteGroup, values: dict, one,
                         mul: Callable) -> Optional[dict]:
    """The homomorphism f on group with f(s) = values[s] on
    ``small_generating_set()``, or None if there is none.

    Propagates f(g s) = f(g) f(s) along a breadth-first tree over the
    generators and checks every other edge (g, s) of group x generators; by
    induction on word length that gives f(g s1..sk) = f(g) f(s1)..f(sk).
    """
    gens = group.small_generating_set()
    table = {group.identity: one}
    queue = [group.identity]
    for g in queue:  # grows while iterating: breadth-first
        for s in gens:
            gs, image = g * s, mul(table[g], values[s])
            if gs not in table:
                table[gs] = image
                queue.append(gs)
            elif table[gs] != image:
                return None
    return table


def _injective_homs(domain: Subgroup, codomain: FiniteGroup,
                    allowed: dict[Perm, set[Perm]]) -> list[dict[Perm, Perm]]:
    """All injective homomorphisms with values constrained pointwise."""
    gens = domain.small_generating_set()
    results = []

    def backtrack(k: int, assignment: dict[Perm, Perm]):
        if k == len(gens):
            table = _hom_from_generators(domain, assignment, codomain.identity,
                                         lambda a, b: a * b)
            if table is None or len(set(table.values())) != len(table):
                return
            if all(lam in allowed[g] for g, lam in table.items()):
                results.append(table)
            return
        for lam in sorted(allowed[gens[k]]):
            assignment[gens[k]] = lam
            backtrack(k + 1, assignment)
            del assignment[gens[k]]

    backtrack(0, {})
    # distinct generator assignments can close to the same hom
    unique = {tuple(sorted((g, h) for g, h in t.items())): t for t in results}
    return [unique[k] for k in sorted(unique)]


def commensurations(a: GroupAction, b: GroupAction,
                    max_points: int = MAX_ACTION_POINTS) -> list[Commensuration]:
    """All (eta, subgroup, iso) with eta(g.i) = iso(g).eta(i), canonically ordered."""
    if a.npoints != b.npoints:
        return []
    if a.npoints > max_points:
        raise DegreeTooLarge(
            f"too many points for exhaustive commensuration search: {a.npoints}")
    out = []
    subs = a.group.subgroups()
    for eta in itertools.permutations(range(a.npoints)):
        # candidates per group element, shared across subgroups
        allowed: dict[Perm, set[Perm]] = {}
        for g in a.group:
            want = tuple(eta[a.act(g, i)] for i in range(a.npoints))
            allowed[g] = {lam for lam in b.group
                          if tuple(b.act(lam, eta[i]) for i in range(a.npoints)) == want}
        for sub in subs:
            if any(not allowed[g] for g in sub.elements):
                continue
            for hom in _injective_homs(sub, b.group, allowed):
                image = sorted(hom.values())
                # image must be a subgroup of b.group; it is, being an injective
                # hom image, but the elements must belong to b.group (they do).
                out.append(Commensuration(
                    eta=tuple(eta),
                    domain=tuple(sub.elements),
                    iso=tuple(sorted(hom.items())),
                ))
    out.sort(key=lambda c: (c.eta, tuple(g.images for g in c.domain),
                            tuple((g.images, h.images) for g, h in c.iso)))
    return out


def commutator_subgroup(group: FiniteGroup) -> Subgroup:
    rows, inv = group.images, np.argsort(group.images, axis=1)
    gens, have = [], np.zeros(len(group), dtype=bool)
    for a, a_inv in zip(rows, inv):  # a b a^-1 b^-1 for every b at once
        found = group.positions(a[np.take_along_axis(rows, a_inv[inv], axis=1)])
        while not have[found].all():  # a few generators keep each closure small
            gens.append(found[np.argmin(have[found])])
            have[group.positions(_closure(rows[gens], len(group)))] = True
    return Subgroup._of(group, np.flatnonzero(have))


def abelian_invariants(group: FiniteGroup) -> tuple[int, ...]:
    """Invariant factors d1 | d2 | ... of the abelianization.

    Recovered from the order statistics of the quotient by the commutator
    subgroup: for each prime p, #\\{x : x^(p^j) = e\\} determines the p-power
    elementary divisors.
    """
    comm = commutator_subgroup(group)
    # cosets of the normal commutator subgroup, with coset order = order
    # in the quotient
    cosets = right_coset_reps(group, comm)

    def coset_order(x: Perm) -> int:
        k, y = 1, x
        while y not in comm:
            y = y * x
            k += 1
        return k

    orders = [coset_order(x) for x in cosets]
    n = len(orders)
    if n == 1:
        return ()

    def count_killed_by(d: int) -> int:
        return sum(1 for o in orders if d % o == 0)

    primes = set()
    m = n
    p = 2
    while p * p <= m:
        while m % p == 0:
            primes.add(p)
            m //= p
        p += 1
    if m > 1:
        primes.add(m)

    # ranks[j-1] = number of cyclic p-factors of order >= p^j, read off the
    # growth of count_killed_by along p-power steps
    per_prime: dict[int, list[int]] = {}
    for p in sorted(primes):
        ranks = []
        prev, j = 1, 1
        while True:
            cur = count_killed_by(p ** j)
            growth, r = cur // prev, 0
            while growth > 1:
                growth //= p
                r += 1
            if r == 0:
                break
            ranks.append(r)
            prev, j = cur, j + 1
        exact = []
        for idx, r in enumerate(ranks):
            nxt = ranks[idx + 1] if idx + 1 < len(ranks) else 0
            exact.extend([p ** (idx + 1)] * (r - nxt))
        per_prime[p] = sorted(exact, reverse=True)

    width = max(len(v) for v in per_prime.values())
    factors = []
    for i in range(width):
        f = 1
        for powers in per_prime.values():
            if i < len(powers):
                f *= powers[i]
        factors.append(f)
    return tuple(sorted(factors))


def characters(group: FiniteGroup) -> list[dict[Perm, int]]:
    """All homomorphisms group -> Z/m (m = quotient exponent), as exponent maps.

    The character with exponent map c sends g to exp(2*pi*i*c[g]/m).
    Sorted by the exponent vector over the canonical element order.
    """
    invs = abelian_invariants(group)
    m = invs[-1] if invs else 1
    gens = group.small_generating_set()
    found: set[tuple] = set()
    out = []
    for values in itertools.product(range(m), repeat=len(gens)):
        table = _hom_from_generators(group, dict(zip(gens, values)), 0,
                                     lambda a, b: (a + b) % m)
        if table is None:
            continue
        key = tuple(table[g] for g in group.elements)
        if key not in found:
            found.add(key)
            out.append(table)
    out.sort(key=lambda t: tuple(t[g] for g in group.elements))
    return out


@dataclass(frozen=True)
class OutDescription:
    """Group-theoretic outer-symmetry data of a faithful finite action.

    The continuous factor of the full symmetry group is not computable from
    the combinatorics and is carried symbolically in `measure_factor`.
    """
    char_invariants: tuple
    char_exponents: tuple          # exponent vectors, canonical element order
    modulus: int
    quotient_order: int
    quotient_reps: tuple           # coset representatives of gamma in its normalizer
    char_action: dict              # rep -> permutation (tuple) of character indices
    measure_factor: str


def out_description(gamma: FiniteGroup,
                    max_degree: int = MAX_SYM_DEGREE) -> OutDescription:
    chars = characters(gamma)
    invs = abelian_invariants(gamma)
    m = invs[-1] if invs else 1
    norm = normalizer_in_sym(gamma, max_degree)
    # gamma is normal in norm, so its left and right cosets agree
    reps = right_coset_reps(norm, gamma)
    char_keys = [tuple(c[g] for g in gamma.elements) for c in chars]
    key_index = {k: i for i, k in enumerate(char_keys)}
    action = {}
    for s in reps:
        moved = [gamma.elements[i] for i in conj_map(gamma, s, gamma).tolist()]
        action[s] = tuple(key_index[tuple(c[g] for g in moved)] for c in chars)
    return OutDescription(
        char_invariants=invs,
        char_exponents=tuple(char_keys),
        modulus=m,
        quotient_order=len(norm) // len(gamma),
        quotient_reps=tuple(reps),
        char_action=action,
        measure_factor="Aut(X0,mu0)",
    )
