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
and every group is closed from generator tuples by one breadth-first closure.
Groups here are small: explicit lists beat stabilizer chains at this scale.

Values are checked once, where they enter: ``Perm(...)`` that its images
are a permutation, ``FiniteGroup(...)`` the degree of each element, and
``Subgroup(...)`` containment and closure.  What is computed from checked
values is built unchecked: products, inverses, powers and conjugates by
``Perm._of``, groups from the sorted, distinct image tuples of a closure or
a scan by ``FiniteGroup._of_images``, and subgroups picked from their parent
by index by ``Subgroup._of``.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

DEFAULT_MAX_ORDER = 10_000
MAX_SYM_DEGREE = 8
MAX_ACTION_POINTS = 6


class GroupTooLarge(ValueError):
    """Raised when a closure exceeds the configured order cap, or dense
    matrices would exceed ``projrep.MAX_DENSE_BYTES``."""


class DegreeTooLarge(ValueError):
    """Raised when a brute-force scan over Sym(n) is out of reach."""


class CommensurationError(AssertionError):
    """Ad(delta^-1) fails to carry gamma ∩ delta gamma delta^-1 onto
    gamma ∩ delta^-1 gamma delta; carries a witness."""


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

    @classmethod
    def _of(cls, images: tuple) -> "Perm":
        """The permutation with this tuple of images, unchecked: for images
        computed from permutations, or read from a group's rows."""
        perm = cls.__new__(cls)
        perm.images, perm._hash = images, hash(images)
        return perm

    @property
    def degree(self) -> int:
        return len(self.images)

    @classmethod
    def identity(cls, degree: int) -> "Perm":
        return cls._of(tuple(range(degree)))

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
        return Perm._of(tuple(map(a.__getitem__, b)))

    def inverse(self) -> "Perm":
        images = [0] * len(self.images)
        for i, j in enumerate(self.images):
            images[j] = i
        return Perm._of(tuple(images))

    __invert__ = inverse

    def __pow__(self, n: int) -> "Perm":
        g = Perm.identity(self.degree)
        base = self if n >= 0 else self.inverse()
        for _ in range(abs(n)):
            g = base * g
        return g

    def conjugate(self, by: "Perm") -> "Perm":
        """Ad(by) applied to self: by * self * by^-1, which sends by(i) to
        by(self(i))."""
        a, b = self.images, by.images
        if len(a) != len(b):
            raise ValueError("degree mismatch")
        images = [0] * len(a)
        for i, j in zip(b, a):
            images[i] = b[j]
        return Perm._of(tuple(images))

    def order(self) -> int:
        n, g = 1, self
        e = Perm.identity(self.degree)
        while g != e:
            g = self * g
            n += 1
        return n

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


def _closure(degree: int, gens: Sequence[tuple],
             max_order: int = DEFAULT_MAX_ORDER) -> list[tuple]:
    """The sorted image tuples of the group the image tuples gens generate,
    breadth-first.  An identity generator adds nothing and is dropped: at
    degree 1 ``itemgetter`` would return a bare int."""
    identity = tuple(range(degree))
    times = [itemgetter(*g) for g in gens if g != identity]  # x -> x * g
    found, queue = {identity}, [identity]
    for x in queue:  # grows while iterating: breadth-first
        if len(queue) > max_order:
            raise GroupTooLarge(f"group too large: closure exceeds {max_order} elements")
        for times_g in times:
            y = times_g(x)
            if y not in found:
                found.add(y)
                queue.append(y)
    return sorted(queue)


def _class_minima(n: int, width: int, members: Callable) -> np.ndarray:
    """least[i] = the least item of the class of item i, for a partition of
    the items 0..n-1 whose classes members(todo) lists, a row per item of
    todo.  Asks only for items no class found so far covers, in blocks of
    about 2^20 / width items, like ``FiniteGroup._product_blocks``."""
    least = np.full(n, -1)
    step = max(1, (1 << 20) // width)
    for start in range(0, n, step):
        todo = start + np.flatnonzero(least[start:start + step] < 0)
        found = members(todo)
        least[found] = found.min(axis=1, keepdims=True)
    return least


def _conj_rows(rows: np.ndarray, xs) -> np.ndarray:
    """The image rows of x t x^-1 for each image row x of xs and each image
    row t of rows, one stack of rows per x."""
    xs = np.asarray(xs)
    inv = np.argsort(xs, axis=1)
    return xs[np.arange(len(xs))[:, None, None], rows[:, inv].swapaxes(0, 1)]


def _join(rows: list, sub: Sequence[int], c: int) -> tuple:
    """The sorted indices of the subgroup that the subgroup at indices sub
    and the element c generate, read off multiplication-table rows (lists).

    The join is a union of left cosets x sub, so it grows by a whole coset,
    read from one row, for each x c it lacks, x over its elements.
    """
    found, queue = set(sub), list(sub)
    for x in queue:  # grows while iterating: every x c is looked up
        y = rows[x][c]
        if y not in found:
            coset = [rows[y][h] for h in sub]
            found.update(coset)
            queue += coset
    return tuple(sorted(found))


class Memo(dict):
    """A cache store; every memo of the package is one, filled by ``get_or``
    one key at a time or by ``get_all`` for keys computed together.

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

    def get_all(self, keys: list, compute: Callable) -> list:
        """The values stored under keys, in order; the missing keys, each
        once in order of first appearance, are computed together by
        compute(missing), a list of their values, and stored; a compute that
        raises stores nothing."""
        missing = [key for key in dict.fromkeys(keys) if key not in self]
        if missing:
            self.update(zip(missing, compute(missing)))
        return [self[key] for key in keys]


class FiniteGroup:
    """A finite permutation group: its sorted element list, and ``images``,
    the same elements as a (|G|, degree) array of image rows.

    ``_memo`` holds what is computed once per group: the multiplication and
    inverse tables, a small generating set, and the right cosets and coset
    orbits of each subgroup.
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
        self._fill(degree, tuple(elements[i] for i in first.tolist()),
                   rows[first], keys, generators)

    @classmethod
    def _of_images(cls, degree: int, images: list[tuple],
                   generators: Sequence[Perm] = ()) -> "FiniteGroup":
        """The group of these image tuples, unchecked: for closures and
        scans whose tuples come out sorted and distinct."""
        rows = np.array(images, dtype=np.intp).reshape(len(images), degree)
        group = cls.__new__(cls)
        group._fill(degree, tuple(map(Perm._of, images)), rows, _row_keys(rows),
                    generators)
        return group

    def _fill(self, degree, elements, rows, keys, generators) -> None:
        self.degree = degree
        self.elements = elements
        self.generators = tuple(generators)
        self._index = dict(zip(elements, range(len(elements))))
        self.images = rows
        self._row_keys = keys
        self._key = (degree, keys.tobytes())
        self._memo = Memo()

    @classmethod
    def generate(cls, degree: int, generators: Sequence[Perm],
                 max_order: int = DEFAULT_MAX_ORDER) -> "FiniteGroup":
        for g in generators:
            if g.degree != degree:
                raise ValueError(f"generator degree {g.degree} != {degree}")
        images = _closure(degree, [g.images for g in generators], max_order)
        return cls._of_images(degree, images, generators)

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

    def span(self, generators: Sequence[Perm]) -> np.ndarray:
        """Sorted positions of the subgroup that generators, all elements, generate."""
        return self.positions(np.array(_closure(
            self.degree, [g.images for g in generators], len(self))))

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
        """conj_table()[x, g] = index of e_x * e_g * e_x^-1, as an int array;
        not kept on the group."""
        return self.mul_table()[self.mul_table(), self.inv_indices()[:, None]]

    def right_cosets(self, sub: "FiniteGroup") -> tuple[tuple, dict]:
        """The right cosets sub * g, each a sorted tuple, in order of their
        minima, and the number of the coset holding each element.

        Found in stacked blocks of rows h * g over h in sub; computed once
        per subgroup and kept on the group, like ``mul_table``.
        """
        return self._memo.get_or(("right_cosets", sub.key()), self._right_cosets, sub)

    def _right_cosets(self, sub: "FiniteGroup") -> tuple[tuple, dict]:
        if not self.contains_subset(sub.elements):
            raise ValueError("cosets need a subgroup of the group")
        least = _class_minima(len(self), sub.images.size, lambda todo: self.positions(
            sub.images[:, self.images[todo]].swapaxes(0, 1)))
        number = np.unique(least, return_inverse=True)[1]
        members = np.argsort(least, kind="stable").reshape(-1, len(sub))
        els = self.elements
        return (tuple(tuple(map(els.__getitem__, row)) for row in members.tolist()),
                dict(zip(els, number.tolist())))

    def coset_orbits(self, sub: "FiniteGroup", actor: "FiniteGroup") -> tuple:
        """The orbits of actor, acting by right multiplication on sub\\group,
        each the sorted tuple of its cosets' minima, in order of minimum.

        An orbit of sub on its own cosets is a double coset; one of L on
        R\\group is a double coset R g L.  Found in stacked blocks of rows
        m * a over a in actor, m a coset's minimum; kept on the group, like
        ``right_cosets``.
        """
        return self._memo.get_or(("coset_orbits", sub.key(), actor.key()),
                                 self._coset_orbits, sub, actor)

    def _coset_orbits(self, sub: "FiniteGroup", actor: "FiniteGroup") -> tuple:
        cosets, coset_of = self.right_cosets(sub)
        number = np.fromiter(map(coset_of.__getitem__, self.elements), np.intp, len(self))
        at = np.unique(number, return_index=True)[1]  # each coset's minimum
        orbit = _class_minima(len(at), actor.images.size, lambda todo: number[
            self.positions(self.images[at[todo]][:, actor.images])]).tolist()
        return tuple(tuple(cosets[c][0] for c in part) for _, part in itertools.groupby(
            sorted(range(len(orbit)), key=orbit.__getitem__), orbit.__getitem__))

    def __eq__(self, other) -> bool:
        return isinstance(other, FiniteGroup) and self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        return f"FiniteGroup(degree={self.degree}, order={len(self)})"

    def contains_subset(self, elements: Iterable[Perm]) -> bool:
        return all(g in self._index for g in elements)

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
        found = list(self.generators)
        have = np.zeros(len(self), dtype=bool)
        while True:
            have[self.span(found)] = True
            if have.all():
                return tuple(found)
            found.append(self.elements[np.argmin(have)])  # the least not generated

    def subgroups(self) -> tuple["Subgroup", ...]:
        """All subgroups, grown to a fixpoint by joining with cyclic subgroups,
        on ``mul_table()`` rows; computed on each call and not kept, since
        each subgroup holds the group.

        The join of a subgroup H with an element c outside it closes inside
        the group, by ``_join``, and subgroups are told apart by index set:
        the cyclic extension of Holt, Eick and O'Brien's *Handbook of
        Computational Group Theory* (2005), with every join tried.
        """
        rows = self.mul_table().tolist()
        cyclic = {}  # each nontrivial cyclic subgroup, with its least generator
        for c in range(1, len(self)):
            cyclic.setdefault(_join(rows, (0,), c), c)
        queue = [(0,), *cyclic]
        seen = set(queue)
        for idx in queue:  # grows while iterating: every join is tried
            inside = set(idx)
            for join in (_join(rows, idx, c) for c in cyclic.values() if c not in inside):
                if join not in seen:
                    seen.add(join)
                    queue.append(join)
        return tuple(sorted((Subgroup._of(self, np.array(idx, dtype=np.intp))
                             for idx in queue), key=lambda h: (len(h), h.key())))


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

    @classmethod
    def _of(cls, parent: FiniteGroup, idx: np.ndarray) -> "Subgroup":
        """The subgroup at sorted parent positions idx, unchecked."""
        sub = cls.__new__(cls)
        sub._fill(parent.degree, tuple(map(parent.elements.__getitem__, idx.tolist())),
                  parent.images[idx], parent._row_keys[idx], ())
        sub.parent, sub.idx = parent, idx
        return sub


def conjugate_intersection(gamma: Subgroup, g: Perm) -> Subgroup:
    """gamma ∩ g^-1 gamma g, the subgroup of gamma attached to the coset of g."""
    if g not in gamma.parent:
        raise ValueError("element must lie in the parent group")
    inside = gamma.positions(_conj_rows(gamma.images, [g.images])[0]) >= 0
    return Subgroup._of(gamma.parent, gamma.idx[inside])


def conj_map(src: FiniteGroup, x: Perm, dst: FiniteGroup) -> np.ndarray:
    """Positions in dst of x t x^-1 for each t in src; Ad x must carry src into dst."""
    return conj_maps(src, [x.images], dst)[0]


def conj_maps(src: FiniteGroup, xs, dst: FiniteGroup) -> np.ndarray:
    """``conj_map`` for each image row x of xs at once, one row of positions
    per x; each Ad x must carry src into dst."""
    pos = dst.positions(_conj_rows(src.images, xs))
    if (pos < 0).any():
        x = Perm._of(tuple(np.asarray(xs)[np.argmax((pos < 0).any(axis=1))].tolist()))
        raise ValueError(f"Ad {x.cycle_string()} does not carry src into dst")
    return pos


def commensuration_subgroups(gamma: Subgroup, delta: Perm) -> tuple[Subgroup, Subgroup]:
    """(gamma ∩ delta gamma delta^-1, gamma ∩ delta^-1 gamma delta).

    Ad(delta^-1) is verified to carry the left subgroup onto the right one.
    """
    dinv = delta.inverse()
    left, right = conjugate_intersection(gamma, dinv), conjugate_intersection(gamma, delta)
    carried = right.positions(_conj_rows(left.images, [dinv.images])[0])
    if len(left) != len(right) or (carried < 0).any():
        raise CommensurationError(
            f"Ad(delta^-1) for delta = {delta.cycle_string()} does not map the "
            f"left subgroup (order {len(left)}) onto the right one "
            f"(order {len(right)})")
    return left, right


def check_commensuration_subgroups(gamma: Subgroup, deltas: Sequence[Perm]) -> None:
    """``commensuration_subgroups`` for every delta of deltas, in one
    ``_conj_rows``/``positions`` pass and without building the subgroups;
    the first delta that fails is handed to ``commensuration_subgroups``,
    which raises its CommensurationError."""
    rows = np.array([d.images for d in deltas])
    # positions in gamma of delta^-1 t delta, then of delta t delta^-1, for t
    # in gamma: the left subgroup carried by Ad(delta^-1), and the right one
    carried, back = np.split(gamma.positions(_conj_rows(
        gamma.images, np.concatenate([np.argsort(rows, axis=1), rows]))), 2)
    left, right = carried >= 0, back >= 0
    onto = np.take_along_axis(right, np.where(left, carried, 0), axis=1) | ~left
    bad = (left.sum(axis=1) != right.sum(axis=1)) | ~onto.all(axis=1)
    if bad.any():
        delta = deltas[int(np.argmax(bad))]
        commensuration_subgroups(gamma, delta)  # raises
        raise CommensurationError(f"the stacked check fails at delta = "
                                  f"{delta.cycle_string()}, one delta at a time passes")


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
        orbits = group.coset_orbits(gamma, gamma)
        # gamma ∩ x^-1 gamma x for x = each label, then each label's inverse
        labels = np.array([orbit[0].images for orbit in orbits])
        inside = gamma.positions(_conj_rows(gamma.images, np.concatenate(
            [labels, np.argsort(labels, axis=1)]))) >= 0
        littles = [Subgroup._of(gamma.parent, gamma.idx[row]) for row in inside]
        for orbit, little, left_little in zip(orbits, littles, littles[len(orbits):]):
            label = orbit[0]
            members = [right_cosets[coset_of[m]] for m in orbit]
            if rng is None:
                right_reps = orbit
            else:
                right_reps = tuple(rc[rng.randrange(len(rc))] for rc in members)
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


def right_coset_reps(group: FiniteGroup, sub: FiniteGroup,
                     rng=None) -> list[Perm]:
    """Representatives of sub\\group, in order of coset minimum; the
    canonical choice is the minimum, else one rng draw per coset."""
    cosets = group.right_cosets(sub)[0]
    if rng is None:
        return [coset[0] for coset in cosets]
    return [coset[rng.randrange(len(coset))] for coset in cosets]


def normalizer_in_sym(gamma: FiniteGroup) -> FiniteGroup:
    """{s in Sym(degree) : s gamma s^-1 = gamma}, by scanning all of Sym
    with the conjugates of a small generating set of gamma; degree at most
    ``MAX_SYM_DEGREE``."""
    n = gamma.degree
    if n > MAX_SYM_DEGREE:
        raise DegreeTooLarge(f"degree too large for brute force: {n} > {MAX_SYM_DEGREE}")
    sym = np.array(list(itertools.permutations(range(n))), dtype=np.intp)
    sym_inv, inside = np.argsort(sym, axis=1), np.ones(len(sym), dtype=bool)
    # s S s^-1 in gamma for a generating set S gives s gamma s^-1 = gamma
    for g in gamma.small_generating_set():  # s g s^-1 for every s at once
        inside &= gamma.positions(np.take_along_axis(
            sym, np.array(g.images)[sym_inv], axis=1)) >= 0
    # permutations() yields sorted rows
    return FiniteGroup._of_images(n, list(map(tuple, sym[inside].tolist())))


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


def _hom_from_generators(identity, gens: Sequence, values: Sequence,
                         times: Callable, one, mul: Callable) -> Optional[dict]:
    """The homomorphism f with f(gens[k]) = values[k] on the group that gens
    generate, or None if there is none; times and mul are the products of
    the domain and the codomain, identity and one their identities.

    Propagates f(g s) = f(g) f(s) along a breadth-first tree over the
    generators and checks every other edge (g, s) of group x generators; by
    induction on word length that gives f(g s1..sk) = f(g) f(s1)..f(sk).
    """
    table = {identity: one}
    queue = [identity]
    for g in queue:  # grows while iterating: breadth-first
        for s, v in zip(gens, values):
            gs, image = times(g, s), mul(table[g], v)
            if gs not in table:
                table[gs] = image
                queue.append(gs)
            elif table[gs] != image:
                return None
    return table


def _injective_homs(rows_a: list, rows_b: list, gens: list[int],
                    allowed: Sequence[set]) -> list[dict[int, int]]:
    """All injective homomorphisms f, index -> index, from the group that
    gens generate, on multiplication-table rows rows_a (lists), into the
    group of rows_b, with f(g) in allowed[g] for every g; index 0 is the
    identity on both sides.  One ``_hom_from_generators`` per choice of
    allowed images of gens."""
    homs = (_hom_from_generators(0, gens, values, lambda g, s: rows_a[g][s],
                                 0, lambda x, v: rows_b[x][v])
            for values in itertools.product(*(sorted(allowed[s]) for s in gens)))
    return [f for f in homs if f is not None and len(set(f.values())) == len(f)
            and all(lam in allowed[g] for g, lam in f.items())]


def commensurations(a: GroupAction, b: GroupAction) -> list[Commensuration]:
    """All (eta, subgroup, iso) with eta(g.i) = iso(g).eta(i), canonically ordered.

    Exhaustive over eta in Sym(npoints) and the subgroups of A, on indices:
    the images allowed for g are the elements of B whose action row is
    eta a(g) eta^-1, looked up among B's rows grouped once, and each
    subgroup whose elements all have one gets every injective homomorphism
    of ``_injective_homs`` on its generators.  ``Perm``s and
    ``Commensuration``s are built for the results only.
    """
    if a.npoints != b.npoints:
        return []
    if a.npoints > MAX_ACTION_POINTS:
        raise DegreeTooLarge(
            f"too many points for exhaustive commensuration search: {a.npoints}")
    perms = list(itertools.permutations(range(a.npoints)))
    # the distinct action rows of B, each with the elements that act by it;
    # members[-1] stays empty, for the rows B lacks
    keys, row_of = np.unique(_row_keys(b._table), return_inverse=True)
    members = [set() for _ in range(len(keys) + 1)]
    for lam, k in enumerate(row_of.tolist()):
        members[k].add(lam)
    # want[e, g]: the number of the row eta_e a(g) eta_e^-1 among B's, else -1
    wanted = _row_keys(_conj_rows(a._table, np.array(perms, dtype=np.intp)))
    at = np.minimum(np.searchsorted(keys, wanted), len(keys) - 1)
    want = np.where(keys[at] == wanted, at, -1)
    rows_a, rows_b = a.group.mul_table().tolist(), b.group.mul_table().tolist()
    found = []
    for sub in a.group.subgroups():
        idx = sub.idx.tolist()
        gens = [a.group.index_of(g) for g in sub.small_generating_set()]
        # every eta under which each element of the subgroup has an image
        for e in np.flatnonzero((want[:, idx] >= 0).all(axis=1)).tolist():
            allowed = [members[w] for w in want[e].tolist()]
            for hom in _injective_homs(rows_a, rows_b, gens, allowed):
                found.append((perms[e], idx, sorted(hom.items())))
    found.sort()  # index order is the canonical order of elements
    els_a, els_b = a.group.elements, b.group.elements
    return [Commensuration(eta=eta, domain=tuple(els_a[g] for g in idx),
                           iso=tuple((els_a[g], els_b[lam]) for g, lam in iso))
            for eta, idx, iso in found]


def commutator_subgroup(group: FiniteGroup) -> Subgroup:
    """[G, G]: the normal closure of the commutators [s, t] of a generating set.

    Modulo a normal subgroup holding every [s, t] the generators commute, so
    the quotient is abelian and the subgroup contains [G, G].  The closure
    grows until conjugation by each s keeps its generators in it, which makes
    it normal.
    """
    rows = group.images
    gens = rows[[group.index_of(g) for g in group.small_generating_set()]]
    inv = np.argsort(gens, axis=1)
    s, t = np.divmod(np.arange(len(gens) ** 2), len(gens))
    # s t s^-1 t^-1 = s[t[s^-1[t^-1]]]
    queue = group.positions(gens[s[:, None], gens[t[:, None], inv[s[:, None], inv[t]]]])
    queue, normal = queue.tolist(), []
    have = np.zeros(len(group), dtype=bool)
    have[0] = True  # the identity
    while queue:
        n = queue.pop()
        if have[n]:
            continue
        normal.append(n)
        have[group.span([group.elements[i] for i in normal])] = True
        # s n s^-1 for every generator s
        conjugates = np.take_along_axis(gens[:, rows[n]], inv, axis=1)
        queue += group.positions(conjugates).tolist()
    return Subgroup._of(group, np.flatnonzero(have))


def abelian_invariants(group: FiniteGroup) -> tuple[int, ...]:
    """Invariant factors d1 | d2 | ... of the abelianization.

    Recovered from the order statistics of the quotient by the commutator
    subgroup: for each prime p, #\\{x : x^(p^j) = e\\} determines the p-power
    elementary divisors.
    """
    comm = commutator_subgroup(group)
    # the order in the quotient of each coset of the normal commutator
    # subgroup: the least k with x^k in comm, on image rows for all cosets
    reps = np.array([x.images for x in right_coset_reps(group, comm)])
    orders, power, k = np.zeros(len(reps), dtype=np.int64), reps, 1
    while not orders.all():
        orders[(orders == 0) & (comm.positions(power) >= 0)] = k
        power, k = np.take_along_axis(power, reps, axis=1), k + 1  # x^k * x
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
        table = _hom_from_generators(group.identity, gens, values, Perm.__mul__, 0,
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


def out_description(gamma: FiniteGroup) -> OutDescription:
    chars = characters(gamma)
    invs = abelian_invariants(gamma)
    m = invs[-1] if invs else 1
    norm = normalizer_in_sym(gamma)
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
