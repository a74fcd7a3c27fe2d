"""The elementary-bimodule fusion calculus with cocycle twists.

An elementary object over a pair gamma <= G carrying a 2-cocycle omega on
gamma is a pair (delta, pi): an ambient element delta together with a
projective representation pi of the subgroup gamma ∩ delta^-1 gamma delta,
whose cocycle is forced to be (omega o Ad delta) / omega on that subgroup.
This constraint is checked exactly, as exponent tables, at construction.

Fusion of (delta, pi) and (delta~, pi~) is a sum over double cosets of
gamma between the right subgroup of delta and the left subgroup of delta~;
the coset of g contributes the object at delta * g * delta~ whose
representation is built by a conjugation transport, a tensor product, a
scalar twist, and an induction along the cocycle
(omega o Ad(delta g delta~)) / omega.  The representation before induction
must carry exactly the cocycle that the induction prescribes; a mismatch is
raised loudly since it can only mean a bookkeeping bug, never bad input.

Everything but the matrices depends only on (omega, delta, delta~), so it is
planned once per pair of deltas (``fusion_plan``): per orbit, the new delta
and its little group, the checked transport index, the restriction index,
the twist's phase roots, the target cocycle and the induction's index
arrays.  The plan runs its exact checks once, on the required cocycles of
delta and delta~ instead of on pi and pi~: an object's cocycle equals its
required cocycle exactly (``ElementaryBimodule`` refuses it otherwise), so
the integrand of every pair of classes at (delta, delta~) carries the
cocycle checked for the plan.  Products then do matrix work only, for
every pair of classes at (delta, delta~) at once (``_fuse_classes``): per
step, the pairs of one pair of dimensions are gathered into one stack that
gets one Kronecker product, phase multiply, induction and character
decomposition, and the step's classes are identified once per delta.  That
is the fill function of the elementary structure constants E
(``structure_constants``, a ``ring.Table``): one call per pair of labels
fills the products of every pair of basis objects at them, on the first
read of any of them.  ``fuse`` identifies its factors, objects or sums, and
contracts the rows of E they reach.

A simple object is a double coset with an irreducible class of its label's
little group (Ostrik, IMRN 2003 no. 27; Etingof, Nikshych and Ostrik, Ann.
Math. 162 (2005), section 8), so the basis objects are the admissible
classes at each label, and a sum is an int64 vector over them
(``BimoduleSum``).  An object at any delta is identified by one move to its
label and an exact character decomposition there (``identify``).  The
structure constants with their basis, the identifications of each delta's
classes, required cocycles and conjugation phases are memoized on the pair,
not in the module; plans, object sums and extended-Hecke identifications
are computed on each call and not kept.  Conjugations act on index arrays
(``permcore.conj_map``), not on ``Perm`` objects.

With a trivial omega the calculus collapses onto the extended Hecke fusion
algebra, which serves as an independent cross-check (``to_ext_hecke``).
"""

from __future__ import annotations

import functools
import itertools
from math import lcm
from typing import NamedTuple

import numpy as np

from . import projrep
from .cocycle import Cocycle, CocycleError, PhaseFunction, conjugation_phase
from .exthecke import ExtHeckeElement, FinitePair, basis_size, basis_spans
from .permcore import Perm, Subgroup, conj_map, index_groups
from .projrep import (
    Induction,
    Rep,
    _roots,
    check_homomorphism,
    decompose_characters,
    hom_dim,
    irreducibles,
    kron,
    phase_roots,
    trivial_rep,
)
from .ring import Table


INDUCED_BYTES = 80  # peak bytes per stacked induced-matrix entry, temporaries included


class CocycleBookkeepingError(AssertionError):
    """An internally produced representation carries the wrong cocycle."""


def required_cocycle(pair: FinitePair, omega: Cocycle, delta: Perm) -> Cocycle:
    """(omega o Ad delta) / omega on gamma ∩ delta^-1 gamma delta; memoized
    on the pair."""
    return pair._memo.get_or(("required", omega.key(), delta.images),
                             _required_cocycle, pair, omega, delta)


def _required_cocycle(pair: FinitePair, omega: Cocycle, delta: Perm) -> Cocycle:
    rig = pair.little_of_element(delta)
    moved = omega.pullback(rig, conj_map(rig, delta, omega.group))
    return moved * omega.restrict(rig).inverse()


def pair_conjugation_phase(pair: FinitePair, omega: Cocycle, g: Perm) -> PhaseFunction:
    """``conjugation_phase(omega, g)``, memoized on the pair."""
    return pair._memo.get_or(("phase", omega.key(), g.images),
                             conjugation_phase, omega, g)


def admissible_classes(pair: FinitePair, omega: Cocycle, delta: Perm):
    """Irreducible classes eligible to sit at delta, canonically ordered."""
    rig = pair.little_of_element(delta)
    return irreducibles(rig, required_cocycle(pair, omega, delta))


class ElementaryBimodule:
    """An object (delta, pi) with pi constrained by the ambient cocycle."""

    def __init__(self, pair: FinitePair, omega: Cocycle, delta: Perm, rep: Rep):
        if omega.group.key() != pair.gamma.key():
            raise ValueError("the ambient cocycle must live on gamma")
        if delta not in pair.group:
            raise ValueError("delta must lie in the ambient group")
        right = pair.little_of_element(delta)
        if rep.group.key() != right.key():
            raise ValueError(
                "the representation must live on gamma ∩ delta^-1 gamma delta")
        need = required_cocycle(pair, omega, delta)
        if rep.cocycle != need:
            raise CocycleError(
                "cocycle constraint fails: the representation's cocycle is not "
                "(omega o Ad delta)/omega; witness pair "
                + _witness_pair(rep.cocycle, need))
        self.pair = pair
        self.omega = omega
        self.delta = delta
        self.rep = rep
        self.left_subgroup = pair.little_of_element(delta.inverse())
        self.right_subgroup = right

    def dim(self) -> int:
        return self.rep.dim

    def __repr__(self) -> str:
        return (f"ElementaryBimodule(delta={self.delta.cycle_string()}, "
                f"dim={self.rep.dim})")


def _witness_pair(got: Cocycle, want: Cocycle) -> str:
    m = lcm(got.modulus, want.modulus)
    differ = np.argwhere(got.rescale(m).arr != want.rescale(m).arr)
    if not len(differ):
        return "(none: moduli differ only)"
    g, h = (got.group.elements[i].cycle_string() for i in differ[0])
    return f"({g}, {h})"


def identity_object(pair: FinitePair, omega: Cocycle) -> ElementaryBimodule:
    e = pair.group.identity
    rig = pair.little_of_element(e)
    return ElementaryBimodule(pair, omega, e, trivial_rep(rig))


def is_irreducible(h: ElementaryBimodule) -> bool:
    return hom_dim(h.rep, h.rep) == 1


def _transfer(pair: FinitePair, omega: Cocycle, delta: Perm, group: Subgroup,
              g: Perm, h: Perm) -> tuple[Subgroup, np.ndarray, np.ndarray]:
    """The exact part of moving (delta, rep) to (g delta h, . ): its right
    subgroup, the positions in group of Ad h of that subgroup, and the phase
    exponents on it.  The moved representation is
    (phase_g o Ad(delta h)) * (rep o Ad h) * phase_h on that subgroup, where
    phase_x is the conjugation phase of omega."""
    dh = delta * h
    little, gamma = pair.little_of_element(g * dh), omega.group
    phases = (pair_conjugation_phase(pair, omega, g).values[conj_map(little, dh, gamma)]
              + pair_conjugation_phase(pair, omega, h).values[gamma.positions(little.images)])
    return little, conj_map(little, h, group), phases % omega.modulus


def identify(pair: FinitePair, omega: Cocycle, delta: Perm, reps: list) -> np.ndarray:
    """The objects (delta, rep) over ``basis_objects``, one int64 row per
    rep, for representations or classes of one group.

    A simple object is a double coset with an irreducible class of its
    label's little group (Ostrik, IMRN 2003 no. 27), so one move serves:
    label = g delta h for the decomposition (g, h) that
    ``pair.decomposition`` gives, drawn under rng.  The moved character,
    the phase times rep's character read through the transport index, is
    decomposed exactly against the label's admissible classes; the moved
    cocycle must be the label's required cocycle."""
    label = pair.label_of(delta)
    g, h = pair.decomposition(delta, label)
    little, idx, phases = _transfer(pair, omega, delta, reps[0].group, g, h)
    need = required_cocycle(pair, omega, label)
    twist = PhaseFunction(little, omega.modulus, phases).coboundary()
    for cocycle in dict.fromkeys(rep.cocycle for rep in reps):
        moved = cocycle.pullback(little, idx) * twist
        if moved != need:
            raise CocycleBookkeepingError(
                f"transfer to {label.cycle_string()} by ({g.cycle_string()}, "
                f"{h.cycle_string()}) carries the wrong cocycle; witness pair "
                + _witness_pair(moved, need))
    chars = _roots(omega.modulus)[phases] * np.array([rep.character() for rep in reps])[:, idx]
    basis = _basis(pair, omega)
    rows = np.zeros((len(reps), len(basis.classes)), dtype=np.int64)
    rows[:, basis.spans[label]] = decompose_characters(little, need, chars,
                                                       [rep.dim for rep in reps])
    return rows


def basis_rows(objects: list) -> np.ndarray:
    """Row i: objects[i] over ``basis_objects``, for objects of one pair and
    ambient cocycle; the objects at one delta are identified together."""
    pair, omega = objects[0].pair, objects[0].omega
    rows = np.zeros((len(objects), len(_basis(pair, omega).classes)), dtype=np.int64)
    by_delta: dict = {}
    for i, h in enumerate(objects):
        by_delta.setdefault(h.delta, []).append(i)
    for delta, at in by_delta.items():
        rows[at] = identify(pair, omega, delta, [objects[i].rep for i in at])
    return rows


class BimoduleSum:
    """A formal N-combination of basis objects: an int64 multiplicity vector
    over ``basis_objects``."""

    def __init__(self, pair: FinitePair, omega: Cocycle, vector: np.ndarray):
        self.pair = pair
        self.omega = omega
        self.vector = vector

    @classmethod
    def of(cls, h: ElementaryBimodule) -> "BimoduleSum":
        """Decompose an object into basis objects."""
        return cls(h.pair, h.omega, basis_rows([h])[0])

    def __add__(self, other: "BimoduleSum") -> "BimoduleSum":
        if other.omega != self.omega or other.pair.group != self.pair.group:
            raise ValueError("sums must share the pair and the ambient cocycle")
        return BimoduleSum(self.pair, self.omega, self.vector + other.vector)

    def scale(self, n: int) -> "BimoduleSum":
        return BimoduleSum(self.pair, self.omega, n * self.vector)

    def __eq__(self, other) -> bool:
        return (isinstance(other, BimoduleSum) and self.pair.group == other.pair.group
                and self.omega == other.omega and np.array_equal(self.vector, other.vector))

    def __hash__(self) -> int:
        return hash((self.pair.group.key(), self.omega.key(), self.vector.tobytes()))

    def terms(self):
        """(label, k, class, mult) per nonzero entry, in basis order: the
        basis object is the k-th admissible class at label."""
        basis = _basis(self.pair, self.omega)
        for i in np.flatnonzero(self.vector).tolist():
            label, cls = basis.classes[i]
            yield label, i - basis.spans[label].start, cls, int(self.vector[i])

    def items(self):
        for label, _, cls, mult in self.terms():
            yield ElementaryBimodule(self.pair, self.omega, label, cls.rep), mult

    def __repr__(self) -> str:
        bits = []
        for label, _, cls, mult in self.terms():
            body = f"H({label.cycle_string()}, dim {cls.dim})"
            bits.append(body if mult == 1 else f"{mult}*{body}")
        return " + ".join(bits) or "0"


def _fuse_classes(pair: FinitePair, omega: Cocycle, delta1: Perm, reps1: list,
                  delta2: Perm, reps2: list) -> np.ndarray:
    """The fusion of (delta1, a) and (delta2, b) over ``basis_objects``, one
    int64 row for every a in reps1 and b in reps2, in that order.

    Per plan step, the pairs of one (dim a, dim b) are stacked: one
    Kronecker product, one induction and one character decomposition per
    stack, each stack within ``projrep.MAX_DENSE_BYTES``.  The classes at
    the step's delta are identified once per delta, memoized on the pair."""
    pairs = [(a, b) for a in reps1 for b in reps2]
    out = np.zeros((len(pairs), len(_basis(pair, omega).classes)), dtype=np.int64)
    by_dims: dict = {}
    for p, (a, b) in enumerate(pairs):
        by_dims.setdefault((a.dim, b.dim), []).append(p)
    for step in fusion_plan(pair, omega, delta1, delta2):
        (k, n), classes = step.induction.cols.shape, irreducibles(step.little, step.target)
        mults = np.zeros((len(pairs), len(classes)), dtype=np.int64)
        for (d1, d2), group in by_dims.items():
            dim = k * d1 * d2  # of the induced representation
            size = max(1, projrep.MAX_DENSE_BYTES // (INDUCED_BYTES * n * dim * dim))
            for chunk in (group[i:i + size] for i in range(0, len(group), size)):
                left = np.stack([pairs[p][0].matrices[step.moved] for p in chunk])
                right = np.stack([pairs[p][1].matrices[step.restricted] for p in chunk])
                integrand = kron(left.reshape(-1, d1, d1), right.reshape(-1, d2, d2))
                induced = step.induction.apply(
                    step.phase_roots[:, None, None]
                    * integrand.reshape(len(chunk), -1, d1 * d2, d1 * d2))
                mults[chunk] = decompose_characters(
                    step.little, step.target, np.trace(induced, axis1=2, axis2=3), dim)
        out += mults @ pair._memo.get_or(("identified", omega.key(), step.delta.images),
                                         identify, pair, omega, step.delta, classes)
    return out


class FusionStep(NamedTuple):
    """One orbit of R\\gamma/L in the fusion of objects at delta1 and delta2."""
    delta: Perm  # delta1 g delta2 for the orbit's representative g
    little: Subgroup  # its little group, on which the orbit's term lives
    moved: np.ndarray  # positions in little(delta1) of Ad(g delta2) of the meet
    restricted: np.ndarray  # positions in little(delta2) of the meet
    phase_roots: np.ndarray  # conjugation phase of omega at g, o Ad delta2
    target: Cocycle  # required_cocycle(delta)
    induction: Induction  # from the meet to little, along target


def fusion_plan(pair: FinitePair, omega: Cocycle, delta1: Perm,
                delta2: Perm) -> tuple[FusionStep, ...]:
    """The index and cocycle work of fusing any object at delta1 with any
    object at delta2, one step per orbit."""
    gamma = pair.gamma
    right1, right2 = pair.little_of_element(delta1), pair.little_of_element(delta2)
    need1 = required_cocycle(pair, omega, delta1)
    need2 = required_cocycle(pair, omega, delta2)
    steps = []
    # right1\gamma/left2 as left2-orbits on the right cosets; g is the least
    # element of the double coset, or a random one
    members = gamma.right_cosets(right1)[0]
    left2 = pair.little_of_element(delta2.inverse())
    for orbit in index_groups(gamma.coset_orbits(right1, left2)):
        g = gamma.elements[pair.pick(members[orbit].ravel().tolist())]
        new_delta = delta1 * g * delta2
        rig_new = pair.little_of_element(new_delta)
        meet = pair.intersection(rig_new, right2)
        moved = conj_map(meet, g * delta2, right1)
        check_homomorphism(meet, right1, moved)
        restricted = right2.positions(meet.images)
        phase = PhaseFunction(
            meet, omega.modulus,
            pair_conjugation_phase(pair, omega, g).values[conj_map(meet, delta2, gamma)])
        integrand = (need1.pullback(meet, moved) * need2.pullback(meet, restricted)
                     * phase.coboundary())
        target = required_cocycle(pair, omega, new_delta)
        if integrand != target.restrict(meet):
            raise CocycleBookkeepingError(
                "fusion integrand carries the wrong cocycle at coset of "
                f"{g.cycle_string()}")
        steps.append(FusionStep(
            new_delta, rig_new, moved, restricted, phase_roots(phase), target,
            Induction(meet, rig_new, target, integrand, rng=pair.rng)))
    return tuple(steps)


def fuse(a, b) -> BimoduleSum:
    """Fusion, bilinear over sums; accepts objects or sums.  The product is
    read from the rows of E that the entries of a and b reach."""
    a, b = (BimoduleSum.of(s) if isinstance(s, ElementaryBimodule) else s
            for s in (a, b))
    pair, omega = a.pair, a.omega
    if b.pair is not pair and (b.pair.group != pair.group
                               or b.pair.gamma != pair.gamma):
        raise ValueError("objects live over different pairs")
    if b.omega != omega:
        raise ValueError("objects carry different ambient cocycles")
    return BimoduleSum(pair, omega,
                       structure_constants(pair, omega).product(a.vector, b.vector))


class _Basis(NamedTuple):
    """The basis order, enumerated once per (pair, omega)."""
    classes: list  # (label, admissible class) of each basis object
    spans: dict  # label -> range of the basis indices of its classes


def _basis(pair: FinitePair, omega: Cocycle) -> _Basis:
    def build():
        per_label = {label: admissible_classes(pair, omega, label)
                     for label in pair.labels()}
        classes = [(label, cls) for label, found in per_label.items() for cls in found]
        ends = itertools.accumulate(map(len, per_label.values()))
        return _Basis(classes, {label: range(end - len(found), end)
                                for (label, found), end in zip(per_label.items(), ends)})
    return pair._memo.get_or(("basis", omega.key()), build)


def basis_objects(pair: FinitePair, omega: Cocycle) -> list[ElementaryBimodule]:
    """The object (label, class) of every label and admissible class: the
    basis that ``structure_constants`` and ``BimoduleSum`` are indexed by."""
    return [ElementaryBimodule(pair, omega, label, cls.rep)
            for label, cls in _basis(pair, omega).classes]


def structure_constants(pair: FinitePair, omega: Cocycle) -> Table:
    """E[x, y, z], the multiplicity of basis object z in the fusion of basis
    objects x and y, in ``basis_objects`` order: the table of the
    elementary calculus under omega, one ``_fuse_classes`` call per block;
    memoized on the pair."""
    return pair._memo.get_or(("ring", omega.key()), lambda: Table(
        pair, "elementary structure constants", _basis(pair, omega).spans,
        functools.partial(_elementary_fill, omega=omega)))


def _elementary_fill(pair: FinitePair, label_pairs: list, views: list,
                     omega: Cocycle) -> None:
    for (a, b), view in zip(label_pairs, views):
        reps_a = [cls.rep for cls in admissible_classes(pair, omega, a)]
        reps_b = [cls.rep for cls in admissible_classes(pair, omega, b)]
        view[...] = _fuse_classes(pair, omega, a, reps_a, b, reps_b).reshape(view.shape)


def to_ext_hecke(h) -> ExtHeckeElement:
    """Identify an object or a sum with the extended Hecke algebra; only for
    a trivial cocycle, under which the basis objects at a label carry its
    little group's irreducible classes."""
    columns = _identification_columns(h.pair, h.omega)
    total = BimoduleSum.of(h) if isinstance(h, ElementaryBimodule) else h
    vector = np.zeros(basis_size(h.pair), dtype=np.int64)
    vector[columns] = total.vector
    return ExtHeckeElement(h.pair, vector)


def identification_rows(objects: list) -> np.ndarray:
    """Row i: ``to_ext_hecke(objects[i])`` over ``exthecke.basis``, for
    objects of one pair and cocycle: their ``basis_rows``, each basis
    object's column placed as ``_identification_columns`` gives it."""
    pair = objects[0].pair
    rows = np.zeros((len(objects), basis_size(pair)), dtype=np.int64)
    rows[:, _identification_columns(pair, objects[0].omega)] = basis_rows(objects)
    return rows


def _identification_columns(pair: FinitePair, omega: Cocycle) -> list[int]:
    """The index over ``exthecke.basis`` of each basis object under a
    trivial omega: its class in its label's span (``class_index``)."""
    if not omega.is_trivial_table():
        raise ValueError("no untwisted identification: the cocycle is nontrivial")
    spans = basis_spans(pair)
    return [spans[label].start + pair.class_index(label)[cls]
            for label, cls in _basis(pair, omega).classes]
