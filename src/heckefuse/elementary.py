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
decomposition.  That is the fill function of the elementary structure
constants E (``structure_constants``, a ``ring.Table``): one call per pair
of labels fills the products of every pair of basis objects at them, on the
first read of any of them.  ``fuse`` canonicalizes its factors, objects
or sums, and contracts the rows of E they reach.

A fused sum keeps each irreducible constituent as a canonical term (the
label of its double coset and a character fingerprint); the constituents at
one delta are canonicalized in one transfer sweep.  The structure
constants with their basis, canonical terms, required cocycles and
conjugation phases are memoized on the pair, not in the module; plans,
object sums, representative objects and extended-Hecke identifications are
computed on each call and not kept.  Conjugations act on index arrays
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
from .exthecke import ExtHeckeElement, FinitePair, basis_spans
from .permcore import Perm, Subgroup, conj_map, conj_maps, index_groups
from .projrep import (
    Induction,
    NumericalDegradation,
    Rep,
    _roots,
    check_homomorphism,
    decompose,
    decompose_characters,
    hom_dim,
    irreducibles,
    kron,
    phase_roots,
    round_char,
    trivial_rep,
)
from .ring import Table


STACK_BYTES = 32  # peak bytes per stacked conjugation-row entry, temporaries included
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


def make(pair: FinitePair, omega: Cocycle, delta: Perm,
         rep: Rep) -> ElementaryBimodule:
    return ElementaryBimodule(pair, omega, delta, rep)


def identity_object(pair: FinitePair, omega: Cocycle) -> ElementaryBimodule:
    e = pair.group.identity
    rig = pair.little_of_element(e)
    return ElementaryBimodule(pair, omega, e, trivial_rep(rig))


def is_irreducible(h: ElementaryBimodule) -> bool:
    return hom_dim(h.rep, h.rep) == 1


def _transfers(pair: FinitePair, omega: Cocycle, delta: Perm, group: Subgroup,
               moves: list) -> tuple[Subgroup, np.ndarray, np.ndarray]:
    """The exact part of moving (delta, rep) to (g delta h, . ), for moves
    (g, h) that all carry delta to one g delta h: its right subgroup, and one
    row per move of the positions in group of Ad h of that subgroup and of
    the phase exponents on it.  The moved representation is
    (phase_g o Ad(delta h)) * (rep o Ad h) * phase_h on that subgroup, where
    phase_x is the conjugation phase of omega."""
    g0, h0 = moves[0]
    little, gamma = pair.little_of_element(g0 * delta * h0), omega.group
    hs = np.array([h.images for _, h in moves])
    by_dh = conj_maps(little, np.array(delta.images)[hs], gamma)
    g_phases = np.array([pair_conjugation_phase(pair, omega, g).values for g, _ in moves])
    h_phases = np.array([pair_conjugation_phase(pair, omega, h).values for _, h in moves])
    phases = (np.take_along_axis(g_phases, by_dh, axis=1)
              + h_phases[:, gamma.positions(little.images)]) % omega.modulus
    return little, conj_maps(little, hs, group), phases


def canonical_term(pair: FinitePair, omega: Cocycle, delta: Perm, rep) -> tuple:
    """Canonical fingerprint (label images, char key) of the irreducible
    object (delta, rep), for a ``Rep`` or a ``RepClass`` rep.

    Moves delta to the label of its double coset by every decomposition
    label = g delta c and keeps the least character fingerprint; the minimum
    over all of them does not depend on any representative choice made
    elsewhere.  Memoized on the pair.
    """
    return pair._memo.get_or(_term_key(omega, delta, rep),
                             _canonical_term, pair, omega, delta, rep)


def _term_key(omega: Cocycle, delta: Perm, rep) -> tuple:
    return "term", omega.key(), delta.images, rep.char_key()


def _canonical_term(pair: FinitePair, omega: Cocycle, delta: Perm, rep) -> tuple:
    return _canonical_terms(pair, omega, delta, [rep])[0]


def _canonical_terms(pair: FinitePair, omega: Cocycle, delta: Perm,
                     reps: list) -> list[tuple]:
    """The canonical terms of (delta, rep) for each of reps, representations
    or classes of one group.

    Decompositions are read a chunk at a time, each chunk's stacked rows for
    all of reps within ``projrep.MAX_DENSE_BYTES``, and one transfer sweep
    per chunk serves every rep: each transfer's character is the phase times
    rep's character read through the transport index, so no matrices are
    built.  The first least fingerprint wins, and each winner's cocycle is
    checked against the label's required cocycle."""
    label, chars = pair.label_of(delta), np.array([rep.character() for rep in reps])
    roots, best = _roots(omega.modulus), [None] * len(reps)
    moves = list(pair.decompositions(delta, label))
    per_move = STACK_BYTES * len(pair.little(label)) * label.degree * len(reps)
    step = max(1, projrep.MAX_DENSE_BYTES // per_move)
    for chunk in (moves[i:i + step] for i in range(0, len(moves), step)):
        little, idx, phases = _transfers(pair, omega, delta, reps[0].group, chunk)
        values = np.multiply(roots[phases], chars[:, idx], order="C")  # [rep, move, element]
        # round_char of every row at once, (re, im) interleaved; a stable
        # sort keyed on rep, then columns in order, puts each rep's first
        # least row at the head of its block of len(chunk)
        keys = (np.rint(values.view(float) * 1e6) / 1e6 + 0.0).reshape(-1, values.shape[-1] * 2)
        order = np.lexsort((*keys.T[::-1], np.repeat(np.arange(len(reps)), len(chunk))))
        for r, i in enumerate((order[::len(chunk)] % len(chunk)).tolist()):
            key = round_char(values[r, i])
            if best[r] is None or key < best[r][0]:
                best[r] = key, chunk[i], idx[i].copy(), phases[i].copy()
    need, checked = required_cocycle(pair, omega, label), set()
    for rep, (key, (g, c), idx, phases) in zip(reps, best):
        # reps of one cocycle won at one move carry one moved cocycle
        if (rep.cocycle, g, c) in checked:
            continue
        checked.add((rep.cocycle, g, c))
        phase = PhaseFunction(little, omega.modulus, phases)
        moved = rep.cocycle.pullback(little, idx) * phase.coboundary()
        if moved != need:
            raise CocycleBookkeepingError(
                f"transfer to {label.cycle_string()} by ({g.cycle_string()}, "
                f"{c.cycle_string()}) carries the wrong cocycle; witness pair "
                + _witness_pair(moved, need))
    return [(label.images, key) for key, *_ in best]


def canonical_representative(pair: FinitePair, omega: Cocycle,
                             term: tuple) -> ElementaryBimodule:
    """The object at the term's label carrying the admissible class whose
    character is the term's fingerprint."""
    label = Perm._of(term[0])  # a label's images, read from canonical_term
    cls = next((c for c in admissible_classes(pair, omega, label)
                if c.char == term[1]), None)
    if cls is None:
        raise NumericalDegradation(
            f"no admissible class at {label.cycle_string()} has the "
            "canonical fingerprint")
    return ElementaryBimodule(pair, omega, label, cls.rep)


def _add_terms(out: dict, pair: FinitePair, omega: Cocycle, delta: Perm,
               rep: Rep) -> dict:
    """Add the canonical terms of rep's irreducible constituents at delta."""
    for cls, mult in decompose(rep).items():
        term = canonical_term(pair, omega, delta, cls)
        out[term] = out.get(term, 0) + mult
    return out


class BimoduleSum:
    """A formal N-combination of canonicalized irreducible elementary objects."""

    def __init__(self, pair: FinitePair, omega: Cocycle, terms: dict):
        self.pair = pair
        self.omega = omega
        self.terms = {t: m for t, m in terms.items() if m}

    @classmethod
    def of(cls, h: ElementaryBimodule) -> "BimoduleSum":
        """Decompose an object into irreducibles and canonicalize the result."""
        return cls(h.pair, h.omega, _add_terms({}, h.pair, h.omega, h.delta, h.rep))

    def __add__(self, other: "BimoduleSum") -> "BimoduleSum":
        if other.omega != self.omega:
            raise ValueError("sums must share the ambient cocycle")
        out = dict(self.terms)
        for t, m in other.terms.items():
            out[t] = out.get(t, 0) + m
        return BimoduleSum(self.pair, self.omega, out)

    def scale(self, n: int) -> "BimoduleSum":
        return BimoduleSum(self.pair, self.omega,
                           {t: n * m for t, m in self.terms.items()})

    def __eq__(self, other) -> bool:
        return (isinstance(other, BimoduleSum) and self.pair.group == other.pair.group
                and self.omega == other.omega and self.terms == other.terms)

    def __hash__(self) -> int:
        return hash((self.pair.group.key(), self.omega.key(),
                     tuple(sorted(self.terms.items()))))

    def items(self):
        for term in sorted(self.terms):
            yield canonical_representative(self.pair, self.omega, term), self.terms[term]

    def __repr__(self) -> str:
        bits = []
        for term, mult in sorted(self.terms.items()):
            rep = canonical_representative(self.pair, self.omega, term)
            body = f"H({rep.delta.cycle_string()}, dim {rep.rep.dim})"
            bits.append(body if mult == 1 else f"{mult}*{body}")
        return " + ".join(bits) if bits else "0"


def _fuse_classes(pair: FinitePair, omega: Cocycle, delta1: Perm, reps1: list,
                  delta2: Perm, reps2: list) -> list[dict]:
    """The canonical terms, with multiplicities, of the fusion of (delta1, a)
    and (delta2, b) for every a in reps1 and b in reps2, in that order.

    Per plan step, the pairs of one (dim a, dim b) are stacked: one
    Kronecker product, one induction and one character decomposition per
    stack, each stack within ``projrep.MAX_DENSE_BYTES``.  The constituents
    met at the step's delta are canonicalized in one batch."""
    pairs = [(a, b) for a in reps1 for b in reps2]
    out: list[dict] = [{} for _ in pairs]
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
        met = np.flatnonzero(mults.any(axis=0))
        by_key = {_term_key(omega, step.delta, classes[c]): classes[c] for c in met}
        terms = pair._memo.get_all(list(by_key), lambda missing: _canonical_terms(
            pair, omega, step.delta, [by_key[key] for key in missing]))
        for sums, row in zip(out, mults[:, met].tolist()):
            for term, mult in zip(terms, row):
                if mult:
                    sums[term] = sums.get(term, 0) + mult
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
    read from the rows of E that the terms of a and b reach."""
    a, b = (BimoduleSum.of(s) if isinstance(s, ElementaryBimodule) else s
            for s in (a, b))
    pair, omega = a.pair, a.omega
    if b.pair is not pair and (b.pair.group != pair.group
                               or b.pair.gamma != pair.gamma):
        raise ValueError("objects live over different pairs")
    if b.omega != omega:
        raise ValueError("objects carry different ambient cocycles")
    total = structure_constants(pair, omega).product(
        term_vector(pair, omega, a.terms), term_vector(pair, omega, b.terms))
    return BimoduleSum(pair, omega, {
        (label.images, cls.char): m
        for (label, cls), m in zip(_basis(pair, omega).classes, total.tolist()) if m})


class _Basis(NamedTuple):
    """The basis order, enumerated once per (pair, omega)."""
    classes: list  # (label, admissible class) of each basis object
    index: dict  # canonical term (label images, fingerprint) -> basis index
    spans: dict  # label -> range of the basis indices of its classes


def _basis(pair: FinitePair, omega: Cocycle) -> _Basis:
    def build():
        per_label = {label: admissible_classes(pair, omega, label)
                     for label in pair.labels()}
        classes = [(label, cls) for label, found in per_label.items() for cls in found]
        ends = itertools.accumulate(map(len, per_label.values()))
        spans = {label: range(end - len(found), end)
                 for (label, found), end in zip(per_label.items(), ends)}
        return _Basis(classes, {(label.images, cls.char): i
                                for i, (label, cls) in enumerate(classes)}, spans)
    return pair._memo.get_or(("basis", omega.key()), build)


def basis_objects(pair: FinitePair, omega: Cocycle) -> list[ElementaryBimodule]:
    """The object (label, class) of every label and admissible class: the
    basis that ``structure_constants`` and ``term_vector`` are indexed by."""
    return [ElementaryBimodule(pair, omega, label, cls.rep)
            for label, cls in _basis(pair, omega).classes]


def basis_index(pair: FinitePair, omega: Cocycle, term: tuple) -> int:
    """The basis object that a canonical term names: the one at the term's
    label whose class has the term's fingerprint."""
    try:
        return _basis(pair, omega).index[term]
    except KeyError:
        raise NumericalDegradation(
            f"no admissible class at {Perm._of(term[0]).cycle_string()} has "
            "the canonical fingerprint") from None


def term_vector(pair: FinitePair, omega: Cocycle, terms: dict) -> np.ndarray:
    """The multiplicities of the canonical terms over ``basis_objects``, an
    int64 vector."""
    out = np.zeros(len(_basis(pair, omega).classes), dtype=np.int64)
    for term, mult in terms.items():
        out[basis_index(pair, omega, term)] = mult
    return out


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
        sums = _fuse_classes(pair, omega, a, reps_a, b, reps_b)
        view[...] = np.array([term_vector(pair, omega, terms)
                              for terms in sums]).reshape(view.shape)


def to_ext_hecke(h) -> ExtHeckeElement:
    """Identify with the extended Hecke algebra; only for a trivial cocycle."""
    if isinstance(h, BimoduleSum):
        if not h.omega.is_trivial_table():
            raise ValueError("no untwisted identification: the cocycle is nontrivial")
        out = ExtHeckeElement(h.pair, {})
        for rep_obj, mult in h.items():
            piece = to_ext_hecke(rep_obj)
            out = out + (piece.scale(mult) if mult != 1 else piece)
        return out
    label = h.pair.label_of(h.delta)
    row = identification_rows([h])[0, basis_spans(h.pair)[label]]
    return ExtHeckeElement(h.pair, {label: {
        cls: m for cls, m in zip(irreducibles(h.pair.little(label)), row.tolist()) if m}})


def identification_rows(objects: list) -> np.ndarray:
    """Row i: ``to_ext_hecke(objects[i])`` over ``exthecke.basis``, for
    objects of one pair.  The objects at one delta move to its label
    together: one decomposition label = c1 delta c2, and their characters
    read through one checked index of Ad c2^-1 and decomposed in one call."""
    if any(not h.omega.is_trivial_table() for h in objects):
        raise ValueError("no untwisted identification: the cocycle is nontrivial")
    pair, spans = objects[0].pair, basis_spans(objects[0].pair)
    rows = np.zeros((len(objects), next(reversed(spans.values())).stop), dtype=np.int64)
    by_delta: dict = {}
    for i, h in enumerate(objects):
        by_delta.setdefault(h.delta, []).append(i)
    for delta, at in by_delta.items():
        label = pair.label_of(delta)
        _, c2 = pair.decomposition(label, delta)
        little, first = pair.little(label), objects[at[0]].rep
        idx = conj_map(little, c2.inverse(), first.group)
        check_homomorphism(little, first.group, idx)
        cocycle = first.cocycle.pullback(little, idx)
        chars = np.array([objects[i].rep.character() for i in at])[:, idx]
        index, start = pair.class_index(label), spans[label].start
        rows[np.ix_(at, [start + index[cls] for cls in irreducibles(little, cocycle)])] = \
            decompose_characters(little, cocycle, chars, [objects[i].dim() for i in at])
    return rows
