"""Projective unitary representations of finite groups.

A representation carries its scalar 2-cocycle exactly (exponent tables from
:mod:`heckefuse.cocycle`) while the matrices are complex floating point.
All final outputs of this module are integers (dimensions, multiplicities,
intertwiner ranks); the tolerances below leave them enormous margins at the
group orders this package targets.

A representation is validated once, when it is built, on a generating set
of its group.  The irreducible classes of a (group, cocycle) come from the
classical randomized commutant split of its regular representation: average
a random Hermitian matrix over the group, cut along the eigenspaces of the
result, recurse.  Seeds are fixed, so runs are reproducible.  Every other
representation is decomposed by inner products of characters against those
classes.
"""

from __future__ import annotations

import cmath
from typing import Callable, Iterable, Optional, Union

import numpy as np

from .cocycle import Cocycle, PhaseFunction
from .permcore import FiniteGroup, Memo, Perm, right_coset_reps

UNITARY_TOL = 1e-8
RANK_SV_TOL = 1e-9
INT_TOL = 1e-6
EIG_GAP_TOL = 1e-6
MAX_SPLIT_TRIES = 8


class NumericalDegradation(RuntimeError):
    """A result that must be integral failed its tolerance check."""


def _roots(m: int) -> np.ndarray:
    """exp(2 pi i e / m) for e = 0..m-1: exponent arrays index into it."""
    return np.array([cmath.exp(2j * cmath.pi * e / m) for e in range(m)])


def _round_part(x: float) -> float:
    return round(x, 6) + 0.0  # normalize -0.0


def round_char(values: Iterable[complex]) -> tuple:
    return tuple((_round_part(z.real), _round_part(z.imag)) for z in values)


class Rep:
    """A projective unitary representation: pi(g) pi(h) = omega(g, h) pi(gh).

    ``matrices`` is one (|G|, d, d) complex array in the group's element order.
    """

    def __init__(self, group: FiniteGroup, cocycle: Cocycle, matrices):
        if cocycle.group != group:
            raise ValueError("cocycle lives on a different group")
        matrices = np.asarray(matrices, dtype=complex)
        if matrices.ndim != 3 or matrices.shape[1] != matrices.shape[2]:
            raise ValueError("matrices must be square and of equal size")
        if len(matrices) != len(group):
            raise ValueError("need one matrix per group element")
        dim = matrices.shape[1]
        if dim < 1:
            raise ValueError("representations have dimension at least 1")
        self.group = group
        self.cocycle = cocycle
        self.dim = dim
        self.matrices = matrices
        self._validate()
        self._char = tuple(np.trace(matrices, axis1=1, axis2=2).tolist())

    def _validate(self) -> None:
        """Check the identity, and unitarity and multiplicativity on generators.

        If pi(s) pi(h) = omega(s, h) pi(sh) holds for every generator s and
        every h, the cocycle identity omega(a, b) omega(ab, h) =
        omega(a, bh) omega(b, h) carries it from a and b to ab, so it holds
        on the whole group; every pi(g) is then a phase times a product of
        unitary generator matrices.  The work is one matmul per generator.
        """
        group, eye, stack = self.group, np.eye(self.dim), self.matrices
        if np.abs(stack[0] - eye).max() > UNITARY_TOL:  # the identity is element 0
            raise ValueError("identity element must act as the identity matrix")
        mul, roots = group.mul_table(), _roots(self.cocycle.modulus)
        for g in group.small_generating_set():
            s = group.index_of(g)
            if np.abs(stack[s] @ stack[s].conj().T - eye).max() > UNITARY_TOL:
                raise ValueError(f"matrix at {g.cycle_string()} is not unitary")
            expected = roots[self.cocycle.arr[s]][:, None, None] * stack[mul[s]]
            err = np.abs(np.matmul(stack[s], stack) - expected)
            if err.max() > UNITARY_TOL:
                h = group.elements[int(err.reshape(len(group), -1).max(axis=1).argmax())]
                raise ValueError(
                    f"multiplicativity fails at ({g.cycle_string()}, {h.cycle_string()})")

    def character(self) -> tuple:
        return self._char

    def char_key(self) -> tuple:
        return round_char(self.character())

    def __repr__(self) -> str:
        return f"Rep(dim={self.dim}, group order {len(self.group)})"


class RepClass:
    """Equivalence class of a representation, fingerprinted by its rounded
    character; ``rep`` is the representation it was built from."""

    __slots__ = ("rep", "group", "cocycle", "dim", "char", "_key", "_hash")

    def __init__(self, rep: Rep):
        self.rep = rep
        self.group = rep.group
        self.cocycle = rep.cocycle
        self.dim = rep.dim
        self.char = rep.char_key()
        self._key = (self.group.key(), self.cocycle.key(), self.char)
        self._hash = hash(self._key)

    def sort_key(self):
        return (self.dim, self.char)

    def key(self):
        return self._key

    def __eq__(self, other) -> bool:
        return isinstance(other, RepClass) and self._key == other._key

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"RepClass(dim={self.dim})"

    def to_json(self) -> dict:
        return {"dim": self.dim, "character": [[re, im] for re, im in self.char]}


def equivalent(a: Rep, b: Rep) -> bool:
    """Same cocycle and pointwise-equal rounded characters."""
    return (a.group == b.group and a.cocycle == b.cocycle
            and a.dim == b.dim and a.char_key() == b.char_key())


# ------------------------------------------------------------ constructions

def trivial_rep(group: FiniteGroup) -> Rep:
    return Rep(group, Cocycle.trivial(group), np.ones((len(group), 1, 1)))


def regular_rep(group: FiniteGroup, cocycle: Optional[Cocycle] = None) -> Rep:
    """The (possibly twisted) left regular representation on C^|G|."""
    if cocycle is None:
        cocycle = Cocycle.trivial(group)
    n = len(group)
    mats = np.zeros((n, n, n), dtype=complex)
    mats[np.arange(n)[:, None], group.mul_table(), np.arange(n)] = (
        _roots(cocycle.modulus)[cocycle.arr])
    return Rep(group, cocycle, mats)


def tensor(a: Rep, b: Rep) -> Rep:
    """Kronecker products, one broadcast multiply for the whole group."""
    if a.group != b.group:
        raise ValueError("tensor factors live on different groups")
    d = a.dim * b.dim
    mats = a.matrices[:, :, None, :, None] * b.matrices[:, None, :, None, :]
    return Rep(a.group, a.cocycle * b.cocycle, mats.reshape(len(a.group), d, d))


def conjugate_rep(a: Rep) -> Rep:
    return Rep(a.group, a.cocycle.inverse(), a.matrices.conj())


def restrict(a: Rep, sub: FiniteGroup) -> Rep:
    cocycle = a.cocycle.restrict(sub)  # raises unless sub lies in a.group
    return Rep(sub, cocycle, a.matrices[a.group.positions(sub.images)])


def twist(a: Rep, phase: PhaseFunction) -> Rep:
    """Multiply by a scalar phase; the cocycle picks up the phase coboundary."""
    if phase.group != a.group:
        raise ValueError("phase lives on a different group")
    return Rep(a.group, a.cocycle * phase.coboundary(),
               _roots(phase.modulus)[phase.values][:, None, None] * a.matrices)


def transport(a: Rep, new_group: FiniteGroup,
              fwd: Union[Callable[[Perm], Perm], np.ndarray]) -> Rep:
    """Pull back along a homomorphism fwd: new_group -> a.group, given as a
    function or as the positions in a.group of the images of new_group's
    elements (``permcore.conj_map`` gives them for a conjugation)."""
    if callable(fwd):
        fwd = [a.group.index_of(fwd(g)) for g in new_group.elements]
    idx = np.asarray(fwd)
    return Rep(new_group, a.cocycle.pullback(new_group, idx), a.matrices[idx])


def direct_sum(reps: Iterable[Rep]) -> Rep:
    reps = list(reps)
    if not reps:
        raise ValueError("empty direct sum")
    group, cocycle = reps[0].group, reps[0].cocycle
    for r in reps[1:]:
        if r.group != group or r.cocycle != cocycle:
            raise ValueError("direct summands must share group and cocycle")
    dim = sum(r.dim for r in reps)
    mats = np.zeros((len(group), dim, dim), dtype=complex)
    at = 0
    for r in reps:
        mats[:, at:at + r.dim, at:at + r.dim] = r.matrices
        at += r.dim
    return Rep(group, cocycle, mats)


def induce(rep: Rep, big: FiniteGroup, ext_cocycle: Cocycle,
           rng=None) -> Rep:
    """Induction along a cocycle, on functions f with f(hg) = conj(w(h,g)) pi(h) f(g).

    ext_cocycle lives on the big group and must restrict to rep's cocycle on
    rep.group exactly (as exponent tables).  The result's cocycle is
    ext_cocycle, and its dimension is [big : rep.group] * rep.dim.
    """
    sub = rep.group
    if not big.contains_subset(sub.elements):
        raise ValueError("rep's group is not a subgroup of the big group")
    if ext_cocycle.group != big:
        raise ValueError("extension cocycle must live on the big group")
    if ext_cocycle.restrict(sub) != rep.cocycle:
        raise ValueError("cocycle restriction mismatch")
    coset_of = big.right_cosets(sub)[1]
    coset = np.array([coset_of[g] for g in big.elements])
    reps = right_coset_reps(big, sub, rng)
    rows = np.array([r.images for r in reps])
    at, inv_rows = big.positions(rows), np.argsort(rows, axis=1)
    n, k, d = len(big), len(reps), rep.dim
    w, roots, every = ext_cocycle.arr, _roots(ext_cocycle.modulus), np.arange(n)
    mats = np.zeros((n, k, d, k, d), dtype=complex)
    # block (i, j) of g is w(r_i, g) / w(h, r_j) pi(h), where r_i g = h r_j
    for i in range(k):
        t = rows[i][big.images]  # r_i g for every g
        j = coset[big.positions(t)]
        h_rows = np.take_along_axis(t, inv_rows[j], axis=1)
        exp = (w[at[i], every] - w[big.positions(h_rows), at[j]]) % ext_cocycle.modulus
        mats[every, i, :, j, :] = (roots[exp][:, None, None]
                                   * rep.matrices[sub.positions(h_rows)])
    return Rep(big, ext_cocycle, mats.reshape(n, k * d, k * d))


# ------------------------------------------------------------ intertwiners

def hom_dim(a: Rep, b: Rep) -> int:
    """Dimension of the space of intertwiners X with a(g) X = X b(g).

    Computed as the rank of the averaging projector
    X -> |G|^-1 sum_g a(g)* X b(g); same-cocycle phases cancel, so both
    representations must carry equal cocycle tables.
    """
    if a.group != b.group:
        raise ValueError("intertwiners need a common group")
    if a.cocycle != b.cocycle:
        raise ValueError("intertwiners need a common cocycle")
    size = a.dim * b.dim
    m = np.einsum("gji,glk->ikjl", a.matrices.conj(), b.matrices).reshape(size, size)
    m /= len(a.group)
    svals = np.linalg.svd(m, compute_uv=False)
    total = float(np.sum(svals[svals > RANK_SV_TOL]))
    rank = round(total)
    if abs(total - rank) > INT_TOL:
        raise NumericalDegradation(f"non-integral intertwiner rank {total}")
    return rank


# ------------------------------------------------------------ decomposition

_IRREDUCIBLES = Memo()


def clear_caches() -> None:
    _IRREDUCIBLES.clear()


def _average_commutant(rep: Rep, rng: np.random.Generator) -> np.ndarray:
    d = rep.dim
    x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    h = x + x.conj().T
    mats = rep.matrices
    return (mats.conj().transpose(0, 2, 1) @ h @ mats).sum(axis=0) / len(rep.group)


def _eigensplit(rep: Rep, rng: np.random.Generator) -> Optional[list[Rep]]:
    c = _average_commutant(rep, rng)
    w, v = np.linalg.eigh(c)
    blocks, start = [], 0
    for i in range(1, len(w)):
        if w[i] - w[i - 1] > EIG_GAP_TOL:
            blocks.append(range(start, i))
            start = i
    blocks.append(range(start, len(w)))
    if len(blocks) == 1:
        return None
    subs = []
    for block in blocks:
        basis = v[:, list(block)]
        mats = basis.conj().T @ rep.matrices @ basis
        subs.append(Rep(rep.group, rep.cocycle, mats))
    return subs


def _split_irreducible(rep: Rep) -> list[Rep]:
    if rep.dim == 1:
        return [rep]
    for attempt in range(MAX_SPLIT_TRIES):
        # one fixed seed: the classes cached by irreducibles must not depend
        # on which caller split a group first
        rng = np.random.default_rng((0, attempt, rep.dim, len(rep.group)))
        subs = _eigensplit(rep, rng)
        if subs is None:
            if hom_dim(rep, rep) == 1:
                return [rep]
            continue  # reducible but the random element was degenerate; retry
        out = []
        for sub in subs:
            out.extend(_split_irreducible(sub))
        return out
    raise NumericalDegradation(
        f"irreducible splitting did not converge after {MAX_SPLIT_TRIES} seeds")


def _characters(classes) -> np.ndarray:
    return np.array([cls.rep.character() for cls in classes])


def _checked_multiset(char, dim: int, classes, mults, chars) -> dict[RepClass, int]:
    """{class: mult} once the dimensions and the character add up."""
    parts = {cls: int(m) for cls, m in zip(classes, mults) if m}
    if multiset_dim(parts) != dim:
        raise NumericalDegradation("constituent dimensions do not add up")
    if np.abs(np.asarray(mults) @ chars - np.asarray(char)).max() > INT_TOL:
        raise NumericalDegradation("character reconstruction drifted")
    return parts


def decompose_character(group: FiniteGroup, cocycle: Cocycle, char,
                        dim: int) -> dict[RepClass, int]:
    """Multiset of irreducible constituents of the character of a dim-dimensional
    representation of (group, cocycle); exact multiplicities.

    The multiplicity of an irreducible class is the inner product
    |G|^-1 sum_g chi(g) conj(chi_irr(g)): irreducible characters sharing a
    cocycle are orthonormal (Karpilovsky, Projective Representations of
    Finite Groups, 1985).  The keys are the classes of
    ``irreducibles(group, cocycle)``.  ``dim`` is checked against the
    constituents, so it must come from the construction, not from char.
    """
    classes = irreducibles(group, cocycle)
    chars = _characters(classes)
    raw = chars.conj() @ np.asarray(char) / len(group)
    mults = np.rint(raw.real)
    if np.abs(raw - mults).max() > INT_TOL or (mults < 0).any():
        raise NumericalDegradation(
            f"non-integral multiplicities {np.round(raw, 9).tolist()}")
    return _checked_multiset(char, dim, classes, mults, chars)


def decompose(rep: Rep) -> dict[RepClass, int]:
    """Multiset of irreducible constituents of rep; see ``decompose_character``."""
    return decompose_character(rep.group, rep.cocycle, rep.character(), rep.dim)


def irreducibles(group: FiniteGroup,
                 cocycle: Optional[Cocycle] = None) -> tuple[RepClass, ...]:
    """All irreducible classes, canonically ordered by (dim, character).

    Split out of the (twisted) regular representation, which contains each
    irreducible dim times, so the squared dimensions sum to |G|.
    """
    if cocycle is None:
        cocycle = Cocycle.trivial(group)
    return _IRREDUCIBLES.get_or((group.key(), cocycle.key()),
                                _split_regular, group, cocycle)


def _split_regular(group: FiniteGroup, cocycle: Cocycle) -> tuple[RepClass, ...]:
    regular = regular_rep(group, cocycle)
    counts: dict[RepClass, int] = {}
    for irr in _split_irreducible(regular):
        cls = RepClass(irr)
        counts[cls] = counts.get(cls, 0) + 1
    classes = tuple(sorted(counts, key=lambda c: c.sort_key()))
    _checked_multiset(regular.character(), regular.dim, classes,
                      [counts[cls] for cls in classes], _characters(classes))
    if (sum(c.dim ** 2 for c in classes) != len(group)
            or any(counts[c] != c.dim for c in classes)):
        raise NumericalDegradation(
            "regular representation splits as (dim, mult) "
            f"{[(c.dim, counts[c]) for c in classes]} for |G| = {len(group)}")
    return classes


def multiset_dim(parts: dict[RepClass, int]) -> int:
    return sum(cls.dim * mult for cls, mult in parts.items())


def add_multiset(a: dict[RepClass, int], b: dict[RepClass, int]) -> dict[RepClass, int]:
    out = dict(a)
    for cls, mult in b.items():
        out[cls] = out.get(cls, 0) + mult
    return out
