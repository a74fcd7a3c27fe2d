"""Projective unitary representations of finite groups.

A representation carries its scalar 2-cocycle exactly (exponent tables from
:mod:`heckefuse.cocycle`) while the matrices are complex floating point.
All final outputs of this module are integers (dimensions, multiplicities,
intertwiner ranks); the tolerances below leave them enormous margins at the
group orders this package targets.

``Rep(...)`` validates matrices where they enter, on a generating set of the
group: matrices from outside, and the block built for an irreducible class.
A construction from checked representations makes only its exact checks
(same group and cocycle, containment, a homomorphism on generators, cocycle
exponents) and builds through the unchecked ``Rep._of``.

The irreducible classes of a (group, cocycle) come from Burnside's
class-sum character table of the central extension Z/m x_omega G, checked
where it enters; a class builds its matrices only when they are read.
Every other representation is decomposed by inner products of characters
against the classes.  Dense arrays over ``MAX_DENSE_BYTES`` raise
``GroupTooLarge`` before they are allocated.
"""

from __future__ import annotations

import cmath
from typing import Callable, Iterable, Optional, Union

import numpy as np

from .cocycle import Cocycle, PhaseFunction
from .permcore import FiniteGroup, GroupTooLarge, Memo, Perm, right_coset_reps

UNITARY_TOL = 1e-8
RANK_SV_TOL = 1e-9
INT_TOL = 1e-6
EIG_GAP_TOL = 1e-6
MAX_SEEDS = 8  # fixed seeds tried for separated eigenvalues before giving up
MAX_DENSE_BYTES = 1 << 28  # largest dense complex array built: 256 MiB


class NumericalDegradation(RuntimeError):
    """A result that must be integral failed its tolerance check."""


def _roots(m: int) -> np.ndarray:
    """exp(2 pi i e / m) for e = 0..m-1: exponent arrays index into it."""
    return np.array([cmath.exp(2j * cmath.pi * e / m) for e in range(m)])


def round_char(values: Iterable[complex]) -> tuple:
    """(re, im) of each value rounded to 6 decimals, as Python floats, -0.0
    normalized to 0.0.  rint(x 10^6) / 10^6 is round(x, 6) except within
    about 1e-16 |x| 10^6 of a half-way point, which character values, sums
    of roots of unity, stay far from."""
    z = np.asarray(values, dtype=complex)
    re, im = (np.rint(part * 1e6) / 1e6 + 0.0 for part in (z.real, z.imag))
    return tuple(zip(re.tolist(), im.tolist()))


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
        if matrices.shape[1] < 1:
            raise ValueError("representations have dimension at least 1")
        self._fill(group, cocycle, matrices)
        self._validate()

    @classmethod
    def _of(cls, group: FiniteGroup, cocycle: Cocycle, matrices: np.ndarray) -> "Rep":
        """The representation with these complex matrices, unchecked: for
        constructions whose laws were checked exactly."""
        rep = cls.__new__(cls)
        rep._fill(group, cocycle, matrices)
        return rep

    def _fill(self, group, cocycle, matrices) -> None:
        self.group = group
        self.cocycle = cocycle
        self.dim = matrices.shape[1]
        self.matrices = matrices
        self._char = tuple(np.trace(matrices, axis1=1, axis2=2).tolist())
        self._char_key = None

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
        """The rounded character, the class fingerprint; computed once."""
        if self._char_key is None:
            self._char_key = round_char(self._char)
        return self._char_key

    def __repr__(self) -> str:
        return f"Rep(dim={self.dim}, group order {len(self.group)})"


class RepClass:
    """Equivalence class of an irreducible representation of (group,
    cocycle), fingerprinted by ``char``, its rounded character.

    ``character()`` is the unrounded character; ``rep``, a representation in
    the class, is built on first read and kept.
    """

    __slots__ = ("group", "cocycle", "dim", "char", "_character", "_rep",
                 "_key", "_hash")

    def __init__(self, group: FiniteGroup, cocycle: Cocycle, dim: int, character):
        self.group = group
        self.cocycle = cocycle
        self.dim = dim
        self._character = np.array(character, dtype=complex)
        self._character.flags.writeable = False
        self.char = round_char(self._character)
        self._rep = None
        self._key = (group.key(), cocycle.key(), self.char)
        self._hash = hash(self._key)

    @property
    def rep(self) -> Rep:
        if self._rep is None:
            self._rep = _class_rep(self)
        return self._rep

    def character(self) -> np.ndarray:
        return self._character

    def char_key(self) -> tuple:
        return self.char

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
    return Rep._of(group, Cocycle.trivial(group), np.ones((len(group), 1, 1), complex))


def regular_rep(group: FiniteGroup, cocycle: Optional[Cocycle] = None) -> Rep:
    """The (possibly twisted) left regular representation on C^|G|.

    pi(g) sends e_h to omega(g, h) e_gh, so every pi(g) is monomial and
    unitary, and ``Rep``'s checks reduce to exact ones on exponents: pi(e) = I
    iff omega(e, -) = 0, and pi(s) pi(h) = omega(s, h) pi(sh) iff
    omega(h, k) + omega(s, hk) - omega(s, h) - omega(sh, k) = 0 mod m for
    every k.  They raise ``Rep``'s errors.  Its |G|^3 entries must fit in
    ``MAX_DENSE_BYTES``.
    """
    if cocycle is None:
        cocycle = Cocycle.trivial(group)
    n = len(group)
    check_dense_size(f"the regular representation of a group of order {n}", n ** 3)
    if cocycle.group != group:
        raise ValueError("cocycle lives on a different group")
    t, m, mul = cocycle.arr, cocycle.modulus, group.mul_table()
    if t[0].any():  # the identity is element 0
        raise ValueError("identity element must act as the identity matrix")
    for g in group.small_generating_set():
        s = group.index_of(g)
        off = (t + t[s][mul] - t[s][:, None] - t[mul[s]]) % m
        if off.any():
            h = group.elements[int(np.flatnonzero(off.any(axis=1))[0])]
            raise ValueError(
                f"multiplicativity fails at ({g.cycle_string()}, {h.cycle_string()})")
    mats = np.zeros((n, n, n), dtype=complex)
    mats[np.arange(n)[:, None], mul, np.arange(n)] = _roots(m)[t]
    return Rep._of(group, cocycle, mats)


def check_dense_size(what: str, entries: int, itemsize: int = 16) -> None:
    """Raise ``GroupTooLarge`` unless that many entries of itemsize bytes
    (complex by default) fit in ``MAX_DENSE_BYTES``."""
    size = itemsize * entries
    if size > MAX_DENSE_BYTES:
        raise GroupTooLarge(
            f"{what} needs {size / 2 ** 20:.0f} MiB of dense arrays, over "
            f"MAX_DENSE_BYTES = {MAX_DENSE_BYTES // 2 ** 20} MiB")


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker products of two stacks of matrices, one broadcast multiply."""
    d = a.shape[1] * b.shape[1]
    return (a[:, :, None, :, None] * b[:, None, :, None, :]).reshape(len(a), d, d)


def tensor(a: Rep, b: Rep) -> Rep:
    """Kronecker products of the matrices, with the product cocycle."""
    if a.group != b.group:
        raise ValueError("tensor factors live on different groups")
    return Rep._of(a.group, a.cocycle * b.cocycle, kron(a.matrices, b.matrices))


def restrict(a: Rep, sub: FiniteGroup) -> Rep:
    cocycle = a.cocycle.restrict(sub)  # raises unless sub lies in a.group
    return Rep._of(sub, cocycle, a.matrices[a.group.positions(sub.images)])


def phase_roots(phase: PhaseFunction) -> np.ndarray:
    """The phase's complex values, one per group element."""
    return _roots(phase.modulus)[phase.values]


def transport(a: Rep, new_group: FiniteGroup,
              fwd: Union[Callable[[Perm], Perm], np.ndarray]) -> Rep:
    """Pull back along a homomorphism fwd: new_group -> a.group, given as a
    function or as the positions in a.group of the images of new_group's
    elements (``permcore.conj_map`` gives them for a conjugation).  A map
    with fwd(s h) = fwd(s) fwd(h) for each generator s is a homomorphism."""
    if callable(fwd):
        fwd = [a.group.index_of(fwd(g)) for g in new_group.elements]
    idx = np.asarray(fwd)
    check_homomorphism(new_group, a.group, idx)
    return Rep._of(new_group, a.cocycle.pullback(new_group, idx), a.matrices[idx])


def check_homomorphism(new_group: FiniteGroup, old_group: FiniteGroup,
                       idx: np.ndarray) -> None:
    """Raise unless the map new_group -> old_group with idx[i] = position of
    the image of element i satisfies fwd(s h) = fwd(s) fwd(h) for each
    generator s, which makes it a homomorphism."""
    mul_new, mul_old = new_group.mul_table(), old_group.mul_table()
    for g in new_group.small_generating_set():
        s = new_group.index_of(g)
        if (idx[mul_new[s]] != mul_old[idx[s], idx]).any():
            raise ValueError(f"map is not a homomorphism at {g.cycle_string()}")


def induce(rep: Rep, big: FiniteGroup, ext_cocycle: Cocycle,
           rng=None) -> Rep:
    """Induction along a cocycle, on functions f with f(hg) = conj(w(h,g)) pi(h) f(g).

    ext_cocycle lives on the big group and must restrict to rep's cocycle on
    rep.group exactly (as exponent tables).  The result's cocycle is
    ext_cocycle, and its dimension is [big : rep.group] * rep.dim.
    """
    return Rep._of(big, ext_cocycle, Induction(rep.group, big, ext_cocycle,
                                               rep.cocycle, rng).apply(rep.matrices))


class Induction:
    """The exact part of inducing from sub to big along ext_cocycle: its
    checks, and the index arrays that ``apply`` reads for any matrices of
    (sub, sub_cocycle), with k right cosets of sub in big.

    Block (i, j) of the induced matrix at g is w(r_i, g) / w(h, r_j) pi(h),
    where r_i g = h r_j; ``cols[i, g]`` is j, ``at[i, g]`` is the position
    of h in sub and ``roots[i, g]`` the phase.  The coset representatives r_i
    are the least elements, or one rng draw per coset.
    """

    __slots__ = ("cols", "at", "roots")

    def __init__(self, sub: FiniteGroup, big: FiniteGroup, ext_cocycle: Cocycle,
                 sub_cocycle: Cocycle, rng=None):
        if not big.contains_subset(sub.elements):
            raise ValueError("rep's group is not a subgroup of the big group")
        if ext_cocycle.group != big:
            raise ValueError("extension cocycle must live on the big group")
        if ext_cocycle.restrict(sub) != sub_cocycle:
            raise ValueError("cocycle restriction mismatch")
        coset = big.right_cosets(sub)[1]
        rows = np.array([r.images for r in right_coset_reps(big, sub, rng)])
        at = big.positions(rows)
        t = rows[:, big.images]  # r_i g for every i and g
        self.cols = coset[big.positions(t)]
        h_rows = np.take_along_axis(t, np.argsort(rows, axis=1)[self.cols], axis=2)
        w, m = ext_cocycle.arr, ext_cocycle.modulus
        exp = (w[at[:, None], np.arange(len(big))]
               - w[big.positions(h_rows), at[self.cols]]) % m
        self.roots = _roots(m)[exp]
        self.at = sub.positions(h_rows)

    def apply(self, matrices: np.ndarray) -> np.ndarray:
        """The induced (|big|, k d, k d) matrices of the (|sub|, d, d) ones,
        or a (b, |big|, k d, k d) stack of a (b, |sub|, d, d) one."""
        (k, n), d = self.cols.shape, matrices.shape[-1]
        stack = matrices.reshape(-1, *matrices.shape[-3:])
        b = len(stack)
        mats = np.zeros((b, n, k, d, k, d), dtype=complex)
        mats[np.arange(b)[:, None, None], np.arange(n), np.arange(k)[:, None], :,
             self.cols, :] = self.roots[:, :, None, None] * stack[:, self.at]
        return mats.reshape(*matrices.shape[:-3], n, k * d, k * d)


# ------------------------------------------------------------ intertwiners

def hom_dim(a: Rep, b: Rep) -> int:
    """Dimension of the space of intertwiners X with a(g) X = X b(g); the
    one-other ``hom_dims``."""
    return hom_dims(a, [b])[0]


def hom_dims(a: Rep, others: list) -> list[int]:
    """``hom_dim(a, b)`` for each b of others, in order: the rank of the
    averaging projector X -> |G|^-1 sum_g a(g)* X b(g), the sum of its
    singular values over RANK_SV_TOL.  Same-cocycle phases cancel, so every
    b must carry a's group and cocycle table.  The others of one dimension
    get one matrix product and one batched SVD, a chunk at a time within
    ``MAX_DENSE_BYTES``."""
    for b in others:
        if a.group != b.group:
            raise ValueError("intertwiners need a common group")
        if a.cocycle != b.cocycle:
            raise ValueError("intertwiners need a common cocycle")
    n, da = len(a.group), a.dim
    conj = a.matrices.conj().reshape(n, -1).T / n  # rows (j, i)
    ranks = [0] * len(others)
    for db in dict.fromkeys(b.dim for b in others):
        at, size = [i for i, b in enumerate(others) if b.dim == db], da * db
        step = max(1, MAX_DENSE_BYTES // (16 * (n * db * db + 2 * size * size)))
        for chunk in (at[i:i + step] for i in range(0, len(at), step)):
            m = conj @ np.stack([others[i].matrices.reshape(n, -1) for i in chunk])
            m = m.reshape(-1, da, da, db, db).transpose(0, 2, 4, 1, 3)  # [c, i, k, j, l]
            svals = np.linalg.svd(m.reshape(-1, size, size), compute_uv=False)
            totals = np.where(svals > RANK_SV_TOL, svals, 0).sum(axis=1).tolist()
            for i, total in zip(chunk, totals):
                rank = round(total)
                if abs(total - rank) > INT_TOL:
                    raise NumericalDegradation(f"non-integral intertwiner rank {total}")
                ranks[i] = rank
    return ranks


# ------------------------------------------------------------ decomposition

_IRREDUCIBLES = Memo()


def clear_caches() -> None:
    _IRREDUCIBLES.clear()


def character_table(group: FiniteGroup, cocycle: Cocycle) -> tuple:
    """(characters as rows, dimensions) of ``irreducibles(group, cocycle)``,
    read-only; memoized next to the classes."""
    def table():
        classes = irreducibles(group, cocycle)
        chars = np.array([c.character() for c in classes])
        dims = np.array([c.dim for c in classes])
        chars.flags.writeable = dims.flags.writeable = False
        return chars, dims
    return _IRREDUCIBLES.get_or(("table", group.key(), cocycle.key()), table)


def _check_rows(chars: np.ndarray, dims, irr: np.ndarray, irr_dims: np.ndarray,
                mults: np.ndarray, raw: np.ndarray) -> None:
    """Raise at the first row of mults, the multiplicities of the matching
    row of chars, that fails a check: its inner products ``raw`` are within
    INT_TOL of mults, its constituents add up to its entry of dims and
    reconstruct its character.  Stacked rows read their stack's table."""
    integral = np.abs(raw - mults).max(axis=-1) <= INT_TOL
    adds_up = (mults * irr_dims[..., None, :]).sum(axis=-1) == dims
    rebuilds = np.abs(mults @ irr - chars).max(axis=-1) <= INT_TOL
    ok = (integral & adds_up & rebuilds).ravel()
    if ok.all():
        return
    row = int(np.argmin(ok))
    if not integral.ravel()[row]:
        raise NumericalDegradation(f"non-integral multiplicities "
                                   f"{np.round(raw.reshape(len(ok), -1)[row], 9).tolist()}")
    if not adds_up.ravel()[row]:
        raise NumericalDegradation("constituent dimensions do not add up")
    raise NumericalDegradation("character reconstruction drifted")


def decompose_characters(group: FiniteGroup, cocycle: Cocycle, chars,
                         dims) -> np.ndarray:
    """Multiplicities of the irreducible constituents of each row of chars,
    the character of a representation of (group, cocycle) of dimension the
    matching entry of dims: an int array with one row per character and one
    column per class of ``irreducibles(group, cocycle)``.

    The multiplicity of an irreducible class is the inner product
    |G|^-1 sum_g chi(g) conj(chi_irr(g)): irreducible characters sharing a
    cocycle are orthonormal (Karpilovsky, Projective Representations of
    Finite Groups, 1985).  Each row must give non-negative integers whose
    constituents add up to its dimension and reconstruct its character;
    the dimensions must come from the construction, not from the characters.
    """
    irr, irr_dims = character_table(group, cocycle)
    return decompose_stack(np.asarray(chars).reshape(-1, len(group)), dims, irr,
                           irr_dims, len(group))


def decompose_stack(chars: np.ndarray, dims, irr: np.ndarray, irr_dims: np.ndarray,
                    order) -> np.ndarray:
    """``decompose_characters`` on a stack of groups: chars[..., r, :] is a
    character of dimension dims[..., r] of a group of order order[...],
    whose irreducible characters are the rows of irr[...], of dimensions
    irr_dims[...]; all are laid out over one list of elements, zero off the
    group.  A zero row of irr stands for no class and reads multiplicity 0."""
    raw = chars @ irr.conj().swapaxes(-1, -2) / np.asarray(order)[..., None, None]
    mults = np.rint(raw.real).clip(0)  # a negative multiplicity fails as non-integral
    _check_rows(chars, dims, irr, irr_dims, mults, raw)
    return mults.astype(np.int64)


def decompose_character(group: FiniteGroup, cocycle: Cocycle, char,
                        dim: int) -> dict[RepClass, int]:
    """Multiset of irreducible constituents of the character of a dim-dimensional
    representation of (group, cocycle); the one-row ``decompose_characters``.
    The keys are the classes of ``irreducibles(group, cocycle)``."""
    mults = decompose_characters(group, cocycle, char, dim)[0].tolist()
    return {cls: m for cls, m in zip(irreducibles(group, cocycle), mults) if m}


def decompose(rep: Rep) -> dict[RepClass, int]:
    """Multiset of irreducible constituents of rep; see ``decompose_character``."""
    return decompose_character(rep.group, rep.cocycle, rep.character(), rep.dim)


def irreducibles(group: FiniteGroup,
                 cocycle: Optional[Cocycle] = None) -> tuple[RepClass, ...]:
    """All irreducible classes, canonically ordered by (dim, character).

    Read from the character table of the central extension of group by the
    cocycle (``_extension_tables``, ``_class_characters``): its rows with
    central character zeta_m, restricted to (0, g).  Raises
    ``NumericalDegradation`` unless the degrees are integral, their squares
    add up to |G| and the rows are orthonormal, all within INT_TOL.
    """
    if cocycle is None:
        cocycle = Cocycle.trivial(group)
    return _IRREDUCIBLES.get_or((group.key(), cocycle.key()),
                                _irreducibles, group, cocycle)


def _irreducibles(group: FiniteGroup, cocycle: Cocycle) -> tuple[RepClass, ...]:
    if cocycle.group != group:
        raise ValueError("cocycle lives on a different group")
    n, m = len(group), cocycle.modulus
    table = _class_characters(*_extension_tables(group, cocycle))
    degrees = np.rint(table[:, 0].real)
    if np.abs(table[:, 0] - degrees).max() > INT_TOL:
        raise NumericalDegradation(
            f"non-integral degrees {np.round(table[:, 0], 9).tolist()}")
    if m > 1:  # (1, e) is element n and acts as zeta_m
        keep = np.abs(table[:, n] - _roots(m)[1] * table[:, 0]) <= INT_TOL
        table, degrees = table[keep, :n], degrees[keep]
    if int(np.sum(degrees ** 2)) != n:
        raise NumericalDegradation(
            f"squared degrees {degrees.astype(int).tolist()} miss |G| = {n}")
    if np.abs(table @ table.conj().T / n - np.eye(len(table))).max() > INT_TOL:
        raise NumericalDegradation("irreducible characters are not orthonormal")
    classes = (RepClass(group, cocycle, int(d), row) for d, row in zip(degrees, table))
    return tuple(sorted(classes, key=RepClass.sort_key))


def _extension_tables(group: FiniteGroup, cocycle: Cocycle) -> tuple:
    """Multiplication and inverse tables and conjugacy classes (as
    ``conjugacy_classes`` gives them) of Z/m x_omega G, with (a, g) at index
    a |G| + g and (a, g)(b, h) = (a + b + omega(g, h), gh); the group's own
    when m = 1."""
    mul, inv, m = group.mul_table(), group.inv_indices(), cocycle.modulus
    if m == 1:
        return mul, inv, conjugacy_classes(group)
    n, t, a = len(group), cocycle.arr, np.arange(m)
    ext_mul = ((a[:, None, None, None] + a[None, None, :, None] + t[None, :, None, :]) % m
               * n + mul[None, :, None, :]).reshape(m * n, m * n)
    ext_inv = ((-a[:, None] - t[np.arange(n), inv]) % m * n + inv).reshape(m * n)
    return ext_mul, ext_inv, _classes(ext_mul[ext_mul, ext_inv[:, None]])


def conjugacy_classes(group: FiniteGroup) -> tuple:
    """(least member, class of each element, size) of the conjugacy classes
    of group, each class numbered by its least member, so the identity's
    class is class 0; memoized next to the irreducible classes."""
    return _IRREDUCIBLES.get_or(("classes", group.key()),
                                lambda: _classes(group.conj_table()))


def _classes(conj: np.ndarray) -> tuple:
    """``conjugacy_classes`` of the group with conjugation table conj."""
    return np.unique(conj.min(axis=0), return_inverse=True, return_counts=True)


def _class_characters(mul: np.ndarray, inv: np.ndarray, classes: tuple) -> np.ndarray:
    """The irreducible characters of the group with these multiplication
    and inverse tables and conjugacy classes, one row each over its
    elements, by Burnside's class-sum method.

    Class sums multiply as K_j K_k = sum_l c_jkl K_l, and each irreducible
    chi gives the central character w_l = |C_l| chi(z_l) / chi(1) with
    w_j w_k = sum_l c_jkl w_l: w is a right eigenvector of every matrix
    (c_jkl)_kl, normalised by w = 1 at the identity.  One fixed-seed random
    combination of those matrices (weighted by 1 / |C_j|) gives every w at
    once when its eigenvalues are separated by EIG_GAP_TOL; otherwise the
    next seed is tried, up to MAX_SEEDS.  The degree follows from
    sum_l |w_l|^2 / |C_l| = |G| / chi(1)^2.
    """
    n, (reps, cls_of, sizes) = len(mul), classes
    r = len(reps)
    lands = _class_coefficients(mul, inv, cls_of, reps)
    flat = (lands * r + np.arange(r)).ravel()
    for attempt in range(MAX_SEEDS):
        weights = np.broadcast_to((_draw(attempt, n, r) / sizes)[cls_of][:, None],
                                  lands.shape).ravel()
        combo = np.bincount(flat, weights, minlength=r * r).reshape(r, r)
        eig, vecs = np.linalg.eig(combo)
        gaps = np.abs(eig[:, None] - eig)
        np.fill_diagonal(gaps, np.inf)
        if gaps.min() > EIG_GAP_TOL:
            break
    else:
        raise NumericalDegradation(
            f"class-sum eigenvalues of a group of order {n} stay unseparated "
            f"after {MAX_SEEDS} seeds")
    central = (vecs / vecs[0]).T  # rows w, over classes
    degrees = np.sqrt(n / (np.abs(central) ** 2 / sizes).sum(axis=1))
    return (degrees[:, None] * central / sizes)[:, cls_of]


def _class_coefficients(mul: np.ndarray, inv: np.ndarray, cls_of: np.ndarray,
                        reps: np.ndarray) -> np.ndarray:
    """lands[x, l] = the class of x^-1 z_l, z_l the least element of class l:
    c_jkl counts the x of class j with lands[x, l] = k."""
    return cls_of[mul[inv[:, None], reps]]


def _draw(attempt: int, n: int, shape) -> np.ndarray:
    """Standard normal draws of the fixed seed (attempt, n): the classes
    cached by irreducibles must not depend on which caller asked first."""
    return np.random.default_rng((attempt, n)).normal(size=shape)


def _class_rep(cls: RepClass) -> Rep:
    """A representation in cls, checked by ``Rep(...)``.

    A degree-1 class is its character.  Otherwise the chi-isotypic part of
    the regular representation rho, the image of the projection
    P = (d/|G|) sum_g conj chi(g) rho(g), holds d copies of the class; it is
    read from index arrays (P[k, h] = (d/|G|) conj chi(g) omega(g, h) with
    g = k h^-1) and must have rank d^2.  Averaging a random Hermitian matrix
    X over the group, |G|^-1 sum_g rho(g)* X rho(g), gives an intertwiner
    whose eigenspaces of dimension d are copies of the class.
    """
    group, cocycle, d, n = cls.group, cls.cocycle, cls.dim, len(cls.group)
    if d == 1:
        return _class_block(cls, cls.character().reshape(n, 1, 1))
    check_dense_size(f"a degree-{d} class of a group of order {n}", (n * d) ** 2)
    mul, omega = group.mul_table(), _roots(cocycle.modulus)[cocycle.arr]
    g = mul[:, group.inv_indices()]
    vals, vecs = np.linalg.eigh(d / n * cls.character().conj()[g] * omega[g, np.arange(n)])
    inside = vals > 0.5
    if inside.sum() != d * d or np.abs(vals - inside).max() > INT_TOL:
        raise NumericalDegradation(
            f"isotypic projection of a degree-{d} class has rank "
            f"{int(inside.sum())}, not {d * d}")
    basis = vecs[:, inside]
    # B* rho(g) B = sum_h conj B[gh]^T omega(g, h) B[h]
    moved = basis[mul]
    np.conjugate(moved, out=moved)
    moved *= omega[:, :, None]
    piece = moved.transpose(0, 2, 1) @ basis
    for attempt in range(MAX_SEEDS):
        x = _draw(attempt, n, (d * d, d * d, 2)) @ np.array([1, 1j])
        vals, vecs = np.linalg.eigh(
            (piece.conj().transpose(0, 2, 1) @ (x + x.conj().T) @ piece).mean(axis=0))
        cuts = [0, *np.flatnonzero(np.diff(vals) > EIG_GAP_TOL) + 1, d * d]
        sizes = np.diff(cuts)
        if (sizes == d).any():
            at = cuts[int(np.argmax(sizes == d))]
            u = vecs[:, at:at + d]
            return _class_block(cls, u.conj().T @ piece @ u)
    raise NumericalDegradation(
        f"no eigenspace of dimension {d} in the isotypic part after {MAX_SEEDS} seeds")


def _class_block(cls: RepClass, matrices: np.ndarray) -> Rep:
    rep = Rep(cls.group, cls.cocycle, matrices)
    if rep.char_key() != cls.char:
        raise NumericalDegradation(
            f"the matrices built for a degree-{cls.dim} class have another character")
    return rep
