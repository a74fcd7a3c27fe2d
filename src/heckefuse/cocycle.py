"""Scalar 2-cocycles on finite groups with values in roots of unity.

A cocycle is stored additively: its value at (g, h) is exp(2*pi*i*e/m)
where e = arr[i, j] is an exponent mod m in one int64 array, and i, j
index the canonical element order of the group.  Every cohomology class of
a finite group has a representative with values in some mu_m, so nothing is
lost and all cohomology questions become exact linear algebra over Z/m.

Cocycles are normalized, omega(e, g) = omega(g, e) = 1.  ``Cocycle(...)``
checks a table from outside exactly; products, pullbacks and coboundaries
of checked values build through the unchecked ``Cocycle._of``.
"""

from __future__ import annotations

from math import gcd, lcm
from typing import Optional

import numpy as np

from .permcore import FiniteGroup, Memo, Perm, conj_map


class CocycleError(ValueError):
    """A cocycle axiom fails; carries a witness in the message."""


_TRIVIAL_CACHE = Memo()


class Cocycle:
    """A normalized scalar 2-cocycle with values in m-th roots of unity.

    ``arr`` is the (|G|, |G|) int64 array of exponents mod m.  The
    constructor checks a table from outside; ``_of`` is unchecked.
    """

    def __init__(self, group: FiniteGroup, modulus: int, table):
        if modulus < 1:
            raise ValueError("modulus must be positive")
        n = len(group)
        arr = np.array(table, dtype=np.int64)
        if arr.shape != (n, n):
            raise ValueError("table must be |G| x |G|")
        self._fill(group, modulus, arr)
        self._validate()

    @classmethod
    def _of(cls, group: FiniteGroup, modulus: int, arr: np.ndarray) -> "Cocycle":
        """The cocycle with this (|G|, |G|) integer exponent array, unchecked:
        for constructions from cocycles or from a checked chart."""
        omega = cls.__new__(cls)
        omega._fill(group, modulus, arr)
        return omega

    def _fill(self, group, modulus, arr) -> None:
        arr = arr % modulus
        self.group = group
        self.modulus = modulus
        self.arr = arr
        # reduced so equal root-of-unity functions compare equal; the gcd is
        # the modulus iff the table is zero
        g = gcd(modulus, int(np.gcd.reduce(arr, axis=None)))
        self._key = (group.key(), modulus // g, (arr // g).tobytes())

    @property
    def table(self) -> tuple:
        """The exponents as nested tuples of ints."""
        return tuple(map(tuple, self.arr.tolist()))

    def _validate(self) -> None:
        """Check normalization on all of G, the cocycle identity on G x G x S.

        S is ``small_generating_set()``.  F = delta(omega) satisfies
        delta(F) = 0, so F(g, h, s) = 0 for every generator s gives
        F(g, h, k s) = F(g, h, k); with F(g, h, e) = 0 from normalization,
        F vanishes everywhere.  The work is n^2 |S| instead of n^3.
        """
        group, m, t = self.group, self.modulus, self.arr
        els = group.elements
        off = np.flatnonzero(t[0] | t[:, 0])
        if len(off):
            raise CocycleError(f"not normalized at ({els[off[0]].cycle_string()})")
        mul = group.mul_table()
        for s in group.small_generating_set():
            k = group.index_of(s)
            fails = np.argwhere((t + t[mul, k] - t[:, k] - t[:, mul[:, k]]) % m)
            if len(fails):
                i, j = fails[0]
                raise CocycleError(
                    "cocycle identity fails at "
                    f"({els[i].cycle_string()}, {els[j].cycle_string()}, "
                    f"{s.cycle_string()})")

    @classmethod
    def trivial(cls, group: FiniteGroup, modulus: int = 1) -> "Cocycle":
        n = len(group)
        return _TRIVIAL_CACHE.get_or((group.key(), modulus), lambda: cls._of(
            group, modulus, np.zeros((n, n), np.int64)))

    def is_trivial_table(self) -> bool:
        return not self.arr.any()

    def rescale(self, new_modulus: int) -> "Cocycle":
        if new_modulus == self.modulus:
            return self
        if new_modulus % self.modulus:
            raise ValueError("new modulus must be a multiple of the old one")
        return Cocycle._of(self.group, new_modulus,
                           self.arr * (new_modulus // self.modulus))

    def __mul__(self, other: "Cocycle") -> "Cocycle":
        if other.group != self.group:
            raise ValueError("cocycles live on different groups")
        m = lcm(self.modulus, other.modulus)
        return Cocycle._of(self.group, m, self.rescale(m).arr + other.rescale(m).arr)

    def inverse(self) -> "Cocycle":
        return Cocycle._of(self.group, self.modulus, -self.arr)

    def restrict(self, sub: FiniteGroup) -> "Cocycle":
        idx = self.group.positions(sub.images)
        if (idx < 0).any():
            raise ValueError("restriction target is not a subgroup")
        return self.pullback(sub, idx)

    def pullback(self, new_group: FiniteGroup, idx) -> "Cocycle":
        """The cocycle (x, y) -> self(fwd x, fwd y) for a homomorphism fwd,
        given as idx[i] = position in self.group of fwd(new_group element i)."""
        idx = np.asarray(idx)
        return Cocycle._of(new_group, self.modulus, self.arr[np.ix_(idx, idx)])

    def key(self):
        return self._key

    def __eq__(self, other) -> bool:
        return isinstance(other, Cocycle) and self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        flavor = "trivial" if self.is_trivial_table() else f"mod {self.modulus}"
        return f"Cocycle({flavor} on order-{len(self.group)} group)"


class PhaseFunction:
    """A function group -> mu_m, stored as an int64 array of exponents; phi(e) = 0."""

    def __init__(self, group: FiniteGroup, modulus: int, values):
        values = np.array(values, dtype=np.int64) % modulus
        if values.shape != (len(group),):
            raise ValueError("need one value per group element")
        if values[0]:  # the identity is element 0
            raise ValueError("phase must vanish at the identity")
        self.group = group
        self.modulus = modulus
        self.values = values

    def rescale(self, new_modulus: int) -> "PhaseFunction":
        if new_modulus % self.modulus:
            raise ValueError("new modulus must be a multiple of the old one")
        return PhaseFunction(self.group, new_modulus,
                             self.values * (new_modulus // self.modulus))

    def __mul__(self, other: "PhaseFunction") -> "PhaseFunction":
        if other.group != self.group:
            raise ValueError("phases live on different groups")
        m = lcm(self.modulus, other.modulus)
        return PhaseFunction(self.group, m,
                             self.rescale(m).values + other.rescale(m).values)

    def inverse(self) -> "PhaseFunction":
        return PhaseFunction(self.group, self.modulus, -self.values)

    def coboundary(self) -> Cocycle:
        """The cocycle (g, h) -> phi(g) phi(h) / phi(gh); always valid."""
        v = self.values
        return Cocycle._of(self.group, self.modulus,
                           v[:, None] + v - v[self.group.mul_table()])

    def __eq__(self, other) -> bool:
        if not isinstance(other, PhaseFunction) or other.group != self.group:
            return False
        m = lcm(self.modulus, other.modulus)
        return np.array_equal(self.rescale(m).values, other.rescale(m).values)

    def __hash__(self) -> int:
        return hash((self.group.key(), self.modulus, self.values.tobytes()))


def coboundary(phi: PhaseFunction) -> Cocycle:
    return phi.coboundary()


# ------------------------------------------------------------------ solving

def _diagonalize(mat: list[list[int]]):
    """Integer diagonalization D = U * mat * V by elementary operations."""
    m = [row[:] for row in mat]
    rows, cols = len(m), len(m[0])
    u = [[int(i == j) for j in range(rows)] for i in range(rows)]
    v = [[int(i == j) for j in range(cols)] for i in range(cols)]

    def swap_rows(i, j):
        m[i], m[j] = m[j], m[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in m:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(i, j, q):  # row i += q * row j
        m[i] = [a + q * b for a, b in zip(m[i], m[j])]
        u[i] = [a + q * b for a, b in zip(u[i], u[j])]

    def add_col(i, j, q):  # col i += q * col j
        for row in m:
            row[i] += q * row[j]
        for row in v:
            row[i] += q * row[j]

    for t in range(min(rows, cols)):
        while True:
            pivot = None
            for i in range(t, rows):
                for j in range(t, cols):
                    if m[i][j] and (pivot is None
                                    or abs(m[i][j]) < abs(m[pivot[0]][pivot[1]])):
                        pivot = (i, j)
            if pivot is None:
                return m, u, v
            swap_rows(t, pivot[0])
            swap_cols(t, pivot[1])
            dirty = False
            for i in range(rows):
                if i != t and m[i][t]:
                    add_row(i, t, -(m[i][t] // m[t][t]))
                    dirty = dirty or bool(m[i][t])
            for j in range(cols):
                if j != t and m[t][j]:
                    add_col(j, t, -(m[t][j] // m[t][t]))
                    dirty = dirty or bool(m[t][j])
            if not dirty:
                break
    return m, u, v


def _solve_mod(a: list[list[int]], b: list[int], modulus: int) -> Optional[list[int]]:
    """One solution x of a x = b (mod modulus), or None."""
    rows = len(a)
    cols = len(a[0]) if rows else 0
    if rows == 0:
        return [0] * cols
    aug = [row[:] + [modulus if j == i else 0 for j in range(rows)]
           for i, row in enumerate(a)]
    d, u, v = _diagonalize(aug)
    c = [sum(u[i][k] * b[k] for k in range(rows)) for i in range(rows)]
    n = cols + rows
    w = [0] * n
    for i in range(rows):
        dii = d[i][i] if i < n else 0
        if dii:
            if c[i] % dii:
                return None
            w[i] = c[i] // dii
        elif c[i]:
            return None
    x = [sum(v[i][k] * w[k] for k in range(n)) for i in range(n)]
    return [xi % modulus for xi in x[:cols]]


def coboundary_witness(target: Cocycle) -> Optional[PhaseFunction]:
    """A phase phi with coboundary(phi) = target, if target is a coboundary.

    phi(g s) = phi(g) + phi(s) - target(g, s) propagates phi along a
    breadth-first tree over S = ``small_generating_set()``, so phi is affine
    in the |S| unknowns phi(s); each non-tree edge (g, s) gives one row mod m,
    at most |G| |S| rows in all.  Solving them suffices: if d = target -
    delta(phi) vanishes on G x S, the cocycle identity gives d(g, h s) =
    d(g, h), so d = 0.
    """
    group, m = target.group, target.modulus
    gens = [group.index_of(s) for s in group.small_generating_set()]
    mul = group.mul_table()[:, gens].tolist()
    table = target.arr[:, gens].tolist()
    affine = {0: ((0,) * len(gens), 0)}  # index -> (coefficients, constant)
    rows: dict = {}
    queue = [0]  # the identity is element 0
    for g in queue:  # grows while iterating: breadth-first
        coeffs, const = affine[g]
        for c in range(len(gens)):
            gs = mul[g][c]
            new = (tuple((a + (t == c)) % m for t, a in enumerate(coeffs)),
                   (const - table[g][c]) % m)
            old = affine.get(gs)
            if old is None:
                affine[gs] = new
                queue.append(gs)
            else:  # a non-tree edge: both affine forms of phi(gs) must agree
                rows[tuple((a - b) % m for a, b in zip(new[0], old[0])),
                     (old[1] - new[1]) % m] = None
    x = _solve_mod([list(r) for r, _ in rows], [b for _, b in rows], m)
    if x is None:
        return None
    values = [0] * len(group)
    for i, (coeffs, const) in affine.items():
        values[i] = (const + sum(a * xi for a, xi in zip(coeffs, x))) % m
    phi = PhaseFunction(group, m, values)
    if phi.coboundary() != target:
        raise RuntimeError(
            f"solved phase {phi.values.tolist()} is not a coboundary witness")
    return phi


def cohomology_witness(a: Cocycle, b: Cocycle) -> Optional[PhaseFunction]:
    """A phase phi with b = coboundary(phi) * a, if a and b are cohomologous."""
    if a.group != b.group:
        raise ValueError("cocycles live on different groups")
    if a.modulus != b.modulus:
        raise ValueError(f"modulus mismatch: {a.modulus} != {b.modulus}")
    return coboundary_witness(b * a.inverse())


def are_cohomologous(a: Cocycle, b: Cocycle) -> bool:
    m = lcm(a.modulus, b.modulus)
    return coboundary_witness(b.rescale(m) * a.rescale(m).inverse()) is not None


def group_exponent(group: FiniteGroup) -> int:
    m = 1
    for g in group.elements:
        m = lcm(m, g.order())
    return m


def coboundary_witness_s1(target: Cocycle) -> Optional[PhaseFunction]:
    """Like coboundary_witness, but with circle-valued semantics.

    A root-of-unity cocycle can split over S^1 even when the linear system
    at its own modulus m is unsolvable; any circle-valued witness has values
    in mu_(m * exp(G)), so solving at that modulus decides splitting over S^1.
    """
    m = target.modulus * group_exponent(target.group)
    return coboundary_witness(target.rescale(m))


# ------------------------------------------------------------------ twists

def conjugation_phase(omega: Cocycle, g: Perm) -> PhaseFunction:
    """The phase whose coboundary measures omega o Ad g against omega.

    phase(h) = omega(g h g^-1, g) / omega(g, h); the identity
    (omega o Ad g) = coboundary(phase) * omega is verified on construction,
    so a failure here means the input table is not a cocycle.  It is
    checked on the rows s of ``small_generating_set()`` against every h:
    both sides are cocycles, and a cocycle c has
    c(st, h) = c(s, th) c(t, h) / c(s, t), so agreement on S x G carries
    to G x G.  The work is |S| |G| instead of |G|^2.
    """
    group, t, m = omega.group, omega.arr, omega.modulus
    if g not in group:
        raise ValueError("g must lie in the cocycle's group")
    k, moved = group.index_of(g), conj_map(group, g, group)
    phi = PhaseFunction(group, m, t[moved, k] - t[k])
    v, mul = phi.values, group.mul_table()
    for s in group.small_generating_set():
        i = group.index_of(s)
        off = np.flatnonzero((t[moved[i], moved] - t[i] - v[i] - v + v[mul[i]]) % m)
        if len(off):
            raise CocycleError(
                f"conjugation identity fails for {g.cycle_string()} at "
                f"({s.cycle_string()}, {group.elements[off[0]].cycle_string()})")
    return phi


# ------------------------------------------------------------------ catalog cocycles

def heisenberg_group(n: int) -> tuple[FiniteGroup, dict[Perm, tuple[int, int]]]:
    """(Z/n)^2 as two disjoint n-cycles, with its coordinate chart."""
    if n < 2:
        raise ValueError("n must be at least 2")
    a = Perm.from_cycles(2 * n, [list(range(n))])
    b = Perm.from_cycles(2 * n, [list(range(n, 2 * n))])
    group = FiniteGroup.generate(2 * n, [a, b])
    coords = {g: (g(0), g(n) - n) for g in group.elements}
    return group, coords


def bilinear_cocycle(group: FiniteGroup, coords: dict[Perm, tuple[int, int]],
                     n: int, k: int) -> Cocycle:
    """Exponent table k * x * y' mod n on a group charted over (Z/n)^2.

    The chart must be an isomorphism onto (Z/n)^2.  The commutation phase
    of the resulting cocycle at ((x,y),(x',y')) is the symplectic form
    exp(2*pi*i*k*(x*y' - y*x')/n); classes are k = 0, .., n-1.
    """
    if len(group) != n * n:
        raise ValueError("group order must be n^2")
    x, y = np.array([coords[g] for g in group.elements], dtype=np.int64).T
    mul = group.mul_table()
    for c in (x, y):
        if ((c[mul] - c[:, None] - c) % n).any():
            raise ValueError("chart is not additive")
    # an additive chart vanishes at e, so k x y' is a normalized bilinear form
    return Cocycle._of(group, n, k * x[:, None] * y)


def heisenberg_cocycle(n: int, k: int):
    """The standard (Z/n)^2 pair: (group, coords chart, cocycle of class k)."""
    if not 0 <= k < n:
        raise ValueError("need 0 <= k < n")
    group, coords = heisenberg_group(n)
    return group, coords, bilinear_cocycle(group, coords, n, k)
