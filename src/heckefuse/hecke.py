"""The Hecke fusion algebra of N-valued bi-invariant functions on double cosets.

Elements are finitely supported maps label -> positive integer, where labels
canonically index double cosets.  Convolution is

    (x * y)(g) = sum over right cosets h of x(g h^-1) y(h),

computed exactly from right-coset representatives of the support of y.
Three backends provide labels and coset data:

* ``FiniteHecke``     -- a finite pair Gamma <= G of permutation groups;
* ``GL2Hecke``        -- SL(2,Z) inside rational 2x2 matrices of positive
  determinant; a label is the elementary-divisor pair (d1, d2), d2/d1 a
  positive integer m, held as the integers (n, q, m) with d1 = n/q in
  lowest terms; an element is (n, q, P), the content n/q times a primitive
  integer matrix P with det P > 0;
* ``BostConnesHecke`` -- the integer-translation subgroup inside the rational
  ax+b group; a label or element (a, b) is held as the integers
  (p, q, r, s) with a = p/q and b = r/s in lowest terms.

The two arithmetic backends also give the product of two basis elements in
closed form (``closed_product``): GL2 by the local product formula of
Shimura's and Macdonald's Hecke rings, ax+b by one coefficient spread over
``product_support``.  ``multiply``, the product behind ``*`` and
``parse_element``, expands over those closed forms and falls back on
``convolve`` for finite pairs.  ``convolve`` stays the generic path on every
backend and is the oracle the closed forms are checked against; each backend
memoizes the convolved products of basis elements that the algebra laws read
(``basis_product``), and a finite backend holds them as its table of
structure constants H (``structure_constants``).

All coefficients are Python integers and all label data is exact, so there
is no overflow and no rounding anywhere in this module.  Arithmetic labels
and elements are plain integer tuples, cheap to hash, so convolution builds
and hashes no ``Fraction``.  Rationals appear only at the boundary:
``parse_label`` reads and validates the text ``d1,d2`` or ``a;b`` once,
``label_str`` prints it, ``sort_key`` orders labels as the rational pairs
(d1, d2) and (a, b), and ``modular_lambda`` returns a ``Fraction``.
"""

from __future__ import annotations

import functools
import re
from fractions import Fraction
from math import gcd, lcm
from typing import Optional

from .permcore import DoubleCosetSystem, FiniteGroup, Memo, Perm, Subgroup
from .ring import Table

_LETTERS = "KLMNPQRSUVWXYZABCDFGHIJ"


class FiniteHecke:
    """Backend for a finite pair gamma <= group."""

    kind = "finite"

    def __init__(self, group: FiniteGroup, gamma: Subgroup,
                 cosets: Optional[DoubleCosetSystem] = None):
        self.group = group
        self.gamma = gamma
        self.cosets = cosets if cosets is not None else DoubleCosetSystem(group, gamma)
        self._products = Memo()
        self._names = {}
        self._by_name = {}
        for i, label in enumerate(self.cosets.labels()):
            name = "e" if i == 0 else (
                _LETTERS[i - 1] if i - 1 < len(_LETTERS) else f"C{i}")
            self._names[label] = name
            self._by_name[name] = label

    @property
    def unit_label(self) -> Perm:
        return self.cosets.labels()[0]

    def labels(self) -> list[Perm]:
        return self.cosets.labels()

    def canonical_label(self, x: Perm) -> Perm:
        return self.cosets.label_of(x)

    def element_of(self, label: Perm) -> Perm:
        return label

    def right_reps(self, label: Perm) -> tuple:
        return self.cosets.coset(label).right_reps

    def mul(self, x: Perm, y: Perm) -> Perm:
        return x * y

    def inv(self, x: Perm) -> Perm:
        return x.inverse()

    def left_count(self, label: Perm) -> int:
        return self.cosets.coset(label).left_count

    def right_count(self, label: Perm) -> int:
        return self.cosets.coset(label).right_count

    def sort_key(self, label: Perm):
        return label.images

    def label_str(self, label: Perm) -> str:
        return self._names[label]

    def parse_label(self, text: str) -> Perm:
        text = text.strip()
        if text in self._by_name:
            return self._by_name[text]
        g = Perm.parse(self.group.degree, text)
        if g not in self.group:
            raise ValueError(f"{g.cycle_string()} is not an element of G")
        return self.canonical_label(g)


# ------------------------------------------------------------------ GL2

Mat = tuple  # (a, b, c, d): rows (a b) / (c d), entries int
Elt = tuple  # (n, q, P): content n/q in lowest terms times a primitive Mat, det P > 0

_HNF_REPS = Memo()


def _lowest(n: int, d: int) -> tuple[int, int]:
    """n/d in lowest terms, for d > 0."""
    g = gcd(n, d)
    return n // g, d // g


def primitive_hnf_reps(m: int) -> tuple[Mat, ...]:
    """Upper-triangular (a b / 0 d) with ad = m, 0 <= b < d, gcd(a, b, d) = 1."""
    return _HNF_REPS.get_or(m, _primitive_hnf_reps, m)


def _primitive_hnf_reps(m: int) -> tuple[Mat, ...]:
    out = []
    for a in range(1, m + 1):
        if m % a:
            continue
        d = m // a
        for b in range(d):
            if gcd(a, b, d) == 1:
                out.append((a, b, 0, d))
    return tuple(out)


def _factor(n: int) -> dict[int, int]:
    """Prime -> exponent for a positive integer, by trial division."""
    out, p = {}, 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _local_coeffs(p: int, m: int, n: int) -> list[int]:
    """c_0..c_n of T(1, p^m) T(1, p^n) = sum_k c_k T(p^k, p^(m+n-k)), m >= n."""
    if n == 0:
        return [1]
    inner = [p ** (k - 1) * (p - 1) for k in range(1, n)]
    return [1, *inner, p ** (n - 1) * (p + 1) if m == n else p ** n]


class GL2Hecke:
    """SL(2,Z) double cosets of rational 2x2 matrices with positive determinant.

    A double coset has elementary divisors (d1, d2), positive rationals with
    d2/d1 a positive integer m; its label is (n, q, m) with d1 = n/q in
    lowest terms.  A primitive integer matrix P has elementary divisors
    (1, det P), so the element (n, q, P) has label (n, q, det P).
    Right-coset representatives pair the content n/q with the primitive
    Hermite forms of determinant m.
    """

    kind = "gl2"

    def __init__(self):
        self._products = Memo()

    @property
    def unit_label(self):
        return (1, 1, 1)

    def canonical_label(self, x: Elt):
        n, q, p = x
        return (n, q, p[0] * p[3] - p[1] * p[2])

    def element_of(self, label) -> Elt:
        n, q, m = label
        return (n, q, (1, 0, 0, m))

    def right_reps(self, label) -> list[Elt]:
        n, q, m = label
        return [(n, q, h) for h in primitive_hnf_reps(m)]

    def mul(self, x: Elt, y: Elt) -> Elt:
        (nx, qx, p), (ny, qy, r) = x, y
        m = (p[0] * r[0] + p[1] * r[2], p[0] * r[1] + p[1] * r[3],
             p[2] * r[0] + p[3] * r[2], p[2] * r[1] + p[3] * r[3])
        g = gcd(*m)
        return (*_lowest(nx * ny * g, qx * qy),
                (m[0] // g, m[1] // g, m[2] // g, m[3] // g))

    def inv(self, x: Elt) -> Elt:
        # (c P)^-1 = adj P / (c det P), and adj P is primitive with det P
        n, q, (a, b, g, d) = x
        return (*_lowest(q, n * (a * d - b * g)), (d, -b, -g, a))

    def inverse_label(self, label):
        return self.canonical_label(self.inv(self.element_of(label)))

    def closed_product(self, kx, ky) -> dict:
        """T(kx) T(ky) as {label: coefficient}, in closed form.

        T(d1, d2) = T(d1, d1) T(1, n) with n = d2/d1, where T(d, d) is the
        one coset of the central d I; T(1, n) T(1, n') is multiplicative
        over the primes of n n', and for m >= n locally

            T(1, p^m) T(1, p^n) = sum_{k=0..n} c_k T(p^k, p^(m+n-k))

        with c_0 = 1, c_k = p^(k-1) (p-1) for 0 < k < n, and c_n =
        p^(n-1) (p+1) if m = n, else p^n (Shimura 1971, ch. 3; Macdonald,
        Symmetric Functions and Hall Polynomials, ch. V).
        """
        (nx, qx, mx), (ny, qy, my) = kx, ky
        fx, fy = _factor(mx), _factor(my)
        terms = {(1, 1): 1}  # integer (d1, d2) -> coefficient
        for p in fx.keys() | fy.keys():
            m, n = sorted((fx.get(p, 0), fy.get(p, 0)), reverse=True)
            local = _local_coeffs(p, m, n)
            terms = {(d1 * p ** k, d2 * p ** (m + n - k)): c * ck
                     for (d1, d2), c in terms.items() for k, ck in enumerate(local)}
        # the content (nx ny)/(qx qy) times each (d1, d2)
        return {(*_lowest(nx * ny * d1, qx * qy), d2 // d1): c
                for (d1, d2), c in terms.items()}

    def right_count(self, label) -> int:
        """psi(m) = m prod_{p | m} (1 + 1/p), m = d2/d1: the number of
        primitive Hermite forms of determinant m, without listing them."""
        count = 1
        for p, e in _factor(label[2]).items():
            count *= p ** (e - 1) * (p + 1)
        return count

    def left_count(self, label) -> int:
        # left cosets of the coset of g = right cosets of the coset of g^-1
        return self.right_count(self.inverse_label(label))

    def sort_key(self, label):
        # the order of (d1, d2): d2 = d1 m, so after d1 the order of m
        n, q, m = label
        return (Fraction(n, q), m)

    def label_str(self, label) -> str:
        n, q, m = label
        return f"{Fraction(n, q)},{Fraction(n * m, q)}"

    def parse_label(self, text: str):
        """The label of the text ``d1,d2``, checked: d1 > 0 and d2/d1 a
        positive integer."""
        if text.strip() == "e":
            return self.unit_label
        parts = text.split(",")
        if len(parts) != 2:
            raise ValueError(f"GL2 labels look like 'd1,d2', got {text!r}")
        d1, d2 = (Fraction(p.strip()) for p in parts)
        if d1 > 0:
            # d2 / d1 = (n2 q1) / (q2 n1)
            m, rem = divmod(d2.numerator * d1.denominator,
                            d2.denominator * d1.numerator)
            if not rem and m >= 1:
                return (d1.numerator, d1.denominator, m)
        raise ValueError(f"not a valid label: {d1},{d2}")


# ------------------------------------------------------------------ ax + b

class BostConnesHecke:
    """Integer translations inside the rational ax+b group, exactly.

    Group law (a, b)(c, d) = (ac, ad + b) with a ranging over positive
    rationals; the subgroup is (1, Z).  The double coset of (a, b) is
    {(a, b')} with b' running over b + Z + aZ = b + (1/q)Z, q = denom(a),
    so labels are (a, b mod 1/q) with the least nonnegative residue.  An
    element or label (a, b) is the integer tuple (p, q, r, s) with a = p/q
    and b = r/s in lowest terms; ``element`` builds one from rationals.
    """

    kind = "bc"

    def __init__(self):
        self._reps_cache = Memo()
        self._products = Memo()

    @property
    def unit_label(self):
        return (1, 1, 0, 1)

    @staticmethod
    def element(a, b) -> tuple:
        """The element (a, b) of two rationals (ints or Fractions), a > 0."""
        if a <= 0:
            raise ValueError("the scaling part must be positive")
        return (a.numerator, a.denominator, b.numerator, b.denominator)

    def canonical_label(self, x):
        p, q, r, s = x
        # b mod 1/q = ((r q) mod s) / (s q)
        return (p, q, *_lowest(r * q % s, s * q))

    def element_of(self, label):
        return label

    def right_reps(self, label) -> list:
        return self._reps_cache.get_or(label, self._right_reps, label)

    @staticmethod
    def _right_reps(label) -> list:
        # b + j/q = (r q + j s) / (s q)
        p, q, r, s = label
        return [(p, q, *_lowest(r * q + j * s, s * q)) for j in range(q)]

    def mul(self, x, y):
        # (a1 a2, a1 b2 + b1), a1 b2 + b1 = (p1 r2 s1 + r1 q1 s2) / (q1 s2 s1)
        (p1, q1, r1, s1), (p2, q2, r2, s2) = x, y
        return (*_lowest(p1 * p2, q1 * q2),
                *_lowest(p1 * r2 * s1 + r1 * q1 * s2, q1 * s2 * s1))

    def inv(self, x):
        # (1/a, -b/a) = (q/p, -(r q)/(s p))
        p, q, r, s = x
        return (q, p, *_lowest(-r * q, s * p))

    def inverse_label(self, label):
        return self.canonical_label(self.inv(self.element_of(label)))

    def right_count(self, label) -> int:
        return label[1]

    def left_count(self, label) -> int:
        return label[0]

    def sort_key(self, label):
        p, q, r, s = label
        return (Fraction(p, q), Fraction(r, s))

    def label_str(self, label) -> str:
        p, q, r, s = label
        return f"{Fraction(p, q)};{Fraction(r, s)}"

    def parse_label(self, text: str):
        """The label of the text ``a;b``, checked: a > 0."""
        if text.strip() == "e":
            return self.unit_label
        parts = text.split(";")
        if len(parts) != 2:
            raise ValueError(f"ax+b labels look like 'a;b', got {text!r}")
        a, b = (Fraction(p.strip()) for p in parts)
        return self.canonical_label(self.element(a, b))

    def product_support(self, kx, ky) -> set:
        """Labels of the double cosets meeting coset(kx) * coset(ky), closed form.

        The translation parts of the product set fill the coset
        r1 + a1 r2 + (Z + a1 Z + a1 a2 Z).  With a1 = p1/q1 and a1 a2 = p/q
        in lowest terms that subgroup is (1/g) Z, g = lcm(q1, q), and it
        splits into g/q double cosets at spacing 1/q.  The translations are
        summed as integers over one common denominator d, so the residue
        mod 1/q of n/d is (n mod d/q)/d.
        """
        (p1, q1, r1, s1), (p2, q2, r2, s2) = kx, ky
        p, q = _lowest(p1 * p2, q1 * q2)
        g = lcm(q1, q)
        count, rem = divmod(g, q)
        if rem:
            raise RuntimeError(f"{self.label_str(kx)} * {self.label_str(ky)} "
                               f"splits into {Fraction(g, q)} double cosets")
        e2 = q1 * s2  # the denominator of a1 r2
        d = lcm(s1, e2, g)
        base = r1 * (d // s1) + p1 * r2 * (d // e2)
        step, width = d // g, d // q
        return {(p, q, *_lowest((base + t * step) % width, d))
                for t in range(count)}

    def closed_product(self, kx, ky) -> dict:
        """T(kx) T(ky) as {label: coefficient}, in closed form.

        With a1 = p1/q1 and a2 = p2/q2, the coefficient at (a1 a2, b) counts
        the j mod q2 with a1 j / q2 in one coset of (1/q1)Z fixed by b: a
        fibre of a homomorphism from Z/q2, so it is the same on every label
        of ``product_support``.  The degree homomorphism then fixes it at
        q1 q2 / (q |support|), with q = denom(a1 a2) the right count of each.
        """
        support = self.product_support(kx, ky)
        q = _lowest(kx[0] * ky[0], kx[1] * ky[1])[1]
        c, rem = divmod(self.right_count(kx) * self.right_count(ky),
                        q * len(support))
        if rem:
            raise RuntimeError(f"{self.label_str(kx)} * {self.label_str(ky)} "
                               f"has a non-integral coefficient")
        return dict.fromkeys(support, c)


# ------------------------------------------------------------------ elements

class HeckeElement:
    """A finitely supported N-valued function on double cosets."""

    def __init__(self, backend, coeffs: dict):
        for label, c in coeffs.items():
            if not isinstance(c, int) or c < 1:
                raise ValueError(f"coefficients must be positive integers, got {c}")
        self.backend = backend
        self.coeffs = dict(coeffs)

    @classmethod
    def unit(cls, backend) -> "HeckeElement":
        return cls(backend, {backend.unit_label: 1})

    def __add__(self, other: "HeckeElement") -> "HeckeElement":
        if other.backend is not self.backend:
            raise ValueError("cannot add elements over different backends")
        out = dict(self.coeffs)
        for label, c in other.coeffs.items():
            out[label] = out.get(label, 0) + c
        return HeckeElement(self.backend, out)

    def scale(self, n: int) -> "HeckeElement":
        if n < 1:
            raise ValueError("scaling must be by a positive integer")
        return HeckeElement(self.backend, {k: n * c for k, c in self.coeffs.items()})

    def __rmul__(self, n: int) -> "HeckeElement":
        return self.scale(n)

    def __mul__(self, other) -> "HeckeElement":
        if isinstance(other, int):
            return self.scale(other)
        return multiply(self, other)

    def __eq__(self, other) -> bool:
        return (isinstance(other, HeckeElement)
                and self.backend is other.backend
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((id(self.backend), tuple(sorted(
            (self.backend.sort_key(k), c) for k, c in self.coeffs.items()))))

    def sorted_items(self) -> list:
        return sorted(self.coeffs.items(),
                      key=lambda kv: self.backend.sort_key(kv[0]))

    def __str__(self) -> str:
        bits = []
        for label, c in self.sorted_items():
            name = self.backend.label_str(label)
            body = name if name == "e" else f"T[{name}]"
            bits.append(body if c == 1 else f"{c}*{body}")
        return " + ".join(bits) if bits else "0"

    def __repr__(self) -> str:
        return f"HeckeElement({self})"

    def to_json(self) -> list:
        return [{"label": self.backend.label_str(label), "coeff": c}
                for label, c in self.sorted_items()]


def _product_labels(bk, kx, ky) -> set:
    """Labels of the double cosets in coset(kx) * coset(ky).

    If coset(kx) is the disjoint union of the right cosets Gamma r, the
    product set is the union of the double cosets of r * beta for any one
    beta in coset(ky) (Shimura 1971, section 3.1): one product per r.
    """
    beta = bk.element_of(ky)
    return {bk.canonical_label(bk.mul(r, beta)) for r in bk.right_reps(kx)}


def convolve(x: HeckeElement, y: HeckeElement) -> HeckeElement:
    """(x * y)(g) = sum over right cosets h in supp(y) of x(g h^-1) y(h)."""
    if x.backend is not y.backend:
        raise ValueError("cannot convolve over different backends")
    bk = x.backend
    y_invs = {label: [bk.inv(s) for s in bk.right_reps(label)]
              for label in y.coeffs}
    candidates = set()
    for kx in x.coeffs:
        for ky in y.coeffs:
            candidates |= _product_labels(bk, kx, ky)
    out = {}
    for label in candidates:
        g = bk.element_of(label)
        total = 0
        for ky, cy in y.coeffs.items():
            for s_inv in y_invs[ky]:
                t = bk.canonical_label(bk.mul(g, s_inv))
                total += cy * x.coeffs.get(t, 0)
        if total:
            out[label] = total
    return HeckeElement(bk, out)


def multiply(x: HeckeElement, y: HeckeElement) -> HeckeElement:
    """x * y, bilinear over the backend's ``closed_product`` of basis
    elements; ``convolve`` on a backend without one."""
    if x.backend is not y.backend:
        raise ValueError("cannot multiply over different backends")
    closed = getattr(x.backend, "closed_product", None)
    if closed is None:
        return convolve(x, y)
    return HeckeElement(x.backend, expand(x.coeffs, y.coeffs, closed))


def expand(x: dict, y: dict, product) -> dict:
    """The product of the coefficient maps x and y, expanded bilinearly over
    product(kx, ky), the {label: coefficient} map of T[kx] T[ky]."""
    out: dict = {}
    for kx, cx in x.items():
        for ky, cy in y.items():
            for label, c in product(kx, ky).items():
                out[label] = out.get(label, 0) + cx * cy * c
    return out


def basis_product(backend, kx, ky) -> dict:
    """T[kx] T[ky] as {label: coefficient}, by ``convolve``; memoized on the
    backend, so each basis product the algebra laws read is convolved once.
    The map is shared: callers must not change it."""
    return backend._products.get_or((kx, ky), lambda: convolve(
        HeckeElement(backend, {kx: 1}), HeckeElement(backend, {ky: 1})).coeffs)


def structure_constants(backend: FiniteHecke) -> Table:
    """H[a, b, c], the coefficient of T[c] in T[a] T[b], over the labels of
    a finite backend: its table, filled from ``basis_product``; memoized on
    the backend."""
    return backend._products.get_or(("ring",), lambda: Table(
        backend, "Hecke structure constants",
        {label: range(i, i + 1) for i, label in enumerate(backend.labels())}, _hecke_fill))


def _hecke_fill(backend: FiniteHecke, label_pairs: list, views: list) -> None:
    at = {label: i for i, label in enumerate(backend.labels())}
    for (a, b), view in zip(label_pairs, views):
        for label, c in basis_product(backend, a, b).items():
            view[0, 0, at[label]] = c


def involution(x: HeckeElement) -> HeckeElement:
    """x-bar(g) = x(g^-1); additive, anti-multiplicative, involutive."""
    bk = x.backend
    out: dict = {}
    for label, c in x.coeffs.items():
        inv_label = bk.canonical_label(bk.inv(bk.element_of(label)))
        out[inv_label] = out.get(inv_label, 0) + c
    return HeckeElement(bk, out)


def degrees(backend, label) -> tuple[int, int]:
    """(left coset count, right coset count) of the double coset."""
    return (backend.left_count(label), backend.right_count(label))


def modular_lambda(backend, label) -> Fraction:
    """Left over right coset count; the scaling exponent of the modular flow."""
    left, right = degrees(backend, label)
    return Fraction(left, right)


def degree(x: HeckeElement) -> int:
    """Right-coset count extended linearly; a ring homomorphism to Z."""
    return sum(c * x.backend.right_count(label) for label, c in x.coeffs.items())


def lambda_multiplicativity_witnesses(x: HeckeElement, y: HeckeElement) -> list:
    """Labels violating lambda(z) = lambda(k) lambda(l) in basis products.

    Empty means the modular flow scales every product of support labels
    consistently, which is exactly its multiplicativity on those products.
    The support of a basis product is the set of double cosets meeting the
    product set (each such coset has a positive coefficient), so the labels
    of representative products are checked directly.
    """
    bk = x.backend
    # BC has a closed form; the other backends take one product per r
    support = (getattr(bk, "product_support", None)
               or functools.partial(_product_labels, bk))
    bad = []
    for kx in x.coeffs:
        lx, rx = degrees(bk, kx)
        for ky in y.coeffs:
            ly, ry = degrees(bk, ky)
            for label in support(kx, ky):
                # l/r == (lx/rx) (ly/ry), cross-multiplied: counts are positive
                l, r = degrees(bk, label)
                if l * rx * ry != lx * ly * r:
                    bad.append((kx, ky, label,
                                Fraction(l, r), Fraction(lx * ly, rx * ry)))
    return bad


# ------------------------------------------------------------------ grammar

_TOKEN_RE = re.compile(r"\s*(\d+|[eE]\b|T\[[^\]]*\]|\+|\*)")


def parse_element(backend, text: str) -> HeckeElement:
    """Parse sums of integer-scaled products: e, T[<label>], +, *.

    Examples: "T[K]*T[K]", "3*e + 2*T[K]", "T[1,2]*T[1,3]", "T[2;0]".
    """
    pos, tokens = 0, []
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise ValueError(
                    f"parse error at column {pos + 1}: {text[pos:pos+10]!r}")
            break
        tokens.append(m.group(1))
        pos = m.end()

    def parse_factor(tok: str):
        if tok.isdigit():
            return int(tok)
        if tok in ("e", "E"):
            return HeckeElement.unit(backend)
        if tok.startswith("T[") and tok.endswith("]"):
            return HeckeElement(backend, {backend.parse_label(tok[2:-1]): 1})
        raise ValueError(f"unexpected token {tok!r}")

    terms: list[HeckeElement] = []
    i = 0
    while i < len(tokens):
        factors = [parse_factor(tokens[i])]
        i += 1
        while i < len(tokens) and tokens[i] == "*":
            if i + 1 >= len(tokens):
                raise ValueError("dangling '*'")
            factors.append(parse_factor(tokens[i + 1]))
            i += 2
        scale = 1
        value: Optional[HeckeElement] = None
        for f in factors:
            if isinstance(f, int):
                scale *= f
            elif value is None:
                value = f
            else:
                value = multiply(value, f)
        if value is None:
            raise ValueError("a term needs at least one basis element")
        terms.append(value.scale(scale) if scale != 1 else value)
        if i < len(tokens):
            if tokens[i] != "+":
                raise ValueError(f"expected '+', got {tokens[i]!r}")
            i += 1
    if not terms:
        raise ValueError("empty expression")
    out = terms[0]
    for t in terms[1:]:
        out = out + t
    return out
