import collections
import itertools
import re
import time
from fractions import Fraction
from math import floor, gcd, lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from heckefuse import checks
from heckefuse.catalog import BUILTIN, build_pair
from heckefuse.hecke import (
    BostConnesHecke,
    FiniteHecke,
    GL2Hecke,
    HeckeElement,
    basis_product,
    convolve,
    degree,
    degrees,
    involution,
    lambda_multiplicativity_witnesses,
    modular_lambda,
    multiply,
    parse_element,
    primitive_hnf_reps,
)
from heckefuse.permcore import FiniteGroup, Perm, Subgroup


@pytest.fixture(scope="module")
def finite_s3_s4():
    g = FiniteGroup.generate(4, [Perm.parse(4, "(0 1)"), Perm.parse(4, "(0 1 2 3)")])
    gamma = Subgroup(
        g, FiniteGroup.generate(4, [Perm.parse(4, "(0 1)"), Perm.parse(4, "(0 1 2)")]).elements
    )
    return FiniteHecke(g, gamma)


@pytest.fixture(scope="module")
def gl2():
    return GL2Hecke()


@pytest.fixture(scope="module")
def bc():
    return BostConnesHecke()


def brute_force_convolve(backend: FiniteHecke, f1: dict, f2: dict) -> dict:
    """Oracle: convolve N-valued bi-invariant functions over all group elements.

    Summing over all h in G counts every right coset |gamma| times, so the
    exact answer is the full sum divided by |gamma|.
    """
    g, gamma = backend.group, backend.gamma
    full = {}
    for x in g:
        total = 0
        for h in g.elements:
            total += f1.get(backend.canonical_label(x * h.inverse()), 0) * \
                f2.get(backend.canonical_label(h), 0)
        if total:
            assert total % len(gamma) == 0
            full[backend.canonical_label(x)] = total // len(gamma)
    # bi-invariance means the value is constant per double coset; keep one each
    return full


# ------------------------------------------------------------ finite backend

def test_unit_is_neutral(finite_s3_s4):
    bk = finite_s3_s4
    e = HeckeElement.unit(bk)
    t = HeckeElement(bk, {bk.labels()[1]: 1})
    assert convolve(e, t) == t
    assert convolve(t, e) == t


def test_s3_s4_t_squared(finite_s3_s4):
    bk = finite_s3_s4
    k = bk.labels()[1]
    t = HeckeElement(bk, {k: 1})
    product = convolve(t, t)
    assert product.coeffs == {bk.unit_label: 3, k: 2}
    # independent brute-force oracle over all 24 group elements
    oracle = brute_force_convolve(bk, {k: 1}, {k: 1})
    assert product.coeffs == oracle


def test_finite_convolution_matches_oracle_on_random_elements(finite_s3_s4):
    bk = finite_s3_s4
    e, k = bk.labels()
    for f1, f2 in [({e: 2, k: 1}, {k: 3}), ({k: 2}, {e: 1, k: 1})]:
        assert convolve(HeckeElement(bk, f1), HeckeElement(bk, f2)).coeffs == \
            brute_force_convolve(bk, f1, f2)


def test_finite_involution(finite_s3_s4):
    bk = finite_s3_s4
    e = HeckeElement.unit(bk)
    assert involution(e) == e
    k = bk.labels()[1]
    t = HeckeElement(bk, {k: 1})
    # the nontrivial coset of the S3 < S4 pair is symmetric
    assert involution(t) == t


def test_involution_antimultiplicative(finite_s3_s4):
    bk = finite_s3_s4
    e, k = bk.labels()
    x = HeckeElement(bk, {e: 1, k: 2})
    y = HeckeElement(bk, {k: 1})
    assert involution(convolve(x, y)) == convolve(involution(y), involution(x))
    assert involution(involution(x)) == x


def test_finite_lambda_trivial(finite_s3_s4):
    bk = finite_s3_s4
    for label in bk.labels():
        assert modular_lambda(bk, label) == 1
        left, right = degrees(bk, label)
        assert left == right


def test_degree_homomorphism(finite_s3_s4):
    bk = finite_s3_s4
    basis = [HeckeElement(bk, {label: 1}) for label in bk.labels()]
    for x in basis:
        for y in basis:
            assert degree(convolve(x, y)) == degree(x) * degree(y)


def test_finite_associativity_exhaustive(finite_s3_s4):
    bk = finite_s3_s4
    basis = [HeckeElement(bk, {label: 1}) for label in bk.labels()]
    for x, y, z in itertools.product(basis, repeat=3):
        assert convolve(convolve(x, y), z) == convolve(x, convolve(y, z))


def test_finite_frobenius_reciprocity_weighted(finite_s3_s4):
    # on the double-coset basis the reciprocity identity carries degree
    # weights:  m(x,y;z) deg(z) = m(x-bar,z;y) deg(y) = m(z,y-bar;x) deg(x).
    # (the unweighted identity belongs to the extended algebra's irreducible
    # basis; on this basis it already fails at (T, T, e).)
    bk = finite_s3_s4
    labels = bk.labels()

    def mult(a, b, target):
        prod = convolve(HeckeElement(bk, {a: 1}), HeckeElement(bk, {b: 1}))
        return prod.coeffs.get(target, 0)

    def bar(label):
        return bk.canonical_label(label.inverse())

    def deg(label):
        return bk.right_count(label)

    for x, y, z in itertools.product(labels, repeat=3):
        assert mult(x, y, z) * deg(z) == mult(bar(x), z, y) * deg(y) \
            == mult(z, bar(y), x) * deg(x)


def test_unweighted_frobenius_fails_on_coset_basis(finite_s3_s4):
    # the witness that forces the weighted form above
    bk = finite_s3_s4
    e, k = bk.labels()
    t = HeckeElement(bk, {k: 1})
    unit = HeckeElement.unit(bk)
    assert convolve(t, t).coeffs.get(e, 0) == 3
    assert convolve(involution(t), unit).coeffs.get(k, 0) == 1


# ------------------------------------------------------------ GL2 backend

def test_basis_product_is_the_memoized_convolution(bc):
    # trivial gamma in S3 gives the group algebra of S3, which is not
    # commutative, so a product read in the wrong order shows
    g = FiniteGroup.generate(3, [Perm.parse(3, "(0 1)"), Perm.parse(3, "(0 1 2)")])
    group_algebra = FiniteHecke(g, Subgroup(g, [g.identity]))
    small = [bc.parse_label(s) for s in ("2;0", "1/2;0", "3;1/3")]
    for bk, labels in ((group_algebra, group_algebra.labels()), (bc, small)):
        for a, b in itertools.product(labels, repeat=2):
            product = basis_product(bk, a, b)
            assert product == convolve(HeckeElement(bk, {a: 1}),
                                       HeckeElement(bk, {b: 1})).coeffs
            assert basis_product(bk, a, b) is product
    assert any(basis_product(group_algebra, a, b) != basis_product(group_algebra, b, a)
               for a, b in itertools.product(group_algebra.labels(), repeat=2))


def test_hnf_representative_counts(gl2):
    assert len(primitive_hnf_reps(1)) == 1
    for p in (2, 3, 5):
        assert len(primitive_hnf_reps(p)) == p + 1
    assert len(primitive_hnf_reps(4)) == 4 + 2  # psi(4) = 6


@pytest.mark.parametrize("content", [Fraction(1), Fraction(2, 3)])
def test_right_count_is_psi_of_the_hnf_enumeration(gl2, content):
    for n in range(1, 401):
        label = gl2_label(content, content * n)
        assert gl2.right_count(label) == len(primitive_hnf_reps(n))


def test_degree_of_a_large_product_is_fast(gl2, monkeypatch):
    # the enumeration took O(n) steps per label, and this did not finish in
    # two minutes; psi(5184) = 96 * 108 = 10,368

    def refuse(*args):
        raise AssertionError("counting cosets must not enumerate them")

    monkeypatch.setattr(GL2Hecke, "right_reps", refuse)
    start = time.perf_counter()
    d = degree(parse_element(gl2, "T[1,5184]*T[1,5184]"))
    assert time.perf_counter() - start < 1.0
    assert d == 10_368 ** 2


# Brute-force oracle on Fraction matrices (a, b, c, d), rows (a b) / (c d),
# independent of the backend's (content, primitive part) arithmetic.  The
# oracle speaks of rational labels (d1, d2); ``gl2_label`` converts them to
# the backend's integer labels where the two are compared.

def gl2_label(d1, d2):
    """The backend label of the elementary divisors (d1, d2)."""
    return GL2Hecke().parse_label(f"{d1},{d2}")


def bc_label(a, b):
    """The backend label of the double coset of the ax+b element (a, b)."""
    bc = BostConnesHecke()
    return bc.canonical_label(bc.element(a, b))


def mat_mul(x, y):
    return (x[0] * y[0] + x[1] * y[2], x[0] * y[1] + x[1] * y[3],
            x[2] * y[0] + x[3] * y[2], x[2] * y[1] + x[3] * y[3])


def mat_det(x):
    return x[0] * x[3] - x[1] * x[2]


def mat_inv(x):
    d = mat_det(x)
    return (x[3] / d, -x[1] / d, -x[2] / d, x[0] / d)


def content(x):
    """The positive rational c with x / c integral of entry gcd 1."""
    fracs = [Fraction(e) for e in x]
    denom = lcm(*(f.denominator for f in fracs))
    return Fraction(gcd(*(int(f * denom) for f in fracs)), denom)


def oracle_label(x):
    """Elementary divisors (c, c m): c the content, m the primitive determinant."""
    c = content(x)
    m = mat_det(x) / (c * c)
    assert m.denominator == 1 and m > 0
    return (c, c * m)


def as_matrix(x):
    """The Fraction matrix of a backend element (n, q, P): n/q times P."""
    n, q, p = x
    return tuple(Fraction(n, q) * e for e in p)


def in_sl2z_coset(product, g):
    """Is product in SL(2,Z) * g?  Exact fraction arithmetic."""
    w = mat_mul(product, mat_inv(g))
    return all(Fraction(e).denominator == 1 for e in w) and mat_det(w) == 1


def from_matrix(x: tuple):
    """The GL2 element (n, q, P) equal to a rational matrix (a, b, c, d)."""
    fracs = [Fraction(e) for e in x]
    if fracs[0] * fracs[3] - fracs[1] * fracs[2] <= 0:
        raise ValueError("only positive-determinant matrices are supported")
    denom = lcm(*(f.denominator for f in fracs))
    ints = [f.numerator * (denom // f.denominator) for f in fracs]
    g = gcd(*ints)
    c = Fraction(g, denom)
    return (c.numerator, c.denominator, tuple(i // g for i in ints))


def in_lowest_terms(n, q):
    return type(n) is int and type(q) is int and q > 0 and gcd(n, q) == 1


def test_gl2_canonical_label(gl2):
    m = (Fraction(2), Fraction(0), Fraction(0), Fraction(6))
    assert gl2.canonical_label(from_matrix(m)) == gl2.parse_label("2,6") == (2, 1, 3)
    half = tuple(e / 2 for e in m)
    assert gl2.canonical_label(from_matrix(half)) == gl2.parse_label("1,3")


matrices = st.tuples(*[st.fractions(min_value=-12, max_value=12,
                                     max_denominator=12)] * 4)


@given(matrices, matrices)
@example((Fraction(0),) * 4, (Fraction(1), Fraction(0), Fraction(0), Fraction(-1)))
def test_gl2_from_matrix_matches_content_formula(x, y):
    gl2 = GL2Hecke()
    for m in (x, y):
        if mat_det(m) <= 0:
            with pytest.raises(ValueError):
                from_matrix(m)
            continue
        n, q, p = from_matrix(m)
        assert Fraction(n, q) == content(m) and as_matrix((n, q, p)) == m
        assert all(type(e) is int for e in p)
        assert gcd(*p) == 1 and mat_det(p) > 0
        assert gl2.canonical_label((n, q, p)) == gl2_label(*oracle_label(m))
    if mat_det(x) <= 0 or mat_det(y) <= 0:
        return
    ex, ey = from_matrix(x), from_matrix(y)
    # labels are dictionary keys, so products and inverses stay in lowest terms
    for got, want in ((gl2.mul(ex, ey), mat_mul(x, y)), (gl2.inv(ex), mat_inv(x))):
        assert as_matrix(got) == want and in_lowest_terms(*got[:2])


def test_gl2_product_of_primes(gl2):
    t2 = HeckeElement(gl2, {gl2.parse_label("1,2"): 1})
    t3 = HeckeElement(gl2, {gl2.parse_label("1,3"): 1})
    prod = convolve(t2, t3)
    assert prod.coeffs == {gl2.parse_label("1,6"): 1}
    # independent oracle: count Hermite-representative products in one right coset
    reps2 = [as_matrix(r) for r in gl2.right_reps(gl2.parse_label("1,2"))]
    reps3 = [as_matrix(r) for r in gl2.right_reps(gl2.parse_label("1,3"))]
    g = as_matrix(gl2.element_of(gl2.parse_label("1,6")))
    count = sum(1 for x in reps2 for y in reps3 if in_sl2z_coset(mat_mul(x, y), g))
    assert count == 1


@pytest.mark.parametrize("p", [2, 3])
def test_gl2_classical_relation(gl2, p):
    tp = HeckeElement(gl2, {gl2_label(1, p): 1})
    lhs = convolve(tp, tp)
    assert lhs.coeffs == {
        gl2_label(1, p * p): 1,
        gl2_label(p, p): p + 1,
    }
    # independent oracle: count products of Hermite representatives that land
    # in a single right coset of each target; membership in SL(2,Z) is exact
    reps = [as_matrix(r) for r in gl2.right_reps(gl2_label(1, p))]
    for target, expected in lhs.coeffs.items():
        g = as_matrix(gl2.element_of(target))
        count = sum(1 for x in reps for y in reps if in_sl2z_coset(mat_mul(x, y), g))
        assert count == expected


@pytest.mark.parametrize("k, l", [("1,4", "1,12"), ("1,6", "1,10"),
                                  ("1/2,3/2", "1,6"), ("2,2", "1,9")])
def test_gl2_convolve_matches_coset_count(gl2, k, l):
    # the coefficient of SL(2,Z) g SL(2,Z) in T[k] * T[l] is the number of
    # pairs (x, y) in R(k) x R(l) with x y in SL(2,Z) g (Shimura 1971, 3.1)
    kx, ky = gl2.parse_label(k), gl2.parse_label(l)
    reps_k = [as_matrix(r) for r in gl2.right_reps(kx)]
    reps_l = [as_matrix(r) for r in gl2.right_reps(ky)]
    assert {gl2_label(*oracle_label(r)) for r in reps_k} == {kx}
    assert {gl2_label(*oracle_label(r)) for r in reps_l} == {ky}
    products = [mat_mul(x, y) for x in reps_k for y in reps_l]
    expected = {}
    for d1, d2 in {oracle_label(m) for m in products}:
        g = (d1, Fraction(0), Fraction(0), d2)
        expected[gl2_label(d1, d2)] = sum(1 for m in products if in_sl2z_coset(m, g))
    got = convolve(HeckeElement(gl2, {kx: 1}), HeckeElement(gl2, {ky: 1}))
    assert got.coeffs == expected


def test_gl2_invalid_labels(gl2):
    # labels are checked once, where text is read
    for d1, d2 in ((0, 1), (-1, 2), (2, 3), (2, 1), (1, 0)):
        with pytest.raises(ValueError, match="not a valid label"):
            gl2.parse_label(f"{d1},{d2}")
        with pytest.raises(ValueError, match="not a valid label"):
            parse_element(gl2, f"T[{d1},{d2}]")


@pytest.mark.parametrize("label, want", [
    ((1, 6), (Fraction(1), 6)),
    ((2, 2), (Fraction(2), 1)),
    ((Fraction(1, 2), 3), (Fraction(1, 2), 6)),
    ((Fraction(2, 3), Fraction(2)), (Fraction(2, 3), 3)),
    ((Fraction(5, 7), Fraction(10, 7)), (Fraction(5, 7), 2)),
])
def test_gl2_split(gl2, label, want):
    # the text d1,d2 reads as d1 = n/q in lowest terms and m = d2/d1
    d1, m = want
    got = gl2.parse_label(f"{label[0]},{label[1]}")
    assert got == (d1.numerator, d1.denominator, m)
    assert all(type(e) is int for e in got)


@pytest.mark.parametrize("label", [
    # d1 <= 0
    (0, 1), (-1, 2), (Fraction(-1, 2), Fraction(1)), (Fraction(0), Fraction(0)),
    # d2 / d1 not a positive integer
    (2, 3), (2, 1), (1, 0), (1, -2), (Fraction(1, 2), Fraction(3, 4)),
    (1, Fraction(7, 2)), (Fraction(2, 3), Fraction(-4, 3)),
])
def test_gl2_split_rejects(gl2, label):
    text = f"{label[0]},{label[1]}"
    with pytest.raises(ValueError, match=re.escape(f"not a valid label: {text}")):
        gl2.parse_label(text)
    with pytest.raises(ValueError, match=re.escape(f"not a valid label: {text}")):
        parse_element(gl2, f"T[{text}]")


def test_gl2_commutativity(gl2):
    labels = [gl2.parse_label(s) for s in ("1,2", "1,3", "2,2", "1,4")]
    for a, b in itertools.product(labels, repeat=2):
        x = HeckeElement(gl2, {a: 1})
        y = HeckeElement(gl2, {b: 1})
        assert convolve(x, y) == convolve(y, x)


def test_gl2_lambda_is_one(gl2):
    for text in ("1,2", "1,3", "2,2", "1,6", "1/2,3"):
        assert modular_lambda(gl2, gl2.parse_label(text)) == 1


def test_gl2_involution_label(gl2):
    label = gl2.parse_label("1,6")
    inv = gl2.inverse_label(label)
    assert inv == gl2.parse_label("1/6,1") == (1, 6, 6)
    assert gl2.inverse_label(inv) == label


def test_gl2_degree_homomorphism(gl2):
    for a, b in [("1,2", "1,3"), ("1,2", "1,2"), ("2,2", "1,3")]:
        x = HeckeElement(gl2, {gl2.parse_label(a): 1})
        y = HeckeElement(gl2, {gl2.parse_label(b): 1})
        assert degree(convolve(x, y)) == degree(x) * degree(y)


def test_gl2_associativity_small_labels(gl2):
    labels = [gl2.parse_label(s) for s in ("1,2", "1,3", "2,2")]
    for a, b, c in itertools.combinations_with_replacement(labels, 3):
        x, y, z = (HeckeElement(gl2, {l: 1}) for l in (a, b, c))
        assert convolve(convolve(x, y), z) == convolve(x, convolve(y, z))


# ------------------------------------------------------------ ax+b backend

def test_bc_canonicalization(bc):
    label = bc.canonical_label(bc.element(Fraction(3, 2), Fraction(7, 3)))
    p, q, r, s = label
    assert (p, q) == (3, 2)
    assert 0 <= Fraction(r, s) < Fraction(1, 2) and in_lowest_terms(r, s)
    assert bc.canonical_label(bc.element_of(label)) == label


@given(st.fractions(min_value=0, max_value=30, max_denominator=30).filter(bool),
       st.fractions(min_value=-30, max_value=30, max_denominator=30))
@example(Fraction(3, 2), Fraction(-7, 3))
@example(Fraction(5, 12), Fraction(-1, 8))
@example(Fraction(7), Fraction(-5, 2))
def test_bc_label_matches_floor_formula(a, b):
    step = Fraction(1, a.denominator)
    want = (a, b - floor(b / step) * step)
    assert bc_label(a, b) == BostConnesHecke.element(*want)


def test_bc_lambda_at_primes(bc):
    for p in (2, 3, 5):
        assert modular_lambda(bc, bc.element(p, 0)) == p
        left, right = degrees(bc, bc.element(p, 0))
        assert (left, right) == (p, 1)


def test_bc_lambda_from_conjugate_subgroups(bc):
    # oracle: [Z : Z cap aZ] = numerator(a), [Z : Z cap (1/a)Z] = denominator(a)
    for a in (Fraction(2), Fraction(3, 2), Fraction(5, 4)):
        assert modular_lambda(bc, bc_label(a, 0)) == a


def test_bc_product_two_three(bc):
    x = HeckeElement(bc, {bc.parse_label("2;0"): 1})
    y = HeckeElement(bc, {bc.parse_label("3;0"): 1})
    prod = convolve(x, y)
    for label in prod.coeffs:
        assert modular_lambda(bc, label) == 6
    assert not lambda_multiplicativity_witnesses(x, y)


def test_bc_involution_round_trip(bc):
    for text in ("2;0", "3/2;1/4", "5;1/3"):
        label = bc.parse_label(text)
        inv = bc.inverse_label(label)
        assert bc.inverse_label(inv) == label
        x = HeckeElement(bc, {label: 1})
        assert involution(involution(x)) == x


def test_bc_lambda_multiplicativity_grid(bc):
    fracs = [Fraction(n, d) for n in (1, 2, 3) for d in (1, 2, 3)]
    for a1, a2 in itertools.product(fracs, repeat=2):
        x = HeckeElement(bc, {bc_label(a1, 0): 1})
        y = HeckeElement(bc, {bc_label(a2, Fraction(1, 2)): 1})
        assert not lambda_multiplicativity_witnesses(x, y)


def test_bc_associativity(bc):
    labels = [bc.parse_label(s) for s in ("2;0", "1/2;0", "3;1/3")]
    for a, b, c in itertools.product(labels, repeat=3):
        x, y, z = (HeckeElement(bc, {l: 1}) for l in (a, b, c))
        assert convolve(convolve(x, y), z) == convolve(x, convolve(y, z))


def test_bc_product_support_closed_form(bc):
    # the closed form must agree with brute-force enumeration of representative
    # products, and with the support of the actual convolution
    fracs = [Fraction(n, d) for n in (1, 2, 3, 4) for d in (1, 2, 3, 4)]
    residues = [Fraction(0), Fraction(1, 3), Fraction(1, 5)]
    for a1, a2 in itertools.product(fracs[:8], repeat=2):
        for r1, r2 in itertools.product(residues, repeat=2):
            kx, ky = bc_label(a1, r1), bc_label(a2, r2)
            brute = {bc.canonical_label(bc.mul(r, s))
                     for r in bc.right_reps(kx) for s in bc.right_reps(ky)}
            assert bc.product_support(kx, ky) == brute
            conv = convolve(HeckeElement(bc, {kx: 1}), HeckeElement(bc, {ky: 1}))
            assert set(conv.coeffs) == brute


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(
    st.fractions(min_value=0, max_value=12, max_denominator=12).filter(bool),
    st.fractions(min_value=-30, max_value=0, max_denominator=12)),
    min_size=2, max_size=2))
@example([(Fraction(3, 2), Fraction(-7, 3)), (Fraction(5, 12), Fraction(-1, 8))])
@example([(Fraction(1, 12), Fraction(-11, 12)), (Fraction(12, 11), Fraction(-5, 7))])
def test_bc_product_support_matches_representative_products(pairs):
    # on labels and on raw pairs with negative translations: any translation
    # names the same double coset
    bc = BostConnesHecke()
    raw = [bc.element(*p) for p in pairs]
    kx, ky = (bc.canonical_label(x) for x in raw)
    brute = {bc.canonical_label(bc.mul(r, s))
             for r in bc.right_reps(kx) for s in bc.right_reps(ky)}
    assert bc.product_support(kx, ky) == brute
    assert bc.product_support(*raw) == brute
    for p, q, r, s in brute:
        assert in_lowest_terms(p, q) and in_lowest_terms(r, s)
        assert (p, q, r, s) == bc.canonical_label((p, q, r, s))


def test_bc_degree_homomorphism(bc):
    labels = [bc.parse_label(s) for s in ("2;0", "1/2;0", "3/2;1/6")]
    for a, b in itertools.product(labels, repeat=2):
        x = HeckeElement(bc, {a: 1})
        y = HeckeElement(bc, {b: 1})
        assert degree(convolve(x, y)) == degree(x) * degree(y)


# ------------------------------------------------------------ label text

rationals = st.fractions(min_value=-12, max_value=12, max_denominator=12)
positives = st.fractions(min_value=0, max_value=12, max_denominator=12).filter(bool)


@settings(max_examples=200)
@given(st.lists(st.tuples(positives, st.integers(1, 40)), min_size=2, max_size=2),
       rationals, rationals)
@example([(Fraction(2, 3), 3), (Fraction(2, 3), 2)], Fraction(2, 3), Fraction(-4, 3))
def test_gl2_label_text_round_trips(draws, d1, d2):
    gl2 = GL2Hecke()
    old = [(c, c * m) for c, m in draws]  # labels as the rational pairs (d1, d2)
    labels = [gl2.parse_label(f"{a},{b}") for a, b in old]
    for (n, q, m), (a, b) in zip(labels, old):
        assert in_lowest_terms(n, q) and n > 0 and type(m) is int and m >= 1
        assert (Fraction(n, q), Fraction(n * m, q)) == (a, b)
        assert gl2.label_str((n, q, m)) == f"{a},{b}"
        assert gl2.parse_label(gl2.label_str((n, q, m))) == (n, q, m)
    keys = [gl2.sort_key(label) for label in labels]
    assert (keys[0] < keys[1], keys[0] == keys[1]) == (old[0] < old[1], old[0] == old[1])
    # any text d1,d2: valid exactly when d1 > 0 and d2/d1 is a positive integer
    if d1 > 0 and (d2 / d1).denominator == 1 and d2 / d1 >= 1:
        want = (d1.numerator, d1.denominator, int(d2 / d1))
        assert gl2.parse_label(f"{d1},{d2}") == want
    else:
        with pytest.raises(ValueError, match=re.escape(f"not a valid label: {d1},{d2}")):
            gl2.parse_label(f"{d1},{d2}")


@settings(max_examples=200)
@given(st.lists(st.tuples(positives, rationals), min_size=2, max_size=2), rationals)
@example([(Fraction(3, 2), Fraction(-7, 3)), (Fraction(3, 2), Fraction(1, 6))],
         Fraction(0))
def test_bc_label_text_round_trips(draws, a):
    bc = BostConnesHecke()
    # labels as the rational pairs (a, b mod 1/q), by the floor formula
    old = [(c, b - floor(b * c.denominator) / Fraction(c.denominator)) for c, b in draws]
    labels = [bc.parse_label(f"{c};{b}") for c, b in draws]
    for (p, q, r, s), (c, b) in zip(labels, old):
        assert in_lowest_terms(p, q) and p > 0 and in_lowest_terms(r, s)
        assert 0 <= r and r * q < s  # 0 <= b < 1/q
        assert (Fraction(p, q), Fraction(r, s)) == (c, b)
        assert bc.label_str((p, q, r, s)) == f"{c};{b}"
        assert bc.parse_label(bc.label_str((p, q, r, s))) == (p, q, r, s)
    keys = [bc.sort_key(label) for label in labels]
    assert (keys[0] < keys[1], keys[0] == keys[1]) == (old[0] < old[1], old[0] == old[1])
    if a <= 0:
        with pytest.raises(ValueError, match="the scaling part must be positive"):
            bc.parse_label(f"{a};0")


# ------------------------------------------------------------ grammar

def test_parse_element_finite(finite_s3_s4):
    bk = finite_s3_s4
    x = parse_element(bk, "T[K]*T[K]")
    assert str(x) == "3*e + 2*T[K]"
    y = parse_element(bk, "3*e + 2*T[K]")
    assert x == y
    assert parse_element(bk, "e") == HeckeElement.unit(bk)
    assert parse_element(bk, "2*3*e").coeffs == {bk.unit_label: 6}


def test_parse_element_gl2(gl2):
    x = parse_element(gl2, "T[1,2]*T[1,3]")
    assert str(x) == "T[1,6]"


def test_parse_element_bc(bc):
    x = parse_element(bc, "T[2;0]*T[3;0]")
    assert list(x.coeffs) == [bc.element(6, 0)] == [(6, 1, 0, 1)]


def test_parse_element_errors(finite_s3_s4):
    with pytest.raises(ValueError):
        parse_element(finite_s3_s4, "T[K)+")
    with pytest.raises(ValueError):
        parse_element(finite_s3_s4, "T[K]*")
    with pytest.raises(ValueError):
        parse_element(finite_s3_s4, "")


# ------------------------------------------------------------ one representative per coset

def all_pairs_convolve(x: HeckeElement, y: HeckeElement) -> HeckeElement:
    """Convolution with candidate labels from every product r * s of
    right-coset representatives of the two supports."""
    bk = x.backend
    y_reps = {label: bk.right_reps(label) for label in y.coeffs}
    candidates = set()
    for kx in x.coeffs:
        for r in bk.right_reps(kx):
            for ky, reps in y_reps.items():
                for s in reps:
                    candidates.add(bk.canonical_label(bk.mul(r, s)))
    out = {}
    for label in candidates:
        g = bk.element_of(label)
        total = 0
        for ky, cy in y.coeffs.items():
            for s in y_reps[ky]:
                t = bk.canonical_label(bk.mul(g, bk.inv(s)))
                total += cy * x.coeffs.get(t, 0)
        if total:
            out[label] = total
    return HeckeElement(bk, out)


def assert_convolve_matches_all_pairs(bk, labels):
    for kx, ky in itertools.product(labels, repeat=2):
        x, y = HeckeElement(bk, {kx: 1}), HeckeElement(bk, {ky: 1})
        assert convolve(x, y) == all_pairs_convolve(x, y), (kx, ky)


@pytest.mark.parametrize("name", ["S3_in_S4", "D4_klein", "Heis3"])
def test_convolve_matches_all_pairs_finite(name):
    bk = build_pair(BUILTIN[name]).hecke()
    assert_convolve_matches_all_pairs(bk, bk.labels())


def test_convolve_matches_all_pairs_gl2(gl2):
    # a full grid to 10 and composite pairs up to 30; the all-pairs oracle
    # would take about 40 s on the full grid to 30
    assert_convolve_matches_all_pairs(gl2, [gl2_label(1, a) for a in range(1, 11)])
    for a, b in ((12, 12), (18, 30), (30, 24), (30, 30)):
        x = HeckeElement(gl2, {gl2_label(1, a): 1})
        y = HeckeElement(gl2, {gl2_label(1, b): 1})
        assert convolve(x, y) == all_pairs_convolve(x, y), (a, b)


def test_convolve_matches_all_pairs_bc(bc):
    fracs = [Fraction(n, d) for n in (1, 2, 3, 4) for d in (1, 2, 3, 4)]
    residues = [Fraction(0), Fraction(1, 3)]
    assert_convolve_matches_all_pairs(
        bc, sorted({bc_label(a, r) for a in fracs for r in residues}, key=bc.sort_key))


def convolve_factors(backend, expr: str) -> HeckeElement:
    """The oracle path for a product of two factors: ``parse_element``
    multiplies by closed forms, so the cost tests below convolve directly."""
    x, y = (parse_element(backend, f) for f in expr.split("*"))
    return convolve(x, y)


@pytest.mark.parametrize("kind, expr, bound", [
    ("gl2", "T[1,42]*T[1,66]", 700),
    ("bc", "T[1/130;0]*T[1/182;0]", 320),
])
def test_product_canonicalizes_once_per_representative(kind, expr, bound, monkeypatch):
    cls = GL2Hecke if kind == "gl2" else BostConnesHecke
    calls = []
    original = cls.canonical_label

    def counting(self, x):
        calls.append(x)
        return original(self, x)

    monkeypatch.setattr(cls, "canonical_label", counting)
    convolve_factors(cls(), expr)
    assert len(calls) <= bound


def fraction_counts(monkeypatch, run) -> collections.Counter:
    """The Fractions built and hashed while run() runs."""
    counts = collections.Counter()
    new, hash_ = Fraction.__new__, Fraction.__hash__

    def counting_new(frac_cls, *args, **kwargs):
        counts["built"] += 1
        return new(frac_cls, *args, **kwargs)

    def counting_hash(self):
        counts["hashed"] += 1
        return hash_(self)

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    monkeypatch.setattr(Fraction, "__hash__", counting_hash)
    run()
    monkeypatch.undo()
    return counts


def fraction_builds(monkeypatch, run) -> int:
    return fraction_counts(monkeypatch, run)["built"]


@pytest.mark.parametrize("kind, expr, bound", [
    # arithmetic on Fraction matrices built 21,396 and 4,002 Fractions here
    ("gl2", "T[1,42]*T[1,66]", 3000),
    ("bc", "T[1/130;0]*T[1/182;0]", 3500),
])
def test_product_fraction_builds(kind, expr, bound, monkeypatch):
    backend = GL2Hecke() if kind == "gl2" else BostConnesHecke()
    builds = fraction_builds(monkeypatch, lambda: convolve_factors(backend, expr))
    assert 0 < builds <= bound


def test_bc_product_fraction_builds_with_integer_labels(monkeypatch):
    # Fraction labels with integer inner arithmetic built 2,432 here, one
    # per output label; integer labels build only the parser's 4
    backend = BostConnesHecke()
    builds = fraction_builds(
        monkeypatch, lambda: convolve_factors(backend, "T[1/130;0]*T[1/182;0]"))
    assert 0 < builds <= 4


@pytest.mark.parametrize("kind, expr", [("gl2", "T[1,30]*T[1,105]"),
                                        ("bc", "T[1/130;0]*T[1/182;0]")])
def test_convolve_builds_and_hashes_no_fraction(kind, expr, monkeypatch):
    # Fraction labels built 1,872 and 2,426 Fractions here, and hashed
    # 1,698 and 638 times (``Fraction.__hash__`` is not cached)
    backend = GL2Hecke() if kind == "gl2" else BostConnesHecke()
    x, y = (parse_element(backend, f) for f in expr.split("*"))
    product = []
    assert fraction_counts(monkeypatch, lambda: product.append(convolve(x, y))) == {}
    assert product == [multiply(x, y)]


def test_bc_lambda_check_fraction_builds(monkeypatch):
    # 529 label pairs; rebuilding every label and modular value as a
    # Fraction took 18,546 builds, integer cross-multiplication 1,435 while
    # labels were Fraction pairs; now 40, the 37 rationals the check draws
    # labels from and the 3 modular values it compares
    builds = fraction_builds(monkeypatch, lambda: checks.check_bc_lambda(checks.Config()))
    assert 0 < builds <= 40


def test_bc_lambda_check_catches_a_wrong_left_count(bc, monkeypatch):
    checks.check_bc_lambda(checks.Config())
    original = BostConnesHecke.left_count

    def off_by_one(self, label):
        # (36, 0) is only ever a product, T[6;0] * T[6;1/2]
        return original(self, label) + (label[:2] == (36, 1))

    monkeypatch.setattr(BostConnesHecke, "left_count", off_by_one)
    with pytest.raises(checks.CheckFailure, match="modular multiplicativity fails"):
        checks.check_bc_lambda(checks.Config())
    x = HeckeElement(bc, {bc.parse_label("6;0"): 1})
    y = HeckeElement(bc, {bc.parse_label("6;1/2"): 1})
    [(kx, ky, label, got, want)] = lambda_multiplicativity_witnesses(x, y)
    assert (kx, ky, label) == (*x.coeffs, *y.coeffs, bc.element(36, 0))
    assert type(got) is Fraction and type(want) is Fraction
    assert (got, want) == (37, 36)


def test_product_inverts_each_right_representative_once(monkeypatch):
    # 144 right-coset representatives of T[1,66]; the convolution used to
    # invert each of them once per candidate label (4 * 144 = 576)
    calls = []
    original = GL2Hecke.inv

    def counting(self, x):
        calls.append(x)
        return original(self, x)

    monkeypatch.setattr(GL2Hecke, "inv", counting)
    convolve_factors(GL2Hecke(), "T[1,42]*T[1,66]")
    assert len(calls) == 144


# ------------------------------------------------------------ closed-form products

def gl2_labels():
    content = st.builds(Fraction, st.sampled_from([1, 2, 3, 5]),
                        st.sampled_from([1, 2, 7]))
    ratio = st.integers(1, 40) | st.sampled_from([8, 16, 27, 32, 25])
    return st.builds(lambda c, n: (c.numerator, c.denominator, n), content, ratio)


def bc_labels():
    a = st.fractions(min_value=0, max_value=12, max_denominator=12).filter(bool)
    b = st.fractions(min_value=-30, max_value=30, max_denominator=12)
    return st.builds(bc_label, a, b)


def elements(backend, labels):
    return st.dictionaries(labels, st.integers(1, 3), min_size=1, max_size=2).map(
        lambda coeffs: HeckeElement(backend, coeffs))


@pytest.mark.parametrize("backend, labels", [(GL2Hecke(), gl2_labels()),
                                             (BostConnesHecke(), bc_labels())])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_multiply_matches_convolve(backend, labels, data):
    x, y = (data.draw(elements(backend, labels)) for _ in range(2))
    assert multiply(x, y) == convolve(x, y)


def test_multiply_falls_back_on_convolve(finite_s3_s4):
    k = finite_s3_s4.parse_label("K")
    x = HeckeElement(finite_s3_s4, {k: 1})
    assert multiply(x, x) == convolve(x, x)
    with pytest.raises(ValueError, match="different backends"):
        multiply(HeckeElement(GL2Hecke(), {gl2_label(1, 2): 1}), x)


class ConvolvingGL2(GL2Hecke):
    closed_product = None


class ConvolvingBC(BostConnesHecke):
    closed_product = None


# the README examples and the benchmark's product pools
PRODUCTS = [
    ("gl2", "T[1,2]*T[1,3]", "T[1,6]"),
    ("bc", "T[2;0]*T[3;0]", "T[6;0]"),
    ("gl2", "T[1,30]*T[1,66]", "T[1,1980] + 3*T[2,990] + 4*T[3,660] + 12*T[6,330]"),
    ("gl2", "T[1,30]*T[1,78]", None),
    ("gl2", "T[1,30]*T[1,105]", None),
    ("gl2", "T[1,42]*T[1,66]", None),
    ("gl2", "T[1,36]*T[1,24]*T[1/2,3] + 2*T[2,6]", None),
    ("bc", "T[1/105;0]*T[1/110;0]", "T[1/11550;0]"),
    ("bc", "T[1/105;0]*T[1/210;0]", None),
    ("bc", "T[1/110;0]*T[1/154;0]", None),
    ("bc", "T[1/110;0]*T[1/165;0]", None),
    ("bc", "T[1/110;0]*T[1/182;0]", None),
    ("bc", "T[1/110;0]*T[1/210;0]", None),
    ("bc", "T[1/130;0]*T[1/154;0]", None),
    ("bc", "T[1/130;0]*T[1/182;0]", None),
    ("bc", "T[1/6;1/12]*T[2/9;-5/9]*T[4/3;1/6]", "T[4/81;1/324] + T[4/81;1/108]"),
]


@pytest.mark.parametrize("kind, expr, text", PRODUCTS)
def test_closed_products_print_as_convolution(kind, expr, text):
    closed, plain = ((GL2Hecke(), ConvolvingGL2()) if kind == "gl2"
                     else (BostConnesHecke(), ConvolvingBC()))
    got, want = parse_element(closed, expr), parse_element(plain, expr)
    assert str(got) == str(want)
    assert got.to_json() == want.to_json()
    if text is not None:
        assert str(got) == text


def _plus_one(coeffs: dict) -> dict:
    label = min(coeffs, key=lambda k: (k[0], k[1]))
    return {**coeffs, label: coeffs[label] + 1}


@pytest.mark.parametrize("check, backend", [
    (checks.check_gl2_closed_form, GL2Hecke),
    (checks.check_bc_closed_form, BostConnesHecke),
])
@pytest.mark.parametrize("side", ["closed_product", "convolve"])
def test_closed_form_checks_catch_one_wrong_coefficient(check, backend, side, monkeypatch):
    check(checks.Config())
    if side == "closed_product":
        original = backend.closed_product
        monkeypatch.setattr(backend, "closed_product",
                            lambda self, kx, ky: _plus_one(original(self, kx, ky)))
    else:
        def off_by_one(x, y):
            z = convolve(x, y)
            return HeckeElement(z.backend, _plus_one(z.coeffs))
        monkeypatch.setattr(checks, "convolve", off_by_one)
    with pytest.raises(checks.CheckFailure, match="closed form and convolution disagree"):
        check(checks.Config())


def test_gl2_parse_label_enumerates_no_representatives(gl2, monkeypatch):
    monkeypatch.setattr(GL2Hecke, "right_reps", None)
    assert gl2.parse_label("2,6") == (2, 1, 3)
    with pytest.raises(ValueError, match="not a valid label: 2,3"):
        gl2.parse_label("2,3")


@pytest.mark.parametrize("backend, expr", [
    (GL2Hecke, "T[1,42]*T[1,66]"),
    (BostConnesHecke, "T[1/130;0]*T[1/182;0]"),
])
def test_closed_products_never_convolve(backend, expr, monkeypatch):
    want = parse_element(backend(), expr).to_json()

    def refuse(*args):
        raise AssertionError("the closed-form product path must not enumerate cosets")

    monkeypatch.setattr("heckefuse.hecke.convolve", refuse)
    monkeypatch.setattr(backend, "right_reps", refuse)
    assert parse_element(backend(), expr).to_json() == want
