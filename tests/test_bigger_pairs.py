"""Stress checks on pairs beyond the bundled catalog."""

import itertools

import pytest

from heckefuse.exthecke import (
    FinitePair,
    basis,
    conjugate,
    crossed_dim_identity,
    dims,
    fuse,
    overcount_identity,
    to_hecke,
)
from heckefuse.hecke import HeckeElement, convolve, degree
from heckefuse.permcore import FiniteGroup, Perm, Subgroup
from heckefuse.projrep import decompose, irreducibles, regular_rep

from orbit_oracle import triple_fuse


@pytest.fixture(scope="module")
def d4_in_s4():
    g = FiniteGroup.generate(4, [Perm.parse(4, "(0 1)"), Perm.parse(4, "(0 1 2 3)")])
    d4 = FiniteGroup.generate(4, [Perm.parse(4, "(0 1 2 3)"), Perm.parse(4, "(1 3)")])
    return FinitePair(g, Subgroup(g, d4.elements), name="D4_in_S4")


@pytest.fixture(scope="module")
def s4_in_s5():
    g = FiniteGroup.generate(5, [Perm.parse(5, "(0 1)"), Perm.parse(5, "(0 1 2 3 4)")])
    s4 = FiniteGroup.generate(5, [Perm.parse(5, "(0 1)"), Perm.parse(5, "(0 1 2 3)")])
    return FinitePair(g, Subgroup(g, s4.elements), name="S4_in_S5")


def test_s4_regular_decomposition():
    s4 = FiniteGroup.generate(4, [Perm.parse(4, "(0 1)"), Perm.parse(4, "(0 1 2 3)")])
    classes = irreducibles(s4)
    assert sorted(c.dim for c in classes) == [1, 1, 2, 3, 3]
    parts = decompose(regular_rep(s4))
    assert all(parts[c] == c.dim for c in classes)


def test_d4_in_s4_structure(d4_in_s4):
    pair = d4_in_s4
    assert [len(dc.idx) for dc in pair.cosets.cosets] == [8, 16]
    assert crossed_dim_identity(pair) == (3 * 8, 1 * 8 + 4 * 4)
    # basis: 5 classes of D4 at e, 4 classes of the order-4 little group at K
    assert len(basis(pair)) == 9


def test_d4_in_s4_hecke_brute_force(d4_in_s4):
    pair = d4_in_s4
    bk = pair.hecke()
    e_label, k_label = bk.labels()
    t = HeckeElement(bk, {k_label: 1})
    product = convolve(t, t)
    gamma = pair.gamma
    oracle = {}
    for x in pair.group:
        total = sum(
            (1 if bk.canonical_label(x * h.inverse()) == k_label else 0)
            * (1 if bk.canonical_label(h) == k_label else 0)
            for h in pair.group.elements)
        assert total % len(gamma) == 0
        if total:
            oracle[bk.canonical_label(x)] = total // len(gamma)
    assert product.coeffs == oracle


def test_d4_in_s4_fusion_laws(d4_in_s4):
    pair = d4_in_s4
    els = [b for _, b in basis(pair)]
    for x, y in itertools.product(els, repeat=2):
        assert to_hecke(fuse(x, y)) == convolve(to_hecke(x), to_hecke(y))
        dx, dy = dims(x), dims(y)
        assert dims(fuse(x, y)) == (dx[0] * dy[0], dx[1] * dy[1])
    sample = [(0, 5, 7), (5, 6, 8), (2, 5, 5), (8, 8, 8), (3, 7, 1)]
    for i, j, k in sample:
        x, y, z = els[i], els[j], els[k]
        t = triple_fuse(x, y, z)
        assert t == fuse(fuse(x, y), z) == fuse(x, fuse(y, z))
    for x in els:
        assert conjugate(conjugate(x)) == x
    overcount_identity(pair)


def test_s4_in_s5_basics(s4_in_s5):
    pair = s4_in_s5
    assert len(pair.group) == 120
    sizes = sorted(len(dc.idx) for dc in pair.cosets.cosets)
    assert sizes == [24, 96]
    lhs, rhs = crossed_dim_identity(pair)
    assert lhs == rhs == 5 * 24
    bk = pair.hecke()
    els = [HeckeElement(bk, {label: 1}) for label in bk.labels()]
    for x, y in itertools.product(els, repeat=2):
        assert degree(convolve(x, y)) == degree(x) * degree(y)


def test_s4_in_s5_fusion_sample(s4_in_s5):
    pair = s4_in_s5
    els = [b for _, b in basis(pair)]
    # 5 classes of S4 at the unit coset + 3 classes of S3 at the big one
    assert len(els) == 8
    big = els[-1]
    square = fuse(big, big)
    assert to_hecke(square) == convolve(to_hecke(big), to_hecke(big))
    assert conjugate(conjugate(big)) == big
