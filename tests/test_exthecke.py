import itertools
import random
import re

import numpy as np
import pytest

from heckefuse import projrep
from heckefuse.catalog import BUILTIN, build_omega, build_pair
from heckefuse.cocycle import Cocycle
from heckefuse.exthecke import (
    ExtHeckeElement,
    FinitePair,
    basis,
    conjugate,
    crossed_dim_identity,
    dims,
    from_rep,
    fuse,
    overcount_blocks,
    overcount_identity,
    parse_ext_element,
    structure_constants,
    to_hecke,
    unit,
)
from heckefuse.hecke import convolve
from heckefuse.permcore import FiniteGroup, Perm, Subgroup, conjugate_intersection
from heckefuse.projrep import (
    Rep,
    decompose,
    hom_dim,
    induce,
    irreducibles,
    regular_rep,
    restrict,
    tensor,
    transport,
    trivial_rep,
)

from groups import symmetric
from multisets import add_multiset, element, support
from orbit_oracle import (
    orbit_contribution,
    perm_cosets,
    perm_orbits,
    random_coset_element,
    transport_class,
    triple_fuse,
)


def direct_sum(reps):
    """Block-diagonal sum of representations sharing group and cocycle."""
    group, cocycle = reps[0].group, reps[0].cocycle
    if any(r.group != group or r.cocycle != cocycle for r in reps):
        raise ValueError("direct summands must share group and cocycle")
    dim = sum(r.dim for r in reps)
    mats = np.zeros((len(group), dim, dim), dtype=complex)
    at = 0
    for r in reps:
        mats[:, at:at + r.dim, at:at + r.dim] = r.matrices
        at += r.dim
    return Rep._of(group, cocycle, mats)


def conjugate_rep(a):
    """The complex conjugate representation, with the inverse cocycle."""
    return Rep._of(a.group, a.cocycle.inverse(), a.matrices.conj())


@pytest.fixture(scope="module")
def s3s4():
    g = FiniteGroup.generate(4, [Perm.parse(4, "(0 1)"), Perm.parse(4, "(0 1 2 3)")])
    gamma = Subgroup(
        g, FiniteGroup.generate(4, [Perm.parse(4, "(0 1)"), Perm.parse(4, "(0 1 2)")]).elements
    )
    return FinitePair(g, gamma, name="S3_in_S4")


@pytest.fixture(scope="module")
def klein_d4():
    g = FiniteGroup.generate(4, [Perm.parse(4, "(0 1 2 3)"), Perm.parse(4, "(1 3)")])
    gamma = Subgroup(
        g, FiniteGroup.generate(4, [Perm.parse(4, "(0 1)(2 3)"),
                                    Perm.parse(4, "(0 2)(1 3)")]).elements
    )
    return FinitePair(g, gamma, name="Klein_in_D4")


def value_at(x, target):
    """The representation of little(target) that x assigns to target, or None:
    the block sum of its label's classes, transported along the decomposition."""
    pair = x.pair
    label = pair.label_of(target)
    parts = support(x).get(label)
    if parts is None:
        return None
    base = direct_sum([cls.rep for cls in sorted(parts, key=lambda c: c.sort_key())
                       for _ in range(parts[cls])])
    if target == label:
        return base
    _, c2 = pair.decomposition(label, target)
    return transport(base, pair.little_of_element(target),
                     lambda t: t.conjugate(c2))


def reciprocity_oracle(pair, x, y):
    """Independent multiplicity extraction for fuse(x, y).

    Instead of inducing and numerically decomposing, use ordinary Frobenius
    reciprocity: the multiplicity of an irreducible r of little(g) in
    Ind_S(tau) is hom_dim(tau, Res_S r).  Shares only the transport
    conventions with the implementation.
    """
    out, sx, sy = {}, support(x), support(y)
    for g0 in pair.labels():
        little_g = pair.little(g0)
        per_class = {}
        for orbit in perm_orbits(pair.group, pair.gamma, little_g):
            h = orbit[0]
            w = g0 * h.inverse()
            if pair.label_of(w) not in sx or pair.label_of(h) not in sy:
                continue
            meet = pair.intersection(little_g, pair.little_of_element(h))
            left = transport(value_at(x, w), meet, lambda t: t.conjugate(h))
            right = restrict(value_at(y, h), meet)
            tau = tensor(left, right)
            for cls in irreducibles(little_g):
                m = hom_dim(tau, restrict(cls.rep, meet))
                if m:
                    per_class[cls] = per_class.get(cls, 0) + m
        if per_class:
            out[g0] = per_class
    return out


def matrix_contribution(pair, x, y, g0, h):
    """The orbit contribution by matrices: transport, restrict, tensor and
    induce representations, then decompose the induced one."""
    w = g0 * h.inverse()
    if pair.label_of(w) not in support(x) or pair.label_of(h) not in support(y):
        return None
    little_g = pair.little(g0)
    meet = pair.intersection(little_g, pair.little_of_element(h))
    left = transport(value_at(x, w), meet, lambda t: t.conjugate(h))
    right = restrict(value_at(y, h), meet)
    ind = induce(tensor(left, right), little_g, Cocycle.trivial(little_g),
                 rng=pair.rng)
    return decompose(ind)


def pair_orbits(pair, little):
    """Orbits of the little group on pairs of right cosets, diagonally."""
    cosets, coset_of = perm_cosets(pair.group, pair.gamma)
    mins = [coset[0] for coset in cosets]
    all_pairs = {(a, b) for a in mins for b in mins}
    orbits = []
    while all_pairs:
        start = min(all_pairs)
        orbit = {start}
        boundary = [start]
        while boundary:
            fresh = []
            for (a, b) in boundary:
                for x in little.elements:
                    nxt = (cosets[coset_of[a * x]][0], cosets[coset_of[b * x]][0])
                    if nxt not in orbit:
                        orbit.add(nxt)
                        fresh.append(nxt)
            boundary = fresh
        all_pairs -= orbit
        orbits.append(sorted(orbit))
    return orbits


def matrix_triple_fuse(x, y, z):
    """The triple product by matrices, one induction per diagonal pair orbit."""
    pair = x.pair
    out, sx, sy, sz = {}, support(x), support(y), support(z)
    for g0 in pair.labels():
        little_g = pair.little(g0)
        total = {}
        for orbit in pair_orbits(pair, little_g):
            h0, k0 = pair.pick(orbit)
            h = random_coset_element(pair, h0)
            k = random_coset_element(pair, k0)
            w1 = g0 * h.inverse()
            w2 = h * k.inverse()
            if (pair.label_of(w1) not in sx
                    or pair.label_of(w2) not in sy
                    or pair.label_of(k) not in sz):
                continue
            meet = pair.intersection(
                pair.intersection(little_g, pair.little_of_element(h)),
                pair.little_of_element(k))
            a = transport(value_at(x, w1), meet, lambda t: t.conjugate(h))
            b = transport(value_at(y, w2), meet, lambda t: t.conjugate(k))
            c = restrict(value_at(z, k), meet)
            ind = induce(tensor(tensor(a, b), c), little_g, Cocycle.trivial(little_g),
                         rng=pair.rng)
            total = add_multiset(total, decompose(ind))
        if total:
            out[g0] = total
    return element(pair, out)


def matrix_conjugate(x):
    """Conjugation by matrices: transport the value at new_label^-1 to
    little(new_label) along Ad(new_label), then take the complex conjugate."""
    pair = x.pair
    out = {}
    for label in support(x):
        new_label = pair.label_of(label.inverse())
        rep_t = value_at(x, new_label.inverse())
        moved = transport(rep_t, pair.little(new_label),
                          lambda t: t.conjugate(new_label))
        out[new_label] = add_multiset(out.get(new_label, {}),
                                      decompose(conjugate_rep(moved)))
    return element(pair, out)


ORACLE_PAIRS = ["S3_in_S4", "D4_klein", "Heis3", "Z3_regular"]


def oracle_pair(name, choice):
    pair = build_pair(BUILTIN[name])
    return pair if choice is None else pair.with_choices(random.Random(choice))


# ------------------------------------------------------------ basics

def test_unit_is_neutral(s3s4):
    e = unit(s3s4)
    for _, b in basis(s3s4):
        assert fuse(e, b) == b
        assert fuse(b, e) == b


def test_constructor_refuses_a_vector_that_is_no_element(s3s4):
    n = len(basis(s3s4))
    for vector, message in [(np.ones(n + 1, dtype=np.int64), "multiplicities, not shape"),
                            (np.ones((1, n), dtype=np.int64), "multiplicities, not shape"),
                            (np.ones(n), "integers"),
                            (np.ones(n, dtype=bool), "integers"),
                            (-np.eye(n, dtype=np.int64)[2], "nonnegative")]:
        with pytest.raises(ValueError, match=message):
            ExtHeckeElement(s3s4, vector)
    x = ExtHeckeElement(s3s4, np.arange(n, dtype=np.int32))
    assert x.vector.dtype == np.int64 and x == ExtHeckeElement(s3s4, np.arange(n))
    with pytest.raises(ValueError, match="nonnegative"):
        x.scale(-1)


def test_elements_of_different_pairs_do_not_mix(s3s4, klein_d4):
    x, y = unit(s3s4), unit(klein_d4)
    assert x != y
    for combine in (lambda: x + y, lambda: fuse(x, y)):
        with pytest.raises(ValueError, match="different pairs"):
            combine()


def test_basis_size_s3s4(s3s4):
    descriptors = [d for d, _ in basis(s3s4)]
    assert len(descriptors) == 5  # 3 classes of S3 at e, 2 classes of Z/2 at K
    assert descriptors == ["e:0", "e:1", "e:2", "K:0", "K:1"]


def test_crossed_dim_identity(s3s4, klein_d4):
    assert crossed_dim_identity(s3s4) == (24, 24)
    lhs, rhs = crossed_dim_identity(klein_d4)
    assert lhs == rhs
    # gamma = G: identity reads |G| = |G|
    g = symmetric(3)
    pair = FinitePair(g, Subgroup(g, g.elements))
    assert crossed_dim_identity(pair) == (6, 6)
    # gamma normal: every coset contributes 1^2 * |gamma|
    a4 = FiniteGroup.generate(4, [Perm.parse(4, "(0 1 2)"), Perm.parse(4, "(1 2 3)")])
    g4 = FiniteGroup.generate(4, [Perm.parse(4, "(0 1)"), Perm.parse(4, "(0 1 2 3)")])
    normal = FinitePair(g4, Subgroup(g4, a4.elements))
    lhs, rhs = crossed_dim_identity(normal)
    assert lhs == rhs == 2 * 12
    assert all(dc.right_count == 1 for dc in normal.cosets.cosets)


# ------------------------------------------------------------ the worked example

def test_kx_squared_structure(s3s4):
    pair = s3s4
    e_label, k_label = pair.labels()
    triv_k = irreducibles(pair.little(k_label))[0]
    assert triv_k.dim == 1
    x = element(pair, {k_label: {triv_k: 1}})
    sq = support(fuse(x, x))
    # at the unit coset: Ind of the trivial rep of an order-2 subgroup of S3
    at_e = sq[e_label]
    dims_at_e = sorted(c.dim for c in at_e)
    assert dims_at_e == [1, 2] and all(m == 1 for m in at_e.values())
    (unit_label, unit_parts), = support(unit(pair)).items()
    (unit_class, _), = unit_parts.items()
    assert at_e.get(unit_class) == 1  # the unit appears exactly once
    # at K: total dimension 2 over the order-2 little group
    assert sum(c.dim * m for c, m in sq[k_label].items()) == 2
    # exact split cross-checked against the reciprocity oracle
    assert sq == reciprocity_oracle(pair, x, x)


def test_fuse_matches_reciprocity_oracle_on_all_basis_pairs(s3s4):
    pair = s3s4
    els = [b for _, b in basis(pair)]
    for x in els:
        for y in els:
            assert support(fuse(x, y)) == reciprocity_oracle(pair, x, y)


def test_to_hecke_cross_oracle(s3s4):
    pair = s3s4
    bk = pair.hecke()
    e_label, k_label = pair.labels()
    triv_k = irreducibles(pair.little(k_label))[0]
    x = element(pair, {k_label: {triv_k: 1}})
    assert to_hecke(fuse(x, x)) == convolve(to_hecke(x), to_hecke(x))
    assert convolve(to_hecke(x), to_hecke(x)).coeffs == {e_label: 3, k_label: 2}


def test_to_hecke_homomorphism_all_basis_pairs(s3s4):
    pair = s3s4
    els = [b for _, b in basis(pair)]
    for x in els:
        for y in els:
            assert to_hecke(fuse(x, y)) == convolve(to_hecke(x), to_hecke(y))


@pytest.mark.parametrize("choice", [None, 0, 1, 2])
@pytest.mark.parametrize("name", ORACLE_PAIRS)
def test_orbit_contribution_matches_matrix_formula(name, choice):
    pair = oracle_pair(name, choice)
    els = [b for _, b in basis(pair)]
    nonzero = 0
    for g0 in pair.labels():
        for orbit in perm_orbits(pair.group, pair.gamma, pair.little(g0)):
            for coset_min in orbit:
                h = random_coset_element(pair, coset_min)
                for x in els:
                    for y in els:
                        got = orbit_contribution(pair, x, y, g0, h)
                        assert got == matrix_contribution(pair, x, y, g0, h)
                        nonzero += got is not None
    assert nonzero


@pytest.mark.parametrize("choice", [None, 0, 1, 2])
@pytest.mark.parametrize("name", ORACLE_PAIRS)
def test_triple_and_conjugate_match_matrix_formulas(name, choice):
    pair = oracle_pair(name, choice)
    els = [b for _, b in basis(pair)]
    for b in els:
        assert conjugate(b) == matrix_conjugate(b)
    triples = list(itertools.product(els, repeat=3))
    for x, y, z in random.Random(0).sample(triples, min(24, len(triples))):
        assert triple_fuse(x, y, z) == matrix_triple_fuse(x, y, z)


@pytest.mark.parametrize("name", ORACLE_PAIRS)
def test_character_paths_build_no_rep(name, monkeypatch):
    pair = build_pair(BUILTIN[name])
    els = [b for _, b in basis(pair)]
    built = []
    init = projrep.Rep.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(projrep.Rep, "__init__", counting)
    for x in els:
        conjugate(x)
        for y in els:
            fuse(x, y)
    for x, y, z in random.Random(0).sample(list(itertools.product(els, repeat=3)), 8):
        triple_fuse(x, y, z)
    assert len(built) == 0


def test_little_takes_labels_only_whatever_was_cached(s3s4):
    pair = FinitePair(s3s4.group, s3s4.gamma, name="S3_in_S4")
    t = Perm.parse(4, "(1 2)")
    assert t not in pair.labels()
    cls = irreducibles(conjugate_intersection(pair.gamma, t))[0]
    named = re.escape(repr(t))
    with pytest.raises(ValueError, match=named):
        element(pair, {t: {cls: 1}})
    assert pair.little_of_element(t) == conjugate_intersection(pair.gamma, t)
    with pytest.raises(ValueError, match=named):
        element(pair, {t: {cls: 1}})
    with pytest.raises(ValueError, match=named):
        pair.little(t)
    for label in pair.labels():
        assert pair.little_of_element(label) is pair.little(label)


# ------------------------------------------------------------ overcount

def test_overcount_check_unit(s3s4):
    # the unit label with itself: one orbit, of the one coset gamma, at the
    # unit label, whose term is the fusion block
    e_label = s3s4.labels()[0]
    orbits, = overcount_blocks(s3s4, [(e_label, e_label)])
    (g0, cosets), = orbits
    (h, term), = cosets.items()
    assert g0 == h == e_label
    consts = structure_constants(s3s4)
    span = consts.spans[e_label]
    block = consts.whole()[span, span]
    assert not block[:, :, span.stop:].any() and (block[:, :, span] == term).all()


def test_overcount_check_basis_pairs(s3s4):
    # the identity is bilinear, so the blocks of basis pairs cover every pair
    overcount_identity(s3s4)


def test_overcount_check_klein_d4(klein_d4):
    overcount_identity(klein_d4)


# ------------------------------------------------------------ associativity

def test_triple_fuse_with_unit_reduces(s3s4):
    pair = s3s4
    els = [b for _, b in basis(pair)]
    e = unit(pair)
    for x in els[:3]:
        for y in els[3:]:
            assert triple_fuse(e, x, y) == fuse(x, y)
            assert triple_fuse(x, e, y) == fuse(x, y)
            assert triple_fuse(x, y, e) == fuse(x, y)


def test_associativity_sample(s3s4):
    pair = s3s4
    els = [b for _, b in basis(pair)]
    for x, y, z in [(els[3], els[3], els[3]), (els[1], els[3], els[4]),
                    (els[4], els[2], els[3])]:
        t = triple_fuse(x, y, z)
        assert t == fuse(fuse(x, y), z)
        assert t == fuse(x, fuse(y, z))


def test_associativity_random_sums(s3s4):
    pair = s3s4
    els = [b for _, b in basis(pair)]
    x = els[0] + els[3].scale(2)
    y = els[4] + els[1]
    z = els[3]
    t = triple_fuse(x, y, z)
    assert t == fuse(fuse(x, y), z) == fuse(x, fuse(y, z))


# ------------------------------------------------------------ conjugation

def test_conjugate_unit(s3s4):
    assert conjugate(unit(s3s4)) == unit(s3s4)


def test_conjugate_k_triv(s3s4):
    pair = s3s4
    k_label = pair.labels()[1]
    triv_k = irreducibles(pair.little(k_label))[0]
    x = element(pair, {k_label: {triv_k: 1}})
    assert conjugate(x) == x


def test_double_conjugate_identity(s3s4, klein_d4):
    for pair in (s3s4, klein_d4):
        for _, b in basis(pair):
            assert conjugate(conjugate(b)) == b


def test_conjugate_antimultiplicative(s3s4):
    els = [b for _, b in basis(s3s4)]
    for x, y in [(els[3], els[4]), (els[1], els[3])]:
        assert conjugate(fuse(x, y)) == fuse(conjugate(y), conjugate(x))


# ------------------------------------------------------------ dims

def test_dims_unit(s3s4):
    assert dims(unit(s3s4)) == (1, 1)


def test_dims_k_triv(s3s4):
    pair = s3s4
    k_label = pair.labels()[1]
    triv_k = irreducibles(pair.little(k_label))[0]
    x = element(pair, {k_label: {triv_k: 1}})
    assert dims(x) == (3, 3)


def test_dims_additive(s3s4):
    els = [b for _, b in basis(s3s4)]
    x, y = els[0], els[3]
    dx, dy = dims(x), dims(y)
    dsum = dims(x + y)
    assert dsum == (dx[0] + dy[0], dx[1] + dy[1])


def test_dims_match_brute_force_counts(s3s4):
    pair = s3s4
    gamma = pair.gamma
    for _, b in basis(pair):
        (label, parts), = support(b).items()
        d = sum(c.dim * m for c, m in parts.items())
        gamma_set = set(gamma.elements)
        left_little = [x for x in gamma if x.conjugate(label.inverse()) in gamma_set]
        right_little = [x for x in gamma if x.conjugate(label) in gamma_set]
        expect = (len(gamma) // len(left_little) * d,
                  len(gamma) // len(right_little) * d)
        assert dims(b) == expect


# ------------------------------------------------------------ hom & from_rep

def test_from_rep_homomorphism(s3s4):
    pair = s3s4
    gamma_classes = irreducibles(pair.little(pair.labels()[0]))
    for a in gamma_classes:
        for b in gamma_classes:
            x = from_rep(pair, a.rep)
            y = from_rep(pair, b.rep)
            prod = fuse(x, y)
            expect = from_rep_multiset(pair, decompose(tensor(a.rep, b.rep)))
            assert prod == expect


def test_from_rep_restricts_to_gamma(s3s4):
    pair = s3s4
    e_label, k_label = pair.labels()
    assert from_rep(pair, trivial_rep(pair.group)) == unit(pair)
    # the regular representation of S4 is 4 copies of S3's on restriction
    classes = irreducibles(pair.little(e_label))
    assert (support(from_rep(pair, regular_rep(pair.group)))
            == {e_label: {c: 4 * c.dim for c in classes}})
    with pytest.raises(ValueError, match="not a subgroup"):
        from_rep(pair, trivial_rep(pair.little(k_label)))


def test_from_rep_refuses_a_twisted_representation():
    pair = build_pair(BUILTIN["D4_klein"])
    gamma = pair.little(pair.labels()[0])
    twisted = regular_rep(gamma, build_omega(BUILTIN["D4_klein"], pair).restrict(gamma))
    assert not twisted.cocycle.is_trivial_table()
    with pytest.raises(ValueError, match="trivial cocycles"):
        from_rep(pair, twisted)


def from_rep_multiset(pair, parts):
    label = pair.labels()[0]
    return element(pair, {label: parts})


def test_frobenius_reciprocity_exhaustive(s3s4):
    pair = s3s4
    els = basis(pair)

    def mult(x, y, target):
        (label, parts), = support(target).items()
        (cls, _), = parts.items()
        return support(fuse(x, y)).get(label, {}).get(cls, 0)

    for (_, x), (_, y), (_, z) in itertools.product(els, repeat=3):
        assert mult(x, y, z) == mult(conjugate(x), z, y) == mult(z, conjugate(y), x)


# ------------------------------------------------------------ transport

def test_transport_identity(s3s4):
    pair = s3s4
    k_label = pair.labels()[1]
    cls = irreducibles(pair.little(k_label))[1]
    assert transport_class(pair, k_label, cls, k_label) == cls


def test_transport_by_little_element_fixes_class(s3s4):
    pair = s3s4
    k_label = pair.labels()[1]
    for cls in irreducibles(pair.little(k_label)):
        for c2 in pair.little(k_label).elements:
            target = k_label * c2
            assert transport_class(pair, k_label, cls, target) == cls


def test_transport_outside_coset_raises(s3s4):
    pair = s3s4
    e_label, k_label = pair.labels()
    cls = irreducibles(pair.little(k_label))[0]
    with pytest.raises(ValueError):
        transport_class(pair, k_label, cls, e_label)


def test_transport_class_on_wrong_little_group_raises(s3s4):
    pair = s3s4
    e_label, k_label = pair.labels()
    gamma_cls = irreducibles(pair.little(e_label))[0]
    target = [pair.group.elements[i] for i in pair.cosets.coset(k_label).idx][5]
    k_cls = irreducibles(pair.little(k_label))[0]
    for label, cls, at in [(k_label, gamma_cls, target),
                           (e_label, k_cls, Perm.parse(4, "(1 2)"))]:
        with pytest.raises(ValueError, match="wrong little group"):
            transport_class(pair, label, cls, at)


def test_decompositions_are_every_pair_in_gamma_order(s3s4):
    pair = s3s4
    e_label, k_label = pair.labels()
    gamma = pair.gamma.elements
    for target in [pair.group.elements[i] for i in pair.cosets.coset(k_label).idx][::4]:
        brute = [(c1, c2) for c2 in gamma for c1 in gamma
                 if c1 * k_label * c2 == target]
        assert list(pair.decompositions(k_label, target)) == brute
        assert len(brute) == len(pair.little(k_label))
    assert list(pair.decompositions(k_label, e_label)) == []


def test_transport_decomposition_independent(s3s4):
    pair = s3s4
    k_label = pair.labels()[1]
    target = [pair.group.elements[i] for i in pair.cosets.coset(k_label).idx][5]
    classes = irreducibles(pair.little(k_label))
    canonical = [transport_class(pair, k_label, c, target) for c in classes]
    for i in range(5):
        shuffled = pair.with_choices(random.Random(i))
        got = [transport_class(shuffled, k_label, c, target) for c in classes]
        assert got == canonical


# ------------------------------------------------------------ representative independence

def test_fuse_representative_independence(s3s4):
    pair = s3s4
    els = basis(pair)
    canonical = {(dx, dy): fuse(x, y).key()
                 for dx, x in els for dy, y in els}
    for trial in range(3):
        shuffled = pair.with_choices(random.Random(trial))
        els2 = basis(shuffled)
        for (dx, x), (dy, y) in zip(els, els2):
            assert x == y  # descriptors and classes agree
        got = {(dx, dy): fuse(x, y).key() for dx, x in els2 for dy, y in els2}
        assert got == canonical


# ------------------------------------------------------------ parsing

def test_parse_ext_element(s3s4):
    pair = s3s4
    el = parse_ext_element(pair, "B[K:0] + 2*B[e:1]")
    k_label, e_label = pair.labels()[1], pair.labels()[0]
    assert support(el)[k_label] == {irreducibles(pair.little(k_label))[0]: 1}
    assert support(el)[e_label] == {irreducibles(pair.little(e_label))[1]: 2}
    assert str(el) == "2*B[e:1] + B[K:0]"
    with pytest.raises(ValueError):
        parse_ext_element(pair, "B[K:7]")
    with pytest.raises(ValueError):
        parse_ext_element(pair, "nope")
