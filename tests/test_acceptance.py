"""Acceptance suite: one test per criterion, one printed line per criterion.

Every expected value is either pinned from an in-test independent oracle
(brute-force enumeration, reciprocity counts, exhaustive scans) or is an
exactly checkable algebraic identity.  Tolerances: everything here is exact
integer/fraction arithmetic except representation-theoretic multiplicities,
whose integrality the library enforces at 1e-6.
"""

import functools
import itertools
import json
import random
from fractions import Fraction

import pytest

from heckefuse.catalog import BUILTIN, build_pair, fusion_table
from heckefuse.cocycle import Cocycle, conjugation_phase, heisenberg_cocycle
from heckefuse.elementary import ElementaryBimodule, fuse as elem_fuse, to_ext_hecke
from heckefuse.exthecke import (
    basis,
    conjugate,
    crossed_dim_identity,
    dims,
    fuse,
    to_hecke,
)
from heckefuse.hecke import (
    BostConnesHecke,
    GL2Hecke,
    HeckeElement,
    convolve,
    degree,
    lambda_multiplicativity_witnesses,
    modular_lambda,
)
from heckefuse.permcore import Perm, out_description
from heckefuse.projrep import (
    decompose,
    hom_dim,
    induce,
    irreducibles,
    regular_rep,
    restrict,
)

from groups import cyclic
from multisets import multiset_dim, support
from orbit_oracle import triple_fuse

FINITE_PAIRS = ("S3_in_S4", "Z3_regular", "D4_klein", "Heis3")


def criterion(number, title):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number:>2} [{title}]: FAIL")
                raise
            print(f"criterion {number:>2} [{title}]: PASS")
        return run
    return wrap


@pytest.fixture(scope="module")
def pairs():
    return {name: build_pair(BUILTIN[name]) for name in FINITE_PAIRS}


@criterion(1, "finite Hecke convolution")
def test_criterion_1(pairs):
    pair = pairs["S3_in_S4"]
    bk = pair.hecke()
    e_label, k_label = bk.labels()
    t = HeckeElement(bk, {k_label: 1})
    product = convolve(t, t)
    assert product.coeffs == {e_label: 3, k_label: 2}
    # independent brute-force convolution over all 24 group elements
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


@criterion(2, "degree homomorphism")
def test_criterion_2(pairs):
    for name in FINITE_PAIRS:
        bk = pairs[name].hecke()
        els = [HeckeElement(bk, {label: 1}) for label in bk.labels()]
        for x, y in itertools.product(els, repeat=2):
            assert degree(convolve(x, y)) == degree(x) * degree(y)


@criterion(3, "GL2 backend relations")
def test_criterion_3():
    bk = GL2Hecke()

    def matrix(x):
        n, q, p = x  # the content n/q times P
        return tuple(Fraction(n, q) * e for e in p)

    def mat_mul(x, y):
        return (x[0] * y[0] + x[1] * y[2], x[0] * y[1] + x[1] * y[3],
                x[2] * y[0] + x[3] * y[2], x[2] * y[1] + x[3] * y[3])

    def in_right_coset(x, y, g):
        # is x y in SL(2,Z) g?  On Fraction matrices, g^-1 = adj(g) / det(g)
        a, b, c, d = matrix(g)
        det = a * d - b * c
        w = mat_mul(mat_mul(matrix(x), matrix(y)),
                    (d / det, -b / det, -c / det, a / det))
        return (all(e.denominator == 1 for e in w)
                and w[0] * w[3] - w[1] * w[2] == 1)

    t2 = HeckeElement(bk, {bk.parse_label("1,2"): 1})
    t3 = HeckeElement(bk, {bk.parse_label("1,3"): 1})
    assert convolve(t2, t3).coeffs == {bk.parse_label("1,6"): 1}
    # independent enumeration for the same coefficient
    reps2, reps3 = (bk.right_reps(bk.parse_label(s)) for s in ("1,2", "1,3"))
    g6 = bk.element_of(bk.parse_label("1,6"))
    assert sum(1 for x in reps2 for y in reps3
               if in_right_coset(x, y, g6)) == 1
    for p in (2, 3):
        tp = HeckeElement(bk, {bk.parse_label(f"1,{p}"): 1})
        got = convolve(tp, tp).coeffs
        assert got == {bk.parse_label(f"1,{p * p}"): 1,
                       bk.parse_label(f"{p},{p}"): p + 1}
        reps = bk.right_reps(bk.parse_label(f"1,{p}"))
        for target, coeff in got.items():
            g = bk.element_of(target)
            assert sum(1 for x in reps for y in reps
                       if in_right_coset(x, y, g)) == coeff


@criterion(4, "ax+b modular function")
def test_criterion_4():
    bk = BostConnesHecke()
    for p in (2, 3, 5):
        assert modular_lambda(bk, bk.element(p, 0)) == p
    # all products of basis elements with numerator and denominator up to 12;
    # the scaling part determines lambda, residues sample the translation part
    scalings = sorted({Fraction(n, d) for n in range(1, 13)
                       for d in range(1, 13)})
    elements = [HeckeElement(bk, {bk.canonical_label(bk.element(a, 0)): 1})
                for a in scalings]
    for x, y in itertools.product(elements, repeat=2):
        assert not lambda_multiplicativity_witnesses(x, y)
    with_residues = [HeckeElement(bk, {bk.canonical_label(
        bk.element(a, Fraction(1, 2 * a.denominator))): 1}) for a in scalings[:12]]
    for x, y in itertools.product(with_residues, repeat=2):
        assert not lambda_multiplicativity_witnesses(x, y)


@criterion(5, "extended fusion associativity")
def test_criterion_5(pairs):
    for name in ("S3_in_S4", "D4_klein"):
        pair = pairs[name]
        els = [b for _, b in basis(pair)]
        assert len(pair.group) <= 48
        for x, y, z in itertools.product(els, repeat=3):
            symmetric = triple_fuse(x, y, z)
            assert symmetric == fuse(fuse(x, y), z)
            assert symmetric == fuse(x, fuse(y, z))


@criterion(6, "Frobenius reciprocity, extended basis")
def test_criterion_6(pairs):
    for name in ("S3_in_S4", "D4_klein"):
        pair = pairs[name]
        els = [b for _, b in basis(pair)]
        bars = [conjugate(b) for b in els]

        def mult(x, y, target):
            (label, parts), = support(target).items()
            (cls, _), = parts.items()
            return support(fuse(x, y)).get(label, {}).get(cls, 0)

        for (x, xb), (y, yb), z in itertools.product(
                zip(els, bars), zip(els, bars), els):
            assert mult(x, y, z) == mult(xb, z, y) == mult(z, yb, x)


@criterion(7, "dimension formulas and forgetful homomorphism")
def test_criterion_7(pairs):
    for name in FINITE_PAIRS:
        pair = pairs[name]
        gamma = pair.gamma
        gamma_set = set(gamma.elements)
        for _, el in basis(pair):
            (label, parts), = support(el).items()
            d = multiset_dim(parts)
            # brute-force indices, independently of the coset system
            left_little = sum(1 for x in gamma
                              if x.conjugate(label.inverse()) in gamma_set)
            right_little = sum(1 for x in gamma
                               if x.conjugate(label) in gamma_set)
            left_index = len(gamma) // left_little
            right_index = len(gamma) // right_little
            got_left, got_right = dims(el)
            assert got_left * len(gamma) == left_index * d * len(gamma)
            assert got_right * len(gamma) == right_index * d * len(gamma)
        els = [b for _, b in basis(pair)]
        for x, y in itertools.product(els, repeat=2):
            assert to_hecke(fuse(x, y)) == convolve(to_hecke(x), to_hecke(y))


@criterion(8, "crossed-product dimension identity")
def test_criterion_8(pairs):
    for name in FINITE_PAIRS:
        lhs, rhs = crossed_dim_identity(pairs[name])
        assert lhs == rhs
    pair = pairs["S3_in_S4"]
    terms = [dc.right_count ** 2 * len(dc.little) for dc in pair.cosets.cosets]
    assert crossed_dim_identity(pair) == (24, 24)
    assert sorted(terms) == [6, 18]


@criterion(9, "twisted representation suite")
def test_criterion_9(pairs):
    for n, expected_dim in ((2, 2), (3, 3)):
        group, _, omega = heisenberg_cocycle(n, 1)
        parts = decompose(regular_rep(group, omega))
        assert multiset_dim(parts) == len(group)
        assert sorted({cls.dim for cls in parts}) == [expected_dim]
        for g in group.elements:
            conjugation_phase(omega, g)  # raises unless Ad-identity holds
    for name in FINITE_PAIRS:
        pair = pairs[name]
        sub = pair.little(pair.labels()[0])
        big = pair.group
        triv = Cocycle.trivial(big)
        for small in irreducibles(sub):
            ind = induce(small.rep, big, triv)
            for large in irreducibles(big):
                assert hom_dim(ind, large.rep) == \
                    hom_dim(small.rep, restrict(large.rep, sub))


@criterion(10, "elementary versus extended fusion")
def test_criterion_10(pairs):
    pair = pairs["S3_in_S4"]
    omega = Cocycle.trivial(pair.gamma)
    ext_els = [b for _, b in basis(pair)]
    objs = []
    for label in pair.labels():
        for cls in irreducibles(pair.little(label)):
            objs.append(ElementaryBimodule(pair, omega, label, cls.rep))
    for (obj_x, ext_x), (obj_y, ext_y) in itertools.product(
            zip(objs, ext_els), repeat=2):
        assert to_ext_hecke(elem_fuse(obj_x, obj_y)) == fuse(ext_x, ext_y)


@criterion(11, "representative independence")
def test_criterion_11(pairs):
    baselines = {name: json.dumps(fusion_table(pairs[name]), sort_keys=True)
                 for name in FINITE_PAIRS}
    for trial in range(100):
        for name in FINITE_PAIRS:
            shuffled = pairs[name].with_choices(random.Random(trial))
            got = json.dumps(fusion_table(shuffled), sort_keys=True)
            assert got == baselines[name], f"{name} differs at trial {trial}"


@criterion(12, "outer-symmetry description")
def test_criterion_12():
    z3 = cyclic(3)
    desc = out_description(z3)
    assert desc.char_invariants == (3,)
    assert desc.quotient_order == 2
    assert desc.measure_factor == "Aut(X0,mu0)"
    # brute-force normalizer scan, independent of the library routine
    z3_set = set(z3.elements)
    normalizer = [Perm(p) for p in itertools.permutations(range(3))
                  if all(g.conjugate(Perm(p)) in z3_set for g in z3.elements)]
    assert len(normalizer) == 6
    assert len(normalizer) // len(z3) == desc.quotient_order
    nontrivial = [s for s in desc.quotient_reps if s not in z3]
    assert len(nontrivial) == 1
    permutation = desc.char_action[nontrivial[0]]
    for i, moved in enumerate(permutation):
        assert desc.char_exponents[moved] == tuple(
            (-v) % desc.modulus for v in desc.char_exponents[i])
