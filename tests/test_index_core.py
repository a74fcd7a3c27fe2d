"""The index-native hot paths against the Perm- and tuple-based formulas
they replace: exact row lookup, conjugation maps, cocycle arithmetic on
int64 arrays, elementary bookkeeping, and the object counts of a ``check``
pass."""

import collections
import random
from math import gcd, lcm

import numpy as np
import pytest

import heckefuse
from heckefuse import checks, cocycle, elementary, exthecke, permcore, projrep
from heckefuse.catalog import BUILTIN, build_omega, build_pair
from heckefuse.cocycle import Cocycle, PhaseFunction, conjugation_phase, heisenberg_group
from heckefuse.elementary import required_cocycle
from heckefuse.exthecke import FinitePair
from heckefuse.permcore import (
    FiniteGroup,
    Perm,
    Subgroup,
    conj_map,
    conjugate_intersection,
)

PAIR_NAMES = ("D4_klein", "Heis3", "S3_in_S4", "Z3_regular", "S4_in_S5")


def make_pair(name: str) -> FinitePair:
    if name != "S4_in_S5":
        return build_pair(BUILTIN[name])
    s5 = FiniteGroup.generate(5, [Perm.parse(5, "(0 1)"), Perm.parse(5, "(0 1 2 3 4)")])
    s4 = FiniteGroup.generate(5, [Perm.parse(5, "(0 1)"), Perm.parse(5, "(0 1 2 3)")])
    return FinitePair(s5, s5.subgroup(s4.elements), name=name)


@pytest.fixture(scope="module", params=PAIR_NAMES)
def pair(request):
    return make_pair(request.param)


def sample(elements, k=40, seed=0):
    """Every element of a small list, a seeded sample of a large one."""
    elements = list(elements)
    return elements if len(elements) <= k else random.Random(seed).sample(elements, k)


# ------------------------------------------------------------ Perm-based oracles

def oracle_conjugate_intersection(gamma, g):
    gamma_set = set(gamma.elements)
    return [x for x in gamma.elements if x.conjugate(g) in gamma_set]


def oracle_decompositions(pair, delta, target):
    dinv = delta.inverse()
    out = []
    for c2 in pair.gamma.elements:
        c1 = target * c2.inverse() * dinv
        if c1 in pair.gamma:
            out.append((c1, c2))
    return out


def test_conjugate_intersection_matches_perm_oracle(pair):
    for g in sample(pair.group.elements):
        got = conjugate_intersection(pair.gamma, g)
        assert list(got.elements) == oracle_conjugate_intersection(pair.gamma, g)


def test_decompositions_match_perm_oracle(pair):
    for label in pair.labels():
        members = sorted(pair.cosets.coset(label).elements)
        for target in sample(members, 6):
            for delta in sample(members, 3, seed=1):
                got = list(pair.decompositions(delta, target))
                assert got == oracle_decompositions(pair, delta, target)
                assert got


def test_conj_map_matches_perm_conjugation(pair):
    gamma = pair.gamma
    for delta in sample(pair.group.elements):
        rig = pair.little_of_element(delta)
        want = [gamma.index_of(t.conjugate(delta)) for t in rig.elements]
        assert conj_map(rig, delta, gamma).tolist() == want


def test_tables_match_perm_products(pair):
    gamma = pair.gamma
    els = gamma.elements
    mul = [[gamma.index_of(a * b) for b in els] for a in els]
    assert gamma.mul_table().tolist() == mul
    assert gamma.inv_indices().tolist() == [gamma.index_of(g.inverse()) for g in els]
    assert gamma.conj_table().tolist() == [
        [gamma.index_of(g.conjugate(x)) for g in els] for x in els]
    assert gamma.identity == Perm.identity(gamma.degree) == els[0]


# ------------------------------------------------------------ tuple-based cocycle oracle

class TupleCocycle:
    """A cocycle as a tuple-of-tuples exponent table, with the tuple
    formulas of each operation."""

    def __init__(self, group, modulus, table):
        self.group, self.modulus = group, modulus
        self.table = tuple(tuple(int(e) % modulus for e in row) for row in table)

    def rescale(self, m):
        f = m // self.modulus
        return TupleCocycle(self.group, m, [[e * f for e in row] for row in self.table])

    def __mul__(self, other):
        m = lcm(self.modulus, other.modulus)
        a, b = self.rescale(m), other.rescale(m)
        return TupleCocycle(self.group, m, [[x + y for x, y in zip(ra, rb)]
                                            for ra, rb in zip(a.table, b.table)])

    def inverse(self):
        return TupleCocycle(self.group, self.modulus, [[-e for e in row] for row in self.table])

    def pullback(self, new_group, fwd):
        idx = [self.group.index_of(fwd(g)) for g in new_group.elements]
        return TupleCocycle(new_group, self.modulus,
                            [[self.table[i][j] for j in idx] for i in idx])

    def restrict(self, sub):
        return self.pullback(sub, lambda g: g)

    def exponent(self, g, h):
        return self.table[self.group.index_of(g)][self.group.index_of(h)]

    def key(self):
        """The reduced (modulus, table), so equal root-of-unity functions agree."""
        g = self.modulus
        for row in self.table:
            for e in row:
                g = gcd(g, e)
        return self.modulus // g, tuple(tuple(e // g for e in row) for row in self.table)


def tuple_coboundary(group, modulus, values):
    els = group.elements
    return TupleCocycle(group, modulus, [
        [values[i] + values[j] - values[group.index_of(a * b)] for j, b in enumerate(els)]
        for i, a in enumerate(els)])


def tuple_conjugation_phase(omega, g):
    m = omega.modulus
    return [(omega.exponent(h.conjugate(g), g) - omega.exponent(g, h)) % m
            for h in omega.group.elements]


def same(new: Cocycle, old: TupleCocycle) -> bool:
    n = len(new.group)
    reduced = np.frombuffer(new.key()[2], dtype=np.int64).reshape(n, n)
    return (new.group == old.group and new.modulus == old.modulus
            and new.table == old.table and new.key()[0] == new.group.key()
            and (new.key()[1], tuple(map(tuple, reduced.tolist()))) == old.key())


def cocycles_on(pair):
    """The catalog cocycle (if any), a seeded coboundary mod 4 and their product."""
    gamma = pair.gamma
    rng = random.Random(len(gamma))
    values = [0] + [rng.randrange(4) for _ in range(len(gamma) - 1)]
    shift = PhaseFunction(gamma, 4, values).coboundary()
    out = [(shift, tuple_coboundary(gamma, 4, values))]
    name = pair.name if pair.name in BUILTIN else None
    omega = build_omega(BUILTIN[name], pair) if name else None
    if omega is not None:
        old = TupleCocycle(gamma, omega.modulus, omega.table)
        out += [(omega, old), (omega * shift, old * out[0][1])]
    return out


def test_cocycle_arithmetic_matches_tuple_oracle(pair):
    for new, old in cocycles_on(pair):
        assert same(new, old)
        assert same(new.inverse(), old.inverse())
        assert same(new.rescale(12), old.rescale(12))
        assert same(new * new.inverse(), old * old.inverse())
        assert (new * new.inverse()).is_trivial_table()
        for label in pair.labels():
            little = pair.little(label)
            assert same(new.restrict(little), old.restrict(little))


def test_conjugation_matches_tuple_oracle(pair):
    for new, old in cocycles_on(pair):
        for g in sample(pair.gamma.elements, 12):
            assert same(new.conjugated(g),
                        old.pullback(pair.gamma, lambda x: x.conjugate(g)))
            assert conjugation_phase(new, g).values.tolist() == \
                tuple_conjugation_phase(old, g)


def test_required_cocycle_matches_tuple_oracle(pair):
    for new, old in cocycles_on(pair):
        for delta in sample(pair.group.elements, 20):
            rig = pair.little_of_element(delta)
            want = (old.pullback(rig, lambda t: t.conjugate(delta))
                    * old.restrict(rig).inverse())
            assert same(required_cocycle(pair, new, delta), want)


def test_cocycle_keys_compare_like_reduced_tables():
    group, _ = heisenberg_group(2)
    c = PhaseFunction(group, 2, [0, 1, 0, 0]).coboundary()
    assert c.rescale(6) == c and hash(c.rescale(6)) == hash(c)
    assert c.rescale(6).key() == c.key() != Cocycle.trivial(group).key()
    assert Cocycle.trivial(group, 5) == Cocycle.trivial(group)


# ------------------------------------------------------------ exact row lookup

def test_lookup_is_exact_at_degree_16():
    group, _ = heisenberg_group(8)
    assert group.degree == 16 and len(group) == 64
    # base-degree integer codes of degree-16 rows would need 16 ** 16 = 2 ** 64
    assert 16 ** 16 > np.iinfo(np.int64).max
    assert group.positions(group.images).tolist() == list(range(64))
    for i, g in enumerate(group.elements):
        assert group.positions(np.array(g.images)) == i == group.index_of(g)


def test_lookup_reports_elements_missing_from_the_group():
    group, _ = heisenberg_group(8)
    outside = [Perm.parse(16, "(0 1)"),                  # sorts inside the list
               Perm(range(15, -1, -1)),                   # sorts past its end
               group.elements[-1] * Perm.parse(16, "(14 15)")]
    for g in outside:
        assert g not in group
        assert group.positions(np.array(g.images)) == -1
    rows = np.array([g.images for g in outside + [group.elements[5]]])
    assert group.positions(rows).tolist() == [-1, -1, -1, 5]
    assert group.positions(np.zeros((2, 15), dtype=int)).tolist() == [-1, -1]


def test_conj_map_rejects_a_map_out_of_the_target():
    s4 = FiniteGroup.symmetric(4)
    sub = s4.subgroup([s4.identity, Perm.parse(4, "(0 1)")])
    with pytest.raises(ValueError, match="does not carry"):
        conj_map(sub, Perm.parse(4, "(1 2)"), sub)


# ------------------------------------------------------------ Subgroup closure

def oracle_closure_error(elements):
    """The message of the element-by-element closure check."""
    els = sorted(set(elements))
    for g in els:
        if g.inverse() not in els:
            return f"not closed under inverse: {g}"
    for g in els:
        for h in els:
            if g * h not in els:
                return f"not closed under product: {g}, {h}"
    return None


@pytest.mark.parametrize("cycles", [
    ["()", "(0 1 2)"],
    ["()", "(0 1)", "(0 2)"],
    ["()", "(0 1)", "(2 3)"],
    ["()", "(0 1 2 3)", "(0 3 2 1)"],
    ["(0 1)", "(0 1 2)", "(0 2 1)"],
])
def test_subgroup_rejects_non_closed_lists_with_the_same_message(cycles):
    s4 = FiniteGroup.symmetric(4)
    elements = [Perm.parse(4, c) for c in cycles]
    want = oracle_closure_error(elements)
    assert want is not None
    with pytest.raises(ValueError) as err:
        Subgroup(s4, elements)
    assert str(err.value) == want


def test_subgroup_accepts_every_subgroup_of_s4():
    s4 = FiniteGroup.symmetric(4)
    for sub in s4.subgroups():
        assert oracle_closure_error(sub.elements) is None
        assert Subgroup(s4, sub.elements) == sub


# ------------------------------------------------------------ counts per check pass

def test_check_pass_object_counts(monkeypatch):
    counts = collections.Counter()

    def counting(owner, attr, name):
        original = getattr(owner, attr)

        def counted(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(owner, attr, counted)

    counting(permcore.Perm, "__init__", "perm")
    counting(cocycle.Cocycle, "__init__", "cocycle")
    counting(projrep.Rep, "__init__", "rep")
    counting(elementary, "conjugation_phase", "phase")
    counting(exthecke.ExtHeckeElement, "__init__", "ext")
    heckefuse.clear_caches()
    outcomes = checks.run_checks()
    assert outcomes and all(o.passed for o in outcomes)
    assert counts["perm"] < 30_000
    assert counts["cocycle"] <= 6_000
    assert counts["phase"] <= 40
    assert counts["rep"] == 3_564
    # 7,937 while fuse and conjugate cached dict copies and rebuilt each hit
    assert counts["ext"] <= 2_600


def test_table_path_builds_no_ambient_group_table():
    from heckefuse.catalog import fusion_table
    pair = make_pair("S4_in_S5")
    assert fusion_table(pair)["products"]
    assert "mul_table" not in pair.group._memo
    assert "conj_table" not in pair.group._memo


def test_generate_builds_one_perm_per_element(monkeypatch):
    gens = [Perm.parse(5, "(0 1)"), Perm.parse(5, "(0 1 2 3 4)")]
    built = collections.Counter()
    init = permcore.Perm.__init__

    def counted(self, images):
        built["perm"] += 1
        init(self, images)
    monkeypatch.setattr(permcore.Perm, "__init__", counted)
    s5 = FiniteGroup.generate(5, gens)
    assert len(s5) == 120
    # 243 while the closure multiplied Perm sets
    assert built["perm"] <= len(s5) + 5


def test_little_groups_and_meets_build_no_perm(monkeypatch):
    """Little groups and meets are picked from their parent by index: the
    builders make no Perm and run no product check."""
    counts, inside = collections.Counter(), [0]

    def builder(owner, attr):
        original = getattr(owner, attr)

        def call(*args, **kwargs):
            counts["built"] += 1
            inside[0] += 1
            try:
                return original(*args, **kwargs)
            finally:
                inside[0] -= 1
        monkeypatch.setattr(owner, attr, call)

    def counted(owner, attr, name):
        original = getattr(owner, attr)

        def call(*args, **kwargs):
            counts[name] += bool(inside[0])
            return original(*args, **kwargs)
        monkeypatch.setattr(owner, attr, call)

    builder(permcore, "conjugate_intersection")
    builder(exthecke, "conjugate_intersection")
    builder(FinitePair, "intersection")
    counted(permcore.Perm, "__init__", "perm")
    counted(FiniteGroup, "_product_blocks", "blocks")
    heckefuse.clear_caches()
    from heckefuse.catalog import fusion_table
    assert fusion_table(make_pair("S4_in_S5"))["products"]
    assert counts["built"]
    assert counts["perm"] == counts["blocks"] == 0
