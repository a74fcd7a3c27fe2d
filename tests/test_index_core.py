"""The index-native hot paths against the Perm- and tuple-based formulas
they replace: exact row lookup, conjugation maps, cocycle arithmetic on
int64 arrays, elementary bookkeeping, and the object counts of a ``check``
pass."""

import collections
import fractions
import random
from math import gcd, lcm

import numpy as np
import pytest

import heckefuse
from heckefuse import checks, cocycle, elementary, exthecke, hecke, permcore, projrep
from heckefuse.catalog import BUILTIN, build_omega, build_pair
from heckefuse.cocycle import Cocycle, PhaseFunction, conjugation_phase, heisenberg_group
from heckefuse.elementary import required_cocycle
from heckefuse.exthecke import FinitePair
from heckefuse.permcore import (
    FiniteGroup,
    Perm,
    Subgroup,
    conj_map,
    conj_maps,
    conjugate_intersection,
)

from groups import symmetric

PAIR_NAMES = ("D4_klein", "Heis3", "S3_in_S4", "Z3_regular", "S4_in_S5")


def make_pair(name: str) -> FinitePair:
    if name != "S4_in_S5":
        return build_pair(BUILTIN[name])
    s5 = FiniteGroup.generate(5, [Perm.parse(5, "(0 1)"), Perm.parse(5, "(0 1 2 3 4)")])
    s4 = FiniteGroup.generate(5, [Perm.parse(5, "(0 1)"), Perm.parse(5, "(0 1 2 3)")])
    return FinitePair(s5, Subgroup(s5, s4.elements), name=name)


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
        members = [pair.group.elements[i] for i in pair.cosets.coset(label).idx]
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
            assert same(new.pullback(new.group, conj_map(new.group, g, new.group)),
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
    s4 = symmetric(4)
    sub = Subgroup(s4, [s4.identity, Perm.parse(4, "(0 1)")])
    with pytest.raises(ValueError, match="does not carry"):
        conj_map(sub, Perm.parse(4, "(1 2)"), sub)


def test_conj_maps_name_the_first_map_out_of_the_target():
    s4 = symmetric(4)
    sub = Subgroup(s4, [s4.identity, Perm.parse(4, "(0 1)")])
    xs = [Perm.parse(4, text).images for text in ("(0 1)", "(1 2)", "(0 2)")]
    assert conj_maps(sub, xs[:1], sub).tolist() == [[0, 1]]
    with pytest.raises(ValueError, match=r"^Ad \(1 2\) does not carry"):
        conj_maps(sub, xs, sub)
    with pytest.raises(ValueError, match=r"^Ad \(0 2\) does not carry"):
        conj_map(sub, Perm.parse(4, "(0 2)"), sub)


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
    s4 = symmetric(4)
    elements = [Perm.parse(4, c) for c in cycles]
    want = oracle_closure_error(elements)
    assert want is not None
    with pytest.raises(ValueError) as err:
        Subgroup(s4, elements)
    assert str(err.value) == want


def test_subgroup_accepts_every_subgroup_of_s4():
    s4 = symmetric(4)
    for sub in s4.subgroups():
        assert oracle_closure_error(sub.elements) is None
        assert Subgroup(s4, sub.elements) == sub


# ------------------------------------------------------------ counts per check pass

def test_check_pass_object_counts(monkeypatch):
    counts = collections.Counter()

    def counting(owner, attr, name, wrap=lambda f: f):
        original = getattr(owner, attr)

        def counted(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(owner, attr, wrap(counted))

    counting(permcore.Perm, "__init__", "perm")
    counting(permcore.Perm, "_of", "perm_of", staticmethod)
    counting(permcore.FiniteGroup, "positions", "positions")
    counting(permcore, "_closure", "closure")
    counting(cocycle.Cocycle, "__init__", "cocycle")
    counting(cocycle.Cocycle, "_of", "cocycle_of", staticmethod)
    counting(projrep.Rep, "__init__", "rep")
    counting(projrep.Rep, "_of", "rep_of", staticmethod)
    counting(elementary, "conjugation_phase", "phase")
    counting(elementary, "conj_map", "elementary_conj_map")
    counting(projrep, "decompose_characters", "decompose_characters")
    counting(exthecke, "decompose_stack", "decompose_characters")
    counting(exthecke.ExtHeckeElement, "__init__", "ext")
    counting(exthecke.ExtHeckeElement, "_of", "ext_of", staticmethod)
    counting(hecke, "convolve", "convolve")
    counting(checks, "convolve", "convolve")
    counting(fractions.Fraction, "__new__", "fraction")
    counting(fractions.Fraction, "__hash__", "fraction_hash")
    heckefuse.clear_caches()
    outcomes = checks.run_checks()
    assert outcomes and all(o.passed for o in outcomes)
    # 7,133 Perms, all checked, while products, inverses, conjugates and
    # closures re-checked theirs; now only the parsed inputs are (22).  The
    # exhaustive searches of permcore built 2,325 (and made 117 closures)
    # while they multiplied Perms and closed every subgroup join from
    # scratch; on multiplication-table indices 1,249 (80 closures).  Each
    # group's subgroups are now kept on it, but a pass builds its pairs
    # afresh and asks each group once, so the count stays at 80.  The fusion
    # sweeps built 1,187 while they formed products, inverses and
    # decompositions on Perms; on element indices 632
    assert counts["perm"] + counts["perm_of"] <= 650
    assert counts["perm"] <= 30
    assert counts["closure"] <= 80
    # every cocycle of a check pass is derived from checked ones; elementary
    # fusion built 5,448 while it redid its cocycle work for every product
    # (7,754 positions lookups, 3,514 derived Reps), and builds 1,619 since
    # it plans that work once per pair of deltas (2,623 lookups, 1,228 Reps).
    # Canonical terms read all decompositions in one batch, and object sums
    # and identifications are memoized: 1,801 lookups, 712 cocycles, 523 Reps,
    # 67 elementary conj_maps (761 before) and 882 one-row character
    # decompositions, the calls through projrep (1,442 before).  Counting
    # exthecke's batched calls too, 923 while the triple product and the
    # overcount identity decomposed one orbit at a time; 595 in blocks, 255
    # with one call per output label of a sweep and 239 with one stacked
    # call per sweep.  The positions lookups were 885 while the fusion
    # sweeps read each orbit's labels and maps one at a time, 701 with one
    # batch per sweep, and 697 since the overcount check reads its meets
    # from its own sweep.  The check suite's second paths made one call per
    # class pair (239 decompositions, 209 Reps, 494 cocycles, 67 elementary
    # conj_maps); with one stacked call per Kronecker stack, per Gamma class
    # and per label of identified objects: 103, 69, 364 and 48
    assert counts["cocycle"] == 0
    assert counts["cocycle_of"] <= 380
    assert counts["positions"] <= 720
    assert counts["rep_of"] <= 70
    assert counts["phase"] <= 40
    assert counts["elementary_conj_map"] <= 50
    assert counts["decompose_characters"] <= 105
    # 3,564 while induction-frobenius returned early on the index-1 pairs;
    # running it there built 90 (Heis3) and 12 (Z3_regular) more, 3,666.
    # It now restricts each irreducible of G once (103 fewer), and the 13
    # regular representations are checked exactly, without Rep.__init__: 3,550.
    # Constructions from checked representations now build unchecked, so
    # only the 49 eigenspace blocks of the 11 regular splits were checked.
    # Irreducibles now come from class-sum character tables, and a class
    # builds and checks one block only when its matrices are read: 35
    assert counts["rep"] == 35
    # 7,937 while fuse and conjugate cached dict copies and rebuilt each hit;
    # 1,218, all checked, until products, conjugates and basis elements were
    # built unchecked: 539 checked and 679 unchecked.  The algebra-law checks
    # now read the structure constants instead of fusing basis elements: 250
    # unchecked.  ext-homomorphisms built 81 + 16 + 9 + 9 checked products and
    # the cross-oracle 25 checked identifications, and build none: 23 checked
    assert counts["ext"] <= 25
    assert counts["ext"] + counts["ext_of"] <= 280
    # 652 while the Hecke law checks convolved every product they compared;
    # 185 with each basis product a law reads convolved once per backend
    assert counts["convolve"] <= 200
    # 7,043 Fractions built and 9,958 hashed while GL2 and ax+b labels were
    # Fraction pairs; with integer labels only text, checks' rational draws
    # and modular values build them (160), and only the bc-lambda draws
    # hash them (36)
    assert counts["fraction"] <= 200
    assert counts["fraction_hash"] <= 50


def test_table_path_builds_no_ambient_group_table():
    from heckefuse.catalog import fusion_table
    pair = make_pair("S4_in_S5")
    assert fusion_table(pair)["products"]
    assert "mul_table" not in pair.group._memo
    assert "conj_table" not in pair.group._memo


def test_generate_builds_one_perm_per_element(monkeypatch):
    gens = [Perm.parse(5, "(0 1)"), Perm.parse(5, "(0 1 2 3 4)")]
    built = collections.Counter()
    init, of = permcore.Perm.__init__, permcore.Perm._of

    def counted(self, images):
        built["checked"] += 1
        init(self, images)

    def counted_of(images):
        built["unchecked"] += 1
        return of(images)
    monkeypatch.setattr(permcore.Perm, "__init__", counted)
    monkeypatch.setattr(permcore.Perm, "_of", staticmethod(counted_of))
    s5 = FiniteGroup.generate(5, gens)
    assert len(s5) == 120
    # 243 while the closure multiplied Perm sets; the closure's rows are
    # sorted and distinct, so none of the 120 is checked again
    assert built["checked"] == 0
    assert built["unchecked"] == len(s5)


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

    def counted(owner, attr, name, wrap=lambda f: f):
        original = getattr(owner, attr)

        def call(*args, **kwargs):
            counts[name] += bool(inside[0])
            return original(*args, **kwargs)
        monkeypatch.setattr(owner, attr, wrap(call))

    builder(permcore, "conjugate_intersection")
    builder(exthecke, "conjugate_intersection")
    builder(FinitePair, "intersection")
    counted(permcore.Perm, "__init__", "perm")
    counted(permcore.Perm, "_of", "perm", staticmethod)
    counted(FiniteGroup, "_product_blocks", "blocks")
    heckefuse.clear_caches()
    from heckefuse.catalog import fusion_table
    pair = make_pair("S4_in_S5")
    assert fusion_table(pair)["products"]
    for g in sample(pair.group.elements):  # little groups and their meets
        pair.intersection(pair.little(pair.labels()[-1]), pair.little_of_element(g))
    assert counts["built"]
    assert counts["perm"] == counts["blocks"] == 0


def test_cold_structure_constants_multiply_and_invert_no_perm(monkeypatch):
    # the fusion sweep formed g0 * h^-1 and the decompositions' c2 * by on
    # Perms, 12 products and 10 inverses for this table; it now composes
    # image rows
    calls = collections.Counter()
    for name in ("__mul__", "inverse"):
        def counted(self, *args, name=name, original=getattr(Perm, name)):
            calls[name] += 1
            return original(self, *args)
        monkeypatch.setattr(Perm, name, counted)
    heckefuse.clear_caches()
    pair = make_pair("S4_in_S5")
    assert exthecke.structure_constants(pair).whole().any()
    assert calls == {}
