"""The coset engine of permcore: right cosets and coset orbits kept on the
group, checked against the direct scans they replace."""

import itertools
import random

import pytest

from heckefuse import permcore
from heckefuse.catalog import BUILTIN, build_pair, fusion_table
from heckefuse.permcore import (
    DoubleCosetSystem,
    FiniteGroup,
    Perm,
    Subgroup,
    abelian_invariants,
    characters,
    conjugate_intersection,
)

from groups import cyclic, symmetric
from orbit_oracle import perm_cosets, perm_orbits

PAIRS = ["S3_in_S4", "Z3_regular", "D4_klein", "Heis3", "S4_in_S5"]
S4_SUBGROUPS = [f"S4.{i}" for i in range(30)]  # 1 in S4 .. S4 in S4
# subgroups of S5 with a label x where gamma ∩ x^-1 gamma x differs from
# gamma ∩ x gamma x^-1; no subgroup of S4 has one
S5_SUBGROUPS = {"S5.V4": ("(3 4)", "(1 2)"), "S5.S3": ("(2 3)", "(1 2)"),
                "S5.S3x": ("(2 3 4)", "(0 1)(3 4)"),
                "S5.D5": ("(1 2)(3 4)", "(0 1)(2 3)"),
                "S5.A4": ("(1 2 3)", "(0 1)(2 3)")}


def s4_in_s5():
    s5 = symmetric(5)
    return s5, Subgroup(s5, [g for g in s5 if g(4) == 4])


def group_and_gamma(name):
    if name == "S4_in_S5":
        return s4_in_s5()
    if name in S4_SUBGROUPS:
        s4 = symmetric(4)
        return s4, s4.subgroups()[int(name[3:])]
    if name in S5_SUBGROUPS:
        s5 = symmetric(5)
        gens = [Perm.parse(5, text) for text in S5_SUBGROUPS[name]]
        return s5, Subgroup(s5, FiniteGroup.generate(5, gens).elements)
    pair = build_pair(BUILTIN[name])
    return pair.group, pair.gamma


# ------------------------------------------------------------ oracles

def scan_double_cosets(group, gamma, rng=None):
    """The direct scan: |gamma|^2 products per double coset, then the right
    cosets inside it; one rng draw per right coset, in order of minimum."""
    out, seen = [], set()
    gels = gamma.elements
    for g in group.elements:
        if g in seen:
            continue
        coset = frozenset(a * g * b for a in gels for b in gels)
        seen |= coset
        leftover = set(coset)
        rep_by_coset = []
        for x in sorted(leftover):
            if x not in leftover:
                continue
            rc = [a * x for a in gels]
            leftover.difference_update(rc)
            rep_by_coset.append((min(rc), sorted(rc)))
        rep_by_coset.sort()
        if rng is None:
            right_reps = tuple(r for r, _ in rep_by_coset)
        else:
            right_reps = tuple(rc[rng.randrange(len(rc))] for _, rc in rep_by_coset)
        label = min(coset)
        little = conjugate_intersection(gamma, label)
        left_little = conjugate_intersection(gamma, label.inverse())
        out.append((label, coset, right_reps, len(gamma) // len(left_little),
                    len(gamma) // len(little), little.elements))
    return out


def scan_right_cosets(group, sub):
    """The sets {h * g : h in sub} of every element g, sorted, and the
    number of the coset holding each element."""
    cosets = sorted({tuple(sorted({h * g for h in sub.elements})) for g in group.elements})
    return tuple(cosets), {x: i for i, coset in enumerate(cosets) for x in coset}


def scan_coset_orbits(group, sub, actor):
    """The sets of coset minima {min(sub * c * a) : a in actor} of every
    right coset sub * c, sorted."""
    cosets, coset_of = scan_right_cosets(group, sub)
    return tuple(sorted({tuple(sorted({cosets[coset_of[coset[0] * a]][0]
                                       for a in actor.elements}))
                         for coset in cosets}))


def scan_two_sided_reps(group, left, right):
    """Least element of each double coset left * g * right, by direct scan."""
    reps, covered = [], set()
    for g in group.elements:
        if g not in covered:
            covered.update(a * g * b for a in left.elements for b in right.elements)
            reps.append(g)
    return reps


def closure_characters(group):
    """Exponent maps of all homomorphisms group -> Z/m, by closing each
    generator assignment and checking all |group|^2 pairs."""
    invs = abelian_invariants(group)
    m = invs[-1] if invs else 1
    gens = group.small_generating_set()
    found, out = set(), []
    for values in itertools.product(range(m), repeat=len(gens)):
        table = {group.identity: 0}
        for g, v in zip(gens, values):
            if g in table and table[g] != v % m:
                table = None
                break
            table[g] = v % m
        if table is None:
            continue
        boundary = list(table)
        while boundary:
            fresh = []
            for a in list(table):
                for b in boundary:
                    c = a * b
                    if c not in table:
                        table[c] = (table[a] + table[b]) % m
                        fresh.append(c)
            boundary = fresh
        if len(table) != len(group):
            continue
        if any(table[a * b] != (table[a] + table[b]) % m
               for a in table for b in table):
            continue
        key = tuple(table[g] for g in group.elements)
        if key not in found:
            found.add(key)
            out.append(table)
    out.sort(key=lambda t: tuple(t[g] for g in group.elements))
    return out


def injective_homs(domain, codomain, allowed):
    """``permcore._injective_homs`` on Perms: domain's generators and the
    allowed images as indices, the homomorphisms back as Perm dicts, sorted
    like ``closure_injective_homs``."""
    group = domain.parent
    gens = [group.index_of(g) for g in domain.small_generating_set()]
    at = {group.index_of(g): {codomain.index_of(lam) for lam in lams}
          for g, lams in allowed.items()}
    homs = permcore._injective_homs(group.mul_table().tolist(),
                                    codomain.mul_table().tolist(), gens, at)
    tables = [{group.elements[g]: codomain.elements[lam] for g, lam in hom.items()}
              for hom in homs]
    return sorted(tables, key=lambda t: sorted(t.items()))


def closure_injective_homs(domain, codomain, allowed):
    """All injective homomorphisms with pointwise-allowed values, by closing
    each generator assignment and checking all |domain|^2 pairs."""
    gens = domain.small_generating_set()
    if not gens:
        return ([{domain.identity: codomain.identity}]
                if codomain.identity in allowed[domain.identity] else [])
    results = []

    def extend(assignment):
        table = dict(assignment)
        table[domain.identity] = codomain.identity
        boundary = list(table)
        while boundary:
            fresh = []
            for a in list(table):
                for b in boundary:
                    c = a * b
                    if c not in table:
                        table[c] = table[a] * table[b]
                        fresh.append(c)
            boundary = fresh
        if len(table) != len(domain):
            return None
        if any(table[a * b] != table[a] * table[b] for a in table for b in table):
            return None
        return table

    def backtrack(k, assignment):
        if k == len(gens):
            table = extend(assignment)
            if (table is not None and len(set(table.values())) == len(table)
                    and all(lam in allowed[g] for g, lam in table.items())):
                results.append(table)
            return
        for lam in sorted(allowed[gens[k]]):
            assignment[gens[k]] = lam
            backtrack(k + 1, assignment)
            del assignment[gens[k]]

    backtrack(0, {})
    unique = {tuple(sorted(t.items())): t for t in results}
    return [unique[k] for k in sorted(unique)]


def count_products(monkeypatch):
    calls = []
    original = Perm.__mul__

    def counting(self, other):
        calls.append(None)
        return original(self, other)

    monkeypatch.setattr(Perm, "__mul__", counting)
    return calls


# ------------------------------------------------------------ the two tables

def test_right_cosets_partition_in_order_of_minimum():
    group, sub = s4_in_s5()
    cosets, coset_of = perm_cosets(group, sub)
    assert len(cosets) == 5
    assert [c[0] for c in cosets] == sorted(c[0] for c in cosets)
    for i, coset in enumerate(cosets):
        assert list(coset) == sorted({h * coset[0] for h in sub.elements})
        assert all(coset_of[x] == i for x in coset)
    assert len(coset_of) == len(group)
    assert group.right_cosets(sub) is group.right_cosets(sub)


def test_right_cosets_reject_a_foreign_subset():
    s3 = symmetric(3)
    with pytest.raises(ValueError):
        s3.right_cosets(cyclic(4))


@pytest.mark.parametrize("name", PAIRS + S4_SUBGROUPS + list(S5_SUBGROUPS))
def test_coset_orbits_are_orbit_stabilizer_sized(name):
    group, gamma = group_and_gamma(name)
    cosets, coset_of = perm_cosets(group, gamma)
    assert (cosets, coset_of) == scan_right_cosets(group, gamma)
    # every subgroup of S4 acts on the cosets of every other one
    actors = (group.subgroups() if name in S4_SUBGROUPS
              else [dc.little for dc in DoubleCosetSystem(group, gamma).cosets])
    for actor in actors:
        orbits = perm_orbits(group, gamma, actor)
        assert orbits == scan_coset_orbits(group, gamma, actor)
        assert sorted(m for orbit in orbits for m in orbit) == [c[0] for c in cosets]
        for orbit in orbits:
            meet = [x for x in actor.elements
                    if coset_of[orbit[0] * x] == coset_of[orbit[0]]]
            assert len(orbit) == len(actor) // len(meet)
        assert group.coset_orbits(gamma, actor) is group.coset_orbits(gamma, actor)


# ------------------------------------------------------------ against the scans

@pytest.mark.parametrize("name", PAIRS + S4_SUBGROUPS + list(S5_SUBGROUPS))
def test_double_coset_system_matches_the_scan(name):
    group, gamma = group_and_gamma(name)
    for rng_seed in (None, 0, 1, 2):
        rngs = [None if rng_seed is None else random.Random(rng_seed)
                for _ in range(2)]
        system = DoubleCosetSystem(group, gamma, rng=rngs[0])
        els = group.elements
        got = [(dc.label, frozenset(els[i] for i in dc.idx), dc.right_reps,
                dc.left_count, dc.right_count, dc.little.elements)
               for dc in system.cosets]
        assert got == scan_double_cosets(group, gamma, rngs[1]), rng_seed
        assert all(system.label_of(els[i]) == dc.label
                   for dc in system.cosets for i in dc.idx)


@pytest.mark.parametrize("name", PAIRS + S4_SUBGROUPS)
def test_label_array_holds_the_least_element_of_each_double_coset(name):
    group, gamma = group_and_gamma(name)
    gels = gamma.elements
    least = [group.index_of(min(a * g * b for a in gels for b in gels)) for g in group]
    canonical = DoubleCosetSystem(group, gamma)
    for system in (canonical, DoubleCosetSystem(group, gamma, rng=random.Random(3))):
        assert system.label_idx[system.number].tolist() == least
        # a drawn representative lies in the right coset of the canonical one
        for dc, canon in zip(system.cosets, canonical.cosets):
            assert ([sorted(a * r for a in gels) for r in dc.right_reps]
                    == [sorted(a * r for a in gels) for r in canon.right_reps])


@pytest.mark.parametrize("name", PAIRS)
def test_two_sided_reps_match_the_scan(name):
    group, gamma = group_and_gamma(name)
    labels = DoubleCosetSystem(group, gamma).labels()
    littles = {h.key(): h for label in labels
               for h in (conjugate_intersection(gamma, label),
                         conjugate_intersection(gamma, label.inverse()))}
    for left, right in itertools.product(littles.values(), repeat=2):
        got = [orbit[0] for orbit in perm_orbits(gamma, left, right)]
        assert got == scan_two_sided_reps(gamma, left, right)


def test_double_cosets_of_s4_in_s5_take_few_products(monkeypatch):
    group, gamma = s4_in_s5()
    calls = count_products(monkeypatch)
    DoubleCosetSystem(group, gamma)
    # the |gamma|^2-per-double-coset scan took 3,840
    assert len(calls) <= 1700


@pytest.mark.parametrize("name", ["S3_in_S4", "D4_klein"])
def test_rechosen_table_computes_no_new_coset_orbits(name, monkeypatch):
    computed = []
    compute = FiniteGroup._coset_orbits

    def counted(group, sub, actor):
        computed.append((sub.key(), actor.key()))
        return compute(group, sub, actor)

    monkeypatch.setattr(FiniteGroup, "_coset_orbits", counted)
    pair = build_pair(BUILTIN[name])
    table = fusion_table(pair)
    assert computed and len(set(computed)) == len(computed)
    done = len(computed)
    rechosen = fusion_table(pair.with_choices(random.Random(1)))
    assert rechosen["products"] == table["products"]
    assert len(computed) == done


# ------------------------------------------------------------ closure on generators

def small_groups():
    klein = FiniteGroup.generate(4, [Perm.parse(4, "(0 1)(2 3)"),
                                     Perm.parse(4, "(0 2)(1 3)")])
    d4 = FiniteGroup.generate(4, [Perm.parse(4, "(0 1 2 3)"), Perm.parse(4, "(1 3)")])
    return {"S3": symmetric(3), "S4": symmetric(4),
            "D4": d4, "Z3": cyclic(3), "Z2^2": klein}


@pytest.mark.parametrize("name", sorted(small_groups()))
def test_characters_match_the_closure(name):
    group = small_groups()[name]
    assert characters(group) == closure_characters(group)


@pytest.mark.parametrize("name", sorted(small_groups()))
def test_injective_homs_match_the_closure(name):
    group = small_groups()[name]
    cycle_type = {g: sorted(map(len, g.cycles())) for g in group}
    # every subgroup with at most 1,000 generator assignments into the group,
    # once with all values allowed and once with values of the same cycle type
    for sub in group.subgroups():
        if len(group) ** len(sub.small_generating_set()) > 1000:
            continue
        free = {g: set(group) for g in sub}
        typed = {g: {lam for lam in group if cycle_type[lam] == cycle_type[g]}
                 for g in sub}
        for allowed in (free, typed):
            assert (injective_homs(sub, group, allowed)
                    == closure_injective_homs(sub, group, allowed))
