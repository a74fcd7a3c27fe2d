"""The row closure and the subgroup lattice against the Perm-set closure and
the all-elements-join lattice they replace, and derived subgroups against
the checked constructor."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heckefuse.catalog import BUILTIN, build_pair, fusion_table
from heckefuse.permcore import (
    DEFAULT_MAX_ORDER,
    FiniteGroup,
    GroupTooLarge,
    Perm,
    Subgroup,
    commutator_subgroup,
)

from groups import span_subgroups, symmetric

PAIRS = ["D4_klein", "Heis3", "S3_in_S4", "Z3_regular"]


# ------------------------------------------------------------ Perm-set oracles

def mulclose(generators, max_order=DEFAULT_MAX_ORDER):
    """Breadth-first closure of a generating set under multiplication."""
    if not generators:
        return set()
    elements = set(generators)
    elements.add(Perm.identity(generators[0].degree))
    boundary = list(elements)
    while boundary:
        fresh = []
        for a in generators:
            for b in boundary:
                c = a * b
                if c not in elements:
                    elements.add(c)
                    fresh.append(c)
                    if len(elements) > max_order:
                        raise GroupTooLarge(
                            f"group too large: closure exceeds {max_order} elements")
        boundary = fresh
    return elements


def oracle_subgroups(group):
    """Sorted element lists of all subgroups: the fixpoint of joins of
    subgroups with cyclic subgroups, each join closing all its elements."""
    found = {}

    def register(els):
        key = tuple(sorted(g.images for g in els))
        if key in found:
            return False
        found[key] = els
        return True

    register(frozenset([group.identity]))
    cyclic = []
    for g in group.elements:
        els = frozenset(mulclose([g], len(group)))
        register(els)
        cyclic.append(els)
    changed = True
    while changed:
        changed = False
        for els in list(found.values()):
            for c in cyclic:
                if c <= els:
                    continue
                if register(frozenset(mulclose(list(els | c), len(group)))):
                    changed = True
    return sorted((sorted(els) for els in found.values()),
                  key=lambda els: (len(els), [g.images for g in els]))


def oracle_small_generating_set(group):
    found = list(group.generators)
    have = mulclose(found, len(group)) if found else {group.identity}
    for g in group.elements:
        if g not in have:
            found.append(g)
            have = mulclose(found, len(group))
    return found


def oracle_commutator_elements(group):
    gens = {a * b * a.inverse() * b.inverse()
            for a in group.elements for b in group.elements}
    return sorted(mulclose(list(gens), len(group)))


# ------------------------------------------------------------ closure

generator_sets = st.integers(1, 5).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.permutations(range(n)).map(Perm), max_size=3)))


@settings(max_examples=80, deadline=None)
@given(generator_sets)
def test_generate_matches_the_perm_set_closure(case):
    n, gens = case
    want = sorted(mulclose(gens)) if gens else [Perm.identity(n)]
    group = FiniteGroup.generate(n, gens)
    assert list(group.elements) == want
    assert group.elements == FiniteGroup(n, want).elements
    assert FiniteGroup.generate(n, gens, max_order=len(want)) == group
    # the oracle checks the cap only when a product adds an element, so it
    # passes generators that already fill the group; the cap is on the order
    with pytest.raises(GroupTooLarge, match=f"exceeds {len(want) - 1} elements"):
        FiniteGroup.generate(n, gens, max_order=len(want) - 1)


def test_degree_one_closes_to_the_trivial_group():
    # the only generator is the identity, whose image tuple has one entry
    group = FiniteGroup.generate(1, [Perm([0])])
    assert list(group.elements) == [Perm([0])]
    assert group.images.tolist() == [[0]]
    assert group.subgroups() == (group,)


def test_s8_exceeds_the_default_cap():
    with pytest.raises(GroupTooLarge, match=f"exceeds {DEFAULT_MAX_ORDER} elements"):
        FiniteGroup.generate(8, [Perm.parse(8, "(0 1)"),
                                 Perm.parse(8, "(0 1 2 3 4 5 6 7)")])


def test_bytes_key_orders_like_image_tuples():
    groups = symmetric(4).subgroups()
    assert sorted(groups, key=lambda h: h.key()) == sorted(
        groups, key=lambda h: (h.degree, tuple(g.images for g in h.elements)))
    assert len({h.key() for h in groups}) == len(groups)


# ------------------------------------------------------------ lattice

def dihedral4():
    return FiniteGroup.generate(4, [Perm.parse(4, "(0 1 2 3)"), Perm.parse(4, "(0 2)")])


def z3_squared():
    return FiniteGroup.generate(6, [Perm.parse(6, "(0 1 2)"), Perm.parse(6, "(3 4 5)")])


@pytest.mark.parametrize("make", [lambda: symmetric(4), dihedral4, z3_squared],
                         ids=["S4", "D4", "Z3xZ3"])
def test_subgroups_match_the_all_elements_join(make):
    group = make()
    subs = group.subgroups()
    assert [list(h.elements) for h in subs] == oracle_subgroups(group)
    for h in subs:
        assert h.parent is group
        assert list(h.small_generating_set()) == oracle_small_generating_set(h)
    assert list(group.small_generating_set()) == oracle_small_generating_set(group)
    assert list(commutator_subgroup(group).elements) == oracle_commutator_elements(group)


def alternating5():
    return FiniteGroup.generate(5, [Perm.parse(5, "(0 1 2 3 4)"), Perm.parse(5, "(0 1 2)")])


def s4_inside_s5():
    s5 = symmetric(5)
    return Subgroup(s5, [g for g in s5.elements if g.images[4] == 4])


@pytest.mark.parametrize("make", [lambda: symmetric(4), alternating5,
                                  lambda: symmetric(5), z3_squared,
                                  s4_inside_s5],
                         ids=["S4", "A5", "S5", "Z3xZ3", "S4<S5"])
def test_commutator_subgroup_matches_the_all_commutators_closure(make):
    group = make()
    comm = commutator_subgroup(group)
    assert list(comm.elements) == oracle_commutator_elements(group)
    assert comm.parent is group


@pytest.mark.parametrize("make", [lambda: symmetric(4), alternating5, dihedral4,
                                  z3_squared], ids=["S4", "A5", "D4", "Z3xZ3"])
def test_subgroups_match_the_span_joins(make):
    # the lattice closed on multiplication-table rows against the one that
    # closes every join from scratch; Z3xZ3 is the Heis3 pair's gamma
    group = make()
    assert list(group.subgroups()) == span_subgroups(group)


def test_s5_has_156_subgroups():
    assert len(symmetric(5).subgroups()) == 156


def test_a5_has_59_subgroups():
    a5 = alternating5()
    subs = a5.subgroups()
    assert len(subs) == 59
    assert sorted({len(h) for h in subs}) == [1, 2, 3, 4, 5, 6, 10, 12, 60]
    assert commutator_subgroup(a5) == subs[-1] == a5


# ------------------------------------------------------------ derived subgroups

def assert_picked_from_parent(h):
    parent, idx = h.parent, h.idx.tolist()
    assert idx == sorted(set(idx))
    assert all(h.elements[i] is parent.elements[j] for i, j in enumerate(idx))
    assert (h.images == parent.images[h.idx]).all()


@pytest.mark.parametrize("name", PAIRS)
def test_little_groups_and_meets_agree_with_the_checked_constructor(name):
    pair = build_pair(BUILTIN[name])
    fusion_table(pair)
    for g in pair.group:  # the little group of every element, and its meets
        pair.intersection(pair.little(pair.labels()[-1]), pair.little_of_element(g))
    derived = [h for key, h in pair._memo.items() if key[0] in ("little", "meet")]
    assert {key[0] for key in pair._memo} >= {"little", "meet"}
    for h in derived + [pair.gamma, commutator_subgroup(pair.gamma)]:
        assert_picked_from_parent(h)
        checked = Subgroup(h.parent, h.elements)
        assert checked == h and hash(checked) == hash(h)
        assert checked.idx.tolist() == h.idx.tolist()
