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
    gens = [a * b * a.inverse() * b.inverse()
            for a in group.elements for b in group.elements]
    return sorted(mulclose(gens, len(group)))


# ------------------------------------------------------------ closure

generator_sets = st.integers(3, 5).flatmap(lambda n: st.tuples(
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


def test_bytes_key_orders_like_image_tuples():
    groups = FiniteGroup.symmetric(4).subgroups()
    assert sorted(groups, key=lambda h: h.key()) == sorted(
        groups, key=lambda h: (h.degree, tuple(g.images for g in h.elements)))
    assert len({h.key() for h in groups}) == len(groups)


# ------------------------------------------------------------ lattice

def dihedral4():
    return FiniteGroup.generate(4, [Perm.parse(4, "(0 1 2 3)"), Perm.parse(4, "(0 2)")])


def z3_squared():
    return FiniteGroup.generate(6, [Perm.parse(6, "(0 1 2)"), Perm.parse(6, "(3 4 5)")])


@pytest.mark.parametrize("make", [lambda: FiniteGroup.symmetric(4), dihedral4, z3_squared],
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


def test_a5_has_59_subgroups():
    a5 = FiniteGroup.generate(5, [Perm.parse(5, "(0 1 2 3 4)"), Perm.parse(5, "(0 1 2)")])
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
    derived = [h for key, h in pair._memo.items() if key[0] in ("little", "meet")]
    assert {key[0] for key in pair._memo} >= {"little", "meet"}
    for h in derived + [pair.gamma, commutator_subgroup(pair.gamma)]:
        assert_picked_from_parent(h)
        checked = Subgroup(h.parent, h.elements)
        assert checked == h and hash(checked) == hash(h)
        assert checked.idx.tolist() == h.idx.tolist()
