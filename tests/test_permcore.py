import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from heckefuse import permcore
from heckefuse.catalog import BUILTIN, build_pair
from heckefuse.permcore import (
    Commensuration,
    CommensurationError,
    DegreeTooLarge,
    DoubleCosetSystem,
    FiniteGroup,
    GroupAction,
    GroupTooLarge,
    Perm,
    Subgroup,
    abelian_invariants,
    characters,
    commensurations,
    commensuration_subgroups,
    commutator_subgroup,
    conjugate_intersection,
    normalizer_in_sym,
    out_description,
    right_coset_reps,
)

from groups import cyclic, span_subgroups, symmetric


def regular_action(group):
    """Left multiplication on the element list (points = element indices)."""
    return GroupAction(group, len(group),
                       lambda g, i: group.mul_table()[group.index_of(g), i])


def s4():
    return FiniteGroup.generate(4, [Perm.parse(4, "(0 1)"), Perm.parse(4, "(0 1 2 3)")])


def s3_in_s4():
    g = s4()
    gamma = Subgroup(
        g, FiniteGroup.generate(4, [Perm.parse(4, "(0 1)"), Perm.parse(4, "(0 1 2)")]).elements
    )
    return g, gamma


# ---------------------------------------------------------------- perms

perm_strategy = st.permutations(list(range(5))).map(Perm)


@given(perm_strategy, perm_strategy, perm_strategy)
def test_perm_group_axioms(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * a.inverse() == Perm.identity(5)
    assert a.inverse().inverse() == a


@given(perm_strategy)
def test_cycle_notation_round_trip(p):
    assert Perm.parse(5, p.cycle_string()) == p


def test_parse_rejects_junk():
    with pytest.raises(ValueError):
        Perm.parse(4, "(0 1")
    with pytest.raises(ValueError):
        Perm.parse(4, "(0 0 1)")


def test_composition_convention():
    # (g*h)(i) = g(h(i)); actions are on the left
    g = Perm.parse(3, "(0 1)")
    h = Perm.parse(3, "(1 2)")
    assert (g * h)(2) == g(h(2)) == 0


# ---------------------------------------------------------------- closure

def test_closure_s4():
    assert len(s4()) == 24


def test_closure_empty_generators():
    assert len(FiniteGroup.generate(3, [])) == 1


def test_closure_s3_inside_degree4():
    g = FiniteGroup.generate(4, [Perm.parse(4, "(0 1)"), Perm.parse(4, "(0 1 2)")])
    assert len(g) == 6
    assert all(p(3) == 3 for p in g)


def test_closure_cap():
    with pytest.raises(GroupTooLarge):
        FiniteGroup.generate(
            5,
            [Perm.parse(5, "(0 1)"), Perm.parse(5, "(0 1 2 3 4)")],
            max_order=100,
        )


def test_generating_set_completes_stored_generators():
    g = s4()
    assert g.small_generating_set() == g.generators
    # a transposition alone does not generate S3: the set is completed
    s3 = FiniteGroup(3, symmetric(3).elements, [Perm.parse(3, "(0 1)")])
    gens = s3.small_generating_set()
    assert gens[0] == Perm.parse(3, "(0 1)") and len(gens) == 2
    assert FiniteGroup.generate(3, gens).elements == s3.elements
    assert FiniteGroup.generate(3, []).small_generating_set() == ()


def test_generating_set_rejects_outside_generators():
    z2 = FiniteGroup(3, [Perm.identity(3), Perm.parse(3, "(0 1)")],
                     [Perm.parse(3, "(1 2)")])
    with pytest.raises(ValueError):
        z2.small_generating_set()


def test_element_order_is_canonical():
    g = s4()
    assert list(g.elements) == sorted(g.elements)
    assert g.elements[0] == g.identity


# ---------------------------------------------------------------- double cosets

def brute_force_double_cosets(group, gamma):
    """Independent oracle: partition by direct orbit computation."""
    remaining = set(group.elements)
    parts = []
    while remaining:
        g = min(remaining)
        coset = {a * g * b for a in gamma.elements for b in gamma.elements}
        parts.append(coset)
        remaining -= coset
    return parts


def test_double_cosets_s3_in_s4():
    g, gamma = s3_in_s4()
    system = DoubleCosetSystem(g, gamma)
    oracle = brute_force_double_cosets(g, gamma)
    assert len(system) == len(oracle) == 2
    sizes = sorted(len(dc.idx) for dc in system.cosets)
    assert sizes == sorted(len(p) for p in oracle) == [6, 18]
    big = next(dc for dc in system.cosets if len(dc.idx) == 18)
    assert big.right_count == 3 and len(big.right_reps) == 3
    # right reps lie in distinct right cosets and cover the double coset
    union = set()
    for r in big.right_reps:
        rc = {a * r for a in gamma.elements}
        assert not (rc & union)
        union |= rc
    assert union == {g.elements[i] for i in big.idx}


def test_double_cosets_gamma_equal_g():
    g = s4()
    gamma = Subgroup(g, g.elements)
    system = DoubleCosetSystem(g, gamma)
    assert len(system) == 1
    assert system.cosets[0].label == g.identity


def test_double_cosets_normal_subgroup():
    g = s4()
    a4 = FiniteGroup.generate(4, [Perm.parse(4, "(0 1 2)"), Perm.parse(4, "(1 2 3)")])
    gamma = Subgroup(g, a4.elements)
    system = DoubleCosetSystem(g, gamma)
    assert len(system) == len(g) // len(gamma) == 2
    assert all(dc.left_count == dc.right_count == 1 for dc in system.cosets)


def test_double_coset_counting_identity():
    # |gamma g gamma| = |gamma| * [gamma : gamma_g], and left = right count
    g, gamma = s3_in_s4()
    system = DoubleCosetSystem(g, gamma)
    for dc in system.cosets:
        assert len(dc.idx) == len(gamma) * dc.right_count
        assert dc.left_count == dc.right_count


def test_canonical_labels_stable():
    g, gamma = s3_in_s4()
    first = DoubleCosetSystem(g, gamma)
    second = DoubleCosetSystem(g, gamma)
    assert first.labels() == second.labels()
    assert [dc.right_reps for dc in first.cosets] == [dc.right_reps for dc in second.cosets]


# ---------------------------------------------------------------- little subgroups

def test_conjugate_intersection_s3():
    g, gamma = s3_in_s4()
    t = Perm.parse(4, "(2 3)")
    little = conjugate_intersection(gamma, t)
    # oracle: elementwise
    expected = sorted(
        x for x in gamma.elements if x.conjugate(t) in set(gamma.elements)
    )
    assert list(little.elements) == expected
    assert len(little) == 2
    assert all(p(2) == 2 and p(3) == 3 for p in little)


def test_conjugate_intersection_inside_gamma():
    g, gamma = s3_in_s4()
    for x in gamma.elements:
        assert conjugate_intersection(gamma, x).elements == gamma.elements


def test_conjugate_intersection_trivial_case():
    g = s4()
    gamma = Subgroup(g, [g.identity, Perm.parse(4, "(0 1)")])
    t = Perm.parse(4, "(1 2)")
    assert len(conjugate_intersection(gamma, t)) == 1


def test_commensuration_subgroups():
    g, gamma = s3_in_s4()
    e = g.identity
    left, right = commensuration_subgroups(gamma, e)
    assert left.elements == gamma.elements == right.elements
    # normalizing element
    left, right = commensuration_subgroups(gamma, Perm.parse(4, "(0 1)"))
    assert left.elements == gamma.elements == right.elements
    # generic element
    left, right = commensuration_subgroups(gamma, Perm.parse(4, "(2 3)"))
    assert len(left) == len(right) == 2


def test_commensuration_mismatch_raises_a_named_error(monkeypatch):
    g, gamma = s3_in_s4()
    delta = Perm.parse(4, "(2 3)")
    meet = conjugate_intersection
    # a wrong right subgroup: gamma itself in place of gamma ∩ delta^-1 gamma delta
    monkeypatch.setattr(permcore, "conjugate_intersection",
                        lambda sub, x: sub if x == delta else meet(sub, x))
    with pytest.raises(CommensurationError, match=r"delta = \(2 3\)"):
        commensuration_subgroups(gamma, delta)


def test_stacked_commensuration_check_raises_at_the_failing_delta(monkeypatch):
    g, gamma = s3_in_s4()
    permcore.check_commensuration_subgroups(gamma, g.elements)
    delta = Perm.parse(4, "(1 2 3)")
    conj_rows = permcore._conj_rows

    def wrong(rows, xs):  # Ad(delta) read as the identity: a wrong right subgroup
        out = conj_rows(rows, xs)
        out[(np.asarray(xs) == delta.images).all(axis=1)] = rows
        return out
    monkeypatch.setattr(permcore, "_conj_rows", wrong)
    with pytest.raises(CommensurationError, match=r"delta = \(1 2 3\)"):
        permcore.check_commensuration_subgroups(gamma, g.elements)


# ---------------------------------------------------------------- normalizers

def test_normalizer_z3():
    z3 = FiniteGroup.generate(3, [Perm.parse(3, "(0 1 2)")])
    norm = normalizer_in_sym(z3)
    assert len(norm) == 6


def test_normalizer_full_s3():
    s3 = symmetric(3)
    assert normalizer_in_sym(s3) == s3


def test_normalizer_order2_in_sym4():
    gamma = FiniteGroup.generate(4, [Perm.parse(4, "(0 1)(2 3)")])
    norm = normalizer_in_sym(gamma)
    # independent oracle: for an order-2 subgroup the normalizer is the
    # centralizer of its involution, computed by a separate scan
    x = Perm.parse(4, "(0 1)(2 3)")
    centralizer = [
        Perm(p) for p in itertools.permutations(range(4)) if Perm(p) * x == x * Perm(p)
    ]
    assert len(norm) == len(centralizer) == 8
    assert set(norm.elements) == set(centralizer)


def test_normalizer_contains_group():
    g = FiniteGroup.generate(4, [Perm.parse(4, "(0 1 2 3)")])
    norm = normalizer_in_sym(g)
    assert set(g.elements) <= set(norm.elements)


def test_normalizer_matches_the_all_elements_scan():
    # conjugating a generating set decides what conjugating every element does
    s4 = symmetric(4)
    for gamma in s4.subgroups():
        want = [s for s in s4 if all(g.conjugate(s) in gamma for g in gamma)]
        assert list(normalizer_in_sym(gamma).elements) == want


def test_normalizer_degree_cap():
    with pytest.raises(DegreeTooLarge):
        normalizer_in_sym(FiniteGroup.generate(9, [Perm.parse(9, "(0 1)")]))


# ---------------------------------------------------------------- commensurations

def test_commensurations_z3_regular_contains_identity_triple():
    z3 = cyclic(3)
    act = regular_action(z3)
    found = commensurations(act, act)
    ident = Commensuration(
        eta=(0, 1, 2),
        domain=tuple(z3.elements),
        iso=tuple(sorted((g, g) for g in z3.elements)),
    )
    assert ident in found


def test_commensurations_z4_vs_klein():
    z4 = cyclic(4)
    klein = FiniteGroup.generate(4, [Perm.parse(4, "(0 1)(2 3)"), Perm.parse(4, "(0 2)(1 3)")])
    a = regular_action(z4)
    b = regular_action(klein)
    found = commensurations(a, b)
    full = [c for c in found if len(c.domain) == 4]
    assert full == []


def test_commensurations_s3_match_exhaustive_search():
    s3 = symmetric(3)
    action = GroupAction.natural(s3)
    found = commensurations(action, action)

    def act(g, i):
        """g.i, read from the action's table."""
        return int(action._table[s3.index_of(g), i])

    # independent oracle: try every injective map on every subgroup directly
    oracle = set()
    for sub in action.group.subgroups():
        els = list(sub.elements)
        for eta in itertools.permutations(range(3)):
            for images in itertools.permutations(s3.elements, len(els)):
                table = dict(zip(els, images))
                if any(
                    table[a * b] != table[a] * table[b]
                    for a in els
                    for b in els
                    if a * b in table
                ):
                    continue
                if all(
                    eta[act(g, i)] == act(table[g], eta[i])
                    for g in els
                    for i in range(3)
                ):
                    oracle.add(
                        (eta, tuple(els), tuple(sorted(table.items())))
                    )
    assert {(c.eta, c.domain, c.iso) for c in found} == oracle


def faithful_commensuration_count(group):
    """The number of commensurations of group's natural action with itself
    in closed form: a faithful action leaves at most one allowed image per
    element, and that map is an injective homomorphism, so there is one per
    (eta, H) with eta h eta^-1 in group for every h in H."""
    subs = span_subgroups(group)
    count = 0
    for eta in map(Perm, itertools.permutations(range(group.degree))):
        inside = [h.conjugate(eta) in group for h in group.elements]
        count += sum(all(inside[i] for i in sub.idx.tolist()) for sub in subs)
    return count


@pytest.mark.parametrize("name", ["S3", "D4_klein", "S3_in_S4", "Z3_regular", "Heis3"])
def test_commensurations_match_the_closed_form_count(name):
    group = symmetric(3) if name == "S3" else build_pair(BUILTIN[name]).gamma
    act = GroupAction.natural(group)
    found = commensurations(act, act)
    # as many distinct triples as the closed form counts, each one valid
    keys = {(c.eta, c.domain, c.iso) for c in found}
    assert len(keys) == len(found) == faithful_commensuration_count(group)
    for c in found:
        assert [g for g, _ in c.iso] == list(c.domain)
        assert all(c.eta[g(i)] == lam(c.eta[i])
                   for g, lam in c.iso for i in range(group.degree))
    if name == "Heis3":  # six points, which check skips
        assert len(found) == 1_080
        assert {(c.eta, c.domain, c.iso) for c in map(Commensuration.inverse, found)} == keys


def test_commensurations_symmetry():
    z3 = cyclic(3)
    act = regular_action(z3)
    found = commensurations(act, act)
    keys = {(c.eta, c.domain, c.iso) for c in found}
    for c in found:
        inv = c.inverse()
        assert (inv.eta, inv.domain, inv.iso) in keys


# ---------------------------------------------------------------- characters / out

def test_abelian_invariants():
    assert abelian_invariants(cyclic(6)) == (6,)
    klein = FiniteGroup.generate(4, [Perm.parse(4, "(0 1)(2 3)"), Perm.parse(4, "(0 2)(1 3)")])
    assert abelian_invariants(klein) == (2, 2)
    assert abelian_invariants(symmetric(3)) == (2,)
    a4 = FiniteGroup.generate(4, [Perm.parse(4, "(0 1 2)"), Perm.parse(4, "(1 2 3)")])
    assert abelian_invariants(a4) == (3,)


def looped_quotient_orders(group, normal):
    """The order of each coset minimum in group/normal, by multiplying Perms."""
    orders = []
    for x in right_coset_reps(group, normal):
        k, y = 1, x
        while y not in normal:
            y, k = y * x, k + 1
        orders.append(k)
    return orders


@pytest.mark.parametrize("degree", [4, 5])
def test_abelian_invariants_match_perm_product_orders(degree):
    """The abelianization by Perm products has as many elements of order
    dividing m as Z/d1 x Z/d2 x ... has, for every m dividing its order;
    that determines a finite abelian group."""
    for sub in symmetric(degree).subgroups():
        orders = looped_quotient_orders(sub, commutator_subgroup(sub))
        factors = abelian_invariants(sub)
        assert math.prod(factors) == len(orders)
        assert all(b % a == 0 for a, b in zip(factors, factors[1:]))
        for m in range(1, len(orders) + 1):
            if len(orders) % m == 0:
                killed = sum(1 for o in orders if m % o == 0)
                assert killed == math.prod(math.gcd(m, d) for d in factors)


def test_characters_counts():
    assert len(characters(cyclic(4))) == 4
    assert len(characters(symmetric(3))) == 2
    klein = FiniteGroup.generate(4, [Perm.parse(4, "(0 1)(2 3)"), Perm.parse(4, "(0 2)(1 3)")])
    assert len(characters(klein)) == 4


def test_characters_are_homomorphisms():
    g = symmetric(3)
    for c in characters(g):
        for a in g:
            for b in g:
                assert c[a * b] == (c[a] + c[b]) % 2


def test_out_description_z3_regular():
    z3 = cyclic(3)
    desc = out_description(z3)
    assert desc.char_invariants == (3,)
    assert len(desc.char_exponents) == 3
    assert desc.quotient_order == 2
    assert desc.measure_factor == "Aut(X0,mu0)"
    # the nontrivial quotient element acts on characters by inversion
    nontrivial = [s for s in desc.quotient_reps if s not in z3]
    assert len(nontrivial) == 1
    perm = desc.char_action[nontrivial[0]]
    exps = desc.char_exponents
    m = desc.modulus
    for i, moved in enumerate(perm):
        assert exps[moved] == tuple((-v) % m for v in exps[i])


def test_out_description_s3():
    s3 = symmetric(3)
    desc = out_description(s3)
    assert desc.char_invariants == (2,)
    assert desc.quotient_order == 1


def test_out_description_perfect_group():
    a5 = FiniteGroup.generate(5, [Perm.parse(5, "(0 1 2 3 4)"), Perm.parse(5, "(0 1 2)")])
    assert len(a5) == 60
    desc = out_description(a5)
    assert desc.char_invariants == ()
    assert len(desc.char_exponents) == 1


# ---------------------------------------------------------------- misc

def test_right_coset_reps():
    g, gamma = s3_in_s4()
    reps = right_coset_reps(g, gamma)
    assert len(reps) == 4
    seen = set()
    for r in reps:
        coset = frozenset(h * r for h in gamma.elements)
        assert coset not in seen
        seen.add(coset)


def test_subgroups_of_s3():
    s3 = symmetric(3)
    subs = s3.subgroups()
    assert sorted(len(h) for h in subs) == [1, 2, 2, 2, 3, 6]


def test_subgroup_rejects_non_closed():
    g = s4()
    with pytest.raises(ValueError):
        Subgroup(g, [g.identity, Perm.parse(4, "(0 1 2)")])
