"""permcore's unchecked constructors against the checked ones: Perms derived
from permutations against ``Perm(images)``, and generated, derived and
scanned groups against ``FiniteGroup(...)`` and ``Subgroup(...)``."""

import pytest

from heckefuse import permcore
from heckefuse.cocycle import heisenberg_group
from heckefuse.permcore import FiniteGroup, Perm, Subgroup, normalizer_in_sym

from groups import symmetric


def generated(degree, *cycles):
    return FiniteGroup.generate(degree, [Perm.parse(degree, c) for c in cycles])


GROUPS = {
    "S4": lambda: generated(4, "(0 1)", "(0 1 2 3)"),
    "A5": lambda: generated(5, "(0 1 2 3 4)", "(0 1 2)"),
    "S5": lambda: generated(5, "(0 1)", "(0 1 2 3 4)"),
    "D4": lambda: generated(4, "(0 1 2 3)", "(0 2)"),
    "Heis3": lambda: heisenberg_group(3)[0],
}


def assert_same_perm(p, want):
    assert type(p.images) is tuple and all(type(i) is int for i in p.images)
    assert p.images == want.images
    assert hash(p) == hash(want) and p == want


def assert_same_group(group, want):
    assert group.elements == want.elements
    for g in group.elements:
        assert_same_perm(g, Perm(list(g.images)))
    assert group.images.dtype == want.images.dtype
    assert (group.images == want.images).all()
    assert group._row_keys.dtype == want._row_keys.dtype
    assert group._row_keys.tobytes() == want._row_keys.tobytes()
    assert group.key() == want.key() and group == want and hash(group) == hash(want)
    assert group._index == want._index


def power(x, k):
    """x^k by composing images pointwise, with Perm(images) checking them."""
    images = list(range(x.degree))
    step = x.images if k >= 0 else [x.images.index(i) for i in range(x.degree)]
    for _ in range(abs(k)):
        images = [step[i] for i in images]
    return Perm(images)


@pytest.mark.parametrize("name", GROUPS)
def test_derived_perms_match_the_checked_constructor(name):
    els = GROUPS[name]().elements
    n = els[0].degree
    for x in els:
        x_inv = [x.images.index(i) for i in range(n)]
        assert_same_perm(x.inverse(), Perm(x_inv))
        for k in range(-3, 4):
            assert_same_perm(x ** k, power(x, k))
        for y in els:
            y_inv = [y.images.index(i) for i in range(n)]
            assert_same_perm(x * y, Perm([x(y(i)) for i in range(n)]))
            assert_same_perm(x.conjugate(y), Perm([y(x(y_inv[i])) for i in range(n)]))


def test_degree_mismatch_raises():
    a, b = Perm.parse(3, "(0 1)"), Perm.parse(4, "(0 1)")
    with pytest.raises(ValueError, match="degree mismatch"):
        a * b
    with pytest.raises(ValueError, match="degree mismatch"):
        a.conjugate(b)
    with pytest.raises(ValueError, match="degree mismatch"):
        b.conjugate(a)


def test_checked_constructors_still_refuse_bad_input():
    with pytest.raises(ValueError, match="not a permutation"):
        Perm([0, 0, 1])
    with pytest.raises(ValueError, match="degree mismatch"):
        FiniteGroup(3, [Perm.identity(4)])


@pytest.mark.parametrize("name", GROUPS)
def test_generate_matches_the_checked_constructor(name):
    group = GROUPS[name]()
    want = FiniteGroup(group.degree, [Perm(list(g.images)) for g in reversed(group.elements)],
                       group.generators)
    assert_same_group(group, want)
    assert group.generators == want.generators


@pytest.mark.parametrize("degree", [4, 5])
def test_generate_matches_sym_from_permutations(degree):
    cycle = "(" + " ".join(map(str, range(degree))) + ")"
    assert_same_group(generated(degree, "(0 1)", cycle), symmetric(degree))


@pytest.mark.parametrize("name", ["S4", "A5", "D4", "Heis3"])
def test_derived_subgroups_match_the_checked_constructor(name):
    group = GROUPS[name]()
    for sub in group.subgroups():  # each built by Subgroup._of
        want = Subgroup(group, reversed(sub.elements))
        assert_same_group(sub, want)
        assert sub.idx.tolist() == want.idx.tolist()
        assert all(g is group.elements[i] for g, i in zip(sub.elements, sub.idx.tolist()))


def conjugated(g, s):
    """s g s^-1, through the checked constructor."""
    s_inv = [s.images.index(i) for i in range(s.degree)]
    return Perm([s(g(s_inv[i])) for i in range(s.degree)])


@pytest.mark.parametrize("name", ["S4", "D4", "Heis3"])
def test_normalizer_matches_the_checked_constructor(name):
    gamma = GROUPS[name]()
    members = set(gamma.elements)
    want = FiniteGroup(gamma.degree, [
        s for s in symmetric(gamma.degree)
        if all(conjugated(g, s) in members for g in gamma.generators)])
    assert_same_group(normalizer_in_sym(gamma), want)


def test_products_conjugates_and_generate_check_no_perm(monkeypatch):
    """Derived Perms are built unchecked: Perm.__init__ runs only on input."""
    x, y = Perm.parse(5, "(0 1 2)"), Perm.parse(5, "(1 3)(2 4)")
    t, cyclic = Perm.parse(5, "(0 1)"), generated(5, "(0 1 2 3 4)")
    built = [0]
    init = permcore.Perm.__init__

    def counted(self, images):
        built[0] += 1
        init(self, images)
    monkeypatch.setattr(permcore.Perm, "__init__", counted)
    x * y, x.inverse(), ~y, x ** 5, x ** -2, x.conjugate(y), x.order()
    s5 = FiniteGroup.generate(5, [x, y, t])
    assert len(s5) == 120 and s5.identity == Perm.identity(5)
    assert len(normalizer_in_sym(cyclic)) == 20
    assert built[0] == 0
