import numpy as np
import pytest

from heckefuse import projrep
from heckefuse.cocycle import Cocycle, PhaseFunction, coboundary, heisenberg_cocycle
from heckefuse.permcore import FiniteGroup, Perm, conj_map, right_coset_reps
from heckefuse.projrep import (
    NumericalDegradation,
    Rep,
    RepClass,
    clear_caches,
    conjugate_rep,
    decompose,
    direct_sum,
    equivalent,
    hom_dim,
    induce,
    irreducibles,
    multiset_dim,
    regular_rep,
    restrict,
    tensor,
    transport,
    trivial_rep,
    twist,
)


@pytest.fixture(autouse=True)
def fresh_caches():
    clear_caches()
    yield


def s3():
    return FiniteGroup.symmetric(3)


def z2_in_s3():
    g = s3()
    return g, g.subgroup([g.identity, Perm.parse(3, "(0 1)")])


# ------------------------------------------------------------ regular rep

def test_regular_rep_z2():
    g = FiniteGroup.cyclic(2)
    reg = regular_rep(g)
    assert reg.dim == 2
    assert reg.char_key() == (((2.0, 0.0)), (0.0, 0.0))


def test_regular_rep_s3_decomposition():
    parts = decompose(regular_rep(s3()))
    assert sorted((c.dim, m) for c, m in parts.items()) == [(1, 1), (1, 1), (2, 2)]


def test_twisted_regular_klein():
    group, _, omega = heisenberg_cocycle(2, 1)
    parts = decompose(regular_rep(group, omega))
    assert [(c.dim, m) for c, m in parts.items()] == [(2, 2)]
    assert multiset_dim(parts) == 4


def test_twisted_regular_heisenberg3():
    group, _, omega = heisenberg_cocycle(3, 1)
    parts = decompose(regular_rep(group, omega))
    assert [(c.dim, m) for c, m in parts.items()] == [(3, 3)]
    assert multiset_dim(parts) == 9


def _dense_regular(group, cocycle):
    n = len(group)
    mats = np.zeros((n, n, n), dtype=complex)
    mats[np.arange(n)[:, None], group.mul_table(), np.arange(n)] = (
        np.exp(2j * np.pi * cocycle.arr / cocycle.modulus))
    return mats


@pytest.mark.parametrize("n, k", [(2, 1), (3, 1), (3, 2), (4, 3)])
def test_regular_rep_passes_the_dense_checks(n, k):
    group, _, omega = heisenberg_cocycle(n, k)
    reg = regular_rep(group, omega)
    np.testing.assert_array_equal(reg.matrices, Rep(group, omega, reg.matrices).matrices)
    assert np.abs(reg.matrices - _dense_regular(group, omega)).max() < 1e-12


@pytest.mark.parametrize("at", [(0, 2), (1, 2), (2, 1), (4, 5), (5, 5)])
def test_regular_rep_rejects_a_cocycle_with_one_wrong_entry(at):
    g = s3()
    table = np.zeros((len(g), len(g)), dtype=np.int64)
    table[at] = 1
    bad = Cocycle._of(g, 3, table)
    with pytest.raises(ValueError) as exact:
        regular_rep(g, bad)
    with pytest.raises(ValueError) as dense:
        Rep(g, bad, _dense_regular(g, bad))
    # the same message, up to which of several failing h is named
    assert str(exact.value).split("), (")[0] == str(dense.value).split("), (")[0]
    assert ("identity" if at[0] == 0 else "multiplicativity fails") in str(exact.value)


def test_regular_rep_rejects_a_cocycle_of_another_group():
    with pytest.raises(ValueError, match="different group"):
        regular_rep(s3(), Cocycle.trivial(FiniteGroup.cyclic(6)))


# ------------------------------------------------------------ irreducibles

def test_irreducibles_s3():
    classes = irreducibles(s3())
    assert [c.dim for c in classes] == [1, 1, 2]
    assert sum(c.dim ** 2 for c in classes) == 6


def test_irreducibles_z4():
    classes = irreducibles(FiniteGroup.cyclic(4))
    assert [c.dim for c in classes] == [1, 1, 1, 1]


def test_irreducibles_twisted_heisenberg():
    group, _, omega = heisenberg_cocycle(3, 1)
    classes = irreducibles(group, omega)
    assert [c.dim for c in classes] == [3]


def test_irreducibles_are_canonically_ordered_and_stable():
    a = irreducibles(s3())
    clear_caches()
    b = irreducibles(s3())
    assert [c.key() for c in a] == [c.key() for c in b]


# ------------------------------------------------------------ induction

def test_induce_from_whole_group_is_identity_up_to_equivalence():
    g = s3()
    classes = irreducibles(g)
    two_dim = (classes[-1]).rep
    ind = induce(two_dim, g, Cocycle.trivial(g))
    assert equivalent(ind, two_dim)


def test_induce_trivial_from_z2_matches_permutation_character():
    g, h = z2_in_s3()
    ind = induce(trivial_rep(h), g, Cocycle.trivial(g))
    assert ind.dim == 3
    # independent oracle: induced-from-trivial is the permutation action on
    # right cosets; its trace counts fixed cosets
    reps = right_coset_reps(g, h)
    hset = set(h.elements)
    for x in g:
        fixed = sum(1 for r in reps if r * x * r.inverse() in hset)
        assert abs(ind.character()[g.index_of(x)] - fixed) < 1e-9
    parts = decompose(ind)
    dims = sorted(c.dim for c in parts)
    assert dims == [1, 2] and all(m == 1 for m in parts.values())


def test_induced_dimension_formula():
    g, h = z2_in_s3()
    for cls in irreducibles(h):
        ind = induce(cls.rep, g, Cocycle.trivial(g))
        assert ind.dim == (len(g) // len(h)) * cls.dim


def test_induce_cocycle_restriction_mismatch():
    group, _, omega = heisenberg_cocycle(2, 1)
    sub = group.subgroup([group.identity])
    bad = trivial_rep(sub)
    ok = induce(bad, group, omega)  # restriction of omega to {e} is trivial
    assert ok.dim == 4
    g, h = z2_in_s3()
    phi = PhaseFunction(g, 4, [0, 1, 1, 2, 2, 3])
    shifted = coboundary(phi)
    if shifted.restrict(h).is_trivial_table():
        pytest.skip("coboundary restricted trivially; pick another phase")
    with pytest.raises(ValueError):
        induce(trivial_rep(h), g, shifted)


def test_induce_along_twisted_cocycle():
    # induce a genuinely projective representation along its cocycle extension
    group, coords, omega = heisenberg_cocycle(2, 1)
    sub = group.subgroup([g for g in group if coords[g][1] == 0])  # the x-axis
    sub_omega = omega.restrict(sub)
    assert sub_omega.is_trivial_table()  # bilinear form vanishes on the axis
    ind = induce(Rep(sub, sub_omega, [np.eye(1)] * len(sub)), group, omega)
    assert ind.dim == 2
    assert ind.cocycle == omega
    parts = decompose(ind)
    assert [(c.dim, m) for c, m in parts.items()] == [(2, 1)]


# ------------------------------------------------------------ operations

def test_tensor_with_trivial():
    g = s3()
    std = (irreducibles(g)[-1]).rep
    assert equivalent(tensor(std, trivial_rep(g)), std)


def test_conjugate_standard_rep_is_self():
    g = s3()
    std = (irreducibles(g)[-1]).rep
    assert equivalent(conjugate_rep(std), std)


def test_twist_cocycle_bookkeeping():
    g = s3()
    std = (irreducibles(g)[-1]).rep
    phi = PhaseFunction(g, 6, [0, 1, 2, 3, 4, 5])
    twisted = twist(std, phi)
    assert twisted.cocycle == std.cocycle * coboundary(phi)


def test_transport_along_inner_automorphism_is_equivalent():
    g = s3()
    std = (irreducibles(g)[-1]).rep
    c = Perm.parse(3, "(0 1 2)")
    moved = transport(std, g, lambda x: x.conjugate(c))
    assert equivalent(moved, std)


def test_restrict_then_decompose():
    g, h = z2_in_s3()
    std = (irreducibles(g)[-1]).rep
    parts = decompose(restrict(std, h))
    assert multiset_dim(parts) == 2
    assert sorted(c.dim for c in parts) == [1, 1]


# ------------------------------------------------------------ hom spaces

def test_hom_dim_schur():
    g = s3()
    for cls in irreducibles(g):
        rep = cls.rep
        assert hom_dim(rep, rep) == 1


def test_hom_dim_regular_vs_trivial():
    g = s3()
    assert hom_dim(regular_rep(g), trivial_rep(g)) == 1


def test_hom_dim_counts_multiplicities():
    g = s3()
    classes = irreducibles(g)
    std = (classes[-1]).rep
    doubled = direct_sum([std, std])
    assert hom_dim(doubled, doubled) == 4
    assert hom_dim(doubled, std) == 2


def test_hom_dim_requires_matching_cocycle():
    group, _, omega = heisenberg_cocycle(2, 1)
    twisted = regular_rep(group, omega)
    plain = regular_rep(group)
    with pytest.raises(ValueError):
        hom_dim(twisted, plain)


def test_frobenius_reciprocity():
    g, h = z2_in_s3()
    triv_g = Cocycle.trivial(g)
    for small in irreducibles(h):
        ind = induce(small.rep, g, triv_g)
        for big in irreducibles(g):
            lhs = hom_dim(ind, big.rep)
            rhs = hom_dim(small.rep, restrict(big.rep, h))
            assert lhs == rhs


# ------------------------------------------------------------ decomposition

def test_decompose_irreducible_is_singleton():
    g = s3()
    std = (irreducibles(g)[-1]).rep
    assert decompose(std) == {RepClass(std): 1}


def test_decompose_respects_character_sum():
    g = s3()
    reg = regular_rep(g)
    parts = decompose(reg)
    recon = np.zeros(len(g), dtype=complex)
    for cls, mult in parts.items():
        recon += mult * np.array([complex(re, im) for re, im in cls.char])
    assert np.abs(recon - np.array(reg.character())).max() < 1e-6


def test_direct_sum_round_trip():
    g = s3()
    classes = irreducibles(g)
    ms = {classes[0]: 2, classes[-1]: 1}
    rep = direct_sum([classes[0].rep] * 2 + [(classes[-1]).rep])
    assert rep.dim == 4
    assert decompose(rep) == ms


def test_equivalence_matches_hom_dim_on_irreducibles():
    g = s3()
    classes = irreducibles(g)
    for a in classes:
        for b in classes:
            ra, rb = a.rep, b.rep
            assert (hom_dim(ra, rb) >= 1) == equivalent(ra, rb)


def test_rep_validation_rejects_wrong_cocycle():
    g = FiniteGroup.cyclic(2)
    omega = Cocycle(g, 2, [[0, 0], [0, 1]])
    with pytest.raises(ValueError):
        Rep(g, omega, [np.eye(1), np.eye(1)])


# ------------------------------------------------------------ validation on generators

def _non_generator(group):
    gens = set(group.small_generating_set())
    return next(g for g in group.elements if g not in gens and g != group.identity)


def test_validation_rejects_scaled_non_generator_matrix():
    g = s3()
    reg = regular_rep(g)
    mats = list(reg.matrices)
    bad = g.index_of(_non_generator(g))
    mats[bad] = 2 * mats[bad]
    with pytest.raises(ValueError, match="multiplicativity fails"):
        Rep(g, reg.cocycle, mats)


def test_validation_rejects_non_generator_times_generator_matrix():
    # the product is still unitary, so only multiplicativity can catch it
    g = s3()
    reg = regular_rep(g)
    mats = list(reg.matrices)
    bad = g.index_of(_non_generator(g))
    gen = g.index_of(g.small_generating_set()[0])
    mats[bad] = mats[gen] @ mats[bad]
    with pytest.raises(ValueError, match="multiplicativity fails"):
        Rep(g, reg.cocycle, mats)


def test_validation_on_the_trivial_group():
    g = FiniteGroup.generate(3, [])
    assert g.small_generating_set() == ()
    assert Rep(g, Cocycle.trivial(g), [np.eye(2)]).dim == 2
    with pytest.raises(ValueError, match="identity"):
        Rep(g, Cocycle.trivial(g), [np.array([[0.0, 1.0], [1.0, 0.0]])])


# ------------------------------------------------------------ decomposition by characters

def _heisenberg3_regular():
    group, _, omega = heisenberg_cocycle(3, 1)
    return regular_rep(group, omega)


def _heisenberg3_induced():
    group, coords, omega = heisenberg_cocycle(3, 1)
    axis = group.subgroup([g for g in group if coords[g][1] == 0])
    line = Rep(axis, omega.restrict(axis), [np.eye(1)] * len(axis))
    return induce(line, group, omega)


def _s3_induced():
    g, h = z2_in_s3()
    return induce((irreducibles(h)[-1]).rep, g, Cocycle.trivial(g))


DECOMPOSE_CASES = {
    "regular-trivial": lambda: regular_rep(s3()),
    "tensor-square-trivial": lambda: tensor(regular_rep(s3()), regular_rep(s3())),
    "induced-trivial": _s3_induced,
    "regular-heisenberg": _heisenberg3_regular,
    "tensor-square-heisenberg": lambda: tensor(_heisenberg3_regular(),
                                               _heisenberg3_regular()),
    "induced-heisenberg": _heisenberg3_induced,
}


@pytest.mark.parametrize("case", sorted(DECOMPOSE_CASES))
def test_decompose_returns_the_irreducible_classes(case):
    rep = DECOMPOSE_CASES[case]()
    parts = decompose(rep)
    classes = irreducibles(rep.group, rep.cocycle)
    assert all(any(cls is c for c in classes) for cls in parts)
    assert sum(mult * cls.dim for cls, mult in parts.items()) == rep.dim


def test_clear_caches_empties_every_module_cache():
    g, h = z2_in_s3()
    decompose(induce(trivial_rep(h), g, Cocycle.trivial(g)))
    caches = {name: value for name, value in vars(projrep).items()
              if name.startswith("_") and name.isupper() and isinstance(value, dict)}
    assert all(caches.values())
    clear_caches()
    assert {name: len(value) for name, value in caches.items()} == dict.fromkeys(caches, 0)


# ------------------------------------------------------------ trusted constructions

def _catalog_cases():
    """(group, cocycle) for every little group of the finite catalog pairs:
    with the trivial cocycle, and, where the pair has a cocycle omega, with
    the cocycle its elementary objects need; and gamma with omega."""
    from heckefuse.catalog import BUILTIN, build_omega, build_pair
    from heckefuse.elementary import required_cocycle
    cases = []
    for name, entry in sorted(BUILTIN.items()):
        if entry.kind != "finite":
            continue
        pair = build_pair(entry)
        omega = build_omega(entry, pair)
        for i, label in enumerate(pair.labels()):
            little = pair.little(label)
            cases.append(pytest.param(little, Cocycle.trivial(little),
                                      id=f"{name}-label{i}"))
            if omega is not None:
                cases.append(pytest.param(
                    pair.little_of_element(label), required_cocycle(pair, omega, label),
                    id=f"{name}-label{i}-omega"))
        if omega is not None:
            cases.append(pytest.param(pair.gamma, omega, id=f"{name}-gamma-omega"))
    return cases


def _trusted_outputs(group, cocycle):
    classes = irreducibles(group, cocycle)
    a, b = classes[-1].rep, classes[0].rep
    rng = np.random.default_rng(len(group))
    phase = PhaseFunction(group, 6, [0, *rng.integers(0, 6, len(group) - 1)])
    h = group.elements[-1]
    sub = group.subgroup(FiniteGroup.generate(group.degree, [h]).elements)
    return {
        "tensor": tensor(a, b),
        "conjugate_rep": conjugate_rep(a),
        "restrict": restrict(a, sub),
        "twist": twist(a, phase),
        "transport-array": transport(a, group, conj_map(group, h, group)),
        "transport-callable": transport(a, group, lambda t: t.conjugate(h)),
        "direct_sum": direct_sum([a, b]),
        "induce": induce(restrict(a, sub), group, a.cocycle),
    }


@pytest.mark.parametrize("group, cocycle", _catalog_cases())
def test_trusted_constructions_pass_the_checked_constructor(group, cocycle):
    for how, out in _trusted_outputs(group, cocycle).items():
        checked = Rep(out.group, out.cocycle, out.matrices)
        assert checked.matrices.dtype == out.matrices.dtype, how
        np.testing.assert_array_equal(checked.matrices, out.matrices)


def _swap_orders_two_and_three(g):
    """A bijection of S3 fixing e that swaps a transposition and a 3-cycle:
    it changes an order, so it is no homomorphism."""
    t = next(x for x in g.elements if x.order() == 2)
    c = next(x for x in g.elements if x.order() == 3)
    swap = {t: c, c: t}
    return lambda x: swap.get(x, x)


def test_transport_rejects_a_bijection_that_is_not_a_homomorphism():
    g = s3()
    rep = irreducibles(g)[-1].rep
    fwd = _swap_orders_two_and_three(g)
    idx = np.array([g.index_of(fwd(x)) for x in g.elements])
    for form in (fwd, idx):
        with pytest.raises(ValueError, match="not a homomorphism"):
            transport(rep, g, form)


def _merging_first_two(merges: int):
    """_eigensplit, except that its first ``merges`` calls return the first
    two blocks merged into one reducible block; and the list of its calls."""
    original = projrep._eigensplit
    made = []

    def merging(rep, rng):
        subs = original(rep, rng)
        made.append(rep)
        if len(made) <= merges:
            return [direct_sum(subs[:2]), *subs[2:]]
        return subs
    return merging, made


SPLIT_CASES = {
    "s3": lambda: (s3(), None),
    "heisenberg3": lambda: heisenberg_cocycle(3, 1)[::2],
}


@pytest.mark.parametrize("case", sorted(SPLIT_CASES))
def test_irreducibles_retry_a_merged_split(case, monkeypatch):
    group, cocycle = SPLIT_CASES[case]()
    want = irreducibles(group, cocycle)
    clear_caches()
    merging, made = _merging_first_two(1)
    monkeypatch.setattr(projrep, "_eigensplit", merging)
    got = irreducibles(group, cocycle)
    assert len(made) == 2
    assert got == want


@pytest.mark.parametrize("case", sorted(SPLIT_CASES))
def test_irreducibles_give_up_when_every_split_merges(case, monkeypatch):
    group, cocycle = SPLIT_CASES[case]()
    merging, made = _merging_first_two(projrep.MAX_SPLIT_TRIES)
    monkeypatch.setattr(projrep, "_eigensplit", merging)
    with pytest.raises(NumericalDegradation):
        irreducibles(group, cocycle)
    assert len(made) == projrep.MAX_SPLIT_TRIES
