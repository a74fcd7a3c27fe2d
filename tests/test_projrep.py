import numpy as np
import pytest

from heckefuse import projrep
from heckefuse.cocycle import Cocycle, PhaseFunction, coboundary, heisenberg_cocycle
from heckefuse.permcore import (
    FiniteGroup,
    GroupTooLarge,
    Perm,
    Subgroup,
    conj_map,
    right_coset_reps,
)
from heckefuse.projrep import (
    NumericalDegradation,
    Rep,
    RepClass,
    clear_caches,
    decompose,
    equivalent,
    hom_dim,
    hom_dims,
    induce,
    irreducibles,
    regular_rep,
    restrict,
    tensor,
    transport,
    trivial_rep,
)

from elementary_oracle import twist
from groups import cyclic, symmetric
from multisets import multiset_dim


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


@pytest.fixture(autouse=True)
def fresh_caches():
    clear_caches()
    yield


def s3():
    return symmetric(3)


def z2_in_s3():
    g = s3()
    return g, Subgroup(g, [g.identity, Perm.parse(3, "(0 1)")])


# ------------------------------------------------------------ regular rep

def test_regular_rep_z2():
    g = cyclic(2)
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
        regular_rep(s3(), Cocycle.trivial(cyclic(6)))


# ------------------------------------------------------------ irreducibles

def test_irreducibles_s3():
    classes = irreducibles(s3())
    assert [c.dim for c in classes] == [1, 1, 2]
    assert sum(c.dim ** 2 for c in classes) == 6


def test_irreducibles_z4():
    classes = irreducibles(cyclic(4))
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
    sub = Subgroup(group, [group.identity])
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
    sub = Subgroup(group, [g for g in group if coords[g][1] == 0])  # the x-axis
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


def mixed_s3_reps():
    """Representations of S3 of dimensions 1, 1, 2, 6, 4, 1 and 3."""
    g = s3()
    triv, sign, std = (cls.rep for cls in irreducibles(g))
    return [triv, sign, std, regular_rep(g), direct_sum([std, std]), trivial_rep(g),
            direct_sum([sign, std])]


def character_inner_product(a, b):
    """<chi_a, chi_b>, the intertwiner rank of two ordinary representations."""
    value = np.vdot(a.character(), b.character()) / len(a.group)
    return int(round(value.real))


def test_hom_dims_match_the_one_pair_loop_in_order():
    reps = mixed_s3_reps()
    for a in reps:
        ranks = hom_dims(a, reps)
        assert ranks == [hom_dim(a, b) for b in reps]
        assert ranks == [character_inner_product(a, b) for b in reps]
        assert hom_dims(a, reps[::-1]) == ranks[::-1]


def test_hom_dims_of_no_others_is_empty():
    assert hom_dims(regular_rep(s3()), []) == []


@pytest.mark.parametrize("at", [0, 2, 4])
def test_hom_dims_reject_a_mismatch_at_any_position(at):
    reps = mixed_s3_reps()[:4]
    other_group = reps[:at] + [trivial_rep(cyclic(2))] + reps[at:]
    with pytest.raises(ValueError, match="common group"):
        hom_dims(reps[3], other_group)
    group, _, omega = heisenberg_cocycle(2, 1)
    plain = [trivial_rep(group)] * 4
    twisted = plain[:at] + [regular_rep(group, omega)] + plain[at:]
    with pytest.raises(ValueError, match="common cocycle"):
        hom_dims(regular_rep(group), twisted)


def test_hom_dims_chunked_give_the_same_ranks(monkeypatch):
    reps = mixed_s3_reps()
    whole = [hom_dims(a, reps) for a in reps]
    monkeypatch.setattr(projrep, "MAX_DENSE_BYTES", 1)  # one other per chunk
    assert [hom_dims(a, reps) for a in reps] == whole


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
    cls = irreducibles(g)[-1]
    assert decompose(cls.rep) == {cls: 1}


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
    g = cyclic(2)
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
    axis = Subgroup(group, [g for g in group if coords[g][1] == 0])
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
    sub = Subgroup(group, FiniteGroup.generate(group.degree, [h]).elements)
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


# ------------------------------------------------------------ class-sum tables

def _generated(degree, gens):
    return FiniteGroup.generate(degree, [Perm.parse(degree, x) for x in gens])


def _catalog_little(name, which):
    """(group, cocycle): the little group at a label of a twisted catalog
    pair with its required cocycle, or gamma with the pair's cocycle."""
    from heckefuse.catalog import BUILTIN, build_omega, build_pair
    from heckefuse.elementary import required_cocycle
    pair = build_pair(BUILTIN[name])
    omega = build_omega(BUILTIN[name], pair)
    if which == "gamma":
        return pair.gamma, omega
    label = pair.labels()[which]
    return pair.little_of_element(label), required_cocycle(pair, omega, label)


TABLE_CASES = {
    "S3": lambda: (symmetric(3), None),
    "S4": lambda: (symmetric(4), None),
    "A5": lambda: (_generated(5, ("(0 1 2)", "(0 1 2 3 4)")), None),
    "S5": lambda: (symmetric(5), None),
    "S3xS3": lambda: (_generated(6, ("(0 1)", "(0 1 2)", "(3 4)", "(3 4 5)")), None),
    "S4xZ2": lambda: (_generated(6, ("(0 1)", "(0 1 2 3)", "(4 5)")), None),
    "S3xZ3": lambda: (_generated(6, ("(0 1)", "(0 1 2)", "(3 4 5)")), None),
    **{f"heis{n}-{k}": (lambda n=n, k=k: heisenberg_cocycle(n, k)[::2])
       for n in (3, 4) for k in range(n)},
    "D4_klein-label0": lambda: _catalog_little("D4_klein", 0),
    "D4_klein-label1": lambda: _catalog_little("D4_klein", 1),
    "D4_klein-gamma": lambda: _catalog_little("D4_klein", "gamma"),
    "Heis3-label0": lambda: _catalog_little("Heis3", 0),
    "Heis3-gamma": lambda: _catalog_little("Heis3", "gamma"),
}

# SHA-256 of the JSON of [c.to_json() for c in irreducibles(...)], computed
# while the classes were split out of the regular representation
SPLIT_DIGESTS = {
    "S3": "f31a04856060080b2da0a6421c1f7bdc129cc9467fa50d6a7d356ea09f01170c",
    "S4": "e067f17de456c0219a3e2d0416cdf2bb43e97ff1c39138252386b6408c2a6b57",
    "A5": "1354f63990a9caf7b04a0dd1ebf574ae4931ac00b8aa61cb8562c164f91d66f7",
    "S5": "73e527eb72e1f5122ccc1d3b98e0c4b892da53daafcfae1111403833e5bd44f4",
    "S3xS3": "bba8431982f137e6e1a26009a32f988cd4f0592b3918cdaee3a1c2e05f29882b",
    "S4xZ2": "48b239669ea75af54a49bf330202a43d517eb52b07e372dad42ea76897b8cc47",
    "S3xZ3": "2afc3a88ea6be6891dfd21e27f31a26d0523117e2ce4e76215520eec57a8ba32",
    "heis3-0": "e0c0cfa5016c254c92478f2f1c07bdd4a7bdd4225da2d37bf38e070268f264c6",
    "heis3-1": "d73260ef6b50fa92852bc317a66d5e4de0fec3e2b4cf6bde390d250547fbe66d",
    "heis3-2": "d73260ef6b50fa92852bc317a66d5e4de0fec3e2b4cf6bde390d250547fbe66d",
    "heis4-0": "3bce12f8b197937a3e31249c1f7e965226fd3310b870567ae6921c14e653e46c",
    "heis4-1": "57ed1eb45cce70ec97faf90767a1eae36715c56370994df9501dd106e3267142",
    "heis4-2": "0638a5ab42c2b4ec2a301baa82c9c46174911b1d33d12600b2671d77f40b9ffc",
    "heis4-3": "57ed1eb45cce70ec97faf90767a1eae36715c56370994df9501dd106e3267142",
    "D4_klein-label0": "093a1058325d718083329b3386a74b89ba0c4024dad7a3149e3137570cc839f8",
    "D4_klein-label1": "23ac69fd73c9d60eb0eefe802c5786961a5ca5d1b0149c1beb4305886ff0bc63",
    "D4_klein-gamma": "4dc27282c74aad71c4fbd92e4683ae8101b29f41f9b97fa3be019a5d21309a4e",
    "Heis3-label0": "e0c0cfa5016c254c92478f2f1c07bdd4a7bdd4225da2d37bf38e070268f264c6",
    "Heis3-gamma": "d73260ef6b50fa92852bc317a66d5e4de0fec3e2b4cf6bde390d250547fbe66d",
}


def _digest(classes):
    import hashlib
    import json
    return hashlib.sha256(json.dumps([c.to_json() for c in classes],
                                     sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("case", sorted(TABLE_CASES))
def test_class_sum_tables_match_the_split_digests(case):
    assert _digest(irreducibles(*TABLE_CASES[case]())) == SPLIT_DIGESTS[case]


def test_irreducibles_of_s6():
    classes = irreducibles(symmetric(6))
    assert [c.dim for c in classes] == [1, 1, 5, 5, 5, 5, 9, 9, 10, 10, 16]


def test_cold_fusion_table_builds_no_matrices(monkeypatch):
    from heckefuse import catalog
    from heckefuse.exthecke import FinitePair
    import heckefuse

    def refuse(*args, **kwargs):
        raise AssertionError("a representation was built")

    s5 = _generated(5, ("(0 1)", "(0 1 2 3 4)"))
    s4 = _generated(5, ("(0 1)", "(0 1 2 3)"))
    pair = FinitePair(s5, Subgroup(s5, s4.elements), name="S4_in_S5")
    heckefuse.clear_caches()
    monkeypatch.setattr(Rep, "__init__", refuse)
    monkeypatch.setattr(Rep, "_of", refuse)
    for module in (projrep, heckefuse):
        monkeypatch.setattr(module, "regular_rep", refuse)
    table = catalog.fusion_table(pair)
    assert table["basis"] and table["products"]


# S3xZ3 has characters of degree 2 with complex values
LAZY_CASES = ["S3", "S4", "A5", "S3xS3", "S3xZ3", "heis3-1", "heis4-2", "D4_klein-label1",
              "D4_klein-gamma", "Heis3-gamma"]


@pytest.mark.parametrize("case", LAZY_CASES)
def test_lazy_rep_is_checked_and_matches_its_class(case, monkeypatch):
    group, cocycle = TABLE_CASES[case]()
    classes = irreducibles(group, cocycle)
    checked = []
    validate = Rep._validate

    def counted(rep):
        checked.append(rep)
        validate(rep)
    monkeypatch.setattr(Rep, "_validate", counted)
    for cls in classes:
        rep = cls.rep
        assert checked[-1] is rep and cls.rep is rep
        assert (rep.group, rep.cocycle, rep.dim) == (cls.group, cls.cocycle, cls.dim)
        assert rep.char_key() == cls.char
        assert hom_dim(rep, rep) == 1
    assert len(checked) == len(classes)


def test_lazy_rep_rejects_a_character_that_is_no_class():
    g = s3()
    std = irreducibles(g)[-1]
    bent = np.array(std.character())
    bent[1] += 0.01
    with pytest.raises(NumericalDegradation, match="rank"):
        RepClass(g, std.cocycle, std.dim, bent).rep
    # a bend within INT_TOL passes the projection but moves the rounded key
    bent[1] -= 0.01 - 6e-7
    with pytest.raises(NumericalDegradation, match="another character"):
        RepClass(g, std.cocycle, std.dim, bent).rep
    twisted = RepClass(g, std.cocycle, 1, np.ones(len(g)) * [1, -1, -1, 1, 1, 1])
    with pytest.raises(ValueError, match="multiplicativity"):
        twisted.rep


def _perturbed_coefficients(monkeypatch):
    """Move one count of the coefficients c_jk0 (the identity's class 0,
    where every central character is 1) to the next class k."""
    original = projrep._class_coefficients

    def perturbed(*args):
        lands = original(*args).copy()
        lands[-1, 0] = (lands[-1, 0] + 1) % (lands.max() + 1)
        return lands
    monkeypatch.setattr(projrep, "_class_coefficients", perturbed)


SEED_CASES = ["S3", "heis3-1", "S4xZ2"]


@pytest.mark.parametrize("case", SEED_CASES)
def test_a_perturbed_class_coefficient_raises(case, monkeypatch):
    _perturbed_coefficients(monkeypatch)
    with pytest.raises(NumericalDegradation):
        irreducibles(*TABLE_CASES[case]())


def _degenerate_first(monkeypatch, k):
    """Make the first k draws all zero, a combination whose eigenvalues all
    coincide; return the list of draws made."""
    original, made = projrep._draw, []

    def draw(attempt, n, shape):
        made.append(attempt)
        return np.zeros(shape) if len(made) <= k else original(attempt, n, shape)
    monkeypatch.setattr(projrep, "_draw", draw)
    return made


@pytest.mark.parametrize("case", SEED_CASES)
def test_a_degenerate_combination_retries_on_the_next_seed(case, monkeypatch):
    group, cocycle = TABLE_CASES[case]()
    want = irreducibles(group, cocycle)
    clear_caches()
    made = _degenerate_first(monkeypatch, 1)
    got = irreducibles(group, cocycle)
    assert made == [0, 1] and _digest(got) == _digest(want)
    for a, b in zip(got, want):
        assert np.abs(a.character() - b.character()).max() < 1e-9


@pytest.mark.parametrize("case", SEED_CASES)
def test_tables_give_up_when_every_combination_is_degenerate(case, monkeypatch):
    made = _degenerate_first(monkeypatch, projrep.MAX_SEEDS)
    with pytest.raises(NumericalDegradation, match="unseparated"):
        irreducibles(*TABLE_CASES[case]())
    assert made == list(range(projrep.MAX_SEEDS))


@pytest.mark.parametrize("case", SEED_CASES)
def test_lazy_rep_retries_then_gives_up_on_a_degenerate_average(case, monkeypatch):
    cls = irreducibles(*TABLE_CASES[case]())[-1]
    assert cls.dim > 1
    made = _degenerate_first(monkeypatch, projrep.MAX_SEEDS)
    with pytest.raises(NumericalDegradation, match="no eigenspace"):
        cls.rep
    assert made == list(range(projrep.MAX_SEEDS))
    made.clear()
    monkeypatch.setattr(projrep, "MAX_SEEDS", projrep.MAX_SEEDS + 1)
    assert cls.rep.char_key() == cls.char
    assert made == list(range(projrep.MAX_SEEDS))


def test_dense_builds_fail_fast_over_the_byte_limit(monkeypatch):
    g = s3()
    std = irreducibles(g)[-1]
    monkeypatch.setattr(projrep, "MAX_DENSE_BYTES", 16 * 6 ** 3 - 1)
    with pytest.raises(GroupTooLarge, match="regular representation"):
        regular_rep(g)
    monkeypatch.setattr(projrep, "MAX_DENSE_BYTES", 16 * (6 * 2) ** 2 - 1)
    with pytest.raises(GroupTooLarge, match="degree-2 class"):
        std.rep
    monkeypatch.setattr(projrep, "MAX_DENSE_BYTES", 16 * 6 ** 3)
    assert regular_rep(g).dim == 6 and std.rep.dim == 2
