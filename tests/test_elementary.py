import collections
import hashlib
import itertools
import json
import random
import re

import numpy as np
import pytest

import heckefuse
from heckefuse import checks, elementary, permcore
from heckefuse.catalog import BUILTIN, CatalogEntry, build_omega, build_pair
from heckefuse.cli import elem_sum_json
from heckefuse.cocycle import (
    Cocycle,
    CocycleError,
    PhaseFunction,
    bilinear_cocycle,
    coboundary_witness_s1,
    conjugation_phase,
)
from heckefuse.elementary import (
    BimoduleSum,
    CocycleBookkeepingError,
    ElementaryBimodule,
    admissible_classes,
    fuse,
    identify,
    identity_object,
    is_irreducible,
    required_cocycle,
    to_ext_hecke,
)
from heckefuse.exthecke import FinitePair, basis as ext_basis
from heckefuse.exthecke import fuse as ext_fuse, unit as ext_unit
from heckefuse.permcore import FiniteGroup, Perm, Subgroup, conj_map
from heckefuse.projrep import (
    NumericalDegradation,
    Rep,
    irreducibles,
    phase_roots,
    regular_rep,
    round_char,
    trivial_rep,
)

from elementary_oracle import (
    isomorphism_witness,
    row_by_row_canonical_terms,
    term_rows,
    transfer_rep,
    twist,
)
from multisets import support


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


@pytest.fixture(scope="module")
def s3s4():
    g = FiniteGroup.generate(4, [Perm.parse(4, "(0 1)"), Perm.parse(4, "(0 1 2 3)")])
    gamma = Subgroup(
        g, FiniteGroup.generate(4, [Perm.parse(4, "(0 1)"), Perm.parse(4, "(0 1 2)")]).elements
    )
    return FinitePair(g, gamma, name="S3_in_S4")


@pytest.fixture(scope="module")
def d4_klein():
    g = FiniteGroup.generate(4, [Perm.parse(4, "(0 1 2 3)"), Perm.parse(4, "(1 3)")])
    gamma = Subgroup(
        g, FiniteGroup.generate(4, [Perm.parse(4, "(0 1)(2 3)"),
                                    Perm.parse(4, "(0 2)(1 3)")]).elements
    )
    return FinitePair(g, gamma, name="Klein_in_D4")


def klein_cocycle(pair: FinitePair) -> Cocycle:
    a = Perm.parse(4, "(0 1)(2 3)")
    b = Perm.parse(4, "(0 2)(1 3)")
    coords = {}
    for x in range(2):
        for y in range(2):
            coords[(a ** x) * (b ** y)] = (x, y)
    return bilinear_cocycle(pair.gamma, coords, 2, 1)


def elementary_basis(pair, omega):
    out = []
    for label in pair.labels():
        for cls in admissible_classes(pair, omega, label):
            out.append(ElementaryBimodule(pair, omega, label, cls.rep))
    return out


# ------------------------------------------------------------ construction

def test_identity_object(s3s4):
    obj = identity_object(s3s4, Cocycle.trivial(s3s4.gamma))
    assert obj.delta == s3s4.group.identity
    assert obj.rep.dim == 1
    assert is_irreducible(obj)


def test_any_ordinary_rep_valid_with_trivial_cocycle(s3s4):
    pair = s3s4
    omega = Cocycle.trivial(pair.gamma)
    for label in pair.labels():
        for cls in irreducibles(pair.little(label)):
            obj = ElementaryBimodule(pair, omega, label, cls.rep)
            assert obj.rep.dim == cls.dim


def test_klein_admissible_reps_exist_via_twist(d4_klein):
    pair = d4_klein
    omega = klein_cocycle(pair)
    rotation = Perm.parse(4, "(0 1 2 3)")
    need = required_cocycle(pair, omega, rotation)
    # the constraint class is a coboundary over S^1, so solving for a phase
    # and twisting ordinary representations yields admissible ones
    phi = coboundary_witness_s1(need)
    assert phi is not None
    rig = pair.little_of_element(rotation)
    ordinary = irreducibles(rig)[0].rep
    candidate = twist(ordinary, phi)
    assert candidate.cocycle == need.rescale(phi.modulus) or \
        candidate.cocycle == need
    classes = admissible_classes(pair, omega, rotation)
    assert len(classes) >= 1


def test_make_rejects_wrong_cocycle(d4_klein):
    pair = d4_klein
    omega = klein_cocycle(pair)
    rotation = Perm.parse(4, "(0 1 2 3)")
    rig = pair.little_of_element(rotation)
    with pytest.raises(CocycleError):
        ElementaryBimodule(pair, omega, rotation, trivial_rep(rig))


def test_make_rejects_wrong_subgroup(s3s4):
    pair = s3s4
    omega = Cocycle.trivial(pair.gamma)
    k_label = pair.labels()[1]
    gamma_group = pair.little(pair.labels()[0])
    with pytest.raises(ValueError):
        ElementaryBimodule(pair, omega, k_label, trivial_rep(gamma_group))


# ------------------------------------------------------------ irreducibility

def test_is_irreducible_cases(s3s4):
    pair = s3s4
    omega = Cocycle.trivial(pair.gamma)
    e = pair.group.identity
    gamma_grp = pair.little_of_element(e)
    assert is_irreducible(ElementaryBimodule(pair, omega, e, trivial_rep(gamma_grp)))
    assert not is_irreducible(ElementaryBimodule(pair, omega, e, regular_rep(gamma_grp)))


def test_twisted_klein_object_irreducible(d4_klein):
    pair = d4_klein
    omega = klein_cocycle(pair)
    e = pair.group.identity
    rig = pair.little_of_element(e)
    # required cocycle at e is omega itself... no: (omega o Ad e)/omega = trivial
    assert required_cocycle(pair, omega, e).is_trivial_table()
    # a genuinely twisted object: regular rep of the Klein group with omega
    # sits at e only when omega is trivial; instead check Schur on the twisted
    # 2-dim class directly
    cls = irreducibles(rig, omega.restrict(rig))[0]
    assert cls.dim == 2
    from heckefuse.projrep import hom_dim
    assert hom_dim(cls.rep, cls.rep) == 1


# ------------------------------------------------------------ fusion

def test_identity_is_neutral(s3s4):
    pair = s3s4
    omega = Cocycle.trivial(pair.gamma)
    e_obj = identity_object(pair, omega)
    for obj in elementary_basis(pair, omega):
        assert fuse(e_obj, obj) == BimoduleSum.of(obj)
        assert fuse(obj, e_obj) == BimoduleSum.of(obj)


def test_identity_is_neutral_twisted(d4_klein):
    pair = d4_klein
    omega = klein_cocycle(pair)
    e_obj = identity_object(pair, omega)
    for obj in elementary_basis(pair, omega):
        assert fuse(e_obj, obj) == BimoduleSum.of(obj)
        assert fuse(obj, e_obj) == BimoduleSum.of(obj)


def test_normalizing_deltas_give_single_summand(d4_klein):
    pair = d4_klein
    omega = klein_cocycle(pair)
    objs = elementary_basis(pair, omega)
    # the Klein subgroup is normal in D4, so every double coset is a coset and
    # the fusion of two basis objects is supported on a single delta
    for a, b in itertools.product(objs[:4], objs[4:]):
        result = fuse(a, b)
        deltas = {rep.delta.images for rep, _ in result.items()}
        assert len(deltas) == 1
        assert total_dim(result) == a.rep.dim * b.rep.dim


def test_cross_oracle_with_ext_hecke(s3s4):
    pair = s3s4
    omega = Cocycle.trivial(pair.gamma)
    ext = [b for _, b in ext_basis(pair)]
    elem = []
    for label in pair.labels():
        for cls in irreducibles(pair.little(label)):
            elem.append(ElementaryBimodule(pair, omega, label, cls.rep))
    assert len(ext) == len(elem)
    for (x_ext, x_elem) in zip(ext, elem):
        assert to_ext_hecke(BimoduleSum.of(x_elem)) == x_ext
    for (x_ext, x_elem), (y_ext, y_elem) in itertools.product(
            zip(ext, elem), repeat=2):
        lhs = to_ext_hecke(fuse(x_elem, y_elem))
        rhs = ext_fuse(x_ext, y_ext)
        assert lhs == rhs


def test_fuse_associativity_twisted_sample(d4_klein):
    pair = d4_klein
    omega = klein_cocycle(pair)
    objs = elementary_basis(pair, omega)
    sample = [(objs[0], objs[4], objs[5]), (objs[4], objs[5], objs[6]),
              (objs[1], objs[4], objs[1]), (objs[4], objs[4], objs[4])]
    for x, y, z in sample:
        left = fuse(fuse(x, y), BimoduleSum.of(z))
        right = fuse(BimoduleSum.of(x), fuse(y, z))
        assert left == right


def test_fuse_dimension_bookkeeping(s3s4):
    pair = s3s4
    omega = Cocycle.trivial(pair.gamma)
    objs = elementary_basis(pair, omega)
    for x, y in itertools.product(objs, repeat=2):
        product = fuse(x, y)
        lhs = to_ext_hecke(product)
        # dimension of the fusion matches the Hecke-level convolution dims
        from heckefuse.exthecke import to_hecke
        from heckefuse.hecke import degree
        hx = to_hecke(to_ext_hecke(BimoduleSum.of(x)))
        hy = to_hecke(to_ext_hecke(BimoduleSum.of(y)))
        assert degree(to_hecke(lhs)) == degree(hx) * degree(hy)


# ------------------------------------------------------------ isomorphism

def test_isomorphic_to_self(s3s4):
    pair = s3s4
    omega = Cocycle.trivial(pair.gamma)
    for obj in elementary_basis(pair, omega):
        assert isomorphism_witness(obj, obj) == \
            (pair.group.identity, pair.group.identity)


def test_not_isomorphic_across_cosets(s3s4):
    pair = s3s4
    omega = Cocycle.trivial(pair.gamma)
    e_label, k_label = pair.labels()
    a = ElementaryBimodule(pair, omega, e_label,
                           irreducibles(pair.little(e_label))[0].rep)
    b = ElementaryBimodule(pair, omega, k_label,
                           irreducibles(pair.little(k_label))[0].rep)
    assert isomorphism_witness(a, b) is None


def test_isomorphism_round_trip(s3s4):
    pair = s3s4
    omega = Cocycle.trivial(pair.gamma)
    k_label = pair.labels()[1]
    pi = irreducibles(pair.little(k_label))[1].rep
    obj = ElementaryBimodule(pair, omega, k_label, pi)
    g = Perm.parse(4, "(0 1 2)")
    h = Perm.parse(4, "(0 1)")
    moved_delta = g * k_label * h
    moved = ElementaryBimodule(pair, omega, moved_delta,
                               transfer_rep(pair, omega, k_label, pi, g, h))
    witness = isomorphism_witness(obj, moved)
    assert witness is not None
    wg, wh = witness
    assert wg * k_label * wh == moved_delta
    # and both identify with one basis object
    assert BimoduleSum.of(obj) == BimoduleSum.of(moved)


def test_isomorphism_round_trip_twisted(d4_klein):
    pair = d4_klein
    omega = klein_cocycle(pair)
    objs = elementary_basis(pair, omega)
    target = objs[5]
    g = Perm.parse(4, "(0 2)(1 3)")
    h = Perm.parse(4, "(0 1)(2 3)")
    moved = ElementaryBimodule(pair, omega, g * target.delta * h,
                               transfer_rep(pair, omega, target.delta, target.rep, g, h))
    assert isomorphism_witness(target, moved) is not None
    assert BimoduleSum.of(target) == BimoduleSum.of(moved)


# ------------------------------------------------------------ direct sums

def direct_sum_objects(a, b):
    """The object (delta, a.rep + b.rep) of two objects at one delta."""
    if a.delta != b.delta:
        raise ValueError("direct summands must share the same delta")
    if a.omega != b.omega:
        raise ValueError("direct summands must share the ambient cocycle")
    return ElementaryBimodule(a.pair, a.omega, a.delta, direct_sum([a.rep, b.rep]))


def total_dim(total) -> int:
    """Dimension of a BimoduleSum, read from its basis objects' classes."""
    return sum(cls.dim * mult for _, _, cls, mult in total.terms())


def test_direct_sum_dims_add(s3s4):
    pair = s3s4
    omega = Cocycle.trivial(pair.gamma)
    k_label = pair.labels()[1]
    classes = irreducibles(pair.little(k_label))
    a = ElementaryBimodule(pair, omega, k_label, classes[0].rep)
    b = ElementaryBimodule(pair, omega, k_label, classes[1].rep)
    both = direct_sum_objects(a, b)
    assert both.rep.dim == a.rep.dim + b.rep.dim
    assert BimoduleSum.of(both) == BimoduleSum.of(a) + BimoduleSum.of(b)


def test_direct_sum_requires_same_delta(s3s4):
    pair = s3s4
    omega = Cocycle.trivial(pair.gamma)
    e_label, k_label = pair.labels()
    a = ElementaryBimodule(pair, omega, e_label, irreducibles(pair.little(e_label))[0].rep)
    b = ElementaryBimodule(pair, omega, k_label, irreducibles(pair.little(k_label))[0].rep)
    with pytest.raises(ValueError):
        direct_sum_objects(a, b)


# ------------------------------------------------------------ ext identification

def test_to_ext_hecke_identity(s3s4):
    pair = s3s4
    omega = Cocycle.trivial(pair.gamma)
    assert to_ext_hecke(identity_object(pair, omega)) == ext_unit(pair)


def test_to_ext_hecke_round_trip(s3s4):
    pair = s3s4
    omega = Cocycle.trivial(pair.gamma)
    k_label = pair.labels()[1]
    triv_cls = [c for c in irreducibles(pair.little(k_label)) if c.dim == 1][0]
    obj = ElementaryBimodule(pair, omega, k_label, triv_cls.rep)
    ext = to_ext_hecke(obj)
    assert support(ext) == {k_label: {triv_cls: 1}}
    # move delta somewhere else in the double coset and come back
    other = [pair.group.elements[i] for i in pair.cosets.coset(k_label).idx][7]
    c1, c2 = pair.decomposition(k_label, other)
    from heckefuse.projrep import transport
    moved_rep = transport(triv_cls.rep, pair.little_of_element(other),
                          lambda t: t.conjugate(c2))
    moved = ElementaryBimodule(pair, omega, other, moved_rep)
    assert to_ext_hecke(moved) == ext


def test_to_ext_hecke_rejects_twisted(d4_klein):
    pair = d4_klein
    omega = klein_cocycle(pair)
    obj = identity_object(pair, omega)
    with pytest.raises(ValueError):
        to_ext_hecke(obj)


# ------------------------------------------------------------ determinism

def test_canonical_sums_are_representative_independent(d4_klein):
    pair = d4_klein
    omega = klein_cocycle(pair)
    objs = elementary_basis(pair, omega)
    baseline = fuse(objs[4], objs[5]).vector
    for trial in range(3):
        shuffled = pair.with_choices(random.Random(trial))
        objs2 = elementary_basis(shuffled, klein_cocycle(shuffled))
        got = fuse(objs2[4], objs2[5]).vector
        assert np.array_equal(got, baseline)


def test_canonical_term_rejects_a_rep_without_the_required_cocycle(d4_klein):
    pair = d4_klein
    omega = klein_cocycle(pair)
    rotation = Perm.parse(4, "(0 1 2 3)")
    with pytest.raises(CocycleBookkeepingError):
        identify(pair, omega, rotation, [trivial_rep(pair.little_of_element(rotation))])


# ------------------------------------------------------------ values own their data

def catalog_case(name):
    pair = build_pair(BUILTIN[name])
    return pair, build_omega(BUILTIN[name], pair) or Cocycle.trivial(pair.gamma)


def transferred_minimum(pair, omega, delta, rep):
    """The row of the least transferred character, found by building every
    transferred representation."""
    label = pair.label_of(delta)
    best = min((transfer_rep(pair, omega, delta, rep, g, c)
                for g, c in pair.decompositions(delta, label)),
               key=lambda moved: moved.char_key())
    return term_rows(pair, omega, [(label.images, best.char_key())])[0]


@pytest.mark.parametrize("name", ["D4_klein", "Heis3", "S3_in_S4", "Z3_regular"])
def test_canonical_terms_from_characters_match_transferred_matrices(name):
    pair, omega = catalog_case(name)
    rng = random.Random(5)
    for obj in elementary_basis(pair, omega):
        cls = next(c for c in admissible_classes(pair, omega, obj.delta)
                   if c.char == obj.rep.char_key())
        for _ in range(3):
            g, h = (rng.choice(pair.gamma.elements) for _ in range(2))
            moved = ElementaryBimodule(pair, omega, g * obj.delta * h,
                                       transfer_rep(pair, omega, obj.delta, obj.rep, g, h))
            assert np.array_equal(identify(pair, omega, moved.delta, [moved.rep])[0],
                                  transferred_minimum(pair, omega, moved.delta, moved.rep))
        assert np.array_equal(identify(pair, omega, obj.delta, [cls])[0],
                              transferred_minimum(pair, omega, obj.delta, obj.rep))


# ------------------------------------------------------------ one-move identification

def looped_canonical_term(pair, omega, delta, rep):
    """(canonical term, winning decomposition) by one transfer per
    decomposition label = g delta c, the first least fingerprint winning:
    the rule that named a constituent before one move did."""
    label = pair.label_of(delta)
    gamma, char, best = omega.group, np.asarray(rep.character()), None
    for g, c in pair.decompositions(delta, label):
        dc = delta * c
        little = pair.little_of_element(g * dc)
        phase = PhaseFunction(
            little, omega.modulus,
            conjugation_phase(omega, g).values[conj_map(little, dc, gamma)]
            + conjugation_phase(omega, c).values[gamma.positions(little.images)])
        key = round_char(phase_roots(phase) * char[conj_map(little, c, rep.group)])
        if best is None or key < best[0]:
            best = key, (g, c)
    return (label.images, best[0]), best[1]


def identified_by_checks(pair, omega, monkeypatch):
    """Every (delta, rep) that the elementary checks identify over pair,
    with omega and with the trivial cocycle, and the row each got."""
    calls, compute = [], elementary.identify

    def recording(pair, omega, delta, reps):
        rows = compute(pair, omega, delta, reps)
        calls.extend((omega, delta, rep, row) for rep, row in zip(reps, rows))
        return rows

    monkeypatch.setattr(elementary, "identify", recording)
    cfg = checks.Config()
    checks.check_elementary_cross_oracle(pair, cfg)
    checks.check_elementary_associativity(pair, omega, cfg)
    checks.check_elementary_irreducibility(pair, omega, cfg)
    monkeypatch.undo()
    return calls


@pytest.mark.parametrize("name", ["D4_klein", "Heis3", "S3_in_S4", "Z3_regular"])
@pytest.mark.parametrize("seed", [None, 3])
def test_batched_canonical_terms_match_the_decomposition_loop(name, seed, monkeypatch):
    base, omega = catalog_case(name)
    pair = base if seed is None else base.with_choices(random.Random(seed))
    calls = identified_by_checks(pair, omega, monkeypatch)
    assert {o.is_trivial_table() for o, *_ in calls} == \
        {True, omega.is_trivial_table()}
    for omega_used, delta, rep, row in calls:
        term = looped_canonical_term(pair, omega_used, delta, rep)[0]
        assert np.array_equal(row, term_rows(pair, omega_used, [term])[0])


# pairs beyond the catalog: a larger group, a little group of order 2 in
# a nonabelian one, and the Klein four in S4 under the Heisenberg cocycle
EXTRA_CASES = {
    "S4_in_S5": CatalogEntry(name="S4_in_S5", degree=5, g_gens=("(0 1)", "(0 1 2 3 4)"),
                             gamma_gens=("(0 1)", "(0 1 2 3)")),
    "Z2_in_S4": CatalogEntry(name="Z2_in_S4", degree=4, g_gens=("(0 1)", "(0 1 2 3)"),
                             gamma_gens=("(0 1)",)),
    "V4_in_S4": CatalogEntry(name="V4_in_S4", degree=4, g_gens=("(0 1)", "(0 1 2 3)"),
                             gamma_gens=("(0 1)(2 3)", "(0 2)(1 3)"),
                             omega=("heisenberg", 2, 1)),
}


@pytest.mark.parametrize("seed", [None, 1, 2, 3])
def test_identified_rows_match_the_all_moves_minimum(seed):
    """Every (delta, class) that a fusion plan reaches, on the four catalog
    pairs and the extra cases, under the trivial and the catalog cocycle:
    the one-move row is the row of the least rounded transferred character
    over every move.  Under a seed each pair draws its moves, fusion orbit
    representatives included, so other deltas and moves are met."""
    reached = 0
    for entry in [*(BUILTIN[name] for name in ["D4_klein", "Heis3", "S3_in_S4",
                                               "Z3_regular"]), *EXTRA_CASES.values()]:
        base = build_pair(entry)
        pair = base if seed is None else base.with_choices(random.Random(seed))
        for omega in {Cocycle.trivial(pair.gamma), build_omega(entry, pair)} - {None}:
            deltas = {step.delta.images: step.delta
                      for a, b in itertools.product(pair.labels(), repeat=2)
                      for step in elementary.fusion_plan(pair, omega, a, b)}
            for delta in deltas.values():
                classes = list(admissible_classes(pair, omega, delta))
                want = [term for term, _ in row_by_row_canonical_terms(pair, omega, delta, classes)]
                assert np.array_equal(identify(pair, omega, delta, classes),
                                      term_rows(pair, omega, want))
                reached += len(classes)
    assert reached > 100


@pytest.mark.parametrize("seed", [None, 1])
def test_the_drawn_decomposition_is_the_one_checked(seed):
    """A rep without the required cocycle fails the moved cocycle's check,
    and the error names the move: the decomposition that the pair gives,
    the first one or one drawn under a seed."""
    base, omega = catalog_case("D4_klein")
    pair = base if seed is None else base.with_choices(random.Random(seed))
    failed = drawn = 0
    for delta in pair.group.elements:
        rep = trivial_rep(pair.little_of_element(delta))
        if rep.cocycle == required_cocycle(pair, omega, delta):
            continue
        g, h = pair.decomposition(delta, pair.label_of(delta))
        drawn += (g, h) != next(pair.decompositions(delta, pair.label_of(delta)))
        with pytest.raises(CocycleBookkeepingError,
                           match=re.escape(f"by ({g.cycle_string()}, {h.cycle_string()})")):
            identify(pair, omega, delta, [rep])
        failed += 1
    assert failed == 4 and (drawn > 0) == (seed is not None)


@pytest.mark.parametrize("name", ["D4_klein", "Heis3"])
def test_a_perturbed_move_fails_the_identification(name, monkeypatch):
    """Under the catalog cocycle, at every delta of G with every admissible
    class there: one phase exponent off the identity moved by one, or one
    transport-index entry set to its neighbour's, fails the moved cocycle's
    check or the exact decomposition."""
    pair, omega = catalog_case(name)
    transfer, failed = elementary._transfer, collections.Counter()
    for delta in pair.group.elements:
        classes = list(admissible_classes(pair, omega, delta))
        n = len(pair.little_of_element(delta))
        for part, k in [*(("phase", k) for k in range(1, n)),
                        *(("index", k) for k in range(n if n > 1 else 0))]:
            def perturbed(*args, part=part, k=k):
                little, idx, phases = (np.array(a) if i else a
                                       for i, a in enumerate(transfer(*args)))
                if part == "phase":
                    phases[k] = (phases[k] + 1) % omega.modulus
                else:
                    idx[k] = idx[(k + 1) % n]
                return little, idx, phases

            monkeypatch.setattr(elementary, "_transfer", perturbed)
            with pytest.raises((CocycleBookkeepingError, NumericalDegradation)) as err:
                identify(pair, omega, delta, classes)
            failed[part, err.type.__name__] += 1
            monkeypatch.undo()
    assert failed["phase", "CocycleBookkeepingError"] > 0
    assert failed["index", "NumericalDegradation"] > 0


def test_object_sums_and_identifications_are_memoized():
    # a sum and an identification are computed on each call, not kept on
    # the pair, which they would hold; a twin object gives the same ones
    pair, omega = catalog_case("S3_in_S4")
    objs = elementary_basis(pair, omega)
    for obj in objs:
        twin = ElementaryBimodule(pair, omega, obj.delta, obj.rep)
        assert BimoduleSum.of(twin) == BimoduleSum.of(obj)
        assert to_ext_hecke(twin) == to_ext_hecke(obj)


def test_sums_over_different_ambient_groups_differ():
    swap = Perm.parse(4, "(0 1)")
    s4 = FiniteGroup.generate(4, [swap, Perm.parse(4, "(0 1 2 3)")])
    klein = FiniteGroup.generate(4, [swap, Perm.parse(4, "(2 3)")])
    sums = []
    for group in (s4, klein):
        pair = FinitePair(group, Subgroup(group, [group.identity, swap]))
        sums.append(BimoduleSum.of(identity_object(pair, Cocycle.trivial(pair.gamma))))
    assert sums[0].omega == sums[1].omega
    assert np.flatnonzero(sums[0].vector).tolist() == np.flatnonzero(sums[1].vector).tolist()
    assert sums[0] != sums[1]
    assert hash(sums[0]) != hash(sums[1])


def test_sums_survive_clear_caches():
    pair, omega = catalog_case("S3_in_S4")
    objs = elementary_basis(pair, omega)
    total = fuse(objs[-1], objs[-1]) + fuse(objs[1], objs[-1])

    def observe():
        return ([(obj.delta, obj.rep.char_key(), mult) for obj, mult in total.items()],
                total_dim(total), repr(total), to_ext_hecke(total),
                fuse(total, total))

    before = observe()
    heckefuse.clear_caches()
    assert observe() == before


@pytest.mark.parametrize("name", ["S3_in_S4", "D4_klein"])
def test_repeated_fusion_builds_no_objects_or_subgroups(name, monkeypatch):
    pair, omega = catalog_case(name)
    objs = elementary_basis(pair, omega)
    for x, y in itertools.product(objs, repeat=2):
        fuse(x, y)
    built = []
    for cls in (elementary.ElementaryBimodule, permcore.Subgroup):
        init = cls.__init__

        def counting(self, *args, _init=init, **kwargs):
            built.append(type(self).__name__)
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    for x, y in itertools.product(objs, repeat=2):
        fuse(x, y)
    assert built == []


# sha256 of the elem_sum_json of fuse over every pair of basis objects
# (catalog cocycle, trivial where the catalog has none), recorded before
# canonical forms moved onto the pair
GOLDEN_ELEMENTARY = {
    "D4_klein": "ea7f378f1390e817df33967da2b6fa00bf151e93e9a1cbebf21fbdf270601898",
    "Heis3": "bb3ef0a3ece301aee11094a842e7c64920ad4219c89e2387823da8baf3116c1c",
    "S3_in_S4": "4c554ff29d0eeab36ecf82ef3730c65256575742de8b8258d63923ddbb3f9537",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_ELEMENTARY))
def test_elementary_products_match_golden_digests(name):
    pair, omega = catalog_case(name)
    objs = elementary_basis(pair, omega)
    products = [elem_sum_json(fuse(x, y))
                for x, y in itertools.product(objs, repeat=2)]
    digest = hashlib.sha256(json.dumps(products, sort_keys=True).encode()).hexdigest()
    assert digest == GOLDEN_ELEMENTARY[name]
