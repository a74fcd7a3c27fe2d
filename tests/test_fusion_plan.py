"""Elementary fusion through memoized fusion plans: the plan, the
vectorized induction and the batched products of many class pairs against
the composed constructions and one-pair products they replace."""

import collections
import gc
import hashlib
import itertools
import json
import random
import weakref

import numpy as np
import pytest

import heckefuse
from heckefuse import checks, elementary, projrep
from heckefuse.catalog import BUILTIN, build_omega, build_pair
from heckefuse.cocycle import Cocycle, PhaseFunction
from heckefuse.elementary import (
    BimoduleSum,
    CocycleBookkeepingError,
    _add_terms,
    basis_objects,
    fuse,
    make,
    pair_conjugation_phase,
    required_cocycle,
    structure_constants,
    term_vector,
)
from heckefuse.permcore import GroupTooLarge, conj_map, right_coset_reps
from heckefuse.projrep import (
    _roots,
    induce,
    irreducibles,
    restrict,
    tensor,
    transport,
)

from elementary_oracle import twist
from orbit_oracle import perm_cosets, perm_orbits

PAIRS = ["S3_in_S4", "Z3_regular", "D4_klein", "Heis3"]


def catalog_omegas(name):
    """The pair, and its trivial cocycle and catalog cocycle (when it has one)."""
    pair = build_pair(BUILTIN[name])
    omegas = [Cocycle.trivial(pair.gamma), build_omega(BUILTIN[name], pair)]
    return pair, [omega for omega in omegas if omega is not None]


def composed_fuse(h1, h2) -> BimoduleSum:
    """Elementary fusion as one chain of constructions per orbit:
    induce(twist(tensor(transport(...), restrict(...)), phase), ...)."""
    pair, omega, gamma = h1.pair, h1.omega, h1.pair.gamma
    out: dict = {}
    cosets, coset_of = perm_cosets(gamma, h1.right_subgroup)
    for orbit in perm_orbits(gamma, h1.right_subgroup, h2.left_subgroup):
        g = pair.pick([x for m in orbit for x in cosets[coset_of[m]]])
        new_delta = h1.delta * g * h2.delta
        rig_new = pair.little_of_element(new_delta)
        meet = pair.intersection(rig_new, h2.right_subgroup)
        moved = transport(h1.rep, meet, conj_map(meet, g * h2.delta, h1.rep.group))
        phase = PhaseFunction(
            meet, omega.modulus,
            pair_conjugation_phase(pair, omega, g).values[conj_map(meet, h2.delta, gamma)])
        integrand = twist(tensor(moved, restrict(h2.rep, meet)), phase)
        fused = induce(integrand, rig_new, required_cocycle(pair, omega, new_delta),
                       rng=pair.rng)
        _add_terms(out, pair, omega, new_delta, fused)
    return BimoduleSum(pair, omega, out)


@pytest.mark.parametrize("name", PAIRS)
def test_planned_fusion_equals_the_composed_constructions(name):
    pair, omegas = catalog_omegas(name)
    for omega in omegas:
        objs = basis_objects(pair, omega)
        for x, y in itertools.product(objs, repeat=2):
            assert fuse(x, y) == composed_fuse(x, y)


def test_a_repeated_product_is_the_memoized_sum(monkeypatch):
    # read from the stored E: no product is computed again
    pair, (_, omega) = catalog_omegas("D4_klein")
    objs = basis_objects(pair, omega)
    first = fuse(objs[-1], objs[-2])
    again = make(pair, omega, objs[-1].delta, objs[-1].rep)
    monkeypatch.setattr(elementary, "_fuse_classes", None)
    assert fuse(again, objs[-2]) == first


def test_one_check_pass_builds_one_plan_per_label_pair(monkeypatch):
    built, fused = collections.Counter(), collections.Counter()
    plan, product = elementary.fusion_plan, elementary._fuse_classes

    def planning(pair, omega, delta1, delta2):
        built[pair.name, omega.key(), delta1, delta2] += 1
        return plan(pair, omega, delta1, delta2)

    def fusing(pair, omega, delta1, reps1, delta2, reps2):
        fused[pair.name, omega.key(), delta1, delta2] += 1
        return product(pair, omega, delta1, reps1, delta2, reps2)

    monkeypatch.setattr(elementary, "fusion_plan", planning)
    monkeypatch.setattr(elementary, "_fuse_classes", fusing)
    heckefuse.clear_caches()
    outcomes = checks.run_checks()
    assert outcomes and all(o.passed for o in outcomes)
    assert built and set(built.values()) == {1}
    # every product of basis objects at one pair of deltas in one batched call
    assert fused == built


# ------------------------------------------------------------ batched products

@pytest.mark.parametrize("name", PAIRS)
def test_a_batched_induction_is_the_induction_of_each_item(name):
    """Every step of every plan of the catalog, with the trivial and the
    catalog cocycle, on a stack of three random (|meet|, 2, 2) arrays."""
    pair, omegas = catalog_omegas(name)
    rng = np.random.default_rng(0)
    for omega, (delta1, delta2) in itertools.product(
            omegas, itertools.product(pair.labels(), repeat=2)):
        for step in elementary.fusion_plan(pair, omega, delta1, delta2):
            stack = rng.normal(size=(3, len(step.restricted), 2, 2, 2)) @ [1, 1j]
            batched = step.induction.apply(stack)
            assert batched.shape == (3, len(step.little), *batched.shape[2:])
            for item, induced in zip(stack, batched):
                assert np.array_equal(induced, step.induction.apply(item))


@pytest.mark.parametrize("name", PAIRS)
def test_structure_constants_hold_every_product_of_basis_objects(name):
    """Row (x, y) of E is the product of basis objects x and y, fused one
    pair at a time; so it is with one item per stack and one decomposition
    per canonical-term chunk."""
    pair, omegas = catalog_omegas(name)
    for omega in omegas:
        objs = basis_objects(pair, omega)
        table = structure_constants(pair, omega)
        assert structure_constants(pair, omega) is table
        consts = table.whole()
        assert consts.dtype == np.int64 and not consts.flags.writeable
        for (i, x), (j, y) in itertools.product(enumerate(objs), repeat=2):
            terms, = elementary._fuse_classes(pair, omega, x.delta, [x.rep],
                                              y.delta, [y.rep])
            assert (consts[i, j] == term_vector(pair, omega, terms)).all()
        pairs = list(itertools.product(range(len(objs)), repeat=2))
        assert (table.rows(pairs) == consts.reshape(len(pairs), -1)).all()


@pytest.mark.parametrize("name", ["D4_klein", "Heis3"])
def test_structure_constants_do_not_depend_on_the_stack_size(name, monkeypatch):
    pair, (_, omega) = catalog_omegas(name)
    whole = structure_constants(pair, omega).whole()
    sizes, apply = [], projrep.Induction.apply

    def recording(self, matrices):
        if matrices.ndim == 4:
            sizes.append(len(matrices))
        return apply(self, matrices)

    # every stack holds one class pair, every transfer chunk one decomposition
    monkeypatch.setattr(elementary, "INDUCED_BYTES", projrep.MAX_DENSE_BYTES)
    monkeypatch.setattr(elementary, "STACK_BYTES", projrep.MAX_DENSE_BYTES)
    monkeypatch.setattr(projrep.Induction, "apply", recording)
    other = catalog_omegas(name)[0]
    assert (structure_constants(other, omega).whole() == whole).all()
    assert set(sizes) == {1}


def test_elementary_structure_constants_refuse_an_array_over_the_dense_limit(monkeypatch):
    pair, (_, omega) = catalog_omegas("D4_klein")
    n = len(basis_objects(pair, omega))
    monkeypatch.setattr(projrep, "MAX_DENSE_BYTES", 8 * n ** 3 - 1)
    with pytest.raises(GroupTooLarge,
                       match=f"elementary structure constants of {n} basis elements"):
        structure_constants(pair, omega)
    assert not any(key[0] == "ring" for key in pair._memo)


@pytest.mark.parametrize("name", PAIRS)
def test_structure_constants_keep_a_dropped_pair_collectable(name):
    # E is an int array, and the plans and terms it fills hold subgroups,
    # cocycles and tuples, never the pair
    gc.collect()
    gc.disable()
    try:
        pair, omegas = catalog_omegas(name)
        for omega in omegas:
            structure_constants(pair, omega)
        dropped = weakref.ref(pair)
        del pair
        assert dropped() is None
    finally:
        gc.enable()


def misaligned_batches(monkeypatch):
    """Swap the first two induced items of every stacked batch, so that two
    class pairs each get the other's product."""
    apply = projrep.Induction.apply

    def swapped(self, matrices):
        out = apply(self, matrices)
        if out.ndim == 4 and len(out) > 1:
            out[[0, 1]] = out[[1, 0]]
        return out
    monkeypatch.setattr(projrep.Induction, "apply", swapped)


@pytest.mark.parametrize("name, check", [
    ("S3_in_S4", "elementary-cross-oracle"),
    ("D4_klein", "elementary-associativity"),
    ("Heis3", "elementary-associativity"),
])
def test_a_misaligned_batch_fails_the_elementary_checks(name, check, monkeypatch):
    assert elementary_outcomes(name)[check]
    misaligned_batches(monkeypatch)
    assert not elementary_outcomes(name)[check]


def doubled_identity_products(monkeypatch):
    """Double e y for the first class y other than e at every label, so
    that only products with the identity on the left change."""
    product = elementary._fuse_classes

    def fusing(pair, omega, delta1, reps1, delta2, reps2):
        out = product(pair, omega, delta1, reps1, delta2, reps2)
        if delta1 == pair.group.identity:
            unit = next(p for p, a in enumerate(reps1) if np.allclose(a.character(), 1))
            y = next(q for q in range(len(reps2)) if delta2 != delta1 or q != unit)
            p = unit * len(reps2) + y
            out[p] = {term: 2 * mult for term, mult in out[p].items()}
        return out
    monkeypatch.setattr(elementary, "_fuse_classes", fusing)


@pytest.mark.parametrize("name", ["D4_klein", "Heis3"])
def test_a_wrong_left_identity_product_fails_elementary_irreducibility(name, monkeypatch):
    pair, (_, omega) = catalog_omegas(name)
    assert len(elementary.admissible_classes(pair, omega, pair.group.identity)) > 1
    assert elementary_outcomes(name)["elementary-irreducibility"]
    doubled_identity_products(monkeypatch)
    assert not elementary_outcomes(name)["elementary-irreducibility"]


def test_elementary_checks_on_a_twisted_pair_compute_only_the_products_they_read():
    """With one sampled triple, associativity and the identity law read a
    few blocks of E and never assemble it whole."""
    pair, (_, omega) = catalog_omegas("D4_klein")
    cfg = checks.Config(triple_limit=1)
    checks.check_elementary_associativity(pair, omega, cfg)
    checks.check_elementary_irreducibility(pair, omega, cfg)
    filled = structure_constants(pair, omega)._filled.sum()
    assert 0 < filled < len(pair.labels()) ** 2


def corrupted_plans(monkeypatch, corrupt):
    """Rebuild every plan with corrupt(step) in place of each step."""
    plan = elementary.fusion_plan

    def planning(*args):
        return tuple(corrupt(step) for step in plan(*args))
    monkeypatch.setattr(elementary, "fusion_plan", planning)
    heckefuse.clear_caches()


def elementary_outcomes(name):
    return {o.name: o.passed for o in checks.run_checks([name])
            if o.name.startswith("elementary")}


def flip_phase(step):
    roots = step.phase_roots.copy()
    roots[1:] *= -1
    return step._replace(phase_roots=roots)


def shift_target(step):
    """The target times the coboundary of a phase that is 1/2 off the identity."""
    values = np.ones(len(step.little), np.int64)
    values[0] = 0
    return step._replace(
        target=step.target * PhaseFunction(step.little, 2, values).coboundary())


@pytest.mark.parametrize("name", ["D4_klein", "Heis3"])
@pytest.mark.parametrize("corrupt", [flip_phase, shift_target])
def test_a_corrupted_plan_fails_the_elementary_checks(name, corrupt, monkeypatch):
    assert all(elementary_outcomes(name).values())
    corrupted_plans(monkeypatch, corrupt)
    got = elementary_outcomes(name)
    assert not (got["elementary-associativity"] and got["elementary-cross-oracle"])


def test_a_wrong_conjugation_phase_fails_the_plan_check(monkeypatch):
    pair, (_, omega) = catalog_omegas("D4_klein")
    objs = basis_objects(pair, omega)
    phase = elementary.pair_conjugation_phase

    def shifted(pair, omega, g):
        good = phase(pair, omega, g)
        values = good.values.copy()
        values[1] += 1
        return PhaseFunction(good.group, good.modulus, values)

    monkeypatch.setattr(elementary, "pair_conjugation_phase", shifted)
    with pytest.raises(CocycleBookkeepingError):
        for x, y in itertools.product(objs, repeat=2):
            fuse(x, y)


def looped_induce_matrices(rep, big, ext_cocycle, rng=None) -> np.ndarray:
    """Induced matrices built one coset representative at a time."""
    sub = rep.group
    coset_of = perm_cosets(big, sub)[1]
    coset = np.array([coset_of[g] for g in big.elements])
    reps = right_coset_reps(big, sub, rng)
    rows = np.array([r.images for r in reps])
    at, inv_rows = big.positions(rows), np.argsort(rows, axis=1)
    n, k, d = len(big), len(reps), rep.dim
    w, roots, every = ext_cocycle.arr, _roots(ext_cocycle.modulus), np.arange(n)
    mats = np.zeros((n, k, d, k, d), dtype=complex)
    for i in range(k):
        t = rows[i][big.images]
        j = coset[big.positions(t)]
        h_rows = np.take_along_axis(t, inv_rows[j], axis=1)
        exp = (w[at[i], every] - w[big.positions(h_rows), at[j]]) % ext_cocycle.modulus
        mats[every, i, :, j, :] = (roots[exp][:, None, None]
                                   * rep.matrices[sub.positions(h_rows)])
    return mats.reshape(n, k * d, k * d)


def draws(seed):
    return None if seed is None else random.Random(seed)


@pytest.mark.parametrize("name", PAIRS)
def test_vectorized_induction_equals_the_coset_loop(name):
    """Every irreducible of every subgroup of every little group, induced to
    the little group along the restricted ambient and the required cocycle,
    with least and with drawn coset representatives."""
    pair, omegas = catalog_omegas(name)
    for omega, label in itertools.product(omegas, pair.labels()):
        big = pair.little(label)
        for ext in (omega.restrict(big), required_cocycle(pair, omega, label)):
            for sub, seed in itertools.product(big.subgroups(), (None, 1)):
                for cls in irreducibles(sub, ext.restrict(sub)):
                    got = induce(cls.rep, big, ext, rng=draws(seed))
                    want = looped_induce_matrices(cls.rep, big, ext, rng=draws(seed))
                    assert got.cocycle == ext
                    assert np.array_equal(got.matrices, want)


# sha256 of the sorted canonical terms of elementary.fuse over every ordered
# pair of basis objects with the catalog cocycle, recorded before fusion plans
TWISTED_FUSE_DIGESTS = {
    "D4_klein": "e0fcbf38efae5256ff6c18c6e940cac51342ad5c11cf5fe74407a4b66b91100f",
    "Heis3": "51cc4d130fd9c34bcb0213ce859654b341b65193e0a0091ecac41e07727c4da8",
}


@pytest.mark.parametrize("name", sorted(TWISTED_FUSE_DIGESTS))
def test_twisted_products_match_pinned_digests(name):
    pair, (_, omega) = catalog_omegas(name)
    objs = basis_objects(pair, omega)
    products = [sorted(fuse(x, y).terms.items()) for x in objs for y in objs]
    digest = hashlib.sha256(json.dumps(products).encode()).hexdigest()
    assert digest == TWISTED_FUSE_DIGESTS[name]
