"""Elementary fusion through memoized fusion plans: the plan and the
vectorized induction against the composed constructions they replace."""

import collections
import hashlib
import itertools
import json
import random

import numpy as np
import pytest

import heckefuse
from heckefuse import checks, elementary
from heckefuse.catalog import BUILTIN, build_omega, build_pair
from heckefuse.cocycle import Cocycle, PhaseFunction
from heckefuse.elementary import (
    BimoduleSum,
    CocycleBookkeepingError,
    _add_terms,
    admissible_classes,
    fuse,
    fuse_objects,
    make,
    pair_conjugation_phase,
    required_cocycle,
)
from heckefuse.permcore import conj_map, right_coset_reps
from heckefuse.projrep import (
    _roots,
    induce,
    irreducibles,
    restrict,
    tensor,
    transport,
)

from elementary_oracle import twist

PAIRS = ["S3_in_S4", "Z3_regular", "D4_klein", "Heis3"]


def catalog_omegas(name):
    """The pair, and its trivial cocycle and catalog cocycle (when it has one)."""
    pair = build_pair(BUILTIN[name])
    omegas = [Cocycle.trivial(pair.gamma), build_omega(BUILTIN[name], pair)]
    return pair, [omega for omega in omegas if omega is not None]


def basis_objects(pair, omega):
    return [make(pair, omega, label, cls.rep) for label in pair.labels()
            for cls in admissible_classes(pair, omega, label)]


def composed_fuse_objects(h1, h2) -> BimoduleSum:
    """Elementary fusion as one chain of constructions per orbit:
    induce(twist(tensor(transport(...), restrict(...)), phase), ...)."""
    pair, omega, gamma = h1.pair, h1.omega, h1.pair.gamma
    out: dict = {}
    cosets, coset_of = gamma.right_cosets(h1.right_subgroup)
    for orbit in gamma.coset_orbits(h1.right_subgroup, h2.left_subgroup):
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
            assert fuse_objects(x, y) == composed_fuse_objects(x, y)


def test_a_repeated_product_is_the_memoized_sum():
    pair, (_, omega) = catalog_omegas("D4_klein")
    objs = basis_objects(pair, omega)
    first = fuse_objects(objs[-1], objs[-2])
    again = make(pair, omega, objs[-1].delta, objs[-1].rep)
    assert fuse_objects(again, objs[-2]) is first


def test_one_check_pass_builds_one_plan_per_label_pair(monkeypatch):
    built, products = collections.Counter(), [0]
    plan, product = elementary._fusion_plan, elementary._fuse_objects

    def planning(pair, omega, delta1, delta2):
        built[pair.name, omega.key(), delta1, delta2] += 1
        return plan(pair, omega, delta1, delta2)

    def fusing(*args):
        products[0] += 1
        return product(*args)

    monkeypatch.setattr(elementary, "_fusion_plan", planning)
    monkeypatch.setattr(elementary, "_fuse_objects", fusing)
    heckefuse.clear_caches()
    outcomes = checks.run_checks()
    assert outcomes and all(o.passed for o in outcomes)
    assert built and set(built.values()) == {1}
    # distinct products share plans: 310 products on 15 plans at the time of writing
    assert products[0] > 10 * len(built)


def corrupted_plans(monkeypatch, corrupt):
    """Rebuild every plan with corrupt(step) in place of each step."""
    plan = elementary._fusion_plan

    def planning(*args):
        return tuple(corrupt(step) for step in plan(*args))
    monkeypatch.setattr(elementary, "_fusion_plan", planning)
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
            fuse_objects(x, y)


def looped_induce_matrices(rep, big, ext_cocycle, rng=None) -> np.ndarray:
    """Induced matrices built one coset representative at a time."""
    sub = rep.group
    coset_of = big.right_cosets(sub)[1]
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
