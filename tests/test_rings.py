"""The structure-constant tables H, N and E as based rings: their axioms
read from each table alone, one storage per table after a check pass,
products, conjugates and check passes that keep a dropped pair
collectable, and the one-call-per-row shape of the check runner that the
benchmark's op timing relies on."""

import gc
import inspect
import itertools
import weakref

import numpy as np
import pytest

import heckefuse
from heckefuse import checks, elementary, exthecke, hecke
from heckefuse.catalog import BUILTIN, build_omega, build_pair
from heckefuse.cocycle import Cocycle
from heckefuse.permcore import GroupAction, commensurations
from heckefuse.ring import Table

from based_ring import based_ring_failures

PAIRS = ["S3_in_S4", "Z3_regular", "D4_klein", "Heis3"]
TWISTED = ["D4_klein", "Heis3"]


def pair_omegas(pair):
    """The pair's trivial cocycle, and its catalog cocycle when it has one."""
    omegas = [Cocycle.trivial(pair.gamma), build_omega(BUILTIN[pair.name], pair)]
    return [omega for omega in omegas if omega is not None]


def catalog_omegas(name):
    """The pair, and its trivial cocycle and catalog cocycle (when it has one)."""
    pair = build_pair(BUILTIN[name])
    return pair, pair_omegas(pair)


def elementary_unit(pair, omega):
    """The basis index of the identity object."""
    e = elementary.identity_object(pair, omega)
    return int(elementary.BimoduleSum.of(e).vector.argmax())


@pytest.mark.parametrize("name", PAIRS)
def test_extended_structure_constants_form_a_based_ring(name):
    pair = build_pair(BUILTIN[name])
    unit = int(exthecke.unit(pair).vector.argmax())
    consts = exthecke.structure_constants(pair)
    assert based_ring_failures(consts.whole(), unit) == []


@pytest.mark.parametrize("name", PAIRS)
def test_elementary_structure_constants_form_a_based_ring(name):
    pair, omegas = catalog_omegas(name)
    assert len(omegas) == (2 if name in TWISTED else 1)
    for omega in omegas:
        consts = elementary.structure_constants(pair, omega)
        assert based_ring_failures(consts.whole(), elementary_unit(pair, omega)) == []


@pytest.mark.parametrize("name", TWISTED)
def test_one_entry_off_the_symmetric_orbits_breaks_the_based_ring(name):
    pair, (_, omega) = catalog_omegas(name)
    consts = elementary.structure_constants(pair, omega)
    t = consts.whole().copy()
    n, unit = len(t), elementary_unit(pair, omega)
    star = t[:, :, unit].argmax(axis=1)
    # an entry off the unit rows whose S3 images are other entries
    x, y, z = next((x, y, z) for x, y, z in itertools.product(range(n), repeat=3)
                   if unit not in (x, y, z)
                   and len({(x, y, z), (star[x], z, y), (z, star[y], x)}) > 1)
    t[x, y, z] += 1
    assert based_ring_failures(t, unit) == ["S3 symmetry"]


def tables(owner_memo) -> list:
    return [value for value in owner_memo.values() if isinstance(value, Table)]


def test_a_check_pass_stores_each_table_once(monkeypatch):
    """After a catalog ``run_checks``, each pair holds N and the E of each
    cocycle it was checked under, and its backend H, each as one array of
    8 n^3 bytes: no block or assembled copy is held beside it."""
    built = []

    def recording(entry, *args):
        built.append(build_pair(entry, *args))
        return built[-1]

    monkeypatch.setattr(checks, "build_pair", recording)
    heckefuse.clear_caches()
    assert all(o.passed for o in checks.run_checks())
    assert len(built) == 4
    for pair in built:
        held = tables(pair._memo)
        assert len(held) == (3 if pair.name in TWISTED else 2)
        (hecke_table,) = tables(pair.hecke()._products)
        for table in held + [hecke_table]:
            assert table._array.nbytes == 8 * len(table) ** 3
        # everything else the pair keeps is not a structure constant, and
        # is read again by later calls
        assert not any(isinstance(value, np.ndarray) and value.ndim == 3
                       for value in pair._memo.values())
        assert {key[0] for key in pair._memo} <= {
            "little", "decomposition", "meet", "orbits", "characters", "right_factors",
            "conjugation", "class_index", "ring", "basis_spans", "class_dims", "required",
            "phase", "identified", "basis"}
        for group in (pair.group, pair.gamma):
            assert {key if isinstance(key, str) else key[0] for key in group._memo} <= {
                "mul_table", "inv_indices", "small_generating_set", "right_cosets",
                "coset_orbits"}


def freed_after(build, use) -> bool:
    """Whether the object build() returns is freed by reference counting
    alone once use(obj) has run and the object is dropped."""
    gc.collect()
    gc.disable()
    try:
        owner = build()
        use(owner)
        dropped = weakref.ref(owner)
        del owner
        return dropped() is None
    finally:
        gc.enable()


def last_element(pair):
    return exthecke.basis(pair)[-1][1]


def elementary_sums(pair) -> list:
    """Per cocycle of pair_omegas, the square of a sum of two products of
    basis objects."""
    out = []
    for omega in pair_omegas(pair):
        objs = elementary.basis_objects(pair, omega)
        total = elementary.fuse(objs[-1], objs[-1]) + elementary.fuse(objs[0], objs[-1])
        out.append(elementary.fuse(total, total))
    return out


READS = {
    "fusion": lambda pair: (exthecke.fuse(last_element(pair), last_element(pair)),
                            elementary_sums(pair)),
    "conjugate": lambda pair: exthecke.conjugate(last_element(pair)),
    "to_ext_hecke": lambda pair: elementary.to_ext_hecke(elementary.basis_objects(
        pair, Cocycle.trivial(pair.gamma))[-1]),
    "items": lambda pair: [list(total.items()) for total in elementary_sums(pair)],
    "repr": lambda pair: [repr(total) for total in elementary_sums(pair)],
}


@pytest.mark.parametrize("name", PAIRS)
def test_products_keep_a_dropped_pair_collectable(name):
    # fusion reads table rows, and conjugates, identifications with the
    # extended algebra and the representatives of a sum are computed on each
    # call: nothing memoized holds the pair.  Nor does gamma's memo hold the
    # subgroups that a commensuration search walks, each holding gamma
    for case, use in READS.items():
        assert freed_after(lambda: build_pair(BUILTIN[name]), use), case
    if BUILTIN[name].degree <= 4:  # the pairs whose commensurations check searches
        assert freed_after(lambda: build_pair(BUILTIN[name]).gamma, lambda gamma: (
            commensurations(GroupAction.natural(gamma), GroupAction.natural(gamma))))


def test_a_check_pass_keeps_every_pair_collectable(monkeypatch):
    built = []

    def recording(entry, *args):
        pair = build_pair(entry, *args)
        built.append(weakref.ref(pair))
        return pair

    monkeypatch.setattr(checks, "build_pair", recording)
    heckefuse.clear_caches()
    gc.collect()
    gc.disable()
    try:
        outcomes = checks.run_checks()
        alive = [pair() for pair in built]
    finally:
        gc.enable()
    assert outcomes and all(o.passed for o in outcomes)
    assert len(alive) == 4 and alive == [None] * 4


def test_each_outcome_comes_from_one_top_level_check_call(monkeypatch):
    """The benchmark's ``check`` workload wraps every ``check_*`` callable
    of the module and pairs its top-level calls with the outcomes in order,
    so every outcome must come from exactly one top-level call, of the
    function its ``CHECKS`` row names, and the shared law helpers must not
    be named ``check_*``."""
    calls, depth = [], [0]

    def timed(fn, name):
        def call(*args, **kwargs):
            if depth[0]:
                return fn(*args, **kwargs)
            depth[0] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                depth[0] -= 1
                calls.append(name)
        return call

    for name, fn in list(vars(checks).items()):
        if name.startswith("check_") and callable(fn):
            monkeypatch.setattr(checks, name, timed(fn, name))
    outcomes = checks.run_checks()
    assert outcomes and all(o.passed for o in outcomes)
    assert len(calls) == len(outcomes)
    row_function = {name: check.__name__ for name, _, check in checks.CHECKS}
    assert [row_function[o.name] for o in outcomes] == calls


def test_every_check_function_has_one_row():
    """Each ``check_*`` function of the module is named by exactly one row,
    and each row names one of them."""
    defined = sorted(name for name, fn in vars(checks).items()
                     if name.startswith("check_") and inspect.isfunction(fn)
                     and fn.__module__ == checks.__name__)
    assert sorted(check.__name__ for _, _, check in checks.CHECKS) == defined
    names = [name for name, _, _ in checks.CHECKS]
    assert len(set(names)) == len(names)


def test_the_hecke_table_is_read_from_the_basis_products():
    pair = build_pair(BUILTIN["S3_in_S4"])
    bk = pair.hecke()
    consts = hecke.structure_constants(bk)
    assert hecke.structure_constants(bk) is consts
    labels = bk.labels()
    whole = consts.whole()
    for (i, a), (j, b) in itertools.product(enumerate(labels), repeat=2):
        got = {labels[k]: int(c) for k, c in enumerate(whole[i, j]) if c}
        assert got == hecke.basis_product(bk, a, b)
