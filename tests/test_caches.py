"""One cache store per owner: a group and a pair each keep one ``Memo``;
fusion is read from the pair's structure constants, conjugation is computed
on each call, and the elements both return outlive ``clear_caches``."""

import pytest

import heckefuse
from heckefuse.catalog import BUILTIN, build_omega, build_pair, fusion_table
from heckefuse.elementary import (
    ElementaryBimodule,
    admissible_classes,
    fuse as elem_fuse,
    structure_constants as elem_structure_constants,
)
from heckefuse.exthecke import basis, conjugate, fuse
from heckefuse.permcore import Memo

PAIRS = ["S3_in_S4", "Z3_regular", "D4_klein", "Heis3"]


def exercise(pair) -> None:
    """Fusion table, conjugation, one twisted elementary product, the
    twisted elementary structure constants and the subgroups of G."""
    fusion_table(pair)
    assert pair.group.subgroups() == pair.group.subgroups()
    for _, x in basis(pair):
        conjugate(x)
    omega = build_omega(BUILTIN[pair.name], pair)
    if omega is not None:
        label = pair.labels()[-1]
        h = ElementaryBimodule(pair, omega, label, admissible_classes(pair, omega, label)[0].rep)
        total_dim(elem_fuse(h, h))
        elem_structure_constants(pair, omega).whole()


def total_dim(total) -> int:
    """Dimension of a BimoduleSum, read from its basis objects' classes."""
    return sum(cls.dim * mult for _, _, cls, mult in total.terms())


def stores(owner) -> list:
    return [v for v in vars(owner).values() if isinstance(v, Memo)]


def kinds(memo: Memo) -> set:
    """The kinds of value in a store: a key, or a key tuple's first entry."""
    return {key if isinstance(key, str) else key[0] for key in memo}


@pytest.mark.parametrize("name", PAIRS)
def test_pair_and_group_each_keep_one_store(name):
    pair = build_pair(BUILTIN[name])
    before = [(owner, set(vars(owner))) for owner in (pair, pair.group, pair.gamma)]
    exercise(pair)
    for owner, attrs in before:
        assert len(stores(owner)) == 1
        assert set(vars(owner)) == attrs  # nothing cached on the side
    pair_kinds = kinds(pair._memo)
    assert {"little", "orbits", "characters", "right_factors", "ring"} <= pair_kinds
    assert pair_kinds <= {"little", "decomposition", "meet", "orbits", "characters",
                          "right_factors", "conjugation", "class_index", "ring",
                          "basis_spans", "class_dims", "required", "phase", "identified",
                          "basis"}
    if build_omega(BUILTIN[name], pair) is not None:
        assert {"required", "phase", "identified", "basis"} <= pair_kinds
        # one table each: N and the E of the catalog cocycle
        assert len([key for key in pair._memo if key[0] == "ring"]) == 2
    assert kinds(pair.group._memo) == {"right_cosets", "coset_orbits", "mul_table"}


@pytest.mark.parametrize("name", PAIRS)
def test_cached_fusion_is_the_fresh_product(name):
    pair = build_pair(BUILTIN[name])
    elements = [x for _, x in basis(pair)]
    cached = {(i, j): fuse(x, y) for i, x in enumerate(elements)
              for j, y in enumerate(elements)}
    for (i, j), z in cached.items():
        assert fuse(elements[i], elements[j]) == z
    fresh = build_pair(BUILTIN[name])
    fresh_elements = [x for _, x in basis(fresh)]
    for (i, j), z in cached.items():
        assert fuse(fresh_elements[i], fresh_elements[j]) == z
        assert conjugate(z) == conjugate(z)


def test_cached_element_survives_clear_caches():
    pair = build_pair(BUILTIN["S3_in_S4"])
    elements = [x for _, x in basis(pair)]
    z = fuse(elements[-1], elements[-1])
    text, terms = str(z), z.terms()
    heckefuse.clear_caches()
    assert (str(z), z.terms()) == (text, terms)
    assert fuse(elements[-1], elements[-1]) == z
    fresh = build_pair(BUILTIN["S3_in_S4"])
    last = basis(fresh)[-1][1]
    assert fuse(last, last) == z
