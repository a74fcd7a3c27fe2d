"""Fusion by label-pair blocks against the orbit-by-orbit fusion it replaces,
the batched decomposition against one-row decompositions, and the checks
that must notice a wrong block."""

import collections
import itertools
import random

import numpy as np
import pytest

from heckefuse import checks
from heckefuse.catalog import BUILTIN, build_omega, build_pair, fusion_table
from heckefuse.checks import (
    Config,
    check_elementary_cross_oracle,
    check_ext_associativity,
)
from heckefuse.cocycle import Cocycle
from heckefuse.exthecke import (
    ExtHeckeElement,
    FinitePair,
    _orbit_contribution,
    basis,
    fuse,
    fusion_block,
)
from heckefuse.permcore import FiniteGroup, Perm
from heckefuse.projrep import (
    NumericalDegradation,
    add_multiset,
    decompose_character,
    decompose_characters,
    irreducibles,
)

from groups import symmetric

CATALOG = ["S3_in_S4", "D4_klein", "Heis3", "Z3_regular"]


def s4_in_s5():
    g = FiniteGroup.generate(5, [Perm.parse(5, "(0 1)"), Perm.parse(5, "(0 1 2 3 4)")])
    s4 = FiniteGroup.generate(5, [Perm.parse(5, "(0 1)"), Perm.parse(5, "(0 1 2 3)")])
    return FinitePair(g, g.subgroup(s4.elements), name="S4_in_S5")


def make_pair(name):
    return s4_in_s5() if name == "S4_in_S5" else build_pair(BUILTIN[name])


def orbit_fuse(pair, x, y):
    """The fusion product orbit by orbit: one induction and decomposition
    per orbit whose labels meet the supports of x and y."""
    out = {}
    for g0 in pair.labels():
        total = {}
        for orbit, label_w, label_h in pair.orbit_labels(g0):
            if label_w not in x.support or label_h not in y.support:
                continue
            h = pair.random_coset_element(pair.pick(orbit))
            total = add_multiset(total, _orbit_contribution(pair, x, y, g0, h))
        if total:
            out[g0] = total
    return ExtHeckeElement(pair, out)


def random_sum(pair, rng):
    """A sum of three basis terms, each with multiplicity 1 to 3, over two
    labels or more where the pair has two."""
    labels = rng.sample(pair.labels(), min(2, len(pair.labels())))
    labels += [rng.choice(pair.labels()) for _ in range(3 - len(labels))]
    support = {}
    for label in labels:
        cls = rng.choice(irreducibles(pair.little(label)))
        parts = support.setdefault(label, {})
        parts[cls] = parts.get(cls, 0) + rng.randint(1, 3)
    return ExtHeckeElement(pair, support)


@pytest.mark.parametrize("name", CATALOG + ["S4_in_S5"])
def test_block_fusion_matches_orbit_fusion_on_basis_pairs(name):
    pair = make_pair(name)
    els = [b for _, b in basis(pair)]
    for x, y in itertools.product(els, repeat=2):
        assert fuse(x, y) == orbit_fuse(pair, x, y)


@pytest.mark.parametrize("choice", [0, 1])
@pytest.mark.parametrize("name", CATALOG)
def test_block_fusion_matches_orbit_fusion_under_rechoice(name, choice):
    pair = make_pair(name).with_choices(random.Random(choice))
    els = [b for _, b in basis(pair)]
    for x, y in itertools.product(els, repeat=2):
        assert fuse(x, y) == orbit_fuse(pair, x, y)


@pytest.mark.parametrize("name", CATALOG + ["S4_in_S5"])
def test_block_fusion_is_bilinear_on_sums(name):
    pair = make_pair(name)
    rng = random.Random(12)
    for _ in range(8):
        x, y = random_sum(pair, rng), random_sum(pair, rng)
        spans = min(2, len(pair.labels()))
        assert len(x.support) >= spans and len(y.support) >= spans
        assert fuse(x, y) == orbit_fuse(pair, x, y)


@pytest.mark.parametrize("name", CATALOG)
def test_blocks_cover_each_orbit_once(name):
    pair = make_pair(name)
    grouped = pair.orbits_by_labels()
    assert collections.Counter(g0 for group in grouped.values() for g0, _ in group) == {
        g0: len(pair.orbit_labels(g0)) for g0 in pair.labels()}
    for (label_a, label_b), orbits in grouped.items():
        block = fusion_block(pair, label_a, label_b)
        assert fusion_block(pair, label_a, label_b) is block
        assert set(block) == {g0 for g0, _ in orbits}
        n_a, n_b = (len(irreducibles(pair.little(l))) for l in (label_a, label_b))
        for g0, mults in block.items():
            assert mults.shape == (n_a, n_b, len(irreducibles(pair.little(g0))))
            assert mults.dtype == np.int64 and not mults.flags.writeable


@pytest.mark.parametrize("name", CATALOG)
def test_fusion_table_builds_no_element_per_product(name, monkeypatch):
    pair = make_pair(name)
    built = []
    init = ExtHeckeElement.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(ExtHeckeElement, "__init__", counting)
    table = fusion_table(pair)
    assert len(built) == len(table["basis"])
    assert not any(key[0] == "fuse" for key in pair._memo)


def corrupt_one_block(pair):
    """Add 1 to one entry of the block of the last label with itself."""
    label = pair.labels()[-1]
    block = fusion_block(pair, label, label)
    wrong = {g0: mults.copy() for g0, mults in block.items()}
    wrong[next(iter(wrong))][0, 0, 0] += 1
    pair._memo[("block", label, label)] = wrong


@pytest.mark.parametrize("name", ["S3_in_S4", "D4_klein"])
def test_checks_catch_a_wrong_block_entry(name):
    cfg = Config()
    for check in (check_elementary_cross_oracle,
                  lambda p, c: check_ext_associativity(p, c, exhaustive=True)):
        pair = make_pair(name)
        check(pair, cfg)
        pair = make_pair(name)
        corrupt_one_block(pair)
        with pytest.raises(checks.CheckFailure):
            check(pair, cfg)


# ------------------------------------------------------------ batched decomposition

def test_decompose_characters_matches_one_row_decompositions():
    pair = make_pair("S4_in_S5")
    little = pair.little(pair.labels()[0])
    classes = irreducibles(little)
    chars = np.array([c.rep.character() for c in classes])
    rng = np.random.default_rng(0)
    mults = rng.integers(0, 4, size=(6, len(classes)))
    dims = mults @ [c.dim for c in classes]
    got = decompose_characters(little, Cocycle.trivial(little), mults @ chars, dims)
    assert got.dtype == np.int64 and (got == mults).all()
    for row, dim, want in zip(mults @ chars, dims, mults):
        assert decompose_character(little, Cocycle.trivial(little), row, dim) == {
            cls: m for cls, m in zip(classes, want.tolist()) if m}


def test_decompose_characters_reports_the_first_bad_row():
    group = symmetric(3)
    classes = irreducibles(group)
    chars = np.array([c.rep.character() for c in classes])
    trivial = Cocycle.trivial(group)
    good, dims = chars.copy(), np.array([c.dim for c in classes])
    half = good.copy()
    half[1] /= 2
    with pytest.raises(NumericalDegradation, match="non-integral multiplicities"):
        decompose_characters(group, trivial, half, dims)
    with pytest.raises(NumericalDegradation, match="non-integral multiplicities"):
        decompose_characters(group, trivial, -good, dims)
    with pytest.raises(NumericalDegradation, match="dimensions do not add up"):
        decompose_characters(group, trivial, good, dims + [0, 0, 1])
    # moving weight between two conjugate elements keeps every inner product
    # with a class function, so only the reconstruction can see it
    conj = group.conj_table()
    g, x = 1, int(np.argmax(conj[:, 1] != 1))
    drift = good.copy()
    drift[2, g] += 1e-3
    drift[2, conj[x, g]] -= 1e-3
    with pytest.raises(NumericalDegradation, match="reconstruction drifted"):
        decompose_characters(group, trivial, drift, dims)
    # a row's first failing check is the one reported
    with pytest.raises(NumericalDegradation, match="reconstruction drifted"):
        decompose_characters(group, trivial, np.array([drift[2], half[1]]),
                             dims[[2, 1]])


def test_index_one_induction_check_runs(monkeypatch):
    pair = build_pair(BUILTIN["Z3_regular"])
    assert len(pair.gamma) == len(pair.group)
    induced = []
    induce = checks.induce

    def counting(rep, *args, **kwargs):
        induced.append(rep)
        return induce(rep, *args, **kwargs)

    monkeypatch.setattr(checks, "induce", counting)
    checks.check_induction_frobenius(pair, Config())
    assert len(induced) == len(irreducibles(pair.little(pair.labels()[0])))


@pytest.mark.parametrize("name", ["S3_in_S4", "Heis3"])
def test_rep_completeness_catches_a_truncated_table(name, monkeypatch):
    pair, cfg = build_pair(BUILTIN[name]), Config()
    omega = build_omega(BUILTIN[name], pair)
    checks.check_rep_completeness(pair, omega, cfg)
    monkeypatch.setattr(checks, "irreducibles",
                        lambda group, *args: irreducibles(group, *args)[:-1])
    with pytest.raises(checks.CheckFailure, match="regular representation"):
        checks.check_rep_completeness(pair, omega, cfg)
