"""Fusion by label-pair blocks of the structure constants N, and the
three-factor and overcount blocks, against the orbit-by-orbit formulas they
replace, one sweep over many label tuples against one at a time, N against
fusion of sums, class-sum induction against the conjugation-table formula, the batched
decomposition against one-row decompositions, and the checks that must
notice a wrong block, a wrong Hecke basis product, a wrong induced class or
identification row, and name their witness."""

import collections
import gc
import itertools
import random
import re
import tracemalloc
import weakref

import numpy as np
import pytest

import heckefuse
from heckefuse import checks, exthecke, projrep
from heckefuse.catalog import BUILTIN, build_omega, build_pair, fusion_table
from heckefuse.checks import (
    Config,
    check_elementary_cross_oracle,
    check_ext_associativity,
    check_ext_overcount,
)
from heckefuse.cocycle import Cocycle
from heckefuse.exthecke import (
    ExtHeckeElement,
    FinitePair,
    FusionFormulaError,
    basis,
    basis_spans,
    fuse,
    overcount_blocks,
    overcount_identity,
    structure_constants,
    triple_blocks,
)
from heckefuse.hecke import basis_product, structure_constants as hecke_constants
from heckefuse.permcore import FiniteGroup, GroupTooLarge, Perm, Subgroup
from heckefuse.projrep import (
    NumericalDegradation,
    character_table,
    conjugacy_classes,
    decompose_character,
    decompose_characters,
    irreducibles,
)

from groups import symmetric
from multisets import add_multiset, element, support
from orbit_oracle import (
    induce_on_classes,
    orbit_contribution,
    orbit_labels,
    orbit_triple_fuse,
    orbits_by_labels,
    random_coset_element,
    triple_fuse,
)

CATALOG = ["S3_in_S4", "D4_klein", "Heis3", "Z3_regular"]


def s4_in_s5():
    g = FiniteGroup.generate(5, [Perm.parse(5, "(0 1)"), Perm.parse(5, "(0 1 2 3 4)")])
    s4 = FiniteGroup.generate(5, [Perm.parse(5, "(0 1)"), Perm.parse(5, "(0 1 2 3)")])
    return FinitePair(g, Subgroup(g, s4.elements), name="S4_in_S5")


def make_pair(name):
    return s4_in_s5() if name == "S4_in_S5" else build_pair(BUILTIN[name])


def every_triple(pair):
    """A Config under which ``check_ext_associativity`` reads every basis
    triple, in order."""
    return Config(triple_limit=len(basis(pair)) ** 3)


def orbit_fuse(pair, x, y):
    """The fusion product orbit by orbit: one induction and decomposition
    per orbit whose labels meet the supports of x and y."""
    out, sx, sy = {}, support(x), support(y)
    for g0 in pair.labels():
        total = {}
        for orbit, label_w, label_h in orbit_labels(pair, g0):
            if label_w not in sx or label_h not in sy:
                continue
            h = random_coset_element(pair, pair.pick(orbit))
            total = add_multiset(total, orbit_contribution(pair, x, y, g0, h))
        if total:
            out[g0] = total
    return element(pair, out)


def label_block(consts, label_a, label_b):
    """T[x, y, :] for every x at label_a and y at label_b, read as rows, so
    that only this block of the table is filled."""
    rows_a, rows_b = (range(consts.spans[l].start, consts.spans[l].stop)
                      for l in (label_a, label_b))
    pairs = list(itertools.product(rows_a, rows_b))
    return consts.rows(pairs).reshape(len(rows_a), len(rows_b), len(consts))


def output_blocks(pair, label_a, label_b):
    """The block of N at (label_a, label_b) per output label g0 it reaches:
    an orbit's contribution is never zero, so those are the labels whose
    spans hold a nonzero entry."""
    block = label_block(structure_constants(pair), label_a, label_b)
    return {g0: block[:, :, span] for g0, span in basis_spans(pair).items()
            if block[:, :, span].any()}


def random_sum(pair, rng):
    """A sum of three basis terms, each with multiplicity 1 to 3, over two
    labels or more where the pair has two."""
    labels = rng.sample(pair.labels(), min(2, len(pair.labels())))
    labels += [rng.choice(pair.labels()) for _ in range(3 - len(labels))]
    terms = {}
    for label in labels:
        cls = rng.choice(irreducibles(pair.little(label)))
        parts = terms.setdefault(label, {})
        parts[cls] = parts.get(cls, 0) + rng.randint(1, 3)
    return element(pair, terms)


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
        assert len(support(x)) >= spans and len(support(y)) >= spans
        assert fuse(x, y) == orbit_fuse(pair, x, y)


@pytest.mark.parametrize("name", CATALOG)
def test_blocks_cover_each_orbit_once(name):
    pair = make_pair(name)
    grouped = orbits_by_labels(pair)
    assert collections.Counter(g0 for group in grouped.values() for g0, _ in group) == {
        g0: len(orbit_labels(pair, g0)) for g0 in pair.labels()}
    consts = structure_constants(pair)
    for label_a, label_b in all_label_pairs(pair):
        block = label_block(consts, label_a, label_b)
        n_a, n_b = (len(irreducibles(pair.little(l))) for l in (label_a, label_b))
        assert block.shape == (n_a, n_b, len(consts)) and block.dtype == np.int64
        assert set(output_blocks(pair, label_a, label_b)) == {
            g0 for g0, _ in grouped.get((label_a, label_b), ())}
    assert not consts.whole().flags.writeable


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
    assert table["basis"] and built == []
    assert not any(key[0] == "fuse" for key in pair._memo)


@pytest.mark.parametrize("name", CATALOG)
def test_a_pair_dropped_after_a_cold_table_is_freed_by_reference_counting(name):
    # an element memoized on the table path would hold its pair in a cycle
    gc.collect()
    gc.disable()
    try:
        pair = make_pair(name)
        fusion_table(pair)
        dropped = weakref.ref(pair)
        del pair
        assert dropped() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("name", CATALOG)
def test_structure_constants_and_hecke_products_keep_a_dropped_pair_collectable(name):
    # they hold arrays and label -> int maps, never an element of the pair
    gc.collect()
    gc.disable()
    try:
        pair = make_pair(name)
        structure_constants(pair).whole()
        bk = pair.hecke()
        for label_a, label_b in all_label_pairs(pair):
            basis_product(bk, label_a, label_b)
        hecke_constants(bk).whole()
        dropped = weakref.ref(pair)
        del pair, bk
        assert dropped() is None
    finally:
        gc.enable()


def with_choice(pair, choice):
    return pair if choice is None else pair.with_choices(random.Random(choice))


def all_label_pairs(pair):
    return list(itertools.product(pair.labels(), repeat=2))


def fused_a_pair_at_a_time(name, choice):
    """N of a fresh pair, filled one block of a label pair per fill."""
    pair = with_choice(make_pair(name), choice)
    consts = structure_constants(pair)
    for a, b in all_label_pairs(pair):
        label_block(consts, a, b)
    return consts.whole()


def same_blocks(a, b):
    return list(a) == list(b) and all(
        a[g0].dtype == b[g0].dtype and (a[g0] == b[g0]).all() for g0 in a)


@pytest.mark.parametrize("choice", [None, 0, 1])
@pytest.mark.parametrize("name", CATALOG + ["S4_in_S5"])
def test_one_sweep_matches_one_label_pair_at_a_time(name, choice):
    pair = with_choice(make_pair(name), choice)
    swept = structure_constants(pair).whole()
    assert (swept == fused_a_pair_at_a_time(name, choice)).all()


@pytest.mark.parametrize("choice", [None, 0])
@pytest.mark.parametrize("name", CATALOG + ["S4_in_S5"])
def test_fuse_of_sums_contracts_the_structure_constants(name, choice):
    # check reads N and never fuses sums; this keeps fuse's sum path tied to
    # N, each read on its own pair (and its own representatives under rng)
    own = with_choice(make_pair(name), choice)
    n = structure_constants(own).whole()
    assert n.dtype == np.int64 and not n.flags.writeable
    pair = with_choice(make_pair(name), choice)
    keys = [key for key, _ in basis(pair)]

    def vector(x):
        out = np.zeros(len(keys), dtype=np.int64)
        for key, mult in x.terms():
            out[keys.index(key)] = mult
        return out

    rng = random.Random(7)
    for _ in range(6):
        x, y = random_sum(pair, rng), random_sum(pair, rng)
        assert (x.vector == vector(x)).all()
        want = np.einsum("i,j,ijk->k", vector(x), vector(y), n)
        assert (vector(fuse(x, y)) == want).all()
    assert structure_constants(pair) is structure_constants(pair)


def test_structure_constants_refuse_an_array_over_the_dense_limit(monkeypatch):
    # trivial gamma in S6 would need 720^3 entries of 8 bytes, 2,848 MiB
    pair = make_pair("S4_in_S5")
    n = len(basis(pair))
    monkeypatch.setattr(projrep, "MAX_DENSE_BYTES", 8 * n ** 3 - 1)
    with pytest.raises(GroupTooLarge,
                       match=f"structure constants of {n} basis elements needs 0 MiB"):
        structure_constants(pair)
    assert not any(key[0] in ("ring", "orbits", "characters", "right_factors")
                   for key in pair._memo)
    monkeypatch.setattr(projrep, "MAX_DENSE_BYTES", 8 * n ** 3)
    assert structure_constants(pair).whole().nbytes == 8 * n ** 3


def test_chunked_sweep_matches_the_unchunked_one(monkeypatch):
    unchunked = make_pair("S4_in_S5")
    whole = structure_constants(unchunked).whole()
    pair = make_pair("S4_in_S5")
    consts = structure_constants(pair)  # built under the default limit
    limit = 16 * 24 * 25  # one (tag, g0) of 25 class pairs over gamma = S4
    monkeypatch.setattr(projrep, "MAX_DENSE_BYTES", limit)
    calls = count_decompositions(monkeypatch)
    chunked = consts.whole()
    assert len(calls) > len(pair.labels())
    assert all(chars.nbytes <= limit for _, chars in calls)
    assert (whole == chunked).all()


def gather_induce(little_g, meet, chars):
    """Ind from meet to little_g by chi(g) = |meet|^-1 sum over x in little_g
    of chi(x g x^-1), chi zero off meet, read through the conjugation table."""
    spread = np.zeros((len(chars), len(little_g)), dtype=complex)
    spread[:, little_g.positions(meet.images)] = chars
    return spread[:, little_g.conj_table()].sum(axis=1) / len(meet)


@pytest.mark.parametrize("choice", [None, 0])
@pytest.mark.parametrize("name", CATALOG + ["S4_in_S5"])
def test_class_sum_induction_matches_the_conjugation_gather(name, choice):
    pair = with_choice(make_pair(name), choice)
    rng = np.random.default_rng(len(pair.group))
    for g0 in pair.labels():
        little_g = pair.little(g0)
        for orbit, _, _ in orbit_labels(pair, g0):
            h = random_coset_element(pair, pair.pick(orbit))
            meet = pair.intersection(little_g, pair.little_of_element(h))
            irr, _ = character_table(meet, Cocycle.trivial(meet))
            chars = np.vstack([rng.integers(0, 3, size=(3, len(irr))) @ irr,
                               rng.normal(size=(1, len(meet)))
                               + 1j * rng.normal(size=(1, len(meet)))])
            induced = induce_on_classes(little_g, meet, chars)[:, conjugacy_classes(little_g)[1]]
            assert np.abs(induced - gather_induce(little_g, meet, chars)).max() < 1e-9


def count_decompositions(monkeypatch):
    """(tables, characters) per ``decompose_stack`` call of exthecke."""
    calls = []
    decompose = exthecke.decompose_stack

    def counting(chars, dims, irr, irr_dims, order):
        calls.append((irr, chars))
        return decompose(chars, dims, irr, irr_dims, order)

    monkeypatch.setattr(exthecke, "decompose_stack", counting)
    return calls


@pytest.mark.parametrize("name", CATALOG + ["S4_in_S5"])
def test_cold_fusion_table_decomposes_once_per_output_label(name, monkeypatch):
    # one call for the whole table, which decomposes into every output label
    pair = make_pair(name)
    calls = count_decompositions(monkeypatch)
    fusion_table(pair)
    assert len(calls) == 1


def test_fusion_table_of_s6_in_itself_stays_small():
    # inducing through the conjugation table, rows x |S6|^2 entries, takes 980 MiB
    g = symmetric(6)
    pair = FinitePair(g, Subgroup(g, g.elements), name="S6")
    heckefuse.clear_caches()
    tracemalloc.start()
    try:
        table = fusion_table(pair)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(table["products"]) == 11 ** 2
    assert peak < 64 * 2 ** 20


def corrupt_one_block(pair):
    """Add 1 to the first entry, over the first output label, of the block
    of the last label with itself, in the stored N."""
    label = pair.labels()[-1]
    g0 = next(iter(output_blocks(pair, label, label)))
    consts = structure_constants(pair)
    consts._array[consts.spans[label].start, consts.spans[label].start,
                  consts.spans[g0].start] += 1


@pytest.mark.parametrize("name", ["S3_in_S4", "D4_klein"])
def test_checks_catch_a_wrong_block_entry(name):
    # ext-overcount reads its own per-coset blocks; see the overcount tests
    cfg = Config()
    for check in (check_elementary_cross_oracle,
                  lambda p, c: check_ext_associativity(p, every_triple(p)),
                  checks.check_ext_frobenius, checks.check_ext_dims_multiplicative,
                  checks.check_ext_homomorphisms):
        pair = make_pair(name)
        check(pair, cfg)
        pair = make_pair(name)
        corrupt_one_block(pair)
        with pytest.raises(checks.CheckFailure):
            check(pair, cfg)


@pytest.mark.parametrize("name", ["Heis3", "S3_in_S4"])
def test_ext_homomorphisms_catch_two_swapped_classes_of_one_dimension(name):
    """Two classes of one dimension swapped in one product of non-unit
    basis elements at the unit label of the stored N: the unit and to_hecke,
    which forgets classes to their dimensions, still agree with the table
    (their halves run first and would fail with their own messages), and
    from_rep names the class pair."""
    checks.check_ext_homomorphisms(make_pair(name), Config())
    pair = make_pair(name)
    consts = structure_constants(pair)
    whole, span = consts.whole(), consts.spans[pair.labels()[0]]
    unit = int(exthecke.unit(pair).vector.argmax())
    dims = [cls.dim for cls in irreducibles(pair.little(pair.labels()[0]))]
    at = [i for i in range(span.start, span.stop) if i != unit]
    x, y, z, w = next(
        (x, y, z, w) for x, y in itertools.product(at, repeat=2)
        for z, w in itertools.combinations(range(span.start, span.stop), 2)
        if dims[z - span.start] == dims[w - span.start] and whole[x, y, z] != whole[x, y, w])
    consts._array[x, y, [z, w]] = consts._array[x, y, [w, z]]
    with pytest.raises(checks.CheckFailure, match=re.escape(
            f"from_rep is not multiplicative at class pair ({x - span.start}, "
            f"{y - span.start})")):
        checks.check_ext_homomorphisms(pair, Config())


@pytest.mark.parametrize("name", ["S3_in_S4", "Heis3"])
def test_induction_frobenius_catches_a_wrong_induced_class(name, monkeypatch):
    pair = make_pair(name)
    checks.check_induction_frobenius(pair, Config())
    classes = irreducibles(pair.little(pair.labels()[0]))
    assert classes[0].dim == classes[1].dim
    first, second = classes[0].rep.matrices, classes[1].rep.matrices

    class Wrong(projrep.Induction):
        def apply(self, matrices):
            # induce class 0 in place of class 1
            at = np.array([np.array_equal(m, second) for m in matrices])
            return super().apply(np.where(at[:, None, None, None], first, matrices))

    monkeypatch.setattr(checks, "Induction", Wrong)
    with pytest.raises(checks.CheckFailure,
                       match=r"reciprocity fails at gamma class 1, G class \d+: "):
        checks.check_induction_frobenius(pair, Config())


def test_equivalence_vs_hom_names_its_class_pair(monkeypatch):
    # a nonzero rank between classes 1 and 2, one way round only
    pair = make_pair("S3_in_S4")
    checks.check_equivalence_vs_hom(pair, Config())
    hom_dims = checks.hom_dims
    monkeypatch.setattr(checks, "hom_dims", lambda a, others: [
        1 - rank if b is others[2] and a is others[1] else rank
        for b, rank in zip(others, hom_dims(a, others))])
    with pytest.raises(checks.CheckFailure, match=re.escape("at class pair (1, 2)")):
        checks.check_equivalence_vs_hom(pair, Config())


@pytest.mark.parametrize("name", CATALOG)
def test_cross_oracle_catches_an_identification_row_off_by_one(name, monkeypatch):
    check_elementary_cross_oracle(make_pair(name), Config())
    rows = checks.identification_rows

    def off_by_one(objects):
        out = rows(objects)
        out[-1, out[-1].argmax()] += 1
        return out

    monkeypatch.setattr(checks, "identification_rows", off_by_one)
    with pytest.raises(checks.CheckFailure, match="elementary and extended fusion disagree"):
        check_elementary_cross_oracle(make_pair(name), Config())


@pytest.mark.parametrize("name", ["S3_in_S4", "D4_klein"])
def test_hecke_checks_catch_a_wrong_basis_product(name):
    # one extra T[e] in T[e] T[K].  On these two-label pairs an extra
    # coefficient in T[K] T[K] leaves associativity and the involution laws
    # intact (both sides read the same product), and an extra T[e] in
    # T[e] T[e] leaves the involution laws and weighted reciprocity intact
    cfg = Config()
    for check in (checks.check_hecke_associativity, checks.check_degree_homomorphism,
                  checks.check_involution_laws, checks.check_hecke_frobenius_weighted):
        check(make_pair(name).hecke(), cfg)
        bk = make_pair(name).hecke()
        e, k = bk.labels()[0], bk.labels()[-1]
        wrong = dict(basis_product(bk, e, k))
        wrong[e] = wrong.get(e, 0) + 1
        bk._products[e, k] = wrong
        with pytest.raises(checks.CheckFailure):
            check(bk, cfg)


@pytest.mark.parametrize("name", ["S3_in_S4", "D4_klein"])
def test_hecke_associativity_catches_a_wrong_product_one_x_at_a_time(name, monkeypatch):
    # room for the table and for one x per block of the two sides
    n = len(make_pair(name).hecke().labels())
    monkeypatch.setattr(projrep, "MAX_DENSE_BYTES", 24 * n ** 3)
    checks.check_hecke_associativity(make_pair(name).hecke(), Config())
    bk = make_pair(name).hecke()
    e, k = bk.labels()[0], bk.labels()[-1]
    wrong = dict(basis_product(bk, e, k))
    wrong[e] = wrong.get(e, 0) + 1
    bk._products[e, k] = wrong
    with pytest.raises(checks.CheckFailure, match="convolution is not associative"):
        checks.check_hecke_associativity(bk, Config())


# ------------------------------------------------------------ triple and overcount blocks

@pytest.mark.parametrize("choice", [None, 0, 1])
@pytest.mark.parametrize("name", CATALOG + ["S4_in_S5"])
def test_triple_fuse_matches_the_orbit_formula_on_sums(name, choice):
    pair = with_choice(make_pair(name), choice)
    rng = random.Random(5)
    for _ in range(3):
        x, y, z = (random_sum(pair, rng) for _ in range(3))
        assert triple_fuse(x, y, z) == orbit_triple_fuse(x, y, z)


@pytest.mark.parametrize("choice", [None, 0])
@pytest.mark.parametrize("name", CATALOG)
def test_one_triple_sweep_matches_one_label_triple_at_a_time(name, choice):
    swept_pair = with_choice(make_pair(name), choice)
    triples = list(itertools.product(swept_pair.labels(), repeat=3))
    swept = triple_blocks(swept_pair, triples)
    single_pair = with_choice(make_pair(name), choice)
    for labels, block in zip(triples, swept):
        assert same_blocks(block, triple_blocks(single_pair, [labels])[0])
        assert same_blocks(triple_blocks(swept_pair, [labels])[0], block)


@pytest.mark.parametrize("name", CATALOG + ["S4_in_S5"])
def test_overcount_blocks_cover_every_coset_once(name):
    pair = make_pair(name)
    grouped = orbits_by_labels(pair)
    for labels, orbits in zip(grouped, overcount_blocks(pair, list(grouped))):
        assert [(g0, tuple(cosets)) for g0, cosets in orbits] == [
            (g0, tuple(orbit)) for g0, orbit in grouped[labels]]
        # the representatives' terms add up to the fusion block
        firsts = {}
        for g0, cosets in orbits:
            firsts[g0] = firsts.get(g0, 0) + next(iter(cosets.values()))
        assert same_blocks(firsts, output_blocks(pair, *labels))
    overcount_identity(pair)


def corrupt_one_triple_block(pair, monkeypatch):
    """Make the sweep that ``check_ext_associativity`` reads return the
    three-factor block of the last label with 1 added to one entry."""
    labels = (pair.labels()[-1],) * 3
    block, = triple_blocks(pair, [labels])
    assert block
    wrong = {g0: mults.copy() for g0, mults in block.items()}
    wrong[next(iter(wrong))][0, 0, 0] += 1
    sweep = checks.triple_blocks
    monkeypatch.setattr(checks, "triple_blocks", lambda p, triples: [
        wrong if t == labels else b for t, b in zip(triples, sweep(p, triples))])


@pytest.mark.parametrize("name", ["S3_in_S4", "D4_klein"])
def test_associativity_catches_a_wrong_triple_block_entry(name, monkeypatch):
    pair = make_pair(name)
    check_ext_associativity(pair, every_triple(pair))
    pair = make_pair(name)
    corrupt_one_triple_block(pair, monkeypatch)
    with pytest.raises(checks.CheckFailure, match="associativity"):
        check_ext_associativity(pair, every_triple(pair))


@pytest.mark.parametrize("coset", [0, -1])
@pytest.mark.parametrize("name", ["S3_in_S4", "S4_in_S5"])
def test_overcount_catches_a_wrong_coset_term(name, coset, monkeypatch):
    # an orbit of one coset is its own representative; these pairs have larger
    pair = make_pair(name)
    check_ext_overcount(pair, Config())
    grouped = orbits_by_labels(pair)
    labels, at, cosets = next(
        (labels, at, cosets)
        for labels, orbits in zip(grouped, overcount_blocks(pair, list(grouped)))
        for at, (_, cosets) in enumerate(orbits) if len(cosets) > 1)
    wrong = dict(cosets)
    h = list(wrong)[coset]
    wrong[h] = wrong[h].copy()
    wrong[h][0, 0, 0] += 1
    sweep = exthecke.overcount_blocks

    def corrupted(p, label_pairs):
        out = sweep(p, label_pairs)
        for pair_labels, orbits in zip(label_pairs, out):
            if pair_labels == labels:
                orbits[at] = (orbits[at][0], wrong)
        return out

    monkeypatch.setattr(exthecke, "overcount_blocks", corrupted)
    with pytest.raises(FusionFormulaError, match="index"):
        check_ext_overcount(pair, Config())


@pytest.mark.parametrize("name", ["S3_in_S4", "D4_klein", "S4_in_S5"])
def test_overcount_catches_a_coset_from_another_orbit(name):
    pair = make_pair(name)
    g0, start, size, label_w, label_h, cosets = pair.orbits()
    # the first coset of the first orbit swapped for one of an orbit that
    # reads y at another label
    foreign = np.argmax(label_h != label_h[0])
    assert label_h[foreign] != label_h[0]
    cosets = cosets.copy()
    cosets[start[0]] = cosets[start[foreign]]
    pair._memo[("orbits",)] = (g0, start, size, label_w, label_h, cosets)
    labels = pair.labels()
    with pytest.raises(FusionFormulaError, match="orbit-invariant"):
        overcount_blocks(pair, [(labels[label_w[0]], labels[label_h[0]])])


@pytest.mark.parametrize("name", ["S3_in_S4", "S4_in_S5"])
def test_overcount_catches_an_orbit_short_of_its_index(name):
    pair = make_pair(name)
    g0, start, size, label_w, label_h, cosets = pair.orbits()
    # the first orbit of more than one coset loses its last coset
    at = np.argmax(size > 1)
    size = size.copy()
    size[at] -= 1
    pair._memo[("orbits",)] = (g0, start, size, label_w, label_h, cosets)
    labels = pair.labels()
    with pytest.raises(FusionFormulaError, match=f"orbit size {size[at]} != index"):
        overcount_blocks(pair, [(labels[label_w[at]], labels[label_h[at]])])


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
    built, induced = [], []

    class Counting(projrep.Induction):
        def __init__(self, *args, **kwargs):
            built.append(args)
            super().__init__(*args, **kwargs)

        def apply(self, matrices):
            induced.extend(matrices)
            return super().apply(matrices)

    monkeypatch.setattr(checks, "Induction", Counting)
    checks.check_induction_frobenius(pair, Config())
    # one induction from gamma to G, applied to every class of gamma
    assert len(built) == 1
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
