"""The invariant suite behind the ``check`` command.

Each check re-verifies one documented invariant of a module, on the catalog
entry it is pointed at.  Checks raise ``CheckFailure`` with a witness; the
runner collects outcomes.  Random draws (trials, sampled triples) come from
``Config``, so a seed fixes the whole run.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from . import projrep
from .catalog import (
    BUILTIN,
    CatalogEntry,
    build_backend,
    build_omega,
    build_pair,
    fusion_table,
    heisenberg_chart,
)
from .cocycle import (
    Cocycle,
    PhaseFunction,
    are_cohomologous,
    bilinear_cocycle,
    coboundary,
    cohomology_witness,
)
from .elementary import (
    BimoduleSum,
    basis_index,
    basis_objects,
    identification_rows,
    identity_object,
    is_irreducible,
    pair_conjugation_phase,
    structure_constants as elem_structure_constants,
    term_vector,
)
from .exthecke import (
    FinitePair,
    basis,
    basis_spans,
    basis_vector,
    conjugate,
    crossed_dim_identity,
    dims,
    from_rep,
    overcount_identity,
    structure_constants,
    to_hecke,
    triple_blocks,
    unit,
)
from .hecke import (
    BostConnesHecke,
    GL2Hecke,
    HeckeElement,
    basis_product,
    convolve,
    degree,
    expand,
    involution,
    lambda_multiplicativity_witnesses,
    modular_lambda,
    structure_constants as hecke_structure_constants,
)
from .permcore import (
    DEFAULT_MAX_ORDER,
    GroupAction,
    GroupTooLarge,
    MAX_SYM_DEGREE,
    check_commensuration_subgroups,
    commensurations,
    normalizer_in_sym,
)
from .projrep import (
    decompose,
    equivalent,
    hom_dims,
    induce,
    irreducibles,
    regular_rep,
    restrict,
    transport,
)


class CheckFailure(AssertionError):
    pass


@dataclass
class Outcome:
    name: str
    target: str
    passed: bool
    detail: str = ""


@dataclass
class Config:
    seed: int = 0
    trials: int = 5
    triple_limit: int = 40          # sampled associativity triples per pair
    max_order: int = DEFAULT_MAX_ORDER  # closure bound of every group built


# ------------------------------------------------------------ finite-pair checks

def check_coset_counting(pair: FinitePair, cfg: Config) -> None:
    gamma = pair.gamma
    for dc in pair.cosets.cosets:
        if len(dc.idx) != len(gamma) * dc.right_count:
            raise CheckFailure(f"|coset| != |gamma| * right count at "
                               f"{dc.label.cycle_string()}")
        if dc.left_count != dc.right_count:
            raise CheckFailure(f"left != right count at {dc.label.cycle_string()}")
    if sum(len(dc.idx) for dc in pair.cosets.cosets) != len(pair.group):
        raise CheckFailure("double cosets do not partition the group")


def check_labels_stable(pair: FinitePair, cfg: Config) -> None:
    rebuilt = FinitePair(pair.group, pair.gamma, pair.name)
    if rebuilt.labels() != pair.labels():
        raise CheckFailure("canonical labels changed across recomputation")


def check_conjugation_isomorphism(pair: FinitePair, cfg: Config) -> None:
    check_commensuration_subgroups(pair.gamma, pair.group.elements)  # raises on failure


def check_normalizer_contains(pair: FinitePair, cfg: Config) -> None:
    if pair.group.degree > MAX_SYM_DEGREE:
        return
    norm = normalizer_in_sym(pair.gamma)
    if not set(pair.gamma.elements) <= set(norm.elements):
        raise CheckFailure("normalizer does not contain the subgroup")


def check_commensurations_symmetric(pair: FinitePair, cfg: Config) -> None:
    if pair.group.degree > 4:
        return
    act = GroupAction.natural(pair.gamma)
    found = commensurations(act, act)
    keys = {(c.eta, c.domain, c.iso) for c in found}
    for c in found:
        inv = c.inverse()
        if (inv.eta, inv.domain, inv.iso) not in keys:
            raise CheckFailure(f"commensuration list is not symmetric at {c.eta}")


# ------------------------------------------------------------ cocycle checks

def check_coboundary_multiplicative(pair: FinitePair, omega: Cocycle,
                                    cfg: Config) -> None:
    rng = random.Random(cfg.seed)
    gamma, m = omega.group, max(omega.modulus, 2)
    for _ in range(cfg.trials):
        a = PhaseFunction(gamma, m, [0] + [rng.randrange(m)
                                           for _ in range(len(gamma) - 1)])
        b = PhaseFunction(gamma, m, [0] + [rng.randrange(m)
                                           for _ in range(len(gamma) - 1)])
        if coboundary(a * b) != coboundary(a) * coboundary(b):
            raise CheckFailure("coboundary is not multiplicative")


def check_cohomologous_equivalence(pair: FinitePair, omega: Cocycle,
                                   cfg: Config) -> None:
    rng = random.Random(cfg.seed)
    gamma, m = omega.group, omega.modulus
    shifts = []
    for _ in range(2):
        phi = PhaseFunction(gamma, m, [0] + [rng.randrange(m)
                                             for _ in range(len(gamma) - 1)])
        shifts.append(coboundary(phi) * omega)
    a, b = shifts
    ab = cohomology_witness(a, b)
    ba = cohomology_witness(b, a)
    if ab is None or ba is None:
        raise CheckFailure("cohomologous cocycles not recognized")
    if coboundary(ab * ba) != Cocycle.trivial(gamma):
        raise CheckFailure("witness composition is not a trivial coboundary")


def check_conjugation_identity(pair: FinitePair, omega: Cocycle,
                               cfg: Config) -> None:
    for g in omega.group.elements:
        pair_conjugation_phase(pair, omega, g)  # raises if the identity fails


def check_heisenberg_classification(pair: FinitePair, omega: Cocycle,
                                    cfg: Config, entry: CatalogEntry) -> None:
    n = entry.omega[1]
    coords = heisenberg_chart(entry, omega.group, n)
    all_classes = [bilinear_cocycle(omega.group, coords, n, k) for k in range(n)]
    for i, ci in enumerate(all_classes):
        for j, cj in enumerate(all_classes):
            if are_cohomologous(ci, cj) != (i == j):
                raise CheckFailure(f"classes {i} and {j} compare incorrectly")


# ------------------------------------------------------------ projrep checks

def check_rep_completeness(pair: FinitePair, omega: Optional[Cocycle],
                           cfg: Config) -> None:
    gamma = pair.little(pair.labels()[0])
    want = {cls: cls.dim for cls in irreducibles(gamma)}
    if decompose(regular_rep(gamma)) != want:
        raise CheckFailure("the regular representation does not hold each "
                           "irreducible class dim times")
    if omega is not None:
        twisted = decompose(regular_rep(gamma, omega.restrict(gamma)))
        total = sum(c.dim * m for c, m in twisted.items())
        if total != len(gamma):
            raise CheckFailure("twisted regular total dimension is wrong")


def check_induction_frobenius(pair: FinitePair, cfg: Config) -> None:
    gamma_grp = pair.little(pair.labels()[0])
    big = pair.group
    triv = Cocycle.trivial(big)
    big_reps = [cls.rep for cls in irreducibles(big)]
    restricted = [restrict(rep, gamma_grp) for rep in big_reps]
    for s, small_cls in enumerate(irreducibles(gamma_grp)):
        lhs = hom_dims(induce(small_cls.rep, big, triv), big_reps)
        rhs = hom_dims(small_cls.rep, restricted)
        for g, (l, r) in enumerate(zip(lhs, rhs)):
            if l != r:
                raise CheckFailure(f"induction reciprocity fails at gamma class {s}, "
                                   f"G class {g}: {l} != {r}")


def check_inner_transport(pair: FinitePair, cfg: Config) -> None:
    gamma_grp = pair.little(pair.labels()[0])
    rng = random.Random(cfg.seed)
    cls = irreducibles(gamma_grp)[-1]
    rep = cls.rep
    for _ in range(cfg.trials):
        c = gamma_grp.elements[rng.randrange(len(gamma_grp))]
        moved = transport(rep, gamma_grp, lambda t: t.conjugate(c))
        if not equivalent(moved, rep):
            raise CheckFailure(f"inner transport by {c.cycle_string()} moved a class")


def check_equivalence_vs_hom(pair: FinitePair, cfg: Config) -> None:
    classes = irreducibles(pair.little(pair.labels()[0]))
    reps = [cls.rep for cls in classes]
    for i, a in enumerate(classes):
        for j, rank in enumerate(hom_dims(a.rep, reps)):
            if (rank >= 1) != (a == classes[j]):
                raise CheckFailure(
                    f"hom_dim and character equality disagree at class pair ({i}, {j})")


# ------------------------------------------------------------ hecke checks

def check_hecke_associativity(backend, cfg: Config, labels=None) -> None:
    """(x y) z against x (y z) on basis triples: over the whole table H of a
    finite backend (labels=None); products of given labels leave them, so
    those are expanded."""
    if labels is None:
        _associative(hecke_structure_constants(backend), "convolution")
        return
    product = functools.partial(basis_product, backend)
    for x, y in itertools.product(labels, repeat=2):
        xy = product(x, y)
        for z in labels:
            if expand(xy, {z: 1}, product) != expand({x: 1}, product(y, z), product):
                raise CheckFailure("convolution is not associative")


def check_degree_homomorphism(backend, cfg: Config, labels=None) -> None:
    if labels is None:
        labels = backend.labels()
    for x, y in itertools.product(labels, repeat=2):
        xy = HeckeElement(backend, basis_product(backend, x, y))
        if degree(xy) != backend.right_count(x) * backend.right_count(y):
            raise CheckFailure("degree is not multiplicative")


def check_involution_laws(backend, cfg: Config, labels=None) -> None:
    if labels is None:
        labels = backend.labels()
    bars = {l: involution(HeckeElement(backend, {l: 1})) for l in labels}
    if any(involution(bars[l]).coeffs != {l: 1} for l in labels):
        raise CheckFailure("involution is not involutive")
    product = functools.partial(basis_product, backend)
    for x, y in itertools.product(labels, repeat=2):
        xy = HeckeElement(backend, product(x, y))
        if involution(xy).coeffs != expand(bars[y].coeffs, bars[x].coeffs, product):
            raise CheckFailure("involution is not anti-multiplicative")


def check_hecke_frobenius_weighted(backend, cfg: Config) -> None:
    """Weighted reciprocity over H, the dual of T[g] being T[g^-1] and the
    weights the right coset counts."""
    labels = backend.labels()
    at = {label: i for i, label in enumerate(labels)}
    bar = [at[backend.canonical_label(backend.inv(backend.element_of(l)))]
           for l in labels]
    _reciprocal(hecke_structure_constants(backend), np.eye(len(labels), dtype=np.int64)[bar],
                np.array([backend.right_count(l) for l in labels]), "weighted")


def check_lambda_trivial_finite(backend, cfg: Config) -> None:
    for label in backend.labels():
        if modular_lambda(backend, label) != 1:
            raise CheckFailure("nontrivial modular value on a finite pair")


def check_gl2_relations(cfg: Config) -> None:
    bk = GL2Hecke()
    t2 = HeckeElement(bk, {bk.parse_label("1,2"): 1})
    t3 = HeckeElement(bk, {bk.parse_label("1,3"): 1})
    if convolve(t2, t3).coeffs != {bk.parse_label("1,6"): 1}:
        raise CheckFailure("T(1,2) * T(1,3) != T(1,6)")
    for p in (2, 3):
        tp = HeckeElement(bk, {bk.parse_label(f"1,{p}"): 1})
        want = {bk.parse_label(f"1,{p * p}"): 1, bk.parse_label(f"{p},{p}"): p + 1}
        if convolve(tp, tp).coeffs != want:
            raise CheckFailure(f"classical relation fails at p = {p}")
    labels = [bk.parse_label(s) for s in ("1,2", "1,3", "2,2", "1,4")]
    for a, b in itertools.product(labels, repeat=2):
        x, y = HeckeElement(bk, {a: 1}), HeckeElement(bk, {b: 1})
        if convolve(x, y) != convolve(y, x):
            raise CheckFailure("GL2 convolution is not commutative")
        if modular_lambda(bk, a) != 1:
            raise CheckFailure("GL2 modular value differs from 1")


def check_bc_lambda(cfg: Config) -> None:
    bk = BostConnesHecke()
    for p in (2, 3, 5):
        if modular_lambda(bk, bk.element(p, 0)) != p:
            raise CheckFailure(f"modular value at ({p}, 0) is not {p}")
    fracs = dict.fromkeys(Fraction(n, d) for n in range(1, 7) for d in range(1, 7))
    half = Fraction(1, 2)
    xs = [HeckeElement(bk, {bk.canonical_label(bk.element(a, 0)): 1}) for a in fracs]
    ys = [HeckeElement(bk, {bk.canonical_label(bk.element(a, half)): 1}) for a in fracs]
    for x, y in itertools.product(xs, ys):
        bad = lambda_multiplicativity_witnesses(x, y)
        if bad:
            raise CheckFailure(f"modular multiplicativity fails: {bad[0]}")


def _closed_form_agrees(bk, products) -> None:
    for kx, ky in products:
        want = convolve(HeckeElement(bk, {kx: 1}), HeckeElement(bk, {ky: 1}))
        if bk.closed_product(kx, ky) != want.coeffs:
            raise CheckFailure(
                f"closed form and convolution disagree at "
                f"T[{bk.label_str(kx)}]*T[{bk.label_str(ky)}]")


def check_gl2_closed_form(cfg: Config) -> None:
    """Closed-form GL2 products against convolution: composite n <= 36
    times composite n <= 9, with non-unit contents.  Convolution costs
    about the right factor's coset count per output label, so the right
    factor is kept small."""
    rng = random.Random(cfg.seed)
    contents = ((1, 1), (2, 1), (1, 3), (5, 2))  # n/q in lowest terms

    def draw(ratios):
        c = rng.choice(contents)
        return (*c, rng.choice(ratios))

    _closed_form_agrees(GL2Hecke(), [
        (draw((12, 18, 20, 24, 30, 36)), draw((4, 6, 8, 9)))
        for _ in range(6)])


def check_bc_closed_form(cfg: Config) -> None:
    """Closed-form ax+b products against convolution, on labels read from
    negative translations."""
    rng = random.Random(cfg.seed)
    bk = BostConnesHecke()

    def draw():
        a = Fraction(rng.randint(1, 6), rng.randint(1, 12))
        b = Fraction(-rng.randint(1, 12), rng.randint(1, 12))
        return bk.canonical_label(bk.element(a, b))

    _closed_form_agrees(bk, [(draw(), draw()) for _ in range(6)])


# ------------------------------------------------------------ ext-hecke checks

def check_ext_associativity(pair: FinitePair, cfg: Config) -> None:
    """The three-factor formula against the iterated products, both read
    from the rows of N, on sampled basis triples."""
    spans = basis_spans(pair)
    at = [(label, i) for label, span in spans.items()
          for i in range(span.stop - span.start)]
    triples = _sampled_triples(len(at), cfg)
    # the blocks of every sampled triple in one sweep
    blocks = triple_blocks(pair, [(at[i][0], at[j][0], at[k][0])
                                  for i, j, k in triples])
    iterated = _associative(structure_constants(pair), "extended fusion", triples)
    for (i, j, k), block, row in zip(triples, blocks, iterated):
        t = np.zeros(len(at), dtype=np.int64)
        for g0, mults in block.items():
            t[spans[g0]] = mults[at[i][1], at[j][1], at[k][1]]
        if (t != row).any():
            raise CheckFailure(f"associativity fails on basis triple ({i},{j},{k})")


def check_ext_frobenius(pair: FinitePair, cfg: Config) -> None:
    """Reciprocity over N, the dual of each basis element its
    ``conjugate``."""
    dual = np.array([basis_vector(conjugate(b)) for _, b in basis(pair)])
    _reciprocal(structure_constants(pair), dual, np.ones(len(dual), dtype=np.int64),
                "extended")


def check_ext_homomorphisms(pair: FinitePair, cfg: Config) -> None:
    consts = structure_constants(pair)
    _unital(consts, int(basis_vector(unit(pair)).argmax()), "the unit element")
    bk = pair.hecke()
    at = {label: i for i, label in enumerate(bk.labels())}
    # forget[x, a]: the coefficient of T[a] in to_hecke of basis element x
    forget = np.zeros((len(consts), len(at)), dtype=np.int64)
    for x, (_, b) in enumerate(basis(pair)):
        for label, c in to_hecke(b).coeffs.items():
            forget[x, at[label]] = c
    products = np.einsum("xa,yb,abl->xyl", forget, forget,
                         hecke_structure_constants(bk).whole(), optimize=True)
    if (consts.whole() @ forget != products).any():
        raise CheckFailure("to_hecke is not multiplicative")
    # from_rep(a) from_rep(b), read from N, against the decomposition of the
    # Kronecker product of a and b, for every pair (a, b) of classes of gamma
    label = pair.labels()[0]
    gamma, classes = pair.little(label), irreducibles(pair.little(label))
    embedded = np.array([basis_vector(from_rep(pair, a.rep)) for a in classes])
    got = (embedded @ np.tensordot(embedded, consts.whole(), 1)).reshape(-1, len(consts))
    pairs = list(itertools.product(classes, repeat=2))
    projrep.check_dense_size(f"the Kronecker products of the classes of a group of "
                             f"order {len(gamma)}", len(gamma) ** 3)
    chars = np.zeros((len(pairs), len(gamma)), dtype=complex)
    by_dims: dict = {}
    for p, (a, b) in enumerate(pairs):
        by_dims.setdefault((a.dim, b.dim), []).append(p)
    for (da, db), stack in by_dims.items():
        left = np.stack([pairs[p][0].rep.matrices for p in stack]).reshape(-1, da, da)
        right = np.stack([pairs[p][1].rep.matrices for p in stack]).reshape(-1, db, db)
        chars[stack] = np.trace(projrep.kron(left, right), axis1=1,
                                axis2=2).reshape(len(stack), -1)
    cocycle = classes[0].cocycle * classes[0].cocycle  # every product's
    want = np.zeros_like(got)
    index, start = pair.class_index(label), basis_spans(pair)[label].start
    want[:, [start + index[cls] for cls in irreducibles(gamma, cocycle)]] = \
        projrep.decompose_characters(gamma, cocycle, chars, [a.dim * b.dim for a, b in pairs])
    bad = np.flatnonzero((got != want).any(axis=1))
    if len(bad):
        i, j = divmod(int(bad[0]), len(classes))
        raise CheckFailure(f"from_rep is not multiplicative at class pair ({i}, {j})")


def check_ext_dims_multiplicative(pair: FinitePair, cfg: Config) -> None:
    d = np.array([dims(b) for _, b in basis(pair)])  # (left, right) per element
    if (structure_constants(pair).whole() @ d != d[:, None] * d[None, :]).any():
        raise CheckFailure("fusion dimensions are not multiplicative")


def check_ext_overcount(pair: FinitePair, cfg: Config) -> None:
    overcount_identity(pair)


def check_crossed_dim(pair: FinitePair, cfg: Config) -> None:
    lhs, rhs = crossed_dim_identity(pair)
    if lhs != rhs:
        raise CheckFailure(f"crossed-product dimension identity fails: {lhs} != {rhs}")


def check_representative_independence(pair: FinitePair, cfg: Config) -> None:
    baseline = fusion_table(pair)
    for trial in range(cfg.trials):
        shuffled = pair.with_choices(random.Random(cfg.seed * 7919 + trial))
        if fusion_table(shuffled) != baseline:
            raise CheckFailure(f"fusion table changed under re-choice {trial}")


# ------------------------------------------------------------ elementary checks

def check_elementary_associativity(pair: FinitePair, omega: Cocycle,
                                   cfg: Config) -> None:
    """(x y) z against x (y z) on sampled basis triples, read from the rows
    of E that the triples reach."""
    consts = elem_structure_constants(pair, omega)
    _associative(consts, "elementary fusion", _sampled_triples(len(consts), cfg))


def check_elementary_cross_oracle(pair: FinitePair, cfg: Config) -> None:
    """E M against N: row z of M is the extended Hecke identification of
    basis object z, so E M holds the identified elementary products."""
    omega = Cocycle.trivial(pair.gamma)
    identified = identification_rows(basis_objects(pair, omega))
    got = elem_structure_constants(pair, omega).whole() @ identified
    consts = structure_constants(pair).whole()
    if got.shape != consts.shape or (got != consts).any():
        raise CheckFailure("elementary and extended fusion disagree")


def check_elementary_irreducibility(pair: FinitePair, omega: Cocycle,
                                    cfg: Config) -> None:
    """Every basis object is irreducible and decomposes to itself alone
    (the object sums S are the identity, so E is read without them), and
    the identity object is the unit of E."""
    objs = basis_objects(pair, omega)
    for obj in objs:
        if not is_irreducible(obj):
            raise CheckFailure("a basis object is not irreducible")
    sums = np.array([term_vector(pair, omega, BimoduleSum.of(obj).terms) for obj in objs])
    if (sums != np.eye(len(objs), dtype=np.int64)).any():
        raise CheckFailure("a basis object does not decompose to itself")
    e = identity_object(pair, omega)
    _unital(elem_structure_constants(pair, omega),
            basis_index(pair, omega, (e.delta.images, e.rep.char_key())), "the identity object")


# ------------------------------------------------------------ based-ring laws

def _sampled_triples(n: int, cfg: Config) -> list[tuple[int, int, int]]:
    """The basis triples of an n-element basis, or a seeded sample of
    ``cfg.triple_limit`` of them when there are more."""
    triples = list(itertools.product(range(n), repeat=3))
    if len(triples) > cfg.triple_limit:
        triples = random.Random(cfg.seed).sample(triples, cfg.triple_limit)
    return triples


def _associative(consts, what: str, triples=None) -> Optional[np.ndarray]:
    """(x y) z against x (y z) in a table of structure constants.

    Whole (triples=None): einsum("xyl,lzw") against einsum("yzl,xlw"), a
    block of x at a time within ``projrep.MAX_DENSE_BYTES``, as float64
    matrix products, exact while every sum stays below 2^53.  On given basis
    triples: both sides from the rows they reach; returns (x y) z per
    triple."""
    if triples is not None:
        x, y, z = np.array(triples, dtype=np.intp).reshape(-1, 3).T
        left = _times(consts, consts.rows(np.stack([x, y], axis=1)), z, on_right=True)
        right = _times(consts, consts.rows(np.stack([y, z], axis=1)), x, on_right=False)
        bad = np.flatnonzero((left != right).any(axis=1))
        if len(bad):
            t = bad[0]
            raise CheckFailure(f"{what} is not associative at ({x[t]}, {y[t]}, {z[t]})")
        return left
    table = consts.whole()
    n = len(table)
    if n * int(table.max()) ** 2 >= 2 ** 53:
        raise GroupTooLarge(f"structure constants up to {table.max()} are too large "
                            "for an exact float64 associativity check")
    table = table.astype(float)
    step = max(1, projrep.MAX_DENSE_BYTES // (24 * n ** 3))
    for start in range(0, n, step):
        block = table[start:start + step]
        left = block.reshape(-1, n) @ table.reshape(n, -1)  # [(x, y), (z, w)]
        right = table.reshape(-1, n) @ block.transpose(1, 0, 2).reshape(n, -1)
        right = right.reshape(n, n, len(block), n).transpose(2, 0, 1, 3)
        bad = np.argwhere(left.reshape(right.shape) != right)
        if len(bad):
            x, y, z, _ = bad[0]
            raise CheckFailure(f"{what} is not associative at ({start + x}, {y}, {z})")
    return None


def _times(consts, vectors: np.ndarray, factors: np.ndarray,
           on_right: bool) -> np.ndarray:
    """Row t: vectors[t] times basis element factors[t], the factor on the
    right or on the left, from the rows of the table it reaches."""
    t, w = np.nonzero(vectors)
    pairs = [w, factors[t]] if on_right else [factors[t], w]
    out = np.zeros_like(vectors)
    np.add.at(out, t, vectors[t, w, None] * consts.rows(np.stack(pairs, axis=1)))
    return out


def _unital(consts, unit: int, what: str) -> None:
    """unit x = x = x unit for every basis element x."""
    pairs = [(unit, x) for x in range(len(consts))]
    eye = np.eye(len(consts), dtype=np.int64)
    if ((consts.rows(pairs) != eye).any()
            or (consts.rows([pair[::-1] for pair in pairs]) != eye).any()):
        raise CheckFailure(f"{what} is not neutral")


def _reciprocal(consts, dual: np.ndarray, weights: np.ndarray, what: str) -> None:
    """T[x, y, z] w_z = T[x*, z, y] w_y = T[z, y*, x] w_x on every basis
    triple, with row x of dual the vector of x* over the basis, which must
    be a permutation of it."""
    star = dual.argmax(axis=1)
    if (sorted(star.tolist()) != list(range(len(dual)))
            or (dual != np.eye(len(dual), dtype=dual.dtype)[star]).any()):
        raise CheckFailure(f"the {what} dual does not permute the basis")
    table = consts.whole()
    lhs = table * weights
    mid = table[star].transpose(0, 2, 1) * weights[:, None]
    rhs = table[:, star].transpose(2, 1, 0) * weights[:, None, None]
    bad = np.argwhere((lhs != mid) | (mid != rhs))
    if len(bad):
        raise CheckFailure(f"{what} reciprocity fails at "
                           f"({', '.join(map(str, bad[0].tolist()))})")


# ------------------------------------------------------------ runner

# (outcome name, scope, check function), in report order.  A row runs on
# each entry that ``_scopes`` gives its scope, with that scope's arguments.
# Its function is looked up on the module by name as it runs, so a check
# rebound there (perfbench times each check that way) is the one that runs.
CHECKS = (
    ("gl2-relations", "gl2", check_gl2_relations),
    ("gl2-closed-form", "gl2", check_gl2_closed_form),
    ("bc-lambda-homomorphism", "bc", check_bc_lambda),
    ("bc-closed-form", "bc", check_bc_closed_form),
    ("coset-counting", "pair", check_coset_counting),
    ("labels-stable", "pair", check_labels_stable),
    ("conjugation-isomorphism", "pair", check_conjugation_isomorphism),
    ("normalizer-contains", "pair", check_normalizer_contains),
    ("commensurations-symmetric", "pair", check_commensurations_symmetric),
    ("rep-completeness", "any-omega", check_rep_completeness),
    ("induction-frobenius", "pair", check_induction_frobenius),
    ("inner-transport", "pair", check_inner_transport),
    ("equivalence-vs-hom", "pair", check_equivalence_vs_hom),
    ("hecke-associativity", "hecke", check_hecke_associativity),
    ("degree-homomorphism", "hecke", check_degree_homomorphism),
    ("involution-laws", "hecke", check_involution_laws),
    ("hecke-frobenius-weighted", "finite-hecke", check_hecke_frobenius_weighted),
    ("lambda-trivial", "finite-hecke", check_lambda_trivial_finite),
    ("ext-associativity", "pair", check_ext_associativity),
    ("ext-frobenius", "pair", check_ext_frobenius),
    ("ext-homomorphisms", "pair", check_ext_homomorphisms),
    ("ext-dims-multiplicative", "pair", check_ext_dims_multiplicative),
    ("ext-overcount", "pair", check_ext_overcount),
    ("crossed-dim-identity", "pair", check_crossed_dim),
    ("representative-independence", "pair", check_representative_independence),
    ("elementary-cross-oracle", "pair", check_elementary_cross_oracle),
    ("coboundary-multiplicative", "omega", check_coboundary_multiplicative),
    ("cohomologous-equivalence", "omega", check_cohomologous_equivalence),
    ("conjugation-identity", "omega", check_conjugation_identity),
    ("heisenberg-classification", "heisenberg", check_heisenberg_classification),
    ("elementary-associativity", "omega", check_elementary_associativity),
    ("elementary-irreducibility", "omega", check_elementary_irreducibility),
)


def _scopes(entry: CatalogEntry, cfg: Config) -> dict[str, tuple]:
    """The arguments of each scope of ``CHECKS`` that covers entry: an
    arithmetic entry's kind, and its backend on small labels (hecke); a
    finite entry's pair, the pair with its cocycle or None (any-omega), its
    backend (hecke, finite-hecke), and with a cocycle, omega (and heisenberg
    for a Heisenberg cocycle)."""
    small = {"gl2": ("1,2", "1,3", "2,2"),
             "bc": ("2;0", "1/2;0", "3;1/3")}.get(entry.kind)
    if small is not None:
        bk = build_backend(entry, cfg.max_order)
        labels = [bk.parse_label(s) for s in small]
        return {entry.kind: (cfg,), "hecke": (bk, cfg, labels)}
    pair = build_pair(entry, cfg.max_order)
    omega = build_omega(entry, pair)
    bk = pair.hecke()
    scopes = {"pair": (pair, cfg), "any-omega": (pair, omega, cfg),
              "hecke": (bk, cfg), "finite-hecke": (bk, cfg)}
    if omega is not None:
        scopes["omega"] = (pair, omega, cfg)
        if entry.omega[0] == "heisenberg":
            scopes["heisenberg"] = (pair, omega, cfg, entry)
    return scopes


def run_checks(entry_names: Optional[list[str]] = None,
               catalog: Optional[dict[str, CatalogEntry]] = None,
               cfg: Optional[Config] = None) -> list[Outcome]:
    catalog = dict(BUILTIN if catalog is None else catalog)
    cfg = cfg or Config()
    outcomes: list[Outcome] = []
    for entry_name in entry_names or sorted(catalog):
        entry = catalog[entry_name]
        try:
            scopes = _scopes(entry, cfg)
        except Exception as exc:  # noqa: BLE001 - a bad entry fails alone
            outcomes.append(Outcome("build-entry", entry_name, False, str(exc)))
            continue
        for name, scope, check in CHECKS:
            if scope not in scopes:
                continue
            try:
                globals()[check.__name__](*scopes[scope])
            except Exception as exc:  # noqa: BLE001 - report any witness
                outcomes.append(Outcome(name, entry_name, False, str(exc)))
            else:
                outcomes.append(Outcome(name, entry_name, True))
    return outcomes
