"""The invariant suite behind the ``check`` command.

Each check re-verifies one documented invariant of a module, on the catalog
entry it is pointed at.  Checks raise ``CheckFailure`` with a witness; the
runner collects outcomes.  The acceptance tests run the same functions with
exhaustive settings; the CLI uses lighter trial counts by default.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Callable, Optional

from .catalog import (
    BUILTIN,
    CatalogEntry,
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
    admissible_classes,
    fuse as elem_fuse,
    fuse_objects,
    identity_object,
    is_irreducible,
    make,
    pair_conjugation_phase,
    to_ext_hecke as elem_to_ext,
)
from .exthecke import (
    FinitePair,
    basis,
    conjugate,
    crossed_dim_identity,
    dims,
    from_rep,
    fuse,
    overcount_check,
    to_hecke,
    triple_fuse,
    unit,
)
from .hecke import (
    BostConnesHecke,
    GL2Hecke,
    HeckeElement,
    convolve,
    degree,
    involution,
    lambda_multiplicativity_witnesses,
    modular_lambda,
)
from .permcore import (
    GroupAction,
    MAX_SYM_DEGREE,
    commensuration_subgroups,
    commensurations,
    normalizer_in_sym,
)
from .projrep import (
    decompose,
    equivalent,
    hom_dim,
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


# ------------------------------------------------------------ finite-pair checks

def check_coset_counting(pair: FinitePair, cfg: Config) -> None:
    gamma = pair.gamma
    for dc in pair.cosets.cosets:
        if len(dc.elements) != len(gamma) * dc.right_count:
            raise CheckFailure(f"|coset| != |gamma| * right count at "
                               f"{dc.label.cycle_string()}")
        if dc.left_count != dc.right_count:
            raise CheckFailure(f"left != right count at {dc.label.cycle_string()}")
    if sum(len(dc.elements) for dc in pair.cosets.cosets) != len(pair.group):
        raise CheckFailure("double cosets do not partition the group")


def check_labels_stable(pair: FinitePair, cfg: Config) -> None:
    rebuilt = FinitePair(pair.group, pair.gamma, pair.name)
    if rebuilt.labels() != pair.labels():
        raise CheckFailure("canonical labels changed across recomputation")


def check_conjugation_isomorphism(pair: FinitePair, cfg: Config) -> None:
    for delta in pair.group.elements:
        commensuration_subgroups(pair.gamma, delta)  # raises on failure


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
    plain = irreducibles(gamma)
    if sum(c.dim ** 2 for c in plain) != len(gamma):
        raise CheckFailure("sum of squared dimensions misses the group order")
    if omega is not None:
        twisted = decompose(regular_rep(gamma, omega.restrict(gamma)))
        total = sum(c.dim * m for c, m in twisted.items())
        if total != len(gamma):
            raise CheckFailure("twisted regular total dimension is wrong")


def check_induction_frobenius(pair: FinitePair, cfg: Config) -> None:
    gamma_grp = pair.little(pair.labels()[0])
    big = pair.group
    if len(gamma_grp) == len(big):
        return
    triv = Cocycle.trivial(big)
    for small_cls in irreducibles(gamma_grp):
        ind = induce(small_cls.rep, big, triv)
        for big_cls in irreducibles(big):
            lhs = hom_dim(ind, big_cls.rep)
            rhs = hom_dim(small_cls.rep, restrict(big_cls.rep, gamma_grp))
            if lhs != rhs:
                raise CheckFailure(
                    f"induction reciprocity fails: {lhs} != {rhs}")


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
    gamma_grp = pair.little(pair.labels()[0])
    classes = irreducibles(gamma_grp)
    for a in classes:
        for b in classes:
            if (hom_dim(a.rep, b.rep) >= 1) != (a == b):
                raise CheckFailure("hom_dim and character equality disagree")


# ------------------------------------------------------------ hecke checks

def check_hecke_associativity(backend, cfg: Config, labels=None) -> None:
    if labels is None:
        labels = backend.labels()
    els = [HeckeElement(backend, {l: 1}) for l in labels]
    for x, y, z in itertools.product(els, repeat=3):
        if convolve(convolve(x, y), z) != convolve(x, convolve(y, z)):
            raise CheckFailure("convolution is not associative")


def check_degree_homomorphism(backend, cfg: Config, labels=None) -> None:
    if labels is None:
        labels = backend.labels()
    els = [HeckeElement(backend, {l: 1}) for l in labels]
    for x, y in itertools.product(els, repeat=2):
        if degree(convolve(x, y)) != degree(x) * degree(y):
            raise CheckFailure("degree is not multiplicative")


def check_involution_laws(backend, cfg: Config, labels=None) -> None:
    if labels is None:
        labels = backend.labels()
    els = [HeckeElement(backend, {l: 1}) for l in labels]
    for x in els:
        if involution(involution(x)) != x:
            raise CheckFailure("involution is not involutive")
    for x, y in itertools.product(els, repeat=2):
        if involution(convolve(x, y)) != convolve(involution(y), involution(x)):
            raise CheckFailure("involution is not anti-multiplicative")


def check_hecke_frobenius_weighted(backend, cfg: Config) -> None:
    labels = backend.labels()

    def mult(a, b, t):
        return convolve(HeckeElement(backend, {a: 1}),
                        HeckeElement(backend, {b: 1})).coeffs.get(t, 0)

    def bar(l):
        return backend.canonical_label(backend.inv(backend.element_of(l)))

    for x, y, z in itertools.product(labels, repeat=3):
        lhs = mult(x, y, z) * backend.right_count(z)
        mid = mult(bar(x), z, y) * backend.right_count(y)
        rhs = mult(z, bar(y), x) * backend.right_count(x)
        if not lhs == mid == rhs:
            raise CheckFailure(
                f"weighted reciprocity fails at ({backend.label_str(x)}, "
                f"{backend.label_str(y)}, {backend.label_str(z)})")


def check_lambda_trivial_finite(backend, cfg: Config) -> None:
    for label in backend.labels():
        if modular_lambda(backend, label) != 1:
            raise CheckFailure("nontrivial modular value on a finite pair")


def check_gl2_relations(cfg: Config) -> None:
    from fractions import Fraction
    bk = GL2Hecke()
    t2 = HeckeElement(bk, {(Fraction(1), Fraction(2)): 1})
    t3 = HeckeElement(bk, {(Fraction(1), Fraction(3)): 1})
    if convolve(t2, t3).coeffs != {(Fraction(1), Fraction(6)): 1}:
        raise CheckFailure("T(1,2) * T(1,3) != T(1,6)")
    for p in (2, 3):
        tp = HeckeElement(bk, {(Fraction(1), Fraction(p)): 1})
        want = {(Fraction(1), Fraction(p * p)): 1, (Fraction(p), Fraction(p)): p + 1}
        if convolve(tp, tp).coeffs != want:
            raise CheckFailure(f"classical relation fails at p = {p}")
    labels = [bk.parse_label(s) for s in ("1,2", "1,3", "2,2", "1,4")]
    for a, b in itertools.product(labels, repeat=2):
        x, y = HeckeElement(bk, {a: 1}), HeckeElement(bk, {b: 1})
        if convolve(x, y) != convolve(y, x):
            raise CheckFailure("GL2 convolution is not commutative")
        if modular_lambda(bk, a) != 1:
            raise CheckFailure("GL2 modular value differs from 1")


def check_bc_lambda(cfg: Config, bound: int = 6) -> None:
    from fractions import Fraction
    bk = BostConnesHecke()
    for p in (2, 3, 5):
        if modular_lambda(bk, (Fraction(p), Fraction(0))) != p:
            raise CheckFailure(f"modular value at ({p}, 0) is not {p}")
    fracs = [Fraction(n, d) for n in range(1, bound + 1)
             for d in range(1, bound + 1)]
    seen = set()
    for a1, a2 in itertools.product(fracs, repeat=2):
        key = (a1, a2)
        if key in seen:
            continue
        seen.add(key)
        x = HeckeElement(bk, {bk.canonical_label((a1, Fraction(0))): 1})
        y = HeckeElement(bk, {bk.canonical_label((a2, Fraction(1, 2))): 1})
        bad = lambda_multiplicativity_witnesses(x, y)
        if bad:
            raise CheckFailure(f"modular multiplicativity fails: {bad[0]}")


# ------------------------------------------------------------ ext-hecke checks

def check_ext_associativity(pair: FinitePair, cfg: Config,
                            exhaustive: bool = False) -> None:
    els = [b for _, b in basis(pair)]
    triples = list(itertools.product(range(len(els)), repeat=3))
    if not exhaustive and len(triples) > cfg.triple_limit:
        rng = random.Random(cfg.seed)
        triples = rng.sample(triples, cfg.triple_limit)
    for i, j, k in triples:
        x, y, z = els[i], els[j], els[k]
        t = triple_fuse(x, y, z)
        if t != fuse(fuse(x, y), z) or t != fuse(x, fuse(y, z)):
            raise CheckFailure(f"associativity fails on basis triple ({i},{j},{k})")


def check_ext_frobenius(pair: FinitePair, cfg: Config) -> None:
    els = [b for _, b in basis(pair)]
    bars = [conjugate(b) for b in els]

    def mult(x, y, target):
        (label, parts), = target.support.items()
        (cls, _), = parts.items()
        return fuse(x, y).support.get(label, {}).get(cls, 0)

    for (x, xb), (y, yb), z in itertools.product(
            zip(els, bars), zip(els, bars), els):
        if not mult(x, y, z) == mult(xb, z, y) == mult(z, yb, x):
            raise CheckFailure("extended reciprocity fails on a basis triple")


def check_ext_homomorphisms(pair: FinitePair, cfg: Config) -> None:
    from .exthecke import ExtHeckeElement
    from .projrep import tensor as rep_tensor
    els = [b for _, b in basis(pair)]
    one = unit(pair)
    for x in els:
        if fuse(one, x) != x or fuse(x, one) != x:
            raise CheckFailure("the unit element is not neutral")
    for x, y in itertools.product(els, repeat=2):
        if to_hecke(fuse(x, y)) != convolve(to_hecke(x), to_hecke(y)):
            raise CheckFailure("to_hecke is not multiplicative")
    gamma_classes = irreducibles(pair.little(pair.labels()[0]))
    for a in gamma_classes:
        for b in gamma_classes:
            lhs = fuse(from_rep(pair, a.rep), from_rep(pair, b.rep))
            product_parts = decompose(rep_tensor(a.rep, b.rep))
            rhs = ExtHeckeElement(pair, {pair.labels()[0]: product_parts})
            if lhs != rhs:
                raise CheckFailure("from_rep is not multiplicative")


def check_ext_dims_multiplicative(pair: FinitePair, cfg: Config) -> None:
    els = [b for _, b in basis(pair)]
    for x, y in itertools.product(els, repeat=2):
        dx, dy = dims(x), dims(y)
        dxy = dims(fuse(x, y))
        if dxy != (dx[0] * dy[0], dx[1] * dy[1]):
            raise CheckFailure("fusion dimensions are not multiplicative")


def check_ext_overcount(pair: FinitePair, cfg: Config) -> None:
    els = [b for _, b in basis(pair)]
    for x, y in itertools.product(els, repeat=2):
        overcount_check(x, y)


def check_crossed_dim(pair: FinitePair, cfg: Config) -> None:
    lhs, rhs = crossed_dim_identity(pair)
    if lhs != rhs:
        raise CheckFailure(f"crossed-product dimension identity fails: {lhs} != {rhs}")


def check_representative_independence(pair: FinitePair, cfg: Config,
                                      trials: Optional[int] = None) -> None:
    baseline = fusion_table(pair)
    for trial in range(trials if trials is not None else cfg.trials):
        shuffled = pair.with_choices(random.Random(cfg.seed * 7919 + trial))
        if fusion_table(shuffled) != baseline:
            raise CheckFailure(f"fusion table changed under re-choice {trial}")


# ------------------------------------------------------------ elementary checks

def _elementary_basis(pair: FinitePair, omega: Cocycle):
    out = []
    for label in pair.labels():
        for cls in admissible_classes(pair, omega, label):
            out.append(make(pair, omega, label, cls.rep))
    return out


def check_elementary_associativity(pair: FinitePair, omega: Cocycle,
                                   cfg: Config, exhaustive: bool = False) -> None:
    objs = _elementary_basis(pair, omega)
    triples = list(itertools.product(range(len(objs)), repeat=3))
    if not exhaustive and len(triples) > cfg.triple_limit:
        rng = random.Random(cfg.seed)
        triples = rng.sample(triples, cfg.triple_limit)
    for i, j, k in triples:
        x, y, z = objs[i], objs[j], objs[k]
        left = elem_fuse(fuse_objects(x, y), BimoduleSum.of(z))
        right = elem_fuse(BimoduleSum.of(x), fuse_objects(y, z))
        if left != right:
            raise CheckFailure(f"elementary associativity fails at ({i},{j},{k})")


def check_elementary_cross_oracle(pair: FinitePair, cfg: Config) -> None:
    omega = Cocycle.trivial(pair.gamma)
    ext_els = [b for _, b in basis(pair)]
    objs = []
    for label in pair.labels():
        for cls in irreducibles(pair.little(label)):
            objs.append(make(pair, omega, label, cls.rep))
    for (x_obj, x_ext), (y_obj, y_ext) in itertools.product(
            zip(objs, ext_els), repeat=2):
        if elem_to_ext(fuse_objects(x_obj, y_obj)) != fuse(x_ext, y_ext):
            raise CheckFailure("elementary and extended fusion disagree")


def check_elementary_irreducibility(pair: FinitePair, omega: Cocycle,
                                    cfg: Config) -> None:
    for obj in _elementary_basis(pair, omega):
        if not is_irreducible(obj):
            raise CheckFailure("a basis object is not irreducible")
        if sum(BimoduleSum.of(obj).terms.values()) != 1:
            raise CheckFailure("an irreducible object decomposes")
    e_obj = identity_object(pair, omega)
    for obj in _elementary_basis(pair, omega):
        if fuse_objects(e_obj, obj) != BimoduleSum.of(obj):
            raise CheckFailure("identity object is not neutral")


# ------------------------------------------------------------ runner

def run_checks(entry_names: Optional[list[str]] = None,
               catalog: Optional[dict[str, CatalogEntry]] = None,
               cfg: Optional[Config] = None) -> list[Outcome]:
    catalog = dict(BUILTIN if catalog is None else catalog)
    cfg = cfg or Config()
    names = entry_names or sorted(catalog)
    outcomes: list[Outcome] = []

    def run(name: str, target: str, fn: Callable, *args) -> None:
        try:
            fn(*args)
        except Exception as exc:  # noqa: BLE001 - report any witness
            outcomes.append(Outcome(name, target, False, str(exc)))
        else:
            outcomes.append(Outcome(name, target, True))

    # built per call, so a check rebound on the module (perfbench times
    # each check that way) is the one that runs
    hecke_laws = (("hecke-associativity", check_hecke_associativity),
                  ("degree-homomorphism", check_degree_homomorphism),
                  ("involution-laws", check_involution_laws))
    arithmetic = {
        "gl2": (GL2Hecke, "gl2-relations", check_gl2_relations, ("1,2", "1,3", "2,2")),
        "bc": (BostConnesHecke, "bc-lambda-homomorphism", check_bc_lambda,
               ("2;0", "1/2;0", "3;1/3")),
    }
    for entry_name in names:
        entry = catalog[entry_name]
        if entry.kind in arithmetic:
            backend, first, first_check, labels = arithmetic[entry.kind]
            bk = backend()
            small = [bk.parse_label(s) for s in labels]
            run(first, entry_name, first_check, cfg)
            for name, law in hecke_laws:
                run(name, entry_name, law, bk, cfg, small)
            continue

        try:
            pair = build_pair(entry)
            omega = build_omega(entry, pair)
        except Exception as exc:  # noqa: BLE001 - a bad entry fails alone
            outcomes.append(Outcome("build-entry", entry_name, False, str(exc)))
            continue
        run("coset-counting", entry_name, check_coset_counting, pair, cfg)
        run("labels-stable", entry_name, check_labels_stable, pair, cfg)
        run("conjugation-isomorphism", entry_name,
            check_conjugation_isomorphism, pair, cfg)
        run("normalizer-contains", entry_name, check_normalizer_contains, pair, cfg)
        run("commensurations-symmetric", entry_name,
            check_commensurations_symmetric, pair, cfg)
        run("rep-completeness", entry_name, check_rep_completeness,
            pair, omega, cfg)
        run("induction-frobenius", entry_name, check_induction_frobenius, pair, cfg)
        run("inner-transport", entry_name, check_inner_transport, pair, cfg)
        run("equivalence-vs-hom", entry_name, check_equivalence_vs_hom, pair, cfg)
        bk = pair.hecke()
        for name, law in hecke_laws:
            run(name, entry_name, law, bk, cfg)
        run("hecke-frobenius-weighted", entry_name,
            check_hecke_frobenius_weighted, bk, cfg)
        run("lambda-trivial", entry_name, check_lambda_trivial_finite, bk, cfg)
        run("ext-associativity", entry_name, check_ext_associativity, pair, cfg)
        run("ext-frobenius", entry_name, check_ext_frobenius, pair, cfg)
        run("ext-homomorphisms", entry_name, check_ext_homomorphisms, pair, cfg)
        run("ext-dims-multiplicative", entry_name,
            check_ext_dims_multiplicative, pair, cfg)
        run("ext-overcount", entry_name, check_ext_overcount, pair, cfg)
        run("crossed-dim-identity", entry_name, check_crossed_dim, pair, cfg)
        run("representative-independence", entry_name,
            check_representative_independence, pair, cfg)
        run("elementary-cross-oracle", entry_name,
            check_elementary_cross_oracle, pair, cfg)
        if omega is not None:
            run("coboundary-multiplicative", entry_name,
                check_coboundary_multiplicative, pair, omega, cfg)
            run("cohomologous-equivalence", entry_name,
                check_cohomologous_equivalence, pair, omega, cfg)
            run("conjugation-identity", entry_name,
                check_conjugation_identity, pair, omega, cfg)
            if entry.omega[0] == "heisenberg":
                run("heisenberg-classification", entry_name,
                    check_heisenberg_classification, pair, omega, cfg, entry)
            run("elementary-associativity", entry_name,
                check_elementary_associativity, pair, omega, cfg)
            run("elementary-irreducibility", entry_name,
                check_elementary_irreducibility, pair, omega, cfg)
    return outcomes
