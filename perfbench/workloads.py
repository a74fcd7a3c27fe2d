"""The benchmark workloads: seeded input generation and one pass each.

Every call into heckefuse goes through a module attribute
(``catalog.fusion_table``, not a name imported from it), so the tracer's
rebinding catches it.  Each workload draws its inputs from fixed pools whose
outputs have reference digests in ``references.json``; the seed picks pool
members and their order, so any seed's outputs can be checked and two seeds
do comparable work.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from dataclasses import asdict

from heckefuse import catalog, checks, cocycle, hecke, permcore, projrep

CATALOG_PAIRS = ("D4_klein", "Heis3", "S3_in_S4", "Z3_regular")

GROUPS = {
    "S4": (4, ("(0 1)", "(0 1 2 3)")),
    "A5": (5, ("(0 1 2)", "(0 1 2 3 4)")),
    "S5": (5, ("(0 1)", "(0 1 2 3 4)")),
}

# One representative per conjugacy class of subgroups, orders 3 to 24.  Each
# class costs 0.05-0.6 s per fusion table on a 2-core x86 host; conjugates
# cost about the same, which keeps work comparable across seeds.  The normal
# Klein four in S4 (1.3 s, no conjugates to choose from) is left out.
SUBGROUP_CLASSES = (
    ("S4", "C3", ("(0 1 2)",)),
    ("S4", "C4", ("(0 1 2 3)",)),
    ("S4", "S3", ("(0 1)", "(0 1 2)")),
    ("S4", "D4", ("(0 1 2 3)", "(0 2)")),
    ("A5", "V4", ("(0 1)(2 3)", "(0 2)(1 3)")),
    ("A5", "C5", ("(0 1 2 3 4)",)),
    ("A5", "S3", ("(0 1 2)", "(0 1)(3 4)")),
    ("A5", "D5", ("(0 1 2 3 4)", "(1 4)(2 3)")),
    ("A5", "A4", ("(0 1 2)", "(0 1)(2 3)")),
    ("S5", "D4", ("(0 1 2 3)", "(0 2)")),
    ("S5", "D5", ("(0 1 2 3 4)", "(1 4)(2 3)")),
    ("S5", "A4", ("(0 1 2)", "(0 1)(2 3)")),
    ("S5", "F20", ("(0 1 2 3 4)", "(1 2 4 3)")),
    ("S5", "S4", ("(0 1)", "(0 1 2 3)")),
)

# Regular representations of orders 36 and 48 (0.5 and 1.3 s).  A5 (order
# 60, 3.3 s) is left out: the host speed is sampled between ops, and it
# drifts within an op that long.
IRREDUCIBLE_GROUPS = {
    "S3xS3": (6, ("(0 1)", "(0 1 2)", "(3 4)", "(3 4 5)")),
    "S4xZ2": (6, ("(0 1)", "(0 1 2 3)", "(4 5)")),
}
COHOMOLOGY_N = 4    # cocycle classes k = 0..3 on (Z/4)^2, about 0.65 s a pair
# Composite products of one cost band each: GL2 0.64-0.70 s, the same band
# as a cohomology pair, and BC 0.35-0.40 s.  Bands this narrow keep the
# median and tail op of a pass on the same kind of op for every seed.
GL2_POOL = ("T[1,30]*T[1,66]", "T[1,30]*T[1,78]", "T[1,30]*T[1,105]",
            "T[1,42]*T[1,66]")
BC_POOL = ("T[1/105;0]*T[1/110;0]", "T[1/105;0]*T[1/210;0]",
           "T[1/110;0]*T[1/154;0]", "T[1/110;0]*T[1/165;0]",
           "T[1/110;0]*T[1/182;0]", "T[1/110;0]*T[1/210;0]",
           "T[1/130;0]*T[1/154;0]", "T[1/130;0]*T[1/182;0]")
SCALE_DRAWS = {"cohomologous": 2, "gl2": 2, "bc": 2}


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def make_group(degree: int, gens) -> permcore.FiniteGroup:
    return permcore.FiniteGroup.generate(
        degree, [permcore.Perm.parse(degree, s) for s in gens])


def subgroup_pool(group_name: str, class_name: str, gens) -> list:
    """Catalog entries for every conjugate of <gens> in the named group.

    Conjugates are listed in the order their first conjugator appears in the
    group's sorted element list, so entry names are stable.
    """
    degree, g_gens = GROUPS[group_name]
    group = make_group(degree, g_gens)
    base = make_group(degree, gens)
    seen, out = set(), []
    for c in group.elements:
        key = frozenset(h.conjugate(c).images for h in base.elements)
        if key in seen:
            continue
        seen.add(key)
        out.append(catalog.CatalogEntry(
            name=f"{group_name}.{class_name}.{len(out)}", degree=degree,
            g_gens=g_gens,
            gamma_gens=tuple(permcore.Perm.parse(degree, s).conjugate(c)
                             .cycle_string() for s in gens)))
    return out


class Workload:
    """Inputs made from a seed, plus ``run_pass`` that records its ops.

    Every pass starts with the package caches cleared, as a fresh
    ``heckefuse`` process would.  ``min_passes`` is the least number of
    passes an end-to-end run makes; it fixes the tail percentile.
    """

    name = ""
    min_passes = 2

    def __init__(self, seed: int, references: dict, tiny: bool = False):
        self.refs = references.get(self.name, {})

    def inputs(self):
        """JSON-able description of the generated inputs."""
        raise NotImplementedError

    def work(self):
        """What two seeds must share for their work to be comparable."""
        raise NotImplementedError

    def run_pass(self, rec) -> None:
        raise NotImplementedError


class TableWorkload(Workload):
    """Cold ``fusion_table`` of catalog pairs and seeded subgroup pairs."""

    name = "table"
    min_passes = 3

    def __init__(self, seed, references, tiny=False):
        super().__init__(seed, references, tiny)
        rng = random.Random(f"table:{seed}")
        entries = [catalog.BUILTIN[n] for n in CATALOG_PAIRS]
        classes = [c for c in SUBGROUP_CLASSES if not tiny or c[0] == "S4"]
        for group_name, class_name, gens in classes:
            pool = subgroup_pool(group_name, class_name, gens)
            entries.append(pool[rng.randrange(len(pool))])
        rng.shuffle(entries)
        self.entries = entries

    def inputs(self):
        return [[e.name, list(e.gamma_gens)] for e in self.entries]

    def work(self):
        return sorted(e.name.rsplit(".", 1)[0] for e in self.entries)

    def run_pass(self, rec):
        for entry in self.entries:
            with rec.op(entry.name) as op:
                table = catalog.fusion_table(catalog.build_pair(entry))
                op.ok = digest(table) == self.refs.get(entry.name)


class CheckWorkload(Workload):
    """``run_checks`` on the built-in catalog; an op is one ``check_*`` call.

    The outcome list is not digested: an op fails when its outcome is not
    passed, so a later honest status other than pass/fail needs no new
    references.
    """

    name = "check"

    def __init__(self, seed, references, tiny=False):
        super().__init__(seed, references, tiny)
        self.cfg = checks.Config(seed=seed)
        self.entry_names = ["Z3_regular", "gl2"] if tiny else None

    def inputs(self):
        return {"config": asdict(self.cfg), "entries": self.entry_names}

    def work(self):
        return self.entry_names

    def run_pass(self, rec):
        ops, depth = [], [0]

        def timed(fn, label):
            def call(*args, **kwargs):
                if depth[0]:
                    return fn(*args, **kwargs)
                depth[0] += 1
                op = rec.begin(label)
                try:
                    return fn(*args, **kwargs)
                finally:
                    rec.end(op)
                    ops.append(op)
                    depth[0] -= 1
            return call

        bound = {n: f for n, f in vars(checks).items()
                 if n.startswith("check_") and callable(f)}
        for n, f in bound.items():
            setattr(checks, n, timed(f, n))
        try:
            outcomes = checks.run_checks(self.entry_names, cfg=self.cfg)
        except Exception as exc:  # noqa: BLE001 - the pass fails, the run goes on
            outcomes = []
            ops.append(rec.failed_op("run_checks", exc))
        finally:
            for n, f in bound.items():
                setattr(checks, n, f)
        if len(outcomes) != len(ops):
            for op in ops:
                op.ok = False
            return
        for op, outcome in zip(ops, outcomes):
            op.ok = outcome.passed


class ScaleItem:
    """One ``scale`` op: ``fn(*args)`` gives the output to digest."""

    def __init__(self, kind: str, label: str, fn, *args):
        self.kind, self.label, self.fn, self.args = kind, label, fn, args

    def run(self):
        return self.fn(*self.args)


def irreducible_classes(name: str) -> list:
    degree, gens = IRREDUCIBLE_GROUPS[name]
    return [c.to_json() for c in projrep.irreducibles(make_group(degree, gens))]


def cohomology_classes():
    group, coords, _ = cocycle.heisenberg_cocycle(COHOMOLOGY_N, 0)
    return group, [cocycle.bilinear_cocycle(group, coords, COHOMOLOGY_N, k)
                   for k in range(COHOMOLOGY_N)]


def cohomology_verdict(k1: int, k2: int, a, b) -> list:
    """Verdict on cocycles a, b from classes k1, k2.  The reference is the
    untwisted pair's verdict, which coboundary twists must not change."""
    return [k1, k2, cocycle.are_cohomologous(a, b)]


def product(kind: str, expr: str) -> list:
    backend = hecke.GL2Hecke() if kind == "gl2" else hecke.BostConnesHecke()
    return hecke.parse_element(backend, expr).to_json()


class ScaleWorkload(Workload):
    """Larger single inputs with no fusion: irreducibles of regular
    representations, cohomology of twisted (Z/4)^2 cocycles, GL2 and BC
    products."""

    name = "scale"
    min_passes = 3

    def __init__(self, seed, references, tiny=False):
        super().__init__(seed, references, tiny)
        rng = random.Random(f"scale:{seed}")
        group, classes = cohomology_classes()
        e_idx = group.index_of(group.identity)

        def twisted(k):
            phi = cocycle.PhaseFunction(group, COHOMOLOGY_N, [
                0 if i == e_idx else rng.randrange(COHOMOLOGY_N)
                for i in range(len(group))])
            return classes[k] * phi.coboundary()

        draws = {k: 1 for k in SCALE_DRAWS} if tiny else SCALE_DRAWS
        names = ["S3xS3"] if tiny else list(IRREDUCIBLE_GROUPS)
        items = [ScaleItem("irreducibles", f"irreducibles {n}",
                           irreducible_classes, n) for n in names]
        for _ in range(draws["cohomologous"]):
            k1, k2 = rng.randrange(COHOMOLOGY_N), rng.randrange(COHOMOLOGY_N)
            items.append(ScaleItem("cohomologous", f"cohomologous {k1} {k2}",
                                   cohomology_verdict, k1, k2,
                                   twisted(k1), twisted(k2)))
        for kind, pool in (("gl2", GL2_POOL), ("bc", BC_POOL)):
            items.extend(ScaleItem(kind, f"{kind} {expr}", product, kind, expr)
                         for expr in rng.sample(pool, draws[kind]))
        rng.shuffle(items)
        self.items = items

    def inputs(self):
        return [[it.label, digest([a.table for a in it.args
                                   if isinstance(a, cocycle.Cocycle)])]
                for it in self.items]

    def work(self):
        return sorted(it.label if it.kind == "irreducibles" else it.kind
                      for it in self.items)

    def run_pass(self, rec):
        for it in self.items:
            with rec.op(it.label) as op:
                op.ok = digest(it.run()) == self.refs.get(it.label)


WORKLOADS = {w.name: w for w in (TableWorkload, CheckWorkload, ScaleWorkload)}


def clearable_caches() -> list:
    """Every module-level cache in the package: upper-case private dicts and
    ``lru_cache`` functions.  Collect before the tracer wraps anything."""
    found = []
    for name, mod in sorted(sys.modules.items()):
        if not (name == "heckefuse" or name.startswith("heckefuse.")):
            continue
        for attr, value in vars(mod).items():
            if attr.startswith("_") and attr.isupper() and isinstance(value, dict):
                found.append(value.clear)
            elif hasattr(value, "cache_clear"):
                found.append(value.cache_clear)
    return found
