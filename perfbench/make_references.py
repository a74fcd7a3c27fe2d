"""Write references.json: the SHA-256 of every output a workload can check.

    python3 perfbench/make_references.py

Covers every pool member any seed can draw: the catalog pairs and every
conjugate of each subgroup class (table), and every irreducibles
group, cocycle class pair and product label (scale).  Run it only on a commit
whose outputs are trusted; the file is what later commits are checked
against.  Takes about a minute on a 2-core host.
"""

from __future__ import annotations

import json
import sys

import run

run.import_package()

import workloads  # noqa: E402
from heckefuse import catalog  # noqa: E402

CLEAR = workloads.clearable_caches()


def cold() -> None:
    for fn in CLEAR:
        fn()


def table_digests() -> dict:
    entries = [catalog.BUILTIN[n] for n in workloads.CATALOG_PAIRS]
    for group_name, class_name, gens in workloads.SUBGROUP_CLASSES:
        entries.extend(workloads.subgroup_pool(group_name, class_name, gens))
    out = {}
    for entry in entries:
        cold()
        out[entry.name] = workloads.digest(
            catalog.fusion_table(catalog.build_pair(entry)))
        print(entry.name, file=sys.stderr)
    return out


def scale_digests() -> dict:
    out = {}
    for name in workloads.IRREDUCIBLE_GROUPS:
        cold()
        out[f"irreducibles {name}"] = workloads.digest(
            workloads.irreducible_classes(name))
    _, classes = workloads.cohomology_classes()
    n = workloads.COHOMOLOGY_N
    for k1 in range(n):
        for k2 in range(n):
            out[f"cohomologous {k1} {k2}"] = workloads.digest(
                workloads.cohomology_verdict(k1, k2, classes[k1], classes[k2]))
    for kind, pool in (("gl2", workloads.GL2_POOL), ("bc", workloads.BC_POOL)):
        for expr in pool:
            out[f"{kind} {expr}"] = workloads.digest(workloads.product(kind, expr))
    return out


def main() -> int:
    refs = {"source": run.source_identity(),
            "table": table_digests(), "scale": scale_digests()}
    run.REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    print(f"wrote {run.REFERENCES}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
