"""Cold fusion tables reproduce the benchmark's reference digests.

Every ``table`` pool entry of ``perfbench/workloads.py`` (the catalog pairs
and every conjugate of each subgroup class) is built with the package caches
cleared, and the SHA-256 of its ``fusion_table`` is compared with its entry
in ``perfbench/references.json``.  That file is only read here.
"""

import importlib.util
import json
import sys
from pathlib import Path

import heckefuse
from heckefuse import catalog, elementary, hecke
from heckefuse.cocycle import Cocycle
from heckefuse.projrep import irreducibles

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_cold_fusion_tables_match_reference_digests():
    workloads = load_workloads()
    refs = json.loads((BENCH / "references.json").read_text())["table"]
    entries = [catalog.BUILTIN[n] for n in workloads.CATALOG_PAIRS]
    for group_name, class_name, gens in workloads.SUBGROUP_CLASSES:
        entries.extend(workloads.subgroup_pool(group_name, class_name, gens))
    assert sorted(e.name for e in entries) == sorted(refs)
    mismatched = []
    for entry in entries:
        heckefuse.clear_caches()
        table = catalog.fusion_table(catalog.build_pair(entry))
        if workloads.digest(table) != refs[entry.name]:
            mismatched.append(entry.name)
    assert mismatched == []


def module_caches() -> dict:
    return {f"{name}.{attr}": value
            for name, module in sorted(sys.modules.items())
            if name == "heckefuse" or name.startswith("heckefuse.")
            for attr, value in vars(module).items()
            if attr.startswith("_") and attr.isupper() and isinstance(value, dict)}


def test_clear_caches_empties_every_module_cache():
    pair = catalog.build_pair(catalog.BUILTIN["S3_in_S4"])
    catalog.fusion_table(pair)
    k_label = pair.labels()[1]
    a = elementary.make(pair, Cocycle.trivial(pair.gamma), k_label,
                        irreducibles(pair.little(k_label))[0].rep)
    elementary.fuse(a, a)
    hecke.primitive_hnf_reps(6)
    caches = module_caches()
    assert caches and all(caches.values())
    heckefuse.clear_caches()
    assert {name: len(value) for name, value in caches.items()} == \
        dict.fromkeys(caches, 0)
