"""Bundled pair/cocycle catalog, catalog-file parsing, and fusion tables.

Catalog text format, one record per pair, records separated by blank lines::

    name = D4_klein
    degree = 4
    G = ["(0 1 2 3)", "(1 3)"]
    Gamma = ["(0 1)(2 3)", "(0 2)(1 3)"]
    omega = heisenberg 2 1
    note = Klein four inside the dihedral group, with the nontrivial class

Cycle notation uses whitespace-separated 0-based points, fixed points
omitted.  Arithmetic backends are declared with ``kind = gl2`` or
``kind = bc`` instead of generators.  A "heisenberg N k" cocycle requires
the subgroup to be (Z/N)^2 generated by the two listed generators, which
become the coordinate axes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .cocycle import Cocycle, bilinear_cocycle
from .exthecke import FinitePair, basis_classes, basis_dims, basis_keys, structure_constants
from .hecke import BostConnesHecke, GL2Hecke, modular_lambda
from .permcore import DEFAULT_MAX_ORDER, FiniteGroup, Perm, Subgroup


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    kind: str = "finite"            # finite | gl2 | bc
    degree: int = 0
    g_gens: tuple = ()
    gamma_gens: tuple = ()
    omega: Optional[tuple] = None   # ("heisenberg", n, k) or ("table", modulus, triples)
    note: str = ""


BUILTIN = {
    "S3_in_S4": CatalogEntry(
        name="S3_in_S4", degree=4,
        g_gens=("(0 1)", "(0 1 2 3)"), gamma_gens=("(0 1)", "(0 1 2)"),
        note="point stabilizer inside the symmetric group on four points"),
    "Z3_regular": CatalogEntry(
        name="Z3_regular", degree=3,
        g_gens=("(0 1 2)",), gamma_gens=("(0 1 2)",),
        note="cyclic group acting regularly; interesting for outer symmetry"),
    "D4_klein": CatalogEntry(
        name="D4_klein", degree=4,
        g_gens=("(0 1 2 3)", "(1 3)"), gamma_gens=("(0 1)(2 3)", "(0 2)(1 3)"),
        omega=("heisenberg", 2, 1),
        note="Klein four inside the dihedral group, nontrivial cocycle class"),
    "Heis3": CatalogEntry(
        name="Heis3", degree=6,
        g_gens=("(0 1 2)", "(3 4 5)"), gamma_gens=("(0 1 2)", "(3 4 5)"),
        omega=("heisenberg", 3, 1),
        note="(Z/3)^2 with the generating cocycle class; one 3-dim irreducible"),
    "gl2": CatalogEntry(
        name="gl2", kind="gl2",
        note="SL(2,Z) inside rational matrices of positive determinant"),
    "bc": CatalogEntry(
        name="bc", kind="bc",
        note="integer translations inside the rational ax+b group"),
}


def parse_omega_spec(text: str):
    """Either "heisenberg N k" or "table m g h e; g h e; ..." (indices into
    the canonical element order of the subgroup; unlisted pairs are zero)."""
    parts = text.split()
    if parts and parts[0] == "heisenberg":
        if len(parts) != 3:
            raise ValueError(f"heisenberg spec needs N and k: {text!r}")
        return ("heisenberg", int(parts[1]), int(parts[2]))
    if parts and parts[0] == "table":
        body = text.split(None, 1)[1]
        m_text, _, triples_text = body.partition(" ")
        modulus = int(m_text)
        triples = []
        for chunk in triples_text.split(";"):
            chunk = chunk.strip()
            if not chunk:
                continue
            g, h, e = (int(t) for t in chunk.split())
            triples.append((g, h, e))
        return ("table", modulus, tuple(triples))
    raise ValueError(f"unsupported cocycle spec: {text!r}")


def _string_list(text: str) -> tuple:
    """A JSON list of strings, as a tuple; a ValueError otherwise."""
    items = json.loads(text)
    if not isinstance(items, list) or not all(isinstance(t, str) for t in items):
        raise ValueError(f"expected a JSON list of strings, got {text!r}")
    return tuple(items)


def parse_catalog(text: str) -> dict[str, CatalogEntry]:
    entries = {}
    block: dict[str, str] = {}

    def flush():
        if not block:
            return
        name = block.get("name")
        if not name:
            raise ValueError("catalog record without a name")
        kind = block.get("kind", "finite")
        if kind in ("gl2", "bc"):
            entries[name] = CatalogEntry(name=name, kind=kind,
                                         note=block.get("note", ""))
            block.clear()
            return

        def field(key, parse):
            if key not in block:
                raise ValueError(f"catalog record {name!r} lacks the key {key!r}")
            try:
                return parse(block[key])
            except ValueError as exc:
                raise ValueError(
                    f"catalog record {name!r}, key {key!r}: {exc}") from None

        omega = field("omega", parse_omega_spec) if "omega" in block else None
        entries[name] = CatalogEntry(
            name=name, kind="finite", degree=field("degree", int),
            g_gens=field("G", _string_list), gamma_gens=field("Gamma", _string_list),
            omega=omega, note=block.get("note", ""))
        block.clear()

    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            if not line:
                flush()
            continue
        if "=" not in line:
            raise ValueError(f"catalog line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        block[key.strip()] = value.strip()
    flush()
    return entries


def build_pair(entry: CatalogEntry,
               max_order: int = DEFAULT_MAX_ORDER) -> FinitePair:
    if entry.kind != "finite":
        raise ValueError(f"{entry.name} is not a finite pair")
    g_gens = [Perm.parse(entry.degree, s) for s in entry.g_gens]
    gamma_gens = [Perm.parse(entry.degree, s) for s in entry.gamma_gens]
    group = FiniteGroup.generate(entry.degree, g_gens, max_order)
    if not group.contains_subset(gamma_gens):
        raise ValueError("subgroup elements must lie in the parent group")
    return FinitePair(group, Subgroup._of(group, group.span(gamma_gens)), name=entry.name)


def heisenberg_chart(entry: CatalogEntry, group: FiniteGroup, n: int) -> dict:
    """The chart a^x b^y -> (x, y) of group as (Z/n)^2, with a and b the
    entry's first two subgroup generators."""
    a, b = (Perm.parse(entry.degree, s) for s in entry.gamma_gens[:2])
    coords = {(a ** x) * (b ** y): (x, y) for x in range(n) for y in range(n)}
    if len(coords) != len(group):
        raise ValueError(
            f"{entry.name}: subgroup is not (Z/{n})^2 on the listed generators")
    return coords


def build_omega_from_spec(spec, entry: CatalogEntry,
                          pair: FinitePair) -> Cocycle:
    tag = spec[0]
    if tag == "heisenberg":
        _, n, k = spec
        return bilinear_cocycle(pair.gamma, heisenberg_chart(entry, pair.gamma, n),
                                n, k)
    if tag == "table":
        _, modulus, triples = spec
        n = len(pair.gamma)
        table = [[0] * n for _ in range(n)]
        for g, h, e in triples:
            table[g][h] = e
        return Cocycle(pair.gamma, modulus, table)
    raise ValueError(f"unknown cocycle spec {spec!r}")


def build_omega(entry: CatalogEntry, pair: FinitePair) -> Optional[Cocycle]:
    if entry.omega is None:
        return None
    return build_omega_from_spec(entry.omega, entry, pair)


def build_backend(entry: CatalogEntry, max_order: int = DEFAULT_MAX_ORDER):
    if entry.kind == "gl2":
        return GL2Hecke()
    if entry.kind == "bc":
        return BostConnesHecke()
    return build_pair(entry, max_order).hecke()


def fusion_table(pair: FinitePair) -> dict:
    """The complete fusion data of the extended algebra, JSON-ready.

    Multiplicities are exact integers; representation classes serialize as
    dimension plus rounded character; lambda values are fraction strings.
    The basis is listed in ``basis`` order, each element with its key,
    label, class and dimensions (``basis_keys``, ``basis_classes``,
    ``basis_dims``), and no element is built.  Basis products are read from
    the structure constants N, their terms in basis order, like
    ``ExtHeckeElement.terms``: labels, then class indices.
    """
    hk = pair.hecke()
    names = {label: hk.label_str(label) for label in pair.labels()}
    keys, basis_json = basis_keys(pair), []
    for key, (label, cls), (left, right) in zip(keys, basis_classes(pair),
                                                basis_dims(pair).tolist()):
        basis_json.append({
            "key": key,
            "label": names[label],
            "class_index": pair.class_index(label)[cls],
            "repclass": cls.to_json(),
            "dim_left": left,
            "dim_right": right,
        })
    consts, n = structure_constants(pair).whole(), len(keys)
    terms = [[] for _ in range(n * n)]  # per (x, y), in order of z
    at = np.flatnonzero(consts)
    for xy, z, mult in zip((at // n).tolist(), (at % n).tolist(),
                           consts.ravel()[at].tolist()):
        terms[xy].append({"z": keys[z], "mult": mult})
    products = [{"x": kx, "y": ky, "terms": terms[x * n + y]}
                for x, kx in enumerate(keys) for y, ky in enumerate(keys)]
    lambdas = [{"label": names[label],
                "value": str(modular_lambda(hk, label))}
               for label in pair.labels()]
    return {
        "schema": 1,
        "pair": pair.name,
        "group_order": len(pair.group),
        "subgroup_order": len(pair.gamma),
        "basis": basis_json,
        "products": products,
        "lambda": lambdas,
    }
