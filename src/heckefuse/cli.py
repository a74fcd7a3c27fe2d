"""Command-line interface.

Commands: list, cosets, hecke-mul, ext-basis, ext-mul, elem-mul, out-desc,
table, check.  All output is deterministic for a fixed catalog (and, for
check, a fixed --seed, which drives its sampling):
JSON is emitted with sorted keys, exact integers, fraction strings, and
character entries rounded to the 1e-6 grid.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import asdict
from pathlib import Path
from typing import Optional

from .catalog import (
    BUILTIN,
    CatalogEntry,
    build_backend,
    build_omega,
    build_omega_from_spec,
    build_pair,
    fusion_table,
    parse_catalog,
    parse_omega_spec,
)
from .checks import Config, run_checks
from .cocycle import Cocycle
from .elementary import (
    BimoduleSum,
    admissible_classes,
    fuse as elem_fuse,
    make,
)
from .exthecke import FinitePair, basis, dims, fuse, parse_ext_element
from .hecke import modular_lambda, parse_element
from .permcore import Perm, out_description

SCHEMA = 1


def load_catalog(path: Optional[str]) -> dict[str, CatalogEntry]:
    entries = dict(BUILTIN)
    if path:
        try:
            entries.update(parse_catalog(Path(path).read_text()))
        except (OSError, ValueError) as exc:
            raise SystemExit(f"cannot load catalog {path}: {exc}") from None
    return entries


def pick_entry(catalog: dict, name: str) -> CatalogEntry:
    if name not in catalog:
        known = ", ".join(sorted(catalog))
        raise SystemExit(f"unknown pair {name!r}; known: {known}")
    return catalog[name]


def pick_pair(catalog: dict, args) -> tuple[CatalogEntry, FinitePair]:
    """The entry named by --pair and its finite pair, within --max-group-order."""
    entry = pick_entry(catalog, args.pair)
    try:
        return entry, build_pair(entry, args.max_group_order)
    except ValueError as exc:  # not finite, too large, or a bad record
        raise SystemExit(f"cannot build pair {entry.name!r}: {exc}") from None


def emit(args, data, text: str) -> None:
    if args.format == "json":
        payload = json.dumps(data, sort_keys=True, indent=2)
        if args.out:
            Path(args.out).write_text(payload + "\n")
        else:
            print(payload)
    else:
        if args.out:
            Path(args.out).write_text(text + "\n")
        else:
            print(text)


def resolve_omega(args, entry: CatalogEntry, pair: FinitePair) -> Cocycle:
    spec = getattr(args, "omega", None)
    if spec in (None, "", "default"):
        built = build_omega(entry, pair)
        return built if built is not None else Cocycle.trivial(pair.gamma)
    if spec == "trivial":
        return Cocycle.trivial(pair.gamma)
    try:
        return build_omega_from_spec(parse_omega_spec(spec), entry, pair)
    except ValueError as exc:
        raise SystemExit(str(exc))


def omega_descriptor(entry: CatalogEntry, args) -> str:
    spec = getattr(args, "omega", None)
    if spec not in (None, "", "default"):
        return spec
    if entry.omega is not None:
        return " ".join(str(p) for p in entry.omega)
    return "trivial"


_ELEM_TERM = re.compile(r"(?:(\d+)\s*\*\s*)?H\(\s*(\([^)]*\)(?:\s*\([^)]*\))*|\(\))\s*,\s*(\d+)\s*\)")


def parse_elem_element(pair: FinitePair, omega: Cocycle, degree: int,
                       text: str) -> BimoduleSum:
    """Sums of H(<delta cycles>, <admissible class index>) with coefficients."""
    out: Optional[BimoduleSum] = None
    for term in text.split("+"):
        term = term.strip()
        m = _ELEM_TERM.fullmatch(term)
        if not m:
            raise SystemExit(f"cannot parse elementary term {term!r}")
        mult = int(m.group(1)) if m.group(1) else 1
        try:
            delta = Perm.parse(degree, m.group(2))
            classes = admissible_classes(pair, omega, delta)
        except ValueError as exc:
            raise SystemExit(f"cannot parse elementary term {term!r}: {exc}") from None
        idx = int(m.group(3))
        if idx >= len(classes):
            raise SystemExit(
                f"class index {idx} out of range ({len(classes)} admissible)")
        piece = BimoduleSum.of(make(pair, omega, delta, classes[idx].rep))
        piece = piece.scale(mult)
        out = piece if out is None else out + piece
    if out is None:
        raise SystemExit("empty elementary expression")
    return out


def elem_sum_json(pair: FinitePair, omega: Cocycle, total: BimoduleSum) -> list:
    terms = []
    for rep_obj, mult in total.items():
        label = rep_obj.delta
        classes = admissible_classes(pair, omega, label)
        index = [c.char for c in classes].index(rep_obj.rep.char_key())
        terms.append({
            "delta": label.cycle_string(),
            "class_index": index,
            "repclass": classes[index].to_json(),
            "mult": mult,
        })
    return terms


def elem_sum_text(terms: list) -> str:
    """The ``elem_sum_json`` terms in the grammar of ``parse_elem_element``."""
    bits = [f"H({t['delta']},{t['class_index']})" for t in terms]
    return " + ".join(b if t["mult"] == 1 else f"{t['mult']}*{b}"
                      for b, t in zip(bits, terms)) or "0"


# ------------------------------------------------------------------ commands

def cmd_list(args, catalog) -> int:
    rows = [{"name": e.name, "kind": e.kind, "note": e.note}
            for e in (catalog[k] for k in sorted(catalog))]
    text = "\n".join(f"{r['name']:<12} {r['kind']:<7} {r['note']}" for r in rows)
    emit(args, {"schema": SCHEMA, "pairs": rows}, text)
    return 0


def cmd_cosets(args, catalog) -> int:
    entry, pair = pick_pair(catalog, args)
    hk = pair.hecke()
    rows = []
    for dc in pair.cosets.cosets:
        rows.append({
            "name": hk.label_str(dc.label),
            "representative": dc.label.cycle_string(),
            "size": len(dc.idx),
            "left_count": dc.left_count,
            "right_count": dc.right_count,
            "little_order": len(dc.little),
            "lambda": str(modular_lambda(hk, dc.label)),
        })
    text = "\n".join(
        f"{r['name']:<3} rep {r['representative']:<14} size {r['size']:<4} "
        f"left {r['left_count']} right {r['right_count']} "
        f"little {r['little_order']} lambda {r['lambda']}" for r in rows)
    emit(args, {"schema": SCHEMA, "pair": entry.name, "cosets": rows}, text)
    return 0


def cmd_hecke_mul(args, catalog) -> int:
    entry = pick_entry(catalog, args.pair)
    backend = build_backend(entry, args.max_group_order)
    try:
        element = parse_element(backend, args.expr)
    except (ValueError, ZeroDivisionError) as exc:
        raise SystemExit(f"cannot evaluate {args.expr!r}: {exc}") from None
    emit(args, {"schema": SCHEMA, "backend": entry.name,
                "element": element.to_json()}, str(element))
    return 0


def cmd_ext_basis(args, catalog) -> int:
    entry, pair = pick_pair(catalog, args)
    rows = []
    for key, el in basis(pair):
        (label, parts), = el.support.items()
        (cls, _), = parts.items()
        left, right = dims(el)
        rows.append({"key": key, "dim": cls.dim, "dim_left": left,
                     "dim_right": right, "repclass": cls.to_json()})
    text = "\n".join(f"B[{r['key']}] dim {r['dim']} dims ({r['dim_left']}, "
                     f"{r['dim_right']})" for r in rows)
    emit(args, {"schema": SCHEMA, "pair": entry.name, "basis": rows}, text)
    return 0


def cmd_ext_mul(args, catalog) -> int:
    entry, pair = pick_pair(catalog, args)
    try:
        x, y = parse_ext_element(pair, args.x), parse_ext_element(pair, args.y)
    except ValueError as exc:
        raise SystemExit(f"cannot parse element: {exc}") from None
    product = fuse(x, y)
    terms = [{"z": z, "mult": mult} for z, mult in product.terms()]
    emit(args, {"schema": SCHEMA, "pair": entry.name,
                "x": args.x, "y": args.y, "terms": terms},
         str(product))
    return 0


def cmd_elem_mul(args, catalog) -> int:
    entry, pair = pick_pair(catalog, args)
    omega = resolve_omega(args, entry, pair)
    x = parse_elem_element(pair, omega, entry.degree, args.x)
    y = parse_elem_element(pair, omega, entry.degree, args.y)
    terms = elem_sum_json(pair, omega, elem_fuse(x, y))
    emit(args, {"schema": SCHEMA, "pair": entry.name,
                "omega": omega_descriptor(entry, args),
                "x": args.x, "y": args.y, "terms": terms},
         elem_sum_text(terms))
    return 0


def cmd_out_desc(args, catalog) -> int:
    entry, pair = pick_pair(catalog, args)
    desc = out_description(pair.gamma)
    data = {
        "schema": SCHEMA,
        "pair": entry.name,
        "char_invariants": list(desc.char_invariants),
        "char_modulus": desc.modulus,
        "characters": [list(c) for c in desc.char_exponents],
        "quotient_order": desc.quotient_order,
        "char_action": [
            {"representative": s.cycle_string(),
             "permutation": list(desc.char_action[s])}
            for s in desc.quotient_reps],
        "measure_factor": desc.measure_factor,
    }
    inv = "x".join(f"Z/{d}" for d in desc.char_invariants) or "trivial"
    text = (f"Char = {inv}; quotient of order {desc.quotient_order}; "
            f"measure factor {desc.measure_factor} (symbolic)")
    emit(args, data, text)
    return 0


def cmd_table(args, catalog) -> int:
    entry, pair = pick_pair(catalog, args)
    data = fusion_table(pair)
    text = (f"fusion table for {entry.name}: {len(data['basis'])} basis elements, "
            f"{len(data['products'])} products")
    if args.out:
        # a table written to a file is data, whatever the display format
        Path(args.out).write_text(json.dumps(data, sort_keys=True, indent=2) + "\n")
        if args.format == "text":
            print(text)
        return 0
    emit(args, data, text)
    return 0


def cmd_check(args, catalog) -> int:
    names = [pick_entry(catalog, args.pair).name] if args.pair else None
    outcomes = run_checks(names, catalog, Config(seed=args.seed, trials=args.trials,
                                                 max_order=args.max_group_order))
    passed = sum(o.passed for o in outcomes)
    lines = [f"ok   {o.name} [{o.target}]" if o.passed
             else f"FAIL {o.name} [{o.target}]: {o.detail}" for o in outcomes]
    lines.append(f"{passed}/{len(outcomes)} checks passed")
    emit(args, {"schema": SCHEMA, "outcomes": [asdict(o) for o in outcomes]},
         "\n".join(lines))
    return 0 if passed == len(outcomes) else 1


def main(argv: Optional[list[str]] = None) -> int:
    common = argparse.ArgumentParser(add_help=False)
    # shared flags are accepted both before and after the subcommand; the
    # subparser copies use SUPPRESS so they never clobber a top-level value
    common.add_argument("--catalog", default=argparse.SUPPRESS,
                        help="extra catalog file")
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    common.add_argument("--max-group-order", type=int, default=argparse.SUPPRESS)
    common.add_argument("--format", choices=("json", "text"),
                        default=argparse.SUPPRESS)
    common.add_argument("--out", default=argparse.SUPPRESS,
                        help="write output to a file")

    parser = argparse.ArgumentParser(
        prog="heckefuse",
        description="Hecke fusion algebras, projective representations, and "
                    "the elementary-bimodule fusion calculus")
    parser.add_argument("--catalog", help="extra catalog file")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--max-group-order", type=int, default=10_000)
    parser.add_argument("--format", choices=("json", "text"), default="text")
    parser.add_argument("--out", help="write output to a file")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="catalog entries", parents=[common])
    p = sub.add_parser("cosets", help="double-coset data of a finite pair",
                       parents=[common])
    p.add_argument("--pair", required=True)
    p = sub.add_parser("hecke-mul", help="evaluate a Hecke-algebra expression",
                       parents=[common])
    p.add_argument("--pair", required=True)
    p.add_argument("--expr", required=True)
    p = sub.add_parser("ext-basis", help="extended-algebra basis of a finite pair",
                       parents=[common])
    p.add_argument("--pair", required=True)
    p = sub.add_parser("ext-mul", help="fuse two extended-algebra elements",
                       parents=[common])
    p.add_argument("--pair", required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p = sub.add_parser("elem-mul", help="fuse two elementary bimodules",
                       parents=[common])
    p.add_argument("--pair", required=True)
    p.add_argument("--omega", help='"trivial", "heisenberg N k", or default')
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p = sub.add_parser("out-desc", help="outer-symmetry description of gamma",
                       parents=[common])
    p.add_argument("--pair", required=True)
    p = sub.add_parser("table", help="full fusion table of a finite pair",
                       parents=[common])
    p.add_argument("--pair", required=True)
    p = sub.add_parser("check", help="run the invariant suite", parents=[common])
    p.add_argument("--pair")
    p.add_argument("--trials", type=int, default=5)

    args = parser.parse_args(argv)
    catalog = load_catalog(args.catalog)
    handlers = {
        "list": cmd_list,
        "cosets": cmd_cosets,
        "hecke-mul": cmd_hecke_mul,
        "ext-basis": cmd_ext_basis,
        "ext-mul": cmd_ext_mul,
        "elem-mul": cmd_elem_mul,
        "out-desc": cmd_out_desc,
        "table": cmd_table,
        "check": cmd_check,
    }
    return handlers[args.command](args, catalog)


if __name__ == "__main__":
    sys.exit(main())
