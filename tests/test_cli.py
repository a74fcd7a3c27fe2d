import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import heckefuse
from heckefuse.catalog import (
    build_omega,
    build_pair,
    parse_catalog,
    parse_omega_spec,
)
from heckefuse.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_list(capsys):
    code, out = run(capsys, "list")
    assert code == 0
    for name in ("S3_in_S4", "D4_klein", "gl2", "bc"):
        assert name in out


def test_python_dash_m_runs_the_cli():
    src = Path(heckefuse.__file__).parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-m", "heckefuse", "list"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    for name in ("S3_in_S4", "D4_klein", "gl2", "bc"):
        assert name in done.stdout


def test_hecke_mul_pinned_example(capsys):
    code, out = run(capsys, "hecke-mul", "--pair", "S3_in_S4",
                    "--expr", "T[K]*T[K]")
    assert code == 0
    assert out.strip() == "3*e + 2*T[K]"


def test_hecke_mul_gl2_and_bc(capsys):
    _, out = run(capsys, "hecke-mul", "--pair", "gl2", "--expr", "T[1,2]*T[1,3]")
    assert out.strip() == "T[1,6]"
    _, out = run(capsys, "hecke-mul", "--pair", "bc", "--expr", "T[2;0]*T[3;0]")
    assert out.strip() == "T[6;0]"


def test_hecke_mul_json(capsys):
    code, out = run(capsys, "--format", "json", "hecke-mul",
                    "--pair", "S3_in_S4", "--expr", "T[K]*T[K]")
    data = json.loads(out)
    assert data["schema"] == 1
    assert data["element"] == [{"label": "e", "coeff": 3},
                               {"label": "K", "coeff": 2}]


def test_cosets_json(capsys):
    code, out = run(capsys, "cosets", "--pair", "S3_in_S4", "--format", "json")
    data = json.loads(out)
    assert [c["size"] for c in data["cosets"]] == [6, 18]
    assert [c["lambda"] for c in data["cosets"]] == ["1", "1"]


def test_table_output(tmp_path, capsys):
    target = tmp_path / "table.json"
    code, _ = run(capsys, "table", "--pair", "S3_in_S4", "--format", "json",
                  "--out", str(target))
    assert code == 0
    data = json.loads(target.read_text())
    assert data["schema"] == 1
    assert len(data["basis"]) == 5
    assert len(data["products"]) == 25


def test_table_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run(capsys, "table", "--pair", "D4_klein", "--format", "json", "--out", str(a))
    run(capsys, "--seed", "0", "table", "--pair", "D4_klein", "--format", "json",
        "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_ext_basis_and_mul(capsys):
    _, out = run(capsys, "ext-basis", "--pair", "S3_in_S4")
    assert out.count("B[") == 5
    code, out = run(capsys, "--format", "json", "ext-mul", "--pair", "S3_in_S4",
                    "--x", "B[K:1]", "--y", "B[K:1]")
    data = json.loads(out)
    assert sum(t["mult"] for t in data["terms"]) >= 2
    assert {t["z"].split(":")[0] for t in data["terms"]} == {"e", "K"}


def test_elem_mul_default_omega(capsys):
    code, out = run(capsys, "elem-mul", "--pair", "D4_klein",
                    "--x", "H((0 1 2 3),0)", "--y", "H((0 1 2 3),0)")
    assert code == 0
    assert out.strip().startswith("H(")


def test_elem_mul_trivial_omega_matches_ext(capsys):
    _, elem_out = run(capsys, "--format", "json", "elem-mul", "--pair", "S3_in_S4",
                      "--omega", "trivial", "--x", "H((2 3),1)", "--y", "H((2 3),1)")
    data = json.loads(elem_out)
    assert data["omega"] == "trivial"
    assert sum(t["mult"] * t["repclass"]["dim"] for t in data["terms"]) == 5


def test_out_desc(capsys):
    code, out = run(capsys, "--format", "json", "out-desc", "--pair", "Z3_regular")
    data = json.loads(out)
    assert data["char_invariants"] == [3]
    assert data["quotient_order"] == 2
    assert data["measure_factor"] == "Aut(X0,mu0)"
    nontrivial = [a for a in data["char_action"] if a["representative"] != "()"]
    assert nontrivial and nontrivial[0]["permutation"] != [0, 1, 2]


def test_check_command(capsys):
    code, out = run(capsys, "check", "--pair", "Z3_regular", "--trials", "2")
    assert code == 0
    assert "checks passed" in out
    assert "FAIL" not in out


# SHA-256 of the stdout of `heckefuse check --seed 0`: 110 checks on the
# built-in catalog, the same for seeds 1 and 701.  A change that adds or
# renames a check updates it.
CHECK_SEED0_SHA256 = "9cba29d4c101abc3ed3ed8f3505581e705ba9a1c2fb5d87c7e1b71a8b1ee48a2"


def test_check_output_is_pinned(capsys):
    heckefuse.clear_caches()
    code, out = run(capsys, "check", "--seed", "0")
    assert code == 0
    assert out.splitlines()[-1] == "110/110 checks passed"
    assert hashlib.sha256(out.encode()).hexdigest() == CHECK_SEED0_SHA256


def test_check_report_goes_through_the_output_flags(tmp_path, capsys):
    out = tmp_path / "o.json"
    code, printed = run(capsys, "check", "--pair", "Z3_regular", "--format", "json",
                        "--out", str(out))
    assert code == 0 and printed == ""
    data = json.loads(out.read_text())
    assert data["schema"] == 1 and data["outcomes"]
    assert all(set(o) == {"name", "target", "passed", "detail"} and o["passed"]
               and o["target"] == "Z3_regular" for o in data["outcomes"])
    _, text = run(capsys, "check", "--pair", "Z3_regular")
    assert [line.split()[1] for line in text.splitlines()[:-1]] == [
        o["name"] for o in data["outcomes"]]


def test_unknown_pair_errors(capsys):
    with pytest.raises(SystemExit):
        main(["cosets", "--pair", "nope"])


@pytest.mark.parametrize("argv, detail", [
    (["hecke-mul", "--pair", "bc", "--expr", "T[1;x]"], "'x'"),
    (["hecke-mul", "--pair", "bc", "--expr", "T[1;1/0]"], "Fraction(1, 0)"),
    (["hecke-mul", "--pair", "gl2", "--expr", "T[0,1]"], "not a valid label: 0,1"),
    (["hecke-mul", "--pair", "S3_in_S4", "--expr", "T[ZZ]"], "'ZZ'"),
    (["ext-mul", "--pair", "S3_in_S4", "--x", "B[Q:0]", "--y", "B[K:0]"], "'Q'"),
    (["ext-mul", "--pair", "S3_in_S4", "--x", "B[K:0]", "--y", "B[K:9]"],
     "class index 9"),
    (["hecke-mul", "--pair", "D4_klein", "--expr", "T[(0 1)]"],
     "(0 1) is not an element of G"),
    (["ext-mul", "--pair", "D4_klein", "--x", "B[(0 1):0]", "--y", "B[e:0]"],
     "(0 1) is not an element of G"),
    (["elem-mul", "--pair", "D4_klein", "--x", "H((0 1),0)", "--y", "H((),0)"],
     "'H((0 1),0)': element must lie in the parent group"),
    (["elem-mul", "--pair", "D4_klein", "--x", "H((0 9),0)", "--y", "H((),0)"],
     "point 9 out of range"),
    (["cosets", "--pair", "gl2"], "gl2 is not a finite pair"),
    (["ext-basis", "--pair", "gl2"], "gl2 is not a finite pair"),
    (["ext-mul", "--pair", "bc", "--x", "B[e:0]", "--y", "B[e:0]"],
     "bc is not a finite pair"),
    (["elem-mul", "--pair", "gl2", "--x", "H((),0)", "--y", "H((),0)"],
     "gl2 is not a finite pair"),
    (["out-desc", "--pair", "bc"], "bc is not a finite pair"),
    (["table", "--pair", "bc"], "bc is not a finite pair"),
    (["table", "--pair", "S3_in_S4", "--max-group-order", "3"],
     "closure exceeds 3 elements"),
    (["check", "--pair", "nosuch"], "unknown pair 'nosuch'"),
])
def test_bad_expression_exits_with_one_line(argv, detail):
    with pytest.raises(SystemExit) as err:
        main(argv)
    message = str(err.value)
    assert detail in message and "\n" not in message


def test_custom_catalog_file(tmp_path, capsys):
    catalog = tmp_path / "extra.cat"
    catalog.write_text(
        "name = S3_in_S3\n"
        "degree = 3\n"
        'G = ["(0 1)", "(0 1 2)"]\n'
        'Gamma = ["(0 1)", "(0 1 2)"]\n'
        "note = whole group as its own subgroup\n"
        "\n"
        "name = klein_table\n"
        "degree = 4\n"
        'G = ["(0 1)(2 3)", "(0 2)(1 3)"]\n'
        'Gamma = ["(0 1)(2 3)", "(0 2)(1 3)"]\n'
        "omega = table 2 1 2 1; 1 3 1; 3 2 1; 3 3 1; 2 2 1; 2 1 1; 1 1 1; 3 1 1\n"
    )
    code, out = run(capsys, "--catalog", str(catalog), "cosets",
                    "--pair", "S3_in_S3", "--format", "json")
    data = json.loads(out)
    assert len(data["cosets"]) == 1


def test_catalog_record_without_gamma_exits_with_one_line(tmp_path):
    catalog = tmp_path / "f.cat"
    catalog.write_text('name = no_gamma\ndegree = 3\nG = ["(0 1 2)"]\n')
    with pytest.raises(SystemExit) as err:
        main(["--catalog", str(catalog), "list"])
    message = str(err.value)
    assert str(catalog) in message and "'Gamma'" in message
    assert "\n" not in message


def test_missing_catalog_file_exits_with_one_line(tmp_path):
    missing = tmp_path / "missing.cat"
    with pytest.raises(SystemExit) as err:
        main(["--catalog", str(missing), "check"])
    message = str(err.value)
    assert str(missing) in message and "No such file" in message
    assert "\n" not in message


# ------------------------------------------------------------ catalog parsing

def test_parse_catalog_round_trip():
    text = (
        "# a comment\n"
        "name = demo\n"
        "degree = 4\n"
        'G = ["(0 1)", "(0 1 2 3)"]\n'
        'Gamma = ["(0 1)", "(0 1 2)"]\n'
        "omega = heisenberg 2 1\n"
        "\n"
        "name = arith\n"
        "kind = bc\n"
    )
    entries = parse_catalog(text)
    assert set(entries) == {"demo", "arith"}
    assert entries["demo"].omega == ("heisenberg", 2, 1)
    assert entries["arith"].kind == "bc"


def test_parse_omega_spec_forms():
    assert parse_omega_spec("heisenberg 3 2") == ("heisenberg", 3, 2)
    spec = parse_omega_spec("table 2 1 1 1; 2 3 1")
    assert spec == ("table", 2, ((1, 1, 1), (2, 3, 1)))
    with pytest.raises(ValueError):
        parse_omega_spec("mystery 1")


def test_build_omega_table_form():
    # an explicit-table cocycle on the Klein group: the y*x' bilinear form
    from heckefuse.catalog import CatalogEntry, build_omega_from_spec
    entry = CatalogEntry(
        name="k", degree=4,
        g_gens=("(0 1)(2 3)", "(0 2)(1 3)"),
        gamma_gens=("(0 1)(2 3)", "(0 2)(1 3)"))
    from heckefuse.permcore import Perm
    pair = build_pair(entry)
    gamma = pair.gamma
    coords = {}
    a = Perm.parse(4, "(0 1)(2 3)")
    b = Perm.parse(4, "(0 2)(1 3)")
    for x in range(2):
        for y in range(2):
            coords[(a ** x) * (b ** y)] = (x, y)
    triples = []
    for i, g in enumerate(gamma.elements):
        for j, h in enumerate(gamma.elements):
            e = (coords[g][1] * coords[h][0]) % 2
            if e:
                triples.append((i, j, e))
    spec = ("table", 2, tuple(triples))
    omega = build_omega_from_spec(spec, entry, pair)
    assert not omega.is_trivial_table()


def test_build_omega_rejects_bad_subgroup():
    from heckefuse.catalog import CatalogEntry
    entry = CatalogEntry(
        name="bad", degree=4,
        g_gens=("(0 1 2 3)",), gamma_gens=("(0 1 2 3)", "(0 2)(1 3)"),
        omega=("heisenberg", 2, 1))
    pair = build_pair(entry)
    with pytest.raises(ValueError):
        build_omega(entry, pair)


FINITE_RECORD = {
    "degree": "degree = 4",
    "G": 'G = ["(0 1)", "(0 1 2 3)"]',
    "Gamma": 'Gamma = ["(0 1)", "(0 1 2)"]',
}


@pytest.mark.parametrize("key", sorted(FINITE_RECORD))
def test_parse_catalog_names_a_missing_key(key):
    lines = ["name = partial"] + [v for k, v in FINITE_RECORD.items() if k != key]
    with pytest.raises(ValueError, match=f"'partial'.*'{key}'"):
        parse_catalog("\n".join(lines) + "\n")


def test_parse_catalog_names_a_malformed_list():
    text = ("name = broken\ndegree = 4\n"
            'G = ["(0 1)", "(0 1 2 3)"\nGamma = ["(0 1)"]\n')
    with pytest.raises(ValueError, match="'broken', key 'G'"):
        parse_catalog(text)
    with pytest.raises(ValueError, match="'broken', key 'Gamma'"):
        parse_catalog(text.replace('"(0 1 2 3)"\n', '"(0 1 2 3)"]\n')
                      .replace('["(0 1)"]', '"(0 1)"'))


BAD_OMEGA_RECORD = (
    "name = klein_heis3\n"
    "degree = 4\n"
    'G = ["(0 1)(2 3)", "(0 2)(1 3)"]\n'
    'Gamma = ["(0 1)(2 3)", "(0 2)(1 3)"]\n'
    "omega = heisenberg 3 1\n"
)


def test_run_checks_survives_a_bad_entry():
    from heckefuse.checks import Config, run_checks
    catalog = parse_catalog(BAD_OMEGA_RECORD)
    catalog.update(parse_catalog(
        "name = z3\ndegree = 3\n" 'G = ["(0 1 2)"]\n' 'Gamma = ["(0 1 2)"]\n'))
    outcomes = run_checks(["klein_heis3", "z3"], catalog, Config(trials=2))
    first, rest = outcomes[0], outcomes[1:]
    assert (first.name, first.target, first.passed) == ("build-entry", "klein_heis3",
                                                        False)
    assert first.detail
    assert rest and all(o.passed and o.target == "z3" for o in rest)


FOREIGN_GAMMA_RECORD = (
    "name = foreign_gamma\n"
    "degree = 3\n"
    'G = ["(0 1 2)"]\n'
    'Gamma = ["(0 1)"]\n'
)


def test_a_gamma_generator_outside_g_fails_its_entry():
    from heckefuse.checks import Config, run_checks
    catalog = parse_catalog(FOREIGN_GAMMA_RECORD)
    with pytest.raises(ValueError, match="must lie in the parent group"):
        build_pair(catalog["foreign_gamma"])
    outcomes = run_checks(["foreign_gamma"], catalog, Config(trials=2))
    assert [(o.name, o.target, o.passed) for o in outcomes] == [
        ("build-entry", "foreign_gamma", False)]
    assert "must lie in the parent group" in outcomes[0].detail


def test_check_honours_the_group_order_bound(capsys):
    code, out = run(capsys, "check", "--pair", "S3_in_S4", "--max-group-order", "3")
    assert code == 1
    assert out.splitlines()[0].startswith("FAIL build-entry [S3_in_S4]: ")
    assert "closure exceeds 3 elements" in out
    assert out.splitlines()[-1] == "0/1 checks passed"


def test_check_command_fails_on_a_bad_entry(tmp_path, capsys):
    catalog = tmp_path / "bad.cat"
    catalog.write_text(BAD_OMEGA_RECORD)
    code, out = run(capsys, "--catalog", str(catalog), "check",
                    "--pair", "klein_heis3")
    assert code == 1
    assert "FAIL build-entry [klein_heis3]" in out
