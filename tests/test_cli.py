import json
import os
import subprocess
import sys

import pytest

from gradeswitch import cli
from gradeswitch.cli import build_parser, main
from gradeswitch.galg import LinearMap, witt
from gradeswitch.toral import RestrictedLie


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def refuse_to_build(monkeypatch):
    """Make every builtin family's builder fail the test when called."""
    from gradeswitch import cli

    def refuse(*args):
        raise AssertionError("builtin built before the cap check")
    for name, family in list(cli.FAMILIES.items()):
        monkeypatch.setitem(cli.FAMILIES, name, family._replace(build=refuse))


def test_identities_pass(capsys):
    code, out, _ = run(capsys, "identities", "--p", "3")
    assert code == 0
    assert "verdict: pass" in out


def test_identities_json_schema(capsys):
    code, out, _ = run(capsys, "identities", "--p", "3", "--output", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert doc["command"] == "identities"
    assert doc["verdict"] == "pass"
    assert doc["config"]["p"] == 3
    assert all(r["passed"] for r in doc["results"])


def test_nonprime_p_is_config_error(capsys):
    code, _, err = run(capsys, "identities", "--p", "4")
    assert code == 2
    assert "not prime" in err


@pytest.mark.parametrize("p", ["0", "1"])
def test_identities_refuses_p_below_two(capsys, p):
    code, out, err = run(capsys, "identities", "--p", p)
    assert code == 2 and out == ""
    assert "p = %s is not prime" % p in err


def test_p_cap_enforced(capsys):
    code, _, err = run(capsys, "identities", "--p", "17")
    assert code == 2
    assert "cap" in err
    code, out, _ = run(capsys, "identities", "--p", "17", "--p-cap", "17")
    assert code == 0


def test_identities_without_p_runs_each_default_prime_up_to_the_cap(
        capsys):
    # no --p: nine rows for each default prime up to --p-cap, row for row
    # those of a --p P run
    code, out, _ = run(capsys, "identities", "--p-cap", "5",
                       "--output", "json")
    assert code == 0
    rows = json.loads(out)["results"]
    assert [r["p"] for r in rows] == [2] * 9 + [3] * 9 + [5] * 9
    for p in (2, 3, 5):
        code, out, _ = run(capsys, "identities", "--p", str(p),
                           "--output", "json")
        assert code == 0
        assert json.loads(out)["results"] == [r for r in rows if r["p"] == p]
    code, out, _ = run(capsys, "identities", "--output", "json")
    assert code == 0
    assert sorted({r["p"] for r in json.loads(out)["results"]}) == \
        [2, 3, 5, 7, 11, 13]


@pytest.mark.parametrize("argv", [
    ("switch", "--builtin", "witt:17", "--derivation", "ad:0"),
    ("switch", "--builtin", "tpoly:17:17:17", "--derivation", "ddx"),
    ("switch", "--builtin", "witt:17+witt:17", "--derivation", "ad:0"),
    ("toral", "--builtin", "witt:17"),
])
def test_p_cap_enforced_on_algebras(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert "cap" in err


@pytest.mark.parametrize("argv", [
    ("switch", "--builtin", "witt:5+tpoly:1009:3:3", "--derivation", "ad:0"),
    ("toral", "--builtin", "witt:5+witt:1009"),
])
def test_p_cap_checked_before_building(monkeypatch, capsys, argv):
    refuse_to_build(monkeypatch)
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert "cap" in err


def test_p_cap_enforced_on_json_input(tmp_path, capsys):
    from gradeswitch.galg import witt
    path = tmp_path / "alg.json"
    path.write_text(json.dumps({"algebra": witt(17).to_json()}))
    code, _, err = run(capsys, "switch", "--input", str(path),
                       "--derivation", "ad:0")
    assert code == 2
    assert "cap" in err


def test_a_reducible_modulus_in_json_input_is_refused(tmp_path, capsys):
    # T^4 + T^2 + 1 = (T^2 + T + 1)^2 over F_2
    path = tmp_path / "alg.json"
    path.write_text(json.dumps({
        "algebra": {"p": 2, "field_degree": 4, "modulus": [1, 0, 1, 0, 1],
                    "dim": 1, "m": 1, "deg": [0], "sc": []},
        "derivation": [[0]]}))
    code, out, err = run(capsys, "switch", "--input", str(path))
    assert (code, out, err) == (
        2, "", "configuration error: modulus is not irreducible over F_2\n")


MERSENNE_61 = str(2 ** 61 - 1)   # prime; trial division takes minutes


@pytest.mark.parametrize("argv", [
    ("coeffs", "--p", MERSENNE_61),
    ("identities", "--p", MERSENNE_61),
    ("switch", "--builtin", "witt:" + MERSENNE_61, "--derivation", "ad:0"),
    ("toral", "--builtin", "witt:" + MERSENNE_61),
    ("switch", "--input", None, "--derivation", "ad:0"),
])
def test_p_cap_checked_before_primality(monkeypatch, tmp_path, capsys,
                                        argv):
    from gradeswitch import cli, fields
    from gradeswitch.galg import witt

    real = fields.is_prime

    def guarded(n):
        assert n <= 13, "primality of p tested before the cap"
        return real(n)
    monkeypatch.setattr(cli, "is_prime", guarded)
    monkeypatch.setattr(fields, "is_prime", guarded)
    if None in argv:
        doc = witt(5).to_json()
        doc["p"] = int(MERSENNE_61)
        path = tmp_path / "alg.json"
        path.write_text(json.dumps({"algebra": doc}))
        argv = tuple(str(path) if a is None else a for a in argv)
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert "cap" in err


def test_deeply_nested_json_input_is_config_error(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200000 + "]" * 200000)
    code, _, err = run(capsys, "switch", "--input", str(path),
                       "--derivation", "ad:0")
    assert code == 2
    assert "malformed algebra JSON" in err


@pytest.mark.parametrize("argv", [
    ("switch", "--builtin", "tpoly:5:3000:5", "--derivation", "ddx"),
    ("switch", "--builtin", "witt:13+witt:13+witt:13+witt:13",
     "--derivation", "ad:0"),
    ("switch", "--builtin", "witt:5", "--derivation", "ad:1",
     "--dim-cap", "4"),
    ("toral", "--builtin", "witt:11+witt:11+witt:11+witt:11"),
    ("toral", "--builtin", "witt:5+witt:5", "--dim-cap", "9"),
])
def test_dim_cap_checked_before_building(monkeypatch, capsys, argv):
    refuse_to_build(monkeypatch)
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert "exceeds the cap" in err and "--dim-cap" in err


def test_dim_cap_can_be_raised(capsys):
    code, _, _ = run(capsys, "switch", "--builtin", "witt:5",
                     "--derivation", "ad:1", "--dim-cap", "5")
    assert code == 0


def test_dim_cap_checked_before_reading_json_input(monkeypatch, tmp_path,
                                                   capsys):
    from gradeswitch import cli
    from gradeswitch.galg import witt

    def refuse(obj):
        raise AssertionError("algebra JSON read before the cap check")
    doc = witt(5).to_json()
    doc["dim"] = 10 ** 9
    path = tmp_path / "alg.json"
    path.write_text(json.dumps({"algebra": doc}))
    monkeypatch.setattr(cli.GradedAlgebra, "from_json", refuse)
    code, _, err = run(capsys, "switch", "--input", str(path),
                       "--derivation", "ad:0")
    assert code == 2
    assert "dimension 1000000000 exceeds the cap" in err


@pytest.mark.parametrize("argv", [
    ("switch", "--builtin", "tpoly:5:5:1001", "--derivation", "xddx"),
    ("switch", "--builtin", "witt:5+tpoly:5:5:100000", "--derivation",
     "ad:0"),
    ("switch", "--builtin", "witt:1009", "--derivation", "ad:0",
     "--p-cap", "2000", "--dim-cap", "2000"),
    ("toral", "--builtin", "witt:1009", "--p-cap", "2000",
     "--dim-cap", "2000"),
])
def test_grading_modulus_cap_checked_before_building(monkeypatch, capsys,
                                                     argv):
    from gradeswitch import cli
    refuse_to_build(monkeypatch)
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert "exceeds the cap %d" % cli.M_CAP in err


def test_grading_modulus_cap_checked_before_reading_json_input(
        monkeypatch, tmp_path, capsys):
    from gradeswitch import cli
    from gradeswitch.galg import truncated_poly

    def refuse(obj):
        raise AssertionError("algebra JSON read before the cap check")
    doc = truncated_poly(5, 5, 5).to_json()
    doc["m"] = 1001
    path = tmp_path / "alg.json"
    path.write_text(json.dumps({"algebra": doc}))
    monkeypatch.setattr(cli.GradedAlgebra, "from_json", refuse)
    code, _, err = run(capsys, "switch", "--input", str(path),
                       "--derivation", "xddx")
    assert code == 2
    assert "grading modulus m = 1001 exceeds the cap 1000" in err


def test_grading_modulus_at_the_cap_is_fast(capsys):
    # the grading check once paired all m^2 labels, nearly all of them
    # empty: m = 10000 took 17.5 s
    from gradeswitch.cli import M_CAP
    from gradeswitch.galg import truncated_poly, truncated_poly_derivation
    from gradeswitch.switch import switch_grading
    from time_budget import time_limit
    with time_limit(2):
        code, out, _ = run(capsys, "switch", "--builtin",
                           "tpoly:5:5:%d" % M_CAP, "--derivation", "xddx",
                           "--output", "json")
    assert code == 0 and len(json.loads(out)["results"][0]["new_parts"]) \
        == M_CAP
    A = truncated_poly(5, 5, 10 * M_CAP)
    with time_limit(3):
        res = switch_grading(A, truncated_poly_derivation(A, "xddx"))
    assert res.grading_ok and res.product_rule_pairs == 25


def test_switch_on_an_algebra_of_dimension_zero(tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({
        "algebra": {"p": 5, "dim": 0, "m": 1, "deg": [], "sc": []},
        "derivation": []}))
    code, out, _ = run(capsys, "switch", "--input", str(path))
    assert code == 0
    assert "blocks: 0, dims []" in out
    assert "product rule: 0 basis pairs" in out
    code, out, err = run(capsys, "switch", "--input", str(path),
                         "--derivation", "ad:0")
    assert code == 2 and out == ""
    assert "'ad:0': basis slot 0 is out of range (valid slots: none in " \
        "dimension 0)" in err


HUGE_FIELD = {"p": 11, "field_degree": 32, "dim": 1, "m": 1, "deg": [0],
              "sc": []}


@pytest.mark.parametrize("modulus", [None, [1] * 33])
def test_field_degree_cap_checked_before_reading_json_input(
        monkeypatch, tmp_path, capsys, modulus):
    from gradeswitch import galg

    def refuse(*args):
        raise AssertionError("field built before the degree cap check")
    doc = dict(HUGE_FIELD, modulus=modulus)
    path = tmp_path / "alg.json"
    path.write_text(json.dumps({"algebra": doc, "derivation": [[0]]}))
    monkeypatch.setattr(galg, "GF", refuse)
    code, out, err = run(capsys, "switch", "--input", str(path))
    assert code == 2 and out == ""
    assert "field degree 32 exceeds the cap 16" in err


def test_huge_field_degree_in_json_input_is_refused_at_once(tmp_path):
    # without the cap the modulus search of GF(11^32) runs for seconds
    # (minutes with Rabin's test); the refusal needs only an import
    path = tmp_path / "alg.json"
    path.write_text(json.dumps({"algebra": HUGE_FIELD,
                                "derivation": [[0]]}))
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    proc = subprocess.run([sys.executable, "-m", "gradeswitch.cli", "switch",
                           "--input", str(path)], capture_output=True,
                          text=True, env=env, timeout=10)
    assert proc.returncode == 2
    assert "field degree 32 exceeds the cap 16" in proc.stderr


@pytest.mark.parametrize("argv", [
    ("switch", "--builtin", "witt:5", "--derivation", "ad:1", "--r", "-3"),
    ("toral", "--builtin", "witt:5", "--r", "-1"),
])
def test_negative_r_is_config_error(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert "r must be >= 0" in err


@pytest.mark.parametrize("argv", [
    ("switch", "--builtin", "witt:5", "--derivation", "ad:1",
     "--r", "1000000"),
    ("toral", "--builtin", "witt:5", "--r", "1000000"),
])
def test_r_cap_checked_before_building(monkeypatch, capsys, argv):
    # a run's time grows linearly in r: r = 5000 takes seconds on witt:5
    from gradeswitch import cli, switch, toral

    def refuse(*args, **kwargs):
        raise AssertionError("algebra or operator built before the cap check")
    refuse_to_build(monkeypatch)
    monkeypatch.setattr(switch, "build_LD", refuse)
    monkeypatch.setattr(toral, "build_LD", refuse)
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert "r = 1000000 exceeds the cap %d" % cli.R_CAP in err


@pytest.mark.parametrize("argv", [
    ("switch", "--builtin", "witt:5", "--derivation", "ad:1", "--r"),
    ("toral", "--builtin", "witt:5", "--r"),
])
def test_r_at_the_cap_passes(capsys, argv):
    from gradeswitch.cli import R_CAP
    code, _, _ = run(capsys, *argv, str(R_CAP))
    assert code == 0


def test_coeffs_deterministic(capsys):
    args = ("coeffs", "--p", "3", "--trials", "6", "--output", "json")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2  # byte-identical


def test_coeffs_seed_changes_draws(capsys):
    _, out1, _ = run(capsys, "coeffs", "--p", "3", "--trials", "6",
                     "--seed", "0", "--output", "json")
    _, out2, _ = run(capsys, "coeffs", "--p", "3", "--trials", "6",
                     "--seed", "1", "--output", "json")
    a = json.loads(out1)["results"]
    b = json.loads(out2)["results"]
    assert a != b


def test_coeffs_jobs_one_matches_the_default(capsys):
    args = ("coeffs", "--p", "3", "--trials", "6", "--output", "json")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args, "--jobs", "1")
    assert code1 == code2 == 0
    assert out1 == out2  # byte-identical, config.jobs included
    assert json.loads(out1)["config"]["jobs"] == 1


@pytest.mark.parametrize("jobs", ["2", "0"])
def test_coeffs_refuses_jobs_other_than_one_before_building(
        monkeypatch, capsys, jobs):
    from gradeswitch import cli

    def refuse(*args):
        raise AssertionError("field built before the --jobs check")
    monkeypatch.setattr(cli, "GF", refuse)
    code, out, err = run(capsys, "coeffs", "--p", "3", "--trials", "2",
                         "--jobs", jobs)
    assert code == 2 and out == ""
    assert "configuration error: coeffs runs in one process: --jobs must " \
           "be 1" in err


def test_coeffs_text_report_lists_every_trial(capsys):
    code, out, _ = run(capsys, "coeffs", "--p", "5", "--trials", "3")
    assert code == 0
    assert out.splitlines() == [
        "command: coeffs",
        "  trial 0: pass",
        "  trial 1: pass",
        "  trial 2: pass",
        "  trial zero_pair: pass",
        "verdict: pass",
    ]


def test_coeffs_zero_pair_row(capsys):
    _, out, _ = run(capsys, "coeffs", "--p", "5", "--trials", "1",
                    "--output", "json")
    doc = json.loads(out)
    zero_rows = [r for r in doc["results"] if r["trial"] == "zero_pair"]
    assert len(zero_rows) == 1
    assert zero_rows[0]["c_values"] == zero_rows[0]["closed_form"]


def test_coeffs_bad_config(capsys):
    assert run(capsys, "coeffs", "--p", "3", "--trials", "0")[0] == 2
    assert run(capsys, "coeffs", "--p", "9")[0] == 2


@pytest.mark.parametrize("degree", ["17", "200"])
def test_field_degree_cap_checked_before_building(monkeypatch, capsys,
                                                  degree):
    from gradeswitch import cli

    def refuse(*args):
        raise AssertionError("field built before the degree cap check")
    monkeypatch.setattr(cli, "GF", refuse)
    code, out, err = run(capsys, "coeffs", "--p", "2", "--field-degree",
                         degree, "--trials", "1")
    assert code == 2 and out == ""
    assert "field degree %s exceeds the cap 16" % degree in err


def test_field_degree_at_the_cap_is_accepted(capsys):
    code, out, _ = run(capsys, "coeffs", "--p", "5", "--field-degree", "16",
                       "--trials", "1", "--output", "json")
    assert code == 0
    assert json.loads(out)["config"]["field_degree"] == 16


@pytest.mark.parametrize("trials", ["1001", str(10 ** 9)])
def test_trials_cap_checked_before_building(monkeypatch, capsys, trials):
    from gradeswitch import cli

    def refuse(*args):
        raise AssertionError("p checked or field built before the trials "
                             "cap check")
    monkeypatch.setattr(cli, "is_prime", refuse)
    monkeypatch.setattr(cli, "GF", refuse)
    code, out, err = run(capsys, "coeffs", "--p", "13", "--trials", trials)
    assert code == 2 and out == ""
    assert "trials = %s exceeds the cap 1000" % trials in err


def test_trials_at_the_cap_is_accepted(monkeypatch, capsys):
    # the trial loop is stubbed down to one drawn pair: a real run at the
    # cap is many seconds at p = 13
    from gradeswitch import cli
    real = cli._draw_pairs
    asked = []

    def one_pair(field, trials, seed):
        asked.append(trials)
        return real(field, 1, seed)
    monkeypatch.setattr(cli, "_draw_pairs", one_pair)
    code, out, _ = run(capsys, "coeffs", "--p", "13", "--trials", "1000",
                       "--output", "json")
    assert code == 0 and asked == [1000]
    assert json.loads(out)["config"]["trials"] == 1000


def test_switch_builtin_witt(capsys):
    code, out, _ = run(capsys, "switch", "--builtin", "witt:5",
                       "--derivation", "ad:0", "--output", "json")
    assert code == 0
    doc = json.loads(out)
    payload = doc["results"][0]
    assert payload["grading_ok"] is True
    assert payload["r"] == 1
    assert payload["product_rule_pairs"] == 25


def test_switch_builtin_tpoly_r2(capsys):
    code, out, _ = run(capsys, "switch", "--builtin", "tpoly:3:9:3",
                       "--derivation", "ddx", "--output", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["results"][0]["r"] == 2


def test_switch_deterministic(capsys):
    args = ("switch", "--builtin", "tpoly:3:3:3", "--derivation", "xddx",
            "--output", "json")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_switch_json_input(tmp_path, capsys):
    from gradeswitch.galg import witt
    A = witt(5)
    D = A.left_multiplication(A.basis_vector(0))
    doc = {"algebra": A.to_json(),
           "derivation": [[",".join(str(d) for d in x.coeffs) for x in row]
                          for row in D.rows]}
    path = tmp_path / "alg.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "switch", "--input", str(path),
                       "--derivation", "json", "--output", "json")
    assert code == 0
    assert json.loads(out)["verdict"] == "pass"
    # ad:i works on file-supplied algebras too
    code, _, _ = run(capsys, "switch", "--input", str(path),
                     "--derivation", "ad:0")
    assert code == 0


def test_switch_malformed_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "switch", "--input", str(path),
                       "--derivation", "ad:0")
    assert code == 2
    path2 = tmp_path / "bad2.json"
    path2.write_text(json.dumps({"p": 3}))
    assert run(capsys, "switch", "--input", str(path2),
               "--derivation", "ad:0")[0] == 2


def test_switch_refuses_an_off_grade_constant_in_json_input(tmp_path,
                                                           capsys):
    # witt:3 has deg e_1 = 0 and deg e_0 = 2, so e_1 e_1 = e_0 is off grade
    alg = witt(3).to_json()
    alg["sc"].append([1, 1, 0, "1"])
    path = tmp_path / "alg.json"
    path.write_text(json.dumps({"algebra": alg}))
    code, out, err = run(capsys, "switch", "--input", str(path),
                         "--derivation", "ad:0")
    assert (code, out) == (2, "")
    assert err == ("configuration error: product e_1 e_1 hits e_0 outside "
                   "the graded component\n")


def _witt3_input(tmp_path, derivation):
    from gradeswitch.galg import witt
    path = tmp_path / "witt3.json"
    path.write_text(json.dumps({"algebra": witt(3).to_json(),
                                "derivation": derivation}))
    return str(path)


# ad e_{-1} on witt:3; entry (0, 1) is 1, so a misread 1 still passes
WITT3_AD0 = [["0", "1", "0"], ["0", "0", "2"], ["0", "0", "0"]]


def _with_entry(value, i=0, j=1):
    rows = [list(r) for r in WITT3_AD0]
    rows[i][j] = value
    return rows


def test_switch_json_derivation_accepts_integers_and_digit_lists(
        tmp_path, capsys):
    for rows in (WITT3_AD0, _with_entry(1), _with_entry([1])):
        path = _witt3_input(tmp_path, rows)
        assert run(capsys, "switch", "--input", path,
                   "--derivation", "json")[0] == 0


@pytest.mark.parametrize("entry", [1.5, True, [1.5], [True], "x"])
def test_switch_json_derivation_bad_entry_is_named(tmp_path, capsys, entry):
    path = _witt3_input(tmp_path, _with_entry(entry))
    code, _, err = run(capsys, "switch", "--input", path,
                       "--derivation", "json")
    assert code == 2
    assert "malformed derivation matrix: entry (0, 1): " in err


@pytest.mark.parametrize("rows, where", [
    ([["0", "1", "0"], "0,0,2", ["0", "0", "0"]], "row 1: "),
    ({"0": ["0", "1", "0"]}, "expected a list of rows"),
    ([["0", "1", "0"], ["0", "0", "2"]], "expected 3 x 3 entries"),
])
def test_switch_json_derivation_bad_rows_are_named(tmp_path, capsys, rows,
                                                   where):
    path = _witt3_input(tmp_path, rows)
    code, _, err = run(capsys, "switch", "--input", path,
                       "--derivation", "json")
    assert code == 2
    assert "malformed derivation matrix: " + where in err


@pytest.mark.parametrize("key, value", [
    ("sc", [[0, 0, 1]]), ("sc", "abc"), ("pmap", [[0]])])
def test_switch_json_algebra_bad_items_are_named(tmp_path, capsys, key,
                                                  value):
    from gradeswitch.galg import witt
    algebra = witt(3).to_json()
    algebra[key] = value
    path = tmp_path / "bad_item.json"
    path.write_text(json.dumps({"algebra": algebra,
                                "derivation": WITT3_AD0}))
    code, _, err = run(capsys, "switch", "--input", str(path),
                       "--derivation", "json")
    assert code == 2
    assert "malformed algebra JSON: %s item " % key in err


def test_switch_missing_algebra(capsys):
    assert run(capsys, "switch", "--derivation", "ad:0")[0] == 2
    assert run(capsys, "switch", "--builtin", "witt:5")[0] == 2
    assert run(capsys, "switch", "--builtin", "nope:1",
               "--derivation", "ad:0")[0] == 2
    # an empty algebra (length < 1) or an empty grading group (m < 1)
    for spec in ("tpoly:5:3:0", "tpoly:5:0:5", "tpoly:5:-2:5"):
        code, _, err = run(capsys, "switch", "--builtin", spec,
                           "--derivation", "ddx")
        assert code == 2
        assert "needs length >= 1 and m >= 1" in err


def test_switch_non_derivation_is_hypothesis_error(capsys):
    # xddx rows on the witt basis are not a derivation of witt
    code, _, err = run(capsys, "switch", "--builtin", "witt:5",
                       "--derivation", "xddx")
    assert code == 1
    assert "hypothesis" in err


def test_toral_witt(capsys):
    for p in ("5", "7"):
        code, out, _ = run(capsys, "toral", "--builtin", "witt:" + p,
                           "--x", "e:-1", "--r", "1", "--output", "json")
        assert code == 0
        doc = json.loads(out)
        row = doc["results"][0]
        assert row["spaces_match"] and row["strade_agrees"]
        assert row["torus_x_toral"] is True


def test_toral_sum(capsys):
    code, out, _ = run(capsys, "toral", "--builtin", "witt:5+witt:5",
                       "--output", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["results"][0]["old_dims"] == [2] + [1] * 8


def test_toral_bad_x_is_hypothesis_error(capsys):
    code, _, err = run(capsys, "toral", "--builtin", "witt:5", "--x", "e:0")
    assert code == 1
    assert "root" in err


@pytest.mark.parametrize("argv, flag, spec", [
    (("switch", "--builtin", "witt:x", "--derivation", "ad:1"),
     "--builtin", "witt:x"),
    (("switch", "--builtin", "witt:5", "--derivation", "ad:x"),
     "--derivation", "ad:x"),
    (("toral", "--builtin", "witt:5", "--x", "e:x"), "--x", "e:x"),
], ids=["builtin", "derivation", "x"])
def test_non_integer_in_a_spec_names_the_flag_and_the_spec(capsys, argv,
                                                           flag, spec):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == "configuration error: %s '%s': 'x' is not an integer\n" \
        % (flag, spec)


@pytest.mark.parametrize("argv, detail", [
    (("switch", "--builtin", "witt:5", "--derivation", "ad:9"),
     "--derivation 'ad:9': basis slot 9 is out of range "
     "(valid slots: 0 to 4)"),
    (("toral", "--builtin", "witt:5", "--x", "slot:9"),
     "--x 'slot:9': basis slot 9 is out of range (valid slots: 0 to 4)"),
    (("toral", "--builtin", "witt:5", "--x", "q:1"),
     "--x 'q:1': expected e:K (witt label) or slot:I"),
], ids=["derivation-slot", "x-slot", "x-form"])
def test_a_spec_out_of_range_or_form_names_the_flag_and_the_spec(
        capsys, argv, detail):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == "configuration error: %s\n" % detail


@pytest.mark.parametrize("spec", ["tpoly:5:5:5", "witt:5+tpoly:5:5:5",
                                  "tpoly:5:5:5+witt:5"])
def test_toral_refuses_a_builtin_without_a_p_map(capsys, spec):
    # a tpoly summand is commutative, not a Lie algebra, so every builtin
    # with one is refused before a torus is chosen
    code, out, err = run(capsys, "toral", "--builtin", spec)
    assert code == 2 and out == ""
    assert err == "configuration error: bracket is not alternating\n"


def test_toral_deterministic(capsys):
    args = ("toral", "--builtin", "witt:5", "--output", "json")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_parser_requires_subcommand():
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args([])
    assert exc.value.code == 2


def test_main_builds_its_parser_once(monkeypatch, capsys):
    from gradeswitch import cli
    built = []

    def counted():
        built.append(1)
        return build_parser()
    cli._parser.cache_clear()
    monkeypatch.setattr(cli, "build_parser", counted)
    for argv in (("identities", "--p", "4"), ("identities", "--p", "2"),
                 ("coeffs", "--p", "4"), ("identities", "--p", "4"),
                 ("coeffs", "--p", "2", "--trials", "1")):
        run(capsys, *argv)
    assert len(built) == 1
    # build_parser still hands every caller a parser of its own
    assert build_parser() is not build_parser()


REUSE_ARGV = [
    ("coeffs", "--p", "x"),
    ("identities", "--p", "4"),
    ("switch", "--help"),
    ("identities", "--p", "3", "--output", "json"),
    ("coeffs", "--p", "3", "--trials", "2", "--output", "json"),
    ("switch", "--builtin", "witt:5", "--derivation", "ad:1",
     "--output", "json"),
    ("toral", "--builtin", "witt:5", "--output", "json"),
]


def test_a_reused_parser_answers_as_a_fresh_one(monkeypatch, capsys):
    from gradeswitch import cli
    cli._parser.cache_clear()
    reused = [run(capsys, *argv) for argv in REUSE_ARGV]
    monkeypatch.setattr(cli, "_parser", build_parser)
    fresh = [run(capsys, *argv) for argv in REUSE_ARGV]
    assert [r[0] for r in reused] == [2, 2, 0, 0, 0, 0, 0]
    assert reused == fresh


def test_main_returns_the_exit_code_of_an_argparse_exit(capsys):
    code, out, err = run(capsys, "coeffs", "--p", "x")
    assert code == 2 and out == ""
    assert err.endswith("gradeswitch coeffs: error: argument --p: invalid "
                        "int value: 'x'\n")
    code, out, err = run(capsys, "switch", "--help")
    assert code == 0 and err == ""
    assert out.startswith("usage: gradeswitch switch ")


def test_an_argparse_error_still_exits_2_from_the_command_line():
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    proc = subprocess.run([sys.executable, "-m", "gradeswitch.cli", "coeffs",
                           "--p", "x"], capture_output=True, text=True,
                          env=env, timeout=10)
    assert proc.returncode == 2 and proc.stdout == ""
    assert "argument --p: invalid int value: 'x'" in proc.stderr


# (argv, the --input algebra as changes to witt(5)'s JSON or None, the
# refusal); INPUT stands for the path of that algebra's file
INPUT = object()
CAP_REFUSALS = {
    "p-coeffs": (("coeffs", "--p", "17"), None,
                 "p = 17 exceeds the cap 13 (raise --p-cap)"),
    "p-builtin": (("switch", "--builtin", "witt:5+witt:17", "--derivation",
                   "ad:0"), None, "p = 17 exceeds the cap 13 (raise --p-cap)"),
    "p-input": (("switch", "--input", INPUT, "--derivation", "ad:0"),
                {"p": 17}, "p = 17 exceeds the cap 13 (raise --p-cap)"),
    "p-toral": (("toral", "--builtin", "witt:17"), None,
                "p = 17 exceeds the cap 13 (raise --p-cap)"),
    "field-degree-coeffs": (("coeffs", "--field-degree", "17"), None,
                            "field degree 17 exceeds the cap 16"),
    "field-degree-input": (("switch", "--input", INPUT), {"field_degree": 32},
                           "field degree 32 exceeds the cap 16"),
    "r-builtin": (("switch", "--builtin", "witt:5", "--derivation", "ad:1",
                   "--r", "17"), None, "r = 17 exceeds the cap 16"),
    "r-input": (("switch", "--input", INPUT, "--derivation", "ad:1", "--r",
                 "17"), {}, "r = 17 exceeds the cap 16"),
    "r-toral": (("toral", "--builtin", "witt:5", "--r", "17"), None,
                "r = 17 exceeds the cap 16"),
    "m-builtin": (("switch", "--builtin", "tpoly:5:5:1001", "--derivation",
                   "ddx"), None,
                  "grading modulus m = 1001 exceeds the cap 1000"),
    "m-witt": (("switch", "--builtin", "witt:1009", "--p-cap", "2000",
                "--derivation", "ad:0"), None,
               "grading modulus m = 1009 exceeds the cap 1000"),
    "m-input": (("switch", "--input", INPUT, "--derivation", "ad:0"),
                {"m": 1001}, "grading modulus m = 1001 exceeds the cap 1000"),
    "dim-builtin": (("switch", "--builtin", "tpoly:5:50:5", "--derivation",
                     "ddx"), None,
                    "dimension 50 exceeds the cap 40 (raise --dim-cap)"),
    "dim-input": (("switch", "--input", INPUT, "--derivation", "ad:0"),
                  {"dim": 10 ** 9}, "dimension 1000000000 exceeds the cap 40 "
                  "(raise --dim-cap)"),
    "dim-toral": (("toral", "--builtin", "witt:5+witt:5", "--dim-cap", "9"),
                  None, "dimension 10 exceeds the cap 9 (raise --dim-cap)"),
    "trials": (("coeffs", "--trials", "1001"), None,
               "trials = 1001 exceeds the cap 1000"),
}


@pytest.mark.parametrize("argv, changes, refusal", CAP_REFUSALS.values(),
                         ids=CAP_REFUSALS.keys())
def test_every_cap_refusal_is_one_exact_line(monkeypatch, tmp_path, capsys,
                                             argv, changes, refusal):
    def refuse(*args):
        raise AssertionError("built before the cap check")
    if changes is not None:
        path = tmp_path / "alg.json"
        path.write_text(json.dumps({"algebra": dict(
            witt(5).to_json(), **changes)}))
        argv = tuple(str(path) if a is INPUT else a for a in argv)
    refuse_to_build(monkeypatch)
    monkeypatch.setattr(cli.GradedAlgebra, "from_json", refuse)
    monkeypatch.setattr(cli, "GF", refuse)
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", "configuration error: %s\n" % refusal)


@pytest.mark.parametrize("argv, detail", [
    (("switch", "--builtin", "witt:5+tpoly:3:3:3", "--derivation", "ad:0"),
     "--builtin 'witt:5+tpoly:3:3:3': summands over different primes "
     "(5, 3)"),
    (("switch", "--builtin", "witt:5+tpoly:5:5:1", "--derivation", "ad:0"),
     "--builtin 'witt:5+tpoly:5:5:1': summands with different grading "
     "moduli (5, 1)"),
    (("toral", "--builtin", "witt:5+witt:5+witt:7"),
     "--builtin 'witt:5+witt:5+witt:7': summands over different primes "
     "(5, 5, 7)"),
], ids=["primes", "moduli", "toral"])
def test_a_builtin_sum_mixing_p_or_m_is_refused_before_building(
        monkeypatch, capsys, argv, detail):
    refuse_to_build(monkeypatch)
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", "configuration error: %s\n" % detail)


FAMILY_ARGS = {
    "witt": [(2,), (3,), (5,), (7,)],
    "tpoly": [(2, 1, 1), (3, 9, 3), (5, 4, 7), (7, 3, 2)],
}


def test_every_family_has_shape_cases():
    assert FAMILY_ARGS.keys() == cli.FAMILIES.keys()


@pytest.mark.parametrize("name, ints", [
    (name, ints) for name, cases in FAMILY_ARGS.items() for ints in cases])
def test_a_family_shape_is_what_its_builder_builds(name, ints):
    # the caps read the shape instead of the built algebra
    family = cli.FAMILIES[name]
    A = family.build(*ints)
    assert (A.field.p, A.dim, A.m) == family.shape(*ints)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_the_witt_torus_slot_is_e0(p):
    # e_0 is the one vector with [e_0, e_b] = b e_b and e_0^[p] = e_0
    family = cli.FAMILIES["witt"]
    A = family.build(p)
    F, e0 = A.field, A.basis_vector(family.torus)
    degrees = LinearMap(F, [[F.scalar(d) if i == j else F.zero
                             for j in range(A.dim)]
                            for i, d in enumerate(A.degrees)])
    assert A.left_multiplication(e0) == degrees
    assert RestrictedLie(A).pth_power(e0) == e0


def builtin_help(capsys, command):
    """The help of a fresh parser's `command`, which reads FAMILIES as it
    is now, with its line wrapping undone."""
    with pytest.raises(SystemExit):
        build_parser().parse_args([command, "--help"])
    return " ".join(capsys.readouterr().out.split())


def test_toral_help_names_exactly_the_families_with_a_torus(monkeypatch,
                                                            capsys):
    # a second family with a torus slot, and one without, reach the help
    # through the table alone
    monkeypatch.setitem(cli.FAMILIES, "tor", cli.Family("tor:P:N", None,
                                                        None, 0))
    monkeypatch.setitem(cli.FAMILIES, "flat", cli.Family("flat:P", None,
                                                         None, None))
    for command in ("toral", "switch"):
        out = builtin_help(capsys, command)
        for family in cli.FAMILIES.values():
            named = family.torus is not None or command == "switch"
            assert (family.form in out) == named, (command, family.form)
    assert "witt:P | tor:P:N, joined with +" in builtin_help(capsys, "toral")


@pytest.mark.parametrize("argv, doc, refusal", [
    (("coeffs", "--p", "3", "--field-degree", "0"), None,
     "field degree must be >= 1"),
    (("switch", "--builtin", "witt:3", "--input", "{input}",
      "--derivation", "ad:0"), {},
     "give either --builtin or --input, not both"),
    (("switch", "--input", "{input}", "--derivation", "ad:0"), [1, 2],
     "algebra JSON must be an object"),
    (("switch", "--input", "{input}", "--derivation", "json"),
     {"algebra": witt(3).to_json()},
     "input file carries no derivation matrix"),
    (("switch", "--builtin", "witt:3", "--derivation", "dx"), None,
     "unknown derivation 'dx' (use ad:I, ddx, xddx, or json)"),
    (("switch", "--input", "{input}", "--derivation", "ad:0"),
     {"algebra": dict(witt(3).to_json(), sc=[[0, 1, 3, "1"]])},
     "basis index out of range"),
], ids=["field-degree-0", "builtin-and-input", "json-not-an-object",
        "json-without-matrix", "unknown-derivation", "index-beyond-dim"])
def test_each_input_refusal_is_one_exact_line(tmp_path, capsys, argv, doc,
                                              refusal):
    path = tmp_path / "input.json"
    if doc is not None:
        path.write_text(json.dumps(doc))
    code, out, err = run(capsys, *[a.replace("{input}", str(path))
                                   for a in argv])
    assert (code, out, err) == (2, "", "configuration error: %s\n" % refusal)
