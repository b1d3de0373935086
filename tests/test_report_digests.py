"""The JSON reports of the coefficient-table, identity, switch and toral
commands, byte for byte: a change to how tables, identities or the
switching operator are computed must leave every reported value, and its
formatting, as it was."""

import hashlib
import json

import pytest

from gradeswitch.cli import main
from gradeswitch.fields import GF
from gradeswitch.galg import truncated_poly
from time_budget import time_limit

REPORTS = [
    (["identities", "--p", "11"],
     "6b85aab945ff1131eefe9627ce8e532df9edaa9c83982183e42926117db685f6"),
    (["coeffs", "--p", "5", "--field-degree", "7", "--trials", "3",
      "--seed", "7"],
     "64671dd2a5f18c9723269de4acda52c98e68cfd2f1ecf99b18997b201b2cab23"),
    (["coeffs", "--p", "7", "--field-degree", "2", "--trials", "3",
      "--seed", "7"],
     "bb8ebce7751a6e5c083bffeab2efcd6c772a19cbdc36b45e4ba5be23d09aca2b"),
    (["switch", "--builtin", "witt:5+witt:5", "--derivation", "ad:1"],
     "3ee33add90dbe58d74e5ed0fbb0fa79c547c8b9cbff063b7eaf101f6dbec9bdd"),
    (["switch", "--builtin", "tpoly:3:9:3", "--derivation", "ddx"],
     "7e1e31fbe4b155f631b87eb7644faa8b4eca465bd2088bab4fe3e1f6343ec710"),
    (["switch", "--builtin", "tpoly:5:5:5", "--derivation", "xddx"],
     "fd8b78610d387349ed1121aa17316dbdc2a16524b6a2c1777dcf82483a575749"),
    (["switch", "--builtin", "witt:7", "--derivation", "ad:1", "--r", "2"],
     "251be73749dc99809092c4df84fce9c88e61dd0e87668254d3ab5ec926cffba4"),
    (["switch", "--builtin", "witt:11", "--derivation", "ad:0"],
     "59bd92840ad1cc909c927a30719d31a57f1f6beaf45919c2b94c72e86eb9c148"),
    (["switch", "--builtin", "tpoly:2:8:2", "--derivation", "xddx"],
     "52645855b360569b6332370a96d3aa15f891010db0efa72cc071f02dbede9f46"),
    (["toral", "--builtin", "witt:5+witt:5"],
     "cd04e2fddfce87f2b6acc1e6066ec72daceefaa368e9727655ae98c77ee4b3b8"),
    (["toral", "--builtin", "witt:7", "--x", "e:2"],
     "8e61661a1b92d5daec0051f6fc2fe873c5d62c62e241baf6617746070472c4d2"),
    (["toral", "--builtin", "witt:5", "--x", "e:3", "--r", "5"],
     "72dcbd6734eb2dbb30d1e86b90125592746969389d8ba844347c4f3e35baa579"),
    (["toral", "--builtin", "witt:3+witt:3+witt:3"],
     "f66e9b44fdcb8f063be27ee99e134fd5f73c3895cde62353f83143378134963f"),
]


@pytest.mark.parametrize("argv,sha256", REPORTS,
                         ids=[" ".join(a) for a, _ in REPORTS])
def test_json_report_is_byte_identical(capsys, argv, sha256):
    assert main(argv + ["--output", "json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


def test_switch_over_gf7_7_input_within_budget(monkeypatch, tmp_path,
                                               capsys):
    """The 1-dim zero-product algebra over GF(7^7) with D = [g], g with
    digits 1,2,3,6,5,0,2: its constraint 1 + T + a T^7 splits only over
    GF(7^49), where root finding and the canonical embedding once took
    about 10 s.  The budget includes the modulus search of GF(7^49).  The
    report names its input file, so the file is read by a relative
    path."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "gf7_7.json").write_text(json.dumps({
        "algebra": {"p": 7, "field_degree": 7, "dim": 1, "m": 1,
                    "deg": [0], "sc": []},
        "derivation": [["1,2,3,6,5,0,2"]]}))
    with time_limit(3):
        assert main(["switch", "--input", "gf7_7.json",
                     "--output", "json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "34064230bd679c17c8050f046c6bf59be7a7b5fd95d1d58957eb50cad99147be"


def test_switch_over_gf9_input_through_the_embeddings(monkeypatch, tmp_path,
                                                      capsys):
    """truncated_poly(3, 3, 3) over GF(3^2) with modulus (2, 2, 1), D =
    diag(0, g, 2g) for the field generator g: its constraint splits over
    GF(3^6), so the run reaches the canonical embedding of GF(3^2) there
    and an additive root over an extension, which no builtin reaches.
    The report names its input file, so the file is read by a relative
    path."""
    F = GF(3, 2, modulus=(2, 2, 1))
    A = truncated_poly(3, 3, 3).change_field(F)
    rows = [[",".join(map(str, (F.gen * j).coeffs)) if i == j else "0"
             for j in range(3)] for i in range(3)]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "tpoly3_gf9.json").write_text(json.dumps({
        "algebra": A.to_json(), "derivation": rows}))
    assert main(["switch", "--input", "tpoly3_gf9.json",
                 "--output", "json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "de06371c0b4baf5f38c184118d4ffad65b735a02a5e0a17afe2386eb877bff74"
