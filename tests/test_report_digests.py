"""The JSON reports of the coefficient-table and identity commands, byte
for byte: a change to how tables or identities are computed must leave
every reported value, and its formatting, as it was."""

import hashlib

import pytest

from gradeswitch.cli import main

REPORTS = [
    (["identities", "--p", "11"],
     "6b85aab945ff1131eefe9627ce8e532df9edaa9c83982183e42926117db685f6"),
    (["coeffs", "--p", "5", "--field-degree", "7", "--trials", "3",
      "--seed", "7"],
     "64671dd2a5f18c9723269de4acda52c98e68cfd2f1ecf99b18997b201b2cab23"),
    (["coeffs", "--p", "7", "--field-degree", "2", "--trials", "3",
      "--seed", "7"],
     "bb8ebce7751a6e5c083bffeab2efcd6c772a19cbdc36b45e4ba5be23d09aca2b"),
]


@pytest.mark.parametrize("argv,sha256", REPORTS,
                         ids=[" ".join(a) for a, _ in REPORTS])
def test_json_report_is_byte_identical(capsys, argv, sha256):
    assert main(argv + ["--output", "json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == sha256
