"""The README's "Library use" snippet runs, and the claims in its
comments hold: it is the one code sample a reader copies.  The names its
removed-names table lists are gone from the package."""

import pathlib
import re

import gradeswitch
from gradeswitch import truncated_exp

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def library_snippet():
    """The python block under the README's `## Library use` heading."""
    section = README.read_text().split("\n## Library use\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_use_snippet_runs_as_its_comments_say():
    names = {}
    exec(compile(library_snippet(), str(README), "exec"), names)
    res, D = names["res"], names["D"]
    assert res.r == 1
    assert res.switch_map == truncated_exp(5).evaluate(D)
    assert res.grading_ok is True
    assert isinstance(res.to_json(), dict)


def removed_names():
    """The names in the first column of the README's removed-names table."""
    table = README.read_text().split("\n| removed | use instead |\n", 1)[1]
    rows = table.split("\n\n", 1)[0].splitlines()[1:]
    return [re.match(r"\| `(\w+)", row).group(1) for row in rows]


def test_removed_names_are_gone_from_the_package():
    names = removed_names()
    assert len(names) >= 6 and "c_coefficients_symbolic" in names
    assert "CoefficientTable" in names
    for name in names:
        assert not hasattr(gradeswitch, name), name
        assert name not in gradeswitch.__all__, name
