"""The display methods the package keeps, each for the messages that print
it: str of a field element (the "rho = ..." of the switch's refusals),
repr of a field element ("cannot use GF(5)(0) as a coefficient") and of a
field (the field refusals, and the ids of tests parametrized by field),
and str of a multipolynomial (the detail of a failing identity in the
identities report)."""

from gradeswitch.fields import GF
from gradeswitch.polyring import MultiPoly


def test_field_elements_print_in_powers_of_the_generator():
    F = GF(3, 2)
    assert [str(F.from_int(k)) for k in (0, 2, 3, 5, 7)] == \
        ["0", "2", "g", "g + 2", "2g + 1"]
    assert str(GF(2, 3).from_int(6)) == "g^2 + g"
    assert str(GF(5).scalar(3)) == "3"
    assert repr(F.from_int(5)) == "GF(3^2)(g + 2)"
    assert repr(GF(5).zero) == "GF(5)(0)"
    assert (repr(GF(5)), repr(F)) == ("GF(5)", "GF(3^2)")


def test_multipolynomials_print_in_graded_lex_order():
    F = GF(3, 2)
    vars_ = ("alpha", "X")
    alpha, x = (MultiPoly.variable(F, vars_, v) for v in vars_)
    assert str(alpha - alpha) == "0"
    assert str(alpha ** 2 * x + 2) == "2 + alpha^2*X"
    assert str(F.from_int(5) * x + alpha) == "(g + 2)*X + alpha"
