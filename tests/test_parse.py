"""Grammar, printer round trips, and coefficient extraction."""

import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from painleq.exprkernel import P, X, Y, normalize
from painleq.parsing import (ExprSyntaxError, NonIntegerExponent,
                             NotCubicInDerivative, OdeCubic, UnknownFunction,
                             extract_cubic_coefficients, parse_expression,
                             to_grammar)


def test_basic_arithmetic():
    assert parse_expression("2*x + 3*y") == 2 * X + 3 * Y
    assert parse_expression("x^2 - y^3") == X**2 - Y**3
    assert parse_expression("-x*y/2") == -X * Y / 2


def test_power_binds_tighter_than_unary_minus():
    assert parse_expression("-x^2") == -(X**2)


def test_functions():
    assert parse_expression("sin(x)*cos(y)") == sp.sin(X) * sp.cos(Y)
    assert parse_expression("exp(x) + ln(y)") == sp.exp(X) + sp.log(Y)


def test_decimal_literals_become_exact():
    assert parse_expression("0.5*x") == X / 2


def test_parenthesized_rational_exponent():
    assert parse_expression("x^(1/2)") == sp.sqrt(X)
    assert parse_expression("x^(-1/5)") == X**sp.Rational(-1, 5)


def test_parameters_are_single_letters():
    a = sp.Symbol("a")
    assert parse_expression("a*y^3") == a * Y**3


def test_unknown_function():
    with pytest.raises(UnknownFunction):
        parse_expression("tan(x)")


def test_syntax_errors_carry_offset():
    with pytest.raises(ExprSyntaxError) as info:
        parse_expression("x + ")
    assert info.value.offset == 4


def test_non_integer_exponent():
    with pytest.raises(NonIntegerExponent):
        parse_expression("x^2.5")


def test_unbalanced_parens():
    with pytest.raises(ExprSyntaxError):
        parse_expression("(x + y")


@pytest.mark.parametrize("text", [
    "6*y^2 + x",
    "2*y^3 + x*y + a",
    "p^2/y - p/x + b/x",
    "x^(-1/5)",
    "12*y^2/x",
    "sin(y)*x - cos(y)/x^3",
    "exp(x)*ln(y)",
])
def test_print_parse_round_trip(text):
    e = parse_expression(text)
    assert normalize(parse_expression(to_grammar(e)) - e) == 0


def test_extract_splits_and_divides_by_three():
    rhs = parse_expression("1 + 6*p + 9*p^2 + 4*p^3")
    ode = extract_cubic_coefficients(rhs)
    assert (ode.P, ode.Q, ode.R, ode.S) == (1, 2, 3, 4)


def test_extract_rational_coefficients():
    ode = extract_cubic_coefficients(parse_expression("p^2/y - p/x"))
    assert normalize(ode.R - 1 / (3 * Y)) == 0
    assert normalize(ode.Q + 1 / (3 * X)) == 0


def test_extract_rejects_quartic():
    with pytest.raises(NotCubicInDerivative,
                       match=r"^degree 4 in the derivative exceeds 3$"):
        extract_cubic_coefficients(parse_expression("p^4"))


def test_extract_rejects_derivative_in_denominator():
    with pytest.raises(NotCubicInDerivative,
                       match=r"^derivative occurs in a denominator$"):
        extract_cubic_coefficients(parse_expression("1/(1+p)"))


def test_extract_rejects_derivative_in_atom():
    with pytest.raises(NotCubicInDerivative,
                       match=r"^derivative inside transcendental atom sin\(p\)$"):
        extract_cubic_coefficients(parse_expression("sin(p)"))


def test_extract_rejects_derivative_under_a_root():
    with pytest.raises(NotCubicInDerivative,
                       match=r"^derivative inside the atom sqrt\(p\)$"):
        extract_cubic_coefficients(parse_expression("x*p^(1/2)"))


def test_extract_accepts_derivative_in_a_vanishing_atom():
    ode = extract_cubic_coefficients(parse_expression("(sin(p)^2+cos(p)^2)*y"))
    assert (ode.P, ode.Q, ode.R, ode.S) == (Y, 0, 0, 0)


def _reference_extract(rhs) -> tuple:
    """The coefficients as sympy's Poly in p and one normalize per
    coefficient over the normalized right-hand side's denominator give them."""
    rhs = normalize(rhs)
    num, den = rhs.as_numer_denom()
    poly = sp.Poly(num, P)
    c = [normalize(poly.coeff_monomial(P**k) / den) for k in range(4)]
    return c[0], normalize(c[1] / 3), normalize(c[2] / 3), c[3]


def _assert_extracts_as_reference(rhs):
    ode = extract_cubic_coefficients(rhs)
    for got, want in zip((ode.P, ode.Q, ode.R, ode.S), _reference_extract(rhs)):
        assert sp.srepr(got) == sp.srepr(want)
        assert got == want  # the same args, in the same order


A = sp.Symbol("a")
RHS_ATOMS = [sp.sin(Y), sp.cos(Y), sp.exp(X), sp.exp(2 * X), sp.log(X),
             X**sp.Rational(1, 3), sp.sqrt(2), sp.I, sp.pi]


@st.composite
def cubic_rhs(draw):
    """Right-hand sides cubic in p over x, y, the parameter a and up to two
    atoms, divided by 1, a constant or a polynomial; the denominators in x
    and a alone order differently in a field without y."""
    pool = [X, Y, A] + draw(st.lists(st.sampled_from(RHS_ATOMS), max_size=2,
                                     unique=True))
    term = st.tuples(st.integers(-4, 4),
                     st.lists(st.sampled_from(pool), max_size=2))

    def coefficient():
        return sp.Add(*[c * sp.Mul(*f) for c, f in draw(st.lists(term, max_size=3))])
    degree = draw(st.integers(0, 3))  # 0: free of p
    rhs = sum(coefficient() * P**k for k in range(degree + 1))
    den = draw(st.sampled_from([1, 6, X - A, 2 * A - X**2 + 1, X * Y + 1,
                                coefficient() + 7]))
    return rhs / den


@settings(max_examples=100, deadline=None)
@given(cubic_rhs())
def test_extract_agrees_with_poly_reference(rhs):
    _assert_extracts_as_reference(rhs)


@pytest.mark.parametrize("text", [
    "p*x/(x-a) + y",          # Q over x - a, whose own field puts a first
    "p^3/(x-a) + y",          # 1/(x - a) keeps the sign it was written with
    "p^3/(a-x) + y",
    "p^3/(x-a+sin(x)) + y",   # ... unless a relation reduces it
    "(b*y + p^3*(4*b - 3*b^2) + p*exp(-x))/(5*b^2 - y)",
    "(x^(1/3)*p^2 + p*x + 1)/(x - 1)",
    "(sin(y)*p^3 + cos(y)*p + x)/(x^2 + sin(y))",
])
def test_extract_agrees_with_poly_reference_on_sign_traps(text):
    _assert_extracts_as_reference(parse_expression(text))


def test_ode_rejects_p_in_coefficient():
    with pytest.raises(ValueError):
        OdeCubic(P + 1, sp.Integer(0), sp.Integer(0), sp.Integer(0))


def test_rhs_reassembly():
    ode = OdeCubic(X, Y, X * Y, sp.Integer(2))
    assert normalize(ode.rhs() - (X + 3 * Y * P + 3 * X * Y * P**2 + 2 * P**3)) == 0


def test_free_parameters():
    a, b = sp.symbols("a b")
    ode = OdeCubic(a * Y + b, sp.Integer(0), sp.Integer(0), sp.Integer(0))
    assert ode.free_parameters() == {a, b}
