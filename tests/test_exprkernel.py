"""Kernel-level behavior: normalization, zero testing, numeric evaluation."""

import random
from fractions import Fraction

import mpmath
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from painleq.exprkernel import (DEFAULT_SEED, EvenRootOfNegative, PoleAtPoint,
                                X, Y, DegenerateSubstitution, compile_numeric,
                                differentiate, evaluate_numeric, field_for,
                                is_identically_zero, normalize, numeric_point,
                                random_rational, root_up_to_sign, substitute)


def test_normalize_cancels_rational_functions():
    e = (X**2 - Y**2) / (X - Y)
    assert normalize(e) == X + Y


def test_normalize_zero():
    assert normalize(X - X) == 0
    assert normalize((X + 1)**2 - X**2 - 2 * X - 1) == 0


def test_normalize_cos_square_rewrite():
    e = sp.cos(Y)**2 + sp.sin(Y)**2 - 1
    assert normalize(e) == 0
    e = sp.cos(Y)**4 - (1 - sp.sin(Y)**2)**2
    assert normalize(e) == 0


def test_normalize_prints_rational_coefficients():
    assert str(normalize(X / 3 + Y**2 / 5)) == "x/3 + y**2/5"


def test_float_and_rational_root_convert_exactly():
    assert normalize(sp.Float(0.5) * X) == X / 2
    # sympy writes (1/2)**(1/3) as 2**(2/3)/2: the root of an integer
    r = sp.Rational(1, 2) ** sp.Rational(1, 3)
    assert normalize(r * X) == 2 ** sp.Rational(2, 3) * X / 2
    assert is_identically_zero(r**3 * X - X / 2).is_zero


def test_field_holds_integer_coefficients():
    e = (X / 3 - Y**2 / 5) / (-X * Y / 7 + sp.Rational(1, 2)) + sp.sin(Y) / 6
    f = field_for(e)(e)
    for poly in (f.numer, f.denom):
        assert all(isinstance(c, int) for c in poly.coeffs())
    assert f.denom.LC > 0
    assert normalize(f.as_expr() - e) == 0


def test_normalize_keeps_odd_cos_power():
    e = normalize(sp.cos(Y)**3)
    # one cos factor survives, the square is rewritten
    assert e.has(sp.cos) and not any(
        t.is_Pow and t.base.func is sp.cos and t.exp >= 2
        for t in sp.preorder_traversal(e))


@st.composite
def rational_exprs(draw):
    coeffs = draw(st.lists(st.integers(-5, 5), min_size=1, max_size=4))
    e = sum(c * X**i * Y**(i % 2) for i, c in enumerate(coeffs))
    if draw(st.booleans()):
        e = e / (1 + X**2)
    return e


@settings(max_examples=40, deadline=None)
@given(rational_exprs())
def test_normalize_idempotent(e):
    n = normalize(e)
    assert normalize(n) == n


@settings(max_examples=25, deadline=None)
@given(rational_exprs(), rational_exprs())
def test_mixed_partials_commute(e, f):
    g = e + f * Y
    assert normalize(differentiate(differentiate(g, X), Y)
                     - differentiate(differentiate(g, Y), X)) == 0


def test_differentiate_rejects_parameters():
    with pytest.raises(ValueError):
        differentiate(X, sp.Symbol("a"))


def test_zero_verdict_tristate():
    assert is_identically_zero(X - X).is_zero
    assert is_identically_zero(X + 1).is_nonzero
    v = is_identically_zero(X)
    with pytest.raises(TypeError):
        bool(v)


def test_zero_verdict_trig_nonzero():
    v = is_identically_zero(sp.sin(X) + X)
    assert v.is_nonzero


def test_zero_verdict_trig_zero_via_normal_form():
    v = is_identically_zero(sp.sin(X)**2 + sp.cos(X)**2 - 1)
    assert v.is_zero


@pytest.mark.parametrize("e", [
    sp.sin(X * Y)**4 - sp.cos(X * Y)**4 - sp.sin(X * Y)**2 + sp.cos(X * Y)**2,
    sp.exp(2 * Y) - sp.Pow(sp.exp(Y), 2, evaluate=False),
    X**sp.Rational(2, 5) - sp.Pow(X**sp.Rational(1, 5), 2, evaluate=False),
], ids=["pythagorean", "exp", "root"])
def test_atom_identities_vanish_in_canonical_form(e):
    assert e != 0  # sympy has not already cancelled it
    v = is_identically_zero(e)
    assert v.is_zero and v.note == "canonical form vanishes"


def test_field_zero_test_takes_field_elements():
    s, c = sp.sin(Y), sp.cos(Y)
    field = field_for(X * s, c)
    assert is_identically_zero(field(s) ** 2 + field(c) ** 2 - 1).is_zero
    assert is_identically_zero(field(X * s)).is_nonzero


def test_zero_verdict_exact_for_one_trig_pair():
    e = sp.sin(Y)**2 * X + sp.cos(Y)**2 * Y**3 + sp.cos(Y) * sp.sin(Y)
    assert is_identically_zero(e).note == \
        "canonical form is a nonzero rational function"
    # sin(2y) and sin(y) are algebraically dependent: still sampled
    v = is_identically_zero(sp.sin(2 * Y) + sp.sin(Y))
    assert v.is_nonzero and v.note.startswith("sample")
    # a parameter or an atom in the argument: still sampled
    for u in (sp.Symbol("a") * Y, sp.exp(Y)):
        v = is_identically_zero(sp.sin(u) + X)
        assert v.is_nonzero and v.note.startswith("sample")


def test_root_up_to_sign_odd_root_of_negative_content():
    r = root_up_to_sign(-(3 * X + 2 * Y - 2)**5 / 32, 5)
    assert normalize(r + (3 * X + 2 * Y - 2) / 2) == 0
    assert not r.has(sp.Integer(-1) ** sp.Rational(1, 5))
    r = root_up_to_sign(-3 * X**5 * Y, 5)
    assert r == -3 ** sp.Rational(1, 5) * X * Y ** sp.Rational(1, 5)


def test_root_up_to_sign_sixth_root():
    assert normalize(root_up_to_sign(64 * X**6 / (X + Y)**12, 6)
                     - 2 * X / (X + Y)**2) == 0
    r = root_up_to_sign(X**7 / Y**6, 6)
    assert normalize(r - X * X ** sp.Rational(1, 6) / Y) == 0


def test_root_up_to_sign_trig_square():
    r = root_up_to_sign(9 * X**2 * (1 - sp.sin(Y)**2), 2)
    assert normalize(r - 3 * X * sp.cos(Y)) == 0
    r = root_up_to_sign(X**6 * sp.cos(Y)**6 * 64, 6)
    assert normalize(r - 2 * X * sp.cos(Y)) == 0


@settings(max_examples=30, deadline=None)
@given(rational_exprs(), rational_exprs(), st.sampled_from((2, 3, 5, 6)))
def test_root_up_to_sign_extracts_powers(f, g, n):
    e = f**n * g
    r = root_up_to_sign(e, n)
    # the real root for odd n, a root up to sign for even n
    assert normalize(r**n - e) == 0 or (n % 2 == 0 and normalize(r**n + e) == 0)


# the argument of every atom is positive on the sample box [1, 2]^2, so that
# ln and even roots are real there
ATOMS = {
    "sin": sp.sin, "cos": sp.cos, "exp": sp.exp, "ln": sp.log,
    "sqrt": sp.sqrt, "cbrt": lambda u: u**sp.Rational(1, 3),
}


@st.composite
def atom_polys(draw, kind):
    a, b, c = draw(st.lists(st.integers(1, 3), min_size=3, max_size=3))
    atom = ATOMS[kind](a * X + b * Y**2 + c * X * Y)
    k = draw(st.integers(1, 3))
    p, q = draw(rational_exprs()), draw(rational_exprs())
    return p * atom**k + q * atom


def _agree(e, f, rng) -> bool:
    """``e`` and ``f`` agree numerically at three rational points of the box."""
    for _ in range(3):
        point = {X: random_rational(rng), Y: random_rational(rng)}
        u, v = evaluate_numeric(e, point), evaluate_numeric(f, point)
        if abs(u - v) > mpmath.mpf(10)**-40 * max(1, abs(u), abs(v)):
            return False
    return True


@pytest.mark.parametrize("kind", sorted(ATOMS))
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_derivation_table_agrees_with_diff(kind, data):
    e = data.draw(atom_polys(kind))
    field = field_for(e)
    f = field(e)
    rng = random.Random(DEFAULT_SEED)
    for var in (X, Y):
        assert _agree(field.diff(f, var).as_expr(), sp.diff(e, var), rng)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(sorted(ATOMS)), st.sampled_from(sorted(ATOMS)),
       st.data())
def test_normalize_agrees_numerically(kind1, kind2, data):
    e = (data.draw(atom_polys(kind1)) * data.draw(atom_polys(kind2))
         / (1 + X**2 + data.draw(atom_polys(kind1))**2))
    assert _agree(normalize(e), e, random.Random(DEFAULT_SEED))


@settings(max_examples=40, deadline=None)
@given(rational_exprs(), st.sampled_from(sorted(ATOMS)), st.data())
def test_compiled_evaluation_agrees_with_sympy(e, kind, data):
    e = e + data.draw(atom_polys(kind)) + sp.pi / sp.E
    run = compile_numeric(e, 60)
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    point = {X: random_rational(rng), Y: random_rational(rng)}
    with mpmath.workdps(60):
        scale = [mpmath.mpf(0)]
        value = run(numeric_point(point), scale)
        assert scale[0] >= abs(value)
    ref = sp.N(e.subs({k: sp.Rational(v) for k, v in point.items()}), 80)
    with mpmath.workdps(80):
        ref = mpmath.mpf(str(ref))
        assert abs(value - ref) <= mpmath.mpf(10)**-50 * max(1, abs(ref))


def test_evaluate_real_odd_root():
    v = evaluate_numeric(sp.Integer(-8)**sp.Rational(1, 3), {})
    assert abs(v + 2) < mpmath.mpf("1e-50")


def test_evaluate_even_root_of_negative():
    with pytest.raises(EvenRootOfNegative):
        evaluate_numeric(sp.sqrt(X), {X: Fraction(-1)})


def test_evaluate_pole():
    with pytest.raises(PoleAtPoint):
        evaluate_numeric(1 / (X - 1), {X: Fraction(1)})


def test_evaluate_log_pole():
    with pytest.raises(PoleAtPoint):
        evaluate_numeric(sp.log(X), {X: Fraction(0)})


def test_substitute_simultaneous():
    e = substitute(X * Y, {X: Y, Y: X})
    assert e == X * Y


def test_substitute_degenerate():
    with pytest.raises(DegenerateSubstitution):
        substitute(1 / (X - Y), {X: Y})


def test_random_rational_range():
    rng = random.Random(DEFAULT_SEED)
    for _ in range(100):
        r = random_rational(rng)
        assert 1 <= r <= 2
