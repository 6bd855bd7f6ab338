"""Kernel-level behavior: normalization, zero testing, numeric evaluation."""

import random
from fractions import Fraction

import operator

import mpmath
import pytest
import sympy as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from sympy.polys.domains import ZZ
from sympy.polys.fields import FracElement, FracField
from sympy.polys.orderings import lex

from painleq.exprkernel import (DEFAULT_SEED, EvenRootOfNegative, PoleAtPoint,
                                X, Y, RationalField,
                                compile_numeric,
                                evaluate_numeric, field_for,
                                is_identically_zero, normalize, numeric_point,
                                random_rational, root_up_to_sign,
                                to_expr)


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


SIGN_ORDER = (X, Y, *sp.symbols("a b"))


@st.composite
def denominators(draw):
    """A nonconstant primitive polynomial in x and y, in x alone or in y
    alone, and in a and b, with a leading coefficient of either sign."""
    gens = draw(st.sampled_from([(X, Y), (X,), (Y,)])) + SIGN_ORDER[2:]
    n = len(gens)
    # sparse terms, so that the leading terms of different orders differ
    term = st.tuples(st.integers(-4, 4).filter(bool),
                     st.lists(st.sampled_from([0, 0, 1, 2]), min_size=n,
                              max_size=n))
    den = sum(c * sp.Mul(*(g**k for g, k in zip(gens, m)))
              for c, m in draw(st.lists(term, min_size=1, max_size=4)))
    assume(den.free_symbols)
    return sp.Poly(den, *gens).primitive()[1].as_expr()


@settings(max_examples=60, deadline=None)
@given(denominators())
def test_one_sign_rule_for_every_fraction(den):
    """1/den, -1/den and 2/den print one denominator, and its leading
    coefficient is positive in the lex order x, y, a, b, also when den
    holds only one of x and y."""
    dens = {sp.fraction(normalize(c / den))[1] for c in (1, -1, 2)}
    assert len(dens) == 1
    assert sp.Poly(dens.pop(), *SIGN_ORDER).LC() > 0


@settings(max_examples=25, deadline=None)
@given(rational_exprs(), rational_exprs())
def test_mixed_partials_commute(e, f):
    g = e + f * Y
    assert normalize(sp.diff(g, X, Y) - sp.diff(g, Y, X)) == 0


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


def test_zero_test_of_a_field_element_takes_no_gcd(monkeypatch):
    """n/d is zero exactly when n is zero modulo the relations, so the zero
    test reduces the numerator alone and builds no fraction, whose
    cancelling would take a gcd."""
    s, c = sp.sin(Y), sp.cos(Y)
    field = field_for(sp.sin(2 * Y), s, X)
    cases = [
        (field(s**2 + c**2 - 1), "zero"),
        (field.free((s**2 + c**2 - 1) / (X + c**2)), "zero"),
        (field(X * s / (1 + c**2)), "nonzero"),
        (field(sp.sin(2 * Y) - 2 * s * c), "unknown"),
    ]

    def new(*args, **kwargs):
        raise AssertionError("the zero test built a fraction")

    monkeypatch.setattr(FracField, "new", new)
    for f, status in cases:
        assert is_identically_zero(f).status == status


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


# one atom of each kind a field holds; exp(y) and exp(2*y) share a generator
FIELD_ATOMS = {
    "trig": (sp.sin(Y), sp.cos(Y)), "exp": (sp.exp(Y), sp.exp(2 * Y)),
    "ln": (sp.log(X),), "cbrt": (X**sp.Rational(1, 3),),
    "sqrt2": (sp.sqrt(2),), "I": (sp.I,), "pi": (sp.pi,), "E": (sp.E,),
}
A, B = sp.symbols("a b")


@st.composite
def field_elements(draw):
    """Reduced elements over x, y, a, b and up to three kinds of atoms, with
    numerators of up to five terms (or none) and a denominator that is 1, a
    constant, a monomial or a polynomial."""
    kinds = draw(st.lists(st.sampled_from(sorted(FIELD_ATOMS)), max_size=3,
                          unique=True))
    field = field_for(X, Y, A, B, *(a for k in kinds for a in FIELD_ATOMS[k]))
    ring, n = field.ring, len(field.symbols)
    term = st.tuples(st.integers(-6, 6).filter(bool),
                     st.lists(st.integers(0, 3), min_size=n, max_size=n))

    def poly(min_terms, max_terms):
        terms = draw(st.lists(term, min_size=min_terms, max_size=max_terms))
        return ring.from_dict({tuple(m): c for c, m in terms})
    den = {"one": lambda: ring.one,
           "constant": lambda: ring.ground_new(draw(st.integers(2, 12))),
           "monomial": lambda: poly(1, 1),
           "polynomial": lambda: poly(2, 3)}[draw(st.sampled_from(
               ["one", "constant", "monomial", "polynomial"]))]()
    assume(den)
    try:
        return field.reduce(field.K.new(poly(0, 5), den))
    except ZeroDivisionError:  # the denominator reduces to 0, as 1 + i**2
        assume(False)


def _same_tree(e, f):
    """Same srepr, and the same args in the same order at every node (srepr
    prints the terms of a sum and the factors of a product sorted)."""
    assert sp.srepr(e) == sp.srepr(f)
    assert e == f


@settings(max_examples=150, deadline=None)
@given(field_elements())
def test_to_expr_builds_the_tree_of_as_expr(f):
    for g in (f, f.numer, f.denom):
        _same_tree(to_expr(g), g.as_expr())


def test_to_expr_evaluates_and_merges_like_sympy():
    r = X**sp.Rational(1, 3)
    F = field_for(X, Y, r, sp.exp(Y), sp.exp(2 * Y), sp.I)
    x, y, root, e, i = (F(g) for g in (X, Y, r, sp.exp(Y), sp.I))
    cases = {
        x * root + root**4: 2 * X**sp.Rational(4, 3),
        x * e**2 + e: X * sp.exp(2 * Y) + sp.exp(Y),
        i * x + 2 * i + y: sp.I * X + 2 * sp.I + Y,
        i**2 * x + x: sp.S.Zero,  # not reduced: i**2 is -1
        (i * x + 1) / 2: sp.I * X / 2 + sp.Rational(1, 2),
        -3 / (x + y): -3 / (X + Y),
        (3 * x + y) / 3: X + Y / 3,
    }
    for f, want in cases.items():
        _same_tree(to_expr(f), f.as_expr())
        assert to_expr(f) == want


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


def test_random_rational_range():
    rng = random.Random(DEFAULT_SEED)
    for _ in range(100):
        r = random_rational(rng)
        assert 1 <= r <= 2


# -- field arithmetic against sympy's FracElement ----------------------------

ROOT3 = X**sp.Rational(1, 3)
# a field whose reduction has relations (the sin/cos pair) and one without;
# the arithmetic runs in the free ring of either
ARITH_FIELDS = {
    "relations": field_for(X, Y, A, sp.sin(Y), sp.cos(Y), sp.exp(Y), ROOT3),
    "free": field_for(X, Y, A, sp.exp(Y), ROOT3),
}


def _plain(field):
    """sympy's own field on the same generators."""
    return FracField(field.symbols, ZZ, lex)


@st.composite
def reduced_elements(draw, field, den=None):
    """A reduced element: zero, or a numerator over a denominator that is
    1, a constant, a monomial or a polynomial, sometimes written with the
    denominator's leading coefficient negative."""
    ring, n = field.ring, len(field.symbols)
    term = st.tuples(st.integers(-4, 4).filter(bool),
                     st.lists(st.integers(0, 2), min_size=n, max_size=n))

    def poly(lo, hi):
        terms = draw(st.lists(term, min_size=lo, max_size=hi))
        return ring.from_dict({tuple(m): c for c, m in terms})
    if den is None:
        den = {"one": lambda: ring.one,
               "constant": lambda: ring.ground_new(draw(st.integers(2, 12))),
               "monomial": lambda: poly(1, 1),
               "polynomial": lambda: poly(2, 3)}[draw(st.sampled_from(
                   ["one", "constant", "monomial", "polynomial"]))]()
        assume(den)
    f = field.K.new(poly(0, 4), den)
    if f and draw(st.booleans()):
        f = field.K.raw_new(-f.numer, -f.denom)
    return f


@st.composite
def operand_pairs(draw, field):
    """Two reduced elements; half the time with one denominator."""
    f = draw(reduced_elements(field))
    if draw(st.booleans()):
        g = draw(reduced_elements(field))
    else:
        c = draw(reduced_elements(field, den=field.ring.one)).numer
        g = field.K.raw_new(f.numer + f.denom * c, f.denom)
    return f, g


def _outcome(op, u, v, Kp):
    """(numerator, denominator) of ``op(u, v)``, or the exception class."""
    try:
        r = op(u, v)
    except ZeroDivisionError as exc:
        return type(exc)
    if not isinstance(r, FracElement):  # sympy returns 0 + c as c itself
        r = Kp.field_new(r)
    return r.numer, r.denom


OPS = (operator.add, operator.sub, operator.mul, operator.truediv)


@pytest.mark.parametrize("name", sorted(ARITH_FIELDS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_field_arithmetic_matches_sympy(name, data):
    field = ARITH_FIELDS[name]
    Kp = _plain(field)
    f, g = data.draw(operand_pairs(field))
    c = data.draw(reduced_elements(field, den=field.ring.one)).numer
    n = data.draw(st.integers(-6, 6))
    r = sp.Rational(data.draw(st.integers(-6, 6)),
                    data.draw(st.integers(1, 6)))
    fp, gp = Kp.raw_new(f.numer, f.denom), Kp.raw_new(g.numer, g.denom)
    for op in OPS:
        assert _outcome(op, f, g, Kp) == _outcome(op, fp, gp, Kp)
        for other in (c, n, r):
            assert _outcome(op, f, other, Kp) == _outcome(op, fp, other, Kp)
            assert _outcome(op, other, f, Kp) == _outcome(op, other, fp, Kp)


def _plain_free_diff(field, f, var):
    """d/var of ``f`` as sympy cancels the quotient rule, with the
    derivatives of the generators from the field's table:
    d(gen)/d(var) = A/B for polynomials A and B."""
    B, table = field._derivation(var)
    num, den = f.numer, f.denom
    dnum = sum((num.diff(g) * a for g, a in table), field.ring.zero)
    dden = sum((den.diff(g) * a for g, a in table), field.ring.zero)
    return _plain(field).new(dnum * den - num * dden, B * den**2)


@pytest.mark.parametrize("name", sorted(ARITH_FIELDS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_field_derivative_matches_sympy(name, data):
    field = ARITH_FIELDS[name]
    f = data.draw(reduced_elements(field))
    for var in (X, Y):
        want = _plain_free_diff(field, f, var)
        got = field.free_diff(f, var)
        assert (got.numer, got.denom) == (want.numer, want.denom)
        if not field._relations:
            got = field.diff(f, var)
            assert (got.numer, got.denom) == (want.numer, want.denom)


def test_field_elements_mix_with_sympy_elements():
    field = ARITH_FIELDS["free"]
    Kp = _plain(field)
    assert field.K == Kp and hash(field.K) == hash(Kp)
    f = field(1 / (X + A)) * field(X)
    g = Kp.raw_new(f.numer, f.denom)
    assert f == g and hash(f) == hash(g)
    assert str(field.K.x + 1) == "x + 1"


# -- the evaluation tape against the closure compiler it replaced -----------

def _evaluated(run, point):
    """(value, scale) of ``run`` at ``point``, or the exception class."""
    with mpmath.workdps(60):
        scale = [mpmath.mpf(0)]
        try:
            return run(numeric_point(point), scale), scale[0]
        except (PoleAtPoint, EvenRootOfNegative) as exc:
            return type(exc)


@settings(max_examples=40, deadline=None)
@given(rational_exprs(), st.sampled_from(sorted(ATOMS)), st.data())
def test_tape_matches_closure_compiler(reference_compile, e, kind, data):
    atom = data.draw(atom_polys(kind))
    # repeated subtrees, which the tape computes once
    e = e * atom + sp.sqrt(atom**2 + 1) / (e**2 + 1) + sp.pi / sp.E
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    point = {X: random_rational(rng), Y: random_rational(rng)}
    want = _evaluated(reference_compile(e), point)
    assert _evaluated(compile_numeric(e, 60), point) == want
    # a tuple is one tape: each entry's value, and the largest scale
    value, scale = _evaluated(compile_numeric(sp.Tuple(e, atom, e), 60), point)
    other = _evaluated(reference_compile(atom), point)
    assert value == (want[0], other[0], want[0])
    assert scale == max(want[1], other[1])


@pytest.mark.parametrize("e, x", [
    (1 / (X - 1), 1), (sp.sqrt(X - 2), 1), (sp.log(X - 1), 1),
    (Y / (X - 1) + sp.sqrt(X - 2), 1), (sp.sqrt(X - 2) + sp.log(X - 1), 1),
    (1 / (X - 1) + sp.sqrt(X - 2), Fraction(3, 2)),
])
def test_tape_raises_as_closure_compiler(reference_compile, e, x):
    point = {X: Fraction(x), Y: Fraction(1)}
    want = _evaluated(reference_compile(e), point)
    assert want in (PoleAtPoint, EvenRootOfNegative)
    assert _evaluated(compile_numeric(e, 60), point) == want


def test_field_subclass_refuses_a_sympy_it_was_not_built_for(monkeypatch):
    """A sympy whose FracField makes its generators without the field's
    element type fails when the field is made, not in the arithmetic."""
    monkeypatch.setattr(FracField, "_gens", lambda K: tuple(
        FracElement(K, g) for g in K.ring.gens))
    with pytest.raises(RuntimeError, match="sympy 1.14"):
        RationalField((X, Y))
