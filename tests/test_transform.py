"""Map emission, pullback generation and numeric verification."""

import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from painleq import canonical as cn
from painleq import transform
from painleq.classify import check_painleve1, check_painleve2, classify
from painleq.exprkernel import P, X, Y, is_identically_zero, normalize, to_expr
from painleq.parsing import (NotCubicInDerivative, OdeCubic,
                             extract_cubic_coefficients, parse_expression)
from painleq.transform import (BranchVerificationFailed, DegenerateMap,
                               PointMap, map_painleve1, map_painleve2,
                               pullback_ode, verify_map)


def zero(e) -> bool:
    return normalize(sp.sympify(e)) == 0


def test_identity_pullback():
    src = pullback_ode(cn.painleve1(), PointMap(X, Y))
    tgt = cn.painleve1()
    assert all(zero(a - b) for a, b in
               [(src.P, tgt.P), (src.Q, tgt.Q), (src.R, tgt.R), (src.S, tgt.S)])


def test_trig_pullback_reproduces_reference_instance():
    src = pullback_ode(cn.painleve1(), PointMap(X * sp.sin(Y), X * sp.cos(Y)))
    ref = cn.example1_trigonometric()
    for a, b in [(src.P, ref.P), (src.Q, ref.Q), (src.R, ref.R), (src.S, ref.S)]:
        assert zero(a - b)


def test_pullback_rejects_degenerate_map():
    with pytest.raises(DegenerateMap):
        pullback_ode(cn.painleve1(), PointMap(X + Y, 2 * X + 2 * Y))


def test_map_painleve1_identity_on_itself():
    rep = check_painleve1(cn.painleve1())
    m = map_painleve1(rep)
    assert zero(m.x_new - X) and zero(m.y_new - Y)
    assert m.branch == "y+" and m.verified
    assert m.max_residual == 0.0


def test_map_painleve1_exact_on_negative_affine_disguise():
    """x_new is negative on the sample box: its fifth root must be the real
    one, with no (-1)**(1/5) and no tenth root of I1 left in y_new."""
    pm = PointMap(-sp.Rational(3, 2) * X - Y + 1, X - Y / 2)
    src = pullback_ode(cn.painleve1(), pm)
    m = map_painleve1(check_painleve1(src), samples=8)
    assert zero(m.x_new + (3 * X + 2 * Y - 2) / 2)
    assert not m.x_new.has(sp.Integer(-1) ** sp.Rational(1, 5))
    assert zero(m.y_new - (X - Y / 2)) or zero(m.y_new + (X - Y / 2))
    assert m.verified and m.max_residual < 1e-8


@pytest.mark.parametrize("sign, branch, calls", [(1, "y+", 1), (-1, "y-", 2)])
def test_arbitration_stops_at_first_verified_branch(monkeypatch, sign, branch,
                                                    calls):
    """y+ is verified first; y- only after y+ has failed."""
    seen = []

    def counting(*args, **kwargs):
        seen.append(args[2].branch)
        return verify_map(*args, **kwargs)

    pm = PointMap(X + 1, sign * Y)
    src = pullback_ode(cn.painleve1(), pm)
    report = check_painleve1(src)
    monkeypatch.setattr(transform, "verify_map", counting)
    m = map_painleve1(report, samples=8)
    assert len(seen) == calls and seen[-1] == branch == m.branch
    assert m.x_new == X + 1 and m.y_new == sign * Y and m.verified
    ok, res = verify_map(src, "painleve1", pm, samples=8)
    assert ok and m.max_residual == float(res)


def test_map_painleve1_rejects_failed_report():
    rep = check_painleve1(cn.painleve2(1))
    with pytest.raises(ValueError):
        map_painleve1(rep)


def test_map_painleve1_constant_invariants_degenerate():
    rep = check_painleve1(cn.painleve1())
    rep.invariants["I1"] = sp.Rational(1, 12)
    rep.invariants["I2"] = sp.Integer(12)
    with pytest.raises(DegenerateMap):
        map_painleve1(rep)


def test_map_painleve2_identity_on_itself():
    rep = check_painleve2(cn.painleve2(1))
    m = map_painleve2(rep)
    assert zero(m.x_new - X) and zero(m.y_new - Y)
    assert m.verified and zero(m.J - 1)


def test_map_painleve2_zero_parameter_single_branch():
    rep = check_painleve2(cn.painleve2(0))
    m = map_painleve2(rep)
    assert m.branch == "J+" and zero(m.J)


def test_map_painleve2_as_printed_fails_verification():
    rep = check_painleve2(cn.painleve2(1))
    # the error lists the residual of every branch
    with pytest.raises(BranchVerificationFailed,
                       match="J\\+: residual .*; J-: residual"):
        map_painleve2(rep, as_printed=True)


def test_jacobian_in_the_field():
    assert PointMap(X * sp.sin(Y), X * sp.cos(Y)).jacobian().as_expr() == -X
    jac = PointMap(X + Y**2, Y * X**sp.Rational(1, 3)).jacobian()
    assert zero(jac.as_expr() - X**sp.Rational(1, 3)
                + 2 * Y**2 / (3 * X**sp.Rational(2, 3)))
    assert not PointMap(X + Y, 2 * X + 2 * Y).jacobian()


def test_verify_identity_zero_residual():
    ok, res = verify_map(cn.painleve1(), "painleve1", PointMap(X, Y))
    assert ok and res == 0


def test_verify_wrong_sign_branch_fails():
    ok, res = verify_map(cn.painleve1(), "painleve1", PointMap(X, -Y))
    assert not ok and res > 1e-9


def test_verify_rejects_unknown_target():
    with pytest.raises(ValueError):
        verify_map(cn.painleve1(), "painleve4", PointMap(X, Y))


def test_verify_rejects_zero_samples():
    with pytest.raises(ValueError):
        verify_map(cn.painleve1(), "painleve1", PointMap(X, Y), samples=0)


FUZZ_MAPS = [
    PointMap(X + 1, Y),
    PointMap(2 * X, Y / 2),
    PointMap(X + Y, Y),
    PointMap(X, Y + X**2),
    PointMap(X + Y**2, Y),
    PointMap(Y, X),
    PointMap(X + Y, X - Y),
    PointMap(X, Y + X**3),
    PointMap(X + Y**3, Y),
    PointMap(X * sp.sin(Y), X * sp.cos(Y)),
]


@pytest.mark.parametrize("idx", range(len(FUZZ_MAPS)))
def test_round_trip_painleve2(idx):
    pm = FUZZ_MAPS[idx]
    src = pullback_ode(cn.painleve2(1), pm)
    cls = classify(src)
    assert cls.kind == "painleve2"
    assert zero(cls.J - 1) or zero(cls.J + 1)
    m = map_painleve2(cls.reports["painleve2"], samples=8)
    assert m.verified and m.max_residual < 1e-8


@pytest.mark.parametrize("idx", [0, 3, 5, 9])
def test_round_trip_painleve1(idx):
    pm = FUZZ_MAPS[idx]
    src = pullback_ode(cn.painleve1(), pm)
    cls = classify(src)
    assert cls.kind == "painleve1"
    m = map_painleve1(cls.reports["painleve1"], samples=8)
    assert m.verified and m.max_residual < 1e-8


def test_composition_consistency():
    """The emitted map composed with the disguising map fixes the canonical
    equation: verifying the canonical equation against itself through the
    composition must pass."""
    pm = PointMap(X * sp.sin(Y), X * sp.cos(Y))
    src = pullback_ode(cn.painleve1(), pm)
    emitted = map_painleve1(classify(src).reports["painleve1"], samples=8)
    # src coordinates (x, y) relate to canonical ones through pm, so the
    # composition sends canonical -> canonical only if emitted inverts pm;
    # equivalently emitted must agree with pm up to the arbitrated sign
    assert zero(emitted.x_new - pm.x_new)
    assert zero(emitted.y_new - pm.y_new) or zero(emitted.y_new + pm.y_new)
    ok, res = verify_map(src, "painleve1", emitted, samples=8)
    assert ok and res < 1e-8


def test_pullback_output_is_derivative_free():
    for pm in FUZZ_MAPS[:4]:
        ode = pullback_ode(cn.painleve2(1), pm)
        for c in (ode.P, ode.Q, ode.R, ode.S):
            assert not sp.sympify(c).has(P)


def _ode(text):
    return extract_cubic_coefficients(parse_expression(text))


def _reference_pullback(target, pmap):
    """The pullback as expressions: sympy's diff, subs, together, expand and
    Poly in p, and one normalize per coefficient over together's
    denominator (again over 3 for Q and R)."""
    xm, ym = sp.sympify(pmap.x_new), sp.sympify(pmap.y_new)
    if is_identically_zero(pmap.jacobian()).is_zero:
        raise DegenerateMap("pullback through a map with zero Jacobian")
    det = to_expr(pmap.jacobian())
    u = sp.diff(xm, X) + P * sp.diff(xm, Y)
    v = sp.diff(ym, X) + P * sp.diff(ym, Y)
    a2 = sp.diff(ym, X, 2) + 2 * P * sp.diff(ym, X, Y) + P**2 * sp.diff(ym, Y, 2)
    b2 = sp.diff(xm, X, 2) + 2 * P * sp.diff(xm, X, Y) + P**2 * sp.diff(xm, Y, 2)
    t = [c.subs({X: xm, Y: ym}, simultaneous=True)
         for c in (target.P, target.Q, target.R, target.S)]
    rhs_u3 = t[0] * u**3 + 3 * t[1] * v * u**2 + 3 * t[2] * v**2 * u + t[3] * v**3
    num, den = sp.together((rhs_u3 - a2 * u + v * b2) / det).as_numer_denom()
    poly = sp.Poly(sp.expand(num), P)
    if poly.degree() > 3 or den.has(P):
        raise NotCubicInDerivative("pullback lost the cubic-in-derivative form")
    c = [normalize(poly.coeff_monomial(P**k) / den) for k in range(4)]
    return c[0], normalize(c[1] / 3), normalize(c[2] / 3), c[3]


def _assert_pulls_back_as_reference(target, pmap):
    ode = pullback_ode(target, pmap)
    for got, want in zip((ode.P, ode.Q, ode.R, ode.S),
                         _reference_pullback(target, pmap)):
        assert sp.srepr(got) == sp.srepr(want)


A, B = sp.symbols("a b")
# coefficients with parameters in denominators, some written with a sign
# that normalize would not give them
DENOMINATED = [sp.Integer(0), Y, X * Y + A, 1 / (X - A), A / (X - A)**2,
               (X - A) / (Y + B), 1 / (3 * (Y - B)), -1 / (A - X),
               X / (2 * (X + A)), 1 / (X - A) + Y]


@st.composite
def targets(draw):
    kind = draw(st.sampled_from(["PI", "PII", "PII(n)", "PIII", "PIII(n)",
                                 "denominated"]))
    if kind == "PI":
        return cn.painleve1()
    if kind == "PII":
        return cn.painleve2()
    if kind == "PII(n)":
        return cn.painleve2(draw(st.integers(-2, 3)))
    if kind == "PIII":
        return cn.painleve3_zero()
    if kind == "PIII(n)":
        return cn.painleve3_zero(draw(st.sampled_from([-2, -1, 1, 2, 3])))
    return OdeCubic(*(draw(st.sampled_from(DENOMINATED)) for _ in range(4)))


@st.composite
def point_maps(draw):
    """The benchmark's map families and random quadratic maps, scaled and
    shifted; scale 1 keeps translations, whose coefficients can be exactly
    1 over one sum."""
    family = draw(st.sampled_from(["shear_x", "shear_y", "affine", "exp",
                                   "polar", "quadratic"]))
    k, c = draw(st.sampled_from([2, 3])), draw(st.sampled_from([1, 2]))
    small = st.integers(-2, 2)
    if family == "shear_x":
        f1, f2 = X + c * Y**k, Y
    elif family == "shear_y":
        f1, f2 = X, Y + c * X**k
    elif family == "affine":
        f1, f2 = (draw(small) * X + draw(small) * Y for _ in range(2))
    elif family == "exp":
        f1, f2 = X * sp.exp(Y), Y
    elif family == "polar":
        f1, f2 = X * sp.sin(Y), X * sp.cos(Y)
    else:
        monomials = [sp.Integer(1), X, Y, X**2, X * Y, Y**2]
        unit = st.integers(-1, 1)
        f1, f2 = (sum(draw(unit) * m for m in monomials) for _ in range(2))
    s1, s2 = (draw(st.sampled_from([1, 2, 3])) for _ in range(2))
    t1, t2 = (draw(st.integers(0, 2)) for _ in range(2))
    return PointMap(s1 * f1 + t1, s2 * f2 + t2)


@settings(max_examples=30, deadline=None)
@given(targets(), point_maps())
def test_pullback_agrees_with_expression_reference(target, pmap):
    try:
        want = _reference_pullback(target, pmap)
    except DegenerateMap:
        with pytest.raises(DegenerateMap):
            pullback_ode(target, pmap)
        return
    ode = pullback_ode(target, pmap)
    for got, ref in zip((ode.P, ode.Q, ode.R, ode.S), want):
        assert sp.srepr(got) == sp.srepr(ref)


def test_pullback_moves_target_atoms_through_the_map():
    ode = pullback_ode(_ode("sin(x) + y"), PointMap(X + Y**2, Y))
    assert sp.sin(X + Y**2) in ode.P.atoms(sp.sin)
    assert sp.sin(X) not in ode.P.atoms(sp.sin)
    _assert_pulls_back_as_reference(_ode("sin(x) + y"), PointMap(X + Y**2, Y))


def test_pullback_expands_moved_exponentials():
    target, pmap = _ode("exp(2*x)"), PointMap(X + Y**2, Y + 1)
    assert pullback_ode(target, pmap).P == sp.exp(2 * X) * sp.exp(2 * Y**2)
    _assert_pulls_back_as_reference(target, pmap)


# targets and maps that sympy writes over denominators of either sign; every
# coefficient's denominator leads positive in x, y, a, b
@pytest.mark.parametrize("target, pmap", [
    # S is 1/(-3*a + 9*x): a field without y still puts x before a
    (_ode("p^3/(x-a)"), PointMap(3 * X, 2 * X**3 - Y)),
    # Q is 1/(-2*a + 4*x + 2)
    (_ode("(x-a)/(y+b) + p^3/(x-a)"), PointMap(2 * X + 1, X + 3 * Y)),
    # S is 1/(-a + x + 1)
    (_ode("p^3/(x-a) + y"), PointMap(X + 1, Y + 1)),
    (_ode("p/(x-a) + p^2/(y-b)"), PointMap(X + 1, Y + 2)),
    # P is 1/(-3*b + 3*y)
    (OdeCubic(1 / (3 * (Y - B)), *[sp.Integer(0)] * 3), PointMap(X + Y**2, Y)),
    # P is x over x*(x - y), which prints -1/(x - y)
    (cn.painleve3_zero(1), PointMap(-4 * X, -4 * X + 4 * Y)),
    # P is a + x + 2*y**3 - 2 over 6*(-b + 2*y + 2)*(a + x + 2*y**3 - 2):
    # the sum cancels, and 1/(-6*b + 12*y + 12) is left
    (OdeCubic(1 / (3 * Y - 3 * B), -1 / (A - X), -1 / (A - X), sp.Integer(0)),
     PointMap(-X - 2 * Y**3 + 2, 2 * Y + 2)),
])
def test_pullback_keeps_the_signs_normalize_prints(target, pmap):
    _assert_pulls_back_as_reference(target, pmap)


def test_pullback_sign_trap_values():
    ode = pullback_ode(_ode("p^3/(x-a)"), PointMap(3 * X, 2 * X**3 - Y))
    assert str(ode.S) == "1/(-3*a + 9*x)"
    ode = pullback_ode(_ode("(x-a)/(y+b) + p^3/(x-a)"),
                       PointMap(2 * X + 1, X + 3 * Y))
    assert str(ode.Q) == "1/(-2*a + 4*x + 2)"


@pytest.mark.parametrize("pmap", [
    PointMap(X**sp.Rational(1, 3), Y),
    PointMap(X, Y * sp.sqrt(X)),
    PointMap((X + Y)**sp.Rational(1, 5), Y),
    PointMap(X * sp.exp(Y + 1), Y),
])
def test_pullback_through_roots_is_equal_to_reference(pmap):
    """The field keeps a root of a nonconstant base as its own generator
    (sympy merges x*x^(1/2) into x^(3/2)), and exp(y + 1) as one atom
    (sp.expand splits it), so these print differently but are equal."""
    ode = pullback_ode(cn.painleve1(), pmap)
    for got, want in zip((ode.P, ode.Q, ode.R, ode.S),
                         _reference_pullback(cn.painleve1(), pmap)):
        assert not is_identically_zero(got - want).is_nonzero


def test_pullback_rejects_a_map_holding_the_derivative():
    with pytest.raises(NotCubicInDerivative):
        pullback_ode(cn.painleve1(), PointMap(X + P**2 * Y, Y))


@pytest.mark.parametrize("emit, passes", [
    (lambda: map_painleve1(check_painleve1(pullback_ode(
        cn.painleve1(), PointMap(X + 2 * Y**2, Y)))), True),
    (lambda: map_painleve2(check_painleve2(pullback_ode(
        cn.painleve2(2), PointMap(X * sp.sin(Y), X * sp.cos(Y))))), True),
    (lambda: map_painleve2(check_painleve2(cn.painleve2(1)), as_printed=True),
     False),
], ids=["PI-shear", "PII-polar", "PII-as-printed"])
def test_verify_on_one_tape_matches_per_piece_closures(monkeypatch,
                                                       reference_compile,
                                                       emit, passes):
    """Every branch the emission verifies gets the verdict and the residual,
    to the last digit, of the pieces evaluated one closure tree each."""
    calls, real = [], transform.verify_map

    def per_piece(e, precision):
        """verify_map's former compilation: one closure tree per piece."""
        runs = [reference_compile(a, precision) for a in e.args]
        return lambda v, s: tuple(run(v, s) for run in runs)

    def record(*args, **kwargs):
        calls.append((args, kwargs))
        return real(*args, **kwargs)
    monkeypatch.setattr(transform, "verify_map", record)
    try:
        emit()
    except BranchVerificationFailed:
        assert not passes
    monkeypatch.undo()
    assert calls
    for args, kwargs in calls:
        ok, res = real(*args, **kwargs)
        with monkeypatch.context() as m:
            m.setattr(transform, "compile_numeric", per_piece)
            want = real(*args, **kwargs)
        assert (ok, repr(res)) == (want[0], repr(want[1]))
    assert ok == passes
