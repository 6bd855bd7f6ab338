"""Map emission, pullback generation and numeric verification."""

import pytest
import sympy as sp

from painleq import canonical as cn
from painleq import transform
from painleq.classify import check_painleve1, check_painleve2, classify
from painleq.exprkernel import X, Y, normalize
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
    from painleq.exprkernel import P
    for pm in FUZZ_MAPS[:4]:
        ode = pullback_ode(cn.painleve2(1), pm)
        for c in (ode.P, ode.Q, ode.R, ode.S):
            assert not sp.sympify(c).has(P)
