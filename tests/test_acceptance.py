"""Acceptance gate: one test per criterion, one PASS/FAIL line each.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the per-criterion
lines; each test also fails or passes through pytest in the usual way.

Criterion 5 asserts the Kamke 6.9 example as it holds: for the published
sign of the cubic term the parameter satisfies J^2 = -a*d^2/(2*b^2), which
is negative for positive a, so no real J = -sqrt(a/2)*d/b exists and a
concrete instance is indeterminate.  An explicit complex affine map onto
Painleve II pins that sign independently of the classifier.  The
supplementary test directly below it shows the published J formula holding
on the sign-corrected family.
"""

import random
import sys
from contextlib import contextmanager

import pytest
import sympy as sp

from painleq import canonical as cn
from painleq.classify import (check_painleve1, check_painleve2,
                              check_painleve3zero, classify)
from painleq.exprkernel import (X, Y, is_identically_zero, normalize,
                                root_up_to_sign)
from painleq.invariants import (BothComponentsZero, BranchDisagreement,
                                InvariantPipeline)
from painleq.parsing import OdeCubic
from painleq.transform import (BranchVerificationFailed, PointMap,
                               map_painleve1, map_painleve2, pullback_ode,
                               verify_map)

A_, B_, C_, D_ = sp.symbols("a b c d")


def zero(e) -> bool:
    return normalize(sp.sympify(e)) == 0


@contextmanager
def criterion(n: int, desc: str):
    try:
        yield
    except BaseException:
        print(f"CRITERION {n}: FAIL - {desc}", file=sys.stderr)
        raise
    print(f"CRITERION {n}: PASS - {desc}", file=sys.stderr)


def test_criterion_1_painleve1_self_test():
    with criterion(1, "Painleve I exact self test"):
        pipe = InvariantPipeline(cn.painleve1())
        assert zero(pipe.N) and zero(pipe.Omega)
        assert zero(pipe.Theta + Y / 12)
        assert zero(pipe.L - X / 1728)
        assert zero(pipe.L1 + sp.Rational(1, 12**4))
        assert zero(pipe.W) and zero(pipe.V)
        rep = check_painleve1(cn.painleve1())
        assert rep.passed is True
        assert zero(rep.invariants["I1"] - 1 / (12 * X**5))
        assert zero(rep.invariants["I2"] - 12 * Y**2 / X)


def test_criterion_2_painleve2_self_test():
    with criterion(2, "Painleve II exact self test with symbolic a"):
        pipe = InvariantPipeline(cn.painleve2())
        assert zero(pipe.N - 4)
        assert zero(pipe.M - sp.Rational(288, 5))
        assert zero(pipe.M / pipe.N**2 - sp.Rational(18, 5))
        xi1, _ = pipe.xi
        assert zero(xi1 + 24 / (5 * Y))
        assert zero(pipe.Gamma
                    - sp.Rational(48, 25) * (2 * Y**3 + X * Y + A_) / Y**3)
        rep = check_painleve2(cn.painleve2())
        assert rep.passed is True
        assert zero(rep.invariants["I3"] - pipe.Gamma / pipe.M)
        assert zero(rep.invariants["I6"] - (2 * X * Y + 3 * A_) / (10 * Y**3))
        assert zero(rep.invariants["I9"] - 1 / (2500 * Y**6))
        J = rep.invariants["J"]
        assert zero(J - A_) or zero(J + A_)


def test_criterion_3_painleve3_zero():
    with criterion(3, "Painleve III (three zero parameters) self test"):
        ode = cn.painleve3_zero()
        rep = check_painleve3zero(ode)
        assert rep.passed is True
        assert zero(rep.invariants["I1"] - sp.Rational(3, 5))
        assert zero(rep.invariants["I3"] - sp.Rational(1, 15))
        assert check_painleve1(ode).passed is False
        assert check_painleve2(ode).passed is False


def test_criterion_4_example_1_end_to_end():
    with criterion(4, "trigonometric disguise of Painleve I end to end"):
        ode = cn.example1_trigonometric()
        cls = classify(ode)
        assert cls.kind == "painleve1"
        rep = cls.reports["painleve1"]
        assert zero(rep.invariants["I1"] - 1 / (12 * (X * sp.sin(Y))**5))
        assert zero(rep.invariants["I2"]
                    - 12 * X * sp.cos(Y)**2 / sp.sin(Y))
        m = map_painleve1(rep)
        assert zero(m.x_new - X * sp.sin(Y))
        assert zero(m.y_new - X * sp.cos(Y)) or zero(m.y_new + X * sp.cos(Y))
        assert m.certificate == "exact"


def test_criterion_5_kamke_6_9_as_published():
    with criterion(5, "Kamke 6.9 as published satisfies Theorem 2 with "
                      "J^2 = -a*d^2/(2*b^2), so no real J exists for a > 0"):
        cls = classify(cn.kamke_6_9())
        assert cls.kind == "painleve2"
        assert zero(cls.J**2 + A_ * D_**2 / (2 * B_**2))
        # Witness independent of the classifier: Painleve II with the
        # imaginary parameter J = 7i/3 pulls back through a complex affine
        # map onto kamke_6_9(2, 3, 5, 7), so J^2 = -49/9 there.
        k = sp.cbrt(3)
        pm = PointMap(-k * (X + sp.Rational(5, 3)), -sp.I * Y / k)
        src = pullback_ode(cn.painleve2(7 * sp.I / 3), pm)
        tgt = cn.kamke_6_9(2, 3, 5, 7)
        for f in ("P", "Q", "R", "S"):
            assert zero(getattr(src, f) - getattr(tgt, f)), f
        num = classify(tgt)
        assert num.kind == "indeterminate"
        assert any("J^2 = -49/9" in d for d in num.diagnostics)


def test_criterion_5_supplement_sign_corrected_family():
    with criterion(5, "supplement: sign-corrected Kamke 6.9 family"):
        cls = classify(cn.kamke_6_9_sign_corrected())
        assert cls.kind == "painleve2"
        expected = sp.sqrt(A_ / 2) * D_ / B_
        assert zero(cls.J**2 - expected**2)
        num = classify(cn.kamke_6_9_sign_corrected(2, 3, 5, 7))
        assert num.kind == "painleve2"
        m = map_painleve2(num.reports["painleve2"])
        assert m.certificate == "exact"
        assert zero(m.J - sp.Rational(7, 3)) or zero(m.J + sp.Rational(7, 3))


def test_criterion_6_negative_controls():
    with criterion(6, "negative controls rejected with diagnostics"):
        z = sp.Integer(0)
        for rhs in (z, Y):
            cls = classify(OdeCubic(rhs, z, z, z))
            assert cls.kind == "not_equivalent"
            assert any("alpha = 0" in d for d in cls.diagnostics)
        rep = check_painleve1(OdeCubic(6 * Y**2, z, z, z))
        assert rep.passed is False
        assert [c.label for c in rep.failed_conditions] == \
            ["Theorem 1 condition 7: L1 != 0"]


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


def _assert_branch_agreement(pipe):
    """Touching the dual quantities raises BranchDisagreement on a mismatch.
    Theta is only defined on the subclass N = 0, so it is only asserted
    there (see the pipeline module docstring)."""
    pipe.N
    pipe.M
    pipe.Omega
    if pipe.zero_verdict(pipe.N).is_zero:
        pipe.Theta


def test_criterion_7_round_trip_fuzz():
    with criterion(7, "10 seeded maps round trip through PI and PII(1) "
                      "with branch agreement"):
        for pm in FUZZ_MAPS:
            src = pullback_ode(cn.painleve1(), pm)
            _assert_branch_agreement(InvariantPipeline(src))
            cls = classify(src)
            assert cls.kind == "painleve1", f"PI through {pm.x_new}, {pm.y_new}"
            m = map_painleve1(cls.reports["painleve1"])
            assert m.certificate == "exact"
        for pm in FUZZ_MAPS:
            src = pullback_ode(cn.painleve2(1), pm)
            _assert_branch_agreement(InvariantPipeline(src))
            cls = classify(src)
            assert cls.kind == "painleve2", f"PII through {pm.x_new}, {pm.y_new}"
            assert zero(cls.J - 1) or zero(cls.J + 1)
            m = map_painleve2(cls.reports["painleve2"])
            assert m.certificate == "exact"


def test_criterion_8_identity_suite():
    with criterion(8, "divergence identity, xi relations and M relation"):
        rng = random.Random(404)

        def poly():
            return sum(sp.Rational(rng.randint(-4, 4), rng.randint(1, 3))
                       * X**i * Y**j
                       for i in range(3) for j in range(3) if i + j <= 2)

        checked = 0
        while checked < 20:
            pipe = InvariantPipeline(OdeCubic(poly(), poly(), poly(), poly()))
            try:
                phi1, phi2 = pipe.phi
                lhs = sp.diff(pipe.B, X) - sp.diff(pipe.A, Y)
                rhs = (-sp.Rational(6, 5) * pipe.N
                       + phi2 * pipe.A - phi1 * pipe.B)
            except (BothComponentsZero, BranchDisagreement):
                continue
            assert is_identically_zero(normalize(lhs - rhs)).is_zero
            checked += 1
        corpus = [cn.painleve1(), cn.painleve2(), cn.painleve3_zero(),
                  cn.kamke_6_9(), cn.kamke_6_9_sign_corrected(),
                  cn.example1_trigonometric()]
        for ode in corpus:
            pipe = InvariantPipeline(ode)
            g1, g2 = pipe.gamma
            xi1, xi2 = pipe.xi
            assert zero(xi1 + 2 * pipe.Omega * pipe.B + g1)
            assert zero(xi2 - 2 * pipe.Omega * pipe.A + g2)
            assert is_identically_zero(
                normalize(pipe.M + pipe.A * xi1 + pipe.B * xi2)).is_zero


def test_criterion_9_p2zam_arbitration():
    with criterion(9, "x-formula misprint arbitration is pinned both ways"):
        rep = check_painleve2(cn.painleve2())
        I6, I9 = rep.invariants["I6"], rep.invariants["I9"]
        r = root_up_to_sign(1 / (2500 * I9), 6)
        # symbolic substitution oracle: on Painleve II itself with J = a the
        # corrected first term reproduces x exactly, the printed one does not
        corrected = 5 * I6 * r**2 - sp.Rational(3, 2) * A_ / r
        printed = 5 * I6 * r - sp.Rational(3, 2) * A_ / r
        assert zero(corrected - X)
        assert not zero(printed - X)
        # numeric arbitration on a concrete instance
        rep1 = check_painleve2(cn.painleve2(1))
        m = map_painleve2(rep1)
        assert m.certificate == "exact"
        with pytest.raises(BranchVerificationFailed):
            map_painleve2(rep1, as_printed=True)
