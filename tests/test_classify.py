"""Theorem checks and the top-level classifier."""

from collections import Counter

import pytest
import sympy as sp

from painleq import canonical as cn
from painleq import invariants
from painleq.classify import (ConditionCheck, InvariantReport,
                              check_painleve1, check_painleve2,
                              check_painleve3zero, classify)
from painleq.exprkernel import X, Y, ZeroVerdict, normalize, root_up_to_sign
from painleq.invariants import INVARIANTS, InvariantPipeline
from painleq.parsing import OdeCubic
from painleq.transform import PointMap, pullback_ode

ZERO = sp.Integer(0)
A_SYM, B_SYM, D_SYM = sp.symbols("a b d")


def zero(e) -> bool:
    return normalize(sp.sympify(e)) == 0


def test_sqrt_up_to_sign():
    assert zero(root_up_to_sign(X**2 / Y**4, 2) - X / Y**2)
    assert root_up_to_sign(ZERO, 2) == 0
    e = root_up_to_sign(2 * X**2, 2)
    assert zero(e**2 - 2 * X**2)


def test_painleve1_passes_itself():
    rep = check_painleve1(cn.painleve1())
    assert rep.passed is True
    assert len(rep.conditions) == 7
    assert zero(rep.invariants["I1"] - 1 / (12 * X**5))
    assert zero(rep.invariants["I2"] - 12 * Y**2 / X)


def test_painleve2_passes_itself_with_symbolic_parameter():
    rep = check_painleve2(cn.painleve2())
    assert rep.passed is True
    J = rep.invariants["J"]
    assert zero(J - A_SYM) or zero(J + A_SYM)
    assert zero(rep.invariants["I6"] - (2 * X * Y + 3 * A_SYM) / (10 * Y**3))
    assert zero(rep.invariants["I9"] - 1 / (2500 * Y**6))


def test_painleve3_zero_passes_itself():
    rep = check_painleve3zero(cn.painleve3_zero())
    assert rep.passed is True
    assert zero(rep.invariants["I1"] - sp.Rational(3, 5))
    assert zero(rep.invariants["I3"] - sp.Rational(1, 15))


def test_classes_are_mutually_exclusive():
    for ode, kind in [(cn.painleve1(), "painleve1"),
                      (cn.painleve2(1), "painleve2"),
                      (cn.painleve3_zero(2), "painleve3_zero")]:
        cls = classify(ode)
        assert cls.kind == kind
        assert cls.equivalent
        others = [r for k, r in cls.reports.items() if k != kind]
        assert all(r.passed is not True for r in others)


@pytest.mark.parametrize("rhs", [ZERO, Y], ids=["zero", "linear"])
def test_alpha_degenerate_controls(rhs):
    cls = classify(OdeCubic(rhs, ZERO, ZERO, ZERO))
    assert cls.kind == "not_equivalent"
    assert any("alpha = 0" in d for d in cls.diagnostics)


def test_six_y_squared_fails_at_condition_seven():
    rep = check_painleve1(OdeCubic(6 * Y**2, ZERO, ZERO, ZERO))
    assert rep.passed is False
    failed = rep.failed_conditions
    assert len(failed) == 1
    assert failed[0].label.endswith("condition 7: L1 != 0")


def test_kamke_as_printed_is_indeterminate_numeric():
    cls = classify(cn.kamke_6_9(2, 3, 5, 7))
    assert cls.kind == "indeterminate"
    assert any("J^2 = -49/9" in d for d in cls.diagnostics)
    # Theorem 2's report is kept: its conditions all hold, but J^2 < 0
    assert list(cls.reports) == ["painleve1", "painleve2", "painleve3_zero"]
    rep = cls.reports["painleve2"]
    assert len(rep.conditions) == 6 and rep.passed is True
    assert "J" not in rep.invariants


def test_kamke_sign_corrected_numeric():
    cls = classify(cn.kamke_6_9_sign_corrected(2, 3, 5, 7))
    assert cls.kind == "painleve2"
    J = cls.J
    assert zero(J - sp.Rational(7, 3)) or zero(J + sp.Rational(7, 3))


def test_kamke_sign_corrected_symbolic():
    cls = classify(cn.kamke_6_9_sign_corrected())
    assert cls.kind == "painleve2"
    expected = sp.sqrt(A_SYM / 2) * D_SYM / B_SYM
    assert zero(cls.J**2 - expected**2)


def test_condition_gating_blocks_theta_chain():
    rep = check_painleve1(cn.painleve2(1))
    assert rep.passed is False
    labels = [c.label for c in rep.conditions]
    assert not any("condition 4" in lab for lab in labels)
    assert any("not evaluated" in w for w in rep.warnings)


@pytest.mark.parametrize("holds, passed", [
    ((True, True), True),
    ((True, None), None),
    ((True, None, False), False),
    ((None, False, True), False),
    ((), True),
])
def test_passed_is_a_three_valued_and(holds, passed):
    """A failed condition decides the theorem even next to an undecided one."""
    status = {True: "zero", False: "nonzero", None: "unknown"}
    rep = InvariantReport("painleve1", cn.painleve1(), conditions=[
        ConditionCheck(f"condition {i}", "", ZeroVerdict(status[h]), h)
        for i, h in enumerate(holds, start=1)])
    assert rep.passed is passed


def test_report_condition_lookup():
    rep = check_painleve1(cn.painleve1())
    c = rep.condition("Theorem 1 condition 6")
    assert c.holds is True and c.verdict.is_nonzero
    with pytest.raises(KeyError):
        rep.condition("Theorem 9")


def test_trigonometric_example_classifies_painleve1():
    cls = classify(cn.example1_trigonometric())
    assert cls.kind == "painleve1"


@pytest.mark.parametrize("c", [1, 2, -1])
def test_autonomous_cubic_is_not_painleve2(c):
    """y'' = c*y^3 passes conditions 1-4 of Theorem 2 (I1 = 18/5), but I9 = 0,
    so J = (4 + 10*I6 - 60*I3)/(50*sqrt(I9)) is undefined."""
    cls = classify(OdeCubic(c * Y**3, ZERO, ZERO, ZERO))
    assert cls.kind == "not_equivalent"
    assert cls.J is None
    rep = cls.reports["painleve2"]
    assert rep.condition("Theorem 2 condition 4").holds is True
    i9 = rep.condition("Theorem 2 condition 5: I9 != 0")
    assert i9.holds is False and i9.paper_ref == "Theorem 2(J)"


def test_painleve2_reports_the_j_conditions():
    rep = check_painleve2(cn.painleve2(1))
    assert [c.label for c in rep.conditions[-2:]] == [
        "Theorem 2 condition 5: I9 != 0", "Theorem 2 condition 6: J^2 constant"]
    assert rep.passed is True


@pytest.mark.parametrize("ode", [
    cn.painleve3_zero(),
    pullback_ode(cn.painleve2(1), PointMap(X + Y**2, Y)),
], ids=["painleve3_zero", "painleve2_sheared"])
def test_each_quantity_is_computed_and_zero_tested_once(monkeypatch, ode):
    """The theorems read one pipeline: each stage and each weight-0
    invariant is computed once, and each is zero-tested at most once,
    although Omega is a condition of all three theorems and I1 = M/N^2 of
    Theorems 2 and 3."""
    computed, tested = Counter(), []

    def counted(name, formula):
        def run(*args):
            computed[name] += 1
            return formula(*args)
        return run

    for name, formula in INVARIANTS.items():
        monkeypatch.setitem(INVARIANTS, name, counted(name, formula))
    out = InvariantPipeline._out
    monkeypatch.setattr(InvariantPipeline, "_out", lambda self, name, *parts:
                        counted(name, out)(self, name, *parts))
    zero_test = invariants.is_identically_zero
    monkeypatch.setattr(invariants, "is_identically_zero", lambda e, seed:
                        tested.append(e) or zero_test(e, seed=seed))
    pipe = InvariantPipeline(ode)
    cls = classify(ode, pipe=pipe)
    assert cls.kind == ("painleve3_zero" if pipe.branch == "A" else "painleve2")
    zero_tests = Counter(name for e in tested
                         for name, v in pipe._values.items() if e is v)
    assert {"F5", "Omega", "M", "I1", "I9"} <= set(computed)
    assert zero_tests["Omega"] == 1 and zero_tests["M"] == 1
    assert max(computed.values()) == 1 and max(zero_tests.values()) == 1
