"""Equivalence tests for Painleve I, Painleve II and Painleve III(0,b,0,0).

Each check evaluates its theorem's condition list with sound zero tests,
records every condition in an :class:`InvariantReport`, and attaches the
weight-0 invariants needed to build the explicit change of variables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal, Optional

import sympy as sp

# normalize and is_identically_zero stay module globals: perfbench/tracing.py
# replaces them here by module attribute
from .exprkernel import (DEFAULT_SEED, X, Y, ZeroVerdict, is_identically_zero,
                         normalize, root_up_to_sign, sample_point,
                         evaluate_numeric, PoleAtPoint, EvenRootOfNegative)
from .invariants import BothComponentsZero, InvariantPipeline
from .parsing import OdeCubic

__all__ = [
    "ConditionCheck", "InvariantReport", "Classification", "SqrtOfNonPositive",
    "check_painleve1", "check_painleve2", "check_painleve3zero", "classify",
]


class SqrtOfNonPositive(ArithmeticError):
    """I9 is not a square and evaluates non-positive at verification points."""


@dataclass(frozen=True)
class ConditionCheck:
    label: str
    paper_ref: str
    verdict: ZeroVerdict
    holds: Optional[bool]  # None when the verdict is Unknown


@dataclass
class InvariantReport:
    """Everything one theorem check computed, for diagnostics and map building."""

    target: Literal["painleve1", "painleve2", "painleve3_zero"]
    ode: OdeCubic
    seed: int
    conditions: list[ConditionCheck] = field(default_factory=list)
    invariants: dict[str, sp.Expr] = field(default_factory=dict)
    warnings: list[str] = field(default_factory=list)

    @property
    def passed(self) -> Optional[bool]:
        if any(c.holds is None for c in self.conditions):
            return None
        return all(c.holds for c in self.conditions)

    @property
    def failed_conditions(self) -> list[ConditionCheck]:
        return [c for c in self.conditions if c.holds is False]

    def condition(self, label_prefix: str) -> ConditionCheck:
        for c in self.conditions:
            if c.label.startswith(label_prefix):
                return c
        raise KeyError(label_prefix)


@dataclass(frozen=True)
class Classification:
    kind: Literal["painleve1", "painleve2", "painleve3_zero",
                  "not_equivalent", "indeterminate"]
    reports: dict[str, InvariantReport]
    J: Optional[sp.Expr] = None
    diagnostics: tuple[str, ...] = ()

    @property
    def equivalent(self) -> bool:
        return self.kind in ("painleve1", "painleve2", "painleve3_zero")


def _check(report: InvariantReport, label: str, ref: str, verdict: ZeroVerdict,
           want_zero: bool) -> None:
    holds: Optional[bool]
    if verdict.is_unknown:
        holds = None
    else:
        holds = verdict.is_zero if want_zero else verdict.is_nonzero
    report.conditions.append(ConditionCheck(label, ref, verdict, holds))


def _alpha_condition(pipe: InvariantPipeline, report: InvariantReport,
                     theorem: str) -> bool:
    """Condition 1 of every theorem: F = 0 but alpha not identically zero."""
    try:
        pipe.branch
    except BothComponentsZero:
        report.conditions.append(ConditionCheck(
            f"{theorem} condition 1: F = 0 with alpha != 0",
            f"{theorem}(1)",
            ZeroVerdict("zero", "alpha = 0: A and B vanish identically"),
            False))
        report.warnings.append("alpha = 0 (A and B vanish identically)")
        return False
    _check(report, f"{theorem} condition 1: F = 0 with alpha != 0",
           f"{theorem}(1)", pipe.f_verdict, want_zero=True)
    return bool(report.conditions[-1].holds)


def check_painleve1(ode: OdeCubic, seed: int = DEFAULT_SEED,
                    pipe: InvariantPipeline | None = None) -> InvariantReport:
    """Theorem 1 test: seven conditions; on pass attaches I1 = L1^4/L^5 and
    I2 = Theta^2/L."""
    pipe = pipe or InvariantPipeline(ode, seed=seed)
    report = InvariantReport("painleve1", ode, seed)
    th = "Theorem 1"
    if not _alpha_condition(pipe, report, th):
        return report
    zv, v = pipe.zero_verdict, pipe.value
    _check(report, f"{th} condition 2: Omega = 0", f"{th}(2)", zv(v("Omega")), True)
    _check(report, f"{th} condition 3: N = 0", f"{th}(3)", zv(v("N")), True)
    if not all(c.holds for c in report.conditions):
        # Theta and everything after it are well defined only on the
        # subclass cut out by conditions 1-3, so stop here.
        report.warnings.append("conditions 4-7 not evaluated: an earlier "
                               "condition already fails")
        report.warnings.extend(pipe.warnings)
        return report
    _check(report, f"{th} condition 4: W = 0", f"{th}(4)", zv(v("W")), True)
    _check(report, f"{th} condition 5: V = 0", f"{th}(5)", zv(v("V")), True)
    _check(report, f"{th} condition 6: Theta != 0", f"{th}(6)", zv(v("Theta")), False)
    _check(report, f"{th} condition 7: L1 != 0", f"{th}(7)", zv(v("L1")), False)
    report.warnings.extend(pipe.warnings)
    if report.passed:
        F, L = pipe.field, v("L")
        report.invariants["I1"] = F.reduce(v("L1")**4 / L**5).as_expr()
        report.invariants["I2"] = F.reduce(v("Theta")**2 / L).as_expr()
    return report


def _pii_style_conditions(pipe: InvariantPipeline, report: InvariantReport,
                          th: str, i1: sp.Rational):
    """Conditions 2-4 of Theorems 2 and 3: Omega = 0, M != 0 and I1 = M/N^2
    equal to ``i1``.  Returns the field value of I1 when conditions 1-4 all
    hold, else None."""
    zv, v = pipe.zero_verdict, pipe.value
    _check(report, f"{th} condition 2: Omega = 0", f"{th}(2)", zv(v("Omega")), True)
    _check(report, f"{th} condition 3: M != 0", f"{th}(3)", pipe.m_verdict, False)
    I1 = None
    if not pipe.m_verdict.is_zero:
        I1 = pipe.field.reduce(v("M") / v("N")**2)
        _check(report, f"{th} condition 4: I1 = {i1}", f"{th}(4)",
               zv(I1 - i1), True)
    report.warnings.extend(pipe.warnings)
    return I1 if report.passed else None


def _pii_style_invariants(pipe: InvariantPipeline, report: InvariantReport,
                          I1) -> dict:
    """I1, I3 = Gamma/M, I6 and I9 as reduced field values; their expressions
    go to ``report.invariants``."""
    F, v = pipe.field, pipe.value
    A, B, N = v("A"), v("B"), v("N")
    xi1, xi2 = v("xi")
    I3 = F.reduce(v("Gamma") / v("M"))
    I3_x, I3_y = F.diff(I3, X), F.diff(I3, Y)
    inv = {"I1": I1, "I3": I3,
           "I6": F.reduce((B * I3_x - A * I3_y) / N),
           "I9": F.reduce((xi1 * I3_x + xi2 * I3_y)**2 / N**3)}
    report.invariants.update({k: f.as_expr() for k, f in inv.items()})
    return inv


def _gradient_verdict(pipe: InvariantPipeline, f) -> ZeroVerdict:
    """Whether ``f`` is constant: both of its partial derivatives vanish."""
    verdicts = [pipe.zero_verdict(pipe.field.diff(f, var)) for var in (X, Y)]
    for status in ("nonzero", "unknown"):
        for v in verdicts:
            if v.status == status:
                return v
    return verdicts[0]


def _constant_J(report: InvariantReport, pipe: InvariantPipeline,
                inv: dict) -> Optional[sp.Expr]:
    """Condition 6 of Theorem 2: J^2 = ((4 + 10*I6 - 60*I3)/50)^2 / I9 is
    constant; J is then determined up to sign and returned.

    Computed symbolically when the gradient of J^2 is decided exactly
    (possibly as a function of the parameters), else from samples.  Raises
    SqrtOfNonPositive when J^2 is a negative number, so no real J exists.
    """
    F = pipe.field
    j_sq = F.reduce((4 + 10 * inv["I6"] - 60 * inv["I3"])**2
                    / (2500 * inv["I9"]))
    label, ref = "Theorem 2 condition 6: J^2 constant", "Theorem 2(J)"
    verdict = _gradient_verdict(pipe, j_sq)
    j_sq = j_sq.as_expr()
    if verdict.is_unknown:
        holds, j = _numeric_constant_J(report, j_sq, pipe.seed)
        report.conditions.append(ConditionCheck(label, ref, verdict, holds))
        return j
    _check(report, label, ref, verdict, want_zero=True)
    if verdict.is_nonzero:
        report.warnings.append("J^2 is not constant; equation cannot be "
                               "point-equivalent to Painleve II")
        return None
    params = sorted(j_sq.free_symbols, key=str)
    if not params and j_sq.is_Rational and j_sq < 0:
        raise SqrtOfNonPositive(f"J^2 = {j_sq} < 0: no real parameter value")
    report.warnings.append("J is determined up to sign")
    return root_up_to_sign(j_sq, 2)


def _numeric_constant_J(report: InvariantReport, j_sq: sp.Expr,
                        seed: int) -> tuple[Optional[bool], Optional[sp.Expr]]:
    """Numeric fallback: J^2 is accepted as constant only when samples agree
    to 1e-20.  Returns (holds, J); holds is None when too few points could be
    sampled."""
    import random

    rng = random.Random(seed)
    values = []
    for _ in range(32):
        if len(values) >= 6:
            break
        point = sample_point(j_sq, rng)
        try:
            values.append(evaluate_numeric(j_sq, point, precision=60))
        except (PoleAtPoint, EvenRootOfNegative):
            continue
    if len(values) < 2:
        report.warnings.append("could not sample J^2 at non-singular points")
        return None, None
    import mpmath

    spread = max(values) - min(values)
    scale = max(mpmath.mpf(1), max(abs(v) for v in values))
    if spread > scale * mpmath.mpf("1e-20"):
        report.warnings.append("J^2 varies across sample points; not constant")
        return False, None
    mean = sum(values) / len(values)
    if mean < 0:
        raise SqrtOfNonPositive(f"J^2 ~ {float(mean)} < 0 at verification points")
    j = sp.sqrt(sp.nsimplify(sp.Float(mean, 40), rational=True, tolerance=1e-24))
    report.warnings.append("J determined numerically (up to sign) from "
                           f"{len(values)} agreeing samples")
    return True, j


def check_painleve2(ode: OdeCubic, seed: int = DEFAULT_SEED,
                    pipe: InvariantPipeline | None = None) -> InvariantReport:
    """Theorem 2 test; on pass attaches I1, I3, I6, I9 and the parameter J.

    The theorem's J = (4 + 10*I6 - 60*I3)/(50*sqrt(I9)) must be a constant,
    so two conditions follow its numbered four: I9 != 0 and J^2 constant.
    xi, Gamma and the invariants are computed only once conditions 1-4 hold.
    """
    pipe = pipe or InvariantPipeline(ode, seed=seed)
    report = InvariantReport("painleve2", ode, seed)
    th = "Theorem 2"
    if not _alpha_condition(pipe, report, th):
        return report
    I1 = _pii_style_conditions(pipe, report, th, sp.Rational(18, 5))
    if I1 is None:
        return report
    inv = _pii_style_invariants(pipe, report, I1)
    _check(report, f"{th} condition 5: I9 != 0", f"{th}(J)",
           pipe.zero_verdict(inv["I9"]), False)
    if report.passed:
        J = _constant_J(report, pipe, inv)
        if report.passed:
            report.invariants["J"] = J
    return report


def check_painleve3zero(ode: OdeCubic, seed: int = DEFAULT_SEED,
                        pipe: InvariantPipeline | None = None) -> InvariantReport:
    """Theorem 3 test (Painleve III with three zero parameters); no map exists
    because the invariants are constants."""
    pipe = pipe or InvariantPipeline(ode, seed=seed)
    report = InvariantReport("painleve3_zero", ode, seed)
    th = "Theorem 3"
    if not _alpha_condition(pipe, report, th):
        return report
    I1 = _pii_style_conditions(pipe, report, th, sp.Rational(3, 5))
    if I1 is not None:
        _pii_style_invariants(pipe, report, I1)
    return report


def classify(ode: OdeCubic, seed: int = DEFAULT_SEED,
             pipe: InvariantPipeline | None = None) -> Classification:
    """Run all three theorem checks; the I1 / N conditions make the classes
    mutually exclusive, so at most one passes."""
    pipe = pipe or InvariantPipeline(ode, seed=seed)
    reports: dict[str, InvariantReport] = {}
    diagnostics: list[str] = []
    sqrt_failure = None
    r1 = check_painleve1(ode, seed=seed, pipe=pipe)
    reports["painleve1"] = r1
    if r1.passed:
        return Classification("painleve1", reports)
    try:
        r2 = check_painleve2(ode, seed=seed, pipe=pipe)
    except SqrtOfNonPositive as exc:
        sqrt_failure = str(exc)
        r2 = None
    if r2 is not None:
        reports["painleve2"] = r2
        if r2.passed:
            return Classification("painleve2", reports, J=r2.invariants.get("J"))
    r3 = check_painleve3zero(ode, seed=seed, pipe=pipe)
    reports["painleve3_zero"] = r3
    if r3.passed:
        return Classification("painleve3_zero", reports)
    if sqrt_failure is not None:
        diagnostics.append(f"Theorem 2 conditions hold but {sqrt_failure}")
        return Classification("indeterminate", reports, diagnostics=tuple(diagnostics))
    unknown = any(r.passed is None for r in reports.values())
    for name, rep in reports.items():
        for cond in rep.failed_conditions:
            diagnostics.append(f"{cond.label} fails ({cond.verdict.note})")
    if unknown and not diagnostics:
        return Classification("indeterminate", reports, diagnostics=tuple(
            d for r in reports.values() for d in r.warnings))
    return Classification("not_equivalent", reports, diagnostics=tuple(diagnostics))
