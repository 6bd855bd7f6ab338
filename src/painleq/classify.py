"""Equivalence tests for Painleve I, Painleve II and Painleve III(0,b,0,0).

The paper states each theorem as a list of conditions, each saying that a
quantity vanishes identically or does not.  Here each theorem is data: its
conditions are rows ``(n, text, verdict, want_zero)``, grouped in steps
that run only while every condition before them holds, and one evaluator
runs every theorem.  A condition holds, fails or is undecided as the zero
test of its quantity says ``zero``/``nonzero`` or ``unknown``; nothing is
sampled to settle an undecided one.  So a theorem passes when all of its
conditions hold, fails when one fails, and is undecided otherwise, and
:func:`classify` reports ``not_equivalent`` only when every theorem fails.
A passing theorem attaches the weight-0 invariants needed to build the
explicit change of variables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal, Optional

import sympy as sp

# normalize and is_identically_zero stay module globals, although nothing
# here calls them: perfbench/tracing.py replaces them here by module attribute
from .exprkernel import (DEFAULT_SEED, X, Y, ZeroVerdict, is_identically_zero,
                         normalize, root_up_to_sign, to_expr)
from .invariants import BothComponentsZero, InvariantPipeline
from .parsing import OdeCubic

__all__ = [
    "ConditionCheck", "InvariantReport", "Classification", "SqrtOfNonPositive",
    "check_painleve1", "check_painleve2", "check_painleve3zero", "classify",
]


class SqrtOfNonPositive(ArithmeticError):
    """J^2 of Theorem 2 is a negative number, so no real J exists."""


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
    conditions: list[ConditionCheck] = field(default_factory=list)
    invariants: dict[str, sp.Expr] = field(default_factory=dict)
    warnings: list[str] = field(default_factory=list)

    @property
    def passed(self) -> Optional[bool]:
        """False when a condition fails, else None when one is undecided,
        else True."""
        if self.failed_conditions:
            return False
        return None if any(c.holds is None for c in self.conditions) else True

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


@dataclass(frozen=True)
class _Theorem:
    """One theorem as data.

    ``steps`` follow condition 1, and each runs only while every condition
    before it holds.  A step is a tuple of rows ``(n, text, verdict,
    want_zero)``: ``verdict(pipe, values)`` is the zero test of the row's
    quantity, or None to skip the row, and may keep field values in the dict
    ``values`` for later steps.  A step may also be a function ``(pipe,
    values, report)`` that attaches invariants.  ``invariants`` runs the same
    way once every condition holds.  The paper numbers conditions 1 to
    ``numbered``; later rows spell out that its J must be a constant and
    cite it as "(J)".  ``skipped`` is the warning for a step that does not
    run although condition 1 holds.
    """

    number: int
    target: str
    numbered: int
    steps: tuple
    invariants: object
    skipped: str = ""


def _stage(name: str):
    """The verdict of a row on pipeline stage ``name``."""
    return lambda pipe, values: pipe.zero_verdict(pipe.value(name))


def _i1_is(value: sp.Rational) -> tuple:
    """Row 4 of Theorems 2 and 3: I1 = M/N^2 equals ``value``; skipped when
    M = 0, where condition 3 already fails."""
    def verdict(pipe, values):
        if pipe.m_verdict.is_zero:
            return None
        values["I1"] = pipe.field.reduce(pipe.value("M") / pipe.value("N")**2)
        return pipe.zero_verdict(values["I1"] - value)
    return (4, f"I1 = {value}", verdict, True)


def _pii_rows(i1: sp.Rational) -> tuple:
    """Conditions 2-4 of Theorems 2 and 3."""
    return ((2, "Omega = 0", _stage("Omega"), True),
            (3, "M != 0", lambda pipe, values: pipe.m_verdict, False),
            _i1_is(i1))


def _painleve1_invariants(pipe, values, report) -> None:
    """I1 = L1^4/L^5 and I2 = Theta^2/L."""
    F, v = pipe.field, pipe.value
    report.invariants["I1"] = to_expr(F.reduce(v("L1")**4 / v("L")**5))
    report.invariants["I2"] = to_expr(F.reduce(v("Theta")**2 / v("L")))


def _pii_invariants(pipe, values, report) -> None:
    """I1, I3 = Gamma/M, I6 and I9 of Theorems 2 and 3, kept in ``values``
    as reduced field values and attached as expressions."""
    F, v = pipe.field, pipe.value
    A, B, N = v("A"), v("B"), v("N")
    xi1, xi2 = v("xi")
    I3 = F.reduce(v("Gamma") / v("M"))
    I3_x, I3_y = F.diff(I3, X), F.diff(I3, Y)
    values.update(I3=I3, I6=F.reduce((B * I3_x - A * I3_y) / N),
                  I9=F.reduce((xi1 * I3_x + xi2 * I3_y)**2 / N**3))
    report.invariants.update({k: to_expr(values[k])
                              for k in ("I1", "I3", "I6", "I9")})


def _j_squared_constant(pipe, values) -> ZeroVerdict:
    """Whether J^2 = ((4 + 10*I6 - 60*I3)/50)^2 / I9 is constant: nonzero
    or unknown if a partial derivative is, else zero."""
    F = pipe.field
    j_sq = values["J^2"] = F.reduce(
        (4 + 10 * values["I6"] - 60 * values["I3"])**2 / (2500 * values["I9"]))
    verdicts = [pipe.zero_verdict(F.diff(j_sq, var)) for var in (X, Y)]
    return min(verdicts,
               key=lambda v: ("nonzero", "unknown", "zero").index(v.status))


def _painleve2_parameter(pipe, values, report) -> None:
    """J, up to sign, from the constant J^2 (possibly a function of the
    parameters).  Raises SqrtOfNonPositive when J^2 is a negative number."""
    j_sq = to_expr(values["J^2"])
    if j_sq.is_Rational and j_sq < 0:
        raise SqrtOfNonPositive(f"J^2 = {j_sq} < 0: no real parameter value")
    report.warnings.append("J is determined up to sign")
    report.invariants["J"] = root_up_to_sign(j_sq, 2)


_CONDITION_1 = (1, "F = 0 with alpha != 0",
                lambda pipe, values: pipe.f_verdict, True)

_THEOREMS = {t.target: t for t in (
    # Theta and everything after it are well defined only on the subclass
    # cut out by conditions 1-3
    _Theorem(1, "painleve1", 7, (
        ((2, "Omega = 0", _stage("Omega"), True),
         (3, "N = 0", _stage("N"), True)),
        ((4, "W = 0", _stage("W"), True),
         (5, "V = 0", _stage("V"), True),
         (6, "Theta != 0", _stage("Theta"), False),
         (7, "L1 != 0", _stage("L1"), False))),
        _painleve1_invariants,
        skipped="conditions 4-7 not evaluated: an earlier condition already "
                "fails"),
    # J = (4 + 10*I6 - 60*I3)/(50*sqrt(I9)) must be a constant
    _Theorem(2, "painleve2", 4, (
        _pii_rows(sp.Rational(18, 5)),
        _pii_invariants,
        ((5, "I9 != 0",
          lambda pipe, values: pipe.zero_verdict(values["I9"]), False),),
        ((6, "J^2 constant", _j_squared_constant, True),)),
        _painleve2_parameter),
    _Theorem(3, "painleve3_zero", 4, (_pii_rows(sp.Rational(3, 5)),),
             _pii_invariants),
)}


def _evaluate(target: str, ode: OdeCubic, seed: int,
              pipe: InvariantPipeline | None) -> InvariantReport:
    """The report of one theorem: condition 1, then its steps while every
    condition holds, then its invariants if every condition holds."""
    th = _THEOREMS[target]
    pipe = pipe or InvariantPipeline(ode, seed=seed)
    report = InvariantReport(target, ode)
    name = f"Theorem {th.number}"
    try:
        pipe.branch
    except BothComponentsZero:
        report.conditions.append(ConditionCheck(
            f"{name} condition 1: {_CONDITION_1[1]}", f"{name}(1)",
            ZeroVerdict("zero", "alpha = 0: A and B vanish identically"),
            False))
        report.warnings.append("alpha = 0 (A and B vanish identically)")
        return report
    values: dict = {}
    for step in ((_CONDITION_1,), *th.steps):
        if not report.passed:
            if len(report.conditions) > 1 and th.skipped:
                report.warnings.append(th.skipped)
            break
        if callable(step):
            step(pipe, values, report)
            continue
        for n, text, verdict, want_zero in step:
            v = verdict(pipe, values)
            if v is not None:
                report.conditions.append(ConditionCheck(
                    f"{name} condition {n}: {text}",
                    f"{name}({n if n <= th.numbered else 'J'})", v,
                    None if v.is_unknown else v.is_zero == want_zero))
    report.warnings.extend(pipe.warnings)
    if report.passed:
        th.invariants(pipe, values, report)
    return report


def check_painleve1(ode: OdeCubic, seed: int = DEFAULT_SEED,
                    pipe: InvariantPipeline | None = None) -> InvariantReport:
    """Theorem 1: seven conditions; a pass attaches I1 and I2."""
    return _evaluate("painleve1", ode, seed, pipe)


def check_painleve2(ode: OdeCubic, seed: int = DEFAULT_SEED,
                    pipe: InvariantPipeline | None = None) -> InvariantReport:
    """Theorem 2: four conditions, then I9 != 0 and J^2 constant; once
    conditions 1-4 hold it attaches I1, I3, I6 and I9, and a pass adds J."""
    return _evaluate("painleve2", ode, seed, pipe)


def check_painleve3zero(ode: OdeCubic, seed: int = DEFAULT_SEED,
                        pipe: InvariantPipeline | None = None) -> InvariantReport:
    """Theorem 3 (Painleve III with three zero parameters): four conditions;
    a pass attaches I1, I3, I6 and I9, which are constants, so no map exists."""
    return _evaluate("painleve3_zero", ode, seed, pipe)


def classify(ode: OdeCubic, seed: int = DEFAULT_SEED,
             pipe: InvariantPipeline | None = None) -> Classification:
    """Run the three theorem checks until one passes; the I1 / N conditions
    make the classes mutually exclusive, so at most one passes.  Without a
    pass the result is ``not_equivalent`` when every theorem has a failed
    condition, else ``indeterminate``."""
    pipe = pipe or InvariantPipeline(ode, seed=seed)
    reports: dict[str, InvariantReport] = {}
    sqrt_failure = None
    # the checks are looked up as module globals on every call, so that a
    # wrapper installed there sees them
    for check in (check_painleve1, check_painleve2, check_painleve3zero):
        try:
            rep = check(ode, seed=seed, pipe=pipe)
        except SqrtOfNonPositive as exc:
            sqrt_failure = f"Theorem 2 conditions hold but {exc}"
            continue
        reports[rep.target] = rep
        if rep.passed:
            return Classification(rep.target, reports,
                                  J=rep.invariants.get("J"))
    if sqrt_failure is not None:
        return Classification("indeterminate", reports,
                              diagnostics=(sqrt_failure,))
    diagnostics = tuple(
        f"{c.label} {'is undecided' if c.holds is None else 'fails'} "
        f"({c.verdict.note})"
        for r in reports.values() for c in r.conditions if not c.holds)
    kind = ("not_equivalent" if all(r.passed is False for r in reports.values())
            else "indeterminate")
    return Classification(kind, reports, diagnostics=diagnostics)
