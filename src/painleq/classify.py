"""Equivalence tests for Painleve I, Painleve II and Painleve III(0,b,0,0).

The paper states each theorem as a list of conditions, each saying that a
quantity vanishes identically or does not.  Here each theorem is data: its
conditions are rows ``(n, text, quantity, want_zero)``, grouped in steps
that run only while every condition before them holds, and one evaluator
runs every theorem.  A row names the quantity it tests; the shared
:class:`~painleq.invariants.InvariantPipeline` computes and zero-tests each
once.  A condition holds, fails or is undecided as the zero test of its
quantity says ``zero``/``nonzero`` or ``unknown``; nothing is sampled to
settle an undecided one.  So a theorem passes when all of its conditions
hold, fails when one fails, and is undecided otherwise, and
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
    """J^2 < 0 in Theorem 2, so no real J exists; ``report`` is Theorem 2's."""

    def __init__(self, message: str, report: InvariantReport):
        super().__init__(message)
        self.report = report


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
    before it holds.  A step is a tuple of rows ``(n, text, quantity,
    want_zero)``, where ``quantity`` is the pipeline name whose ``verdict``
    the row reads, or a function ``pipe -> ZeroVerdict`` (None skips the
    row).  A step may also attach invariants (:func:`_attach`), as
    ``invariants`` does once every condition holds.  The paper numbers
    conditions 1 to ``numbered``; later rows spell out that its J must be a
    constant and cite it as "(J)".  ``skipped`` is the warning for a step
    that does not run although condition 1 holds.
    """

    number: int
    target: str
    numbered: int
    steps: tuple
    invariants: object
    skipped: str = ""


def _pii_rows(i1: sp.Rational) -> tuple:
    """Conditions 2-4 of Theorems 2 and 3; I1 = M/N^2 is tested if M != 0."""
    def i1_is(pipe):
        if not pipe.verdict("M").is_zero:
            return pipe.zero_verdict(pipe.value("I1") - i1)
    return ((2, "Omega = 0", "Omega", True),
            (3, "M != 0", "M", False),
            (4, f"I1 = {i1}", i1_is, True))


def _j_squared_constant(pipe) -> ZeroVerdict:
    """Whether J^2 is constant: the weaker verdict of its two partials."""
    verdicts = [pipe.zero_verdict(pipe.field.diff(pipe.value("J^2"), var))
                for var in (X, Y)]
    return min(verdicts,
               key=lambda v: ("nonzero", "unknown", "zero").index(v.status))


def _painleve2_parameter(pipe, report) -> None:
    """J, up to sign, from the constant J^2 (possibly a function of the
    parameters).  Raises SqrtOfNonPositive when J^2 is a negative number."""
    j_sq = to_expr(pipe.value("J^2"))
    if j_sq.is_Rational and j_sq < 0:
        raise SqrtOfNonPositive(f"J^2 = {j_sq} < 0: no real parameter value",
                                report)
    report.warnings.append("J is determined up to sign")
    report.invariants["J"] = root_up_to_sign(j_sq, 2)


_CONDITION_1 = (1, "F = 0 with alpha != 0", "F5", True)
_PII_INVARIANTS = {k: k for k in ("I1", "I3", "I6", "I9")}

_THEOREMS = {t.target: t for t in (
    # Theta and everything after it are well defined only on the subclass
    # cut out by conditions 1-3
    _Theorem(1, "painleve1", 7, (
        ((2, "Omega = 0", "Omega", True),
         (3, "N = 0", "N", True)),
        ((4, "W = 0", "W", True),
         (5, "V = 0", "V", True),
         (6, "Theta != 0", "Theta", False),
         (7, "L1 != 0", "L1", False))),
        {"I1": "L1^4/L^5", "I2": "Theta^2/L"},
        skipped="conditions 4-7 not evaluated: an earlier condition already "
                "fails"),
    # J = (4 + 10*I6 - 60*I3)/(50*sqrt(I9)) must be a constant
    _Theorem(2, "painleve2", 4, (
        _pii_rows(sp.Rational(18, 5)),
        _PII_INVARIANTS,
        ((5, "I9 != 0", "I9", False),),
        ((6, "J^2 constant", _j_squared_constant, True),)),
        _painleve2_parameter),
    _Theorem(3, "painleve3_zero", 4, (_pii_rows(sp.Rational(3, 5)),),
             _PII_INVARIANTS),
)}


def _attach(pipe: InvariantPipeline, step, report: InvariantReport) -> None:
    """Attach {report key: pipeline name}, or run ``step(pipe, report)``."""
    if callable(step):
        return step(pipe, report)
    report.invariants.update({k: to_expr(pipe.value(n)) for k, n in step.items()})


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
    for step in ((_CONDITION_1,), *th.steps):
        if not report.passed:
            if len(report.conditions) > 1 and th.skipped:
                report.warnings.append(th.skipped)
            break
        if not isinstance(step, tuple):
            _attach(pipe, step, report)
            continue
        for n, text, quantity, want_zero in step:
            v = quantity(pipe) if callable(quantity) else pipe.verdict(quantity)
            if v is not None:
                report.conditions.append(ConditionCheck(
                    f"{name} condition {n}: {text}",
                    f"{name}({n if n <= th.numbered else 'J'})", v,
                    None if v.is_unknown else v.is_zero == want_zero))
    report.warnings.extend(pipe.warnings)
    if report.passed:
        _attach(pipe, th.invariants, report)
    return report


def check_painleve1(ode: OdeCubic, seed: int = DEFAULT_SEED,
                    pipe: InvariantPipeline | None = None) -> InvariantReport:
    """Theorem 1: seven conditions; a pass attaches I1 and I2."""
    return _evaluate("painleve1", ode, seed, pipe)


def check_painleve2(ode: OdeCubic, seed: int = DEFAULT_SEED,
                    pipe: InvariantPipeline | None = None) -> InvariantReport:
    """Theorem 2: four conditions, then I9 != 0 and J^2 constant; it attaches
    I1, I3, I6 and I9 once conditions 1-4 hold, and J on a pass."""
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
    sqrt_failure = ()
    # the checks are looked up as module globals on every call, so that a
    # wrapper installed there sees them
    for check in (check_painleve1, check_painleve2, check_painleve3zero):
        try:
            rep = check(ode, seed=seed, pipe=pipe)
        except SqrtOfNonPositive as exc:
            sqrt_failure = (f"Theorem 2 conditions hold but {exc}",)
            reports[exc.report.target] = exc.report
            continue
        reports[rep.target] = rep
        if rep.passed:
            return Classification(rep.target, reports,
                                  J=rep.invariants.get("J"))
    # with J^2 < 0, Theorem 2's report passes, so the kind is indeterminate
    diagnostics = sqrt_failure or tuple(
        f"{c.label} {'is undecided' if c.holds is None else 'fails'} "
        f"({c.verdict.note})"
        for r in reports.values() for c in r.conditions if not c.holds)
    kind = ("not_equivalent" if all(r.passed is False for r in reports.values())
            else "indeterminate")
    return Classification(kind, reports, diagnostics=diagnostics)
