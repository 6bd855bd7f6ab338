"""Known-answer checks, independent of painleq's own verifier.

Maps are compared by evaluating both with this module's small mpmath
evaluator at rational points of the verifier's box x, y in [1, 2].  Roots of
negative numbers take the real branch when the index is odd, as painleq's
maps are meant to be read; an even root of a negative number makes the point
unusable and another is drawn.
"""

from __future__ import annotations

import random

import mpmath
import sympy as sp

__all__ = ["evaluate", "same_map", "same_up_to_sign", "check_inprocess",
           "check_cli", "NotEvaluable"]

PRECISION = 40
TOLERANCE = mpmath.mpf(10) ** -20
POINTS = 6
X, Y = sp.Symbol("x"), sp.Symbol("y")


class NotEvaluable(ArithmeticError):
    """The expression has no real value at the point."""


def evaluate(e: sp.Expr, point: dict) -> mpmath.mpf:
    """Real value of ``e`` at ``point`` (symbol -> mpmath number)."""
    if e.is_Rational:
        return mpmath.mpf(e.p) / e.q
    if e.is_Float:
        return mpmath.mpf(str(e))
    if e.is_Symbol:
        return point[e]
    if e is sp.E:
        return mpmath.e
    if e is sp.pi:
        return mpmath.pi
    if e.is_Add:
        return mpmath.fsum(evaluate(a, point) for a in e.args)
    if e.is_Mul:
        return mpmath.fprod(evaluate(a, point) for a in e.args)
    if e.is_Pow:
        base, ex = evaluate(e.base, point), e.exp
        if ex.is_Integer:
            if base == 0 and ex < 0:
                raise NotEvaluable("pole")
            return base ** int(ex)
        if ex.is_Rational:
            if base < 0:
                if ex.q % 2 == 0:
                    raise NotEvaluable("even root of a negative number")
                return (-mpmath.root(-base, ex.q)) ** ex.p
            if base == 0 and ex < 0:
                raise NotEvaluable("pole")
            return mpmath.root(base, ex.q) ** ex.p
        raise NotEvaluable(f"exponent {ex}")
    funcs = {sp.sin: mpmath.sin, sp.cos: mpmath.cos, sp.exp: mpmath.exp}
    if e.func in funcs:
        return funcs[e.func](evaluate(e.args[0], point))
    if e.func is sp.log:
        arg = evaluate(e.args[0], point)
        if arg <= 0:
            raise NotEvaluable("log of a non-positive number")
        return mpmath.log(arg)
    if e.func is sp.Abs:
        return abs(evaluate(e.args[0], point))
    raise NotEvaluable(f"node {e.func.__name__}")


def _close(u: mpmath.mpf, v: mpmath.mpf) -> bool:
    return abs(u - v) <= TOLERANCE * max(1, abs(u), abs(v))


def same_map(got: tuple, want: tuple) -> bool:
    """True when the two maps agree at POINTS points of [1, 2]^2 where both
    are real (at most 10 * POINTS draws, the same for every call)."""
    rng = random.Random(0)
    agreed = 0
    with mpmath.workdps(PRECISION):
        for _ in range(10 * POINTS):
            if agreed == POINTS:
                break
            point = {s: 1 + mpmath.mpf(rng.randint(0, 10**4)) / 10**4
                     for s in (X, Y)}
            try:
                pairs = [(evaluate(sp.sympify(g), point),
                          evaluate(sp.sympify(w), point))
                         for g, w in zip(got, want)]
            except (NotEvaluable, ZeroDivisionError):
                continue
            if not all(_close(g, w) for g, w in pairs):
                return False
            agreed += 1
    return agreed == POINTS


def same_up_to_sign(value, a) -> int:
    """+1 if value equals a, -1 if it equals -a, 0 otherwise (or nan)."""
    value = sp.sympify(value)
    if value is sp.nan or value.free_symbols:
        return 0
    with mpmath.workdps(PRECISION):
        try:
            v, w = evaluate(value, {}), evaluate(sp.sympify(a), {})
        except NotEvaluable:
            return 0
        if _close(v, w):
            return 1
        if _close(v, -w):
            return -1
    return 0


def check_inprocess(expect: dict, kind: str, J=None, pmap=None) -> str:
    """Empty string when the outcome matches the known answer, else why not.

    ``kind`` is the class painleq reported, ``J`` its Painleve II parameter
    and ``pmap`` the emitted map, when there is one.
    """
    want = expect["kind"]
    if kind not in (want if isinstance(want, tuple) else (want,)):
        return f"class {kind}, expected {want}"
    if kind == "painleve2" and "a" in expect and not same_up_to_sign(J, expect["a"]):
        return f"J = {J}, expected +-{expect['a']}"
    if "x_new" not in expect or kind not in ("painleve1", "painleve2"):
        return ""
    if pmap is None:
        return "no map emitted"
    hidden = (sp.sympify(expect["x_new"]), sp.sympify(expect["y_new"]))
    if kind == "painleve2":
        # PII's symmetry (y, a) -> (-y, -a): a map onto J = -a is the hidden
        # map with y_new negated
        sign = same_up_to_sign(pmap.J, expect["a"])
        if sign == 0:
            return f"map carries J = {pmap.J}, expected +-{expect['a']}"
        hidden = (hidden[0], sign * hidden[1])
    if not same_map((pmap.x_new, pmap.y_new), hidden):
        return f"map ({pmap.x_new}, {pmap.y_new}) differs from the hidden one"
    return ""


def check_cli(expect: dict, code: int, report: dict | None) -> str:
    """Exit code from the README contract, and the class the report names."""
    if code not in expect["exit"]:
        return f"exit {code}, expected one of {expect['exit']}"
    if expect["class"] is not None:
        got = None if report is None else report.get("class")
        if got != expect["class"]:
            return f"class {got}, expected {expect['class']}"
    return ""
