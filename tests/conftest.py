"""Shared test helpers."""

import mpmath
import pytest
import sympy as sp

from painleq.exprkernel import EvenRootOfNegative, PoleAtPoint


def _note(v: mpmath.mpf, scale: list) -> mpmath.mpf:
    a = abs(v)
    if a > scale[0]:
        scale[0] = a
    return v


def _reference_compile(e: sp.Expr, precision: int = 60):
    """The closure compiler that compile_numeric replaced: every
    occurrence of a subexpression is evaluated again."""
    mpf = mpmath.mpf
    functions = {sp.sin: mpmath.sin, sp.cos: mpmath.cos, sp.exp: mpmath.exp}
    # one closure per distinct subexpression; each takes (point, scale)
    memo: dict = {}

    def node(t: sp.Expr):
        run = memo.get(t)
        if run is None:
            run = memo[t] = build(t)
        return run

    def constant(c):
        size = abs(c)

        def run(v, s):
            if size > s[0]:
                s[0] = size
            return c
        return run

    def build(t: sp.Expr):
        if t.is_Rational:
            return constant(mpf(t.p) / mpf(t.q))
        if t.is_Float:
            return constant(mpf(str(t)))
        if t.is_NumberSymbol:
            return constant(mpf(str(sp.N(t, precision + 10))))
        if t.is_Symbol:
            def symbol(v, s):
                if t not in v:
                    raise ValueError(f"no value assigned to symbol {t}")
                return _note(v[t], s)
            return symbol
        if t.is_Add:
            terms = [node(a) for a in t.args]
            return lambda v, s: _note(mpmath.fsum([f(v, s) for f in terms]), s)
        if t.is_Mul:
            first, *rest = [node(a) for a in t.args]

            def product(v, s):
                r = first(v, s)
                for f in rest:
                    r *= f(v, s)
                return _note(r, s)
            return product
        if t.is_Pow:
            return power(t)
        if t.func in functions:
            fn, arg = functions[t.func], node(t.args[0])
            return lambda v, s: _note(fn(arg(v, s)), s)
        if t.func is sp.log:
            arg = node(t.args[0])

            def log(v, s):
                u = arg(v, s)
                if u < guard:
                    raise PoleAtPoint(f"ln of non-positive value in {t}")
                return _note(mpmath.log(u), s)
            return log
        raise ValueError(f"cannot evaluate node {t!r}")

    def power(t: sp.Expr):
        base, ex = node(t.base), t.exp
        if ex.is_Integer:
            n = int(ex)
            if n >= 0:
                return lambda v, s: _note(base(v, s) ** n, s)

            def inverse(v, s):
                b = base(v, s)
                if abs(b) < guard:
                    raise PoleAtPoint(f"denominator {t.base} ~ 0 at sample point")
                return _note(b ** n, s)
            return inverse
        if ex.is_Rational:
            num, den = int(ex.p), int(ex.q)

            def root(v, s):
                b = base(v, s)
                if b < 0:
                    if den % 2 == 0:
                        raise EvenRootOfNegative(
                            f"even root of negative radicand in {t}")
                    r = -mpmath.root(-b, den)
                else:
                    if num < 0 and b < guard:
                        raise PoleAtPoint(f"radicand {t.base} ~ 0 under negative power")
                    r = mpmath.root(b, den)
                if num < 0 and abs(r) < guard:
                    raise PoleAtPoint(f"root of {t.base} ~ 0 under negative power")
                return _note(r ** num, s)
            return root
        exponent = node(ex)
        return lambda v, s: _note(base(v, s) ** exponent(v, s), s)

    with mpmath.workdps(precision):
        guard = mpf(10) ** (-(precision // 2))
        return node(sp.sympify(e))


@pytest.fixture(scope="session")
def reference_compile():
    """The closure compiler that ``compile_numeric``'s tape replaced, as
    the reference the tape is checked against."""
    return _reference_compile
