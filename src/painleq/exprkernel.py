"""Exact symbolic expression kernel.

Expressions are immutable sympy objects over the plane variables ``x``, ``y``
(plus the derivative placeholder ``p`` at parse time) with exact rational
constants and free single-letter parameters.  This module provides the
services the rest of the pipeline is built on: exact rational-function
arithmetic with differentiation, canonical normalization, sound
zero-testing, and high-precision numeric evaluation with real root branches
(:func:`compile_numeric` turns an expression into a tape of its distinct
subexpressions once, so that evaluating it at many points walks no
expression tree and computes each subexpression once).

Exact algebra runs in a :class:`RationalField`, one ``FracField`` over ZZ
per set of expressions: numerators and denominators have integer
coefficients, so cancelling never converts between QQ and ZZ.  Its
generators are the variables, the parameters and every atom of the input:
``sin u`` and ``cos u`` as a pair, ``exp u``, ``ln u`` and roots
``b**(1/q)``.  Its derivations ``d/dx`` and ``d/dy`` are
the partial derivatives in the generators plus the chain rule through the
atoms.  Numerators and denominators are kept reduced modulo
``cos(u)**2 + sin(u)**2 - 1``, which eliminates ``cos(u)**2``; that ideal is
prime, so a reduced numerator of 0 is an exact zero test.  A nonzero
numerator that still holds atoms is certified by sampling, because distinct
atoms need not be algebraically independent (``sin(2*y)`` and ``sin(y)``),
except when they are one ``cos(u)``/``sin(u)`` pair of a rational ``u``.
:func:`normalize` is one round trip Expr -> field -> Expr, and
:func:`root_up_to_sign` takes n-th roots by factoring in the field.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Literal, Mapping

import mpmath
import sympy as sp
from sympy.core.basic import _args_sortkey
from sympy.polys.domains import QQ, ZZ
from sympy.polys.fields import FracElement, FracField
from sympy.polys.orderings import lex

__all__ = [
    "X", "Y", "P",
    "ZeroVerdict", "PoleAtPoint", "EvenRootOfNegative",
    "RationalField", "field_for",
    "normalize", "to_expr", "root_up_to_sign",
    "is_identically_zero",
    "evaluate_numeric", "compile_numeric", "numeric_point",
    "random_rational",
    "DEFAULT_SEED", "SAMPLE_COUNT", "SAMPLE_PRECISION", "MIN_PRECISION",
    "ZERO_THRESHOLD",
]

X = sp.Symbol("x")
Y = sp.Symbol("y")
P = sp.Symbol("p")

# Probabilistic zero-test policy: 12 rational points in [1, 2], denominator
# <= 10**4, 60 working digits, threshold 1e-30 relative to the largest term.
DEFAULT_SEED = 20240
SAMPLE_COUNT = 12
SAMPLE_PRECISION = 60
# the fewest digits evaluate_numeric works at: the threshold needs 30
MIN_PRECISION = 30
ZERO_THRESHOLD = Fraction(1, 10**30)

_NONFINITE = (sp.zoo, sp.nan, sp.oo, -sp.oo)


class PoleAtPoint(ArithmeticError):
    """Numeric evaluation hit a (near-)zero denominator or a log pole."""


class EvenRootOfNegative(ArithmeticError):
    """Even root of a negative radicand at an evaluation point."""


@dataclass(frozen=True)
class ZeroVerdict:
    """Outcome of an identical-vanishing test.

    ``zero`` is only ever produced by the exact normal form; ``unknown`` is
    legal output when normalization is inconclusive and sampling stayed below
    threshold.
    """

    status: Literal["zero", "nonzero", "unknown"]
    note: str = ""

    @property
    def is_zero(self) -> bool:
        return self.status == "zero"

    @property
    def is_nonzero(self) -> bool:
        return self.status == "nonzero"

    @property
    def is_unknown(self) -> bool:
        return self.status == "unknown"

    def __bool__(self) -> bool:  # pragma: no cover - guard against misuse
        raise TypeError("ZeroVerdict is tri-state; test .is_zero / .is_nonzero")


# -- the rational-function field ---------------------------------------------

def _exp_split(u: sp.Expr) -> tuple[sp.Rational, sp.Expr]:
    """exp(u) = exp(m)**c with c rational and m's sign fixed: returns (c, m)."""
    c, m = u.as_content_primitive()
    if m.could_extract_minus_sign():
        c, m = -c, -m
    return c, m


def _poly_sum(ring, polys):
    """Sum of ring elements through one dictionary, not pairwise copies."""
    if len(polys) == 1:
        return polys[0]
    acc: dict = {}
    zero = ring.domain.zero
    for p in polys:
        for monom, coeff in p.items():
            acc[monom] = acc.get(monom, zero) + coeff
    return ring.from_dict({m: c for m, c in acc.items() if c})


def _signed(num, den):
    """num/den with the denominator's leading coefficient positive, as
    ``PolyElement.cancel`` leaves it."""
    return (-num, -den) if den.LC < 0 else (num, den)


def _times(a, b, c, d):
    """(a/b)*(c/d) for coprime pairs a, b and c, d, as a coprime pair: only
    a and d, and c and b, can share a factor (Henrici)."""
    if not a or not c:
        return a.ring.zero, a.ring.one
    if not d.is_one:
        _, a, d = a.cofactors(d)
    if not b.is_one:
        _, c, b = c.cofactors(b)
    return _signed(a * c, b * d)


def _plus(a, b, c, d):
    """a/b + c/d for coprime pairs, as a coprime pair.  With g = gcd(b, d),
    b = g*b1 and d = g*d1, the numerator t = a*d1 + c*b1 is prime to b1 and
    to d1, so it is cancelled against g alone (Henrici)."""
    if d.is_one:
        return _signed(a + c * b, b)
    if b.is_one:
        return _signed(a * d + c, d)
    if b == d:
        g, t, rest = b, a + c, None
    else:
        g, b1, d1 = b.cofactors(d)
        t, rest = a * d1 + c * b1, b1 * d1
    if not t:
        return t, b.ring.one
    if not (g.is_ground and abs(g.LC) == 1):
        _, t, g = t.cofactors(g)
    return _signed(t, g if rest is None else g * rest)


class _Fraction(FracElement):
    """A ``FracElement`` whose ``+``, ``-``, ``*`` and ``/`` cancel against
    gcds of the operands' own numerators and denominators (:func:`_times`,
    :func:`_plus`) instead of one gcd of the full cross product.  The
    operands must be reduced; the result is the reduced fraction, with the
    denominator's leading coefficient positive, that sympy's cancelling
    gives, because that fraction is unique in the free polynomial ring.
    ``**``, ``K.new``, and the operations with anything but an element of
    this field or its ring, or a rational number, are sympy's."""

    def _op(f, g, rule, name):
        """rule(f.numer, f.denom, numerator of g, denominator of g), or
        sympy's operation ``name`` when g is none of those."""
        ring = f.field.ring
        if f.field.is_element(g):
            c, d = g.numer, g.denom
        elif ring.is_element(g):
            c, d = g, ring.one
        else:
            op, num, den = f._extract_ground(g)
            if not op:
                return getattr(super(_Fraction, f), name)(g)
            c, d = ring.ground_new(num), ring.ground_new(den if op < 0 else 1)
        return f.raw_new(*rule(f.numer, f.denom, c, d))

    def __add__(f, g):
        if not g:
            return f
        if not f and f.field.is_element(g):
            return g
        return f._op(g, _plus, "__add__")

    def __radd__(f, c):
        return f._op(c, _plus, "__radd__")

    def __sub__(f, g):
        if not g:
            return f
        if not f and f.field.is_element(g):
            return -g
        return f._op(g, lambda a, b, c, d: _plus(a, b, -c, d), "__sub__")

    def __rsub__(f, c):
        return f._op(c, lambda a, b, c, d: _plus(-a, b, c, d), "__rsub__")

    def __mul__(f, g):
        return f._op(g, _times, "__mul__")

    def __rmul__(f, c):
        return f._op(c, _times, "__rmul__")

    def __truediv__(f, g):
        if not g:
            raise ZeroDivisionError
        return f._op(g, lambda a, b, c, d: _times(a, b, d, c), "__truediv__")

    def __rtruediv__(f, c):
        if not f:
            raise ZeroDivisionError
        return f._op(c, lambda a, b, c, d: _times(b, a, c, d), "__rtruediv__")


class _FractionField(FracField):
    """A ``FracField`` whose elements are :class:`_Fraction`; it is equal to
    sympy's field on the same generators, and their elements mix."""

    def __new__(cls, symbols, domain, order=lex):
        obj = super().__new__(cls, symbols, domain, order)
        # hashed as sympy's field, which it is equal to
        obj._hash_tuple = ("FracField",) + obj._hash_tuple[1:]
        obj._hash = hash(obj._hash_tuple)
        obj.dtype = _Fraction(obj, obj.ring.zero).raw_new
        obj.zero, obj.one = obj.dtype(obj.ring.zero), obj.dtype(obj.ring.one)
        old, obj.gens = obj.gens, obj._gens()
        for symbol, was, gen in zip(obj.symbols, old, obj.gens):
            if getattr(obj, str(symbol), None) is was:
                setattr(obj, str(symbol), gen)
        # the lines above copy what FracField.__new__ does in sympy 1.14;
        # a sympy that builds its fields otherwise fails here, not later
        one = obj.new(obj.ring.one)
        if not (type(one) is _Fraction and one.field is obj
                and (one.numer, one.denom) == (obj.ring.one, obj.ring.one)
                and all(type(g) is _Fraction for g in obj.gens)):
            raise RuntimeError("painleq.exprkernel needs the FracField and "
                               "FracElement of sympy 1.14, found sympy "
                               f"{sp.__version__}")
        return obj


def _symbol_order(symbols) -> list[sp.Symbol]:
    """The symbols in generator order: x, then y, whichever of them is
    present, then the rest by name.  Every field orders the symbols it holds
    as this one global order does, so the sign rule of reduced fractions
    (the denominator's leading coefficient in lex order is positive) is the
    same rule in every field."""
    first = [s for s in (X, Y) if s in symbols]
    return first + sorted(symbols - {X, Y}, key=sp.default_sort_key)


def _generators(exprs) -> tuple[sp.Expr, ...]:
    """The variables, parameters and atoms of ``exprs``, in a fixed order:
    symbols, then cos/sin pairs (cos first), exponentials, logarithms, roots
    and other opaque atoms.  exp atoms sharing an argument up to a rational
    factor share one generator, as do roots of one base."""
    symbols, trig, logs, other = set(), set(), set(), set()
    exps: dict[sp.Expr, set] = {}
    roots: dict[sp.Expr, int] = {}
    # one walk over every distinct node
    stack, seen = list(exprs), set()
    while stack:
        node = stack.pop()
        if node in seen:
            continue
        seen.add(node)
        stack.extend(node.args)
        if node.is_Symbol:
            symbols.add(node)
        elif isinstance(node, sp.Function):
            if node.func in (sp.sin, sp.cos):
                trig.add(node.args[0])
            elif node.func is sp.exp:
                c, m = _exp_split(node.args[0])
                exps.setdefault(m, set()).add(c)
            elif node.func is sp.log:
                logs.add(node)
            else:
                other.add(node)
        elif node.is_Pow:
            if node.exp.is_Rational and not node.exp.is_Integer:
                roots[node.base] = lcm(roots.get(node.base, 1), int(node.exp.q))
            elif not node.exp.is_Integer:
                other.add(node)
        elif node is sp.E:
            exps.setdefault(sp.S.One, set()).add(sp.S.One)
        elif node is sp.I or isinstance(node, sp.NumberSymbol):
            other.add(node)
    key = sp.default_sort_key
    gens = _symbol_order(symbols)
    for u in sorted(trig, key=key):
        gens += [sp.cos(u), sp.sin(u)]
    for m in sorted(exps, key=key):
        cs = exps[m]
        g = sp.Rational(gcd(*(int(c.p) for c in cs)), lcm(*(int(c.q) for c in cs)))
        gens.append(sp.exp(g * m))
    gens += sorted(logs, key=key)
    gens += [b ** sp.Rational(1, q) for b, q in sorted(roots.items(),
                                                       key=lambda bq: key(bq[0]))]
    gens += sorted(other, key=key)
    return tuple(gens)


class RationalField:
    """Rational functions with integer coefficients in fixed generators (see
    the module docstring), with the derivations d/dx, d/dy and the reduction
    modulo cos(u)**2 + sin(u)**2 - 1.

    Elements are sympy ``FracElement`` values.  Field arithmetic on them is
    exact; :meth:`reduce` brings a result back to reduced form, and every
    value this class returns is reduced already.
    """

    def __init__(self, gens: tuple[sp.Expr, ...]):
        self.K = _FractionField(gens, ZZ, lex)
        self.ring = self.K.ring
        self.symbols = gens
        self._gen = dict(zip(gens, self.K.gens))
        self._exps: dict[sp.Expr, tuple[FracElement, sp.Rational]] = {}
        self._roots: dict[sp.Expr, tuple[FracElement, int]] = {}
        # gen index, power k, replacement: gen**k is rewritten to replacement
        self._relations = []
        # the same for sin(u)**2 -> 1 - cos(u)**2, the other reduced form
        self._sin_relations = []
        # every generator but the symbols and i (with i**2 = -1) is an atom
        # whose presence sends a nonzero numerator to sampling, unless the
        # atoms are one cos/sin pair listed here
        self._inexact = [i for i, g in enumerate(gens)
                         if not (g.is_Symbol or g is sp.I)]
        self._exact_pairs = []
        ring_gens = self.ring.gens
        for i, g in enumerate(gens):
            if g is sp.I:
                self._relations.append((i, 2, -self.ring.one))
            elif g.func is sp.cos:
                u = g.args[0]
                j = gens.index(sp.sin(u))
                self._relations.append((i, 2, self.ring.one - ring_gens[j]**2))
                self._sin_relations.append((j, 2, self.ring.one - ring_gens[i]**2))
                # for a nonconstant rational u of x and y, sin(u) is
                # transcendental over the rational functions of x, y and the
                # parameters, so the reduced form is canonical
                if u.free_symbols and u.free_symbols <= {X, Y} \
                        and u.is_rational_function(X, Y):
                    self._exact_pairs.append({i, j})
            elif g.func is sp.exp or g is sp.E:
                c, m = _exp_split(g.args[0] if g.args else sp.S.One)
                self._exps[m] = (self.K.gens[i], c)
            elif g.is_Pow and g.exp.is_Rational:
                q = int(g.exp.q)
                self._roots[g.base] = (self.K.gens[i], q)
                # sympy writes a root of a rational number with an integer
                # base: (1/2)**(1/3) is 2**(2/3)/2
                if g.base.is_Integer:
                    self._relations.append(
                        (i, q, self.ring.ground_new(int(g.base))))
        self._powers: dict[tuple[int, int], object] = {}
        self._gen_diff: dict[tuple[int, sp.Symbol], FracElement] = {}
        self._tables: dict[sp.Symbol, tuple] = {}

    # -- conversion ---------------------------------------------------------

    def __call__(self, e: sp.Expr) -> FracElement:
        """``e`` as a reduced field element."""
        return self.reduce(self._convert(sp.sympify(e)))

    def free(self, e: sp.Expr) -> FracElement:
        """``e`` as an element of the free field, where the generators are
        independent: converted, but not reduced modulo the relations."""
        return self._convert(sp.sympify(e))

    def _convert(self, e: sp.Expr) -> FracElement:
        g = self._gen.get(e)
        if g is not None:
            return g
        K = self.K
        if e.is_Rational:
            return self._rational(int(e.p), int(e.q))
        if e.is_Add:
            groups: dict = {}
            for a in e.args:
                f = self._convert(a)
                groups.setdefault(f.denom, []).append(f.numer)
            total = K.zero
            for den, nums in groups.items():
                total += K.new(_poly_sum(self.ring, nums), den)
            return total
        if e.is_Mul:
            num, den = self.ring.one, self.ring.one
            for a in e.args:
                f = self._convert(a)
                num, den = num * f.numer, den * f.denom
            return K.new(num, den)
        if e.is_Pow and e.exp.is_Integer:
            n = int(e.exp)
            f = self._convert(e.base) ** n
            # a negative power inverts the fraction as it stands
            return f if n >= 0 else K.raw_new(*_signed(f.numer, f.denom))
        if e.is_Pow and e.exp.is_Rational and e.base in self._roots:
            root, q = self._roots[e.base]
            return root ** int(e.exp * q)
        if e.func is sp.exp or e is sp.E:
            c, m = _exp_split(e.args[0] if e.args else sp.S.One)
            if m in self._exps:
                gen, unit = self._exps[m]
                if (c / unit).is_Integer:
                    return gen ** int(c / unit)
        if e.is_Float:
            q = QQ.from_sympy(e)
            return self._rational(int(q.numerator), int(q.denominator))
        raise ValueError(f"{e} is not a generator of {self.symbols}")

    def _rational(self, p: int, q: int) -> FracElement:
        """The constant p/q, for coprime p and q > 0."""
        return self.K.raw_new(self.ring.ground_new(p), self.ring.ground_new(q))

    # -- reduction ----------------------------------------------------------

    def _replacement_power(self, i: int, n: int, relations):
        # a generator index belongs to one relation in either list
        key = (i, n)
        if key not in self._powers:
            repl = next(r for j, _, r in relations if j == i)
            self._powers[key] = repl**n
        return self._powers[key]

    def _reduce_poly(self, p, relations=None):
        """``p`` with every gen**k of a relation rewritten until none is left.
        The replacements hold no relation generator, so each pass removes
        one relation generator from every term it touches."""
        relations = self._relations if relations is None else relations
        zero = self.ring.domain.zero
        while True:
            acc: dict = {}
            touched = False
            for monom, coeff in p.items():
                for i, k, _ in relations:
                    if monom[i] >= k:
                        n, rest = divmod(monom[i], k)
                        base = monom[:i] + (rest,) + monom[i + 1:]
                        for rm, rc in self._replacement_power(i, n, relations).items():
                            mm = tuple(a + b for a, b in zip(base, rm))
                            acc[mm] = acc.get(mm, zero) + coeff * rc
                        touched = True
                        break
                else:
                    acc[monom] = acc.get(monom, zero) + coeff
            if not touched:
                return p
            p = self.ring.from_dict({m: c for m, c in acc.items() if c})

    def _make(self, num, den) -> FracElement:
        if self._relations:
            num, den = self._reduce_poly(num), self._reduce_poly(den)
        if not den:
            raise ZeroDivisionError("denominator vanishes identically")
        return self.K.new(num, den)

    def reduce(self, f: FracElement) -> FracElement:
        """``f`` with numerator and denominator reduced and their gcd removed."""
        if not self._relations:
            return f
        return self._make(f.numer, f.denom)

    def is_exact(self, p) -> bool:
        """True when the reduced polynomial ``p`` holds no atom, or only one
        cos(u)/sin(u) pair of a nonconstant rational u of x and y, so that
        its being nonzero is decided by its reduced form alone."""
        degrees = p.degrees()
        atoms = {i for i in self._inexact if degrees[i] > 0}
        return not atoms or any(atoms <= pair for pair in self._exact_pairs)

    def sin_reduced(self, f: FracElement) -> FracElement:
        """The reduced ``f`` with every sin(u)**2 rewritten as
        1 - cos(u)**2: the other reduced form, which field arithmetic does
        not keep."""
        rel = self._sin_relations
        return self.K.new(self._reduce_poly(f.numer, rel),
                          self._reduce_poly(f.denom, rel))

    # -- derivations --------------------------------------------------------

    def _generator_diff(self, i: int, var: sp.Symbol) -> FracElement:
        """d/var of generator ``i`` by the chain rule through its argument."""
        key = (i, var)
        if key in self._gen_diff:
            return self._gen_diff[key]
        g, K = self.symbols[i], self.K
        gen = K.gens[i]
        if var not in g.free_symbols:
            d = K.zero
        elif g.is_Symbol:
            d = K.one
        elif g.func is sp.sin:
            d = self._gen[sp.cos(g.args[0])] * self._chain(g.args[0], var)
        elif g.func is sp.cos:
            d = -self._gen[sp.sin(g.args[0])] * self._chain(g.args[0], var)
        elif g.func is sp.exp:
            d = gen * self._chain(g.args[0], var)
        elif g.func is sp.log:
            d = self._chain(g.args[0], var) / self._convert(g.args[0])
        elif g.is_Pow and g.exp.is_Rational:
            b = self._convert(g.base)
            d = gen * self._chain(g.base, var) / (int(g.exp.q) * b)
        else:
            raise ValueError(f"no derivative rule for the atom {g}")
        self._gen_diff[key] = d
        return d

    def _chain(self, u: sp.Expr, var: sp.Symbol) -> FracElement:
        """d/var of an atom's argument, through the generators it holds."""
        f = self._convert(u)
        total = self.K.zero
        for j, gen in enumerate(self.K.gens):
            if f.numer.degree(j) > 0 or f.denom.degree(j) > 0:
                total += f.diff(gen) * self._generator_diff(j, var)
        return total

    def _derivation(self, var: sp.Symbol):
        """(B, [(generator, A)]) with d(generator)/d(var) = A/B, polynomials."""
        if var not in self._tables:
            parts = [(g, self._generator_diff(i, var))
                     for i, g in enumerate(self.ring.gens)]
            parts = [(g, d) for g, d in parts if d]
            B = self.ring.one
            for _, d in parts:
                B = B.lcm(d.denom)
            self._tables[var] = (B, [(g, d.numer * B.exquo(d.denom))
                                     for g, d in parts])
        return self._tables[var]

    def _quotient_rule(self, f: FracElement, var: sp.Symbol):
        """(B, dnum, dden) for d/dx or d/dy of ``f``: the polynomials
        B*d(num) and B*d(den), so that the derivative is
        (dnum*den - num*dden)/(B*den**2) in the free field."""
        B, table = self._derivation(var)
        zero = [self.ring.zero]
        dnum = _poly_sum(self.ring, [f.numer.diff(g) * a for g, a in table]
                         or zero)
        if f.denom.is_ground:
            return B, dnum, self.ring.zero
        return B, dnum, _poly_sum(self.ring, [f.denom.diff(g) * a
                                              for g, a in table] or zero)

    def free_diff(self, f: FracElement, var: sp.Symbol) -> FracElement:
        """d/dx or d/dy of the reduced ``f`` in the free field, where the
        generators are independent, so nothing is reduced modulo the
        relations.  With h = gcd(den, dden), den = h*d1 and dden = h*e1,
        the derivative is t/(B*h*d1**2) with t = dnum*d1 - num*e1, and t is
        prime to d1, so it is cancelled against B*h alone."""
        B, dnum, dden = self._quotient_rule(f, var)
        h, d1, e1 = f.denom.cofactors(dden)
        t = dnum * d1 - f.numer * e1
        if not t:
            return self.K.zero
        _, t, s = t.cofactors(B * h)
        return self.K.raw_new(*_signed(t, s * d1**2))

    def diff(self, f: FracElement, var: sp.Symbol) -> FracElement:
        """d/dx or d/dy of ``f`` (parameters are constants), reduced."""
        if not self._relations:
            return self.free_diff(f, var)
        B, dnum, dden = self._quotient_rule(f, var)
        if f.denom.is_ground:
            return self._make(dnum, B * f.denom)
        return self._make(dnum * f.denom - f.numer * dden, B * f.denom**2)


@lru_cache(maxsize=256)
def _field_on(gens: tuple[sp.Expr, ...]) -> RationalField:
    return RationalField(gens)


def field_for(*exprs: sp.Expr) -> RationalField:
    """The rational-function field of the variables, parameters and atoms
    of ``exprs``."""
    return _field_on(_generators([sp.sympify(e) for e in exprs]))


class _TreeBuilder:
    """Builds the expressions of the polynomials of one ring.

    A term whose factors are all symbols and powers of ``sin``/``cos`` is
    built as the ``Mul`` that ``Mul.flatten`` would return: its factors
    sorted by ``_args_sortkey`` and the coefficient first; such terms are
    summed into the ``Add`` that ``Add.flatten`` would return, the number
    term first.  Powers of the other generators evaluate (``exp(y)**2`` is
    ``exp(2*y)``, ``I**2`` is -1) and their terms can merge (``x*r`` and
    ``r**4`` are both ``x**(4/3)`` for ``r = x**(1/3)``), so a polynomial
    holding one of them goes through sympy's constructors.
    """

    def __init__(self, gens: tuple[sp.Expr, ...]):
        self.gens = gens
        self.evaluating = [i for i, g in enumerate(gens)
                           if not (g.is_Symbol or g.func in (sp.sin, sp.cos))]
        self._powers: dict[tuple[int, int], sp.Expr] = {}

    def _factors(self, monom) -> list[sp.Expr]:
        out = []
        for i, k in enumerate(monom):
            if k:
                p = self._powers.get((i, k))
                if p is None:
                    p = self._powers[(i, k)] = sp.Pow(self.gens[i], k)
                out.append(p)
        return out

    def direct(self, poly) -> bool:
        """True when every term of ``poly`` can be built directly."""
        ev = self.evaluating
        return not ev or not any(m[i] for m in poly.itermonoms() for i in ev)

    def build(self, poly, den: int = 1) -> sp.Expr:
        """``poly / den`` for an integer ``den``; ``den`` is folded into the
        coefficients, as ``Rational * Add`` distributes, so ``poly`` must
        be :meth:`direct` unless ``den`` is 1."""
        if not self.direct(poly):
            return sp.Add(*[sp.Mul(sp.Integer(c), *self._factors(m))
                            for m, c in poly.items()])
        terms, number = [], []
        for monom, c in poly.items():
            coeff = sp.Integer(c) if den == 1 else sp.Rational(c, den)
            factors = self._factors(monom)
            if not factors:
                number.append(coeff)
                continue
            if len(factors) > 1:
                factors.sort(key=_args_sortkey)
            if coeff is not sp.S.One:
                factors.insert(0, coeff)
            terms.append(factors[0] if len(factors) == 1
                         else sp.Mul._from_args(factors))
        if len(terms) > 1:
            terms.sort(key=_args_sortkey)
        terms = number + terms
        if len(terms) < 2:
            return terms[0] if terms else sp.S.Zero
        return sp.Add._from_args(terms)


@lru_cache(maxsize=256)
def _builder(gens: tuple[sp.Expr, ...]) -> _TreeBuilder:
    return _TreeBuilder(gens)


def to_expr(f) -> sp.Expr:
    """The expression of a field element or a polynomial: the tree that
    ``f.as_expr()`` builds, built directly (see :class:`_TreeBuilder`)
    instead of through sympy's ``Mul`` and ``Add`` constructors."""
    if not isinstance(f, FracElement):
        return _builder(f.ring.symbols).build(f)
    b = _builder(f.field.symbols)
    num, den = f.numer, f.denom
    if den.is_ground and b.direct(num):
        return b.build(num, int(den.LC))
    return b.build(num) / b.build(den)


def normalize(e: sp.Expr) -> sp.Expr:
    """Canonical quotient of polynomials in the variables, parameters and atoms.

    One round trip through the expression's :class:`RationalField`: no
    ``cos(u)**2`` survives, and the numerator/denominator gcd is removed.
    Idempotent; the zero expression normalizes to 0, a denominator that
    vanishes identically to ``zoo``, and undefined input comes back as is.
    """
    e = sp.sympify(e)
    if e.is_Rational or e.has(*_NONFINITE):
        return e
    field = field_for(e)
    try:
        return to_expr(field(e))
    except ZeroDivisionError:
        return sp.zoo


def _root_parts(f: FracElement, n: int):
    """(content, root, remainder) with f = content * root**n * remainder:
    the content is rational, and root and remainder are lists of (factor,
    exponent) whose remainder exponents lie strictly between -n and n.
    Numerator and denominator of ``f`` are coprime, so no factor is in
    both."""
    content, root, rest = QQ.one, [], []
    for poly, sign in ((f.numer, 1), (f.denom, -1)):
        c, factors = poly.factor_list()
        content = content * c if sign > 0 else content / c
        for g, m in factors:
            q, r = divmod(m, n)
            if q:
                root.append((g, sign * q))
            if r:
                rest.append((g, sign * r))
    return content, root, rest


def _product(factors) -> sp.Expr:
    return sp.Mul(*(to_expr(g) ** k for g, k in factors))


def _terms(factors) -> int:
    return sum(len(g) * abs(k) for g, k in factors)


def root_up_to_sign(e: sp.Expr, n: int) -> sp.Expr:
    """An n-th root of the rational function ``e``, exact for odd ``n`` and
    determined up to sign for even ``n``.

    ``e`` is reduced in its :class:`RationalField` and its numerator and
    denominator are factored over QQ.  Every factor of multiplicity at least
    ``n`` comes out with its multiplicity divided by ``n``; whatever remains
    stays under one ``**(1/n)``.  For odd ``n`` the root is the real one, so
    a negative content comes out as a sign; for even ``n`` it stays under the
    root.  When a ``sin(u)`` is present and a remainder is left, the form
    with ``sin(u)**2`` rewritten as ``1 - cos(u)**2`` is tried too, and the
    one leaving the smaller remainder is kept: ``9*x**2*(1 - sin(y)**2)`` is
    ``(3*x*cos(y))**2``.
    """
    if n < 1:
        raise ValueError(f"root index must be positive, got {n}")
    e = sp.sympify(e)
    if e.is_Rational:
        content, root, rest = e, [], []
    else:
        field = field_for(e)
        f = field(e)
        content, root, rest = _root_parts(f, n)
        if rest:
            g = field.sin_reduced(f)
            if g != f:
                alt = _root_parts(g, n)
                if _terms(alt[2]) < _terms(rest):
                    content, root, rest = alt
        content = QQ.to_sympy(content)
    if content == 0:
        return sp.S.Zero
    out, radicand = _product(root), _product(rest)
    if content < 0:
        if n % 2:
            out = -out
        else:
            radicand = -radicand
        content = -content
    return out * content ** sp.Rational(1, n) * radicand ** sp.Rational(1, n)


def random_rational(rng: random.Random, lo: int = 1, hi: int = 2,
                    max_den: int = 10**4) -> Fraction:
    den = rng.randint(1, max_den)
    return Fraction(rng.randint(lo * den, hi * den), den)


def is_identically_zero(e: sp.Expr | FracElement,
                        seed: int = DEFAULT_SEED) -> ZeroVerdict:
    """Sound identical-vanishing test.

    ``e`` is an expression or an element of a :class:`RationalField`.  The
    numerator reduced modulo the field's relations decides whenever it can:
    0 is zero, and a nonzero numerator without atoms is nonzero.  A field
    element n/d is zero exactly when n is, so only its numerator is reduced,
    and no gcd is taken.  A nonzero numerator holding atoms is evaluated at
    ``SAMPLE_COUNT`` random non-singular rational points in [1, 2], which
    distinguishes NonZero from Unknown.
    """
    if isinstance(e, FracElement):
        field = _field_on(e.field.symbols)
        num = field._reduce_poly(e.numer) if field._relations else e.numer
    else:
        e = sp.sympify(e)
        if e.has(*_NONFINITE):
            return ZeroVerdict("unknown", "expression is undefined")
        field = field_for(e)
        try:
            num = field(e).numer
        except ZeroDivisionError:
            return ZeroVerdict("unknown", "denominator vanishes identically")
    if not num:
        return ZeroVerdict("zero", "canonical form vanishes")
    if field.is_exact(num):
        return ZeroVerdict("nonzero", "canonical form is a nonzero rational function")
    num = to_expr(num)
    symbols = sorted(num.free_symbols, key=str)
    run = compile_numeric(num, SAMPLE_PRECISION)
    tol = mpmath.mpf(ZERO_THRESHOLD.numerator) / mpmath.mpf(ZERO_THRESHOLD.denominator)
    rng = random.Random(seed)
    tested = 0
    for _ in range(SAMPLE_COUNT * 4):
        if tested >= SAMPLE_COUNT:
            break
        point = {s: sp.Rational(random_rational(rng)) for s in symbols}
        scale = [mpmath.mpf(0)]
        try:
            with mpmath.workdps(SAMPLE_PRECISION):
                val = run(numeric_point(point), scale)
        except (PoleAtPoint, EvenRootOfNegative):
            continue
        tested += 1
        if abs(val) > tol * max(scale[0], mpmath.mpf(1)):
            return ZeroVerdict("nonzero", f"sample {tested} exceeds tolerance")
    if tested == 0:
        return ZeroVerdict("unknown", "no non-singular sample point found")
    return ZeroVerdict("unknown",
                       f"{tested} samples below tolerance but not proved zero")


def evaluate_numeric(e: sp.Expr, point: Mapping[sp.Symbol | str, object],
                     precision: int = SAMPLE_PRECISION) -> mpmath.mpf:
    """Evaluate at an exact rational point to ``precision`` decimal digits.

    Odd roots of negative reals take the real branch; even roots of negative
    radicands raise EvenRootOfNegative; denominators below the underflow guard
    raise PoleAtPoint instead of returning garbage.
    """
    if precision < MIN_PRECISION:
        raise ValueError(f"precision must be at least {MIN_PRECISION} digits")
    run = compile_numeric(e, precision)
    with mpmath.workdps(precision):
        return run(numeric_point(point), [mpmath.mpf(0)])


def numeric_point(point: Mapping[sp.Symbol | str, object]) -> dict[sp.Symbol, mpmath.mpf]:
    """An exact rational point as ``mpf`` values, the form that the closures
    of :func:`compile_numeric` read.  Call it at the working precision they
    run at."""
    out = {}
    for k, v in point.items():
        q = _to_fraction(v)
        out[sp.Symbol(k) if isinstance(k, str) else k] = \
            mpmath.mpf(q.numerator) / mpmath.mpf(q.denominator)
    return out


def compile_numeric(e: sp.Expr, precision: int = SAMPLE_PRECISION):
    """Compile ``e`` once into an evaluation tape, for evaluation at many
    points.

    The tape lists the distinct subexpressions of ``e`` in first-visit
    post-order, so each of them is computed once per point however often it
    occurs.  The result ``run(point, scale)`` evaluates ``e`` at ``point``, a
    mapping from symbols to values made by :func:`numeric_point`, and must
    be called under ``mpmath.workdps(precision)``.  For an ``sp.Tuple`` it
    returns the tuple of its entries' values, computed on one tape.  It
    keeps in ``scale[0]`` the largest magnitude of any subexpression's
    value, which bounds the rounding error.  Constants are computed here, at
    ``precision`` digits; sums go through ``fsum`` and products multiply
    left to right.  Odd roots of negative reals take the real branch; an
    even root of a negative radicand raises EvenRootOfNegative, and a
    negative power, root or logarithm of a value below the underflow guard
    raises PoleAtPoint.
    """
    mpf = mpmath.mpf
    functions = {sp.sin: mpmath.sin, sp.cos: mpmath.cos, sp.exp: mpmath.exp}
    slots: dict = {}     # subexpression -> its index on the tape
    values: list = []    # the constants; None where a step computes a value
    steps: list = []     # (index, step), step(vals, point) -> value

    def slot(t: sp.Expr) -> int:
        k = slots.get(t)
        if k is None:
            made = build(t)
            k = slots[t] = len(values)
            if isinstance(made, mpf):
                values.append(made)
            else:
                values.append(None)
                steps.append((k, made))
        return k

    def build(t: sp.Expr):
        if t.is_Rational:
            return mpf(t.p) / mpf(t.q)
        if t.is_Float:
            return mpf(str(t))
        if t.is_NumberSymbol:
            return mpf(str(sp.N(t, precision + 10)))
        if t.is_Symbol:
            def symbol(vals, v):
                if t not in v:
                    raise ValueError(f"no value assigned to symbol {t}")
                return v[t]
            return symbol
        if t.is_Add:
            terms = [slot(a) for a in t.args]
            return lambda vals, v: mpmath.fsum([vals[i] for i in terms])
        if t.is_Mul:
            first, *rest = [slot(a) for a in t.args]

            def product(vals, v):
                r = vals[first]
                for i in rest:
                    r *= vals[i]
                return r
            return product
        if t.is_Pow:
            return power(t)
        if t.func in functions:
            fn, arg = functions[t.func], slot(t.args[0])
            return lambda vals, v: fn(vals[arg])
        if t.func is sp.log:
            arg = slot(t.args[0])

            def log(vals, v):
                u = vals[arg]
                if u < guard:
                    raise PoleAtPoint(f"ln of non-positive value in {t}")
                return mpmath.log(u)
            return log
        raise ValueError(f"cannot evaluate node {t!r}")

    def power(t: sp.Expr):
        base, ex = slot(t.base), t.exp
        if ex.is_Integer:
            n = int(ex)
            if n >= 0:
                return lambda vals, v: vals[base] ** n

            def inverse(vals, v):
                b = vals[base]
                if abs(b) < guard:
                    raise PoleAtPoint(f"denominator {t.base} ~ 0 at sample point")
                return b ** n
            return inverse
        if ex.is_Rational:
            num, den = int(ex.p), int(ex.q)

            def root(vals, v):
                b = vals[base]
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
                return r ** num
            return root
        exponent = slot(ex)
        return lambda vals, v: vals[base] ** vals[exponent]

    with mpmath.workdps(precision):
        guard = mpf(10) ** (-(precision // 2))
        e = sp.sympify(e)
        out = [slot(a) for a in e.args] if isinstance(e, sp.Tuple) else slot(e)

    def run(v, s):
        vals = values.copy()
        for k, step in steps:
            vals[k] = step(vals, v)
        top = max(map(abs, vals))
        if top > s[0]:
            s[0] = top
        if isinstance(out, int):
            return vals[out]
        return tuple(vals[k] for k in out)
    return run


def _to_fraction(v: object) -> Fraction:
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, sp.Rational):
        return Fraction(int(v.p), int(v.q))
    return Fraction(str(v))
