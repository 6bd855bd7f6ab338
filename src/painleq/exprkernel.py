"""Exact symbolic expression kernel.

Expressions are immutable sympy objects over the plane variables ``x``, ``y``
(plus the derivative placeholder ``p`` at parse time) with exact rational
constants and free single-letter parameters.  This module provides the
services the rest of the pipeline is built on: exact rational-function
arithmetic with differentiation, canonical normalization, sound
zero-testing, and high-precision numeric evaluation with real root branches
(:func:`compile_numeric` turns an expression into closures once, so that
evaluating it at many points walks no expression tree).

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
    "ZeroVerdict", "DegenerateSubstitution", "PoleAtPoint", "EvenRootOfNegative",
    "RationalField", "field_for",
    "differentiate", "normalize", "to_expr", "root_up_to_sign",
    "is_identically_zero",
    "substitute",
    "evaluate_numeric", "compile_numeric", "numeric_point",
    "random_rational", "sample_point",
    "DEFAULT_SEED", "SAMPLE_COUNT", "SAMPLE_PRECISION", "ZERO_THRESHOLD",
]

X = sp.Symbol("x")
Y = sp.Symbol("y")
P = sp.Symbol("p")

# Probabilistic zero-test policy: 12 rational points in [1, 2], denominator
# <= 10**4, 60 working digits, threshold 1e-30 relative to the largest term.
DEFAULT_SEED = 20240
SAMPLE_COUNT = 12
SAMPLE_PRECISION = 60
ZERO_THRESHOLD = Fraction(1, 10**30)

_NONFINITE = (sp.zoo, sp.nan, sp.oo, -sp.oo)


class DegenerateSubstitution(ValueError):
    """Substitution produced an identically-zero denominator."""


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


def differentiate(e: sp.Expr, var: str | sp.Symbol) -> sp.Expr:
    """Partial derivative with respect to ``x`` or ``y``; parameters are constants."""
    s = sp.Symbol(var) if isinstance(var, str) else var
    if s not in (X, Y):
        raise ValueError(f"can only differentiate in x or y, got {s}")
    return sp.diff(sp.sympify(e), s)


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


def _symbol_order(symbols) -> list[sp.Symbol]:
    """The symbols in generator order: x and y first when both are present,
    then the rest by name."""
    first = [X, Y] if {X, Y} <= symbols else []
    return first + sorted(symbols - set(first), key=sp.default_sort_key)


def _generators(exprs) -> tuple[sp.Expr, ...]:
    """The variables, parameters and atoms of ``exprs``, in a fixed order:
    symbols, then cos/sin pairs (cos first), exponentials, logarithms, roots
    and other opaque atoms.  exp atoms sharing an argument up to a rational
    factor share one generator, as do roots of one base."""
    symbols, trig, logs, other = set(), set(), set(), set()
    exps: dict[sp.Expr, set] = {}
    roots: dict[sp.Expr, int] = {}
    for e in exprs:
        symbols |= e.free_symbols
        for f in e.atoms(sp.Function):
            if f.func in (sp.sin, sp.cos):
                trig.add(f.args[0])
            elif f.func is sp.exp:
                c, m = _exp_split(f.args[0])
                exps.setdefault(m, set()).add(c)
            elif f.func is sp.log:
                logs.add(f)
            else:
                other.add(f)
        if e.has(sp.E):
            exps.setdefault(sp.S.One, set()).add(sp.S.One)
        for p in e.atoms(sp.Pow):
            if p.exp.is_Rational and not p.exp.is_Integer:
                roots[p.base] = lcm(roots.get(p.base, 1), int(p.exp.q))
            elif not p.exp.is_Integer:
                other.add(p)
        other |= e.atoms(sp.NumberSymbol) - {sp.E}
        if e.has(sp.I):
            other.add(sp.I)
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
        self.K = FracField(gens, ZZ, lex)
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
        self._related = {i for i, _, _ in self._relations + self._sin_relations}
        self._powers: dict[tuple[int, int], object] = {}
        self._gen_diff: dict[tuple[int, sp.Symbol], FracElement] = {}
        self._tables: dict[sp.Symbol, tuple] = {}

    # -- conversion ---------------------------------------------------------

    def __call__(self, e: sp.Expr) -> FracElement:
        """``e`` as a reduced field element."""
        return self.reduce(self._convert(sp.sympify(e)))

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
            return self._convert(e.base) ** int(e.exp)
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

    def has_relation(self, p) -> bool:
        """True when the polynomial ``p`` holds a generator that a relation
        rewrites: i, a root of an integer, or either member of a cos/sin
        pair."""
        return any(p.degree(i) > 0 for i in self._related)

    def own_sign(self, f: FracElement, *polys) -> FracElement:
        """``f`` with the sign that :func:`normalize` gives it when the
        expression it converts holds the generators of ``polys`` (by default
        those of ``f``).  ``K.new`` keeps the leading coefficient of the
        denominator positive in the lex order of the generators, and the
        field of an expression with fewer symbols can order them
        differently: without ``y``, ``a`` comes before ``x``."""
        used = set()
        for p in polys or (f.numer, f.denom):
            for i, d in enumerate(p.degrees()):
                if d > 0:
                    used |= self.symbols[i].free_symbols
        own = _symbol_order(used)
        if own == [g for g in self.symbols if g in used]:
            return f
        order = [self.symbols.index(s) for s in own] + [
            i for i, g in enumerate(self.symbols) if not g.is_Symbol]
        lead = max(f.denom.itermonoms(), key=lambda m: [m[i] for i in order])
        if f.denom[lead] > 0:
            return f
        return self.K.raw_new(-f.numer, -f.denom)

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

    def diff(self, f: FracElement, var: sp.Symbol) -> FracElement:
        """d/dx or d/dy of ``f`` (parameters are constants), reduced."""
        B, table = self._derivation(var)
        num, den = f.numer, f.denom
        dnum = _poly_sum(self.ring, [num.diff(g) * a for g, a in table]
                         or [self.ring.zero])
        if den.is_ground:
            return self._make(dnum, B * den)
        dden = _poly_sum(self.ring, [den.diff(g) * a for g, a in table]
                         or [self.ring.zero])
        return self._make(dnum * den - num * dden, B * den**2)


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


def sample_point(e: sp.Expr, rng: random.Random) -> dict[sp.Symbol, sp.Rational]:
    """Random rational assignment in [1, 2] for every free symbol of ``e``."""
    return {s: sp.Rational(random_rational(rng)) for s in sorted(e.free_symbols, key=str)}


def is_identically_zero(e: sp.Expr | FracElement,
                        seed: int = DEFAULT_SEED) -> ZeroVerdict:
    """Sound identical-vanishing test.

    ``e`` is an expression or an element of a :class:`RationalField`.  The
    reduced numerator decides whenever it can: 0 is zero, and a nonzero
    numerator without atoms is nonzero.  A nonzero numerator holding atoms is
    evaluated at ``SAMPLE_COUNT`` random non-singular rational points, which
    distinguishes NonZero from Unknown.
    """
    if isinstance(e, FracElement):
        field = _field_on(e.field.symbols)
        f = field.reduce(e)
    else:
        e = sp.sympify(e)
        if e.has(*_NONFINITE):
            return ZeroVerdict("unknown", "expression is undefined")
        field = field_for(e)
        try:
            f = field(e)
        except ZeroDivisionError:
            return ZeroVerdict("unknown", "denominator vanishes identically")
    if not f.numer:
        return ZeroVerdict("zero", "canonical form vanishes")
    if field.is_exact(f.numer):
        return ZeroVerdict("nonzero", "canonical form is a nonzero rational function")
    num = to_expr(f.numer)
    run = compile_numeric(num, SAMPLE_PRECISION)
    tol = mpmath.mpf(ZERO_THRESHOLD.numerator) / mpmath.mpf(ZERO_THRESHOLD.denominator)
    rng = random.Random(seed)
    tested = 0
    for _ in range(SAMPLE_COUNT * 4):
        if tested >= SAMPLE_COUNT:
            break
        point = sample_point(num, rng)
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


def substitute(e: sp.Expr, bindings: Mapping[sp.Symbol | str, sp.Expr]) -> sp.Expr:
    """Simultaneous substitution followed by normalization."""
    subs = {sp.Symbol(k) if isinstance(k, str) else k: sp.sympify(v)
            for k, v in bindings.items()}
    result = sp.sympify(e).subs(subs, simultaneous=True)
    result = normalize(result)
    if result.has(sp.zoo, sp.nan, sp.oo, -sp.oo):
        raise DegenerateSubstitution(
            "substitution produced an identically-zero denominator")
    return result


def evaluate_numeric(e: sp.Expr, point: Mapping[sp.Symbol | str, object],
                     precision: int = SAMPLE_PRECISION) -> mpmath.mpf:
    """Evaluate at an exact rational point to ``precision`` decimal digits.

    Odd roots of negative reals take the real branch; even roots of negative
    radicands raise EvenRootOfNegative; denominators below the underflow guard
    raise PoleAtPoint instead of returning garbage.
    """
    if precision < 30:
        raise ValueError("precision must be at least 30 digits")
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


def _note(v: mpmath.mpf, scale: list) -> mpmath.mpf:
    a = abs(v)
    if a > scale[0]:
        scale[0] = a
    return v


def compile_numeric(e: sp.Expr, precision: int = SAMPLE_PRECISION):
    """Compile ``e`` once into nested closures, for evaluation at many points.

    The result ``run(point, scale)`` evaluates ``e`` at ``point``, a mapping
    from symbols to values made by :func:`numeric_point`, and must be called
    under ``mpmath.workdps(precision)``.  It keeps in ``scale[0]`` the
    largest magnitude of any intermediate value, which bounds the rounding
    error.  Constants are computed here, at ``precision`` digits; sums go
    through ``fsum`` and products multiply left to right.  Odd roots of
    negative reals take the real branch; an even root of a negative radicand
    raises EvenRootOfNegative, and a negative power, root or logarithm of a
    value below the underflow guard raises PoleAtPoint.
    """
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


def _to_fraction(v: object) -> Fraction:
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, sp.Rational):
        return Fraction(int(v.p), int(v.q))
    return Fraction(str(v))
