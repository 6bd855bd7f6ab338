"""Expression grammar and extraction of the cubic-in-derivative coefficients.

Grammar (whitespace-insensitive)::

    expr     := term (('+' | '-') term)*
    term     := unary (('*' | '/') unary)*
    unary    := '-' unary | power
    power    := atom ('^' exponent)?          # right-associative, binds
    exponent := INT | '(' '-'? INT ('/' INT)? ')'   # tighter than unary minus
    atom     := NUMBER | IDENT | FUNC '(' expr ')' | '(' expr ')'

Identifiers are the variables ``x``, ``y``, ``p`` or single-letter symbolic
parameters; the function names are ``sin``, ``cos``, ``exp``, ``ln``.
Exponents on input must be integers; parenthesized literal rationals are also
accepted so that emitted maps (which carry fifth, sixth and tenth roots)
re-parse under the same grammar.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import sympy as sp
from sympy.printing.str import StrPrinter

# normalize stays a module global: perfbench/tracing.py replaces it here by
# module attribute
from .exprkernel import _NONFINITE, P, X, Y, field_for, normalize, to_expr

__all__ = [
    "OdeCubic", "ExprSyntaxError", "UnknownFunction", "NonIntegerExponent",
    "NotCubicInDerivative", "parse_expression", "extract_cubic_coefficients",
    "to_grammar",
]

FUNCTIONS = {"sin": sp.sin, "cos": sp.cos, "exp": sp.exp, "ln": sp.log}


class ExprSyntaxError(ValueError):
    """Malformed input; ``offset`` is the byte offset of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class UnknownFunction(ExprSyntaxError):
    pass


class NonIntegerExponent(ExprSyntaxError):
    pass


class NotCubicInDerivative(ValueError):
    """Right-hand side is not polynomial of degree <= 3 in y'."""


@dataclass(frozen=True)
class OdeCubic:
    """Coefficients of y'' = P + 3*Q*y' + 3*R*y'^2 + S*y'^3.

    Q and R carry the factor-3 convention already divided out: they are one
    third of the raw y' and y'^2 coefficients.
    """

    P: sp.Expr
    Q: sp.Expr
    R: sp.Expr
    S: sp.Expr

    def __post_init__(self):
        for name in ("P", "Q", "R", "S"):
            if getattr(self, name).has(P):
                raise ValueError(f"coefficient {name} contains the symbol p")

    def rhs(self, deriv: sp.Symbol = P) -> sp.Expr:
        """Reassembled right-hand side as a polynomial in ``deriv``."""
        return self.P + 3 * self.Q * deriv + 3 * self.R * deriv**2 + self.S * deriv**3

    def free_parameters(self) -> set[sp.Symbol]:
        syms = set().union(*(c.free_symbols for c in (self.P, self.Q, self.R, self.S)))
        return syms - {X, Y}


_TOKEN = re.compile(r"""
    (?P<ws>\s+)
  | (?P<num>\d+(?:\.\d+)?)
  | (?P<ident>[A-Za-z]+)
  | (?P<op>[-+*/^()])
""", re.VERBOSE)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise ExprSyntaxError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, value: str):
        kind, val, off = self.peek()
        if val != value:
            raise ExprSyntaxError(f"expected {value!r}, found {val or 'end of input'!r}", off)
        return self.next()

    def parse(self) -> sp.Expr:
        e = self.expr()
        kind, val, off = self.peek()
        if kind != "end":
            raise ExprSyntaxError(f"unexpected trailing input {val!r}", off)
        return e

    def expr(self) -> sp.Expr:
        e = self.term()
        while self.peek()[1] in ("+", "-"):
            op = self.next()[1]
            rhs = self.term()
            e = e + rhs if op == "+" else e - rhs
        return e

    def term(self) -> sp.Expr:
        e = self.unary()
        while self.peek()[1] in ("*", "/"):
            op = self.next()[1]
            rhs = self.unary()
            e = e * rhs if op == "*" else e / rhs
        return e

    def unary(self) -> sp.Expr:
        if self.peek()[1] == "-":
            self.next()
            return -self.unary()
        return self.power()

    def power(self) -> sp.Expr:
        base = self.atom()
        if self.peek()[1] == "^":
            self.next()
            return base ** self.exponent()
        return base

    def exponent(self) -> sp.Rational:
        kind, val, off = self.peek()
        if val == "(":
            self.next()
            sign = 1
            if self.peek()[1] == "-":
                self.next()
                sign = -1
            num = self._int_literal()
            den = 1
            if self.peek()[1] == "/":
                self.next()
                den = self._int_literal()
            self.expect(")")
            return sp.Rational(sign * num, den)
        if kind == "num":
            if "." in val:
                raise NonIntegerExponent("exponent must be an integer or literal rational", off)
            self.next()
            return sp.Integer(int(val))
        if val == "-":
            self.next()
            return -self.exponent()
        raise NonIntegerExponent("exponent must be an integer or literal rational", off)

    def _int_literal(self) -> int:
        kind, val, off = self.peek()
        if kind != "num" or "." in val:
            raise NonIntegerExponent("exponent must be an integer or literal rational", off)
        self.next()
        return int(val)

    def atom(self) -> sp.Expr:
        kind, val, off = self.next()
        if kind == "num":
            if "." in val:
                intpart, frac = val.split(".")
                return sp.Rational(int(intpart + frac), 10 ** len(frac))
            return sp.Integer(int(val))
        if kind == "ident":
            if len(val) == 1:
                return sp.Symbol(val)
            if val not in FUNCTIONS:
                raise UnknownFunction(f"unknown function {val!r}", off)
            self.expect("(")
            arg = self.expr()
            self.expect(")")
            return FUNCTIONS[val](arg)
        if val == "(":
            e = self.expr()
            self.expect(")")
            return e
        raise ExprSyntaxError(f"unexpected token {val or 'end of input'!r}", off)


def parse_expression(text: str) -> sp.Expr:
    """Parse ``text`` against the grammar above into an expression."""
    return _Parser(text).parse()


class _GrammarPrinter(StrPrinter):
    """Prints expressions back in the input grammar (^ powers, ln)."""

    def _print_Pow(self, expr, rational=False):
        base, ex = expr.base, expr.exp
        base_s = self.parenthesize(base, 100)
        if ex.is_Integer:
            if ex < 0:
                return f"1/{base_s}^{-ex}" if ex != -1 else f"1/{base_s}"
            return f"{base_s}^{ex}"
        if ex.is_Rational:
            return f"{base_s}^({ex.p}/{ex.q})"
        return f"{base_s}^({self._print(ex)})"

    def _print_log(self, expr):
        return f"ln({self._print(expr.args[0])})"

    def _print_ExpBase(self, expr):
        return f"exp({self._print(expr.args[0])})"


def to_grammar(e: sp.Expr) -> str:
    """Render ``e`` as a string that re-parses under :func:`parse_expression`."""
    return _GrammarPrinter().doprint(sp.sympify(e))


def extract_cubic_coefficients(rhs: sp.Expr) -> OdeCubic:
    """Split a right-hand side in x, y, p into the coefficient quadruple.

    Returns P = coeff(p^0), Q = coeff(p^1)/3, R = coeff(p^2)/3, S = coeff(p^3),
    each normalized.  Raises NotCubicInDerivative when the degree in p exceeds
    3, when p occurs in a denominator, or when p sits inside an atom.

    The right-hand side is normalized once; its reduced numerator is split
    by degree in p inside its field, and each part is divided by the
    denominator there (and by 3 for Q and R).
    """
    rhs = normalize(sp.sympify(rhs))
    for atom in rhs.atoms(sp.sin, sp.cos, sp.exp, sp.log):
        if atom.has(P):
            raise NotCubicInDerivative(f"derivative inside transcendental atom {atom}")
    if rhs.has(*_NONFINITE):
        # normalize leaves undefined input as it is, and no field holds it
        if rhs.has(P):
            raise NotCubicInDerivative("right-hand side is undefined")
        return OdeCubic(P=rhs, Q=sp.S.Zero, R=sp.S.Zero, S=sp.S.Zero)
    field = field_for(rhs)
    f = field(rhs)
    num, den = f.numer, f.denom
    holding = [i for i, g in enumerate(field.symbols) if g.has(P)]
    if any(den.degree(i) > 0 for i in holding):
        raise NotCubicInDerivative("derivative occurs in a denominator")
    for i in holding:
        if field.symbols[i] != P and num.degree(i) > 0:
            raise NotCubicInDerivative(
                f"derivative inside the atom {field.symbols[i]}")
    if P not in field.symbols:
        parts = [num] + [field.ring.zero] * 3
    else:
        i = field.symbols.index(P)
        if num.degree(i) > 3:
            raise NotCubicInDerivative(
                f"degree {num.degree(i)} in the derivative exceeds 3")
        parts = [num.coeff_wrt(i, k) for k in range(4)]
    return OdeCubic(*(_coefficient(field, rhs, c, den, d)
                      for c, d in zip(parts, (1, 3, 3, 1))))


def _coefficient(field, rhs: sp.Expr, part, den, d: int) -> sp.Expr:
    """``part/(d*den)`` as an expression, printed as normalizing each
    coefficient ``c`` over the denominator ``den`` of ``rhs`` prints it
    (``normalize(c/den)``, and that over 3 again for Q and R, with ``d`` = 3).

    ``normalize`` keeps the leading coefficient of a denominator positive in
    the order of the expression's own generators (see
    ``RationalField.own_sign``), and leaves the denominator of ``1/den`` as
    it stands when no relation rewrites it."""
    if d == 1 and len(den) > 1 and part in (1, -1) \
            and not field.has_relation(den):
        den_expr = rhs.as_numer_denom()[1]
        if field(den_expr).numer == part * den:  # c is 1
            return 1 / den_expr
    f = field.K.new(part, den * d)
    return to_expr(field.own_sign(f, *((part, den) if d == 1 else ())))
