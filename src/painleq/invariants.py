"""Pseudoinvariant pipeline for cubic-in-derivative second-order ODEs.

Every quantity is computed from (P, Q, R, S) by the fully expanded closed
formula of the A branch, which divides by A.  The B branch, which divides by
B, is the same formula on the x <-> y dual: as x(y), y'' = P + 3Q y' +
3R y'^2 + S y'^3 has coefficients (-S, -R, -Q, -P), and A, B become -B, -A.
So a B-branch value is the A-branch formula * on the dual frame (-S, -R, -Q,
-P, -B, -A, d/dy, d/dx; N kept, Omega negated) times a fixed sign (``_DUAL``):
B = -A*, G = H*, N = N*, M = M*, Omega = -Omega*, Theta = Theta*, and with
the components exchanged omega = -omega*, phi = phi*, gamma = -gamma*; for a
weighted scalar the sign is (-1)**weight.  With A and B both nonzero, N, M,
Omega and Theta are evaluated on both branches and asserted to agree when
F = 0; phi, omega and gamma take A unless only B applies.  Theta (and all
after it) is a pseudoinvariant only where N = 0, which is where the first
theorem uses it.  The formulas run on elements of the coefficients'
RationalField; each stage property returns its reduced value as an
expression, and :meth:`InvariantPipeline.value` gives the field value.

The weight-0 invariants that the theorems read are formulas of the stages
in ``INVARIANTS``, and :meth:`InvariantPipeline.verdict` zero-tests a named
value, each once per pipeline however many theorems read it.

Dependency order: alpha -> F -> N -> phi -> {M, omega} -> Theta -> theta ->
L -> L1 -> {W, V}; and N, Omega, phi -> gamma -> xi -> Gamma.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Literal

import sympy as sp

# normalize stays a module global although nothing here calls it:
# perfbench/tracing.py replaces it in this module by name
from .exprkernel import (DEFAULT_SEED, X, Y, ZeroVerdict, field_for,
                         is_identically_zero, normalize, to_expr)
from .parsing import OdeCubic

__all__ = [
    "WEIGHTS", "INVARIANTS", "Pseudo", "BothComponentsZero", "GammaUndefined",
    "BranchDisagreement", "InvariantPipeline",
]

WEIGHTS = {
    "alpha": 2, "F": 5, "N": 2, "M": 4, "Omega": 1, "omega": -1, "Theta": -2,
    "theta": -1, "L": -4, "L1": -5, "W": -6, "V": -3, "xi": 3, "Gamma": 4,
}

# stage -> (partner, sign): its B-branch value is sign times the partner's
# formula on the dual frame, which reads the stored stage the same way
_DUAL = {"A": ("B", -1), "B": ("A", -1), "G": ("H", 1), "H": ("G", 1),
         "N": ("N", 1), "phi": ("phi", 1), "M": ("M", 1),
         "Omega": ("Omega", -1), "omega": ("omega", -1),
         "Theta": ("Theta", 1), "gamma": ("gamma", -1)}


class BothComponentsZero(ValueError):
    """A and B both vanish identically; no branch formula applies."""


class GammaUndefined(ValueError):
    """Gamma divides by M, which vanishes identically."""


class BranchDisagreement(AssertionError):
    """A-branch and B-branch values of a pseudoinvariant differ with F = 0."""


@dataclass(frozen=True)
class Pseudo:
    """A scalar or two-component pseudo-object with its integer weight."""

    name: str
    weight: int
    components: tuple[sp.Expr, ...]

    @property
    def expr(self) -> sp.Expr:
        if len(self.components) != 1:
            raise ValueError(f"{self.name} is not a scalar")
        return self.components[0]


def _dot(u, w):
    return u[0] * w[0] + u[1] * w[1]


# name -> formula(value, field) of a reduced weight-0 invariant: Theorem 1's
# two, and Theorem 2's with J = (4 + 10*I6 - 60*I3)/(50*sqrt(I9))
INVARIANTS = {
    "L1^4/L^5": lambda v, F: F.reduce(v("L1")**4 / v("L")**5),
    "Theta^2/L": lambda v, F: F.reduce(v("Theta")**2 / v("L")),
    "I1": lambda v, F: F.reduce(v("M") / v("N")**2),
    "I3": lambda v, F: F.reduce(v("Gamma") / v("M")),
    "grad I3": lambda v, F: (F.diff(v("I3"), X), F.diff(v("I3"), Y)),
    "I6": lambda v, F: F.reduce(_dot(v("grad I3"), (v("B"), -v("A"))) / v("N")),
    "I9": lambda v, F: F.reduce(_dot(v("grad I3"), v("xi"))**2 / v("N")**3),
    "J^2": lambda v, F: F.reduce(
        (4 + 10 * v("I6") - 60 * v("I3"))**2 / (2500 * v("I9"))),
}


class _Frame:
    """The equation as the A-branch formulas read it: itself on branch A,
    its x <-> y dual on B, where each negated value remembers what it
    negates, so that d(-f) = -d(f) reuses the pipeline's memo of d(f)."""

    def __init__(self, pipe: InvariantPipeline, branch: Literal["A", "B"]):
        self.pipe, self.branch, self.dual = pipe, branch, branch == "B"
        x, y = (Y, X) if self.dual else (X, Y)
        self.dx, self.dy = (lambda f: self._d(f, x)), (lambda f: self._d(f, y))
        self._negated: dict[int, tuple] = {}  # id(-f) -> (-f, f), kept alive

    def neg(self, f):
        """-f, remembered; 0 stays the same object, with its memo."""
        if not f:
            return f
        g = -f
        self._negated[id(g)] = (g, f)
        return g

    def _d(self, f, var):
        """d/var of ``f``, once per pipeline; the memo keeps ``f`` alive."""
        negated = self._negated.get(id(f))
        f = f if negated is None else negated[1]
        memo = self.pipe._partials
        hit = memo.get((id(f), var))
        if hit is None or hit[0] is not f:
            hit = memo[id(f), var] = (f, self.pipe.field.diff(f, var))
        return hit[1] if negated is None else self.neg(hit[1])

    def dxy(self, f):
        """The mixed derivative, d/dy taken first on either frame."""
        return self._d(self._d(f, Y), X)

    def seen(self, name: str, v):
        """The partner's value ``v`` as stage ``name`` of this frame."""
        if not self.dual:
            return v
        sign = self.neg if _DUAL[name][1] < 0 else (lambda f: f)
        return tuple(map(sign, v[::-1])) if isinstance(v, tuple) else sign(v)

    @cached_property
    def pqrs(self):
        if self.dual:
            return tuple(map(self.neg, self.pipe._frames["A"].pqrs[::-1]))
        ode = self.pipe.ode
        return tuple(self.pipe.field(c) for c in (ode.P, ode.Q, ode.R, ode.S))

    def value(self, name: str):
        """Stored stage ``name`` of this frame (omega on its own branch)."""
        if name == "omega":
            return self.seen(name, self.pipe._omega_value(self.branch))
        return self.seen(name, self.pipe.value(_DUAL[name][0] if self.dual
                                               else name))

    def view(self):
        return (*self.pqrs, self.value("A"), self.value("B"), self.dx, self.dy)

    # -- the A-branch formulas ---------------------------------------------

    def A(self):
        P, Q, R, S = self.pqrs
        dx, dy = self.dx, self.dy
        return (dy(dy(P)) - 2 * self.dxy(Q) + dx(dx(R))
                + 2 * P * dx(S) + S * dx(P) - 3 * P * dy(R) - 3 * R * dy(P)
                - 3 * Q * dx(R) + 6 * Q * dy(Q))

    def H(self):
        P, Q, R, _, A, B, dx, dy = self.view()
        return (-A * dy(A) - 3 * B * dx(A) + 4 * A * dx(B)
                - 3 * P * B**2 + 6 * Q * A * B - 3 * R * A**2)

    def N(self):
        return -self.value("H") / (3 * self.value("A"))

    def phi(self):
        P, Q, R, _, A, B, dx, dy = self.view()
        phi1 = -sp.Rational(3, 5) * (B * P + dx(A)) / A + sp.Rational(3, 5) * Q
        phi2 = (sp.Rational(3, 5) * B * (B * P + dx(A)) / A**2
                - sp.Rational(3, 5) * (dx(B) + dy(A) + 3 * B * Q) / A
                + sp.Rational(6, 5) * R)
        return phi1, phi2

    def M(self):
        P, Q, R, _, A, B, dx, dy = self.view()
        N = self.value("N")
        return (-sp.Rational(12, 5) * B * N * (B * P + dx(A)) / A + B * dx(N)
                + sp.Rational(24, 5) * B * N * Q + sp.Rational(6, 5) * N * dx(B)
                + sp.Rational(6, 5) * N * dy(A) - A * dy(N)
                - sp.Rational(12, 5) * A * N * R)

    def Omega(self):
        P, Q, R, _, A, B, dx, dy = self.view()
        return (2 * B * dx(A) * (B * P + dx(A)) / A**3
                - (2 * dx(B) + 3 * B * Q) * dx(A) / A**2
                + (dy(A) - 2 * dx(B)) * B * P / A**2
                - (B * dx(dx(A)) + B**2 * dx(P)) / A**2
                + dx(dx(B)) / A
                + (3 * dx(B) * Q + 3 * B * dx(Q) - dy(B) * P - B * dy(P)) / A
                + dy(Q) - 2 * dx(R))

    def omega(self):
        """omega_1 by its closed formula, and omega_2 = omega_1*B/A."""
        P, Q, R, _, A, B, dx, dy = self.view()
        red = self.pipe.field.reduce
        om1 = red(
            sp.Rational(12, 5) * P * R / A - sp.Rational(54, 25) * Q**2 / A
            - dy(P) / A + sp.Rational(6, 5) * dx(Q) / A
            - (P * dy(A) + B * dx(P) + dx(dx(A))) / (5 * A**2)
            - sp.Rational(2, 5) * dx(B) * P / A**2
            + (3 * Q * dx(A) - 12 * P * B * Q) / (25 * A**2)
            + (6 * B**2 * P**2 + 12 * B * P * dx(A) + 6 * dx(A)**2) / (25 * A**3))
        return om1, red(om1 * B / A)

    def Theta(self):
        return self.value("omega")[0] / self.value("A")

    def gamma(self):
        P, Q, R, _, A, B, dx, dy = self.view()
        N, Om = self.value("N"), self.value("Omega")
        g1 = (-sp.Rational(6, 5) * B * N * (B * P + dx(A)) / A**2
              + sp.Rational(18, 5) * N * B * Q / A
              + sp.Rational(6, 5) * N * (dx(B) + dy(A)) / A
              - dy(N) - sp.Rational(12, 5) * N * R - 2 * Om * B)
        g2 = (-sp.Rational(6, 5) * N * (B * P + dx(A)) / A + dx(N)
              + sp.Rational(6, 5) * N * Q + 2 * Om * A)
        return g1, g2


class InvariantPipeline:
    """Lazily computes and caches the whole pseudoinvariant chain for one ODE.

    The chain is computed in the :class:`~painleq.exprkernel.RationalField`
    of the coefficients, which are converted into it once.  Each stage
    evaluates its formula on field elements, keeps the reduced result, read
    by :meth:`value` as an ``INVARIANTS`` value is, and returns it as an
    expression.  Zero tests share one seed for reproducibility.  Non-fatal
    diagnostics (branch agreement checked only numerically, etc.)
    accumulate in ``warnings``.
    """

    def __init__(self, ode: OdeCubic, seed: int = DEFAULT_SEED):
        self.ode = ode
        self.seed = seed
        self.warnings: list[str] = []
        self.field = field_for(ode.P, ode.Q, ode.R, ode.S)
        self._values: dict[str, object] = {}
        self._verdicts: dict[str, ZeroVerdict] = {}
        self._omega_cache: dict[str, tuple] = {}
        self._partials: dict[tuple[int, sp.Symbol], tuple] = {}
        self._frames = {b: _Frame(self, b) for b in ("A", "B")}
        self._dx, self._dy = self._frames["A"].dx, self._frames["A"].dy

    def zero_verdict(self, e) -> ZeroVerdict:
        return is_identically_zero(e, seed=self.seed)

    def value(self, name: str):
        """Reduced field value of stage or invariant ``name`` (a pair for
        phi, omega, theta, gamma, xi and grad I3), computed on first use."""
        if name not in self._values:
            if name in INVARIANTS:
                self._values[name] = INVARIANTS[name](self.value, self.field)
            else:
                getattr(self, name)
        return self._values[name]

    def verdict(self, name: str) -> ZeroVerdict:
        """The zero test of ``value(name)``, made once per pipeline."""
        if name not in self._verdicts:
            self._verdicts[name] = self.zero_verdict(self.value(name))
        return self._verdicts[name]

    def _out(self, name: str, *parts):
        """Keep the reduced field value of a stage; return it as expressions."""
        vals = tuple(self.field.reduce(p) for p in parts)
        self._values[name] = vals if len(vals) > 1 else vals[0]
        exprs = tuple(to_expr(v) for v in vals)
        return exprs if len(exprs) > 1 else exprs[0]

    def _on(self, branch: str, name: str):
        """Stage ``name`` by its A-branch formula on ``branch`` ("both": A)."""
        fr = self._frames["B" if branch == "B" else "A"]
        return fr.seen(name, getattr(fr, _DUAL[name][0] if fr.dual else name)())

    def _dual(self, name: str):
        """Stage ``name``; on both branches, asserted to agree if F = 0."""
        br = self.branch  # raises BothComponentsZero when degenerate
        if br != "both":
            return self._on(br, name)
        va, vb = self._on("A", name), self._on("B", name)
        # equal fractions agree without a zero test of their difference
        if self.verdict("F5").is_zero and va != vb:
            diff = self.zero_verdict(va - vb)
            if diff.is_nonzero:
                raise BranchDisagreement(
                    f"{name}: A-branch and B-branch values differ although F = 0")
            if diff.is_unknown:
                self.warnings.append(
                    f"{name}: branch agreement not provable symbolically "
                    f"({diff.note})")
        return va

    # -- alpha ------------------------------------------------------------

    @cached_property
    def A(self) -> sp.Expr:
        return self._out("A", self._on("A", "A"))

    @cached_property
    def B(self) -> sp.Expr:
        return self._out("B", self._on("B", "B"))

    @cached_property
    def branch(self) -> Literal["A", "B", "both"]:
        """The formulas that apply, witnessed by verdict("A"), verdict("B")."""
        a_zero, b_zero = self.verdict("A").is_zero, self.verdict("B").is_zero
        if a_zero and b_zero:
            raise BothComponentsZero("alpha vanishes identically (A = 0 and B = 0)")
        return "B" if a_zero else "A" if b_zero else "both"

    # -- F ----------------------------------------------------------------

    @cached_property
    def G(self) -> sp.Expr:
        return self._out("G", self._on("B", "G"))

    @cached_property
    def H(self) -> sp.Expr:
        return self._out("H", self._on("A", "H"))

    @cached_property
    def F5(self) -> sp.Expr:
        """3*F^5; the F = 0 test is decided on A*G + B*H without a fifth root."""
        v = self.value
        return self._out("F5", (v("A") * v("G") + v("B") * v("H")) / 3)

    # -- N, phi, M, Omega -------------------------------------------------

    @cached_property
    def N(self) -> sp.Expr:
        return self._out("N", self._dual("N"))

    @cached_property
    def phi(self) -> tuple[sp.Expr, sp.Expr]:
        return self._out("phi", *self._on(self.branch, "phi"))

    @cached_property
    def M(self) -> sp.Expr:
        return self._out("M", self._dual("M"))

    @cached_property
    def Omega(self) -> sp.Expr:
        return self._out("Omega", self._dual("Omega"))

    # -- omega, Theta, theta ----------------------------------------------

    @cached_property
    def omega(self) -> tuple[sp.Expr, sp.Expr]:
        which = "B" if self.branch == "B" else "A"
        self._values["omega"] = self._omega_value(which)
        return self._omega_cache[which][1]

    def _omega_pair(self, which: str) -> tuple[sp.Expr, sp.Expr]:
        """The covector omega on the given branch.  Only the component
        paired with the branch has a closed formula; the other follows from
        omega_1/A = omega_2/B, which the source's closed cross-component
        displays fail."""
        if which not in self._omega_cache:
            pair = self._on(which, "omega")
            self._omega_cache[which] = (pair, tuple(to_expr(v) for v in pair))
        return self._omega_cache[which][1]

    def _omega_value(self, which: str):
        self._omega_pair(which)
        return self._omega_cache[which][0]

    @cached_property
    def Theta(self) -> sp.Expr:
        return self._out("Theta", self._dual("Theta"))

    @cached_property
    def theta(self) -> tuple[sp.Expr, sp.Expr]:
        phi1, phi2 = self.value("phi")
        Th = self.value("Theta")
        return self._out("theta", self._dy(Th) - 2 * phi2 * Th,
                         -self._dx(Th) + 2 * phi1 * Th)

    # -- L chain -----------------------------------------------------------

    @cached_property
    def L(self) -> sp.Expr:
        P, Q, R, S = self._frames["A"].pqrs
        t1, t2 = self.value("theta")
        Th = self.value("Theta")
        _dx, _dy = self._dx, self._dy
        # The three derivative terms carry the opposite sign from the source
        # display; as printed they break the weight -4 transformation law on
        # any instance where theta is not constant.
        return self._out("L",
            t1 * t2 * (_dy(t2) - _dx(t1)) - t2**2 * _dy(t1) + t1**2 * _dx(t2)
            - P * t1**3 - 3 * Q * t1**2 * t2 - 3 * R * t1 * t2**2 - S * t2**3
            - Th**2 / 2)

    @cached_property
    def L1(self) -> sp.Expr:
        t1, t2 = self.value("theta")
        phi1, phi2 = self.value("phi")
        L = self.value("L")
        return self._out("L1", self._dx(L) * t1 + self._dy(L) * t2
                         - 4 * L * (phi1 * t1 + phi2 * t2))

    @cached_property
    def W(self) -> sp.Expr:
        t1, t2 = self.value("theta")
        phi1, phi2 = self.value("phi")
        L1 = self.value("L1")
        return self._out("W", self._dx(L1) * t1 + self._dy(L1) * t2
                         - 5 * L1 * (phi1 * t1 + phi2 * t2))

    @cached_property
    def V(self) -> sp.Expr:
        phi1, phi2 = self.value("phi")
        A, B, L1 = self.value("A"), self.value("B"), self.value("L1")
        return self._out("V", self._dx(L1) * B - self._dy(L1) * A
                         - 5 * L1 * (B * phi1 - A * phi2))

    # -- gamma, xi, Gamma --------------------------------------------------

    @cached_property
    def gamma(self) -> tuple[sp.Expr, sp.Expr]:
        return self._out("gamma", *self._on(self.branch, "gamma"))

    @cached_property
    def xi(self) -> tuple[sp.Expr, sp.Expr]:
        g1, g2 = self.value("gamma")
        A, B, Om = self.value("A"), self.value("B"), self.value("Omega")
        return self._out("xi", -2 * Om * B - g1, 2 * Om * A - g2)

    @cached_property
    def Gamma(self) -> sp.Expr:
        if self.verdict("M").is_zero:
            raise GammaUndefined("M vanishes identically; Gamma divides by M")
        P, Q, R, S = self._frames["A"].pqrs
        g1, g2 = self.value("gamma")
        _dx, _dy = self._dx, self._dy
        return self._out("Gamma",
            (g1 * g2 * (_dx(g1) - _dy(g2)) + g2**2 * _dy(g1) - g1**2 * _dx(g2)
             + P * g1**3 + 3 * Q * g1**2 * g2 + 3 * R * g1 * g2**2 + S * g2**3)
            / self.value("M"))

    def pseudo(self, name: str) -> Pseudo:
        value = (self.B, -self.A) if name == "alpha" else getattr(self, name)
        return Pseudo(name, WEIGHTS[name],
                      value if isinstance(value, tuple) else (value,))
