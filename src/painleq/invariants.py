"""Pseudoinvariant pipeline for cubic-in-derivative second-order ODEs.

Every quantity is computed from the coefficient quadruple (P, Q, R, S) by the
fully expanded closed formulas; dual A-branch / B-branch formulas exist for
N, M, Omega, omega, phi and gamma.  N, M and Omega agree across branches on
equations satisfying F = 0; Theta (and everything downstream of it) is only
a well-defined pseudoinvariant on the subclass with N = 0, which is where
the first theorem uses it.  Weight bookkeeping follows the fixed assignment
in ``WEIGHTS``.

The formulas are evaluated on elements of the coefficients'
:class:`~painleq.exprkernel.RationalField`; each stage property returns its
reduced value as an expression, and :meth:`InvariantPipeline.value` gives
the field value itself.

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
    "WEIGHTS", "Pseudo", "BranchChoice", "BothComponentsZero", "GammaUndefined",
    "BranchDisagreement", "InvariantPipeline", "alpha_field", "f_condition",
    "pseudoinvariant_N", "phi_fields", "pseudoinvariant_M",
    "pseudoinvariant_Omega", "omega_theta", "L_chain", "xi_gamma_Gamma",
]

WEIGHTS = {
    "alpha": 2, "F": 5, "N": 2, "M": 4, "Omega": 1, "omega": -1, "Theta": -2,
    "theta": -1, "L": -4, "L1": -5, "W": -6, "V": -3, "xi": 3, "Gamma": 4,
}

Half = sp.Rational(1, 2)


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

    def __iter__(self):
        return iter(self.components)


@dataclass(frozen=True)
class BranchChoice:
    """Which of the dual formula families applies, with zero-test witnesses."""

    choice: Literal["A", "B", "both"]
    a_verdict: ZeroVerdict
    b_verdict: ZeroVerdict

    @property
    def primary(self) -> Literal["A", "B"]:
        return "B" if self.choice == "B" else "A"


class InvariantPipeline:
    """Lazily computes and caches the whole pseudoinvariant chain for one ODE.

    The chain is computed in the :class:`~painleq.exprkernel.RationalField`
    of the coefficients, which are converted into it once.  Each stage
    evaluates its formula on field elements, keeps the reduced result (read
    it with :meth:`value`) and returns it as an expression.  Zero tests share
    one seed for reproducibility.  Non-fatal diagnostics (branch agreement
    checked only numerically, etc.) accumulate in ``warnings``.
    """

    def __init__(self, ode: OdeCubic, seed: int = DEFAULT_SEED):
        self.ode = ode
        self.seed = seed
        self.warnings: list[str] = []
        self.field = field_for(ode.P, ode.Q, ode.R, ode.S)
        self._values: dict[str, object] = {}
        self._omega_cache: dict[str, tuple] = {}
        self._partials: dict[tuple[int, sp.Symbol], tuple] = {}

    def zero_verdict(self, e) -> ZeroVerdict:
        return is_identically_zero(e, seed=self.seed)

    def value(self, name: str):
        """Reduced field value of stage ``name`` (a pair for phi, omega,
        theta, gamma and xi), computed through its property on first use."""
        if name not in self._values:
            getattr(self, name)
        return self._values[name]

    def _out(self, name: str, *parts):
        """Keep the reduced field value of a stage; return it as expressions."""
        vals = tuple(self.field.reduce(p) for p in parts)
        self._values[name] = vals if len(vals) > 1 else vals[0]
        exprs = tuple(to_expr(v) for v in vals)
        return exprs if len(exprs) > 1 else exprs[0]

    @cached_property
    def _pqrs(self):
        ode = self.ode
        return tuple(self.field(c) for c in (ode.P, ode.Q, ode.R, ode.S))

    def _partial(self, f, var):
        """d/var of ``f``, computed once per pipeline; the memo keeps ``f``
        alive, so its id cannot be reused by another value."""
        hit = self._partials.get((id(f), var))
        if hit is None or hit[0] is not f:
            hit = (f, self.field.diff(f, var))
            self._partials[(id(f), var)] = hit
        return hit[1]

    def _dx(self, f):
        return self._partial(f, X)

    def _dy(self, f):
        return self._partial(f, Y)

    # -- alpha ------------------------------------------------------------

    @cached_property
    def A(self) -> sp.Expr:
        P, Q, R, S = self._pqrs
        _dx, _dy = self._dx, self._dy
        return self._out("A",
            _dy(_dy(P)) - 2 * _dx(_dy(Q)) + _dx(_dx(R))
            + 2 * P * _dx(S) + S * _dx(P) - 3 * P * _dy(R) - 3 * R * _dy(P)
            - 3 * Q * _dx(R) + 6 * Q * _dy(Q))

    @cached_property
    def B(self) -> sp.Expr:
        P, Q, R, S = self._pqrs
        _dx, _dy = self._dx, self._dy
        return self._out("B",
            _dx(_dx(S)) - 2 * _dx(_dy(R)) + _dy(_dy(Q))
            - 2 * S * _dy(P) - P * _dy(S) + 3 * S * _dx(Q) + 3 * Q * _dx(S)
            + 3 * R * _dy(Q) - 6 * R * _dx(R))

    @cached_property
    def alpha(self) -> Pseudo:
        return Pseudo("alpha", WEIGHTS["alpha"], (self.B, -self.A))

    @cached_property
    def branch(self) -> BranchChoice:
        a_v = self.zero_verdict(self.value("A"))
        b_v = self.zero_verdict(self.value("B"))
        if not a_v.is_zero and not b_v.is_zero:
            return BranchChoice("both", a_v, b_v)
        if not a_v.is_zero:
            return BranchChoice("A", a_v, b_v)
        if not b_v.is_zero:
            return BranchChoice("B", a_v, b_v)
        raise BothComponentsZero("alpha vanishes identically (A = 0 and B = 0)")

    # -- F ----------------------------------------------------------------

    @cached_property
    def G(self) -> sp.Expr:
        A, B = self.value("A"), self.value("B")
        _, Q, R, S = self._pqrs
        _dx, _dy = self._dx, self._dy
        return self._out("G", -B * _dx(B) - 3 * A * _dy(B) + 4 * B * _dy(A)
                         + 3 * S * A**2 - 6 * R * B * A + 3 * Q * B**2)

    @cached_property
    def H(self) -> sp.Expr:
        A, B = self.value("A"), self.value("B")
        P, Q, R, _ = self._pqrs
        _dx, _dy = self._dx, self._dy
        return self._out("H", -A * _dy(A) - 3 * B * _dx(A) + 4 * A * _dx(B)
                         - 3 * P * B**2 + 6 * Q * A * B - 3 * R * A**2)

    @cached_property
    def F5(self) -> sp.Expr:
        """3*F^5; the F = 0 test is decided on A*G + B*H without a fifth root."""
        v = self.value
        return self._out("F5", (v("A") * v("G") + v("B") * v("H")) / 3)

    @cached_property
    def f_verdict(self) -> ZeroVerdict:
        return self.zero_verdict(self.value("F5"))

    # -- N, phi -----------------------------------------------------------

    def _require_branch(self) -> BranchChoice:
        return self.branch  # raises BothComponentsZero when degenerate

    def _dual(self, name: str, value_a, value_b):
        """Evaluate dual formulas per branch policy; assert agreement on both."""
        br = self._require_branch()
        if br.choice == "A":
            return value_a()
        if br.choice == "B":
            return value_b()
        va, vb = value_a(), value_b()
        if self.f_verdict.is_zero:
            diff = self.zero_verdict(va - vb)
            if diff.is_nonzero:
                raise BranchDisagreement(
                    f"{name}: A-branch and B-branch values differ although F = 0")
            if diff.is_unknown:
                self.warnings.append(
                    f"{name}: branch agreement not provable symbolically "
                    f"({diff.note})")
        return va

    @cached_property
    def N(self) -> sp.Expr:
        v = self.value
        return self._out("N", self._dual("N",
                                         lambda: -v("H") / (3 * v("A")),
                                         lambda: v("G") / (3 * v("B"))))

    @cached_property
    def phi(self) -> tuple[sp.Expr, sp.Expr]:
        A, B = self.value("A"), self.value("B")
        P, Q, R, S = self._pqrs
        _dx, _dy = self._dx, self._dy
        br = self._require_branch()
        if br.primary == "A":
            phi1 = -sp.Rational(3, 5) * (B * P + _dx(A)) / A + sp.Rational(3, 5) * Q
            phi2 = (sp.Rational(3, 5) * B * (B * P + _dx(A)) / A**2
                    - sp.Rational(3, 5) * (_dx(B) + _dy(A) + 3 * B * Q) / A
                    + sp.Rational(6, 5) * R)
        else:
            phi1 = (-sp.Rational(3, 5) * A * (A * S - _dy(B)) / B**2
                    - sp.Rational(3, 5) * (_dy(A) + _dx(B) - 3 * A * R) / B
                    - sp.Rational(6, 5) * Q)
            phi2 = sp.Rational(3, 5) * (A * S - _dy(B)) / B - sp.Rational(3, 5) * R
        return self._out("phi", phi1, phi2)

    @cached_property
    def M(self) -> sp.Expr:
        return self._out("M", self._dual("M", self._M_a, self._M_b))

    def _M_a(self):
        A, B, N = self.value("A"), self.value("B"), self.value("N")
        P, Q, R, _ = self._pqrs
        _dx, _dy = self._dx, self._dy
        return (-sp.Rational(12, 5) * B * N * (B * P + _dx(A)) / A + B * _dx(N)
                + sp.Rational(24, 5) * B * N * Q + sp.Rational(6, 5) * N * _dx(B)
                + sp.Rational(6, 5) * N * _dy(A) - A * _dy(N)
                - sp.Rational(12, 5) * A * N * R)

    def _M_b(self):
        A, B, N = self.value("A"), self.value("B"), self.value("N")
        _, Q, R, S = self._pqrs
        _dx, _dy = self._dx, self._dy
        return (-sp.Rational(12, 5) * A * N * (A * S - _dy(B)) / B - A * _dy(N)
                + sp.Rational(24, 5) * A * N * R - sp.Rational(6, 5) * N * _dy(A)
                - sp.Rational(6, 5) * N * _dx(B) + B * _dx(N)
                - sp.Rational(12, 5) * B * N * Q)

    @cached_property
    def Omega(self) -> sp.Expr:
        return self._out("Omega", self._dual("Omega", self._Omega_a, self._Omega_b))

    def _Omega_a(self):
        A, B = self.value("A"), self.value("B")
        P, Q, R, _ = self._pqrs
        _dx, _dy = self._dx, self._dy
        return (2 * B * _dx(A) * (B * P + _dx(A)) / A**3
                - (2 * _dx(B) + 3 * B * Q) * _dx(A) / A**2
                + (_dy(A) - 2 * _dx(B)) * B * P / A**2
                - (B * _dx(_dx(A)) + B**2 * _dx(P)) / A**2
                + _dx(_dx(B)) / A
                + (3 * _dx(B) * Q + 3 * B * _dx(Q) - _dy(B) * P - B * _dy(P)) / A
                + _dy(Q) - 2 * _dx(R))

    def _Omega_b(self):
        A, B = self.value("A"), self.value("B")
        _, Q, R, S = self._pqrs
        _dx, _dy = self._dx, self._dy
        # The sign of the second term is fixed relative to the source display;
        # as printed it breaks the x <-> y duality with the A-branch formula
        # and gives a nonzero Omega on pullbacks of Painleve I with Q != 0.
        return (2 * A * _dy(B) * (A * S - _dy(B)) / B**3
                + (2 * _dy(A) - 3 * A * R) * _dy(B) / B**2
                + (_dx(B) - 2 * _dy(A)) * A * S / B**2
                + (A * _dy(_dy(B)) - A**2 * _dy(S)) / B**2
                - _dy(_dy(A)) / B
                + (3 * _dy(A) * R + 3 * A * _dy(R) - _dx(A) * S - A * _dx(S)) / B
                + _dx(R) - 2 * _dy(Q))

    # -- omega, Theta, theta ----------------------------------------------

    @cached_property
    def omega(self) -> tuple[sp.Expr, sp.Expr]:
        which = self._require_branch().primary
        pair = self._omega_pair(which)
        self._values["omega"] = self._omega_cache[which][0]
        return pair

    def _omega_pair(self, which: str) -> tuple[sp.Expr, sp.Expr]:
        """The covector omega on the given branch.

        Only the component paired with the branch (omega_1 on A, omega_2 on
        B) has a closed formula; the other component follows from the
        defining relation omega_1/A = omega_2/B.  The closed cross-component
        displays in the source fail that relation and are not used.
        """
        if which in self._omega_cache:
            return self._omega_cache[which][1]
        A, B = self.value("A"), self.value("B")
        P, Q, R, S = self._pqrs
        _dx, _dy = self._dx, self._dy
        red = self.field.reduce
        if which == "A":
            om1 = red(
                sp.Rational(12, 5) * P * R / A - sp.Rational(54, 25) * Q**2 / A
                - _dy(P) / A + sp.Rational(6, 5) * _dx(Q) / A
                - (P * _dy(A) + B * _dx(P) + _dx(_dx(A))) / (5 * A**2)
                - sp.Rational(2, 5) * _dx(B) * P / A**2
                + (3 * Q * _dx(A) - 12 * P * B * Q) / (25 * A**2)
                + (6 * B**2 * P**2 + 12 * B * P * _dx(A) + 6 * _dx(A)**2) / (25 * A**3))
            pair = (om1, red(om1 * B / A))
        else:
            om2 = red(
                sp.Rational(12, 5) * S * Q / B - sp.Rational(54, 25) * R**2 / B
                + _dx(S) / B - sp.Rational(6, 5) * _dy(R) / B
                + (S * _dx(B) + A * _dy(S) - _dy(_dy(B))) / (5 * B**2)
                + sp.Rational(2, 5) * _dy(A) * S / B**2
                - (3 * R * _dy(B) + 12 * S * A * R) / (25 * B**2)
                + (6 * A**2 * S**2 - 12 * _dy(B) * A * S + 6 * _dy(B)**2) / (25 * B**3))
            pair = (red(om2 * A / B), om2)
        self._omega_cache[which] = (pair, tuple(to_expr(v) for v in pair))
        return self._omega_cache[which][1]

    def _omega_value(self, which: str):
        self._omega_pair(which)
        return self._omega_cache[which][0]

    @cached_property
    def Theta(self) -> sp.Expr:
        v = self.value
        return self._out("Theta", self._dual(
            "Theta",
            lambda: self._omega_value("A")[0] / v("A"),
            lambda: self._omega_value("B")[1] / v("B")))

    @cached_property
    def theta(self) -> tuple[sp.Expr, sp.Expr]:
        phi1, phi2 = self.value("phi")
        Th = self.value("Theta")
        return self._out("theta", self._dy(Th) - 2 * phi2 * Th,
                         -self._dx(Th) + 2 * phi1 * Th)

    # -- L chain -----------------------------------------------------------

    @cached_property
    def L(self) -> sp.Expr:
        P, Q, R, S = self._pqrs
        t1, t2 = self.value("theta")
        Th = self.value("Theta")
        _dx, _dy = self._dx, self._dy
        # The three derivative terms carry the opposite sign from the source
        # display; as printed they break the weight -4 transformation law on
        # any instance where theta is not constant.
        return self._out("L",
            t1 * t2 * (_dy(t2) - _dx(t1)) - t2**2 * _dy(t1) + t1**2 * _dx(t2)
            - P * t1**3 - 3 * Q * t1**2 * t2 - 3 * R * t1 * t2**2 - S * t2**3
            - Half * Th**2)

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
        v = self.value
        A, B, N, Om = v("A"), v("B"), v("N"), v("Omega")
        P, Q, R, S = self._pqrs
        _dx, _dy = self._dx, self._dy
        br = self._require_branch()
        if br.primary == "A":
            g1 = (-sp.Rational(6, 5) * B * N * (B * P + _dx(A)) / A**2
                  + sp.Rational(18, 5) * N * B * Q / A
                  + sp.Rational(6, 5) * N * (_dx(B) + _dy(A)) / A
                  - _dy(N) - sp.Rational(12, 5) * N * R - 2 * Om * B)
            g2 = (-sp.Rational(6, 5) * N * (B * P + _dx(A)) / A + _dx(N)
                  + sp.Rational(6, 5) * N * Q + 2 * Om * A)
        else:
            g1 = (-sp.Rational(6, 5) * N * (A * S - _dy(B)) / B - _dy(N)
                  + sp.Rational(6, 5) * N * R - 2 * Om * B)
            g2 = (-sp.Rational(6, 5) * A * N * (A * S - _dy(B)) / B**2
                  + sp.Rational(18, 5) * N * A * R / B
                  - sp.Rational(6, 5) * N * (_dy(A) + _dx(B)) / B + _dx(N)
                  - sp.Rational(12, 5) * N * Q + 2 * Om * A)
        return self._out("gamma", g1, g2)

    @cached_property
    def xi(self) -> tuple[sp.Expr, sp.Expr]:
        g1, g2 = self.value("gamma")
        A, B, Om = self.value("A"), self.value("B"), self.value("Omega")
        return self._out("xi", -2 * Om * B - g1, 2 * Om * A - g2)

    @cached_property
    def m_verdict(self) -> ZeroVerdict:
        return self.zero_verdict(self.value("M"))

    @cached_property
    def Gamma(self) -> sp.Expr:
        if self.m_verdict.is_zero:
            raise GammaUndefined("M vanishes identically; Gamma divides by M")
        P, Q, R, S = self._pqrs
        g1, g2 = self.value("gamma")
        _dx, _dy = self._dx, self._dy
        return self._out("Gamma",
            (g1 * g2 * (_dx(g1) - _dy(g2)) + g2**2 * _dy(g1) - g1**2 * _dx(g2)
             + P * g1**3 + 3 * Q * g1**2 * g2 + 3 * R * g1 * g2**2 + S * g2**3)
            / self.value("M"))

    # -- pseudo wrappers ---------------------------------------------------

    def pseudo(self, name: str) -> Pseudo:
        vectors = {"alpha": lambda: (self.B, -self.A), "theta": lambda: self.theta,
                   "xi": lambda: self.xi, "omega": lambda: self.omega}
        if name in vectors:
            return Pseudo(name, WEIGHTS[name], tuple(vectors[name]()))
        return Pseudo(name, WEIGHTS[name], (getattr(self, name),))


# -- functional surface ----------------------------------------------------

def alpha_field(ode: OdeCubic) -> Pseudo:
    """Pseudovector alpha of weight 2, components (B, -A)."""
    return InvariantPipeline(ode).pseudo("alpha")


def f_condition(ode: OdeCubic, seed: int = DEFAULT_SEED):
    """Returns (G, H, 3*F^5, verdict) for the first theorem condition."""
    pipe = InvariantPipeline(ode, seed=seed)
    return pipe.G, pipe.H, pipe.F5, pipe.f_verdict


def pseudoinvariant_N(ode: OdeCubic, seed: int = DEFAULT_SEED) -> Pseudo:
    return InvariantPipeline(ode, seed=seed).pseudo("N")


def phi_fields(ode: OdeCubic, seed: int = DEFAULT_SEED) -> tuple[sp.Expr, sp.Expr]:
    return InvariantPipeline(ode, seed=seed).phi


def pseudoinvariant_M(ode: OdeCubic, seed: int = DEFAULT_SEED) -> Pseudo:
    return InvariantPipeline(ode, seed=seed).pseudo("M")


def pseudoinvariant_Omega(ode: OdeCubic, seed: int = DEFAULT_SEED) -> Pseudo:
    return InvariantPipeline(ode, seed=seed).pseudo("Omega")


def omega_theta(ode: OdeCubic, seed: int = DEFAULT_SEED):
    """(omega covector, Theta, theta vector)."""
    pipe = InvariantPipeline(ode, seed=seed)
    return pipe.pseudo("omega"), pipe.pseudo("Theta"), pipe.pseudo("theta")


def L_chain(ode: OdeCubic, seed: int = DEFAULT_SEED):
    """(L, L1, W, V) as weight-tagged pseudoinvariants."""
    pipe = InvariantPipeline(ode, seed=seed)
    return (pipe.pseudo("L"), pipe.pseudo("L1"), pipe.pseudo("W"),
            pipe.pseudo("V"))


def xi_gamma_Gamma(ode: OdeCubic, seed: int = DEFAULT_SEED):
    """(xi, gamma, Gamma); Gamma requires M not identically zero."""
    pipe = InvariantPipeline(ode, seed=seed)
    return pipe.pseudo("xi"), pipe.gamma, pipe.pseudo("Gamma")
