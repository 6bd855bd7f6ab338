"""Explicit changes of variables: emission, pullback generation, verification.

The invariant formulas determine the new variables up to sign branches and up
to a documented misprint in the published x-formula for the Painleve II case;
every candidate branch is arbitrated by :func:`verify_map`, a numeric
pushforward of second-derivative jets at seeded sample points.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Optional

import mpmath
import sympy as sp
from sympy.polys.fields import FracElement

from .classify import InvariantReport
# normalize and is_identically_zero stay module globals: perfbench/tracing.py
# replaces them here by module attribute
from .exprkernel import (DEFAULT_SEED, EvenRootOfNegative, P, PoleAtPoint, X,
                         Y, compile_numeric, field_for, is_identically_zero,
                         normalize, numeric_point, random_rational,
                         root_up_to_sign, to_expr)
from .parsing import NotCubicInDerivative, OdeCubic

__all__ = [
    "PointMap", "DegenerateMap", "BranchVerificationFailed",
    "AllSamplesSingular", "map_painleve1", "map_painleve2", "pullback_ode",
    "verify_map", "DEFAULT_SAMPLES", "RESIDUAL_TOLERANCE",
]

DEFAULT_SAMPLES = 20
RESIDUAL_TOLERANCE = mpmath.mpf("1e-9")

TARGET_RHS = {
    # target residual: y2 - rhs(xt, yt, y1) at the pushed-forward jet
    "painleve1": lambda xt, yt, y1, j: yt**2 * 6 + xt,
    "painleve2": lambda xt, yt, y1, j: 2 * yt**3 + xt * yt + j,
}


class DegenerateMap(ValueError):
    """The candidate map has identically vanishing Jacobian."""


class BranchVerificationFailed(RuntimeError):
    """No sign branch of the emitted map survives numeric verification."""


class AllSamplesSingular(RuntimeError):
    """No non-singular sample point found within the search budget."""


@dataclass(frozen=True)
class PointMap:
    """A candidate change of variables (x_new(x,y), y_new(x,y))."""

    x_new: sp.Expr
    y_new: sp.Expr
    branch: str = ""
    J: Optional[sp.Expr] = None  # Painleve II parameter carried by the branch
    verified: Optional[bool] = None
    max_residual: Optional[float] = None
    sample_box: str = "x, y in [1, 2], y' in [-1, 1]"

    def jacobian(self) -> FracElement:
        """The Jacobian determinant, reduced in the map's RationalField."""
        F = field_for(self.x_new, self.y_new)
        xm, ym = F(self.x_new), F(self.y_new)
        return F.reduce(F.diff(xm, X) * F.diff(ym, Y)
                        - F.diff(xm, Y) * F.diff(ym, X))


def _checked(m: PointMap) -> PointMap:
    if is_identically_zero(m.jacobian()).is_zero:
        raise DegenerateMap(f"map ({m.x_new}, {m.y_new}) has zero Jacobian")
    return m


def _arbitrate(source: OdeCubic, target: str, candidates: list[PointMap],
               samples: int, seed: int, precision: int = 60) -> PointMap:
    """Verify the branches in order; return the first that verifies."""
    results = []
    for cand in candidates:
        ok, res = verify_map(source, target, cand, samples=samples, seed=seed,
                             precision=precision)
        r = replace(cand, verified=ok,
                    max_residual=None if res is None else float(res))
        if ok:
            return r
        results.append(r)
    notes = "; ".join(f"{r.branch}: residual {r.max_residual}" for r in results)
    raise BranchVerificationFailed(f"no sign branch verifies ({notes})")


def map_painleve1(report: InvariantReport, samples: int = DEFAULT_SAMPLES,
                  seed: int = DEFAULT_SEED, precision: int = 60) -> PointMap:
    """Change of variables onto y'' = 6y^2 + x from the passed Theorem 1 report.

    x_new = (12*I1)^(-1/5) is the real fifth root, exact; y_new =
    sqrt(I2*x_new/12) carries a sign choice, so both branches are built and
    the verifier picks the survivor.
    """
    if not report.passed or report.target != "painleve1":
        raise ValueError("map_painleve1 requires a passing Theorem 1 report")
    I1, I2 = report.invariants["I1"], report.invariants["I2"]
    x_new = root_up_to_sign(1 / (12 * I1), 5)
    y_mag = root_up_to_sign(I2 * x_new / 12, 2)
    cands = [_checked(PointMap(x_new, y_mag, branch="y+")),
             _checked(PointMap(x_new, -y_mag, branch="y-"))]
    return _arbitrate(report.ode, "painleve1", cands, samples, seed, precision)


def map_painleve2(report: InvariantReport, samples: int = DEFAULT_SAMPLES,
                  seed: int = DEFAULT_SEED, as_printed: bool = False,
                  precision: int = 60) -> PointMap:
    """Change of variables onto y'' = 2y^3 + x*y + J from a Theorem 2 report.

    With r = (2500*I9)^(-1/6), determined up to sign, y_new = r and x_new =
    5*I6*r^2 - (3/2)*J/r, reduced to one expression; ``as_printed=True``
    selects the source display's first term 5*I6*r instead, which fails
    verification (kept for the documented arbitration).  J enters with both
    signs; the verifier decides.
    """
    if not report.passed or report.target != "painleve2":
        raise ValueError("map_painleve2 requires a passing Theorem 2 report")
    I6, I9, J = (report.invariants[k] for k in ("I6", "I9", "J"))
    if J is sp.nan:
        raise BranchVerificationFailed("no real constant J is available")
    r = root_up_to_sign(1 / (2500 * I9), 6)
    first = 5 * I6 * (r if as_printed else r**2)
    cands = []
    for sign, tag in ((1, "J+"), (-1, "J-")):
        j = sign * J
        x_new = normalize(first - sp.Rational(3, 2) * j / r)
        cands.append(_checked(PointMap(x_new, r, branch=tag, J=j)))
        if J == 0:
            break
    return _arbitrate(report.ode, "painleve2", cands, samples, seed, precision)


def pullback_ode(target: OdeCubic, pmap: PointMap) -> OdeCubic:
    """Equation in (x, y) whose solutions are carried onto solutions of
    ``target`` by ``pmap``; used to generate disguised test instances."""
    xm, ym = sp.sympify(pmap.x_new), sp.sympify(pmap.y_new)
    det = pmap.jacobian()
    if is_identically_zero(det).is_zero:
        raise DegenerateMap("pullback through a map with zero Jacobian")
    det = to_expr(det)
    u = sp.diff(xm, X) + P * sp.diff(xm, Y)
    v = sp.diff(ym, X) + P * sp.diff(ym, Y)
    a2 = (sp.diff(ym, X, 2) + 2 * P * sp.diff(ym, X, Y) + P**2 * sp.diff(ym, Y, 2))
    b2 = (sp.diff(xm, X, 2) + 2 * P * sp.diff(xm, X, Y) + P**2 * sp.diff(xm, Y, 2))
    subs = {X: xm, Y: ym}
    tP = target.P.subs(subs, simultaneous=True)
    tQ = target.Q.subs(subs, simultaneous=True)
    tR = target.R.subs(subs, simultaneous=True)
    tS = target.S.subs(subs, simultaneous=True)
    # target rhs times u^3 stays polynomial of degree 3 in p
    rhs_u3 = tP * u**3 + 3 * tQ * v * u**2 + 3 * tR * v**2 * u + tS * v**3
    q = (rhs_u3 - a2 * u + v * b2) / det
    # split on expressions, not in the field of q: the quotient ring of a
    # sin/cos pair is not a UFD, so reducing q there before splitting gives
    # other (equal) fractions for trig maps, and other generated inputs
    num, den = sp.together(q).as_numer_denom()
    poly = sp.Poly(sp.expand(num), P)
    if poly.degree() > 3 or den.has(P):
        raise NotCubicInDerivative("pullback lost the cubic-in-derivative form")
    coeff = [normalize(poly.coeff_monomial(P**k) / den) for k in range(4)]
    return OdeCubic(P=coeff[0], Q=normalize(coeff[1] / 3),
                    R=normalize(coeff[2] / 3), S=coeff[3])


def verify_map(source: OdeCubic, target: str, pmap: PointMap,
               samples: int = DEFAULT_SAMPLES, seed: int = DEFAULT_SEED,
               tolerance: mpmath.mpf = RESIDUAL_TOLERANCE, precision: int = 60):
    """Push second-derivative jets forward through ``pmap`` numerically.

    At each sampled (x, y, y') the source equation supplies y''; the chain
    rule transports the jet to (y_new', y_new'') and the target residual is
    evaluated.  Passes iff every residual is below ``tolerance`` relative to
    the largest term magnitude.  Returns (passed, max relative residual).
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    if target not in TARGET_RHS:
        raise ValueError(f"unknown target class {target!r}")
    xm, ym = sp.sympify(pmap.x_new), sp.sympify(pmap.y_new)
    pieces = {
        "xm": xm, "ym": ym,
        "xm_x": sp.diff(xm, X), "xm_y": sp.diff(xm, Y),
        "ym_x": sp.diff(ym, X), "ym_y": sp.diff(ym, Y),
        "xm_xx": sp.diff(xm, X, 2), "xm_xy": sp.diff(xm, X, Y),
        "xm_yy": sp.diff(xm, Y, 2),
        "ym_xx": sp.diff(ym, X, 2), "ym_xy": sp.diff(ym, X, Y),
        "ym_yy": sp.diff(ym, Y, 2),
        "rhs": source.rhs(),
    }
    free = set().union(*(e.free_symbols for e in pieces.values())) - {P}
    j_val = sp.sympify(pmap.J) if pmap.J is not None else sp.Integer(0)
    free |= j_val.free_symbols
    jets = {k: compile_numeric(e, precision) for k, e in pieces.items()}
    j_jet = compile_numeric(j_val, precision)
    rng = random.Random(seed)
    prec = precision
    guard = mpmath.mpf(10) ** -20
    max_rel = mpmath.mpf(0)
    good = 0
    for _ in range(samples * 10):
        if good >= samples:
            break
        point = {s: random_rational(rng) for s in sorted(free, key=str)}
        point[P] = random_rational(rng, -1, 1)
        try:
            with mpmath.workdps(prec):
                at, notes = numeric_point(point), [mpmath.mpf(0)]
                val = {k: run(at, notes) for k, run in jets.items()}
                p0 = at[P]
                q0 = val["rhs"]
                u = val["xm_x"] + p0 * val["xm_y"]
                v = val["ym_x"] + p0 * val["ym_y"]
                if abs(u) < guard:
                    continue
                a2 = (val["ym_xx"] + 2 * p0 * val["ym_xy"] + p0**2 * val["ym_yy"]
                      + q0 * val["ym_y"])
                b2 = (val["xm_xx"] + 2 * p0 * val["xm_xy"] + p0**2 * val["xm_yy"]
                      + q0 * val["xm_y"])
                y1 = v / u
                y2 = (a2 * u - v * b2) / u**3
                jv = j_jet(at, notes)
                t = TARGET_RHS[target](val["xm"], val["ym"], y1, jv)
                scale = max(abs(y2), abs(t), mpmath.mpf(1))
                rel = abs(y2 - t) / scale
        except (PoleAtPoint, EvenRootOfNegative, ZeroDivisionError):
            continue
        good += 1
        if rel > max_rel:
            max_rel = rel
    if good == 0:
        raise AllSamplesSingular("no valid sample point in the search budget")
    return bool(max_rel < tolerance), max_rel
