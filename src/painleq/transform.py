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


def _at(poly, images: list[FracElement], K) -> FracElement:
    """The polynomial ``poly`` with its i-th generator sent to
    ``images[i]``, in the free field ``K`` of the images."""
    total = K.zero
    for monom, c in poly.items():
        term = K(int(c))
        for img, k in zip(images, monom):
            if k:
                term *= img**k
        total += term
    return total


def pullback_ode(target: OdeCubic, pmap: PointMap) -> OdeCubic:
    """Equation in (x, y) whose solutions are carried onto solutions of
    ``target`` by ``pmap``; used to generate disguised test instances.

    y'' = q(x, y, p) with q = (rhs*u^3 - a2*u + v*b2)/det, where u and v
    are the total derivatives of x_new and y_new, a2 and b2 the p-parts of
    their second total derivatives, and rhs the target's right-hand side at
    (x_new, y_new, v/u).  All of it is computed in one field of the map, p
    and the target's atoms moved through the map, without reducing modulo
    cos^2 + sin^2 - 1.  That free field is a UFD, so the coefficient of
    each power of p is one element however it was computed; only after the
    split is each coefficient reduced.  The quotient ring of a sin/cos pair
    is not a UFD: reducing q before the split would give other, equal,
    fractions for trig maps.

    Each coefficient is the reduced fraction with its denominator's leading
    coefficient positive, so it prints as :func:`normalize` prints the
    coefficient that the expression formula (sympy's diff, subs, together,
    expand and Poly) gives.
    """
    xm, ym = sp.sympify(pmap.x_new), sp.sympify(pmap.y_new)
    if xm.has(P) or ym.has(P):
        raise NotCubicInDerivative("a point map cannot hold the derivative p")
    det = pmap.jacobian()
    if is_identically_zero(det).is_zero:
        raise DegenerateMap("pullback through a map with zero Jacobian")
    det = to_expr(det)
    coeffs = (target.P, target.Q, target.R, target.S)
    T = field_for(*coeffs)
    # each generator of the target's field goes to its image: x and y to the
    # map, parameters to themselves, an atom to the atom of the moved
    # argument, with exp(u + v) written exp(u)*exp(v) as sp.expand does
    subs = {X: xm, Y: ym}
    images = [subs.get(g, g) if g.is_Symbol
              else sp.expand(g.subs(subs, simultaneous=True))
              for g in T.symbols]
    F = field_for(P, det, xm, ym, *images)
    K, d = F.K, F.free_diff
    images = [F.free(e) for e in images]
    tP, tQ, tR, tS = (_at(f.numer, images, K) / _at(f.denom, images, K)
                      for f in map(T.free, coeffs))
    xm, ym = F.free(xm), F.free(ym)
    p = F.free(P)
    xm_x, xm_y, ym_x, ym_y = d(xm, X), d(xm, Y), d(ym, X), d(ym, Y)
    u = xm_x + p * xm_y
    v = ym_x + p * ym_y
    a2 = d(ym_x, X) + 2 * p * d(ym_x, Y) + p**2 * d(ym_y, Y)
    b2 = d(xm_x, X) + 2 * p * d(xm_x, Y) + p**2 * d(xm_y, Y)
    # target rhs times u^3 stays polynomial of degree 3 in p
    rhs_u3 = tP * u**3 + 3 * tQ * v * u**2 + 3 * tR * v**2 * u + tS * v**3
    q = (rhs_u3 - a2 * u + v * b2) / F.free(det)
    i = F.symbols.index(P)
    parts = [q.numer.coeff_wrt(i, k) for k in range(4)]
    return OdeCubic(*(to_expr(F.reduce(K.new(c, n * q.denom)))
                      for c, n in zip(parts, (1, 3, 3, 1))))


def verify_map(source: OdeCubic, target: str, pmap: PointMap,
               samples: int = DEFAULT_SAMPLES, seed: int = DEFAULT_SEED,
               precision: int = 60):
    """Push second-derivative jets forward through ``pmap`` numerically.

    At each sampled (x, y, y') the source equation supplies y''; the chain
    rule transports the jet to (y_new', y_new'') and the target residual is
    evaluated.  Passes iff every residual is below ``RESIDUAL_TOLERANCE``
    relative to the largest term magnitude.  Returns (passed, max relative
    residual).
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
    # one tape for all of them: the pieces share most of their subexpressions
    tape = compile_numeric(sp.Tuple(*pieces.values(), j_val), precision)
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
                at = numeric_point(point)
                *vals, jv = tape(at, [mpmath.mpf(0)])
                val = dict(zip(pieces, vals))
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
    return bool(max_rel < RESIDUAL_TOLERANCE), max_rel
