"""Pseudoinvariant pipeline: reference values, identities, branch behavior."""

import random

import pytest
import sympy as sp

from painleq import canonical as cn
from painleq.exprkernel import X, Y, is_identically_zero, normalize
from painleq.invariants import (WEIGHTS, BothComponentsZero,
                                BranchDisagreement, GammaUndefined,
                                InvariantPipeline, _Frame)
from painleq.parsing import (OdeCubic, extract_cubic_coefficients,
                             parse_expression)
from painleq.transform import PointMap, pullback_ode

A_SYM, Y3 = sp.Symbol("a"), 2 * Y**3


def zero(e) -> bool:
    return normalize(sp.sympify(e)) == 0


def test_weight_table_is_fixed():
    assert WEIGHTS["N"] == 2 and WEIGHTS["M"] == 4 and WEIGHTS["Theta"] == -2
    assert WEIGHTS["L"] == -4 and WEIGHTS["L1"] == -5 and WEIGHTS["Gamma"] == 4


def test_painleve1_reference_values():
    pipe = InvariantPipeline(cn.painleve1())
    assert zero(pipe.N) and zero(pipe.Omega)
    assert zero(pipe.Theta + Y / 12)
    assert zero(pipe.L - X / 1728)
    assert zero(pipe.L1 + sp.Rational(1, 12**4))
    assert zero(pipe.W) and zero(pipe.V)
    t1, t2 = pipe.theta
    assert zero(t1 + sp.Rational(1, 12)) and zero(t2)


def test_painleve2_reference_values():
    pipe = InvariantPipeline(cn.painleve2())
    assert zero(pipe.N - 4)
    assert zero(pipe.M - sp.Rational(288, 5))
    xi1, xi2 = pipe.xi
    assert zero(xi1 + 24 / (5 * Y)) and zero(xi2)
    assert zero(pipe.Gamma
                - sp.Rational(48, 25) * (Y3 + X * Y + A_SYM) / Y**3)
    assert zero(pipe.M / pipe.N**2 - sp.Rational(18, 5))


def test_painleve3_zero_reference_values():
    pipe = InvariantPipeline(cn.painleve3_zero())
    assert zero(pipe.M / pipe.N**2 - sp.Rational(3, 5))
    assert zero(pipe.Gamma / pipe.M - sp.Rational(1, 15))


def test_alpha_degenerate_for_linear_equations():
    pipe = InvariantPipeline(OdeCubic(Y, *(sp.Integer(0),) * 3))
    with pytest.raises(BothComponentsZero):
        pipe.branch


def _random_quadratic_ode(rng) -> OdeCubic:
    def poly():
        return sum(sp.Rational(rng.randint(-4, 4), rng.randint(1, 3))
                   * X**i * Y**j
                   for i in range(3) for j in range(3) if i + j <= 2)
    return OdeCubic(poly(), poly(), poly(), poly())


def test_divergence_identity_on_random_odes():
    # B_x - A_y = -(6/5)N + phi_2 A - phi_1 B, off shell, for generic input
    rng = random.Random(11)
    checked = 0
    while checked < 20:
        pipe = InvariantPipeline(_random_quadratic_ode(rng))
        try:
            phi1, phi2 = pipe.phi
            lhs = sp.diff(pipe.B, X) - sp.diff(pipe.A, Y)
            rhs = -sp.Rational(6, 5) * pipe.N + phi2 * pipe.A - phi1 * pipe.B
        except (BothComponentsZero, BranchDisagreement):
            continue
        assert is_identically_zero(normalize(lhs - rhs)).is_zero
        checked += 1


@pytest.mark.parametrize("ode", [
    cn.painleve2(), cn.painleve3_zero(), cn.kamke_6_9(),
    cn.kamke_6_9_sign_corrected(), cn.example1_trigonometric(),
], ids=["pii", "piii0", "kamke", "kamke-fixed", "example1"])
def test_xi_and_m_relations_on_corpus(ode):
    pipe = InvariantPipeline(ode)
    g1, g2 = pipe.gamma
    xi1, xi2 = pipe.xi
    assert zero(xi1 + 2 * pipe.Omega * pipe.B + g1)
    assert zero(xi2 - 2 * pipe.Omega * pipe.A + g2)
    assert is_identically_zero(
        normalize(pipe.M + pipe.A * xi1 + pipe.B * xi2)).is_zero


BOTH_BRANCH_INSTANCES = [
    pullback_ode(cn.painleve1(), PointMap(X + Y, X * Y)),
    pullback_ode(cn.painleve1(), PointMap(Y + X**2, X - Y)),
    pullback_ode(cn.painleve2(1), PointMap(X + Y**2, Y)),
    pullback_ode(cn.painleve2(1), PointMap(X + Y, X - Y)),
    cn.example1_trigonometric(),
]


@pytest.mark.parametrize("idx", range(len(BOTH_BRANCH_INSTANCES)))
def test_branch_agreement_n_m_omega(idx):
    """The dual A/B formulas agree wherever both are defined; any nonzero
    difference would raise BranchDisagreement inside the pipeline."""
    pipe = InvariantPipeline(BOTH_BRANCH_INSTANCES[idx])
    pipe.N
    pipe.M
    pipe.Omega


def test_branch_agreement_theta_on_n_zero():
    for ode in BOTH_BRANCH_INSTANCES[:2] + [cn.example1_trigonometric()]:
        pipe = InvariantPipeline(ode)
        assert pipe.zero_verdict(pipe.N).is_zero
        pipe.Theta  # would raise BranchDisagreement on a mismatch


def test_theta_branches_disagree_off_n_zero():
    """Documented limitation: Theta is a well-defined pseudoinvariant only
    on the subclass N = 0.  On instances with N != 0 the dual closed
    formulas genuinely disagree, so the pipeline refuses to pick one."""
    pipe = InvariantPipeline(pullback_ode(cn.painleve2(1),
                                          PointMap(X + Y**2, Y)))
    assert pipe.zero_verdict(pipe.N).is_nonzero
    with pytest.raises(BranchDisagreement):
        pipe.Theta


def test_omega_vanishes_on_trigonometric_disguise():
    pipe = InvariantPipeline(cn.example1_trigonometric())
    assert is_identically_zero(pipe.Omega).is_zero


class _SymbolicFrame:
    """The frame's operator formulas on arbitrary functions of (x, y)."""

    D, Omega, M, gamma = _Frame.D, _Frame.Omega, _Frame.M, _Frame.gamma

    def __init__(self):
        P, Q, R, S, A, B, N, Om = (sp.Function(n)(X, Y) for n in
                                   ("P", "Q", "R", "S", "A", "B", "N", "Omega"))
        self.pqrs = (P, Q, R, S)
        self.stored = {"A": A, "B": B, "N": N, "Omega": Om}
        dx = self.dx = lambda f: sp.diff(f, X)
        dy = self.dy = lambda f: sp.diff(f, Y)
        # the formula of _Frame.phi
        self._phi = (-sp.Rational(3, 5) * (B * P + dx(A)) / A
                     + sp.Rational(3, 5) * Q,
                     sp.Rational(3, 5) * B * (B * P + dx(A)) / A**2
                     - sp.Rational(3, 5) * (dx(B) + dy(A) + 3 * B * Q) / A
                     + sp.Rational(6, 5) * R)

    def value(self, name):
        return self.stored[name]


def test_operator_forms_equal_the_expanded_displays():
    """Omega = -(5/3) curl phi, M = (B, -A).D N and gamma = (-(D N)_2 -
    2 Omega B, (D N)_1 + 2 Omega A) are the paper's expanded A-branch
    displays, which are kept here as the reference."""
    fr = _SymbolicFrame()
    P, Q, R, _ = fr.pqrs
    A, B, N, Om = (fr.stored[k] for k in ("A", "B", "N", "Omega"))
    dx, dy = fr.dx, fr.dy
    omega_display = (
        2 * B * dx(A) * (B * P + dx(A)) / A**3
        - (2 * dx(B) + 3 * B * Q) * dx(A) / A**2
        + (dy(A) - 2 * dx(B)) * B * P / A**2
        - (B * dx(dx(A)) + B**2 * dx(P)) / A**2
        + dx(dx(B)) / A
        + (3 * dx(B) * Q + 3 * B * dx(Q) - dy(B) * P - B * dy(P)) / A
        + dy(Q) - 2 * dx(R))
    m_display = (
        -sp.Rational(12, 5) * B * N * (B * P + dx(A)) / A + B * dx(N)
        + sp.Rational(24, 5) * B * N * Q + sp.Rational(6, 5) * N * dx(B)
        + sp.Rational(6, 5) * N * dy(A) - A * dy(N)
        - sp.Rational(12, 5) * A * N * R)
    gamma_display = (
        -sp.Rational(6, 5) * B * N * (B * P + dx(A)) / A**2
        + sp.Rational(18, 5) * N * B * Q / A
        + sp.Rational(6, 5) * N * (dx(B) + dy(A)) / A
        - dy(N) - sp.Rational(12, 5) * N * R - 2 * Om * B,
        -sp.Rational(6, 5) * N * (B * P + dx(A)) / A + dx(N)
        + sp.Rational(6, 5) * N * Q + 2 * Om * A)
    pairs = [(fr.Omega(), omega_display), (fr.M(), m_display),
             *zip(fr.gamma(), gamma_display)]
    for got, want in pairs:
        assert sp.cancel(got - want) == 0


def test_unequal_branches_evaluate_only_the_a_frame(monkeypatch):
    """With A and B both nonzero and F != 0, the B-branch values of N, M and
    Omega would not be compared, so they are not computed."""
    evaluated = []
    for name in ("N", "M", "Omega"):
        def record(fr, _formula=getattr(_Frame, name), _name=name):
            evaluated.append((fr.branch, _name))
            return _formula(fr)
        monkeypatch.setattr(_Frame, name, record)
    pipe = InvariantPipeline(extract_cubic_coefficients(parse_expression(
        "x*y^2 + p*y + p^2*x + p^3*(x+y)")))
    assert pipe.branch == "both" and pipe.verdict("F5").is_nonzero
    pipe.N, pipe.M, pipe.Omega
    assert sorted(evaluated) == [("A", "M"), ("A", "N"), ("A", "Omega")]


def _det(pm):
    return normalize(sp.diff(pm.x_new, X) * sp.diff(pm.y_new, Y)
                     - sp.diff(pm.x_new, Y) * sp.diff(pm.y_new, X))


# target -> weighted scalars that are nonzero on it
LAW_TARGETS = [
    (cn.painleve1(), ("Theta", "L", "L1")),
    (cn.painleve2(1), ("N", "M", "Gamma")),
    (OdeCubic(X * Y**2 + Y**3, *(sp.Integer(0),) * 3), ("N", "M", "Gamma")),
]


@pytest.mark.parametrize("pm", [
    PointMap(X + Y**2, Y), PointMap(X + Y, X * Y)], ids=["shear", "mixed"])
def test_transformation_law_weights(pm):
    """On pullbacks of Painleve I, Painleve II(1) and y'' = x y^2 + y^3, the
    source value of each weighted scalar equals the target value composed
    with the map times det**WEIGHTS[name], det being the Jacobian of the
    map.  A scalar that vanishes on its target would check nothing."""
    det = _det(pm)
    subs = {X: pm.x_new, Y: pm.y_new}
    for tgt, names in LAW_TARGETS:
        tp, sp_ = InvariantPipeline(tgt), InvariantPipeline(pullback_ode(tgt, pm))
        for name in names:
            assert tp.verdict(name).is_nonzero, name
            pulled = normalize(sp.sympify(getattr(tp, name)).subs(
                subs, simultaneous=True))
            assert is_identically_zero(normalize(
                getattr(sp_, name) - pulled * det**WEIGHTS[name])).is_zero, name


STAGES = ("A", "B", "G", "H", "F5", "N", "phi", "M", "Omega", "omega",
          "Theta", "theta", "L", "L1", "W", "V", "gamma", "xi", "Gamma")
# stage of the swapped equation -> (stage of the equation, sign); every other
# stage is its own partner with sign (-1)**weight
SWAPPED_FROM = {"A": ("B", -1), "B": ("A", -1), "G": ("H", 1), "H": ("G", 1),
                "F5": ("F5", -1), "phi": ("phi", 1), "gamma": ("gamma", -1)}
A_ONLY = {
    "painleve1": OdeCubic(6 * Y**2 + X, *(sp.Integer(0),) * 3),  # Omega = 0
    "y3_xy": OdeCubic(Y**3 + X, X * Y, sp.Integer(0), sp.Integer(0)),
}


@pytest.mark.parametrize("ode", A_ONLY.values(), ids=A_ONLY)
def test_b_branch_is_the_swapped_a_branch(ode):
    """B = 0 here, so the pullback by (x, y) -> (y, x) takes the B branch
    alone; each of its stages is the swapped stage of the equation times its
    sign, with a pair's components exchanged."""
    pipe = InvariantPipeline(ode)
    star = InvariantPipeline(pullback_ode(ode, PointMap(Y, X)))
    assert pipe.branch == "A" and star.branch == "B"
    swap = {X: Y, Y: X}
    for name in STAGES:
        partner, sign = SWAPPED_FROM.get(name) or (name, (-1) ** WEIGHTS[name])
        try:
            want = getattr(pipe, partner)
        except GammaUndefined:
            with pytest.raises(GammaUndefined):
                getattr(star, name)
            continue
        got = getattr(star, name)
        want = want[::-1] if isinstance(want, tuple) else (want,)
        got = got if isinstance(got, tuple) else (got,)
        assert len(got) == len(want), name
        for g, w in zip(got, want):
            assert zero(g - sign * sp.sympify(w).subs(swap, simultaneous=True)), name
