"""Pseudoinvariant pipeline: reference values, identities, branch behavior."""

import random

import pytest
import sympy as sp

from painleq import canonical as cn
from painleq.exprkernel import X, Y, is_identically_zero, normalize
from painleq.invariants import (WEIGHTS, BothComponentsZero,
                                BranchDisagreement, GammaUndefined,
                                InvariantPipeline)
from painleq.parsing import OdeCubic
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


def _det(pm):
    return normalize(sp.diff(pm.x_new, X) * sp.diff(pm.y_new, Y)
                     - sp.diff(pm.x_new, Y) * sp.diff(pm.y_new, X))


@pytest.mark.parametrize("pm", [
    PointMap(X + Y**2, Y), PointMap(X + Y, X * Y)], ids=["shear", "mixed"])
def test_transformation_law_weights(pm):
    """Spot check of the transformation law on pullbacks of Painleve II:
    the source-side value equals the composed target value times det^2 for
    N and det^4 for M, det being the Jacobian of the map."""
    tgt = cn.painleve2(1)
    src = pullback_ode(tgt, pm)
    tp, sp_ = InvariantPipeline(tgt), InvariantPipeline(src)
    det = _det(pm)
    subs = {X: pm.x_new, Y: pm.y_new}
    pulled_N = normalize(sp.sympify(tp.N).subs(subs, simultaneous=True))
    pulled_M = normalize(sp.sympify(tp.M).subs(subs, simultaneous=True))
    assert is_identically_zero(normalize(sp_.N - pulled_N * det**2)).is_zero
    assert is_identically_zero(normalize(sp_.M - pulled_M * det**4)).is_zero


def test_pseudo_wrapper_shapes():
    pipe = InvariantPipeline(cn.painleve2(1))
    assert len(pipe.pseudo("alpha").components) == 2
    assert len(pipe.pseudo("xi").components) == 2
    n = pipe.pseudo("N")
    assert n.weight == 2 and zero(n.expr - 4)
    with pytest.raises(ValueError):
        pipe.pseudo("alpha").expr


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
