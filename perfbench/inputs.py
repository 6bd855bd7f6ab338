"""Seeded inputs with answers known by construction.

Every case carries the grammar text that painleq receives and the answer the
oracle checks it against.  The text is built here, from the seed alone, with
``pullback_ode`` and ``to_grammar``; nothing else about a case reaches the
program under test.

A workload is a fixed pass of slots.  The slot fixes the structure of a case
(target class, map family, exponent); the seed draws its numbers.  So every
seed exercises the same mix.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import sympy as sp

from painleq import canonical
from painleq.exprkernel import X, Y
from painleq.parsing import OdeCubic, to_grammar
from painleq import transform
from painleq.transform import PointMap

__all__ = ["Case", "MAP_FAMILIES", "cases_for", "transcendental_share",
           "disguised_cases", "reject_cases", "cli_cases"]


@dataclass(frozen=True)
class Case:
    """One input and its known answer.

    ``expect`` holds ``kind`` (the class painleq must report, or the tuple
    of classes it may report), and for Painleve I/II the hidden map and
    ``a``.  CLI cases hold ``argv``, and ``expect`` the allowed exit codes
    and the class the JSON report must name.  ``defect`` names the known
    defect of the seed that makes the case fail; such failures still count.
    """

    name: str
    text: str = ""
    expect: dict = field(default_factory=dict)
    argv: tuple[str, ...] = ()
    defect: str = ""


def _q(rng: random.Random, lo: int, hi: int, den: int = 4) -> sp.Rational:
    """Nonzero rational p/q with lo <= p <= hi and 1 <= q <= den."""
    while True:
        p = rng.randint(lo, hi)
        if p:
            return sp.Rational(p, rng.randint(1, den))


_COEFFS = (1, 2)


def _shear_x(rng, k):
    return X + rng.choice(_COEFFS) * Y**k, Y


def _shear_y(rng, k):
    return X, Y + rng.choice(_COEFFS) * X**k


def _affine(rng, k):
    # a, b > 0 keep x_new positive on the sample box, which the Painleve I
    # map needs (its y-formula takes a tenth root of x_new)
    while True:
        a, b, c, d = (rng.choice(v) for v in ((1, 2), (1, 2), (-1, 1), (1, 2)))
        if a * d != b * c:
            return a * X + b * Y, c * X + d * Y


def _exp(rng, k):
    return X * sp.exp(Y), Y


def _polar(rng, k):
    return X * sp.sin(Y), X * sp.cos(Y)


# name -> (rng, k) -> the family map; k is the shear exponent
MAP_FAMILIES = {
    "shear_x": _shear_x,
    "shear_y": _shear_y,
    "affine": _affine,
    "exp": _exp,
    "polar": _polar,
}
_SCALES = (2, 3)
_SHIFTS = (1, 2)


def _hidden_map(rng: random.Random, family: str, k: int,
                shift: bool) -> PointMap:
    """Family map followed by a seeded scale and, where ``shift``, a shift.

    The scale is positive and the shift nonnegative, so x_new stays positive
    on the verifier's box [1, 2]^2 wherever the family map's is.
    """
    f1, f2 = MAP_FAMILIES[family](rng, k)
    s1, s2 = rng.choice(_SCALES), rng.choice(_SCALES)
    t1, t2 = ((rng.choice(_SHIFTS), rng.choice(_SHIFTS)) if shift
              else (0, 0))
    return PointMap(s1 * f1 + t1, s2 * f2 + t2)


# (equation, family) pairs on which the seed's program, given the map with
# its shift, swells past the per-input limit.  Their regular slots take the
# scale alone, because a timed-out input costs the whole limit.  Instead each
# disguised pass holds one shifted draw of _SWELL_SHOWN, counted as the known
# defect (iv).  That pair is polynomial and stays near the other inputs'
# memory; the polar ones reach 80-240 MB by the time limit, and how far they
# get depends on the machine's speed, which would make peak_rss_mb unsteady.
_SWELLS = ({("painleve3_zero", f) for f in MAP_FAMILIES}
           | {("painleve2", "polar"), ("autonomous_y3", "polar")})
_SWELL_SHOWN = ("painleve3_zero", "shear_x")


def _disguise(target: OdeCubic, pmap: PointMap) -> str:
    return to_grammar(transform.pullback_ode(target, pmap).rhs())


def _map_expect(pmap: PointMap) -> dict:
    return {"x_new": pmap.x_new, "y_new": pmap.y_new}


# Painleve I pulled back through this affine map is negative in x_new on the
# whole sample box, and the seed's map emission ends in AllSamplesSingular.
_NEGATIVE_AFFINE = PointMap(-sp.Rational(3, 2) * X - Y + 1, X - Y / 2)

_TARGETS = ("painleve1", "painleve2", "painleve3_zero")


def _slots(count: int):
    """(index, target, family, shear exponent) in interleaved order: slot i
    takes target i mod 3 and family i mod 5, so 15 slots cover every pair."""
    families = tuple(MAP_FAMILIES)
    for i in range(count):
        yield i, _TARGETS[i % 3], families[i % 5], 2 + (i // 5) % 2


def _disguised(rng: random.Random, target: str, family: str, k: int,
               shift: bool, defect: str = "") -> Case:
    """``target`` with seeded parameters behind a seeded map of ``family``."""
    pmap = _hidden_map(rng, family, k, shift)
    if target == "painleve1":
        ode, expect = canonical.painleve1(), {"kind": "painleve1"}
    elif target == "painleve2":
        a = sp.Integer(rng.choice((1, 2, 3)))
        ode, expect = canonical.painleve2(a), {"kind": "painleve2", "a": str(a)}
    else:
        b = rng.choice((-2, -1, 1, 2, 3))
        ode, expect = canonical.painleve3_zero(b), {"kind": "painleve3_zero"}
    if target != "painleve3_zero":
        expect.update(_map_expect(pmap))
    name = f"{target}/{family}" + ("_shifted" if defect else "")
    return Case(name, _disguise(ode, pmap), expect, defect=defect)


def disguised_cases(seed: int) -> list[Case]:
    """Painleve I, II(a) and III(0,b,0,0) behind seeded invertible maps, with
    the known-defect slots (ii) third and (iv) last in the pass."""
    rng = random.Random(seed)
    cases = [_disguised(rng, target, family, k, (target, family) not in _SWELLS)
             for _, target, family, k in _slots(15)]
    cases.insert(2, Case("painleve1/affine_negative",
                         _disguise(canonical.painleve1(), _NEGATIVE_AFFINE),
                         {"kind": "painleve1", **_map_expect(_NEGATIVE_AFFINE)},
                         defect="(ii) x_new < 0 on the sample box"))
    cases.append(_disguised(rng, *_SWELL_SHOWN, 2, True,
                            defect="(iv) shifted map: swell past the limit"))
    return cases


def _generic_quadratic(rng: random.Random) -> OdeCubic:
    def poly():
        return sum(sp.Rational(rng.randint(-4, 4), rng.randint(1, 3))
                   * X**i * Y**j
                   for i in range(3) for j in range(3) if i + j <= 2)
    return OdeCubic(poly(), poly(), poly(), poly())


def reject_cases(seed: int) -> list[Case]:
    """Inputs equivalent to none of the three classes.

    Fourteen generic random quadratic coefficient quadruples, ten of them
    each followed by an autonomous y'' = c*y^n behind the disguised
    workload's map families, one for each family and n = 2, 3.  The
    autonomous equations have the point symmetry d/dx, which Painleve I and
    II lack, so the answer is "neither PI nor PII".  Generic draws are the
    slower family and the majority, so the median and the tail fall among
    them and not in the gap between the two families, where they would jump
    from run to run.
    """
    rng = random.Random(seed)
    autonomous = list(_slots(10))
    cases = []
    for i in range(14):
        ode = _generic_quadratic(rng)
        cases.append(Case("generic", to_grammar(ode.rhs()),
                          {"kind": "not_equivalent"}))
        if i >= len(autonomous):
            continue
        _, _, family, k = autonomous[i]
        n = 2 + i % 2
        c = rng.choice((-2, -1, 1, 2, 3))
        auto = OdeCubic(c * Y**n, *(sp.Integer(0),) * 3)
        pmap = _hidden_map(rng, family, k,
                           (f"autonomous_y{n}", family) not in _SWELLS)
        cases.append(Case(
            f"autonomous_y{n}/{family}", _disguise(auto, pmap),
            {"kind": ("not_equivalent", "painleve3_zero", "indeterminate")},
            defect="(i) PainleveII with J = nan" if n == 3 else ""))
    return cases


_CLI_DEFECTS = (
    ("classify/division_by_zero", ["classify", "--rhs", "1/0"], (1,),
     "(iii) exit 2 instead of 1"),
    ("classify/trig_swell", ["classify", "--rhs", "sin(y)^2+cos(y)^2*y^3+x"],
     (0, 2, 3), "(iii) runs past the time limit"),
    ("classify/zero_denominator", ["classify", "--rhs", "y/(x-x)"], (1,),
     "(iii) exit 2 instead of 1"),
    ("classify/log_zero", ["classify", "--rhs", "ln(0)"], (1,),
     "(iii) exit 2 instead of 1"),
)


def _cli_round(rng: random.Random) -> list[Case]:
    """The five subcommands on the README examples, with seeded numbers,
    and Painleve III(0,b,0,0); all exit 0 under the README contract."""
    a, c, b = (to_grammar(_q(rng, 1, 5)) for _ in range(3))
    rows = [
        ("classify/painleve1", ["classify", "--rhs", "6*y^2 + x"], "PainleveI"),
        ("invariants/painleve2", ["invariants", "--rhs", "2*y^3 + x*y + a"],
         "PainleveII"),
        ("map/painleve2", ["map", "--rhs", f"2*y^3 + x*y + {a}"], "PainleveII"),
        ("verify/painleve1", ["verify", "--rhs", "6*y^2 + x", "--target",
                              "painleve1", "--x-new", "x", "--y-new", "y"], None),
        ("pullback/painleve1", ["pullback", "--rhs", "6*y^2 + x", "--x-new",
                                f"x + {c}*y^2", "--y-new", "y"], None),
        ("map/painleve3_zero", ["map", "--P", f"{b}/x", "--Q3=-1/x", "--R3",
                                "1/y", "--S", "0"], "PainleveIII(0,b,0,0)"),
    ]
    return [Case(name, argv=(*argv, "--json"), expect={"exit": (0,), "class": cls})
            for name, argv, cls in rows]


def cli_cases(seed: int) -> list[Case]:
    """One process per case: three rounds of the README examples, with the
    four inputs whose exit code the README fixes, but the seed gets wrong or
    never reaches, spread over the rounds."""
    rng = random.Random(seed)
    cases = []
    for r in range(3):
        cases += _cli_round(rng)
        for name, argv, codes, defect in _CLI_DEFECTS[r::3]:
            cases.append(Case(name, argv=(*argv, "--json"),
                              expect={"exit": codes, "class": None},
                              defect=defect))
    return cases


def transcendental_share(cases: list[Case]) -> float:
    """Share of inputs whose text holds sin, cos, exp or ln: only these reach
    the cos -> sin rewrite and the sampling zero test."""
    atoms = ("sin(", "cos(", "exp(", "ln(")
    return sum(any(a in c.text for a in atoms) for c in cases) / len(cases)


def cases_for(workload: str, seed: int) -> list[Case]:
    return {"disguised": disguised_cases, "reject": reject_cases,
            "cli": cli_cases}[workload](seed)
