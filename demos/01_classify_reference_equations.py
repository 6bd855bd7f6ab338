"""
Classifying the reference equations
===================================

Walks the bundled corpus of second-order ODEs cubic in y' and runs the full
three-theorem classification on each, printing the verdicts and the weight-0
invariants that drive them.
"""

from painleq import canonical
from painleq.classify import classify
from painleq.parsing import to_grammar

CORPUS = [
    ("Painleve I:  y'' = 6y^2 + x", canonical.painleve1()),
    ("Painleve II: y'' = 2y^3 + xy + a", canonical.painleve2()),
    ("Painleve III(0,b,0,0): y'' = y'^2/y - y'/x + b/x",
     canonical.painleve3_zero()),
    ("trigonometric disguise of Painleve I", canonical.example1_trigonometric()),
    ("Kamke 6.9 as published: y'' = -ay^3 - bxy - cy - d", canonical.kamke_6_9()),
    ("Kamke 6.9 sign-corrected: y'' = ay^3 - bxy - cy - d",
     canonical.kamke_6_9_sign_corrected()),
]

for title, ode in CORPUS:
    print(f"\n== {title}")
    cls = classify(ode)
    print(f"   class: {cls.kind}")

    # each theorem records every condition it evaluated, pass or fail
    for name, report in cls.reports.items():
        marks = "".join("+" if c.holds else "-" for c in report.conditions)
        print(f"   {name:<15} conditions [{marks}]")

    if cls.J is not None:
        print(f"   recovered parameter J = {to_grammar(cls.J)} (up to sign)")
    for d in cls.diagnostics:
        print(f"   note: {d}")
