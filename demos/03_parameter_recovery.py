"""
Recovering the Painleve II parameter
====================================

The second Painleve equation y'' = 2y^3 + xy + a carries a parameter that
survives point transformations only up to sign.  The weight-0 invariants
I3, I6, I9 condense it into J = (1/50)(4 + 10*I6 - 60*I3)/sqrt(I9), which
this demo recovers from two disguised instances, then shows the sign
subtlety in the Kamke 6.9 family where J^2 comes out negative.
"""

import sympy as sp

from painleq import canonical
from painleq.classify import classify
from painleq.exprkernel import X, Y
from painleq.parsing import to_grammar
from painleq.transform import PointMap, map_painleve2, pullback_ode

# A Painleve II instance with a = 5, disguised two different ways.
for pm in (PointMap(X + Y**2, Y), PointMap(X + Y, X - Y)):
    hidden = pullback_ode(canonical.painleve2(5), pm)
    cls = classify(hidden)
    m = map_painleve2(cls.reports["painleve2"])
    print(f"disguise ({to_grammar(pm.x_new)}, {to_grammar(pm.y_new)}):"
          f" class {cls.kind}, J = {m.J},"
          f" certified {m.certificate}")

# The Kamke 6.9 family y'' = -ay^3 - bxy - cy - d: all four theorem
# conditions hold, but J^2 = -a*d^2/(2*b^2) is negative for positive a,
# so no real parameter value exists and the classifier abstains.
print("\nKamke 6.9 with a=2, b=3, c=5, d=7:")
cls = classify(canonical.kamke_6_9(2, 3, 5, 7))
print(f"  class: {cls.kind}")
for d in cls.diagnostics:
    print(f"  {d}")

# Flip the sign of the cubic term and the same family lands cleanly on
# Painleve II with J = sqrt(a/2)*d/b up to sign.
print("\nsign-corrected family with the same numbers:")
cls = classify(canonical.kamke_6_9_sign_corrected(2, 3, 5, 7))
m = map_painleve2(cls.reports["painleve2"])
print(f"  class: {cls.kind}, J = {m.J}")
print(f"  map: x_new = {to_grammar(m.x_new)}, y_new = {to_grammar(m.y_new)}")
print(f"  certified {m.certificate}")
