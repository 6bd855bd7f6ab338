"""
Unmasking a disguised Painleve I equation
=========================================

Takes y'' = 6y^2 + x, hides it behind the point transformation
(x_new, y_new) = (x sin y, x cos y), then recovers the transformation from
nothing but the disguised coefficients, using the two weight-0 invariants
I1 = L1^4/L^5 and I2 = Theta^2/L.
"""

import sympy as sp

from painleq import canonical
from painleq.classify import classify
from painleq.exprkernel import X, Y
from painleq.parsing import to_grammar
from painleq.transform import PointMap, map_painleve1, pullback_ode

# Step 1: build the disguise.  pullback_ode transports the canonical
# equation backward through the map, producing an unrecognizable mess.
disguise = PointMap(X * sp.sin(Y), X * sp.cos(Y))
hidden = pullback_ode(canonical.painleve1(), disguise)
print("disguised right-hand side:")
print("  ", to_grammar(hidden.rhs()))

# Step 2: classify.  Only the coefficient functions go in; the map that
# produced them is forgotten.
cls = classify(hidden)
print(f"\nclassified as: {cls.kind}")
report = cls.reports["painleve1"]
for name in ("I1", "I2"):
    print(f"  {name} = {to_grammar(report.invariants[name])}")

# Step 3: rebuild the change of variables from the invariants alone.
# The y-component carries a sign choice; Painleve I is pulled back through
# each branch in turn, and the first whose pullback is the input is returned.
recovered = map_painleve1(report)
print(f"\nrecovered map (branch {recovered.branch}):")
print(f"  x_new = {to_grammar(recovered.x_new)}")
print(f"  y_new = {to_grammar(recovered.y_new)}")
print(f"  certified: {recovered.certificate}")

assert sp.simplify(recovered.x_new - disguise.x_new) == 0
print("\nthe recovered x-component matches the hidden map exactly")
