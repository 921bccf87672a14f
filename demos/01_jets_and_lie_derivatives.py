"""Second-order jets and Lie derivatives, step by step.

Everything downstream is built on two operations: evaluating an
expression into an exact (value, gradient, Hessian) jet, and
contracting jets with vector-field components to get directional
derivatives.  No numerical differencing is involved anywhere.
"""

import numpy as np

from hfreemaps import (Chart, Distribution, eval_jet2, freedom_matrix, lie, parse, parse_field,
                       parse_map)
from hfreemaps.hfree import pair_order

plane = Chart(("x", "y"))

# --- a jet is the full second-order behaviour at a point -------------------

f = parse("y*exp(x)")
jet = eval_jet2(f, plane, (1.0, 2.0))
print("f = y*exp(x) at (1, 2)")
print("  value   :", jet.value)
print("  gradient:", jet.gradient)
print("  hessian :\n", jet.hessian)

# --- directional derivatives along a field ---------------------------------

# this field is tangent to the level sets of (y^2 - 1) e^x
xi = parse_field(plane, "2*y", "1-y^2")
integral = parse("(y^2-1)*exp(x)")

print("\nL_xi applied to the first integral (should vanish):")
for p in [(0.0, 0.0), (1.0, 0.5), (-1.0, -0.4)]:
    print(f"  at {p}: {lie(xi, integral, p):+.2e}")

print("\nL_xi applied to y*exp(x) (equals (1 + y^2) e^x, always positive):")
for p in [(0.0, 0.0), (1.0, 0.5), (-1.0, -0.4)]:
    print(f"  at {p}: {lie(xi, f, p):.6f}   closed form "
          f"{(1 + p[1] ** 2) * np.exp(p[0]):.6f}")

# --- second-order operators -------------------------------------------------

space = Chart(("x", "y", "z"))
contact = Distribution(space, (parse_field(space, "0", "1", "0"),
                               parse_field(space, "1", "0", "-y")))
F = parse_map(space, "z", "y^2")
entries = freedom_matrix(contact, F, (0.3, -0.2, 0.9)).entries

print("\nSecond-order rows of the freedom matrix for the contact frame,")
print("F = (z, y^2) at (0.3, -0.2, 0.9):")
for row, (a, b) in enumerate(pair_order(contact.k), start=contact.k):
    label = (f"L_{a+1} L_{a+1} F" if a == b else f"{{L_{a+1}, L_{b+1}}} F")
    print(f"  {label:<14} =", entries[row])
