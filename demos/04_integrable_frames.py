"""Certified maps for commuting frames in action-angle-like coordinates.

Given n functions with the diagonal bracket pattern (L_i f^j = 0 for
i != j, g_i = L_i f^i > 0), the product map made of n curve
compositions plus the pairwise products f^i f^j certifies, and its
determinant equals C * prod_i g_i^(n+2) Dpsi_i(f^i).  The constant is
C = 2^(n(n-1)/2): in a suitable row order the freedom matrix is block
upper triangular, with one 2x2 block per function and one diagonal
entry 2 g_i g_j per pair i < j.
"""

import numpy as np

from hfreemaps import Chart, Distribution, parse, parse_field
from hfreemaps.constructions import (
    FreeCurve,
    build_cis,
    cis_determinant_constant,
    verify_cis,
)

print("oracle determinant constants:")
for n in (1, 2, 3):
    print(f"  n={n}: C = {cis_determinant_constant(n):.12f}"
          f"   (2^(n(n-1)/2) = {2 ** (n * (n - 1) // 2)})")

chart = Chart(("act1", "act2", "ang1", "ang2"))
dist = Distribution(chart, (parse_field(chart, "0", "0", "1", "0"),
                            parse_field(chart, "0", "0", "0", "1")))

# nonconstant rates: g_1 = 1 + 0.3 cos(ang1) stays positive
built = build_cis([parse("ang1+0.3*sin(ang1)"), parse("ang2")],
                  [FreeCurve.exp(), FreeCurve.custom("t", "t^2")], chart)
print("\nmap components:")
for c in built.map_spec.components:
    print("  ", c)

rng = np.random.default_rng(4)
check = verify_cis(dist, built, rng.uniform(-2, 2, size=(400, 4)))
print("\nidentity verified at 400 points:", check.all_passed)
print("worst mismatch:", check.max_mismatch)
print("sample determinant:", check.determinants[0],
      " predicted:", check.predicted[0])
