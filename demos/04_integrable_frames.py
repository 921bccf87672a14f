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

from hfreemaps import Chart, Distribution, freedom_matrix_many, parse, parse_field
from hfreemaps.constructions import (
    FreeCurve,
    build_cis,
    cis_determinant_constant,
    verify_cis,
)


def numeric_constant(n):
    """C read off one numeric determinant: with the angle frames d/dw_i,
    f^i = w_i and exponential curves every g_i is 1, so C is the
    determinant divided by prod_i Dpsi_i(f^i) = prod_i exp(w_i)."""
    chart = Chart([f"a{i+1}" for i in range(n)] + [f"w{i+1}" for i in range(n)])
    frame = [parse_field(chart, *("1" if j == n + i else "0" for j in range(2 * n)))
             for i in range(n)]
    cis = build_cis([parse(f"w{i+1}") for i in range(n)], [FreeCurve.exp()] * n, chart)
    angles = 0.3 * np.arange(1, n + 1) * (-1.0) ** np.arange(n)
    point = np.concatenate([np.zeros(n), angles])
    matrices = freedom_matrix_many(Distribution(chart, frame), cis.map_spec, point[None, :])[0]
    return float(np.linalg.det(matrices[0])) / float(np.prod(np.exp(angles)))


print("determinant constant against one numeric determinant:")
for n in (1, 2, 3):
    print(f"  n={n}: C = 2^(n(n-1)/2) = {cis_determinant_constant(n):g}"
          f"   numeric: {numeric_constant(n):.12f}")

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
