"""Monte-Carlo genericity sweeps and level-set drawings.

How often is a random polynomial map certified at a random point?  The
sweep uses a counter-based generator with one stream per map, so the
numbers are identical on every run.  The second half renders the level
sets of the two standard plane functions to SVG.
"""

import numpy as np

from hfreemaps import Chart, Distribution, parse, parse_field
from hfreemaps.contours import render_levels
from hfreemaps.genericity import genericity_trial, write_trials_csv
from hfreemaps.transversal import Window

plane = Chart(("x", "y"))
dist = Distribution(plane, (parse_field(plane, "1", "0"),))
box = np.array([[-2.0, 2.0], [-2.0, 2.0]])

results = []
print("fraction of certified (map, point) pairs, 2000 pairs per q:")
for q in (1, 2, 3, 5):
    res = genericity_trial(dist, q=q, degree=3, n_maps=40, n_points=50,
                           seed=2024, box=box)
    results.append(res)
    note = "(too few targets)" if res.too_few_targets else ""
    print(f"  q={q}: fraction={res.fraction:.4f} "
          f"ci=[{res.ci_low:.4f}, {res.ci_high:.4f}] "
          f"marginal={res.marginals} {note}")

write_trials_csv("genericity.csv", results)
print("table written to genericity.csv")

# determinism: a repeated sweep draws the same maps and points
first = genericity_trial(dist, q=5, degree=3, n_maps=20, n_points=50,
                         seed=7, box=box)
again = genericity_trial(dist, q=5, degree=3, n_maps=20, n_points=50,
                         seed=7, box=box)
print("repeat invariance:", (first.successes, first.marginals)
      == (again.successes, again.marginals))

# level sets of the stripe pair; the second has straight contours on
# y = +-1 separating the bounded leaves from the unbounded ones
window = Window(-2, 2, -2, 2, 101, 101)
for name, text in (("levels_f.svg", "y*exp(x)"),
                   ("levels_g.svg", "(y^2-1)*exp(x)")):
    render = render_levels(parse(text), plane, window, n_levels=15)
    with open(name, "w", encoding="utf-8", newline="") as handle:
        handle.write(render.svg(window))
    n_lines = sum(len(v) for v in render.polylines.values())
    print(f"{name}: {len(render.levels)} levels, {n_lines} polylines")
