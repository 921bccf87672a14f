"""Numerical certification and construction of partially isometric maps.

The library evaluates Lie derivatives through exact second-order jets,
assembles and rank-tests freedom matrices of maps relative to framed
distributions, inverts the linearized metric-inducing system, builds
the explicit constructions for one-dimensional, integrable-system and
Riemann-Poisson distributions, verifies transversal functions on
planar windows, and runs genericity experiments.
"""

from .errors import (
    BlowUp,
    CommutationViolation,
    CoverageGap,
    DegenerateCasimirs,
    DegenerateFrame,
    DomainError,
    ExprSyntaxError,
    HfreeError,
    NonTransversal,
    NotHFree,
    NotImmersion,
    OutsideTube,
    ScenarioError,
    TooFewTargets,
    UnknownCoordinate,
    UnknownFunction,
)
from .expr import (Chart, Expr, Num, eval_jet2, eval_jet2_many, eval_jets_many, eval_value,
                   parse, render, substitute)
from .jet import Jet2
from .lie import VectorField, lie, lie_expr, parse_field
from .geometry import Distribution, frame_rank
from .hfree import (
    FreedomMatrix,
    HFreeCertificate,
    InducedMetric,
    MapSpec,
    freedom_matrix,
    freedom_matrix_many,
    induced_metric,
    infinitesimal_invert,
    is_h_immersion_at,
    is_hfree_at,
    parse_map,
    wintergarten_rank,
)

__version__ = "0.1.0"
