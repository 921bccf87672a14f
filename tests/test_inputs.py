"""One rule per kind of input: a single point is a batch of one through
``expr.point_batch``, text is an expression through ``as_expr``, and a
sequence of components is a tuple, whatever iterable it came as."""

import numpy as np
import pytest

from hfreemaps.constructions import RPBracketSpec, rp_bracket
from hfreemaps.errors import UnknownCoordinate
from hfreemaps.expr import Chart, eval_jet2, eval_value, parse, point_batch
from hfreemaps.geometry import Distribution, frame_rank
from hfreemaps.hfree import (MapSpec, freedom_matrix, induced_metric, infinitesimal_invert,
                             is_h_immersion_at, is_hfree_at, parse_map, wintergarten_rank)
from hfreemaps.lie import VectorField, lie, parse_field
from hfreemaps.transversal import Window, build_tube, build_tubes, flow


_SPACE = Chart(("x", "y", "z"))
_CONTACT = Distribution(_SPACE, (parse_field(_SPACE, "0", "1", "0"),
                                 parse_field(_SPACE, "1", "0", "-y")))
_MAP = parse_map(_SPACE, "y", "x", "exp(y)", "exp(x)", "z")
_SPEC = RPBracketSpec(_SPACE, (parse("x^2+y"),))
_PLANE = Chart(("x", "y"))
_FIELD = parse_field(_PLANE, "1", "0")
_WINDOW = Window(-1.0, 1.0, -1.0, 1.0, 11, 11)

# every single-point entry point: the dimension of its chart and a call at p
_POINT_CALLS = {
    "eval_jet2": (3, lambda p: eval_jet2(parse("x*y"), _SPACE, p)),
    "eval_value": (3, lambda p: eval_value(parse("x*y"), _SPACE, p)),
    "lie": (3, lambda p: lie(_CONTACT.frame[1], parse("x*y"), p)),
    "freedom_matrix": (3, lambda p: freedom_matrix(_CONTACT, _MAP, p)),
    "is_hfree_at": (3, lambda p: is_hfree_at(_CONTACT, _MAP, p)),
    "is_h_immersion_at": (3, lambda p: is_h_immersion_at(_CONTACT, _MAP, p)),
    "induced_metric": (3, lambda p: induced_metric(_CONTACT, _MAP, p)),
    "infinitesimal_invert": (3, lambda p: infinitesimal_invert(_CONTACT, _MAP, p,
                                                               [[0, 0], [0, 0]], [0, 0])),
    "wintergarten_rank": (3, lambda p: wintergarten_rank(_CONTACT, _MAP, p)),
    "frame_rank": (3, lambda p: frame_rank(_CONTACT, p)),
    "rp_bracket": (3, lambda p: rp_bracket(_SPEC, "y", "z", p)),
    "flow": (2, lambda p: flow(_FIELD, p, 0.5)),
    "build_tube": (2, lambda p: build_tube(_FIELD, p, _WINDOW)),
    "build_tubes": (2, lambda p: build_tubes(_FIELD, [(0.0, 0.0), p], _WINDOW)),
}


@pytest.mark.parametrize("shape", ["scalar", "wrong length", "nested"])
@pytest.mark.parametrize("name", list(_POINT_CALLS))
def test_misshapen_points_fail_naming_the_dimension(name, shape):
    m, call = _POINT_CALLS[name]
    bad = {"scalar": 0.5, "wrong length": [0.1] * (m + 1), "nested": [[0.1] * m]}[shape]
    with pytest.raises(ValueError, match=rf"point must have {m} entries, got shape"):
        call(bad)


def test_a_point_batch_is_a_copy_of_one_row():
    p = np.array([0.25, -0.5])
    batch = point_batch(p, _PLANE)
    assert batch.shape == (1, 2) and batch.tobytes() == p.tobytes()
    batch[0, 0] = 7.0
    assert p[0] == 0.25  # the caller's point is not written through the batch
    assert point_batch([1, 2], _PLANE).dtype == np.float64


def test_a_string_of_coordinates_is_a_sequence_of_names():
    chart = Chart("xy")
    assert chart == _PLANE
    with pytest.raises(UnknownCoordinate):
        chart.index("xy")
    with pytest.raises(UnknownCoordinate):
        eval_value(parse("xy"), chart, (1.0, 2.0))  # not the value of x


def test_generators_build_each_component_type():
    field = _CONTACT.frame[1]
    assert Chart(c for c in "xyz") == _SPACE
    assert VectorField(_SPACE, (c for c in field.components)) == field
    assert MapSpec(_SPACE, (c for c in _MAP.components)) == _MAP
    assert Distribution(_SPACE, (f for f in _CONTACT.frame)) == _CONTACT
    assert RPBracketSpec(_SPACE, (c for c in _SPEC.casimirs)) == _SPEC


def test_text_is_parsed_where_an_expression_is_taken():
    p = (0.3, -0.2, 0.5)
    psi, dg = ["x*y", "exp(z)"], [["1", "y"], ["y", "z^2"]]
    want = infinitesimal_invert(_CONTACT, _MAP, p, [[parse(e) for e in row] for row in dg],
                                [parse(e) for e in psi])
    assert infinitesimal_invert(_CONTACT, _MAP, p, dg, psi).tobytes() == want.tobytes()
    metric = [["1", "0", "0"], ["0", "1+x^2", "0"], ["0", "0", "1"]]
    parsed = [[parse(e) for e in row] for row in metric]
    assert (RPBracketSpec(_SPACE, _SPEC.casimirs, metric)
            == RPBracketSpec(_SPACE, _SPEC.casimirs, parsed))
    x, y = parse("x"), parse("y")
    assert x + "y" == x + y and "y" * x == y * x and x ** "2" == x ** parse("2")
