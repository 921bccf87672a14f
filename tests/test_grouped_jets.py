"""One replay for several groups of roots, each at its own order."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from hfreemaps import expr
from hfreemaps.errors import DomainError
from hfreemaps.expr import Chart, eval_jet_groups, eval_jets_many, parse
from hfreemaps.hfree import (_lie_rows, _upper, induced_metric, induced_metric_many,
                             infinitesimal_invert, is_hfree_at, pair_order, parse_map,
                             wintergarten_rank)
from hfreemaps.lie import lie, lie_rows

from oracles import two_call_lie_rows
from test_expr import _clone, _exprs, _points, _subtrees


def _outcome(call):
    try:
        return call()
    except DomainError as err:
        return str(err), err.rows.tolist()


def _parts(jet):
    return [None if part is None else part.tobytes()
            for part in (jet.value, jet.gradient, jet.hessian)]


@st.composite
def _groups(draw):
    """1 to 3 groups of roots at orders 0-2, over a few trees, their
    subtrees and clones of both: groups share nodes by identity and by
    structure."""
    trees = draw(st.lists(_exprs(partial=True), min_size=1, max_size=3))
    nodes = [node for tree in trees for node in _subtrees(tree)]
    picks = st.sampled_from(nodes + [_clone(node) for node in nodes])
    group = st.tuples(st.lists(picks, min_size=1, max_size=4), st.integers(0, 2))
    return draw(st.lists(group, min_size=1, max_size=3))


@given(groups=_groups(), pts=_points)
@settings(max_examples=200, deadline=None)
def test_grouped_replay_equals_separate_calls(groups, pts):
    plane = Chart(("x", "y"))
    with np.errstate(all="ignore"):
        for batch in (pts[:1], pts):
            got = _outcome(lambda: eval_jet_groups(groups, plane, batch))
            want = []
            for exprs, order in groups:  # the first error of the calls in turn
                one = _outcome(lambda: eval_jets_many(exprs, plane, batch, order))
                if isinstance(one, tuple):
                    want = one
                    break
                want.append(one)
            if isinstance(want, tuple):
                assert got == want  # the same message and rows
                continue
            assert [_parts(jet) for jet in got] == [_parts(jet) for jet in want]


def _replayed_orders(roots, orders):
    """The order of each step's jet in the replay, and the highest order
    at which a root above the step is read."""
    pts = np.array([[0.3, 0.7]])
    steps, outputs = expr._schedule(*expr._plan(roots)[:2], orders)
    slots, readers = [], [set() for _ in steps]
    for rule, a, b, _ in steps:
        if a is None:
            name = rule if type(rule) is str else None
            slots.append(expr.Jet2.coordinate(pts[:, "xy".index(name)], "xy".index(name), 2, b)
                         if name else expr.Jet2.constant(rule, 2, (1,), b))
        else:
            slots.append(rule(slots[a]) if b is None else rule(slots[a], slots[b]))
    for slot, order in zip(outputs, orders):
        readers[slot].add(order)
    for i in range(len(steps) - 1, -1, -1):
        rule, a, b, _ = steps[i]
        for s in () if a is None else (a, b):  # a leaf's b is its order
            if s is not None:
                readers[s] |= readers[i]
    return [(jet.order, max(read)) for jet, read in zip(slots, readers)], steps


def test_no_node_is_evaluated_above_its_highest_reading_order():
    shared = parse("exp(x)*y")
    roots = (shared, parse("sin(x)") + shared, parse("-y"), parse("x*y"), parse("y"))
    with np.errstate(all="ignore"):
        for orders in ([2, 1, 0, 1, 0], [0, 1, 2, 0, 2], [1, 1, 1, 1, 1], [0, 0, 2, 2, 1]):
            replayed, steps = _replayed_orders(roots, orders)
            truncations = [i for i, step in enumerate(steps) if step[0] in expr._TRUNCATE]
            for i, (order, highest) in enumerate(replayed):
                assert order == highest or i in truncations
            # each distinct node runs once; the rest only hand on leading parts
            assert len(steps) - len(truncations) == len(expr._plan(roots)[0])


def test_the_map_error_comes_before_the_frame_error(contact):
    dist, _ = contact
    space = dist.chart
    groups = (((parse("log(x)"),), 2), ((parse("sqrt(y)"),), 1))
    pts = np.array([[-1.0, -1.0, 0.0], [1.0, -1.0, 0.0]])
    err = _outcome(lambda: eval_jet_groups(groups, space, pts))
    assert err == ("log of a non-positive argument", [True, False])


def _contact_and_stripe_points(rng):
    return (rng.uniform(-2, 2, size=(200, 3)), rng.uniform(-1.5, 1.5, size=(200, 2)))


def test_certificates_equal_the_two_call_assembly(contact, stripe, rng):
    contact_pts, stripe_pts = _contact_and_stripe_points(rng)
    stripe_dist = stripe[0]
    stripe_map = parse_map(stripe_dist.chart, "y*exp(x)", "(y^2-1)*exp(x)", "x^2+y")
    for (dist, F), pts in ((contact, contact_pts), ((stripe_dist, stripe_map), stripe_pts)):
        XV, first, L2 = two_call_lie_rows(dist, F, pts)
        got = _lie_rows(dist, F, pts, 1e-9)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in (XV, first, L2)]
        block = first @ np.swapaxes(first, -1, -2)
        mirrored = np.triu(block) + np.swapaxes(np.triu(block, 1), -1, -2)
        assert induced_metric_many(dist, F, pts).tobytes() == mirrored.tobytes()
        for p in pts:
            one = two_call_lie_rows(dist, F, p[None, :])
            cert = is_hfree_at(dist, F, p)
            rows = np.concatenate([one[1]] + [
                (one[2][:, a, a] if a == b else one[2][:, a, b] + one[2][:, b, a])[:, None]
                for a, b in pair_order(dist.k)], axis=1)[0]
            assert cert.matrix.entries.tobytes() == rows.tobytes()
            assert induced_metric(dist, F, p).matrix.tobytes() == \
                induced_metric_many(dist, F, p[None, :])[0].tobytes()
            if cert:
                assert wintergarten_rank(dist, F, p) == dist.k * (dist.k + 1) // 2


def test_lie_and_inversion_equal_the_two_call_evaluation(contact, stripe, rng):
    contact_pts, stripe_pts = _contact_and_stripe_points(rng)
    dist, f, _ = stripe
    xi = dist.frame[0]
    for p in stripe_pts:
        pts = p[None, :]
        grad = eval_jets_many((f,), xi.chart, pts, 1).gradient
        want = lie_rows(xi.values(pts)[:, None, :], grad)[0, 0, 0]
        assert lie(xi, f, p) == float(want)
    dist, F = contact
    psi = [parse("x*y"), parse("exp(z)")]
    dg = [[parse("1"), parse("y")], [parse("y"), parse("z^2")]]
    for p in contact_pts[:40]:
        pts = p[None, :]
        XV, first, L2 = two_call_lie_rows(dist, F, pts)
        system = np.concatenate([first] + [
            (2.0 * L2[:, a, a] if a == b else L2[:, a, b] + L2[:, b, a])[:, None]
            for a, b in pair_order(2)], axis=1)[0]
        psi_jet = eval_jets_many(psi, dist.chart, pts, 1)
        dg_values = eval_jets_many([dg[a][b] for a, b in pair_order(2)], dist.chart, pts,
                                   0).value[0]
        L_psi = lie_rows(XV, psi_jet.gradient)[0]
        rhs = [float(v) for v in psi_jet.value[0]]
        for (a, b), dg_ab in zip(pair_order(2), dg_values):
            rhs.append(float(L_psi[a, b] + L_psi[b, a]) - float(dg_ab))
        want, *_ = np.linalg.lstsq(system, np.array(rhs), rcond=None)
        assert infinitesimal_invert(dist, F, p, dg, psi).tobytes() == want.tobytes()


_entries = st.one_of(st.sampled_from([0.0, -0.0, np.nan, np.inf, -np.inf]),
                     st.floats(allow_nan=True, allow_infinity=True))


@given(st.integers(1, 4).flatmap(lambda k: st.lists(
    st.lists(_entries, min_size=k * k, max_size=k * k), min_size=1, max_size=5).map(
        lambda rows: np.array(rows).reshape(len(rows), k, k))))
@settings(max_examples=200, deadline=None)
def test_the_mirror_equals_the_triu_formula(g):
    k = g.shape[-1]
    with np.errstate(all="ignore"):
        want = np.triu(g) + np.swapaxes(np.triu(g, 1), -1, -2)
        got = np.where(_upper(k), g, np.swapaxes(g, -1, -2)) + 0.0
    assert got.tobytes() == want.tobytes()
