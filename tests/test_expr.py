import gc
import math
import time
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hfreemaps import expr
from hfreemaps.errors import (
    DomainError,
    ExprSyntaxError,
    UnknownCoordinate,
    UnknownFunction,
)
from hfreemaps.expr import (
    Bin,
    Call,
    Chart,
    Coord,
    Neg,
    Num,
    derivative,
    eval_jet2,
    eval_jet2_many,
    eval_jets_many,
    eval_value,
    eval_value_many,
    parse,
    render,
    substitute,
)
from oracles import evaluate as oracle_evaluate


class TestParse:
    def test_linear_monomial(self, plane):
        assert eval_value(parse("2*y"), plane, (1.0, 3.0)) == 6.0

    def test_quasi_polynomial(self, plane):
        e = parse("(y^2-1)*exp(x)")
        assert eval_value(e, plane, (0.0, 1.0)) == 0.0

    def test_unbalanced_paren_offset(self):
        with pytest.raises(ExprSyntaxError) as info:
            parse("2*(y")
        assert info.value.offset == 4
        assert '")"' in info.value.expected

    def test_unknown_function(self):
        with pytest.raises(UnknownFunction):
            parse("sinh(x)")

    def test_unexpected_character(self):
        with pytest.raises(ExprSyntaxError) as info:
            parse("x + $")
        assert info.value.offset == 4

    def test_precedence(self, plane):
        # ^ binds tighter than unary minus, which binds tighter than *
        assert eval_value(parse("-x^2"), plane, (3.0, 0.0)) == -9.0
        assert eval_value(parse("2*x^2"), plane, (3.0, 0.0)) == 18.0
        assert eval_value(parse("2^-2"), plane, (0.0, 0.0)) == 0.25

    def test_right_associative_power(self, plane):
        assert parse("2^3^2") == Bin("^", Num(2.0), Bin("^", Num(3.0), Num(2.0)))
        assert np.isclose(eval_value(parse("2^3^2"), plane, (0.0, 0.0)), 512.0)

    def test_function_without_call(self):
        with pytest.raises(ExprSyntaxError):
            parse("sin + 1")


class TestChart:
    def test_distinct_names(self):
        with pytest.raises(ValueError):
            Chart(("x", "x"))

    def test_reserved_names(self):
        with pytest.raises(ValueError):
            Chart(("sin", "y"))

    def test_undeclared_coordinate(self, plane):
        with pytest.raises(UnknownCoordinate):
            eval_jet2(parse("x+z"), plane, (0.0, 0.0))


class TestJets:
    def test_coordinate_function(self, plane):
        j = eval_jet2(parse("x"), plane, (0.7, -0.3))
        assert j.value == 0.7
        assert np.array_equal(j.gradient, [1.0, 0.0])
        assert np.array_equal(j.hessian, np.zeros((2, 2)))

    def test_analytic_example_at_origin(self, plane):
        j = eval_jet2(parse("exp(x)*cos(y)"), plane, (0.0, 0.0))
        assert j.value == 1.0
        assert np.allclose(j.gradient, [1.0, 0.0], atol=0, rtol=0)
        assert np.allclose(j.hessian, [[1.0, 0.0], [0.0, -1.0]], atol=0, rtol=0)

    def test_product_jet(self, plane):
        e = math.e
        j = eval_jet2(parse("y*exp(x)"), plane, (1.0, 2.0))
        assert np.isclose(j.value, 2 * e, rtol=1e-15)
        assert np.allclose(j.gradient, [2 * e, e], rtol=1e-15)
        assert np.allclose(j.hessian, [[2 * e, e], [e, 0.0]], rtol=1e-15)

    def test_product_jet_against_finite_differences(self, plane):
        expr = parse("y*exp(x)")
        p = np.array([1.0, 2.0])
        h = 1e-5
        j = eval_jet2(expr, plane, p)
        for a in range(2):
            hi, lo = p.copy(), p.copy()
            hi[a] += h
            lo[a] -= h
            fd = (eval_value(expr, plane, hi) - eval_value(expr, plane, lo)) / (2 * h)
            assert abs(fd - j.gradient[a]) <= 1e-6 * max(1.0, abs(fd))
        # second differences at h = 1e-5 carry a roundoff floor of about
        # eps*|f|/h^2, so the Hessian check can only be held to 1e-5
        f0 = eval_value(expr, plane, p)
        for a in range(2):
            hi, lo = p.copy(), p.copy()
            hi[a] += h
            lo[a] -= h
            fd = (eval_value(expr, plane, hi) - 2 * f0
                  + eval_value(expr, plane, lo)) / h**2
            assert abs(fd - j.hessian[a, a]) <= 1e-5 * max(1.0, abs(fd))

    def test_many_matches_single(self, plane, rng):
        e = parse("tanh(x*y)+sqrt(1+x^2)")
        pts = rng.uniform(-2, 2, size=(40, 2))
        batch = eval_jet2_many(e, plane, pts)
        for i, p in enumerate(pts):
            j = eval_jet2(e, plane, p)
            assert j.value == batch.value[i]
            assert np.array_equal(j.gradient, batch.gradient[i])
            assert np.array_equal(j.hessian, batch.hessian[i])


class TestDomainErrors:
    @pytest.mark.parametrize("text,point", [
        ("log(x)", (-1.0, 0.0)),
        ("sqrt(x)", (-0.5, 0.0)),
        ("1/x", (0.0, 1.0)),
        ("x^-1", (0.0, 1.0)),
        ("x^0.5", (-2.0, 0.0)),
        ("x^y", (-2.0, 3.0)),
    ])
    def test_raises(self, plane, text, point):
        with pytest.raises(DomainError):
            eval_jet2(parse(text), plane, point)

    @pytest.mark.parametrize("text,rows", [
        ("log(x)", [False, True, True, False]),
        ("sqrt(x)", [False, True, False, False]),
        ("1/x", [False, False, True, False]),
        ("x^-1", [False, False, True, False]),
        ("x^0.5", [False, True, True, False]),
        ("x^y", [False, True, True, False]),
        ("y/(x - x) + log(x)", [True, True, True, False]),  # the first failing step
    ])
    def test_the_error_flags_the_rejected_rows(self, plane, text, rows):
        # a NaN operand is rejected by no rule
        pts = [[1.0, 2.0], [-1.0, 2.0], [0.0, 2.0], [np.nan, 2.0]]
        with np.errstate(invalid="ignore"), pytest.raises(DomainError) as info:
            eval_jet2_many(parse(text), plane, pts)
        assert info.value.rows.tolist() == rows
        assert DomainError("raised elsewhere").rows is None

    def test_integer_power_of_negative_base(self, plane):
        assert eval_value(parse("x^3"), plane, (-2.0, 0.0)) == -8.0
        assert eval_value(parse("x^-2"), plane, (-2.0, 0.0)) == 0.25


# -- round trips -------------------------------------------------------------


def _leaf(draw_names):
    return st.one_of(
        st.floats(min_value=-4, max_value=4, allow_nan=False).map(
            lambda v: Num(float(v))),
        st.sampled_from(draw_names).map(Coord),
    )


def _exprs(names=("x", "y"), partial=False):
    """Random trees; ``partial`` adds operations with a restricted domain:
    ``/``, ``exp``, ``log``, ``sqrt`` and powers with any exponent."""
    binary = "+-*/^" if partial else "+-*"
    unary = ["sin", "cos", "tanh"] + (["exp", "log", "sqrt"] if partial else [])
    return st.recursive(
        _leaf(names),
        lambda sub: st.one_of(
            st.tuples(st.sampled_from(binary), sub, sub).map(
                lambda t: Bin(t[0], t[1], t[2])),
            sub.map(lambda e: -e),
            sub.map(lambda e: Bin("^", e, Num(2.0))),
            st.tuples(st.sampled_from(unary), sub).map(
                lambda t: Call(t[0], t[1])),
        ),
        max_leaves=12,
    )


@given(e=_exprs())
@settings(max_examples=200, deadline=None)
def test_render_round_trip(e):
    plane = Chart(("x", "y"))
    again = parse(render(e))
    for p in [(0.0, 0.0), (0.5, -1.25), (-2.0, 3.0)]:
        assert eval_value(again, plane, p) == eval_value(e, plane, p)


def test_render_nested_minuses(plane):
    e = parse("x-(y-1)")
    assert eval_value(parse(render(e)), plane, (0.25, 0.125)) == \
        eval_value(e, plane, (0.25, 0.125))
    assert render(e) == "x-(y-1)"


def test_negative_literal_power_base(plane):
    e = Bin("^", Num(-2.0), Num(2.0))
    assert eval_value(parse(render(e)), plane, (0.0, 0.0)) == 4.0


# -- structural transforms ---------------------------------------------------


def test_substitute_composition(plane):
    outer = parse("t^2+1")
    composed = substitute(outer, {"t": parse("y*exp(x)")})
    assert eval_value(composed, plane, (0.0, 3.0)) == 10.0


def test_concurrent_evaluation_is_consistent(plane):
    # expressions and charts are immutable; parallel evaluation must
    # agree with the serial result bit for bit
    from concurrent.futures import ThreadPoolExecutor

    e = parse("tanh(x*y)+exp(x)*cos(y)-sqrt(1+y^2)")
    pts = [(0.1 * i, -0.05 * i) for i in range(64)]
    serial = [eval_jet2(e, plane, p) for p in pts]
    with ThreadPoolExecutor(max_workers=8) as pool:
        parallel = list(pool.map(lambda p: eval_jet2(e, plane, p), pts))
    for a, b in zip(serial, parallel):
        assert a.value == b.value
        assert np.array_equal(a.hessian, b.hessian)


def test_derivative_matches_jet_gradient(plane, rng):
    for text in ("y*exp(x)", "sin(x*y)-cos(y)^2", "sqrt(1+x^2)/(2+tanh(y))"):
        e = parse(text)
        dx = derivative(e, "x")
        dy = derivative(e, "y")
        for p in rng.uniform(-1.5, 1.5, size=(25, 2)):
            j = eval_jet2(e, plane, p)
            assert np.isclose(eval_value(dx, plane, p), j.gradient[0],
                              rtol=1e-12, atol=1e-12)
            assert np.isclose(eval_value(dy, plane, p), j.gradient[1],
                              rtol=1e-12, atol=1e-12)


# -- evaluation orders -------------------------------------------------------


def _outcome(e, chart, pts, order):
    """The batched jet, or None when the batch leaves the domain."""
    try:
        return eval_jet2_many(e, chart, pts, order=order)
    except DomainError:
        return None


def _bits(a):
    return np.asarray(a).tobytes()


_points = st.lists(
    st.tuples(*[st.floats(min_value=-3, max_value=3, allow_nan=False)] * 2),
    min_size=1, max_size=4).map(lambda rows: np.array(rows, dtype=float))


@given(e=_exprs(partial=True), pts=_points)
@settings(max_examples=300, deadline=None)
def test_orders_agree_bit_for_bit(e, pts):
    plane = Chart(("x", "y"))
    with np.errstate(all="ignore"):
        jets = [_outcome(e, plane, pts, order) for order in (0, 1, 2)]
        # a domain error at one order is raised at every order
        assert len({j is None for j in jets}) == 1
        if jets[0] is None:
            for order in (0, 1, 2):
                failing = [_outcome(e, plane, p[None, :], order) is None for p in pts]
                assert any(failing)
            return
        j0, j1, j2 = jets
        assert (j0.order, j1.order, j2.order) == (0, 1, 2)
        assert _bits(j0.value) == _bits(j1.value) == _bits(j2.value)
        assert _bits(j1.gradient) == _bits(j2.gradient)
        assert np.array_equal(j2.hessian, np.swapaxes(j2.hessian, -1, -2), equal_nan=True)
        assert _bits(eval_value_many(e, plane, pts)) == _bits(j0.value)
        # a batched result equals the single-point results
        for order, batch in enumerate(jets):
            for i, p in enumerate(pts):
                single = eval_jet2(e, plane, p, order=order)
                assert _bits(single.value) == _bits(batch.value[i])
                if order >= 1:
                    assert _bits(single.gradient) == _bits(batch.gradient[i])
                if order == 2:
                    assert _bits(single.hessian) == _bits(batch.hessian[i])


def _subtrees(e):
    out, stack = [], [e]
    while stack:
        node = stack.pop()
        out.append(node)
        stack.extend(getattr(node, name) for name in ("arg", "left", "right")
                     if hasattr(node, name))
    return out


@st.composite
def _root_tuples(draw):
    """1 to 6 roots drawn from a few trees, their subtrees and new trees
    over both: roots share subtrees by identity, repeat, or sit inside
    another root."""
    trees = draw(st.lists(_exprs(partial=True), min_size=1, max_size=3))
    picks = st.sampled_from([node for tree in trees for node in _subtrees(tree)])
    joined = st.builds(Bin, st.sampled_from("+-*/"), picks, picks)
    return tuple(draw(st.lists(st.one_of(picks, joined), min_size=1, max_size=6)))


@given(roots=_root_tuples(), pts=_points)
@settings(max_examples=100, deadline=None)
def test_tuple_walk_equals_each_root_alone(roots, pts):
    plane = Chart(("x", "y"))
    with np.errstate(all="ignore"):
        for batch in (pts[:1], pts):
            for order in (0, 1, 2):
                alone = [_outcome(e, plane, batch, order) for e in roots]
                try:
                    stacked = eval_jets_many(roots, plane, batch, order)
                except DomainError:
                    # raised exactly when some root raises on its own
                    assert any(jet is None for jet in alone)
                    continue
                assert all(jet is not None for jet in alone)
                assert stacked.order == order
                parts = ("value", "gradient", "hessian")[:order + 1]
                for name, tail in zip(parts, [(), (2,), (2, 2)]):
                    assert getattr(stacked, name).shape == (len(batch), len(roots)) + tail
                    for r, jet in enumerate(alone):
                        assert _bits(getattr(stacked, name)[:, r]) == _bits(getattr(jet, name))


def test_variable_exponent_values_match_jets(plane, rng):
    # a^b with a non-constant exponent is exp(b log a) at every order
    e = parse("x^y")
    pts = rng.uniform([0.1, -3.0], [3.0, 3.0], size=(1000, 2))
    values = eval_value_many(e, plane, pts)
    assert _bits(values) == _bits(eval_jet2_many(e, plane, pts).value)
    assert _bits(values) == _bits(np.exp(pts[:, 1] * np.log(pts[:, 0])))
    for p, v in zip(pts[:20], values):
        assert eval_value(e, plane, p) == v


def test_deep_tree_evaluates_without_recursion(plane):
    e = parse("+".join(["x"] * 3000))
    pts = np.array([[0.5, -1.0], [2.0, 3.0]])
    assert np.array_equal(eval_value_many(e, plane, pts), [1500.0, 6000.0])
    for order in (2, 1, 0):
        jet = eval_jet2_many(e, plane, pts, order=order)
        assert np.array_equal(jet.value, [1500.0, 6000.0])
        if order >= 1:
            assert np.array_equal(jet.gradient, [[3000.0, 0.0]] * 2)
        if order == 2:
            assert not jet.hessian.any()


def test_shared_subtrees_are_evaluated_once(plane):
    # 20 squarings: 2^21 - 1 tree nodes below the root, 22 distinct nodes
    e = Call("cos", Coord("x") * Coord("y"))
    for _ in range(20):
        e = e * e
    pts = np.array([[0.0, 0.7], [0.01, 0.3]])
    start = time.perf_counter()
    jets = [eval_jet2_many(e, plane, pts, order=order) for order in (0, 1, 2)]
    assert time.perf_counter() - start < 1.0
    assert jets[2].value[0] == 1.0 and not jets[2].gradient[0].any()
    assert _bits(jets[0].value) == _bits(jets[2].value)
    assert _bits(jets[1].gradient) == _bits(jets[2].gradient)


def test_order_is_validated(plane):
    with pytest.raises(ValueError):
        eval_jet2(parse("x"), plane, (0.0, 0.0), order=3)


# -- compiled plans ------------------------------------------------------------


def _clone(e):
    """A tree of equal structure made of new nodes."""
    if isinstance(e, Num):
        return Num(e.value)
    if isinstance(e, Coord):
        return Coord(e.name)
    if isinstance(e, Neg):
        return Neg(_clone(e.arg))
    if isinstance(e, Call):
        return Call(e.func, _clone(e.arg))
    return Bin(e.op, _clone(e.left), _clone(e.right))


@st.composite
def _cloned_root_tuples(draw):
    """1 to 6 roots over a few trees, their subtrees and new trees of equal
    structure: roots share subtrees by identity or by structure only, and
    repeat."""
    trees = draw(st.lists(_exprs(partial=True), min_size=1, max_size=3))
    nodes = [node for tree in trees for node in _subtrees(tree)]
    picks = st.sampled_from(nodes + [_clone(node) for node in nodes])
    joined = st.builds(Bin, st.sampled_from("+-*/"), picks, picks)
    roots = draw(st.lists(st.one_of(picks, joined), min_size=1, max_size=6))
    repeats = draw(st.lists(st.sampled_from(roots), max_size=2))
    return tuple(roots + repeats)


def _oracle_outcome(roots, chart, pts, order):
    try:
        results = oracle_evaluate(roots, chart, pts, order)
    except DomainError as err:
        return str(err)
    return [results[id(root)] for root in roots]


@given(roots=_cloned_root_tuples(), pts=_points)
@settings(max_examples=150, deadline=None)
def test_plan_equals_the_interpreter_bit_for_bit(roots, pts):
    plane = Chart(("x", "y"))
    with np.errstate(all="ignore"):
        for batch in (pts[:1], pts):
            for order in (0, 1, 2):
                want = _oracle_outcome(roots, plane, batch, order)
                try:
                    got = expr._evaluate(roots, plane, batch, order)
                except DomainError as err:
                    # raised exactly when the interpreter raises, by the same node
                    assert want == str(err)
                    continue
                assert not isinstance(want, str)
                for jet, ref in zip(got, want):
                    for part, ref_part in zip((jet.value, jet.gradient, jet.hessian),
                                              (ref.value, ref.gradient, ref.hessian)):
                        assert (part is None) == (ref_part is None)
                        if part is not None:
                            assert _bits(part) == _bits(ref_part)


_mixed_points = st.lists(
    st.tuples(*[st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5]),
                          st.floats(min_value=-3, max_value=3, allow_nan=False))] * 2),
    min_size=1, max_size=8).map(lambda rows: np.array(rows, dtype=float))


@given(roots=_cloned_root_tuples(), pts=_mixed_points)
@example(roots=(parse("log(x) + sqrt(y)"), parse("1/x")),  # flagged at two steps
         pts=np.array([[-1.0, 1.0], [1.0, -1.0], [1.0, 1.0], [0.0, 2.0]]))
@settings(max_examples=150, deadline=None)
def test_retry_without_the_flagged_rows_equals_each_point_alone(roots, pts):
    plane = Chart(("x", "y"))
    with np.errstate(all="ignore"):
        for order in (0, 1, 2):
            flagged, todo, jets = {}, np.arange(len(pts)), []
            while todo.size:
                try:
                    jets = expr._evaluate(roots, plane, pts[todo], order)
                    break
                except DomainError as err:
                    assert err.rows.shape == todo.shape and err.rows.any()
                    flagged.update(dict.fromkeys(todo[err.rows].tolist(), str(err)))
                    todo = todo[~err.rows]
            for i, p in enumerate(pts):
                try:
                    alone = expr._evaluate(roots, plane, p[None], order)
                except DomainError as err:
                    # flagged exactly when it raises alone, with the same message
                    assert flagged.get(i) == str(err)
                    continue
                assert i not in flagged
                row = int(np.searchsorted(todo, i))
                for jet, one in zip(jets, alone):
                    for part, one_part in zip((jet.value, jet.gradient, jet.hessian),
                                              (one.value, one.gradient, one.hessian)):
                        assert (part is None) == (one_part is None)
                        if part is not None:
                            assert _bits(part[row]) == _bits(one_part[0])


def test_signed_zeros_are_not_merged(plane):
    x = Coord("x")
    roots = (Num(0.0), Num(-0.0), x * Num(0.0), x * Num(-0.0))
    values = eval_jets_many(roots, plane, [[1.0, 2.0]], order=0).value[0]
    assert list(np.signbit(values)) == [False, True, False, True]
    assert len(expr._plan(roots)[0]) == 5  # x and two steps per sign


def test_equal_subtrees_share_one_step(plane):
    a, b = parse("sin(x*y)+y"), parse("sin(x*y)+y")
    assert len(expr._plan((a, b))[0]) == 5  # x, y, x*y, sin, +
    jets = eval_jets_many((a, b), plane, [[0.3, -1.2]])
    assert _bits(jets.hessian[:, 0]) == _bits(jets.hessian[:, 1])


def test_plan_reads_each_charts_coordinates(plane):
    e = parse("x - 2*y")
    swapped = Chart(("y", "x"))
    for _ in range(2):
        jet = eval_jet2(e, plane, (1.0, 3.0))
        assert jet.value == -5.0 and list(jet.gradient) == [1.0, -2.0]
        jet = eval_jet2(e, swapped, (1.0, 3.0))
        assert jet.value == 1.0 and list(jet.gradient) == [-2.0, 1.0]


def test_repeated_calls_compile_once(plane, monkeypatch):
    compiled = []
    compile_ = expr._compile

    def counted(roots):
        compiled.append(roots)
        return compile_(roots)

    monkeypatch.setattr(expr, "_compile", counted)
    e, f = parse("exp(x)*y"), parse("x^2-y")
    pts = np.array([[0.1, 0.2], [0.3, -0.4]])
    for order in (0, 1, 2, 2):
        eval_jet2_many(e, plane, pts, order=order)
        eval_jet2(e, plane, pts[0], order=order)
        eval_value_many(e, plane, pts)
        eval_jets_many((e, f), plane, pts, order=order)
        eval_jets_many([e, f], plane, pts[:1], order=order)
    assert compiled == [(e,), (e, f)]
    eval_jets_many((e, parse("x^2-y")), plane, pts)  # a new tree is a new key
    assert len(compiled) == 3


def test_root_is_freed_without_the_cyclic_gc(plane):
    gc.disable()
    try:
        e = parse("sin(x)*y + x^2")
        for order in (0, 1, 2):
            eval_jet2(e, plane, (0.5, 0.25), order=order)
        ref = weakref.ref(e)
        del e
        assert ref() is None
    finally:
        gc.enable()


def test_reused_id_never_reads_an_old_plan(plane):
    x, y = Coord("x"), Coord("y")
    reused = 0
    for _ in range(20):
        old = Bin("+", x, y)
        assert eval_value(old, plane, (1.0, 2.0)) == 3.0
        old_id = id(old)
        del old
        held, new = [], Bin("*", x, y)
        while id(new) != old_id and len(held) < 100:
            held.append(new)  # kept alive, so the next tree takes a new address
            new = Bin("*", x, y)
        reused += id(new) == old_id
        assert eval_value(new, plane, (1.0, 2.0)) == 2.0
    assert reused  # the case of a shared id did occur


def test_value_points_are_validated(plane):
    e = parse("x+y")
    with pytest.raises(ValueError):
        eval_value_many(e, plane, [[1.0, 2.0, 5.0]])
    with pytest.raises(ValueError):
        eval_value_many(e, plane, [1.0, 2.0])
    assert list(eval_value_many(e, plane, [[1.0, 2.0]])) == [3.0]
