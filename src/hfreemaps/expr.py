"""Expression language over named chart coordinates.

Grammar (infix, ``^`` binds tightest, then unary minus, then ``* /``,
then ``+ -``; ``^`` is right associative)::

    expr    = term { ("+" | "-") term }
    term    = factor { ("*" | "/") factor }
    factor  = "-" factor | power
    power   = atom [ "^" factor ]
    atom    = NUMBER | IDENT | IDENT "(" expr ")" | "(" expr ")"

Built-in functions: ``sin cos exp log sqrt tanh``.  Identifiers that are
not function names are coordinate references, resolved against a
:class:`Chart` at evaluation time.

One evaluator produces jets (:class:`~hfreemaps.jet.Jet2`) with exact
propagation rules, truncated at the order the caller reads: 0 for
values (``eval_value``, ``eval_value_many``, the right-hand side of the
linearized system), 1 for gradients (``lie``, frame fields, brackets,
transversality), 2 for Hessians (freedom matrices, curve freeness).
There is no numerical differencing anywhere in this module.  The
evaluator walks a tuple of trees without recursion, so depth is
unbounded; it evaluates a subtree shared by identity once per call,
across all the trees of the call (``eval_jets_many`` stacks the jets of
map components, field components or gradient rows from one walk), and
frees every intermediate result after its last use, so memory stays at
the size of the results still awaited.  A single point is evaluated as
a batch of one, so its jet equals the batched one bit for bit.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass

import numpy as np

from .errors import ExprSyntaxError, UnknownCoordinate, UnknownFunction
from .jet import Jet2, jcos, jexp, jlog, jpow, jsin, jsqrt, jtanh

FUNCTIONS = ("sin", "cos", "exp", "log", "sqrt", "tanh")

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*\Z")


class Expr:
    """Base class of expression nodes.

    Nodes are immutable; the operators build new trees, coercing plain
    numbers to literals, which makes symbolic assembly of products,
    sums and compositions convenient.
    """

    __slots__ = ()

    def __add__(self, other):
        return Bin("+", self, as_expr(other))

    def __radd__(self, other):
        return Bin("+", as_expr(other), self)

    def __sub__(self, other):
        return Bin("-", self, as_expr(other))

    def __rsub__(self, other):
        return Bin("-", as_expr(other), self)

    def __mul__(self, other):
        return Bin("*", self, as_expr(other))

    def __rmul__(self, other):
        return Bin("*", as_expr(other), self)

    def __truediv__(self, other):
        return Bin("/", self, as_expr(other))

    def __rtruediv__(self, other):
        return Bin("/", as_expr(other), self)

    def __pow__(self, other):
        return Bin("^", self, as_expr(other))

    def __neg__(self):
        return Neg(self)

    def __str__(self):
        return render(self)


@dataclass(frozen=True)
class Num(Expr):
    value: float


@dataclass(frozen=True)
class Coord(Expr):
    name: str


@dataclass(frozen=True)
class Neg(Expr):
    arg: Expr


@dataclass(frozen=True)
class Call(Expr):
    func: str
    arg: Expr


@dataclass(frozen=True)
class Bin(Expr):
    op: str
    left: Expr
    right: Expr


def as_expr(x) -> Expr:
    if isinstance(x, Expr):
        return x
    if isinstance(x, (int, float, np.integer, np.floating)):
        return Num(float(x))
    raise TypeError(f"cannot interpret {x!r} as an expression")


@dataclass(frozen=True)
class Chart:
    """Local coordinate system: an ordered tuple of distinct names."""

    coords: tuple[str, ...]

    def __post_init__(self):
        if isinstance(self.coords, list):
            object.__setattr__(self, "coords", tuple(self.coords))
        if len(self.coords) < 1:
            raise ValueError("chart needs at least one coordinate")
        if len(set(self.coords)) != len(self.coords):
            raise ValueError("chart coordinate names must be distinct")
        for name in self.coords:
            if not _IDENT_RE.match(name):
                raise ValueError(f"invalid coordinate name {name!r}")
            if name in FUNCTIONS:
                raise ValueError(f"{name!r} is a reserved function name")

    @property
    def dim(self) -> int:
        return len(self.coords)

    def index(self, name: str) -> int:
        try:
            return self.coords.index(name)
        except ValueError:
            raise UnknownCoordinate(name) from None


# ---------------------------------------------------------------------------
# parsing


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            offset = len(text) - len(stripped)
            raise ExprSyntaxError(f"unexpected character {text[offset]!r}", offset)
        if m.group("num") is not None:
            tokens.append(("num", m.group("num"), m.start("num")))
        elif m.group("ident") is not None:
            tokens.append(("ident", m.group("ident"), m.start("ident")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def fail(self, expected: tuple[str, ...]):
        kind, value, offset = self.peek()
        what = "end of input" if kind == "end" else repr(value)
        raise ExprSyntaxError(f"unexpected {what}", offset, expected)

    def expect_op(self, op: str):
        kind, value, _ = self.peek()
        if kind == "op" and value == op:
            return self.advance()
        self.fail((f'"{op}"',))

    def parse(self) -> Expr:
        e = self.expr()
        if self.peek()[0] != "end":
            self.fail(("operator", "end of input"))
        return e

    def expr(self) -> Expr:
        e = self.term()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.advance()
                e = Bin(value, e, self.term())
            else:
                return e

    def term(self) -> Expr:
        e = self.factor()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "*/":
                self.advance()
                e = Bin(value, e, self.factor())
            else:
                return e

    def factor(self) -> Expr:
        kind, value, _ = self.peek()
        if kind == "op" and value == "-":
            self.advance()
            return Neg(self.factor())
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        kind, value, _ = self.peek()
        if kind == "op" and value == "^":
            self.advance()
            return Bin("^", base, self.factor())
        return base

    def atom(self) -> Expr:
        kind, value, offset = self.peek()
        if kind == "num":
            self.advance()
            return Num(float(value))
        if kind == "ident":
            self.advance()
            nkind, nvalue, _ = self.peek()
            if nkind == "op" and nvalue == "(":
                if value not in FUNCTIONS:
                    raise UnknownFunction(value, offset)
                self.advance()
                arg = self.expr()
                self.expect_op(")")
                return Call(value, arg)
            if value in FUNCTIONS:
                raise ExprSyntaxError(
                    f"function {value!r} used without arguments", offset, ('"("',))
            return Coord(value)
        if kind == "op" and value == "(":
            self.advance()
            e = self.expr()
            self.expect_op(")")
            return e
        self.fail(("number", "identifier", '"("'))


def parse(text: str) -> Expr:
    """Parse expression text into an :class:`Expr` tree."""
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# rendering

# Context precedences: 1 additive, 2 multiplicative, 3 unary minus, 4 power.
# Right operands of -, / and left operands of ^ are parenthesized at equal
# precedence so the reparsed tree evaluates bit-identically.


def render(e: Expr) -> str:
    """Render with minimal parentheses; ``parse(render(e))`` evaluates like ``e``."""
    return _render(e, 0)


def _render(e: Expr, ctx: int) -> str:
    if isinstance(e, Num):
        v = e.value
        text = repr(int(v)) if v.is_integer() and abs(v) < 1e15 else repr(v)
        # a negative literal binds like unary minus once re-parsed
        return f"({text})" if v < 0 and ctx > 3 else text
    if isinstance(e, Coord):
        return e.name
    if isinstance(e, Call):
        return f"{e.func}({_render(e.arg, 0)})"
    if isinstance(e, Neg):
        inner = "-" + _render(e.arg, 3)
        return f"({inner})" if ctx > 3 else inner
    if isinstance(e, Bin):
        if e.op in "+-":
            prec = 1
            text = _render(e.left, prec) + e.op + _render(e.right, prec + 1)
        elif e.op in "*/":
            prec = 2
            text = _render(e.left, prec) + e.op + _render(e.right, prec + 1)
        else:  # ^ is right associative and its base must be an atom
            prec = 4
            text = _render(e.left, prec + 1) + e.op + _render(e.right, 3)
        return f"({text})" if ctx > prec else text
    raise TypeError(f"not an expression node: {e!r}")


# ---------------------------------------------------------------------------
# evaluation


def coordinates(e: Expr) -> set[str]:
    """Names of all coordinates referenced by ``e``."""
    out: set[str] = set()
    stack = [e]
    while stack:
        node = stack.pop()
        if isinstance(node, Coord):
            out.add(node.name)
        elif isinstance(node, Neg):
            stack.append(node.arg)
        elif isinstance(node, Call):
            stack.append(node.arg)
        elif isinstance(node, Bin):
            stack.append(node.left)
            stack.append(node.right)
    return out


_UNARY = {"sin": jsin, "cos": jcos, "exp": jexp, "log": jlog,
          "sqrt": jsqrt, "tanh": jtanh}

_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul,
           "/": operator.truediv}


def _constant_exponent(e: Expr) -> float | None:
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Neg) and isinstance(e.arg, Num):
        return -e.arg.value
    return None


def _schedule(roots: tuple[Expr, ...]):
    """``(node, operands)`` for each node below ``roots`` that is distinct
    by identity, in the order a recursive left-to-right evaluation of one
    root after the other finishes them, and the number of readers of each
    node.  Each distinct root counts one reader more, so its result
    outlives the walk.  A constant exponent is read from the tree, so it
    is no operand."""
    schedule = []
    readers: dict[int, int] = {}
    for root in roots:
        readers[id(root)] = 1
    expanded: set[int] = set()
    stack = list(roots[::-1])  # nodes to expand, and (node, operands) once expanded
    while stack:
        node = stack.pop()
        kind = type(node)
        if kind is tuple:  # its operands are scheduled
            schedule.append(node)
            continue
        if id(node) in expanded:
            continue
        expanded.add(id(node))
        if kind is Bin:
            if node.op == "^" and _constant_exponent(node.right) is not None:
                operands = (node.left,)
            else:
                operands = (node.left, node.right)
        elif kind is Neg or kind is Call:
            operands = (node.arg,)
        elif kind is Num or kind is Coord:
            schedule.append((node, ()))
            continue
        else:
            raise TypeError(f"not an expression node: {node!r}")
        stack.append((node, operands))
        for arg in reversed(operands):
            key = id(arg)
            readers[key] = readers.get(key, 0) + 1
            if key not in expanded:
                stack.append(arg)
    return schedule, readers


def _evaluate(roots: tuple[Expr, ...], chart: Chart, pts: np.ndarray,
              order: int) -> dict[int, Jet2]:
    """Jets of ``roots`` at ``pts`` truncated at ``order`` from one walk,
    keyed by the ``id`` of each root: each scheduled node is evaluated
    once, and every result but a root's is dropped once its last reader
    has taken it."""
    if order not in (0, 1, 2):
        raise ValueError(f"order must be 0, 1 or 2, got {order!r}")
    schedule, readers = _schedule(roots)
    m, batch = chart.dim, pts.shape[:-1]
    results: dict[int, Jet2] = {}
    for node, operands in schedule:
        kind = type(node)
        if kind is Num:
            jet = Jet2.constant(node.value, m, batch, order)
        elif kind is Coord:
            index = chart.index(node.name)
            jet = Jet2.coordinate(pts[..., index], index, m, order)
        else:
            args = []
            for arg in operands:
                key = id(arg)
                args.append(results[key])
                readers[key] -= 1
                if not readers[key]:
                    del results[key]
            if kind is Neg:
                jet = -args[0]
            elif kind is Call:
                jet = _UNARY[node.func](args[0])
            elif node.op != "^":
                jet = _BINARY[node.op](*args)
            elif len(args) == 2:
                jet = jpow(*args)
            else:
                c = _constant_exponent(node.right)
                jet = args[0].powi(int(c)) if float(c).is_integer() else args[0].powf(c)
        results[id(node)] = jet
    return results


def _batch(points, chart: Chart) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != chart.dim:
        raise ValueError(f"points must have shape (B, {chart.dim})")
    return pts


def eval_jet2(e: Expr, chart: Chart, p, order: int = 2) -> Jet2:
    """Exact jet of ``e`` at a single point ``p``, truncated at ``order``
    (0: value, 1: value and gradient, 2: value, gradient and Hessian)."""
    pts = np.asarray(p, dtype=float)
    if pts.shape != (chart.dim,):
        raise ValueError(f"point must have {chart.dim} entries, got shape {pts.shape}")
    # a batch of one, so that numpy takes the same paths as for a batch
    jet = _evaluate((e,), chart, pts[None, :], order)[id(e)]
    return Jet2(*[None if part is None else part[0]
                  for part in (jet.value, jet.gradient, jet.hessian)])


def eval_jet2_many(e: Expr, chart: Chart, points, order: int = 2) -> Jet2:
    """Batched jets: ``points (B, m)`` gives value ``(B,)``, gradient
    ``(B, m)``, Hessian ``(B, m, m)``, up to ``order``."""
    return _evaluate((e,), chart, _batch(points, chart), order)[id(e)]


def eval_jets_many(exprs, chart: Chart, points, order: int = 2) -> Jet2:
    """Jets of a sequence of ``R`` expressions from one walk, stacked on
    axis 1: ``points (B, m)`` gives value ``(B, R)``, gradient
    ``(B, R, m)``, Hessian ``(B, R, m, m)``, up to ``order``.  Slice
    ``r`` equals ``eval_jet2_many(exprs[r], ...)`` bit for bit."""
    pts, exprs = _batch(points, chart), tuple(exprs)
    results = _evaluate(exprs, chart, pts, order)
    # filled in place: at one point np.stack costs as much as a small tree
    parts = [np.empty((len(pts), len(exprs)) + (chart.dim,) * i) for i in range(order + 1)]
    for r, e in enumerate(exprs):
        jet = results[id(e)]
        for stacked, part in zip(parts, (jet.value, jet.gradient, jet.hessian)):
            stacked[:, r] = part
    return Jet2(*parts)


def eval_value(e: Expr, chart: Chart, p) -> float:
    """Value of ``e`` at a single point (the order-0 jet)."""
    return float(eval_jet2(e, chart, p, order=0).value)


def eval_value_many(e: Expr, chart: Chart, points) -> np.ndarray:
    """Values only, the order-0 jet; ``points (B, m) -> (B,)``."""
    return _evaluate((e,), chart, np.asarray(points, dtype=float), 0)[id(e)].value


# ---------------------------------------------------------------------------
# structural transforms


def substitute(e: Expr, mapping: dict[str, Expr]) -> Expr:
    """Replace coordinate references by expressions (simultaneous)."""
    if isinstance(e, Num):
        return e
    if isinstance(e, Coord):
        return mapping.get(e.name, e)
    if isinstance(e, Neg):
        return Neg(substitute(e.arg, mapping))
    if isinstance(e, Call):
        return Call(e.func, substitute(e.arg, mapping))
    if isinstance(e, Bin):
        return Bin(e.op, substitute(e.left, mapping), substitute(e.right, mapping))
    raise TypeError(f"not an expression node: {e!r}")


def _is_zero(e: Expr) -> bool:
    return isinstance(e, Num) and e.value == 0.0


def _is_one(e: Expr) -> bool:
    return isinstance(e, Num) and e.value == 1.0


def fold_add(a: Expr, b: Expr) -> Expr:
    if _is_zero(a):
        return b
    if _is_zero(b):
        return a
    if isinstance(a, Num) and isinstance(b, Num):
        return Num(a.value + b.value)
    return Bin("+", a, b)


def fold_sub(a: Expr, b: Expr) -> Expr:
    if _is_zero(b):
        return a
    if isinstance(a, Num) and isinstance(b, Num):
        return Num(a.value - b.value)
    if _is_zero(a):
        return Neg(b)
    return Bin("-", a, b)


def fold_mul(a: Expr, b: Expr) -> Expr:
    if _is_zero(a) or _is_zero(b):
        return Num(0.0)
    if _is_one(a):
        return b
    if _is_one(b):
        return a
    if isinstance(a, Num) and isinstance(b, Num):
        return Num(a.value * b.value)
    return Bin("*", a, b)


def derivative(e: Expr, name: str) -> Expr:
    """Exact partial derivative as a new tree.

    Support routine for assembling symbolic Lie derivatives, predicted
    determinants and Hamiltonian frames; it is not part of the surface
    expression grammar.
    """
    if isinstance(e, Num):
        return Num(0.0)
    if isinstance(e, Coord):
        return Num(1.0 if e.name == name else 0.0)
    if isinstance(e, Neg):
        d = derivative(e.arg, name)
        return Num(0.0) if _is_zero(d) else Neg(d)
    if isinstance(e, Call):
        inner = derivative(e.arg, name)
        if _is_zero(inner):
            return Num(0.0)
        a = e.arg
        if e.func == "sin":
            outer: Expr = Call("cos", a)
        elif e.func == "cos":
            outer = Neg(Call("sin", a))
        elif e.func == "exp":
            outer = Call("exp", a)
        elif e.func == "log":
            return Bin("/", inner, a)
        elif e.func == "sqrt":
            return Bin("/", inner, fold_mul(Num(2.0), Call("sqrt", a)))
        else:  # tanh
            outer = fold_sub(Num(1.0), Bin("^", Call("tanh", a), Num(2.0)))
        return fold_mul(outer, inner)
    if isinstance(e, Bin):
        da = derivative(e.left, name)
        db = derivative(e.right, name)
        if e.op == "+":
            return fold_add(da, db)
        if e.op == "-":
            return fold_sub(da, db)
        if e.op == "*":
            return fold_add(fold_mul(da, e.right), fold_mul(e.left, db))
        if e.op == "/":
            num = fold_sub(fold_mul(da, e.right), fold_mul(e.left, db))
            if _is_zero(num):
                return Num(0.0)
            return Bin("/", num, fold_mul(e.right, e.right))
        # power: constant exponent uses the monomial rule, otherwise
        # differentiate exp(b log a)
        c = _constant_exponent(e.right)
        if c is not None and _is_zero(db):
            if c == 0.0:
                return Num(0.0)
            rest = fold_mul(Num(c), Bin("^", e.left, Num(c - 1.0)))
            return fold_mul(rest, da)
        log_term = fold_mul(db, Call("log", e.left))
        ratio = Bin("/", fold_mul(e.right, da), e.left) if not _is_zero(da) else Num(0.0)
        return fold_mul(e, fold_add(log_term, ratio))
    raise TypeError(f"not an expression node: {e!r}")
