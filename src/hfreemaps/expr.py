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
There is no numerical differencing anywhere in this module.  A tuple of
roots (``eval_jets_many`` stacks the jets of map components, field
components or gradient rows) is compiled once, without recursion, into a
plan: a flat tuple of ``jet.py`` rules over numbered slots, in which
nodes of equal structure (leaves by coordinate name or by the bits of
the constant, operations by rule and operand slots) share one step.
``eval_jet_groups`` replays one plan for several groups of roots, each at
its own order (a map at order 2 with its frame at order 1, say): the
replay of a plan for given root orders evaluates every node at the
highest order at which a root above it is read, leaves at that order
and a truncation step wherever a node needs less than its operands
carry, so a node that groups share runs once and none runs higher than
it is read.  The plan and its replays are cached on the first root,
keyed by the identity of the others, and hold no node, so they die with
their trees.  Each call replays it and frees every slot after its last
reader.  No source text is
generated: compiling it costs more than the few calls a fresh tree of
the linearized inversion gets.  A single point is evaluated as a batch
of one, so its jet equals the batched one bit for bit.
"""

from __future__ import annotations

import operator
import re
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ExprSyntaxError, UnknownCoordinate, UnknownFunction
from .jet import Jet2, jcos, jexp, jlog, jpow, jsin, jsqrt, jtanh

FUNCTIONS = ("sin", "cos", "exp", "log", "sqrt", "tanh")

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*\Z")


def _operator(op: str, reflected: bool = False):
    if reflected:
        return lambda self, other: Bin(op, as_expr(other), self)
    return lambda self, other: Bin(op, self, as_expr(other))


class Expr:
    """Base class of expression nodes.

    Nodes are immutable; the operators build new trees, coercing plain
    numbers to literals, which makes symbolic assembly of products,
    sums and compositions convenient.  A node's ``__dict__`` holds only
    the evaluation plans cached on it, which stay out of ``==`` and
    ``hash``.
    """

    __slots__ = ()
    __add__, __radd__ = _operator("+"), _operator("+", True)
    __sub__, __rsub__ = _operator("-"), _operator("-", True)
    __mul__, __rmul__ = _operator("*"), _operator("*", True)
    __truediv__, __rtruediv__ = _operator("/"), _operator("/", True)
    __pow__ = _operator("^")

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


def coordinates(*exprs: Expr) -> set[str]:
    """Names of all coordinates referenced by ``exprs``: the leaves of
    their plan, which a later evaluation of the same tuple reuses."""
    return {rule for rule, a, _ in _plan(exprs)[0] if a is None and type(rule) is str}


_UNARY = {"sin": jsin, "cos": jcos, "exp": jexp, "log": jlog,
          "sqrt": jsqrt, "tanh": jtanh}

_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul,
           "/": operator.truediv, "^": jpow}

# the leading parts of a jet, sharing its arrays, by the order kept
_TRUNCATE = (lambda jet: Jet2(jet.value), lambda jet: Jet2(jet.value, jet.gradient))

_BITS = struct.Struct("<d").pack  # a constant's key: its bits, so 0.0 and -0.0 differ
_PLANS_PER_HEAD = 8


def _constant_exponent(e: Expr) -> float | None:
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Neg) and isinstance(e.arg, Num):
        return -e.arg.value
    return None


def _node(node: Expr):
    """Tag, jet rule and operands of ``node``; the tag, with any operand
    slots, is its structural key.  A constant exponent is in the rule."""
    kind = type(node)
    if kind is Bin:
        c = _constant_exponent(node.right) if node.op == "^" else None
        if c is None:
            return node.op, _BINARY[node.op], (node.left, node.right)
        power = ("powi", int(c)) if float(c).is_integer() else ("powf", c)
        return _BITS(c), operator.methodcaller(*power), (node.left,)
    if kind is Neg:
        return "neg", operator.neg, (node.arg,)
    if kind is Call:
        return node.func, _UNARY[node.func], (node.arg,)
    if kind is Num:
        return _BITS(node.value), node.value, ()
    if kind is Coord:
        return node.name, node.name, ()
    raise TypeError(f"not an expression node: {node!r}")


def _compile(roots: tuple[Expr, ...]):
    """The plan of ``roots``: ``(steps, outputs)``.  Step ``(rule, a, b)``
    fills the next slot with a leaf (``rule`` is a coordinate name or a
    constant) or with ``rule`` applied to operand slots ``a`` and ``b``
    (``None`` where absent); ``outputs`` are the root slots.  Steps follow
    a recursive left-to-right evaluation of one root after the other, so
    a domain error is the one the first failing node raises."""
    steps, slot_of = [], {}  # slot_of: structural key -> slot
    done = {}  # id -> (node, slot); the roots keep every node alive meanwhile
    stack = list(roots[::-1])  # nodes to expand, and (node, tag, rule, operands)
    while stack:
        node = stack.pop()
        if type(node) is tuple:  # its operands have slots
            node, tag, rule, operands = node
            a = done[id(operands[0])][1]
            b = done[id(operands[1])][1] if len(operands) == 2 else None
            key = tag, a, b
        elif id(node) in done:
            continue
        else:
            key, rule, operands = _node(node)
            if operands:
                done[id(node)] = node, None
                stack.append((node, key, rule, operands))
                for arg in operands[::-1]:
                    if id(arg) not in done:
                        stack.append(arg)
                continue
            a = b = None
        slot = slot_of.setdefault(key, len(steps))
        if slot == len(steps):
            steps.append((rule, a, b))
        done[id(node)] = node, slot
    return tuple(steps), tuple([done[id(root)][1] for root in roots])


def _schedule(steps, outputs, orders: list):
    """The replay of a plan whose root ``r`` is read at ``orders[r]``:
    ``(steps, outputs)`` with step ``(rule, a, b, freed)``.  Every node is
    evaluated at the highest order at which a root above it is read, which
    a leaf step names in ``b`` (its ``a`` is ``None``); where all operands
    of a node carry more, a truncation step hands one operand's leading
    parts on.  Each step frees the slots it read last."""
    for order in set(orders) - {0, 1, 2}:
        raise ValueError(f"order must be 0, 1 or 2, got {order!r}")
    need = [max(orders, default=0)] * len(steps)
    if len(set(orders)) > 1:  # then some nodes are read below the highest order
        need = [0] * len(steps)
        for slot, order in zip(outputs, orders):
            need[slot] = max(need[slot], order)
        for i in range(len(steps) - 1, -1, -1):  # operands precede their readers
            for s in steps[i][1:]:
                if s is not None and need[s] < need[i]:
                    need[s] = need[i]
    replay, new, cut = [], [], {}  # new: structural slot -> replay slot

    def read(s, order):  # the replay slot of node s at the lower ``order``
        if (s, order) not in cut:
            cut[s, order] = len(replay)
            replay.append((_TRUNCATE[order], new[s], None))
        return cut[s, order]

    for (rule, a, b), order in zip(steps, need):
        if a is None:
            replay.append((rule, None, order))
        elif b is None:
            replay.append((rule, new[a] if need[a] == order else read(a, order), None))
        elif need[a] > order < need[b]:
            replay.append((rule, read(a, order), new[b]))
        else:
            replay.append((rule, new[a], new[b]))
        new.append(len(replay) - 1)
    outputs = tuple([new[s] for s in outputs])
    plan, kept = [], {None, *outputs}  # kept: results, and slots a later step reads
    for rule, a, b in reversed(replay):
        freed = () if a is None else tuple({a, b} - kept)
        kept.update(freed)
        plan.append((rule, a, b, freed))
    return tuple(plan[::-1]), outputs


def _plan(roots: tuple[Expr, ...]):
    """The plan of ``roots`` and its replays by root orders, compiled on
    first use and cached on ``roots[0]`` under ``roots[1:]``, which a
    later call must match by identity; the newest few plans are kept per
    head."""
    if not roots:
        return (), (), {}
    head, rest = roots[0], roots[1:]
    cache = vars(head).setdefault("_plans", [])
    for key, plan in cache:
        if len(key) == len(rest) and all(map(operator.is_, key, rest)):
            return plan
    plan = (*_compile(roots), {})
    cache.insert(0, (rest, plan))
    del cache[_PLANS_PER_HEAD:]
    return plan


def _evaluate(roots: tuple[Expr, ...], chart: Chart, pts: np.ndarray,
              order) -> list[Jet2]:
    """Jets of ``roots`` at ``pts``, one per root, truncated at ``order``,
    or at its own order in each group ``((count, order), ...)`` of
    consecutive roots, from one replay of their plan: each step runs
    once, and every slot but a root's is dropped after its last reader."""
    plan = _plan(roots)
    replay = plan[2].get(order)
    if replay is None:
        orders = ([o for count, o in order for _ in range(count)]
                  if isinstance(order, tuple) else [order] * len(roots))
        replay = plan[2][order] = _schedule(plan[0], plan[1], orders)
    steps, outputs = replay
    m, batch, slots = chart.dim, pts.shape[:-1], []
    for rule, a, b, freed in steps:
        if a is None:  # a leaf, at order b
            if type(rule) is str:
                index = chart.index(rule)
                jet = Jet2.coordinate(pts[..., index], index, m, b)
            else:
                jet = Jet2.constant(rule, m, batch, b)
        elif b is None:
            jet = rule(slots[a])
        else:
            jet = rule(slots[a], slots[b])
        slots.append(jet)
        for s in freed:
            slots[s] = None
    return [slots[s] for s in outputs]


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
    jet, = _evaluate((e,), chart, pts[None, :], order)
    return Jet2(*[None if part is None else part[0]
                  for part in (jet.value, jet.gradient, jet.hessian)])


def eval_jet2_many(e: Expr, chart: Chart, points, order: int = 2) -> Jet2:
    """Batched jets: ``points (B, m)`` gives value ``(B,)``, gradient
    ``(B, m)``, Hessian ``(B, m, m)``, up to ``order``."""
    return _evaluate((e,), chart, _batch(points, chart), order)[0]


def _stack(jets: list[Jet2], order: int, batch: int, m: int) -> Jet2:
    """``jets`` stacked on axis 1, up to ``order``; filled in place, since
    at one point np.stack costs as much as a small tree."""
    parts = [np.empty((batch, len(jets)) + (m,) * i) for i in range(order + 1)]
    for r, jet in enumerate(jets):
        for stacked, part in zip(parts, (jet.value, jet.gradient, jet.hessian)):
            stacked[:, r] = part
    return Jet2(*parts)


def eval_jet_groups(groups, chart: Chart, points) -> list[Jet2]:
    """Jets of groups ``((exprs, order), ...)`` of expressions from one
    replay, each group stacked as :func:`eval_jets_many` stacks it and
    truncated at its own order.  A node that groups share runs once, at
    the highest order a group reads it; group ``g`` equals
    ``eval_jets_many(*groups[g], ...)`` bit for bit, and the groups replay
    in turn, so a domain error is the one those calls would raise first."""
    pts, roots, shape = _batch(points, chart), (), ()
    for exprs, order in groups:
        exprs = tuple(exprs)
        roots += exprs
        shape += ((len(exprs), order),)
    jets, stacks, start = _evaluate(roots, chart, pts, shape), [], 0
    for count, order in shape:
        stacks.append(_stack(jets[start:start + count], order, len(pts), chart.dim))
        start += count
    return stacks


def eval_jets_many(exprs, chart: Chart, points, order: int = 2) -> Jet2:
    """Jets of a sequence of ``R`` expressions from one walk, stacked on
    axis 1: ``points (B, m)`` gives value ``(B, R)``, gradient
    ``(B, R, m)``, Hessian ``(B, R, m, m)``, up to ``order``.  Slice
    ``r`` equals ``eval_jet2_many(exprs[r], ...)`` bit for bit; the one
    group of :func:`eval_jet_groups`."""
    pts, exprs = _batch(points, chart), tuple(exprs)
    return _stack(_evaluate(exprs, chart, pts, order), order, len(pts), chart.dim)


def eval_value(e: Expr, chart: Chart, p) -> float:
    """Value of ``e`` at a single point (the order-0 jet)."""
    return float(eval_jet2(e, chart, p, order=0).value)


def eval_value_many(e: Expr, chart: Chart, points) -> np.ndarray:
    """Values only, the order-0 jet; ``points (B, m) -> (B,)``."""
    return _evaluate((e,), chart, _batch(points, chart), 0)[0].value


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
