"""Transversal functions on planar windows.

For a regular field on a window this module integrates flow lines,
builds tubes around orthogonal leaves, evaluates the monotone-step tube
functions, glues weighted tubes into a single grid function, and checks
positivity of the directional derivative, either by centered
differences on the glued grid or by exact jets for closed-form
candidates.

One Dormand-Prince loop integrates independent groups of rows at once,
dense output included (:func:`_integrate_groups`); a single integration
(:func:`_integrate`, :func:`flow`) is its one-group case, and
:func:`build_tubes` makes a glue's tubes in two such calls.  Tube location
pairs each table cell with the window nodes in its bounding box, read off
the node raster, and solves only the pairs that the cell's edges do not
rule out.  A tube carries its field and window, so :func:`tube_function`
and :func:`glue` read them from their tubes.  Every tube function steps
through one closed form, :func:`step`, of the located flow time.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .artifacts import write_text
from .errors import BlowUp, CoverageGap, DomainError, HfreeError, OutsideTube
from .lie import VectorField, value_and_lie

__all__ = [
    "Window",
    "Tube",
    "TubeValues",
    "GlueResult",
    "TransversalReport",
    "flow",
    "build_tube",
    "build_tubes",
    "step",
    "tube_function",
    "glue",
    "verify_transversal",
    "write_grid_csv",
]


@dataclass(frozen=True)
class Window:
    """Rectangle with a node grid; values live on ``(ny, nx)`` arrays."""

    x0: float
    x1: float
    y0: float
    y1: float
    nx: int = 101
    ny: int = 101

    def __post_init__(self):
        if not (self.x0 < self.x1 and self.y0 < self.y1):
            raise ValueError("window must have positive extent")
        if self.nx < 2 or self.ny < 2:
            raise ValueError("grid resolution must be at least 2")

    def xs(self) -> np.ndarray:
        return np.linspace(self.x0, self.x1, self.nx)

    def ys(self) -> np.ndarray:
        return np.linspace(self.y0, self.y1, self.ny)

    def nodes(self) -> np.ndarray:
        """All grid nodes, shape ``(ny * nx, 2)``, x fastest."""
        X, Y = np.meshgrid(self.xs(), self.ys())
        return np.column_stack([X.ravel(), Y.ravel()])

    def padded_box(self, pad: float) -> tuple[np.ndarray, np.ndarray]:
        lo = np.array([self.x0 - pad, self.y0 - pad])
        hi = np.array([self.x1 + pad, self.y1 + pad])
        return lo, hi


# ---------------------------------------------------------------------------
# adaptive Dormand-Prince 5(4) integration

# stage times are not needed: the integrated fields are autonomous
_DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
)
_DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_DP_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640,
                   -92097 / 339200, 187 / 2100, 1 / 40])
_DP_E = _DP_B5 - _DP_B4
# the free 4th-order continuous extension, in the form of Hairer, Norsett
# and Wanner, Solving ODEs I, sec. II.6
_DP_D = np.array([-12715105075 / 11282082432, 0.0, 87487479700 / 32700410799,
                  -10690763975 / 1880347072, 701980252875 / 199316789632,
                  -1453857185 / 822651844, 69997945 / 29380423])


@dataclass(frozen=True)
class _Group:
    """One problem of a grouped integration: the state ``y0`` (one row or
    a batch of rows), its sample ``times``, and its own ``stop`` and
    ``freeze_box``, read as :func:`_integrate` reads them."""

    y0: np.ndarray
    times: np.ndarray
    stop: Callable | None = None
    freeze_box: tuple | None = None


# the coefficient of each stage derivative (column) in each sum (row):
# the five stage increments, the 5th-order step, the error estimate and
# the dense output's fourth-order term.  Derivative i enters rows i to 7,
# the last one rows 6 and 7 only, so no padding zero is ever added.
_DP_SUMS = np.array([a + (0.0,) * (7 - len(a)) for a in _DP_A[1:]] + [_DP_B5, _DP_E, _DP_D])
_QUARTER_TURN = np.array([-1.0, 1.0])  # times (v1, v0): the turned vector (-v1, v0)


def _dp_stages(fun, y, k1, step, rows):
    """One step of length ``step`` (per row) from ``y``: the end state,
    its derivative, and the sums of the error estimate and of the dense
    output's fourth-order term, each still to be multiplied by ``step``.
    Each stage derivative is added into every sum that takes it at once;
    every sum adds its terms in stage order onto 0."""
    sums = np.zeros((8,) + y.shape)
    k = k1
    for stage in range(6):
        sums[stage:] += _DP_SUMS[stage:, stage, None, None] * k
        if stage < 5:
            k = fun(y + step * sums[stage], rows)
    y5 = y + step * sums[5]
    k7 = fun(y5, rows)
    sums[6:] += _DP_SUMS[6:, 6, None, None] * k7
    return [y5, k7, sums[6], sums[7]]


def _across(op, mask: np.ndarray) -> np.ndarray:
    """``op`` of the columns of a 2-D mask, per row; for a few columns
    far cheaper than a reduction along the rows."""
    return functools.reduce(op, mask.T)


def _integrate_groups(fun, groups: list[_Group], rtol: float, atol: float) -> list:
    """Integrate independent groups of rows of ``dy/ds = fun(y, rows)``;
    ``rows`` indexes the evaluated rows among the stacked rows of all
    groups.  Returns, per group, what :func:`_integrate` returns for that
    group alone, or the library error (:class:`HfreeError`) that it raises.

    Every group keeps its own times, direction, step size, error norm
    (the mean over its own live rows), dense-output samples, ``stop``,
    freeze and errors, so it takes the steps it takes alone.  The stage
    derivatives, stage sums and dense output run once per step over the
    rows of every running group, into one buffer of all samples.  When
    the stages raise, the groups with a row that the error flags (all,
    if it flags none) shorten their step or end, and the others take the
    same step again in the next pass.  ``fun`` must give each row the
    bits it gives alone, and flag rows as jets do.
    """
    if not groups:
        return []
    y0s = [np.atleast_2d(np.array(g.y0, dtype=float)) for g in groups]
    sizes = np.array([len(y) for y in y0s], dtype=np.intp)
    reach = [np.abs(np.asarray(g.times, dtype=float)) for g in groups]
    times, t_first = np.concatenate(reach), np.cumsum([0] + [len(r) for r in reach[:-1]])
    # the spare last element takes the writes past a group's new samples
    span = [r.size * y.size for r, y in zip(reach, y0s)]
    buf, b_first = np.empty(sum(span) + 1), np.cumsum([0] + span[:-1])
    out = [buf[a:a + n].reshape((len(r),) + y.shape)
           for a, n, r, y in zip(b_first.tolist(), span, reach, y0s)]
    last = np.array([float(g.times[-1]) if len(g.times) else 0.0 for g in groups])
    # per running group: direction, time to reach and to go, step, samples
    # written, and the time to go to the end of the last step cut by a domain
    # error, which no step passes until the group reaches it
    direction = np.where(last > 0, 1.0, -1.0)
    total = remaining = np.abs(last)
    h, done = np.minimum(remaining, 0.1), np.zeros(len(groups), dtype=np.intp)
    room = np.full(len(groups), np.inf)
    results: list = [None] * len(groups)         # None while the group runs

    def finish(i, y_i):
        samples = out[act[i]]
        samples[done[i]:] = y_i  # the last sample, and those after every row froze
        stop = groups[act[i]].stop
        if stop is not None:
            samples = samples[:np.argmax(np.append(stop(samples), True))]
        results[act[i]] = samples[:, 0] if np.ndim(groups[act[i]].y0) == 1 else samples

    def attempt(call, seg):
        """``call()``, a list of arrays over the rows of all running groups,
        and no errors; else None, and the error by position of each group
        with a row that the error flags (of every group if it flags none)."""
        try:
            return call(), {}
        except HfreeError as exc:
            group = np.repeat(np.arange(len(seg) - 1), np.diff(seg))
            flagged = getattr(exc, "rows", None)
            hit = group if flagged is None else group[flagged]
            return None, dict.fromkeys(hit.tolist(), exc)

    def spread(per_group):  # over every element of the group's rows, as full
        return np.repeat(per_group, width, axis=-1)  # arrays: broadcasting is far slower

    # the running groups and the state of their rows, in group order
    act = np.arange(len(groups))
    y = np.concatenate(y0s)
    rows = np.arange(len(y))
    # each row's freeze box, unbounded for a group without one
    boxes = [g.freeze_box or (-np.inf, np.inf) for g in groups]
    lo, hi = (np.concatenate([np.broadcast_to(box[i], y0.shape) for box, y0 in zip(boxes, y0s)])
              for i in (0, 1))
    live = _across(np.logical_and, (y >= lo) & (y <= hi))
    k1 = None
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            keep = np.array([results[g] is None for g in act.tolist()], dtype=bool)
            if not keep.all():
                take = np.repeat(keep, sizes[act])
                act, y, live, rows = act[keep], y[take], live[take], rows[take]
                k1 = None if k1 is None else k1[take]
                lo, hi = lo[take], hi[take]
                direction, total, remaining, h, done, room = (
                    a[keep] for a in (direction, total, remaining, h, done, room))
            if not len(act):
                break
            seg, width = np.append(0, sizes[act].cumsum()), sizes[act] * y.shape[1]
            if k1 is None:  # the first stage derivative of the first step
                values, failed = attempt(lambda: [fun(y, rows)], seg)
                for i, exc in failed.items():
                    results[act[i]] = exc
                if values is not None:
                    k1 = values[0]
                    for i in range(len(act)):
                        if not (remaining[i] > 0.0 and np.any(live[seg[i]:seg[i + 1]])):
                            finish(i, y[seg[i]:seg[i + 1]])
                continue
            # a step that would leave less than the smallest allowed one takes it all
            limit = np.minimum(remaining, room)
            h = np.where(h > limit - 1e-13, limit, h)
            if np.any(h < 1e-13):
                for g in act[h < 1e-13].tolist():
                    results[g] = BlowUp("step size underflow (trajectory is not integrable here)")
                continue
            step = spread(direction * h).reshape(y.shape)
            values, failed = attempt(lambda: _dp_stages(fun, y, k1, step, rows), seg)
            for i, exc in failed.items():
                # a long step can reach past the field's domain: retry it shorter
                if isinstance(exc, DomainError) and not h[i] * 0.2 < 1e-13:
                    room[i], h[i] = h[i], h[i] * 0.2
                else:
                    results[act[i]] = exc
            if values is None:
                continue
            y5, k7, err_sum, fourth_sum = values
            err = step * err_sum
            scale = atol + rtol * np.maximum(np.abs(y), np.abs(y5))
            ratios, cut, everywhere = (err / scale) ** 2, seg, live.all()
            if not everywhere:
                ratios, cut = ratios[live], np.append(0, np.cumsum(live))[seg]
                live_full = np.repeat(live, y.shape[1]).reshape(y.shape)
            # np.mean's own sum and division, over each group's slice
            err_norm = np.sqrt([np.add.reduce(ratios[a:b], None) / ratios[a:b].size
                                for a, b in zip(cut[:-1].tolist(), cut[1:].tolist())])
            accepted = np.isfinite(err_norm) & (err_norm <= 1.0)
            factor = [0.2 if not math.isfinite(e) else 5.0 if e == 0.0 else 0.9 * e ** -0.2
                      for e in err_norm.tolist()]
            h_step, h = h, h * np.minimum(5.0, np.maximum(0.2, factor))
            if not accepted.any():
                continue

            start = total - remaining  # the time reached before the step
            remaining = np.where(accepted, remaining - h_step, remaining)
            room = np.where(accepted, room - h_step, room)
            room[room == 0.0] = np.inf  # the group reached the cut step's end
            upto = done.copy()
            upto[accepted] = [reach[g].searchsorted(t) for g, t in
                              zip(act[accepted].tolist(), (total - remaining)[accepted].tolist())]
            rise = y5 - y
            if np.any(upto > done):
                # every group's k-th new sample, or a write to the spare element
                k = np.arange(np.max(upto - done))[:, None]
                s = (times[np.minimum(t_first[act] + done + k, len(times) - 1)] - start) / h_step
                s, rest = (spread(a).reshape((len(k),) + y.shape) for a in (s, 1 - s))
                slope = step * k1 - rise
                bend = rise - step * k7 - slope
                dense = y + s * (rise + rest * (slope + s * (bend + rest * (step * fourth_sum))))
                at = spread(b_first[act] + (done + k) * width - seg[:-1] * y.shape[1])
                buf[np.where(spread(k < upto - done), at + np.arange(y.size), -1)] = (
                    dense if everywhere else np.where(live_full, dense, y)).reshape(len(k), -1)
            stopped = np.array([u > d and groups[g].stop is not None and np.any(groups[g].stop(
                out[g][d:u])) for g, d, u in zip(act.tolist(), done.tolist(), upto.tolist())])
            done = upto

            held = y5 if everywhere else np.where(live_full, y5, y)
            if accepted.all():
                y, k1 = held, k7
            else:
                moved = spread(accepted).reshape(y.shape)
                y, k1 = np.where(moved, held, y), np.where(moved, k7, k1)
            diverged = live & ~_across(np.logical_and, np.isfinite(held))
            inside = _across(np.logical_and, (held >= lo) & (held <= hi))
            live = live & (inside | ~np.repeat(accepted, sizes[act]))
            diverged, any_live = (np.logical_or.reduceat(a, seg[:-1]) for a in (diverged, live))
            for i in np.flatnonzero(accepted & (stopped | diverged | ~any_live
                                                | ~(remaining > 0.0))).tolist():
                if diverged[i] and not stopped[i]:
                    results[act[i]] = BlowUp("trajectory diverged to a non-finite state")
                else:
                    finish(i, y[seg[i]:seg[i + 1]])
    return results


def _integrate(fun, y0: np.ndarray, times, rtol: float, atol: float,
               freeze_box=None, stop=None) -> np.ndarray:
    """States of the autonomous system ``dy/ds = fun(y)`` at ``times``,
    which move away from 0 in one direction, by an adaptive Dormand-Prince
    5(4) pair.  The last state ends the last step; the others come from
    the dense output of the step holding them.

    ``stop`` flags batches of sampled states; the run ends before the
    first flagged one.  ``freeze_box`` holds any batch row at the end of
    the step that leaves the box, so the rest of a batch can keep
    integrating past a runaway trajectory.  A diverged state or a step
    size underflow raises :class:`BlowUp`.  This is the one-group case of
    :func:`_integrate_groups`.
    """
    result, = _integrate_groups(lambda y, rows: fun(y),
                                [_Group(y0, times, stop, freeze_box)], rtol, atol)
    if isinstance(result, Exception):
        raise result
    return result


def _field_fun(xi: VectorField):
    def fun(y: np.ndarray) -> np.ndarray:
        return xi.values(y) if y.ndim == 2 else xi.values(y[None, :])[0]

    return fun


def _unit_orthogonal(v: np.ndarray, floor) -> np.ndarray:
    """The field values ``v`` turned by a quarter and normalized; NaN where
    their norm is at most ``floor``, so that a step meeting such a point is
    rejected and a trajectory that runs into one ends in a step size
    underflow."""
    norm = np.sqrt(np.add.reduce(v * v, -1, keepdims=True))  # as np.linalg.norm sums
    return v[..., ::-1] * _QUARTER_TURN / np.where(norm > floor, norm, np.nan)


def flow(xi: VectorField, p, t: float, *, rtol: float = 1e-10,
         atol: float = 1e-10) -> np.ndarray:
    """Point reached from ``p`` after flowing along ``xi`` for time ``t``."""
    return _integrate(_field_fun(xi), np.asarray(p, dtype=float), [float(t)], rtol, atol)[-1]


# ---------------------------------------------------------------------------
# the monotone step of every tube function

# the step's slope at 0 is _STEP_RATE / 2; of the rates measured, 1 keeps
# the glue's smallest Lie derivative largest over shifted seeds (README)
_STEP_RATE = 1.0


def step(t) -> np.ndarray:
    """``(1 + tanh(c t / (1 - t^2))) / 2`` with ``c = _STEP_RATE``: a C^inf
    step from 0 to 1 across ``(-1, 1)``, exactly 1/2 at 0 and exactly 0 or
    1 where ``|t| >= 1``; NaN stays NaN."""
    t = np.asarray(t, dtype=float)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        rise = np.tanh(_STEP_RATE * t / (1.0 - t * t))
    return (1.0 + np.where(np.abs(t) < 1.0, rise, np.sign(t))) / 2.0


# ---------------------------------------------------------------------------
# tubes


@dataclass
class Tube:
    """Flow saturation of an orthogonal leaf, tabulated on an
    (arclength x flow-time) grid."""

    xi: VectorField
    seed: np.ndarray
    window: Window
    transversal: np.ndarray   # (S, 2) points along the orthogonal leaf
    times: np.ndarray         # (T,) flow times, strictly increasing, 0 included
    states: np.ndarray        # (S, T, 2) with states[:, t0] the transversal
    pad: float


def build_tubes(xi: VectorField, seeds, window: Window, *, t_span: float = 3.0,
                max_samples: int = 4000) -> list[Tube]:
    """The tube of each seed, bit for bit as :func:`build_tube` builds it
    alone, from two grouped integrations (:func:`_integrate_groups`): one
    for every leaf, two groups per seed (one per direction) that keep the
    ``1e-6 * |xi(seed)|`` floor of their seed, and one for every
    saturation, two groups per tube (one per time direction).  Raises the
    first error that building the tubes seed by seed would raise; the
    seeds after a failed floor or leaf are not integrated further."""
    seeds = [np.asarray(seed, dtype=float) for seed in seeds]
    ds = max(window.x1 - window.x0, window.y1 - window.y0) / 150.0
    pad, rtol, atol = 0.75, 1e-10, 1e-10
    lo, hi = window.padded_box(pad)
    arclength = ds * np.arange(1, max_samples + 1)
    field = _field_fun(xi)
    # the unit orthogonal field has no limit at a zero of the field, so a
    # leaf that runs into one (a focus, a centre) would creep on in ever
    # shorter steps and never reach its next sample; undefined where the
    # field falls to 1e-6 of its norm at the seed, it ends such a leaf in
    # BlowUp.  The seeds after the first that fails here build nothing.
    floors, failure = [], None
    for seed in seeds:
        try:
            floor = 1e-6 * float(np.linalg.norm(field(seed)))
            if floor == 0.0:
                raise BlowUp("field vanishes on the orthogonal leaf")
        except HfreeError as exc:
            failure = exc
            break
        floors.append(floor)
    row_floor = np.repeat(floors, 2)[:, None]  # one leaf row per direction and seed
    leaves = _integrate_groups(
        lambda y, rows: _unit_orthogonal(field(y), row_floor[rows]),
        [_Group(seed, sign * arclength,
                stop=lambda ys: np.any((ys < lo) | (ys > hi), axis=(1, 2)))
         for seed in seeds[:len(floors)] for sign in (-1.0, 1.0)], rtol, atol)
    transversals = []
    for seed, backward, forward in zip(seeds, leaves[0::2], leaves[1::2]):
        if isinstance(backward, Exception) or isinstance(forward, Exception):
            failure = backward if isinstance(backward, Exception) else forward
            break
        transversals.append(np.concatenate([backward[::-1], seed[None], forward]))

    n_t = 121  # odd, so t = 0 is on the grid
    times = np.linspace(-t_span, t_span, n_t)
    zero = n_t // 2
    # trajectories freeze once they exit the padded box, so leaves that
    # escape in finite time cannot stall the rest of a tube
    halves = _integrate_groups(
        lambda y, rows: field(y),
        [_Group(transversal, times[part], freeze_box=(lo, hi))
         for transversal in transversals
         for part in (slice(zero - 1, None, -1), slice(zero + 1, None))], rtol, atol)
    tubes = []
    for seed, transversal, before, after in zip(seeds, transversals, halves[0::2],
                                                halves[1::2]):
        for half in (before, after):
            if isinstance(half, Exception):
                raise half
        states = np.concatenate([before[::-1], transversal[None], after]).swapaxes(0, 1)
        tubes.append(Tube(xi, seed, window, transversal, times, states, pad))
    if failure is not None:
        raise failure
    return tubes


def build_tube(xi: VectorField, seed, window: Window, *, t_span: float = 3.0,
               max_samples: int = 4000) -> Tube:
    """Sample the orthogonal leaf through ``seed`` every 1/150 of the
    window's larger extent of arclength until it leaves the padded window,
    then tabulate its flow saturation at 121 times with ``|t| <= t_span``.
    The leaf takes one integration per direction and the saturation one
    batched integration per time direction, sampled through the 4th-order
    dense output; every integration runs at ``rtol = atol = 1e-10``.
    A leaf that runs into a zero of the field raises :class:`BlowUp`.
    This is the one-seed case of :func:`build_tubes`."""
    return build_tubes(xi, [seed], window, t_span=t_span, max_samples=max_samples)[0]


def _cross(a, b):
    return a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]


def _invert_bilinear(nodes: np.ndarray, p00, p10, p01, p11):
    """Solve ``q = bilinear(u, v)`` on one quad per node; returns
    ``(u, v, ok)`` with ``ok`` flagging solutions inside the unit square."""
    eps = 1e-9
    A = p00 - nodes
    B = p10 - p00
    C = p01 - p00
    D = p00 - p10 - p01 + p11
    # cross u(B + vD) = -(A + vC) with (B + vD) to eliminate u
    a2 = _cross(C, D)
    a1 = _cross(A, D) + _cross(C, B)
    a0 = _cross(A, B)

    u = np.full(len(nodes), np.nan)
    v = np.full(len(nodes), np.nan)
    quad = np.abs(a2) > 1e-14 * np.maximum(1.0, np.abs(a1))
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        disc = a1 * a1 - 4.0 * a2 * a0
        ok_disc = disc >= 0.0
        sq = np.sqrt(np.where(ok_disc, disc, 0.0))
        # stable quadratic roots
        qq = -0.5 * (a1 + np.sign(np.where(a1 == 0, 1.0, a1)) * sq)
        r1 = np.where(quad, qq / np.where(a2 == 0, 1.0, a2), -a0 / np.where(a1 == 0, 1.0, a1))
        r2 = np.where(quad & (qq != 0), a0 / np.where(qq == 0, 1.0, qq), r1)
    diam = np.sqrt(np.maximum(np.einsum("nd,nd->n", B, B),
                              np.einsum("nd,nd->n", C, C)))
    for root in (r1, r2):
        cand = ok_disc & (root >= -eps) & (root <= 1.0 + eps) & np.isnan(v)
        if not np.any(cand):
            continue
        denom_x = B[:, 0] + root * D[:, 0]
        denom_y = B[:, 1] + root * D[:, 1]
        use_x = np.abs(denom_x) >= np.abs(denom_y)
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            ux = -(A[:, 0] + root * C[:, 0]) / denom_x
            uy = -(A[:, 1] + root * C[:, 1]) / denom_y
            uu = np.where(use_x, ux, uy)
            # accept only solutions that actually map back onto the node; a
            # degenerate cell's infinite u gives a NaN residual, never accepted
            residual = (A + uu[:, None] * B + root[:, None] * C
                        + (uu * root)[:, None] * D)
        res_ok = np.einsum("nd,nd->n", residual, residual) <= (1e-7 * diam) ** 2 + 1e-28
        good = cand & (uu >= -eps) & (uu <= 1.0 + eps) & res_ok
        u[good] = uu[good]
        v[good] = root[good]
    ok = ~np.isnan(v)
    return u, v, ok


# how far outside a cell, in its longest edge, a node may lie and still
# be solved: beyond what :func:`_invert_bilinear` accepts (its ``eps`` and
# residual bound reach 1.03e-7), so the pre-test drops no accepted pair
_PRETEST_MARGIN = 1e-6


def _outside_cells(qx, qy, cell, p00, p10, p01, p11) -> np.ndarray:
    """Whether each node ``(qx, qy)`` lies outside its cell ``p00[cell]``, ...
    by more than ``_PRETEST_MARGIN`` times the longest edge (plus 1e-13), by
    the edges' sides relative to ``p00``.  Never for a cell whose corners
    do not all turn one way beyond rounding, or whose edges are under 1e-125."""
    corners = (p00, p10, p11, p01)  # in order around the cell
    edges = [b - a for a, b in zip(corners, corners[1:] + corners[:1])]
    with np.errstate(over="ignore", invalid="ignore"):
        turns = [_cross(e, f) for e, f in zip(edges[-1:] + edges[:-1], edges)]
        side = np.sign(turns[0])
        sq = np.maximum.reduce([_across(np.add, e * e) for e in edges])  # longest edge, squared
        convex = np.logical_and.reduce([side * t > 1e-9 * sq for t in turns] + [sq > 1e-250])
        # NaN for an untested cell: no node is outside it
        slack = np.where(convex, (_PRETEST_MARGIN * np.sqrt(sq) + 1e-13) * np.sqrt(sq), np.nan)
        dx, dy = qx - p00[cell, 0], qy - p00[cell, 1]
        outside = np.zeros(len(cell), dtype=bool)
        for a, (ex, ey) in zip(corners, (side * e.T for e in edges)):
            offset = ey * (a[:, 0] - p00[:, 0]) - ex * (a[:, 1] - p00[:, 1]) + slack
            outside |= ex[cell] * dy - ey[cell] * dx + offset[cell] < 0.0
    return outside


def _locate_times(tube: Tube, window: Window) -> np.ndarray:
    """Flow-time coordinate of every window node, in ``window.nodes()``
    order, that lies in the tabulated tube; NaN for nodes in no cell.

    The tube chart can fold over the window (the orthogonal leaf may run
    almost parallel to distant flow lines), so a node can have several
    preimages.  Each kept cell is paired with every node in its bounding
    box (a rectangle of node indices, by ``searchsorted``); one ragged
    pass enumerates the pairs, cell by cell, and only the pairs that
    :func:`_outside_cells` keeps are solved.  The preimage with the
    smallest ``|t|`` wins; of equal ``|t|``, the one in the lowest cell.
    """
    S, T = tube.states.shape[:2]
    # the corners of every cell, as views (S-1, T-1, 2) of the states
    corners = [tube.states[i:S - 1 + i, j:T - 1 + j] for i, j in ((0, 0), (1, 0), (0, 1), (1, 1))]
    lo = np.minimum(np.minimum(corners[0], corners[1]),
                    np.minimum(corners[2], corners[3])).reshape(-1, 2)
    hi = np.maximum(np.maximum(corners[0], corners[1]),
                    np.maximum(corners[2], corners[3])).reshape(-1, 2)
    wlo, whi = window.padded_box(0.0)
    diag = float(np.linalg.norm(whi - wlo))
    cells = np.flatnonzero(_across(np.logical_and, (lo <= whi) & (hi >= wlo)
                                   & np.isfinite(lo) & np.isfinite(hi)))
    # only the cells whose box meets the window get corners and edges
    p00, p10, p01, p11 = (c[cells // (T - 1), cells % (T - 1)] for c in corners)
    edge = np.maximum.reduce([np.sqrt(_across(np.add, d * d))
                              for d in (p10 - p00, p01 - p00, p11 - p10, p11 - p01)])
    # discard cells sheared apart by frozen trajectories; genuine cells
    # stay small, at the scale of one sample spacing times the flow speed
    keep = (edge <= 0.25 * diag) & (edge > 0.0)
    cells, lo, hi = cells[keep], lo[cells[keep]], hi[cells[keep]]
    p00, p10, p01, p11 = (p[keep] for p in (p00, p10, p01, p11))
    best_t = np.full(window.nx * window.ny, np.nan)

    # the nodes with lo <= node <= hi, as index ranges [first, stop) per axis
    xs, ys = window.xs(), window.ys()
    ix = np.searchsorted(xs, lo[:, 0], side="left")
    iy = np.searchsorted(ys, lo[:, 1], side="left")
    nx = np.searchsorted(xs, hi[:, 0], side="right") - ix
    ny = np.searchsorted(ys, hi[:, 1], side="right") - iy
    counts = nx * ny
    pos = np.repeat(np.arange(len(cells)), counts)
    if pos.size == 0:
        return best_t
    local = np.arange(pos.size) - np.repeat(np.cumsum(counts) - counts, counts)
    width = np.repeat(nx, counts)
    col = np.repeat(ix, counts) + local % width
    line = np.repeat(iy, counts) + local // width
    qx, qy = xs[col], ys[line]
    # only the pairs that the solve might accept go through it
    near = np.flatnonzero(~_outside_cells(qx, qy, pos, p00, p10, p01, p11))
    node, cand = (line * window.nx + col)[near], cells[pos[near]]
    _, v, ok = _invert_bilinear(np.column_stack([qx[near], qy[near]]),
                                *(np.take(p, pos[near], axis=0) for p in (p00, p10, p01, p11)))
    node, cand, v = node[ok], cand[ok], v[ok]
    t_val = tube.times[cand % (T - 1)] + v * np.diff(tube.times)[cand % (T - 1)]
    # stable, so that the pairs of a node keep their cell order on ties
    order = np.lexsort((np.abs(t_val), node))
    node_sorted = node[order]
    first = np.flatnonzero(np.diff(node_sorted, prepend=-1))
    best_t[node_sorted[first]] = t_val[order[first]]
    return best_t


_PAIRS_PER_CHUNK = 1 << 18


def _nearest(points: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Index of the target nearest to each 2-D point, by brute force over
    chunks of at most about ``_PAIRS_PER_CHUNK`` (point, target) pairs;
    the first index wins a tie."""
    nearest = np.empty(len(points), dtype=np.intp)
    rows = max(1, _PAIRS_PER_CHUNK // len(targets))
    for start in range(0, len(points), rows):
        block = points[start:start + rows]
        d2 = block[:, :1] - targets[:, 0]
        d2 *= d2
        dy = block[:, 1:] - targets[:, 1]
        dy *= dy
        d2 += dy
        nearest[start:start + rows] = np.argmin(d2, axis=1)
    return nearest


@dataclass(frozen=True)
class TubeValues:
    """Tube function sampled on the grid of the tube's window.

    ``times`` holds the recovered flow-time coordinate, NaN where the
    node lay outside the tabulated tube and was classified by side.
    """

    values: np.ndarray
    times: np.ndarray


def tube_function(tube: Tube) -> TubeValues:
    """Evaluate ``step(flow time)`` at every node of the tube's window.

    Nodes inside the tabulated tube are located by inverse bilinear
    interpolation on the (arclength x time) grid; nodes outside it get
    the saturated value of the side they lie on, against the tube's
    field at the nearest leaf sample.
    """
    window = tube.window
    nodes = window.nodes()
    t_of_node = _locate_times(tube, window)

    values = np.empty(len(nodes))
    located = ~np.isnan(t_of_node)
    values[located] = step(t_of_node[located])

    if np.any(~located):
        # saturated side rule: compare against the flow direction at the
        # nearest transversal point
        missing = np.nonzero(~located)[0]
        base = tube.transversal[_nearest(nodes[missing], tube.transversal)]
        side = np.einsum("nd,nd->n", nodes[missing] - base, tube.xi.values(base))
        if np.any(side == 0.0):
            bad = nodes[missing[side == 0.0][0]]
            raise OutsideTube(f"cannot classify node {bad} against the tube")
        values[missing] = np.where(side > 0.0, 1.0, 0.0)

    shape = (window.ny, window.nx)
    return TubeValues(values.reshape(shape), t_of_node.reshape(shape))


# ---------------------------------------------------------------------------
# gluing and verification


def _centered_lie_grid(xi: VectorField, values: np.ndarray, window: Window) -> np.ndarray:
    """Directional derivative of a grid function by centered differences;
    NaN on the boundary ring."""
    xs, ys = window.xs(), window.ys()
    hx, hy = xs[1] - xs[0], ys[1] - ys[0]
    fx = np.full_like(values, np.nan)
    fy = np.full_like(values, np.nan)
    fx[:, 1:-1] = (values[:, 2:] - values[:, :-2]) / (2.0 * hx)
    fy[1:-1, :] = (values[2:, :] - values[:-2, :]) / (2.0 * hy)
    comp = xi.values(window.nodes())
    return comp[:, 0].reshape(values.shape) * fx + comp[:, 1].reshape(values.shape) * fy


@dataclass(frozen=True)
class GlueResult:
    values: np.ndarray
    lie_values: np.ndarray   # centered differences, NaN on the boundary
    min_interior: float
    argmin: np.ndarray
    ok: bool


def glue(tubes: list[Tube], weights) -> GlueResult:
    """Weighted sum of tube functions on the tubes' one window, with
    coverage and positivity checks.

    Every node must lie strictly inside the open band ``|t| < 1`` of at
    least one tube (:class:`CoverageGap` otherwise).  The directional
    derivative of the glued grid along the first tube's field is then
    evaluated by centered differences; ``ok`` records positivity at all
    interior nodes.
    """
    weights = np.asarray(weights, dtype=float)
    if len(weights) != len(tubes):
        raise ValueError("need one weight per tube")
    if not tubes or any(tube.window != tubes[0].window for tube in tubes):
        raise ValueError("need at least one tube, all on one window")
    xi, window = tubes[0].xi, tubes[0].window
    fields = [tube_function(tube) for tube in tubes]

    covered = np.zeros((window.ny, window.nx), dtype=bool)
    for tv in fields:
        with np.errstate(invalid="ignore"):
            covered |= np.abs(tv.times) < 1.0
    # positivity is asserted on interior nodes, so coverage is demanded there
    if not np.all(covered[1:-1, 1:-1]):
        xs, ys = window.xs(), window.ys()
        uncovered = np.argwhere(~covered[1:-1, 1:-1]) + 1
        cells = [(int(iy), int(ix), float(xs[ix]), float(ys[iy]))
                 for iy, ix in uncovered]
        raise CoverageGap(cells)

    values = sum(w * tv.values for w, tv in zip(weights, fields))
    lie_vals = _centered_lie_grid(xi, values, window)
    interior = lie_vals[1:-1, 1:-1]
    min_idx = np.unravel_index(int(np.argmin(interior)), interior.shape)
    min_val = float(interior[min_idx])
    argmin = np.array([window.xs()[min_idx[1] + 1], window.ys()[min_idx[0] + 1]])
    return GlueResult(values, lie_vals, min_val, argmin, min_val > 0.0)


@dataclass(frozen=True)
class TransversalReport:
    min_value: float            # over the finite nodes; NaN when there are none
    argmin: np.ndarray
    values: np.ndarray
    lie_values: np.ndarray
    n_nonfinite: int = 0        # nodes where L_xi f is NaN or infinite


def verify_transversal(xi: VectorField, f, window: Window) -> TransversalReport:
    """Exact jet-based directional derivative of ``f`` on the window grid;
    returns the minimum over the nodes where it is finite, where it is
    attained, and how many nodes are not finite."""
    nodes = window.nodes()
    values, lie_vals = value_and_lie(xi, f, nodes)
    finite = np.isfinite(lie_vals)
    n_finite = int(np.count_nonzero(finite))
    if n_finite:
        idx = int(np.argmin(np.where(finite, lie_vals, np.inf)))
        min_value, argmin = float(lie_vals[idx]), nodes[idx].copy()
    else:
        min_value, argmin = float("nan"), np.full(nodes.shape[1], np.nan)
    shape = (window.ny, window.nx)
    return TransversalReport(
        min_value=min_value,
        argmin=argmin,
        values=values.reshape(shape),
        lie_values=lie_vals.reshape(shape),
        n_nonfinite=lie_vals.size - n_finite,
    )


def write_grid_csv(path, window: Window, values: np.ndarray,
                   lie_values: np.ndarray) -> None:
    """Write ``x,y,f,lie_f`` rows (header line, ``.`` decimals, LF),
    y outer, each number as the ``repr`` of a Python float."""
    shape = (window.ny, window.nx)
    xs = [repr(x) for x in window.xs().tolist()]
    f_rows = np.asarray(values, dtype=float).reshape(shape)
    lie_rows = np.asarray(lie_values, dtype=float).reshape(shape)

    def pieces():
        yield "x,y,f,lie_f\n"
        for y, f_row, lie_row in zip(map(repr, window.ys().tolist()), f_rows, lie_rows):
            yield "".join([f"{x},{y},{f!r},{lie!r}\n"
                          for x, f, lie in zip(xs, f_row.tolist(), lie_row.tolist())])
    write_text(path, pieces())
