"""Numeric solution generation on rectangular grids.

Given a wavelike transformation and an analytic seed solution u(x, y),
the compatible ODE system

    u_x = F(x, y, u, v, v_x)        v_y = G(x, y, u, v, u_y)

determines the companion solution v up to the single constant v(x0, y0).
The (alpha, beta) system attached to solutions of (ln h)_xy = h - h^{-2}
has the same form; its output h' = 2*alpha*beta - h solves that equation.

Each system is written once, as right sides w_x = P and w_y = Q over
node arrays, and one march runs both: classical RK4 along the base row
y = y0, then up every column at once.  P solves the first relation for
v_x, in closed form when F is affine in v_x, else with one elementwise
root solver (Newton, then bisection on a bracket where Newton fails).
The compatibility residual max |P_y - Q_x| is folded in as each row
becomes final, from the march's own Q there and one solve for P; it
vanishes to discretization accuracy exactly when the seed solves its PDE.

The march can fill a FieldRows, whose forked children take blocks of
final rows of v from a queue that never fills and format them as CSV
text while the march and the residual run.  At the write each child
sends its blocks back one framed block at a time, and the file is
written in order as they arrive, so this process never holds the whole
text.  The text is repr's, found exactly for a whole block at once from
half an ulp either side of each value.  A reference solution is compared
with v one block of rows at a time (sup_error).
"""

from __future__ import annotations

import collections
import contextlib
import mmap
import os
import re
import select
import signal
import struct
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from . import expr as ex
from .expr import Expr

if TYPE_CHECKING:
    from .backlund import WavelikeBT

# the smallest admissible |F_p|, |lam|, |h| and |h'|; [spec] guard is for sampling
GUARD = 1e-6


class PropagationError(RuntimeError):
    pass


class RootSolveError(PropagationError):
    """The v_x relation could not be inverted at some node."""


class SingularFieldError(PropagationError):
    """No nonsingular interior nodes were available for a residual."""


# ---------------------------------------------------------------------------
# grids and fields


@dataclass(frozen=True)
class Grid:
    """Uniform rectangular grid on [x0, x1] x [y0, y1].

    Node (i, j) sits at (x0 + i*hx, y0 + j*hy); arrays over the grid are
    indexed [j, i] so each row holds a fixed y.
    """

    nx: int
    ny: int
    x0: float
    x1: float
    y0: float
    y1: float

    def __post_init__(self):
        if self.nx < 2 or self.ny < 2:
            raise ValueError("grid needs at least 2 nodes per axis")
        if not np.all(np.isfinite((self.x0, self.x1, self.y0, self.y1))):
            raise ValueError("grid bounds must be finite")
        if not (self.x1 > self.x0 and self.y1 > self.y0):
            raise ValueError("grid rectangle must have positive extent")

    @property
    def hx(self) -> float:
        return (self.x1 - self.x0) / (self.nx - 1)

    @property
    def hy(self) -> float:
        return (self.y1 - self.y0) / (self.ny - 1)

    def xs(self) -> np.ndarray:
        return self.x0 + self.hx * np.arange(self.nx)

    def ys(self) -> np.ndarray:
        return self.y0 + self.hy * np.arange(self.ny)

    def mesh(self):
        return np.meshgrid(self.xs(), self.ys())


class Field:
    """Grid function, values[j, i] at (x_i, y_j).

    Values must be finite except where the optional singular mask is set.
    """

    __slots__ = ("grid", "values", "singular")

    def __init__(self, grid: Grid, values: np.ndarray, singular: Optional[np.ndarray] = None):
        self.grid = grid
        self.values = vals = np.asarray(values, dtype=float)
        if vals.shape != (grid.ny, grid.nx):
            raise ValueError(f"field shape {vals.shape} does not match grid {(grid.ny, grid.nx)}")
        self.singular = mask = None if singular is None else np.asarray(singular, dtype=bool)
        if mask is not None and mask.shape != vals.shape:
            raise ValueError("singular mask shape does not match values")
        probe = vals if mask is None else vals[~mask]
        if probe.size and not np.all(np.isfinite(probe)):
            raise ValueError("non-finite field values outside the singular mask")

    @property
    def singular_count(self) -> int:
        return 0 if self.singular is None else int(self.singular.sum())


def _sample_blocks(e, grid: Grid, params: Optional[dict] = None):
    """Yield (j, block): an expression in x, y evaluated pointwise on the
    rows from j of the grid, in blocks of about _BLOCK values, each on its
    own np.meshgrid, so that the values are bitwise the whole mesh's and a
    failure raises from its lowest block."""
    e = ex.as_expr(e, ("x", "y"), tuple(params or ()))
    value = ex.compile((e,))
    env = dict(params or {})
    xs, ys = grid.xs(), grid.ys()
    step = max(1, _BLOCK // grid.nx)
    for j in range(0, grid.ny, step):
        env["x"], env["y"] = np.meshgrid(xs, ys[j:j + step])
        yield j, _full(value(env, 0.0)[0], env["x"].shape)


def sample_field(e, grid: Grid, params: Optional[dict] = None) -> Field:
    """Pointwise evaluation of an expression in x, y over the grid."""
    vals = np.empty((grid.ny, grid.nx))
    for j, block in _sample_blocks(e, grid, params):
        vals[j:j + len(block)] = block
    return Field(grid, vals)


def sup_error(e, v: Field, params: Optional[dict] = None) -> float:
    """max |v - e| over the grid for a finite field v and a reference
    expression e in x, y, one block of _sample_blocks at a time, so that no
    array of the grid's size is built.  A failure raises from its lowest
    block; a non-finite value of e raises, naming its lowest node, once
    every block has been evaluated."""
    grid, worst, bad = v.grid, 0.0, None
    for j, block in _sample_blocks(e, grid, params):
        d = np.abs(v.values[j:j + len(block)] - block).max()
        if np.isfinite(d):
            worst = max(worst, d)
        elif bad is None:
            r, i = np.argwhere(~np.isfinite(block))[0]
            bad = j + r, i, float(block[r, i])
    if bad is not None:
        j, i, value = bad
        raise ValueError(f"the reference is {value!r} at node i={i}, j={j}, "
                         f"(x, y) = ({float(grid.xs()[i])!r}, {float(grid.ys()[j])!r})")
    return float(worst)


# ---------------------------------------------------------------------------
# the march


def _rk4_step(rhs, t, w, h):
    k1 = rhs(t, w)
    k2 = rhs(t + h / 2, w + (h / 2) * k1)
    k3 = rhs(t + h / 2, w + (h / 2) * k2)
    k4 = rhs(t + h, w + h * k3)
    return w + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)


def _per_stage(terms):
    """terms(t), evaluated once for each run of bitwise-equal stage
    coordinates t: k2 and k3 share t + h/2, and k4's t + h serves the next
    step's k1 and the final row there when it is bitwise that node."""
    last = [None, None]

    def at(t):
        key = float(t).hex()
        if key != last[0]:
            last[:] = key, terms(t)
        return last[1]

    return at


def _full(a, shape):
    """`a` broadcast to `shape`: np.broadcast_to costs more than a row's arithmetic."""
    return a if np.shape(a) == shape else np.broadcast_to(a, shape)


def _march(along_row, up_columns, p_row, start, grid: Grid, rows: Optional[FieldRows] = None):
    """March w_x = along_row(x, w) along y = y0 from w = `start` at (x0, y0),
    then w_y = up_columns(y, w) up every column at once.  Returns w at every
    node, shaped start.shape + (ny, nx), and per component the compatibility
    residual max |P_y - Q_x| over the interior nodes, by central differences,
    folded in as each row j is final: Q is up_columns there, the first stage
    of row j's step, and P = p_row(j, w).  An exception from p_row is raised
    once the march has passed its finiteness check.  A scalar state may be
    marched into `rows`, which is posted each row index once that row is final."""
    start = np.asarray(start, dtype=float)
    xs, ys = grid.xs(), grid.ys()
    # node-major, so that row[i] of a scalar state is a numpy scalar
    row = np.empty((grid.nx,) + start.shape)
    row[0] = start
    for i in range(grid.nx - 1):
        row[i + 1] = _rk4_step(along_row, xs[i], row[i], grid.hx)
    W = np.empty(start.shape + (grid.ny, grid.nx)) if rows is None else rows.values
    W[..., 0, :] = np.moveaxis(row, 0, -1)

    P = collections.deque(maxlen=3)  # P at the last three final rows
    worst = np.full(start.shape, -np.inf)
    failure = None

    def fold(j, w, q_below):  # P at row j closes interior row j - 1, whose Q is q_below
        nonlocal worst, failure
        if failure is not None:
            return
        try:
            P.append(_full(p_row(j, w), w.shape))
        except Exception as err:  # held until the march has passed its finiteness check
            failure = err
            return
        if j > 1:
            q = _full(q_below, w.shape)
            d = ((P[2][..., 1:-1] - P[0][..., 1:-1]) / (2 * grid.hy)
                 - (q[..., 2:] - q[..., :-2]) / (2 * grid.hx))
            worst = np.maximum(worst, np.abs(d).max(axis=-1))

    def stage(y, s):  # the step's first stage reads row j itself: k1
        return k1 if s is w else up_columns(y, s)

    k1 = None
    for j in range(grid.ny - 1):
        if rows is not None:
            rows.post(j + 1)  # rows 0..j are final; the last block is never queued
        w, q_below = W[..., j, :], k1
        k1 = up_columns(ys[j], w)  # row j of Q
        fold(j, w, q_below)
        W[..., j + 1, :] = _rk4_step(stage, ys[j], w, grid.hy)
    if not np.all(np.isfinite(W)):
        raise PropagationError("propagated state diverged on the grid")
    fold(grid.ny - 1, W[..., -1, :], k1)
    if failure is not None:
        raise failure
    up_columns(ys[-1], W[..., -1, :])  # unread, but a right side that fails there fails
    return W, worst


def _require_interior(grid: Grid) -> None:
    """The compatibility residual reads central differences at interior nodes."""
    if min(grid.nx, grid.ny) < 3:
        raise PropagationError(f"grid {grid.nx}x{grid.ny} has no interior node; need 3 per axis")


# second-order central differences of a grid array at the interior nodes


def _d_x(a, grid: Grid) -> np.ndarray:
    return (a[1:-1, 2:] - a[1:-1, :-2]) / (2 * grid.hx)


def _d_y(a, grid: Grid) -> np.ndarray:
    return (a[2:, 1:-1] - a[:-2, 1:-1]) / (2 * grid.hy)


def _d_xy(a, grid: Grid) -> np.ndarray:
    return (a[2:, 2:] - a[2:, :-2] - a[:-2, 2:] + a[:-2, :-2]) / (4 * grid.hx * grid.hy)


def _fixed_params(chart) -> dict:
    fixed = {}
    for name, val in chart.params.items():
        if isinstance(val, tuple):
            raise PropagationError(
                f"parameter '{name}' must be a fixed number for propagation"
            )
        fixed[name] = float(val)
    return fixed


# ---------------------------------------------------------------------------
# root solve for the v_x relation; [()] makes a 0-d result a numpy scalar,
# since numpy's array loops may round a power unlike its scalar arithmetic


def _solve_p(F, Fp, env, target, start, bracket):
    """Solve F(..., p) = target for p at every node, F and Fp compiled:
    Newton from `start`, then bisection on `bracket` at each node where
    Newton stalls (|F_p| < GUARD), leaves the bracket or runs out of steps."""

    def residual(p):
        env["p"] = p
        return F(env, 0.0)[0] - target

    lo, hi = (-np.inf, np.inf) if bracket is None else bracket
    tol = 1e-12 * (1.0 + np.abs(target))
    shape = np.broadcast_shapes(np.shape(target), np.shape(start))
    p = np.broadcast_to(np.asarray(start, dtype=float), shape)[()]
    newton = np.ones(shape, dtype=bool)  # nodes Newton still moves
    failed = np.zeros(shape, dtype=bool)  # nodes left to bisection
    for _ in range(60):
        r = residual(p)
        newton &= ~(np.abs(r) <= tol)
        if not newton.any():
            break
        d = Fp(env, 0.0)[0]
        stalled = newton & (np.abs(d) < GUARD)
        newton &= ~stalled
        p_next = p - r / np.where(newton, d, 1.0)
        escaped = newton & ~((lo <= p_next) & (p_next <= hi))
        failed |= stalled | escaped
        newton &= ~escaped & (p_next != p)  # a fixed point of the step is a root
        p = np.where(newton, p_next, p)[()]
    failed |= newton
    if not failed.any():
        return p
    if bracket is None:
        raise RootSolveError(
            "Newton iteration for the v_x relation failed and no bracket was given"
        )
    root = _bisect(residual, failed, float(lo), float(hi))
    if np.any(failed & (np.abs(residual(root)) > 1e-8 * (1.0 + np.abs(target)))):
        raise RootSolveError("bisection did not converge for the v_x relation")
    return np.where(failed, root, p)[()]


def _bisect(residual, nodes, lo, hi):
    """Bisect `residual` on [lo, hi] at the nodes selected by the mask
    `nodes`; the other entries of the result are meaningless."""
    rlo, rhi = residual(lo), residual(hi)
    one_signed = np.copysign(1.0, rlo) == np.copysign(1.0, rhi)
    if np.any(nodes & one_signed & (rlo != 0.0) & (rhi != 0.0)):
        raise RootSolveError(
            f"bracket [{lo}, {hi}] does not straddle a root of the v_x relation"
        )
    lo, hi = (np.full(np.shape(nodes), end)[()] for end in (lo, hi))
    root = np.where(rlo == 0.0, lo, hi)[()]
    open_ = nodes & (rlo != 0.0) & (rhi != 0.0)
    for _ in range(200):
        if not open_.any():
            return root
        mid = 0.5 * (lo + hi)
        rm = residual(mid)
        done = open_ & ((rm == 0.0) | ((hi - lo) < 1e-15 * (1.0 + np.abs(mid))))
        root = np.where(done, mid, root)[()]
        open_ &= ~done
        up = open_ & (np.copysign(1.0, rm) == np.copysign(1.0, rlo))
        lo, rlo = np.where(up, mid, lo)[()], np.where(up, rm, rlo)[()]
        hi = np.where(open_ & ~up, mid, hi)[()]
    return np.where(open_, 0.5 * (lo + hi), root)[()]


# ---------------------------------------------------------------------------
# transformation propagation


class BTPropagation:
    """Propagated companion solution with its compatibility diagnostic.

    compatibility_residual is max |d/dy(v_x) - d/dx(v_y)| over interior
    nodes, with the right sides evaluated through the defining relations
    and differenced centrally.
    """

    __slots__ = ("v", "compatibility_residual")

    def __init__(self, v: Field, compatibility_residual: float):
        self.v, self.compatibility_residual = v, compatibility_residual


def _affine_split(F: Expr):
    """(F0, F1) with F = F0 + F1*p when F is affine in p, else None."""
    F1 = ex.differentiate(F, "p")
    if ex.differentiate(F1, "p") != ex.ZERO:
        return None
    return ex.substitute(F, "p", ex.ZERO), F1


def bt_propagate(
    bt: WavelikeBT, seed, v0: float, grid: Grid, bracket: Optional[tuple] = None,
    rows: Optional[FieldRows] = None,
) -> BTPropagation:
    """Integrate the companion solution v from the corner value v0.

    `seed` is an analytic expression for u(x, y), so its derivatives in
    the ODE right sides are exact.  `bracket`, when given, is a global
    (lo, hi) window for the v_x root solve in the non-affine case.  With
    `rows`, v is marched into its shared array, which starts formatting
    each block of rows of v as the march finishes it.
    """
    _require_interior(grid)
    params = _fixed_params(bt.chart)
    seed = ex.as_expr(seed, ("x", "y"), tuple(params))
    ux_e = ex.differentiate(seed, "x")
    uy_e = ex.differentiate(seed, "y")
    split = _affine_split(bt.F)
    # every right side is compiled once.  The seed terms (u, u_x) along the base
    # row and (u, u_y) up the columns do not depend on v, so they are evaluated
    # once per stage coordinate; up the columns on the row's y as an array, as
    # over the whole mesh, since numpy's scalar and array powers may round apart
    seed_x, seed_y, ux = (ex.compile(roots) for roots in ((seed, ux_e), (seed, uy_e), (ux_e,)))
    G = ex.compile((bt.G,))
    if split is None:
        F, Fp = ex.compile((bt.F,)), ex.compile((bt.fp,))
    else:
        f0, f1 = (ex.compile((e,)) for e in split)
    xs, ys = grid.xs(), grid.ys()

    def v_x(env, target, start):
        if split is None:
            return _solve_p(F, Fp, env, target, start, bracket)
        slope = f1(env, 0.0)[0]
        if np.abs(slope).min() < GUARD:
            raise RootSolveError(f"|F_p| < {GUARD} where v_x is solved for")
        return (target - f0(env, 0.0)[0]) / slope

    @_per_stage
    def base_terms(x):  # the environment at (x, y0), and u_x there
        env = dict(params, x=x, y=grid.y0)
        env["u"], target = seed_x(env, 0.0)
        return env, target

    @_per_stage
    def column_terms(y):  # the environment on the row at y, with q = u_y
        env = dict(params, x=xs, y=np.full(grid.nx, y))
        env["u"], env["q"] = seed_y(env, 0.0)
        return env

    # along the base row, Newton starts from the previous root
    last_p = 0.0 if bracket is None else 0.5 * (bracket[0] + bracket[1])

    def along_row(x, v):
        nonlocal last_p
        env, target = base_terms(x)
        last_p = v_x(dict(env, v=v), target, last_p)
        return last_p

    def up_columns(y, v):
        return G(dict(column_terms(y), v=v), 0.0)[0]

    def p_row(j, v):  # on a final row, Newton starts from the row's own slope
        env = dict(column_terms(ys[j]), v=v)
        return v_x(env, ux(env, 0.0)[0], np.gradient(v, grid.hx) if split is None else None)

    V, residual = _march(along_row, up_columns, p_row, v0, grid, rows)
    return BTPropagation(Field(grid, V), float(residual))


# ---------------------------------------------------------------------------
# residual reports


class ResidualReport:
    """Max and mean residual over the `nodes` used; `excluded` were skipped."""

    __slots__ = ("max_residual", "mean_residual", "nodes", "excluded")

    def __init__(self, max_residual: float, mean_residual: float, nodes: int, excluded: int = 0):
        self.max_residual, self.mean_residual = max_residual, mean_residual
        self.nodes, self.excluded = nodes, excluded


def wavelike_residual(v: Field, f, params: Optional[dict] = None) -> ResidualReport:
    """max and mean of |v_xy - f(x, y, v, v_x, v_y)| over interior nodes.

    Derivatives are second-order central differences; f uses the chart
    vocabulary (u for the value, p and q for the first derivatives).
    """
    f = ex.as_expr(f, ("x", "y", "u", "p", "q"), tuple(params or ()))
    grid = v.grid
    vals = v.values
    if not np.all(np.isfinite(vals)):
        raise ValueError("wavelike_residual requires a finite field")
    X, Y = grid.mesh()
    env = dict(params or {})
    env["x"] = X[1:-1, 1:-1]
    env["y"] = Y[1:-1, 1:-1]
    env["u"] = vals[1:-1, 1:-1]
    env["p"] = _d_x(vals, grid)
    env["q"] = _d_y(vals, grid)
    resid = np.abs(_d_xy(vals, grid) - np.asarray(ex.evaluate(f, env), dtype=float))
    return ResidualReport(
        max_residual=float(np.max(resid)),
        mean_residual=float(np.mean(resid)),
        nodes=int(resid.size),
    )


# ---------------------------------------------------------------------------
# the (ln h)_xy = h - h^{-2} transformation


class TzitzeicaPropagation:
    """The marched (alpha, beta), the new solution h', the compatibility
    residual of each marched component, and the count of singular nodes."""

    __slots__ = ("alpha", "beta", "h_prime", "alpha_compatibility", "beta_compatibility",
                 "singular_count")

    def __init__(self, alpha: Field, beta: Field, h_prime: Field, alpha_compatibility: float,
                 beta_compatibility: float, singular_count: int):
        self.alpha, self.beta, self.h_prime = alpha, beta, h_prime
        self.alpha_compatibility, self.beta_compatibility = alpha_compatibility, beta_compatibility
        self.singular_count = singular_count


def tzitzeica_propagate(
    h, lam: float, alpha0: float, beta0: float, grid: Grid
) -> TzitzeicaPropagation:
    """March the auxiliary (alpha, beta) system and emit h' = 2*alpha*beta - h.

    The pair obeys

        alpha_x = (h_x alpha + lam beta)/h - alpha^2    alpha_y = h - alpha beta
        beta_x  = h - alpha beta                        beta_y  = (h_y beta + alpha/lam)/h - beta^2

    integrated along the base row and then up the columns.  Nodes where
    |h'| < GUARD are flagged singular rather than treated as failures.
    """
    _require_interior(grid)
    h = ex.as_expr(h, ("x", "y"))
    lam = float(lam)
    if abs(lam) < GUARD:
        raise PropagationError("lam must be bounded away from zero")
    # each compiled once; h and a derivative are evaluated once per stage coordinate
    h_of, hx_of, hy_of = (ex.compile((e,)) for e in (h, ex.differentiate(h, "x"),
                                                      ex.differentiate(h, "y")))
    xs, ys = grid.xs(), grid.ys()
    H = np.empty((grid.ny, grid.nx))  # h at each final row, for h'

    def terms(env, derivative):  # h, checked against the guard, then its derivative
        hv = h_of(env, 0.0)[0]
        if np.min(np.abs(hv)) < GUARD:
            raise PropagationError("seed |h| fell inside the guard")
        return env, hv, derivative(env, 0.0)[0]

    base_terms = _per_stage(lambda x: terms({"x": x, "y": grid.y0}, hx_of))
    column_terms = _per_stage(lambda y: terms({"x": xs, "y": np.full(grid.nx, y)}, hy_of))

    def w_x(w, hv, hx):
        a, b = w
        return np.stack([(hx * a + lam * b) / hv - a * a, hv - a * b])

    def along_row(x, w):
        _, hv, hx = base_terms(x)
        return w_x(w, hv, hx)

    def up_columns(y, w):
        _, hv, hy = column_terms(y)
        a, b = w
        return np.stack([hv - a * b, (hy * b + a / lam) / hv - b * b])

    def p_row(j, w):
        env, hv, _ = column_terms(ys[j])
        H[j] = hv
        return w_x(w, hv, hx_of(env, 0.0)[0])

    W, (alpha_c, beta_c) = _march(along_row, up_columns, p_row, (alpha0, beta0), grid)
    A, B = W
    h_prime = 2.0 * A * B - H
    mask = np.abs(h_prime) < GUARD
    return TzitzeicaPropagation(
        alpha=Field(grid, A),
        beta=Field(grid, B),
        h_prime=Field(grid, h_prime, singular=mask if mask.any() else None),
        alpha_compatibility=float(alpha_c),
        beta_compatibility=float(beta_c),
        singular_count=int(mask.sum()),
    )


def tzitzeica_residual(h_prime: Field) -> ResidualReport:
    """max and mean of |(ln h')_xy - h' + h'^{-2}| over interior nodes whose
    logarithm stencil avoids singular or nonpositive values."""
    grid = h_prime.grid
    vals = h_prime.values
    ok = np.isfinite(vals) & (vals > GUARD)
    if h_prime.singular is not None:
        ok &= ~h_prime.singular
    L = np.where(ok, np.log(np.where(ok, vals, 1.0)), np.nan)
    # the mixed stencil touches the four diagonal neighbors plus the center
    usable = (
        ok[1:-1, 1:-1]
        & ok[2:, 2:]
        & ok[2:, :-2]
        & ok[:-2, 2:]
        & ok[:-2, :-2]
    )
    total = usable.size
    count = int(usable.sum())
    if count == 0:
        raise SingularFieldError("no usable interior nodes for the residual")
    center = vals[1:-1, 1:-1]
    resid = np.abs(_d_xy(L, grid) - center + center**-2.0)[usable]
    return ResidualReport(
        max_residual=float(np.max(resid)),
        mean_residual=float(np.mean(resid)),
        nodes=count,
        excluded=total - count,
    )


# ---------------------------------------------------------------------------
# grid CSV serialization


_HEADER_RE = re.compile(
    r"^# grid nx=(\d+) ny=(\d+) "
    r"x0=(\S+) x1=(\S+) y0=(\S+) y1=(\S+)$"
)
_RECORD = struct.Struct("=i")  # a block index on the queue; -1 stops its reader
_FRAME = struct.Struct("=iQ")  # a block index and its text's length, ahead of the text
_QUEUE = select.PIPE_BUF // _RECORD.size  # records the queue is ever given
_BLOCK = 1 << 14  # values per block, over which one _format_rows call spreads its overhead


def _block_rows(ny: int, nx: int, readers: int) -> int:
    """Rows per FieldRows block: about _BLOCK values, at least four blocks
    per reader where rows allow, and so few blocks that all the queue is
    ever given (every block but the last, and a stop per reader) fits in
    PIPE_BUF bytes, which a pipe always holds: no write to it waits."""
    return max(-(-ny // (_QUEUE - readers)), min(-(-_BLOCK // nx), ny // (4 * readers)))


class FieldRows:
    """The CSV rows of a grid function, formatted as soon as each is final.

    `values` is an (ny, nx) array in shared memory, cut into blocks of
    consecutive rows (see _block_rows).  One forked child per further
    CPU this process may run on (at most one per row) claims block indices
    from a queue, a pipe of 4-byte records, and formats those blocks;
    post(stop) queues the blocks of the rows below `stop` once they are
    final.  commit() formats what is left here, claiming from the same
    queue, and writes the blocks in order: each child, once stopped,
    sends its blocks in ascending order as frames (_FRAME, then the text)
    on a pipe of its own, and each block is dropped once written.  The
    last block is never queued, so that this process formats at least
    one.  Leaving the `with` block without a commit kills and reaps every
    child; a child whose queue closes because this process died exits at once.
    """

    def __init__(self, grid: Grid):
        self.grid = grid
        self.values = np.frombuffer(mmap.mmap(-1, 8 * grid.ny * grid.nx)).reshape(grid.ny, grid.nx)
        self._posted = 0  # blocks below this are on the queue
        affinity = getattr(os, "sched_getaffinity", None)
        readers = min(len(affinity(0)), grid.ny, _QUEUE - 1) if affinity else 1
        self._rows = _block_rows(grid.ny, grid.nx, readers)
        self._blocks = -(-grid.ny // self._rows)
        self._claims, self._queue = os.pipe()
        self._children = []  # (pid, read end of the pipe its blocks come back on)
        try:
            for _ in range(readers - 1):
                self._children.append(self._fork())
        except BaseException:
            self.close()
            raise

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def close(self) -> None:
        """Kill and reap every child still running, and close the queue."""
        _reap(self._children, kill=True)
        for fd in (self._claims, self._queue):
            if fd >= 0:
                os.close(fd)
        self._claims = self._queue = -1

    def post(self, stop: int) -> None:
        """Queue the blocks of the rows below `stop` but the last block."""
        stop = min(stop // self._rows, self._blocks - 1)
        if self._children and self._posted < stop:
            os.write(self._queue, struct.pack(f"={stop - self._posted}i", *range(self._posted, stop)))
            self._posted = stop

    def commit(self, path: str) -> None:
        """Write every row to `path`, through a sibling .tmp file, one block
        at a time in order.  A block is dropped once it is written: this
        process holds only the blocks it claimed from the queue until the
        children's streams reach them, and formats the blocks post kept back
        as each is next."""
        grid = self.grid
        tmp = path + ".tmp"
        try:
            with open(tmp, "wb") as fh:
                fh.write((f"# grid nx={grid.nx} ny={grid.ny} x0={grid.x0!r} x1={grid.x1!r} "
                          f"y0={grid.y0!r} y1={grid.y1!r}\n").encode())
                self.post(grid.ny)
                os.write(self._queue, _RECORD.pack(-1) * (len(self._children) + 1))
                # each child claims before this process does, so that every
                # child gets a block where one is queued for it and a failing
                # child fails the write (without the wait, 6 of 300 writes of
                # 7 rows by two children did not)
                for _pid, pipe in self._children:
                    pipe.read(1)
                own = {}
                while (k := _claim(self._claims)) >= 0:
                    own[k] = self._format(k)
                written = self._merge(fh, own)
                _reap(self._children)
                if written < self._blocks:
                    raise OSError(f"CSV row formatter sent no block {written}")
        except BaseException:
            with contextlib.suppress(FileNotFoundError):
                os.remove(tmp)
            raise
        os.replace(tmp, path)

    def _merge(self, fh, own: dict) -> int:
        """Write the blocks to `fh` in order until one is missing, and return
        how many were written.  Each child sends its blocks in ascending
        order, so the next block is in `own`, kept back by post, or at the
        head of a child's stream; a stream that ends early ends the merge."""
        heads = {}  # the block at the head of each child's stream: (pipe, text length)

        def advance(pipe):
            frame = pipe.read(_FRAME.size)
            if len(frame) == _FRAME.size:
                k, n = _FRAME.unpack(frame)
                heads[k] = pipe, n

        for _pid, pipe in self._children:
            advance(pipe)
        for k in range(self._blocks):
            if k in heads:
                pipe, n = heads.pop(k)
                text = pipe.read(n)
                if len(text) < n:
                    return k
                advance(pipe)
            elif k in own:
                text = own.pop(k)
            elif k >= self._posted:
                text = self._format(k)
            else:
                return k
            fh.write(text)
        return self._blocks

    def _format(self, k: int) -> bytes:
        return _format_rows(self.values[k * self._rows:(k + 1) * self._rows])

    def _fork(self):
        """Fork a formatter child; returns (pid, read end of its pipe).  The
        child leaves through os._exit on every path, so it never returns
        into the caller and runs no exit handlers."""
        read_fd, write_fd = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            os.close(read_fd)
            os.close(write_fd)
            raise
        if pid == 0:
            status = 1
            try:
                os.close(self._queue)  # so that the queue closes when the parent dies
                os.close(read_fd)
                for _pid, pipe in self._children:
                    pipe.close()
                claimed = []
                k = _claim(self._claims)
                os.write(write_fd, b"\0")  # the first claim is made
                while k >= 0:
                    claimed.append((k, self._format(k)))
                    k = _claim(self._claims)
                with open(write_fd, "wb") as pipe:
                    for k, text in claimed:
                        pipe.write(_FRAME.pack(k, len(text)))
                        pipe.write(text)
                status = 0
            finally:
                os._exit(status)
        os.close(write_fd)
        return pid, open(read_fd, "rb")


def _claim(queue: int) -> int:
    """The next block index on the queue, or -1 to stop; struct.error once
    the queue's writer is gone."""
    return _RECORD.unpack(os.read(queue, _RECORD.size))[0]


def write_field_csv(fieldobj: Field, path: str, rows: Optional[FieldRows] = None) -> None:
    """Serialize a field; singular nodes become `nan`.

    `rows`, when given, is the FieldRows the field was marched into, whose
    children have formatted blocks of rows since the march finished them;
    without it every row is ready at once.  Either way this process
    formats blocks with the children until none is left, and every child
    has exited and been reaped before this returns.  The bytes depend
    neither on the CPU count nor on which process formatted a block.

    Writing is atomic: the content lands in a sibling temp file first,
    which is removed if any row fails.
    """
    if rows is None:
        rows = FieldRows(fieldobj.grid)
        rows.values[...] = fieldobj.values
        if fieldobj.singular is not None:
            rows.values[fieldobj.singular] = np.nan
    elif fieldobj.values is not rows.values or fieldobj.singular is not None:
        raise ValueError("the field does not hold the rows' values")
    with rows:
        rows.commit(path)


# ---------------------------------------------------------------------------
# the text of a block of rows: repr's digits, found for the whole block at
# once wherever they can be proven (Loitsch, PLDI 2010; Adams, PLDI 2018)


def _split(v):
    """Veltkamp's split of v into two halves of at most 26 bits each."""
    t = v * 134217729.0  # 2**27 + 1
    hi = t - (t - v)
    return hi, v - hi


_POW10 = np.array([float(10**p) for p in range(23)])  # 10**p, exact for p <= 22
_POW10_SPLIT = _split(_POW10)
_INT10 = np.array([10**k for k in range(18)], np.int64)  # 10**k as int64, k <= 17
# the four ASCII digits of each 0 <= g < 10**4, the first in the lowest byte
_d = np.arange(ord("0"), ord("9") + 1, dtype=np.uint32)
_DIGITS4 = (_d[:, None, None, None] | _d[:, None, None] << 8 | _d[:, None] << 16 | _d << 24).ravel()
del _d
# _FIRST[j] keeps the first j of four characters, _LAST[j] the last j
_FIRST = np.array([0, 0xFF, 0xFFFF, 0xFFFFFF, 0xFFFFFFFF], "<u4")
_LAST = ~_FIRST[::-1]
# the point and 0-3 zeros; index 4 shows nothing
_POINT = np.frombuffer(b".\0\0\0.0\0\0.00\0.000\0\0\0\0", "<u4")


def _trailing_zeros(m):
    """The number of trailing decimal zeros of each 0 < m < 10**16."""
    z = np.zeros(m.size, np.intp)
    for k in (8, 4, 2, 1):
        q = m // _INT10[k]
        ok = q * _INT10[k] == m
        m = np.where(ok, q, m)
        z += ok * k
    return z


def _group(v, k):
    """The decimal digits 10**k to 10**(k + 3) of each v >= 0, as an index
    into _DIGITS4.  numpy divides by a scalar about three times faster
    than it takes a remainder, hence no %."""
    q = v // _INT10[k]
    return q - q // 10**4 * 10**4


def _shortest(a):
    """(c, p, t, ok): c * 10**-p is the shortest decimal that rounds to
    1e-4 <= a < 1e16, and the closest to a of those; c is in [1e16, 1e17)
    and has t trailing zeros.  ok is False wherever that is not proven."""
    # N = a * 10**p = hi + lo exactly, by Dekker's product; hi is an
    # integer in [1e16, 1e17)
    p = 16 - np.floor(np.log10(a)).astype(np.intp)
    hi = a * _POW10[p]
    p += (hi < 1e16).view(np.int8) - (hi >= 1e17).view(np.int8)
    b = _POW10[p]
    bh, bl = _POW10_SPLIT[0][p], _POW10_SPLIT[1][p]
    ah, al = _split(a)
    hi = a * b
    lo = ((ah * bh - hi) + ah * bl + al * bh) + al * bl
    # the integers [A, B] of the rounding interval, half an ulp h either
    # side of N; _format_rows says why that is enough on its range
    h = (a.view(np.uint64) & np.uint64(0x7FF << 52)).view(float) * (b * 2.0**-53)
    ok = (hi >= 1e16) & (hi < 1e17)
    hint = hi.astype(np.int64)
    A = hint + np.ceil(lo - h).astype(np.int64)
    B = hint + np.floor(lo + h).astype(np.int64)
    # the largest t with a multiple of 10**t in [A, B]: as B - A < 100, t > 1
    # only where B % 100 <= B - A, and then the digits of B above are zeros
    w = B - A
    q1, q2 = B // 10, B // 100
    t = (B - 10 * q1 <= w).astype(np.intp) + (B - 100 * q2 <= w)
    more = np.flatnonzero(t == 2)
    t[more] += _trailing_zeros(q2[more])
    # of those multiples, the one closest to N; an exact tie is not proven
    fl = np.floor(lo)
    n0 = hint + fl.astype(np.int64)
    pw = _INT10[t]
    d = n0 % pw
    down = n0 - d
    in_down, in_up = down >= A, down + pw <= B
    key = 2 * (d + (lo - fl)) - pw
    ok &= ~(in_down & in_up & (key == 0))
    c = down + pw * (~in_down | (in_up & (key > 0)))
    ok &= (c >= 10**16) & (c < 10**17)
    return c, p, t, ok


def _format_rows(block: np.ndarray) -> bytes:
    """The CSV lines of the rows of `block`, each ending in a newline: the
    repr of each value, joined by commas.

    The digits of the finite values with 1e-4 <= |x| < 1e16, which repr
    prints without an exponent, are found here for the whole block at
    once.  repr itself writes every other value, and every value whose
    digits that arithmetic does not prove."""
    nx = block.shape[-1]
    x = np.ascontiguousarray(block, dtype=float).ravel()
    a = np.abs(x)
    # Half an ulp h either side of a, ends included, gives repr's digits on
    # this range.  An end is a midpoint between doubles: below 2**52 it has
    # 18 or more significant digits, so no 17-digit c is one; above, it is a
    # half or an odd integer, and a itself is at least as short and closer.
    # Below each 2**k in range (-13 <= k <= 53) the true interval is a
    # quarter ulp shorter, but 2**k has at most 16 digits and no shorter
    # decimal lies in that quarter (TestFormatRows pins each power).  With
    # 2**e <= a < 2**(e + 1), lo and h are multiples of 2**(e + p - 53) >=
    # 2**-47, |lo| <= 8 and h < 12, so lo - h and lo + h are exact.
    fast = (a >= 1e-4) & (a < 1e16)
    a[~fast] = 1.0
    c, p, t, ok = _shortest(a)
    fast &= ok
    pf = np.minimum(p, 17)
    whole = c // _INT10[pf]
    frac = (c - whole * _INT10[pf]) * _INT10[17 - pf]  # the digits after the zeros
    zeros = np.where(fast, p - pf, 4)
    intd = np.maximum(17 - p, 1) * fast  # integer digits shown
    fd = np.maximum(pf - t, 1) * fast  # digits shown after the point and zeros
    # each value's text in one record, NUL where no character is shown: the
    # sign, the integer digits in groups of four, the point and zeros, the
    # other digits, the separator; a field no value of the block shows is left out
    fields = []
    negative = fast & (x < 0)
    if negative.any():
        fields.append(("sign", negative.view(np.uint8) * np.uint8(ord("-"))))
    for k in range(12, -1, -4):
        if intd.max() > k:
            fields.append((f"i{k}", _DIGITS4[_group(whole, k)] & _LAST[np.clip(intd - k, 0, 4)]))
    fields.append(("point", _POINT[zeros] if np.any(zeros) else fast.view(np.uint8) * np.uint8(ord("."))))
    fields.append(("f", ((ord("0") + frac // 10**16) * fast).astype(np.uint8)))
    for k in range(1, 17, 4):
        if fd.max() > k:
            group = _group(frac, 13 - k)  # digits k to k + 3 of the 17
            fields.append((f"f{k}", _DIGITS4[group] & _FIRST[np.clip(fd - k, 0, 4)]))
    fields.append(("sep", np.full(x.size, ord(","), np.uint8)))
    fields[-1][1][nx - 1::nx] = ord("\n")
    text = np.empty(x.size, [(name, f"<u{values.itemsize}") for name, values in fields])
    for name, values in fields:
        text[name] = values
    shown = text.view(np.uint8) != 0
    out = text.view(np.uint8)[shown].tobytes()
    if fast.all():
        return out
    # repr's text goes before the separator, the only character of its record
    slow = np.flatnonzero(~fast)
    ends = np.cumsum(shown.reshape(x.size, -1).sum(1))[slow] - 1
    pieces, start = [], 0
    for v, end in zip(x[slow].tolist(), ends.tolist()):
        pieces += (out[start:end], repr(v).encode())
        start = end
    pieces.append(out[start:])
    return b"".join(pieces)


def _reap(children: list, kill: bool = False) -> None:
    """Close the pipes of `children` and wait for each (after SIGKILL when
    `kill`); raise OSError if one did not exit with status 0."""
    failed = []
    while children:
        pid, pipe = children.pop(0)
        pipe.close()
        if kill:
            os.kill(pid, signal.SIGKILL)
        _, status = os.waitpid(pid, 0)
        if status != 0 and not kill:
            failed.append(f"pid {pid}: exit status {os.waitstatus_to_exitcode(status)}")
    if failed:
        raise OSError("CSV row formatter failed (" + "; ".join(failed) + ")")


def read_field_csv(path: str) -> Field:
    with open(path) as fh:
        header = fh.readline().rstrip("\n")
        m = _HEADER_RE.match(header)
        if not m:
            raise ValueError(f"malformed grid header: {header!r}")
        nx, ny = int(m.group(1)), int(m.group(2))
        x0, x1, y0, y1 = (float(m.group(k)) for k in range(3, 7))
        grid = Grid(nx, ny, x0, x1, y0, y1)
        rows = []
        for j in range(ny):
            line = fh.readline()
            if not line:
                raise ValueError(f"expected {ny} data rows, found {j}")
            parts = line.rstrip("\n").split(",")
            if len(parts) != nx:
                raise ValueError(f"row {j} has {len(parts)} values, expected {nx}")
            rows.append([float(s) for s in parts])
        if fh.read().strip():
            raise ValueError(f"data after the {ny} declared rows")
    vals = np.array(rows, dtype=float)
    mask = ~np.isfinite(vals)
    return Field(grid, vals, singular=mask if mask.any() else None)
