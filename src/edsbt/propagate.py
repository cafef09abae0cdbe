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
v_x, in closed form when F is affine in v_x, else by Newton at every
node at once.  The march holds two rows of its state.  The
compatibility residual max |P_y - Q_x| is folded in as each row becomes
final, from the march's own Q there and one solve for P; it vanishes to
discretization accuracy exactly when the seed solves its PDE.  Then each
final row is handed on: v is stored, and h' is made, counted and folded
into its own residual three rows at a time.

v or h' can be written into a FieldRows, which queues every block of
final rows on a queue that never fills; its forked children take blocks
from it and format them as CSV text while the march and the residual
run, and the march's own process formats the oldest queued block
whenever the children fall behind, or every block with no child.
Every process that formats a block gives the block's pages back to the
system, enters its length in a shared table and writes it into the
output file at its offset once the lengths before it are known, so no
process holds more than the blocks still waiting for those lengths.
The text is repr's, found exactly for a whole block at once from half
an ulp either side of each value.  A reference solution is compared
with v one block of final rows at a time (SupError), in blocks set by
the grid alone, before the block is queued.
"""

from __future__ import annotations

import collections
import contextlib
import errno
import math
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


class SupError:
    """max |v - e| over the grid for a finite v and a reference expression
    e in x, y, folded in one block of consecutive rows of v at a time, so
    that no array of the grid's size is built.  e is evaluated pointwise
    on each block's own np.meshgrid, so its values are bitwise the whole
    mesh's whatever the blocks.  A block whose evaluation raises is held,
    and no later block is evaluated; result() raises it, or else names
    the lowest node where e is not finite.  A difference that overflows
    makes the sup inf."""

    def __init__(self, e, grid: Grid, params: Optional[dict] = None):
        self.grid, self._xs, self._ys = grid, grid.xs(), grid.ys()
        self._value = ex.compile((ex.as_expr(e, ("x", "y"), tuple(params or ())),))
        self._env = dict(params or {})
        self._worst, self._bad, self._failure = 0.0, None, None

    def add(self, j: int, v_rows: np.ndarray) -> None:
        """Fold in v_rows, the rows of v from row j on."""
        if self._failure is not None:
            return
        env = self._env
        env["x"], env["y"] = np.meshgrid(self._xs, self._ys[j:j + len(v_rows)])
        # a non-finite value reaches result() as inf or a named node, so
        # numpy's warnings about it are silenced
        with np.errstate(all="ignore"):
            try:
                block = _full(self._value(env, 0.0)[0], env["x"].shape)
            except Exception as err:  # held: a failing march raises its own error first
                self._failure = err
                return
            d = np.abs(v_rows - block).max()
        if np.isfinite(d):
            self._worst = max(self._worst, d)
        elif self._bad is None:
            bad = np.argwhere(~np.isfinite(block))
            if len(bad):
                r, i = bad[0]
                self._bad = j + r, i, float(block[r, i])
            else:  # a finite v and a finite e whose difference overflows
                self._worst = math.inf

    def result(self) -> float:
        """The sup once every block is in."""
        if self._failure is not None:
            raise self._failure
        if self._bad is not None:
            j, i, value = self._bad
            raise ValueError(f"the reference is {value!r} at node i={i}, j={j}, (x, y) = "
                             f"({float(self._xs[i])!r}, {float(self._ys[j])!r})")
        return float(self._worst)


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


def _finite(w):
    """w, once it is checked finite."""
    if not np.all(np.isfinite(w)):
        raise PropagationError("propagated state diverged on the grid")
    return w


def _march(along_row, up_columns, p_row, on_row, start, grid: Grid):
    """March w_x = along_row(x, w) along y = y0 from w = `start` at (x0, y0),
    then w_y = up_columns(y, w) up every column at once, holding two rows of
    w, shaped start.shape + (nx,).  Each row is checked finite as it is
    made.  Returns per component the compatibility residual max |P_y - Q_x|
    over the interior nodes, by central differences, folded in as each row
    j is final: Q is up_columns there, the first stage of row j's step, and
    P = p_row(j, w).  Then on_row(j, w) consumes the row.  An exception from
    p_row is held, and no later row is consumed, until every row has passed
    its finiteness check."""
    start = np.asarray(start, dtype=float)
    xs, ys = grid.xs(), grid.ys()
    # node-major, so that row[i] of a scalar state is a numpy scalar
    row = np.empty((grid.nx,) + start.shape)
    row[0] = start
    for i in range(grid.nx - 1):
        row[i + 1] = _rk4_step(along_row, xs[i], row[i], grid.hx)

    P = collections.deque(maxlen=3)  # P at the last three final rows
    worst = np.full(start.shape, -np.inf)
    failure = None

    def fold(j, w, q_below):  # P at row j closes interior row j - 1, whose Q is q_below
        nonlocal worst, failure
        if failure is not None:
            return
        try:
            P.append(_full(p_row(j, w), w.shape))
        except Exception as err:  # held until every row has passed its finiteness check
            failure = err
            return
        if j > 1:
            q = _full(q_below, w.shape)
            d = ((P[2][..., 1:-1] - P[0][..., 1:-1]) / (2 * grid.hy)
                 - (q[..., 2:] - q[..., :-2]) / (2 * grid.hx))
            worst = np.maximum(worst, np.abs(d).max(axis=-1))
        on_row(j, w)

    def stage(y, s):  # the step's first stage reads row j itself: k1
        return k1 if s is w else up_columns(y, s)

    w, k1 = _finite(np.ascontiguousarray(np.moveaxis(row, 0, -1))), None
    for j in range(grid.ny - 1):
        q_below, k1 = k1, up_columns(ys[j], w)  # row j of Q
        fold(j, w, q_below)
        w = _finite(_rk4_step(stage, ys[j], w, grid.hy))
    fold(grid.ny - 1, w, k1)
    if failure is not None:
        raise failure
    up_columns(ys[-1], w)  # unread, but a right side that fails there fails
    return worst


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


def _solve_p(F, Fp, env, target, start):
    """Solve F(..., p) = target for p at every node by Newton from `start`,
    F and Fp compiled.  RootSolveError once the steps are done, where at
    some node Newton stalls (|F_p| < GUARD), steps to nan or runs out of
    steps."""
    tol = 1e-12 * (1.0 + np.abs(target))
    shape = np.broadcast_shapes(np.shape(target), np.shape(start))
    p = np.broadcast_to(np.asarray(start, dtype=float), shape)[()]
    newton = np.ones(shape, dtype=bool)  # nodes Newton still moves
    failed = np.zeros(shape, dtype=bool)
    for _ in range(60):
        env["p"] = p
        r = F(env, 0.0)[0] - target
        newton &= ~(np.abs(r) <= tol)
        if not newton.any():
            break
        d = Fp(env, 0.0)[0]
        stalled = newton & (np.abs(d) < GUARD)
        newton &= ~stalled
        p_next = p - r / np.where(newton, d, 1.0)
        escaped = newton & np.isnan(p_next)
        failed |= stalled | escaped
        newton &= ~escaped & (p_next != p)  # a fixed point of the step is a root
        p = np.where(newton, p_next, p)[()]
    if failed.any() or newton.any():
        raise RootSolveError("Newton iteration for the v_x relation failed")
    return p


# ---------------------------------------------------------------------------
# transformation propagation


class BTPropagation:
    """Propagated companion solution with its compatibility diagnostic.

    v is None when it was written into a FieldRows.
    compatibility_residual is max |d/dy(v_x) - d/dx(v_y)| over interior
    nodes, with the right sides evaluated through the defining relations
    and differenced centrally.  sup_error is max |v - reference|, None
    without a reference.
    """

    __slots__ = ("v", "compatibility_residual", "sup_error")

    def __init__(self, v: Optional[Field], compatibility_residual: float,
                 sup_error: Optional[float] = None):
        self.v, self.compatibility_residual = v, compatibility_residual
        self.sup_error = sup_error


def _affine_split(F: Expr):
    """(F0, F1) with F = F0 + F1*p when F is affine in p, else None."""
    F1 = ex.differentiate(F, "p")
    if ex.differentiate(F1, "p") != ex.ZERO:
        return None
    return ex.substitute(F, "p", ex.ZERO), F1


def bt_propagate(
    bt: WavelikeBT, seed, v0: float, grid: Grid, rows: Optional[FieldRows] = None,
    reference=None,
) -> BTPropagation:
    """Integrate the companion solution v from the corner value v0.

    `seed` is an analytic expression for u(x, y), so its derivatives in
    the ODE right sides are exact.  A relation F not affine in v_x is
    solved for v_x by Newton, from 0.0 on the base row.  With `rows`, v
    is marched into its shared array, which starts formatting each block
    of rows of v as the march finishes it, and the result's v is None.  A
    `reference` expression in x, y is compared with each block of v once
    the block is final (SupError), in blocks set by the grid alone, so
    that which of its failures is raised does not depend on the CPU
    count; they are raised only once the march has passed.
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
            return _solve_p(F, Fp, env, target, start)
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
    last_p = 0.0

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

    V = np.empty((grid.ny, grid.nx)) if rows is None else rows.values
    step = _block_rows(grid.ny, grid.nx, 1)  # the reference's blocks: the grid's alone
    fold = None if reference is None else SupError(reference, grid, params)

    def on_row(j, v):
        V[j] = v
        if fold is not None:
            if (j + 1) % step and j + 1 < grid.ny:
                return
            start = j - j % step  # the block that row j ends is final
            fold.add(start, V[start:j + 1])
        if rows is not None:
            rows.post(j + 1)  # rows 0..j are final, and compared with the reference

    residual = _march(along_row, up_columns, p_row, on_row, v0, grid)
    return BTPropagation(None if rows is not None else Field(grid, V), float(residual),
                         None if fold is None else fold.result())


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


class TzitzeicaResidual:
    """max and mean of |(ln h')_xy - h' + h'^{-2}| over the interior nodes
    whose logarithm stencil avoids singular, nonpositive or non-finite
    values, folded in as the rows of h' are added in order: each row's
    logarithm is kept for the two rows after it, and interior row j - 1 is
    closed once row j is in.  The mean is each row's np.sum added exactly
    (math.fsum) over the usable node count."""

    def __init__(self, grid: Grid):
        self.grid = grid
        self._rows = collections.deque(maxlen=3)  # (h', h' > GUARD, ln h') of the last three rows
        self._worst, self._sums, self._nodes = -np.inf, [], 0

    def add(self, h_prime: np.ndarray) -> None:
        ok = np.isfinite(h_prime) & (h_prime > GUARD)  # implies |h'| >= GUARD: not singular
        self._rows.append((h_prime, ok, np.where(ok, np.log(np.where(ok, h_prime, 1.0)), np.nan)))
        if len(self._rows) < 3:
            return
        (_, ok0, L0), (center, ok1, _), (_, ok2, L2) = self._rows
        # the mixed stencil touches the four diagonal neighbors plus the center
        usable = ok1[1:-1] & ok2[2:] & ok2[:-2] & ok0[2:] & ok0[:-2]
        center = center[1:-1]
        d_xy = (L2[2:] - L2[:-2] - L0[2:] + L0[:-2]) / (4 * self.grid.hx * self.grid.hy)
        resid = np.abs(d_xy - center + center**-2.0)[usable]
        if resid.size:
            self._worst = max(self._worst, resid.max())
            self._sums.append(resid.sum())
            self._nodes += resid.size

    def report(self) -> ResidualReport:
        """The residual once every row is in; SingularFieldError when no
        interior node is usable."""
        if not self._nodes:
            raise SingularFieldError("no usable interior nodes for the residual")
        total = (self.grid.nx - 2) * (self.grid.ny - 2)
        return ResidualReport(max_residual=float(self._worst),
                              mean_residual=math.fsum(self._sums) / self._nodes,
                              nodes=self._nodes, excluded=total - self._nodes)


class TzitzeicaPropagation:
    """The marched (alpha, beta) and the new solution h', None when h' was
    written into a FieldRows, the compatibility residual of each marched
    component, the count of singular nodes, and h''s own TzitzeicaResidual."""

    __slots__ = ("alpha", "beta", "h_prime", "alpha_compatibility", "beta_compatibility",
                 "singular_count", "h_prime_residual")

    def __init__(self, alpha: Optional[Field], beta: Optional[Field], h_prime: Optional[Field],
                 alpha_compatibility: float, beta_compatibility: float, singular_count: int,
                 h_prime_residual: TzitzeicaResidual):
        self.alpha, self.beta, self.h_prime = alpha, beta, h_prime
        self.alpha_compatibility, self.beta_compatibility = alpha_compatibility, beta_compatibility
        self.singular_count, self.h_prime_residual = singular_count, h_prime_residual


def tzitzeica_propagate(
    h, lam: float, alpha0: float, beta0: float, grid: Grid, rows: Optional[FieldRows] = None,
    params: Optional[dict] = None,
) -> TzitzeicaPropagation:
    """March the auxiliary (alpha, beta) system and emit h' = 2*alpha*beta - h.

    The pair obeys

        alpha_x = (h_x alpha + lam beta)/h - alpha^2    alpha_y = h - alpha beta
        beta_x  = h - alpha beta                        beta_y  = (h_y beta + alpha/lam)/h - beta^2

    integrated along the base row and then up the columns.  Nodes where
    |h'| < GUARD are flagged singular rather than treated as failures.
    Each row of h' is made, counted and folded into its residual once the
    march has that row final.  With `rows`, h' is written into its shared
    array, nan at singular nodes, and no array of the grid's size is kept.
    `params` binds the fixed parameters that h names.
    """
    _require_interior(grid)
    params = params or {}
    h = ex.as_expr(h, ("x", "y"), tuple(params))
    lam = float(lam)
    if abs(lam) < GUARD:
        raise PropagationError("lam must be bounded away from zero")
    # each compiled once; h and a derivative are evaluated once per stage coordinate
    h_of, hx_of, hy_of = (ex.compile((e,)) for e in (h, ex.differentiate(h, "x"),
                                                      ex.differentiate(h, "y")))
    xs, ys = grid.xs(), grid.ys()

    def terms(env, derivative):  # h, checked against the guard, then its derivative
        hv = h_of(env, 0.0)[0]
        if np.min(np.abs(hv)) < GUARD:
            raise PropagationError("seed |h| fell inside the guard")
        return env, hv, derivative(env, 0.0)[0]

    base_terms = _per_stage(lambda x: terms(dict(params, x=x, y=grid.y0), hx_of))
    column_terms = _per_stage(lambda y: terms(dict(params, x=xs, y=np.full(grid.nx, y)), hy_of))

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
        return w_x(w, hv, hx_of(env, 0.0)[0])

    if rows is None:
        A, B, Hp = (np.empty((grid.ny, grid.nx)) for _ in range(3))
        mask = np.zeros((grid.ny, grid.nx), dtype=bool)
    residual, singular = TzitzeicaResidual(grid), 0

    def on_row(j, w):  # p_row has just evaluated h on row j
        nonlocal singular
        a, b = w
        hp = 2.0 * a * b - column_terms(ys[j])[1]
        sing = np.abs(hp) < GUARD
        singular += int(np.count_nonzero(sing))
        residual.add(hp)
        if rows is None:
            A[j], B[j], Hp[j], mask[j] = a, b, hp, sing
        else:
            rows.values[j] = np.where(sing, np.nan, hp)
            rows.post(j + 1)  # rows 0..j are final

    alpha_c, beta_c = _march(along_row, up_columns, p_row, on_row, (alpha0, beta0), grid)
    if rows is None:
        alpha, beta = Field(grid, A), Field(grid, B)
        h_prime = Field(grid, Hp, singular=mask if singular else None)
    else:
        alpha = beta = h_prime = None
    return TzitzeicaPropagation(alpha, beta, h_prime, float(alpha_c), float(beta_c), singular,
                                residual)


# ---------------------------------------------------------------------------
# grid CSV serialization


_HEADER_RE = re.compile(
    r"^# grid nx=(\d+) ny=(\d+) "
    r"x0=(\S+) x1=(\S+) y0=(\S+) y1=(\S+)$"
)
_RECORD = struct.Struct("=i")  # a block index on the queue; -1 stops its reader
_QUEUE = select.PIPE_BUF // _RECORD.size  # records the queue is ever given
_BLOCK = 1 << 14  # values per block, over which one _format_rows call spreads its overhead
_LAG = 16  # blocks per child queued unformatted before the posting process formats one


def _block_rows(ny: int, nx: int, readers: int) -> int:
    """Rows per FieldRows block: about _BLOCK values, at least four blocks
    per reader where rows allow, and at most _QUEUE - readers blocks, so
    that all the queue is ever given (every block, and a stop per reader)
    fits in PIPE_BUF bytes, which a pipe always holds: no write to it
    waits.  With one reader these are also the blocks in which
    bt_propagate compares v with its reference, whatever the CPU count."""
    return max(-(-ny // (_QUEUE - readers)), min(-(-_BLOCK // nx), ny // (4 * readers)))


class FieldRows:
    """The CSV file of a grid function, each block of rows formatted as
    soon as it is final and written at its place in the file.

    `values` is an (ny, nx) array in shared memory, cut into blocks of
    consecutive rows (see _block_rows).  `path` + ".tmp" is opened and
    its header written before one child is forked per further CPU this
    process may run on (at most one per row).  The children claim block
    indices from a queue, a pipe of 4-byte records whose read end never
    blocks, so a child waits in select; post(stop) queues the blocks of
    the rows below `stop` once they are final, the last block included,
    and this process claims the oldest queued block and formats it itself
    whenever more than _LAG blocks per child wait unformatted, so each
    block at once with no child.  commit() queues a stop record per
    process and formats here whatever is left.  Whoever formats a block
    gives the block's whole pages of `values` back to the system
    (MADV_REMOVE, which frees them for every process), so a row of
    `values` is undefined once its block is formatted; a page shared by
    two blocks stays until the commit.  It then enters the block's length in a
    shared table, -1 until then, and writes the block at the header's
    length plus the lengths before it once those are all known, holding
    it until then (_write_held).  Only queue records and single signal
    bytes cross a pipe.  A march fills `values` and posts its rows as
    they are final; write_field_csv copies a whole field in.
    Leaving the `with` block without a commit kills and reaps every child
    and removes the .tmp; a child whose queue closes because this process
    died exits at once.
    """

    def __init__(self, grid: Grid, path: str):
        if os.path.isdir(path) and not os.path.islink(path):  # commit's rename would fail
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
        self.grid, self.path, self._tmp = grid, path, path + ".tmp"
        self._map = mmap.mmap(-1, 8 * grid.ny * grid.nx)
        self.values = np.frombuffer(self._map).reshape(grid.ny, grid.nx)
        self._posted = 0  # blocks below this are on the queue
        affinity = getattr(os, "sched_getaffinity", None)
        readers = min(len(affinity(0)), grid.ny, _QUEUE - 1) if affinity else 1
        self.block_rows = _block_rows(grid.ny, grid.nx, readers)
        self._blocks = -(-grid.ny // self.block_rows)
        # glibc raises its mmap and trim thresholds to the size of the
        # largest mmapped chunk freed (mallopt(3)).  One such chunk, freed
        # untouched, keeps the temporaries of a block's formatting and
        # reference on the heap between march rows, where glibc would
        # otherwise hand them back after each block and fault them in again
        np.empty(min(128 * self.block_rows * grid.nx, 1 << 25), np.uint8)
        # per block, in shared memory: its text's length, -1 until it is
        # formatted, and whether it is written
        self._lengths = np.frombuffer(mmap.mmap(-1, 8 * self._blocks), np.int64)
        self._lengths[:] = -1
        self._written = np.frombuffer(mmap.mmap(-1, self._blocks), np.bool_)
        self._children = []  # (pid, read end of the pipe it reports on)
        self._held = {}  # index -> text of the blocks formatted here and not yet written
        self._claims = self._queue = self._wait = self._go = -1
        self._fd = os.open(self._tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
        try:
            header = (f"# grid nx={grid.nx} ny={grid.ny} x0={grid.x0!r} x1={grid.x1!r} "
                      f"y0={grid.y0!r} y1={grid.y1!r}\n").encode()
            _pwrite(self._fd, header, 0)
            self._start = len(header)
            self._claims, self._queue = os.pipe()
            os.set_blocking(self._claims, False)
            self._wait, self._go = os.pipe()  # a byte on it lets a stopped child write the rest
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
        """Kill and reap every child still running, close the queue and the
        file, and remove the .tmp unless commit renamed it."""
        _reap(self._children, kill=True)
        for fd in (self._claims, self._queue, self._wait, self._go, self._fd):
            if fd >= 0:
                os.close(fd)
        self._claims = self._queue = self._wait = self._go = self._fd = -1
        if self._tmp is not None:
            with contextlib.suppress(FileNotFoundError):
                os.remove(self._tmp)
            self._tmp = None

    def post(self, stop: int) -> None:
        """Queue the whole blocks of the rows below `stop`, and every block
        once `stop` reaches ny.  While more than _LAG blocks per child are
        then queued unformatted, claim the oldest queued block and format
        it here, as long as the queue holds one: this never waits for a
        child, and with no child it formats every block it queues."""
        stop = stop // self.block_rows if stop < self.grid.ny else self._blocks
        if stop <= self._posted:
            return
        os.write(self._queue, struct.pack(f"={stop - self._posted}i", *range(self._posted, stop)))
        self._posted = stop
        lag = _LAG * len(self._children)
        while np.count_nonzero(self._lengths[:stop] < 0) > lag:
            k = _claim_now(self._claims)
            if k is None:  # the children hold every queued block
                return
            self._take(k)

    def commit(self) -> None:
        """Queue every block and a stop record per process, format here the
        blocks left on the queue, let every child write the blocks it still
        holds, and rename the .tmp to `path`.  Each child, at its stop
        record, reports that its lengths are in and waits for one byte on
        the go pipe, sent once this process has formatted its share and
        every child has reported.  The rename comes only once every child
        has exited 0 and every block is marked written."""
        self.post(self.grid.ny)
        os.write(self._queue, _RECORD.pack(-1) * (len(self._children) + 1))
        while (k := _claim(self._claims)) >= 0:
            self._take(k)
        for _pid, report in self._children:
            os.read(report, 1)  # its lengths are in, or it is gone
        self._write_held()
        os.write(self._go, b"\0" * len(self._children))
        _reap(self._children)
        unwritten = np.flatnonzero(~self._written)
        if unwritten.size:
            raise OSError(f"no CSV row formatter wrote block {unwritten[0]}")
        os.replace(self._tmp, self.path)
        self._tmp = None

    def _take(self, k: int) -> None:
        """Format block k, give its pages back, enter its length, and write
        every held block whose place is known."""
        lo, hi = k * self.block_rows, min((k + 1) * self.block_rows, self.grid.ny)
        text = _format_rows(self.values[lo:hi])
        self._release(lo, hi)
        self._lengths[k] = len(text)
        self._held[k] = text
        self._write_held()

    def _release(self, lo: int, hi: int) -> None:
        """Give the whole pages of rows lo to hi - 1 of `values` back to the
        system, for every process that maps them; a page that other rows
        share stays.  Nothing is released where mmap has no MADV_REMOVE or
        the system refuses it."""
        advice = getattr(mmap, "MADV_REMOVE", None)
        if advice is None:
            return
        row, page = 8 * self.grid.nx, mmap.PAGESIZE
        start = -(-lo * row // page) * page
        end = hi * row // page * page if hi < self.grid.ny else len(self._map)
        if start < end:
            with contextlib.suppress(OSError):
                self._map.madvise(advice, start, end - start)

    def _write_held(self) -> None:
        """Write each held block whose predecessors' lengths are all known,
        at the header's length plus their sum, and drop it."""
        held = self._held
        for k in sorted(held):
            before = self._lengths[:k]
            if k and before.min() < 0:
                return
            _pwrite(self._fd, held.pop(k), self._start + int(before.sum()))
            self._written[k] = True

    def _fork(self) -> tuple:
        """Fork a formatter child; returns (pid, read end of the pipe it
        reports on).  The child leaves through os._exit on every path, so
        it never returns into the caller and runs no exit handlers."""
        report, write_fd = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            os.close(report)
            os.close(write_fd)
            raise
        if pid == 0:
            status = 1
            try:
                # so that the queue and the go pipe close when the parent dies
                for fd in (self._queue, self._go, report):
                    os.close(fd)
                for _pid, fd in self._children:
                    os.close(fd)
                while (k := _claim(self._claims)) >= 0:
                    self._take(k)
                os.write(write_fd, b"\0")  # every length of its blocks is in
                if os.read(self._wait, 1):
                    self._write_held()
                    status = 0
            finally:
                os._exit(status)
        os.close(write_fd)
        return pid, report


def _claim(queue: int) -> int:
    """The next block index on the queue, once it holds one, or -1 to stop;
    struct.error once the queue's writer is gone.  The queue's read end
    never blocks, so this waits in select and reads again when another
    process took the record first."""
    while (k := _claim_now(queue)) is None:
        select.select([queue], [], [])
    return k


def _claim_now(queue: int) -> Optional[int]:
    """The next record on the queue, or None when it holds none now."""
    try:
        return _RECORD.unpack(os.read(queue, _RECORD.size))[0]
    except BlockingIOError:
        return None


def _pwrite(fd: int, data: bytes, offset: int) -> None:
    """os.pwrite, raising OSError on a short write."""
    if os.pwrite(fd, data, offset) != len(data):
        raise OSError(f"short write of the CSV at byte {offset}")


def write_field_csv(fieldobj: Field, path: str) -> None:
    """Serialize a field; singular nodes become `nan`.

    The values are copied into a FieldRows for `path`, all rows ready at
    once, and committed: this process formats blocks with the children
    until none is left, and every child has exited and been reaped before
    this returns.  The bytes depend neither on the CPU count nor on which
    process formatted a block.

    Writing is atomic: the content lands in a sibling temp file first,
    which is removed if any row fails.
    """
    with FieldRows(fieldobj.grid, path) as rows:
        rows.values[...] = fieldobj.values
        if fieldobj.singular is not None:
            rows.values[fieldobj.singular] = np.nan
        rows.commit()


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
    del hi  # each array is released once dead: a block's peak is their sum
    b = _POW10[p]
    bh, bl = _POW10_SPLIT[0][p], _POW10_SPLIT[1][p]
    ah, al = _split(a)
    hi = a * b
    lo = ((ah * bh - hi) + ah * bl + al * bh) + al * bl
    del ah, al, bh, bl
    # the integers [A, B] of the rounding interval, half an ulp h either
    # side of N; _format_rows says why that is enough on its range
    h = (a.view(np.uint64) & np.uint64(0x7FF << 52)).view(float) * (b * 2.0**-53)
    del b
    ok = (hi >= 1e16) & (hi < 1e17)
    hint = hi.astype(np.int64)
    del hi
    A = hint + np.ceil(lo - h).astype(np.int64)
    B = hint + np.floor(lo + h).astype(np.int64)
    del h
    # the largest t with a multiple of 10**t in [A, B]: as B - A < 100, t > 1
    # only where B % 100 <= B - A, and then the digits of B above are zeros
    w = B - A
    t = (B - 10 * (B // 10) <= w).astype(np.intp)
    q2 = B // 100
    t += B - 100 * q2 <= w
    del w
    more = np.flatnonzero(t == 2)
    t[more] += _trailing_zeros(q2[more])
    del q2, more
    # of those multiples, the one closest to N; an exact tie is not proven
    fl = np.floor(lo)
    n0 = hint + fl.astype(np.int64)
    del hint
    pw = _INT10[t]
    d = n0 % pw
    down = n0 - d
    del n0
    in_down, in_up = down >= A, down + pw <= B
    del A, B
    key = 2 * (d + (lo - fl)) - pw
    del d, lo, fl
    ok &= ~(in_down & in_up & (key == 0))
    c = down + pw * (~in_down | (in_up & (key > 0)))
    ok &= (c >= 10**16) & (c < 10**17)
    return c, p, t, ok


def _format_rows(block: np.ndarray) -> bytes:
    """The CSV lines of the rows of `block`, each ending in a newline: the
    repr of each value, joined by commas.

    The digits of the finite values with 1e-4 <= |x| < 1e16, which repr
    prints without an exponent, are found here for the whole block at
    once.  repr itself writes the text of every other value, and of every
    value whose digits that arithmetic does not prove, into one more field
    of the value's record."""
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
    del a
    fast &= ok
    del ok
    pf = np.minimum(p, 17)
    whole = c // _INT10[pf]
    frac = (c - whole * _INT10[pf]) * _INT10[17 - pf]  # the digits after the zeros
    zeros = np.where(fast, p - pf, 4)
    intd = np.maximum(17 - p, 1) * fast  # integer digits shown
    fd = np.maximum(pf - t, 1) * fast  # digits shown after the point and zeros
    del c, p, t, pf
    # each value's text in one record, NUL where no character is shown: the
    # sign, the integer digits in groups of four, the point and zeros, the
    # other digits, repr's text, the separator; a field no value of the block
    # shows is left out
    fields = []
    negative = fast & (x < 0)
    if negative.any():
        fields.append(("sign", negative.view(np.uint8) * np.uint8(ord("-"))))
    del negative
    for k in range(12, -1, -4):
        if intd.max() > k:
            fields.append((f"i{k}", _DIGITS4[_group(whole, k)] & _LAST[np.clip(intd - k, 0, 4)]))
    del whole, intd
    fields.append(("point", _POINT[zeros] if np.any(zeros) else fast.view(np.uint8) * np.uint8(ord("."))))
    del zeros
    fields.append(("f", ((ord("0") + frac // 10**16) * fast).astype(np.uint8)))
    for k in range(1, 17, 4):
        if fd.max() > k:
            group = _group(frac, 13 - k)  # digits k to k + 3 of the 17
            fields.append((f"f{k}", _DIGITS4[group] & _FIRST[np.clip(fd - k, 0, 4)]))
            del group
    del frac, fd
    fields.append(("sep", np.full(x.size, ord(","), np.uint8)))
    fields[-1][1][nx - 1::nx] = ord("\n")
    layout = [(name, f"<u{values.itemsize}") for name, values in fields]
    slow = np.flatnonzero(~fast)
    if slow.size:
        # NUL-padded; repr's text is at most a sign, 17 digits, the point and e-308
        layout.insert(-1, ("repr", "S24"))
    text = np.zeros(x.size, layout)
    for name, values in fields:
        text[name] = values
    del fields, values
    if slow.size:
        text["repr"][slow] = [repr(v) for v in x[slow].tolist()]
    out = text.view(np.uint8)
    return out[out != 0].tobytes()


def _reap(children: list, kill: bool = False) -> None:
    """Close the pipes of `children` and wait for each (after SIGKILL when
    `kill`); raise OSError if one did not exit with status 0."""
    failed = []
    while children:
        pid, report = children.pop(0)
        os.close(report)
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
