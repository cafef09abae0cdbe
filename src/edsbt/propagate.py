"""Numeric solution generation on rectangular grids.

Given a wavelike transformation and an analytic seed solution u(x, y),
the compatible ODE system

    u_x = F(x, y, u, v, v_x)        v_y = G(x, y, u, v, u_y)

determines the companion solution v up to the single constant v(x0, y0).
We march v along the base row y = y0 by solving the first relation for
v_x (closed form when F is affine in v_x, safeguarded Newton otherwise)
and integrating with classical fourth-order Runge-Kutta, then sweep each
column upward with the explicit v_y relation.  Columns are decoupled
once the base row is known, so the column sweep is vectorized across x.

The same marching scheme drives the (alpha, beta) system attached to
solutions of (ln h)_xy = h - h^{-2}, whose output h' = 2*alpha*beta - h
is a new solution of the same equation.

Cross-derivative compatibility residuals quantify how far the two
one-form relations are from closing into a genuine surface; they vanish
to discretization accuracy exactly when the seed solves its PDE.
"""

from __future__ import annotations

import math
import os
import re
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import expr as ex
from .backlund import WavelikeBT
from .expr import Expr


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


@dataclass(frozen=True)
class Field:
    """Grid function, values[j, i] at (x_i, y_j).

    Values must be finite except where the optional singular mask is set.
    """

    grid: Grid
    values: np.ndarray
    singular: Optional[np.ndarray] = None

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.grid.ny, self.grid.nx):
            raise ValueError(
                f"field shape {vals.shape} does not match grid "
                f"({self.grid.ny}, {self.grid.nx})"
            )
        object.__setattr__(self, "values", vals)
        if self.singular is not None:
            mask = np.asarray(self.singular, dtype=bool)
            if mask.shape != vals.shape:
                raise ValueError("singular mask shape does not match values")
            object.__setattr__(self, "singular", mask)
            probe = vals[~mask]
        else:
            probe = vals
        if probe.size and not np.all(np.isfinite(probe)):
            raise ValueError("non-finite field values outside the singular mask")

    @property
    def singular_count(self) -> int:
        return 0 if self.singular is None else int(self.singular.sum())


def sample_field(e, grid: Grid, params: Optional[dict] = None) -> Field:
    """Pointwise evaluation of an expression in x, y over the grid."""
    e = ex.as_expr(e, ("x", "y"), tuple(params or ()))
    X, Y = grid.mesh()
    env = dict(params or {})
    env["x"] = X
    env["y"] = Y
    vals = np.broadcast_to(np.asarray(ex.evaluate(e, env), dtype=float), X.shape)
    return Field(grid, np.array(vals))


# ---------------------------------------------------------------------------
# Runge-Kutta stepping


def _rk4_step(rhs, t, w, h):
    k1 = rhs(t, w)
    k2 = rhs(t + h / 2, w + (h / 2) * k1)
    k3 = rhs(t + h / 2, w + (h / 2) * k2)
    k4 = rhs(t + h, w + h * k3)
    return w + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)


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
# scalar root solve for the v_x relation


def _bisect(residual, lo, hi):
    rlo = residual(lo)
    rhi = residual(hi)
    if rlo == 0.0:
        return lo
    if rhi == 0.0:
        return hi
    if math.copysign(1.0, rlo) == math.copysign(1.0, rhi):
        raise RootSolveError(
            f"bracket [{lo}, {hi}] does not straddle a root of the v_x relation"
        )
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        rm = residual(mid)
        if rm == 0.0 or (hi - lo) < 1e-15 * (1.0 + abs(mid)):
            return mid
        if math.copysign(1.0, rm) == math.copysign(1.0, rlo):
            lo, rlo = mid, rm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _solve_p(F, Fp, env, target, guard, bracket, start):
    """Solve F(..., p) = target for p: Newton from `start`, bisection on
    `bracket` when Newton stalls or escapes it."""

    def residual(p):
        env["p"] = p
        return ex.evaluate(F, env) - target

    tol = 1e-12 * (1.0 + abs(target))
    p = float(start)
    for _ in range(60):
        r = residual(p)
        if abs(r) <= tol:
            return p
        env["p"] = p
        d = ex.evaluate(Fp, env)
        if abs(d) < guard:
            break
        step = r / d
        p_next = p - step
        if bracket is not None and not (bracket[0] <= p_next <= bracket[1]):
            break
        if p_next == p:
            return p
        p = p_next
    if bracket is None:
        raise RootSolveError(
            "Newton iteration for the v_x relation failed and no bracket was given"
        )
    p = _bisect(residual, float(bracket[0]), float(bracket[1]))
    if abs(residual(p)) > 1e-8 * (1.0 + abs(target)):
        raise RootSolveError("bisection did not converge for the v_x relation")
    return p


# ---------------------------------------------------------------------------
# transformation propagation


@dataclass(frozen=True)
class BTPropagation:
    """Propagated companion solution with its compatibility diagnostic.

    compatibility_residual is max |d/dy(v_x) - d/dx(v_y)| over interior
    nodes, with the right sides evaluated through the defining relations
    and differenced centrally.
    """

    v: Field
    compatibility_residual: float


def _affine_split(F: Expr):
    """(F0, F1) with F = F0 + F1*p when F is affine in p, else None."""
    F1 = ex.differentiate(F, "p")
    if ex.differentiate(F1, "p") != ex.ZERO:
        return None
    return ex.substitute(F, "p", ex.ZERO), F1


def bt_propagate(
    bt: WavelikeBT,
    seed,
    v0: float,
    grid: Grid,
    bracket: Optional[tuple] = None,
    guard: float = 1e-6,
) -> BTPropagation:
    """Integrate the companion solution v from the corner value v0.

    `seed` is an analytic expression for u(x, y), so its derivatives in
    the ODE right sides are exact.  `bracket`, when given, is a global
    (lo, hi) window for the v_x root solve in the non-affine case.
    """
    params = _fixed_params(bt.chart)
    seed = ex.as_expr(seed, ("x", "y"), tuple(params))
    F, G = bt.F, bt.G
    Fp = bt.fp
    ux_e = ex.differentiate(seed, "x")
    uy_e = ex.differentiate(seed, "y")
    split = _affine_split(F)

    def scalar_env(xv, yv, vv):
        env = dict(params)
        env["x"] = xv
        env["y"] = yv
        env["u"] = ex.evaluate(seed, env)
        env["v"] = vv
        return env

    last_p = 0.0 if bracket is None else 0.5 * (bracket[0] + bracket[1])

    def p_rhs(xv, vv):
        nonlocal last_p
        env = scalar_env(xv, grid.y0, vv)
        target = ex.evaluate(ux_e, env)
        if split is not None:
            f0, f1 = split
            slope = ex.evaluate(f1, env)
            if abs(slope) < guard:
                raise RootSolveError(f"|F_p| < {guard} at x={xv}, base row")
            p = (target - ex.evaluate(f0, env)) / slope
        else:
            p = _solve_p(F, Fp, env, target, guard, bracket, last_p)
        last_p = p
        return p

    # base row: v(x, y0)
    xs = grid.xs()
    base = np.empty(grid.nx)
    base[0] = float(v0)
    for i in range(grid.nx - 1):
        base[i + 1] = _rk4_step(p_rhs, xs[i], base[i], grid.hx)

    # column sweep: explicit v_y relation, vectorized across x
    def q_rhs(yv, vrow):
        env = dict(params)
        env["x"] = xs
        env["y"] = yv
        env["u"] = ex.evaluate(seed, env)
        env["v"] = vrow
        env["q"] = ex.evaluate(uy_e, env)
        out = ex.evaluate(G, env)
        return np.broadcast_to(np.asarray(out, dtype=float), vrow.shape)

    ys = grid.ys()
    vals = np.empty((grid.ny, grid.nx))
    vals[0] = base
    for j in range(grid.ny - 1):
        vals[j + 1] = _rk4_step(q_rhs, ys[j], vals[j], grid.hy)
    if not np.all(np.isfinite(vals)):
        raise PropagationError("propagated state diverged on the grid")

    compat = _bt_compatibility(
        F, G, Fp, split, seed, ux_e, uy_e, params, grid, vals, guard, bracket
    )
    return BTPropagation(Field(grid, vals), compat)


def _bt_compatibility(
    F, G, Fp, split, seed, ux_e, uy_e, params, grid, vals, guard, bracket
):
    X, Y = grid.mesh()
    env = dict(params)
    env["x"] = X
    env["y"] = Y
    env["u"] = np.broadcast_to(
        np.asarray(ex.evaluate(seed, env), dtype=float), X.shape
    )
    env["v"] = vals
    env["q"] = np.broadcast_to(
        np.asarray(ex.evaluate(uy_e, env), dtype=float), X.shape
    )
    Qgrid = np.broadcast_to(np.asarray(ex.evaluate(G, env), dtype=float), X.shape)
    target = np.broadcast_to(np.asarray(ex.evaluate(ux_e, env), dtype=float), X.shape)

    if split is not None:
        f0, f1 = split
        slope = np.broadcast_to(np.asarray(ex.evaluate(f1, env), dtype=float), X.shape)
        if np.min(np.abs(slope)) < guard:
            raise RootSolveError("|F_p| fell inside the guard on the grid")
        Pgrid = (target - np.asarray(ex.evaluate(f0, env), dtype=float)) / slope
    else:
        Pgrid = _vector_solve_p(F, Fp, env, target, grid, vals, guard, bracket)

    dy_P = (Pgrid[2:, 1:-1] - Pgrid[:-2, 1:-1]) / (2 * grid.hy)
    dx_Q = (Qgrid[1:-1, 2:] - Qgrid[1:-1, :-2]) / (2 * grid.hx)
    return float(np.max(np.abs(dy_P - dx_Q)))


def _vector_solve_p(F, Fp, env, target, grid, vals, guard, bracket):
    # elementwise Newton, warm-started from the finite-difference slope
    p = np.gradient(vals, grid.hx, axis=1)
    tol = 1e-12 * (1.0 + np.abs(target))
    for _ in range(80):
        env["p"] = p
        r = np.asarray(ex.evaluate(F, env), dtype=float) - target
        done = np.abs(r) <= tol
        if done.all():
            return p
        d = np.broadcast_to(
            np.asarray(ex.evaluate(Fp, env), dtype=float), p.shape
        ).copy()
        bad = (np.abs(d) < guard) & ~done
        if bad.any():
            raise RootSolveError("|F_p| fell inside the guard on the grid")
        d[done] = 1.0
        p = np.where(done, p, p - r / d)
    raise RootSolveError("elementwise Newton did not converge on the grid")


# ---------------------------------------------------------------------------
# residual reports


@dataclass(frozen=True)
class ResidualReport:
    max_residual: float
    mean_residual: float
    nodes: int
    excluded: int = 0


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
    hx, hy = grid.hx, grid.hy
    vx = (vals[1:-1, 2:] - vals[1:-1, :-2]) / (2 * hx)
    vy = (vals[2:, 1:-1] - vals[:-2, 1:-1]) / (2 * hy)
    vxy = (
        vals[2:, 2:] - vals[2:, :-2] - vals[:-2, 2:] + vals[:-2, :-2]
    ) / (4 * hx * hy)
    X, Y = grid.mesh()
    env = dict(params or {})
    env["x"] = X[1:-1, 1:-1]
    env["y"] = Y[1:-1, 1:-1]
    env["u"] = vals[1:-1, 1:-1]
    env["p"] = vx
    env["q"] = vy
    resid = np.abs(vxy - np.asarray(ex.evaluate(f, env), dtype=float))
    return ResidualReport(
        max_residual=float(np.max(resid)),
        mean_residual=float(np.mean(resid)),
        nodes=int(resid.size),
    )


# ---------------------------------------------------------------------------
# the (ln h)_xy = h - h^{-2} transformation


@dataclass(frozen=True)
class TzitzeicaPropagation:
    alpha: Field
    beta: Field
    h_prime: Field
    alpha_compatibility: float
    beta_compatibility: float
    singular_count: int


def tzitzeica_propagate(
    h,
    lam: float,
    alpha0: float,
    beta0: float,
    grid: Grid,
    guard: float = 1e-6,
) -> TzitzeicaPropagation:
    """March the auxiliary (alpha, beta) system and emit h' = 2*alpha*beta - h.

    The pair obeys

        alpha_x = (h_x alpha + lam beta)/h - alpha^2    alpha_y = h - alpha beta
        beta_x  = h - alpha beta                        beta_y  = (h_y beta + alpha/lam)/h - beta^2

    integrated along the base row and then up the columns.  Nodes where
    |h'| < guard are flagged singular rather than treated as failures.
    """
    h = ex.as_expr(h, ("x", "y"))
    lam = float(lam)
    if abs(lam) < guard:
        raise PropagationError("lam must be bounded away from zero")
    hx_e = ex.differentiate(h, "x")
    hy_e = ex.differentiate(h, "y")

    def h_values(xv, yv, e=h):
        out = np.asarray(ex.evaluate(e, {"x": xv, "y": yv}), dtype=float)
        return out

    def h_checked(xv, yv):
        out = h_values(xv, yv)
        if np.min(np.abs(out)) < guard:
            raise PropagationError("seed |h| fell inside the guard on the path")
        return out

    def row_rhs(xv, state):
        a, b = state
        hv = h_checked(xv, grid.y0)
        hxv = h_values(xv, grid.y0, hx_e)
        return np.array(
            [(hxv * a + lam * b) / hv - a * a, hv - a * b]
        )

    def col_rhs(yv, state):
        a, b = state
        hv = h_checked(xs, yv)
        hyv = h_values(xs, yv, hy_e)
        da = hv - a * b
        db = (hyv * b + a / lam) / hv - b * b
        return np.stack(
            [np.broadcast_to(da, a.shape), np.broadcast_to(db, b.shape)]
        )

    xs = grid.xs()
    ys = grid.ys()
    base = np.empty((2, grid.nx))
    base[:, 0] = (float(alpha0), float(beta0))
    for i in range(grid.nx - 1):
        base[:, i + 1] = _rk4_step(row_rhs, xs[i], base[:, i], grid.hx)

    A = np.empty((grid.ny, grid.nx))
    B = np.empty((grid.ny, grid.nx))
    A[0], B[0] = base
    state = base.copy()
    for j in range(grid.ny - 1):
        state = _rk4_step(col_rhs, ys[j], state, grid.hy)
        A[j + 1], B[j + 1] = state
    if not (np.all(np.isfinite(A)) and np.all(np.isfinite(B))):
        raise PropagationError("auxiliary state diverged on the grid")

    X, Y = grid.mesh()
    H = np.broadcast_to(h_values(X, Y), X.shape)
    if np.min(np.abs(H)) < guard:
        raise PropagationError("seed |h| fell inside the guard on the grid")
    HX = np.broadcast_to(h_values(X, Y, hx_e), X.shape)
    HY = np.broadcast_to(h_values(X, Y, hy_e), X.shape)
    h_prime = 2.0 * A * B - H
    mask = np.abs(h_prime) < guard

    # compatibility: both mixed partials of each state variable must agree
    ax_rhs = (HX * A + lam * B) / H - A * A
    ay_rhs = H - A * B
    bx_rhs = H - A * B
    by_rhs = (HY * B + A / lam) / H - B * B
    hx2, hy2 = 2 * grid.hx, 2 * grid.hy
    compat_a = np.abs(
        (ax_rhs[2:, 1:-1] - ax_rhs[:-2, 1:-1]) / hy2
        - (ay_rhs[1:-1, 2:] - ay_rhs[1:-1, :-2]) / hx2
    )
    compat_b = np.abs(
        (bx_rhs[2:, 1:-1] - bx_rhs[:-2, 1:-1]) / hy2
        - (by_rhs[1:-1, 2:] - by_rhs[1:-1, :-2]) / hx2
    )
    return TzitzeicaPropagation(
        alpha=Field(grid, A),
        beta=Field(grid, B),
        h_prime=Field(grid, h_prime, singular=mask if mask.any() else None),
        alpha_compatibility=float(np.max(compat_a)),
        beta_compatibility=float(np.max(compat_b)),
        singular_count=int(mask.sum()),
    )


def tzitzeica_residual(h_prime: Field, guard: float = 1e-6) -> ResidualReport:
    """max and mean of |(ln h')_xy - h' + h'^{-2}| over interior nodes whose
    logarithm stencil avoids singular or nonpositive values."""
    grid = h_prime.grid
    vals = h_prime.values
    ok = np.isfinite(vals) & (vals > guard)
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
    lxy = (
        L[2:, 2:] - L[2:, :-2] - L[:-2, 2:] + L[:-2, :-2]
    ) / (4 * grid.hx * grid.hy)
    center = vals[1:-1, 1:-1]
    resid = np.abs(lxy - center + center**-2.0)[usable]
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


def write_field_csv(fieldobj: Field, path: str) -> None:
    """Serialize a field; singular nodes become `nan`.

    Writing is atomic: the content lands in a sibling temp file first.
    """
    grid = fieldobj.grid
    out = fieldobj.values.copy()
    if fieldobj.singular is not None:
        out[fieldobj.singular] = np.nan
    lines = [
        f"# grid nx={grid.nx} ny={grid.ny} "
        f"x0={grid.x0!r} x1={grid.x1!r} y0={grid.y0!r} y1={grid.y1!r}"
    ]
    for j in range(grid.ny):
        lines.append(",".join(repr(float(val)) for val in out[j]))
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        fh.write("\n".join(lines))
        fh.write("\n")
    os.replace(tmp, path)


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
    vals = np.array(rows, dtype=float)
    mask = ~np.isfinite(vals)
    return Field(grid, vals, singular=mask if mask.any() else None)
