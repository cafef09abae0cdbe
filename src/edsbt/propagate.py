"""Numeric solution generation on rectangular grids.

Given a wavelike transformation and an analytic seed solution u(x, y),
the compatible ODE system

    u_x = F(x, y, u, v, v_x)        v_y = G(x, y, u, v, u_y)

determines the companion solution v up to the single constant v(x0, y0).
The (alpha, beta) system attached to solutions of (ln h)_xy = h - h^{-2}
has the same form; its output h' = 2*alpha*beta - h solves that equation.

Each system is written once, as right sides w_x = rhs_x(x, y, w) and
w_y = rhs_y(x, y, w) over node arrays, and one march runs both: classical
RK4 along the base row y = y0, then up every column at once.  rhs_x
solves the first relation for v_x, in closed form when F is affine in
v_x, else with one elementwise root solver (Newton, then bisection on a
bracket where Newton fails).  Compatibility residuals difference the same
right sides on the marched grid; they vanish to discretization accuracy
exactly when the seed solves its PDE.
"""

from __future__ import annotations

import contextlib
import os
import re
import shutil
import signal
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
# the march


def _rk4_step(rhs, t, w, h):
    k1 = rhs(t, w)
    k2 = rhs(t + h / 2, w + (h / 2) * k1)
    k3 = rhs(t + h / 2, w + (h / 2) * k2)
    k4 = rhs(t + h, w + h * k3)
    return w + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)


def _march(rhs_x, rhs_y, start, grid: Grid) -> np.ndarray:
    """March w_x = rhs_x(x, y, w) along y = y0 from w = `start` at (x0, y0),
    then w_y = rhs_y(x, y, w) up every column at once.  Returns w at every
    node, shaped start.shape + (ny, nx)."""
    start = np.asarray(start, dtype=float)
    xs, ys = grid.xs(), grid.ys()

    def along_row(x, w):
        return rhs_x(x, grid.y0, w)

    def up_columns(y, w):
        return rhs_y(xs, y, w)

    # node-major, so that row[i] of a scalar state is a numpy scalar
    row = np.empty((grid.nx,) + start.shape)
    row[0] = start
    for i in range(grid.nx - 1):
        row[i + 1] = _rk4_step(along_row, xs[i], row[i], grid.hx)
    W = np.empty(start.shape + (grid.ny, grid.nx))
    W[..., 0, :] = np.moveaxis(row, 0, -1)
    for j in range(grid.ny - 1):
        W[..., j + 1, :] = _rk4_step(up_columns, ys[j], W[..., j, :], grid.hy)
    if not np.all(np.isfinite(W)):
        raise PropagationError("propagated state diverged on the grid")
    return W


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


def _cross_residual(P, Q, grid) -> float:
    """max |P_y - Q_x| over the interior nodes, by central differences: the
    cross-derivative test of u_x = P, u_y = Q."""
    P, Q = (np.broadcast_to(a, (grid.ny, grid.nx)) for a in (P, Q))
    return float(np.max(np.abs(_d_y(P, grid) - _d_x(Q, grid))))


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
    """Solve F(..., p) = target for p at every node: Newton from `start`,
    then bisection on `bracket` at each node where Newton stalls
    (|F_p| < GUARD), leaves the bracket or runs out of steps."""

    def residual(p):
        env["p"] = p
        return ex.evaluate(F, env) - target

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
        d = ex.evaluate(Fp, env)
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
    bt: WavelikeBT, seed, v0: float, grid: Grid, bracket: Optional[tuple] = None
) -> BTPropagation:
    """Integrate the companion solution v from the corner value v0.

    `seed` is an analytic expression for u(x, y), so its derivatives in
    the ODE right sides are exact.  `bracket`, when given, is a global
    (lo, hi) window for the v_x root solve in the non-affine case.
    """
    _require_interior(grid)
    params = _fixed_params(bt.chart)
    seed = ex.as_expr(seed, ("x", "y"), tuple(params))
    ux_e = ex.differentiate(seed, "x")
    uy_e = ex.differentiate(seed, "y")
    split = _affine_split(bt.F)

    def env_at(x, y, v):  # the one environment both right sides read
        env = dict(params, x=x, y=y)
        env["u"] = ex.evaluate(seed, env)
        env["v"] = v
        return env

    def v_x(env, start):
        target = ex.evaluate(ux_e, env)
        if split is None:
            return _solve_p(bt.F, bt.fp, env, target, start, bracket)
        f0, f1 = split
        slope = ex.evaluate(f1, env)
        if np.min(np.abs(slope)) < GUARD:
            raise RootSolveError(f"|F_p| < {GUARD} where v_x is solved for")
        return (target - ex.evaluate(f0, env)) / slope

    def v_y(env):
        env["q"] = ex.evaluate(uy_e, env)
        return ex.evaluate(bt.G, env)

    # along the base row, Newton starts from the previous root
    last_p = 0.0 if bracket is None else 0.5 * (bracket[0] + bracket[1])

    def rhs_x(x, y, v):
        nonlocal last_p
        last_p = v_x(env_at(x, y, v), last_p)
        return last_p

    V = _march(rhs_x, lambda x, y, v: v_y(env_at(x, y, v)), v0, grid)
    env = env_at(*grid.mesh(), V)
    P = v_x(env, np.gradient(V, grid.hx, axis=1) if split is None else None)
    return BTPropagation(Field(grid, V), _cross_residual(P, v_y(env), grid))


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
    hx_e = ex.differentiate(h, "x")
    hy_e = ex.differentiate(h, "y")

    def at(e, x, y):
        return np.asarray(ex.evaluate(e, {"x": x, "y": y}), dtype=float)

    def h_at(x, y):
        hv = at(h, x, y)
        if np.min(np.abs(hv)) < GUARD:
            raise PropagationError("seed |h| fell inside the guard")
        return hv

    def w_x(x, y, w, hv):  # hv = h at the nodes, shared with w_y
        a, b = w
        return np.stack([(at(hx_e, x, y) * a + lam * b) / hv - a * a, hv - a * b])

    def w_y(x, y, w, hv):
        a, b = w
        return np.stack([hv - a * b, (at(hy_e, x, y) * b + a / lam) / hv - b * b])

    W = _march(lambda x, y, w: w_x(x, y, w, h_at(x, y)),
               lambda x, y, w: w_y(x, y, w, h_at(x, y)), (alpha0, beta0), grid)
    X, Y = grid.mesh()
    H = h_at(X, Y)
    P, Q = w_x(X, Y, W, H), w_y(X, Y, W, H)
    A, B = W
    h_prime = 2.0 * A * B - H
    mask = np.abs(h_prime) < GUARD
    return TzitzeicaPropagation(
        alpha=Field(grid, A),
        beta=Field(grid, B),
        h_prime=Field(grid, h_prime, singular=mask if mask.any() else None),
        alpha_compatibility=_cross_residual(P[0], Q[0], grid),
        beta_compatibility=_cross_residual(P[1], Q[1], grid),
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


def write_field_csv(fieldobj: Field, path: str) -> None:
    """Serialize a field; singular nodes become `nan`.

    The rows are split into one contiguous block per CPU the process may
    run on (at most one per row).  A forked child formats each block after
    the first while this process formats the first, and the blocks are
    joined in order, so the bytes do not depend on the CPU count.  Every
    child has exited and been reaped before this returns.

    Writing is atomic: the content lands in a sibling temp file first,
    which is removed if any block fails.
    """
    grid = fieldobj.grid
    out = fieldobj.values.copy()
    if fieldobj.singular is not None:
        out[fieldobj.singular] = np.nan
    header = (
        f"# grid nx={grid.nx} ny={grid.ny} "
        f"x0={grid.x0!r} x1={grid.x1!r} y0={grid.y0!r} y1={grid.y1!r}\n"
    )
    affinity = getattr(os, "sched_getaffinity", None)
    blocks = np.array_split(out, min(len(affinity(0)), grid.ny) if affinity else 1)
    tmp = path + ".tmp"
    children = []  # (pid, read end of its pipe), in block order
    try:
        for block in blocks[1:]:
            children.append(_fork_formatter(block))
        with open(tmp, "wb") as fh:
            fh.write(header.encode())
            fh.write(_format_rows(blocks[0]))
            for _pid, pipe in children:
                shutil.copyfileobj(pipe, fh)
        _reap(children)
    except BaseException:
        _reap(children, kill=True)
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise
    os.replace(tmp, path)


def _format_rows(block: np.ndarray) -> bytes:
    """The CSV lines of the rows of `block`, each ending in a newline."""
    return "".join(",".join(map(repr, row.tolist())) + "\n" for row in block).encode()


def _fork_formatter(block: np.ndarray):
    """Fork a child that writes `_format_rows(block)` to a pipe.  Returns
    (pid, read end).  The child leaves through os._exit on every path, so
    it never returns into the caller and runs no exit handlers."""
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
            os.close(read_fd)
            with open(write_fd, "wb") as pipe:
                pipe.write(_format_rows(block))
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    return pid, open(read_fd, "rb")


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
