"""Tests for grid propagation, residual reports, and CSV serialization.

The reference companion solution for the standard transformation with
seed u = 0 is v(x, y) = 4*atan(exp(-lam*x - y/lam)): differentiating
gives v_x = -2*lam*sin(v/2) and v_y = -(2/lam)*sin(v/2), which is
exactly the ODE system the marcher integrates, and v(0, 0) = pi.
"""

import builtins
import math
import os
import select
import signal
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from edsbt import backlund as bk
from edsbt import expr as ex
from edsbt import propagate as pp

SG_F = "p + 2*lam*sin((u+v)/2)"
SG_G = "-q + (2/lam)*sin((u-v)/2)"


@pytest.fixture(scope="module")
def sg_bt():
    ch = bk.b_chart(params={"lam": 1.0})
    return bk.build_wavelike(SG_F, SG_G, ch, ch.sample_spec(count=16))


def kink_field(grid, lam=1.0):
    return pp.sample_field(
        "4*atan(exp(-lam*x - y/lam))", grid, params={"lam": lam}
    )


class TestGrid:
    def test_spacing(self):
        g = pp.Grid(5, 3, 0.0, 2.0, -1.0, 1.0)
        assert g.hx == 0.5
        assert g.hy == 1.0
        assert np.array_equal(g.xs(), [0.0, 0.5, 1.0, 1.5, 2.0])
        assert np.array_equal(g.ys(), [-1.0, 0.0, 1.0])

    def test_mesh_layout(self):
        g = pp.Grid(3, 2, 0.0, 1.0, 0.0, 10.0)
        X, Y = g.mesh()
        assert X.shape == (2, 3)
        assert X[0, 2] == 1.0 and Y[1, 0] == 10.0

    def test_validation(self):
        with pytest.raises(ValueError):
            pp.Grid(1, 3, 0.0, 1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            pp.Grid(3, 3, 1.0, 1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            pp.Grid(3, 3, 0.0, 1.0, 2.0, 1.0)

    @pytest.mark.parametrize(
        "bounds",
        [(0.0, math.inf, 0.0, 1.0), (-math.inf, 0.0, 0.0, 1.0),
         (0.0, 1.0, 0.0, math.inf), (0.0, 1.0, -math.inf, 1.0)],
    )
    def test_infinite_bounds_rejected(self, bounds):
        with pytest.raises(ValueError):
            pp.Grid(3, 3, *bounds)


class TestField:
    def test_shape_checked(self):
        g = pp.Grid(3, 2, 0.0, 1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            pp.Field(g, np.zeros((3, 2)))

    def test_finite_unless_masked(self):
        g = pp.Grid(2, 2, 0.0, 1.0, 0.0, 1.0)
        vals = np.array([[1.0, np.nan], [0.0, 2.0]])
        with pytest.raises(ValueError):
            pp.Field(g, vals)
        mask = np.array([[False, True], [False, False]])
        f = pp.Field(g, vals, singular=mask)
        assert f.singular_count == 1


class TestSampleField:
    def test_zero(self):
        g = pp.Grid(4, 4, 0.0, 1.0, 0.0, 1.0)
        assert np.array_equal(pp.sample_field("0", g).values, np.zeros((4, 4)))

    def test_kink_corner(self):
        g = pp.Grid(3, 3, 0.0, 2.0, 0.0, 2.0)
        f = pp.sample_field("4*atan(exp(-x-y))", g)
        assert f.values[0, 0] == pytest.approx(math.pi, rel=1e-15)

    def test_unit_seed(self):
        g = pp.Grid(3, 3, 0.0, 1.0, 0.0, 1.0)
        assert np.array_equal(pp.sample_field("1", g).values, np.ones((3, 3)))

    def test_params(self):
        g = pp.Grid(3, 2, 0.0, 1.0, 0.0, 1.0)
        f = pp.sample_field("a*x", g, params={"a": 2.0})
        assert f.values[0, 2] == 2.0

    def test_domain_error(self):
        g = pp.Grid(3, 3, 0.0, 1.0, 0.0, 1.0)
        with pytest.raises(ex.DomainError):
            pp.sample_field("1/x", g)

    def test_blocks_match_the_mesh(self, monkeypatch):
        monkeypatch.setattr(pp, "_BLOCK", 3 * 7)  # three rows per block, the last one short
        grid = pp.Grid(7, 11, -1.0, 1.0, 0.3, 1.9)
        text = "x*y^3 + sin(y)^3 + a*exp(x - y)"
        X, Y = grid.mesh()
        want = ex.evaluate(ex.parse(text, ("x", "y"), ("a",)), {"a": 0.7, "x": X, "y": Y})
        assert np.array_equal(pp.sample_field(text, grid, params={"a": 0.7}).values, want)


class TestSupError:
    """sup_error folds max |v - e| block by block, to the whole mesh's value."""

    @pytest.mark.parametrize("block", [1, 7, 64, 1 << 14])
    @pytest.mark.parametrize("text", ["4*atan(exp(-lam*x - y/lam)) + x*y^3/1000", "lam", "0"])
    def test_bitwise_the_mesh_value(self, monkeypatch, sg_bt, text, block):
        grid = pp.Grid(23, 17, 0.0, 1.0, -0.5, 1.0)
        v = pp.bt_propagate(sg_bt, "0", math.pi, grid).v
        params = {"lam": 1.0}
        want = np.max(np.abs(v.values - pp.sample_field(text, grid, params).values))
        monkeypatch.setattr(pp, "_BLOCK", block)
        got = pp.sup_error(text, v, params)
        assert type(got) is float
        assert got.hex() == float(want).hex()

    @pytest.mark.parametrize("text, message", [
        ("exp(1000*x)", r"inf at node i=3, j=0, \(x, y\) = \(0\.75, 0\.0\)"),
        ("exp(1000*y) - 3*exp(999*y)", r"nan at node i=0, j=6, \(x, y\) = \(0\.0, 0\.75\)"),
    ])
    def test_non_finite_reference_names_its_lowest_node(self, monkeypatch, text, message):
        monkeypatch.setattr(pp, "_BLOCK", 10)  # two rows of five per block
        grid = pp.Grid(5, 9, 0.0, 1.0, 0.0, 1.0)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match=f"^the reference is {message}$"):
                pp.sup_error(text, pp.Field(grid, np.zeros((9, 5))))

    def test_a_failing_block_outranks_a_lower_non_finite_one(self, monkeypatch):
        # exp overflows on the first rows and sqrt fails from y = 0.625 on:
        # the non-finite values are reported only once every block is evaluated
        monkeypatch.setattr(pp, "_BLOCK", 10)
        grid = pp.Grid(5, 9, 0.0, 1.0, 0.0, 1.0)
        with np.errstate(over="ignore"):
            with pytest.raises(ex.DomainError, match="sqrt of a negative"):
                pp.sup_error("exp(1000*(1 - y)) + sqrt(0.5 - y)", pp.Field(grid, np.zeros((9, 5))))


class TestBTPropagate:
    def test_kink(self, sg_bt):
        grid = pp.Grid(201, 201, 0.0, 2.0, 0.0, 2.0)
        res = pp.bt_propagate(sg_bt, "0", math.pi, grid)
        sup = np.max(np.abs(res.v.values - kink_field(grid).values))
        assert sup < 1e-8
        assert res.compatibility_residual <= 1e-12

    def test_kink_other_spectral_values(self):
        for lam in (0.5, 2.0):
            ch = bk.b_chart(params={"lam": lam})
            bt = bk.build_wavelike(SG_F, SG_G, ch, ch.sample_spec(count=16))
            grid = pp.Grid(101, 101, 0.0, 1.0, 0.0, 1.0)
            res = pp.bt_propagate(bt, "0", math.pi, grid)
            sup = np.max(np.abs(res.v.values - kink_field(grid, lam).values))
            assert sup < 1e-8
            # truncation-limited: for lam != 1 the x and y marches see
            # different decay rates, so the central-difference defect is O(h^2)
            assert res.compatibility_residual <= 1e-3

    def test_zero_fixed_point(self, sg_bt):
        grid = pp.Grid(21, 21, 0.0, 2.0, 0.0, 2.0)
        res = pp.bt_propagate(sg_bt, "0", 0.0, grid)
        assert np.array_equal(res.v.values, np.zeros((21, 21)))

    def test_refinement_order(self, sg_bt):
        sups = []
        for n in (51, 101):
            grid = pp.Grid(n, n, 0.0, 2.0, 0.0, 2.0)
            res = pp.bt_propagate(sg_bt, "0", math.pi, grid)
            sups.append(np.max(np.abs(res.v.values - kink_field(grid).values)))
        assert sups[0] / sups[1] >= 8.0

    def test_monotone_along_axes(self, sg_bt):
        # -2*sin(v/2) < 0 throughout (0, 2*pi), so v falls with x and y
        grid = pp.Grid(41, 41, 0.0, 2.0, 0.0, 2.0)
        res = pp.bt_propagate(sg_bt, "0", math.pi, grid)
        assert np.all(np.diff(res.v.values, axis=0) < 0)
        assert np.all(np.diff(res.v.values, axis=1) < 0)

    def test_deterministic(self, sg_bt):
        grid = pp.Grid(31, 31, 0.0, 2.0, 0.0, 2.0)
        a = pp.bt_propagate(sg_bt, "0", math.pi, grid)
        b = pp.bt_propagate(sg_bt, "0", math.pi, grid)
        assert np.array_equal(a.v.values, b.v.values)

    def test_columns_decoupled(self, sg_bt):
        # re-integrating a single column from the stored base row value
        # reproduces the vectorized sweep
        grid = pp.Grid(21, 21, 0.0, 2.0, 0.0, 2.0)
        res = pp.bt_propagate(sg_bt, "0", math.pi, grid)
        i = 7
        xi = grid.xs()[i]
        v = res.v.values[0, i]

        def rhs(yv, vv):
            return ex.evaluate(
                sg_bt.G, {"lam": 1.0, "x": xi, "y": yv, "u": 0.0, "v": vv, "q": 0.0}
            )

        ys = grid.ys()
        column = [v]
        for j in range(grid.ny - 1):
            k1 = rhs(ys[j], v)
            k2 = rhs(ys[j] + grid.hy / 2, v + grid.hy / 2 * k1)
            k3 = rhs(ys[j] + grid.hy / 2, v + grid.hy / 2 * k2)
            k4 = rhs(ys[j] + grid.hy, v + grid.hy * k3)
            v = v + grid.hy / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
            column.append(v)
        assert np.allclose(res.v.values[:, i], column, rtol=0, atol=1e-13)

    def test_range_parameter_rejected(self):
        ch = bk.b_chart(params={"lam": (0.5, 2.0)})
        bt = bk.build_wavelike(SG_F, SG_G, ch, ch.sample_spec(count=16))
        with pytest.raises(pp.PropagationError):
            pp.bt_propagate(bt, "0", math.pi, pp.Grid(5, 5, 0.0, 1.0, 0.0, 1.0))

    def test_newton_path(self):
        # F cubic in p: v_x solves p + 0.2*p^3 = u_x = 1, a constant, so
        # v is linear in x and flat in y
        ch = bk.b_chart()
        bt = bk.build_wavelike("p + 0.2*p^3", "-q", ch, ch.sample_spec(count=16))
        grid = pp.Grid(41, 31, 0.0, 2.0, 0.0, 1.0)
        res = pp.bt_propagate(bt, "x", 0.5, grid)

        lo, hi = 0.0, 2.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if mid + 0.2 * mid**3 < 1.0:
                lo = mid
            else:
                hi = mid
        root = 0.5 * (lo + hi)
        X, _ = grid.mesh()
        assert np.max(np.abs(res.v.values - (0.5 + root * X))) < 1e-9
        assert res.compatibility_residual <= 1e-9

    def test_two_soliton_from_permutability(self):
        # the lam = 1 kink as seed and lam2 = 2.2 give, by Bianchi
        # permutability (Rogers & Schief, Backlund and Darboux
        # Transformations, 2002), v = 4*atan(-(lam2+1)/(lam2-1)*tan((u1-u2)/4))
        lam = 2.2
        ch = bk.b_chart(params={"lam": lam})
        bt = bk.build_wavelike(SG_F, SG_G, ch, ch.sample_spec(count=16))

        def two_soliton(x, y):
            u1 = 4 * np.arctan(np.exp(-(x + y)))
            u2 = 4 * np.arctan(np.exp(-(lam * x + y / lam)))
            return 4 * np.arctan(-((lam + 1) / (lam - 1)) * np.tan((u1 - u2) / 4))

        grid = pp.Grid(201, 201, 0.0, 1.0, 0.0, 1.0)
        v0 = float(two_soliton(0.0, 0.0))
        res = pp.bt_propagate(bt, "4*atan(exp(-(x + y)))", v0, grid)
        assert np.max(np.abs(res.v.values - two_soliton(*grid.mesh()))) <= 1e-9
        # unlike the u = 0 kink, this residual shows the O(h^2) stencil defect
        assert 0.0 < res.compatibility_residual <= 1e-3

    def test_bisection_fallback_finds_the_root(self):
        # from the bracket midpoint 30, Newton on atan(p) = 1.4 jumps to
        # about -94, outside the bracket, so bisection finds p = tan(1.4)
        ch = bk.b_chart()
        bt = bk.build_wavelike("atan(p)", "-q", ch, ch.sample_spec(count=16))
        grid = pp.Grid(5, 5, 0.0, 1.0, 0.0, 1.0)
        res = pp.bt_propagate(bt, "1.4*x", 0.0, grid, bracket=(-10.0, 70.0))
        X, _ = grid.mesh()
        assert np.max(np.abs(res.v.values - math.tan(1.4) * X)) <= 1e-12

    def test_root_solve_failure(self):
        # atan(p) never reaches u_x = 2
        ch = bk.b_chart()
        bt = bk.build_wavelike("atan(p)", "-q", ch, ch.sample_spec(count=16))
        grid = pp.Grid(5, 5, 0.0, 1.0, 0.0, 1.0)
        with pytest.raises(pp.RootSolveError):
            pp.bt_propagate(bt, "2*x", 0.0, grid)
        with pytest.raises(pp.RootSolveError):
            pp.bt_propagate(bt, "2*x", 0.0, grid, bracket=(-10.0, 10.0))

    @pytest.mark.parametrize("nx, ny", [(2, 2), (2, 5), (5, 2)])
    def test_grid_without_interior_rejected(self, sg_bt, nx, ny):
        # the compatibility residual reads central differences at interior nodes
        grid = pp.Grid(nx, ny, 0.0, 1.0, 0.0, 1.0)
        with pytest.raises(pp.PropagationError, match=f"grid {nx}x{ny}"):
            pp.bt_propagate(sg_bt, "0", math.pi, grid)
        with pytest.raises(pp.PropagationError, match=f"grid {nx}x{ny}"):
            pp.tzitzeica_propagate("1", 1.0, 1.0, 1.0, grid)

    def test_divergence_reported(self):
        # v_y = v^2 blows up in finite y
        ch = bk.b_chart()
        bt = bk.build_wavelike("p", "-q + v^2", ch, ch.sample_spec(count=16))
        grid = pp.Grid(5, 41, 0.0, 1.0, 0.0, 2.0)
        with pytest.raises(pp.PropagationError):
            with np.errstate(over="ignore", invalid="ignore"):
                pp.bt_propagate(bt, "0", 1.0, grid)


class TestWavelikeResidual:
    def test_exact_solution_small_residual(self):
        grid = pp.Grid(201, 201, 0.0, 2.0, 0.0, 2.0)
        rep = pp.wavelike_residual(kink_field(grid), "sin(u)")
        assert rep.max_residual <= 1e-3
        assert rep.mean_residual <= rep.max_residual
        assert rep.nodes == 199 * 199

    def test_zero_field(self):
        grid = pp.Grid(11, 11, 0.0, 1.0, 0.0, 1.0)
        rep = pp.wavelike_residual(pp.Field(grid, np.zeros((11, 11))), "sin(u)")
        assert rep.max_residual == 0.0

    def test_bilinear_exact(self):
        # exactly representable spacing makes the stencil algebra exact
        grid = pp.Grid(5, 5, 0.0, 2.0, 0.0, 2.0)
        rep = pp.wavelike_residual(pp.sample_field("x*y", grid), "0")
        assert rep.max_residual == 1.0

    def test_second_order_convergence(self):
        residuals = []
        for n in (51, 101):
            grid = pp.Grid(n, n, 0.0, 2.0, 0.0, 2.0)
            residuals.append(pp.wavelike_residual(kink_field(grid), "sin(u)").max_residual)
        assert residuals[0] / residuals[1] >= 3.5

    def test_requires_finite(self):
        grid = pp.Grid(3, 3, 0.0, 1.0, 0.0, 1.0)
        vals = np.ones((3, 3))
        vals[1, 1] = np.nan
        f = pp.Field(grid, vals, singular=np.isnan(vals))
        with pytest.raises(ValueError):
            pp.wavelike_residual(f, "0")


class TestTzitzeicaPropagate:
    def test_unit_seed_fixed_point(self):
        grid = pp.Grid(101, 101, 0.0, 0.5, 0.0, 0.5)
        res = pp.tzitzeica_propagate("1", 1.0, 1.0, 1.0, grid)
        ones = np.ones((101, 101))
        assert np.array_equal(res.alpha.values, ones)
        assert np.array_equal(res.beta.values, ones)
        assert np.array_equal(res.h_prime.values, ones)
        assert res.alpha_compatibility == 0.0
        assert res.beta_compatibility == 0.0
        assert res.singular_count == 0
        # the defining identity holds bitwise: h + h' = 2*alpha*beta
        assert np.array_equal(
            1.0 + res.h_prime.values, 2.0 * res.alpha.values * res.beta.values
        )

    def test_corner_right_sides(self):
        # h = 1, lam = 1, alpha = beta = 1 is stationary: every right
        # side vanishes at the corner, including beta_y = alpha - beta^2
        grid = pp.Grid(5, 5, 0.0, 0.5, 0.0, 0.5)
        res = pp.tzitzeica_propagate("1", 1.0, 1.0, 1.0, grid)
        assert res.alpha.values[0, 1] == 1.0
        assert res.beta.values[1, 0] == 1.0

    def test_generic_seed_compatibility(self):
        # any strictly positive analytic h yields finite diagnostics; a
        # non-solution seed shows up as an O(1) compatibility defect
        grid = pp.Grid(41, 41, 0.0, 0.3, 0.0, 0.3)
        res = pp.tzitzeica_propagate("2 + x + y", 1.0, 0.5, 0.5, grid)
        assert res.alpha_compatibility > 1e-3
        assert np.all(np.isfinite(res.h_prime.values))

    def test_singular_flagging(self):
        # 2*alpha0*beta0 = h at the corner, so h' starts at exactly zero
        a0 = math.sqrt(0.5)
        grid = pp.Grid(21, 21, 0.0, 0.2, 0.0, 0.2)
        res = pp.tzitzeica_propagate("1", 1.0, a0, a0, grid)
        assert res.singular_count >= 1
        assert res.h_prime.singular is not None
        assert res.h_prime.singular[0, 0]

    def test_vanishing_seed_rejected(self):
        grid = pp.Grid(21, 21, 0.0, 2.0, 0.0, 2.0)
        with pytest.raises(pp.PropagationError):
            pp.tzitzeica_propagate("x - 1", 1.0, 1.0, 1.0, grid)

    def test_zero_lambda_rejected(self):
        grid = pp.Grid(5, 5, 0.0, 1.0, 0.0, 1.0)
        with pytest.raises(pp.PropagationError):
            pp.tzitzeica_propagate("1", 0.0, 1.0, 1.0, grid)


class TestTzitzeicaResidual:
    def test_unit_field(self):
        grid = pp.Grid(11, 11, 0.0, 1.0, 0.0, 1.0)
        rep = pp.tzitzeica_residual(pp.Field(grid, np.ones((11, 11))))
        assert rep.max_residual == 0.0
        assert rep.excluded == 0

    def test_constant_two(self):
        grid = pp.Grid(5, 5, 0.0, 2.0, 0.0, 2.0)
        rep = pp.tzitzeica_residual(pp.Field(grid, np.full((5, 5), 2.0)))
        assert rep.max_residual == 1.75

    def test_excludes_singular_nodes(self):
        grid = pp.Grid(7, 7, 0.0, 1.0, 0.0, 1.0)
        vals = np.ones((7, 7))
        vals[3, 3] = np.nan
        mask = np.isnan(vals)
        rep = pp.tzitzeica_residual(pp.Field(grid, vals, singular=mask))
        # the nan node knocks out itself and the four stencils through it
        assert rep.excluded == 5
        assert rep.nodes == 25 - 5
        assert rep.max_residual == 0.0

    def test_all_singular(self):
        grid = pp.Grid(4, 4, 0.0, 1.0, 0.0, 1.0)
        vals = np.full((4, 4), np.nan)
        mask = np.ones((4, 4), dtype=bool)
        with pytest.raises(pp.SingularFieldError):
            pp.tzitzeica_residual(pp.Field(grid, vals, singular=mask))


# ---------------------------------------------------------------------------
# the compatibility residual streamed from the march's own right sides


def cross_residual(P, Q, grid):
    P, Q = (np.broadcast_to(a, (grid.ny, grid.nx)) for a in (P, Q))
    return float(np.max(np.abs(pp._d_y(P, grid) - pp._d_x(Q, grid))))


def mesh_compatibility(bt, seed, v, bracket=None):
    """The residual over the whole mesh: every right side evaluated on
    grid.mesh() through ex.evaluate at the marched v, then differenced."""
    grid = v.grid
    params = pp._fixed_params(bt.chart)
    seed = ex.as_expr(seed, ("x", "y"), tuple(params))
    X, Y = grid.mesh()
    env = dict(params, x=X, y=Y)
    env["u"] = ex.evaluate(seed, env)
    env["v"] = v.values
    target = ex.evaluate(ex.differentiate(seed, "x"), env)
    split = pp._affine_split(bt.F)
    if split is None:
        start = np.gradient(v.values, grid.hx, axis=1)
        F, Fp = ex.compile((bt.F,)), ex.compile((bt.fp,))
        P = pp._solve_p(F, Fp, env, target, start, bracket)
    else:
        P = (target - ex.evaluate(split[0], env)) / ex.evaluate(split[1], env)
    env["q"] = ex.evaluate(ex.differentiate(seed, "y"), env)
    return cross_residual(P, ex.evaluate(bt.G, env), grid)


def sg_lam(lam):
    ch = bk.b_chart(params={"lam": lam})
    return bk.build_wavelike(SG_F, SG_G, ch, ch.sample_spec(count=16))


def non_affine_bt(F):
    ch = bk.b_chart()
    return bk.build_wavelike(F, "-q", ch, ch.sample_spec(count=16))


# the kink seed of the two-soliton; at the origin both kinks are pi, so v = 0 there
KINK_SEED = "4*atan(exp(-(x + y)))"


class TestStreamedCompatibility:
    """The residual folded in row by row during the march equals, bitwise,
    the one computed over the whole mesh from the marched field."""

    @pytest.mark.parametrize("make_bt, seed, v0, grid, bracket", [
        (lambda: sg_lam(1.0), "0", math.pi, pp.Grid(201, 201, 0.0, 2.0, 0.0, 2.0), None),
        (lambda: sg_lam(0.8), "0", math.pi, pp.Grid(201, 201, 0.0, 2.0, 0.0, 2.0), None),
        (lambda: sg_lam(2.2), KINK_SEED, 0.0, pp.Grid(101, 101, 0.0, 1.0, 0.0, 1.0),
         None),
        # Newton stops within its tolerance, so the bits of P depend on its start
        (lambda: non_affine_bt("p + 0.2*p^3"), "3*x + sin(x*y)", 0.5,
         pp.Grid(41, 31, 0.0, 2.0, 0.0, 1.0), (-5.0, 5.0)),
        (lambda: non_affine_bt("atan(p)"), "1.4*x + 0.1*x*y", 0.5,
         pp.Grid(21, 21, 0.0, 1.0, 0.0, 1.0), (-10.0, 70.0)),
        # numpy's scalar and array powers may round differently, and y-only
        # terms see the row's y as an array, as on the mesh
        (lambda: sg_lam(1.0), "x*y^3 + sin(y)^3", 0.5, pp.Grid(201, 201, -1.0, 1.0, 0.5, 1.5),
         None),
    ], ids=["kink", "kink-lam0.8", "two-soliton", "cubic-bracketed", "atan-bracketed",
            "y-power"])
    def test_equals_the_mesh_residual(self, make_bt, seed, v0, grid, bracket):
        bt = make_bt()
        res = pp.bt_propagate(bt, seed, v0, grid, bracket=bracket)
        assert res.compatibility_residual == mesh_compatibility(bt, seed, res.v, bracket)

    @pytest.mark.parametrize("h, lam", [("2 + x + y", 1.0), ("2 + sin(x*y) + y^3", 1.3)])
    def test_tzitzeica_equals_the_mesh_residual(self, h, lam):
        grid = pp.Grid(41, 31, 0.0, 0.3, 0.0, 0.3)
        res = pp.tzitzeica_propagate(h, lam, 0.5, 0.7, grid)
        X, Y = grid.mesh()
        h = ex.as_expr(h, ("x", "y"))
        H, Hx, Hy = (ex.evaluate(e, {"x": X, "y": Y})
                     for e in (h, ex.differentiate(h, "x"), ex.differentiate(h, "y")))
        A, B = res.alpha.values, res.beta.values
        assert res.alpha_compatibility == cross_residual((Hx * A + lam * B) / H - A * A,
                                                         H - A * B, grid)
        assert res.beta_compatibility == cross_residual(H - A * B,
                                                        (Hy * B + A / lam) / H - B * B, grid)
        assert np.array_equal(res.h_prime.values, 2.0 * A * B - H)


class TestBoostCovariance:
    """Under the boost phi(x, y) = (k x, y/k), the transformation with
    parameter lam becomes the one with k lam: marching k lam from the seed
    u o phi on the boosted grid gives v o phi.  An identity of the march,
    not of the PDE: the second seed does not solve u_xy = sin u."""

    LAM, V0, GRID = 1.3, 0.4, pp.Grid(201, 201, 0.0, 2.0, 0.0, 2.0)

    def runs(self, seed, k):
        g = self.GRID
        base = pp.bt_propagate(sg_lam(self.LAM), seed, self.V0, g)
        moved = ex.substitute(ex.parse(seed, ("x", "y")), "x", ex.mul(ex.Const(k), ex.Var("x")))
        moved = ex.substitute(moved, "y", ex.div(ex.Var("y"), ex.Const(k)))
        k = float(k)
        boosted = pp.Grid(g.nx, g.ny, g.x0 / k, g.x1 / k, g.y0 * k, g.y1 * k)
        return base, pp.bt_propagate(sg_lam(k * self.LAM), moved, self.V0, boosted)

    SEEDS = pytest.mark.parametrize(
        "seed", [KINK_SEED, KINK_SEED + " + 0.3*sin(x*y)"], ids=["kink", "non-solution"]
    )

    @SEEDS
    @pytest.mark.parametrize("k", [Fraction(2), Fraction(1, 2)], ids=["2", "1/2"])
    def test_dyadic_boost_is_bitwise(self, seed, k):
        base, boosted = self.runs(seed, k)
        assert np.array_equal(boosted.v.values, base.v.values)
        assert boosted.compatibility_residual == base.compatibility_residual

    @SEEDS
    def test_boost_by_three_within_rounding(self, seed):
        # the bounds observed on this grid: 3 * 2**-52 on v, 5.1e-14 on the residual
        base, boosted = self.runs(seed, Fraction(3))
        assert np.max(np.abs(boosted.v.values - base.v.values)) <= 6.7e-16
        assert abs(boosted.compatibility_residual - base.compatibility_residual) <= 5.1e-14


class TestFailurePrecedence:
    @staticmethod
    def bt(F, G="-q + (2/lam)*sin((u - v)/2)"):
        ch = bk.b_chart(params={"lam": 1.0})
        return bk.build_wavelike(F, G, ch, ch.sample_spec(count=16))

    def test_divergence_outranks_a_residual_failure(self):
        # F_p = y - 0.25 vanishes on the row y = 0.25, where only the
        # residual solves for v_x; v_y = v^2 blows up further up
        bt = self.bt("p*(y - 0.25) + 2*lam*sin((u + v)/2)", "-q + v^2")
        with pytest.raises(pp.RootSolveError, match=r"\|F_p\|"):
            pp.bt_propagate(bt, "0", 1.0, pp.Grid(5, 9, 0.0, 0.1, 0.0, 0.5))
        with pytest.raises(pp.PropagationError, match="diverged") as err:
            with np.errstate(over="ignore", invalid="ignore"):
                pp.bt_propagate(bt, "0", 1.0, pp.Grid(5, 33, 0.0, 0.1, 0.0, 2.0))
        assert not isinstance(err.value, pp.RootSolveError)

    def test_lower_residual_row_wins(self):
        # f0 = 1/(y - 0.25) fails on the row y = 0.25 and F_p = y - 0.5 on
        # the row y = 0.5; over the whole mesh the F_p guard was checked first
        bt = self.bt("p*(y - 0.5) + 1/(y - 0.25)")
        with pytest.raises(ex.DomainError, match="division by zero"):
            pp.bt_propagate(bt, "0", 1.0, pp.Grid(5, 9, 0.0, 0.1, 0.0, 1.0))
        # swapped, the guard's row is the lower one
        bt = self.bt("p*(y - 0.25) + 1/(y - 0.5)")
        with pytest.raises(pp.RootSolveError, match=r"\|F_p\|"):
            pp.bt_propagate(bt, "0", 1.0, pp.Grid(5, 9, 0.0, 0.1, 0.0, 1.0))

    def test_right_side_failing_on_the_last_row_alone(self):
        # the last column step's k4 lands a rounding below y = 0.7, so only
        # the last row's own evaluation of G divides by zero
        bt = self.bt(SG_F, "-q + 1/(y - 0.7)")
        grid = pp.Grid(5, 11, 0.0, 0.1, 0.0, 0.7)
        assert grid.ys()[-1] == 0.7 != grid.ys()[-2] + grid.hy
        with pytest.raises(ex.DomainError, match="division by zero"):
            pp.bt_propagate(bt, "0", 1.0, grid)

    def test_lower_sample_block_wins(self, monkeypatch):
        # sqrt(0.5 - y) fails on the upper rows and ln(y) on the first; over
        # the whole mesh sqrt's failure was found first
        monkeypatch.setattr(pp, "_BLOCK", 10)  # two rows of five per block
        grid = pp.Grid(5, 9, 0.0, 1.0, 0.0, 1.0)
        with pytest.raises(ex.DomainError, match="ln argument"):
            pp.sample_field("sqrt(0.5 - y) + ln(y)", grid)
        with pytest.raises(ex.DomainError, match="sqrt of a negative"):
            pp.sample_field("sqrt(0.5 - y) + ln(y + 1)", grid)


class TestSeedTermReuse:
    """u and u_y are evaluated once per distinct stage coordinate: k2 and
    k3 share y + h/2, and k4 serves the next k1 where it is that node."""

    @staticmethod
    def seed_calls(monkeypatch, grid):
        seed = ex.parse(KINK_SEED, ("x", "y"))
        compile_ = ex.compile
        calls = {"base_row": 0, "columns": 0}

        def counting_compile(roots):
            roots = tuple(roots)
            fn = compile_(roots)
            if seed not in roots:
                return fn

            def counted(env, guard):
                calls["columns" if np.ndim(env["x"]) else "base_row"] += 1
                return fn(env, guard)

            return counted

        monkeypatch.setattr(ex, "compile", counting_compile)
        pp.bt_propagate(sg_lam(2.2), seed, 0.0, grid)
        return calls

    def test_dyadic_steps_reuse_k4(self, monkeypatch):
        # every stage coordinate is exact, so each step evaluates two new ones
        calls = self.seed_calls(monkeypatch, pp.Grid(9, 33, 0.0, 1.0, 0.0, 1.0))
        assert calls == {"base_row": 2 * 8 + 1, "columns": 2 * 32 + 1}

    def test_at_most_three_per_step(self, monkeypatch):
        grid = pp.Grid(9, 41, 0.0, 0.3, 0.0, 0.7)
        calls = self.seed_calls(monkeypatch, grid)
        # one more on the last row, whose P the residual reads
        assert 2 * (grid.ny - 1) < calls["columns"] <= 3 * (grid.ny - 1) + 1
        assert 2 * (grid.nx - 1) < calls["base_row"] <= 3 * (grid.nx - 1) + 1



def written_values(field):
    vals = field.values.copy()
    if field.singular is not None:
        vals[field.singular] = np.nan
    return vals


def reference_csv(field):
    """The field CSV as one process writes it, row by row."""
    g = field.grid
    lines = [f"# grid nx={g.nx} ny={g.ny} x0={g.x0!r} x1={g.x1!r} y0={g.y0!r} y1={g.y1!r}"]
    lines += [",".join(repr(float(v)) for v in row) for row in written_values(field)]
    return ("\n".join(lines) + "\n").encode()


def csv_fields():
    rng = np.random.default_rng(5)
    two_rows = pp.Field(pp.Grid(4, 2, 0.0, 1.0, 0.0, 1.0), rng.normal(size=(2, 4)))
    odd_rows = pp.Field(pp.Grid(3, 7, -1.0, 1.0, 0.5, 2.5), rng.normal(size=(7, 3)))
    mask = np.zeros((5, 4), dtype=bool)
    mask[0, 0] = mask[3, 2] = mask[4, 3] = True
    singular = pp.Field(pp.Grid(4, 5, 0.0, 1.0, 0.0, 1.0), rng.normal(size=(5, 4)), mask)
    extremes = np.array(
        [[-0.0, 5e-324, 1e308], [-1e308, -5e-324, 0.0], [0.1, 1.0 / 3.0, -2.5]]
    )
    extreme = pp.Field(pp.Grid(3, 3, 0.0, 1.0, 0.0, 1.0), extremes)
    return {"ny=2": two_rows, "odd ny": odd_rows, "singular": singular, "extremes": extreme}


@pytest.fixture
def forks(monkeypatch):
    """The pids of the children write_field_csv forks, in order."""
    pids = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return pids


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def repr_rows(block):
    """The CSV lines of `block` as repr writes them."""
    return "".join(",".join(map(repr, row)) + "\n" for row in block.tolist()).encode()


def with_neighbours(values):
    values = np.asarray(values, dtype=float)
    return np.concatenate([values, np.nextafter(values, -np.inf), np.nextafter(values, np.inf)])


# the biased exponents of the binades of 1e-4 and 1e16 and of those between:
# repr prints 1e-4 <= |x| < 1e16 without an exponent
FAST_EXPONENTS = (1009, 1076)

PINNED = np.concatenate([
    with_neighbours([2.0**k for k in range(-14, 54)]),
    with_neighbours([float(f"1e{k}") for k in range(-4, 17)]),
    [9999999999999998.0, 1e16, 1e-4, 0.1, 1 / 3, 5e-324, 1.7976931348623157e308, -0.0, math.nan],
])


# values x with a shorter decimal d just beyond half an ulp h below them,
# x - 1.01 h <= d < x - h: an interval a hundredth of h wider below would print d
BEYOND_HALF_ULP = [
    ("0.00010510000000000001", "0.0001051"), ("0.0006490000000000001", "0.000649"),
    ("0.043000000000000003", "0.043"), ("0.08600000000000001", "0.086"),
    ("1.0010000000000001", "1.001"), ("9.883000000000001", "9.883"),
]


@pytest.fixture
def fallbacks(monkeypatch):
    """The values _format_rows leaves to repr, in order."""
    seen = []

    def counting(value):
        seen.append(value)
        return builtins.repr(value)

    monkeypatch.setattr(pp, "repr", counting, raising=False)
    return seen


class TestFormatRows:
    """_format_rows writes exactly the bytes of repr, row by row."""

    @settings(max_examples=1000, deadline=None, derandomize=True)
    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=8))
    def test_drawn_bit_patterns(self, bits):
        # each pattern as drawn, and with its exponent moved near the fast range
        drawn = np.array(bits, dtype=np.uint64)
        lo, hi = FAST_EXPONENTS
        exponent = (drawn >> np.uint64(52) & np.uint64(0x7FF)) % np.uint64(hi - lo + 1) + np.uint64(lo)
        moved = drawn & ~np.uint64(0x7FF << 52) | exponent << np.uint64(52)
        values = np.concatenate([drawn, moved]).view(np.float64)
        for block in (values[None, :], values[:, None]):
            assert pp._format_rows(block) == repr_rows(block)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_pinned_values(self, sign):
        values = sign * PINNED
        for block in (values[None, :], values[:, None], values.reshape(-1, 12)):
            assert pp._format_rows(block) == repr_rows(block)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_shorter_decimal_just_beyond_half_an_ulp(self, sign):
        for text, shorter in BEYOND_HALF_ULP:
            x = float(text)
            h = Fraction(2) ** (math.frexp(x)[1] - 54)
            assert h < Fraction(x) - Fraction(shorter) <= Fraction(101, 100) * h
        values = sign * np.array([float(text) for text, _ in BEYOND_HALF_ULP])
        for block in (values[None, :], values[:, None]):
            assert pp._format_rows(block) == repr_rows(block)

    def test_row_mixing_fast_and_repr_values(self, fallbacks):
        row = np.array([[math.nan, 1.5, -0.0, 1e300, 0.1, -1e-5, 3.0, 5e-324, 123456.789,
                         -math.inf]])
        assert pp._format_rows(row) == repr_rows(row)
        assert [repr(v) for v in fallbacks] == ["nan", "-0.0", "1e+300", "-1e-05", "5e-324", "-inf"]

    def test_binary_ties_left_to_repr(self, fallbacks):
        # 2**50 + 0.25 lies halfway between the two shortest decimals that
        # round to it; repr breaks the tie to the even digit
        row = np.array([[2.0**50 + 0.25, 2.0**50 + 0.75]])
        assert pp._format_rows(row) == repr_rows(row)
        assert len(fallbacks) == 2

    def test_workload_values_need_no_repr(self, fallbacks, sg_bt):
        rng = np.random.default_rng(3)
        integers = np.concatenate([
            rng.integers(1, 2**53, 4000), [1, 2**53 - 1],
            [10**k + d for k in range(1, 16) for d in (-1, 0, 1)],
        ]).astype(float)
        powers = np.array([2.0**k for k in range(-13, 54)])
        kink = pp.bt_propagate(sg_bt, "0", math.pi, pp.Grid(201, 201, 0.0, 2.0, 0.0, 2.0))
        for block in (np.ones((201, 201)), integers[None, :], -integers[:, None],
                      powers[None, :], -powers[:, None], kink.v.values):
            assert pp._format_rows(block) == repr_rows(block)
        assert fallbacks == []


class TestFieldCSV:
    def test_round_trip_bitwise(self, tmp_path, sg_bt):
        grid = pp.Grid(31, 21, 0.0, 2.0, 0.0, 1.0)
        res = pp.bt_propagate(sg_bt, "0", math.pi, grid)
        path = str(tmp_path / "field.csv")
        pp.write_field_csv(res.v, path)
        back = pp.read_field_csv(path)
        assert back.grid == grid
        assert np.array_equal(back.values, res.v.values)
        assert back.singular is None

    def test_header_line(self, tmp_path):
        grid = pp.Grid(3, 2, 0.0, 2.0, -0.5, 1.0)
        path = str(tmp_path / "f.csv")
        pp.write_field_csv(pp.Field(grid, np.zeros((2, 3))), path)
        with open(path) as fh:
            assert fh.readline() == "# grid nx=3 ny=2 x0=0.0 x1=2.0 y0=-0.5 y1=1.0\n"
            assert fh.readline() == "0.0,0.0,0.0\n"

    def test_singular_nodes_serialize_as_nan(self, tmp_path):
        grid = pp.Grid(3, 3, 0.0, 1.0, 0.0, 1.0)
        vals = np.ones((3, 3))
        mask = np.zeros((3, 3), dtype=bool)
        mask[1, 2] = True
        path = str(tmp_path / "f.csv")
        pp.write_field_csv(pp.Field(grid, vals, singular=mask), path)
        with open(path) as fh:
            fh.readline()
            fh.readline()
            assert fh.readline() == "1.0,1.0,nan\n"
        back = pp.read_field_csv(path)
        assert back.singular is not None and back.singular[1, 2]
        assert back.singular_count == 1

    def test_write_is_atomic(self, tmp_path):
        grid = pp.Grid(2, 2, 0.0, 1.0, 0.0, 1.0)
        path = str(tmp_path / "f.csv")
        pp.write_field_csv(pp.Field(grid, np.zeros((2, 2))), path)
        assert not os.path.exists(path + ".tmp")

    @pytest.mark.parametrize("cpus", [1, 2, 3, 4])
    @pytest.mark.parametrize("name", ["ny=2", "odd ny", "singular", "extremes"])
    def test_bytes_match_one_process_writer(self, tmp_path, monkeypatch, forks, name, cpus):
        field = csv_fields()[name]
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        path = str(tmp_path / "f.csv")
        pp.write_field_csv(field, path)
        with open(path, "rb") as fh:
            assert fh.read() == reference_csv(field)
        assert len(forks) == min(cpus, field.grid.ny) - 1
        assert_no_child_left()
        back = pp.read_field_csv(path)
        assert np.array_equal(back.values, written_values(field), equal_nan=True)

    def test_one_block_without_affinity(self, tmp_path, monkeypatch, forks):
        field = csv_fields()["odd ny"]
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        path = str(tmp_path / "f.csv")
        pp.write_field_csv(field, path)
        with open(path, "rb") as fh:
            assert fh.read() == reference_csv(field)
        assert forks == []

    @pytest.mark.parametrize("cpus", [1, 2, 3, 4])
    def test_blocks_of_several_rows(self, tmp_path, monkeypatch, forks, cpus):
        # 4000 values a row: each block holds several rows, and 37 rows
        # leave the last block short
        rng = np.random.default_rng(7)
        field = pp.Field(pp.Grid(4000, 37, 0.0, 1.0, 0.0, 1.0), rng.normal(size=(37, 4000)))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        blocks = []
        format_rows = pp._format_rows

        def recording(block):
            blocks.append(len(block))
            return format_rows(block)

        monkeypatch.setattr(pp, "_format_rows", recording)
        path = str(tmp_path / "f.csv")
        pp.write_field_csv(field, path)
        with open(path, "rb") as fh:
            assert fh.read() == reference_csv(field)
        assert len(forks) == cpus - 1
        assert_no_child_left()
        if cpus == 1:
            assert len(blocks) > 1 and min(blocks[:-1]) > 1 and blocks[-1] < blocks[0]

    @pytest.mark.parametrize("fail_in_child", [True, False])
    def test_failed_block_leaves_no_file_and_no_child(
        self, tmp_path, monkeypatch, forks, fail_in_child
    ):
        parent = os.getpid()
        format_rows = pp._format_rows

        def failing(block):
            if (os.getpid() != parent) == fail_in_child:
                raise MemoryError("formatting failed")
            return format_rows(block)

        monkeypatch.setattr(pp, "_format_rows", failing)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        path = str(tmp_path / "f.csv")
        with pytest.raises(OSError if fail_in_child else MemoryError):
            pp.write_field_csv(csv_fields()["odd ny"], path)
        assert len(forks) == 2
        assert not os.path.exists(path)
        assert not os.path.exists(path + ".tmp")
        assert_no_child_left()

    def test_malformed_header(self, tmp_path):
        path = str(tmp_path / "bad.csv")
        with open(path, "w") as fh:
            fh.write("# mesh nx=2 ny=2\n0.0,0.0\n0.0,0.0\n")
        with pytest.raises(ValueError):
            pp.read_field_csv(path)

    def test_row_count_checked(self, tmp_path):
        path = str(tmp_path / "short.csv")
        with open(path, "w") as fh:
            fh.write("# grid nx=2 ny=3 x0=0.0 x1=1.0 y0=0.0 y1=1.0\n")
            fh.write("0.0,0.0\n")
        with pytest.raises(ValueError):
            pp.read_field_csv(path)

    def test_rows_after_the_declared_ones_rejected(self, tmp_path):
        path = str(tmp_path / "long.csv")
        with open(path, "w") as fh:
            fh.write("# grid nx=3 ny=2 x0=0.0 x1=1.0 y0=0.0 y1=1.0\n")
            fh.write("0.0,0.0,0.0\n0.0,0.0,0.0\n9.0,9.0,9.0\n")
        with pytest.raises(ValueError):
            pp.read_field_csv(path)

    def test_column_count_checked(self, tmp_path):
        path = str(tmp_path / "ragged.csv")
        with open(path, "w") as fh:
            fh.write("# grid nx=3 ny=2 x0=0.0 x1=1.0 y0=0.0 y1=1.0\n")
            fh.write("0.0,0.0\n0.0,0.0,0.0\n")
        with pytest.raises(ValueError):
            pp.read_field_csv(path)


class TestFieldRows:
    """The rows of a marched field are formatted while the march runs."""

    @pytest.mark.parametrize("cpus", [1, 2, 3, 4])
    def test_marched_bytes_match_one_process_writer(self, tmp_path, monkeypatch, forks, sg_bt,
                                                   cpus):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        grid = pp.Grid(31, 21, 0.0, 2.0, 0.0, 1.0)
        plain = pp.bt_propagate(sg_bt, "0", math.pi, grid)
        path = str(tmp_path / "v.csv")
        with pp.FieldRows(grid) as rows:
            res = pp.bt_propagate(sg_bt, "0", math.pi, grid, rows=rows)
            assert len(forks) == cpus - 1
            pp.write_field_csv(res.v, path, rows)
        assert_no_child_left()
        assert np.array_equal(res.v.values, plain.v.values)
        assert res.compatibility_residual == plain.compatibility_residual
        with open(path, "rb") as fh:
            assert fh.read() == reference_csv(plain.v)
        assert not os.path.exists(path + ".tmp")

    def test_rows_claimed_by_both_processes(self, tmp_path, monkeypatch, forks, sg_bt):
        # a slow parent leaves most queued rows to the child, so the two
        # claim rows in an interleaved order
        parent = os.getpid()
        format_rows = pp._format_rows
        in_parent = []

        def slow(block):
            time.sleep(0.01 if os.getpid() == parent else 0.005)
            if os.getpid() == parent:
                in_parent.append(block.copy())
            return format_rows(block)

        monkeypatch.setattr(pp, "_format_rows", slow)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        grid = pp.Grid(31, 41, 0.0, 2.0, 0.0, 1.0)
        path = str(tmp_path / "v.csv")
        with pp.FieldRows(grid) as rows:
            res = pp.bt_propagate(sg_bt, "0", math.pi, grid, rows=rows)
            pp.write_field_csv(res.v, path, rows)
        assert len(forks) == 1
        assert_no_child_left()
        assert 0 < len(in_parent) < grid.ny
        with open(path, "rb") as fh:
            assert fh.read() == reference_csv(res.v)

    def test_parent_keeps_the_last_partial_block(self, tmp_path, monkeypatch, forks, sg_bt):
        # 2000 values a row and 2 readers give blocks of 2 rows, so that the
        # last of the 23 rows is a block of its own, which is never queued
        parent = os.getpid()
        format_rows = pp._format_rows
        in_parent = []

        def recording(block):
            if os.getpid() == parent:
                in_parent.append(block.copy())
            return format_rows(block)

        monkeypatch.setattr(pp, "_format_rows", recording)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        grid = pp.Grid(2000, 23, 0.0, 2.0, 0.0, 1.0)
        path = str(tmp_path / "v.csv")
        with pp.FieldRows(grid) as rows:
            res = pp.bt_propagate(sg_bt, "0", math.pi, grid, rows=rows)
            pp.write_field_csv(res.v, path, rows)
        assert len(forks) == 1
        assert_no_child_left()
        assert in_parent and all(len(block) in (1, 2) for block in in_parent)
        assert any(np.array_equal(block, res.v.values[-1:]) for block in in_parent)
        with open(path, "rb") as fh:
            assert fh.read() == reference_csv(res.v)

    def test_dead_children_with_the_longest_queue_fail(self, tmp_path, monkeypatch, forks):
        # blocks of one row would be 40,000 records; the queue is given 999
        # blocks and 3 stops, and no write to it waits for the dead children
        parent = os.getpid()
        format_rows = pp._format_rows

        def failing_in_child(block):
            if os.getpid() != parent:
                raise MemoryError("formatting failed")
            return format_rows(block)

        monkeypatch.setattr(pp, "_format_rows", failing_in_child)
        monkeypatch.setattr(pp, "_BLOCK", 1)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        field = pp.Field(pp.Grid(2, 40000, 0.0, 1.0, 0.0, 1.0), np.zeros((40000, 2)))
        path = str(tmp_path / "f.csv")
        with pytest.raises(OSError, match="CSV row formatter failed"):
            pp.write_field_csv(field, path)
        assert len(forks) == 2
        assert not os.path.exists(path)
        assert not os.path.exists(path + ".tmp")
        assert_no_child_left()

    def test_queued_records_fit_in_pipe_buf(self):
        queue = select.PIPE_BUF // 4
        tall = [int(n) for n in np.unique(np.geomspace(1100, 10**6, 150).astype(int))]
        heights = list(range(1, 1100)) + tall + [k * (queue - r) + d for k in (2, 979)
                                                 for r in (1, 2, 64) for d in (-1, 0, 1)]
        for readers in range(1, 65):
            for nx in (1, 3, 1601, 4000):
                for ny in heights:
                    if readers <= ny:
                        rows = pp._block_rows(ny, nx, readers)
                        assert 1 <= rows <= ny
                        assert -(-ny // rows) - 1 + readers <= queue

    def test_field_outside_the_rows_rejected(self, tmp_path, sg_bt):
        grid = pp.Grid(5, 5, 0.0, 1.0, 0.0, 1.0)
        path = str(tmp_path / "v.csv")
        with pp.FieldRows(grid) as rows:
            with pytest.raises(ValueError):
                pp.write_field_csv(pp.Field(grid, np.zeros((5, 5))), path, rows)
        assert not os.path.exists(path)
        assert_no_child_left()

    def test_dead_children_fail_the_write(self, tmp_path, monkeypatch, forks):
        # children that die leave their blocks unformatted: the write fails
        parent = os.getpid()
        format_rows = pp._format_rows

        def failing_in_child(block):
            if os.getpid() != parent:
                raise MemoryError("formatting failed")
            return format_rows(block)

        monkeypatch.setattr(pp, "_format_rows", failing_in_child)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        field = pp.Field(pp.Grid(2, 40000, 0.0, 1.0, 0.0, 1.0), np.zeros((40000, 2)))
        path = str(tmp_path / "f.csv")
        with pytest.raises(OSError):
            pp.write_field_csv(field, path)
        assert len(forks) == 2
        assert not os.path.exists(path)
        assert not os.path.exists(path + ".tmp")
        assert_no_child_left()

    def test_commit_holds_less_than_the_file(self, tmp_path, monkeypatch, forks, sg_bt):
        # a slow parent leaves most blocks to the child, which sends them back
        # block by block; each is written once it is next and then dropped,
        # so the text this process holds in commit stays below the file's.
        # Blocks of three rows make the file many blocks long against one
        # block's formatting temporaries
        parent = os.getpid()
        format_rows = pp._format_rows
        in_parent = []

        def slow(block):
            if os.getpid() == parent:
                time.sleep(0.01)
                in_parent.append(len(block))
            return format_rows(block)

        commit = pp.FieldRows.commit
        peaks = []

        def traced(rows, path):
            tracemalloc.start()
            try:
                commit(rows, path)
            finally:
                peaks.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()

        monkeypatch.setattr(pp, "_format_rows", slow)
        monkeypatch.setattr(pp, "_BLOCK", 64)
        monkeypatch.setattr(pp.FieldRows, "commit", traced)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        grid = pp.Grid(31, 401, 0.0, 2.0, 0.0, 1.0)
        path = str(tmp_path / "v.csv")
        with pp.FieldRows(grid) as rows:
            res = pp.bt_propagate(sg_bt, "0", math.pi, grid, rows=rows)
            assert rows._blocks > 100
            pp.write_field_csv(res.v, path, rows)
        assert len(forks) == 1
        assert_no_child_left()
        assert in_parent
        with open(path, "rb") as fh:
            assert fh.read() == reference_csv(res.v)
        assert len(peaks) == 1 and peaks[0] < os.path.getsize(path)

    @pytest.mark.parametrize("death", ["killed", "exit status 0"])
    def test_child_dying_mid_stream_fails_the_write(self, tmp_path, monkeypatch, forks, death):
        # the child dies as it frames its third block, once this process has
        # read its first frames; a short frame ends the merge, whatever the
        # child's exit status
        parent = os.getpid()
        format_rows = pp._format_rows
        frame = pp._FRAME
        sent, received = [], []

        class Dying:
            size = frame.size

            def pack(self, k, n):
                if len(sent) == 2:
                    if death == "killed":
                        os.kill(os.getpid(), signal.SIGKILL)
                    os._exit(0)
                sent.append(k)
                return frame.pack(k, n)

            def unpack(self, data):
                received.append(frame.unpack(data))
                return received[-1]

        def slow_parent(block):
            if os.getpid() == parent:
                time.sleep(0.05)
            return format_rows(block)

        monkeypatch.setattr(pp, "_FRAME", Dying())
        monkeypatch.setattr(pp, "_format_rows", slow_parent)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        rng = np.random.default_rng(7)
        field = pp.Field(pp.Grid(4000, 37, 0.0, 1.0, 0.0, 1.0), rng.normal(size=(37, 4000)))
        path = str(tmp_path / "f.csv")
        match = "CSV row formatter failed" if death == "killed" else "sent no block"
        with pytest.raises(OSError, match=match):
            pp.write_field_csv(field, path)
        assert len(forks) == 1
        assert len(received) >= 2
        assert not os.path.exists(path)
        assert not os.path.exists(path + ".tmp")
        assert_no_child_left()

    def test_children_exit_when_the_parent_dies(self):
        # the helper posts a few rows and exits without a commit; each of
        # its children holds a copy of the helper's stdout, so stdout
        # reaches end of file only once every child has exited
        helper = (
            "import os\n"
            "from edsbt import propagate as pp\n"
            "os.sched_getaffinity = lambda pid: {0, 1, 2}\n"
            "rows = pp.FieldRows(pp.Grid(4, 6, 0.0, 1.0, 0.0, 1.0))\n"
            "rows.post(3)\n"
            "print(*(pid for pid, _pipe in rows._children), flush=True)\n"
            "os._exit(0)\n"
        )
        src = os.path.dirname(os.path.dirname(pp.__file__))
        env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
        proc = subprocess.Popen([sys.executable, "-c", helper], stdout=subprocess.PIPE, env=env)
        pids = [int(pid) for pid in proc.stdout.readline().split()]
        assert proc.wait(timeout=30) == 0
        assert len(pids) == 2
        try:
            proc.communicate(timeout=10)
        except subprocess.TimeoutExpired:
            for pid in pids:
                os.kill(pid, signal.SIGKILL)
            pytest.fail("formatter children outlived their parent")
