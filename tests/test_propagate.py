"""Tests for grid propagation, residual reports, and CSV serialization.

The reference companion solution for the standard transformation with
seed u = 0 is v(x, y) = 4*atan(exp(-lam*x - y/lam)): differentiating
gives v_x = -2*lam*sin(v/2) and v_y = -(2/lam)*sin(v/2), which is
exactly the ODE system the marcher integrates, and v(0, 0) = pi.
"""

import builtins
import math
import mmap
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


def mesh_values(text, grid, params=None):
    """A closed form in x, y evaluated over the whole mesh at once: the
    oracle that SupError's blocks must match bitwise."""
    params = dict(params or {})
    X, Y = grid.mesh()
    value = ex.evaluate(ex.parse(text, ("x", "y"), tuple(params)), {**params, "x": X, "y": Y})
    return np.broadcast_to(value, X.shape)


def kink_field(grid, lam=1.0):
    return pp.Field(grid, mesh_values("4*atan(exp(-lam*x - y/lam))", grid, {"lam": lam}))


def folded_sup(text, v, params=None, step=1):
    """max |v - text| by SupError, given the field v in blocks of `step` rows."""
    fold = pp.SupError(text, v.grid, params)
    for j in range(0, v.grid.ny, step):
        fold.add(j, v.values[j:j + step])
    return fold.result()


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


class TestSupError:
    """SupError folds max |v - e| block by block, to the whole mesh's value."""

    @pytest.mark.parametrize("step", [1, 3, 11])  # rows per block; 3 leaves the last one short
    @pytest.mark.parametrize("text, params", [
        ("0", None), ("1", None), ("4*atan(exp(-x-y))", None), ("a*x", {"a": 2.0}),
        ("x*y^3 + sin(y)^3 + a*exp(x - y)", {"a": 0.7}),
    ])
    def test_blocks_match_the_mesh(self, text, params, step):
        # v is the mesh's own values, so a sup of zero means every block
        # evaluated the reference bitwise as the whole mesh does
        grid = pp.Grid(7, 11, -1.0, 1.0, 0.3, 1.9)
        v = pp.Field(grid, mesh_values(text, grid, params))
        assert folded_sup(text, v, params, step) == 0.0

    def test_domain_error_is_held_until_the_result(self):
        grid = pp.Grid(3, 3, 0.0, 1.0, 0.0, 1.0)
        fold = pp.SupError("1/x", grid)
        fold.add(0, np.zeros((2, 3)))
        fold.add(2, np.zeros((1, 3)))
        with pytest.raises(ex.DomainError):
            fold.result()

    @pytest.mark.parametrize("step", [1, 2, 5, 17])
    @pytest.mark.parametrize("text", ["4*atan(exp(-lam*x - y/lam)) + x*y^3/1000", "lam", "0"])
    def test_bitwise_the_mesh_value(self, sg_bt, text, step):
        grid = pp.Grid(23, 17, 0.0, 1.0, -0.5, 1.0)
        v = pp.bt_propagate(sg_bt, "0", math.pi, grid).v
        params = {"lam": 1.0}
        want = np.max(np.abs(v.values - mesh_values(text, grid, params)))
        got = folded_sup(text, v, params, step)
        assert type(got) is float
        assert got.hex() == float(want).hex()

    @pytest.mark.parametrize("text, message", [
        ("exp(1000*x)", r"inf at node i=3, j=0, \(x, y\) = \(0\.75, 0\.0\)"),
        ("exp(1000*y) - 3*exp(999*y)", r"nan at node i=0, j=6, \(x, y\) = \(0\.0, 0\.75\)"),
    ])
    def test_non_finite_reference_names_its_lowest_node(self, text, message):
        grid = pp.Grid(5, 9, 0.0, 1.0, 0.0, 1.0)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match=f"^the reference is {message}$"):
                folded_sup(text, pp.Field(grid, np.zeros((9, 5))), step=2)

    def test_an_overflowing_difference_reads_inf(self):
        # v and the reference are finite, |v - e| overflows; the reference
        # has no non-finite node to name
        grid = pp.Grid(5, 5, 0.0, 1.0, 0.0, 1.0)
        fold = pp.SupError("17976931348623157*10^292", grid)
        with np.errstate(over="ignore"):
            fold.add(0, np.full((5, 5), -1e300))
        assert fold.result() == math.inf

    def test_a_non_finite_reference_outranks_an_overflow(self):
        grid = pp.Grid(5, 5, 0.0, 1.0, 0.0, 1.0)
        # the difference overflows at y = 0 and the reference itself from y = 0.75 on
        fold = pp.SupError("17976931348623157*10^292*(1 - y) + exp(1000*y)", grid)
        with np.errstate(over="ignore"):
            fold.add(0, np.full((2, 5), -1e300))
            fold.add(2, np.full((3, 5), -1e300))
        with pytest.raises(ValueError, match=r"^the reference is inf at node i=0, j=3,"):
            fold.result()

    def test_a_failing_block_outranks_a_lower_non_finite_one(self):
        # exp overflows on the first rows and sqrt fails from y = 0.625 on:
        # the non-finite values are reported only once every block is evaluated
        grid = pp.Grid(5, 9, 0.0, 1.0, 0.0, 1.0)
        with np.errstate(over="ignore"):
            with pytest.raises(ex.DomainError, match="sqrt of a negative"):
                folded_sup("exp(1000*(1 - y)) + sqrt(0.5 - y)", pp.Field(grid, np.zeros((9, 5))),
                           step=2)


    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("nx, ny", [(21, 21), (7, 61), (61, 7)])
    @pytest.mark.parametrize("text", ["4*atan(exp(-lam*x - y/lam)) + x*y^3/1000", "0"])
    def test_march_folds_the_reference_bitwise(self, tmp_path, monkeypatch, sg_bt, text, nx, ny,
                                               cpus):
        # bt_propagate compares each block of v with the reference once the
        # block is final, in the grid's blocks with or without rows
        monkeypatch.setattr(pp, "_BLOCK", 32)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        grid = pp.Grid(nx, ny, 0.0, 1.0, -0.5, 1.0)
        params = {"lam": 1.0}
        plain = pp.bt_propagate(sg_bt, "0", math.pi, grid, reference=text)
        want = np.max(np.abs(plain.v.values - mesh_values(text, grid, params)))
        with pp.FieldRows(grid, str(tmp_path / "v.csv")) as rows:
            assert rows._blocks > 1
            streamed = pp.bt_propagate(sg_bt, "0", math.pi, grid, rows=rows, reference=text)
            rows.commit()
        assert_no_child_left()
        assert pp.bt_propagate(sg_bt, "0", math.pi, grid).sup_error is None
        for got in (plain.sup_error, streamed.sup_error):
            assert type(got) is float
            assert got.hex() == float(want).hex()

    def test_march_raises_a_failing_block_before_a_lower_non_finite_one(self, monkeypatch, sg_bt):
        monkeypatch.setattr(pp, "_BLOCK", 10)
        grid = pp.Grid(5, 9, 0.0, 1.0, 0.0, 1.0)
        with np.errstate(over="ignore"):
            with pytest.raises(ex.DomainError, match="sqrt of a negative"):
                pp.bt_propagate(sg_bt, "0", math.pi, grid,
                                reference="exp(1000*(1 - y)) + sqrt(0.5 - y)")

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_failing_reference_raises_the_same_at_every_cpu_count(self, tmp_path, monkeypatch,
                                                                  sg_bt, cpus):
        # ln fails on the rows up to y = 0.05 and sqrt from y = 0.15 on, and
        # a block that holds both raises sqrt's failure.  The reference is
        # compared in the grid's blocks, 15 rows here, with or without rows;
        # the rows' own blocks would be 7 rows at two CPUs and 5 at three
        grid = pp.Grid(61, 61, 0.0, 1.0, 0.0, 1.0)
        text = "sqrt(0.15 - y) + ln(y - 0.05)"
        with pytest.raises(ex.DomainError, match="sqrt of a negative"):
            pp.bt_propagate(sg_bt, "0", math.pi, grid, reference=text)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        with pp.FieldRows(grid, str(tmp_path / "v.csv")) as rows:
            assert rows.block_rows == {1: 15, 2: 7, 3: 5}[cpus]
            with pytest.raises(ex.DomainError, match="sqrt of a negative"):
                pp.bt_propagate(sg_bt, "0", math.pi, grid, rows=rows, reference=text)
        assert_no_child_left()
        assert list(tmp_path.iterdir()) == []

    def test_march_failure_outranks_a_failing_reference(self):
        # v_y = v^2 blows up near y = 1; the reference fails on every block
        ch = bk.b_chart(params={"lam": 1.0})
        diverging = bk.build_wavelike("p", "-q + v^2", ch, ch.sample_spec(count=16))
        grid = pp.Grid(5, 41, 0.0, 1.0, 0.0, 2.0)
        with np.errstate(over="ignore"), pytest.raises(pp.PropagationError, match="diverged"):
            pp.bt_propagate(diverging, "0", 1.0, grid, reference="sqrt(x - 2)")


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

    def test_root_solve_failure(self):
        # atan(p) never reaches u_x = 2
        ch = bk.b_chart()
        bt = bk.build_wavelike("atan(p)", "-q", ch, ch.sample_spec(count=16))
        grid = pp.Grid(5, 5, 0.0, 1.0, 0.0, 1.0)
        with pytest.raises(pp.RootSolveError) as err:
            pp.bt_propagate(bt, "2*x", 0.0, grid)
        assert str(err.value) == "Newton iteration for the v_x relation failed"

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
        rep = pp.wavelike_residual(pp.Field(grid, mesh_values("x*y", grid)), "0")
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

    def test_params_are_bound(self):
        grid = pp.Grid(41, 41, 0.0, 0.3, 0.0, 0.3)
        plain = pp.tzitzeica_propagate("2 + x + y", 1.0, 0.5, 0.5, grid)
        bound = pp.tzitzeica_propagate("2 + a*x + y", 1.0, 0.5, 0.5, grid, params={"a": 1.0})
        for name in ("alpha", "beta", "h_prime"):
            assert np.array_equal(getattr(bound, name).values, getattr(plain, name).values)
        assert bound.alpha_compatibility == plain.alpha_compatibility
        assert bound.beta_compatibility == plain.beta_compatibility

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


def mesh_tzitzeica_residual(h_prime):
    """The h' residual over the whole mesh at once, as it was computed
    before the march folded it in row by row."""
    grid = h_prime.grid
    vals = h_prime.values
    ok = np.isfinite(vals) & (vals > pp.GUARD)
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
        raise pp.SingularFieldError("no usable interior nodes for the residual")
    center = vals[1:-1, 1:-1]
    resid = np.abs(pp._d_xy(L, grid) - center + center**-2.0)[usable]
    return pp.ResidualReport(
        max_residual=float(np.max(resid)),
        mean_residual=float(np.mean(resid)),
        nodes=count,
        excluded=total - count,
    )


def folded_tzitzeica_residual(h_prime):
    """The h' residual folded in row by row, from the rows a FieldRows
    would hold: nan at the singular nodes."""
    residual = pp.TzitzeicaResidual(h_prime.grid)
    for row in written_values(h_prime):
        residual.add(row)
    return residual.report()


def assert_residuals_agree(folded, mesh):
    """Bitwise but for the mean, whose sum is ordered differently."""
    assert (folded.max_residual, folded.nodes, folded.excluded) == (
        mesh.max_residual, mesh.nodes, mesh.excluded)
    assert abs(folded.mean_residual - mesh.mean_residual) <= 4 * math.ulp(mesh.mean_residual)


def vars_of(report):
    return {name: getattr(report, name) for name in pp.ResidualReport.__slots__}


class TestTzitzeicaResidual:
    """The folded residual against the mesh-wide oracle."""

    @staticmethod
    def report(field):
        folded = folded_tzitzeica_residual(field)
        assert_residuals_agree(folded, mesh_tzitzeica_residual(field))
        return folded

    def test_unit_field(self):
        grid = pp.Grid(11, 11, 0.0, 1.0, 0.0, 1.0)
        rep = self.report(pp.Field(grid, np.ones((11, 11))))
        assert rep.max_residual == 0.0
        assert rep.excluded == 0

    def test_constant_two(self):
        grid = pp.Grid(5, 5, 0.0, 2.0, 0.0, 2.0)
        rep = self.report(pp.Field(grid, np.full((5, 5), 2.0)))
        assert rep.max_residual == 1.75

    def test_excludes_singular_nodes(self):
        grid = pp.Grid(7, 7, 0.0, 1.0, 0.0, 1.0)
        vals = np.ones((7, 7))
        vals[3, 3] = np.nan
        mask = np.isnan(vals)
        rep = self.report(pp.Field(grid, vals, singular=mask))
        # the nan node knocks out itself and the four stencils through it
        assert rep.excluded == 5
        assert rep.nodes == 25 - 5
        assert rep.max_residual == 0.0

    def test_all_singular(self):
        grid = pp.Grid(4, 4, 0.0, 1.0, 0.0, 1.0)
        vals = np.full((4, 4), np.nan)
        mask = np.ones((4, 4), dtype=bool)
        for residual in (folded_tzitzeica_residual, mesh_tzitzeica_residual):
            with pytest.raises(pp.SingularFieldError):
                residual(pp.Field(grid, vals, singular=mask))

    # (h, lam, alpha0, beta0): a solution, two non-solutions, h' = 0 at the
    # corner, and h' <= 0 near the corner
    MARCHES = pytest.mark.parametrize("h, lam, alpha0, beta0", [
        ("1", 1.0, 0.6, 0.9), ("2 + x + y", 1.0, 1.2, 1.2), ("2 + sin(x*y) + y^3", 1.3, 1.1, 1.3),
        ("1", 1.0, math.sqrt(0.5), math.sqrt(0.5)), ("2 + sin(x*y) + y^3", 1.3, 0.9, 1.0),
    ], ids=["solution", "affine", "non-solution", "singular", "nonpositive"])

    @MARCHES
    def test_marched_equals_the_mesh_residual(self, h, lam, alpha0, beta0):
        grid = pp.Grid(41, 31, 0.0, 0.3, 0.0, 0.3)
        res = pp.tzitzeica_propagate(h, lam, alpha0, beta0, grid)
        assert_residuals_agree(res.h_prime_residual.report(), mesh_tzitzeica_residual(res.h_prime))

    @MARCHES
    def test_streamed_equals_the_returned_field(self, tmp_path, monkeypatch, h, lam, alpha0,
                                                beta0):
        # into a FieldRows, h' is written with nan at its singular nodes,
        # the bytes write_field_csv gives the returned field
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        grid = pp.Grid(41, 31, 0.0, 0.3, 0.0, 0.3)
        plain = pp.tzitzeica_propagate(h, lam, alpha0, beta0, grid)
        path = str(tmp_path / "hp.csv")
        with pp.FieldRows(grid, path) as rows:
            res = pp.tzitzeica_propagate(h, lam, alpha0, beta0, grid, rows=rows)
            rows.commit()
        assert_no_child_left()
        assert res.alpha is res.beta is res.h_prime is None
        assert (res.alpha_compatibility, res.beta_compatibility, res.singular_count) == (
            plain.alpha_compatibility, plain.beta_compatibility, plain.singular_count)
        assert vars_of(res.h_prime_residual.report()) == vars_of(plain.h_prime_residual.report())
        with open(path, "rb") as fh:
            assert fh.read() == reference_csv(plain.h_prime)

    def test_no_usable_node(self):
        # h' = 2 alpha beta - 1 stays negative from alpha0 = beta0 = 0
        grid = pp.Grid(21, 21, 0.0, 0.3, 0.0, 0.3)
        res = pp.tzitzeica_propagate("1", 1.0, 0.0, 0.0, grid)
        assert np.all(res.h_prime.values < 0)
        with pytest.raises(pp.SingularFieldError):
            res.h_prime_residual.report()


# ---------------------------------------------------------------------------
# the compatibility residual streamed from the march's own right sides


def cross_residual(P, Q, grid):
    P, Q = (np.broadcast_to(a, (grid.ny, grid.nx)) for a in (P, Q))
    return float(np.max(np.abs(pp._d_y(P, grid) - pp._d_x(Q, grid))))


def mesh_compatibility(bt, seed, v):
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
        P = pp._solve_p(F, Fp, env, target, start)
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

    @pytest.mark.parametrize("make_bt, seed, v0, grid", [
        (lambda: sg_lam(1.0), "0", math.pi, pp.Grid(201, 201, 0.0, 2.0, 0.0, 2.0)),
        (lambda: sg_lam(0.8), "0", math.pi, pp.Grid(201, 201, 0.0, 2.0, 0.0, 2.0)),
        (lambda: sg_lam(2.2), KINK_SEED, 0.0, pp.Grid(101, 101, 0.0, 1.0, 0.0, 1.0)),
        # Newton stops within its tolerance, so the bits of P depend on its start
        (lambda: non_affine_bt("p + 0.2*p^3"), "3*x + sin(x*y)", 0.5,
         pp.Grid(41, 31, 0.0, 2.0, 0.0, 1.0)),
        (lambda: non_affine_bt("atan(p)"), "1.4*x + 0.1*x*y", 0.5,
         pp.Grid(21, 21, 0.0, 1.0, 0.0, 1.0)),
        # numpy's scalar and array powers may round differently, and y-only
        # terms see the row's y as an array, as on the mesh
        (lambda: sg_lam(1.0), "x*y^3 + sin(y)^3", 0.5, pp.Grid(201, 201, -1.0, 1.0, 0.5, 1.5)),
    ], ids=["kink", "kink-lam0.8", "two-soliton", "cubic-bracketed", "atan-bracketed",
            "y-power"])
    def test_equals_the_mesh_residual(self, make_bt, seed, v0, grid):
        bt = make_bt()
        res = pp.bt_propagate(bt, seed, v0, grid)
        assert res.compatibility_residual == mesh_compatibility(bt, seed, res.v)

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


class TestTzitzeicaBoostCovariance:
    """Under the same boost, (ln h)_xy = h - h^{-2} is invariant, and the
    (alpha, beta) system with lam becomes the one with k^3 lam for
    alpha~ = k alpha o phi and beta~ = beta o phi / k: marching it from
    (k alpha0, beta0 / k) and the seed h o phi on the boosted grid gives
    h' o phi, and scales the two compatibility residuals by k and 1/k.
    The seed 1 solves the equation, the other does not."""

    LAM, ALPHA0, BETA0, GRID = 1.3, 0.5, 0.7, pp.Grid(41, 31, 0.0, 0.3, 0.0, 0.3)

    def runs(self, seed, k):
        g = self.GRID
        base = pp.tzitzeica_propagate(seed, self.LAM, self.ALPHA0, self.BETA0, g)
        moved = ex.substitute(ex.parse(seed, ("x", "y")), "x", ex.mul(ex.Const(k), ex.Var("x")))
        moved = ex.substitute(moved, "y", ex.div(ex.Var("y"), ex.Const(k)))
        k = float(k)
        boosted = pp.Grid(g.nx, g.ny, g.x0 / k, g.x1 / k, g.y0 * k, g.y1 * k)
        return base, pp.tzitzeica_propagate(moved, k**3 * self.LAM, k * self.ALPHA0,
                                            self.BETA0 / k, boosted), k

    SEEDS = pytest.mark.parametrize("seed", ["1", "2 + sin(x*y) + y^3"],
                                    ids=["solution", "non-solution"])

    @SEEDS
    @pytest.mark.parametrize("k", [Fraction(2), Fraction(1, 2)], ids=["2", "1/2"])
    def test_dyadic_boost_is_bitwise(self, seed, k):
        base, boosted, k = self.runs(seed, k)
        assert np.array_equal(boosted.alpha.values, k * base.alpha.values)
        assert np.array_equal(boosted.beta.values, base.beta.values / k)
        assert np.array_equal(boosted.h_prime.values, base.h_prime.values)
        assert boosted.alpha_compatibility == k * base.alpha_compatibility
        assert boosted.beta_compatibility == base.beta_compatibility / k

    @SEEDS
    def test_boost_by_three_within_rounding(self, seed):
        # the bounds observed on this grid over both seeds
        base, boosted, k = self.runs(seed, Fraction(3))
        assert np.max(np.abs(boosted.alpha.values - k * base.alpha.values)) <= 2.3e-15
        assert np.max(np.abs(boosted.beta.values - base.beta.values / k)) <= 3.4e-16
        assert np.max(np.abs(boosted.h_prime.values - base.h_prime.values)) <= 2.3e-15
        assert abs(boosted.alpha_compatibility - k * base.alpha_compatibility) <= 1.7e-13
        assert abs(boosted.beta_compatibility - base.beta_compatibility / k) <= 1.0e-14


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

    def test_lower_sample_block_wins(self):
        # sqrt(0.5 - y) fails on the upper rows and ln(y) on the first: in
        # blocks of two rows the lowest failing block's error is raised, and
        # over the whole mesh at once sqrt's failure is found first
        v = pp.Field(pp.Grid(5, 9, 0.0, 1.0, 0.0, 1.0), np.zeros((9, 5)))
        with pytest.raises(ex.DomainError, match="ln argument"):
            folded_sup("sqrt(0.5 - y) + ln(y)", v, step=2)
        with pytest.raises(ex.DomainError, match="sqrt of a negative"):
            folded_sup("sqrt(0.5 - y) + ln(y)", v, step=9)
        with pytest.raises(ex.DomainError, match="sqrt of a negative"):
            folded_sup("sqrt(0.5 - y) + ln(y + 1)", v, step=2)


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


@pytest.fixture
def claim_gate(monkeypatch):
    """pp._claim with one side claiming first: gate("parent") lets the
    children claim only once this process has claimed a record, and
    gate("children") lets this process claim only once two children have."""
    parent, claim = os.getpid(), pp._claim
    gate, opened = os.pipe()
    waiting = [2]  # children yet to claim

    def first_in_parent(queue):
        if os.getpid() != parent:
            select.select([gate], [], [], 30)
            return claim(queue)
        k = claim(queue)
        os.write(opened, b"\0")
        return k

    def first_in_children(queue):
        if os.getpid() != parent:
            k = claim(queue)
            os.write(opened, b"\0")
            return k
        while waiting[0] and select.select([gate], [], [], 30)[0]:
            waiting[0] -= len(os.read(gate, waiting[0]))
        return claim(queue)

    def set_first(side):
        monkeypatch.setattr(pp, "_claim", first_in_parent if side == "parent" else first_in_children)

    yield set_first
    os.close(gate)
    os.close(opened)


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

    def test_traced_peak_per_value(self):
        # a block's temporaries, each released once dead: about 92 bytes a
        # value here (210 while every array lived to the end of its
        # function), against about 19 bytes of text
        block = np.random.default_rng(0).uniform(-7, 7, size=(10, 1601))
        pp._format_rows(block)  # numpy's own caches are filled
        tracemalloc.start()
        try:
            text = pp._format_rows(block)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert text == repr_rows(block)
        assert peak < 100 * block.size

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
        self, tmp_path, monkeypatch, forks, claim_gate, fail_in_child
    ):
        # each child claims at least its stop record, and this process
        # claims first where it is to fail, so that it formats the first block
        if not fail_in_child:
            claim_gate("parent")
        parent = os.getpid()
        name = "_claim" if fail_in_child else "_format_rows"
        real = getattr(pp, name)

        def failing(arg):
            if (os.getpid() != parent) == fail_in_child:
                raise MemoryError(f"{name} failed")
            return real(arg)

        monkeypatch.setattr(pp, name, failing)
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
        with pp.FieldRows(grid, path) as rows:
            res = pp.bt_propagate(sg_bt, "0", math.pi, grid, rows=rows)
            assert len(forks) == cpus - 1
            rows.commit()
        assert_no_child_left()
        assert res.v is None
        assert res.compatibility_residual == plain.compatibility_residual
        with open(path, "rb") as fh:
            assert fh.read() == reference_csv(plain.v)
        assert not os.path.exists(path + ".tmp")

    @pytest.mark.parametrize("march", ["tzitzeica", "bt"])
    def test_streamed_march_allocates_no_mesh_array(self, tmp_path, monkeypatch, sg_bt, march):
        # the shared array is an mmap, which tracemalloc does not see, and
        # the march holds rows.  With no child each block is formatted as
        # soon as it is final, so blocks are kept small beside the mesh: a
        # mesh array is 8 bytes a node
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(pp, "_BLOCK", 1 << 10)
        grid = pp.Grid(401, 401, 0.0, 0.5, 0.0, 0.5)
        with pp.FieldRows(grid, str(tmp_path / "f.csv")) as rows:
            tracemalloc.start()
            try:
                if march == "tzitzeica":
                    pp.tzitzeica_propagate("2 + sin(x*y) + y^3", 1.3, 1.1, 1.3, grid, rows=rows)
                else:
                    pp.bt_propagate(sg_bt, KINK_SEED, 0.0, grid, rows=rows)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            rows.commit()
        assert peak < 8 * grid.nx * grid.ny

    @pytest.mark.parametrize("cpus", [2, 3, 4])
    @pytest.mark.parametrize("change", ["no lag", "no MADV_REMOVE"])
    def test_bytes_whoever_formats_and_whatever_is_released(self, tmp_path, monkeypatch, forks,
                                                            sg_bt, cpus, change):
        # with _LAG = 0 this process claims every queued block it can as
        # soon as it is posted; without MADV_REMOVE no page is given back
        if change == "no lag":
            monkeypatch.setattr(pp, "_LAG", 0)
        else:
            monkeypatch.delattr(mmap, "MADV_REMOVE", raising=False)
        parent, marching, in_march = os.getpid(), [True], []
        format_rows = pp._format_rows

        def recording(block):
            if os.getpid() == parent and marching[0]:
                in_march.append(len(block))
            return format_rows(block)

        monkeypatch.setattr(pp, "_format_rows", recording)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        grid = pp.Grid(31, 41, 0.0, 2.0, 0.0, 1.0)
        plain = pp.bt_propagate(sg_bt, "0", math.pi, grid)
        path = str(tmp_path / "v.csv")
        with pp.FieldRows(grid, path) as rows:
            pp.bt_propagate(sg_bt, "0", math.pi, grid, rows=rows)
            marching[0] = False
            rows.commit()
        assert len(forks) == cpus - 1
        assert_no_child_left()
        if change == "no lag":
            assert in_march
        with open(path, "rb") as fh:
            assert fh.read() == reference_csv(plain.v)

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_shared_pages_stay_within_the_lag(self, tmp_path, monkeypatch, sg_bt, cpus):
        # each block's whole pages are given back once it is formatted, and
        # this process formats the oldest queued block while more than _LAG
        # blocks per child wait (each at once with no child).  So at every
        # post it keeps at most _LAG blocks per child, the block it fills and
        # one more, and one page per block boundary.  Blocks of 11 rows and a
        # lag of 2 keep that bound below half the mesh
        def shmem_kb():
            with open("/proc/self/status") as fh:
                for line in fh:
                    if line.startswith("RssShmem:"):
                        return int(line.split()[1])
            return None

        if not hasattr(mmap, "MADV_REMOVE") or shmem_kb() is None:
            pytest.skip("no MADV_REMOVE or no RssShmem here")
        post, samples = pp.FieldRows.post, []

        def sampling(rows, stop):
            post(rows, stop)
            samples.append(shmem_kb())

        monkeypatch.setattr(pp.FieldRows, "post", sampling)
        monkeypatch.setattr(pp, "_BLOCK", 1 << 12)
        monkeypatch.setattr(pp, "_LAG", 2)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        grid = pp.Grid(401, 401, 0.0, 0.5, 0.0, 0.5)
        with pp.FieldRows(grid, str(tmp_path / "v.csv")) as rows:
            base = shmem_kb()
            pp.bt_propagate(sg_bt, KINK_SEED, 0.0, grid, rows=rows)
            rows.commit()
        block = 8 * grid.nx * rows.block_rows
        bound = (pp._LAG * (cpus - 1) + 2) * block + rows._blocks * mmap.PAGESIZE
        assert len(samples) == grid.ny + 1  # a post per row without a reference, and commit's
        assert bound < 8 * grid.nx * grid.ny / 2
        assert max(samples) - base <= bound / 1024

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
        plain = pp.bt_propagate(sg_bt, "0", math.pi, grid)
        path = str(tmp_path / "v.csv")
        with pp.FieldRows(grid, path) as rows:
            pp.bt_propagate(sg_bt, "0", math.pi, grid, rows=rows)
            rows.commit()
        assert len(forks) == 1
        assert_no_child_left()
        assert 0 < len(in_parent) < grid.ny
        with open(path, "rb") as fh:
            assert fh.read() == reference_csv(plain.v)

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_every_block_goes_through_the_queue(self, tmp_path, monkeypatch, forks, sg_bt, cpus):
        # 2000 values a row give blocks of 6, 3 and 2 rows at one, two and
        # three readers, so that the last of the 25 rows is a block of its
        # own.  Every block, that one included, is claimed from the queue
        # exactly once, whichever process claims it
        claimed = np.frombuffer(mmap.mmap(-1, 8 * 25), np.int64)  # claims per block index
        claim_now = pp._claim_now

        def counting(queue):
            k = claim_now(queue)
            if k is not None and k >= 0:
                claimed[k] += 1
            return k

        monkeypatch.setattr(pp, "_claim_now", counting)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        grid = pp.Grid(2000, 25, 0.0, 2.0, 0.0, 1.0)
        plain = pp.bt_propagate(sg_bt, "0", math.pi, grid)
        path = str(tmp_path / "v.csv")
        with pp.FieldRows(grid, path) as rows:
            assert rows.block_rows == {1: 6, 2: 3, 3: 2}[cpus]
            pp.bt_propagate(sg_bt, "0", math.pi, grid, rows=rows)
            rows.commit()
        assert len(forks) == cpus - 1
        assert_no_child_left()
        assert claimed.tolist() == [1] * rows._blocks + [0] * (25 - rows._blocks)
        with open(path, "rb") as fh:
            assert fh.read() == reference_csv(plain.v)

    def test_all_the_queue_is_given_fits_in_pipe_buf(self):
        # every block and a stop record per reader, at the heights where
        # the block count is at its largest
        queue = select.PIPE_BUF // 4
        for readers in range(1, 65):
            for nx in (1, 1601):
                for ny in [k * (queue - r) + d for k in (1, 2, 979) for r in (1, 2, readers, 64)
                           for d in (-1, 0, 1)]:
                    if readers <= ny:
                        assert -(-ny // pp._block_rows(ny, nx, readers)) + readers <= queue

    def test_dead_children_with_the_longest_queue_fail(self, tmp_path, monkeypatch, forks):
        # blocks of one row would be 40,000 records; the queue is given 1000
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
        # a slow parent leaves most blocks to the child.  Each block this
        # process formats is written once the child has entered the lengths
        # of the blocks before it, which it does as it formats them, so what
        # this process holds in commit stays below two blocks of text.  The
        # peak leaves out each block's own formatting temporaries, several
        # times its text (TestFormatRows::test_traced_peak_per_value), but
        # not the few kB of small buffers numpy keeps cached, hence blocks of
        # four rows of 301 values
        parent = os.getpid()
        format_rows = pp._format_rows
        in_parent, peaks = [], []

        def slow(block):
            if os.getpid() != parent:
                return format_rows(block)
            time.sleep(0.01)
            peaks.append(tracemalloc.get_traced_memory()[1])
            text = format_rows(block)
            tracemalloc.reset_peak()
            in_parent.append(len(block))
            return text

        commit = pp.FieldRows.commit

        def traced(rows):
            tracemalloc.start()
            try:
                commit(rows)
            finally:
                peaks.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()

        monkeypatch.setattr(pp, "_format_rows", slow)
        monkeypatch.setattr(pp, "_BLOCK", 1 << 10)
        monkeypatch.setattr(pp.FieldRows, "commit", traced)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        grid = pp.Grid(301, 401, 0.0, 2.0, 0.0, 1.0)
        plain = pp.bt_propagate(sg_bt, "0", math.pi, grid)
        path = str(tmp_path / "v.csv")
        with pp.FieldRows(grid, path) as rows:
            pp.bt_propagate(sg_bt, "0", math.pi, grid, rows=rows)
            assert rows._blocks > 100
            rows.commit()
        assert len(forks) == 1
        assert_no_child_left()
        assert in_parent
        with open(path, "rb") as fh:
            assert fh.read() == reference_csv(plain.v)
        assert max(peaks) < 2 * rows._lengths.max()

    @pytest.mark.parametrize("death", ["killed", "exit status 0"])
    def test_child_dying_after_writing_blocks_fails_the_write(self, tmp_path, monkeypatch, forks,
                                                             death):
        # the child dies as it writes its third block, once two of its
        # blocks are in the file, whatever its exit status
        parent = os.getpid()
        format_rows = pp._format_rows
        pwrite = pp._pwrite
        written = np.frombuffer(mmap.mmap(-1, 8), np.int64)  # the child's writes

        def dying(fd, data, offset):
            if os.getpid() != parent:
                if written[0] == 2:
                    if death == "killed":
                        os.kill(os.getpid(), signal.SIGKILL)
                    os._exit(0)
                written[0] += 1
            pwrite(fd, data, offset)

        def slow_parent(block):
            if os.getpid() == parent:
                time.sleep(0.05)
            return format_rows(block)

        monkeypatch.setattr(pp, "_pwrite", dying)
        monkeypatch.setattr(pp, "_format_rows", slow_parent)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        rng = np.random.default_rng(7)
        field = pp.Field(pp.Grid(4000, 37, 0.0, 1.0, 0.0, 1.0), rng.normal(size=(37, 4000)))
        path = str(tmp_path / "f.csv")
        match = "CSV row formatter failed" if death == "killed" else "no CSV row formatter wrote"
        with pytest.raises(OSError, match=match):
            pp.write_field_csv(field, path)
        assert len(forks) == 1
        assert written[0] == 2
        assert not os.path.exists(path)
        assert not os.path.exists(path + ".tmp")
        assert_no_child_left()

    @pytest.mark.parametrize("short_in_child", [True, False])
    def test_short_write_fails_the_write(self, tmp_path, monkeypatch, forks, claim_gate,
                                         short_in_child):
        # a block written in part, as a full disk can leave it, is a failure
        # whichever process wrote it.  The side that writes short claims
        # first, so that it has a block to write: both children, or this
        # process, the first block
        parent = os.getpid()
        pwrite = os.pwrite

        def short(fd, data, offset):
            if offset and (os.getpid() != parent) == short_in_child:
                return pwrite(fd, data[:-1], offset)
            return pwrite(fd, data, offset)

        monkeypatch.setattr(os, "pwrite", short)
        claim_gate("children" if short_in_child else "parent")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        path = str(tmp_path / "f.csv")
        match = "CSV row formatter failed" if short_in_child else "short write of the CSV"
        with pytest.raises(OSError, match=match):
            pp.write_field_csv(csv_fields()["odd ny"], path)
        assert len(forks) == 2
        assert not os.path.exists(path)
        assert not os.path.exists(path + ".tmp")
        assert_no_child_left()

    def test_held_blocks_written_once_their_place_is_known(self, tmp_path, monkeypatch):
        # one row a block; blocks 1 and 4 are not formatted yet, so only
        # the held blocks before the first gap are written, each at the
        # header's length plus the lengths before it
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        path = str(tmp_path / "f.csv")
        with pp.FieldRows(pp.Grid(2, 6, 0.0, 1.0, 0.0, 1.0), path) as rows:
            assert rows._blocks == 6
            rows._lengths[:] = [3, -1, 2, 4, -1, 5]
            held = rows._held
            held.update({0: b"aaa", 2: b"cc", 3: b"dddd", 5: b"fffff"})
            header = os.path.getsize(path + ".tmp")

            def body():
                with open(path + ".tmp", "rb") as fh:
                    return fh.read()[header:]

            rows._write_held()
            assert body() == b"aaa" and sorted(held) == [2, 3, 5]
            rows._lengths[1] = 1
            rows._write_held()
            assert body() == b"aaa\0ccdddd" and sorted(held) == [5]
            rows._lengths[4] = 6
            rows._write_held()
            assert body() == b"aaa\0ccdddd" + bytes(6) + b"fffff" and held == {}
            assert rows._written.tolist() == [True, False, True, True, False, True]

    def test_children_exit_when_the_parent_dies(self, tmp_path):
        # the helper posts a few rows and exits without a commit; each of
        # its children holds a copy of the helper's stdout, so stdout
        # reaches end of file only once every child has exited
        helper = (
            "import os, sys\n"
            "from edsbt import propagate as pp\n"
            "os.sched_getaffinity = lambda pid: {0, 1, 2}\n"
            "rows = pp.FieldRows(pp.Grid(4, 6, 0.0, 1.0, 0.0, 1.0), sys.argv[1])\n"
            "rows.post(3)\n"
            "print(*(pid for pid, _pipe in rows._children), flush=True)\n"
            "os._exit(0)\n"
        )
        src = os.path.dirname(os.path.dirname(pp.__file__))
        env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
        proc = subprocess.Popen([sys.executable, "-c", helper, str(tmp_path / "f.csv")],
                                stdout=subprocess.PIPE, env=env)
        pids = [int(pid) for pid in proc.stdout.readline().split()]
        assert proc.wait(timeout=30) == 0
        assert len(pids) == 2
        try:
            proc.communicate(timeout=10)
        except subprocess.TimeoutExpired:
            for pid in pids:
                os.kill(pid, signal.SIGKILL)
            pytest.fail("formatter children outlived their parent")
