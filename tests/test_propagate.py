"""Tests for grid propagation, residual reports, and CSV serialization.

The reference companion solution for the standard transformation with
seed u = 0 is v(x, y) = 4*atan(exp(-lam*x - y/lam)): differentiating
gives v_x = -2*lam*sin(v/2) and v_y = -(2/lam)*sin(v/2), which is
exactly the ODE system the marcher integrates, and v(0, 0) = pi.
"""

import builtins
import math
import os
import signal
import subprocess
import sys
import time

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

    def test_full_queue_of_single_row_blocks_with_dead_children_fails(
        self, tmp_path, monkeypatch, forks
    ):
        # blocks of one row each, more than the queue holds: with every child
        # gone, nothing drains it, and the write must fail rather than wait
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
        with pytest.raises(OSError, match="before its stop record"):
            pp.write_field_csv(field, path)
        assert len(forks) == 2
        assert not os.path.exists(path)
        assert not os.path.exists(path + ".tmp")
        assert_no_child_left()

    def test_field_outside_the_rows_rejected(self, tmp_path, sg_bt):
        grid = pp.Grid(5, 5, 0.0, 1.0, 0.0, 1.0)
        path = str(tmp_path / "v.csv")
        with pp.FieldRows(grid) as rows:
            with pytest.raises(ValueError):
                pp.write_field_csv(pp.Field(grid, np.zeros((5, 5))), path, rows)
        assert not os.path.exists(path)
        assert_no_child_left()

    def test_full_queue_with_dead_children_fails(self, tmp_path, monkeypatch, forks):
        # more rows than the queue holds: with every child gone, nothing
        # drains it, and the write must fail rather than wait for ever
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
