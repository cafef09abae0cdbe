"""Acceptance gate: one test per contract criterion, each at its stated
tolerance, each printing a single PASS/FAIL line (run with -s to watch
them stream; captured output is shown on failure anyway).
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

import edsbt.backlund as bk
import edsbt.expr as ex
import edsbt.forms as fm
import edsbt.monge_ampere as ma
import edsbt.propagate as pp

import test_expr
import test_forms
from test_propagate import mesh_values

SG_F = "p + 2*lam*sin((u + v)/2)"
SG_G = "-q + (2/lam)*sin((u - v)/2)"


@contextmanager
def criterion(n: int, label: str):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {n}: {label}")
        raise
    print(f"PASS criterion {n}: {label}")


def sg_chart(lam=1.0):
    return bk.b_chart(params={"lam": lam})


def explicit_section(ch):
    """The adapted coframe for the sine-Gordon relations in closed form."""
    lam = ex.Param("lam")
    u, v, p, q = (ex.Var(n) for n in ("u", "v", "p", "q"))
    dx, dy, du, dv, dp, dq = (fm.d_coord(ch, c) for c in ch.coords)
    F = p + 2 * lam * ex.sin((u + v) / 2)
    G = -q + (2 / lam) * ex.sin((u - v) / 2)
    theta = du - F * dx - q * dy
    theta_bar = dv - p * dx - G * dy
    w2 = dp - ex.sin(v) * dy + (lam * ex.cos((u + v) / 2)) * theta_bar
    w4 = dq - ex.sin(u) * dx - ((1 / lam) * ex.cos((u - v) / 2)) * theta
    return bk.CoframeSection(ch, theta, theta_bar, dx, w2, dy, w4)


def raw_system(ch, half_angle=True):
    """Pullback generator data; half_angle=False plants the corruption."""
    lam = ex.Param("lam")
    u, v, p, q = (ex.Var(n) for n in ("u", "v", "p", "q"))
    dx, dy, du, dv, dp, dq = (fm.d_coord(ch, c) for c in ch.coords)
    angle = (u + v) / 2 if half_angle else u + v
    F = p + 2 * lam * ex.sin(angle)
    G = -q + (2 / lam) * ex.sin((u - v) / 2)
    theta = du - F * dx - q * dy
    theta_bar = dv - p * dx - G * dy

    def differential(h):
        total = fm.DifferentialForm.zero(ch, 1)
        for c in ch.coords:
            total = total + ex.differentiate(h, c) * fm.d_coord(ch, c)
        return total

    omegas = (fm.wedge(differential(F) - ex.sin(u) * dy, dx), fm.wedge(dq - ex.sin(u) * dx, dy))
    omegas_bar = (fm.wedge(dp - ex.sin(v) * dy, dx), fm.wedge(differential(G) - ex.sin(v) * dx, dy))
    return theta, theta_bar, omegas, omegas_bar


def test_criterion_1_torsion_closed_forms():
    label = "ten torsion functions match their closed forms, 64 points, three couplings"
    with criterion(1, label):
        t0 = time.perf_counter()
        for lam in (0.5, 1.0, 2.0):
            ch = sg_chart(lam)
            section = explicit_section(ch)
            spec = ch.sample_spec(count=64, seed=17)
            pts = [pt for pt, _ in ex.sampled_collect(spec, lambda _pt: 0.0)]
            torsion = bk.extract_torsion(section, points=pts)
            uu = np.array([pt.coords["u"] for pt in pts])
            vv = np.array([pt.coords["v"] for pt in pts])
            zero = np.zeros_like(uu)
            want = {
                "A1": np.ones_like(uu),
                "A2": -np.ones_like(uu),
                "B1": zero,
                "B3": zero,
                "C1": zero,
                "C3": zero,
                "B2": -(lam / 2) * np.sin((uu + vv) / 2),
                "B4": (1 / (2 * lam)) * np.sin((uu - vv) / 2),
                "C2": -lam * np.cos((uu + vv) / 2),
                "C4": -(1 / lam) * np.cos((uu - vv) / 2),
            }
            for name, expect in want.items():
                got = torsion.values[name]
                rel = np.max(np.abs(got - expect) / (1.0 + np.abs(expect)))
                assert rel <= 1e-9, (lam, name, rel)
        assert time.perf_counter() - t0 < 5.0


def test_criterion_2_structure_equation_slots():
    label = "normalization slots equal 1 and structural zeros vanish within 1e-9"
    with criterion(2, label):
        bt = bk.build_wavelike(SG_F, SG_G, sg_chart())
        report = bk.validate_section(bt.section, bt.chart.sample_spec(count=64))
        assert report.normalization_max["theta"] <= 1e-9  # d theta on w3^w4
        assert report.normalization_max["theta_bar"] <= 1e-9  # d theta_bar on w1^w2
        assert report.structural_violation <= 1e-9


def test_criterion_3_build_and_extension():
    label = "build yields f = sin u, g = sin v, closure holds, corruption is caught"
    with criterion(3, label):
        ch = sg_chart()
        spec = ch.sample_spec(count=64, tolerance=1e-9)
        bt = bk.build_wavelike(SG_F, SG_G, ch, spec)
        assert ex.equiv_random(bt.f, ex.sin(ex.Var("u")), spec).ok
        assert ex.equiv_random(bt.g, ex.sin(ex.Var("v")), spec).ok
        closure = bk.closure_checks(bt, spec)
        assert closure["dropF"].max_violation <= 1e-9
        assert closure["dropG"].max_violation <= 1e-9
        theta, theta_bar, *omegas = bt.generators()
        assert bk.check_integrable_extension(
            theta, theta_bar, omegas, omegas, ch.sample_spec(count=64, tolerance=1e-8)
        )
        corrupted = bk.integrable_extension_checks(
            *raw_system(ch, half_angle=False), spec
        )
        assert corrupted["dtheta"].max_violation > 1e-2
        assert corrupted["dtheta_bar"].max_violation > 1e-2


def test_criterion_4_normality_and_classification():
    label = "A1 A2 = -1, wavelike/quasilinear/autonomous verdicts, degree-two rejection"
    with criterion(4, label):
        ch = sg_chart()
        spec = ch.sample_spec(count=64)
        bt = bk.build_wavelike(SG_F, SG_G, ch, spec)
        torsion = bk.extract_torsion(bt.section, spec=spec)
        assert np.max(np.abs(torsion.product() + 1.0)) <= 1e-9
        assert bk.normal_margins(torsion)["A1A2_minus_1"] == pytest.approx(2.0, abs=1e-9)
        assert bk.check_normal(torsion)
        eta1 = fm.d_coord(ch, "x")
        eta3 = fm.d_coord(ch, "y")
        assert bk.check_wavelike(bt.section, eta1, eta3, spec)
        assert bk.check_quasilinear(bt, spec)
        X = fm.VectorField.coordinate(ch, "x")
        Y = fm.VectorField.coordinate(ch, "y")
        assert bk.check_autonomous(bt, X, Y, spec)
        assert bk.transversality_det(bt, X, Y, spec) == pytest.approx(1.0, abs=1e-9)

        steep = bk.b_chart(box={"p": (1.0, 2.0)})
        quadratic = bk.build_wavelike("p^2 + u", "-q", steep)
        assert not bk.check_quasilinear(quadratic, steep.sample_spec(count=32))


def test_criterion_5_kink_generation():
    label = "companion solution matches the travelling kink and refines at fourth order"
    with criterion(5, label):
        t0 = time.perf_counter()
        bt = bk.build_wavelike(SG_F, SG_G, sg_chart())
        grid = pp.Grid(201, 201, 0.0, 2.0, 0.0, 2.0)
        run = pp.bt_propagate(bt, "0", math.pi, grid)
        kink = mesh_values("4*atan(exp(-x - y))", grid)
        sup = float(np.max(np.abs(run.v.values - kink)))
        assert sup <= 1e-5
        residual = pp.wavelike_residual(run.v, "sin(u)")
        assert residual.max_residual <= 1e-3
        fine = pp.Grid(401, 401, 0.0, 2.0, 0.0, 2.0)
        run_fine = pp.bt_propagate(bt, "0", math.pi, fine)
        kink_fine = mesh_values("4*atan(exp(-x - y))", fine)
        sup_fine = float(np.max(np.abs(run_fine.v.values - kink_fine)))
        assert sup / sup_fine >= 8.0
        assert time.perf_counter() - t0 < 10.0


def test_criterion_6_auxiliary_system_fixed_point():
    label = "auxiliary marching is compatible and returns a companion seed"
    with criterion(6, label):
        grid = pp.Grid(101, 101, 0.0, 0.5, 0.0, 0.5)
        run = pp.tzitzeica_propagate("1", 1.0, 1.0, 1.0, grid)
        assert run.alpha_compatibility <= 1e-6
        assert run.beta_compatibility <= 1e-6
        residual = run.h_prime_residual.report()
        assert residual.max_residual <= 1e-3
        h_vals = mesh_values("1", grid)
        assert np.array_equal(
            h_vals + run.h_prime.values, 2.0 * run.alpha.values * run.beta.values
        )


def test_criterion_7_pencil_classification():
    label = "decomposable representative has roots {0, 1}; elliptic layout is rejected"
    with criterion(7, label):
        u = ex.Var("u")
        system = ma.from_coefficients(0, 1, 0, 0, ex.neg(ex.sin(u)))
        ch = system.chart
        spec = ch.sample_spec(count=64)
        dx, dy, dp = (fm.d_coord(ch, c) for c in ("x", "y", "p"))
        omega1 = fm.wedge(dp - ex.sin(u) * dy, dx)
        rep = ma.hyperbolicity(ma.MongeAmpereSystem(ch, system.theta, omega1), spec)
        assert rep.hyperbolic
        for sample in rep.samples:
            assert sample.roots == pytest.approx((0.0, 1.0), abs=1e-9)
        laplace = ma.hyperbolicity(ma.from_coefficients(1, 0, 1, 0, 0), spec)
        assert all(s.label == "non-hyperbolic" for s in laplace.samples)
        assert not laplace.hyperbolic
        wave = ma.hyperbolicity(ma.from_coefficients(0, 1, 0, 0, 0), spec)
        assert wave.hyperbolic


def test_criterion_8_quasilinear_closed_forms():
    label = "affine data expands to sin u / sin v and the point normalization solves its ODE"
    with criterion(8, label):
        ch = sg_chart()
        spec = ch.sample_spec(count=64)
        fg = bk.quasilinear_fg(
            "2*lam*sin((u + v)/2)", "1", "(2/lam)*sin((u - v)/2)", "-1", ch, spec
        )
        assert ex.equiv_random(fg.f, ex.sin(ex.Var("u")), spec).ok
        assert ex.equiv_random(fg.g, ex.sin(ex.Var("v")), spec).ok
        assert fg.pq_checks["f"].max_violation <= 1e-12
        assert fg.pq_checks["g"].max_violation <= 1e-12

        norm = bk.normalize_first_order(ex.ONE)
        u = ex.Var("u")
        assert norm.phi_u == ex.exp(ex.neg(u))
        ode = ex.add(ex.differentiate(norm.phi_u, "u"), ex.mul(ex.ONE, norm.phi_u))
        plane = fm.Chart(
            ("x", "y", "u"), {c: (-1.5, 1.5) for c in ("x", "y", "u")}
        )
        strict = plane.sample_spec(count=64, tolerance=1e-12)
        assert ex.equiv_random(ode, ex.ZERO, strict).ok


PROPERTY_SUITES = (
    test_forms.test_property_d_after_d_vanishes,
    test_forms.test_property_graded_leibniz,
    test_forms.test_property_interior_antiderivation,
    test_expr.test_differentiate_matches_finite_differences,
    test_expr.test_parser_round_trip,
)


def test_criterion_9_property_suites():
    label = "five derandomized property suites rerun at 200+ cases each"
    with criterion(9, label):
        for suite in PROPERTY_SUITES:
            settings = suite._hypothesis_internal_use_settings
            assert settings.max_examples >= 200, suite.__name__
            suite()
