"""Monge-Ampere system construction and pencil classification."""

import numpy as np
import pytest

from edsbt import expr as ex
from edsbt import forms as fm
from edsbt import monge_ampere as ma


def sg_system(spec_count=24):
    u = ex.Var("u")
    sys = ma.from_coefficients(0, 1, 0, 0, ex.neg(ex.sin(u)))
    return sys, sys.chart.sample_spec(count=spec_count)


def sg_generators(chart):
    u = ex.Var("u")
    dx, dy, dp, dq = (fm.d_coord(chart, c) for c in ("x", "y", "p", "q"))
    omega1 = fm.wedge(dp - ex.sin(u) * dy, dx)
    omega2 = fm.wedge(dq - ex.sin(u) * dx, dy)
    return omega1, omega2


class TestFromCoefficients:
    def test_sine_gordon_layout(self):
        sys, _ = sg_system()
        ch = sys.chart
        half = ex.Const(ex.Fraction(1, 2))
        assert sys.omega.coeffs[(0, 3)] == half  # dx^dp
        assert sys.omega.coeffs[(1, 4)] == ex.neg(half)  # dq^dy reversed
        assert sys.omega.coeffs[(0, 1)] == ex.neg(ex.sin(ex.Var("u")))
        assert set(sys.omega.coeffs) == {(0, 3), (1, 4), (0, 1)}
        assert (0, 3) in fm.basis_tuples(ch.dim, 2)

    def test_contact_form_layout(self):
        sys, _ = sg_system()
        p, q = ex.Var("p"), ex.Var("q")
        assert sys.theta.coeffs == {
            (0,): ex.neg(p),
            (1,): ex.neg(q),
            (2,): ex.ONE,
        }

    def test_text_coefficients_accepted(self):
        sys = ma.from_coefficients("0", "1", "0", "0", "-sin(u)")
        ref, _ = sg_system()
        assert sys.omega == ref.omega

    def test_all_zero_rejected(self):
        with pytest.raises(ma.DegenerateSystemError):
            ma.from_coefficients(0, 0, 0, 0, 0)

    @pytest.mark.parametrize("nonfinite_first", [True, False])
    def test_nonfinite_magnitude_reads_zero_in_any_order(
        self, monkeypatch, nonfinite_first
    ):
        # with c = 0, E is 0 where exp(1000*u) is finite (u < 0.7) and
        # 0*inf = nan elsewhere, so the verdict must not hang on where the
        # NaNs fall
        collect = ex.sampled_collect

        def reordered(spec, value_at):
            pairs = collect(spec, value_at)
            assert any(pt.coords["u"] > 0.75 for pt, _ in pairs)
            return sorted(pairs, key=lambda pv: pv[0].coords["u"], reverse=nonfinite_first)

        monkeypatch.setattr(ex, "sampled_collect", reordered)
        chart = ma.standard_chart(params={"c": 0.0})
        with np.errstate(all="ignore"), pytest.raises(ma.DegenerateSystemError):
            ma.from_coefficients(0, 0, 0, 0, "c*exp(1000*u)", chart=chart)

    def test_validate_accepts_standard_systems(self):
        sys, spec = sg_system()
        assert ma.validate(sys, spec).ok
        assert ma.validate(ma.from_coefficients(1, 0, 1, 0, 0), spec).ok

    def test_validate_rejects_broken_theta(self):
        sys, spec = sg_system()
        broken = ma.MongeAmpereSystem(sys.chart, fm.d_coord(sys.chart, "x"), sys.omega)
        assert not ma.validate(broken, spec).ok

    def test_validate_rejects_dependent_omega(self):
        sys, spec = sg_system()
        dth = fm.exterior_derivative(sys.theta)
        dependent = ma.MongeAmpereSystem(sys.chart, sys.theta, dth)
        assert not ma.validate(dependent, spec).ok


class TestHyperbolicity:
    def test_sine_gordon_decomposable_representative(self):
        # omega = (dp - sin u dy)^dx gives sigma proportional to lambda(1-lambda)
        sys, spec = sg_system()
        omega1, _ = sg_generators(sys.chart)
        rep = ma.hyperbolicity(ma.MongeAmpereSystem(sys.chart, sys.theta, omega1), spec)
        assert rep.hyperbolic
        for s in rep.samples:
            assert s.label == "hyperbolic"
            assert s.roots == pytest.approx((0.0, 1.0), abs=1e-9)

    def test_sine_gordon_layout_roots(self):
        sys, spec = sg_system()
        rep = ma.hyperbolicity(sys, spec)
        assert rep.verdict == "hyperbolic"
        for s in rep.samples:
            assert s.roots == pytest.approx((-0.5, 0.5), abs=1e-9)

    def test_laplace_never_hyperbolic(self):
        spec = ma.standard_chart().sample_spec(count=32)
        rep = ma.hyperbolicity(ma.from_coefficients(1, 0, 1, 0, 0), spec)
        assert rep.verdict == "non-hyperbolic"
        assert all(s.label == "non-hyperbolic" for s in rep.samples)
        assert all(s.discriminant == pytest.approx(-16.0) for s in rep.samples)

    def test_wave_equation_hyperbolic(self):
        spec = ma.standard_chart().sample_spec(count=32)
        rep = ma.hyperbolicity(ma.from_coefficients(0, 1, 0, 0, 0), spec)
        assert rep.hyperbolic
        for s in rep.samples:
            assert s.roots == pytest.approx((-0.5, 0.5), abs=1e-12)

    def test_degenerate_pencil_raises(self):
        ch = ma.standard_chart()
        dx, dy = fm.d_coord(ch, "x"), fm.d_coord(ch, "y")
        flat = ma.MongeAmpereSystem(ch, dx, fm.wedge(dx, dy))
        with pytest.raises(ma.DegeneratePencilError):
            ma.hyperbolicity(flat, ch.sample_spec(count=4))

    def test_quasilinear_discriminant_consistency(self):
        # D = 0 and B^2 - 4AC > 0 on the box must classify hyperbolic
        u = ex.Var("u")
        cases = [
            (0, 1, 0, 0, ex.neg(ex.sin(u))),
            (1, 0, -1, 0, 0),
            (1, 3, 1, 0, ex.sin(u)),
            (0, ex.add(ex.Const(2), ex.sin(u)), 0, 0, ex.Var("p")),
            (-1, 1, 1, 0, ex.Var("q")),
        ]
        spec = ma.standard_chart().sample_spec(count=24)
        for A, B, C, D, E in cases:
            rep = ma.hyperbolicity(ma.from_coefficients(A, B, C, D, E), spec)
            assert rep.hyperbolic, (A, B, C, D, E)

    def test_verdict_invariant_under_scaling(self):
        sys, spec = sg_system()
        lap = ma.from_coefficients(1, 0, 1, 0, 0)
        for base in (sys, lap):
            expected = ma.hyperbolicity(base, spec).verdict
            for c in (3, -2):
                scaled_omega = ma.MongeAmpereSystem(base.chart, base.theta, c * base.omega)
                assert ma.hyperbolicity(scaled_omega, spec).verdict == expected
                scaled_theta = ma.MongeAmpereSystem(base.chart, c * base.theta, base.omega)
                assert ma.hyperbolicity(scaled_theta, spec).verdict == expected
