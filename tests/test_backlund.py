"""Tests for adapted coframe sections, torsion extraction, and the
wavelike builder on the six-dimensional correspondence space.

Expected numeric values were frozen from an independent symbolic
computation (sympy) of the structure equations; see the companion
module tests for the underlying calculus oracles.
"""

import math

import numpy as np
import pytest

from edsbt import backlund as bk
from edsbt import expr as ex
from edsbt import forms as fm

SG_F = "p + 2*lam*sin((u+v)/2)"
SG_G = "-q + (2/lam)*sin((u-v)/2)"

ROOT2 = math.sqrt(2.0)


def sg_chart(lam=1.0):
    return bk.b_chart(params={"lam": lam})


def sg_bt(lam=1.0, count=24, seed=0):
    ch = sg_chart(lam)
    spec = ch.sample_spec(count=count, seed=seed)
    return bk.build_wavelike(SG_F, SG_G, ch, spec), spec


def reference_point(lam=1.0):
    return ex.Point(
        {"x": 0.0, "y": 0.0, "u": math.pi / 2, "v": 0.0, "p": 0.3, "q": 0.7},
        {"lam": lam},
    )


class TestBuildWavelike:
    def test_sine_gordon_right_sides(self):
        bt, spec = sg_bt()
        u = ex.Var("u")
        v = ex.Var("v")
        assert ex.equiv_random(bt.f, ex.sin(u), spec)
        assert ex.equiv_random(bt.g, ex.sin(v), spec)

    def test_sine_gordon_corrections(self):
        bt, spec = sg_bt()
        lam = ex.Param("lam")
        u = ex.Var("u")
        v = ex.Var("v")
        c2_expected = ex.mul(lam, ex.cos(ex.div(ex.add(u, v), ex.Const(2))))
        c4_expected = ex.neg(
            ex.mul(ex.div(ex.ONE, lam), ex.cos(ex.div(ex.sub(u, v), ex.Const(2))))
        )
        assert bt.report.c2_sign == 1
        assert bt.report.c4_sign == 1
        assert ex.equiv_random(bt.report.c2, c2_expected, spec)
        assert ex.equiv_random(bt.report.c4, c4_expected, spec)

    def test_sine_gordon_report(self):
        bt, _ = sg_bt()
        r = bt.report
        assert r.adapted_residual < 1e-9
        assert r.df_residual.max_violation < 1e-9
        assert r.dg_residual.max_violation < 1e-9
        assert r.conditions_hold
        assert r.fp_margin > 0.5
        assert r.delta_margin > 0.5

    def test_coupled_data_builds_but_fails_conditions(self):
        # F = p + uv, G = -q + uv defines a coframe yet the mixed
        # derivative conditions on (f, g) are violated
        ch = sg_chart()
        spec = ch.sample_spec(count=24)
        bt = bk.build_wavelike("p + u*v", "-q + u*v", ch, spec)
        assert not bt.report.conditions_hold
        assert bt.report.df_residual.max_violation > 1e-2
        assert bt.report.dg_residual.max_violation > 1e-2

    def test_rejects_f_depending_on_q(self):
        ch = sg_chart()
        with pytest.raises(bk.WavelikeBuildError):
            bk.build_wavelike("p + q", "-q", ch, ch.sample_spec(count=8))

    def test_rejects_vanishing_fp(self):
        ch = sg_chart()
        with pytest.raises(bk.WavelikeBuildError):
            bk.build_wavelike("u", "-q", ch, ch.sample_spec(count=8))

    def test_rejects_vanishing_delta(self):
        # F_p * G_q = 1 everywhere, so 1 - F_p G_q degenerates
        ch = sg_chart()
        with pytest.raises(bk.WavelikeBuildError):
            bk.build_wavelike("p", "q", ch, ch.sample_spec(count=8))

    def test_generators_shape(self):
        bt, _ = sg_bt()
        gens = bt.generators()
        assert len(gens) == 4
        assert [g.degree for g in gens] == [1, 1, 2, 2]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_margin_reads_zero(self):
        # inf - inf = nan where both exponentials overflow; min() alone
        # skips a nan that follows the first sample
        ch = bk.b_chart()
        spec = ch.sample_spec(count=64, seed=0)
        e = ch.parse("2 + exp(1000*u) - exp(1000*x)")
        values = [v for _, v in ex.sampled_collect(spec, lambda pt: ex.evaluate(e, pt.env()))]
        assert any(math.isnan(v) for v in values[1:])
        assert bk._sampled_min(e, spec) == 0.0

    def test_redrawn_fit_sample_leaves_nothing_behind(self, monkeypatch):
        # the correction candidate is evaluated after the fit's solve; a
        # DomainError there redraws the sample, whose residual and ratio
        # must not stay behind
        ch = sg_chart()
        F = ch.parse("2*p + 2*lam*sin((u + v)/2)")
        candidate = ex.div(ex.differentiate(F, "v"), ex.differentiate(F, "p"))
        evaluate = ex.evaluate
        raised = []

        def flaky(e, env, guard=None):
            if e == candidate and not raised:
                raised.append(e)
                raise ex.DomainError("injected")
            return evaluate(e, env, guard)

        monkeypatch.setattr(ex, "evaluate", flaky)
        bt = bk.build_wavelike(F, SG_G, ch, ch.sample_spec(count=24))
        assert raised
        assert bt.report.c2_sign == 1


def explicit_sg_section(ch):
    """The adapted section written out in closed form."""
    lam = ex.Param("lam")
    u = ex.Var("u")
    v = ex.Var("v")
    p = ex.Var("p")
    q = ex.Var("q")
    dx, dy, du, dv, dp, dq = (fm.d_coord(ch, c) for c in ch.coords)
    F = p + 2 * lam * ex.sin((u + v) / 2)
    G = -q + (2 / lam) * ex.sin((u - v) / 2)
    theta = du - F * dx - q * dy
    theta_bar = dv - p * dx - G * dy
    w2 = dp - ex.sin(v) * dy + (lam * ex.cos((u + v) / 2)) * theta_bar
    w4 = dq - ex.sin(u) * dx - ((1 / lam) * ex.cos((u - v) / 2)) * theta
    return bk.CoframeSection(ch, theta, theta_bar, dx, w2, dy, w4)


class TestValidateSection:
    def test_built_section_passes(self):
        bt, spec = sg_bt()
        report = bk.validate_section(bt.section, spec)
        assert report.ok
        assert max(report.zero_slot_max.values()) < 1e-9
        assert max(report.normalization_max.values()) - 1.0 < 1e-9

    def test_explicit_section_passes(self):
        ch = sg_chart()
        sec = explicit_sg_section(ch)
        assert bk.validate_section(sec, ch.sample_spec(count=24)).ok

    def test_missing_correction_is_structural(self):
        ch = sg_chart()
        sec = explicit_sg_section(ch)
        v = ex.Var("v")
        dy = fm.d_coord(ch, "y")
        dp = fm.d_coord(ch, "p")
        broken = bk.CoframeSection(
            ch, sec.theta, sec.theta_bar, sec.w1, dp - ex.sin(v) * dy, sec.w3, sec.w4
        )
        with pytest.raises(bk.StructuralZeroError) as info:
            bk.validate_section(broken, ch.sample_spec(count=24))
        report = info.value.report
        assert report.zero_slot_max[("theta", (1, 2))] > 0.1
        assert report.zero_slot_max[("w2", (1, 4))] > 0.1

    def test_coordinate_coframe_fails_normalization(self):
        ch = sg_chart()
        dx, dy, du, dv, dp, dq = (fm.d_coord(ch, c) for c in ch.coords)
        sec = bk.CoframeSection(ch, dx, dy, du, dv, dp, dq)
        with pytest.raises(bk.NormalizationError):
            bk.validate_section(sec, ch.sample_spec(count=16))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_slot_fails(self):
        # c = atan(E) - atan(2*E/2) reads exactly 0, but its u-derivative
        # reads inf/inf = nan where E = exp(exp(10u)) overflows (u > 0.66)
        ch = sg_chart()
        sec = explicit_sg_section(ch)
        E = ex.exp(ex.exp(10 * ex.Var("u")))
        c = ex.atan(E) - ex.atan(2 * E / 2)
        broken = bk.CoframeSection(
            ch, sec.theta, sec.theta_bar, sec.w1 + c * fm.d_coord(ch, "y"),
            sec.w2, sec.w3, sec.w4,
        )
        with pytest.raises(bk.StructuralZeroError) as info:
            bk.validate_section(broken, ch.sample_spec(count=16))
        report = info.value.report
        assert report.structural_violation == math.inf
        assert report.witness.coords["u"] > 0.65


def slot_columns(table):
    """label -> 15-vector from one slot table, given either as a mapping by
    label or as a (15, 6) array with one column per label."""
    if isinstance(table, np.ndarray):
        return dict(zip(bk.SECTION_LABELS, table.T))
    return table


def per_slot_reduction(section, points, guard):
    """validate_section's reduction over the slot tables at `points`, one
    slot at a time: (zero_slot_max, normalization_max, structural and
    normalization violations, witness)."""
    derivatives = section.derivatives()
    pairs = fm.basis_tuples(6, 2)
    zero_max = {(lbl, slot): 0.0 for lbl in bk.SECTION_LABELS for slot in bk.ZERO_SLOTS[lbl]}
    norm_max = {lbl: 0.0 for lbl in bk.NORMALIZATION_SLOTS}
    worst, witness = 0.0, None
    for pt in points:
        table = slot_columns(bk._slot_table_at(section, derivatives, pt, guard))
        local = 0.0
        for lbl in bk.SECTION_LABELS:
            row = table[lbl]
            scale = 1.0 + float(np.max(np.abs(row)))
            for slot in bk.ZERO_SLOTS[lbl]:
                v = ex.finite_or_inf(abs(float(row[pairs.index(slot)])) / scale)
                zero_max[lbl, slot] = max(zero_max[lbl, slot], v)
                local = max(local, v)
        for lbl, slot in bk.NORMALIZATION_SLOTS.items():
            v = ex.finite_or_inf(abs(float(table[lbl][pairs.index(slot)]) - 1.0))
            norm_max[lbl] = max(norm_max[lbl], v)
            local = max(local, v)
        if local > worst or witness is None:
            worst, witness = local, pt
    return zero_max, norm_max, max(zero_max.values()), max(norm_max.values()), witness


def missing_correction_section(ch):
    sec = explicit_sg_section(ch)
    dp_bare = fm.d_coord(ch, "p") - ex.sin(ex.Var("v")) * fm.d_coord(ch, "y")
    return bk.CoframeSection(ch, sec.theta, sec.theta_bar, sec.w1, dp_bare, sec.w3, sec.w4)


def redrawing_section(ch):
    sec = explicit_sg_section(ch)
    x = ex.Var("x")
    return bk.CoframeSection(ch, sec.theta, sec.theta_bar, (x / x) * sec.w1, sec.w2, sec.w3, sec.w4)


def nonfinite_section(ch):
    sec = explicit_sg_section(ch)
    E = ex.exp(ex.exp(10 * ex.Var("u")))
    c = ex.atan(E) - ex.atan(2 * E / 2)
    return bk.CoframeSection(
        ch, sec.theta, sec.theta_bar, sec.w1 + c * fm.d_coord(ch, "y"), sec.w2, sec.w3, sec.w4
    )


class TestSlotReductionOracle:
    """The report of validate_section against the per-slot reduction,
    recomputed from _slot_table_at at the validated points."""

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize(
        "build, spec_args",
        [
            (missing_correction_section, {"count": 24}),
            (redrawing_section, {"count": 16, "guard": 0.5}),
            (nonfinite_section, {"count": 16}),
        ],
        ids=["missing_correction", "redrawing_guard", "nonfinite"],
    )
    def test_report_matches_per_slot_loop(self, build, spec_args):
        ch = sg_chart()
        section, spec = build(ch), ch.sample_spec(**spec_args)
        try:
            report = bk.validate_section(section, spec)
        except bk.SectionValidationError as err:
            report = err.report
        zero_max, norm_max, structural, normalization, witness = per_slot_reduction(
            section, report.torsion.points, spec.guard
        )
        assert report.zero_slot_max == zero_max
        assert list(report.zero_slot_max) == list(zero_max)
        assert report.normalization_max == norm_max
        assert report.structural_violation == structural
        assert report.normalization_violation == normalization
        assert report.witness is witness


class TestTorsion:
    def test_reference_point_table(self):
        bt, _ = sg_bt()
        torsion = bk.extract_torsion(bt.section, points=[reference_point()])
        row = torsion.at(0)
        # at u = pi/2, v = 0, lam = 1: sin(pi/4) = cos(pi/4) = sqrt(2)/2
        expected = {
            "A1": 1.0,
            "A2": -1.0,
            "B1": 0.0,
            "B2": -ROOT2 / 4,
            "B3": 0.0,
            "B4": ROOT2 / 4,
            "C1": 0.0,
            "C2": -ROOT2 / 2,
            "C3": 0.0,
            "C4": -ROOT2 / 2,
        }
        for name, value in expected.items():
            got = row[name]
            assert got == pytest.approx(value, rel=1e-9, abs=1e-9), name

    def test_explicit_section_matches_built(self):
        ch = sg_chart()
        bt, _ = sg_bt()
        pts = [reference_point()]
        built = bk.extract_torsion(bt.section, points=pts).at(0)
        explicit = bk.extract_torsion(explicit_sg_section(ch), points=pts).at(0)
        for name in built:
            assert built[name] == pytest.approx(explicit[name], abs=1e-9)

    def test_lambda_scaling(self):
        # B2 scales linearly in lam, B4 and C4 inversely
        for lam in (0.5, 2.0):
            bt, _ = sg_bt(lam=lam)
            row = bk.extract_torsion(bt.section, points=[reference_point(lam)]).at(0)
            assert row["B2"] == pytest.approx(-0.5 * lam * math.sin(math.pi / 4), rel=1e-9)
            assert row["B4"] == pytest.approx(math.sin(math.pi / 4) / (2 * lam), rel=1e-9)
            assert row["C2"] == pytest.approx(-lam * math.cos(math.pi / 4), rel=1e-9)
            assert row["C4"] == pytest.approx(-math.cos(math.pi / 4) / lam, rel=1e-9)

    def test_sampled_torsion_read_at_validated_points(self, monkeypatch):
        # w1 = (x/x) dx trips a guard of 0.5 near x = 0, so validation
        # redraws some samples; the torsion must sit at the redrawn points
        ch = sg_chart()
        sec = explicit_sg_section(ch)
        x = ex.Var("x")
        guarded = bk.CoframeSection(
            ch, sec.theta, sec.theta_bar, (x / x) * sec.w1, sec.w2, sec.w3, sec.w4
        )
        attempts, validated = [], []
        table_at = bk._slot_table_at

        def recording(section, derivatives, pt, guard):
            attempts.append(pt)
            table = table_at(section, derivatives, pt, guard)
            validated.append(pt)
            return table

        monkeypatch.setattr(bk, "_slot_table_at", recording)
        torsion = bk.extract_torsion(guarded, spec=ch.sample_spec(count=16, guard=0.5))
        assert len(attempts) > 16
        assert list(torsion.points) == validated

    def test_given_points_read_under_the_spec_guard(self):
        # at x = 0.1 the denominator of (x/x) w1 sits inside a guard of 0.5
        ch = sg_chart()
        sec = explicit_sg_section(ch)
        x = ex.Var("x")
        guarded = bk.CoframeSection(
            ch, sec.theta, sec.theta_bar, (x / x) * sec.w1, sec.w2, sec.w3, sec.w4
        )
        pt = ex.Point({**reference_point().coords, "x": 0.1}, {"lam": 1.0})
        with pytest.raises(ex.DomainError):
            bk.extract_torsion(guarded, points=[pt], spec=ch.sample_spec(guard=0.5))

    def test_sampled_invariants(self):
        bt, spec = sg_bt(count=32)
        torsion = bk.extract_torsion(bt.section, spec=spec)
        assert len(torsion.points) == 32
        for i in range(len(torsion.points)):
            row = torsion.at(i)
            assert row["A1"] == pytest.approx(1.0, abs=1e-9)
            assert row["A2"] == pytest.approx(-1.0, abs=1e-9)
            for name in ("B1", "B3", "C1", "C3"):
                assert abs(row[name]) < 1e-9
        assert torsion.product() == pytest.approx(-1.0, abs=1e-9)

    def test_symbolic_invariants(self):
        bt, spec = sg_bt()
        exprs = bt.torsion_exprs()
        assert ex.equiv_random(exprs["A1"], ex.ONE, spec)
        assert ex.equiv_random(exprs["A2"], ex.neg(ex.ONE), spec)

    def test_normality(self):
        bt, spec = sg_bt()
        torsion = bk.extract_torsion(bt.section, spec=spec)
        assert bk.check_normal(torsion)
        margins = bk.normal_margins(torsion)
        assert margins["A1"] == pytest.approx(1.0, abs=1e-9)
        assert margins["A2"] == pytest.approx(1.0, abs=1e-9)
        assert margins["A1A2_minus_1"] == pytest.approx(2.0, abs=1e-9)

    def test_normality_rejects_unit_product(self):
        import numpy as np

        n = 4
        values = {name: np.ones(n) for name in bk.TORSION_NAMES}
        torsion = bk.TorsionInvariants(values, points=[reference_point()] * n)
        assert not bk.check_normal(torsion)

    def test_normality_rejects_degenerate_a1(self):
        import numpy as np

        n = 4
        values = {name: np.ones(n) for name in bk.TORSION_NAMES}
        values["A1"] = np.zeros(n)
        values["A2"] = -np.ones(n)
        torsion = bk.TorsionInvariants(values, points=[reference_point()] * n)
        assert not bk.check_normal(torsion)


def raw_sg_system(ch, half_angle=True):
    """Raw pullback data for the sine-Gordon extension.

    With half_angle=False the first relation uses sin(u + v) instead of
    sin((u + v)/2), which destroys the extension property.
    """
    lam = ex.Param("lam")
    u = ex.Var("u")
    v = ex.Var("v")
    p = ex.Var("p")
    q = ex.Var("q")
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

    omega1 = fm.wedge(differential(F) - ex.sin(u) * dy, dx)
    omega2 = fm.wedge(dq - ex.sin(u) * dx, dy)
    omega1_bar = fm.wedge(dp - ex.sin(v) * dy, dx)
    omega2_bar = fm.wedge(differential(G) - ex.sin(v) * dx, dy)
    return bk.RawExtensionSystem(
        ch, theta, theta_bar, omega1, omega2, omega1_bar, omega2_bar
    )


class TestIntegrableExtension:
    def test_built_bt_is_extension(self):
        bt, spec = sg_bt()
        assert bk.check_integrable_extension(bt, spec)

    def test_raw_sine_gordon_is_extension(self):
        ch = sg_chart()
        spec = ch.sample_spec(count=24)
        assert bk.check_integrable_extension(raw_sg_system(ch), spec)

    def test_full_angle_corruption_fails(self):
        ch = sg_chart()
        spec = ch.sample_spec(count=24)
        checks = bk.integrable_extension_checks(raw_sg_system(ch, half_angle=False), spec)
        assert not checks["dtheta"].ok
        assert not checks["dtheta_bar"].ok
        assert checks["dtheta"].max_violation > 1e-2
        assert checks["dtheta_bar"].max_violation > 1e-2
        assert checks["dtheta"].witness is not None

    def test_closed_pair_is_extension(self):
        # d(du) = 0 lies in any ideal
        ch = sg_chart()
        spec = ch.sample_spec(count=8)
        dx, dy, du, dv, dp, dq = (fm.d_coord(ch, c) for c in ch.coords)
        sys = bk.RawExtensionSystem(
            ch, du, dv,
            fm.wedge(dp, dx), fm.wedge(dq, dy),
            fm.wedge(dp, dx), fm.wedge(dq, dy),
        )
        assert bk.check_integrable_extension(sys, spec)


class TestClassifiers:
    def test_wavelike_true_for_coordinate_pair(self):
        bt, spec = sg_bt()
        ch = bt.chart
        dx = fm.d_coord(ch, "x")
        dy = fm.d_coord(ch, "y")
        assert bk.check_wavelike(bt.section, dx, dy, spec)

    def test_wavelike_false_for_non_integrable_choice(self):
        bt, spec = sg_bt()
        dy = fm.d_coord(bt.chart, "y")
        assert not bk.check_wavelike(bt.section, bt.section.w2, dy, spec)

    def test_wavelike_requires_subbundle_membership(self):
        bt, spec = sg_bt()
        ch = bt.chart
        candidate = fm.d_coord(ch, "x") + fm.d_coord(ch, "u")
        with pytest.raises(bk.SubbundleError):
            bk.check_wavelike(bt.section, candidate, fm.d_coord(ch, "y"), spec)

    def test_quasilinear_true_for_sine_gordon(self):
        bt, spec = sg_bt()
        assert bk.check_quasilinear(bt, spec)

    def test_quasilinear_true_for_variable_coefficients(self):
        ch = bk.b_chart(box={"v": (0.6, 1.4)})
        spec = ch.sample_spec(count=24)
        bt = bk.build_wavelike("v*p + u", "-q/v", ch, spec)
        assert bk.check_quasilinear(bt, spec)
        assert ex.equiv_random(ex.mul(bt.fp, bt.gq), ex.neg(ex.ONE), spec)

    def test_quasilinear_false_for_quadratic_momentum(self):
        ch = bk.b_chart(box={"p": (1.0, 2.0)})
        spec = ch.sample_spec(count=24)
        bt = bk.build_wavelike("p^2 + u", "-q", ch, spec)
        assert not bk.check_quasilinear(bt, spec)

    def test_translation_symmetries(self):
        bt, spec = sg_bt()
        ch = bt.chart
        assert bk.check_symmetry(bt.generators(), fm.VectorField.coordinate(ch, "x"), spec)
        assert bk.check_symmetry(bt.generators(), fm.VectorField.coordinate(ch, "y"), spec)
        assert not bk.check_symmetry(bt.generators(), fm.VectorField.coordinate(ch, "u"), spec)

    def test_zero_field_is_symmetry(self):
        bt, spec = sg_bt()
        zero = fm.VectorField(bt.chart, tuple([ex.ZERO] * 6))
        assert bk.check_symmetry(bt.generators(), zero, spec)

    def test_autonomous(self):
        bt, spec = sg_bt()
        ch = bt.chart
        X = fm.VectorField.coordinate(ch, "x")
        Y = fm.VectorField.coordinate(ch, "y")
        assert bk.check_autonomous(bt, X, Y, spec)

    def test_autonomous_needs_independent_pairing(self):
        bt, spec = sg_bt()
        X = fm.VectorField.coordinate(bt.chart, "x")
        assert not bk.check_autonomous(bt, X, X, spec)

    def test_x_dependent_data_not_autonomous(self):
        ch = sg_chart()
        spec = ch.sample_spec(count=24)
        bt = bk.build_wavelike("p + sin(x + (u+v)/2)", "-q + sin((u-v)/2)", ch, spec)
        X = fm.VectorField.coordinate(ch, "x")
        Y = fm.VectorField.coordinate(ch, "y")
        assert not bk.check_symmetry(bt.generators(), X, spec)
        assert not bk.check_autonomous(bt, X, Y, spec)


class TestQuasilinearFG:
    def test_sine_gordon_data(self):
        ch = sg_chart()
        spec = ch.sample_spec(count=24)
        result = bk.quasilinear_fg(
            "2*lam*sin((u+v)/2)", "1", "(2/lam)*sin((u-v)/2)", "-1", ch, spec
        )
        assert ex.equiv_random(result.f, ex.sin(ex.Var("u")), spec)
        assert ex.equiv_random(result.g, ex.sin(ex.Var("v")), spec)
        assert result.pq_vanishes
        assert result.coefficients[("f", "pq")] == ex.ZERO
        assert result.coefficients[("g", "pq")] == ex.ZERO

    def test_constant_data_gives_zero(self):
        ch = sg_chart()
        spec = ch.sample_spec(count=8)
        result = bk.quasilinear_fg(0, 2, 0, 3, ch, spec)
        assert result.f == ex.ZERO
        assert result.g == ex.ZERO
        assert result.pq_vanishes

    def test_state_dependent_slope_brings_pq_terms(self):
        ch = sg_chart()
        spec = ch.sample_spec(count=16)
        result = bk.quasilinear_fg(0, "1+u*v", 0, "v", ch, spec)
        assert not result.pq_vanishes
        assert result.coefficients[("f", "pq")] != ex.ZERO

    def test_agrees_with_wavelike_builder(self):
        bt, spec = sg_bt()
        result = bk.quasilinear_fg(
            "2*lam*sin((u+v)/2)", "1", "(2/lam)*sin((u-v)/2)", "-1", bt.chart, spec
        )
        assert ex.equiv_random(result.f, bt.f, spec)
        assert ex.equiv_random(result.g, bt.g, spec)

    def test_rejects_momentum_dependence(self):
        ch = sg_chart()
        with pytest.raises(bk.WavelikeBuildError):
            bk.quasilinear_fg("p", "1", "0", "-1", ch, ch.sample_spec(count=8))

    def test_rejects_degenerate_delta(self):
        ch = sg_chart()
        with pytest.raises(bk.WavelikeBuildError):
            bk.quasilinear_fg("0", "1", "0", "1", ch, ch.sample_spec(count=8))


class TestNormalizeFirstOrder:
    def test_constant_coefficient(self):
        result = bk.normalize_first_order(bk.QuasilinearPDE(ex.ONE))
        u = ex.Var("u")
        assert result.phi_u == ex.exp(ex.neg(u))
        assert result.residual.ok
        spec = result.residual.samples
        assert spec > 0

    def test_zero_coefficient(self):
        result = bk.normalize_first_order(bk.QuasilinearPDE(ex.ZERO))
        assert result.phi_u == ex.ONE
        assert result.residual.ok

    def test_base_dependent_coefficient(self):
        a = ex.add(ex.Var("x"), ex.Var("y"))
        result = bk.normalize_first_order(bk.QuasilinearPDE(a))
        assert result.residual.ok
        assert "A_tilde" in result.description

    def test_a_tilde_vanishes_after_normalization(self):
        chart = bk.b_chart()
        spec = chart.sample_spec(count=16)
        for coeff in (ex.ONE, ex.Var("u"), ex.add(ex.Var("x"), ex.Var("y"))):
            result = bk.normalize_first_order(bk.QuasilinearPDE(coeff))
            assert ex.equiv_random(result.a_tilde, ex.ZERO, spec)

    def test_unsupported_coefficient(self):
        with pytest.raises(bk.AntiderivativeError):
            bk.normalize_first_order(bk.QuasilinearPDE(ex.exp(ex.Var("u"))))


class TestUAntiderivative:
    def test_vocabulary(self):
        u = ex.Var("u")
        x = ex.Var("x")
        spec = bk.b_chart().sample_spec(count=16)
        cases = [
            (ex.Const(3), ex.mul(ex.Const(3), u)),
            (u, ex.div(ex.pow_int(u, 2), ex.Const(2))),
            (ex.pow_int(u, 2), ex.div(ex.pow_int(u, 3), ex.Const(3))),
            (ex.mul(x, u), None),  # value checked numerically below
        ]
        for src, expected in cases:
            got = bk.u_antiderivative(src)
            if expected is not None:
                assert ex.equiv_random(got, expected, spec)
            assert ex.equiv_random(ex.differentiate(got, "u"), src, spec)

    def test_rejects_transcendental_dependence(self):
        with pytest.raises(bk.AntiderivativeError):
            bk.u_antiderivative(ex.sin(ex.Var("u")))
