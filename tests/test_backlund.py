"""Tests for adapted coframe sections, torsion extraction, and the
wavelike builder on the six-dimensional correspondence space.

Expected numeric values were frozen from an independent symbolic
computation (sympy) of the structure equations; see the companion
module tests for the underlying calculus oracles.
"""

import math
import sys

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
        # w2 = dp - g dy + c2 theta_bar and w4 = dq - f dx + c4 theta: c2 is
        # w2's dv coefficient, c4 w4's du coefficient
        assert ex.equiv_random(bt.section.w2.coeffs[(3,)], c2_expected, spec)
        assert ex.equiv_random(bt.section.w4.coeffs[(2,)], c4_expected, spec)

    def test_sine_gordon_report(self):
        bt, spec = sg_bt()
        checks = bk.closure_checks(bt, spec)
        assert checks["dropF"].max_violation < 1e-9
        assert checks["dropG"].max_violation < 1e-9
        assert all(r.ok for r in checks.values())
        for margin in (bt.fp, ex.sub(ex.ONE, ex.mul(bt.fp, bt.gq))):
            least, nonfinite = bk._sampled_min(margin, spec)
            assert least > 0.5 and nonfinite is None

    def test_coupled_data_builds_but_fails_conditions(self):
        # F = p + uv, G = -q + uv defines a coframe yet the mixed
        # derivative conditions on (f, g) are violated
        ch = sg_chart()
        spec = ch.sample_spec(count=24)
        bt = bk.build_wavelike("p + u*v", "-q + u*v", ch, spec)
        checks = bk.closure_checks(bt, spec)
        assert not any(r.ok for r in checks.values())
        assert checks["dropF"].max_violation > 1e-2
        assert checks["dropG"].max_violation > 1e-2

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
        samples = ex.sampled_collect(spec, lambda pt: ex.evaluate(e, pt.env()))
        assert any(math.isnan(v) for _, v in samples[1:])
        first = next(pt for pt, v in samples if not math.isfinite(v))
        assert bk._sampled_min(e, spec) == (0.0, first)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_margin_names_its_point(self):
        # F_p = 2 + exp(1000*u) is at least 2, and inf where exp overflows
        ch = bk.b_chart()
        spec = ch.sample_spec(count=16)
        overflow = math.log(sys.float_info.max) / 1000
        first = next(pt for pt, u in ex.sampled_collect(spec, lambda pt: pt.coords["u"])
                     if u > overflow)
        with pytest.raises(bk.WavelikeBuildError) as err:
            bk.build_wavelike("p*(2 + exp(1000*u))", "-q", ch, spec)
        assert str(err.value) == f"F_p is not finite on the box at {first.flat()}"

    @pytest.mark.parametrize("F, G", [
        (SG_F, SG_G), ("v*p + u", "-q/v"), ("atan(p)", "-q"), ("p + u*v", "-q + u*v"),
        ("p", "-q + v^2"),
    ])
    def test_corrections_zero_their_slots(self, F, G):
        # the theta_bar^w1 slot of d theta reads F_p c2 - F_v and the
        # theta^w3 slot of d theta_bar reads G_q c4 - G_u, whether or not
        # (f, g) pass the drop conditions
        ch = bk.b_chart(box={"v": (0.5, 1.5)}, params={"lam": 1.0})
        spec = ch.sample_spec(count=24)
        section = bk.build_wavelike(F, G, ch, spec).section
        derivatives = section.derivatives()
        slots = bk._slot_index([("theta", (1, 2)), ("theta_bar", (0, 4))])
        for _, table in ex.sampled_collect(
            spec, lambda pt: bk._slot_table_at(section, derivatives, pt, spec.guard)
        ):
            assert np.max(np.abs(table[tuple(slots)])) <= 1e-12


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
        assert ex.equiv_random(bt.fp, ex.ONE, spec)
        assert ex.equiv_random(bt.gq, ex.neg(ex.ONE), spec)

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
    return theta, theta_bar, (omega1, omega2), (omega1_bar, omega2_bar)


class TestIntegrableExtension:
    def test_built_bt_is_extension(self):
        bt, spec = sg_bt()
        theta, theta_bar, *omegas = bt.generators()
        assert bk.check_integrable_extension(theta, theta_bar, omegas, omegas, spec)

    def test_raw_sine_gordon_is_extension(self):
        ch = sg_chart()
        spec = ch.sample_spec(count=24)
        assert bk.check_integrable_extension(*raw_sg_system(ch), spec)

    def test_full_angle_corruption_fails(self):
        ch = sg_chart()
        spec = ch.sample_spec(count=24)
        checks = bk.integrable_extension_checks(*raw_sg_system(ch, half_angle=False), spec)
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
        pair = (fm.wedge(dp, dx), fm.wedge(dq, dy))
        assert bk.check_integrable_extension(du, dv, pair, pair, spec)


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


def expansion_2x2(F0, F1, G0, G1, chart):
    """The (f, g) of affine data F = F0 + F1 p, G = G0 + G1 q, expanded by
    hand as the 2x2 inverse times the 2x4 derivative matrix times
    (1, p, q, pq): (f, g, coefficients keyed like QuasilinearFG's)."""
    F0, F1, G0, G1 = (ex.as_expr(e, chart.coords, chart.params) for e in (F0, F1, G0, G1))
    delta = ex.sub(ex.ONE, ex.mul(F1, G1))
    d = ex.differentiate
    row_f = (
        ex.add(d(F0, "y"), ex.mul(G0, d(F0, "v"))),
        ex.add(d(F1, "y"), ex.mul(G0, d(F1, "v"))),
        ex.add(d(F0, "u"), ex.mul(G1, d(F0, "v"))),
        ex.add(d(F1, "u"), ex.mul(G1, d(F1, "v"))),
    )
    row_g = (
        ex.add(d(G0, "x"), ex.mul(F0, d(G0, "u"))),
        ex.add(d(G0, "v"), ex.mul(F1, d(G0, "u"))),
        ex.add(d(G1, "x"), ex.mul(F0, d(G1, "u"))),
        ex.add(d(G1, "v"), ex.mul(F1, d(G1, "u"))),
    )
    terms = {
        "f": [ex.div(ex.add(a, ex.mul(F1, b)), delta) for a, b in zip(row_f, row_g)],
        "g": [ex.div(ex.add(ex.mul(G1, a), b), delta) for a, b in zip(row_f, row_g)],
    }
    p, q = ex.Var("p"), ex.Var("q")
    monomials = (ex.ONE, p, q, ex.mul(p, q))
    f, g = (sum((c * m for c, m in zip(terms[name], monomials)), ex.ZERO) for name in "fg")
    coefficients = {(name, mono): terms[name][i]
                    for name in "fg" for i, mono in enumerate(("p", "q", "pq"), 1)}
    return f, g, coefficients


AFFINE_DATA = {
    "sine-Gordon": ("2*lam*sin((u+v)/2)", "1", "(2/lam)*sin((u-v)/2)", "-1"),
    "slope": ("0", "1+u*v", "0", "v"),
}


class TestQuasilinearFG:
    @pytest.mark.parametrize("data", sorted(AFFINE_DATA))
    def test_matches_the_2x2_expansion(self, data):
        ch = sg_chart()
        spec = ch.sample_spec(count=24)
        result = bk.quasilinear_fg(*AFFINE_DATA[data], ch, spec)
        f, g, coefficients = expansion_2x2(*AFFINE_DATA[data], ch)
        assert ex.equiv_random(result.f, f, spec)
        assert ex.equiv_random(result.g, g, spec)
        assert sorted(result.coefficients) == sorted(coefficients)
        for key, expected in coefficients.items():
            assert ex.equiv_random(result.coefficients[key], expected, spec), key

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

    def test_pq_coefficient_keeps_its_denominator(self):
        # differentiating (f, g) in p and q leaves 1 - F1 G1 unsquared
        ch = sg_chart()
        result = bk.quasilinear_fg(0, "1+u*v", 0, "v", ch, ch.sample_spec(count=16))
        parse = ch.parse
        assert result.coefficients["f", "pq"] is parse("(v+v*u+(1+u*v))/(1-(1+u*v)*v)")
        assert result.coefficients["g", "pq"] is parse("(1+v*(v+v*u))/(1-(1+u*v)*v)")

    def test_agrees_with_wavelike_builder(self):
        # the pair is the builder's own, not a second derivation of it
        ch = sg_chart()
        spec = ch.sample_spec(count=16)
        p, q = ex.Var("p"), ex.Var("q")
        for F0, F1, G0, G1 in AFFINE_DATA.values():
            result = bk.quasilinear_fg(F0, F1, G0, G1, ch, spec)
            F0, F1, G0, G1 = (ex.parse(e, ch.coords, ch.params) for e in (F0, F1, G0, G1))
            bt = bk.build_wavelike(F0 + F1 * p, G0 + G1 * q, ch, spec)
            assert result.f is bt.f
            assert result.g is bt.g

    def test_rejects_momentum_dependence(self):
        ch = sg_chart()
        with pytest.raises(bk.WavelikeBuildError):
            bk.quasilinear_fg("p", "1", "0", "-1", ch, ch.sample_spec(count=8))

    def test_rejects_degenerate_delta(self):
        ch = sg_chart()
        with pytest.raises(bk.WavelikeBuildError, match="1 - F_p G_q vanishes"):
            bk.quasilinear_fg("0", "1", "0", "1", ch, ch.sample_spec(count=8))
        with pytest.raises(bk.WavelikeBuildError, match="F_p vanishes"):
            bk.quasilinear_fg("0", "0", "0", "1", ch, ch.sample_spec(count=8))


class TestNormalizeFirstOrder:
    def test_constant_coefficient(self):
        result = bk.normalize_first_order(ex.ONE)
        u = ex.Var("u")
        assert result.phi_u == ex.exp(ex.neg(u))
        assert result.residual.ok
        spec = result.residual.samples
        assert spec > 0

    def test_zero_coefficient(self):
        result = bk.normalize_first_order(ex.ZERO)
        assert result.phi_u == ex.ONE
        assert result.residual.ok

    def test_base_dependent_coefficient(self):
        a = ex.add(ex.Var("x"), ex.Var("y"))
        result = bk.normalize_first_order(a)
        assert result.residual.ok
        assert "A_tilde" in result.description

    def test_a_tilde_vanishes_after_normalization(self):
        chart = bk.b_chart()
        spec = chart.sample_spec(count=16)
        for coeff in (ex.ONE, ex.Var("u"), ex.add(ex.Var("x"), ex.Var("y"))):
            result = bk.normalize_first_order(coeff)
            assert ex.equiv_random(result.a_tilde, ex.ZERO, spec)

    def test_unsupported_coefficient(self):
        with pytest.raises(bk.AntiderivativeError):
            bk.normalize_first_order(ex.exp(ex.Var("u")))


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
