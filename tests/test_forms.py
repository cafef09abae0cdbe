"""Exterior algebra tests: wedge, d, contraction, slot extraction, ideals."""

import math
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from edsbt import expr as ex
from edsbt import forms as fm
from edsbt.expr import Point
from edsbt.forms import (
    Chart,
    ChartMismatchError,
    DifferentialForm,
    SingularCoframeError,
    VectorField,
    basis_tuples,
    coefficients_at,
    coframe_matrix_at,
    d_coord,
    expand_in_coframe,
    exterior_derivative,
    ideal_contains,
    interior_product,
    lie_derivative,
    wedge,
)

BOX = (-1.5, 1.5)


def chart5():
    return Chart(("x", "y", "u", "p", "q"), {c: BOX for c in ("x", "y", "u", "p", "q")})


def function_form(ch, f):
    """The 0-form f."""
    return DifferentialForm(ch, 0, {(): f})


def basis_index(ch, degree):
    """Each increasing index tuple of the degree's wedge basis -> its row."""
    return {t: i for i, t in enumerate(basis_tuples(ch.dim, degree))}


def in_coframe(a, coframe, pt):
    """a's coefficients in the wedge basis of `coframe` at pt, as every
    `[bt]` command expands a section: coframe_matrix_at, then
    expand_in_coframe."""
    return expand_in_coframe(coframe_matrix_at(coframe, pt), coefficients_at(a, pt), a.degree)


def sine_gordon_system(ch):
    """Contact form and the two 2-form generators with f = sin u."""
    u, p, q = ex.Var("u"), ex.Var("p"), ex.Var("q")
    dx, dy, du, dp, dq = (d_coord(ch, c) for c in ("x", "y", "u", "p", "q"))
    theta = du - p * dx - q * dy
    omega1 = wedge(dp - ex.sin(u) * dy, dx)
    omega2 = wedge(dq - ex.sin(u) * dx, dy)
    return theta, omega1, omega2


class TestWedge:
    def test_antisymmetry_of_coordinate_differentials(self):
        ch = chart5()
        dx, dy = d_coord(ch, "x"), d_coord(ch, "y")
        assert wedge(dx, dy) == -wedge(dy, dx)

    def test_repeated_factor_vanishes(self):
        ch = chart5()
        dx = d_coord(ch, "x")
        assert wedge(dx, dx).is_zero()

    def test_one_form_squares_to_zero(self):
        ch = chart5()
        theta, _, _ = sine_gordon_system(ch)
        assert wedge(theta, theta).is_zero()

    def test_two_form_generator_expansion(self):
        # (dp - sin u dy) ^ dx  ->  -dx^dp + sin u dx^dy
        ch = chart5()
        u = ex.Var("u")
        dx, dy, dp = d_coord(ch, "x"), d_coord(ch, "y"), d_coord(ch, "p")
        omega1 = wedge(dp - ex.sin(u) * dy, dx)
        ix = basis_index(ch, 2)
        assert omega1.coeffs[ch.index("x"), ch.index("p")] == ex.Const(-1)
        assert omega1.coeffs[ch.index("x"), ch.index("y")] == ex.sin(u)
        assert set(omega1.coeffs) == {(0, 3), (0, 1)}
        assert (0, 3) in ix and (0, 1) in ix

    def test_chart_mismatch_rejected(self):
        other = Chart(("x", "y"), {"x": BOX, "y": BOX})
        with pytest.raises(ChartMismatchError):
            wedge(d_coord(chart5(), "x"), d_coord(other, "y"))

    def test_degree_overflow_rejected(self):
        ch = Chart(("x", "y"), {"x": BOX, "y": BOX})
        top = wedge(d_coord(ch, "x"), d_coord(ch, "y"))
        with pytest.raises(ValueError):
            wedge(top, d_coord(ch, "x"))

    def test_function_factor_scales(self):
        ch = chart5()
        p = ex.Var("p")
        f = function_form(ch, p)
        dx = d_coord(ch, "x")
        assert wedge(f, dx) == p * dx


class TestExteriorDerivative:
    def test_d_of_coordinate_differential_is_zero(self):
        ch = chart5()
        assert exterior_derivative(d_coord(ch, "u")).is_zero()

    def test_leibniz_on_monomial(self):
        # d(u dv) = du ^ dv
        ch = Chart(("u", "v"), {"u": BOX, "v": BOX})
        u = ex.Var("u")
        form = u * d_coord(ch, "v")
        assert exterior_derivative(form).coeffs == {(0, 1): ex.ONE}

    def test_contact_form_derivative_matches_generators(self):
        ch = chart5()
        theta, omega1, omega2 = sine_gordon_system(ch)
        dth = exterior_derivative(theta)
        assert (dth + omega1 + omega2).is_zero()

    def test_top_degree_rejected(self):
        ch = Chart(("x", "y"), {"x": BOX, "y": BOX})
        top = wedge(d_coord(ch, "x"), d_coord(ch, "y"))
        with pytest.raises(ValueError):
            exterior_derivative(top)


class TestInteriorProduct:
    def test_first_slot_contraction(self):
        ch = chart5()
        dxdy = wedge(d_coord(ch, "x"), d_coord(ch, "y"))
        assert interior_product(VectorField.coordinate(ch, "x"), dxdy) == d_coord(ch, "y")

    def test_second_slot_picks_up_sign(self):
        ch = chart5()
        dxdy = wedge(d_coord(ch, "x"), d_coord(ch, "y"))
        assert interior_product(VectorField.coordinate(ch, "y"), dxdy) == -d_coord(ch, "x")

    def test_contact_form_contracts_to_one(self):
        ch = chart5()
        theta, _, _ = sine_gordon_system(ch)
        got = interior_product(VectorField.coordinate(ch, "u"), theta)
        assert got == function_form(ch, ex.ONE)

    def test_degree_zero_rejected(self):
        ch = chart5()
        f = function_form(ch, ex.Var("u"))
        with pytest.raises(ValueError):
            interior_product(VectorField.coordinate(ch, "x"), f)


class TestLieDerivative:
    def test_translation_fixes_constant_form(self):
        ch = chart5()
        X = VectorField.coordinate(ch, "x")
        assert lie_derivative(X, d_coord(ch, "x")).is_zero()

    def test_coefficient_derivative(self):
        ch = chart5()
        X = VectorField.coordinate(ch, "x")
        form = ex.sin(ex.Var("x")) * d_coord(ch, "y")
        assert lie_derivative(X, form) == ex.cos(ex.Var("x")) * d_coord(ch, "y")

    def test_vertical_translation_fixes_contact_form(self):
        ch = chart5()
        theta, _, _ = sine_gordon_system(ch)
        assert lie_derivative(VectorField.coordinate(ch, "u"), theta).is_zero()

    def test_degree_zero_gives_directional_derivative(self):
        ch = chart5()
        f = function_form(ch, ex.pow_int(ex.Var("x"), 2))
        got = lie_derivative(VectorField.coordinate(ch, "x"), f)
        assert got == function_form(ch, 2 * ex.Var("x"))


class TestCoefficientsAt:
    def test_contact_derivative_slots(self):
        # sorted-tuple orientation: dx^dp and dy^dq slots read +1, which is
        # coefficient -1 on dp^dx / dq^dy
        ch = chart5()
        theta, _, _ = sine_gordon_system(ch)
        v = coefficients_at(exterior_derivative(theta), Point({c: 0.3 for c in ch.coords}))
        ix = basis_index(ch, 2)
        expect = np.zeros(len(v))
        expect[ix[0, 3]] = 1.0
        expect[ix[1, 4]] = 1.0
        assert np.array_equal(v, expect)

    def test_generator_at_right_angle(self):
        ch = chart5()
        _, omega1, _ = sine_gordon_system(ch)
        pt = Point({"x": 0.0, "y": 0.0, "u": math.pi / 2, "p": 0.1, "q": 0.2})
        v = coefficients_at(omega1, pt)
        ix = basis_index(ch, 2)
        assert v[ix[0, 1]] == pytest.approx(1.0, abs=1e-15)
        assert v[ix[0, 3]] == -1.0

    def test_zero_form_gives_zero_vector(self):
        ch = chart5()
        v = coefficients_at(DifferentialForm(ch, 2, {}), Point({c: 0.0 for c in ch.coords}))
        assert v.shape == (10,) and not v.any()

    def test_matrix_has_one_column_per_form(self):
        ch = chart5()
        theta, omega1, omega2 = sine_gordon_system(ch)
        forms = [omega1, exterior_derivative(theta), DifferentialForm(ch, 2, {}), omega2]
        pt = Point({"x": 0.2, "y": -0.4, "u": 0.7, "p": 0.1, "q": -1.1})
        M = fm.coefficient_matrix_at(forms, pt)
        ix = basis_index(ch, 2)
        expect = np.zeros((10, len(forms)))
        for j, a in enumerate(forms):
            for t, c in a.coeffs.items():
                expect[ix[t], j] = ex.evaluate(c, pt.env())
        assert np.array_equal(M, expect)
        with pytest.raises(ValueError):
            fm.coefficient_matrix_at([theta, omega1], pt)


class TestCoframeCoefficientsAt:
    def test_coordinate_coframe_is_identity(self):
        ch = chart5()
        _, omega1, _ = sine_gordon_system(ch)
        cof = [d_coord(ch, c) for c in ch.coords]
        pt = Point({"x": 0.2, "y": -0.4, "u": 1.1, "p": 0.5, "q": -0.3})
        assert np.allclose(
            in_coframe(omega1, cof, pt), coefficients_at(omega1, pt), atol=1e-14
        )

    def test_scaled_coframe_divides_coefficient(self):
        ch = chart5()
        cof = [d_coord(ch, c) for c in ch.coords]
        cof[0] = 2 * cof[0]
        dxdy = wedge(d_coord(ch, "x"), d_coord(ch, "y"))
        got = in_coframe(dxdy, cof, Point({c: 0.0 for c in ch.coords}))
        ix = basis_index(ch, 2)
        assert got[ix[0, 1]] == pytest.approx(0.5)
        mask = np.ones(len(got), bool)
        mask[ix[0, 1]] = False
        assert np.allclose(got[mask], 0.0)

    def test_singular_coframe_rejected(self):
        ch = chart5()
        cof = [d_coord(ch, "x")] * 2 + [d_coord(ch, c) for c in ("u", "p", "q")]
        dxdy = wedge(d_coord(ch, "x"), d_coord(ch, "y"))
        with pytest.raises(SingularCoframeError):
            in_coframe(dxdy, cof, Point({c: 0.0 for c in ch.coords}))

    def test_nonfinite_coframe_rejected(self):
        # at x = 1 the first coefficient is inf * 0 = nan; np.linalg.cond
        # would raise LinAlgError on it
        ch = chart5()
        x = ex.Var("x")
        cof = [d_coord(ch, c) for c in ch.coords]
        cof[0] = ex.exp(1000 * x) * ex.exp(-1000 * x) * cof[0]
        dxdy = wedge(d_coord(ch, "x"), d_coord(ch, "y"))
        pt = Point({c: 1.0 for c in ch.coords})
        with np.errstate(all="ignore"), pytest.raises(SingularCoframeError):
            in_coframe(dxdy, cof, pt)

    def test_adapted_coframe_block_structure(self):
        # the contact form's derivative decomposes into the two 2x2 blocks of
        # an adapted coframe, with no cross-block slots
        ch = Chart(
            ("x", "y", "u", "v", "p", "q"),
            {c: BOX for c in ("x", "y", "u", "v", "p", "q")},
            params={"lam": 1.0},
        )
        x, y, u, v, p, q = (ex.Var(c) for c in ch.coords)
        lam = ex.Param("lam")
        dx, dy, du, dv, dp, dq = (d_coord(ch, c) for c in ch.coords)
        F = p + 2 * lam * ex.sin((u + v) / 2)
        G = -q + (2 / lam) * ex.sin((u - v) / 2)
        theta = du - F * dx - q * dy
        thetab = dv - p * dx - G * dy
        w2 = dp - ex.sin(v) * dy + (lam * ex.cos((u + v) / 2)) * thetab
        w4 = dq - ex.sin(u) * dx - ((1 / lam) * ex.cos((u - v) / 2)) * theta
        cof = [theta, thetab, dx, w2, dy, w4]

        rng = random.Random(7)
        ix = basis_index(ch, 2)
        for _ in range(4):
            pt = Point(
                {c: rng.uniform(*BOX) for c in ch.coords}, {"lam": 1.0}
            )
            got = in_coframe(exterior_derivative(theta), cof, pt)
            assert got[ix[2, 3]] == pytest.approx(1.0, abs=1e-10)
            assert got[ix[4, 5]] == pytest.approx(1.0, abs=1e-10)
            for cross in ((2, 4), (2, 5), (3, 4), (3, 5)):
                assert abs(got[ix[cross]]) < 1e-10


class TestSpanResidual:
    def test_residual_relative_to_target(self):
        M = np.array([[1.0], [0.0]])
        sol, resid = fm.span_residual(M, np.array([2.0, 3.0]))
        assert sol == pytest.approx([2.0])
        assert resid == pytest.approx(3.0 / 4.0)

    @pytest.mark.parametrize("where", ["M", "v"])
    def test_nonfinite_input_reads_infinite(self, where):
        M = np.eye(3)
        v = np.array([1.0, 0.5, 0.0])
        (M if where == "M" else v)[1, ...] = math.nan
        sol, resid = fm.span_residual(M, v)
        assert resid == math.inf and np.isnan(sol).all()


class TestIdealContains:
    def test_generator_is_contained(self):
        ch = chart5()
        theta, omega1, omega2 = sine_gordon_system(ch)
        res = ideal_contains(theta, [theta, omega1, omega2], ch.sample_spec(count=32))
        assert res.ok and res.max_violation < 1e-12

    def test_derivative_of_contact_form_is_contained(self):
        ch = chart5()
        theta, omega1, omega2 = sine_gordon_system(ch)
        dth = exterior_derivative(theta)
        res = ideal_contains(dth, [theta, omega1, omega2], ch.sample_spec(count=32))
        assert res.ok

    def test_transverse_form_is_not_contained(self):
        ch = chart5()
        theta, omega1, omega2 = sine_gordon_system(ch)
        dpdq = wedge(d_coord(ch, "p"), d_coord(ch, "q"))
        res = ideal_contains(dpdq, [theta, omega1, omega2], ch.sample_spec(count=32))
        assert not res.ok
        assert res.max_violation > 1e-2
        assert res.witness is not None

    def test_monotone_in_generators(self):
        ch = chart5()
        theta, omega1, omega2 = sine_gordon_system(ch)
        dpdq = wedge(d_coord(ch, "p"), d_coord(ch, "q"))
        spec = ch.sample_spec(count=32)
        assert ideal_contains(dpdq, [theta, omega1, omega2, dpdq], spec).ok
        # and the mere addition of generators never breaks prior membership
        dth = exterior_derivative(theta)
        assert ideal_contains(dth, [theta, omega1, omega2, dpdq], spec).ok

    def test_empty_generators_only_contain_zero(self):
        ch = chart5()
        assert ideal_contains(DifferentialForm(ch, 2, {}), [], ch.sample_spec(count=8)).ok
        dx = d_coord(ch, "x")
        dxdy = wedge(dx, d_coord(ch, "y"))
        assert not ideal_contains(dxdy, [], ch.sample_spec(count=8)).ok


# ---------------------------------------------------------------------------
# property suites

_COORDS5 = ("x", "y", "u", "p", "q")
_COORDS6 = ("x", "y", "u", "v", "p", "q")


def _coeff_pool(coords):
    """Small guard-free coefficient vocabulary over the chart coordinates."""
    vs = [ex.Var(c) for c in coords[:4]]
    pool = [ex.ONE, ex.Const(2), ex.Const(-1)]
    pool += vs
    pool += [ex.sin(v) for v in vs[:2]]
    pool += [ex.cos(v) for v in vs[:2]]
    pool += [ex.mul(vs[0], vs[1]), ex.add(vs[1], ex.Const(1)), ex.pow_int(vs[2], 2)]
    return pool


def _form_strategy(coords, degrees):
    n = len(coords)
    pool = _coeff_pool(coords)

    def build(degree, picks):
        basis = basis_tuples(n, degree)
        coeffs = {basis[i % len(basis)]: pool[j % len(pool)] for i, j in picks}
        ch = Chart(coords, {c: BOX for c in coords})
        return DifferentialForm(ch, degree, coeffs)

    return st.tuples(
        st.sampled_from(degrees),
        st.lists(
            st.tuples(st.integers(0, 30), st.integers(0, len(pool) - 1)),
            min_size=1,
            max_size=3,
        ),
    ).map(lambda t: build(*t))


def _sample_envs(coords, seed, count=6):
    rng = random.Random(seed)
    return {c: np.array([rng.uniform(*BOX) for _ in range(count)]) for c in coords}


def _max_abs(form, env):
    worst = 0.0
    for c in form.coeffs.values():
        vals = np.asarray(ex.evaluate(c, env))
        worst = max(worst, float(np.max(np.abs(vals))))
    return worst


@settings(max_examples=220, deadline=None, derandomize=True)
@given(_form_strategy(_COORDS5, (0, 1, 2)), st.integers(0, 2**31 - 1))
def test_property_d_after_d_vanishes(a, seed):
    dda = exterior_derivative(exterior_derivative(a))
    env = _sample_envs(_COORDS5, seed)
    assert _max_abs(dda, env) <= 1e-8 * (1.0 + _max_abs(a, env))


@settings(max_examples=220, deadline=None, derandomize=True)
@given(
    st.sampled_from((_COORDS5, _COORDS6)),
    st.data(),
    st.integers(0, 2**31 - 1),
)
def test_property_graded_leibniz(coords, data, seed):
    a = data.draw(_form_strategy(coords, (0, 1, 2)))
    b = data.draw(_form_strategy(coords, (0, 1, 2)))
    if a.degree + b.degree >= len(coords):
        b = function_form(b.chart, ex.Var(coords[0]))
    ab = wedge(a, b)
    lhs = exterior_derivative(ab)
    rhs = wedge(exterior_derivative(a), b)
    signed = wedge(a, exterior_derivative(b))
    if a.degree % 2:
        signed = -signed
    diff = lhs - rhs - signed
    env = _sample_envs(coords, seed)
    scale = 1.0 + _max_abs(lhs, env) + _max_abs(rhs, env) + _max_abs(signed, env)
    assert _max_abs(diff, env) <= 1e-8 * scale


@settings(max_examples=220, deadline=None, derandomize=True)
@given(
    _form_strategy(_COORDS5, (1, 2)),
    _form_strategy(_COORDS5, (1, 2)),
    st.lists(st.integers(0, 11), min_size=5, max_size=5),
    st.integers(0, 2**31 - 1),
)
def test_property_interior_antiderivation(a, b, comp_picks, seed):
    pool = _coeff_pool(_COORDS5)
    X = VectorField(a.chart, tuple(pool[i % len(pool)] for i in comp_picks))
    ab = wedge(a, b)
    lhs = interior_product(X, ab)
    rhs = wedge(interior_product(X, a), b)
    signed = wedge(a, interior_product(X, b))
    if a.degree % 2:
        signed = -signed
    diff = lhs - rhs - signed
    env = _sample_envs(_COORDS5, seed)
    scale = 1.0 + _max_abs(lhs, env) + _max_abs(rhs, env) + _max_abs(signed, env)
    assert _max_abs(diff, env) <= 1e-8 * scale


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_form_strategy(_COORDS5, (1, 2, 3)), st.integers(0, 2**31 - 1))
def test_property_coordinate_coframe_matches_direct_extraction(a, seed):
    rng = random.Random(seed)
    pt = Point({c: rng.uniform(*BOX) for c in _COORDS5})
    cof = [d_coord(a.chart, c) for c in _COORDS5]
    assert np.allclose(
        in_coframe(a, cof, pt), coefficients_at(a, pt), atol=1e-10
    )


def _coframe_wedge(coframe, K):
    """sigma^K: the wedge of the coframe members indexed by K (1 for K = ())."""
    out = function_form(coframe[0].chart, ex.ONE)
    for k in K:
        out = wedge(out, coframe[k])
    return out


@settings(max_examples=120, deadline=None, derandomize=True)
@given(
    _form_strategy(_COORDS5, (0, 1, 2, 3)),
    st.lists(st.integers(0, len(_coeff_pool(_COORDS5))), min_size=25, max_size=25),
    st.integers(0, 2**31 - 1),
)
def test_property_coframe_expansion_reassembles_the_form(a, picks, seed):
    # oracle independent of how the expansion is computed:
    # sum_K c_K sigma^K must give back a's coordinate coefficients
    ch = a.chart
    pool = _coeff_pool(_COORDS5) + [ex.ZERO]
    coframe = [
        DifferentialForm(ch, 1, {(j,): pool[picks[5 * i + j]] for j in range(5)})
        for i in range(5)
    ]
    rng = random.Random(seed)
    pt = Point({c: rng.uniform(*BOX) for c in _COORDS5})
    try:
        c = in_coframe(a, coframe, pt)
    except SingularCoframeError:
        assume(False)
    terms = [
        c_K * coefficients_at(_coframe_wedge(coframe, K), pt)
        for c_K, K in zip(c, basis_tuples(5, a.degree))
    ]
    scale = 1.0 + sum(float(np.max(np.abs(t))) for t in terms)
    assert np.max(np.abs(sum(terms) - coefficients_at(a, pt))) <= 1e-9 * scale


def test_ideal_membership_monotone_under_random_extensions():
    ch = chart5()
    theta, omega1, omega2 = sine_gordon_system(ch)
    dth = exterior_derivative(theta)
    pool = _coeff_pool(_COORDS5)
    rng = random.Random(42)
    spec = ch.sample_spec(count=16)
    for trial in range(12):
        gens = [theta, omega1, omega2]
        base = ideal_contains(dth, gens, spec)
        assert base.ok
        extra_coeff = pool[rng.randrange(len(pool))]
        t = basis_tuples(5, 2)[rng.randrange(10)]
        gens.append(DifferentialForm(ch, 2, {t: extra_coeff}))
        assert ideal_contains(dth, gens, spec).ok
