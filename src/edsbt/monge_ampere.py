"""Hyperbolic Monge-Ampere exterior differential systems.

A system lives on a five-coordinate contact chart (x, y, u, p, q) and is
generated by the contact form theta and one 2-form Omega built from the five
coefficient functions of the underlying second-order PDE

    A u_xx + B u_xy + C u_yy + D (u_xx u_yy - u_xy^2) + E = 0.

Hyperbolicity is decided by decomposability of the pencil Omega + lambda
d(theta): the wedge square against theta yields a quadratic sigma(lambda)
whose root structure classifies each sample point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Tuple

import numpy as np

from . import expr as ex
from . import forms as fm
from .expr import CheckResult, Expr, Point, SampleSpec
from .forms import Chart, DifferentialForm

MA_COORDS = ("x", "y", "u", "p", "q")
DEFAULT_INTERVAL = (-1.5, 1.5)


class DegenerateSystemError(ValueError):
    """The 2-form vanishes identically over the sample box."""


class DegeneratePencilError(RuntimeError):
    """sigma(lambda) is identically zero at a sample point."""


def standard_chart(box=None, params=None) -> Chart:
    """The (x, y, u, p, q) contact chart with a default sampling box."""
    intervals = dict(box or {})
    for c in MA_COORDS:
        intervals.setdefault(c, DEFAULT_INTERVAL)
    return Chart(MA_COORDS, intervals, params or {})


def contact_form(chart: Chart) -> DifferentialForm:
    """theta = du - p dx - q dy."""
    p, q = ex.Var("p"), ex.Var("q")
    dx, dy, du = (fm.d_coord(chart, c) for c in ("x", "y", "u"))
    return du - p * dx - q * dy


@dataclass(frozen=True)
class MongeAmpereSystem:
    chart: Chart
    theta: DifferentialForm
    omega: DifferentialForm

    def __post_init__(self):
        if self.omega.degree != 2:
            raise ValueError("omega must be a 2-form")
        if self.theta.degree != 1:
            raise ValueError("theta must be a 1-form")


def from_coefficients(A, B, C, D, E, chart: Optional[Chart] = None,
                      spec: Optional[SampleSpec] = None) -> MongeAmpereSystem:
    """Assemble the system for coefficients A..E (Expr, text, or number).

    Omega = A dp^dy + 1/2 B (dx^dp + dq^dy) + C dx^dq + D dp^dq + E dx^dy.
    Raises DegenerateSystemError when Omega vanishes on the whole sample box.
    """
    chart = chart or standard_chart()
    A, B, C, D, E = (ex.as_expr(v, chart.coords, chart.params) for v in (A, B, C, D, E))
    dx, dy, dp, dq = (fm.d_coord(chart, c) for c in ("x", "y", "p", "q"))
    half_B = ex.mul(ex.Const(Fraction(1, 2)), B)
    omega = (
        A * fm.wedge(dp, dy)
        + half_B * (fm.wedge(dx, dp) + fm.wedge(dq, dy))
        + C * fm.wedge(dx, dq)
        + D * fm.wedge(dp, dq)
        + E * fm.wedge(dx, dy)
    )
    if omega.is_zero():
        raise DegenerateSystemError("all five coefficients are zero")
    spec = fm.resolve_spec(chart, spec)

    def magnitude(pt: Point) -> float:
        # a non-finite magnitude reads as 0.0, so no sample order lets a
        # NaN decide the verdict
        value = float(np.max(np.abs(fm.coefficients_at(omega, pt, spec.guard))))
        return value if math.isfinite(value) else 0.0

    largest = max(v for _, v in ex.sampled_collect(spec, magnitude))
    if largest <= spec.tolerance:
        raise DegenerateSystemError("omega vanishes at every sample point")
    return MongeAmpereSystem(chart, contact_form(chart), omega)


def validate(sys: MongeAmpereSystem, spec: Optional[SampleSpec] = None) -> CheckResult:
    """Sampled validity: theta is a nonvanishing multiple of the contact form
    and omega stays independent of d(theta) modulo wedge products with theta."""
    chart = sys.chart
    spec = fm.resolve_spec(chart, spec)
    dtheta = fm.exterior_derivative(sys.theta)
    theta_monomials = [
        fm.wedge(sys.theta, fm.d_coord(chart, c)) for c in chart.coords
    ]
    iu, ip, iq = chart.index("u"), chart.index("p"), chart.index("q")
    ix, iy = chart.index("x"), chart.index("y")

    def violation(pt: Point) -> float:
        v = fm.coefficients_at(sys.theta, pt, spec.guard)
        w = np.zeros(chart.dim)
        w[ix] = -pt.coords["p"]
        w[iy] = -pt.coords["q"]
        w[iu] = 1.0
        c = float(v @ w) / float(w @ w)
        resid = v - c * w
        worst = float(np.max(np.abs(resid))) / (1.0 + float(np.max(np.abs(v))))
        if abs(c) <= spec.guard:
            worst = max(worst, 1.0)
        augmented = fm.coefficient_matrix_at(
            [*theta_monomials, dtheta, sys.omega], pt, spec.guard
        )
        M = augmented[:, :-1]
        if not np.all(np.isfinite(augmented)):
            # norm and matrix_rank run an SVD, which raises LinAlgError on it
            return math.inf
        cutoff = fm.RANK_CUTOFF * np.linalg.norm(augmented, 2)
        without = np.linalg.matrix_rank(M, tol=cutoff)
        with_omega = np.linalg.matrix_rank(augmented, tol=cutoff)
        if with_omega == without:
            worst = max(worst, 1.0)
        return worst

    return ex.sampled_check(spec, violation)


@dataclass(frozen=True)
class PencilSample:
    point: Point
    coefficients: Tuple[float, float, float]  # sigma = s0 + s1 l + s2 l^2
    discriminant: float
    roots: Tuple[float, ...]
    label: str  # hyperbolic | parabolic | non-hyperbolic


@dataclass(frozen=True)
class HyperbolicityReport:
    verdict: str
    samples: Tuple[PencilSample, ...]

    @property
    def hyperbolic(self) -> bool:
        return self.verdict == "hyperbolic"


def hyperbolicity(sys: MongeAmpereSystem,
                  spec: Optional[SampleSpec] = None) -> HyperbolicityReport:
    """Classify the pencil Omega + lambda d(theta) at every sample point.

    sigma(lambda) = s0 + s1 lambda + s2 lambda^2 is read off the three wedge
    squares against theta; a sample is hyperbolic when sigma has two distinct
    real roots (discriminant above tolerance at coefficient scale).
    """
    chart = sys.chart
    spec = fm.resolve_spec(chart, spec)
    dtheta = fm.exterior_derivative(sys.theta)
    top = fm.basis_tuples(chart.dim, chart.dim)[0]

    def top_coeff(form: DifferentialForm) -> Expr:
        return form.coeffs.get(top, ex.ZERO)

    s0_expr = top_coeff(fm.wedge(fm.wedge(sys.omega, sys.omega), sys.theta))
    s1_expr = ex.mul(
        ex.Const(2), top_coeff(fm.wedge(fm.wedge(sys.omega, dtheta), sys.theta))
    )
    s2_expr = top_coeff(fm.wedge(fm.wedge(dtheta, dtheta), sys.theta))

    def classify(pt: Point) -> PencilSample:
        env = pt.env()
        s0 = float(ex.evaluate(s0_expr, env, spec.guard))
        s1 = float(ex.evaluate(s1_expr, env, spec.guard))
        s2 = float(ex.evaluate(s2_expr, env, spec.guard))
        scale = max(abs(s0), abs(s1), abs(s2))
        if scale <= spec.tolerance:
            raise DegeneratePencilError(
                f"pencil polynomial vanishes at {pt.flat()}"
            )
        disc = s1 * s1 - 4.0 * s0 * s2
        threshold = spec.tolerance * scale * scale
        if abs(s2) <= spec.tolerance * scale:
            # leading coefficient collapsed: at most one decomposable member
            return PencilSample(pt, (s0, s1, s2), disc, (), "non-hyperbolic")
        if disc > threshold:
            root = np.sqrt(disc)
            pair = sorted(((-s1 - root) / (2 * s2), (-s1 + root) / (2 * s2)))
            return PencilSample(pt, (s0, s1, s2), disc, tuple(pair), "hyperbolic")
        if disc >= -threshold:
            return PencilSample(
                pt, (s0, s1, s2), disc, (-s1 / (2 * s2),), "parabolic"
            )
        return PencilSample(pt, (s0, s1, s2), disc, (), "non-hyperbolic")

    samples = tuple(s for _, s in ex.sampled_collect(spec, classify))
    verdict = (
        "hyperbolic"
        if all(s.label == "hyperbolic" for s in samples)
        else "non-hyperbolic"
    )
    return HyperbolicityReport(verdict, samples)


def decomposition_checks(
    sys: MongeAmpereSystem,
    omega1: DifferentialForm,
    omega2: DifferentialForm,
    spec: Optional[SampleSpec] = None,
) -> dict:
    """The individual sampled checks behind verify_decomposition, by name."""
    chart = sys.chart
    spec = fm.resolve_spec(chart, spec)
    if omega1.degree != 2 or omega2.degree != 2:
        raise ValueError("decomposition candidates must be 2-forms")
    dtheta = fm.exterior_derivative(sys.theta)
    top = fm.basis_tuples(chart.dim, chart.dim)[0]

    def square_violation(candidate: DifferentialForm):
        squared = fm.wedge(fm.wedge(candidate, candidate), sys.theta)
        sq_expr = squared.coeffs.get(top, ex.ZERO)

        def violation(pt: Point) -> float:
            val = abs(float(ex.evaluate(sq_expr, pt.env(), spec.guard)))
            mag = float(np.max(np.abs(fm.coefficients_at(candidate, pt, spec.guard))))
            theta_mag = float(
                np.max(np.abs(fm.coefficients_at(sys.theta, pt, spec.guard)))
            )
            return val / ((1.0 + mag) ** 2 * (1.0 + theta_mag))

        return ex.sampled_check(spec, violation)

    new_gens = [sys.theta, omega1, omega2]
    old_gens = [sys.theta, dtheta, sys.omega]
    return {
        "omega1_decomposable": square_violation(omega1),
        "omega2_decomposable": square_violation(omega2),
        "dtheta_in_candidate_span": fm.ideal_contains(dtheta, new_gens, spec),
        "omega_in_candidate_span": fm.ideal_contains(sys.omega, new_gens, spec),
        "omega1_in_system_span": fm.ideal_contains(omega1, old_gens, spec),
        "omega2_in_system_span": fm.ideal_contains(omega2, old_gens, spec),
    }


def verify_decomposition(
    sys: MongeAmpereSystem,
    omega1: DifferentialForm,
    omega2: DifferentialForm,
    spec: Optional[SampleSpec] = None,
) -> bool:
    """True iff both candidates wedge-square to zero against theta and the
    candidate span matches the system span modulo theta, at every sample."""
    checks = decomposition_checks(sys, omega1, omega2, spec)
    return all(result.ok for result in checks.values())
