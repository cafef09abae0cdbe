"""Wavelike Backlund transformations on a six-coordinate chart.

The chart (x, y, u, v, p, q) carries two overlapping contact structures
theta = du - F dx - q dy and theta_bar = dv - p dx - G dy, coupled through
first-order data F(x,y,u,v,p) and G(x,y,u,v,q).  build_wavelike solves for
the induced pair (f, g) and assembles the adapted coframe; closure_checks and
the check_* classifiers decide closure, integrable extension, normality,
wavelike shape, quasilinearity, symmetry, and autonomy by sampled linear
algebra over the chart box.

Coframe slot conventions (order theta, theta_bar, w1, w2, w3, w4): the
derivative of each coframe member is expanded in the 15 wedge slots; torsion
lives in the connection-free slots and the structural zeros listed below must
vanish for a valid adapted section.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Mapping, Optional, Sequence, Tuple

import numpy as np

from . import expr as ex
from . import forms as fm
from .expr import CheckResult, Expr, Point, SampleSpec
from .forms import Chart, DifferentialForm, VectorField

B_COORDS = ("x", "y", "u", "v", "p", "q")

SECTION_LABELS = ("theta", "theta_bar", "w1", "w2", "w3", "w4")

# structural zeros per coframe derivative, as index pairs into the label order
ZERO_SLOTS = {
    "theta": ((1, 2), (1, 3), (1, 4), (1, 5), (2, 4), (2, 5), (3, 4), (3, 5)),
    "theta_bar": ((0, 2), (0, 3), (0, 4), (0, 5), (2, 4), (2, 5), (3, 4), (3, 5)),
    "w1": ((0, 4), (0, 5), (1, 4), (1, 5)),
    "w2": ((0, 4), (0, 5), (1, 4), (1, 5)),
    "w3": ((0, 2), (0, 3), (1, 2), (1, 3)),
    "w4": ((0, 2), (0, 3), (1, 2), (1, 3)),
}

# d(theta) must read exactly 1 on w3^w4, d(theta_bar) exactly 1 on w1^w2
NORMALIZATION_SLOTS = {"theta": (4, 5), "theta_bar": (2, 3)}

TORSION_NAMES = ("A1", "A2", "B1", "B2", "B3", "B4", "C1", "C2", "C3", "C4")

# invariant -> (which derivative, which slot); all connection-free
TORSION_SLOTS = {
    "A1": ("theta", (2, 3)),
    "A2": ("theta_bar", (4, 5)),
    "B1": ("w1", (0, 1)),
    "B2": ("w2", (0, 1)),
    "B3": ("w3", (0, 1)),
    "B4": ("w4", (0, 1)),
    "C1": ("w1", (4, 5)),
    "C2": ("w2", (4, 5)),
    "C3": ("w3", (2, 3)),
    "C4": ("w4", (2, 3)),
}

# the three slot families as (row, column) index arrays into the (15, 6) slot
# table: rows follow basis_tuples(6, 2), columns SECTION_LABELS
_PAIRS = fm.basis_tuples(len(SECTION_LABELS), 2)
_TABLE_SHAPE = (len(_PAIRS), len(SECTION_LABELS))


def _slot_index(slots) -> np.ndarray:
    return np.array([(_PAIRS.index(slot), SECTION_LABELS.index(lbl)) for lbl, slot in slots]).T


_ZERO_KEYS = tuple((lbl, slot) for lbl in SECTION_LABELS for slot in ZERO_SLOTS[lbl])
_ZERO_INDEX = _slot_index(_ZERO_KEYS)
_NORMALIZATION_INDEX = _slot_index(NORMALIZATION_SLOTS.items())
_TORSION_INDEX = _slot_index(TORSION_SLOTS.values())

# check_normal's margin: |A1|, |A2| and |A1 A2 - 1| must exceed it
NORMAL_GUARD = 1e-6


class WavelikeBuildError(ValueError):
    """F/G violate a build precondition (shape or nonvanishing)."""


class SectionValidationError(RuntimeError):
    """A coframe section failed validation; carries the slot report."""

    def __init__(self, message, report):
        super().__init__(message)
        self.report = report


class NormalizationError(SectionValidationError):
    """A normalization slot is off 1: not an adapted section, rescale."""


class StructuralZeroError(SectionValidationError):
    """A structural-zero slot is populated: not a valid section."""


class SubbundleError(ValueError):
    """A candidate 1-form is not inside the stated coframe subbundle."""


class AntiderivativeError(ValueError):
    """No symbolic u-antiderivative in the vocabulary; supply phi_u manually."""


def b_chart(box=None, params=None) -> Chart:
    """The six-coordinate chart (x, y, u, v, p, q) with a default box."""
    return fm.default_chart(B_COORDS, box, params)


class CoframeSection:
    """Six labeled, pointwise independent 1-forms spanning the cotangent
    space: the two contact directions and the 2+2 wedge blocks."""

    __slots__ = ("chart", *SECTION_LABELS)

    def __init__(self, chart: Chart, theta: DifferentialForm, theta_bar: DifferentialForm,
                 w1: DifferentialForm, w2: DifferentialForm, w3: DifferentialForm,
                 w4: DifferentialForm):
        self.chart = chart
        for label, form in zip(SECTION_LABELS, (theta, theta_bar, w1, w2, w3, w4)):
            if form.chart != chart:
                raise fm.ChartMismatchError(f"{label} lives on a different chart")
            if form.degree != 1:
                raise ValueError(f"{label} must be a 1-form")
            setattr(self, label, form)

    def forms(self) -> Tuple[DifferentialForm, ...]:
        return tuple(getattr(self, label) for label in SECTION_LABELS)

    def derivatives(self) -> Tuple[DifferentialForm, ...]:
        return tuple(fm.exterior_derivative(f) for f in self.forms())


class SectionReport:
    """Worst sampled slot magnitudes of a section's structure equations,
    and the torsion read from the same slot tables at the same points.

    `zero_slot_max` maps each (label, slot) of ZERO_SLOTS, and
    `normalization_max` each label of NORMALIZATION_SLOTS, to its worst
    reading over the samples."""

    __slots__ = ("zero_slot_max", "normalization_max", "structural_violation",
                 "normalization_violation", "samples", "witness", "torsion", "tolerance")

    def __init__(self, zero_slot_max: Mapping, normalization_max: Mapping,
                 structural_violation: float, normalization_violation: float, samples: int,
                 witness: Optional[Point], torsion: TorsionInvariants, tolerance: float = 1e-9):
        self.zero_slot_max = zero_slot_max
        self.normalization_max = normalization_max
        self.structural_violation = structural_violation
        self.normalization_violation = normalization_violation
        self.samples = samples
        self.witness = witness
        self.torsion = torsion
        self.tolerance = tolerance

    @property
    def ok(self) -> bool:
        return max(self.structural_violation, self.normalization_violation) <= self.tolerance


def _slot_table_at(section: CoframeSection, derivatives, pt: Point, guard) -> np.ndarray:
    """The (15, 6) slot table at one point: column j expands the derivative
    of the j-th coframe member (SECTION_LABELS order) in the coframe wedge
    basis, rows in basis_tuples(6, 2) order.  The coframe is evaluated
    first, then the derivatives."""
    S = fm.coframe_matrix_at(section.forms(), pt, guard)
    V = fm.coefficient_matrix_at(derivatives, pt, guard)
    return fm.expand_in_coframe(S, V, 2)


def validate_section(section: CoframeSection,
                     spec: Optional[SampleSpec] = None) -> SectionReport:
    """Expand the derivative of each coframe member in the coframe wedge
    basis at samples and check the connection-free structure:

    structural zeros per ZERO_SLOTS, relative to 1 + the largest slot of
    their derivative, and the two normalization slots (d theta on w3^w4,
    d theta_bar on w1^w2) equal to 1, read from the stacked (samples, 15, 6)
    slot tables.  A non-finite slot reading counts as an infinite violation;
    the witness is the first sample to reach the worst one.  The report
    also carries the torsion read from the same tables.

    Raises NormalizationError / StructuralZeroError on failure, with the
    report attached to the exception.
    """
    spec = fm.resolve_spec(section.chart, spec)
    derivatives = section.derivatives()
    collected = ex.sampled_collect(
        spec, lambda pt: _slot_table_at(section, derivatives, pt, spec.guard)
    )
    points, tables = zip(*collected)
    T = np.stack(tables)
    rows, cols = _ZERO_INDEX
    scale = 1.0 + np.max(np.abs(T), axis=1)[:, cols]
    with np.errstate(invalid="ignore"):  # inf / inf reads as inf below
        zero = ex.finite_or_inf(np.abs(T[:, rows, cols]) / scale)
    rows, cols = _NORMALIZATION_INDEX
    norm = ex.finite_or_inf(np.abs(T[:, rows, cols] - 1.0))
    zero_max, norm_max = np.max(zero, axis=0), np.max(norm, axis=0)
    worst_zero, worst_norm = float(np.max(zero_max)), float(np.max(norm_max))
    per_sample = np.max(np.concatenate([zero, norm], axis=1), axis=1)
    report = SectionReport(
        zero_slot_max=dict(zip(_ZERO_KEYS, zero_max.tolist())),
        normalization_max=dict(zip(NORMALIZATION_SLOTS, norm_max.tolist())),
        structural_violation=worst_zero,
        normalization_violation=worst_norm,
        samples=spec.count,
        witness=points[int(np.argmax(per_sample))],
        torsion=_read_torsion(points, T),
        tolerance=spec.tolerance,
    )
    if worst_norm > spec.tolerance:
        raise NormalizationError(
            "normalization slot off 1: not an adapted section, rescale "
            f"theta/theta_bar (max deviation {worst_norm:.3e})",
            report,
        )
    if worst_zero > spec.tolerance:
        raise StructuralZeroError(
            f"structural-zero slot populated (max {worst_zero:.3e})", report
        )
    return report


class TorsionInvariants:
    """The ten torsion functions sampled pointwise.

    `values` maps each name in TORSION_NAMES to an array over `points`.
    """

    __slots__ = ("values", "points")

    def __init__(self, values: Mapping[str, np.ndarray], points: Tuple[Point, ...]):
        self.values = values
        self.points = points

    def at(self, i: int) -> dict:
        return {name: float(self.values[name][i]) for name in TORSION_NAMES}

    def product(self) -> np.ndarray:
        return self.values["A1"] * self.values["A2"]


def _read_torsion(points, T: np.ndarray) -> TorsionInvariants:
    """The torsion slots of stacked (samples, 15, 6) slot tables."""
    rows, cols = _TORSION_INDEX
    values = T[:, rows, cols].T
    return TorsionInvariants(dict(zip(TORSION_SLOTS, values)), tuple(points))


def extract_torsion(section: CoframeSection,
                    points: Optional[Sequence[Point]] = None,
                    spec: Optional[SampleSpec] = None) -> TorsionInvariants:
    """Read the ten torsion functions from the connection-free slots.

    With `points` given they are used verbatim, under the guard of `spec`
    (or the chart default).  Otherwise the section is validated on samples
    drawn from `spec`, and the torsion is read from that pass's slot
    tables, at the validated points.
    """
    if points is None:
        return validate_section(section, spec).torsion
    derivatives = section.derivatives()
    guard = fm.resolve_spec(section.chart, spec).guard
    tables = [_slot_table_at(section, derivatives, pt, guard) for pt in points]
    return _read_torsion(points, np.reshape(tables, (len(points),) + _TABLE_SHAPE))


def check_normal(torsion: TorsionInvariants) -> bool:
    """Normality: |A1|, |A2|, |A1 A2 - 1| above NORMAL_GUARD on samples."""
    margins = normal_margins(torsion)
    return all(m > NORMAL_GUARD for m in margins.values())


def normal_margins(torsion: TorsionInvariants) -> dict:
    a1, a2 = torsion.values["A1"], torsion.values["A2"]
    return {
        "A1": float(np.min(np.abs(a1))),
        "A2": float(np.min(np.abs(a2))),
        "A1A2_minus_1": float(np.min(np.abs(a1 * a2 - 1.0))),
    }


# ---------------------------------------------------------------------------
# construction from first-order data


class WavelikeBT:
    """A built transformation: the data (F, G), the induced pair (f, g),
    F_p and G_q, and the adapted coframe."""

    __slots__ = ("chart", "F", "G", "f", "g", "fp", "gq", "section")

    def __init__(self, chart: Chart, F: Expr, G: Expr, f: Expr, g: Expr, fp: Expr, gq: Expr,
                 section: CoframeSection):
        self.chart, self.F, self.G, self.f, self.g = chart, F, G, f, g
        self.fp, self.gq, self.section = fp, gq, section

    def generators(self) -> list:
        """theta, theta_bar and the two decomposable wedge blocks."""
        s = self.section
        return [s.theta, s.theta_bar, fm.wedge(s.w1, s.w2), fm.wedge(s.w3, s.w4)]


def _sampled_min(expr: Expr, spec: SampleSpec) -> Tuple[float, Optional[Point]]:
    """Sampled minimum of |expr|, and the first sample point where |expr|
    is not finite (None where none is).  A non-finite sample reads as 0.0
    in the minimum, so a margin built on it fails its guard."""

    def magnitude(pt: Point) -> float:
        return abs(float(ex.evaluate(expr, pt.env(), spec.guard)))

    samples = ex.sampled_collect(spec, magnitude)
    bad = next((pt for pt, v in samples if not math.isfinite(v)), None)
    return min(ex.finite_or(v, 0.0) for _, v in samples), bad


def build_wavelike(F, G, chart: Optional[Chart] = None,
                   spec: Optional[SampleSpec] = None) -> WavelikeBT:
    """Assemble the transformation determined by u_x = F, ubar_x relations.

    Solves the linear pair  f - g F_p = F_y + q F_u + G F_v,
                            g - f G_q = G_x + F G_u + p G_v
    for (f, g) and builds the adapted coframe, whose theta-corrections in
    w2/w4 are set in closed form by two structural zeros.  Raises
    WavelikeBuildError when F involves q, G involves p, or F_p, G_q or
    1 - F_p G_q comes within the guard of zero on the samples.
    """
    chart = chart or b_chart()
    F, G = (ex.as_expr(e, chart.coords, chart.params) for e in (F, G))
    if ex.differentiate(F, "q") != ex.ZERO:
        raise WavelikeBuildError("F must not depend on q")
    if ex.differentiate(G, "p") != ex.ZERO:
        raise WavelikeBuildError("G must not depend on p")
    spec = fm.resolve_spec(chart, spec)

    Fp = ex.differentiate(F, "p")
    Gq = ex.differentiate(G, "q")
    delta = ex.sub(ex.ONE, ex.mul(Fp, Gq))
    margins = [(name, *_sampled_min(e, spec))
               for name, e in (("F_p", Fp), ("G_q", Gq), ("1 - F_p G_q", delta))]
    for name, margin, bad in margins:
        if bad is not None:
            raise WavelikeBuildError(f"{name} is not finite on the box at {bad.flat()}")
        if margin <= spec.guard:
            raise WavelikeBuildError(f"{name} vanishes on the box (min {margin:.3e})")

    q_var, p_var = ex.Var("q"), ex.Var("p")
    R1 = ex.add(
        ex.differentiate(F, "y"),
        ex.add(ex.mul(q_var, ex.differentiate(F, "u")), ex.mul(G, ex.differentiate(F, "v"))),
    )
    R2 = ex.add(
        ex.differentiate(G, "x"),
        ex.add(ex.mul(F, ex.differentiate(G, "u")), ex.mul(p_var, ex.differentiate(G, "v"))),
    )
    f = ex.div(ex.add(R1, ex.mul(Fp, R2)), delta)
    g = ex.div(ex.add(R2, ex.mul(Gq, R1)), delta)

    dx, dy, du, dv, dp, dq = (fm.d_coord(chart, c) for c in B_COORDS)
    theta = du - F * dx - q_var * dy
    theta_bar = dv - p_var * dx - G * dy
    eta2 = dp - g * dy
    eta4 = dq - f * dx

    # with dp = w2 - c2 theta_bar + g dy and dq = w4 - c4 theta + f dx, the theta_bar^w1
    # slot of d theta reads F_p c2 - F_v and the theta^w3 slot of d theta_bar G_q c4 - G_u
    c2 = ex.div(ex.differentiate(F, "v"), Fp)
    c4 = ex.div(ex.differentiate(G, "u"), Gq)
    w2 = eta2 + c2 * theta_bar
    w4 = eta4 + c4 * theta
    section = CoframeSection(chart, theta, theta_bar, dx, w2, dy, w4)
    return WavelikeBT(chart, F, G, f, g, Fp, Gq, section)


def closure_checks(bt: WavelikeBT, spec: Optional[SampleSpec] = None) -> dict:
    """The sampled checks that the induced pair factors through the data:
    f depends on (v, p) only through F, and g on (u, q) only through G --
    the defining property of a genuine transformation."""
    spec = fm.resolve_spec(bt.chart, spec)
    F, G, f, g, Fp, Gq = bt.F, bt.G, bt.f, bt.g, bt.fp, bt.gq
    return {
        "dropF": ex.equiv_random(
            ex.sub(ex.mul(ex.differentiate(f, "v"), Fp), ex.mul(ex.differentiate(f, "p"), ex.differentiate(F, "v"))),
            ex.ZERO, spec,
        ),
        "dropG": ex.equiv_random(
            ex.sub(ex.mul(ex.differentiate(g, "u"), Gq), ex.mul(ex.differentiate(g, "q"), ex.differentiate(G, "u"))),
            ex.ZERO, spec,
        ),
    }


# ---------------------------------------------------------------------------
# classifiers


def integrable_extension_checks(theta: DifferentialForm, theta_bar: DifferentialForm,
                                omegas: Sequence[DifferentialForm],
                                omegas_bar: Sequence[DifferentialForm],
                                spec: Optional[SampleSpec] = None) -> dict:
    """The two sampled membership checks behind check_integrable_extension:
    d(theta) in the ideal of theta, theta_bar and the barred decomposable
    pair `omegas_bar`, d(theta_bar) in that of theta_bar, theta and
    `omegas`.  A built transformation passes both pairs as its two wedge
    blocks (WavelikeBT.generators)."""
    spec = fm.resolve_spec(theta.chart, spec)
    return {
        "dtheta": fm.ideal_contains(
            fm.exterior_derivative(theta), [theta, theta_bar, *omegas_bar], spec
        ),
        "dtheta_bar": fm.ideal_contains(
            fm.exterior_derivative(theta_bar), [theta_bar, theta, *omegas], spec
        ),
    }


def check_integrable_extension(theta: DifferentialForm, theta_bar: DifferentialForm,
                               omegas: Sequence[DifferentialForm],
                               omegas_bar: Sequence[DifferentialForm],
                               spec: Optional[SampleSpec] = None) -> bool:
    """True iff d(theta) lies in the ideal spanned by both contact forms and
    the barred decomposable pair, and symmetrically for d(theta_bar)."""
    checks = integrable_extension_checks(theta, theta_bar, omegas, omegas_bar, spec)
    return all(r.ok for r in checks.values())


def check_wavelike(section: CoframeSection, eta1: DifferentialForm,
                   eta3: DifferentialForm,
                   spec: Optional[SampleSpec] = None) -> bool:
    """Rank-one integrability of candidate line bundles inside the blocks.

    eta1 must lie in span{w1, w2} and eta3 in span{w3, w4} at samples
    (SubbundleError otherwise); returns True iff d(eta)^eta vanishes on
    samples for both.
    """
    spec = fm.resolve_spec(section.chart, spec)

    for label, eta, block in (("eta1", eta1, (section.w1, section.w2)),
                              ("eta3", eta3, (section.w3, section.w4))):
        res = fm.ideal_contains(eta, block, spec)
        if not res.ok:
            raise SubbundleError(
                f"{label} is not inside its stated block (violation {res.max_violation:.3e})"
            )

    def frobenius(candidate):
        three = fm.wedge(fm.exterior_derivative(candidate), candidate)

        def violation(pt: Point) -> float:
            v = fm.coefficients_at(three, pt, spec.guard)
            scale = 1.0 + float(np.max(np.abs(fm.coefficients_at(candidate, pt, spec.guard))))
            return float(np.max(np.abs(v))) / scale

        return ex.sampled_check(spec, violation)

    return frobenius(eta1).ok and frobenius(eta3).ok


def check_quasilinear(bt: WavelikeBT, spec: Optional[SampleSpec] = None) -> bool:
    """The product F_p G_q must not depend on p or q (its differential lies
    in the span of dx, dy, du, dv)."""
    spec = fm.resolve_spec(bt.chart, spec)
    product = ex.mul(bt.fp, bt.gq)
    for coord in ("p", "q"):
        partial = ex.differentiate(product, coord)
        if partial == ex.ZERO:
            continue
        if not ex.equiv_random(partial, ex.ZERO, spec).ok:
            return False
    return True


def check_symmetry(generators: Sequence[DifferentialForm], X: VectorField,
                   spec: Optional[SampleSpec] = None) -> bool:
    """True iff the Lie derivative of every generator stays in the ideal."""
    generators = list(generators)
    spec = fm.resolve_spec(generators[0].chart, spec)
    for g in generators:
        moved = fm.lie_derivative(X, g)
        if moved.is_zero():
            continue
        if not fm.ideal_contains(moved, generators, spec).ok:
            return False
    return True


def check_autonomous(bt: WavelikeBT, X: VectorField, Y: VectorField,
                     spec: Optional[SampleSpec] = None, det: Optional[float] = None) -> bool:
    """Commuting symmetry pair transverse to the two line bundles:
    [X, Y] = 0, both fields are symmetries of the ideal, and the 2x2 pairing
    determinant of (w1, w3) against (X, Y) stays away from zero.  `det` is
    transversality_det's value for the same arguments, when the caller
    already has it."""
    spec = fm.resolve_spec(bt.chart, spec)
    chart = bt.chart
    for i in range(chart.dim):
        commutator = ex.ZERO
        for j, coord in enumerate(chart.coords):
            commutator = ex.add(
                commutator,
                ex.sub(
                    ex.mul(X.components[j], ex.differentiate(Y.components[i], coord)),
                    ex.mul(Y.components[j], ex.differentiate(X.components[i], coord)),
                ),
            )
        if commutator != ex.ZERO and not ex.equiv_random(commutator, ex.ZERO, spec).ok:
            return False

    gens = bt.generators()
    if not (check_symmetry(gens, X, spec) and check_symmetry(gens, Y, spec)):
        return False
    if det is None:
        det = transversality_det(bt, X, Y, spec)
    return det > spec.guard


def transversality_det(bt: WavelikeBT, X: VectorField, Y: VectorField,
                       spec: Optional[SampleSpec] = None) -> float:
    """Sampled minimum of |det| for the 2x2 pairing of (w1, w3) against
    (X, Y); positive values certify transversality."""
    spec = fm.resolve_spec(bt.chart, spec)

    def pairing(form: DifferentialForm, field: VectorField) -> Expr:
        return fm.interior_product(field, form).coeffs.get((), ex.ZERO)

    s = bt.section
    det = ex.sub(
        ex.mul(pairing(s.w1, X), pairing(s.w3, Y)),
        ex.mul(pairing(s.w1, Y), pairing(s.w3, X)),
    )
    return _sampled_min(det, spec)[0]


# ---------------------------------------------------------------------------
# quasilinear expansion and first-order normalization


class QuasilinearFG:
    """build_wavelike's (f, g) for affine first-order data F = F0 + F1 p,
    G = G0 + G1 q, with the bilinear-term report.  `coefficients` is keyed
    by ("f"|"g", "p"|"q"|"pq"), `pq_checks` by "f" and "g"."""

    __slots__ = ("f", "g", "coefficients", "pq_vanishes", "pq_checks")

    def __init__(self, f: Expr, g: Expr, coefficients: Mapping[Tuple[str, str], Expr],
                 pq_vanishes: bool, pq_checks: Mapping[str, CheckResult]):
        self.f, self.g, self.coefficients = f, g, coefficients
        self.pq_vanishes, self.pq_checks = pq_vanishes, pq_checks


def quasilinear_fg(F0, F1, G0, G1, chart: Optional[Chart] = None,
                   spec: Optional[SampleSpec] = None) -> QuasilinearFG:
    """The pair (f, g) that build_wavelike induces from the affine data
    F = F0 + F1 p, G = G0 + G1 q, with its p, q and pq coefficients.  f and
    g are bilinear in (p, q), so each coefficient is a derivative with the
    other momentum set to 0.  build_wavelike raises WavelikeBuildError where
    F_p = F1, G_q = G1 or 1 - F_p G_q vanishes on the box."""
    chart = chart or b_chart()
    F0, F1, G0, G1 = (ex.as_expr(e, chart.coords, chart.params) for e in (F0, F1, G0, G1))
    for name, e in (("F0", F0), ("F1", F1), ("G0", G0), ("G1", G1)):
        bad = e.names() & {"p", "q"}
        if bad:
            raise WavelikeBuildError(f"{name} must not involve {sorted(bad)}")
    spec = fm.resolve_spec(chart, spec)
    bt = build_wavelike(F0 + F1 * ex.Var("p"), G0 + G1 * ex.Var("q"), chart, spec)
    coefficients = {}
    for name, e in (("f", bt.f), ("g", bt.g)):
        e_p = ex.differentiate(e, "p")
        coefficients[name, "p"] = ex.substitute(e_p, "q", ex.ZERO)
        coefficients[name, "q"] = ex.substitute(ex.differentiate(e, "q"), "p", ex.ZERO)
        coefficients[name, "pq"] = ex.differentiate(e_p, "q")
    pq_checks = {name: ex.equiv_random(coefficients[name, "pq"], ex.ZERO, spec) for name in "fg"}
    return QuasilinearFG(
        f=bt.f, g=bt.g, coefficients=coefficients,
        pq_vanishes=all(r.ok for r in pq_checks.values()),
        pq_checks=pq_checks,
    )


def u_antiderivative(e: Expr) -> Expr:
    """Symbolic antiderivative in u for the supported shapes: u-free factors,
    sums, negation, u-powers, and quotients with u-free denominators."""
    u = ex.Var("u")
    if "u" not in e.names():
        return ex.mul(e, u)
    if e == u:
        return ex.mul(ex.Const(Fraction(1, 2)), ex.pow_int(u, 2))
    if isinstance(e, ex.Neg):
        return ex.neg(u_antiderivative(e.child))
    if isinstance(e, ex.Add):
        return ex.add(u_antiderivative(e.left), u_antiderivative(e.right))
    if isinstance(e, ex.Sub):
        return ex.sub(u_antiderivative(e.left), u_antiderivative(e.right))
    if isinstance(e, ex.Pow) and e.base == u and e.exponent >= 0:
        n = e.exponent
        return ex.mul(ex.Const(Fraction(1, n + 1)), ex.pow_int(u, n + 1))
    if isinstance(e, ex.Mul):
        if "u" not in e.left.names():
            return ex.mul(e.left, u_antiderivative(e.right))
        if "u" not in e.right.names():
            return ex.mul(u_antiderivative(e.left), e.right)
    if isinstance(e, ex.Div) and "u" not in e.right.names():
        return ex.div(u_antiderivative(e.left), e.right)
    raise AntiderivativeError(
        "no symbolic antiderivative in the vocabulary; supply phi_u manually"
    )


class FirstOrderNormalization:
    """The point transform phi_u, its residual check phi_uu + A phi_u == 0,
    the transformed bilinear coefficient, and a description per term."""

    __slots__ = ("phi_u", "residual", "a_tilde", "description")

    def __init__(self, phi_u: Expr, residual: CheckResult, a_tilde: Expr,
                 description: Mapping[str, str]):
        self.phi_u, self.residual = phi_u, residual
        self.a_tilde, self.description = a_tilde, description


def normalize_first_order(A: Expr, chart: Optional[Chart] = None,
                          spec: Optional[SampleSpec] = None) -> FirstOrderNormalization:
    """Point transform killing the bilinear term A u_x u_y of
    u_xy = A u_x u_y + B u_x + C u_y + D, with coefficients in (x, y, u):
    phi_u = exp(-antider(A)).

    The returned phi_u satisfies phi_uu + A phi_u = 0, which makes the
    transformed bilinear coefficient (phi_uu + A phi_u)/phi_u^2 vanish.
    """
    chart = chart or fm.default_chart(("x", "y", "u"))
    spec = fm.resolve_spec(chart, spec)
    primitive = u_antiderivative(A)
    phi_u = ex.exp(ex.neg(primitive))
    residual = ex.equiv_random(
        ex.add(ex.differentiate(phi_u, "u"), ex.mul(A, phi_u)), ex.ZERO, spec
    )
    a_tilde = ex.div(
        ex.add(ex.differentiate(phi_u, "u"), ex.mul(A, phi_u)),
        ex.pow_int(phi_u, 2),
    )
    description = {
        "A_tilde": "0: phi_u solves phi_uu + A phi_u = 0",
        "B_tilde": "first-order coefficients transform within (x, y, u); shape preserved",
        "C_tilde": "first-order coefficients transform within (x, y, u); shape preserved",
        "D_tilde": "zeroth-order coefficient transforms within (x, y, u); shape preserved",
        "note": (
            "phi_u is exp of the negative u-antiderivative of A; the "
            "alternative reading 'antiderivative of exp(-A)' does not solve "
            "phi_uu + A phi_u = 0 and is rejected"
        ),
    }
    return FirstOrderNormalization(phi_u, residual, a_tilde, description)
