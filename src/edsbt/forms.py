"""Exterior algebra of differential forms on a coordinate chart.

Forms carry sparse symbolic coefficients indexed by strictly increasing
coordinate tuples.  Wedge, exterior derivative, interior product, and Lie
derivative are exact; membership and slot questions are decided pointwise by
linear algebra on coefficient vectors, quantified over random samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations, permutations
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from . import expr as ex
from .expr import CheckResult, Expr, Point, SampleSpec

COND_LIMIT = 1e8
RANK_CUTOFF = 1e-10


class ChartMismatchError(ValueError):
    pass


class SingularCoframeError(RuntimeError):
    """Coframe matrix condition number exceeded COND_LIMIT at a point."""


@dataclass(frozen=True, eq=True)
class Chart:
    """Ordered coordinates with a sampling box and named parameters.

    `params` values are either fixed floats or (lo, hi) ranges sampled per
    point.  The sampling policy (count, seed, guard, tolerance) lives in
    SampleSpec; sample_spec() builds one over this box and these params.
    """

    coords: tuple
    box: Mapping[str, tuple] = field(default_factory=dict)
    params: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "coords", tuple(self.coords))
        if len(self.coords) < 2:
            raise ValueError("need at least two coordinates")
        if len(set(self.coords)) != len(self.coords):
            raise ValueError("coordinate names must be distinct")
        overlap = set(self.coords) & set(self.params)
        if overlap:
            raise ValueError(f"names both coordinate and parameter: {sorted(overlap)}")
        missing = [c for c in self.coords if c not in self.box]
        if missing:
            raise ValueError(f"box missing intervals for {missing}")

    @property
    def dim(self) -> int:
        return len(self.coords)

    def index(self, name: str) -> int:
        return self.coords.index(name)

    def parse(self, text: str) -> Expr:
        return ex.parse(text, self.coords, self.params.keys())

    def sample_spec(self, **overrides) -> SampleSpec:
        return SampleSpec(box=self.box, params=self.params, **overrides)


DEFAULT_INTERVAL = (-1.5, 1.5)


def default_chart(coords: tuple, box=None, params=None) -> Chart:
    """A chart on `coords` whose box gives DEFAULT_INTERVAL to every
    coordinate that `box` leaves out (after the ones it names)."""
    intervals = dict(box or {})
    for c in coords:
        intervals.setdefault(c, DEFAULT_INTERVAL)
    return Chart(coords, intervals, params or {})


def resolve_spec(chart: Chart, spec: Optional[SampleSpec]) -> SampleSpec:
    """`spec`, or the chart's default policy when it is None."""
    return chart.sample_spec() if spec is None else spec


@lru_cache(maxsize=None)
def basis_tuples(n: int, k: int) -> tuple:
    """Strictly increasing index tuples: the degree-k wedge basis order."""
    return tuple(combinations(range(n), k))


def _merge_sign(t1: tuple, t2: tuple):
    merged = t1 + t2
    if len(set(merged)) != len(merged):
        return None, 0
    # parity of the sort permutation via inversion count (tuples are tiny)
    inversions = 0
    for i in range(len(merged)):
        for j in range(i + 1, len(merged)):
            if merged[i] > merged[j]:
                inversions += 1
    return tuple(sorted(merged)), (-1 if inversions % 2 else 1)


class DifferentialForm:
    """Degree-k form: sparse map from increasing index tuples to Expr."""

    __slots__ = ("chart", "degree", "coeffs")

    def __init__(self, chart: Chart, degree: int, coeffs: Mapping[tuple, Expr]):
        if degree < 0 or degree > chart.dim:
            raise ValueError(f"degree {degree} out of range")
        clean = {}
        for t, c in coeffs.items():
            t = tuple(t)
            if len(t) != degree or list(t) != sorted(set(t)):
                raise ValueError(f"index tuple {t} not strictly increasing length {degree}")
            if not (t == () or 0 <= t[0] and t[-1] < chart.dim):
                raise ValueError(f"index tuple {t} outside chart")
            c = ex._coerce(c)
            if c == ex.ZERO:
                continue
            clean[t] = c
        self.chart = chart
        self.degree = degree
        self.coeffs = clean

    @classmethod
    def zero(cls, chart: Chart, degree: int) -> "DifferentialForm":
        return cls(chart, degree, {})

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        return (
            isinstance(other, DifferentialForm)
            and self.chart == other.chart
            and self.degree == other.degree
            and self.coeffs == other.coeffs
        )

    def __add__(self, other):
        _same_chart(self, other)
        if self.degree != other.degree:
            raise ValueError("degree mismatch in sum")
        out = dict(self.coeffs)
        for t, c in other.coeffs.items():
            out[t] = ex.add(out[t], c) if t in out else c
        return DifferentialForm(self.chart, self.degree, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return DifferentialForm(
            self.chart, self.degree, {t: ex.neg(c) for t, c in self.coeffs.items()}
        )

    def __mul__(self, scalar):
        s = ex._coerce(scalar)
        return DifferentialForm(
            self.chart, self.degree, {t: ex.mul(s, c) for t, c in self.coeffs.items()}
        )

    __rmul__ = __mul__

    def __repr__(self):
        if not self.coeffs:
            return f"<{self.degree}-form 0>"
        names = self.chart.coords
        parts = []
        for t in sorted(self.coeffs):
            mono = "^".join(f"d{names[i]}" for i in t) or "1"
            parts.append(f"({self.coeffs[t]}) {mono}")
        return f"<{self.degree}-form {' + '.join(parts)}>"


def _same_chart(a, b):
    if a.chart != b.chart:
        raise ChartMismatchError("forms live on different charts")


def d_coord(chart: Chart, name: str) -> DifferentialForm:
    """The coordinate differential, e.g. dx."""
    return DifferentialForm(chart, 1, {(chart.index(name),): ex.ONE})


def one_form(chart: Chart, coeff_by_name: Mapping[str, Expr]) -> DifferentialForm:
    return DifferentialForm(
        chart,
        1,
        {(chart.index(n),): c for n, c in coeff_by_name.items()},
    )


class VectorField:
    """A vector field on `chart`: `components` holds one Expr per coordinate."""

    __slots__ = ("chart", "components")

    def __init__(self, chart: Chart, components: Iterable):
        self.chart = chart
        self.components = tuple(ex._coerce(c) for c in components)
        if len(self.components) != chart.dim:
            raise ValueError("component count must match chart dimension")

    @classmethod
    def coordinate(cls, chart: Chart, name: str) -> "VectorField":
        comps = [ex.ZERO] * chart.dim
        comps[chart.index(name)] = ex.ONE
        return cls(chart, tuple(comps))


def wedge(a: DifferentialForm, b: DifferentialForm) -> DifferentialForm:
    _same_chart(a, b)
    k = a.degree + b.degree
    if k > a.chart.dim:
        raise ValueError("wedge degree exceeds chart dimension")
    out: dict = {}
    for t1, c1 in a.coeffs.items():
        for t2, c2 in b.coeffs.items():
            merged, sign = _merge_sign(t1, t2)
            if sign == 0:
                continue
            term = ex.mul(c1, c2)
            if sign < 0:
                term = ex.neg(term)
            out[merged] = ex.add(out[merged], term) if merged in out else term
    return DifferentialForm(a.chart, k, out)


def exterior_derivative(a: DifferentialForm) -> DifferentialForm:
    if a.degree >= a.chart.dim:
        raise ValueError("cannot take d of a top-degree form")
    chart = a.chart
    out: dict = {}
    for t, c in a.coeffs.items():
        names = c.names()
        for i, coord in enumerate(chart.coords):
            if coord not in names or i in t:
                continue
            dc = ex.differentiate(c, coord)
            if dc == ex.ZERO:
                continue
            merged, sign = _merge_sign((i,), t)
            term = dc if sign > 0 else ex.neg(dc)
            out[merged] = ex.add(out[merged], term) if merged in out else term
    return DifferentialForm(chart, a.degree + 1, out)


def interior_product(X: VectorField, a: DifferentialForm) -> DifferentialForm:
    if X.chart != a.chart:
        raise ChartMismatchError("vector field and form live on different charts")
    if a.degree < 1:
        raise ValueError("interior product needs degree >= 1")
    out: dict = {}
    for t, c in a.coeffs.items():
        for pos, idx in enumerate(t):
            comp = X.components[idx]
            if comp == ex.ZERO:
                continue
            term = ex.mul(comp, c)
            if pos % 2:
                term = ex.neg(term)
            rest = t[:pos] + t[pos + 1 :]
            out[rest] = ex.add(out[rest], term) if rest in out else term
    return DifferentialForm(a.chart, a.degree - 1, out)


def lie_derivative(X: VectorField, a: DifferentialForm) -> DifferentialForm:
    """Cartan formula i_X(da) + d(i_X a)."""
    if X.chart != a.chart:
        raise ChartMismatchError("vector field and form live on different charts")
    if a.degree == 0:
        return interior_product(X, exterior_derivative(a))
    d_inner = exterior_derivative(interior_product(X, a))
    if a.degree == a.chart.dim:
        return d_inner
    return interior_product(X, exterior_derivative(a)) + d_inner


# ---------------------------------------------------------------------------
# pointwise numerics


@lru_cache(maxsize=None)
def _basis_index(n: int, k: int) -> dict:
    return {t: i for i, t in enumerate(basis_tuples(n, k))}


def coefficient_matrix_at(
    forms: Sequence[DifferentialForm], pt: Point, guard: float = 0.0
) -> np.ndarray:
    """Numeric coefficient vectors of same-degree forms, one column each,
    rows ordered by `basis_tuples(chart.dim, degree)`.  Forms are evaluated
    in the order given, by one compiled call over all their coefficients."""
    n, k = forms[0].chart.dim, forms[0].degree
    if any(a.degree != k for a in forms):
        raise ValueError("forms must share one degree")
    index = _basis_index(n, k)
    out = np.zeros((len(index), len(forms)))
    entries = [(index[t], j, c) for j, a in enumerate(forms) for t, c in a.coeffs.items()]
    if entries:
        rows, cols, roots = zip(*entries)
        out[rows, cols] = ex.compile(roots)(pt.env(), guard)
    return out


def coefficients_at(a: DifferentialForm, pt: Point, guard: float = 0.0) -> np.ndarray:
    """Numeric coefficient vector in the coordinate wedge basis.

    Ordered by `basis_tuples(chart.dim, degree)`, length C(n, k).
    """
    return coefficient_matrix_at((a,), pt, guard)[:, 0]


def coframe_matrix_at(
    coframe: Sequence[DifferentialForm], pt: Point, guard: float = 0.0
) -> np.ndarray:
    """S[i, j] = coefficient of the j-th coordinate differential in coframe[i].

    Raises SingularCoframeError when S has a non-finite entry or condition
    number above COND_LIMIT.
    """
    if len(coframe) != coframe[0].chart.dim or coframe[0].degree != 1:
        raise ValueError("coframe must contain n one-forms")
    S = coefficient_matrix_at(coframe, pt, guard).T
    if not np.all(np.isfinite(S)) or np.linalg.cond(S) > COND_LIMIT:
        raise SingularCoframeError(f"coframe singular at {pt.flat()}")
    return S


@lru_cache(maxsize=None)
def _antisymmetric_layout(n: int, k: int):
    """Where each degree-k basis coefficient goes in a flattened (n,)*k
    antisymmetric tensor: (flat positions, signs, source rows), and the flat
    positions of the increasing tuples themselves."""
    shape = (n,) * k
    entries = [
        (np.ravel_multi_index(perm, shape), _merge_sign(perm, ())[1], row)
        for row, t in enumerate(basis_tuples(n, k))
        for perm in permutations(t)
    ]
    positions, signs, rows = (np.array(column) for column in zip(*entries))
    increasing = np.array([np.ravel_multi_index(t, shape) for t in basis_tuples(n, k)])
    return positions, signs, rows, increasing


def expand_in_coframe(S: np.ndarray, values: np.ndarray, degree: int) -> np.ndarray:
    """Coordinate-basis coefficients -> coefficients in the wedge basis of
    the coframe with matrix S.

    `values` holds coefficients ordered by `basis_tuples(n, degree)` along
    axis 0 (further axes are independent columns).  As an antisymmetric
    tensor each index is contracted with S^-1: degree 1 is S^-T v, degree 2
    the congruence S^-T M S^-1, degree 0 the identity.
    """
    n = S.shape[0]
    inverse = np.linalg.inv(S)
    positions, signs, rows, increasing = _antisymmetric_layout(n, degree)
    rest = values.shape[1:]
    tensor = np.zeros((n**degree,) + rest)
    tensor[positions] = signs.reshape((-1,) + (1,) * len(rest)) * values[rows]
    tensor = tensor.reshape((n,) * degree + rest)
    for axis in range(degree):
        tensor = np.moveaxis(np.tensordot(inverse.T, tensor, axes=(1, axis)), 0, axis)
    return tensor.reshape((n**degree,) + rest)[increasing]


def span_residual(M: np.ndarray, v: np.ndarray):
    """Least-squares fit of v by the columns of M: (solution, residual), the
    residual being max|M sol - v| / (1 + max|v|).

    Non-finite input gives a NaN solution and an infinite residual: LAPACK's
    least-squares driver can fail to return on a NaN in M, and a NaN
    residual would drop out of max().
    """
    if not (np.isfinite(M).all() and np.isfinite(v).all()):
        return np.full(M.shape[1], np.nan), math.inf
    sol, *_ = np.linalg.lstsq(M, v, rcond=RANK_CUTOFF)
    return sol, float(np.max(np.abs(M @ sol - v))) / (1.0 + float(np.max(np.abs(v))))


def ideal_contains(
    target: DifferentialForm,
    generators: Iterable[DifferentialForm],
    spec: Optional[SampleSpec] = None,
) -> CheckResult:
    """Pointwise span test: is `target` in the algebraic ideal of the
    generators at every sample?

    Builds, per generator g, the forms g ^ (each coordinate wedge monomial
    of complementary degree), and asks whether target's coefficient vector
    lies in their span, by least squares with relative residual tolerance.
    """
    generators = list(generators)
    chart = target.chart
    for g in generators:
        _same_chart(target, g)
    spec = resolve_spec(chart, spec)

    columns = []
    k = target.degree
    for g in generators:
        if g.is_zero() or g.degree > k:
            continue
        comp = k - g.degree
        for U in basis_tuples(chart.dim, comp):
            mono = DifferentialForm(chart, comp, {U: ex.ONE})
            col = wedge(g, mono)
            if not col.is_zero():
                columns.append(col)

    def violation(pt: Point) -> float:
        A = coefficient_matrix_at([target, *columns], pt, spec.guard)
        return span_residual(A[:, 1:], A[:, 0])[1]

    return ex.sampled_check(spec, violation)
