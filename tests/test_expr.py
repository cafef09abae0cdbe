import math
import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from edsbt import expr
from edsbt.expr import (
    Const,
    DomainError,
    ExprSyntaxError,
    Param,
    SampleSpec,
    Var,
    differentiate,
    equiv_random,
    evaluate,
    parse,
    render,
)

COORDS = ["x", "y", "u", "v", "p", "q"]
PARAMS = ["lambda"]


def P(text):
    return parse(text, COORDS, PARAMS)


class TestParse:
    def test_bt_generator_top_node(self):
        e = P("p + 2*lambda*sin((u+v)/2)")
        assert isinstance(e, expr.Add)
        assert isinstance(e.left, Var)

    def test_unbalanced_paren_position(self):
        with pytest.raises(ExprSyntaxError) as err:
            P("sin(u")
        assert err.value.position == 5

    def test_round_trip_identity(self):
        e = P("q^2/lambda")
        assert parse(render(e), COORDS, PARAMS) == e

    def test_undeclared_identifier(self):
        with pytest.raises(ExprSyntaxError, match="undeclared"):
            P("w + 1")

    def test_unknown_function(self):
        with pytest.raises(ExprSyntaxError, match="unknown function"):
            P("sinh(u)")

    def test_unary_minus_binds_looser_than_power(self):
        e = P("-x^2")
        assert isinstance(e, expr.Neg)
        assert isinstance(e.child, expr.Pow)

    def test_parenthesized_negative_base(self):
        e = P("(-x)^2")
        assert isinstance(e, expr.Pow)

    def test_negative_exponent(self):
        e = P("u^-2")
        assert isinstance(e, expr.Pow) and e.exponent == -2

    def test_decimal_constants_exact(self):
        e = P("0.5")
        assert e == Const(Fraction(1, 2))

    def test_trailing_garbage(self):
        with pytest.raises(ExprSyntaxError):
            P("u + 1 )")

    def test_stray_character(self):
        with pytest.raises(ExprSyntaxError):
            P("u % 2")


class TestDifferentiate:
    def test_linear_term(self):
        assert differentiate(P("p + 2*lambda*sin((u+v)/2)"), "p") == Const(1)

    def test_chain_rule_half_angle(self):
        d = differentiate(P("2*lambda*sin((u+v)/2)"), "u")
        target = P("lambda*cos((u+v)/2)")
        spec = SampleSpec(box={"u": (-2, 2), "v": (-2, 2)}, params={"lambda": 1.37})
        assert equiv_random(d, target, spec).ok

    def test_linear_term_negative(self):
        assert differentiate(P("-q + (2/lambda)*sin((u-v)/2)"), "q") == Const(-1)

    def test_parameter_is_constant(self):
        assert differentiate(P("lambda"), "lambda") == Const(0)

    def test_other_variable(self):
        assert differentiate(P("sin(u)"), "v") == Const(0)

    @pytest.mark.parametrize(
        "text,var,dtext",
        [
            ("ln(u)", "u", "1/u"),
            ("sqrt(u)", "u", "1/(2*sqrt(u))"),
            ("atan(u)", "u", "1/(1+u^2)"),
            ("tan(u)", "u", "1+tan(u)^2"),
            ("u^3", "u", "3*u^2"),
            ("u/v", "u", "1/v"),
        ],
    )
    def test_rules_numerically(self, text, var, dtext):
        spec = SampleSpec(box={"u": (0.3, 1.2), "v": (0.3, 1.2)})
        assert equiv_random(differentiate(P(text), var), P(dtext), spec).ok


class TestEvaluate:
    def test_half_angle_value(self):
        v = evaluate(P("sin((u+v)/2)"), {"u": math.pi / 2, "v": 0.0})
        assert v == pytest.approx(math.sqrt(2) / 2, abs=1e-15)

    def test_guard_division(self):
        with pytest.raises(DomainError):
            evaluate(P("1/(p)"), {"p": 0.0}, guard=1e-12)

    def test_kink_value_at_origin(self):
        v = evaluate(P("4*atan(exp(-x-y))"), {"x": 0.0, "y": 0.0})
        assert v == pytest.approx(math.pi, abs=1e-15)

    def test_ln_domain(self):
        with pytest.raises(DomainError):
            evaluate(P("ln(u)"), {"u": -1.0})

    def test_sqrt_domain(self):
        with pytest.raises(DomainError):
            evaluate(P("sqrt(u)"), {"u": -0.5})

    def test_negative_power_guard(self):
        with pytest.raises(DomainError):
            evaluate(P("u^-2"), {"u": 1e-9}, guard=1e-6)

    def test_unbound_name(self):
        with pytest.raises(expr.ExprError, match="unbound"):
            evaluate(P("u"), {})

    def test_array_broadcast(self):
        import numpy as np

        vals = evaluate(P("sin(u)+x"), {"u": np.array([0.0, math.pi / 2]), "x": 1.0})
        assert vals == pytest.approx([1.0, 2.0])


class TestEquivRandom:
    def test_addition_formula(self):
        spec = SampleSpec(box={"u": (-3, 3), "v": (-3, 3)})
        r = equiv_random(P("sin(u+v)"), P("sin(u)*cos(v)+cos(u)*sin(v)"), spec)
        assert r.ok

    def test_product_to_sum(self):
        spec = SampleSpec(box={"u": (-3, 3), "v": (-3, 3)})
        r = equiv_random(P("2*cos((u+v)/2)*sin((u-v)/2)"), P("sin(u)-sin(v)"), spec)
        assert r.ok

    def test_non_identity_reports_deviation(self):
        spec = SampleSpec(box={"u": (-1, 1), "v": (-1, 1)})
        r = equiv_random(P("sin(u)"), P("u"), spec)
        assert not r.ok
        assert r.max_violation > 1e-9
        assert r.witness is not None

    def test_deterministic_given_seed(self):
        spec = SampleSpec(box={"u": (-1, 1), "v": (-1, 1)}, seed=7)
        r1 = equiv_random(P("sin(u)"), P("u"), spec)
        r2 = equiv_random(P("sin(u)"), P("u"), spec)
        assert r1.max_violation == r2.max_violation
        assert r1.witness.coords == r2.witness.coords

    def test_guard_rejection_redraws(self):
        # 1/u is evaluable a.e.; guarded points are redrawn, not fatal
        spec = SampleSpec(box={"u": (-1, 1)}, guard=1e-3, count=32)
        r = equiv_random(P("u/u"), P("1"), spec)
        assert r.ok

    def test_sampling_exhaustion(self):
        spec = SampleSpec(box={"u": (0.1, 0.2)}, guard=10.0, count=4)
        with pytest.raises(expr.SamplingError):
            equiv_random(P("1/u"), P("1"), spec)

    def test_ranged_parameter_sampled(self):
        spec = SampleSpec(box={"u": (-1, 1)}, params={"lambda": (0.5, 2.0)})
        r = equiv_random(P("lambda*u/lambda"), P("u"), spec)
        assert r.ok

    def test_distinct_seeds_draw_distinct_points(self):
        def drawn(seed):
            spec = SampleSpec(box={"u": (-1, 1), "v": (-1, 1)}, count=64, seed=seed)
            collected = expr.sampled_collect(spec, lambda pt: None)
            return {tuple(sorted(pt.coords.items())) for pt, _ in collected}

        assert drawn(0).isdisjoint(drawn(1))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_violation_fails(self):
        # exp(exp(10u)) overflows for u > 0.66, where e - e reads nan
        e = P("exp(exp(10*u))")
        spec = SampleSpec(box={"u": (-1.5, 1.5)}, count=64, seed=64)
        r = equiv_random(e, e, spec)
        assert not r.ok
        assert r.max_violation == math.inf
        drawn = [pt for pt, _ in expr.sampled_collect(spec, lambda pt: None)]
        first = next(pt for pt in drawn if not math.isfinite(evaluate(e, pt.env())))
        assert r.witness == first


# ---------------------------------------------------------------------------
# property suites

_names = st.sampled_from(["x", "y", "u"])
_consts = st.integers(min_value=-4, max_value=4).map(lambda n: Const(Fraction(n)))
_small_fracs = st.tuples(
    st.integers(min_value=-6, max_value=6), st.integers(min_value=1, max_value=5)
).map(lambda t: Const(Fraction(t[0], t[1])))


def _leaf():
    return st.one_of(
        _names.map(Var),
        st.just(Param("lambda")),
        _consts,
        _small_fracs,
    )


def _extend(children):
    binary = st.tuples(children, children)
    return st.one_of(
        binary.map(lambda t: expr.add(*t)),
        binary.map(lambda t: expr.sub(*t)),
        binary.map(lambda t: expr.mul(*t)),
        st.tuples(children, children).map(_safe_div),
        children.map(expr.neg),
        st.tuples(children, st.integers(min_value=-2, max_value=3)).map(
            lambda t: _safe_pow(*t)
        ),
        st.tuples(st.sampled_from(expr.FUNCTIONS), children).map(
            lambda t: _safe_func(*t)
        ),
    )


def _safe_div(t):
    a, b = t
    try:
        return expr.div(a, b)
    except expr.ExprError:
        return a


def _safe_pow(base, n):
    try:
        return expr.pow_int(base, n)
    except expr.ExprError:
        return base


def _safe_func(name, arg):
    return expr.func(name, arg)


exprs = st.recursive(_leaf(), _extend, max_leaves=12)


@settings(max_examples=250, deadline=None, derandomize=True)
@given(exprs)
def test_parser_round_trip(e):
    assert parse(render(e), ["x", "y", "u"], ["lambda"]) == e


# total on the sample box: no division, ln, sqrt, tan, exp
def _fd_leaf():
    return st.one_of(_names.map(Var), _consts)


def _fd_extend(children):
    binary = st.tuples(children, children)
    return st.one_of(
        binary.map(lambda t: expr.add(*t)),
        binary.map(lambda t: expr.sub(*t)),
        binary.map(lambda t: expr.mul(*t)),
        children.map(expr.neg),
        st.tuples(children, st.integers(min_value=2, max_value=3)).map(
            lambda t: expr.pow_int(*t)
        ),
        st.tuples(st.sampled_from(["sin", "cos", "atan"]), children).map(
            lambda t: expr.func(*t)
        ),
    )


fd_exprs = st.recursive(_fd_leaf(), _fd_extend, max_leaves=8)
fd_points = st.fixed_dictionaries(
    {name: st.floats(min_value=-1.5, max_value=1.5) for name in ["x", "y", "u"]}
)


@settings(max_examples=250, deadline=None, derandomize=True)
@given(fd_exprs, _names, fd_points)
def test_differentiate_matches_finite_differences(e, var, pt):
    h = 1e-5
    exact = evaluate(differentiate(e, var), pt)
    hi = dict(pt)
    lo = dict(pt)
    hi[var] = pt[var] + h
    lo[var] = pt[var] - h
    fd = (evaluate(e, hi) - evaluate(e, lo)) / (2 * h)
    assert abs(fd - exact) <= 1e-6 * (1 + abs(exact))


@settings(max_examples=250, deadline=None, derandomize=True)
@given(fd_exprs, fd_exprs, st.integers(min_value=-3, max_value=3), _names)
def test_differentiate_linearity(e1, e2, a, var):
    combo = differentiate(Const(a) * e1 + e2, var)
    split = Const(a) * differentiate(e1, var) + differentiate(e2, var)
    spec = SampleSpec(
        box={"x": (-1, 1), "y": (-1, 1), "u": (-1, 1)}, count=16, tolerance=1e-9
    )
    assert equiv_random(combo, split, spec).ok


@settings(max_examples=250, deadline=None, derandomize=True)
@given(fd_exprs, fd_points)
def test_evaluate_deterministic(e, pt):
    assert evaluate(e, pt) == evaluate(e, pt)


@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul, operator.truediv])
def test_operators_coerce_exact_numbers_and_refuse_floats(op):
    x = Var("x")
    env = {"x": 0.5}
    assert evaluate(op(x, 2), env) == pytest.approx(op(0.5, 2))
    assert evaluate(op(Fraction(3, 2), x), env) == pytest.approx(op(1.5, 0.5))
    name = op.__name__
    assert getattr(x, f"__{name}__")(1.5) is NotImplemented
    assert getattr(x, f"__r{name}__")(1.5) is NotImplemented
    for a, b in ((x, 1.5), (1.5, x)):
        with pytest.raises(TypeError):
            op(a, b)


def test_as_expr_parses_text_and_coerces_the_rest():
    x = Var("x")
    assert expr.as_expr("x + lambda", COORDS, PARAMS) == P("x + lambda")
    assert expr.as_expr(x, COORDS) is x
    assert expr.as_expr(2, COORDS) == Const(2)
    with pytest.raises(TypeError):
        expr.as_expr(1.5, COORDS)
    with pytest.raises(ExprSyntaxError):
        expr.as_expr("lambda", COORDS)


def test_substitute_basic():
    e = P("p^2 + sin(p) + u")
    got = expr.substitute(e, "p", Const(0))
    spec = SampleSpec(box={"u": (-1, 1)})
    assert equiv_random(got, P("u"), spec).ok
