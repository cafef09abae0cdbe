import copy
import gc
import math
import operator
import pickle
import tracemalloc
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

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
        # a superscript is a digit but not decimal, and Fraction takes decimals only
        for text, offset in (("2²", 1), ("x + ²", 4)):
            with pytest.raises(ExprSyntaxError, match="unexpected character '²'") as err:
                P(text)
            assert err.value.position == offset

    @pytest.mark.parametrize("opener, closer", [("(", ")"), ("sin(", ")"), ("-", "")])
    def test_nesting_too_deep_is_a_syntax_error(self, opener, closer):
        # the parser's recursion limit is reached inside the nesting, and
        # the offset is that of the token it reached there
        text = opener * 3000 + "x" + closer * 3000
        with pytest.raises(ExprSyntaxError, match=r"^nesting too deep \(at offset \d+\)$") as err:
            P(text)
        assert 0 < err.value.position < len(opener) * 3000

    def test_long_flat_sum_parses(self):
        # a sum is parsed by a loop, so its length is no nesting (its
        # 3000-deep tree may still break down where it is walked)
        assert isinstance(P("+".join(["x"] * 3000)), expr.Add)


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

    def test_quotient_by_a_denominator_free_of_the_variable(self):
        # d(N/D) = dN/D: the denominator is kept, not squared
        e = P("sin(x*u)/(1 - u*v)")
        got = differentiate(e, "x")
        assert got is expr.div(differentiate(e.left, "x"), e.right)
        assert got is P("cos(x*u)*u/(1 - u*v)")
        num, den = e.left, e.right
        full = expr.div(
            expr.sub(expr.mul(differentiate(num, "x"), den), expr.mul(num, differentiate(den, "x"))),
            expr.pow_int(den, 2),
        )
        spec = SampleSpec(box={c: (-0.9, 0.9) for c in ("x", "u", "v")})
        assert equiv_random(got, full, spec).ok

    def test_quotient_by_a_denominator_with_the_variable(self):
        got = differentiate(P("sin(x)/(x + u)"), "x")
        spec = SampleSpec(box={"x": (0.5, 1.5), "u": (0.5, 1.5)})
        assert equiv_random(got, P("(cos(x)*(x + u) - sin(x))/(x + u)^2"), spec).ok

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
        st.tuples(st.sampled_from(tuple(expr._FUNCS)), children).map(
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


# total on the sample box: no ln, sqrt, tan or exp, and quotients and
# negative powers only of bases kept off zero
def _fd_leaf():
    return st.one_of(_names.map(Var), _consts)


def _fd_extend(children):
    binary = st.tuples(children, children)
    off_zero = st.one_of(  # at least 1 wherever the child is finite
        children.map(lambda c: expr.add(expr.ONE, expr.pow_int(c, 2))),
        children.map(lambda c: expr.add(Const(2), expr.sin(c))),
    )
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
        st.tuples(children, off_zero).map(lambda t: expr.div(*t)),
        st.tuples(off_zero, st.integers(min_value=-2, max_value=-1)).map(
            lambda t: expr.pow_int(*t)
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


# ---------------------------------------------------------------------------
# interning


def _same_tree(a, b):
    """Structural equality over `_fields`, the oracle for interning."""
    if type(a) is not type(b):
        return False
    for name in a._fields:
        x, y = getattr(a, name), getattr(b, name)
        if not (_same_tree(x, y) if isinstance(x, expr.Expr) else x == y):
            return False
    return True


def _rebuild(e):
    """A copy of `e` built bottom-up through the raw node constructors."""
    args = (getattr(e, name) for name in e._fields)
    return type(e)(*(_rebuild(a) if isinstance(a, expr.Expr) else a for a in args))


@settings(max_examples=250, deadline=None, derandomize=True)
@given(exprs, exprs)
def test_identity_is_structural_equality(a, b):
    assert (a is b) == _same_tree(a, b)
    assert _rebuild(a) is a
    assert parse(render(a), ["x", "y", "u"], ["lambda"]) is a


def test_copies_and_pickles_return_the_interned_node():
    e = P("p^2/lambda + sin(u)^-1")
    assert copy.copy(e) is e
    assert copy.deepcopy(e) is e
    assert pickle.loads(pickle.dumps(e)) is e


def test_nodes_are_immutable():
    e = Const(1)
    with pytest.raises(AttributeError):
        e.value = 2
    with pytest.raises(AttributeError):
        del e.value
    assert e.value == 1


def test_unshared_node_is_released():
    e = P("u^7 + 12345/677")
    ref = weakref.ref(e)
    del e
    gc.collect()
    assert ref() is None


@pytest.mark.parametrize(
    "kwargs",
    [
        {"box": {"u": (0.0, math.inf)}},
        {"box": {"u": (-math.inf, math.inf)}},
        {"params": {"lambda": math.inf}},
        {"params": {"lambda": math.nan}},
        {"params": {"lambda": (0.5, math.inf)}},
        {"params": {"lambda": (2.0, 0.5)}},  # a reversed range, by the box rule
        {"tolerance": math.inf},
        {"guard": math.inf},
    ],
)
def test_sample_spec_rejects_non_finite_numbers(kwargs):
    # an infinite interval draws nan (or inf) at every sample, and a check
    # over such points can pass without testing anything
    with pytest.raises(ValueError):
        SampleSpec(**{"box": {"u": (-1.0, 1.0)}, **kwargs})


# ---------------------------------------------------------------------------
# the tree walk that `evaluate` replaced, kept as its oracle: four guard
# branches, with guard None for the hard checks only


def _walk_require(cond_array, message):
    if np.any(cond_array):
        raise DomainError(message)


_WALK_FUNCS = {
    "sin": np.sin,
    "cos": np.cos,
    "tan": np.tan,
    "exp": np.exp,
    "ln": np.log,
    "sqrt": np.sqrt,
    "atan": np.arctan,
}


def _walk_evaluate(e, env, guard=None):
    if isinstance(e, expr.Const):
        return float(e.value)
    if isinstance(e, (expr.Var, expr.Param)):
        try:
            return env[e.name]
        except KeyError:
            raise expr.ExprError(f"unbound name '{e.name}'") from None
    if isinstance(e, expr.Add):
        return _walk_evaluate(e.left, env, guard) + _walk_evaluate(e.right, env, guard)
    if isinstance(e, expr.Sub):
        return _walk_evaluate(e.left, env, guard) - _walk_evaluate(e.right, env, guard)
    if isinstance(e, expr.Mul):
        return _walk_evaluate(e.left, env, guard) * _walk_evaluate(e.right, env, guard)
    if isinstance(e, expr.Div):
        denom = _walk_evaluate(e.right, env, guard)
        bound = guard if guard is not None else 0.0
        if bound > 0.0:
            _walk_require(np.abs(denom) < bound, "denominator inside guard")
        else:
            _walk_require(denom == 0, "division by zero")
        return _walk_evaluate(e.left, env, guard) / denom
    if isinstance(e, expr.Neg):
        return -_walk_evaluate(e.child, env, guard)
    if isinstance(e, expr.Pow):
        base = _walk_evaluate(e.base, env, guard)
        if e.exponent < 0:
            bound = guard if guard is not None else 0.0
            if bound > 0.0:
                _walk_require(np.abs(base) < bound, "power base inside guard")
            else:
                _walk_require(base == 0, "zero raised to a negative power")
        try:
            return base**e.exponent
        except OverflowError:  # a float power overflows to the array power's signed inf
            if not isinstance(base, float):
                raise
            return float(np.power(np.array([base]), e.exponent)[0])
    if isinstance(e, expr.Func):
        arg = _walk_evaluate(e.arg, env, guard)
        if e.name == "ln":
            bound = guard if guard is not None else 0.0
            _walk_require(arg <= bound, "ln argument too small")
        elif e.name == "sqrt":
            if guard is not None:
                _walk_require(arg < guard, "sqrt argument inside guard")
            else:
                _walk_require(arg < 0, "sqrt of a negative")
        return _WALK_FUNCS[e.name](arg)
    raise TypeError(f"cannot evaluate {type(e).__name__}")


# raw nodes, so that zero denominators, zero bases of negative powers and
# nonpositive ln/sqrt arguments reach evaluation unfolded
_raw_leaf = st.one_of(
    _names.map(Var),
    st.just(Param("lambda")),
    st.sampled_from([0, 1, -1, 2, Fraction(1, 2), Fraction(-1, 3)]).map(Const),
)


def _raw_extend(children):
    binary = st.tuples(children, children)
    return st.one_of(
        binary.map(lambda t: expr.Add(*t)),
        binary.map(lambda t: expr.Sub(*t)),
        binary.map(lambda t: expr.Mul(*t)),
        binary.map(lambda t: expr.Div(*t)),
        children.map(expr.Neg),
        st.tuples(children, st.integers(min_value=-3, max_value=3)).map(
            lambda t: expr.Pow(*t)
        ),
        st.tuples(st.sampled_from(tuple(expr._FUNCS)), children).map(
            lambda t: expr.Func(*t)
        ),
    )


raw_exprs = st.recursive(_raw_leaf, _raw_extend, max_leaves=10)
# on, just inside and just outside the guards 1e-6 and 0.5, and around zero
_near_guards = st.sampled_from(
    [0.0, -0.0, 1e-9, -1e-9, 5e-7, -5e-7, 1e-6, -1e-6, 2e-6, 0.5, -0.5, 0.25, 1.0, -1.5]
)
_value = st.one_of(_near_guards, st.floats(min_value=-2.0, max_value=2.0))
_binding = st.one_of(_value, st.lists(_value, min_size=3, max_size=3).map(np.array))
walk_envs = st.fixed_dictionaries({name: _binding for name in ["x", "y", "u", "lambda"]})


def _outcome(evaluate_fn, e, env, guard):
    try:
        with np.errstate(all="ignore"):
            return "value", evaluate_fn(e, env, guard)
    except (ArithmeticError, expr.ExprError) as err:
        return type(err), str(err)


_AT_ZERO = {"x": 0.0, "y": -1.0, "u": 1e-7, "lambda": 1.0}


@settings(max_examples=400, deadline=None, derandomize=True)
@given(raw_exprs, walk_envs, st.sampled_from([0.0, 1e-6, 0.5]))
# a denominator is evaluated, and so rejected, before its numerator
@example(expr.Div(expr.Func("ln", Var("y")), expr.Func("sqrt", Var("y"))), _AT_ZERO, 0.0)
@example(expr.Div(expr.Func("ln", Var("y")), expr.Func("sqrt", Var("u"))), _AT_ZERO, 1e-6)
@example(expr.Pow(Var("u"), -2), _AT_ZERO, 1e-6)
@example(expr.Pow(Var("x"), -1), _AT_ZERO, 0.0)
def test_evaluate_matches_the_tree_walk(e, env, guard):
    kind, got = _outcome(evaluate, e, env, guard)
    want_kind, want = _outcome(_walk_evaluate, e, env, None if guard == 0.0 else guard)
    assert kind == want_kind
    if kind != "value":
        assert got == want  # the same message
        return
    assert type(got) is type(want)
    assert np.shape(got) == np.shape(want)
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def _walk_roots(roots, env, guard=None):
    # several roots walked one after another: the first failure wins
    return tuple(_walk_evaluate(r, env, guard) for r in roots)


def _run_compiled(roots, env, guard):
    return expr.compile(roots)(env, guard)


_SHARED = expr.Div(expr.Func("sin", Var("x")), Var("u"))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    # the last root divides shared subtrees of the others
    st.lists(raw_exprs, min_size=1, max_size=3).map(lambda rs: (*rs, expr.Div(rs[-1], rs[0]))),
    walk_envs,
    st.sampled_from([0.0, 1e-6, 0.5]),
)
# roots that share subtrees, on an array environment
@example((_SHARED, expr.Mul(_SHARED, Var("x")), expr.Neg(_SHARED)),
         {**_AT_ZERO, "x": np.array([0.5, -1.0, 2.0]), "u": np.array([1.0, 2.0, -0.5])}, 0.0)
# a failing guard in the second root after a passing first root
@example((expr.Add(Var("x"), Var("y")), expr.Func("ln", Var("y"))), _AT_ZERO, 0.0)
@example((expr.Func("sqrt", Var("u")), expr.Div(Var("y"), Var("x"))), _AT_ZERO, 1e-6)
# an unbound name after a failing guard in walk order, and before one
@example((expr.Func("sqrt", Var("y")), expr.Add(Var("w"), Var("x"))), _AT_ZERO, 0.0)
@example((expr.Div(Var("w"), Var("x")),), _AT_ZERO, 0.0)
@example((Var("w"), expr.Func("sqrt", Var("y"))), _AT_ZERO, 0.0)
# a constant beyond the float range overflows where the walk converts it
@example((expr.Div(Const(10**400), Var("x")),), _AT_ZERO, 0.0)
@example((expr.Div(Const(10**400), Var("y")),), _AT_ZERO, 0.0)
@example((expr.Pow(Const(10**400), 2),), _AT_ZERO, 0.0)  # not read as a power that overflows
# a scalar power that overflows, of a large base and of a tiny one
@example((expr.Pow(Var("x"), 3), expr.Pow(Var("y"), -3)), {**_AT_ZERO, "x": -1e200, "y": -1e-200},
         0.0)
def test_compile_matches_the_tree_walk(roots, env, guard):
    kind, got = _outcome(_run_compiled, roots, env, guard)
    want_kind, want = _outcome(_walk_roots, roots, env, None if guard == 0.0 else guard)
    assert kind == want_kind
    if kind != "value":
        assert got == want  # the same message
        return
    assert len(got) == len(want) == len(roots)
    for value, expected in zip(got, want):
        assert type(value) is type(expected)
        assert np.shape(value) == np.shape(expected)
        assert np.asarray(value).tobytes() == np.asarray(expected).tobytes()


@pytest.mark.parametrize(
    "e, message",
    [
        (P("x/(1/10000000)"), "denominator inside guard"),
        (expr.Div(Var("x"), Const(Fraction(-1, 10**7))), "denominator inside guard"),
        (expr.Mul(Var("x"), expr.Pow(Const(Fraction(1, 10**7)), -1)), "power base inside guard"),
    ],
)
def test_constant_inside_a_positive_guard_raises(e, message):
    # the guard is an argument of the call, so a constant denominator or
    # negative-power base is checked at every call like any other operand
    compiled = expr.compile((e,))
    for run in (_walk_evaluate, evaluate, lambda e, env, guard: compiled(env, guard)[0]):
        with pytest.raises(DomainError, match=message):
            run(e, {"x": 1.0}, 1e-6)
        assert abs(run(e, {"x": 1.0}, 1e-8)) == pytest.approx(1e7)


@pytest.mark.parametrize("c", [Fraction(2), Fraction(-2), Fraction(1, 10**7), Fraction(1, 3)])
def test_constant_operand_checked_only_where_the_guard_reaches_it(monkeypatch, c):
    # a nonzero constant c is compared with the guard in the compiled code,
    # and its domain check runs only where guard > |c|: values and messages
    # stay the walk's on both sides of |c|, and at 0, nan and inf
    calls = []
    for name in ("Div_domain", "Pow_domain"):
        check = expr._SCOPE[name]
        monkeypatch.setitem(expr._SCOPE, name, lambda x, guard, check=check: (calls.append(x),
                                                                             check(x, guard)))
    x = Var("x")
    roots = (expr.Div(x + Var("y"), Const(c)), expr.Mul(x, expr.Pow(Const(c), -1)))
    m = abs(float(c))
    for guard in (0.0, -1.0, math.nan, m / 2, m, np.nextafter(m, np.inf), 2 * m, math.inf):
        for e in roots:
            calls.clear()
            env = {"x": np.array([1.0, -3.0]), "y": 0.5}
            got = _outcome(_run_compiled, (e,), env, guard)
            want = _outcome(_walk_roots, (e,), env, None if guard == 0.0 else guard)
            assert got[0] == want[0]
            if got[0] == "value":
                assert got[1][0].tobytes() == want[1][0].tobytes()
            else:
                assert got[1] == want[1]
            assert len(calls) == (guard > m)


@pytest.mark.parametrize("base, n, want", [
    (1e200, 3, math.inf), (-1e200, 3, -math.inf), (-1e200, 4, math.inf),
    (1e-200, -3, math.inf), (-1e-200, -3, -math.inf), (-1e-200, -2, math.inf),
])
def test_scalar_power_overflow_reads_the_array_powers_signed_inf(base, n, want):
    # Python's float ** raises OverflowError where numpy's array power
    # gives inf; the scalar result stays a Python float
    e = expr.Add(expr.Pow(Var("x"), n), Const(1))
    got = evaluate(e, {"x": base})
    assert type(got) is float and got == want
    with np.errstate(over="ignore"):
        assert evaluate(e, {"x": np.array([base])}).tolist() == [want]


def _distinct_nodes(e, seen=None):
    seen = set() if seen is None else seen
    if e not in seen:
        seen.add(e)
        for arg in e._args():
            if isinstance(arg, expr.Expr):
                _distinct_nodes(arg, seen)
    return seen


def test_compiled_temporaries_are_freed_after_last_use():
    e = P("sin(u)*u + cos(u)*2 - exp(u)/3 + u^2*lambda - atan(u)*u + tan(u)")
    assert len(_distinct_nodes(e)) == 20
    u = np.linspace(0.5, 1.5, 10**6).reshape(1000, 1000)
    tracemalloc.start()
    try:
        value = evaluate(e, {"u": u, "lambda": 2.0})
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert value.shape == u.shape
    assert peak <= 4 * u.nbytes


def test_compiled_node_is_released():
    e = P("u^7 + 4321/677 - lambda")
    key = (type(e), *e._args())
    assert evaluate(e, {"u": 0.5, "lambda": 2.0}) == 0.5**7 + 4321 / 677 - 2.0
    ref, cached = weakref.ref(e), (id(e),)
    assert cached in expr._COMPILED
    del e
    gc.collect()
    assert ref() is None
    assert key not in expr._NODES
    assert cached not in expr._COMPILED
