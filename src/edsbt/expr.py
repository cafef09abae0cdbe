"""Symbolic scalar expressions: parsing, exact differentiation, numeric
evaluation, and randomized identity testing.

Expressions are immutable trees over a fixed vocabulary (rational constants,
chart variables, named parameters, arithmetic, integer powers, and the
functions sin, cos, tan, exp, ln, sqrt, atan).  Nodes are interned, so equal
trees are the same object and share their subtrees.  There is no general
simplifier: identities are certified numerically by `equiv_random`, which
samples a box and compares values against a relative tolerance.  Construction
performs constant folding only, so differentiation stays exact.
"""

from __future__ import annotations

import math
import random
import weakref
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Union

import numpy as np

FUNCTIONS = ("sin", "cos", "tan", "exp", "ln", "sqrt", "atan")

_NUMPY_FUNCS = {
    "sin": np.sin,
    "cos": np.cos,
    "tan": np.tan,
    "exp": np.exp,
    "ln": np.log,
    "sqrt": np.sqrt,
    "atan": np.arctan,
}


class ExprError(ValueError):
    """Malformed expression construction (division by exact zero, etc.)."""


class ExprSyntaxError(ExprError):
    """Parse failure; `position` is the 0-based offset into the source text."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class DomainError(ArithmeticError):
    """Evaluation hit a guard: ln/sqrt argument too small, tiny denominator."""


class SamplingError(RuntimeError):
    """Randomized sampling could not find enough guard-admissible points."""


Numeric = Union[int, Fraction]

# every live node, keyed by (class, *field values); see Expr.__new__
_NODES = weakref.WeakValueDictionary()


class Expr:
    """Base node.  Subclasses are Const, Var, Param, Add, Sub, Mul, Div,
    Pow, Neg, Func.

    Nodes are interned: constructing a node equal to a live one returns that
    node, so equal expressions are the same object and equality and hashing
    are identity.  Nodes are immutable.  `_fields` names the constructor
    arguments in order.
    """

    __slots__ = ("_names", "__weakref__")
    _fields: tuple = ()

    def __new__(cls, *args):
        if len(args) != len(cls._fields):
            raise TypeError(f"{cls.__name__} takes {len(cls._fields)} arguments")
        args = cls._normalize(*args)
        key = (cls, *args)
        node = _NODES.get(key)
        if node is None:
            node = object.__new__(cls)
            for name, value in zip(cls._fields, args):
                object.__setattr__(node, name, value)
            _NODES[key] = node
        return node

    @staticmethod
    def _normalize(*args) -> tuple:
        return args

    def _args(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __setattr__(self, name, value):
        # a node is shared by every tree that holds it
        raise AttributeError(f"{type(self).__name__} nodes are immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} nodes are immutable")

    def __reduce__(self):
        # copy, deepcopy and pickle rebuild through the interning constructor
        return type(self), self._args()

    # + - * / are attached after the folding constructors, see _operator
    def __neg__(self):
        return neg(self)

    def __pow__(self, n: int):
        return pow_int(self, n)

    def names(self) -> frozenset:
        """Set of variable and parameter names appearing in the tree."""
        got = getattr(self, "_names", None)
        if got is None:
            got = self._compute_names()
            object.__setattr__(self, "_names", got)
        return got

    def _compute_names(self) -> frozenset:
        return frozenset().union(
            *(arg.names() for arg in self._args() if isinstance(arg, Expr))
        )

    def __repr__(self):
        return f"<Expr {render(self)}>"

    def __str__(self):
        return render(self)


def _coerce(value) -> Expr:
    if isinstance(value, Expr):
        return value
    if isinstance(value, (int, Fraction)):
        return Const(Fraction(value))
    raise TypeError(f"cannot use {type(value).__name__} in an expression")


def as_expr(value, variables: Iterable[str], parameters: Iterable[str] = ()) -> Expr:
    """`value` as an Expr: text is parsed against the declared names, an
    Expr or exact number goes through _coerce."""
    if isinstance(value, str):
        return parse(value, variables, parameters)
    return _coerce(value)


class Const(Expr):
    __slots__ = _fields = ("value",)

    @staticmethod
    def _normalize(value: Numeric) -> tuple:
        return (Fraction(value),)


class Var(Expr):
    """Chart coordinate."""

    __slots__ = _fields = ("name",)

    def _compute_names(self):
        return frozenset((self.name,))


class Param(Expr):
    """Named parameter (constant under differentiation)."""

    __slots__ = _fields = ("name",)

    def _compute_names(self):
        return frozenset((self.name,))


class _Binary(Expr):
    __slots__ = _fields = ("left", "right")
    op = "?"


class Add(_Binary):
    __slots__ = ()
    op = "+"


class Sub(_Binary):
    __slots__ = ()
    op = "-"


class Mul(_Binary):
    __slots__ = ()
    op = "*"


class Div(_Binary):
    __slots__ = ()
    op = "/"


class Pow(Expr):
    """Integer power; the exponent is a plain int, never an expression."""

    __slots__ = _fields = ("base", "exponent")

    @staticmethod
    def _normalize(base: Expr, exponent: int) -> tuple:
        return base, int(exponent)


class Neg(Expr):
    __slots__ = _fields = ("child",)


class Func(Expr):
    __slots__ = _fields = ("name", "arg")

    @staticmethod
    def _normalize(name: str, arg: Expr) -> tuple:
        if name not in FUNCTIONS:
            raise ExprError(f"unknown function '{name}'")
        return name, arg


ZERO = Const(0)
ONE = Const(1)


def _is_const(e: Expr, value=None) -> bool:
    if not isinstance(e, Const):
        return False
    return True if value is None else e.value == value


# ---------------------------------------------------------------------------
# folding constructors


def _comm_equal(a: Expr, b: Expr) -> bool:
    # equality up to swapping the operands of one top-level Add/Mul
    if a is b:
        return True
    if type(a) is not type(b) or not isinstance(a, (Add, Mul)):
        return False
    return a.left is b.right and a.right is b.left


def add(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value + b.value)
    if _is_const(a, 0):
        return b
    if _is_const(b, 0):
        return a
    # structural cancellation keeps wedge products of equal forms exactly zero
    if isinstance(b, Neg) and _comm_equal(b.child, a):
        return ZERO
    if isinstance(a, Neg) and _comm_equal(a.child, b):
        return ZERO
    return Add(a, b)


def sub(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value - b.value)
    if _is_const(b, 0):
        return a
    if _is_const(a, 0):
        return neg(b)
    if _comm_equal(a, b):
        return ZERO
    return Sub(a, b)


def mul(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value * b.value)
    if _is_const(a, 0) or _is_const(b, 0):
        return ZERO
    if _is_const(a, 1):
        return b
    if _is_const(b, 1):
        return a
    if _is_const(a, -1):
        return neg(b)
    if _is_const(b, -1):
        return neg(a)
    return Mul(a, b)


def div(a: Expr, b: Expr) -> Expr:
    if _is_const(b, 0):
        raise ExprError("division by constant zero")
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value / b.value)
    if _is_const(b, 1):
        return a
    if _is_const(a, 0):
        return ZERO
    return Div(a, b)


def _operator(build, reflected=False):
    """Operator sugar routed through a folding constructor; other operand
    types get NotImplemented."""

    def method(self, other):
        if not isinstance(other, (Expr, int, Fraction)):
            return NotImplemented
        other = _coerce(other)
        return build(other, self) if reflected else build(self, other)

    return method


Expr.__add__, Expr.__radd__ = _operator(add), _operator(add, reflected=True)
Expr.__sub__, Expr.__rsub__ = _operator(sub), _operator(sub, reflected=True)
Expr.__mul__, Expr.__rmul__ = _operator(mul), _operator(mul, reflected=True)
Expr.__truediv__, Expr.__rtruediv__ = _operator(div), _operator(div, reflected=True)


def neg(a: Expr) -> Expr:
    if isinstance(a, Const):
        return Const(-a.value)
    if isinstance(a, Neg):
        return a.child
    return Neg(a)


def pow_int(a: Expr, n: int) -> Expr:
    n = int(n)
    if n == 0:
        return ONE
    if n == 1:
        return a
    if isinstance(a, Const):
        if a.value == 0 and n < 0:
            raise ExprError("zero to a negative power")
        return Const(a.value**n)
    return Pow(a, n)


_EXACT_AT_ZERO = {"sin": ZERO, "tan": ZERO, "atan": ZERO, "cos": ONE, "exp": ONE}


def func(name: str, arg: Expr) -> Expr:
    # fold only the handful of exactly-rational special values
    if isinstance(arg, Const):
        if arg.value == 0 and name in _EXACT_AT_ZERO:
            return _EXACT_AT_ZERO[name]
        if name == "ln" and arg.value == 1:
            return ZERO
        if name == "sqrt" and arg.value >= 0:
            root = _exact_sqrt(arg.value)
            if root is not None:
                return Const(root)
    return Func(name, arg)


# the folding constructor of each composite node class, by which
# substitute rebuilds a node from its fields
_FOLD = {Add: add, Sub: sub, Mul: mul, Div: div, Neg: neg, Pow: pow_int, Func: func}


def _exact_sqrt(q: Fraction) -> Optional[Fraction]:
    num = _isqrt_exact(q.numerator)
    den = _isqrt_exact(q.denominator)
    if num is None or den is None:
        return None
    return Fraction(num, den)


def _isqrt_exact(n: int) -> Optional[int]:
    r = math.isqrt(n)
    return r if r * r == n else None


def sin(a) -> Expr:
    return func("sin", _coerce(a))


def cos(a) -> Expr:
    return func("cos", _coerce(a))


def tan(a) -> Expr:
    return func("tan", _coerce(a))


def exp(a) -> Expr:
    return func("exp", _coerce(a))


def ln(a) -> Expr:
    return func("ln", _coerce(a))


def sqrt(a) -> Expr:
    return func("sqrt", _coerce(a))


def atan(a) -> Expr:
    return func("atan", _coerce(a))


# ---------------------------------------------------------------------------
# differentiation


def differentiate(e: Expr, var: str) -> Expr:
    """Exact partial derivative with respect to the coordinate `var`.

    Parameters differentiate to zero.  No simplification beyond the
    constructors' constant folding.
    """
    if var not in e.names():
        return ZERO
    if isinstance(e, Var):
        return ONE if e.name == var else ZERO
    if isinstance(e, (Const, Param)):
        return ZERO
    if isinstance(e, Add):
        return add(differentiate(e.left, var), differentiate(e.right, var))
    if isinstance(e, Sub):
        return sub(differentiate(e.left, var), differentiate(e.right, var))
    if isinstance(e, Mul):
        return add(
            mul(differentiate(e.left, var), e.right),
            mul(e.left, differentiate(e.right, var)),
        )
    if isinstance(e, Div):
        num = sub(
            mul(differentiate(e.left, var), e.right),
            mul(e.left, differentiate(e.right, var)),
        )
        return div(num, pow_int(e.right, 2))
    if isinstance(e, Neg):
        return neg(differentiate(e.child, var))
    if isinstance(e, Pow):
        inner = differentiate(e.base, var)
        return mul(mul(Const(e.exponent), pow_int(e.base, e.exponent - 1)), inner)
    if isinstance(e, Func):
        inner = differentiate(e.arg, var)
        a = e.arg
        if e.name == "sin":
            outer = cos(a)
        elif e.name == "cos":
            outer = neg(sin(a))
        elif e.name == "tan":
            outer = add(ONE, pow_int(tan(a), 2))
        elif e.name == "exp":
            outer = exp(a)
        elif e.name == "ln":
            outer = div(ONE, a)
        elif e.name == "sqrt":
            outer = div(ONE, mul(Const(2), sqrt(a)))
        else:  # atan
            outer = div(ONE, add(ONE, pow_int(a, 2)))
        return mul(outer, inner)
    raise TypeError(f"cannot differentiate {type(e).__name__}")


def substitute(e: Expr, name: str, replacement: Expr) -> Expr:
    """Replace every Var/Param occurrence of `name` by `replacement`."""
    if name not in e.names():
        return e
    if isinstance(e, (Var, Param)):
        return replacement
    args = (
        substitute(arg, name, replacement) if isinstance(arg, Expr) else arg
        for arg in e._args()
    )
    return _FOLD[type(e)](*args)


# ---------------------------------------------------------------------------
# evaluation


def _require(cond_array, message: str):
    # cond_array: boolean scalar or array; raise when any entry violates
    if np.any(cond_array):
        raise DomainError(message)


def evaluate(e: Expr, env: Mapping[str, object], guard: Optional[float] = None):
    """Numeric value of `e` with names bound by `env`.

    Values in `env` may be floats or numpy arrays (broadcast elementwise).
    With a guard, denominators and ln/sqrt arguments smaller than it in
    absolute value raise DomainError; without one, only hard domain
    violations (division by zero, ln/sqrt of a nonpositive) do.
    """
    if isinstance(e, Const):
        return float(e.value)
    if isinstance(e, (Var, Param)):
        try:
            return env[e.name]
        except KeyError:
            raise ExprError(f"unbound name '{e.name}'") from None
    if isinstance(e, Add):
        return evaluate(e.left, env, guard) + evaluate(e.right, env, guard)
    if isinstance(e, Sub):
        return evaluate(e.left, env, guard) - evaluate(e.right, env, guard)
    if isinstance(e, Mul):
        return evaluate(e.left, env, guard) * evaluate(e.right, env, guard)
    if isinstance(e, Div):
        denom = evaluate(e.right, env, guard)
        bound = guard if guard is not None else 0.0
        if bound > 0.0:
            _require(np.abs(denom) < bound, "denominator inside guard")
        else:
            _require(denom == 0, "division by zero")
        return evaluate(e.left, env, guard) / denom
    if isinstance(e, Neg):
        return -evaluate(e.child, env, guard)
    if isinstance(e, Pow):
        base = evaluate(e.base, env, guard)
        if e.exponent < 0:
            bound = guard if guard is not None else 0.0
            if bound > 0.0:
                _require(np.abs(base) < bound, "power base inside guard")
            else:
                _require(base == 0, "zero raised to a negative power")
        return base**e.exponent
    if isinstance(e, Func):
        arg = evaluate(e.arg, env, guard)
        if e.name == "ln":
            bound = guard if guard is not None else 0.0
            _require(arg <= bound, "ln argument too small")
        elif e.name == "sqrt":
            if guard is not None:
                _require(arg < guard, "sqrt argument inside guard")
            else:
                _require(arg < 0, "sqrt of a negative")
        return _NUMPY_FUNCS[e.name](arg)
    raise TypeError(f"cannot evaluate {type(e).__name__}")


# ---------------------------------------------------------------------------
# rendering (inverse of parse, minimal parentheses)

_LEVEL_ADD = 10
_LEVEL_MUL = 20
_LEVEL_NEG = 25
_LEVEL_POW = 30
_LEVEL_ATOM = 40


def _level(e: Expr) -> int:
    if isinstance(e, Const):
        if e.value < 0:
            # negative constants render with a leading '-', and fractions
            # additionally with '/'; weakest level keeps re-parses faithful
            return _LEVEL_ADD
        return _LEVEL_ATOM if e.value.denominator == 1 else _LEVEL_MUL
    if isinstance(e, (Var, Param, Func)):
        return _LEVEL_ATOM
    if isinstance(e, (Add, Sub)):
        return _LEVEL_ADD
    if isinstance(e, (Mul, Div)):
        return _LEVEL_MUL
    if isinstance(e, Neg):
        return _LEVEL_NEG
    if isinstance(e, Pow):
        return _LEVEL_POW
    raise TypeError(type(e).__name__)


def render(e: Expr) -> str:
    """Serialize to the expression grammar; parse(render(e)) is e."""
    if isinstance(e, Const):
        v = e.value
        return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"
    if isinstance(e, (Var, Param)):
        return e.name
    if isinstance(e, Func):
        return f"{e.name}({render(e.arg)})"
    if isinstance(e, Neg):
        inner = render(e.child)
        if _level(e.child) < _LEVEL_NEG:
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(e, Pow):
        base = render(e.base)
        ok_bare = isinstance(e.base, (Var, Param, Func)) or (
            isinstance(e.base, Const)
            and e.base.value >= 0
            and e.base.value.denominator == 1
        )
        if not ok_bare:
            base = f"({base})"
        return f"{base}^{e.exponent}"
    if isinstance(e, _Binary):
        lvl = _level(e)
        left = render(e.left)
        if _level(e.left) < lvl:
            left = f"({left})"
        right = render(e.right)
        if _level(e.right) <= lvl:
            right = f"({right})"
        return f"{left}{e.op}{right}"
    raise TypeError(type(e).__name__)


# ---------------------------------------------------------------------------
# parsing


class _Token:
    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind, text, pos):
        self.kind = kind
        self.text = text
        self.pos = pos


def _tokenize(text: str):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c.isdecimal():
            j = i + 1
            while j < n and text[j].isdecimal():
                j += 1
            if j < n and text[j] == ".":
                j += 1
                if j >= n or not text[j].isdecimal():
                    raise ExprSyntaxError("digits expected after decimal point", j)
                while j < n and text[j].isdecimal():
                    j += 1
            tokens.append(_Token("number", text[i:j], i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("ident", text[i:j], i))
            i = j
            continue
        if c in "+-*/^()":
            tokens.append(_Token(c, c, i))
            i += 1
            continue
        raise ExprSyntaxError(f"unexpected character '{c}'", i)
    tokens.append(_Token("end", "", n))
    return tokens


class _Parser:
    def __init__(self, text: str, variables, parameters):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.variables = frozenset(variables)
        self.parameters = frozenset(parameters)

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def take(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.take()
        if tok.kind != kind:
            raise ExprSyntaxError(f"expected '{kind}'", tok.pos)
        return tok

    def parse(self) -> Expr:
        e = self.expr()
        tail = self.peek()
        if tail.kind != "end":
            raise ExprSyntaxError(f"unexpected '{tail.text}'", tail.pos)
        return e

    def expr(self) -> Expr:
        e = self.term()
        while self.peek().kind in ("+", "-"):
            op = self.take().kind
            rhs = self.term()
            e = add(e, rhs) if op == "+" else sub(e, rhs)
        return e

    def term(self) -> Expr:
        e = self.factor()
        while self.peek().kind in ("*", "/"):
            op = self.take().kind
            rhs = self.factor()
            e = mul(e, rhs) if op == "*" else div(e, rhs)
        return e

    def factor(self) -> Expr:
        # unary minus binds looser than '^': -x^2 means -(x^2)
        if self.peek().kind == "-":
            self.take()
            return neg(self.factor())
        base = self.base()
        if self.peek().kind == "^":
            self.take()
            return pow_int(base, self.exponent())
        return base

    def exponent(self) -> int:
        sign = 1
        if self.peek().kind == "-":
            self.take()
            sign = -1
        tok = self.take()
        if tok.kind != "number" or "." in tok.text:
            raise ExprSyntaxError("integer exponent expected", tok.pos)
        return sign * int(tok.text)

    def base(self) -> Expr:
        tok = self.take()
        if tok.kind == "number":
            return Const(Fraction(tok.text))
        if tok.kind == "(":
            e = self.expr()
            self.expect(")")
            return e
        if tok.kind == "ident":
            if self.peek().kind == "(":
                if tok.text not in FUNCTIONS:
                    raise ExprSyntaxError(f"unknown function '{tok.text}'", tok.pos)
                self.take()
                arg = self.expr()
                closer = self.take()
                if closer.kind != ")":
                    raise ExprSyntaxError("expected ')'", closer.pos)
                return func(tok.text, arg)
            if tok.text in self.variables:
                return Var(tok.text)
            if tok.text in self.parameters:
                return Param(tok.text)
            raise ExprSyntaxError(f"undeclared identifier '{tok.text}'", tok.pos)
        raise ExprSyntaxError(f"unexpected '{tok.text or 'end of input'}'", tok.pos)


def parse(text: str, variables: Iterable[str], parameters: Iterable[str] = ()) -> Expr:
    """Parse `text` against declared coordinate and parameter names."""
    return _Parser(text, variables, parameters).parse()


# ---------------------------------------------------------------------------
# sampling


@dataclass(frozen=True)
class Point:
    """A concrete evaluation point: coordinate and parameter bindings."""

    coords: Mapping[str, float]
    params: Mapping[str, float] = field(default_factory=dict)

    def env(self) -> dict:
        merged = dict(self.coords)
        merged.update(self.params)
        return merged

    def flat(self) -> str:
        items = sorted(self.coords.items()) + sorted(self.params.items())
        return " ".join(f"{k}={v!r}" for k, v in items)


@dataclass(frozen=True)
class SampleSpec:
    """Randomized verification policy: where to sample, how many, how strict.

    `box` maps coordinate names to intervals; `params` maps parameter names
    to fixed values or to (lo, hi) ranges that are sampled per point.
    """

    box: Mapping[str, tuple] = field(default_factory=dict)
    params: Mapping[str, object] = field(default_factory=dict)
    count: int = 64
    seed: int = 0
    guard: float = 1e-6
    tolerance: float = 1e-9

    def __post_init__(self):
        if self.count < 1:
            raise ValueError("count must be >= 1")
        if not self.guard > 0:  # NaN compares false, so it fails here
            raise ValueError("guard must be positive")
        if not self.tolerance > 0:
            raise ValueError("tolerance must be positive")
        for name, (lo, hi) in self.box.items():
            if not lo < hi:
                raise ValueError(f"degenerate interval for '{name}'")


_MAX_REDRAWS = 80


def _draw(spec: SampleSpec, rng: random.Random) -> Point:
    coords = {name: rng.uniform(lo, hi) for name, (lo, hi) in spec.box.items()}
    params = {}
    for name, value in spec.params.items():
        if isinstance(value, tuple):
            lo, hi = value
            params[name] = rng.uniform(lo, hi)
        else:
            params[name] = float(value)
    return Point(coords, params)


def finite_or(value, replacement: float):
    """`value` as a float, or an array of them elementwise, with each
    non-finite one read as `replacement`."""
    if isinstance(value, np.ndarray):
        return np.where(np.isfinite(value), value, replacement)
    value = float(value)
    return value if math.isfinite(value) else replacement


def finite_or_inf(value):
    """`value` as a violation: a non-finite one reads as inf, so no
    comparison on the way to a verdict can skip it."""
    return finite_or(value, math.inf)


def sampled_check(spec: SampleSpec, violation_at) -> "CheckResult":
    """Reduce `violation_at(point) -> float` over the samples of
    sampled_collect: the worst violation, its witness (the first point to
    reach it), and the pass verdict `max_violation <= spec.tolerance`.

    A non-finite violation counts as inf and so fails the check.
    """
    worst = 0.0
    witness = None
    for pt, v in sampled_collect(spec, violation_at):
        v = finite_or_inf(v)
        if v > worst or witness is None:
            worst = v
            witness = pt
    return CheckResult(worst <= spec.tolerance, worst, witness, spec.count)


def sampled_collect(spec: SampleSpec, value_at) -> list:
    """Collect `(point, value_at(point))` at `spec.count` guarded samples.

    Sample i draws from its own stream, seeded by the string
    "{spec.seed}:{i}", so distinct seeds draw distinct points.  Points where
    the callback raises DomainError are redrawn from the same stream
    (deterministic, bounded); SamplingError after _MAX_REDRAWS rejections.
    """
    out = []
    for i in range(spec.count):
        rng = random.Random(f"{spec.seed}:{i}")
        for _attempt in range(_MAX_REDRAWS):
            pt = _draw(spec, rng)
            try:
                out.append((pt, value_at(pt)))
            except DomainError:
                continue
            break
        else:
            raise SamplingError(
                f"guard rejected {_MAX_REDRAWS} consecutive points (sample {i})"
            )
    return out


@dataclass(frozen=True)
class CheckResult:
    """Common shape for sampled verdicts."""

    ok: bool
    max_violation: float
    witness: Optional[Point]
    samples: int

    def __bool__(self):
        return self.ok


def equiv_random(e1: Expr, e2: Expr, spec: SampleSpec) -> CheckResult:
    """Randomized identity test: |e1 - e2| <= tol*(1 + |e1| + |e2|) at every
    accepted sample.  max_violation is the worst relative deviation."""

    def deviation(pt: Point) -> float:
        env = pt.env()
        v1 = evaluate(e1, env, spec.guard)
        v2 = evaluate(e2, env, spec.guard)
        return abs(v1 - v2) / (1.0 + abs(v1) + abs(v2))

    return sampled_check(spec, deviation)
