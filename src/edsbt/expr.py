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
from typing import Callable, Iterable, Mapping, NamedTuple, Optional, Union

import numpy as np


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


class _Domain(NamedTuple):
    """Where an operation is undefined: `rejects(x, guard)` marks the
    values it refuses, and the message names the cause, with a guard of
    0.0 (`hard`) or a positive one (`guarded`)."""

    rejects: Callable
    hard: str
    guarded: str

    def check(self, x, guard: float):
        bad = self.rejects(x, guard)
        if bad.any() if isinstance(bad, np.ndarray) else bad:
            raise DomainError(self.guarded if guard > 0 else self.hard)


def _near_zero(x, guard: float):
    return (abs(x) < guard) | (x == 0)


# the deepest tree parse accepts: the walks after it recurse, on derivatives
# deeper than the tree, and every command runs on flat sums, products and
# quotients of this depth, and on u/(v/(u/...)), which breaks down near 110
MAX_DEPTH = 100

# binding levels, weakest first; render parenthesizes by them
_LEVEL_ADD = 10
_LEVEL_MUL = 20
_LEVEL_NEG = 25
_LEVEL_POW = 30
_LEVEL_ATOM = 40

# a weak reference to every live node, keyed by (class, *field values); a
# node's death removes its key (see Expr.__new__)
_NODES = {}


def _forget(ref):
    if _NODES.get(ref.key) is ref:
        del _NODES[ref.key]


class Expr:
    """Base node.  Subclasses are Const, Var, Param, Add, Sub, Mul, Div,
    Pow, Neg, Func.

    Nodes are interned: constructing a node equal to a live one returns that
    node, so equal expressions are the same object and equality and hashing
    are identity.  Nodes are immutable.  `_fields` names the constructor
    arguments in order, and `level` is the node's binding level in rendered
    text.
    """

    __slots__ = ("_names", "__weakref__")
    _fields: tuple = ()
    level = _LEVEL_ATOM

    def __new__(cls, *args):
        if len(args) != len(cls._fields):
            raise TypeError(f"{cls.__name__} takes {len(cls._fields)} arguments")
        args = cls._normalize(*args)
        key = (cls, *args)
        ref = _NODES.get(key)
        node = ref and ref()
        if node is None:
            node = object.__new__(cls)
            for name, value in zip(cls._fields, args):
                object.__setattr__(node, name, value)
            _NODES[key] = weakref.KeyedRef(node, _forget, key)
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
        return Const(value)
    raise TypeError(f"cannot use {type(value).__name__} in an expression")


def as_expr(value, variables: Iterable[str], parameters: Iterable[str] = ()) -> Expr:
    """`value` as an Expr: text is parsed against the declared names, an
    Expr or exact number goes through _coerce."""
    if isinstance(value, str):
        return parse(value, variables, parameters)
    return _coerce(value)


class Const(Expr):
    __slots__ = _fields = ("value",)

    def __new__(cls, value):
        # an int or Fraction equals and hashes like the Fraction of its key,
        # so a live node is found without building a new Fraction
        ref = _NODES.get((cls, value)) if type(value) in (int, Fraction) else None
        node = ref and ref()
        return super().__new__(cls, value) if node is None else node

    @staticmethod
    def _normalize(value: Numeric) -> tuple:
        return (Fraction(value),)

    @property
    def level(self) -> int:
        # a negative constant renders with a leading '-' and a fraction with
        # '/'; the weakest level that applies keeps re-parses faithful
        if self.value < 0:
            return _LEVEL_ADD
        return _LEVEL_ATOM if self.value.denominator == 1 else _LEVEL_MUL


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
    # `op` is the infix symbol, in rendered text and in compiled code
    __slots__ = _fields = ("left", "right")
    op = "?"


class Add(_Binary):
    __slots__ = ()
    op, level = "+", _LEVEL_ADD


class Sub(_Binary):
    __slots__ = ()
    op, level = "-", _LEVEL_ADD


class Mul(_Binary):
    __slots__ = ()
    op, level = "*", _LEVEL_MUL


class Div(_Binary):
    __slots__ = ()
    op, level = "/", _LEVEL_MUL
    domain = _Domain(_near_zero, "division by zero", "denominator inside guard")


class Pow(Expr):
    """Integer power; the exponent is a plain int, never an expression.
    `domain` applies to the base of a negative power."""

    __slots__ = _fields = ("base", "exponent")
    level = _LEVEL_POW
    domain = _Domain(_near_zero, "zero raised to a negative power", "power base inside guard")

    @staticmethod
    def _normalize(base: Expr, exponent: int) -> tuple:
        return base, int(exponent)


class Neg(Expr):
    __slots__ = _fields = ("child",)
    level = _LEVEL_NEG


class Func(Expr):
    __slots__ = _fields = ("name", "arg")

    @staticmethod
    def _normalize(name: str, arg: Expr) -> tuple:
        if name not in _FUNCS:
            raise ExprError(f"unknown function '{name}'")
        return name, arg


# interned, so a node equal to one of them is that node
ZERO = Const(0)
ONE = Const(1)
_MINUS_ONE = Const(-1)


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
    if a is ZERO:
        return b
    if b is ZERO:
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
    if b is ZERO:
        return a
    if a is ZERO:
        return neg(b)
    if _comm_equal(a, b):
        return ZERO
    return Sub(a, b)


def mul(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value * b.value)
    if a is ZERO or b is ZERO:
        return ZERO
    if a is ONE:
        return b
    if b is ONE:
        return a
    if a is _MINUS_ONE:
        return neg(b)
    if b is _MINUS_ONE:
        return neg(a)
    return Mul(a, b)


def div(a: Expr, b: Expr) -> Expr:
    if b is ZERO:
        raise ExprError("division by constant zero")
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value / b.value)
    if b is ONE:
        return a
    if a is ZERO:
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


class _Function(NamedTuple):
    """One elementary function: its numpy function, the outer factor of its
    derivative as an Expr in the argument, its exact rational value at a
    rational argument (None where it has none), and its domain (None when
    it is defined everywhere)."""

    numpy: Callable
    derivative: Callable
    exact: Callable
    domain: Optional[_Domain]


def _exact_at(point: int, value: int):
    return lambda q: value if q == point else None


def _exact_sqrt(q: Fraction) -> Optional[Fraction]:
    if q < 0:
        return None
    num, den = math.isqrt(q.numerator), math.isqrt(q.denominator)
    if num * num != q.numerator or den * den != q.denominator:
        return None
    return Fraction(num, den)


_FUNCS = {
    "sin": _Function(np.sin, lambda a: cos(a), _exact_at(0, 0), None),
    "cos": _Function(np.cos, lambda a: neg(sin(a)), _exact_at(0, 1), None),
    "tan": _Function(np.tan, lambda a: add(ONE, pow_int(tan(a), 2)), _exact_at(0, 0), None),
    "exp": _Function(np.exp, lambda a: exp(a), _exact_at(0, 1), None),
    "ln": _Function(
        np.log, lambda a: div(ONE, a), _exact_at(1, 0),
        _Domain(lambda x, guard: x <= guard, "ln argument too small", "ln argument too small"),
    ),
    "sqrt": _Function(
        np.sqrt, lambda a: div(ONE, mul(Const(2), sqrt(a))), _exact_sqrt,
        _Domain(lambda x, guard: x < guard, "sqrt of a negative", "sqrt argument inside guard"),
    ),
    "atan": _Function(
        np.arctan, lambda a: div(ONE, add(ONE, pow_int(a, 2))), _exact_at(0, 0), None
    ),
}


def func(name: str, arg: Expr) -> Expr:
    # fold only the exactly-rational values of the table
    if isinstance(arg, Const) and name in _FUNCS:
        value = _FUNCS[name].exact(arg.value)
        if value is not None:
            return Const(value)
    return Func(name, arg)


# the folding constructor of each composite node class, by which
# substitute rebuilds a node from its fields
_FOLD = {Add: add, Sub: sub, Mul: mul, Div: div, Neg: neg, Pow: pow_int, Func: func}


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

    Parameters differentiate to zero.  A quotient whose denominator is
    free of `var` differentiates as d(numerator)/denominator; there is no
    other simplification beyond the constructors' constant folding.
    """
    if var not in e.names():
        return ZERO
    kind = type(e)
    if kind is Var:
        return ONE if e.name == var else ZERO
    if kind is Const or kind is Param:
        return ZERO
    if kind is Add:
        return add(differentiate(e.left, var), differentiate(e.right, var))
    if kind is Sub:
        return sub(differentiate(e.left, var), differentiate(e.right, var))
    if kind is Mul:
        return add(
            mul(differentiate(e.left, var), e.right),
            mul(e.left, differentiate(e.right, var)),
        )
    if kind is Div:
        if var not in e.right.names():
            return div(differentiate(e.left, var), e.right)
        num = sub(
            mul(differentiate(e.left, var), e.right),
            mul(e.left, differentiate(e.right, var)),
        )
        return div(num, pow_int(e.right, 2))
    if kind is Neg:
        return neg(differentiate(e.child, var))
    if kind is Pow:
        inner = differentiate(e.base, var)
        return mul(mul(Const(e.exponent), pow_int(e.base, e.exponent - 1)), inner)
    if kind is Func:
        inner = differentiate(e.arg, var)
        return mul(_FUNCS[e.name].derivative(e.arg), inner)
    raise TypeError(f"cannot differentiate {kind.__name__}")


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


def evaluate(e: Expr, env: Mapping[str, object], guard: float = 0.0):
    """Numeric value of `e` with names bound by `env`: the one-root case of
    `compile`.

    Values in `env` may be floats or numpy arrays (broadcast elementwise).
    DomainError is raised for a denominator or negative-power base x with
    |x| < guard or x == 0, an ln argument <= guard, or a sqrt argument
    < guard.  The default guard 0.0 leaves only the hard checks; the
    message says whether a hard check or a positive guard fired.  A
    denominator is evaluated before its numerator.  A float power that
    overflows reads the signed inf that an array power gives.
    """
    return compile((e,))(env, guard)[0]


def _power_overflow(base, n: int):
    """Where a float power overflows, the signed inf that an array power
    gives; an int base beyond the float range raises as before."""
    if not isinstance(base, float):
        return base**n
    return math.copysign(math.inf, base) if n % 2 else math.inf


# what compiled code calls: each function by its name, the domain check of
# each function, Div and Pow as `<name>_domain`, and _power_overflow
_SCOPE = {"ExprError": ExprError, "Fraction": Fraction, "power_overflow": _power_overflow,
          **{n: f.numpy for n, f in _FUNCS.items()}}
_SCOPE.update((f"{n}_domain", owner.domain.check)
              for n, owner in [*_FUNCS.items(), ("Div", Div), ("Pow", Pow)] if owner.domain)
_SOURCE = """\
def compiled(env, guard):
    try:
        {body}
    except KeyError as err:
        raise ExprError(f"unbound name '{{err.args[0]}}'") from None
    return ({results})
"""
# compiled functions by the ids of their roots; a root's death drops its entry
_COMPILED = {}


def compile(roots: Iterable[Expr]) -> Callable:
    """`fn(env, guard)`: the tuple of the values of `roots` by `evaluate`'s
    rule, from straight-line code with one statement per distinct node, in
    the order a tree walk of the roots first visits it.  So the walk's first
    failing guard or unbound name raises, and the values are bitwise the
    walk's.  Each temporary is deleted after its last use."""
    roots = tuple(roots)
    key = tuple(map(id, roots))
    if key not in _COMPILED:
        fn = _COMPILED[key] = _emit(roots)
        fn.refs = [weakref.ref(r, lambda _ref: _COMPILED.pop(key, None)) for r in roots]
    return _COMPILED[key]


def _emit(roots: tuple) -> Callable:
    temps, body = {}, []  # node -> its temporary; (statement, temporaries it reads)

    def put(e, code, *reads):
        temps[e] = f"t{len(temps)}"
        body.append((f"{temps[e]} = {code}", reads))
        return temps[e]

    def check(name, x, operand=None):  # operand: the node x holds
        code = f"{name}_domain({x}, guard)"
        if type(operand) is Const:  # a nonzero c is near zero exactly where guard > |c|
            try:
                c = abs(float(operand.value))
            except OverflowError:  # the constant's own statement raises first
                c = 0.0
            if c:
                code = f"if guard > {c!r}: {code}"
        body.append((code, (x,)))

    def visit(e):
        kind = type(e)
        if e in temps:
            return temps[e]
        if kind is Const:
            try:
                return put(e, repr(float(e.value)))
            except OverflowError:  # raise it where the walk did
                return put(e, f"float(Fraction({e.value.numerator}, {e.value.denominator}))")
        if kind is Var or kind is Param:
            return put(e, f"env[{e.name!r}]")
        if kind is Div:  # a denominator is checked before its numerator is computed
            right = visit(e.right)
            check("Div", right, e.right)
            return put(e, f"{visit(e.left)} / {right}", temps[e.left], right)
        if isinstance(e, _Binary):
            left, right = visit(e.left), visit(e.right)
            return put(e, f"{left} {e.op} {right}", left, right)
        if kind is Neg:
            child = visit(e.child)
            return put(e, f"-{child}", child)
        if kind is Pow:
            base = visit(e.base)
            if e.exponent < 0:
                check("Pow", base, e.base)
            power = put(e, f"{base} ** {e.exponent}", base)
            # a float power raises OverflowError where an array's reads inf;
            # the try costs nothing until it raises
            body[-1] = (f"try:\n    {body[-1][0]}\nexcept OverflowError:\n"
                        f"    {power} = power_overflow({base}, {e.exponent})", (base,))
            return power
        if kind is not Func:
            raise TypeError(f"cannot evaluate {kind.__name__}")
        arg = visit(e.arg)
        if _FUNCS[e.name].domain is not None:
            check(e.name, arg)
        return put(e, f"{e.name}({arg})", arg)

    results = [visit(r) for r in roots]
    last = {t: i for i, (_, reads) in enumerate(body) for t in reads}
    lines = []
    for i, (statement, reads) in enumerate(body):
        dead = sorted({t for t in reads if last[t] == i}.difference(results))
        lines += [statement, f"del {', '.join(dead)}"] if dead else [statement]
    source = _SOURCE.format(body="\n".join(lines or ["pass"]).replace("\n", "\n        "),
                            results="".join(r + ", " for r in results))
    scope = {}
    exec(source, _SCOPE, scope)
    return scope["compiled"]


# ---------------------------------------------------------------------------
# rendering (inverse of parse, minimal parentheses)


def _operand(e: Expr, level: int) -> str:
    # an operand binding weaker than `level` needs parentheses
    text = render(e)
    return f"({text})" if e.level < level else text


def render(e: Expr) -> str:
    """Serialize to the expression grammar; parse(render(e)) is e."""
    kind = type(e)
    if kind is Const:
        v = e.value
        return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"
    if kind is Var or kind is Param:
        return e.name
    if kind is Func:
        return f"{e.name}({render(e.arg)})"
    if kind is Neg:
        return f"-{_operand(e.child, _LEVEL_NEG)}"
    if kind is Pow:
        return f"{_operand(e.base, _LEVEL_ATOM)}^{e.exponent}"
    if isinstance(e, _Binary):
        # operators associate to the left: an equal-level right operand
        # needs parentheses too
        return f"{_operand(e.left, e.level)}{e.op}{_operand(e.right, e.level + 1)}"
    raise TypeError(kind.__name__)


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
                if tok.text not in _FUNCS:
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
    """Parse `text` against declared coordinate and parameter names.
    Nesting too deep for the recursive descent is a syntax error at the
    token it reached, and a tree deeper than MAX_DEPTH one at offset 0."""
    parser = _Parser(text, variables, parameters)
    try:
        e = parser.parse()
    except RecursionError:
        raise ExprSyntaxError("nesting too deep", parser.peek().pos) from None
    level = {e}  # the nodes MAX_DEPTH steps below e, found without recursion
    for _ in range(MAX_DEPTH):
        level = {arg for node in level for arg in node._args() if isinstance(arg, Expr)}
    if level:
        raise ExprSyntaxError(f"expression tree deeper than {MAX_DEPTH} nodes", 0)
    return e


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
    to fixed values or to (lo, hi) ranges that are sampled per point.  Every
    number is finite, and an interval or range has lo < hi.
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
        for name in ("guard", "tolerance"):
            value = getattr(self, name)
            if not value > 0:  # NaN compares false, so it fails here
                raise ValueError(f"{name} must be positive")
            if value == math.inf:
                raise ValueError(f"{name} must be finite")
        ranges = {k: v for k, v in self.params.items() if isinstance(v, tuple)}
        for name, (lo, hi) in [*self.box.items(), *ranges.items()]:
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise ValueError(f"non-finite interval for '{name}'")
            if not lo < hi:
                raise ValueError(f"degenerate interval for '{name}'")
        for name, value in self.params.items():
            if name not in ranges and not math.isfinite(value):
                raise ValueError(f"non-finite value for '{name}'")


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

    pair = compile((e1, e2))

    def deviation(pt: Point) -> float:
        v1, v2 = pair(pt.env(), spec.guard)
        return abs(v1 - v2) / (1.0 + abs(v1) + abs(v2))

    return sampled_check(spec, deviation)
