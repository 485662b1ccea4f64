"""Integrand expressions: parsing, evaluation, symbolic differentiation.

The accepted language covers exactly the integrand corpus: arithmetic,
``exp``, ``ln``, and the truncated power helper ``plus`` with
``plus(u) = max(u, 0)``, so ``plus(x-0.6)^7`` is the usual (x-0.6)_+^7.

Grammar (whitespace insignificant, ``^`` right-associative, unary minus
binds looser than ``^``)::

    expr  := term (('+'|'-') term)*
    term  := unary (('*'|'/') unary)*
    unary := '-' unary | power
    power := atom ('^' unary)?
    atom  := NUMBER | 'x' | '(' expr ')' | ('exp'|'ln'|'plus') '(' expr ')'

Numeric literals are decimal with an optional exponent and are kept as exact
`Fraction` values, so evaluation under any precision context converts them
at full precision; an exponent of more than six digits is a syntax error,
as its exact value would take seconds to build.  Exponents must fold to a constant at parse time; only
integer exponents are differentiable.

Each operator is declared once, on its node class, where the parser, the
one folding constructor `_mk` and `to_text` read it.  A constant that a
precision cannot hold fails to bind with an `OverflowError` naming it.

Nodes hold no source positions: only the tokens do, so a syntax error
carries the byte range (`SourceSpan`) of the tokens it names.  A
non-constant exponent is reported from its first token to its last, its
parentheses included.

Evaluation compiles a tree once per (tree, context) into a value-numbered
tape (`as_integrand`): structurally equal subtrees share one register, and
constants are folded exactly and converted once, when the tape is bound.
Derivative trees repeat whole subtrees (the sixth derivative of ``1/x`` has
36,961 nodes but 312 distinct operations), so a run performs each distinct
operation once; the identities of a literal 0 or 1 operand leave 91 of
them.  The trees themselves are never rewritten.  The tape has one runner
in every context: binding gives each instruction its kernel among the
context's list kernels (``ctx.lists`` in ``scalars``), which runs over a
vector of at most 256 abscissae, so a value at one abscissa is a run over a
one-element vector.  The kernels and scalar functions decide where an
operation is undefined, by raising, and one table, `_UNDEFINED`, names what
each instruction raises as a `DomainError`.

`differentiate` differentiates each node object of its argument once, so a
shared subtree has one shared derivative: the sixth derivative of ``1/x``
has 36,961 nodes as a tree but 1,530 distinct node objects.
"""
from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Union

from .scalars import DOUBLE, exact_fraction, short_decimal


class ExprError(Exception):
    """Base class for all expression errors."""


@dataclass
class SourceSpan:
    """Byte offsets (start, end) of a source fragment."""

    start: int
    end: int


class ExprSyntaxError(ExprError):
    def __init__(self, message: str, span: SourceSpan):
        super().__init__(f"{message} (at bytes {span.start}..{span.end})")
        self.message = message
        self.span = span


class UnknownIdentifierError(ExprSyntaxError):
    def __init__(self, name: str, span: SourceSpan):
        super().__init__(f"unknown identifier {name!r}", span)
        self.name = name


class DomainError(ExprError, ArithmeticError):
    """Evaluation left the function's domain; carries the abscissa."""

    def __init__(self, message: str, abscissa):
        super().__init__(f"{message} (at x = {short_decimal(abscissa)})")
        self.message = message
        self.abscissa = abscissa


class NotDifferentiable(ExprError):
    pass


# --------------------------------------------------------------------------
# Expression nodes.  Besides its fields, each class declares its operator:
# ``prec``, its binding strength; ``symbol`` (binary operators) or ``name``
# (functions), its syntax; and ``fold``, its exact value on literal operands,
# which is None, or returns None, where it does not fold (a zero divisor).

_PREC_ADD, _PREC_MUL, _PREC_NEG, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


@dataclass(frozen=True)
class Constant:
    value: Fraction
    prec = _PREC_ATOM  # _const_text parenthesizes negative and fractional values


@dataclass(frozen=True)
class Variable:
    """The abscissa x."""

    prec = _PREC_ATOM


@dataclass(frozen=True)
class Add:
    left: "ExprNode"
    right: "ExprNode"
    symbol, prec, fold = "+", _PREC_ADD, operator.add


@dataclass(frozen=True)
class Sub:
    left: "ExprNode"
    right: "ExprNode"
    symbol, prec, fold = "-", _PREC_ADD, operator.sub


@dataclass(frozen=True)
class Mul:
    left: "ExprNode"
    right: "ExprNode"
    symbol, prec, fold = "*", _PREC_MUL, operator.mul


@dataclass(frozen=True)
class Div:
    left: "ExprNode"
    right: "ExprNode"
    symbol, prec = "/", _PREC_MUL
    fold = staticmethod(lambda a, b: a / b if b != 0 else None)


@dataclass(frozen=True)
class Neg:
    child: "ExprNode"
    prec, fold = _PREC_NEG, operator.neg


@dataclass(frozen=True)
class Pow:
    base: "ExprNode"
    exponent: Fraction
    prec = _PREC_POW


@dataclass(frozen=True)
class Exp:
    child: "ExprNode"
    name, prec, fold = "exp", _PREC_ATOM, None


@dataclass(frozen=True)
class Ln:
    child: "ExprNode"
    name, prec, fold = "ln", _PREC_ATOM, None


@dataclass(frozen=True)
class Plus:
    child: "ExprNode"
    name, prec = "plus", _PREC_ATOM
    fold = staticmethod(lambda v: max(v, Fraction(0)))


ExprNode = Union[Constant, Variable, Add, Sub, Mul, Div, Neg, Pow, Exp, Ln, Plus]

def _mk(kind, a, b=None):
    """``kind(a)`` or ``kind(a, b)``, folded exactly by ``kind.fold`` to a
    `Constant` when every operand is one; nothing else folds."""
    if type(a) is Constant and kind.fold is not None:
        if b is None:
            return Constant(kind.fold(a.value))
        if type(b) is Constant and (value := kind.fold(a.value, b.value)) is not None:
            return Constant(value)
    return kind(a) if b is None else kind(a, b)


def _mk_pow(base, exponent: Fraction):
    if (
        isinstance(base, Constant)
        and exponent.denominator == 1
        and abs(exponent.numerator) <= 512  # don't fold astronomically large powers
        and not (base.value == 0 and exponent < 0)
    ):
        return Constant(base.value ** int(exponent))
    return Pow(base, exponent)


# --------------------------------------------------------------------------
# Lexer / parser

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)

_FUNCTIONS = {kind.name: kind for kind in (Exp, Ln, Plus)}
_BINARY = {kind.symbol: kind for kind in (Add, Sub, Mul, Div)}


@dataclass
class _Token:
    kind: str  # 'number' | 'ident' | one of '+-*/^()' | 'eof'
    text: str
    span: SourceSpan


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    pos = 0
    byte_pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            bad_at = len(text) - len(stripped)
            start = len(text[:bad_at].encode())
            raise ExprSyntaxError(
                f"unexpected character {stripped[0]!r}",
                SourceSpan(start, start + len(stripped[0].encode())),
            )
        start = byte_pos + len(text[pos : m.start(m.lastgroup)].encode())
        end = start + len(m.group(m.lastgroup).encode())
        kind = m.lastgroup if m.lastgroup != "op" else m.group("op")
        tokens.append(_Token(kind, m.group(m.lastgroup), SourceSpan(start, end)))
        byte_pos += len(text[pos : m.end()].encode())
        pos = m.end()
    tokens.append(_Token("eof", "", SourceSpan(byte_pos, byte_pos)))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.i = 0

    @property
    def cur(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.cur
        self.i += 1
        return tok

    def expect(self, kind: str, what: str) -> _Token:
        if self.cur.kind != kind:
            found = repr(self.cur.text) if self.cur.kind != "eof" else "end of input"
            raise ExprSyntaxError(f"expected {what} but found {found}", self.cur.span)
        return self.advance()

    def parse_expr(self, prec=_PREC_ADD):
        """A left-associative chain of the binary operators of precedence prec."""
        node = self.parse_expr(_PREC_MUL) if prec == _PREC_ADD else self.parse_unary()
        kind = _BINARY.get(self.cur.kind)
        while kind is not None and kind.prec == prec:
            self.advance()
            right = self.parse_expr(_PREC_MUL) if prec == _PREC_ADD else self.parse_unary()
            node = _mk(kind, node, right)
            kind = _BINARY.get(self.cur.kind)
        return node

    def parse_unary(self):
        if self.cur.kind == "-":
            self.advance()
            return _mk(Neg, self.parse_unary())
        return self.parse_power()

    def parse_power(self):
        base = self.parse_atom()
        if self.cur.kind != "^":
            return base
        self.advance()
        first = self.cur
        exponent = self.parse_unary()
        if not isinstance(exponent, Constant):
            last = self.tokens[self.i - 1]
            raise ExprSyntaxError(
                "exponent must be a constant", SourceSpan(first.span.start, last.span.end)
            )
        return _mk_pow(base, exponent.value)

    def parse_atom(self):
        tok = self.cur
        if tok.kind == "number":
            self.advance()
            try:
                return Constant(exact_fraction(tok.text))
            except ValueError as exc:
                raise ExprSyntaxError(str(exc), tok.span) from None
        if tok.kind == "ident":
            self.advance()
            if tok.text == "x":
                return Variable()
            if tok.text in _FUNCTIONS:
                self.expect("(", f"'(' after {tok.text!r}")
                arg = self.parse_expr()
                self.expect(")", "')'")
                return _mk(_FUNCTIONS[tok.text], arg)
            raise UnknownIdentifierError(tok.text, tok.span)
        if tok.kind == "(":
            self.advance()
            node = self.parse_expr()
            self.expect(")", "')'")
            return node
        found = repr(tok.text) if tok.kind != "eof" else "end of input"
        raise ExprSyntaxError(f"expected a number, 'x', '(' or a function but found {found}", tok.span)


def parse(text: str) -> ExprNode:
    """Parse expression text into a folded tree; raises ExprSyntaxError."""
    parser = _Parser(_tokenize(text))
    node = parser.parse_expr()
    if parser.cur.kind != "eof":
        raise ExprSyntaxError(
            f"unexpected trailing input {parser.cur.text!r}", parser.cur.span
        )
    return node


# --------------------------------------------------------------------------
# Evaluation


def evaluate(node: ExprNode, x, ctx=DOUBLE):
    """Evaluate at abscissa x under the given precision context.

    Compiles the tree for this one call (see `as_integrand`); to evaluate a
    tree at many abscissae, bind it once with `as_integrand` instead.
    """
    return as_integrand(node, ctx)(x)


def as_integrand(node: ExprNode, ctx=DOUBLE):
    """Bind a tree to a context, yielding a plain scalar -> scalar callable.

    The tree is compiled once into a value-numbered tape: one instruction
    per structurally distinct subtree, in the post-order in which a
    recursive walk first meets it, but none where an identity of a literal
    0 or 1 operand decides the value (see `_Compiler`), with literal-only
    subtrees folded exactly as `parse` folds them and every constant bound
    by ``ctx.const`` here.  Every operation is a deterministic function of
    its operands, so sharing equal subtrees changes no value, and the first
    domain error raised is the one a recursive walk would raise.  Reuse the
    callable: binding costs a walk over the tree.

    Binding also gives each instruction its list kernel (see `_bind`), so
    a run makes one call per instruction over vectors, fills only the
    constants an instruction reads and drops each vector once nothing
    reads it.  A run covers at most `_CHUNK` (256) abscissae: ``f(x)`` is a
    run over one; ``f.vector(xs)``, which a composite pass in ``f.ctx``
    calls, and ``f.values(xs)``, on lists of scalars, run once per 256 of
    them.  Each value is bitwise ``f`` at its abscissa.  A run over several
    abscissae that meets a domain error is repeated one abscissa at a time,
    so the error raised is the one the first failing abscissa raises alone.
    """
    init, tape, out = _compile(node, ctx)
    steps, consts = _bind(tape, init, out, ctx)
    size = len(init)
    const, lists = ctx.const, ctx.lists
    to_vector, to_scalars, fill = lists.vector, lists.scalars, lists.fill

    def run(xs):
        # a domain error names xs's first abscissa, so block reruns xs per abscissa
        r = [None] * size
        r[0] = xs
        for slot, c in consts:
            r[slot] = fill(c, xs)
        try:
            for kernel, dst, a, b, dead, op in steps:
                r[dst] = kernel(r[a]) if b is None else kernel(r[a], r[b])
                for k in dead:
                    r[k] = None
        except (ArithmeticError, ValueError) as exc:
            message = _UNDEFINED.get((op, type(exc)))
            if message is None:
                raise
            raise DomainError(message, to_scalars(xs)[0]) from None
        return r[out]

    def block(u):
        try:
            return run(u)
        except (ArithmeticError, ValueError):
            return lists.chunks(run, u, 1)

    vector = partial(lists.chunks, block, m=_CHUNK)

    def f(x):
        return to_scalars(run(to_vector([const(x)])))[0]

    # f's entries share the runner and none refers to f, so a bound tape is
    # freed by reference counting when its last reference goes
    f.ctx = ctx
    f.vector = vector
    f.values = lambda xs: to_scalars(vector(to_vector([const(x) for x in xs])))
    return f


#: Abscissae that one run of a bound tape covers at most, which bounds the
#: vectors a run holds however many abscissae it is given.
_CHUNK = 256


def _bind(tape, init, out, ctx) -> tuple:
    """(steps, constants) of a compiled tape in ``ctx``.

    A step is (kernel, dst, a, b, dead, opcode): the kernel takes the
    vectors of registers a and b, or of a alone where b is None (an
    immediate is bound into the kernel); dead holds the registers but
    ``out`` that no later step reads, dst included.  The constants are the
    (register, value) pairs that a step reads.
    """
    read = {out}  # the registers that a later step reads, and out
    steps = []
    for op, dst, a, b in reversed(tape):
        binary = op in _BINARY_CODES
        operands = {a, b} if binary else {a}
        dead = tuple((operands | {dst}) - read)
        read |= operands
        steps.append((_KERNELS[op](ctx, b), dst, a, b if binary else None, dead, op))
    consts = [(slot, c) for slot, c in enumerate(init) if c is not None and slot in read]
    return steps[::-1], consts


def _root(v, b, exp, ln):
    """A fractional power; ``ln`` raises ValueError for a negative base."""
    k, zero = b
    if v == 0:
        if zero is None:
            raise ZeroDivisionError
        return zero
    return exp(k * ln(v))


# Tape opcodes.  An instruction is (opcode, dst, a, b): registers a and b
# are the operands of the binary operations; for the others b holds an
# immediate: the int exponent (_POW), the bound zero (_PLUS), or the bound
# exponent with the bound zero, None for a negative exponent (_ROOT).
_MUL, _ADD, _SUB, _POW, _DIV, _NEG, _EXP, _LN, _PLUS, _ROOT = range(10)
_BINARY_OPS = {Mul: _MUL, Add: _ADD, Sub: _SUB, Div: _DIV}
_BINARY_CODES = frozenset(_BINARY_OPS.values())
_UNARY_OPS = {Neg: _NEG, Exp: _EXP, Ln: _LN, Plus: _PLUS}
# opcode -> (context, b) -> the kernel of its instruction in that context
_KERNELS = {
    _MUL: lambda ctx, b: ctx.lists.mul,
    _ADD: lambda ctx, b: ctx.lists.add,
    _SUB: lambda ctx, b: ctx.lists.sub,
    _DIV: lambda ctx, b: ctx.lists.div,
    _NEG: lambda ctx, b: ctx.lists.neg,
    _POW: lambda ctx, n: partial(ctx.lists.pow, n=n),
    _PLUS: lambda ctx, zero: partial(ctx.lists.plus, zero=zero),
    _EXP: lambda ctx, b: partial(ctx.lists.map, ctx.exp),
    _LN: lambda ctx, b: partial(ctx.lists.map, ctx.ln),
    _ROOT: lambda ctx, b: partial(ctx.lists.map, partial(_root, b=b, exp=ctx.exp, ln=ctx.ln)),
}
# (opcode, class of what its kernel raised) -> the DomainError's message;
# any other exception propagates as it is.
_UNDEFINED = {
    (_DIV, ZeroDivisionError): "division by zero",
    (_POW, ZeroDivisionError): "zero raised to a negative power",
    (_POW, OverflowError): "power overflow",
    (_EXP, OverflowError): "exp overflow",
    (_LN, ValueError): "ln of a non-positive argument",
    (_ROOT, ZeroDivisionError): "zero raised to a negative power",
    (_ROOT, ValueError): "fractional power of a negative base",
    (_ROOT, OverflowError): "power overflow",
}


def _compile(root, ctx):
    """(initial registers, tape, output register) of a tree."""
    compiler = _Compiler(ctx)
    out = compiler.walk(root)
    return compiler.init, tuple(compiler.tape), out


class _Compiler:
    """Value numbering of one tree, folding literal-only subtrees as it goes.

    Register 0 holds x; the other initial registers hold the bound
    constants, or None where an instruction writes.  A node's register is
    keyed on its structure -- type, operand registers, constant value or
    exponent -- so structurally equal subtrees share one register and one
    instruction.  A node whose operands all sit in constant registers is
    rebuilt by the smart constructor (`_mk` or `_mk_pow`, which `parse` and
    `differentiate` build with); when that folds it, the node takes the
    register of the folded constant, so a raw tree evaluates as the tree its
    `to_text` parses back to.  (A class rather than closures: a recursive
    closure is a reference cycle, which would keep every compiled tree's
    tables alive until the next full garbage collection.)

    Before any folding, a node takes the register that an identity of a
    literal 0 or 1 operand gives it, as a peephole optimiser's algebraic
    simplification does: ``0*y = y*0 = 0``, ``1*y = y*1 = y/1 = y``,
    ``0+y = y+0 = y-0 = y``, ``0-y = -y``, ``y^0 = 1`` and ``y^1 = y``.  An
    operand is a literal when its register is that of the bound 0 or 1,
    which `constant` records as it binds them; so ``x^0 + 2`` leaves the
    literal-only ``1 + 2``, which folds to 3.  Every operand is still walked
    and emitted, so each instruction the tree needs runs and each domain
    error raises; nothing else is removed.  A value can differ from the
    tree's plain evaluation only where the identity does not hold in
    floating point: 0 times an infinite or NaN operand is 0, a zero (or a
    dd value's zero low word) may change sign, a dd value of 2^996 or more
    times 1 keeps its low word, an unnormalized dd operand stays
    unnormalized, and a folded subtree is exact.
    """

    def __init__(self, ctx):
        self.ctx = ctx
        self.zero = ctx.const(0)
        self.init = [None]
        self.tape = []
        self.numbers = {(Variable,): 0}  # structural key -> register
        self.exact = {}  # constant register -> its exact value, as a Constant
        self.seen = {}  # id(node) -> register; the tree is a DAG of shared objects
        self.zero_reg = self.one_reg = None  # the registers of the bound 0 and 1

    def constant(self, value: Fraction) -> int:
        key = (Constant, value)
        slot = self.numbers.get(key)
        if slot is None:
            slot = self.numbers[key] = len(self.init)
            self.init.append(self.bind(value))
            self.exact[slot] = Constant(value)
            if value == 0:
                self.zero_reg = slot
            elif value == 1:
                self.one_reg = slot
        return slot

    def bind(self, value: Fraction):
        try:
            return self.ctx.const(value)
        except OverflowError:
            # its decimal exponent, as printing 1e999999 would take a million digits
            digits = math.log10(abs(value.numerator)) - math.log10(value.denominator)
            e = math.floor(round(digits, 9))
            name = f"{'-' if value < 0 else ''}{10 ** (digits - e):.6g}e{e:+d}"
            raise OverflowError(
                f"the constant {name} is out of range in {self.ctx.name} precision"
            ) from None

    def fold(self, node):
        """The register of a smart constructor's result if it is a constant,
        else None: the constructor kept the operation."""
        return self.constant(node.value) if type(node) is Constant else None

    def emit(self, key, op, a, b) -> int:
        slot = self.numbers.get(key)
        if slot is None:
            slot = self.numbers[key] = len(self.init)
            self.init.append(None)
            self.tape.append((op, slot, a, b))
        return slot

    def identity(self, kind, a: int, b):
        """The register of ``a kind b`` where an identity of a literal 0 or 1
        operand decides it, else None; for a Pow, b is the exponent."""
        zero, one = self.zero_reg, self.one_reg
        if kind is Mul:
            if a == zero or b == zero:
                return zero
            if a == one:
                return b
            if b == one:
                return a
        elif kind is Add:
            if a == zero:
                return b
            if b == zero:
                return a
        elif kind is Sub:
            if b == zero:
                return a
            if a == zero:
                return self.unary(Neg, b)
        elif kind is Div:
            if b == one:
                return a
        elif b == 1:  # Pow
            return a
        elif b == 0:
            return self.constant(_ONE.value)
        return None

    def unary(self, kind, a: int) -> int:
        """The register of ``kind(a)``: its fold where a is a constant that
        folds, else its instruction."""
        slot = self.fold(_mk(kind, self.exact[a])) if a in self.exact else None
        if slot is None:
            zero = self.zero if kind is Plus else None
            slot = self.emit((kind, a), _UNARY_OPS[kind], a, zero)
        return slot

    def walk(self, node) -> int:
        slot = self.seen.get(id(node))
        if slot is not None:
            return slot
        kind = type(node)
        exact = self.exact
        if kind is Constant:
            slot = self.constant(node.value)
        elif kind is Variable:
            slot = 0
        elif kind in _BINARY_OPS:
            a = self.walk(node.left)
            b = self.walk(node.right)
            slot = self.identity(kind, a, b)
            if slot is None and a in exact and b in exact:
                slot = self.fold(_mk(kind, exact[a], exact[b]))
            if slot is None:
                slot = self.emit((kind, a, b), _BINARY_OPS[kind], a, b)
        elif kind is Pow:
            a = self.walk(node.base)
            k = node.exponent
            slot = self.identity(Pow, a, k)
            if slot is None and a in exact:
                slot = self.fold(_mk_pow(exact[a], k))
            if slot is None:
                if k.denominator == 1:
                    slot = self.emit((Pow, a, k), _POW, a, int(k))
                else:
                    bound = (self.bind(k), self.zero if k > 0 else None)
                    slot = self.emit((Pow, a, k), _ROOT, a, bound)
        elif kind in _UNARY_OPS:
            slot = self.unary(kind, self.walk(node.child))
        else:
            raise TypeError(f"not an expression node: {node!r}")
        self.seen[id(node)] = slot
        return slot


# --------------------------------------------------------------------------
# Differentiation

_ONE = Constant(Fraction(1))
_ZERO = Constant(Fraction(0))


def differentiate(node: ExprNode) -> ExprNode:
    """Symbolic x-derivative.

    Truncated powers follow plus(u)^k -> k*plus(u)^(k-1)*u' for integer
    k >= 2; differentiating plus(u)^1 or a bare plus(u) raises
    NotDifferentiable, as does any non-integer exponent.

    Each node object is differentiated once per call: a subtree that the
    tree shares (derivative trees share most of theirs) gets one derivative
    object, shared in turn, so the result is the tree a plain recursion
    builds, with fewer distinct objects.
    """
    return _derivative(node, {})


def _derivative(node, memo: dict):
    """differentiate, memoized on id(node); memo keeps each node alive with
    its derivative, so an id is never reused within the call."""
    hit = memo.get(id(node))
    if hit is None:
        hit = memo[id(node)] = node, _derive(node, memo)
    return hit[1]


def _derive(node, memo: dict):
    if isinstance(node, Constant):
        return _ZERO
    if isinstance(node, Variable):
        return _ONE
    if isinstance(node, (Add, Sub)):
        return _mk(type(node), _derivative(node.left, memo), _derivative(node.right, memo))
    if isinstance(node, Neg):
        return _mk(Neg, _derivative(node.child, memo))
    if isinstance(node, (Mul, Div)):
        # the product rule's two terms; the quotient rule's numerator subtracts them
        du_v = _mk(Mul, _derivative(node.left, memo), node.right)
        u_dv = _mk(Mul, node.left, _derivative(node.right, memo))
        if isinstance(node, Mul):
            return _mk(Add, du_v, u_dv)
        return _mk(Div, _mk(Sub, du_v, u_dv), _mk_pow(node.right, Fraction(2)))
    if isinstance(node, Pow):
        return _diff_pow(node, memo)
    if isinstance(node, Exp):
        return _mk(Mul, Exp(node.child), _derivative(node.child, memo))
    if isinstance(node, Ln):
        return _mk(Div, _derivative(node.child, memo), node.child)
    if isinstance(node, Plus):
        raise NotDifferentiable(
            "plus(...) is differentiable only inside an integer power >= 2"
        )
    raise TypeError(f"not an expression node: {node!r}")


def _diff_pow(node: Pow, memo: dict) -> ExprNode:
    k = node.exponent
    if k.denominator != 1:
        raise NotDifferentiable(f"non-integer exponent {k} is not differentiable")
    n = int(k)
    if n == 0:
        return _ZERO
    if isinstance(node.base, Plus):
        if n < 2:
            raise NotDifferentiable(
                f"plus(...)^{n} is not differentiable (integer exponent >= 2 required)"
            )
        inner = _derivative(node.base.child, memo)
    else:
        inner = _derivative(node.base, memo)
    return _mk(Mul, Constant(Fraction(n)), _mk(Mul, _mk_pow(node.base, Fraction(n - 1)), inner))


# --------------------------------------------------------------------------
# Printing


def _const_text(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator) if value >= 0 else f"({value.numerator})"
    return f"({value.numerator}/{value.denominator})"


def to_text(node: ExprNode) -> str:
    """Canonical text form; parsing it back rebuilds an equal tree."""
    if isinstance(node, Constant):
        return _const_text(node.value)
    if isinstance(node, Variable):
        return "x"
    if isinstance(node, (Add, Sub, Mul, Div)):
        return f"{_wrap(node.left, node.prec)}{node.symbol}{_wrap(node.right, node.prec + 1)}"
    if isinstance(node, Neg):
        return "-" + _wrap(node.child, node.prec)
    if isinstance(node, Pow):
        base = _wrap(node.base, _PREC_ATOM)
        return f"{base}^{_const_text(node.exponent)}"
    if isinstance(node, (Exp, Ln, Plus)):
        return f"{node.name}({to_text(node.child)})"
    raise TypeError(f"not an expression node: {node!r}")


def _wrap(node, min_prec: int) -> str:
    text = to_text(node)
    return f"({text})" if node.prec < min_prec else text
