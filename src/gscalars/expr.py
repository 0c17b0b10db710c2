"""Expression grammar for the CLI: parsing, canonical rendering, evaluation.

Scalar expressions: integer literals, the index variable `n`, `+ - * /`
(division is quotient-algebra inversion, never pointwise), the wrappers
shift/ind/sum/st/class/eq/le/invert/limit, and `e except {n: v, ...}` for
declaring pointwise overrides.  Set expressions: `{3,5}`, `r mod m`,
`evens`/`odds`, complement `~S`, `S|T`, `S&T`, and `cofinite~{...}` sugar.

One regular expression splits the text into tokens.  An integer literal is
a run of decimal digits (Unicode category Nd) no longer than the
interpreter's int-to-text limit, `sys.get_int_max_str_digits()`.

Both grammars parse into one tree, and one renderer prints either from one
precedence table.  Rendering is canonical: parse(render(parse(text))) ==
parse(text), and a rendered value re-evaluates to the same class under
every filter.  Numbers past the int-to-text limit render as NumberTooLarge
(`number_text`).

Parsing refuses with NestingTooDeep, before anything is evaluated, an
expression nested deeper than MAX_DEPTH levels.  Each parenthesis, call,
unary minus and set complement opens one level; an operator chain such as
`1+1+1` or `e except {..} except {..}` opens none and may be any length,
because parsing, rendering and evaluation all walk a chain's left spine in
a loop.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce

from .errors import Error, NestingTooDeep, NumberTooLarge, TypeMismatch
from .exactnum import Poly, RatFun, integer_roots_nonneg
from .quotient import (
    Scalar,
    classify,
    embed,
    leq,
    scalar_eq,
    standard_part,
    try_invert,
)
from .seqrep import RSeq, indicator, make_identity
from .series import partial_sums
from .sets_filters import FilterDescriptor, SetDescriptor


class SyntaxError(Error):
    """Position-annotated parse failure with the expected token set."""

    def __init__(self, message: str, line: int, column: int, expected=()):
        super().__init__(message)
        self.line = line
        self.column = column
        self.expected = tuple(expected)

    def __str__(self) -> str:
        base = f"{super().__str__()} at line {self.line}, column {self.column}"
        if self.expected:
            base += " (expected " + ", ".join(self.expected) + ")"
        return base


MAX_DEPTH = 100

# -- AST ----------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Lit:
    value: int


@dataclass(frozen=True, slots=True)
class Var:
    pass


@dataclass(frozen=True, slots=True)
class Unary:
    op: str  # - (scalars) or ~ (sets)
    arg: object


@dataclass(frozen=True, slots=True)
class BinOp:
    op: str  # + - * / (scalars) or | & (sets)
    left: object
    right: object


@dataclass(frozen=True, slots=True)
class Call:
    name: str  # shift sum st class invert limit eq le, or ind of one set node
    args: tuple


@dataclass(frozen=True, slots=True)
class Except:
    left: object
    overrides: tuple  # ((index, Fraction), ...) sorted by index
    op = "except"  # not a field: `_chain` walks except chains like operator chains


@dataclass(frozen=True, slots=True)
class SetLit:
    elements: tuple


@dataclass(frozen=True, slots=True)
class SetMod:
    residue: int
    modulus: int


# Call name -> argument count, in the order a syntax error lists them.
CALLS = {"shift": 1, "sum": 1, "st": 1, "class": 1, "invert": 1, "limit": 1, "eq": 2, "le": 2}


def _chain(node, ops) -> tuple:
    """The left-deep chain of the operators in `ops` at `node`, such as
    `a - b + c`, unwound along its left spine in a loop: its head and its
    links (the operator nodes) in source order.  Rendering and evaluation
    both walk chains this way, so a long chain never recurses per link."""
    links = []
    while isinstance(node, (BinOp, Except)) and node.op in ops:
        links.append(node)
        node = node.left
    links.reverse()
    return node, links


# -- tokenizer and parser -------------------------------------------------------

# One token per match: a decimal literal (the digits int() reads), an
# identifier, one punctuation character, or any other non-space character,
# which is refused.  Whitespace between tokens matches nothing and is skipped.
_TOKEN = re.compile(r"(?P<int>\d+)|(?P<ident>[^\W\d]\w*)|(?P<punct>[-+*/(){},:|&~])|(?P<bad>\S)")


@dataclass(frozen=True, slots=True)
class _Token:
    kind: str  # int ident punct end
    text: str
    offset: int


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = []
        for match in _TOKEN.finditer(text):
            if match.lastgroup == "bad":
                self._fail(f"unexpected character {match[0]!r}", match.start())
            self.tokens.append(_Token(match.lastgroup, match[0], match.start()))
        self.tokens.append(_Token("end", "", len(text)))
        self.pos = 0
        self.depth = 1

    def _nested(self, rule, enclosed: bool = False):
        """Parse `rule` one nesting level deeper, between parentheses when
        `enclosed`.  A failed parse is abandoned whole, so the level is
        given back only on success."""
        if enclosed:
            self._eat("punct", "(")
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise NestingTooDeep(f"expression nested deeper than {MAX_DEPTH} levels")
        node = rule()
        self.depth -= 1
        if enclosed:
            self._eat("punct", ")")
        return node

    @property
    def current(self) -> _Token:
        return self.tokens[self.pos]

    def _fail(self, message: str, offset: int, expected=()):
        """Raise SyntaxError at `offset` into the text, as a line and a column counted from 1."""
        line = self.text.count("\n", 0, offset) + 1
        raise SyntaxError(message, line, offset - self.text.rfind("\n", 0, offset), expected)

    def _unexpected(self, expected):
        tok = self.current
        self._fail(f"unexpected {tok.text or 'end of input'!r}", tok.offset, expected)

    def _eat(self, kind: str, text: str | None = None) -> _Token:
        tok = self.current
        if tok.kind != kind or (text is not None and tok.text != text):
            self._unexpected([text or kind])
        self.pos += 1
        return tok

    def _take(self, text: str) -> bool:
        """Consume the next token when it is the punctuation or identifier `text`."""
        if self.current.text == text:
            self.pos += 1
            return True
        return False

    def _int(self, zero: str | None = None) -> int:
        """The next token as an integer literal.  A literal with more digits
        than the interpreter converts is refused, and so is 0 when `zero`
        gives the message."""
        tok = self._eat("int")
        limit = sys.get_int_max_str_digits()
        if limit and len(tok.text) > limit:
            self._fail(f"integer literal longer than {limit} digits", tok.offset)
        value = int(tok.text)
        if zero and not value:
            self._fail(zero, tok.offset)
        return value

    def _binary(self, ops: str, operand):
        """A left-associative chain `operand (op operand)*` over the
        punctuation characters in `ops`, built as left-deep BinOp nodes."""
        node = operand()
        while (tok := self.current).kind == "punct" and tok.text in ops:
            self.pos += 1
            node = BinOp(tok.text, node, operand())
        return node

    def _braces(self, item) -> list:
        """`{item, item, ...}`, possibly empty."""
        self._eat("punct", "{")
        items = []
        if self.current.text != "}":
            items.append(item())
            while self._take(","):
                items.append(item())
        self._eat("punct", "}")
        return items

    # scalar grammar -----------------------------------------------------------

    def parse_expr(self):
        node = self._binary("+-", self._mul_expr)
        while self._take("except"):
            node = Except(node, self._except_map())
        return node

    def _mul_expr(self):
        return self._binary("*/", self._unary)

    def _unary(self):
        if self._take("-"):
            return Unary("-", self._nested(self._unary))
        return self._atom()

    def _atom(self):
        tok = self.current
        if tok.kind == "int":
            return Lit(self._int())
        if self._take("n"):
            return Var()
        if self._take("ind"):
            return Call("ind", (self._nested(self.parse_set, enclosed=True),))
        if tok.text in CALLS:
            self.pos += 1
            self._eat("punct", "(")
            args = [self._nested(self.parse_expr)]
            for _ in range(1, CALLS[tok.text]):
                self._eat("punct", ",")
                args.append(self._nested(self.parse_expr))
            self._eat("punct", ")")
            return Call(tok.text, tuple(args))
        if tok.kind == "ident":
            self._unexpected(["n", "ind", *CALLS])
        if self.current.text == "(":
            return self._nested(self.parse_expr, enclosed=True)
        self._unexpected(["integer", "n", "function", "("])

    def _except_map(self) -> tuple:
        return tuple(sorted(dict(self._braces(self._override)).items()))

    def _override(self) -> tuple:
        key = self._int()
        self._eat("punct", ":")
        return key, self._signed_rat()

    def _signed_rat(self) -> Fraction:
        negative = self._take("-")
        value = Fraction(self._int())
        if self._take("/"):
            value /= self._int(zero="zero denominator")
        return -value if negative else value

    # set grammar --------------------------------------------------------------

    def parse_set(self):
        return self._binary("|", self._set_and)

    def _set_and(self):
        return self._binary("&", self._set_atom)

    def _set_atom(self):
        if self._take("~"):
            return Unary("~", self._nested(self._set_atom))
        if self.current.text == "{":
            return SetLit(self._int_braces())
        if self.current.text == "(":
            return self._nested(self.parse_set, enclosed=True)
        if self.current.kind == "int":
            residue = self._int()
            self._eat("ident", "mod")
            return SetMod(residue, self._int(zero="modulus must be positive"))
        if self._take("evens"):
            return SetMod(0, 2)
        if self._take("odds"):
            return SetMod(1, 2)
        if self._take("cofinite"):
            self._eat("punct", "~")
            return Unary("~", SetLit(self._int_braces()))
        self._unexpected(["{", "~", "(", "residue mod modulus", "evens", "odds", "cofinite"])

    def _int_braces(self) -> tuple:
        return tuple(sorted(set(self._braces(self._int))))


def _parse_all(text: str, rule):
    parser = _Parser(text)
    node = rule(parser)
    parser._eat("end")
    return node


def parse(text: str):
    return _parse_all(text, _Parser.parse_expr)


def parse_set(text: str):
    return _parse_all(text, _Parser.parse_set)


# -- rendering -------------------------------------------------------------------


def number_text(q: int | Fraction) -> str:
    """An integer or a rational as text.  Every number the CLI prints goes
    through here, so a numerator or denominator with more digits than the
    interpreter converts to text raises NumberTooLarge."""
    limit = sys.get_int_max_str_digits()
    part = max(abs(q.numerator), q.denominator)
    # 10**limit has more than 3 * limit bits: the bit count clears most numbers cheaply.
    if limit and part.bit_length() > 3 * limit and part >= 10**limit:
        raise NumberTooLarge(f"a number in the result has more than {limit} digits")
    return str(q)


# One precedence table for both grammars, since no chain mixes them: a node
# is parenthesized under a parent that needs a higher level than its own.  A
# binary operator maps to (its text, the operators its chain mixes, the
# chain's level, the level its right operands need), a unary operator to its
# level, which its operand needs too.
_EXCEPT, _ATOM = 0, 4
_BINARY = {
    "|": ("|", "|", 0, 1),
    "&": ("&", "&", 1, 2),
    "+": (" + ", "+-", 1, 2),
    "-": (" - ", "+-", 1, 2),
    "*": (" * ", "*/", 2, 3),
    "/": (" / ", "*/", 2, 3),
}
_UNARY = {"~": 2, "-": 3}


def render(node, parent_level: int = 0) -> str:
    text, level = _render(node)
    return f"({text})" if level < parent_level else text


def _render(node) -> tuple[str, int]:
    """The text of a scalar or set node, and its level."""
    if isinstance(node, Lit):
        return number_text(node.value), _ATOM
    if isinstance(node, Var):
        return "n", _ATOM
    if isinstance(node, Unary):
        level = _UNARY[node.op]
        return node.op + render(node.arg, level), level
    if isinstance(node, BinOp):
        _, ops, level, right_level = _BINARY[node.op]
        head, links = _chain(node, ops)
        parts = [render(head, level)]
        parts.extend(_BINARY[link.op][0] + render(link.right, right_level) for link in links)
        return "".join(parts), level
    if isinstance(node, Call):
        inner = ", ".join(render(a) for a in node.args)
        return f"{node.name}({inner})", _ATOM
    if isinstance(node, Except):
        head, links = _chain(node, ("except",))
        maps = "".join(
            " except {" + ", ".join(f"{number_text(k)}: {number_text(v)}" for k, v in link.overrides) + "}"
            for link in links
        )
        return render(head) + maps, _EXCEPT  # every other scalar node binds tighter
    if isinstance(node, SetLit):
        return "{" + ",".join(map(number_text, node.elements)) + "}", _ATOM
    if isinstance(node, SetMod):
        return f"{node.residue} mod {node.modulus}", _ATOM
    raise TypeError(f"not an expression node: {node!r}")


# -- evaluation --------------------------------------------------------------------


def eval_set(node) -> SetDescriptor:
    if isinstance(node, SetLit):
        return SetDescriptor.finite(node.elements)
    if isinstance(node, SetMod):
        return SetDescriptor.residue_class(node.residue, node.modulus)
    if isinstance(node, Unary) and node.op == "~":
        return eval_set(node.arg).complement()
    if isinstance(node, BinOp) and node.op in "|&":
        head, links = _chain(node, "|&")
        value = eval_set(head)
        for link in links:
            right = eval_set(link.right)
            value = value.union(right) if link.op == "|" else value.intersect(right)
        return value
    raise TypeError(f"not a set node: {node!r}")


def render_value(value) -> str:
    """A value of `evaluate` as gsc prints it."""
    if isinstance(value, Scalar):
        return f"{render_rseq(value.rep)} [{classify(value)}]"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, Fraction):
        return number_text(value)
    return str(value)


def _as_scalar(value, f: FilterDescriptor) -> Scalar:
    if isinstance(value, Scalar):
        return value
    if isinstance(value, Fraction):
        return embed(value, f)
    raise TypeMismatch(f"expected a scalar, got {render_value(value)}")


def _scalar(node, f: FilterDescriptor) -> Scalar:
    return _as_scalar(evaluate(node, f), f)


def evaluate_scalars(texts, f: FilterDescriptor) -> list[Scalar]:
    """Parse and evaluate each text in turn, then take every value as a
    scalar: a rational (from st or limit) is embedded, and any other
    non-scalar value raises TypeMismatch."""
    values = [evaluate(parse(text), f) for text in texts]
    return [_as_scalar(value, f) for value in values]


_SCALAR_CHAIN = ("+", "-", "*", "/", "except")


def evaluate(node, f: FilterDescriptor):
    """Evaluate an AST under a filter.

    Returns a Scalar, a Fraction (st/limit), a bool (eq/le), or a
    Classification (class).
    """
    if isinstance(node, Lit):
        return embed(node.value, f)
    if isinstance(node, Var):
        return Scalar(make_identity(), f)
    if isinstance(node, Unary) and node.op == "-":
        return -_scalar(node.arg, f)
    if isinstance(node, (BinOp, Except)) and node.op in _SCALAR_CHAIN:
        head, links = _chain(node, _SCALAR_CHAIN)
        value = _scalar(head, f)
        for link in links:
            if link.op == "except":
                overrides = {**value.rep.exceptions, **dict(link.overrides)}
                value = Scalar(RSeq(value.rep.modulus, value.rep.branches, overrides), f)
                continue
            right = _scalar(link.right, f)
            if link.op == "+":
                value = value + right
            elif link.op == "-":
                value = value - right
            elif link.op == "*":
                value = value * right
            else:
                value = value * try_invert(right)
        return value
    if isinstance(node, Call):
        if node.name == "ind":
            return Scalar(indicator(eval_set(node.args[0])), f)
        args = [_scalar(a, f) for a in node.args]
        name, arg = node.name, args[0]
        if name == "eq":
            return scalar_eq(*args)
        if name == "le":
            return leq(*args)
        if name == "shift":
            return Scalar(arg.rep.shift(), f)
        if name == "sum":
            return Scalar(partial_sums(arg.rep), f)
        if name == "st":
            return standard_part(arg)
        if name == "class":
            return classify(arg)
        if name == "invert":
            return try_invert(arg)
        if name == "limit":
            return arg.rep.limit()
    raise TypeError(f"not an expression node: {node!r}")


# -- value rendering -----------------------------------------------------------------


def set_to_expr(s: SetDescriptor):
    if s.is_empty():
        return SetLit(())
    if s.is_finite():
        return SetLit(tuple(sorted(s.plus)))
    node = _joined("|", [SetMod(r, s.modulus) for r in sorted(s.residues)])
    if s.minus:
        node = BinOp("&", node, Unary("~", SetLit(tuple(sorted(s.minus)))))
    if s.plus:
        node = BinOp("|", node, SetLit(tuple(sorted(s.plus))))
    return node


def _rat_expr(q: Fraction):
    num = Lit(abs(q.numerator))
    if q < 0:
        num = Unary("-", num)
    if q.denominator != 1:
        return BinOp("/", num, Lit(q.denominator))
    return num


def _joined(op: str, nodes: list):
    """The left-deep chain nodes[0] op nodes[1] op ..."""
    return reduce(lambda left, right: BinOp(op, left, right), nodes)


def _monomial_expr(coeff_node, k: int):
    """coeff * n * ... * n with k factors n, left associated; bare power when coeff is None."""
    factors = [Var()] * k
    return _joined("*", factors if coeff_node is None else [coeff_node, *factors])


def _poly_expr(p: Poly):
    if p.is_zero():
        return Lit(0)
    items = [(k, p.coeffs[k]) for k in range(p.degree, -1, -1) if p.coeffs[k] != 0]

    def term(k, c):
        # Only the leading term keeps its sign; later ones carry it as + or -.
        if k == 0:
            return _rat_expr(c)
        if abs(c) != 1:
            return _monomial_expr(_rat_expr(c), k)
        power = _monomial_expr(None, k)
        return Unary("-", power) if c < 0 else power

    node = term(*items[0])
    for k, c in items[1:]:
        node = BinOp("-" if c < 0 else "+", node, term(k, abs(c)))
    return node


def _ratfun_expr(br: RatFun):
    num = _poly_expr(br.num)
    if br.den.degree == 0:
        return num
    den = _poly_expr(br.den)
    roots = integer_roots_nonneg(br.den)
    if roots:
        den = Except(den, tuple((n, Fraction(1)) for n in sorted(roots)))
    inverse = Call("invert", (den,))
    if br.num == Poly.constant(1):
        return inverse
    return BinOp("*", num, inverse)


_ZERO_ONE = (RatFun.constant(0), RatFun.constant(1))


def rseq_to_expr(x: RSeq):
    """Canonical AST that re-evaluates to the class of x under any filter;
    a 0/1 sequence renders as the indicator of its support."""
    if all(br in _ZERO_ONE for br in x.branches) and all(v in (0, 1) for v in x.exceptions.values()):
        support = x.sign_set({1})
        return Call("ind", (set_to_expr(support),)) if not support.is_empty() else Lit(0)
    terms = []
    for r, br in enumerate(x.branches):
        if br.is_zero():
            continue
        body = _ratfun_expr(br)
        if x.modulus > 1:
            mask = Call("ind", (SetMod(r, x.modulus),))
            body = mask if body == Lit(1) else BinOp("*", mask, body)
        terms.append(body)
    node = _joined("+", terms) if terms else Lit(0)
    if x.exceptions:
        node = Except(node, tuple(sorted(x.exceptions.items())))
    return node


def render_rseq(x: RSeq) -> str:
    return render(rseq_to_expr(x))
