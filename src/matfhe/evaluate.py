"""Homomorphic arithmetic and a small formula language over ciphertexts.

Evaluation needs no key for +, -, *: the operations are plain matrix
arithmetic on ciphertext bodies. Constants are the one exception; they are
encrypted with fresh coins at evaluation time, so an environment used with
constant-bearing formulas must carry a key and an rng. The formula nodes
Const, Ref and BinOp are immutable named tuples that compare by type: a
node equals only a node of its own type with equal fields.
"""

import re
from collections import namedtuple

from .cipher import Ciphertext, encrypt_value
from .matrix import inverse, mat_add, mat_mul, mat_sub
from .ring import NotInvertibleError, _Record


class Const(_Record, namedtuple("Const", "value")):
    pass


class Ref(_Record, namedtuple("Ref", "name")):
    pass


class BinOp(_Record, namedtuple("BinOp", "op left right")):
    pass


class ExprSyntaxError(ValueError):
    """Formula syntax error: the character offset and what was expected."""

    def __init__(self, offset, expected, found):
        super().__init__(
            f"expected {expected} at offset {offset}, found {found}")
        self.offset = offset
        self.expected = expected
        self.found = found


class UnboundInputError(LookupError):
    """A formula references an input name the environment does not bind."""

    def __init__(self, name):
        super().__init__(f"unbound input {name!r}")
        self.name = name


class DivisorNotInvertibleError(ValueError):
    """Division is undefined: the divisor matrix is not invertible mod N."""

    def __init__(self, gcd):
        super().__init__(f"divisor is not invertible (gcd {gcd} with modulus)")
        self.gcd = gcd


def he_add(c1, c2):
    """Ciphertext of the sum: plain matrix addition."""
    return Ciphertext(mat_add(c1.body, c2.body))


def he_sub(c1, c2):
    """Ciphertext of the difference mod N."""
    return Ciphertext(mat_sub(c1.body, c2.body))


def he_mul(c1, c2):
    """Ciphertext of the product: matrix multiplication."""
    return Ciphertext(mat_mul(c1.body, c2.body))


def he_div(c1, c2):
    """Multiply by the divisor's matrix inverse: modular division.

    Defined only when the divisor matrix is invertible, which for these
    ciphertexts means every diagonal slot of c2 is a unit mod N. This is
    division in Z_N (multiplication by the inverse), not integer division.
    """
    try:
        inv = inverse(c2.body)
    except NotInvertibleError as err:
        raise DivisorNotInvertibleError(err.gcd) from err
    return Ciphertext(mat_mul(c1.body, inv))


# Tried in order at each offset: integer, name, operator or parenthesis,
# a run of blanks (skipped), any other character (refused; DOTALL, so line
# breaks are refused too, not skipped). The classes are ASCII only.
_TOKEN = re.compile(r"(?P<int>[0-9]+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
                    r"|(?P<op>[-+*/()])|[ \t]+|(?P<bad>.)", re.DOTALL)
_LEVELS = (("+", "-"), ("*", "/"))

MAX_DEPTH = 200
_TOO_DEEP = f"at most {MAX_DEPTH} levels of nesting"


def parse_expr(text):
    """Parse a formula into an AST.

    Grammar (left associative, usual precedence, no unary minus):
        expr   := term (('+' | '-') term)*
        term   := factor (('*' | '/') factor)*
        factor := integer | name | '(' expr ')'

    Tokens come from one regular expression. expr and term are one rule,
    binary(level), over the operator sets of _LEVELS, loosest first.

    A formula whose tree is more than MAX_DEPTH operators deep, or whose
    parentheses nest more than MAX_DEPTH deep, raises ExprSyntaxError at
    the operator or '(' that goes past the limit. So neither this parser
    nor a walk of a parsed tree reaches the interpreter's recursion limit,
    and format_expr's output of a parsed tree parses back.
    """
    def fail(expected, tok=None):
        kind, value, offset = tok or tokens[pos]
        found = "end of input" if kind == "end" else repr(value)
        raise ExprSyntaxError(offset, expected, found)

    tokens = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "bad":
            fail("integer, name, or operator", (kind, m[0], m.start()))
        if kind:
            tokens.append((kind, m[0], m.start()))
    tokens.append(("end", "", len(text)))
    # Each rule returns its node and the node's depth in operators; parens
    # counts the parentheses open around the current token.
    pos = parens = 0

    def factor():
        nonlocal pos, parens
        kind, value, _ = tok = tokens[pos]
        pos += 1
        if kind == "int":
            try:
                return Const(int(value)), 0
            except ValueError:  # more digits than the interpreter converts
                raise ExprSyntaxError(tok[2], "a shorter integer",
                                      f"{len(value)} digits") from None
        if kind == "name":
            return Ref(value), 0
        if value != "(":
            fail("integer, name, or '('", tok)
        parens += 1
        if parens > MAX_DEPTH:
            fail(_TOO_DEEP, tok)
        inner = binary(0)
        if tokens[pos][1] != ")":
            fail("')'")
        pos += 1
        parens -= 1
        return inner

    def binary(level):
        nonlocal pos
        ops = _LEVELS[level]
        tighter = level + 1 < len(_LEVELS)
        node, depth = binary(level + 1) if tighter else factor()
        while tokens[pos][1] in ops:
            tok = tokens[pos]
            pos += 1
            right, right_depth = binary(level + 1) if tighter else factor()
            depth = max(depth, right_depth) + 1
            if depth > MAX_DEPTH:
                fail(_TOO_DEEP, tok)
            node = BinOp(tok[1], node, right)
        return node, depth

    node, _ = binary(0)
    if tokens[pos][0] != "end":
        fail("operator or end of input")
    return node


def format_expr(node):
    """Render an AST back to formula text, fully parenthesized.

    The walk goes path by path, so an AST built in code must be a tree no
    deeper than MAX_DEPTH operators, as parse_expr's output always is.
    """
    if isinstance(node, Const):
        return str(node.value)
    if isinstance(node, Ref):
        return node.name
    if isinstance(node, BinOp):
        return f"({format_expr(node.left)}{node.op}{format_expr(node.right)})"
    raise TypeError(f"not an expression node: {node!r}")


class CipherEnv:
    """Evaluation context: named ciphertexts, plus key and rng so literal
    constants can be encrypted on the fly."""

    def __init__(self, bindings=None, key=None, rng=None):
        self.bindings = {} if bindings is None else bindings
        self.key = key
        self.rng = rng


_OPS = {"+": he_add, "-": he_sub, "*": he_mul, "/": he_div}


def eval_expr(node, env):
    """Evaluate an AST over ciphertexts. Returns a Ciphertext. Like
    format_expr, it walks path by path: an AST built in code must be a tree
    no deeper than MAX_DEPTH operators."""
    if isinstance(node, Ref):
        try:
            return env.bindings[node.name]
        except KeyError:
            raise UnboundInputError(node.name) from None
    if isinstance(node, Const):
        if env.key is None or env.rng is None:
            raise ValueError("constants need a key and rng in the environment")
        return encrypt_value(node.value % env.key.modulus.n, env.key, env.rng)
    if isinstance(node, BinOp):
        left = eval_expr(node.left, env)
        right = eval_expr(node.right, env)
        return _OPS[node.op](left, right)
    raise TypeError(f"not an expression node: {node!r}")
