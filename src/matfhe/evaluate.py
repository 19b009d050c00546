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


# Tokens are bare strings: integer, name, operator or parenthesis. findall
# skips what no token matches, so _BAD first refuses any character but those
# and blanks, line breaks too. The classes are ASCII only.
_TOKEN = re.compile(r"[0-9]+|[A-Za-z_][A-Za-z0-9_]*|[-+*/()]")
_BAD = re.compile(r"[^0-9A-Za-z_ \t()*/+-]")
_PREC = {"+": 0, "-": 0, "*": 1, "/": 1}

MAX_DEPTH = 200
_TOO_DEEP = f"at most {MAX_DEPTH} levels of nesting"


def parse_expr(text):
    """Parse a formula into an AST.

    Grammar (left associative, usual precedence, no unary minus):
        expr   := term (('+' | '-') term)*
        term   := factor (('*' | '/') factor)*
        factor := integer | name | '(' expr ')'

    A character that is not in a token or a blank is refused before any
    other error. Tokens are bare strings, "" ending the list; a token's
    offset is found by a finditer re-scan, on the error path only. expr and
    term are one precedence-climbing loop, climb(tightest), over _PREC.

    A formula whose tree is more than MAX_DEPTH operators deep, or whose
    parentheses nest more than MAX_DEPTH deep, raises ExprSyntaxError at
    the operator or '(' that goes past the limit. So neither this parser
    nor a walk of a parsed tree reaches the interpreter's recursion limit,
    and format_expr's output of a parsed tree parses back.
    """
    bad = _BAD.search(text)
    if bad:
        raise ExprSyntaxError(bad.start(), "integer, name, or operator",
                              repr(bad[0]))
    tokens = _TOKEN.findall(text)
    tokens.append("")
    # pos indexes the current token, and parens counts the parentheses open
    # around it. Each rule returns its node and the node's depth in operators.
    pos = parens = 0

    def error(expected, at, found=None):
        starts = [m.start() for m in _TOKEN.finditer(text)] + [len(text)]
        tok = tokens[at]
        return ExprSyntaxError(starts[at], expected, found or (
            repr(tok) if tok else "end of input"))

    def operand():
        nonlocal pos, parens
        tok = tokens[pos]
        pos += 1
        if tok == "(":
            parens += 1
            if parens > MAX_DEPTH:
                raise error(_TOO_DEEP, pos - 1)
            inner = climb(0)
            if tokens[pos] != ")":
                raise error("')'", pos)
            pos += 1
            parens -= 1
            return inner
        if tok.isidentifier():
            return Ref(tok), 0
        if tok.isdigit():
            try:
                return Const(int(tok)), 0
            except ValueError:  # more digits than the interpreter converts
                raise error("a shorter integer", pos - 1,
                            f"{len(tok)} digits") from None
        raise error("integer, name, or '('", pos - 1)

    def climb(tightest):
        # Folds every operator of precedence tightest or more. A '+' or '-'
        # takes a term, climb(1), on its right, and a '*' or '/' an operand.
        nonlocal pos
        node, depth = operand()
        prec = _PREC.get(tokens[pos], -1)
        while prec >= tightest:
            at = pos
            pos += 1
            right, right_depth = operand() if prec else climb(1)
            if right_depth > depth:
                depth = right_depth
            depth += 1
            if depth > MAX_DEPTH:
                raise error(_TOO_DEEP, at)
            node = BinOp(tokens[at], node, right)
            prec = _PREC.get(tokens[pos], -1)
        return node, depth

    node, _ = climb(0)
    if tokens[pos]:
        raise error("operator or end of input", pos)
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
