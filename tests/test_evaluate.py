"""Formula parsing and homomorphic evaluation.

Parser oracles are hand-built ASTs. Evaluation oracles run the same
formula over plaintext integers mod N; the homomorphism claim is exactly
that both routes agree, so the plaintext side is an independent check.
"""

import random
import sys

import pytest

from matfhe.cipher import Ciphertext, dec, enc4
from matfhe.evaluate import (MAX_DEPTH, BinOp, CipherEnv, Const,
                             DivisorNotInvertibleError, ExprSyntaxError, Ref,
                             UnboundInputError, eval_expr, format_expr,
                             he_add, he_div, he_mul, he_sub, parse_expr)
from matfhe.keys import keygen4
from matfhe.matrix import is_invertible
from matfhe.ring import mod_inverse

from known_answers import N

_OP_NAMES = ("+", "-", "*")


def plain_eval(node, values, n):
    """Reference evaluation over plaintext integers mod n."""
    if isinstance(node, Const):
        return node.value % n
    if isinstance(node, Ref):
        return values[node.name] % n
    ops = {"+": lambda a, b: (a + b) % n,
           "-": lambda a, b: (a - b) % n,
           "*": lambda a, b: a * b % n}
    return ops[node.op](plain_eval(node.left, values, n),
                        plain_eval(node.right, values, n))


def random_tree(rng, depth, names):
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.15:
            return Const(rng.randrange(2 * N))
        return Ref(rng.choice(names))
    op = rng.choice(_OP_NAMES)
    return BinOp(op, random_tree(rng, depth - 1, names),
                 random_tree(rng, depth - 1, names))


class TestParser:
    def test_single_name_and_integer(self):
        assert parse_expr("a") == Ref("a")
        assert parse_expr("42") == Const(42)

    def test_simple_sum(self):
        assert parse_expr("a+b") == BinOp("+", Ref("a"), Ref("b"))

    def test_precedence(self):
        assert parse_expr("a+b*c") == BinOp(
            "+", Ref("a"), BinOp("*", Ref("b"), Ref("c")))
        assert parse_expr("a*b+c") == BinOp(
            "+", BinOp("*", Ref("a"), Ref("b")), Ref("c"))

    def test_hand_built_ast(self):
        assert parse_expr("(x1+x2)*(x3-4)") == BinOp(
            "*",
            BinOp("+", Ref("x1"), Ref("x2")),
            BinOp("-", Ref("x3"), Const(4)))

    def test_left_associativity(self):
        assert parse_expr("a-b-c") == BinOp(
            "-", BinOp("-", Ref("a"), Ref("b")), Ref("c"))
        assert parse_expr("a/b/c") == BinOp(
            "/", BinOp("/", Ref("a"), Ref("b")), Ref("c"))

    def test_parentheses_override_precedence(self):
        assert parse_expr("(a+b)*c") == BinOp(
            "*", BinOp("+", Ref("a"), Ref("b")), Ref("c"))

    def test_whitespace_is_ignored(self):
        assert parse_expr(" a\t+ b ") == parse_expr("a+b")

    def test_multichar_names_and_numbers(self):
        assert parse_expr("x_12*345") == BinOp("*", Ref("x_12"), Const(345))

    def test_syntax_error_offsets(self):
        cases = [
            ("a+*b", 2),
            ("", 0),
            ("a+", 2),
            ("(a+b", 4),
            ("a+(b", 4),
            ("-a", 0),
            ("a + * b", 4),
        ]
        for text, offset in cases:
            with pytest.raises(ExprSyntaxError) as info:
                parse_expr(text)
            assert info.value.offset == offset, text
            assert f"offset {offset}" in str(info.value)

    def test_bad_character_offset(self):
        with pytest.raises(ExprSyntaxError) as info:
            parse_expr("a$b")
        assert info.value.offset == 1

    def test_trailing_garbage_offset(self):
        for text, offset in [("a b", 2), ("3x", 1), ("(a)(b)", 3)]:
            with pytest.raises(ExprSyntaxError) as info:
                parse_expr(text)
            assert info.value.offset == offset
            assert info.value.expected == "operator or end of input"

    def test_integer_too_long_to_convert_is_a_syntax_error(self):
        digits = "7" * 5000  # past int()'s default limit of 4,300 digits
        with pytest.raises(ExprSyntaxError) as info:
            parse_expr("a+" + digits)
        assert info.value.offset == 2
        assert info.value.found == "5000 digits"
        assert len(str(info.value)) < 200

    def test_format_expr_round_trips(self):
        rng = random.Random(101)
        for _ in range(200):
            tree = random_tree(rng, 4, ["a", "b2", "x_3"])
            assert parse_expr(format_expr(tree)) == tree

    def test_format_expr_is_fully_parenthesized(self):
        assert format_expr(parse_expr("(x1+x2)*(x3-4)")) == "((x1+x2)*(x3-4))"


class TestNestingDepth:
    """A tree more than MAX_DEPTH operators deep, or parentheses nested
    more than MAX_DEPTH deep, is a syntax error, not a RecursionError from
    the parser or from walking the tree."""

    def test_limit_is_well_inside_the_recursion_limit(self):
        # The parser spends three frames per open parenthesis.
        assert MAX_DEPTH == 200
        assert 3 * MAX_DEPTH + 200 < sys.getrecursionlimit()

    @pytest.mark.parametrize("text, offset, found", [
        ("+".join(["a"] * 1500), 2 * MAX_DEPTH + 1, "'+'"),
        ("(" * 400 + "a" + ")" * 400, MAX_DEPTH, "'('"),
        # A chain inside parentheses keeps its depth: 149 + 52 operators.
        ("(" + "+".join(["a"] * 150) + ")" + "*a" * 52, 301 + 2 * 51, "'*'"),
    ], ids=["sum-1500", "parens-400", "sum-then-product"])
    def test_too_deep_is_refused_where_it_goes_past(self, text, offset, found):
        with pytest.raises(ExprSyntaxError) as info:
            parse_expr(text)
        assert info.value.offset == offset
        assert info.value.found == found
        assert f"at most {MAX_DEPTH} levels of nesting" in str(info.value)

    @pytest.mark.parametrize("text, value", [
        ("+".join(["a"] * (MAX_DEPTH + 1)), 5 * (MAX_DEPTH + 1) % N),
        ("(" * MAX_DEPTH + "a" + ")" * MAX_DEPTH, 5),
        ("(a+" * MAX_DEPTH + "a" + ")" * MAX_DEPTH, 5 * (MAX_DEPTH + 1) % N),
        ("(" + "+".join(["a"] * 150) + ")" + "*a" * 51,
         150 * 5 * pow(5, 51, N) % N),
    ], ids=["sum", "parens", "right-nested", "sum-then-product"])
    def test_formula_at_the_limit_evaluates(self, key_b, ct_b5, text, value):
        tree = parse_expr(text)
        assert parse_expr(format_expr(tree)) == tree
        env = CipherEnv(bindings={"a": ct_b5})
        assert dec(eval_expr(tree, env), key_b) == value

    def test_long_flat_products_of_sums_are_shallow(self):
        # Depth counts nesting, not length: 50 parenthesized sums of 150
        # terms multiplied together are 198 operators deep.
        text = "*".join(["(" + "+".join(["a"] * 150) + ")"] * 50)
        assert isinstance(parse_expr(text), BinOp)


class TestHomomorphicOps:
    def test_known_answer_sum(self, key_b, ct_b5, ct_b12):
        assert dec(he_add(ct_b5, ct_b12), key_b) == 17

    def test_known_answer_difference(self, key_b, ct_b5, ct_b12):
        assert dec(he_sub(ct_b5, ct_b12), key_b) == 1148

    def test_known_answer_product(self, key_b, ct_b5, ct_b12):
        assert dec(he_mul(ct_b5, ct_b12), key_b) == 60

    def test_pinned_wraparound_values(self, key_a):
        rng = random.Random(31)
        c1000 = enc4(1000, key_a, rng)
        c300 = enc4(300, key_a, rng)
        c100 = enc4(100, key_a, rng)
        c200 = enc4(200, key_a, rng)
        assert dec(he_add(c1000, c300), key_a) == 145
        assert dec(he_mul(c100, c200), key_a) == 365

    def test_add_zero_and_mul_one_are_neutral(self, key_a, ct_a):
        rng = random.Random(37)
        zero = enc4(0, key_a, rng)
        one = enc4(1, key_a, rng)
        assert dec(he_add(ct_a, zero), key_a) == 257
        assert dec(he_mul(ct_a, one), key_a) == 257

    def test_sub_cancels_add(self, key_b, ct_b5, ct_b12):
        assert dec(he_sub(he_add(ct_b5, ct_b12), ct_b12), key_b) == 5
        assert dec(he_sub(ct_b5, ct_b5), key_b) == 0


class TestDivision:
    def _invertible_ct(self, x, key, rng, tries=50):
        for _ in range(tries):
            ct = enc4(x, key, rng)
            if is_invertible(ct.body):
                return ct
        raise AssertionError("no invertible encryption found")

    def test_division_at_coprime_modulus(self):
        # 12 is a zero divisor mod 1155, so the 60/12 = 5 arithmetic needs
        # a modulus coprime to 12; N = 77 gives 60 * 12^-1 = 5 mod 77.
        rng = random.Random(41)
        key = keygen4(1, 8, rng=rng, candidates=[7, 11])
        assert key.modulus.n == 77
        c60 = enc4(60, key, rng)
        c12 = self._invertible_ct(12, key, rng)
        assert 60 * mod_inverse(12, 77) % 77 == 5
        assert dec(he_div(c60, c12), key) == 5

    def test_self_division_yields_one(self, key_a):
        rng = random.Random(43)
        ct = self._invertible_ct(2, key_a, rng)
        assert dec(he_div(ct, ct), key_a) == 1

    def test_zero_divisor_plaintext_never_divides(self, key_b):
        # gcd(12, 1155) = 3: every encryption of 12 has 12 on its
        # recovered diagonal, so the determinant shares a factor with N
        # no matter which coins were drawn.
        rng = random.Random(47)
        c60 = enc4(60, key_b, rng)
        for _ in range(10):
            c12 = enc4(12, key_b, rng)
            with pytest.raises(DivisorNotInvertibleError) as info:
                he_div(c60, c12)
            assert info.value.gcd > 1
            assert N % info.value.gcd == 0

    def test_divide_then_multiply_round_trips(self, key_a):
        rng = random.Random(53)
        cx = enc4(200, key_a, rng)
        cy = self._invertible_ct(13, key_a, rng)
        assert dec(he_mul(he_div(cx, cy), cy), key_a) == 200


class TestEvalExpr:
    def test_known_answer_formula(self, key_b, ct_b5, ct_b12):
        env = CipherEnv(bindings={"a": ct_b5, "b": ct_b12})
        assert dec(eval_expr(parse_expr("a+b"), env), key_b) == 17

    def test_identity_formula_returns_binding(self, ct_a):
        env = CipherEnv(bindings={"a": ct_a})
        assert eval_expr(parse_expr("a"), env) is ct_a

    def test_pinned_composite_formula(self, key_a):
        rng = random.Random(59)
        env = CipherEnv(bindings={"a": enc4(7, key_a, rng),
                                  "b": enc4(9, key_a, rng)})
        assert dec(eval_expr(parse_expr("(a+b)*a"), env), key_a) == 112

    def test_constants_are_encrypted_on_the_fly(self, key_a, ct_a):
        rng = random.Random(61)
        env = CipherEnv(bindings={"a": ct_a}, key=key_a, rng=rng)
        assert dec(eval_expr(parse_expr("a+3"), env), key_a) == 260
        # constants reduce mod N first
        assert dec(eval_expr(Const(N + 5), env), key_a) == 5

    def test_constant_without_key_rejected(self, ct_a):
        env = CipherEnv(bindings={"a": ct_a})
        with pytest.raises(ValueError):
            eval_expr(parse_expr("a+3"), env)

    def test_unbound_input(self, ct_a):
        env = CipherEnv(bindings={"a": ct_a})
        with pytest.raises(UnboundInputError) as info:
            eval_expr(parse_expr("a+missing"), env)
        assert info.value.name == "missing"

    def test_homomorphism_fuzz_500_expressions(self):
        # Random depth <= 5 trees over {+,-,*}; ciphertext-side evaluation
        # must agree with plaintext-side evaluation mod N on every tree.
        rng = random.Random(4001)
        key = keygen4(2, 16, rng=rng)
        n = key.modulus.n
        names = ["a", "b", "c", "d"]
        for _ in range(500):
            values = {name: rng.randrange(n) for name in names}
            env = CipherEnv(
                bindings={name: enc4(values[name], key, rng)
                          for name in names},
                key=key, rng=rng)
            tree = random_tree(rng, 5, names)
            assert dec(eval_expr(tree, env), key) == plain_eval(
                tree, values, n)

    def test_twenty_stage_multi_hop(self, key_a):
        # Evaluation outputs feed straight back in as operands; no refresh
        # step exists or is needed.
        rng = random.Random(67)
        value = 7
        current = enc4(value, key_a, rng)
        for step in range(20):
            op = ("+", "-", "*")[step % 3]
            operand = rng.randrange(N)
            c_op = enc4(operand, key_a, rng)
            current = {"+": he_add, "-": he_sub, "*": he_mul}[op](
                current, c_op)
            value = plain_eval(BinOp(op, Const(value), Const(operand)),
                               {}, N)
        assert dec(current, key_a) == value

    def test_compactness_fixed_width_size(self, key_a, ct_a):
        # One matrix in, one matrix out: a canonical fixed-width rendering
        # of any evaluation result has exactly the same byte length as the
        # rendering of a fresh ciphertext, however deep the circuit was.
        width = len(str(N - 1))

        def render(ct):
            return ",".join(f"{v:0{width}d}" for v in ct.body.entries)

        rng = random.Random(71)
        deep = ct_a
        for _ in range(20):
            deep = he_mul(he_add(deep, ct_a), enc4(3, key_a, rng))
        assert len(render(deep)) == len(render(ct_a))

    def test_unlinkability_structural(self, key_a, ct_a):
        # Fresh and evaluated ciphertexts expose identical structure:
        # same single field, same dim, same modulus, nothing else.
        summed = he_add(ct_a, ct_a)
        assert Ciphertext._fields == ("body",)
        assert type(summed) is type(ct_a)
        assert summed.dim == ct_a.dim == 4
        assert summed.modulus == ct_a.modulus == N

    def test_eval_rejects_foreign_objects(self):
        with pytest.raises(TypeError):
            eval_expr("a+b", CipherEnv())
        with pytest.raises(TypeError):
            format_expr(3.5)
