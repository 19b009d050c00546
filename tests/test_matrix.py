"""Matrix arithmetic over Z_N.

The determinant oracle is an independent permutation-sum implementation
(sum over S_d of sign * product), so the elimination behind determinant
and inverse is checked against something that shares no code with it.
Invertibility facts are checked exhaustively where the space allows (every
2x2 matrix mod 4, 6 and 9), and on entries biased toward the non-units,
whose columns often offer the elimination no unit pivot.
"""

import itertools
import math
import random

import pytest

from matfhe.keys import KeyTuple
from matfhe.matrix import (ALLOWED_DIMS, Matrix, MismatchError, determinant,
                           diagonal, identity, inverse, is_invertible,
                           mat_add, mat_mul, mat_sub, random_invertible)
from matfhe.ring import GenerationError, NotInvertibleError

from known_answers import KA, KA_INV, MOD, N


def det_permutation_sum(rows):
    """Leibniz formula: independent oracle for small determinants."""
    d = len(rows)
    total = 0
    for perm in itertools.permutations(range(d)):
        term = 1
        for i in range(d):
            term *= rows[i][perm[i]]
        inversions = sum(1 for i in range(d) for j in range(i + 1, d)
                         if perm[i] > perm[j])
        total += -term if inversions % 2 else term
    return total


def random_matrix(dim, modulus, rng):
    return Matrix(dim, modulus,
                  tuple(rng.randrange(modulus) for _ in range(dim * dim)))


def check_inverse(m, det, e):
    """inverse(m) is a two-sided inverse, or its error carries det mod N
    (not -det) and the gcd of det with N."""
    if math.gcd(det, m.modulus) == 1:
        inv = inverse(m)
        assert m * inv == e
        assert inv * m == e
    else:
        with pytest.raises(NotInvertibleError) as info:
            inverse(m)
        assert info.value.value == det
        assert info.value.gcd == math.gcd(det, m.modulus)


def count_invertible_2x2(n):
    """Check every 2x2 matrix over Z_n; returns how many are invertible."""
    count = 0
    e = identity(2, n)
    for entries in itertools.product(range(n), repeat=4):
        m = Matrix(2, n, entries)
        det = (entries[0] * entries[3] - entries[1] * entries[2]) % n
        assert determinant(m) == det
        assert is_invertible(m) == (math.gcd(det, n) == 1)
        count += is_invertible(m)
        check_inverse(m, det, e)
    return count


class TestConstruction:
    def test_from_rows_reduces_entries(self):
        m = Matrix.from_rows([[7, -1], [12, 5]], 5)
        assert m.entries == (2, 4, 2, 0)

    def test_from_rows_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            Matrix.from_rows([[1, 2], [3]], 7)
        with pytest.raises(ValueError):
            Matrix.from_rows([[1]], 7)
        with pytest.raises(ValueError):
            Matrix.from_rows([[1, 2], [3, 4]], 1)

    def test_allowed_dims_cover_scheme_shapes(self):
        assert ALLOWED_DIMS == (2, 3, 4, 8)

    def test_identity_and_diagonal(self):
        assert identity(2, 7).rows() == ((1, 0), (0, 1))
        assert diagonal((3, 9), 7).rows() == ((3, 0), (0, 2))

    def test_indexing_and_rows(self):
        m = Matrix.from_rows([[1, 2], [3, 4]], 7)
        assert m[0, 1] == 2
        assert m[1, 0] == 3
        assert m.rows() == ((1, 2), (3, 4))
        # A column past either end is refused, not read from another row.
        m4 = Matrix.from_rows([[1, 2, 3, 4], [5, 6, 7, 8], [9, 10, 11, 12],
                               [13, 14, 15, 16]], 97)
        for index in ((0, 4), (0, -1), (1, 7)):
            with pytest.raises(IndexError):
                m4[index]

    def test_equality_and_hash(self):
        a = Matrix.from_rows([[1, 2], [3, 4]], 7)
        b = Matrix.from_rows([[1, 2], [3, 4]], 7)
        c = Matrix.from_rows([[1, 2], [3, 4]], 11)
        assert a == b
        assert hash(a) == hash(b)
        assert a != c
        assert a != "not a matrix"
        fields = (a.dim, a.modulus, a.entries)
        assert tuple(a) == fields
        assert hash(a) == hash(fields)
        assert a != fields and fields != a
        assert not (a == fields or fields == a)
        for name in ("dim", "modulus", "entries", "extra"):
            with pytest.raises(AttributeError):
                setattr(a, name, 3)
        assert a == b
        # As a tuple, 3 * a would repeat it and (1,) + a concatenate.
        with pytest.raises(TypeError):
            3 * a
        with pytest.raises(TypeError):
            (1,) + a
        # Nor can a key's hash or its verify() be changed through its k
        # (a copy of KA, so that no other test could see an edit).
        key = KeyTuple(MOD, Matrix(*KA), KA_INV)
        before = hash(key)
        with pytest.raises(AttributeError):
            key.k.entries = identity(4, N).entries
        assert hash(key) == before
        assert key.verify()


class TestArithmetic:
    def test_pinned_small_sums_and_products(self):
        a = Matrix.from_rows([[1, 2], [3, 4]], 7)
        b = Matrix.from_rows([[5, 6], [0, 2]], 7)
        assert (a + b).rows() == ((6, 1), (3, 6))
        assert (a - b).rows() == ((3, 3), (3, 2))
        assert (a * b).rows() == ((5, 3), (1, 5))

    def test_mismatch_raises(self):
        a = Matrix.from_rows([[1, 2], [3, 4]], 7)
        b = Matrix.from_rows([[1, 2], [3, 4]], 11)
        c = identity(4, 7)
        for op in (mat_add, mat_sub, mat_mul):
            with pytest.raises(MismatchError):
                op(a, b)
            with pytest.raises(MismatchError):
                op(a, c)

    def test_unrolled_add_matches_generic_formula(self):
        # The dim 4 kernel skips __init__ and uses conditional subtraction;
        # pin it to the plain (x + y) % n definition.
        rng = random.Random(42)
        for _ in range(200):
            a = random_matrix(4, N, rng)
            b = random_matrix(4, N, rng)
            out = mat_add(a, b)
            assert out.entries == tuple(
                (x + y) % N for x, y in zip(a.entries, b.entries))
            assert out.dim == 4 and out.modulus == N

    @pytest.mark.parametrize("dim", ALLOWED_DIMS)
    def test_one_correction_reduces_edge_entries(self, dim):
        # add and sub correct each entry by one N at most, which holds only
        # for inputs in [0, N): pin the entries 0, 1 and N - 1, in every
        # pairing and so in both operand orders, to the plain % definitions.
        for x, y in itertools.product((0, 1, N - 1), repeat=2):
            a = Matrix(dim, N, (x,) * dim * dim)
            b = Matrix(dim, N, (y,) * dim * dim)
            assert mat_add(a, b).entries == ((x + y) % N,) * dim * dim
            assert mat_sub(a, b).entries == ((x - y) % N,) * dim * dim

    def test_ring_laws_on_random_triples(self):
        rng = random.Random(7)
        for _ in range(500):
            a = random_matrix(4, N, rng)
            b = random_matrix(4, N, rng)
            c = random_matrix(4, N, rng)
            assert a + b == b + a
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert (a + b) * c == a * c + b * c
            assert a - b == a + (identity(4, N) - identity(4, N)) - b

    def test_identity_is_neutral(self):
        rng = random.Random(3)
        for dim in ALLOWED_DIMS:
            m = random_matrix(dim, N, rng)
            e = identity(dim, N)
            assert m * e == m
            assert e * m == m


class TestDeterminant:
    def test_determinant_matches_permutation_sum_dim4(self):
        rng = random.Random(11)
        for _ in range(200):
            m = random_matrix(4, N, rng)
            assert determinant(m) == det_permutation_sum(m.rows()) % N

    def test_determinant_matches_permutation_sum_dim8(self):
        rng = random.Random(13)
        for _ in range(3):
            m = random_matrix(8, N, rng)
            assert determinant(m) == det_permutation_sum(m.rows()) % N

    def test_bareiss_handles_zero_pivots(self):
        rows = [[0, 1, 0, 0, 0, 0, 0, 0],
                [1, 0, 0, 0, 0, 0, 0, 0],
                [0, 0, 1, 0, 0, 0, 0, 0],
                [0, 0, 0, 1, 0, 0, 0, 0],
                [0, 0, 0, 0, 1, 0, 0, 0],
                [0, 0, 0, 0, 0, 1, 0, 0],
                [0, 0, 0, 0, 0, 0, 0, 1],
                [0, 0, 0, 0, 0, 0, 1, 0]]
        perm = Matrix.from_rows(rows, N)
        assert determinant(perm) == 1
        assert inverse(perm) == Matrix.from_rows(list(zip(*rows)), N)
        rows[1] = [0, 1, 0, 0, 0, 0, 0, 0]
        assert determinant(Matrix.from_rows(rows, N)) == 0

    def test_determinant_is_multiplicative(self):
        rng = random.Random(19)
        for _ in range(50):
            a = random_matrix(4, N, rng)
            b = random_matrix(4, N, rng)
            assert determinant(a * b) == determinant(a) * determinant(b) % N

    def test_identity_determinant(self):
        for dim in ALLOWED_DIMS:
            assert determinant(identity(dim, N)) == 1


class TestInvertibility:
    def test_exhaustive_2x2_mod_6(self):
        # Over Z_6 the invertible 2x2 matrices can be counted outright:
        # 288 of 1296.
        assert count_invertible_2x2(6) == 288

    @pytest.mark.parametrize("n,count", [(4, 96), (9, 3888)])
    def test_exhaustive_2x2_mod_prime_power(self, n, count):
        # Columns such as (2, 2) mod 4 or (3, 6) mod 9 hold no unit at all.
        assert count_invertible_2x2(n) == count

    def test_no_unit_pivot_whose_gcd_is_a_unit(self):
        # Neither 3 nor 5 is a unit mod 15, but gcd(3, 5) is.
        m = Matrix.from_rows([[3, 5], [5, 3]], 15)
        assert determinant(m) == 14
        assert inverse(m) == Matrix.from_rows([[12, 5], [5, 12]], 15)

    def test_no_unit_pivot_whose_gcd_is_not_a_unit(self):
        m = Matrix.from_rows([[3, 9], [9, 6]], 27)
        with pytest.raises(NotInvertibleError) as info:
            inverse(m)
        assert info.value.value == 18
        assert info.value.gcd == 9

    @pytest.mark.parametrize("n", [15, 27, 1155])
    def test_non_unit_entries_match_leibniz(self, n):
        # Entries biased toward the non-units, by a weight drawn per matrix,
        # so that columns without a unit pivot are common, at dims 2 to 4.
        rng = random.Random(n)
        non_units = [x for x in range(n) if math.gcd(x, n) != 1]
        for dim in (2, 3, 4):
            e = identity(dim, n)
            for _ in range(150):
                bias = rng.random()
                m = Matrix(dim, n, tuple(
                    rng.choice(non_units) if rng.random() < bias
                    else rng.randrange(n) for _ in range(dim * dim)))
                det = det_permutation_sum(m.rows()) % n
                assert determinant(m) == det
                assert is_invertible(m) == (math.gcd(det, n) == 1)
                check_inverse(m, det, e)

    def test_gcd_criterion_matches_inverse_existence(self):
        rng = random.Random(23)
        e = identity(4, N)
        for _ in range(100):
            m = random_matrix(4, N, rng)
            if is_invertible(m):
                inv = inverse(m)
                assert m * inv == e
                assert inv * m == e
            else:
                with pytest.raises(NotInvertibleError) as info:
                    inverse(m)
                err = info.value
                assert err.value == determinant(m)
                assert err.gcd == math.gcd(err.value, N)

    def test_pinned_inverse_pair(self):
        assert inverse(Matrix(4, N, KA.entries)) == KA_INV
        assert inverse(Matrix(4, N, KA_INV.entries)) == KA

    def test_inverse_round_trip_all_dims(self):
        rng = random.Random(29)
        for dim in ALLOWED_DIMS:
            m = random_invertible(dim, N, rng)[0]
            assert m * inverse(m) == identity(dim, N)

    def test_singular_matrix_raises(self):
        m = Matrix.from_rows([[1, 1], [1, 1]], 7)
        with pytest.raises(NotInvertibleError):
            inverse(m)


class TestRandomInvertible:
    def test_deterministic_under_seed(self):
        a = random_invertible(4, N, random.Random(5))
        b = random_invertible(4, N, random.Random(5))
        assert a == b

    def test_outputs_are_invertible(self):
        rng = random.Random(31)
        for dim in ALLOWED_DIMS:
            for _ in range(20):
                assert is_invertible(random_invertible(dim, N, rng)[0])

    def test_parameter_validation(self):
        rng = random.Random(1)
        with pytest.raises(ValueError):
            random_invertible(5, N, rng)
        with pytest.raises(ValueError):
            random_invertible(4, 1, rng)

    def test_reroll_budget_raises(self):
        class ZeroRng:
            def randrange(self, n):
                return 0

        with pytest.raises(GenerationError, match="exhausted 1000 rerolls"):
            random_invertible(4, N, ZeroRng())
