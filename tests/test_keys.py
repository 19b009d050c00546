"""Key generation and key sets."""

import random
from functools import reduce

import pytest

from matfhe.keys import (KeySet, KeyTuple, compose, keygen4, keygen8,
                         keyset_gen)
from matfhe.matrix import Matrix, identity, inverse, mat_mul

from conftest import EntryRng
from known_answers import KA, KA_INV, KB, KB_INV, MOD, N


class TestKeyTuple:
    def test_reference_keys_verify(self, key_a, key_b):
        assert key_a.verify()
        assert key_b.verify()
        assert key_a.dim == 4

    def test_verify_detects_mismatched_pair(self):
        bad = KeyTuple(MOD, KA, KB_INV)
        assert not bad.verify()

    def test_dimension_must_be_key_shaped(self):
        two = Matrix.from_rows([[1, 0], [0, 1]], N)
        with pytest.raises(ValueError):
            KeyTuple(MOD, two, two)

    def test_pair_must_share_dimension(self):
        with pytest.raises(ValueError):
            KeyTuple(MOD, KA, identity(8, N))

    def test_matrices_must_match_modulus(self):
        wrong = Matrix(4, 1157, KA.entries)
        with pytest.raises(ValueError):
            KeyTuple(MOD, wrong, KA_INV)


class TestKeygen:
    def test_injected_streams_reproduce_reference_key(self):
        # Feeding the factor candidates and the key entries back through
        # generation must land on the exact reference key, proving the
        # generator applies no hidden transformation.
        kt = keygen4(2, 8, EntryRng(KA.entries), candidates=[3, 5, 7, 11])
        assert kt.modulus == MOD
        assert kt.k == KA
        assert kt.k_inv == KA_INV

    def test_seeded_generation_is_deterministic(self):
        a = keygen4(2, 16, rng=random.Random(99))
        b = keygen4(2, 16, rng=random.Random(99))
        assert a == b

    def test_generated_keys_satisfy_postconditions(self):
        rng = random.Random(41)
        for _ in range(50):
            kt = keygen4(2, 16, rng=rng)
            assert kt.dim == 4
            assert kt.verify()
            assert mat_mul(kt.k_inv, kt.k) == identity(4, kt.modulus.n)

    def test_keygen8_shape_and_postconditions(self):
        rng = random.Random(43)
        for _ in range(5):
            kt = keygen8(2, 16, rng=rng)
            assert kt.dim == 8
            assert kt.verify()


class TestKeySet:
    def test_master_is_ordered_product(self):
        rng = random.Random(47)
        ks = keyset_gen(4, 3, 2, 16, rng)
        k1, k2, k3 = (kt.k for kt in ks.components)
        assert ks.master.k == mat_mul(mat_mul(k1, k2), k3)

    def test_master_inverse_is_reversed_inverse_product(self):
        # (k1 k2 k3)^-1 = k3^-1 k2^-1 k1^-1; keyset_gen composes the
        # component pairs, so the master inverse is also checked against
        # the inverse of the product matrix, computed by elimination.
        rng = random.Random(53)
        ks = keyset_gen(4, 3, 2, 16, rng)
        i1, i2, i3 = (kt.k_inv for kt in ks.components)
        assert ks.master.k_inv == mat_mul(mat_mul(i3, i2), i1)
        assert ks.master.k_inv == inverse(ks.master.k)

    def test_component_order_matters(self):
        # Conjugation keys do not commute in general; find a witness pair
        # and confirm the two products differ.
        rng = random.Random(59)
        ks = keyset_gen(4, 2, 2, 16, rng)
        k1, k2 = (kt.k for kt in ks.components)
        assert mat_mul(k1, k2) == ks.master.k
        assert mat_mul(k2, k1) != ks.master.k

    def test_all_members_verify(self):
        rng = random.Random(61)
        ks = keyset_gen(4, 4, 2, 16, rng)
        assert len(ks.components) == 4
        assert ks.master.verify()
        for kt in ks.components:
            assert kt.verify()
            assert kt.modulus == ks.modulus

    def test_count_validation(self):
        with pytest.raises(ValueError):
            keyset_gen(4, 1, 2, 16, random.Random(1))

    def test_keyset_structural_validation(self):
        rng = random.Random(67)
        ks = keyset_gen(4, 2, 2, 16, rng)
        with pytest.raises(ValueError):
            KeySet(ks.modulus, (ks.components[0],))
        other = keygen4(2, 16, rng=random.Random(71))
        with pytest.raises(ValueError):
            KeySet(ks.modulus, (ks.components[0], other))

    @pytest.mark.parametrize("count", [2, 3, 4])
    def test_derived_master_is_the_fold_of_the_components(self, count):
        ks = keyset_gen(4, count, 2, 16, random.Random(73 + count))
        assert ks.master == reduce(compose, ks.components)
        assert ks.prefix == reduce(compose, ks.components[:-1])
        assert ks.master is ks.master and ks.prefix is ks.prefix
