"""Encryption, decryption, and re-keying.

The pinned vectors in known_answers.py anchor every ciphertext-producing
path bit for bit; the randomized suites then establish that correctness
holds across the whole coin space, not just the pinned corner.
"""

import random

import pytest

from matfhe import cipher
from matfhe.cipher import (Ciphertext, dec, dec_diagonal, enc4, enc8,
                           encrypt_value, encryption_diagonal, lock,
                           sample_enc4_randomness, sample_enc8_randomness,
                           unlock)
from matfhe.keys import KeyTuple, keygen4, keygen8, keyset_gen
from matfhe.matrix import identity, mat_mul

from conftest import RND_A
from known_answers import (CT_A, CT_B5, CT_B12, CT_B_PROD, CT_B_SUM, DIAG_A,
                           DIAG_B_PROD, DIAG_B_SUM, KA, KA_INV, MOD, N)


class TestKnownAnswerEncrypt:
    def test_diagonal_reproduced(self):
        assert encryption_diagonal(257, MOD, RND_A) == DIAG_A

    def test_ciphertext_reproduced_entry_for_entry(self, key_a):
        assert enc4(257, key_a, RND_A).body == CT_A

    def test_decrypt_recovers_plaintext_and_diagonal(self, key_a, ct_a):
        assert dec(ct_a, key_a) == 257
        assert dec_diagonal(ct_a, key_a) == DIAG_A

    def test_diagonal_congruences(self):
        # Each hidden slot must agree with its base-row entry factor by
        # factor: rows 2 and 3 of [[x,r,r],[r,x,r],[r,r,x]] here.
        x, r = 257, 291
        rows = ((r, x, r), (r, r, x))
        for j, value in enumerate(DIAG_A[1:]):
            assert value % 21 == rows[0][j] % 21
            assert value % 55 == rows[1][j] % 55


class TestKnownAnswerHomomorphism:
    def test_both_reference_ciphertexts_decrypt(self, key_b, ct_b5, ct_b12):
        assert dec(ct_b5, key_b) == 5
        assert dec(ct_b12, key_b) == 12

    def test_sum_matrix_and_diagonal(self, key_b, ct_b5, ct_b12):
        total = Ciphertext(ct_b5.body + ct_b12.body)
        assert total.body == CT_B_SUM
        assert dec(total, key_b) == 17
        assert dec_diagonal(total, key_b) == DIAG_B_SUM

    def test_product_matrix_and_diagonal(self, key_b, ct_b5, ct_b12):
        prod = Ciphertext(ct_b5.body * ct_b12.body)
        assert prod.body == CT_B_PROD
        assert dec(prod, key_b) == 60
        assert dec_diagonal(prod, key_b) == DIAG_B_PROD


ROW8 = ("x",) + ("r1",) * 3 + ("r2",) * 3
KEY4 = KeyTuple(MOD, KA, KA_INV)
KEY8 = KeyTuple(MOD, identity(8, N), identity(8, N))
SHAPE = "enc4 coins are (r, row_choices), enc8 coins (r1, r2, rows)"
CHOICE = "row choices must be 1, 2, or 3"
ARRANGE = "each row must arrange x once and r1, r2 three times each"
COUNT = "need one slot row per factor"
BLINDS = "need distinct blinds in [0, n), none equal to x"

# Every check on fixed coins, each made in one place (cipher._encrypt), by
# the coins of x = 5 that trip it and its exact message; MOD has m = 2.
COIN_CHECKS = {
    "enc4-three-part": (4, (9, (1, 2), ()), SHAPE),
    "enc4-one-part": (4, (9,), SHAPE),
    "enc4-choice-0": (4, (9, (0, 2)), CHOICE),
    "enc4-choice-4": (4, (9, (1, 4)), CHOICE),
    "enc4-one-row": (4, (9, (1,)), COUNT),
    "enc4-three-rows": (4, (9, (1, 2, 3)), COUNT),
    "enc4-blind-is-x": (4, (5, (1, 2)), BLINDS),
    "enc4-blind-is-n": (4, (N, (1, 2)), BLINDS),
    "enc4-blind-negative": (4, (-1, (1, 2)), BLINDS),
    "enc8-two-part": (8, (9, (ROW8, ROW8)), SHAPE),
    "enc8-all-x-row": (8, (9, 10, (("x",) * 7, ROW8)), ARRANGE),
    "enc8-six-slot-row": (8, (9, 10, (ROW8, ROW8[:6])), ARRANGE),
    "enc8-one-row": (8, (9, 10, (ROW8,)), COUNT),
    "enc8-r1-is-x": (8, (5, 10, (ROW8, ROW8)), BLINDS),
    "enc8-r2-is-r1": (8, (9, 9, (ROW8, ROW8)), BLINDS),
    "enc8-r2-is-n": (8, (9, N, (ROW8, ROW8)), BLINDS),
}


@pytest.mark.parametrize("dim, coins, message", COIN_CHECKS.values(),
                         ids=COIN_CHECKS)
def test_every_coin_check_raises_its_message(dim, coins, message):
    enc, key = (enc4, KEY4) if dim == 4 else (enc8, KEY8)
    with pytest.raises(ValueError) as err:
        enc(5, key, coins)
    assert type(err.value) is ValueError
    assert str(err.value) == message
    good = (9, (1, 2)) if dim == 4 else (9, 10, (ROW8, ROW8))
    assert dec(enc(5, key, good), key) == 5


class TestRandomnessValidation:
    def test_row_choice_range(self, key_a):
        for choices in ((0, 2), (1, 4)):
            with pytest.raises(ValueError, match="must be 1, 2, or 3"):
                enc4(257, key_a, (1, choices))

    def test_enc4_rejects_blind_equal_to_plaintext(self, key_a):
        with pytest.raises(ValueError):
            enc4(257, key_a, (257, (1, 1)))

    def test_enc4_rejects_out_of_range_blind(self, key_a):
        with pytest.raises(ValueError):
            enc4(257, key_a, (N, (1, 1)))

    def test_enc4_rejects_wrong_choice_count(self, key_a):
        with pytest.raises(ValueError):
            enc4(257, key_a, (291, (1,)))

    def test_list_row_choices_are_accepted(self, key_a):
        assert dec(enc4(5, key_a, (9, [1, 3])), key_a) == 5

    def test_coins_of_the_other_dim_are_refused(self, key_a):
        # A coin tuple's length names its dim: enc4 refuses enc8 coins and
        # enc8 refuses enc4 coins, with a ValueError, not as an rng.
        key8 = keygen8(2, 16, rng=random.Random(3))
        coins8 = sample_enc8_randomness(5, key8.modulus, random.Random(1))
        coins4 = sample_enc4_randomness(5, key8.modulus, random.Random(1))
        for enc, key, coins in ((enc4, key_a, coins8), (enc4, key_a, ()),
                                (enc8, key8, coins4), (enc8, key8, (9,))):
            with pytest.raises(ValueError, match="enc4 coins are"):
                enc(5, key, coins)

    def test_enc4_rejects_out_of_range_plaintext(self, key_a):
        with pytest.raises(ValueError):
            enc4(N, key_a, random.Random(1))
        with pytest.raises(ValueError):
            enc4(-1, key_a, random.Random(1))

    def test_enc4_requires_dim4_key(self):
        key8 = keygen8(2, 16, rng=random.Random(2))
        with pytest.raises(ValueError):
            enc4(5, key8, random.Random(1))

    def test_enc8_randomness_validation(self):
        key8 = keygen8(2, 16, rng=random.Random(3))
        assert dec(enc8(5, key8, (1, 2, (ROW8, ROW8))), key8) == 5
        for bad in (("x",) * 7, ROW8[:6]):
            with pytest.raises(ValueError, match="arrange x once"):
                enc8(5, key8, (1, 2, (bad, ROW8)))

    def test_enc8_rejects_equal_blinds(self, key_a):
        key8 = keygen8(2, 16, rng=random.Random(3))
        with pytest.raises(ValueError):
            enc8(5, key8, (9, 9, (ROW8, ROW8)))

    def test_enc8_rejects_bad_blinds_counts_and_keys(self, key_a):
        # The checks enc4 and enc8 share: blinds in [0, n), unequal to x
        # and to each other, one slot row per factor, a key of their dim.
        key8 = keygen8(2, 16, rng=random.Random(3))
        n = key8.modulus.n
        for r1, r2, count in [(5, 9, 2), (9, 5, 2), (n, 9, 2), (9, -1, 2),
                              (9, 10, 1), (9, 10, 3)]:
            with pytest.raises(ValueError):
                enc8(5, key8, (r1, r2, (ROW8,) * count))
        with pytest.raises(ValueError):
            enc8(5, key_a, random.Random(1))
        good = (9, 10, (ROW8, ROW8))
        assert dec(enc8(5, key8, good), key8) == 5

    def test_sampled_coins_respect_constraints(self):
        rng = random.Random(5)
        for _ in range(200):
            x = rng.randrange(N)
            r, choices = sample_enc4_randomness(x, MOD, rng)
            assert r != x and 0 <= r < N
            assert len(choices) == MOD.m
            r1, r2, rows = sample_enc8_randomness(x, MOD, rng)
            assert len({x, r1, r2}) == 3
            assert len(rows) == MOD.m

    @pytest.mark.parametrize("dim", (4, 8))
    def test_rng_coins_come_from_one_sampler_call(self, monkeypatch, dim):
        # Given an rng, each encryption calls its dim's sampler once, on
        # the stream a direct call reads; fixed coins call no sampler.
        samplers, calls = {}, []
        for d in (4, 8):
            name = f"sample_enc{d}_randomness"
            samplers[d] = getattr(cipher, name)

            def counting(x, modulus, rng, d=d):
                calls.append((d, x))
                return samplers[d](x, modulus, rng)

            monkeypatch.setattr(cipher, name, counting)
        enc = enc4 if dim == 4 else enc8
        key = (keygen4 if dim == 4 else keygen8)(2, 16, random.Random(dim))
        rng, twin = random.Random(1), random.Random(1)
        for x in (0, 5, 9):
            coins = samplers[dim](x, key.modulus, twin)
            assert enc(x, key, rng) == enc(x, key, coins)
        assert calls == [(dim, 0), (dim, 5), (dim, 9)]


class TestRoundTrips:
    def test_thousand_round_trips(self):
        # Correctness of Dec(Enc(x)) = x over fresh keys and coins at
        # production-shaped parameters (m=2, 16-bit factors).
        rng = random.Random(4242)
        for trial in range(1000):
            if trial % 100 == 0:
                key = keygen4(2, 16, rng=rng)
                n = key.modulus.n
            x = rng.randrange(n)
            assert dec(enc4(x, key, rng), key) == x

    def test_enc8_round_trips(self):
        rng = random.Random(4343)
        key = keygen8(2, 16, rng=rng)
        n = key.modulus.n
        for _ in range(200):
            x = rng.randrange(n)
            assert dec(enc8(x, key, rng), key) == x

    def test_encrypt_value_dispatches_on_dim(self):
        rng = random.Random(7)
        k4 = keygen4(2, 16, rng=rng)
        k8 = keygen8(2, 16, rng=rng)
        assert encrypt_value(9, k4, rng).dim == 4
        assert encrypt_value(9, k8, rng).dim == 8

    def test_identity_plaintext_dim8(self):
        rng = random.Random(11)
        key = keygen8(2, 16, rng=rng)
        ct = enc8(1, key, rng)
        assert dec(ct, key) == 1
        assert dec(Ciphertext(ct.body * ct.body), key) == 1

    def test_dim8_product_tracks_plaintext_product(self):
        rng = random.Random(13)
        key = keygen8(2, 16, rng=rng)
        n = key.modulus.n
        for _ in range(20):
            x, y = rng.randrange(n), rng.randrange(n)
            cx, cy = enc8(x, key, rng), enc8(y, key, rng)
            assert dec(Ciphertext(cx.body * cy.body), key) == x * y % n
            assert dec(Ciphertext(cx.body + cy.body), key) == (x + y) % n

    def test_encryption_is_probabilistic(self, key_a):
        rng = random.Random(17)
        bodies = {enc4(257, key_a, rng).body.entries for _ in range(20)}
        assert len(bodies) > 1

    def test_wrong_key_garbles(self, key_a, key_b, ct_a):
        assert dec(ct_a, key_a) == 257
        assert dec(ct_a, key_b) != 257


class TestLockUnlock:
    def test_unlock_inverts_lock(self, key_a, ct_a):
        assert unlock(lock(ct_a, key_a), key_a) == ct_a

    def test_lock_matches_composed_key(self, key_a, key_b, ct_a):
        # Locking under key B turns a key-A ciphertext into a ciphertext
        # of the product key A*B.
        locked = lock(ct_a, key_b)
        composed = KeyTuple(MOD, mat_mul(key_a.k, key_b.k),
                            mat_mul(key_b.k_inv, key_a.k_inv))
        assert composed.verify()
        assert dec(locked, composed) == 257

    def test_lock_conjugates_the_body(self, key_a):
        locked = lock(Ciphertext(CT_A), key_a)
        assert isinstance(locked, Ciphertext)
        assert locked.body == mat_mul(mat_mul(key_a.k_inv, CT_A), key_a.k)

    def test_unlock_reveals_diagonal_structure(self):
        # Unlocking with the full key stack strips every conjugation layer,
        # leaving the bare diagonal: off-diagonal entries all zero.
        rng = random.Random(19)
        for _ in range(500):
            key = keygen4(1, 16, rng=rng)
            n = key.modulus.n
            ct = enc4(rng.randrange(n), key, rng)
            inner = mat_mul(mat_mul(key.k, ct.body), key.k_inv)
            for i in range(4):
                for j in range(4):
                    if i != j:
                        assert inner[i, j] == 0

    def test_key_composition_chain(self):
        # Three lock layers under k1, k2, k3 decrypt under the ordered
        # product k1*k2*k3: the algebra behind multi-party delegation.
        rng = random.Random(23)
        ks = keyset_gen(4, 3, 2, 16, rng)
        k1, k2, k3 = ks.components
        n = ks.modulus.n
        for _ in range(20):
            x = rng.randrange(n)
            ct = lock(lock(enc4(x, k1, rng), k2), k3)
            assert dec(ct, ks.master) == x

    def test_homomorphism_survives_locking(self):
        rng = random.Random(29)
        ks = keyset_gen(4, 2, 2, 16, rng)
        k1, k2 = ks.components
        n = ks.modulus.n
        x, y = rng.randrange(n), rng.randrange(n)
        cx = lock(enc4(x, k1, rng), k2)
        cy = lock(enc4(y, k1, rng), k2)
        assert dec(Ciphertext(cx.body + cy.body), ks.master) == (x + y) % n
        assert dec(Ciphertext(cx.body * cy.body), ks.master) == x * y % n
