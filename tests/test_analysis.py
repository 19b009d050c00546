"""Experiments, witness constructions, and the keyless plaintext-candidate
test that conjugation invariants allow at dims 4 and 8."""

import math
import random
import tracemalloc

import pytest

from matfhe.analysis import (brute_force_cost, count_invertible_exhaustive,
                             invertibility_experiment, kpa_collision_estimate,
                             lemma6_witness, lemma7_check,
                             plaintext_candidates)
from matfhe.cipher import enc4, enc8, encrypt_value, sample_enc4_randomness
from matfhe.evaluate import he_add, he_mul
from matfhe.keys import KeyTuple, keygen4, keygen8, keyset_gen
from matfhe.matrix import (Matrix, determinant, diagonal, identity, mat_mul,
                           mat_sub, random_invertible)
from matfhe.ring import (ParameterError, RingModulus, crt_solve,
                         generate_coprime_set, mod_inverse)

from conftest import RND_A
from known_answers import MOD, N

_DOUBLE_SWAP = ((0, 1, 0, 0),
                (1, 0, 0, 0),
                (0, 0, 0, 1),
                (0, 0, 1, 0))


def gl4_density(primes):
    """Fraction of invertible 4x4 matrices mod a squarefree product:
    prod over p of prod_{k=1..4} (1 - p^-k). Independent oracle for the
    sampler."""
    out = 1.0
    for p in primes:
        for k in range(1, 5):
            out *= 1 - p ** -k
    return out


class TestInvertibilityExperiment:
    def test_reference_modulus_matches_density_formula(self):
        # At N = 1155 the uniform density is capped by the prime 3 at
        # about 32%; each 100-sample trial must land within 3 sigma of
        # the formula value.
        p = gl4_density([3, 5, 7, 11])
        counts = invertibility_experiment([MOD.n], 100, 5, random.Random(2))
        assert list(counts) == [N]
        assert len(counts[N]) == 5
        sigma = math.sqrt(100 * p * (1 - p))
        for hits in counts[N]:
            assert abs(hits - 100 * p) <= 3 * sigma

    def test_density_shoots_up_at_large_prime_factors(self):
        # With no small primes dividing N the density clears 96%, so a
        # conservative >= 60/100 holds in every trial: invertibility gets
        # easier as the factors grow.
        big = 101 * 103 * 107 * 109
        assert gl4_density([101, 103, 107, 109]) > 0.96
        counts = invertibility_experiment([big], 100, 5, random.Random(2))
        for hits in counts[big]:
            assert hits >= 60

    def test_degenerate_modulus_accepts_bare_int(self):
        counts = invertibility_experiment([4], 50, 2, random.Random(9))
        for hits in counts[4]:
            assert 0 <= hits <= 50

    def test_exhaustive_2x2_mod_6(self):
        assert count_invertible_exhaustive(2, 6) == (288, 1296)

    def test_sampler_agrees_with_exhaustive_count(self):
        # Binomial cross-check: the sampled frequency at dim 2, n = 6 must
        # land within 3 sigma of the exhaustive probability 288/1296.
        samples = 2000
        p = 288 / 1296
        counts = invertibility_experiment([6], samples, 1, random.Random(10),
                                          dim=2)
        hits = counts[6][0]
        sigma = math.sqrt(samples * p * (1 - p))
        assert abs(hits - samples * p) <= 3 * sigma

    def test_sample_count_validated(self):
        with pytest.raises(ValueError):
            invertibility_experiment([MOD.n], 0, 1, random.Random(1))


class TestBruteForceCost:
    def test_pinned_values(self):
        assert brute_force_cost(10, 4) == 164
        assert brute_force_cost(16, 4) == 260
        assert brute_force_cost(1, 1) == 1

    def test_monotone_in_both_arguments(self):
        for dim in (1, 2, 4, 8):
            costs = [brute_force_cost(b, dim) for b in range(1, 21)]
            assert costs == sorted(costs)
            assert len(set(costs)) == len(costs)
        for bits in (1, 8, 16):
            costs = [brute_force_cost(bits, d) for d in (1, 2, 4, 8)]
            assert costs == sorted(costs)
            assert len(set(costs)) == len(costs)

    def test_validation(self):
        with pytest.raises(ValueError):
            brute_force_cost(0, 4)
        with pytest.raises(ValueError):
            brute_force_cost(8, 0)


class _ConstantRng:
    """Always returns the same coins: determinized encryption. Coins are
    drawn from getrandbits, and 2 is in range for every bound drawn: the
    blind r = 2 (not the plaintext 257) and row choice 3."""

    def getrandbits(self, k):
        return 2


class TestKpaCollision:
    def test_constant_randomness_always_collides(self, key_a):
        assert kpa_collision_estimate(key_a, 257, 500, _ConstantRng()) == 1.0

    def test_toy_modulus_matches_exhaustive_expectation(self):
        # At N = 21, m = 1: a collision needs the same blind (1 of 20,
        # since r == x is rejected) and the same row choice (1 of 3), so
        # the exact expectation is 1/60. Accept within binomial 3 sigma.
        key = keygen4(1, 8, rng=random.Random(11), candidates=[3, 7])
        assert key.modulus.n == 21
        trials = 30000
        p = 1 / 60
        fraction = kpa_collision_estimate(key, 5, trials, random.Random(12))
        sigma = math.sqrt(p * (1 - p) / trials)
        assert abs(fraction - p) <= 3 * sigma
        assert round(fraction * trials) == 491

    def test_reference_modulus_band(self, key_a):
        # A collision at N = 1155, m = 2 needs the same blind (1/1154) and
        # both row choices (1/9). That rate is conditional on a generic
        # target: a target blind congruent to x mod a factor makes one row
        # choice irrelevant and triples the rate, which happens for about
        # 6% of targets. The seed here draws a generic target (r = 275,
        # not 257 mod 21 or mod 55); the band is binomial 3 sigma.
        trials = 120000
        p = 1 / (1154 * 9)
        fraction = kpa_collision_estimate(key_a, 257, trials,
                                          random.Random(1))
        sigma = math.sqrt(p * (1 - p) / trials)
        assert abs(fraction - p) <= 3 * sigma
        assert round(fraction * trials) == 10

    def test_dim8_key_draws_enc8_coins(self):
        # At N = 15, m = 1, enc4 coins would collide at 1/(14 * 3), about
        # 0.024. Enc8 coins must repeat both blinds and the arrangement (or
        # swap r1 and r2 together with their slots): 2/(14 * 13 * 140),
        # about 8e-5.
        key = keygen8(1, 8, random.Random(11), candidates=(3, 5))
        assert key.modulus.n == 15
        fraction = kpa_collision_estimate(key, 4, 20000, random.Random(12))
        assert fraction < 0.002
        assert round(fraction * 20000) == 3

    @pytest.mark.parametrize("keygen, candidates, n, x, trials", [
        (keygen4, (3, 7), 21, 5, 200000),
        (keygen8, (3, 5), 15, 4, 20000),
    ], ids=["dim4", "dim8"])
    def test_memory_stays_flat_in_the_trial_count(self, keygen, candidates,
                                                  n, x, trials):
        # Every trial takes its coins from one lazy stream and none is kept,
        # at each dim's screen: the trials peak under 1 MB of allocations,
        # where a list of their coins alone would take more (about 4 MB for
        # 20,000 dim 8 coins, whose traced draws cost 10x dim 4's).
        key = keygen(1, 8, random.Random(11), candidates=candidates)
        assert key.modulus.n == n
        tracemalloc.start()
        tracemalloc.reset_peak()
        try:
            kpa_collision_estimate(key, x, trials, random.Random(12))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_trials_validated(self, key_a):
        with pytest.raises(ValueError):
            kpa_collision_estimate(key_a, 257, 0, random.Random(1))

    def test_plaintext_validated(self, key_a):
        # An unreduced x in slot 0 would let a blind equal x mod N.
        for x in (-1, N, N + 257):
            with pytest.raises(ValueError,
                               match=r"plaintext must lie in \[0, 1155\)"):
                kpa_collision_estimate(key_a, x, 10, random.Random(1))


# Each library check of a caller's parameter. Each raises before the rng
# it is given makes a draw.
_PARAMETER_CHECKS = {
    "coprime-m-0": lambda key, rng: generate_coprime_set(0, 16, rng),
    "coprime-lambda-9": lambda key, rng: generate_coprime_set(1, 9, rng),
    "kpa-trials-0": lambda key, rng: kpa_collision_estimate(key, 257, 0, rng),
    "kpa-x-N": lambda key, rng: kpa_collision_estimate(key, N, 10, rng),
    "kpa-x-minus-1": lambda key, rng: kpa_collision_estimate(key, -1, 10, rng),
    "cost-bits-0": lambda key, rng: brute_force_cost(0, 4),
    "cost-dim-0": lambda key, rng: brute_force_cost(4, 0),
    "invertibility-samples-0":
        lambda key, rng: invertibility_experiment([MOD.n], 0, 1, rng),
    "invertibility-repeats-0":
        lambda key, rng: invertibility_experiment([MOD.n], 5, 0, rng),
    "invertibility-modulus-1":
        lambda key, rng: invertibility_experiment([1], 5, 1, rng),
    "invertibility-last-modulus-1":
        lambda key, rng: invertibility_experiment([1155, 1], 5, 1, rng),
    "invertibility-repeated-modulus":
        lambda key, rng: invertibility_experiment([1155, 77, 1155], 5, 1, rng),
    "invertibility-modulus-repeated-as-int":
        lambda key, rng: invertibility_experiment([MOD.n, 1155], 5, 1, rng),
    "keyset-count-1": lambda key, rng: keyset_gen(4, 1, 2, 16, rng),
    "matrix-dim-5": lambda key, rng: random_invertible(5, N, rng),
    "matrix-modulus-1": lambda key, rng: random_invertible(4, 1, rng),
    "matrix-rows-dim-1": lambda key, rng: Matrix.from_rows([[1]], N),
    "inverse-modulus-1": lambda key, rng: mod_inverse(3, 1),
    "inverse-modulus-0": lambda key, rng: mod_inverse(3, 0),
    "crt-modulus-1": lambda key, rng: crt_solve([(0, 7), (0, 1)]),
    "enc8-dim-4-key": lambda key, rng: enc8(5, key, rng),
    "enc4-dim-8-key": lambda key, rng: enc4(
        5, keygen8(1, 8, random.Random(11), candidates=(3, 5)), rng),
}


@pytest.mark.parametrize("call", _PARAMETER_CHECKS.values(),
                         ids=_PARAMETER_CHECKS.keys())
def test_parameter_checks_raise_parameter_error(key_a, call):
    rng = random.Random(3)
    with pytest.raises(ParameterError) as info:
        call(key_a, rng)
    assert isinstance(info.value, ValueError)
    # Every modulus is checked before the first draw, the last one too.
    assert rng.random() == random.Random(3).random()


SECOND_MOD = RingModulus(m=2, bits=8, p=(3, 13), q=(5, 11),
                         f=(15, 143), n=2145)


class TestLemma6Witness:
    @pytest.mark.parametrize("modulus", [MOD, SECOND_MOD])
    def test_defining_congruences(self, modulus):
        for i in range(1, modulus.m + 1):
            w = lemma6_witness(i, modulus)
            p_i = modulus.p[i - 1]
            q_i = modulus.q[i - 1]
            for r in range(4):
                for c in range(4):
                    ident = 1 if r == c else 0
                    assert w[r, c] % p_i == _DOUBLE_SWAP[r][c] % p_i
                    assert w[r, c] % q_i == ident % q_i
                    for j, fj in enumerate(modulus.f):
                        if j != i - 1:
                            assert w[r, c] % fj == ident % fj

    @pytest.mark.parametrize("modulus", [MOD, SECOND_MOD])
    def test_involution(self, modulus):
        for i in range(1, modulus.m + 1):
            w = lemma6_witness(i, modulus)
            assert mat_mul(w, w) == identity(4, modulus.n)
            assert w != identity(4, modulus.n)

    @staticmethod
    def crt_witness(i, modulus):
        """The witness entry by entry, one crt_solve per entry."""
        p_i, q_i = modulus.p[i - 1], modulus.q[i - 1]
        entries = []
        for r in range(4):
            for c in range(4):
                ident = 1 if r == c else 0
                residues = [(_DOUBLE_SWAP[r][c] % p_i, p_i), (ident % q_i, q_i)]
                residues += [(ident % fj, fj)
                             for j, fj in enumerate(modulus.f) if j != i - 1]
                entries.append(crt_solve(residues))
        return Matrix(4, modulus.n, tuple(entries))

    @pytest.mark.parametrize("m", (1, 2, 3))
    @pytest.mark.parametrize("bits", (16, 64))
    def test_idempotent_form_matches_crt_construction(self, m, bits):
        rng = random.Random(100 * m + bits)
        for modulus in (MOD, SECOND_MOD,
                        *(generate_coprime_set(m, bits, rng) for _ in range(5))):
            for i in range(1, modulus.m + 1):
                assert lemma6_witness(i, modulus) == self.crt_witness(i, modulus)

    def test_witnesses_differ_per_factor(self):
        assert lemma6_witness(1, MOD) != lemma6_witness(2, MOD)

    def test_index_validation(self):
        with pytest.raises(ValueError):
            lemma6_witness(0, MOD)
        with pytest.raises(ValueError):
            lemma6_witness(3, MOD)

    def test_split_required(self):
        bare = RingModulus(m=2, bits=8, p=None, q=None, f=(21, 55), n=N)
        with pytest.raises(ValueError):
            lemma6_witness(1, bare)


class TestLemma7Check:
    def test_pinned_related_key_value(self, key_a):
        y, holds = lemma7_check(257, key_a, RND_A, 1)
        assert y == 642
        assert holds
        assert y != 257

    def test_hundred_random_triples(self, key_a):
        rng = random.Random(14)
        for _ in range(100):
            x = rng.randrange(N)
            rnd = sample_enc4_randomness(x, MOD, rng)
            i = rng.randrange(1, 3)
            y, holds = lemma7_check(x, key_a, rnd, i)
            assert holds
            assert 0 <= y < N

    def test_swap_invisible_when_blind_matches_mod_p(self, key_a):
        # 257 and 5 agree mod p_1 = 3, so swapping the first diagonal pair
        # changes nothing mod 3 and y falls back to x itself.
        y, holds = lemma7_check(257, key_a, (5, (2, 3)), 1)
        assert holds
        assert y == 257

    def test_fixed_coins_required(self, key_a):
        # Two-part enc4 coins only: an rng or three-part enc8 coins are
        # refused before any encryption.
        row = ("x",) + ("r1",) * 3 + ("r2",) * 3
        for rnd in (random.Random(1), (291, 292, (row, row))):
            with pytest.raises(TypeError):
                lemma7_check(257, key_a, rnd, 1)

    def test_index_validation(self, key_a):
        with pytest.raises(ValueError):
            lemma7_check(257, key_a, RND_A, 0)


class TestPlaintextCandidates:
    """Conjugation keeps det(C - y*I) = prod_j (d_j - y) mod N, and slot 0
    of the hidden diagonal d is x, so y = x is always a root. Over a small
    candidate range the plaintext is in practice the only one, so the
    invariants pin dim 4 and dim 8 plaintexts without the key."""

    @pytest.mark.parametrize("dim,keygen", [(4, keygen4), (8, keygen8)])
    @pytest.mark.parametrize("bits", (16, 64, 256))
    def test_plaintext_is_the_only_small_root(self, dim, keygen, bits):
        rng = random.Random(dim * 1000 + bits)
        key = keygen(2, bits, rng)
        for x in rng.sample(range(16), 5):
            ct = encrypt_value(x, key, rng)
            assert plaintext_candidates(ct, range(16)) == [x]

    def test_matches_the_determinant_of_c_minus_y(self, key_a):
        # Against the definition, in the order of ys, repeats kept.
        ys = (600, 3, 257, 257, 0, 1154)
        ct = enc4(257, key_a, random.Random(22))
        body = ct.body
        want = [y for y in ys if determinant(
            mat_sub(body, diagonal((y,) * 4, N))) == 0]
        assert plaintext_candidates(ct, ys) == want
        assert want.count(257) == 2

    def test_evaluated_ciphertexts_keep_the_root(self, key_a):
        # A sum or product is conjugated by the same k, with slot 0 the
        # plaintext sum or product.
        rng = random.Random(23)
        a, b = enc4(5, key_a, rng), enc4(7, key_a, rng)
        assert 12 in plaintext_candidates(he_add(a, b), range(40))
        assert 35 in plaintext_candidates(he_mul(a, b), range(40))
