"""Modular arithmetic building blocks.

Pinned values were computed by hand or by exhaustive search before the
implementation existed; properties are checked with hypothesis where the
input space is too big to enumerate.
"""

import math
import random

import pytest
from hypothesis import given, strategies as st

from matfhe.ring import (GenerationError, NonCoprimeModuliError,
                         NotInvertibleError, RingModulus, crt_solve,
                         generate_coprime_set, mod_inverse)


def two_branch_coprime_set(m, bits, rng, candidates=None):
    """generate_coprime_set with one draw loop per source: a next() branch
    for injected candidates and an rng branch. The oracle for the one-stream
    loop."""
    half = bits // 2
    lo = 1 << (half - 1)
    hi = 1 << half
    source = iter(candidates) if candidates is not None else None
    accepted = []
    budget = 64 * m
    for _ in range(budget):
        if source is not None:
            try:
                c = next(source)
            except StopIteration:
                break
        else:
            c = rng.randrange(lo, hi) | 1
        if c < 3 or c % 2 == 0:
            continue
        if all(math.gcd(c, a) == 1 for a in accepted):
            accepted.append(c)
        if len(accepted) == 2 * m:
            p = tuple(accepted[:m])
            q = tuple(accepted[m:])
            f = tuple(a * b for a, b in zip(p, q))
            return RingModulus(m=m, bits=bits, p=p, q=q, f=f, n=math.prod(f))
    raise GenerationError(
        f"could not find {2 * m} pairwise coprime values in {budget} draws")


def outcome(gen, *args, **kwargs):
    """The modulus gen returns, or the message of its GenerationError."""
    try:
        return gen(*args, **kwargs)
    except GenerationError as err:
        return str(err)


class TestModInverse:
    def test_pinned_inverse(self):
        assert mod_inverse(5, 21) == 17
        assert 5 * 17 % 21 == 1

    def test_non_unit_raises_with_gcd(self):
        with pytest.raises(NotInvertibleError) as info:
            mod_inverse(7, 21)
        assert info.value.gcd == 7
        assert info.value.modulus == 21

    def test_zero_modulus_rejected(self):
        with pytest.raises(ValueError):
            mod_inverse(5, 1)

    @given(st.integers(min_value=2, max_value=10**9),
           st.integers(min_value=1, max_value=10**9))
    def test_inverse_multiplies_to_one(self, n, a):
        if math.gcd(a, n) == 1:
            assert a * mod_inverse(a, n) % n == 1
        else:
            with pytest.raises(NotInvertibleError):
                mod_inverse(a, n)


class TestCrtSolve:
    def test_pinned_solutions(self):
        # Residue pairs taken from the reference encryption of 257:
        # columns of the randomness matrix, one residue per factor.
        assert crt_solve([(5, 21), (16, 55)]) == 236
        assert crt_solve([(18, 21), (37, 55)]) == 312

    def test_single_congruence(self):
        assert crt_solve([(4, 9)]) == 4

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one congruence"):
            crt_solve([])
        with pytest.raises(ValueError, match="at least one congruence"):
            crt_solve(x for x in [])

    def test_iterator_is_read_once(self):
        assert crt_solve(iter([(5, 21), (16, 55)])) == 236

    def test_shared_factor_rejected(self):
        with pytest.raises(NonCoprimeModuliError):
            crt_solve([(1, 6), (2, 9)])

    def test_residue_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            crt_solve([(21, 21), (0, 55)])
        with pytest.raises(ValueError):
            crt_solve([(-1, 21)])

    @given(st.integers(min_value=0, max_value=20),
           st.integers(min_value=0, max_value=54))
    def test_solution_matches_both_residues(self, r1, r2):
        x = crt_solve([(r1, 21), (r2, 55)])
        assert 0 <= x < 21 * 55
        assert x % 21 == r1
        assert x % 55 == r2

    def test_crt_is_a_bijection_on_a_small_product(self):
        seen = {crt_solve([(x % 3, 3), (x % 5, 5), (x % 7, 7)])
                for x in range(105)}
        assert seen == set(range(105))


class TestRingModulus:
    def test_reference_modulus(self):
        mod = RingModulus(m=2, bits=8, p=(3, 5), q=(7, 11),
                          f=(21, 55), n=1155)
        assert mod.n == 1155
        assert mod.has_split

    def test_split_optional_together(self):
        mod = RingModulus(m=2, bits=8, p=None, q=None, f=(21, 55), n=1155)
        assert not mod.has_split
        with pytest.raises(ValueError):
            RingModulus(m=2, bits=8, p=(3, 5), q=None, f=(21, 55), n=1155)

    def test_f_must_be_the_product(self):
        with pytest.raises(ValueError):
            RingModulus(m=2, bits=8, p=(3, 5), q=(7, 11), f=(21, 54), n=1134)

    def test_even_factor_rejected(self):
        with pytest.raises(ValueError):
            RingModulus(m=1, bits=8, p=(4,), q=(9,), f=(36,), n=36)

    def test_shared_factor_rejected(self):
        with pytest.raises(ValueError):
            RingModulus(m=2, bits=8, p=(3, 9), q=(5, 7), f=(15, 63), n=945)

    def test_wrong_product_rejected(self):
        with pytest.raises(ValueError):
            RingModulus(m=2, bits=8, p=(3, 5), q=(7, 11), f=(21, 55), n=1154)

    def test_m_zero_rejected(self):
        with pytest.raises(ValueError):
            RingModulus(m=0, bits=8, p=(), q=(), f=(), n=1)


class TestGenerateCoprimeSet:
    def test_injected_candidates_reproduce_reference_modulus(self):
        mod = generate_coprime_set(2, 8, None, candidates=[3, 5, 7, 11])
        assert mod.p == (3, 5)
        assert mod.q == (7, 11)
        assert mod.f == (21, 55)
        assert mod.n == 1155

    def test_non_coprime_candidates_are_skipped(self):
        mod = generate_coprime_set(1, 8, None, candidates=[3, 9, 6, 5])
        assert mod.p == (3,)
        assert mod.q == (5,)

    def test_candidate_exhaustion_raises(self):
        with pytest.raises(GenerationError):
            generate_coprime_set(2, 8, None, candidates=[3, 5, 7])

    def test_seeded_generation_is_deterministic(self):
        a = generate_coprime_set(2, 16, rng=random.Random(7))
        b = generate_coprime_set(2, 16, rng=random.Random(7))
        assert a == b

    def test_generated_values_satisfy_postconditions(self):
        rng = random.Random(123)
        for _ in range(20):
            mod = generate_coprime_set(3, 16, rng=rng)
            parts = mod.p + mod.q
            assert len(parts) == 6
            for v in parts:
                assert v % 2 == 1
                assert v.bit_length() == 8
            for i in range(len(parts)):
                for j in range(i + 1, len(parts)):
                    assert math.gcd(parts[i], parts[j]) == 1
            assert mod.n == math.prod(mod.f)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            generate_coprime_set(0, 8, rng=random.Random(1))
        with pytest.raises(ValueError):
            generate_coprime_set(2, 6, rng=random.Random(1))
        with pytest.raises(ValueError):
            generate_coprime_set(2, 9, rng=random.Random(1))


class TestOneCandidateStream:
    """The one loop over one lazy source draws exactly as the two-branch
    loop: same modulus or same refusal, and the source left at the same
    place."""

    # At lambda=8 the draws are 9, 11, 13 and 15, which hold no four
    # pairwise coprime values, so (2, 8) always exhausts its budget.
    @pytest.mark.parametrize("m,bits", [(1, 8), (2, 8), (2, 10), (2, 16),
                                        (3, 64), (2, 256)])
    def test_rng_draws_equal_the_two_branch_loop(self, m, bits):
        for seed in range(200):
            rng, twin = random.Random(seed), random.Random(seed)
            got = outcome(generate_coprime_set, m, bits, rng)
            want = outcome(two_branch_coprime_set, m, bits, twin)
            assert got == want
            assert rng.random() == twin.random()
            if (m, bits) == (2, 8):
                assert got == ("could not find 4 pairwise coprime values "
                               "in 128 draws")

    @pytest.mark.parametrize("m,values", [
        (2, [3, 5, 7, 11, 13]),           # a modulus before the end
        (1, [1, 2, 4, 3, 9, 6, 5, 7]),    # below 3 and even values skipped
        (2, [3, 5, 7]),                   # shorter than 2m
        (2, []),                          # empty
        (1, [3] * 70 + [5, 7]),           # longer than the budget of 64
        (2, [3, 9, 27] * 50 + [5, 7, 11]),
    ])
    def test_candidates_equal_the_two_branch_loop(self, m, values):
        for wrap in (list, iter, lambda v: (x for x in v)):
            source, twin = wrap(values), wrap(values)
            got = outcome(generate_coprime_set, m, 8, None, candidates=source)
            want = outcome(two_branch_coprime_set, m, 8, None, candidates=twin)
            assert got == want
            if wrap is not list:
                assert list(source) == list(twin)
