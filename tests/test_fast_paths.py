"""Fast paths against their slow oracles.

Encryption folds each diagonal slot through the modulus's cached CRT
basis and, at dims 4 and 8 alike, scales the columns of k_inv by the
diagonal inside one fused product instead of multiplying by a diagonal
matrix; decryption computes only the top-left entry of k * C * k_inv; the
collision estimate folds a trial's diagonal only when its trace matches
the target's. Each property below pits one of these against the
straightforward computation it replaces: crt_solve per slot, two full
matrix products, the full recovered diagonal, and folding every trial.
Encryption's raw rng draws, one lazy stream for many plaintexts, are
checked against coins sampled one plaintext at a time. Key
generation's row screen keeps its rows at a common scale and is checked
against the screen that divides each row by its pivot. Elimination over
Z_N, which folds the rows below a diagonal entry that is no unit, is
checked against the elimination that swapped a unit row up. The
formula parser, bare string tokens and one precedence-climbing loop, is
checked against the character-loop parser with separate expr and term
rules: same trees, same errors. The protocol's owner, which encrypts only
the requested entries under k1*k2, is checked against the owner that
encrypted its whole table under k1 and locked what it sent under k2: same
transcript, same result, same next draw.
"""

import itertools
import math
import random
import string

import pytest
from hypothesis import given, settings, strategies as st

from matfhe import analysis, cipher, protocol
from matfhe.analysis import kpa_collision_estimate
from matfhe.cipher import (Ciphertext, _draw_enc4, _draw_enc8, dec,
                           dec_diagonal, enc4, enc8, encrypt_value,
                           encryption_diagonal, lock, sample_enc4_randomness,
                           sample_enc8_randomness)
from matfhe.evaluate import (MAX_DEPTH, BinOp, CipherEnv, Const,
                             ExprSyntaxError, Ref, eval_expr, parse_expr)
from matfhe.formats import parse_key, serialize_key
from matfhe.keys import KeyTuple, keygen4, keygen8, keyset_gen
from matfhe import matrix
from matfhe.matrix import (Matrix, MismatchError, determinant, diagonal,
                           identity, inverse, mat_mul, random_invertible)
from matfhe.protocol import (DataRequest, EvalResult, FormulaAnnouncement,
                             MappedResult, MaskedOperand, Message, Role,
                             Transcript, run_protocol, serialize_transcript)
from matfhe.ring import (GenerationError, NotInvertibleError, ParameterError,
                         crt_solve, generate_coprime_set)

from conftest import EntryRng
from known_answers import KA, KA_INV, MOD

KEYGEN = {4: keygen4, 8: keygen8}
SAMPLE = {4: sample_enc4_randomness, 8: sample_enc8_randomness}

cases = st.tuples(st.sampled_from((1, 2, 3)), st.sampled_from((4, 8)),
                  st.sampled_from((16, 64, 256)),
                  st.integers(min_value=0, max_value=2**32))
fast = settings(max_examples=30, deadline=None)


def make_key(m, dim, bits, seed):
    rng = random.Random(seed)
    return KEYGEN[dim](m, bits, rng), rng


def crt_solve_fold(rows, modulus):
    """Slot j of the per-factor rows, by one crt_solve per slot."""
    return tuple(crt_solve([(row[j] % f, f) for row, f in zip(rows, modulus.f)])
                 for j in range(len(rows[0])))


def oracle_diagonal(x, modulus, rnd):
    """The encryption diagonal for enc4 coins (r, row_choices) or enc8
    coins (r1, r2, rows), by crt_solve."""
    if len(rnd) == 2:
        r, choices = rnd
        base = ((x, r, r), (r, x, r), (r, r, x))
        rows = [base[c - 1] for c in choices]
    else:
        r1, r2, arrangement = rnd
        values = {"x": x, "r1": r1, "r2": r2}
        rows = [[values[slot] for slot in row] for row in arrangement]
    return (x,) + crt_solve_fold(rows, modulus)


def fresh(key, rng):
    """A random plaintext, coins for it, and its ciphertext under key."""
    modulus = key.modulus
    x = rng.randrange(modulus.n)
    if key.dim == 4:
        rnd = sample_enc4_randomness(x, modulus, rng)
        return x, rnd, enc4(x, key, rnd)
    rnd = sample_enc8_randomness(x, modulus, rng)
    return x, rnd, enc8(x, key, rnd)


def two_products(x, key, rnd):
    """k_inv * diag(D) * k with both products made in full."""
    d = diagonal(oracle_diagonal(x, key.modulus, rnd), key.modulus.n)
    return mat_mul(mat_mul(key.k_inv, d), key.k)


class TestCrtBasis:
    def test_pinned_basis(self):
        # N = 1155 = 21 * 55: 715 = 1 mod 21 and 0 mod 55, 441 the reverse.
        assert MOD.crt_basis == (715, 441)

    def test_basis_is_computed_once(self):
        assert MOD.crt_basis is MOD.crt_basis

    @fast
    @given(cases)
    def test_idempotents_are_kronecker_delta(self, case):
        key, _ = make_key(*case)
        parsed = parse_key(serialize_key(key)).modulus
        assert not parsed.has_split
        for modulus in (key.modulus, parsed):
            basis = modulus.crt_basis
            assert len(basis) == modulus.m
            for i, e in enumerate(basis):
                assert 0 <= e < modulus.n
                for j, f in enumerate(modulus.f):
                    assert e % f == (1 if i == j else 0)
        assert parsed.crt_basis == key.modulus.crt_basis

    @fast
    @given(cases)
    def test_basis_fold_equals_crt_solve_fold(self, case):
        key, rng = make_key(*case)
        x, rnd, ct = fresh(key, rng)
        expected = oracle_diagonal(x, key.modulus, rnd)
        assert encryption_diagonal(x, key.modulus, rnd) == expected
        assert dec_diagonal(ct, key) == expected

    def test_wrong_row_count_is_refused_before_the_fold(self):
        # The fold itself checks nothing; enc4 and enc8 refuse fixed coins
        # with other than one slot row per factor.
        key4 = KeyTuple(MOD, KA, KA_INV)
        key8 = KeyTuple(MOD, identity(8, MOD.n), identity(8, MOD.n))
        with pytest.raises(ValueError, match="one slot row per factor"):
            enc4(5, key4, (7, (1,)))
        row = ("x",) + ("r1",) * 3 + ("r2",) * 3
        for rows in ((), (row,), (row,) * 3):
            with pytest.raises(ValueError, match="one slot row per factor"):
                enc8(5, key8, (7, 8, rows))


class TestColumnScaledEncryption:
    @fast
    @given(cases)
    def test_body_equals_two_full_products(self, case):
        key, rng = make_key(*case)
        x, rnd, ct = fresh(key, rng)
        assert ct.body == two_products(x, key, rnd)

    def test_enc8_pinned_arrangement(self):
        key = keygen8(2, 16, random.Random(3))
        rows = (("x", "r1", "r1", "r1", "r2", "r2", "r2"),
                ("r2", "r2", "r2", "x", "r1", "r1", "r1"))
        rnd = (10, 20, rows)
        assert enc8(7, key, rnd).body == two_products(7, key, rnd)

    @pytest.mark.parametrize("m", (1, 2))
    def test_enc8_under_a_non_pair_key_equals_two_products(self, m):
        key, rng = make_key(m, 8, 64, 50 + m)
        others = KeyTuple(key.modulus, key.k,
                          random_invertible(8, key.modulus.n,
                                            random.Random(m))[0])
        assert not others.verify()
        for _ in range(10):
            x = rng.randrange(key.modulus.n)
            rnd = sample_enc8_randomness(x, key.modulus, rng)
            assert enc8(x, others, rnd).body == two_products(x, others, rnd)


class TestDim4Encryption:
    """Dim 4 encryption through the same fused product as dim 8, for every
    row choice pattern and under keys whose k and k_inv are not inverses."""

    @pytest.mark.parametrize("m", (1, 2, 3))
    def test_every_row_choice_pattern_equals_two_products(self, m):
        key, rng = make_key(m, 4, 64, m)
        n = key.modulus.n
        others = KeyTuple(key.modulus, key.k,
                          random_invertible(4, n, random.Random(m))[0])
        assert not others.verify()
        parsed = parse_key(serialize_key(key))
        for kt in (key, others, parsed):
            for choices in itertools.product((1, 2, 3), repeat=m):
                for _ in range(2):
                    x = rng.randrange(n)
                    r = (x + 1 + rng.randrange(n - 1)) % n
                    rnd = (r, choices)
                    assert enc4(x, kt, rnd).body == two_products(x, kt, rnd)

    def test_equal_keys_give_equal_bodies(self):
        key, rng = make_key(2, 4, 256, 4)
        twin = KeyTuple(key.modulus, key.k, key.k_inv)
        assert twin == key and twin is not key
        for _ in range(20):
            x = rng.randrange(key.modulus.n)
            rnd = sample_enc4_randomness(x, key.modulus, rng)
            assert enc4(x, key, rnd).body == enc4(x, twin, rnd).body

    def test_wrong_choice_count_is_refused(self):
        key, _ = make_key(2, 4, 16, 5)
        for choices in ((1,), (1, 2, 3)):
            with pytest.raises(ValueError, match="one slot row per factor"):
                enc4(3, key, (4, choices))

    @pytest.mark.parametrize("dim", (4, 8))
    def test_encryption_leaves_no_state_on_the_key(self, dim):
        key, rng = make_key(2, dim, 64, 40 + dim)
        for _ in range(5):
            x, _, ct = fresh(key, rng)
            assert dec(ct, key) == x
            assert dec(encrypt_value(x, key, rng), key) == x
        # The key holds its three fields and no attribute beside them.
        assert key._fields == ("modulus", "k", "k_inv")
        assert vars(key) == {}


def oracle_blind(taken, n, rng):
    """Uniform over Z_n minus taken, redrawing on every hit."""
    b = rng.randrange(n)
    while b in taken:
        b = rng.randrange(n)
    return b


def oracle_enc4_coins(x, modulus, rng):
    """The enc4 sampler as written before its raw draw was split out."""
    return (oracle_blind((x,), modulus.n, rng),
            tuple(rng.randrange(1, 4) for _ in range(modulus.m)))


def oracle_enc8_coins(x, modulus, rng):
    """The enc8 sampler as written before its raw draw was split out."""
    r1 = oracle_blind((x,), modulus.n, rng)
    r2 = oracle_blind((x, r1), modulus.n, rng)
    rows = []
    for _ in range(modulus.m):
        slots = ["r2"] * 7
        x_pos = rng.randrange(7)
        slots[x_pos] = "x"
        rest = [i for i in range(7) if i != x_pos]
        for i in rng.sample(rest, 3):
            slots[i] = "r1"
        rows.append(tuple(slots))
    return r1, r2, tuple(rows)


class TestRawDraws:
    """One lazy coin stream makes the getrandbits calls of the old
    samplers' randrange calls, in their order, one plaintext's coins at a
    time, so every seeded output stays as it was."""

    # Blinds are k-bit words redrawn while >= N: about 49% of 7-bit words
    # at N = 65, 1 in 64 6-bit words at N = 63, and 44% of 11-bit words
    # at N = 1155, the collision estimate's reference modulus.
    MODULI = {
        "N15": generate_coprime_set(1, 8, None, candidates=(3, 5)),
        "N21": generate_coprime_set(1, 8, None, candidates=(3, 7)),
        "N63": generate_coprime_set(1, 8, None, candidates=(7, 9)),
        "N65": generate_coprime_set(1, 8, None, candidates=(5, 13)),
        "N1155": generate_coprime_set(2, 8, None, candidates=(3, 5, 7, 11)),
        **{f"l256-m{m}": generate_coprime_set(m, 256, random.Random(m))
           for m in (1, 2, 3)},
    }
    DRAWS = {4: (_draw_enc4, oracle_enc4_coins),
             8: (_draw_enc8, oracle_enc8_coins)}

    @pytest.mark.parametrize("dim", (4, 8))
    @pytest.mark.parametrize("name", sorted(MODULI))
    def test_coins_and_next_draw_equal_the_old_sampler(self, name, dim):
        # At N = 15 and 21 blinds are often redrawn: a draw hits x 1 time
        # in 15 or 21, and at dim 8 r2 also hits r1 as often.
        modulus = self.MODULI[name]
        draw, oracle = self.DRAWS[dim]
        sample, picks = SAMPLE[dim], random.Random(name)
        for seed in range(20):
            rng, twin, sampled = (random.Random(seed) for _ in range(3))
            xs = [picks.randrange(modulus.n) for _ in range(30)]
            stream = draw(xs, modulus.n, modulus.m, rng)
            for x, drawn in zip(xs, stream, strict=True):
                want = oracle(x, modulus, twin)
                assert drawn == want
                assert sample(x, modulus, sampled) == want
            assert rng.getstate() == twin.getstate() == sampled.getstate()
            assert rng.random() == twin.random() == sampled.random()

    @pytest.mark.parametrize("dim", (4, 8))
    @pytest.mark.parametrize("name", sorted(MODULI))
    def test_stream_draws_only_what_is_taken(self, name, dim):
        modulus = self.MODULI[name]
        draw, oracle = self.DRAWS[dim]
        picks = random.Random(name)
        for seed in range(10):
            rng, twin = random.Random(seed), random.Random(seed)
            xs = [picks.randrange(modulus.n) for _ in range(10)]
            stream = draw(xs, modulus.n, modulus.m, rng)
            assert rng.getstate() == twin.getstate()
            assert next(stream) == oracle(xs[0], modulus, twin)
            assert rng.getstate() == twin.getstate()
            assert rng.random() == twin.random()

    def test_coins_make_no_randrange_call(self, monkeypatch):
        # The streams draw on getrandbits as randrange would: with
        # randrange refused, the streams and enc4 and enc8 given an rng
        # still give the oracle's coins, and the collision estimate runs.
        modulus = self.MODULI["N1155"]
        picks = random.Random(0)
        xs = [picks.randrange(modulus.n) for _ in range(50)]
        encs = {4: enc4, 8: enc8}
        want, bodies = {}, {}
        for dim, (_, oracle) in self.DRAWS.items():
            twin, frozen = random.Random(dim), random.Random(dim)
            want[dim] = [oracle(x, modulus, twin) for x in xs]
            key, _ = make_key(2, dim, 16, 50 + dim)
            bodies[dim] = key, [
                encs[dim](x, key, oracle(x, key.modulus, frozen)).body
                for x in xs[:10]]
        kpa_key = KeyTuple(MOD, KA, KA_INV)
        estimate = kpa_collision_estimate(kpa_key, 257, 3000, random.Random(1))

        def refused(self, *args):
            raise AssertionError("coins drew on randrange")

        monkeypatch.setattr(random.Random, "randrange", refused)
        for dim, (draw, _) in self.DRAWS.items():
            stream = draw(xs, modulus.n, modulus.m, random.Random(dim))
            assert list(stream) == want[dim]
            key, want_bodies = bodies[dim]
            rng = random.Random(dim)
            assert [encs[dim](x, key, rng).body
                    for x in xs[:10]] == want_bodies
        assert kpa_collision_estimate(
            kpa_key, 257, 3000, random.Random(1)) == estimate


class TestRngPath:
    """enc4 and enc8 given an rng draw their coins with the RNG calls of
    the samplers, in their order."""

    PATHS = {4: (enc4, oracle_enc4_coins), 8: (enc8, oracle_enc8_coins)}

    @pytest.mark.parametrize("dim", (4, 8))
    @pytest.mark.parametrize("bits", (16, 256))
    @pytest.mark.parametrize("m", (1, 2, 3))
    def test_body_and_next_draw_equal_sampled_coins(self, m, bits, dim):
        enc, oracle = self.PATHS[dim]
        key, picks = make_key(m, dim, bits, 30 + m)
        modulus = key.modulus
        for seed in range(10):
            rng, sampled, frozen = (random.Random(seed) for _ in range(3))
            for _ in range(20 if dim == 4 else 5):
                x = picks.randrange(modulus.n)
                body = enc(x, key, rng).body
                assert body == enc(
                    x, key, SAMPLE[dim](x, modulus, sampled)).body
                assert body == enc(x, key, oracle(x, modulus, frozen)).body
            assert rng.random() == sampled.random() == frozen.random()

    @pytest.mark.parametrize("dim", (4, 8))
    def test_builds_no_coin_object(self, monkeypatch, dim):
        # The coins folded are the very tuple the draw yielded, or the
        # caller's fixed tuple: nothing is rebuilt between them.
        enc, _ = self.PATHS[dim]
        name = f"_draw_enc{dim}"
        draw, yielded, folded = getattr(cipher, name), [], []

        def recording(xs, n, m, rng):
            for coins in draw(xs, n, m, rng):
                yielded.append(coins)
                yield coins

        def folding(x, modulus, coins):
            folded.append(coins)
            return encryption_diagonal(x, modulus, coins)

        key, rng = make_key(2, dim, 16, 7)
        fixed = SAMPLE[dim](3, key.modulus, random.Random(1))
        monkeypatch.setattr(cipher, name, recording)
        monkeypatch.setattr(cipher, "encryption_diagonal", folding)
        for _ in range(50):
            x = rng.randrange(key.modulus.n)
            assert dec(enc(x, key, rng), key) == x
        assert len(yielded) == len(folded) == 50
        assert all(a is b for a, b in zip(folded, yielded))
        enc(3, key, fixed)
        assert folded[-1] is fixed and len(yielded) == 50

    def test_raw_blind_goes_through_the_blind_check(self, monkeypatch):
        # The rng path and fixed coins share one check: a drawn blind equal
        # to x is refused like a fixed one.
        key, rng = make_key(2, 4, 16, 8)
        monkeypatch.setattr(
            cipher, "_draw_enc4",
            lambda xs, n, m, rng: ((x, (1,) * m) for x in xs))
        with pytest.raises(ValueError, match="distinct blinds"):
            enc4(5, key, rng)
        with pytest.raises(ValueError, match="distinct blinds"):
            enc4(5, key, (5, (1, 2)))


def folding_estimate(key, x, trials, rng):
    """The collision estimate without its trace screen: every trial's
    diagonal is folded and compared with the target's."""
    modulus, sample = key.modulus, SAMPLE[key.dim]
    target = encryption_diagonal(x, modulus, sample(x, modulus, rng))
    hits = 0
    for _ in range(trials):
        if encryption_diagonal(x, modulus, sample(x, modulus, rng)) == target:
            hits += 1
    return hits / trials


SMALL_PRIMES = (3, 5, 7, 11, 13, 17, 19)


class TestTraceScreen:
    """kpa_collision_estimate rejects a trial by the trace 2x + w * sum(blinds)
    (w = 2 at dim 4, 3 at dim 8), at dim 4 by the blind alone, which is the
    same test since N is odd, and folds only the trials that pass."""

    KEYS = {
        "dim4-N21": (keygen4(1, 8, random.Random(11), candidates=[3, 7]),
                     5, 600),
        "dim4-N1155": (KeyTuple(MOD, KA, KA_INV), 257, 3000),
        "dim4-m3": (keygen4(3, 8, random.Random(11),
                            candidates=[3, 5, 7, 11, 13, 17]), 1000, 1000),
        "dim8-N15": (keygen8(1, 8, random.Random(11), candidates=(3, 5)),
                     4, 1500),
        "dim8-N21": (keygen8(1, 8, random.Random(11), candidates=(3, 7)),
                     9, 1500),
    }

    @staticmethod
    def assert_same_as_folding(key, x, trials, seed):
        rng, twin = random.Random(seed), random.Random(seed)
        got = kpa_collision_estimate(key, x, trials, rng)
        assert got == folding_estimate(key, x, trials, twin)
        assert rng.random() == twin.random()
        return round(got * trials)

    @pytest.mark.parametrize("name", sorted(KEYS))
    def test_hit_counts_equal_folding_every_trial(self, name):
        key, x, trials = self.KEYS[name]
        hits = [self.assert_same_as_folding(key, x, trials, seed)
                for seed in range(20)]
        if key.modulus.n < 100:
            assert sum(hits) > 0

    @pytest.mark.parametrize("dim", (4, 8))
    def test_targets_with_a_blind_congruent_to_x(self, dim):
        # A target blind congruent to x mod one factor makes that factor's
        # row choice irrelevant for the target (and triples the dim 4
        # rate); the screen must not drop the extra hits.
        key = KEYGEN[dim](2, 8, random.Random(1), candidates=[3, 5, 7, 11])
        modulus, x = key.modulus, 257
        seeds = [seed for seed in range(400)
                 if any((b - x) % f == 0 for f in modulus.f
                        for b in SAMPLE[dim](x, modulus,
                                             random.Random(seed))[:-1])]
        assert len(seeds) >= 8
        hits = sum(self.assert_same_as_folding(key, x, 3000, seed)
                   for seed in seeds[:8])
        if dim == 4:
            assert hits > 0

    def test_folds_only_trials_that_pass_the_screen(self, monkeypatch):
        folds = []

        def counting(*args):
            folds.append(args)
            return encryption_diagonal(*args)

        monkeypatch.setattr(analysis, "encryption_diagonal", counting)
        trials = 3000
        kpa_collision_estimate(KeyTuple(MOD, KA, KA_INV), 257, trials,
                               random.Random(1))
        assert 1 <= len(folds) <= 1 + trials // 100

    def test_builds_coins_only_on_a_hit(self, monkeypatch):
        # At both dims the target and the trials that pass the screen are
        # folded from the stream's own tuples, the target first; no trial
        # is folded twice and none is rebuilt.
        modulus = generate_coprime_set(1, 8, None, candidates=(3, 5))
        for dim, name in ((4, "_draw_enc4"), (8, "_draw_enc8")):
            draw, yielded, folded = getattr(analysis, name), [], []

            def recording(xs, n, m, rng, draw=draw, yielded=yielded):
                for coins in draw(xs, n, m, rng):
                    yielded.append(coins)
                    yield coins

            def folding(x, modulus, coins, folded=folded):
                folded.append(coins)
                return encryption_diagonal(x, modulus, coins)

            monkeypatch.setattr(analysis, name, recording)
            monkeypatch.setattr(analysis, "encryption_diagonal", folding)
            key = KeyTuple(modulus, identity(dim, modulus.n),
                           identity(dim, modulus.n))
            trials = 600
            kpa_collision_estimate(key, 4, trials, random.Random(dim))
            assert len(yielded) == trials + 1
            screen = (lambda c: c[0]) if dim == 4 else (
                lambda c: 3 * (c[0] + c[1]) % modulus.n)
            target = yielded[0]
            want = [target] + [c for c in yielded[1:]
                               if screen(c) == screen(target)]
            assert 1 < len(want) < trials
            assert len(folded) == len(want)
            assert all(a is b for a, b in zip(folded, want))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=1, max_value=3),
           st.permutations(SMALL_PRIMES), st.sampled_from((4, 8)),
           st.integers(min_value=0, max_value=2**32))
    def test_trace_is_taken_from_the_blinds(self, m, primes, dim, seed):
        modulus = generate_coprime_set(m, 8, None, candidates=primes)
        n = modulus.n
        rng = random.Random(seed)
        x = rng.randrange(n)
        if dim == 4:
            rnd = sample_enc4_randomness(x, modulus, rng)
            trace = 2 * x + 2 * rnd[0]
        else:
            rnd = sample_enc8_randomness(x, modulus, rng)
            trace = 2 * x + 3 * (rnd[0] + rnd[1])
        assert sum(encryption_diagonal(x, modulus, rnd)) % n == trace % n

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=1, max_value=3),
           st.permutations(SMALL_PRIMES),
           st.integers(min_value=0, max_value=2**32))
    def test_dim4_screen_is_the_blind(self, m, primes, seed):
        # N is odd, so 2 is a unit mod N and two dim 4 traces 2x + 2r agree
        # exactly when the blinds do. Checked on the target's blind r0, on
        # fresh draws, and on the blinds nearest r0 + N/2, where an even N
        # would let 2r and 2r0 meet.
        modulus = generate_coprime_set(m, 8, None, candidates=primes)
        n = modulus.n
        assert n % 2 == 1
        rng = random.Random(seed)
        x = rng.randrange(n)
        draws = [r for r, _ in itertools.islice(
            _draw_enc4(itertools.repeat(x), n, m, rng), 20)]
        r0 = draws[0]
        for r in draws + [(r0 + n // 2) % n, (r0 + n // 2 + 1) % n]:
            same = (2 * x + 2 * r) % n == (2 * x + 2 * r0) % n
            assert same == (r == r0)


class TestTopLeftDecryption:
    @fast
    @given(cases)
    def test_dec_is_top_left_of_full_diagonal(self, case):
        key, rng = make_key(*case)
        modulus = key.modulus
        x, _, a = fresh(key, rng)
        y, _, b = fresh(key, rng)
        k2 = random_invertible(key.dim, modulus.n, rng)[0]
        other = KeyTuple(modulus, k2, inverse(k2))
        composed = KeyTuple(modulus, mat_mul(key.k, k2),
                            mat_mul(inverse(k2), key.k_inv))
        n = modulus.n
        checks = [(a, key, x),
                  (Ciphertext(a.body + b.body), key, (x + y) % n),
                  (Ciphertext(a.body * b.body), key, x * y % n),
                  (lock(a, other), composed, x),
                  (a, other, None),
                  (lock(a, other), key, None)]
        for ct, k, plain in checks:
            got = dec(ct, k)
            assert got == dec_diagonal(ct, k)[0]
            if plain is not None:
                assert got == plain


class TestDecMismatch:
    def test_dim_differs_from_key(self):
        key4, rng = make_key(2, 4, 16, 1)
        k = random_invertible(8, key4.modulus.n, rng)[0]
        key8 = KeyTuple(key4.modulus, k, inverse(k))
        ct8 = enc8(3, key8, rng)
        with pytest.raises(MismatchError):
            dec(ct8, key4)
        with pytest.raises(MismatchError):
            dec(enc4(3, key4, rng), key8)

    def test_modulus_differs_from_key(self):
        key, rng = make_key(2, 4, 16, 1)
        other, _ = make_key(2, 4, 16, 2)
        assert other.modulus.n != key.modulus.n
        with pytest.raises(MismatchError):
            dec(enc4(3, other, rng), key)


def normalized_screen_pair(dim, n, rng):
    """The row screen with each kept row divided by its pivot: one modular
    inverse per row. Returns the entries of k and of k_inv."""
    rows = []
    kept = []  # (pivot column, [reduced row | recording row])
    rerolls = 0
    while len(rows) < dim:
        row = [rng.randrange(n) for _ in range(dim)]
        reduced = row + [int(j == len(rows)) for j in range(dim)]
        for pivot_col, krow in kept:
            c = reduced[pivot_col]
            if c:
                reduced = [(x - c * y) % n for x, y in zip(reduced, krow)]
        pivot = next((j for j, x in enumerate(reduced[:dim])
                      if x and math.gcd(x, n) == 1), None)
        if pivot is None:
            rerolls += 1
            if rerolls > 1000:
                raise GenerationError("row generation exhausted 1000 rerolls")
            continue
        inv = pow(reduced[pivot], -1, n)
        reduced = [x * inv % n for x in reduced]
        for _, krow in kept:
            c = krow[pivot]
            if c:
                krow[:] = [(x - c * y) % n for x, y in zip(krow, reduced)]
        kept.append((pivot, reduced))
        rows.append(row)
    kept.sort()
    return (tuple(v % n for row in rows for v in row),
            tuple(x for _, krow in kept for x in krow[dim:]))


class TestKeyMatrixPair:
    """Key generation's row screen yields k and k_inv from one elimination
    pass and one modular inverse, and draws from the rng exactly as the
    screen that normalizes every pivot."""

    # Moduli with many non-units, so rows are rejected and pivots leave the
    # diagonal (11025 = 9 * 25 * 49 rejects the most); the last two are
    # keygen moduli at lambda=16 and lambda=256.
    MODULI = (45, 1155, 30030, 11025,
              generate_coprime_set(2, 16, random.Random(5)).n,
              generate_coprime_set(2, 256, random.Random(6)).n)

    @pytest.mark.parametrize("dim", (2, 3, 4, 8))
    def test_pair_is_random_invertible_and_its_inverse(self, dim):
        for n in self.MODULI:
            for seed in range(25):
                rng, oracle = random.Random(seed), random.Random(seed)
                mat, inv = random_invertible(dim, n, rng)
                assert inv == inverse(mat)
                assert (mat.entries, inv.entries) == \
                    normalized_screen_pair(dim, n, oracle)
                assert rng.random() == oracle.random()

    @pytest.mark.parametrize("gen, bits", ((keygen8, 256), (keygen4, 16)))
    def test_one_modular_inverse_per_pair(self, monkeypatch, gen, bits):
        inverses = []

        def counting(base, exp, mod=None):
            if mod is not None and exp == -1:
                inverses.append(base)
            return pow(base, exp, mod)

        monkeypatch.setattr(matrix, "pow", counting, raising=False)
        key = gen(2, bits, random.Random(bits))
        assert key.verify()
        assert len(inverses) == 1

    def test_rerolls_exhausted(self):
        draws = []

        class Zeros:
            def randrange(self, n):
                draws.append(n)
                return 0

        with pytest.raises(GenerationError, match="exhausted 1000 rerolls"):
            random_invertible(4, MOD.n, Zeros())
        assert len(draws) == 4 * 1001

    def test_injected_entries_are_reduced(self):
        kt = keygen4(2, 8, EntryRng([v + MOD.n for v in KA.entries]),
                     candidates=[3, 5, 7, 11])
        assert (kt.k, kt.k_inv) == (KA, KA_INV)

    def test_pair_runs_no_second_elimination(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("key generation eliminated again")

        for name in ("_eliminate", "inverse", "is_invertible"):
            monkeypatch.setattr(matrix, name, refuse)
        key = keygen8(2, 64, random.Random(3))
        assert key.verify()
        keyset = keyset_gen(4, 3, 2, 16, random.Random(3))
        assert keyset.master.verify()


def test_screen_at_protocol_key_size_is_the_normalized_screen():
    """Key generation's row screen at the protocol's key size (dim 4,
    lambda=16, m=2) over 100 sampled moduli: the same pair as the screen
    that normalizes every pivot, and the rng left at the same next draw."""
    for i in range(100):
        n = generate_coprime_set(2, 16, random.Random(i)).n
        for seed in range(4):
            rng, oracle = random.Random(seed), random.Random(seed)
            mat, inv = random_invertible(4, n, rng)
            assert (mat.entries, inv.entries) == \
                normalized_screen_pair(4, n, oracle)
            assert rng.random() == oracle.random()


def frozen_eliminate(m, n):
    """_eliminate with two pivot rules: the first unit at or below row k is
    swapped up, flipping det's sign, and Bezout steps fold the rows below
    only where the column holds no unit."""
    d = len(m)
    det = 1
    for k in range(d):
        unit = k if math.gcd(m[k][k], n) == 1 else next(
            (i for i in range(k + 1, d) if math.gcd(m[i][k], n) == 1), None)
        if unit is None:
            for i in range(k + 1, d):
                x, y = m[k][k], m[i][k]
                if y:
                    g = math.gcd(x, y)
                    s = pow(x // g, -1, y // g)
                    t = (g - s * x) // y
                    top, row = m[k], m[i]
                    m[k] = [(s * a + t * b) % n for a, b in zip(top, row)]
                    m[i] = [(x // g * b - y // g * a) % n
                            for a, b in zip(top, row)]
        elif unit != k:
            m[k], m[unit] = m[unit], m[k]
            det = -det
        pivot_row = m[k]
        p = pivot_row[k]
        det = det * p % n
        if math.gcd(p, n) != 1:
            continue
        inv = pow(p, -1, n)
        pivot_row[k + 1:] = tail = [x * inv % n for x in pivot_row[k + 1:]]
        for row in m:
            c = row[k]
            if c and row is not pivot_row:
                row[k + 1:] = [(x - c * y) % n
                               for x, y in zip(row[k + 1:], tail)]
    return det


class TestOnePivotRule:
    """_eliminate has one pivot rule, a Bezout fold of the rows below a
    diagonal entry that is no unit, against the frozen elimination that
    swapped the first unit below it up: the same det, the same inverse and
    the same refusal, as each is unique mod N."""

    # Small moduli with many non-units, then two keygen moduli each at
    # lambda=16 and lambda=256.
    MODULI = (6, 9, 30, 1155) + tuple(
        generate_coprime_set(2, bits, random.Random(seed)).n
        for bits in (16, 256) for seed in (1, 2))

    @staticmethod
    def assert_same_as_frozen(a):
        n, d = a.modulus, a.dim
        frozen = [list(row) + [int(i == j) for j in range(d)]
                  for i, row in enumerate(a.rows())]
        det = frozen_eliminate(frozen, n)
        assert determinant(a) == det
        g = math.gcd(det, n)
        if g == 1:
            assert inverse(a).entries == tuple(x for row in frozen
                                               for x in row[d:])
        else:
            with pytest.raises(NotInvertibleError) as info:
                inverse(a)
            err = info.value
            assert (err.value, err.modulus, err.gcd) == (det, n, g)

    def test_det_inverse_and_refusal_equal_the_frozen_copy(self):
        swapped = 0  # inputs whose column 0 took the frozen copy's swap
        for n in self.MODULI:
            for dim in (2, 3, 4, 8):
                rng = random.Random(f"{n}-{dim}")
                for _ in range(40):
                    a = Matrix(dim, n, tuple(rng.randrange(n)
                                             for _ in range(dim * dim)))
                    column = a.entries[::dim]
                    if math.gcd(column[0], n) != 1 and any(
                            math.gcd(x, n) == 1 for x in column[1:]):
                        swapped += 1
                    self.assert_same_as_frozen(a)
        assert swapped >= 100

    @pytest.mark.parametrize("rows, want", (
        # No entry is a unit mod 6, yet det = -5 is: its own inverse.
        (((2, 3), (3, 2)), ((2, 3), (3, 2))),
        # A diagonal 3 over a unit 1: the fold, where a swap once was.
        (((3, 1), (1, 0)), ((0, 1), (1, 3)))))
    def test_hand_cases_mod_6(self, rows, want):
        a = Matrix.from_rows(rows, 6)
        assert inverse(a) == Matrix.from_rows(want, 6)
        self.assert_same_as_frozen(a)


def frozen_parse_expr(text):
    """The formula parser with a character-loop tokenizer and separate expr
    and term rules. Same grammar, depth limits and errors as parse_expr."""
    digits = "0123456789"

    def is_name_start(ch):
        return ch == "_" or "a" <= ch <= "z" or "A" <= ch <= "Z"

    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch in " \t":
            i += 1
        elif ch in digits:
            j = i
            while j < len(text) and text[j] in digits:
                j += 1
            tokens.append(("int", text[i:j], i))
            i = j
        elif is_name_start(ch):
            j = i
            while j < len(text) and (is_name_start(text[j])
                                     or text[j] in digits):
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
        elif ch in "+-*/()":
            tokens.append((ch, ch, i))
            i += 1
        else:
            raise ExprSyntaxError(i, "integer, name, or operator", repr(ch))
    tokens.append(("end", "", len(text)))
    pos = 0

    def fail(expected):
        kind, value, offset = tokens[pos]
        found = "end of input" if kind == "end" else repr(value)
        raise ExprSyntaxError(offset, expected, found)

    def too_deep(tok):
        raise ExprSyntaxError(
            tok[2], f"at most {MAX_DEPTH} levels of nesting", repr(tok[1]))

    parens = 0

    def factor():
        nonlocal pos, parens
        tok = tokens[pos]
        kind = tok[0]
        if kind == "int":
            pos += 1
            return Const(int(tok[1])), 0
        if kind == "name":
            pos += 1
            return Ref(tok[1]), 0
        if kind == "(":
            pos += 1
            parens += 1
            if parens > MAX_DEPTH:
                too_deep(tok)
            inner = expr()
            if tokens[pos][0] != ")":
                fail("')'")
            pos += 1
            parens -= 1
            return inner
        fail("integer, name, or '('")

    def term():
        nonlocal pos
        node, depth = factor()
        while tokens[pos][0] in ("*", "/"):
            tok = tokens[pos]
            pos += 1
            right, right_depth = factor()
            depth = max(depth, right_depth) + 1
            if depth > MAX_DEPTH:
                too_deep(tok)
            node = BinOp(tok[0], node, right)
        return node, depth

    def expr():
        nonlocal pos
        node, depth = term()
        while tokens[pos][0] in ("+", "-"):
            tok = tokens[pos]
            pos += 1
            right, right_depth = term()
            depth = max(depth, right_depth) + 1
            if depth > MAX_DEPTH:
                too_deep(tok)
            node = BinOp(tok[0], node, right)
        return node, depth

    node, _ = expr()
    if tokens[pos][0] != "end":
        fail("operator or end of input")
    return node


def parse_outcome(parse, text):
    """The tree, or everything a syntax error reports."""
    try:
        return parse(text)
    except ExprSyntaxError as err:
        return (err.offset, err.expected, err.found, str(err))


# Formula text pieces: names, digits, every operator and parenthesis, the
# two skipped blanks, and characters the tokenizer refuses (line breaks,
# '$', a non-ASCII letter and a non-ASCII digit).
PIECES = "ax_Z09+-*/() \t\n\r$é٣"


def formula_text(data):
    """Formula text from bytes, mostly well formed so that it reaches deep
    into the grammar: a byte picks an operand or '(' while an operand is
    due, else an operator or ')'; a byte >= 232 puts in any piece."""
    out, operand_due, opened = [], True, 0
    for b in data:
        if b >= 232:
            out.append(PIECES[b % len(PIECES)])
        elif operand_due:
            out.append(("a", "x_1", "Z9", "0", "42", "(")[b % 6])
            opened += out[-1] == "("
            operand_due = out[-1] == "("
        elif b % 5 < 4 or opened:
            out.append("+-*/)"[b % 5])
            opened -= out[-1] == ")"
            operand_due = out[-1] != ")"
    return "".join(out) + ")" * opened


def deep(n):
    """Texts nested about n deep in operators or parentheses, on either
    side of MAX_DEPTH for n in 195..205."""
    return {
        "sum": "+".join(["a"] * (n + 1)),
        "product": "*".join(["a"] * (n + 1)),
        "parens": "(" * n + "a" + ")" * n,
        "right-sum": "(a+" * n + "a" + ")" * n,
        "sum-times": "((a+b)*" * n + "a" + ")" * n,
        "times-sum": "a*(" + "+".join(["a"] * n) + ")",
        "chain-then-name": "-".join(["a"] * n) + "-b c",
        "chain-then-dollar": "a+" + "b*" * n + "c$",
        "unclosed": "(" * n + "a",
    }


def sized_formula(rng):
    """A well-formed formula of a computation center's size: 14 to 60
    operators, 6 to 10 deep before parentheses are left out, operands of up
    to 40 digits (leading zeros too) or names of up to 24 characters, each
    with a run of blanks and tabs, or none, on either side."""
    name_chars = string.ascii_letters + string.digits + "_"

    def blanks():
        return rng.choice(("", "", "", " ", "\t", "   ", " \t\t "))

    def operand():
        if rng.random() < 0.3:
            token = "".join(rng.choices(string.digits, k=rng.randint(1, 40)))
        else:
            token = rng.choice(string.ascii_letters + "_") + "".join(
                rng.choices(name_chars, k=rng.randint(0, 23)))
        return blanks() + token + blanks()

    def text(n_ops, depth):
        if n_ops == 0:
            return operand()
        cap = 2 ** (depth - 1) - 1
        left = rng.randint(max(0, n_ops - 1 - cap), min(n_ops - 1, cap))
        inner = (text(left, depth - 1) + rng.choice("+-*/")
                 + text(n_ops - 1 - left, depth - 1))
        return f"{blanks()}({inner}){blanks()}" if rng.random() < 0.6 \
            else inner

    return text(rng.randint(14, 60), rng.randint(6, 10))


class TestFormulaParser:
    """parse_expr, bare string tokens and one precedence-climbing loop,
    against the character-loop parser with an expr and a term rule."""

    @settings(max_examples=10_000, deadline=None)
    @given(st.binary(max_size=40).map(formula_text))
    def test_matches_the_frozen_parser(self, text):
        assert parse_outcome(parse_expr, text) == \
            parse_outcome(frozen_parse_expr, text)

    def test_formulas_of_a_computation_centers_size(self):
        # The hypothesis texts stop at 40 bytes; these run to about 1,400.
        rng = random.Random(31)
        for _ in range(1000):
            text = sized_formula(rng)
            tree = parse_expr(text)
            assert isinstance(tree, BinOp), text
            assert tree == frozen_parse_expr(text), text

    @pytest.mark.parametrize("family", sorted(deep(0)))
    def test_depth_edges_match_the_frozen_parser(self, family):
        for n in range(195, 206):
            text = deep(n)[family]
            assert parse_outcome(parse_expr, text) == \
                parse_outcome(frozen_parse_expr, text), n


def frozen_run_protocol(formula, data, keyset, rng):
    """run_protocol as its owner first ran it: every table entry encrypted
    under k1 and held, and each requested one locked under k2 to be sent."""
    if isinstance(formula, str):
        formula = parse_expr(formula)
    required = protocol._required_indices(formula, len(data))
    k1, k2, k3 = keyset.components
    messages = [
        Message(Role.DATA_USER, Role.DELEGATOR, FormulaAnnouncement(formula)),
        Message(Role.DELEGATOR, Role.COMPUTATION_CENTER,
                FormulaAnnouncement(formula)),
        Message(Role.DELEGATOR, Role.DATA_OWNER, DataRequest(required))]
    held = [enc4(x, k1, rng) for x in data]
    operands = {}
    for i in required:
        z = lock(held[i - 1], k2)
        operands[f"x{i}"] = z
        messages.append(Message(Role.DATA_OWNER, Role.COMPUTATION_CENTER,
                                MaskedOperand(i, z)))
    evaluated = eval_expr(formula, CipherEnv(bindings=operands))
    mapped = lock(evaluated, k3)
    messages += [Message(Role.COMPUTATION_CENTER, Role.MAPPER,
                         EvalResult(evaluated)),
                 Message(Role.MAPPER, Role.DATA_USER, MappedResult(mapped))]
    result = dec(mapped, keyset.master)
    return result, Transcript(tuple(messages), result)


def table_formulas(size, rng):
    """One formula reading every entry of a table of size entries, and
    three reading a random part of it (one entry, maybe the last)."""
    def tree(names):
        if len(names) == 1:
            return names[0]
        cut = rng.randrange(1, len(names))
        return f"({tree(names[:cut])}{rng.choice('+-*')}{tree(names[cut:])})"

    names = [f"x{i}" for i in range(1, size + 1)]
    parts = [rng.sample(names, rng.randrange(1, size + 1)) for _ in range(2)]
    return [tree(names), tree(parts[0]), tree(parts[1]), rng.choice(names)]


class TestOwnerEncryptsUnderTheComposedKey:
    """run_protocol's owner draws coins for its whole table and encrypts
    only the requested entries, straight under k1*k2, against the frozen
    owner that encrypted every entry under k1 and locked the requested
    ones under k2: same transcript, same result, same next draw."""

    @pytest.mark.parametrize("size", (1, 5, 32))
    @pytest.mark.parametrize("bits", (16, 64))
    @pytest.mark.parametrize("m", (1, 2, 3))
    def test_transcript_and_next_draw_equal_the_frozen_owner(self, m, bits,
                                                             size):
        picks = random.Random(f"{m}-{bits}-{size}")
        keyset = keyset_gen(4, 3, m, bits, picks)
        n = keyset.modulus.n
        data = [picks.randrange(n) for _ in range(size)]
        data[0], data[-1] = 0, n - 1
        for seed, formula in enumerate(table_formulas(size, picks)):
            rng, twin = random.Random(seed), random.Random(seed)
            result, transcript = run_protocol(formula, data, keyset, rng)
            want, frozen = frozen_run_protocol(formula, data, keyset, twin)
            assert result == want
            assert serialize_transcript(transcript) == \
                serialize_transcript(frozen)
            assert rng.random() == twin.random()

    @pytest.mark.parametrize("bad", (-1, "n", "n+1"))
    def test_unread_datum_out_of_range_is_refused(self, bad):
        # Refused like the frozen owner's encryption of it, and before the
        # first draw, as other parameter checks are.
        keyset = keyset_gen(4, 3, 2, 16, random.Random(5))
        n = keyset.modulus.n
        data = (5, {"n": n, "n+1": n + 1}.get(bad, bad), 7)
        rng = random.Random(6)
        for run, source in ((run_protocol, rng),
                            (frozen_run_protocol, random.Random(6))):
            with pytest.raises(ParameterError, match="plaintext must lie"):
                run("x1*x3", data, keyset, source)
        assert rng.random() == random.Random(6).random()

    def test_one_encryption_per_requested_entry_and_one_lock(self,
                                                             monkeypatch):
        calls = {"enc4": [], "lock": []}

        def counted(real, made):
            def call(*args):
                made.append(args)
                return real(*args)
            return call

        for name, made in calls.items():
            monkeypatch.setattr(protocol, name,
                                counted(getattr(protocol, name), made))
        keyset = keyset_gen(4, 3, 2, 16, random.Random(7))
        k1, k2, _ = keyset.components
        every = table_formulas(32, random.Random(8))[0]
        for formula, reads in (("x2*x4", 2), ("(x7-x7)*x32", 2), ("x1", 1),
                               (every, 32)):
            for made in calls.values():
                made.clear()
            run_protocol(formula, tuple(range(3, 35)), keyset,
                         random.Random(9))
            assert len(calls["enc4"]) == reads
            assert len(calls["lock"]) == 1
            owner = calls["enc4"][0][1]
            assert all(key is owner for _, key, _ in calls["enc4"])
            assert owner.verify()
            assert owner.k == mat_mul(k1.k, k2.k)
