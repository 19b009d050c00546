"""Acceptance gate: eleven numbered criteria, one test and one verdict line each.

Each test covers one shipping criterion end to end and prints a single
`criterion NN PASS` line on success (visible with -s; under plain pytest
the PASSED/FAILED status line per test is the verdict). The criteria pin
the known-answer examples, the correctness lemmas, the statistical
claims with explicit bands, the protocol simulation, the keyless
plaintext test's boundary, the performance shape, and the golden file formats.
"""

import hashlib
import math
import os
import random
import subprocess
import sys
import time

from matfhe.analysis import (count_invertible_exhaustive,
                             invertibility_experiment, kpa_collision_estimate,
                             lemma6_witness, lemma7_check,
                             plaintext_candidates)
from matfhe.cipher import (Ciphertext, dec, dec_diagonal, enc4, encrypt_value,
                           encryption_diagonal, sample_enc4_randomness)
from matfhe.evaluate import (BinOp, CipherEnv, Const, Ref, eval_expr,
                             format_expr, he_add, he_mul)
from matfhe.formats import parse_ciphertext, parse_key, serialize_ciphertext, serialize_key
from matfhe.keys import KeyTuple, keygen4, keygen8, keyset_gen
from matfhe.matrix import identity, mat_mul
from matfhe.protocol import (MaskedOperand, Message, Role, Transcript,
                             audit_transcript, run_protocol,
                             serialize_transcript)

from conftest import FIXTURE_DIR, RND_A, EntryRng, child_env
from known_answers import (CT_A, CT_B5, CT_B12, CT_B_PROD, CT_B_SUM, DIAG_A,
                           DIAG_B_PROD, DIAG_B_SUM, KA, KA_INV, KB, KB_INV,
                           MOD, N)

_DOUBLE_SWAP = ((0, 1, 0, 0),
                (1, 0, 0, 0),
                (0, 0, 0, 1),
                (0, 0, 1, 0))


def _verdict(number, text):
    print(f"criterion {number:02d} PASS: {text}")


def test_criterion_01_pinned_encryption_bit_exact():
    # Injected factors {3,5,7,11} and the reference key entries must
    # reproduce the frozen key pair, then Enc(257) under fixed coins
    # (r=291, rows 2 and 3) must hit the known diagonal and ciphertext
    # entry for entry, and decrypt back to 257.
    key = keygen4(2, 8, EntryRng(KA.entries), candidates=[3, 5, 7, 11])
    assert key.modulus == MOD
    assert key.k == KA
    assert key.k_inv == KA_INV
    assert encryption_diagonal(257, MOD, RND_A) == DIAG_A == (257, 291, 236, 312)
    ct = enc4(257, key, RND_A)
    assert ct.body == CT_A
    assert dec(ct, key) == 257
    assert dec_diagonal(ct, key) == DIAG_A
    _verdict(1, "pinned key, diagonal (257,291,236,312), ciphertext, and decrypt")


def test_criterion_02_pinned_homomorphic_sum_and_product():
    key = KeyTuple(MOD, KB, KB_INV)
    c1 = Ciphertext(CT_B5)
    c2 = Ciphertext(CT_B12)
    assert dec(c1, key) == 5
    assert dec(c2, key) == 12
    total = he_add(c1, c2)
    prod = he_mul(c1, c2)
    assert total.body == CT_B_SUM
    assert prod.body == CT_B_PROD
    assert dec(total, key) == 17
    assert dec_diagonal(total, key) == DIAG_B_SUM == (17, 408, 1079, 238)
    assert dec(prod, key) == 60
    assert dec_diagonal(prod, key) == DIAG_B_PROD == (60, 440, 673, 957)
    _verdict(2, "5+12 and 5*12 decrypt to 17 and 60 with pinned diagonals")


def test_criterion_03_thousand_round_trips_under_ten_seconds():
    rng = random.Random(101)
    start = time.perf_counter()
    key = None
    for trial in range(1000):
        if trial % 100 == 0:
            key = keygen4(2, 16, rng)
        x = rng.randrange(key.modulus.n)
        assert dec(enc4(x, key, rng), key) == x
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _verdict(3, f"1000/1000 round trips at m=2, lambda=16 in {elapsed:.2f}s")


def _random_tree(rng, depth, names):
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.15:
            return Const(rng.randrange(2 * N))
        return Ref(rng.choice(names))
    op = rng.choice(("+", "-", "*"))
    return BinOp(op, _random_tree(rng, depth - 1, names),
                 _random_tree(rng, depth - 1, names))


def _plain_eval(node, values, n):
    if isinstance(node, Const):
        return node.value % n
    if isinstance(node, Ref):
        return values[node.name] % n
    ops = {"+": lambda a, b: (a + b) % n,
           "-": lambda a, b: (a - b) % n,
           "*": lambda a, b: a * b % n}
    return ops[node.op](_plain_eval(node.left, values, n),
                        _plain_eval(node.right, values, n))


def test_criterion_04_homomorphism_fuzz_500_expressions():
    rng = random.Random(102)
    key = keygen4(2, 16, rng)
    n = key.modulus.n
    names = ("a", "b", "c")
    passed = 0
    for _ in range(500):
        values = {name: rng.randrange(n) for name in names}
        bindings = {name: enc4(v, key, rng) for name, v in values.items()}
        tree = _random_tree(rng, 5, names)
        env = CipherEnv(bindings=bindings, key=key, rng=rng)
        got = dec(eval_expr(tree, env), key)
        assert got == _plain_eval(tree, values, n), format_expr(tree)
        passed += 1
    assert passed == 500
    _verdict(4, "500/500 random depth<=5 expressions match plaintext evaluation")


def test_criterion_05_structural_witness_suites():
    # Witness congruences and involution for every factor index, then 100
    # related-key checks on random (plaintext, coins, index) triples.
    key = KeyTuple(MOD, KA, KA_INV)
    for i in range(1, MOD.m + 1):
        w = lemma6_witness(i, MOD)
        p_i, q_i = MOD.p[i - 1], MOD.q[i - 1]
        for r in range(4):
            for c in range(4):
                ident = 1 if r == c else 0
                assert w[r, c] % p_i == _DOUBLE_SWAP[r][c] % p_i
                assert w[r, c] % q_i == ident % q_i
                for j, fj in enumerate(MOD.f):
                    if j != i - 1:
                        assert w[r, c] % fj == ident % fj
        assert mat_mul(w, w) == identity(4, N)
    y, holds = lemma7_check(257, key, RND_A, 1)
    assert (y, holds) == (642, True)
    rng = random.Random(103)
    for _ in range(100):
        x = rng.randrange(N)
        rnd = sample_enc4_randomness(x, MOD, rng)
        y, holds = lemma7_check(x, key, rnd, rng.randrange(1, 3))
        assert holds
        assert 0 <= y < N
    _verdict(5, "witness congruences, involutions, and 100/100 related-key triples")


def test_criterion_06_collision_monte_carlo_band():
    # 10^6 fresh encryptions of 257 against one fixed target at N=1155,
    # m=2. The seed draws a generic target (blind not congruent to 257
    # mod either factor), where the collision rate is 1/(1154*9), about
    # 9.63e-5; the acceptance band is a factor of two each way. A target
    # whose blind matches 257 mod one factor would triple the rate, which
    # is why the seed is pinned.
    key = KeyTuple(MOD, KA, KA_INV)
    trials = 10 ** 6
    start = time.perf_counter()
    fraction = kpa_collision_estimate(key, 257, trials, random.Random(1))
    elapsed = time.perf_counter() - start
    assert 4.8e-5 <= fraction <= 1.92e-4
    assert elapsed < 120.0
    _verdict(6, f"collision fraction {fraction:.3g} within [4.8e-5, 1.92e-4] "
                f"in {elapsed:.1f}s")


def test_criterion_07_invertibility_experiment():
    # Exhaustive dim 2 count first, then the sampler at the reference
    # modulus against the exact density formula, then the qualitative
    # claim that density rises with the factors: at N=1155 the prime 3
    # caps the invertible fraction near 32%, so the >=60/100 reading is
    # checked where it holds, at a modulus with no small prime factors.
    assert count_invertible_exhaustive(2, 6) == (288, 1296)

    def density(primes):
        out = 1.0
        for p in primes:
            for k in range(1, 5):
                out *= 1 - p ** -k
        return out

    p_ref = density([3, 5, 7, 11])
    counts = invertibility_experiment([MOD.n], 100, 5, random.Random(2))
    sigma = math.sqrt(100 * p_ref * (1 - p_ref))
    for hits in counts[N]:
        assert abs(hits - 100 * p_ref) <= 3 * sigma

    big = 101 * 103 * 107 * 109
    assert density([101, 103, 107, 109]) > 0.96
    big_counts = invertibility_experiment([big], 100, 5, random.Random(2))
    for hits in big_counts[big]:
        assert hits >= 60
    _verdict(7, "288/1296 exhaustive; N=1155 matches density formula; "
                ">=60/100 in all 5 trials at a large-factor modulus")


def _protocol_plain_eval(node, data, n):
    if isinstance(node, Ref):
        return data[int(node.name[1:]) - 1] % n
    ops = {"+": lambda a, b: (a + b) % n,
           "-": lambda a, b: (a - b) % n,
           "*": lambda a, b: a * b % n}
    return ops[node.op](_protocol_plain_eval(node.left, data, n),
                        _protocol_plain_eval(node.right, data, n))


def _random_formula(rng, depth, width):
    if depth == 0 or rng.random() < 0.3:
        return Ref(f"x{rng.randrange(1, width + 1)}")
    return BinOp(rng.choice("+-*"), _random_formula(rng, depth - 1, width),
                 _random_formula(rng, depth - 1, width))


def test_criterion_08_protocol_end_to_end():
    rng = random.Random(104)
    keyset = None
    for run in range(200):
        if run % 50 == 0:
            keyset = keyset_gen(4, 3, 2, 16, rng)
        n = keyset.modulus.n
        width = rng.randrange(1, 5)
        tree = _random_formula(rng, 4, width)
        data = tuple(rng.randrange(n) for _ in range(width))
        result, transcript = run_protocol(format_expr(tree), data, keyset, rng)
        assert result == _protocol_plain_eval(tree, data, n)
        assert audit_transcript(transcript, keyset) == []

    # Forgery detection: a key-bearing operand and a duplicated final
    # message must both be flagged.
    keyset = keyset_gen(4, 3, 2, 16, random.Random(105))
    _, transcript = run_protocol("x1+x2", (5, 12), keyset, random.Random(106))
    forged = Message(Role.DATA_OWNER, Role.COMPUTATION_CENTER,
                     MaskedOperand(1, Ciphertext(keyset.components[1].k)))
    dirty = Transcript(messages=transcript.messages + (forged,),
                       result=transcript.result)
    assert any("key material" in v for v in audit_transcript(dirty, keyset))
    doubled = Transcript(messages=transcript.messages + (transcript.messages[-1],),
                         result=transcript.result)
    assert audit_transcript(doubled, keyset) != []

    # Determinism: identical seeds give byte-identical transcripts.
    one = run_protocol("x1*x2+x3", (3, 4, 5), keyset, random.Random(107))
    two = run_protocol("x1*x2+x3", (3, 4, 5), keyset, random.Random(107))
    assert serialize_transcript(one[1]) == serialize_transcript(two[1])
    assert one[0] == two[0]
    _verdict(8, "200/200 runs correct with clean audits; forgeries detected; "
                "transcripts deterministic")


def test_criterion_09_keyless_plaintext_candidates():
    # Slot 0 of every diagonal is x, so det(C - x*I) = 0 mod N and x is a
    # candidate for every ciphertext. With the large factors of a generated
    # modulus it is the only candidate in range(16) at dims 4 and 8; at the
    # pinned N = 1155 = 3*5*7*11 a blind can match a small y factor by
    # factor, so other candidates occur.
    rng = random.Random(16)
    tested = 0
    for dim, keygen in ((4, keygen4), (8, keygen8)):
        for bits in (16, 64, 256):
            key = keygen(2, bits, rng)
            for x in range(16):
                ct = encrypt_value(x, key, rng)
                assert plaintext_candidates(ct, range(16)) == [x], (dim, bits)
                tested += 1

    key = KeyTuple(MOD, KA, KA_INV)
    rng = random.Random(16)
    extra = 0
    for _ in range(80):
        x = rng.randrange(16)
        found = plaintext_candidates(enc4(x, key, rng), range(16))
        assert x in found
        extra += found != [x]
    assert extra > 0
    _verdict(9, f"x the only candidate in range(16) for {tested}/{tested} "
                f"dim 4 and 8 ciphertexts at lambda 16, 64, 256; at N={N} "
                f"x a candidate for 80/80, others too for {extra}/80")


def _bench_ratio(bits):
    proc = subprocess.run(
        [sys.executable, "-m", "matfhe", "bench", "--lambda", str(bits),
         "--reps", "5", "--seed", "0"],
        capture_output=True, text=True, check=True, env=child_env())
    rows = dict(line.split("\t") for line in proc.stdout.splitlines()[1:])
    assert "add" in rows and "mul" in rows
    return float(rows["mul"]) / float(rows["add"])


def test_criterion_10_add_at_least_ten_times_faster_than_mul():
    # Shape, not absolute speed: addition is 16 word additions while
    # multiplication is 64 word products, so a 10x gap must show at both
    # parameter sizes. One retry absorbs a scheduler hiccup on the host.
    ratios = {}
    for bits in (12, 20):
        ratio = _bench_ratio(bits)
        if ratio < 10.0:
            ratio = _bench_ratio(bits)
        assert ratio >= 10.0, f"lambda={bits}: mul/add ratio {ratio:.1f}"
        ratios[bits] = ratio
    _verdict(10, "mul/add ratio " + ", ".join(
        f"{r:.1f}x at lambda={b}" for b, r in sorted(ratios.items())))


GOLDEN_HASHES = {
    "key_a.key": "1ca05f884b1d494951a52bb9662f3162321b81ee212cebdf1181f513932945b4",
    "ct_a_257.ct": "7af46303b05aee0e7bfc10476691c9de3f17b3cc0a437d755de06fb7dff7542c",
    "key_b.key": "5bddf947004e444940c46b31fe9006f64ff9c1cdfd6752dde9af5daf23e75106",
    "ct_b_5.ct": "d95d30f8550236a720dc68701a435a222efb33d0153b5cd7266932a5960a3d8a",
    "ct_b_12.ct": "d8c53938919ee803f4c6019567dc925f35e9f5109ac8f9ff5877be8134847362",
}


def test_criterion_11_golden_files_parse_and_hash_match():
    for name, expected in sorted(GOLDEN_HASHES.items()):
        with open(os.path.join(FIXTURE_DIR, name), "rb") as fh:
            data = fh.read()
        assert hashlib.sha256(data).hexdigest() == expected, name
        text = data.decode("ascii")
        if name.endswith(".key"):
            assert serialize_key(parse_key(text)) == text
        else:
            ct, _, _, n = parse_ciphertext(text)
            assert n == N
            assert serialize_ciphertext(ct, MOD) == text
    _verdict(11, "5/5 fixtures hash-match and re-serialize byte-identically")
