"""Empirical and structural checks on the scheme.

Covers the invertibility density of random matrices mod N, the brute-force
cost formula, the ciphertext collision rate, witness constructions for the
key-indistinguishability argument (lemma6_witness, lemma7_check), and a
known-plaintext attack on the pedagogical dim 2 construction. That attack's
(x + r, x * r) factoring fails on dim 4 ciphertexts, but the conjugation
invariants still pin the plaintext: slot 0 of every diagonal is x, so
det(C - y*I) = 0 mod N at y = x for every ciphertext of either dimension.
"""

import itertools
import math
from dataclasses import dataclass

from .cipher import (Enc4Randomness, Enc8Randomness, _draw_enc4, _draw_enc8,
                     dec, enc4, encryption_diagonal)
from .keys import KeyTuple
from .matrix import (Matrix, determinant, diagonal, inverse, is_invertible,
                     mat_mul)
from .ring import ParameterError, crt_solve


def invertibility_experiment(moduli, samples, repeats, rng, dim=4):
    """Counts of invertible draws among uniform random dim x dim matrices.

    Each entry of moduli is a RingModulus or a bare int (bare ints allow
    degenerate test values like 4 that the modulus type rejects). Returns
    {n: [count per repeat]}. Every modulus is checked before the first draw.
    """
    if samples < 1 or repeats < 1:
        raise ParameterError("samples and repeats must be >= 1")
    ns = [getattr(modulus, "n", modulus) for modulus in moduli]
    if any(n < 2 for n in ns):
        raise ParameterError("moduli must be >= 2")
    out = {}
    for n in ns:
        counts = []
        for _ in range(repeats):
            hits = 0
            for _ in range(samples):
                mat = Matrix(dim, n,
                             tuple(rng.randrange(n) for _ in range(dim * dim)))
                if is_invertible(mat):
                    hits += 1
            counts.append(hits)
        out[n] = counts
    return out


def count_invertible_exhaustive(dim, n):
    """Exhaustive count of invertible dim x dim matrices mod n.

    Only feasible for tiny dim and n; used to cross-check the sampler.
    Returns (invertible_count, total_count).
    """
    total = n ** (dim * dim)
    count = 0
    for flat in itertools.product(range(n), repeat=dim * dim):
        if is_invertible(Matrix(dim, n, flat)):
            count += 1
    return count, total


def brute_force_cost(bits, dim):
    """log2 of the brute-force work factor dim^2 * 2^(bits * dim^2).

    Returns log2(dim^2) + bits * dim^2 as a float.
    """
    if bits < 1 or dim < 1:
        raise ParameterError("bits and dim must be >= 1")
    return math.log2(dim * dim) + bits * dim * dim


def kpa_collision_estimate(key, x, trials, rng):
    """Fraction of fresh re-encryptions of x that reproduce a fixed target.

    Encrypts x once as the target, then re-encrypts trials times with fresh
    coins for the key's dimension, counting exact ciphertext matches.
    Conjugation by the fixed key is a bijection on matrices, so two
    ciphertexts under one key are equal exactly when their diagonals are.
    A slot row holds x once and each blind w times (w = 2 at dim 4, 3 at
    dim 8) and the CRT basis sums to 1, so a diagonal's trace is
    2x + w * sum(blinds) mod N. Equal diagonals have equal traces, so each
    trial is a raw coin draw screened by its blinds: it builds no coin
    object unless its blind term matches the target's, and only those
    about 1 in N trials are folded and compared in full; the hit count
    stays exact.
    """
    if trials < 1:
        raise ParameterError("trials must be >= 1")
    modulus = key.modulus
    n = modulus.n
    if not 0 <= x < n:
        raise ParameterError(f"plaintext must lie in [0, {n})")
    draw, coins, w = ((_draw_enc4, Enc4Randomness, 2) if key.dim == 4
                      else (_draw_enc8, Enc8Randomness, 3))
    m = modulus.m
    rnd = coins(*draw(x, n, m, rng))
    screen = w * sum(rnd.blinds) % n
    target = encryption_diagonal(x, modulus, rnd)
    hits = 0
    for _ in range(trials):
        drawn = draw(x, n, m, rng)
        if (w * sum(drawn[:-1]) % n == screen
                and encryption_diagonal(x, modulus, coins(*drawn)) == target):
            hits += 1
    return hits / trials


_DOUBLE_SWAP = ((0, 1, 0, 0),
                (1, 0, 0, 0),
                (0, 0, 0, 1),
                (0, 0, 1, 0))


def lemma6_witness(i, modulus):
    """The involutory key matrix k_i tied to factor i (1-based).

    Entrywise CRT construction: congruent to the double-swap permutation
    matrix (which exchanges slots 1,2 and slots 3,4) mod p_i, and to the
    identity mod q_i and mod every other f_j. Needs a modulus that still
    carries its p/q split.
    """
    if not 1 <= i <= modulus.m:
        raise ValueError(f"factor index must be in 1..{modulus.m}")
    if not modulus.has_split:
        raise ValueError("modulus does not carry its p/q split")
    p_i = modulus.p[i - 1]
    q_i = modulus.q[i - 1]
    entries = []
    for r in range(4):
        for c in range(4):
            ident = 1 if r == c else 0
            residues = [(_DOUBLE_SWAP[r][c] % p_i, p_i), (ident % q_i, q_i)]
            residues += [(ident % fj, fj)
                         for j, fj in enumerate(modulus.f) if j != i - 1]
            entries.append(crt_solve(residues))
    return Matrix(4, modulus.n, tuple(entries))


def lemma7_check(x, key, rnd, i):
    """Related-key equality: the ciphertext of x under k is also a valid
    ciphertext of some y under k_i * k.

    rnd must be a fixed Enc4Randomness so the two sides see the same coins.
    Builds the encryption diagonal D, conjugates it by the witness (its own
    inverse) into Y = k_i * D * k_i, checks Y is diagonal, and returns
    (y, holds) where y = Y[0][0] and holds says whether enc4(x, key, rnd)
    decrypts to y under the related key.
    """
    if not isinstance(rnd, Enc4Randomness):
        raise TypeError("rnd must be a fixed Enc4Randomness")
    modulus = key.modulus
    witness = lemma6_witness(i, modulus)
    diag = diagonal(encryption_diagonal(x, modulus, rnd), modulus.n)
    y_mat = mat_mul(mat_mul(witness, diag), witness)
    for r in range(4):
        for c in range(4):
            if r != c and y_mat[r, c] != 0:
                raise AssertionError("conjugated diagonal is not diagonal")
    y = y_mat[0, 0]
    related = KeyTuple(modulus,
                       mat_mul(witness, key.k),
                       mat_mul(key.k_inv, witness))
    ct = enc4(x, key, rnd)
    holds = dec(ct, related) == y
    return y, holds


def strawman_encrypt(x, r, k):
    """Pedagogical dim 2 scheme: k_inv * diag(x, r) * k.

    Deliberately weak; exists as the target for strawman_cpa_attack. Not
    part of the real API.
    """
    n = k.modulus
    return mat_mul(mat_mul(inverse(k), diagonal((x, r), n)), k)


class InconsistentPairsError(ValueError):
    """The trace/determinant constraints of a pair disagree."""


@dataclass(frozen=True)
class AttackReport:
    """Known-plaintext attack output on the dim 2 strawman.

    constraints holds one (trace, det) pair per ciphertext, which for the
    strawman equal (x + r, x * r) mod N; blinds holds the recovered r per
    pair. underdetermined is set when fewer than two pairs were supplied.
    """

    constraints: tuple
    blinds: tuple
    underdetermined: bool


def strawman_cpa_attack(pairs):
    """Recover each pair's blind from conjugation invariants.

    Trace and determinant survive conjugation, so a dim 2 ciphertext of x
    reveals (x + r, x * r) directly: r is trace minus x, cross-checked
    against the determinant. Dim 4 ciphertexts blend three CRT-mixed slots
    into the trace, so the cross-check fails with InconsistentPairsError:
    this factoring no longer applies. The invariants still pin x, though:
    slot 0 is x, so det(C - y*I) = 0 mod N at y = x for every ciphertext.
    """
    if not pairs:
        raise ValueError("need at least one (plaintext, ciphertext) pair")
    constraints = []
    blinds = []
    for x, mat in pairs:
        n = mat.modulus
        trace = sum(mat[i, i] for i in range(mat.dim)) % n
        det = determinant(mat)
        r = (trace - x) % n
        if (x * r) % n != det:
            raise InconsistentPairsError(
                f"trace and determinant disagree for plaintext {x}: "
                f"the invariants do not factor as (x + r, x * r)")
        constraints.append((trace, det))
        blinds.append(r)
    return AttackReport(constraints=tuple(constraints),
                        blinds=tuple(blinds),
                        underdetermined=len(pairs) < 2)
