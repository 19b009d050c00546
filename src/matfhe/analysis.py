"""Empirical and structural checks on the scheme.

Covers the invertibility density of random matrices mod N, the brute-force
cost formula, the ciphertext collision rate, witness constructions for the
key-indistinguishability argument (lemma6_witness, lemma7_check), and a
keyless plaintext test: conjugation keeps the characteristic polynomial,
and slot 0 of every diagonal is x, so det(C - y*I) = 0 mod N at y = x for
every ciphertext of either dimension (plaintext_candidates).
"""

import itertools
import math

from .cipher import _draw_enc4, _draw_enc8, dec, enc4, encryption_diagonal
from .keys import KeyTuple, compose
from .matrix import (Matrix, determinant, diagonal, is_invertible, mat_mul,
                     mat_sub)
from .ring import ParameterError, _check_plaintexts, mod_inverse


def invertibility_experiment(moduli, samples, repeats, rng, dim=4):
    """Counts of invertible draws among uniform random dim x dim matrices.

    moduli are ints n >= 2, degenerate ones like 4 included. Returns
    {n: [count per repeat]}, so a repeated modulus is refused. Every modulus
    is checked before the first draw.
    """
    if samples < 1 or repeats < 1:
        raise ParameterError("samples and repeats must be >= 1")
    if any(n < 2 for n in moduli):
        raise ParameterError("moduli must be >= 2")
    if len(set(moduli)) != len(moduli):
        raise ParameterError("moduli must not repeat")
    def hits(n):
        draws = (tuple(rng.randrange(n) for _ in range(dim * dim))
                 for _ in range(samples))
        return sum(is_invertible(Matrix(dim, n, flat)) for flat in draws)
    return {n: [hits(n) for _ in range(repeats)] for n in moduli}


def count_invertible_exhaustive(dim, n):
    """Exhaustive count of invertible dim x dim matrices mod n.

    Only feasible for tiny dim and n; used to cross-check the sampler.
    Returns (invertible_count, total_count).
    """
    count = sum(is_invertible(Matrix(dim, n, flat))
                for flat in itertools.product(range(n), repeat=dim * dim))
    return count, n ** (dim * dim)


def brute_force_cost(bits, dim):
    """log2 of the brute-force work factor dim^2 * 2^(bits * dim^2).

    Returns log2(dim^2) + bits * dim^2 as a float.
    """
    if bits < 1 or dim < 1:
        raise ParameterError("bits and dim must be >= 1")
    try:
        return math.log2(dim * dim) + bits * dim * dim
    except OverflowError:
        raise ParameterError("bits * dim^2 is too large for a float") from None


def kpa_collision_estimate(key, x, trials, rng):
    """Fraction of fresh re-encryptions of x that reproduce a fixed target.

    Encrypts x once as the target, then re-encrypts trials times with fresh
    coins for the key's dimension, counting exact ciphertext matches.
    Conjugation by the fixed key is a bijection on matrices, so two
    ciphertexts under one key are equal exactly when their diagonals are.
    A slot row holds x once and each blind w times (w = 2 at dim 4, 3 at
    dim 8) and the CRT basis sums to 1, so a diagonal's trace is
    2x + w * sum(blinds) mod N, and equal diagonals have equal traces. Each
    trial takes its coin tuple from one lazy stream, shared with the target
    and holding no per-trial list, and is screened on its blinds alone. At
    dim 4 the screen is the blind: N is odd, so 2 is a unit and
    2x + 2r = 2x + 2r0 mod N only when r == r0. At dim 8 it is the trace
    term 3(r1 + r2) mod N, as 3 may divide N. Only the trials that pass,
    about 1 in N, are folded and compared in full; the hit count stays
    exact.
    """
    if trials < 1:
        raise ParameterError("trials must be >= 1")
    modulus = key.modulus
    n = modulus.n
    _check_plaintexts((x,), n)
    draw = _draw_enc4 if key.dim == 4 else _draw_enc8
    stream = draw(itertools.repeat(x, trials + 1), n, modulus.m, rng)
    first = next(stream)
    target = encryption_diagonal(x, modulus, first)
    if key.dim == 4:
        r0 = first[0]
        passed = (c for c in stream if c[0] == r0)
    else:
        screen = 3 * (first[0] + first[1]) % n
        passed = (c for c in stream if 3 * (c[0] + c[1]) % n == screen)
    return sum(encryption_diagonal(x, modulus, c) == target
               for c in passed) / trials


_DOUBLE_SWAP = ((0, 1, 0, 0),
                (1, 0, 0, 0),
                (0, 0, 0, 1),
                (0, 0, 1, 0))


def lemma6_witness(i, modulus):
    """The involutory key matrix k_i tied to factor i (1-based).

    Congruent to the double-swap permutation matrix P (which exchanges
    slots 1,2 and slots 3,4) mod p_i, and to the identity mod q_i and mod
    every other f_j: I + e * (P - I) mod N, where e is the CRT idempotent
    that is 1 mod p_i and 0 mod N / p_i. Needs a modulus that still
    carries its p/q split.
    """
    if not 1 <= i <= modulus.m:
        raise ValueError(f"factor index must be in 1..{modulus.m}")
    if not modulus.has_split:
        raise ValueError("modulus does not carry its p/q split")
    n = modulus.n
    p_i = modulus.p[i - 1]
    e = n // p_i * mod_inverse(n // p_i, p_i)
    return Matrix(4, n, tuple((e * (swap - (r == c)) + (r == c)) % n
                              for r, row in enumerate(_DOUBLE_SWAP)
                              for c, swap in enumerate(row)))


def lemma7_check(x, key, rnd, i):
    """Related-key equality: the ciphertext of x under k is also a valid
    ciphertext of some y under k_i * k.

    rnd must be fixed enc4 coins (r, row_choices) so the two sides see the
    same coins; enc4 checks them. Builds the encryption diagonal D,
    conjugates it by the witness (its own inverse) into Y = k_i * D * k_i,
    checks Y is diagonal, and returns (y, holds) where y = Y[0][0] and
    holds says whether enc4(x, key, rnd) decrypts to y under the related
    key.
    """
    if not (isinstance(rnd, tuple) and len(rnd) == 2):
        raise TypeError("rnd must be fixed enc4 coins (r, row_choices)")
    modulus = key.modulus
    witness = lemma6_witness(i, modulus)
    ct = enc4(x, key, rnd)
    diag = diagonal(encryption_diagonal(x, modulus, rnd), modulus.n)
    y_mat = mat_mul(mat_mul(witness, diag), witness)
    if y_mat != diagonal([y_mat[j, j] for j in range(4)], modulus.n):
        raise AssertionError("conjugated diagonal is not diagonal")
    y = y_mat[0, 0]
    related = compose(KeyTuple(modulus, witness, witness), key)
    holds = dec(ct, related) == y
    return y, holds


def plaintext_candidates(ct, ys):
    """The values y in ys, in order, at which det(C - y*I) = 0 mod N.

    Conjugation keeps det(C - y*I) = prod_j (d_j - y) mod N over the hidden
    diagonal d, and slot 0 of d is x, so the plaintext is a candidate for
    every ciphertext of any dim. No key is needed.
    """
    body = ct.body
    n = body.modulus
    return [y for y in ys
            if determinant(mat_sub(body, diagonal((y,) * body.dim, n))) == 0]
