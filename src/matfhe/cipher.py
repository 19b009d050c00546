"""Encryption, decryption, and re-keying of conjugated diagonal ciphertexts.

A plaintext x sits in the top-left slot of a diagonal matrix whose other
slots blend x with blind values through per-factor CRT choices; the
ciphertext is that diagonal conjugated by the secret key. Decryption
conjugates back and reads the top-left entry. Because conjugation is a ring
homomorphism, ciphertext sums and products track plaintext sums and
products.
"""

from dataclasses import dataclass

from .matrix import Matrix, _check_pair, mat_mul


@dataclass(frozen=True)
class Ciphertext:
    """A dim x dim matrix over Z_N. Carries no other metadata."""

    body: Matrix

    @property
    def dim(self):
        return self.body.dim

    @property
    def modulus(self):
        return self.body.modulus


@dataclass(frozen=True)
class Enc4Randomness:
    """Coins for enc4: one blind r and one base-row choice per factor.

    Row choice j (1-based) for factor f_i selects the row of
    [[x, r, r], [r, x, r], [r, r, x]] with x in position j.
    """

    r: int
    row_choices: tuple

    def __post_init__(self):
        if any(c not in (1, 2, 3) for c in self.row_choices):
            raise ValueError("row choices must be 1, 2, or 3")


@dataclass(frozen=True)
class Enc8Randomness:
    """Coins for enc8: blinds r1, r2 and one 7-slot arrangement per factor.

    Each arrangement is a tuple over {"x", "r1", "r2"} placing x once and
    each blind three times (140 distinct arrangements).
    """

    r1: int
    r2: int
    rows: tuple

    def __post_init__(self):
        for row in self.rows:
            if len(row) != 7 or sorted(row) != ["r1", "r1", "r1",
                                                "r2", "r2", "r2", "x"]:
                raise ValueError(
                    "each row must arrange x once and r1, r2 three times each")


def sample_enc4_randomness(x, modulus, rng):
    """Uniform enc4 coins: r from Z_n minus {x}, row choices uniform."""
    n = modulus.n
    r = rng.randrange(n)
    while r == x:
        r = rng.randrange(n)
    return Enc4Randomness(
        r=r, row_choices=tuple(rng.randrange(1, 4) for _ in range(modulus.m)))


def sample_enc8_randomness(x, modulus, rng):
    """Uniform enc8 coins: distinct blinds, arrangements uniform over 140."""
    n = modulus.n
    r1 = rng.randrange(n)
    while r1 == x:
        r1 = rng.randrange(n)
    r2 = rng.randrange(n)
    while r2 == x or r2 == r1:
        r2 = rng.randrange(n)
    rows = []
    for _ in range(modulus.m):
        slots = ["r2"] * 7
        x_pos = rng.randrange(7)
        slots[x_pos] = "x"
        rest = [i for i in range(7) if i != x_pos]
        for i in rng.sample(rest, 3):
            slots[i] = "r1"
        rows.append(tuple(slots))
    return Enc8Randomness(r1=r1, r2=r2, rows=tuple(rows))


def _fold(rows, modulus):
    """Slot j is sum(rows[i][j] * e_i) mod n: row i's entry j mod each f_i."""
    e = modulus.crt_basis
    return tuple(sum(v * b for v, b in zip(c, e, strict=True)) % modulus.n
                 for c in zip(*rows))


def encryption_diagonal(x, modulus, rnd):
    """The enc4 diagonal (x, x1, x2, x3) before conjugation.

    Row c of [[x, r, r], [r, x, r], [r, r, x]] is chosen per factor, and
    the stacked rows are folded column by column through the CRT basis.
    """
    r = rnd.r
    base = ((x, r, r), (r, x, r), (r, r, x))
    return (x,) + _fold([base[c - 1] for c in rnd.row_choices], modulus)


def _check_plaintext(x, modulus):
    if not 0 <= x < modulus.n:
        raise ValueError(f"plaintext must lie in [0, {modulus.n})")


def _conjugate_diagonal(diag, key):
    """k_inv * diag(diag) * k: k_inv's column j scaled by diag[j], times k."""
    n = key.modulus.n
    k_inv = key.k_inv
    scaled = tuple(v * s % n for r in k_inv.rows() for v, s in zip(r, diag))
    return Ciphertext(mat_mul(Matrix(k_inv.dim, n, scaled), key.k))


def enc4(x, key, rnd):
    """Encrypt x under a dim 4 key as k_inv * diag(x, x1, x2, x3) * k,
    k_inv with its columns scaled by the diagonal, times k.

    rnd is either an Enc4Randomness (deterministic, for reproducibility)
    or an rng to sample fresh coins from.
    """
    modulus = key.modulus
    if key.dim != 4:
        raise ValueError("enc4 needs a dim 4 key")
    _check_plaintext(x, modulus)
    if not isinstance(rnd, Enc4Randomness):
        rnd = sample_enc4_randomness(x, modulus, rnd)
    if not 0 <= rnd.r < modulus.n or rnd.r == x:
        raise ValueError("blind r must lie in [0, n) and differ from x")
    if len(rnd.row_choices) != modulus.m:
        raise ValueError("need one row choice per factor")
    return _conjugate_diagonal(encryption_diagonal(x, modulus, rnd), key)


def enc8(x, key, rnd):
    """Encrypt x under a dim 8 key: diagonal (x, x1..x7), two blinds."""
    modulus = key.modulus
    if key.dim != 8:
        raise ValueError("enc8 needs a dim 8 key")
    _check_plaintext(x, modulus)
    if not isinstance(rnd, Enc8Randomness):
        rnd = sample_enc8_randomness(x, modulus, rnd)
    for blind in (rnd.r1, rnd.r2):
        if not 0 <= blind < modulus.n or blind == x:
            raise ValueError("blinds must lie in [0, n) and differ from x")
    if rnd.r1 == rnd.r2:
        raise ValueError("blinds must be distinct")
    if len(rnd.rows) != modulus.m:
        raise ValueError("need one arrangement per factor")
    values = {"x": x, "r1": rnd.r1, "r2": rnd.r2}
    rows = [[values[slot] for slot in row] for row in rnd.rows]
    return _conjugate_diagonal((x,) + _fold(rows, modulus), key)


def encrypt_value(x, key, rng):
    """enc4 or enc8 depending on the key dimension."""
    return enc4(x, key, rng) if key.dim == 4 else enc8(x, key, rng)


def dec(ct, key):
    """Recover the plaintext: the top-left entry of k * C * k_inv.

    Only that entry is computed: row 0 of k times C, then its dot product
    with column 0 of k_inv, dim^2 + dim multiplications in all. A
    ciphertext whose dim or modulus differs from the key's raises
    MismatchError. Nothing about the recovered diagonal is validated;
    decrypting with the wrong key silently yields an arbitrary value.
    """
    k = key.k
    _check_pair(k, ct.body)
    n, d, c = k.modulus, k.dim, ct.body.entries
    top = [sum(x * y for x, y in zip(k.entries[:d], c[j::d])) % n
           for j in range(d)]
    return sum(x * y for x, y in zip(top, key.k_inv.entries[::d])) % n


def dec_diagonal(ct, key):
    """The full recovered diagonal, for diagnostics and structural tests."""
    inner = mat_mul(mat_mul(key.k, ct.body), key.k_inv)
    return tuple(inner[i, i] for i in range(inner.dim))


def lock(ct, key):
    """Add a key layer: k_inv * body * k.

    Locking an enc4 output under k2 yields a ciphertext of the composed
    key k1 * k2.
    """
    return Ciphertext(mat_mul(mat_mul(key.k_inv, ct.body), key.k))


def unlock(ct, key):
    """Remove a key layer: k * body * k_inv. Inverse of lock under one key."""
    return Ciphertext(mat_mul(mat_mul(key.k, ct.body), key.k_inv))
