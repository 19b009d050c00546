"""Encryption, decryption, and re-keying of conjugated diagonal ciphertexts.

A plaintext x sits in the top-left slot of a diagonal matrix whose other
slots blend x with one blind (dim 4) or two (dim 8) through per-factor CRT
choices. Coins are one plain tuple, (r, row_choices) at dim 4 and
(r1, r2, rows) at dim 8: they give a row of slot values per factor, and the
rows fold through the CRT basis into the diagonal D. One body checks key,
plaintext and coins for both dimensions and conjugates D by the key in one
fused product, k_inv's rows scaled by D times k. Drawn coins come from one
lazy stream per dim, which draws each plaintext's coins only when taken:
an encryption given an rng takes one plaintext's, the protocol's owner a
table's, the collision estimate every trial's. Each coin value is drawn
as randrange draws it, but inline on getrandbits, so a coin rng is a
random.Random (getrandbits, and sample at dim 8); key generation still
calls randrange. The key holds no cached state. Decryption conjugates back
and reads the top-left entry. Conjugation is a ring homomorphism, so
ciphertext sums and products track plaintext sums and products.
"""

from collections import namedtuple
from operator import mul

from .matrix import Matrix, _check_pair, mat_mul
from .ring import ParameterError, _Record, _check_plaintexts


class Ciphertext(_Record, namedtuple("Ciphertext", "body")):
    """A dim x dim matrix over Z_N. Carries no other metadata."""

    @property
    def dim(self):
        return self.body.dim

    @property
    def modulus(self):
        return self.body.modulus


def _draw_enc4(xs, n, m, rng):
    """Enc4 coins (r, row_choices) for each x of xs in turn, drawn only
    when taken. Each value is drawn inline as rng.randrange draws it: a
    getrandbits word of n's bit length (r, also redrawn while it is x) or
    of 2 bits (a row choice, minus 1), redrawn while out of range, so the
    getrandbits calls match call for call."""
    bits, k = rng.getrandbits, n.bit_length()
    for x in xs:
        r = bits(k)
        while r >= n or r == x:
            r = bits(k)
        choices = []
        while len(choices) < m:
            c = bits(2)
            if c < 3:
                choices.append(c + 1)
        yield r, tuple(choices)


def _draw_enc8(xs, n, m, rng):
    """Enc8 coins (r1, r2, rows) for each x of xs in turn, drawn as
    _draw_enc4 draws them: r1 is redrawn while out of range or x, r2 while
    out of range, x or r1. A row's x slot is a 3-bit word redrawn while it
    is 7, as randrange(7) draws it; its r1 slots are rng.sample(rest, 3)."""
    bits, sample, k = rng.getrandbits, rng.sample, n.bit_length()
    for x in xs:
        r1 = bits(k)
        while r1 >= n or r1 == x:
            r1 = bits(k)
        r2 = bits(k)
        while r2 >= n or r2 == x or r2 == r1:
            r2 = bits(k)
        rows = []
        for _ in range(m):
            slots = ["r2"] * 7
            x_pos = bits(3)
            while x_pos == 7:
                x_pos = bits(3)
            slots[x_pos] = "x"
            rest = [i for i in range(7) if i != x_pos]
            for i in sample(rest, 3):
                slots[i] = "r1"
            rows.append(tuple(slots))
        yield r1, r2, tuple(rows)


def sample_enc4_randomness(x, modulus, rng):
    """Uniform enc4 coins (r, row_choices): r from Z_n minus {x}, row
    choices uniform."""
    return next(_draw_enc4((x,), modulus.n, modulus.m, rng))


def sample_enc8_randomness(x, modulus, rng):
    """Uniform enc8 coins (r1, r2, rows): distinct blinds, arrangements
    uniform over 140."""
    return next(_draw_enc8((x,), modulus.n, modulus.m, rng))


def encryption_diagonal(x, modulus, coins):
    """The diagonal (x, x1, ...) before conjugation, for enc4 coins
    (r, row_choices) or enc8 coins (r1, r2, rows). Factor i's row choice c
    picks the row of ((x, r, r), (r, x, r), (r, r, x)) with x at c; its
    enc8 row arranges "x" once and "r1", "r2" three times each over 7
    slots. Slot j is sum(rows[i][j] * e_i) mod n over the CRT basis, so it
    agrees with row i's entry j mod each f_i. The coins are not checked
    here; enc4 and enc8 check fixed coins."""
    if len(coins) == 2:
        r, choices = coins
        base = ((x, r, r), (r, x, r), (r, r, x))
        rows = [base[c - 1] for c in choices]
    else:
        values = {"x": x, "r1": coins[0], "r2": coins[1]}
        rows = [[values[slot] for slot in row] for row in coins[2]]
    e, n = modulus.crt_basis, modulus.n
    return (x,) + tuple(sum(map(mul, c, e)) % n for c in zip(*rows))


_ARRANGED = ["r1", "r1", "r1", "r2", "r2", "r2", "x"]


def _encrypt(x, key, coins, dim):
    """k_inv * diag(D) * k for x's encryption diagonal D. A tuple is fixed
    coins, (r, row_choices) at dim 4 or (r1, r2, rows) at dim 8, and every
    check on coins is made here: their shape, their rows and their blinds.
    Anything else is an rng that the dim's sampler draws one plaintext's
    coins from; a draw yields valid rows, so only its blinds are checked.
    Which coins are drawn is the only difference between the dims.

    The product is fused: row i of k_inv is scaled by D, each entry reduced
    mod n, and entry (i, l) of the body is that row's dot product with
    column l of k, reduced once: dim^2 + dim^3 multiplications, with no
    diagonal matrix and no intermediate Matrix built.
    """
    modulus = key.modulus
    n, m = modulus.n, modulus.m
    if key.dim != dim:
        raise ParameterError(f"enc{dim} needs a dim {dim} key")
    _check_plaintexts((x,), n)
    if not isinstance(coins, tuple):
        sample = sample_enc4_randomness if dim == 4 else sample_enc8_randomness
        coins = sample(x, modulus, coins)
    elif len(coins) != (2 if dim == 4 else 3):
        raise ValueError("enc4 coins are (r, row_choices), "
                         "enc8 coins (r1, r2, rows)")
    elif dim == 4 and any(c not in (1, 2, 3) for c in coins[1]):
        raise ValueError("row choices must be 1, 2, or 3")
    elif dim == 8 and any(sorted(row) != _ARRANGED for row in coins[2]):
        raise ValueError(
            "each row must arrange x once and r1, r2 three times each")
    elif len(coins[-1]) != m:
        raise ValueError("need one slot row per factor")
    taken = [x]
    for b in coins[:-1]:
        if not (isinstance(b, int) and 0 <= b < n) or b in taken:
            raise ValueError("need distinct blinds in [0, n), none equal to x")
        taken.append(b)
    diag = encryption_diagonal(x, modulus, coins)
    k, k_inv = key.k.entries, key.k_inv.entries
    cols = [k[j::dim] for j in range(dim)]
    scaled_rows = [[v * s % n for v, s in zip(k_inv[i:i + dim], diag)]
                   for i in range(0, dim * dim, dim)]
    return Ciphertext(Matrix(dim, n, tuple([
        sum(map(mul, row, col)) % n for row in scaled_rows for col in cols])))


def enc4(x, key, coins):
    """Encrypt x under a dim 4 key; coins are fixed, (r, row_choices), or
    an rng to draw them from."""
    return _encrypt(x, key, coins, 4)


def enc8(x, key, coins):
    """Encrypt x under a dim 8 key; coins are fixed, (r1, r2, rows), or an
    rng to draw them from."""
    return _encrypt(x, key, coins, 8)


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
    row = k.entries[:d]
    top = [sum(map(mul, row, c[j::d])) % n for j in range(d)]
    return sum(map(mul, top, key.k_inv.entries[::d])) % n


def dec_diagonal(ct, key):
    """The full recovered diagonal, for diagnostics and structural tests."""
    inner = mat_mul(mat_mul(key.k, ct.body), key.k_inv)
    return tuple(inner[i, i] for i in range(inner.dim))


def lock(ct, key):
    """Add a key layer: k_inv * body * k.

    Locking an encryption under k1 with k2 yields an encryption under
    keys.compose(k1, k2).
    """
    return Ciphertext(mat_mul(mat_mul(key.k_inv, ct.body), key.k))


def unlock(ct, key):
    """Remove a key layer: k * body * k_inv. Inverse of lock under one key."""
    return Ciphertext(mat_mul(mat_mul(key.k, ct.body), key.k_inv))
