"""Encryption, decryption, and re-keying of conjugated diagonal ciphertexts.

A plaintext x sits in the top-left slot of a diagonal matrix whose other
slots blend x with one blind (dim 4) or two (dim 8) through per-factor CRT
choices: the coins give a row of slot values per factor, and
encryption_diagonal folds the rows through the CRT basis. One body checks
key, plaintext and coins for both dimensions and conjugates the diagonal
by the key. Decryption conjugates back and reads the top-left entry.
Conjugation is a ring homomorphism, so ciphertext sums and products track
plaintext sums and products.

Conjugation is linear in the diagonal: k_inv * diag(D) * k = sum(D_j * Q_j)
over the key's rank-1 slot projectors Q_j = (column j of k_inv) * (row j
of k). So under a key pair every dim 4 ciphertext is
C = r * I + (x - r) * P_c, where the slot sum P_c depends only on the row
choices c; the key caches its at most 3^m of them, and a warm encryption
is 16 multiplications. A fresh key pays on first use for its projectors
(64 multiplications) and, per new pattern, for P_c: one pass of 16
multiply-adds per factor and one reduction. Given an rng, enc4 draws its
coins raw and builds no coin object. Dim 8 keeps the column-scaled
product (see _encrypt).
"""

from dataclasses import dataclass

from .matrix import Matrix, _check_pair, mat_mul
from .ring import ParameterError


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

    @property
    def blinds(self):
        return (self.r,)

    def slot_rows(self, x):
        r = self.r
        base = ((x, r, r), (r, x, r), (r, r, x))
        return [base[c - 1] for c in self.row_choices]


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

    @property
    def blinds(self):
        return (self.r1, self.r2)

    def slot_rows(self, x):
        values = {"x": x, "r1": self.r1, "r2": self.r2}
        return [[values[slot] for slot in row] for row in self.rows]


def _draw_blind(taken, n, rng):
    """Uniform over Z_n minus taken, redrawing on every hit."""
    b = rng.randrange(n)
    while b in taken:
        b = rng.randrange(n)
    return b


def _draw_enc4(x, n, m, rng):
    """Raw enc4 coins (r, row_choices), with no coin object built."""
    return (_draw_blind((x,), n, rng),
            tuple(rng.randrange(1, 4) for _ in range(m)))


def _draw_enc8(x, n, m, rng):
    """Raw enc8 coins (r1, r2, rows), with no coin object built."""
    r1 = _draw_blind((x,), n, rng)
    r2 = _draw_blind((x, r1), n, rng)
    rows = []
    for _ in range(m):
        slots = ["r2"] * 7
        x_pos = rng.randrange(7)
        slots[x_pos] = "x"
        rest = [i for i in range(7) if i != x_pos]
        for i in rng.sample(rest, 3):
            slots[i] = "r1"
        rows.append(tuple(slots))
    return r1, r2, tuple(rows)


def sample_enc4_randomness(x, modulus, rng):
    """Uniform enc4 coins: r from Z_n minus {x}, row choices uniform."""
    return Enc4Randomness(*_draw_enc4(x, modulus.n, modulus.m, rng))


def sample_enc8_randomness(x, modulus, rng):
    """Uniform enc8 coins: distinct blinds, arrangements uniform over 140."""
    return Enc8Randomness(*_draw_enc8(x, modulus.n, modulus.m, rng))


def _check_row_count(rows, modulus):
    if len(rows) != modulus.m:
        raise ValueError("need one slot row per factor")


def encryption_diagonal(x, modulus, rnd):
    """The diagonal (x, x1, ...) before conjugation, for enc4 or enc8 coins.

    rnd.slot_rows(x) gives one row of slot values per factor; slot j is
    sum(rows[i][j] * e_i) mod n over the CRT basis, so it agrees with row
    i's entry j mod each f_i.
    """
    rows = rnd.slot_rows(x)
    _check_row_count(rows, modulus)
    e = modulus.crt_basis
    return (x,) + tuple(sum(v * b for v, b in zip(c, e)) % modulus.n
                        for c in zip(*rows))


def _slot_sum(key, choices):
    """P_c = Q_0 + sum(e_i * Q_{c_i}) mod n for row choices c, cached on the
    key: the dim 4 encryption of 1 with blind 0. Each factor adds e_i times
    one projector to the running rows, and the sum is reduced once."""
    modulus = key.modulus
    _check_row_count(choices, modulus)
    q = key.slot_projectors
    total = q[0]
    for c, e in zip(choices, modulus.crt_basis):
        total = [t + e * v for t, v in zip(total, q[c])]
    n = modulus.n
    total = tuple(t % n for t in total)
    key.slot_sums[choices] = total
    return total


def _encrypt(x, key, rnd, dim):
    """k_inv * diag(D) * k for x's encryption diagonal D. rnd is fixed coins
    or an rng to draw them from: dim 4 takes an rng's (r, row choices) raw
    from _draw_enc4, with no coin object built; dim 8 samples an
    Enc8Randomness. Either way the blinds pass one check.

    At dim 4, D = r * (1, ..., 1) + (x - r) * D(1, 0), since the CRT basis
    sums to 1, and k_inv * diag(D) * k = sum(D_j * Q_j) over the key's slot
    projectors. So C = r * S + (x - r) * P_c, where S = sum(Q_j) = k_inv * k
    (the identity for a true key pair, so r * S costs no full-width
    multiplication) and P_c is the slot sum of the row choices c, cached on
    the key: 16 multiplications once c is cached. At dim 8 each ciphertext
    would need its own sum over two blinds and 140^m arrangements, which
    on a fresh key costs more than the product, so k_inv's columns are
    scaled by D and multiplied by k.
    """
    modulus = key.modulus
    n = modulus.n
    if key.dim != dim:
        raise ParameterError(f"enc{dim} needs a dim {dim} key")
    if not 0 <= x < n:
        raise ParameterError(f"plaintext must lie in [0, {n})")
    if dim == 4:
        r, choices = ((rnd.r, tuple(rnd.row_choices))
                      if isinstance(rnd, Enc4Randomness)
                      else _draw_enc4(x, n, modulus.m, rnd))
        blinds = (r,)
    else:
        if not isinstance(rnd, Enc8Randomness):
            rnd = sample_enc8_randomness(x, modulus, rnd)
        blinds = rnd.blinds
    taken = [x]
    for b in blinds:
        if not 0 <= b < n or b in taken:
            raise ValueError("need distinct blinds in [0, n), none equal to x")
        taken.append(b)
    if dim == 4:
        total = key.slot_sums.get(choices) or _slot_sum(key, choices)
        t = x - r
        body = [t * p % n for p in total]
        for i, s in key.projector_sum:
            body[i] = (body[i] + r * s) % n
        return Ciphertext(Matrix(4, n, tuple(body)))
    diag = encryption_diagonal(x, modulus, rnd)
    k_inv = key.k_inv
    scaled = tuple(v * s % n for r in k_inv.rows() for v, s in zip(r, diag))
    return Ciphertext(mat_mul(Matrix(dim, n, scaled), key.k))


def enc4(x, key, rnd):
    """Encrypt x under a dim 4 key; rnd is an Enc4Randomness or an rng."""
    return _encrypt(x, key, rnd, 4)


def enc8(x, key, rnd):
    """Encrypt x under a dim 8 key; rnd is an Enc8Randomness or an rng."""
    return _encrypt(x, key, rnd, 8)


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
