"""Square matrices over Z_N with exact arithmetic.

Entries outgrow machine words once N passes 64 bits, so everything stays in
plain Python integers. Matrices are immutable; arithmetic returns new
instances. Invertibility over Z_N for composite N is the gcd test of
the determinant, not mere nonzero-ness.
"""

import math

from .ring import GenerationError, NotInvertibleError, mod_inverse

ALLOWED_DIMS = (2, 3, 4, 8)


class MismatchError(ValueError):
    """Operands disagree on dimension or modulus."""


class Matrix:
    """Immutable dim x dim matrix with entries reduced mod modulus.

    entries is a flat row-major tuple. The constructor trusts its arguments
    (hot paths build millions of these); use from_rows for validated
    construction from outside input.
    """

    __slots__ = ("dim", "modulus", "entries")

    def __init__(self, dim, modulus, entries):
        self.dim = dim
        self.modulus = modulus
        self.entries = entries

    @classmethod
    def from_rows(cls, rows, modulus):
        dim = len(rows)
        if dim not in ALLOWED_DIMS:
            raise ValueError(f"dimension must be one of {ALLOWED_DIMS}")
        if modulus <= 1:
            raise ValueError("modulus must be > 1")
        if any(len(row) != dim for row in rows):
            raise ValueError("matrix must be square")
        flat = tuple(int(v) % modulus for row in rows for v in row)
        return cls(dim, modulus, flat)

    def rows(self):
        d = self.dim
        e = self.entries
        return tuple(e[i * d:(i + 1) * d] for i in range(d))

    def __getitem__(self, index):
        i, j = index
        return self.entries[i * self.dim + j]

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.dim == other.dim and self.modulus == other.modulus
                and self.entries == other.entries)

    def __hash__(self):
        return hash((self.dim, self.modulus, self.entries))

    def __add__(self, other):
        return mat_add(self, other)

    def __sub__(self, other):
        return mat_sub(self, other)

    def __mul__(self, other):
        return mat_mul(self, other)

    def __repr__(self):
        return f"Matrix({self.dim}, {self.modulus}, {list(self.rows())})"


def identity(dim, modulus):
    return Matrix(dim, modulus,
                  tuple(1 if i == j else 0
                        for i in range(dim) for j in range(dim)))


def diagonal(values, modulus):
    """Diagonal matrix from a value sequence."""
    d = len(values)
    return Matrix(d, modulus,
                  tuple(values[i] % modulus if i == j else 0
                        for i in range(d) for j in range(d)))


def _check_pair(a, b):
    if a.dim != b.dim or a.modulus != b.modulus:
        raise MismatchError(
            f"operands disagree: dim {a.dim}/{b.dim}, "
            f"modulus {a.modulus}/{b.modulus}")


def mat_add(a, b):
    """Entrywise sum mod N.

    The dim 4 path is unrolled and assembles the result object directly:
    addition is the cheap half of the evaluator workload (16 word additions
    per ciphertext sum) and per-call overhead would eat most of that
    advantage. Inputs are already reduced, so one conditional subtraction
    replaces the division.
    """
    if a.dim != b.dim or a.modulus != b.modulus:
        raise MismatchError(
            f"operands disagree: dim {a.dim}/{b.dim}, "
            f"modulus {a.modulus}/{b.modulus}")
    n = a.modulus
    if a.dim == 4:
        a0, a1, a2, a3, a4, a5, a6, a7, \
            a8, a9, a10, a11, a12, a13, a14, a15 = a.entries
        b0, b1, b2, b3, b4, b5, b6, b7, \
            b8, b9, b10, b11, b12, b13, b14, b15 = b.entries
        s0 = a0 + b0
        s1 = a1 + b1
        s2 = a2 + b2
        s3 = a3 + b3
        s4 = a4 + b4
        s5 = a5 + b5
        s6 = a6 + b6
        s7 = a7 + b7
        s8 = a8 + b8
        s9 = a9 + b9
        s10 = a10 + b10
        s11 = a11 + b11
        s12 = a12 + b12
        s13 = a13 + b13
        s14 = a14 + b14
        s15 = a15 + b15
        out = Matrix.__new__(Matrix)
        out.dim = 4
        out.modulus = n
        out.entries = (
            s0 if s0 < n else s0 - n,
            s1 if s1 < n else s1 - n,
            s2 if s2 < n else s2 - n,
            s3 if s3 < n else s3 - n,
            s4 if s4 < n else s4 - n,
            s5 if s5 < n else s5 - n,
            s6 if s6 < n else s6 - n,
            s7 if s7 < n else s7 - n,
            s8 if s8 < n else s8 - n,
            s9 if s9 < n else s9 - n,
            s10 if s10 < n else s10 - n,
            s11 if s11 < n else s11 - n,
            s12 if s12 < n else s12 - n,
            s13 if s13 < n else s13 - n,
            s14 if s14 < n else s14 - n,
            s15 if s15 < n else s15 - n,
        )
        return out
    return Matrix(a.dim, n,
                  tuple((x + y) % n for x, y in zip(a.entries, b.entries)))


def mat_sub(a, b):
    _check_pair(a, b)
    n = a.modulus
    return Matrix(a.dim, n,
                  tuple((x - y) % n for x, y in zip(a.entries, b.entries)))


def mat_mul(a, b):
    """Schoolbook product mod N: dim^3 multiplications."""
    _check_pair(a, b)
    n = a.modulus
    rows = a.rows()
    cols = tuple(zip(*b.rows()))
    return Matrix(a.dim, n, tuple(
        sum(x * y for x, y in zip(row, col)) % n
        for row in rows for col in cols))


def _bareiss(m):
    """Fraction-free Gauss-Jordan elimination over Z (Bareiss 1968), in place.

    m is a list of d integer rows, each of width d (a matrix alone) or 2d
    (a matrix augmented with the identity). Pivot k clears column k from
    every other row, above and below, and updates only the columns right
    of k, the ones later pivots read. Every division is exact: each
    numerator x*p - c*y is the previous pivot times a (k+1)x(k+1) minor of
    the input (Sylvester's identity). Elimination needs no inverses, so it
    runs over the integers rather than mod N, where composite N cannot
    always provide a unit pivot.

    Returns the determinant of the leading d x d block, 0 when that block
    is singular over Z (m is then left part-way). Otherwise the leading
    block ends diagonal, and any trailing block as p times its product
    with the inverse of the leading block, where p = m[d-1][d-1] is the
    last pivot: p = +det or -det, by the parity of the row swaps.
    """
    d = len(m)
    sign = 1
    prev = 1
    for k in range(d):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, d) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        pivot_row = m[k]
        p = pivot_row[k]
        tail = pivot_row[k + 1:]
        for i in range(d):
            if i != k:
                row = m[i]
                c = row[k]
                row[k + 1:] = [(x * p - c * y) // prev
                               for x, y in zip(row[k + 1:], tail)]
                row[k] = 0
        prev = p
    return sign * prev


def determinant(a):
    """det(a) reduced mod the matrix modulus."""
    return _bareiss([list(r) for r in a.rows()]) % a.modulus


def is_invertible(a):
    """Invertibility over Z_N: the determinant is a unit mod N.

    gcd(0, n) == n, so a zero determinant fails the same test.
    """
    return math.gcd(determinant(a), a.modulus) == 1


def inverse(a):
    """Inverse by one fraction-free Gauss-Jordan pass on [a | I].

    The pass leaves p*a^-1 on the right, with p = +det or -det its last
    pivot, so the right block times p^-1 mod N is the inverse.
    Raises NotInvertibleError (from mod_inverse) when the determinant shares
    a factor with the modulus; the error carries det mod N, not p.
    """
    n = a.modulus
    d = a.dim
    m = [list(row) + [int(i == j) for j in range(d)]
         for i, row in enumerate(a.rows())]
    det = _bareiss(m)
    det_inv = mod_inverse(det, n)
    p_inv = det_inv if m[d - 1][d - 1] == det else -det_inv
    return Matrix(d, n, tuple(x * p_inv % n for row in m for x in row[d:]))


_SCREEN_FAILED = "screened matrix failed the determinant test"


def random_invertible(dim, modulus, rng, max_rerolls=1000):
    """Random invertible matrix mod modulus.

    Entries are drawn row-major with rng.randrange(modulus). Each candidate
    row is screened by elimination against the rows accepted so far: a row
    that reduces to zero, or whose reduction has no unit entry to pivot on,
    is redrawn whole. The screen is heuristic (it can reject rows a fuller
    search would keep), so the determinant test still runs on the final
    matrix as ground truth.
    """
    mat = _screened_matrix(dim, modulus, rng, max_rerolls)
    if not is_invertible(mat):
        raise GenerationError(_SCREEN_FAILED)
    return mat


def random_invertible_pair(dim, modulus, rng):
    """random_invertible with its inverse; inverse is the determinant test."""
    mat = _screened_matrix(dim, modulus, rng)
    try:
        return mat, inverse(mat)
    except NotInvertibleError:
        raise GenerationError(_SCREEN_FAILED) from None


def _screened_matrix(dim, modulus, rng, max_rerolls=1000):
    """The row-screened draw of random_invertible, before its final test."""
    if dim not in ALLOWED_DIMS:
        raise ValueError(f"dimension must be one of {ALLOWED_DIMS}")
    if modulus <= 1:
        raise ValueError("modulus must be > 1")
    n = modulus
    rows = []
    echelon = []
    rerolls = 0
    while len(rows) < dim:
        row = [rng.randrange(n) for _ in range(dim)]
        reduced = row[:]
        for pivot_col, erow in echelon:
            c = reduced[pivot_col]
            if c:
                reduced = [(x - c * e) % n for x, e in zip(reduced, erow)]
        pivot = next((j for j, x in enumerate(reduced)
                      if x and math.gcd(x, n) == 1), None)
        if pivot is None:
            rerolls += 1
            if rerolls > max_rerolls:
                raise GenerationError(
                    f"row generation exhausted {max_rerolls} rerolls")
            continue
        inv = mod_inverse(reduced[pivot], n)
        echelon.append((pivot, [(x * inv) % n for x in reduced]))
        rows.append(row)
    return Matrix(dim, n, tuple(v % n for row in rows for v in row))
