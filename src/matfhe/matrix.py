"""Square matrices over Z_N with exact arithmetic.

Entries outgrow machine words once N passes 64 bits, so everything stays in
plain Python integers. Matrices are immutable; arithmetic returns new
instances. Invertibility over Z_N for composite N is the gcd test of
the determinant, not mere nonzero-ness.
"""

import math
from operator import mul

from .ring import GenerationError, NotInvertibleError, ParameterError

ALLOWED_DIMS = (2, 3, 4, 8)


class MismatchError(ValueError):
    """Operands disagree on dimension or modulus."""


def _check_shape(dim, modulus):
    if dim not in ALLOWED_DIMS:
        raise ParameterError(f"dimension must be one of {ALLOWED_DIMS}")
    if modulus <= 1:
        raise ParameterError("modulus must be > 1")


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
        _check_shape(dim, modulus)
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
    _check_pair(a, b)
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


def _eliminate(m, n):
    """Gauss-Jordan elimination over Z_N, in place; returns det mod n.

    m is a list of d rows, reduced mod n, of width d or 2d ([a | I]).
    Column k pivots on the first unit p at or below row k: that row, scaled
    by p^-1, clears column k from every other row. Where there is no unit,
    Bezout steps [[s, t], [-y/g, x/g]] (s*x + t*y = g = gcd(x, y)) fold the
    rows below into row k, leaving the column's gcd as the pivot; if that
    is no unit either, neither is det, and the column is left as it is.
    Each step scales by a unit or is an integer row operation of det +-1,
    so it commutes with reduction mod n. det is +- the product of the
    pivots. Only the columns right of each pivot, the ones later pivots
    read, are updated: when det is a unit, [a | I] ends as [* | a^-1].
    """
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
                row[k + 1:] = [(x - c * y) % n for x, y in zip(row[k + 1:], tail)]
    return det


def determinant(a):
    """det(a) reduced mod the matrix modulus."""
    return _eliminate([list(r) for r in a.rows()], a.modulus)


def is_invertible(a):
    """Invertibility over Z_N: the determinant is a unit mod N.

    gcd(0, n) == n, so a zero determinant fails the same test.
    """
    return math.gcd(determinant(a), a.modulus) == 1


def inverse(a):
    """Inverse by one Gauss-Jordan pass over Z_N on [a | I]; raises
    NotInvertibleError carrying det mod N when that is no unit."""
    n = a.modulus
    d = a.dim
    m = [list(row) + [int(i == j) for j in range(d)]
         for i, row in enumerate(a.rows())]
    det = _eliminate(m, n)
    g = math.gcd(det, n)
    if g != 1:
        raise NotInvertibleError(det, n, g)
    return Matrix(d, n, tuple(x for row in m for x in row[d:]))


def random_invertible(dim, modulus, rng):
    """Random invertible k mod modulus with k^-1, from one elimination pass.

    Entries are drawn row-major with rng.randrange(modulus), its only rng
    call, and reduced mod modulus, so any object with that method can fix
    the draw. Each drawn row, next to the identity row that records it, is
    reduced against the rows kept so far, its free columns (no kept row's
    pivot) first: a row with no unit there to pivot on is redrawn whole (the
    screen can reject rows a fuller search would keep). Kept rows hold the
    live columns, free then recording, and a draw reads them by column with
    zip. A kept row clears its pivot column from the earlier ones
    (Gauss-Jordan), so they end as [P | G] with G*k = P, a permutation. No
    row is divided by its pivot: each kept row is the normalized one times
    s, the product of the pivots so far, and a drawn row v is reduced as
    s*v - sum(v[p_t] * kept_t). A unit factor keeps zeros at zero and units
    as units, so pivots, redraws and rng calls are those of the normalized
    pass. The last row's step divides by the final s, the one modular
    inverse. Every pivot is a unit, so det k is one too. The 1001st
    rejected row raises GenerationError.
    """
    _check_shape(dim, modulus)
    n = modulus
    draw, gcd, ns = rng.randrange, math.gcd, [n] * dim
    rows, pivots, kept = [], [], []
    free = list(range(dim))
    s, rerolls = 1, 0
    while free:
        row = list(map(draw, ns))
        cs, cols = [row[p] for p in pivots], zip(*kept)  # free, then recording
        head = [(s * row[j] - sum(map(mul, cs, col))) % n
                for j, col in zip(free, cols)] if kept else [x % n for x in row]
        for f, x in enumerate(head):
            if gcd(x, n) == 1:
                break
        else:
            rerolls += 1
            if rerolls > 1000:
                raise GenerationError("row generation exhausted 1000 rerolls")
            continue
        w = head + [-sum(map(mul, cs, col)) % n for col in cols]
        w.append(s)  # the entry in its own recording column
        sp = w.pop(f)
        if len(free) == 1:  # the last row: divide by the final scale here
            u = pow(s * sp, -1, n)
            sp, w = sp * u % n, [y * u % n for y in w]
        for r in kept:
            c = r.pop(f)
            r.append(0)  # its entry in the new recording column
            r[:] = [(sp * x - c * y) % n for x, y in zip(r, w)]
        kept.append([s * y % n for y in w])
        pivots.append(free.pop(f))
        s = s * sp % n
        rows.append(row)
    return (Matrix(dim, n, tuple([v % n for row in rows for v in row])),
            Matrix(dim, n, tuple([x for _, r in sorted(zip(pivots, kept))
                                  for x in r])))
