"""Modular arithmetic over Z_N for composite N built from known odd factors.

The modulus N is a product of m pairwise coprime values f_i = p_i * q_i.
Everything downstream (key generation, encryption, the structural lemmas)
leans on two facts collected here: inverses exist exactly when gcd is 1,
and the Chinese remainder fold reassembles a value from its residues.
"""

import itertools
import math
from collections import namedtuple
from functools import cached_property


class _Record:
    """Mixin for the package's named-tuple records: equal only to a record
    of its own type, hashed as its field tuple, closed to assignment. A
    record with checks makes them on its arguments in __new__ and builds the
    tuple only after they pass, and _make (so _replace) builds through the
    class, so no record skips them."""

    __slots__ = ()

    def __eq__(self, other):
        if type(other) is type(self):
            return tuple.__eq__(self, other)
        # Never a plain tuple or another record type with equal fields.
        return False if isinstance(other, tuple) else NotImplemented

    __ne__ = object.__ne__
    __hash__ = tuple.__hash__
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")


class NotInvertibleError(ValueError):
    """An element has no inverse mod n. Carries the offending gcd."""

    def __init__(self, value, modulus, gcd):
        super().__init__(f"{value} is not invertible mod {modulus} (gcd {gcd})")
        self.value = value
        self.modulus = modulus
        self.gcd = gcd


class ParameterError(ValueError):
    """A caller's parameter lies outside its documented range."""


class PlaintextRangeError(ParameterError):
    """A plaintext is no int in [0, N), the message space of its key."""


class NonCoprimeModuliError(ValueError):
    """CRT moduli share a factor, so no unique solution exists."""


class GenerationError(RuntimeError):
    """Randomized generation exhausted its retry budget."""


def _check_plaintexts(xs, n):
    """Refuse unless every x is an int in [0, n), its key's message space."""
    for x in xs:  # a plain loop: all() over a generator costs 5x per call
        if not (isinstance(x, int) and 0 <= x < n):
            raise PlaintextRangeError(f"plaintext must lie in [0, {n})")


def mod_inverse(a, n):
    """Inverse of a mod n, or NotInvertibleError carrying gcd(a, n)."""
    if n <= 1:
        raise ParameterError("modulus must be > 1")
    a %= n
    g = math.gcd(a, n)
    if g != 1:
        raise NotInvertibleError(a, n, g)
    return pow(a, -1, n)


def crt_solve(residues):
    """Solve x = r_i (mod n_i) for pairwise coprime moduli n_i.

    residues is an iterable of (r_i, n_i) pairs. Returns the unique solution
    in [0, prod n_i). The congruences are folded left to right, so a shared
    factor between the accumulated modulus and the next n_i raises
    NonCoprimeModuliError.
    """
    residues = list(residues)
    if not residues:
        raise ValueError("need at least one congruence")
    x = 0
    modulus = 1
    for r, n in residues:
        if n <= 1:
            raise ParameterError("moduli must be > 1")
        if not 0 <= r < n:
            raise ValueError(f"residue {r} out of range for modulus {n}")
        g = math.gcd(modulus, n)
        if g != 1:
            raise NonCoprimeModuliError(f"moduli share a factor ({g})")
        t = ((r - x) * mod_inverse(modulus % n, n)) % n
        x += modulus * t
        modulus *= n
    return x


class RingModulus(_Record, namedtuple("RingModulus", "m bits p q f n")):
    """Modulus n with its secret factors f_1..f_m.

    f_i = p_i * q_i for 2m odd values, pairwise coprime across the union.
    Encryption and decryption need only the f_i, and key files store only
    those, so p and q may be None on a modulus parsed back from disk; the
    split is required only by key generation and the structural witness
    constructions. bits records the security parameter the factors were
    drawn for (each p_i, q_i is a bits/2-bit number in production;
    injected test values may be smaller).
    """

    def __new__(cls, m, bits, p, q, f, n):
        if m < 1:
            raise ValueError("m must be >= 1")
        if (p is None) != (q is None):
            raise ValueError("p and q must be given together")
        if len(f) != m:
            raise ValueError("need m factors")
        if p is not None:
            if len(p) != m or len(q) != m:
                raise ValueError("need m factors on each side")
            if f != tuple(a * b for a, b in zip(p, q)):
                raise ValueError("f_i must equal p_i * q_i")
        parts = f if p is None else p + q
        if any(v < 3 or v % 2 == 0 for v in parts):
            raise ValueError("factors must be odd and >= 3")
        for i in range(len(parts)):
            for j in range(i + 1, len(parts)):
                if math.gcd(parts[i], parts[j]) != 1:
                    raise ValueError("factors must be pairwise coprime")
        if n != math.prod(f):
            raise ValueError("n must be the product of the f_i")
        return tuple.__new__(cls, (m, bits, p, q, f, n))

    @property
    def has_split(self):
        return self.p is not None

    @cached_property
    def crt_basis(self):
        """CRT idempotents e_i, 1 mod f_i and 0 mod every other f_j: the
        value with residues r_i mod f_i is sum(r_i * e_i) mod n. They sum
        to 1 mod n, so the last is 1 minus the others, with no inverse."""
        n = self.n
        basis = [(n // f) * pow(n // f, -1, f) % n for f in self.f[:-1]]
        return tuple(basis) + ((1 - sum(basis)) % n,)


def generate_coprime_set(m, bits, rng, candidates=None):
    """Draw 2m pairwise coprime odd numbers and assemble a RingModulus.

    The draws come from one source, read lazily: by default rng's odd
    numbers of exactly bits/2 bits (compositeness is fine, only coprimality
    matters). candidates, when given, replaces that source and relaxes the
    bit-length rule so small worked examples stay expressible; its even
    values and values below 3 are skipped. The first m accepted values
    become p, the next m become q. Raises GenerationError when 64*m draws,
    or fewer candidates, give no modulus.
    """
    if m < 1:
        raise ParameterError("m must be >= 1")
    if bits < 8 or bits % 2:
        raise ParameterError("security parameter must be an even number >= 8")
    if candidates is None:
        lo, hi = 1 << (bits // 2 - 1), 1 << (bits // 2)
        candidates = (rng.randrange(lo, hi) | 1 for _ in itertools.count())
    accepted = []
    budget = 64 * m
    for c in itertools.islice(candidates, budget):
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
