"""Key material: conjugation key pairs, their products (formed by compose
alone), and the multiplicative key sets that derive them once."""

from collections import namedtuple
from functools import cached_property, reduce

from .matrix import identity, mat_mul, random_invertible
from .ring import ParameterError, _Record, generate_coprime_set

KEY_DIMS = (4, 8)


class KeyTuple(_Record, namedtuple("KeyTuple", "modulus k k_inv")):
    """Secret key: the modulus with its factors, plus k and its inverse."""

    def __new__(cls, modulus, k, k_inv):
        if k.dim not in KEY_DIMS:
            raise ValueError(f"key dimension must be one of {KEY_DIMS}")
        if k.dim != k_inv.dim:
            raise ValueError("key pair must share one dimension")
        if k.modulus != modulus.n or k_inv.modulus != modulus.n:
            raise ValueError("key matrices must be taken mod n")
        return tuple.__new__(cls, (modulus, k, k_inv))

    @property
    def dim(self):
        return self.k.dim

    def verify(self):
        """True when k * k_inv is the identity mod n."""
        return mat_mul(self.k, self.k_inv) == identity(self.k.dim, self.k.modulus)


class KeySet(_Record, namedtuple("KeySet", "modulus components")):
    """Component keys for a re-keying chain, with the keys derived from them.

    Each derived key is composed on first use and kept: master is the
    ordered product components[0].k * components[1].k * ... of all of
    them, prefix the product of all but the last, so master is prefix
    composed with the last component.
    """

    def __new__(cls, modulus, components):
        if len(components) < 2:
            raise ValueError("need at least two component keys")
        if any(kt.modulus != modulus for kt in components):
            raise ValueError("all keys must share one modulus")
        if any(kt.dim != components[0].dim for kt in components):
            raise ValueError("all keys must share one dimension")
        return tuple.__new__(cls, (modulus, components))

    @cached_property
    def prefix(self):
        return reduce(compose, self.components[:-1])

    @cached_property
    def master(self):
        return compose(self.prefix, self.components[-1])


def compose(a, b):
    """The pair for conjugating by a, then by b: locking an encryption under
    a with b gives an encryption under it."""
    return KeyTuple(a.modulus, mat_mul(a.k, b.k), mat_mul(b.k_inv, a.k_inv))


def _keygen(dim, m, bits, rng, candidates):
    modulus = generate_coprime_set(m, bits, rng, candidates=candidates)
    return KeyTuple(modulus, *random_invertible(dim, modulus.n, rng))


def keygen4(m, bits, rng, candidates=None):
    """Generate a fresh dim 4 key from rng: a modulus from 2m coprime
    factors and an invertible conjugation matrix with its inverse.

    candidates, when given, replaces the factor search and its rng calls,
    so rng.randrange(N) then draws the matrix entries alone.
    """
    return _keygen(4, m, bits, rng, candidates)


def keygen8(m, bits, rng, candidates=None):
    """Dim 8 variant of keygen4."""
    return _keygen(8, m, bits, rng, candidates)


def keyset_gen(dim, count, m, bits, rng):
    """Generate a key set of count component keys; its master key is
    composed from them on first use."""
    if count < 2:
        raise ParameterError("need at least two component keys")
    modulus = generate_coprime_set(m, bits, rng)
    components = [KeyTuple(modulus, *random_invertible(dim, modulus.n, rng))
                  for _ in range(count)]
    return KeySet(modulus, tuple(components))
