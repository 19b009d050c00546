"""Symmetric homomorphic encryption from conjugated CRT diagonal matrices.

A plaintext x in Z_N becomes a diagonal matrix whose remaining slots blend
x with blind values factor by factor (CRT), conjugated by a secret
invertible matrix k. Matrix addition and multiplication of ciphertexts
track plaintext addition and multiplication mod N, with no evaluation key
and no ciphertext growth. Lock and unlock re-key ciphertexts by adding or
removing conjugation layers, which is what the four-party delegation
protocol in matfhe.protocol builds on.
"""

from .cipher import (Ciphertext, dec, dec_diagonal, enc4, enc8,
                     encrypt_value, encryption_diagonal, lock,
                     sample_enc4_randomness, sample_enc8_randomness, unlock)
from .evaluate import (BinOp, CipherEnv, Const, DivisorNotInvertibleError,
                       ExprSyntaxError, Ref, UnboundInputError, eval_expr,
                       format_expr, he_add, he_div, he_mul, he_sub,
                       parse_expr)
from .keys import KeySet, KeyTuple, compose, keygen4, keygen8, keyset_gen
from .matrix import (Matrix, MismatchError, determinant, diagonal, identity,
                     inverse, is_invertible, mat_add, mat_mul, mat_sub,
                     random_invertible)
from .ring import (GenerationError, NonCoprimeModuliError,
                   NotInvertibleError, ParameterError, RingModulus,
                   crt_solve, generate_coprime_set, mod_inverse)

__version__ = "0.1.0"
