"""Shared fixtures over the known-answer constants."""

import os

import pytest

import matfhe
from matfhe.cipher import Ciphertext
from matfhe.keys import KeyTuple

from known_answers import CT_A, CT_B5, CT_B12, KA, KA_INV, KB, KB_INV, MOD

FIXTURE_DIR = os.path.join(os.path.dirname(__file__), "fixtures")


def child_env():
    """The environment for a `python -m matfhe` child process.

    A copy of os.environ with the absolute directory holding the matfhe
    package under test put first on PYTHONPATH, existing entries kept
    after it. The child then imports the same code as this process from
    any working directory, whether PYTHONPATH was relative or absolute,
    and ahead of any other matfhe installed in site-packages.
    """
    src = os.path.dirname(os.path.dirname(os.path.abspath(matfhe.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


# The coins (r, row_choices) that produce CT_A from plaintext 257 under
# key A.
RND_A = (291, (2, 3))


class EntryRng:
    """An rng whose randrange returns the given values in turn, whatever its
    arguments: key generation given factor candidates draws each matrix
    entry with one randrange call, so these fix the key's entries."""

    def __init__(self, values):
        self._values = iter(values)

    def randrange(self, *_args):
        return next(self._values)


@pytest.fixture
def key_a():
    return KeyTuple(MOD, KA, KA_INV)


@pytest.fixture
def key_b():
    return KeyTuple(MOD, KB, KB_INV)


@pytest.fixture
def ct_a():
    return Ciphertext(CT_A)


@pytest.fixture
def ct_b5():
    return Ciphertext(CT_B5)


@pytest.fixture
def ct_b12():
    return Ciphertext(CT_B12)
