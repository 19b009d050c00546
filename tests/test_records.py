"""The record types' contract, and what importing the package loads.

Every record is an immutable value: built by position or by keyword,
closed to assignment, equal only to a record of its own type with equal
fields, hashed as its field tuple, and checked on construction. The
contract tests read fields by name only, so they hold for any
implementation of the records.
"""

import re
import subprocess
import sys

import pytest

from matfhe.cipher import Ciphertext
from matfhe.evaluate import BinOp, CipherEnv, Const, Ref
from matfhe.keys import KeySet, KeyTuple, compose
from matfhe.matrix import Matrix, identity
from matfhe.protocol import (DataRequest, EvalResult, FormulaAnnouncement,
                             MappedResult, MaskedOperand, Message, Role,
                             Transcript)
from matfhe.ring import RingModulus

from conftest import child_env
from known_answers import CT_A, KA, KA_INV, KB, KB_INV, MOD

KEY_A = KeyTuple(MOD, KA, KA_INV)
KEY_B = KeyTuple(MOD, KB, KB_INV)
ANNOUNCE = FormulaAnnouncement(Ref("x1"))

def _modulus(**changes):
    """MOD's fields, some replaced."""
    return {"m": 2, "bits": 8, "p": (3, 5), "q": (7, 11), "f": (21, 55),
            "n": 1155, **changes}


# Each record type with one value per field, the fields in declaration order.
RECORDS = [
    (Ciphertext, {"body": CT_A}),
    (Const, {"value": 7}),
    (Ref, {"name": "x1"}),
    (BinOp, {"op": "+", "left": Const(7), "right": Ref("x1")}),
    (KeyTuple, {"modulus": MOD, "k": KA, "k_inv": KA_INV}),
    (KeySet, {"modulus": MOD, "components": (KEY_A, KEY_B)}),
    (RingModulus, _modulus()),
    (DataRequest, {"indices": (1, 3)}),
    (FormulaAnnouncement, {"formula": Ref("x1")}),
    (MaskedOperand, {"index": 1, "ciphertext": Ciphertext(CT_A)}),
    (EvalResult, {"ciphertext": Ciphertext(CT_A)}),
    (MappedResult, {"ciphertext": Ciphertext(CT_A)}),
    (Message, {"sender": Role.DATA_USER, "recipient": Role.DELEGATOR,
               "payload": ANNOUNCE}),
    (Transcript, {"messages": (Message(Role.DATA_USER, Role.DELEGATOR,
                                       ANNOUNCE),), "result": 5}),
]
IDS = [cls.__name__ for cls, _ in RECORDS]

# Records of one field with no check, so each can hold any one value.
ONE_FIELD = (Ciphertext, Const, Ref, DataRequest, FormulaAnnouncement,
             EvalResult, MappedResult)


OTHER_MOD = RingModulus(m=1, bits=8, p=(3,), q=(5,), f=(15,), n=15)
KEY_8 = KeyTuple(MOD, identity(8, 1155), identity(8, 1155))

# Every construction check: the fields that trip it and its exact message.
CHECKS = [
    (RingModulus, _modulus(m=0, f=()), "m must be >= 1"),
    (RingModulus, _modulus(q=None), "p and q must be given together"),
    (RingModulus, _modulus(f=(21,)), "need m factors"),
    (RingModulus, _modulus(p=(3,)), "need m factors on each side"),
    (RingModulus, _modulus(f=(21, 57)), "f_i must equal p_i * q_i"),
    (RingModulus, _modulus(p=None, q=None, f=(21, 4), n=84),
     "factors must be odd and >= 3"),
    (RingModulus, _modulus(q=(7, 3), f=(21, 15), n=315),
     "factors must be pairwise coprime"),
    (RingModulus, _modulus(n=1157), "n must be the product of the f_i"),
    (KeyTuple, {"modulus": MOD, "k": identity(2, 1155),
                "k_inv": identity(2, 1155)},
     "key dimension must be one of (4, 8)"),
    (KeyTuple, {"modulus": MOD, "k": KA, "k_inv": identity(8, 1155)},
     "key pair must share one dimension"),
    (KeyTuple, {"modulus": MOD, "k": KA, "k_inv": Matrix(4, 1157, KA_INV.entries)},
     "key matrices must be taken mod n"),
    (KeySet, {"modulus": MOD, "components": (KEY_A,)},
     "need at least two component keys"),
    (KeySet, {"modulus": OTHER_MOD, "components": (KEY_A, KEY_B)},
     "all keys must share one modulus"),
    (KeySet, {"modulus": MOD, "components": (KEY_A, KEY_8)},
     "all keys must share one dimension"),
]


@pytest.mark.parametrize("cls, fields", RECORDS, ids=IDS)
class TestRecordContract:
    def test_keyword_and_positional_construction_agree(self, cls, fields):
        by_name = cls(**fields)
        by_position = cls(*fields.values())
        assert by_name == by_position
        for name, value in fields.items():
            assert getattr(by_name, name) is value
            assert getattr(by_position, name) is value

    def test_fields_and_new_attributes_refuse_assignment(self, cls, fields):
        record = cls(**fields)
        for name, value in fields.items():
            with pytest.raises(AttributeError):
                setattr(record, name, value)
            assert getattr(record, name) is value
        with pytest.raises(AttributeError):
            record.extra = 1

    def test_equal_records_hash_as_their_field_tuple(self, cls, fields):
        a, b = cls(**fields), cls(*fields.values())
        assert a == b and not a != b
        assert hash(a) == hash(b) == hash(tuple(fields.values()))

    def test_never_equal_to_a_plain_tuple(self, cls, fields):
        record = cls(**fields)
        plain = tuple(fields.values())
        assert record != plain and not record == plain
        assert plain != record and not plain == record

    def test_repr_names_every_field(self, cls, fields):
        shown = ", ".join(f"{name}={value!r}" for name, value in fields.items())
        assert repr(cls(**fields)) == f"{cls.__name__}({shown})"


def test_records_of_different_types_never_compare_equal():
    c = Ciphertext(CT_A)
    assert EvalResult(c) != MappedResult(c)
    assert not EvalResult(c) == MappedResult(c)
    ones = [cls(c) for cls in ONE_FIELD]
    for i, a in enumerate(ones):
        for b in ones[i + 1:]:
            assert a != b and b != a and not a == b
    assert MaskedOperand(1, c) != Transcript(1, c)
    assert BinOp(Role.MAPPER, c, 5) != Message(Role.MAPPER, c, 5)


@pytest.mark.parametrize("cls, fields, message", CHECKS,
                         ids=[m for _, _, m in CHECKS])
def test_every_check_raises_its_error(cls, fields, message):
    for build in (lambda: cls(**fields), lambda: cls(*fields.values())):
        with pytest.raises(ValueError, match=re.escape(message)) as err:
            build()
        assert type(err.value) is ValueError
        assert str(err.value) == message


def test_cipher_env_defaults():
    env = CipherEnv()
    assert env.bindings == {} and env.key is None and env.rng is None
    assert CipherEnv().bindings is not env.bindings
    bindings, key, rng = {"a": Ciphertext(CT_A)}, KEY_A, object()
    for env in (CipherEnv(bindings, key, rng),
                CipherEnv(bindings=bindings, key=key, rng=rng)):
        assert (env.bindings, env.key, env.rng) == (bindings, key, rng)
        assert env.bindings is bindings


def test_keyset_derives_its_keys_once_and_keeps_them():
    ks = KeySet(MOD, (KEY_A, KEY_B))
    assert ks.prefix is KEY_A
    assert ks.master is ks.master
    assert ks.master == compose(KEY_A, KEY_B)
    assert tuple(ks) == (MOD, (KEY_A, KEY_B))
    for name in ("master", "prefix"):
        with pytest.raises(AttributeError):
            setattr(ks, name, KEY_B)
    assert ks.master == compose(KEY_A, KEY_B)


def test_replace_runs_the_checks():
    assert MOD._replace(bits=16) == RingModulus(**_modulus(bits=16))
    with pytest.raises(ValueError, match="n must be the product of the f_i"):
        MOD._replace(n=1157)


MATFHE_MODULES = ["matfhe", "matfhe.analysis", "matfhe.cipher", "matfhe.cli",
                  "matfhe.evaluate", "matfhe.formats", "matfhe.keys",
                  "matfhe.matrix", "matfhe.protocol", "matfhe.ring"]


def test_import_loads_no_introspection_or_statistics():
    # In a fresh process: the modules that importing matfhe and its CLI
    # adds. dataclasses (with inspect, ast, dis and tokenize) and
    # statistics (with fractions and decimal) are a large share of a
    # command's start-up; every matfhe module is still imported up front,
    # so no part of the program's own import is deferred past this point.
    code = ("import sys; before = set(sys.modules); import matfhe, matfhe.cli; "
            "print(' '.join(sorted(set(sys.modules) - before)))")
    out = subprocess.run([sys.executable, "-c", code], env=child_env(),
                         capture_output=True, text=True, check=True).stdout
    loaded = out.split()
    assert not {"dataclasses", "inspect", "statistics"} & set(loaded)
    assert [m for m in loaded if m.split(".")[0] == "matfhe"] == MATFHE_MODULES
