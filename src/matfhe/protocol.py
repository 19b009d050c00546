"""Four-party delegation protocol over locked ciphertexts.

Five roles: the data owner holds the raw values, the delegator and the
mapper are the two divisions of the processing center, the computation
center evaluates formulas over masked operands, and the data user receives
the result. Key distribution happens out of band: the owner holds k1 and
the masking key k2, the mapper holds k3, the user holds the master key
k1*k2*k3, and the computation center holds nothing. The owner encrypts
only the requested entries, each straight under compose(k1, k2), the key
set's prefix, composed once per key set however many runs it serves: the
ciphertext that locking its k1 encryption under k2 would give. It still
draws coins for its whole table, so one seed gives one coin stream
whatever the formula reads. The message types have no key-bearing variant,
so a well-typed transcript cannot ship key material as anything but a
forged ciphertext body; the audit checks for exactly that. The messages
are immutable named tuples that compare by type, so an EvalResult never
equals a MappedResult or a plain tuple holding the same ciphertext.
"""

from collections import namedtuple
from enum import Enum

from .cipher import _draw_enc4, dec, enc4, lock
from .evaluate import (BinOp, CipherEnv, Const, Ref, eval_expr, format_expr,
                       parse_expr)
from .formats import entries_text
from .ring import ParameterError, _Record, _check_plaintexts


class Role(Enum):
    DATA_OWNER = "data_owner"
    DELEGATOR = "delegator"
    MAPPER = "mapper"
    COMPUTATION_CENTER = "computation_center"
    DATA_USER = "data_user"


class DataRequest(_Record, namedtuple("DataRequest", "indices")):
    pass


class FormulaAnnouncement(_Record, namedtuple("FormulaAnnouncement", "formula")):
    pass


class MaskedOperand(_Record, namedtuple("MaskedOperand", "index ciphertext")):
    pass


class EvalResult(_Record, namedtuple("EvalResult", "ciphertext")):
    pass


class MappedResult(_Record, namedtuple("MappedResult", "ciphertext")):
    pass


class Message(_Record, namedtuple("Message", "sender recipient payload")):
    pass


class Transcript(_Record, namedtuple("Transcript", "messages result")):
    pass


class ProtocolError(RuntimeError):
    """The protocol's own preconditions were violated."""


def _shown(name, whole):
    """whole for a name of at most 20 characters; a longer one is cut to
    its first five and its length, so a refusal stays one short line."""
    if len(name) <= 20:
        return whole
    return f"{name[:5] + '...'!r} ({len(name)} characters)"


def _required_indices(formula, table_size):
    """Sorted table indices the formula reads, from one depth-first walk.

    Over the leaves left to right: some input, no constant, and each name in
    first-appearance order is x1, x2, ... within the table. A name is
    checked as text, with no leading zero, before its digits are converted."""
    leaves, stack = [], [formula]
    while stack:
        node = stack.pop()
        if isinstance(node, BinOp):
            stack += (node.right, node.left)
        else:
            leaves.append(node)
    names = dict.fromkeys(leaf.name for leaf in leaves if isinstance(leaf, Ref))
    if not names:
        raise ProtocolError("formula references no data inputs")
    if any(isinstance(leaf, Const) for leaf in leaves):
        raise ProtocolError(
            "formulas with literal constants are not supported; the "
            "computation center holds no key to encrypt them under")
    indices = []
    for name in names:
        digits = name[1:]
        if not (name.startswith("x") and digits.isdecimal()
                and digits[0] != "0"):
            raise ProtocolError("data inputs must be named x1, x2, ...; "
                                f"got {_shown(name, repr(name))}")
        # More digits than the table size has is outside the table; the
        # length test spares int() a name of thousands of digits.
        if len(digits) > len(str(table_size)) or int(digits) > table_size:
            raise ProtocolError(
                f"input {_shown(name, name)} is outside the data table")
        indices.append(int(digits))
    return tuple(sorted(set(indices)))


def run_protocol(formula, data, keyset, rng):
    """Run the full flow and return (result, transcript).

    formula is formula text over inputs named x1..xt, 1-based into data;
    parse_expr bounds its depth. keyset needs exactly three components: the
    owner encrypts under components 1 and 2 composed (the key set's
    prefix), the mapper locks under component 3, and the user decrypts
    with the master. The key set composes its prefix and master once, so
    a later run over it makes no key product.
    """
    formula = parse_expr(formula)
    required = _required_indices(formula, len(data))
    if len(keyset.components) != 3:
        raise ProtocolError("protocol needs a key set with exactly 3 components")
    if keyset.components[0].dim != 4:
        raise ParameterError("enc4 needs a dim 4 key")

    messages = []

    # The data user announces the formula; the delegator forwards it to the
    # computation center and asks the owner for the operands it needs.
    messages.append(Message(Role.DATA_USER, Role.DELEGATOR,
                            FormulaAnnouncement(formula)))
    messages.append(Message(Role.DELEGATOR, Role.COMPUTATION_CENTER,
                            FormulaAnnouncement(formula)))
    messages.append(Message(Role.DELEGATOR, Role.DATA_OWNER,
                            DataRequest(required)))

    # For the same coins c, lock(enc4(x, k1, c), k2) = enc4(x, owner, c) with
    # owner = compose(k1, k2), so the owner encrypts each requested entry once.
    # It draws coins for its whole table in table order, as encrypting it
    # under k1 did, so a seed's coin stream does not depend on the formula.
    n, m = keyset.modulus.n, keyset.modulus.m
    _check_plaintexts(data, n)
    coins = list(_draw_enc4(data, n, m, rng))
    owner = keyset.prefix
    operands = {}
    for i in required:
        z = enc4(data[i - 1], owner, coins[i - 1])
        operands[f"x{i}"] = z
        messages.append(Message(Role.DATA_OWNER, Role.COMPUTATION_CENTER,
                                MaskedOperand(i, z)))

    evaluated = eval_expr(formula, CipherEnv(bindings=operands))
    messages.append(Message(Role.COMPUTATION_CENTER, Role.MAPPER,
                            EvalResult(evaluated)))

    mapped = lock(evaluated, keyset.components[2])
    messages.append(Message(Role.MAPPER, Role.DATA_USER,
                            MappedResult(mapped)))

    result = dec(mapped, keyset.master)
    transcript = Transcript(messages=tuple(messages), result=result)
    violations = audit_transcript(transcript, keyset)
    if violations:
        raise ProtocolError(f"protocol run produced a dirty transcript: {violations}")
    return result, transcript


def audit_transcript(transcript, keyset):
    """Check a transcript against the protocol's disclosure rules.

    Returns violation descriptions, empty when clean. Checks that no
    transmitted matrix equals any key matrix or key inverse (a component's,
    the owner's or the master's), that the computation center received
    only masked operands and formula announcements, and that the data user
    received exactly one mapped result.
    """
    key_material = set()
    for kt in keyset.components + (keyset.prefix, keyset.master):
        key_material.add(kt.k)
        key_material.add(kt.k_inv)
    violations = []
    mapped_count = 0
    for pos, msg in enumerate(transcript.messages):
        ct = getattr(msg.payload, "ciphertext", None)
        if ct is not None and ct.body in key_material:
            violations.append(
                f"message {pos}: payload matrix equals key material "
                f"({msg.sender.value} to {msg.recipient.value})")
        if (msg.recipient is Role.COMPUTATION_CENTER
                and not isinstance(msg.payload, (MaskedOperand, FormulaAnnouncement))):
            violations.append(
                f"message {pos}: computation center received "
                f"{type(msg.payload).__name__}")
        if msg.recipient is Role.DATA_USER and isinstance(msg.payload, MappedResult):
            mapped_count += 1
    if mapped_count != 1:
        violations.append(
            f"data user received {mapped_count} mapped results, expected 1")
    return violations


def _payload_fields(payload):
    if isinstance(payload, DataRequest):
        return ("data_request", ",".join(str(i) for i in payload.indices))
    if isinstance(payload, FormulaAnnouncement):
        return ("formula", format_expr(payload.formula))
    if isinstance(payload, MaskedOperand):
        return ("masked_operand", str(payload.index),
                entries_text(payload.ciphertext.body))
    if isinstance(payload, EvalResult):
        return ("eval_result", entries_text(payload.ciphertext.body))
    if isinstance(payload, MappedResult):
        return ("mapped_result", entries_text(payload.ciphertext.body))
    raise TypeError(f"unknown payload: {payload!r}")


def serialize_transcript(transcript):
    """Line-oriented text log: one tab-separated line per message, then the
    result line. Matrices render as comma-separated entries."""
    lines = []
    for msg in transcript.messages:
        fields = (msg.sender.value, msg.recipient.value) + _payload_fields(msg.payload)
        lines.append("\t".join(fields))
    lines.append(f"result\t{transcript.result}")
    return "\n".join(lines) + "\n"
