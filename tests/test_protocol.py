"""Delegation protocol runs, audits, and transcript serialization."""

import random

import pytest

from matfhe.analysis import plaintext_candidates
from matfhe.cipher import Ciphertext, dec
from matfhe.evaluate import (MAX_DEPTH, BinOp, ExprSyntaxError, Ref,
                             format_expr)
from matfhe.keys import KeyTuple, keyset_gen
from matfhe.matrix import mat_mul
from matfhe.ring import ParameterError
from matfhe.protocol import (DataRequest, EvalResult, FormulaAnnouncement,
                             MappedResult, MaskedOperand, Message,
                             ProtocolError, Role, Transcript,
                             audit_transcript, run_protocol,
                             serialize_transcript)


def make_keyset(seed):
    return keyset_gen(4, 3, 2, 16, random.Random(seed))


def plain_eval(node, data, n):
    if isinstance(node, Ref):
        return data[int(node.name[1:]) - 1] % n
    ops = {"+": lambda a, b: (a + b) % n,
           "-": lambda a, b: (a - b) % n,
           "*": lambda a, b: a * b % n}
    return ops[node.op](plain_eval(node.left, data, n),
                        plain_eval(node.right, data, n))


def random_formula(rng, depth, width):
    if depth == 0 or rng.random() < 0.3:
        return Ref(f"x{rng.randrange(1, width + 1)}")
    return BinOp(rng.choice("+-*"), random_formula(rng, depth - 1, width),
                 random_formula(rng, depth - 1, width))


class TestRunProtocol:
    def test_reference_sum(self):
        result, transcript = run_protocol(
            "x1+x2", (5, 12), make_keyset(1), random.Random(2))
        assert result == 17
        assert transcript.result == 17

    def test_identity_formula(self):
        result, _ = run_protocol("x1", (321,), make_keyset(3),
                                 random.Random(4))
        assert result == 321

    def test_four_input_sum(self):
        ks = make_keyset(5)
        rng = random.Random(6)
        n = ks.modulus.n
        data = tuple(rng.randrange(n) for _ in range(4))
        result, _ = run_protocol("x1+x2+x3+x4", data, ks, rng)
        assert result == sum(data) % n

    def test_message_sequence(self):
        ks = make_keyset(7)
        _, transcript = run_protocol("x2*x1", (9, 11, 13), ks,
                                     random.Random(8))
        msgs = transcript.messages
        assert (msgs[0].sender, msgs[0].recipient) == (Role.DATA_USER,
                                                       Role.DELEGATOR)
        assert isinstance(msgs[0].payload, FormulaAnnouncement)
        assert (msgs[1].sender, msgs[1].recipient) == (
            Role.DELEGATOR, Role.COMPUTATION_CENTER)
        assert isinstance(msgs[1].payload, FormulaAnnouncement)
        assert (msgs[2].sender, msgs[2].recipient) == (Role.DELEGATOR,
                                                       Role.DATA_OWNER)
        assert msgs[2].payload == DataRequest((1, 2))
        operands = msgs[3:5]
        assert [m.payload.index for m in operands] == [1, 2]
        for m in operands:
            assert (m.sender, m.recipient) == (Role.DATA_OWNER,
                                               Role.COMPUTATION_CENTER)
        assert isinstance(msgs[5].payload, EvalResult)
        assert (msgs[5].sender, msgs[5].recipient) == (
            Role.COMPUTATION_CENTER, Role.MAPPER)
        assert isinstance(msgs[6].payload, MappedResult)
        assert (msgs[6].sender, msgs[6].recipient) == (Role.MAPPER,
                                                       Role.DATA_USER)
        assert len(msgs) == 7

    def test_masked_operands_are_double_locked(self):
        # Each transmitted operand must decrypt under the composed key
        # k1*k2. The owner encrypts it straight under k1*k2, which gives the
        # k1 encryption of the entry locked under the masking key k2.
        ks = make_keyset(9)
        data = (41, 1234)
        _, transcript = run_protocol("x1-x2", data, ks, random.Random(10))
        k1, k2, _ = ks.components
        composed = KeyTuple(ks.modulus, mat_mul(k1.k, k2.k),
                            mat_mul(k2.k_inv, k1.k_inv))
        for msg in transcript.messages:
            if isinstance(msg.payload, MaskedOperand):
                recovered = dec(msg.payload.ciphertext, composed)
                assert recovered == data[msg.payload.index - 1]

    def test_fuzz_200_runs_with_audit(self):
        rng = random.Random(2024)
        passes = 0
        for trial in range(200):
            if trial % 50 == 0:
                ks = make_keyset(rng.randrange(1 << 30))
                n = ks.modulus.n
            width = rng.randrange(1, 5)
            data = tuple(rng.randrange(n) for _ in range(width))
            formula = random_formula(rng, 4, width)
            result, transcript = run_protocol(format_expr(formula), data,
                                              ks, rng)
            assert result == plain_eval(formula, data, n)
            assert audit_transcript(transcript, ks) == []
            passes += 1
        assert passes == 200

    def test_formula_errors(self):
        ks = make_keyset(11)
        rng = random.Random(12)
        with pytest.raises(ProtocolError):
            run_protocol("x1+3", (5, 6), ks, rng)
        with pytest.raises(ProtocolError):
            run_protocol("y1", (5, 6), ks, rng)
        with pytest.raises(ProtocolError):
            run_protocol("x3", (5, 6), ks, rng)
        with pytest.raises(ProtocolError):
            run_protocol("x0", (5, 6), ks, rng)
        with pytest.raises(ProtocolError):
            run_protocol("7", (5, 6), ks, rng)

    @pytest.mark.parametrize("formula, table, message", [
        # Names are checked in first-appearance order, depth first: a
        # breadth-first walk would meet b before a.
        ("(a+x1)*b", (5, 6), "got 'a'"),
        ("x1+3", (5,), "literal constants"),
        ("(x1+x9)*x7", (1, 2, 3, 4, 5), "input x9 is outside"),
        ("(x01+x9)*x7", (1, 2, 3, 4, 5), "got 'x01'"),
        ("(x9+x01)*x7", (1, 2, 3, 4, 5), "input x9 is outside"),
    ])
    def test_gate_reports_the_first_fault(self, formula, table, message):
        with pytest.raises(ProtocolError, match=message):
            run_protocol(formula, table, make_keyset(11), random.Random(12))

    @pytest.mark.parametrize("formula", [
        "x01", "x1+x01", "x00", "x"])
    def test_only_canonical_input_names_are_bound(self, monkeypatch, formula):
        # Operands are bound as x1, x2, ...: the gate refuses any other
        # spelling of an index before the owner draws coins or encrypts.
        monkeypatch.setattr("matfhe.protocol.enc4", None)
        rng = random.Random(12)
        with pytest.raises(ProtocolError, match="must be named x1, x2"):
            run_protocol(formula, (5, 6), make_keyset(11), rng)
        assert rng.random() == random.Random(12).random()

    @pytest.mark.parametrize("digits, table", [
        ("1" * 4400, (5,)), ("9" * 4400, tuple(range(12))), ("13", (5,) * 12),
        ("100", (5,) * 99)])
    def test_name_past_the_table_is_refused_before_conversion(self, digits,
                                                              table):
        # int() refuses more than 4,300 digits with a plain ValueError; a
        # name with more digits than the table size is refused unconverted.
        rng = random.Random(12)
        with pytest.raises(ProtocolError, match="outside the data table"):
            run_protocol("x" + digits, table, make_keyset(11), rng)
        assert rng.random() == random.Random(12).random()

    @pytest.mark.parametrize("name, message", [
        ("x" + "7" * 19, f"input x{'7' * 19} is outside the data table"),
        ("x" + "7" * 20,
         "input 'x7777...' (21 characters) is outside the data table"),
        ("y" + "7" * 19, f"got 'y{'7' * 19}'"),
        ("y" + "7" * 20, "got 'y7777...' (21 characters)")])
    def test_refused_name_is_cut_past_20_characters(self, name, message):
        with pytest.raises(ProtocolError) as info:
            run_protocol(name, (5,), make_keyset(11), random.Random(12))
        assert str(info.value).endswith(message)

    @pytest.mark.parametrize("formula, table", [
        ("x9", (5,) * 9), ("x10", (5,) * 10), ("x1+x99", (5,) * 99)])
    def test_name_at_the_table_end_runs(self, formula, table):
        result, _ = run_protocol(formula, table, make_keyset(11),
                                 random.Random(12))
        assert result == 5 * len(formula.split("+"))

    @pytest.mark.parametrize("formula, expected", [
        ("+".join(["x1"] * (MAX_DEPTH + 1)), 5 * (MAX_DEPTH + 1)),
        ("x1*(" + "+".join(["x1"] * MAX_DEPTH) + ")", 25 * MAX_DEPTH)],
        ids=("chain", "nested"))
    def test_formula_at_the_depth_limit_runs(self, formula, expected):
        # MAX_DEPTH operators deep on either side, the deepest text parsed.
        ks = make_keyset(14)
        result, transcript = run_protocol(formula, (5,), ks,
                                          random.Random(15))
        assert result == expected % ks.modulus.n
        assert serialize_transcript(transcript).endswith(
            f"result\t{result}\n")

    @pytest.mark.parametrize("depth", (MAX_DEPTH + 1, 1500))
    def test_formula_past_the_depth_limit_is_refused(self, depth):
        # Deeper on either side, refused by the parser before any draw.
        ks = make_keyset(16)
        for formula in ("+".join(["x1"] * (depth + 1)),
                        "x1*(" + "+".join(["x1"] * depth) + ")"):
            rng = random.Random(17)
            with pytest.raises(ExprSyntaxError,
                               match=f"at most {MAX_DEPTH} levels"):
                run_protocol(formula, (5,), ks, rng)
            assert rng.random() == random.Random(17).random()

    def test_shared_leaf_runs(self):
        result, _ = run_protocol("x1*(x1+x1)", (5,), make_keyset(20),
                                 random.Random(21))
        assert result == 50

    @pytest.mark.parametrize("formula", [
        BinOp("+", Ref("x1"), Ref("x2")), Ref("x1")], ids=("binop", "ref"))
    def test_ast_formula_is_refused_before_any_draw(self, formula):
        # The protocol announces formula text; a built tree is not parsed.
        rng = random.Random(22)
        with pytest.raises(TypeError):
            run_protocol(formula, (5, 6), make_keyset(23), rng)
        assert rng.random() == random.Random(22).random()

    @pytest.mark.parametrize("formula", ["x\u0661", "x\u00b2", "x1+x\u0663"])
    def test_non_ascii_digit_names_are_refused_before_any_draw(self,
                                                                formula):
        # The gate checks names as ASCII text; the tokenizer refuses other
        # digits first, so no such name is ever bound to a table entry.
        rng = random.Random(12)
        with pytest.raises(ExprSyntaxError):
            run_protocol(formula, (5, 6), make_keyset(11), rng)
        assert rng.random() == random.Random(12).random()

    def test_keyset_size_enforced(self):
        rng = random.Random(13)
        two = keyset_gen(4, 2, 2, 16, rng)
        with pytest.raises(ProtocolError):
            run_protocol("x1", (5,), two, rng)

    def test_dim_8_keyset_refused_before_the_first_draw(self):
        dim8 = keyset_gen(8, 3, 2, 16, random.Random(13))
        rng = random.Random(14)
        with pytest.raises(ParameterError, match="enc4 needs a dim 4 key"):
            run_protocol("x1", (5, 6, 7), dim8, rng)
        assert rng.random() == random.Random(14).random()

    def test_computation_center_reads_every_operand_below_100(self):
        # What the computation center receives leaks small plaintexts with
        # no key: det(C - y*I) = 0 mod N picks out each masked entry.
        recovered = 0
        for seed in range(10):
            rng = random.Random(seed)
            ks = make_keyset(seed)
            data = tuple(rng.randrange(100) for _ in range(4))
            _, transcript = run_protocol("x1*x2+x3-x4", data, ks, rng)
            for msg in transcript.messages:
                if isinstance(msg.payload, MaskedOperand):
                    assert plaintext_candidates(
                        msg.payload.ciphertext, range(100)) == [
                            data[msg.payload.index - 1]]
                    recovered += 1
        assert recovered == 40


class TestAudit:
    def test_clean_transcript_passes(self):
        ks = make_keyset(14)
        _, transcript = run_protocol("x1*x2", (3, 4), ks, random.Random(15))
        assert audit_transcript(transcript, ks) == []

    def test_forged_key_bearing_operand_detected(self):
        # Inject the masking key itself as a ciphertext body bound for the
        # computation center; the audit must flag it.
        ks = make_keyset(16)
        _, transcript = run_protocol("x1+x2", (5, 12), ks, random.Random(17))
        k2 = ks.components[1]
        forged = Message(Role.DATA_OWNER, Role.COMPUTATION_CENTER,
                         MaskedOperand(1, Ciphertext(k2.k)))
        dirty = Transcript(messages=transcript.messages + (forged,),
                           result=transcript.result)
        violations = audit_transcript(dirty, ks)
        assert len(violations) == 1
        assert "key material" in violations[0]

    def test_key_material_detected_regardless_of_recipient(self):
        ks = make_keyset(18)
        _, transcript = run_protocol("x1", (8,), ks, random.Random(19))
        forged = Message(Role.MAPPER, Role.DATA_OWNER,
                         EvalResult(Ciphertext(ks.master.k_inv)))
        dirty = Transcript(messages=transcript.messages + (forged,),
                           result=transcript.result)
        assert any("key material" in v for v in audit_transcript(dirty, ks))

    def test_double_mapped_result_detected(self):
        ks = make_keyset(20)
        _, transcript = run_protocol("x1+x2", (5, 12), ks, random.Random(21))
        extra = transcript.messages[-1]
        dirty = Transcript(messages=transcript.messages + (extra,),
                           result=transcript.result)
        violations = audit_transcript(dirty, ks)
        assert any("2 mapped results" in v for v in violations)

    def test_wrong_payload_type_to_center_detected(self):
        ks = make_keyset(22)
        _, transcript = run_protocol("x1", (8,), ks, random.Random(23))
        stray = Message(Role.MAPPER, Role.COMPUTATION_CENTER,
                        transcript.messages[-1].payload)
        dirty = Transcript(messages=transcript.messages + (stray,),
                           result=transcript.result)
        violations = audit_transcript(dirty, ks)
        assert any("computation center received MappedResult" in v
                   for v in violations)

    def test_missing_mapped_result_detected(self):
        ks = make_keyset(24)
        _, transcript = run_protocol("x1", (8,), ks, random.Random(25))
        truncated = Transcript(messages=transcript.messages[:-1],
                               result=transcript.result)
        violations = audit_transcript(truncated, ks)
        assert any("0 mapped results" in v for v in violations)


class TestTranscriptSerialization:
    def test_deterministic_under_seed(self):
        ks = make_keyset(26)
        runs = []
        for _ in range(2):
            _, transcript = run_protocol("x1*x2+x1", (44, 55), ks,
                                         random.Random(27))
            runs.append(serialize_transcript(transcript))
        assert runs[0] == runs[1]

    def test_fresh_coins_change_the_transcript(self):
        ks = make_keyset(28)
        a = serialize_transcript(
            run_protocol("x1", (9,), ks, random.Random(29))[1])
        b = serialize_transcript(
            run_protocol("x1", (9,), ks, random.Random(30))[1])
        assert a != b

    def test_line_shape(self):
        ks = make_keyset(31)
        result, transcript = run_protocol("x1+x2", (5, 12), ks,
                                          random.Random(32))
        text = serialize_transcript(transcript)
        assert text.endswith("\n")
        lines = text[:-1].split("\n")
        assert len(lines) == len(transcript.messages) + 1
        assert lines[0] == "data_user\tdelegator\tformula\t(x1+x2)"
        assert lines[2] == "delegator\tdata_owner\tdata_request\t1,2"
        assert lines[3].startswith("data_owner\tcomputation_center\t"
                                   "masked_operand\t1\t")
        assert lines[-1] == f"result\t{result}"
        # operand lines carry 16 comma-separated matrix entries
        entries = lines[3].split("\t")[4].split(",")
        assert len(entries) == 16
        assert all(e.isdigit() for e in entries)
