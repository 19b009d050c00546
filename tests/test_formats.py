"""File format tests.

Three layers: byte-exact round trips on freshly generated objects,
golden fixture files pinned by sha256 (the on-disk format must never
drift), and a rejection table for malformed input. Golden hashes were
frozen when the fixtures were first written; a hash change means the
format changed and is a test failure, not a fixture update.
"""

import hashlib
import os
import random

import pytest
from hypothesis import given, strategies as st

from matfhe.cipher import Ciphertext, dec, enc4, enc8
from matfhe.formats import (
    MalformedFileError,
    _parse_int_list,
    matrix_from_text,
    parse_ciphertext,
    parse_key,
    read_ciphertext,
    read_key,
    serialize_ciphertext,
    serialize_key,
    write_ciphertext,
    write_key,
)
from matfhe.keys import keygen4, keygen8

from conftest import FIXTURE_DIR
from known_answers import CT_A, KA, KA_INV, MOD, N

GOLDEN_HASHES = {
    "key_a.key": "1ca05f884b1d494951a52bb9662f3162321b81ee212cebdf1181f513932945b4",
    "ct_a_257.ct": "7af46303b05aee0e7bfc10476691c9de3f17b3cc0a437d755de06fb7dff7542c",
    "key_b.key": "5bddf947004e444940c46b31fe9006f64ff9c1cdfd6752dde9af5daf23e75106",
    "ct_b_5.ct": "d95d30f8550236a720dc68701a435a222efb33d0153b5cd7266932a5960a3d8a",
    "ct_b_12.ct": "d8c53938919ee803f4c6019567dc925f35e9f5109ac8f9ff5877be8134847362",
}


def fixture_bytes(name):
    with open(os.path.join(FIXTURE_DIR, name), "rb") as fh:
        return fh.read()


def fixture_text(name):
    return fixture_bytes(name).decode("ascii")


def mutate_line(text, prefix, replacement):
    """Replace the line starting with prefix (dropped when replacement is None)."""
    lines = text[:-1].split("\n")
    out = []
    hit = False
    for line in lines:
        if not hit and line.startswith(prefix):
            hit = True
            if replacement is not None:
                out.append(replacement)
        else:
            out.append(line)
    assert hit, f"no line starts with {prefix!r}"
    return "\n".join(out) + "\n"


# --- golden fixtures ---


@pytest.mark.parametrize("name", sorted(GOLDEN_HASHES))
def test_golden_hash(name):
    digest = hashlib.sha256(fixture_bytes(name)).hexdigest()
    assert digest == GOLDEN_HASHES[name]


@pytest.mark.parametrize("name", sorted(GOLDEN_HASHES))
def test_golden_is_ascii_lf(name):
    data = fixture_bytes(name)
    assert b"\r" not in data
    assert data.endswith(b"\n")
    data.decode("ascii")


@pytest.mark.parametrize("name", ["key_a.key", "key_b.key"])
def test_golden_key_reserializes_byte_identically(name):
    text = fixture_text(name)
    assert serialize_key(parse_key(text)) == text


@pytest.mark.parametrize("name", ["ct_a_257.ct", "ct_b_5.ct", "ct_b_12.ct"])
def test_golden_ciphertext_reserializes_byte_identically(name):
    text = fixture_text(name)
    ct, m, bits, n = parse_ciphertext(text)
    assert (m, bits, n) == (2, 8, N)
    assert serialize_ciphertext(ct, MOD) == text


def test_key_a_serializes_to_golden_bytes(key_a):
    assert serialize_key(key_a) == fixture_text("key_a.key")


def test_ct_a_serializes_to_golden_bytes(ct_a):
    assert serialize_ciphertext(ct_a, MOD) == fixture_text("ct_a_257.ct")


def test_golden_key_a_fields():
    key = parse_key(fixture_text("key_a.key"))
    assert key.modulus.m == 2
    assert key.modulus.bits == 8
    assert key.modulus.f == (21, 55)
    assert key.modulus.n == N
    assert not key.modulus.has_split
    assert key.dim == 4
    assert key.k == KA
    assert key.k_inv == KA_INV
    assert key.verify()


def test_golden_files_decrypt():
    # A key parsed back from disk has no p/q split but decryption never
    # needs it: only the matrices and N.
    key_a = read_key(os.path.join(FIXTURE_DIR, "key_a.key"))
    key_b = read_key(os.path.join(FIXTURE_DIR, "key_b.key"))
    for name, key, value in [
        ("ct_a_257.ct", key_a, 257),
        ("ct_b_5.ct", key_b, 5),
        ("ct_b_12.ct", key_b, 12),
    ]:
        ct, _, _, n = read_ciphertext(os.path.join(FIXTURE_DIR, name))
        assert n == N
        assert dec(ct, key) == value


def test_ciphertext_file_carries_no_factors():
    text = fixture_text("ct_a_257.ct")
    assert "f=" not in text
    assert "21" not in text.split("c=")[0]  # header half names only m, lambda, N, dim


# --- round trips on fresh objects ---


def test_key_round_trip_dim4():
    key = keygen4(2, 16, random.Random(5))
    parsed = parse_key(serialize_key(key))
    assert parsed.k == key.k
    assert parsed.k_inv == key.k_inv
    assert parsed.modulus.f == key.modulus.f
    assert parsed.modulus.n == key.modulus.n
    assert parsed.modulus.bits == key.modulus.bits
    assert not parsed.modulus.has_split
    assert serialize_key(parsed) == serialize_key(key)


def test_key_round_trip_dim8():
    key = keygen8(3, 16, random.Random(6))
    parsed = parse_key(serialize_key(key))
    assert parsed.dim == 8
    assert parsed.k == key.k
    assert serialize_key(parsed) == serialize_key(key)


def test_ciphertext_round_trip_dim4():
    rng = random.Random(7)
    key = keygen4(2, 16, rng)
    ct = enc4(1234 % key.modulus.n, key, rng)
    text = serialize_ciphertext(ct, key.modulus)
    parsed, m, bits, n = parse_ciphertext(text)
    assert (m, bits, n) == (2, 16, key.modulus.n)
    assert parsed == ct
    assert serialize_ciphertext(parsed, key.modulus) == text


def test_ciphertext_round_trip_dim8():
    rng = random.Random(8)
    key = keygen8(2, 16, rng)
    ct = enc8(4321 % key.modulus.n, key, rng)
    text = serialize_ciphertext(ct, key.modulus)
    parsed, _, _, _ = parse_ciphertext(text)
    assert parsed.dim == 8
    assert parsed == ct


def test_file_helpers_round_trip(tmp_path, key_a, ct_a):
    key_path = tmp_path / "a.key"
    ct_path = tmp_path / "a.ct"
    write_key(key_path, key_a)
    write_ciphertext(ct_path, ct_a, MOD)
    assert read_key(key_path).k == KA
    ct, _, _, _ = read_ciphertext(ct_path)
    assert ct.body == CT_A
    # Bytes on disk match the serializers exactly (LF endings survive).
    assert key_path.read_bytes() == serialize_key(key_a).encode("ascii")


@pytest.mark.parametrize("read,name", [
    (read_key, "key_a.key"), (read_ciphertext, "ct_a_257.ct"),
], ids=["key", "ciphertext"])
def test_non_ascii_byte_is_malformed(tmp_path, read, name):
    data = fixture_bytes(name)
    path = tmp_path / name
    path.write_bytes(data + b"\xff")
    with pytest.raises(MalformedFileError,
                       match=f"^non-ASCII byte 0xff at offset {len(data)}$"):
        read(path)


def test_serialize_ciphertext_rejects_foreign_modulus(ct_a):
    from matfhe.ring import RingModulus
    other = RingModulus(m=1, bits=8, p=None, q=None, f=(77,), n=77)
    with pytest.raises(ValueError, match="disagree"):
        serialize_ciphertext(ct_a, other)


# --- overwriting files in place ---


@pytest.fixture(scope="module")
def big_key():
    """A dim 8 key at lambda=256: its files are longer than key_a's."""
    return keygen8(2, 256, random.Random(13))


def test_shorter_key_overwrites_longer_file_whole(tmp_path, big_key, key_a):
    path = tmp_path / "k.key"
    write_key(path, big_key)
    assert len(path.read_bytes()) > len(serialize_key(key_a))
    write_key(path, key_a)
    assert path.read_bytes() == serialize_key(key_a).encode("ascii")


def test_shorter_ciphertext_overwrites_longer_file_whole(tmp_path, big_key, ct_a):
    path = tmp_path / "c.ct"
    big_ct = enc8(12345, big_key, random.Random(14))
    write_ciphertext(path, big_ct, big_key.modulus)
    assert len(path.read_bytes()) > len(serialize_ciphertext(ct_a, MOD))
    write_ciphertext(path, ct_a, MOD)
    assert path.read_bytes() == serialize_ciphertext(ct_a, MOD).encode("ascii")


def test_refused_write_leaves_file_unchanged(tmp_path, ct_a):
    from matfhe.ring import RingModulus
    other = RingModulus(m=1, bits=8, p=None, q=None, f=(77,), n=77)
    path = tmp_path / "a.ct"
    write_ciphertext(path, ct_a, MOD)
    before = path.read_bytes()
    with pytest.raises(ValueError, match="disagree"):
        write_ciphertext(path, ct_a, other)
    assert path.read_bytes() == before


@pytest.mark.parametrize("mask", [0o022, 0o077, 0o002], ids=oct)
def test_new_file_mode_matches_plain_open(tmp_path, key_a, mask):
    old = os.umask(mask)
    try:
        with open(tmp_path / "plain", "w"):
            pass
        write_key(tmp_path / "k.key", key_a)
    finally:
        os.umask(old)
    assert (os.stat(tmp_path / "k.key").st_mode
            == os.stat(tmp_path / "plain").st_mode)


def test_write_follows_symlinks_and_shares_hard_links(tmp_path, big_key, key_a):
    target = tmp_path / "target.key"
    link = tmp_path / "link.key"
    hard = tmp_path / "hard.key"
    write_key(target, big_key)
    link.symlink_to(target)
    os.link(target, hard)
    write_key(link, key_a)
    assert link.is_symlink()
    want = serialize_key(key_a).encode("ascii")
    assert target.read_bytes() == want
    assert hard.read_bytes() == want


@pytest.mark.skipif(os.name != "posix", reason="needs a POSIX null device")
def test_write_to_a_device(key_a):
    # A device cannot be truncated; writing to it still succeeds.
    write_key(os.devnull, key_a)


# --- malformed input ---


def replace_k_entry(text, index, replacement):
    """Replace entry index of the k= line (an empty replacement leaves an
    empty part, or a trailing comma when index is the last entry)."""
    body = text.split("\nk=")[1].split("\n")[0]
    parts = body.split(",")
    parts[index] = replacement
    return text.replace("k=" + body, "k=" + ",".join(parts))


@pytest.mark.parametrize("wreck,match", [
    (lambda t: t[:-1], "final newline"),
    (lambda t: t.replace("MATFHE-KEY", "MATFHE-KEi"), "bad header"),
    (lambda t: t.replace("v1", "v2"), "bad header"),
    (lambda t: "MATFHE-KEY v1\n", "unexpected end"),
    (lambda t: mutate_line(t, "dim=", None), "expected dim="),
    (lambda t: mutate_line(t, "m=", "lambda=8"), "expected m="),
    (lambda t: mutate_line(t, "m=", "m=two"), "bad m"),
    (lambda t: mutate_line(t, "m=", "m=-2"), "bad m"),
    (lambda t: mutate_line(t, "m=", "m= 2"), "bad m"),
    (lambda t: mutate_line(t, "m=", "m="), "bad m"),
    (lambda t: mutate_line(t, "N=", "N=+1155"), "bad N"),
    # int() accepts these, the format does not: decimal ASCII digits only.
    (lambda t: mutate_line(t, "m=", "m=\u0662"), "bad m: '\u0662'"),
    (lambda t: mutate_line(t, "N=", "N=\uff11\uff11\uff15\uff15"),
     "bad N: '\uff11\uff11\uff15\uff15'"),
    (lambda t: mutate_line(t, "N=", "N=1_155"), "bad N: '1_155'"),
    (lambda t: mutate_line(t, "f=", "f=21,5_5"), "bad factor: '5_5'"),
    (lambda t: replace_k_entry(t, 3, "\u0662"), "bad matrix entry: '\u0662'"),
    (lambda t: replace_k_entry(t, 3, "1_2"), "bad matrix entry: '1_2'"),
    (lambda t: replace_k_entry(t, 3, "+5"), "bad matrix entry: '\\+5'"),
    (lambda t: replace_k_entry(t, 3, " 5"), "bad matrix entry: ' 5'"),
    (lambda t: replace_k_entry(t, 3, ""), "bad matrix entry: ''"),
    (lambda t: replace_k_entry(t, 15, ""), "bad matrix entry: ''"),
    (lambda t: mutate_line(t, "dim=", "dim=3"), "bad key dimension"),
    (lambda t: t + "x\n", "trailing data"),
    (lambda t: t + "\n", "trailing data"),
    (lambda t: mutate_line(t, "N=", "N=1156"), "product"),
    (lambda t: mutate_line(t, "f=", "f=21,56").replace("N=1155", "N=1176"),
     "odd"),
    (lambda t: mutate_line(t, "f=", "f=21,33").replace("N=1155", "N=693"),
     "coprime"),
])
def test_malformed_key_rejected(wreck, match):
    text = wreck(fixture_text("key_a.key"))
    with pytest.raises(MalformedFileError, match=match):
        parse_key(text)


def test_key_entry_not_reduced_rejected():
    text = fixture_text("key_a.key")
    body = text.split("k=")[1].split("\n")[0]
    first = body.split(",")[0]
    wrecked = text.replace("k=" + body, "k=" + body.replace(first, "1155", 1))
    with pytest.raises(MalformedFileError, match="not reduced"):
        parse_key(wrecked)


def test_key_wrong_entry_count_rejected():
    text = fixture_text("key_a.key")
    body = text.split("k=")[1].split("\n")[0]
    wrecked = text.replace("k=" + body, "k=" + body.rsplit(",", 1)[0])
    with pytest.raises(MalformedFileError, match="expected 16 matrix entries, got 15"):
        parse_key(wrecked)


def _per_entry_ints(text):
    """Reference parser, entry by entry: None when any entry is not a
    non-empty run of ASCII digits."""
    values = []
    for part in text.split(","):
        if not (part.isdigit() and part.isascii()):
            return None
        values.append(int(part))
    return tuple(values)


_LINE_CHARS = "0123456789,_+- \u0662"
_ENTRY = st.one_of(st.integers(0, 1500).map(str),
                   st.text(alphabet=_LINE_CHARS.replace(",", ""), max_size=4))


@given(st.one_of(st.text(alphabet=_LINE_CHARS, max_size=30),
                 st.lists(_ENTRY, min_size=1, max_size=6).map(",".join)))
def test_int_list_matches_per_entry_parser(text):
    want = _per_entry_ints(text)
    if want is None:
        with pytest.raises(MalformedFileError, match="bad factor"):
            _parse_int_list(text, "factor")
    else:
        assert _parse_int_list(text, "factor") == want


@given(st.lists(_ENTRY, min_size=16, max_size=16).map(",".join))
def test_matrix_line_matches_per_entry_parser(text):
    want = _per_entry_ints(text)
    if want is None or max(want) >= N:
        with pytest.raises(MalformedFileError):
            matrix_from_text(text, 4, N)
    else:
        assert matrix_from_text(text, 4, N).entries == want


@pytest.mark.parametrize("wreck,match", [
    (lambda t: t[:-1], "final newline"),
    (lambda t: t.replace("MATFHE-CT", "MATFHE-KEY"), "bad header"),
    # Factors must never appear in a ciphertext file; a smuggled f= line
    # lands where N= belongs and is rejected.
    (lambda t: t.replace("N=1155", "f=21,55\nN=1155"), "expected N="),
    (lambda t: mutate_line(t, "dim=", "dim=5"), "bad ciphertext dimension"),
    (lambda t: mutate_line(t, "c=", "x=1"), "expected c="),
    (lambda t: mutate_line(t, "c=", None), "unexpected end"),
    (lambda t: t + "f=21,55\n", "trailing data"),
])
def test_malformed_ciphertext_rejected(wreck, match):
    text = wreck(fixture_text("ct_a_257.ct"))
    with pytest.raises(MalformedFileError, match=match):
        parse_ciphertext(text)


def test_ciphertext_entry_not_reduced_rejected():
    text = fixture_text("ct_a_257.ct")
    body = text.split("c=")[1].split("\n")[0]
    wrecked = text.replace("c=" + body, "c=" + body.replace("464", "2155", 1))
    with pytest.raises(MalformedFileError, match="not reduced"):
        parse_ciphertext(wrecked)


def test_cross_parser_headers_rejected():
    with pytest.raises(MalformedFileError, match="bad header"):
        parse_key(fixture_text("ct_a_257.ct"))
    with pytest.raises(MalformedFileError, match="bad header"):
        parse_ciphertext(fixture_text("key_a.key"))


def test_structure_is_checked_before_values():
    text = mutate_line(fixture_text("key_a.key"), "m=", "m=x")
    with pytest.raises(MalformedFileError, match="unexpected end of file"):
        parse_key(mutate_line(text, "kinv=", None))


# int() refuses more than 4,300 digits by default; such a value is a bad
# field, reported by its length.
@pytest.mark.parametrize("wreck,match", [
    (lambda t: mutate_line(t, "N=", "N=" + "9" * 5000), "bad N: 5000 digits$"),
    (lambda t: replace_k_entry(t, 3, "1" * 5000), "bad matrix entry: 5000 digits$"),
], ids=["header-field", "matrix-entry"])
def test_integer_too_long_to_convert_is_malformed(wreck, match):
    with pytest.raises(MalformedFileError, match=match):
        parse_key(wreck(fixture_text("key_a.key")))


def test_malformed_error_is_value_error():
    assert issubclass(MalformedFileError, ValueError)
