"""On-disk text formats for keys, key sets, and ciphertexts.

Every file is line-oriented ASCII: a versioned header, then key=value
lines in a fixed order. Newlines are LF, no trailing whitespace, all
integers decimal. parse(serialize(x)) is the identity byte for byte.

Key files carry the factors f_i (secret material the CRT step needs);
ciphertext files carry only the public modulus N.

Writing serializes first, so a refused object leaves the file as it was,
then overwrites the file in place (symlinks and hard links keep sharing
it) and cuts it to length. Reading checks each integer line whole (ASCII
digits and commas, no empty entry); a refused line is walked entry by
entry only to name the bad entry.
"""

import os
import stat
from functools import reduce

from .cipher import Ciphertext
from .keys import KEY_DIMS, KeySet, KeyTuple, compose
from .matrix import Matrix
from .ring import RingModulus

_VERSION = "v1"


class MalformedFileError(ValueError):
    """A file does not match its declared format."""


def entries_text(matrix):
    """Matrix entries as comma-separated decimals, row-major."""
    return ",".join(map(str, matrix.entries))


def matrix_from_text(text, dim, modulus):
    count = text.count(",") + 1 if text else 0
    if count != dim * dim:
        raise MalformedFileError(
            f"expected {dim * dim} matrix entries, got {count}")
    entries = _parse_int_list(text, "matrix entry")
    if max(entries) >= modulus:
        value = next(v for v in entries if v >= modulus)
        raise MalformedFileError(f"matrix entry {value} not reduced mod {modulus}")
    return Matrix(dim, modulus, entries)


def _parse_int(text, what):
    if not (text.isdigit() and text.isascii()):
        raise MalformedFileError(f"bad {what}: {text!r}")
    return int(text)


def _parse_int_list(text, what):
    parts = text.split(",")
    if not (text.isascii() and text.encode("ascii").replace(b",", b"").isdigit()
            and "" not in parts):
        for part in parts:
            _parse_int(part, what)  # raises on the first bad entry
    return tuple(map(int, parts))


class _LineReader:
    def __init__(self, text, kind):
        if not text.endswith("\n"):
            raise MalformedFileError("missing final newline")
        self.lines = text[:-1].split("\n")
        self.pos = 0
        header = self.next_raw()
        expected = f"MATFHE-{kind} {_VERSION}"
        if header != expected:
            raise MalformedFileError(f"bad header {header!r}, expected {expected!r}")

    def next_raw(self):
        if self.pos >= len(self.lines):
            raise MalformedFileError("unexpected end of file")
        line = self.lines[self.pos]
        self.pos += 1
        return line

    def next_field(self, name):
        line = self.next_raw()
        prefix = name + "="
        if not line.startswith(prefix):
            raise MalformedFileError(f"expected {name}= line, got {line!r}")
        return line[len(prefix):]

    def next_dim(self, what):
        dim = _parse_int(self.next_field("dim"), "dim")
        if dim not in KEY_DIMS:
            raise MalformedFileError(f"bad {what} dimension {dim}")
        return dim

    def finish(self):
        if self.pos != len(self.lines):
            raise MalformedFileError(f"trailing data: {self.lines[self.pos]!r}")


def _modulus_lines(modulus, secret):
    lines = [f"m={modulus.m}", f"lambda={modulus.bits}"]
    if secret:
        lines.append("f=" + ",".join(str(v) for v in modulus.f))
    lines.append(f"N={modulus.n}")
    return lines


def _read_modulus(reader, secret):
    m = _parse_int(reader.next_field("m"), "m")
    bits = _parse_int(reader.next_field("lambda"), "lambda")
    f = _parse_int_list(reader.next_field("f"), "factor") if secret else None
    n = _parse_int(reader.next_field("N"), "N")
    return m, bits, f, n


def _read_key_header(reader):
    """The secret modulus and the key dimension opening key and key set
    files, each checked as the file is read."""
    m, bits, f, n = _read_modulus(reader, secret=True)
    try:
        modulus = RingModulus(m=m, bits=bits, p=None, q=None, f=f, n=n)
    except ValueError as err:
        raise MalformedFileError(str(err)) from err
    return modulus, reader.next_dim("key")


def _key_pair_lines(key, suffix=""):
    return [f"k{suffix}=" + entries_text(key.k),
            f"kinv{suffix}=" + entries_text(key.k_inv)]


def _read_key_pair(reader, modulus, dim, suffix=""):
    """The k{suffix}= and kinv{suffix}= lines as a KeyTuple."""
    k = matrix_from_text(reader.next_field(f"k{suffix}"), dim, modulus.n)
    k_inv = matrix_from_text(reader.next_field(f"kinv{suffix}"), dim, modulus.n)
    return KeyTuple(modulus, k, k_inv)


def serialize_key(key):
    lines = [f"MATFHE-KEY {_VERSION}"]
    lines += _modulus_lines(key.modulus, secret=True)
    lines.append(f"dim={key.dim}")
    lines += _key_pair_lines(key)
    return "\n".join(lines) + "\n"


def parse_key(text):
    reader = _LineReader(text, "KEY")
    key = _read_key_pair(reader, *_read_key_header(reader))
    reader.finish()
    return key


def serialize_ciphertext(ct, modulus):
    """Ciphertext file. Stores the public N only, never the factors."""
    if ct.modulus != modulus.n:
        raise ValueError("ciphertext and modulus disagree")
    lines = [f"MATFHE-CT {_VERSION}"]
    lines += _modulus_lines(modulus, secret=False)
    lines.append(f"dim={ct.dim}")
    lines.append("c=" + entries_text(ct.body))
    return "\n".join(lines) + "\n"


def parse_ciphertext(text):
    """Returns (Ciphertext, m, bits, n). Factors are not in the file."""
    reader = _LineReader(text, "CT")
    m, bits, _, n = _read_modulus(reader, secret=False)
    dim = reader.next_dim("ciphertext")
    body = matrix_from_text(reader.next_field("c"), dim, n)
    reader.finish()
    return Ciphertext(body), m, bits, n


def serialize_keyset(keyset):
    lines = [f"MATFHE-KEYSET {_VERSION}"]
    lines += _modulus_lines(keyset.modulus, secret=True)
    lines.append(f"dim={keyset.master.dim}")
    lines.append(f"l={len(keyset.components)}")
    lines += _key_pair_lines(keyset.master)
    for i, kt in enumerate(keyset.components, start=1):
        lines += _key_pair_lines(kt, i)
    return "\n".join(lines) + "\n"


def parse_keyset(text):
    reader = _LineReader(text, "KEYSET")
    modulus, dim = _read_key_header(reader)
    count = _parse_int(reader.next_field("l"), "l")
    if count < 2:
        raise MalformedFileError("key set needs at least two components")
    master = _read_key_pair(reader, modulus, dim)
    components = tuple(_read_key_pair(reader, modulus, dim, i)
                       for i in range(1, count + 1))
    reader.finish()
    if master != reduce(compose, components):
        raise MalformedFileError(
            "master key is not the product of the components in file order")
    return KeySet(modulus, components, master)


def write_text(path, text):
    """Overwrite path in place, then cut a regular file to the text's length
    (devices and pipes, which ignore O_TRUNC, refuse truncate())."""
    data = text.encode("ascii")
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
        fh.write(data)
        if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
            fh.truncate()


def read_key(path):
    with open(path, "rb") as fh:
        return parse_key(fh.read().decode("ascii"))


def write_key(path, key):
    write_text(path, serialize_key(key))


def read_ciphertext(path):
    with open(path, "rb") as fh:
        return parse_ciphertext(fh.read().decode("ascii"))


def write_ciphertext(path, ct, modulus):
    write_text(path, serialize_ciphertext(ct, modulus))
