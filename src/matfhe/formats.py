"""On-disk text formats for keys and ciphertexts.

Every file is line-oriented ASCII: a versioned header, then key=value
lines in a fixed order. Newlines are LF, no trailing whitespace, all
integers decimal. parse(serialize(x)) is the identity byte for byte.

Key files carry the factors f_i (secret material the CRT step needs);
ciphertext files carry only the public modulus N.

Writing serializes first, so a refused object leaves the file as it was,
then overwrites the file in place (symlinks and hard links keep sharing
it) and cuts it to length. Reading refuses a non-ASCII byte, then checks
every line name in order, and that none is missing or left over, before
any value. It checks each integer line whole (ASCII digits and commas, no
empty entry); a refused line, or one with an integer too long for int(),
is walked entry by entry only to name the bad entry.
"""

import os
import stat

from .cipher import Ciphertext
from .keys import KEY_DIMS, KeyTuple
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
    try:
        return int(text)
    except ValueError:  # more digits than the interpreter converts
        raise MalformedFileError(f"bad {what}: {len(text)} digits") from None


def _parse_int_list(text, what):
    parts = text.split(",")
    if (text.isascii() and text.encode("ascii").replace(b",", b"").isdigit()
            and "" not in parts):
        try:
            return tuple(map(int, parts))
        except ValueError:  # an entry too long to convert, named below
            pass
    return tuple(_parse_int(part, what) for part in parts)  # names the bad entry


def _parse_dim(text, what):
    dim = _parse_int(text, "dim")
    if dim not in KEY_DIMS:
        raise MalformedFileError(f"bad {what} dimension {dim}")
    return dim


# Line names after the header, in file order.
_KEY = ("m", "lambda", "f", "N", "dim", "k", "kinv")
_CT = ("m", "lambda", "N", "dim", "c")


def _text(kind, names, values):
    fields = zip(names, values, strict=True)
    return f"MATFHE-{kind} {_VERSION}\n" + "".join(f"{n}={v}\n" for n, v in fields)


def _lines(text, kind):
    """The lines after the header, once the final newline and the header
    are checked."""
    if not text.endswith("\n"):
        raise MalformedFileError("missing final newline")
    header, *lines = text[:-1].split("\n")
    expected = f"MATFHE-{kind} {_VERSION}"
    if header != expected:
        raise MalformedFileError(f"bad header {header!r}, expected {expected!r}")
    return lines


def _values(lines, names):
    """The text after each name= prefix, once each line is checked to carry
    the next name and no line is missing or left over."""
    values = []
    for name in names:
        if len(values) == len(lines):
            raise MalformedFileError("unexpected end of file")
        line = lines[len(values)]
        if not line.startswith(name + "="):
            raise MalformedFileError(f"expected {name}= line, got {line!r}")
        values.append(line[len(name) + 1:])
    if len(values) < len(lines):
        raise MalformedFileError(f"trailing data: {lines[len(values)]!r}")
    return values


def serialize_key(key):
    mod, f = key.modulus, ",".join(map(str, key.modulus.f))
    return _text("KEY", _KEY, (mod.m, mod.bits, f, mod.n, key.dim,
                               entries_text(key.k), entries_text(key.k_inv)))


def parse_key(text):
    m, bits, f, n, dim, k, k_inv = _values(_lines(text, "KEY"), _KEY)
    m, bits = _parse_int(m, "m"), _parse_int(bits, "lambda")
    f, n = _parse_int_list(f, "factor"), _parse_int(n, "N")
    try:
        modulus = RingModulus(m=m, bits=bits, p=None, q=None, f=f, n=n)
    except ValueError as err:
        raise MalformedFileError(str(err)) from err
    dim = _parse_dim(dim, "key")
    return KeyTuple(modulus, matrix_from_text(k, dim, modulus.n),
                    matrix_from_text(k_inv, dim, modulus.n))


def serialize_ciphertext(ct, modulus):
    """Ciphertext file. Stores the public N only, never the factors."""
    if ct.modulus != modulus.n:
        raise ValueError("ciphertext and modulus disagree")
    return _text("CT", _CT, (modulus.m, modulus.bits, modulus.n, ct.dim,
                             entries_text(ct.body)))


def parse_ciphertext(text):
    """Returns (Ciphertext, m, bits, n). Factors are not in the file."""
    m, bits, n, dim, c = _values(_lines(text, "CT"), _CT)
    m, bits, n = _parse_int(m, "m"), _parse_int(bits, "lambda"), _parse_int(n, "N")
    body = matrix_from_text(c, _parse_dim(dim, "ciphertext"), n)
    return Ciphertext(body), m, bits, n


def write_text(path, text):
    """Overwrite path in place, then cut a regular file to the text's length
    (devices and pipes, which ignore O_TRUNC, refuse truncate())."""
    data = text.encode("ascii")
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
        fh.write(data)
        if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
            fh.truncate()


def _read_text(path):
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("ascii")
    except UnicodeDecodeError as err:
        raise MalformedFileError(f"non-ASCII byte 0x{data[err.start]:02x} "
                                 f"at offset {err.start}") from err


def read_key(path):
    return parse_key(_read_text(path))


def write_key(path, key):
    write_text(path, serialize_key(key))


def read_ciphertext(path):
    return parse_ciphertext(_read_text(path))


def write_ciphertext(path, ct, modulus):
    write_text(path, serialize_ciphertext(ct, modulus))
