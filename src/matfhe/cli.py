"""Command-line front end.

Each invocation is a single process with no shared state. Exit codes:
0 success, 1 generic failure, 2 bad parameters, 3 generation failure,
4 malformed file, 5 plaintext out of range, 6 formula syntax error,
7 unbound formula input; main maps each typed error to its code.
Values go to standard output, diagnostics to standard error.
"""

import argparse
import collections
import functools
import itertools
import random
import sys
import time

from . import formats
from .analysis import (brute_force_cost, invertibility_experiment,
                       kpa_collision_estimate)
from .cipher import _draw_enc4, dec, enc4, encrypt_value
from .evaluate import (CipherEnv, ExprSyntaxError, UnboundInputError,
                       eval_expr, parse_expr)
from .formats import MalformedFileError
from .keys import KEY_DIMS, keygen4, keygen8, keyset_gen
from .matrix import mat_add, mat_mul
from .protocol import ProtocolError, run_protocol, serialize_transcript
from .ring import GenerationError, ParameterError, PlaintextRangeError


def _parse_int_csv(text, what):
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ParameterError(f"{what} must be comma-separated integers") from None


def _check_printable(n):
    """Refuse an N of more digits than str() converts. An N of at most
    3 * limit bits passes without 10^limit: 2^(3 * limit) < 10^limit."""
    limit = getattr(sys, "get_int_max_str_digits", int)()  # 0: no limit
    if limit and n.bit_length() > 3 * limit and n >= 10 ** limit:
        raise ParameterError(f"N has more than {limit} digits, the most "
                             "this interpreter writes as text")


def cmd_keygen(args):
    rng = random.Random(args.seed)
    gen = keygen4 if args.dim == 4 else keygen8
    key = gen(args.m, args.bits, rng)
    _check_printable(key.modulus.n)
    formats.write_key(args.out, key)
    return 0


def cmd_encrypt(args):
    key = formats.read_key(args.key)
    ct = encrypt_value(args.value, key, random.Random(args.seed))
    formats.write_ciphertext(args.out, ct, key.modulus)
    return 0


def _read_matching_ciphertext(path, key):
    ct, _, _, n = formats.read_ciphertext(path)
    if n != key.modulus.n or ct.dim != key.dim:
        raise ParameterError(
            f"ciphertext {path} does not match the key (N or dim differs)")
    return ct


def cmd_decrypt(args):
    key = formats.read_key(args.key)
    ct = _read_matching_ciphertext(args.infile, key)
    print(dec(ct, key))
    return 0


def cmd_eval(args):
    key = formats.read_key(args.key)
    bindings = {}
    for item in args.inputs or ():
        name, sep, path = item.partition("=")
        if not sep or not name:
            raise ParameterError(f"--input must be name=ctfile, got {item!r}")
        if name in bindings:
            raise ParameterError(f"--input {name} is given twice")
        bindings[name] = _read_matching_ciphertext(path, key)
    ast = parse_expr(args.expr)
    env = CipherEnv(bindings=bindings, key=key, rng=random.Random(args.seed))
    result = eval_expr(ast, env)
    formats.write_ciphertext(args.out, result, key.modulus)
    return 0


def cmd_protocol_demo(args):
    data = _parse_int_csv(args.data, "--data")
    rng = random.Random(args.seed)
    keyset = keyset_gen(4, 3, args.m, args.bits, rng)
    _check_printable(keyset.modulus.n)
    result, transcript = run_protocol(args.formula, data, keyset, rng)
    formats.write_text(args.transcript, serialize_transcript(transcript))
    print(result)
    return 0


def cmd_analyze_invertibility(args):
    moduli = _parse_int_csv(args.n, "--n")
    rng = random.Random(args.seed)
    table = invertibility_experiment(moduli, args.samples, args.repeats, rng)
    print("n,trial,invertible")
    for n in moduli:
        for trial, count in enumerate(table[n]):
            print(f"{n},{trial},{count}")
    return 0


def cmd_analyze_kpa(args):
    rng = random.Random(args.seed)
    candidates = _parse_int_csv(args.factors, "--factors") if args.factors else None
    key = keygen4(args.m, args.bits, rng, candidates=candidates)
    n = key.modulus.n
    _check_printable(n)
    x = args.x if args.x is not None else rng.randrange(n)
    fraction = kpa_collision_estimate(key, x, args.trials, rng)
    hits = round(fraction * args.trials)
    print("N,m,trials,hits,fraction")
    print(f"{n},{key.modulus.m},{args.trials},{hits},{fraction:g}")
    return 0


def cmd_analyze_cost(args):
    cost = brute_force_cost(args.bits_of_n, args.dim)
    print("bits,dim,log2_cost")
    print(f"{args.bits_of_n},{args.dim},{cost:g}")
    return 0


def _one_batch(fn, fn_args, calls):
    """Seconds per call for one batch of `calls` invocations.

    The batch is drained through map() into a zero-length deque so the
    measured interval holds no interpreter-level loop; a Python for loop
    would add more overhead per call than the cheapest operation costs.
    """
    iters = [itertools.repeat(v, calls) for v in fn_args]
    start = time.perf_counter()
    collections.deque(map(fn, *iters), maxlen=0)
    end = time.perf_counter()
    return (end - start) / calls


def cmd_bench(args):
    # Imported here, its only use, so no other command's process loads
    # statistics with the fractions and decimal modules it imports.
    from statistics import median
    if args.reps < 1:
        raise ParameterError("--reps must be >= 1")
    rng = random.Random(args.seed)
    key = keygen4(args.m, args.bits, rng)
    n = key.modulus.n
    x1 = rng.randrange(n)
    x2 = rng.randrange(n)
    c1 = enc4(x1, key, rng)
    c2 = enc4(x2, key, rng)
    # Each rep times every row once, in order, so a host frequency shift
    # mid-run lands on all rows instead of skewing their ratios (criterion
    # 10's mul/add above all). add and mul are timed on the ciphertext
    # matrices themselves: the homomorphic wrappers add identical constant
    # overhead to both sides.
    rows = (
        ("keygen", keygen4, (args.m, args.bits, rng), 20, 1),
        ("coins", next, (_draw_enc4(
            itertools.repeat(x1), n, key.modulus.m, rng),), 50, 1),
        ("enc", enc4, (x1, key, rng), 50, 1),
        ("dec", dec, (c1, key), 50, 1),
        ("add", mat_add, (c1.body, c2.body), 3000, 1),
        ("mul", mat_mul, (c1.body, c2.body), 700, 1),
        # A computation center's formula: 14 operators, 6 deep.
        ("parse", parse_expr, ("((((((a17*a2)+a1)-a23)*(a20*a24))*a27)"
                               "-(((a15+a14)+(a11-(a11+a8)))"
                               "+((a28+a26)*a23)))",), 50, 1),
        ("trial", kpa_collision_estimate, (key, x1, 1000, rng), 1, 1000),
    )
    times = [[_one_batch(fn, fn_args, calls) / ops
              for _, fn, fn_args, calls, ops in rows]
             for _ in range(args.reps)]
    print("operation\tmedian_us")
    for (name, *_), row_times in zip(rows, zip(*times)):
        print(f"{name}\t{median(row_times) * 1e6:.3f}")
    return 0


def cmd_verify(args):
    key = formats.read_key(args.key)
    if key.verify():
        print("OK")
        return 0
    print("FAIL: k * kinv is not the identity", file=sys.stderr)
    return 1


@functools.cache  # parse_args returns a fresh namespace on every call
def _build_parser():
    parser = argparse.ArgumentParser(
        prog="matfhe",
        description="Matrix-conjugation homomorphic encryption toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("keygen", help="generate a key file")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--lambda", dest="bits", type=int, required=True)
    p.add_argument("--dim", type=int, choices=KEY_DIMS, default=4)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_keygen)

    p = sub.add_parser("encrypt", help="encrypt one value")
    p.add_argument("--key", required=True)
    p.add_argument("--value", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_encrypt)

    p = sub.add_parser("decrypt", help="decrypt one ciphertext file")
    p.add_argument("--key", required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.set_defaults(func=cmd_decrypt)

    p = sub.add_parser("eval", help="evaluate a formula over ciphertext files")
    p.add_argument("--key", required=True)
    p.add_argument("--expr", required=True)
    p.add_argument("--input", dest="inputs", action="append", metavar="NAME=CTFILE")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("protocol-demo", help="run the four-party protocol")
    p.add_argument("--f", dest="formula", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--lambda", dest="bits", type=int, default=16)
    p.add_argument("--seed", type=int)
    p.add_argument("--transcript", default="transcript.log")
    p.set_defaults(func=cmd_protocol_demo)

    p = sub.add_parser("analyze", help="run an experiment, emit CSV")
    asub = p.add_subparsers(dest="experiment", required=True)

    q = asub.add_parser("invertibility", help="invertible fraction of random matrices")
    q.add_argument("--n", required=True, help="comma-separated moduli")
    q.add_argument("--samples", type=int, default=100)
    q.add_argument("--repeats", type=int, default=5)
    q.add_argument("--seed", type=int)
    q.set_defaults(func=cmd_analyze_invertibility)

    q = asub.add_parser("kpa", help="ciphertext collision rate estimate")
    q.add_argument("--trials", type=int, required=True)
    q.add_argument("--m", type=int, required=True)
    q.add_argument("--lambda", dest="bits", type=int, default=16)
    q.add_argument("--factors", help="comma-separated injected factors")
    q.add_argument("--x", type=int)
    q.add_argument("--seed", type=int)
    q.set_defaults(func=cmd_analyze_kpa)

    q = asub.add_parser("cost", help="brute force cost exponent")
    q.add_argument("--bits", dest="bits_of_n", type=int, required=True)
    q.add_argument("--dim", type=int, required=True)
    q.set_defaults(func=cmd_analyze_cost)

    p = sub.add_parser("bench", help="time the core operations")
    p.add_argument("--lambda", dest="bits", type=int, required=True)
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--reps", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("verify", help="check a key file's internal consistency")
    p.add_argument("--key", required=True)
    p.set_defaults(func=cmd_verify)

    return parser


# The exit code for each error a command raises; the first match wins, so
# PlaintextRangeError precedes the ParameterError it is, and the ValueErrors
# ParameterError, MalformedFileError and ExprSyntaxError precede ValueError.
_EXIT_CODES = (
    (PlaintextRangeError, 5), (ParameterError, 2), (GenerationError, 3),
    (MalformedFileError, 4), (OSError, 4), (ExprSyntaxError, 6),
    (UnboundInputError, 7), (ProtocolError, 2), (ValueError, 1))


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except tuple(kind for kind, _ in _EXIT_CODES) as err:
        print(f"error: {err}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES
                    if isinstance(err, kind))
