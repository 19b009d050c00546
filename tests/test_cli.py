"""End-to-end tests of the command line, one subprocess per invocation.

Everything here goes through `python -m matfhe` exactly as a user would,
so these tests also pin the exit-code contract: 0 success, 2 parameters,
3 generation, 4 file, 5 range, 6 syntax, 7 unbound input. The in-process
tests at the end call cli.main directly, as a caller reusing one
interpreter would.
"""

import hashlib
import math
import os
import subprocess
import sys

import pytest

from conftest import FIXTURE_DIR, child_env

from matfhe import cli

KEY_A = os.path.join(FIXTURE_DIR, "key_a.key")
KEY_B = os.path.join(FIXTURE_DIR, "key_b.key")
CT_A257 = os.path.join(FIXTURE_DIR, "ct_a_257.ct")
CT_B5 = os.path.join(FIXTURE_DIR, "ct_b_5.ct")
CT_B12 = os.path.join(FIXTURE_DIR, "ct_b_12.ct")


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "matfhe", *[str(a) for a in args]],
        capture_output=True, text=True, cwd=cwd, env=child_env())


# --- keygen / encrypt / decrypt ---


def test_keygen_encrypt_decrypt_round_trip(tmp_path):
    key = tmp_path / "t.key"
    ct = tmp_path / "t.ct"
    r = run_cli("keygen", "--m", 2, "--lambda", 16, "--seed", 1, "--out", key)
    assert r.returncode == 0, r.stderr
    r = run_cli("encrypt", "--key", key, "--value", 4242, "--seed", 2, "--out", ct)
    assert r.returncode == 0, r.stderr
    r = run_cli("decrypt", "--key", key, "--in", ct)
    assert r.returncode == 0, r.stderr
    assert r.stdout == "4242\n"


def test_keygen_deterministic_under_seed(tmp_path):
    one = tmp_path / "one.key"
    two = tmp_path / "two.key"
    three = tmp_path / "three.key"
    assert run_cli("keygen", "--m", 2, "--lambda", 16, "--seed", 7, "--out", one).returncode == 0
    assert run_cli("keygen", "--m", 2, "--lambda", 16, "--seed", 7, "--out", two).returncode == 0
    assert run_cli("keygen", "--m", 2, "--lambda", 16, "--seed", 8, "--out", three).returncode == 0
    assert one.read_bytes() == two.read_bytes()
    assert one.read_bytes() != three.read_bytes()


def test_keygen_dim8(tmp_path):
    key = tmp_path / "t.key"
    ct = tmp_path / "t.ct"
    assert run_cli("keygen", "--m", 3, "--lambda", 16, "--dim", 8,
                   "--seed", 1, "--out", key).returncode == 0
    assert "dim=8" in key.read_text()
    assert run_cli("encrypt", "--key", key, "--value", 99, "--seed", 2,
                   "--out", ct).returncode == 0
    r = run_cli("decrypt", "--key", key, "--in", ct)
    assert r.stdout == "99\n"


def test_encrypt_deterministic_under_seed(tmp_path):
    one = tmp_path / "one.ct"
    two = tmp_path / "two.ct"
    fresh = tmp_path / "fresh.ct"
    for out, seed in [(one, 3), (two, 3), (fresh, 4)]:
        assert run_cli("encrypt", "--key", KEY_A, "--value", 257, "--seed", seed,
                       "--out", out).returncode == 0
    assert one.read_bytes() == two.read_bytes()
    assert one.read_bytes() != fresh.read_bytes()


@pytest.mark.parametrize("ct,key,value", [
    (CT_A257, KEY_A, "257"),
    (CT_B5, KEY_B, "5"),
    (CT_B12, KEY_B, "12"),
])
def test_decrypt_golden_fixtures(ct, key, value):
    r = run_cli("decrypt", "--key", key, "--in", ct)
    assert r.returncode == 0
    assert r.stdout == value + "\n"


# --- verify ---


def test_verify_ok():
    r = run_cli("verify", "--key", KEY_A)
    assert r.returncode == 0
    assert r.stdout == "OK\n"


def test_verify_detects_tampering(tmp_path):
    with open(KEY_A, encoding="ascii", newline="") as fh:
        text = fh.read()
    bad = tmp_path / "bad.key"
    bad.write_text(text.replace("kinv=333,", "kinv=334,"), encoding="ascii")
    r = run_cli("verify", "--key", bad)
    assert r.returncode == 1
    assert "FAIL" in r.stderr
    assert r.stdout == ""


# --- eval ---


def test_eval_sum_of_fixtures(tmp_path):
    out = tmp_path / "sum.ct"
    r = run_cli("eval", "--key", KEY_B, "--expr", "a+b",
                "--input", f"a={CT_B5}", "--input", f"b={CT_B12}",
                "--out", out)
    assert r.returncode == 0, r.stderr
    r = run_cli("decrypt", "--key", KEY_B, "--in", out)
    assert r.stdout == "17\n"


def test_eval_with_constant(tmp_path):
    out = tmp_path / "r.ct"
    r = run_cli("eval", "--key", KEY_B, "--expr", "a*2+1",
                "--input", f"a={CT_B5}", "--seed", 1, "--out", out)
    assert r.returncode == 0, r.stderr
    r = run_cli("decrypt", "--key", KEY_B, "--in", out)
    assert r.stdout == "11\n"


def test_eval_compound(tmp_path):
    out = tmp_path / "r.ct"
    r = run_cli("eval", "--key", KEY_B, "--expr", "(a+b)*a-b",
                "--input", f"a={CT_B5}", "--input", f"b={CT_B12}",
                "--out", out)
    assert r.returncode == 0, r.stderr
    r = run_cli("decrypt", "--key", KEY_B, "--in", out)
    assert r.stdout == f"{((5 + 12) * 5 - 12) % 1155}\n"


def test_eval_syntax_error_exit_6():
    r = run_cli("eval", "--key", KEY_B, "--expr", "a+*b",
                "--input", f"a={CT_B5}", "--out", "unused.ct")
    assert r.returncode == 6
    assert "offset 2" in r.stderr


@pytest.mark.parametrize("expr, offset", [
    ("+".join(["a"] * 1500), 401),
    ("(" * 400 + "a" + ")" * 400, 200),
], ids=["sum-1500", "parens-400"])
def test_eval_too_deep_formula_exit_6(tmp_path, expr, offset):
    out = tmp_path / "r.ct"
    r = run_cli("eval", "--key", KEY_B, "--expr", expr,
                "--input", f"a={CT_B5}", "--out", out)
    assert r.returncode == 6, r.stderr
    assert f"at most 200 levels of nesting at offset {offset}" in r.stderr
    assert "Traceback" not in r.stderr and not out.exists()


def test_eval_formula_at_the_depth_limit(tmp_path):
    out = tmp_path / "r.ct"
    r = run_cli("eval", "--key", KEY_B, "--expr", "+".join(["a"] * 201),
                "--input", f"a={CT_B5}", "--out", out)
    assert r.returncode == 0, r.stderr
    r = run_cli("decrypt", "--key", KEY_B, "--in", out)
    assert r.stdout == f"{5 * 201 % 1155}\n"


def test_eval_unbound_input_exit_7():
    r = run_cli("eval", "--key", KEY_B, "--expr", "a+zz",
                "--input", f"a={CT_B5}", "--out", "unused.ct")
    assert r.returncode == 7
    assert "zz" in r.stderr


def test_eval_bad_input_argument_exit_2(tmp_path):
    r = run_cli("eval", "--key", KEY_B, "--expr", "a",
                "--input", "a_no_equals", "--out", tmp_path / "r.ct")
    assert r.returncode == 2
    assert "name=ctfile" in r.stderr


def test_eval_repeated_input_name_exit_2(tmp_path):
    out = tmp_path / "r.ct"
    r = run_cli("eval", "--key", KEY_B, "--expr", "a",
                "--input", f"a={CT_B5}", "--input", f"a={CT_B12}",
                "--out", out)
    assert r.returncode == 2
    assert "--input a is given twice" in r.stderr
    assert not out.exists()



# --- error paths shared by file commands ---


def test_encrypt_value_out_of_range_exit_5(tmp_path):
    r = run_cli("encrypt", "--key", KEY_A, "--value", 1155,
                "--out", tmp_path / "r.ct")
    assert r.returncode == 5
    assert "not below N=1155" in r.stderr


def test_encrypt_negative_value_exit_2(tmp_path):
    r = run_cli("encrypt", "--key", KEY_A, "--value", -1,
                "--out", tmp_path / "r.ct")
    assert r.returncode == 2


def test_missing_file_exit_4(tmp_path):
    r = run_cli("decrypt", "--key", tmp_path / "nope.key", "--in", CT_A257)
    assert r.returncode == 4


def test_malformed_file_exit_4(tmp_path):
    bad = tmp_path / "bad.key"
    bad.write_text("MATFHE-KEY v9\n", encoding="ascii")
    r = run_cli("decrypt", "--key", bad, "--in", CT_A257)
    assert r.returncode == 4
    assert "bad header" in r.stderr


def test_mismatched_ciphertext_exit_2(tmp_path):
    key = tmp_path / "other.key"
    assert run_cli("keygen", "--m", 1, "--lambda", 16, "--seed", 1,
                   "--out", key).returncode == 0
    r = run_cli("decrypt", "--key", key, "--in", CT_A257)
    assert r.returncode == 2
    assert "does not match" in r.stderr


def test_keygen_bad_params_exit_2(tmp_path):
    assert run_cli("keygen", "--m", 0, "--lambda", 16,
                   "--out", tmp_path / "k").returncode == 2
    assert run_cli("keygen", "--m", 2, "--lambda", 7,
                   "--out", tmp_path / "k").returncode == 2


def test_keygen_exhaustion_exit_3(tmp_path):
    # 40 pairwise coprime 4-bit odd numbers do not exist, so the sampler
    # must run out of its retry budget.
    r = run_cli("keygen", "--m", 40, "--lambda", 8, "--seed", 1,
                "--out", tmp_path / "k")
    assert r.returncode == 3


def test_keygen_n_past_the_digit_limit_exit_2(tmp_path):
    # An N of about 14,400 bits has about 4,335 digits, more than str()
    # converts under the default limit of 4,300; the key file is never
    # opened.
    key = tmp_path / "k.key"
    r = run_cli("keygen", "--m", 1, "--lambda", 14400, "--seed", 1,
                "--out", key)
    assert r.returncode == 2
    assert f"more than {sys.get_int_max_str_digits()} digits" in r.stderr
    assert not key.exists()



def test_missing_subcommand_args_exit_2():
    r = run_cli("keygen")
    assert r.returncode == 2


# --- protocol-demo ---


def test_protocol_demo_sum(tmp_path):
    log = tmp_path / "t.log"
    r = run_cli("protocol-demo", "--f", "x1+x2", "--data", "5,12",
                "--seed", 5, "--transcript", log, cwd=tmp_path)
    assert r.returncode == 0, r.stderr
    assert r.stdout == "17\n"
    lines = log.read_text(encoding="ascii").splitlines()
    assert lines[0] == "data_user\tdelegator\tformula\t(x1+x2)"
    assert lines[-1] == "result\t17"


def test_protocol_demo_deterministic(tmp_path):
    one = tmp_path / "one.log"
    two = tmp_path / "two.log"
    for log in (one, two):
        r = run_cli("protocol-demo", "--f", "(x1+x2)*x3", "--data", "3,4,5",
                    "--seed", 9, "--transcript", log, cwd=tmp_path)
        assert r.returncode == 0, r.stderr
        assert r.stdout == "35\n"
    assert one.read_bytes() == two.read_bytes()


def test_protocol_demo_rejects_constants(tmp_path):
    r = run_cli("protocol-demo", "--f", "x1+3", "--data", "5",
                "--transcript", tmp_path / "t.log", cwd=tmp_path)
    assert r.returncode == 2


def test_protocol_demo_noncanonical_input_name_exit_2(tmp_path):
    # x01 names index 1, but its operand is bound as x1: the gate refuses
    # it before the owner encrypts, so no transcript is written.
    log = tmp_path / "t.log"
    r = run_cli("protocol-demo", "--f", "x01", "--data", "5,6",
                "--transcript", log, cwd=tmp_path)
    assert r.returncode == 2
    assert "must be named x1, x2" in r.stderr
    assert not log.exists()


def test_protocol_demo_long_input_name_exit_2(tmp_path):
    # 4,400 digits is past int()'s conversion limit: the gate refuses the
    # name as outside the table without converting it.
    log = tmp_path / "t.log"
    r = run_cli("protocol-demo", "--f", "x" + "1" * 4400, "--data", "5",
                "--transcript", log, cwd=tmp_path)
    assert r.returncode == 2, r.stderr
    assert "outside the data table" in r.stderr
    assert "Exceeds the limit" not in r.stderr
    assert not log.exists()


@pytest.mark.parametrize("name", ["x" + "1" * 4400, "y" + "1" * 4400])
def test_protocol_demo_long_input_name_is_cut_in_the_message(tmp_path,
                                                              name):
    # Both refusals of a name cut it: stderr stays one short line.
    r = run_cli("protocol-demo", "--f", name, "--data", "5",
                "--transcript", tmp_path / "t.log", cwd=tmp_path)
    assert r.returncode == 2
    assert len(r.stderr.encode()) < 200, r.stderr
    assert f"'{name[:5]}...' (4401 characters)" in r.stderr


def test_protocol_demo_datum_out_of_range_exit_5(tmp_path):
    # At m=1, lambda=8 the modulus is at most 15 * 13 = 195.
    r = run_cli("protocol-demo", "--f", "x1", "--data", "100000",
                "--m", 1, "--lambda", 8, "--seed", 1,
                "--transcript", tmp_path / "t.log", cwd=tmp_path)
    assert r.returncode == 5


def test_protocol_demo_negative_datum_exit_5(tmp_path):
    r = run_cli("protocol-demo", "--f", "x1", "--data", "-1",
                "--transcript", tmp_path / "t.log", cwd=tmp_path)
    assert r.returncode == 5
    assert "datum -1" in r.stderr and "not below" not in r.stderr


def test_protocol_demo_bad_params_exit_2(tmp_path):
    for args in (("--m", 0), ("--lambda", 9)):
        r = run_cli("protocol-demo", "--f", "x1", "--data", "5", *args,
                    "--transcript", tmp_path / "t.log", cwd=tmp_path)
        assert r.returncode == 2


def test_protocol_demo_bad_data_exit_2(tmp_path):
    r = run_cli("protocol-demo", "--f", "x1", "--data", "5,x",
                "--transcript", tmp_path / "t.log", cwd=tmp_path)
    assert r.returncode == 2


# --- analyze ---


def test_analyze_cost():
    r = run_cli("analyze", "cost", "--bits", 10, "--dim", 4)
    assert r.returncode == 0
    assert r.stdout == "bits,dim,log2_cost\n10,4,164\n"


def test_analyze_cost_bad_params_exit_2():
    assert run_cli("analyze", "cost", "--bits", 0, "--dim", 4).returncode == 2
    assert run_cli("analyze", "cost", "--bits", 4, "--dim", 0).returncode == 2


def test_analyze_invertibility_csv(tmp_path):
    r = run_cli("analyze", "invertibility", "--n", "1155,77",
                "--samples", 50, "--repeats", 3, "--seed", 2)
    assert r.returncode == 0, r.stderr
    lines = r.stdout.splitlines()
    assert lines[0] == "n,trial,invertible"
    assert len(lines) == 1 + 2 * 3
    for n in (1155, 77):
        rows = [l for l in lines[1:] if l.startswith(f"{n},")]
        assert [int(l.split(",")[1]) for l in rows] == [0, 1, 2]
        assert all(0 <= int(l.split(",")[2]) <= 50 for l in rows)


def test_analyze_invertibility_deterministic():
    one = run_cli("analyze", "invertibility", "--n", "1155",
                  "--samples", 30, "--repeats", 2, "--seed", 4)
    two = run_cli("analyze", "invertibility", "--n", "1155",
                  "--samples", 30, "--repeats", 2, "--seed", 4)
    assert one.stdout == two.stdout
    assert one.returncode == two.returncode == 0


def test_analyze_invertibility_bad_params_exit_2():
    assert run_cli("analyze", "invertibility", "--n", "1155",
                   "--samples", 0).returncode == 2
    assert run_cli("analyze", "invertibility", "--n", "1155",
                   "--repeats", 0).returncode == 2
    assert run_cli("analyze", "invertibility", "--n", "1,5").returncode == 2


def test_analyze_invertibility_repeated_modulus_exit_2():
    # Counts are keyed by modulus: a repeat would print the last run's
    # counts twice and lose the first's.
    r = run_cli("analyze", "invertibility", "--n", "1155,1155",
                "--samples", 50, "--repeats", 2, "--seed", 1)
    assert r.returncode == 2
    assert r.stdout == ""
    assert "moduli must not repeat" in r.stderr


def test_analyze_kpa_toy_modulus():
    # N = 21, m = 1: every fresh encryption has exactly 60 equally likely
    # coin pairs, so the collision fraction sits near 1/60 for any target.
    trials = 30000
    r = run_cli("analyze", "kpa", "--trials", trials, "--m", 1,
                "--lambda", 8, "--factors", "3,7", "--seed", 6)
    assert r.returncode == 0, r.stderr
    lines = r.stdout.splitlines()
    assert lines[0] == "N,m,trials,hits,fraction"
    n, m, t, hits, fraction = lines[1].split(",")
    assert (n, m, t) == ("21", "1", str(trials))
    p = 1 / 60
    sigma = math.sqrt(p * (1 - p) / trials)
    assert abs(float(fraction) - p) < 3 * sigma
    assert int(hits) == round(float(fraction) * trials)
    # The seeded coin stream, pinned: a change in how coins are drawn
    # moves this count.
    assert int(hits) == 505


def test_analyze_kpa_bad_params_exit_2():
    assert run_cli("analyze", "kpa", "--trials", 0, "--m", 1).returncode == 2
    assert run_cli("analyze", "kpa", "--trials", 10, "--m", 1,
                   "--factors", "3,7", "--x", 21).returncode == 2
    assert run_cli("analyze", "kpa", "--trials", 10, "--m", 1,
                   "--lambda", 9).returncode == 2


# --- bench ---


def test_bench_output_shape():
    r = run_cli("bench", "--lambda", 12, "--reps", 3, "--seed", 0)
    assert r.returncode == 0, r.stderr
    lines = r.stdout.splitlines()
    assert lines[0] == "operation\tmedian_us"
    rows = dict(line.split("\t") for line in lines[1:])
    assert list(rows) == ["keygen", "coins", "enc", "dec", "add", "mul",
                          "trial"]
    times = {name: float(value) for name, value in rows.items()}
    assert all(value > 0 for value in times.values())
    assert times["add"] < times["mul"]


def test_bench_bad_params_exit_2():
    assert run_cli("bench", "--lambda", 9).returncode == 2
    # Caught before any timing: an empty median would otherwise exit 1.
    for reps in (0, -3):
        r = run_cli("bench", "--lambda", 12, "--reps", reps)
        assert r.returncode == 2
        assert "--reps must be >= 1" in r.stderr


# --- seeded outputs, pinned byte for byte ---


def sha256_of(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("dim,bits,seed,digest", [
    (8, 256, 7, "d1c2ec75ac4b8f40cc5f08ffa52ebd8446740eb95a8f769d9a856decfae045c1"),
    (4, 16, 3, "440b8c2aa145b34602adb0fbaa35b4d4bd8a3bc19d9d79dd76dcc1aa62429ca9"),
])
def test_seeded_keygen_is_pinned(tmp_path, dim, bits, seed, digest):
    key = tmp_path / "t.key"
    r = run_cli("keygen", "--dim", dim, "--m", 2, "--lambda", bits,
                "--seed", seed, "--out", key)
    assert r.returncode == 0, r.stderr
    assert sha256_of(key) == digest


@pytest.mark.parametrize("dim,expr,digest", [
    (4, None, "cb71ea1e0eac713e067eadd73c975ba625e4279c4b77291d5675a34ccb9749ec"),
    (8, None, "54890c8f5ce48a903e24b43d866786c94e507f03562b45cf4225b6ed939def37"),
    (8, "a*2+1", "119263209eb9fa2bfd152dbd44bd8efa537111ebeb73e9f6922c9cbc0f7784b2"),
])
def test_seeded_encryption_is_pinned(tmp_path, dim, expr, digest):
    # Dim 8 runs under the pinned dim 8 key above; the constant in expr
    # is encrypted from the eval seed.
    key = KEY_A
    if dim == 8:
        key = tmp_path / "t.key"
        assert run_cli("keygen", "--dim", 8, "--m", 2, "--lambda", 256,
                       "--seed", 7, "--out", key).returncode == 0
    ct = tmp_path / "t.ct"
    r = run_cli("encrypt", "--key", key, "--value", 257, "--seed", 3,
                "--out", ct)
    assert r.returncode == 0, r.stderr
    if expr is not None:
        out = tmp_path / "e.ct"
        r = run_cli("eval", "--key", key, "--expr", expr,
                    "--input", f"a={ct}", "--seed", 1, "--out", out)
        assert r.returncode == 0, r.stderr
        ct = out
    assert sha256_of(ct) == digest


def test_seeded_protocol_transcript_is_pinned(tmp_path):
    log = tmp_path / "t.log"
    r = run_cli("protocol-demo", "--f", "(x1*x2)+x3", "--data", "5,6,7,8",
                "--seed", 3, "--transcript", log, cwd=tmp_path)
    assert r.returncode == 0, r.stderr
    assert r.stdout == "37\n"
    assert sha256_of(log) == (
        "0b5a521149bd7350750eb54a6b282f05054d258a6b4b185ea39fd842f527ea4c")


# --- in-process: one parser per process, no parsed state carried over ---


def test_parser_reuse_carries_no_inputs(tmp_path, capsys):
    out = tmp_path / "r.ct"
    assert cli.main(["eval", "--key", KEY_B, "--expr", "a+a",
                     "--input", f"a={CT_B5}", "--out", str(out)]) == 0
    # The same cached parser, and no --input: a must be unbound again.
    assert cli.main(["eval", "--key", KEY_B, "--expr", "a",
                     "--out", str(tmp_path / "s.ct")]) == 7
    assert not (tmp_path / "s.ct").exists()
    assert cli.main(["decrypt", "--key", KEY_B, "--in", str(out)]) == 0
    assert capsys.readouterr().out == "10\n"


def test_parser_reuse_keeps_usage_errors(capsys):
    errors = []
    for _ in range(2):
        with pytest.raises(SystemExit) as info:
            cli.main(["keygen"])
        assert info.value.code == 2
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1]
    assert errors[0].startswith("usage: matfhe keygen")


# --- in-process: bench through a batch timer that logs what it times ---


def test_bench_reps_time_every_row_in_order(monkeypatch, capsys):
    timed = []

    def log_batch(fn, fn_args, calls):
        timed.append(fn)
        return 1e-6

    monkeypatch.setattr(cli, "_one_batch", log_batch)
    assert cli.main(["bench", "--lambda", "12", "--reps", "2"]) == 0
    rows = [cli.keygen4, next, cli.enc4, cli.dec, cli.mat_add, cli.mat_mul,
            cli.kpa_collision_estimate]
    assert timed == rows * 2
    lines = capsys.readouterr().out.splitlines()
    assert [line.split("\t")[0] for line in lines] == [
        "operation", "keygen", "coins", "enc", "dec", "add", "mul", "trial"]
