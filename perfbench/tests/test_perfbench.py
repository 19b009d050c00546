"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q

Each subprocess run is one second of measuring, so the whole file takes
about a minute.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402

run.load_program()

import harness  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from matfhe import cipher, evaluate, matrix  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def bench(workload, trace, seed=3, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace)],
        capture_output=True, text=True, cwd=cwd, timeout=170)


def result(workload, trace, seed=3):
    proc = bench(workload, trace, seed)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def units(res):
    return {name: m["unit"] for name, m in res["metrics"].items()}


def calls(res):
    return {name: m["value"] for name, m in res["metrics"].items()
            if name.endswith(".calls")}


@pytest.fixture(scope="module")
def traced():
    return {name: result(name, 1) for name in run.NAMES}


def wrapped_bindings():
    return [f"{mod.__name__}.{key}" for mod in spans._program_namespaces()
            for _, key, value in spans._slots(mod)
            if hasattr(value, spans._MARK)]


def test_workload_names_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.NAMES)
    assert list(workloads.WORKLOADS) == list(run.NAMES)


@pytest.mark.parametrize("workload", run.NAMES)
def test_end_to_end_metric_names_match_spec(workload):
    res = result(workload, 0)
    assert res["correct"] is True and res["attempted"] >= 1
    assert res["failed"] == 0
    assert units(res) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in res["metrics"].values())


def test_per_layer_metric_names_match_spec(traced):
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert want == spans.per_layer_units()
    for res in traced.values():
        assert res["correct"] is True
        assert units(res) == want


def test_traced_calls_repeat_exactly_for_one_seed(traced):
    for name in run.NAMES:
        again = result(name, 1)
        assert calls(again) == calls(traced[name]), name
        assert any(calls(again).values())


def test_refused_divisors_are_counted_and_encrypted_again(tmp_path):
    wl = workloads.WORKLOADS["eval_l256"]
    state = wl.setup(1, str(tmp_path))
    refused, tried = state["division_tries"]
    divisors = sum(1 for t in state["tenants"] for name in t["pool"]
                   if name.startswith("u"))
    assert tried == divisors + refused and refused > 0
    for t in state["tenants"]:
        for name, ct in t["pool"].items():
            if name.startswith("u"):
                evaluate.he_div(t["pool"]["a0"], ct)


def test_tracing_catches_calls_within_and_across_modules():
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert hasattr(matrix.mat_mul, spans._MARK)
        assert hasattr(cipher.mat_mul, spans._MARK)
        # The evaluator dispatches through its operator table.
        assert hasattr(sys.modules["matfhe.evaluate"]._OPS["/"], spans._MARK)
    finally:
        tracer.uninstall()
    assert not hasattr(matrix.mat_mul, spans._MARK)


def test_no_wrapper_survives_a_traced_run(tmp_path):
    wl = workloads.WORKLOADS["kpa_1155"]
    state = wl.setup(5, str(tmp_path))
    names = [("ring", "crt_solve"), ("analysis", "kpa_collision_estimate")]
    originals = [getattr(sys.modules[f"matfhe.{layer}"], fn)
                 for layer, fn in names]
    metrics, _ = harness.measure_traced(wl, state, 0.2,
                                        str(tmp_path / "spans.jsonl"),
                                        harness.Loop(wl.REFERENCE))
    assert metrics["analysis.kpa_collision_estimate.calls"] == 1
    assert wrapped_bindings() == []
    for (layer, fn), orig in zip(names, originals):
        assert getattr(sys.modules[f"matfhe.{layer}"], fn) is orig


def test_untraced_run_installs_no_wrapper(monkeypatch, tmp_path):
    def refuse(self):
        raise AssertionError("an untraced run installed a wrapper")

    monkeypatch.setattr(spans.Tracer, "install", refuse)
    wl = workloads.WORKLOADS["kpa_1155"]
    loop = harness.Loop(wl.REFERENCE)
    harness.measure(wl, wl.setup(5, str(tmp_path)), 0.2, loop)
    assert loop.attempted >= 1 and wrapped_bindings() == []


def test_corrupted_ciphertext_fails_the_run(monkeypatch, capsys):
    cls = type(workloads.WORKLOADS["eval_l256"])
    real_setup = cls.setup

    def corrupted_setup(self, seed, workdir):
        state = real_setup(self, seed, workdir)
        pool = state["tenants"][0]["pool"]
        body = pool["a0"].body
        entries = ((body.entries[0] + 1) % body.modulus,) + body.entries[1:]
        pool["a0"] = cipher.Ciphertext(
            matrix.Matrix(body.dim, body.modulus, entries))
        return state

    monkeypatch.setattr(cls, "setup", corrupted_setup)
    code = run.main(["--workload", "eval_l256", "--seed", "1",
                     "--seconds", "1"])
    captured = capsys.readouterr()
    assert code == 1
    assert "wrong result" in captured.err
    assert json.loads(captured.out.strip().splitlines()[-1])["correct"] is False


def test_without_the_program_the_run_fails(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("eval_l256", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
