"""Span tracing of matfhe from outside the program.

A Tracer rebinds each listed public function in every ``matfhe`` module
namespace that holds it, and in module-level dicts such as the evaluator's
operator table, so calls between modules and calls within one module are
both caught. Spans stay in memory until the run ends. Uninstalling puts
every original binding back and verifies that no wrapper is left anywhere.
"""

import functools
import json
import sys
import time

# The public functions traced, by module (= layer).
LAYERS = {
    "ring": ("crt_solve", "mod_inverse", "generate_coprime_set"),
    "matrix": ("mat_add", "mat_sub", "mat_mul", "determinant", "inverse",
               "random_invertible", "is_invertible"),
    "keys": ("keygen4", "keygen8", "keyset_gen"),
    "cipher": ("enc4", "enc8", "dec", "encryption_diagonal",
               "sample_enc4_randomness", "sample_enc8_randomness", "lock"),
    "evaluate": ("parse_expr", "eval_expr", "he_div"),
    "protocol": ("run_protocol", "audit_transcript", "serialize_transcript"),
    "analysis": ("kpa_collision_estimate",),
    "formats": ("read_key", "write_key", "read_ciphertext",
                "write_ciphertext"),
    "cli": ("main",),
}

# Per-call work counts recorded next to the span: mat_mul does dim^3
# multiplications.
_WEIGHTS = {"matrix.mat_mul": lambda a, b: a.dim ** 3}

_MARK = "__perfbench_original__"


def per_layer_units():
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for layer, fns in LAYERS.items():
        for fn in fns:
            units[f"{layer}.{fn}.calls"] = "calls/job"
            units[f"{layer}.{fn}.self_us"] = "us/job"
    for layer in LAYERS:
        units[f"{layer}.self_share"] = "1"
    units["matrix.mat_mul.mults"] = "mults/job"
    units["evaluate.he_div.failed_ratio"] = "1"
    units["trace.overhead_ratio"] = "1"
    return units


def _program_namespaces():
    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == "matfhe" or name.startswith("matfhe.")):
            yield mod


def _slots(namespace):
    """(container, key, value) for every binding in a module namespace and
    in the module-level dicts it holds."""
    ns = vars(namespace)
    for key, value in list(ns.items()):
        yield ns, key, value
        if isinstance(value, dict):
            for k, v in list(value.items()):
                yield value, k, v


class Tracer:
    """Records a span per call of each listed function while installed."""

    def __init__(self):
        self.spans = []
        self.job = None
        self.missing = []
        self._stack = []
        self._patches = []

    def _wrap(self, qualname, fn):
        spans = self.spans
        stack = self._stack
        weigh = _WEIGHTS.get(qualname)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            failed = True
            start = clock()
            try:
                out = fn(*args, **kwargs)
                failed = False
                return out
            finally:
                end = clock()
                stack.pop()
                weight = weigh(*args, **kwargs) if weigh else 0
                spans[idx] = (qualname, start, end, parent, self.job, failed,
                              weight)

        setattr(wrapper, _MARK, fn)
        return wrapper

    def install(self):
        wrappers = {}
        for layer, fns in LAYERS.items():
            mod = sys.modules.get(f"matfhe.{layer}")
            for fn in fns:
                orig = getattr(mod, fn, None)
                if orig is None:
                    self.missing.append(f"{layer}.{fn}")
                    continue
                wrappers[id(orig)] = self._wrap(f"{layer}.{fn}", orig)
        for mod in _program_namespaces():
            for container, key, value in _slots(mod):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and getattr(wrapper, _MARK) is value:
                    container[key] = wrapper
                    self._patches.append((container, key, value))

    def uninstall(self):
        """Restore every original binding, then prove none is left wrapped."""
        for container, key, orig in reversed(self._patches):
            container[key] = orig
        bad = [f"{key}" for container, key, orig in self._patches
               if container.get(key) is not orig]
        bad += [f"{mod.__name__}.{key}" for mod in _program_namespaces()
                for _, key, value in _slots(mod) if hasattr(value, _MARK)]
        self._patches = []
        if bad:
            raise RuntimeError(f"tracing wrappers survived: {bad}")

    def write(self, path):
        with open(path, "w", encoding="ascii") as fh:
            for i, span in enumerate(self.spans):
                name, start, end, parent, job, failed, weight = span
                fh.write(json.dumps({
                    "id": i, "name": name, "start": start, "end": end,
                    "parent": parent, "job": job, "failed": failed,
                    "weight": weight}) + "\n")

    def layer_metrics(self, jobs, job_seconds, scale):
        """Per-job means over the spans of traced jobs.

        Self time is a span's duration minus the part covered by its direct
        children, multiplied by scale (the host speed normalization).
        job_seconds is the summed wall time of those jobs.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, job, failed, weight in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls = {}
        self_s = {}
        weights = {}
        for i, (name, start, end, parent, job, failed, weight) in \
                enumerate(self.spans):
            if job is None:
                continue
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + (end - start - child[i])
            weights[name] = weights.get(name, 0) + weight
        out = {}
        layer_self = dict.fromkeys(LAYERS, 0.0)
        for layer, fns in LAYERS.items():
            for fn in fns:
                q = f"{layer}.{fn}"
                out[f"{q}.calls"] = calls.get(q, 0) / jobs
                out[f"{q}.self_us"] = (self_s.get(q, 0.0) / jobs * 1e6
                                       * scale)
                layer_self[layer] += self_s.get(q, 0.0)
        for layer, seconds in layer_self.items():
            out[f"{layer}.self_share"] = seconds / job_seconds
        out["matrix.mat_mul.mults"] = weights.get("matrix.mat_mul", 0) / jobs
        return out
