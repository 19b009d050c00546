"""The four benchmark workloads, one per kind of matfhe user.

Each workload builds all of its inputs from the seed in ``setup``, runs one
job per call of ``run`` (the timed part) and checks the job's output in
``check`` against a plaintext oracle mod N that shares no code with matfhe.
Jobs are closed-loop: the next starts when the previous one has ended.

The program is reached only through module attributes looked up at call
time (``evaluate.eval_expr``, not a captured reference), so a traced run
sees the benchmark's own calls as well as the program's internal ones.
"""

import contextlib
import io
import math
import os
import random
from dataclasses import dataclass

from matfhe import analysis, cipher, cli, evaluate, keys, protocol, ring


class WrongResultError(Exception):
    """A job's output disagrees with the plaintext oracle."""


class CliExitError(Exception):
    """cli.main returned a nonzero exit code."""

    def __init__(self, argv, code):
        super().__init__(f"{argv[0]} exited {code}")
        self.code = code


# The typed errors a job may end in; each counts as a failed job.
FAILURES = (evaluate.DivisorNotInvertibleError, ring.GenerationError,
            protocol.ProtocolError, CliExitError)


# --- formulas: random trees, their text and their plaintext value ---------

def _shape(rng, n_ops, depth, leaf):
    """Random binary tree with n_ops internal nodes and at most depth op
    levels; internal nodes are placeholders filled in by _fill."""
    if n_ops == 0:
        return leaf()
    cap = 2 ** (depth - 1) - 1
    left = rng.randint(max(0, n_ops - 1 - cap), min(n_ops - 1, cap))
    return [None, _shape(rng, left, depth - 1, leaf),
            _shape(rng, n_ops - 1 - left, depth - 1, leaf)]


def _fill(node, ops):
    if isinstance(node, list):
        node[0] = ops.pop()
        _fill(node[1], ops)
        _fill(node[2], ops)
    return node


def random_formula(rng, ops, depth, leaf):
    """Tree over exactly the operators in ops, shuffled, depth <= depth."""
    ops = list(ops)
    rng.shuffle(ops)
    return _fill(_shape(rng, len(ops), depth, leaf), ops)


def formula_text(node):
    if isinstance(node, list):
        return f"({formula_text(node[1])}{node[0]}{formula_text(node[2])})"
    return str(node)


def oracle(node, values, n):
    """Plaintext value of a tree mod n. Leaves are names looked up in
    values or int constants; '/' multiplies by the modular inverse."""
    if isinstance(node, int):
        return node % n
    if isinstance(node, str):
        return values[node] % n
    a = oracle(node[1], values, n)
    b = oracle(node[2], values, n)
    op = node[0]
    if op == "+":
        return (a + b) % n
    if op == "-":
        return (a - b) % n
    if op == "*":
        return (a * b) % n
    return (a * pow(b, -1, n)) % n


def _leaf_picker(rng, names):
    return lambda: rng.choice(names)


def _unit(rng, n):
    while True:
        v = rng.randrange(2, n)
        if math.gcd(v, n) == 1:
            return v


class Workload:
    """Defaults: a job draws its coins from a generator seeded per job, and
    there is no check beyond the per-job one."""

    def prepare(self, state, job):
        return random.Random(job.seed)

    def finish(self, state, stats):
        if "division_tries" in state:
            refused, tried = state["division_tries"]
            stats["he_div_setup"] = (
                f"he_div refused {refused} of {tried} encryptions of units "
                f"in set-up (scheme defect, ROADMAP item 4); each refused "
                f"divisor was encrypted again")


# --- eval_l256: a computation center evaluating formulas ------------------

@dataclass
class EvalJob:
    text: str
    tree: list
    seed: int
    tenant: int


class EvalL256(Workload):
    """Formulas over ciphertext pools, each pool under its own dim 4 key."""

    name = "eval_l256"
    REFERENCE = ("products",)
    KEYS = 4           # tenants, each with a key and a pool; averaging over
                       # keys keeps one key's N from setting the run's cost
    OPERANDS = 32      # a0..a31 per tenant, uniform over Z_N
    FORMULAS = 2048    # formula i belongs to tenant i % KEYS
    SHARE = 64         # a tenant's j-th formula divides when j % SHARE == 0
                       # and holds a constant when j % SHARE == SHARE // 2
    DIV_TRIES = 64     # encryptions of one divisor he_div may refuse
    OPS = "*****++++++---"
    DEPTH = 6
    WARMUP = 32
    TRACE_JOBS = 256

    def _tenant(self, rng, divisors):
        # CPython multiplies in 30-bit digits, so a product's cost steps
        # with N's digit count. Keys are drawn until N has 18 digits
        # (over 510 bits), so every key does the same work per product.
        key = keys.keygen4(2, 256, rng)
        while key.modulus.n.bit_length() <= 510:
            key = keys.keygen4(2, 256, rng)
        n = key.modulus.n
        values = {f"a{i}": rng.randrange(n) for i in range(self.OPERANDS)}
        pool = {name: cipher.enc4(v, key, rng) for name, v in values.items()}
        # Divisors are encryptions of units, one per dividing formula, so
        # every division the scheme refuses is its own defect (ROADMAP
        # item 4). Each encryption is tried once with he_div here; a refused
        # one is encrypted again with fresh coins, as its owner would do.
        # The refusals are counted and reported, and the timed jobs never
        # end in a failed operation.
        tried = 0
        for i in range(divisors):
            name = f"u{i}"
            values[name] = _unit(rng, n)
            for _ in range(self.DIV_TRIES):
                pool[name] = cipher.enc4(values[name], key, rng)
                tried += 1
                try:
                    evaluate.he_div(pool["a0"], pool[name])
                    break
                except evaluate.DivisorNotInvertibleError:
                    pass
            else:
                raise RuntimeError(f"he_div refused {self.DIV_TRIES} "
                                   f"encryptions of the unit {values[name]}")
        return {"key": key, "n": n, "values": values, "pool": pool,
                "division_tries": (tried - divisors, tried)}

    def setup(self, seed, workdir):
        rng = random.Random(seed)
        per_tenant = self.FORMULAS // self.KEYS
        tenants = [self._tenant(rng, -(-per_tenant // self.SHARE))
                   for _ in range(self.KEYS)]
        operands = _leaf_picker(rng, [f"a{i}" for i in range(self.OPERANDS)])
        jobs = []
        for i in range(self.FORMULAS):
            t, j = i % self.KEYS, i // self.KEYS
            if j % self.SHARE == 0:
                tree = ["/", random_formula(rng, self.OPS[1:], self.DEPTH - 1,
                                            operands),
                        f"u{j // self.SHARE}"]
            else:
                tree = random_formula(rng, self.OPS, self.DEPTH, operands)
                if j % self.SHARE == self.SHARE // 2:
                    node = tree
                    while isinstance(node[2], list):
                        node = node[2]
                    node[2] = _unit(rng, tenants[t]["n"])
            jobs.append(EvalJob(formula_text(tree), tree, rng.getrandbits(64),
                                t))
        return {"tenants": tenants, "jobs": jobs,
                "division_tries": tuple(map(sum, zip(
                    *(t["division_tries"] for t in tenants))))}

    def run(self, state, job, rng):
        tenant = state["tenants"][job.tenant]
        env = evaluate.CipherEnv(bindings=tenant["pool"], key=tenant["key"],
                                 rng=rng)
        ct = evaluate.eval_expr(evaluate.parse_expr(job.text), env)
        return cipher.dec(ct, tenant["key"])

    def check(self, state, job, out):
        tenant = state["tenants"][job.tenant]
        want = oracle(job.tree, tenant["values"], tenant["n"])
        if out != want:
            raise WrongResultError(
                f"{job.text}: decrypted {out}, oracle {want}")


# --- protocol_l16: a data owner running the re-keying protocol ------------

@dataclass
class ProtocolJob:
    table: tuple
    text: str
    tree: list
    seed: int


class ProtocolL16(Workload):
    """Key set generation, one protocol run and its transcript log."""

    name = "protocol_l16"
    REFERENCE = ("products", "trials")
    TABLE = 32
    JOBS = 2048
    OPS = "*+-"
    WARMUP = 4
    TRACE_JOBS = 48

    def setup(self, seed, workdir):
        rng = random.Random(seed)
        # N >= 129*131*133*135 > 2^28 for m=2, lambda=16.
        names = [f"x{i}" for i in range(1, self.TABLE + 1)]
        jobs = []
        for _ in range(self.JOBS):
            table = tuple(rng.randrange(1 << 28) for _ in range(self.TABLE))
            picks = rng.sample(names, 4)
            tree = random_formula(rng, self.OPS, 3, picks.pop)
            jobs.append(ProtocolJob(table, formula_text(tree), tree,
                                    rng.getrandbits(64)))
        return {"jobs": jobs}

    def run(self, state, job, rng):
        keyset = keys.keyset_gen(4, 3, 2, 16, rng)
        result, transcript = protocol.run_protocol(job.text, job.table,
                                                   keyset, rng)
        log = protocol.serialize_transcript(transcript)
        return keyset.modulus.n, result, log

    def check(self, state, job, out):
        n, result, log = out
        values = {f"x{i}": v for i, v in enumerate(job.table, start=1)}
        want = oracle(job.tree, values, n)
        if result != want or not log.endswith(f"\nresult\t{want}\n"):
            raise WrongResultError(f"{job.text}: protocol gave {result}, "
                                   f"oracle {want}")


# --- cli_dim8: a CLI user chaining file-based commands --------------------

@dataclass
class CliJob:
    argvs: tuple
    tree: list
    values: dict


class CliDim8(Workload):
    """keygen (dim 8), two encrypts, eval with a constant, decrypt; all
    through cli.main in-process so interpreter start-up does not swamp the
    chain."""

    name = "cli_dim8"
    REFERENCE = ("elimination", "text")
    JOBS = 256
    OPS = "*+-"
    WARMUP = 1
    TRACE_JOBS = 6

    def setup(self, seed, workdir):
        rng = random.Random(seed)
        path = {f: os.path.join(workdir, f)
                for f in ("k.key", "a.ct", "b.ct", "out.ct")}
        jobs = []
        for _ in range(self.JOBS):
            # N >= 2^508 for m=2, lambda=256, so these are all below N.
            values = {name: rng.randrange(1 << 500) for name in ("a", "b")}
            const = rng.randrange(1 << 500)
            leaves = ["a", "b", const]
            rng.shuffle(leaves)
            tree = random_formula(rng, self.OPS[:2], 2, leaves.pop)
            tree = [self.OPS[2], tree, rng.choice(["a", "b"])] \
                if rng.random() < 0.5 else tree
            seeds = [str(rng.getrandbits(32)) for _ in range(4)]
            argvs = (
                ["keygen", "--dim", "8", "--m", "2", "--lambda", "256",
                 "--out", path["k.key"], "--seed", seeds[0]],
                ["encrypt", "--key", path["k.key"], "--value", str(values["a"]),
                 "--out", path["a.ct"], "--seed", seeds[1]],
                ["encrypt", "--key", path["k.key"], "--value", str(values["b"]),
                 "--out", path["b.ct"], "--seed", seeds[2]],
                ["eval", "--key", path["k.key"], "--expr", formula_text(tree),
                 "--input", f"a={path['a.ct']}", "--input", f"b={path['b.ct']}",
                 "--out", path["out.ct"], "--seed", seeds[3]],
                ["decrypt", "--key", path["k.key"], "--in", path["out.ct"]],
            )
            jobs.append(CliJob(argvs, tree, values))
        return {"jobs": jobs, "key_path": path["k.key"]}

    def prepare(self, state, job):
        return None

    def run(self, state, job, _):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            for argv in job.argvs:
                code = cli.main(argv)
                if code != 0:
                    raise CliExitError(argv, code)
        return out.getvalue()

    def check(self, state, job, out):
        with open(state["key_path"], encoding="ascii") as fh:
            n = next(int(line[2:]) for line in fh if line.startswith("N="))
        want = oracle(job.tree, job.values, n)
        if out != f"{want}\n":
            raise WrongResultError(
                f"{formula_text(job.tree)}: decrypt printed {out!r}, "
                f"oracle {want}")


# --- kpa_1155: an analyst running the collision experiment ---------------

@dataclass
class KpaJob:
    x: int
    seed: int


class Kpa1155(Workload):
    """kpa_collision_estimate calls at the reference modulus N=1155."""

    name = "kpa_1155"
    REFERENCE = ("trials",)
    TRIALS = 300
    JOBS = 4096
    WARMUP = 2
    TRACE_JOBS = 12

    def setup(self, seed, workdir):
        rng = random.Random(seed)
        key = keys.keygen4(2, 8, rng, candidates=[3, 5, 7, 11])
        n = key.modulus.n
        jobs = [KpaJob(rng.randrange(n), rng.getrandbits(64))
                for _ in range(self.JOBS)]
        # Hits per distinct job: a job repeats its trials exactly when the
        # loop cycles, so repeats would break the binomial slack.
        return {"key": key, "n": n, "jobs": jobs, "hits": {}}

    def run(self, state, job, rng):
        return analysis.kpa_collision_estimate(state["key"], job.x,
                                               self.TRIALS, rng)

    def check(self, state, job, out):
        hits = out * self.TRIALS
        if not (0 <= out <= 1 and abs(hits - round(hits)) < 1e-6):
            raise WrongResultError(f"x={job.x}: fraction {out} is not "
                                   f"hits/{self.TRIALS}")
        state["hits"][id(job)] = round(hits)

    def finish(self, state, stats):
        """Pooled hits against the exact per-target rates: 1/(9(N-1)) for a
        generic target, 3/(9(N-1)) when the blind matches x mod one factor;
        five standard deviations of binomial slack each way."""
        hits = sum(state["hits"].values())
        trials = len(state["hits"]) * self.TRIALS
        per = trials / (9 * (state["n"] - 1))
        lo = per - 5 * math.sqrt(per)
        hi = 3 * per + 5 * math.sqrt(3 * per)
        stats["pooled"] = (f"{hits} hits in {trials} trials of distinct "
                           f"jobs, band [{max(lo, 0):.1f}, {hi:.1f}]")
        if not lo <= hits <= hi:
            raise WrongResultError(f"pooled collisions {stats['pooled']}")


WORKLOADS = {wl.name: wl for wl in (EvalL256(), ProtocolL16(), CliDim8(),
                                     Kpa1155())}
