"""Fixed reference kernels that measure how fast the host runs right now.

Shared hosts change speed by up to twofold within seconds, and wall time
moves with them. The harness times a kernel between jobs and scales each
job's wall time by the kernel's nominal time over its local time, which
cancels the host's speed while keeping the program's own cost. The kernels
live in the benchmark and share no code with matfhe, so no change to the
program can change them.

A host slowdown does not hit every kind of Python code equally, so each
workload names the parts whose mix is closest to its own work:
``products`` multiplies 4x4 matrices of 512-bit residues, ``elimination``
runs fraction-free elimination over the integers on 512-bit entries and an
extended gcd mod a 512-bit number, ``trials`` draws frozen-dataclass coins
from random.Random and folds small residues by CRT, and ``text``
round-trips big integers through decimal text.
"""

import gc
import math
import random
import time
from dataclasses import dataclass

_RNG = random.Random(20130910)
_N = _RNG.getrandbits(512) | 1
_A = tuple(tuple(_RNG.randrange(_N) for _ in range(4)) for _ in range(4))
_B = tuple(tuple(_RNG.randrange(_N) for _ in range(4)) for _ in range(4))
_E = tuple(tuple(_RNG.randrange(_N) for _ in range(5)) for _ in range(5))


def _egcd(a, b):
    old_r, r = a, b
    old_s, s = 1, 0
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
    return old_r, old_s


def _crt(residues):
    x = 0
    modulus = 1
    for r, n in residues:
        if math.gcd(modulus, n) != 1:
            raise ValueError("moduli share a factor")
        _, inv = _egcd(modulus % n, n)
        x += modulus * ((r - x) * inv % n)
        modulus *= n
    return x


@dataclass(frozen=True)
class _Coins:
    r: int
    rows: tuple

    def __post_init__(self):
        if any(c not in (1, 2, 3) for c in self.rows):
            raise ValueError("rows must be 1, 2 or 3")


def _products(rng):
    cols = tuple(zip(*_B))
    prod = _A
    for _ in range(3):
        prod = tuple(tuple(sum(x * y for x, y in zip(row, col)) % _N
                           for col in cols) for row in prod)
    return prod[0][0]


def _elimination(rng):
    m = [list(row) for row in _E]
    prev = 1
    for k in range(4):
        for i in range(k + 1, 5):
            for j in range(k + 1, 5):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return m[4][4] + _egcd(_A[0][0], _N)[1]


def _trials(rng):
    acc = 0
    for _ in range(24):
        coins = _Coins(rng.randrange(1155),
                       tuple(rng.randrange(1, 4) for _ in range(2)))
        base = ((acc, coins.r, coins.r), (coins.r, acc, coins.r),
                (coins.r, coins.r, acc))
        rows = [base[c - 1] for c in coins.rows]
        acc = sum(_crt([(rows[i][j] % f, f) for i, f in enumerate((21, 55))])
                  for j in range(3)) % 1155
    return acc


def _text(rng):
    acc = 0
    for _ in range(4):
        text = ",".join(str(v) for row in _A + _B for v in row)
        acc += sum(int(part) % 1155 for part in text.split(","))
    return acc


# Each part with its time on a 2-vCPU Intel Xeon host with Python 3.11
# while its neighbours left it at full speed. The nominal times set the
# scale of normalized times, not their ratios.
PARTS = {
    "products": (_products, 270e-6),
    "elimination": (_elimination, 315e-6),
    "trials": (_trials, 400e-6),
    "text": (_text, 280e-6),
}


def nominal(parts):
    """Seconds the named parts take at the reference host speed."""
    return sum(PARTS[name][1] for name in parts)


def sample(parts):
    """Seconds one run of the named parts takes now, with the collector
    held off so the program's garbage is not charged to the kernel."""
    rng = random.Random(1)
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for name in parts:
            PARTS[name][0](rng)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
