"""The three benchmark workloads and how a seed picks their inputs.

An op is one ``qlrc`` CLI command, run in a fresh process as a CLI user
runs it, or one library verdict inside a carrier session whose caches stay
warm across calls.  Op ids double as keys into the golden files.

* ``paper-bridge``: the paper's prime-field grid instances on the
  classical-quantum bridge path.  Time goes to numpy codeword enumeration
  in ``code``/``locality``.  The seed is recorded but picks nothing.
* ``search-scan``: cold CLI ops answered by pure-Python search over ``gf``
  and ``matrix`` (dependency-scan distance, the GF(p^m) odometer, a
  refuted delta=3 subset scan, shorten-heavy weights), plus one seeded
  random GRS code per shape over GF(8), GF(9) and GF(16).
* ``carrier-session``: one library session over a pool of self-orthogonal
  carriers (symplectic, Euclidean, Hermitian, CSS): every (r, delta) verdict
  for delta in {2, 3}, and seeded (I, J) pairs checked against the
  brute-force oracle.  Many tiny matrices, warm caches.
"""

from __future__ import annotations

import random
from typing import List

WORKLOADS = ("paper-bridge", "search-scan", "carrier-session")


def cli_op(op_id: str, *argv: str, inputs: tuple = ()) -> dict:
    """A CLI op; every command also writes its JSON report, named after the op."""
    slug = op_id.replace("/", "--")
    argv = list(argv) + ["--json", f"{slug}.json"]
    outputs = [f"{slug}.json"]
    if argv[0] == "construct":
        outputs.insert(0, argv[argv.index("-o") + 1])
    return {"id": op_id, "argv": argv, "inputs": list(inputs), "outputs": outputs}


def _construct(name: str, descriptor: str) -> dict:
    return cli_op(f"{name}/construct", "construct", descriptor, "-o", f"{name}.code")


def _verify_quantum(name: str, r: int, delta: int, form: str = "euclidean") -> dict:
    return cli_op(f"{name}/verify-quantum", "verify", f"{name}.code", "--mode", "quantum",
                  "--form", form, "-r", str(r), "-d", str(delta))


def _verify_classical(name: str, r: int, delta: int, inputs: tuple = ()) -> dict:
    return cli_op(f"{name}/verify-classical", "verify", f"{name}.code",
                  "-r", str(r), "-d", str(delta), inputs=inputs)


def _weights_ghw(name: str, inputs: tuple = ()) -> dict:
    return cli_op(f"{name}/weights-ghw", "weights", f"{name}.code", "--kind", "ghw",
                  "--t-max", "2", inputs=inputs)


PAPER_BRIDGE: List[dict] = [
    _construct("gf7-rect", "affine:q=7,n1=7,n2=7,delta=rect:5,6"),
    _verify_quantum("gf7-rect", 6, 2),            # the flagship [[49,35,2]]_7
    _verify_classical("gf7-rect", 6, 2),
    _construct("gf5-rect", "affine:q=5,n1=5,n2=5,delta=rect:3,4"),
    _verify_quantum("gf5-rect", 4, 2),
    _construct("gf5-step2", "affine:q=5,n1=5,n2=5,delta=step2:3,1"),
    _verify_quantum("gf5-step2", 4, 2),
    _construct("steane", "steane"),
    _verify_quantum("steane", 6, 2, form="symplectic"),
]

SEARCH_SCAN_FIXED: List[dict] = [
    _construct("gf7-step2", "affine:q=7,n1=7,n2=7,delta=step2:4,3"),
    _construct("grs9", "grs:q2=9,n=10,k=5"),
    _verify_classical("grs9", 5, 2),
    _construct("grs16", "grs:q2=16,n=12,k=9"),
    _verify_classical("grs16", 8, 3),
    _construct("gf4-step2", "affine:q=4,n1=4,n2=4,delta=step2:2,1"),
    _weights_ghw("gf4-step2"),
    # the direct quantum verifier runs on the self-orthogonal side, the
    # Euclidean dual of the construct output, which the benchmark supplies
    cli_op("gf4-step2-dual/verify-quantum", "verify", "gf4-step2-dual.code", "--mode",
           "quantum", "--form", "euclidean", "-r", "3", "-d", "3",
           inputs=("gf4-step2-dual.code",)),
]

# Seeded random codes: (pool prefix, field order, n, k, op maker).  Each is
# a GRS code with random evaluation points and column multipliers, so it has
# the parameters of the fixed op of its shape ([10,5]_9 (5,2), [12,9]_16
# (8,3)) or of a GHW scan over GF(8) ([9,4]_8): the seed changes the code
# but not the weight distribution that sets the op's cost.
RANDOM_SHAPES = (
    ("rand9", 9, 10, 5, lambda name, inp: _verify_classical(name, 5, 2, inp)),
    ("rand16", 16, 12, 9, lambda name, inp: _verify_classical(name, 8, 3, inp)),
    ("rand8", 8, 9, 4, lambda name, inp: _weights_ghw(name, inp)),
)
RANDOM_POOL_SIZE = 16

# Carrier classes: (class id, form, field order, lengths, carriers).  Every
# session runs the whole pool; the seed picks the oracle pairs.  (Picking a
# seeded subset of carriers moved the session's cost by more than the
# regression bounds from one seed to the next.)
CARRIER_CLASSES = (
    ("symp-q2", "symplectic", 2, (4, 5, 6, 7), 24),
    ("symp-q3", "symplectic", 3, (4, 5, 6), 18),
    ("symp-q4", "symplectic", 4, (4, 5), 12),
    ("eucl-q3", "euclidean", 3, (4, 5, 6, 7), 18),
    ("eucl-q5", "euclidean", 5, (4, 5, 6), 12),
    ("herm-q4", "hermitian", 4, (4, 5, 6, 7), 18),
    ("css-q2", "css", 2, (4, 5, 6), 12),
    ("css-q3", "css", 3, (4, 5), 12),
)
DELTAS = (2, 3)
ORACLE_PAIRS_PER_CARRIER = 16
ORACLE_MAX_WORDS = 1 << 12     # q^dim cap for carriers sent to the oracle


def random_ops(seed: int) -> List[dict]:
    rng = random.Random(seed)
    ops = []
    for prefix, _q, _n, _k, build in RANDOM_SHAPES:
        name = f"{prefix}-{rng.randrange(RANDOM_POOL_SIZE):02d}"
        ops.append(build(name, (f"{name}.code",)))
    return ops


def verdict_ops(carrier: dict) -> List[dict]:
    """Every (r, delta) verdict of a carrier: delta in DELTAS, r = 1..n-delta+1."""
    n = carrier["n"]
    return [{"id": f"{carrier['id']}/r{r}d{delta}", "r": r, "delta": delta}
            for delta in DELTAS for r in range(1, n - delta + 2)]


def oracle_pairs(carrier: dict, seed: int) -> List[dict]:
    """Seeded (I, J) pairs, |I| in {1, 2} strictly inside J, for the oracle check."""
    if carrier["form"] != "symplectic" or carrier["q"] ** carrier["dim"] > ORACLE_MAX_WORDS:
        return []
    rng = random.Random(f"{seed}/{carrier['id']}")
    n = carrier["n"]
    pairs = []
    for t in range(ORACLE_PAIRS_PER_CARRIER):
        size_j = rng.randrange(2, n + 1)
        J = sorted(rng.sample(range(1, n + 1), size_j))
        I = sorted(rng.sample(J, rng.randrange(1, min(2, size_j - 1) + 1)))
        pairs.append({"id": f"{carrier['id']}/oracle{t:02d}", "I": I, "J": J})
    return pairs


def cli_ops(workload: str, seed: int) -> List[dict]:
    if workload == "paper-bridge":
        return list(PAPER_BRIDGE)
    if workload == "search-scan":
        return SEARCH_SCAN_FIXED + random_ops(seed)
    raise ValueError(f"{workload} has no CLI ops")
