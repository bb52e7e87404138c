"""Build the benchmark's input pools and record golden outputs.

    python3 perfbench/make_golden.py

Writes ``perfbench/golden/``:

* ``inputs.json``: code files the benchmark hands to CLI ops, namely the
  seeded random GRS pools of ``search-scan`` and the Euclidean dual of the
  GF(4) ``step2:2,1`` code (the self-orthogonal side for the direct quantum
  verifier).
* ``carriers.json``: the seeded carrier pool of ``carrier-session`` with the
  recorded verdict (status and certificate digest) of every (r, delta).
* ``cli.json``: for every CLI op any seed can select, the exit code, the
  printed text and the SHA-256 of every file the op writes.

Run it only to record the outputs of the current program: every benchmark
run compares against these files, so re-recording after a change would
hide exactly the differences the gate exists to catch.  Pools are drawn
from fixed string seeds, so re-running on the same program reproduces the
files byte for byte.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import workloads as wl  # noqa: E402

from qlrc import (  # noqa: E402
    GF,
    LinearCode,
    SymplecticCode,
    dual_euclidean,
    dual_symplectic,
    is_self_orthogonal,
)
from qlrc.cli import build_from_descriptor  # noqa: E402
from qlrc.constructions import INFINITY, grs_code  # noqa: E402
from qlrc.files import dumps_code  # noqa: E402

FIELDS = {2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1), 8: (2, 3), 9: (3, 2), 16: (2, 4)}


def field(q: int):
    return GF(*FIELDS[q])


def random_word(rng: random.Random, F, length: int) -> tuple:
    while True:
        w = tuple(rng.randrange(F.q) for _ in range(length))
        if any(w):
            return w


def random_code(rng: random.Random, F, n: int, k: int) -> LinearCode:
    while True:
        C = LinearCode.from_rows(F, [random_word(rng, F, n) for _ in range(k)], n=n)
        if C.k == k:
            return C


def symplectic_carrier(rng, F, n: int) -> SymplecticCode:
    """Greedy isotropic subspace: adjoin random vectors of the current dual."""
    target = rng.randrange(1, n + 1)
    C = SymplecticCode.zero(F, n)
    for _ in range(400):
        if C.dim >= target:
            break
        w = random_word(rng, F, 2 * n)
        if dual_symplectic(C).contains_word(w) and not C.contains_word(w):
            C = SymplecticCode.from_rows(F, C.gen.data + (w,), n=n)
    return C


def linear_carrier(rng, F, n: int, form: str) -> LinearCode:
    """Greedy Euclidean or Hermitian self-orthogonal code."""
    target = rng.randrange(1, n // 2 + 1)
    C = LinearCode.zero(F, n)
    for _ in range(2000):
        if C.k >= target:
            break
        w = random_word(rng, F, n)
        if C.contains_word(w):
            continue
        ext = LinearCode.from_rows(F, C.gen.data + (w,), n=n)
        if is_self_orthogonal(ext, form):
            C = ext
    return C


def css_carrier(rng, F, n: int):
    """(C1, C2) with C2^perp inside C1: C1 spans C2^perp plus random words."""
    C2 = random_code(rng, F, n, rng.randrange((n + 1) // 2, n))
    rows = dual_euclidean(C2).gen.data + tuple(random_word(rng, F, n)
                                               for _ in range(rng.randrange(0, 2)))
    return LinearCode.from_rows(F, rows, n=n), C2


def build_carriers() -> list:
    pool = []
    for cls, form, q, lengths, count in wl.CARRIER_CLASSES:
        rng = random.Random(f"carriers/{cls}")
        F = field(q)
        made = 0
        while made < count:
            n = lengths[made % len(lengths)]
            if form == "symplectic":
                codes = [symplectic_carrier(rng, F, n)]
                dim = codes[0].dim
            elif form == "css":
                codes = list(css_carrier(rng, F, n))
                dim = codes[0].k
            else:
                codes = [linear_carrier(rng, F, n, form)]
                dim = codes[0].k
            if dim == 0:
                continue
            pool.append({"id": f"{cls}-{made:02d}", "cls": cls, "form": form, "q": q, "n": n,
                         "dim": dim, "codes": [dumps_code(c) for c in codes], "verdicts": {}})
            made += 1
    return pool


def random_grs(rng: random.Random, F, n: int, k: int) -> LinearCode:
    """GRS code on n random distinct points (infinity included) with random multipliers."""
    points = rng.sample(list(range(F.q)) + [INFINITY], n)
    return grs_code(F, n, k, points, [rng.randrange(1, F.q) for _ in range(n)])


def build_inputs() -> dict:
    inputs = {}
    for prefix, q, n, k, _build in wl.RANDOM_SHAPES:
        rng = random.Random(f"codes/{prefix}")
        for i in range(wl.RANDOM_POOL_SIZE):
            inputs[f"{prefix}-{i:02d}.code"] = dumps_code(random_grs(rng, field(q), n, k))
    code, _claims = build_from_descriptor("affine:q=4,n1=4,n2=4,delta=step2:2,1")
    inputs["gf4-step2-dual.code"] = dumps_code(dual_euclidean(code))
    return inputs


def all_cli_ops() -> list:
    ops = list(wl.PAPER_BRIDGE) + list(wl.SEARCH_SCAN_FIXED)
    for prefix, _q, _n, _k, build in wl.RANDOM_SHAPES:
        for i in range(wl.RANDOM_POOL_SIZE):
            name = f"{prefix}-{i:02d}"
            ops.append(build(name, (f"{name}.code",)))
    return ops


class RecordPlan:
    def __init__(self, cli: list, carriers: list) -> None:
        self.cli, self.carriers, self.verdicts = cli, carriers, {}


def write(directory: Path, name: str, data) -> None:
    (directory / name).write_text(json.dumps(data, indent=1, sort_keys=True) + "\n",
                                  encoding="utf-8")


def main() -> int:
    out = HERE / "golden"
    out.mkdir(exist_ok=True)
    pool = build_carriers()
    write(out, "inputs.json", build_inputs())
    write(out, "carriers.json", pool)
    write(out, "cli.json", {})
    golden = run.Golden(out)
    deadline = perf_counter() + 3600
    bad = []

    res = run.run_pass(RecordPlan(all_cli_ops(), []), golden, "plain", deadline)
    cli = {}
    for o in res.ops:
        rec = o.get("record")
        if rec is None or rec["error"] or rec["rc"] not in (0, 1):
            why = o["failure"] if rec is None else rec["stderr"] or rec["error"]
            bad.append(f"{o['id']}: {why}")
            continue
        cli[o["id"]] = {"rc": rec["rc"], "stdout": rec["stdout"], "files": rec["files"]}
    write(out, "cli.json", cli)

    jobs = [dict(run.session_job_carrier(c, 0), pairs=[]) for c in pool]
    res = run.run_pass(RecordPlan([], jobs), golden, "plain", deadline)
    by_id = {c["id"]: c for c in pool}
    for o in res.ops:
        rec = o.get("record")
        if rec is None or rec["error"] or rec["status"] == "inconclusive":
            bad.append(f"{o['id']}: {o['failure']}")
            continue
        by_id[o["id"].split("/")[0]]["verdicts"][o["id"]] = [rec["status"], rec["cert"]]
    write(out, "carriers.json", pool)

    for line in bad:
        print(f"not recordable: {line}", file=sys.stderr)
    print(f"recorded {len(cli)} CLI ops and "
          f"{sum(len(c['verdicts']) for c in pool)} verdicts of {len(pool)} carriers")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
