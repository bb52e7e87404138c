"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Runs the tiny ``smoke`` instance set (two paper-bridge instances and a
two-carrier session) and checks that:

1. an untraced run is correct and prints every end-to-end metric of
   ``BENCHMARK.json`` by name with its unit, in the table and in the JSON;
2. two traced runs print every per-layer metric with its unit and repeat
   the deterministic work counts exactly;
3. the golden gate, run in-process on an altered copy of the goldens, flags
   the altered CLI output and the altered carrier verdict, and only them, as
   failed ops;
4. in a directory holding only ``BENCHMARK.json`` and ``perfbench/`` the
   benchmark exits non-zero without printing a result.

Exits 0 when every check passes.  Scratch files go under ``.perfbench/``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SCRATCH = ROOT / ".perfbench" / "smoke"


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", "smoke", "--seed", "3",
           "--seconds", "1", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def last_json(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_metrics(proc: subprocess.CompletedProcess, listed: list) -> list:
    problems = []
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr[-500:]}"]
    result = last_json(proc)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    table = proc.stdout.strip().splitlines()[:-1]
    for m in listed:
        got = result["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            problems.append(f"{m['name']}: JSON has {got}, BENCHMARK.json says unit {m['unit']}")
        if not any(line.split()[:1] == [m["name"]] and f" {m['unit']}" in line for line in table):
            problems.append(f"{m['name']} [{m['unit']}] missing from the printed table")
    if set(result["metrics"]) != {m["name"] for m in listed}:
        problems.append("JSON metrics differ from BENCHMARK.json")
    return problems


def main() -> int:
    spec = run.benchmark_spec()
    failures = []

    def report(name: str, problems: list) -> None:
        print(f"{'PASS' if not problems else 'FAIL'} {name}")
        for p in problems:
            print(f"    {p}")
        failures.extend(problems)

    shutil.rmtree(SCRATCH, ignore_errors=True)
    SCRATCH.mkdir(parents=True)

    plain = bench("--trace", "0")
    problems = check_metrics(plain, spec["end_to_end"])
    if not problems and not last_json(plain)["correct"]:
        problems.append(f"untraced run not correct: {plain.stderr[-500:]}")
    report("untraced run prints every end-to-end metric with its unit", problems)

    traced = [bench("--trace", "1") for _ in range(2)]
    problems = check_metrics(traced[0], spec["per_layer"]) + check_metrics(traced[1],
                                                                           spec["per_layer"])
    if not problems:
        a, b = (last_json(t)["metrics"] for t in traced)
        for name in run.DETERMINISTIC_COUNTS:
            if a[name]["value"] != b[name]["value"]:
                problems.append(f"{name}: {a[name]['value']} then {b[name]['value']}")
        summary = ROOT / ".perfbench" / "trace" / "smoke" / "summary.json"
        if not summary.is_file() or not json.loads(summary.read_text())["spans"]:
            problems.append("no span files written")
    report("traced runs print every per-layer metric and repeat the counts", problems)

    golden = SCRATCH / "golden"
    shutil.copytree(HERE / "golden", golden)
    cli = json.loads((golden / "cli.json").read_text())
    cli["steane/verify-quantum"]["stdout"] = cli["steane/verify-quantum"]["stdout"].replace(
        "verdict: certified", "verdict: refuted")
    (golden / "cli.json").write_text(json.dumps(cli))
    carriers = json.loads((golden / "carriers.json").read_text())
    first = carriers[0]["verdicts"]
    key = sorted(first)[0]
    first[key] = ["refuted" if first[key][0] == "certified" else "certified", first[key][1]]
    (golden / "carriers.json").write_text(json.dumps(carriers))
    altered = run.Golden(golden)
    gated = run.run_pass(run.Plan("smoke", 3, altered), altered, "plain",
                         perf_counter() + run.HARD_LIMIT_S)
    failed = {o["id"]: o["failure"] for o in gated.ops if o["failure"]}
    problems = [f"{op} not reported as failed" for op in ("steane/verify-quantum", key)
                if op not in failed]
    problems += [f"{op} failed: {why}" for op, why in failed.items()
                 if op not in ("steane/verify-quantum", key)]
    report("golden gate flags altered outputs", problems)

    bare = SCRATCH / "bare"
    bare.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    empty = bench("--trace", "0", cwd=bare)
    problems = []
    if empty.returncode == 0:
        problems.append("exit code 0 without the program")
    if empty.stdout.strip().startswith("{") or '"correct"' in empty.stdout:
        problems.append("printed a result without the program")
    report("without the program the benchmark fails and prints no result", problems)

    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
