"""qlrc benchmark: time-to-verdict per workload, and a traced per-layer split.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper-bridge --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40

The runner process is single-threaded and keeps at most one ``qlrc``
worker process alive (see ``worker.py``).  It repeats the workload's op list
in passes until ``--seconds`` would be exceeded, checks every output against
the golden files in ``perfbench/golden`` and prints, as its last line, one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  Times
are reference seconds, corrected for the machine's speed drift (see
``calibrate.py``).  With ``--trace 0`` the metrics are the end-to-end ones of
``BENCHMARK.json``; with ``--trace 1`` it runs one untraced pass, one
span-traced pass and one field-op counting pass, prints the per-layer table,
writes the spans and counts under ``.perfbench/trace/<workload>/`` and
reports the per-layer metrics of ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import select
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402
from calibrate import REFERENCE_S  # noqa: E402

WORKER = HERE / "worker.py"
STATE = ROOT / ".perfbench"
HARD_LIMIT_S = 170.0          # every run ends well inside the 180 s contract


class WorkerError(Exception):
    pass


# ---------------------------------------------------------------------------
# golden outputs
# ---------------------------------------------------------------------------

def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Golden:
    """Recorded inputs and outputs; every run is compared against them."""

    def __init__(self, directory: Path) -> None:
        def load(name):
            return json.loads((directory / name).read_text(encoding="utf-8"))

        self.inputs: Dict[str, str] = load("inputs.json")
        self.cli: Dict[str, dict] = load("cli.json")
        self.carriers: List[dict] = load("carriers.json")

    def check_cli(self, op: dict, rec: dict) -> Optional[str]:
        want = self.cli.get(op["id"])
        if want is None:
            return "no golden output recorded"
        if rec.get("error"):
            return "raised: " + rec["error"].strip().splitlines()[-1]
        if rec["rc"] == 2:
            return "inconclusive verdict"
        if rec["rc"] != want["rc"]:
            return f"exit code {rec['rc']} != golden {want['rc']}"
        if rec["stdout"] != want["stdout"]:
            return "printed output differs from golden"
        for name, digest in want["files"].items():
            if rec["files"].get(name) != digest:
                return f"bytes of {name} differ from golden"
        return None

    def check_session(self, verdicts: Dict[str, list], rec: dict) -> Optional[str]:
        if rec.get("error"):
            return "raised: " + rec["error"].strip().splitlines()[-1]
        if "oracle" in rec:
            if rec["oracle"] != rec["criterion"]:
                return f"oracle says {rec['oracle']}, criterion says {rec['criterion']}"
            return None
        want = verdicts.get(rec["id"])
        if want is None:
            return "no golden verdict recorded"
        if rec["status"] == "inconclusive":
            return "inconclusive verdict"
        if [rec["status"], rec["cert"]] != want:
            return f"verdict {rec['status']}/{rec['cert']} != golden {want[0]}/{want[1]}"
        return None


# ---------------------------------------------------------------------------
# worker processes
# ---------------------------------------------------------------------------

def _worker_env() -> dict:
    env = dict(os.environ)
    env.update(PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1",
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def _readline(proc: subprocess.Popen, deadline: float) -> dict:
    ready, _, _ = select.select([proc.stdout], [], [], max(0.0, deadline - perf_counter()))
    if not ready:
        raise WorkerError("time limit reached")
    line = proc.stdout.readline()
    if not line:
        proc.wait()
        raise WorkerError(f"worker exited with code {proc.returncode}")
    return json.loads(line)


def run_worker(job: dict, cwd: Path, deadline: float):
    """Spawn one worker, run ``job``; return (set-up seconds, result)."""
    t0 = perf_counter()
    proc = subprocess.Popen([sys.executable, str(WORKER)], stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, cwd=cwd, env=_worker_env())
    try:
        _readline(proc, deadline)
        setup = perf_counter() - t0
        proc.stdin.write((json.dumps(job) + "\n").encode())
        proc.stdin.flush()
        result = _readline(proc, deadline)
        proc.wait(timeout=max(1.0, deadline - perf_counter()))
        return setup, result
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdin.close()
        proc.stdout.close()


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------

class Plan:
    """The op list of one workload and seed."""

    def __init__(self, workload: str, seed: int, golden: Golden) -> None:
        self.workload = workload
        self.cli: List[dict] = []
        self.carriers: List[dict] = []
        if workload in ("paper-bridge", "search-scan"):
            self.cli = wl.cli_ops(workload, seed)
        elif workload == "carrier-session":
            self.carriers = [session_job_carrier(c, seed) for c in golden.carriers]
        elif workload == "smoke":
            keep = ("gf5-rect/construct", "gf5-rect/verify-quantum", "steane/construct",
                    "steane/verify-quantum")
            self.cli = [op for op in wl.PAPER_BRIDGE if op["id"] in keep]
            self.carriers = [session_job_carrier(c, seed) for c in golden.carriers[:2]]
        else:
            raise ValueError(f"unknown workload {workload!r}")
        self.verdicts = {k: v for c in golden.carriers for k, v in c["verdicts"].items()}


def session_job_carrier(c: dict, seed: int) -> dict:
    return {"id": c["id"], "form": c["form"], "n": c["n"], "codes": c["codes"],
            "verdicts": wl.verdict_ops(c), "pairs": wl.oracle_pairs(c, seed)}


class PassResult:
    """One pass over the op list.

    Times are reference seconds: the measured seconds scaled by
    ``REFERENCE_S`` over the kernel time sampled around them (see
    ``calibrate.py``); ``raw`` keeps the measured seconds.
    """

    def __init__(self) -> None:
        self.setups: List[float] = []
        self.raw_setups: List[float] = []
        self.ops: List[dict] = []          # {"id", "seconds", "raw", "failure", "layer"}
        self.rss_kb = 0
        self.duration = 0.0

    def add_worker(self, setup: float, out: dict) -> None:
        self.raw_setups.append(setup)
        self.setups.append(setup * REFERENCE_S / out["setup_cal"])
        self.rss_kb = max(self.rss_kb, out["rss_kb"])

    def add_op(self, rec: dict, failure: Optional[str]) -> None:
        scale = REFERENCE_S / rec["cal"]
        layer = {k: v * scale if is_time_key(k) else v for k, v in rec["layer"].items()}
        self.ops.append({"id": rec["id"], "seconds": rec["seconds"] * scale,
                         "raw": rec["seconds"], "failure": failure, "layer": layer,
                         "record": rec})

    def add_lost(self, op_id: str, reason: str) -> None:
        self.ops.append({"id": op_id, "seconds": None, "raw": None, "failure": reason,
                         "layer": {}})

    @property
    def op_seconds(self) -> float:
        return sum(o["seconds"] for o in self.ops if o["seconds"] is not None)


def run_pass(plan: Plan, golden: Golden, mode: str, deadline: float,
             spans_dir: Optional[Path] = None) -> PassResult:
    t0 = perf_counter()
    res = PassResult()
    work = STATE / "work"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    for op in plan.cli:
        for name in op["inputs"]:
            (work / name).write_text(golden.inputs[name], encoding="utf-8")
        job = {"kind": "cli", "op": op, "mode": mode}
        if spans_dir is not None:
            job["spans_path"] = str(spans_dir / (op["id"].replace("/", "--") + ".spans.json.gz"))
        try:
            setup, out = run_worker(job, work, deadline)
        except WorkerError as exc:
            res.add_lost(op["id"], str(exc))
            continue
        res.add_worker(setup, out)
        rec = out["records"][0]
        rec["files"] = {name: sha256((work / name).read_bytes())
                        for name in op["outputs"] if (work / name).is_file()}
        res.add_op(rec, golden.check_cli(op, rec))
    if plan.carriers:
        job = {"kind": "session", "carriers": plan.carriers, "mode": mode}
        if spans_dir is not None:
            job["spans_path"] = str(spans_dir / "session.spans.json.gz")
        try:
            setup, out = run_worker(job, work, deadline)
        except WorkerError as exc:
            for c in plan.carriers:
                for v in c["verdicts"] + c["pairs"]:
                    res.add_lost(v["id"], str(exc))
        else:
            res.add_worker(setup, out)
            for rec in out["records"]:
                res.add_op(rec, golden.check_session(plan.verdicts, rec))
    res.duration = perf_counter() - t0
    return res


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def nearest_rank(values: List[float], pct: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def end_to_end(passes: List[PassResult]) -> Dict[str, tuple]:
    """name -> (value, unit, sample count).

    Each op's time is its median over the passes, so a burst of load on the
    machine during one pass moves no op.  The op list's wall time is the sum
    of those medians; the percentiles and the slowest op are taken over them.
    """
    setups = [s for p in passes for s in p.setups]
    per_op: Dict[str, List[float]] = {}
    for p in passes:
        for o in p.ops:
            if o["seconds"] is not None:
                per_op.setdefault(o["id"], []).append(o["seconds"])
    if not setups or not per_op:
        return {}
    op_medians = [statistics.median(ts) for ts in per_op.values()]
    n = len(passes)
    return {
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "wall_s": (sum(op_medians), "s", n),
        "op_p50_ms": (1000 * statistics.median(op_medians), "ms", len(op_medians)),
        "op_p90_ms": (1000 * nearest_rank(op_medians, 90), "ms", len(op_medians)),
        "slowest_op_s": (max(op_medians), "s", n),
        "peak_rss_mb": (statistics.median(p.rss_kb / 1024 for p in passes), "MB", n),
    }


def is_time_key(key: str) -> bool:
    """Layer counters that are durations (the rest are counts)."""
    return key.startswith(("self:", "outer:")) or key == "enum_s"


def _sum_layers(p: PassResult) -> Dict[str, float]:
    total: Dict[str, float] = {}
    for o in p.ops:
        for k, v in o["layer"].items():
            total[k] = total.get(k, 0) + v
    return total


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(plain: PassResult, spans: PassResult, gf: PassResult) -> Dict[str, tuple]:
    """name -> (value, unit) from one untraced, one span and one gf pass."""
    s = _sum_layers(spans)
    g = _sum_layers(gf)

    def c(key):
        return s.get(key, 0)

    rref_calls = c("calls:matrix.rref")
    ps_calls = c("calls:code.puncture") + c("calls:code.shorten")
    out = {
        "gf.ops": (g.get("gf_ops", 0), "count"),
        "matrix.rref_calls": (rref_calls, "count"),
        "matrix.rref_cells": (c("rref_cells"), "count"),
        "matrix.rref_small_share": (_ratio(c("rref_small"), rref_calls), "ratio"),
        "code.enum_words": (c("enum_words"), "count"),
        "code.enum_s": (c("enum_s"), "s"),
        "code.min_distance_calls": (c("calls:code.min_distance"), "count"),
        "code.min_distance_s": (c("outer:min_distance"), "s"),
        "code.dependency_kernels": (c("dependency_kernels"), "count"),
        "code.puncture_shorten_calls": (ps_calls, "count"),
        "code.puncture_shorten_s": (c("outer:puncture_shorten"), "s"),
        "code.cache_hit_ratio": (_ratio(c("cache_hits:code"),
                                        c("cache_hits:code") + c("cache_misses:code")), "ratio"),
        "locality.sets_tested": (c("outer_calls:sets"), "count"),
        "locality.set_yield": (_ratio(c("true:sets"), c("outer_calls:sets")), "ratio"),
        "locality.verify_s": (c("outer:locality_verify"), "s"),
        "qlocality.ij_checks": (c("outer_calls:ij"), "count"),
        "qlocality.ij_yield": (_ratio(c("true:ij"), c("outer_calls:ij")), "ratio"),
        "qlocality.ij_s": (c("outer:ij"), "s"),
        "qlocality.filter_s": (c("outer:filter"), "s"),
        "qlocality.bridge_s": (c("outer:bridge"), "s"),
        "qlocality.purity_s": (c("outer:purity"), "s"),
        "symp.paired_calls": (c("calls:symp.puncture_paired") + c("calls:symp.shorten_paired"),
                              "count"),
        "symp.gsw_s": (c("outer:gsw"), "s"),
        "symp.cache_hit_ratio": (_ratio(c("cache_hits:symp"),
                                        c("cache_hits:symp") + c("cache_misses:symp")), "ratio"),
        "oracle.checks": (c("calls:oracle.exhaustive_ij_check"), "count"),
        "oracle.span_words": (c("span_words"), "count"),
        "oracle.s": (c("outer:oracle"), "s"),
        "constructions.build_s": (c("outer:constructions"), "s"),
        "files.load_s": (c("outer:files_load"), "s"),
        "files.save_s": (c("outer:files_save"), "s"),
        "files.bytes": (c("file_bytes"), "count"),
    }
    for layer in ("matrix", "code", "symp", "locality", "qlocality", "constructions", "oracle",
                  "files", "cli"):
        out[f"{layer}.self_s"] = (c(f"self:{layer}"), "s")
    out["trace.overhead_s"] = (spans.op_seconds - plain.op_seconds, "s")
    return out


# Counts that must repeat exactly between two traced runs of the same inputs.
DETERMINISTIC_COUNTS = ("gf.ops", "matrix.rref_calls", "code.enum_words",
                        "locality.sets_tested", "qlocality.ij_checks", "oracle.span_words")


# ---------------------------------------------------------------------------
# running a workload
# ---------------------------------------------------------------------------

def _failures(passes: List[PassResult]) -> List[str]:
    return [f"{o['id']}: {o['failure']}" for p in passes for o in p.ops if o["failure"]]


def measure(plan: Plan, golden: Golden, seconds: float, deadline: float) -> List[PassResult]:
    """Untraced passes until the next one would overrun ``seconds``."""
    t0 = perf_counter()
    passes = []
    while True:
        passes.append(run_pass(plan, golden, "plain", deadline))
        elapsed = perf_counter() - t0
        if elapsed + passes[-1].duration > seconds or perf_counter() >= deadline:
            return passes


def traced(plan: Plan, golden: Golden, seed: int, deadline: float):
    trace_dir = STATE / "trace" / plan.workload
    shutil.rmtree(trace_dir, ignore_errors=True)
    trace_dir.mkdir(parents=True)
    plain = run_pass(plan, golden, "plain", deadline)
    spans = run_pass(plan, golden, "spans", deadline, spans_dir=trace_dir)
    gf = run_pass(plan, golden, "gf", deadline)
    metrics = per_layer(plain, spans, gf)
    summary = {
        "workload": plan.workload, "seed": seed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "ops": [{"id": o["id"], "seconds": o["seconds"], "layer": o["layer"],
                 "gf_ops": g["layer"].get("gf_ops")}
                for o, g in zip(spans.ops, gf.ops)],
        "spans": sorted(str(p.relative_to(ROOT)) for p in trace_dir.glob("*.spans.json.gz")),
    }
    (trace_dir / "summary.json").write_text(json.dumps(summary, indent=1) + "\n",
                                            encoding="utf-8")
    return [plain, spans, gf], metrics


def save_samples(workload: str, seed: int, passes: List[PassResult], metrics: dict) -> None:
    """Keep every raw sample of an untraced run under .perfbench/runs/."""
    runs = STATE / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    data = {"workload": workload, "seed": seed, "metrics": metrics,
            "reference_s": REFERENCE_S,
            "columns": ["id", "reference seconds", "measured seconds", "kernel seconds"],
            "passes": [{"setups": p.setups, "raw_setups": p.raw_setups, "rss_kb": p.rss_kb,
                        "ops": [[o["id"], o["seconds"], o["raw"],
                                 o.get("record", {}).get("cal")] for o in p.ops]}
                       for p in passes]}
    (runs / f"{workload}-seed{seed}.json").write_text(json.dumps(data) + "\n", encoding="utf-8")


def print_table(title: str, rows: Dict[str, tuple]) -> None:
    print(title)
    for name, row in rows.items():
        value, unit = row[0], row[1]
        samples = f"  (n={row[2]})" if len(row) > 2 else ""
        text = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"  {name:30s} {text:>14s} {unit}{samples}")


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_workload(workload: str, seed: int, seconds: float, trace: bool, golden: Golden,
                 deadline: float):
    """Returns (passes, metrics name -> (value, unit, ...))."""
    plan = Plan(workload, seed, golden)
    if trace:
        passes, metrics = traced(plan, golden, seed, deadline)
        print_table(f"per-layer metrics, workload {workload}, seed {seed} "
                    f"(spans and counts in .perfbench/trace/{workload}/)", metrics)
    else:
        passes = measure(plan, golden, seconds, deadline)
        metrics = end_to_end(passes)
        save_samples(workload, seed, passes, metrics)
        attempted = sum(len(p.ops) for p in passes)
        failed = len(_failures(passes))
        print_table(f"end-to-end metrics, workload {workload}, seed {seed}, "
                    f"{len(passes)} passes", metrics)
        kernel = [o["record"]["cal"] for p in passes for o in p.ops if "record" in o]
        if kernel:
            print(f"  times are reference seconds: measured x {REFERENCE_S * 1000:g} ms / "
                  f"kernel time sampled around the op "
                  f"(median {statistics.median(kernel) * 1000:.4g} ms)")
        print(f"  {'fail_frac':30s} {failed / attempted:>14.6g} ratio  (n={attempted})")
    for line in _failures(passes)[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    return passes, metrics


def result_line(passes: List[PassResult], metrics: Dict[str, tuple], names: List[str]) -> dict:
    attempted = sum(len(p.ops) for p in passes)
    failed = len(_failures(passes))
    return {"correct": failed == 0 and attempted > 0, "attempted": attempted, "failed": failed,
            "metrics": {n: {"value": metrics[n][0], "unit": metrics[n][1]} for n in names}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS + ("all", "smoke"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    workloads = wl.WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = perf_counter() + HARD_LIMIT_S * len(workloads)

    if not (ROOT / "src" / "qlrc" / "__init__.py").is_file():
        print(f"error: no qlrc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    golden = Golden(HERE / "golden")
    spec = benchmark_spec()
    names = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    print(f"qlrc benchmark: seed {args.seed}, {args.seconds:g} s per workload, "
          f"trace {args.trace}, python {sys.version.split()[0]}, nproc {os.cpu_count()}")
    all_passes: List[PassResult] = []
    all_metrics: Dict[str, tuple] = {}
    for workload in workloads:
        passes, metrics = run_workload(workload, args.seed, args.seconds, bool(args.trace),
                                       golden, deadline)
        all_passes.extend(passes)
        if len(workloads) == 1:
            all_metrics = metrics
        else:
            all_metrics.update({f"{workload}.{k}": v for k, v in metrics.items()})
    if len(workloads) > 1:
        names = [f"{w}.{n}" for w in workloads for n in names]
    missing = [n for n in names if n not in all_metrics]
    if missing:   # no op finished, so there is nothing to report
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 2
    print(json.dumps(result_line(all_passes, all_metrics, names)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
