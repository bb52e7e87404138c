"""One ``qlrc`` process of the benchmark.

Protocol (one JSON object per line): the worker imports numpy and qlrc,
prints ``{"ready": true}``, reads one job from stdin, runs it, prints the
result and exits.  The benchmark's own modules (timing, tracing) are
imported only after the ready line, so set-up measures the interpreter,
numpy and qlrc alone.  The parent times spawn-to-ready as set-up; each op is
timed here with ``perf_counter`` around the public call only, next to the
machine-speed samples of ``calibrate.py``.

Jobs:
  {"kind": "cli", "op": {...}, "mode": m}            one ``qlrc.cli.main(argv)``
  {"kind": "session", "carriers": [...], "mode": m}  a warm library session

``mode`` is ``plain`` (timing only), ``spans`` (span tracing, spans written
to ``spans_path``) or ``gf`` (Field-op counting).
"""

from __future__ import annotations

import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import numpy  # noqa: F401  (set-up includes numpy, which qlrc's enumeration imports)

import qlrc
import qlrc.cli
import qlrc.files

SRC = Path(__file__).resolve().parent.parent / "src"


def cert_digest(cert) -> str:
    import hashlib

    if cert is None:
        return ""
    text = json.dumps(cert.to_json(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class Probe:
    """Times ops and, when tracing, collects each op's layer counters.

    Machine-speed samples (``calibrate.SpeedSampler``) are taken in a burst
    before the first op, on a timer tick while ops run and in a burst after
    the last op; ``finish`` takes the tick time out of each op and gives it
    the mean kernel time sampled around it as ``cal``.
    """

    def __init__(self, mode: str) -> None:
        from calibrate import SpeedSampler

        self.tracer = self.gf = None
        if mode == "spans":
            from tracer import SpanTracer
            self.tracer = SpanTracer()
        elif mode == "gf":
            from tracer import GfCounter
            self.gf = GfCounter()
        for hook in (self.tracer, self.gf):
            if hook is not None:
                hook.install()
        self.op_ranges = []
        self.speed = SpeedSampler()
        self.setup_cal = self.speed.burst()
        self._timed = []
        self.speed.start_ticks()

    def run(self, op_id: str, fn):
        tr, gf = self.tracer, self.gf
        if tr is not None:
            lo, counters0, caches0 = tr.mark(), dict(tr.counters), tr.cache_snapshot()
        if gf is not None:
            gf0 = gf.snapshot()
        error = None
        t0 = perf_counter()
        try:
            out = fn()
        except Exception:  # an op that raises is a failed op, the session goes on
            import traceback

            out = None
            error = traceback.format_exc(limit=4)
        t1 = perf_counter()
        layer = {}
        if tr is not None:
            hi = tr.mark()
            self.op_ranges.append({"id": op_id, "first": lo, "end": hi})
            layer = tr.summarize(lo, hi)
            for key, val in tr.counters.items():
                if val != counters0.get(key, 0):
                    layer[key] = val - counters0.get(key, 0)
            for lay, (hits, misses) in tr.cache_snapshot().items():
                layer[f"cache_hits:{lay}"] = hits - caches0[lay][0]
                layer[f"cache_misses:{lay}"] = misses - caches0[lay][1]
        if gf is not None:
            layer["gf_ops"] = sum(gf.snapshot().values()) - sum(gf0.values())
        rec = {"id": op_id, "error": error, "layer": layer}
        self._timed.append((rec, t0, t1))
        return out, rec

    def finish(self) -> None:
        self.speed.stop_ticks()
        self.speed.burst()
        for rec, t0, t1 in self._timed:
            rec["seconds"] = (t1 - t0) - self.speed.spent_within(t0, t1)
            rec["cal"] = self.speed.speed_around(t0, t1)


def run_cli(job: dict, probe: Probe) -> list:
    op = job["op"]
    out_buf, err_buf = io.StringIO(), io.StringIO()

    def call():
        with redirect_stdout(out_buf), redirect_stderr(err_buf):
            return qlrc.cli.main(op["argv"])

    rc, rec = probe.run(op["id"], call)
    rec.update(rc=rc, stdout=out_buf.getvalue(), stderr=err_buf.getvalue())
    return [rec]


def run_session(job: dict, probe: Probe) -> list:
    from qlrc import IndexSet, exhaustive_ij_check, ij_recoverable, verify_quantum_rdelta_lrc

    loaded = []
    for c in job["carriers"]:
        codes = [qlrc.files.loads_code(text) for text in c["codes"]]
        loaded.append((c, tuple(codes) if c["form"] == "css" else codes[0]))

    # Every verdict runs before the first seeded oracle pair, so the verdicts
    # see the same cache and allocation history (and so the same garbage
    # collections) whatever the seed.
    records = []
    for c, carrier in loaded:
        for v in c["verdicts"]:
            verdict, rec = probe.run(v["id"], lambda: verify_quantum_rdelta_lrc(
                carrier, c["form"], v["r"], v["delta"]))
            if verdict is not None:
                rec.update(status=verdict.status, cert=cert_digest(verdict.certificate))
            records.append(rec)
    for c, carrier in loaded:
        n = c["n"]
        for p in c["pairs"]:
            I, J = IndexSet.of(n, p["I"]), IndexSet.of(n, p["J"])
            both, rec = probe.run(p["id"], lambda: (exhaustive_ij_check(carrier, I, J),
                                                    ij_recoverable(carrier, I, J)))
            if both is not None:
                rec.update(oracle=both[0], criterion=both[1])
            records.append(rec)
    return records


def main() -> int:
    import resource

    if SRC not in Path(qlrc.__file__).resolve().parents:
        print(f"qlrc imported from {qlrc.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    proto = sys.stdout
    proto.write('{"ready": true}\n')
    proto.flush()
    job = json.loads(sys.stdin.readline())
    probe = Probe(job["mode"])
    records = (run_cli if job["kind"] == "cli" else run_session)(job, probe)
    probe.finish()
    if probe.tracer is not None and job.get("spans_path"):
        probe.tracer.dump(job["spans_path"], probe.op_ranges)
    result = {"records": records, "setup_cal": probe.setup_cal,
              "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    proto.write(json.dumps(result) + "\n")
    proto.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
