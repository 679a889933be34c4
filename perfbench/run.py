"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload sew_solve_check --seed 20240901 \
        --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  With ``--trace 0`` the operations run in a closed loop, one after
another in this single thread, for ``--seconds`` seconds (more if the
workload's fixed number of operations or its round is not done yet), with a
short fixed probe between them to track the host's speed; the last line of
standard output holds the end-to-end metrics.  With ``--trace 1`` the
workload's fixed number of operations runs once untraced and once under the
tracer, and the last line holds the per-layer metrics, per completed
operation.  The line before the last is a report with the run's metadata,
sizes, the metrics in seconds, the digest of the fixed operations' outputs
and every failed input.

A raising operation and an answer that fails its gate both count as failed.
``correct`` is false when a gate fails, when an operation raises in a way
that is not a known defect, or when nothing completes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TRACE_DIR = ROOT / ".perfbench_trace"
SETUP_REPEATS = 9
PROBE_EVERY_S = 0.25

# name -> unit, in the order BENCHMARK.json lists them
END_TO_END = {
    "ops_per_probe": "1/probe",
    "op_p50_probes": "probe",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "grassmann.GradedPoly.mul.calls": "count/op",
    "grassmann.GradedPoly.mul.time_s": "s/op",
    "grassmann.GradedPoly.mul.pairs": "count/op",
    "grassmann.GradedPoly.mul.yield": "ratio",
    "grassmann.GradedPoly.add.calls": "count/op",
    "grassmann.GradedPoly.add.time_s": "s/op",
    "grassmann.GrassmannElement.mul.calls": "count/op",
    "grassmann.GrassmannElement.mul.time_s": "s/op",
    "grassmann.GrassmannElement.mul.pairs": "count/op",
    "grassmann.GrassmannElement.mul.yield": "ratio",
    "grassmann.QQi.mul.calls": "count/op",
    "grassmann.QQi.add.calls": "count/op",
    "superseries.SFun.mul.calls": "count/op",
    "superseries.SFun.mul.time_s": "s/op",
    "superseries.SFun.mul.pairs": "count/op",
    "superseries.SFun.mul.yield": "ratio",
    "superseries.SFun.power.calls": "count/op",
    "superseries.SFun.power.self_s": "s/op",
    "superseries.ss_compose.calls": "count/op",
    "superseries.ss_compose.self_s": "s/op",
    "superseries.ss_invert.self_s": "s/op",
    "superseries.ss_invert.rounds": "count/op",
    "superseries.ss_exp_zero.self_s": "s/op",
    "superseries.ss_extract_zero.self_s": "s/op",
    "nsalg.VermaModule.apply_gen.calls": "count/op",
    "nsalg.VermaModule.apply_gen.misses": "count/op",
    "nsalg.VermaModule.apply_gen.time_s": "s/op",
    "nsalg.VermaModule.basis_size": "count/op",
    "sewing.sw_solve.time_s": "s/op",
    "sewing.sw_solve.self_s": "s/op",
    "sewing.sw_consistency_check.time_s": "s/op",
    "sewing.sw_consistency_check.self_s": "s/op",
    "sewing.Factorization.lhs.calls": "count/op",
    "sewing.Factorization.lhs.self_s": "s/op",
    "sewing.Factorization.rhs.calls": "count/op",
    "sewing.Factorization.rhs.self_s": "s/op",
    "sewing.certified_terms": "count/op",
    "vosa.jacobi_check.self_s": "s/op",
    "vosa.jacobi_check.checked": "count/op",
    "vosa.jacobi_check.skipped": "count/op",
    "vosa.jacobi_check.coverage": "ratio",
    "vosa.ns_modes_check.self_s": "s/op",
    "vosa.VertexData.mode_apply_vec.calls": "count/op",
    "vosa.VertexData.mode_apply_vec.time_s": "s/op",
    "vosa.xmode_cache.entries": "count/op",
    "trace.overhead": "ratio",
}


@dataclass
class Record:
    op: int
    seconds: float
    digest: str
    failure: dict | None = None
    counts: dict | None = None
    probe_s: float = 0.0


def attempt(w, index: int, inp, call=None) -> Record:
    """Run one operation, time it and gate its answer.

    call replaces w.run, so a traced run can wrap it in a root span.
    """
    from workloads import digest

    call = call or w.run
    t0 = perf_counter()
    try:
        out = call(inp)
    except Exception as exc:  # a raising operation is a result to record
        seconds = perf_counter() - t0
        return Record(index, seconds, "raised:" + type(exc).__name__,
                      _failure(w, index, inp, "raised", exc))
    seconds = perf_counter() - t0
    try:
        w.gate(inp, out)
        return Record(index, seconds, digest(w.payload(out)), counts=w.counts(out))
    except Exception as exc:  # includes GateError: the answer is wrong
        return Record(index, seconds, "wrong:" + type(exc).__name__,
                      _failure(w, index, inp, "gate", exc))


def _failure(w, index, inp, stage, exc) -> dict:
    return {"op": index, "input": w.describe(inp), "stage": stage,
            "error": type(exc).__name__, "message": str(exc)[:200],
            "known": stage == "raised" and w.known_failure(inp, exc)}


def probe() -> float:
    """Seconds a fixed pure-Python computation takes right now.

    It uses nothing from superns.  Shared hosts change speed by up to 2x
    within seconds; dividing each operation's time by the probes taken just
    before and after it cancels most of that swing.
    """
    t0 = perf_counter()
    s, d = Fraction(0), {}
    for i in range(1, 2500):
        s += Fraction(1, i % 97 + 1)
        d[i % 13] = s
    return perf_counter() - t0


def timed_loop(w, pool: list, seconds: float) -> list:
    """Run operations for at least `seconds`, ending on a whole round.

    A probe runs before the first operation and after any operation that
    ends PROBE_EVERY_S or more after the last probe; each record's
    `probe_s` is the mean of the probes that bracket it.
    """
    records, pending, before = [], [], probe()
    start = last = perf_counter()
    i = 0
    while i < w.fixed_ops or i % w.round_ops or perf_counter() - start < seconds:
        pending.append(attempt(w, i, pool[i % len(pool)]))
        i += 1
        if perf_counter() - last >= PROBE_EVERY_S:
            after = probe()
            last = perf_counter()
            for r in pending:
                r.probe_s = (before + after) / 2
            records += pending
            pending, before = [], after
    after = probe()
    for r in pending:
        r.probe_s = (before + after) / 2
    return records + pending


def outcome(records: list) -> dict:
    """Counts and the correctness verdict shared by both modes."""
    failures = [r.failure for r in records if r.failure]
    completed = len(records) - len(failures)
    correct = completed > 0 and all(f["known"] for f in failures)
    return {"attempted": len(records), "completed": completed,
            "failed": len(failures), "correct": correct, "failures": failures}


def run_digest(records: list, n: int) -> str:
    h = hashlib.sha256()
    for r in records[:n]:
        h.update(f"{r.op}:{r.digest}\n".encode())
    return h.hexdigest()


def end_to_end(records: list, setup_s: float) -> tuple[dict, dict]:
    """The gated metrics, and those only the report line carries.

    Latency and throughput are gated in probe units: each operation's time
    divided by its bracketing probes, which cancels most of the host's
    swings in speed.  The report keeps them in seconds too.
    """
    done = [r for r in records if not r.failure]
    secs = sorted(r.seconds for r in done)
    busy = sum(r.seconds for r in records)
    busy_probes = sum(r.seconds / r.probe_s for r in records)
    raw = {
        "ops_per_s": len(done) / busy,
        "op_p50_s": statistics.median(secs) if done else 0.0,
        "fail_share": (len(records) - len(done)) / len(records),
        "probe_s": statistics.median(r.probe_s for r in records),
    }
    # a tail percentile needs at least ten samples beyond it
    if len(done) >= 100:
        raw["op_p90_s"] = statistics.quantiles(secs, n=10)[8]
    metrics = {
        "ops_per_probe": len(done) / busy_probes,
        "op_p50_probes": statistics.median(r.seconds / r.probe_s for r in done) if done else 0.0,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return metrics, raw


REPORT_UNITS = {"ops_per_s": "1/s", "op_p50_s": "s", "op_p90_s": "s",
                "fail_share": "ratio", "probe_s": "s"}


def per_layer(counts, completed: int, overhead: float) -> dict:
    per_op = max(completed, 1)
    out = {}
    for name in PER_LAYER:
        base, _, leaf = name.rpartition(".")
        if leaf == "yield":
            pairs = counts[base + ".pairs"]
            out[name] = counts[base + ".out_terms"] / pairs if pairs else 0.0
        elif name == "vosa.jacobi_check.coverage":
            bins = counts["vosa.jacobi_check.checked"] + counts["vosa.jacobi_check.skipped"]
            out[name] = counts["vosa.jacobi_check.checked"] / bins if bins else 0.0
        elif name == "trace.overhead":
            out[name] = overhead
        else:
            out[name] = counts[name] / per_op
    return out


def measure_setup(workload: str, seed: int) -> list:
    """Process start to first operation, in fresh interpreters."""
    samples = []
    for _ in range(SETUP_REPEATS):
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(seed), "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up run failed: {proc.stderr.strip()[-500:]}")
        samples.append(float(proc.stdout.split()[-1]) - t0)
    return samples


def commit() -> str | None:
    """HEAD of the checkout if it is a git work tree, read without git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def metadata(w, seed: int, trace: int) -> dict:
    return {"workload": w.name, "seed": seed, "trace": trace, "size": w.size,
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "commit": commit()}


def contract_line(result: dict, metrics: dict, units: dict) -> str:
    return json.dumps({
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units}})


def run_timed(w, pool, seed, seconds):
    setup = measure_setup(w.name, seed)
    records = timed_loop(w, pool, seconds)
    result = outcome(records)
    metrics, raw = end_to_end(records, statistics.median(setup))
    report = metadata(w, seed, 0) | {
        k: result[k] for k in ("attempted", "completed", "failed", "failures")}
    report |= {"metrics": {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}
               | {k: {"value": v, "unit": REPORT_UNITS[k]} for k, v in raw.items()},
               "setup_samples_s": setup,
               "digest": run_digest(records, w.fixed_ops), "digest_ops": w.fixed_ops}
    print(json.dumps({"report": report}))
    print(contract_line(result, metrics, END_TO_END))


def run_traced(w, pool, seed):
    from layertrace import Tracer

    ops = pool[:w.fixed_ops]
    plain = [attempt(w, i, inp) for i, inp in enumerate(ops)]
    tracer = Tracer()
    tracer.install()
    try:
        traced = [attempt(w, i, inp, call=lambda x, i=i: tracer.op_span(i, w.run, x))
                  for i, inp in enumerate(ops)]
    finally:
        tracer.uninstall()
    for r in traced:
        tracer.counts.update(r.counts or {})
    result = outcome(traced)
    same = run_digest(plain, len(ops)) == run_digest(traced, len(ops))
    result["correct"] = result["correct"] and outcome(plain)["correct"] and same
    overhead = sum(r.seconds for r in traced) / sum(r.seconds for r in plain)
    metrics = per_layer(tracer.counts, result["completed"], overhead)
    TRACE_DIR.mkdir(exist_ok=True)
    spans_file = TRACE_DIR / f"{w.name}-seed{seed}.json"
    spans_file.write_text(json.dumps({
        "columns": ["op", "name", "parent", "start_s", "end_s"],
        "spans": tracer.spans, "counts": dict(tracer.counts)}))
    report = metadata(w, seed, 1) | {
        k: result[k] for k in ("attempted", "completed", "failed", "failures")}
    report |= {"digest": run_digest(traced, len(ops)), "digest_ops": len(ops),
               "traced_digest_matches_untraced": same,
               "spans_file": str(spans_file.relative_to(ROOT)),
               "span_count": len(tracer.spans)}
    print(json.dumps({"report": report}))
    print(contract_line(result, metrics, PER_LAYER))


def main(argv=None) -> int:
    meta = json.loads((HERE / "meta.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=meta["default_seed"])
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="import and build the inputs, print the clock, exit")
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "superns" / "__init__.py").is_file():
        print(f"no superns package under {src}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from workloads import WORKLOADS

    w = WORKLOADS.get(args.workload)
    if w is None:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    pool = w.make_inputs(random.Random(args.seed))
    if args.setup_only:
        print(time.monotonic())
        return 0
    if args.trace:
        run_traced(w, pool, args.seed)
    else:
        run_timed(w, pool, args.seed, args.seconds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
