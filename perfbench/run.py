#!/usr/bin/env python3
"""intentd benchmark: one workload, one seed, one measured window.

    python3 perfbench/run.py --workload chain-churn --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
./src.  Every caller is a closed loop: one caller, one outstanding request.
The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`.  With --trace 0 the metrics are the
end-to-end ones of BENCHMARK.json, with --trace 1 the per-layer ones.  The
full record (every metric, the run's provenance and, when traced, the
per-span breakdown) is written to perfbench/out/, spans as CSV beside it.

A traced run spends half its time untraced and half traced, on the same
workload and seed, so the tracing overhead comes from one process.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import reference

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
HASH_SEED = "0"
CALIBRATION_SAMPLES = 5

SETUPS = {"cli-oneshot": 5}
DEFAULT_SETUPS = 9


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("chain-churn", "grid-distinct", "rest-mixed", "cli-oneshot"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def percentile(values, q: int) -> float:
    if len(values) < 2:
        return float(values[0]) if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def source_digest() -> str:
    h = hashlib.sha256()
    for base, dirs, files in os.walk(os.path.join(SRC, "intentd")):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(f for f in files if f.endswith(".py")):
            path = os.path.join(base, name)
            h.update(os.path.relpath(path, SRC).encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def git_commit() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def provenance(args) -> dict:
    return {
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "workload": args.workload,
        "hash_seed": HASH_SEED,
        "note": "closed loop, one caller; REST traffic crossed the 127.0.0.1 loopback only",
    }


def measure(workload, seconds: float, tally):
    gc.collect()
    workload.run(time.perf_counter_ns() + int(seconds * 1e9), tally)
    return tally


def slowness(ref_ns) -> float:
    """The factor by which this run's times are divided (see reference.py)."""
    return (statistics.median(ref_ns) / reference.NOMINAL_NS) ** reference.EXPONENT


def timed_setup(workload) -> tuple[float, float]:
    """One set-up in seconds, raw and scaled by the kernel runs around it."""
    before = [reference.probe() for _ in range(2)]
    t0 = time.perf_counter_ns()
    workload.setup()
    raw = (time.perf_counter_ns() - t0) / 1e9
    after = [reference.probe() for _ in range(2)]
    return raw, raw / slowness(before + after)


def end_to_end(name: str, tally, setups: list[tuple[float, float]], rss_kb: int) -> tuple[dict, dict]:
    """The bounded metrics (every workload has them) and the workload-specific extras.

    Times are scaled to the nominal speed of the reference kernel; the
    bounded ones are also recorded unscaled, under `raw.`.
    """
    slow = slowness(tally.ref_ns)
    us = lambda ns: ns / 1e3 / slow  # noqa: E731
    submit = tally.lat["submit"]
    throughput = statistics.median(tally.segments) if tally.segments else tally.completed / (tally.busy_ns / 1e9)
    metrics = {
        "submit_p50_us": (us(statistics.median(submit)), "us"),
        "throughput_ops_s": (throughput * slow, "1/s"),
        "setup_s": (statistics.median(scaled for _, scaled in setups), "s"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
    }
    extras = {
        "raw.submit_p50_us": (statistics.median(submit) / 1e3, "us"),
        "raw.submit_p90_us": (percentile(submit, 90) / 1e3, "us"),
        "raw.throughput_ops_s": (throughput, "1/s"),
        "raw.setup_s": (statistics.median(raw for raw, _ in setups), "s"),
        "reference_kernel_us": (statistics.median(tally.ref_ns) / 1e3, "us"),
        "reference_runs": (len(tally.ref_ns), "count"),
        "error_rate": (tally.failed / tally.attempted, "ratio"),
        "submit_p90_us": (us(percentile(submit, 90)), "us"),
        "submit_p99_us": (us(percentile(submit, 99)), "us"),
        "throughput_mean_ops_s": (tally.completed / (tally.busy_ns / 1e9) * slow, "1/s"),
        "throughput_segments": (len(tally.segments), "count"),
        "repeat_share": (tally.repeats / tally.submissions if tally.submissions else 0.0, "ratio"),
    }
    for kind, label in (("withdraw", "withdraw"), ("read", "read"), ("health", "health")):
        if tally.lat[kind]:
            extras[f"{label}_p50_us"] = (us(statistics.median(tally.lat[kind])), "us")
    if tally.lat["read"]:
        extras["read_p99_us"] = (us(percentile(tally.lat["read"], 99)), "us")
    if tally.drift_first and tally.drift_last:
        extras["install_drift"] = (statistics.median(tally.drift_last) / statistics.median(tally.drift_first), "ratio")
    if name == "cli-oneshot":
        extras["cli_p50_ms"] = (us(statistics.median(submit)) / 1e3, "ms")
        extras["cli_p90_ms"] = (us(percentile(submit, 90)) / 1e3, "ms")
    if tally.rules_per_intent:
        extras["rules_per_intent"] = (statistics.fmean(tally.rules_per_intent), "count")
    extras["rules_max_per_device"] = (tally.rules_max_per_device, "count")
    for kind, values in tally.lat.items():
        extras[f"samples.{kind}"] = (len(values), "count")
    return metrics, extras


def per_layer(tracer, traced, window_ns: int, untraced, calib) -> tuple[dict, dict]:
    st = tracer.self_times()
    roots = st.pop("_roots")

    def row(n):
        return st.get(n, {"calls": 0, "dur_ns": 0, "self_ns": 0})

    def mean_self(n):
        r = row(n)
        return r["self_ns"] / r["calls"] / 1e3 if r["calls"] else 0.0

    def mean_dur(n):
        r = row(n)
        return r["dur_ns"] / r["calls"] / 1e3 if r["calls"] else 0.0

    submits = row("intents.submit")["calls"]
    sp = row("topology.shortest_path")
    ops = roots["calls"]
    kops = ops / 1000 if ops else 1.0
    spans_ns = sum(r["self_ns"] for r in st.values())
    p50 = lambda t: statistics.median(t.lat["submit"]) / 1e3 / slowness(t.ref_ns) if t.lat["submit"] else 0.0  # noqa: E731
    med = lambda xs: statistics.median(xs) if xs else 0.0  # noqa: E731
    metrics = {
        "topology.shortest_path_us": (sp["self_ns"] / submits / 1e3 if submits else 0.0, "us"),
        "topology.shortest_path_calls": (sp["calls"] / submits if submits else 0.0, "count"),
        "intents.validate_us": (mean_self("intents.validate"), "us"),
        "intents.admit_us": (mean_self("intents.admit"), "us"),
        "intents.transition_us": (mean_self("intents.transition"), "us"),
        "intents.rule_build_us": (mean_self("intents.rule_build"), "us"),
        "intents.submit_self_us": (mean_self("intents.submit"), "us"),
        "intents.withdraw_self_us": (mean_self("intents.withdraw"), "us"),
        "intents.rules_per_intent": (statistics.fmean(traced.rules_per_intent) if traced.rules_per_intent else 0.0, "count"),
        "intents.store_size": (traced.store_size, "count"),
        "fabric.install_us": (mean_self("fabric.install"), "us"),
        "fabric.remove_us": (mean_self("fabric.remove"), "us"),
        "fabric.inject_us": (mean_self("fabric.inject"), "us"),
        "fabric.rules_max_per_device": (traced.rules_max_per_device, "count"),
        "rest.client_us": (mean_dur("rest.client"), "us"),
        "rest.server_us": (mean_dur("rest.server"), "us"),
        "rest.wire_us": (mean_self("rest.client"), "us"),
        "rest.parse_us": (mean_self("rest.parse"), "us"),
        "rest.encode_us": (mean_self("rest.encode"), "us"),
        "rest.http_other_us": (mean_self("rest.server"), "us"),
        "cli.interpreter_ms": (med(calib.get("interpreter", [])), "ms"),
        "cli.import_ms": (med(calib.get("import", [])), "ms"),
        "cli.main_ms": (med(calib.get("main", [])), "ms"),
        "gc.pause_ms": (tracer.gc_pause_ns / 1e6 / kops, "ms/kop"),
        "gc.collections": (tracer.gc_collections / kops, "1/kop"),
        "trace.total_us": (window_ns / ops / 1e3 if ops else 0.0, "us"),
        "trace.spans_us": (spans_ns / ops / 1e3 if ops else 0.0, "us"),
        "trace.untraced_us": ((window_ns - spans_ns) / ops / 1e3 if ops else 0.0, "us"),
        "trace.overhead_us": (p50(traced) - p50(untraced), "us"),
        "trace.overhead_pct": ((p50(traced) / p50(untraced) - 1) * 100 if p50(untraced) else 0.0, "%"),
    }
    breakdown = {
        n: {"calls": r["calls"], "self_ms": r["self_ns"] / 1e6, "share": r["self_ns"] / window_ns if window_ns else 0.0}
        for n, r in sorted(st.items(), key=lambda kv: -kv[1]["self_ns"])
    }
    breakdown["(untraced remainder)"] = {
        "calls": 0, "self_ms": (window_ns - spans_ns) / 1e6,
        "share": (window_ns - spans_ns) / window_ns if window_ns else 0.0,
    }
    breakdown["(traced total)"] = {"calls": ops, "self_ms": window_ns / 1e6, "share": 1.0}
    return metrics, breakdown


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "intentd", "__init__.py")):
        print(f"error: no intentd sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import spans
    import workloads

    meta = provenance(args)
    workload = workloads.make(args.workload, args.seed, SRC)
    setups = []
    try:
        for i in range(SETUPS.get(args.workload, DEFAULT_SETUPS)):
            if i:
                workload.close()
            setups.append(timed_setup(workload))

        breakdown = None
        if args.trace == 0:
            tally = measure(workload, args.seconds, workloads.Tally())
            if args.workload == "cli-oneshot":
                rss_kb = workload.peak_rss_kb()
            else:
                rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            metrics, extras = end_to_end(args.workload, tally, setups, rss_kb)
            attempted, failed, invariant_errors, errors = tally.attempted, tally.failed, tally.invariant_errors, tally.errors
        else:
            untraced = measure(workload, args.seconds / 2, workloads.Tally())
            tracer = spans.Tracer()
            tracer.install()
            try:
                t0 = time.perf_counter_ns()
                traced = workloads.Tally(tracer)
                calib = {}
                if args.workload == "cli-oneshot":
                    calib = workload.calibrate(traced, CALIBRATION_SAMPLES)
                measure(workload, args.seconds / 2, traced)
                if args.workload == "cli-oneshot":
                    traced.window_ns = time.perf_counter_ns() - t0
            finally:
                tracer.uninstall()
            if hasattr(workload, "settle"):
                workload.settle()
            metrics, breakdown = per_layer(tracer, traced, traced.busy_ns, untraced, calib)
            extras = {}
            attempted = untraced.attempted + traced.attempted
            failed = untraced.failed + traced.failed
            invariant_errors = untraced.invariant_errors + traced.invariant_errors
            errors = untraced.errors + traced.errors
    finally:
        workload.close()

    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    if breakdown is not None:
        tracer.write(stem + ".spans.csv.gz")
    correct = failed == 0 and not invariant_errors
    record = {
        "meta": meta,
        "setup_samples_s": setups,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "extras": {k: {"value": v, "unit": u} for k, (v, u) in extras.items()},
        "breakdown": breakdown,
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "invariant_errors": invariant_errors,
    }
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print("# " + json.dumps(meta))
    for k, (v, u) in {**metrics, **extras}.items():
        print(f"{k:32s} {v:14.4f} {u}")
    if breakdown is not None:
        print(f"{'span':32s} {'calls':>9s} {'self_ms':>12s} {'share':>7s}")
        for n, r in breakdown.items():
            print(f"{n:32s} {r['calls']:9d} {r['self_ms']:12.3f} {r['share']:7.3f}")
    for e in errors + invariant_errors:
        print(f"error: {e}", file=sys.stderr)
    if invariant_errors:
        print(json.dumps({"correct": False, "attempted": attempted, "failed": failed, "metrics": {}}))
        return 1
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # String hashing decides dict and set layouts along the hot paths;
        # one fixed hash seed takes that source of run-to-run spread away.
        os.execve(sys.executable, [sys.executable, *sys.argv], {**os.environ, "PYTHONHASHSEED": HASH_SEED})
    sys.exit(main())
