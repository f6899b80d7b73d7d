#!/usr/bin/env python3
"""Record alternating parent/change benchmark runs in one BENCH_<n>.json.

    scripts/record_bench.py --parent <checkout> --pairs 10 --seconds 30 --seed 1 --out BENCH_15.json

The change side is the checkout that holds this script; the parent side is
another checkout, typically of the commit before.  For every workload that
BENCHMARK.json names, each pair runs

    python3 perfbench/run.py --workload <w> --seed <k> --seconds <s> --trace 0

from the root of one side and then of the other, the parent first in even
pairs, and reads each run's full record from that side's perfbench/out/.
Beside the gated metrics, each untraced run also gives the UNGATED extras
that its workload reports, and its set-up samples (raw and scaled), whose
median is that run's setup_s.
After the pairs, TRACED_PAIRS alternating traced pairs (`--trace 1`) per
workload record the per-layer split.  The file holds, per workload and
metric, every run of each side, each side's median and quartiles, the
pairs the change won, and each pair's change/parent ratio; per traced run,
every per-layer metric and the call count of every span, with each side's
median, min and max per metric; plus the commit and source digest of each
side, nproc, the Python version and the host's steal time from /proc/stat
over the whole recording.
Last comes an UNGATED paired spawn A/B of the CLI: for each add subcommand,
SPAWN_PAIRS pairs of `python -m intentd.cli add-...` processes, the sides
alternating spawn by spawn, each with the environment cli-oneshot gives its
spawns.  A 30 s run's spawn median follows the host's drift across the run;
a pair's two spawns share it, so the per-pair ratios and win counts resolve
a change of a few percent that the runs' medians do not.
Only the standard library is used.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")
# one traced run per side cannot resolve a 10-20% change in one layer
TRACED_PAIRS = 3
# extras recorded beside the gated metrics, with which way is better: they
# show how a throughput change splits between submits, withdraws and reads,
# and the tail of the CLI spawns, where the host-to-host adds sit
UNGATED = {"withdraw_p50_us": "lower", "read_p50_us": "lower", "cli_p90_ms": "lower"}
# spawn pairs per add subcommand in the CLI spawn A/B
SPAWN_PAIRS = 60
# one fixed command per add subcommand, on the built-in chain
SPAWN_ARGV = {
    "P2P": ["add-point-to-point-intent", "--output", "json",
            "of:0000000000000001/1", "of:0000000000000005/2"],
    "S2M": ["add-single-to-multi-point-intent", "--output", "json",
            "of:0000000000000001/1", "of:0000000000000003/2", "of:0000000000000005/2"],
    "M2S": ["add-multi-to-single-point-intent", "--output", "json",
            "of:0000000000000001/1", "of:0000000000000003/2", "of:0000000000000005/2"],
    "H2H": ["add-host-to-host-intent", "--output", "json", "h1", "h2"],
}


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True, help="root of the parent side's checkout")
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, help="the JSON file to write")
    args = p.parse_args(argv)
    if args.pairs < 1 or args.seconds <= 0:
        p.error("--pairs must be >= 1 and --seconds > 0")
    if not os.path.isfile(os.path.join(args.parent, "perfbench", "run.py")):
        p.error(f"--parent {args.parent} has no perfbench/run.py")
    return args


def cpu_ticks() -> list[int]:
    """The host's `cpu` ticks in /proc/stat, user to steal; empty if unreadable."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            return [int(t) for t in fh.readline().split()[1:9]]
    except (OSError, ValueError):
        return []


def steal_pct(before: list[int], after: list[int]) -> float | None:
    if len(before) < 8 or len(after) < 8:
        return None
    total = sum(after) - sum(before)
    return round(100 * (after[7] - before[7]) / total, 3) if total else 0.0


def run_once(root: str, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark run from `root`; its record as perfbench/run.py wrote it."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"error: {' '.join(cmd)} in {root} exited {proc.returncode}:\n{proc.stderr}")
    path = os.path.join(root, "perfbench", "out", f"{workload}-seed{seed}-trace{trace}.json")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def side_summary(runs: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive") if len(runs) > 1 else runs * 3
    return {"runs": [round(v, 4) for v in runs], "median": round(median, 4),
            "q1": round(q1, 4), "q3": round(q3, 4)}


def pair_ratio(parent: list[float], change: list[float]) -> dict | None:
    """change/parent of each pair, with their median, min and max; None if a
    parent run reads 0.  Both sides of a pair share the host's drift, so these
    show a change that the parent's unpaired spread would hide."""
    if not all(parent):
        return None
    ratios = [round(c / p, 4) for p, c in zip(parent, change)]
    return {"pairs": ratios, "median": round(statistics.median(ratios), 4),
            "min": min(ratios), "max": max(ratios)}


def compare(parent: list[float], change: list[float], better: str, gated: bool) -> dict:
    ps, cs = side_summary(parent), side_summary(change)
    won = sum((c < p) if better == "lower" else (c > p) for p, c in zip(parent, change))
    return {
        "gated": gated,
        "better": better,
        "parent": ps,
        "change": cs,
        "change_better_in_pairs": won,
        "median_change_pct": round(100 * (cs["median"] / ps["median"] - 1), 2) if ps["median"] else None,
        "parent_iqr": round(ps["q3"] - ps["q1"], 4),
        "pair_ratio": pair_ratio(parent, change),
    }


def opposite(a: float | None, b: float | None) -> bool:
    """Whether two median changes point opposite ways; a 0 or a None points none."""
    return a is not None and b is not None and a * b < 0


def uncommitted_src(root: str) -> bool | None:
    """Whether src/ differs from the checkout's commit; None without git."""
    try:
        proc = subprocess.run(["git", "status", "--porcelain", "--", "src"], cwd=root,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return bool(proc.stdout.strip()) if proc.returncode == 0 else None


def record_pairs(roots: dict, workload: str, args, gated: dict, sides_meta: dict) -> dict:
    """`args.pairs` alternating untraced pairs; fills `sides_meta` from the records."""
    values: dict = {side: {} for side in SIDES}
    setups: dict = {side: [] for side in SIDES}
    failed = dict.fromkeys(SIDES, 0)
    attempted = dict.fromkeys(SIDES, 0)
    first, correct = [], True
    for pair in range(args.pairs):
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        first.append(order[0])
        for side in order:
            rec = run_once(roots[side], workload, args.seed, args.seconds, 0)
            print(f"{workload} pair {pair} {side}: "
                  + " ".join(f"{m}={rec['metrics'][m]['value']:.4g}" for m in gated), flush=True)
            setups[side].append({"raw": [round(raw, 6) for raw, _ in rec["setup_samples_s"]],
                                 "scaled": [round(scaled, 6) for _, scaled in rec["setup_samples_s"]]})
            failed[side] += rec["failed"]
            attempted[side] += rec["attempted"]
            correct = correct and not rec["failed"] and not rec["invariant_errors"]
            for name in gated:
                values[side].setdefault(name, []).append(rec["metrics"][name]["value"])
                raw = rec["extras"].get(f"raw.{name}")
                if raw is not None:
                    values[side].setdefault(f"raw.{name}", []).append(raw["value"])
            for name in UNGATED:
                extra = rec["extras"].get(name)
                if extra is not None:
                    values[side].setdefault(name, []).append(extra["value"])
            sides_meta[side] = {key: rec["meta"][key] for key in ("commit", "source_sha256")}
            sides_meta[side]["uncommitted_src"] = uncommitted_src(roots[side])
    better = gated | UNGATED
    metrics = {
        name: compare(values["parent"][name], values["change"][name],
                      better[name.removeprefix("raw.")], name in gated)
        for name in values["change"]
    }
    for name in gated:
        raw = metrics.get(f"raw.{name}")
        if raw is not None:
            metrics[name]["scaled_and_raw_disagree"] = opposite(
                metrics[name]["median_change_pct"], raw["median_change_pct"])
    return {"seed": args.seed, "pairs": args.pairs, "first_in_pair": first, "failed": failed,
            "attempted": attempted, "correct": correct, "metrics": metrics,
            "setup_samples_s": setups}


def record_traced(roots: dict, workload: str, args) -> dict:
    """TRACED_PAIRS alternating traced pairs: each run's per-layer metrics and
    span call counts, and each side's median, min and max of every metric."""
    runs: dict = {side: [] for side in SIDES}
    calls: dict = {side: [] for side in SIDES}
    for pair in range(TRACED_PAIRS):
        for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
            rec = run_once(roots[side], workload, args.seed, args.seconds, 1)
            runs[side].append({k: round(v["value"], 4) for k, v in rec["metrics"].items()})
            calls[side].append({name: row["calls"] for name, row in rec["breakdown"].items()})
            print(f"{workload} traced pair {pair} {side} done", flush=True)
    out: dict = {"seed": args.seed, "pairs": TRACED_PAIRS}
    for side in SIDES:
        values = {name: [run[name] for run in runs[side]] for name in runs[side][0]}
        out[side] = {
            "summary": {
                name: {"median": round(statistics.median(vs), 4), "min": min(vs), "max": max(vs)}
                for name, vs in values.items()
            },
            "runs": runs[side],
            "calls": calls[side],
        }
    return out


def spawn_ms(root: str, argv: list[str]) -> float:
    """Wall time of one CLI process run from `root`'s src/, in ms."""
    path = os.environ.get("PYTHONPATH")
    src = os.path.join(root, "src")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    cmd = [sys.executable, "-m", "intentd.cli", *argv]
    start = time.perf_counter_ns()
    proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, timeout=60)
    elapsed = time.perf_counter_ns() - start
    if proc.returncode != 0:
        raise SystemExit(f"error: {' '.join(cmd)} in {root} exited {proc.returncode}:\n"
                         f"{proc.stderr.decode(errors='replace')}")
    return elapsed / 1e6


def record_spawns(roots: dict) -> dict:
    """The paired CLI spawn A/B: per add subcommand, SPAWN_PAIRS pairs, the
    parent first in even pairs, after one unmeasured spawn per side."""
    out: dict = {"pairs": SPAWN_PAIRS}
    for name, argv in SPAWN_ARGV.items():
        for side in SIDES:
            spawn_ms(roots[side], argv)
        times: dict = {side: [] for side in SIDES}
        for pair in range(SPAWN_PAIRS):
            for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
                times[side].append(round(spawn_ms(roots[side], argv), 3))
        out[name] = {"argv": argv, **compare(times["parent"], times["change"], "lower", False)}
        print(f"spawn A/B {name}: change faster in {out[name]['change_better_in_pairs']} "
              f"of {SPAWN_PAIRS} pairs", flush=True)
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    gated = {m["name"]: m["better"] for m in bench["end_to_end"]}
    workloads = [w["name"] for w in bench["workloads"]]
    roots = {"parent": os.path.abspath(args.parent), "change": ROOT}

    started = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    before = cpu_ticks()
    sides_meta: dict = {}
    trace0 = {w: record_pairs(roots, w, args, gated, sides_meta) for w in workloads}
    trace1 = {w: record_traced(roots, w, args) for w in workloads}
    spawns = record_spawns(roots)
    after = cpu_ticks()

    doc = {
        "command": (f"python3 perfbench/run.py --workload <w> --seed {args.seed} "
                    f"--seconds {args.seconds:g} --trace <t>, from the root of a checkout of each "
                    "side; within a pair the sides run back to back, the parent first in even pairs"),
        "recorder": (f"scripts/record_bench.py --pairs {args.pairs} --seconds {args.seconds:g} "
                     f"--seed {args.seed}"),
        "parent": sides_meta["parent"],
        "change": sides_meta["change"],
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "started_utc": started,
        "host_steal": {"cpu_ticks_before": before, "cpu_ticks_after": after,
                       "steal_pct": steal_pct(before, after)},
        "values": ("each run's metric is that run's own median (p50) or rate; median, q1 and q3 "
                   "are taken over the runs of one side (statistics.quantiles, inclusive); "
                   "`pair_ratio` holds each pair's change/parent ratio, in pair order, and their "
                   "median, min and max (null if a parent run reads 0): both sides of a pair "
                   "share the host's drift, so these show whether the change moved a metric "
                   "even when the unpaired parent IQR is wide; "
                   "`gated` is false for the raw.* twins and the UNGATED extras; "
                   "`scaled_and_raw_disagree`, on a gated metric that has a raw.* twin, is "
                   "true when the two median changes (`median_change_pct`) have opposite "
                   "signs: then the speed scaling alone decides which way the gated metric "
                   "moved; "
                   "`setup_samples_s` holds each untraced run's set-ups, in pair order, raw "
                   "and scaled, so a setup_s median shows its within-run spread; in "
                   "trace1 a side's median, min and max are over its traced runs, and `calls` "
                   "holds each traced run's span call counts (perfbench's breakdown); "
                   "`cli_spawn_ab` holds, per add subcommand, every spawn's wall time in ms "
                   "of each side, in pair order, compared as a metric is (ungated)"),
        "trace0": trace0,
        "trace1": trace1,
        "cli_spawn_ab": spawns,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
