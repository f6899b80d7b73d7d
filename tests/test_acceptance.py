"""End-to-end acceptance checks, one per numbered criterion.

Run with `pytest tests/test_acceptance.py -s` to see a PASS/FAIL verdict
line per criterion.  The sweep behind criteria 2, 3, and 7 runs the full
desk workload profile once and takes about 85-120 s on a 2-vCPU VM, up
to 300 s while the host steals CPU time.
"""
import csv
import math
import random
import time
from contextlib import contextmanager

import numpy as np
import pytest

from intentd.bench import (
    BenchmarkConfig,
    BenchResults,
    BenchRunner,
    DESK_WORKLOADS,
    emit_report,
)
from intentd.fabric import PacketHeader
from intentd.intents import Controller, HostToHost, IntentState
from intentd.stats import fit_linear, summarize
from intentd.topology import default_topology, host_mac
from randnet import assert_intent_realized, random_intent, random_topology
from test_stats import t_quantile_mpmath

# Eight (workload, REST mean ms) pairs of published fan-in benchmark data;
# the regression over them is the fixed numeric anchor for criterion 4.
PUBLISHED_WORKLOADS = (1000, 2000, 3000, 4000, 5000, 10000, 15000, 20000)
PUBLISHED_REST_MEANS = (
    637.99, 1251.51, 1859.501, 2506.155, 3122.163, 6155.655, 9215.017, 12330.511
)
# frozen output of the independent grid-search oracle below, kept as a
# tripwire so a regression in fit_linear cannot drift unnoticed
FROZEN_SLOPE = 0.6141157818181817
FROZEN_R_SQUARED = 0.9999808946448749

TRANSIENT_STATES = (IntentState.SUBMITTED, IntentState.COMPILING, IntentState.INSTALLING)


@contextmanager
def criterion(number: int, name: str, info: dict | None = None):
    try:
        yield
    except BaseException:
        print(f"\nFAIL criterion {number} ({name})")
        raise
    detail = f" -- {info['detail']}" if info and "detail" in info else ""
    print(f"\nPASS criterion {number} ({name}){detail}")


@pytest.fixture(scope="session")
def desk_sweep():
    """One full desk-profile sweep shared by criteria 2, 3, and 7."""
    config = BenchmarkConfig(
        intent_types=("P2P", "S2M", "M2S"),
        interfaces=("CLI", "REST"),
        workloads=DESK_WORKLOADS,
        iterations=10,
        saturation_iterations=0,
        capacity=10_000,
        seed=2026,
    )
    started = time.monotonic()
    with BenchRunner(config) as runner:
        results = runner.run_sweep()
        elapsed_s = time.monotonic() - started
        quiescent = (runner.controller.live_intents(), runner.controller.installed_rules())
    return config, results, elapsed_s, quiescent


def test_criterion_1_delivery_matches_shortest_path_oracle():
    info = {}
    with criterion(1, "random-instance delivery oracle", info):
        instances = 200
        started = time.monotonic()
        for seed in range(instances):
            rng = random.Random(seed)
            topo = random_topology(rng)
            controller = Controller(topo)
            request = random_intent(rng, topo)
            intent_id = controller.submit(request)
            assert_intent_realized(controller, intent_id)
        elapsed_s = time.monotonic() - started
        assert elapsed_s < 30.0, f"oracle sweep took {elapsed_s:.1f}s (budget 30s)"
        info["detail"] = f"{instances} instances in {elapsed_s:.2f}s"


def test_criterion_2_installation_time_grows_linearly(desk_sweep):
    info = {}
    with criterion(2, "linear growth across the desk sweep", info):
        config, results, elapsed_s, _ = desk_sweep
        assert elapsed_s < 300.0, f"desk sweep took {elapsed_s:.0f}s (budget 300s)"
        assert len(results.fits) == 6
        worst = min(fit.r_squared for fit in results.fits.values())
        for (intent_type, interface), fit in sorted(results.fits.items()):
            assert fit.r_squared >= 0.98, (
                f"{intent_type}/{interface}: r^2 = {fit.r_squared:.5f} < 0.98"
            )
            assert fit.slope > 0
        info["detail"] = f"worst cell r^2 = {worst:.5f}, sweep {elapsed_s:.0f}s"


def test_criterion_3_rest_costs_more_than_cli_everywhere(desk_sweep):
    info = {}
    with criterion(3, "REST dearer than CLI at every cell", info):
        _, results, _, _ = desk_sweep
        assert len(results.ratios) == 3 * len(DESK_WORKLOADS)
        for row in results.ratios:
            assert row.rest_mean_ms > row.cli_mean_ms, (
                f"{row.intent_type} workload {row.workload}: "
                f"REST {row.rest_mean_ms:.3f}ms <= CLI {row.cli_mean_ms:.3f}ms"
            )
        mean_ratio = sum(r.ratio for r in results.ratios) / len(results.ratios)
        info["detail"] = f"mean REST/CLI ratio = {mean_ratio:.2f}x"


def brute_force_slope(points):
    """Grid-search OLS slope: scan slope candidates, closed-form intercept,
    keep the SSE minimizer, refine the grid around it five times."""
    xs = [float(x) for x, _ in points]
    ys = [float(y) for _, y in points]
    x_mean = sum(xs) / len(xs)
    y_mean = sum(ys) / len(ys)

    def sse(slope):
        intercept = y_mean - slope * x_mean
        return sum((y - slope * x - intercept) ** 2 for x, y in zip(xs, ys))

    lo, hi = -1e3, 1e3
    best = 0.0
    for _ in range(6):
        step = (hi - lo) / 2000
        best = min((lo + k * step for k in range(2001)), key=sse)
        lo, hi = best - step, best + step
    return best


def test_criterion_4_published_data_regression():
    info = {}
    with criterion(4, "regression over published fan-in means", info):
        points = list(zip(PUBLISHED_WORKLOADS, PUBLISHED_REST_MEANS))
        fit = fit_linear(points)
        assert fit.r_squared > 0.995

        oracle_slope = brute_force_slope(points)
        assert abs(fit.slope - oracle_slope) <= 0.05 * abs(oracle_slope)

        # cross-check both against numpy and the frozen anchors
        design = np.vstack([PUBLISHED_WORKLOADS, np.ones(len(points))]).T
        (np_slope, _), *_ = np.linalg.lstsq(design, np.array(PUBLISHED_REST_MEANS), rcond=None)
        assert fit.slope == pytest.approx(float(np_slope), rel=1e-9)
        assert fit.slope == pytest.approx(FROZEN_SLOPE, rel=1e-12)
        assert fit.r_squared == pytest.approx(FROZEN_R_SQUARED, rel=1e-12)
        info["detail"] = f"slope {fit.slope:.4f} ms/intent, r^2 {fit.r_squared:.6f}"


def test_criterion_5_summary_statistics_oracle():
    info = {}
    with criterion(5, "summary statistics vs independent recomputation", info):
        rng = random.Random(20260822)
        samples = [rng.gauss(100.0, 15.0) for _ in range(1000)]
        s = summarize(samples)

        n = len(samples)
        mean = sum(samples) / n
        stddev = math.sqrt(sum((v - mean) ** 2 for v in samples) / (n - 1))
        ci95 = t_quantile_mpmath(0.975, n - 1) * stddev / math.sqrt(n)
        cov = stddev / mean

        assert abs(s.mean_ms - mean) <= 1e-9 * abs(mean)
        assert abs(s.stddev_ms - stddev) <= 1e-9 * abs(stddev)
        assert abs(s.ci95_ms - ci95) <= 1e-9 * abs(ci95)
        assert abs(s.cov - cov) <= 1e-9 * abs(cov)

        hand = summarize([2.0, 4.0, 6.0])
        assert hand.mean_ms == 4.0
        assert hand.stddev_ms == 2.0
        info["detail"] = "n=1000 relative error <= 1e-9; hand case exact"


def test_criterion_6_saturation_fills_the_store(tmp_path):
    info = {}
    with criterion(6, "saturation reaches capacity on every run", info):
        config = BenchmarkConfig(
            intent_types=("P2P",),
            interfaces=("CLI",),
            workloads=(100, 200, 300),
            iterations=2,
            saturation_iterations=10,
            capacity=10_000,
            output_dir=str(tmp_path / "saturation-report"),
            seed=7,
        )
        started = time.monotonic()
        with BenchRunner(config) as runner:
            runs = runner.run_saturation("P2P")
        elapsed_s = time.monotonic() - started
        assert elapsed_s < 120.0, f"saturation took {elapsed_s:.0f}s (budget 120s)"

        assert len(runs) == 10
        assert all(r.max_intents == 10_000 for r in runs)
        assert all(r.elapsed_ms > 0 for r in runs)

        results = BenchResults()
        results.saturation = {"P2P": runs}
        results.metadata = {"phase": "saturation-only"}
        emit_report(results, config)
        with open(f"{config.output_dir}/saturation.csv", newline="") as fh:
            per_run = list(csv.reader(fh))
        assert len(per_run) == 1 + 10  # header plus one row per run
        with open(f"{config.output_dir}/saturation_summary.csv", newline="") as fh:
            summary = list(csv.reader(fh))
        assert summary[1][1:3] == ["10", "10000.0"]  # run count and mean maximum
        info["detail"] = f"10 runs x 10000 intents in {elapsed_s:.1f}s"


def test_criterion_7_no_transient_states_and_clean_reset(desk_sweep):
    info = {}
    with criterion(7, "terminal states after cells, zeroed after reset", info):
        # a finished cell leaves only INSTALLED or terminal intents behind
        config = BenchmarkConfig(
            intent_types=("P2P",),
            interfaces=("CLI",),
            workloads=(40, 80, 120),
            iterations=2,
            saturation_iterations=0,
            seed=3,
        )
        with BenchRunner(config) as runner:
            sample = runner.run_workload("P2P", "CLI", 40)
            states = {intent.state for intent in runner.controller.list()}
            assert not (states & set(TRANSIENT_STATES)), f"transient states: {states}"
            assert sample.installed + sample.failed == 40
            runner.controller.reset()
            assert runner.controller.live_intents() == 0
            assert runner.controller.installed_rules() == 0

        # the full sweep hands its controller back quiescent too
        _, _, _, (live_after, rules_after) = desk_sweep
        assert (live_after, rules_after) == (0, 0)
        info["detail"] = "cells terminal, post-reset live=0 rules=0"


def test_criterion_8_host_pair_becomes_two_unicast_intents():
    info = {}
    with criterion(8, "host pair expands to two delivering unicast legs", info):
        topo = default_topology()
        controller = Controller(topo)
        parent_id = controller.submit(HostToHost("h1", "h2"))
        parent = controller.get(parent_id)
        assert parent.state is IntentState.INSTALLED
        assert len(parent.child_ids) == 2
        children = [controller.get(c) for c in parent.child_ids]
        assert [c.type_name for c in children] == ["P2P", "P2P"]
        assert all(c.state is IntentState.INSTALLED for c in children)

        attach_one = topo.host_attachment("h1")
        attach_two = topo.host_attachment("h2")
        forward = controller.fabric.inject(
            attach_one, PacketHeader(host_mac("h1"), host_mac("h2"))
        )
        assert {cp for cp, _ in forward.delivered} == {attach_two}
        reverse = controller.fabric.inject(
            attach_two, PacketHeader(host_mac("h2"), host_mac("h1"))
        )
        assert {cp for cp, _ in reverse.delivered} == {attach_one}
        info["detail"] = "2 unicast legs, delivery verified both ways"


def test_criterion_9_rest_conformance_sequence(rest):
    info = {}
    with criterion(9, "scripted REST status-code sequence", info):
        from conftest import D1, D3

        _, client = rest
        status, body = client.post_intent(
            {"type": "P2P", "ingress": f"{D1}/1", "egress": f"{D3}/2"}
        )
        assert status == 201
        assert body["state"] == "INSTALLED"
        intent_id = body["id"]

        assert client.get_intent(intent_id)[0] == 200
        assert client.delete_intent(intent_id)[0] == 204
        assert client.delete_intent(intent_id)[0] == 409
        assert client.get_intent(10_000)[0] == 404
        status, _ = client.post_intent({"type": "P2P", "ingress": 5})
        assert status == 400
        info["detail"] = "201/200/204/409/404/400 all exact"
