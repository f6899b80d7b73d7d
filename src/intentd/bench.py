"""Benchmark harness: installation-time sweeps, saturation runs, reports.

The sweep times `workload` back-to-back intent submissions per iteration,
once through the in-process add loop and once through real HTTP requests
against a server hosted in the same process.  Between iterations the store
and fabric are reset, so every sample starts from an empty controller.
"""
from __future__ import annotations

import gc
import json
import os
import platform
import random
import resource
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields
from typing import Iterable, Sequence

from .cli import load_cli_topology, timed_add
from .intents import REQUEST_TYPES, Controller, FieldKind, IntentRequest, request_document
from .rest import RestClient, RestServer
from .stats import LinearFit, SummaryStats, fit_linear, summarize
from .topology import Topology

INTENT_TYPES = ("P2P", "S2M", "M2S")
INTERFACES = ("CLI", "REST")

DESK_WORKLOADS = (100, 200, 300, 400, 500, 1000, 1500, 2000)


@dataclass(frozen=True)
class BenchmarkConfig:
    """One benchmark run's settings; these defaults are the desk sweep's."""

    intent_types: tuple[str, ...] = INTENT_TYPES
    interfaces: tuple[str, ...] = INTERFACES
    workloads: tuple[int, ...] = DESK_WORKLOADS
    iterations: int = 10
    saturation_iterations: int = 10
    capacity: int = 10_000
    topology: str | None = None
    seed: int = 0
    output_dir: str = "bench-out"

    def __post_init__(self) -> None:
        for name, known in (("intent_types", INTENT_TYPES), ("interfaces", INTERFACES)):
            chosen = getattr(self, name)
            if not chosen or len(set(chosen)) < len(chosen) or not set(chosen) <= set(known):
                raise ValueError(f"{name} must list distinct values from {known}, got {chosen}")
        if not self.workloads:
            raise ValueError("workloads must not be empty")
        if any(b <= a for a, b in zip(self.workloads, self.workloads[1:])):
            raise ValueError("workloads must be strictly increasing")
        if any(w < 1 for w in self.workloads):
            raise ValueError("workloads must be positive")
        if self.iterations < 2:
            raise ValueError("iterations must be >= 2")
        if self.saturation_iterations < 0:
            raise ValueError("saturation_iterations must be >= 0")
        if self.capacity < 1:
            raise ValueError("capacity must be >= 1")


@dataclass(frozen=True)
class BenchmarkSample:
    intent_type: str
    interface: str
    workload: int
    iteration: int
    elapsed_ms: float
    installed: int
    failed: int


@dataclass(frozen=True)
class SaturationResult:
    intent_type: str
    run_index: int
    max_intents: int
    elapsed_ms: float


@dataclass(frozen=True)
class RatioRow:
    intent_type: str
    workload: int
    rest_mean_ms: float
    cli_mean_ms: float

    @property
    def ratio(self) -> float:
        return self.rest_mean_ms / self.cli_mean_ms


@dataclass
class BenchResults:
    samples: list[BenchmarkSample] = field(default_factory=list)
    summaries: dict[tuple[str, str, int], SummaryStats] = field(default_factory=dict)
    fits: dict[tuple[str, str], LinearFit] = field(default_factory=dict)
    ratios: list[RatioRow] = field(default_factory=list)
    saturation: dict[str, list[SaturationResult]] = field(default_factory=dict)
    metadata: dict = field(default_factory=dict)


@contextmanager
def _collector_paused():
    """Keep cycle-collector pauses out of a timed window (timeit's policy).

    Pause length scales with whatever the rest of the process has allocated,
    so a collection landing mid-window would couple the measurement to
    unrelated heap state.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def _cell_rng(seed: int, *key) -> random.Random:
    return random.Random(f"{seed}:" + ":".join(str(k) for k in key))


def _edge_devices(topo: Topology) -> dict[str, list]:
    """Each device with edge ports, with those ports."""
    by_device: dict[str, list] = {}
    for cp in topo.edge_points():
        by_device.setdefault(cp.device, []).append(cp)
    return by_device


def _devices_needed(intent_type: str) -> int:
    """Devices with edge ports one request of the type is drawn from."""
    _, fields = REQUEST_TYPES[intent_type]
    return sum(2 if kind is FieldKind.POINT_SET else 1 for kind in fields.values())


def _pick_request(topo: Topology, intent_type: str, rng: random.Random) -> IntentRequest:
    """A fixed request for one cell: in field order, one device per point field
    and two per point set, all from one sample of the devices with edge ports,
    then one edge port on each device."""
    by_device = _edge_devices(topo)
    cls, fields = REQUEST_TYPES[intent_type]
    pairs = [kind is FieldKind.POINT_SET for kind in fields.values()]
    devices = rng.sample(sorted(by_device), _devices_needed(intent_type))
    points = iter([rng.choice(by_device[device]) for device in devices])
    return cls(*(
        frozenset((next(points), next(points))) if pair else next(points) for pair in pairs
    ))


def _cpu_ticks() -> tuple[int, ...]:
    """The host's `cpu` ticks in /proc/stat, user to steal; empty if unreadable."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            return tuple(map(int, fh.readline().split()[1:9]))
    except (OSError, ValueError):
        return ()


class BenchRunner:
    """Owns the controllers, and the REST server, for one benchmark run.

    The server starts on the first REST sample, on an ephemeral loopback
    port, over the same controller the CLI samples use.  A type whose
    requests need more devices with edge ports than the topology has is
    refused here, before any sample.
    """

    def __init__(self, config: BenchmarkConfig) -> None:
        self.config = config
        self.topology = load_cli_topology(config.topology)
        have = len(_edge_devices(self.topology))
        for intent_type in config.intent_types:
            needed = _devices_needed(intent_type)
            if needed > have:
                raise ValueError(
                    f"{intent_type} needs {needed} devices with edge ports; "
                    f"the topology has {have}"
                )
        self._controller = Controller(self.topology)
        self._server: RestServer | None = None
        self._client: RestClient | None = None

    # -- plumbing -----------------------------------------------------------

    def close(self) -> None:
        if self._client is not None:
            self._client.close()
            self._client = None
        if self._server is not None:
            self._server.stop()
            self._server = None

    def __enter__(self) -> "BenchRunner":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _ensure_rest(self) -> RestClient:
        if self._client is None:
            self._server = RestServer(self._controller, "127.0.0.1", 0).start()
            self._client = RestClient(self._server.host, self._server.port)
        return self._client

    @property
    def controller(self) -> Controller:
        return self._controller

    @property
    def server(self) -> RestServer | None:
        """The REST server, once a REST sample has started it."""
        return self._server

    # -- measurement --------------------------------------------------------

    def run_workload(
        self, intent_type: str, interface: str, workload: int, iteration: int = 0
    ) -> BenchmarkSample:
        """One iteration of one cell, starting from an empty controller.

        The request is a pure function of (seed, intent type), never of the
        workload: per-intent work must stay constant along the workload axis
        or the time-vs-count series would not be comparable.
        """
        request = _pick_request(
            self.topology, intent_type, _cell_rng(self.config.seed, intent_type)
        )
        self._controller.reset()
        # uniform heap state per iteration; collection debt from the previous
        # iteration must not land inside this one's timed window
        gc.collect()
        if interface == "CLI":
            with _collector_paused():
                timed = timed_add(self._controller, request, workload)
            elapsed_ms, installed, failed = timed.elapsed_ms, timed.installed, timed.failed
        else:
            elapsed_ms, installed, failed = self._rest_workload(request, workload)
        return BenchmarkSample(
            intent_type=intent_type,
            interface=interface,
            workload=workload,
            iteration=iteration,
            elapsed_ms=elapsed_ms,
            installed=installed,
            failed=failed,
        )

    def _rest_workload(self, request: IntentRequest, workload: int) -> tuple[float, int, int]:
        """Client-side end-to-end timing of one POST per intent."""
        client = self._ensure_rest()
        body = json.dumps(request_document(request)).encode("utf-8")
        installed = 0
        failed = 0
        post = client.post_intent
        with _collector_paused():
            start = time.perf_counter_ns()
            for _ in range(workload):
                status, doc = post(body)
                if status == 201 and doc.get("state") == "INSTALLED":
                    installed += 1
                else:
                    failed += 1
            elapsed_ms = (time.perf_counter_ns() - start) / 1e6
        return elapsed_ms, installed, failed

    def run_saturation(self, intent_type: str) -> list[SaturationResult]:
        """Fill a finite-capacity store until it refuses a submit, repeatedly.

        `max_intents` counts the submits that installed; a request that
        cannot install holds no capacity, so it stops after capacity + 1
        failed submits with a maximum of 0.
        """
        results = []
        request = _pick_request(
            self.topology, intent_type, _cell_rng(self.config.seed, "saturation", intent_type)
        )
        controller = Controller(self.topology, capacity=self.config.capacity)
        for run_index in range(self.config.saturation_iterations):
            controller.reset()
            gc.collect()
            # one submit past capacity, so the loop ends on the refusal
            with _collector_paused():
                timed = timed_add(controller, request, self.config.capacity + 1)
            results.append(
                SaturationResult(
                    intent_type=intent_type,
                    run_index=run_index,
                    max_intents=timed.installed,
                    elapsed_ms=timed.elapsed_ms,
                )
            )
        return results

    # -- orchestration ------------------------------------------------------

    def run_sweep(self, verbose: bool = False) -> BenchResults:
        """Sample every cell, then summarize each and fit time against workload.

        Per (intent type, interface) the iterations run in rounds, and each
        round visits every workload once in an order shuffled from the seed.
        The host's speed drifts over seconds; run back to back, a cell's
        iterations would share one stretch of that drift and a slow spell
        would lift a single point off the line.  Interleaved, the drift lands
        on all workloads alike.  `results.samples` keeps execution order;
        summaries are keyed in ascending workload order.
        """
        results = BenchResults()
        config = self.config
        for intent_type in config.intent_types:
            for interface in config.interfaces:
                for workload in config.workloads:
                    # one discarded warmup iteration per cell: the first pass
                    # pays first-touch costs the recorded passes should not
                    self.run_workload(intent_type, interface, workload)
                rng = _cell_rng(config.seed, "order", intent_type, interface)
                order = list(config.workloads)
                elapsed: dict[int, list[float]] = {w: [] for w in config.workloads}
                for iteration in range(config.iterations):
                    rng.shuffle(order)
                    for workload in order:
                        sample = self.run_workload(
                            intent_type, interface, workload, iteration
                        )
                        elapsed[workload].append(sample.elapsed_ms)
                        results.samples.append(sample)
                for workload in config.workloads:
                    summary = summarize(elapsed[workload])
                    results.summaries[(intent_type, interface, workload)] = summary
                    if verbose:
                        print(
                            f"{intent_type}/{interface} workload={workload}: "
                            f"mean={summary.mean_ms:.3f}ms ci95={summary.ci95_ms:.3f}ms"
                        )
                points = [
                    (w, results.summaries[(intent_type, interface, w)].mean_ms)
                    for w in config.workloads
                ]
                if len(points) >= 3:
                    results.fits[(intent_type, interface)] = fit_linear(points)
        if "CLI" in config.interfaces and "REST" in config.interfaces:
            for intent_type in config.intent_types:
                for workload in config.workloads:
                    results.ratios.append(
                        RatioRow(
                            intent_type=intent_type,
                            workload=workload,
                            rest_mean_ms=results.summaries[
                                (intent_type, "REST", workload)
                            ].mean_ms,
                            cli_mean_ms=results.summaries[
                                (intent_type, "CLI", workload)
                            ].mean_ms,
                        )
                    )
        self._controller.reset()
        return results

    def run(self, verbose: bool = False) -> BenchResults:
        started = time.time()
        start_ticks = _cpu_ticks()
        results = self.run_sweep(verbose=verbose)
        if self.config.saturation_iterations > 0:
            for intent_type in self.config.intent_types:
                results.saturation[intent_type] = self.run_saturation(intent_type)
                if verbose:
                    runs = results.saturation[intent_type]
                    mean_max = sum(r.max_intents for r in runs) / len(runs)
                    print(f"{intent_type} saturation: mean max_intents={mean_max:.1f}")
        spent = [end - start for start, end in zip(start_ticks, _cpu_ticks())]
        steal_pct = 100 * spent[7] / sum(spent) if len(spent) == 8 and any(spent) else None
        results.metadata = {
            "config": asdict(self.config),
            "clock": "perf_counter_ns",
            "cli_timing": "in-process add loop, submissions only",
            "rest_timing": "client-side end-to-end over one persistent connection",
            "hygiene": (
                "gc.collect before every iteration; collector paused inside "
                "timed windows; one discarded warmup iteration per cell; "
                "iterations run in rounds, each visiting every workload once "
                "in an order shuffled from the seed"
            ),
            "ci_method": "Student-t, two-sided 95%, n-1 degrees of freedom",
            "units": "milliseconds",
            "started_unix": started,
            "finished_unix": time.time(),
            "python": platform.python_version(),
            "platform": platform.platform(),
            "cpu_count": os.cpu_count(),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "host_steal_pct": steal_pct,
        }
        return results


# -- reporting --------------------------------------------------------------


def emit_report(results: BenchResults, config: BenchmarkConfig) -> list[str]:
    """Write the CSV report set plus metadata; returns the file paths."""
    out = config.output_dir
    os.makedirs(out, exist_ok=True)
    paths = []

    def emit(name: str, header: str, rows: Iterable[Sequence]) -> None:
        path = os.path.join(out, name)
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(header + "\n")
            for row in rows:
                fh.write(",".join(str(v) for v in row) + "\n")
        paths.append(path)

    emit(
        "samples.csv",
        "intent_type,interface,workload,iteration,elapsed_ms,installed,failed",
        (
            (s.intent_type, s.interface, s.workload, s.iteration, s.elapsed_ms,
             s.installed, s.failed)
            for s in results.samples
        ),
    )

    emit(
        "summary.csv",
        "intent_type,interface,workload,n,mean_ms,stddev_ms,ci95_ms,cov",
        (
            (intent_type, interface, workload, s.n, s.mean_ms, s.stddev_ms,
             s.ci95_ms, s.cov)
            for (intent_type, interface, workload), s in results.summaries.items()
        ),
    )

    emit(
        "ratio.csv",
        "intent_type,workload,rest_mean_ms,cli_mean_ms,ratio",
        (
            (r.intent_type, r.workload, r.rest_mean_ms, r.cli_mean_ms, r.ratio)
            for r in results.ratios
        ),
    )

    emit(
        "fit.csv",
        "intent_type,interface,slope_ms_per_intent,intercept_ms,r_squared",
        (
            (intent_type, interface, f.slope, f.intercept, f.r_squared)
            for (intent_type, interface), f in results.fits.items()
        ),
    )

    if results.saturation:
        emit(
            "saturation.csv",
            "intent_type,run_index,max_intents,elapsed_ms",
            (
                (r.intent_type, r.run_index, r.max_intents, r.elapsed_ms)
                for runs in results.saturation.values()
                for r in runs
            ),
        )
        emit(
            "saturation_summary.csv",
            "intent_type,runs,mean_max_intents,mean_elapsed_ms",
            (
                (
                    intent_type,
                    len(runs),
                    sum(r.max_intents for r in runs) / len(runs),
                    sum(r.elapsed_ms for r in runs) / len(runs),
                )
                for intent_type, runs in results.saturation.items()
            ),
        )

    meta_path = os.path.join(out, "metadata.json")
    with open(meta_path, "w", encoding="utf-8") as fh:
        json.dump(results.metadata, fh, indent=2)
    paths.append(meta_path)
    return paths


# -- CLI glue ---------------------------------------------------------------


def config_from_args(args) -> BenchmarkConfig:
    """BenchmarkConfig's defaults, overridden by the flags that were given."""
    return BenchmarkConfig(**{
        f.name: getattr(args, f.name)
        for f in fields(BenchmarkConfig)
        if getattr(args, f.name) is not None
    })
