"""The four workloads.  Each is one closed-loop caller that checks every reply.

A workload is built by `setup()` (timed, for `setup_s`) and then driven by
`run(deadline_ns, tally)` until the deadline.  In-process and REST work
runs in episodes: each episode starts from a fresh controller and does a
fixed amount of work, so peak memory does not grow with the speed of the
code under test.  Inputs are pre-generated per episode outside the timed
window; checks run outside each operation's timing but inside the window.
"""
from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import subprocess
import sys
import time
from collections import defaultdict

from intentd import cli
from intentd.intents import Controller, IntentState
from intentd.rest import RestClient, RestServer
from intentd.topology import default_topology

import inputs
import reference

clock = time.perf_counter_ns
INSTALLED = IntentState.INSTALLED
WITHDRAWN = IntentState.WITHDRAWN

CHAIN_FILL = 2000      # live intents at the top of each chain-churn cycle
CHAIN_CYCLES = 3       # fill/drain cycles per chain-churn episode
GRID_LIVE = 2000       # live intents grid-distinct holds once full
GRID_STEADY = 2000     # submits per episode after the fill
REST_OPS = 3000        # requests per rest-mixed episode
SEGMENT = 500          # grid submits, REST requests per throughput segment
CLI_SEGMENT = 5        # CLI spawns per throughput segment
WARMUP_OPS = 300
REST_CALIBRATION_OPS = 2000


class Tally:
    """What one measured window produced: latencies, counts and failures.

    `tick()` goes before every operation: it numbers the operation for the
    tracer, if any, and runs the reference kernel when it is due.
    """

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        self.op = 0
        self.ref_ns: list[int] = []
        self.probe_ns = 0
        self._next_probe = 0
        self.lat: dict[str, list[int]] = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.window_ns = 0
        self.errors: list[str] = []
        self.invariant_errors: list[str] = []
        self.drift_first: list[int] = []
        self.drift_last: list[int] = []
        self.submissions = 0
        self.repeats = 0
        self.rules_per_intent: list[float] = []
        self.store_size = 0
        self.rules_max_per_device = 0
        self.segments: list[float] = []
        self._segment: tuple[int, int, int] | None = None
        self.paused_ns = 0

    @property
    def completed(self) -> int:
        return self.attempted - self.failed

    @property
    def busy_ns(self) -> int:
        """The measured window without the reference kernel's runs."""
        return self.window_ns - self.probe_ns

    def tick(self) -> None:
        self.op += 1
        if self.tracer is not None:
            self.tracer.op = self.op
        if clock() >= self._next_probe:
            start = clock()
            self.ref_ns.append(reference.probe())
            end = clock()
            self.probe_ns += end - start
            self.paused_ns += end - start
            self._next_probe = end + reference.PERIOD_NS

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer is not None else contextlib.nullcontext()

    def segment(self) -> None:
        """Close the open throughput segment, if any, and open the next one.

        Throughput is the median over fixed slices of identical work, so a
        burst of host noise costs one slice rather than the whole figure.
        Checkpoint time is left out.
        """
        now = clock()
        if self._segment is not None:
            ops, start, paused = self._segment
            elapsed = now - start - (self.paused_ns - paused)
            if elapsed > 0:
                self.segments.append((self.completed - ops) / (elapsed / 1e9))
        self._segment = (self.completed, now, self.paused_ns)

    def drop_segment(self) -> None:
        self._segment = None

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(what)

    def checkpoint(self, controller: Controller) -> None:
        """End-of-phase invariants and state counters, outside any timing.

        H2H parents own no rules themselves (their two legs do), so the rule
        total is compared with the INSTALLED intents that have no children.
        """
        start = clock()
        stored = controller.list()
        installed = [i for i in stored if i.state is INSTALLED]
        leaves = [i for i in installed if not i.child_ids]
        rule_sum = sum(controller.rule_count(i.id) for i in leaves)
        if controller.fabric.rule_count() != rule_sum:
            self.invariant_errors.append(
                f"fabric holds {controller.fabric.rule_count()} rules, INSTALLED intents own {rule_sum}"
            )
        if controller.live_intents() != len(installed):
            self.invariant_errors.append(
                f"live_intents() is {controller.live_intents()}, {len(installed)} are INSTALLED"
            )
        if leaves:
            self.rules_per_intent.append(rule_sum / len(leaves))
        self.store_size = max(self.store_size, len(stored))
        per_device = max(len(controller.fabric.rules_for(d)) for d in controller.topology.device_ids)
        self.rules_max_per_device = max(self.rules_max_per_device, per_device)
        self.paused_ns += clock() - start


class Deadline(Exception):
    pass


# ---------------------------------------------------------------- in-process


class ChainChurn:
    """The paper's setup on the built-in chain: fill to 2000 live, drain, repeat."""

    name = "chain-churn"

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self) -> None:
        self.topology = default_topology()
        warm = Controller(self.topology)
        reqs = [inputs.request_of(d) for d in inputs.chain_request_docs(inputs.rng_for(self.seed, "warm"))]
        ids = [warm.submit(reqs[i % 3]) for i in range(WARMUP_OPS)]
        for iid in ids:
            warm.withdraw(iid)
        self.fills = 0

    def close(self) -> None:
        pass

    def run(self, deadline: int, tally: Tally) -> None:
        try:
            while True:
                controller = Controller(self.topology)
                try:
                    for _ in range(CHAIN_CYCLES):
                        self._cycle(controller, deadline, tally)
                finally:
                    tally.checkpoint(controller)
        except Deadline:
            return

    def _cycle(self, controller: Controller, deadline: int, tally: Tally) -> None:
        rng = inputs.rng_for(self.seed, "chain", self.fills)
        self.fills += 1
        reqs = [inputs.request_of(d) for d in inputs.chain_request_docs(rng)]
        submit, withdraw, get = controller.submit, controller.withdraw, controller.get
        lat_submit = tally.lat["submit"]
        lat_withdraw = tally.lat["withdraw"]
        tenth = CHAIN_FILL // 10
        fill = []
        live = []
        tally.drop_segment()
        tally.segment()
        start = clock()
        try:
            for i in range(CHAIN_FILL):
                if clock() >= deadline:
                    raise Deadline
                tally.tick()
                tally.attempted += 1
                try:
                    t0 = clock()
                    iid = submit(reqs[i % 3])
                    t1 = clock()
                    if get(iid).state is not INSTALLED:
                        tally.fail(f"submit: intent {iid} is {get(iid).state.value}")
                        continue
                except Exception as exc:  # a failed operation, not a crash of the benchmark
                    tally.fail(f"submit: {exc!r}")
                    continue
                lat_submit.append(t1 - t0)
                fill.append(t1 - t0)
                live.append(iid)
            tally.submissions += CHAIN_FILL
            tally.repeats += CHAIN_FILL - 3
            tally.drift_first.extend(fill[:tenth])
            tally.drift_last.extend(fill[-tenth:])
        finally:
            tally.window_ns += clock() - start
        tally.checkpoint(controller)
        rng.shuffle(live)
        start = clock()
        try:
            for iid in live:
                if clock() >= deadline:
                    raise Deadline
                tally.tick()
                tally.attempted += 1
                try:
                    t0 = clock()
                    withdraw(iid)
                    t1 = clock()
                    if get(iid).state is not WITHDRAWN:
                        tally.fail(f"withdraw: intent {iid} is {get(iid).state.value}")
                        continue
                except Exception as exc:
                    tally.fail(f"withdraw: {exc!r}")
                    continue
                lat_withdraw.append(t1 - t0)
            tally.segment()
        finally:
            tally.window_ns += clock() - start


class GridDistinct:
    """Distinct requests on a seeded 8x8 grid, ~2000 live, a walk every second submit."""

    name = "grid-distinct"

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self) -> None:
        self.topology = inputs.grid_topology(self.seed)
        warm = Controller(self.topology)
        stream = inputs.grid_requests(self.topology, inputs.rng_for(self.seed, "warm"))
        for _ in range(WARMUP_OPS):
            g = next(stream)
            iid = warm.submit(g.request, selector=g.selector)
            ingress, _ = g.walks[0]
            warm.fabric.inject(ingress, g.header)
            warm.withdraw(iid)
        self.episodes = 0

    def close(self) -> None:
        pass

    def run(self, deadline: int, tally: Tally) -> None:
        try:
            while True:
                self._episode(deadline, tally)
        except Deadline:
            return

    def _episode(self, deadline: int, tally: Tally) -> None:
        n = self.episodes
        self.episodes += 1
        stream = inputs.grid_requests(self.topology, inputs.rng_for(self.seed, "grid-req", n))
        batch = [next(stream) for _ in range(GRID_LIVE + GRID_STEADY)]
        seen = set()
        for g in batch:
            tally.submissions += 1
            tally.repeats += g.request in seen
            seen.add(g.request)
        rng = inputs.rng_for(self.seed, "grid-ops", n)
        controller = Controller(self.topology)
        submit, withdraw, get = controller.submit, controller.withdraw, controller.get
        inject = controller.fabric.inject
        lat_submit, lat_withdraw, lat_read = tally.lat["submit"], tally.lat["withdraw"], tally.lat["read"]
        live: list[int] = []
        walks_of: dict[int, tuple] = {}
        start = clock()
        try:
            for i, g in enumerate(batch):
                if clock() >= deadline:
                    raise Deadline
                if i == GRID_LIVE:
                    tally.window_ns += clock() - start
                    tally.checkpoint(controller)
                    start = clock()
                    tally.drop_segment()
                if i >= GRID_LIVE and (i - GRID_LIVE) % SEGMENT == 0:
                    tally.segment()
                tally.tick()
                tally.attempted += 1
                try:
                    t0 = clock()
                    iid = submit(g.request, selector=g.selector)
                    t1 = clock()
                    if get(iid).state is INSTALLED:
                        lat_submit.append(t1 - t0)
                        live.append(iid)
                        walks_of[iid] = (g.header, g.walks)
                    else:
                        tally.fail(f"submit: intent {iid} is {get(iid).state.value}")
                except Exception as exc:
                    tally.fail(f"submit: {exc!r}")
                if len(live) > GRID_LIVE:
                    k = rng.randrange(len(live))
                    live[k], live[-1] = live[-1], live[k]
                    victim = live.pop()
                    tally.tick()
                    tally.attempted += 1
                    try:
                        t0 = clock()
                        withdraw(victim)
                        t1 = clock()
                        if get(victim).state is WITHDRAWN:
                            lat_withdraw.append(t1 - t0)
                        else:
                            tally.fail(f"withdraw: intent {victim} is {get(victim).state.value}")
                    except Exception as exc:
                        tally.fail(f"withdraw: {exc!r}")
                    del walks_of[victim]
                if i % 2 and live:
                    header, walks = walks_of[live[rng.randrange(len(live))]]
                    ingress, expected = walks[rng.randrange(len(walks))]
                    tally.tick()
                    tally.attempted += 1
                    try:
                        t0 = clock()
                        report = inject(ingress, header)
                        t1 = clock()
                        if report.delivered == expected and not report.misses and not report.dropped_at:
                            lat_read.append(t1 - t0)
                        else:
                            tally.fail(f"walk from {ingress}: {report} expected {sorted(expected)}")
                    except Exception as exc:
                        tally.fail(f"walk: {exc!r}")
            tally.segment()
            tally.drop_segment()
        finally:
            tally.window_ns += clock() - start
            tally.checkpoint(controller)


# ---------------------------------------------------------------------- REST


class RestMixed:
    """One RestClient on one keep-alive connection to an in-process RestServer.

    50% POST /intents, 25% GET /intents/<id>, 20% DELETE /intents/<id>, 5%
    GET /health, over 127.0.0.1 only.  The client keeps a model of every
    intent it created and checks each reply against it.
    """

    name = "rest-mixed"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.server: RestServer | None = None
        self.client: RestClient | None = None

    def setup(self) -> None:
        self.topology = default_topology()
        self.server = RestServer(Controller(self.topology), "127.0.0.1", 0).start()
        self.client = RestClient(self.server.host, self.server.port)
        self.episodes = 0
        self._episode(None, Tally(), WARMUP_OPS, "warm")

    def settle(self) -> None:
        """Return once the server thread has finished the last request.

        The server answers before its handler returns, so the handler's span
        can end after the client's; one more round trip waits that out.
        """
        self.client.request("GET", "/health")

    def close(self) -> None:
        if self.client is not None:
            self.client.close()
            self.client = None
        if self.server is not None:
            self.server.stop()
            self.server = None

    def run(self, deadline: int, tally: Tally) -> None:
        try:
            while True:
                self._episode(deadline, tally, REST_OPS, self.episodes)
                self.episodes += 1
        except Deadline:
            return

    def _episode(self, deadline, tally: Tally, ops: int, key) -> None:
        doc_rng = inputs.rng_for(self.seed, "rest-docs", key)
        docs = [inputs.rest_post_doc(doc_rng) for _ in range(ops)]
        seen = set()
        rng = inputs.rng_for(self.seed, "rest-ops", key)
        controller = Controller(self.topology)
        self.server.controller = controller
        request = self.client.request
        lat = tally.lat
        posted: list[int] = []
        live: list[int] = []
        model: dict[int, list] = {}  # id -> [type, state, rule_count, live weight]
        live_weight = live_rules = 0
        tally.drop_segment()
        start = clock()
        try:
            for k in range(ops):
                if deadline is not None and clock() >= deadline:
                    raise Deadline
                if k % SEGMENT == 0:
                    tally.segment()
                r = rng.random()
                if r >= 0.95:
                    kind = "health"
                elif r >= 0.75 and live:
                    kind = "delete"
                elif 0.5 <= r < 0.75 and posted:
                    kind = "get"
                else:
                    kind = "post"
                tally.tick()
                tally.attempted += 1
                try:
                    if kind == "post":
                        doc = docs[k]
                        key_doc = json.dumps(doc, sort_keys=True)
                        tally.submissions += 1
                        tally.repeats += key_doc in seen
                        seen.add(key_doc)
                        t0 = clock()
                        status, body = request("POST", "/intents", doc)
                        t1 = clock()
                        if status != 201 or body["state"] != "INSTALLED" or body["type"] != doc["type"] or body["rule_count"] < 1:
                            tally.fail(f"POST {doc}: {status} {body}")
                            continue
                        iid = int(body["id"])
                        weight = 3 if doc["type"] == "H2H" else 1
                        model[iid] = [doc["type"], "INSTALLED", body["rule_count"], weight]
                        posted.append(iid)
                        live.append(iid)
                        live_weight += weight
                        live_rules += body["rule_count"]
                        lat["submit"].append(t1 - t0)
                    elif kind == "get":
                        iid = posted[rng.randrange(len(posted))]
                        t0 = clock()
                        status, body = request("GET", f"/intents/{iid}")
                        t1 = clock()
                        want = model[iid]
                        rules = want[2] if want[1] == "INSTALLED" else 0
                        if (status != 200 or body["id"] != str(iid) or body["type"] != want[0]
                                or body["state"] != want[1] or body["rule_count"] != rules):
                            tally.fail(f"GET {iid}: {status} {body}, expected {want}")
                            continue
                        lat["read"].append(t1 - t0)
                    elif kind == "delete":
                        j = rng.randrange(len(live))
                        live[j], live[-1] = live[-1], live[j]
                        iid = live.pop()
                        t0 = clock()
                        status, body = request("DELETE", f"/intents/{iid}")
                        t1 = clock()
                        want = model[iid]
                        want[1] = "WITHDRAWN"
                        live_weight -= want[3]
                        live_rules -= want[2]
                        if status != 204 or body is not None:
                            tally.fail(f"DELETE {iid}: {status} {body}")
                            continue
                        lat["withdraw"].append(t1 - t0)
                    else:
                        t0 = clock()
                        status, body = request("GET", "/health")
                        t1 = clock()
                        if status != 200 or body != {"intents_live": live_weight, "rules_installed": live_rules}:
                            tally.fail(f"GET /health: {status} {body}, expected {live_weight} live, {live_rules} rules")
                            continue
                        lat["health"].append(t1 - t0)
                except Exception as exc:
                    tally.fail(f"{kind}: {exc!r}")
            tally.segment()
            tally.drop_segment()
        finally:
            tally.window_ns += clock() - start
            tally.checkpoint(controller)


# ----------------------------------------------------------------------- CLI

# `python -m intentd.cli ARGS`, plus the process's peak RSS on stderr at exit.
RSS_PROBE = """
import runpy, sys
try:
    runpy.run_module("intentd.cli", run_name="__main__", alter_sys=True)
finally:
    with open("/proc/self/status") as fh:
        sys.stderr.write("".join(line for line in fh if line.startswith("VmHWM:")))
"""


class CliOneshot:
    """Sequential `python -m intentd.cli add-...` processes on the built-in chain."""

    name = "cli-oneshot"

    def __init__(self, seed: int, src: str) -> None:
        self.seed = seed
        self.src = src

    def setup(self) -> None:
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=self.src + (os.pathsep + path if path else ""))
        self.spawned = 0
        self._spawn(Tally(), inputs.cli_argv(inputs.rng_for(self.seed, "warm"), 0))

    def close(self) -> None:
        pass

    def _spawn(self, tally: Tally, argv: list[str]) -> None:
        tally.attempted += 1
        tally.submissions += 1
        t0 = clock()
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "intentd.cli", *argv],
                capture_output=True, env=self.env, timeout=60,
            )
        except subprocess.TimeoutExpired:
            tally.fail(f"{' '.join(argv)}: no exit within 60 s")
            return
        t1 = clock()
        try:
            row = json.loads(proc.stdout.decode().strip().splitlines()[-1])
        except (ValueError, IndexError):
            row = None
        if proc.returncode != 0 or row is None or (row["submitted"], row["installed"], row["failed"]) != (1, 1, 0):
            tally.fail(f"{' '.join(argv)}: exit {proc.returncode}, {proc.stdout!r} {proc.stderr[-300:]!r}")
            return
        tally.lat["submit"].append(t1 - t0)

    def run(self, deadline: int, tally: Tally) -> None:
        seen = set()
        tally.drop_segment()
        start = clock()
        for n in itertools.count():
            if clock() >= deadline:
                break
            if n % CLI_SEGMENT == 0:
                tally.segment()
            tally.tick()
            argv = inputs.cli_argv(inputs.rng_for(self.seed, "cli", self.spawned), self.spawned)
            self.spawned += 1
            tally.repeats += tuple(argv) in seen
            seen.add(tuple(argv))
            with tally.span("cli.spawn"):
                self._spawn(tally, argv)
        tally.window_ns += clock() - start

    def peak_rss_kb(self) -> int:
        """Largest resident set of a CLI process, one per add subcommand.

        A child's ru_maxrss also counts the parent pages it shared before
        exec, so each process reports its own high-water mark (VmHWM) as it
        exits.  These runs are outside the measured window.
        """
        peak = 0
        for n in range(4):
            argv = inputs.cli_argv(inputs.rng_for(self.seed, "rss", n), n)
            proc = subprocess.run(
                [sys.executable, "-c", RSS_PROBE, *argv], env=self.env, capture_output=True, text=True, timeout=60
            )
            hwm = [line.split()[1] for line in proc.stderr.splitlines() if line.startswith("VmHWM:")]
            if proc.returncode != 0 or not hwm:
                raise RuntimeError(f"CLI memory probe failed: exit {proc.returncode}, {proc.stderr[-300:]!r}")
            peak = max(peak, int(hwm[0]))
        return peak

    def calibrate(self, tally: Tally, samples: int) -> dict[str, list[float]]:
        """The northbound interfaces' fixed costs, for a traced run.

        The CLI's split: bare interpreter, `import intentd.cli` (timed inside
        a fresh interpreter) and `main()` (in this process, output captured,
        traced like any other call).  Then REST_CALIBRATION_OPS requests of
        the rest-mixed mix through a RestServer in this process, which give
        the REST layer's numbers.
        """
        rest = Tally(tally.tracer)  # its latencies must not mix with the spawns'
        rest.op = tally.op
        rest_mixed = RestMixed(self.seed)
        rest_mixed.setup()
        try:
            rest_mixed._episode(None, rest, REST_CALIBRATION_OPS, "calibration")
            rest_mixed.settle()
        finally:
            rest_mixed.close()
        tally.op = rest.op
        tally.probe_ns += rest.probe_ns
        tally.attempted += rest.attempted
        tally.failed += rest.failed
        tally.errors += rest.errors
        tally.invariant_errors += rest.invariant_errors
        out: dict[str, list[float]] = defaultdict(list)
        probe = "import time; t = time.perf_counter(); import intentd.cli; print(time.perf_counter() - t)"
        for _ in range(samples):
            tally.tick()
            with tally.span("cli.interpreter"):
                t0 = clock()
                subprocess.run([sys.executable, "-c", "pass"], env=self.env, check=True, timeout=60)
                out["interpreter"].append((clock() - t0) / 1e6)
            tally.tick()
            with tally.span("cli.import"):
                proc = subprocess.run(
                    [sys.executable, "-c", probe], env=self.env, check=True, timeout=60, capture_output=True
                )
            out["import"].append(float(proc.stdout) * 1e3)
        for n in range(4 * samples):
            argv = inputs.cli_argv(inputs.rng_for(self.seed, "cli-main", n), n)
            tally.tick()
            buf = io.StringIO()
            with tally.span("cli.main"), contextlib.redirect_stdout(buf):
                t0 = clock()
                code = cli.main(argv)
                out["main"].append((clock() - t0) / 1e6)
            if code != 0 or json.loads(buf.getvalue())["installed"] != 1:
                raise RuntimeError(f"in-process cli.main({argv}) returned {code}: {buf.getvalue()!r}")
        return out


def make(name: str, seed: int, src: str):
    if name == "cli-oneshot":
        return CliOneshot(seed, src)
    return {"chain-churn": ChainChurn, "grid-distinct": GridDistinct, "rest-mixed": RestMixed}[name](seed)


NAMES = ("chain-churn", "grid-distinct", "rest-mixed", "cli-oneshot")
