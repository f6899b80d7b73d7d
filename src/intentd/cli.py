"""Command-line northbound for the controller.

Each invocation builds an in-process controller, so add commands double as
the timed installation loop the benchmark reuses: timing brackets only the
submit loop, never argument parsing or output formatting.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time

from .errors import IntentdError, IntentValidationError, StoreCapacityError
from .fabric import DEFAULT_PRIORITY, TrafficSelector
from .intents import (
    REQUEST_TYPES,
    Controller,
    FieldKind,
    IntentRequest,
    IntentState,
    validate_request,
)
from .topology import ConnectPoint, FrozenRecord, Topology, default_topology, load_topology_file

TOPOLOGY_ENV_VAR = "INTENTD_TOPOLOGY"

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PARTIAL = 3


class TimedResult(FrozenRecord):
    """Outcome of one timed add loop; submitted = installed + failed."""

    __slots__ = _fields = ("submitted", "installed", "failed", "elapsed_ms")

    def __init__(self, submitted: int, installed: int, failed: int, elapsed_ms: float) -> None:
        object.__setattr__(self, "submitted", submitted)
        object.__setattr__(self, "installed", installed)
        object.__setattr__(self, "failed", failed)
        object.__setattr__(self, "elapsed_ms", elapsed_ms)


def timed_add(
    controller: Controller,
    request: IntentRequest,
    count: int,
    *,
    priority: int = DEFAULT_PRIORITY,
    selector: TrafficSelector | None = None,
) -> TimedResult:
    """Submit `count` copies of one request under a monotonic clock.

    Store exhaustion stops the loop and reports the partial counts; the
    elapsed time always covers exactly the submissions that ran.
    """
    installed = 0
    failed = 0
    submit = controller.submit
    get = controller.get
    start = time.perf_counter_ns()
    try:
        for _ in range(count):
            intent_id = submit(request, priority=priority, selector=selector)
            if get(intent_id).state is IntentState.INSTALLED:
                installed += 1
            else:
                failed += 1
    except StoreCapacityError:
        pass
    elapsed_ms = (time.perf_counter_ns() - start) / 1e6
    return TimedResult(
        submitted=installed + failed,
        installed=installed,
        failed=failed,
        elapsed_ms=elapsed_ms,
    )


def load_cli_topology(path: str | None) -> Topology:
    """--topology beats the INTENTD_TOPOLOGY variable beats the built-in."""
    if path is None:
        path = os.environ.get(TOPOLOGY_ENV_VAR)
    if path is None:
        return default_topology()
    return load_topology_file(path)


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _port(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if not 0 <= value <= 65535:
        raise argparse.ArgumentTypeError(f"must be in 0-65535, got {value}")
    return value


def _names(text: str) -> tuple[str, ...]:
    return tuple(item.strip() for item in text.split(",") if item.strip())


def _counts(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(item) for item in _names(text))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma list of integers: {text!r}") from None


def _connect_point(text: str) -> ConnectPoint:
    try:
        return ConnectPoint.parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="intentd",
        description="Miniature intent-based SDN controller on a simulated fabric.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--topology",
        metavar="FILE",
        help=f"topology JSON file (default: ${TOPOLOGY_ENV_VAR} or built-in chain)",
    )

    add_common = argparse.ArgumentParser(add_help=False, parents=[common])
    add_common.add_argument(
        "--output",
        choices=("table", "json", "csv"),
        default="table",
        help="result format",
    )
    add_common.add_argument(
        "--count", type=_positive_int, default=1, metavar="N",
        help="submit the intent N times (default 1)",
    )
    add_common.add_argument(
        "--priority", type=_positive_int, default=DEFAULT_PRIORITY, metavar="P",
        help=f"flow rule priority (default {DEFAULT_PRIORITY})",
    )

    add_commands = (
        ("add-point-to-point-intent", "P2P", "connect one ingress point to one egress point"),
        ("add-single-to-multi-point-intent", "S2M",
         "connect one ingress point to several egress points"),
        ("add-multi-to-single-point-intent", "M2S",
         "connect several ingress points to one egress point, given last"),
        ("add-host-to-host-intent", "H2H", "connect two hosts in both directions"),
    )
    # positionals are named after the request document's fields
    positional = {
        FieldKind.POINT: {"type": _connect_point},
        FieldKind.POINT_SET: {"type": _connect_point, "nargs": "+"},
        FieldKind.HOST: {},
    }
    for command, type_name, help_text in add_commands:
        add = sub.add_parser(command, parents=[add_common], help=help_text)
        add.set_defaults(type=type_name)
        _, fields = REQUEST_TYPES[type_name]
        for name, kind in fields.items():
            add.add_argument(name, **positional[kind])

    serve = sub.add_parser(
        "serve", parents=[common], help="run the REST interface over this controller"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=_port, default=8181, help="0 picks a free port")
    serve.add_argument("--capacity", type=_positive_int, default=None)

    bench = sub.add_parser(
        "bench", parents=[common], help="run the installation-time benchmark"
    )
    # each dest is a BenchmarkConfig field; a flag left unset keeps its default
    bench.add_argument("--types", dest="intent_types", type=_names, metavar="LIST",
                       help="comma list from P2P,S2M,M2S")
    bench.add_argument("--interfaces", type=_names, metavar="LIST",
                       help="comma list from CLI,REST")
    bench.add_argument("--workloads", type=_counts, metavar="LIST",
                       help="comma list of intent counts")
    bench.add_argument("--iterations", type=_positive_int)
    bench.add_argument("--saturation", dest="saturation_iterations", type=int, metavar="N",
                       help="saturation runs per type (0 skips the phase)")
    bench.add_argument("--capacity", type=_positive_int,
                       help="store capacity for the saturation phase")
    bench.add_argument("--seed", type=int)
    bench.add_argument("--out", dest="output_dir", metavar="DIR", help="report directory")
    return parser


def _print_timed(result: TimedResult, fmt: str) -> None:
    row = {
        "submitted": result.submitted,
        "installed": result.installed,
        "failed": result.failed,
        "elapsed_ms": round(result.elapsed_ms, 3),
    }
    if fmt == "json":
        print(json.dumps(row))
    elif fmt == "csv":
        print("submitted,installed,failed,elapsed_ms")
        print(",".join(str(v) for v in row.values()))
    else:
        print(" ".join(f"{k}={v}" for k, v in row.items()))


def run_add_command(args: argparse.Namespace, controller: Controller) -> int:
    """Validate, run the timed loop, print the result; returns the exit code."""
    cls, fields = REQUEST_TYPES[args.type]
    request = cls(*(getattr(args, name) for name in fields))
    try:
        validate_request(controller.topology, request)
    except IntentValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    result = timed_add(controller, request, args.count, priority=args.priority)
    _print_timed(result, args.output)
    if result.failed > 0 or result.submitted < args.count:
        return EXIT_PARTIAL
    return EXIT_OK


def _run_serve(args: argparse.Namespace, controller: Controller) -> int:
    from .rest import RestServer

    try:
        server = RestServer(controller, args.host, args.port).start()
    except OSError as exc:  # the port is taken, or the host is not ours
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(f"listening on http://{server.endpoint}")
    try:
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
    return EXIT_OK


def _run_bench(args: argparse.Namespace) -> int:
    from . import bench

    try:
        config = bench.config_from_args(args)
        runner = bench.BenchRunner(config)  # loads and checks the topology
        # the report directory is made before the sweep, so a bad --out stops it
        os.makedirs(config.output_dir, exist_ok=True)
    except (ValueError, OSError, IntentdError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        results = runner.run(verbose=True)
    finally:
        runner.close()
    paths = bench.emit_report(results, config)

    if results.fits:  # a fit needs at least three workloads
        print("\nper-cell linear fits (mean install time vs intent count)")
    for (intent_type, interface), fit in sorted(results.fits.items()):
        print(
            f"  {intent_type}/{interface}: {fit.slope:.4f} ms/intent "
            f"+ {fit.intercept:.2f} ms, r^2={fit.r_squared:.5f}"
        )
    if results.ratios:
        ratios = [r.ratio for r in results.ratios]
        print(
            f"\nREST/CLI mean-time ratio: min={min(ratios):.2f} "
            f"mean={sum(ratios) / len(ratios):.2f} max={max(ratios):.2f}"
        )
    print()
    for path in paths:
        print(f"wrote {path}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.command == "bench":
        return _run_bench(args)

    try:
        topology = load_cli_topology(args.topology)
    except (OSError, IntentdError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    if args.command == "serve":
        controller = Controller(topology, capacity=args.capacity)
        return _run_serve(args, controller)

    return run_add_command(args, Controller(topology))


if __name__ == "__main__":
    sys.exit(main())
