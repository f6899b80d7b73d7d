"""Command-line verbs, exit codes, the timed submission loop, and the demo script."""
import gc
import json
import os
import re
import shlex
import socket
import subprocess
import sys

import pytest

import intentd
from intentd.cli import (
    EXIT_OK,
    EXIT_PARTIAL,
    EXIT_USAGE,
    TOPOLOGY_ENV_VAR,
    build_parser,
    load_cli_topology,
    main,
    run_add_command,
    timed_add,
)
from intentd.intents import Controller, PointToPoint
from intentd.topology import ConnectPoint, Topology, device_id, serialize_topology
from conftest import CHAIN3_DOCUMENT, D1, D2, D3


# A fresh interpreter runs the add command in argv, then names the modules it
# loaded that the add path leaves out.  A host-to-host add hashes its host ids
# with the interpreter's builtin SHA-256, not hashlib, which loads OpenSSL.
# It runs under -S, so no site .pth file can load one of them first.
ADD_PATH_SCRIPT = """
import sys
before = set(sys.modules)
from intentd.cli import main
main([*sys.argv[1:], "--output", "json"])
left_out = {"dataclasses", "inspect", "hashlib", "_hashlib", "intentd.rest", "intentd.bench",
            "http.server", "typing"}
print(sorted(left_out & (set(sys.modules) - before)))
"""


def spawn_python(args):
    """`python ARGS` in a fresh process with this tree's intentd on its path."""
    src = os.path.dirname(os.path.dirname(intentd.__file__))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=30,
    )


def parse(argv):
    return build_parser().parse_args(argv)


@pytest.fixture
def chain3_file(tmp_path, chain3):
    path = tmp_path / "chain3.json"
    path.write_text(json.dumps(serialize_topology(chain3)))
    return str(path)


class TestTimedAdd:
    def test_counts_and_elapsed(self, controller):
        request = PointToPoint(ConnectPoint(D1, 1), ConnectPoint(D3, 2))
        result = timed_add(controller, request, 3)
        assert (result.submitted, result.installed, result.failed) == (3, 3, 0)
        assert result.elapsed_ms > 0
        assert controller.installed_rules() == 9

    def test_capacity_stops_the_loop(self, chain3):
        ctrl = Controller(chain3, capacity=2)
        request = PointToPoint(ConnectPoint(D1, 1), ConnectPoint(D3, 2))
        result = timed_add(ctrl, request, 10)
        assert result.submitted == 2
        assert result.installed == 2

    def test_one_compiled_install_then_copies(self, controller, installs):
        request = PointToPoint(ConnectPoint(D1, 1), ConnectPoint(D3, 2))
        assert timed_add(controller, request, 50).installed == 50
        assert installs == ["install_places"] + ["install_copy"] * 49
        assert controller.installed_rules() == 150

    def test_failures_are_counted_not_raised(self):
        topo = Topology({D1: [1], D2: [1]}, [])
        ctrl = Controller(topo)
        request = PointToPoint(ConnectPoint(D1, 1), ConnectPoint(D2, 1))
        result = timed_add(ctrl, request, 4)
        assert (result.installed, result.failed) == (0, 4)


class TestAddVerbs:
    def test_p2p_installs_and_prints_json(self, controller, capsys):
        args = parse(
            ["add-point-to-point-intent", f"{D1}/1", f"{D3}/2", "--output", "json"]
        )
        assert run_add_command(args, controller) == EXIT_OK
        row = json.loads(capsys.readouterr().out)
        assert row["installed"] == 1 and row["failed"] == 0
        assert controller.installed_rules() == 3

    def test_count_repeats_submission(self, controller, capsys):
        args = parse(["add-point-to-point-intent", f"{D1}/1", f"{D3}/2", "--count", "5"])
        assert run_add_command(args, controller) == EXIT_OK
        assert len(controller.list()) == 5
        assert controller.installed_rules() == 15

    def test_csv_output_shape(self, controller, capsys):
        args = parse(
            ["add-point-to-point-intent", f"{D1}/1", f"{D3}/2", "--output", "csv"]
        )
        run_add_command(args, controller)
        header, row = capsys.readouterr().out.strip().splitlines()
        assert header == "submitted,installed,failed,elapsed_ms"
        assert row.startswith("1,1,0,")

    def test_table_output_shape(self, controller, capsys):
        args = parse(["add-point-to-point-intent", f"{D1}/1", f"{D3}/2"])
        run_add_command(args, controller)
        out = capsys.readouterr().out
        assert "submitted=1" in out and "installed=1" in out

    def test_validation_error_is_usage(self, controller, capsys):
        args = parse(["add-point-to-point-intent", f"{D1}/1", f"{D1}/1"])
        assert run_add_command(args, controller) == EXIT_USAGE
        assert "error:" in capsys.readouterr().err

    def test_failed_installs_exit_partial(self, capsys):
        topo = Topology({D1: [1], D2: [1]}, [])
        ctrl = Controller(topo)
        args = parse(["add-point-to-point-intent", f"{D1}/1", f"{D2}/1"])
        assert run_add_command(args, ctrl) == EXIT_PARTIAL

    def test_capacity_cutoff_exits_partial(self, chain3, capsys):
        ctrl = Controller(chain3, capacity=2)
        args = parse(["add-point-to-point-intent", f"{D1}/1", f"{D3}/2", "--count", "9"])
        assert run_add_command(args, ctrl) == EXIT_PARTIAL

    def test_multi_to_single_takes_last_point_as_egress(self, controller):
        args = parse(
            ["add-multi-to-single-point-intent", f"{D1}/1", f"{D2}/1", f"{D3}/2"]
        )
        assert run_add_command(args, controller) == EXIT_OK
        (intent,) = controller.list()
        assert intent.request.egress == ConnectPoint(D3, 2)
        assert intent.request.ingresses == frozenset(
            {ConnectPoint(D1, 1), ConnectPoint(D2, 1)}
        )

    def test_multi_to_single_needs_two_points(self, capsys):
        with pytest.raises(SystemExit) as exc:
            parse(["add-multi-to-single-point-intent", f"{D3}/2"])
        assert exc.value.code == EXIT_USAGE

    def test_host_to_host(self, controller, capsys):
        args = parse(["add-host-to-host-intent", "h1", "h2"])
        assert run_add_command(args, controller) == EXIT_OK
        assert controller.installed_rules() == 6

    def test_priority_flag_reaches_rules(self, controller):
        args = parse(
            ["add-point-to-point-intent", f"{D1}/1", f"{D3}/2", "--priority", "42"]
        )
        run_add_command(args, controller)
        (intent,) = controller.list()
        assert intent.priority == 42


class TestTopologySelection:
    def test_default_is_builtin_chain(self, monkeypatch):
        monkeypatch.delenv(TOPOLOGY_ENV_VAR, raising=False)
        topo = load_cli_topology(None)
        assert len(topo.device_ids) == 5

    def test_environment_variable_used(self, monkeypatch, chain3_file, chain3):
        monkeypatch.setenv(TOPOLOGY_ENV_VAR, chain3_file)
        assert load_cli_topology(None) == chain3

    def test_flag_beats_environment(self, monkeypatch, chain3_file, tmp_path, chain3):
        other = tmp_path / "tiny.json"
        other.write_text(json.dumps({"devices": [{"id": D1, "ports": [1]}]}))
        monkeypatch.setenv(TOPOLOGY_ENV_VAR, chain3_file)
        assert load_cli_topology(str(other)).device_ids == (D1,)

    @pytest.mark.parametrize(
        "content",
        [
            None,
            "{",
            json.dumps({"devices": [{"id": D1, "ports": 5}]}),
            json.dumps({"devices": [{"id": 5, "ports": [1]}]}),
        ],
        ids=["absent", "malformed", "ports-not-a-list", "id-not-a-string"],
    )
    @pytest.mark.parametrize(
        "argv", [["add-host-to-host-intent", "h1", "h2"], ["bench"]], ids=["add", "bench"]
    )
    def test_missing_file_is_usage(self, capsys, monkeypatch, tmp_path, argv, content):
        monkeypatch.delenv(TOPOLOGY_ENV_VAR, raising=False)
        path = tmp_path / "topology.json"
        if content is not None:
            path.write_text(content)
        code = main([*argv, "--topology", str(path)])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: ")


class TestMainEndToEnd:
    def test_add_on_default_topology(self, capsys, monkeypatch):
        monkeypatch.delenv(TOPOLOGY_ENV_VAR, raising=False)
        code = main(
            [
                "add-point-to-point-intent",
                f"{device_id(1)}/1",
                f"{device_id(5)}/2",
                "--output",
                "json",
            ]
        )
        assert code == EXIT_OK
        assert json.loads(capsys.readouterr().out)["installed"] == 1

    def test_add_with_topology_file(self, capsys, chain3_file):
        code = main(
            ["add-host-to-host-intent", "h1", "h2", "--topology", chain3_file]
        )
        assert code == EXIT_OK

    def test_malformed_connect_point_is_usage(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["add-point-to-point-intent", "bogus", f"{D3}/2"])
        assert exc.value.code == EXIT_USAGE

    def test_zero_count_rejected_by_parser(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(
                ["add-point-to-point-intent", f"{D1}/1", f"{D3}/2", "--count", "0"]
            )
        assert exc.value.code == EXIT_USAGE

    @pytest.mark.parametrize(
        "argv",
        [
            ["intents"], ["withdraw", "1"], ["serve", "--output", "json"],
            ["bench", "--output", "json"], ["bench", "--rest-endpoint", "127.0.0.1:0"],
            ["bench", "--reset-mode", "restart"], ["bench", "--plot-scale", "10"],
            ["bench", "--config", "bench.json"],
        ],
        ids=["intents", "withdraw", "serve-output", "bench-output", "bench-rest-endpoint",
             "bench-reset-mode", "bench-plot-scale", "bench-config"],
    )
    def test_removed_surfaces_are_usage_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            parse(argv)
        assert exc.value.code == EXIT_USAGE

    @pytest.mark.parametrize("port", ["70000", "-1"])
    def test_port_out_of_range_rejected_by_parser(self, port, capsys):
        with pytest.raises(SystemExit) as exc:
            parse(["serve", "--port", port])
        assert exc.value.code == EXIT_USAGE

    def test_port_in_use_is_usage(self):
        with socket.socket() as holder:
            holder.bind(("127.0.0.1", 0))
            holder.listen()
            port = holder.getsockname()[1]
            # a serve that did bind would run until the timeout fails the test
            proc = spawn_python(["-m", "intentd.cli", "serve", "--port", str(port)])
        assert proc.returncode == EXIT_USAGE
        assert proc.stderr.startswith("error: ")
        assert "Traceback" not in proc.stderr

    def test_bad_bench_out_stops_before_the_sweep(self, capsys, tmp_path):
        blocker = tmp_path / "a-file"
        blocker.write_text("")
        code = main(
            ["bench", "--out", str(blocker / "report"), "--types", "P2P",
             "--interfaces", "CLI", "--workloads", "2,4,6", "--iterations", "2",
             "--saturation", "0"]
        )
        out, err = capsys.readouterr()
        assert code == EXIT_USAGE
        assert err.startswith("error: ")
        assert "workload=" not in out

    def test_bench_type_too_big_for_topology_stops_before_out(self, capsys, tmp_path):
        # two linked devices with one edge port each; S2M draws three devices
        two = tmp_path / "two.json"
        two.write_text(json.dumps({
            "devices": [{"id": D1, "ports": [1, 2]}, {"id": D2, "ports": [1, 2]}],
            "links": [{"src": f"{D1}/2", "dst": f"{D2}/1"}],
        }))
        report = tmp_path / "report"
        code = main(
            ["bench", "--topology", str(two), "--out", str(report), "--types", "S2M",
             "--workloads", "1,2,3", "--iterations", "2", "--saturation", "0"]
        )
        out, err = capsys.readouterr()
        assert code == EXIT_USAGE
        assert err == "error: S2M needs 3 devices with edge ports; the topology has 2\n"
        assert "workload=" not in out
        assert not report.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["add-point-to-point-intent", f"{device_id(1)}/1", f"{device_id(5)}/2"],
            ["add-single-to-multi-point-intent", f"{device_id(1)}/1", f"{device_id(3)}/3",
             f"{device_id(5)}/2"],
            ["add-multi-to-single-point-intent", f"{device_id(1)}/1", f"{device_id(3)}/3",
             f"{device_id(5)}/2"],
            ["add-host-to-host-intent", "h1", "h2"],
        ],
        ids=["P2P", "S2M", "M2S", "H2H"],
    )
    def test_add_path_leaves_out_dataclasses_inspect_and_hashlib(self, argv):
        proc = spawn_python(["-S", "-c", ADD_PATH_SCRIPT, *argv])
        assert proc.returncode == 0, proc.stderr
        out = proc.stdout.splitlines()
        assert json.loads(out[0])["installed"] == 1
        assert out[-1] == "[]"

    def test_process_prints_its_row_and_exits_ok(self):
        proc = spawn_python(["-m", "intentd.cli", "add-point-to-point-intent", "--output",
                             "json", f"{device_id(1)}/1", f"{device_id(5)}/2"])
        assert proc.returncode == EXIT_OK, proc.stderr
        assert json.loads(proc.stdout)["installed"] == 1

    def test_process_exit_code_and_row_survive_the_exit(self, tmp_path):
        unlinked = tmp_path / "unlinked.json"
        unlinked.write_text(json.dumps(
            {"devices": [{"id": D1, "ports": [1, 2]}, {"id": D2, "ports": [1, 2]}]}))
        proc = spawn_python(["-m", "intentd.cli", "add-point-to-point-intent", "--output",
                             "json", "--topology", str(unlinked), f"{D1}/1", f"{D2}/1"])
        assert proc.returncode == EXIT_PARTIAL, proc.stderr
        assert json.loads(proc.stdout)["failed"] == 1

    def test_process_entry_freezes_the_heap_it_built(self):
        script = "import gc\nfrom intentd.cli import run\ncode = run()\nprint(code, gc.get_freeze_count())"
        proc = spawn_python(["-c", script, "add-point-to-point-intent", "--output", "json",
                             f"{device_id(1)}/1", f"{device_id(5)}/2"])
        assert proc.returncode == 0, proc.stderr
        row, tail = proc.stdout.splitlines()
        assert json.loads(row)["installed"] == 1
        code, frozen = map(int, tail.split())
        assert code == EXIT_OK and frozen > 1000

    def test_in_process_main_leaves_the_collector_alone(self, capsys, monkeypatch):
        monkeypatch.delenv(TOPOLOGY_ENV_VAR, raising=False)
        frozen, enabled = gc.get_freeze_count(), gc.isenabled()
        assert main(["add-host-to-host-intent", "h1", "h2"]) == EXIT_OK
        assert (gc.get_freeze_count(), gc.isenabled()) == (frozen, enabled)

    def test_console_script_is_the_process_entry(self):
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        with open(os.path.join(root, "pyproject.toml"), encoding="utf-8") as fh:
            assert 'intentd = "intentd.cli:run"' in fh.read().splitlines()

    def test_console_script_help(self):
        proc = spawn_python(["-m", "intentd.cli", "--help"])
        assert proc.returncode == 0
        assert "add-point-to-point-intent" in proc.stdout
        assert proc.stderr == ""


class TestInterfaceEquivalence:
    @pytest.mark.parametrize(
        "doc, argv",
        [
            (
                {"type": "P2P", "ingress": f"{D1}/1", "egress": f"{D3}/2"},
                ["add-point-to-point-intent", f"{D1}/1", f"{D3}/2"],
            ),
            (
                {"type": "S2M", "ingress": f"{D1}/1", "egresses": [f"{D3}/2"]},
                ["add-single-to-multi-point-intent", f"{D1}/1", f"{D3}/2"],
            ),
            (
                {"type": "M2S", "ingresses": [f"{D1}/1"], "egress": f"{D3}/2"},
                ["add-multi-to-single-point-intent", f"{D1}/1", f"{D3}/2"],
            ),
            (
                {"type": "H2H", "one": "h1", "two": "h2"},
                ["add-host-to-host-intent", "h1", "h2"],
            ),
        ],
        ids=["P2P", "S2M", "M2S", "H2H"],
    )
    def test_cli_and_rest_install_identical_rule_shapes(self, chain3, rest, doc, argv):
        _, client = rest
        status, _ = client.post_intent({**doc, "priority": 77})
        assert status == 201
        rest_ctrl = rest[0]

        cli_ctrl = Controller(chain3)
        args = parse([*argv, "--priority", "77"])
        assert run_add_command(args, cli_ctrl) == EXIT_OK

        def shapes(ctrl):
            return {
                (r.device, r.in_port, r.selector, r.treatment.outputs, r.priority)
                for d in ctrl.topology.device_ids
                for r in ctrl.fabric.rules_for(d)
            }

        assert shapes(rest_ctrl) == shapes(cli_ctrl)
        assert [i.request for i in rest_ctrl.list()] == [i.request for i in cli_ctrl.list()]


class TestDemoScript:
    def test_walkthrough_ends_with_nothing_left(self):
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        path = os.pathsep.join(filter(None, (os.path.join(root, "src"), os.environ.get("PYTHONPATH"))))
        proc = subprocess.run(
            [sys.executable, os.path.join(root, "scripts", "demo_walkthrough.py")],
            capture_output=True,
            text=True,
            timeout=60,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout.splitlines()[-1].strip() == "live intents=0 fabric rules=0"


def readme_commands():
    """Every `intentd ...` command line in README.md's shell blocks."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "README.md"), encoding="utf-8") as fh:
        blocks = re.findall(r"^```sh\n(.*?)^```", fh.read(), re.M | re.S)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    return [line.strip() for line in lines if line.strip().startswith("intentd ")]


class TestReadmeCommands:
    def test_readme_shows_commands(self):
        assert len(readme_commands()) >= 8

    @pytest.mark.parametrize("line", readme_commands())
    def test_every_readme_command_parses(self, line):
        # a flag deleted from the parser must not linger in the docs
        parse(shlex.split(line, comments=True)[1:])
