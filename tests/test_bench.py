"""Benchmark harness: configuration, measurement contracts, and reports."""
import csv
import json
import os
import platform
import subprocess
import sys

import pytest

import intentd
from intentd.bench import (
    BenchmarkConfig,
    BenchRunner,
    DESK_WORKLOADS,
    _cell_rng,
    _pick_request,
    config_from_args,
    emit_report,
)
from intentd.cli import build_parser
from intentd.rest import request_document
from intentd.topology import default_topology


def tiny_config(**overrides):
    base = dict(
        intent_types=("P2P",),
        interfaces=("CLI",),
        workloads=(2, 4, 6),
        iterations=2,
        saturation_iterations=0,
        capacity=1000,
        seed=1,
    )
    base.update(overrides)
    return BenchmarkConfig(**base)


class TestConfigValidation:
    def test_defaults_are_valid(self):
        BenchmarkConfig()

    def test_profile_workloads_are_increasing(self):
        assert list(DESK_WORKLOADS) == sorted(set(DESK_WORKLOADS))

    @pytest.mark.parametrize(
        "overrides",
        [
            {"intent_types": ("H2H",)},
            {"intent_types": ("FLOOD",)},
            {"interfaces": ("GRPC",)},
            {"workloads": ()},
            {"workloads": (5, 5)},
            {"workloads": (10, 5)},
            {"iterations": 1},
            {"saturation_iterations": -1},
            {"capacity": 0},
            {"intent_types": ()},
            {"intent_types": ("P2P", "P2P")},
            {"interfaces": ()},
            {"interfaces": ("CLI", "REST", "CLI")},
        ],
    )
    def test_rejected(self, overrides):
        with pytest.raises(ValueError):
            tiny_config(**overrides)


class TestRequestPicking:
    def test_deterministic_per_cell(self):
        topo = default_topology()
        a = _pick_request(topo, "S2M", _cell_rng(9, "S2M", 100))
        b = _pick_request(topo, "S2M", _cell_rng(9, "S2M", 100))
        assert a == b

    def test_types_map_to_request_classes(self):
        topo = default_topology()
        for intent_type in ("P2P", "S2M", "M2S"):
            request = _pick_request(topo, intent_type, _cell_rng(0, intent_type, 1))
            assert request.type_name == intent_type

    def test_default_cells_draw_pinned_requests(self):
        # the desk sweep's requests; a change to how they are drawn moves
        # every published number
        picks = {
            t: request_document(_pick_request(default_topology(), t, _cell_rng(0, t)))
            for t in ("P2P", "S2M", "M2S")
        }
        assert picks == {
            "P2P": {"type": "P2P", "ingress": "of:0000000000000004/4",
                    "egress": "of:0000000000000001/3"},
            "S2M": {"type": "S2M", "ingress": "of:0000000000000002/3",
                    "egresses": ["of:0000000000000003/4", "of:0000000000000005/4"]},
            "M2S": {"type": "M2S",
                    "ingresses": ["of:0000000000000003/3", "of:0000000000000004/3"],
                    "egress": "of:0000000000000005/3"},
        }

    def test_seed_changes_pick(self):
        topo = default_topology()
        picks = {
            _pick_request(topo, "P2P", _cell_rng(seed, "P2P", 100))
            for seed in range(20)
        }
        assert len(picks) > 1


class TestRunWorkload:
    def test_cli_sample_contract(self):
        with BenchRunner(tiny_config()) as runner:
            sample = runner.run_workload("P2P", "CLI", 5, iteration=3)
        assert sample.installed == 5
        assert sample.failed == 0
        assert sample.iteration == 3
        assert sample.elapsed_ms > 0

    def test_iterations_start_from_empty_state(self):
        with BenchRunner(tiny_config()) as runner:
            runner.run_workload("P2P", "CLI", 4)
            runner.run_workload("P2P", "CLI", 4)
            # reset ran before the second iteration, so nothing accumulated
            assert runner.controller.live_intents() == 4

    def test_rest_sample_contract(self):
        with BenchRunner(tiny_config(interfaces=("REST",))) as runner:
            assert runner.server is None  # started by the first REST sample
            sample = runner.run_workload("P2P", "REST", 5)
            assert sample.installed == 5
            assert sample.failed == 0
            assert runner.server.host == "127.0.0.1"
            assert runner.server.port != 0
            # the server answers for the runner's own controller
            assert runner.server.controller is runner.controller
            assert runner.controller.live_intents() == 5
            runner.run_workload("P2P", "REST", 3)
            assert runner.controller.live_intents() == 3

    def test_two_runners_sample_rest_side_by_side(self):
        config = tiny_config(interfaces=("REST",))
        with BenchRunner(config) as first, BenchRunner(config) as second:
            assert first.run_workload("P2P", "REST", 2).installed == 2
            assert second.run_workload("P2P", "REST", 2).installed == 2
            assert first.server.port != second.server.port


class TestSweep:
    def test_shapes_and_ordering(self):
        config = tiny_config(interfaces=("CLI", "REST"))
        with BenchRunner(config) as runner:
            results = runner.run_sweep()
        assert len(results.samples) == 1 * 2 * 3 * 2  # types x interfaces x loads x iters
        assert len(results.summaries) == 6
        assert set(results.fits) == {("P2P", "CLI"), ("P2P", "REST")}
        assert [r.workload for r in results.ratios] == [2, 4, 6]
        for row in results.ratios:
            assert row.rest_mean_ms > 0 and row.cli_mean_ms > 0
            assert row.ratio == row.rest_mean_ms / row.cli_mean_ms

    def test_sweep_leaves_quiescent_controller(self):
        with BenchRunner(tiny_config()) as runner:
            runner.run_sweep()
            assert runner.controller.live_intents() == 0
            assert runner.controller.installed_rules() == 0

    def test_counts_reproducible_across_runs(self):
        config = tiny_config(interfaces=("CLI",))

        def count_signature():
            with BenchRunner(config) as runner:
                results = runner.run_sweep()
            return [
                (s.intent_type, s.interface, s.workload, s.iteration, s.installed, s.failed)
                for s in results.samples
            ]

        assert count_signature() == count_signature()

    def test_iterations_interleave_workloads_in_seeded_order(self):
        # host drift must spread over the workload axis, not line up with it:
        # each round visits every workload before the next round starts
        config = tiny_config(
            intent_types=("P2P", "S2M"), workloads=(2, 4, 6, 8), iterations=3
        )

        def schedule():
            with BenchRunner(config) as runner:
                samples = runner.run_sweep().samples
            return [(s.intent_type, s.interface, s.iteration, s.workload) for s in samples]

        order = schedule()
        assert len(order) == 2 * 1 * 3 * 4  # types x interfaces x rounds x loads
        for position, (intent_type, interface, iteration, _) in enumerate(order):
            block, offset = divmod(position, 3 * 4)
            assert (intent_type, interface) == (("P2P", "S2M")[block], "CLI")
            assert iteration == offset // 4
        for start in range(0, len(order), 4):
            assert sorted(key[3] for key in order[start:start + 4]) == [2, 4, 6, 8]
        assert schedule() == order


class TestSaturation:
    def test_fills_to_capacity_every_run(self):
        config = tiny_config(capacity=100, saturation_iterations=3)
        with BenchRunner(config) as runner:
            runs = runner.run_saturation("P2P")
        assert [r.max_intents for r in runs] == [100, 100, 100]
        assert all(r.elapsed_ms > 0 for r in runs)
        assert [r.run_index for r in runs] == [0, 1, 2]

    def test_run_includes_saturation_when_enabled(self):
        config = tiny_config(capacity=30, saturation_iterations=2)
        with BenchRunner(config) as runner:
            results = runner.run()
        assert set(results.saturation) == {"P2P"}
        assert len(results.saturation["P2P"]) == 2


class TestMetadata:
    def test_records_method_and_config(self):
        with BenchRunner(tiny_config()) as runner:
            results = runner.run()
        meta = results.metadata
        assert meta["units"] == "milliseconds"
        assert meta["clock"] == "perf_counter_ns"
        assert tuple(meta["config"]["workloads"]) == (2, 4, 6)
        assert meta["finished_unix"] >= meta["started_unix"]

    def test_records_where_the_sweep_ran(self):
        with BenchRunner(tiny_config()) as runner:
            meta = runner.run().metadata
        assert meta["python"] == platform.python_version()
        assert meta["platform"] == platform.platform()
        assert meta["cpu_count"] == os.cpu_count()
        assert meta["peak_rss_mb"] > 1
        steal = meta["host_steal_pct"]
        assert steal is None or 0 <= steal <= 100
        assert "commit" not in meta


class TestReport:
    def run_tiny(self, tmp_path, **overrides):
        config = tiny_config(
            interfaces=("CLI", "REST"),
            saturation_iterations=2,
            capacity=20,
            output_dir=str(tmp_path / "out"),
            **overrides,
        )
        with BenchRunner(config) as runner:
            results = runner.run()
            self.server_address = (runner.server.host, runner.server.port)
        return config, results, emit_report(results, config)

    def read(self, path):
        with open(path, newline="") as fh:
            return list(csv.reader(fh))

    def test_all_files_written(self, tmp_path):
        _, _, paths = self.run_tiny(tmp_path)
        names = sorted(p.rsplit("/", 1)[1] for p in paths)
        assert names == [
            "fit.csv",
            "metadata.json",
            "ratio.csv",
            "samples.csv",
            "saturation.csv",
            "saturation_summary.csv",
            "summary.csv",
        ]

    def test_samples_header_and_rows(self, tmp_path):
        config, results, paths = self.run_tiny(tmp_path)
        rows = self.read(f"{config.output_dir}/samples.csv")
        assert rows[0] == [
            "intent_type", "interface", "workload", "iteration",
            "elapsed_ms", "installed", "failed",
        ]
        assert len(rows) == 1 + len(results.samples)
        # floats round-trip through the text form
        assert float(rows[1][4]) == results.samples[0].elapsed_ms

    def test_summary_header_without_plot_scale(self, tmp_path):
        config, _, _ = self.run_tiny(tmp_path)
        rows = self.read(f"{config.output_dir}/summary.csv")
        assert rows[0] == [
            "intent_type", "interface", "workload", "n",
            "mean_ms", "stddev_ms", "ci95_ms", "cov",
        ]

    def test_ratio_and_fit_headers(self, tmp_path):
        config, _, _ = self.run_tiny(tmp_path)
        assert self.read(f"{config.output_dir}/ratio.csv")[0] == [
            "intent_type", "workload", "rest_mean_ms", "cli_mean_ms", "ratio",
        ]
        assert self.read(f"{config.output_dir}/fit.csv")[0] == [
            "intent_type", "interface", "slope_ms_per_intent", "intercept_ms", "r_squared",
        ]

    def test_saturation_files(self, tmp_path):
        config, _, _ = self.run_tiny(tmp_path)
        sat = self.read(f"{config.output_dir}/saturation.csv")
        assert sat[0] == ["intent_type", "run_index", "max_intents", "elapsed_ms"]
        assert [row[2] for row in sat[1:]] == ["20", "20"]
        summary = self.read(f"{config.output_dir}/saturation_summary.csv")
        assert summary[0] == ["intent_type", "runs", "mean_max_intents", "mean_elapsed_ms"]
        assert summary[1][:3] == ["P2P", "2", "20.0"]

    def test_metadata_json_parses(self, tmp_path):
        config, _, _ = self.run_tiny(tmp_path)
        with open(f"{config.output_dir}/metadata.json") as fh:
            meta = json.load(fh)
        assert meta["config"]["output_dir"] == config.output_dir
        host, port = self.server_address
        assert host == "127.0.0.1" and port != 0


class TestConfigFromArgs:
    def parse_bench(self, *extra):
        return build_parser().parse_args(["bench", *extra])

    def test_desk_profile_defaults(self):
        # BenchmarkConfig holds the only defaults: a bare command adds none
        config = config_from_args(self.parse_bench())
        assert config == BenchmarkConfig()
        assert config.workloads == DESK_WORKLOADS
        assert config.iterations == 10
        assert config.capacity == 10_000

    @pytest.mark.parametrize(
        "flags", [("--profile", "paper"), ("--workloads", "30,x")]
    )
    def test_unknown_flag_or_bad_list_exits_2(self, flags):
        with pytest.raises(SystemExit) as exc:
            self.parse_bench(*flags)
        assert exc.value.code == 2

    def test_flags_override_profile(self):
        config = config_from_args(
            self.parse_bench(
                "--types", "P2P,M2S",
                "--interfaces", "CLI",
                "--workloads", "10,20,30",
                "--iterations", "4",
                "--saturation", "0",
                "--seed", "99",
                "--capacity", "50",
                "--out", "elsewhere",
                "--topology", "net.json",
            )
        )
        assert config.intent_types == ("P2P", "M2S")
        assert config.interfaces == ("CLI",)
        assert config.workloads == (10, 20, 30)
        assert config.iterations == 4
        assert config.saturation_iterations == 0
        assert config.seed == 99
        assert config.capacity == 50
        assert config.output_dir == "elsewhere"
        assert config.topology == "net.json"

    def test_bad_workload_list_rejected(self):
        with pytest.raises(ValueError):
            config_from_args(self.parse_bench("--workloads", "30,20"))

    def test_empty_type_list_exits_2_and_writes_nothing(self, tmp_path, capsys):
        from intentd.cli import main

        out = tmp_path / "out"
        assert main(["bench", "--types", "", "--out", str(out)]) == 2
        assert "intent_types" in capsys.readouterr().err
        assert not out.exists()

    def test_bench_command_ends_with_fits_and_ratios(self, tmp_path, capsys):
        from intentd.cli import main

        code = main(
            [
                "bench",
                "--types", "P2P",
                "--interfaces", "CLI,REST",
                "--workloads", "2,4,6",
                "--iterations", "2",
                "--saturation", "0",
                "--out", str(tmp_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "per-cell linear fits" in out
        assert "  P2P/CLI: " in out and "  P2P/REST: " in out
        assert "REST/CLI mean-time ratio: min=" in out
        assert f"wrote {tmp_path}" in out


# A sweep in a fresh interpreter, summaries included, then the names of any
# scipy modules it loaded.
SWEEP_SCRIPT = """
import sys
from intentd.bench import BenchmarkConfig, BenchRunner

config = BenchmarkConfig(
    intent_types=("P2P",), interfaces=("CLI",), workloads=(2, 4, 6), iterations=2,
    saturation_iterations=0, capacity=1000, seed=1,
)
with BenchRunner(config) as runner:
    results = runner.run()
assert len(results.summaries) == 3 and results.fits
print(sorted(name for name in sys.modules if name.partition(".")[0] == "scipy"))
"""


def test_sweep_runs_without_scipy():
    src = os.path.dirname(os.path.dirname(intentd.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-c", SWEEP_SCRIPT],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
