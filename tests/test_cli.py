"""Tests for the ``univmon`` command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["--version"])
        assert exc.value.code == 0
        assert "univmon" in capsys.readouterr().out

    def test_experiment_names_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "fig99"])


class TestGenerate:
    def test_csv_generation(self, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        code = main(["generate", "--out", str(out), "--packets", "500",
                     "--flows", "50", "--duration", "2", "--seed", "1"])
        assert code == 0
        assert out.exists()
        assert "wrote" in capsys.readouterr().out

    def test_pcap_generation(self, tmp_path):
        out = tmp_path / "trace.pcap"
        assert main(["generate", "--out", str(out), "--packets", "200",
                     "--flows", "30"]) == 0
        from repro.dataplane.pcap import load_pcap
        assert len(load_pcap(out)) == 200

    def test_ddos_injection(self, tmp_path):
        out = tmp_path / "ddos.csv"
        assert main(["generate", "--out", str(out), "--packets", "500",
                     "--flows", "50", "--duration", "10",
                     "--ddos-at", "5", "--ddos-sources", "300"]) == 0
        from repro.dataplane.csvtrace import load_csv
        from repro.dataplane.keys import src_ip_key
        trace = load_csv(out)
        assert trace.slice_time(5, 10).distinct(src_ip_key) > 250


class TestRun:
    def test_end_to_end_monitoring(self, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        main(["generate", "--out", str(out), "--packets", "2000",
              "--flows", "200", "--duration", "4", "--seed", "2"])
        code = main(["run", "--trace", str(out), "--epoch", "2",
                     "--tasks", "hh,ddos,change,entropy,cardinality",
                     "--memory-kb", "256"])
        assert code == 0
        output = capsys.readouterr().out
        assert "epoch 0" in output and "epoch 1" in output
        assert "entropy:" in output
        assert "ddos:" in output
        assert "cardinality:" in output

    def test_unknown_task_rejected(self, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        main(["generate", "--out", str(out), "--packets", "100",
              "--flows", "10"])
        assert main(["run", "--trace", str(out), "--tasks", "magic"]) == 2


class TestScenarioRun:
    def test_run_scenario_end_to_end(self, capsys):
        code = main(["run", "--scenario", "ddos_ramp", "--scale", "0.1",
                     "--tasks", "cardinality,entropy",
                     "--memory-kb", "64"])
        assert code == 0
        output = capsys.readouterr().out
        assert "scenario 'ddos_ramp'" in output
        assert "epoch 0" in output and "epoch 4" in output
        assert "cardinality:" in output

    def test_scenario_and_trace_are_exclusive(self, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        main(["generate", "--out", str(out), "--packets", "100",
              "--flows", "10"])
        capsys.readouterr()
        assert main(["run", "--trace", str(out),
                     "--scenario", "ddos_ramp"]) == 2
        assert main(["run"]) == 2

    def test_scenario_list(self, capsys):
        assert main(["run", "--scenario", "list"]) == 0
        output = capsys.readouterr().out
        for name in ("ddos_ramp", "port_scan", "websearch_mix"):
            assert name in output

    def test_unknown_scenario_rejected(self, capsys):
        assert main(["run", "--scenario", "slowloris"]) == 2

    def test_generate_scenario_csv(self, tmp_path, capsys):
        out = tmp_path / "scan.csv"
        assert main(["generate", "--out", str(out),
                     "--scenario", "port_scan", "--scale", "0.05",
                     "--seed", "3"]) == 0
        from repro.dataplane.csvtrace import load_csv
        trace = load_csv(out)
        assert len(trace) > 0

    def test_scenario_determinism_across_invocations(self, tmp_path):
        paths = []
        for tag in ("a", "b"):
            out = tmp_path / f"{tag}.csv"
            assert main(["generate", "--out", str(out), "--scenario",
                         "heavy_churn", "--scale", "0.05",
                         "--seed", "11"]) == 0
            paths.append(out)
        assert paths[0].read_bytes() == paths[1].read_bytes()


class TestExperimentCommand:
    def test_quick_fig7(self, capsys):
        assert main(["experiment", "fig7", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "Figure 7" in out and "univmon_err" in out

    def test_quick_overhead(self, capsys):
        assert main(["experiment", "overhead", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "ratio" in out


class TestPollCommand:
    def test_poll_against_live_agent(self, tmp_path, capsys):
        """End-to-end: agent thread + `univmon poll` over a real socket."""
        from repro.controlplane.rpc import SwitchAgent
        from repro.dataplane.keys import src_ip_key
        from repro.dataplane.switch import MonitoredSwitch
        from repro.dataplane.trace import SyntheticTraceConfig, generate_trace
        from repro.core.universal import UniversalSketch

        switch = MonitoredSwitch("s1")
        switch.attach(
            "univmon",
            lambda: UniversalSketch(levels=5, rows=3, width=256,
                                    heap_size=16, seed=3),
            src_ip_key)
        trace = generate_trace(SyntheticTraceConfig(
            packets=800, flows=100, duration=1.0, seed=5))
        switch.process_trace(trace)
        with SwitchAgent(switch) as agent:
            host, port = agent.address
            code = main(["poll", "--host", host, "--port", str(port),
                         "--alpha", "0.01"])
        assert code == 0
        out = capsys.readouterr().out
        assert "distinct sources" in out
        assert "entropy" in out


class TestCoordinateCommand:
    """`univmon coordinate` over live in-process agents."""

    @pytest.fixture()
    def agents(self):
        from repro.controlplane.rpc import SwitchAgent
        from repro.dataplane.keys import src_ip_key
        from repro.dataplane.switch import MonitoredSwitch
        from repro.dataplane.trace import SyntheticTraceConfig, generate_trace
        from repro.core.universal import UniversalSketch

        def factory():  # the CLI's geometry for --memory-kb 64
            return UniversalSketch.for_memory_budget(
                64 * 1024, levels=12, rows=5, heap_size=64, seed=1)

        running = []
        for index in range(3):
            switch = MonitoredSwitch(f"s{index}")
            switch.attach("univmon", factory, src_ip_key)
            trace = generate_trace(SyntheticTraceConfig(
                packets=300 + 100 * index, flows=60, duration=1.0,
                seed=index))
            switch.process_trace(trace)
            running.append((SwitchAgent(switch).start(), len(trace)))
        yield running
        for agent, _ in running:
            agent.stop()

    @staticmethod
    def _specs(running):
        specs = []
        for index, (agent, _) in enumerate(running):
            host, port = agent.address
            specs += ["--agent", f"s{index}={host}:{port}"]
        return specs

    @pytest.mark.parametrize("count, shape, topology", [
        (1, [], "1 leaves, fanout 2, tiers 1"),
        (3, [], "3 leaves, fanout 3, tiers 1"),
        (3, ["--fanout", "2"], "3 leaves, fanout 2, tiers 2 -> 1"),
    ], ids=["one-agent", "flat", "fanout2"])
    def test_two_epochs(self, agents, count, shape, topology, capsys):
        running = agents[:count]
        fed = sum(packets for _, packets in running)
        code = main(["coordinate", *self._specs(running), "--epochs", "2",
                     "--epoch", "0", "--memory-kb", "64", *shape])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == f"coordinating {count} agent(s) over {topology}"
        epochs = [line for line in lines if line.startswith("epoch ")]
        assert len(epochs) == 2
        # POLL is reset-on-read: the second epoch sees no new traffic.
        assert epochs[0].startswith(
            f"epoch 0: {count}/{count} switches, {fed} packets")
        assert epochs[1].startswith(
            f"epoch 1: {count}/{count} switches, 0 packets")

    @pytest.mark.parametrize("fanout", ["0", "1"])
    def test_fanout_below_two_rejected(self, agents, fanout, capsys):
        code = main(["coordinate", *self._specs(agents), "--epochs", "1",
                     "--epoch", "0", "--memory-kb", "64",
                     "--fanout", fanout])
        assert code == 2
        captured = capsys.readouterr()
        assert f"fanout must be >= 2, got {fanout}" in captured.err
        assert "epoch 0" not in captured.out


class TestQueryCommand:
    def _trace(self, tmp_path):
        out = tmp_path / "trace.csv"
        main(["generate", "--out", str(out), "--packets", "3000",
              "--flows", "300", "--duration", "2", "--seed", "9"])
        return out

    def test_local_trace_batch(self, tmp_path, capsys):
        trace = self._trace(tmp_path)
        code = main(["query", "--trace", str(trace),
                     "--stats", "hh:0.01,cardinality,l1,entropy,f2",
                     "--memory-kb", "128"])
        assert code == 0
        out = capsys.readouterr().out
        for name in ("heavy_hitters", "cardinality", "l1", "entropy",
                     "f2"):
            assert name in out
        assert "3000 packets" in out

    def test_json_output_parses(self, tmp_path, capsys):
        import json
        trace = self._trace(tmp_path)
        capsys.readouterr()  # flush the generate-step output
        assert main(["query", "--trace", str(trace),
                     "--stats", "cardinality,entropy:e,moment:1.5",
                     "--memory-kb", "128", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["packets"] == 3000
        results = payload["results"]
        assert set(results) == {"cardinality", "entropy", "moment_1.5"}
        assert results["cardinality"] > 0

    def test_query_against_live_agent(self, tmp_path, capsys):
        from repro.controlplane.rpc import SwitchAgent
        from repro.dataplane.keys import src_ip_key
        from repro.dataplane.switch import MonitoredSwitch
        from repro.dataplane.trace import (SyntheticTraceConfig,
                                           generate_trace)
        from repro.core.universal import UniversalSketch

        switch = MonitoredSwitch("s1")
        switch.attach(
            "univmon",
            lambda: UniversalSketch(levels=5, rows=3, width=256,
                                    heap_size=16, seed=3),
            src_ip_key)
        switch.process_trace(generate_trace(SyntheticTraceConfig(
            packets=800, flows=100, duration=1.0, seed=5)))
        with SwitchAgent(switch) as agent:
            host, port = agent.address
            code = main(["query", "--host", host, "--port", str(port),
                         "--stats", "hh,cardinality,entropy"])
        assert code == 0
        out = capsys.readouterr().out
        assert "cardinality" in out and "entropy" in out

    def test_needs_exactly_one_source(self, tmp_path, capsys):
        trace = self._trace(tmp_path)
        assert main(["query", "--stats", "l1"]) == 2
        assert main(["query", "--trace", str(trace), "--host",
                     "127.0.0.1", "--stats", "l1"]) == 2
        err = capsys.readouterr().err
        assert "exactly one sketch source" in err

    def test_bad_stats_rejected(self, tmp_path, capsys):
        trace = self._trace(tmp_path)
        assert main(["query", "--trace", str(trace),
                     "--stats", "bogus"]) == 2
        assert main(["query", "--trace", str(trace),
                     "--stats", "moment"]) == 2
        assert main(["query", "--trace", str(trace), "--stats", ","]) == 2
        assert "bad --stats" in capsys.readouterr().err


class TestPlotFlag:
    def test_experiment_plot_renders_chart(self, capsys):
        assert main(["experiment", "fig7", "--quick", "--plot"]) == 0
        out = capsys.readouterr().out
        assert "o=univmon_err" in out  # the chart legend
        assert "|" in out              # the chart frame


class TestMetricsCommand:
    def test_text_exposition_to_stdout(self, capsys):
        assert main(["metrics", "--packets", "3000", "--flows", "300",
                     "--duration", "4", "--epoch", "2",
                     "--memory-kb", "64", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE univmon_epochs_total counter" in out
        assert 'univmon_level_heap_occupancy{level="0"}' in out
        assert "univmon_epoch_ingest_seconds_bucket" in out
        from repro.obs import parse_text
        snapshot = parse_text(out)
        assert snapshot["counters"]["univmon_epochs_total"] == 2

    def test_json_export_to_file(self, tmp_path, capsys):
        import json
        out = tmp_path / "metrics.json"
        assert main(["metrics", "--packets", "2000", "--flows", "200",
                     "--duration", "2", "--epoch", "2", "--memory-kb", "64",
                     "--format", "json", "--out", str(out)]) == 0
        assert "wrote json metrics export" in capsys.readouterr().out
        snapshot = json.loads(out.read_text())
        assert snapshot["counters"]["univmon_epochs_total"] == 1
        assert "univmon_sketch_update_seconds" in snapshot["histograms"]

    def test_global_registry_restored_after_run(self):
        from repro.obs import NULL_REGISTRY, get_registry
        assert main(["metrics", "--packets", "500", "--flows", "50",
                     "--duration", "1", "--epoch", "1",
                     "--memory-kb", "32"]) == 0
        assert get_registry() is NULL_REGISTRY


class TestRunMetricsJson:
    def test_run_emits_acceptance_snapshot(self, tmp_path, capsys):
        """The snapshot the issue's acceptance criterion names: per-level
        occupancy, TopK eviction counts, epoch coverage, and ingest
        latency histograms, from one `univmon run`."""
        import json
        trace = tmp_path / "trace.csv"
        main(["generate", "--out", str(trace), "--packets", "2000",
              "--flows", "200", "--duration", "4", "--seed", "2"])
        snap_path = tmp_path / "metrics.json"
        assert main(["run", "--trace", str(trace), "--epoch", "2",
                     "--tasks", "hh,entropy", "--memory-kb", "64",
                     "--metrics-json", str(snap_path)]) == 0
        assert "wrote metrics snapshot" in capsys.readouterr().out
        snapshot = json.loads(snap_path.read_text())
        gauges, counters = snapshot["gauges"], snapshot["counters"]
        assert 'univmon_level_heap_occupancy{level="0"}' in gauges
        assert 'univmon_topk_evictions_total{level="0"}' in counters
        assert counters["univmon_epochs_total"] == 2
        assert counters["univmon_epoch_packets_total"] == 2000
        hist = snapshot["histograms"]["univmon_epoch_ingest_seconds"]
        assert hist["count"] == 2
        queries = snapshot["histograms"][
            'univmon_sketch_query_seconds{op="heavy_hitters"}']
        assert queries["count"] == 2  # one HH estimate per epoch


class TestServeCommand:
    def _trace(self, tmp_path):
        out = tmp_path / "trace.csv"
        main(["generate", "--out", str(out), "--packets", "3000",
              "--flows", "300", "--duration", "4", "--seed", "5"])
        return out

    def test_requires_exactly_one_input(self, capsys):
        assert main(["serve"]) == 2
        assert "exactly one input" in capsys.readouterr().err
        assert main(["serve", "--trace", "x.csv",
                     "--scenario", "ddos_ramp"]) == 2

    def test_scenario_help_lists_and_exits(self, capsys):
        assert main(["serve", "--scenario", "help"]) == 0
        assert "ddos_ramp" in capsys.readouterr().out

    def test_bad_rules_path_rejected(self, tmp_path, capsys):
        trace = self._trace(tmp_path)
        assert main(["serve", "--trace", str(trace),
                     "--rules", str(tmp_path / "missing.toml")]) == 2
        assert "bad rules" in capsys.readouterr().err

    def test_bad_epoch_rejected(self, tmp_path, capsys):
        trace = self._trace(tmp_path)
        assert main(["serve", "--trace", str(trace),
                     "--epoch", "0"]) == 2

    @pytest.mark.parametrize("flag, message", [
        ("--chunk-size", "chunk_size must be >= 1, got 0"),
        ("--memo", "memo maxsize must be >= 1, got 0"),
    ])
    def test_bad_service_part_rejected(self, tmp_path, capsys, flag,
                                       message):
        trace = self._trace(tmp_path)
        capsys.readouterr()
        assert main(["serve", "--trace", str(trace), flag, "0"]) == 2
        assert message in capsys.readouterr().err

    def test_bounded_run_seals_and_exits(self, tmp_path, capsys):
        trace = self._trace(tmp_path)
        code = main(["serve", "--trace", str(trace), "--port", "0",
                     "--epoch", "0.1", "--epochs", "2",
                     "--memory-kb", "64"])
        assert code == 0
        output = capsys.readouterr().out
        assert "univmon service on http://127.0.0.1:" in output
        assert "service stopped: 2 epochs" in output

    def test_bounded_run_with_detection(self, tmp_path, capsys):
        trace = self._trace(tmp_path)
        code = main(["serve", "--trace", str(trace), "--port", "0",
                     "--epoch", "0.1", "--epochs", "2",
                     "--memory-kb", "64", "--detect"])
        assert code == 0
        assert "service stopped: 2 epochs" in capsys.readouterr().out

    def test_global_registry_restored(self, tmp_path):
        from repro.obs import NULL_REGISTRY, get_registry
        trace = self._trace(tmp_path)
        assert main(["serve", "--trace", str(trace), "--port", "0",
                     "--epoch", "0.1", "--epochs", "1",
                     "--memory-kb", "64"]) == 0
        assert get_registry() is NULL_REGISTRY


class TestMemoryBudget:
    """An impossible ``--memory-kb`` exits 2 with the geometry's message,
    before any sketch is built or any socket bound."""

    @pytest.mark.parametrize("command", ["run", "detect", "query", "agent"])
    def test_too_small_budget_exits_2(self, tmp_path, capsys, command):
        trace = tmp_path / "trace.csv"
        main(["generate", "--out", str(trace), "--packets", "200",
              "--flows", "20", "--duration", "1", "--seed", "1"])
        capsys.readouterr()
        args = [command, "--trace", str(trace), "--memory-kb", "0"]
        if command == "agent":
            args += ["--port", "0"]
        assert main(args) == 2
        captured = capsys.readouterr()
        assert "memory budget 0B too small for 13 levels x 5 rows" \
            in captured.err
        assert "switch agent on" not in captured.out
