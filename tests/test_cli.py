"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_defaults(self):
        args = build_parser().parse_args(["availability"])
        assert args.p == 0.05
        assert args.max_m == 8

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_serve_requires_data_dir_and_server_id(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--server-id", "s1"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--data-dir", "/tmp/x"])

    def test_loadgen_defaults(self):
        args = build_parser().parse_args(
            ["loadgen", "--server", "s1=127.0.0.1:7311"])
        assert args.copies == 2
        assert args.delta == 8
        assert args.server == ["s1=127.0.0.1:7311"]

    def test_loadgen_rejects_malformed_server(self):
        from repro.cli import _parse_server_arg
        import argparse
        with pytest.raises(argparse.ArgumentTypeError):
            _parse_server_arg("no-equals-sign")


class TestCommands:
    def test_availability(self, capsys):
        assert main(["availability", "--max-m", "4"]) == 0
        out = capsys.readouterr().out
        assert "Figure 3-4" in out
        assert "WriteLog" in out

    def test_availability_custom_p(self, capsys):
        assert main(["availability", "--p", "0.1", "--max-m", "3"]) == 0
        out = capsys.readouterr().out
        assert "p = 0.1" in out
        assert "0.810000" in out  # (1-0.1)^2 for M=N=2

    def test_capacity(self, capsys):
        assert main(["capacity"]) == 0
        out = capsys.readouterr().out
        assert "2,333" in out
        assert "~2400" in out

    def test_capacity_custom_cluster(self, capsys):
        assert main(["capacity", "--servers", "12"]) == 0
        out = capsys.readouterr().out
        assert "12 servers" in out

    def test_figures(self, capsys):
        assert main(["figures"]) == 0
        out = capsys.readouterr().out
        assert "Server 3" in out
        assert "[1, 2, 3, 5, 6, 7, 8, 9]" in out

    def test_target_load_small(self, capsys):
        assert main(["target-load", "--clients", "4", "--servers", "2",
                     "--duration", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "achieved TPS" in out

    def test_prototype_small(self, capsys):
        assert main(["prototype", "--transactions", "30"]) == 0
        out = capsys.readouterr().out
        assert "less than twice" in out


class TestExtendedCommands:
    def test_degraded(self, capsys):
        from repro.cli import main
        assert main(["degraded", "--duration", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "survivor CPU" in out

    def test_sweep(self, capsys):
        from repro.cli import main
        assert main(["sweep", "--duration", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "Saturation sweep" in out

    def test_restart_latency(self, capsys):
        from repro.cli import main
        assert main(["restart-latency"]) == 0
        out = capsys.readouterr().out
        assert "Client initialization latency" in out


class TestCrashsweepPhases:
    """``repro crashsweep`` flags → the one ``SweepConfig.phases`` value."""

    @staticmethod
    def _five_booleans(args) -> tuple[str, ...]:
        """The phase set the five pre-``phases`` SweepConfig booleans
        (daemon, client, client_only, net, net_only) used to encode."""
        net_only = bool(args.net or args.fuzz or args.plan)
        run_net = args.net or (not net_only and not args.no_net
                               and not args.client)
        phases = []
        if not args.client and not net_only:
            phases.append("storage")
            if not args.no_daemon:
                phases.append("daemon")
        if (not args.no_client or args.client) and not net_only:
            phases.append("client")
        if run_net:
            phases.append("net")
        return tuple(phases)

    def test_every_flag_combination_keeps_its_phase_set(self):
        import itertools

        from repro.cli import _sweep_phases

        flags = ("--no-daemon", "--client", "--no-client", "--net",
                 "--no-net", "--fuzz=3", "--plan=log.fsync:0:eio")
        for n in range(len(flags) + 1):
            for chosen in itertools.combinations(flags, n):
                args = build_parser().parse_args(["crashsweep", *chosen])
                assert _sweep_phases(args) == self._five_booleans(args), \
                    chosen

    def test_defaults(self):
        from repro.cli import _sweep_phases
        from repro.harness.crashsweep import PHASES, SweepConfig

        args = build_parser().parse_args(["crashsweep"])
        assert _sweep_phases(args) == PHASES == SweepConfig().phases


def test_serve_loads_the_runtime_and_nothing_of_the_harness(tmp_path):
    """A daemon's start is inside every runtime benchmark's ``setup_s``
    three times over: ``repro serve`` must not import the experiment
    harness or the analysis models on its way to the banner."""
    import os
    import subprocess
    import sys

    import repro

    src = os.path.dirname(os.path.dirname(repro.__file__))
    imports = tmp_path / "imports.txt"
    with open(imports, "w") as err:
        with subprocess.Popen(
                [sys.executable, "-X", "importtime", "-m", "repro", "serve",
                 "--data-dir", str(tmp_path / "s1"), "--server-id", "s1"],
                stdout=subprocess.PIPE, stderr=err, text=True,
                env={**os.environ, "PYTHONPATH": src}) as daemon:
            try:
                banner = daemon.stdout.readline()
            finally:
                daemon.terminate()
                daemon.wait(timeout=10)
    assert banner.startswith("REPRO-SERVE s1 ")
    loaded = {line.rsplit("|", 1)[1].strip()
              for line in imports.read_text().splitlines() if "|" in line}
    assert "repro.rt.server" in loaded
    assert not [name for name in loaded
                if name.startswith(("repro.harness", "repro.analysis"))]
