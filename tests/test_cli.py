"""Tests for the command-line interface."""

import pytest

from repro.cli import main


class TestCli:
    def test_run_subcommand(self, capsys):
        assert main(["run", "-n", "256", "--nb", "2"]) == 0
        out = capsys.readouterr().out
        assert "N=  256" in out and "verified=yes" in out

    def test_run_with_frequency(self, capsys):
        assert main(["run", "-n", "256", "--freq", "600"]) == 0
        assert "verified=yes" in capsys.readouterr().out

    def test_trace_subcommand(self, capsys):
        assert main(["trace", "-n", "256", "--head", "10"]) == 0
        out = capsys.readouterr().out
        assert "commands:" in out
        assert "bank0" in out
        assert "more)" in out

    def test_table2_subcommand(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "Newton" in out
        assert "FAIL" not in out

    def test_fig6_subcommand(self, capsys):
        assert main(["fig6"]) == 0
        assert "inter-row" in capsys.readouterr().out

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit):
            main(["bogus"])


class TestCliUsageErrors:
    """A flag value the library rejects ends as one line on stderr and
    exit 2, like argparse's own errors, never as a traceback."""

    @pytest.mark.parametrize("argv, message", [
        (["run", "-n", "100"], "power of two"),
        (["compile", "-n", "100"], "power of two"),
        (["trace", "-n", "100"], "power of two"),
        (["run", "negacyclic", "--nb", "1"],
         "merged negacyclic mapping, needs an auxiliary buffer (Nb >= 2)"),
        (["run", "--nb", "0"], "primary buffer"),
        (["run", "--freq", "0"], "frequency must be positive"),
        (["run", "batch", "--count", "0"], "at least one polynomial"),
        (["trace", "-n", "256", "--head", "-1"], "--head must be >= 0"),
        # A cadence that never advances would spin forever, not exit.
        (["serve", "--cluster", "1", "--watch", "--watch-every-us", "0",
          "--requests", "5"], "watch cadence must be > 0"),
        (["serve", "--cluster", "1", "--watch", "--watch-every-us", "nan",
          "--requests", "5"], "watch cadence must be > 0"),
    ])
    def test_bad_flag_value_is_a_usage_error(self, capsys, argv, message):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and message in captured.err
        assert "Traceback" not in captured.err


class TestCliFacade:
    """The generic ``run <workload>`` subcommand and its facade flags."""

    def test_run_explicit_ntt_workload(self, capsys):
        assert main(["run", "ntt", "-n", "256"]) == 0
        out = capsys.readouterr().out
        assert "[ntt]" in out and "verified=yes" in out

    def test_run_with_cache_info(self, capsys):
        assert main(["run", "ntt", "-n", "256", "--cache-info"]) == 0
        out = capsys.readouterr().out
        assert "program cache" in out
        assert "schedule cache" in out
        assert "stream cache" in out

    def test_run_batch_workload(self, capsys):
        assert main(["run", "batch", "-n", "256", "--count", "2"]) == 0
        out = capsys.readouterr().out
        assert "[batch]" in out and "amortization" in out

    def test_run_multibank_workload(self, capsys):
        assert main(["run", "multibank", "-n", "256", "--count", "2"]) == 0
        out = capsys.readouterr().out
        assert "[multibank]" in out and "speedup" in out

    def test_run_negacyclic_workload(self, capsys):
        assert main(["run", "negacyclic", "-n", "256"]) == 0
        assert "[negacyclic]" in capsys.readouterr().out

    def test_run_fhe_workload(self, capsys):
        assert main(["run", "fhe", "-n", "256", "--native"]) == 0
        out = capsys.readouterr().out
        assert "[fhe]" in out and "transforms" in out

    def test_run_unknown_workload_errors(self, capsys):
        assert main(["run", "not-a-workload", "-n", "256"]) == 2
        err = capsys.readouterr().err
        assert "unknown workload" in err and "ntt" in err


class TestCliCompile:
    """The ``compile`` subcommand: IR dump and plan, no execution."""

    def test_compile_default_workload(self, capsys):
        assert main(["compile", "-n", "256"]) == 0
        out = capsys.readouterr().out
        assert "StreamIR" in out and "plan:" in out

    def test_compile_dump_ir(self, capsys):
        assert main(["compile", "ntt", "-n", "256"]) == 0
        out = capsys.readouterr().out
        assert "CU_READ" in out and "deps (flat)" in out

    def test_compile_multibank(self, capsys):
        assert main(["compile", "multibank", "-n", "256",
                     "--count", "3"]) == 0
        out = capsys.readouterr().out
        assert "3 bank(s)" in out and "merge" in out
        # A merged multi-bank stream is legal; plans are per bank.
        assert "fallback: stream spans 3 banks; plans are per bank" in out
        assert "is open" not in out

    def test_compile_unknown_workload_errors(self, capsys):
        assert main(["compile", "fhe", "-n", "256"]) == 2
        assert "unknown compile workload" in capsys.readouterr().err


class TestCliServe:
    def test_serve_single_server(self, capsys):
        assert main(["serve", "--requests", "15", "--rate", "30000",
                     "--scenario", "mixed"]) == 0
        out = capsys.readouterr().out
        assert "requests       : 15" in out
        assert "latency" in out

    def test_serve_cluster(self, capsys):
        assert main(["serve", "--cluster", "2", "--requests", "15",
                     "--rate", "30000",
                     "--scenario", "mixed", "--shards", "2",
                     "--router", "least-loaded"]) == 0
        out = capsys.readouterr().out
        assert "cluster        : 2 replicas, router=least-loaded" in out
        assert "requests       : 15" in out

    def test_serve_plain_cluster_reports_self_healing(self, capsys):
        assert main(["serve", "--cluster", "1", "--requests", "10",
                     "--rate", "30000"]) == 0
        out = capsys.readouterr().out
        assert ("self-healing   : replica-faults=none | failovers=0 "
                "restarts=0 orphans=0 dups=0 scale=+0/-0 mttr=0us") in out

    def test_serve_cluster_watch_plain(self, capsys):
        assert main(["serve", "--cluster", "2", "--requests", "12",
                     "--rate", "30000", "--watch",
                     "--watch-every-us", "300",
                     "--watch-frames", "2"]) == 0
        out = capsys.readouterr().out
        assert "[watch]" in out
        assert "replica state queue" in out.replace("  ", " ") or \
            "replica" in out  # frame header rendered
        assert "r0" in out and "r1" in out

    def test_serve_cluster_noisy_tenants_quota(self, capsys):
        assert main(["serve", "--cluster", "2", "--requests", "30",
                     "--rate", "50000",
                     "--tenants", "noisy", "--quota-rps", "8000",
                     "--quota-burst", "4"]) == 0
        out = capsys.readouterr().out
        assert "tenants        : " in out and "hog=" in out
        assert "thr" in out

    def test_serve_cluster_rejects_bad_config(self, capsys):
        assert main(["serve", "--cluster", "2", "--requests", "5",
                     "--quota-rps", "-1"]) == 2
        assert "quota" in capsys.readouterr().err
