"""Tests for the ``k2`` command-line interface (repro.cli)."""

import dataclasses

import pytest

from repro.api import K2Config
from repro.cli import build_parser, main


class TestCorpusCommand:
    def test_lists_all_benchmarks(self, capsys):
        assert main(["corpus"]) == 0
        out = capsys.readouterr().out
        assert "xdp_pktcntr" in out
        assert "xdp-balancer" in out
        assert "xdp_stats_ladder" in out
        # All 22 corpus programs are listed (19 paper + 3 long).
        assert len([line for line in out.splitlines() if line.strip()]) == 22


class TestCheckCommand:
    def test_check_benchmark_accepted(self, capsys):
        assert main(["check", "--benchmark", "xdp_exception"]) == 0
        out = capsys.readouterr().out
        assert "safe" in out
        assert "accepted" in out

    def test_check_assembly_file(self, tmp_path, capsys):
        source = tmp_path / "prog.s"
        source.write_text("mov64 r0, 2\nexit\n")
        assert main(["check", str(source), "--hook", "xdp"]) == 0
        assert "accepted" in capsys.readouterr().out

    def test_check_unsafe_program_fails(self, tmp_path, capsys):
        source = tmp_path / "bad.s"
        # Reads r2 before it is written: the safety checker must object.
        source.write_text("mov64 r0, r2\nexit\n")
        assert main(["check", str(source), "--hook", "xdp"]) == 1
        assert "UNSAFE" in capsys.readouterr().out


class TestOptimizeCommand:
    def test_optimize_small_benchmark(self, capsys):
        code = main(["optimize", "--benchmark", "xdp_exception",
                     "--iterations", "200", "--settings", "1", "--seed", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "exit" in out

    def test_optimize_assembly_file(self, tmp_path, capsys):
        source = tmp_path / "prog.s"
        source.write_text(
            "mov64 r6, 0\n"
            "stxw [r10-4], r6\n"
            "stxw [r10-8], r6\n"
            "mov64 r0, 2\n"
            "exit\n")
        code = main(["optimize", str(source), "--iterations", "300",
                     "--settings", "1", "--seed", "1"])
        assert code == 0
        assert "exit" in capsys.readouterr().out


class TestArgumentValidation:
    def test_missing_program_and_benchmark_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["optimize"])
        assert "provide a program file" in capsys.readouterr().err

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestConfigFlags:
    #: Flags of ``k2 optimize`` / ``k2 submit`` that pick the program or
    #: drive the client, not the search.
    NOT_SEARCH_FLAGS = {"program", "benchmark", "hook", "state", "wait",
                        "follow", "timeout"}

    def test_config_fields_are_the_search_flags(self):
        """Every K2Config field is a flag and every search flag a field."""
        parser = build_parser()
        dests = set()
        for command in ("optimize", "submit"):
            namespace = parser.parse_args([command, "--benchmark", "x"])
            dests |= set(vars(namespace)) - {"command", "func"}
        fields = {field.name for field in dataclasses.fields(K2Config)}
        assert fields - dests == set(), "config fields without a flag"
        assert dests - self.NOT_SEARCH_FLAGS - fields == set(), \
            "search flags without a config field"
