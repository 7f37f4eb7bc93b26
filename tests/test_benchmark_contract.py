"""The benchmark's contract with erfe: the command lines that
``benchmarks/run.py`` builds parse, and the names it reaches into exist.

A change that drops a flag the benchmark passes, or renames a function it
calls, would otherwise pass this suite and fail every benchmark run.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import erfe.cli
import erfe.estimator
import erfe.linalg
import erfe.montecarlo
import erfe.panel

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


@pytest.fixture
def bench_run(monkeypatch):
    """``benchmarks/run.py`` as a module, imported without writing bytecode,
    with the benchmark's own modules it imports removed again afterwards."""
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    before = set(sys.modules)
    spec = importlib.util.spec_from_file_location("bench_run", BENCHMARKS / "run.py")
    module = sys.modules["bench_run"] = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        for name in set(sys.modules) - before:
            if Path(getattr(sys.modules[name], "__file__", None) or "").parent == BENCHMARKS:
                del sys.modules[name]


def test_every_benchmark_command_line_parses(bench_run, tmp_path):
    parser = erfe.cli._build_parser()
    commands = [c for w in bench_run.WORKLOADS.values() for c in w.commands]
    assert {c.subcommand for c in commands} == {"fit", "transform", "simulate"}
    for command in commands:
        argv = bench_run.cli_args(command, tmp_path / "in.csv", tmp_path / "out.csv", 7)
        args = parser.parse_args(argv)
        assert args.command == command.subcommand


def test_names_the_benchmark_calls_exist():
    assert callable(erfe.cli.main)
    assert callable(erfe.panel._assemble_panel)
    assert callable(erfe.estimator.fit_erfe_single)
    # spans.py times the engine's solves through this name in the estimator.
    assert erfe.estimator.spd_solve is erfe.linalg.spd_solve
    assert callable(erfe.montecarlo._error_expectile.cache_clear)
