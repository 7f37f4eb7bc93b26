"""erfe benchmark: seeded inputs, the CLI in fresh processes, checked outputs.

Run from the repository root:

    python3 benchmarks/run.py --workload panel-wide --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the workload's ``erfe`` commands run in fresh processes,
one at a time, in rounds that fill up to ``--seconds`` seconds, and the
end-to-end metrics are reported, scaled to a nominal host speed by a fixed
reference work timed between the commands (see reference.py).  With
``--trace 1`` each command runs in this process, once plain and once with
layer spans (see spans.py), and the per-layer metrics are reported.  Every output is checked (see
checks.py).  The lines printed first are for people; the last line of
standard output is one JSON object.  Exit code 0 when every command and
check succeeded, 1 when one failed, 2 when the source tree is missing or
the arguments are bad.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import inputs
import machine
import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# Fresh-interpreter imports per run; setup_s is their median.
SETUP_IMPORTS = 3
# Fixed work, independent of erfe, timed in a fresh process between the
# timed commands.  Its median wall time measures how fast the shared host
# ran, and the timing metrics are scaled by REFERENCE_NOMINAL_S over it:
# they read as seconds on a host where the reference takes that long.
REFERENCE = Path(__file__).resolve().with_name("reference.py")
# About the reference's median on the machine described in README.md.
REFERENCE_NOMINAL_S = 1.0
# Every run ends well inside three minutes, however slow a command gets.
RUN_LIMIT_S = 170.0
# Scaling probe: fit_erfe_single at tau = 0.9 on the first PROBE_SUBJECTS
# subjects of panel-wide, against the full panel (100x the rows).
PROBE_TAU = 0.9
PROBE_SUBJECTS = 2_000
PROBE_SMALL_REPEATS = 21
PROBE_BIG_REPEATS = 3
# Rows of the workload's own input used to warm up the traced run.
WARM_ROWS = 10_000

WIDE = inputs.PanelShape(subjects=200_000, occasions=5, order="grouped", labels="int")
LONG = inputs.PanelShape(subjects=1_000, occasions=250, order="interleaved", labels="s7")
# The command runs as the ``erfe`` console script does, then writes its own
# peak resident set size (VmHWM, kB) to the file named by its first
# argument.  The parent's rusage would not do: a child started by vfork
# inherits the parent's high-water mark when it execs.
ERFE_WITH_PEAK = """\
import sys
peak_path = sys.argv.pop(1)
try:
    from erfe.cli import main
    code = main(sys.argv[1:])
finally:
    with open("/proc/self/status") as status, open(peak_path, "w") as out:
        out.write(next(l for l in status if l.startswith("VmHWM:")).split()[1])
sys.exit(code)
"""
MC_CELL = {"n": 100, "m": 5, "gamma": 0.3, "error-dist": "chi2_3", "replications": 1000}


@dataclass(frozen=True)
class Command:
    metric: str  # name of the command's wall time in reports
    subcommand: str
    taus: tuple[float, ...]
    joint: bool = False


@dataclass(frozen=True)
class Workload:
    """One set of inputs and the erfe commands a round runs on them, in order."""

    name: str
    shape: inputs.PanelShape | None
    commands: tuple[Command, ...]


WORKLOADS = {w.name: w for w in (
    Workload("panel-wide", WIDE, (Command("fit_s", "fit", (0.1, 0.5, 0.9)),
                                  Command("fit_joint_s", "fit", (0.1, 0.5, 0.9), joint=True))),
    Workload("panel-long", LONG, (Command("transform_s", "transform", (0.5, 0.9)),)),
    Workload("mc-cell", None, (Command("simulate_s", "simulate", (0.1, 0.5, 0.9)),)),
)}

# Per-layer metrics of the traced run, with their units.
PER_LAYER = {
    "panel.read_panel_csv.s": "s",
    "panel.read_panel_csv.mb_per_s": "MB/s",
    "panel.assemble.s": "s",
    "within.subject_weights.s": "s",
    "within.subject_weights.calls": "count",
    "within.apply_within.s": "s",
    "within.apply_within.calls": "count",
    "within.pooled_subject_weights.s": "s",
    "within.apply_pooled_within.s": "s",
    "estimator.fit_erfe_single.s": "s",
    "estimator.fit_erfe_single.self_s": "s",
    "estimator.fit_erfe_single.iterations": "count",
    "estimator.fit_erfe_single.s_per_round": "s",
    "estimator.fit_erfe_single.linearity": "ratio",
    "estimator.fit_erfe_multi.s": "s",
    "estimator.fit_erfe_multi.self_s": "s",
    "estimator.fit_erfe_multi.iterations": "count",
    "estimator.pooled_transform.s": "s",
    "estimator.recover_fixed_effects.s": "s",
    "expectiles.expectile_regression.s": "s",
    "expectiles.expectile_regression.calls": "count",
    "expectiles.expectile_regression.iterations": "count",
    "expectiles.distribution_expectile.s": "s",
    "expectiles.distribution_expectile.calls": "count",
    "linalg.spd_solve.s": "s",
    "linalg.spd_solve.calls": "count",
    "covariance.sandwich_single.s": "s",
    "covariance.sandwich_single.self_s": "s",
    "covariance.sandwich_multi.s": "s",
    "covariance.sandwich_multi.self_s": "s",
    "montecarlo.generate_dgp.s": "s",
    "montecarlo.run_monte_carlo.self_s": "s",
    "cli.self_s": "s",
    "cli.output_mb": "MB",
    "trace.overhead_s": "s",
}


class Ledger:
    """Operations attempted and failed, with one line per failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.lines: list[str] = []

    def record(self, name, ok, detail=""):
        self.attempted += 1
        self.failed += 0 if ok else 1
        self.lines.append(f"{'ok  ' if ok else 'FAIL'} {name}: {detail}")

    def count(self, name, attempted, failed):
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.lines.append(f"FAIL {name}: {failed} of {attempted} failed")


def cli_args(command: Command, input_csv, out, seed) -> list[str]:
    taus = ",".join(f"{t:g}" for t in command.taus)
    if command.subcommand == "simulate":
        args = ["simulate"]
        for key, value in MC_CELL.items():
            args += [f"--{key}", str(value)]
        return args + ["--tau", taus, "--seed", str(seed), "--workers", "1", "--out", str(out)]
    args = [command.subcommand, "--input", str(input_csv), "--subject-col", "id",
            "--response-col", "y", "--tau", taus, "--workers", "1", "--out", str(out)]
    return args + (["--joint"] if command.joint else [])


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(argv, limit_s, log) -> tuple[float, int]:
    """Run one process to completion: (wall seconds, exit code).

    A watchdog kills the process after ``limit_s`` seconds.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(argv, env=child_env(), cwd=ROOT,
                            stdout=subprocess.DEVNULL, stderr=log)
    watchdog = threading.Timer(max(limit_s, 1.0), proc.kill)
    watchdog.start()
    try:
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.returncode is None:
            proc.kill()
            proc.wait()
    return time.perf_counter() - start, proc.returncode


def digest(path) -> str | None:
    try:
        return hashlib.sha256(Path(path).read_bytes()).hexdigest()
    except OSError:
        return None


def check_output(command: Command, out, panel, ledger: Ledger):
    """Check one command output; counts fits and Monte Carlo replications too."""
    name = command.metric.removesuffix("_s")
    try:
        if command.subcommand == "transform":
            results = checks.check_transform(out, panel, command.taus)
        elif command.subcommand == "fit":
            rows = checks.read_rows(out)
            not_converged = sum(r["converged"] != "true" for r in rows)
            ledger.count(f"{name}.converged_rows", len(rows), not_converged)
            results = checks.check_fit(rows, panel, command.taus, command.joint)
        else:
            rows = checks.read_rows(out)
            fits = MC_CELL["replications"] * len(command.taus)
            failures = sum(int(r["failures"]) for r in rows if r["coefficient"] == "x1")
            ledger.count(f"{name}.replication_fits", fits, failures)
            results = checks.check_simulate(rows, command.taus, MC_CELL["replications"],
                                            MC_CELL["m"])
            for r in rows:
                if r["coefficient"] == "x2" and float(r["tau"]) != 0.5:
                    ledger.lines.append(
                        f"info {name}.bias_x2_tau{float(r['tau']):g}: {float(r['bias']):+.4f} "
                        "(O(1/m) incidental-parameter bias, reported, not gated)")
    except (OSError, ValueError, KeyError, IndexError) as exc:
        results = [("output_readable", False, repr(exc))]
    for check, ok, detail in results:
        ledger.record(f"{name}.{check}", ok, detail)


def prepare(workload: Workload, seed, work):
    """Generate and write the workload's input; returns (panel, csv path, bytes)."""
    if workload.shape is None:
        return None, None, 0
    panel = inputs.generate(workload.shape, seed)
    path = work / "input.csv"
    size = inputs.write_csv(path, panel)
    return panel, path, size


def run_plain(workload, seed, seconds, work, panel, input_csv, ledger, started):
    """End-to-end run: imports for setup_s, then rounds of the commands in fresh processes.

    Rounds repeat while another one, as long as the last, still ends
    within ``seconds`` (there is at least one).  The first round's outputs
    are checked after the last round, so checking takes no measured time
    and the number of rounds depends only on how long the commands take.

    The reference work runs before the first import and after every
    import and command.  setup_s, the median import, is divided by the
    host factor of the imports: the median time of the reference runs
    before and between them, over REFERENCE_NOMINAL_S.  command_s, the
    median round of commands, is divided by that of the commands, from the
    reference runs just before and between them.

    This process and every process it starts are pinned to one CPU, so a
    command never migrates between CPUs that run at different speeds.
    """
    python = sys.executable
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    references = []

    def reference(log):
        t, code = run_child([python, str(REFERENCE)], 60.0, log)
        ledger.record("reference.exit", code == 0, f"exit {code}")
        references.append(t)

    def timed(argv, limit_s, log):
        """(wall, exit code) of one process; the reference work runs after it."""
        t, code = run_child(argv, limit_s, log)
        reference(log)
        return t, code

    with open(work / "stderr.log", "ab") as log:
        reference(log)
        setup = []
        for _ in range(SETUP_IMPORTS):
            t, code = timed([python, "-c", "import erfe"], 60.0, log)
            ledger.record("setup.import", code == 0, f"exit {code}")
            setup.append(t)
        first_command_ref = len(references) - 1

        peak_file = work / "peak_kb"
        walls = {command.metric: [] for command in workload.commands}
        rounds, peaks, first = [], [], {}
        measure_start = time.perf_counter()
        last = 0.0  # wall time of the last round, references included
        while not rounds or (time.perf_counter() - measure_start + last <= seconds
                             and time.perf_counter() - started + last < RUN_LIMIT_S):
            round_start = time.perf_counter()
            rounds.append(0.0)
            for command in workload.commands:
                out = work / f"{command.metric}.out"
                out.unlink(missing_ok=True)
                peak_file.unlink(missing_ok=True)
                argv = [python, "-c", ERFE_WITH_PEAK, str(peak_file),
                        *cli_args(command, input_csv, out, seed)]
                t, code = timed(argv, RUN_LIMIT_S - (time.perf_counter() - started), log)
                walls[command.metric].append(t)
                rounds[-1] += t
                name = command.metric.removesuffix("_s")
                ledger.record(f"{name}.exit", code == 0, f"exit {code}")
                try:
                    peaks.append(int(peak_file.read_text()) / 1024.0)
                except (OSError, ValueError):
                    ledger.record(f"{name}.peak_rss", False, "no VmHWM written")
                if command.metric not in first:
                    first[command.metric] = digest(out)
                    if out.exists():
                        out.rename(work / f"{command.metric}.first")
                else:
                    ledger.record(f"{name}.same_bytes", digest(out) == first[command.metric],
                                  "output identical to the first round")
            last = time.perf_counter() - round_start
        for command in workload.commands:
            check_output(command, work / f"{command.metric}.first", panel, ledger)

    failed_share = ledger.failed / ledger.attempted
    setup_host = statistics.median(references[:first_command_ref + 1]) / REFERENCE_NOMINAL_S
    command_host = statistics.median(references[first_command_ref:]) / REFERENCE_NOMINAL_S
    metrics = {
        "setup_s": (statistics.median(setup) / setup_host, "s"),
        "command_s": (statistics.median(rounds) / command_host, "s"),
        "peak_rss_mb": (max(peaks, default=float("nan")), "MB"),
        "ok_share": (1.0 - failed_share, "share"),
    }
    report = [f"pinned to CPU {min(os.sched_getaffinity(0))}",
              f"host factors {setup_host:.4f} (imports) and {command_host:.4f} (commands): "
              "reference runs took " + ", ".join(f"{t:.3f}" for t in references)
              + " s; times below are wall seconds, the metrics divide them by the host factors",
              "setup imports: " + ", ".join(f"{t:.3f}" for t in setup)]
    for metric, values in walls.items():
        report.append(f"{metric} = {statistics.median(values):.4f} s (median of "
                      + ", ".join(f"{v:.3f}" for v in values) + ")")
    report += [f"command_s = {statistics.median(rounds):.4f} s wall (median round of "
               + " + ".join(walls) + f", {len(rounds)} rounds)",
               f"failed_share = {failed_share:.6g} share ({ledger.failed}/{ledger.attempted} operations)"]
    return metrics, report


def _import_erfe():
    sys.path.insert(0, str(SRC))
    import erfe.cli
    import erfe.montecarlo
    import erfe.panel

    where = Path(erfe.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise RuntimeError(f"imported erfe from {where}, not from {SRC}")
    return erfe


def _in_process(erfe, argv, tracer=None) -> tuple[float, int]:
    """Wall time and exit code of erfe.cli.main(argv) in this process."""
    # The Monte Carlo truth is memoized per process; a fresh CLI computes it.
    erfe.montecarlo._error_expectile.cache_clear()
    gc.collect()
    with contextlib.redirect_stdout(io.StringIO()), \
            (tracer.installed() if tracer else contextlib.nullcontext()):
        start = time.perf_counter()
        if tracer is None:
            code = erfe.cli.main(argv)
        else:
            with tracer.span(spans.ROOT):
                code = erfe.cli.main(argv)
        return time.perf_counter() - start, code


def scaling_probe(erfe, seed) -> tuple[float, float, float]:
    """t(1M rows) / (100 * t(10k rows)) for fit_erfe_single on panel-wide."""
    full = inputs.generate(WIDE, seed)
    big = erfe.panel._assemble_panel(full.codes, full.y, full.X, inputs.REGRESSORS)
    rows = PROBE_SUBJECTS * WIDE.occasions
    small = erfe.panel._assemble_panel(full.codes[:rows], full.y[:rows], full.X[:rows],
                                       inputs.REGRESSORS)
    del full

    def median_fit_s(panel, repeats):
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            erfe.estimator.fit_erfe_single(panel, PROBE_TAU)
            times.append(time.perf_counter() - start)
        return statistics.median(times)

    small_s = median_fit_s(small, PROBE_SMALL_REPEATS)
    big_s = median_fit_s(big, PROBE_BIG_REPEATS)
    return big_s / (big.n_obs / small.n_obs * small_s), big_s, small_s


def warm_up(erfe, command, seed, work, panel):
    """Run the command once on a small input, so neither timed run pays first calls."""
    out = work / "warm.out"
    if panel is None:
        args = cli_args(command, None, out, seed)
        args[args.index("--replications") + 1] = "10"
    else:
        small = inputs.Panel(panel.labels, panel.codes[:WARM_ROWS], panel.y[:WARM_ROWS],
                             panel.X[:WARM_ROWS])
        inputs.write_csv(work / "warm.csv", small)
        args = cli_args(command, work / "warm.csv", out, seed)
    _in_process(erfe, args)


def run_traced(workload, seed, work, panel, input_bytes, ledger):
    """Per-layer run: each command plain and traced in-process, then the scaling probe."""
    erfe = _import_erfe()
    tracer = spans.Tracer()
    plain_s = traced_s = output_bytes = 0.0
    report = []
    for command in workload.commands:
        name = command.metric.removesuffix("_s")
        warm_up(erfe, command, seed, work, panel)
        # Plain, traced, plain: the plain time is the mean of the two runs
        # around the traced one, which cancels order effects and drift.
        outs = [work / f"{kind}.out" for kind in ("plain1", "traced", "plain2")]
        times = []
        for out, run_tracer in zip(outs, (None, tracer, None)):
            t, code = _in_process(erfe, cli_args(command, work / "input.csv", out, seed),
                                  run_tracer)
            ledger.record(f"{name}.exit_{out.stem}", code == 0, f"exit {code}")
            times.append(t)
        check_output(command, outs[1], panel, ledger)
        ledger.record(f"{name}.trace_same_bytes", len({digest(out) for out in outs}) == 1,
                      "traced output identical to the plain ones")
        plain = (times[0] + times[2]) / 2.0
        plain_s += plain
        traced_s += times[1]
        output_bytes += outs[1].stat().st_size if outs[1].exists() else 0
        report.append(f"in-process {command.metric}: plain {times[0]:.3f} s and "
                      f"{times[2]:.3f} s, traced {times[1]:.3f} s")
    linearity, big_s, small_s = scaling_probe(erfe, seed)

    total, self_s, calls = tracer.totals()
    single = "estimator.fit_erfe_single"
    rounds = tracer.iterations[single]
    start_values = tracer.child_seconds(single, "expectiles.expectile_regression")
    read_s = total["panel.read_panel_csv"]
    values = {
        "panel.read_panel_csv.mb_per_s":
            calls["panel.read_panel_csv"] * input_bytes / 1e6 / read_s if read_s else 0.0,
        f"{single}.iterations": rounds,
        f"{single}.s_per_round": (total[single] - start_values) / rounds if rounds else 0.0,
        f"{single}.linearity": linearity,
        "estimator.fit_erfe_multi.iterations": tracer.iterations["estimator.fit_erfe_multi"],
        "expectiles.expectile_regression.iterations":
            tracer.iterations["expectiles.expectile_regression"],
        "cli.output_mb": output_bytes / 1e6,
        "trace.overhead_s": traced_s - plain_s,
    }
    metrics = {}
    for metric, unit in PER_LAYER.items():
        if metric not in values:
            span, _, kind = metric.rpartition(".")
            values[metric] = {"s": total, "self_s": self_s, "calls": calls}[kind][span]
        metrics[metric] = (values[metric], unit)

    tracer.write(WORK / f"spans-{workload.name}-seed{seed}.jsonl",
                 {"workload": workload.name, "seed": seed, "plain_s": plain_s,
                  "traced_s": traced_s})
    # Largest spans, with the two that enclose everything else (the CLI and
    # the Monte Carlo driver) counted by self time.
    layers = {name: total[name] for name in spans.BINDINGS}
    layers["montecarlo.run_monte_carlo"] = self_s["montecarlo.run_monte_carlo"]
    layers["cli.self_s"] = self_s[spans.ROOT]
    top = sorted(layers.items(), key=lambda kv: -kv[1])[:3]
    if tracer.missing:
        report.append("bindings not found, so not traced: " + ", ".join(sorted(tracer.missing)))
    report += [f"{len(tracer.spans)} spans; largest: "
               + ", ".join(f"{k} {v:.3f} s" for k, v in top),
               f"scaling probe: {big_s:.4f} s at {WIDE.rows} rows, {small_s:.5f} s at "
               f"{PROBE_SUBJECTS * WIDE.occasions} rows"]
    return metrics, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "erfe" / "__init__.py").is_file():
        print(f"error: no erfe source tree at {SRC}", file=sys.stderr)
        return 2

    started = time.perf_counter()
    workload = WORKLOADS[args.workload]
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK))
    ledger = Ledger()
    try:
        prep_start = time.perf_counter()
        panel, input_csv, input_bytes = prepare(workload, args.seed, work)
        prep_s = time.perf_counter() - prep_start
        if args.trace:
            metrics, report = run_traced(workload, args.seed, work, panel, input_bytes, ledger)
        else:
            metrics, report = run_plain(workload, args.seed, args.seconds, work, panel,
                                        input_csv, ledger, started)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    shape = workload.shape.describe() if workload.shape else {"simulate": MC_CELL}
    print(f"workload {workload.name} seed {args.seed}: {json.dumps(shape)}")
    print(f"input preparation {prep_s:.3f} s, {input_bytes / 1e6:.1f} MB (not part of setup_s)")
    print(f"environment: {json.dumps(machine.record())}")
    for line in ledger.lines + report:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    correct = ledger.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
