"""Benchmark of the bilip command-line pipeline.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Runs one workload in this process on one thread, through
``bilip.cli.main(argv)`` on the sources under ``src/`` next to this
directory. With ``--trace 0`` it times set-up and pipeline iterations
and prints the end-to-end metrics; with ``--trace 1`` it wraps bilip's
public functions, runs one traced set-up and pipeline iteration plus
untraced iterations for the overhead, and prints the per-layer metrics.
Every command's exit code and output are checked. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPS = 3

sys.path.insert(0, str(HERE))

from clock import REFERENCE_S, Clock  # noqa: E402
from tracer import TARGETS, SpanLog, Tracer, self_times  # noqa: E402
from workloads import WORKLOADS, Files  # noqa: E402

CLI_COMMANDS = ("gen-tree", "fill", "promote", "ends", "cheeger", "qi", "verify")
# Never called by any workload: its time would be a constant zero.
CALLS_ONLY = {"graph.sphere"}

END_TO_END = (
    ("setup_s", "s"),
    ("pipeline_s", "s"),
    ("peak_rss_mib", "MiB"),
)


def per_layer_metrics() -> list[tuple[str, str]]:
    """Every per-layer metric name with its unit, in output order."""
    out = [(f"cli.{c}.s", "s") for c in CLI_COMMANDS]
    for layer, short, _where in TARGETS:
        name = f"{layer}.{short}"
        out.append((f"{name}.calls", "count"))
        if name not in CALLS_ONLY:
            out.append((f"{name}.self_s", "s"))
    out += [
        ("jsonio.save_json.bytes", "bytes"),
        ("graph.ball.out_vertices", "count"),
        ("cheeger.family_sets.sets", "count"),
        ("promote.radii_tried", "count"),
        ("promote.unmatched_y", "count"),
        ("trace.pipeline_s", "s"),
        ("trace.untraced_pipeline_s", "s"),
        ("trace.overhead_s", "s"),
        ("trace.missing", "count"),
    ]
    return out


class Tally:
    """Commands attempted and failed, with the first problems seen."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in problems[:3])


def run_commands(main, commands, clock: Clock, log: SpanLog | None = None):
    """Run commands with terminal output captured.

    Returns the wall time, the same rescaled by the clock, and per command
    its exit code or the exception it raised.
    """
    outcomes = []
    wall = scaled = 0.0
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        for cmd in commands:
            span = log.span(f"cli.{cmd.name}") if log is not None else contextlib.nullcontext()
            start = time.perf_counter()
            try:
                with span:
                    outcomes.append(main(cmd.argv))
            except Exception:  # a crash is a failed command, not a failed run
                outcomes.append(traceback.format_exc(limit=3))
            elapsed = time.perf_counter() - start
            wall += elapsed
            scaled += clock.scaled(elapsed)
            sink.seek(0)
            sink.truncate()
    return wall, scaled, outcomes


def check_commands(commands, outcomes, files: Files, tally: Tally) -> None:
    for cmd, outcome in zip(commands, outcomes):
        if isinstance(outcome, str):
            problems = [f"raised {outcome.strip().splitlines()[-1]}"]
        elif outcome != cmd.expect_rc:
            problems = [f"exit code {outcome}, expected {cmd.expect_rc}"]
        else:
            try:
                problems = cmd.check(files)
            except Exception as exc:  # a malformed output is a failed command
                problems = [f"unreadable output: {exc!r}"]
        tally.record(f"{cmd.name} {Path(cmd.out()).name}", problems)


def promote_counts(commands) -> tuple[int, int]:
    """Radii tried (from r=0) and unmatched targets, summed over the
    promote reports."""
    radii = unmatched = 0
    for cmd in commands:
        if cmd.name != "promote":
            continue
        with contextlib.suppress(OSError, ValueError, KeyError):
            rep = json.loads(Path(cmd.out()).read_text(encoding="utf-8"))
            if rep.get("promoted"):
                radii += rep["matching"]["r"] + 1
                unmatched += len(rep["matching"]["unmatched_y"])
            else:
                radii += rep["r_max"] + 1
    return radii, unmatched


def git_commit() -> str | None:
    """HEAD of the repository at ROOT; None when ROOT is not one."""
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def timed_run(main, workload, seed, seconds, work: Path, tally: Tally, clock: Clock) -> dict:
    """Set up SETUP_REPS times, then repeat the pipeline for `seconds` of
    command wall time (at least once); lists of (wall, scaled) times.

    Outputs are checked only after the peak RSS is read, so the
    checker's parsed files are not counted in it."""
    setups, iterations, to_check = [], [], []
    for rep in range(SETUP_REPS):
        files = Files(work / f"setup{rep}")
        commands = workload.setup(files, seed)
        wall, scaled, outcomes = run_commands(main, commands, clock)
        setups.append((wall, scaled))
        to_check.append((files, None, commands, outcomes))
    while not iterations or sum(wall for wall, _ in iterations) < seconds:
        files.stage(len(iterations))
        commands = workload.pipeline(files, seed)
        wall, scaled, outcomes = run_commands(main, commands, clock)
        to_check.append((files, len(iterations), commands, outcomes))
        iterations.append((wall, scaled))
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    for files, iteration, commands, outcomes in to_check:
        files.stage(iteration)
        check_commands(commands, outcomes, files, tally)
    return {"setups": setups, "iterations": iterations, "info": files.info,
            "peak_rss_mib": peak_rss_mib}


def traced_run(main, workload, seed, seconds, work: Path, tally: Tally, clock: Clock,
               header: dict) -> dict:
    """One traced set-up and pipeline iteration, plus untraced iterations
    until `seconds` of pipeline wall time for the tracing overhead."""
    log = SpanLog()
    tracer = Tracer(log)
    files = Files(work / "setup0")
    setup = workload.setup(files, seed)
    with tracer:
        _, _, outcomes = run_commands(main, setup, clock, log)
    check_commands(setup, outcomes, files, tally)

    untraced, traced = [], None
    while traced is None or not untraced or traced[0] + sum(w for w, _ in untraced) < seconds:
        commands = workload.pipeline(files, seed)
        if traced is None and untraced:
            log.current_iteration = 1
            with tracer:
                *traced, outcomes = run_commands(main, commands, clock, log)
            radii, unmatched = promote_counts(commands)
        else:
            *times, outcomes = run_commands(main, commands, clock)
            untraced.append(times)
        check_commands(commands, outcomes, files, tally)

    header = {**header, "missing": tracer.missing, "bindings": tracer.bindings}
    WORK.mkdir(exist_ok=True)
    log.write_jsonl(WORK / f"trace-{workload.name}.jsonl", header)

    spans = log.spans()
    totals = self_times(spans)
    metrics = {}
    for command in CLI_COMMANDS:
        name = f"cli.{command}"
        metrics[f"{name}.s"] = sum(end - start for _i, _p, n, start, end in spans if n == name) / 1e9
    for layer, short, _where in TARGETS:
        name = f"{layer}.{short}"
        calls, self_ns = totals.get(name, (0, 0))
        metrics[f"{name}.calls"] = calls
        if name not in CALLS_ONLY:
            metrics[f"{name}.self_s"] = self_ns / 1e9
    base = statistics.median(scaled for _, scaled in untraced)
    metrics.update({
        "jsonio.save_json.bytes": log.counters["jsonio.save_json.bytes"],
        "graph.ball.out_vertices": log.counters["graph.ball.out_vertices"],
        "cheeger.family_sets.sets": log.counters["cheeger.family_sets.sets"],
        "promote.radii_tried": radii,
        "promote.unmatched_y": unmatched,
        "trace.pipeline_s": traced[1],
        "trace.untraced_pipeline_s": base,
        "trace.overhead_s": traced[1] - base,
        "trace.missing": len(tracer.missing),
    })
    return {"metrics": metrics, "untraced": untraced, "missing": tracer.missing,
            "spans": len(log)}


def import_bilip():
    """Import bilip from this checkout's src/ only; None when absent."""
    if not (SRC / "bilip" / "__init__.py").is_file():
        return None, 0.0
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import bilip.cli
    elapsed = time.perf_counter() - start
    if Path(bilip.__file__).resolve().parent != SRC / "bilip":
        return None, 0.0
    return bilip.cli.main, elapsed


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=None,
                   help="workload seed; default reproduces the acceptance instance")
    p.add_argument("--seconds", type=float, default=20.0,
                   help="pipeline time to measure (at least one iteration runs)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    os.environ["BILIP_THREADS"] = "1"
    cli_main, import_s = import_bilip()
    if cli_main is None:
        print(f"error: no bilip sources under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    seed = workload.default_seed if args.seed is None else args.seed
    record = {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "workload": workload.name,
        "seed": seed,
        "BILIP_THREADS": os.environ["BILIP_THREADS"],
        "seconds": args.seconds,
        "trace": args.trace,
    }
    print("run " + json.dumps(record, sort_keys=True))
    work = WORK / f"{workload.name}-{seed}-{os.getpid()}"
    tally = Tally()
    clock = Clock()
    try:
        if args.trace:
            out = traced_run(cli_main, workload, seed, args.seconds, work, tally, clock, record)
            metrics = {name: {"value": out["metrics"][name], "unit": unit}
                       for name, unit in per_layer_metrics()}
            for name, metric in metrics.items():
                print(f"{name:46s} {metric['value']:.6g} {metric['unit']}")
            print(f"traced: {out['spans']} spans; untraced iterations "
                  f"{len(out['untraced'])}; missing names {out['missing'] or 'none'}")
        else:
            out = timed_run(cli_main, workload, seed, args.seconds, work, tally, clock)
            setup_wall, setup_scaled = (statistics.median(t) for t in zip(*out["setups"]))
            iter_wall, iter_scaled = (statistics.median(t) for t in zip(*out["iterations"]))
            import_scaled = import_s * REFERENCE_S / clock.refs[0]
            values = {
                "setup_s": import_scaled + setup_scaled,
                "pipeline_s": iter_scaled,
                "peak_rss_mib": out["peak_rss_mib"],
            }
            metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
            print(f"setup_s      {values['setup_s']:.4f} s  (import + median of {SETUP_REPS} "
                  f"set-ups; wall {import_s + setup_wall:.4f} s)")
            print(f"pipeline_s   {values['pipeline_s']:.4f} s  (median of "
                  f"{len(out['iterations'])} iterations; wall {iter_wall:.4f} s)")
            print(f"peak_rss_mib {values['peak_rss_mib']:.1f} MiB")
            print(f"reference    {statistics.median(clock.refs):.4f} s  (median of "
                  f"{len(clock.refs)} reference loops; scaled times assume {REFERENCE_S} s)")
            for key, value in sorted(out["info"].items()):
                print(f"info {key}: {value}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"failed_ratio {tally.failed / tally.attempted:.4f}  "
          f"({tally.failed} of {tally.attempted} commands)")
    for problem in tally.problems[:20]:
        print(f"problem {problem}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
