"""Benchmark: specfield campaigns through the CLI, end to end and per layer.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload mc-compare --seed 0 --seconds 25 --trace 0

A closed loop with one client: one CLI process at a time, at its default of
one thread, with OPENBLAS_NUM_THREADS=1.  The package is imported from the
checkout's src/, never from an installed copy.

--trace 0 alternates fresh set-up probes and CLI runs for --seconds (at least
one run and three probes) and reports wall_s, setup_s, samples_per_s and
peak_rss_mb as medians.  --trace 1 runs the CLI once untraced and once
in-process with every module's entry points wrapped (tracer.py), reports the
per-layer metrics, and reruns at --threads 2 to probe byte identity.
Every CLI run passes a correctness gate (workloads.py); the output files of
all runs of one invocation must be byte-identical.  The last stdout line is
one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import platform
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from statistics import median
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
sys.path.insert(0, str(HERE))

MIN_SETUPS = 3
IMPORT_PROBES = 3
CHILD_LIMIT_S = 150.0

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "samples_per_s": "1/s",
                    "peak_rss_mb": "MiB"}
PER_LAYER_UNITS = {
    "config.parse_ms": "ms", "cli.import_s": "s", "grids.build_ms": "ms",
    "grids.nodes": "count", "spectral.admissibility_ms": "ms",
    "spectral.admissibility_calls": "count", "spectral.domination_ms": "ms",
    "rng.noise_us": "us", "rng.noise_calls": "count", "rng.share": "ratio",
    "synthesis.build_s": "s", "synthesis.matrix_mb": "MB", "synthesis.sample_us": "us",
    "synthesis.samples": "count", "synthesis.share": "ratio",
    "synthesis.flop_per_byte": "flop/B", "synthesis.matvec_gbps": "GB/s",
    "norms.eval_us": "us", "norms.calls": "count", "covariance.assemble_ms": "ms",
    "verification.self_s": "s", "verification.verdict_ms": "ms",
    "verification.pilot_s": "s", "cli.write_ms": "ms", "cli.cpu_s": "s",
    "cli.threads2_wall_ratio": "ratio", "trace.overhead_s": "s",
    "trace.coverage": "ratio",
}


@dataclass
class Child:
    wall: float           # launch to exit
    ready: float | None   # launch to the "ready" line, for set-up probes
    rss_mib: float
    cpu_s: float
    exit_code: int
    stderr: str
    problems: tuple = ()  # what the correctness gate found, for CLI runs


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    env["OPENBLAS_NUM_THREADS"] = "1"
    return env


def run_child(argv, env, ready=False) -> Child:
    """Run one process to completion; its rusage comes from wait4."""
    started = time.perf_counter()
    proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE if ready else subprocess.DEVNULL,
                            stderr=subprocess.PIPE)
    timer = threading.Timer(CHILD_LIMIT_S, proc.kill)
    timer.start()
    errors = []
    drain = threading.Thread(target=lambda: errors.append(proc.stderr.read()))
    drain.start()
    try:
        ready_at = None
        if ready:
            if proc.stdout.readline().strip() == b"ready":
                ready_at = time.perf_counter() - started
            proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        timer.cancel()
        if proc.returncode is None:
            proc.kill()
            proc.wait()
        drain.join()
        for stream in (proc.stdout, proc.stderr):
            if stream is not None:
                stream.close()
    return Child(wall, ready_at, usage.ru_maxrss / 1024.0,
                 usage.ru_utime + usage.ru_stime, proc.returncode,
                 errors[0].decode(errors="replace") if errors else "")


class Campaign:
    """One workload's config at one seed, its CLI runs and their gate."""

    def __init__(self, workload, seed: int, env: dict):
        self.workload = workload
        self.env = env
        self.dir = WORK / workload.name
        self.dir.mkdir(parents=True)
        self.config = self.dir / "run.cfg"
        self.config.write_text(workload.config(seed), encoding="utf-8")
        self.reference = None     # output files of the first run
        self.attempted = 0
        self.failures = []
        self.verdicts = []

    def cli(self, *extra, spans: Path | None = None) -> Child:
        """One CLI run, in-process under the tracer when spans is given."""
        out = self.dir / f"out{self.attempted}"
        head = ([sys.executable, str(HERE / "tracer.py"), str(spans)] if spans
                else [sys.executable, "-m", "specfield"])
        child = run_child([*head, "--config", str(self.config), "--output", str(out),
                           *extra], self.env)
        child.problems = self.record(child, out)
        return child

    def setup(self) -> Child:
        child = run_child([sys.executable, str(HERE / "setup_probe.py"), str(self.config)],
                          self.env, ready=True)
        if child.exit_code != 0 or child.ready is None:
            raise RuntimeError(f"set-up probe failed: {child.stderr.strip()}")
        return child

    def record(self, child: Child, out: Path) -> tuple:
        self.attempted += 1
        problems = self.workload.check(out, child.exit_code) if out.is_dir() else \
            [f"exit {child.exit_code}: {child.stderr.strip()[-300:]}"]
        files = {p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*"))
                 if p.is_file()} if out.is_dir() else {}
        if self.reference is None:
            self.reference = files
        elif files != self.reference:
            problems.append("output files differ from the first run of this set")
        if (out / "summary.txt").is_file():
            summary = (out / "summary.txt").read_text(encoding="utf-8")
            self.verdicts.append(verdict_line(summary))
        if problems:
            self.failures.append(f"run {self.attempted}: " + "; ".join(problems))
        return tuple(problems)


def verdict_line(summary: str) -> str:
    keep = ("worst_verdict", "estimate", "covariance_match", "cross_orthogonality",
            "exit_status")
    return ", ".join(line for line in summary.splitlines() if line.split(" = ")[0] in keep)


def describe(name: str, unit: str, values) -> str:
    """Median, and the highest percentile with at least ten samples above it."""
    ordered = sorted(values)
    rank = len(ordered) - 10
    tail = (f"p{100 * rank // len(ordered)} = {ordered[rank - 1]:.6g}" if rank >= 1
            else "no tail percentile (fewer than 11 samples)")
    return f"  {name} = {median(ordered):.6g} {unit}  (median of {len(ordered)}; {tail})"


def measure(campaign: Campaign, seconds: float, lines: list) -> dict:
    deadline = time.perf_counter() + seconds
    setups, runs = [], []
    while True:
        setups.append(campaign.setup())
        runs.append(campaign.cli())
        if time.perf_counter() + setups[-1].wall + runs[-1].wall > deadline:
            break
    while len(setups) < MIN_SETUPS:
        setups.append(campaign.setup())
    walls = [r.wall for r in runs]
    ready = [s.ready for s in setups]
    rss = [r.rss_mib for r in runs]
    metrics = {"wall_s": median(walls), "setup_s": median(ready),
               "samples_per_s": campaign.workload.samples / (median(walls) - median(ready)),
               "peak_rss_mb": median(rss)}
    lines += [describe("wall_s", "s", walls), describe("setup_s", "s", ready),
              f"  samples_per_s = {metrics['samples_per_s']:.6g} 1/s  "
              f"({campaign.workload.samples} samples / (wall_s - setup_s))",
              describe("peak_rss_mb", "MiB", rss)]
    return metrics


def trace(campaign: Campaign, env: dict, lines: list) -> dict:
    from tracer import layer_metrics

    imports = [run_child([sys.executable, "-c", "import specfield"], env).wall
               for _ in range(IMPORT_PROBES)]
    plain = campaign.cli()
    spans = campaign.dir / "spans.pickle"
    traced = campaign.cli(spans=spans)
    # written by our own traced child in this run's work directory
    metrics = layer_metrics(pickle.loads(spans.read_bytes()), traced.wall, median(imports))
    metrics["cli.cpu_s"] = plain.cpu_s
    metrics["trace.overhead_s"] = traced.wall - plain.wall

    # determinism probe: the same run at --threads 2 must write the same bytes
    double = campaign.cli("--threads", "2")
    if double.exit_code == 2 and "unrecognized arguments" in double.stderr:
        campaign.attempted -= 1
        campaign.failures.pop()
        metrics["cli.threads2_wall_ratio"] = 0.0
        lines.append("  threads probe: absent (the CLI no longer accepts --threads)")
    else:
        metrics["cli.threads2_wall_ratio"] = double.wall / plain.wall
        lines.append(f"  threads probe: --threads 2 outputs "
                     f"{'fail the gate' if double.problems else 'are byte-identical'}")
    coverage = metrics["trace.coverage"]
    lines.append(f"  trace completeness: layer self times + import = {coverage:.3f} "
                 f"x traced wall ({'PASS' if abs(coverage - 1.0) <= 0.1 else 'FAIL'}, "
                 f"overhead {metrics['trace.overhead_s']:.3f} s)")
    for name, unit in PER_LAYER_UNITS.items():
        lines.append(f"  {name} = {metrics[name]:.6g} {unit}")
    return metrics


def machine_info() -> str:
    import numpy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (f"machine: nproc={os.cpu_count()} affinity={len(os.sched_getaffinity(0))} "
            f"python={platform.python_version()} numpy={numpy.__version__} "
            f"scipy={metadata.version('scipy')} blas={blas.get('name')} {blas.get('version')} "
            f"OPENBLAS_NUM_THREADS=1 cli_threads=1")


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "specfield" / "__init__.py").is_file():
        print(f"error: no specfield sources under {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be non-negative", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    env = child_env()
    shutil.rmtree(WORK, ignore_errors=True)

    workload = WORKLOADS[args.workload]
    campaign = Campaign(workload, args.seed, env)
    run_child([sys.executable, "-c", "import specfield"], env)   # compile and warm
    lines = [machine_info(),
             f"workload {workload.name}: {workload.command}, seed {args.seed} "
             f"(master seed {workload.master_seed(args.seed)}), "
             f"{workload.samples} field samples per run"]
    if args.trace:
        metrics = trace(campaign, env, lines)
        units = PER_LAYER_UNITS
    else:
        metrics = measure(campaign, args.seconds, lines)
        units = END_TO_END_UNITS
    lines.append(f"  verdicts: {sorted(set(campaign.verdicts))}")
    lines.append(f"  failed_runs = {len(campaign.failures)}/{campaign.attempted} "
                 "(CLI runs that failed the correctness gate)")
    lines += [f"  FAILED {failure}" for failure in campaign.failures]
    print("\n".join(lines))
    print(json.dumps({"correct": not campaign.failures, "attempted": campaign.attempted,
                      "failed": len(campaign.failures),
                      "metrics": {name: {"value": metrics[name], "unit": unit}
                                  for name, unit in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
