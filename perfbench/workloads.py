"""Runs one benchmark workload in this process and prints its result as JSON.

The orchestrator (``run.py``) starts this script in a fresh process, so that
``ru_maxrss`` covers the workload alone. Untraced, it runs the workload's
timed operation at least once and until ``--seconds`` have passed, and
reports the end-to-end metrics. Traced, it runs the operation once untraced
and once under the span tracer, and reports the per-layer metrics and the
difference of the two wall times as the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import os
import resource
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import pathshift.cli as cli  # noqa: E402
import pathshift.simulation as simulation  # noqa: E402
from pathshift.toys import fixture_path  # noqa: E402

import checks  # noqa: E402
from inputs import SIZES  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402

ORACLE_ESTIMANDS = 11  # dis, adv, direct, and mediator/sequential for each of toy_k4's 4 blocks


class Run:
    """Outcome of one workload run: operation counts, problems and timings."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.walls: list[float] = []
        self.digests: set[str] = set()

    def fail(self, problem: str, operations: int = 1) -> None:
        self.failed += operations
        self.problems.append(problem)


def _repeat(op, seconds: float) -> list:
    """Run ``op`` at least once and until ``seconds`` have passed; returns its results."""
    start = time.perf_counter()
    results = [op()]
    while time.perf_counter() - start < seconds:
        results.append(op())
    return results


def _cli(run: Run, argv: list[str], out: io.StringIO) -> int | None:
    """Time one ``pathshift`` command; returns its exit code, or None if it raised."""
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
    except Exception:  # a crashing command is a failed operation, not a crashed benchmark
        traceback.print_exc()
        return None
    run.walls.append(time.perf_counter() - start)
    return code


# -- decompose ------------------------------------------------------------------

def decompose_op(run: Run, cfg_path: str, out_dir: str, seed: int) -> None:
    """One ``pathshift decompose`` command, timed, with its output checked."""
    argv = ["decompose", "--config", cfg_path, "--out", out_dir, "--seed", str(seed),
            "--scale", "geometric", "--decomposition", "both"]
    run.attempted += 1
    code = _cli(run, argv, io.StringIO())
    if code != 0:
        run.fail("decompose raised" if code is None else f"decompose exited with code {code}")
        return
    with open(os.path.join(out_dir, "decomposition.json"), "rb") as handle:
        raw = handle.read()
    run.digests.add(checks.sha256(raw))
    problems = checks.check_decomposition(json.loads(raw))
    if problems:
        run.fail("; ".join(problems))


# -- simulate -------------------------------------------------------------------

def simulate_op(run: Run, seed: int, sizes: dict, n_jobs: int) -> tuple[float, float]:
    """Truth then replicate grid for sim1 rho via block 1; returns (truth_s, grid_s)."""
    spec = simulation.DgpSpec("sim1_meps_like", seed=seed)
    rho = simulation.RhoSpec.mediator(1)
    start = time.perf_counter()
    truth = simulation.truth_for(spec, rho, n_draws=sizes["truth_draws"], seed=seed)
    mid = time.perf_counter()
    report = simulation.run_grid(
        spec, (rho,), (sizes["n"],), reps=sizes["reps"], methods=(simulation.sl_method(),),
        base_seed=seed, truths={rho.label: truth}, n_jobs=n_jobs,
    )
    end = time.perf_counter()
    run.walls.append(end - start)
    cells = [c.to_dict() for c in report.cells]
    run.attempted += sizes["reps"]
    run.digests.add(checks.cells_digest(cells))
    problems = [p for cell in cells for p in checks.check_sim_cell(cell)]
    if problems:
        run.fail("; ".join(problems), operations=sum(c["failures"] for c in cells))
    return mid - start, end - mid


# -- oracle ---------------------------------------------------------------------

def oracle_op(run: Run, seed: int, mc_draws: int) -> None:
    """One ``pathshift oracle-check`` on toy_k4; each estimand line is an operation."""
    argv = ["oracle-check", "--fixture", fixture_path("toy_k4"), "--mc-draws", str(mc_draws), "--seed", str(seed)]
    run.attempted += ORACLE_ESTIMANDS
    out = io.StringIO()
    code = _cli(run, argv, out)
    lines, failed = checks.oracle_lines(out.getvalue())
    if code != 0 or lines != ORACLE_ESTIMANDS:
        run.fail(f"oracle-check ended with code {code} after {lines} estimand lines, {failed} failed",
                 operations=max(failed, ORACLE_ESTIMANDS - lines, 1))
    # the first line names the fixture path, which differs between checkouts
    run.digests.add(checks.sha256("\n".join(out.getvalue().splitlines()[1:]).encode()))


# -- runs ---------------------------------------------------------------------

def peak_rss_mb() -> float:
    peak_kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                   resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak_kib / 1024.0


def operation(workload: str, run: Run, seed: int, sizes: dict, data_dir: str, n_jobs: int):
    """The workload's timed operation as a call without arguments."""
    if workload.startswith("decompose_"):
        return functools.partial(decompose_op, run, os.path.join(data_dir, "config.json"),
                                 os.path.join(data_dir, "out"), seed)
    if workload == "simulate_sl":
        return functools.partial(simulate_op, run, seed, sizes, n_jobs)
    return functools.partial(oracle_op, run, seed, sizes["mc_draws"])


def untraced(workload: str, seed: int, seconds: float, sizes: dict, data_dir: str, n_jobs: int) -> tuple[Run, dict]:
    """Repeat the operation; reps_per_s counts what ``attempted`` counts per busy second."""
    run = Run()
    results = _repeat(operation(workload, run, seed, sizes, data_dir, n_jobs), seconds)
    # simulate_sl: replicates per second of the run_grid call, so the truth is left out
    busy = [grid_s for _, grid_s in results] if workload == "simulate_sl" else run.walls
    metrics = {
        "wall_s": statistics.median(run.walls) if run.walls else 0.0,
        "reps_per_s": (run.attempted - run.failed) / sum(busy) if busy else 0.0,
        "peak_rss_mb": peak_rss_mb(),
    }
    return run, metrics


def traced(workload: str, seed: int, sizes: dict, data_dir: str, n_jobs: int, trace_path: str) -> tuple[Run, dict]:
    """One untraced and one traced operation; simulate_sl runs both serially, so
    every span is in this process, then once more in parallel for pool_efficiency."""
    run = Run()
    tracer = Tracer()
    op = operation(workload, run, seed, sizes, data_dir, 1)
    op()
    with tracer:
        op()
    if len(run.walls) < 2:
        run.fail("an operation failed, so the tracing overhead is unknown", operations=0)
        overhead = 0.0
    else:
        overhead = run.walls[-1] - run.walls[0]
    pool_efficiency = 0.0
    if workload == "simulate_sl":
        _, parallel_grid_s = simulate_op(run, seed, sizes, n_jobs)
        serial_grid_s = sum(end - start for name, start, end, _, _ in tracer.spans if name == "simulation.run_grid")
        pool_efficiency = serial_grid_s / (n_jobs * parallel_grid_s)
    tracer.dump(trace_path)
    return run, layer_metrics(tracer.spans, pool_efficiency, overhead)


def versions() -> dict:
    blas = "unknown"
    with contextlib.suppress(KeyError, TypeError):  # older numpy has no dict form
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    return {"python": sys.version.split()[0], "numpy": np.__version__, "scipy": scipy.__version__, "openblas": blas}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(SIZES["full"]))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    parser.add_argument("--dir", required=True, help="directory holding the workload inputs")
    parser.add_argument("--trace-out", help="file that receives the spans of a traced run")
    parser.add_argument("--jobs", type=int, required=True, help="worker processes for the simulate grid")
    args = parser.parse_args(argv)

    sizes = SIZES[args.size][args.workload]
    if args.trace:
        run, metrics = traced(args.workload, args.seed, sizes, args.dir, args.jobs, args.trace_out)
    else:
        run, metrics = untraced(args.workload, args.seed, args.seconds, sizes, args.dir, args.jobs)
    if len(run.digests) > 1:
        run.problems.append(f"outputs differ between repeats: {sorted(run.digests)}")
    print(json.dumps({
        "correct": not run.problems and run.attempted > 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "problems": run.problems,
        "digest": sorted(run.digests),
        "walls": run.walls,
        "metrics": metrics,
        "versions": versions(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
