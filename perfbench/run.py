"""pathshift benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Workloads:

* ``decompose_sl``      ``pathshift decompose`` (geometric scale, natural and
                        sequential) with the super learner and 2-fold
                        cross-fitting on an n=4000 MEPS-schema CSV.
* ``decompose_glm_1m``  the same command with GLM nuisances on 10^6 rows.
* ``simulate_sl``       ``truth_for`` and a 16-replicate ``run_grid`` of sim1 rho
                        via block 1 at n=4000 with the super learner, on one
                        worker process per core.
* ``oracle_k4``         ``pathshift oracle-check`` on toy_k4 with 10^6 MC draws.

Each run sets up its inputs ``SETUP_REPEATS`` times in fresh processes (import
pathshift, build the inputs from ``--seed``) and reports the median as
``setup_s``. The workload then runs in a fresh process with BLAS and OpenMP
pinned to one thread. With ``--trace 0`` the last line holds the end-to-end
metrics, with ``--trace 1`` the per-layer metrics of a traced run (spans are
written under ``.perfbench_work/traces``). The line before it records the
output digests and the provenance of the run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from inputs import SIZES  # noqa: E402
from tracer import PER_LAYER_UNITS  # noqa: E402

WORKLOADS = ("decompose_sl", "decompose_glm_1m", "simulate_sl", "oracle_k4")
END_TO_END_UNITS = {"wall_s": "s", "reps_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}
SETUP_REPEATS = 3
DEADLINE_S = 170.0
THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
WORK_DIR = os.path.join(ROOT, ".perfbench_work")


class BenchError(RuntimeError):
    pass


def child(script: str, args: list[str], env: dict, deadline: float) -> dict:
    """Run a benchmark script in its own session; returns its last stdout line as JSON."""
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, script), *args],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, start_new_session=True, text=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the session includes any pool workers
        proc.communicate()
        raise BenchError(f"{script} ran past the deadline")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"{script} exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def git_sha() -> str:
    """HEAD of the checkout when it is a git work tree, read from its files."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full",
                        help="input sizes; 'tiny' only exercises the harness")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "pathshift", "__init__.py")):
        print(f"error: no pathshift sources under {ROOT}/src; run from a repository checkout", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    jobs = len(os.sched_getaffinity(0))
    env = {**os.environ, **THREAD_PINS}
    run_dir = os.path.join(WORK_DIR, f"{args.workload}-{args.seed}-{os.getpid()}")
    trace_dir = os.path.join(WORK_DIR, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    sizes = SIZES[args.size][args.workload]
    setup_args = ["--workload", args.workload, "--seed", str(args.seed), "--n", str(sizes.get("n", 0)), "--out", run_dir]
    work_args = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace), "--size", args.size, "--dir", run_dir, "--jobs", str(jobs),
                 "--trace-out", os.path.join(trace_dir, f"{args.workload}-seed{args.seed}.json")]
    try:
        setups = [child("inputs.py", setup_args, env, deadline)["setup_s"]
                  for _ in range(1 if args.trace else SETUP_REPEATS)]
        result = child("workloads.py", work_args, env, deadline)
    except BenchError as err:
        print(f"error: {args.workload}: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    if args.trace:
        units = PER_LAYER_UNITS
        values = result["metrics"]
    else:
        units = END_TO_END_UNITS
        values = {**result["metrics"], "setup_s": statistics.median(setups)}
    provenance = {
        "git_sha": git_sha(),
        "nproc": jobs,
        "cpu_model": cpu_model(),
        **result["versions"],
        "thread_pins": THREAD_PINS,
    }
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "problems": result["problems"], "digest": result["digest"],
        "walls": result["walls"], "setups": setups, "provenance": provenance,
    }))
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
