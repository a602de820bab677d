"""Builds the inputs of the decompose workloads from the workload seed.

Both ``decompose_*`` workloads read a CSV in the MEPS-like schema of
acceptance criterion 8: three covariates, a four-level ``race`` group column,
K=4 mediator blocks with -9 "not ascertained" sentinels in ``smoke``, and the
raw zero-inflated ``expenditure`` drawn by ``generate(sim1_meps_like)``.
Nothing else is built and nothing is downloaded; the other workloads take
their inputs (DGP spec, fixture, seeds) straight from the library.

Run as a script it is one set-up: it imports pathshift, builds the inputs
and prints ``{"setup_s": ...}``, the time of those two steps. The import is
timed, so this module imports numpy and pathshift only inside ``main``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Workload sizes. "full" is the benchmark; "tiny" only exercises the harness.
SIZES = {
    "full": {
        "decompose_sl": {"n": 4000},
        "decompose_glm_1m": {"n": 1_000_000},
        "simulate_sl": {"n": 4000, "reps": 16, "truth_draws": 2_000_000},
        "oracle_k4": {"mc_draws": 1_000_000},
    },
    "tiny": {
        "decompose_sl": {"n": 600},
        "decompose_glm_1m": {"n": 2000},
        "simulate_sl": {"n": 600, "reps": 6, "truth_draws": 20_000},
        "oracle_k4": {"mc_draws": 20_000},
    },
}

HEADER = ["age", "income_ratio", "married", "race", "ses1", "ses2", "insured",
          "smoke", "exercise", "bmi", "chronic", "expenditure"]
WRITE_CHUNK = 50_000


def config_for(workload: str, data_path: str) -> dict:
    """The decompose config: one group pair (2 vs 1), GLM or super learner."""
    cfg = {
        "data": data_path,
        "na_codes": [-1, -7, -8, -9],
        "covariates": ["age", "income_ratio", "married"],
        "group": {"name": "race", "pairs": [{"reference": 2, "comparison": 1}]},
        "mediators": [["ses1", "ses2"], ["insured"], ["smoke", "exercise"], ["bmi", "chronic"]],
        "outcome": {"name": "expenditure", "scale": "log_positive"},
    }
    if workload == "decompose_sl":
        cfg["learner"] = "superlearner"
        cfg["crossfit"] = {"folds": 2}
    else:
        cfg["learner"] = "glm"
    return cfg


def build(workload: str, seed: int, n: int, directory: str) -> tuple[str, str]:
    """Write ``data.csv`` and ``config.json`` for a decompose workload; returns their paths."""
    import numpy as np

    from pathshift.simulation import DgpSpec, generate

    frame, latents = generate(DgpSpec("sim1_meps_like"), n, seed=seed, return_latents=True)
    rng = np.random.default_rng(seed)
    race = np.where(frame.r == 1, rng.choice([1.0, 3.0], frame.n), rng.choice([2.0, 4.0], frame.n))
    smoke = frame.m_blocks[2][:, 0].copy()
    smoke[rng.random(frame.n) < 0.02] = -9.0
    rows = np.column_stack([
        frame.x, race, frame.m_blocks[0], frame.m_blocks[1], smoke,
        frame.m_blocks[2][:, 1], frame.m_blocks[3], latents["y_raw"],
    ])
    os.makedirs(directory, exist_ok=True)
    data_path = os.path.join(directory, "data.csv")
    row_fmt = ",".join(["%.10g"] * rows.shape[1]) + "\n"
    with open(data_path, "w", encoding="utf-8") as handle:
        handle.write(",".join(HEADER) + "\n")
        for start in range(0, rows.shape[0], WRITE_CHUNK):
            block = rows[start:start + WRITE_CHUNK]
            handle.write((row_fmt * block.shape[0]) % tuple(block.ravel().tolist()))
    cfg_path = os.path.join(directory, "config.json")
    with open(cfg_path, "w", encoding="utf-8") as handle:
        json.dump(config_for(workload, data_path), handle, indent=2)
    return data_path, cfg_path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--n", type=int, default=0, help="rows of the decompose CSV")
    parser.add_argument("--out", required=True, help="directory that receives the inputs")
    args = parser.parse_args(argv)

    start = time.perf_counter()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import pathshift.cli  # noqa: F401  (the import is part of set-up)

    if args.workload.startswith("decompose_"):
        build(args.workload, args.seed, args.n, args.out)
    print(json.dumps({"setup_s": time.perf_counter() - start}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
