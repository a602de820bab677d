"""Output checks of the benchmark workloads.

Each check returns a list of problems; an empty list means the output is
correct. The checks read only the program's outputs, never its internals.
"""

from __future__ import annotations

import hashlib
import json
import math
import re

TELESCOPE_RTOL = 1e-12
BIAS_SIGMAS = 4.0
ORACLE_LINE = re.compile(r"^\s+gamma_\S+\s+enum=.*\[(ok|FAIL)\]$")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def check_decomposition(payload: dict, n_blocks: int = 4) -> list[str]:
    """Finite points and SEs everywhere; sequential components telescope to the total.

    On the geometric-ratio scale the components multiply to the total, so the
    identity is checked on their logarithms.
    """
    problems = []
    reports = payload.get("reports", [])
    kinds = sorted(r["estimand_meta"]["decomposition"] for r in reports)
    if kinds != ["natural", "sequential"]:
        problems.append(f"expected one natural and one sequential report, got {kinds}")
    for report in reports:
        kind = report["estimand_meta"]["decomposition"]
        comps = {c["label"]: c for c in report["components"]}
        for label, c in comps.items():
            if not (math.isfinite(c["point"]) and math.isfinite(c["se"])):
                problems.append(f"{kind} {label}: non-finite point or SE")
        if kind != "sequential":
            continue
        parts = [f"sequential_{k}" for k in range(1, n_blocks + 1)] + ["sequential_outcome"]
        if any(p not in comps for p in parts + ["total"]):
            problems.append("sequential report lacks a component")
            continue
        geometric = comps["total"]["scale"] == "geometric_ratio"
        value = (lambda c: math.log(c["point"])) if geometric else (lambda c: c["point"])
        try:
            total = value(comps["total"])
            gap = abs(sum(value(comps[p]) for p in parts) - total)
        except ValueError:
            problems.append("sequential report has a non-positive geometric ratio")
            continue
        if not gap <= TELESCOPE_RTOL * max(1.0, abs(total)):
            problems.append(f"sequential components miss the total by {gap:.3e}")
    return problems


def check_sim_cell(cell: dict) -> list[str]:
    """|bias| <= 4 sd / sqrt(reps) + 4 truth_se, with no failed replicate."""
    problems = []
    if cell["failures"]:
        problems.append(f"{cell['failures']} replicates failed")
    if cell["reps"] < 2:
        return problems + ["fewer than two successful replicates"]
    bound = BIAS_SIGMAS * cell["sd"] / math.sqrt(cell["reps"]) + BIAS_SIGMAS * cell["truth_se"]
    if not abs(cell["bias"]) <= bound:
        problems.append(f"|bias| {abs(cell['bias']):.4g} exceeds {bound:.4g}")
    return problems


def cells_digest(cells: list[dict]) -> str:
    return sha256(json.dumps(cells, sort_keys=True).encode())


def oracle_lines(stdout: str) -> tuple[int, int]:
    """(estimand lines, failed lines) printed by ``pathshift oracle-check``."""
    marks = [m.group(1) for m in map(ORACLE_LINE.match, stdout.splitlines()) if m]
    return len(marks), marks.count("FAIL")
