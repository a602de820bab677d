"""Fixtures shared by the test modules: a CSV for the command-line and
tracer tests, and a stand-in for the usable core count."""

import json

import numpy as np
import pytest

from pathshift import cli, data, parallel
from pathshift.simulation import DgpSpec, generate


@pytest.fixture
def usable_cores(monkeypatch):
    """Call it with a count to make ``fork_map``'s worker count, and every
    pathshift module that reads ``usable_cores`` (the CLI's defaults and the
    CSV ranges), see that many cores, whatever the host."""

    def set_cores(count: int) -> None:
        for module in (cli, data, parallel):
            monkeypatch.setattr(module, "usable_cores", lambda: count)

    return set_cores


@pytest.fixture
def meps_like_csv(tmp_path):
    """A small two-group dataset in the CSV-plus-config shape the CLI expects."""
    frame, latents = generate(DgpSpec("sim1_meps_like"), 900, seed=77, return_latents=True)
    header = ["x1", "x2", "x3", "race", "m11", "m12", "m2", "m31", "m32", "m41", "m42", "expenditure"]
    m = frame.m_upto(4)
    rows = np.column_stack([frame.x, frame.r + 1.0, m, latents["y_raw"]])
    path = tmp_path / "study.csv"
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(",".join(header) + "\n")
        for row in rows:
            handle.write(",".join(f"{v:.10g}" for v in row) + "\n")
    config = {
        "data": str(path),
        "covariates": ["x1", "x2", "x3"],
        "group": {"name": "race", "reference": 1, "comparison": 2},
        "mediators": [["m11", "m12"], ["m2"], ["m31", "m32"], ["m41", "m42"]],
        "outcome": {"name": "expenditure", "scale": "log_positive"},
        "learner": "glm",
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    return str(path), str(cfg_path)
