"""Builders for the shipped discrete toy DGPs.

These small fully-tabulated processes are the regression-test fixtures: the
enumeration oracle computes every estimand on them exactly, so estimator code
can be checked against ground truth with no sampling error. The JSON files
under ``pathshift/fixtures/`` are serialized from these builders.
"""

from __future__ import annotations

import numpy as np
from scipy.special import expit

from .oracle import DiscreteDgp, MediatorTable


def _bern_table(p1: np.ndarray) -> np.ndarray:
    """Stack P(M=0), P(M=1) along a trailing axis."""
    return np.stack([1.0 - p1, p1], axis=-1)


def toy_k1() -> DiscreteDgp:
    """Single binary mediator, binary X and Y; logistic-style tables rounded
    to four decimals so the fixture file is the exact source of truth."""
    x_states = np.array([0.0, 1.0])
    p_r1 = 0.4 + 0.2 * x_states
    p_m1 = np.zeros((2, 2))  # (x, r)
    for xi, x in enumerate(x_states):
        for r in (0, 1):
            p_m1[xi, r] = round(float(expit(-0.5 + r + 0.5 * x)), 4)
    p_y1 = np.zeros((2, 2, 2))  # (x, r, m)
    for xi in range(2):
        for r in (0, 1):
            for m in (0, 1):
                p_y1[xi, r, m] = round(float(expit(-1.0 + m + 0.5 * r)), 4)
    return DiscreteDgp(
        x_values=x_states[:, None],
        p_x=np.array([0.5, 0.5]),
        p_r1=p_r1,
        mediators=(MediatorTable(np.array([0.0, 1.0]), _bern_table(p_m1)),),
        y_values=np.array([0.0, 1.0]),
        p_y=_bern_table(p_y1),
    )


def toy_k2() -> DiscreteDgp:
    """Two blocks with non-binary supports: X has three states, the second
    mediator three categories, and Y three values (0, 1, 3.5)."""
    x_states = np.array([-1.0, 0.0, 1.0])
    p_x = np.array([0.3, 0.4, 0.3])
    p_r1 = np.array([0.3, 0.5, 0.7])

    p_m1 = np.zeros((3, 2))
    for xi, x in enumerate(x_states):
        for r in (0, 1):
            p_m1[xi, r] = round(float(expit(-0.4 + 0.9 * r + 0.6 * x)), 4)

    # second block: 3 categories via a rounded softmax over scores
    m2_vals = np.array([0.0, 1.0, 2.5])
    p_m2 = np.zeros((3, 2, 2, 3))
    for xi, x in enumerate(x_states):
        for r in (0, 1):
            for m1 in (0, 1):
                scores = np.array([0.0, 0.3 + 0.8 * r + 0.2 * m1, -0.5 + 0.4 * r + 0.7 * m1 + 0.3 * x])
                probs = np.exp(scores) / np.exp(scores).sum()
                probs = np.round(probs, 4)
                probs[0] = 1.0 - probs[1:].sum()  # keep the row summing to one
                p_m2[xi, r, m1] = probs

    y_vals = np.array([0.0, 1.0, 3.5])
    p_y = np.zeros((3, 2, 2, 3, 3))
    for xi, x in enumerate(x_states):
        for r in (0, 1):
            for m1 in (0, 1):
                for m2 in range(3):
                    scores = np.array([
                        0.0,
                        -0.2 + 0.6 * r + 0.5 * m1 + 0.3 * m2,
                        -1.0 + 0.4 * r + 0.2 * m1 + 0.6 * m2 + 0.2 * x,
                    ])
                    probs = np.exp(scores) / np.exp(scores).sum()
                    probs = np.round(probs, 4)
                    probs[0] = 1.0 - probs[1:].sum()
                    p_y[xi, r, m1, m2] = probs

    return DiscreteDgp(
        x_values=x_states[:, None],
        p_x=p_x,
        p_r1=p_r1,
        mediators=(
            MediatorTable(np.array([0.0, 1.0]), _bern_table(p_m1)),
            MediatorTable(m2_vals, p_m2),
        ),
        y_values=y_vals,
        p_y=p_y,
    )


def toy_k4() -> DiscreteDgp:
    """Four binary blocks over binary X and Y with every pathway active."""
    x_states = np.array([0.0, 1.0])
    p_x = np.array([0.6, 0.4])
    p_r1 = np.array([0.45, 0.62])

    def block(k: int, coef_r: float, coef_x: float, coef_prev: float) -> np.ndarray:
        shape = (2, 2) + (2,) * (k - 1)
        p1 = np.zeros(shape)
        for idx in np.ndindex(shape):
            xi, r = idx[0], idx[1]
            prev = sum(idx[2:])
            p1[idx] = round(float(expit(-0.3 + coef_r * r + coef_x * x_states[xi] + coef_prev * prev)), 4)
        return _bern_table(p1)

    mediators = tuple(
        MediatorTable(np.array([0.0, 1.0]), block(k, coef_r, coef_x, coef_prev))
        for k, (coef_r, coef_x, coef_prev) in enumerate(
            [(0.9, 0.5, 0.0), (0.7, -0.4, 0.5), (0.5, 0.3, 0.35), (0.8, 0.2, 0.25)], start=1
        )
    )

    shape_y = (2, 2, 2, 2, 2, 2)
    p_y1 = np.zeros(shape_y)
    for idx in np.ndindex(shape_y):
        xi, r = idx[0], idx[1]
        m = idx[2:]
        score = -0.8 + 0.6 * r + 0.4 * x_states[xi] + 0.5 * m[0] + 0.35 * m[1] + 0.3 * m[2] + 0.45 * m[3]
        p_y1[idx] = round(float(expit(score)), 4)

    return DiscreteDgp(
        x_values=x_states[:, None],
        p_x=p_x,
        p_r1=p_r1,
        mediators=mediators,
        y_values=np.array([0.0, 1.0]),
        p_y=_bern_table(p_y1),
    )


def toy_dyadic_k2() -> DiscreteDgp:
    """All probabilities are multiples of 1/8, so the full population can be
    laid out as an integer-weighted finite frame (used to check that
    saturated-table fits reproduce exact conditional expectations)."""
    x_states = np.array([0.0, 1.0])
    p_x = np.array([0.5, 0.5])
    p_r1 = np.array([0.5, 0.25])
    p_m1 = np.array([[0.25, 0.5], [0.5, 0.75]])  # (x, r)
    p_m2 = np.zeros((2, 2, 2))  # (x, r, m1)
    for xi in range(2):
        for r in (0, 1):
            for m1 in (0, 1):
                p_m2[xi, r, m1] = (2 + 2 * r + m1 + xi) / 8.0
    p_y1 = np.zeros((2, 2, 2, 2))
    for xi in range(2):
        for r in (0, 1):
            for m1 in (0, 1):
                for m2 in (0, 1):
                    p_y1[xi, r, m1, m2] = (1 + r + 2 * m1 + m2 + xi) / 8.0
    return DiscreteDgp(
        x_values=x_states[:, None],
        p_x=p_x,
        p_r1=p_r1,
        mediators=(
            MediatorTable(np.array([0.0, 1.0]), _bern_table(p_m1)),
            MediatorTable(np.array([0.0, 1.0]), _bern_table(p_m2)),
        ),
        y_values=np.array([0.0, 1.0]),
        p_y=_bern_table(p_y1),
    )


FIXTURES = {"toy_k1": toy_k1, "toy_k2": toy_k2, "toy_k4": toy_k4}


def fixture_path(name: str) -> str:
    """Filesystem path of a shipped fixture (toy_k1, toy_k2, toy_k4)."""
    from importlib.resources import files

    return str(files("pathshift") / "fixtures" / f"{name}.json")
