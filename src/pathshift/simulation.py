"""Simulation DGPs, counterfactual truths, and the replication-grid harness.

Two synthetic generators are built in, plus discrete-table DGPs handled by
the enumeration oracle:

* ``sim1_meps_like`` - three covariates, four ordered mediator blocks (three
  of them bivariate with correlated latent normals), and a zero-inflated
  outcome whose positive part is lognormal; analyzed on the composite
  indicator-times-log scale.
* ``sim2_misspec`` - four uniform covariates, four univariate normal
  mediators, normal outcome; every nuisance is exactly a main-effects GLM, so
  misspecification can be injected by swapping in the transformed covariates
  x_false = (x1^2, e^x2, x3^0.3, (x4 + x3^0.3)/(e^x2 + x1^2)).

``truth_for(spec, target)`` is the one route to a ground truth: discrete
toys are enumerated exactly, sim2 means come in closed form from
:class:`Sim2Exact`, and sim1 is simulated by Monte Carlo over the structural
cascade, with a contrast's two means sharing their draws.

``run_grid`` replicates estimation over (estimand x n x method) cells with
per-replicate seeds ``base_seed + rep`` and aggregates bias/SD/MSE/coverage
and the root-n-scaled diagnostics. For sim2 the generating model is linear-
Gaussian, so exact nuisance functions and exact counterfactual means are
available in closed form; the grid can use the exact influence function as a
control variate to measure small biases precisely (``oracle_centering``).
"""

from __future__ import annotations

import csv
import io
import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy.special import expit, logit

from .data import AnalysisFrame
from .decomposition import contrast
from .estimators import estimate, gamma_summands
from .nuisance import EstimandId, NuisanceCache, NuisanceLearners, NuisanceSet, fit_all
from .learners import default_binary_sl, default_continuous_sl
from .parallel import fork_map, usable_cores
from . import oracle as oracle_mod

DGP_KINDS = ("sim1_meps_like", "sim2_misspec", "discrete_toy")

SIM2_COEFFS = {
    "V_R": np.array([-0.10, 1.00, 0.20, -0.40, 0.80]),
    "V_M1": np.array([-0.13, 0.23, -0.18, 0.15, -0.16, 0.13]),
    "V_M2": np.array([-0.11, -0.06, 0.20, 0.25, 0.02, -0.12, 0.16]),
    "V_M3": np.array([-0.24, -0.08, -0.15, 0.03, 0.14, 0.06, -0.14, 0.09]),
    "V_M4": np.array([-0.13, -0.09, -0.04, 0.10, -0.25, -0.05, -0.08, 0.19, -0.20]),
    "V_Y": np.array([0.43, 0.29, 0.28, -0.26, -0.38, 0.18, 0.39, -0.22, -0.13, 0.28]),
}

SIM1_COEFFS = {
    "V_R": np.array([-0.34, 0.38, -0.24, 0.31, -0.44]),
    "V_M11": np.array([-0.09, 0.56, 0.26, 0.23, -0.28]),
    "V_M12": np.array([-0.43, 0.44, 0.17, 0.33, -0.33]),
    "V_M2": np.array([-0.15, 0.80, 0.36, 0.16, 0.48, -0.23, 0.39]),
    "V_M31": np.array([-0.23, 0.61, 0.23, 0.35, 0.48, -0.24, 0.24, 0.34]),
    "V_M32": np.array([-0.46, 0.57, 0.33, 0.21, 0.23, 0.13, -0.16, -0.12]),
    "V_M41": np.array([-0.50, 0.31, 0.48, 0.17, 0.40, 0.18, 0.37, 0.39, -0.38]),
    "V_M42": np.array([-0.47, 0.45, 0.31, 0.43, 0.14, 0.39, 0.44, -0.36, -0.49]),
    "V_Y": np.array([0.61, 0.57, 0.53, 0.45, 0.81, 0.87, 0.92, 0.23, 0.37, 0.69, 0.95, -0.47, 0.14, -0.64]),
}

_LATENT_CHOL = np.linalg.cholesky(np.array([[1.0, 0.5], [0.5, 1.0]]))


class SimulationError(ValueError):
    """Invalid DGP specification or grid request."""


@dataclass(frozen=True)
class DgpSpec:
    kind: str
    coeffs: dict = field(default_factory=dict)
    seed: int = 0
    tables: "oracle_mod.DiscreteDgp | None" = None

    def __post_init__(self):
        if self.kind not in DGP_KINDS:
            raise SimulationError(f"unknown DGP kind {self.kind!r}")
        if self.kind == "discrete_toy":
            if self.tables is None:
                raise SimulationError("discrete_toy needs probability tables")
            return
        defaults = SIM1_COEFFS if self.kind == "sim1_meps_like" else SIM2_COEFFS
        merged = {}
        for name, default in defaults.items():
            value = np.asarray(self.coeffs.get(name, default), dtype=float)
            if value.shape != default.shape:
                raise SimulationError(f"{name} must have length {default.shape[0]}")
            merged[name] = value
        object.__setattr__(self, "coeffs", merged)

    @property
    def n_blocks(self) -> int:
        if self.kind == "discrete_toy":
            return self.tables.n_blocks
        return 4


def _generators(streams: dict, seed: int, chunk: int = 0) -> dict:
    """One generator per random stream, seeded ``(seed, stream, chunk)``."""
    return {s: np.random.default_rng(np.random.SeedSequence([int(seed), int(s), int(chunk)])) for s in streams}


def _draw(gens: dict, streams: dict, n: int) -> dict:
    """The next n rows of every stream. A stream's generator fills rows in
    order, so drawing n rows in blocks gives the same values as one draw."""
    return {s: getattr(gens[s], sampler)((n, cols) if cols else n) for s, (sampler, cols) in streams.items()}


# ---------------------------------------------------------------------------
# sim2: four uniform covariates, normal mediators and outcome
# ---------------------------------------------------------------------------

# stream id -> (sampler, columns per row; 0 for a flat vector)
_SIM2_OBSERVED = {0: ("random", 4), 1: ("random", 0), **{s: ("standard_normal", 0) for s in range(2, 7)}}


def _sim2_columns(spec: DgpSpec, d: dict):
    """Evaluate the sim2 cascade on the draws ``d``; returns (x, r, mediators,
    the outcome's conditional mean)."""
    c = spec.coeffs
    x = d[0]
    n = x.shape[0]
    r = (d[1] < expit(np.column_stack([np.ones(n), x]) @ c["V_R"])).astype(float)
    ms = []
    for k in range(1, 5):
        design = np.column_stack([np.ones(n), x, r] + ms)
        mean = design @ c[f"V_M{k}"]
        ms.append(mean + d[1 + k])
    design_y = np.column_stack([np.ones(n), x, r] + ms)
    ey = design_y @ c["V_Y"]
    return x, r, ms, ey


def _generate_sim2(spec: DgpSpec, n: int, seed: int) -> AnalysisFrame:
    d = _draw(_generators(_SIM2_OBSERVED, seed), _SIM2_OBSERVED, n)
    x, r, ms, ey = _sim2_columns(spec, d)
    y = ey + d[6]
    return AnalysisFrame(
        x=x,
        r=r.astype(np.int8),
        m_blocks=tuple(m[:, None] for m in ms),
        y=y,
        scale_applied="raw",
        covariate_names=("x1", "x2", "x3", "x4"),
        block_names=(("m1",), ("m2",), ("m3",), ("m4",)),
    )


class Sim2Exact:
    """Closed-form conditional means and probabilities of the sim2 cascade.

    Linear forms live on the basis [1, x1..x4, r, m1..m4]; conditioning on a
    group arm or integrating a mediator out at an arm folds coefficients into
    the remaining ones.
    """

    R_POS = 5

    def __init__(self, spec: DgpSpec):
        if spec.kind != "sim2_misspec":
            raise SimulationError("closed-form nuisances exist for sim2 only")
        self.c = spec.coeffs
        self.m_forms = []
        for k in range(1, 5):
            form = np.zeros(10)
            form[: 5 + k] = self.c[f"V_M{k}"]
            self.m_forms.append(form)
        self.y_form = self.c["V_Y"].copy()

    def _fold_r(self, form: np.ndarray, arm: int) -> np.ndarray:
        out = form.copy()
        out[0] += out[self.R_POS] * arm
        out[self.R_POS] = 0.0
        return out

    def _fold_m(self, form: np.ndarray, j: int, arm: int) -> np.ndarray:
        """Replace m_j by its conditional mean at the given arm."""
        pos = self.R_POS + j
        coef = form[pos]
        out = form.copy()
        out[pos] = 0.0
        return out + coef * self._fold_r(self.m_forms[j - 1], arm)

    def fold_blocks(self, form: np.ndarray, prefix: int, arm: int) -> np.ndarray:
        """Integrate m_{prefix+1}..m_4 out of a form, each at its law under the arm."""
        for j in range(4, prefix, -1):
            form = self._fold_m(form, j, arm)
        return form

    def gamma(self, estimand: EstimandId) -> float:
        estimand.validate(4)
        arms = estimand.mediator_arms(4)
        form = self._fold_r(self.y_form, estimand.r0)
        for j in range(4, 0, -1):
            form = self._fold_m(form, j, arms[j - 1])
        return float(form[0] + 0.5 * form[1:5].sum())

    def _basis(self, frame: AnalysisFrame) -> np.ndarray:
        n = frame.n
        return np.column_stack([np.ones(n), frame.x, np.zeros(n), frame.m_upto(4)])

    def pi_vec(self, frame: AnalysisFrame) -> np.ndarray:
        return expit(np.column_stack([np.ones(frame.n), frame.x]) @ self.c["V_R"])

    def g_vec(self, frame: AnalysisFrame, k: int) -> np.ndarray:
        """P(R=1 | m_1..k, x): the Gaussian likelihood ratio telescopes to a
        logistic-linear form in (x, m_1..k)."""
        basis = self._basis(frame)
        lo = logit(self.pi_vec(frame))
        m = frame.m_upto(4)
        for j in range(1, k + 1):
            a0 = basis @ self._fold_r(self.m_forms[j - 1], 0)
            a1 = basis @ self._fold_r(self.m_forms[j - 1], 1)
            lo = lo + (a1 - a0) * m[:, j - 1] - (a1**2 - a0**2) / 2.0
        return expit(lo)

    def nuisance_set(self, frame: AnalysisFrame, estimand: EstimandId) -> NuisanceSet:
        return fit_all(frame, estimand, cache=_Sim2Rows(self, frame))


class _Sim2Rows:
    """Exact sim2 nuisances on a frame's rows; chain levels are linear forms.
    Nothing is truncated, so ``delta`` is 0."""

    n_blocks = 4
    delta = 0.0

    def __init__(self, exact: Sim2Exact, frame: AnalysisFrame):
        self.exact = exact
        self.frame = frame
        self.basis = exact._basis(frame)

    def rows(self, form: np.ndarray) -> np.ndarray:
        return self.basis @ form

    def pi(self) -> np.ndarray:
        return self.exact.pi_vec(self.frame)

    def g(self, k: int) -> np.ndarray:
        return self.exact.g_vec(self.frame, k)

    def level(self, parent: np.ndarray | None, prefix: int, arm: int) -> np.ndarray:
        form = self.exact._fold_r(self.exact.y_form, arm) if parent is None else parent
        return self.exact.fold_blocks(form, prefix, arm)


# ---------------------------------------------------------------------------
# sim1: MEPS-like zero-inflated cascade
# ---------------------------------------------------------------------------

# stream id -> (sampler, columns per row; 0 for a flat vector). Streams 1 (the
# group R) and 9 (the positive-part indicator) are drawn for observed data only.
_SIM1_STREAMS = {
    0: ("random", 3), 2: ("standard_normal", 2), 3: ("random", 0), 4: ("random", 0),
    5: ("standard_normal", 2), 6: ("random", 2), 7: ("standard_normal", 2), 8: ("random", 0),
}
_SIM1_OBSERVED = {**_SIM1_STREAMS, 1: ("random", 0), 9: ("random", 0)}


def _sim1_cascade(spec: DgpSpec, d: dict, arms: tuple | None = None, r0: int | None = None):
    """Evaluate the sim1 cascade on the draws ``d``; returns (x_cols, r, blocks, y_star).

    With ``arms`` given, the cascade is counterfactual: each mediator block
    uses its own arm wherever R enters its equation, and the outcome linear
    predictor uses r0.
    """
    c = spec.coeffs
    u = d[0]
    n = u.shape[0]
    x1, x2 = 2.0 * u[:, 0], 2.0 * u[:, 1]
    x3 = (u[:, 2] < 0.5).astype(float)

    if arms is None:
        feats_r = np.column_stack([
            np.ones(n), np.sqrt(x1), np.sqrt(x1) * x2**1.5 * x3, x2**2, x2 / (1.0 + x1 + x3),
        ])
        r = (d[1] < expit(feats_r @ c["V_R"])).astype(float)
        r_for = [r] * 4
        r_y = r
    else:
        r = None
        r_for = [np.full(n, float(a)) for a in arms]
        r_y = np.full(n, float(r0))

    # block 1: bivariate latent normal, continuous M11 and binary M12
    r1 = r_for[0]
    mean11 = np.column_stack([np.ones(n), r1, x1 * x2, np.sqrt(x2) * x3, r1 * x3]) @ c["V_M11"]
    mean12 = np.column_stack([np.ones(n), r1, x1**2, x2, x3]) @ c["V_M12"]
    z1 = d[2] @ _LATENT_CHOL.T
    m11 = mean11 + z1[:, 0]
    m12 = (d[3] < expit(mean12 + z1[:, 1])).astype(float)

    r2 = r_for[1]
    feats2 = np.column_stack([np.ones(n), r2, r2 * x3, r2 * m11, m12 * x2, x1, m11 / (1.0 + x2)])
    m2 = (d[4] < expit(feats2 @ c["V_M2"])).astype(float)

    r3 = r_for[2]
    mean31 = np.column_stack([np.ones(n), r3, r3 * m11, m12, r3 * m2, x1, x2, r3 * x3]) @ c["V_M31"]
    mean32 = np.column_stack([np.ones(n), r3, m11, m12, r3 * m2, np.sqrt(x1), x2, x3]) @ c["V_M32"]
    z3 = d[5] @ _LATENT_CHOL.T
    u3 = d[6]
    m31 = (u3[:, 0] < expit(mean31 + z3[:, 0])).astype(float)
    m32 = (u3[:, 1] < expit(mean32 + z3[:, 1])).astype(float)

    r4 = r_for[3]
    mean41 = np.column_stack([np.ones(n), r4, m11, m12, m2, m31 * m32, r4 * x1, x2, x2 * x3]) @ c["V_M41"]
    mean42 = np.column_stack([np.ones(n), r4, m11, m12, m2, m31 * m32, x1, x2, x3]) @ c["V_M42"]
    z4 = d[7] @ _LATENT_CHOL.T
    m41 = mean41 + z4[:, 0]
    m42 = (d[8] < expit(mean42 + z4[:, 1])).astype(float)

    feats_y = np.column_stack([
        np.ones(n), r_y, m11 * np.sqrt(x1), m12 * x2**2, m2 * x1**3 * np.sqrt(x2),
        m31 * np.exp(x1**0.1), r_y * m32, m41, m42, m41 * x1, r_y * m2 * x2,
        np.cos(x1 * x2), x3, np.sqrt(x1 + x2),
    ])
    y_star = feats_y @ c["V_Y"]
    x_cols = np.column_stack([x1, x2, x3])
    blocks = (
        np.column_stack([m11, m12]),
        m2[:, None],
        np.column_stack([m31, m32]),
        np.column_stack([m41, m42]),
    )
    return x_cols, r, blocks, y_star


def _generate_sim1(spec: DgpSpec, n: int, seed: int, return_latents: bool = False):
    d = _draw(_generators(_SIM1_OBSERVED, seed), _SIM1_OBSERVED, n)
    x_cols, r, blocks, y_star = _sim1_cascade(spec, d)
    positive = (d[9] < expit(y_star)).astype(float)
    # positive part is LogNormal(log-mean 0.4 y*, log-sd 0): exactly exp(0.4 y*)
    y_composite = positive * 0.4 * y_star
    frame = AnalysisFrame(
        x=x_cols,
        r=r.astype(np.int8),
        m_blocks=blocks,
        y=y_composite,
        scale_applied="log_positive",
        covariate_names=("x1", "x2", "x3"),
        block_names=(("m11", "m12"), ("m2",), ("m31", "m32"), ("m41", "m42")),
    )
    if return_latents:
        return frame, {"y_star": y_star, "positive": positive, "y_raw": positive * np.exp(0.4 * y_star)}
    return frame


def generate(spec: DgpSpec, n: int, seed: int | None = None, return_latents: bool = False):
    """Draw an analysis-ready frame from the DGP; deterministic given the seed.

    For sim1 and sim2 the sampling streams are per variable, so for a fixed
    seed the n-row draw matches the first n rows of a larger draw, except in
    the last bits of some mediator and outcome values: OpenBLAS's dgemv
    rounds a product's leftover rows (past its 4-row groups) differently.
    Discrete toys draw afresh for each n.
    """
    if n < 1:
        raise SimulationError("n must be >= 1")
    seed = spec.seed if seed is None else seed
    if spec.kind == "sim2_misspec":
        frame = _generate_sim2(spec, n, seed)
        return (frame, {}) if return_latents else frame
    if spec.kind == "sim1_meps_like":
        return _generate_sim1(spec, n, seed, return_latents)
    frame, states = oracle_mod.sample(spec.tables, n, seed)
    return (frame, {"states": states}) if return_latents else frame


def misspecified_matrix(frame: AnalysisFrame) -> np.ndarray:
    """The nonlinear covariate transform used to misspecify nuisance models."""
    x = frame.x
    if x.shape[1] < 4:
        raise SimulationError("covariate misspecification needs at least 4 covariates")
    x1, x2, x3, x4 = x[:, 0], x[:, 1], x[:, 2], x[:, 3]
    x3t = x3**0.3
    out = x.copy()
    out[:, 0] = x1**2
    out[:, 1] = np.exp(x2)
    out[:, 2] = x3t
    out[:, 3] = (x4 + x3t) / (np.exp(x2) + x1**2)
    return out


@dataclass(frozen=True)
class TruthValue:
    value: float
    se: float
    n_draws: int


@dataclass(frozen=True)
class RhoSpec:
    """A disparity component: the difference of two counterfactual means.

    Grid cells for a RhoSpec replicate the contrast with its EIF-difference
    confidence interval, as reported for the disparity components.
    """

    minuend: EstimandId
    subtrahend: EstimandId

    @property
    def label(self) -> str:
        return f"rho[{self.minuend.label}-{self.subtrahend.label}]"

    def validate(self, n_blocks: int) -> None:
        self.minuend.validate(n_blocks)
        self.subtrahend.validate(n_blocks)

    @staticmethod
    def mediator(k: int) -> "RhoSpec":
        return RhoSpec(EstimandId.mediator(k), EstimandId.dis())

    @staticmethod
    def direct() -> "RhoSpec":
        return RhoSpec(EstimandId.direct(), EstimandId.dis())

    @staticmethod
    def total() -> "RhoSpec":
        return RhoSpec(EstimandId.adv(), EstimandId.dis())


def _means(target: "EstimandId | RhoSpec") -> tuple[EstimandId, ...]:
    """The counterfactual means a target is made of: ``(e,)`` or ``(minuend, subtrahend)``."""
    return (target.minuend, target.subtrahend) if isinstance(target, RhoSpec) else (target,)


def _difference(values):
    """A target's value from its :func:`_means`' values: the one value, or the first minus the second."""
    return values[0] if len(values) == 1 else values[0] - values[1]


TRUTH_CHUNK = 1_000_000
# Rows per block of a truth chunk: small enough that a block's designs stay in
# cache. A power of two, so block edges fall on the 4-row groups of OpenBLAS's
# dgemv kernel, as they do in one product over the whole chunk: the kernel
# rounds a product's leftover rows differently, and 4,097- or 12,345-row blocks
# change the last bits of some draws.
TRUTH_BLOCK = 16_384


def _chunk_values(spec: DgpSpec, settings: tuple, m: int, seed: int, chunk: int) -> np.ndarray:
    """One chunk's m per-draw values of a sim1 mean (one arm setting
    ``(r0, arms)``) or of a contrast (two settings, the first minus the second):
    the expected composite outcome given a counterfactual cascade draw.

    Every block draws the next rows of each stream once and evaluates every
    setting on them, so the settings of a contrast are coupled draw by draw.
    """
    gens = _generators(_SIM1_STREAMS, seed, chunk)
    edges = list(range(0, m, TRUTH_BLOCK)) + [m]
    if len(edges) > 2 and m - edges[-2] == 1:
        # numpy computes a one-row product as a dot product, which rounds
        # differently from that row of a longer product: keep a last lone
        # row in the block before it
        del edges[-2]
    out = np.empty(m)
    for lo, hi in zip(edges, edges[1:]):
        d = _draw(gens, _SIM1_STREAMS, hi - lo)
        y_stars = (_sim1_cascade(spec, d, arms=arms, r0=r0)[3] for r0, arms in settings)
        out[lo:hi] = _difference([expit(y) * 0.4 * y for y in y_stars])
    return out


def _mc_mean(spec: DgpSpec, settings: tuple, n_draws: int, seed: int) -> TruthValue:
    """Monte-Carlo mean and its SE over chunks of at most ``TRUTH_CHUNK`` draws.

    Chunks run on one thread per usable core (numpy releases the GIL in the
    bulk work); their sums are added in chunk order, so the result does not
    depend on the thread count.
    """
    sizes = [min(TRUTH_CHUNK, n_draws - lo) for lo in range(0, n_draws, TRUTH_CHUNK)]

    def moments(chunk: int) -> tuple[float, float]:
        vals = _chunk_values(spec, settings, sizes[chunk], seed, chunk)
        return float(vals.sum()), float((vals**2).sum())

    total = 0.0
    total_sq = 0.0
    with ThreadPoolExecutor(max_workers=min(len(sizes), usable_cores())) as pool:
        for chunk_sum, chunk_sq in pool.map(moments, range(len(sizes))):
            total += chunk_sum
            total_sq += chunk_sq
    mean = total / n_draws
    var = max(total_sq / n_draws - mean**2, 0.0)
    return TruthValue(mean, float(np.sqrt(var / n_draws)), n_draws)


def truth_for(spec: DgpSpec, target: "EstimandId | RhoSpec", n_draws: int = 2_000_000, seed: int = 977) -> TruthValue:
    """Ground truth of a counterfactual mean or of a contrast of two.

    Discrete DGPs are enumerated exactly and sim2 means are read from the
    closed form of :class:`Sim2Exact`; both come with SE 0 and no draws. For
    sim1, ``n_draws`` counterfactual cascades are drawn and the outcome's
    conditional mean given each is averaged (same estimand, smaller
    Monte-Carlo error), on the composite indicator-times-log scale the
    estimators target. A contrast's two means share their random streams
    draw by draw, which makes its Monte-Carlo error far smaller than for
    independent draws.
    """
    K = spec.n_blocks
    target.validate(K)
    means = _means(target)
    if spec.kind == "discrete_toy":
        return TruthValue(_difference([oracle_mod.enumerate_gamma(spec.tables, e) for e in means]), 0.0, 0)
    if n_draws < 1:
        raise SimulationError(f"truth draws must be >= 1, got {n_draws}")
    if spec.kind == "sim2_misspec":
        return TruthValue(_difference([Sim2Exact(spec).gamma(e) for e in means]), 0.0, 0)
    return _mc_mean(spec, tuple((e.r0, e.mediator_arms(K)) for e in means), n_draws, seed)


# ---------------------------------------------------------------------------
# replication grid
# ---------------------------------------------------------------------------

ALL_FALSE_ROUTE = (("pi", "false"), ("g", "false"), ("Q", "false"))


@dataclass(frozen=True)
class MethodSpec:
    """A nuisance-estimation recipe for one grid cell."""

    name: str
    learners: NuisanceLearners = field(default_factory=NuisanceLearners)
    route: tuple[tuple[str, str], ...] = ()
    delta: float = 0.01
    folds: int | None = None


def glm_method(name: str = "glm_correct", route: tuple = ()) -> MethodSpec:
    return MethodSpec(name=name, learners=NuisanceLearners(), route=route)


def glm_false_method() -> MethodSpec:
    return glm_method("glm_false", ALL_FALSE_ROUTE)


def sl_method(name: str = "sl") -> MethodSpec:
    return MethodSpec(name=name, learners=NuisanceLearners(binary=default_binary_sl(), continuous=default_continuous_sl()))


def robustness_conditions(estimand: EstimandId, n_blocks: int) -> tuple[MethodSpec, ...]:
    """The estimand's multiply-robust conditions, read off its chain of levels
    (p_j, t_j), j = 0..J (Rotnitzky, Robins & Babino 2017).

    Condition t = 0..J+1 keeps Q_0..Q_{t-1} correct and, for t <= J, every
    factor of the weight W_t: pi and, for each later level l with t_l != t_t,
    g at p_{l-1} and at p_l (a prefix of 0 means pi). Every other nuisance
    uses x_false. The condition is named ``robust_c{t+1}_`` followed by what
    it keeps: pi, then g{k} by decreasing k, then Q{j} by increasing j.
    """
    if not isinstance(estimand, EstimandId):
        raise SimulationError("the misspecification grid applies to counterfactual means, not contrasts")
    chain = estimand.chain(n_blocks)
    names = ["pi"] + [f"g{p}" for p, _ in chain if p] + [f"Q{j}" for j in range(len(chain))]
    conditions = []
    for t in range(len(chain) + 1):
        kept = {f"Q{j}" for j in range(t)}
        if t < len(chain):
            kept.add("pi")
            for l in range(t + 1, len(chain)):
                if chain[l][1] != chain[t][1]:
                    kept.update(f"g{p}" for p in (chain[l - 1][0], chain[l][0]) if p)
        tag = "_".join(nm for nm in names if nm in kept)
        route = tuple((nm, "false") for nm in names if nm not in kept)
        conditions.append(glm_method(f"robust_c{t + 1}_{tag}", route))
    return tuple(conditions)


@dataclass(frozen=True)
class CellResult:
    estimand: str
    n: int
    method: str
    reps: int
    truth: float
    truth_se: float
    bias: float
    sd: float
    mse: float
    coverage: float
    ci_width: float
    sqrt_n_bias: float
    n_var: float
    bias_centered: float | None
    failures: int

    def to_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__dataclass_fields__}


@dataclass(frozen=True)
class SimReport:
    cells: tuple[CellResult, ...]
    meta: dict

    def cell(self, estimand: str, n: int, method: str) -> CellResult:
        for c in self.cells:
            if (c.estimand, c.n, c.method) == (estimand, n, method):
                return c
        raise KeyError((estimand, n, method))

    def to_json(self) -> str:
        return json.dumps({"meta": self.meta, "cells": [c.to_dict() for c in self.cells]}, indent=2, sort_keys=True)

    def to_csv(self) -> str:
        buf = io.StringIO()
        fields = list(CellResult.__dataclass_fields__)
        writer = csv.writer(buf)
        writer.writerow(fields)
        for c in self.cells:
            writer.writerow([getattr(c, f) for f in fields])
        return buf.getvalue()

    def curve_files(self, directory: str, prefix: str = "curves") -> list[str]:
        """Plain-text (gnuplot-ready) root-n-bias and n-variance curves."""
        os.makedirs(directory, exist_ok=True)
        written = []
        pairs = sorted({(c.estimand, c.method) for c in self.cells})
        for est, method in pairs:
            rows = sorted((c.n, c) for c in self.cells if (c.estimand, c.method) == (est, method))
            path = os.path.join(directory, f"{prefix}_{est}_{method}.dat")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write("# n sqrt_n_abs_bias n_var sqrt_n_abs_bias_centered\n")
                for n, c in rows:
                    centered = abs(c.bias_centered) * np.sqrt(n) if c.bias_centered is not None else float("nan")
                    handle.write(f"{n} {abs(c.sqrt_n_bias):.10g} {c.n_var:.10g} {centered:.10g}\n")
            written.append(path)
        return written


def _run_one_rep(args):
    """One replicate: generate its frame once and evaluate each (method,
    target) cell of its n on it, one ``("ok", (point, lo, hi, hbar))`` or
    ``("error", reason)`` per cell.

    Equal methods share one nuisance cache, and each counterfactual mean is
    estimated once per method, however many contrasts share it. Targets may
    be means (EstimandId) or disparity contrasts (RhoSpec); the latter get
    EIF-difference confidence intervals from :func:`contrast`. A failure
    fails only the cells that meet it.
    """
    spec, cells, n, seed, centering, alpha = args
    try:
        frame = generate(spec, n, seed=seed)
        exact = Sim2Exact(spec) if centering else None
    except Exception as err:  # noqa: BLE001 - a failed replicate must not kill the grid
        return [("error", repr(err))] * len(cells)
    caches: dict[MethodSpec, NuisanceCache] = {}
    memo: dict[tuple[MethodSpec, EstimandId], tuple] = {}

    def gamma_est(method, estimand):
        if method not in caches:
            x_alt = misspecified_matrix(frame) if any(v == "false" for _, v in method.route) else None
            caches[method] = NuisanceCache(
                frame, method.learners, method.delta, method.folds, seed, x_alt=x_alt, route=dict(method.route)
            )
        if (method, estimand) not in memo:
            est = estimate(frame, fit_all(frame, estimand, cache=caches[method]))
            hbar = None
            if exact is not None:
                hbar = float(np.mean(gamma_summands(frame.y, frame.r, exact.nuisance_set(frame, estimand))))
            memo[method, estimand] = (est, hbar)
        return memo[method, estimand]

    out = []
    for method, target in cells:
        try:
            ests, hbars = zip(*(gamma_est(method, mean) for mean in _means(target)))
            if len(ests) == 1:
                point, (lo, hi) = ests[0].point, ests[0].ci(alpha)
            else:
                c = contrast(*ests, target.label, alpha)
                point, (lo, hi) = c.point, c.ci
            out.append(("ok", (point, lo, hi, None if exact is None else _difference(hbars))))
        except Exception as err:  # noqa: BLE001 - a failed cell must not kill the replicate
            out.append(("error", repr(err)))
    return out


def run_grid(
    spec: DgpSpec,
    estimands: tuple[EstimandId, ...],
    n_list: tuple[int, ...],
    reps: int,
    methods: "tuple[MethodSpec, ...] | dict[str, tuple[MethodSpec, ...]]",
    base_seed: int = 0,
    truths: dict[str, TruthValue] | None = None,
    truth_draws: int = 2_000_000,
    truth_seed: int = 977,
    alpha: float = 0.05,
    n_jobs: int = 1,
    oracle_centering: bool = False,
) -> SimReport:
    """Replicate estimation over every (estimand, n, method) cell.

    ``methods`` is either one tuple applied to all estimands or a mapping
    from estimand label to its own tuple (as the robustness grid needs).
    Replicate seeds are ``base_seed + rep``; failures are recorded per cell
    and the run continues. A method that routes any nuisance to x_false is
    rejected up front unless the DGP is sim2, the only one that defines it,
    as are a sample size below 1 and an ``alpha`` outside (0, 1).
    ``oracle_centering`` (sim2 only) additionally reports bias measured
    against the exact-influence-function control variate, which strips the
    leading Monte-Carlo noise from the bias estimate without changing its
    expectation.
    """
    if reps < 1:
        raise SimulationError("reps must be >= 1")
    for n in n_list:
        if n < 1:
            raise SimulationError(f"sample sizes must be >= 1, got {n}")
    if not 0 < alpha < 1:
        raise SimulationError(f"alpha must lie in (0, 1), got {alpha}")
    exact = Sim2Exact(spec) if oracle_centering else None  # raises unless the DGP is sim2
    method_lists = methods.values() if isinstance(methods, dict) else (methods,)
    for method in (m for ms in method_lists for m in ms):
        if spec.kind != "sim2_misspec" and any(v == "false" for _, v in method.route):
            raise SimulationError(
                f"method {method.name!r} routes nuisances to x_false, which the {spec.kind} DGP does not define"
            )
    truths = dict(truths or {})
    for estimand in estimands:
        if estimand.label not in truths:
            truths[estimand.label] = truth_for(spec, estimand, truth_draws, truth_seed)

    gamma_exact = {}
    if exact is not None:
        gamma_exact = {e.label: _difference([exact.gamma(m) for m in _means(e)]) for e in estimands}

    # the report's cells: estimand-major for a per-estimand mapping, else by
    # n, then method, then estimand; one task per (n, rep) fills every cell of its n
    if isinstance(methods, dict):
        cells = [(e, n, m) for e in estimands for n in n_list for m in methods[e.label]]
    else:
        cells = [(e, n, m) for n in n_list for m in methods for e in estimands]
    at = {n: [i for i, cell in enumerate(cells) if cell[1] == n] for n in n_list}
    tasks = [
        (spec, tuple((cells[i][2], cells[i][0]) for i in at[n]), n, base_seed + rep, oracle_centering, alpha)
        for n in at
        for rep in range(reps)
    ]
    outcomes = [[] for _ in cells]
    for (_, _, n, *_), result in zip(tasks, fork_map(_run_one_rep, tasks, n_jobs)):
        for i, outcome in zip(at[n], result):
            outcomes[i].append(outcome)
    report = tuple(
        _aggregate_cell(e, n, m, outcomes[i], truths[e.label], gamma_exact.get(e.label))
        for i, (e, n, m) in enumerate(cells)
    )

    meta = {
        "dgp": spec.kind,
        "base_seed": base_seed,
        "reps": reps,
        "alpha": alpha,
        "truth_draws": max((t.n_draws for t in truths.values()), default=0),
        "truth_seed": truth_seed,
        "truths": {k: [v.value, v.se] for k, v in truths.items()},
        "oracle_centering": oracle_centering,
    }
    return SimReport(report, meta)


def _aggregate_cell(estimand, n, method, outcomes, truth: TruthValue, gamma_exact: float | None) -> CellResult:
    ok = [detail for status, detail in outcomes if status == "ok"]
    failures = len(outcomes) - len(ok)
    if not ok:
        nan = float("nan")
        return CellResult(
            estimand.label, n, method.name, 0, truth.value, truth.se,
            nan, nan, nan, nan, nan, nan, nan, None, failures,
        )
    points = np.array([r[0] for r in ok])
    lo = np.array([r[1] for r in ok])
    hi = np.array([r[2] for r in ok])
    reps = points.size
    bias = float(points.mean() - truth.value)
    sd = float(points.std(ddof=1)) if reps > 1 else 0.0
    mse = float(np.mean((points - truth.value) ** 2))
    coverage = float(np.mean((lo <= truth.value) & (truth.value <= hi)))
    width = float(np.mean(hi - lo))
    bias_centered = None
    if gamma_exact is not None and ok[0][3] is not None:
        hbar = np.array([r[3] for r in ok])
        bias_centered = float(np.mean(points - hbar) - (truth.value - gamma_exact))
    return CellResult(
        estimand=estimand.label,
        n=n,
        method=method.name,
        reps=reps,
        truth=truth.value,
        truth_se=truth.se,
        bias=bias,
        sd=sd,
        mse=mse,
        coverage=coverage,
        ci_width=width,
        sqrt_n_bias=float(np.sqrt(n) * bias),
        n_var=float(n * points.var(ddof=1)) if reps > 1 else 0.0,
        bias_centered=bias_centered,
        failures=failures,
    )
