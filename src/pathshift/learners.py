"""Self-contained supervised learners and a convex-combination super learner.

Every nuisance regression in the pipeline is fit through this module. The
learner set is deliberately self-contained (every solve is numpy.linalg)
so that results are bit-reproducible from a seed: closed-form (ridge) least
squares, IRLS logistic regression, depth-1 gradient-boosted stumps, k-nearest
neighbours, a saturated frequency-table learner for discrete problems, and a
cross-validated stacking ensemble whose weights are solved on the probability
simplex.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.special import expit

FEATURE_POLICIES = ("main_effects", "pairwise_interactions", "quadratic")
LEARNER_KINDS = ("mean", "linear", "logistic", "ridge", "boosted_stumps", "knn", "saturated")

LOGISTIC_TOL = 1e-8
LOGISTIC_MAX_ITER = 100
SEPARATION_RIDGE = 1e-4
WEIGHT_SOLVER_TOL = 1e-12


class LearnerError(ValueError):
    """A learner could not be fit on the data it was given."""


@dataclass(frozen=True)
class LearnerSpec:
    """Description of a single candidate learner.

    ``kind`` selects the algorithm; the remaining fields are only read by the
    kinds that use them. ``feature_policy`` controls the deterministic feature
    expansion applied before fitting.
    """

    kind: str
    feature_policy: str = "main_effects"
    ridge_lambda: float = 0.0
    rounds: int = 100
    shrinkage: float = 0.1
    knn_k: int = 10

    def __post_init__(self):
        if self.kind not in LEARNER_KINDS:
            raise LearnerError(f"unknown learner kind {self.kind!r}")
        if self.feature_policy not in FEATURE_POLICIES:
            raise LearnerError(f"unknown feature policy {self.feature_policy!r}")
        if self.ridge_lambda < 0:
            raise LearnerError("ridge_lambda must be >= 0")
        if self.rounds < 1:
            raise LearnerError("rounds must be >= 1")
        if not 0 < self.shrinkage <= 1:
            raise LearnerError("shrinkage must be in (0, 1]")
        if self.knn_k < 1:
            raise LearnerError("knn k must be >= 1")

    @property
    def name(self) -> str:
        bits = [self.kind]
        if self.kind == "ridge":
            bits.append(f"lam={self.ridge_lambda:g}")
        if self.kind == "boosted_stumps":
            bits.append(f"rounds={self.rounds}")
        if self.kind == "knn":
            bits.append(f"k={self.knn_k}")
        if self.feature_policy != "main_effects":
            bits.append(self.feature_policy)
        return ":".join(bits)


@dataclass(frozen=True)
class FittedModel:
    """A fitted prediction function.

    ``predict`` maps a raw (unexpanded) feature matrix to an n-vector.
    ``response_type`` is "probability" when predictions are guaranteed to lie
    in [0, 1], otherwise "continuous".
    """

    predict: Callable[[np.ndarray], np.ndarray]
    response_type: str
    training_meta: dict = field(default_factory=dict)


def expand_features(x: np.ndarray, policy: str) -> np.ndarray:
    """Deterministic polynomial feature expansion (no intercept column)."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if policy == "main_effects":
        return x
    n, p = x.shape
    cols = [x]
    if policy == "quadratic":
        cols.append(x**2)
    for i in range(p):
        for j in range(i + 1, p):
            cols.append((x[:, i] * x[:, j])[:, None])
    return np.hstack(cols)


def _design(x: np.ndarray) -> np.ndarray:
    x = np.atleast_2d(np.asarray(x, dtype=float))
    return np.hstack([np.ones((x.shape[0], 1)), x])


def _check_inputs(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.asarray(y, dtype=float).ravel()
    if x.shape[0] != y.shape[0]:
        raise LearnerError("feature matrix and response length differ")
    if x.shape[0] == 0:
        raise LearnerError("no rows to fit on")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise LearnerError("non-finite entries in training data")
    return x, y


def fit_mean(x: np.ndarray, y: np.ndarray) -> FittedModel:
    _, y = _check_inputs(x, y)
    mu = float(y.mean())

    def predict(xq, mu=mu):
        return np.full(np.atleast_2d(xq).shape[0], mu)

    return FittedModel(predict, "continuous", {"loss": float(np.mean((y - mu) ** 2))})


def fit_linear(
    x: np.ndarray,
    y: np.ndarray,
    ridge_lambda: float = 0.0,
    feature_policy: str = "main_effects",
) -> FittedModel:
    """(Ridge) least squares with an unpenalized intercept.

    Minimizes ``sum((y - b.x)^2) + ridge_lambda * ||b[1:]||^2``. With
    ``ridge_lambda == 0`` and singular normal equations, falls back to a tiny
    ridge and records ``singular_fallback`` in the training metadata.
    """
    x, y = _check_inputs(x, y)
    xe = expand_features(x, feature_policy)
    d = _design(xe)
    p = d.shape[1]
    gram = d.T @ d
    rhs = d.T @ y
    lam = float(ridge_lambda)
    meta: dict = {"ridge_lambda": lam}

    def solve(lam_eff):
        pen = np.eye(p) * lam_eff
        pen[0, 0] = 0.0
        return np.linalg.solve(gram + pen, rhs)

    if lam > 0:
        beta = solve(lam)
    else:
        rank = np.linalg.matrix_rank(gram)
        if rank < p:
            meta["singular_fallback"] = True
            beta = solve(1e-8)
        else:
            beta = np.linalg.solve(gram, rhs)

    resid = y - d @ beta
    meta["loss"] = float(np.mean(resid**2))
    meta["coefficients"] = beta

    def predict(xq, beta=beta, policy=feature_policy):
        return _design(expand_features(np.atleast_2d(xq), policy)) @ beta

    return FittedModel(predict, "continuous", meta)


def _irls(d: np.ndarray, y: np.ndarray, lam: float) -> tuple[np.ndarray, int, bool]:
    """IRLS for penalized logistic log-likelihood; returns (beta, iters, converged).
    The weights and working response are rebuilt in place."""
    n, p = d.shape
    pen = np.eye(p) * lam
    pen[0, 0] = 0.0
    beta = np.zeros(p)
    eta = d @ beta
    expit_eta = expit(eta)
    w, z = np.empty(n), np.empty(n)
    dev = np.inf
    for it in range(1, LOGISTIC_MAX_ITER + 1):
        np.subtract(1, expit_eta, out=w)
        w *= expit_eta
        np.clip(w, 1e-12, None, out=w)
        np.subtract(y, expit_eta, out=z)
        z /= w
        z += eta
        dw = d * w[:, None]
        a = dw.T @ d + pen
        b = dw.T @ z
        del dw  # freed before the deviance and the next iteration's own n x p copy
        try:
            beta_new = np.linalg.solve(a, b)
        except np.linalg.LinAlgError:
            return beta, it, False
        beta = beta_new
        eta = d @ beta
        expit_eta = expit(eta)
        mu = np.clip(expit_eta, 1e-12, 1 - 1e-12)
        new_dev = -2.0 * float(np.sum(y * np.log(mu) + (1 - y) * np.log(1 - mu)))
        new_dev += lam * float(beta[1:] @ beta[1:])
        if abs(dev - new_dev) < LOGISTIC_TOL:
            return beta, it, True
        dev = new_dev
        if np.max(np.abs(eta)) > 30:
            # fitted probabilities are numerically 0/1: separation territory
            return beta, it, False
    return beta, LOGISTIC_MAX_ITER, False


def fit_logistic(
    x: np.ndarray,
    y: np.ndarray,
    feature_policy: str = "main_effects",
    ridge_lambda: float = 0.0,
) -> FittedModel:
    """Logistic regression via IRLS (deviance tolerance 1e-8, <= 100 iterations).

    Perfectly separated data is refit with a small L2 penalty (lambda = 1e-4)
    and flagged in ``training_meta["separation_penalized"]``. A fit whose own
    ``ridge_lambda`` is at least that penalty keeps its first run, which the
    refit would repeat, and is flagged the same way.
    """
    x, y = _check_inputs(x, y)
    uniq = np.unique(y)
    if not np.all(np.isin(uniq, (0.0, 1.0))):
        raise LearnerError("logistic response must be coded 0/1")
    if uniq.size < 2:
        raise LearnerError("logistic response is single-class")
    d = _design(expand_features(x, feature_policy))
    beta, iters, converged = _irls(d, y, ridge_lambda)
    meta = {"iterations": iters, "separation_penalized": not converged}
    if not converged and ridge_lambda < SEPARATION_RIDGE:
        beta, iters2, _ = _irls(d, y, SEPARATION_RIDGE)
        meta["iterations"] += iters2
    mu = expit(d @ beta)
    mu_c = np.clip(mu, 1e-12, 1 - 1e-12)
    meta["loss"] = -float(np.mean(y * np.log(mu_c) + (1 - y) * np.log(1 - mu_c)))
    meta["coefficients"] = beta

    def predict(xq, beta=beta, policy=feature_policy):
        return expit(_design(expand_features(np.atleast_2d(xq), policy)) @ beta)

    return FittedModel(predict, "probability", meta)


def fit_boosted_stumps(
    x: np.ndarray,
    y: np.ndarray,
    rounds: int = 100,
    shrinkage: float = 0.1,
    feature_policy: str = "main_effects",
    probability: bool = False,
) -> FittedModel:
    """Gradient-boosted depth-1 regression trees under squared error.

    Only the residuals change between rounds, so the split search is set up
    once per fit: the ``(p, n)`` sort orders, the sorted feature values and
    the flat list of candidate splits ``(feature, position)`` wherever a
    sorted value changes, with their left/right counts and midpoint
    thresholds. Each round then gathers the residuals into every sort order,
    takes one row-wise cumulative sum and one argmax of the squared-error
    gain over all candidates: O(p·n) array work and no loop over features.

    Deterministic: the first maximum of the feature-major gain vector breaks
    ties toward the lower feature index, then the lower threshold. Constant
    features offer no split; when every feature is constant the fit has no
    stumps. With ``probability=True`` predictions are clipped to [0, 1].
    """
    x, y = _check_inputs(x, y)
    xe = expand_features(x, feature_policy)
    n = xe.shape[0]
    xt = np.ascontiguousarray(xe.T)
    orders = np.argsort(xt, axis=1, kind="stable")
    xs = np.take_along_axis(xt, orders, axis=1)
    feat, pos = np.nonzero(np.diff(xs, axis=1))  # split after sorted position pos
    flat = feat * n + pos
    cnt_l = (pos + 1).astype(float)
    cnt_r = n - cnt_l
    thresholds = 0.5 * (xs[feat, pos] + xs[feat, pos + 1])
    f0 = float(y.mean())
    pred = np.full(n, f0)
    stumps: list[tuple[int, float, float, float]] = []
    for _ in range(rounds if feat.size else 0):
        csum = np.cumsum((y - pred)[orders], axis=1)
        sum_l = csum.ravel()[flat]
        sum_r = csum[:, -1][feat] - sum_l
        gain = sum_l**2 / cnt_l + sum_r**2 / cnt_r  # SSE reduction + const
        best = int(np.argmax(gain))
        j, thr = int(feat[best]), float(thresholds[best])
        left = shrinkage * float(sum_l[best] / cnt_l[best])
        right = shrinkage * float(sum_r[best] / cnt_r[best])
        stumps.append((j, thr, left, right))
        pred = pred + np.where(xe[:, j] <= thr, left, right)
    meta = {"loss": float(np.mean((y - pred) ** 2)), "iterations": len(stumps)}

    def predict(xq, f0=f0, stumps=stumps, policy=feature_policy, clip=probability):
        xq = expand_features(np.atleast_2d(xq), policy)
        out = np.full(xq.shape[0], f0)
        for j, thr, left, right in stumps:
            out += np.where(xq[:, j] <= thr, left, right)
        return np.clip(out, 0.0, 1.0) if clip else out

    return FittedModel(predict, "probability" if probability else "continuous", meta)


def fit_knn(
    x: np.ndarray,
    y: np.ndarray,
    k: int = 10,
    feature_policy: str = "main_effects",
    probability: bool = False,
) -> FittedModel:
    """k-nearest-neighbour mean with deterministic (index-order) tie breaking."""
    x, y = _check_inputs(x, y)
    xe = expand_features(x, feature_policy)
    k_eff = min(int(k), xe.shape[0])
    sq = (xe**2).sum(axis=1)

    def predict(xq, xe=xe, sq=sq, y=y, k=k_eff, policy=feature_policy, clip=probability):
        xq = expand_features(np.atleast_2d(xq), policy)
        out = np.empty(xq.shape[0])
        # chunked distance computation keeps memory bounded on big queries
        step = max(1, int(2e6 / max(1, xe.shape[0])))
        for lo in range(0, xq.shape[0], step):
            q = xq[lo : lo + step]
            d2 = sq[None, :] - 2.0 * (q @ xe.T) + (q**2).sum(axis=1)[:, None]
            idx = np.argsort(d2, axis=1, kind="stable")[:, :k]
            out[lo : lo + step] = y[idx].mean(axis=1)
        return np.clip(out, 0.0, 1.0) if clip else out

    return FittedModel(predict, "probability" if probability else "continuous", {"k": k_eff})


def fit_saturated(x: np.ndarray, y: np.ndarray, probability: bool = False) -> FittedModel:
    """Full contingency-table mean per unique feature row (no smoothing).

    Prediction on a feature combination never seen in training raises
    :class:`LearnerError`; intended for fully discrete problems where the
    empirical table is the exact conditional expectation.
    """
    x, y = _check_inputs(x, y)
    keys = [tuple(row) for row in x]
    sums: dict[tuple, float] = {}
    counts: dict[tuple, int] = {}
    for key, val in zip(keys, y):
        sums[key] = sums.get(key, 0.0) + val
        counts[key] = counts.get(key, 0) + 1
    table = {key: sums[key] / counts[key] for key in sums}

    def predict(xq, table=table):
        xq = np.atleast_2d(np.asarray(xq, dtype=float))
        out = np.empty(xq.shape[0])
        for i, row in enumerate(xq):
            key = tuple(row)
            if key not in table:
                raise LearnerError(f"saturated learner: unseen cell {key}")
            out[i] = table[key]
        return out

    return FittedModel(predict, "probability" if probability else "continuous", {"cells": len(table)})


def fit_spec(
    spec: LearnerSpec,
    x: np.ndarray,
    y: np.ndarray,
    response_type: str = "continuous",
) -> FittedModel:
    """Fit a single learner described by ``spec``; response_type routes binary fits."""
    binary = response_type == "probability"
    if spec.kind == "mean":
        model = fit_mean(x, y)
        if binary:
            return FittedModel(lambda q, p=model.predict: np.clip(p(q), 0.0, 1.0), "probability", model.training_meta)
        return model
    if spec.kind == "linear":
        if binary:
            return fit_logistic(x, y, spec.feature_policy)
        return fit_linear(x, y, 0.0, spec.feature_policy)
    if spec.kind == "ridge":
        if binary:
            return fit_logistic(x, y, spec.feature_policy, ridge_lambda=max(spec.ridge_lambda, 1e-8))
        return fit_linear(x, y, spec.ridge_lambda, spec.feature_policy)
    if spec.kind == "logistic":
        return fit_logistic(x, y, spec.feature_policy)
    if spec.kind == "boosted_stumps":
        return fit_boosted_stumps(x, y, spec.rounds, spec.shrinkage, spec.feature_policy, probability=binary)
    if spec.kind == "knn":
        return fit_knn(x, y, spec.knn_k, spec.feature_policy, probability=binary)
    if spec.kind == "saturated":
        return fit_saturated(x, y, probability=binary)
    raise LearnerError(f"unknown learner kind {spec.kind!r}")


# ---------------------------------------------------------------------------
# super learner
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SuperLearnerConfig:
    candidates: tuple[LearnerSpec, ...]
    cv_folds: int = 5
    loss: str = "squared_error"

    def __post_init__(self):
        if not self.candidates:
            raise LearnerError("super learner needs at least one candidate")
        if self.cv_folds < 2:
            raise LearnerError("cv_folds must be >= 2")
        if self.loss not in ("squared_error", "log_loss"):
            raise LearnerError(f"unknown loss {self.loss!r}")


def stratified_folds(n: int, n_folds: int, seed: int, strata: np.ndarray | None = None) -> np.ndarray:
    """Deterministic fold labels in 0..n_folds-1, balanced within each stratum."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, n, n_folds]))
    labels = np.empty(n, dtype=np.int64)
    if strata is None:
        strata = np.zeros(n)
    strata = np.asarray(strata)
    for value in np.unique(strata):
        idx = np.flatnonzero(strata == value)
        perm = rng.permutation(idx.size)
        labels[idx[perm]] = np.arange(idx.size) % n_folds
    return labels


def _simplex_project(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    positive = np.nonzero(u - css / np.arange(1, v.size + 1) > 0)[0]
    if positive.size == 0:  # float overflow pathology: collapse to the largest coordinate
        out = np.zeros_like(v)
        out[int(np.argmax(v))] = 1.0
        return out
    rho = positive[-1]
    theta = css[rho] / (rho + 1.0)
    return np.maximum(v - theta, 0.0)


def solve_simplex_weights(z: np.ndarray, y: np.ndarray, loss: str, tol: float) -> np.ndarray:
    """Minimize CV loss of a convex combination of candidate predictions.

    Projected gradient descent with backtracking, started from the best
    vertex, so the final loss never exceeds any single candidate's CV loss.
    """
    n, m = z.shape
    if m == 1:
        return np.ones(1)

    if loss == "log_loss":
        zc = np.clip(z, 1e-12, 1 - 1e-12)

        def f(w):
            p = np.clip(zc @ w, 1e-12, 1 - 1e-12)
            return -float(np.mean(y * np.log(p) + (1 - y) * np.log(1 - p)))

        def grad(w):
            p = np.clip(zc @ w, 1e-12, 1 - 1e-12)
            return zc.T @ ((p - y) / (p * (1 - p))) / n
    else:

        def f(w):
            r = z @ w - y
            return float(r @ r) / n

        def grad(w):
            return 2.0 * (z.T @ (z @ w - y)) / n

    vertex_losses = np.array([f(np.eye(m)[j]) for j in range(m)])
    w = np.eye(m)[int(np.argmin(vertex_losses))].copy()
    fw = f(w)
    step = 1.0
    for _ in range(2000):
        g = grad(w)
        improved = False
        while step > 1e-16:
            cand = _simplex_project(w - step * g)
            fc = f(cand)
            if fc < fw:
                w, fw = cand, fc
                improved = True
                step = min(step * 1.5, 1e4)
                break
            step *= 0.5
        if not improved:
            break
        if np.linalg.norm(g - g.mean()) * step < tol:
            break
    w = w / w.sum()
    return w


def fit_super_learner(
    cfg: SuperLearnerConfig,
    x: np.ndarray,
    y: np.ndarray,
    seed: int = 0,
    response_type: str = "continuous",
    strata: np.ndarray | None = None,
) -> FittedModel:
    """V-fold stacking: out-of-fold candidate predictions, simplex weights, full refit.

    Candidates that fail on any fold are dropped with a warning; an error is
    raised only when every candidate fails. Weights are nonnegative and sum
    to one; the combination's CV loss is never worse than any single
    candidate's.
    """
    x, y = _check_inputs(x, y)
    n = x.shape[0]
    if n < cfg.cv_folds:
        raise LearnerError(f"need n >= cv_folds ({n} < {cfg.cv_folds})")
    binary = response_type == "probability"
    if strata is None and binary:
        strata = y
    folds = stratified_folds(n, cfg.cv_folds, seed, strata)

    z_cols: list[np.ndarray] = []
    kept: list[LearnerSpec] = []
    for spec in cfg.candidates:
        col = np.empty(n)
        try:
            for v in range(cfg.cv_folds):
                train = folds != v
                model = fit_spec(spec, x[train], y[train], response_type)
                col[~train] = model.predict(x[~train])
        except LearnerError as err:
            warnings.warn(f"super learner dropped candidate {spec.name}: {err}")
            continue
        z_cols.append(col)
        kept.append(spec)
    if not kept:
        raise LearnerError("all super learner candidates failed")

    z = np.column_stack(z_cols)
    if binary:
        z = np.clip(z, 0.0, 1.0)
    weights = solve_simplex_weights(z, y, cfg.loss, WEIGHT_SOLVER_TOL)

    if cfg.loss == "log_loss":
        zc = np.clip(z, 1e-12, 1 - 1e-12)
        cv_losses = [-float(np.mean(y * np.log(zc[:, j]) + (1 - y) * np.log(1 - zc[:, j]))) for j in range(z.shape[1])]
        pc = np.clip(z @ weights, 1e-12, 1 - 1e-12)
        combo_loss = -float(np.mean(y * np.log(pc) + (1 - y) * np.log(1 - pc)))
    else:
        cv_losses = [float(np.mean((y - z[:, j]) ** 2)) for j in range(z.shape[1])]
        combo_loss = float(np.mean((y - z @ weights) ** 2))

    full_models = [fit_spec(spec, x, y, response_type) for spec in kept]

    def predict(xq, models=full_models, w=weights, clip=binary):
        preds = np.column_stack([m.predict(xq) for m in models])
        if clip:
            preds = np.clip(preds, 0.0, 1.0)
        out = preds @ w
        return np.clip(out, 0.0, 1.0) if clip else out

    meta = {
        "weights": {spec.name: float(w) for spec, w in zip(kept, weights)},
        "cv_losses": {spec.name: loss for spec, loss in zip(kept, cv_losses)},
        "cv_loss_combination": combo_loss,
        "dropped": [spec.name for spec in cfg.candidates if spec not in kept],
    }
    return FittedModel(predict, "probability" if binary else "continuous", meta)


def fit_two_part(
    x: np.ndarray,
    y: np.ndarray,
    zero_model: "LearnerSpec | SuperLearnerConfig",
    positive_model: "LearnerSpec | SuperLearnerConfig",
    seed: int = 0,
) -> FittedModel:
    """Two-part composite for zero-inflated outcomes.

    Part one models P(y != 0); part two regresses y on the nonzero rows; the
    prediction is exactly their rowwise product.
    """
    x, y = _check_inputs(x, y)
    nonzero = y != 0.0
    if not nonzero.any():
        warnings.warn("two-part fit: no nonzero responses, returning constant zero")
        return FittedModel(lambda q: np.zeros(np.atleast_2d(q).shape[0]), "continuous", {"degenerate_zero": True})
    if nonzero.all():
        p_model = FittedModel(lambda q: np.ones(np.atleast_2d(q).shape[0]), "probability", {"constant": 1.0})
    else:
        p_model = train(zero_model, x, nonzero.astype(float), "probability", seed)
    m_model = train(positive_model, x[nonzero], y[nonzero], "continuous", seed + 1)

    def predict(xq, p=p_model.predict, m=m_model.predict):
        return p(xq) * m(xq)

    meta = {"zero_part": p_model.training_meta, "positive_part": m_model.training_meta}
    return FittedModel(predict, "continuous", meta)


def train(
    model: "LearnerSpec | SuperLearnerConfig",
    x: np.ndarray,
    y: np.ndarray,
    response_type: str = "continuous",
    seed: int = 0,
    strata: np.ndarray | None = None,
) -> FittedModel:
    """Dispatch: fit a plain learner or a super learner from its config."""
    if isinstance(model, SuperLearnerConfig):
        return fit_super_learner(model, x, y, seed, response_type, strata)
    return fit_spec(model, x, y, response_type)


def default_continuous_sl() -> SuperLearnerConfig:
    """Stock continuous super learner used when a config names 'superlearner'."""
    return SuperLearnerConfig(
        candidates=(
            LearnerSpec("mean"),
            LearnerSpec("linear"),
            LearnerSpec("ridge", feature_policy="quadratic", ridge_lambda=1e-3),
            LearnerSpec("boosted_stumps", rounds=100, shrinkage=0.1),
        )
    )


def default_binary_sl() -> SuperLearnerConfig:
    """Stock binary super learner (squared-error stacking of probabilities)."""
    return SuperLearnerConfig(
        candidates=(
            LearnerSpec("mean"),
            LearnerSpec("logistic"),
            LearnerSpec("ridge", feature_policy="quadratic", ridge_lambda=1e-4),
            LearnerSpec("boosted_stumps", rounds=100, shrinkage=0.1),
        )
    )
