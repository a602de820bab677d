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

import math
import warnings
from dataclasses import dataclass, field, replace
from itertools import accumulate
from typing import Callable, NamedTuple

import numpy as np
from scipy.special import expit

FEATURE_POLICIES = ("main_effects", "pairwise_interactions", "quadratic")
LEARNER_KINDS = ("mean", "linear", "logistic", "ridge", "boosted_stumps", "knn", "saturated")

LOGISTIC_TOL = 1e-8
LOGISTIC_MAX_ITER = 100
SEPARATION_RIDGE = 1e-4
WEIGHT_SOLVER_TOL = 1e-12
STUMP_PREDICT_BLOCK = 1 << 17  # leaf values (8 bytes each) in one block of a stump prediction
STUMP_GROUP_BYTES = 256 << 10  # gathered residuals (8 bytes per feature and row) of one lockstep group of stump fits


class LearnerError(ValueError):
    """A learner could not be fit on the data it was given."""


class CVFoldsError(LearnerError):
    """A super learner was given fewer rows than its CV folds."""


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
        np.maximum(w, 1e-12, out=w)  # what np.clip(w, 1e-12, None) calls, without its wrappers
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
        new_dev = -2.0 * float((y * np.log(mu) + (1 - y) * np.log(1 - mu)).sum())
        new_dev += lam * float(beta[1:] @ beta[1:])
        if abs(dev - new_dev) < LOGISTIC_TOL:
            return beta, it, True
        dev = new_dev
        if np.abs(eta).max() > 30:
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


def _sorted_features(xe: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each feature's stable sort over all rows: the ``(p, n)`` features, their
    sort orders and their sorted values."""
    xt = np.ascontiguousarray(xe.T)
    orders = np.argsort(xt, axis=1, kind="stable")
    return xt, orders, np.take_along_axis(xt, orders, axis=1)


class _StumpFit(NamedTuple):
    """One stump fit's set-up: its ``(p, n)`` features and sort orders, its
    response, and its candidate splits ``(feat, pos)`` with their midpoint
    thresholds, wherever a sorted value changes (after sorted position pos)."""

    xt: np.ndarray
    orders: np.ndarray
    y: np.ndarray
    feat: np.ndarray
    pos: np.ndarray
    thresholds: np.ndarray


def _stump_fit(features: tuple, rows: np.ndarray | None, y: np.ndarray) -> _StumpFit:
    """The set-up of a fit on the rows a mask keeps (None keeps all). Its
    orders are the full orders filtered by the mask and renumbered to the
    kept rows' positions, which is what a stable sort of those rows gives."""
    xt, orders, xs = features
    if rows is not None:
        if not rows.any():
            raise LearnerError("no rows to fit on")
        p, n = xt.shape[0], int(np.count_nonzero(rows))
        keep = rows[orders]
        position = np.cumsum(rows) - 1  # of each kept row among the kept rows
        xt, orders, xs, y = xt[:, rows], position[orders[keep]].reshape(p, n), xs[keep].reshape(p, n), y[rows]
    feat, pos = np.nonzero(np.diff(xs, axis=1))
    return _StumpFit(xt, orders, y, feat, pos, 0.5 * (xs[feat, pos] + xs[feat, pos + 1]))


def _boost_group(fits: list[_StumpFit], rounds: int, shrinkage: float) -> list[tuple]:
    """Boost :func:`_stump_fit` set-ups that each have a candidate split, in
    lockstep. Returns each fit's ``(cols, (thresholds, lefts, rights), pred)``:
    its rounds' features and leaves, and its training predictions.

    A round gathers every fit's residuals into its sort orders, two features
    as the two halves of one ``complex128`` lane (an odd last feature is
    paired with itself), each fit's rows padded to the longest fit's. One
    cumulative sum runs along every lane; each half makes the additions of its
    own feature's ``float64`` cumulative sum, in the same order. The gains of
    all fits fill one ``(fits, candidates)`` array padded with ``-inf``, so
    each fit's first maximum breaks ties as a fit of its own would.
    """
    m, p = len(fits), fits[0].xt.shape[0]
    sizes = [fit.y.size for fit in fits]
    bounds = list(accumulate(sizes, initial=0))
    pairs, width, s = (p + 1) // 2, max(sizes), max(fit.feat.size for fit in fits)
    gather = np.zeros((m, pairs, width, 2), dtype=np.intp)  # padding gathers row 0; no candidate reads it
    at = np.zeros((2, m, s), dtype=np.intp)  # in the cumsum's flat float view: left sums, then feature totals
    counts = np.ones((2, m, s))  # left counts, then right counts
    feat_at, thresholds = np.zeros((m, s), dtype=np.intp), np.zeros((m, s))
    for g, (_, orders, y, feat, pos, thr) in enumerate(fits):
        n, k = y.size, feat.size
        lanes = orders if p % 2 == 0 else np.vstack([orders, orders[-1:]])
        gather[g, :, :n] = lanes.reshape(pairs, 2, n).transpose(0, 2, 1) + bounds[g]
        lane = (g * pairs + feat // 2) * width * 2 + feat % 2  # each candidate's feature's first sum
        at[:, g, :k] = lane + 2 * pos, lane + 2 * (n - 1)
        counts[:, g, :k] = pos + 1, n - 1 - pos
        feat_at[g, :k], thresholds[g, :k] = feat, thr
    padding = np.flatnonzero(np.arange(s) >= np.array([fit.feat.size for fit in fits])[:, None])
    first = np.arange(m) * s
    gather, at, counts = gather.ravel(), at.reshape(2, -1), counts.reshape(2, -1)
    feat_at, thresholds = feat_at.ravel(), thresholds.ravel()
    leaf_of = 2 * np.repeat(np.arange(m), sizes)  # each row's fit in a round's (right, left) leaf pairs
    y_all = np.concatenate([fit.y for fit in fits])
    pred = np.repeat([float(fit.y.mean()) for fit in fits], sizes)
    goes_left = np.empty(pred.size, dtype=bool)
    best_at, leaves = np.empty((rounds, m), dtype=np.intp), np.empty((rounds, 2, m))
    for r in range(rounds):
        csum = (y_all - pred).take(gather).view(np.complex128).reshape(-1, width).cumsum(axis=1)
        sums = csum.view(np.float64).ravel().take(at)
        sums[1] -= sums[0]  # the right sums: total - left
        gain = sums**2
        gain /= counts
        gain = gain[0] + gain[1]  # SSE reduction + const
        gain.put(padding, -np.inf)
        best = best_at[r] = gain.reshape(m, s).argmax(axis=1) + first
        leaf = leaves[r] = shrinkage * (sums.take(best, axis=1) / counts.take(best, axis=1))
        for g, j, thr in zip(range(m), feat_at.take(best).tolist(), thresholds.take(best).tolist()):
            np.less_equal(fits[g].xt[j], thr, out=goes_left[bounds[g] : bounds[g + 1]])
        pred += leaf[::-1].T.ravel().take(leaf_of + goes_left)
    cols, thrs = feat_at[best_at], thresholds[best_at]
    return [(cols[:, g], (thrs[:, g], leaves[:, 0, g], leaves[:, 1, g]), pred[bounds[g] : bounds[g + 1]])
            for g in range(m)]


def _fit_stumps(features: tuple, row_sets: list, y: np.ndarray, rounds: int, shrinkage: float, policy: str,
                probability: bool) -> list[FittedModel]:
    """Boosted stumps on each row set (a mask, or None for every row) of
    features sorted once by :func:`_sorted_features`; ``policy`` expands the
    query rows of each model's predictions.

    Fits with a candidate split boost in lockstep groups, in order, while the
    group's gathered residuals stay within ``STUMP_GROUP_BYTES``; a fit with
    none boosts no rounds. Every fit gives the bytes of a fit of its own.
    """
    fits = [_stump_fit(features, rows, y) for rows in row_sets]
    lane_bytes = 8 * (features[0].shape[0] + features[0].shape[0] % 2)  # gathered bytes per row
    no_stumps = (np.empty(0, dtype=np.intp), (np.empty(0),) * 3)
    outs = [(*no_stumps, np.full(fit.y.size, float(fit.y.mean()))) for fit in fits]
    groups, used = [], 0
    for i, fit in enumerate(fits):
        if fit.feat.size:
            if groups and used + lane_bytes * fit.y.size <= STUMP_GROUP_BYTES:
                groups[-1].append(i)
                used += lane_bytes * fit.y.size
            else:
                groups.append([i])
                used = lane_bytes * fit.y.size
    for group in groups:
        for i, out in zip(group, _boost_group([fits[i] for i in group], rounds, shrinkage)):
            outs[i] = out
    return [_stump_model(fit.y, *out, policy, probability) for fit, out in zip(fits, outs)]


def _stump_model(y, cols, leaves, pred, policy: str, probability: bool) -> FittedModel:
    """The fitted stumps, predicting ``f0`` plus every round's leaf in round
    order, one compare per block of query rows."""
    f0 = float(y.mean())
    meta = {"loss": float(np.mean((y - pred) ** 2)), "iterations": cols.size}
    cols = np.ascontiguousarray(cols)
    thrs, lefts, rights = (np.ascontiguousarray(leaf)[:, None] for leaf in leaves)
    flip = lefts.view(np.int64) ^ rights.view(np.int64)  # a round's right leaf XOR flip is its left leaf, bit for bit

    def predict(xq, f0=f0, cols=cols, thr=thrs, right=rights.view(np.int64), flip=flip,
                policy=policy, clip=probability):
        xq = expand_features(np.atleast_2d(xq), policy)
        out = np.full(xq.shape[0], f0)
        step = max(1, STUMP_PREDICT_BLOCK // max(1, cols.size))
        for lo in range(0, xq.shape[0] if cols.size else 0, step):
            leaves = flip * (xq[lo : lo + step].T[cols] <= thr)  # rounds x rows; a branch-free select
            leaves ^= right
            block = out[lo : lo + step]
            for leaf in leaves.view(np.float64):  # f0 + round 1 + round 2 + ..., in order
                block += leaf
        return np.clip(out, 0.0, 1.0) if clip else out

    return FittedModel(predict, "probability" if probability else "continuous", meta)


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
    once per fit: the ``(p, n)`` sort orders and the flat list of candidate
    splits ``(feature, position)`` wherever a sorted value changes, with
    their left/right counts and midpoint thresholds. Each round then gathers
    the residuals into every sort order, takes one cumulative sum along them
    and one argmax of the squared-error gain over all candidates: O(p·n)
    array work and no loop over features (see :func:`_boost_group`, which
    also boosts a super learner's CV folds together). A prediction takes
    every round's leaf value in one compare per block of query rows and adds
    them to ``f0`` in round order, as the fit does.

    Deterministic: the first maximum of the feature-major gain vector breaks
    ties toward the lower feature index, then the lower threshold. Constant
    features offer no split; when every feature is constant the fit has no
    stumps. With ``probability=True`` predictions are clipped to [0, 1].
    """
    x, y = _check_inputs(x, y)
    features = _sorted_features(expand_features(x, feature_policy))
    return _fit_stumps(features, [None], y, rounds, shrinkage, feature_policy, probability)[0]


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
    """Euclidean projection onto the probability simplex.

    A super learner has a handful of candidates, so the sort and the running
    sums go over Python floats, in the order of numpy's descending sort and
    ``cumsum``. A NaN, which that sort puts first, leaves no positive entry.
    """
    u = sorted(v.tolist(), reverse=True)
    theta = None
    if not any(x != x for x in u):
        for k, (uk, ck) in enumerate(zip(u, accumulate(u))):
            if uk - (ck - 1.0) / (k + 1) > 0:
                theta = (ck - 1.0) / (k + 1.0)
    if theta is None:  # float overflow pathology: collapse to the largest coordinate
        out = np.zeros_like(v)
        out[int(np.argmax(v))] = 1.0
        return out
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
        d = g - g.mean()
        if math.sqrt(d @ d) * step < tol:  # np.linalg.norm(d), without its wrappers
            break
    w = w / w.sum()
    return w


def fit_super_learner(
    cfg: SuperLearnerConfig,
    x: np.ndarray,
    y: np.ndarray,
    seed: int = 0,
    response_type: str = "continuous",
) -> FittedModel:
    """V-fold stacking: out-of-fold candidate predictions, simplex weights, full refit.

    A binary response is stratified by its two classes. Each feature policy's
    expansion is made once, and each fold's rows are sliced once for every
    candidate. A boosted-stumps candidate sorts its features once over all
    rows and boosts its CV folds together (:func:`_fit_stumps`); its refit
    uses the same sort. Candidates that fail on any fold are dropped with a
    warning, in candidate order; an error is raised only when every candidate
    fails. Weights are nonnegative and sum to one; the combination's CV loss
    is never worse than any single candidate's.
    """
    x, y = _check_inputs(x, y)
    n = x.shape[0]
    if n < cfg.cv_folds:
        raise CVFoldsError(f"need n >= cv_folds ({n} < {cfg.cv_folds})")
    binary = response_type == "probability"
    folds = stratified_folds(n, cfg.cv_folds, seed, y if binary else None)

    # the kinds that read a feature policy fit the expansion under main effects
    policies = ["main_effects" if spec.kind in ("mean", "saturated") else spec.feature_policy
                for spec in cfg.candidates]
    plain = [replace(spec, feature_policy="main_effects") for spec in cfg.candidates]
    expanded = {policy: expand_features(x, policy) for policy in dict.fromkeys(policies)}
    sorted_features = {policy: _sorted_features(expanded[policy])
                       for spec, policy in zip(cfg.candidates, policies) if spec.kind == "boosted_stumps"}
    z_cols = [np.empty(n) for _ in cfg.candidates]
    failed: dict[int, LearnerError] = {}
    tests = [folds == v for v in range(cfg.cv_folds)]
    for test in tests:
        y_train, parts = y[~test], {policy: (xe[~test], xe[test]) for policy, xe in expanded.items()}
        for c, spec in enumerate(plain):
            if c not in failed and spec.kind != "boosted_stumps":
                x_train, x_test = parts[policies[c]]
                try:
                    z_cols[c][test] = fit_spec(spec, x_train, y_train, response_type).predict(x_test)
                except LearnerError as err:
                    failed[c] = err
    for c, spec in enumerate(cfg.candidates):
        if spec.kind == "boosted_stumps":
            try:
                models = _fit_stumps(sorted_features[policies[c]], [~test for test in tests], y, spec.rounds,
                                     spec.shrinkage, "main_effects", binary)
            except LearnerError as err:
                failed[c] = err
                continue
            for test, model in zip(tests, models):
                z_cols[c][test] = model.predict(expanded[policies[c]][test])
    for c in sorted(failed):
        warnings.warn(f"super learner dropped candidate {cfg.candidates[c].name}: {failed[c]}")
    kept_at = [c for c in range(len(cfg.candidates)) if c not in failed]
    if not kept_at:
        raise LearnerError("all super learner candidates failed")
    kept = [cfg.candidates[c] for c in kept_at]

    z = np.column_stack([z_cols[c] for c in kept_at])
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

    full_models = []
    for c, spec in zip(kept_at, kept):
        policy = policies[c]
        if spec.kind == "boosted_stumps":
            model = _fit_stumps(sorted_features[policy], [None], y, spec.rounds, spec.shrinkage, policy, binary)[0]
        else:
            model = fit_spec(plain[c], expanded[policy], y, response_type)
            if policy != "main_effects":  # the model expands its query rows
                model = replace(model, predict=lambda xq, fit=model.predict, policy=policy:
                                fit(expand_features(xq, policy)))
        full_models.append(model)

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
    prediction is exactly their rowwise product. A part's error names the
    part and keeps its type.
    """
    x, y = _check_inputs(x, y)
    nonzero = y != 0.0
    if not nonzero.any():
        warnings.warn("two-part fit: no nonzero responses, returning constant zero")
        return FittedModel(lambda q: np.zeros(np.atleast_2d(q).shape[0]), "continuous", {"degenerate_zero": True})
    try:
        part = "zero part P(y != 0)"
        if nonzero.all():
            p_model = FittedModel(lambda q: np.ones(np.atleast_2d(q).shape[0]), "probability", {"constant": 1.0})
        else:
            p_model = train(zero_model, x, nonzero.astype(float), "probability", seed)
        part = f"positive part ({int(nonzero.sum())} nonzero rows)"
        m_model = train(positive_model, x[nonzero], y[nonzero], "continuous", seed + 1)
    except LearnerError as err:
        raise type(err)(f"two-part fit, {part}: {err}") from err

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
) -> FittedModel:
    """Dispatch: fit a plain learner or a super learner from its config."""
    if isinstance(model, SuperLearnerConfig):
        return fit_super_learner(model, x, y, seed, response_type)
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
