import warnings

import numpy as np
import pytest
from scipy.special import expit

from pathshift import learners
from pathshift.learners import (
    FittedModel,
    LearnerError,
    LearnerSpec,
    SuperLearnerConfig,
    expand_features,
    fit_boosted_stumps,
    fit_knn,
    fit_linear,
    fit_logistic,
    fit_saturated,
    fit_spec,
    fit_super_learner,
    fit_two_part,
    solve_simplex_weights,
    stratified_folds,
    train,
)

RNG = np.random.default_rng(42)


# -- linear / ridge ----------------------------------------------------------

def test_constant_fit():
    x = np.ones((3, 1))
    model = fit_linear(x, np.array([2.0, 2.0, 2.0]))
    assert np.allclose(model.predict(x), 2.0)


def test_exact_linear_recovery():
    x = np.arange(1.0, 7.0)[:, None]
    model = fit_linear(x, 3.0 * x.ravel())
    beta = model.training_meta["coefficients"]
    assert abs(beta[1] - 3.0) < 1e-10
    assert abs(beta[0]) < 1e-10


def test_ridge_shrinkage_closed_form():
    # x = (1,2,3), y = 3x: slope = 6 / (2 + lambda), intercept = 6 - 2*slope
    x = np.array([[1.0], [2.0], [3.0]])
    y = 3.0 * x.ravel()
    for lam, slope in [(1.0, 2.0), (4.0, 1.0)]:
        beta = fit_linear(x, y, ridge_lambda=lam).training_meta["coefficients"]
        assert abs(beta[1] - slope) < 1e-10
        assert abs(beta[0] - (6.0 - 2.0 * slope)) < 1e-10
    # lambda -> inf: slope -> 0, prediction -> mean(y)
    big = fit_linear(x, y, ridge_lambda=1e12)
    assert np.allclose(big.predict(x), 6.0, atol=1e-6)


def test_ridge_training_rss_monotone_in_lambda():
    x = RNG.standard_normal((40, 3))
    y = x @ np.array([1.0, -2.0, 0.5]) + RNG.standard_normal(40)
    losses = [fit_linear(x, y, ridge_lambda=lam).training_meta["loss"] for lam in [0.0, 0.1, 1.0, 10.0, 100.0]]
    assert all(b >= a - 1e-12 for a, b in zip(losses, losses[1:]))


def test_singular_normal_equations():
    x = np.column_stack([np.ones(5), np.ones(5)])  # duplicated column
    y = np.arange(5.0)
    model = fit_linear(x, y)
    assert model.training_meta.get("singular_fallback")
    assert np.isfinite(model.predict(x)).all()


# -- logistic ----------------------------------------------------------------

def test_logistic_intercept_only_marginal_rate():
    x = np.zeros((10, 1))
    y = np.array([0.0, 1.0] * 5)
    model = fit_logistic(x, y)
    assert np.allclose(model.predict(x), 0.5, atol=1e-8)


def test_logistic_zero_design_gives_half():
    # expit(0) = 0.5 on a balanced response with an all-zero feature
    x = np.zeros((20, 2))
    y = np.tile([0.0, 1.0], 10)
    assert np.allclose(fit_logistic(x, y).predict(x), 0.5, atol=1e-8)


def test_logistic_recovers_generating_coefficients():
    rng = np.random.default_rng(7)
    n = 100_000
    x = rng.standard_normal((n, 1))
    y = (rng.random(n) < expit(-0.1 + 1.0 * x.ravel())).astype(float)
    beta = fit_logistic(x, y).training_meta["coefficients"]
    assert abs(beta[0] - (-0.1)) < 0.05
    assert abs(beta[1] - 1.0) < 0.05


def test_logistic_single_class_errors():
    with pytest.raises(LearnerError):
        fit_logistic(np.zeros((4, 1)), np.ones(4))


def test_logistic_separation_penalized_and_finite():
    x = np.linspace(-1, 1, 30)[:, None]
    y = (x.ravel() > 0).astype(float)
    model = fit_logistic(x, y)
    assert model.training_meta["separation_penalized"]
    preds = model.predict(x)
    assert np.isfinite(preds).all()
    assert preds.min() >= 0.0 and preds.max() <= 1.0


def reference_irls(d, y, lam):
    """IRLS with every product recomputed where it is used, as a fixed reference."""
    pen = np.eye(d.shape[1]) * lam
    pen[0, 0] = 0.0
    beta = np.zeros(d.shape[1])
    dev = np.inf
    for it in range(1, 101):
        eta = d @ beta
        mu = expit(eta)
        w = np.clip(mu * (1 - mu), 1e-12, None)
        z = eta + (y - mu) / w
        a = (d * w[:, None]).T @ d + pen
        b = (d * w[:, None]).T @ z
        try:
            beta_new = np.linalg.solve(a, b)
        except np.linalg.LinAlgError:
            return beta, it, False
        beta = beta_new
        eta = d @ beta
        mu = np.clip(expit(eta), 1e-12, 1 - 1e-12)
        new_dev = -2.0 * float(np.sum(y * np.log(mu) + (1 - y) * np.log(1 - mu)))
        new_dev += lam * float(beta[1:] @ beta[1:])
        if abs(dev - new_dev) < 1e-8:
            return beta, it, True
        dev = new_dev
        if np.max(np.abs(eta)) > 30:
            return beta, it, False
    return beta, 100, False


def logistic_case(case):
    rng = np.random.default_rng(11)
    if case == "separated":
        x = np.linspace(-1, 1, 40)[:, None]
        return x, (x.ravel() > 0).astype(float)
    x = rng.standard_normal((3000, 3))
    return x, (rng.random(3000) < expit(0.3 + x @ np.array([1.0, -0.5, 0.25]))).astype(float)


@pytest.mark.parametrize("case", ["smooth", "separated"])
@pytest.mark.parametrize("lam", [0.0, 1e-4, 1e-2])
@pytest.mark.parametrize("policy", ["main_effects", "quadratic"])
def test_logistic_matches_reference_irls(case, lam, policy):
    x, y = logistic_case(case)
    d = np.hstack([np.ones((x.shape[0], 1)), expand_features(x, policy)])
    beta, iters, converged = reference_irls(d, y, lam)
    if not converged:
        # the refit at the separation penalty, which is the same run when lam >= 1e-4
        beta, refit_iters, _ = reference_irls(d, y, max(lam, 1e-4))
        iters += refit_iters if lam < 1e-4 else 0
    meta = fit_logistic(x, y, policy, ridge_lambda=lam).training_meta
    assert np.array_equal(meta["coefficients"], beta)
    assert meta["iterations"] == iters
    assert meta["separation_penalized"] == (not converged)


@pytest.mark.parametrize("lam, calls", [(0.0, 2), (1e-4, 1), (1e-3, 1)])
def test_logistic_separation_refits_only_under_a_smaller_penalty(monkeypatch, lam, calls):
    x, y = logistic_case("separated")
    seen = []
    irls = learners._irls

    def counting(d, y, lam):
        seen.append(lam)
        return irls(d, y, lam)

    monkeypatch.setattr(learners, "_irls", counting)
    model = fit_logistic(x, y, ridge_lambda=lam)
    assert len(seen) == calls
    assert seen[-1] == max(lam, 1e-4)
    assert model.training_meta["separation_penalized"]
    d = np.hstack([np.ones((x.shape[0], 1)), x])
    beta = reference_irls(d, y, max(lam, 1e-4))[0]
    assert np.array_equal(model.predict(x), expit(d @ beta))


def previous_irls(d, y, lam):
    """``learners._irls`` as it was before it rebuilt its buffers in place,
    kept verbatim as the reference for its bytes."""
    p = d.shape[1]
    pen = np.eye(p) * lam
    pen[0, 0] = 0.0
    beta = np.zeros(p)
    eta = d @ beta
    dev = np.inf
    for it in range(1, learners.LOGISTIC_MAX_ITER + 1):
        mu = expit(eta)
        w = np.clip(mu * (1 - mu), 1e-12, None)
        z = eta + (y - mu) / w
        dw = d * w[:, None]
        a = dw.T @ d + pen
        b = dw.T @ z
        del dw
        try:
            beta_new = np.linalg.solve(a, b)
        except np.linalg.LinAlgError:
            return beta, it, False
        beta = beta_new
        eta = d @ beta
        mu = np.clip(expit(eta), 1e-12, 1 - 1e-12)
        new_dev = -2.0 * float(np.sum(y * np.log(mu) + (1 - y) * np.log(1 - mu)))
        new_dev += lam * float(beta[1:] @ beta[1:])
        if abs(dev - new_dev) < learners.LOGISTIC_TOL:
            return beta, it, True
        dev = new_dev
        if np.max(np.abs(eta)) > 30:
            return beta, it, False
    return beta, learners.LOGISTIC_MAX_ITER, False


def irls_case(path, n):
    """A design and 0/1 response that take ``_irls`` down one exit path."""
    rng = np.random.default_rng(n)
    x = rng.standard_normal((n, 3))
    if path == "separated":
        y = (x[:, 0] > 0).astype(float)
    else:
        y = (rng.random(n) < expit(0.3 + x @ np.array([1.0, -0.5, 0.25]))).astype(float)
    if path == "singular":
        x[:, 1] = 0.0  # an all-zero column leaves the unpenalized system singular
    return np.hstack([np.ones((n, 1)), x]), y


@pytest.mark.parametrize("n", [3_200, 245_000])
@pytest.mark.parametrize("path, lam, converged", [
    ("converged", 0.0, True), ("separated", 0.0, False), ("ridge", 1e-2, True), ("singular", 0.0, False),
])
def test_irls_keeps_the_previous_loops_bytes(path, lam, converged, n):
    d, y = irls_case(path, n)
    beta, iters, ok = learners._irls(d, y, lam)
    ref_beta, ref_iters, ref_ok = previous_irls(d, y, lam)
    assert [v.hex() for v in beta] == [v.hex() for v in ref_beta]
    assert (iters, ok) == (ref_iters, ref_ok) and ok == converged
    if path == "singular":
        assert iters == 1 and not beta.any()


# -- probability range over random inputs -------------------------------------

@pytest.mark.parametrize("kind", ["mean", "logistic", "ridge", "boosted_stumps", "knn"])
def test_probability_predictions_in_unit_interval(kind):
    rng = np.random.default_rng(3)
    x = rng.standard_normal((200, 3))
    y = (rng.random(200) < expit(x[:, 0])).astype(float)
    spec = LearnerSpec(kind, ridge_lambda=0.1, rounds=30, knn_k=5)
    model = fit_spec(spec, x, y, response_type="probability")
    assert model.response_type == "probability"
    queries = rng.standard_normal((500, 3)) * 5
    preds = model.predict(queries)
    assert preds.min() >= 0.0 and preds.max() <= 1.0


# -- stumps, knn, saturated ----------------------------------------------------

def test_boosted_stumps_fits_step_function():
    x = np.linspace(0, 1, 200)[:, None]
    y = (x.ravel() > 0.5).astype(float) * 2.0
    model = fit_boosted_stumps(x, y, rounds=60, shrinkage=0.3)
    assert model.training_meta["loss"] < 0.01
    # deterministic refit
    again = fit_boosted_stumps(x, y, rounds=60, shrinkage=0.3)
    assert np.array_equal(model.predict(x), again.predict(x))


def _reference_stumps(x, y, rounds, shrinkage, policy):
    """Boosted stumps with the split search written per feature column."""
    xe = expand_features(x, policy)
    n, p = xe.shape
    orders = [np.argsort(xe[:, j], kind="stable") for j in range(p)]
    f0 = float(y.mean())
    pred = np.full(n, f0)
    stumps = []
    for _ in range(rounds):
        resid = y - pred
        best = None
        for j in range(p):
            xv = xe[orders[j], j]
            csum = np.cumsum(resid[orders[j]])
            change = np.nonzero(np.diff(xv))[0]
            if change.size == 0:
                continue
            cnt_l = change + 1
            sum_l = csum[change]
            cnt_r = n - cnt_l
            sum_r = csum[-1] - sum_l
            gain = sum_l**2 / cnt_l + sum_r**2 / cnt_r
            i = int(np.argmax(gain))
            if best is None or gain[i] > best[0]:
                thr = float(0.5 * (xv[change[i]] + xv[change[i] + 1]))
                best = (gain[i], j, thr, float(sum_l[i] / cnt_l[i]), float(sum_r[i] / cnt_r[i]))
        if best is None:
            break
        _, j, thr, left, right = best
        stumps.append((j, thr, shrinkage * left, shrinkage * right))
        pred = pred + np.where(xe[:, j] <= thr, shrinkage * left, shrinkage * right)
    return f0, stumps, {"loss": float(np.mean((y - pred) ** 2)), "iterations": len(stumps)}


def _reference_predict(f0, stumps, xq, policy, clip):
    xq = expand_features(xq, policy)
    out = np.full(xq.shape[0], f0)
    for j, thr, left, right in stumps:
        out += np.where(xq[:, j] <= thr, left, right)
    return np.clip(out, 0.0, 1.0) if clip else out


def _stump_case(case, rng):
    if case == "ties":
        x = np.round(rng.standard_normal((80, 3)), 1)
    elif case == "one_constant_column":
        x = rng.standard_normal((50, 3))
        x[:, 1] = 2.5
    elif case == "all_constant":
        x = np.full((30, 2), 1.5)
    elif case == "n2":
        x = rng.standard_normal((2, 2))
    else:  # "p1"
        x = np.round(rng.standard_normal((40, 1)), 2)
    y = np.round(x[:, 0] ** 2 + rng.standard_normal(x.shape[0]), 1)
    return x, y


@pytest.mark.parametrize("policy", ["main_effects", "pairwise_interactions", "quadratic"])
@pytest.mark.parametrize("case", ["ties", "one_constant_column", "all_constant", "n2", "p1"])
@pytest.mark.parametrize("probability", [False, True])
def test_boosted_stumps_match_reference_split_search(case, policy, probability):
    rng = np.random.default_rng(11)
    x, y = _stump_case(case, rng)
    if probability:
        y = (y > np.median(y)).astype(float)
    fresh = np.round(rng.standard_normal((25, x.shape[1])) * 1.5, 1)
    model = fit_boosted_stumps(x, y, rounds=40, shrinkage=0.3, feature_policy=policy, probability=probability)
    f0, stumps, meta = _reference_stumps(x, y, 40, 0.3, policy)
    for xq in (x, fresh):
        assert np.array_equal(model.predict(xq), _reference_predict(f0, stumps, xq, policy, probability))
    assert model.training_meta == meta
    assert (meta["iterations"] == 0) == (case == "all_constant")


def test_boosted_stumps_tie_breaks_toward_lower_feature_index():
    rng = np.random.default_rng(4)
    x0 = rng.standard_normal(60)
    y = np.where(x0 > 0.2, 3.0, -1.0) + 0.1 * rng.standard_normal(60)
    model = fit_boosted_stumps(np.column_stack([x0, x0]), y, rounds=30, shrinkage=0.3)
    assert model.training_meta["iterations"] == 30
    # every split of the duplicated column ties; only column 0 may be read
    probe = rng.standard_normal(200)
    reads_col0 = model.predict(np.column_stack([probe, np.zeros(200)]))
    assert np.array_equal(reads_col0, model.predict(np.column_stack([probe, np.full(200, 9.0)])))
    assert np.array_equal(reads_col0, model.predict(np.column_stack([probe, -probe])))
    assert not np.array_equal(reads_col0, model.predict(np.column_stack([-probe, probe])))


def previous_boosted_stumps(x, y, rounds=100, shrinkage=0.1, feature_policy="main_effects", probability=False):
    """``learners.fit_boosted_stumps`` as it was before its prediction went a
    block of rows at a time, kept verbatim as the reference for its bytes."""
    x, y = learners._check_inputs(x, y)
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


def hexes(values):
    return [float(v).hex() for v in np.asarray(values, dtype=float).ravel()]


def _stump_block_rows(rounds):
    return learners.STUMP_PREDICT_BLOCK // rounds


@pytest.mark.parametrize("probability", [False, True])
@pytest.mark.parametrize("policy", ["main_effects", "quadratic"])
def test_stump_predictions_keep_the_previous_loops_bytes(policy, probability):
    rng = np.random.default_rng(21)
    x = np.column_stack([rng.standard_normal(300), rng.integers(0, 2, 300), np.round(rng.standard_normal(300), 1)])
    y = x[:, 0] ** 2 - x[:, 1] + rng.standard_normal(300)
    if probability:
        y = (y > np.median(y)).astype(float)
    model = fit_boosted_stumps(x, y, 120, 0.4, policy, probability)
    ref = previous_boosted_stumps(x, y, 120, 0.4, policy, probability)
    assert model.training_meta == ref.training_meta
    step = _stump_block_rows(120)
    for rows in (1, 2, step - 1, step, step + 1, 2 * step + 3):
        unseen = rng.standard_normal((rows, 3)) * 3  # most of these rows lie outside the training range
        unseen[::3, 1] = 7.0
        for xq in (unseen, x[:rows]):
            assert hexes(model.predict(xq)) == hexes(ref.predict(xq))
    if probability:  # the clip is reached on both sides
        far = rng.standard_normal((400, 3)) * 4
        raw = fit_boosted_stumps(x, y, 120, 0.4, policy).predict(far)
        assert raw.min() < 0.0 and raw.max() > 1.0
        assert hexes(model.predict(far)) == hexes(np.clip(raw, 0.0, 1.0)) == hexes(ref.predict(far))


def test_stump_predictions_without_stumps_are_the_mean():
    x = np.full((25, 3), 2.0)  # every feature constant: no split exists
    y = np.linspace(-1.0, 2.0, 25)
    model = fit_boosted_stumps(x, y, rounds=50)
    ref = previous_boosted_stumps(x, y, rounds=50)
    assert model.training_meta == ref.training_meta == {"loss": ref.training_meta["loss"], "iterations": 0}
    for xq in (x[:1], np.random.default_rng(2).standard_normal((7, 3))):
        assert hexes(model.predict(xq)) == hexes(ref.predict(xq)) == hexes(np.full(xq.shape[0], y.mean()))


def _stump_folds_case(p, probability):
    """Five CV folds of unequal length over p features; the training rows of
    fold 0 hold feature 0 constant, so that fold has fewer candidate splits
    than the others (none at p = 1)."""
    rng = np.random.default_rng(30 + p)
    n = 203
    folds = stratified_folds(n, 5, 7)
    x = np.round(rng.standard_normal((n, p)), 1)
    x[:, 0] = np.where(folds == 0, rng.integers(0, 3, n), 1.0)
    y = x[:, 0] - np.sin(3 * x[:, -1]) + rng.standard_normal(n)
    if probability:
        y = (y > np.median(y)).astype(float)
    return x, y, [folds != v for v in range(5)]


@pytest.mark.parametrize("budget", ["one_group", "two_per_group", "groups_of_one"])
@pytest.mark.parametrize("p", [1, 2, 3, 4])
@pytest.mark.parametrize("probability", [False, True])
def test_stump_folds_boosted_together_keep_the_bytes_of_separate_fits(monkeypatch, budget, p, probability):
    x, y, trains = _stump_folds_case(p, probability)
    fit_bytes = 8 * (p + p % 2) * 163  # a fold's gathered residuals: 162 or 163 rows, features in pairs
    monkeypatch.setattr(learners, "STUMP_GROUP_BYTES", {"one_group": 5 * fit_bytes, "two_per_group": 2 * fit_bytes,
                                                        "groups_of_one": 0}[budget])
    groups = []
    boost_group = learners._boost_group

    def counted(fits, *args):
        groups.append(len(fits))
        return boost_group(fits, *args)

    monkeypatch.setattr(learners, "_boost_group", counted)
    models = learners._fit_stumps(learners._sorted_features(x), trains, y, 60, 0.3, "main_effects", probability)
    boosted = 4 if p == 1 else 5  # a fold without a candidate split boosts no rounds
    assert groups == {"one_group": [boosted], "two_per_group": [2, 2] + [1] * (boosted - 4),
                      "groups_of_one": [1] * boosted}[budget]
    for train, model in zip(trains, models):
        ref = previous_boosted_stumps(x[train], y[train], 60, 0.3, "main_effects", probability)
        assert model.training_meta == ref.training_meta
        for xq in (x[~train], x[train]):
            assert hexes(model.predict(xq)) == hexes(ref.predict(xq))
    assert [model.training_meta["iterations"] for model in models] == [60 * (p > 1)] + [60] * 4


def previous_fit_super_learner(cfg, x, y, seed=0, response_type="continuous", strata=None):
    """``learners.fit_super_learner`` as it was before each CV fold was sliced
    once for every candidate, kept verbatim as the reference for its bytes."""
    x, y = learners._check_inputs(x, y)
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
    weights = solve_simplex_weights(z, y, cfg.loss, learners.WEIGHT_SOLVER_TOL)

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


def _sl_case(binary):
    rng = np.random.default_rng(8 if binary else 9)
    n = 240
    x = np.column_stack([rng.integers(0, 3, n), rng.integers(0, 2, n), rng.integers(-1, 2, n)]).astype(float)
    x[17, 0] = 5.0  # a cell seen once: the saturated candidate meets it unseen in one fold only
    y = x[:, 0] - x[:, 1] + 0.5 * x[:, 2] + rng.standard_normal(n)
    if binary:
        y = (y > np.median(y)).astype(float)
    return x, y


@pytest.mark.parametrize("binary, loss", [(False, "squared_error"), (True, "squared_error"), (True, "log_loss")])
def test_super_learner_keeps_the_previous_loops_bytes(binary, loss):
    x, y = _sl_case(binary)
    response = "probability" if binary else "continuous"
    folds = stratified_folds(x.shape[0], 4, 6, y if binary else None)
    failing = []
    for v in range(4):
        try:
            fit_saturated(x[folds != v], y[folds != v]).predict(x[folds == v])
        except LearnerError:
            failing.append(v)
    assert len(failing) == 1
    cfg = SuperLearnerConfig(
        candidates=(
            LearnerSpec("saturated"),
            LearnerSpec("mean"),
            LearnerSpec("logistic" if binary else "linear"),
            LearnerSpec("ridge", feature_policy="quadratic", ridge_lambda=1e-3),
            LearnerSpec("boosted_stumps", rounds=30),
        ),
        cv_folds=4,
        loss=loss,
    )
    with pytest.warns(UserWarning) as new_warnings:
        model = fit_super_learner(cfg, x, y, seed=6, response_type=response)
    with pytest.warns(UserWarning) as old_warnings:
        ref = previous_fit_super_learner(cfg, x, y, seed=6, response_type=response)
    assert [str(w.message) for w in new_warnings] == [str(w.message) for w in old_warnings]
    assert model.training_meta["dropped"] == ["saturated"]
    assert model.training_meta == ref.training_meta
    assert hexes(list(model.training_meta["weights"].values())) == hexes(list(ref.training_meta["weights"].values()))
    queries = np.column_stack([np.random.default_rng(1).integers(0, 3, 50), np.zeros(50), np.linspace(-2, 2, 50)])
    for xq in (x, x[:1], queries):
        assert hexes(model.predict(xq)) == hexes(ref.predict(xq))


@pytest.mark.parametrize("budget", [1 << 30, 12_000, 0], ids=["one_group", "two_per_group", "groups_of_one"])
@pytest.mark.parametrize("binary, loss", [(False, "squared_error"), (True, "squared_error"), (True, "log_loss")])
def test_super_learner_stump_groups_keep_the_previous_bytes(monkeypatch, budget, binary, loss):
    # 180 training rows per CV fold: a fold's 4 features gather 5,760 bytes, and
    # the 10 pairwise-expanded features 14,400
    monkeypatch.setattr(learners, "STUMP_GROUP_BYTES", budget)
    x, y = _sl_case(binary)
    x = np.column_stack([x, np.round(np.random.default_rng(5).standard_normal(x.shape[0]), 1)])
    response = "probability" if binary else "continuous"
    cfg = SuperLearnerConfig(
        candidates=(
            LearnerSpec("mean"),
            LearnerSpec("ridge", feature_policy="quadratic", ridge_lambda=1e-3),
            LearnerSpec("boosted_stumps", rounds=30),
            LearnerSpec("boosted_stumps", feature_policy="pairwise_interactions", rounds=20, shrinkage=0.3),
        ),
        cv_folds=4,
        loss=loss,
    )
    model = fit_super_learner(cfg, x, y, seed=6, response_type=response)
    # the reference sorts and boosts each stump fit on its own
    monkeypatch.setattr(learners, "fit_boosted_stumps", previous_boosted_stumps)
    ref = previous_fit_super_learner(cfg, x, y, seed=6, response_type=response)
    assert model.training_meta == ref.training_meta
    assert hexes(list(model.training_meta["weights"].values())) == hexes(list(ref.training_meta["weights"].values()))
    queries = np.random.default_rng(3).standard_normal((60, 4)) * 2
    for xq in (x, x[:1], queries):
        assert hexes(model.predict(xq)) == hexes(ref.predict(xq))


def test_super_learner_drops_every_failed_candidate_in_candidate_order():
    x, y = _sl_case(False)
    cfg = SuperLearnerConfig(
        candidates=(LearnerSpec("logistic"), LearnerSpec("mean"), LearnerSpec("saturated")), cv_folds=3
    )
    with pytest.warns(UserWarning) as caught:
        model = fit_super_learner(cfg, x, y, seed=2)
    with pytest.warns(UserWarning) as ref_caught:
        previous_fit_super_learner(cfg, x, y, seed=2)
    messages = [str(w.message) for w in caught]
    assert messages == [str(w.message) for w in ref_caught]
    assert [m.split(":")[0] for m in messages] == [
        "super learner dropped candidate logistic", "super learner dropped candidate saturated",
    ]
    assert model.training_meta["dropped"] == ["logistic", "saturated"]


def previous_simplex_project(v):
    """``learners._simplex_project`` as it was before it ran on Python floats,
    kept verbatim as the reference for its bytes."""
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


@pytest.mark.parametrize("m", range(1, 9))
def test_simplex_projection_keeps_the_previous_bytes(m):
    rng = np.random.default_rng(m)
    cases = [rng.standard_normal(m) * scale for scale in (1e-3, 1.0, 50.0) for _ in range(300)]
    cases += [np.round(rng.standard_normal(m), 1) for _ in range(300)]  # ties
    cases += [-np.abs(rng.standard_normal(m)) - k for k in range(50)]  # every entry negative
    cases += [np.full(m, 0.25), np.zeros(m), np.full(m, -0.0), np.full(m, 1e300), np.eye(m)[0] * 1e17]
    nonfinite = np.zeros(m)
    for bad in (np.nan, np.inf, -np.inf):
        nonfinite[m // 2] = bad
        cases.append(nonfinite.copy())
    for v in cases:
        out = learners._simplex_project(v)
        assert out.dtype == np.float64 and out.shape == (m,)
        with np.errstate(invalid="ignore", over="ignore"):
            assert hexes(out) == hexes(previous_simplex_project(v)), v


def previous_solve_simplex_weights(z, y, loss, tol):
    """``learners.solve_simplex_weights`` as it was before its stopping rule
    skipped ``np.linalg.norm``'s wrappers, kept verbatim as the reference for
    its bytes, with ``previous_simplex_project`` for its projection."""
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
            cand = previous_simplex_project(w - step * g)
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


@pytest.mark.parametrize("loss", ["squared_error", "log_loss"])
@pytest.mark.parametrize("m", [2, 3, 4, 6])
def test_simplex_weights_keep_the_previous_bytes(loss, m):
    rng = np.random.default_rng(10 * m)
    for n in (40, 300):
        y = (rng.random(n) < 0.4).astype(float)
        z = np.clip(y[:, None] * rng.random(m) + rng.random((n, m)) * 0.6, 0.0, 1.0)
        z[:, -1] = z[:, 0]  # two candidates that tie
        z[:, m // 2] = 0.4  # a constant candidate
        weights = solve_simplex_weights(z, y, loss, learners.WEIGHT_SOLVER_TOL)
        assert hexes(weights) == hexes(previous_solve_simplex_weights(z, y, loss, learners.WEIGHT_SOLVER_TOL))


@pytest.mark.parametrize("seed", [71, 72, 99])
def test_simplex_weights_keep_the_previous_bytes_where_the_stopping_rule_decides(seed):
    # interior optima whose weights move when the tolerance goes from 1e-12 to 1e-11
    rng = np.random.default_rng(seed)
    y = rng.standard_normal(120)
    z = y[:, None] + rng.standard_normal((120, 3)) * np.array([0.5, 0.6, 0.7])
    tol = learners.WEIGHT_SOLVER_TOL
    assert hexes(solve_simplex_weights(z, y, "squared_error", tol)) != hexes(
        solve_simplex_weights(z, y, "squared_error", 10 * tol)
    )
    assert hexes(solve_simplex_weights(z, y, "squared_error", tol)) == hexes(
        previous_solve_simplex_weights(z, y, "squared_error", tol)
    )


def test_knn_k1_memorizes_training_points():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((50, 2))
    y = rng.standard_normal(50)
    model = fit_knn(x, y, k=1)
    assert np.allclose(model.predict(x), y)


def test_saturated_learner_cell_means_and_unseen_cell():
    x = np.array([[0.0], [0.0], [1.0], [1.0]])
    y = np.array([1.0, 3.0, 5.0, 7.0])
    model = fit_saturated(x, y)
    assert np.allclose(model.predict(np.array([[0.0], [1.0]])), [2.0, 6.0])
    with pytest.raises(LearnerError):
        model.predict(np.array([[2.0]]))


def test_expand_features_shapes():
    x = np.ones((4, 3))
    assert expand_features(x, "main_effects").shape == (4, 3)
    assert expand_features(x, "pairwise_interactions").shape == (4, 6)
    assert expand_features(x, "quadratic").shape == (4, 9)


# -- folds ---------------------------------------------------------------------

def test_stratified_folds_balanced_and_deterministic():
    strata = np.array([0] * 30 + [1] * 10)
    labels = stratified_folds(40, 5, seed=11, strata=strata)
    again = stratified_folds(40, 5, seed=11, strata=strata)
    assert np.array_equal(labels, again)
    for v in range(5):
        assert (labels[strata == 1] == v).sum() == 2
        assert (labels[strata == 0] == v).sum() == 6
    assert not np.array_equal(labels, stratified_folds(40, 5, seed=12, strata=strata))


# -- super learner ---------------------------------------------------------------

def test_super_learner_singleton_weight_is_one():
    cfg = SuperLearnerConfig(candidates=(LearnerSpec("mean"),), cv_folds=3)
    x = RNG.standard_normal((30, 2))
    y = RNG.standard_normal(30)
    model = fit_super_learner(cfg, x, y, seed=0)
    assert model.training_meta["weights"] == {"mean": 1.0}


def test_super_learner_prefers_true_model_on_noiseless_data():
    x = RNG.standard_normal((60, 2))
    y = x @ np.array([2.0, -1.0])
    cfg = SuperLearnerConfig(candidates=(LearnerSpec("mean"), LearnerSpec("linear")), cv_folds=5)
    model = fit_super_learner(cfg, x, y, seed=1)
    weights = model.training_meta["weights"]
    assert weights["linear"] >= 0.99
    losses = model.training_meta["cv_losses"]
    assert model.training_meta["cv_loss_combination"] <= min(losses.values()) + 1e-10


def test_super_learner_combination_dominates_vertices_on_noisy_data():
    # truth is the constant mean; a rich linear model overfits at n = 20
    rng = np.random.default_rng(9)
    x = rng.standard_normal((20, 6))
    y = 1.0 + rng.standard_normal(20)
    cfg = SuperLearnerConfig(candidates=(LearnerSpec("mean"), LearnerSpec("linear")), cv_folds=4)
    model = fit_super_learner(cfg, x, y, seed=2)
    meta = model.training_meta
    assert meta["cv_loss_combination"] <= min(meta["cv_losses"].values()) + 1e-10
    w = np.array(list(meta["weights"].values()))
    assert (w >= 0).all() and abs(w.sum() - 1.0) < 1e-8


def test_super_learner_drops_failing_candidate_with_warning():
    x = RNG.standard_normal((30, 2))
    y = x[:, 0] * 2.0  # continuous response: the logistic candidate cannot fit it
    cfg = SuperLearnerConfig(candidates=(LearnerSpec("logistic"), LearnerSpec("linear")), cv_folds=3)
    with pytest.warns(UserWarning, match="dropped candidate"):
        model = fit_super_learner(cfg, x, y, seed=0)
    assert model.training_meta["dropped"] == ["logistic"]


def test_super_learner_all_fail_raises():
    x = RNG.standard_normal((30, 2))
    y = x[:, 0]
    cfg = SuperLearnerConfig(candidates=(LearnerSpec("logistic"),), cv_folds=3)
    with pytest.raises(LearnerError):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            fit_super_learner(cfg, x, y, seed=0)


@pytest.mark.parametrize("response_type", ["continuous", "probability"])
def test_super_learner_ignores_what_a_zero_weight_candidate_predicts(response_type):
    # candidates that overflow on a covariate near 1e200 take weight 0; their
    # non-finite predictions must not turn 0 * inf into NaN
    rng = np.random.default_rng(8)
    x = rng.standard_normal((200, 3))
    x[:, 1] *= 1e200
    binary = response_type == "probability"
    y = (rng.random(200) < 0.5).astype(float) if binary else x[:, 0] + rng.standard_normal(200)
    cfg = learners.default_binary_sl() if binary else learners.default_continuous_sl()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        model = fit_super_learner(cfg, x, y, seed=1, response_type=response_type)
        pred = model.predict(x)
    assert 0.0 in model.training_meta["weights"].values()
    assert np.isfinite(pred).all()


def test_super_learner_deterministic_given_seed():
    rng = np.random.default_rng(12)
    x = rng.standard_normal((80, 3))
    y = x[:, 0] ** 2 + rng.standard_normal(80) * 0.3
    cfg = SuperLearnerConfig(
        candidates=(LearnerSpec("mean"), LearnerSpec("linear"), LearnerSpec("boosted_stumps", rounds=25)),
        cv_folds=4,
    )
    queries = rng.standard_normal((40, 3))
    a = fit_super_learner(cfg, x, y, seed=5).predict(queries)
    b = fit_super_learner(cfg, x, y, seed=5).predict(queries)
    assert np.array_equal(a, b)


def test_simplex_solver_weights_on_simplex():
    rng = np.random.default_rng(1)
    z = rng.standard_normal((200, 4))
    y = z @ np.array([0.1, 0.2, 0.3, 0.4]) + rng.standard_normal(200) * 0.05
    w = solve_simplex_weights(z, y, "squared_error", 1e-12)
    assert (w >= 0).all()
    assert abs(w.sum() - 1.0) < 1e-8
    vertex_losses = [np.mean((y - z[:, j]) ** 2) for j in range(4)]
    assert np.mean((y - z @ w) ** 2) <= min(vertex_losses) + 1e-10


# -- two-part --------------------------------------------------------------------

def test_two_part_all_zero_predicts_zero():
    x = RNG.standard_normal((10, 1))
    with pytest.warns(UserWarning, match="no nonzero"):
        model = fit_two_part(x, np.zeros(10), LearnerSpec("logistic"), LearnerSpec("linear"))
    assert np.allclose(model.predict(x), 0.0)


def test_two_part_all_nonzero_equals_positive_part():
    rng = np.random.default_rng(8)
    x = rng.standard_normal((40, 2))
    y = 1.0 + x[:, 0] + rng.standard_normal(40) * 0.1
    model = fit_two_part(x, y, LearnerSpec("logistic"), LearnerSpec("linear"), seed=3)
    positive_alone = train(LearnerSpec("linear"), x, y, "continuous", seed=4)
    assert np.array_equal(model.predict(x), positive_alone.predict(x))


def test_two_part_prediction_is_exact_product():
    rng = np.random.default_rng(21)
    x = rng.standard_normal((200, 2))
    latent = expit(x[:, 0])
    y = (rng.random(200) < latent) * (2.0 + x[:, 1])
    model = fit_two_part(x, y, LearnerSpec("logistic"), LearnerSpec("linear"), seed=6)
    p_model = train(LearnerSpec("logistic"), x, (y != 0).astype(float), "probability", seed=6)
    m_model = train(LearnerSpec("linear"), x[y != 0], y[y != 0], "continuous", seed=7)
    queries = rng.standard_normal((50, 2))
    assert np.array_equal(model.predict(queries), p_model.predict(queries) * m_model.predict(queries))


def test_two_part_product_value():
    # a half-probability zero part with a positive mean of 4 predicts 2
    p = FittedModel(lambda q: np.full(np.atleast_2d(q).shape[0], 0.5), "probability")
    m = FittedModel(lambda q: np.full(np.atleast_2d(q).shape[0], 4.0), "continuous")
    pred = p.predict(np.zeros((3, 1))) * m.predict(np.zeros((3, 1)))
    assert np.allclose(pred, 2.0)


def test_learner_spec_rejects_bad_parameters():
    with pytest.raises(LearnerError):
        LearnerSpec("ridge", ridge_lambda=-1.0)
    with pytest.raises(LearnerError):
        LearnerSpec("boosted_stumps", rounds=0)
    with pytest.raises(LearnerError):
        LearnerSpec("boosted_stumps", shrinkage=1.5)
    with pytest.raises(LearnerError):
        LearnerSpec("knn", knn_k=0)
    with pytest.raises(LearnerError):
        LearnerSpec("unknown_kind")


def test_super_learner_log_loss_binary_stacking():
    rng = np.random.default_rng(33)
    x = rng.standard_normal((300, 2))
    y = (rng.random(300) < expit(1.5 * x[:, 0])).astype(float)
    cfg = SuperLearnerConfig(
        candidates=(LearnerSpec("mean"), LearnerSpec("logistic")), cv_folds=4, loss="log_loss"
    )
    model = fit_super_learner(cfg, x, y, seed=0, response_type="probability")
    meta = model.training_meta
    assert meta["weights"]["logistic"] > 0.9
    assert meta["cv_loss_combination"] <= min(meta["cv_losses"].values()) + 1e-10
    preds = model.predict(rng.standard_normal((100, 2)))
    assert preds.min() >= 0.0 and preds.max() <= 1.0
