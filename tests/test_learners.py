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
