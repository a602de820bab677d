import os

import numpy as np
import pytest

from pathshift.data import AnalysisFrame
from pathshift.learners import LearnerSpec, SuperLearnerConfig
from pathshift.nuisance import EstimandId, NuisanceCache, NuisanceError, NuisanceLearners, fit_all
from pathshift.oracle import ExactNuisances, population_frame
from pathshift.simulation import DgpSpec, Sim2Exact, generate
from pathshift.toys import toy_dyadic_k2

SATURATED = NuisanceLearners(binary=LearnerSpec("saturated"), continuous=LearnerSpec("saturated"))


# -- estimand bookkeeping ------------------------------------------------------

def test_estimand_arm_vectors():
    assert EstimandId.dis().r0 == 0 and EstimandId.dis().mediator_arms(4) == (0, 0, 0, 0)
    assert EstimandId.adv().mediator_arms(3) == (1, 1, 1)
    direct = EstimandId.direct()
    assert direct.r0 == 1 and direct.mediator_arms(4) == (0, 0, 0, 0)
    m2 = EstimandId.mediator(2)
    assert m2.r0 == 0 and m2.mediator_arms(4) == (0, 1, 0, 0)
    s2 = EstimandId.sequential(2)
    assert s2.r0 == 1 and s2.mediator_arms(4) == (0, 0, 1, 1)
    shift = EstimandId.shift(1, (0, 1, 1, 0))
    assert shift.r0 == 1 and shift.mediator_arms(4) == (0, 1, 1, 0) and shift.label == "gamma_shift_1_0110"
    with pytest.raises(NuisanceError):
        EstimandId("mediator")
    with pytest.raises(NuisanceError):
        EstimandId("dis", k=2)
    with pytest.raises(NuisanceError):
        EstimandId.mediator(5).validate(4)
    with pytest.raises(NuisanceError):
        EstimandId.shift(0, (0, 2))
    with pytest.raises(NuisanceError):
        EstimandId.shift(0, (0, 1)).validate(4)


def test_chain_levels():
    # (prefix, arm) per level, outcome regression first
    assert EstimandId.dis().chain(4) == ((0, 0),)
    assert EstimandId.adv().chain(4) == ((0, 1),)
    assert EstimandId.direct().chain(4) == ((4, 1), (0, 0))
    assert EstimandId.sequential(4).chain(4) == EstimandId.direct().chain(4)
    assert EstimandId.sequential(2).chain(4) == ((2, 1), (0, 0))
    assert EstimandId.mediator(1).chain(4) == ((1, 0), (0, 1))
    assert EstimandId.mediator(3).chain(4) == ((3, 0), (2, 1), (0, 0))
    # blocks above the last one off r0 fold into the outcome regression
    assert EstimandId.shift(0, (1, 1, 0, 1, 0)).chain(5) == ((4, 0), (3, 1), (2, 0), (0, 1))
    assert EstimandId.shift(1, (1, 1, 1)).chain(3) == EstimandId.adv().chain(3)


def small_frame(n=400, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, 2))
    r = (rng.random(n) < 0.5).astype(np.int8)
    m1 = rng.standard_normal((n, 1))
    m2 = rng.standard_normal((n, 1)) + 0.5 * m1
    y = 1.0 + x[:, 0] + m2[:, 0] + rng.standard_normal(n)
    return AnalysisFrame(x=x, r=r, m_blocks=(m1, m2), y=y)


# -- propensity and g -----------------------------------------------------------

def test_propensity_marginal_when_r_independent():
    frame = small_frame(4000, seed=1)
    pi = NuisanceCache(frame).pi()
    assert abs(pi.mean() - frame.r.mean()) < 0.02
    assert pi.std() < 0.05


def test_propensity_clipping_on_separable_group():
    rng = np.random.default_rng(2)
    x = np.repeat([[-1.0], [1.0]], 100, axis=0)
    r = (x[:, 0] > 0).astype(np.int8)
    frame = AnalysisFrame(x=x, r=r, m_blocks=(rng.standard_normal((200, 1)),), y=rng.standard_normal(200))
    pi = NuisanceCache(frame, delta=0.01).pi()
    assert set(np.round(np.unique(pi), 10)) == {0.01, 0.99}


def test_g_close_to_pi_when_mediators_uninformative():
    frame = small_frame(4000, seed=3)
    cache = NuisanceCache(frame)
    pi = cache.pi()
    g1 = cache.g(1)
    assert np.abs(g1 - pi).mean() < 0.03


def _auc(score, label):
    order = np.argsort(score)
    ranks = np.empty(len(score))
    ranks[order] = np.arange(1, len(score) + 1)
    pos = label == 1
    return (ranks[pos].sum() - pos.sum() * (pos.sum() + 1) / 2) / (pos.sum() * (~pos).sum())


def test_g_more_informative_than_pi_on_sim2():
    frame = generate(DgpSpec("sim2_misspec"), 4000, seed=5)
    cache = NuisanceCache(frame)
    pi = cache.pi()
    g4 = cache.g(4)
    assert _auc(g4, frame.r) >= _auc(pi, frame.r)


def test_g_respects_truncation():
    frame = generate(DgpSpec("sim2_misspec"), 1000, seed=6)
    g = NuisanceCache(frame, delta=0.05).g(2)
    assert g.min() >= 0.05 and g.max() <= 0.95


# -- outcome and pseudo-outcome regressions -------------------------------------

def test_mu_constant_outcome():
    frame = small_frame(300, seed=7)
    const_frame = AnalysisFrame(x=frame.x, r=frame.r, m_blocks=frame.m_blocks, y=np.full(frame.n, 3.5))
    mu = NuisanceCache(const_frame).level(None, 1, 0).oof
    assert np.allclose(mu, 3.5, atol=1e-8)


def test_B_of_constant_mu_is_constant():
    frame = small_frame(300, seed=8)
    const_frame = AnalysisFrame(x=frame.x, r=frame.r, m_blocks=frame.m_blocks, y=np.full(frame.n, -2.0))
    cache = NuisanceCache(const_frame)
    b = cache.level(cache.level(None, 2, 0), 1, 1).oof
    assert np.allclose(b, -2.0, atol=1e-8)


def test_two_part_outcome_model_used_on_log_positive_scale():
    rng = np.random.default_rng(9)
    n = 500
    frame0 = small_frame(n, seed=9)
    y = np.where(rng.random(n) < 0.3, 0.0, rng.standard_normal(n) + 2.0)
    frame = AnalysisFrame(x=frame0.x, r=frame0.r, m_blocks=frame0.m_blocks, y=y, scale_applied="log_positive")
    mu = NuisanceCache(frame).level(None, 0, 0).oof
    # composite prediction should track P(y != 0) * E[y | y != 0] within the stratum
    target = (y[frame.r == 0] != 0).mean() * y[frame.r == 0][y[frame.r == 0] != 0].mean()
    assert abs(mu.mean() - target) < 0.25


def test_saturated_nuisances_match_enumeration_tables():
    dgp = toy_dyadic_k2()
    frame, states = population_frame(dgp, 2 * 4 * 8 * 8 * 8)
    ex = ExactNuisances(dgp)
    cache = NuisanceCache(frame, SATURATED, delta=0.0, seed=0)

    pi_exact = ex.pi_table()[states.x_idx]
    assert np.abs(cache.pi() - pi_exact).max() < 1e-12

    g2_exact = ex.g_table(2)[states.x_idx, states.m_idx[0], states.m_idx[1]]
    assert np.abs(cache.g(2) - g2_exact).max() < 1e-12

    # every regression level of every arm vector, against the exact tables
    for r0 in (0, 1):
        for arms in [(0, 0), (0, 1), (1, 0), (1, 1)]:
            estimand = EstimandId.shift(r0, arms)
            fitted = fit_all(frame, estimand, cache=cache)
            exact = ex.nuisance_set(states, estimand)
            for j, (q_fit, q_exact) in enumerate(zip(fitted.Q, exact.Q, strict=True)):
                assert np.abs(q_fit - q_exact).max() < 1e-12, (estimand.label, j)


def test_k1_C_is_B_structurally():
    # for k = 1 the regression of mu_1 onto X within R=1 is the last level:
    # no separate centering regression is fit
    frame = small_frame(300, seed=11)
    cache = NuisanceCache(frame, seed=0)
    q = fit_all(frame, EstimandId.mediator(1), cache=cache)
    assert len(q.Q) == 2
    assert q.Q[1] is cache.level(cache.level(None, 1, 0), 0, 1).oof


def test_fit_all_requires_only_needed_nuisances():
    frame = small_frame(300, seed=12)
    q = fit_all(frame, EstimandId.dis(), seed=0)
    assert len(q.Q) == 1 and not q.g
    q2 = fit_all(frame, EstimandId.direct(), seed=0)
    assert set(q2.g) == {2} and len(q2.Q) == 2
    q3 = fit_all(frame, EstimandId.mediator(2), seed=0)
    assert set(q3.g) == {1, 2} and len(q3.Q) == 3


def test_single_fold_equals_no_crossfitting():
    frame = small_frame(500, seed=13)
    c_none = NuisanceCache(frame, folds=None, seed=4)
    c_one = NuisanceCache(frame, folds=1, seed=4)
    q_none = fit_all(frame, EstimandId.mediator(2), cache=c_none)
    q_one = fit_all(frame, EstimandId.mediator(2), cache=c_one)
    assert np.array_equal(q_none.pi, q_one.pi)
    assert all(np.array_equal(a, b) for a, b in zip(q_none.Q, q_one.Q, strict=True))
    for cache in (c_none, c_one):
        assert cache.n_folds == 1 and not cache.fold_labels.any()


def test_fit_all_deterministic_given_seed():
    frame = small_frame(500, seed=14)
    ca, cb = NuisanceCache(frame, folds=3, seed=5), NuisanceCache(frame, folds=3, seed=5)
    a = fit_all(frame, EstimandId.mediator(1), cache=ca)
    b = fit_all(frame, EstimandId.mediator(1), cache=cb)
    assert np.array_equal(a.pi, b.pi)
    assert all(np.array_equal(u, v) for u, v in zip(a.Q, b.Q, strict=True))
    assert np.array_equal(ca.fold_labels, cb.fold_labels)


def test_crossfit_runs_and_validates():
    frame = generate(DgpSpec("sim2_misspec"), 1200, seed=15)
    cache = NuisanceCache(frame, folds=5, seed=6)
    q = fit_all(frame, EstimandId.mediator(2), cache=cache)
    q.validate()
    assert cache.n_folds == 5 and set(cache.fold_labels.tolist()) == set(range(5))
    assert all(np.isfinite(v).all() for v in q.Q)


def test_single_class_training_split_errors():
    rng = np.random.default_rng(16)
    n = 40
    r = np.zeros(n, dtype=np.int8)  # no comparison rows: the one training split is single-class
    frame = AnalysisFrame(x=rng.standard_normal((n, 1)), r=r, m_blocks=(rng.standard_normal((n, 1)),), y=rng.standard_normal(n))
    with pytest.raises(NuisanceError, match="single group level"):
        NuisanceCache(frame, seed=0).pi()


def test_route_requires_alternative_covariates():
    frame = small_frame(200, seed=17)
    with pytest.raises(NuisanceError, match="alternative covariate"):
        NuisanceCache(frame, route={"pi": "false"})


def test_route_changes_only_routed_nuisance():
    frame = generate(DgpSpec("sim2_misspec"), 800, seed=18)
    from pathshift.simulation import misspecified_matrix

    x_alt = misspecified_matrix(frame)
    plain = NuisanceCache(frame, seed=7)
    routed = NuisanceCache(frame, seed=7, x_alt=x_alt, route={"pi": "false"})
    assert not np.array_equal(plain.pi(), routed.pi())
    assert np.array_equal(plain.g(1), routed.g(1))


def test_exact_key_route_overrides_generic():
    frame = generate(DgpSpec("sim2_misspec"), 800, seed=19)
    from pathshift.simulation import misspecified_matrix

    x_alt = misspecified_matrix(frame)
    cache = NuisanceCache(frame, seed=8, x_alt=x_alt, route={"g2": "false"})
    plain = NuisanceCache(frame, seed=8)
    assert np.array_equal(cache.g(1), plain.g(1))
    assert not np.array_equal(cache.g(2), plain.g(2))


def test_level_route_follows_chain_depth():
    frame = generate(DgpSpec("sim2_misspec"), 800, seed=18)
    from pathshift.simulation import misspecified_matrix

    cache = NuisanceCache(frame, seed=7, x_alt=misspecified_matrix(frame), route={"Q1": "false"})
    routed = fit_all(frame, EstimandId.mediator(2), cache=cache)
    plain = fit_all(frame, EstimandId.mediator(2), seed=7)
    assert np.array_equal(routed.Q[0], plain.Q[0])
    assert not np.array_equal(routed.Q[1], plain.Q[1])
    assert np.array_equal(routed.g[2], plain.g[2])


def test_crossfit_vs_none_within_two_se_on_sim2():
    from pathshift.estimators import estimate

    frame = generate(DgpSpec("sim2_misspec"), 8000, seed=20)
    est_none = estimate(frame, fit_all(frame, EstimandId.direct(), seed=9))
    est_cf = estimate(frame, fit_all(frame, EstimandId.direct(), seed=9, folds=5))
    assert abs(est_none.point - est_cf.point) < 2 * max(est_none.se, est_cf.se)


def test_nuisance_set_validation_catches_breaches():
    frame = small_frame(100, seed=21)
    q = fit_all(frame, EstimandId.dis(), seed=0)
    q.pi = q.pi.copy()
    q.pi[0] = 0.0001  # below delta
    with pytest.raises(NuisanceError, match="truncation"):
        q.validate()
    q.pi[0] = np.nan
    with pytest.raises(NuisanceError, match="non-finite"):
        q.validate()


def test_propensity_recovers_generating_logit_on_sim2():
    # the sim2 propensity is exactly logistic-linear in X
    from scipy.special import expit

    spec = DgpSpec("sim2_misspec")
    frame = generate(spec, 100_000, seed=22)
    pi_hat = NuisanceCache(frame, delta=0.001).pi()
    truth = Sim2Exact(spec).pi_vec(frame)
    assert np.abs(pi_hat - truth).max() < 0.02


# -- the fold pool ---------------------------------------------------------------

SMALL_SL = NuisanceLearners(
    binary=SuperLearnerConfig(candidates=(LearnerSpec("mean"), LearnerSpec("logistic")), cv_folds=3),
    continuous=SuperLearnerConfig(
        candidates=(LearnerSpec("linear"), LearnerSpec("boosted_stumps", rounds=20)), cv_folds=3
    ),
)
POOL_ESTIMANDS = (EstimandId.adv(), EstimandId.mediator(1), EstimandId.sequential(2), EstimandId.direct())


def test_prefit_fills_the_cache_from_fold_workers(monkeypatch, usable_cores):
    usable_cores(2)
    frame = generate(DgpSpec("sim2_misspec"), 600, seed=22)
    for learners, folds in ((None, 3), (None, None), (SMALL_SL, None)):
        serial = NuisanceCache(frame, learners, folds=folds, seed=5)
        pooled = NuisanceCache(frame, learners, folds=folds, seed=5)
        pooled.prefit(POOL_ESTIMANDS, jobs=2)
        assert pooled._store and all(not level.models for level in pooled._store.values())  # models stay in the workers

        def refit(level, v):
            raise AssertionError(f"refit {level.key} fold {v}")

        monkeypatch.setattr(pooled, "_fit_fold", refit)
        for estimand in POOL_ESTIMANDS:
            a = fit_all(frame, estimand, cache=serial)
            b = fit_all(frame, estimand, cache=pooled)
            assert np.array_equal(a.pi, b.pi)
            assert a.g.keys() == b.g.keys() and all(np.array_equal(a.g[k], b.g[k]) for k in a.g)
            assert all(np.array_equal(qa, qb) for qa, qb in zip(a.Q, b.Q, strict=True))
        assert pooled.diagnostics() == serial.diagnostics()
    with pytest.raises(ChildProcessError):  # every worker was reaped
        os.waitpid(-1, os.WNOHANG)


def test_prefit_starts_no_pool_for_one_job_one_core_or_one_task(monkeypatch, usable_cores):
    def no_pool():
        raise AssertionError("a pool was started")

    monkeypatch.setattr(os, "fork", no_pool)
    frame = small_frame(200, seed=24)
    for folds, jobs, cores in ((3, 1, 2), (3, 2, 1), (None, 2, 2)):
        usable_cores(cores)
        cache = NuisanceCache(frame, folds=folds, seed=0)
        if folds is None:
            cache.pi()  # leaves one task: the outcome level, in one fold
        fitted = set(cache._store)
        cache.prefit(POOL_ESTIMANDS[:1], jobs=jobs)
        assert set(cache._store) == fitted
