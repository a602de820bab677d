import numpy as np
import pytest

from pathshift.data import AnalysisFrame
from pathshift.estimators import EstimationError, estimate, gamma_summands, gamma_terms
from pathshift.learners import LearnerSpec
from pathshift.nuisance import EstimandId, NuisanceCache, NuisanceLearners, NuisanceSet, fit_all
from pathshift.oracle import ExactNuisances, enumerate_gamma, population_frame, sample
from pathshift.simulation import DgpSpec, Sim2Exact, generate
from pathshift.toys import toy_dyadic_k2, toy_k1, toy_k2, toy_k4

SATURATED = NuisanceLearners(binary=LearnerSpec("saturated"), continuous=LearnerSpec("saturated"))


def manual_frame(n=200, seed=0, y=None):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, 1))
    r = np.tile([0, 1], n // 2).astype(np.int8)
    m = rng.standard_normal((n, 1))
    if y is None:
        y = rng.standard_normal(n)
    return AnalysisFrame(x=x, r=r, m_blocks=(m,), y=np.asarray(y, dtype=float))


def test_aipw_constant_outcome_is_exact():
    frame = manual_frame(100, y=np.full(100, 5.0))
    for estimand in [EstimandId.dis(), EstimandId.adv()]:
        q = NuisanceSet(estimand=estimand, n_blocks=1, pi=np.full(100, 0.37), Q=[np.full(100, 5.0)], delta=0.0)
        est = estimate(frame, q)
        assert est.point == pytest.approx(5.0, abs=1e-12)
        assert abs(est.eif.mean()) < 1e-12


def test_aipw_reduces_to_horvitz_thompson_when_mu_zero():
    frame = manual_frame(500, seed=2)
    q = NuisanceSet(estimand=EstimandId.dis(), n_blocks=1, pi=np.full(500, 0.5), Q=[np.zeros(500)], delta=0.0)
    est = estimate(frame, q)
    ht = 2.0 / 500 * frame.y[frame.r == 0].sum()
    assert est.point == pytest.approx(ht, abs=1e-12)


def test_missing_nuisance_raises():
    frame = manual_frame(50)
    q = NuisanceSet(estimand=EstimandId.direct(), n_blocks=1, pi=np.full(50, 0.5), delta=0.0)
    with pytest.raises(EstimationError, match="missing"):
        estimate(frame, q)


def test_nonfinite_weight_raises():
    frame = manual_frame(50)
    q = NuisanceSet(
        estimand=EstimandId.direct(),
        n_blocks=1,
        pi=np.full(50, 1.0),  # 1/(1-pi) blows up
        g={1: np.full(50, 0.5)},
        Q=[np.zeros(50), np.zeros(50)],
        delta=0.0,
    )
    with pytest.raises(EstimationError, match="delta"):
        estimate(frame, q)


# -- exact-nuisance estimation on discrete toys ----------------------------------

@pytest.mark.parametrize("builder", [toy_k1, toy_k2, toy_k4])
def test_exact_nuisance_estimates_hit_enumeration_within_3_se(builder):
    dgp = builder()
    frame, states = sample(dgp, 100_000, seed=31)
    ex = ExactNuisances(dgp)
    estimands = [EstimandId.dis(), EstimandId.adv(), EstimandId.direct()]
    estimands += [EstimandId.mediator(k) for k in range(1, dgp.n_blocks + 1)]
    for estimand in estimands:
        q = ex.nuisance_set(states, estimand)
        est = estimate(frame, q)
        truth = enumerate_gamma(dgp, estimand)
        assert abs(est.point - truth) <= 3 * est.se, estimand.label


def test_population_plug_in_of_exact_C_matches_truth():
    # population mean of the exact last regression level equals the functional
    dgp = toy_k2()
    ex = ExactNuisances(dgp)
    estimands = [EstimandId.shift(r0, (a1, a2)) for r0 in (0, 1) for a1 in (0, 1) for a2 in (0, 1)]
    for estimand in estimands + [EstimandId.direct(), EstimandId.mediator(1), EstimandId.mediator(2)]:
        chain = estimand.chain(dgp.n_blocks)
        table = ex.mu_table(*chain[0])
        for prefix, arm in chain[1:]:
            table = ex.integrate(table, prefix, arm)
        assert table.shape == (dgp.sx,)
        assert abs(table @ dgp.p_x - enumerate_gamma(dgp, estimand)) < 1e-10, estimand.label


def test_saturated_fit_on_population_frame_equals_enumeration():
    dgp = toy_dyadic_k2()
    frame, _ = population_frame(dgp, 2 * 4 * 8 * 8 * 8)
    cache = NuisanceCache(frame, SATURATED, delta=0.0, seed=0)
    for estimand in [EstimandId.dis(), EstimandId.adv(), EstimandId.direct(),
                     EstimandId.mediator(1), EstimandId.mediator(2),
                     EstimandId.sequential(1), EstimandId.sequential(2)]:
        est = estimate(frame, fit_all(frame, estimand, cache=cache))
        assert est.point == pytest.approx(enumerate_gamma(dgp, estimand), abs=1e-10), estimand.label


# -- structural identities ---------------------------------------------------------

def test_centered_eif_mean_zero():
    frame = generate(DgpSpec("sim2_misspec"), 1000, seed=40)
    cache = NuisanceCache(frame, seed=1)
    for estimand in [EstimandId.dis(), EstimandId.direct(), EstimandId.mediator(2)]:
        est = estimate(frame, fit_all(frame, estimand, cache=cache))
        assert abs(est.eif.mean()) <= 1e-10 * max(1.0, abs(est.point))


def test_point_equals_sum_of_term_means():
    frame = generate(DgpSpec("sim2_misspec"), 1500, seed=41)
    cache = NuisanceCache(frame, seed=2)
    for estimand in [EstimandId.direct(), EstimandId.mediator(1), EstimandId.mediator(3)]:
        q = fit_all(frame, estimand, cache=cache)
        est = estimate(frame, q)
        terms = gamma_terms(frame.y, frame.r, q)
        assert est.point == pytest.approx(sum(float(np.mean(t)) for t in terms), abs=1e-12)


# Closed-form one-step summands of the named estimands, written out per kind;
# the generic chain summand must reduce to each of them.

def _summand_dis(y, r, pi, g, Q):
    return (1 - r) / (1 - pi) * (y - Q[0]) + Q[0]


def _summand_adv(y, r, pi, g, Q):
    return r / pi * (y - Q[0]) + Q[0]


def _summand_direct(k):
    """Direct effect on K = k blocks, and the sequential mean of block k."""
    def summand(y, r, pi, g, Q):
        mu, c = Q
        return r / (1 - pi) * (1 - g[k]) / g[k] * (y - mu) + (1 - r) / (1 - pi) * (mu - c) + c
    return summand


def _summand_mediator(k):
    def summand(y, r, pi, g, Q):
        if k == 1:  # reduced form: g_0 == pi cancels one (1 - pi) factor
            mu, b = Q
            return (1 - r) / pi * g[1] / (1 - g[1]) * (y - mu) + r / pi * (mu - b) + b
        mu, b, c = Q
        odds_k = g[k] / (1 - g[k])
        inv_odds_prev = (1 - g[k - 1]) / g[k - 1]
        return (
            (1 - r) / (1 - pi) * odds_k * inv_odds_prev * (y - mu)
            + r / (1 - pi) * inv_odds_prev * (mu - b)
            + (1 - r) / (1 - pi) * (b - c)
            + c
        )
    return summand


CLOSED_FORMS = [  # on K = 3 blocks
    (EstimandId.dis(), _summand_dis),
    (EstimandId.adv(), _summand_adv),
    (EstimandId.direct(), _summand_direct(3)),
    (EstimandId.sequential(2), _summand_direct(2)),
    (EstimandId.mediator(1), _summand_mediator(1)),
    (EstimandId.mediator(2), _summand_mediator(2)),
    (EstimandId.mediator(3), _summand_mediator(3)),
]


@pytest.mark.parametrize("estimand, reference", CLOSED_FORMS, ids=[e.label for e, _ in CLOSED_FORMS])
def test_generic_summand_matches_closed_forms(estimand, reference):
    rng = np.random.default_rng(42)
    n = 1000
    y = rng.standard_normal(n)
    r = (rng.random(n) < 0.5).astype(float)
    pi = rng.uniform(0.2, 0.8, n)
    chain = estimand.chain(3)
    g = {p: rng.uniform(0.2, 0.8, n) for p, _ in chain if p}
    Q = [rng.standard_normal(n) for _ in chain]
    q = NuisanceSet(estimand=estimand, n_blocks=3, pi=pi, g=g, Q=Q, delta=0.0)
    generic = gamma_summands(y, r, q)
    closed = reference(y, r, pi, g, Q)
    assert np.allclose(generic, closed, rtol=1e-12, atol=1e-12 * np.abs(closed).max())


def test_sequential_K_bitwise_equals_direct():
    frame = generate(DgpSpec("sim2_misspec"), 2000, seed=43)
    cache = NuisanceCache(frame, seed=3)
    direct = estimate(frame, fit_all(frame, EstimandId.direct(), cache=cache))
    seq4 = estimate(frame, fit_all(frame, EstimandId.sequential(4), cache=cache))
    assert direct.point == seq4.point
    assert np.array_equal(direct.eif, seq4.eif)


def test_row_permutation_invariance():
    frame = generate(DgpSpec("sim2_misspec"), 1000, seed=44)
    cache = NuisanceCache(frame, seed=4)
    estimand = EstimandId.mediator(2)
    q = fit_all(frame, estimand, cache=cache)
    h = gamma_summands(frame.y, frame.r, q)
    perm = np.random.default_rng(0).permutation(frame.n)
    h_perm = gamma_summands(frame.y[perm], frame.r[perm], _permute_q(q, perm))
    assert abs(h.mean() - h_perm.mean()) < 1e-12


def _permute_q(q, perm):
    return NuisanceSet(
        estimand=q.estimand,
        n_blocks=q.n_blocks,
        pi=q.pi[perm],
        g={k: v[perm] for k, v in q.g.items()},
        Q=[v[perm] for v in q.Q],
        delta=q.delta,
    )


# -- null-path behaviour ------------------------------------------------------------

def _null_mediator_frame(n, seed):
    """Mediators and outcome do not depend on R given X."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, 1))
    r = (rng.random(n) < 0.5).astype(np.int8)
    m1 = (x + rng.standard_normal((n, 1))) * 0.7
    m2 = 0.4 * m1 + rng.standard_normal((n, 1))
    y = 1.0 + 0.8 * x[:, 0] + 0.5 * m1[:, 0] + 0.3 * m2[:, 0] + rng.standard_normal(n)
    return AnalysisFrame(x=x, r=r, m_blocks=(m1, m2), y=y)


def test_null_mediator_paths_give_null_contrasts():
    from pathshift.decomposition import contrast

    frame = _null_mediator_frame(6000, seed=45)
    cache = NuisanceCache(frame, seed=5)
    g_dis = estimate(frame, fit_all(frame, EstimandId.dis(), cache=cache))
    for k in (1, 2):
        g_med = estimate(frame, fit_all(frame, EstimandId.mediator(k), cache=cache))
        rho = contrast(g_med, g_dis)
        assert abs(rho.point) <= 3 * rho.se


def test_null_paths_sequential_estimates_agree():
    frame = _null_mediator_frame(6000, seed=46)
    cache = NuisanceCache(frame, seed=6)
    ests = [estimate(frame, fit_all(frame, EstimandId.sequential(k), cache=cache)) for k in (1, 2)]
    assert abs(ests[0].point - ests[1].point) <= 3 * max(e.se for e in ests)


def test_sim2_direct_estimate_within_3_se_of_exact_truth():
    spec = DgpSpec("sim2_misspec")
    frame = generate(spec, 8000, seed=47)
    est = estimate(frame, fit_all(frame, EstimandId.direct(), seed=7))
    truth = Sim2Exact(spec).gamma(EstimandId.direct())
    assert abs(est.point - truth) <= 3 * est.se


def test_se_and_ci_shape():
    frame = generate(DgpSpec("sim2_misspec"), 500, seed=48)
    est = estimate(frame, fit_all(frame, EstimandId.dis(), seed=8))
    lo, hi = est.ci(0.05)
    assert lo < est.point < hi
    assert est.se > 0
    wide_lo, wide_hi = est.ci(0.01)
    assert wide_lo < lo and hi < wide_hi


def test_direct_estimator_constant_outcome_null_group():
    rng = np.random.default_rng(50)
    n = 400
    frame = AnalysisFrame(
        x=rng.standard_normal((n, 1)),
        r=(rng.random(n) < 0.5).astype(np.int8),
        m_blocks=(rng.standard_normal((n, 1)),),
        y=np.full(n, 7.0),
    )
    q = NuisanceSet(
        estimand=EstimandId.direct(),
        n_blocks=1,
        pi=np.full(n, 0.5),
        g={1: np.full(n, 0.5)},
        Q=[np.full(n, 7.0), np.full(n, 7.0)],
        delta=0.0,
    )
    est = estimate(frame, q)
    assert est.point == pytest.approx(7.0, abs=1e-12)


def test_exact_nuisance_unbiasedness_at_one_million_rows():
    dgp = toy_k1()
    frame, states = sample(dgp, 1_000_000, seed=60)
    ex = ExactNuisances(dgp)
    for estimand in [EstimandId.direct(), EstimandId.mediator(1)]:
        q = ex.nuisance_set(states, estimand)
        est = estimate(frame, q)
        assert abs(est.point - enumerate_gamma(dgp, estimand)) <= 4 * est.se, estimand.label


def test_standard_error_of_non_finite_influence_values_raises():
    from dataclasses import replace

    frame = manual_frame()
    q = NuisanceSet(estimand=EstimandId.dis(), n_blocks=1, pi=np.full(200, 0.5), Q=[np.zeros(200)], delta=0.0)
    est = estimate(frame, q)
    for bad in (np.nan, np.inf):
        eif = est.eif.copy()
        eif[3] = bad
        broken = replace(est, eif=eif)
        with pytest.raises(EstimationError, match="estimate gamma_dis: non-finite standard error"):
            broken.se
        with pytest.raises(EstimationError, match="non-finite standard error"):
            broken.ci()
