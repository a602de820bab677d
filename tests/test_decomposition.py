import json
import warnings

import numpy as np
import pytest

from pathshift.data import AnalysisFrame
from pathshift.decomposition import (
    DecompositionConfig,
    DecompositionError,
    DisparityComponent,
    contrast,
    decompose,
    decompose_natural,
    decompose_sequential,
    to_geometric_scale,
)
from pathshift import nuisance
from pathshift.estimators import GammaEstimate, estimate
from pathshift.learners import LearnerError, LearnerSpec, SuperLearnerConfig, stratified_folds
from pathshift.nuisance import EstimandId, NuisanceCache, NuisanceError, NuisanceLearners, fit_all
from pathshift.oracle import enumerate_gamma, population_frame
from pathshift.simulation import DgpSpec, generate
from pathshift.toys import toy_dyadic_k2

SATURATED = NuisanceLearners(binary=LearnerSpec("saturated"), continuous=LearnerSpec("saturated"))
SMALL_SL = NuisanceLearners(
    binary=SuperLearnerConfig(
        candidates=(LearnerSpec("mean"), LearnerSpec("logistic"), LearnerSpec("boosted_stumps", rounds=20)), cv_folds=3
    ),
    continuous=SuperLearnerConfig(
        candidates=(LearnerSpec("mean"), LearnerSpec("linear"), LearnerSpec("boosted_stumps", rounds=20)), cv_folds=3
    ),
)


@pytest.fixture
def two_usable_cores(usable_cores):
    """The fold pool never has more workers than usable cores; report two, so
    that the pool runs on any host."""
    usable_cores(2)


def test_contrast_of_identical_estimates_is_null():
    frame = generate(DgpSpec("sim2_misspec"), 500, seed=1)
    est = estimate(frame, fit_all(frame, EstimandId.dis(), seed=0))
    c = contrast(est, est)
    assert c.point == 0.0
    assert c.p_value == 1.0
    assert c.ci[0] <= 0.0 <= c.ci[1]


def test_contrast_requires_matching_rows():
    f1 = generate(DgpSpec("sim2_misspec"), 400, seed=2)
    f2 = generate(DgpSpec("sim2_misspec"), 500, seed=2)
    a = estimate(f1, fit_all(f1, EstimandId.dis(), seed=0))
    b = estimate(f2, fit_all(f2, EstimandId.dis(), seed=0))
    with pytest.raises(DecompositionError, match="same rows"):
        contrast(a, b)


def test_contrast_with_nan_influence_value_names_the_standard_error():
    from dataclasses import replace

    frame = generate(DgpSpec("sim2_misspec"), 400, seed=3)
    cache = NuisanceCache(frame, seed=0)
    a = estimate(frame, fit_all(frame, EstimandId.adv(), cache=cache))
    b = estimate(frame, fit_all(frame, EstimandId.dis(), cache=cache))
    eif = a.eif.copy()
    eif[7] = np.nan
    with pytest.raises(DecompositionError, match="non-finite standard error"):
        contrast(replace(a, eif=eif), b, "total")


def _old_wald(point, se, alpha):
    """The CI and p-value as computed through scipy.stats.norm."""
    from scipy.stats import norm

    z = norm.ppf(1 - alpha / 2)
    ci = (point - z * se, point + z * se)
    p_value = float(2.0 * norm.sf(abs(point) / se)) if se > 0 else (1.0 if point == 0 else 0.0)
    return ci, p_value


def _bits(values):
    return [np.float64(v).tobytes() for v in values]


@pytest.mark.parametrize("alpha", [1e-6, 0.01, 0.05, 0.1, 0.5, 0.999])
def test_wald_ci_and_p_value_match_scipy_stats_bit_for_bit(alpha):
    rng = np.random.default_rng(1701)
    n = 300
    cases = [(rng.normal(scale=0.3), rng.normal(scale=0.3), rng.exponential(), rng.exponential()) for _ in range(20)]
    cases += [(40.0, 0.0, 1e-3, 0.0), (0.25, 0.25, 1.0, 1.0), (0.5, 0.25, 0.0, 0.0), (0.25, 0.25, 0.0, 0.0)]
    for point_a, point_b, scale_a, scale_b in cases:
        eif_a, eif_b = scale_a * rng.standard_normal(n), scale_b * rng.standard_normal(n)
        a = GammaEstimate(EstimandId.adv(), point_a, eif_a - eif_a.mean(), n)
        b = GammaEstimate(EstimandId.dis(), point_b, eif_b - eif_b.mean(), n)
        c = contrast(a, b, alpha=alpha)
        ci, p_value = _old_wald(a.point - b.point, c.se, alpha)
        assert _bits(c.ci) == _bits(ci) and _bits([c.p_value]) == _bits([p_value])
        # plain floats, so that the CSV writes numbers
        assert all(type(v) is float for v in c.ci) and type(c.p_value) is float
        for est in (a, b):
            assert _bits(est.ci(alpha)) == _bits(_old_wald(est.point, est.se, alpha)[0])
            assert all(type(v) is float for v in est.ci(alpha))


def test_wald_p_value_underflows_to_zero_and_zero_se_is_exact():
    n = 100
    eif = np.tile([1.0, -1.0], n // 2)
    far = contrast(GammaEstimate(EstimandId.adv(), 50.0, eif, n), GammaEstimate(EstimandId.dis(), 0.0, 0 * eif, n))
    assert far.se == 0.1 and far.p_value == 0.0 == _old_wald(50.0, 0.1, 0.05)[1]
    flat = GammaEstimate(EstimandId.adv(), 2.0, np.zeros(n), n)
    for other, p_value in ((0.5, 0.0), (2.0, 1.0)):
        c = contrast(flat, GammaEstimate(EstimandId.dis(), other, np.zeros(n), n))
        assert c.se == 0.0 and c.p_value == p_value and type(c.p_value) is float
        assert c.ci == (2.0 - other, 2.0 - other)
    assert flat.ci(0.05) == (2.0, 2.0)


def test_total_contrast_matches_enumeration_on_population():
    dgp = toy_dyadic_k2()
    frame, _ = population_frame(dgp, 2 * 4 * 8 * 8 * 8)
    cache = NuisanceCache(frame, SATURATED, delta=0.0, seed=0)
    adv = estimate(frame, fit_all(frame, EstimandId.adv(), cache=cache))
    dis = estimate(frame, fit_all(frame, EstimandId.dis(), cache=cache))
    rho_total = contrast(adv, dis, "total")
    truth = enumerate_gamma(dgp, EstimandId.adv()) - enumerate_gamma(dgp, EstimandId.dis())
    assert rho_total.point == pytest.approx(truth, abs=1e-10)


# -- scales --------------------------------------------------------------------

def test_geometric_scale_identity_and_delta_method():
    base = DisparityComponent("total", 0.0, 0.05, (-0.098, 0.098), 1.0, "difference")
    geo = to_geometric_scale(base)
    assert geo.point == 1.0
    c = DisparityComponent("total", float(np.log(2.0)), 0.1, (np.log(2) - 0.196, np.log(2) + 0.196), 0.02, "difference")
    geo2 = to_geometric_scale(c)
    assert geo2.point == pytest.approx(2.0, abs=1e-12)
    assert geo2.se == pytest.approx(0.2, abs=1e-12)
    assert geo2.ci[0] == pytest.approx(np.exp(c.ci[0]), abs=1e-12)
    assert geo2.p_value == c.p_value
    with pytest.raises(DecompositionError, match="difference-scale"):
        to_geometric_scale(geo2)


# -- full decompositions ----------------------------------------------------------

def _global_null_frame(n, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, 1))
    r = (rng.random(n) < 0.5).astype(np.int8)
    m1 = 0.6 * x + rng.standard_normal((n, 1))
    m2 = 0.3 * m1 + rng.standard_normal((n, 1))
    y = 0.5 + x[:, 0] + 0.4 * m1[:, 0] + 0.4 * m2[:, 0] + rng.standard_normal(n)
    return AnalysisFrame(x=x, r=r, m_blocks=(m1, m2), y=y)


def test_global_null_components_near_zero():
    frame = _global_null_frame(6000, seed=4)
    report = decompose_natural(frame)
    for comp in report.components:
        assert abs(comp.point) <= 3 * comp.se, comp.label


def test_natural_report_structure_and_no_sum_field():
    frame = generate(DgpSpec("sim2_misspec"), 1200, seed=5)
    report = decompose_natural(frame)
    labels = [c.label for c in report.components]
    assert labels == [
        "total",
        "mediator_1", "mediator_2", "mediator_3", "mediator_4",
        "outcome_attributed",
        "residual_mediator_1", "residual_mediator_2", "residual_mediator_3", "residual_mediator_4",
        "residual_outcome",
    ]
    payload = report.to_dict()
    flat = str(payload).lower()
    assert "sum_of_components" not in flat and "component_sum" not in flat
    assert set(payload) == {"components", "estimand_meta", "diagnostics"}


def test_residuals_complement_their_components():
    frame = generate(DgpSpec("sim2_misspec"), 1500, seed=6)
    report = decompose_natural(frame)
    total = report.component("total").point
    for k in range(1, 5):
        med = report.component(f"mediator_{k}").point
        res = report.component(f"residual_mediator_{k}").point
        assert med + res == pytest.approx(total, abs=1e-12)
    assert report.component("outcome_attributed").point + report.component("residual_outcome").point == pytest.approx(total, abs=1e-12)


def test_sequential_additivity_and_shared_direct_path():
    frame = generate(DgpSpec("sim2_misspec"), 1500, seed=7)
    report = decompose_sequential(frame)
    total = report.component("total").point
    parts = sum(c.point for c in report.components if c.label != "total")
    assert parts == pytest.approx(total, abs=1e-12)


def test_sequential_multiplicativity_on_ratio_scale():
    rng = np.random.default_rng(8)
    raw = generate(DgpSpec("sim2_misspec"), 1500, seed=8)
    frame = AnalysisFrame(
        x=raw.x, r=raw.r, m_blocks=raw.m_blocks, y=raw.y, scale_applied="log_positive",
        covariate_names=raw.covariate_names, block_names=raw.block_names,
    )
    report = decompose_sequential(frame, DecompositionConfig(scale="geometric"))
    total = report.component("total").point
    product = np.prod([c.point for c in report.components if c.label != "total"])
    assert product == pytest.approx(total, rel=1e-12)
    assert all(c.scale == "geometric_ratio" for c in report.components)


def test_relabeling_groups_flips_total_sign():
    frame = generate(DgpSpec("sim2_misspec"), 2000, seed=9)
    flipped = AnalysisFrame(
        x=frame.x, r=1 - frame.r, m_blocks=frame.m_blocks, y=frame.y,
        scale_applied=frame.scale_applied, covariate_names=frame.covariate_names,
        block_names=frame.block_names,
    )
    a = decompose_natural(frame).component("total").point
    b = decompose_natural(flipped).component("total").point
    assert a == pytest.approx(-b, abs=1e-12)


def test_probability_scale_requires_indicator_outcome():
    frame = generate(DgpSpec("sim2_misspec"), 800, seed=10)
    with pytest.raises(DecompositionError, match="positive_indicator"):
        decompose_natural(frame, DecompositionConfig(scale="probability"))
    indicator = AnalysisFrame(
        x=frame.x, r=frame.r, m_blocks=frame.m_blocks, y=(frame.y > 0).astype(float),
        scale_applied="positive_indicator",
    )
    report = decompose_natural(indicator, DecompositionConfig(scale="probability"))
    assert all(c.scale == "probability_difference" for c in report.components)


def test_geometric_scale_requires_log_positive_frame():
    frame = generate(DgpSpec("sim2_misspec"), 800, seed=11)
    with pytest.raises(DecompositionError, match="log_positive"):
        decompose_natural(frame, DecompositionConfig(scale="geometric"))


def test_sim1_geometric_decomposition_runs():
    frame = generate(DgpSpec("sim1_meps_like"), 1500, seed=12)
    report = decompose_natural(frame, DecompositionConfig(scale="geometric"))
    assert report.component("total").point > 0
    assert report.estimand_meta["outcome_scale"] == "log_positive"
    assert report.estimand_meta["n_blocks"] == 4


def test_report_serialization_roundtrip_and_csv():
    frame = generate(DgpSpec("sim2_misspec"), 900, seed=13)
    report = decompose_sequential(frame)
    payload = json.loads(report.to_json())
    assert payload["components"] == report.to_dict()["components"]
    assert [(c["point"], tuple(c["ci"])) for c in payload["components"]] == [(c.point, c.ci) for c in report.components]
    assert payload["estimand_meta"] == report.estimand_meta
    assert payload["diagnostics"] == report.diagnostics
    csv_text = report.to_csv()
    lines = csv_text.strip().splitlines()
    assert lines[0] == "label,value,ci_lo,ci_hi,p"
    assert len(lines) == 1 + len(report.components)


@pytest.mark.parametrize("scale", ["difference", "geometric", "probability"])
def test_csv_cells_are_numbers_on_every_scale(scale):
    # the Wald interval once came back as numpy scalars, whose repr is not a number
    frame = generate(DgpSpec("sim1_meps_like"), 900, seed=13)
    if scale == "probability":
        frame = AnalysisFrame(
            x=frame.x, r=frame.r, m_blocks=frame.m_blocks, y=(frame.y != 0).astype(float),
            scale_applied="positive_indicator",
        )
    report = decompose_natural(frame, DecompositionConfig(scale=scale))
    rows = report.to_csv().strip().splitlines()[1:]
    assert len(rows) == len(report.components)
    for row, comp in zip(rows, report.components):
        label, *cells = row.split(",")
        assert label == comp.label
        assert [float(v) for v in cells] == [comp.point, *comp.ci, comp.p_value]


def test_decompose_dispatch():
    frame = generate(DgpSpec("sim2_misspec"), 700, seed=14)
    natural, sequential = decompose(frame, kinds=("natural", "sequential"))
    assert natural.estimand_meta["decomposition"] == "natural"
    assert sequential.estimand_meta["decomposition"] == "sequential"
    assert natural.to_dict() == decompose_natural(frame).to_dict()
    assert sequential.to_dict() == decompose_sequential(frame).to_dict()
    with pytest.raises(DecompositionError, match="unknown decomposition"):
        decompose(frame, kinds=("natural", "upside_down"))


@pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5, -0.05, float("nan")])
def test_config_rejects_alpha_outside_the_unit_interval(alpha):
    with pytest.raises(DecompositionError, match=rf"alpha must lie in \(0, 1\), got {alpha}"):
        DecompositionConfig(alpha=alpha)


@pytest.mark.parametrize("folds", [0, -1])
def test_config_rejects_crossfit_folds_below_one(folds):
    with pytest.raises(DecompositionError, match=rf"crossfit_folds must be >= 1 .*got {folds}"):
        DecompositionConfig(crossfit_folds=folds)


def test_nuisance_cache_rejects_zero_folds():
    frame = generate(DgpSpec("sim2_misspec"), 200, seed=1)
    with pytest.raises(NuisanceError, match="folds must be >= 1"):
        NuisanceCache(frame, folds=0)
    assert NuisanceCache(frame, folds=None).n_folds == 1


def test_component_invariants_enforced():
    with pytest.raises(DecompositionError, match="CI does not contain"):
        DisparityComponent("total", 1.0, 0.1, (2.0, 3.0), 0.5)
    with pytest.raises(DecompositionError, match="p-value"):
        DisparityComponent("total", 1.0, 0.1, (0.5, 1.5), 1.5)
    with pytest.raises(DecompositionError, match="scale"):
        DisparityComponent("total", 1.0, 0.1, (0.5, 1.5), 0.5, "odd_scale")


def test_decompose_with_no_covariates_uses_intercept_models():
    rng = np.random.default_rng(15)
    n = 2000
    r = (rng.random(n) < 0.5).astype(np.int8)
    m = (0.5 * r + rng.standard_normal(n))[:, None]
    y = 1.0 + 0.8 * m[:, 0] + 0.5 * r + rng.standard_normal(n)
    frame = AnalysisFrame(x=np.empty((n, 0)), r=r, m_blocks=(m,), y=y)
    report = decompose_natural(frame)
    assert np.isfinite(report.component("total").point)
    assert report.component("total").point > 0


# -- the fold pool ---------------------------------------------------------------

@pytest.mark.parametrize(
    "learners, folds",
    [
        pytest.param(SMALL_SL, 2, id="2"),
        pytest.param(SMALL_SL, 3, id="3"),
        pytest.param(SMALL_SL, 5, id="5"),
        pytest.param(SMALL_SL, None, id="sl-no-crossfit"),
        pytest.param(None, None, id="glm-no-crossfit"),
    ],
)
def test_fold_pool_gives_the_serial_bytes(learners, folds, two_usable_cores):
    frame = generate(DgpSpec("sim1_meps_like"), 600, seed=21)
    config = DecompositionConfig(learners=learners, crossfit_folds=folds, scale="geometric", seed=4)
    serial = decompose(frame, config, ("natural", "sequential"))
    pooled = decompose(frame, config, ("natural", "sequential"), jobs=2)
    assert [report.to_json() for report in pooled] == [report.to_json() for report in serial]


def test_fold_pool_raises_the_serial_error(two_usable_cores):
    rng = np.random.default_rng(16)
    n = 40
    r = np.zeros(n, dtype=np.int8)
    r[0] = 1  # lone comparison row: its fold's complement is single-class
    frame = AnalysisFrame(x=rng.standard_normal((n, 1)), r=r, m_blocks=(rng.standard_normal((n, 1)),), y=rng.standard_normal(n))
    errors = []
    for jobs in (1, 2):
        with pytest.raises(NuisanceError) as info:
            decompose(frame, DecompositionConfig(crossfit_folds=4), jobs=jobs)
        errors.append((type(info.value), str(info.value)))
    assert errors[0] == errors[1] == (NuisanceError, "a training split contains a single group level")


def test_fold_pool_raises_the_error_a_serial_walk_meets_first(two_usable_cores):
    # saturated fits fail on a cell their training rows lack, so the failing
    # level depends on the fold: fold 1 fails at g_1, an earlier level than
    # mu(M_1, X; R=0), where fold 0 fails
    n, seed = 40, 3
    r = np.tile([0, 1], n // 2).astype(np.int8)
    labels = stratified_folds(n, 2, seed, strata=r)
    m = np.tile([0.0, 0.0, 1.0, 1.0], n // 4)
    m[np.flatnonzero((labels == 1) & (r == 0))[0]] = 9.0  # only in fold 1's test rows
    m[np.flatnonzero((labels == 0) & (r == 0))[0]] = 5.0  # in fold 0's test rows ...
    m[np.flatnonzero((labels == 1) & (r == 1))[0]] = 5.0  # ... and its training rows, but not at R = 0
    frame = AnalysisFrame(x=np.zeros((n, 1)), r=r, m_blocks=(m[:, None],), y=np.arange(n, dtype=float))
    config = DecompositionConfig(learners=SATURATED, crossfit_folds=2, seed=seed)
    errors = []
    for jobs in (1, 2):
        with pytest.raises(LearnerError) as info:
            decompose(frame, config, jobs=jobs)
        errors.append((type(info.value), str(info.value)))
    assert errors[0] == errors[1]
    assert "unseen cell" in errors[0][1] and "9.0" in errors[0][1] and "5.0" not in errors[0][1]


def test_fold_pool_raises_worker_warnings_again(two_usable_cores):
    frame = generate(DgpSpec("sim2_misspec"), 300, seed=23)
    # a continuous response: the logistic candidate fails and is dropped in every fold
    continuous = SuperLearnerConfig(candidates=(LearnerSpec("logistic"), LearnerSpec("linear")), cv_folds=3)
    config = DecompositionConfig(learners=NuisanceLearners(continuous=continuous), crossfit_folds=2)
    with pytest.warns(UserWarning, match="dropped candidate logistic"):
        decompose(frame, config, jobs=2)


@pytest.mark.parametrize("folds", [None, 2])
def test_tree_pool_raises_warnings_in_serial_order(folds, two_usable_cores, monkeypatch):
    fit_fold = NuisanceCache._fit_fold

    def warn_and_fit(cache, level, v):
        warnings.warn(f"{level.name} fold {v} {level.key}")
        return fit_fold(cache, level, v)

    monkeypatch.setattr(NuisanceCache, "_fit_fold", warn_and_fit)  # forked workers inherit it
    frame = generate(DgpSpec("sim1_meps_like"), 400, seed=26)
    config = DecompositionConfig(crossfit_folds=folds, seed=1)
    seen = []
    for jobs in (1, 2):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            decompose(frame, config, ("natural", "sequential"), jobs=jobs)
        seen.append([(w.category, str(w.message)) for w in caught])
    assert seen[0] == seen[1]
    pi_fits = [f"pi fold {v} {('pi', 'correct')}" for v in range(folds or 1)]
    assert [message for _, message in seen[0][: len(pi_fits)]] == pi_fits  # level by level, then by fold


@pytest.mark.parametrize("folds", [None, 2])
def test_tree_pool_raises_the_serial_error_whatever_the_dispatch_order(folds, two_usable_cores, monkeypatch):
    frame = generate(DgpSpec("sim1_meps_like"), 400, seed=27)
    config = DecompositionConfig(crossfit_folds=folds, seed=2)
    serial = decompose(frame, config)[0].to_json()
    tasks = nuisance._tasks
    monkeypatch.setattr(nuisance, "_tasks", lambda trees, n_folds: tasks(trees, n_folds)[::-1])
    assert decompose(frame, config, jobs=2)[0].to_json() == serial

    monkeypatch.setattr(nuisance, "_tasks", tasks)
    fit_fold = NuisanceCache._fit_fold
    last = (folds or 1) - 1

    def fail(cache, level, v):
        # pi is a one-level tree early in the plan, so it goes out late; a
        # C_B level ends a three-level tree, which goes out first
        warnings.warn(f"fit {level.key} fold {v}")
        if level.label == "pi" and v == last:
            raise NuisanceError(f"pi fails in fold {v}")
        if level.label == "C_B":
            raise LearnerError(f"{level.key} fails in fold {v}")
        return fit_fold(cache, level, v)

    monkeypatch.setattr(NuisanceCache, "_fit_fold", fail)
    natural = [EstimandId.adv(), EstimandId.dis()] + [EstimandId.mediator(k) for k in range(1, 5)]
    plan = NuisanceCache(frame, folds=folds)._plan(natural)
    trees = nuisance._trees(plan)
    assert plan[0].label == "pi"
    assert [level.label for _, level in trees[nuisance._tasks(trees, folds or 1)[0][0]]] == ["mu", "B", "C_B"]
    errors = []
    for jobs in (1, 2):
        with warnings.catch_warnings(record=True) as caught, pytest.raises(Exception) as info:
            warnings.simplefilter("always")
            decompose(frame, config, jobs=jobs)
        errors.append((type(info.value), str(info.value), [str(w.message) for w in caught]))
    # a serial walk stops at pi's failing fold, so it warns of nothing after it
    pi_fits = [f"fit {('pi', 'correct')} fold {v}" for v in range(last + 1)]
    assert errors[0] == errors[1] == (NuisanceError, f"pi fails in fold {last}", pi_fits)
