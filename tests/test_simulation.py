import numpy as np
import pytest
from scipy.special import expit

from pathshift.estimators import estimate
from pathshift.nuisance import EstimandId
from pathshift.simulation import (
    DgpSpec,
    Sim2Exact,
    SimReport,
    SimulationError,
    counterfactual_truth,
    generate,
    glm_false_method,
    glm_method,
    misspecified_matrix,
    misspecify_covariates,
    run_grid,
    robustness_conditions,
    truth_for,
)
from pathshift.toys import toy_k1


def test_default_coefficients_loaded():
    spec = DgpSpec("sim2_misspec")
    assert np.array_equal(spec.coeffs["V_R"], [-0.10, 1.00, 0.20, -0.40, 0.80])
    assert spec.coeffs["V_Y"].shape == (10,)
    sim1 = DgpSpec("sim1_meps_like")
    assert np.array_equal(sim1.coeffs["V_R"], [-0.34, 0.38, -0.24, 0.31, -0.44])
    assert sim1.coeffs["V_Y"].shape == (14,)


def test_coefficient_length_validation():
    with pytest.raises(SimulationError, match="length"):
        DgpSpec("sim2_misspec", coeffs={"V_R": [0.0, 1.0]})
    with pytest.raises(SimulationError, match="unknown DGP"):
        DgpSpec("sim9")
    with pytest.raises(SimulationError, match="tables"):
        DgpSpec("discrete_toy")


def test_generate_deterministic_and_nested_across_n():
    spec = DgpSpec("sim2_misspec")
    small = generate(spec, 1000, seed=3)
    big = generate(spec, 8000, seed=3)
    assert np.array_equal(small.y, big.y[:1000])
    assert np.array_equal(small.x, big.x[:1000])
    assert np.array_equal(small.r, big.r[:1000])
    again = generate(spec, 1000, seed=3)
    assert np.array_equal(small.y, again.y)


def test_sim1_composite_outcome_construction():
    frame, latents = generate(DgpSpec("sim1_meps_like"), 20_000, seed=4, return_latents=True)
    y_star, positive, y_raw = latents["y_star"], latents["positive"], latents["y_raw"]
    assert np.array_equal(frame.y, positive * 0.4 * y_star)
    pos = y_raw > 0
    assert np.allclose(np.log(y_raw[pos]), 0.4 * y_star[pos])
    # a zero raw outcome is a zero composite outcome
    assert np.array_equal(frame.y == 0.0, ~pos | (y_star == 0.0))
    # the zero-part probability follows expit(y*)
    assert abs(positive.mean() - expit(y_star).mean()) < 0.01
    assert frame.scale_applied == "log_positive"
    assert frame.n_blocks == 4
    assert frame.m_blocks[0].shape[1] == 2 and frame.m_blocks[1].shape[1] == 1


def test_marginal_means_of_covariates():
    sim1 = generate(DgpSpec("sim1_meps_like"), 1_000_000, seed=5)
    assert abs(sim1.x[:, 0].mean() - 1.0) < 0.005  # Uniform(0, 2)
    sim2 = generate(DgpSpec("sim2_misspec"), 1_000_000, seed=5)
    assert abs(sim2.x[:, 0].mean() - 0.5) < 0.003  # Uniform(0, 1)


def test_misspecified_covariate_transform_values():
    frame = generate(DgpSpec("sim2_misspec"), 4, seed=6)
    ones = frame.with_covariates(np.ones((4, 4)))
    out = misspecified_matrix(ones)
    assert np.allclose(out[0], [1.0, np.e, 1.0, 2.0 / (np.e + 1.0)])
    zeros = frame.with_covariates(np.zeros((4, 4)))
    out0 = misspecified_matrix(zeros)
    assert np.allclose(out0[0], [0.0, 1.0, 0.0, 0.0])


def test_misspecified_transform_keeps_rows_distinct():
    rng = np.random.default_rng(7)
    frame = generate(DgpSpec("sim2_misspec"), 1_000_000, seed=7)
    out = misspecified_matrix(frame.with_covariates(rng.random((frame.n, 4))))
    assert np.unique(out, axis=0).shape[0] == out.shape[0]


def test_misspecify_needs_four_covariates():
    frame = generate(DgpSpec("sim1_meps_like"), 50, seed=8)
    with pytest.raises(SimulationError, match="4 covariates"):
        misspecify_covariates(frame)


def test_misspecify_replaces_only_covariates():
    frame = generate(DgpSpec("sim2_misspec"), 100, seed=9)
    out = misspecify_covariates(frame)
    assert not np.array_equal(out.x, frame.x)
    assert np.array_equal(out.y, frame.y)
    assert np.array_equal(out.m_blocks[2], frame.m_blocks[2])
    assert out.covariate_names == ("x1_false", "x2_false", "x3_false", "x4_false")


# -- truths -------------------------------------------------------------------------

def test_counterfactual_truth_all_zero_arms_is_reference_mean():
    spec = DgpSpec("sim2_misspec")
    truth = counterfactual_truth(spec, 0, (0, 0, 0, 0), n_draws=500_000, seed=1)
    exact = Sim2Exact(spec).gamma(EstimandId.dis())
    assert abs(truth.value - exact) <= 4 * truth.se


def test_closed_form_matches_cascade_for_every_estimand():
    spec = DgpSpec("sim2_misspec")
    exact = Sim2Exact(spec)
    frame = generate(spec, 20_000, seed=2)
    for estimand in [
        EstimandId.adv(), EstimandId.direct(), EstimandId.mediator(2), EstimandId.sequential(3),
        EstimandId.shift(0, (1, 0, 1, 1)), EstimandId.shift(1, (0, 1, 1, 0)), EstimandId.shift(0, (0, 1, 0, 1)),
    ]:
        truth = truth_for(spec, estimand, n_draws=500_000, seed=2)
        assert abs(truth.value - exact.gamma(estimand)) <= 4 * truth.se, estimand.label
        # the one-step estimate at the exact nuisances is unbiased for it too
        est = estimate(frame, exact.nuisance_set(frame, estimand))
        assert abs(est.point - exact.gamma(estimand)) <= 4 * est.se, estimand.label


def test_discrete_truth_is_exact_enumeration():
    spec = DgpSpec("discrete_toy", tables=toy_k1())
    from pathshift.oracle import enumerate_gamma

    truth = counterfactual_truth(spec, 0, (1,))
    assert truth.se == 0.0
    assert truth.value == pytest.approx(enumerate_gamma(toy_k1(), EstimandId.mediator(1)), abs=1e-14)


def test_truth_rejects_wrong_arm_length():
    with pytest.raises(SimulationError, match="length"):
        counterfactual_truth(DgpSpec("sim2_misspec"), 0, (0, 0))


# -- grid ---------------------------------------------------------------------------

def test_run_grid_single_rep_degenerate_aggregation():
    spec = DgpSpec("sim2_misspec")
    estimands = (EstimandId.direct(),)
    report = run_grid(spec, estimands, (500,), reps=1, methods=(glm_method(),), base_seed=0, truth_draws=200_000)
    cell = report.cells[0]
    assert cell.reps == 1
    assert cell.sd == 0.0
    assert cell.coverage in (0.0, 1.0)


def test_run_grid_mse_identity_and_consistency():
    spec = DgpSpec("sim2_misspec")
    estimands = (EstimandId.direct(), EstimandId.mediator(1))
    report = run_grid(spec, estimands, (2000,), reps=40, methods=(glm_method(),), base_seed=11, truth_draws=500_000)
    for cell in report.cells:
        pop_var = cell.sd**2 * (cell.reps - 1) / cell.reps
        assert cell.mse == pytest.approx(cell.bias**2 + pop_var, rel=1e-10)
        assert abs(cell.bias) < 0.05


def test_run_grid_reproducible():
    spec = DgpSpec("sim2_misspec")
    kwargs = dict(
        estimands=(EstimandId.mediator(1),),
        n_list=(600,),
        reps=10,
        methods=(glm_method(),),
        base_seed=21,
        truth_draws=200_000,
    )
    a = run_grid(spec, **kwargs)
    b = run_grid(spec, **kwargs)
    assert a.to_json() == b.to_json()


def test_run_grid_records_failures_and_continues():
    # sim1 has 3 covariates: the misspecification transform fails on purpose
    spec = DgpSpec("sim1_meps_like")
    report = run_grid(
        spec,
        (EstimandId.mediator(1),),
        (300,),
        reps=3,
        methods=(glm_false_method(),),
        base_seed=0,
        truths={"gamma_mediator_1": truth_for(spec, EstimandId.mediator(1), n_draws=100_000)},
    )
    cell = report.cells[0]
    assert cell.failures == 3
    assert cell.reps == 0
    assert np.isnan(cell.bias)


def test_oracle_centering_requires_sim2():
    with pytest.raises(SimulationError, match="sim2"):
        run_grid(
            DgpSpec("sim1_meps_like"),
            (EstimandId.dis(),),
            (100,),
            reps=1,
            methods=(glm_method(),),
            oracle_centering=True,
            truths={"gamma_dis": truth_for(DgpSpec("sim1_meps_like"), EstimandId.dis(), n_draws=50_000)},
        )


def test_robustness_condition_shapes():
    assert len(robustness_conditions(EstimandId.direct())) == 3
    k1 = robustness_conditions(EstimandId.mediator(1))
    assert len(k1) == 3
    # for k = 1 the last regression level is fit onto X from mu_1
    assert [set(dict(c.route)) for c in k1] == [{"mu", "C_mu"}, {"g", "C_mu"}, {"pi", "g"}]
    for k in (2, 3, 4):
        conditions = robustness_conditions(EstimandId.mediator(k))
        assert len(conditions) == 4
        # the fully-robust fourth condition misspecifies pi and both g's
        false_keys = dict(conditions[3].route)
        assert set(false_keys) == {"pi", f"g{k}", f"g{k-1}"}
    with pytest.raises(SimulationError):
        robustness_conditions(EstimandId.dis())


def test_simreport_roundtrip_and_csv_and_curves(tmp_path):
    spec = DgpSpec("sim2_misspec")
    report = run_grid(
        spec, (EstimandId.direct(),), (400, 800), reps=4, methods=(glm_method(),),
        base_seed=5, truth_draws=100_000,
    )
    assert SimReport.from_json(report.to_json()).to_json() == report.to_json()
    csv_lines = report.to_csv().strip().splitlines()
    assert len(csv_lines) == 1 + 2  # header + two cells
    paths = report.curve_files(str(tmp_path))
    assert len(paths) == 1
    content = (tmp_path / paths[0].split("/")[-1]).read_text()
    assert content.startswith("# n sqrt_n_abs_bias")
    assert len(content.strip().splitlines()) == 3  # header + two n rows


def test_run_grid_with_crossfitting_method():
    from pathshift.simulation import MethodSpec
    from pathshift.nuisance import NuisanceLearners

    spec = DgpSpec("sim2_misspec")
    method = MethodSpec(name="glm_crossfit", learners=NuisanceLearners(), folds=5)
    report = run_grid(
        spec, (EstimandId.direct(),), (1200,), reps=10, methods=(method,),
        base_seed=30, truth_draws=500_000,
    )
    cell = report.cells[0]
    assert cell.failures == 0
    assert abs(cell.bias) < 0.05
    assert 0.5 <= cell.coverage <= 1.0


def test_run_grid_sequential_contrast_target():
    from pathshift.simulation import RhoSpec

    spec = DgpSpec("sim2_misspec")
    rho_star_2 = RhoSpec(EstimandId.sequential(1), EstimandId.sequential(2))
    report = run_grid(
        spec, (rho_star_2,), (1500,), reps=8, methods=(glm_method(),),
        base_seed=31, truth_draws=500_000,
    )
    cell = report.cells[0]
    assert cell.failures == 0
    exact = Sim2Exact(spec)
    truth = exact.gamma(EstimandId.sequential(1)) - exact.gamma(EstimandId.sequential(2))
    assert abs(cell.truth - truth) <= 6 * cell.truth_se + 1e-6


def test_nonfinite_contrast_se_fails_the_replicate(monkeypatch):
    import dataclasses

    from pathshift import simulation
    from pathshift.simulation import RhoSpec, TruthValue, _run_one_rep

    real_estimate = simulation.estimate

    def estimate_with_nan(frame, q):
        est = real_estimate(frame, q)
        eif = est.eif.copy()
        eif[0] = np.nan
        return dataclasses.replace(est, eif=eif)

    monkeypatch.setattr(simulation, "estimate", estimate_with_nan)
    spec = DgpSpec("sim2_misspec")
    rho = RhoSpec.mediator(1)
    status, detail = _run_one_rep((spec, (rho,), 300, glm_method(), 4, False, 0.05))
    assert status == "error"
    assert "non-finite standard error" in detail
    report = run_grid(
        spec, (rho,), (300,), reps=2, methods=(glm_method(),), base_seed=4,
        truths={rho.label: TruthValue(0.0, 0.0, 0)},
    )
    cell = report.cells[0]
    assert cell.failures == 2
    assert cell.reps == 0
    assert np.isnan(cell.coverage)
