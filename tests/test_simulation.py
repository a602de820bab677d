import dataclasses
import hashlib
import json
import os

import numpy as np
import pytest
from scipy.special import expit

from pathshift import simulation
from pathshift.estimators import estimate
from pathshift.nuisance import EstimandId, NuisanceError
from pathshift.simulation import (
    DgpSpec,
    MethodSpec,
    TRUTH_CHUNK,
    RhoSpec,
    Sim2Exact,
    SimulationError,
    TruthValue,
    generate,
    glm_false_method,
    glm_method,
    misspecified_matrix,
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


# sha256 of generate(spec, 5000, seed=3)'s arrays, as written before the truth
# code shared the cascade functions with generate
GENERATE_SHA256 = {
    "sim1_meps_like": {
        "x": "79de5010dd899ef9e9f8a8b3eee0afaf66808675afe8dece3a848730b3f6df48",
        "r": "da10ce21905856236daa3f4325f1b5270a1c80e1d6e64c6820a00fab5c51f3a4",
        "y": "f490f5d8bf52e903cea97e15bf268f42e085dee2eaef2dc6dabe74ec76cbb4c5",
        "m_blocks": "2dae575fe4a6a3e2a197bf7bed4fa497de60e7d15383a0833e4d43852ce15b41",
    },
    "sim2_misspec": {
        "x": "c8dbea5a7e775973d1e09cec76e98a0f091ca635e941e40dc16c840c87113654",
        "r": "d97e7094ca020a5d6e375c8ef89ac06c7c81fcc3f81ce13a13280ca6e60e3f08",
        "y": "b36ef452ecedaa29af36d809f6d307b78bbef12a777fb953dfba537b7eb075d2",
        "m_blocks": "36219051abb1e8ac92c360f664bc7bff10f6344a9fb4ff8235fc3b8a399e11c1",
    },
}


@pytest.mark.parametrize("kind", sorted(GENERATE_SHA256))
def test_generate_bytes_are_pinned(kind):
    frame = generate(DgpSpec(kind), 5000, seed=3)
    got = {
        "x": hashlib.sha256(frame.x.tobytes()).hexdigest(),
        "r": hashlib.sha256(frame.r.tobytes()).hexdigest(),
        "y": hashlib.sha256(frame.y.tobytes()).hexdigest(),
        "m_blocks": hashlib.sha256(b"".join(m.tobytes() for m in frame.m_blocks)).hexdigest(),
    }
    assert got == GENERATE_SHA256[kind]


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
    ones = dataclasses.replace(frame, x=np.ones((4, 4)))
    out = misspecified_matrix(ones)
    assert np.allclose(out[0], [1.0, np.e, 1.0, 2.0 / (np.e + 1.0)])
    zeros = dataclasses.replace(frame, x=np.zeros((4, 4)))
    out0 = misspecified_matrix(zeros)
    assert np.allclose(out0[0], [0.0, 1.0, 0.0, 0.0])


def test_misspecified_transform_keeps_rows_distinct():
    rng = np.random.default_rng(7)
    frame = generate(DgpSpec("sim2_misspec"), 1_000_000, seed=7)
    out = misspecified_matrix(dataclasses.replace(frame, x=rng.random((frame.n, 4))))
    assert np.unique(out, axis=0).shape[0] == out.shape[0]


def test_misspecify_needs_four_covariates():
    frame = generate(DgpSpec("sim1_meps_like"), 50, seed=8)
    with pytest.raises(SimulationError, match="4 covariates"):
        misspecified_matrix(frame)


def test_misspecify_replaces_only_covariates():
    frame = generate(DgpSpec("sim2_misspec"), 100, seed=9)
    x = frame.x.copy()
    out = misspecified_matrix(frame)
    assert out.shape == x.shape
    assert np.array_equal(out[:, 0], x[:, 0] ** 2)
    assert np.array_equal(out[:, 1], np.exp(x[:, 1]))
    assert np.array_equal(frame.x, x)


# -- truths -------------------------------------------------------------------------

def _sim2_cascade_mean(spec, estimand, n_draws, seed):
    """Reference sim2 mean: the outcome's conditional mean averaged over
    n_draws counterfactual cascades, each mediator drawn with R at its own arm
    and the outcome with R = r0. A fixed seed gives every estimand the same
    draws. Returns (mean, its standard error)."""
    c = spec.coeffs
    rng = np.random.default_rng(seed)
    x = rng.random((n_draws, 4))
    ones = np.ones(n_draws)
    ms = []
    for k, arm in enumerate(estimand.mediator_arms(4), start=1):
        design = np.column_stack([ones, x, np.full(n_draws, float(arm))] + ms)
        ms.append(design @ c[f"V_M{k}"] + rng.standard_normal(n_draws))
    ey = np.column_stack([ones, x, np.full(n_draws, float(estimand.r0))] + ms) @ c["V_Y"]
    return float(ey.mean()), float(ey.std() / np.sqrt(n_draws))


def test_closed_form_matches_cascade_for_every_estimand():
    spec = DgpSpec("sim2_misspec")
    exact = Sim2Exact(spec)
    frame = generate(spec, 20_000, seed=2)
    for estimand in [
        EstimandId.adv(), EstimandId.direct(), EstimandId.mediator(2), EstimandId.sequential(3),
        EstimandId.shift(0, (1, 0, 1, 1)), EstimandId.shift(1, (0, 1, 1, 0)), EstimandId.shift(0, (0, 1, 0, 1)),
    ]:
        mean, se = _sim2_cascade_mean(spec, estimand, 500_000, seed=2)
        assert abs(mean - exact.gamma(estimand)) <= 4 * se, estimand.label
        # the one-step estimate at the exact nuisances is unbiased for it too
        est = estimate(frame, exact.nuisance_set(frame, estimand))
        assert abs(est.point - exact.gamma(estimand)) <= 4 * est.se, estimand.label


def test_counterfactual_truth_all_zero_arms_is_reference_mean():
    spec = DgpSpec("sim2_misspec")
    exact = Sim2Exact(spec).gamma(EstimandId.dis())
    truth = truth_for(spec, EstimandId.shift(0, (0, 0, 0, 0)))
    assert (truth.value.hex(), truth.se) == (exact.hex(), 0.0)
    mean, se = _sim2_cascade_mean(spec, EstimandId.shift(0, (0, 0, 0, 0)), 500_000, seed=1)
    assert abs(mean - exact) <= 4 * se


def test_sim2_truth_is_the_closed_form():
    spec = DgpSpec("sim2_misspec")
    exact = Sim2Exact(spec)
    mean = truth_for(spec, EstimandId.mediator(2))
    assert (mean.value.hex(), mean.se, mean.n_draws) == (exact.gamma(EstimandId.mediator(2)).hex(), 0.0, 0)
    rho = truth_for(spec, RhoSpec.mediator(1))
    expected = exact.gamma(EstimandId.mediator(1)) - exact.gamma(EstimandId.dis())
    assert (rho.value.hex(), rho.se, rho.n_draws) == (expected.hex(), 0.0, 0)


def test_discrete_truth_is_exact_enumeration():
    spec = DgpSpec("discrete_toy", tables=toy_k1())
    from pathshift.oracle import enumerate_gamma

    truth = truth_for(spec, EstimandId.shift(0, (1,)))
    assert truth.se == 0.0
    assert truth.value == pytest.approx(enumerate_gamma(toy_k1(), EstimandId.mediator(1)), abs=1e-14)


def test_truth_rejects_wrong_arm_length():
    spec = DgpSpec("sim2_misspec")
    with pytest.raises(NuisanceError, match="expected K=4"):
        truth_for(spec, EstimandId.shift(0, (0, 0)))
    # a contrast's means are validated too: a 5-arm minuend is not dropped to 4 arms
    with pytest.raises(NuisanceError, match="expected K=4"):
        truth_for(spec, RhoSpec(EstimandId.shift(0, (0, 0, 0, 0, 1)), EstimandId.dis()), n_draws=1000)


def test_sim2_exact_gamma_validates_its_estimand():
    exact = Sim2Exact(DgpSpec("sim2_misspec"))
    with pytest.raises(NuisanceError, match="exceeds K=4"):
        exact.gamma(EstimandId.mediator(5))
    for arms in [(0, 0, 0, 0, 1), (0, 0)]:
        with pytest.raises(NuisanceError, match="expected K=4"):
            exact.gamma(EstimandId.shift(0, arms))


def _arm_settings(spec, estimand):
    K = spec.n_blocks
    parts = (estimand.minuend, estimand.subtrahend) if isinstance(estimand, RhoSpec) else (estimand,)
    return tuple((e.r0, e.mediator_arms(K)) for e in parts)


def _whole_chunk(spec, settings, m, seed, chunk):
    """Reference per-draw values of one sim1 chunk: every stream drawn and each
    arm setting's cascade evaluated over the whole chunk at once."""
    d = {}
    for stream, (sampler, cols) in simulation._SIM1_STREAMS.items():
        rng = np.random.default_rng(np.random.SeedSequence([seed, stream, chunk]))
        d[stream] = getattr(rng, sampler)((m, cols) if cols else m)

    def outcome_mean(r0, arms):
        y_star = simulation._sim1_cascade(spec, d, arms=arms, r0=r0)[3]
        return expit(y_star) * 0.4 * y_star

    vals = outcome_mean(*settings[0])
    if len(settings) == 2:
        vals = vals - outcome_mean(*settings[1])
    return vals


def _serial_truth(chunk_values, n_draws):
    """Reference: the chunk sums added in a serial loop; hex (value, se)."""
    total = 0.0
    total_sq = 0.0
    for vals in chunk_values:
        total += float(vals.sum())
        total_sq += float((vals**2).sum())
    mean = total / n_draws
    var = max(total_sq / n_draws - mean**2, 0.0)
    return mean.hex(), float(np.sqrt(var / n_draws)).hex()


# truth_for(..., n_draws=16_385, seed=11) (value, se) as computed by the serial
# whole-chunk loop before truths ran in blocks
TRUTH_PINS = {
    ("sim1_meps_like", "gamma_mediator_2"): ("0x1.1bc238876e656p+0", "0x1.4418bec8b93d2p-7"),
    ("sim1_meps_like", "rho[gamma_mediator_1-gamma_dis]"): ("0x1.84583e68c1a1cp-3", "0x1.282e8c903e230p-9"),
}
# a single block, a ragged last block, and a ragged second chunk
PARITY_DRAWS = (1, 16_385, 1_000_001, 2_345_679)


@pytest.mark.parametrize("kind", ["sim1_meps_like"])
@pytest.mark.parametrize("estimand", [EstimandId.mediator(2), RhoSpec.mediator(1)], ids=["mean", "contrast"])
def test_blocked_threaded_truth_is_bit_identical_to_whole_chunk_loop(kind, estimand, monkeypatch):
    spec = DgpSpec(kind)
    settings = _arm_settings(spec, estimand)
    chunks = {}  # (chunk id, rows) -> reference values; runs share chunk 0
    reference = []
    for n in PARITY_DRAWS:
        keys = [(c, min(TRUTH_CHUNK, n - lo)) for c, lo in enumerate(range(0, n, TRUTH_CHUNK))]
        for chunk, m in keys:
            if (chunk, m) not in chunks:
                chunks[(chunk, m)] = _whole_chunk(spec, settings, m, 11, chunk)
        reference.append(_serial_truth([chunks[key] for key in keys], n))
    assert reference[1] == TRUTH_PINS[(kind, estimand.label)]
    # per draw, too: a sum can absorb a last-bit change in a few rows. (With a
    # multi-threaded BLAS, the reference's whole-chunk products split across
    # threads; at these chunk sizes and two BLAS threads, the splits fall on
    # the kernel's row groups, so the reference keeps its one-thread bits.)
    for (chunk, m), vals in chunks.items():
        assert simulation._chunk_values(spec, settings, m, 11, chunk).tobytes() == vals.tobytes()

    def blocked():
        return [(t.value.hex(), t.se.hex()) for t in (truth_for(spec, estimand, n, seed=11) for n in PARITY_DRAWS)]

    assert blocked() == reference
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert blocked() == reference


def test_truth_rejects_nonpositive_draws():
    for n_draws in (0, -5):
        with pytest.raises(SimulationError, match=f"got {n_draws}"):
            truth_for(DgpSpec("sim2_misspec"), EstimandId.direct(), n_draws=n_draws)


# -- grid ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "n_list, alpha, message",
    [
        ((0,), 0.05, "sample sizes must be >= 1, got 0"),
        ((400, -3), 0.05, "sample sizes must be >= 1, got -3"),
        ((400,), 0.0, r"alpha must lie in \(0, 1\), got 0.0"),
        ((400,), 1.0, r"alpha must lie in \(0, 1\), got 1.0"),
        ((400,), 1.5, r"alpha must lie in \(0, 1\), got 1.5"),
        ((400,), float("nan"), r"alpha must lie in \(0, 1\), got nan"),
    ],
)
def test_run_grid_rejects_bad_sizes_and_alpha_before_any_work(monkeypatch, n_list, alpha, message):
    def no_work(*args, **kwargs):
        raise AssertionError("a truth was computed for an invalid grid")

    monkeypatch.setattr(simulation, "truth_for", no_work)
    monkeypatch.setattr(simulation, "_run_one_rep", no_work)
    with pytest.raises(SimulationError, match=message):
        run_grid(DgpSpec("sim2_misspec"), (EstimandId.direct(),), n_list, reps=2, methods=(glm_method(),), alpha=alpha)


def test_run_grid_single_rep_degenerate_aggregation():
    spec = DgpSpec("sim2_misspec")
    estimands = (EstimandId.direct(),)
    report = run_grid(spec, estimands, (500,), reps=1, methods=(glm_method(),), base_seed=0, truth_draws=200_000)
    cell = report.cells[0]
    assert cell.reps == 1
    assert cell.sd == 0.0
    assert cell.coverage in (0.0, 1.0)


def test_centred_bias_against_an_exact_truth_is_the_mean_of_point_minus_hbar():
    # for these values (a + g) - g != a in floating point, so the truth's
    # offset from the exact mean must be formed before it is subtracted
    estimand = EstimandId.direct()
    points, hbars = np.array([0.31, 0.29, 0.335]), np.array([0.3, 0.3, 0.3])
    results = [("ok", (p, p - 0.1, p + 0.1, h)) for p, h in zip(points, hbars)]
    results.append(("error", "ValueError()"))

    def centred(truth, gamma_exact):
        return simulation._aggregate_cell(estimand, 800, glm_method(), results, TruthValue(truth, 0.0, 0), gamma_exact)

    cell = centred(0.7, 0.7)
    assert cell.bias_centered == float(np.mean(points - hbars))
    assert (cell.reps, cell.failures) == (3, 1)
    assert centred(0.75, 0.7).bias_centered == pytest.approx(np.mean(points - hbars) - 0.05, abs=1e-15)


def test_grid_meta_names_the_largest_truth_draws():
    def meta_draws(spec, estimands, truths=None):
        report = run_grid(spec, estimands, (400,), reps=1, methods=(glm_method(),), truths=truths, truth_draws=20_000)
        return report.meta["truth_draws"]

    # exact truths take no draws
    assert meta_draws(DgpSpec("sim2_misspec"), (EstimandId.direct(),)) == 0
    assert meta_draws(DgpSpec("discrete_toy", tables=toy_k1()), (EstimandId.direct(),)) == 0
    # sim1 truths drawn here take truth_draws, as the meta read before
    sim1 = DgpSpec("sim1_meps_like")
    assert meta_draws(sim1, (EstimandId.mediator(1),)) == 20_000
    given = {"gamma_mediator_1": TruthValue(0.5, 0.01, 30_000)}
    assert meta_draws(sim1, (EstimandId.mediator(1), EstimandId.direct()), given) == 30_000


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


def test_run_grid_report_is_the_same_with_a_process_pool(usable_cores):
    # the pool forks after the truth threads have run; two usable cores, so
    # that the pool runs on any host
    usable_cores(2)
    spec = DgpSpec("sim1_meps_like")
    kwargs = dict(
        estimands=(EstimandId.mediator(1), RhoSpec.direct()),
        n_list=(400,),
        reps=4,
        methods=(glm_method(),),
        base_seed=8,
        truth_draws=20_000,
    )
    serial = run_grid(spec, n_jobs=1, **kwargs)
    pooled = run_grid(spec, n_jobs=2, **kwargs)
    assert serial.cells[0].failures == 0
    assert serial.to_json() == pooled.to_json()
    with pytest.raises(ChildProcessError):  # every worker was reaped
        os.waitpid(-1, os.WNOHANG)


def test_run_grid_starts_no_pool_for_one_task(monkeypatch, usable_cores):
    def no_pool():
        raise AssertionError("a pool was started for one task")

    usable_cores(2)
    monkeypatch.setattr(os, "fork", no_pool)
    report = run_grid(
        DgpSpec("sim2_misspec"), (EstimandId.direct(),), (400,), reps=1, methods=(glm_method(),), n_jobs=2
    )
    assert (report.cells[0].reps, report.cells[0].failures) == (1, 0)


def test_a_failed_estimand_fails_only_its_own_cells(monkeypatch):
    # one replicate's frame and cache serve both estimands, and mediator_2's
    # error must not take direct's estimates with it
    real_estimate = simulation.estimate

    def estimate_or_fail(frame, q):
        if q.estimand == EstimandId.mediator(2):
            raise ValueError("no mediator_2 today")
        return real_estimate(frame, q)

    monkeypatch.setattr(simulation, "estimate", estimate_or_fail)
    report = run_grid(
        DgpSpec("sim2_misspec"), (EstimandId.direct(), EstimandId.mediator(2)), (300,), reps=3,
        methods=(glm_method(),), base_seed=2,
    )
    direct, mediator_2 = report.cells
    assert (direct.estimand, direct.reps, direct.failures) == ("gamma_direct", 3, 0)
    assert (mediator_2.estimand, mediator_2.reps, mediator_2.failures) == ("gamma_mediator_2", 0, 3)
    assert np.isfinite(direct.bias) and np.isnan(mediator_2.bias)


def test_a_per_estimand_mapping_grid_equals_each_estimand_run_alone():
    spec = DgpSpec("sim2_misspec")
    estimands = (EstimandId.direct(), EstimandId.mediator(2))
    methods = {e.label: robustness_conditions(e, spec.n_blocks) + (glm_false_method(),) for e in estimands}
    kwargs = dict(n_list=(300, 500), reps=3, base_seed=6)
    mapped = run_grid(spec, estimands, methods=methods, **kwargs)
    alone = [c for e in estimands for c in run_grid(spec, (e,), methods=methods[e.label], **kwargs).cells]
    assert [c.to_dict() for c in mapped.cells] == [c.to_dict() for c in alone]
    assert sum(c.failures for c in mapped.cells) == 0


def test_a_method_listed_twice_gives_two_equal_cells():
    report = run_grid(
        DgpSpec("sim2_misspec"), (EstimandId.mediator(1),), (300,), reps=3,
        methods=(glm_method(), glm_method()), base_seed=4,
    )
    first, second = report.cells
    assert first.to_dict() == second.to_dict()
    assert (first.reps, first.failures) == (3, 0)


def test_run_grid_records_failures_and_continues():
    # a truncation level outside [0, 0.5) fails every replicate's nuisance cache
    spec = DgpSpec("sim1_meps_like")
    report = run_grid(
        spec,
        (EstimandId.mediator(1),),
        (300,),
        reps=3,
        methods=(MethodSpec("bad_delta", delta=0.7),),
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


def test_oracle_centering_on_sim2_centres_means_and_contrasts(tmp_path):
    spec = DgpSpec("sim2_misspec")
    targets = (EstimandId.mediator(2), RhoSpec.mediator(1))
    reps = 8
    report = run_grid(
        spec, targets, (800,), reps=reps, methods=(glm_method(),), base_seed=5,
        truth_draws=200_000, oracle_centering=True,
    )
    for target in targets:
        cell = report.cell(target.label, 800, "glm_correct")
        assert cell.failures == 0
        assert np.isfinite(cell.bias_centered)
        # the control variate strips the replicate noise: the centred bias sits
        # well inside the naive bias's own Monte-Carlo error
        assert abs(cell.bias_centered) < cell.sd / np.sqrt(reps), target.label
    for path in report.curve_files(str(tmp_path)):
        n, _, _, centered = open(path, encoding="utf-8").read().splitlines()[1].split()
        assert n == "800" and np.isfinite(float(centered))


def test_robustness_condition_shapes():
    K = 4
    names = {
        EstimandId.dis(): ["robust_c1_pi", "robust_c2_Q0"],
        EstimandId.direct(): ["robust_c1_pi_g4", "robust_c2_pi_Q0", "robust_c3_Q0_Q1"],
        EstimandId.mediator(1): ["robust_c1_pi_g1", "robust_c2_pi_Q0", "robust_c3_Q0_Q1"],
        EstimandId.mediator(2): ["robust_c1_pi_g2_g1", "robust_c2_pi_g1_Q0", "robust_c3_pi_Q0_Q1", "robust_c4_Q0_Q1_Q2"],
    }
    for estimand, expected in names.items():
        assert [c.name for c in robustness_conditions(estimand, K)] == expected
    # whatever a condition does not keep is routed false, by chain position
    assert [dict(c.route) for c in robustness_conditions(EstimandId.mediator(2), K)] == [
        {"Q0": "false", "Q1": "false", "Q2": "false"},
        {"g2": "false", "Q1": "false", "Q2": "false"},
        {"g2": "false", "g1": "false", "Q2": "false"},
        {"pi": "false", "g2": "false", "g1": "false"},
    ]
    for k in (2, 3, 4):
        conditions = robustness_conditions(EstimandId.mediator(k), K)
        assert len(conditions) == 4
        # the fully-robust fourth condition misspecifies pi and both g's
        assert set(dict(conditions[3].route)) == {"pi", f"g{k}", f"g{k-1}"}
    # J + 2 conditions for a chain of J + 1 levels
    counts = {EstimandId.dis(): 2, EstimandId.adv(): 2, EstimandId.shift(0, (1, 0, 1, 1)): 5}
    counts.update({EstimandId.sequential(k): 3 for k in range(1, K + 1)})
    for estimand, count in counts.items():
        assert len(robustness_conditions(estimand, K)) == count, estimand.label
    with pytest.raises(SimulationError):
        robustness_conditions(RhoSpec.mediator(1), K)


def test_simreport_roundtrip_and_csv_and_curves(tmp_path):
    spec = DgpSpec("sim2_misspec")
    report = run_grid(
        spec, (EstimandId.direct(),), (400, 800), reps=4, methods=(glm_method(),),
        base_seed=5, truth_draws=100_000,
    )
    payload = json.loads(report.to_json())
    assert payload["cells"] == [c.to_dict() for c in report.cells]
    assert payload["meta"] == report.meta
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
    [(status, detail)] = _run_one_rep((spec, ((glm_method(), rho),), 300, 4, False, 0.05))
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
