import json
import os
import subprocess
import sys
import weakref

import pytest

from pathshift import cli, nuisance
from pathshift.cli import _learner_from_config, _parse_estimands, main
from pathshift.data import DataError
from pathshift.learners import LearnerSpec, SuperLearnerConfig, default_binary_sl, default_continuous_sl
from pathshift.nuisance import EstimandId
from pathshift.simulation import RhoSpec
from pathshift.toys import fixture_path, toy_k1


def test_import_loads_no_scipy_stats():
    """The Wald CI and p-value come from scipy.special, so importing the CLI
    pulls in neither scipy.stats nor the optimize and spatial packages it loads."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, pathshift.cli; print(' '.join(sys.modules))"
    loaded = set(subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout.split())
    assert "pathshift.cli" in loaded and "scipy.special" in loaded
    assert not {"scipy.stats", "scipy.optimize", "scipy.spatial"} & loaded


def test_decompose_writes_reports_and_table(meps_like_csv, tmp_path, capsys):
    _, cfg = meps_like_csv
    out = tmp_path / "out"
    code = main(["decompose", "--config", cfg, "--out", str(out), "--seed", "3", "--scale", "geometric"])
    assert code == 0
    printed = capsys.readouterr().out
    data_rows = [ln for ln in printed.splitlines() if ln.startswith(("mediator_", "outcome_attributed", "total"))]
    assert len(data_rows) == 6  # four mediators + outcome-attributed + total
    payload = json.loads((out / "decomposition.json").read_text())
    assert payload["seed"] == 3
    labels = {c["label"] for c in payload["reports"][0]["components"]}
    assert {"total", "mediator_1", "mediator_4", "outcome_attributed", "residual_outcome"} <= labels
    assert (out / "decomposition.csv").read_text().startswith("label,value")


def test_decompose_both_kinds(meps_like_csv, tmp_path):
    _, cfg = meps_like_csv
    out = tmp_path / "both"
    code = main(["decompose", "--config", cfg, "--out", str(out), "--seed", "1", "--decomposition", "both"])
    assert code == 0
    payload = json.loads((out / "decomposition.json").read_text())
    kinds = [rep["estimand_meta"]["decomposition"] for rep in payload["reports"]]
    assert kinds == ["natural", "sequential"]


def test_decompose_probability_scale_uses_indicator(meps_like_csv, tmp_path):
    _, cfg = meps_like_csv
    out = tmp_path / "prob"
    code = main(["decompose", "--config", cfg, "--out", str(out), "--seed", "1", "--scale", "probability"])
    assert code == 0
    payload = json.loads((out / "decomposition.json").read_text())
    meta = payload["reports"][0]["estimand_meta"]
    assert meta["outcome_scale"] == "positive_indicator"
    assert all(c["scale"] == "probability_difference" for c in payload["reports"][0]["components"])


def test_decompose_seed_reproducible_bytes(meps_like_csv, tmp_path):
    _, cfg = meps_like_csv
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["decompose", "--config", cfg, "--out", str(out1), "--seed", "9"]) == 0
    assert main(["decompose", "--config", cfg, "--out", str(out2), "--seed", "9"]) == 0
    assert (out1 / "decomposition.json").read_bytes() == (out2 / "decomposition.json").read_bytes()


@pytest.mark.parametrize("folds", ["1", "2"])
def test_decompose_crossfit_bytes_match_across_thread_counts(meps_like_csv, tmp_path, usable_cores, folds):
    # one fold keeps each level's single prediction vector as it is; two merge them
    usable_cores(2)  # the tree pool runs on any host
    _, cfg = meps_like_csv
    threads = {"pool_a": "2", "pool_b": "2", "serial": "1"}
    for name, count in threads.items():
        argv = ["decompose", "--config", cfg, "--out", str(tmp_path / name), "--seed", "6",
                "--crossfit-folds", folds, "--decomposition", "both", "--threads", count]
        assert main(argv) == 0
    outputs = {name: (tmp_path / name / "decomposition.json").read_bytes() for name in threads}
    assert outputs["pool_a"] == outputs["pool_b"] == outputs["serial"]


@pytest.mark.parametrize("n_pairs", [1, 2])
def test_decompose_releases_the_dataset_before_the_last_pair(meps_like_csv, tmp_path, monkeypatch, n_pairs):
    _, cfg_path = meps_like_csv
    cfg = json.loads(open(cfg_path).read())
    cfg["group"]["pairs"] = [{"reference": 1, "comparison": 2}, {"reference": 2, "comparison": 1}][:n_pairs]
    new_cfg = tmp_path / "pairs.json"
    new_cfg.write_text(json.dumps(cfg))
    real_load, real_decompose = cli.load_csv, cli.decompose
    loaded, alive = [], []

    def load_csv(*args, **kwargs):
        ds = real_load(*args, **kwargs)
        loaded.append(weakref.ref(ds))
        return ds

    def decompose(*args, **kwargs):
        alive.append(loaded[0]() is not None)
        return real_decompose(*args, **kwargs)

    monkeypatch.setattr(cli, "load_csv", load_csv)
    monkeypatch.setattr(cli, "decompose", decompose)
    assert main(["decompose", "--config", str(new_cfg), "--out", str(tmp_path / "out"), "--seed", "2",
                 "--threads", "1"]) == 0
    assert len(loaded) == 1
    assert alive == [True] * (n_pairs - 1) + [False]


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_decompose_rejects_threads_below_one(meps_like_csv, tmp_path, capsys, threads):
    _, cfg = meps_like_csv
    with pytest.raises(SystemExit) as info:
        main(["decompose", "--config", cfg, "--out", str(tmp_path), "--seed", "1", "--threads", threads])
    assert info.value.code == 2
    assert f"argument --threads: must be >= 1, got {threads}" in capsys.readouterr().err
    assert not (tmp_path / "decomposition.json").exists()


@pytest.mark.parametrize("folds", ["0", "-1"])
def test_decompose_rejects_crossfit_folds_flag_below_one(meps_like_csv, tmp_path, capsys, folds):
    _, cfg = meps_like_csv
    with pytest.raises(SystemExit) as info:
        main(["decompose", "--config", cfg, "--out", str(tmp_path), "--crossfit-folds", folds])
    assert info.value.code == 2
    assert f"argument --crossfit-folds: must be >= 1, got {folds}" in capsys.readouterr().err
    assert not (tmp_path / "decomposition.json").exists()


def test_decompose_rejects_config_crossfit_folds_below_one(meps_like_csv, tmp_path, capsys):
    _, cfg = meps_like_csv
    config = json.loads(open(cfg, encoding="utf-8").read())
    config["crossfit"] = {"folds": 0}
    bad = tmp_path / "folds0.json"
    bad.write_text(json.dumps(config), encoding="utf-8")
    assert main(["decompose", "--config", str(bad), "--out", str(tmp_path)]) == 2
    assert "config crossfit.folds must be >= 1, got 0" in capsys.readouterr().err
    assert not (tmp_path / "decomposition.json").exists()


def _rewrite_rows(path, out, change):
    """The study CSV with ``change(row)`` applied to each data row; a row
    that ``change`` maps to None is left out."""
    lines = open(path, encoding="utf-8").read().splitlines()
    rows = [change(line.split(",")) for line in lines[1:]]
    out.write_text("\n".join([lines[0], *(",".join(row) for row in rows if row is not None)]) + "\n", encoding="utf-8")
    return str(out)


@pytest.mark.parametrize("threads", ["1", "2"])
def test_decompose_names_the_nuisance_whose_learner_fails(meps_like_csv, tmp_path, capsys, usable_cores, threads):
    usable_cores(2)  # the tree pool runs on any host
    path, cfg_path = meps_like_csv
    nonzero = []

    def one_nonzero_reference_outcome(row):
        if float(row[3]) == 1.0 and float(row[-1]) != 0.0:
            nonzero.append(row)
            if len(nonzero) > 1:
                row[-1] = "0"
        return row

    cfg = json.loads(open(cfg_path).read())
    cfg.update(data=_rewrite_rows(path, tmp_path / "zero.csv", one_nonzero_reference_outcome), learner="superlearner",
               superlearner={"candidates": ["mean", "linear"], "cv_folds": 5}, crossfit={"folds": 2})
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    argv = ["decompose", "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "out"), "--seed", "3",
            "--scale", "geometric", "--threads", threads]
    with pytest.warns(UserWarning) as caught:
        assert main(argv) == 2
    assert "two-part fit: no nonzero responses, returning constant zero" in [str(w.message) for w in caught]
    (error,) = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
    # the positive part of the reference level's outcome model has one row for five CV folds
    assert error.startswith("error: nuisance Q0, group level 1 (R=0), cross-fit fold ")
    assert "two-part fit, positive part (1 nonzero rows): need n >= cv_folds (1 < 5)" in error
    assert error.endswith("set by superlearner.cv_folds")
    assert not (tmp_path / "out" / "decomposition.json").exists()


@pytest.mark.parametrize("source", ["flag", "config"])
def test_decompose_refuses_more_crossfit_folds_than_a_group_level_has_rows(
    meps_like_csv, tmp_path, capsys, monkeypatch, source
):
    path, cfg_path = meps_like_csv
    kept = []

    def two_comparison_rows(row):
        if float(row[3]) == 2.0:
            kept.append(row)
            if len(kept) > 2:
                return None
        return row

    cfg = json.loads(open(cfg_path).read())
    cfg["data"] = _rewrite_rows(path, tmp_path / "few.csv", two_comparison_rows)
    argv = ["decompose", "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "out"), "--threads", "1"]
    if source == "flag":
        argv += ["--crossfit-folds", "5"]
    else:
        cfg["crossfit"] = {"folds": 5}
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))

    def no_fit(*args, **kwargs):
        raise AssertionError("a nuisance was fit")

    monkeypatch.setattr(nuisance, "train", no_fit)
    monkeypatch.setattr(nuisance, "fit_two_part", no_fit)
    assert main(argv) == 2
    message = "5 cross-fit folds (--crossfit-folds, crossfit.folds) exceed the 2 complete rows of group level 2 (R=1)"
    assert f"error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "out" / "decomposition.json").exists()


def test_decompose_flags_components_whose_se_is_exactly_zero(meps_like_csv, tmp_path):
    path, cfg = meps_like_csv
    argv = ["decompose", "--config", cfg, "--seed", "4", "--threads", "1", "--decomposition", "both"]
    assert main([*argv, "--out", str(tmp_path / "plain")]) == 0
    plain = json.loads((tmp_path / "plain" / "decomposition.json").read_text())
    assert all("zero_se_components" not in rep["diagnostics"] for rep in plain["reports"])

    lines = open(path, encoding="utf-8").read().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    for row in rows:
        if float(row[3]) == 1.0:  # an outcome of 0 throughout the reference group
            row[-1] = "0"
    zero = tmp_path / "zero.csv"
    zero.write_text("\n".join([lines[0], *(",".join(row) for row in rows)]) + "\n", encoding="utf-8")
    with pytest.warns(UserWarning) as caught:
        assert main([*argv, "--data", str(zero), "--out", str(tmp_path / "zero")]) == 0
    payload = json.loads((tmp_path / "zero" / "decomposition.json").read_text())
    natural, sequential = payload["reports"]
    flagged = [f"mediator_{k}" for k in range(1, 5)]
    assert natural["diagnostics"]["zero_se_components"] == flagged
    assert all((c["se"] == 0.0) == (c["label"] in flagged) for c in natural["components"])
    assert "zero_se_components" not in sequential["diagnostics"]
    messages = [str(w.message) for w in caught]
    assert f"natural components with a standard error of exactly 0: {', '.join(flagged)}" in messages


def test_simulate_rejects_threads_below_one(tmp_path, capsys):
    args = ["simulate", "--dgp", "sim1", "--n", "300", "--reps", "1", "--threads", "0", "--out", str(tmp_path)]
    with pytest.raises(SystemExit) as info:
        main(args)
    assert info.value.code == 2
    assert "argument --threads: must be >= 1, got 0" in capsys.readouterr().err


def test_decompose_env_seed_fallback(meps_like_csv, tmp_path, monkeypatch):
    _, cfg = meps_like_csv
    out = tmp_path / "env"
    monkeypatch.setenv("PATHSHIFT_SEED", "123")
    assert main(["decompose", "--config", cfg, "--out", str(out)]) == 0
    payload = json.loads((out / "decomposition.json").read_text())
    assert payload["seed"] == 123


def test_decompose_missing_data_errors(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"group": {"name": "g"}, "mediators": [["m"]], "outcome": {"name": "y"}}))
    assert main(["decompose", "--config", str(cfg), "--out", str(tmp_path)]) == 2


def test_decompose_group_pairs(meps_like_csv, tmp_path):
    path, cfg_path = meps_like_csv
    cfg = json.loads(open(cfg_path).read())
    cfg["group"]["pairs"] = [
        {"reference": 1, "comparison": 2},
        {"reference": 2, "comparison": 1},
    ]
    del cfg["group"]["reference"], cfg["group"]["comparison"]
    new_cfg = tmp_path / "pairs.json"
    new_cfg.write_text(json.dumps(cfg))
    out = tmp_path / "pairs_out"
    assert main(["decompose", "--config", str(new_cfg), "--out", str(out), "--seed", "2"]) == 0
    payload = json.loads((out / "decomposition.json").read_text())
    assert len(payload["reports"]) == 2
    a, b = (rep["components"][0]["point"] for rep in payload["reports"])
    assert a == pytest.approx(-b, abs=1e-12)  # swapped roles flip the total


def test_simulate_smoke_and_determinism(tmp_path):
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    args = [
        "simulate", "--dgp", "sim2", "--estimands", "direct,mediator1", "--n", "400",
        "--reps", "3", "--conditions", "correct", "--truth-draws", "100000",
        "--seed", "5", "--threads", "1",
    ]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert (out1 / "simreport.json").read_bytes() == (out2 / "simreport.json").read_bytes()
    assert (out1 / "simreport.csv").exists()
    curves = [p for p in os.listdir(out1) if p.startswith("curves_")]
    assert len(curves) == 2


def test_simulate_sim1_single_rep_smoke(tmp_path):
    args = [
        "simulate", "--dgp", "sim1", "--estimands", "mediator1", "--n", "300",
        "--reps", "1", "--conditions", "correct", "--truth-draws", "50000",
        "--seed", "1", "--threads", "1", "--out", str(tmp_path),
    ]
    assert main(args) == 0


def test_simulate_rejects_zero_truth_draws(tmp_path, capsys):
    args = [
        "simulate", "--dgp", "sim1", "--estimands", "mediator1", "--n", "300", "--reps", "1",
        "--truth-draws", "0", "--seed", "1", "--threads", "1", "--out", str(tmp_path),
    ]
    assert main(args) == 2
    assert "truth draws must be >= 1, got 0" in capsys.readouterr().err


def test_oracle_check_rejects_zero_mc_draws(capsys):
    # rejected while the arguments are parsed, before the header is printed
    with pytest.raises(SystemExit) as info:
        main(["oracle-check", "--mc-draws", "0", "--seed", "1"])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --mc-draws: must be >= 1, got 0" in captured.err


def seed_argv(command, out, cfg):
    """A run of ``command`` that would do real work, before its seed is given."""
    return {
        "decompose": ["decompose", "--config", cfg, "--out", str(out), "--threads", "1"],
        "simulate": ["simulate", "--dgp", "sim2", "--estimands", "mediator1", "--n", "50", "--reps", "2",
                     "--threads", "1", "--out", str(out)],
        "oracle-check": ["oracle-check", "--mc-draws", "1000"],
    }[command]


@pytest.mark.parametrize("command, seed", [("simulate", "-3"), ("decompose", "-2"), ("oracle-check", "-1")])
def test_negative_seed_flag_is_rejected_before_any_work(meps_like_csv, tmp_path, capsys, monkeypatch, command, seed):
    monkeypatch.setattr(cli, "load_csv", lambda *args, **kwargs: pytest.fail("the data was loaded"))
    with pytest.raises(SystemExit) as info:
        main(seed_argv(command, tmp_path / "out", meps_like_csv[1]) + ["--seed", seed])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument --seed: must be >= 0, got {seed}" in captured.err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, value", [("oracle-check", "-4"), ("decompose", "abc"), ("simulate", "2.5")])
def test_bad_env_seed_is_named_before_any_work(meps_like_csv, tmp_path, capsys, monkeypatch, command, value):
    monkeypatch.setattr(cli, "load_csv", lambda *args, **kwargs: pytest.fail("the data was loaded"))
    monkeypatch.setenv("PATHSHIFT_SEED", value)
    assert main(seed_argv(command, tmp_path / "out", meps_like_csv[1])) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"PATHSHIFT_SEED must be an integer >= 0, got {value!r}" in captured.err
    assert not (tmp_path / "out").exists()


def test_oracle_check_shipped_fixture_passes(capsys):
    code = main(["oracle-check", "--fixture", fixture_path("toy_k1"), "--mc-draws", "300000", "--seed", "0"])
    assert code == 0
    out = capsys.readouterr().out
    assert "gamma_mediator_1" in out and "FAIL" not in out


def test_oracle_check_k4_fixture_passes():
    assert main(["oracle-check", "--fixture", fixture_path("toy_k4"), "--mc-draws", "100000", "--seed", "0"]) == 0


def test_oracle_check_fails_a_zero_se_draw_off_the_mean(capsys):
    # one draw of a binary Y is 0 or 1, while every enumerated mean is near 0.55
    code = main(["oracle-check", "--fixture", fixture_path("toy_k4"), "--mc-draws", "1", "--seed", "0"])
    out = capsys.readouterr().out
    assert code == 1
    assert out.count("mc_gap= inf sigma  [FAIL]") == 11 and "[ok]" not in out


def test_oracle_check_passes_a_zero_se_draw_on_the_mean(tmp_path, capsys):
    payload = toy_k1().to_dict()
    payload["y_values"] = [2.0, 2.0]  # every counterfactual mean is 2
    constant = tmp_path / "constant.json"
    constant.write_text(json.dumps(payload))
    assert main(["oracle-check", "--fixture", str(constant), "--mc-draws", "1", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert out.count("mc_gap=0.00 sigma  [ok]") == 5


def test_oracle_check_rejects_a_nan_fixture(tmp_path, capsys):
    payload = toy_k1().to_dict()
    payload["p_x"][0] = float("nan")
    bad = tmp_path / "nan.json"
    bad.write_text(json.dumps(payload))
    assert main(["oracle-check", "--fixture", str(bad)]) == 1
    assert "invalid fixture" in capsys.readouterr().err


def test_oracle_check_corrupted_fixture_fails(tmp_path, capsys):
    payload = toy_k1().to_dict()
    payload["p_y"][0][0][0] = [0.45, 0.45]  # row sum 0.9
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    assert main(["oracle-check", "--fixture", str(bad)]) == 1
    assert "invalid fixture" in capsys.readouterr().err


def test_decompose_incomplete_config_messages(meps_like_csv, tmp_path, capsys):
    path, _ = meps_like_csv
    cfg = tmp_path / "incomplete.json"
    cfg.write_text(json.dumps({"data": path, "outcome": {"name": "expenditure"}, "group": {"name": "race"}}))
    assert main(["decompose", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert "missing 'mediators'" in capsys.readouterr().err
    cfg.write_text(json.dumps({
        "data": path, "outcome": {"name": "expenditure"}, "group": {"name": "race"},
        "mediators": [["m2"]],
    }))
    assert main(["decompose", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert "reference" in capsys.readouterr().err
    cfg.write_text(json.dumps({
        "data": path, "outcome": {"scale": "log_positive"}, "mediators": [["m2"]],
        "group": {"name": "race", "reference": 1, "comparison": 2},
    }))
    assert main(["decompose", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert "missing required key: 'name'" in capsys.readouterr().err
    for pair, key in [({"reference": None, "comparison": 1}, "reference"), ({"reference": 1, "comparison": "abc"}, "comparison")]:
        cfg.write_text(json.dumps({
            "data": path, "outcome": {"name": "expenditure"}, "mediators": [["m2"]],
            "group": {"name": "race", "pairs": [pair]},
        }))
        assert main(["decompose", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert f"config group '{key}' must be a number" in capsys.readouterr().err


def test_simulate_robustness_conditions(tmp_path):
    args = [
        "simulate", "--dgp", "sim2", "--estimands", "mediator1", "--n", "300",
        "--reps", "2", "--conditions", "robustness", "--truth-draws", "50000",
        "--seed", "2", "--threads", "1", "--out", str(tmp_path),
    ]
    assert main(args) == 0
    payload = json.loads((tmp_path / "simreport.json").read_text())
    methods = {c["method"] for c in payload["cells"]}
    assert {"robust_c1_pi_g1", "robust_c2_pi_Q0", "robust_c3_Q0_Q1", "glm_correct", "glm_false"} == methods


def test_simulate_rejects_misspecification_without_x_false(tmp_path, capsys):
    args = [
        "simulate", "--dgp", "sim1", "--estimands", "mediator1", "--n", "300", "--reps", "1",
        "--conditions", "false", "--truth-draws", "1000", "--seed", "1", "--threads", "1", "--out", str(tmp_path),
    ]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert "'glm_false'" in err and "sim1_meps_like" in err
    assert not (tmp_path / "simreport.json").exists()


def test_simulate_rho_estimand_token(tmp_path):
    args = [
        "simulate", "--dgp", "sim2", "--estimands", "rho_mediator1,rho_direct", "--n", "300",
        "--reps", "2", "--conditions", "correct", "--truth-draws", "50000",
        "--seed", "2", "--threads", "1", "--out", str(tmp_path),
    ]
    assert main(args) == 0
    payload = json.loads((tmp_path / "simreport.json").read_text())
    assert {c["estimand"] for c in payload["cells"]} == {
        "rho[gamma_mediator_1-gamma_dis]", "rho[gamma_direct-gamma_dis]",
    }


@pytest.mark.parametrize("alpha", ["0", "1", "1.5"])
def test_decompose_rejects_alpha_outside_the_unit_interval(meps_like_csv, tmp_path, capsys, alpha):
    _, cfg = meps_like_csv
    assert main(["decompose", "--config", cfg, "--out", str(tmp_path), "--alpha", alpha]) == 2
    assert f"alpha must lie in (0, 1), got {float(alpha)}" in capsys.readouterr().err
    assert not (tmp_path / "decomposition.json").exists()


def test_simulate_rejects_a_zero_sample_size(tmp_path, capsys):
    args = [
        "simulate", "--dgp", "sim2", "--estimands", "mediator1", "--n", "0", "--reps", "2",
        "--seed", "1", "--threads", "1", "--out", str(tmp_path),
    ]
    assert main(args) == 2
    assert "sample sizes must be >= 1, got 0" in capsys.readouterr().err
    assert not (tmp_path / "simreport.json").exists()


def test_simulate_rejects_unknown_conditions(tmp_path, capsys):
    with pytest.raises(SystemExit) as info:
        main(["simulate", "--dgp", "sim2", "--conditions", "bogus", "--out", str(tmp_path)])
    assert info.value.code == 2
    assert "argument --conditions: invalid choice: 'bogus'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "cfg, binary, expected",
    [
        ({}, True, LearnerSpec("logistic")),
        ({"learner": "glm"}, False, LearnerSpec("linear")),
        ({"learner": "linear", "feature_policy": "quadratic"}, True, LearnerSpec("logistic", "quadratic")),
        ({"learner": "ridge"}, False, LearnerSpec("ridge", ridge_lambda=0.1)),
        (
            {"learner": "ridge", "feature_policy": "quadratic", "ridge": {"lambda": 2}},
            True,
            LearnerSpec("ridge", "quadratic", ridge_lambda=2.0),
        ),
        ({"learner": "boosted_stumps"}, False, LearnerSpec("boosted_stumps", rounds=100, shrinkage=0.1)),
        (
            {"learner": "boosted_stumps", "boosted_stumps": {"rounds": 7, "shrinkage": 0.5}},
            True,
            LearnerSpec("boosted_stumps", rounds=7, shrinkage=0.5),
        ),
        ({"learner": "knn"}, False, LearnerSpec("knn", knn_k=10)),
        ({"learner": "knn", "knn": {"k": 3}}, True, LearnerSpec("knn", knn_k=3)),
        ({"learner": "superlearner"}, True, default_binary_sl()),
        ({"learner": "superlearner"}, False, default_continuous_sl()),
        (
            {"learner": "superlearner", "superlearner": {"candidates": ["mean", {"kind": "knn", "knn_k": 4}]}},
            False,
            SuperLearnerConfig((LearnerSpec("mean"), LearnerSpec("knn", knn_k=4)), cv_folds=5, loss="squared_error"),
        ),
        (
            {"learner": "superlearner", "superlearner": {"candidates": ["logistic"], "cv_folds": 3, "loss": "log_loss"}},
            True,
            SuperLearnerConfig((LearnerSpec("logistic"),), cv_folds=3, loss="log_loss"),
        ),
        # boosted stumps and knn expand their features by the policy too
        (
            {"learner": "boosted_stumps", "feature_policy": "quadratic"},
            True,
            LearnerSpec("boosted_stumps", "quadratic", rounds=100, shrinkage=0.1),
        ),
        ({"learner": "knn", "feature_policy": "quadratic", "knn": {"k": 3}}, False, LearnerSpec("knn", "quadratic", knn_k=3)),
    ],
)
def test_learner_config_vocabulary(cfg, binary, expected):
    assert _learner_from_config(cfg, binary) == expected


def test_learner_config_rejects_an_unknown_learner():
    with pytest.raises(DataError, match="unknown learner 'forest' in config"):
        _learner_from_config({"learner": "forest"}, binary=True)


@pytest.mark.parametrize(
    "text, expected",
    [
        ("dis", (EstimandId.dis(),)),
        ("adv", (EstimandId.adv(),)),
        ("direct", (EstimandId.direct(),)),
        ("mediator3", (EstimandId.mediator(3),)),
        ("sequential2", (EstimandId.sequential(2),)),
        ("rho_direct", (RhoSpec.direct(),)),
        ("rho_total", (RhoSpec.total(),)),
        ("rho_mediator4", (RhoSpec.mediator(4),)),
        (" dis , sequential1,rho_total ", (EstimandId.dis(), EstimandId.sequential(1), RhoSpec.total())),
    ],
)
def test_estimand_token_vocabulary(text, expected):
    assert _parse_estimands(text) == expected


@pytest.mark.parametrize("token", ["mediator", "sequential", "rho_mediator"])
def test_estimand_token_without_a_block_number_is_named(tmp_path, capsys, token):
    args = ["simulate", "--dgp", "sim2", "--estimands", f"direct,{token}", "--n", "300", "--reps", "1",
            "--out", str(tmp_path)]
    assert main(args) == 2
    assert f"estimand token {token!r} needs a block number, as in {token}1" in capsys.readouterr().err
    assert not (tmp_path / "simreport.json").exists()


@pytest.mark.parametrize("token", ["bogus", "total", ""])
def test_estimand_tokens_reject_unknown_names(token):
    with pytest.raises(DataError, match=f"unknown estimand token {token!r}"):
        _parse_estimands(f"direct,{token}")
