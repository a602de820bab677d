"""Command-line surface: decompose a dataset, run simulation grids, or verify
the estimators against the enumeration oracle.

A single JSON config file drives each command; flags override config values.
The seed comes from --seed, else the PATHSHIFT_SEED environment variable,
else 0; it must be an integer >= 0, and every command is deterministic
given it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .data import DataError, build_frame, load_csv, role_spec_from_config
from .decomposition import DecompositionConfig, DecompositionReport, decompose
from .learners import LearnerSpec, SuperLearnerConfig, default_binary_sl, default_continuous_sl
from .nuisance import EstimandId, NuisanceLearners
from .parallel import steady_heap, usable_cores
from .oracle import DiscreteDgp, cascade_mc, enumerate_gamma, one_step_population_value
from .simulation import (
    DgpSpec,
    RhoSpec,
    glm_false_method,
    glm_method,
    run_grid,
    sl_method,
    robustness_conditions,
)
from .toys import fixture_path

ORACLE_TOL = 1e-8
ORACLE_MC_SIGMAS = 4.0

DGPS = {"sim1": "sim1_meps_like", "sim2": "sim2_misspec"}

# each --conditions choice builds the grid's methods from its estimands and K:
# one shared tuple, or (robustness) a tuple per estimand label
CONDITIONS = {
    "correct": lambda estimands, K: (glm_method(),),
    "false": lambda estimands, K: (glm_false_method(),),
    "robustness": lambda estimands, K: {
        e.label: robustness_conditions(e, K) + (glm_method(), glm_false_method()) for e in estimands
    },
    "sl": lambda estimands, K: (sl_method(),),
}


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    text = os.environ.get("PATHSHIFT_SEED", "0")
    try:
        return _at_least(0)(text)
    except (ValueError, argparse.ArgumentTypeError):
        raise DataError(f"PATHSHIFT_SEED must be an integer >= 0, got {text!r}") from None


def _learner_from_config(cfg: dict, binary: bool) -> "LearnerSpec | SuperLearnerConfig":
    name = cfg.get("learner", "glm")
    policy = cfg.get("feature_policy", "main_effects")
    if name in ("glm", "linear", "logistic"):
        return LearnerSpec("logistic" if binary else "linear", policy)
    if name == "ridge":
        return LearnerSpec("ridge", policy, ridge_lambda=float(cfg.get("ridge", {}).get("lambda", 0.1)))
    if name == "boosted_stumps":
        b = cfg.get("boosted_stumps", {})
        return LearnerSpec(
            "boosted_stumps", policy, rounds=int(b.get("rounds", 100)), shrinkage=float(b.get("shrinkage", 0.1))
        )
    if name == "knn":
        return LearnerSpec("knn", policy, knn_k=int(cfg.get("knn", {}).get("k", 10)))
    if name == "superlearner":
        sl = cfg.get("superlearner", {})
        if "candidates" in sl:
            cands = tuple(LearnerSpec(**c) if isinstance(c, dict) else LearnerSpec(c) for c in sl["candidates"])
            return SuperLearnerConfig(
                candidates=cands,
                cv_folds=int(sl.get("cv_folds", 5)),
                loss=sl.get("loss", "squared_error"),
            )
        return default_binary_sl() if binary else default_continuous_sl()
    raise DataError(f"unknown learner {name!r} in config")


def _nuisance_learners(cfg: dict) -> NuisanceLearners:
    return NuisanceLearners(
        binary=_learner_from_config(cfg, binary=True),
        continuous=_learner_from_config(cfg, binary=False),
    )


def _format_table(title: str, report: DecompositionReport, k: int) -> str:
    main_rows = [f"mediator_{i}" for i in range(1, k + 1)] + ["outcome_attributed", "total"]
    if report.estimand_meta.get("decomposition") == "sequential":
        main_rows = [f"sequential_{i}" for i in range(1, k + 1)] + ["sequential_outcome", "total"]
    lines = [title, f"{'Disparity':24s} {'Value':>10s}   {'95% CI':>23s}   {'p-value':>8s}"]
    for label in main_rows:
        c = report.component(label)
        ci = f"{c.ci[0]:.3f} -- {c.ci[1]:.3f}"
        p = "<0.001" if c.p_value < 0.001 else f"{c.p_value:.3f}"
        lines.append(f"{label:24s} {c.point:10.3f}   {ci:>23s}   {p:>8s}")
    return "\n".join(lines)


@steady_heap()
def cmd_decompose(args) -> int:
    """Decompose each configured group pair and write one JSON and one CSV
    report. The dataset is released once the last pair's frame is built, so
    that pair's decompose, and the pool it forks, run without the table. The
    heap runs under :func:`steady_heap`, so that the command's peak memory
    does not depend on what ran before it in the process."""
    seed = _resolve_seed(args)
    cfg = _load_config(args.config)
    scale = args.scale or cfg.get("scale", "difference")
    kind = args.decomposition or cfg.get("decomposition", "natural")
    delta = args.delta if args.delta is not None else float(cfg.get("delta", 0.01))
    folds = args.crossfit_folds if args.crossfit_folds is not None else cfg.get("crossfit", {}).get("folds")
    alpha = args.alpha if args.alpha is not None else float(cfg.get("alpha", 0.05))
    data_path = args.data or cfg.get("data")
    if not data_path:
        print("error: no data file given (use --data or the config's 'data' key)", file=sys.stderr)
        return 2
    for key, hint in [
        ("mediators", "an ordered list of mediator column lists"),
        ("group", "the group column with its reference/comparison levels"),
        ("outcome", "the outcome column name"),
    ]:
        if key not in cfg:
            print(f"error: config is missing '{key}' ({hint})", file=sys.stderr)
            return 2
    if "name" not in cfg.get("group", {}):
        print("error: config group section needs a 'name'", file=sys.stderr)
        return 2

    # the reporting scale dictates the outcome transform
    outcome_cfg = dict(cfg["outcome"])
    if scale == "geometric":
        outcome_cfg["scale"] = "log_positive"
    elif scale == "probability":
        outcome_cfg["scale"] = "positive_indicator"

    group_cfg = cfg["group"]
    pairs = group_cfg.get("pairs")
    if not pairs:
        if group_cfg.get("reference") is None or group_cfg.get("comparison") is None:
            print("error: config group section needs 'reference' and 'comparison' levels (or a 'pairs' list)", file=sys.stderr)
            return 2
        pairs = [{"reference": group_cfg["reference"], "comparison": group_cfg["comparison"]}]
    roles = [
        role_spec_from_config({**cfg, "group": {"name": group_cfg["name"], **pair}, "outcome": outcome_cfg})
        for pair in pairs
    ]

    decomp_config = DecompositionConfig(
        learners=_nuisance_learners(cfg),
        delta=delta,
        crossfit_folds=folds,
        alpha=alpha,
        scale=scale,
        seed=seed,
    )
    kinds = ("natural", "sequential") if kind == "both" else (kind,)

    ds = load_csv(data_path, na_codes=cfg.get("na_codes", ()))
    reports = []
    tables = []
    for i, (pair, pair_roles) in enumerate(zip(pairs, roles)):
        frame = build_frame(ds, pair_roles)
        if i == len(pairs) - 1:
            del ds
        for one_kind, report in zip(kinds, decompose(frame, decomp_config, kinds, jobs=args.threads)):
            reports.append(report)
            title = (
                f"{one_kind} decomposition: comparison={pair['comparison']} vs "
                f"reference={pair['reference']} (n={frame.n})"
            )
            tables.append(_format_table(title, report, frame.n_blocks))

    os.makedirs(args.out, exist_ok=True)
    json_path = os.path.join(args.out, "decomposition.json")
    with open(json_path, "w", encoding="utf-8") as handle:
        payload = {"seed": seed, "scale": scale, "reports": [report.to_dict() for report in reports]}
        json.dump(payload, handle, indent=2, sort_keys=True)
    csv_path = os.path.join(args.out, "decomposition.csv")
    with open(csv_path, "w", encoding="utf-8", newline="") as handle:
        for report in reports:
            handle.write(report.to_csv())
    print("\n\n".join(tables))
    print(f"\nwrote {json_path} and {csv_path}")
    return 0


def _block(token: str, prefix: str) -> int:
    try:
        return int(token.removeprefix(prefix))
    except ValueError:
        raise DataError(f"estimand token {token!r} needs a block number, as in {prefix}1") from None


def _parse_estimands(text: str):
    out = []
    for token in text.split(","):
        token = token.strip()
        if token == "direct":
            out.append(EstimandId.direct())
        elif token == "rho_direct":
            out.append(RhoSpec.direct())
        elif token == "rho_total":
            out.append(RhoSpec.total())
        elif token.startswith("rho_mediator"):
            out.append(RhoSpec.mediator(_block(token, "rho_mediator")))
        elif token.startswith("mediator"):
            out.append(EstimandId.mediator(_block(token, "mediator")))
        elif token.startswith("sequential"):
            out.append(EstimandId.sequential(_block(token, "sequential")))
        elif token in ("dis", "adv"):
            out.append(EstimandId(token))
        else:
            raise DataError(f"unknown estimand token {token!r}")
    return tuple(out)


def cmd_simulate(args) -> int:
    seed = _resolve_seed(args)
    spec = DgpSpec(DGPS[args.dgp], seed=seed)
    estimands = _parse_estimands(args.estimands)
    n_list = tuple(int(v) for v in args.n.split(","))
    report = run_grid(
        spec,
        estimands,
        n_list,
        reps=args.reps,
        methods=CONDITIONS[args.conditions](estimands, spec.n_blocks),
        base_seed=seed,
        truth_draws=args.truth_draws,
        n_jobs=args.threads,
    )
    os.makedirs(args.out, exist_ok=True)
    json_path = os.path.join(args.out, "simreport.json")
    with open(json_path, "w", encoding="utf-8") as handle:
        handle.write(report.to_json())
    csv_path = os.path.join(args.out, "simreport.csv")
    with open(csv_path, "w", encoding="utf-8", newline="") as handle:
        handle.write(report.to_csv())
    curves = report.curve_files(args.out)
    print(report.to_csv())
    print(f"wrote {json_path}, {csv_path} and {len(curves)} curve files")
    return 0


def cmd_oracle_check(args) -> int:
    seed = _resolve_seed(args)
    path = args.fixture or fixture_path("toy_k1")
    try:
        dgp = DiscreteDgp.from_json(path)
    except Exception as err:  # validation failures must give a nonzero exit
        print(f"oracle-check: invalid fixture {path}: {err}", file=sys.stderr)
        return 1

    estimands = [EstimandId.dis(), EstimandId.adv(), EstimandId.direct()]
    for k in range(1, dgp.n_blocks + 1):
        estimands.append(EstimandId.mediator(k))
        estimands.append(EstimandId.sequential(k))

    worst_exact = 0.0
    worst_mc = 0.0
    failed = False
    print(f"oracle-check on {path} (K={dgp.n_blocks}, MC draws={args.mc_draws})")
    mc_means = cascade_mc(dgp, estimands, args.mc_draws, seed)
    for estimand, (mc, mc_se) in zip(estimands, mc_means):
        enum = enumerate_gamma(dgp, estimand)
        onestep = one_step_population_value(dgp, estimand)
        gap = abs(enum - onestep)
        worst_exact = max(worst_exact, gap)
        if mc_se > 0:
            mc_gap_sigmas = abs(mc - enum) / mc_se
        else:  # a constant draw matches only if it hits the enumerated mean
            mc_gap_sigmas = 0.0 if abs(mc - enum) < ORACLE_TOL else float("inf")
        worst_mc = max(worst_mc, mc_gap_sigmas)
        ok = gap < ORACLE_TOL and mc_gap_sigmas <= ORACLE_MC_SIGMAS
        failed |= not ok
        print(
            f"  {estimand.label:22s} enum={enum:+.8f} onestep_gap={gap:.2e} "
            f"mc_gap={mc_gap_sigmas:4.2f} sigma  [{'ok' if ok else 'FAIL'}]"
        )
    print(f"max one-step discrepancy: {worst_exact:.3e}; max MC gap: {worst_mc:.2f} sigma")
    return 1 if failed else 0


def _at_least(low: int):
    """An argparse type: an integer no smaller than ``low``."""

    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    return integer


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pathshift", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_dec = sub.add_parser("decompose", help="decompose a dataset's group disparity")
    p_dec.add_argument("--config", help="JSON config file with roles and learner settings")
    p_dec.add_argument("--data", help="CSV data file (overrides config)")
    p_dec.add_argument("--out", default=".", help="output directory")
    p_dec.add_argument("--seed", type=_at_least(0), default=None)
    p_dec.add_argument("--scale", choices=["difference", "geometric", "probability"], default=None)
    p_dec.add_argument("--decomposition", choices=["natural", "sequential", "both"], default=None)
    p_dec.add_argument("--delta", type=float, default=None)
    p_dec.add_argument("--crossfit-folds", type=int, default=None)
    p_dec.add_argument("--alpha", type=float, default=None)
    p_dec.add_argument("--threads", type=_at_least(1), default=usable_cores(),
                       help="worker processes for the nuisance fits (default: usable cores)")
    p_dec.set_defaults(func=cmd_decompose)

    p_sim = sub.add_parser("simulate", help="run a replication grid on a built-in DGP")
    p_sim.add_argument("--dgp", choices=list(DGPS), required=True)
    p_sim.add_argument("--estimands", default="direct,mediator1,mediator2,mediator3,mediator4")
    p_sim.add_argument("--n", default="1000", help="comma-separated sample sizes")
    p_sim.add_argument("--reps", type=int, default=100)
    p_sim.add_argument("--conditions", choices=list(CONDITIONS), default="correct")
    p_sim.add_argument("--truth-draws", type=int, default=2_000_000,
                       help="Monte-Carlo draws of each sim1 truth (sim2 truths are exact)")
    p_sim.add_argument("--out", default=".")
    p_sim.add_argument("--seed", type=_at_least(0), default=None)
    p_sim.add_argument("--threads", type=_at_least(1), default=usable_cores())
    p_sim.set_defaults(func=cmd_simulate)

    p_or = sub.add_parser("oracle-check", help="verify estimators against the enumeration oracle")
    p_or.add_argument("--fixture", help="discrete DGP JSON (defaults to the shipped toy)")
    p_or.add_argument("--mc-draws", type=_at_least(1), default=1_000_000)
    p_or.add_argument("--seed", type=_at_least(0), default=None)
    p_or.set_defaults(func=cmd_oracle_check)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (DataError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
