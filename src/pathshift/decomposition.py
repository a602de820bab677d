"""Disparity components assembled from counterfactual-mean estimates.

The natural (reference-zero) report shifts one mediator block at a time
against the all-reference baseline; those components intentionally carry no
aggregate sum, since they are not additive. The sequential report deactivates
blocks cumulatively and telescopes exactly to the total. Results can be
expressed on the difference scale, on the geometric-mean-ratio scale (exp of
log-scale differences, delta-method SEs), or as probability differences when
the pipeline ran on the positive-part indicator outcome.

Each report is a plan of (label, minuend, subtrahend) contrasts of
counterfactual means; ``decompose`` evaluates several over one nuisance cache.
"""

from __future__ import annotations

import csv
import io
import json
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .data import AnalysisFrame
from .estimators import GammaEstimate, estimate, wald
from .nuisance import EstimandId, NuisanceCache, NuisanceLearners, fit_all

SCALES = ("difference", "geometric_ratio", "probability_difference")
SEQUENTIAL_ADDITIVITY_TOL = 1e-12


class DecompositionError(ValueError):
    """Inconsistent decomposition request."""


@dataclass(frozen=True)
class DisparityComponent:
    label: str
    point: float
    se: float
    ci: tuple[float, float]
    p_value: float
    scale: str = "difference"

    def __post_init__(self):
        if self.scale not in SCALES:
            raise DecompositionError(f"unknown component scale {self.scale!r}")
        if not (self.ci[0] <= self.point <= self.ci[1]):
            raise DecompositionError(f"component {self.label}: CI does not contain the point estimate")
        if not (0.0 <= self.p_value <= 1.0):
            raise DecompositionError(f"component {self.label}: p-value outside [0, 1]")


@dataclass(frozen=True)
class DecompositionReport:
    components: tuple[DisparityComponent, ...]
    estimand_meta: dict
    diagnostics: dict

    def component(self, label: str) -> DisparityComponent:
        for comp in self.components:
            if comp.label == label:
                return comp
        raise KeyError(label)

    def to_dict(self) -> dict:
        return {
            "components": [
                {
                    "label": c.label,
                    "point": c.point,
                    "se": c.se,
                    "ci": list(c.ci),
                    "p_value": c.p_value,
                    "scale": c.scale,
                }
                for c in self.components
            ],
            "estimand_meta": self.estimand_meta,
            "diagnostics": self.diagnostics,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["label", "value", "ci_lo", "ci_hi", "p"])
        for c in self.components:
            writer.writerow([c.label, repr(c.point), repr(c.ci[0]), repr(c.ci[1]), repr(c.p_value)])
        return buf.getvalue()


def contrast(a: GammaEstimate, b: GammaEstimate, label: str = "contrast", alpha: float = 0.05) -> DisparityComponent:
    """Difference a - b with SE from the rowwise EIF difference and a Wald CI."""
    if a.n != b.n:
        raise DecompositionError("contrast requires estimates computed on the same rows")
    point = a.point - b.point
    eif = a.eif - b.eif
    se = float(np.sqrt(np.mean(eif**2) / a.n))
    if not np.isfinite(se):
        raise DecompositionError(f"component {label}: non-finite standard error {se} from the influence-function values")
    ci, p_value = wald(point, se, alpha)
    return DisparityComponent(label=label, point=point, se=se, ci=ci, p_value=p_value)


def to_geometric_scale(c: DisparityComponent) -> DisparityComponent:
    """Map a log-scale difference to a geometric-mean ratio via the delta method.

    The p-value is untouched: testing ratio = 1 is the same test as
    difference = 0.
    """
    if c.scale != "difference":
        raise DecompositionError("geometric scale applies to difference-scale components")
    point = float(np.exp(c.point))
    return DisparityComponent(
        label=c.label,
        point=point,
        se=point * c.se,
        ci=(float(np.exp(c.ci[0])), float(np.exp(c.ci[1]))),
        p_value=c.p_value,
        scale="geometric_ratio",
    )


@dataclass(frozen=True)
class DecompositionConfig:
    learners: NuisanceLearners = field(default_factory=NuisanceLearners)
    delta: float = 0.01
    crossfit_folds: int | None = None
    alpha: float = 0.05
    scale: str = "difference"
    seed: int = 0

    def __post_init__(self):
        if self.scale not in ("difference", "geometric", "probability"):
            raise DecompositionError(f"unknown reporting scale {self.scale!r}")
        if not 0 < self.alpha < 1:
            raise DecompositionError(f"alpha must lie in (0, 1), got {self.alpha}")
        if self.crossfit_folds is not None and self.crossfit_folds < 1:
            raise DecompositionError(
                f"crossfit_folds must be >= 1 (None fits without cross-fitting), got {self.crossfit_folds}"
            )


def _component_scale(config: DecompositionConfig, frame: AnalysisFrame) -> str:
    if config.scale == "geometric":
        if frame.scale_applied != "log_positive":
            raise DecompositionError("geometric scale requires the log_positive outcome transform")
        return "geometric_ratio"
    if config.scale == "probability":
        if frame.scale_applied != "positive_indicator":
            raise DecompositionError("probability scale requires the positive_indicator outcome transform")
        return "probability_difference"
    return "difference"


def _finalize(components: list[DisparityComponent], scale: str) -> tuple[DisparityComponent, ...]:
    if scale == "geometric_ratio":
        return tuple(to_geometric_scale(c) for c in components)
    if scale == "probability_difference":
        return tuple(replace(c, scale="probability_difference") for c in components)
    return tuple(components)


def _meta(frame: AnalysisFrame, config: DecompositionConfig, kind: str) -> dict:
    return {
        "decomposition": kind,
        "reference_level": frame.group_labels[0],
        "comparison_level": frame.group_labels[1],
        "n": int(frame.n),
        "n_reference": int((frame.r == 0).sum()),
        "n_comparison": int((frame.r == 1).sum()),
        "n_blocks": frame.n_blocks,
        "scale": config.scale,
        "outcome_scale": frame.scale_applied,
        "alpha": config.alpha,
    }


def _natural_plan(K: int) -> list[tuple[str, EstimandId, EstimandId]]:
    """The natural report as (label, minuend, subtrahend) rows."""
    dis, adv, direct = EstimandId.dis(), EstimandId.adv(), EstimandId.direct()
    med = {k: EstimandId.mediator(k) for k in range(1, K + 1)}
    return (
        [("total", adv, dis)]
        + [(f"mediator_{k}", m, dis) for k, m in med.items()]
        + [("outcome_attributed", direct, dis)]
        + [(f"residual_mediator_{k}", adv, m) for k, m in med.items()]
        + [("residual_outcome", adv, direct)]
    )


def _sequential_plan(K: int) -> list[tuple[str, EstimandId, EstimandId]]:
    """The sequential report: each step of the chain adv, sequential(1..K), dis."""
    dis, adv = EstimandId.dis(), EstimandId.adv()
    chain = [adv] + [EstimandId.sequential(k) for k in range(1, K + 1)] + [dis]
    return (
        [("total", adv, dis)]
        + [(f"sequential_{k}", chain[k - 1], chain[k]) for k in range(1, K + 1)]
        + [("sequential_outcome", chain[K], dis)]
    )


def _report(frame: AnalysisFrame, config: DecompositionConfig | None, kind: str, plan, cache) -> DecompositionReport:
    """Evaluate one plan: each distinct estimand once, each component one contrast."""
    if cache is None:
        return decompose(frame, config, (kind,))[0]
    config = config or DecompositionConfig()
    out_scale = _component_scale(config, frame)
    memo: dict[EstimandId, GammaEstimate] = {}

    def gamma(estimand: EstimandId) -> GammaEstimate:
        if estimand not in memo:
            memo[estimand] = estimate(frame, fit_all(frame, estimand, cache=cache))
        return memo[estimand]

    components = [contrast(gamma(a), gamma(b), label, config.alpha) for label, a, b in plan(frame.n_blocks)]
    if kind == "sequential":
        total = components[0].point
        parts = sum(c.point for c in components[1:])
        if abs(parts - total) > SEQUENTIAL_ADDITIVITY_TOL * max(1.0, abs(total)):
            raise DecompositionError("sequential components failed to telescope to the total")
    diagnostics = cache.diagnostics()
    zero_se = [c.label for c in components if c.se == 0.0]
    if zero_se:  # e.g. an outcome that is 0 throughout one group
        warnings.warn(f"{kind} components with a standard error of exactly 0: {', '.join(zero_se)}")
        diagnostics["zero_se_components"] = zero_se

    return DecompositionReport(
        components=_finalize(components, out_scale),
        estimand_meta=_meta(frame, config, kind),
        diagnostics=diagnostics,
    )


def decompose_natural(
    frame: AnalysisFrame, config: DecompositionConfig | None = None, cache: NuisanceCache | None = None
) -> DecompositionReport:
    """Reference-zero decomposition: total, per-block shifts, outcome-attributed,
    and the residuals of each against the total."""
    return _report(frame, config, "natural", _natural_plan, cache)


def decompose_sequential(
    frame: AnalysisFrame, config: DecompositionConfig | None = None, cache: NuisanceCache | None = None
) -> DecompositionReport:
    """Cumulative decomposition whose components telescope to the total."""
    return _report(frame, config, "sequential", _sequential_plan, cache)


def decompose(
    frame: AnalysisFrame,
    config: DecompositionConfig | None = None,
    kinds: tuple[str, ...] = ("natural",),
    jobs: int = 1,
) -> tuple[DecompositionReport, ...]:
    """One report per kind, all estimated from one nuisance cache, so every
    nuisance the kinds share is fit once. With ``jobs`` > 1 the independent
    trees of nuisance levels are fit at the same time in worker processes,
    one task per tree and cross-fit fold (see :meth:`NuisanceCache.prefit`);
    the reports are the same bytes."""
    config = config or DecompositionConfig()
    # looked up per call, so that a profiler or tracer wrapping the module's
    # names sees each report
    builders = {"natural": decompose_natural, "sequential": decompose_sequential}
    plans = {"natural": _natural_plan, "sequential": _sequential_plan}
    for kind in kinds:
        if kind not in builders:
            raise DecompositionError(f"unknown decomposition kind {kind!r}")
    _component_scale(config, frame)  # a scale mismatch fails before any fit
    cache = NuisanceCache(frame, config.learners, config.delta, config.crossfit_folds, config.seed)
    cache.prefit([e for kind in kinds for _, a, b in plans[kind](frame.n_blocks) for e in (a, b)], jobs)
    return tuple(builders[kind](frame, config, cache=cache) for kind in kinds)
