"""One-step corrected estimators of the counterfactual means, with EIF-based SEs.

Every estimand is the g-formula functional of an outcome arm r0 and a mediator
arm vector (r_1..r_K). Its nuisances form the chain of
:meth:`EstimandId.chain`: levels j = 0..J with prefixes p_0 = b0 > p_1 > ...
> p_J = 0 and arms t_0 = r0, t_1, ..., t_J. Level 0 is the outcome regression
Q_0 = E[Y | M_1..b0, X, R=r0]; level j >= 1 integrates the run of blocks
p_j+1..p_{j-1} (all at arm t_j) out of its parent,
Q_j = E[Q_{j-1} | M_1..p_j, X, R=t_j], so Q_J depends on X only.

The one-step summand is

  h = Q_J + sum_{j=0..J} W_j (Q_{j-1} - Q_j),          Q_{-1} := Y,

  W_j = 1(R=t_j) / P(R=t_J|X) * prod_{l>j, t_l != t_j} [o(p_{l-1}) / o(p_l)]^(+1 if t_l=1 else -1)

with o(k) = g_k / (1 - g_k) the odds of g_k = P(R=1|M_1..k, X) and o(0)
dropped. W_j is the density ratio of the target law of (X, M_1..p_j) to its
law within R = t_j: by Bayes' rule each lower run at the other arm
contributes the odds ratio of g at its ends, and the run ending at block 0
contributes odds(pi)^(+-1), which turns 1/P(R=t_j|X) into 1/P(R=t_J|X). The
weight is (1-R)/(1-pi) or R/pi for dis/adv, and reduces by hand to the direct,
sequential and mediator summands (k = 1 and k >= 2) of the paper.

The mean of h is the point estimate; the centered summand is the estimated
influence function, whose empirical second moment yields the analytic
variance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np
from scipy.special import ndtr, ndtri

from .data import AnalysisFrame
from .nuisance import EstimandId, NuisanceSet


class EstimationError(ValueError):
    """The nuisance set is incomplete or numerically unusable."""


@dataclass(frozen=True)
class GammaEstimate:
    """Point estimate with its estimated influence-function values."""

    estimand: EstimandId
    point: float
    eif: np.ndarray  # centered: mean is 0 by construction
    n: int

    @property
    def se(self) -> float:
        se = float(np.sqrt(np.mean(self.eif**2) / self.n))
        if not np.isfinite(se):
            raise EstimationError(
                f"estimate {self.estimand.label}: non-finite standard error {se} from the influence-function values"
            )
        return se

    def ci(self, alpha: float = 0.05) -> tuple[float, float]:
        return wald(self.point, self.se, alpha)[0]


def wald(point: float, se: float, alpha: float) -> tuple[tuple[float, float], float]:
    """Two-sided Wald CI at level 1 - alpha and the normal p-value of point / se."""
    z = float(ndtri(1 - alpha / 2))
    ci = (point - z * se, point + z * se)
    if se > 0:
        return ci, float(2.0 * ndtr(-abs(point) / se))
    return ci, 1.0 if point == 0 else 0.0


def _odds(g: np.ndarray, power: int) -> np.ndarray:
    return g / (1.0 - g) if power > 0 else (1.0 - g) / g


def gamma_terms(y: np.ndarray, r: np.ndarray, q: NuisanceSet) -> Iterator[np.ndarray]:
    """Per-observation pieces of the one-step summand, one at a time.

    Yields W_j (Q_{j-1} - Q_j) for j = 0..J, then the plug-in Q_J; the
    summand is their elementwise sum.
    """
    chain = q.chain
    arms = [arm for _, arm in chain]
    if len(q.Q) != len(chain) or any(p and p not in q.g for p, _ in chain):
        raise EstimationError(f"nuisance set is missing Q levels or g_k of the chain {chain}")
    p_bottom = q.pi if arms[-1] == 1 else 1.0 - q.pi
    prev = np.asarray(y, dtype=float)
    for j, arm in enumerate(arms):
        with np.errstate(divide="ignore", invalid="ignore"):
            w = (r == arm) / p_bottom
            for l in range(j + 1, len(chain)):
                if arms[l] != arm:
                    s = 1 if arms[l] == 1 else -1
                    for p, power in ((chain[l - 1][0], s), (chain[l][0], -s)):
                        if p:  # odds(pi) is already folded into 1/P(R=t_J|X)
                            w *= _odds(q.g[p], power)
        if not np.isfinite(w).all():
            raise EstimationError("non-finite inverse-probability weight; check the truncation level delta")
        term = prev - q.Q[j]
        term *= w
        yield term
        prev = q.Q[j]
    yield q.Q[-1]


def gamma_summands(y: np.ndarray, r: np.ndarray, q: NuisanceSet) -> np.ndarray:
    """Uncentered one-step summand h(O_i); its mean is the point estimate."""
    terms = gamma_terms(y, r, q)
    total = next(terms)
    for term in terms:
        total += term
    return total


def estimate(frame: AnalysisFrame, q: NuisanceSet) -> GammaEstimate:
    """Estimate the estimand recorded in the nuisance set."""
    if q.pi.shape[0] != frame.n:
        raise EstimationError("nuisance predictions do not match the frame")
    h = gamma_summands(frame.y, frame.r, q)
    point = float(np.mean(h))
    h -= point
    return GammaEstimate(estimand=q.estimand, point=point, eif=h, n=frame.n)
