"""Nuisance fitting for the one-step estimators.

Every estimand is the g-formula functional of an outcome arm r0 and a
mediator arm vector (r_1..r_K), fit as a chain of sequential regressions
(:meth:`EstimandId.chain`). Level 0 is the outcome regression
E[Y | M_1..b0, X, R=r0], where b0 is the last block whose arm differs from
r0; each further level regresses its parent onto a shorter block prefix
within the arm of the blocks it integrates out, and the last one is a
function of X alone. The weights also need the propensity score
pi(X) = P(R=1|X) and the sequential binary regressions
g_k = P(R=1|M_1..k, X) at each run boundary. Fits are optionally cross-fit
over V folds stratified by R, and all probability-type predictions are
truncated into [delta, 1 - delta].
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .data import AnalysisFrame
from .learners import LearnerSpec, SuperLearnerConfig, fit_two_part, stratified_folds, train

DEFAULT_DELTA = 0.01

ESTIMAND_KINDS = ("dis", "adv", "direct", "mediator", "sequential", "shift")


class NuisanceError(ValueError):
    """A nuisance regression could not be fit as requested."""


@dataclass(frozen=True)
class EstimandId:
    """Identifies a counterfactual-mean estimand and its implied arm vector.

    ``kind`` is one of dis/adv/direct/mediator/sequential, with ``k`` indexing
    the mediator block for the last two; ``shift`` names any arm vector
    directly through ``arms`` = (r0, r_1, ..., r_K).
    """

    kind: str
    k: int | None = None
    arms: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.kind not in ESTIMAND_KINDS:
            raise NuisanceError(f"unknown estimand kind {self.kind!r}")
        if self.kind in ("mediator", "sequential"):
            if self.k is None or self.k < 1:
                raise NuisanceError(f"estimand {self.kind} needs a block index k >= 1")
        elif self.k is not None:
            raise NuisanceError(f"estimand {self.kind} takes no block index")
        if self.kind == "shift":
            if self.arms is None or len(self.arms) < 2 or set(self.arms) - {0, 1}:
                raise NuisanceError("a shift estimand needs arms (r0, r_1, ..., r_K) in {0, 1}")
        elif self.arms is not None:
            raise NuisanceError(f"estimand {self.kind} takes no arm vector")

    @staticmethod
    def dis() -> "EstimandId":
        return EstimandId("dis")

    @staticmethod
    def adv() -> "EstimandId":
        return EstimandId("adv")

    @staticmethod
    def direct() -> "EstimandId":
        return EstimandId("direct")

    @staticmethod
    def mediator(k: int) -> "EstimandId":
        return EstimandId("mediator", k)

    @staticmethod
    def sequential(k: int) -> "EstimandId":
        return EstimandId("sequential", k)

    @staticmethod
    def shift(r0: int, arms: tuple[int, ...]) -> "EstimandId":
        """The outcome law at arm r0 with block k's law at arm ``arms[k-1]``."""
        return EstimandId("shift", arms=(int(r0),) + tuple(int(a) for a in arms))

    def validate(self, n_blocks: int) -> None:
        if self.k is not None and self.k > n_blocks:
            raise NuisanceError(f"estimand block index {self.k} exceeds K={n_blocks}")
        if self.arms is not None and len(self.arms) != n_blocks + 1:
            raise NuisanceError(f"shift estimand has {len(self.arms) - 1} block arms, expected K={n_blocks}")

    @property
    def r0(self) -> int:
        """Arm of the outcome law."""
        if self.kind == "shift":
            return self.arms[0]
        return {"dis": 0, "adv": 1, "direct": 1, "mediator": 0, "sequential": 1}[self.kind]

    def mediator_arms(self, n_blocks: int) -> tuple[int, ...]:
        """Arm of each mediator block's conditional law."""
        if self.kind == "shift":
            return self.arms[1:]
        if self.kind == "dis":
            return (0,) * n_blocks
        if self.kind == "adv":
            return (1,) * n_blocks
        if self.kind == "direct":
            return (0,) * n_blocks
        if self.kind == "mediator":
            return tuple(1 if j == self.k else 0 for j in range(1, n_blocks + 1))
        # sequential: first k blocks at 0, the rest at 1
        return tuple(0 if j <= self.k else 1 for j in range(1, n_blocks + 1))

    def chain(self, n_blocks: int) -> tuple[tuple[int, int], ...]:
        """The regression levels as (prefix, arm) pairs, outcome level first.

        Level 0 is (b0, r0): the outcome regression on M_1..b0, where b0 is
        the last block whose arm differs from r0 (blocks above it already
        follow their law at r0). Blocks 1..b0 then split into maximal runs of
        equal arm, from the top down; the run a..b at arm t adds the level
        (a - 1, t), which regresses its parent onto M_1..a-1 and X within
        R = t. The last level has prefix 0. Consecutive levels alternate arms.
        """
        self.validate(n_blocks)
        arms = self.mediator_arms(n_blocks)
        top = max((k for k in range(1, n_blocks + 1) if arms[k - 1] != self.r0), default=0)
        levels = [(top, self.r0)]
        k = top
        while k > 0:
            arm = arms[k - 1]
            while k > 0 and arms[k - 1] == arm:
                k -= 1
            levels.append((k, arm))
        return tuple(levels)

    @property
    def label(self) -> str:
        if self.kind == "shift":
            return f"gamma_shift_{self.arms[0]}_{''.join(map(str, self.arms[1:]))}"
        if self.kind in ("mediator", "sequential"):
            return f"gamma_{self.kind}_{self.k}"
        return f"gamma_{self.kind}"


@dataclass(frozen=True)
class NuisanceLearners:
    """Learner choices for binary (pi, g, zero-part) and continuous regressions."""

    binary: LearnerSpec | SuperLearnerConfig = field(default_factory=lambda: LearnerSpec("logistic"))
    continuous: LearnerSpec | SuperLearnerConfig = field(default_factory=lambda: LearnerSpec("linear"))


@dataclass
class NuisanceSet:
    """Per-observation nuisance predictions needed by one estimand.

    ``Q`` holds one vector per level of ``estimand.chain(n_blocks)``, the
    outcome regression first; ``g`` holds g_k for each run boundary k >= 1.
    """

    estimand: EstimandId
    n_blocks: int
    pi: np.ndarray
    g: dict[int, np.ndarray] = field(default_factory=dict)
    Q: list[np.ndarray] = field(default_factory=list)
    delta: float = DEFAULT_DELTA
    fold_assignment: np.ndarray | None = None
    diagnostics: dict = field(default_factory=dict)

    @property
    def chain(self) -> tuple[tuple[int, int], ...]:
        return self.estimand.chain(self.n_blocks)

    def validate(self) -> None:
        n = self.pi.shape[0]
        vectors = [("pi", self.pi)]
        vectors += [(f"g[{k}]", v) for k, v in self.g.items()]
        vectors += [(f"Q[{j}]", v) for j, v in enumerate(self.Q)]
        for name, vec in vectors:
            if vec.shape != (n,):
                raise NuisanceError(f"nuisance {name} has wrong length")
            if not np.isfinite(vec).all():
                raise NuisanceError(f"nuisance {name} contains non-finite values")
        lo, hi = self.delta, 1.0 - self.delta
        for name, vec in [("pi", self.pi)] + [(f"g[{k}]", v) for k, v in self.g.items()]:
            if vec.min() < lo - 1e-12 or vec.max() > hi + 1e-12:
                raise NuisanceError(f"nuisance {name} escapes truncation bounds [{lo}, {hi}]")


def _seed_from(seed: int, key: tuple) -> int:
    digest = hashlib.blake2s(f"{seed}|{key}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little") % (2**63)


@dataclass
class _Level:
    """One fitted regression level of a chain, with its fold models.

    ``depth`` is the level's index j in its chain (0 for the outcome level),
    so its route name is Q{depth}.
    """

    key: tuple
    label: str
    depth: int
    prefix: int
    models: list = field(default_factory=list)
    oof: np.ndarray | None = None

    @property
    def name(self) -> str:
        return f"Q{self.depth}"


class NuisanceCache:
    """Memoized nuisance fits shared across the estimands of one analysis run.

    ``route`` optionally maps nuisance names to "false", replacing the
    covariate matrix with ``x_alt`` for that regression; used by the
    misspecification grid. Names are keyed by position in the chain: "pi",
    "g{k}" for g_k = P(R=1|M_1..k, X), and "Q{j}" for chain level j (Q0 is
    the outcome regression); a bare "g" or "Q" names all of them.
    """

    def __init__(
        self,
        frame: AnalysisFrame,
        learners: NuisanceLearners | None = None,
        delta: float = DEFAULT_DELTA,
        folds: int | None = None,
        seed: int = 0,
        x_alt: np.ndarray | None = None,
        route: Mapping[str, str] | None = None,
    ):
        if not (0 <= delta < 0.5):
            raise NuisanceError("delta must lie in [0, 0.5)")
        self.frame = frame
        self.learners = learners or NuisanceLearners()
        self.delta = float(delta)
        self.seed = int(seed)
        self.x_alt = x_alt
        self.route = dict(route or {})
        if self.route and x_alt is None:
            raise NuisanceError("feature routing requires an alternative covariate matrix")
        n = frame.n
        self.n_folds = int(folds) if folds else 1
        if self.n_folds < 1:
            raise NuisanceError("folds must be >= 1")
        if self.n_folds > 1:
            self.fold_labels = stratified_folds(n, self.n_folds, seed, strata=frame.r)
        else:
            self.fold_labels = np.zeros(n, dtype=np.int64)
        self._store: dict = {}
        self.truncation_counts: dict[str, int] = {}

    @property
    def n_blocks(self) -> int:
        return self.frame.n_blocks

    @property
    def fold_assignment(self) -> np.ndarray | None:
        return self.fold_labels if self.n_folds > 1 else None

    # -- plumbing ----------------------------------------------------------

    def _splits(self):
        n = self.frame.n
        if self.n_folds == 1:
            every = np.ones(n, dtype=bool)
            return [(every, every)]
        return [(self.fold_labels != v, self.fold_labels == v) for v in range(self.n_folds)]

    def _variant(self, name: str) -> str:
        base = name.rstrip("0123456789")
        return self.route.get(name) or self.route.get(base) or "correct"

    def _covariates(self, name: str) -> np.ndarray:
        if self._variant(name) == "false":
            return self.x_alt
        return self.frame.x

    def _features(self, name: str, prefix: int) -> np.ndarray:
        x = self._covariates(name)
        return np.hstack([self.frame.m_upto(prefix), x]) if prefix else x

    def _seed(self, key: tuple) -> int:
        return _seed_from(self.seed, key)

    def _clip(self, name: str, vec: np.ndarray) -> np.ndarray:
        lo, hi = self.delta, 1.0 - self.delta
        hit = int(((vec < lo) | (vec > hi)).sum())
        self.truncation_counts[name] = self.truncation_counts.get(name, 0) + hit
        return np.clip(vec, lo, hi)

    # -- fits ---------------------------------------------------------------

    def _binary(self, name: str, prefix: int, key: tuple) -> np.ndarray:
        """Fold-wise P(R = 1 | M_1..prefix, X), clipped, cached under ``key``."""
        if key not in self._store:
            feats = self._features(name, prefix)
            resp = self.frame.r.astype(float)
            oof = np.empty(self.frame.n)
            for train_mask, test_mask in self._splits():
                if resp[train_mask].min() == resp[train_mask].max():
                    raise NuisanceError("a training split contains a single group level")
                model = train(
                    self.learners.binary, feats[train_mask], resp[train_mask],
                    "probability", self._seed(key), strata=resp[train_mask],
                )
                oof[test_mask] = model.predict(feats[test_mask])
            self._store[key] = self._clip(name, oof)
        return self._store[key]

    def pi(self) -> np.ndarray:
        return self._binary("pi", 0, ("pi", self._variant("pi")))

    def g(self, k: int) -> np.ndarray:
        return self._binary(f"g{k}", k, ("g", k, self._variant(f"g{k}")))

    def _outcome_model(self, feats: np.ndarray, resp: np.ndarray, seed: int):
        scale = self.frame.scale_applied
        if scale == "log_positive":
            return fit_two_part(feats, resp, self.learners.binary, self.learners.continuous, seed)
        if scale == "positive_indicator":
            return train(self.learners.binary, feats, resp, "probability", seed, strata=resp)
        return train(self.learners.continuous, feats, resp, "continuous", seed)

    def _fit(self, level: _Level, stratum: int, parent: _Level | None) -> _Level:
        """Fold-wise regression within R = stratum onto M_1..prefix and X.

        The response is Y for the outcome level. Otherwise it is the parent
        level's prediction on the fold's training rows, made only now that a
        child reads it; with one fold those rows are all rows, so the parent's
        out-of-fold vector is reused, and fold models need not be kept.
        """
        level.oof = np.empty(self.frame.n)
        feats = self._features(level.name, level.prefix)
        if parent is not None and self.n_folds > 1:
            parent_feats = self._features(parent.name, parent.prefix)
        for idx, (train_mask, test_mask) in enumerate(self._splits()):
            rows = train_mask & (self.frame.r == stratum)
            if not rows.any():
                raise NuisanceError(f"empty stratum R={stratum} in a training split")
            seed = self._seed(level.key + (idx,))
            if parent is None:
                model = self._outcome_model(feats[rows], self.frame.y[rows], seed)
            else:
                if self.n_folds == 1:
                    resp = parent.oof[rows]
                else:
                    resp = parent.models[idx].predict(parent_feats[rows])
                model = train(self.learners.continuous, feats[rows], resp, "continuous", seed)
            level.oof[test_mask] = model.predict(feats[test_mask])
            if self.n_folds > 1:
                level.models.append(model)
        return level

    def _mu_entry(self, k: int, r0: int) -> _Level:
        """Outcome level E[Y | M_1..k, X, R=r0]."""
        key = ("mu", k, r0, self._variant("Q0"))
        if key not in self._store:
            self._store[key] = self._fit(_Level(key, "mu", 0, k), r0, None)
        return self._store[key]

    def _regress(self, label: str, parent: _Level, prefix: int, stratum: int) -> _Level:
        """Regression of a parent level onto M_1..prefix and X within R = stratum."""
        depth = parent.depth + 1
        key = (label, prefix, stratum, self._variant(f"Q{depth}"), parent.key)
        if key not in self._store:
            self._store[key] = self._fit(_Level(key, label, depth, prefix), stratum, parent)
        return self._store[key]

    # The three kinds of pseudo-outcome level keep their own method names, so
    # that a profiler or tracer can time each kind apart.

    def _B_entry(self, parent: _Level, prefix: int, stratum: int) -> _Level:
        return self._regress("B", parent, prefix, stratum)

    def C_mu(self, parent: _Level, stratum: int) -> _Level:
        return self._regress("C_mu", parent, 0, stratum)

    def C_B(self, parent: _Level, stratum: int) -> _Level:
        return self._regress("C_B", parent, 0, stratum)

    # -- the provider interface that fit_all walks -----------------------------

    def level(self, parent: _Level | None, prefix: int, stratum: int) -> _Level:
        """The chain level onto M_1..prefix within R = stratum: the outcome
        regression when there is no parent, else a regression of the parent."""
        if parent is None:
            return self._mu_entry(prefix, stratum)
        if prefix:
            return self._B_entry(parent, prefix, stratum)
        if parent.label == "mu":
            return self.C_mu(parent, stratum)
        return self.C_B(parent, stratum)

    def rows(self, level: _Level) -> np.ndarray:
        return level.oof

    def diagnostics(self) -> dict:
        out = {"truncation_counts": dict(self.truncation_counts), "delta": self.delta}
        pi_key = ("pi", self._variant("pi"))
        if pi_key in self._store:
            pi = self._store[pi_key]
            out["pi_range"] = [float(pi.min()), float(pi.max())]
        g_ranges = {}
        for key, value in self._store.items():
            if key[0] == "g":
                g_ranges[f"g{key[1]}"] = [float(value.min()), float(value.max())]
        if g_ranges:
            out["g_ranges"] = g_ranges
        return out


class ExactProvider:
    """Base of the exact-nuisance providers that the oracles hand to
    :func:`fit_all`: nothing is fit, truncated or cross-fit."""

    delta = 0.0
    fold_assignment = None

    def diagnostics(self) -> dict:
        return {}


def fit_all(
    frame: AnalysisFrame | None,
    estimand: EstimandId,
    learners: NuisanceLearners | None = None,
    delta: float = DEFAULT_DELTA,
    folds: int | None = None,
    seed: int = 0,
    cache=None,
) -> NuisanceSet:
    """Walk the estimand's chain and collect every nuisance it needs.

    ``cache`` is the provider of the nuisances: a :class:`NuisanceCache` (built
    from ``frame`` and the fit settings when omitted), or an exact-nuisance
    oracle with the same ``pi``/``g``/``level``/``rows`` methods, in which case
    ``frame`` may be None. g_0 is never asked for: the propensity score plays
    its role.
    """
    if cache is None:
        cache = NuisanceCache(frame, learners, delta, folds, seed)
    K = cache.n_blocks
    chain = estimand.chain(K)
    pi = cache.pi()
    g = {prefix: cache.g(prefix) for prefix, _ in chain if prefix}
    levels = []
    for prefix, arm in chain:
        levels.append(cache.level(levels[-1] if levels else None, prefix, arm))
    q = NuisanceSet(
        estimand=estimand,
        n_blocks=K,
        pi=pi,
        g=g,
        Q=[cache.rows(level) for level in levels],
        delta=cache.delta,
        fold_assignment=cache.fold_assignment,
        diagnostics=cache.diagnostics(),
    )
    q.validate()
    return q
