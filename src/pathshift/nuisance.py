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
import multiprocessing
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .data import AnalysisFrame
from .learners import CVFoldsError, LearnerError, LearnerSpec, SuperLearnerConfig, fit_two_part, stratified_folds, train
from .parallel import _one_blas_thread, usable_cores

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
    """One nuisance regression of the cache, with its fold models.

    A binary level (``stratum`` None) is pi or g_k = P(R=1 | M_1..prefix, X),
    fit on every training row and clipped once its folds are merged. A chain
    level regresses Y (no ``parent``) or its parent's prediction onto
    M_1..prefix and X within R = stratum; ``depth`` is its index j in its
    chain (0 for the outcome level), so its route name is Q{depth}.
    """

    key: tuple
    label: str
    prefix: int
    stratum: int | None = None
    parent: _Level | None = None
    depth: int = 0
    models: dict = field(default_factory=dict)
    oof: np.ndarray | None = None

    @property
    def name(self) -> str:
        if self.label == "pi":
            return "pi"
        if self.label == "g":
            return f"g{self.prefix}"
        return f"Q{self.depth}"


class NuisanceCache:
    """Memoized nuisance fits shared across the estimands of one analysis run.

    ``route`` optionally maps nuisance names to "false", replacing the
    covariate matrix with ``x_alt`` for that regression; used by the
    misspecification grid. Names are keyed by position in the chain: "pi",
    "g{k}" for g_k = P(R=1|M_1..k, X), and "Q{j}" for chain level j (Q0 is
    the outcome regression); a bare "g" or "Q" names all of them.

    Every fit goes through :meth:`_fit_fold`, one fold of one level. Levels
    are fit lazily, all folds at once, as :func:`fit_all` asks for them;
    :meth:`prefit` instead fits independent trees of levels in worker
    processes, one task per tree and fold.
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
        # contiguous like the frame's arrays: one fold fits and predicts on the design itself
        self.x_alt = None if x_alt is None else np.ascontiguousarray(x_alt)
        self.route = dict(route or {})
        if self.route and x_alt is None:
            raise NuisanceError("feature routing requires an alternative covariate matrix")
        n = frame.n
        self.n_folds = 1 if folds is None else int(folds)
        if self.n_folds < 1:
            raise NuisanceError("folds must be >= 1")
        if self.n_folds > 1:
            for arm, label in enumerate(frame.group_labels):
                rows = int(np.count_nonzero(frame.r == arm))
                if rows < self.n_folds:
                    raise NuisanceError(
                        f"{self.n_folds} cross-fit folds (--crossfit-folds, crossfit.folds) exceed the {rows} "
                        f"complete rows of group level {label:g} (R={arm})"
                    )
            self.fold_labels = stratified_folds(n, self.n_folds, seed, strata=frame.r)
        else:
            self.fold_labels = np.zeros(n, dtype=np.int64)
        self._store: dict = {}
        self.truncation_counts: dict[str, int] = {}

    @property
    def n_blocks(self) -> int:
        return self.frame.n_blocks

    # -- plumbing ----------------------------------------------------------

    def _variant(self, name: str) -> str:
        base = name.rstrip("0123456789")
        return self.route.get(name) or self.route.get(base) or "correct"

    def _covariates(self, name: str) -> np.ndarray:
        if self._variant(name) == "false":
            return self.x_alt
        return self.frame.x

    def _features(self, name: str, prefix: int) -> np.ndarray:
        x = self._covariates(name)
        return np.hstack([*self.frame.m_blocks[:prefix], x]) if prefix else x

    def _seed(self, key: tuple) -> int:
        return _seed_from(self.seed, key)

    def _clip(self, name: str, vec: np.ndarray) -> np.ndarray:
        lo, hi = self.delta, 1.0 - self.delta
        hit = int(((vec < lo) | (vec > hi)).sum())
        self.truncation_counts[name] = self.truncation_counts.get(name, 0) + hit
        return np.clip(vec, lo, hi)

    # -- the levels an estimand needs ----------------------------------------

    def _pi_level(self) -> _Level:
        return _Level(("pi", self._variant("pi")), "pi", 0)

    def _g_level(self, k: int) -> _Level:
        return _Level(("g", k, self._variant(f"g{k}")), "g", k)

    def _chain_level(self, parent: _Level | None, prefix: int, stratum: int) -> _Level:
        """The chain level onto M_1..prefix within R = stratum: the outcome
        regression when there is no parent, else a regression of the parent."""
        if parent is None:
            return _Level(("mu", prefix, stratum, self._variant("Q0")), "mu", prefix, stratum)
        depth = parent.depth + 1
        label = "B" if prefix else ("C_mu" if parent.label == "mu" else "C_B")
        key = (label, prefix, stratum, self._variant(f"Q{depth}"), parent.key)
        return _Level(key, label, prefix, stratum, parent, depth)

    def _plan(self, estimands) -> list[_Level]:
        """The levels the estimands need that the cache lacks, in the order
        that :func:`fit_all` asks for them; a level shared by two chains is
        listed once, and its children point at that one."""
        known = dict(self._store)
        todo = []

        def need(level: _Level) -> _Level:
            if level.key not in known:
                known[level.key] = level
                todo.append(level)
            return known[level.key]

        for estimand in estimands:
            chain = estimand.chain(self.n_blocks)
            need(self._pi_level())
            for prefix, _ in chain:
                if prefix:
                    need(self._g_level(prefix))
            parent = None
            for prefix, arm in chain:
                parent = need(self._chain_level(parent, prefix, arm))
        return todo

    # -- fits ---------------------------------------------------------------

    def _outcome_model(self, feats: np.ndarray, resp: np.ndarray, seed: int):
        scale = self.frame.scale_applied
        if scale == "log_positive":
            return fit_two_part(feats, resp, self.learners.binary, self.learners.continuous, seed)
        if scale == "positive_indicator":
            return train(self.learners.binary, feats, resp, "probability", seed)
        return train(self.learners.continuous, feats, resp, "continuous", seed)

    def _fit_fold(self, level: _Level, v: int) -> np.ndarray:
        """Fit the level on fold v's training rows; returns its predictions on
        fold v's test rows. With one fold, both are every row, and the design
        is used as it is rather than copied through an all-True mask.

        A chain level's response is Y at the outcome level. Otherwise it is
        the parent's prediction on the training rows: with one fold the
        parent's out-of-fold vector, else the parent's fold-v model's, made
        only now that a child reads it. So with more than one fold the fold
        models are kept.

        A learner's error is raised again as a :class:`NuisanceError` that
        names the level, its group level and the fold.
        """
        try:
            test = self.fold_labels == v
            train_rows = ~test if self.n_folds > 1 else test
            feats = self._features(level.name, level.prefix)
            whole = self.n_folds == 1
            if level.stratum is None:
                resp = self.frame.r[train_rows].astype(float)
                if resp.min() == resp.max():
                    raise NuisanceError("a training split contains a single group level")
                model = train(
                    self.learners.binary, feats if whole else feats[train_rows], resp, "probability",
                    self._seed(level.key),
                )
            else:
                rows = train_rows & (self.frame.r == level.stratum)
                if not rows.any():
                    raise NuisanceError(f"empty stratum R={level.stratum} in a training split")
                seed = self._seed(level.key + (v,))
                parent = level.parent
                if parent is None:
                    model = self._outcome_model(feats[rows], self.frame.y[rows], seed)
                else:
                    if self.n_folds == 1:
                        resp = parent.oof[rows]
                    else:
                        resp = parent.models[v].predict(self._features(parent.name, parent.prefix)[rows])
                    model = train(self.learners.continuous, feats[rows], resp, "continuous", seed)
            if self.n_folds > 1:
                level.models[v] = model
            return model.predict(feats if whole else feats[test])
        except LearnerError as err:
            where = [f"nuisance {level.name}"]
            if level.stratum is not None:
                where.append(f"group level {self.frame.group_labels[level.stratum]:g} (R={level.stratum})")
            if self.n_folds > 1:
                where.append(f"cross-fit fold {v + 1} of {self.n_folds}")
            hint = "; the super learner's CV folds are set by superlearner.cv_folds"
            raise NuisanceError(f"{', '.join(where)}: {err}{hint if isinstance(err, CVFoldsError) else ''}") from err

    def _merge(self, level: _Level, preds: list[np.ndarray]) -> _Level:
        """Store the level's out-of-fold vector, built from each fold's test-row
        predictions; a binary level's is clipped into [delta, 1 - delta]. With
        one fold, the fold's prediction vector is kept as it is, not copied."""
        if self.n_folds == 1:
            (oof,) = preds
        else:
            oof = np.empty(self.frame.n)
            for v, pred in enumerate(preds):
                oof[self.fold_labels == v] = pred
        level.oof = self._clip(level.name, oof) if level.stratum is None else oof
        self._store[level.key] = level
        return level

    def _fitted(self, level: _Level) -> _Level:
        if level.key not in self._store:
            self._merge(level, [self._fit_fold(level, v) for v in range(self.n_folds)])
        return self._store[level.key]

    def prefit(self, estimands, jobs: int) -> None:
        """Fit every nuisance the estimands need in worker processes, so that
        :func:`fit_all` then only reads them.

        The planned levels split into trees: ``pi``, one ``g_k``, or one
        outcome level with the levels that descend from it. A tree holds all
        that its levels read, so each (tree, fold) is a task; the largest
        trees go out first. The pool has at most ``jobs`` workers and the
        usable cores, and is not started for fewer than two tasks. Workers
        are forked with the cache and send back only test-row predictions;
        the fitted models stay there, so with cross-fitting no chain fit
        later may extend a level fit here. Warnings, then the error, are
        raised again in the order a serial walk meets them.
        """
        levels = self._plan(estimands)
        trees = _trees(levels)
        tasks = _tasks(trees, self.n_folds)
        workers = min(len(tasks), jobs, usable_cores())
        if workers < 2:
            return
        preds, caught, failed = {}, [], []
        # forked workers inherit the cache; a spawned one imports numpy and the
        # package afresh, which costs more than the fits it takes over
        fork = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(
            workers, mp_context=fork, initializer=_start_tree_worker, initargs=(self, trees)
        ) as pool:
            for fitted, warned, error in pool.map(_walk_tree, tasks):
                preds.update(fitted)
                caught += warned
                failed += [error] if error else []
        first = min(failed, key=lambda fail: fail[0]) if failed else None
        for at, category, message in sorted(caught, key=lambda warned: warned[0]):
            if first is None or at <= first[0]:
                warnings.warn(message, category)
        if first is not None:
            raise first[1]
        for position, level in enumerate(levels):
            self._merge(level, [preds.pop((position, v)) for v in range(self.n_folds)])

    # -- the provider interface that fit_all walks -----------------------------

    def pi(self) -> np.ndarray:
        return self._fitted(self._pi_level()).oof

    def g(self, k: int) -> np.ndarray:
        return self._fitted(self._g_level(k)).oof

    def level(self, parent: _Level | None, prefix: int, stratum: int) -> _Level:
        """The fitted chain level onto M_1..prefix within R = stratum."""
        level = self._chain_level(parent, prefix, stratum)
        fit = {"mu": self._mu_entry, "B": self._B_entry, "C_mu": self.C_mu, "C_B": self.C_B}[level.label]
        return fit(level)

    # Each kind of chain level keeps its own method name, so that a profiler
    # or tracer can time each kind apart.

    def _mu_entry(self, level: _Level) -> _Level:
        return self._fitted(level)

    def _B_entry(self, level: _Level) -> _Level:
        return self._fitted(level)

    def C_mu(self, level: _Level) -> _Level:
        return self._fitted(level)

    def C_B(self, level: _Level) -> _Level:
        return self._fitted(level)

    def rows(self, level: _Level) -> np.ndarray:
        return level.oof

    def diagnostics(self) -> dict:
        out = {"truncation_counts": dict(self.truncation_counts), "delta": self.delta}
        pi = self._store.get(self._pi_level().key)
        if pi is not None:
            out["pi_range"] = [float(pi.oof.min()), float(pi.oof.max())]
        g_ranges = {
            level.name: [float(level.oof.min()), float(level.oof.max())]
            for level in self._store.values()
            if level.label == "g"
        }
        if g_ranges:
            out["g_ranges"] = g_ranges
        return out


def _trees(levels: list[_Level]) -> list[list[tuple[int, _Level]]]:
    """Split planned levels into trees of (plan position, level), parents
    first: a level joins its parent's tree when the parent is planned too."""
    root, trees = {}, {}
    for position, level in enumerate(levels):
        root[level.key] = root.get(level.parent.key, level.key) if level.parent else level.key
        trees.setdefault(root[level.key], []).append((position, level))
    return list(trees.values())


def _tasks(trees: list, n_folds: int) -> list[tuple[int, int]]:
    """The pool's (tree, fold) tasks, largest tree first, then in plan order."""
    tasks = [(t, v) for t in range(len(trees)) for v in range(n_folds)]
    return sorted(tasks, key=lambda task: (-len(trees[task[0]]), task))


_POOL: tuple = ()  # a tree worker's (cache, trees)


def _start_tree_worker(cache: NuisanceCache, trees: list) -> None:
    global _POOL
    _one_blas_thread()
    _POOL = (cache, trees)


def _walk_tree(task: tuple[int, int]) -> tuple[dict, list[tuple], tuple | None]:
    """Fit fold v of tree t's levels, parents first, in a tree worker. Returns
    the test-row predictions keyed by (plan position, fold), the warnings as
    ((position, fold), category, message), and the error that stopped the
    walk as ((position, fold), error), if any."""
    t, v = task
    cache, trees = _POOL
    preds, caught, error = {}, [], None
    for position, level in trees[t]:
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            try:
                preds[position, v] = cache._fit_fold(level, v)
            except Exception as err:  # noqa: BLE001 - raised again in the parent
                error = ((position, v), err)
        caught += [((position, v), w.category, str(w.message)) for w in seen]
        if error:
            break
        if cache.n_folds == 1:  # what the level's children read
            level.oof = preds[position, v]
    for _, level in trees[t]:
        level.models.pop(v, None)
        level.oof = None
    return preds, caught, error


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
    oracle with the same ``n_blocks``, ``pi``/``g``/``level``/``rows`` and
    ``delta`` (0 for exact nuisances), in which case ``frame`` may be None.
    g_0 is never asked for: the propensity score plays its role.
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
    )
    q.validate()
    return q
