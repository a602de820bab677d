"""Exact enumeration oracle over fully discrete data-generating processes.

A :class:`DiscreteDgp` stores finite probability tables for X, R, the ordered
mediator blocks, and Y. Everything the estimators target can then be computed
without sampling: the counterfactual means by direct summation of the
identification functionals, the population value of the one-step summand
under exact nuisances (which must coincide with the enumerated mean), and the
exact nuisance functions themselves, usable as drop-in predictions.

Axis convention for tables: ``mediators[k].table`` has shape
``(sx, 2, s_1, ..., s_{k-1}, s_k)`` (covariate state, arm of R, earlier
mediator categories, own category); ``p_y`` ends with the outcome category.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .data import AnalysisFrame
from .nuisance import EstimandId, NuisanceSet, fit_all
from .parallel import usable_cores

MAX_STATES = 10**7
TABLE_TOL = 1e-12


class OracleError(ValueError):
    """Invalid probability tables or an enumeration request beyond limits."""


@dataclass(frozen=True)
class MediatorTable:
    values: np.ndarray  # numeric value of each category, shape (s_k,)
    table: np.ndarray   # P(M_k = . | earlier, R, X)

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        object.__setattr__(self, "table", np.asarray(self.table, dtype=float))


@dataclass(frozen=True)
class DiscreteDgp:
    x_values: np.ndarray  # (sx, d) numeric covariate rows, one per state
    p_x: np.ndarray       # (sx,)
    p_r1: np.ndarray      # (sx,) P(R=1 | X = state)
    mediators: tuple[MediatorTable, ...]
    y_values: np.ndarray  # (sy,)
    p_y: np.ndarray       # (sx, 2, s_1..s_K, sy)

    def __post_init__(self):
        object.__setattr__(self, "x_values", np.atleast_2d(np.asarray(self.x_values, dtype=float)))
        object.__setattr__(self, "p_x", np.asarray(self.p_x, dtype=float))
        object.__setattr__(self, "p_r1", np.asarray(self.p_r1, dtype=float))
        object.__setattr__(self, "y_values", np.asarray(self.y_values, dtype=float))
        object.__setattr__(self, "p_y", np.asarray(self.p_y, dtype=float))
        object.__setattr__(self, "mediators", tuple(self.mediators))
        self.validate()

    # -- shape helpers -------------------------------------------------------

    @property
    def n_blocks(self) -> int:
        return len(self.mediators)

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(m.values.shape[0] for m in self.mediators)

    @property
    def sx(self) -> int:
        return self.p_x.shape[0]

    def validate(self) -> None:
        arrays = {"x_values": self.x_values, "p_x": self.p_x, "p_r1": self.p_r1}
        for k, med in enumerate(self.mediators, start=1):
            arrays[f"mediator {k} values"] = med.values
            arrays[f"mediator {k} table"] = med.table
        arrays.update(y_values=self.y_values, p_y=self.p_y)
        for name, array in arrays.items():
            if not np.isfinite(array).all():
                raise OracleError(f"{name} has non-finite entries")
        sx, sizes, sy = self.sx, self.sizes, self.y_values.shape[0]
        n_states = sx * 2 * int(np.prod(sizes)) * sy
        if n_states > MAX_STATES:
            raise OracleError(f"state space has {n_states} > {MAX_STATES} configurations")
        if self.x_values.shape[0] != sx:
            raise OracleError("x_values and p_x disagree on the number of states")
        if abs(self.p_x.sum() - 1.0) > TABLE_TOL or (self.p_x < 0).any():
            raise OracleError("p_x is not a probability vector")
        if self.p_r1.shape != (sx,):
            raise OracleError("p_r1 has the wrong shape")
        for k, med in enumerate(self.mediators, start=1):
            expected = (sx, 2) + sizes[: k - 1] + (sizes[k - 1],)
            if med.table.shape != expected:
                raise OracleError(f"mediator {k} table has shape {med.table.shape}, expected {expected}")
            if (med.table < -TABLE_TOL).any():
                raise OracleError(f"mediator {k} table has negative entries")
            sums = med.table.sum(axis=-1)
            if np.abs(sums - 1.0).max() > 1e-9:
                raise OracleError(f"mediator {k} table rows do not sum to 1")
        expected_y = (sx, 2) + sizes + (sy,)
        if self.p_y.shape != expected_y:
            raise OracleError(f"p_y has shape {self.p_y.shape}, expected {expected_y}")
        if (self.p_y < -TABLE_TOL).any():
            raise OracleError("p_y has negative entries")
        if np.abs(self.p_y.sum(axis=-1) - 1.0).max() > 1e-9:
            raise OracleError("p_y rows do not sum to 1")
        self._check_positivity()

    def _check_positivity(self) -> None:
        """Both arms must put positive mass wherever the observed law does."""
        live = self.p_x > 0
        if ((self.p_r1[live] <= 0) | (self.p_r1[live] >= 1)).any():
            raise OracleError("positivity violated: P(R=1|X) not in (0,1) on the X support")
        joint0 = self._grid_weight([0] * self.n_blocks)
        joint1 = self._grid_weight([1] * self.n_blocks)
        mask = live.reshape((-1,) + (1,) * self.n_blocks)
        support = ((joint0 > 0) | (joint1 > 0)) & mask
        if ((joint0[support] <= 0) | (joint1[support] <= 0)).any():
            raise OracleError("positivity violated: a mediator history is reachable under one arm only")

    # -- core grids ----------------------------------------------------------

    def _grid_weight(self, arms) -> np.ndarray:
        """prod_{k<=j} P(m_k | earlier, arm_k, x) for the j = len(arms) blocks
        that ``arms`` gives: (sx, s_1..s_j), the full grid when j = K."""
        K = len(arms)
        w = np.ones((self.sx,) + self.sizes[:K])
        for k, med in enumerate(self.mediators[:K]):
            t = med.table[:, arms[k]]  # (sx, s_1..s_{k-1}, s_k)
            w = w * t.reshape(t.shape + (1,) * (K - k - 1))
        return w

    def ey_grid(self, r0: int) -> np.ndarray:
        """E[Y | m_1..K, R=r0, x] over the grid: (sx, s_1..s_K)."""
        return self.p_y[:, r0] @ self.y_values

    # -- serialization ---------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "x_values": self.x_values.tolist(),
            "p_x": self.p_x.tolist(),
            "p_r1": self.p_r1.tolist(),
            "mediators": [{"values": m.values.tolist(), "table": m.table.tolist()} for m in self.mediators],
            "y_values": self.y_values.tolist(),
            "p_y": self.p_y.tolist(),
        }

    @staticmethod
    def from_dict(payload: dict) -> "DiscreteDgp":
        return DiscreteDgp(
            x_values=np.asarray(payload["x_values"], dtype=float),
            p_x=np.asarray(payload["p_x"], dtype=float),
            p_r1=np.asarray(payload["p_r1"], dtype=float),
            mediators=tuple(
                MediatorTable(np.asarray(m["values"], dtype=float), np.asarray(m["table"], dtype=float))
                for m in payload["mediators"]
            ),
            y_values=np.asarray(payload["y_values"], dtype=float),
            p_y=np.asarray(payload["p_y"], dtype=float),
        )

    @staticmethod
    def from_json(path: str) -> "DiscreteDgp":
        with open(path, encoding="utf-8") as handle:
            return DiscreteDgp.from_dict(json.load(handle))

    def to_json(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle, indent=1, sort_keys=True)


def enumerate_gamma(dgp: DiscreteDgp, estimand: EstimandId, traversal: str = "forward") -> float:
    """Exact value of the identification functional by nested summation.

    ``traversal`` chooses the axis order of the reduction ("forward" or
    "reverse"); the result is identical up to float associativity, which the
    test suite uses as a summation-order invariance check.
    """
    estimand.validate(dgp.n_blocks)
    arms = estimand.mediator_arms(dgp.n_blocks)
    agg = dgp._grid_weight(arms) * dgp.ey_grid(estimand.r0)
    if traversal == "forward":
        for ax in range(agg.ndim - 1, 0, -1):  # innermost mediator first
            agg = agg.sum(axis=ax)
    elif traversal == "reverse":
        for _ in range(agg.ndim - 1):  # outermost mediator first
            agg = agg.sum(axis=1)
    else:
        raise OracleError(f"unknown traversal {traversal!r}")
    return float(agg @ dgp.p_x)


class ExactNuisances:
    """Closed-form nuisance tables for a discrete DGP.

    Tables are indexed by (x state, mediator categories); row-level lookups
    build drop-in :class:`NuisanceSet` objects for sampled data.
    """

    def __init__(self, dgp: DiscreteDgp):
        self.dgp = dgp

    def pi_table(self) -> np.ndarray:
        return self.dgp.p_r1.copy()

    def g_table(self, k: int) -> np.ndarray:
        """P(R=1 | m_1..k, x): shape (sx, s_1..s_k); NaN off the support."""
        pi = self.dgp.p_r1.reshape((-1,) + (1,) * k)
        a1 = pi * self.dgp._grid_weight((1,) * k)
        a0 = (1.0 - pi) * self.dgp._grid_weight((0,) * k)
        with np.errstate(invalid="ignore", divide="ignore"):
            return np.where(a1 + a0 > 0, a1 / (a1 + a0), np.nan)

    def integrate(self, table: np.ndarray, prefix: int, arm: int) -> np.ndarray:
        """Integrate blocks prefix+1.. out of a table over (x, m_1..m_k), each at
        its law under the given arm: shape (sx, s_1..s_prefix)."""
        for j in range(table.ndim - 1, prefix, -1):
            table = (table * self.dgp.mediators[j - 1].table[:, arm]).sum(axis=j)
        return table

    def mu_table(self, k: int, r0: int) -> np.ndarray:
        """E[Y | m_1..k, R=r0, x] integrating trailing blocks at arm r0."""
        return self.integrate(self.dgp.ey_grid(r0), k, r0)

    def nuisance_set(self, states: "SampledStates", estimand: EstimandId) -> NuisanceSet:
        """Exact nuisance predictions for sampled rows, as the estimators expect them."""
        return fit_all(None, estimand, cache=_ExactRows(self, states))


class _ExactRows:
    """Exact nuisance tables looked up at sampled rows; chain levels are tables.
    Nothing is truncated, so ``delta`` is 0."""

    delta = 0.0

    def __init__(self, exact: ExactNuisances, states: "SampledStates"):
        self.exact = exact
        self.states = states
        self.n_blocks = exact.dgp.n_blocks

    def rows(self, table: np.ndarray) -> np.ndarray:
        return table[(self.states.x_idx,) + tuple(self.states.m_idx[: table.ndim - 1])]

    def pi(self) -> np.ndarray:
        return self.rows(self.exact.pi_table())

    def g(self, k: int) -> np.ndarray:
        return self.rows(self.exact.g_table(k))

    def level(self, parent: np.ndarray | None, prefix: int, arm: int) -> np.ndarray:
        if parent is None:
            return self.exact.mu_table(prefix, arm)
        return self.exact.integrate(parent, prefix, arm)


def _configurations(dgp: DiscreteDgp):
    """Every observed-data configuration as flat (x, r, mediator, y) category
    indices, with its probability under the DGP."""
    shape = (dgp.sx, 2) + dgp.sizes + (dgp.y_values.shape[0],)
    flat = [g.ravel() for g in np.indices(shape)]
    x_idx, r_idx = flat[0], flat[1]
    m_idx = flat[2 : 2 + dgp.n_blocks]
    y_idx = flat[-1]
    prob = dgp.p_x[x_idx] * np.where(r_idx == 1, dgp.p_r1[x_idx], 1.0 - dgp.p_r1[x_idx])
    for k, med in enumerate(dgp.mediators, start=1):
        prob = prob * med.table[(x_idx, r_idx) + tuple(m_idx[:k])]
    prob = prob * dgp.p_y[(x_idx, r_idx) + tuple(m_idx) + (y_idx,)]
    return x_idx, r_idx, m_idx, y_idx, prob


def one_step_population_value(dgp: DiscreteDgp, estimand: EstimandId) -> float:
    """Population expectation of the one-step summand at exact nuisances.

    Enumerates every observed-data configuration (x, r, mediators, y), weights
    the production summand kernel by its exact probability, and sums. By the
    mean-zero property of the influence function this equals
    :func:`enumerate_gamma` identically.
    """
    from .estimators import gamma_summands

    estimand.validate(dgp.n_blocks)
    x_idx, r_idx, m_idx, y_idx, prob = _configurations(dgp)
    live = prob > 0
    states = SampledStates(x_idx=x_idx[live], m_idx=[m[live] for m in m_idx], y_idx=y_idx[live])
    q = ExactNuisances(dgp).nuisance_set(states, estimand)
    h = gamma_summands(dgp.y_values[y_idx[live]], r_idx[live], q)
    return float(np.sum(prob[live] * h))


@dataclass
class SampledStates:
    """Category indices of sampled rows (needed for exact-nuisance lookup)."""

    x_idx: np.ndarray
    m_idx: list[np.ndarray]
    y_idx: np.ndarray


def _frame(dgp: DiscreteDgp, r: np.ndarray, states: SampledStates) -> tuple[AnalysisFrame, SampledStates]:
    """The analysis frame of rows given by their group and category indices."""
    frame = AnalysisFrame(
        x=dgp.x_values[states.x_idx],
        r=r,
        m_blocks=tuple(med.values[idx][:, None] for med, idx in zip(dgp.mediators, states.m_idx)),
        y=dgp.y_values[states.y_idx],
        covariate_names=tuple(f"x{j+1}" for j in range(dgp.x_values.shape[1])),
        block_names=tuple((f"m{k+1}",) for k in range(dgp.n_blocks)),
    )
    return frame, states


def _thresholds(table: np.ndarray) -> np.ndarray:
    """Each row's s - 1 smallest running sums over the last axis, sorted, as ``(s - 1, rows)`` (rows row-major)."""
    sums = np.sort(np.cumsum(table, axis=-1).reshape(-1, table.shape[-1]), axis=-1)
    return np.ascontiguousarray(sums[:, :-1].T)


def _categories(thresholds: np.ndarray, row, u: np.ndarray) -> np.ndarray:
    """One category per uniform from a ``_thresholds`` table, as an intp array.

    ``row`` is the flat index of each draw's row (``0`` for a one-row table).
    A category is the number of its row's thresholds below its uniform. That
    is the number of all s running sums below it, capped at s - 1, even where
    an entry just below zero (see ``TABLE_TOL``) makes the sums non-monotone.
    """
    if not len(thresholds):
        return np.zeros(u.size, np.intp)
    idx = (u > thresholds[0].take(row)).astype(np.intp)
    for column in thresholds[1:]:
        idx += u > column.take(row)
    return idx


def _cascade(levels: list[np.ndarray], row, rng: np.random.Generator, n: int):
    """Draw one category per level from ``_thresholds`` tables, levels in order;
    yields each level's ``_categories``.

    ``row`` is the flat index of each draw's row in the first table; after a
    level with s categories it becomes ``row * s + category``, the row of the
    next table. That is a new array after the first level, so the caller's
    ``row`` is never written, and the same array updated in place after each
    later one.
    """
    for level, thresholds in enumerate(levels):
        idx = _categories(thresholds, row, rng.random(n))
        yield idx
        if level + 1 == len(levels):
            break
        if level == 0:
            row = row * (len(thresholds) + 1) + idx
        else:
            row *= len(thresholds) + 1
            row += idx


def sample(dgp: DiscreteDgp, n: int, seed: int = 0) -> tuple[AnalysisFrame, SampledStates]:
    """Draw n observations from the observed-data law of the DGP.

    One generator seeded ``(seed, n)`` draws n uniforms for X, then R, then
    each mediator in order, then Y. ``_cascade`` draws the categories from the
    full ``(sx, 2, ...)`` tables, indexed by each row's flat history.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, n]))
    (x_idx,) = _cascade([_thresholds(dgp.p_x)], 0, rng, n)
    r = (rng.random(n) < dgp.p_r1[x_idx]).astype(np.int8)
    levels = [_thresholds(med.table) for med in dgp.mediators] + [_thresholds(dgp.p_y)]
    *m_idx, y_idx = _cascade(levels, x_idx * 2 + r, rng, n)
    return _frame(dgp, r, SampledStates(x_idx=x_idx, m_idx=m_idx, y_idx=y_idx))


def population_frame(dgp: DiscreteDgp, scale: int) -> tuple[AnalysisFrame, SampledStates]:
    """Expand the joint law into a finite frame with integer row multiplicities.

    Requires every configuration probability times ``scale`` to be an integer
    (e.g. dyadic tables); on such a frame empirical conditional means equal
    the population tables exactly.
    """
    x_idx, r_idx, m_idx, y_idx, prob = _configurations(dgp)
    counts = prob * scale
    rounded = np.rint(counts)
    if np.abs(counts - rounded).max() > 1e-9:
        raise OracleError("scale does not make every configuration count integral")
    reps = rounded.astype(np.int64)
    keep = np.repeat(np.arange(prob.size), reps)
    states = SampledStates(x_idx=x_idx[keep], m_idx=[m[keep] for m in m_idx], y_idx=y_idx[keep])
    return _frame(dgp, r_idx[keep].astype(np.int8), states)


MC_CHUNK = 1_000_000
MC_BLOCK = 1 << 16
MC_LANES = 2  # only two lanes have been timed; more would walk more, smaller blocks


def _uniforms(rng: np.random.Generator, state: dict, position: int, out: np.ndarray) -> None:
    """Fill ``out`` with the uniforms of the PCG64 stream that starts at
    ``state``, from draw ``position`` on (one 64-bit step per uniform)."""
    rng.bit_generator.state = state
    rng.bit_generator.advance(position)
    rng.random(out=out)


def cascade_mc(dgp: DiscreteDgp, estimands, n_draws: int, seed: int = 0) -> list[tuple[float, float]]:
    """Monte-Carlo means of the counterfactual cascades; one (mean, se) per estimand.

    An oracle independent of :func:`enumerate_gamma`: X is drawn from its
    law, each mediator at the estimand's arm and Y at r0, then Y is averaged.
    Every estimand reads the same stream, that of a generator seeded
    ``(seed, 2718, n_draws)`` serving chunks of up to 10^6 draws; a chunk takes
    one uniform per draw for X, then for each mediator, then for Y. So an
    estimand's mean does not depend on which others share the call.

    A chunk is walked in blocks, on one thread (lane) per usable core, at most
    two, the calling thread being the first. A block has 2^16 rows with one
    lane and 2^15 with two, so that at most 2^16 rows are in flight. Each
    lane draws each level's uniforms for its block once, from their place in
    the stream, with a generator of its own. The distinct arm prefixes are
    walked depth first, so each prefix's categories are computed once. Each
    distinct ``(arms, r0)`` keeps its outcome categories for the chunk, and
    at the chunk's end its Y values are looked up a block at a time and
    summed whole, in the calling thread; so the result does not depend on
    the number of lanes.
    """
    if n_draws < 1:
        raise OracleError(f"Monte-Carlo draws must be >= 1, got {n_draws}")
    K = dgp.n_blocks
    keys = []
    for estimand in estimands:
        estimand.validate(K)
        keys.append(estimand.mediator_arms(K) + (estimand.r0,))
    children: dict[tuple, dict] = {}  # arm prefix -> its next arms, in order
    for key in keys:
        for depth in range(K + 1):
            children.setdefault(key[:depth], {})[key[depth]] = None
    tables = [med.table for med in dgp.mediators] + [dgp.p_y]
    levels = [[_thresholds(table[:, arm]) for arm in (0, 1)] for table in tables]
    x_levels = _thresholds(dgp.p_x)
    sizes = dgp.sizes

    seeds = np.random.SeedSequence([seed, 2718, n_draws])
    state = np.random.PCG64(seeds).state
    chunk = min(MC_CHUNK, n_draws)
    lanes = min(usable_cores(), MC_LANES)
    block = MC_BLOCK // lanes
    lanes = min(lanes, -(-chunk // block))
    rngs = [np.random.Generator(np.random.PCG64(seeds)) for _ in range(lanes)]
    u = [np.empty((K + 2, min(block, chunk))) for _ in range(lanes)]
    y_cat = {key: np.empty(chunk, np.min_scalar_type(dgp.y_values.size - 1)) for key in keys}

    def walk(lane: int, m: int, start: int) -> None:
        """Categories of the lane's blocks (every ``lanes``-th from its own) of
        a chunk of ``m`` draws whose stream starts at draw ``start``."""
        rng, buf = rngs[lane], u[lane]
        for lo in range(lane * block, m, lanes * block):
            n = min(block, m - lo)
            for level in range(K + 2):
                _uniforms(rng, state, start + level * m + lo, buf[level, :n])
            stack = [((), _categories(x_levels, 0, buf[0, :n]))]  # depth first, one row array per prefix
            while stack:
                prefix, row = stack.pop()
                depth = len(prefix)
                for arm in children[prefix]:
                    idx = _categories(levels[depth][arm], row, buf[depth + 1, :n])
                    if depth == K:
                        y_cat[prefix + (arm,)][lo : lo + n] = idx
                    else:
                        stack.append((prefix + (arm,), row * sizes[depth] + idx))

    y = np.empty(chunk)
    sums = {key: [0.0, 0.0] for key in y_cat}
    done = 0
    with ThreadPoolExecutor(max(lanes - 1, 1)) as pool:  # starts no thread for one lane
        while done < n_draws:
            m = min(chunk, n_draws - done)
            start = (K + 2) * done
            others = [pool.submit(walk, lane, m, start) for lane in range(1, lanes)]
            walk(0, m, start)  # lane 0 is the calling thread
            for lane in others:
                lane.result()
            for key, cats in y_cat.items():
                for lo in range(0, m, MC_BLOCK):  # take casts its indices to intp: a block at a time
                    hi = min(lo + MC_BLOCK, m)
                    np.take(dgp.y_values, cats[lo:hi], out=y[lo:hi], mode="clip")
                y_m = y[:m]
                sums[key][0] += float(y_m.sum())
                sums[key][1] += float(np.square(y_m, out=y_m).sum())
            done += m
    out = []
    for key in keys:
        total, total_sq = sums[key]
        mean = total / n_draws
        var = max(total_sq / n_draws - mean**2, 0.0)
        out.append((mean, float(np.sqrt(var / n_draws))))
    return out
