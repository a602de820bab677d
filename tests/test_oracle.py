import functools
import itertools
import sys
import threading

import numpy as np
import pytest
from scipy.special import expit

from pathshift import oracle
from pathshift.estimators import gamma_summands
from pathshift.nuisance import EstimandId, fit_all
from pathshift.oracle import (
    MC_CHUNK,
    DiscreteDgp,
    ExactNuisances,
    MediatorTable,
    OracleError,
    SampledStates,
    _cascade,
    _configurations,
    _ExactRows,
    _thresholds,
    cascade_mc,
    enumerate_gamma,
    one_step_population_value,
    population_frame,
    sample,
)
from pathshift.simulation import robustness_conditions
from pathshift.toys import FIXTURES, toy_dyadic_k2, toy_k1, toy_k2, toy_k4


def all_estimands(dgp):
    out = [EstimandId.dis(), EstimandId.adv(), EstimandId.direct()]
    for k in range(1, dgp.n_blocks + 1):
        out += [EstimandId.mediator(k), EstimandId.sequential(k)]
    return out


def null_dgp():
    """Neither the mediator law nor the outcome law depends on R."""
    p_m = np.zeros((2, 2, 2))
    p_m[..., 1] = 0.4
    p_m[..., 0] = 0.6
    p_y = np.zeros((2, 2, 2, 2))
    p_y[..., 1] = np.array([0.3, 0.7])[:, None, None]  # depends on x and m only via x
    p_y[..., 0] = 1.0 - p_y[..., 1]
    return DiscreteDgp(
        x_values=np.array([[0.0], [1.0]]),
        p_x=np.array([0.5, 0.5]),
        p_r1=np.array([0.4, 0.6]),
        mediators=(MediatorTable(np.array([0.0, 1.0]), p_m),),
        y_values=np.array([0.0, 1.0]),
        p_y=p_y,
    )


def test_null_model_every_gamma_equal():
    dgp = null_dgp()
    values = [enumerate_gamma(dgp, e) for e in all_estimands(dgp)]
    assert np.allclose(values, values[0], atol=1e-14)


def test_toy_k1_tables_match_generating_formulas():
    dgp = toy_k1()
    assert np.allclose(dgp.p_r1, [0.4, 0.6])
    for xi, x in enumerate([0.0, 1.0]):
        for r in (0, 1):
            assert dgp.mediators[0].table[xi, r, 1] == round(float(expit(-0.5 + r + 0.5 * x)), 4)
            for m in (0, 1):
                assert dgp.p_y[xi, r, m, 1] == round(float(expit(-1.0 + m + 0.5 * r)), 4)


def test_enumeration_traversal_order_invariance():
    for builder in (toy_k1, toy_k2, toy_k4):
        dgp = builder()
        for estimand in all_estimands(dgp):
            a = enumerate_gamma(dgp, estimand, traversal="forward")
            b = enumerate_gamma(dgp, estimand, traversal="reverse")
            assert abs(a - b) < 1e-12


def test_sequential_K_equals_direct_exactly():
    for builder in (toy_k1, toy_k2, toy_k4):
        dgp = builder()
        K = dgp.n_blocks
        assert enumerate_gamma(dgp, EstimandId.sequential(K)) == enumerate_gamma(dgp, EstimandId.direct())


def test_arm_swap_mirrors_gamma_values():
    from pathshift.simulation import DgpSpec, truth_for

    dgp = toy_k2()
    swapped = DiscreteDgp(
        x_values=dgp.x_values,
        p_x=dgp.p_x,
        p_r1=1.0 - dgp.p_r1,
        mediators=tuple(MediatorTable(m.values, m.table[:, ::-1]) for m in dgp.mediators),
        y_values=dgp.y_values,
        p_y=dgp.p_y[:, ::-1],
    )
    spec = DgpSpec("discrete_toy", tables=dgp)
    spec_swapped = DgpSpec("discrete_toy", tables=swapped)
    for r0 in (0, 1):
        for arms in [(0, 0), (1, 0), (0, 1), (1, 1)]:
            a = truth_for(spec, EstimandId.shift(r0, arms)).value
            flipped = truth_for(spec_swapped, EstimandId.shift(1 - r0, tuple(1 - a for a in arms))).value
            assert abs(a - flipped) < 1e-12


def test_one_step_identity_at_exact_nuisances():
    for name, builder in FIXTURES.items():
        dgp = builder()
        for estimand in all_estimands(dgp):
            enum = enumerate_gamma(dgp, estimand)
            onestep = one_step_population_value(dgp, estimand)
            assert abs(enum - onestep) < 1e-10, (name, estimand.label)


def every_arm_vector(dgp):
    K = dgp.n_blocks
    return [EstimandId.shift(r0, arms) for r0 in (0, 1) for arms in itertools.product((0, 1), repeat=K)]


@pytest.mark.parametrize("builder", [toy_k1, toy_k2, toy_k4])
def test_one_step_identity_for_every_arm_vector(builder):
    dgp = builder()
    for estimand in every_arm_vector(dgp):
        gap = abs(enumerate_gamma(dgp, estimand) - one_step_population_value(dgp, estimand))
        assert gap < 1e-8, estimand.label


@pytest.mark.parametrize("builder", [toy_k1, toy_k2, toy_k4])
def test_one_step_identity_with_perturbed_regressions(builder, monkeypatch):
    """With exact pi and g, the corrections cancel whatever the regression
    levels are, so the identity checks the weights, which exact levels hide."""
    dgp = builder()
    rng = np.random.default_rng(11)
    integrate = ExactNuisances.integrate

    def perturbed(self, table, prefix, arm):
        out = integrate(self, table, prefix, arm)
        return out + rng.normal(0.0, 0.5, out.shape)

    monkeypatch.setattr(ExactNuisances, "integrate", perturbed)
    for estimand in every_arm_vector(dgp):
        gap = abs(enumerate_gamma(dgp, estimand) - one_step_population_value(dgp, estimand))
        assert gap < 1e-10, estimand.label


class _MisspecifiedRows(_ExactRows):
    """Exact nuisances, except that every table named in ``false`` is
    perturbed as a whole, so it stays a function of its conditioning set:
    pi and g_k by U(-0.2, 0.2) clipped to [0.05, 0.95], chain level j (Q{j})
    by N(0, 0.5^2)."""

    def __init__(self, exact, states, false, rng):
        super().__init__(exact, states)
        self.false = false
        self.rng = rng

    def _shake(self, table):
        return np.clip(table + self.rng.uniform(-0.2, 0.2, table.shape), 0.05, 0.95)

    def pi(self):
        table = self.exact.pi_table()
        return self.rows(self._shake(table) if "pi" in self.false else table)

    def g(self, k):
        table = self.exact.g_table(k)
        return self.rows(self._shake(table) if f"g{k}" in self.false else table)

    def level(self, parent, prefix, arm):
        self.depth = 0 if parent is None else self.depth + 1
        table = super().level(parent, prefix, arm)
        if f"Q{self.depth}" in self.false:
            table = table + self.rng.normal(0.0, 0.5, table.shape)
        return table


def misspecified_population_value(dgp, estimand, false, rng):
    """one_step_population_value with the nuisances in ``false`` perturbed."""
    x_idx, r_idx, m_idx, y_idx, prob = _configurations(dgp)
    live = prob > 0
    states = SampledStates(x_idx=x_idx[live], m_idx=[m[live] for m in m_idx], y_idx=y_idx[live])
    q = fit_all(None, estimand, cache=_MisspecifiedRows(ExactNuisances(dgp), states, false, rng))
    h = gamma_summands(dgp.y_values[y_idx[live]], r_idx[live], q)
    return float(np.sum(prob[live] * h))


@pytest.mark.parametrize("builder", [toy_k1, toy_k2, toy_k4])
def test_robustness_conditions_hold_at_the_population(builder):
    """Under each multiply-robust condition the one-step mean is the truth,
    however wrong the nuisances it routes false are. As a control, also
    breaking the highest-prefix g that a condition keeps must move the mean
    away from the truth in some case."""
    dgp = builder()
    rng = np.random.default_rng(23)
    worst_control = 0.0
    for estimand in every_arm_vector(dgp):
        enum = enumerate_gamma(dgp, estimand)
        g_names = [f"g{p}" for p, _ in estimand.chain(dgp.n_blocks) if p]
        for condition in robustness_conditions(estimand, dgp.n_blocks):
            false = {name for name, _ in condition.route}
            gap = abs(misspecified_population_value(dgp, estimand, false, rng) - enum)
            assert gap < 1e-10, (estimand.label, condition.name)
            kept_g = [name for name in g_names if name not in false]
            if kept_g:
                broken = misspecified_population_value(dgp, estimand, false | {kept_g[0]}, rng)
                worst_control = max(worst_control, abs(broken - enum))
    assert worst_control > 1e-3


def test_cascade_mc_agrees_with_enumeration():
    dgp = toy_k1()
    estimands = [EstimandId.dis(), EstimandId.direct(), EstimandId.mediator(1)]
    for estimand, (mc, se) in zip(estimands, cascade_mc(dgp, estimands, 200_000, seed=4), strict=True):
        assert abs(mc - enumerate_gamma(dgp, estimand)) <= 4 * se


def _draw_categorical(prob_rows, rng):
    cdf = np.cumsum(prob_rows, axis=1)
    u = rng.random(prob_rows.shape[0])
    idx = (u[:, None] > cdf).sum(axis=1)
    return np.minimum(idx, prob_rows.shape[1] - 1)


def reference_cascade_mc(dgp, estimand, n_draws, seed=0):
    """The row-by-row sampler that ``cascade_mc`` replaced, kept as its reference."""
    arms = estimand.mediator_arms(dgp.n_blocks)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 2718, n_draws]))
    total = 0.0
    total_sq = 0.0
    done = 0
    chunk = min(n_draws, 1_000_000)
    while done < n_draws:
        m = min(chunk, n_draws - done)
        x_idx = _draw_categorical(np.tile(dgp.p_x, (m, 1)), rng)
        m_idx = []
        for k, med in enumerate(dgp.mediators, start=1):
            arm = np.full(m, arms[k - 1])
            rows = med.table[(x_idx, arm) + tuple(m_idx)]
            m_idx.append(_draw_categorical(rows, rng))
        r0 = np.full(m, estimand.r0)
        y_rows = dgp.p_y[(x_idx, r0) + tuple(m_idx)]
        y = dgp.y_values[_draw_categorical(y_rows, rng)]
        total += float(y.sum())
        total_sq += float((y**2).sum())
        done += m
    mean = total / n_draws
    var = max(total_sq / n_draws - mean**2, 0.0)
    return mean, float(np.sqrt(var / n_draws))


def reference_sample_indices(dgp, n, seed=0):
    """Category indices from the row-by-row sampler that ``sample`` replaced."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, n]))
    x_idx = _draw_categorical(np.tile(dgp.p_x, (n, 1)), rng)
    r = (rng.random(n) < dgp.p_r1[x_idx]).astype(np.int8)
    m_idx = []
    for med in dgp.mediators:
        m_idx.append(_draw_categorical(med.table[(x_idx, r) + tuple(m_idx)], rng))
    y_idx = _draw_categorical(dgp.p_y[(x_idx, r) + tuple(m_idx)], rng)
    return x_idx, r, m_idx, y_idx


def assert_sample_matches_reference(dgp, n, seed):
    frame, states = sample(dgp, n, seed=seed)
    x_idx, r, m_idx, y_idx = reference_sample_indices(dgp, n, seed)
    assert states.x_idx.dtype == x_idx.dtype and np.array_equal(states.x_idx, x_idx)
    assert frame.r.dtype == r.dtype and np.array_equal(frame.r, r)
    assert len(states.m_idx) == len(m_idx)
    for ours, theirs in zip(states.m_idx, m_idx):
        assert ours.dtype == theirs.dtype and np.array_equal(ours, theirs)
    assert np.array_equal(states.y_idx, y_idx)


def non_monotone_dgp():
    """A three-category mediator with a -1e-13 entry, which TABLE_TOL accepts,
    in each x state: its running sums go 0.4, 0.4 - 1e-13, 1 at x state 0,
    and 0.5, 1 - 1e-10 + 1e-13, 1 - 1e-10 at x state 1 (that row sums to
    1 - 1e-10, inside the row-sum tolerance)."""
    row0 = [0.4, -1e-13, 0.6 + 1e-13]
    row1 = [0.5, 0.5 - 1e-10 + 1e-13, -1e-13]
    p_m = np.array([[row0, row0], [row1, row1]])
    p_y = np.zeros((2, 2, 3, 2))
    p_y[..., 1] = [[[0.2, 0.5, 0.7], [0.3, 0.6, 0.8]], [[0.25, 0.55, 0.75], [0.35, 0.65, 0.85]]]
    p_y[..., 0] = 1.0 - p_y[..., 1]
    return DiscreteDgp(
        x_values=np.array([[0.0], [1.0]]),
        p_x=np.array([0.5, 0.5]),
        p_r1=np.array([0.4, 0.6]),
        mediators=(MediatorTable(np.array([0.0, 1.0, 2.0]), p_m),),
        y_values=np.array([0.0, 1.0]),
        p_y=p_y,
    )


def parity_estimands(dgp):
    """Every oracle-check estimand, two shifts, then all 2^(K+1) shift arm vectors."""
    K = dgp.n_blocks
    out = all_estimands(dgp) + [EstimandId.shift(1, (0,) * K), EstimandId.shift(0, (1,) + (0,) * (K - 1))]
    return out + [EstimandId.shift(r0, arms) for r0 in (0, 1) for arms in itertools.product((0, 1), repeat=K)]


@functools.cache
def row_sampler(builder, key, n_draws, seed):
    """``reference_cascade_mc`` for the arm vector ``key`` = (r0, arms), run
    once per test session."""
    return reference_cascade_mc(builder(), EstimandId.shift(key[0], key[1:]), n_draws, seed=seed)


def mc_key(estimand, dgp):
    return (estimand.r0,) + estimand.mediator_arms(dgp.n_blocks)


def hexes(results):
    return [(mean.hex(), se.hex()) for mean, se in results]


def assert_cascade_mc_matches_the_row_sampler(builder, n_draws, seed):
    """One shared ``cascade_mc`` call, each result equal in hex to the row
    sampler drawing that estimand alone (run once per distinct arm vector)."""
    dgp = builder()
    estimands = parity_estimands(dgp)
    results = hexes(cascade_mc(dgp, estimands, n_draws, seed=seed))
    for estimand, result in zip(estimands, results, strict=True):
        key = mc_key(estimand, dgp)
        assert result == hexes([row_sampler(builder, key, n_draws, seed)])[0], (estimand.label, key)
    assert len({mc_key(e, dgp) for e in estimands}) == 2 ** (dgp.n_blocks + 1)


@pytest.mark.parametrize("builder", [toy_k1, toy_k2, toy_k4, non_monotone_dgp])
@pytest.mark.parametrize("n_draws", [1, 7, 200_000, 1_000_001])
def test_cascade_mc_matches_the_row_sampler_bit_for_bit(builder, n_draws):
    assert_cascade_mc_matches_the_row_sampler(builder, n_draws, seed=13)


@pytest.mark.parametrize("n_draws", [65_535, 65_536, 65_537, 1_000_000, 1_000_001, 2_500_001])
def test_cascade_mc_matches_the_row_sampler_at_block_and_chunk_edges(n_draws):
    # blocks of 2^16 rows inside chunks of 10^6: the last block of a chunk,
    # and the last chunk, may be short or a single row
    assert_cascade_mc_matches_the_row_sampler(toy_k2, n_draws, seed=5)


@pytest.mark.parametrize("builder", [toy_k1, toy_k2, toy_k4, non_monotone_dgp])
@pytest.mark.parametrize("n_draws", [2**15 - 1, 2**15 + 1, 2**16 + 1, 1_000_001, 2_500_001])
def test_cascade_mc_lanes_match_the_row_sampler(builder, n_draws, usable_cores):
    # 2 lanes walk blocks of 2^15 rows, and 3 usable cores still give 2
    # lanes; the last lane block of a chunk may be short, and the second lane
    # may have no block
    dgp = builder()
    estimands = all_estimands(dgp)
    results = []
    for cores in (1, 2, 3):
        usable_cores(cores)
        results.append(hexes(cascade_mc(dgp, estimands, n_draws, seed=13)))
    assert results[1] == results[0] and results[2] == results[0]
    # the row sampler takes about a second per arm vector at 2.5e6 draws, so
    # there it checks the first estimand only
    checked = estimands[:1] if n_draws > MC_CHUNK else estimands
    for estimand, result in zip(checked, results[0]):
        assert result == hexes([row_sampler(builder, mc_key(estimand, dgp), n_draws, 13)])[0], estimand.label


def test_cascade_mc_lanes_under_a_short_switch_interval(usable_cores, monkeypatch):
    # more cores than the cap of 2 lanes, switching threads as often as the
    # interpreter allows: the disjoint writes of the lanes must still add up
    # to the one-lane bytes
    dgp, estimands = toy_k4(), all_estimands(toy_k4())
    usable_cores(1)
    one_lane = hexes(cascade_mc(dgp, estimands, 2**16 + 1, seed=3))
    usable_cores(64)
    threads, uniforms = set(), oracle._uniforms

    def recording_uniforms(rng, state, position, out):
        threads.add(threading.get_ident())
        uniforms(rng, state, position, out)

    monkeypatch.setattr(oracle, "_uniforms", recording_uniforms)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        lanes = hexes(cascade_mc(dgp, estimands, 2**16 + 1, seed=3))
    finally:
        sys.setswitchinterval(interval)
    assert lanes == one_lane
    assert len(threads) > 1


@pytest.mark.parametrize("builder", [toy_k1, toy_k2, toy_k4])
@pytest.mark.parametrize("n", [1, 500, 1_000_000])
def test_sample_matches_the_row_sampler_index_for_index(builder, n):
    assert_sample_matches_reference(builder(), n, seed=21)


class FixedUniforms:
    """A generator stand-in whose every ``random(n)`` repeats one pattern."""

    def __init__(self, pattern):
        self.pattern = np.asarray(pattern, dtype=float)

    def random(self, n):
        return np.resize(self.pattern, n)


def test_non_monotone_cdf_draws_as_the_row_sampler(monkeypatch, usable_cores):
    dgp = non_monotone_dgp()
    for n_draws in (7, 200_000):
        assert_cascade_mc_matches_the_row_sampler(non_monotone_dgp, n_draws, seed=2)
    assert_sample_matches_reference(dgp, 10_000, seed=2)

    # Each level reuses the pattern, so a uniform picks x and then m. Every
    # entry is counted: 0.4 - 5e-14 lies between the x-state-0 sums 0.4 - 1e-13
    # and 0.4 and draws category 1; 1 - 1e-10 + 5e-14 (x state 1) lies above
    # the last sum but not the second and draws category 2.
    pattern = [0.4 - 5e-14, 1 - 1e-10 + 5e-14, 0.1, 0.45, 0.7, 0.999999]
    monkeypatch.setattr(np.random, "default_rng", lambda seed: FixedUniforms(pattern))
    _, states = sample(dgp, 6, seed=0)
    assert list(states.x_idx[:2]) == [0, 1] and list(states.m_idx[0][:2]) == [1, 2]
    assert_sample_matches_reference(dgp, 6, seed=0)

    # cascade_mc reads its stream by position, through ``_uniforms``; each
    # level of each of its blocks gets the pattern from the block's offset in
    # its level, as each of the reference's calls does from its first draw.
    # With 2^15 + 1 draws and 2 lanes, the second lane's block starts mid-pattern.
    def fixed_uniforms(rng, state, position, out):
        offset = position % n_draws  # one chunk: level * n_draws + the block's first row
        out[:] = FixedUniforms(pattern).random(offset + out.size)[offset:]

    monkeypatch.setattr(oracle, "_uniforms", fixed_uniforms)
    estimands = all_estimands(dgp)
    for n_draws, cores in ((6, 1), (2**15 + 1, 1), (2**15 + 1, 2)):
        usable_cores(cores)
        for estimand, result in zip(estimands, cascade_mc(dgp, estimands, n_draws), strict=True):
            assert result == reference_cascade_mc(dgp, estimand, n_draws), (n_draws, cores)


def reference_cascade(tables, row, rng):
    """``_cascade`` by the rule it replaced (``_draw_categorical``): a category
    is the number of its row's running sums below its uniform, capped at s - 1."""
    for table in tables:
        idx = _draw_categorical(table.reshape(-1, table.shape[-1])[row], rng)
        yield idx
        row = row * table.shape[-1] + idx


def boundary_draws(table):
    """Rows and uniforms with one draw on each running sum of each row and one
    on the float either side of it."""
    sums = np.cumsum(table, axis=-1).reshape(-1, table.shape[-1])
    u = np.stack([np.nextafter(sums, -np.inf), sums, np.nextafter(sums, np.inf)], axis=-1)
    return np.repeat(np.arange(sums.shape[0]), u.shape[1] * 3), u.ravel()


@pytest.mark.parametrize("builder", [toy_k2, non_monotone_dgp])
def test_cascade_draws_as_the_capped_count_on_every_running_sum(builder):
    dgp = builder()
    one_category = np.ones((2, 1))
    for table in [dgp.p_x, *(med.table for med in dgp.mediators), dgp.p_y, one_category]:
        rows, u = boundary_draws(table)
        (ours,) = _cascade([_thresholds(table)], rows, FixedUniforms(u), u.size)
        (theirs,) = reference_cascade([table], rows, FixedUniforms(u))
        assert ours.dtype == np.intp and np.array_equal(ours, theirs)
    # the levels of ``sample`` after R in turn, each under the same uniforms;
    # later levels advance the row index in place, but never the caller's
    tables = [med.table for med in dgp.mediators] + [dgp.p_y]
    rows, u = boundary_draws(tables[0])
    before = rows.copy()
    ours = list(_cascade([_thresholds(t) for t in tables], rows, FixedUniforms(u), u.size))
    assert np.array_equal(rows, before)
    theirs = list(reference_cascade(tables, rows, FixedUniforms(u)))
    assert all(np.array_equal(a, b) for a, b in zip(ours, theirs, strict=True))


def test_density_ratio_equals_g_odds_ratio():
    dgp = toy_k4()
    ex = ExactNuisances(dgp)
    pi = dgp.p_r1
    for k in range(1, dgp.n_blocks + 1):
        g_k = ex.g_table(k)
        g_prev = ex.g_table(k - 1) if k >= 2 else pi.reshape((-1,))
        table = dgp.mediators[k - 1].table
        ratio = table[:, 1] / table[:, 0]
        odds = g_k / (1.0 - g_k)
        prev_odds_inv = ((1.0 - g_prev) / g_prev).reshape(g_prev.shape + (1,))
        assert np.nanmax(np.abs(odds * prev_odds_inv - ratio)) < 1e-12


def test_mu_K_is_outcome_table_mean():
    dgp = toy_k2()
    ex = ExactNuisances(dgp)
    mu = ex.mu_table(dgp.n_blocks, r0=1)
    direct = dgp.p_y[:, 1] @ dgp.y_values
    assert np.allclose(mu, direct, atol=1e-14)


def test_exact_nuisance_set_lookup_matches_tables():
    dgp = toy_k2()
    frame, states = sample(dgp, 500, seed=9)
    ex = ExactNuisances(dgp)
    q = ex.nuisance_set(states, EstimandId.mediator(2))
    g2 = ex.g_table(2)
    manual = g2[states.x_idx, states.m_idx[0], states.m_idx[1]]
    assert np.array_equal(q.g[2], manual)


def test_sampling_frequencies_match_tables():
    dgp = toy_k1()
    frame, states = sample(dgp, 200_000, seed=1)
    assert abs(frame.r.mean() - (dgp.p_x @ dgp.p_r1)) < 0.01
    x1 = frame.x[:, 0] == 1.0
    assert abs(x1.mean() - dgp.p_x[1]) < 0.01
    # conditional mediator frequency in one cell
    cell = x1 & (frame.r == 1)
    assert abs(frame.m_blocks[0][cell, 0].mean() - dgp.mediators[0].table[1, 1, 1]) < 0.02


def test_sampling_deterministic():
    dgp = toy_k1()
    f1, _ = sample(dgp, 100, seed=3)
    f2, _ = sample(dgp, 100, seed=3)
    assert np.array_equal(f1.y, f2.y)
    assert np.array_equal(f1.r, f2.r)


def test_population_frame_reproduces_population_moments():
    dgp = toy_dyadic_k2()
    scale = 2 * 4 * 8 * 8 * 8  # denominators of p_x, p_r, p_m1, p_m2, p_y
    frame, states = population_frame(dgp, scale)
    assert frame.n == scale
    # empirical E[Y | m1, m2, r, x] equals the table values exactly
    ex = ExactNuisances(dgp)
    mu = ex.mu_table(2, r0=1)
    rows = (frame.r == 1) & (frame.x[:, 0] == 0.0) & (frame.m_blocks[0][:, 0] == 1.0) & (frame.m_blocks[1][:, 0] == 0.0)
    assert abs(frame.y[rows].mean() - mu[0, 1, 0]) < 1e-12


def test_population_frame_rejects_non_integral_scale():
    with pytest.raises(OracleError, match="integral"):
        population_frame(toy_dyadic_k2(), 100)


def test_validation_rejects_bad_tables():
    dgp = toy_k1()
    bad = dgp.to_dict()
    bad["p_y"][0][0][0] = [0.45, 0.45]  # row sums to 0.9
    with pytest.raises(OracleError, match="sum to 1"):
        DiscreteDgp.from_dict(bad)

    bad2 = dgp.to_dict()
    bad2["p_r1"][0] = 0.0  # positivity violation on the X support
    with pytest.raises(OracleError, match="positivity"):
        DiscreteDgp.from_dict(bad2)

    bad3 = dgp.to_dict()
    bad3["mediators"][0]["table"][0][0] = [1.0, 0.0]  # arm-0 support excludes m=1
    with pytest.raises(OracleError, match="one arm only"):
        DiscreteDgp.from_dict(bad3)


@pytest.mark.parametrize(
    "path, name",
    [
        (("x_values", 0, 0), "x_values"),
        (("p_x", 0), "p_x"),
        (("p_r1", 1), "p_r1"),
        (("mediators", 0, "values", 1), "mediator 1 values"),
        (("mediators", 0, "table", 0, 0, 1), "mediator 1 table"),
        (("y_values", 0), "y_values"),
        (("p_y", 1, 0, 1, 0), "p_y"),
    ],
)
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_validation_rejects_non_finite_entries(path, name, value):
    payload = toy_k1().to_dict()
    target = payload
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    with pytest.raises(OracleError, match=f"^{name} has non-finite entries"):
        DiscreteDgp.from_dict(payload)


def test_json_roundtrip(tmp_path):
    dgp = toy_k2()
    path = tmp_path / "dgp.json"
    dgp.to_json(str(path))
    back = DiscreteDgp.from_json(str(path))
    assert np.array_equal(back.p_x, dgp.p_x)
    assert np.array_equal(back.p_y, dgp.p_y)
    for a, b in zip(back.mediators, dgp.mediators):
        assert np.array_equal(a.table, b.table)
    assert enumerate_gamma(back, EstimandId.direct()) == enumerate_gamma(dgp, EstimandId.direct())


def test_shipped_fixture_files_match_builders():
    from pathshift.toys import fixture_path

    for name, builder in FIXTURES.items():
        shipped = DiscreteDgp.from_json(fixture_path(name))
        built = builder()
        assert np.array_equal(shipped.p_y, built.p_y), name


def test_toy_k1_frozen_gamma_values():
    # values recomputed independently by brute-force summation over the
    # k=1 tables; frozen here so estimator and oracle regressions are caught
    # even if both drift together
    dgp = toy_k1()
    frozen = {
        "gamma_dis": 0.3702951250,
        "gamma_adv": 0.5433160000,
        "gamma_direct": 0.4849937500,
        "gamma_mediator_1": 0.4253084800,
        "gamma_sequential_1": 0.4849937500,
    }
    for estimand in all_estimands(dgp):
        assert enumerate_gamma(dgp, estimand) == pytest.approx(frozen[estimand.label], abs=1e-12)
