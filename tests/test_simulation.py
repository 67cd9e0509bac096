import itertools
import tracemalloc

import numpy as np
import pytest

import scorefit.simulation as simulation
from scorefit import (
    CorrelationMatrix,
    DimensionError,
    ScorefitError,
    SingularMatrixError,
    ValidationError,
    build_parallel_sigma,
    population_correlation,
    population_loadings,
    sample_correlation,
    score_model_implied_sigma,
    srmr,
    srmr_parallel_closed_form,
)
from scorefit.model import PIVOT_TOL, cholesky_lower
from scorefit.simulation import (
    MAX_POPULATION_ENTRIES,
    MAX_REPLICATIONS,
    LoadingPattern,
    SimulationConfig,
    run_simulation,
)


def rng_for(seed):
    return np.random.default_rng(seed)


def population_chol(l, p, pattern=LoadingPattern.CONSTANT):
    loadings = population_loadings(l, p, pattern)
    return cholesky_lower(population_correlation(loadings).values)


def draw(chol, n, reps, normals, chisq):
    # One block of reps replications through the kernels, in arrays of its own.
    p = chol.shape[0]
    t, a, at, r = np.zeros((4, reps, p, p))
    simulation._draw_lower(t, np.tril_indices(p, -1), normals)
    simulation._draw_diagonal(t, n, chisq)
    return simulation._correlations(chol, t, a, at, r)


def unit_srmr(corr):
    # The kernel's values for a stack, its residual built in a buffer of its own.
    return simulation._unit_srmr(corr, np.empty_like(corr))


def cell_streams(seed, pattern, n, p):
    # A cell's normals and chi-square streams, built from their documented
    # keys: (0, pattern, p) and (1, pattern, n, p), the pattern as 0 or 1.
    kind = int(pattern is LoadingPattern.VARIABLE)
    return tuple(
        np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))
        for key in ((0, kind, p), (1, kind, n, p))
    )


def oracle_cell_values(config, n, l, p):
    # Every replication's SRMR of one cell in order, NaN where dropped, all in
    # one oracle block: the kernel's blocks read the streams in the same order.
    chol = population_chol(l, p, config.loading_pattern)
    streams = cell_streams(config.seed, config.loading_pattern, n, p)
    return oracle_unit_srmr(oracle_bartlett_correlations(chol, n, config.replications, *streams))


def assert_moments(cell, values):
    # The cell's count, mean and SD (ddof 0) are those of the values it kept.
    kept = values[~np.isnan(values)]
    assert cell.replications_used == kept.size
    assert cell.mean_srmr_s == pytest.approx(np.mean(kept), rel=1e-13, abs=0)
    assert cell.sd_srmr_s == pytest.approx(np.std(kept), rel=1e-13, abs=0)


def record_unit_srmr(monkeypatch, drop=None):
    # Every replication value run_simulation scores, in order: each call's
    # values, after drop(values) marks some NaN if given, are appended.
    record, kernel = [], simulation._unit_srmr

    def unit_srmr(corr, resid):
        values = kernel(corr, resid)
        if drop is not None:
            drop(values)
        record.append(values.copy())
        return values

    monkeypatch.setattr(simulation, "_unit_srmr", unit_srmr)
    return record


# The kernels with fresh arrays for every step: the ones that write into views
# of a call's reused buffers must reproduce them bit for bit.  R is a a' with a'
# contiguous, the kernel's plain GEMM; it may differ from R' by a last ulp.
def oracle_bartlett_correlations(chol, n, reps, normals, chisq):
    p = chol.shape[0]
    rows, cols = np.tril_indices(p, -1)
    diag = np.arange(p)
    t = np.zeros((reps, p, p))
    t[:, rows, cols] = normals.standard_normal((reps, rows.size))
    t[:, diag, diag] = np.sqrt(chisq.chisquare(n - 1 - diag, size=(reps, p)))
    a = chol @ t
    a = a * (1.0 / np.sqrt(np.einsum("rij,rij->ri", a, a)))[:, :, None]
    corr = a @ np.ascontiguousarray(a.transpose(0, 2, 1))
    corr[:, diag, diag] = 1.0
    return corr


def oracle_srmr(resid):
    p = resid.shape[-1]
    diag = np.diagonal(resid, axis1=-2, axis2=-1)
    total = (resid * resid).sum(axis=(-2, -1)) + (diag * diag).sum(axis=-1)
    return np.sqrt(total / (p * (p + 1)))


def oracle_unit_srmr(corr):
    c = np.einsum("rij->ri", corr)
    s = np.einsum("ri->r", c)
    with np.errstate(divide="ignore", invalid="ignore"):
        u = c / np.sqrt(s)[:, None]
        values = oracle_srmr(corr - u[:, :, None] * u[:, None, :])
    values[~(s > PIVOT_TOL) | ~np.isfinite(values)] = np.nan
    return values


# The textbook forms the kernels replace: R = W / sqrt(d d') from the scatter
# W = a a' with diagonal d, and the implied matrix c c' / s.  The kernels
# round differently, so they are held to these bounds: entries of R (all in
# [-1, 1]) within TEXTBOOK_R_ATOL, and each SRMR within TEXTBOOK_SRMR_RTOL of
# its value plus TEXTBOOK_SRMR_ATOL (for residuals that cancel to rounding
# noise).  Over both patterns, l up to .99, p up to 24 and n from p + 1 to 900
# the worst seen were 1.6e-15 in R, 2.6e-16 absolute in the SRMR and 2.2e-14
# relative where the SRMR exceeds .01.
TEXTBOOK_R_ATOL = 1e-14
TEXTBOOK_SRMR_RTOL = 1e-12
TEXTBOOK_SRMR_ATOL = 1e-15

# GEMM's R, entries in [-1, 1], is symmetric to within this per entry at the p
# tested here (up to 24): BLAS edge tiles round R_ij and R_ji apart at some p
# (17-20 for one), by up to 1.5 eps there and more as p grows (3 eps at 44).
SYMMETRY_ATOL = 2 * np.finfo(float).eps


def textbook_bartlett_correlations(chol, n, reps, normals, chisq):
    p = chol.shape[0]
    rows, cols = np.tril_indices(p, -1)
    diag = np.arange(p)
    t = np.zeros((reps, p, p))
    t[:, rows, cols] = normals.standard_normal((reps, rows.size))
    t[:, diag, diag] = np.sqrt(chisq.chisquare(n - 1 - diag, size=(reps, p)))
    a = chol @ t
    scatter = a @ a.transpose(0, 2, 1)
    d = scatter[:, diag, diag]
    return scatter / np.sqrt(d[:, :, None] * d[:, None, :])


def textbook_unit_srmr(corr):
    c = corr.sum(axis=2)
    s = c.sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        values = oracle_srmr(corr - c[:, :, None] * c[:, None, :] / s[:, None, None])
    values[~(s > PIVOT_TOL) | ~np.isfinite(values)] = np.nan
    return values


def assert_near_textbook_srmr(values, expected):
    np.testing.assert_allclose(
        values, expected, rtol=TEXTBOOK_SRMR_RTOL, atol=TEXTBOOK_SRMR_ATOL, equal_nan=True
    )


class TestPopulationLoadings:
    def test_constant(self):
        assert np.array_equal(
            population_loadings(0.4, 6, LoadingPattern.CONSTANT), np.full(6, 0.4)
        )

    def test_variable_halves(self):
        assert np.allclose(
            population_loadings(0.4, 4, LoadingPattern.VARIABLE), [0.5, 0.5, 0.3, 0.3]
        )

    def test_variable_smallest_case(self):
        assert np.allclose(population_loadings(0.2, 2, LoadingPattern.VARIABLE), [0.3, 0.1])

    def test_odd_p_with_variable_rejected(self):
        with pytest.raises(ValidationError, match="even"):
            population_loadings(0.4, 5, LoadingPattern.VARIABLE)

    def test_out_of_range_loadings_rejected(self):
        with pytest.raises(ValidationError):
            population_loadings(1.1, 4, LoadingPattern.CONSTANT)
        with pytest.raises(ValidationError):
            population_loadings(0.95, 4, LoadingPattern.VARIABLE)


class TestPopulationCorrelation:
    def test_outer_product_off_diagonal(self):
        lam = np.array([0.5, 0.7, 0.3])
        sigma = population_correlation(lam)
        assert sigma.values[0, 1] == pytest.approx(0.35)
        assert sigma.values[1, 2] == pytest.approx(0.21)
        assert np.all(np.diag(sigma.values) == 1.0)

    def test_constant_loadings_match_parallel_matrix(self):
        lam = np.full(8, 0.6)
        direct = population_correlation(lam)
        parallel = build_parallel_sigma(0.36, 8)
        assert np.abs(direct.values - parallel.values).max() < 1e-12


class TestSampleCorrelation:
    def test_deterministic_given_stream(self):
        lam = np.full(5, 0.6)
        a = sample_correlation(lam, 100, rng_for(99))
        b = sample_correlation(lam, 100, rng_for(99))
        assert np.array_equal(a.values, b.values)

    def test_is_standardized(self):
        sample = sample_correlation(np.full(4, 0.5), 50, rng_for(1))
        assert np.allclose(np.diag(sample.values), 1.0, atol=1e-12)
        assert np.abs(sample.values).max() <= 1.0

    def test_independence_smoke(self):
        # Zero loadings: off-diagonals shrink like 1/sqrt(n).
        sample = sample_correlation(np.zeros(6), 100_000, rng_for(2))
        off = sample.values[~np.eye(6, dtype=bool)]
        assert np.abs(off).max() < 0.02

    def test_consistency_smoke(self):
        sample = sample_correlation(np.full(6, 0.8), 100_000, rng_for(3))
        off = sample.values[~np.eye(6, dtype=bool)]
        assert np.abs(off - 0.64).max() < 0.01

    @pytest.mark.parametrize("p", [2, 6, 12, 18, 24])
    def test_matches_the_oracle_bit_for_bit(self, p):
        # p = 18: GEMM's R is not bitwise symmetric, and CorrelationMatrix
        # symmetrizes both sides the same way.
        lam = np.linspace(0.1, 0.9, p)
        chol = cholesky_lower(population_correlation(lam).values)
        values = sample_correlation(lam, p + 5, rng_for(100 + p)).values
        rng = rng_for(100 + p)
        oracle = oracle_bartlett_correlations(chol, p + 5, 1, rng, rng)[0]
        assert np.array_equal(values, CorrelationMatrix(oracle).values)
        rng = rng_for(100 + p)
        textbook = textbook_bartlett_correlations(chol, p + 5, 1, rng, rng)[0]
        np.testing.assert_allclose(values, textbook, rtol=0, atol=TEXTBOOK_R_ATOL)

    def test_too_small_sample_rejected(self):
        with pytest.raises(ValidationError):
            sample_correlation(np.full(5, 0.5), 5, rng_for(4))

    def test_loading_beyond_one_rejected(self):
        with pytest.raises(ValidationError, match=r"must lie in \[-1, 1\]"):
            sample_correlation([0.5, -1.01, 0.5], 50, rng_for(4))

    @pytest.mark.parametrize("p, n", [(2, 3), (6, 7), (24, 25), (24, 900)])
    def test_standardized_and_symmetric(self, p, n):
        values = sample_correlation(np.linspace(0.1, 0.9, p), n, rng_for(p)).values
        assert np.array_equal(values, values.T)
        assert np.array_equal(np.diag(values), np.ones(p))
        assert np.abs(values).max() <= 1.0

    @pytest.mark.parametrize("loadings", [[1.0, 1.0, 0.5], [-1.0, 0.3, 1.0]])
    def test_two_unit_loadings_make_a_singular_population(self, loadings):
        with pytest.raises(SingularMatrixError) as caught:
            sample_correlation(loadings, 50, rng_for(6))
        assert isinstance(caught.value, ScorefitError)

    def test_one_unit_loading_is_still_positive_definite(self):
        values = sample_correlation([1.0, 0.5, 0.5], 50, rng_for(7)).values
        assert np.array_equal(np.diag(values), np.ones(3))
        assert np.abs(values).max() <= 1.0

    def test_null_population_matches_exact_correlation_moment(self):
        # With uncorrelated indicators r^2 ~ Beta(1/2, (n-2)/2), so E[r^2] is
        # 1/(n-1); a chi-square degree of freedom off by one moves it by 1/12.
        n, reps = 4, 20_000
        rng = rng_for(8)
        draws = draw(np.eye(3), n, reps, rng, rng)
        off = draws[:, [0, 0, 1], [1, 2, 2]]
        assert abs((off * off).mean() - 1.0 / (n - 1)) < 0.01

    def test_matches_a_sampler_of_raw_cases(self):
        # Reference: n cases x = lambda f + sqrt(1 - lambda^2) e, correlated
        # directly.  At n = p + 2 any error in the Wishart draw shows in the
        # SRMR distribution; both estimates must agree within 4 standard errors.
        lam, n, reps = np.full(6, 0.6), 8, 4000
        rng = rng_for(9)
        raw = []
        for _ in range(reps):
            draws = rng.standard_normal((n, lam.size + 1))
            x = draws[:, :1] * lam + draws[:, 1:] * np.sqrt(1.0 - lam * lam)
            raw.append(np.corrcoef(x, rowvar=False))
        reference = unit_srmr(np.array(raw))
        chol = cholesky_lower(population_correlation(lam).values)
        bartlett = unit_srmr(draw(chol, n, reps, rng, rng))
        se_mean = np.hypot(reference.std(), bartlett.std()) / np.sqrt(reps)
        se_sd = np.hypot(reference.std(), bartlett.std()) / np.sqrt(2 * reps)
        assert abs(reference.mean() - bartlett.mean()) < 4 * se_mean
        assert abs(reference.std() - bartlett.std()) < 4 * se_sd


class TestReplicationKernel:
    def test_batched_srmr_matches_the_pipeline(self):
        rng = rng_for(10)
        for p in (2, 6, 12, 24):
            chol = cholesky_lower(population_correlation(np.linspace(0.2, 0.8, p)).values)
            stack = draw(chol, 150, 30, rng, rng)
            batched = unit_srmr(stack)
            for values, value in zip(stack, batched):
                sample = CorrelationMatrix(values)
                implied = score_model_implied_sigma(sample, np.ones(p))
                assert abs(value - srmr(sample, implied).srmr) < 1e-12

    @pytest.mark.parametrize("p", [2, 6, 12, 18, 24])
    def test_blocks_match_the_oracle_bit_for_bit(self, p):
        # One reused buffer of T, a, a' and R, with shorter views for a short
        # last block, and T's diagonal rewritten for each n over one lower
        # triangle, against the oracle's fresh arrays and streams of its own for
        # each n: 1 replication, a full block, a full block + 1 and a half-full
        # last block.  At p = 18 GEMM's R is not bitwise symmetric.
        pattern = LoadingPattern.VARIABLE
        chol = population_chol(0.5, p, pattern)
        block = simulation._block_reps(p)
        sizes = (150, 900)
        for reps in (1, block, block + 1, 2 * block + block // 2):
            normals = cell_streams(13, pattern, 150, p)[0]
            chisqs = {n: cell_streams(13, pattern, n, p)[1] for n in sizes}
            oracle = {n: cell_streams(13, pattern, n, p) for n in sizes}
            textbook = {n: cell_streams(13, pattern, n, p) for n in sizes}
            buffers = np.zeros((4, min(block, reps) * p * p))
            lower = np.tril_indices(p, -1)
            for start in range(0, reps, block):
                size = min(block, reps - start)
                t, a, at, r = buffers[:, : size * p * p].reshape(4, size, p, p)
                simulation._draw_lower(t, lower, normals)
                for n in sizes:
                    simulation._draw_diagonal(t, n, chisqs[n])
                    corr = simulation._correlations(chol, t, a, at, r)
                    reference = oracle_bartlett_correlations(chol, n, size, *oracle[n])
                    assert np.array_equal(corr, reference)
                    assert np.abs(corr - corr.transpose(0, 2, 1)).max() <= SYMMETRY_ATOL
                    assert (np.diagonal(corr, axis1=1, axis2=2) == 1.0).all()
                    values = simulation._unit_srmr(corr, a)
                    assert np.array_equal(values, oracle_unit_srmr(reference), equal_nan=True)
                    direct = textbook_bartlett_correlations(chol, n, size, *textbook[n])
                    np.testing.assert_allclose(corr, direct, rtol=0, atol=TEXTBOOK_R_ATOL)
                    assert_near_textbook_srmr(values, textbook_unit_srmr(direct))
                    # Only the strict lower triangle and the diagonal are written.
                    assert np.array_equal(np.triu(t, 1), np.zeros_like(t))

    @pytest.mark.parametrize("pattern", list(LoadingPattern))
    def test_every_cell_matches_the_oracle(self, pattern):
        # Two n, two l and two p, at a replication count that crosses p = 24's
        # block boundaries: each cell's folded mean and SD are those of its
        # oracle replications, drawn from the streams README documents.
        config = SimulationConfig(
            sample_sizes=(150, 900), mean_loadings=(0.4, 0.8), indicator_counts=(6, 24),
            loading_pattern=pattern, replications=2 * simulation._block_reps(24) + 5,
            seed=2**64 - 1,
        )
        for cell in run_simulation(config):
            assert_moments(cell, oracle_cell_values(config, cell.n, cell.l, cell.p))

    def test_unit_srmr_matches_the_oracle_and_leaves_its_input(self):
        off = -0.5 + 1e-13
        stack = np.array([
            np.eye(3),
            [[1.0, off, off], [off, 1.0, off], [off, off, 1.0]],
            np.full((3, 3), np.nan),
            [[1.0, 0.3, -0.2], [0.3, 1.0, 0.6], [-0.2, 0.6, 1.0]],
        ])
        before = stack.copy()
        expected = oracle_unit_srmr(stack)
        assert np.array_equal(unit_srmr(stack), expected, equal_nan=True)
        assert np.array_equal(stack, before, equal_nan=True)
        assert_near_textbook_srmr(expected, textbook_unit_srmr(stack))

    def test_undefined_replications_are_nan(self):
        valid = np.eye(3)
        # Scale variance 1'R 1 = 6e-13, below the Cholesky pivot tolerance.
        off = -0.5 + 1e-13
        zero_scale = np.array([[1.0, off, off], [off, 1.0, off], [off, off, 1.0]])
        not_finite = np.full((3, 3), np.nan)
        values = unit_srmr(np.array([valid, zero_scale, not_finite]))
        assert np.isfinite(values[0])
        assert np.isnan(values[1:]).all()

    def test_more_replications_extend_the_sequence(self, monkeypatch):
        # The prefix crosses a p = 24 block boundary in both runs.
        record = record_unit_srmr(monkeypatch)

        def run(reps):
            record.clear()
            config = SimulationConfig(
                sample_sizes=(300,), mean_loadings=(0.4,), indicator_counts=(24,),
                replications=reps, seed=11,
            )
            return run_simulation(config)[0], np.concatenate(record)

        prefix = simulation._block_reps(24) + 12
        short_cell, short = run(prefix)
        _, longer = run(2 * prefix + 20)
        assert short.shape == (prefix,)
        assert np.array_equal(short, longer[:prefix])
        assert_moments(short_cell, longer[:prefix])

    @pytest.mark.parametrize("elements", [1, 1000, 2**20])
    def test_block_size_does_not_change_values(self, monkeypatch, elements):
        # The replications do not move; the moments, folded in other blocks,
        # move by rounding at most.
        config = SimulationConfig(
            sample_sizes=(150,), mean_loadings=(0.6,), indicator_counts=(12,),
            replications=60, seed=12,
        )
        record = record_unit_srmr(monkeypatch)
        run_simulation(config)
        expected = np.concatenate(record)
        record.clear()
        monkeypatch.setattr(simulation, "_BLOCK_ELEMENTS", elements)
        cell = run_simulation(config)[0]
        assert np.array_equal(np.concatenate(record), expected)
        assert_moments(cell, expected)

    def test_cells_that_share_p_share_their_draws(self, monkeypatch):
        # T's normals are keyed by (pattern, p) and its diagonal by
        # (pattern, n, p); the loading is in neither key.
        seen, kernel = [], simulation._correlations

        def correlations(chol, t, a, at, r):
            seen.append((np.tril(t, -1).copy(), np.diagonal(t, axis1=1, axis2=2).copy()))
            return kernel(chol, t, a, at, r)

        monkeypatch.setattr(simulation, "_correlations", correlations)

        def draws(ns, ls, pattern=LoadingPattern.CONSTANT):
            seen.clear()
            run_simulation(SimulationConfig(
                sample_sizes=ns, mean_loadings=ls, indicator_counts=(6,),
                loading_pattern=pattern, replications=30, seed=5,
            ))
            return list(seen)

        [(lower, diagonal)] = draws((150,), (0.4,))
        for n, l in [(150, 0.40001), (300, 0.4), (900, 0.8)]:
            [(other_lower, other_diagonal)] = draws((n,), (l,))
            assert np.array_equal(other_lower, lower)
            assert np.array_equal(other_diagonal, diagonal) == (n == 150)
        grid = draws((150, 300), (0.4, 0.8))
        assert len(grid) == 4
        assert all(np.array_equal(other_lower, lower) for other_lower, _ in grid)
        [(variable_lower, _)] = draws((150,), (0.4,), LoadingPattern.VARIABLE)
        assert not np.array_equal(variable_lower, lower)

    def test_blocks_work_in_one_allocation_of_the_call(self, monkeypatch):
        # A p = 24 cell of three blocks next to a one-block p = 6 cell: every
        # block's R and residual are views of one array, allocated by the call.
        scored, kernel = [], simulation._unit_srmr

        def unit_srmr(corr, resid):
            scored.append((corr, resid))
            return kernel(corr, resid)

        monkeypatch.setattr(simulation, "_unit_srmr", unit_srmr)
        config = SimulationConfig(
            sample_sizes=(150,), mean_loadings=(0.4,), indicator_counts=(6, 24),
            replications=2 * simulation._BLOCK_ELEMENTS // (24 * 24) + 5,
        )
        run_simulation(config)
        assert [corr.shape[-1] for corr, _ in scored] == [6, 24, 24, 24]
        buffers = scored[0][0].base
        assert buffers.flags.owndata
        for corr, resid in scored:
            assert corr.base is buffers and resid.base is buffers
            assert np.shares_memory(corr, buffers) and np.shares_memory(resid, buffers)
            assert not np.shares_memory(corr, resid)

    def test_a_block_allocates_no_array_of_its_size(self):
        # Past the call's four block-sized buffers, the three blocks of the
        # cell, and its population, allocate less than one block array.
        p = 24
        block = simulation._block_reps(p)
        config = SimulationConfig(
            sample_sizes=(150,), mean_loadings=(0.4,), indicator_counts=(p,),
            replications=3 * block,
        )
        expected = run_simulation(config)
        tracemalloc.start()
        try:
            cells = run_simulation(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cells == expected
        assert peak < 5 * block * p * p * 8


class TestSimulationConfig:
    def test_defaults_are_valid(self):
        config = SimulationConfig()
        assert config.replications == 1000
        assert SimulationConfig(sample_sizes=(np.int64(150),)).sample_sizes == (150,)

    def test_rejects_bad_values(self):
        with pytest.raises(ValidationError):
            SimulationConfig(replications=0)
        with pytest.raises(ValidationError):
            SimulationConfig(sample_sizes=(10,), indicator_counts=(12,))
        with pytest.raises(ValidationError):
            SimulationConfig(mean_loadings=(0.95,), loading_pattern=LoadingPattern.VARIABLE)
        with pytest.raises(ValidationError):
            SimulationConfig(seed=-1)
        with pytest.raises(ValidationError, match="^need p >= 2 indicators, got 1$"):
            SimulationConfig(indicator_counts=(6, 1))
        with pytest.raises(ValidationError, match="above 2\\*\\*63"):
            SimulationConfig(sample_sizes=(150, 2**63 + 1))

    def test_replication_cap(self):
        # A config allocates nothing, so the cap itself can be built.
        assert SimulationConfig(replications=MAX_REPLICATIONS).replications == MAX_REPLICATIONS
        message = f"^need 1 to {MAX_REPLICATIONS} replications, got {MAX_REPLICATIONS + 1}$"
        with pytest.raises(ValidationError, match=message):
            SimulationConfig(replications=MAX_REPLICATIONS + 1)

    def test_population_cap_counts_distinct_loadings_times_sum_of_p_squared(self):
        def config(loadings, ps):
            return SimulationConfig(sample_sizes=(4097,), mean_loadings=loadings, indicator_counts=ps)

        assert MAX_POPULATION_ENTRIES == 4096**2
        config((0.4, 0.4), (4096, 4096))  # repeated values share one population
        config((0.4,), (4094, 90))
        with pytest.raises(ValidationError, match="^the \\(l, p\\) populations hold 33554432 "):
            config((0.4, 0.5), (4096,))
        with pytest.raises(ValidationError, match="hold 16777225 correlation entries, above the cap"):
            config((0.4,), (4096, 3))

    @pytest.mark.parametrize("axis", ["sample_sizes", "mean_loadings", "indicator_counts"])
    def test_rejects_an_empty_grid_axis(self, axis):
        with pytest.raises(ValidationError, match="must be non-empty"):
            SimulationConfig(**{axis: ()})

    def test_variable_odd_p_fails_at_construction(self):
        # Every p is checked up front, with the message its cell would raise.
        with pytest.raises(ValidationError, match="^variable pattern needs an even p, got 5$"):
            SimulationConfig(
                sample_sizes=(50,),
                mean_loadings=(0.4,),
                indicator_counts=(6, 5),
                loading_pattern=LoadingPattern.VARIABLE,
                replications=2,
            )


# One integer rule and one sample-size rule, p + 1 <= n <= 2**63, for both
# entry points: numpy integers pass, and floats (integral ones too) and bools do not.
@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda rng: SimulationConfig(sample_sizes=(150.7,)), id="config-float-n"),
        pytest.param(lambda rng: SimulationConfig(sample_sizes=(150.0,)), id="config-integral-float-n"),
        pytest.param(lambda rng: SimulationConfig(indicator_counts=(6.9,)), id="config-float-p"),
        pytest.param(lambda rng: SimulationConfig(replications=2.5), id="config-float-reps"),
        pytest.param(lambda rng: SimulationConfig(replications=True), id="config-bool-reps"),
        pytest.param(lambda rng: SimulationConfig(seed=1.5), id="config-float-seed"),
        pytest.param(lambda rng: sample_correlation([], 5, rng), id="sample-no-loadings"),
        pytest.param(lambda rng: sample_correlation([[0.5, 0.5], [0.5, 0.5]], 5, rng), id="sample-matrix"),
        pytest.param(lambda rng: sample_correlation([0.5, 0.5], 3.5, rng), id="sample-float-n"),
        pytest.param(lambda rng: sample_correlation([0.5, 0.5], 2**70, rng), id="sample-n-over-2**63"),
    ],
)
def test_bad_design_values_raise_before_anything_is_drawn(call):
    rng = rng_for(5)
    state = rng.bit_generator.state
    with pytest.raises((ValidationError, DimensionError)):
        call(rng)
    assert rng.bit_generator.state == state


SMALL = dict(sample_sizes=(150, 300), mean_loadings=(0.4,), indicator_counts=(6, 12), replications=40, seed=77)


class TestRunSimulation:
    def test_cell_order_and_population_values(self):
        cells = run_simulation(SimulationConfig(**SMALL))
        assert [(c.n, c.l, c.p) for c in cells] == [
            (150, 0.4, 6), (150, 0.4, 12), (300, 0.4, 6), (300, 0.4, 12),
        ]
        for c in cells:
            assert abs(c.population_srmr - srmr_parallel_closed_form(c.l**2, c.p)) < 1e-12
            assert c.replications_used == 40
            assert c.sd_srmr_s >= 0.0

    @pytest.mark.parametrize("pattern", list(LoadingPattern))
    def test_population_srmr_matches_the_projection_pipeline(self, pattern):
        config = SimulationConfig(
            sample_sizes=(150,), mean_loadings=(0.2, 0.5, 0.8), indicator_counts=(2, 6, 24),
            loading_pattern=pattern, replications=1, seed=3,
        )
        for c in run_simulation(config):
            population = population_correlation(population_loadings(c.l, c.p, pattern))
            implied = score_model_implied_sigma(population, np.ones(c.p))
            expected = srmr(population, implied).srmr
            assert c.population_srmr == expected

    def test_population_srmr_matches_the_closed_form(self):
        # The pipeline does not cancel as l nears 1, where R - u u' would.
        config = SimulationConfig(
            sample_sizes=(150,), mean_loadings=(0.2, 0.8, 0.99, 0.9999999),
            indicator_counts=(2, 6, 24), replications=1,
        )
        for c in run_simulation(config):
            closed_form = srmr_parallel_closed_form(c.l * c.l, c.p)
            assert c.population_srmr == pytest.approx(closed_form, rel=1e-14, abs=0)

    def test_same_seed_same_table(self):
        config = SimulationConfig(**SMALL)
        assert run_simulation(config) == run_simulation(config)

    def test_different_seed_different_table(self):
        a = run_simulation(SimulationConfig(**SMALL))
        b = run_simulation(SimulationConfig(**{**SMALL, "seed": 78}))
        assert a != b

    def test_cells_do_not_depend_on_the_rest_of_the_grid(self):
        # A cell reads its streams from the start in blocks sized by p alone,
        # so running it alone must reproduce its values in the grid exactly.
        design = dict(
            sample_sizes=(150, 300), mean_loadings=(0.4, 0.6), indicator_counts=(6, 24),
            replications=40, seed=77,
        )
        full = run_simulation(SimulationConfig(**design))
        assert len(full) == 8
        for cell in full:
            solo = SimulationConfig(
                **{**design, "sample_sizes": (cell.n,), "mean_loadings": (cell.l,),
                   "indicator_counts": (cell.p,)}
            )
            assert run_simulation(solo) == [cell]

    def test_each_population_is_built_once_per_call(self, monkeypatch):
        # The 3 sample sizes share each of the 4 x 3 (l, p) populations; a
        # second identical call builds them again, so nothing outlives a call.
        calls = []

        def counted(matrix):
            calls.append(matrix.shape[0])
            return cholesky_lower(matrix)

        monkeypatch.setattr(simulation, "cholesky_lower", counted)
        config = SimulationConfig(replications=1)
        first = run_simulation(config)
        assert len(first) == 36 and len(calls) == 12
        assert run_simulation(config) == first
        assert len(calls) == 24

    def test_fold_matches_numpy_moments(self):
        # Blocks of every size from 1 up, some with dropped (NaN) values and one
        # with nothing kept, folded in order: numpy's mean and SD of the kept.
        rng = rng_for(14)
        values = rng.normal(0.3, 0.01, 5000)
        values[rng.random(values.size) < 0.05] = np.nan
        values[100:140] = np.nan
        moments, start = simulation._NO_VALUES, 0
        for size in itertools.cycle((1, 2, 40, 455, 1000)):
            moments = simulation._fold(moments, values[start : start + size])
            start += size
            if start >= values.size:
                break
        kept = values[~np.isnan(values)]
        count, mean, m2 = moments
        assert count == kept.size
        assert mean == pytest.approx(np.mean(kept), rel=1e-13, abs=0)
        assert np.sqrt(m2 / count) == pytest.approx(np.std(kept), rel=1e-13, abs=0)

    def test_dropped_replications_leave_the_moments_of_the_kept(self, monkeypatch):
        # Every third value of each block is dropped; at p = 24 the cell folds
        # three blocks.
        record = record_unit_srmr(monkeypatch, drop=lambda values: values.__setitem__(
            slice(None, None, 3), np.nan))
        reps = 2 * simulation._block_reps(24) + 5
        config = SimulationConfig(
            sample_sizes=(150,), mean_loadings=(0.4,), indicator_counts=(24,), replications=reps,
        )
        [cell] = run_simulation(config)
        values = np.concatenate(record)
        assert 0 < cell.replications_used < reps
        assert_moments(cell, values)

    def test_a_cell_that_drops_every_replication(self, monkeypatch):
        record_unit_srmr(monkeypatch, drop=lambda values: values.fill(np.nan))
        [cell] = run_simulation(SimulationConfig(
            sample_sizes=(150,), mean_loadings=(0.4,), indicator_counts=(6,), replications=3,
        ))
        assert cell.replications_used == 0
        assert np.isnan(cell.mean_srmr_s) and np.isnan(cell.sd_srmr_s)

    def test_memory_does_not_grow_with_the_replications(self):
        # One cell's peak at 20,000 and at 200,000 replications differs by less
        # than one block array, and stays below one float64 per replication: a
        # cell that held its values would grow by 1.44 MB between the two.  A
        # first call warms numpy up, so neither peak counts its one-off costs.
        def peak(reps):
            config = SimulationConfig(
                sample_sizes=(150,), mean_loadings=(0.4,), indicator_counts=(6,),
                replications=reps,
            )
            tracemalloc.start()
            try:
                [cell] = run_simulation(config)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert cell.replications_used == reps
            return peak

        peak(1)
        reps = 200_000
        fewer, more = peak(reps // 10), peak(reps)
        assert abs(more - fewer) < simulation._block_reps(6) * 6 * 6 * 8
        assert more < reps * 8

    def test_single_replication_has_zero_sd(self):
        cells = run_simulation(
            SimulationConfig(
                sample_sizes=(150,), mean_loadings=(0.6,), indicator_counts=(6,),
                replications=1, seed=5,
            )
        )
        assert cells[0].sd_srmr_s == 0.0
        assert cells[0].replications_used == 1


class TestDeskScaleProperties:
    """Trend properties of the full design; shares the session-level run."""

    def test_population_srmr_variable_close_to_constant(self, desk_scale_tables):
        constant = {(c.l, c.p): c.population_srmr for c in desk_scale_tables[LoadingPattern.CONSTANT]}
        variable = {(c.l, c.p): c.population_srmr for c in desk_scale_tables[LoadingPattern.VARIABLE]}
        for key, value in variable.items():
            # The gap peaks at 0.0105 for (l=.8, p=6); everywhere else < 0.01.
            assert abs(value - constant[key]) <= 0.011

    def test_mean_converges_to_population_as_n_grows(self, desk_scale_tables):
        for cells in desk_scale_tables.values():
            by = {(c.n, c.l, c.p): c for c in cells}
            inversions = 0
            for l in (0.2, 0.4, 0.6, 0.8):
                for p in (6, 12, 24):
                    gaps = [
                        abs(by[(n, l, p)].mean_srmr_s - by[(n, l, p)].population_srmr)
                        for n in (150, 300, 900)
                    ]
                    if not gaps[0] >= gaps[1] >= gaps[2]:
                        inversions += 1
            assert inversions <= 1

    def test_sd_decreases_with_n(self, desk_scale_tables):
        for cells in desk_scale_tables.values():
            by = {(c.n, c.l, c.p): c for c in cells}
            decreasing = sum(
                by[(150, l, p)].sd_srmr_s > by[(300, l, p)].sd_srmr_s > by[(900, l, p)].sd_srmr_s
                for l in (0.2, 0.4, 0.6, 0.8)
                for p in (6, 12, 24)
            )
            assert decreasing >= 10
