import numpy as np
import pytest

import scorefit.simulation as simulation
from scorefit import (
    CorrelationMatrix,
    ScoreWeights,
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
from scorefit.model import PIVOT_TOL, ParallelSpec, cholesky_lower
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
    p = chol.shape[0]
    t = np.zeros((reps, p, p))
    return simulation._bartlett_correlations(chol, n, t, np.tril_indices(p, -1), normals, chisq)


# The kernels as they were before they reused the T buffer and wrote in
# place: the new ones must reproduce them bit for bit.
def oracle_bartlett_correlations(chol, n, reps, normals, chisq):
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


def oracle_srmr(resid):
    p = resid.shape[-1]
    diag = np.diagonal(resid, axis1=-2, axis2=-1)
    total = (resid * resid).sum(axis=(-2, -1)) + (diag * diag).sum(axis=-1)
    return np.sqrt(total / (p * (p + 1)))


def oracle_unit_srmr(corr):
    c = corr.sum(axis=2)
    s = c.sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        values = oracle_srmr(corr - c[:, :, None] * c[:, None, :] / s[:, None, None])
    values[~(s > PIVOT_TOL) | ~np.isfinite(values)] = np.nan
    return values


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
        parallel = build_parallel_sigma(ParallelSpec(0.36, 8))
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

    @pytest.mark.parametrize("p", [2, 6, 12, 24])
    def test_matches_the_oracle_bit_for_bit(self, p):
        lam = np.linspace(0.1, 0.9, p)
        chol = cholesky_lower(population_correlation(lam).values)
        rng = rng_for(100 + p)
        expected = oracle_bartlett_correlations(chol, p + 5, 1, rng, rng)[0]
        assert np.array_equal(sample_correlation(lam, p + 5, rng_for(100 + p)).values, expected)

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
        reference = simulation._unit_srmr(np.array(raw))
        chol = cholesky_lower(population_correlation(lam).values)
        bartlett = simulation._unit_srmr(draw(chol, n, reps, rng, rng))
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
            batched = simulation._unit_srmr(stack)
            for values, value in zip(stack, batched):
                sample = CorrelationMatrix(values)
                implied = score_model_implied_sigma(sample, ScoreWeights.unit(p))
                assert abs(value - srmr(sample, implied).srmr) < 1e-12

    @pytest.mark.parametrize("p", [2, 6, 12, 24])
    def test_blocks_match_the_oracle_bit_for_bit(self, p):
        # One reused T buffer, sliced for a short last block, against the
        # oracle's fresh arrays: 1 replication, a full block, a full block + 1
        # and a half-full last block.
        chol = population_chol(0.5, p, LoadingPattern.VARIABLE)
        block = max(1, simulation._BLOCK_ELEMENTS // (p * p))
        lower = np.tril_indices(p, -1)
        for reps in (1, block, block + 1, 2 * block + block // 2):
            config = SimulationConfig(
                sample_sizes=(150,), mean_loadings=(0.5,), indicator_counts=(p,),
                replications=reps, seed=13,
            )
            new = simulation._cell_generators(13, LoadingPattern.CONSTANT, 150, 0.5, p)
            old = simulation._cell_generators(13, LoadingPattern.CONSTANT, 150, 0.5, p)
            t = np.zeros((min(block, reps), p, p))
            expected = []
            for start in range(0, reps, block):
                size = min(block, reps - start)
                corr = simulation._bartlett_correlations(chol, 150, t[:size], lower, *new)
                reference = oracle_bartlett_correlations(chol, 150, size, *old)
                assert np.array_equal(corr, reference)
                expected.append(oracle_unit_srmr(reference))
                assert np.array_equal(simulation._unit_srmr(corr), expected[-1], equal_nan=True)
                # Only the strict lower triangle and the diagonal are written.
                assert np.array_equal(np.triu(t, 1), np.zeros_like(t))
            assert np.array_equal(
                simulation._replication_srmrs(config, chol, 150, 0.5),
                np.concatenate(expected),
                equal_nan=True,
            )

    def test_unit_srmr_matches_the_oracle_and_leaves_its_input(self):
        off = -0.5 + 1e-13
        stack = np.array([
            np.eye(3),
            [[1.0, off, off], [off, 1.0, off], [off, off, 1.0]],
            np.full((3, 3), np.nan),
            [[1.0, 0.3, -0.2], [0.3, 1.0, 0.6], [-0.2, 0.6, 1.0]],
        ])
        before = stack.copy()
        values = simulation._unit_srmr(stack)
        assert np.array_equal(values, oracle_unit_srmr(stack), equal_nan=True)
        assert np.array_equal(stack, before, equal_nan=True)

    def test_undefined_replications_are_nan(self):
        valid = np.eye(3)
        # Scale variance 1'R 1 = 6e-13, below the Cholesky pivot tolerance.
        off = -0.5 + 1e-13
        zero_scale = np.array([[1.0, off, off], [off, 1.0, off], [off, off, 1.0]])
        not_finite = np.full((3, 3), np.nan)
        values = simulation._unit_srmr(np.array([valid, zero_scale, not_finite]))
        assert np.isfinite(values[0])
        assert np.isnan(values[1:]).all()

    def test_more_replications_extend_the_sequence(self):
        # At p = 24 a block is shorter than 40 replications, so the prefix
        # crosses a block boundary in both runs.
        assert simulation._BLOCK_ELEMENTS // (24 * 24) < 40
        config = SimulationConfig(replications=40, seed=11)
        chol = population_chol(0.4, 24)
        short = simulation._replication_srmrs(config, chol, 300, 0.4)
        longer = simulation._replication_srmrs(
            SimulationConfig(replications=100, seed=11), chol, 300, 0.4
        )
        assert short.shape == (40,)
        assert np.array_equal(short, longer[:40])

    @pytest.mark.parametrize("elements", [1, 1000, 2**20])
    def test_block_size_does_not_change_values(self, monkeypatch, elements):
        config = SimulationConfig(replications=60, seed=12)
        chol = population_chol(0.6, 12)
        expected = simulation._replication_srmrs(config, chol, 150, 0.6)
        monkeypatch.setattr(simulation, "_BLOCK_ELEMENTS", elements)
        assert np.array_equal(simulation._replication_srmrs(config, chol, 150, 0.6), expected)

    def test_nearby_loadings_get_different_streams(self):
        # The loading is keyed by its exact bits; 1e-4 rounding merged these two.
        for a, b in zip(
            simulation._cell_generators(5, LoadingPattern.CONSTANT, 150, 0.4, 6),
            simulation._cell_generators(5, LoadingPattern.CONSTANT, 150, 0.40001, 6),
        ):
            assert not np.array_equal(a.standard_normal(4), b.standard_normal(4))


class TestSimulationConfig:
    def test_defaults_are_valid(self):
        config = SimulationConfig()
        assert config.replications == 1000

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
            implied = score_model_implied_sigma(population, ScoreWeights.unit(c.p))
            expected = srmr(population, implied).srmr
            assert abs(c.population_srmr - expected) <= 1e-15 * expected

    def test_same_seed_same_table(self):
        config = SimulationConfig(**SMALL)
        assert run_simulation(config) == run_simulation(config)

    def test_different_seed_different_table(self):
        a = run_simulation(SimulationConfig(**SMALL))
        b = run_simulation(SimulationConfig(**{**SMALL, "seed": 78}))
        assert a != b

    def test_cells_do_not_depend_on_the_rest_of_the_grid(self):
        # Substreams are keyed by cell parameters, so shrinking the grid must
        # reproduce the shared cell exactly.
        full = run_simulation(SimulationConfig(**SMALL))
        solo = run_simulation(
            SimulationConfig(
                sample_sizes=(300,), mean_loadings=(0.4,), indicator_counts=(12,),
                replications=40, seed=77,
            )
        )[0]
        assert solo in full

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
