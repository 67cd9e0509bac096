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
from scorefit.model import ParallelSpec, cholesky_lower
from scorefit.simulation import (
    LoadingPattern,
    SimulationConfig,
    run_simulation,
)


def rng_for(seed):
    return np.random.default_rng(seed)


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
        assert sample.is_standardized
        assert np.allclose(np.diag(sample.values), 1.0, atol=1e-12)

    def test_independence_smoke(self):
        # Zero loadings: off-diagonals shrink like 1/sqrt(n).
        sample = sample_correlation(np.zeros(6), 100_000, rng_for(2))
        off = sample.values[~np.eye(6, dtype=bool)]
        assert np.abs(off).max() < 0.02

    def test_consistency_smoke(self):
        sample = sample_correlation(np.full(6, 0.8), 100_000, rng_for(3))
        off = sample.values[~np.eye(6, dtype=bool)]
        assert np.abs(off - 0.64).max() < 0.01

    def test_too_small_sample_rejected(self):
        with pytest.raises(ValidationError):
            sample_correlation(np.full(5, 0.5), 5, rng_for(4))

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
        assert sample_correlation([1.0, 0.5, 0.5], 50, rng_for(7)).is_standardized

    def test_null_population_matches_exact_correlation_moment(self):
        # With uncorrelated indicators r^2 ~ Beta(1/2, (n-2)/2), so E[r^2] is
        # 1/(n-1); a chi-square degree of freedom off by one moves it by 1/12.
        n, reps = 4, 20_000
        rng = rng_for(8)
        draws = simulation._bartlett_correlations(np.eye(3), n, reps, rng, rng)
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
        bartlett = simulation._unit_srmr(
            simulation._bartlett_correlations(chol, n, reps, rng, rng)
        )
        se_mean = np.hypot(reference.std(), bartlett.std()) / np.sqrt(reps)
        se_sd = np.hypot(reference.std(), bartlett.std()) / np.sqrt(2 * reps)
        assert abs(reference.mean() - bartlett.mean()) < 4 * se_mean
        assert abs(reference.std() - bartlett.std()) < 4 * se_sd


class TestReplicationKernel:
    def test_batched_srmr_matches_the_pipeline(self):
        rng = rng_for(10)
        for p in (2, 6, 12, 24):
            chol = cholesky_lower(population_correlation(np.linspace(0.2, 0.8, p)).values)
            stack = simulation._bartlett_correlations(chol, 150, 30, rng, rng)
            batched = simulation._unit_srmr(stack)
            for values, value in zip(stack, batched):
                sample = CorrelationMatrix(values)
                implied = score_model_implied_sigma(sample, ScoreWeights.unit(p))
                assert abs(value - srmr(sample, implied).srmr) < 1e-12

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
        short = simulation._replication_srmrs(config, 300, 0.4, 24)
        longer = simulation._replication_srmrs(
            SimulationConfig(replications=100, seed=11), 300, 0.4, 24
        )
        assert short.shape == (40,)
        assert np.array_equal(short, longer[:40])

    @pytest.mark.parametrize("elements", [1, 1000, 2**20])
    def test_block_size_does_not_change_values(self, monkeypatch, elements):
        config = SimulationConfig(replications=60, seed=12)
        expected = simulation._replication_srmrs(config, 150, 0.6, 12)
        monkeypatch.setattr(simulation, "_BLOCK_ELEMENTS", elements)
        assert np.array_equal(simulation._replication_srmrs(config, 150, 0.6, 12), expected)

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

    def test_variable_odd_p_fails_at_run(self):
        config = SimulationConfig(
            sample_sizes=(50,),
            mean_loadings=(0.4,),
            indicator_counts=(5,),
            loading_pattern=LoadingPattern.VARIABLE,
            replications=2,
        )
        with pytest.raises(ValidationError, match="even"):
            run_simulation(config)


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
