import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scorefit import (
    CorrelationMatrix,
    DimensionError,
    ModelKind,
    NoSolutionError,
    ParallelSpec,
    ScoreWeights,
    ValidationError,
    build_parallel_sigma,
    min_p_for_srmr,
    required_r_curve,
    score_model_implied_sigma,
    solve_r_for_srmr,
    srmr,
    srmr_parallel_closed_form,
)
from scorefit.fit import _srmr_from_residuals


def pipeline_srmr(r, p):
    """Elementwise route: equicorrelation matrix -> projection -> residual RMS."""
    sigma = build_parallel_sigma(ParallelSpec(r, p))
    implied = score_model_implied_sigma(sigma, ScoreWeights.unit(p))
    return srmr(sigma, implied)


class TestSrmr:
    def test_identical_matrices_give_zero(self, stai_sigma):
        assert srmr(stai_sigma, stai_sigma).srmr == 0.0

    def test_hand_computed_two_by_two(self):
        a = CorrelationMatrix([[1.0, 0.3], [0.3, 1.0]])
        b = CorrelationMatrix([[1.0, 0.2], [0.2, 1.0]])
        # Residual 0.1 off-diagonal: sqrt(2 * 0.01 / (2 * 3))
        assert srmr(a, b).srmr == pytest.approx(math.sqrt(0.02 / 6), abs=1e-15)

    def test_symmetric_in_arguments(self, stai_sigma):
        other = build_parallel_sigma(ParallelSpec(0.4, 20))
        assert srmr(stai_sigma, other).srmr == srmr(other, stai_sigma).srmr

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            srmr(CorrelationMatrix(np.eye(3)), CorrelationMatrix(np.eye(4)))

    def test_empty_matrices(self):
        empty = CorrelationMatrix(np.zeros((0, 0)))
        with pytest.raises(DimensionError, match="0x0"):
            srmr(empty, empty)

    def test_recomputable_from_residuals(self, stai_sigma):
        report = pipeline_srmr(0.3, 7)
        assert abs(report.srmr - _srmr_from_residuals(report.residuals)) < 1e-12

    @pytest.mark.parametrize("p", [1, 2, 24])
    def test_stacked_residuals_match_srmr_bitwise(self, p):
        # The kernel scores a (reps, p, p) stack exactly as srmr() scores each
        # slice, bit for bit: simulate and fit-check share it.
        rng = np.random.default_rng(p)
        pairs = []
        for _ in range(7):
            a, b = rng.uniform(-1.0, 1.0, (2, p, p))
            pairs.append((CorrelationMatrix(a + a.T), CorrelationMatrix(b + b.T)))
        stack = np.array([a.values - b.values for a, b in pairs])
        expected = np.array([srmr(a, b).srmr for a, b in pairs])
        assert np.array_equal(_srmr_from_residuals(stack), expected)

    def test_metadata_carried(self, stai_sigma):
        report = srmr(stai_sigma, stai_sigma, ModelKind.UNIT_WEIGHTED, ["note"])
        assert report.model_kind is ModelKind.UNIT_WEIGHTED
        assert report.warnings == ("note",)


class TestClosedForm:
    def test_exactly_zero_at_full_correlation(self):
        for p in (2, 5, 37, 200):
            assert srmr_parallel_closed_form(1.0, p) == 0.0

    @pytest.mark.parametrize(
        "r,p,expected",
        [(0.04, 6, 0.4485), (0.64, 24, 0.0986), (0.36, 12, 0.2353)],
    )
    def test_reference_values(self, r, p, expected):
        assert srmr_parallel_closed_form(r, p) == pytest.approx(expected, abs=5e-5)

    def test_validates_inputs(self):
        with pytest.raises(ValidationError):
            srmr_parallel_closed_form(-0.1, 6)
        with pytest.raises(ValidationError):
            srmr_parallel_closed_form(0.5, 1)

    @pytest.mark.parametrize("r", [0.0, 0.04, 0.16, 0.36, 0.64, 0.9])
    @pytest.mark.parametrize("p", [2, 6, 12, 24, 60])
    def test_matches_elementwise_pipeline(self, r, p):
        assert abs(pipeline_srmr(r, p).srmr - srmr_parallel_closed_form(r, p)) < 1e-12

    def test_residual_structure_of_pipeline(self):
        # p(p-1) off-diagonal residuals of -(1-r)/p and p diagonal residuals of
        # (1-r)(1-1/p); the diagonal is double-weighted in the RMS.
        r, p = 0.36, 6
        resid = pipeline_srmr(r, p).residuals
        off_mask = ~np.eye(p, dtype=bool)
        assert np.allclose(resid[off_mask], -(1 - r) / p, atol=1e-14)
        assert off_mask.sum() == p * (p - 1)
        assert np.allclose(np.diag(resid), (1 - r) * (1 - 1 / p), atol=1e-14)
        total = p * (p - 1) * ((1 - r) / p) ** 2 + 2 * p * ((1 - r) * (1 - 1 / p)) ** 2
        assert srmr_parallel_closed_form(r, p) == pytest.approx(
            math.sqrt(total / (p * (p + 1))), abs=1e-15
        )

    def test_strictly_decreasing_in_r(self):
        for p in (2, 3, 6, 24, 111):
            values = [srmr_parallel_closed_form(r, p) for r in np.linspace(0, 1, 201)]
            assert all(a > b for a, b in zip(values, values[1:]))

    def test_strictly_decreasing_in_p_from_three(self):
        for r in (0.0, 0.2, 0.5, 0.9):
            values = [srmr_parallel_closed_form(r, p) for p in range(3, 200)]
            assert all(a > b for a, b in zip(values, values[1:]))
            # Known exception: the p=2 value sits below the p=3 value.
            assert srmr_parallel_closed_form(r, 2) < srmr_parallel_closed_form(r, 3)

    def test_vanishes_for_huge_p(self):
        # The value decays like sqrt(2/p), so the factor-1000 drop relative to
        # p=10 is reached a little beyond p=1e7.
        for r in (0.0, 0.3, 0.8):
            assert srmr_parallel_closed_form(r, 10**8) < 1e-3 * srmr_parallel_closed_form(r, 10)
            assert srmr_parallel_closed_form(r, 10**7) < 1.2e-3 * srmr_parallel_closed_form(r, 10)


class TestSolveR:
    def test_bracketed_by_direct_evaluation(self):
        # The endpoints straddle the target, so the root must lie between them.
        assert srmr_parallel_closed_form(0.80, 16) > 0.06 > srmr_parallel_closed_form(0.82, 16)
        assert 0.80 < solve_r_for_srmr(0.06, 16) < 0.82

    def test_sixty_indicator_value(self):
        assert solve_r_for_srmr(0.09, 60) == pytest.approx(0.50, abs=0.02)

    def test_round_trip_example(self):
        target = srmr_parallel_closed_form(0.3, 10)
        assert solve_r_for_srmr(target, 10) == pytest.approx(0.3, abs=1e-12)

    @pytest.mark.parametrize("p", [2, 7, 33, 150])
    def test_round_trip_identity_on_grid(self, p):
        for r in np.linspace(0.001, 0.999, 23):
            target = srmr_parallel_closed_form(r, p)
            assert abs(solve_r_for_srmr(target, p) - r) < 1e-12

    def test_residual_tolerance(self):
        r = solve_r_for_srmr(0.09, 60)
        assert abs(srmr_parallel_closed_form(r, 60) - 0.09) < 1e-12

    def test_errors(self):
        with pytest.raises(ValidationError):
            solve_r_for_srmr(0.0, 10)
        with pytest.raises(ValidationError):
            solve_r_for_srmr(-0.1, 10)
        with pytest.raises(NoSolutionError):
            solve_r_for_srmr(0.9, 10)  # above the r=0 ceiling


class TestMinP:
    def test_published_threshold(self):
        assert min_p_for_srmr(0.09, 0.199) > 150

    def test_bracketing_self_check(self):
        result = min_p_for_srmr(0.09, 0.64)
        assert result > 24  # the p=24 cell sits just above 0.09
        assert srmr_parallel_closed_form(0.64, result) <= 0.09
        assert srmr_parallel_closed_form(0.64, result - 1) > 0.09

    def test_boundary_returns_two(self):
        assert min_p_for_srmr(srmr_parallel_closed_form(0.3, 2), 0.3) == 2
        assert min_p_for_srmr(0.99, 0.0) == 2

    def test_exact_tie_resolves_to_that_p(self):
        target = srmr_parallel_closed_form(0.5, 17)
        assert min_p_for_srmr(target, 0.5) == 17

    def test_errors(self):
        with pytest.raises(ValidationError):
            min_p_for_srmr(0.0, 0.5)
        with pytest.raises(ValidationError):
            min_p_for_srmr(0.09, 1.0)

    def test_matches_brute_force_scan(self):
        rng = np.random.default_rng(5)
        for r in rng.uniform(0.0, 0.99, 12):
            values = [srmr_parallel_closed_form(r, p) for p in range(2, 2001)]
            for target in np.exp(rng.uniform(math.log(values[-1]), math.log(0.6), 25)):
                expected = next(p for p, value in enumerate(values, start=2) if value <= target)
                assert min_p_for_srmr(target, r) == expected

    @pytest.mark.parametrize("target", [1e-154, 1e-200, 5e-324])
    @pytest.mark.parametrize("r", [0.0, 0.95])
    def test_beyond_two_to_the_53_is_no_solution(self, target, r):
        with pytest.raises(NoSolutionError, match=r"2\*\*53"):
            min_p_for_srmr(target, r)


@settings(derandomize=True, deadline=None)
@given(
    r=st.floats(0.0, 1.0, exclude_max=True),
    p=st.integers(2, 10**6),
)
def test_inverses_round_trip_and_min_p_is_minimal(r, p):
    target = srmr_parallel_closed_form(r, p)
    assert abs(solve_r_for_srmr(target, p) - r) < 1e-12
    found = min_p_for_srmr(target, r)
    assert srmr_parallel_closed_form(r, found) <= target
    if found > 2:
        # Decreasing from p=3 on, so failing at 2 and at found-1 rules out all below.
        assert srmr_parallel_closed_form(r, 2) > target
        assert srmr_parallel_closed_form(r, found - 1) > target


class TestRequiredRCurve:
    def test_rows_in_deterministic_order(self):
        points = required_r_curve([0.12, 0.06], range(4, 9, 2))
        assert [(pt.p, pt.srmr_level) for pt in points] == [
            (4, 0.06), (4, 0.12), (6, 0.06), (6, 0.12), (8, 0.06), (8, 0.12),
        ]

    def test_monotone_in_p_per_level(self):
        points = required_r_curve([0.06, 0.09, 0.12], range(4, 101))
        for level in (0.06, 0.09, 0.12):
            rs = [pt.required_r for pt in points if pt.srmr_level == level]
            assert all(a > b for a, b in zip(rs, rs[1:]))

    def test_known_cells(self):
        points = {(pt.p, pt.srmr_level): pt.required_r for pt in required_r_curve([0.06, 0.09], [16, 60])}
        assert 0.80 < points[(16, 0.06)] < 0.82
        assert points[(60, 0.09)] == pytest.approx(0.50, abs=0.02)

    def test_unattainable_is_data_not_error(self):
        # The r=0 ceiling is 0.5 at p=2 but ~0.527 at p=3.
        points = required_r_curve([0.51], [2, 3])
        assert points[0].required_r is None
        assert points[1].required_r is not None

    def test_rejects_bad_levels(self):
        with pytest.raises(ValidationError):
            required_r_curve([0.06, -0.01], range(4, 10))

    def test_rejects_empty_levels_or_p_range(self):
        with pytest.raises(ValidationError, match="SRMR level"):
            required_r_curve([], range(4, 10))
        with pytest.raises(ValidationError, match="p range"):
            required_r_curve([0.06], range(4, 4))
