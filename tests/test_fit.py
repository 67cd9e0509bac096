import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scorefit import (
    CorrelationMatrix,
    DimensionError,
    FitReport,
    NoSolutionError,
    ValidationError,
    build_parallel_sigma,
    min_p_for_srmr,
    required_r_curve,
    score_model_implied_sigma,
    solve_r_for_srmr,
    srmr,
    srmr_parallel_closed_form,
)
import scorefit.fit
from scorefit.fit import _srmr_from_squares, _standardized


def pipeline_srmr(r, p):
    """Elementwise route: equicorrelation matrix -> projection -> residual RMS."""
    sigma = build_parallel_sigma(r, p)
    implied = score_model_implied_sigma(sigma, np.ones(p))
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
        other = build_parallel_sigma(0.4, 20)
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
        resid = report.residuals
        assert abs(report.srmr - _srmr_from_squares(resid * resid)) < 1e-12

    @pytest.mark.parametrize("p", [1, 2, 24])
    def test_stacked_residuals_match_srmr_bitwise(self, p):
        # The kernel scores a (reps, p, p) stack of standardized residuals
        # exactly as srmr() scores each slice, bit for bit: simulate and
        # fit-check share it.  The observed variances are not all 1.
        rng = np.random.default_rng(p)
        pairs = []
        for _ in range(7):
            a, b = rng.uniform(-1.0, 1.0, (2, p, p))
            a, b = a + a.T, b + b.T
            np.fill_diagonal(a, rng.uniform(0.25, 4.0, p))
            pairs.append((CorrelationMatrix(a), CorrelationMatrix(b)))
        stack = []
        for a, b in pairs:
            s = 1.0 / np.sqrt(np.diagonal(a.values))
            stack.append((a.values - b.values) * s[:, None] * s)
        stack = np.array(stack)
        reports = [srmr(a, b) for a, b in pairs]
        expected = np.array([report.srmr for report in reports])
        assert np.array_equal(_srmr_from_squares(stack * stack), expected)
        # srmr() squares a copy: its residuals are the standardized ones, unsquared.
        assert all(np.array_equal(r.residuals, s) for r, s in zip(reports, stack))

    @pytest.mark.parametrize("observed, other", [(1.0, 1e200), (1e308, -1e308)])
    def test_residuals_too_large_to_square_raise(self, observed, other):
        # Standardized by the observed variances, the residual is about 1e200
        # in the first case and infinite in the second.
        sigma = CorrelationMatrix([[observed, 0.5], [0.5, observed]])
        model = CorrelationMatrix([[other, 0.5], [0.5, other]])
        with pytest.raises(ValidationError, match="SRMR is not finite"):
            srmr(sigma, model)

    def test_residuals_are_standardized_by_the_observed_variances(self):
        # A residual of 1e200 on a variance of 1e200 is a standardized residual
        # of 1 (to rounding), so the SRMR is sqrt((2 + 2) / 6).
        sigma = CorrelationMatrix([[1e200, 0.5], [0.5, 1e200]])
        model = CorrelationMatrix([[1.0, 0.5], [0.5, 1.0]])
        assert srmr(sigma, model).srmr == pytest.approx(math.sqrt(2.0 / 3.0), rel=1e-15)

    @pytest.mark.parametrize("variance", [0.0, -2.5])
    def test_a_variance_that_is_not_positive_raises(self, variance):
        sigma = CorrelationMatrix([[1.0, 0.0, 0.0], [0.0, variance, 0.0], [0.0, 0.0, 1.0]])
        with pytest.raises(ValidationError, match=f"^variance of indicator 1 is {variance:g}, not positive$"):
            srmr(sigma, CorrelationMatrix(np.eye(3)))


class TestStandardized:
    def test_entries_near_the_float_limit_stay_finite(self):
        # values_ij * s_i * s_j forms no product of two variances.
        values = np.array([[1e308, 5e307], [5e307, 1e308]])
        out = _standardized(values, np.diagonal(values))
        assert np.array_equal(out, [[1.0, 0.5], [0.5, 1.0]])

    def test_an_entry_far_above_its_variances_overflows_without_a_warning(self):
        # The caller rejects the infinite entry; no RuntimeWarning is raised.
        out = _standardized(np.array([[1e-300, 1e300], [1e300, 1e-300]]), np.array([1e-300, 1e-300]))
        assert np.isinf(out[0, 1]) and np.isinf(out[1, 0])

    def test_a_variance_that_is_not_positive_is_named_after_where(self):
        with pytest.raises(ValidationError, match=r"^m\.txt: variance of indicator 2 is -1, not positive$"):
            _standardized(np.eye(3), np.array([1.0, 2.0, -1.0]), "m.txt: ")


class TestFitReport:
    def test_srmr_residuals_are_read_only(self):
        residuals = pipeline_srmr(0.3, 7).residuals
        with pytest.raises(ValueError):
            residuals[0, 0] = 1.0

    def test_keeps_a_float_array_without_copying(self):
        a = np.zeros((3, 3))
        report = FitReport(0.1, a)
        assert np.shares_memory(report.residuals, a)
        assert not a.flags.writeable

    def test_accepts_a_nested_list(self):
        report = FitReport(0.1, [[0.0, 0.5], [0.5, 0.0]])
        assert report.residuals.dtype == float
        assert np.array_equal(report.residuals, [[0.0, 0.5], [0.5, 0.0]])
        assert not report.residuals.flags.writeable


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

    def test_p_beyond_binary64_is_an_error(self):
        # (p-1)(2p-1)/(p+1) is about 2p, which leaves the binary64 range near
        # p = 9e307; every entry point that evaluates K(p) must say so.
        for huge in (10**308, 2**1023, 10**400):
            with pytest.raises(ValidationError, match="too large"):
                srmr_parallel_closed_form(0.5, huge)
            with pytest.raises(ValidationError, match="too large"):
                solve_r_for_srmr(0.01, huge)
            with pytest.raises(ValidationError, match="too large"):
                required_r_curve([0.01], [huge])

    def test_huge_representable_p_still_evaluates(self):
        assert srmr_parallel_closed_form(0.5, 10**300) == 7.071067811865476e-151
        assert srmr_parallel_closed_form(0.5, 10**307) == 2.2360679774997897e-154


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

    def test_walks_up_where_the_estimate_falls_short(self):
        # Near p = 8e15 the closed form at the start estimate ceil(2 x^2),
        # x = (1 - r) / target, is still above the target: the answer is one up.
        target, r = 6.433870768086824e-09, 0.588961823060173
        x = (1.0 - r) / target
        start = math.ceil(2.0 * x * x)
        assert min_p_for_srmr(target, r) == start + 1 == 8162997254518692
        assert srmr_parallel_closed_form(r, start + 1) <= target
        # The start fails, so start + 1 is minimal (the form decreases from p = 3).
        assert srmr_parallel_closed_form(r, start) > target

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


def _solved(level, p):
    try:
        return solve_r_for_srmr(level, p)
    except NoSolutionError:
        return None


def _assert_curve_matches_the_solver(levels, ps):
    curve = required_r_curve(levels, ps)
    expected = [[_solved(level, p) for level in sorted(levels)] for p in sorted(set(ps))]
    # repr tells -0.0 from 0.0 and prints every bit of a float.
    assert repr(curve.levels) == repr(tuple(sorted(levels)))
    assert curve.ps == tuple(sorted(set(ps)))
    assert repr([list(row) for row in curve.required_r]) == repr(expected)
    return curve


# Levels at the r=0 ceilings K(p), where the solver turns from a value to None.
_curve_levels = st.one_of(
    st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
    st.integers(2, 60).map(lambda p: srmr_parallel_closed_form(0.0, p)),
)


class TestRequiredRCurve:
    def test_rows_in_deterministic_order(self):
        curve = required_r_curve([0.12, 0.06], [8, 4, 6, 4])
        assert curve.levels == (0.06, 0.12)
        assert curve.ps == (4, 6, 8)
        assert [len(row) for row in curve.required_r] == [2, 2, 2]

    def test_monotone_in_p_per_level(self):
        curve = required_r_curve([0.06, 0.09, 0.12], range(4, 101))
        by_level = list(zip(*curve.required_r))
        assert len(by_level) == 3
        for rs in by_level:
            assert all(a > b for a, b in zip(rs, rs[1:]))

    def test_known_cells(self):
        curve = required_r_curve([0.06, 0.09], [16, 60])
        assert 0.80 < curve.required_r[0][0] < 0.82  # p = 16, level 0.06
        assert curve.required_r[1][1] == pytest.approx(0.50, abs=0.02)  # p = 60, level 0.09

    def test_unattainable_is_data_not_error(self):
        # The r=0 ceiling is 0.5 at p=2 but ~0.527 at p=3.
        curve = required_r_curve([0.51], [2, 3])
        assert curve.required_r[0] == (None,)
        assert curve.required_r[1][0] is not None

    @pytest.mark.parametrize("levels, ps", [
        ([0.04, 0.06, 0.08, 0.09, 0.12], range(4, 1001)),  # the benchmark's curve
        # K(2) = 0.5 < K(3): levels at and between the two ceilings, from p = 2.
        ([1e-300, 0.09, 0.5, 0.51, srmr_parallel_closed_form(0.0, 3), 0.6], range(2, 50)),
    ])
    def test_matches_the_per_point_solver_bit_for_bit(self, levels, ps):
        curve = _assert_curve_matches_the_solver(levels, ps)
        # Each case reaches the unattainable branch.
        assert any(r is None for row in curve.required_r for r in row)

    @given(
        st.lists(_curve_levels, min_size=1, max_size=6),
        st.lists(st.integers(2, 10**6), min_size=1, max_size=20),
    )
    @settings(derandomize=True, max_examples=100, deadline=None)
    def test_matches_the_per_point_solver_on_drawn_curves(self, levels, ps):
        _assert_curve_matches_the_solver(levels, ps)

    def test_rejects_bad_levels(self):
        with pytest.raises(ValidationError):
            required_r_curve([0.06, -0.01], range(4, 10))

    def test_rejects_empty_levels_or_p_range(self):
        with pytest.raises(ValidationError, match="SRMR level"):
            required_r_curve([], range(4, 10))
        with pytest.raises(ValidationError, match="p range"):
            required_r_curve([0.06], range(4, 4))

    def test_point_cap_counts_levels_times_distinct_p(self, monkeypatch):
        monkeypatch.setattr(scorefit.fit, "MAX_CURVE_POINTS", 6)
        levels = [0.05, 0.06]
        for ps in (range(2, 5), [4, 2, 3, 3, 2]):
            curve = required_r_curve(levels, ps)
            assert sum(map(len, curve.required_r)) == 6
        message = "^the curve is capped at 6 points: 2 SRMR level\\(s\\) allow at most 3 distinct p$"
        # A range too long for len() is refused as well: it is measured by slicing.
        for ps in (range(2, 6), [2, 3, 4, 5], range(2, 10**30)):
            with pytest.raises(ValidationError, match=message):
                required_r_curve(levels, ps)
