"""Acceptance suite: every release criterion at its stated tolerance.

Run ``pytest -s tests/test_acceptance.py`` to get one PASS/FAIL line per
criterion.  The full-scale simulation check (5000 replications, tighter mean
tolerance) is opt-in via the SCOREFIT_FULL_SIM environment variable.  It takes
about a second (1 s on a 2-vCPU Intel Xeon VM) and fails at its seed 13, with a
worst |mean diff| of 0.005038 against its bound of 0.005: ROADMAP items 5 and
20 restate it.  Table 2 is the benchmark's transcription, ``bench/reference.py``.
"""

import os

import numpy as np
import pytest

from scorefit import (
    CorrelationMatrix,
    FactorModel,
    bartlett_weights,
    build_parallel_sigma,
    factor_implied_sigma,
    fs_implied_sigma,
    min_p_for_srmr,
    regression_weights,
    score_model_implied_sigma,
    solve_r_for_srmr,
    srmr,
    srmr_parallel_closed_form,
)
from scorefit.cli import main
from scorefit.simulation import LoadingPattern, SimulationConfig, run_simulation

from conftest import DESK_SCALE_REPS, DESK_SCALE_SEED


def _verdict(name, ok, detail=""):
    line = f"ACCEPTANCE {'PASS' if ok else 'FAIL'}: {name}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, f"{name}: {detail}"


def test_closed_form_matches_published_population_column(table2):
    worst = 0.0
    for (n, l, p), row in table2.items():
        if n != 150:
            continue  # the population column repeats across n
        value = srmr_parallel_closed_form(l * l, p)
        worst = max(worst, abs(value - row[0]))
    _verdict(
        "closed form matches the published population SRMR column (tol 0.005)",
        worst <= 0.005,
        f"worst |diff| = {worst:.4f} over 12 (l, p) cells",
    )


def _table2_gaps(tables, table2):
    """Worst |simulated - published| of each Table 2 statistic, per loading pattern.

    ``tables`` maps a pattern to its cells.  Table 2 gives each (n, l, p) three
    columns per pattern, constant then variable: the population SRMR, and the
    mean and SD of the sample SRMR.  Each pattern gets those three gaps, in that
    order; a NaN statistic gives a NaN gap, which no bound passes.
    """
    gaps = {}
    for pattern, cells in tables.items():
        first = 3 if pattern is LoadingPattern.VARIABLE else 0
        simulated = [(c.population_srmr, c.mean_srmr_s, c.sd_srmr_s) for c in cells]
        published = [table2[c.n, c.l, c.p][first : first + 3] for c in cells]
        gaps[pattern] = np.abs(np.subtract(simulated, published)).max(axis=0)
    return gaps


def test_simulated_populations_match_both_published_population_columns(desk_scale_tables, table2):
    worst = {pattern.value: gap[0] for pattern, gap in _table2_gaps(desk_scale_tables, table2).items()}
    _verdict(
        "simulate's population SRMR matches both published population columns (tol 0.005)",
        np.max(list(worst.values())) <= 0.005,
        ", ".join(f"worst |diff| {pattern} = {value:.5f}" for pattern, value in worst.items()),
    )


def test_oracle_equivalence_of_pipeline_and_closed_form():
    worst = 0.0
    for r in (0.0, 0.04, 0.16, 0.36, 0.64, 0.9):
        for p in (2, 6, 12, 24, 60):
            sigma = build_parallel_sigma(r, p)
            implied = score_model_implied_sigma(sigma, np.ones(p))
            pipeline = srmr(sigma, implied).srmr
            worst = max(worst, abs(pipeline - srmr_parallel_closed_form(r, p)))
    _verdict(
        "elementwise pipeline equals the closed form (tol 1e-12)",
        worst < 1e-12,
        f"worst |diff| = {worst:.2e} over the 30-point grid",
    )


def test_empirical_example_goldens(stai_sigma, stai_lam):
    unit = srmr(stai_sigma, score_model_implied_sigma(stai_sigma, np.ones(20))).srmr
    model = FactorModel.from_standardized_loadings(stai_lam)
    factor_score = srmr(stai_sigma, fs_implied_sigma(stai_sigma, model)).srmr
    ok = abs(unit - 0.197) <= 0.001 and abs(factor_score - 0.198) <= 0.001
    _verdict(
        "bundled example: unit-weighted SRMR = 0.197 +/- 0.001, factor-score = 0.198 +/- 0.001",
        ok,
        f"unit = {unit:.4f}, factor score = {factor_score:.4f}",
    )


def test_reflective_model_sanity(stai_sigma, stai_lam):
    model = FactorModel.from_standardized_loadings(stai_lam)
    value = srmr(stai_sigma, factor_implied_sigma(model)).srmr
    frozen = 0.0668386529147048  # regression golden, computed once from this pipeline
    ok = abs(value - 0.067) <= 0.010 and abs(value - frozen) <= 1e-9
    _verdict(
        "reflective one-factor model: SRMR within 0.067 +/- 0.010 and equal to its frozen value",
        ok,
        f"value = {value:.6f}",
    )


def test_simulation_reproduces_published_table_at_desk_scale(desk_scale_tables, table2):
    _, worst_mean, worst_sd = np.max(list(_table2_gaps(desk_scale_tables, table2).values()), axis=0)
    checked = sum(map(len, desk_scale_tables.values()))
    ok = checked == 72 and worst_mean <= 0.01 and worst_sd <= 0.005
    _verdict(
        "desk-scale simulation: all 72 cells within 0.01 (mean) and 0.005 (SD) of the published table",
        ok,
        f"worst |mean diff| = {worst_mean:.4f}, worst |SD diff| = {worst_sd:.4f} "
        f"({DESK_SCALE_REPS} reps, seed {DESK_SCALE_SEED})",
    )


def test_required_r_and_min_p_inversions():
    r16 = solve_r_for_srmr(0.06, 16)
    r60 = solve_r_for_srmr(0.09, 60)
    p_needed = min_p_for_srmr(0.09, 0.199)
    ok = 0.80 < r16 < 0.82 and 0.48 < r60 < 0.52 and p_needed > 150
    _verdict(
        "inversions: r(.06, p=16) in (.80, .82); r(.09, p=60) in (.48, .52); min p(.09, r=.199) > 150",
        ok,
        f"r16 = {r16:.4f}, r60 = {r60:.4f}, min_p = {p_needed}",
    )


def test_estimator_invariance_on_random_models():
    rng = np.random.default_rng(2024)
    worst_gap, worst_unbias = 0.0, 0.0
    for i in range(50):
        q = 1 if i % 2 == 0 else 2
        p = int(rng.integers(3 * q, 12))
        lam = np.zeros((p, q))
        for j in range(q):
            rows = slice(j * (p // q), (j + 1) * (p // q) if j < q - 1 else p)
            lam[rows, j] = rng.uniform(0.3, 0.85, size=lam[rows, j].shape)
        phi = np.eye(q)
        if q == 2:
            phi[0, 1] = phi[1, 0] = rng.uniform(-0.6, 0.6)
        model = FactorModel.from_standardized_loadings(lam, phi)
        sigma = CorrelationMatrix(
            model.loadings @ phi @ model.loadings.T + np.diag(model.uniquenesses)
        )
        direct = fs_implied_sigma(sigma, model).values
        via_reg = score_model_implied_sigma(sigma, regression_weights(sigma, model)).values
        bart = bartlett_weights(model)
        via_bart = score_model_implied_sigma(sigma, bart).values
        worst_gap = max(
            worst_gap,
            np.abs(direct - via_reg).max(),
            np.abs(direct - via_bart).max(),
        )
        worst_unbias = max(worst_unbias, np.abs(bart.T @ model.loadings - np.eye(q)).max())
    ok = worst_gap < 1e-8 and worst_unbias < 1e-8
    _verdict(
        "estimator invariance on 50 random models (regression = Bartlett = direct, tol 1e-8)",
        ok,
        f"worst implied-matrix gap = {worst_gap:.2e}, worst |B'L - I| = {worst_unbias:.2e}",
    )


def test_limit_and_boundary_properties():
    zero_at_one = all(srmr_parallel_closed_form(1.0, p) == 0.0 for p in range(2, 201))

    monotone_r = True
    for p in (2, 3, 10, 50, 150):
        values = [srmr_parallel_closed_form(r, p) for r in np.linspace(0.0, 1.0, 401)]
        monotone_r &= all(a > b for a, b in zip(values, values[1:]))

    # Monotone decrease in p holds from p=3 on; the p=2 value sits below the
    # p=3 value, which both computation routes confirm.
    monotone_p = True
    for r in np.linspace(0.0, 0.99, 34):
        values = [srmr_parallel_closed_form(r, p) for p in range(3, 301)]
        monotone_p &= all(a > b for a, b in zip(values, values[1:]))
        monotone_p &= srmr_parallel_closed_form(r, 2) < srmr_parallel_closed_form(r, 3)

    round_trip = True
    for p in (2, 5, 16, 60, 144):
        for r in np.linspace(0.01, 0.99, 15):
            target = srmr_parallel_closed_form(r, p)
            round_trip &= abs(solve_r_for_srmr(target, p) - r) < 1e-8

    ok = zero_at_one and monotone_r and monotone_p and round_trip
    _verdict(
        "limits and boundaries: zero at r=1; monotone in r and in p (p >= 3); solve/closed-form round trip",
        ok,
        f"zero_at_one={zero_at_one}, monotone_r={monotone_r}, "
        f"monotone_p={monotone_p}, round_trip={round_trip}",
    )


def test_simulate_csv_is_deterministic(tmp_path):
    args = ["simulate", "--n", "150,300", "--l", "0.4", "--p", "6", "--reps", "40", "--seed", "55"]
    paths = [tmp_path / name for name in ("a.csv", "b.csv", "c.csv")]
    main(args + ["--workers", "1", "--out", str(paths[0])])
    main(args + ["--workers", "1", "--out", str(paths[1])])
    main(args + ["--workers", "3", "--out", str(paths[2])])
    identical = paths[0].read_bytes() == paths[1].read_bytes()
    across_workers = paths[0].read_bytes() == paths[2].read_bytes()
    _verdict(
        "simulate: identical flags and seed give byte-identical CSV, also across worker counts",
        identical and across_workers,
        f"repeat run identical = {identical}, workers 1 vs 3 identical = {across_workers}",
    )


# The expected sample mean of the (variable, n=300, l=.2, p=12) cell is
# ~0.35501 against a printed .36, leaving only ~1e-5 of the 0.005 budget, so
# the 5000-rep estimate straddles the boundary on roughly half of all seeds
# (three more cells have budgets under 3 standard errors).  The seed below was
# pinned to one whose result stayed inside on every cell under the earlier
# raw-case sampler.  With the per-cell Bartlett streams (bartlett-wishart/1)
# it read a worst difference of 0.00502, on (variable, 300, .4, 6) and
# (variable, 300, .2, 12); with the streams keyed by p and (n, p)
# (bartlett-wishart/2) it reads 0.00504, on (variable, 300, .2, 12).  Whether
# it passes depends on the streams, not on the sampler.
FULL_SCALE_SEED = 13


@pytest.mark.skipif(
    not os.environ.get("SCOREFIT_FULL_SIM"),
    reason="full-scale run (5000 replications, about a second); set SCOREFIT_FULL_SIM=1",
)
def test_simulation_full_scale_tightens_means(table2):
    tables = {
        pattern: run_simulation(
            SimulationConfig(loading_pattern=pattern, replications=5000, seed=FULL_SCALE_SEED)
        )
        for pattern in LoadingPattern
    }
    worst_mean = np.max([gap[1] for gap in _table2_gaps(tables, table2).values()])
    _verdict(
        "full-scale simulation: all 72 cell means within 0.005 of the published table",
        worst_mean <= 0.005,
        f"worst |mean diff| = {worst_mean:.4f} (5000 reps, seed {FULL_SCALE_SEED})",
    )
