"""Population SRMRs against the matrix-free one-factor oracles in ``oracles.py``.

The oracles build the loadings and sum O(p) terms in plain Python floats, so
neither the library's loading rules nor its SRMR kernel stands behind both
sides of a comparison.
"""

import json
import random

import pytest

import oracles
from scorefit.cli import main
from scorefit.simulation import LoadingPattern, SimulationConfig, run_simulation


def design_loadings(l, p, pattern):
    # The published design: every loading l, or the first half l + .1 and the
    # second half l - .1.
    if pattern is LoadingPattern.CONSTANT:
        return [l] * p
    return [l + 0.1] * (p // 2) + [l - 0.1] * (p // 2)


def assert_populations_match_the_oracle(config):
    cells = run_simulation(config)
    assert cells
    for cell in cells:
        expected = oracles.unit_weighted_srmr(design_loadings(cell.l, cell.p, cell.pattern))
        assert cell.population_srmr == pytest.approx(expected, rel=1e-13, abs=0)


@pytest.mark.parametrize("pattern", list(LoadingPattern))
def test_simulate_populations_of_the_default_grid(pattern):
    assert_populations_match_the_oracle(
        SimulationConfig(loading_pattern=pattern, replications=1)
    )


@pytest.mark.parametrize("pattern", list(LoadingPattern))
def test_simulate_populations_of_drawn_loadings(pattern):
    rng = random.Random(f"oracle-{pattern.value}")
    loadings = tuple(round(rng.uniform(0.11, 0.89), 4) for _ in range(6))
    ps = tuple(sorted({2 * rng.randint(1, 20) for _ in range(6)}))
    assert_populations_match_the_oracle(SimulationConfig(
        sample_sizes=(max(ps) + 1,), mean_loadings=loadings, indicator_counts=ps,
        loading_pattern=pattern, replications=1,
    ))


@pytest.mark.parametrize("metric", ["correlation", "covariance"])
@pytest.mark.parametrize("p, seed", [(2, 1), (5, 2), (12, 3), (40, 4)])
def test_fit_check_on_a_one_factor_population(tmp_path, capsys, p, seed, metric):
    # lambda lambda' + Psi written at round-trip precision with its loadings:
    # the two score models read their closed forms, and the reflective model,
    # the population's own, reads 0.  As a covariance D (lambda lambda' + Psi) D,
    # each indicator in units of its own, it reads the same once fit-check
    # rescales it to correlation, but for the rounding of D: the reflective
    # residual is then noise of the order of 1e-17.
    rng = random.Random(seed)
    lam = [rng.uniform(0.05, 0.95) for _ in range(p)]
    rows = oracles.population_matrix(lam)
    if metric == "covariance":
        scale = [10.0 ** rng.uniform(-6.0, 6.0) for _ in range(p)]
        rows = [[si * value * sj for value, sj in zip(row, scale)] for row, si in zip(rows, scale)]
    matrix, loadings = tmp_path / "sigma.txt", tmp_path / "loadings.txt"
    matrix.write_text("".join(",".join(map(repr, row)) + "\n" for row in rows))
    loadings.write_text("".join(f"{value!r}\n" for value in lam))
    argv = ["fit-check", "--matrix", str(matrix), "--loadings", str(loadings), "--reflective"]
    assert main([*argv, "--format", "json"]) == 0
    fits = {fit["model"]: fit for fit in json.loads(capsys.readouterr().out)["fits"]}
    assert fits["unit_weighted"]["srmr"] == pytest.approx(
        oracles.unit_weighted_srmr(lam), rel=1e-12, abs=0
    )
    assert fits["factor_score"]["srmr"] == pytest.approx(
        oracles.factor_score_srmr(lam), rel=1e-12, abs=0
    )
    assert fits["reflective"]["srmr"] <= (1e-15 if metric == "covariance" else 0.0)
    assert all(not fit["warnings"] for fit in fits.values())
