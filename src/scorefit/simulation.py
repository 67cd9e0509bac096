"""Monte Carlo study of the unit-weighted-scale SRMR over one-factor populations.

For each (sample size, mean loading, scale length) cell, sample correlation
matrices of n cases from a one-factor population (constant or variable
loadings) are drawn through Bartlett's decomposition of the Wishart scatter
matrix, and the SRMR of the single unit-weighted scale is computed for a whole
block of replications at once.  Each cell owns a random stream derived from the
master seed and the cell parameters, read in replication order, so results are
identical no matter which subset of cells a config requests, and raising the
replication count only appends replications.

Cells run one after another on one thread.  A thread pool over cells was
removed: on a 2-vCPU machine 2 threads ran the benchmark's default grid at 200
replications only 1.08x to 1.18x as fast as one, below the 1.2x it had to
reach.  The CLI still accepts ``--workers`` for compatibility; it has no effect.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ValidationError
from .fit import _srmr_from_residuals, srmr
from .model import PIVOT_TOL, CorrelationMatrix, cholesky_lower
from .scoring import ScoreWeights, score_model_implied_sigma

# Replications per block are sized so that one block's (reps, p, p) arrays hold
# about this many elements each.
_BLOCK_ELEMENTS = 2**14


class LoadingPattern(Enum):
    CONSTANT = "constant"
    VARIABLE = "variable"


@dataclass(frozen=True)
class SimulationConfig:
    """Population design and replication plan for one loading pattern.

    Defaults follow the published design: n in {150, 300, 900}, mean loadings
    in {.2, .4, .6, .8}, p in {6, 12, 24}.  The desk-scale default of 1000
    replications runs one pattern of the default grid in under a second on a
    2-vCPU machine; raise to 5000 for the full-scale study.
    """

    sample_sizes: tuple[int, ...] = (150, 300, 900)
    mean_loadings: tuple[float, ...] = (0.2, 0.4, 0.6, 0.8)
    indicator_counts: tuple[int, ...] = (6, 12, 24)
    loading_pattern: LoadingPattern = LoadingPattern.CONSTANT
    replications: int = 1000
    seed: int = 1234

    def __post_init__(self):
        object.__setattr__(self, "sample_sizes", tuple(int(n) for n in self.sample_sizes))
        object.__setattr__(self, "mean_loadings", tuple(float(l) for l in self.mean_loadings))
        object.__setattr__(self, "indicator_counts", tuple(int(p) for p in self.indicator_counts))
        if not self.sample_sizes or not self.mean_loadings or not self.indicator_counts:
            raise ValidationError("sample sizes, loadings and indicator counts must be non-empty")
        if self.replications < 1:
            raise ValidationError("need at least one replication")
        if not (0 <= self.seed < 2**64):
            raise ValidationError("seed must fit in an unsigned 64-bit integer")
        for l in self.mean_loadings:
            if not (0.0 < l < 1.0):
                raise ValidationError(f"mean loading {l} outside (0, 1)")
            if self.loading_pattern is LoadingPattern.VARIABLE and not (
                0.0 < l - 0.10 and l + 0.10 < 1.0
            ):
                raise ValidationError(
                    f"variable pattern needs {l} +/- 0.10 inside (0, 1)"
                )
        max_p = max(self.indicator_counts)
        for n in self.sample_sizes:
            if n < max_p + 1:
                raise ValidationError(f"sample size {n} is below p + 1 = {max_p + 1}")


@dataclass(frozen=True)
class SimulationCell:
    """Aggregated results of one (n, l, p, pattern) design cell."""

    n: int
    l: float
    p: int
    pattern: LoadingPattern
    population_srmr: float
    mean_srmr_s: float
    sd_srmr_s: float
    replications_used: int


def population_loadings(l: float, p: int, pattern: LoadingPattern) -> np.ndarray:
    """Loading vector of one population cell.

    Constant: every loading equals l.  Variable: the first half of the
    indicators load l + .10, the second half l - .10 (p must be even).
    """
    if not (0.0 < l < 1.0):
        raise ValidationError(f"mean loading {l} outside (0, 1)")
    if p < 2:
        raise ValidationError(f"need p >= 2 indicators, got {p}")
    if pattern is LoadingPattern.CONSTANT:
        return np.full(p, float(l))
    if p % 2 != 0:
        raise ValidationError(f"variable pattern needs an even p, got {p}")
    if not (0.0 < l - 0.10 and l + 0.10 < 1.0):
        raise ValidationError(f"variable pattern needs {l} +/- 0.10 inside (0, 1)")
    return np.r_[np.full(p // 2, l + 0.10), np.full(p // 2, l - 0.10)]


def population_correlation(loadings) -> CorrelationMatrix:
    """Exact one-factor population correlation: lambda_i * lambda_j off-diagonal."""
    lam = np.asarray(loadings, dtype=float)
    sigma = np.outer(lam, lam)
    np.fill_diagonal(sigma, 1.0)
    return CorrelationMatrix(sigma)


def _bartlett_correlations(
    chol: np.ndarray,
    n: int,
    reps: int,
    normals: np.random.Generator,
    chisq: np.random.Generator,
) -> np.ndarray:
    # Bartlett's decomposition: the scatter matrix of n cases is
    # Wishart_{n-1}(L L'), drawn exactly as L T T' L' with T lower triangular,
    # sqrt(chi2(n-1-i)) on the diagonal and N(0, 1) below it.  Each generator
    # is read in replication order, so successive calls continue one stream.
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


def _unit_srmr(corr: np.ndarray) -> np.ndarray:
    # SRMR of the single unit-weighted scale for each matrix of a (reps, p, p)
    # stack.  The implied matrix is c c' / s with c = R 1 and s = 1'R 1.  A
    # matrix whose scale variance s fails the Cholesky pivot check, or whose
    # value is not finite, gets NaN: these are the cases where
    # score_model_implied_sigma or CorrelationMatrix raises.
    c = corr.sum(axis=2)
    s = c.sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        values = _srmr_from_residuals(corr - c[:, :, None] * c[:, None, :] / s[:, None, None])
    values[~(s > PIVOT_TOL) | ~np.isfinite(values)] = np.nan
    return values


def sample_correlation(loadings, n: int, rng: np.random.Generator) -> CorrelationMatrix:
    """Sample correlation matrix of n cases from a one-factor population.

    The scatter matrix of the n cases is drawn from its Wishart distribution
    with Bartlett's decomposition, scaled by the Cholesky factor of the
    population correlation ``lambda lambda' + diag(1 - lambda^2)``, at a cost
    that does not grow with n.  Loadings of magnitude one in two or more places
    make that population singular and raise :class:`SingularMatrixError`.
    """
    lam = np.asarray(loadings, dtype=float)
    p = lam.size
    if np.abs(lam).max() > 1.0:
        raise ValidationError("standardized loadings must lie in [-1, 1]")
    if n < p + 1:
        raise ValidationError(f"need n >= p + 1 = {p + 1}, got n={n}")
    chol = cholesky_lower(population_correlation(lam).values)
    return CorrelationMatrix(_bartlett_correlations(chol, n, 1, rng, rng)[0])


def _cell_generators(
    seed: int, pattern: LoadingPattern, n: int, l: float, p: int
) -> tuple[np.random.Generator, np.random.Generator]:
    # One stream per cell, keyed by the cell parameters themselves (the loading
    # by its exact bit pattern), so it does not depend on which other cells
    # run.  Its two children feed the normals and the chi-square draws.
    key = (
        int(pattern is LoadingPattern.VARIABLE),
        int(n),
        int(p),
        int(np.float64(l).view(np.uint64)),
    )
    cell = np.random.SeedSequence(seed, spawn_key=key)
    normals, chisq = cell.spawn(2)
    return (
        np.random.Generator(np.random.PCG64(normals)),
        np.random.Generator(np.random.PCG64(chisq)),
    )


def _replication_srmrs(config: SimulationConfig, n: int, l: float, p: int) -> np.ndarray:
    # Unit-weighted SRMR of each replication of one cell in order, NaN where
    # one is dropped.  Blocks bound memory; they read the cell's two streams in
    # sequence, so the values do not depend on the block size, and raising the
    # replication count extends the sequence without changing its start.
    pattern = config.loading_pattern
    chol = cholesky_lower(population_correlation(population_loadings(l, p, pattern)).values)
    normals, chisq = _cell_generators(config.seed, pattern, n, l, p)
    reps = config.replications
    block = max(1, _BLOCK_ELEMENTS // (p * p))
    return np.concatenate(
        [
            _unit_srmr(_bartlett_correlations(chol, n, min(block, reps - start), normals, chisq))
            for start in range(0, reps, block)
        ]
    )


def _run_cell(config: SimulationConfig, n: int, l: float, p: int) -> SimulationCell:
    pattern = config.loading_pattern
    population = population_correlation(population_loadings(l, p, pattern))
    population_srmr = srmr(
        population, score_model_implied_sigma(population, ScoreWeights.unit(p))
    ).srmr

    values = _replication_srmrs(config, n, l, p)
    values = values[~np.isnan(values)]  # dropped replications: see replications_used
    if values.size:
        mean, sd = float(values.mean()), float(values.std())
    else:
        mean = sd = float("nan")
    return SimulationCell(
        n=n,
        l=l,
        p=p,
        pattern=pattern,
        population_srmr=population_srmr,
        mean_srmr_s=mean,
        sd_srmr_s=sd,
        replications_used=int(values.size),
    )


def run_simulation(config: SimulationConfig) -> list[SimulationCell]:
    """All design cells of the config, in (n, l, p) order, run on one thread.

    Every cell has its own stream, so a cell's values do not depend on which
    other cells the config requests.  There is no worker count: threads over
    cells did not reach 1.2x on the benchmark (module docstring), and the
    CLI's ``--workers`` is accepted and ignored.
    """
    return [
        _run_cell(config, n, l, p)
        for n in config.sample_sizes
        for l in config.mean_loadings
        for p in config.indicator_counts
    ]
