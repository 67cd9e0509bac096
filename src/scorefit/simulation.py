"""Monte Carlo study of the unit-weighted-scale SRMR over one-factor populations.

For each (sample size, mean loading, scale length) cell, sample correlation
matrices of n cases from a one-factor population (constant or variable
loadings) are drawn through Bartlett's decomposition of the Wishart scatter
matrix, and the SRMR of the single unit-weighted scale is computed for a whole
block of replications at once.  The population SRMR of a cell comes from the
same kernel, applied to the population matrix alone.  Each cell owns a random
stream derived from the master seed and the cell parameters, read in
replication order, so results are identical no matter which subset of cells a
config requests, and raising the replication count only appends replications.

Each distinct (l, p) population, its Cholesky factor and its population SRMR
are built once per ``run_simulation`` call and shared by the cells of every n;
nothing is kept between calls.  Within a cell, the triangular factor buffer and
its indices are set up once and reused by every block of replications.

Cells run one after another on one thread.  The CLI accepts ``--workers`` for
compatibility; it has no effect.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import product

from ._numpy import np
from .errors import ScorefitError, ValidationError
from .fit import _srmr_from_squares
from .model import PIVOT_TOL, CorrelationMatrix, cholesky_lower

# Replications per block are sized so that one block's (reps, p, p) arrays hold
# about this many elements each: 128 KiB of float64, so the arrays a block works
# on stay in a 2 MiB L2 cache.  On the default grid (both patterns, 1000
# replications, one BLAS thread, 2-vCPU Xeon) 2**16 ran about 10% slower and
# 2**12 about 30% slower.
_BLOCK_ELEMENTS = 2**14

# Caps on one config, checked before anything is allocated, so that no request
# needs much more than 1 GiB.  A cell keeps one float64 per replication, and its
# mean and SD take a copy: 2**26 replications peak at 1.1 GiB.  Every distinct
# (l, p) population keeps its p x p Cholesky factor for the whole call, and the
# running cell works on four more p x p arrays at most: 2**24 entries in all
# (p = 4096 alone) peak at 0.63 GiB.
MAX_REPLICATIONS = 2**26
MAX_POPULATION_ENTRIES = 2**24


class LoadingPattern(Enum):
    CONSTANT = "constant"
    VARIABLE = "variable"


@dataclass(frozen=True)
class SimulationConfig:
    """Population design and replication plan for one loading pattern.

    Defaults follow the published design: n in {150, 300, 900}, mean loadings
    in {.2, .4, .6, .8}, p in {6, 12, 24}.  The desk-scale default of 1000
    replications runs one pattern of the default grid in under a second on a
    2-vCPU machine; raise to 5000 for the full-scale study.  Replications are
    capped at ``MAX_REPLICATIONS``, and the distinct (l, p) populations at
    ``MAX_POPULATION_ENTRIES`` matrix entries in all.
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
        if not 1 <= self.replications <= MAX_REPLICATIONS:
            raise ValidationError(
                f"need 1 to {MAX_REPLICATIONS} replications, got {self.replications}"
            )
        if not (0 <= self.seed < 2**64):
            raise ValidationError("seed must fit in an unsigned 64-bit integer")
        for l in self.mean_loadings:
            # population_loadings states the loading rules; p = 2 passes its
            # p checks, which run for every p below.
            population_loadings(l, 2, self.loading_pattern)
        max_p = max(self.indicator_counts)
        for n in self.sample_sizes:
            if n < max_p + 1:
                raise ValidationError(f"sample size {n} is below p + 1 = {max_p + 1}")
        for p in self.indicator_counts:
            _check_indicator_count(p, self.loading_pattern)
        entries = len(set(self.mean_loadings)) * sum(p * p for p in set(self.indicator_counts))
        if entries > MAX_POPULATION_ENTRIES:
            raise ValidationError(
                f"the (l, p) populations hold {entries} correlation entries, above the cap "
                f"of {MAX_POPULATION_ENTRIES} (distinct loadings times the sum of p^2)"
            )
        for n in self.sample_sizes:
            # The chi-square draws take n - 1 degrees of freedom as a C long.
            if n > 2**63:
                raise ValidationError(f"sample size {n} is above 2**63")


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


def _check_indicator_count(p: int, pattern: LoadingPattern) -> None:
    if p < 2:
        raise ValidationError(f"need p >= 2 indicators, got {p}")
    if pattern is LoadingPattern.VARIABLE and p % 2 != 0:
        raise ValidationError(f"variable pattern needs an even p, got {p}")


def population_loadings(l: float, p: int, pattern: LoadingPattern) -> np.ndarray:
    """Loading vector of one population cell.

    Constant: every loading equals l.  Variable: the first half of the
    indicators load l + .10, the second half l - .10 (p must be even).
    """
    if not (0.0 < l < 1.0):
        raise ValidationError(f"mean loading {l} outside (0, 1)")
    _check_indicator_count(p, pattern)
    if pattern is LoadingPattern.CONSTANT:
        return np.full(p, float(l))
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
    t: np.ndarray,
    lower: tuple[np.ndarray, np.ndarray],
    normals: np.random.Generator,
    chisq: np.random.Generator,
) -> np.ndarray:
    # Bartlett's decomposition: the scatter matrix of n cases is
    # Wishart_{n-1}(L L'), drawn exactly as L T T' L' with T lower triangular,
    # sqrt(chi2(n-1-i)) on the diagonal and N(0, 1) below it.  Each generator
    # is read in replication order, so successive calls continue one stream.
    # t is a (reps, p, p) buffer, C-contiguous and zero above the diagonal;
    # only its strict lower triangle (the indices in lower) and its diagonal
    # are written, so one buffer serves every block of a cell.
    reps, p = t.shape[0], chol.shape[0]
    rows, cols = lower
    t[:, rows, cols] = normals.standard_normal((reps, rows.size))
    diagonal = t.reshape(reps, p * p)[:, :: p + 1]  # a view, as t is contiguous
    np.sqrt(chisq.chisquare(n - 1 - np.arange(p), size=(reps, p)), out=diagonal)
    a = chol @ t
    scatter = a @ a.transpose(0, 2, 1)
    d = np.diagonal(scatter, axis1=1, axis2=2)
    # a is spent: it takes sqrt(d_i d_j), and scatter is divided by it in place.
    # einsum's outer product is one multiply per entry, as broadcasting is,
    # but it does not run a separate inner loop for each row of p.
    np.einsum("ri,rj->rij", d, d, out=a)
    np.sqrt(a, out=a)
    return np.divide(scatter, a, out=scatter)


def _unit_srmr(corr: np.ndarray) -> np.ndarray:
    # SRMR of the single unit-weighted scale for each matrix of a (reps, p, p)
    # stack.  The implied matrix is c c' / s with c = R 1 and s = 1'R 1.  A
    # matrix whose scale variance s fails the Cholesky pivot check, or whose
    # value is not finite, gets NaN: these are the cases where
    # score_model_implied_sigma or CorrelationMatrix raises.  corr is not
    # modified; the residual is built and squared in one (reps, p, p) array.
    c = corr.sum(axis=2)
    s = c.sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        resid = np.einsum("ri,rj->rij", c, c)
        np.divide(resid, s[:, None, None], out=resid)
        np.subtract(corr, resid, out=resid)
        values = _srmr_from_squares(np.multiply(resid, resid, out=resid))
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
    t = np.zeros((1, p, p))
    corr = _bartlett_correlations(chol, n, t, np.tril_indices(p, -1), rng, rng)
    return CorrelationMatrix(corr[0])


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
    normals, chisq = np.random.SeedSequence(seed, spawn_key=key).spawn(2)
    return np.random.default_rng(normals), np.random.default_rng(chisq)


def _replication_srmrs(config: SimulationConfig, chol: np.ndarray, n: int, l: float) -> np.ndarray:
    # Unit-weighted SRMR of each replication of one cell in order, NaN where
    # one is dropped; chol is the Cholesky factor of the cell's population.
    # Blocks bound memory; they read the cell's two streams in sequence, so the
    # values do not depend on the block size, and raising the replication
    # count extends the sequence without changing its start.  The T buffer and
    # its triangle indices are made once; a short last block takes a slice.
    p = chol.shape[0]
    normals, chisq = _cell_generators(config.seed, config.loading_pattern, n, l, p)
    reps = config.replications
    block = max(1, _BLOCK_ELEMENTS // (p * p))
    t = np.zeros((min(block, reps), p, p))
    lower = np.tril_indices(p, -1)
    values = np.empty(reps)
    for start in range(0, reps, block):
        stop = min(start + block, reps)
        corr = _bartlett_correlations(chol, n, t[: stop - start], lower, normals, chisq)
        values[start:stop] = _unit_srmr(corr)
    return values


def _population(l: float, p: int, pattern: LoadingPattern) -> tuple[float, np.ndarray]:
    # Population SRMR and Cholesky factor of one (l, p) population.  The
    # population is scored by the replications' kernel, as a stack of one.
    population = population_correlation(population_loadings(l, p, pattern)).values
    try:
        chol = cholesky_lower(population)
    except ScorefitError as exc:
        # Name the population; the exception keeps its class and attributes.
        exc.args = (f"population l={l!r}, p={p}, {pattern.value} pattern: {exc}",) + exc.args[1:]
        raise
    return float(_unit_srmr(population[None])[0]), chol


def _run_cell(
    config: SimulationConfig, n: int, l: float, p: int, population_srmr: float, chol: np.ndarray
) -> SimulationCell:
    values = _replication_srmrs(config, chol, n, l)
    values = values[~np.isnan(values)]  # dropped replications: see replications_used
    if values.size:
        mean, sd = float(values.mean()), float(values.std())
    else:
        mean = sd = float("nan")
    return SimulationCell(
        n=n,
        l=l,
        p=p,
        pattern=config.loading_pattern,
        population_srmr=population_srmr,
        mean_srmr_s=mean,
        sd_srmr_s=sd,
        replications_used=int(values.size),
    )


def run_simulation(config: SimulationConfig) -> list[SimulationCell]:
    """All design cells of the config, in (n, l, p) order, run on one thread.

    Every cell has its own stream, so a cell's values do not depend on which
    other cells the config requests.  Each distinct (l, p) population, its
    Cholesky factor and its population SRMR are built once per call and shared
    by the cells of every n; nothing is kept between calls.  The CLI's
    ``--workers`` is accepted and has no effect.
    """
    populations = {
        key: _population(*key, config.loading_pattern)
        for key in dict.fromkeys(product(config.mean_loadings, config.indicator_counts))
    }
    return [
        _run_cell(config, n, l, p, *populations[l, p])
        for n in config.sample_sizes
        for l in config.mean_loadings
        for p in config.indicator_counts
    ]
