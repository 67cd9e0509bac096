"""Monte Carlo study of the unit-weighted-scale SRMR over one-factor populations.

For each (sample size, mean loading, scale length) cell, sample correlation
matrices of n cases from a one-factor population (constant or variable
loadings) are drawn through Bartlett's decomposition of the Wishart scatter
matrix, and the SRMR of the single unit-weighted scale is computed for a whole
block of replications at once.  The population SRMR of a cell is that of the
projection pipeline, ``srmr(P, score_model_implied_sigma(P, 1))``, on the
exact population matrix P.

Random streams are keyed by what the drawn numbers' distribution depends on
(sampler ``bartlett-wishart/2``).  Bartlett's triangular factor T has N(0, 1)
entries below its diagonal, which depend on p alone, and sqrt(chi2(n-1-i)) on
it, which depend on (n, p).  So each (pattern, p) owns one normals stream, and
each (pattern, n, p) one chi-square stream, both derived from the master seed;
the loading is not part of any key.  Replications run in blocks sized by p
alone: each block fills T's lower triangle once from the normals stream, writes
its diagonal once per n from that n's chi-square stream, and every loading
reuses that T through its own Cholesky factor L.  Each cell still gets exactly
the Wishart draws it would get from streams of its own, but cells that share
p (and, for the diagonal, n) share their draws: their errors are correlated.
These are common random numbers, which make differences between cells across
l and n more precise than independent streams would.

A cell reads its two streams from the start, in replication order, so results
are identical no matter which subset of cells a config requests, and raising
the replication count only appends replications.  A cell keeps no value per
replication: each block's values are folded into a running (count, mean, sum
of squared deviations) with Chan, Golub and LeVeque's pairwise update.

A block's correlation matrices are formed without dividing the scatter
matrix: each row of the scaled triangular factor a = L T is scaled to unit
length, so a a' is the correlation matrix itself, with its diagonal written as
exactly 1.  a a' is one plain matrix product per replication, against a
transposed copy of a; R may differ from R' by a last ulp.  The implied matrix
of the unit-weighted scale is u u' with u = R 1 / sqrt(1'R 1), and the
residual R - u u' is formed entry by entry.

Each distinct (l, p) population, its Cholesky factor and its population SRMR
are built once per ``run_simulation`` call; nothing is kept between calls.  One
array of four buffers is allocated per call as well, for T, a (which then
holds the residual), a' and R: every block draws, forms R and scores it in
views of their leading elements, so no block allocates an array of its own
size.

Cells run one after another on one thread.  The CLI accepts ``--workers`` for
compatibility; it has no effect.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from enum import Enum
from itertools import product

from ._numpy import np
from .errors import DimensionError, ScorefitError, ValidationError
from .fit import _srmr_from_squares, srmr
from .model import PIVOT_TOL, CorrelationMatrix, cholesky_lower
from .scoring import score_model_implied_sigma

# The sampler and its version, echoed in ``simulate`` reports.  /1 was one
# pair of streams per cell (up to 0.9.0); /2 keys the streams by p and (n, p).
SAMPLER = "bartlett-wishart/2"

# Replications per block are sized so that one block's (reps, p, p) arrays hold
# about this many elements each: 256 KiB of float64, so a call's four buffers
# (1 MiB) stay in a 2 MiB L2 cache.  Timed with four buffers (one BLAS thread,
# 2-vCPU Xeon VM, sizes interleaved): the benchmark's sim-grid (both patterns,
# 200 replications; 5 seeds) took a median 0.044 s at 2**15, 0.050 s at 2**14
# and 0.045 s at 2**16; the default grid at 1000 replications, one fresh
# process per call (10 rounds), 0.33 s at 2**15, 0.38 s at 2**14 and 0.34 s at
# 2**16, whose buffers also raised the benchmark's peak RSS by 1.1 MB more.
# Larger blocks make fewer kernel calls; each call touches its buffers afresh,
# so its page faults grow with them.  The blocks also fix the order in which a
# cell's values are folded, so the size is part of the output.
_BLOCK_ELEMENTS = 2**15

# Caps on one config, checked before anything is allocated.  Memory does not
# grow with the replications, so their cap bounds run time: 2**26 replications
# of the default grid, both patterns, would take about an hour and a half
# (0.078 s per 1000 on a 2-vCPU Xeon VM, one BLAS thread).  Every distinct
# (l, p) population keeps its p x p Cholesky factor for the whole call, and
# the call's buffers hold four more p x p arrays at most.  Building one population takes five
# p x p arrays at once, so 2**24 entries in all (p = 4096 alone) peak at about
# 0.63 GiB (tracemalloc: 5.00 p x p arrays at p = 1024 and at 2048, scaled).
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
        ns = tuple(_integer(n, "sample size") for n in self.sample_sizes)
        ps = tuple(_integer(p, "indicator count") for p in self.indicator_counts)
        object.__setattr__(self, "sample_sizes", ns)
        object.__setattr__(self, "mean_loadings", tuple(float(l) for l in self.mean_loadings))
        object.__setattr__(self, "indicator_counts", ps)
        object.__setattr__(self, "replications", _integer(self.replications, "replications"))
        object.__setattr__(self, "seed", _integer(self.seed, "seed"))
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
            _check_sample_size(n, max_p)
        for p in self.indicator_counts:
            _check_indicator_count(p, self.loading_pattern)
        entries = len(set(self.mean_loadings)) * sum(p * p for p in set(self.indicator_counts))
        if entries > MAX_POPULATION_ENTRIES:
            raise ValidationError(
                f"the (l, p) populations hold {entries} correlation entries, above the cap "
                f"of {MAX_POPULATION_ENTRIES} (distinct loadings times the sum of p^2)"
            )


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


def _integer(value, what: str) -> int:
    # numpy registers its integer types as numbers.Integral; a bool is an int
    # but not a count, and a float is refused even when it is integral.
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValidationError(f"{what} must be an integer, got {value!r}")
    return int(value)


def _check_sample_size(n: int, p: int) -> None:
    if n < p + 1:
        raise ValidationError(f"sample size {n} is below p + 1 = {p + 1}")
    # The chi-square draws take n - 1 degrees of freedom as a C long.
    if n > 2**63:
        raise ValidationError(f"sample size {n} is above 2**63")


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


def _block_reps(p: int) -> int:
    # Replications per block for p indicators: at least one.
    return max(1, _BLOCK_ELEMENTS // (p * p))


# Bartlett's decomposition: the scatter matrix of n cases is Wishart_{n-1}(L L'),
# drawn exactly as a a' with a = L T, T lower triangular, N(0, 1) below its
# diagonal and sqrt(chi2(n-1-i)) on it.  The two draws below fill a block's T
# (zero above its diagonal) in replication order, so successive blocks
# continue one stream.


def _draw_lower(t: np.ndarray, lower, normals: np.random.Generator) -> None:
    # T's strict lower triangle, at the indices in lower.
    t[:, lower[0], lower[1]] = normals.standard_normal((t.shape[0], lower[0].size))


def _draw_diagonal(t: np.ndarray, n: int, chisq: np.random.Generator) -> None:
    reps, p = t.shape[0], t.shape[1]
    diagonal = t.reshape(reps, p * p)[:, :: p + 1]  # a view, as t is contiguous
    np.sqrt(chisq.chisquare(n - 1 - np.arange(p), size=(reps, p)), out=diagonal)


def _correlations(
    chol: np.ndarray, t: np.ndarray, a: np.ndarray, at: np.ndarray, r: np.ndarray
) -> np.ndarray:
    # The correlation matrices of a block's scatter matrices a a', a = L T,
    # formed in the (reps, p, p) buffers a, at and R; T is not modified.  Each
    # row of a is scaled to unit length, so a a' is R itself; its diagonal is
    # written as exactly 1.  R is returned.
    # a' is copied into at, so the product is one plain GEMM per matrix:
    # with both operands views of one buffer, numpy takes its A A' path (SYRK
    # and a mirror copy), about twice as slow at p = 6 and 12.  GEMM's R may
    # differ from R' by a last ulp (edge tiles, p = 17-20 for one), which no
    # step below needs: the SRMR sums every squared residual.
    reps, p = t.shape[0], t.shape[1]
    np.matmul(chol, t, out=a)
    scale = np.einsum("rij,rij->ri", a, a)  # the scatter's diagonal
    np.divide(1.0, np.sqrt(scale, out=scale), out=scale)
    np.multiply(a, scale[:, :, None], out=a)
    np.copyto(at, a.transpose(0, 2, 1))
    np.matmul(a, at, out=r)
    r.reshape(reps, p * p)[:, :: p + 1] = 1.0
    return r


def _unit_srmr(corr: np.ndarray, resid: np.ndarray) -> np.ndarray:
    # SRMR of the single unit-weighted scale for each matrix of a (reps, p, p)
    # stack.  The implied matrix is c c' / s = u u' with c = R 1, s = 1'R 1 and
    # u = c / sqrt(s).  A matrix whose scale variance s fails the Cholesky
    # pivot check, or whose value is not finite, gets NaN: these are the cases
    # where score_model_implied_sigma or CorrelationMatrix raises.  corr is not
    # modified; the residual R - u u' is built and squared in resid, a
    # (reps, p, p) buffer.
    # einsum, because a reduce over the short last axis is slow: corr.sum(axis=2)
    # took 2-3x as long, and c.sum(axis=1) twice as long at p = 6.
    c = np.einsum("rij->ri", corr)
    s = np.einsum("ri->r", c)
    with np.errstate(divide="ignore", invalid="ignore"):
        u = np.divide(c, np.sqrt(s)[:, None], out=c)
        resid = np.einsum("ri,rj->rij", u, u, out=resid)
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
    The loadings are a non-empty vector and n an integer in [p + 1, 2**63],
    as in :class:`SimulationConfig`.
    """
    lam = np.asarray(loadings, dtype=float)
    if lam.ndim != 1 or not lam.size:
        raise DimensionError(f"loadings must be a non-empty vector, got shape {lam.shape}")
    p = lam.size
    if np.abs(lam).max() > 1.0:
        raise ValidationError("standardized loadings must lie in [-1, 1]")
    _check_sample_size(_integer(n, "sample size"), p)
    chol = cholesky_lower(population_correlation(lam).values)
    t, a, at, r = np.zeros((4, 1, p, p))
    _draw_lower(t, np.tril_indices(p, -1), rng)
    _draw_diagonal(t, n, rng)
    return CorrelationMatrix(_correlations(chol, t, a, at, r)[0])


def _stream(seed: int, *key: int) -> np.random.Generator:
    # The stream SeedSequence(seed, spawn_key=key) seeds.  Keys are
    # (0, pattern, p) for T's normals and (1, pattern, n, p) for its diagonal,
    # the pattern as 0 (constant) or 1 (variable): a stream does not depend on
    # which other cells run, nor on the loading.
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def _population(l: float, p: int, pattern: LoadingPattern) -> tuple[float, np.ndarray]:
    # Population SRMR and Cholesky factor of one (l, p) population.  The SRMR
    # is the library pipeline's: the replications' kernel forms R - u u',
    # which cancels as l nears 1 (3e-10 relative at l = 0.9999999).
    population = population_correlation(population_loadings(l, p, pattern))
    try:
        chol = cholesky_lower(population.values)
    except ScorefitError as exc:
        # Name the population; the exception keeps its class and attributes.
        exc.args = (f"population l={l!r}, p={p}, {pattern.value} pattern: {exc}",) + exc.args[1:]
        raise
    return srmr(population, score_model_implied_sigma(population, np.ones(p))).srmr, chol


# A cell's running moments: (count, mean, M2), M2 the sum of squared deviations.
_NO_VALUES = (0, 0.0, 0.0)


def _fold(moments: tuple[int, float, float], values: np.ndarray) -> tuple[int, float, float]:
    # Merge one block's values, less the dropped (NaN) ones, into a cell's
    # running moments: Chan, Golub and LeVeque's pairwise update.
    kept = values[~np.isnan(values)]
    k = kept.size
    if not k:
        return moments
    block_mean = float(kept.sum()) / k  # np.mean's value, without its overhead
    deviations = kept - block_mean
    block_m2 = float(deviations @ deviations)
    count, mean, m2 = moments
    if not count:
        return k, block_mean, block_m2
    total = count + k
    delta = block_mean - mean
    return total, mean + delta * k / total, m2 + block_m2 + delta * delta * count * k / total


def run_simulation(config: SimulationConfig) -> list[SimulationCell]:
    """All design cells of the config, in (n, l, p) order, run on one thread.

    Streams are keyed by (pattern, p) and (pattern, n, p), and a cell reads
    them from the start, so a cell's values do not depend on which other
    cells the config requests; cells that share p share their draws.  Each
    distinct (l, p) population, its Cholesky factor and its population SRMR
    are built once per call; nothing is kept between calls.  Memory does not
    grow with the replication count.  The CLI's ``--workers`` is accepted and
    has no effect.
    """
    pattern = config.loading_pattern
    ns, ls, ps = (
        tuple(dict.fromkeys(axis))
        for axis in (config.sample_sizes, config.mean_loadings, config.indicator_counts)
    )
    populations = {key: _population(*key, pattern) for key in product(ls, ps)}
    reps, kind = config.replications, int(pattern is LoadingPattern.VARIABLE)
    # T, a, a' and R of every block, each sized for the largest block of any p.
    buffers = np.empty((4, max(min(_block_reps(p), reps) * p * p for p in ps)))
    moments = dict.fromkeys(product(ns, ls, ps), _NO_VALUES)
    for p in ps:
        buffers[0].fill(0.0)  # blocks write only T's strict lower triangle and diagonal
        lower = np.tril_indices(p, -1)
        normals = _stream(config.seed, 0, kind, p)
        chisqs = {n: _stream(config.seed, 1, kind, n, p) for n in ns}
        block = _block_reps(p)
        for start in range(0, reps, block):
            size = min(block, reps - start)
            t, a, at, r = buffers[:, : size * p * p].reshape(4, size, p, p)
            _draw_lower(t, lower, normals)
            for n in ns:
                _draw_diagonal(t, n, chisqs[n])
                for l in ls:
                    corr = _correlations(populations[l, p][1], t, a, at, r)
                    values = _unit_srmr(corr, a)  # a is spent: it takes the residual
                    moments[n, l, p] = _fold(moments[n, l, p], values)

    def cell(n: int, l: float, p: int) -> SimulationCell:
        count, mean, m2 = moments[n, l, p]
        nan = float("nan")  # the mean and SD of a cell that dropped every replication
        return SimulationCell(
            n=n,
            l=l,
            p=p,
            pattern=pattern,
            population_srmr=populations[l, p][0],
            mean_srmr_s=mean if count else nan,
            sd_srmr_s=math.sqrt(m2 / count) if count else nan,
            replications_used=count,
        )

    return [
        cell(n, l, p)
        for n in config.sample_sizes
        for l in config.mean_loadings
        for p in config.indicator_counts
    ]
