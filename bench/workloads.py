"""The three benchmark workloads: seeded inputs, CLI argument lists and output checks.

A workload yields one *pass*: a fixed list of CLI calls.  The runner repeats the
pass for the measured time and checks each call's output against the
references in ``reference.py``.  Every check returns ``(ops failed, reason)``.
An op is one replication on ``sim-grid`` and one CLI call on the other two
workloads.
"""

from __future__ import annotations

import json
import math
import os
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import reference as ref

ERROR_PREFIX = "scorefit: error:"
SRMR_TOL = 1e-9
EXACT_TOL = 1e-12

# Input classes that fail at the seed commit because of a known defect.
KNOWN_MIN_P_TINY = "min-p below 1e-154 overflows (ROADMAP item 3)"
KNOWN_COV_SRMR = "SRMR of covariance input is unstandardized (ROADMAP item 4)"


@dataclass
class Result:
    """What one CLI call did."""

    seconds: float
    rc: int | None
    out: str
    err: str
    exc: BaseException | None = None

    def problem(self) -> str | None:
        if self.exc is not None:
            return f"uncaught {type(self.exc).__name__}: {self.exc}"
        if self.rc != 0:
            return f"exit {self.rc}: {self.err.strip()[:200]}"
        return None


@dataclass
class Op:
    """One CLI call of a pass and how to check it."""

    key: str
    argv: list[str]
    check: Callable[[Result], tuple[int, str]]
    weight: int = 1
    known: str | None = None
    # Key of an op whose output this one must reproduce byte for byte.
    same_as: str | None = None


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed % 2**64, *stream]))


def _log_uniform(rng, low: float, high: float) -> float:
    return float(10.0 ** rng.uniform(math.log10(low), math.log10(high)))


class Workload:
    """A named pass of CLI calls; subclasses make the ops from the seed."""

    name = ""
    warmup: list[str] = []
    # Calls a run must time at least, so that ten latency samples lie beyond p95.
    min_calls = 1

    def ops(self, seed: int, workdir: Path) -> list[Op]:
        raise NotImplementedError

    def extra_ops(self) -> list[Op]:
        """Untimed ops run once after a full pass."""
        return []

    def trace_ops(self, ops: list[Op], first_outputs: dict[str, str]) -> list[Op]:
        """The pass the traced run repeats; by default the measured pass."""
        return ops


# -- sim-grid ------------------------------------------------------------------

SIM_HEADER = "n,l,r,p,pattern,population_srmr,mean_srmr_s,sd_srmr_s,replications_used"
SIM_N = (150, 300, 900)
SIM_L = (0.2, 0.4, 0.6, 0.8)
SIM_P = (6, 12, 24)
SIM_CELLS = 2 * len(SIM_N) * len(SIM_L) * len(SIM_P)


def _sim_rows(text: str) -> list[str]:
    lines = text.splitlines()
    if SIM_HEADER not in lines:
        return []
    return lines[lines.index(SIM_HEADER) + 1 :]


class SimGrid(Workload):
    """``simulate`` over the default 72-cell design at ``--workers 1``."""

    name = "sim-grid"
    warmup = ["simulate", "--n", "150", "--l", "0.2", "--p", "6", "--pattern", "constant",
              "--reps", "2"]
    # 200 replications keep every cell at least 3.7 standard errors inside the
    # Table 2 bounds, so a correct program fails the check on no seed in practice.
    reps = 200

    def __init__(self):
        self.sim_seed = 0
        self.stats = {"reps_used": 0, "reps_attempted": 0}

    def _argv(self, workers: int) -> list[str]:
        return ["simulate", "--reps", str(self.reps), "--seed", str(self.sim_seed),
                "--workers", str(workers)]

    def _check_rows(self, rows: list[str], cells: int) -> tuple[int, str]:
        failed, reasons = 0, []
        seen = 0
        for row in rows:
            if not row:
                continue
            seen += 1
            n, l, _, p, pattern, pop, mean, sd, used = row.split(",")
            n, l, p, used = int(n), float(l), int(p), int(used)
            pop, mean, sd = float(pop), float(mean), float(sd)
            variable = pattern == "variable"
            expected = ref.TABLE2[(n, l, p)][3 if variable else 0 :][:3]
            pop_ref = (ref.population_srmr(l, p, True) if variable
                       else ref.closed_form(l * l, p))
            self.stats["reps_used"] += used
            self.stats["reps_attempted"] += self.reps
            bad = []
            if not abs(mean - expected[1]) <= ref.TABLE2_MEAN_TOL:
                bad.append(f"mean {mean:.4f} vs {expected[1]}")
            if not abs(sd - expected[2]) <= ref.TABLE2_SD_TOL:
                bad.append(f"sd {sd:.4f} vs {expected[2]}")
            if not abs(pop - pop_ref) <= EXACT_TOL:
                bad.append(f"population_srmr {pop!r} vs {pop_ref!r}")
            if bad:
                failed += self.reps
                reasons.append(f"cell n={n} l={l} p={p} {pattern}: " + ", ".join(bad))
            else:
                failed += self.reps - min(used, self.reps)
                if used < self.reps:
                    reasons.append(f"cell n={n} l={l} p={p} {pattern}: {self.reps - used} reps dropped")
        if seen != cells:
            failed = cells * self.reps
            reasons.append(f"{seen} cells in the output, expected {cells}")
        return min(failed, cells * self.reps), "; ".join(reasons)

    def _check_grid(self, result: Result) -> tuple[int, str]:
        problem = result.problem()
        if problem:
            return SIM_CELLS * self.reps, problem
        return self._check_rows(_sim_rows(result.out), SIM_CELLS)

    def ops(self, seed, workdir):
        self.sim_seed = int(_rng(seed, 0).integers(0, 2**32))
        return [Op("grid", self._argv(1), self._check_grid, SIM_CELLS * self.reps)]

    def extra_ops(self):
        # The worker count must not change a single byte of the output.
        workers = len(os.sched_getaffinity(0))
        return [Op("grid-workers", self._argv(workers), self._check_grid, SIM_CELLS * self.reps,
                   same_as="grid")]

    def trace_ops(self, ops, first_outputs):
        # One cell per run_simulation call; the rows must equal the full grid's.
        full = _sim_rows(first_outputs["grid"])
        traced = []
        for index, (n, l, p) in enumerate((n, l, p) for n in SIM_N for l in SIM_L for p in SIM_P):
            expected = full[2 * index : 2 * index + 2]

            def check(result, expected=expected):
                problem = result.problem()
                if problem:
                    return 2 * self.reps, problem
                rows = [row for row in _sim_rows(result.out) if row]
                if rows != expected:
                    return 2 * self.reps, f"cell run differs from the full grid: {rows} vs {expected}"
                return self._check_rows(rows, 2)

            argv = ["simulate", "--n", str(n), "--l", repr(l), "--p", str(p), "--reps",
                    str(self.reps), "--seed", str(self.sim_seed), "--workers", "1"]
            traced.append(Op(f"cell-{n}-{l}-{p}", argv, check, 2 * self.reps))
        return traced


# -- closed-form-batch -----------------------------------------------------------

CURVE_LEVELS = "0.04,0.06,0.08,0.09,0.12"
CURVE_RANGE = "4:1000"


def _value(result: Result, name: str):
    """The named scalar of a closed-form report in CSV or JSON."""
    if result.out.startswith("{"):
        return json.loads(result.out)["results"][name]
    for line in result.out.splitlines():
        key, _, value = line.partition(",")
        if key == name:
            return int(value) if name == "min_p" else float(value)
    raise ValueError(f"no {name} in the output")


def _check_required_r(target: float, p: int, value) -> str | None:
    """None if `value` is a correct required r (None meaning 'no solution')."""
    ceiling = ref.closed_form(0.0, p)
    if value is None:
        if target > ceiling * (1 - EXACT_TOL):
            return None
        return f"no solution reported for target {target!r} below the ceiling {ceiling!r} at p={p}"
    if target > ceiling * (1 + EXACT_TOL):
        return f"answer {value!r} for target {target!r} above the ceiling {ceiling!r} at p={p}"
    if not (0.0 <= value <= 1.0 and abs(ref.closed_form(value, p) - target) <= SRMR_TOL):
        return f"r={value!r} misses target {target!r} at p={p}"
    return None


def _solve_r_check(target: float, p: int):
    def check(result):
        if result.exc is None and result.rc == 1 and result.err.startswith(ERROR_PREFIX):
            return (0, "") if _check_required_r(target, p, None) is None else (
                1, f"solve-r {target!r} p={p}: {result.err.strip()}")
        problem = result.problem()
        if problem:
            return 1, f"solve-r {target!r} p={p}: {problem}"
        reason = _check_required_r(target, p, _value(result, "required_r"))
        return (1, reason) if reason else (0, "")
    return check


def _min_p_check(target: float, r: float, clean_rejection_ok: bool):
    def check(result):
        if (clean_rejection_ok and result.exc is None and result.rc == 1
                and result.err.startswith(ERROR_PREFIX)):
            return 0, ""
        problem = result.problem()
        if problem:
            return 1, f"min-p {target!r} r={r!r}: {problem}"
        p = _value(result, "min_p")
        if not (isinstance(p, int) and p >= 2 and ref.closed_form_ratio(r, p, target) <= 1 + EXACT_TOL):
            return 1, f"min-p {target!r} r={r!r}: p={p!r} does not reach the target"
        if p > 2 and ref.closed_form_ratio(r, p - 1, target) <= 1 - EXACT_TOL:
            return 1, f"min-p {target!r} r={r!r}: p-1={p - 1} already reaches the target"
        return 0, ""
    return check


def _evaluate_check(r: float, p: int):
    def check(result):
        problem = result.problem()
        if problem:
            return 1, f"evaluate r={r!r} p={p}: {problem}"
        value = _value(result, "srmr")
        if abs(value - ref.closed_form(r, p)) > EXACT_TOL:
            return 1, f"evaluate r={r!r} p={p}: {value!r} vs {ref.closed_form(r, p)!r}"
        return 0, ""
    return check


def _golden_check(name: str, golden):
    def check(result):
        problem = result.problem()
        if problem:
            return 1, f"golden {name}: {problem}"
        value = _value(result, name)
        shown = value if isinstance(golden, int) else round(value, 4)
        return (0, "") if shown == golden else (1, f"golden {name}: {value!r} vs {golden!r}")
    return check


def _curve_check(result):
    problem = result.problem()
    if problem:
        return 1, f"curve: {problem}"
    lines = result.out.splitlines()
    rows = lines[lines.index("p,srmr_level,required_r") + 1 :] if "p,srmr_level,required_r" in lines else []
    levels = sorted(float(v) for v in CURVE_LEVELS.split(","))
    start, stop = (int(v) for v in CURVE_RANGE.split(":"))
    expected = [(p, level) for p in range(start, stop + 1) for level in levels]
    rows = [row.split(",") for row in rows if row]
    if [(int(p), float(level)) for p, level, _ in rows] != expected:
        return 1, f"curve: {len(rows)} points, not the {len(expected)} expected (p, level) pairs"
    for p, level, value in rows:
        reason = _check_required_r(float(level), int(p),
                                   None if value == "unattainable" else float(value))
        if reason:
            return 1, f"curve: {reason}"
    return 0, ""


class ClosedFormBatch(Workload):
    """One required-r curve plus a seeded batch of scalar closed-form queries."""

    # Sized so that fit's solvers, not argparse in cli, take most of the time.
    solve_r = 60
    min_p = 60
    evaluate = 30
    # Per query kind, targets below 1e-154: the square of such a target underflows.
    # Few enough that p95 latency falls among the ordinary queries.
    tiny = 3

    name = "closed-form-batch"
    warmup = ["closed-form", "--solve-r", "0.06", "--p", "16"]
    min_calls = 200

    def ops(self, seed, workdir):
        rng = _rng(seed, 1)

        def fmt():
            return ["--format", "csv" if rng.random() < 0.5 else "json"]

        ops = [Op("curve", ["closed-form", "--curve", CURVE_LEVELS, "--p-range", CURVE_RANGE,
                            "--format", "csv"], _curve_check)]
        for (target, p), golden in ref.SOLVE_R_GOLDENS.items():
            ops.append(Op(f"golden-r-{target}-{p}", ["closed-form", "--solve-r", repr(target), "--p",
                                                     str(p), "--format", "csv"],
                          _golden_check("required_r", golden)))
        for (target, r), golden in ref.MIN_P_GOLDENS.items():
            ops.append(Op(f"golden-p-{target}-{r}", ["closed-form", "--min-p", repr(target), "--r",
                                                     repr(r), "--format", "csv"],
                          _golden_check("min_p", golden)))
        for i in range(self.solve_r):
            tiny = i < self.tiny
            target = _log_uniform(rng, 1e-300, 1e-155) if tiny else _log_uniform(rng, 1e-3, 1.0)
            p = int(round(_log_uniform(rng, 2, 1000)))
            ops.append(Op(f"solve-r-{i}", ["closed-form", "--solve-r", repr(target), "--p", str(p),
                                           *fmt()], _solve_r_check(target, p)))
        for i in range(self.min_p):
            tiny = i < self.tiny
            target = _log_uniform(rng, 1e-300, 1e-155) if tiny else _log_uniform(rng, 1e-3, 0.5)
            r = float(rng.uniform(0.0, 0.95))
            ops.append(Op(f"min-p-{i}", ["closed-form", "--min-p", repr(target), "--r", repr(r),
                                         *fmt()], _min_p_check(target, r, tiny),
                          known=KNOWN_MIN_P_TINY if tiny else None))
        for i in range(self.evaluate):
            r = float(rng.uniform(0.0, 1.0))
            p = int(round(_log_uniform(rng, 2, 10_000)))
            ops.append(Op(f"evaluate-{i}", ["closed-form", "--r", repr(r), "--p", str(p), *fmt()],
                          _evaluate_check(r, p)))
        order = rng.permutation(len(ops))
        return [ops[i] for i in order]


# -- fit-check-files -------------------------------------------------------------

# Scale lengths, log-spaced from 10 to 400; each matrix is checked once with
# residuals (CSV) and once without (JSON), so a pass costs the same on every seed.
# Four matrices share p = 400: the 5% slowest calls of a pass are about three, so
# p95 latency then falls among four like calls, not at the edge of one.
# Nine share p = 27, a typical questionnaire length: their residual calls sit in
# the middle of the latency order, so p50 falls among like calls too.  Without
# them the median call lies where latency grows about 10% per rank, and which
# call lands there changes from run to run.
FIT_P = tuple(int(round(10 * 40 ** (k / 15))) for k in range(16)) + (400,) * 3 + (27,) * 8
COV_INDEX = (1, 5, 9, 12)
DELIMITERS = (", ", ";", " ")
TABLE_SRMR = re.compile(r"^\s+(\w+)\s+SRMR = ([0-9.]+)$")


def _one_factor_correlation(rng, p: int) -> tuple[np.ndarray, list[list[str]]]:
    """Sample loadings and a 3-decimal sample correlation matrix that is positive definite."""
    lam = rng.uniform(0.3, 0.8, p)
    n = 3 * p + 50
    while True:
        x = rng.standard_normal((n, 1)) * lam + rng.standard_normal((n, p)) * np.sqrt(1 - lam**2)
        corr = np.corrcoef(x, rowvar=False)
        tokens = [[f"{v:.3f}" for v in corr[i, : i + 1]] for i in range(p)]
        matrix = _from_tokens(tokens)
        if np.linalg.eigvalsh(matrix)[0] > 1e-3:
            return lam, tokens


def _from_tokens(tokens: list[list[str]]) -> np.ndarray:
    p = len(tokens)
    full = np.zeros((p, p))
    for i, row in enumerate(tokens):
        full[i, : i + 1] = [float(t) for t in row]
    return full + np.tril(full, -1).T


def _covariance_tokens(rng, tokens: list[list[str]]) -> list[list[str]]:
    """A 3-decimal covariance rescaling (SDs from 1 to 4) that is positive definite."""
    corr = _from_tokens(tokens)
    while True:
        scale = np.exp(rng.uniform(0.0, math.log(4.0), len(tokens)))
        cov = corr * np.outer(scale, scale)
        cov_tokens = [[f"{v:.3f}" for v in cov[i, : i + 1]] for i in range(len(tokens))]
        if np.linalg.eigvalsh(_from_tokens(cov_tokens))[0] > 1e-3:
            return cov_tokens


def _write_triangle(path: Path, tokens: list[list[str]], delimiter: str) -> None:
    trailer = ";" if delimiter == ";" else ""
    lines = ["* one-factor sample correlations, lower triangle"]
    lines += [delimiter.join(row) + trailer for row in tokens]
    path.write_text("\n".join(lines) + "\n")


def _fit_check(expected: dict[str, float], residual_rows: int | None):
    def check(result):
        problem = result.problem()
        if problem:
            return 1, problem
        if residual_rows is None:
            fits = json.loads(result.out)["fits"]
            got = {fit["model"]: fit["srmr"] for fit in fits}
            warnings = [w for fit in fits for w in fit["warnings"]]
        else:
            head = result.out[:20_000].splitlines()
            got = {line.split(",")[1]: float(line.split(",")[4])
                   for line in head if line.startswith("srmr,")}
            warnings = [line for line in head if line.startswith("warning,")]
            rows = result.out.count("\nresidual,")
            if rows != residual_rows:
                return 1, f"{rows} residual rows, expected {residual_rows}"
        if set(got) != set(expected):
            return 1, f"models {sorted(got)}, expected {sorted(expected)}"
        for model, value in expected.items():
            if not abs(got[model] - value) <= SRMR_TOL:
                return 1, f"{model} SRMR {got[model]!r} vs reference {value!r}"
        if warnings:
            return 1, f"unexpected warnings: {warnings[:2]}"
        return 0, ""
    return check


def _stai_check(result):
    problem = result.problem()
    if problem:
        return 1, f"demo: {problem}"
    got = {m.group(1): m.group(2) for m in map(TABLE_SRMR.match, result.out.splitlines()) if m}
    if got != ref.STAI_GOLDENS:
        return 1, f"demo goldens {got} vs {ref.STAI_GOLDENS}"
    return 0, ""


class FitCheckFiles(Workload):
    """Seeded lower-triangle matrix files, their loadings, and covariance rescalings."""

    name = "fit-check-files"
    warmup = ["fit-check", "--demo", "stai", "--reflective"]
    min_calls = 200

    def ops(self, seed, workdir):
        ops = [Op("demo", ["fit-check", "--demo", "stai", "--reflective"], _stai_check)]
        for index, p in enumerate(FIT_P):
            rng = _rng(seed, 2, index)
            lam, tokens = _one_factor_correlation(rng, p)
            lam_text = [f"{v:.3f}" for v in lam]
            matrix_path = workdir / f"corr-{index}.txt"
            loadings_path = workdir / f"loadings-{index}.txt"
            _write_triangle(matrix_path, tokens, DELIMITERS[int(rng.integers(len(DELIMITERS)))])
            loadings_path.write_text("\n".join(lam_text) + "\n")
            expected = ref.fit_check_srmrs(_from_tokens(tokens), np.array(lam_text, dtype=float))
            base = ["fit-check", "--matrix", str(matrix_path), "--loadings", str(loadings_path),
                    "--reflective"]
            ops.append(Op(f"corr-{index}-csv", base + ["--residuals", "--format", "csv"],
                          _fit_check(expected, 3 * p * p)))
            ops.append(Op(f"corr-{index}-json", base + ["--format", "json"],
                          _fit_check(expected, None)))
            if index in COV_INDEX:
                cov_tokens = _covariance_tokens(rng, tokens)
                cov_path = workdir / f"cov-{index}.txt"
                _write_triangle(cov_path, cov_tokens, DELIMITERS[index % len(DELIMITERS)])
                expected = ref.fit_check_srmrs(_from_tokens(cov_tokens), None)
                ops.append(Op(f"cov-{index}", ["fit-check", "--matrix", str(cov_path), "--format",
                                               "json"], _fit_check(expected, None),
                              known=KNOWN_COV_SRMR))
        # The same order on every seed: a call's time depends on where it runs
        # in the pass, by up to a third for the same p = 27 call, and a seeded
        # order turned that into seed-to-seed spread of p50 latency.
        order = _rng(0, 3).permutation(len(ops))
        return [ops[i] for i in order]


WORKLOADS = {cls.name: cls for cls in (SimGrid, ClosedFormBatch, FitCheckFiles)}
