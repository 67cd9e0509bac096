"""Command line interface: ``fit-check``, ``closed-form`` and ``simulate``.

Every subcommand is a pure function of its arguments and input files; identical
invocations produce identical output bytes.  Warnings are carried inside the
report and never change the exit status; hard errors print to stderr and exit
nonzero.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import sys
from pathlib import Path

from . import datasets
from ._numpy import np
from .errors import ScorefitError, SingularMatrixError, ValidationError
from .fileio import parse_loadings, parse_matrix
from .fit import (
    _standardized,
    min_p_for_srmr,
    required_r_curve,
    solve_r_for_srmr,
    srmr,
    srmr_parallel_closed_form,
)
from .model import CorrelationMatrix, FactorModel, _near_singular, cholesky_lower, factor_implied_sigma
from .report import OutputFormat, ReportDocument, _one_line
from .scoring import fs_implied_sigma, score_model_implied_sigma
from .simulation import SAMPLER, LoadingPattern, SimulationConfig, run_simulation


# main trims the heap only after a report of at least this many characters.
# glibc keeps freed heap pages resident, and whether a later report-sized block
# reused them made the peak memory of repeated large fit-check --residuals calls
# swing by one report (20 to 25 MB at p = 400), so those reports still trim.
# A small report sets no peak, and trimming after it cost about 0.3 ms of a
# 3 ms p = 27 residual report: the malloc_trim call, and the page faults of the
# next call, which touches again the pages just handed back.  With this gate
# the benchmark's fit-check-files latency_p50_ms went 3.08 -> 2.78 ms and its
# peak stayed at 122-123 MB; 16 MiB was no faster and peaked up to 1 MB higher
# (2-vCPU Xeon VM, Python 3.11).
TRIM_AFTER_CHARS = 1 << 20


@functools.cache
def _malloc_trim():
    """glibc's ``malloc_trim``, or None where the C library has none."""
    import ctypes  # only a call that trims loads it

    try:
        malloc_trim = ctypes.CDLL(None).malloc_trim
    except (AttributeError, OSError, TypeError):
        return None
    malloc_trim.argtypes, malloc_trim.restype = (ctypes.c_size_t,), ctypes.c_int
    return malloc_trim


def _list_of(convert):
    """argparse type: comma-separated tokens, each passed through convert; blanks skipped."""

    def parse(text: str) -> tuple:
        try:
            return tuple(convert(tok) for tok in text.split(",") if tok.strip())
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from exc

    return parse


def _p_range(text: str) -> range:
    """Inclusive integer range 'start:stop[:step]'."""
    parts = text.split(":")
    if len(parts) not in (2, 3):
        raise argparse.ArgumentTypeError(f"expected start:stop[:step], got {text!r}")
    try:
        start, stop = int(parts[0]), int(parts[1])
        step = int(parts[2]) if len(parts) == 3 else 1
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc
    if step < 1 or stop < start:
        raise argparse.ArgumentTypeError(f"empty or descending range {text!r}")
    return range(start, stop + 1, step)


def _add_output_flags(sub: argparse.ArgumentParser, default_format: str) -> None:
    sub.add_argument(
        "--format",
        choices=[f.value for f in OutputFormat],
        default=default_format,
        help="output format (default: %(default)s)",
    )
    sub.add_argument("--out", metavar="PATH", help="write the report to PATH instead of stdout")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The ``scorefit`` parser, built once per process.

    Building it costs about ten times a ``parse_args`` call, which is most of
    a ``closed-form`` call.  Parsing only reads the tree: each call gets a new
    namespace, and help and usage text are formatted, at the terminal width
    then in effect, only when printed.
    """
    parser = argparse.ArgumentParser(
        prog="scorefit",
        description=(
            "Fit diagnostics for the covariance models implied by factor score "
            "estimates and unit-weighted scales (SRMR), plus the parallel-"
            "measurement closed form and a Monte Carlo study of sample SRMR."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fit = sub.add_parser(
        "fit-check",
        help="SRMR of the unit-weighted (and optionally factor-score / reflective) model",
    )
    src = fit.add_mutually_exclusive_group(required=True)
    src.add_argument("--matrix", metavar="PATH", help="correlation/covariance matrix file")
    src.add_argument("--demo", choices=["stai"], help="use the bundled example dataset")
    fit.add_argument("--loadings", metavar="PATH", help="standardized loadings file (one per line)")
    fit.add_argument(
        "--reflective",
        action="store_true",
        help="also report the reflective one-factor model (needs loadings)",
    )
    fit.add_argument("--residuals", action="store_true", help="include residual matrices")
    _add_output_flags(fit, "table")
    fit.set_defaults(handler=_cmd_fit_check)

    closed = sub.add_parser(
        "closed-form",
        help="parallel-measurement SRMR: evaluate, invert for r, minimal p, or curve table",
    )
    mode = closed.add_mutually_exclusive_group()
    mode.add_argument("--solve-r", type=float, metavar="TARGET", help="find r reaching TARGET at --p")
    mode.add_argument("--min-p", type=float, metavar="TARGET", help="find smallest p reaching TARGET at --r")
    mode.add_argument(
        "--curve",
        type=_list_of(float),
        metavar="L1,L2,...",
        help="required r for each SRMR level over --p-range",
    )
    closed.add_argument("--r", type=float, help="inter-correlation in [0, 1]")
    closed.add_argument("--p", type=int, help="number of indicators (>= 2)")
    closed.add_argument(
        "--p-range", type=_p_range, metavar="A:B[:S]", help="inclusive p range for --curve"
    )
    _add_output_flags(closed, "table")
    closed.set_defaults(handler=_cmd_closed_form)

    sim = sub.add_parser("simulate", help="Monte Carlo study of the unit-weighted-scale SRMR")
    design = SimulationConfig  # its class attributes are the field defaults
    sim.add_argument("--n", type=_list_of(int), default=design.sample_sizes, metavar="N1,N2,...")
    sim.add_argument("--l", type=_list_of(float), default=design.mean_loadings, metavar="L1,L2,...")
    sim.add_argument("--p", type=_list_of(int), default=design.indicator_counts, metavar="P1,P2,...")
    sim.add_argument(
        "--pattern",
        choices=[pattern.value for pattern in LoadingPattern] + ["both"],
        default="both",
        help="loading pattern(s) to simulate (default: %(default)s)",
    )
    sim.add_argument(
        "--reps",
        type=int,
        default=design.replications,
        help="replications per cell (default: %(default)s)",
    )
    sim.add_argument("--seed", type=int, default=design.seed, help="master seed (default: %(default)s)")
    sim.add_argument(
        "--workers",
        type=int,
        default=1,
        help="accepted for compatibility; has no effect",
    )
    _add_output_flags(sim, "csv")
    sim.set_defaults(handler=_cmd_simulate)

    return parser


def _read_input(name: str, label: str, path, parse, **options):
    """``parse(path, **options)`` and its echo: ``name`` as ``label``, then the
    SHA-256 of the bytes parsed."""
    digest = hashlib.sha256()
    value = parse(path, digest=digest, **options)
    return value, [(name, label), (f"{name}_sha256", digest.hexdigest())]


def _cmd_fit_check(args) -> ReportDocument:
    # Each input file is read as (echo label, path); the demo names its own two.
    if args.demo:
        source = f"demo:{args.demo}"
        matrix_input = (source, datasets.STAI_MATRIX_PATH)
        loadings_input = (source, datasets.STAI_LOADINGS_PATH)
    else:
        source = str(Path(args.matrix))
        matrix_input, loadings_input = (source, source), None
    if args.loadings is not None:
        loadings_input = (str(Path(args.loadings)),) * 2
    sigma, inputs = _read_input("matrix", *matrix_input, parse_matrix)
    inputs.append(("p", str(sigma.p)))

    # The loadings are standardized, so every model is scored on the correlation
    # metric: a covariance matrix becomes D^-1/2 Sigma D^-1/2 first.
    variances = np.diagonal(sigma.values)
    if not (variances == 1.0).all():
        values = _standardized(sigma.values, variances, f"{source}: ")
        np.fill_diagonal(values, 1.0)
        sigma = CorrelationMatrix(values)
        inputs.append(("metric", "covariance, rescaled to correlation"))

    loadings = None
    if loadings_input is not None:
        loadings, echo = _read_input("loadings", *loadings_input, parse_loadings, expected_p=sigma.p)
        inputs += echo

    if args.reflective and loadings is None:
        raise ValidationError("--reflective requires loadings")

    # The unit-weighted scale adds the items up, each with a negative loading
    # reversed (weight -1); without loadings every weight is +1.
    unit = np.ones(sigma.p) if loadings is None else np.where(loadings < 0, -1.0, 1.0)
    models = [("unit_weighted", score_model_implied_sigma, (sigma, unit))]
    fits, found = [], []
    if loadings is None:
        # No model inverts Sigma, so factor it here to note a non-PD matrix.
        # With loadings the factor-score model's own inversion rejects it.
        try:
            cholesky_lower(sigma.values)
        except SingularMatrixError as exc:
            note = f"{source}: matrix is not positive definite ({exc})"
            found.append(("unit_weighted", note))
    else:
        # Validate the loadings before any model is scored.
        model = FactorModel.from_standardized_loadings(loadings)
        models.append(("factor_score", fs_implied_sigma, (sigma, model)))
        if args.reflective:
            models.append(("reflective", factor_implied_sigma, (model,)))

    for label, implied_sigma, operands in models:
        # A near-singular pivot is a report line; other warnings meet the caller's filters.
        token = _near_singular.set(notes := [])
        try:
            implied = implied_sigma(*operands)
            fits.append((label, srmr(sigma, implied)))
        except ScorefitError as exc:
            # Name the model: a non-PD matrix fails only the models that invert it.
            # The exception keeps its class and attributes (such as pivot_index).
            # The findings that led up to it are dropped.
            exc.args = (f"{label} model: {exc}",) + exc.args[1:]
            raise
        finally:
            _near_singular.reset(token)
        found += [(label, note) for note in notes]

    return ReportDocument(
        inputs=tuple(inputs),
        fits=tuple(fits),
        warnings=tuple(found),
        include_residuals=args.residuals,
    )


def _refuse_unread(mode: str, *options) -> None:
    """Raise for the first (flag, value) given on the command line that mode does not read.

    Called once a mode has done its own checks and work, so that an argv that
    failed for another reason keeps that message.
    """
    for flag, value in options:
        if value is not None:
            raise ValidationError(f"{mode} does not read {flag}")


def _cmd_closed_form(args) -> ReportDocument:
    if args.curve is not None:
        if args.p_range is None:
            raise ValidationError("--curve requires --p-range")
        curve = required_r_curve(args.curve, args.p_range)
        _refuse_unread("--curve", ("--r", args.r), ("--p", args.p))
        inputs = (
            ("levels", ",".join(repr(v) for v in curve.levels)),
            ("p_range", f"{args.p_range.start}:{args.p_range.stop - 1}:{args.p_range.step}"),
        )
        return ReportDocument(inputs=inputs, curve=curve)

    if args.solve_r is not None:
        if args.p is None:
            raise ValidationError("--solve-r requires --p")
        value = solve_r_for_srmr(args.solve_r, args.p)
        _refuse_unread("--solve-r", ("--r", args.r), ("--p-range", args.p_range))
        inputs = (("target_srmr", repr(args.solve_r)), ("p", str(args.p)))
        return ReportDocument(inputs=inputs, values=(("required_r", value),))

    if args.min_p is not None:
        if args.r is None:
            raise ValidationError("--min-p requires --r")
        value = min_p_for_srmr(args.min_p, args.r)
        _refuse_unread("--min-p", ("--p", args.p), ("--p-range", args.p_range))
        inputs = (("target_srmr", repr(args.min_p)), ("r", repr(args.r)))
        return ReportDocument(inputs=inputs, values=(("min_p", value),))

    if args.r is None or args.p is None:
        raise ValidationError("closed-form needs --r and --p (or one of --solve-r/--min-p/--curve)")
    value = srmr_parallel_closed_form(args.r, args.p)
    _refuse_unread("the --r/--p evaluation", ("--p-range", args.p_range))
    inputs = (("r", repr(args.r)), ("p", str(args.p)))
    return ReportDocument(inputs=inputs, values=(("srmr", value),))


def _cmd_simulate(args) -> ReportDocument:
    patterns = tuple(LoadingPattern) if args.pattern == "both" else (LoadingPattern(args.pattern),)
    # Validate every pattern's config before any grid runs.
    configs = [
        SimulationConfig(
            sample_sizes=args.n,
            mean_loadings=args.l,
            indicator_counts=args.p,
            loading_pattern=pattern,
            replications=args.reps,
            seed=args.seed,
        )
        for pattern in patterns
    ]
    tables = [run_simulation(config) for config in configs]
    # Interleave so each (n, l, p) design row shows both patterns adjacently.
    cells = [cell for row in zip(*tables) for cell in row]
    inputs = (
        ("n", ",".join(str(n) for n in args.n)),
        ("l", ",".join(repr(l) for l in args.l)),
        ("p", ",".join(str(p) for p in args.p)),
        ("pattern", args.pattern),
        ("replications", str(args.reps)),
        ("seed", str(args.seed)),
        ("sampler", SAMPLER),
    )
    return ReportDocument(inputs=inputs, cells=tuple(cells))


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        text = dataclasses.replace(args.handler(args), fmt=OutputFormat(args.format)).render()
    except ScorefitError as exc:
        print("scorefit: error: " + _one_line(str(exc)), file=sys.stderr)
        return 1
    except MemoryError:
        print("scorefit: error: out of memory while building the report", file=sys.stderr)
        return 1
    if len(text) >= TRIM_AFTER_CHARS and (malloc_trim := _malloc_trim()) is not None:
        malloc_trim(0)  # hand the pages freed while rendering back to the system
    try:
        if args.out:
            # Echoed filenames keep their undecodable bytes, whatever the locale.
            Path(args.out).write_text(text, encoding="utf-8", errors="surrogateescape")
        else:
            sys.stdout.write(text)
    except (OSError, UnicodeEncodeError) as exc:
        message = f"cannot write {args.out or 'stdout'}: {exc}"
        print("scorefit: error: " + _one_line(message), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
