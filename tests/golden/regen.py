"""Golden CLI outputs: the command set, how one command runs, and regeneration.

The goldens are the CLI contract: a behaviour is pinned by adding its argv
to ``COMMANDS`` and regenerating.  Each ``<name>.json`` here holds one
command's argv, exit status, stdout and stderr, with the two texts stored as
lists of lines so that a diff of the goldens reads line by line.
``fingerprint.json`` records the numpy version, the BLAS and the machine the
goldens were made with; ``mismatch`` compares bytes where the fingerprint
matches and numbers to a tolerance elsewhere.  Commands run from ``inputs/``,
so echoed paths are relative: in-process through ``scorefit.cli.main`` here
and in ``tests/test_golden.py``, and as a fresh process in ``replay.py``.

Usage, from the repository root::

    python tests/golden/regen.py

runs every command from the source in ``src/``, rewrites only the goldens
whose content changed (or that are new), deletes goldens whose command is no
longer in the set, and prints ``moved <name>`` for each golden it wrote, then
``N of M moved``.  Where only numbers moved, the line also gives the largest
move of an old number to its new one as a fraction of the token-mode
tolerance (see ``mismatch``): at 1 or less the old golden would still pass
in token mode.  ``--help``
and argparse usage errors (exit 2) are left out: their text depends on the
Python version and the terminal width.
"""

from __future__ import annotations

import contextlib
import functools
import io
import itertools
import json
import math
import os
import platform
import re
import sys
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent
INPUTS = GOLDEN_DIR / "inputs"
SRC = GOLDEN_DIR.parents[1] / "src"
FINGERPRINT = GOLDEN_DIR / "fingerprint.json"

_FORMATS = ("table", "csv", "json")
_LOWER_TRIANGLE = ["--loadings", "loadings.txt", "--reflective", "--residuals"]

# Each of these runs once per output format.
_REPORTS = {
    "fit-check-stai": ["fit-check", "--demo", "stai"],
    "fit-check-stai-reflective-residuals": [
        "fit-check", "--demo", "stai", "--reflective", "--residuals",
    ],
    "fit-check-all-ones": ["fit-check", "--matrix", "ones.txt"],
    "fit-check-near-singular": [
        "fit-check", "--matrix", "near.txt", "--loadings", "near_loadings.txt", "--residuals",
    ],
    "fit-check-covariance": [
        "fit-check", "--matrix", "covariance.txt", "--loadings", "covariance_loadings.txt",
        "--reflective", "--residuals",
    ],
    "fit-check-semicolon": ["fit-check", "--matrix", "semicolon.txt", *_LOWER_TRIANGLE],
    "fit-check-comma": ["fit-check", "--matrix", "comma.txt", *_LOWER_TRIANGLE],
    "fit-check-whitespace": ["fit-check", "--matrix", "whitespace.txt", *_LOWER_TRIANGLE],
    "closed-form-evaluate": ["closed-form", "--r", "0.64", "--p", "24"],
    "closed-form-solve-r": ["closed-form", "--solve-r", "0.09", "--p", "60"],
    "closed-form-min-p": ["closed-form", "--min-p", "0.09", "--r", "0.199"],
    "closed-form-curve": ["closed-form", "--curve", "0.09,0.06,0.6", "--p-range", "4:40:3"],
    "simulate-default-reps-1": ["simulate", "--reps", "1"],
    "simulate-default-reps-28": ["simulate", "--reps", "28"],
    "simulate-reordered-grid": [
        "simulate", "--n", "300,150,300", "--l", "0.6,0.2,0.6", "--p", "12,6", "--reps", "30",
    ],
    "simulate-near-singular": [
        "simulate", "--n", "150", "--l", "0.9999999", "--p", "6", "--reps", "5",
        "--pattern", "constant",
    ],
}

# Each of these runs once: an error exits before the format matters, and the
# 200-replication grid (about 0.15 s a run) runs in CSV alone, the format that
# carries every digit, to keep the whole set under one second.
_ONCE = {
    "simulate-default-reps-200.csv": ["simulate", "--reps", "200", "--format", "csv"],
    "fit-check-all-ones-loadings": [
        "fit-check", "--matrix", "ones.txt", "--loadings", "ones_loadings.txt",
    ],
    "fit-check-double-fault": [
        "fit-check", "--matrix", "double_fault.txt", "--loadings", "double_fault_loadings.txt",
    ],
    "fit-check-bom": ["fit-check", "--matrix", "bom.txt"],
    # Variances too large to square: rescaled to correlation entry by entry,
    # so nothing overflows and the SRMR is the unscaled one.
    "fit-check-lower-1e308": ["fit-check", "--matrix", "lower_1e308.txt"],
    "fit-check-full-1e308": ["fit-check", "--matrix", "full_1e308.txt"],
    "fit-check-diagonal-1e200.json": [
        "fit-check", "--matrix", "diagonal_1e200.txt", "--format", "json",
    ],
    # An off-diagonal entry too large to square: the Cholesky pivot is -inf,
    # refused without a numpy warning, and the SRMR is not finite.
    "fit-check-offdiagonal-1e200": ["fit-check", "--matrix", "offdiagonal_1e200.txt"],
    # A full matrix whose two off-diagonal entries differ by 1e308: the
    # symmetry check names the pair, and neither it nor its bound overflows.
    "fit-check-asymmetric-1e308": ["fit-check", "--matrix", "asymmetric_1e308.txt"],
    # A covariance whose off-diagonal is far above its 1e-300 variances: the
    # rescale overflows to inf without a numpy warning, and is refused as non-finite.
    "fit-check-rescale-overflow": ["fit-check", "--matrix", "rescale_overflow.txt"],
    # Covariance input at large scales: every model is scored on the
    # correlation rescaling, so the report matches the unscaled matrix's.
    "fit-check-covariance-1e4.csv": [
        "fit-check", "--matrix", "covariance_1e4.txt", "--loadings", "covariance_p12_loadings.txt",
        "--reflective", "--residuals", "--format", "csv",
    ],
    "fit-check-covariance-1e12.csv": [
        "fit-check", "--matrix", "covariance_1e12.txt", "--residuals", "--format", "csv",
    ],
    # Unit variances whose B' Sigma B is finite but whose unit-weighted product
    # Sigma B (B' Sigma B)^-1 B' Sigma overflows: the error names that product.
    "fit-check-model-overflow": ["fit-check", "--matrix", "model_overflow.txt"],
    # A loading too large to square: the communality error, and no numpy warning.
    "fit-check-loading-1e200": [
        "fit-check", "--matrix", "whitespace.txt", "--loadings", "loading_1e200.txt",
    ],
    "fit-check-reflective-without-loadings": [
        "fit-check", "--matrix", "ones.txt", "--reflective",
    ],
    # One data line more than fileio.MAX_MATRIX_ROWS: refused before any row is
    # converted to floats.
    "fit-check-rows-over-cap": ["fit-check", "--matrix", "rows_over_cap.txt"],
    # STAI with items 1, 4 and 7 (0-based) reverse-keyed: D Sigma D and D lambda.
    # The unit-weighted scale follows the loading signs, so every SRMR is the demo's.
    "fit-check-stai-reflected": [
        "fit-check", "--matrix", "stai_reflected.txt", "--loadings", "stai_reflected_loadings.txt",
        "--reflective",
    ],
    "closed-form-solve-r-unattainable": ["closed-form", "--solve-r", "5", "--p", "6"],
    "closed-form-min-p-beyond-2-53": ["closed-form", "--min-p", "1e-300", "--r", "0.1"],
    "closed-form-min-p-r-1": ["closed-form", "--min-p", "0.09", "--r", "1.0"],
    # Targets that are not finite: refused, and the message says why.
    "closed-form-min-p-inf": ["closed-form", "--min-p", "inf", "--r", "0.5"],
    "closed-form-solve-r-nan": ["closed-form", "--solve-r", "nan", "--p", "10"],
    "closed-form-curve-without-range": ["closed-form", "--curve", "0.1"],
    "closed-form-curve-unread-r": [
        "closed-form", "--curve", "0.06", "--p-range", "4:6", "--r", "0.5",
    ],
    "closed-form-evaluate-p-1": ["closed-form", "--r", "0.5", "--p", "1"],
    "closed-form-no-mode": ["closed-form"],
    "simulate-odd-p-variable": ["simulate", "--p", "7", "--pattern", "variable"],
    "simulate-loading-1": ["simulate", "--l", "1.0"],
    # A population that cannot be factored: the error names it.
    "simulate-singular-population": [
        "simulate", "--n", "150", "--l", "0.9999999999999999", "--p", "6", "--reps", "5",
        "--pattern", "constant",
    ],
}

COMMANDS = {
    **{
        f"{name}.{fmt}": [*argv, "--format", fmt]
        for name, argv in _REPORTS.items()
        for fmt in _FORMATS
    },
    **_ONCE,
}


def fingerprint() -> dict:
    """What the last bits of a result may depend on: numpy, its BLAS and the CPU."""
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # numpy < 1.26 has no mode="dicts"
        blas = "unknown"
    return {"numpy": np.__version__, "blas": blas, "machine": platform.machine()}


def run(argv: list[str]) -> dict:
    """Run one command through ``main`` from ``inputs/``; its argv, exit status and output."""
    from scorefit.cli import main  # here, so that a regeneration imports src/ first

    stdout, stderr = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(INPUTS)
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            status = main(argv)
    finally:
        os.chdir(cwd)
    return {"argv": argv, "exit": status, "stdout": stdout.getvalue(), "stderr": stderr.getvalue()}


def load(path: Path) -> dict:
    golden = json.loads(path.read_text(encoding="utf-8"))
    golden["stdout"] = "".join(golden["stdout"])
    golden["stderr"] = "".join(golden["stderr"])
    return golden


# Token mode's tolerance: two numbers match where |a - b| is at most
# max(REL_TOL * max(|a|, |b|), ABS_TOL), as in math.isclose.
REL_TOL, ABS_TOL = 1e-12, 1e-15

_NUMBER = re.compile(r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)")


def _number_pairs(actual: str, expected: str) -> list[tuple[float, float]] | None:
    """Each number of ``actual`` with the one in its place in ``expected``.

    None where the texts between numbers differ.
    """
    got, want = _NUMBER.split(actual), _NUMBER.split(expected)
    if len(got) != len(want) or got[0::2] != want[0::2]:
        return None
    return [(float(a), float(b)) for a, b in zip(got[1::2], want[1::2])]


def _same_tokens(actual: str, expected: str) -> bool:
    """The texts between numbers match exactly, and each number to the tolerance."""
    pairs = _number_pairs(actual, expected)
    return pairs is not None and all(
        math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL) for a, b in pairs
    )


@functools.cache
def compare_mode() -> tuple[bool, str]:
    """Whether ``mismatch`` compares bytes here, and why."""
    recorded = json.loads(FINGERPRINT.read_text(encoding="utf-8"))
    if recorded == fingerprint():
        return True, f"byte compare (fingerprint {recorded} matches)"
    return False, f"token compare (fingerprint {fingerprint()} is not the recorded {recorded})"


def mismatch(actual: dict, expected: dict) -> str | None:
    """The first way a run differs from its golden, or None where they match.

    Where this machine's fingerprint is the recorded one, exit status, stdout
    and stderr must match byte for byte.  Elsewhere a last-bit BLAS difference
    is allowed: the texts between numbers must match exactly, and each number
    to 1e-12 relative (1e-15 absolute, for residuals that are rounding noise
    around zero).  ``compare_mode`` says which applies.
    """
    same = str.__eq__ if compare_mode()[0] else _same_tokens
    if actual["argv"] != expected["argv"]:
        return f"argv {actual['argv']} is not the golden's: rerun tests/golden/regen.py"
    if actual["exit"] != expected["exit"]:
        return f"exit status {actual['exit']}, want {expected['exit']}"
    for stream in ("stdout", "stderr"):
        got, want = actual[stream].splitlines(True), expected[stream].splitlines(True)
        for lineno, (line, golden_line) in enumerate(itertools.zip_longest(got, want), 1):
            if line is None or golden_line is None or not same(line, golden_line):
                return f"{stream} line {lineno}: got {line!r}, want {golden_line!r}"
    return None


def _dump(path: Path, data: dict) -> bool:
    """Write data as JSON to path unless the file holds that text already.

    Whether it wrote (a new file counts).  An unchanged file keeps its mtime.
    """
    text = json.dumps(data, indent=1) + "\n"
    if path.exists() and path.read_text(encoding="utf-8") == text:
        return False
    path.write_text(text, encoding="utf-8")
    return True


def largest_relative_move(old: dict, new: dict) -> float | None:
    """The largest ``|a - b|`` over the numbers of two runs of a command, as a
    fraction of the token-mode tolerance ``max(REL_TOL * max(|a|, |b|), ABS_TOL)``.

    At 1 or less, ``_same_tokens`` accepts each line of one run against the
    other.  None unless the runs differ in their numbers alone: same argv and
    exit status, and the same text between numbers in stdout and stderr.
    """
    if old["argv"] != new["argv"] or old["exit"] != new["exit"]:
        return None
    largest = 0.0
    for stream in ("stdout", "stderr"):
        pairs = _number_pairs(new[stream], old[stream])
        if pairs is None:
            return None
        for a, b in pairs:
            if a != b:
                tolerance = max(REL_TOL * max(abs(a), abs(b)), ABS_TOL)
                largest = max(largest, abs(a - b) / tolerance)
    return largest


def regenerate() -> None:
    """Rewrite each golden whose content changed, printing ``moved <name>`` for it."""
    for stale in set(GOLDEN_DIR.glob("*.json")) - {FINGERPRINT}:
        if stale.stem not in COMMANDS:
            stale.unlink()
    moved = 0
    for name, argv in COMMANDS.items():
        path = GOLDEN_DIR / f"{name}.json"
        old = load(path) if path.exists() else None
        result = run(argv)
        move = None if old is None else largest_relative_move(old, result)
        for stream in ("stdout", "stderr"):
            result[stream] = result[stream].splitlines(keepends=True)
        if _dump(path, result):
            numbers = "" if move is None else f" (numbers only, {move:.2g} of the tolerance)"
            print(f"moved {name}{numbers}")
            moved += 1
    _dump(FINGERPRINT, fingerprint())
    print(f"{moved} of {len(COMMANDS)} moved")


if __name__ == "__main__":
    sys.path.insert(0, str(SRC))
    regenerate()
