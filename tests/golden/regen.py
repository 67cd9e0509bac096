"""Golden CLI outputs: the command set, how one command runs, and regeneration.

Each ``<name>.json`` here holds one command's argv, exit status, stdout and
stderr, with the two texts stored as lists of lines so that a diff of the
goldens reads line by line.  ``fingerprint.json`` records the numpy version,
the BLAS and the machine the goldens were made with; ``tests/test_golden.py``
compares bytes where the fingerprint matches and numbers to a tolerance
elsewhere.  Commands run in-process through ``scorefit.cli.main`` from
``inputs/``, so echoed paths are relative.

Usage, from the repository root::

    python tests/golden/regen.py

rewrites every golden from the source in ``src/`` and deletes goldens whose
command is no longer in the set.  ``--help`` and argparse usage errors (exit
2) are left out: their text depends on the Python version and the terminal
width.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import sys
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent
INPUTS = GOLDEN_DIR / "inputs"
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
    # Entries too large to square: an error, never an SRMR of inf.
    "fit-check-lower-1e308": ["fit-check", "--matrix", "lower_1e308.txt"],
    "fit-check-full-1e308": ["fit-check", "--matrix", "full_1e308.txt"],
    "fit-check-diagonal-1e200.json": [
        "fit-check", "--matrix", "diagonal_1e200.txt", "--format", "json",
    ],
    # Covariance input at large scales: model products whose rounding
    # asymmetry is far above 1e-10 in absolute terms, yet tiny against the scale.
    "fit-check-covariance-1e4.csv": [
        "fit-check", "--matrix", "covariance_1e4.txt", "--loadings", "covariance_p12_loadings.txt",
        "--reflective", "--residuals", "--format", "csv",
    ],
    "fit-check-covariance-1e12.csv": [
        "fit-check", "--matrix", "covariance_1e12.txt", "--residuals", "--format", "csv",
    ],
    "fit-check-reflective-without-loadings": [
        "fit-check", "--matrix", "ones.txt", "--reflective",
    ],
    "closed-form-solve-r-unattainable": ["closed-form", "--solve-r", "5", "--p", "6"],
    "closed-form-min-p-beyond-2-53": ["closed-form", "--min-p", "1e-300", "--r", "0.1"],
    "closed-form-min-p-r-1": ["closed-form", "--min-p", "0.09", "--r", "1.0"],
    "closed-form-curve-without-range": ["closed-form", "--curve", "0.1"],
    "closed-form-no-mode": ["closed-form"],
    "simulate-odd-p-variable": ["simulate", "--p", "7", "--pattern", "variable"],
    "simulate-loading-1": ["simulate", "--l", "1.0"],
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


def _dump(path: Path, data: dict) -> None:
    path.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")


def regenerate() -> None:
    for stale in set(GOLDEN_DIR.glob("*.json")) - {FINGERPRINT}:
        if stale.stem not in COMMANDS:
            stale.unlink()
    for name, argv in COMMANDS.items():
        result = run(argv)
        for stream in ("stdout", "stderr"):
            result[stream] = result[stream].splitlines(keepends=True)
        _dump(GOLDEN_DIR / f"{name}.json", result)
    _dump(FINGERPRINT, fingerprint())


if __name__ == "__main__":
    sys.path.insert(0, str(GOLDEN_DIR.parents[1] / "src"))
    regenerate()
