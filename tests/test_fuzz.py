"""Fuzz the text of ``fit-check``'s input files, run through ``main``.

Whatever a matrix file and a loadings file hold, ``fit-check`` either exits 0
with a report that strict readers take and nothing on stderr, or exits 1 with
one ``scorefit: error:`` line and no report.  Each case runs with and without
loadings, in all three formats, with every warning an error.
"""

import contextlib
import csv
import io
import json
import tempfile
import warnings
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from scorefit.cli import main

# Separators as written between entries; the parser detects ";", then ",",
# then whitespace.  A doubled comma or semicolon leaves a blank token.
_SEPARATORS = (",", ", ", ",,", ";", " ; ", ";;", " ", "\t", "   ")

_MAGNITUDE = st.floats(1e-300, 1.7e308)
_SIGNED = st.builds(lambda sign, x: sign * x, st.sampled_from((1.0, -1.0)), _MAGNITUDE)
_VARIANCE = st.one_of(st.just(1.0), _MAGNITUDE, st.sampled_from((0.0, -1.0)))
_OFF_DIAGONAL = st.one_of(st.floats(-1.0, 1.0), _SIGNED, st.sampled_from((0.0, 1e308, -1e308)))
# Standard deviations whose squares span the variances above.
_SD = st.one_of(st.just(1.0), st.floats(1e-150, 1.3e154))
# A loading: standardized, or possibly one at the bounds or too large to square.
_STANDARDIZED = st.floats(-0.95, 0.95)
_ANY_LOADING = _STANDARDIZED | st.sampled_from((0.0, 1.0, -1.0, 1e200, -1e200, 1e308, -1e308))
_NUMBER_FORMATS = ("{!r}", "{:.6g}", "{:+.3E}", "{:.17e}")


@st.composite
def _matrix_text(draw):
    """The text of a matrix file of at most six rows, and its row count.

    Half the matrices are covariances D R D of a diagonally dominant R, so
    positive definite; the others hold any entries.  A full layout may give
    an entry's mirror another value, or the entry off by a relative 1e-11 or 1e-9.
    """
    p = draw(st.integers(1, 6))
    m = [[0.0] * p for _ in range(p)]
    if draw(st.booleans()):
        sd = [draw(_SD) for _ in range(p)]
        for i in range(p):
            m[i][i] = sd[i] * sd[i]
            for j in range(i):
                m[i][j] = m[j][i] = draw(st.floats(-0.19, 0.19)) * sd[i] * sd[j]
    else:
        for i in range(p):
            m[i][i] = draw(_VARIANCE)
            for j in range(i):
                m[i][j] = m[j][i] = draw(_OFF_DIAGONAL)
    lower = draw(st.booleans())
    if not lower and draw(st.booleans()):
        for i in range(p):
            for j in range(i):
                if draw(st.integers(0, 3)) == 0:
                    factor = st.sampled_from((1 + 1e-11, 1 + 1e-9))
                    m[j][i] = draw(_OFF_DIAGONAL | st.builds(lambda f: m[i][j] * f, factor))
    separator = draw(st.sampled_from(_SEPARATORS))
    number = draw(st.sampled_from(_NUMBER_FORMATS))
    newline = draw(st.sampled_from(("\n", "\r\n")))
    bom = "\ufeff" if draw(st.booleans()) else ""
    lines = []
    for i, row in enumerate(m):
        if draw(st.integers(0, 4)) == 0:
            lines.append("* a comment, with; separators 1 2 3")
        entries = row[: i + 1] if lower else row
        lines.append(separator.join(number.format(v) for v in entries))
        if draw(st.integers(0, 4)) == 0:
            lines.append("")
    return bom + newline.join(lines) + newline, p


@st.composite
def _loadings_text(draw, p):
    """The text of a loadings file of p - 1, p or p + 1 values.

    Either one value per line or one delimited row, with comment and blank
    lines around them; the values are all standardized in half the files.
    """
    count = draw(st.sampled_from((p - 1, p, p + 1)))
    element = draw(st.sampled_from((_STANDARDIZED, _ANY_LOADING)))
    values = draw(st.lists(element, min_size=count, max_size=count))
    number = draw(st.sampled_from(_NUMBER_FORMATS))
    texts = [number.format(v) for v in values]
    if draw(st.booleans()):
        texts = [draw(st.sampled_from(_SEPARATORS)).join(texts)]
    lines = []
    for text in [*texts, None]:
        if draw(st.integers(0, 4)) == 0:
            lines.append(draw(st.sampled_from(("", "* loadings, one; per line 0.5"))))
        if text is not None:
            lines.append(text)
    newline = draw(st.sampled_from(("\n", "\r\n")))
    bom = "\ufeff" if draw(st.booleans()) else ""
    return bom + newline.join(lines) + newline


@st.composite
def _cases(draw):
    """A matrix file's text, its row count and a loadings file's text."""
    text, p = draw(_matrix_text())
    return text, p, draw(_loadings_text(p))


def _no_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def _check_report(fmt: str, stdout: str, p: int) -> None:
    if fmt == "json":
        fits = json.loads(stdout, parse_constant=_no_constant)["fits"]
        assert fits and all(isinstance(fit["srmr"], float) for fit in fits)
        for fit in fits:
            rows = fit["residuals"]
            assert len(rows) == p and all(len(row) == p for row in rows)
            assert all(type(v) is float for row in rows for v in row)
    elif fmt == "csv":
        records = list(csv.reader(io.StringIO(stdout, newline=""), strict=True))
        header = records.index(["record", "model", "i", "j", "value"])
        assert all(len(record) == 5 for record in records[header:])
        assert all(record[0].startswith("# ") for record in records[:header])


def _run(argv: list) -> tuple[int, str, str]:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            status = main(argv)
    return status, stdout.getvalue(), stderr.getvalue()


@settings(derandomize=True, max_examples=150, deadline=None)
@given(case=_cases())
# An asymmetric pair 1e308 apart: the symmetry check must not overflow.
@example(case=("1 1e308\n0 1\n", 2, "0.5\n0.5\n"))
# An off-diagonal far above its variances: the rescale to correlation overflows.
@example(case=("1e-300\n1e10 1e-300\n", 2, "0.5\n0.5\n"))
# A loading too large to square, in one delimited row after a BOM, with CRLF.
@example(case=("1\n0.25 1\n", 2, "\ufeff* loadings\r\n0.5,, 1e+308\r\n\r\n"))
def test_fit_check_exits_0_with_a_report_or_1_with_one_line(case):
    text, p, loadings = case
    with tempfile.TemporaryDirectory() as name:
        matrix, loadings_file = Path(name) / "matrix.txt", Path(name) / "loadings.txt"
        matrix.write_bytes(text.encode("utf-8"))
        loadings_file.write_bytes(loadings.encode("utf-8"))
        for extra in ([], ["--loadings", str(loadings_file), "--reflective"]):
            for fmt in ("table", "csv", "json"):
                argv = ["fit-check", "--matrix", str(matrix), *extra, "--residuals", "--format", fmt]
                status, stdout, stderr = _run(argv)
                if status == 0:
                    assert stderr == ""
                    _check_report(fmt, stdout, p)
                else:
                    assert status == 1
                    assert stdout == ""
                    assert stderr.startswith("scorefit: error: ")
                    assert stderr.count("\n") == 1 and stderr.endswith("\n")
