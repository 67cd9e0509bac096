"""Fuzz ``main``: the text and the names of ``fit-check``'s files, and the
argv of ``closed-form`` and ``simulate``.

Whatever a matrix file and a loadings file hold, ``fit-check`` either exits 0
with a report that strict readers take and nothing on stderr, or exits 1 with
one ``scorefit: error:`` line and no report.  Each case runs with and without
loadings, in all three formats, with every warning an error.  A path is
echoed on one line, whatever bytes its name holds.  The other two
commands keep the same contract for any argv, or exit 2 with argparse's usage
text.
"""

import contextlib
import csv
import io
import json
import math
import os
import tempfile
import warnings
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from scorefit.cli import main
from scorefit.fileio import MAX_MATRIX_ROWS

from conftest import no_json_constant

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


def _check_report(fmt: str, stdout: str, p: int) -> None:
    if fmt == "json":
        fits = json.loads(stdout, parse_constant=no_json_constant)["fits"]
        assert fits and all(isinstance(fit["srmr"], float) for fit in fits)
        for fit in fits:
            rows = fit["residuals"]
            assert len(rows) == p and all(len(row) == p for row in rows)
            assert all(type(v) is float for row in rows for v in row)
            # On the correlation metric srmr()'s residuals are symmetric, so
            # _entry_texts formats only their upper triangle.
            assert rows == [list(column) for column in zip(*rows)]
    elif fmt == "csv":
        records = list(csv.reader(io.StringIO(stdout, newline=""), strict=True))
        header = records.index(["record", "model", "i", "j", "value"])
        assert all(len(record) == 5 for record in records[header:])
        assert all(record[0].startswith("# ") for record in records[:header])


def _run(argv: list) -> tuple[int, str, str]:
    """main's exit status, stdout and stderr; a usage error is argparse's status 2."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                status = main(argv)
            except SystemExit as exc:
                status = exc.code
    return status, stdout.getvalue(), stderr.getvalue()


def _assert_one_error_line(status: int, stdout: str, stderr: str) -> None:
    assert status == 1
    assert stdout == ""
    assert stderr.startswith("scorefit: error: ")
    assert stderr.count("\n") == 1 and stderr.endswith("\n")


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
                    _assert_one_error_line(status, stdout, stderr)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(case=_cases(), at=st.integers(0, 2**16), byte=st.integers(0x80, 0xFF), in_matrix=st.booleans())
def test_a_file_that_is_not_utf8_exits_1_with_one_line(case, at, byte, in_matrix):
    text, _, loadings = case
    data = [text.encode("utf-8"), loadings.encode("utf-8")]
    i = 0 if in_matrix else 1
    at %= len(data[i]) + 1
    # One more byte of 0x80-0xFF anywhere leaves the text invalid UTF-8: a
    # continuation byte is one too many, and a lead byte is owed at least one.
    data[i] = data[i][:at] + bytes([byte]) + data[i][at:]
    with tempfile.TemporaryDirectory() as name:
        matrix, loadings_file = Path(name) / "matrix.txt", Path(name) / "loadings.txt"
        matrix.write_bytes(data[0])
        loadings_file.write_bytes(data[1])
        argv = ["fit-check", "--matrix", str(matrix), "--loadings", str(loadings_file)]
        _assert_one_error_line(*_run(argv))


@settings(derandomize=True, max_examples=12, deadline=None)
@given(
    rows=st.integers(MAX_MATRIX_ROWS + 1, MAX_MATRIX_ROWS + 3),
    token=st.sampled_from(("1", "0.5", "1e308", "nan", "x")),
    newline=st.sampled_from(("\n", "\r\n")),
)
def test_a_matrix_file_above_the_row_cap_exits_1_with_one_line(rows, token, newline):
    with tempfile.TemporaryDirectory() as name:
        matrix = Path(name) / "matrix.txt"
        matrix.write_bytes(((token + newline) * rows).encode("utf-8"))
        for fmt in ("table", "csv", "json"):
            status, stdout, stderr = _run(["fit-check", "--matrix", str(matrix), "--format", fmt])
            _assert_one_error_line(status, stdout, stderr)
            assert f"has {rows} data lines, above the cap of {MAX_MATRIX_ROWS}" in stderr


# Path names: each piece is one a report must not echo as is.  Each file
# takes a distinct stem, so no two names collide.
_NAME_PIECES = ("x", "\r", "\n", "\r\n", "\\", os.fsdecode(b"\xff"))
_PATH_MATRICES = (
    "1\n0.3 1\n0.2 0.25 1\n",  # a correlation
    "4\n0.6 9\n0.4 0.75 1\n",  # a covariance, rescaled
    "1\n1 1\n1 1 1\n",  # not positive definite: a report note or an error
    "-1\n0.3 1\n0.2 0.25 1\n",  # a variance that is not positive
    "1\nx 1\n0.2 0.25 1\n",  # a token that is no number
)
_PATH_LOADINGS = (None, "0.5\n0.6\n0.7\n", "0.5\n0.6\n")
_NAME = st.lists(st.sampled_from(_NAME_PIECES), min_size=1, max_size=3)


def _escaped(text: str) -> str:
    # An echoed text on one line: backslash, CR and LF as \\, \r and \n.
    return text.replace("\\", "\\\\").replace("\r", "\\r").replace("\n", "\\n")


@settings(derandomize=True, max_examples=100, deadline=None)
@given(
    names=st.tuples(_NAME, _NAME, _NAME),
    matrix_text=st.sampled_from(_PATH_MATRICES),
    loadings_text=st.sampled_from(_PATH_LOADINGS),
    out=st.sampled_from(("stdout", "file", "missing directory")),
)
# An LF in the matrix path, echoed in the error that names a variance.
@example(names=(["\n"], ["x"], ["x"]), matrix_text=_PATH_MATRICES[3], loadings_text=None, out="stdout")
# A CR LF in the --out path, echoed in the error that the write raises.
@example(
    names=(["x"], ["x"], ["\r\n"]),
    matrix_text=_PATH_MATRICES[0],
    loadings_text=None,
    out="missing directory",
)
# The byte 0xff in a path, echoed into the --out file; a backslash beside it.
@example(
    names=([os.fsdecode(b"\xff"), "\\"], ["\\"], ["x"]),
    matrix_text=_PATH_MATRICES[1],
    loadings_text=_PATH_LOADINGS[1],
    out="file",
)
def test_fit_check_echoes_any_path_on_one_line(names, matrix_text, loadings_text, out):
    with tempfile.TemporaryDirectory() as name:
        matrix, loadings, out_file = (
            Path(name) / (stem + "".join(pieces)) for stem, pieces in zip(("m", "l", "o"), names)
        )
        matrix.write_text(matrix_text)
        argv, echoed = ["fit-check", "--matrix", str(matrix)], {"matrix": str(matrix)}
        if loadings_text is not None:
            loadings.write_text(loadings_text)
            argv += ["--loadings", str(loadings)]
            echoed["loadings"] = str(loadings)
        if out == "missing directory":
            out_file = Path(name) / "missing" / out_file.name
        if out != "stdout":
            argv += ["--out", str(out_file)]
        for fmt in ("table", "csv", "json"):
            status, stdout, stderr = _run([*argv, "--format", fmt])
            if status != 0:
                _assert_one_error_line(status, stdout, stderr)
                continue
            assert stderr == ""
            text = stdout
            if out != "stdout":
                assert stdout == ""
                raw = out_file.read_bytes()
                text = raw.decode("utf-8", errors="surrogateescape")
            if fmt == "json":
                inputs = json.loads(text, parse_constant=no_json_constant)["inputs"]
                assert all(inputs[key] == path for key, path in echoed.items())
                continue
            lines = text.split("\n")
            if fmt == "table":
                # An input line is "  key  value", the key padded with spaces.
                lines = [line.split(None, 1) for line in lines if line.startswith("  ")]
            for key, path in echoed.items():
                line = f"# {key}={_escaped(path)}" if fmt == "csv" else [key, _escaped(path)]
                assert lines.count(line) == 1
                if out != "stdout":
                    # The undecodable byte is written back as it was read.
                    assert os.fsencode(_escaped(path)) in raw


# Argv values: mostly ones a command runs, and the rest at every edge: floats
# 0, -0, +-inf, nan, subnormals and +-1e308, ints negative or 2**64.  Sizes
# stay small wherever a value would be run: p <= 6, reps <= 5, n <= 50.
_EDGE_FLOATS = (0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 2.2250738585072e-308, 1e308, -1e308)
_EDGE_INTS = (-(2**64), -1, 0, 2**64)


def _often(draw) -> bool:
    return draw(st.integers(0, 9)) < 8


def _float_text(draw, low: float = 0.0, high: float = 1.0) -> str:
    value = draw(st.floats(low, high) if _often(draw) else st.sampled_from(_EDGE_FLOATS))
    return draw(st.sampled_from(_NUMBER_FORMATS + ("{}",))).format(value)


def _int(draw, low: int, high: int) -> int:
    return draw(st.integers(low, high) if _often(draw) else st.sampled_from(_EDGE_INTS))


def _flag(draw, flag: str, value: str) -> list:
    """--flag=value, or now and then --flag value, which argparse may take for an option."""
    return [f"{flag}={value}"] if _often(draw) else [flag, value]


@st.composite
def _closed_form_argv(draw):
    """A closed-form argv: a mode with the options it reads, now and then
    missing one or carrying one it does not read."""
    mode = draw(st.sampled_from(("--solve-r", "--min-p", "--curve", None)))
    reads = {"--solve-r": {"--p"}, "--min-p": {"--r"}, "--curve": {"--p-range"}}
    reads = reads.get(mode, {"--r", "--p"})
    argv = ["closed-form"]
    if mode == "--curve":
        texts = [_float_text(draw, 0.0, 0.6) for _ in range(draw(st.integers(0, 3)))]
        argv += _flag(draw, mode, ",".join(texts) + draw(st.sampled_from(("", ",", ", "))))
    elif mode is not None:
        argv += _flag(draw, mode, _float_text(draw, 0.0, 0.6))
    if ("--r" in reads) == _often(draw):
        argv += _flag(draw, "--r", _float_text(draw))
    if ("--p" in reads) == _often(draw):
        argv += _flag(draw, "--p", str(_int(draw, 2, 6)))
    if ("--p-range" in reads) == _often(draw):
        bounds = sorted(_int(draw, 2, 6) for _ in range(2))
        if not _often(draw):
            bounds.reverse()
        if draw(st.booleans()):
            bounds.append(_int(draw, 1, 3))
        argv += _flag(draw, "--p-range", ":".join(map(str, bounds)))
    return argv


@st.composite
def _simulate_argv(draw):
    """A simulate argv over a small grid; the defaults would run p up to 24."""

    def values(text):
        return ",".join(text() for _ in range(draw(st.integers(1 if _often(draw) else 0, 3))))

    argv = ["simulate"]
    argv += _flag(draw, "--p", values(lambda: str(_int(draw, 2, 6))))
    argv += _flag(draw, "--n", values(lambda: str(_int(draw, 7, 50))))
    argv += _flag(draw, "--reps", str(_int(draw, 1, 5)))
    if draw(st.booleans()):
        argv += _flag(draw, "--l", values(lambda: _float_text(draw, 0.1, 0.9)))
    if draw(st.booleans()):
        argv += ["--pattern", draw(st.sampled_from(("constant", "variable", "both")))]
    for flag in ("--seed", "--workers"):
        if draw(st.booleans()):
            argv += _flag(draw, flag, str(_int(draw, 0, 2**64 - 1)))
    return argv


def _check_argv_run(argv: list) -> None:
    for fmt in ("table", "csv", "json"):
        status, stdout, stderr = _run([*argv, "--format", fmt])
        if status == 0:
            assert stderr == ""
            if fmt == "json":
                json.loads(stdout, parse_constant=no_json_constant)
            elif fmt == "csv":
                assert list(csv.reader(io.StringIO(stdout, newline=""), strict=True))
        elif status == 2:
            assert stdout == ""
            assert stderr.startswith("usage: scorefit ")
        else:
            _assert_one_error_line(status, stdout, stderr)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(argv=_closed_form_argv())
def test_closed_form_argv_exits_0_1_or_2(argv):
    _check_argv_run(argv)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(argv=_simulate_argv())
def test_simulate_argv_exits_0_1_or_2(argv):
    _check_argv_run(argv)
