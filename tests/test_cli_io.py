import argparse
import contextlib
import csv
import ctypes
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import regen

from scorefit import (
    CorrelationMatrix,
    MatrixParseError,
    SingularMatrixError,
    build_parallel_sigma,
    parse_loadings,
    parse_matrix,
    srmr_parallel_closed_form,
    write_matrix,
)
import scorefit.model
import scorefit.scoring
from scorefit import cli, datasets
from scorefit.cli import main
from scorefit.fileio import MAX_MATRIX_ROWS, _assemble

# Every finite float, and often the signed zero and the ends of the
# subnormal, normal and finite ranges.
_FINITE = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from([
    -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
    1.7976931348623157e308, -1.7976931348623157e308,
])


@st.composite
def _symmetric_matrices(draw):
    p = draw(st.integers(1, 8))
    upper = np.triu_indices(p)
    values = np.empty((p, p))
    values[upper] = draw(st.lists(_FINITE, min_size=len(upper[0]), max_size=len(upper[0])))
    values.T[upper] = values[upper]
    return CorrelationMatrix(values)


# Independent transcription of the bundled data, compared field by field
# against what the package reads from its two data files.
STAI_TRIANGLE_REFERENCE = (
    (1.000,),
    (0.159, 1.000),
    (0.295, 0.245, 1.000),
    (0.457, 0.317, 0.447, 1.000),
    (0.130, 0.176, 0.072, 0.199, 1.000),
    (0.279, 0.410, 0.194, 0.304, 0.147, 1.000),
    (0.278, 0.227, 0.426, 0.283, 0.017, 0.429, 1.000),
    (0.323, 0.314, 0.421, 0.505, 0.192, 0.320, 0.418, 1.000),
    (0.261, 0.286, 0.410, 0.369, 0.325, 0.189, 0.381, 0.430, 1.000),
    (0.575, 0.244, 0.343, 0.550, 0.180, 0.345, 0.326, 0.478, 0.350, 1.000),
    (0.379, 0.260, 0.423, 0.500, 0.193, 0.216, 0.415, 0.509, 0.551, 0.509, 1.000),
    (0.356, 0.257, 0.392, 0.454, 0.306, 0.157, 0.310, 0.403, 0.419, 0.454, 0.578, 1.000),
    (0.429, 0.198, 0.236, 0.491, 0.141, 0.285, 0.315, 0.501, 0.290, 0.617, 0.426, 0.390, 1.000),
    (0.281, 0.308, 0.340, 0.409, 0.239, 0.204, 0.328, 0.406, 0.539, 0.404, 0.552, 0.481, 0.384, 1.000),
    (0.465, 0.313, 0.507, 0.464, 0.152, 0.224, 0.283, 0.540, 0.370, 0.480, 0.474, 0.346, 0.301, 0.392, 1.000),
    (0.486, 0.209, 0.443, 0.559, 0.239, 0.338, 0.368, 0.546, 0.413, 0.704, 0.555, 0.502, 0.599, 0.441, 0.463, 1.000),
    (0.329, 0.330, 0.473, 0.459, 0.195, 0.248, 0.432, 0.505, 0.701, 0.500, 0.650, 0.414, 0.398, 0.569, 0.462, 0.496, 1.000),
    (0.365, 0.138, 0.525, 0.450, 0.266, 0.253, 0.349, 0.378, 0.403, 0.459, 0.507, 0.420, 0.360, 0.522, 0.385, 0.556, 0.540, 1.000),
    (0.393, 0.371, 0.432, 0.463, 0.192, 0.414, 0.600, 0.518, 0.452, 0.487, 0.537, 0.428, 0.536, 0.447, 0.419, 0.541, 0.495, 0.405, 1.000),
    (0.141, 0.219, 0.418, 0.398, 0.182, 0.202, 0.380, 0.515, 0.367, 0.291, 0.409, 0.294, 0.276, 0.377, 0.396, 0.404, 0.383, 0.355, 0.443, 1.000),
)

STAI_LOADINGS_REFERENCE = (
    0.553, 0.400, 0.602, 0.691, 0.292, 0.415, 0.555, 0.701, 0.641, 0.723,
    0.757, 0.632, 0.632, 0.653, 0.634, 0.771, 0.742, 0.658, 0.720, 0.548,
)

STAI_MATRIX_SHA256 = "a4844f04c60146a0cee98a11fcb88375b95b73251a41ae0d855b0cc25666560c"
STAI_LOADINGS_SHA256 = "99512d649993c9679dcf4b12b01cd149cf485961d586cd30be6253450c13f1ee"


class TestBundledDataset:
    def test_matrix_matches_reference_transcription(self, stai_sigma):
        for i, row in enumerate(STAI_TRIANGLE_REFERENCE):
            for j, value in enumerate(row):
                assert stai_sigma.values[i, j] == value
                assert stai_sigma.values[j, i] == value

    def test_loadings_match_reference_transcription(self, stai_lam):
        assert tuple(stai_lam) == STAI_LOADINGS_REFERENCE
        assert stai_lam[0] == 0.553 and stai_lam[-1] == 0.548
        assert stai_lam.size == 20

    def test_bundled_files_hash_to_the_echoed_checksums(self):
        assert hashlib.sha256(datasets.STAI_MATRIX_PATH.read_bytes()).hexdigest() == STAI_MATRIX_SHA256
        assert hashlib.sha256(datasets.STAI_LOADINGS_PATH.read_bytes()).hexdigest() == STAI_LOADINGS_SHA256

    def test_well_known_entries(self, stai_sigma):
        assert stai_sigma.values[1, 0] == 0.159
        assert stai_sigma.values[19, 18] == 0.443

    def test_demo_reports_as_its_two_files_do(self, capsys):
        # --demo stai is --matrix and --loadings on the bundled files, echoed
        # under the label demo:stai.
        tail = ["--reflective", "--residuals", "--format", "csv"]
        assert main(["fit-check", "--demo", "stai", *tail]) == 0
        demo = capsys.readouterr().out
        files = [str(datasets.STAI_MATRIX_PATH), str(datasets.STAI_LOADINGS_PATH)]
        assert main(["fit-check", "--matrix", files[0], "--loadings", files[1], *tail]) == 0
        for path in files:
            demo = demo.replace("=demo:stai\n", f"={path}\n", 1)
        assert demo == capsys.readouterr().out


class TestParseMatrix:
    def test_lower_triangle_auto_detect(self, tmp_path, stai_sigma):
        path = tmp_path / "stai.txt"
        path.write_text("* lower triangle\n" + datasets.STAI_MATRIX_PATH.read_text())
        parsed = parse_matrix(path)
        assert parsed.p == 20
        assert parsed.values[1, 0] == 0.159
        assert parsed.values[19, 18] == 0.443
        assert np.array_equal(parsed.values, stai_sigma.values)

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    def test_non_finite_value_names_its_line(self, tmp_path, token):
        path = tmp_path / "m.txt"
        path.write_text(f"* comment\n1.0\n0.5, 1.0\n0.2, {token}, 1.0\n")
        with pytest.raises(MatrixParseError, match=r"line 4: non-finite value"):
            parse_matrix(path)

    def test_one_by_one(self, tmp_path):
        path = tmp_path / "one.txt"
        path.write_text("1.0\n")
        assert parse_matrix(path).p == 1

    @settings(derandomize=True, max_examples=75, deadline=None)
    @given(sigma=_symmetric_matrices())
    def test_full_symmetric_round_trip(self, sigma):
        # write_matrix writes repr, so parse_matrix reads back every bit.
        with tempfile.TemporaryDirectory() as folder:
            path = Path(folder, "full.csv")
            write_matrix(path, sigma)
            parsed = parse_matrix(path)
        assert np.array_equal(parsed.values.view(np.uint64), sigma.values.view(np.uint64))

    @pytest.mark.parametrize("sep,text", [
        ("comma", "1.0, 0.5\n0.5, 1.0\n"),
        ("semicolon", "1.0; 0.5\n0.5; 1.0\n"),
        ("whitespace", "1.0 0.5\n0.5\t1.0\n"),
        ("trailing separators", "1.0, 0.5;\n0.5, 1.0;\n"),
    ])
    def test_delimiters(self, tmp_path, sep, text):
        path = tmp_path / "m.txt"
        path.write_text("* comment line\n\n" + text)
        parsed = parse_matrix(path)
        assert parsed.values[0, 1] == 0.5

    def test_leading_byte_order_mark_is_ignored(self, tmp_path):
        # Spreadsheet "CSV UTF-8" exports start with a BOM; here it precedes a comment.
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf* exported\n1.0\n0.3,1.0\n")
        assert parse_matrix(path).values.tolist() == [[1.0, 0.3], [0.3, 1.0]]

    def test_ragged_rows_name_the_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        # Rows of 1, 2 and 2 entries are no triangle, so they must form a full
        # square, and the first row is already short.
        for text, lineno, entries in [
            ("1.0 0.5 0.1\n0.5 1.0\n0.1 0.2 1.0\n", 2, 2),
            ("1.0\n0.3 1.0\n0.2 0.1\n", 1, 1),
        ]:
            path.write_text(text)
            with pytest.raises(MatrixParseError) as raised:
                parse_matrix(path)
            assert str(raised.value) == (
                f"{path}, line {lineno}: row has {entries} entries, "
                "expected 3 for a full square matrix"
            )

    def test_non_numeric_token(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1.0 abc\nabc 1.0\n")
        with pytest.raises(MatrixParseError, match="line 1"):
            parse_matrix(path)

    @pytest.mark.parametrize("text", [
        "1.0,,0.5\n0.5,1.0\n",
        "1.0, ,0.5\n0.5, 1.0\n",
        "1.0;;0.5\n0.5;1.0\n",
    ])
    def test_blank_tokens_are_skipped(self, tmp_path, text):
        path = tmp_path / "m.txt"
        path.write_text(text)
        assert parse_matrix(path).values.tolist() == [[1.0, 0.5], [0.5, 1.0]]

    @pytest.mark.parametrize("text, lineno, token", [
        ("1.0,,abc\n0.5,1.0\n", 1, "abc"),
        ("1.0, 0.5\n, x1, ,1.0\n", 2, " x1"),
        ("1.0;0.5\n0.5;;1.0;bad;\n", 2, "bad"),
    ])
    def test_bad_token_beside_a_blank_names_line_and_token(self, tmp_path, text, lineno, token):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(MatrixParseError) as raised:
            parse_matrix(path)
        assert str(raised.value) == (
            f"{path}, line {lineno}: could not convert string to float: {token!r}"
        )

    def test_not_positive_definite_parses_silently(self, tmp_path):
        path = tmp_path / "ones.txt"
        path.write_text("1 1 1\n1 1 1\n1 1 1\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            parsed = parse_matrix(path)
        assert parsed.p == 3

    def test_missing_file(self):
        with pytest.raises(MatrixParseError, match="cannot read"):
            parse_matrix("/no/such/file.txt")

    @pytest.mark.parametrize("raw, reason", [
        (b"1.0\n0.5,\xff\n", "byte 0xff in position 8: invalid start byte"),
        # Positions count from after a byte order mark.
        (b"\xef\xbb\xbf1.0\n0.5,\xff\n", "byte 0xff in position 8: invalid start byte"),
        # A file holding only the start of a byte order mark is not UTF-8 either.
        (b"\xef\xbb", "bytes in position 0-1: unexpected end of data"),
    ])
    def test_undecodable_file_names_the_bytes(self, tmp_path, raw, reason):
        path = tmp_path / "m.txt"
        path.write_bytes(raw)
        with pytest.raises(MatrixParseError) as raised:
            parse_matrix(path)
        assert str(raised.value) == f"cannot read {path}: 'utf-8' codec can't decode {reason}"


_ENTRY = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1.7976931348623157e308]
)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(data=st.data(), p=st.integers(2, 6))
def test_lower_triangle_mirror_matches_the_oracle_wherever_it_is_finite(data, p):
    rows = [(i + 1, data.draw(st.lists(_ENTRY, min_size=i + 1, max_size=i + 1))) for i in range(p)]
    full = np.zeros((p, p))
    for i, (_, values) in enumerate(rows):
        full[i, : i + 1] = values
    with np.errstate(over="ignore", invalid="ignore"):
        oracle = full + full.T - np.diag(np.diag(full))
    mirrored = _assemble("m.txt", rows)
    bits = mirrored.view(np.uint64)
    assert np.array_equal(bits, bits.T)
    assert np.array_equal(np.tril(mirrored), np.tril(full))
    finite = np.isfinite(oracle)
    assert np.array_equal(bits[finite], oracle.view(np.uint64)[finite])


@pytest.mark.parametrize("parse", [parse_matrix, parse_loadings])
@pytest.mark.parametrize("text", ["", "* only\n* comments\n\n", ";\n,\n ;; \n,;\n"])
def test_file_without_data_lines_is_rejected(tmp_path, parse, text):
    path = tmp_path / "empty.txt"
    path.write_text(text)
    with pytest.raises(MatrixParseError) as raised:
        parse(path)
    assert str(raised.value) == f"{path} contains no data lines"


@pytest.mark.parametrize("parse", [parse_matrix, parse_loadings])
def test_data_lines_above_the_cap_are_refused_before_conversion(tmp_path, parse):
    # Comments and blank lines do not count; the rows are counted before any
    # token is converted, so a bad token does not name its line.
    path = tmp_path / "tall.txt"
    path.write_text("* comment\n\n" + "x\n" * (MAX_MATRIX_ROWS + 1))
    with pytest.raises(MatrixParseError) as raised:
        parse(path)
    assert str(raised.value) == (
        f"{path} has {MAX_MATRIX_ROWS + 1} data lines, above the cap of {MAX_MATRIX_ROWS}"
    )
    path.write_text("* comment\n\n" + "0.5\n" * MAX_MATRIX_ROWS)
    assert parse_loadings(path).shape == (MAX_MATRIX_ROWS,)


class TestParseLoadings:
    def test_one_per_line(self, tmp_path):
        path = tmp_path / "l.txt"
        path.write_text("* loadings\n0.553\n0.400\n0.602\n")
        assert np.allclose(parse_loadings(path), [0.553, 0.400, 0.602])

    def test_single_row(self, tmp_path):
        path = tmp_path / "l.txt"
        path.write_text("0.5, 0.6, 0.7\n")
        assert np.allclose(parse_loadings(path), [0.5, 0.6, 0.7])

    def test_single_value(self, tmp_path):
        path = tmp_path / "l.txt"
        path.write_text("1.0\n")
        assert np.allclose(parse_loadings(path), [1.0])

    def test_leading_byte_order_mark_is_ignored(self, tmp_path):
        path = tmp_path / "l.csv"
        path.write_bytes(b"\xef\xbb\xbf0.5\n0.6\n")
        assert parse_loadings(path).tolist() == [0.5, 0.6]

    def test_malformed_names_line(self, tmp_path):
        path = tmp_path / "l.txt"
        path.write_text("0.5\nabc\n0.7\n")
        with pytest.raises(MatrixParseError, match="line 2"):
            parse_loadings(path)

    def test_multi_value_row_names_line(self, tmp_path):
        path = tmp_path / "l.txt"
        path.write_text("0.5\n0.6 0.7\n0.8\n")
        with pytest.raises(MatrixParseError, match="line 2: expected one loading per line, got 2$"):
            parse_loadings(path)

    def test_count_mismatch(self, tmp_path):
        path = tmp_path / "l.txt"
        path.write_text("0.5\n0.6\n")
        with pytest.raises(MatrixParseError, match="do not match"):
            parse_loadings(path, expected_p=3)

    @settings(derandomize=True, max_examples=50, deadline=None)
    @given(loadings=st.lists(_FINITE, min_size=1, max_size=8))
    def test_repr_lines_round_trip(self, loadings):
        with tempfile.TemporaryDirectory() as folder:
            path = Path(folder, "loadings.txt")
            path.write_text("".join(f"{v!r}\n" for v in loadings))
            parsed = parse_loadings(path)
        assert np.array_equal(parsed.view(np.uint64), np.array(loadings).view(np.uint64))

    def test_bundled_loadings_file_round_trip(self, tmp_path, stai_lam):
        path = tmp_path / "stai_loadings.txt"
        path.write_text("\n".join(f"{x:.3f}" for x in stai_lam) + "\n")
        parsed = parse_loadings(path, expected_p=20)
        assert parsed[0] == 0.553 and parsed[-1] == 0.548
        assert np.array_equal(parsed, stai_lam)


class TestFitCheckCommand:
    def test_identity_matrix_unit_weighted_value(self, tmp_path, capsys):
        path = tmp_path / "eye.txt"
        write_matrix(path, build_parallel_sigma(0.0, 5))
        assert main(["fit-check", "--matrix", str(path), "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        # Recomputed through the elementwise oracle: sqrt(0.24).
        assert doc["fits"][0]["srmr"] == pytest.approx(math.sqrt(0.24), abs=1e-9)

    @pytest.mark.parametrize(
        "loadings, weights",
        [
            ("0.6\n-0.5\n0.4\n", [1.0, -1.0, 1.0]),
            ("0.6\n0.0\n-0.0\n", [1.0, 1.0, 1.0]),
            (None, [1.0, 1.0, 1.0]),
        ],
        ids=["negative-loading", "zero-loadings", "no-loadings"],
    )
    def test_unit_weights_follow_the_loading_signs(self, tmp_path, capsys, loadings, weights):
        # -1 where a loading is negative, +1 elsewhere (0 and -0 included);
        # all +1 without loadings.
        from scorefit import score_model_implied_sigma, srmr

        matrix = tmp_path / "m.txt"
        matrix.write_text("1.0\n0.3 1.0\n-0.2 0.25 1.0\n")
        argv = ["fit-check", "--matrix", str(matrix), "--residuals", "--format", "json"]
        if loadings is not None:
            (tmp_path / "l.txt").write_text(loadings)
            argv += ["--loadings", str(tmp_path / "l.txt")]
        assert main(argv) == 0
        fit = json.loads(capsys.readouterr().out)["fits"][0]
        sigma = parse_matrix(matrix)
        expected = srmr(sigma, score_model_implied_sigma(sigma, weights))
        assert fit["model"] == "unit_weighted"
        assert fit["srmr"] == expected.srmr
        assert np.array_equal(np.array(fit["residuals"]), expected.residuals)

    def test_missing_matrix_path_fails_on_stderr(self, capsys):
        assert main(["fit-check", "--matrix", "/no/such/file.txt"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error" in captured.err

    @pytest.mark.parametrize("bad", ["matrix", "loadings"])
    def test_non_utf8_input_fails_on_stderr(self, tmp_path, capsys, bad):
        matrix, loadings = tmp_path / "m.txt", tmp_path / "l.txt"
        write_matrix(matrix, build_parallel_sigma(0.3, 3))
        loadings.write_text("0.5\n0.5\n0.5\n")
        (matrix if bad == "matrix" else loadings).write_bytes(b"\xff\xfe0.5\n")
        assert main(["fit-check", "--matrix", str(matrix), "--loadings", str(loadings)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"scorefit: error: cannot read {tmp_path / bad[0]}.txt: "
            "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte\n"
        )

    def test_unwritable_out_path_fails_on_stderr(self, tmp_path, capsys):
        out = tmp_path / "missing" / "x.txt"
        assert main(["fit-check", "--demo", "stai", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("scorefit: error: cannot write")

    @staticmethod
    def _matrix_with_undecodable_name(tmp_path):
        # The byte 0xff decodes to a lone surrogate, which no strict codec encodes.
        path = tmp_path / os.fsdecode(b"m\xff.txt")
        write_matrix(path, build_parallel_sigma(0.3, 3))
        return path

    def test_out_keeps_the_bytes_of_an_undecodable_filename(self, tmp_path, capsys):
        matrix, out = self._matrix_with_undecodable_name(tmp_path), tmp_path / "r.txt"
        assert main(["fit-check", "--matrix", str(matrix), "--out", str(out)]) == 0
        assert capsys.readouterr() == ("", "")
        assert f"matrix         {tmp_path}/m".encode() + b"\xff.txt\n" in out.read_bytes()

    def test_strict_stdout_fails_on_stderr(self, tmp_path, capsys, monkeypatch):
        matrix = self._matrix_with_undecodable_name(tmp_path)
        stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", errors="strict")
        monkeypatch.setattr(sys, "stdout", stdout)
        assert main(["fit-check", "--matrix", str(matrix)]) == 1
        stdout.flush()
        assert stdout.buffer.getvalue() == b""
        err = capsys.readouterr().err
        assert err.startswith("scorefit: error: cannot write stdout: ")
        assert err.count("\n") == 1

    def test_broken_stdout_fails_on_stderr(self, capsys, monkeypatch):
        class BrokenPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(sys, "stdout", BrokenPipe())
        assert main(["closed-form", "--r", "0.5", "--p", "6"]) == 1
        err = capsys.readouterr().err
        assert err == "scorefit: error: cannot write stdout: [Errno 32] Broken pipe\n"

    @pytest.mark.parametrize("step", ["parse_matrix", "render"])
    def test_out_of_memory_exits_1_without_a_traceback(self, tmp_path, capsys, monkeypatch, step):
        def exhausted(*args, **kwargs):
            raise MemoryError

        owner = cli.ReportDocument if step == "render" else cli
        monkeypatch.setattr(owner, step, exhausted)
        path = tmp_path / "m.txt"
        write_matrix(path, build_parallel_sigma(0.3, 3))
        assert main(["fit-check", "--matrix", str(path)]) == 1
        assert capsys.readouterr() == (
            "", "scorefit: error: out of memory while building the report\n"
        )

    @pytest.mark.parametrize("variance, shown", [(0.0, "0"), (-2.5, "-2.5")])
    def test_a_variance_that_is_not_positive_names_its_indicator(
        self, tmp_path, capsys, variance, shown
    ):
        path = tmp_path / "m.txt"
        path.write_text(f"4.0\n0.3 {variance!r}\n0.2 0.25 1.0\n")
        assert main(["fit-check", "--matrix", str(path)]) == 1
        assert capsys.readouterr() == (
            "", f"scorefit: error: {path}: variance of indicator 1 is {shown}, not positive\n"
        )

    @pytest.mark.parametrize("name, shown", [
        ("m\n", "m\\n"), ("m\r\n", "m\\r\\n"), ("m\\", "m\\\\"),
    ])
    def test_an_error_naming_a_path_with_a_line_break_stays_on_one_line(
        self, tmp_path, capsys, name, shown
    ):
        # The message is escaped as the report escapes its echoed inputs.
        (tmp_path / name).write_text("4.0\n0.3 -2.5\n0.2 0.25 1.0\n")
        assert main(["fit-check", "--matrix", str(tmp_path / name)]) == 1
        assert capsys.readouterr() == (
            "", f"scorefit: error: {tmp_path}/{shown}: variance of indicator 1 is -2.5, not positive\n"
        )

    def test_an_unwritable_out_path_with_a_line_break_stays_on_one_line(self, tmp_path, capsys):
        out = tmp_path / "missing\r\n" / "x.txt"
        assert main(["fit-check", "--demo", "stai", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"scorefit: error: cannot write {tmp_path}/missing\\r\\n/x.txt: ")
        assert captured.err.count("\n") == 1

    def test_reflective_requires_loadings(self, tmp_path, capsys):
        path = tmp_path / "eye.txt"
        write_matrix(path, build_parallel_sigma(0.0, 3))
        assert main(["fit-check", "--matrix", str(path), "--reflective"]) == 1
        assert "loadings" in capsys.readouterr().err

    @pytest.mark.parametrize("source, loadings, reflective", [
        ("file", False, False),
        ("file", True, False),
        ("file", True, True),
        ("demo", False, True),
        ("demo", True, False),
    ])
    def test_input_echo_order_and_checksums(self, tmp_path, capsys, source, loadings, reflective):
        p = 20 if source == "demo" else 4
        matrix, loadings_file = tmp_path / "m.txt", tmp_path / "l.txt"
        write_matrix(matrix, build_parallel_sigma(0.36, p))
        loadings_file.write_text("0.6\n" * p)
        argv = ["fit-check", "--format", "csv"]
        argv += ["--demo", "stai"] if source == "demo" else ["--matrix", str(matrix)]
        argv += ["--loadings", str(loadings_file)] if loadings else []
        argv += ["--reflective"] if reflective else []
        assert main(argv) == 0
        out = capsys.readouterr().out
        if source == "demo":
            expected = [("matrix", "demo:stai"), ("matrix_sha256", STAI_MATRIX_SHA256), ("p", "20")]
        else:
            expected = [
                ("matrix", str(matrix)),
                ("matrix_sha256", hashlib.sha256(matrix.read_bytes()).hexdigest()),
                ("p", "4"),
            ]
        if loadings:
            expected += [
                ("loadings", str(loadings_file)),
                ("loadings_sha256", hashlib.sha256(loadings_file.read_bytes()).hexdigest()),
            ]
        elif source == "demo":
            expected += [("loadings", "demo:stai"), ("loadings_sha256", STAI_LOADINGS_SHA256)]
        echoed = [tuple(line[2:].split("=", 1)) for line in out.splitlines() if line.startswith("# ")]
        assert echoed == expected
        models = [line.split(",")[1] for line in out.splitlines() if line.startswith("srmr,")]
        has_loadings = loadings or source == "demo"
        assert models == (
            ["unit_weighted"] + ["factor_score"] * has_loadings + ["reflective"] * reflective
        )

    def test_warnings_do_not_change_exit_status(self, tmp_path, capsys):
        path = tmp_path / "ones.txt"
        path.write_text("1 1 1\n1 1 1\n1 1 1\n")
        assert main(["fit-check", "--matrix", str(path), "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert any("positive definite" in w for w in doc["fits"][0]["warnings"])

    def test_carriage_return_in_a_csv_field_is_quoted(self, tmp_path, capsys):
        # The matrix path is echoed as an input and in the not-positive-definite
        # note.  An input line writes CR, LF and backslash as the escapes \r, \n
        # and \\, so a path holding a backslash and an n reads apart from one
        # holding a line feed; RFC 4180 quotes the note's field, CR or LF, so a CSV
        # reader keeps it in one record, and the table escapes the note as it does
        # an input.
        for name, escaped in (
            ("ones\rx.txt", r"ones\rx.txt"),
            ("ones\nx.txt", r"ones\nx.txt"),
            ("ones\\nx.txt", r"ones\\nx.txt"),
        ):
            path = tmp_path / name
            path.write_text("1 1 1\n1 1 1\n1 1 1\n")
            shown = str(tmp_path / escaped)
            assert main(["fit-check", "--matrix", str(path), "--format", "csv"]) == 0
            out = capsys.readouterr().out
            records = list(csv.reader(io.StringIO(out, newline="")))
            assert ["x.txt"] not in records
            assert records[0] == [f"# matrix={shown}"]
            assert records[3] == ["record", "model", "i", "j", "value"]  # one record per input
            if "\n" not in name:  # the quoted note holds no line feed
                assert len(records) == out.count("\n")
            notes = [record for record in records if record[:1] == ["warning"]]
            assert len(notes) == 1
            assert notes[0][:4] == ["warning", "unit_weighted", "", ""]
            assert notes[0][4].startswith(f"{path}: matrix is not positive definite (Cholesky pivot")
            assert notes[0][4].endswith(")")

            assert main(["fit-check", "--matrix", str(path)]) == 0
            out = capsys.readouterr().out
            assert "\r" not in out
            table = out.split("\n")
            # One line per input: the matrix, its checksum and p.
            assert table[0] == "inputs"
            assert table[1] == f"  matrix         {shown}"
            assert table[3] == "  p              3"
            assert table[4] == "fit"
            # The note, which echoes the path, keeps to one line too.
            warned = [line for line in table if line.startswith("  warning [unit_weighted]: ")]
            assert len(warned) == 1
            assert warned[0].startswith(
                f"  warning [unit_weighted]: {shown}: matrix is not positive definite (Cholesky pivot"
            )
            assert warned[0].endswith(")")
            assert not any(line.startswith("x.txt") for line in table)

    @pytest.mark.parametrize("reflective", [False, True])
    def test_non_pd_matrix_with_loadings_names_the_failing_model(self, tmp_path, capsys, reflective):
        matrix, loadings = tmp_path / "ones.txt", tmp_path / "l.txt"
        matrix.write_text("1 1 1\n1 1 1\n1 1 1\n")
        loadings.write_text("0.5\n0.5\n0.5\n")
        argv = ["fit-check", "--matrix", str(matrix), "--loadings", str(loadings)]
        assert main(argv + ["--reflective"] * reflective) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("scorefit: error: factor_score model: Cholesky pivot 1 is ")

    def test_loadings_are_checked_before_any_model_is_scored(self, tmp_path, capsys):
        # Sigma is singular too, so scoring the unit-weighted model first would fail.
        matrix, loadings = tmp_path / "m.txt", tmp_path / "l.txt"
        matrix.write_text("1 -1\n-1 1\n")
        loadings.write_text("1.0\n0.5\n")
        assert main(["fit-check", "--matrix", str(matrix), "--loadings", str(loadings)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("scorefit: error: communality of indicator 0 is 1.0000 >= 1; ")

    def test_near_singular_matrix_warns_only_the_model_that_inverts_it(self, tmp_path, capsys):
        matrix, loadings = tmp_path / "near.txt", tmp_path / "l.txt"
        matrix.write_text("1\n0.9999995 1\n0.5 0.5 1\n")
        loadings.write_text("0.6 0.6 0.5\n")
        argv = ["fit-check", "--matrix", str(matrix), "--loadings", str(loadings), "--format", "json"]
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert {fit["model"]: fit["warnings"] for fit in json.loads(captured.out)["fits"]} == {
            "unit_weighted": [],
            "factor_score": [
                "smallest Cholesky pivot 1.000e-06 is below 1e-06; results may be unstable"
            ],
        }

    def test_only_a_near_singular_pivot_is_a_report_warning(self, capsys, monkeypatch):
        # Any other warning raised while a model is scored, here a library's
        # DeprecationWarning, goes to the caller's filters instead.
        scored = cli.score_model_implied_sigma

        def deprecated(sigma, weights):
            warnings.warn("this call is deprecated", DeprecationWarning)
            return scored(sigma, weights)

        monkeypatch.setattr(cli, "score_model_implied_sigma", deprecated)
        argv = ["fit-check", "--demo", "stai", "--format", "json"]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv) == 0
        assert [(w.category, str(w.message)) for w in caught] == [
            (DeprecationWarning, "this call is deprecated")
        ]
        assert all(fit["warnings"] == [] for fit in json.loads(capsys.readouterr().out)["fits"])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DeprecationWarning, match="this call is deprecated"):
                main(argv)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("ignore")
            assert main(argv) == 0
        assert caught == []

    def test_module_keyed_filters_apply_where_a_warning_is_raised(self, capsys, monkeypatch):
        # A warning raised in scorefit.scoring meets the caller's filters with
        # its own module, so a filter keyed by that module decides its fate.
        scored = cli.score_model_implied_sigma

        def deprecated(sigma, weights):
            warnings.warn_explicit(
                "this call is deprecated", DeprecationWarning, scorefit.scoring.__file__, 1,
                module="scorefit.scoring",
            )
            return scored(sigma, weights)

        monkeypatch.setattr(cli, "score_model_implied_sigma", deprecated)
        argv = ["fit-check", "--demo", "stai", "--format", "json"]
        with warnings.catch_warnings():
            warnings.filterwarnings("error", category=DeprecationWarning, module="scorefit")
            with pytest.raises(DeprecationWarning, match="this call is deprecated"):
                main(argv)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            warnings.filterwarnings("ignore", category=DeprecationWarning, module="scorefit")
            assert main(argv) == 0
        assert caught == []

    def test_a_near_singular_pivot_is_reported_under_any_filter(self, tmp_path, capsys):
        matrix = tmp_path / "near.txt"
        matrix.write_text("1\n0.9999995 1\n0.5 0.5 1\n")
        loadings = tmp_path / "l.txt"
        loadings.write_text("0.6 0.6 0.5\n")
        argv = ["fit-check", "--matrix", str(matrix), "--loadings", str(loadings), "--format", "json"]
        for action in ("error", "ignore"):
            with warnings.catch_warnings():
                warnings.simplefilter(action)
                assert main(argv) == 0
            fits = json.loads(capsys.readouterr().out)["fits"]
            assert [len(fit["warnings"]) for fit in fits] == [0, 1]

    def test_scoring_leaves_the_callers_warning_filters_in_place(self, capsys, monkeypatch):
        scored, seen = cli.score_model_implied_sigma, []

        def spy(sigma, weights):
            seen.append((warnings.filters, list(warnings.filters)))
            return scored(sigma, weights)

        monkeypatch.setattr(cli, "score_model_implied_sigma", spy)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            callers, before = warnings.filters, list(warnings.filters)
            assert main(["fit-check", "--demo", "stai", "--format", "json"]) == 0
        capsys.readouterr()
        assert len(seen) == 1
        assert seen[0][0] is callers and seen[0][1] == before

    def test_concurrent_calls_each_report_their_own_near_singular_pivot(self, tmp_path, monkeypatch):
        # Two main calls on two threads are both inside the factor-score model
        # when either computes it; the clean call enters that model last.
        # numpy is imported by this module, before the threads start, so the
        # lazy loader is never raced.
        scored, inside = cli.fs_implied_sigma, threading.Event()
        barrier = threading.Barrier(2, timeout=30)

        def held(sigma, model):
            inside.set()
            barrier.wait()
            implied = scored(sigma, model)
            barrier.wait()
            return implied

        monkeypatch.setattr(cli, "fs_implied_sigma", held)
        loadings = tmp_path / "l.txt"
        loadings.write_text("0.6 0.6 0.5\n")
        statuses, threads = {}, {}
        matrices = {"near": "1\n0.9999995 1\n0.5 0.5 1\n", "clean": "1\n0.3 1\n0.2 0.25 1\n"}
        for name, text in matrices.items():
            (tmp_path / f"{name}.txt").write_text(text)
            argv = [
                "fit-check", "--matrix", str(tmp_path / f"{name}.txt"), "--loadings", str(loadings),
                "--format", "json", "--out", str(tmp_path / f"{name}.json"),
            ]
            threads[name] = threading.Thread(
                target=lambda name=name, argv=argv: statuses.__setitem__(name, main(argv))
            )
        threads["near"].start()
        assert inside.wait(30)
        threads["clean"].start()
        for thread in threads.values():
            thread.join(60)
        assert statuses == {"near": 0, "clean": 0}
        reports = {}
        for name in threads:
            fits = json.loads((tmp_path / f"{name}.json").read_text())["fits"]
            reports[name] = {fit["model"]: fit["warnings"] for fit in fits}
        assert reports == {
            "near": {
                "unit_weighted": [],
                "factor_score": ["smallest Cholesky pivot 1.000e-06 is below 1e-06; results may be unstable"],
            },
            "clean": {"unit_weighted": [], "factor_score": []},
        }

    @pytest.mark.parametrize("with_loadings", [False, True])
    def test_sigma_is_factored_once(self, tmp_path, capsys, monkeypatch, with_loadings):
        matrix, loadings = tmp_path / "m.txt", tmp_path / "l.txt"
        write_matrix(matrix, build_parallel_sigma(0.3, 5))
        loadings.write_text("0.5\n0.6\n0.5\n0.6\n0.5\n")
        original, shapes = scorefit.model.cholesky_lower, []

        def counted(a):
            shapes.append(a.shape)
            return original(a)

        # Rebind every module's reference, so a factorization anywhere is counted.
        for name, module in list(sys.modules.items()):
            if name.startswith("scorefit") and getattr(module, "cholesky_lower", None) is original:
                monkeypatch.setattr(module, "cholesky_lower", counted)
        argv = ["fit-check", "--matrix", str(matrix)] + ["--loadings", str(loadings)] * with_loadings
        assert main(argv) == 0
        capsys.readouterr()
        assert shapes.count((5, 5)) == 1

    def test_each_input_file_is_read_once(self, tmp_path, capsys, monkeypatch):
        matrix, loadings = tmp_path / "m.txt", tmp_path / "l.txt"
        matrix.write_bytes(b"\xef\xbb\xbf* lower triangle\r\n1.0\r\n0.3,1.0\r\n0.2,0.25,1.0\r\n")
        loadings.write_text("0.6\n0.5\n0.4\n")
        reads, read_bytes, read_text = [], Path.read_bytes, Path.read_text

        def counted_read_bytes(path):
            reads.append((path, read_bytes(path)))
            return reads[-1][1]

        def counted_read_text(path, *args, **kwargs):
            reads.append((path, None))
            return read_text(path, *args, **kwargs)

        monkeypatch.setattr(Path, "read_bytes", counted_read_bytes)
        monkeypatch.setattr(Path, "read_text", counted_read_text)
        argv = ["fit-check", "--matrix", str(matrix), "--loadings", str(loadings), "--format", "csv"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        echoed = dict(line[2:].split("=", 1) for line in out.splitlines() if line.startswith("# "))
        assert [path for path, _ in reads] == [matrix, loadings]
        # The echoed checksums hash the very bytes that were parsed.
        assert echoed["matrix_sha256"] == hashlib.sha256(reads[0][1]).hexdigest()
        assert echoed["loadings_sha256"] == hashlib.sha256(reads[1][1]).hexdigest()
        assert echoed["p"] == "3"

    def test_model_label_keeps_the_error_class_and_pivot(self, tmp_path):
        matrix, loadings = tmp_path / "ones.txt", tmp_path / "l.txt"
        matrix.write_text("1 1 1\n1 1 1\n1 1 1\n")
        loadings.write_text("0.5\n0.5\n0.5\n")
        args = cli._build_parser().parse_args(
            ["fit-check", "--matrix", str(matrix), "--loadings", str(loadings)]
        )
        with pytest.raises(SingularMatrixError, match="^factor_score model: Cholesky") as excinfo:
            cli._cmd_fit_check(args)
        assert excinfo.value.pivot_index == 1

    def test_identical_invocations_identical_bytes(self, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        main(["fit-check", "--demo", "stai", "--residuals", "--format", "json", "--out", str(out1)])
        main(["fit-check", "--demo", "stai", "--residuals", "--format", "json", "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_csv_round_trip_recovers_numbers(self, capsys, stai_sigma):
        from scorefit import score_model_implied_sigma, srmr

        assert main(["fit-check", "--demo", "stai", "--residuals", "--format", "csv"]) == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l and not l.startswith("#")]
        rows = [line.split(",") for line in lines[1:]]
        srmr_rows = {r[1]: float(r[4]) for r in rows if r[0] == "srmr"}
        expected = srmr(stai_sigma, score_model_implied_sigma(stai_sigma, np.ones(20)))
        assert abs(srmr_rows["unit_weighted"] - expected.srmr) < 5e-7
        resid = {(int(r[2]), int(r[3])): float(r[4]) for r in rows if r[0] == "residual" and r[1] == "unit_weighted"}
        assert len(resid) == 400
        assert abs(resid[(0, 1)] - expected.residuals[0, 1]) < 5e-7

    def test_json_round_trip_recovers_residuals_exactly(self, capsys, stai_sigma, stai_lam):
        from scorefit import FactorModel, fs_implied_sigma, srmr

        assert main(["fit-check", "--demo", "stai", "--residuals", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        entry = next(e for e in doc["fits"] if e["model"] == "factor_score")
        model = FactorModel.from_standardized_loadings(stai_lam)
        expected = srmr(stai_sigma, fs_implied_sigma(stai_sigma, model))
        assert entry["srmr"] == expected.srmr
        assert np.array_equal(np.array(entry["residuals"]), expected.residuals)


# 1 followed by 400 zeros: an int argparse accepts, far beyond binary64.
HUGE_P = "1" + "0" * 400


class TestClosedFormCommand:
    def test_perfect_correlation_gives_zero(self, capsys):
        assert main(["closed-form", "--r", "1", "--p", "10", "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["results"]["srmr"] == 0.0

    def test_curve_csv_with_unattainable_marker(self, capsys):
        assert main([
            "closed-form", "--curve", "0.51,0.06", "--p-range", "2:4:2", "--format", "csv",
        ]) == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if not l.startswith("#")]
        assert lines[0] == "p,srmr_level,required_r"
        row_p2 = dict(zip(("p", "level", "r"), lines[1].split(",")))
        assert row_p2["r"] != "unattainable"  # level 0.06 at p=2 is attainable
        assert "unattainable" in lines[2]  # level 0.51 at p=2 is not

    def test_usage_errors(self, capsys):
        assert main(["closed-form", "--solve-r", "0.09"]) == 1
        assert "requires --p" in capsys.readouterr().err
        assert main(["closed-form"]) == 1
        assert main(["closed-form", "--r", "0.5"]) == 1

    @pytest.mark.parametrize("argv, message", [
        (["--curve", "0.1"], "--curve requires --p-range"),
        (["--min-p", "0.1"], "--min-p requires --r"),
        # A missing companion is reported first, even beside an option the mode does not read.
        (["--curve", "0.06", "--r", "0.5"], "--curve requires --p-range"),
        (["--solve-r", "0.06", "--r", "0.5"], "--solve-r requires --p"),
        (["--min-p", "0.06", "--p", "10"], "--min-p requires --r"),
        (["--r", "0.5", "--p-range", "2:5"],
         "closed-form needs --r and --p (or one of --solve-r/--min-p/--curve)"),
    ])
    def test_missing_companion_flag_is_an_error(self, capsys, argv, message):
        assert main(["closed-form", *argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"scorefit: error: {message}\n"

    @pytest.mark.parametrize("argv, message", [
        (["--curve", "0.06", "--p-range", "4:6", "--r", "0.5"], "--curve does not read --r"),
        (["--curve", "0.06", "--p-range", "4:6", "--p", "10"], "--curve does not read --p"),
        (["--solve-r", "0.06", "--p", "10", "--r", "0.5"], "--solve-r does not read --r"),
        (["--solve-r", "0.06", "--p", "10", "--p-range", "2:5"], "--solve-r does not read --p-range"),
        (["--min-p", "0.06", "--r", "0.5", "--p", "10"], "--min-p does not read --p"),
        (["--min-p", "0.06", "--r", "0.5", "--p-range", "2:5"], "--min-p does not read --p-range"),
        (["--r", "0.5", "--p", "10", "--p-range", "2:5"],
         "the --r/--p evaluation does not read --p-range"),
    ])
    def test_option_the_mode_does_not_read_is_an_error(self, capsys, argv, message):
        assert main(["closed-form", *argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"scorefit: error: {message}\n"

    @pytest.mark.parametrize("text, message", [
        ("4", "expected start:stop[:step], got '4'"),
        ("1:2:3:4", "expected start:stop[:step], got '1:2:3:4'"),
        ("a:b", "invalid literal for int() with base 10: 'a'"),
        ("4:6:x", "invalid literal for int() with base 10: 'x'"),
        ("6:4", "empty or descending range '6:4'"),
        ("4:6:0", "empty or descending range '4:6:0'"),
    ])
    def test_bad_p_range_is_a_usage_error(self, capsys, text, message):
        with pytest.raises(SystemExit) as exited:
            main(["closed-form", "--curve", "0.1", "--p-range", text])
        assert exited.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(f"scorefit closed-form: error: argument --p-range: {message}\n")

    @pytest.mark.parametrize("levels", [",", ""])
    def test_empty_curve_is_an_error(self, capsys, levels):
        assert main(["closed-form", "--curve", levels, "--p-range", "4:6"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("scorefit: error:")

    @pytest.mark.parametrize("argv", [
        ["--r", "0.5", "--p", HUGE_P],
        ["--solve-r", "0.01", "--p", HUGE_P],
        ["--curve", "0.01", "--p-range", f"{HUGE_P}:{HUGE_P}"],
    ])
    def test_p_beyond_binary64_is_an_error(self, capsys, argv):
        assert main(["closed-form", *argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("scorefit: error: p is too large")

    def test_huge_representable_p_is_evaluated(self, capsys):
        assert main(["closed-form", "--r", "0.5", "--p", str(10**300), "--format", "csv"]) == 0
        assert capsys.readouterr().out.splitlines()[-2:] == [
            "quantity,value", "srmr,7.071067811865476e-151",
        ]

    def test_unattainable_solve_r_is_an_error(self, capsys):
        # An option the mode does not read leaves the mode's own error as it is.
        for unread in ([], ["--r", "0.5"]):
            assert main(["closed-form", "--solve-r", "0.9", "--p", "10", *unread]) == 1
            assert "no r" in capsys.readouterr().err

    @pytest.mark.parametrize("target", ["1e-154", "1e-200", "5e-324"])
    @pytest.mark.parametrize("r", ["0", "0.95"])
    def test_tiny_min_p_target_is_an_error(self, capsys, target, r):
        assert main(["closed-form", "--min-p", target, "--r", r]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("scorefit: error:")

    def test_min_p_beyond_2_53_names_the_r_it_was_given(self, capsys):
        # r is written as given: 0.9999999999999999 is not the r = 1 the command refuses.
        assert main(["closed-form", "--min-p", "1e-300", "--r", "0.9999999999999999"]) == 1
        assert capsys.readouterr() == (
            "",
            "scorefit: error: target SRMR 1e-300 at r=0.9999999999999999 needs more than "
            "2**53 indicators, where binary64 cannot tell p from p-1\n",
        )

    @pytest.mark.parametrize("target", ["inf", "-inf", "nan", "0"])
    @pytest.mark.parametrize("argv, flag", [
        (["--solve-r={}", "--p", "10"], "target SRMR"),
        (["--min-p={}", "--r", "0.5"], "target SRMR"),
        (["--curve=0.1,{}", "--p-range", "4:6"], "SRMR levels"),
    ])
    def test_target_that_is_not_positive_and_finite_is_an_error(self, capsys, target, argv, flag):
        assert main(["closed-form", *(a.format(target) for a in argv)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"scorefit: error: {flag} must be positive and finite, got {float(target)!r}\n"
        )

class TestSimulateCommand:
    ARGS = ["simulate", "--n", "150", "--l", "0.4", "--p", "6", "--reps", "25", "--seed", "9"]
    HEADER = "n,l,r,p,pattern,population_srmr,mean_srmr_s,sd_srmr_s,replications_used"

    def test_csv_shape_and_content(self, capsys):
        assert main(self.ARGS) == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if not l.startswith("#")]
        assert lines[0] == self.HEADER
        assert len(lines) == 3  # both patterns by default
        const = lines[1].split(",")
        assert const[:5] == ["150", "0.4", "0.16000000000000003", "6", "constant"]
        assert lines[2].split(",")[4] == "variable"
        assert const[8] == "25"

    def test_single_replication_reports_zero_sd(self, capsys):
        assert main(["simulate", "--n", "150", "--l", "0.4", "--p", "6",
                     "--reps", "1", "--seed", "3", "--pattern", "constant"]) == 0
        row = [l for l in capsys.readouterr().out.splitlines() if not l.startswith("#")][1]
        assert row.split(",")[7] == "0.0"

    def test_repeated_and_reordered_values_match_single_cell_runs(self, capsys):
        # Cells that share an (l, p) population share its build; every row must
        # still be the one its cell prints when it runs alone.
        def rows(argv):
            assert main(argv + ["--reps", "60"]) == 0
            lines = capsys.readouterr().out.splitlines()
            return lines[lines.index(self.HEADER) + 1:]

        grid = rows(["simulate", "--n", "300,150,300", "--l", "0.4,0.4,0.2", "--p", "24,2,24"])
        cells = [(n, l, p) for n in ("300", "150", "300") for l in ("0.4", "0.4", "0.2")
                 for p in ("24", "2", "24")]
        assert [tuple(row.split(",")[i] for i in (0, 1, 3)) for row in grid] == [
            cell for cell in cells for _ in range(2)
        ]
        solo = {cell: rows(["simulate", "--n", cell[0], "--l", cell[1], "--p", cell[2]])
                for cell in dict.fromkeys(cells)}
        assert grid == [row for cell in cells for row in solo[cell]]

    def test_near_singular_population_is_not_a_stray_warning(self, capsys):
        # A loading this close to 1 factors a population with a pivot near 2.4e-7;
        # drawing from the factor is fine and must not warn on stderr.
        argv = ["simulate", "--n", "150", "--l", "0.9999999", "--p", "6", "--reps", "5",
                "--pattern", "constant"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        lines = captured.out.splitlines()
        assert lines[:8] == [
            "# n=150", "# l=0.9999999", "# p=6", "# pattern=constant", "# replications=5",
            "# seed=1234", "# sampler=bartlett-wishart/2",
            "n,l,r,p,pattern,population_srmr,mean_srmr_s,sd_srmr_s,replications_used",
        ]
        row = lines[8].split(",")
        assert row[:5] == ["150", "0.9999999", "0.9999998000000101", "6", "constant"]
        assert row[8] == "5" and len(lines) == 9
        # The population SRMR is the closed form's to the last bits.
        assert float(row[5]) == pytest.approx(srmr_parallel_closed_form(0.9999999**2, 6), rel=1e-14)
        assert [float(v) for v in row[5:8]] == pytest.approx(
            [9.343531371301923e-08, 9.482614796539543e-08, 6.597497929348641e-09], rel=1e-6
        )

    @pytest.mark.parametrize("command, flag, text, message", [
        ("simulate", "--n", "150,x", "invalid literal for int() with base 10: 'x'"),
        ("simulate", "--n", "1.5", "invalid literal for int() with base 10: '1.5'"),
        ("simulate", "--p", "6,,y", "invalid literal for int() with base 10: 'y'"),
        ("simulate", "--l", "0.2,abc", "could not convert string to float: 'abc'"),
        ("closed-form", "--curve", "0.1,zz", "could not convert string to float: 'zz'"),
    ])
    def test_bad_list_token_is_a_usage_error(self, capsys, command, flag, text, message):
        with pytest.raises(SystemExit) as exited:
            main([command, flag, text])
        assert exited.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(f"scorefit {command}: error: argument {flag}: {message}\n")

    def test_list_flags_skip_empty_tokens(self, capsys):
        argv = ["simulate", "--n", "150,", "--l", ",0.4", "--p", "6", "--reps", "2",
                "--pattern", "constant", "--format", "csv"]
        assert main(argv) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[:3] == ["# n=150", "# l=0.4", "# p=6"]

    def test_invalid_config_is_usage_error(self, capsys):
        assert main(["simulate", "--n", "10", "--l", "0.4", "--p", "24", "--reps", "2"]) == 1
        assert "error" in capsys.readouterr().err

    def test_every_pattern_is_validated_before_any_grid_runs(self, capsys, monkeypatch):
        def run_simulation(config):
            raise AssertionError("a grid ran before every config was validated")

        monkeypatch.setattr(cli, "run_simulation", run_simulation)
        assert main(["simulate", "--l", "0.2,0.95", "--pattern", "both"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "scorefit: error: variable pattern needs 0.95 +/- 0.10 inside (0, 1)\n"
        )

    @pytest.mark.parametrize("argv, message", [
        (["--p", "6,7", "--pattern", "both"], "variable pattern needs an even p, got 7"),
        (["--p", "1"], "need p >= 2 indicators, got 1"),
    ])
    def test_every_p_is_validated_before_any_grid_runs(self, capsys, monkeypatch, argv, message):
        def run_simulation(config):
            raise AssertionError("a grid ran before every p was validated")

        monkeypatch.setattr(cli, "run_simulation", run_simulation)
        assert main(["simulate"] + argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"scorefit: error: {message}\n"

    def test_sample_size_beyond_a_c_long_is_an_error(self, capsys):
        argv = ["simulate", "--l", "0.4", "--p", "6", "--reps", "1", "--pattern", "constant"]
        assert main(argv + ["--n", str(2**64)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"scorefit: error: sample size {2**64} is above 2**63\n"
        assert main(argv + ["--n", str(2**63)]) == 0
        assert capsys.readouterr().err == ""


class TestRequestCaps:
    """An argv that would need gigabytes exits 1 before anything large is allocated."""

    @pytest.mark.parametrize("argv, message", [
        (
            ["closed-form", "--curve", ".05", "--p-range", "2:2000000000"],
            "the curve is capped at 1048576 points: 1 SRMR level(s) allow at most 1048576 distinct p",
        ),
        (
            ["simulate", "--reps", "1000000000000"],
            "need 1 to 67108864 replications, got 1000000000000",
        ),
        (
            ["simulate", "--p", "50000", "--n", "50001"],
            "the (l, p) populations hold 10000000000 correlation entries, above the cap of "
            "16777216 (distinct loadings times the sum of p^2)",
        ),
    ])
    def test_refused_before_allocating(self, capsys, monkeypatch, argv, message):
        def refuse(*args, **kwargs):
            raise AssertionError("an array was allocated before the request was checked")

        for name in ("empty", "zeros", "outer"):
            monkeypatch.setattr(np, name, refuse)
        tracemalloc.start()
        try:
            status = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert status == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"scorefit: error: {message}\n"
        assert peak < 2**20


def _run(capsys, argv):
    """Exit status, stdout and stderr of one in-process call, usage errors included."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _help_texts(parser) -> dict:
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    texts = {(): parser.format_help()}
    texts.update({(name,): sub.format_help() for name, sub in commands.choices.items()})
    return texts


class TestParserCache:
    # A usage error, a handler error, a residual report and a plain one, in an
    # order where state left by one call would show in the next.
    SEQUENCE = [
        ["closed-form", "--p", "x"],
        ["closed-form", "--curve", "0.1"],
        ["fit-check", "--demo", "stai", "--residuals", "--format", "json"],
        ["fit-check", "--demo", "stai"],
    ]

    def test_built_once_per_process(self):
        assert cli._build_parser() is cli._build_parser()

    def test_calls_leave_no_state_behind(self, capsys, monkeypatch):
        with monkeypatch.context() as fresh:
            fresh.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
            expected = [_run(capsys, argv) for argv in self.SEQUENCE]
        assert [code for code, _, _ in expected] == [2, 1, 0, 0]
        assert [_run(capsys, argv) for argv in self.SEQUENCE] == expected

    def test_help_follows_the_terminal_width(self, capsys, monkeypatch):
        seen = []
        for columns in ("80", "200", "80"):
            monkeypatch.setenv("COLUMNS", columns)
            expected = _help_texts(cli._build_parser.__wrapped__())
            for command, text in expected.items():
                assert _run(capsys, [*command, "--help"]) == (0, text, "")
            seen.append(expected[()])
        assert seen[0] != seen[1] and seen[0] == seen[2]


class _MallInfo2(ctypes.Structure):
    _fields_ = [(name, ctypes.c_size_t) for name in (
        "arena", "ordblks", "smblks", "hblks", "hblkhd", "usmblks", "fsmblks", "uordblks",
        "fordblks", "keepcost")]


def _glibc_mallinfo2():
    try:
        mallinfo2 = ctypes.CDLL(None).mallinfo2  # glibc 2.33 and later
    except (AttributeError, OSError, TypeError):
        return None
    mallinfo2.argtypes, mallinfo2.restype = (), _MallInfo2
    return mallinfo2


@contextlib.contextmanager
def _freed_block_on_the_heap_top():
    """Yield ``mallinfo2`` with a freed 24 MB block on the heap's top.

    Fixed thresholds keep the block there, as glibc's own raised thresholds
    did for a freed report, until something trims the heap.
    """
    mallinfo2, mallopt = _glibc_mallinfo2(), ctypes.CDLL(None).mallopt
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    m_trim_threshold, m_mmap_threshold = -1, -3  # glibc's <malloc.h>
    try:
        mallopt(m_mmap_threshold, 32 << 20)
        mallopt(m_trim_threshold, 1 << 30)
        block = bytearray(24 << 20)
        del block
        assert mallinfo2().keepcost >= 24 << 20
        yield mallinfo2
    finally:
        mallopt(m_mmap_threshold, 128 << 10)  # glibc's defaults
        mallopt(m_trim_threshold, 128 << 10)


def _large_report_argv(folder: Path) -> list:
    """A p = 100 fit-check whose residual CSV is 1 MiB or more: one that main trims after."""
    p, rng = 100, np.random.default_rng(27)
    lam = rng.uniform(0.3, 0.8, p)
    noise = np.triu(rng.uniform(-0.02, 0.02, (p, p)), 1)
    sigma = np.outer(lam, lam) + noise + noise.T
    np.fill_diagonal(sigma, 1.0)
    write_matrix(folder / "matrix.txt", CorrelationMatrix(sigma))
    (folder / "loadings.txt").write_text("".join(f"{v!r}\n" for v in lam.tolist()))
    return [
        "fit-check", "--matrix", str(folder / "matrix.txt"), "--loadings",
        str(folder / "loadings.txt"), "--reflective", "--residuals", "--format", "csv",
    ]


@pytest.mark.skipif(_glibc_mallinfo2() is None, reason="needs glibc's mallinfo2")
def test_main_returns_freed_heap_pages(tmp_path, capsys):
    # A residual report of 1 MiB or more: main hands the freed block back.
    argv = _large_report_argv(tmp_path)
    with _freed_block_on_the_heap_top() as mallinfo2:
        assert main(argv) == 0
        assert mallinfo2().keepcost < 1 << 20
    assert len(capsys.readouterr().out) >= cli.TRIM_AFTER_CHARS


def test_main_writes_a_large_report_where_no_c_library_loads(tmp_path, capsys, monkeypatch):
    # Where ctypes cannot load the C library, main has no malloc_trim to call
    # and writes the report as it would have.
    argv = _large_report_argv(tmp_path)
    assert main(argv) == 0
    expected = capsys.readouterr().out
    assert len(expected) >= cli.TRIM_AFTER_CHARS

    def no_c_library(*args, **kwargs):
        raise OSError("no C library")

    monkeypatch.setattr(ctypes, "CDLL", no_c_library)
    cli._malloc_trim.cache_clear()
    try:
        assert main(argv) == 0
        assert cli._malloc_trim() is None
    finally:
        cli._malloc_trim.cache_clear()
    assert capsys.readouterr().out == expected


@pytest.mark.skipif(_glibc_mallinfo2() is None, reason="needs glibc's mallinfo2")
def test_main_leaves_the_heap_alone_after_a_small_report(capsys):
    # A closed-form report is a few hundred bytes: trimming would only make the
    # next call fault the pages back in.
    argv = ["closed-form", "--r", "0.5", "--p", "4"]
    assert main(argv) == 0  # builds the parser, once per process
    with _freed_block_on_the_heap_top() as mallinfo2:
        assert main(argv) == 0
        assert mallinfo2().keepcost >= 24 << 20
    capsys.readouterr()


def test_blas_threads_move_numbers_only_within_the_golden_tolerance(tmp_path):
    # LAPACK's factor and numpy's products may round differently with the BLAS
    # thread count from about p = 100 on: a p = 150 residual CSV from one
    # thread and from two must agree within the goldens' cross-machine tolerance.
    p, rng = 150, np.random.default_rng(150)
    lam = rng.uniform(0.3, 0.8, p)
    noise = np.triu(rng.uniform(-0.02, 0.02, (p, p)), 1)
    sigma = np.outer(lam, lam) + noise + noise.T
    np.fill_diagonal(sigma, 1.0)
    write_matrix(tmp_path / "matrix.txt", CorrelationMatrix(sigma))
    (tmp_path / "loadings.txt").write_text("".join(f"{v!r}\n" for v in lam.tolist()))
    argv = [
        sys.executable, "-m", "scorefit.cli", "fit-check", "--matrix", "matrix.txt",
        "--loadings", "loadings.txt", "--reflective", "--residuals", "--format", "csv",
    ]
    src = str(Path(__file__).resolve().parents[1] / "src")
    outputs = []
    for threads in ("1", "2"):
        env = dict(
            os.environ, PYTHONPATH=src,
            OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads,
        )
        done = subprocess.run(
            argv, cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60
        )
        assert (done.returncode, done.stderr) == (0, "")
        outputs.append(done.stdout.splitlines())
    one, two = outputs
    assert len(one) == len(two) > p * p
    for lineno, (a, b) in enumerate(zip(one, two), 1):
        assert regen._same_tokens(a, b), f"line {lineno}: {a!r} against {b!r}"
