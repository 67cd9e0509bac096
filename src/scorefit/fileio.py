"""Plain-text ingestion of correlation matrices and loading vectors.

Files hold one matrix row per line, comma-, semicolon- or whitespace-delimited,
with optional ``*``-prefixed comment lines.  A lower triangle (row i holding i
entries, diagonal included) is auto-detected and mirrored across the diagonal;
anything else must be a full square matrix.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import (
    MatrixParseError,
    NotPositiveDefiniteWarning,
    SingularMatrixError,
    ValidationError,
)
from .model import SYMMETRY_TOL, CorrelationMatrix, cholesky_lower


class Layout(Enum):
    FULL_SYMMETRIC = "full_symmetric"
    LOWER_TRIANGLE = "lower_triangle"


class Delimiter(Enum):
    COMMA = ","
    SEMICOLON = ";"
    WHITESPACE = None


@dataclass(frozen=True)
class MatrixFile:
    """A matrix source: path plus optional layout/delimiter overrides.

    Leaving ``layout`` or ``delimiter`` unset selects auto-detection.
    """

    path: str | Path
    layout: Layout | None = None
    delimiter: Delimiter | None = None


def _detect_delimiter(lines: list[str]) -> Delimiter:
    # Scan the whole body: the first row of a lower triangle has one entry and
    # therefore no separator at all.
    if any(";" in line for line in lines):
        return Delimiter.SEMICOLON
    if any("," in line for line in lines):
        return Delimiter.COMMA
    return Delimiter.WHITESPACE


def _data_lines(path: Path) -> list[tuple[int, str]]:
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise MatrixParseError(f"cannot read {path}: {exc}") from exc
    lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("*"):
            continue
        lines.append((lineno, stripped))
    if not lines:
        raise MatrixParseError(f"{path} contains no data lines")
    return lines


def _floats(tokens: list[str]) -> list[float]:
    """The tokens as floats, blank tokens (as in ``1.0,,0.5``) skipped."""
    # One C-level pass when no token is blank. A filter in that pass would cost
    # as much as the fallback: ``str.strip`` copies every ", "-separated token.
    try:
        return list(map(float, tokens))
    except ValueError:
        # A blank or a bad token: convert again without the blanks, so that the
        # error, if any, names the first bad token that is not blank.
        return [float(tok) for tok in tokens if tok.strip()]


def _tokenize(source: MatrixFile, lines: list[tuple[int, str]]) -> list[tuple[int, list[float]]]:
    # A statement-style trailing separator on a row is tolerated (and removed
    # before delimiter detection, so ";"-terminated comma rows stay comma rows).
    cleaned = [(lineno, line.rstrip(";,").strip()) for lineno, line in lines]
    cleaned = [(lineno, line) for lineno, line in cleaned if line]
    if not cleaned:
        raise MatrixParseError(f"{source.path} contains no data lines")
    delimiter = source.delimiter or _detect_delimiter([line for _, line in cleaned])
    rows = []
    for lineno, line in cleaned:
        try:
            rows.append((lineno, _floats(line.split(delimiter.value))))
        except ValueError as exc:
            raise MatrixParseError(f"{source.path}, line {lineno}: {exc}") from exc
        if not all(map(math.isfinite, rows[-1][1])):
            raise MatrixParseError(f"{source.path}, line {lineno}: non-finite value")
    return rows


def _assemble(source: MatrixFile, rows: list[tuple[int, list[float]]]) -> np.ndarray:
    lengths = [len(values) for _, values in rows]
    p = len(rows)
    is_triangle = lengths == list(range(1, p + 1)) and p > 1
    layout = source.layout
    if layout is None:
        layout = Layout.LOWER_TRIANGLE if is_triangle else Layout.FULL_SYMMETRIC

    if layout is Layout.LOWER_TRIANGLE:
        full = np.zeros((p, p))
        for i, (lineno, values) in enumerate(rows):
            if len(values) != i + 1:
                raise MatrixParseError(
                    f"{source.path}, line {lineno}: lower-triangle row {i + 1} "
                    f"has {len(values)} entries, expected {i + 1}"
                )
            full[i, : i + 1] = values
        # Mirror exactly as the matrix-language oracle does: M + M' - diag(M).
        return full + full.T - np.diag(np.diag(full))

    for lineno, values in rows:
        if len(values) != p:
            raise MatrixParseError(
                f"{source.path}, line {lineno}: row has {len(values)} entries, "
                f"expected {p} for a full square matrix"
            )
    return np.array([values for _, values in rows])


def parse_matrix(source: MatrixFile | str | Path, require_unit_diagonal: bool = False) -> CorrelationMatrix:
    """Parse, mirror/symmetrize and validate a covariance or correlation matrix.

    With ``require_unit_diagonal`` the parsed matrix must be a correlation
    matrix (unit diagonal, off-diagonals in [-1, 1]).  A matrix that is not
    positive definite parses fine but carries a
    :class:`NotPositiveDefiniteWarning`; only inversion-based operations
    reject it.
    """
    if not isinstance(source, MatrixFile):
        source = MatrixFile(Path(source))
    rows = _tokenize(source, _data_lines(Path(source.path)))
    matrix = CorrelationMatrix(_assemble(source, rows))
    if require_unit_diagonal and not matrix.is_standardized:
        worst = np.abs(np.diag(matrix.values) - 1.0).max()
        raise ValidationError(
            f"{source.path}: a correlation matrix is required but the diagonal "
            f"deviates from 1 by up to {worst:.3e} (tolerance {SYMMETRY_TOL:g}) "
            "or an off-diagonal entry falls outside [-1, 1]"
        )
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # near-singular still parses silently
            cholesky_lower(matrix.values)
    except SingularMatrixError as exc:
        warnings.warn(
            f"{source.path}: matrix is not positive definite ({exc})",
            NotPositiveDefiniteWarning,
            stacklevel=2,
        )
    return matrix


def parse_loadings(source: MatrixFile | str | Path, expected_p: int | None = None) -> np.ndarray:
    """Parse a loading vector: one value per line, or one delimited row.

    ``expected_p`` cross-checks the count against a companion matrix.
    """
    if not isinstance(source, MatrixFile):
        source = MatrixFile(Path(source))
    rows = _tokenize(source, _data_lines(Path(source.path)))
    if len(rows) == 1:
        values = np.asarray(rows[0][1])
    else:
        values = []
        for lineno, row in rows:
            if len(row) != 1:
                raise MatrixParseError(
                    f"{source.path}, line {lineno}: expected one loading per line, got {len(row)}"
                )
            values.append(row[0])
        values = np.asarray(values)
    if expected_p is not None and values.size != expected_p:
        raise MatrixParseError(
            f"{source.path}: {values.size} loadings do not match the "
            f"{expected_p}-indicator matrix"
        )
    return values


def write_matrix(path: str | Path, matrix: CorrelationMatrix, delimiter: Delimiter = Delimiter.COMMA) -> None:
    """Write a full square matrix at round-trip precision."""
    sep = delimiter.value or " "
    lines = [sep.join(repr(float(v)) for v in row) for row in matrix.values]
    Path(path).write_text("\n".join(lines) + "\n")
