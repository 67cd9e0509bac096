"""Plain-text ingestion of correlation matrices and loading vectors.

Files hold one matrix row per line, comma-, semicolon- or whitespace-delimited,
with optional ``*``-prefixed comment lines.  The delimiter and the layout are
always detected from the text; there is no override.  A lower triangle (row i
holding i entries, diagonal included) is mirrored across the diagonal; anything
else must be a full square matrix.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .errors import MatrixParseError, ValidationError
from .model import SYMMETRY_TOL, CorrelationMatrix


def _detect_delimiter(lines: list[str]) -> str | None:
    # Scan the whole body: the first row of a lower triangle has one entry and
    # therefore no separator at all.  None splits on whitespace.
    if any(";" in line for line in lines):
        return ";"
    if any("," in line for line in lines):
        return ","
    return None


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


def _tokenize(label: str, text: str) -> list[tuple[int, list[float]]]:
    """The data rows of ``text`` as (line number, values), in file order."""
    lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line.startswith("*"):
            continue
        # A statement-style trailing separator on a row is tolerated (and removed
        # before delimiter detection, so ";"-terminated comma rows stay comma rows).
        line = line.rstrip(";,").strip()
        if line:
            lines.append((lineno, line))
    if not lines:
        raise MatrixParseError(f"{label} contains no data lines")
    delimiter = _detect_delimiter([line for _, line in lines])
    rows = []
    for lineno, line in lines:
        try:
            rows.append((lineno, _floats(line.split(delimiter))))
        except ValueError as exc:
            raise MatrixParseError(f"{label}, line {lineno}: {exc}") from exc
        if not all(map(math.isfinite, rows[-1][1])):
            raise MatrixParseError(f"{label}, line {lineno}: non-finite value")
    return rows


def _read_rows(path: Path) -> list[tuple[int, list[float]]]:
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise MatrixParseError(f"cannot read {path}: {exc}") from exc
    return _tokenize(str(path), text)


def _assemble(label: str, rows: list[tuple[int, list[float]]]) -> np.ndarray:
    p = len(rows)
    if p > 1 and all(len(values) == i for i, (_, values) in enumerate(rows, start=1)):
        full = np.zeros((p, p))
        for i, (_, values) in enumerate(rows):
            full[i, : i + 1] = values
        # Mirror exactly as the matrix-language oracle does: M + M' - diag(M).
        return full + full.T - np.diag(np.diag(full))

    for lineno, values in rows:
        if len(values) != p:
            raise MatrixParseError(
                f"{label}, line {lineno}: row has {len(values)} entries, "
                f"expected {p} for a full square matrix"
            )
    return np.array([values for _, values in rows])


def parse_matrix(path: str | Path, require_unit_diagonal: bool = False) -> CorrelationMatrix:
    """Parse, mirror/symmetrize and validate a covariance or correlation matrix.

    With ``require_unit_diagonal`` the parsed matrix must be a correlation
    matrix (unit diagonal, off-diagonals in [-1, 1]).  Positive definiteness
    is not checked: a matrix that is not positive definite parses silently,
    and only the operations that factor or invert it reject it.
    """
    path = Path(path)
    matrix = CorrelationMatrix(_assemble(str(path), _read_rows(path)))
    if require_unit_diagonal and not matrix.is_standardized:
        worst = np.abs(np.diag(matrix.values) - 1.0).max()
        raise ValidationError(
            f"{path}: a correlation matrix is required but the diagonal "
            f"deviates from 1 by up to {worst:.3e} (tolerance {SYMMETRY_TOL:g}) "
            "or an off-diagonal entry falls outside [-1, 1]"
        )
    return matrix


def parse_loadings(path: str | Path, expected_p: int | None = None) -> np.ndarray:
    """Parse a loading vector: one value per line, or one delimited row.

    ``expected_p`` cross-checks the count against a companion matrix.
    """
    path = Path(path)
    rows = _read_rows(path)
    if len(rows) == 1:
        values = np.asarray(rows[0][1])
    else:
        values = []
        for lineno, row in rows:
            if len(row) != 1:
                raise MatrixParseError(
                    f"{path}, line {lineno}: expected one loading per line, got {len(row)}"
                )
            values.append(row[0])
        values = np.asarray(values)
    if expected_p is not None and values.size != expected_p:
        raise MatrixParseError(
            f"{path}: {values.size} loadings do not match the "
            f"{expected_p}-indicator matrix"
        )
    return values


def write_matrix(path: str | Path, matrix: CorrelationMatrix) -> None:
    """Write a full square, comma-separated matrix at round-trip precision."""
    lines = [",".join(repr(float(v)) for v in row) for row in matrix.values]
    Path(path).write_text("\n".join(lines) + "\n")
