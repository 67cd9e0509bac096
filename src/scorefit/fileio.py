"""Plain-text ingestion of correlation matrices and loading vectors.

Files are UTF-8, a leading byte order mark ignored.  They hold one matrix row
per line, comma-, semicolon- or whitespace-delimited, with optional
``*``-prefixed comment lines.  The delimiter and the layout are always detected
from the text; there is no override.  A lower triangle (row i holding i
entries, diagonal included) is mirrored across the diagonal, a step that cannot
overflow; anything else must be a full square matrix.
"""

from __future__ import annotations

import math
from pathlib import Path

from ._numpy import np
from .errors import MatrixParseError
from .model import CorrelationMatrix

# Data lines a file may hold, counted before any of them is converted to floats,
# so p is at most this.  fit-check's largest report, all three models with
# --residuals --format csv, grows as p^2: at p = 1024 it peaked at 429 MiB of
# RSS in 2.2 s, about 143 bytes per residual entry.  The same report peaked at
# 306 MiB in 2.4 s in JSON and at 190 MiB in 1.6 s as a table (a fresh process
# writing to a file, one BLAS thread, 2-vCPU Xeon VM).
MAX_MATRIX_ROWS = 1024


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
    if len(lines) > MAX_MATRIX_ROWS:
        raise MatrixParseError(
            f"{label} has {len(lines)} data lines, above the cap of {MAX_MATRIX_ROWS}"
        )
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


def _read_rows(path: Path, digest) -> list[tuple[int, list[float]]]:
    try:
        raw = path.read_bytes()
        text = raw.decode("utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise MatrixParseError(f"cannot read {path}: {exc}") from exc
    if digest is not None:
        digest.update(raw)
    return _tokenize(str(path), text)


def _assemble(label: str, rows: list[tuple[int, list[float]]]) -> np.ndarray:
    p = len(rows)
    if p > 1 and all(len(values) == i for i, (_, values) in enumerate(rows, start=1)):
        full = np.zeros((p, p))
        for i, (_, values) in enumerate(rows):
            full[i, : i + 1] = values
        # The oracle's M + M' - diag(M) bit for bit where that is finite, never doubling diag(M).
        return full + np.tril(full, -1).T

    for lineno, values in rows:
        if len(values) != p:
            raise MatrixParseError(
                f"{label}, line {lineno}: row has {len(values)} entries, "
                f"expected {p} for a full square matrix"
            )
    return np.array([values for _, values in rows])


def parse_matrix(path: str | Path, *, digest=None) -> CorrelationMatrix:
    """Parse, mirror/symmetrize and validate a covariance or correlation matrix.

    Positive definiteness is not checked: a matrix that is not positive
    definite parses silently, and only the operations that factor or invert
    it reject it.  ``digest``, a :mod:`hashlib` object, is fed the file's raw
    bytes, so that a caller can checksum the file without reading it again.
    """
    path = Path(path)
    return CorrelationMatrix(_assemble(str(path), _read_rows(path, digest)))


def parse_loadings(
    path: str | Path, expected_p: int | None = None, *, digest=None
) -> np.ndarray:
    """Parse a loading vector: one value per line, or one delimited row.

    ``expected_p`` cross-checks the count against a companion matrix;
    ``digest`` is fed the file's raw bytes, as for :func:`parse_matrix`.
    """
    path = Path(path)
    rows = _read_rows(path, digest)
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
