"""Report document assembly and serialization (plain table, CSV, JSON).

Human tables round to 4 decimals; CSV and JSON carry full precision so that
re-parsing a serialized report recovers every numeric field.  CSV column
layouts are part of the CLI contract and documented in the README.
"""

from __future__ import annotations

import json
import numbers
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from enum import Enum

from ._numpy import np
from .fit import FitReport, RequiredRCurve
from .simulation import SimulationCell


class OutputFormat(Enum):
    TABLE = "table"
    CSV = "csv"
    JSON = "json"


def _num(value) -> str:
    # repr round-trips floats exactly; ints, numpy's among them, stay ints.
    if type(value) is float:
        return repr(value)
    if isinstance(value, (int, numbers.Integral)) and not isinstance(value, bool):
        return repr(int(value))
    return repr(float(value))


# The simulate cell and --curve point layouts: each tuple is both the CSV
# header and the JSON keys, in order.  _cell_row gives a cell's values in it.
_CELL_COLUMNS = (
    "n", "l", "r", "p", "pattern",
    "population_srmr", "mean_srmr_s", "sd_srmr_s", "replications_used",
)
_CURVE_COLUMNS = ("p", "srmr_level", "required_r")


def _cell_row(c: SimulationCell) -> tuple:
    # r is the nominal inter-correlation l^2.
    return (
        c.n, c.l, c.l * c.l, c.p, c.pattern.value,
        c.population_srmr, c.mean_srmr_s, c.sd_srmr_s, c.replications_used,
    )


def _curve_points(curve: RequiredRCurve, levels) -> Iterator[tuple]:
    # (p, level, required r) in (p, level) order, levels taken by position from
    # levels (curve.levels or their texts).  A ragged grid raises ValueError.
    for p, row in zip(curve.ps, curve.required_r, strict=True):
        for level, r in zip(levels, row, strict=True):
            yield p, level, r


def _entry_texts(resid: np.ndarray, fmt: Callable[[float], str]) -> list[list[str]]:
    """Row-major texts of every entry of a float64 matrix, each distinct entry formatted once.

    A matrix that is symmetric bit for bit (so 0.0 and -0.0 differ) has only
    its upper triangle formatted; anything else is formatted entry by entry.
    """
    bits = resid.view(np.uint64)
    if not np.array_equal(bits, bits.T):
        return [list(map(fmt, row)) for row in resid.tolist()]
    # Mirroring is exact for srmr() residuals only where diag(sigma) is all 1.0,
    # as in every fit-check report: both operands were symmetrized as M/2 + M'/2,
    # and IEEE subtraction keeps that symmetry; scaling by s_i s_j may not.
    p = len(resid)
    upper = np.triu_indices(p)
    texts = np.array(list(map(fmt, resid[upper].tolist())), dtype=object)
    index = np.empty((p, p), dtype=np.intp)
    index[upper] = index.T[upper] = np.arange(len(texts))
    return texts[index].tolist()


@dataclass(frozen=True)
class ReportDocument:
    """Everything one CLI invocation produced, ready to serialize.

    ``inputs`` echoes dimensions, checksums and parameters; ``fits`` holds
    per-model fit reports and ``warnings`` the (model, message) pairs raised
    while fitting them, in the order found; ``values`` holds scalar results;
    ``curve`` and ``cells`` hold the tabular payloads of the curve and
    simulation commands.
    """

    inputs: tuple[tuple[str, str], ...] = ()
    fits: tuple[tuple[str, FitReport], ...] = ()
    warnings: tuple[tuple[str, str], ...] = ()
    values: tuple[tuple[str, float], ...] = ()
    curve: RequiredRCurve | None = None
    cells: tuple[SimulationCell, ...] = ()
    include_residuals: bool = False
    fmt: OutputFormat = OutputFormat.TABLE

    def render(self) -> str:
        if self.fmt is OutputFormat.JSON:
            return self._render_json()
        if self.fmt is OutputFormat.CSV:
            return self._render_csv()
        return self._render_table()

    # -- table ---------------------------------------------------------------

    def _render_table(self) -> str:
        lines = []
        if self.inputs:
            lines.append("inputs")
            width = max(len(k) for k, _ in self.inputs)
            for key, value in self.inputs:
                lines.append(f"  {key.ljust(width)}  {_one_line(value)}")
        if self.fits:
            lines.append("fit")
            width = max(len(label) for label, _ in self.fits)
            for label, report in self.fits:
                lines.append(f"  {label.ljust(width)}  SRMR = {report.srmr:.4f}")
            for label, message in self.warnings:
                lines.append(f"  warning [{label}]: {_one_line(message)}")
            if self.include_residuals:
                for label, report in self.fits:
                    lines.append(f"residuals ({label})")
                    for row in _entry_texts(report.residuals, "{:7.4f}".format):
                        lines.append("  " + " ".join(row))
        if self.values:
            lines.append("result")
            width = max(len(k) for k, _ in self.values)
            for key, value in self.values:
                shown = f"{value:d}" if isinstance(value, int) else f"{value:.4f}"
                lines.append(f"  {key.ljust(width)}  {shown}")
        if self.curve is not None:
            lines.append("required r by scale length and SRMR level")
            lines.append("  p     level   required_r")
            for p, level, r in _curve_points(self.curve, self.curve.levels):
                r_txt = "unattainable" if r is None else f"{r:.4f}"
                lines.append(f"  {p:<5d} {level:<7.4f} {r_txt}")
        if self.cells:
            lines.append("simulation")
            lines.append("  n     l     r     p    pattern   pop_srmr  mean_srmr_s  sd_srmr_s  reps")
            row = "  {:<5d} {:<5.2f} {:<5.2f} {:<4d} {:<9s} {:<9.4f} {:<12.4f} {:<10.4f} {}"
            lines.extend(row.format(*_cell_row(c)) for c in self.cells)
        return "\n".join(lines) + "\n"

    # -- csv -----------------------------------------------------------------

    def _render_csv(self) -> str:
        lines = [f"# {key}={_one_line(value)}" for key, value in self.inputs]
        if self.fits:
            lines.append("record,model,i,j,value")
            for label, report in self.fits:
                lines.append(f"srmr,{label},,,{_num(report.srmr)}")
            for label, message in self.warnings:
                lines.append(f"warning,{label},,,{_csv_quote(message)}")
            if self.include_residuals:
                for label, report in self.fits:
                    # One row of the matrix is one join over [head, ",j,", text] * p,
                    # so no per-entry string is built beyond the entry texts.
                    p = report.residuals.shape[1]
                    slots = [""] * (3 * p)
                    slots[1::3] = [f",{j}," for j in range(p)]
                    for i, row in enumerate(_entry_texts(report.residuals, repr)):
                        head = f"residual,{label},{i}"
                        slots[0::3] = [f"\n{head}"] * p
                        slots[0] = head
                        slots[2::3] = row
                        lines.append("".join(slots))
        if self.values:
            lines.append("quantity,value")
            for key, value in self.values:
                lines.append(f"{key},{_num(value)}")
        if self.curve is not None:
            lines.append(",".join(_CURVE_COLUMNS))
            level_texts = [_num(level) for level in self.curve.levels]
            for p, level_txt, r in _curve_points(self.curve, level_texts):
                r_txt = "unattainable" if r is None else _num(r)
                lines.append(f"{p},{level_txt},{r_txt}")
        if self.cells:
            lines.append(",".join(_CELL_COLUMNS))
            for c in self.cells:
                lines.append(",".join(v if isinstance(v, str) else _num(v) for v in _cell_row(c)))
        # Join the final newline in: appending it would copy a report that can
        # run to tens of MB.  An empty report is still a single newline.
        lines.append("")
        return "\n".join(lines) or "\n"

    # -- json ----------------------------------------------------------------

    def _render_json(self) -> str:
        doc: dict = {"inputs": dict(self.inputs)}
        if self.fits:
            doc["fits"] = []
            for label, report in self.fits:
                entry = {
                    "model": label,
                    "srmr": report.srmr,
                    "warnings": [msg for model, msg in self.warnings if model == label],
                }
                if self.include_residuals:
                    entry["residuals"] = None  # spliced in below
                doc["fits"].append(entry)
        if self.values:
            doc["results"] = dict(self.values)
        if self.curve is not None:
            points = _curve_points(self.curve, self.curve.levels)
            doc["curve"] = [dict(zip(_CURVE_COLUMNS, point)) for point in points]
        if self.cells:
            # JSON has no NaN (the one value unequal to itself): such a cell value is null.
            rows = ([None if v != v else v for v in _cell_row(c)] for c in self.cells)
            doc["cells"] = [dict(zip(_CELL_COLUMNS, row)) for row in rows]
        text = json.dumps(doc, indent=2) + "\n"
        if not self.include_residuals:
            return text
        # Only a fit's "residuals" key is written at this depth: a caller's
        # string is quoted, with its newlines escaped, so it cannot match.
        key = '\n      "residuals": '
        head, *tails = text.split(key + "null")
        pieces = [head]
        for (_, report), tail in zip(self.fits, tails, strict=True):
            pieces += (key, _json_matrix(report.residuals), tail)
        return "".join(pieces)


def _json_matrix(resid: np.ndarray) -> str:
    # The text json.dumps(indent=2) writes for resid, as nested float lists,
    # at a fit's "residuals" key.
    rows = [",\n          ".join(row) for row in _entry_texts(resid, repr)]
    if not rows:
        return "[]"
    text = "[\n        [\n          " + "\n        ],\n        [\n          ".join(rows)
    # repr writes nan, inf and -inf; json.dumps writes NaN, Infinity and -Infinity.
    return (text + "\n        ]\n      ]").replace("nan", "NaN").replace("inf", "Infinity")


def _one_line(text: str) -> str:
    # An echoed input, a table warning or an error message keeps to its own
    # line: CR and LF are written as the escapes \r and \n, and a backslash
    # as \\ so the escape can be undone (JSON escapes all three itself).
    return text.replace("\\", "\\\\").replace("\r", "\\r").replace("\n", "\\n")


def _csv_quote(text: str) -> str:
    # RFC 4180: a field holding a comma, quote, line feed or carriage return is quoted.
    if any(ch in text for ch in ',"\n\r'):
        return '"' + text.replace('"', '""') + '"'
    return text
