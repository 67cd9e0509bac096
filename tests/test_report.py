"""Report rendering: residual blocks against a per-entry oracle, other sections verbatim.

The oracle is the original renderer loop: one formatted line per residual
entry, ``residual,{label},{i},{j},{_num(v)}`` in CSV and ``f"{v:7.4f}"`` per
table cell.  The documents under test carry inputs and fits only, so the
residual lines are the last lines of either format.

The scalar, curve, simulation and warning sections are checked as exact text
rendered from hand-built documents, so no numerical change elsewhere moves them.
"""

import dataclasses
import re
import textwrap
from pathlib import Path

import numpy as np
import pytest

from scorefit import (
    CorrelationMatrix,
    FactorModel,
    FitReport,
    RequiredRCurve,
    factor_implied_sigma,
    fs_implied_sigma,
    score_model_implied_sigma,
    srmr,
)
from scorefit.cli import main
from scorefit.report import OutputFormat, ReportDocument, _entry_texts, _num
from scorefit.simulation import LoadingPattern, SimulationCell


def _oracle_lines(fits, fmt: OutputFormat) -> list[str]:
    lines = []
    for label, report in fits:
        if fmt is OutputFormat.CSV:
            for i, row in enumerate(report.residuals):
                for j, value in enumerate(row):
                    lines.append(f"residual,{label},{i},{j},{_num(value)}")
        else:
            lines.append(f"residuals ({label})")
            for row in report.residuals:
                lines.append("  " + " ".join(f"{v:7.4f}" for v in row))
    return lines


def _oracle_render(doc: ReportDocument) -> str:
    head = dataclasses.replace(doc, include_residuals=False).render()
    return head + "".join(line + "\n" for line in _oracle_lines(doc.fits, doc.fmt))


def _assert_renders_like_oracle(fits, inputs=()):
    for fmt in (OutputFormat.CSV, OutputFormat.TABLE):
        doc = ReportDocument(inputs=inputs, fits=tuple(fits), include_residuals=True, fmt=fmt)
        assert doc.render() == _oracle_render(doc)


def _bitwise_symmetric(resid: np.ndarray) -> bool:
    bits = resid.view(np.uint64)
    return bool(np.array_equal(bits, bits.T))


def _stai_fits(sigma, lam):
    model = FactorModel.from_standardized_loadings(lam)
    unit = score_model_implied_sigma(sigma, np.ones(sigma.p))
    return (
        ("unit_weighted", srmr(sigma, unit)),
        ("factor_score", srmr(sigma, fs_implied_sigma(sigma, model))),
        ("reflective", srmr(sigma, factor_implied_sigma(model))),
    )


def _symmetric(p: int, seed: int) -> np.ndarray:
    a = np.random.default_rng(seed).standard_normal((p, p))
    return (a + a.T) / 2.0


class TestRendererEquivalence:
    def test_stai_fits(self, stai_sigma, stai_lam):
        fits = _stai_fits(stai_sigma, stai_lam)
        assert all(_bitwise_symmetric(report.residuals) for _, report in fits)
        _assert_renders_like_oracle(fits, inputs=(("matrix", "demo:stai"), ("p", "20")))

    @pytest.mark.parametrize("p", [1, 2, 27])
    def test_random_symmetric(self, p):
        resid = _symmetric(p, seed=p)
        assert _bitwise_symmetric(resid)
        _assert_renders_like_oracle([("a", FitReport(0.5, resid)), ("bb", FitReport(0.25, -resid))])

    def test_asymmetric_falls_back_to_every_entry(self):
        resid = np.random.default_rng(5).standard_normal((6, 6))
        assert not _bitwise_symmetric(resid)
        _assert_renders_like_oracle([("asym", FitReport(1.0, resid))])

    def test_signed_zeros_are_not_mirrored(self):
        resid = _symmetric(4, seed=9)
        resid[1, 3], resid[3, 1] = 0.0, -0.0
        assert not _bitwise_symmetric(resid)
        fits = [("z", FitReport(0.1, resid))]
        _assert_renders_like_oracle(fits)
        doc = ReportDocument(fits=tuple(fits), include_residuals=True, fmt=OutputFormat.CSV)
        lines = doc.render().splitlines()
        assert "residual,z,1,3,0.0" in lines
        assert "residual,z,3,1,-0.0" in lines

    def test_exponent_form_values(self):
        resid = np.array([
            [1e-05, 1e16, 5e-324],
            [1e16, -1e-05, 0.5],
            [5e-324, 0.5, -1e16],
        ])
        fits = [("e", FitReport(0.0, resid))]
        _assert_renders_like_oracle(fits)
        doc = ReportDocument(fits=tuple(fits), include_residuals=True, fmt=OutputFormat.CSV)
        lines = doc.render().splitlines()
        for line in ("residual,e,0,0,1e-05", "residual,e,1,0,1e+16", "residual,e,2,0,5e-324"):
            assert line in lines

    def test_symmetric_nan(self):
        resid = _symmetric(3, seed=3)
        resid[0, 2] = resid[2, 0] = np.nan
        assert _bitwise_symmetric(resid)
        _assert_renders_like_oracle([("n", FitReport(float("nan"), resid))])


class TestEntryTexts:
    @staticmethod
    def _counting(values):
        def fmt(value):
            values.append(value)
            return repr(value)
        return fmt

    def test_symmetric_formats_upper_triangle_once(self):
        seen = []
        texts = _entry_texts(_symmetric(5, seed=1), self._counting(seen))
        assert len(seen) == 5 * 6 // 2
        assert all(type(v) is float for v in seen)
        assert len(texts) == 5 and all(len(row) == 5 for row in texts)

    def test_asymmetric_formats_every_entry(self):
        seen = []
        _entry_texts(np.arange(9.0).reshape(3, 3), self._counting(seen))
        assert seen == list(np.arange(9.0))

    def test_srmr_residuals_are_bitwise_symmetric(self):
        for p in (2, 7, 40):
            data = np.random.default_rng(p).standard_normal((p, 3 * p))
            sigma = CorrelationMatrix(np.corrcoef(data))
            report = srmr(sigma, score_model_implied_sigma(sigma, np.ones(p)))
            assert _bitwise_symmetric(report.residuals)


class TestFitCheckResidualOutput:
    @pytest.mark.parametrize("fmt", [OutputFormat.CSV, OutputFormat.TABLE])
    def test_demo_matches_oracle_on_library_fits(self, fmt, capsys, stai_sigma, stai_lam):
        argv = ["fit-check", "--demo", "stai", "--reflective", "--residuals", "--format", fmt.value]
        assert main(argv) == 0
        expected = _oracle_lines(_stai_fits(stai_sigma, stai_lam), fmt)
        lines = capsys.readouterr().out.splitlines()
        assert lines[-len(expected):] == expected
        marker = "residual," if fmt is OutputFormat.CSV else "residuals ("
        first = next(k for k, line in enumerate(lines) if line.startswith(marker))
        assert len(lines) - first == len(expected)


def _text(block: str) -> str:
    return textwrap.dedent(block).lstrip("\n")


class TestSections:
    VALUES = dict(inputs=(("r", "0.64"), ("p", "24")), values=(("srmr", 0.098612345), ("min_p", 157)))
    CURVE = dict(
        inputs=(("levels", "0.06,0.51"), ("p_range", "4:12:8")),
        curve=RequiredRCurve((0.06, 0.51), (4, 12), ((0.8125, None), (0.75, None))),
    )
    CELLS = dict(
        inputs=(("seed", "9"),),
        cells=(
            SimulationCell(150, 0.4, 6, LoadingPattern.CONSTANT, 0.39191835884530846, 0.39784, 0.015123, 25),
            SimulationCell(900, 0.8, 24, LoadingPattern.VARIABLE, 0.105, float("nan"), float("nan"), 0),
        ),
    )
    WARNINGS = dict(
        fits=(
            ("unit_weighted", FitReport(0.25, np.zeros((2, 2)))),
            ("reflective", FitReport(0.5, np.zeros((2, 2)))),
        ),
        warnings=(
            ("unit_weighted", 'smallest Cholesky pivot 1e-07, "near" singular'),
            ("unit_weighted", "two\nlines"),
            ("reflective", "plain"),
        ),
    )

    @pytest.mark.parametrize("fmt, expected", [
        (OutputFormat.TABLE, """
            inputs
              r  0.64
              p  24
            result
              srmr   0.0986
              min_p  157
            """),
        (OutputFormat.CSV, """
            # r=0.64
            # p=24
            quantity,value
            srmr,0.098612345
            min_p,157
            """),
    ])
    def test_closed_form_values(self, fmt, expected):
        assert ReportDocument(**self.VALUES, fmt=fmt).render() == _text(expected)

    @pytest.mark.parametrize("fmt, expected", [
        (OutputFormat.TABLE, """
            inputs
              levels   0.06,0.51
              p_range  4:12:8
            required r by scale length and SRMR level
              p     level   required_r
              4     0.0600  0.8125
              4     0.5100  unattainable
              12    0.0600  0.7500
              12    0.5100  unattainable
            """),
        (OutputFormat.JSON, """
            {
              "inputs": {
                "levels": "0.06,0.51",
                "p_range": "4:12:8"
              },
              "curve": [
                {
                  "p": 4,
                  "srmr_level": 0.06,
                  "required_r": 0.8125
                },
                {
                  "p": 4,
                  "srmr_level": 0.51,
                  "required_r": null
                },
                {
                  "p": 12,
                  "srmr_level": 0.06,
                  "required_r": 0.75
                },
                {
                  "p": 12,
                  "srmr_level": 0.51,
                  "required_r": null
                }
              ]
            }
            """),
    ])
    def test_curve(self, fmt, expected):
        assert ReportDocument(**self.CURVE, fmt=fmt).render() == _text(expected)

    def test_csv_curve_writes_what_num_writes(self):
        # Levels are formatted once per report, by position, so equal values of
        # another type or sign (1 and 1.0, 0.0 and -0.0) keep their own texts.
        curve = RequiredRCurve(
            levels=(1, 1.0, 0.0, -0.0, np.float64(0.05)),
            ps=(2, np.int64(4)),
            required_r=(
                (1, 0.0, -0.0, None, np.float64(0.3)),
                (np.int64(0), 0.75, None, 0.5, -0.0),
            ),
        )
        lines = ReportDocument(curve=curve, fmt=OutputFormat.CSV).render().splitlines()
        assert lines == ["p,srmr_level,required_r"] + [
            f"{p},{_num(level)}," + ("unattainable" if r is None else _num(r))
            for p, row in zip(curve.ps, curve.required_r)
            for level, r in zip(curve.levels, row)
        ]
        assert lines[1:7] == [
            "2,1,1", "2,1.0,0.0", "2,0.0,-0.0", "2,-0.0,unattainable", "2,0.05,0.3", "4,1,0",
        ]

    @pytest.mark.parametrize("fmt", list(OutputFormat))
    @pytest.mark.parametrize("curve", [
        RequiredRCurve((0.06, 0.09), (4, 6), ((0.8, 0.7), (0.75,))),  # a short row
        RequiredRCurve((0.06,), (4, 6), ((0.8,),)),  # a p without a row
    ])
    def test_ragged_curve_is_an_error_not_a_truncated_table(self, curve, fmt):
        with pytest.raises(ValueError, match="zip"):
            ReportDocument(curve=curve, fmt=fmt).render()

    @pytest.mark.parametrize("fmt, expected", [
        (OutputFormat.TABLE, """
            inputs
              seed  9
            simulation
              n     l     r     p    pattern   pop_srmr  mean_srmr_s  sd_srmr_s  reps
              150   0.40  0.16  6    constant  0.3919    0.3978       0.0151     25
              900   0.80  0.64  24   variable  0.1050    nan          nan        0
            """),
        (OutputFormat.CSV, """
            # seed=9
            n,l,r,p,pattern,population_srmr,mean_srmr_s,sd_srmr_s,replications_used
            150,0.4,0.16000000000000003,6,constant,0.39191835884530846,0.39784,0.015123,25
            900,0.8,0.6400000000000001,24,variable,0.105,nan,nan,0
            """),
        (OutputFormat.JSON, """
            {
              "inputs": {
                "seed": "9"
              },
              "cells": [
                {
                  "n": 150,
                  "l": 0.4,
                  "r": 0.16000000000000003,
                  "p": 6,
                  "pattern": "constant",
                  "population_srmr": 0.39191835884530846,
                  "mean_srmr_s": 0.39784,
                  "sd_srmr_s": 0.015123,
                  "replications_used": 25
                },
                {
                  "n": 900,
                  "l": 0.8,
                  "r": 0.6400000000000001,
                  "p": 24,
                  "pattern": "variable",
                  "population_srmr": 0.105,
                  "mean_srmr_s": null,
                  "sd_srmr_s": null,
                  "replications_used": 0
                }
              ]
            }
            """),
    ])
    def test_simulation_cells(self, fmt, expected):
        assert ReportDocument(**self.CELLS, fmt=fmt).render() == _text(expected)

    @pytest.mark.parametrize("fmt, expected", [
        (OutputFormat.TABLE, """
            fit
              unit_weighted  SRMR = 0.2500
              reflective     SRMR = 0.5000
              warning [unit_weighted]: smallest Cholesky pivot 1e-07, "near" singular
              warning [unit_weighted]: two\\nlines
              warning [reflective]: plain
            """),
        (OutputFormat.CSV, """
            record,model,i,j,value
            srmr,unit_weighted,,,0.25
            srmr,reflective,,,0.5
            warning,unit_weighted,,,"smallest Cholesky pivot 1e-07, ""near"" singular"
            warning,unit_weighted,,,"two
            lines"
            warning,reflective,,,plain
            """),
        (OutputFormat.JSON, """
            {
              "inputs": {},
              "fits": [
                {
                  "model": "unit_weighted",
                  "srmr": 0.25,
                  "warnings": [
                    "smallest Cholesky pivot 1e-07, \\"near\\" singular",
                    "two\\nlines"
                  ]
                },
                {
                  "model": "reflective",
                  "srmr": 0.5,
                  "warnings": [
                    "plain"
                  ]
                }
              ]
            }
            """),
    ])
    def test_warning_rows(self, fmt, expected):
        assert ReportDocument(**self.WARNINGS, fmt=fmt).render() == _text(expected)

    @pytest.mark.parametrize("fmt", [OutputFormat.TABLE, OutputFormat.CSV])
    def test_empty_document_is_one_newline(self, fmt):
        assert ReportDocument(fmt=fmt).render() == "\n"

    def test_csv_headers_are_the_ones_the_readme_documents(self):
        # The README names each CSV layout as one code span of comma-joined
        # column names; each must be the header line its renderer writes.
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        documented = set(re.findall(r"`([a-z_]+(?:,[a-z_]+){2,})`", readme))
        written = set()
        for sections in (self.WARNINGS, self.CURVE, self.CELLS):
            text = ReportDocument(**sections, fmt=OutputFormat.CSV).render()
            written.add(next(line for line in text.splitlines() if not line.startswith("#")))
        assert written == {
            "record,model,i,j,value",
            "p,srmr_level,required_r",
            "n,l,r,p,pattern,population_srmr,mean_srmr_s,sd_srmr_s,replications_used",
        }
        assert documented == written
