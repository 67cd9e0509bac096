"""Metamorphic properties of ``fit-check``, run through ``main``.

Each property runs the CLI on two related inputs and checks the relation the
model algebra says must hold between the two reports.
"""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from scorefit import CorrelationMatrix, write_matrix
from scorefit.cli import main


def _fit_check(folder: Path, sigma: np.ndarray, loadings: np.ndarray) -> dict:
    """The three models' SRMR and residuals, by model, from one JSON report."""
    write_matrix(folder / "matrix.txt", CorrelationMatrix(sigma))
    (folder / "loadings.txt").write_text("".join(f"{v!r}\n" for v in loadings.tolist()))
    argv = [
        "fit-check", "--matrix", str(folder / "matrix.txt"), "--loadings",
        str(folder / "loadings.txt"), "--reflective", "--residuals", "--format", "json",
    ]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert main(argv) == 0
    fits = json.loads(stdout.getvalue())["fits"]
    return {fit["model"]: (fit["srmr"], np.array(fit["residuals"])) for fit in fits}


@st.composite
def _one_factor_with_noise(draw):
    """A correlation matrix near a one-factor population, its loadings and a permutation."""
    p = draw(st.integers(2, 8))
    lam = np.array(draw(st.lists(st.floats(0.1, 0.9), min_size=p, max_size=p)))
    noise = np.zeros((p, p))
    noise[np.tril_indices(p, -1)] = draw(
        st.lists(st.floats(-0.15, 0.15), min_size=p * (p - 1) // 2, max_size=p * (p - 1) // 2)
    )
    sigma = np.outer(lam, lam) + noise + noise.T
    np.fill_diagonal(sigma, 1.0)
    assume(np.linalg.eigvalsh(sigma)[0] >= 0.05)
    return sigma, lam, np.array(draw(st.permutations(range(p))))


@settings(derandomize=True, max_examples=50, deadline=None)
@given(case=_one_factor_with_noise())
def test_permuting_indicators_permutes_every_report(case):
    # P Sigma P' with P lambda is the same data with the items reordered: every
    # model's SRMR is unchanged and its residual matrix is P R P'.
    sigma, lam, perm = case
    with tempfile.TemporaryDirectory() as folder:
        before = _fit_check(Path(folder), sigma, lam)
        after = _fit_check(Path(folder), sigma[np.ix_(perm, perm)], lam[perm])
    assert list(after) == ["unit_weighted", "factor_score", "reflective"]
    for model, (value, residuals) in before.items():
        permuted_value, permuted_residuals = after[model]
        assert math.isclose(permuted_value, value, rel_tol=1e-12, abs_tol=1e-15), model
        np.testing.assert_allclose(
            permuted_residuals, residuals[np.ix_(perm, perm)], rtol=1e-12, atol=1e-14, err_msg=model
        )
