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
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from scorefit import CorrelationMatrix, write_matrix
from scorefit.cli import main


def _stdout(argv: list) -> str:
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert main(argv) == 0
    return stdout.getvalue()


def _fit_check(sigma: np.ndarray, loadings: np.ndarray | None) -> dict:
    """Each model's SRMR and residuals, by model, from one JSON report: all
    three models with loadings, the unit-weighted one without.

    Each input is written once, into a directory of its own: a directory whose
    files had been written twice took far longer to delete.
    """
    with tempfile.TemporaryDirectory() as name:
        folder = Path(name)
        write_matrix(folder / "matrix.txt", CorrelationMatrix(sigma))
        argv = ["fit-check", "--matrix", str(folder / "matrix.txt"), "--residuals", "--format", "json"]
        if loadings is not None:
            (folder / "loadings.txt").write_text("".join(f"{v!r}\n" for v in loadings.tolist()))
            argv += ["--loadings", str(folder / "loadings.txt"), "--reflective"]
        fits = json.loads(_stdout(argv))["fits"]
    models = ["unit_weighted", "factor_score", "reflective"][: 1 if loadings is None else 3]
    assert [fit["model"] for fit in fits] == models
    return {fit["model"]: (fit["srmr"], np.array(fit["residuals"])) for fit in fits}


def _assert_same_fit(after: dict, before: dict, residuals) -> None:
    """Every model's SRMR is unchanged, and its residual matrix in ``after`` is
    ``residuals`` of the one in ``before``."""
    for model, (value, before_residuals) in before.items():
        after_value, after_residuals = after[model]
        assert math.isclose(after_value, value, rel_tol=1e-12, abs_tol=1e-15), model
        np.testing.assert_allclose(
            after_residuals, residuals(before_residuals), rtol=1e-12, atol=1e-14, err_msg=model
        )


@st.composite
def _one_factor_with_noise(draw):
    """A correlation matrix near a one-factor population, its loadings, a
    permutation and the diagonal of a reflection (each entry +1 or -1)."""
    p = draw(st.integers(2, 8))
    lam = np.array(draw(st.lists(st.floats(0.1, 0.9), min_size=p, max_size=p)))
    noise = np.zeros((p, p))
    noise[np.tril_indices(p, -1)] = draw(
        st.lists(st.floats(-0.15, 0.15), min_size=p * (p - 1) // 2, max_size=p * (p - 1) // 2)
    )
    sigma = np.outer(lam, lam) + noise + noise.T
    np.fill_diagonal(sigma, 1.0)
    assume(np.linalg.eigvalsh(sigma)[0] >= 0.05)
    perm = np.array(draw(st.permutations(range(p))))
    signs = np.array(draw(st.lists(st.sampled_from([1.0, -1.0]), min_size=p, max_size=p)))
    return sigma, lam, perm, signs


@settings(derandomize=True, max_examples=50, deadline=None)
@given(case=_one_factor_with_noise())
def test_permuting_indicators_permutes_every_report(case):
    # P Sigma P' with P lambda is the same data with the items reordered: every
    # model's SRMR is unchanged and its residual matrix is P R P'.
    sigma, lam, perm, _ = case
    after = _fit_check(sigma[np.ix_(perm, perm)], lam[perm])
    _assert_same_fit(after, _fit_check(sigma, lam), lambda r: r[np.ix_(perm, perm)])


@settings(derandomize=True, max_examples=50, deadline=None)
@given(case=_one_factor_with_noise())
def test_reflecting_indicators_reflects_every_report(case):
    # D Sigma D with D lambda is the same data with some items reverse-keyed:
    # the unit-weighted scale reverses them too, so every model's SRMR is
    # unchanged and its residual matrix is D R D.
    sigma, lam, _, signs = case
    after = _fit_check(sigma * np.outer(signs, signs), lam * signs)
    _assert_same_fit(after, _fit_check(sigma, lam), lambda r: r * np.outer(signs, signs))


@settings(derandomize=True, max_examples=50, deadline=None)
@given(
    case=_one_factor_with_noise(),
    decades=st.lists(st.floats(-6.0, 6.0), min_size=8, max_size=8),
    with_loadings=st.booleans(),
)
def test_rescaling_indicators_leaves_every_report(case, decades, with_loadings):
    # D Sigma D for a positive diagonal D is the same data in other units:
    # fit-check scores it on its correlation rescaling, so every SRMR and every
    # residual is the unscaled matrix's.
    sigma, lam, _, _ = case
    scale = 10.0 ** np.array(decades[: len(lam)])
    loadings = lam if with_loadings else None
    after = _fit_check(sigma * np.outer(scale, scale), loadings)
    _assert_same_fit(after, _fit_check(sigma, loadings), lambda r: r)


@pytest.mark.parametrize("scale", [1.0, 1e100, 1e300])
def test_a_singular_matrix_is_noted_at_any_scale(tmp_path, scale):
    # All four entries equal: a correlation of 1 in any units.  The matrix is
    # rescaled before it is factored, so the rounding noise of a large scale
    # can neither clear the absolute pivot tolerance nor reach the SRMR.
    path = tmp_path / "matrix.txt"
    path.write_text(f"{scale!r}\n{scale!r} {scale!r}\n")
    lines = _stdout(["fit-check", "--matrix", str(path)]).splitlines()
    assert "  unit_weighted  SRMR = 0.0000" in lines
    assert lines[-1].startswith(f"  warning [unit_weighted]: {path}: matrix is not positive definite")
