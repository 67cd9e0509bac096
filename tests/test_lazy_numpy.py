"""scorefit loads numpy on first use: checks in fresh interpreters.

In this process numpy is already imported, so scorefit uses it as it is and
never takes the lazy path.  Each test here starts a new interpreter with
``src/`` first on ``sys.path``, runs golden commands through
``tests/golden/regen.py`` and reports back as JSON.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from scorefit import ParallelSpec, ValidationError
from scorefit.report import _num

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"

_spec = importlib.util.spec_from_file_location("golden_regen", GOLDEN / "regen.py")
regen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen)

# Runs the named golden commands, then reports each result and which numpy
# submodules the process has loaded.  {before} runs before scorefit is imported.
CHILD = """\
import importlib.util, json, sys
sys.path.insert(0, {src!r})
{before}
import scorefit
spec = importlib.util.spec_from_file_location("golden_regen", {regen!r})
regen = importlib.util.module_from_spec(spec)
spec.loader.exec_module(regen)
results = {{name: regen.run(regen.COMMANDS[name]) for name in {names!r}}}
loaded = sorted(name for name in sys.modules if name.startswith("numpy."))
print(json.dumps({{"results": results, "numpy_submodules": loaded}}))
"""

CLOSED_FORM = sorted(name for name in regen.COMMANDS if name.startswith("closed-form-"))


def _child(names, before=""):
    code = CHILD.format(
        src=str(ROOT / "src"), regen=str(GOLDEN / "regen.py"), names=names, before=before
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=60
    )
    return json.loads(done.stdout)


def _golden(name):
    return regen.load(GOLDEN / f"{name}.json")


def test_closed_form_writes_its_goldens_without_loading_numpy():
    # Every mode, every format and every error: the closed form is math only,
    # so these goldens are the same bytes on any machine.
    assert {"closed-form-evaluate.csv", "closed-form-curve.json", "closed-form-no-mode"} <= set(
        CLOSED_FORM
    )
    report = _child(CLOSED_FORM)
    for name in CLOSED_FORM:
        assert report["results"][name] == _golden(name), name
    assert report["numpy_submodules"] == []


@pytest.mark.parametrize("name", ["fit-check-stai-reflective-residuals.csv", "simulate-reordered-grid.csv"])
def test_numpy_commands_write_their_goldens_after_a_lazy_import(name):
    report = _child([name])
    assert report["numpy_submodules"]  # numpy did load, on first use
    # The goldens' last bits depend on numpy and the BLAS; the run in this
    # process, which tests/test_golden.py checks against them, does not.
    assert report["results"][name] == regen.run(regen.COMMANDS[name])
    golden = _golden(name)
    if json.loads(regen.FINGERPRINT.read_text(encoding="utf-8")) == regen.fingerprint():
        assert report["results"][name] == golden


def test_a_later_numpy_import_gives_the_loaded_module():
    code = f"""\
import sys
sys.path.insert(0, {str(ROOT / "src")!r})
import scorefit._numpy
lazy = scorefit._numpy.np
assert sys.modules["numpy"] is lazy
assert "numpy._core" not in sys.modules
import numpy
assert numpy is lazy
assert "numpy._core" in sys.modules
assert numpy.arange(4).sum() == 6
assert isinstance(numpy.int64(3), numpy.integer)
"""
    subprocess.run([sys.executable, "-c", code], check=True, timeout=60)


@pytest.mark.parametrize("how", ["blocked", "no site-packages"])
def test_missing_numpy_fails_the_import(how):
    code = f"""\
import sys
sys.path.insert(0, {str(ROOT / "src")!r})
if {how == "blocked"!r}:
    sys.modules["numpy"] = None
try:
    import numpy
except ModuleNotFoundError:
    pass
else:
    sys.exit("numpy is importable")
try:
    import scorefit
except ModuleNotFoundError as exc:
    assert exc.name == "numpy", exc.name
    assert "numpy" in str(exc), exc
else:
    sys.exit("scorefit imported without numpy")
"""
    flags = ["-S"] if how == "no site-packages" else []
    done = subprocess.run([sys.executable, *flags, "-c", code], capture_output=True, text=True)
    if done.returncode and "numpy is importable" in done.stderr:
        pytest.skip("numpy is importable without site-packages here")
    assert done.returncode == 0, done.stderr


class TestIntegerChecksWithoutNumpy:
    # numpy registers its integer types as numbers.Integral, which the closed
    # form's checks test for.
    def test_parallel_spec_takes_a_numpy_integer(self):
        spec = ParallelSpec(0.5, np.int64(10))
        assert spec.p == 10 and type(spec.p) is int

    def test_parallel_spec_rejects_a_bool(self):
        with pytest.raises(ValidationError, match="integer p >= 2"):
            ParallelSpec(0.5, True)

    def test_num_keeps_a_numpy_integer_an_integer(self):
        assert _num(np.int64(3)) == "3"
        assert _num(np.uint8(7)) == "7"
        assert _num(np.float64(3.0)) == "3.0"
        assert _num(True) == "1.0"
