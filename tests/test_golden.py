"""Golden CLI outputs: each command in tests/golden/regen.py against its stored result.

Where the numpy/BLAS/machine fingerprint matches the one stored with the
goldens, exit status, stdout and stderr must match byte for byte.  Elsewhere a
last-bit BLAS difference is allowed: the texts between numbers must match
exactly, and each number to 1e-12 relative (1e-15 absolute, for residuals that
are rounding noise around zero).  ``python tests/golden/regen.py`` rewrites the
goldens.
"""

import importlib.util
import json
import math
import re
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "golden_regen", Path(__file__).parent / "golden" / "regen.py"
)
regen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen)

_RECORDED = json.loads(regen.FINGERPRINT.read_text(encoding="utf-8"))
_BYTE_MODE = _RECORDED == regen.fingerprint()
_NUMBER = re.compile(r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)")


def _same_tokens(actual: str, expected: str) -> bool:
    got, want = _NUMBER.split(actual), _NUMBER.split(expected)
    return (
        len(got) == len(want)
        and got[0::2] == want[0::2]
        and all(
            math.isclose(float(a), float(b), rel_tol=1e-12, abs_tol=1e-15)
            for a, b in zip(got[1::2], want[1::2])
        )
    )


def _first_difference(actual: str, expected: str) -> str:
    for lineno, (got, want) in enumerate(zip(actual.splitlines(), expected.splitlines()), 1):
        if not _same_tokens(got, want):
            return f"line {lineno}: got {got!r}, want {want!r}"
    return f"got {len(actual.splitlines())} lines, want {len(expected.splitlines())}"


def test_every_golden_has_a_command():
    stored = {path.stem for path in regen.GOLDEN_DIR.glob("*.json")} - {regen.FINGERPRINT.stem}
    assert stored == set(regen.COMMANDS)


@pytest.mark.parametrize("name", sorted(regen.COMMANDS))
def test_golden(name):
    expected = regen.load(regen.GOLDEN_DIR / f"{name}.json")
    assert expected["argv"] == regen.COMMANDS[name], f"{name}: rerun tests/golden/regen.py"
    actual = regen.run(regen.COMMANDS[name])
    if _BYTE_MODE:
        assert actual == expected, f"{name}: byte compare (fingerprint {_RECORDED} matches)"
        return
    mode = f"token compare (fingerprint {regen.fingerprint()} is not the recorded {_RECORDED})"
    assert actual["exit"] == expected["exit"], f"{name}: exit status, {mode}"
    for stream in ("stdout", "stderr"):
        assert _same_tokens(actual[stream], expected[stream]), (
            f"{name}: {stream} {_first_difference(actual[stream], expected[stream])}, {mode}"
        )


_JSON_REPORTS = sorted(
    name for name, argv in regen.COMMANDS.items()
    if ["--format", "json"] in (argv[i : i + 2] for i in range(len(argv)))
)


def _no_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_every_report_has_a_json_golden():
    assert {f"{name}.json" for name in regen._REPORTS} <= set(_JSON_REPORTS)


@pytest.mark.parametrize("name", _JSON_REPORTS)
def test_json_golden_is_strict_json(name):
    # Strict readers take no NaN or Infinity.  test_golden ties each stored
    # text to what the command writes now, so checking the stored one suffices.
    golden = regen.load(regen.GOLDEN_DIR / f"{name}.json")
    if golden["exit"] == 0:
        assert isinstance(json.loads(golden["stdout"], parse_constant=_no_constant), dict)
    else:
        assert golden["stdout"] == ""
