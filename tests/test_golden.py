"""Golden CLI outputs: each command in tests/golden/regen.py against its stored result.

Each command runs in-process and is compared by ``regen.mismatch``: bytes
where the numpy/BLAS/machine fingerprint matches the one stored with the
goldens, numbers to a tolerance elsewhere.  ``python tests/golden/regen.py``
rewrites the goldens; ``python tests/golden/replay.py`` checks them through
fresh processes.
"""

import json

import pytest
import regen
import replay

from conftest import no_json_constant


def test_every_golden_has_a_command():
    stored = {path.stem for path in regen.GOLDEN_DIR.glob("*.json")} - {regen.FINGERPRINT.stem}
    assert stored == set(regen.COMMANDS)


@pytest.mark.parametrize("name", sorted(regen.COMMANDS))
def test_golden(name):
    expected = regen.load(regen.GOLDEN_DIR / f"{name}.json")
    difference = regen.mismatch(regen.run(regen.COMMANDS[name]), expected)
    assert difference is None, f"{name}: {difference}, {regen.compare_mode()[1]}"


def test_mismatch_names_the_first_difference(monkeypatch):
    golden = regen.load(regen.GOLDEN_DIR / "fit-check-stai.table.json")
    assert regen.mismatch(golden, golden) is None
    changed = dict(golden, stdout=golden["stdout"].replace("0.1969", "0.1968"))
    assert regen.mismatch(changed, golden) == (
        "stdout line 8: got '  unit_weighted  SRMR = 0.1968\\n', "
        "want '  unit_weighted  SRMR = 0.1969\\n'"
    )
    warned = dict(golden, stderr="RuntimeWarning: overflow encountered in matmul\n")
    assert regen.mismatch(warned, golden) == (
        "stderr line 1: got 'RuntimeWarning: overflow encountered in matmul\\n', want None"
    )
    assert regen.mismatch(dict(golden, exit=1), golden) == "exit status 1, want 0"
    # Off the recorded fingerprint, numbers match to 1e-12 relative and text exactly.
    monkeypatch.setattr(regen, "compare_mode", lambda: (False, "token compare"))
    nearby = dict(golden, stdout=golden["stdout"].replace("0.1969", "0.19690000000001"))
    assert regen.mismatch(nearby, golden) is None
    assert regen.mismatch(changed, golden).startswith("stdout line 8: ")
    assert regen.mismatch(warned, golden).startswith("stderr line 1: ")


def test_largest_relative_move_reads_numbers_only():
    old = {"argv": ["x"], "exit": 0, "stdout": "mean 0.25 sd 2e-3\n", "stderr": ""}
    assert regen.largest_relative_move(old, old) == 0.0
    # A move reads as a fraction of the token-mode tolerance, 1e-12 relative here.
    moved = dict(old, stdout="mean 0.25 sd 0.0020000000000000005\n")
    ulp = 0.0020000000000000005 - 2e-3
    assert ulp > 0
    assert regen.largest_relative_move(old, moved) == ulp / (1e-12 * 0.0020000000000000005)
    # Near zero the 1e-15 floor holds: a 4.4e-16 move on a 3e-6 residual, as
    # between one BLAS thread and two, reads at most 1, and a 2e-15 move above 1,
    # just as _same_tokens accepts the one and rejects the other.
    residual = dict(old, stdout="residual 3e-06\n")
    for move, accepted in ((4.4e-16, True), (2e-15, False)):
        new = dict(residual, stdout=f"residual {3e-06 + move!r}\n")
        assert (regen.largest_relative_move(residual, new) <= 1) is accepted
        assert regen._same_tokens(new["stdout"], residual["stdout"]) is accepted
    for other in (dict(old, stdout="mean 0.25 SD 2e-3\n"), dict(old, exit=1),
                  dict(old, stderr="warning 1\n"), dict(old, stdout="mean 0.25\n")):
        assert regen.largest_relative_move(old, other) is None


@pytest.mark.parametrize("name", ["closed-form-evaluate-p-1", "fit-check-loading-1e200"])
def test_replay_runs_a_golden_in_a_fresh_process(name):
    # The children run with strict warnings, so any numpy warning on the
    # 1e200 loading's path would end in a traceback.
    expected = regen.load(regen.GOLDEN_DIR / f"{name}.json")
    assert regen.mismatch(replay.replay(regen.COMMANDS[name]), expected) is None


_JSON_REPORTS = sorted(
    name for name, argv in regen.COMMANDS.items()
    if ["--format", "json"] in (argv[i : i + 2] for i in range(len(argv)))
)


def test_every_report_has_a_json_golden():
    assert {f"{name}.json" for name in regen._REPORTS} <= set(_JSON_REPORTS)


@pytest.mark.parametrize("name", _JSON_REPORTS)
def test_json_golden_is_strict_json(name):
    # Strict readers take no NaN or Infinity.  test_golden ties each stored
    # text to what the command writes now, so checking the stored one suffices.
    golden = regen.load(regen.GOLDEN_DIR / f"{name}.json")
    if golden["exit"] == 0:
        assert isinstance(json.loads(golden["stdout"], parse_constant=no_json_constant), dict)
    else:
        assert golden["stdout"] == ""
