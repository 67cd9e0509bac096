"""Replay every golden through a fresh ``python -m scorefit.cli`` process.

``tests/test_golden.py`` runs each command of ``regen.COMMANDS`` in-process.
This script runs each one as its own interpreter, from ``inputs/`` and with
``src/`` first on the child's path, as a user's shell would: it sees what an
in-process call cannot, such as a warning that ends in a traceback under
``PYTHONWARNINGS=error::RuntimeWarning,error::DeprecationWarning``, which
every child runs with, so a deprecated numpy call fails its golden too.  Each
result is compared with its golden by ``regen.mismatch``, as in Tier-1.

Usage, from anywhere::

    python tests/golden/replay.py

prints one line for each golden that does not match, naming it and its first
difference, and exits 1 if there was one.  It takes no options.
"""

from __future__ import annotations

import os
import subprocess
import sys

import regen


def replay(argv: list[str]) -> dict:
    """Run one command in a new interpreter from ``inputs/``; its argv, exit status and output."""
    env = dict(
        os.environ,
        PYTHONWARNINGS="error::RuntimeWarning,error::DeprecationWarning",
        PYTHONIOENCODING="utf-8",
    )
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(regen.SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "scorefit.cli", *argv],
        cwd=regen.INPUTS,
        env=env,
        stdin=subprocess.DEVNULL,
        capture_output=True,
        timeout=120,
    )
    return {
        "argv": argv,
        "exit": done.returncode,
        "stdout": done.stdout.decode("utf-8", "surrogateescape"),
        "stderr": done.stderr.decode("utf-8", "surrogateescape"),
    }


def main() -> int:
    failed = 0
    for name, argv in regen.COMMANDS.items():
        expected = regen.load(regen.GOLDEN_DIR / f"{name}.json")
        difference = regen.mismatch(replay(argv), expected)
        if difference is not None:
            print(f"{name}: {difference}")
            failed += 1
    total = len(regen.COMMANDS)
    print(f"{total - failed} of {total} goldens match in a fresh process, {regen.compare_mode()[1]}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
