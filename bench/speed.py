"""Machine-speed probe: a fixed kernel timed between CLI calls.

The benchmark runs on shared virtual machines whose speed changes by up to
70% between minutes, as other tenants start and stop, so two runs of the same
code a few minutes apart differ more than any bound a regression check could
use.  The probe times a fixed kernel that runs no scorefit code, at regular
intervals of measured call time, and the end-to-end times are reported at the
kernel's reference speed: each measured time is multiplied by
``KERNEL_REF_S / mean kernel time`` of the same run.  A change to scorefit
cannot move the kernel, so it still shows in full; a slower machine slows both
and cancels out.
"""

from __future__ import annotations

import argparse
import json
import statistics
import time

import numpy as np

# Mean time of one kernel() call on a 2-vCPU Intel Xeon VM at its fastest;
# only a unit, so that adjusted times stay near measured ones.
KERNEL_REF_S = 0.020
# Call time measured between two kernel samples.
SAMPLE_EVERY_S = 0.5


def kernel(rng: np.random.Generator) -> None:
    """Fixed work in the mix scorefit's calls make: argparse, formatting, small numpy algebra."""
    for _ in range(20):
        parser = argparse.ArgumentParser(prog="kernel")
        commands = parser.add_subparsers(dest="command")
        for name in ("a", "b", "c"):
            command = commands.add_parser(name)
            for option in ("--x", "--y", "--z", "--w"):
                command.add_argument(option, type=float, default=1.0)
        args = parser.parse_args(["b", "--x", "0.5", "--z", "3"])
        values = {f"k{i}": i * args.x for i in range(200)}
        json.dumps(values)
        ",".join(f"{v:.6g}" for v in values.values())
    for _ in range(20):
        corr = np.corrcoef(rng.standard_normal((150, 12)), rowvar=False)
        np.linalg.cholesky(corr)
        np.linalg.eigvalsh(corr)


class SpeedProbe:
    """Times `kernel` once per `SAMPLE_EVERY_S` of call time reported to `after`."""

    def __init__(self):
        self.rng = np.random.default_rng(0)
        self.samples: list[float] = []
        self.pending = 0.0
        kernel(self.rng)  # warm-up: imports and first-call caches
        self.sample()

    def sample(self) -> None:
        start = time.perf_counter()
        kernel(self.rng)
        self.samples.append(time.perf_counter() - start)

    def after(self, call_seconds: float) -> None:
        """Account one call; a long call is followed by as many samples as it spans intervals."""
        self.pending += call_seconds
        while self.pending >= SAMPLE_EVERY_S:
            self.pending -= SAMPLE_EVERY_S
            self.sample()

    def factor(self) -> float:
        """Measured times divided by this give times at the reference speed."""
        return statistics.mean(self.samples) / KERNEL_REF_S
