"""scorefit benchmark: drive ``scorefit.cli.main(argv)`` in-process and check every output.

Usage, from the repository root:

    python3 bench/run.py --workload sim-grid --seed 1 --seconds 20 --trace 0

One caller runs a closed loop: each CLI call starts when the previous one has
returned.  The workload's pass (a fixed list of calls, made from ``--seed``) is
repeated until ``--seconds`` of call time have been measured.  ``--trace 0``
prints the end-to-end metrics, ``--trace 1`` a separate traced run's per-layer
metrics.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# Half the set-up samples are taken before the measured passes and half after,
# so that their median spans the same stretch of machine time as the passes.
SETUP_SAMPLES = 8
# A run stops starting new passes after this much wall time, well inside 180 s.
WALL_LIMIT_S = 120.0

# Times the import and warm-up call, then the speed kernel right after them.
SETUP_CHILD = """\
import contextlib, io, sys, time
start = time.perf_counter()
sys.path.insert(0, {src!r})
from scorefit.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    status = main({argv!r})
seconds = time.perf_counter() - start
sys.path.insert(0, {bench!r})
from speed import SpeedProbe
probe = SpeedProbe()
for _ in range(2):
    probe.sample()
print(repr(seconds), status, repr(probe.factor()))
"""


class _Sink:
    """Stands in for stdout/stderr and keeps what the CLI writes."""

    def __init__(self):
        self.parts = []

    def write(self, text):
        self.parts.append(text)
        return len(text)

    def flush(self):
        pass

    def text(self):
        return "".join(self.parts)


def _pin_blas_threads() -> None:
    # One BLAS thread: the caller is single-threaded, and a second BLAS thread
    # that spins while the other CPU is busy makes the large fit-check calls
    # swing by a third between runs of the same code.  Set before numpy loads;
    # the set-up children inherit it.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def _blas_threads() -> str:
    """Thread count in effect, read from the OpenBLAS library numpy has loaded."""
    import ctypes

    with open("/proc/self/maps") as maps:
        libs = sorted(set(re.findall(r"(/\S*openblas\S*\.so\S*)", maps.read())))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return str(fn())
    return f"unknown (OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS')})"


def machine_info(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next((line.split(":", 1)[1].strip() for line in info
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": _blas_threads(),
        "cpu": cpu,
        "seed": seed,
    }


def measure_setup(warmup: list[str], count: int) -> list[tuple[float, float]]:
    """Import scorefit and make the warm-up call in `count` fresh interpreters.

    Returns (seconds, speed factor) for each, the factor measured in the same
    interpreter just after the timed part.
    """
    code = SETUP_CHILD.format(src=str(SRC), bench=str(Path(__file__).resolve().parent),
                              argv=warmup)
    samples = []
    for _ in range(count):
        child = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                               text=True, timeout=60, check=True)
        seconds, status, speed = child.stdout.split()
        if status != "0":
            raise RuntimeError(f"warm-up call {warmup} exited {status}: {child.stderr}")
        samples.append((float(seconds), float(speed)))
    return samples


def _quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class Runner:
    """Runs ops through the CLI, checks them and keeps the tallies."""

    def __init__(self, cli_main):
        self.main = cli_main
        self.tracer = None
        self.first = {}  # op key -> (output digest, ops failed, reason)
        self.first_outputs = {}  # op key -> output text, for small outputs
        self.attempted = 0
        self.failed = 0
        self.unexpected = 0
        self.failures = Counter()  # input class -> ops failed
        self.examples = {}  # input class -> first failure reason
        self.latencies = []
        self.probe = None  # a SpeedProbe while the end-to-end window runs

    def call(self, argv):
        from workloads import Result

        out, err = _Sink(), _Sink()
        rc, exc = None, None
        start = time.perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                if self.tracer is None:
                    rc = self.main(argv)
                else:
                    rc = self.tracer.span("cli.main", self.main, (argv,))
        except SystemExit as stop:
            rc = stop.code
        except Exception as error:  # anything but a clean exit status is a failed op
            exc = error
        return Result(time.perf_counter() - start, rc, out.text(), err.text(), exc)

    def _account(self, op, result):
        digest = hashlib.sha256(
            f"{result.rc}\0{type(result.exc).__name__}\0{result.err}\0".encode()
            + result.out.encode()
        ).hexdigest()
        reference = self.first.get(op.same_as or op.key)
        if reference is None:
            failed, reason = op.check(result)
            self.first[op.key] = (digest, failed, reason)
            if len(result.out) < 1_000_000:
                self.first_outputs[op.key] = result.out
        elif digest == reference[0]:
            failed, reason = reference[1], reference[2]
        else:
            failed, reason = op.weight, f"{op.key}: output differs from the first run of {op.same_as or op.key}"
        self.attempted += op.weight
        if failed:
            self.failed += failed
            label = op.known or "unexpected"
            self.failures[label] += failed
            self.examples.setdefault(label, reason.split(";")[0][:200])
            if op.known is None:
                self.unexpected += failed

    def run_op(self, op, timed=True):
        """Run and account one op; return its call time in seconds.

        The output is dropped on return, so a large one is not held while the
        next call runs.
        """
        result = self.call(op.argv)
        if timed:
            self.latencies.append(result.seconds)
        self._account(op, result)
        if self.probe is not None:
            self.probe.after(result.seconds)
        return result.seconds

    def run_pass(self, ops, timed=True):
        """Run every op once; return the summed call time in seconds."""
        return sum(self.run_op(op, timed) for op in ops)

    def run_window(self, ops, seconds, min_calls, deadline):
        """Repeat the pass until `seconds` of call time and `min_calls` calls are measured."""
        pass_times = []
        calls = 0
        while not pass_times or ((sum(pass_times) < seconds or calls < min_calls)
                                 and time.monotonic() < deadline):
            pass_times.append(self.run_pass(ops))
            calls += len(ops)
        return pass_times


def end_to_end(runner, workload, ops, args, deadline):
    from speed import SpeedProbe

    runner.probe = SpeedProbe()
    try:
        pass_times = runner.run_window(ops, args.seconds, workload.min_calls, deadline)
    finally:
        probe, runner.probe = runner.probe, None
    for op in workload.extra_ops():
        runner.run_op(op, timed=False)
    timed_ops = sum(op.weight for op in ops) * len(pass_times)
    latencies = runner.latencies
    p95 = _quantile(latencies, 0.95)
    # Times measured on the machine as it ran, before the speed adjustment.
    raw = {
        # The mean, not the median: when the machine's speed changes partway
        # through a run, the median pass jumps between fast and slow passes.
        "wall_s": sum(pass_times) / len(pass_times),
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_p95_ms": p95 * 1e3,
    }
    speed = probe.factor()
    info = {
        "passes": len(pass_times),
        "calls": len(latencies),
        "calls_beyond_p95": sum(1 for v in latencies if v > p95),
        "speed_factor": round(speed, 4),
        "speed_samples": len(probe.samples),
        **{f"raw_{name}": round(value, 6) for name, value in raw.items()},
    }
    metrics = {
        "wall_s": (raw["wall_s"] / speed, "s"),
        "ops_per_s": (timed_ops * speed / sum(pass_times), "1/s"),
        "latency_p50_ms": (raw["latency_p50_ms"] / speed, "ms"),
        "latency_p95_ms": (raw["latency_p95_ms"] / speed, "ms"),
        "ok_frac": (1.0 - runner.failed / runner.attempted, "frac"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return metrics, info


def per_layer(runner, workload, ops, args, deadline):
    from spans import Tracer

    # One full pass checks every op first; on sim-grid the traced pass is built
    # from its output.  The --workers nproc pass follows it at once, so that the
    # speed-up compares two passes made close together.
    full_s = runner.run_pass(ops, timed=False)
    speedup = 0.0
    for op in workload.extra_ops():
        speedup = full_s / runner.run_op(op, timed=False)
    # The same op list runs untraced and traced, alternately, so that the
    # overhead compares like with like and drift in machine speed does not
    # show up as tracing overhead.
    traced_ops = workload.trace_ops(ops, runner.first_outputs)
    untraced, traced = [], []
    tracer = Tracer()
    while not traced or (sum(untraced) + sum(traced) < args.seconds
                         and time.monotonic() < deadline):
        untraced.append(runner.run_pass(traced_ops, timed=False))
        runner.tracer = tracer
        tracer.install()
        try:
            traced.append(runner.run_pass(traced_ops, timed=False))
        finally:
            tracer.uninstall()
            runner.tracer = None
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.csv"
    tracer.write(spans_path)

    k = len(traced)
    self_s = lambda *names: sum(tracer.self_s[n] for n in names) / k  # noqa: E731
    calls = lambda name: tracer.calls[name] / k  # noqa: E731
    cells = tracer.durations["simulation.run_simulation"] or [0.0]
    solves = tracer.calls["fit.solve_r_for_srmr"] + tracer.calls["fit.min_p_for_srmr"]
    parse = ("fileio.parse_matrix", "fileio.parse_loadings")
    parse_s = self_s(*parse)
    render_s = self_s("report.render")
    stats = getattr(workload, "stats", {})
    metrics = {
        "simulation.draw_s": (self_s("simulation.sample_correlation"), "s"),
        "simulation.draw_calls": (calls("simulation.sample_correlation"), "count"),
        "simulation.self_s": (self_s("simulation.run_simulation"), "s"),
        "simulation.cell_p50_ms": (statistics.median(cells) * 1e3, "ms"),
        "simulation.cell_max_ms": (max(cells) * 1e3, "ms"),
        "simulation.reps_used_ratio": (
            stats["reps_used"] / stats["reps_attempted"] if stats.get("reps_attempted") else 0.0,
            "ratio"),
        "simulation.workers_speedup": (speedup, "ratio"),
        "scoring.implied_s": (self_s("scoring.score_model_implied_sigma"), "s"),
        "scoring.implied_calls": (calls("scoring.score_model_implied_sigma"), "count"),
        "scoring.fs_implied_s": (self_s("scoring.fs_implied_sigma"), "s"),
        "fit.srmr_s": (self_s("fit.srmr"), "s"),
        "fit.srmr_calls": (calls("fit.srmr"), "count"),
        "fit.solve_s": (self_s("fit.solve_r_for_srmr", "fit.min_p_for_srmr",
                               "fit.required_r_curve"), "s"),
        "fit.closed_form_evals_per_solve": (tracer.closed_form_evals / solves if solves else 0.0,
                                            "count"),
        "model.cholesky_s": (self_s("model.cholesky_lower"), "s"),
        "model.cholesky_calls": (calls("model.cholesky_lower"), "count"),
        "fileio.parse_s": (parse_s, "s"),
        "fileio.parse_bytes_per_s": (
            sum(tracer.bytes[n] for n in parse) / k / parse_s if parse_s else 0.0, "B/s"),
        "report.render_s": (render_s, "s"),
        "report.render_bytes_per_s": (
            tracer.bytes["report.render"] / k / render_s if render_s else 0.0, "B/s"),
        "cli.self_s": (self_s("cli.main"), "s"),
        "trace_overhead_frac": (statistics.median(traced) / statistics.median(untraced) - 1.0,
                                "frac"),
    }
    info = {"untraced_passes": len(untraced), "traced_passes": k, "spans": len(tracer.spans),
            "spans_file": str(spans_path.relative_to(ROOT))}
    return metrics, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "scorefit" / "__init__.py").is_file():
        print(f"bench: no scorefit sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    _pin_blas_threads()
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]()
    deadline = time.monotonic() + WALL_LIMIT_S

    setup_samples = [] if args.trace else measure_setup(workload.warmup, SETUP_SAMPLES // 2)
    import scorefit.cli

    if Path(scorefit.cli.__file__).resolve().parents[2] != ROOT:
        print(f"bench: imported scorefit from {scorefit.cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    machine = machine_info(args.seed)

    tmp_root = ROOT / ".bench_tmp"
    tmp_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=tmp_root))
    try:
        ops = workload.ops(args.seed, workdir)
        runner = Runner(scorefit.cli.main)
        runner.call(workload.warmup)
        if args.trace:
            metrics, info = per_layer(runner, workload, ops, args, deadline)
        else:
            metrics, info = end_to_end(runner, workload, ops, args, deadline)
            setup_samples += measure_setup(workload.warmup, SETUP_SAMPLES - len(setup_samples))
            info["raw_setup_s"] = round(statistics.median(s for s, _ in setup_samples), 6)
            setup_s = statistics.median(s / speed for s, speed in setup_samples)
            metrics = {"setup_s": (setup_s, "s"), **metrics}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"machine {json.dumps(machine)}")
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace} "
          + " ".join(f"{k} {v}" for k, v in info.items()))
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:.6g} {unit}")
    print(f"attempted {runner.attempted} failed {runner.failed} "
          f"(outside the known-defect classes: {runner.unexpected})")
    for label, count in sorted(runner.failures.items()):
        print(f"  failed {count}: [{label}] e.g. {runner.examples[label]}")
    print(json.dumps({
        "correct": runner.unexpected == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
