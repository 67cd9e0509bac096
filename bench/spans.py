"""In-memory span recorder around scorefit's public functions.

Tracing wraps each function listed in ``TRACED`` in every ``scorefit.*`` module
namespace that holds it, so calls made through imported names are caught as
well as calls inside the defining module.  Nothing under ``src/`` is edited;
``uninstall`` puts the original objects back.  A span's self time is its
duration minus the durations of its direct child spans.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import Counter, defaultdict

# span name -> (defining module, attribute).  The span name is the layer
# (module) followed by the function.
TRACED = {
    "simulation.run_simulation": ("scorefit.simulation", "run_simulation"),
    "simulation.sample_correlation": ("scorefit.simulation", "sample_correlation"),
    "scoring.score_model_implied_sigma": ("scorefit.scoring", "score_model_implied_sigma"),
    "scoring.fs_implied_sigma": ("scorefit.scoring", "fs_implied_sigma"),
    "fit.srmr": ("scorefit.fit", "srmr"),
    "fit.solve_r_for_srmr": ("scorefit.fit", "solve_r_for_srmr"),
    "fit.min_p_for_srmr": ("scorefit.fit", "min_p_for_srmr"),
    "fit.required_r_curve": ("scorefit.fit", "required_r_curve"),
    "model.cholesky_lower": ("scorefit.model", "cholesky_lower"),
    "fileio.parse_matrix": ("scorefit.fileio", "parse_matrix"),
    "fileio.parse_loadings": ("scorefit.fileio", "parse_loadings"),
}
SOLVES = ("fit.solve_r_for_srmr", "fit.min_p_for_srmr")
RENDER_SPAN = "report.render"


def _file_bytes(source) -> int:
    return os.path.getsize(getattr(source, "path", source))


class Tracer:
    """Spans of one run, with per-name self time, call counts and bytes."""

    def __init__(self):
        self.spans = []  # (span id, parent id, call id, name, start ns, end ns)
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.bytes = Counter()
        self.durations = defaultdict(list)
        self.closed_form_evals = 0
        self._stack = []  # [span id, name, start ns, child ns]
        self._call_id = 0
        self._patched = []

    def span(self, name, fn, args=(), kwargs=None, nbytes=None):
        """Run fn(*args, **kwargs) inside a span; nbytes(args, result) sizes its I/O."""
        stack = self._stack
        if not stack:
            self._call_id += 1
        frame = [len(self.spans) + len(stack), name, time.perf_counter_ns(), 0]
        stack.append(frame)
        try:
            result = fn(*args, **(kwargs or {}))
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            duration = end - frame[2]
            self.self_s[name] += (duration - frame[3]) / 1e9
            self.calls[name] += 1
            self.durations[name].append(duration / 1e9)
            parent = stack[-1] if stack else None
            if parent is not None:
                parent[3] += duration
            self.spans.append(
                (frame[0], parent[0] if parent else -1, self._call_id, name, frame[2], end)
            )
        if nbytes is not None:
            self.bytes[name] += nbytes(args, result)
        return result

    def _traced(self, name, fn, nbytes=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.span(name, fn, args, kwargs, nbytes)

        return traced

    def _counted(self, fn):
        # Counts closed-form evaluations made by a solve; evaluating the closed
        # form directly from the CLI is not part of a solve.
        stack = self._stack

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if stack and stack[-1][1] in SOLVES:
                self.closed_form_evals += 1
            return fn(*args, **kwargs)

        return counted

    def install(self):
        import scorefit.report

        wrappers = {}
        for name, (module, attr) in TRACED.items():
            original = getattr(sys.modules[module], attr)
            nbytes = (lambda args, result: _file_bytes(args[0])) if name.startswith("fileio.") else None
            wrappers[id(original)] = (original, self._traced(name, original, nbytes))
        closed_form = sys.modules["scorefit.fit"].srmr_parallel_closed_form
        wrappers[id(closed_form)] = (closed_form, self._counted(closed_form))
        for module_name, module in list(sys.modules.items()):
            if module_name != "scorefit" and not module_name.startswith("scorefit."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    setattr(module, attr, wrappers[id(value)][1])
                    self._patched.append((module, attr, value))
        document = scorefit.report.ReportDocument
        render = document.render
        document.render = lambda doc: self.span(
            RENDER_SPAN, render, (doc,), nbytes=lambda args, text: len(text)
        )
        self._patched.append((document, "render", render))

    def uninstall(self):
        for owner, attr, value in reversed(self._patched):
            setattr(owner, attr, value)
        self._patched.clear()

    def write(self, path):
        """Write every recorded span as CSV, times in ns from the first span."""
        origin = min((s[4] for s in self.spans), default=0)
        with open(path, "w") as out:
            out.write("span,parent,call,name,start_ns,end_ns\n")
            for span_id, parent, call, name, start, end in self.spans:
                out.write(f"{span_id},{parent},{call},{name},{start - origin},{end - origin}\n")
