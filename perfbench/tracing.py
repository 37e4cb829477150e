"""Spans around calls into the package, recorded from outside it.

The tracer replaces public functions at the call sites the workloads use
(attributes of ``interodds.cli``, ``interodds.inference`` and the sweep's
call table) with wrappers that record one span per call: name, start,
end, parent span and operation id.  Spans stay in memory until the run
writes them out.  Nothing under ``src/`` changes.
"""

import contextlib
import os
from collections import Counter, defaultdict
from time import perf_counter

from interodds import cli, inference

from workloads import SWEEP


def _fit_counts(args, result):
    return {"iterations": result.iterations}


def _fit_logit_counts(args, result):
    data = args[0]
    # computed, not measured: the n x (2^p + q) float64 design matrix
    return {"iterations": result.iterations,
            "design_bytes": data.n * ((1 << data.p) + data.q) * 8}


def _load_counts(args, result):
    return {"bytes": os.path.getsize(args[0])}


def _bootstrap_counts(args, result):
    return {"attempted": result.n_boot, "failed": result.n_failed}


# (owner, attribute, span name, counts taken from a successful call)
CALL_SITES = [
    (cli, "run_analysis", "cli.run_analysis", None),
    (cli, "load_csv", "dataio.load_csv", _load_counts),
    (cli, "fit_logit", "logit.fit", _fit_logit_counts),
    (cli, "delta_ci", "inference.delta_ci", None),
    (cli, "bootstrap_ci", "inference.bootstrap_ci", _bootstrap_counts),
    (cli, "render_report", "cli.render", None),
    (inference, "fit_design", "inference.refit", _fit_counts),
    (inference, "measure", "measures.measure", None),
    (inference, "measure_parts", "measures.measure", None),
    (SWEEP, "simulate", "simulate.simulate", None),
    (SWEEP, "fit_logit", "logit.fit", _fit_logit_counts),
    (SWEEP, "delta_ci", "inference.delta_ci", None),
]


class Tracer:
    """In-memory span recorder; one instance per traced run."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, op id]
        self.counts = Counter()  # "<span name>.<count>" -> total
        self.op = None
        self._stack = []

    def wrap(self, name, fn, counts=None):
        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
                      self.op]
            self._stack.append(len(self.spans))
            self.spans.append(record)
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                self._stack.pop()
            if counts is not None:
                for key, value in counts(args, result).items():
                    self.counts[f"{name}.{key}"] += value
            return result

        return traced

    def run_op(self, op_id, op):
        """Call one operation under a root span named ``op``."""
        self.op = op_id
        return self.wrap("op", op)()

    @contextlib.contextmanager
    def installed(self):
        """Wrap every call site for the duration of the block."""
        originals = [(owner, attr, getattr(owner, attr))
                     for owner, attr, _, _ in CALL_SITES]
        try:
            for owner, attr, name, counts in CALL_SITES:
                setattr(owner, attr, self.wrap(name, getattr(owner, attr), counts))
            yield self
        finally:
            for owner, attr, fn in originals:
                setattr(owner, attr, fn)

    def self_times(self):
        """Each span's duration minus the durations of its child spans."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def summary(self):
        """Per span name: call count, inclusive seconds and self seconds."""
        calls = Counter()
        total = defaultdict(float)
        own = defaultdict(float)
        for (name, start, end, _, _), self_s in zip(self.spans, self.self_times()):
            calls[name] += 1
            total[name] += end - start
            own[name] += self_s
        return calls, total, own
