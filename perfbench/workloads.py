"""Workload definitions: seeded inputs, one operation each, and references.

A workload run folds its seed onto one of ``INPUT_SETS`` stored input sets
(``input_set = seed % INPUT_SETS``), so every seed has a stored reference
made from the program at the commit that introduced the benchmark.  The
same seed always gives the same inputs.

Every function the operations call is looked up on a module object at call
time (``cli``, ``inference`` or the ``SWEEP`` namespace below), so the
tracer can wrap those call sites without touching the package.
"""

import contextlib
import io
import json
import types
from itertools import combinations
from pathlib import Path

import numpy as np

from interodds import cli
from interodds.dataio import write_csv
from interodds.errors import InterOddsError
from interodds.inference import delta_ci
from interodds.logit import fit_logit
from interodds.measures import MeasureSpec, StructuralParams
from interodds.patterns import pattern_index
from interodds.simulate import ConfounderModel, SimDesign, simulate, true_measure

INPUT_SETS = 4  # distinct seeded input sets, each with a stored reference
SWEEP_POOL = 4  # Monte Carlo replicates per input set, cycled by the ops
REL_TOL = 1e-6  # unit-floor relative error, as in selfcheck.rel_err

# Call sites of the sweep operation; the tracer replaces these attributes.
SWEEP = types.SimpleNamespace(
    simulate=simulate, fit_logit=fit_logit, delta_ci=delta_ci
)

# Input sizes.  "toy" keeps the same shapes at a size the self-tests can
# afford; the benchmark proper always runs "full".
SIZES = {
    "full": {"delta_n": 50_000, "boot_n": 5_000, "sweep_n": 2_000},
    "toy": {"delta_n": 1_500, "boot_n": 400, "sweep_n": 1_000},
}


def _psi(p, main, two_way):
    """Log odds ratios: ``main`` per factor, ``two_way`` per pair, 0 above."""
    sizes = [bin(int(m)).count("1") for m in pattern_index(p).masks]
    table = {1: np.log(main), 2: np.log(two_way)}
    return StructuralParams(np.array([table.get(k, 0.0) for k in sizes]), p)


def delta_design(input_set, size):
    n = SIZES[size]["delta_n"]
    return SimDesign(
        p=3, q=2, psi_true=_psi(3, 1.8, 1.3),
        kappa_true=np.array([-2.0, 0.3, -0.2]),
        exposure_probs=np.array([0.40, 0.35, 0.30]),
        n0=n, n1=n, seed=10_000 + input_set,
        z_models=(ConfounderModel.normal(), ConfounderModel.normal()),
    )


def boot_design(input_set, size):
    n = SIZES[size]["boot_n"]
    return SimDesign(
        p=3, q=1, psi_true=_psi(3, 1.8, 1.3),
        kappa_true=np.array([-2.0, 0.4]),
        exposure_probs=np.array([0.40, 0.35, 0.30]),
        n0=n, n1=n, seed=20_000 + input_set,
        z_models=(ConfounderModel.discrete([0.0, 1.0], [0.5, 0.5]),),
    )


def sweep_design(input_set, replicate, size):
    n = SIZES[size]["sweep_n"]
    return SimDesign(
        p=5, q=1, psi_true=_psi(5, 1.5, 1.2),
        kappa_true=np.array([-2.5, 0.3]),
        exposure_probs=np.full(5, 0.45),
        n0=n, n1=n, seed=30_000 + input_set * SWEEP_POOL + replicate,
        z_models=(ConfounderModel.normal(),),
    )


def sweep_specs(p):
    """Every valid (kind, order, held set, held level) spec for ``p`` factors."""
    specs = []
    for k in range(p):
        for held in combinations(range(p), k):
            for levels in range(1 << k):
                fixed = {j: (levels >> i) & 1 for i, j in enumerate(held)}
                nj = p - k
                specs.append(MeasureSpec(p=p, kind="OR", fixed=fixed))
                for kind, first in (("EOR", 1), ("AP", 1), ("SI", 2)):
                    specs.extend(
                        MeasureSpec(p=p, kind=kind, order=order, fixed=fixed)
                        for order in range(first, nj + 1)
                    )
    return specs


class AnalyzeWorkload:
    """One in-process ``interodds analyze`` call on a generated CSV."""

    def __init__(self, name, design, covariates, measures, ci_args):
        self.name = name
        self.design = design
        self.covariates = covariates
        self.measures = measures
        self.ci_args = ci_args
        self.intervals_per_op = len(measures.split(","))

    def input_files(self, input_set, size):
        return [f"{self.name}-{size}-{input_set}.csv"]

    def generate(self, input_set, size, work_dir):
        """Write the CSV (runs in its own process, never the measured one)."""
        path = Path(work_dir) / self.input_files(input_set, size)[0]
        tmp = path.with_suffix(".tmp")
        write_csv(simulate(self.design(input_set, size)), tmp)
        tmp.replace(path)

    def operations(self, input_set, size, work_dir):
        path = Path(work_dir) / self.input_files(input_set, size)[0]
        argv = [
            "analyze", "--data", str(path), "--outcome", "y",
            "--risk-factors", "v1,v2,v3", "--covariates", self.covariates,
            "--measure", self.measures, *self.ci_args, "--format", "json",
        ]

        def op():
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(argv)
            return {"exit": code, "report": json.loads(out.getvalue())}

        return [op]

    def save_reference(self, outputs, path):
        Path(path).write_text(json.dumps(outputs, indent=1))

    def load_reference(self, path):
        return json.loads(Path(path).read_text())

    def reference_file(self):
        return f"{self.name}.json"

    @staticmethod
    def matches(ref, out):
        return _same(ref, out)


def _close(x, y):
    return abs(x - y) <= REL_TOL * max(1.0, abs(x), abs(y))


def _same(ref, out):
    """Reference values agree with the output; the output may add keys."""
    if isinstance(ref, dict):
        return isinstance(out, dict) and all(
            k in out and _same(v, out[k]) for k, v in ref.items()
        )
    if isinstance(ref, list):
        return (isinstance(out, list) and len(ref) == len(out)
                and all(_same(a, b) for a, b in zip(ref, out)))
    if isinstance(ref, float) or (
        isinstance(ref, int) and not isinstance(ref, bool)
    ):
        return (isinstance(out, (int, float)) and not isinstance(out, bool)
                and _close(ref, out))
    return ref == out and type(ref) is type(out)


class SweepWorkload:
    """One Monte Carlo replicate of the p=5 delta-interval measure sweep."""

    name = "mc_sweep_p5"

    def __init__(self):
        self.specs = sweep_specs(5)
        self.intervals_per_op = len(self.specs)

    def input_files(self, input_set, size):
        return []

    def generate(self, input_set, size, work_dir):
        pass

    def operations(self, input_set, size, work_dir):
        designs = [sweep_design(input_set, r, size) for r in range(SWEEP_POOL)]
        # the truth depends only on psi_true, shared by every replicate
        truth = np.full(len(self.specs), np.nan)
        for i, spec in enumerate(self.specs):
            try:
                truth[i] = true_measure(designs[0], spec)
            except InterOddsError:
                pass
        return [self._operation(design, truth) for design in designs]

    def _operation(self, design, truth):
        specs = self.specs

        def op():
            fit = SWEEP.fit_logit(SWEEP.simulate(design))
            values = np.full((len(specs), 3), np.nan)
            errors = [""] * len(specs)
            for i, spec in enumerate(specs):
                try:
                    rep = SWEEP.delta_ci(fit, spec)
                except InterOddsError as exc:
                    errors[i] = type(exc).__name__
                    continue
                values[i] = rep.point, rep.ci_low, rep.ci_high
            covered = int(np.sum((values[:, 1] <= truth) & (truth <= values[:, 2])))
            return {"values": values, "errors": errors, "covered": covered}

        return op

    def reference_file(self):
        return f"{self.name}.npz"

    def save_reference(self, outputs, path):
        flat = [o for pool in outputs for o in pool]
        kinds = sorted({e for o in flat for e in o["errors"]})
        shape = (len(outputs), len(outputs[0]))
        np.savez_compressed(
            path,
            values=np.stack([o["values"] for o in flat]).reshape(shape + (-1, 3)),
            errors=np.array([[kinds.index(e) for e in o["errors"]]
                             for o in flat], dtype=np.int8).reshape(shape + (-1,)),
            kinds=np.array(kinds),
            covered=np.array([o["covered"] for o in flat]).reshape(shape),
        )

    def load_reference(self, path):
        with np.load(path, allow_pickle=False) as f:
            kinds = [str(k) for k in f["kinds"]]
            values, errors, covered = f["values"], f["errors"], f["covered"]
        return [
            [{"values": values[s, r],
              "errors": [kinds[k] for k in errors[s, r]],
              "covered": int(covered[s, r])}
             for r in range(covered.shape[1])]
            for s in range(covered.shape[0])
        ]

    @staticmethod
    def matches(ref, out):
        a, b = ref["values"], out["values"]
        if a.shape != b.shape:
            return False
        ok = np.isfinite(a)
        if not np.array_equal(a[~ok], b[~ok], equal_nan=True):
            return False
        floor = REL_TOL * np.maximum(1.0, np.maximum(abs(a[ok]), abs(b[ok])))
        return (bool(np.all(abs(a[ok] - b[ok]) <= floor))
                and ref["errors"] == out["errors"]
                and ref["covered"] == out["covered"])


WORKLOADS = {
    w.name: w
    for w in (
        AnalyzeWorkload(
            "analyze_delta_csv", delta_design, "z1,z2", "OR,EOR:2,AP:2,SI:2",
            ["--ci", "delta"],
        ),
        AnalyzeWorkload(
            "analyze_boot_csv", boot_design, "z1", "EOR:2,AP:2,SI:2",
            ["--ci", "boot", "--n-boot", "200"],
        ),
        SweepWorkload(),
    )
}
