"""Self-tests of the benchmark at toy size.

Run from the repository root with ``python -m pytest perfbench``.
"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

from workloads import INPUT_SETS, WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 5


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=300,
    )


@pytest.fixture(scope="module")
def toy(tmp_path_factory):
    """Work dir holding toy inputs and toy references made by this code."""
    work = tmp_path_factory.mktemp("toy")
    done = bench("--make-reference", "--size", "toy", "--work-dir", str(work),
                 "--reference-dir", str(work / "ref"))
    assert done.returncode == 0, done.stderr
    return work


def run_toy(toy, workload, trace, ref_dir=None):
    done = bench("--workload", workload, "--seed", str(SEED), "--seconds", "1",
                 "--trace", str(trace), "--size", "toy", "--work-dir", str(toy),
                 "--reference-dir", str(ref_dir or toy / "ref"))
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return done, result


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(toy, workload):
    assert workload in {w["name"] for w in SPEC["workloads"]}
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        done, result = run_toy(toy, workload, trace)
        assert done.returncode == 0, done.stderr
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in SPEC[key]}
        emitted = {k: v["unit"] for k, v in result["metrics"].items()}
        assert emitted == expected
        for name in expected:  # also printed by name with its unit
            assert f"\n{name}: " in done.stdout


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_span_self_times_fit_inside_each_op(toy, workload):
    done, _ = run_toy(toy, workload, 1)
    assert done.returncode == 0, done.stderr
    data = json.loads((toy / f"spans-{workload}-{SEED}.json").read_text())
    spans = data["spans"]
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    roots = {}
    inner = {}
    for (name, start, end, parent, op), self_s in zip(spans, own):
        assert self_s >= -1e-9
        if parent < 0:
            assert name == "op"
            roots[op] = end - start
        else:
            inner[op] = inner.get(op, 0.0) + self_s
    assert roots and set(inner) <= set(roots)
    for op, wall in roots.items():
        assert inner.get(op, 0.0) <= wall + 1e-9


def _perturb(x):
    """Move a reported number well past the 1e-6 unit-floor tolerance."""
    return x * (1 + 1e-4) + 1e-4


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_perturbed_reference_value_fails_the_op(toy, workload):
    w = WORKLOADS[workload]
    reference = w.load_reference(toy / "ref" / w.reference_file())
    entry = reference[SEED % INPUT_SETS][0]
    assert w.matches(entry, copy.deepcopy(entry))
    bad = copy.deepcopy(entry)
    if "report" in bad:
        measure = bad["report"]["measures"][0]
        measure["point"] = _perturb(measure["point"])
    else:
        row = bad["errors"].index("")
        bad["values"][row, 1] = _perturb(bad["values"][row, 1])
    assert not w.matches(entry, bad)


def test_perturbed_reference_file_fails_the_run(toy, tmp_path):
    w = WORKLOADS["analyze_delta_csv"]
    reference = w.load_reference(toy / "ref" / w.reference_file())
    for pool in reference:
        measure = pool[0]["report"]["measures"][0]
        measure["point"] = _perturb(measure["point"])
    w.save_reference(reference, tmp_path / w.reference_file())
    done, result = run_toy(toy, w.name, 0, ref_dir=tmp_path)
    assert done.returncode != 0
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    done = bench("--workload", "mc_sweep_p5", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
