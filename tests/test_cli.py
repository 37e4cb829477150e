import io
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import interodds.cli as cli
import interodds.inference as inference
from interodds.cli import main, measure_label, order_phrase, render_estimate
from interodds.measures import StructuralParams
from interodds.simulate import ConfounderModel, SimDesign, simulate
from interodds.dataio import write_csv


# ------------------------------------------------------------------ rendering


def test_render_estimate_golden_strings():
    assert render_estimate(3.60, 3.34, 3.87) == "3.60 (3.34,3.87)"
    assert render_estimate(-0.02, -0.29, 0.25) == "-0.02 (-0.29,0.25)"


def test_render_estimate_round_half_even():
    assert render_estimate(0.125, 0.115, 0.135) == "0.12 (0.12,0.14)"


def test_order_phrases():
    assert order_phrase("AP", 1, 3) == "joint effects"
    assert order_phrase("AP", 1, 1) == "marginal effect"
    assert order_phrase("AP", 2, 3) == "2nd & higher order interaction"
    assert order_phrase("AP", 3, 3) == "highest order interaction"
    assert order_phrase("EOR", 3, 5) == "order >= 3 interaction"
    assert order_phrase("OR", 1, 3) == "joint effect"


def test_measure_label_with_held_factors():
    label = measure_label("AP", 2, ["dr15", "a2neg"], [("smoke", 0)])
    assert label == (
        "AP | J = {dr15, a2neg} | K: smoke=0 | "
        "order >= 2 (highest order interaction)"
    )
    label3 = measure_label("AP", 2, ["dr15", "a2neg", "smoke"], [])
    assert label3.endswith("order >= 2 (2nd & higher order interaction)")


def test_render_text_notes_the_ridge_fallback():
    fit = {"n": 10, "n_cases": 5, "n_controls": 5, "loglik": -6.0,
           "iterations": 4, "converged": True}
    note = "  note: ridge fallback used during factorization"
    for used in (False, True):
        report = {"fit": fit | {"ridge_used": used}, "notes": [], "measures": []}
        assert (note in cli.render_text(report).splitlines()) == used


# ------------------------------------------------------------------- fixtures


@pytest.fixture(scope="module")
def dataset_csv(tmp_path_factory):
    design = SimDesign(
        p=2,
        q=1,
        psi_true=StructuralParams(np.log([2.0, 3.0, 1.5]), 2),
        kappa_true=np.array([-0.5, 0.4]),
        exposure_probs=np.array([0.45, 0.35]),
        n0=1500,
        n1=1500,
        seed=99,
        z_models=(ConfounderModel.normal(),),
    )
    path = tmp_path_factory.mktemp("data") / "cc.csv"
    write_csv(simulate(design), path, risk_names=["dr15", "a2neg"], covariate_names=["age"])
    return str(path)


def analyze_args(dataset_csv, *extra):
    return [
        "analyze",
        "--data",
        dataset_csv,
        "--outcome",
        "y",
        "--risk-factors",
        "dr15,a2neg",
        "--covariates",
        "age",
        *extra,
    ]


# -------------------------------------------------------------------- analyze


def test_analyze_text_output(dataset_csv, capsys):
    code = main(analyze_args(dataset_csv, "--measure", "OR", "--measure", "AP:2"))
    out = capsys.readouterr().out
    assert code == 0
    assert "model fit" in out
    assert "OR | J = {dr15, a2neg} | joint effect" in out
    assert "AP | J = {dr15, a2neg} | order >= 2" in out
    assert "delta:" in out
    assert "frequency matched" in out
    assert "intercept" in out


def test_analyze_json_output(dataset_csv, capsys):
    code = main(
        analyze_args(dataset_csv, "--measure", "OR,EOR:2,AP:2,SI:2", "--format", "json")
    )
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    fit = report["fit"]
    assert fit["converged"] is True
    assert fit["n"] == 3000
    assert set(fit["psi"]) == {"dr15", "a2neg", "dr15:a2neg"}
    assert set(fit["se_psi"]) == set(fit["psi"])
    assert fit["kappa"].keys() == {"age"}
    assert len(report["measures"]) == 4
    for entry in report["measures"]:
        assert entry["error"] is None
        assert entry["ci_low"] <= entry["point"] <= entry["ci_high"]

    # reported values hang together algebraically (K is empty so c = 1)
    by_kind = {e["kind"]: e for e in report["measures"]}
    a = by_kind["OR"]["point"]
    b = a - by_kind["EOR"]["point"]
    assert by_kind["AP"]["point"] == pytest.approx((a - b) / max(a, b), rel=1e-12)
    assert by_kind["SI"]["point"] == pytest.approx((a - 1) / (b - 1), rel=1e-12)


def test_analyze_csv_output(dataset_csv, capsys):
    code = main(analyze_args(dataset_csv, "--measure", "AP:2", "--format", "csv"))
    out = capsys.readouterr().out
    assert code == 0
    header, row = out.strip().splitlines()
    assert header.startswith("label,kind,order,method,point")
    assert "DELTA" in row


def test_analyze_si_order_one_renders_error_but_continues(dataset_csv, capsys):
    code = main(analyze_args(dataset_csv, "--measure", "SI:1", "--measure", "AP:1"))
    out = capsys.readouterr().out
    assert code == 5
    assert "error" in out
    assert "AP | J = {dr15, a2neg} | order >= 1 (joint effects)" in out


def test_analyze_single_fit_shared_across_measures(dataset_csv, monkeypatch):
    calls = []
    real = cli.fit_logit

    def counting_fit(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "fit_logit", counting_fit)
    code = main(
        analyze_args(
            dataset_csv,
            "--measure",
            "OR,EOR:2,AP:2,SI:2",
            "--ci",
            "both",
            "--n-boot",
            "200",
        )
    )
    assert code == 0
    assert len(calls) == 1


def test_analyze_bootstrap_refits_each_replicate_once(
    dataset_csv, capsys, monkeypatch
):
    fitted = []  # replicates per batch of refits
    real = inference.fit_batch

    def counting_fit(*args, **kwargs):
        fits = real(*args, **kwargs)
        fitted.append(len(fits.errors))
        return fits

    monkeypatch.setattr(inference, "fit_batch", counting_fit)
    code = main(
        analyze_args(
            dataset_csv, "--measure", "EOR:2,AP:2,SI:2", "--ci", "boot",
            "--n-boot", "200", "--format", "json",
        )
    )
    assert code == 0
    assert sum(fitted) == 200
    entries = json.loads(capsys.readouterr().out)["measures"]
    assert [e["n_boot"] for e in entries] == [200, 200, 200]
    assert [e["failures"] for e in entries] == [{}, {}, {}]


def test_analyze_json_counts_bootstrap_failures_by_class(tmp_path, capsys):
    # one exposed record per class: resamples that drop one or both fail
    rows = ["y,v1"] + [f"{y},{int(i == 0)}" for y in (0, 1) for i in range(15)]
    path = tmp_path / "degenerate.csv"
    path.write_text("\n".join(rows) + "\n")
    args = ["analyze", "--data", str(path), "--outcome", "y",
            "--risk-factors", "v1", "--measure", "OR", "--ci", "boot",
            "--n-boot", "200", "--seed", "3"]
    assert main(args + ["--format", "json"]) == 5
    (entry,) = json.loads(capsys.readouterr().out)["measures"]
    assert entry["error"].startswith("21 of 200 bootstrap replicates failed")
    assert sum(entry["failures"].values()) == 21
    assert set(entry["failures"]) == {"SeparationError", "SingularDesignError"}
    # the text and CSV reports carry no new field
    main(args + ["--format", "csv"])
    header = capsys.readouterr().out.splitlines()[0]
    assert "failures" not in header


def test_analyze_bootstrap_deterministic(dataset_csv, capsys):
    args = analyze_args(
        dataset_csv, "--measure", "AP:2", "--ci", "boot", "--n-boot", "200",
        "--seed", "11", "--format", "json",
    )
    main(args)
    first = capsys.readouterr().out
    main(args)
    second = capsys.readouterr().out
    assert first == second


def test_analyze_fix_label_and_value(dataset_csv, capsys):
    code = main(
        analyze_args(
            dataset_csv, "--measure", "AP:1", "--fix", "a2neg=0", "--format", "json"
        )
    )
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert "K: a2neg=0" in report["measures"][0]["label"]


def test_renderers_show_an_interval_note(dataset_csv, capsys, monkeypatch):
    def noted(*args, **kwargs):
        return replace(real(*args, **kwargs), note="a note")

    real = cli.delta_ci
    monkeypatch.setattr(cli, "delta_ci", noted)
    assert main(analyze_args(dataset_csv, "--measure", "AP:2", "--format", "json")) == 0
    assert json.loads(capsys.readouterr().out)["measures"][0]["note"] == "a note"
    assert main(analyze_args(dataset_csv, "--measure", "AP:2")) == 0
    assert "    note: a note" in capsys.readouterr().out.splitlines()


def test_analyze_subset_fit(dataset_csv, capsys):
    code = main(
        analyze_args(
            dataset_csv,
            "--measure",
            "AP:1",
            "--fix",
            "a2neg=0",
            "--subset-fit",
            "--format",
            "json",
        )
    )
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["fit"]["p"] == 1
    assert report["fit"]["n"] < 3000
    assert "(subset fit)" in report["measures"][0]["label"]


# ----------------------------------------------------------------- exit codes


def test_exit_code_missing_file(capsys):
    code = main(
        [
            "analyze", "--data", "/nonexistent.csv", "--outcome", "y",
            "--risk-factors", "v1", "--measure", "OR",
        ]
    )
    assert code == 2


def test_exit_code_too_few_bootstrap_replicates(dataset_csv, capsys, monkeypatch):
    loads = []
    real = cli.load_csv

    def counting_load(*args, **kwargs):
        loads.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "load_csv", counting_load)
    for method in ("boot", "both"):
        code = main(
            analyze_args(
                dataset_csv, "--measure", "AP:2", "--ci", method, "--n-boot", "50"
            )
        )
        assert code == 2
        assert "need at least 200 bootstrap replicates, got 50" in (
            capsys.readouterr().err
        )
    assert loads == []
    code = main(
        analyze_args(dataset_csv, "--measure", "AP:2", "--ci", "delta",
                     "--n-boot", "50")
    )
    assert code == 0
    assert loads == [1]


@pytest.mark.parametrize("factors, extra, message", [
    (",", ["--measure", "OR"], "at least one risk-factor column is required"),
    ("dr15,dr15", ["--measure", "OR"], "risk-factor columns must be distinct"),
    ("dr15,a2neg", ["--measure", "OR", "--fix", "dr15=0", "--fix", "dr15=1"],
     "each --fix column may appear only once"),
    ("dr15,a2neg", ["--measure", "OR", "--fix", "dr15=0", "--fix", "a2neg=1"],
     "at least one risk factor must remain varying"),
    ("dr15,a2neg", ["--measure", " , "], "at least one --measure is required"),
    ("dr15,a2neg", ["--measure", "OR", "--alpha", "1.5"],
     "alpha must be in (0, 1), got 1.5"),
    ("dr15,a2neg", ["--measure", "OR", "--alpha", "0"],
     "alpha must be in (0, 1), got 0.0"),
], ids=["no-risk-factor", "duplicate-risk-factors", "fix-twice",
        "every-factor-fixed", "no-measure", "alpha-above-1", "alpha-0"])
def test_analyze_usage_errors_read_no_csv(dataset_csv, capsys, monkeypatch,
                                          factors, extra, message):
    loads = []
    monkeypatch.setattr(cli, "load_csv", lambda *args: loads.append(args))
    code = main(["analyze", "--data", dataset_csv, "--outcome", "y",
                 "--risk-factors", factors, *extra])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", f"error: {message}\n")
    assert loads == []


def test_exit_code_bad_measure_token(dataset_csv):
    assert main(analyze_args(dataset_csv, "--measure", "WAT:1")) == 2


def test_exit_code_bad_fix(dataset_csv):
    assert main(analyze_args(dataset_csv, "--measure", "OR", "--fix", "dr15=7")) == 2
    assert main(analyze_args(dataset_csv, "--measure", "OR", "--fix", "nope=1")) == 2


def test_exit_code_missing_column(dataset_csv):
    code = main(
        [
            "analyze", "--data", dataset_csv, "--outcome", "y",
            "--risk-factors", "dr15,nope", "--measure", "OR",
        ]
    )
    assert code == 3


def test_exit_code_non_binary_factor(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("y,v1\n1,1\n0,2\n1,0\n0,1\n")
    code = main(
        [
            "analyze", "--data", str(path), "--outcome", "y",
            "--risk-factors", "v1", "--measure", "OR",
        ]
    )
    assert code == 3


def test_exit_code_separation(tmp_path):
    rows = ["y,v1"] + [f"{i % 2},{i % 2}" for i in range(40)]
    path = tmp_path / "sep.csv"
    path.write_text("\n".join(rows) + "\n")
    code = main(
        [
            "analyze", "--data", str(path), "--outcome", "y",
            "--risk-factors", "v1", "--measure", "OR",
        ]
    )
    assert code == 4


FOUR_RECORDS = b"y,v1,v2\n1,1,0\n0,0,1\n1,1,1\n0,0,0\n"


@pytest.mark.parametrize("text, extra, code, message", [
    # the intercept, v1, v2 and v1:v2 need at least 5 records
    (FOUR_RECORDS, ["--risk-factors", "v1,v2", "--measure", "OR"], 4,
     "fit error: need at least 5 records to fit 4 coefficients, got 4"),
    (FOUR_RECORDS, ["--risk-factors", "v1", "--covariates", "y", "--measure", "OR"], 3,
     "data error: unparseable cells: row 0 col 'y': column selected more than once"),
    (FOUR_RECORDS, ["--risk-factors", "v1", "--measure", "EOR:2:1"], 2,
     "error: bad measure token 'EOR:2:1'; expected KIND or KIND:ORDER"),
    (b"y,v1\xff\n1,1\n0,0\n", ["--risk-factors", "v1", "--measure", "OR"], 3,
     "data error: unparseable cells: row 0 col '<file>': not UTF-8 text "
     "(invalid start byte 0xff)"),
    (b"y,v1,z\n1,1,0\n0,0,\xff\n", ["--risk-factors", "v1", "--measure", "OR"], 3,
     "data error: unparseable cells: row 0 col '<file>': not UTF-8 text "
     "(invalid start byte 0xff)"),
    (b"y,v1,v2\n1,1,0\n0,0,0\n1,1,0\n0,0,0\n",
     ["--risk-factors", "v1,v2", "--measure", "OR", "--fix", "v2=1", "--subset-fit"], 3,
     "data error: no records left at the held factor levels"),
], ids=["too-few-records", "outcome-as-covariate", "bad-token", "non-utf8-header",
        "non-utf8-body", "empty-subset-fit"])
def test_analyze_exit_code_names_the_fault(tmp_path, capsys, text, extra, code,
                                          message):
    path = tmp_path / "data.csv"
    path.write_bytes(text)
    assert main(["analyze", "--data", str(path), "--outcome", "y", *extra]) == code
    captured = capsys.readouterr()
    assert captured.err == message + "\n" and captured.out == ""


def test_analyze_names_the_negative_prediction_behind_ap_out_of_range(
    tmp_path, capsys
):
    # q = 0, so the fitted odds ratios are the cells' case/control ratios
    # against cell 00: OR(1,0) = OR(0,1) = 0.3 and OR(1,1) = 1.08
    cells = {(0, 0): (1000, 1000), (1, 0): (300, 1000), (0, 1): (300, 1000),
             (1, 1): (1080, 1000)}
    rows = ["y,v1,v2"]
    for (v1, v2), (n1, n0) in cells.items():
        rows += [f"1,{v1},{v2}"] * n1 + [f"0,{v1},{v2}"] * n0
    path = tmp_path / "antagonism.csv"
    path.write_text("\n".join(rows) + "\n")
    code = main(
        [
            "analyze", "--data", str(path), "--outcome", "y",
            "--risk-factors", "v1,v2", "--measure", "AP:2,OR",
            "--format", "json",
        ]
    )
    assert code == 5
    ap, joint = json.loads(capsys.readouterr().out)["measures"]
    assert ap["error"] == (
        "attributable proportion 1.37037 is outside (-1, 1): the predicted "
        "odds ratio -0.4 is not positive (joint odds ratio 1.08)"
    )
    assert joint["error"] is None and joint["point"] == pytest.approx(1.08)


# ------------------------------------------------------------------- simulate


DESIGN = """
p = 2
q = 1
n0 = 200
n1 = 200
seed = 5
psi = 0.6931471805599453, 1.0986122886681098, 0.4054651081081644
kappa = -0.4, 0.3
exposure_probs = 0.4, 0.3
z1 = normal(0, 1)
measures = OR, AP:2, SI:2
"""


def test_simulate_command_writes_and_prints_truths(tmp_path, capsys):
    design_path = tmp_path / "design.txt"
    design_path.write_text(DESIGN)
    out_path = tmp_path / "sim.csv"
    code = main(["simulate", "--design", str(design_path), "--out", str(out_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "wrote 400 records" in out
    assert "true measure values:" in out
    assert "AP | J = {v1, v2} | order >= 2" in out
    assert "0.555556" in out  # true AP = 5/9
    assert "2.66667" in out  # true SI = 8/3
    first_bytes = out_path.read_bytes()
    main(["simulate", "--design", str(design_path), "--out", str(out_path)])
    assert out_path.read_bytes() == first_bytes
    # no effect at all: the synergy index has no true value
    design_path.write_text(DESIGN.replace(
        "0.6931471805599453, 1.0986122886681098, 0.4054651081081644", "0, 0, 0"))
    capsys.readouterr()
    assert main(["simulate", "--design", str(design_path), "--out", str(out_path)]) == 0
    out = capsys.readouterr().out
    assert "  SI | J = {v1, v2} | order >= 2 (highest order interaction): undefined (" in out


def test_simulate_command_seed_override(tmp_path, capsys):
    design_path = tmp_path / "design.txt"
    design_path.write_text(DESIGN)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["simulate", "--design", str(design_path), "--out", str(a), "--seed", "77"])
    main(["simulate", "--design", str(design_path), "--out", str(b)])
    capsys.readouterr()
    assert a.read_bytes() != b.read_bytes()


def test_simulate_command_rejects_zero_cases(tmp_path, capsys):
    design_path = tmp_path / "design.txt"
    design_path.write_text(DESIGN.replace("n1 = 200", "n1 = 0"))
    code = main(["simulate", "--design", str(design_path), "--out", str(tmp_path / "x.csv")])
    assert code == 2


@pytest.mark.parametrize("old, new, message", [
    ("z1 = normal(0, 1)", "z1 = discrete(0, 1, 2)",
     "line 10: z1: bad confounder model 'discrete(0, 1, 2)'; expected normal(mean, sd)"
     " or discrete(level: prob, ...)"),
    ("z1 = normal(0, 1)", "z1 = normal(0)", "line 10: z1: bad confounder model 'normal(0)'"),
    ("z1 = normal(0, 1)", "z1 = normal(0, x)",
     "line 10: z1: bad confounder model 'normal(0, x)'"),
    ("p = 2", "p = x", "line 2: p: expected an integer, got 'x'"),
    ("psi = 0.6931471805599453, 1.0986122886681098, 0.4054651081081644",
     "psi = 0.5, abc, 0.1",
     "line 7: psi: expected numbers separated by commas, got '0.5, abc, 0.1'"),
    ("p = 2", "p 2", "line 2: expected 'key = value', got 'p 2\\n'"),
    ("measures =", "fix = v3=1\nmeasures =",
     "line 11: fix: fix entry 'v3=1' is outside v1..v2"),
    ("measures =", "fix = x1=1\nmeasures =",
     "line 11: fix: bad fix entry 'x1=1'; factors are named v1..v2"),
    ("measures =", "fix = v1=2\nmeasures =",
     "line 11: fix: fix level must be 0 or 1 in 'v1=2'"),
])
def test_simulate_names_the_bad_design_value(tmp_path, capsys, old, new, message):
    design_path = tmp_path / "design.txt"
    design_path.write_text(DESIGN.replace(old, new))
    code = main(["simulate", "--design", str(design_path), "--out", str(tmp_path / "x.csv")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}"), err
    assert "unpack" not in err and "int()" not in err and "float" not in err


def test_simulate_reports_an_infeasible_design_and_an_unwritable_output(
    tmp_path, capsys
):
    design_path = tmp_path / "design.txt"
    # p = 2, q = 0: the intercept alone puts cases out of reach
    design_path.write_text(DESIGN.replace("q = 1", "q = 0").replace(
        "kappa = -0.4, 0.3", "kappa = -30").replace("z1 = normal(0, 1)\n", ""))
    code = main(["simulate", "--design", str(design_path), "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert capsys.readouterr().err == "error: expected case rate 2.42e-13 is below 1e-6\n"
    assert not (tmp_path / "x.csv").exists()

    design_path.write_text(DESIGN)
    out_path = tmp_path / "missing" / "x.csv"
    assert main(["simulate", "--design", str(design_path), "--out", str(out_path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: [Errno 2] ") and str(out_path) in captured.err
    assert captured.out == ""


def test_simulate_then_analyze_round_trip(tmp_path, capsys):
    design_path = tmp_path / "design.txt"
    design_path.write_text(DESIGN.replace("200", "2000"))
    data_path = tmp_path / "sim.csv"
    main(["simulate", "--design", str(design_path), "--out", str(data_path)])
    capsys.readouterr()
    code = main(
        [
            "analyze", "--data", str(data_path), "--outcome", "y",
            "--risk-factors", "v1,v2", "--covariates", "z1",
            "--measure", "AP:2", "--format", "json",
        ]
    )
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    entry = report["measures"][0]
    assert entry["ci_low"] <= 5.0 / 9.0 + 0.15
    assert entry["ci_high"] >= 5.0 / 9.0 - 0.15


# ---------------------------------------------------------- closed stdout pipe


class ClosedPipe(io.TextIOBase):
    """A stdout whose reader has gone away."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def run_into_closed_pipe(monkeypatch, argv):
    pipe = ClosedPipe()
    monkeypatch.setattr(sys, "stdout", pipe)
    code = main(argv)
    if sys.stdout is not pipe:
        sys.stdout.close()
    return code


def test_closed_stdout_keeps_exit_code(dataset_csv, tmp_path, capsys, monkeypatch):
    assert run_into_closed_pipe(
        monkeypatch, analyze_args(dataset_csv, "--measure", "OR")
    ) == 0
    assert run_into_closed_pipe(
        monkeypatch, analyze_args(dataset_csv, "--measure", "OR,SI:1")
    ) == 5
    design_path = tmp_path / "design.txt"
    design_path.write_text(DESIGN)
    argv = ["simulate", "--design", str(design_path), "--out", str(tmp_path / "s.csv")]
    assert run_into_closed_pipe(monkeypatch, argv) == 0
    assert capsys.readouterr().err == ""


def test_analyze_into_closed_pipe_prints_no_traceback(dataset_csv):
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    try:
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys; from interodds.cli import main; sys.exit(main())",
             *analyze_args(dataset_csv, "--measure", "OR", "--format", "json")],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.stderr.decode() == ""
    assert proc.returncode == 0


# ----------------------------------------------------------------------- check


def test_check_command_passes(capsys):
    code = main(["check"])
    out = capsys.readouterr().out
    assert code == 0
    lines = [l for l in out.splitlines() if l]
    assert len(lines) == 4
    assert all(l.startswith("PASS") for l in lines)
