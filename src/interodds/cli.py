"""Command-line front end.

Three subcommands::

    interodds analyze  --data FILE --outcome COL --risk-factors COLS ...
    interodds simulate --design FILE --out FILE [--seed S]
    interodds check    [--full]

Exit codes (documented contract):

* 0 -- success (fit converged, every requested measure produced)
* 1 -- ``check`` found a failing identity suite
* 2 -- usage or configuration error (bad flags, bad design file,
  unreadable input path, infeasible simulation design)
* 3 -- data error (CSV parse failure, non-binary risk factor, missing
  columns, no cases or no controls)
* 4 -- model fit error (separation suspected, singular design, no
  convergence, too few records)
* 5 -- the fit succeeded but at least one requested measure failed
"""

import argparse
import csv
import io
import json
import os
import sys

import numpy as np

from .dataio import (
    load_csv,
    parse_design_file,
    parse_measure_token,
    psi_coordinate_names,
    write_csv,
)
from .errors import (
    BootstrapFailureError,
    ConvergenceError,
    CsvParseError,
    EmptyClassError,
    InterOddsError,
    NonBinaryFactorError,
    SeparationError,
    SingularDesignError,
    UndefinedSynergyError,
)
from .inference import MIN_BOOT, bootstrap_ci, bootstrap_replicates, delta_ci
from .logit import CaseControlDataset, fit_logit
from .measures import MeasureSpec
from .selfcheck import run_all
from .simulate import simulate, true_measure

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_FIT = 4
EXIT_MEASURE = 5

_DATA_ERRORS = (CsvParseError, NonBinaryFactorError, EmptyClassError)
_FIT_ERRORS = (SeparationError, SingularDesignError, ConvergenceError, ValueError)

_NOTES = (
    "the intercept reflects the case/control sampling fractions, not "
    "disease prevalence; do not interpret it",
    "estimates of the structural coefficients assume controls are "
    "frequency matched to cases; any matching variables must be included "
    "as covariates",
)


def render_estimate(point, ci_low, ci_high) -> str:
    """Two-decimal report rendering, e.g. ``3.60 (3.34,3.87)``."""
    return f"{point:.2f} ({ci_low:.2f},{ci_high:.2f})"


def order_phrase(kind, order, n_varying) -> str:
    """Report vocabulary for the truncation order."""
    if kind == "OR":
        return "joint effect"
    if order == 1:
        return "marginal effect" if n_varying == 1 else "joint effects"
    if order == n_varying:
        return "highest order interaction"
    if order == 2:
        return "2nd & higher order interaction"
    return f"order >= {order} interaction"


def measure_label(kind, order, varying_names, held, subset_fit=False) -> str:
    parts = [kind, "J = {" + ", ".join(varying_names) + "}"]
    if held:
        held_text = ", ".join(f"{name}={level}" for name, level in held)
        if subset_fit:
            held_text += " (subset fit)"
        parts.append("K: " + held_text)
    if kind == "OR":
        parts.append("joint effect")
    elif order is not None:
        parts.append(
            f"order >= {order} ({order_phrase(kind, order, len(varying_names))})"
        )
    return " | ".join(parts)


def _report_from_estimate(rep):
    out = {
        "method": rep.method,
        "point": float(rep.point),
        "ci_low": float(rep.ci_low),
        "ci_high": float(rep.ci_high),
        "se_transformed": float(rep.se_transformed),
        "transform": rep.transform,
        "alpha": float(rep.alpha),
        "error": None,
    }
    if rep.n_boot is not None:
        out["n_boot"] = rep.n_boot
        out["n_failed"] = rep.n_failed
        out["failures"] = rep.failures
    if rep.note:
        out["note"] = rep.note
    return out


def run_analysis(args):
    """Load, fit once, evaluate every requested measure.

    ``args`` holds the ``analyze`` options as :func:`_config_from_args`
    leaves them.  Returns ``(report, exit_code)`` where ``report`` is a
    plain dict ready for any renderer.  Per-measure failures are recorded
    in the report without aborting the remaining measures.
    """
    data = load_csv(args.data, args.outcome, args.risk_factors, args.covariates)

    held = args.fix
    varying_names = [c for c in args.risk_factors if c not in dict(held)]
    if args.subset_fit:
        # keep only records at the held levels and drop those columns from
        # the model: a smaller fit instead of fixing levels inside measures
        keep = np.ones(data.n, dtype=bool)
        for col, level in held:
            keep &= data.exposures[:, args.risk_factors.index(col)] == level
        cols = [args.risk_factors.index(c) for c in varying_names]
        if not keep.any():
            raise EmptyClassError("no records left at the held factor levels")
        data = CaseControlDataset(
            data.exposures[keep][:, cols],
            data.covariates[keep],
            data.outcome[keep],
        )
        factor_names = varying_names
        spec_fixed = {}
    else:
        factor_names = args.risk_factors
        spec_fixed = {args.risk_factors.index(col): level for col, level in held}

    fit = fit_logit(data)

    psi_names = psi_coordinate_names(data.p, factor_names)
    fit_block = {
        "n": data.n,
        "n_cases": data.n1,
        "n_controls": data.n0,
        "p": data.p,
        "q": data.q,
        "loglik": float(fit.loglik),
        "iterations": fit.iterations,
        "converged": bool(fit.converged),
        "gradient_norm": float(fit.gradient_norm),
        "ridge_used": bool(fit.ridge_used),
        "intercept": float(fit.params.kappa[0]),
        "kappa": {
            name: float(value)
            for name, value in zip(args.covariates, fit.params.kappa[1:])
        },
        "psi": {
            name: float(value)
            for name, value in zip(psi_names, fit.params.psi.psi)
        },
        "se_psi": {
            name: float(value) for name, value in zip(psi_names, fit.se_psi)
        },
    }

    entries = []
    any_failed = False
    replicates = None  # built at the first bootstrap interval, then shared
    for kind, order in args.measure:
        try:
            spec = MeasureSpec(
                p=data.p, kind=kind, order=order, fixed=spec_fixed
            )
        except InterOddsError as exc:
            label = measure_label(kind, order, varying_names, held, args.subset_fit)
            entries.append(
                {"label": label, "kind": kind, "order": order,
                 "method": None, "error": str(exc)}
            )
            any_failed = True
            continue

        label = measure_label(spec.kind, spec.effective_order, varying_names,
                              held, args.subset_fit)
        base = {"label": label, "kind": spec.kind, "order": spec.effective_order}
        if args.ci in ("delta", "both"):
            try:
                rep = delta_ci(fit, spec, alpha=args.alpha)
                entries.append(base | _report_from_estimate(rep))
            except InterOddsError as exc:
                entries.append(base | {"method": "DELTA", "error": str(exc)})
                any_failed = True
        if args.ci in ("boot", "both"):
            try:
                if replicates is None:
                    replicates = bootstrap_replicates(data, args.n_boot, args.seed)
                rep = bootstrap_ci(fit, replicates, spec, alpha=args.alpha)
                entries.append(base | _report_from_estimate(rep))
            except InterOddsError as exc:
                entry = base | {"method": "BOOTSTRAP_PERCENTILE", "error": str(exc)}
                if isinstance(exc, BootstrapFailureError):
                    entry["failures"] = exc.failures
                entries.append(entry)
                any_failed = True

    report = {"fit": fit_block, "notes": list(_NOTES), "measures": entries}
    return report, (EXIT_MEASURE if any_failed else EXIT_OK)


def render_text(report) -> str:
    fit = report["fit"]
    lines = [
        "model fit",
        (
            f"  records: {fit['n']} ({fit['n_cases']} cases, "
            f"{fit['n_controls']} controls)"
        ),
        (
            f"  log-likelihood: {fit['loglik']:.4f}   iterations: "
            f"{fit['iterations']}   converged: {'yes' if fit['converged'] else 'no'}"
        ),
    ]
    if fit["ridge_used"]:
        lines.append("  note: ridge fallback used during factorization")
    for note in report["notes"]:
        lines.append(f"  note: {note}")
    lines.append("")
    for entry in report["measures"]:
        lines.append(entry["label"])
        if entry.get("error"):
            method = entry.get("method") or "-"
            lines.append(f"    {method.lower()}: error: {entry['error']}")
        else:
            method = "delta" if entry["method"] == "DELTA" else "bootstrap"
            rendered = render_estimate(
                entry["point"], entry["ci_low"], entry["ci_high"]
            )
            lines.append(f"    {method}: {rendered}")
            if entry.get("note"):
                lines.append(f"    note: {entry['note']}")
    return "\n".join(lines)


_CSV_FIELDS = [
    "label", "kind", "order", "method", "point", "ci_low", "ci_high",
    "se_transformed", "transform", "alpha", "n_boot", "n_failed", "error",
]


def render_csv(report) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(_CSV_FIELDS)
    for entry in report["measures"]:
        row = []
        for name in _CSV_FIELDS:
            value = entry.get(name)
            row.append(repr(value) if isinstance(value, float) else value)
        writer.writerow(row)
    return buffer.getvalue().rstrip("\n")


def render_report(report, output_format) -> str:
    if output_format == "json":
        return json.dumps(report, indent=2)
    if output_format == "csv":
        return render_csv(report)
    return render_text(report)


def _split_columns(text):
    return [c.strip() for c in str(text).split(",") if c.strip()]


def _config_from_args(args):
    """Parse and check the ``analyze`` options in place.

    The column lists become lists of names, each ``--fix`` a ``(column,
    level)`` pair and the ``--measure`` flags one ``(kind, order)`` list.
    Raises ValueError for a usage error.
    """
    fixed = []
    for item in args.fix:
        name, sep, level = str(item).partition("=")
        if not sep or level.strip() not in ("0", "1"):
            raise ValueError(f"--fix expects COL=0 or COL=1, got {item!r}")
        fixed.append((name.strip(), int(level)))
    args.fix = fixed
    args.measure = [parse_measure_token(token) for flag in args.measure
                    for token in str(flag).split(",") if token.strip()]
    args.risk_factors = factors = _split_columns(args.risk_factors)
    args.covariates = _split_columns(args.covariates)
    if not factors:
        raise ValueError("at least one risk-factor column is required")
    if len(set(factors)) != len(factors):
        raise ValueError("risk-factor columns must be distinct")
    fixed_cols = [c for c, _ in fixed]
    if len(set(fixed_cols)) != len(fixed_cols):
        raise ValueError("each --fix column may appear only once")
    unknown = [c for c in fixed_cols if c not in factors]
    if unknown:
        raise ValueError(f"--fix columns must be risk factors: {unknown}")
    if len(fixed_cols) >= len(factors):
        raise ValueError("at least one risk factor must remain varying")
    if not args.measure:
        raise ValueError("at least one --measure is required")
    if not 0.0 < args.alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {args.alpha}")
    if args.ci != "delta" and args.n_boot < MIN_BOOT:
        raise ValueError(
            f"need at least {MIN_BOOT} bootstrap replicates, got {args.n_boot}")


def _write_stdout(text):
    """Print ``text``; a reader that closed the pipe early is not an error.

    The rest of the output, and the flush at interpreter exit, then go to
    the null device instead of raising ``BrokenPipeError`` again.
    """
    try:
        print(text, flush=True)
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        try:
            os.dup2(devnull, sys.stdout.fileno())
        except (AttributeError, OSError, ValueError):  # no file descriptor
            sys.stdout = os.fdopen(devnull, "w")
        else:
            os.close(devnull)


def cmd_analyze(args) -> int:
    try:
        _config_from_args(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        report, code = run_analysis(args)
    except _DATA_ERRORS as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except _FIT_ERRORS as exc:
        print(f"fit error: {exc}", file=sys.stderr)
        return EXIT_FIT
    _write_stdout(render_report(report, args.format))
    return code


def cmd_simulate(args) -> int:
    try:  # a PrevalenceError from simulate is a ValueError
        design, measures, fixed = parse_design_file(args.design)
        if args.seed is not None:
            design.seed = args.seed
        specs = [
            MeasureSpec(p=design.p, kind=kind, order=order, fixed=fixed)
            for kind, order in measures
        ]
        data = simulate(design)
        write_csv(data, args.out)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    lines = [
        f"wrote {data.n} records to {args.out} "
        f"({data.n1} cases, {data.n0} controls)"
    ]
    if specs:
        lines.append("true measure values:")
        names = [f"v{j + 1}" for j in range(design.p)]
        for spec in specs:
            held = [(names[j], level) for j, level in sorted(fixed.items())]
            varying_names = [names[j] for j in spec.varying]
            label = measure_label(
                spec.kind, spec.effective_order, varying_names, held
            )
            try:
                value = true_measure(design, spec)
                lines.append(f"  {label}: {value:.6g}")
            except UndefinedSynergyError as exc:
                lines.append(f"  {label}: undefined ({exc})")
    _write_stdout("\n".join(lines))
    return EXIT_OK


def cmd_check(args) -> int:
    results = run_all(fast=not args.full)
    _write_stdout("\n".join(
        f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}" for r in results
    ))
    return EXIT_OK if all(r.passed for r in results) else EXIT_CHECK_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="interodds",
        description=(
            "Additive odds-scale measures of joint effects and interaction "
            "among binary risk factors, from case-control data."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser(
        "analyze", help="fit a dataset and report the requested measures"
    )
    analyze.add_argument("--data", required=True, help="CSV file with a header row")
    analyze.add_argument("--outcome", required=True, help="0/1 outcome column")
    analyze.add_argument(
        "--risk-factors",
        required=True,
        help="comma-separated binary factor columns; order defines positions",
    )
    analyze.add_argument(
        "--covariates", default="", help="comma-separated confounder columns"
    )
    analyze.add_argument(
        "--fix",
        action="append",
        default=[],
        metavar="COL=0|1",
        help="hold a risk factor at a level (repeatable); held factors form K",
    )
    analyze.add_argument(
        "--measure",
        action="append",
        required=True,
        metavar="KIND[:ORDER]",
        help="OR, EOR:i, AP:i or SI:i (repeatable, or comma-separated)",
    )
    analyze.add_argument("--alpha", type=float, default=0.05)
    analyze.add_argument("--ci", choices=["delta", "boot", "both"], default="delta")
    analyze.add_argument("--n-boot", type=int, default=1000)
    analyze.add_argument("--seed", type=int, default=0)
    analyze.add_argument(
        "--format", choices=["text", "json", "csv"], default="text"
    )
    analyze.add_argument(
        "--subset-fit",
        action="store_true",
        help=(
            "fit only the records at the held levels with a smaller model "
            "instead of fixing levels inside the full saturated fit"
        ),
    )
    analyze.set_defaults(func=cmd_analyze)

    sim = sub.add_parser(
        "simulate", help="draw a synthetic dataset from a design file"
    )
    sim.add_argument("--design", required=True, help="key-value design file")
    sim.add_argument("--out", required=True, help="output CSV path")
    sim.add_argument("--seed", type=int, default=None, help="override design seed")
    sim.set_defaults(func=cmd_simulate)

    check = sub.add_parser("check", help="run the internal identity suites")
    check.add_argument(
        "--full", action="store_true", help="acceptance-size grids (slower)"
    )
    check.set_defaults(func=cmd_check)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


def entry():  # console-script shim
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
