"""CSV ingestion/emission and the text format for simulation designs.

The dataset dialect is deliberately rigid: comma separated, UTF-8, header
row required, ``.`` decimal separator, no quoting of numerics.  Floats are
written with ``repr`` so a written file reloads to bit-identical values.
"""

import csv
import warnings

import numpy as np

from .errors import (
    CsvParseError,
    EmptyClassError,
    NonBinaryFactorError,
)
from .logit import CaseControlDataset
from .measures import StructuralParams, canonical_kind
from .patterns import pattern_index
from .simulate import ConfounderModel, SimDesign

# Bytes the record count of load_csv reads at once
_BLOCK_BYTES = 1 << 20


def parse_measure_token(token: str):
    """Parse ``KIND`` or ``KIND:ORDER`` into (kind, order or None)."""
    parts = str(token).strip().split(":")
    if len(parts) == 1:
        return canonical_kind(parts[0]), None
    if len(parts) == 2:
        try:
            order = int(parts[1])
        except ValueError:
            raise ValueError(f"bad order in measure token {token!r}")
        return canonical_kind(parts[0]), order
    raise ValueError(f"bad measure token {token!r}; expected KIND or KIND:ORDER")


def load_csv(path, outcome, risk_factors, covariates=()):
    """Load a case-control dataset from a headered CSV file.

    A leading UTF-8 byte-order mark is skipped.  A clean file is parsed
    by numpy's tokenizer; a file with any bad record or cell, a blank
    line, a line break inside quotes or a lone carriage return is read
    again row by row, which lists every offender.

    Parameters
    ----------
    path : str
        CSV file with a header row.
    outcome : str
        Column holding the 0/1 disease status.
    risk_factors : sequence of str
        Binary factor columns; their order defines factor positions.
    covariates : sequence of str
        Confounder columns parsed as finite reals.  Categorical
        confounders with k levels must be pre-encoded as k - 1 indicator
        columns.

    Raises
    ------
    NonBinaryFactorError
        A risk-factor cell parses to something other than 0 or 1.
    CsvParseError
        Missing or unparseable cells (all offenders listed, with 1-based
        data-row numbers).
    EmptyClassError
        No cases or no controls after parsing.
    """
    risk_factors = list(risk_factors)
    covariates = list(covariates)
    wanted = [outcome] + risk_factors + covariates
    p = len(risk_factors)
    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        header = _read_header(reader, wanted)
        table = _parse_columns(
            path, handle, len(header), [header.index(c) for c in wanted], 1 + p
        )
    if table is None:
        with open(path, newline="", encoding="utf-8-sig") as handle:
            reader = csv.reader(handle)
            next(reader)
            table = _parse_rows(reader, header, outcome, risk_factors, covariates)

    if not table.shape[1]:
        raise EmptyClassError("no data rows")
    y = table[0].astype(np.int8)
    if y.sum() == 0 or y.sum() == len(y):
        raise EmptyClassError(
            "dataset needs both cases and controls; got "
            f"{int(y.sum())} cases out of {len(y)} records"
        )
    return CaseControlDataset(
        table[1 : 1 + p].T.astype(np.int8, order="C"),
        np.ascontiguousarray(table[1 + p :].T),
        y,
    )


def _read_header(reader, wanted):
    """The stripped header row, once every wanted column is in it once."""
    try:
        header = next(reader)
    except StopIteration:
        raise CsvParseError([(0, "<file>", "empty file, header row required")])
    header = [h.strip() for h in header]
    missing = [c for c in wanted if c not in header]
    if missing:
        raise CsvParseError(
            [(0, c, "column not found in header") for c in missing]
        )
    dup = [c for c in set(wanted) if wanted.count(c) > 1]
    if dup:
        raise CsvParseError(
            [(0, c, "column selected more than once") for c in sorted(dup)]
        )
    repeated = [c for c in wanted if header.count(c) > 1]
    if repeated:
        raise CsvParseError(
            [(0, c, "column appears more than once in the header")
             for c in repeated]
        )
    return header


def _parse_columns(path, handle, width, cols, n_binary):
    """Parse the records of a clean file with numpy's C tokenizer.

    ``handle`` is positioned after the header.  Returns the
    ``(len(cols), n)`` table of the selected columns, exactly as
    :func:`_parse_rows` would, or None: on a wrong cell count, a blank
    line, a line break inside quotes, text that numpy rejects (it parses
    with the routine behind ``float()``, but not ``1_0`` or non-ASCII
    digits), a value that is not finite, or one other than 0 or 1 in the
    first ``n_binary`` columns.  Cells of the other columns read as 0.0.
    """
    records = _body_records(path)
    if records is None:
        return None
    text = dict.fromkeys(set(range(width)) - set(cols), lambda cell: 0.0)
    try:
        with warnings.catch_warnings():
            # "no data" on a body of blank lines, which the shape test rejects
            warnings.simplefilter("ignore", UserWarning)
            rows = np.loadtxt(
                handle, delimiter=",", comments=None, quotechar='"',
                converters=text, ndmin=2,
            )
    except ValueError:
        return None
    # loadtxt splits quoted cells as csv does and raises on any change of
    # width; it skips the blank lines that csv reports and joins the lines
    # of a quoted line break, so the shape proves one full record per line
    if rows.shape != (records, width):
        return None
    table = rows[:, cols].T
    binary = table[:n_binary]
    if not (np.isfinite(table).all() and ((binary == 0) | (binary == 1)).all()):
        return None
    return table


def _body_records(path):
    """The lines after the header line, counted in binary blocks.

    None when the file holds a carriage return outside a CRLF pair:
    ``csv`` ends a record there too, and this count would miss it.
    """
    feeds = 0
    last = b"\n"
    with open(path, "rb") as raw:
        while block := raw.read(_BLOCK_BYTES):
            if block.endswith(b"\r"):  # keep a CRLF pair in one block
                block += raw.read(1)
            if block.count(b"\r") != block.count(b"\r\n"):
                return None
            feeds += block.count(b"\n")
            last = block[-1:]
    return feeds - (last == b"\n")


def _parse_rows(reader, header, outcome, risk_factors, covariates):
    """Parse the records one by one and report every bad one.

    Raises the load errors that name rows and cells; on a clean file it
    returns the same table as :func:`_parse_columns`.
    """
    pos = {c: header.index(c) for c in [outcome] + risk_factors + covariates}
    problems = []
    non_binary = []
    records = []
    for rownum, row in enumerate(reader, start=1):
        if len(row) != len(header):
            problems.append(
                (rownum, "<row>", f"expected {len(header)} cells, got {len(row)}")
            )
            continue
        bad = False

        def parse_float(col):
            nonlocal bad
            text = row[pos[col]].strip()
            if not text:
                problems.append((rownum, col, "missing value"))
                bad = True
                return np.nan
            try:
                value = float(text)
            except ValueError:
                problems.append((rownum, col, f"not a number: {text!r}"))
                bad = True
                return np.nan
            if not np.isfinite(value):
                problems.append((rownum, col, f"not finite: {text!r}"))
                bad = True
            return value

        y = parse_float(outcome)
        if np.isfinite(y) and y not in (0.0, 1.0):
            problems.append(
                (rownum, outcome, f"outcome must be 0 or 1, got {y!r}")
            )
            bad = True
        v = []
        for col in risk_factors:
            value = parse_float(col)
            if np.isfinite(value) and value not in (0.0, 1.0):
                non_binary.append((rownum, col, row[pos[col]].strip()))
                bad = True
            v.append(value)
        z = [parse_float(col) for col in covariates]
        if bad:
            continue
        records.append([y] + v + z)

    if non_binary:
        rownum, col, text = non_binary[0]
        raise NonBinaryFactorError(
            f"risk factor {col!r} has non-binary value {text!r} at data row "
            f"{rownum} ({len(non_binary)} offending cell(s) in total)"
        )
    if problems:
        raise CsvParseError(problems)
    width = 1 + len(risk_factors) + len(covariates)
    return np.array(records, dtype=float).reshape(-1, width).T


def write_csv(data, path, outcome_name="y", risk_names=None, covariate_names=None):
    """Write a dataset in the ingestion dialect (repr-exact floats)."""
    risk_names = list(risk_names or (f"v{j + 1}" for j in range(data.p)))
    covariate_names = list(covariate_names or (f"z{j + 1}" for j in range(data.q)))
    if len(risk_names) != data.p or len(covariate_names) != data.q:
        raise ValueError("column name lists do not match the dataset dimensions")
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow([outcome_name] + risk_names + covariate_names)
        for i in range(data.n):
            row = [int(data.outcome[i])]
            row += [int(x) for x in data.exposures[i]]
            row += [repr(float(x)) for x in data.covariates[i]]
            writer.writerow(row)


def psi_coordinate_names(p, names=None):
    """Readable labels for the structural coordinates, e.g. ``v1:v3``."""
    idx = pattern_index(p)
    return [idx.label(c, names) for c in range(idx.size)]


def _parse_confounder_model(text):
    text = text.strip()
    if text.startswith("normal(") and text.endswith(")"):
        inner = text[len("normal(") : -1]
        mean, sd = (float(t) for t in inner.split(","))
        return ConfounderModel.normal(mean, sd)
    if text.startswith("discrete(") and text.endswith(")"):
        inner = text[len("discrete(") : -1]
        levels, probs = [], []
        for chunk in inner.split(","):
            level, prob = chunk.split(":")
            levels.append(float(level))
            probs.append(float(prob))
        return ConfounderModel.discrete(levels, probs)
    raise ValueError(
        f"bad confounder model {text!r}; expected normal(mean, sd) or "
        "discrete(level: prob, ...)"
    )


def _parse_fix(text, p):
    """Parse ``v3=0, v1=1`` into a {factor position: level} mapping."""
    fixed = {}
    for chunk in str(text).split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        name, _, level = chunk.partition("=")
        name = name.strip()
        if not (name.startswith("v") and name[1:].isdigit()):
            raise ValueError(f"bad fix entry {chunk!r}; factors are named v1..v{p}")
        j = int(name[1:]) - 1
        if not 0 <= j < p:
            raise ValueError(f"fix entry {chunk!r} is outside v1..v{p}")
        if level.strip() not in ("0", "1"):
            raise ValueError(f"fix level must be 0 or 1 in {chunk!r}")
        fixed[j] = int(level)
    return fixed


def parse_design_file(path):
    """Parse a key-value simulation design file.

    Returns ``(design, measures, fixed)`` where ``measures`` is a list of
    (kind, order) pairs to report true values for, and ``fixed`` maps
    factor positions to held levels for those measures.  See the README
    for the full key list.
    """
    entries = {}
    with open(path, encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise ValueError(f"line {lineno}: expected 'key = value', got {raw!r}")
            key = key.strip()
            if key in entries:
                raise ValueError(f"line {lineno}: duplicate key {key!r}")
            entries[key] = value.strip()

    def require(key):
        if key not in entries:
            raise ValueError(f"design file is missing required key {key!r}")
        return entries.pop(key)

    def floats(text):
        return [float(t) for t in text.split(",") if t.strip()]

    p = int(require("p"))
    q = int(require("q"))
    n0 = int(require("n0"))
    n1 = int(require("n1"))
    seed = int(entries.pop("seed", "0"))
    psi = floats(require("psi"))
    if len(psi) != (1 << p) - 1:
        raise ValueError(
            f"psi needs {(1 << p) - 1} values in canonical order "
            f"({', '.join(psi_coordinate_names(p))}), got {len(psi)}"
        )
    kappa = floats(require("kappa"))
    probs = floats(require("exposure_probs"))
    rho = float(entries.pop("exposure_rho", "0"))
    z_models = tuple(
        _parse_confounder_model(require(f"z{j + 1}")) for j in range(q)
    )
    fixed = _parse_fix(entries.pop("fix", ""), p)
    measures = [
        parse_measure_token(tok)
        for tok in entries.pop("measures", "").split(",")
        if tok.strip()
    ]
    if entries:
        raise ValueError(f"unknown design keys: {sorted(entries)}")

    design = SimDesign(
        p=p,
        q=q,
        psi_true=StructuralParams(np.array(psi), p),
        kappa_true=np.array(kappa),
        exposure_probs=np.array(probs),
        n0=n0,
        n1=n1,
        seed=seed,
        exposure_rho=rho,
        z_models=z_models,
    )
    return design, measures, fixed
