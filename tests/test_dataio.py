import contextlib
import csv
import io
import itertools
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from interodds import dataio
from interodds.dataio import (
    load_csv,
    parse_design_file,
    parse_measure_token,
    psi_coordinate_names,
    write_csv,
)
from interodds.errors import CsvParseError, EmptyClassError, NonBinaryFactorError
from interodds.measures import StructuralParams
from interodds.simulate import ConfounderModel, SimDesign, simulate


def test_round_trip_is_value_identical(tmp_path):
    design = SimDesign(
        p=2,
        q=2,
        psi_true=StructuralParams(np.log([2.0, 3.0, 1.5]), 2),
        kappa_true=np.array([-0.5, 0.4, -0.7]),
        exposure_probs=np.array([0.4, 0.3]),
        n0=80,
        n1=80,
        seed=6,
        z_models=(ConfounderModel.normal(), ConfounderModel.discrete([0, 1], [0.6, 0.4])),
    )
    data = simulate(design)
    path = tmp_path / "rt.csv"
    write_csv(data, path)
    back = load_csv(path, "y", ["v1", "v2"], ["z1", "z2"])
    assert np.array_equal(back.exposures, data.exposures)
    assert np.array_equal(back.outcome, data.outcome)
    assert np.array_equal(back.covariates, data.covariates)  # repr-exact floats


def test_write_is_deterministic(tmp_path):
    design = SimDesign(
        p=1,
        q=1,
        psi_true=StructuralParams(np.array([0.5]), 1),
        kappa_true=np.array([0.0, 0.2]),
        exposure_probs=np.array([0.5]),
        n0=30,
        n1=30,
        seed=9,
        z_models=(ConfounderModel.normal(),),
    )
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(simulate(design), p1)
    write_csv(simulate(design), p2)
    assert p1.read_bytes() == p2.read_bytes()


def write(tmp_path, text, name="d.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_load_happy_path(tmp_path):
    path = write(
        tmp_path,
        "y,dr15,a2neg,smoke,female,age\n"
        "1,1,0,1,1,32\n"
        "0,0,0,0,1,45\n"
        "1,0,1,1,0,51\n"
        "0,1,1,0,0,29\n",
    )
    data = load_csv(path, "y", ["dr15", "a2neg", "smoke"], ["female", "age"])
    assert data.n == 4 and data.p == 3 and data.q == 2
    assert data.n1 == 2 and data.n0 == 2
    assert data.covariates[0].tolist() == [1.0, 32.0]


def test_missing_column(tmp_path):
    path = write(tmp_path, "y,v1\n1,0\n0,1\n")
    with pytest.raises(ValueError, match="not found"):
        load_csv(path, "y", ["v1", "v2"])


def test_duplicate_header_name_rejected(tmp_path):
    path = write(tmp_path, "y,v1,v1,z\n1,0,1,0.5\n0,1,0,1.5\n")
    with pytest.raises(CsvParseError) as err:
        load_csv(path, "y", ["v1"], ["z"])
    assert err.value.problems == [
        (0, "v1", "column appears more than once in the header")
    ]
    # a repeated name among the columns not selected is harmless
    path = write(tmp_path, "y,v1,w,w\n1,0,1,1\n0,1,0,0\n", name="e.csv")
    data = load_csv(path, "y", ["v1"])
    assert data.exposures[:, 0].tolist() == [0, 1]


def test_non_binary_risk_factor_names_row_and_column(tmp_path):
    path = write(tmp_path, "y,v1\n1,1\n0,2\n1,0\n0,1\n")
    with pytest.raises(NonBinaryFactorError, match=r"'v1'.*'2'.*row 2"):
        load_csv(path, "y", ["v1"])


def test_all_cases_rejected(tmp_path):
    path = write(tmp_path, "y,v1\n1,1\n1,0\n")
    with pytest.raises(EmptyClassError):
        load_csv(path, "y", ["v1"])


def test_parse_errors_list_all_offending_rows(tmp_path):
    path = write(
        tmp_path,
        "y,v1,z1\n"
        "1,1,2.5\n"
        "0,0,oops\n"  # bad float, data row 2
        "1,1,\n"  # missing cell, data row 3
        "0,1\n"  # short row, data row 4
        "0,0,1.5\n",
    )
    with pytest.raises(CsvParseError) as err:
        load_csv(path, "y", ["v1"], ["z1"])
    rows = [r for r, _, _ in err.value.problems]
    assert rows == [2, 3, 4]


def test_bad_outcome_is_parse_error(tmp_path):
    path = write(tmp_path, "y,v1\n2,1\n0,0\n1,1\n")
    with pytest.raises(CsvParseError):
        load_csv(path, "y", ["v1"])


def test_empty_file(tmp_path):
    path = write(tmp_path, "")
    with pytest.raises(CsvParseError):
        load_csv(path, "y", ["v1"])


def test_byte_order_mark_and_crlf_accepted(tmp_path):
    path = tmp_path / "excel.csv"
    path.write_bytes(b"\xef\xbb\xbfy,v1,z\r\n1,1,0.5\r\n0,0,1.5\r\n1,0,2.5\r\n")
    data = load_csv(path, "y", ["v1"], ["z"])
    assert data.outcome.tolist() == [1, 0, 1]
    assert data.exposures[:, 0].tolist() == [1, 0, 0]
    assert data.covariates[:, 0].tolist() == [0.5, 1.5, 2.5]
    # the row pass that reports bad cells reads the same header
    path.write_bytes(b"\xef\xbb\xbfy,v1,z\r\n1,1,oops\r\n0,0,1.5\r\n")
    with pytest.raises(CsvParseError) as err:
        load_csv(path, "y", ["v1"], ["z"])
    assert err.value.problems == [(1, "z", "not a number: 'oops'")]


def load_outcome(path, row_pass_only=False):
    """What load_csv returns or raises, in a form that compares with ==.

    ``row_pass_only`` makes the numpy pass give up at once.
    """
    patch = (
        mock.patch.object(dataio, "_parse_columns", lambda *args: None)
        if row_pass_only
        else contextlib.nullcontext()
    )
    with patch:
        try:
            data = load_csv(path, "y", ["v1", "v2"], ["z1"])
        except CsvParseError as err:
            return type(err), err.problems
        except (NonBinaryFactorError, EmptyClassError) as err:
            return type(err), str(err)
    return (
        data.outcome.dtype, data.outcome.tolist(),
        data.exposures.dtype, data.exposures.tolist(),
        data.covariates.dtype, data.covariates.tolist(),
        data.exposures.flags.c_contiguous, data.covariates.flags.c_contiguous,
    )


GOOD_BINARY = ["0", "1"]
GOOD_REAL = ["0", "1", "-2.5", "0.1", repr(1 / 3), repr(-1e-300), "7e15"]
# rejected cells, and accepted ones in spellings a parser might treat apart
ODD_CELLS = [
    "", " ", "oops", "inf", "nan", "2", "1_0", '"1"', " 1 ", "-0",
    '1"', '"1"2', '""', "1\r", '"1\n"', "\x1c1", "\uff11", "1e400", "0x1",
    "infinity", '"1,0"', 'a"b', '"x""y"',
]


@st.composite
def csv_tables(draw):
    """Small tables of valid cells with up to three odd cells or bad records."""
    rows = draw(st.lists(
        st.tuples(*[st.sampled_from(GOOD_BINARY)] * 2, st.just("x"),
                  st.sampled_from(GOOD_BINARY), st.sampled_from(GOOD_REAL)).map(list),
        max_size=8,
    ))
    for _ in range(draw(st.integers(0, 3)) if rows else 0):
        row = rows[draw(st.integers(0, len(rows) - 1))]
        fault = draw(st.sampled_from(["cell", "cell", "short", "long", "blank"]))
        if not row:  # already made blank
            continue
        if fault == "cell":
            row[draw(st.integers(0, len(row) - 1))] = draw(st.sampled_from(ODD_CELLS))
        elif fault == "short":
            row.pop()
        elif fault == "long":
            row.append("0")
        else:
            row.clear()
    return "".join(",".join(row) + "\n" for row in [["y", "v1", "w", "v2", "z1"]] + rows)


@settings(max_examples=300, deadline=None)
@given(text=csv_tables())
def test_column_and_row_passes_agree(text, tmp_path_factory):
    path = tmp_path_factory.mktemp("agree") / "t.csv"
    path.write_text(text, encoding="utf-8")
    assert load_outcome(path) == load_outcome(path, row_pass_only=True)


def test_each_single_fault_gives_the_row_pass_result(tmp_path):
    clean = [["1", "1", "x", "0", "0.5"], ["0", "0", "x", "1", "-2"],
             ["1", "0", "x", "1", "3"], ["0", "1", "x", "0", "0"]]
    tables = []
    for r in range(len(clean)):
        for c in range(5):
            for cell in ODD_CELLS:
                rows = [row[:] for row in clean]
                rows[r][c] = cell
                tables.append(rows)
        for shape in (clean[r][:-1], clean[r] + ["0"], []):
            tables.append(clean[:r] + [shape] + clean[r + 1 :])
    path = tmp_path / "t.csv"
    for newline, rows in itertools.product(["\n", "\r\n"], tables):
        lines = [["y", "v1", "w", "v2", "z1"]] + rows
        path.write_bytes(
            "".join(",".join(row) + newline for row in lines).encode("utf-8")
        )
        assert load_outcome(path) == load_outcome(path, row_pass_only=True), rows


HEADER = "y,v1,w,v2,z1"
CLEAN = ["1,1,x,0,0.5", "0,0,x,1,-2", "1,0,x,1,3", "0,1,x,0,0"]


RECORD_SHAPES = {
    "trailing-blank-line": "\n".join([HEADER] + CLEAN) + "\n\n",
    "whitespace-line": "\n".join([HEADER] + CLEAN[:2] + ["  "] + CLEAN[2:]) + "\n",
    "lone-cr": "\n".join([HEADER] + CLEAN[:2]) + "\r" + "\n".join(CLEAN[2:]) + "\n",
    # with a blank line too, the line feeds match the rows numpy reads
    "lone-cr-and-blank-line": "\n".join([HEADER] + CLEAN[:2]) + "\r"
    + "\n".join(CLEAN[2:3] + [""] + CLEAN[3:]) + "\n",
    "cr-before-crlf": "\r\n".join([HEADER] + CLEAN[:2]) + "\r\r\n"
    + "\r\n".join(CLEAN[2:]),
    "no-final-lf": "\n".join([HEADER] + CLEAN),
    "no-final-crlf": "\r\n".join([HEADER] + CLEAN),
    "header-only": HEADER + "\n",
    "header-only-no-lf": HEADER,
    "blank-body": "\n".join([HEADER, "", ""]) + "\n",
    "quoted-comma": "\n".join([HEADER] + CLEAN[:2] + ['1,0,"a,b",1']) + "\n",
    # a line break in a quoted text cell: one record to csv, two lines
    "quoted-line-feed": "\n".join(
        [HEADER] + CLEAN[:2] + ['1,1,"x,0,0.5', '0,0,x",1,2']
    ) + "\n",
    "quoted-header": '"y","v1","w","v2","z1"\n' + "\n".join(CLEAN) + "\n",
}


@pytest.mark.parametrize("shape", list(RECORD_SHAPES))
def test_record_shapes_give_the_row_pass_result(tmp_path, shape):
    path = tmp_path / "t.csv"
    path.write_bytes(RECORD_SHAPES[shape].encode("utf-8"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert load_outcome(path) == load_outcome(path, row_pass_only=True)


def test_numpy_splits_quoted_lines_as_csv_does():
    """The fast path rests on numpy's tokenizer splitting a line like csv."""
    for size in range(1, 6):
        for chars in itertools.product('",a ', repeat=size):
            line = "".join(chars) + "\n"
            cells = np.loadtxt(
                io.StringIO(line, newline=""), delimiter=",", comments=None,
                quotechar='"', dtype=str, ndmin=2,
            )
            expected = list(csv.reader(io.StringIO(line, newline="")))
            assert cells.tolist() == expected, line


@pytest.mark.parametrize("split", [0, 1])
def test_crlf_pair_across_a_block_boundary(tmp_path, split):
    """A CRLF that two binary reads split is one line end, not a lone CR."""
    lines = [f"{i % 2},{i // 2 % 2},x,{i // 4 % 2},{i / 7!r}" for i in range(50_000)]
    text = (HEADER + "\r\n" + "\r\n".join(lines) + "\r\n").encode()
    # leading zeros in the cell before the last CRLF of the first block
    # move that CRLF to the block's end (split=0) or across it (split=1)
    end = dataio._BLOCK_BYTES
    pos = text.rindex(b"\r\n", 0, end)
    cell = text.rindex(b",", 0, pos) + 1
    text = text[:cell] + b"0" * (end - 2 + split - pos) + text[cell:]
    assert text[end - 2 + split : end + split] == b"\r\n"
    path = tmp_path / "big.csv"
    path.write_bytes(text)
    assert dataio._body_records(path) == len(lines)
    assert load_outcome(path) == load_outcome(path, row_pass_only=True)


def test_bad_cell_past_the_first_chunk_names_its_row(tmp_path):
    n = 16_394
    lines = ["y,v1,z1"] + [f"{i % 2},{i // 2 % 2},{i / 7!r}" for i in range(n)]
    path = write(tmp_path, "\n".join(lines) + "\n")
    data = load_csv(path, "y", ["v1"], ["z1"])
    assert data.n == n
    assert data.covariates[:, 0].tolist() == [i / 7 for i in range(n)]
    assert data.outcome.tolist() == [i % 2 for i in range(n)]
    bad_row = 16_390  # 1-based data-row number
    lines[bad_row] = "1,0,oops"
    path = write(tmp_path, "\n".join(lines) + "\n")
    with pytest.raises(CsvParseError) as err:
        load_csv(path, "y", ["v1"], ["z1"])
    assert err.value.problems == [(bad_row, "z1", "not a number: 'oops'")]


def test_clean_file_never_enters_the_row_pass(tmp_path):
    def row_pass(*args):
        raise AssertionError("row pass entered")

    clean = write(tmp_path, "y,v1,z1\n1,1,0.5\n0,0,-1e-3\n1,0,2\n")
    text_crlf = tmp_path / "ids.csv"
    text_crlf.write_bytes(
        b"id,y,v1,z1\r\nA-01,1,1,0.5\r\nx y,0,0,-1e-3\r\n,1,0,2\r\n"
    )
    # quoted names, text and numbers, as R's write.csv writes them
    quoted = write(
        tmp_path,
        '"id","y","v1","z1"\n"A,01",1,1,0.5\n"say ""x""",0,"0",-1e-3\n"",1,0,2\n',
        name="quoted.csv",
    )
    bad = write(tmp_path, "y,v1,z1\n1,1,0.5\n0,0,\n", name="bad.csv")
    with mock.patch.object(dataio, "_parse_rows", row_pass):
        data = load_csv(clean, "y", ["v1"], ["z1"])
        assert data.covariates[:, 0].tolist() == [0.5, -1e-3, 2.0]
        for path in (text_crlf, quoted):
            data = load_csv(path, "y", ["v1"], ["z1"])
            assert data.outcome.tolist() == [1, 0, 1]
            assert data.exposures[:, 0].tolist() == [1, 0, 0]
            assert data.covariates[:, 0].tolist() == [0.5, -1e-3, 2.0]
        with pytest.raises(AssertionError, match="row pass entered"):
            load_csv(bad, "y", ["v1"], ["z1"])


def test_measure_tokens():
    assert parse_measure_token("AP:2") == ("AP", 2)
    assert parse_measure_token("or") == ("OR", None)
    assert parse_measure_token(" si:3 ") == ("SI", 3)
    with pytest.raises(ValueError):
        parse_measure_token("AP:x")
    with pytest.raises(ValueError):
        parse_measure_token("FOO:1")


def test_psi_coordinate_names():
    assert psi_coordinate_names(2) == ["v1", "v2", "v1:v2"]
    assert psi_coordinate_names(2, ["a", "b"]) == ["a", "b", "a:b"]


DESIGN = """
# demo design
p = 2
q = 1
n0 = 40
n1 = 40
seed = 3
psi = 0.69314718055994531, 1.0986122886681098, 0.4054651081081644
kappa = -0.5, 0.25
exposure_probs = 0.4, 0.3
z1 = normal(0, 1)
measures = OR, AP:2, SI:2
fix =
"""


def test_parse_design_file(tmp_path):
    path = write(tmp_path, DESIGN, "design.txt")
    design, measures, fixed = parse_design_file(path)
    assert design.p == 2 and design.q == 1
    assert design.n0 == 40 and design.n1 == 40
    assert measures == [("OR", None), ("AP", 2), ("SI", 2)]
    assert fixed == {}
    assert np.isclose(design.psi_true.psi[0], np.log(2.0))


def test_parse_design_with_fix_and_discrete(tmp_path):
    text = DESIGN.replace("fix =", "fix = v2=1").replace(
        "z1 = normal(0, 1)", "z1 = discrete(0: 0.7, 1: 0.3)"
    )
    path = write(tmp_path, text, "design.txt")
    design, measures, fixed = parse_design_file(path)
    assert fixed == {1: 1}
    assert design.z_models[0].kind == "discrete"


def test_design_file_errors(tmp_path):
    with pytest.raises(ValueError, match="missing required key"):
        parse_design_file(write(tmp_path, "p = 2\n", "d1.txt"))
    with pytest.raises(ValueError, match="unknown design keys"):
        parse_design_file(write(tmp_path, DESIGN + "\nbogus = 1\n", "d2.txt"))
    with pytest.raises(ValueError, match="psi needs 3 values"):
        parse_design_file(
            write(tmp_path, DESIGN.replace("0.69314718055994531, ", ""), "d3.txt")
        )
    with pytest.raises(ValueError, match="duplicate key"):
        parse_design_file(write(tmp_path, DESIGN + "\np = 3\n", "d4.txt"))
