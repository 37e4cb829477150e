import numpy as np
import pytest

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
