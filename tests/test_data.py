import hashlib
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from descent_lab.data import (
    Preprocessing,
    _legendre_matrix,
    load_csv,
    make_polynomial_dataset,
    make_student_teacher,
    polynomial_target,
)
from descent_lab.errors import DataError, DomainError
from descent_lab.linalg import pseudoinverse_apply

DIABETES = Path(__file__).resolve().parent.parent / "data" / "diabetes.csv"


def closed_form_legendre(x):
    return np.array(
        [
            x,
            (3 * x**2 - 1) / 2,
            (5 * x**3 - 3 * x) / 2,
            (35 * x**4 - 30 * x**2 + 3) / 8,
            (63 * x**5 - 70 * x**3 + 15 * x) / 8,
        ]
    )


def test_legendre_recurrence_matches_closed_forms():
    xs = np.linspace(-1.0, 1.0, 100)
    assert_allclose(_legendre_matrix(xs, 5), closed_form_legendre(xs).T, atol=1e-12)


def test_legendre_at_the_right_endpoint():
    assert_allclose(_legendre_matrix(np.array([1.0]), 7), np.ones((1, 7)), atol=1e-12)


def test_legendre_at_zero():
    # odd degrees vanish at the origin; P_2(0) = -1/2
    assert_allclose(_legendre_matrix(np.array([0.0]), 3), [[0.0, -0.5, 0.0]], atol=1e-15)
    assert_allclose(_legendre_matrix(np.array([0.5]), 2), [[0.5, -0.125]], atol=1e-15)


def test_polynomial_target_values():
    assert polynomial_target(0.0) == pytest.approx(1.0)
    x = np.pi / 25
    assert polynomial_target(x) == pytest.approx(2 * x - 1.0)
    # cos is even, so f(x) - f(-x) isolates the linear part
    xs = np.linspace(-1, 1, 11)
    assert_allclose(polynomial_target(xs) - polynomial_target(-xs), 4 * xs, atol=1e-12)


def test_polynomial_dataset_noiseless_targets():
    x, y = make_polynomial_dataset(1, 1, 0.0, seed=0)
    assert_allclose(y, polynomial_target(x[:, 0]))


def test_polynomial_dataset_shape_and_determinism():
    ax, ay = make_polynomial_dataset(10, 200, 0.5, seed=3)
    bx, by = make_polynomial_dataset(10, 200, 0.5, seed=3)
    assert ax.shape == (10, 200) and ay.shape == (10,)
    assert (ax == bx).all() and (ay == by).all()
    # the degree-1 column is x itself, and column k holds degree k + 1
    assert (np.abs(ax[:, 0]) <= 1.0).all()
    assert_allclose(ax[:, 1], (3 * ax[:, 0] ** 2 - 1) / 2, atol=1e-12)
    assert (ax == _legendre_matrix(ax[:, 0], 200)).all()


def test_polynomial_dataset_validation():
    with pytest.raises(DomainError):
        make_polynomial_dataset(0, 3, 0.1, seed=0)
    with pytest.raises(DomainError):
        make_polynomial_dataset(3, 0, 0.1, seed=0)


def test_student_teacher_noiseless_recovery():
    x, y, teacher = make_student_teacher(40, 12, 0.0, seed=5)
    assert x.shape == (40, 12) and y.shape == (40,)
    assert np.linalg.norm(teacher) == pytest.approx(1.0)
    beta = pseudoinverse_apply(x, y)
    assert_allclose(beta, teacher, atol=1e-8)


def test_student_teacher_determinism():
    ax, ay, ta = make_student_teacher(20, 4, 0.3, seed=9)
    bx, by, tb = make_student_teacher(20, 4, 0.3, seed=9)
    assert (ax == bx).all() and (ay == by).all() and (ta == tb).all()
    cx, _, _ = make_student_teacher(20, 4, 0.3, seed=10)
    assert not (ax == cx).all()


def test_student_teacher_validation():
    with pytest.raises(DomainError):
        make_student_teacher(1, 4, 0.1, seed=0)
    with pytest.raises(DomainError):
        make_student_teacher(10, 0, 0.1, seed=0)


def write(tmp_path, text, name="t.csv"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


def test_load_csv_basic(tmp_path):
    p = write(tmp_path, "a,b,y\n1,2,3\n4,5,6\n")
    x, y, prep = load_csv(p, "y")
    assert_allclose(x, [[1.0, 2.0], [4.0, 5.0]])
    assert_allclose(y, [3.0, 6.0])
    assert prep == Preprocessing(
        data_sha256=hashlib.sha256(p.read_bytes()).hexdigest(),
        rows_dropped_for_missing=0,
        constant_columns_dropped=[],
        non_numeric_columns_dropped=[],
    )


def test_load_csv_drops_and_counts_incomplete_rows(tmp_path):
    p = write(tmp_path, "a,b,y\n1,2,3\n4,,6\n7,8,\n9,10,11\n")
    x, y, prep = load_csv(p, "y")
    assert_allclose(x, [[1.0, 2.0], [9.0, 10.0]])
    assert_allclose(y, [3.0, 11.0])
    assert prep.rows_dropped_for_missing == 2


def test_load_csv_standardize(tmp_path):
    p = write(tmp_path, "a,b,y\n1,10,100\n2,20,200\n3,30,300\n")
    x, y, _ = load_csv(p, "y", standardize=True)
    assert_allclose(x.mean(axis=0), [0.0, 0.0], atol=1e-12)
    assert_allclose(x.std(axis=0), [1.0, 1.0], atol=1e-12)  # population sd
    assert_allclose(y, [100.0, 200.0, 300.0])  # target untouched


def test_load_csv_drops_non_numeric_columns(tmp_path):
    p = write(tmp_path, "a,label,y\n1,red,3\n2,blue,4\n")
    x, _, prep = load_csv(p, "y")
    assert_allclose(x, [[1.0], [2.0]])
    assert prep.non_numeric_columns_dropped == ["label"]


def test_load_csv_drops_constant_column_when_standardizing(tmp_path):
    p = write(tmp_path, "a,c,y\n1,7,3\n2,7,4\n3,7,5\n")
    x, _, prep = load_csv(p, "y", standardize=True)
    assert_allclose(x, np.sqrt(1.5) * np.array([[-1.0], [0.0], [1.0]]))
    assert prep.constant_columns_dropped == ["c"]
    # without standardization the constant column survives
    assert_allclose(load_csv(p, "y")[0], [[1.0, 7.0], [2.0, 7.0], [3.0, 7.0]])


def test_load_csv_error_cases(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_csv(tmp_path / "absent.csv", "y")
    with pytest.raises(DataError):
        load_csv(write(tmp_path, "a,b\n1,2\n"), "y")  # no target column
    with pytest.raises(DataError):
        load_csv(write(tmp_path, "a,y\n1,maybe\n2,never\n"), "y")  # target not numeric
    with pytest.raises(DataError):
        load_csv(write(tmp_path, "a,y\n,1\n,2\n"), "y")  # nothing survives cleaning
    with pytest.raises(DataError, match=f"{tmp_path}: cannot read"):
        load_csv(tmp_path, "y")  # a directory
    bad = tmp_path / "latin1.csv"
    bad.write_bytes(b"a,y\n\xff\xfe,1\n")
    with pytest.raises(DataError, match=f"{bad}: not UTF-8"):
        load_csv(bad, "y")


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "1e999", " NaN "])
@pytest.mark.parametrize("column", ["a", "y"])
def test_load_csv_rejects_non_finite_cells(tmp_path, cell, column):
    rows = {"a": ["1", "2", "3"], "y": ["4", "5", "6"]}
    rows[column][1] = cell
    p = write(tmp_path, "a,y\n" + "".join(f"{a},{y}\n" for a, y in zip(*rows.values())))
    for standardize in (True, False):
        with pytest.raises(DataError) as info:
            load_csv(p, "y", standardize=standardize)
        msg = str(info.value)
        assert str(p) in msg and "row 2 " in msg and repr(column) in msg
        assert "empty field means missing" in msg


@pytest.mark.parametrize("a", [["1", "1e300", "3"], ["1e308", "1e308", "1e308"]],
                         ids=["sd-overflows", "mean-overflows"])
def test_load_csv_rejects_a_column_too_large_to_standardize(tmp_path, a):
    # finite cells, but the column's sd (or mean) is inf, which would scale
    # the column to zeros
    p = write(tmp_path, "a,b,y\n" + "".join(f"{v},{i},{i}\n" for i, v in enumerate(a)))
    with pytest.raises(DataError) as info:
        load_csv(p, "y", standardize=True)
    assert str(p) in str(info.value) and "'a'" in str(info.value)
    assert load_csv(p, "y")[0][:, 0].tolist() == [float(v) for v in a]


def test_load_csv_ignores_non_finite_text_in_dropped_columns(tmp_path):
    p = write(tmp_path, "a,note,y\n1,nan,4\n2,ok,5\n3,inf,6\n")
    x, _, prep = load_csv(p, "y")
    assert_allclose(x, [[1.0], [2.0], [3.0]])
    assert prep.non_numeric_columns_dropped == ["note"]


def test_diabetes_file_shape():
    x, y, prep = load_csv(DIABETES, "target")
    assert x.shape == (442, 10) and y.shape == (442,)
    # the first row as written: age, sex, bmi, ..., and the target last
    assert x[0, :3].tolist() == [59.0, 2.0, 32.1] and y[0] == 151.0
    assert prep.data_sha256 == hashlib.sha256(DIABETES.read_bytes()).hexdigest()
