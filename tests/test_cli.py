import csv
import json
import math
import os
import re
import shlex
import subprocess
import sys
import xml.dom.minidom
from pathlib import Path

import numpy as np
import pytest

from descent_lab import cli, linalg
from descent_lab.cli import (
    CSV_HEADER,
    config_hash,
    main,
    write_records_csv,
    _panel_degrees,
    _parse_grid,
    _parse_seeds,
)
from descent_lab.data import _legendre_matrix, make_polynomial_dataset, polynomial_target
from descent_lab.decomposition import (
    decompose_test_errors,
    factor_nested_ground_truth,
    make_nested_ground_truth,
)
from descent_lab.errors import ConfigError, EmptySeriesError
from descent_lab.estimators import fit_pinv
from descent_lab.experiments import SweepConfig, SweepRecord, _prepare
from descent_lab.linalg import pseudoinverse_apply, svd

REPO = Path(__file__).resolve().parent.parent
# The records.csv header line as README documents it.
README_HEADER = next(
    line for line in (REPO / "README.md").read_text(encoding="utf-8").splitlines()
    if line.startswith("n_train,")
)

def test_parse_grid_forms():
    assert _parse_grid("7") == [7]
    assert _parse_grid("2:5") == [2, 3, 4, 5]
    assert _parse_grid("0:10:5") == [0, 5, 10]
    assert _parse_grid("2:24") == list(range(2, 25))
    assert _parse_seeds("0:29") == list(range(30))
    assert _parse_seeds("4") == [4]


def test_parse_grid_rejects_junk():
    for bad in ("", "a:b", "1:", ":5", "1:2:3:4", "3:1", "1:9:0", "1:9:-2", "2.5"):
        with pytest.raises(ConfigError):
            _parse_grid(bad)


def sample_records():
    return [
        SweepRecord(
            n_train=2, d=4, seed=0, ablation="none", estimator="pinv",
            train_mse=0.0, test_mse=1.2345678901234567, smallest_nonzero_sv=0.5,
            bias_term_mean=0.25, variance_term_mean=1.25, regime="overparameterized",
        ),
        SweepRecord(
            n_train=3, d=4, seed=1, ablation="sv-cutoff:0.5", estimator="ridge:0.1",
            train_mse=1e-30, test_mse=2.0, smallest_nonzero_sv=None,
            bias_term_mean=0.0, variance_term_mean=0.0, regime="overparameterized",
        ),
    ]


def test_records_csv_schema(tmp_path):
    path = tmp_path / "records.csv"
    write_records_csv(path, sample_records())
    raw = path.read_bytes().decode("utf-8")
    lines = raw.split("\n")
    # the header follows SweepRecord's fields, so pin it to the documented one
    assert CSV_HEADER == README_HEADER
    assert lines[0] == README_HEADER
    assert "\r" not in raw  # LF only, also on platforms that default to CRLF
    row = lines[1].split(",")
    assert row[:5] == ["2", "4", "0", "none", "pinv"]
    assert row[6] == "1.23456789012"  # 12 significant digits
    assert lines[2].split(",")[7] == ""  # missing sv -> empty cell
    assert lines[3] == ""  # trailing newline, nothing after


def test_config_hash_is_stable_and_sensitive():
    a = {"d": 8, "seeds": "0:4", "noise_sd": 0.25}
    b = {"noise_sd": 0.25, "seeds": "0:4", "d": 8}  # key order is irrelevant
    assert config_hash(a) == config_hash(b)
    assert len(config_hash(a)) == 64
    assert set(config_hash(a)) <= set("0123456789abcdef")
    assert config_hash(a) != config_hash({**a, "seeds": "0:5"})
    assert config_hash(a) != config_hash({**a, "noise_sd": 0.3})
    # how many BLAS threads a run held is not the experiment
    assert config_hash(a) == config_hash({**a, "blas_threads": 1})
    assert config_hash(a) == config_hash({**a, "blas_threads": None})


def test_config_hash_identifies_the_resolved_experiment(tmp_path):
    def run(name, *argv):
        out = tmp_path / name
        assert main(["sweep", *argv, "--seeds", "0:1", "--out", str(out)]) == 0
        return json.loads((out / "manifest.json").read_text())["config_hash"]

    # the default grid of D = 8 is 2:24
    default = run("default", "--d", "8")
    assert run("typed", "--d", "8", "--grid", "2:24") == default
    typed = (tmp_path / "typed" / "records.csv").read_bytes()
    assert typed == (tmp_path / "default" / "records.csv").read_bytes()
    # a csv dataset sets D itself, so --d does not reach the experiment
    csv_run = ["--dataset", f"csv:{REPO / 'data' / 'diabetes.csv'}", "--target-col", "target"]
    csv_default = run("csv5", *csv_run, "--d", "5")
    assert run("csv20", *csv_run, "--d", "20") == csv_default
    # nor do other flags that do not apply to the source ...
    csv_noise = run("csv-noise1", *csv_run, "--noise-sd", "0.1")
    assert csv_noise == run("csv-noise3", *csv_run, "--noise-sd", "0.3")
    assert run("raw", "--d", "8", "--no-standardize") == default
    assert run("target", "--d", "8", "--target-col", "foo") == default
    # ... while those that do apply do
    assert run("csv-raw", *csv_run, "--no-standardize") != csv_default
    noise = run("noise1", "--d", "8", "--noise-sd", "0.1")
    assert noise != run("noise3", "--d", "8", "--noise-sd", "0.3")


def test_config_hash_follows_the_csv_data_not_its_path(tmp_path, monkeypatch):
    def run(name, path):
        out = tmp_path / name
        assert main(["sweep", "--dataset", f"csv:{path}", "--target-col", "target",
                     "--seeds", "0:1", "--out", str(out)]) == 0
        return json.loads((out / "manifest.json").read_text())["config_hash"]

    monkeypatch.chdir(REPO)
    plain = run("plain", "data/diabetes.csv")
    assert run("dotted", "./data/diabetes.csv") == plain
    assert (tmp_path / "dotted" / "records.csv").read_bytes() == (
        tmp_path / "plain" / "records.csv"
    ).read_bytes()
    copy = tmp_path / "copy.csv"
    copy.write_bytes((REPO / "data" / "diabetes.csv").read_bytes())
    assert run("copy", copy) == plain  # the same bytes under another path
    lines = copy.read_text(encoding="utf-8").splitlines()
    first = lines[1].split(",")
    first[0] = repr(float(first[0]) + 0.5)
    copy.write_text("\n".join([lines[0], ",".join(first), *lines[2:]]) + "\n",
                    encoding="utf-8")
    assert run("edited", copy) != plain


def test_a_csv_sweep_manifest_says_what_the_loader_dropped(tmp_path):
    # one row with a missing field, one constant column, one non-numeric
    # column: the manifest's data block counts each, beside resolved
    rng = np.random.default_rng(5)
    lines = ["a,b,c,d,const,name,target"]
    for i in range(30):
        a, b, c, d, target = rng.standard_normal(5).tolist()
        lines.append(f"{a!r},{'' if i == 7 else repr(b)},{c!r},{d!r},1.5,row{i},{target!r}")
    path = tmp_path / "table.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main(["sweep", "--dataset", f"csv:{path}", "--target-col", "target",
                 "--grid", "2:20", "--seeds", "0", "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["data"] == {
        "rows_dropped_for_missing": 1,
        "constant_columns_dropped": ["const"],
        "non_numeric_columns_dropped": ["name"],
    }
    assert manifest["resolved"]["d"] == 4 and "data" not in manifest["resolved"]
    assert manifest["config_hash"] == config_hash(manifest["resolved"])
    synthetic = tmp_path / "synthetic"
    assert main(["sweep", "--d", "4", "--grid", "2:8", "--seeds", "0",
                 "--out", str(synthetic)]) == 0
    assert "data" not in json.loads((synthetic / "manifest.json").read_text())


def held_blas_threads():
    """The BLAS thread count sweeps run with: 1, or None without an
    OpenBLAS to hold."""
    return 1 if linalg._openblas_controls() else None


def read_csv_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def parse_svg(path):
    return xml.dom.minidom.parseString(Path(path).read_text(encoding="utf-8"))


def test_sweep_end_to_end(tmp_path):
    out1 = tmp_path / "a"
    args = ["sweep", "--d", "8", "--grid", "2:24", "--seeds", "0:4"]
    assert main(args + ["--out", str(out1)]) == 0

    rows = read_csv_rows(out1 / "records.csv")
    assert len(rows) == 23 * 5
    assert list(rows[0].keys()) == CSV_HEADER.split(",")
    assert {r["regime"] for r in rows} == {
        "overparameterized", "interpolation", "underparameterized"
    }

    # identical invocation, fresh directory: byte-identical records
    out2 = tmp_path / "b"
    assert main(args + ["--out", str(out2)]) == 0
    assert (out1 / "records.csv").read_bytes() == (out2 / "records.csv").read_bytes()

    for svg in ("test-mse-vs-n.svg", "smallest-sv-vs-n.svg"):
        doc = parse_svg(out1 / svg)
        assert doc.documentElement.tagName == "svg"

    manifest = json.loads((out1 / "manifest.json").read_text())
    assert manifest["command"] == "sweep"
    assert len(manifest["config_hash"]) == 64
    assert manifest["cells_total"] == 115
    assert manifest["cells_failed"] == 0
    assert manifest["resolved"]["ablation"] == "none"
    assert manifest["resolved"]["d"] == 8
    assert manifest["resolved"]["blas_threads"] == held_blas_threads()
    assert "records.csv" in manifest["output_paths"]
    assert "manifest.json" in manifest["output_paths"]

    # the hash tracks the experiment, not the run or where it was written
    m2 = json.loads((out2 / "manifest.json").read_text())
    assert m2["config_hash"] == manifest["config_hash"]
    out3 = tmp_path / "c"
    assert main(args + ["--seeds", "0:5", "--out", str(out3)]) == 0
    m3 = json.loads((out3 / "manifest.json").read_text())
    assert m3["config_hash"] != manifest["config_hash"]


def test_sweep_cutoff_ablation_from_the_command_line(tmp_path):
    out = tmp_path / "cut"
    code = main([
        "sweep", "--d", "8", "--grid", "2:24", "--seeds", "0:1",
        "--ablation", "sv-cutoff", "--out", str(out),
    ])
    assert code == 0
    tau = json.loads((out / "manifest.json").read_text(encoding="utf-8"))["resolved"]["tau"]
    rows = read_csv_rows(out / "records.csv")
    assert all(r["ablation"] == f"sv-cutoff:{tau:.12g}" for r in rows)
    svs = [float(r["smallest_nonzero_sv"]) for r in rows if r["smallest_nonzero_sv"]]
    # the column is written to 12 significant digits
    assert svs and min(svs) >= tau * (1 - 1e-11)


@pytest.mark.parametrize("ablation", ["sv-cutoff", "test-projection", "none"])
def test_manifest_records_tau_at_full_precision(tmp_path, ablation):
    out = tmp_path / "tau"
    code = main([
        "sweep", "--d", "8", "--noise-sd", "0.25", "--grid", "2:24", "--seeds", "0:2",
        "--ablation", ablation, "--out", str(out),
    ])
    assert code == 0
    tau = json.loads((out / "manifest.json").read_text(encoding="utf-8"))["resolved"]["tau"]
    if ablation == "none":
        assert tau is None
    else:
        config = SweepConfig(d=8, noise_sd=0.25, grid=list(range(2, 25)), seeds=[0, 1, 2],
                             ablation="sv-cutoff")
        assert tau == _prepare(config).tau


def test_bad_flags_exit_2(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["sweep", "--grid", "junk", "--out", str(out)]) == 2
    assert main(["sweep", "--ablation", "flip-signs", "--out", str(out)]) == 2
    assert main(["sweep", "--estimator", "lasso", "--out", str(out)]) == 2
    assert main(["sweep", "--noise-sd", "-0.5", "--out", str(out)]) == 2
    assert main(["polyfit", "--p-grid", "1:300", "--out", str(out)]) == 2
    assert not out.exists()  # a rejected run leaves no output directory
    assert main(["frobnicate"]) == 2  # argparse rejects unknown subcommands
    err = capsys.readouterr().err
    assert "descent-lab" in err


@pytest.mark.parametrize("command", [
    ["sweep", "--d", "8", "--seeds=-1:0"],
    ["sweep", "--d", "8", "--seeds=-1:0", "--ablation", "sv-cutoff"],
    ["polyfit", "--n", "8", "--p-grid", "2:16:2", "--seeds=-2"],
    ["gdcheck", "--n", "4", "--d", "8", "--steps", "10", "--seeds=-1"],
], ids=["sweep", "sweep-sv-cutoff", "polyfit", "gdcheck"])
def test_negative_seeds_exit_2_before_any_output(tmp_path, capsys, command):
    out = tmp_path / "out"
    assert main([*command, "--out", str(out)]) == 2
    assert not out.exists()
    assert "seeds must be >= 0" in capsys.readouterr().err


def _must_not_run(*args, **kwargs):
    raise AssertionError("a cell ran")


@pytest.mark.parametrize("sub", ["", "a/b"], ids=["file", "under-a-file"])
@pytest.mark.parametrize("command", [
    ["sweep", "--d", "4", "--grid", "2:12", "--seeds", "0"],
    ["polyfit", "--n", "8", "--p-grid", "2:16:2", "--seeds", "0"],
    ["gdcheck", "--n", "4", "--d", "8", "--steps", "10", "--seeds", "0"],
], ids=["sweep", "polyfit", "gdcheck"])
def test_an_out_at_a_file_exits_2_before_any_cell(tmp_path, capsys, monkeypatch, command, sub):
    for name in ("run_sweep", "run_polynomial_sweep", "fit_gradient_descent"):
        monkeypatch.setattr(cli, name, _must_not_run)
    file = tmp_path / "file"
    file.write_text("kept\n", encoding="utf-8")
    assert main([*command, "--out", str(file / sub)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("descent-lab: cannot write to --out")
    assert f"{file} is not a directory" in err[0]
    assert file.read_text(encoding="utf-8") == "kept\n"


@pytest.mark.parametrize("flags", [
    ["--grid", "40:50"],
    ["--grid", "40:50", "--allow-narrow-grid"],
    ["--ablation", "sv-cutoff:0.5"],
    ["--ablation", "test-projection:auto"],
    ["--estimator", "ridge:auto:0.3"],
    ["--dataset", f"csv:{REPO / 'data' / 'diabetes.csv'}", "--target-col", "target",
     "--grid", "2:360"],
    ["--seeds", "3:1"],
    ["--seeds=-1"],
], ids=["narrow-grid", "allow-narrow-grid", "sv-cutoff:0.5", "test-projection:auto",
        "ridge:auto:0.3", "grid-past-pool", "no-seeds", "negative-seed"])
def test_a_narrow_grid_or_a_removed_setting_exits_2_with_one_line(tmp_path, capsys, flags):
    # The grid must span D and, for a csv, end within its training pool; the
    # cutoff is set by the data and ridge:auto's coefficient is fixed: no
    # flag or spelling sets any of them; the seeds are a non-empty range of
    # seeds >= 0.
    out = tmp_path / "out"
    assert main(["sweep", "--d", "32", "--seeds", "0", *flags, "--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("descent-lab: ")


def _small_csv(tmp_path, features: int) -> Path:
    path = tmp_path / "small.csv"
    rows = np.random.default_rng(0).standard_normal((5, features + 1))
    lines = [",".join(["y", *"abcdefgh"[:features]])]
    lines += [",".join(f"{v:.6f}" for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def test_a_two_feature_csv_runs_on_the_default_grid(tmp_path):
    # 5 rows leave a 4-row pool; the default grid starts at 1, below D = 2.
    out = tmp_path / "out"
    assert main(["sweep", "--dataset", f"csv:{_small_csv(tmp_path, 2)}", "--target-col", "y",
                 "--seeds", "0:1", "--out", str(out)]) == 0
    resolved = json.loads((out / "manifest.json").read_text(encoding="utf-8"))["resolved"]
    assert resolved["d"] == 2 and resolved["grid"] == [1, 2, 3, 4]


def test_a_one_feature_csv_exits_2_saying_no_grid_point_lies_below_d(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["sweep", "--dataset", f"csv:{_small_csv(tmp_path, 1)}", "--target-col", "y",
                 "--seeds", "0", "--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "no grid point lies below D=1" in err[0]


@pytest.mark.parametrize("flags", [
    ["--ablation", "test-projection:nan"],
    ["--ablation", "test-projection:inf"],
    ["--ablation", "sv-cutoff:nan"],
    ["--estimator", "ridge:inf"],
    ["--estimator", "ridge:auto:inf"],
])
def test_non_finite_cutoff_or_ridge_strength_exits_2(tmp_path, capsys, flags):
    out = tmp_path / "out"
    assert main(["sweep", "--d", "8", "--grid", "2:24", "--seeds", "0:1",
                 *flags, "--out", str(out)]) == 2
    assert not (out / "records.csv").exists()
    # A fixed lambda is refused for not being finite; a cutoff or an auto
    # coefficient is refused whatever its value, naming the spelling.
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert ("finite" if flags[1] == "ridge:inf" else repr(flags[1])) in err[0]


@pytest.mark.parametrize("noise", ["nan", "inf", "-0.5"])
@pytest.mark.parametrize("command", [
    ["sweep", "--d", "8", "--grid", "2:24", "--seeds", "0:1"],
    ["polyfit", "--n", "8", "--p-grid", "2:16:2", "--seeds", "0:1"],
])
def test_bad_noise_sd_exits_2_before_any_record(tmp_path, capsys, command, noise):
    out = tmp_path / "out"
    assert main([*command, "--noise-sd", noise, "--out", str(out)]) == 2
    assert not out.exists()
    assert "noise-sd must be finite and >= 0" in capsys.readouterr().err


def test_a_failed_sweep_says_so_on_stderr(tmp_path, capsys):
    # every cell overflows X^+ y; the exit code and one stderr line say so,
    # and the manifest lists each failure
    out = tmp_path / "out"
    assert main(["sweep", "--d", "4", "--grid", "2:12", "--seeds", "0",
                 "--noise-sd", "1e200", "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [
        f"descent-lab sweep: 11 of 11 cells failed, the first with "
        f"{json.loads((out / 'manifest.json').read_text())['failures'][0]['error']}; "
        f"see {out / 'manifest.json'}"
    ]
    assert "DomainError: X^+ y overflows" in err[0]


def test_an_overflowing_mse_fails_its_cell_instead_of_recording_inf(tmp_path):
    # Test residuals near 1e153 square past the largest float at P 5..20.  A
    # fresh interpreter runs the command as a user would: under pytest the
    # RuntimeWarning numpy prints for it is an error, which would fail the
    # cells for the wrong reason.
    out = tmp_path / "poly"
    run = subprocess.run(
        [sys.executable, "-m", "descent_lab", "polyfit", "--n", "30", "--p-grid", "1:60",
         "--seeds", "0", "--noise-sd", "1e153", "--out", str(out)],
        env={**os.environ, "PYTHONPATH": str(REPO / "src")},
        capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 1
    assert "RuntimeWarning" not in run.stderr
    rows = read_csv_rows(out / "records.csv")
    assert rows and all(math.isfinite(float(r[k])) for r in rows for k in ("train_mse", "test_mse"))
    failures = json.loads((out / "manifest.json").read_text())["failures"]
    overflows = [f for f in failures if "MSE overflows" in f["error"]]
    assert [f["p"] for f in overflows] == list(range(5, 21))
    assert all(f["error"].startswith("DomainError: the test MSE overflows") for f in overflows)


def test_a_failed_panel_still_leaves_a_manifest(tmp_path, capsys):
    # The only cell overflows X^+ y, and so does the curve panel's own fit,
    # after records.csv is written.
    out = tmp_path / "poly"
    assert main(["polyfit", "--n", "30", "--p-grid", "200:200", "--seeds", "0",
                 "--noise-sd", "1e300", "--out", str(out)]) == 1
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json", "records.csv"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["output_paths"] == ["records.csv", "manifest.json"]
    [failed] = manifest["outputs_failed"]
    assert failed["output"] == "fitted-curves.svg"
    assert failed["error"].startswith("DomainError: X^+ y overflows")
    assert capsys.readouterr().err.splitlines() == [
        f"descent-lab polyfit: 1 of 1 cells failed, the first with "
        f"{manifest['failures'][0]['error']}; fitted-curves.svg not written: "
        f"{failed['error']}; see {out / 'manifest.json'}"
    ]


def test_a_plot_that_raises_is_named_and_the_rest_are_written(tmp_path, capsys, monkeypatch):
    render = cli.render_line_svg

    def failing(series, labels, markers, **kw):
        if kw["y_label"] == "singular value":
            raise EmptySeriesError("series 0 contains non-finite values")
        return render(series, labels, markers, **kw)

    monkeypatch.setattr(cli, "render_line_svg", failing)
    out = tmp_path / "sweep"
    assert main(["sweep", "--d", "4", "--grid", "2:12", "--seeds", "0", "--out", str(out)]) == 1
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["cells_failed"] == 0
    assert manifest["output_paths"] == ["records.csv", "test-mse-vs-n.svg", "manifest.json"]
    error = "EmptySeriesError: series 0 contains non-finite values"
    assert manifest["outputs_failed"] == [{"output": "smallest-sv-vs-n.svg", "error": error}]
    assert capsys.readouterr().err == (
        f"descent-lab sweep: smallest-sv-vs-n.svg not written: {error}; "
        f"see {out / 'manifest.json'}\n"
    )


def test_missing_dataset_exits_1(tmp_path, capsys):
    code = main([
        "sweep", "--dataset", f"csv:{tmp_path}/absent.csv", "--target-col", "y",
        "--out", str(tmp_path / "out"),
    ])
    assert code == 1
    assert "absent.csv" in capsys.readouterr().err


@pytest.mark.parametrize("content", [None, b"a,y\n\xff\xfe,1\n"], ids=["directory", "not-utf-8"])
def test_an_unreadable_csv_exits_1_with_one_line(tmp_path, capsys, content):
    path = tmp_path / "data"
    if content is None:
        path.mkdir()
    else:
        path.write_bytes(content)
    code = main(["sweep", "--dataset", f"csv:{path}", "--target-col", "y",
                 "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"descent-lab: {path}: ") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_polyfit_end_to_end(tmp_path):
    out = tmp_path / "poly"
    code = main([
        "polyfit", "--n", "8", "--p-grid", "2:16:2", "--noise-sd", "0",
        "--seeds", "0:1", "--out", str(out),
    ])
    assert code == 0
    rows = read_csv_rows(out / "records.csv")
    assert len(rows) == 8 * 2
    assert all(r["n_train"] == "8" for r in rows)
    # noiseless samples are interpolated exactly once P reaches n
    for r in rows:
        if int(r["d"]) >= 8:
            assert float(r["train_mse"]) <= 1e-8
    for svg in ("test-mse-vs-p.svg", "fitted-curves.svg"):
        assert parse_svg(out / svg).documentElement.tagName == "svg"
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["resolved"]["blas_threads"] == held_blas_threads()
    assert "outputs_failed" not in manifest

    out2 = tmp_path / "poly2"
    main([
        "polyfit", "--n", "8", "--p-grid", "2:16:2", "--noise-sd", "0",
        "--seeds", "0:1", "--out", str(out2),
    ])
    assert (out / "records.csv").read_bytes() == (out2 / "records.csv").read_bytes()


def test_the_curve_panel_draws_only_swept_p(tmp_path):
    # n // 3 = 10 and n = 30 lie past a 1:5 grid, so every pick falls back to
    # its largest grid value, and the panel draws the one swept P = 5.
    out = tmp_path / "poly"
    assert main(["polyfit", "--n", "30", "--p-grid", "1:5", "--seeds", "0",
                 "--out", str(out)]) == 0
    assert re.findall(r"fit, P = (\d+)", (out / "fitted-curves.svg").read_text()) == ["5"]


@pytest.mark.parametrize("n, p_grid, degrees", [
    (30, list(range(1, 201)), [10, 30, 200]),  # the documented command
    (8, list(range(2, 17, 2)), [2, 8, 16]),
    (700, [1, 51, 101, 151], [151]),
    (30, [12, 40], [12, 40]),  # no grid value at or below n // 3: the smallest
    (1_000_000, [1, 2, 3, 4, 5], [5]),
])
def test_panel_degrees_come_from_the_grid(n, p_grid, degrees):
    assert _panel_degrees(n, p_grid) == degrees


def test_polyfit_records_ignore_the_blas_thread_count(tmp_path):
    # The process's BLAS count before the sweep must not reach the records.
    # Seed 2 is in the range because at P = 190 its variance column moves
    # in the last printed digit between one and two BLAS threads.
    controls = linalg._openblas_controls()
    if not controls:
        pytest.skip("no OpenBLAS thread control in this process")
    get, set_ = controls[0]
    before = get()
    argv = ["polyfit", "--n", "30", "--p-grid", "1:200", "--noise-sd", "0.5",
            "--seeds", "0:2"]
    try:
        for count in (1, 2):
            set_(count)
            assert main(argv + ["--out", str(tmp_path / str(count))]) == 0
            assert get() == count
    finally:
        set_(before)
    one = (tmp_path / "1" / "records.csv").read_bytes()
    assert one == (tmp_path / "2" / "records.csv").read_bytes()


def test_sweep_without_blas_control_writes_the_same_records(tmp_path, monkeypatch):
    # Where no OpenBLAS can be held the limit does nothing, and says so.
    args = ["sweep", "--d", "8", "--grid", "2:24", "--seeds", "0:4"]
    assert main(args + ["--out", str(tmp_path / "held")]) == 0
    monkeypatch.setattr(linalg, "_openblas_controls", lambda: ())
    assert main(args + ["--out", str(tmp_path / "free")]) == 0
    held, free = tmp_path / "held", tmp_path / "free"
    assert (held / "records.csv").read_bytes() == (free / "records.csv").read_bytes()
    resolved = json.loads((free / "manifest.json").read_text())["resolved"]
    assert resolved["blas_threads"] is None


def test_polyfit_records_match_the_per_cell_computation(tmp_path):
    # Seeds 0:1 of the documented polyfit command, byte for byte, against
    # each cell computed apart from the sweep: the pseudoinverse fit on the
    # slice's own SVD, then the nested ground truth and the decomposition on
    # that same SVD.  The cells are computed on one BLAS thread, as the sweep
    # runs them.
    out = tmp_path / "poly"
    argv = ["polyfit", "--n", "30", "--p-grid", "1:200", "--noise-sd", "0.5",
            "--seeds", "0:1", "--out", str(out)]
    assert main(argv) == 0
    xs = np.linspace(-1.0, 1.0, 1000)
    ye, xe_max = polynomial_target(xs), _legendre_matrix(xs, 200)
    records = []
    with linalg.one_blas_thread():
        for seed in (0, 1):
            x_max, y = make_polynomial_dataset(30, 200, 0.5, seed)
            truth = factor_nested_ground_truth(
                np.column_stack([np.vstack([x_max, xe_max]), np.concatenate([y, ye])])
            )
            for p in range(1, 201):
                x = np.ascontiguousarray(x_max[:, :p])
                xe = np.ascontiguousarray(xe_max[:, :p])
                s = svd(x)
                fit = fit_pinv(x, y, s=s)
                resid = xe @ fit.beta - ye
                gt = make_nested_ground_truth(truth, x, y)
                bias, var, _ = decompose_test_errors(xe, x, y, s, gt)
                records.append(SweepRecord(
                    n_train=30, d=p, seed=seed, ablation="none", estimator="pinv",
                    train_mse=fit.train_mse, test_mse=float(resid @ resid / 1000),
                    smallest_nonzero_sv=float(s.singular_values[-1]),
                    bias_term_mean=float(np.mean(np.abs(bias))),
                    variance_term_mean=float(np.mean(np.abs(var))),
                    regime=fit.regime,
                ))
    records.sort(key=lambda r: (r.n_train, r.seed, r.d))
    write_records_csv(tmp_path / "want.csv", records)
    assert (out / "records.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


README_COMMANDS = [
    shlex.split(line)[1:]
    for line in (REPO / "README.md").read_text(encoding="utf-8").splitlines()
    if line.startswith("descent-lab ")
]
# The manifest's resolved block, key by key, for each subcommand (and for
# each source of sweep).
RESOLVED_KEYS = {
    "sweep": ["source", "d", "noise_sd", "grid", "seeds", "ablation", "tau", "estimator",
              "blas_threads"],
    "csv sweep": ["source", "data_sha256", "target_column", "standardize", "d", "grid", "seeds",
                  "ablation", "tau", "estimator", "blas_threads"],
    "polyfit": ["n", "noise_sd", "p_grid", "seeds", "blas_threads"],
    "gdcheck": ["n", "d", "steps", "seeds", "etas", "record_every"],
}


@pytest.mark.parametrize(
    "argv", README_COMMANDS, ids=[argv[argv.index("--out") + 1] for argv in README_COMMANDS]
)
def test_readme_command_runs(tmp_path, monkeypatch, argv):
    # as written, on seeds 0:1 (fewer seeds, same command) into a tmp --out
    argv = list(argv)
    if "--seeds" in argv:
        argv[argv.index("--seeds") + 1] = "0:1"
    else:
        argv += ["--seeds", "0:1"]
    out = tmp_path / "out"
    argv[argv.index("--out") + 1] = str(out)
    monkeypatch.chdir(REPO)  # README paths are relative to the checkout
    assert main(argv) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest.get("cells_failed", 0) == 0
    csv_source = manifest["config"].get("dataset", "").startswith("csv:")
    assert list(manifest["resolved"]) == RESOLVED_KEYS["csv sweep" if csv_source else argv[0]]
    if argv[0] == "sweep":
        rows = read_csv_rows(out / "records.csv")
        assert len(rows) == manifest["cells_total"]
        assert {r["d"] for r in rows} == {str(manifest["resolved"]["d"])}


@pytest.mark.parametrize("extra", [
    [], ["--no-standardize"], ["--no-standardize", "--ablation", "sv-cutoff"],
])
def test_sweep_rejects_non_finite_csv_cells(tmp_path, capsys, extra):
    # nan and inf must stop every path before any cell runs: standardizing
    # would drop both columns as constant, and the raw paths would fail every
    # cell or the cutoff pass.
    lines = (REPO / "data" / "diabetes.csv").read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    for line_no, column, value in ((6, "bmi", "nan"), (10, "bp", "inf")):
        cells = lines[line_no - 1].split(",")
        cells[header.index(column)] = value
        lines[line_no - 1] = ",".join(cells)
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = tmp_path / "out"
    code = main([
        "sweep", "--dataset", f"csv:{bad}", "--target-col", "target", "--seeds", "0:1",
        "--out", str(out), *extra,
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert "bad.csv: row 5 (line 6), column 'bmi'" in err
    assert "empty field means missing" in err
    assert not (out / "records.csv").exists()


def test_gdcheck_end_to_end(tmp_path):
    out = tmp_path / "gd"
    code = main([
        "gdcheck", "--n", "4", "--d", "8", "--steps", "4000",
        "--seeds", "0:2", "--out", str(out),
    ])
    assert code == 0
    with open(out / "distances.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["seed", "step", "distance"]
    assert rows[1][:2] == ["0", "0"]  # first sample is the starting distance
    assert len(rows) > 3
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["all_converged"] is True
    assert manifest["resolved"]["record_every"] == 4
    assert parse_svg(out / "distance-vs-step.svg").documentElement.tagName == "svg"


def test_gdcheck_divergence_exits_1(tmp_path, capsys):
    code = main([
        "gdcheck", "--n", "4", "--d", "8", "--steps", "2000",
        "--eta", "10", "--seeds", "0:1", "--out", str(tmp_path / "gd"),
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert "divergence at step" in err


def test_gdcheck_non_finite_loss_is_a_divergence(tmp_path, capsys):
    # a step of 1e308 overflows to an inf or nan loss at once
    out = tmp_path / "gd"
    code = main(["gdcheck", "--n", "5", "--d", "10", "--steps", "100",
                 "--eta", "1e308", "--seeds", "0", "--out", str(out)])
    assert code == 1
    assert "divergence at step 1 (seed 0" in capsys.readouterr().err
    assert not (out / "distances.csv").exists()


def test_gdcheck_divergence_leaves_a_manifest(tmp_path, capsys):
    out = tmp_path / "gd"
    code = main(["gdcheck", "--n", "5", "--d", "10", "--steps", "100",
                 "--eta", "1e308", "--seeds", "0", "--out", str(out)])
    assert code == 1
    assert "divergence at step 1 (seed 0, eta 1e+308)" in capsys.readouterr().err
    assert [p.name for p in out.iterdir()] == ["manifest.json"]
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["all_converged"] is False
    assert manifest["divergence"] == {"seed": 0, "step": 1, "eta": 1e308}
    assert manifest["output_paths"] == ["manifest.json"]
    assert manifest["resolved"]["etas"] == {"0": 1e308}


def test_gdcheck_zero_steps_reports_initial_distance(tmp_path):
    out = tmp_path / "gd0"
    code = main([
        "gdcheck", "--n", "3", "--d", "6", "--steps", "0",
        "--seeds", "0", "--out", str(out),
    ])
    assert code == 1  # nothing moved, so nothing converged
    with open(out / "distances.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 2
    rng = np.random.default_rng(0)
    x = rng.standard_normal((3, 6))
    y = rng.standard_normal(3)
    expected = float(np.linalg.norm(pseudoinverse_apply(x, y)))
    assert float(rows[1][2]) == pytest.approx(expected, rel=1e-9)


def test_gdcheck_flag_validation(tmp_path, capsys):
    base = ["gdcheck", "--out", str(tmp_path / "x")]
    assert main(base + ["--n", "0"]) == 2
    assert main(base + ["--steps", "-5"]) == 2
    assert main(base + ["--eta", "fast"]) == 2
    assert main(base + ["--eta", "-0.1"]) == 2
    assert main(base + ["--eta", "inf"]) == 2
    assert "eta must be finite and > 0, got inf" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()  # every rejection comes before any output


def test_version_flag(capsys):
    assert main(["--version"]) == 0
    assert "descent-lab" in capsys.readouterr().out
