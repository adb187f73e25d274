import csv
import json
import shlex
import xml.dom.minidom
from pathlib import Path

import numpy as np
import pytest

from descent_lab.cli import (
    CSV_HEADER,
    config_hash,
    main,
    write_records_csv,
    _parse_grid,
    _parse_seeds,
)
from descent_lab.data import _legendre_matrix, make_polynomial_dataset, polynomial_target
from descent_lab.decomposition import (
    decompose_test_errors,
    factor_nested_ground_truth,
    make_nested_ground_truth,
)
from descent_lab.errors import ConfigError
from descent_lab.experiments import SweepRecord, _regime_fit
from descent_lab.linalg import pseudoinverse_apply, svd

REPO = Path(__file__).resolve().parent.parent

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
    assert lines[0] == CSV_HEADER
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
    assert "records.csv" in manifest["output_paths"]
    assert "manifest.json" in manifest["output_paths"]

    # the hash tracks the configuration, not the run
    m2 = json.loads((out2 / "manifest.json").read_text())
    assert m2["config_hash"] != manifest["config_hash"]  # --out differs
    out3 = tmp_path / "c"
    assert main(args + ["--seeds", "0:5", "--out", str(out3)]) == 0
    m3 = json.loads((out3 / "manifest.json").read_text())
    assert m3["config_hash"] != manifest["config_hash"]


def test_sweep_cutoff_ablation_from_the_command_line(tmp_path):
    out = tmp_path / "cut"
    code = main([
        "sweep", "--d", "8", "--grid", "2:24", "--seeds", "0:1",
        "--ablation", "sv-cutoff:0.5", "--out", str(out),
    ])
    assert code == 0
    rows = read_csv_rows(out / "records.csv")
    assert all(r["ablation"] == "sv-cutoff:0.5" for r in rows)
    svs = [float(r["smallest_nonzero_sv"]) for r in rows if r["smallest_nonzero_sv"]]
    assert svs and min(svs) >= 0.5


def test_bad_flags_exit_2(tmp_path, capsys):
    assert main(["sweep", "--grid", "junk", "--out", str(tmp_path)]) == 2
    assert main(["sweep", "--ablation", "flip-signs", "--out", str(tmp_path)]) == 2
    assert main(["sweep", "--estimator", "lasso", "--out", str(tmp_path)]) == 2
    assert main(["sweep", "--noise-sd", "-0.5", "--out", str(tmp_path)]) == 2
    assert main(["frobnicate"]) == 2  # argparse rejects unknown subcommands
    err = capsys.readouterr().err
    assert "descent-lab" in err


def test_missing_dataset_exits_1(tmp_path, capsys):
    code = main([
        "sweep", "--dataset", f"csv:{tmp_path}/absent.csv", "--target-col", "y",
        "--out", str(tmp_path / "out"),
    ])
    assert code == 1
    assert "absent.csv" in capsys.readouterr().err


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

    out2 = tmp_path / "poly2"
    main([
        "polyfit", "--n", "8", "--p-grid", "2:16:2", "--noise-sd", "0",
        "--seeds", "0:1", "--out", str(out2),
    ])
    assert (out / "records.csv").read_bytes() == (out2 / "records.csv").read_bytes()


def test_polyfit_records_ignore_thread_count(tmp_path, monkeypatch):
    args = ["polyfit", "--n", "30", "--p-grid", "1:60", "--noise-sd", "0.5", "--seeds", "0:3"]
    for threads in ("1", "2"):
        monkeypatch.setenv("DESCENT_LAB_THREADS", threads)
        assert main(args + ["--out", str(tmp_path / threads)]) == 0
    one = (tmp_path / "1" / "records.csv").read_bytes()
    assert one == (tmp_path / "2" / "records.csv").read_bytes()
    assert one.count(b"\n") == 1 + 60 * 4


def test_polyfit_records_match_the_per_cell_computation(tmp_path):
    # Seeds 0:1 of the documented polyfit command, byte for byte, against
    # each cell computed apart from the sweep: its own regime fit (which
    # factors the slice again where it falls back to the pseudoinverse),
    # then the nested ground truth and the decomposition.  Sharing the cell
    # SVD with the fit must not move a single bit of records.csv.
    out = tmp_path / "poly"
    argv = ["polyfit", "--n", "30", "--p-grid", "1:200", "--noise-sd", "0.5",
            "--seeds", "0:1", "--out", str(out)]
    assert main(argv) == 0
    xs = np.linspace(-1.0, 1.0, 1000)
    ye, xe_max = polynomial_target(xs), _legendre_matrix(xs, 200)
    records = []
    for seed in (0, 1):
        ds = make_polynomial_dataset(30, 200, 0.5, seed)
        truth = factor_nested_ground_truth(
            np.vstack([ds.X, xe_max]), np.concatenate([ds.Y, ye])
        )
        for p in range(1, 201):
            x = np.ascontiguousarray(ds.X[:, :p])
            xe = np.ascontiguousarray(xe_max[:, :p])
            s = svd(x)
            fit = _regime_fit(x, ds.Y)
            resid = xe @ fit.beta - ye
            gt = make_nested_ground_truth(truth, x, ds.Y)
            bias, var, _ = decompose_test_errors(xe, x, ds.Y, s, gt, fit.regime)
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


def test_readme_diabetes_command_runs(tmp_path, monkeypatch):
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    line = next(
        ln for ln in readme.splitlines() if ln.startswith("descent-lab sweep --dataset csv:")
    )
    argv = shlex.split(line)[1:]
    argv[argv.index("--seeds") + 1] = "0:1"  # fewer seeds, same command
    argv[argv.index("--out") + 1] = str(tmp_path / "diabetes")
    monkeypatch.chdir(REPO)  # the README path is relative to the checkout
    assert main(argv) == 0
    rows = read_csv_rows(tmp_path / "diabetes" / "records.csv")
    assert rows and all(r["d"] == "10" for r in rows)


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


def test_gdcheck_flag_validation(tmp_path):
    base = ["gdcheck", "--out", str(tmp_path / "x")]
    assert main(base + ["--n", "0"]) == 2
    assert main(base + ["--steps", "-5"]) == 2
    assert main(base + ["--eta", "fast"]) == 2
    assert main(base + ["--eta", "-0.1"]) == 2


def test_version_flag(capsys):
    assert main(["--version"]) == 0
    assert "descent-lab" in capsys.readouterr().out
