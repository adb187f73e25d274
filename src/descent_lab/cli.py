"""Command-line front end.

Three subcommands, all writing files for downstream analysis rather than
anything interactive:

* ``sweep``: walk n_train across the interpolation threshold on synthetic
  student-teacher data or a CSV dataset; write records.csv, manifest.json,
  and SVG plots of median test MSE and smallest nonzero singular value.
* ``polyfit``: walk the Legendre feature count P at fixed n; write records
  plus a panel of fitted curves below, at, and beyond the threshold.
* ``gdcheck``: verify that gradient descent from zero converges to the
  pseudoinverse solution; write per-seed distance trajectories.

Grid and seed ranges use ``a:b`` (inclusive) or ``a:b:s`` (stride) syntax.
Exit codes: 0 on success (at least 90% of cells succeeded), 1 on runtime
failure, 2 on bad flags.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import math
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .data import _legendre_matrix, make_polynomial_dataset, polynomial_target
from .errors import ConfigError, DescentLabError, DivergenceError
from .estimators import default_learning_rate, fit_gradient_descent, fit_pinv
from .experiments import (
    SweepConfig,
    SweepRecord,
    median_series,
    parse_ablation,
    parse_estimator,
    run_polynomial_sweep,
    run_sweep,
)
from .linalg import pseudoinverse_apply
from .svgplot import render_line_svg

CSV_HEADER = ",".join(f.name for f in dataclasses.fields(SweepRecord))
GD_REL_TOL = 1e-6


def _parse_range(text: str, what: str) -> list[int]:
    """``a`` -> [a]; ``a:b`` -> a..b inclusive; ``a:b:s`` -> stride s."""
    parts = text.split(":")
    if len(parts) > 3 or any(not p.strip() for p in parts):
        raise ConfigError(f"bad {what} {text!r} (use a, a:b, or a:b:s)")
    try:
        nums = [int(p) for p in parts]
    except ValueError as exc:
        raise ConfigError(f"bad {what} {text!r} (use a, a:b, or a:b:s)") from exc
    if len(nums) == 1:
        return nums
    a, b = nums[0], nums[1]
    step = nums[2] if len(nums) == 3 else 1
    if step < 1:
        raise ConfigError(f"{what} stride must be >= 1, got {step}")
    if b < a:
        raise ConfigError(f"{what} range {text!r} is empty")
    return list(range(a, b + 1, step))


def _parse_grid(text: str) -> list[int]:
    return _parse_range(text, "grid")


def _parse_seeds(text: str) -> list[int]:
    seeds = _parse_range(text, "seeds")
    if min(seeds) < 0:
        raise ConfigError(f"seeds must be >= 0, got {text!r}")
    return seeds


def _num(v: float) -> str:
    return f"{v:.12g}"


def _field_text(value):
    if isinstance(value, float):
        return _num(value)
    return "" if value is None else value


def write_records_csv(path, records) -> None:
    """records.csv with the stable schema: one column per ``SweepRecord``
    field in its order, floats to 12 significant digits, an empty cell for
    None, rows sorted by (n_train, seed), LF line endings."""
    names = CSV_HEADER.split(",")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(names)
        for r in records:
            w.writerow([_field_text(getattr(r, name)) for name in names])


def config_hash(resolved: dict) -> str:
    """Stable digest of a run's ``resolved`` block, the values that decide
    its outputs.  The BLAS thread count is left out, so an experiment hashes
    the same however it is run; the timestamp and the output directory
    never enter ``resolved``."""
    experiment = {k: v for k, v in resolved.items() if k != "blas_threads"}
    canon = json.dumps(experiment, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def write_manifest(path, args, output_paths, resolved: dict, **extra) -> None:
    """manifest.json at ``path``: the flags as parsed (``config``, with
    ``out`` set to the directory written), ``config_hash``, the outputs,
    ``extra`` and ``resolved``."""
    config = {k: v for k, v in vars(args).items() if k not in ("command", "func")}
    config["out"] = str(Path(path).parent)
    manifest = {
        "command": args.command,
        "config": config,
        "config_hash": config_hash(resolved),
        "tool_version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "output_paths": [str(p) for p in output_paths],
        **extra,
        "resolved": resolved,
    }
    with open(path, "w", encoding="utf-8", newline="") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")


def _out_path(args) -> Path:
    """``--out``, by default runs/COMMAND.  A path that is, or sits under, an
    existing non-directory is refused, so the command fails before any cell
    runs rather than when it writes."""
    out = Path(args.out if args.out else f"runs/{args.command}")
    for part in (out, *out.parents):
        if part.exists() and not part.is_dir():
            raise ConfigError(f"cannot write to --out {out}: {part} is not a directory")
    return out


def _out_dir(args) -> Path:
    out = _out_path(args)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _maybe_plot(out_dir: Path, name: str, series, labels, markers, **kw):
    """Render one plot, skipping silently when there is nothing to draw
    (e.g. every cell failed).  Returns the file name or None."""
    if not series or any(len(s[0]) == 0 for s in series):
        return None
    ys = np.concatenate([np.asarray(s[1], dtype=np.float64) for s in series])
    if kw.get("log_y") and not (ys > 0).all():
        kw["log_y"] = False
    svg = render_line_svg(series, labels, markers, **kw)
    path = out_dir / name
    path.write_text(svg, encoding="utf-8")
    return name


def _write_sweep(args, outcome, *, key: str, failure_key: str, marker, medians,
                 panel=None) -> int:
    """Write one sweep's outputs into ``--out`` and return its exit code.

    records.csv; for each of ``medians`` (file name, record field, series
    label, plot keywords) a log-scale plot of that field's median per
    ``key``, marked at the threshold ``marker``; ``panel``, a (file name,
    draw) pair, if any, by ``draw(path)``; and the manifest: the cell
    counts, each failure under ``failure_key``, the outcome's ``data`` block
    if it has one, ``outputs_failed`` if a plot raised (each such file and
    its error), and the ``resolved`` block.  The manifest is written
    whatever failed before it.  Exit 0 when at most 10% of the cells failed
    and every plot was written, else 1, with one line on stderr: the failed
    count and the first failure's error, each file not written and why, and
    the manifest's path.
    """
    out_dir = _out_dir(args)
    write_records_csv(out_dir / "records.csv", outcome.records)
    names = ["records.csv"]
    outputs_failed = []

    def attempt(name, draw):
        # draw() writes the file and returns its name, or None when there is
        # nothing to plot; a raise goes to outputs_failed instead.
        try:
            names.append(draw())
        except Exception as exc:
            outputs_failed.append({"output": name, "error": f"{type(exc).__name__}: {exc}"})

    for name, attr, label, kw in medians:
        attempt(name, lambda: _maybe_plot(
            out_dir, name, [median_series(outcome.records, attr, key=key)], [label], [marker],
            log_y=True, **kw))
    if panel is not None:
        name, draw = panel
        attempt(name, lambda: draw(out_dir / name))
    failed = len(outcome.failures)
    total = len(outcome.records) + failed
    failures = [
        {failure_key: f.n_train, "seed": f.seed, "error": f.error} for f in outcome.failures
    ]
    outputs = [name for name in names if name] + ["manifest.json"]
    manifest = out_dir / "manifest.json"
    extra = {} if outcome.data is None else {"data": outcome.data}
    if outputs_failed:
        extra["outputs_failed"] = outputs_failed
    write_manifest(manifest, args, outputs, outcome.resolved,
                   cells_total=total, cells_failed=failed, failures=failures, **extra)
    problems = [f"{f['output']} not written: {f['error']}" for f in outputs_failed]
    if 10 * failed > total:
        problems.insert(0, f"{failed} of {total} cells failed, the first with "
                           f"{outcome.failures[0].error}")
    if not problems:
        return 0
    print(f"descent-lab {args.command}: {'; '.join(problems)}; see {manifest}", file=sys.stderr)
    return 1


def cmd_sweep(args) -> int:
    outcome = run_sweep(SweepConfig(
        source=args.dataset,
        d=args.d,
        noise_sd=args.noise_sd,
        grid=_parse_grid(args.grid) if args.grid else None,
        seeds=_parse_seeds(args.seeds),
        ablation=parse_ablation(args.ablation),
        estimator=parse_estimator(args.estimator),
        target_column=args.target_col,
        standardize=not args.no_standardize,
        allow_narrow_grid=args.allow_narrow_grid,
    ))
    d = outcome.resolved["d"]
    medians = [
        ("test-mse-vs-n.svg", "test_mse", "median test MSE", dict(
            title=f"Test MSE across the interpolation threshold (D = {d})",
            x_label="n_train", y_label="test MSE")),
        ("smallest-sv-vs-n.svg", "smallest_nonzero_sv", "median smallest nonzero SV", dict(
            title=f"Smallest nonzero singular value of training X (D = {d})",
            x_label="n_train", y_label="singular value")),
    ]
    return _write_sweep(args, outcome, key="n_train", failure_key="n_train",
                        marker=(d, f"n = D = {d}"), medians=medians)


# P values for the fitted-curve panel: well under the threshold, at it, and
# the top of the grid, each the largest grid value at or below its pick (the
# smallest grid value when none is), so the panel draws only swept P.
def _panel_degrees(n: int, p_grid: list[int]) -> list[int]:
    out = []
    for pick in (n // 3, n, max(p_grid)):
        p = max((q for q in p_grid if q <= pick), default=min(p_grid))
        if p not in out:
            out.append(p)
    return out


def cmd_polyfit(args) -> int:
    p_grid = _parse_grid(args.p_grid)
    seeds = _parse_seeds(args.seeds)
    outcome = run_polynomial_sweep(p_grid, args.n, seeds, args.noise_sd)
    medians = [
        ("test-mse-vs-p.svg", "test_mse", "median test MSE", dict(
            title=f"Polynomial regression test MSE (n = {args.n})",
            x_label="number of Legendre features P", y_label="test MSE")),
    ]
    return _write_sweep(
        args, outcome, key="d", failure_key="p",
        marker=(args.n, f"P = n = {args.n}"), medians=medians,
        panel=("fitted-curves.svg",
               lambda path: _write_curve_panel(path, args.n, p_grid, seeds[0], args.noise_sd)),
    )


def _write_curve_panel(path: Path, n: int, p_grid: list[int], seed: int, noise_sd: float):
    """Write fitted curves at a few P values over one seed's training points
    to ``path``; returns the file name."""
    xs = np.linspace(-1.0, 1.0, 400)
    target = polynomial_target(xs)
    series = [(xs, target)]
    labels = ["target"]
    styles = ["line"]
    degrees = _panel_degrees(n, p_grid)
    # Legendre columns nest, so the first p columns are the P = p draw.
    x, y = make_polynomial_dataset(n, max(degrees), noise_sd, seed)
    for p in degrees:
        fit = fit_pinv(x[:, :p], y)
        series.append((xs, _legendre_matrix(xs, p) @ fit.beta))
        labels.append(f"fit, P = {p}")
        styles.append("line")
    series.append((x[:, 0], y))
    labels.append("training points")
    styles.append("points")
    svg = render_line_svg(
        series,
        labels,
        None,
        title=f"Fitted polynomials around the threshold (n = {n}, seed {seed})",
        x_label="x",
        y_label="y",
        styles=styles,
        y_range=(-4.0, 4.0),
    )
    path.write_text(svg, encoding="utf-8")
    return path.name


def cmd_gdcheck(args) -> int:
    if args.n < 1 or args.d < 1:
        raise ConfigError("gdcheck needs n >= 1 and d >= 1")
    if args.steps < 0:
        raise ConfigError(f"steps must be >= 0, got {args.steps}")
    if args.eta != "auto":
        try:
            eta_fixed = float(args.eta)
        except ValueError as exc:
            raise ConfigError(f"eta must be 'auto' or a number, got {args.eta!r}") from exc
        if not 0 < eta_fixed < math.inf:
            raise ConfigError(f"eta must be finite and > 0, got {eta_fixed}")
    else:
        eta_fixed = None
    seeds = _parse_seeds(args.seeds)
    out_dir = _out_dir(args)

    record_every = max(1, args.steps // 1000)
    rows = []
    finals = []
    etas = {}
    resolved = {
        "n": args.n,
        "d": args.d,
        "steps": args.steps,
        "seeds": seeds,
        "etas": etas,
        "record_every": record_every,
    }
    for seed in seeds:
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((args.n, args.d))
        y = rng.standard_normal(args.n)
        eta = eta_fixed if eta_fixed is not None else default_learning_rate(x)
        etas[str(seed)] = eta
        try:
            trace = fit_gradient_descent(x, y, eta, args.steps, record_every=record_every)
        except DivergenceError as exc:
            write_manifest(out_dir / "manifest.json", args, ["manifest.json"], resolved,
                           all_converged=False,
                           divergence={"seed": seed, "step": exc.step, "eta": eta})
            print(
                f"descent-lab gdcheck: divergence at step {exc.step} "
                f"(seed {seed}, eta {eta:.6g})",
                file=sys.stderr,
            )
            return 1
        scale = max(1.0, float(np.linalg.norm(pseudoinverse_apply(x, y))))
        finals.append(trace.distance_to_pinv <= GD_REL_TOL * scale)
        rows.extend((seed, step, dist) for step, dist in trace.distance_history)

    with open(out_dir / "distances.csv", "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["seed", "step", "distance"])
        for seed, step, dist in rows:
            w.writerow([seed, step, _num(dist)])
    outputs = ["distances.csv"]

    series = []
    labels = []
    for seed in seeds:
        pts = [(step, dist) for s, step, dist in rows if s == seed]
        series.append(([p[0] for p in pts], [p[1] for p in pts]))
        labels.append(f"seed {seed}")
    name = _maybe_plot(
        out_dir,
        "distance-vs-step.svg",
        series,
        labels if len(labels) <= 6 else None,
        None,
        title=f"Distance to the pseudoinverse solution (n = {args.n}, d = {args.d})",
        x_label="step",
        y_label="distance",
        log_y=True,
    )
    if name:
        outputs.append(name)

    outputs.append("manifest.json")
    write_manifest(out_dir / "manifest.json", args, outputs, resolved,
                   all_converged=bool(all(finals)))
    return 0 if all(finals) else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="descent-lab",
        description="Double descent in ordinary linear regression: sweep it, "
        "decompose it, ablate it.",
    )
    p.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    sw = sub.add_parser(
        "sweep",
        help="sweep n_train across the interpolation threshold",
        description="Sweep n_train across the interpolation threshold and "
        "record train/test MSE, the smallest nonzero singular value, and the "
        "decomposition terms for every (n_train, seed) cell.",
    )
    sw.add_argument(
        "--dataset",
        default="student-teacher",
        help="'student-teacher' (synthetic) or 'csv:PATH' (default: %(default)s)",
    )
    sw.add_argument("--target-col", default=None, help="target column for csv datasets")
    sw.add_argument("--d", type=int, default=32, help="feature count for synthetic data")
    sw.add_argument("--noise-sd", type=float, default=0.25, help="target noise level")
    sw.add_argument(
        "--grid",
        default=None,
        help="n_train grid, a:b or a:b:s inclusive "
        "(default: 2:3D synthetic, ~40 log-spaced points for csv)",
    )
    sw.add_argument("--seeds", default="0:29", help="seed range, a:b or a:b:s")
    sw.add_argument(
        "--ablation",
        default="none",
        help="none | sv-cutoff[:tau] | test-projection[:tau] | linearized-targets "
        "(tau defaults to 0.9x the median sigma_max over cells)",
    )
    sw.add_argument(
        "--estimator",
        default="pinv",
        help="pinv | ridge:lambda | ridge:auto (lambda = 0.5 sigma_max^2 per cell)",
    )
    sw.add_argument(
        "--no-standardize",
        action="store_true",
        help="skip feature standardization for csv datasets",
    )
    sw.add_argument(
        "--allow-narrow-grid",
        action="store_true",
        help="allow a grid that does not span both regimes around D",
    )
    sw.add_argument("--out", default=None, help="output directory (default runs/sweep)")
    sw.set_defaults(func=cmd_sweep)

    pf = sub.add_parser(
        "polyfit",
        help="sweep the Legendre feature count P at fixed n",
        description="Polynomial regression double descent: sweep P at fixed "
        "n against a dense noiseless evaluation grid.",
    )
    pf.add_argument("--n", type=int, default=30, help="training points")
    pf.add_argument("--p-grid", default="1:200", help="P grid, a:b or a:b:s inclusive")
    pf.add_argument("--noise-sd", type=float, default=0.5, help="target noise level")
    pf.add_argument("--seeds", default="0:19", help="seed range")
    pf.add_argument("--out", default=None, help="output directory (default runs/polyfit)")
    pf.set_defaults(func=cmd_polyfit)

    gd = sub.add_parser(
        "gdcheck",
        help="check gradient descent converges to the pseudoinverse solution",
        description="Run gradient descent from zero on random instances and "
        "track the distance to the pseudoinverse solution.",
    )
    gd.add_argument("--n", type=int, default=5, help="rows")
    gd.add_argument("--d", type=int, default=10, help="columns")
    gd.add_argument("--steps", type=int, default=50000, help="gradient steps")
    gd.add_argument("--eta", default="auto", help="'auto' (1/sigma_max^2) or a number")
    gd.add_argument("--seeds", default="0:9", help="seed range")
    gd.add_argument("--out", default=None, help="output directory (default runs/gdcheck)")
    gd.set_defaults(func=cmd_gdcheck)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        _out_path(args)
        return args.func(args)
    except ConfigError as exc:
        print(f"descent-lab: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"descent-lab: {exc}", file=sys.stderr)
        return 1
    except DescentLabError as exc:
        print(f"descent-lab: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
