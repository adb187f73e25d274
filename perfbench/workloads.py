"""The benchmark workloads: documented descent-lab commands, each sized so one
child process runs for a few seconds, with their correctness gates and the
per-layer -> end-to-end predictions they exist to test.

A workload seed s becomes the CLI seed range ``s*k : s*k + k - 1`` for a
workload of k seeds per child, so the program only ever receives CLI
arguments and the same seed always gives the same inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import checks

HEADLINE = ("sweep", "--d", "32", "--noise-sd", "0.25", "--grid", "2:96")
HEADLINE_CELLS = 95


@dataclass
class Output:
    """What one CLI invocation of a child left behind."""

    argv: list[str]
    exit_code: int
    manifest: dict | None
    records: list[dict] | None
    digest: str | None


@dataclass(frozen=True)
class Gate:
    name: str
    ok: bool
    detail: str
    value: float | None = None


GateFn = Callable[[list[Output]], list[Gate]]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    commands: tuple[tuple[str, ...], ...]
    seeds_per_child: int
    cells_per_seed: int
    gate: GateFn
    # Commands run once per benchmark run, untimed, on fixed seeds, and gated
    # by ``reference_gate``; empty when the timed children's output carries
    # every gate by itself.
    reference: tuple[tuple[str, ...], ...] = ()
    reference_gate: GateFn | None = None
    reference_cells: int = 0

    def seed_range(self, seed: int) -> str:
        first = seed * self.seeds_per_child
        return f"{first}:{first + self.seeds_per_child - 1}"

    def invocations(self, seed: int) -> list[list[str]]:
        return [list(c) + ["--seeds", self.seed_range(seed)] for c in self.commands]

    @property
    def cells_per_child(self) -> int:
        return self.seeds_per_child * self.cells_per_seed

    def templates(self) -> list[str]:
        return ["descent-lab " + " ".join(c) + " --seeds {s*%d}:{s*%d+%d}"
                % (self.seeds_per_child, self.seeds_per_child, self.seeds_per_child - 1)
                for c in self.commands]


def _sane(outputs: list[Output]) -> list[Gate]:
    return [Gate("records", *checks.records_sane(o.records)) for o in outputs]


def _headline_reference(outputs: list[Output]) -> list[Gate]:
    rows = outputs[0].records
    ok_oracle, worst, detail = checks.oracle(rows)
    return [Gate("spike", *checks.spike(rows)),
            Gate("oracle_max_rel_err", ok_oracle, detail, worst)]


def _ablations(outputs: list[Output]) -> list[Gate]:
    return _sane(outputs) + [
        Gate(f"peak-ratio {' '.join(o.argv[len(HEADLINE):len(HEADLINE) + 2])}",
             *checks.peak_ratio(o.records))
        for o in outputs
    ]


def _poly(outputs: list[Output]) -> list[Gate]:
    return _sane(outputs) + [
        Gate("spike", *checks.spike(outputs[0].records, key="d", peak=30, below=5, above=200))
    ]


def _converged(outputs: list[Output]) -> list[Gate]:
    return [Gate("all_converged", o.manifest.get("all_converged") is True,
                 f"all_converged = {o.manifest.get('all_converged')}") for o in outputs]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="linear-headline",
            why="thousands of tiny factorizations per run; cost sits in linalg svd calls, "
                "per-cell data regeneration and the default thread pool",
            commands=(HEADLINE,),
            seeds_per_child=4,
            cells_per_seed=HEADLINE_CELLS,
            gate=_sane,
            # The 5x spike holds at the acceptance test's seeds 0:29 but fails
            # on about 30% of other 30-seed blocks (the population ratio is
            # about 7.4), so it is checked on exactly those seeds.  Cells do
            # not depend on the rest of the grid, so grid 8:96:8 reproduces
            # the acceptance sweep's records at every n it needs.
            reference=(("sweep", "--d", "32", "--noise-sd", "0.25", "--grid", "8:96:8",
                        "--seeds", "0:29"),),
            reference_gate=_headline_reference,
            reference_cells=12 * 30,
        ),
        Workload(
            name="poly-legendre",
            why="few cells, each dominated by one tall ground-truth factorization of a "
                "1030xP stack; the same layers with the opposite matrix shape",
            commands=(("polyfit", "--n", "30", "--p-grid", "1:200", "--noise-sd", "0.5"),),
            seeds_per_child=1,
            cells_per_seed=200,
            gate=_poly,
        ),
        Workload(
            name="ablation-suite",
            why="the headline sweep under each ablation and ridge: tau pre-pass, extra "
                "factorizations, a second ground truth and the ridge path",
            commands=tuple(HEADLINE + extra for extra in (
                ("--ablation", "sv-cutoff"),
                ("--ablation", "test-projection"),
                ("--ablation", "linearized-targets"),
                ("--estimator", "ridge:auto"),
            )),
            seeds_per_child=6,
            cells_per_seed=4 * HEADLINE_CELLS,
            gate=_ablations,
        ),
        Workload(
            name="gd-converge",
            why="a python loop of small matvecs in gradient descent, with no sweep, "
                "thread pool or decomposition; sweep optimisations should not move it",
            commands=(("gdcheck", "--n", "40", "--d", "20", "--steps", "20000",
                       "--eta", "auto"),),
            seeds_per_child=10,
            cells_per_seed=1,
            gate=_converged,
        ),
    )
}

# Runnable with --workload but left out of BENCHMARK.json.  gd-converge is a
# single-threaded Python loop, and on a 2-vCPU VM its speed flips between two
# levels about 1.6x apart as the host's load changes; over ten 30 s runs its
# wall time spread (IQR / median) measured 0.13, 0.24 and 0.32, past the
# largest regression bound a benchmark may set (0.25).
NOT_IN_BENCHMARK = ("gd-converge",)

# Which end-to-end metric each per-layer metric should move, on which
# workloads, and where it should stay flat.
PREDICTIONS = (
    ("linalg.svd.*, linalg.fix_signs.self_s, linalg.pseudoinverse_apply.calls, "
     "linalg.truncate_svd.calls", "wall_s, cpu_s",
     "linear-headline, ablation-suite", "little on gd-converge"),
    ("data.make_student_teacher.*, data.make_polynomial_dataset.*, data.legendre.*",
     "wall_s", "linear-headline (one regeneration per cell), poly-legendre", "gd-converge"),
    ("estimators.fit_*.calls, estimators.fit.self_s, estimators.fallback_frac",
     "wall_s, cpu_s", "linear-headline, ablation-suite, poly-legendre", "gd-converge"),
    ("estimators.fit_gradient_descent.self_s, estimators.gd.steps", "wall_s",
     "gd-converge", "every sweep workload"),
    ("decomposition.*", "wall_s", "poly-legendre most, then the linear sweeps",
     "gd-converge"),
    ("experiments.prepare.self_s", "setup_s", "ablation-suite (tau pre-pass)",
     "near zero elsewhere"),
    ("experiments.apply_ablation.self_s", "wall_s", "ablation-suite", "everywhere else"),
    ("experiments.cell.*, experiments.concurrency", "cpu_s, wall_s",
     "linear-headline (thread pool oversubscribing BLAS)", "gd-converge (no sweep)"),
    ("svgplot.render_line_svg.self_s, cli.write_records_csv.self_s, "
     "cli.write_manifest.self_s, cli.records_bytes", "wall_s",
     "small everywhere; guards later records.csv schema additions", "-"),
)
