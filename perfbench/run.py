"""descent-lab benchmark: time the documented CLI commands end to end, check
their output, and (with --trace 1) report per-layer counts and self times.

    python3 perfbench/run.py --workload linear-headline --seed 0 --seconds 38 --trace 0
    python3 perfbench/run.py                 # every workload, one after another
    python3 perfbench/run.py --list          # workloads, commands and predictions

Run it from the root of a descent-lab checkout; the program is imported from
``src`` there and nothing is installed.  Every sample is a fresh child
process (``child.py``) that calls ``descent_lab.cli.main(argv)``, runs one
workload and exits; children run one at a time, with ``DESCENT_LAB_THREADS``
and every ``*_NUM_THREADS`` variable removed so the program's default thread
settings apply.  Children keep starting until the next one would end past
``--seconds`` (at least two, or one untraced/traced pair with --trace 1), and
each metric is the median over them.

End-to-end metrics (--trace 0): wall_s, child start to exit; cpu_s, the
child's user + system time; setup_s, the time before cells start (child
start to the first ``main`` call, plus main entry to the first sweep dispatch
or gradient descent run of every invocation); peak_rss_mb, the child's
maximum resident set.  With --trace 1, untraced and traced children
alternate, and the per-layer metrics of ``layers.PER_LAYER`` come from the
traced ones; trace.overhead_s is traced minus untraced wall time.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; attempted and failed count cells (seeds for
gdcheck), and every cell of a child that fails a gate counts as failed.  Exit
code 0 when every gate passed, 1 when one failed, 2 on bad arguments or when
the working directory holds no descent-lab sources.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import layers  # noqa: E402
from child import THREAD_VARS  # noqa: E402
from workloads import PREDICTIONS, WORKLOADS, Output, Workload  # noqa: E402

END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB"))
MIN_CHILDREN = 2
# Every run must end within 180 s, whatever --seconds asks for.
RUN_LIMIT_S = 170.0
WORK_ROOT = Path(".perfbench")
SOURCE = Path("src") / "descent_lab"


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items()
           if k not in THREAD_VARS and not k.endswith("_NUM_THREADS")}
    env["PYTHONPATH"] = str(Path("src").resolve())
    return env


@dataclass
class Child:
    """One finished child process and what it left behind."""

    traced: bool
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    exit_code: int
    setup_s: float | None = None
    outputs: list[Output] = field(default_factory=list)
    environment: dict | None = None
    spans: list | None = None
    stderr: str = ""


def _read_output(argv: list[str], code: int, out: Path) -> Output:
    manifest = out / "manifest.json"
    data = out / "records.csv"
    if not data.exists():
        data = out / "distances.csv"
    return Output(
        argv=argv,
        exit_code=code,
        manifest=json.loads(manifest.read_text(encoding="utf-8")) if manifest.exists() else None,
        records=checks.read_records(data) if data.name == "records.csv" and data.exists() else None,
        digest=hashlib.sha256(data.read_bytes()).hexdigest() if data.exists() else None,
    )


def spawn(invocations: list[list[str]], traced: bool, where: Path, deadline: float) -> Child:
    """Run one child to completion (killing it at ``deadline``) and collect it."""
    where.mkdir(parents=True)
    outs = [where / f"out{i}" for i in range(len(invocations))]
    argvs = [argv + ["--out", str(o)] for argv, o in zip(invocations, outs)]
    result_path = where / "result.json"
    args = [sys.executable, str(HERE / "child.py"), str(result_path),
            "1" if traced else "0", json.dumps(argvs)]
    with open(where / "stdout", "wb") as out, open(where / "stderr", "wb") as err:
        actions = [(os.POSIX_SPAWN_DUP2, out.fileno(), 1), (os.POSIX_SPAWN_DUP2, err.fileno(), 2)]
        t0 = time.monotonic()
        pid = os.posix_spawn(sys.executable, args, child_env(), file_actions=actions)
        pidfd = os.pidfd_open(pid)
        timer = threading.Timer(max(1.0, deadline - t0), _kill, (pidfd,))
        timer.start()
        try:
            _, status, usage = os.wait4(pid, 0)
            t1 = time.monotonic()
        except BaseException:
            _kill(pidfd)
            os.waitpid(pid, 0)
            raise
        finally:
            timer.cancel()
            timer.join()
            os.close(pidfd)
    child = Child(
        traced=traced,
        wall_s=t1 - t0,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        exit_code=os.waitstatus_to_exitcode(status),
        stderr=(where / "stderr").read_text(encoding="utf-8", errors="replace")[-2000:],
    )
    if result_path.exists():
        result = json.loads(result_path.read_text(encoding="utf-8"))
        runs = result["invocations"]
        child.environment = result["environment"]
        child.spans = result["spans"]
        child.outputs = [_read_output(r["argv"], r["exit_code"], o) for r, o in zip(runs, outs)]
        if runs and all(r["first_cell"] is not None for r in runs):
            child.setup_s = runs[0]["entry"] - t0 + sum(r["first_cell"] - r["entry"] for r in runs)
    return child


def _kill(pidfd: int) -> None:
    try:
        signal.pidfd_send_signal(pidfd, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _cells_failed(outputs: list[Output], expected_cells: int) -> tuple[int, list[str]]:
    """Cells the manifests report as failed, plus structural problems."""
    failed = 0
    problems = []
    for o in outputs:
        m = o.manifest
        if m is None or o.digest is None:
            problems.append(f"{' '.join(o.argv[:1])}: no manifest or data file")
        elif "cells_total" in m:
            failed += m["cells_failed"]
            if len(o.records) != m["cells_total"] - m["cells_failed"]:
                problems.append(f"{len(o.records)} records for {m['cells_total']} cells "
                                f"with {m['cells_failed']} failed")
        if o.exit_code != 0:
            problems.append(f"exit code {o.exit_code} from {' '.join(o.argv)}")
    total = sum(o.manifest.get("cells_total", 0) for o in outputs if o.manifest)
    if total and total != expected_cells:
        problems.append(f"{total} cells run, expected {expected_cells}")
    return failed, problems


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    gates: dict = field(default_factory=dict)
    values: dict = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)

    def judge(self, child: Child, cells: int, gate) -> None:
        """Count a child's cells and fail all of them if any check fails."""
        self.attempted += cells
        failed, problems = _cells_failed(child.outputs, cells)
        if child.exit_code != 0 or len(child.outputs) == 0:
            problems.append(f"child exited {child.exit_code}: {child.stderr.strip()[-500:]}")
        if not problems:
            try:
                for g in gate(child.outputs):
                    self.gates.setdefault(g.name, g)
                    if g.value is not None:
                        self.values[g.name] = g.value
                    if not g.ok:
                        self.gates[g.name] = g
                        problems.append(f"gate {g.name} failed: {g.detail}")
            except (KeyError, TypeError, ValueError) as exc:
                problems.append(f"gate could not read the output: {exc!r}")
        if problems:
            self.problems.extend(problems)
            failed = cells
        self.failed += failed


def run_workload(w: Workload, seed: int, seconds: int, trace: bool) -> dict:
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    work = WORK_ROOT / f"{w.name}-s{seed}-t{int(trace)}-{os.getpid()}"
    tally = Tally()
    children: list[Child] = []
    digests: dict[int, set] = {}
    try:
        # The reference commands, or an import-only child, warm the file
        # cache and the bytecode cache before anything is timed.
        ref = spawn([list(c) for c in w.reference], False, work / "reference", deadline)
        environment = ref.environment
        if w.reference:
            tally.judge(ref, w.reference_cells, w.reference_gate)
        elif ref.exit_code != 0:
            tally.problems.append(f"import-only child exited {ref.exit_code}: {ref.stderr[-500:]}")
        timed_start = time.monotonic()
        rounds = (False, True) if trace else (False,)
        min_rounds = 1 if trace else MIN_CHILDREN
        done = 0
        while True:
            round_walls = []
            for traced in rounds:
                c = spawn(w.invocations(seed), traced, work / f"child{len(children)}", deadline)
                tally.judge(c, w.cells_per_child, w.gate)
                for i, o in enumerate(c.outputs):
                    digests.setdefault(i, set()).add(o.digest)
                children.append(c)
                round_walls.append(c.wall_s)
                if c.exit_code != 0:
                    break
            done += 1
            shutil.rmtree(work, ignore_errors=True)
            elapsed = time.monotonic() - timed_start
            if tally.problems or time.monotonic() + 2 * sum(round_walls) > deadline:
                break
            if done >= min_rounds and elapsed + sum(round_walls) > seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass
    if any(len(d) > 1 for d in digests.values()):
        tally.problems.append("output files differ between repeats of the same command")

    # A child that crashed left no timings to report; its cells already
    # count as failed.
    plain = [c for c in children if not c.traced and c.setup_s is not None]
    traced = [c for c in children if c.traced and c.spans is not None]
    metrics = {}
    if not trace and plain:
        for name, unit in END_TO_END:
            metrics[name] = {"value": statistics.median(getattr(c, name) for c in plain),
                             "unit": unit}
    elif trace and traced and plain:
        summaries = [layers.summarize(c.spans, w.cells_per_child) for c in traced]
        for name in layers.COUNTS:
            if len({s[name] for s in summaries}) > 1:
                tally.problems.append(f"{name} differs between traced children")
        cells_ms = [ms for c in traced for ms in layers.cell_durations_ms(c.spans)]
        values = layers.combine(summaries, cells_ms)
        values["trace.wall_s"] = statistics.median(c.wall_s for c in traced)
        values["trace.overhead_s"] = values["trace.wall_s"] - statistics.median(c.wall_s for c in plain)
        tally.values["cell_samples"] = len(cells_ms)
        for name, unit in layers.PER_LAYER:
            metrics[name] = {"value": values[name], "unit": unit}
    if tally.problems:
        tally.failed = max(tally.failed, 1)
    return {
        "workload": w.name,
        "seed": seed,
        "seed_range": w.seed_range(seed),
        "cells_per_child": w.cells_per_child,
        "children": len(children),
        "timed_s": time.monotonic() - start,
        "environment": environment,
        "gates": {g.name: {"ok": g.ok, "detail": g.detail} for g in tally.gates.values()},
        "problems": tally.problems,
        "values": tally.values,
        "samples": {name: [getattr(c, name) for c in plain] for name, _ in END_TO_END}
        if not trace else {},
        "correct": not tally.problems and tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }


def source_identity() -> dict:
    """The git commit when the checkout is a git repository, and a digest of
    the package sources either way."""
    digest = hashlib.sha256()
    for path in sorted(SOURCE.rglob("*.py")):
        digest.update(path.as_posix().encode() + b"\0" + path.read_bytes())
    commit = None
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(Path.cwd().resolve().parent))
    env.pop("GIT_DIR", None)
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], env=env,
                             capture_output=True, text=True, timeout=30)
        top, _, sha = out.stdout.strip().partition("\n")
        if out.returncode == 0 and Path(top).resolve() == Path.cwd().resolve():
            commit = sha.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return {"git_commit": commit, "source_sha256": digest.hexdigest()}


def report(result: dict) -> None:
    """Human-readable lines for one workload run."""
    print(f"workload {result['workload']}: seed {result['seed']} -> --seeds {result['seed_range']}, "
          f"{result['cells_per_child']} cells per child, {result['children']} children, "
          f"{result['timed_s']:.1f} s")
    for name, g in result["gates"].items():
        print(f"  gate {name}: {'PASS' if g['ok'] else 'FAIL'} ({g['detail']})")
    for problem in result["problems"]:
        print(f"  problem: {problem}")
    for name, m in result["metrics"].items():
        samples = result["samples"].get(name)
        spread = ""
        if samples:
            spread = f"  (median of {len(samples)}: min {min(samples):.4g}, max {max(samples):.4g})"
        print(f"  {name} = {m['value']:.6g} {m['unit']}{spread}")
    frac = result["failed"] / result["attempted"] if result["attempted"] else 0.0
    print(f"  failed_frac = {frac:.6g} ({result['failed']} of {result['attempted']} cells)")
    for name, value in result["values"].items():
        print(f"  {name} = {value:.6g}")
    print("environment " + json.dumps(result["environment"], sort_keys=True))


def list_workloads() -> None:
    for w in WORKLOADS.values():
        print(f"{w.name}: {w.why}")
        for t in w.templates():
            print(f"  command: {t}")
        print(f"  cells per child: {w.cells_per_child}")
        for c in w.reference:
            print(f"  reference (untimed, every run): descent-lab {' '.join(c)}")
    print("predictions (per-layer metric -> end-to-end metric; moves on; flat on):")
    for metric, e2e, on, flat in PREDICTIONS:
        print(f"  {metric} -> {e2e}; {on}; {flat}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=38)
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    ap.add_argument("--list", action="store_true", help="describe the workloads and exit")
    args = ap.parse_args(argv)
    if args.list:
        list_workloads()
        return 0
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    if not (SOURCE / "cli.py").is_file():
        print(f"perfbench: no {SOURCE / 'cli.py'} here; run from a descent-lab checkout",
              file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    identity = source_identity()
    results = []
    for name in names:
        result = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        if result["environment"] is not None:
            result["environment"].update(identity)
        report(result)
        results.append(result)
    if any(not r["metrics"] for r in results):
        print("perfbench: no metrics were measured", file=sys.stderr)
        return 1
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    correct = all(r["correct"] for r in results)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
