"""One benchmark child: run descent-lab CLI invocations in this process.

    python3 perfbench/child.py RESULT_JSON TRACE INVOCATIONS_JSON

INVOCATIONS_JSON is a JSON list of argv lists, each passed to
``descent_lab.cli.main`` in turn.  TRACE is 0 or 1; with 1 the layer
functions are wrapped by ``spans.Tracer`` and every span is written out.
Either way the child records, on the CLOCK_MONOTONIC clock the parent also
reads, when each invocation entered ``main`` and when its first cell started
(the first sweep dispatch, or the first gradient descent run), so the parent
can compute set-up time.  The result file also carries the environment the
child saw.  Exit code: 0 when every invocation returned 0, else 1; 3 when
descent_lab would not be imported from ``src`` under the working directory.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
from pathlib import Path

import spans

THREAD_VARS = ("DESCENT_LAB_THREADS",)


def thread_vars(environ) -> dict[str, str]:
    return {k: v for k, v in sorted(environ.items())
            if k in THREAD_VARS or k.endswith("_NUM_THREADS")}


def environment() -> dict:
    import numpy as np

    from descent_lab.experiments import worker_count

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "thread_vars": thread_vars(os.environ),
        "descent_lab_workers": worker_count(),
    }


class CellStarts:
    """Timestamps of every sweep dispatch and gradient descent run."""

    def __init__(self, cli, experiments) -> None:
        self.times: list[float] = []
        self._patched = []
        for ns, attr in ((experiments, "_run_cells"), (cli, "fit_gradient_descent")):
            fn = getattr(ns, attr)
            self._patched.append((ns, attr, fn))
            setattr(ns, attr, self._marked(fn))

    def _marked(self, fn):
        def marked(*args, **kwargs):
            self.times.append(time.monotonic())
            return fn(*args, **kwargs)

        return marked

    def uninstall(self) -> None:
        for ns, attr, fn in reversed(self._patched):
            setattr(ns, attr, fn)


def main(argv: list[str]) -> int:
    result_path, trace, invocations = argv[0], argv[1] == "1", json.loads(argv[2])
    import descent_lab

    src = Path.cwd() / "src"
    if not Path(descent_lab.__file__).resolve().is_relative_to(src.resolve()):
        print(f"descent_lab imported from {descent_lab.__file__}, not {src}", file=sys.stderr)
        return 3
    from descent_lab import cli, experiments

    tracer = spans.Tracer().install() if trace else None
    starts = CellStarts(cli, experiments)
    runs = []
    try:
        for inv in invocations:
            entry = time.monotonic()
            seen = len(starts.times)
            code = cli.main(inv)
            first = starts.times[seen] if len(starts.times) > seen else None
            runs.append({"argv": inv, "entry": entry, "first_cell": first, "exit_code": code})
    finally:
        starts.uninstall()
        if tracer is not None:
            tracer.uninstall()
    result = {
        "invocations": runs,
        "environment": environment(),
        "spans": tracer.spans if tracer is not None else None,
    }
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, separators=(",", ":"))
    return 0 if all(r["exit_code"] == 0 for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
