"""In-memory span tracer that wraps descent_lab's layer functions from outside.

The program itself carries no tracing.  ``Tracer.install`` replaces each layer
function listed in ``TARGETS`` with a wrapper, in every ``descent_lab`` module
namespace that binds it (``svd`` is bound in ``linalg``, ``estimators``,
``experiments`` and the package root, for example), and ``uninstall`` puts the
originals back.

Each call becomes one span ``[id, parent, name, start, end, cell, error,
value]``.  Spans stay in a list in memory; the caller writes them out at the
end.  The span stack is thread-local because sweep cells run on a
``ThreadPoolExecutor``: a cell span takes the sweep span that dispatched it as
its parent and opens a new cell id, which every span nested inside it carries.
``value`` is a number or shape the layer metrics need (the input shape of an
SVD, rows factorized, gradient steps run, bytes written).
"""

from __future__ import annotations

import functools
import importlib
import itertools
import os
import threading
import time

LAYER_MODULES = (
    "data",
    "linalg",
    "estimators",
    "decomposition",
    "experiments",
    "svgplot",
    "cli",
)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _svd_shape(args, kwargs, out):
    x = _arg(args, kwargs, 0, "x")
    return [len(x), len(x[0])]


def _ground_truth_rows(args, kwargs, out):
    return len(_arg(args, kwargs, 0, "x_full"))


def _gd_steps(args, kwargs, out):
    return out.steps


def _file_bytes(args, kwargs, out):
    return os.path.getsize(_arg(args, kwargs, 0, "path"))


# (module, function, span name, value recorded on a successful call)
TARGETS = (
    ("linalg", "svd", "linalg.svd", _svd_shape),
    ("linalg", "_fix_signs", "linalg.fix_signs", None),
    ("linalg", "pseudoinverse_apply", "linalg.pseudoinverse_apply", None),
    ("linalg", "truncate_svd", "linalg.truncate_svd", None),
    ("data", "make_student_teacher", "data.make_student_teacher", None),
    ("data", "make_polynomial_dataset", "data.make_polynomial_dataset", None),
    ("data", "_legendre_matrix", "data.legendre", None),
    ("estimators", "fit_ols_under", "estimators.fit_ols_under", None),
    ("estimators", "fit_min_norm", "estimators.fit_min_norm", None),
    ("estimators", "fit_pinv", "estimators.fit_pinv", None),
    ("estimators", "fit_ridge", "estimators.fit_ridge", None),
    ("estimators", "fit_gradient_descent", "estimators.fit_gradient_descent", _gd_steps),
    ("decomposition", "make_ground_truth", "decomposition.make_ground_truth", _ground_truth_rows),
    ("decomposition", "decompose_test_errors", "decomposition.decompose_test_errors", None),
    ("experiments", "_prepare", "experiments.prepare", None),
    ("experiments", "apply_ablation", "experiments.apply_ablation", None),
    ("experiments", "_run_cells", "experiments.sweep", None),
    ("svgplot", "render_line_svg", "svgplot.render_line_svg", None),
    ("cli", "write_records_csv", "cli.write_records_csv", _file_bytes),
    ("cli", "write_manifest", "cli.write_manifest", None),
    ("cli", "main", "cli.main", None),
)

SWEEP_SPAN = "experiments.sweep"
CELL_SPAN = "experiments.cell"


class Tracer:
    """Collects spans from wrapped layer functions; see the module docstring."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._local = threading.local()
        # next() on itertools.count and list.append are single C calls, so
        # pool threads can share them without a lock.
        self._span_ids = itertools.count(1)
        self._cell_ids = itertools.count(1)
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _call(self, name, fn, args, kwargs, measure=None, parent=None, cell=None):
        stack = self._stack()
        top_id, top_cell = stack[-1] if stack else (0, 0)
        sid = next(self._span_ids)
        span = [sid, top_id if parent is None else parent, name, 0.0, 0.0,
                top_cell if cell is None else cell, None, None]
        stack.append((sid, span[5]))
        span[3] = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        except BaseException as exc:
            span[6] = type(exc).__name__
            raise
        finally:
            span[4] = time.perf_counter()
            stack.pop()
            self.spans.append(span)
        if measure is not None:
            span[7] = measure(args, kwargs, out)
        return out

    def _wrap(self, name, fn, measure):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._call(name, fn, args, kwargs, measure)

        return traced

    def _wrap_run_cells(self, fn):
        """The sweep runner: a span around the whole sweep, and a cell span
        with a fresh cell id around every call of the per-cell function."""

        def run_cells(cells, one):
            sweep_id = self._stack()[-1][0]

            def cell(*args):
                return self._call(CELL_SPAN, one, args, {}, parent=sweep_id,
                                  cell=next(self._cell_ids))

            return fn(cells, cell)

        return self._wrap(SWEEP_SPAN, functools.wraps(fn)(run_cells), None)

    def install(self, package: str = "descent_lab") -> "Tracer":
        namespaces = [importlib.import_module(package)] + [
            importlib.import_module(f"{package}.{m}") for m in LAYER_MODULES]
        for module, attr, name, measure in TARGETS:
            original = getattr(importlib.import_module(f"{package}.{module}"), attr)
            if name == SWEEP_SPAN:
                wrapper = self._wrap_run_cells(original)
            else:
                wrapper = self._wrap(name, original, measure)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        self._patched.append((ns, key, original))
                        setattr(ns, key, wrapper)
        return self

    def uninstall(self) -> None:
        for ns, key, original in reversed(self._patched):
            setattr(ns, key, original)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()
