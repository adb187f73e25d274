"""What importing the package does to the process: the OpenBLAS thread count
it loads numpy with, and which standard-library modules it pulls in.  Each
check runs in a fresh interpreter, since both are settled at first import."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import descent_lab
from descent_lab import linalg

SRC = str(Path(descent_lab.__file__).resolve().parent.parent)
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
HTTP_CHAIN = ("xml.sax", "urllib.request", "http.client", "ssl", "email")

# The child runs IMPORTS, then reports every loaded OpenBLAS's thread count
# and the BLAS thread variables left in its environment; EXTRA may add to
# the report.
CHILD = """
import json, os, sys
{imports}
from descent_lab import linalg
def counts():
    return [get() for get, _ in linalg._openblas_controls()]
report = {{"counts": counts(), "env": {{k: os.environ[k] for k in {blas_vars!r} if k in os.environ}}}}
{extra}
print(json.dumps(report))
"""


def run_child(imports, extra="", **env_vars):
    """The report of a fresh interpreter whose environment has no BLAS
    thread variables but ``env_vars``."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env.update(env_vars, PYTHONPATH=SRC)
    code = CHILD.format(imports=imports, extra=extra, blas_vars=BLAS_VARS)
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.fixture
def openblas():
    if not linalg._openblas_controls():
        pytest.skip("no OpenBLAS thread control in this process")


@pytest.fixture
def two_cpus(openblas):
    # OpenBLAS caps its thread count at the CPUs it may run on.
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("needs two CPUs to tell one BLAS thread from more")


def test_import_loads_openblas_with_one_thread(openblas):
    report = run_child("import descent_lab")
    assert report["counts"] and set(report["counts"]) == {1}
    # The variable is gone again, so child processes do not inherit it.
    assert report["env"] == {}


@pytest.mark.parametrize("var", BLAS_VARS)
def test_an_explicit_thread_count_wins_and_sweeps_still_hold_one(two_cpus, var):
    report = run_child(
        "import descent_lab",
        "out = descent_lab.run_sweep(descent_lab.SweepConfig(d=8, grid=[2, 8, 16], seeds=[0]))\n"
        "report.update(held=out.resolved['blas_threads'], failures=len(out.failures),\n"
        "              after=counts())",
        **{var: "2"})
    assert set(report["counts"]) == {2} and report["env"] == {var: "2"}
    assert report["failures"] == 0 and report["held"] == 1
    assert set(report["after"]) == {2}


def test_numpy_imported_first_keeps_its_own_thread_count(two_cpus):
    report = run_child("import numpy\nimport descent_lab")
    # numpy's default: a thread per CPU, untouched by the package.
    assert min(report["counts"]) > 1 and report["env"] == {}


def test_cli_import_leaves_the_http_chain_unloaded():
    report = run_child("import descent_lab.cli",
                       f"report['http'] = [m for m in {HTTP_CHAIN!r} if m in sys.modules]")
    assert report["http"] == []


def test_sweep_and_polyfit_leave_numpy_ma_unloaded(tmp_path):
    # np.median imports numpy.ma; the sweep's medians (the cutoff pre-pass,
    # the plotted series) must not.
    extra = (
        "from descent_lab import cli\n"
        f"out = {str(tmp_path)!r}\n"
        "report['codes'] = [\n"
        "    cli.main(['sweep', '--d', '8', '--grid', '2:24', '--seeds', '0:1',\n"
        "              '--ablation', 'sv-cutoff', '--out', out + '/sweep']),\n"
        "    cli.main(['polyfit', '--n', '8', '--p-grid', '1:20', '--seeds', '0:1',\n"
        "              '--out', out + '/poly'])]\n"
        "report['ma'] = 'numpy.ma' in sys.modules"
    )
    report = run_child("import descent_lab", extra)
    assert report["codes"] == [0, 0] and report["ma"] is False
