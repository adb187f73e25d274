import os
import subprocess
import sys
from pathlib import Path

import pytest

FETCH = Path(__file__).resolve().parent.parent / "scripts" / "fetch_datasets.py"


@pytest.mark.parametrize("flag, code", [("--bogus", 2), ("--help", 0)])
def test_fetch_datasets_parses_its_flags_before_any_fetch(flag, code):
    # A proxy on a closed local port makes any download fail at once, so
    # this test never reaches the network even if the parsing regresses.
    env = {**os.environ, "https_proxy": "http://127.0.0.1:9", "http_proxy": "http://127.0.0.1:9"}
    run = subprocess.run(
        [sys.executable, str(FETCH), flag], capture_output=True, text=True, env=env, timeout=60
    )
    assert run.returncode == code
    assert "fetching" not in run.stdout + run.stderr
    assert "usage:" in run.stdout + run.stderr
