# Regenerate data/diabetes.csv from its canonical source.
#
# The committed file is the classical diabetes study table used in the
# least-angle-regression paper (Efron, Hastie, Johnstone, Tibshirani 2004):
# 442 patients, ten baseline variables, and a quantitative measure of
# disease progression one year later.  Canonical copy:
#
#     https://www.web.stanford.edu/~hastie/Papers/LARS/diabetes.data
#
# That file is whitespace-separated with columns AGE SEX BMI BP S1-S6 Y.
# We store it as a plain headered CSV (lower-case names, target last) so
# load_csv needs no special cases.  Running this script downloads the table,
# rewrites it in our format, and verifies it matches the committed file if
# one is present.  The package itself never needs network access or this
# script; it reads the committed CSV.
#
# Usage:  python3 scripts/fetch_datasets.py [--force]

import argparse
import sys
import urllib.request
from pathlib import Path

URL = "https://www.web.stanford.edu/~hastie/Papers/LARS/diabetes.data"
OUT = Path(__file__).resolve().parent.parent / "data" / "diabetes.csv"
HEADER = ["age", "sex", "bmi", "bp", "s1", "s2", "s3", "s4", "s5", "s6", "target"]


def fetch() -> list[list[float]]:
    print(f"fetching {URL}")
    with urllib.request.urlopen(URL, timeout=60) as resp:
        text = resp.read().decode("utf-8")
    lines = [ln for ln in text.splitlines() if ln.strip()]
    rows = []
    for ln in lines[1:]:  # first line is the AGE SEX ... header
        parts = ln.split()
        if len(parts) != len(HEADER):
            raise SystemExit(f"unexpected column count in line: {ln!r}")
        rows.append([float(p) for p in parts])
    if len(rows) != 442:
        raise SystemExit(f"expected 442 rows, got {len(rows)}")
    return rows


def render(rows) -> str:
    out = [",".join(HEADER)]
    for row in rows:
        out.append(",".join(f"{v:.12g}" for v in row))
    return "\n".join(out) + "\n"


def main() -> int:
    parser = argparse.ArgumentParser(
        description="Download the diabetes table and rewrite data/diabetes.csv from it."
    )
    parser.add_argument(
        "--force", action="store_true", help="overwrite a committed file that differs"
    )
    args = parser.parse_args()
    text = render(fetch())
    if OUT.exists() and not args.force:
        if OUT.read_text(encoding="utf-8") == text:
            print(f"{OUT} already matches the canonical source")
            return 0
        print(f"{OUT} differs from the canonical source; rerun with --force to overwrite")
        return 1
    OUT.parent.mkdir(parents=True, exist_ok=True)
    OUT.write_text(text, encoding="utf-8")
    print(f"wrote {OUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
