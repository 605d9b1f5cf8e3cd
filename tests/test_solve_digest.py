"""`tools/solve_digest.py` solves a workload and prints its digest line,
leaving nothing behind in the source tree. The digest value itself is not
pinned: a change may move the solver's results on purpose."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def tree_files() -> set[Path]:
    return {path for top in ("benchmark", "src") for path in (ROOT / top).rglob("*")}


def test_gnp_exact_seed_prints_one_digest_line():
    before = tree_files()
    run = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "solve_digest.py"), "--workload", "gnp_exact", "--seed", "1"],
        capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    assert re.fullmatch(r"[0-9a-f]{64}  gnp_exact seed 1 \(150 solves\)\n", run.stdout)
    assert tree_files() == before
