"""`tools/search_sweep.py` solves a set and prints its summary line, leaving
nothing behind in the source tree. Node counts are not pinned: a change to
the search may move them on purpose."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_myciel4_prints_one_proven_summary_line():
    before = set((ROOT / "src").rglob("*"))
    run = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "search_sweep.py"), "--set", "myciel4"],
        capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    assert re.fullmatch(
        r"myciel4: 1 graphs, explored \d+, generated \d+, exact calls \d+, proven 1, "
        r"chi-hat sum 5, \d+\.\d s\n", run.stdout)
    assert set((ROOT / "src").rglob("*")) == before


def test_joins_are_all_proven():
    run = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "search_sweep.py"), "--set", "joins"],
        capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    assert re.fullmatch(
        r"joins: 8 graphs, explored \d+, generated \d+, exact calls \d+, proven 8, "
        r"chi-hat sum 61, \d+\.\d s\n", run.stdout)


def test_unknown_set_is_refused():
    run = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "search_sweep.py"), "--set", "g40,g60"],
        capture_output=True, text=True, timeout=60,
    )
    assert run.returncode == 2 and "unknown set g60" in run.stderr
