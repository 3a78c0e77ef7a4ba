"""The measurement scripts under ``tools/``: ``scale.py`` prints its scaling table."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_scale_prints_one_row_per_size():
    argv = [sys.executable, str(ROOT / "tools" / "scale.py"), "--sizes", "5", "--repeats", "1"]
    lines = subprocess.run(argv, capture_output=True, text=True, check=True, timeout=300).stdout.splitlines()
    assert lines[:2] == ["| N | train step | its peak | forecast stack | its peak |", "|---|---|---|---|---|"]
    assert len(lines) == 3
    cells = re.fullmatch(r"\| 5 \| ([\d.]+) ms \| ([\d.]+) MB \| ([\d.]+) ms \| ([\d.]+) MB \|", lines[2])
    assert cells and all(float(value) > 0 for value in cells.groups())
