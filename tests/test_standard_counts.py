"""The standard check's statuses and iteration counts, pinned.

`standard_counts.txt` holds the counts lines of `python tests/standard_check.py`:
per (problem, method), the status initial and iteration count of each of its
45 fixed-seed runs.  A change that moves a count must update the file, so the
move shows as a diff of it.
"""

from pathlib import Path

import standard_check

COUNTS = Path(__file__).resolve().parent / "standard_counts.txt"


def test_standard_check_counts_match_the_committed_file():
    assert standard_check.count_lines() == COUNTS.read_text().splitlines()
