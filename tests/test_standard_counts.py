"""The standard check's statuses and iteration counts, pinned.

`standard_counts.txt` holds the counts and evals lines of `python
tests/standard_check.py`: per (problem, method), the status initial and
iteration count of each of its 45 fixed-seed runs, and their F and J
evaluations and backtracks; then its expr line's counts of generated calls
that returned and raised.  A change that moves a count must update the
file, so the move shows as a diff of it.  Warnings are errors here, so a
numpy warning that escapes a standard run fails the test.
"""

from pathlib import Path

import pytest

import standard_check

COUNTS = Path(__file__).resolve().parent / "standard_counts.txt"


@pytest.mark.filterwarnings("error")
def test_standard_check_counts_match_the_committed_file():
    assert standard_check.count_lines() == COUNTS.read_text().splitlines()
