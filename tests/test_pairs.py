"""The paired benchmark runner, tests/pairs.py, on canned results: no run is started."""

import pairs

SPEC = {"end_to_end": [
    {"name": "ms_per_iter", "unit": "ms", "better": "lower", "bound": 0.24},
    {"name": "starts_per_s", "unit": "1/s", "better": "higher", "bound": 0.24},
    {"name": "start_ms_tail", "unit": "ms", "better": "lower", "bound": 0.24},
]}


def record(**metrics):
    return {"correct": True, "attempted": 10, "failed": 0,
            "metrics": {name: {"value": value, "unit": "-"} for name, value in metrics.items()}}


def test_summary_reads_better_from_the_spec_and_counts_won_pairs():
    base = [record(ms_per_iter=v, starts_per_s=100.0 + k) for k, v in
            enumerate([0.20, 0.19, 0.21, 0.20, 0.20])]
    head = [record(ms_per_iter=v, starts_per_s=100.0 + 2 * k) for k, v in
            enumerate([0.18, 0.18, 0.22, 0.20, 0.17])]
    lines = pairs.summary(SPEC, base, head)
    rows = {line.split()[0]: line.split() for line in lines[1:]}
    # start_ms_tail is in no run, so it has no line
    assert set(rows) == {"ms_per_iter", "starts_per_s"}
    ms = rows["ms_per_iter"]
    # won where the head is strictly lower: pairs 1, 2 and 5
    assert ms[-2] == "3/5"
    assert ms[2] == "0.2" and ms[5] == "0.18" and ms[-3] == "-10.0%"
    # quartiles of the base, [0.195, 0.205]: a gap of 0.02 exceeds them
    assert ms[3:5] == ["[0.195,", "0.205]"] and ms[-1] == "yes"
    sp = rows["starts_per_s"]
    # higher is better: the head wins every pair but the first, a tie
    assert sp[-2] == "4/5" and sp[-3] == "+2.0%" and sp[-1] == "no"


def test_sides_alternate_and_faults_are_named():
    assert pairs.firsts(4) == ["base", "head", "base", "head"]
    bad = dict(record(ms_per_iter=0.2), failed=1)
    runs = {"base": [record(ms_per_iter=0.2), {"error": "exit 1: boom"}],
            "head": [bad, record(ms_per_iter=0.2)]}
    assert [line.split(":")[0] for line in pairs.faults(runs)] == ["base run 2", "head run 1"]


def test_one_pair_has_its_values_for_quartiles():
    lines = pairs.summary(SPEC, [record(ms_per_iter=0.2)], [record(ms_per_iter=0.1)])
    assert lines[1].split()[-2:] == ["1/1", "yes"]
