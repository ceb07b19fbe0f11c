"""Fast checks of the benchmark itself: span self times and a smoke run."""

import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import tracer  # noqa: E402


def spans(rows):
    arr = np.asarray(rows, dtype=float)
    return {"id": arr[:, 0].astype(np.int64), "name": arr[:, 1].astype(np.int64),
            "start": arr[:, 2], "end": arr[:, 3], "parent": arr[:, 4].astype(np.int64)}


def test_self_time_subtracts_children():
    run = tracer.SPAN_NAMES.index("solver.run")
    ev = tracer.SPAN_NAMES.index("problem.eval_F")
    s = spans([(0, run, 0.0, 10.0, -1), (1, ev, 1.0, 3.0, 0), (2, ev, 4.0, 5.0, 0)])
    assert np.allclose(tracer.self_times(s), [7.0, 2.0, 1.0])


def test_run_bench_self_time_is_union_of_pool_spans():
    rb = tracer.SPAN_NAMES.index("bench.run_bench")
    run = tracer.SPAN_NAMES.index("solver.run")
    # two pool threads overlap in [2, 4]; the union covers [1, 6]
    s = spans([(0, rb, 0.0, 8.0, -1), (1, run, 1.0, 4.0, 0), (2, run, 2.0, 6.0, 0)])
    assert np.allclose(tracer.self_times(s), [3.0, 3.0, 4.0])


def test_smoke_run():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke"],
                          cwd=HERE.parent, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_speed_scale_uses_bracketing_samples():
    import hostspeed
    log = hostspeed.SpeedLog()
    log.starts, log.ends, log.ms = [0.0, 1.0, 2.0], [0.1, 1.1, 2.1], [10.0, 30.0, 50.0]
    # work in [0.2, 0.9] lies between the first two samples
    assert np.isclose(log.scale(0.2, 0.9), hostspeed.REFERENCE_MS / 20.0)
    assert np.isclose(log.scale(1.2, 1.9), hostspeed.REFERENCE_MS / 40.0)
    assert np.isclose(log.run_scale(), hostspeed.REFERENCE_MS / 30.0)


def test_run_keeps_the_reference_time():
    import hostspeed
    import run
    assert run.REFERENCE_MS == hostspeed.REFERENCE_MS
