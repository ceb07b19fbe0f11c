"""Output check for finished starts, run outside the timed section.

Every start must end in one of the four statuses the solver defines.  A
`Converged` start must also have a final step norm below eps_stop, and the
fast minimal-element filter must agree with the brute-force oracle on the
final image set.  The oracle runs in a process pool: it is a literal O(p^2)
Python loop and would otherwise take longer than the timed section.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor

import setopt.cone
import setopt.oracle
import setopt.problem
import setopt.setorder
import setopt.solver

STATUSES = (setopt.solver.CONVERGED, setopt.solver.MAX_ITERATIONS,
            setopt.solver.LINE_SEARCH_FAILURE, setopt.solver.NUMERICAL_ERROR)
FAILURES = (setopt.solver.LINE_SEARCH_FAILURE, setopt.solver.NUMERICAL_ERROR)


def minimal_sets_agree(A, e, F) -> bool:
    c = setopt.cone.validate(A, e)
    return setopt.setorder.minimal_elements(c, F) == setopt.oracle.brute_min(c, F)


def check(results, problems: dict, eps_stop: float, workers: int) -> list:
    """One bool per result: True when the start's output is right.

    `problems` maps each result's problem key to its ProblemSpec.
    """
    ok = [r.status in STATUSES for r in results]
    todo = []
    for j, r in enumerate(results):
        if r.status != setopt.solver.CONVERGED:
            continue
        if r.x_final is None or not r.u_norm_final < eps_stop:
            ok[j] = False
            continue
        ps = problems[r.problem]
        todo.append((j, ps.cone.A, ps.cone.e, setopt.problem.eval_F(ps, r.x_final)))
    if todo:
        ctx = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=min(workers, len(todo)), mp_context=ctx) as pool:
            chunk = max(1, len(todo) // (4 * workers))
            agree = pool.map(minimal_sets_agree, *zip(*[t[1:] for t in todo]), chunksize=chunk)
            for (j, *_), same in zip(todo, agree):
                ok[j] = ok[j] and bool(same)
    return ok


def is_failed(result, correct: bool) -> bool:
    return result.status in FAILURES or not correct


def same_outcomes(results, again) -> bool:
    """Two solves of the same starts ended with equal statuses and iteration counts."""
    return len(results) == len(again) and all(
        a.status == b.status and a.iterations == b.iterations for a, b in zip(results, again))
