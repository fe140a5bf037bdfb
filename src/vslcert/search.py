"""Certified search over admissible speed profiles.

:func:`run_search` solves every menu of at most ``DEFAULT_ENUM_CAP``
profiles exactly with the stacked evaluator of ``validation``
(termination ``enumerated``, gap 0, no rounds). The time limit and the gap
tolerance then play no part, so the answer is the same on every machine.

Larger menus go to :func:`cut_and_bound`, the iterative MILP search.
Its mixed-binary upper model is built once. Each round solves it for a
candidate profile, evaluates that candidate exactly with the closed-form
certificate, tightens the running upper and lower bounds, and appends
the candidate's exclusion cut to the model. The loop stops when the
relative gap closes, when the cuts make the upper model infeasible
(every assignment visited), or when a wall-clock budget, which also
covers the model build, runs out after at least one candidate with a
finite value has been found.
A budget alone never stops the search while every visited candidate is
worthless: the loop keeps going until the first finite value appears.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass

from .certificate import certificate
from .errors import NumericalError
# build_lower, solve_lp: unused, kept for perfbench/tracer.py TARGETS.
from .linearize import (
    SearchProblem,
    assignment_of,
    build_lower,
    build_upper,
    decode_profile,
    eta_saturation,
    exclude,
)
from .lpsolve import INFEASIBLE, OPTIMAL, TIME_LIMIT, solve_milp
from .lpsolve import solve_milp as solve_lp
from .sampling import propagate_batch
from .validation import DEFAULT_ENUM_CAP, exact_optimum, profile_count

TERM_ENUMERATED = "enumerated"
TERM_GAP = "gap"
TERM_EXHAUSTED = "upper_infeasible"
TERM_TIME = "time_limit"

DEFAULT_GAP_EPS = 1e-4


@dataclass(frozen=True)
class IterationRecord:
    k: int
    assignment: tuple[int, ...]
    u: tuple[float, ...]
    upper_status: str
    upper_value: float
    ub: float
    lb: float
    certificate_value: float
    node_count: int | None
    wall: float


@dataclass(frozen=True)
class SolveReport:
    best_u: tuple[float, ...] | None
    best_value: float
    upper_bound: float
    gap: float
    termination: str
    iterations: tuple[IterationRecord, ...]
    wall: float
    certificate: object = None

    @property
    def feasible(self) -> bool:
        return self.best_u is not None and math.isfinite(self.best_value)


def _relative_gap(ub: float, lb: float) -> float:
    if not (math.isfinite(ub) and math.isfinite(lb)):
        return math.inf
    return (ub - lb) / max(1.0, abs(ub))


def run_search(problem: SearchProblem, gap_eps: float = DEFAULT_GAP_EPS,
               time_limit: float | None = None) -> SolveReport:
    """Return the certified best profile: exact by enumeration when the
    menu has at most ``DEFAULT_ENUM_CAP`` profiles, else from
    :func:`cut_and_bound`, to which gap_eps and time_limit apply. Both
    are checked on every menu: each must be finite and positive, and
    time_limit may also be None for no budget."""
    if not (math.isfinite(gap_eps) and gap_eps > 0):
        raise ValueError(f"gap_eps must be finite and positive, got {gap_eps!r}")
    if time_limit is not None and not (math.isfinite(time_limit) and time_limit > 0):
        raise ValueError(
            f"time_limit must be finite and positive, got {time_limit!r}")
    if profile_count(problem.scenario) > DEFAULT_ENUM_CAP:
        return cut_and_bound(problem, gap_eps, time_limit)
    start = time.monotonic()
    best, cert = exact_optimum(problem.scenario, problem.samples)
    value = cert.value if cert is not None else -math.inf
    return SolveReport(
        best_u=best.u if best is not None else None, best_value=value,
        upper_bound=value, gap=0.0, termination=TERM_ENUMERATED,
        iterations=(), wall=time.monotonic() - start, certificate=cert,
    )


def cut_and_bound(problem: SearchProblem, gap_eps: float = DEFAULT_GAP_EPS,
                  time_limit: float | None = None) -> SolveReport:
    """Run the cut-and-bound loop and return the certified best profile."""
    scenario = problem.scenario
    start = time.monotonic()
    upper = build_upper(problem)
    visited: set[tuple[int, ...]] = set()
    records: list[IterationRecord] = []
    ub = math.inf
    lb = -math.inf
    best_u = None
    best_cert = None
    termination = None
    k = 0

    def report(term: str) -> SolveReport:
        return SolveReport(
            best_u=best_u, best_value=lb, upper_bound=ub,
            gap=_relative_gap(ub, lb), termination=term,
            iterations=tuple(records), wall=time.monotonic() - start,
            certificate=best_cert,
        )

    while True:
        k += 1
        elapsed = time.monotonic() - start
        out_of_time = time_limit is not None and elapsed >= time_limit
        if out_of_time and math.isfinite(lb):
            termination = TERM_TIME
            break
        budget = None
        if time_limit is not None:
            budget = max(time_limit - elapsed, 0.01)
        sol = solve_milp(upper.model, time_limit=budget)
        if sol.status == TIME_LIMIT and sol.x is None:
            if math.isfinite(lb):
                termination = TERM_TIME
                break
            # No usable candidate anywhere yet: the budget does not bite
            # until one exists. Rerun with doubling budgets until the
            # solver hands back an incumbent; an uncapped rerun would
            # grind toward an optimality proof nobody needs here.
            retry = max(budget, 1.0)
            while sol.status == TIME_LIMIT and sol.x is None:
                retry *= 2.0
                sol = solve_milp(upper.model, time_limit=retry)
        if sol.status == INFEASIBLE:
            termination = TERM_EXHAUSTED
            break
        if sol.status not in (OPTIMAL, TIME_LIMIT):
            raise NumericalError(
                f"upper model ended {sol.status} at round {k}",
                report=report("aborted"),
            )
        bound = sol.objective if sol.status == OPTIMAL else sol.bound
        if bound is not None and not math.isnan(bound):
            ub = min(ub, bound)
        hits = eta_saturation(upper, sol)
        if hits:
            warnings.warn(
                f"{len(hits)} dual multipliers at the configured cap; "
                "upper bound may be truncated, raise eta_bar",
                RuntimeWarning, stacklevel=2,
            )
        profile = decode_profile(upper, sol)
        assignment = assignment_of(upper, sol)
        if assignment in visited:
            raise NumericalError(
                f"candidate repeated at round {k}: assignment {assignment} "
                "already visited",
                report=report("aborted"),
            )
        visited.add(assignment)
        exclude(upper, assignment)
        batch = propagate_batch(scenario, profile, problem.samples)
        cert = certificate(scenario, profile, batch)
        if cert.value > lb:
            lb = cert.value
            best_u = profile.u
            best_cert = cert
        records.append(IterationRecord(
            k=k, assignment=assignment, u=profile.u,
            upper_status=sol.status,
            upper_value=bound if bound is not None else math.nan,
            ub=ub, lb=lb, certificate_value=cert.value,
            node_count=sol.node_count, wall=time.monotonic() - start,
        ))
        if _relative_gap(ub, lb) <= gap_eps:
            termination = TERM_GAP
            break

    return report(termination)
