"""Certified search over admissible speed profiles.

:func:`run_search` solves every menu of at most ``DEFAULT_ENUM_CAP``
profiles exactly with :func:`branch_and_bound` (termination
``enumerated``, gap 0, no rounds): a prefix-shared branch-and-bound
(Land & Doig 1960) whose pruning is an implicit enumeration of the whole
menu, so its answer is the flat enumeration's, bit for bit. The time
limit and the gap tolerance then play no part, so the answer is the same
on every machine. ``brute-force`` keeps the flat enumeration of
``validation``, so the two commands check each other.

Cell e's trajectories, cap and flow weight depend only on the prefix
``u_1..u_e``, so each level of the tree propagates one cell from its
parent's outflow. A capacity-flow bound on every completion of a prefix
(see :class:`PrefixTree`) and the radius prune the tree; the surviving
leaves are scored by the certificate's kernel.

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

import itertools
import math
import time
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .certificate import STATUS_FINITE, CertificateResult, _dual_totals, certificate
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
from .network import HighwayScenario, critical_density
from .sampling import SampleSet, check_bounded, propagate_batch, propagate_speeds
from .validation import DEFAULT_ENUM_CAP, ENUM_CHUNK_ELEMENTS, profile_count

TERM_ENUMERATED = "enumerated"
TERM_GAP = "gap"
TERM_EXHAUSTED = "upper_infeasible"
TERM_TIME = "time_limit"

DEFAULT_GAP_EPS = 1e-4
# A prefix survives while its bound is within this fraction (of the
# incumbent's magnitude, at least 1) below the incumbent, and while its
# partial distance is within it above the radius: rounding in the
# bound's sums never prunes a tie.
PRUNE_MARGIN = 1e-9
# Trajectory elements (steps 0..T) up to which a subtree is expanded to its
# leaves in one level of the branch-and-bound; at most ENUM_CHUNK_ELEMENTS.
BLOCK_ELEMENTS = 1 << 12


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
    # Prefixes the branch-and-bound propagated and, of those, discarded;
    # None from cut_and_bound.
    nodes_expanded: int | None = None
    nodes_pruned: int | None = None

    @property
    def feasible(self) -> bool:
        return self.best_u is not None and math.isfinite(self.best_value)


def _relative_gap(ub: float, lb: float) -> float:
    if not (math.isfinite(ub) and math.isfinite(lb)):
        return math.inf
    return (ub - lb) / max(1.0, abs(ub))


def run_search(problem: SearchProblem, gap_eps: float = DEFAULT_GAP_EPS,
               time_limit: float | None = None) -> SolveReport:
    """Return the certified best profile: exact by branch-and-bound when
    the menu has at most ``DEFAULT_ENUM_CAP`` profiles, else from
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
    best, cert, expanded, pruned = branch_and_bound(problem.scenario,
                                                    problem.samples)
    value = cert.value if cert is not None else -math.inf
    return SolveReport(
        best_u=best.u if best is not None else None, best_value=value,
        upper_bound=value, gap=0.0, termination=TERM_ENUMERATED,
        iterations=(), wall=time.monotonic() - start, certificate=cert,
        nodes_expanded=expanded, nodes_pruned=pruned,
    )


class Prefixes(NamedTuple):
    """F prefixes ``u_1..u_e`` of admissible profiles, in product order,
    stored one level per block of cells so that siblings share their
    ancestors.

    For each level k, with c_k cells: ``rho[k]`` (F_k, N, c_k, T + 1) is
    the density of its cells at steps 0..T, ``speed[k]`` and ``cap[k]``
    (F_k, c_k) their speeds and critical densities, and ``up[k]`` (F_k,)
    the row of each one's parent in level k - 1. The last level's rows
    are the prefixes themselves: dist (F,) is their partial box distance,
    partial (F, L) the sum over their cells of ``min(lam, a_k) * mass_k``
    at each scale of ``PrefixTree.lams``, and bound (F,) the
    capacity-flow bound on their completions. The three are None for
    children that were not measured; the root has no bound.
    """

    rho: tuple
    speed: tuple
    cap: tuple
    up: tuple
    dist: np.ndarray | None
    partial: np.ndarray | None
    bound: np.ndarray | None

    @property
    def length(self) -> int:
        """Cells in each prefix."""
        return sum(speed.shape[1] for speed in self.speed)

    @property
    def size(self) -> int:
        """Number of prefixes."""
        return len(self.up[-1]) if self.up else 1

    def take(self, rows) -> "Prefixes":
        """The prefixes at rows of the last level, sharing its ancestors."""
        *head, last = zip(self.rho, self.speed, self.cap, self.up)
        last = tuple(field[rows] for field in last)
        rho, speed, cap, up = zip(*head, last)
        return Prefixes(rho, speed, cap, up, self.dist[rows],
                        self.partial[rows], self.bound[rows])

    def profiles(self):
        """Speeds and critical densities (F, e) of the prefixes, and their
        trajectories (F, N, e, T) at steps 1..T (a view when the prefixes
        are one level)."""
        if len(self.rho) == 1:
            return self.speed[0], self.cap[0], self.rho[0][..., 1:]
        (F, N, _, T1), e = self.rho[-1].shape, self.length
        speeds, caps = np.empty((F, e)), np.empty((F, e))
        traj = np.empty((F, N, e, T1 - 1))
        rows, hi = slice(None), e
        for rho, speed, cap, up in reversed(tuple(zip(*self[:4]))):
            lo = hi - speed.shape[1]
            speeds[:, lo:hi] = speed[rows]
            caps[:, lo:hi] = cap[rows]
            traj[:, :, lo:hi] = rho[rows, ..., 1:]
            rows, hi = up[rows], lo
        return speeds, caps, traj


class PrefixTree:
    """The admissible prefixes of a menu, expanded a block of cells at a
    time.

    Cell e's trajectories, cap and flow weight depend only on the prefix
    ``u_1..u_e``, so a child propagates only its own cells, from its
    parent's outflow, with the element-wise expression of
    ``propagate_speeds``: every trajectory keeps its bits.

    The bound of a prefix ending at cell e is

        max over lam in lams of  sum_{k<=e} min(lam, a_k) * mass_k
                                 + sum_{k>e} cf_k(lam),

    with ``cf_k(lam) = max over u in band_k of min(lam, u/T) * T *
    critical_density(u)`` and lams the global scale set: zero and every
    band speed over T. It bounds the value of every completion whose
    ambiguity set is not empty, since ``mass_k <= T * critical_density(u_k)``,
    ``lam * (dist - epsilon) <= 0`` when ``dist <= epsilon``, and a
    profile's value is its dual objective's maximum over its own
    breakpoints, all of which are in lams.
    """

    def __init__(self, scenario: HighwayScenario, samples: SampleSet):
        self.scenario = scenario
        self.samples = samples
        self.band_caps = tuple(tuple(critical_density(seg, u) for u in band)
                               for seg, band in zip(scenario.segments, scenario.bands))
        self.u_max = max(band[-1] for band in scenario.bands)

    # The bound's tables are built on first use: a tree expanded to its
    # leaves in one level never measures its children.
    @cached_property
    def lams(self) -> np.ndarray:
        speeds = [u for band in self.scenario.bands for u in band]
        return np.unique(np.array([0.0, *speeds]) / self.scenario.T)

    @cached_property
    def tail(self) -> np.ndarray:
        """(n + 1, L): the capacity-flow bound of cells e..n-1 in row e,
        zero past the last cell."""
        T = self.scenario.T
        flow_cap = [
            (np.minimum(self.lams, np.array(band)[:, None] / T)
             * (T * np.array(caps))[:, None]).max(axis=0)
            for band, caps in zip(self.scenario.bands, self.band_caps)
        ]
        return np.cumsum([np.zeros(len(self.lams))] + flow_cap[::-1], axis=0)[::-1]

    def root(self) -> Prefixes:
        """The empty prefix."""
        return Prefixes(rho=(), speed=(), cap=(), up=(), dist=np.zeros(1),
                        partial=np.zeros((1, 1)), bound=None)

    def children(self, parents: Prefixes, floor: float | None = -math.inf,
                 reach: float = math.inf, cells: int = 1) -> tuple[Prefixes, int]:
        """Propagate the next ``cells`` cells under every combination of
        their bands' speeds for every parent; return the children whose
        bound is at least floor and whose partial distance is at most
        reach, in product order, and the number of children propagated.
        With floor None every child is kept unmeasured. Raises ValueError
        as ``propagate_speeds`` does when the trajectories overflow."""
        sc = self.scenario
        e, T, h, N = parents.length, sc.T, sc.h, self.samples.count
        F, block = parents.size, slice(e, e + cells)
        # (R, cells): the combinations of the cells' speeds, in product
        # order, and their critical densities.
        speed = np.array(list(itertools.product(*sc.bands[block])))
        cap = np.array(list(itertools.product(*self.band_caps[block])))
        R = len(speed)
        # (F, R, N, cells, T + 1): parents, combinations, draws, cells, steps.
        rho = self.samples.rho0[:, block]
        out = np.empty((F, R, N, cells, T + 1))
        out[..., 0] = rho
        u = speed[:, None]
        inflow = np.zeros((F, R, N, cells))
        omega = self.samples.omega[:, block]
        with np.errstate(over="ignore", invalid="ignore"):
            if e:
                # The upstream cell's outflow at steps 0..T-1, as
                # propagate_speeds computes it.
                upstream = (parents.speed[-1][:, None, None, -1:]
                            * parents.rho[-1][:, None, :, -1, :T])
            for t in range(T):
                flow = u * rho
                inflow[..., 1:] = flow[..., :-1]
                if e:
                    inflow[..., 0] = upstream[..., t]
                rho = rho + h * (inflow - flow + omega[..., t])
                out[..., t + 1] = rho
            check_bounded(sc, out, self.u_max)
        if floor is None:
            rows, dist, partial, bound = slice(None), None, None, None
            up, combo = np.divmod(np.arange(F * R), R)
        else:
            traj = out[..., 1:]
            anchor = np.maximum(traj, 0.0)
            np.minimum(anchor, cap[:, None, :, None], out=anchor)
            mass = anchor.sum(axis=(2, 4)) / N
            anchor -= traj
            dist = (parents.dist[:, None]
                    + np.abs(anchor, out=anchor).sum(axis=(2, 3, 4)) / N)
            terms = np.minimum(self.lams, speed[..., None] / T) * mass[..., None]
            partial = parents.partial[:, None] + terms.sum(axis=2)
            bound = (partial + self.tail[e + cells]).max(axis=2)
            rows = np.flatnonzero((bound >= floor) & (dist <= reach))
            up, combo = np.divmod(rows, R)
            dist, bound = dist.ravel()[rows], bound.ravel()[rows]
            partial = partial.reshape(F * R, -1)[rows]
        return Prefixes(
            rho=parents.rho + (out.reshape(F * R, N, cells, T + 1)[rows],),
            speed=parents.speed + (speed[combo],), cap=parents.cap + (cap[combo],),
            up=parents.up + (up,), dist=dist, partial=partial, bound=bound,
        ), F * R


def _leaf_totals(scenario: HighwayScenario, speeds: np.ndarray, caps: np.ndarray,
                 traj: np.ndarray):
    """Scales [0, a_1..a_n] and the dual objective at them of P whole
    profiles, each row as menu_values computes it."""
    a = speeds / scenario.T
    lams = np.concatenate((np.zeros((len(a), 1)), a), axis=1)
    totals, _ = _dual_totals(a, caps, traj, lams, scenario.epsilon)
    return lams, totals


def branch_and_bound(scenario: HighwayScenario, samples: SampleSet):
    """Find the best certified profile by prefix-shared branch-and-bound;
    return (best, result, nodes expanded, nodes pruned).

    The answer is that of ``validation.exact_optimum``, bit for bit: each
    leaf is scored by the certificate's kernel on its own trajectories,
    with the value ``certificate`` gives it, and the first best in product
    order wins. best and result are None when every profile has an empty
    ambiguity set.

    The tree is walked depth first, one cell per level, in chunks of at
    most ``ENUM_CHUNK_ELEMENTS`` trajectory elements per level. A chunk
    whose whole subtree holds at most ``BLOCK_ELEMENTS`` trajectory
    elements is expanded to its leaves in one level instead: at that size
    numpy's per-call cost outweighs what pruning saves. Unless the root is such
    a chunk, the incumbent starts at the profile of each band's top
    speed, the last in product order. A prefix is pruned when its partial
    distance exceeds the radius (no completion has a nonempty ambiguity
    set) or when its :class:`PrefixTree` bound is more than
    ``PRUNE_MARGIN`` below the incumbent. Nodes count the prefixes
    propagated and, of those, pruned.
    """
    tree = PrefixTree(scenario, samples)
    n, N, T = scenario.n, samples.count, scenario.T
    eps = scenario.epsilon
    reach = eps + PRUNE_MARGIN * max(1.0, eps)
    # Trajectory elements (steps 0..T) of the leaves below one prefix of
    # each length.
    subtree = [math.prod(map(len, scenario.bands[e:])) * N * (n - e) * (T + 1)
               for e in range(n)]
    # The best profile so far: its value, its scales, totals and speeds,
    # and whether a leaf of equal value replaces it (every leaf precedes
    # the seed in product order).
    value, best, replaceable = -math.inf, None, True
    if subtree[0] > BLOCK_ELEMENTS:
        speeds = np.array([[band[-1] for band in scenario.bands]])
        caps = np.array([[c[-1] for c in tree.band_caps]])
        rho = propagate_speeds(scenario, speeds[0], samples)[None]
        lams, totals = _leaf_totals(scenario, speeds, caps, rho)
        value, best = totals[0].max(), (lams[0], totals[0], speeds[0])
    expanded = pruned = 0

    def descend(parents: Prefixes) -> None:
        nonlocal value, best, replaceable, expanded, pruned
        e = parents.length
        step = max(1, ENUM_CHUNK_ELEMENTS
                   // (len(scenario.bands[e]) * N * (e + 1) * (T + 1)))
        for i in range(0, parents.size, step):
            chunk = parents if step >= parents.size else parents.take(
                slice(i, i + step))
            cells = n - e if chunk.size * subtree[e] <= BLOCK_ELEMENTS else 1
            if value > -math.inf:
                floor = value - PRUNE_MARGIN * max(1.0, abs(value))
            else:
                # Without an incumbent only the radius prunes, and at the
                # leaves the kernel gives a pruned leaf -inf anyway.
                floor = None if e + cells == n else -math.inf
            kids, propagated = tree.children(chunk, floor, reach, cells)
            expanded += propagated
            pruned += propagated - kids.size
            if not kids.size:
                continue
            if e + cells < n:
                descend(kids)
                continue
            speeds, caps, traj = kids.profiles()
            lams, totals = _leaf_totals(scenario, speeds, caps, traj)
            values = totals.max(axis=1)
            k = int(np.argmax(values))
            if values[k] > value or (values[k] == value and replaceable):
                value, best, replaceable = values[k], (lams[k], totals[k], speeds[k]), False

    descend(tree.root())
    if value == -math.inf:
        return None, None, expanded, pruned
    lams, totals, speeds = best
    # The scan table of certificate(): sorted unique scales (a repeated
    # scale has the same total), ties to the smallest.
    table = sorted(dict(zip(lams.tolist(), totals.tolist())).items())
    lambda_star, value = max(table, key=lambda row: row[1])
    result = CertificateResult(value=value, lambda_star=lambda_star,
                               status=STATUS_FINITE, table=tuple(table))
    return scenario.speed_profile(speeds), result, expanded, pruned


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
