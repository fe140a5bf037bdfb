"""Certified search over admissible speed profiles.

:func:`run_search` solves every menu with :func:`branch_and_bound`: a
prefix-shared branch-and-bound (Land & Doig 1960) whose pruning is an
implicit enumeration of the whole menu, so its answer is the flat
enumeration's, bit for bit (termination ``enumerated``, gap 0).
``brute-force`` keeps the flat enumeration of ``validation``, so the two
commands check each other.

Cell e's trajectories, cap and flow weight depend only on the prefix
``u_1..u_e``, so each level of the tree propagates one cell from its
parent's outflow. A capacity-flow bound on every completion of a prefix
(see :class:`PrefixTree`) and the radius prune the tree; the surviving
leaves are scored by the certificate's kernel.

A time limit binds only on menus of more than ``DEFAULT_ENUM_CAP``
profiles, so the answer on a menu under the cap is the same on every
machine. Past the cap the walk checks its deadline between chunks; when
the deadline has passed, the search stops with the best profile found so
far, if any (termination ``time_limit``), and reports the root's
capacity-flow bound as its upper bound.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .certificate import STATUS_FINITE, CertificateResult, _dual_totals
from .linearize import SearchProblem
from .network import HighwayScenario, critical_density
from .sampling import SampleSet, check_bounded, propagate_speeds
from .validation import DEFAULT_ENUM_CAP, ENUM_CHUNK_ELEMENTS, profile_count

# perfbench/tracer.py TARGETS looks these nine names up on this module with
# getattr and no default, so they stay until the benchmark reads spans from
# inside the product (ROADMAP item 3). The search calls none of them; the
# last four name functions removed with the MILP search.
from .certificate import certificate
from .linearize import build_lower
from .lpsolve import solve_milp
from .lpsolve import solve_milp as solve_lp
from .sampling import propagate_batch


def _removed(*args, **kwargs):
    raise NotImplementedError("removed with the MILP search")


build_upper = decode_profile = assignment_of = eta_saturation = _removed

TERM_ENUMERATED = "enumerated"
TERM_TIME = "time_limit"

# A prefix survives while its bound is within this fraction (of the
# incumbent's magnitude, at least 1) below the incumbent, and while its
# partial distance is within it above the radius: rounding in the
# bound's sums never prunes a tie.
PRUNE_MARGIN = 1e-9
# Trajectory elements (steps 0..T) up to which a subtree is expanded to its
# leaves in one level of the branch-and-bound; at most ENUM_CHUNK_ELEMENTS.
BLOCK_ELEMENTS = 1 << 12


@dataclass(frozen=True)
class SolveReport:
    best_u: tuple[float, ...] | None
    best_value: float
    upper_bound: float
    gap: float
    termination: str
    wall: float
    certificate: CertificateResult | None
    # Prefixes the branch-and-bound propagated and, of those, discarded.
    nodes_expanded: int
    nodes_pruned: int
    # Always empty: perfbench/tracer.py counts its entries as search rounds
    # (ROADMAP item 3).
    iterations: tuple = ()

    @property
    def feasible(self) -> bool:
        return self.best_u is not None and math.isfinite(self.best_value)


def run_search(problem: SearchProblem,
               time_limit: float | None = None) -> SolveReport:
    """Return the certified best profile, found by :func:`branch_and_bound`.

    time_limit is a wall-clock budget in seconds, finite and positive, or
    None for none. It is checked on every menu but binds only past
    ``DEFAULT_ENUM_CAP`` profiles. A search it stops returns the best
    profile found so far, or none, with termination ``time_limit`` and the
    root's capacity-flow bound as upper bound; a search that finishes is
    exact, with termination ``enumerated`` and gap 0."""
    if time_limit is not None and not (math.isfinite(time_limit) and time_limit > 0):
        raise ValueError(
            f"time_limit must be finite and positive, got {time_limit!r}")
    scenario, samples = problem.scenario, problem.samples
    start = time.monotonic()
    deadline = None
    if time_limit is not None and profile_count(scenario) > DEFAULT_ENUM_CAP:
        deadline = start + time_limit
    best, cert, expanded, pruned, finished = branch_and_bound(scenario, samples,
                                                              deadline)
    value = cert.value if cert is not None else -math.inf
    if finished:
        upper, gap, termination = value, 0.0, TERM_ENUMERATED
    else:
        upper = float(PrefixTree(scenario, samples).tail[0].max())
        gap = (upper - value) / max(1.0, abs(upper))
        termination = TERM_TIME
    return SolveReport(
        best_u=best.u if best is not None else None, best_value=value,
        upper_bound=upper, gap=gap, termination=termination,
        wall=time.monotonic() - start, certificate=cert,
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


def branch_and_bound(scenario: HighwayScenario, samples: SampleSet,
                     deadline: float | None = None):
    """Find the best certified profile by prefix-shared branch-and-bound;
    return (best, result, nodes expanded, nodes pruned, finished).

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

    Before each chunk the walk reads ``time.monotonic()`` against
    deadline, unless it is None; once the deadline has passed it stops,
    with finished False and the best profile found so far as best and
    result (None when there is none yet).
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
    stopped = False

    def descend(parents: Prefixes) -> None:
        nonlocal value, best, replaceable, expanded, pruned, stopped
        e = parents.length
        step = max(1, ENUM_CHUNK_ELEMENTS
                   // (len(scenario.bands[e]) * N * (e + 1) * (T + 1)))
        for i in range(0, parents.size, step):
            stopped = stopped or (deadline is not None
                                  and time.monotonic() >= deadline)
            if stopped:
                return
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
        return None, None, expanded, pruned, not stopped
    lams, totals, speeds = best
    # The scan table of certificate(): sorted unique scales (a repeated
    # scale has the same total), ties to the smallest.
    table = sorted(dict(zip(lams.tolist(), totals.tolist())).items())
    lambda_star, value = max(table, key=lambda row: row[1])
    result = CertificateResult(value=value, lambda_star=lambda_star,
                               status=STATUS_FINITE, table=tuple(table))
    return scenario.speed_profile(speeds), result, expanded, pruned, not stopped

