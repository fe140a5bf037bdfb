"""Certified search over admissible speed profiles.

Cell e's trajectories, cap and flow weight depend only on the prefix
``u_1..u_e``, and so do its terms of the certificate's per-cell sums.
So one depth-first walk of a prefix tree (:class:`PrefixTree`, one cell
per level, each child propagated from its parent's outflow) scores every
profile with the value ``certificate`` gives it, bit for bit, from its
running sums. :func:`run_search` is that walk. Without prune tests it
scores every leaf: ``validation.brute_force_optimum``, which
``brute-force`` runs. With them (``solve``) it is a prefix-shared
branch-and-bound (Land & Doig 1960): a capacity-flow bound on every
completion of a prefix and the radius prune the tree, an implicit
enumeration of the whole menu, so it returns the exact optimum too
(termination ``enumerated``, gap 0).

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

from .certificate import (
    CertificateResult,
    add_cells,
    certificate,
    dual_totals,
    scan_result,
)
from .errors import ArgumentError
from .network import HighwayScenario, critical_density
from .sampling import SampleSet, check_bounded, propagate_batch, propagate_cells

# perfbench/tracer.py TARGETS looks up these names (solve_milp is solve_lp's
# old name), certificate, propagate_batch and four removed functions on this
# module with getattr and no default, so they stay until the benchmark change
# that moves the tracer onto spans (ROADMAP, "Spans inside the product"). They
# also load vslcert.lpsolve with the CLI, whose import time the benchmark reads.
from .linearize import build_lower
from .lpsolve import solve_lp
from .lpsolve import solve_lp as solve_milp


def _removed(*args, **kwargs):
    raise NotImplementedError("removed with the MILP search")


build_upper = decode_profile = assignment_of = eta_saturation = _removed

TERM_ENUMERATED = "enumerated"
TERM_TIME = "time_limit"

# Menus of more profiles are refused by brute_force_optimum, and a search past
# it may be stopped by its time limit.
DEFAULT_ENUM_CAP = 100_000
# Trajectory elements (prefixes x speeds x draws x steps 0..T) of the
# children of one chunk of prefixes at depth 0, and this over e + 1 at
# depth e: chunks shrink with depth, so that the depth-first walk scores
# leaves, and raises its incumbent, after fewer expansions. A chunk holds
# at least one prefix.
ENUM_CHUNK_ELEMENTS = 1 << 18

# A prefix survives while its bound is within this fraction (of the
# incumbent's magnitude, at least 1) below the incumbent, and while its
# partial distance is within it above the radius: rounding in the
# bound's sums never prunes a tie.
PRUNE_MARGIN = 1e-9
# Trajectory elements (steps 0..T) up to which a subtree is expanded to its
# leaves in one level of the branch-and-bound; at most ENUM_CHUNK_ELEMENTS.
BLOCK_ELEMENTS = 1 << 12


def profile_count(scenario: HighwayScenario) -> int:
    """Number of admissible profiles: the product of the band sizes."""
    return math.prod(len(b) for b in scenario.bands)


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
    # until the benchmark change drops that metric (ROADMAP, "Spans inside
    # the product").
    iterations: tuple = ()

    @property
    def feasible(self) -> bool:
        return self.best_u is not None and math.isfinite(self.best_value)


class Prefixes(NamedTuple):
    """F prefixes ``u_1..u_e`` of admissible profiles, in product order.

    speed (F, e) holds their speeds and traj (F, N, T) the densities of
    their last cell at steps 1..T, from which the next cell is propagated
    (None for the root and for whole profiles). dist (F,) is their partial
    box distance and partial (F, L) the running sum over their cells of
    ``min(lam, a_k) * mass_k`` at each scale of ``PrefixTree.lams``, both
    as :func:`certificate.add_cells` carries them; bound (F,) is the
    capacity-flow bound on their completions, None when not measured.
    """

    speed: np.ndarray
    traj: np.ndarray | None
    dist: np.ndarray
    partial: np.ndarray
    bound: np.ndarray | None

    @property
    def length(self) -> int:
        """Cells in each prefix."""
        return self.speed.shape[1]

    @property
    def size(self) -> int:
        """Number of prefixes."""
        return len(self.speed)

    def take(self, rows) -> "Prefixes":
        """The prefixes at rows."""
        return Prefixes(*(None if field is None else field[rows] for field in self))


class PrefixTree:
    """The admissible prefixes of a menu, expanded a block of cells at a
    time.

    Cell e's trajectories, cap and flow weight depend only on the prefix
    ``u_1..u_e``, so a child propagates only its own cells, from its
    parent's outflow, with ``sampling.propagate_cells``, and adds their
    terms to its parent's running sums: every trajectory and every sum
    keeps the bits that ``propagate`` and ``certificate`` give it.

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
        self.lams = np.array(sorted({0.0, *(u / scenario.T for band in scenario.bands
                                            for u in band)}))

    # Built on first use: a walk with no prune test never bounds a prefix.
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
        return Prefixes(speed=np.empty((1, 0)), traj=None, dist=np.zeros(1),
                        partial=np.zeros((1, len(self.lams))), bound=None)

    def children(self, parents: Prefixes, floor: float | None = -math.inf,
                 reach: float = math.inf, cells: int = 1) -> tuple[Prefixes, int]:
        """Propagate the next ``cells`` cells under every combination of
        their bands' speeds for every parent; return the children whose
        bound is at least floor and whose partial distance is at most
        reach, in product order, and the number of children propagated.
        With floor None every child is kept, unbounded. Raises ValueError
        as ``propagate`` does when the trajectories overflow."""
        sc, samples = self.scenario, self.samples
        e, T, N = parents.length, sc.T, samples.count
        F, block = parents.size, slice(e, e + cells)
        # (R, cells): the combinations of the cells' speeds, in product
        # order, and their critical densities.
        speed = np.array(list(itertools.product(*sc.bands[block])))
        cap = np.array(list(itertools.product(*self.band_caps[block])))
        R = len(speed)
        upstream = None
        if e:
            # (F, 1, N, T): the parents' outflow at steps 0..T-1, as the
            # recursion computes it.
            last = np.empty((F, N, T))
            last[..., 0] = samples.rho0[:, e - 1]
            last[..., 1:] = parents.traj[..., :-1]
            upstream = (parents.speed[:, -1, None, None] * last)[:, None]
        # (F, R, N, cells, T): parents, combinations, draws, cells, steps.
        traj = propagate_cells(sc.h, T, speed[:, None], samples.rho0[:, block],
                               samples.omega[:, block], upstream).reshape(F, R, N, cells, T)
        check_bounded(sc, traj, self.u_max)
        partial, dist = add_cells(parents.partial[:, None], parents.dist[:, None],
                                  self.lams, speed / T, cap[:, None], traj)
        rows, bound = slice(None), None
        if floor is not None:
            bound = (partial + self.tail[e + cells]).max(axis=2).ravel()
            rows = np.flatnonzero((bound >= floor) & (dist.ravel() <= reach))
            bound = bound[rows]
        up, combo = np.divmod(np.arange(F * R)[rows], R)
        whole = e + cells == sc.n
        return Prefixes(
            speed=np.concatenate((parents.speed[up], speed[combo]), axis=1),
            traj=None if whole else traj[..., -1, :].reshape(F * R, N, T)[rows],
            dist=dist.ravel()[rows], partial=partial.reshape(F * R, -1)[rows],
            bound=bound,
        ), F * R

    def values(self, leaves: Prefixes) -> tuple[np.ndarray, np.ndarray]:
        """The dual objective (F, L) of whole profiles at every scale of
        lams, and their certified values (F,): its maximum over each
        profile's own breakpoints, zero and its flow weights, as
        ``certificate`` scans them; -inf where the ambiguity set is empty."""
        totals = dual_totals(leaves.partial, leaves.dist, self.lams,
                             self.scenario.epsilon)
        own = self.lams.searchsorted(leaves.speed / self.scenario.T)
        rows = np.arange(len(own))[:, None]
        return totals, np.maximum(totals[:, 0], totals[rows, own].max(axis=1))


def run_search(scenario: HighwayScenario, samples: SampleSet,
               time_limit: float | None = None, prune: bool = True) -> SolveReport:
    """Find the best certified profile by a depth-first walk of the
    prefix tree.

    Each leaf is scored by :meth:`PrefixTree.values` from its running
    sums, with the value ``certificate`` gives it, and the first best in
    product order wins; the report's certificate is scanned from the same
    sums. With prune False every leaf is scored: that walk is
    ``validation.brute_force_optimum``. With prune True (the
    branch-and-bound) the answer is the same, bit for bit. A finished
    search with no profile (``best_u`` None) means every profile has an
    empty ambiguity set.

    The tree is walked one cell per level, in chunks of at most
    ``ENUM_CHUNK_ELEMENTS`` trajectory elements per level. A chunk whose
    whole subtree holds at most ``BLOCK_ELEMENTS`` trajectory elements is
    expanded to its leaves in one level instead: at that size numpy's
    per-call cost outweighs what sharing prefixes and pruning save.

    With prune True, unless the root is such a chunk, the incumbent
    starts at the profile of each band's top speed, the last in product
    order. A prefix is pruned when its partial distance exceeds the radius
    (no completion has a nonempty ambiguity set) or when its
    :class:`PrefixTree` bound is more than ``PRUNE_MARGIN`` below the
    incumbent. Nodes count the prefixes propagated and, of those, pruned.

    time_limit is a wall-clock budget in seconds, finite and positive, or
    None for none. It is checked on every menu but binds only past
    ``DEFAULT_ENUM_CAP`` profiles: before each chunk the walk reads
    ``time.monotonic()`` against its deadline, and once that has passed
    it stops with the best profile found so far, or none, with
    termination ``time_limit`` and the root's capacity-flow bound as
    upper bound. A search that finishes is exact, with termination
    ``enumerated`` and gap 0. Raises ValueError, before the menu is
    sized, when the samples' edge count is not the scenario's or their
    horizon is shorter than its T.
    """
    if samples.n != scenario.n:
        raise ValueError("sample edge count does not match scenario")
    if samples.horizon < scenario.T:
        raise ValueError("sample horizon is shorter than the scenario's T")
    if time_limit is not None and not (math.isfinite(time_limit) and time_limit > 0):
        raise ArgumentError(
            "time_limit", f"time_limit must be finite and positive, got {time_limit!r}")
    start = time.monotonic()
    deadline = None
    if time_limit is not None and profile_count(scenario) > DEFAULT_ENUM_CAP:
        deadline = start + time_limit
    tree = PrefixTree(scenario, samples)
    n, N, T = scenario.n, samples.count, scenario.T
    eps = scenario.epsilon
    reach = eps + PRUNE_MARGIN * max(1.0, eps)
    # Trajectory elements (steps 0..T) of the leaves below one prefix of
    # each length.
    subtree = [math.prod(map(len, scenario.bands[e:])) * N * (n - e) * (T + 1)
               for e in range(n)]
    # The best profile so far, its value and its certificate, and whether a
    # leaf of equal value replaces it (every leaf precedes the seed in
    # product order).
    value, best, result, replaceable = -math.inf, None, None, True
    if prune and subtree[0] > BLOCK_ELEMENTS:
        seed = scenario.speed_profile([band[-1] for band in scenario.bands])
        result = certificate(scenario, seed, propagate_batch(scenario, seed, samples))
        value, best = result.value, seed.u
    expanded = pruned = 0
    stopped = False

    def descend(parents: Prefixes) -> None:
        nonlocal value, best, result, replaceable, expanded, pruned, stopped
        e = parents.length
        step = max(1, ENUM_CHUNK_ELEMENTS
                   // (len(scenario.bands[e]) * N * (e + 1) * (T + 1)))
        for i in range(0, parents.size, step):
            stopped = stopped or (deadline is not None
                                  and time.monotonic() >= deadline)
            if stopped:
                return
            chunk = parents.take(slice(i, i + step))
            cells = n - e if chunk.size * subtree[e] <= BLOCK_ELEMENTS else 1
            leaves = e + cells == n
            if not prune or (value == -math.inf and leaves):
                # Without an incumbent only the radius prunes, and at the
                # leaves a pruned leaf is worth -inf anyway.
                floor = None
            elif value == -math.inf:
                floor = -math.inf
            else:
                floor = value - PRUNE_MARGIN * max(1.0, abs(value))
            kids, propagated = tree.children(chunk, floor, reach, cells)
            expanded += propagated
            pruned += propagated - kids.size
            if not kids.size:
                continue
            if not leaves:
                descend(kids)
                continue
            totals, values = tree.values(kids)
            k = int(values.argmax())
            if values[k] > value or (values[k] == value > -math.inf and replaceable):
                # The certificate's scan: the winner's own scales, sorted.
                own = sorted({0, *tree.lams.searchsorted(kids.speed[k] / T).tolist()})
                value, best, replaceable = values[k], kids.speed[k], False
                result = scan_result(tree.lams[own], totals[k, own])

    descend(tree.root())
    if value == -math.inf:
        best = result = None
    value = result.value if result is not None else -math.inf
    if stopped:
        upper = float(tree.tail[0].max())
        gap = (upper - value) / max(1.0, abs(upper))
        termination = TERM_TIME
    else:
        upper, gap, termination = value, 0.0, TERM_ENUMERATED
    return SolveReport(
        best_u=None if best is None else tuple(map(float, best)), best_value=value,
        upper_bound=upper, gap=gap, termination=termination,
        wall=time.monotonic() - start, certificate=result,
        nodes_expanded=expanded, nodes_pruned=pruned,
    )
