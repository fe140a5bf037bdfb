"""Certified search over admissible speed profiles.

Cell e's trajectories, cap and flow weight depend only on the prefix
``u_1..u_e``, and so do its terms of the certificate's per-cell sums.
So one depth-first walk of a prefix tree (:class:`PrefixTree`, one cell
per level) scores every profile with the value ``certificate`` gives it,
bit for bit, from its running sums; its children read of it only its
hand-off, the outflow of its last cell (:class:`Prefixes`).
:func:`run_search` is that walk. Without prune tests it scores every
leaf: ``validation.brute_force_optimum``, which ``brute-force`` runs.
With them (``solve``) it is a prefix-shared branch-and-bound (Land &
Doig 1960): a capacity-flow bound on every completion of a prefix,
derived from its running sums, and the radius prune the tree, an
implicit enumeration of the whole menu, so it returns the exact optimum
too (termination ``enumerated``, gap 0).

A chunk of prefixes is expanded in one of three ways, chosen by size:
a subtree of at most ``BLOCK_ELEMENTS`` trajectory elements is expanded
flat, every leaf propagated from its chunk parent
(:meth:`PrefixTree.children` over all remaining cells); without prune
tests, every prefix below a chunk whose shared subtree fits
``ENUM_CHUNK_ELEMENTS``, with its leaves two or more levels down, is
propagated once, all levels in one time loop
(:meth:`PrefixTree.leaves`), which adds every prefix's step sums as it
propagates and keeps no trajectory; otherwise one level is expanded
(:meth:`PrefixTree.children`, one cell). The prune tests need each
level's bounds before the next is expanded, so ``solve`` never takes
the second. All three give every value the same bits.

A time limit binds only on menus of more than ``DEFAULT_ENUM_CAP``
profiles, so the answer on a menu under the cap is the same on every
machine. Past the cap the walk checks its deadline between chunks; when
the deadline has passed, the search stops with the best profile found so
far, if any (termination ``time_limit``), and reports as its upper bound
the largest capacity-flow bound among the prefixes it left unexpanded,
or the incumbent's value if that is larger: a bound that shrinks as the
walk goes on.
"""

from __future__ import annotations

import itertools
import math
import operator
import time
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .certificate import (
    CertificateResult,
    PairwiseSum,
    add_cells,
    add_sums,
    box_terms,
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
# at least one prefix. Without prune tests, a chunk whose prefixes below
# (steps 0..T, every level counted once) fit this many elements is
# expanded to its leaves in one time loop, and its chunk holds as many
# parents as fit.
ENUM_CHUNK_ELEMENTS = 1 << 18

# A prefix survives while its bound is within this fraction (of the
# incumbent's magnitude, at least 1) below the incumbent, and while its
# partial distance is within it above the radius: rounding in the
# bound's sums never prunes a tie.
PRUNE_MARGIN = 1e-9
# Trajectory elements (steps 0..T) up to which a subtree is expanded to its
# leaves in one level, flat, with or without prune tests: below this size
# per-level setup costs more than sharing prefixes saves (every
# desk-exhaustive menu is at most 720). At most ENUM_CHUNK_ELEMENTS.
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

    speed (F, e) holds their speeds and outflow (F, N, T) their hand-off:
    the outflow ``u_e * rho_e(t)`` of their last cell at steps 0..T-1,
    the upstream inflow of the cell after it. The root's is zero, since
    the first cell has no upstream neighbour, and a whole profile's is
    None. dist (F,) is their partial box distance and partial (F, L) the
    running sum over their cells of ``min(lam, a_k) * mass_k`` at each
    scale of ``PrefixTree.lams``, both as :func:`certificate.add_cells`
    carries them. Their bound is derived (:meth:`PrefixTree.bound`).
    """

    speed: np.ndarray
    outflow: np.ndarray | None
    dist: np.ndarray
    partial: np.ndarray

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
        return Prefixes(*(field[rows] for field in self))


class PrefixTree:
    """The admissible prefixes of a menu, expanded a block of cells at a
    time (:meth:`children`), or every level below a chunk at once
    (:meth:`leaves`).

    Cell e's trajectories, cap and flow weight depend only on the prefix
    ``u_1..u_e``, so a child propagates only its own cells, from its
    parent's hand-off, with ``sampling.propagate_cells`` or, in
    :meth:`leaves`, with the same recursion over the prefixes of every
    level at once, and adds their terms to its parent's running sums:
    every trajectory and every sum keeps the bits that ``propagate`` and
    ``certificate`` give it, the step sums of :meth:`leaves` too, which
    are added in numpy's order as the loop runs.

    The bound of a prefix ending at cell e (:meth:`bound`) is

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
        """The empty prefix, whose hand-off is zero."""
        return Prefixes(speed=np.empty((1, 0)),
                        outflow=np.zeros((1, self.samples.count, self.scenario.T)),
                        dist=np.zeros(1), partial=np.zeros((1, len(self.lams))))

    def bound(self, prefixes: Prefixes) -> np.ndarray:
        """(F,): the capacity-flow bound on the completions of prefixes."""
        return (prefixes.partial + self.tail[prefixes.length]).max(axis=-1)

    def children(self, parents: Prefixes, floor: float | None = -math.inf,
                 reach: float = math.inf, cells: int = 1) -> tuple[Prefixes, int]:
        """Propagate the next ``cells`` cells under every combination of
        their bands' speeds for every parent, from its hand-off; return
        the children whose bound is at least floor and whose partial
        distance is at most reach, in product order, each with its own
        hand-off unless it is a whole profile, and the number of children
        propagated. With floor None every child is kept. Raises ValueError
        as ``propagate`` does when the trajectories overflow."""
        sc, samples = self.scenario, self.samples
        e, T, N = parents.length, sc.T, samples.count
        F, block = parents.size, slice(e, e + cells)
        # (R, cells): the combinations of the cells' speeds, in product
        # order, and their critical densities.
        speed = np.array(list(itertools.product(*sc.bands[block])))
        cap = np.array(list(itertools.product(*self.band_caps[block])))
        R = len(speed)
        # (F, R, N, cells, T): parents, combinations, draws, cells, steps.
        traj = propagate_cells(sc.h, T, speed[:, None], samples.rho0[:, block],
                               samples.omega[:, block],
                               parents.outflow[:, None]).reshape(F, R, N, cells, T)
        check_bounded(sc, traj, self.u_max)
        partial, dist = add_cells(parents.partial[:, None], parents.dist[:, None],
                                  self.lams, speed / T, cap[:, None], traj)
        # Every child; only the kept ones get a hand-off, built below.
        kids = Prefixes(speed=np.column_stack((np.repeat(parents.speed, R, axis=0),
                                               np.tile(speed, (F, 1)))),
                        outflow=None, dist=dist.ravel(), partial=partial.reshape(F * R, -1))
        rows = slice(None)
        if floor is not None:
            rows = np.flatnonzero((self.bound(kids) >= floor) & (kids.dist <= reach))
        speed, outflow = kids.speed[rows], None
        if e + cells < sc.n:
            # The kept children's hand-off.
            outflow = np.empty((len(speed), N, T))
            outflow[..., 0] = samples.rho0[:, e + cells - 1]
            outflow[..., 1:] = traj.reshape(F * R, N, cells, T)[rows, :, -1, :-1]
            outflow *= speed[:, -1, None, None]
        return Prefixes(speed, outflow, kids.dist[rows], kids.partial[rows]), F * R

    def leaves(self, parents: Prefixes) -> tuple[Prefixes, int]:
        """Propagate every cell below parents, each prefix once, and
        return the whole profiles, in product order, and the number of
        prefixes propagated.

        The prefixes of every level sit on one axis, level after level,
        each level in product order, and one T-step loop propagates them
        all (:meth:`_propagate_below`): at step t a prefix's inflow is
        its parent's flow at step t, gathered by parent index; the first
        level's parents are the given ones, whose flow is their hand-off.
        The loop keeps no trajectory: it adds each step's anchors and box
        distances to every prefix's step sums as it goes, in the order of
        numpy's float64 sum over a row of steps
        (:class:`certificate.PairwiseSum`). Each level's step sums are
        then added to its parents' running sums by
        :func:`certificate.add_sums`, so every value keeps the bits
        :meth:`children` gives it. Raises ValueError as ``propagate``
        does when the trajectories overflow, which it reads from each
        state's running largest box distance."""
        sc, samples = self.scenario, self.samples
        e, T, N, F = parents.length, sc.T, samples.count, parents.size
        bands = sc.bands[e:]
        # Prefixes per level, from the parents down to the leaves, and the
        # row past each level's last, the next level's first: the parents
        # take rows 0..F-1 of the state, every level below them follows.
        sizes = list(itertools.accumulate(map(len, bands), operator.mul, initial=F))
        starts = list(itertools.accumulate(sizes))
        nodes = starts[-1] - F
        # Per prefix its speed, its parent's row, its level, counted from
        # e, whose cell's net inflow it takes, and its speed's critical
        # density.
        u = np.concatenate([np.tile(band, size) for band, size in zip(bands, sizes)])
        up = np.concatenate([start - size + np.arange(size * len(band)) // len(band)
                             for band, start, size in zip(bands, starts, sizes)])
        level = np.repeat(np.arange(len(bands)), sizes[1:])
        cap = np.concatenate([np.tile(caps, size)
                              for caps, size in zip(self.band_caps[e:], sizes)])
        sums = self._propagate_below(parents, u, cap, up, level)
        # Each level's step sums, added to its parents' running sums, and
        # its speeds, appended to its parents'.
        speed, partial, dist = parents.speed, parents.partial, parents.dist
        for band, start, size in zip(bands, starts, sizes):
            R = len(band)
            kids = sums[:, start - F:start - F + size * R].reshape(2, size, R, N, 1)
            partial, dist = add_sums(partial[:, None], dist[:, None], self.lams,
                                     np.array(band)[:, None] / T, kids)
            partial, dist = partial.reshape(size * R, -1), dist.ravel()
            speed = np.column_stack((np.repeat(speed, R, axis=0), np.tile(band, size)))
        return Prefixes(speed=speed, outflow=None, dist=dist, partial=partial), nodes

    def _propagate_below(self, parents: Prefixes, u: np.ndarray, cap: np.ndarray,
                         up: np.ndarray, level: np.ndarray) -> np.ndarray:
        """The step sums (2, prefixes, N) of the anchor masses and box
        distances of the prefixes below parents in :meth:`leaves`' layout,
        from the speed u, the critical density cap, the parent's row up
        and the level of every prefix; rows 0..F-1 are the parents, whose
        flow at step t is their hand-off's. Each step's terms are added as
        soon as they are computed. ``check_bounded`` reads a bound on
        every state's magnitude in place of the trajectory: the largest
        box distance of each prefix and draw over the steps plus its
        cap, rounded up one ulp, never below the largest |rho|, so it
        raises wherever it would on the trajectory."""
        sc, samples = self.scenario, self.samples
        e, T, N, F = parents.length, sc.T, samples.count, parents.size
        nodes = len(up)
        # Every operand is a contiguous (rows, N) array and each gather a
        # flat take: an operand broadcast along the short draw axis costs
        # many times more.
        draw = np.arange(N)
        parent, cell = ((rows[:, None] * N + draw).ravel() for rows in (up, level))
        speed = np.repeat(u, N).reshape(nodes, N)
        cap = np.repeat(cap, N).reshape(nodes, N)
        # (T, cells x N): the net inflows of the cells below e, step-major.
        omega = samples.omega[:, e:, :T].transpose(2, 1, 0).reshape(T, -1)
        state = np.ascontiguousarray(samples.rho0[:, e:].T[level])
        # The flow of every row, the parents' first, and every prefix's inflow.
        flow, inflow, net = np.empty((F + nodes, N)), np.empty((nodes, N)), np.empty((nodes, N))
        sums = PairwiseSum(T, (2, nodes, N))
        # The largest box distance of each prefix and draw.
        peak = np.zeros((nodes, N))
        with np.errstate(over="ignore", invalid="ignore"):
            # The recursion of sampling.propagate_cells, one operation at a
            # time: rho + h * (inflow - flow + omega).
            for t in range(T):
                flow[:F] = parents.outflow[..., t]
                np.multiply(speed, state, out=flow[F:])
                np.take(flow.ravel(), parent, out=inflow.ravel())
                inflow -= flow[F:]
                np.take(omega[t], cell, out=net.ravel())
                inflow += net
                inflow *= sc.h
                state += inflow
                # The terms add_cells sums, added in numpy's order.
                terms = box_terms(state, cap, sums.slot())
                np.maximum(peak, terms[1], out=peak)
                sums.add()
            total = sums.total()
            # |rho| <= box distance + cap; one ulp up covers the rounding
            # of the distance and of this sum.
            peak += cap
            np.nextafter(peak, math.inf, out=peak)
        check_bounded(sc, peak, self.u_max)
        return total

    def values(self, leaves: Prefixes) -> tuple[np.ndarray, np.ndarray]:
        """The dual objective (F, L) of whole profiles at every scale of
        lams, and their certified values (F,): its maximum over each
        profile's own breakpoints, zero and its flow weights, as
        ``certificate`` scans them; -inf where the ambiguity set is empty.

        The maximum is taken scale by scale over all profiles at once: at
        each scale of lams past zero, one test of which profiles have it
        among their flow weights and one masked running maximum. A
        maximum is exact, so the values have the bits of a maximum over
        each profile's own breakpoints in any order."""
        totals = dual_totals(leaves.partial, leaves.dist, self.lams,
                             self.scenario.epsilon)
        # Cells first, so that each scale's test reads contiguous rows.
        a = np.ascontiguousarray(leaves.speed.T) / self.scenario.T
        best = totals[:, 0].copy()
        for lam, column in zip(self.lams[1:], totals.T[1:]):
            np.maximum(best, column, out=best, where=(a == lam).any(axis=0))
        return totals, best


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

    A child is propagated from its parent's hand-off (:class:`Prefixes`)
    in every expansion. The tree is walked one cell per level, in chunks
    of at most ``ENUM_CHUNK_ELEMENTS`` trajectory elements per level. A
    chunk whose whole subtree holds at most ``BLOCK_ELEMENTS`` trajectory
    elements is expanded to its leaves in one level instead: at that size
    numpy's per-call cost outweighs what sharing prefixes and pruning
    save. With prune False, a chunk whose prefixes below, each counted
    once, fit ``ENUM_CHUNK_ELEMENTS``, with its leaves two or more levels
    down, is expanded by :meth:`PrefixTree.leaves`, every level in one
    time loop, and holds as many parents as fit; on the paper's corridor
    that is the whole tree in one loop. That loop adds every prefix's step
    sums as it propagates, in numpy's order, and stores no trajectory.
    Such a walk's cost is its count of time loops more than its count of
    nodes.

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
    termination ``time_limit``. Its upper bound is then the largest of
    the incumbent's value and the bounds of the prefixes left unexpanded
    (:meth:`PrefixTree.bound`, from their running sums): each level of
    the walk, as it returns, takes the largest bound of the prefixes from
    the chunk it stopped at on, and the root's is the capacity flow of
    every cell. Every profile not scored is a completion of one of them,
    or was pruned below the incumbent. A search that finishes is exact,
    with termination ``enumerated`` and gap 0. Raises ValueError, before
    the menu is sized, when the samples' edge count is not the scenario's
    or their horizon is shorter than its T.
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
    # The largest bound of a prefix a stopped walk left unexpanded.
    pending = -math.inf

    def descend(parents: Prefixes) -> None:
        nonlocal value, best, result, replaceable, expanded, pruned, stopped, pending
        e = parents.length
        step = max(1, ENUM_CHUNK_ELEMENTS
                   // (len(scenario.bands[e]) * N * (e + 1) * (T + 1)))
        # Without prune tests, when the leaves are more than one level down
        # and every prefix below one parent fits a chunk, in trajectory
        # elements (steps 0..T), a chunk holds as many parents as fit and
        # is expanded to its leaves in one loop.
        deep = False
        if not prune and n - e > 1 and parents.size * subtree[e] > BLOCK_ELEMENTS:
            below = sum(itertools.accumulate(map(len, scenario.bands[e:]),
                                             operator.mul)) * N * (T + 1)
            deep = below <= ENUM_CHUNK_ELEMENTS
            if deep:
                step = ENUM_CHUNK_ELEMENTS // below
        for i in range(0, parents.size, step):
            stopped = stopped or (deadline is not None
                                  and time.monotonic() >= deadline)
            if stopped:
                pending = max(pending, float(tree.bound(parents)[i:].max()))
                return
            chunk = parents.take(slice(i, i + step))
            flat = chunk.size * subtree[e] <= BLOCK_ELEMENTS
            cells = n - e if flat or deep else 1
            leaves = e + cells == n
            if not prune or (value == -math.inf and leaves):
                # Without an incumbent only the radius prunes, and at the
                # leaves a pruned leaf is worth -inf anyway.
                floor = None
            elif value == -math.inf:
                floor = -math.inf
            else:
                floor = value - PRUNE_MARGIN * max(1.0, abs(value))
            if deep and not flat:
                kids, propagated = tree.leaves(chunk)
            else:
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
        upper = max(value, pending)
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
