"""Exact worst-case performance certificate for a fixed speed profile.

The certified quantity is the worst expected average flow over every
disturbance distribution within transport radius ``epsilon`` (1-norm
ground cost) of the empirical trajectory distribution. For a fixed
profile the worst case reduces to a one-dimensional concave piecewise
linear maximization over the dual scale ``lam``, evaluated exactly at its
breakpoints: zero and the per-cell flow weights ``a_e = u_e / T``.

Each trajectory component r contributes the minimum over the box
``[0, cap]`` (cap = critical density under the posted limit) of
``lam * |rho - r| + a * rho``. Below the box, inside it and above it
alike that minimum is ``lam * |anchor - r| + min(lam, a) * anchor``, with
anchor = clip(r, 0, cap) the nearest point of the box. A profile's dual
objective is therefore built from two per-cell sums:

    mass_e, dist_e = the anchors and the distances |anchor - r| of cell e,
                     each summed over the steps, then over the draws in
                     draw order, then divided by the number of draws;
    partial(lam)   = sum_e min(lam, a_e) * mass_e;
    dist           = sum_e dist_e;
    value          = max over lam in {0, a_1..a_n} of
                     partial(lam) + lam * (min(dist, eps) - eps),

with both sums over the cells running in cell order. When
``epsilon < dist`` no distribution in the ball is supported on the box
and the value is the sentinel -inf.

Cell e's terms depend only on the prefix ``u_1..u_e`` of the profile, so
the search's prefix tree (``search.PrefixTree``) carries ``partial`` and
``dist`` from parent to child with :func:`add_cells` and scores a whole
profile with :func:`dual_totals`. :func:`certificate` runs the same two
functions on one profile. Each sum runs in an order that does not depend
on what the profile is stacked with: the step sum over a contiguous row,
the draw and cell sums as cumulative sums. The unpruned walk
(``PrefixTree.leaves``) keeps no trajectories: it adds the same terms
(:func:`box_terms`) into lanes as it propagates, in the order in which
numpy's float64 sum adds a contiguous row (:class:`PairwiseSum`), and
then adds its step sums with :func:`add_sums`, as :func:`add_cells`
does. ``tests/test_certificate.py`` pins that order against numpy's for
every T from 1 to 300 and names the numpy version when it moves. So a
profile has the same value bits in ``certify``, ``brute-force`` and
``solve``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .network import HighwayScenario, SpeedProfile
from .sampling import TrajectoryBatch

STATUS_FINITE = "finite"
STATUS_EMPTY = "invalid_empty_ambiguity"


@dataclass(frozen=True)
class CertificateResult:
    """Certified value, the dual scale attaining it, and the scan table."""

    value: float
    lambda_star: float
    status: str
    table: tuple[tuple[float, float], ...]

    @property
    def finite(self) -> bool:
        return self.status == STATUS_FINITE


def flow_weights(scenario: HighwayScenario, profile: SpeedProfile) -> np.ndarray:
    """Gradient of the average-flow objective in the densities: u_e / T."""
    return profile.as_array() / scenario.T


def average_flow(profile: SpeedProfile, traj: np.ndarray):
    """Time-averaged total flow (veh/h): a float for one trajectory (n, T),
    an array (N,) with one value per draw for a stack (N, n, T)."""
    u = profile.as_array()
    flow = (u @ traj).sum(axis=-1) / traj.shape[-1]
    return float(flow) if flow.ndim == 0 else flow


def box_terms(rho: np.ndarray, caps, out: np.ndarray) -> np.ndarray:
    """Each density's anchor ``clip(rho, 0, caps)``, the nearest point of
    the box, into out[0], and its box distance ``|anchor - rho|`` into
    out[1]; returns out (2, ...)."""
    anchor, gap = out
    np.maximum(rho, 0.0, out=anchor)
    np.minimum(anchor, caps, out=anchor)
    np.subtract(anchor, rho, out=gap)
    np.abs(gap, out=gap)
    return out


class PairwiseSum:
    """A sum over T steps, fed one step at a time, added in the order in
    which numpy's float64 ``x.sum(axis=-1)`` adds a contiguous row x of T
    steps (pairwise summation; Higham 1993), so that it has its bits:

    - a row of fewer than 8 steps is added in order, from zero;
    - a row of up to 128 steps is added in 8 lanes (steps j, j + 8, ...),
      joined by the tree ``((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))``,
      and the steps past the last multiple of 8 are added in order;
    - a longer row of n steps is split after ``n2 = n // 2 - (n // 2) % 8``
      steps, each part is summed in the same way, and the two are added.

    The reduction starts from zero, so the sum is added to zero at the
    end, which turns -0.0 into 0.0. Per step, write the terms into
    :meth:`slot`, then call :meth:`add`; after T steps :meth:`total`
    returns the sums.
    """

    def __init__(self, steps: int, shape: tuple):
        self.tree = self._split(steps)
        self.blocks = iter(self._lengths(self.tree))
        self.lanes = np.empty((8, *shape)) if steps >= 8 else None
        self.scratch = np.empty(shape)
        self.done = []
        self._start()

    @classmethod
    def _split(cls, n: int):
        """numpy's split of a row of n steps: n itself when it is summed
        in one block, else the pair of the two parts' splits."""
        if n <= 128:
            return n
        half = n // 2 - (n // 2) % 8
        return cls._split(half), cls._split(n - half)

    @classmethod
    def _lengths(cls, tree):
        """The blocks' lengths, in step order."""
        if isinstance(tree, int):
            return [tree]
        return cls._lengths(tree[0]) + cls._lengths(tree[1])

    def _start(self) -> None:
        self.n, self.i = next(self.blocks, 0), 0
        self.res = np.zeros_like(self.scratch) if 0 < self.n < 8 else None

    def slot(self) -> np.ndarray:
        """The array to write the next step's terms into."""
        return self.lanes[self.i] if self.i < 8 <= self.n else self.scratch

    def add(self) -> None:
        """Add the terms written into :meth:`slot`."""
        i, n = self.i, self.n
        full = n - n % 8
        if i >= full:
            self.res += self.scratch
        elif i >= 8:
            self.lanes[i % 8] += self.scratch
        if i + 1 == full:
            # The tree, in place: r0 + r1, r2 + r3, ..., then their pairs.
            lanes = self.lanes
            lanes[0::2] += lanes[1::2]
            lanes[0::4] += lanes[2::4]
            self.res = lanes[0] + lanes[4]
        self.i += 1
        if self.i == n:
            self.done.append(self.res)
            self._start()

    def total(self) -> np.ndarray:
        """The sums, once every step is added."""
        total = self._fold(self.tree, iter(self.done))
        total += 0.0
        return total

    @classmethod
    def _fold(cls, tree, parts):
        """The sum of the blocks' sums parts, added as tree splits them."""
        if isinstance(tree, int):
            return next(parts)
        return cls._fold(tree[0], parts) + cls._fold(tree[1], parts)


def add_cells(partial: np.ndarray, dist: np.ndarray, lams: np.ndarray,
              a: np.ndarray, caps, traj: np.ndarray):
    """Add c cells, in cell order, to running sums: partial (..., L) at
    the scales lams (L,), and dist (...).

    traj (..., N, c, T) holds N draws of the cells over T steps, caps
    their critical densities, broadcasting against (..., N, c), and a
    (..., c) their flow weights. Each cell's anchor mass and box distance
    are summed over the steps by numpy, then added by :func:`add_sums`.
    """
    terms = box_terms(traj, np.asarray(caps)[..., None], np.empty((2,) + traj.shape))
    with np.errstate(over="ignore"):
        sums = terms.sum(axis=-1)
    return add_sums(partial, dist, lams, a, sums)


def add_sums(partial: np.ndarray, dist: np.ndarray, lams: np.ndarray,
             a: np.ndarray, sums: np.ndarray):
    """Add c cells, in cell order, to running sums: partial (..., L) at
    the scales lams (L,), and dist (...), from sums (2, ..., N, c): each
    cell's anchor mass and box distance in N draws, summed over the
    steps, and a (..., c) the cells' flow weights. The sums are added
    over the draws in draw order, then divided by N; dist is inf past
    the float range.
    """
    with np.errstate(over="ignore"):
        # Cumulative sums add one draw, and below one cell, at a time,
        # whatever the layout.
        mass, cell_dist = sums.cumsum(axis=-2)[..., -1, :] / sums.shape[-2]
        terms = np.minimum(lams, a[..., None]) * mass[..., None]
        terms[..., 0, :] += partial
        cell_dist[..., 0] += dist
        return terms.cumsum(axis=-2)[..., -1, :], cell_dist.cumsum(axis=-1)[..., -1]


def dual_totals(partial: np.ndarray, dist: np.ndarray, lams: np.ndarray,
                epsilon: float) -> np.ndarray:
    """The dual objective (..., L) of whole profiles at the scales lams
    from their running sums, -inf on every row whose ambiguity set is
    empty."""
    # lam * (dist - epsilon) <= 0; near the float maximum it overflows to
    # -inf, its exact limit, and the scale zero still wins. An empty row
    # has dist > epsilon (perhaps inf); it takes -inf below instead.
    slack = np.minimum(dist, epsilon) - epsilon
    with np.errstate(over="ignore"):
        totals = partial + lams * slack[..., None]
    totals[epsilon < dist] = -math.inf
    return totals


def scan_result(lams: np.ndarray, totals: np.ndarray) -> CertificateResult:
    """The finite certificate of a dual objective scanned at its sorted
    scales lams: the largest total, ties to the smallest scale."""
    best = int(np.argmax(totals))
    return CertificateResult(
        value=float(totals[best]),
        lambda_star=float(lams[best]),
        status=STATUS_FINITE,
        table=tuple(zip(lams.tolist(), totals.tolist())),
    )


def certificate(
    scenario: HighwayScenario,
    profile: SpeedProfile,
    batch: TrajectoryBatch,
) -> CertificateResult:
    """Evaluate the certificate of a profile's trajectories at ``scenario.epsilon``.

    The scan covers every breakpoint of the dual objective. When the
    transport radius is too small to move all samples into the box (the
    ambiguity ball would be empty of supported distributions), the value
    is reported as -inf with a distinct status; ties between breakpoints
    resolve to the smallest scale.
    """
    if batch.u != profile.u:
        raise ValueError("trajectory batch was generated under a different profile")
    rho = np.asarray(batch.rho)
    if rho.shape[1] != scenario.n or rho.shape[2] != scenario.T:
        raise ValueError("trajectory batch dimensions do not match the scenario")
    a = flow_weights(scenario, profile)
    lams = np.array(sorted({0.0, *a.tolist()}))
    partial, dist = add_cells(np.zeros((1, len(lams))), np.zeros(1), lams, a[None],
                              scenario.critical_densities(profile), rho[None])
    if scenario.epsilon < dist[0]:
        return CertificateResult(
            value=-math.inf, lambda_star=math.inf, status=STATUS_EMPTY, table=()
        )
    return scan_result(lams, dual_totals(partial, dist, lams, scenario.epsilon)[0])
