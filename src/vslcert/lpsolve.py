"""Thin linear programming layer.

Models are assembled as sparse triplets through :class:`ModelBuilder`,
scaled row-wise into a numerically friendly coefficient range, and solved
with HiGHS through one call, :func:`scipy.optimize.milp` with no integer
variables. The objective sense is always maximize.

Solves are deterministic for a fixed model: HiGHS runs single-threaded
with a fixed pivot order here, so repeated calls return bit-identical
solutions.

scipy is imported by the functions that call it, not with the module, so
the command line starts without it: only the test oracles of
``tests/oracles.py`` build the models solved here, and scipy is a test
dependency.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import NumericalError

if TYPE_CHECKING:
    import scipy.sparse as sp

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

SENSES = ("<=", ">=", "=")

# Target band for the largest absolute coefficient of each scaled row.
_SCALE_HI = 1e3
_SCALE_LO = 1e-3


def _row_scale(coefs) -> float:
    """Power of two that brings the row's largest coefficient into band."""
    top = max((abs(c) for c in coefs), default=0.0)
    if top > _SCALE_HI:
        return 2.0 ** -math.ceil(math.log2(top / _SCALE_HI))
    if 0 < top < _SCALE_LO:
        return 2.0 ** math.ceil(math.log2(_SCALE_LO / top))
    return 1.0


@dataclass
class LpModel:
    """Sparse system lo <= A x <= hi with variable bounds and a maximize
    objective."""

    nvars: int
    lb: np.ndarray
    ub: np.ndarray
    obj: np.ndarray
    A: sp.csr_matrix
    lo: np.ndarray
    hi: np.ndarray
    row_scale: np.ndarray
    block_rows: dict[str, int]


@dataclass
class LpSolution:
    status: str
    objective: float
    x: np.ndarray | None


class ModelBuilder:
    """Incremental triplet-based assembly of an LpModel."""

    def __init__(self):
        self._lb: list[float] = []
        self._ub: list[float] = []
        self._obj: list[float] = []
        self._rows_cols: list[list[int]] = []
        self._rows_coefs: list[list[float]] = []
        self._sense: list[str] = []
        self._rhs: list[float] = []
        self._blocks: list[str] = []

    def add_var(self, lb=0.0, ub=math.inf, obj=0.0) -> int:
        if lb > ub:
            raise ValueError("variable lower bound exceeds upper bound")
        self._lb.append(float(lb))
        self._ub.append(float(ub))
        self._obj.append(float(obj))
        return len(self._lb) - 1

    def add_row(self, cols, coefs, sense: str, rhs: float, block: str = "other") -> int:
        if sense not in SENSES:
            raise ValueError(f"sense must be one of {SENSES}")
        cols = list(cols)
        coefs = [float(c) for c in coefs]
        if len(cols) != len(coefs):
            raise ValueError("cols and coefs length mismatch")
        if any(not (0 <= c < len(self._lb)) for c in cols):
            raise ValueError("column index out of range")
        if not all(math.isfinite(c) for c in coefs) or not math.isfinite(rhs):
            raise ValueError("constraint coefficients must be finite")
        self._rows_cols.append(cols)
        self._rows_coefs.append(coefs)
        self._sense.append(sense)
        self._rhs.append(float(rhs))
        self._blocks.append(block)
        return len(self._rhs) - 1

    def build(self) -> LpModel:
        import scipy.sparse as sp

        n = len(self._lb)
        m = len(self._rhs)
        scales = np.array([_row_scale(coefs) for coefs in self._rows_coefs])
        data = [c * s for s, coefs in zip(scales, self._rows_coefs) for c in coefs]
        indices = [j for cols in self._rows_cols for j in cols]
        indptr = np.cumsum([0, *map(len, self._rows_cols)])
        A = sp.csr_matrix((data, indices, indptr), shape=(m, n))
        A.sum_duplicates()
        sense = np.array(self._sense)
        rhs = np.array(self._rhs) * scales
        lo = np.where(sense == "<=", -math.inf, rhs)
        hi = np.where(sense == ">=", math.inf, rhs)
        return LpModel(
            nvars=n,
            lb=np.array(self._lb),
            ub=np.array(self._ub),
            obj=np.array(self._obj),
            A=A,
            lo=lo,
            hi=hi,
            row_scale=scales,
            block_rows=dict(Counter(self._blocks)),
        )


def solve_lp(model: LpModel) -> LpSolution:
    """Solve a maximize model with HiGHS.

    Infeasibility and unboundedness are reported as their own statuses.
    """
    from scipy.optimize import Bounds, LinearConstraint, milp

    res = milp(
        -model.obj,
        constraints=LinearConstraint(model.A, model.lo, model.hi),
        bounds=Bounds(model.lb, model.ub),
    )
    if res.status == 0:
        x = np.asarray(res.x)
        return LpSolution(status=OPTIMAL, objective=float(model.obj @ x), x=x)
    if res.status == 2:
        return LpSolution(status=INFEASIBLE, objective=-math.inf, x=None)
    if res.status == 3:
        return LpSolution(status=UNBOUNDED, objective=math.inf, x=None)
    raise NumericalError(f"HiGHS solve failed: {res.message}")
