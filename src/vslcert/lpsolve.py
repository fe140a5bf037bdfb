"""Thin linear and mixed-binary programming layer.

Models are assembled as sparse triplets through :class:`ModelBuilder`,
scaled row-wise into a numerically friendly coefficient range, and solved
with HiGHS through one call, :func:`scipy.optimize.milp`: a model whose
binary mask is all false is a plain LP. The objective sense is always
maximize.

Solves are deterministic for a fixed model: HiGHS runs single-threaded
with a fixed pivot and branching order here, so repeated calls return
bit-identical solutions.

scipy is imported by the functions that call it, not with the module, so
the command line starts without it and only a search past the
enumeration cap pays for the import.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .errors import NumericalError

if TYPE_CHECKING:
    import scipy.sparse as sp

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
TIME_LIMIT = "time_limit"

SENSES = ("<=", ">=", "=")

# Target band for the largest absolute coefficient of each scaled row.
_SCALE_HI = 1e3
_SCALE_LO = 1e-3


def _check_row(cols, coefs, sense: str, rhs: float, nvars: int):
    """Validated (cols, coefs) lists of one row over nvars columns."""
    if sense not in SENSES:
        raise ValueError(f"sense must be one of {SENSES}")
    cols = list(cols)
    coefs = [float(c) for c in coefs]
    if len(cols) != len(coefs):
        raise ValueError("cols and coefs length mismatch")
    if any(not (0 <= c < nvars) for c in cols):
        raise ValueError("column index out of range")
    if not all(math.isfinite(c) for c in coefs) or not math.isfinite(rhs):
        raise ValueError("constraint coefficients must be finite")
    return cols, coefs


def _row_scale(coefs) -> float:
    """Power of two that brings the row's largest coefficient into band."""
    top = max((abs(c) for c in coefs), default=0.0)
    if top > _SCALE_HI:
        return 2.0 ** -math.ceil(math.log2(top / _SCALE_HI))
    if 0 < top < _SCALE_LO:
        return 2.0 ** math.ceil(math.log2(_SCALE_LO / top))
    return 1.0


def _row_bounds(sense, rhs):
    """(lo, hi) of lo <= a.x <= hi for sense and right-hand side arrays."""
    lo = np.where(sense == "<=", -math.inf, rhs)
    hi = np.where(sense == ">=", math.inf, rhs)
    return lo, hi


@dataclass
class LpModel:
    """Sparse system lo <= A x <= hi with variable bounds, a maximize
    objective and a binary mask over variables (all false for an LP)."""

    nvars: int
    lb: np.ndarray
    ub: np.ndarray
    obj: np.ndarray
    A: sp.csr_matrix
    lo: np.ndarray
    hi: np.ndarray
    binary: np.ndarray
    row_scale: np.ndarray
    block_rows: dict[str, int] = field(default_factory=dict)

    @property
    def nrows(self) -> int:
        return self.A.shape[0]

    def add_row(self, cols, coefs, sense: str, rhs: float, block: str = "other") -> int:
        """Append one row in place, checked, scaled and bounded as
        :meth:`ModelBuilder.build` does."""
        import scipy.sparse as sp

        cols, coefs = _check_row(cols, coefs, sense, rhs, self.nvars)
        scale = _row_scale(coefs)
        row = sp.csr_matrix((np.multiply(coefs, scale), cols, [0, len(cols)]),
                            shape=(1, self.nvars))
        row.sum_duplicates()
        self.A = sp.vstack([self.A, row], format="csr")
        lo, hi = _row_bounds(np.array([sense]), np.array([rhs * scale]))
        self.lo = np.append(self.lo, lo)
        self.hi = np.append(self.hi, hi)
        self.row_scale = np.append(self.row_scale, scale)
        self.block_rows[block] = self.block_rows.get(block, 0) + 1
        return self.nrows - 1


@dataclass
class LpSolution:
    status: str
    objective: float
    x: np.ndarray | None
    bound: float | None = None
    node_count: int | None = None


class ModelBuilder:
    """Incremental triplet-based assembly of an LpModel."""

    def __init__(self):
        self._lb: list[float] = []
        self._ub: list[float] = []
        self._obj: list[float] = []
        self._binary: list[bool] = []
        self._rows_cols: list[list[int]] = []
        self._rows_coefs: list[list[float]] = []
        self._sense: list[str] = []
        self._rhs: list[float] = []
        self._blocks: list[str] = []

    @property
    def nvars(self) -> int:
        return len(self._lb)

    def add_var(self, lb=0.0, ub=math.inf, obj=0.0, binary=False) -> int:
        if binary and not (0 <= lb and ub <= 1):
            raise ValueError("binary variables need bounds inside [0, 1]")
        if lb > ub:
            raise ValueError("variable lower bound exceeds upper bound")
        self._lb.append(float(lb))
        self._ub.append(float(ub))
        self._obj.append(float(obj))
        self._binary.append(bool(binary))
        return len(self._lb) - 1

    def add_row(self, cols, coefs, sense: str, rhs: float, block: str = "other") -> int:
        cols, coefs = _check_row(cols, coefs, sense, rhs, self.nvars)
        self._rows_cols.append(cols)
        self._rows_coefs.append(coefs)
        self._sense.append(sense)
        self._rhs.append(float(rhs))
        self._blocks.append(block)
        return len(self._rhs) - 1

    def build(self) -> LpModel:
        import scipy.sparse as sp

        n = self.nvars
        m = len(self._rhs)
        scales = np.array([_row_scale(coefs) for coefs in self._rows_coefs])
        data = [c * s for s, coefs in zip(scales, self._rows_coefs) for c in coefs]
        indices = [j for cols in self._rows_cols for j in cols]
        indptr = np.cumsum([0, *map(len, self._rows_cols)])
        A = sp.csr_matrix((data, indices, indptr), shape=(m, n))
        A.sum_duplicates()
        lo, hi = _row_bounds(np.array(self._sense), np.array(self._rhs) * scales)
        blocks: dict[str, int] = {}
        for b in self._blocks:
            blocks[b] = blocks.get(b, 0) + 1
        return LpModel(
            nvars=n,
            lb=np.array(self._lb),
            ub=np.array(self._ub),
            obj=np.array(self._obj),
            A=A,
            lo=lo,
            hi=hi,
            binary=np.array(self._binary, dtype=bool),
            row_scale=scales,
            block_rows=blocks,
        )


def solve_milp(model: LpModel, time_limit: float | None = None) -> LpSolution:
    """Solve a maximize model with HiGHS; branch and bound over its binaries.

    Returns the incumbent plus the best proven bound. Hitting the time
    limit is reported via ``status`` with whatever incumbent exists;
    infeasibility and unboundedness are reported as their own statuses.
    """
    from scipy.optimize import Bounds, LinearConstraint, milp

    options = {"mip_rel_gap": 1e-6, "presolve": True}
    if time_limit is not None:
        options["time_limit"] = float(time_limit)
    res = milp(
        -model.obj,
        constraints=LinearConstraint(model.A, model.lo, model.hi),
        integrality=model.binary.astype(int),
        bounds=Bounds(model.lb, model.ub),
        options=options,
    )
    node_count = getattr(res, "mip_node_count", None)
    dual_bound = getattr(res, "mip_dual_bound", None)
    bound = -float(dual_bound) if dual_bound is not None else None
    if res.status == 0:
        x = np.asarray(res.x)
        value = float(model.obj @ x)
        if bound is None or not math.isfinite(bound):
            bound = value
        return LpSolution(
            status=OPTIMAL, objective=value, x=x,
            bound=max(bound, value), node_count=node_count,
        )
    if res.status == 1:
        x = np.asarray(res.x) if res.x is not None else None
        value = float(model.obj @ x) if x is not None else -math.inf
        return LpSolution(
            status=TIME_LIMIT, objective=value, x=x,
            bound=bound, node_count=node_count,
        )
    if res.status == 2:
        return LpSolution(status=INFEASIBLE, objective=-math.inf, x=None)
    if res.status == 3:
        return LpSolution(status=UNBOUNDED, objective=math.inf, x=None)
    raise NumericalError(f"HiGHS solve failed: {res.message}")
