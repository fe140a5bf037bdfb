"""Thin linear and mixed-binary programming layer.

Models are assembled as sparse triplets through :class:`ModelBuilder`,
scaled row-wise into a numerically friendly coefficient range, and solved
with HiGHS via :mod:`scipy.optimize` (``linprog`` for LPs, ``milp`` for
mixed-binary models). The objective sense is always maximize.

Solves are deterministic for a fixed model: HiGHS runs single-threaded
with a fixed pivot and branching order here, so repeated calls return
bit-identical solutions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.optimize import Bounds, LinearConstraint, linprog, milp

from .errors import NumericalError

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
TIME_LIMIT = "time_limit"
NUMERICAL = "numerical_failure"

SENSES = ("<=", ">=", "=")

# Target band for the largest absolute coefficient of each scaled row.
_SCALE_HI = 1e3
_SCALE_LO = 1e-3


@dataclass
class LpModel:
    """Sparse constraint system with bounds and a maximize objective."""

    nvars: int
    lb: np.ndarray
    ub: np.ndarray
    obj: np.ndarray
    A: sp.csr_matrix
    sense: list[str]
    rhs: np.ndarray
    row_scale: np.ndarray
    block_rows: dict[str, int] = field(default_factory=dict)

    @property
    def nrows(self) -> int:
        return self.A.shape[0]


@dataclass
class MilpModel(LpModel):
    binary: np.ndarray = None  # bool mask over variables


@dataclass
class LpSolution:
    status: str
    objective: float
    x: np.ndarray | None
    bound: float | None = None
    node_count: int | None = None
    gap: float | None = None


class ModelBuilder:
    """Incremental triplet-based assembly of an LpModel or MilpModel."""

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
        if sense not in SENSES:
            raise ValueError(f"sense must be one of {SENSES}")
        cols = list(cols)
        coefs = [float(c) for c in coefs]
        if len(cols) != len(coefs):
            raise ValueError("cols and coefs length mismatch")
        if any(not (0 <= c < self.nvars) for c in cols):
            raise ValueError("column index out of range")
        if not all(math.isfinite(c) for c in coefs) or not math.isfinite(rhs):
            raise ValueError("constraint coefficients must be finite")
        self._rows_cols.append(cols)
        self._rows_coefs.append(coefs)
        self._sense.append(sense)
        self._rhs.append(float(rhs))
        self._blocks.append(block)
        return len(self._rhs) - 1

    def build(self, scale: bool = True) -> LpModel:
        n = self.nvars
        m = len(self._rhs)
        data: list[float] = []
        indices: list[int] = []
        indptr = [0]
        scales = np.ones(m)
        rhs = np.array(self._rhs)
        for i in range(m):
            cols, coefs = self._rows_cols[i], self._rows_coefs[i]
            if scale and coefs:
                top = max(abs(c) for c in coefs)
                if top > _SCALE_HI:
                    scales[i] = 2.0 ** -math.ceil(math.log2(top / _SCALE_HI))
                elif 0 < top < _SCALE_LO:
                    scales[i] = 2.0 ** math.ceil(math.log2(_SCALE_LO / top))
            data.extend(c * scales[i] for c in coefs)
            indices.extend(cols)
            indptr.append(len(indices))
        rhs = rhs * scales
        A = sp.csr_matrix((data, indices, indptr), shape=(m, n))
        A.sum_duplicates()
        blocks: dict[str, int] = {}
        for b in self._blocks:
            blocks[b] = blocks.get(b, 0) + 1
        kwargs = dict(
            nvars=n,
            lb=np.array(self._lb),
            ub=np.array(self._ub),
            obj=np.array(self._obj),
            A=A,
            sense=list(self._sense),
            rhs=rhs,
            row_scale=scales,
            block_rows=blocks,
        )
        if any(self._binary):
            return MilpModel(binary=np.array(self._binary), **kwargs)
        return LpModel(**kwargs)


def _split_rows(model: LpModel):
    """Return (A_ub, b_ub, A_eq, b_eq) with >= rows negated into <=."""
    sense = np.array(model.sense)
    le = sense == "<="
    ge = sense == ">="
    eq = sense == "="
    A_ub = b_ub = A_eq = b_eq = None
    parts = []
    rhs_parts = []
    if le.any():
        parts.append(model.A[le])
        rhs_parts.append(model.rhs[le])
    if ge.any():
        parts.append(-model.A[ge])
        rhs_parts.append(-model.rhs[ge])
    if parts:
        A_ub = sp.vstack(parts, format="csr")
        b_ub = np.concatenate(rhs_parts)
    if eq.any():
        A_eq = model.A[eq]
        b_eq = model.rhs[eq]
    return A_ub, b_ub, A_eq, b_eq


def solve_lp(model: LpModel) -> LpSolution:
    """Solve a maximize LP; statuses: optimal, infeasible, unbounded,
    numerical_failure."""
    A_ub, b_ub, A_eq, b_eq = _split_rows(model)
    bounds = list(zip(model.lb, model.ub))
    res = linprog(
        -model.obj,
        A_ub=A_ub,
        b_ub=b_ub,
        A_eq=A_eq,
        b_eq=b_eq,
        bounds=bounds,
        method="highs",
    )
    if res.status == 0:
        x = np.asarray(res.x)
        return LpSolution(status=OPTIMAL, objective=float(model.obj @ x), x=x)
    if res.status == 2:
        return LpSolution(status=INFEASIBLE, objective=-math.inf, x=None)
    if res.status == 3:
        return LpSolution(status=UNBOUNDED, objective=math.inf, x=None)
    message = (res.message or "").lower()
    if "unbounded" in message:
        return LpSolution(status=UNBOUNDED, objective=math.inf, x=None)
    if "infeasible" in message:
        return LpSolution(status=INFEASIBLE, objective=-math.inf, x=None)
    return LpSolution(status=NUMERICAL, objective=math.nan, x=None)


def solve_milp(
    model: MilpModel, gap_tol: float = 1e-6, time_limit: float | None = None
) -> LpSolution:
    """Branch-and-bound solve of a maximize mixed-binary model.

    Returns the incumbent plus the best proven bound. Hitting the time
    limit is reported via ``status`` with whatever incumbent exists;
    infeasibility is propagated as its own status.
    """
    lo = np.empty(model.nrows)
    hi = np.empty(model.nrows)
    for i, s in enumerate(model.sense):
        if s == "<=":
            lo[i], hi[i] = -math.inf, model.rhs[i]
        elif s == ">=":
            lo[i], hi[i] = model.rhs[i], math.inf
        else:
            lo[i] = hi[i] = model.rhs[i]
    options = {"mip_rel_gap": float(gap_tol), "presolve": True}
    if time_limit is not None:
        options["time_limit"] = float(time_limit)
    res = milp(
        -model.obj,
        constraints=LinearConstraint(model.A, lo, hi),
        integrality=model.binary.astype(int),
        bounds=Bounds(model.lb, model.ub),
        options=options,
    )
    node_count = getattr(res, "mip_node_count", None)
    dual_bound = getattr(res, "mip_dual_bound", None)
    bound = -float(dual_bound) if dual_bound is not None else None
    gap = getattr(res, "mip_gap", None)
    if res.status == 0:
        x = np.asarray(res.x)
        value = float(model.obj @ x)
        if bound is None or not math.isfinite(bound):
            bound = value
        return LpSolution(
            status=OPTIMAL, objective=value, x=x,
            bound=max(bound, value), node_count=node_count, gap=gap,
        )
    if res.status == 1:
        x = np.asarray(res.x) if res.x is not None else None
        value = float(model.obj @ x) if x is not None else -math.inf
        return LpSolution(
            status=TIME_LIMIT, objective=value, x=x,
            bound=bound, node_count=node_count, gap=gap,
        )
    if res.status == 2:
        return LpSolution(status=INFEASIBLE, objective=-math.inf, x=None)
    if res.status == 3:
        return LpSolution(status=UNBOUNDED, objective=math.inf, x=None)
    raise NumericalError(f"mixed-binary solve failed: {res.message}")
