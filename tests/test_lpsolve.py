import math

import numpy as np
import pytest

from vslcert.lpsolve import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    ModelBuilder,
    solve_lp,
)


def max_residual(model, x):
    """Largest constraint or bound violation of x on the scaled rows."""
    ax = model.A @ x
    worst = float(np.max(ax - model.hi, initial=0.0))
    worst = max(worst, float(np.max(model.lo - ax, initial=0.0)))
    worst = max(worst, float(np.max(model.lb - x, initial=0.0)))
    worst = max(worst, float(np.max(x - model.ub, initial=0.0)))
    return worst


def test_simple_lp_optimum():
    mb = ModelBuilder()
    x1 = mb.add_var(obj=1.0)
    x2 = mb.add_var(obj=1.0)
    mb.add_row([x1, x2], [1.0, 1.0], "<=", 1.0)
    sol = solve_lp(mb.build())
    assert sol.status == OPTIMAL
    assert sol.objective == pytest.approx(1.0)
    assert sol.x[x1] + sol.x[x2] == pytest.approx(1.0)


def test_infeasible_lp():
    mb = ModelBuilder()
    x = mb.add_var(obj=1.0)
    mb.add_row([x], [1.0], ">=", 1.0)
    mb.add_row([x], [1.0], "<=", 0.0)
    sol = solve_lp(mb.build())
    assert sol.status == INFEASIBLE
    assert sol.objective == -math.inf


def test_unbounded_lp():
    mb = ModelBuilder()
    x = mb.add_var(obj=1.0)
    mb.add_row([x], [1.0], ">=", 1.0)
    sol = solve_lp(mb.build())
    assert sol.status == UNBOUNDED
    assert sol.objective == math.inf


def test_strong_duality_on_a_fixed_pair():
    # primal: max 3x + 2y s.t. x + y <= 4, x + 3y <= 6, x, y >= 0
    mb = ModelBuilder()
    x = mb.add_var(obj=3.0)
    y = mb.add_var(obj=2.0)
    mb.add_row([x, y], [1.0, 1.0], "<=", 4.0)
    mb.add_row([x, y], [1.0, 3.0], "<=", 6.0)
    primal = solve_lp(mb.build())
    # dual: min 4a + 6b s.t. a + b >= 3, a + 3b >= 2, a, b >= 0
    # stated as max of the negative
    db = ModelBuilder()
    a = db.add_var(obj=-4.0)
    b = db.add_var(obj=-6.0)
    db.add_row([a, b], [1.0, 1.0], ">=", 3.0)
    db.add_row([a, b], [1.0, 3.0], ">=", 2.0)
    dual = solve_lp(db.build())
    assert primal.status == OPTIMAL and dual.status == OPTIMAL
    assert primal.objective == pytest.approx(-dual.objective, rel=1e-6)


def test_strong_duality_random_instances():
    rng = np.random.default_rng(0)
    for _ in range(15):
        m, n = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        A = rng.uniform(0.2, 2.0, size=(m, n))
        b = rng.uniform(1.0, 5.0, size=m)
        c = rng.uniform(0.1, 3.0, size=n)
        mb = ModelBuilder()
        xs = [mb.add_var(obj=float(ci)) for ci in c]
        for i in range(m):
            mb.add_row(xs, list(A[i]), "<=", float(b[i]))
        primal = solve_lp(mb.build())
        db = ModelBuilder()
        ys = [db.add_var(obj=float(-bi)) for bi in b]
        for j in range(n):
            db.add_row(ys, list(A[:, j]), ">=", float(c[j]))
        dual = solve_lp(db.build())
        assert primal.status == OPTIMAL and dual.status == OPTIMAL
        assert primal.objective == pytest.approx(-dual.objective, rel=1e-6)


def test_added_constraint_never_improves():
    rng = np.random.default_rng(1)
    for _ in range(10):
        c = rng.uniform(0.1, 2.0, size=3)
        mb = ModelBuilder()
        xs = [mb.add_var(ub=5.0, obj=float(ci)) for ci in c]
        mb.add_row(xs, [1.0, 1.0, 1.0], "<=", 6.0)
        base = solve_lp(mb.build()).objective
        mb.add_row(xs[:2], [1.0, 2.0], "<=", float(rng.uniform(1.0, 4.0)))
        tighter = solve_lp(mb.build()).objective
        assert tighter <= base + 1e-9


def test_solutions_are_deterministic():
    mb = ModelBuilder()
    xs = [mb.add_var(ub=1.0, obj=float(c)) for c in (7.0, 5.0, 3.0, 2.0)]
    mb.add_row(xs, [4.0, 3.0, 2.0, 1.0], "<=", 6.0)
    model = mb.build()
    first = solve_lp(model)
    second = solve_lp(model)
    assert first.objective == second.objective
    assert (first.x == second.x).all()


def test_row_scaling_lands_in_band():
    mb = ModelBuilder()
    x = mb.add_var(obj=1.0)
    y = mb.add_var(obj=1.0)
    mb.add_row([x, y], [3.1e4, 1.05e7], "<=", 2.0e7)
    mb.add_row([x, y], [4.0e-6, 1.0e-6], ">=", 1.0e-6)
    model = mb.build()
    A = model.A.toarray()
    for i in range(A.shape[0]):
        top = np.abs(A[i]).max()
        assert 1e-3 - 1e-12 <= top <= 1e3 + 1e-9
    assert model.row_scale.shape == (2,)
    # scale factors are powers of two so scaled solves stay bit-exact
    for s in model.row_scale:
        assert math.log2(s) == round(math.log2(s))


def test_scaling_preserves_the_solution_set():
    mb = ModelBuilder()
    x = mb.add_var(obj=1.0)
    mb.add_row([x], [2.5e6], "<=", 5.0e6)
    model = mb.build()
    assert model.row_scale[0] < 1.0
    sol = solve_lp(model)
    assert sol.status == OPTIMAL
    assert sol.objective == pytest.approx(2.0)


def test_residuals_small_at_optimum():
    rng = np.random.default_rng(5)
    mb = ModelBuilder()
    xs = [mb.add_var(ub=10.0, obj=float(rng.uniform(0.5, 2))) for _ in range(4)]
    for _ in range(6):
        cols = list(range(4))
        mb.add_row(cols, list(rng.uniform(0.1, 3, size=4)), "<=",
                   float(rng.uniform(5, 20)))
    model = mb.build()
    sol = solve_lp(model)
    assert sol.status == OPTIMAL
    assert max_residual(model, sol.x) <= 1e-7


def test_row_input_validation():
    mb = ModelBuilder()
    x = mb.add_var()
    with pytest.raises(ValueError):
        mb.add_row([x], [1.0], "<", 0.0)
    with pytest.raises(ValueError):
        mb.add_row([x], [math.nan], "<=", 0.0)
    with pytest.raises(ValueError):
        mb.add_row([x, x + 7], [1.0, 1.0], "<=", 0.0)


def test_block_row_bookkeeping():
    mb = ModelBuilder()
    x = mb.add_var(obj=1.0)
    y = mb.add_var(obj=1.0)
    mb.add_row([x], [1.0], "<=", 1.0, block="alpha")
    mb.add_row([y], [1.0], "<=", 1.0, block="alpha")
    mb.add_row([x, y], [1.0, 1.0], "<=", 2.0, block="beta")
    model = mb.build()
    assert model.block_rows["alpha"] == 2
    assert model.block_rows["beta"] == 1

