import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from helpers import reference_rank, reference_solve_lp

from polyindex import InputError, LinearProgram, solve_lp
from polyindex.linalg import dot, rank
from polyindex.scalars import EXACT, float_context


def test_single_binding_constraint():
    # minimize x subject to x >= 3 (written as -x <= -3)
    sol = solve_lp(LinearProgram(objective=(1,), ineq_lhs=[(-1,)], ineq_rhs=(-3,)))
    assert sol.is_optimal
    assert sol.value == Fraction(3)
    assert sol.point == (Fraction(3),)


def test_absolute_value_reformulation():
    # minimize t subject to -t <= x <= t and x = 5/17
    lp = LinearProgram(objective=(0, 1),
                       ineq_lhs=[(1, -1), (-1, -1)], ineq_rhs=(0, 0),
                       eq_lhs=[(1, 0)], eq_rhs=(Fraction(5, 17),))
    sol = solve_lp(lp)
    assert sol.value == Fraction(5, 17)


def test_infeasible():
    # x <= -1 together with x >= 1
    lp = LinearProgram(objective=(0,), ineq_lhs=[(1,), (-1,)], ineq_rhs=(-1, -1))
    assert solve_lp(lp).status == "infeasible"


def test_unbounded():
    lp = LinearProgram(objective=(1,), ineq_lhs=[(1,)], ineq_rhs=(3,))
    assert solve_lp(lp).status == "unbounded"


def test_nonneg_flags():
    # minimize -x subject to x <= 2, x >= 0
    lp = LinearProgram(objective=(-1,), ineq_lhs=[(1,)], ineq_rhs=(2,), nonneg=(True,))
    sol = solve_lp(lp)
    assert sol.value == Fraction(-2)


def test_malformed_dimensions():
    with pytest.raises(InputError):
        LinearProgram(objective=(1, 2), ineq_lhs=[(1,)], ineq_rhs=(0,))
    with pytest.raises(InputError):
        LinearProgram(objective=(1,), ineq_lhs=[(1,)], ineq_rhs=())
    with pytest.raises(InputError):
        LinearProgram(objective=())
    with pytest.raises(InputError):
        LinearProgram(objective=(1,), nonneg=(True, False))


def test_degenerate_repeated_constraints_terminate():
    # Heavily duplicated rows; Bland's rule must still terminate.
    rows = [(-1, 0), (-1, 0), (-1, 0), (0, -1), (0, -1), (1, 1), (1, 1), (1, 1)]
    rhs = (0, 0, 0, 0, 0, 1, 1, 1)
    lp = LinearProgram(objective=(-1, -2), ineq_lhs=rows, ineq_rhs=rhs)
    sol = solve_lp(lp)
    assert sol.is_optimal
    assert sol.value == Fraction(-2)
    assert sol.point == (Fraction(0), Fraction(1))


def _random_lp_with_known_optimum(rng, n):
    """Embed a known vertex optimum: pick x*, n independent tight rows a_i
    (a_i . x <= a_i . x*), loose extra rows, and c = -sum(lambda_i a_i)
    with lambda_i > 0, which certifies x* as the unique minimizer."""
    while True:
        xstar = tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n))
        tight = [tuple(Fraction(rng.randint(-4, 4)) for _ in range(n)) for _ in range(n)]
        from polyindex.linalg import rank
        if rank(tight, EXACT) == n:
            break
    lhs = list(tight)
    rhs = [dot(a, xstar) for a in tight]
    for _ in range(rng.randint(1, 3)):
        a = tuple(Fraction(rng.randint(-4, 4)) for _ in range(n))
        lhs.append(a)
        rhs.append(dot(a, xstar) + Fraction(rng.randint(1, 5)))
    lam = [Fraction(rng.randint(1, 4)) for _ in range(n)]
    c = tuple(-sum(lam[i] * tight[i][j] for i in range(n)) for j in range(n))
    return LinearProgram(objective=c, ineq_lhs=lhs, ineq_rhs=rhs), xstar


def test_random_lps_recover_embedded_optimum():
    rng = random.Random(20240811)
    for _ in range(40):
        n = rng.randint(2, 4)
        lp, xstar = _random_lp_with_known_optimum(rng, n)
        sol = solve_lp(lp)
        assert sol.is_optimal
        assert sol.value == dot(lp.objective, xstar)


def test_optimal_point_satisfies_constraints_exactly():
    rng = random.Random(7)
    for _ in range(25):
        lp, _ = _random_lp_with_known_optimum(rng, rng.randint(2, 3))
        sol = solve_lp(lp)
        assert sol.is_optimal
        for row, b in zip(lp.ineq_lhs, lp.ineq_rhs):
            assert dot(row, sol.point) <= b
        # Reported value always re-derives from the returned point.
        assert sol.value == dot(lp.objective, sol.point)


def test_float_backend():
    lp = LinearProgram(objective=(1.0,), ineq_lhs=[(-1.0,)], ineq_rhs=(-3.0,))
    sol = solve_lp(lp, float_context())
    assert sol.is_optimal
    assert abs(sol.value - 3.0) < 1e-9


def test_equality_only_system():
    lp = LinearProgram(objective=(1, 1), eq_lhs=[(1, 1)], eq_rhs=(2,))
    sol = solve_lp(lp)
    assert sol.is_optimal and sol.value == Fraction(2)


def test_redundant_equalities_dropped():
    lp = LinearProgram(objective=(1,), eq_lhs=[(1,), (1,), (2,)], eq_rhs=(1, 1, 2))
    sol = solve_lp(lp)
    assert sol.is_optimal and sol.value == Fraction(1)


def test_basis_certificate_reported():
    sol = solve_lp(LinearProgram(objective=(1,), ineq_lhs=[(-1,)], ineq_rhs=(-3,)))
    assert sol.basis and all(isinstance(i, int) for i in sol.basis)


def _random_mixed_lp(rng):
    """Small LP with inequality rows of b > 0, b = 0 and b < 0, some equality
    rows and a mix of free and nonnegative variables. The draws include
    infeasible and unbounded programs."""
    n = rng.randint(1, 4)

    def coeffs():
        return tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n))

    ineq_lhs = [coeffs() for _ in range(rng.randint(0, 5))]
    ineq_rhs = [Fraction(rng.choice((-1, 0, 1)) * rng.randint(1, 4), rng.randint(1, 3))
                for _ in ineq_lhs]
    eq_lhs = [coeffs() for _ in range(rng.randint(0, 2))]
    eq_rhs = [Fraction(rng.randint(-3, 3)) for _ in eq_lhs]
    return LinearProgram(objective=coeffs(), ineq_lhs=ineq_lhs, ineq_rhs=ineq_rhs,
                         eq_lhs=eq_lhs, eq_rhs=eq_rhs,
                         nonneg=tuple(rng.random() < 0.5 for _ in range(n)))


def test_random_mixed_lps_match_highs():
    from scipy.optimize import linprog
    rng = random.Random(4242)
    seen = {"optimal": 0, "infeasible": 0, "unbounded": 0}
    for _ in range(300):
        lp = _random_mixed_lp(rng)
        sol = solve_lp(lp)
        ref = linprog([float(c) for c in lp.objective],
                      A_ub=[[float(a) for a in row] for row in lp.ineq_lhs] or None,
                      b_ub=[float(b) for b in lp.ineq_rhs] or None,
                      A_eq=[[float(a) for a in row] for row in lp.eq_lhs] or None,
                      b_eq=[float(b) for b in lp.eq_rhs] or None,
                      bounds=[(0, None) if nn else (None, None) for nn in lp.nonneg],
                      method="highs",
                      # HiGHS presolve calls one feasible, unbounded draw of
                      # this seed infeasible; the plain simplex does not.
                      options={"presolve": False})
        assert sol.status == {0: "optimal", 2: "infeasible", 3: "unbounded"}[ref.status], lp
        seen[sol.status] += 1
        if sol.is_optimal:
            assert abs(float(sol.value) - ref.fun) < 1e-9, lp
            assert sol.value == dot(lp.objective, sol.point)
            for row, b in zip(lp.ineq_lhs, lp.ineq_rhs):
                assert dot(row, sol.point) <= b
            for row, b in zip(lp.eq_lhs, lp.eq_rhs):
                assert dot(row, sol.point) == b
            for x, nn in zip(sol.point, lp.nonneg):
                assert x >= 0 or not nn
    # Every outcome occurs often enough for the comparison to mean something.
    assert min(seen.values()) >= 20, seen


def test_nonnegative_rhs_needs_no_phase_1(monkeypatch):
    # Every row has b >= 0, so the slack basis is feasible from the start:
    # one simplex run (phase 2) and no artificial column.
    import polyindex.linprog as linprog_module
    runs = []
    real = linprog_module._simplex

    def counting(rows, objs, *args):
        runs.append(len(rows[0]))
        return real(rows, objs, *args)

    monkeypatch.setattr(linprog_module, "_simplex", counting)
    # maximize x + y over the square [0, 1]^2 cut by x + 2y <= 2 and y - x <= 0
    lp = LinearProgram(objective=(-1, -1),
                       ineq_lhs=[(1, 0), (0, 1), (1, 2), (-1, 1)],
                       ineq_rhs=(1, 1, 2, 0), nonneg=(True, True))
    sol = solve_lp(lp)
    assert sol.is_optimal
    assert sol.value == Fraction(-3, 2)
    assert sol.point == (Fraction(1), Fraction(1, 2))
    assert runs == [2 + 4 + 1]  # two structural and four slack columns, then the RHS
    # The float backend runs the same _simplex and skips phase 1 too.
    runs.clear()
    fsol = solve_lp(lp, float_context())
    assert fsol.is_optimal
    assert abs(fsol.value + 1.5) < 1e-9
    assert fsol.basis == sol.basis
    assert runs == [2 + 4 + 1]


def test_artificial_rows_add_no_column(monkeypatch):
    # An equality row and an inequality row with b < 0 each start with an
    # artificial basic, but the tableau keeps no column for either: both
    # phases see the structural and slack columns and the RHS alone.
    import polyindex.linprog as linprog_module
    runs = []
    real = linprog_module._simplex

    def counting(rows, objs, *args):
        runs.append({len(row) for row in rows + objs})
        return real(rows, objs, *args)

    monkeypatch.setattr(linprog_module, "_simplex", counting)
    # minimize x + 2y + 3z subject to x + y + z >= 1 and x = y
    lp = LinearProgram(objective=(1, 2, 3), ineq_lhs=[(-1, -1, -1)], ineq_rhs=(-1,),
                       eq_lhs=[(1, -1, 0)], eq_rhs=(0,), nonneg=(True, True, True))
    sol = solve_lp(lp)
    assert sol.is_optimal
    assert sol.value == Fraction(3, 2)
    assert sol.point == (Fraction(1, 2), Fraction(1, 2), Fraction(0))
    assert runs == [{3 + 1 + 1}] * 2  # three structural columns, one slack, the RHS
    runs.clear()
    fsol = solve_lp(lp, float_context())
    assert fsol.is_optimal
    assert abs(fsol.value - 1.5) < 1e-9
    assert fsol.basis == sol.basis
    assert runs == [{3 + 1 + 1}] * 2


def test_random_mixed_lps_match_fraction_simplex():
    # The integer tableau makes the Fraction simplex's pivots, so status,
    # value, point and final basis all agree, degenerate programs included.
    rng = random.Random(4242)
    for _ in range(300):
        lp = _random_mixed_lp(rng)
        assert solve_lp(lp) == reference_solve_lp(lp), lp


def _with_int_coefficients(lp):
    """The same LP with every integral coefficient given as an int."""
    def take(x):
        return int(x) if x.denominator == 1 else x

    def rows(rs):
        return [tuple(map(take, row)) for row in rs]

    return LinearProgram(objective=tuple(map(take, lp.objective)),
                         ineq_lhs=rows(lp.ineq_lhs), ineq_rhs=tuple(map(take, lp.ineq_rhs)),
                         eq_lhs=rows(lp.eq_lhs), eq_rhs=tuple(map(take, lp.eq_rhs)),
                         nonneg=lp.nonneg)


def _with_scaled_rows(lp, rng):
    """The same LP with every inequality row of b >= 0 times a random
    positive int. Such a row starts with its slack basic, so its scale only
    scales the slack's column and leaves every pivot alone."""
    lhs, rhs = [], []
    for row, b in zip(lp.ineq_lhs, lp.ineq_rhs):
        s = rng.randint(2, 9) if b >= 0 else 1
        lhs.append(tuple(s * a for a in row))
        rhs.append(s * b)
    return LinearProgram(objective=lp.objective, ineq_lhs=lhs, ineq_rhs=rhs,
                         eq_lhs=lp.eq_lhs, eq_rhs=lp.eq_rhs, nonneg=lp.nonneg)


def test_int_coefficients_taken_as_they_are():
    # ints reach the integer tableau without a Fraction; the solution is
    # the Fraction simplex's, with Fraction value and point.
    rng = random.Random(4242)
    scales = random.Random(17)
    for _ in range(300):
        lp = _random_mixed_lp(rng)
        want = reference_solve_lp(lp)
        scaled = _with_scaled_rows(lp, scales)
        for variant in (_with_int_coefficients(lp), scaled, _with_int_coefficients(scaled)):
            sol = solve_lp(variant)
            assert sol == want, variant
            if sol.is_optimal:
                assert type(sol.value) is Fraction
                assert all(type(x) is Fraction for x in sol.point)
    # On floats an all-int LP still solves in floats.
    lp = LinearProgram(objective=(-1, -1), ineq_lhs=[(1, 2), (3, 1)], ineq_rhs=(4, 6),
                       nonneg=(True, True))
    sol = solve_lp(lp, float_context())
    assert sol.is_optimal
    assert type(sol.value) is float and all(type(x) is float for x in sol.point)
    assert sol.point == pytest.approx((1.6, 1.2)) and sol.value == pytest.approx(-2.8)


_ENTRIES = st.one_of(
    st.just(0),
    st.integers(-3, 3),
    st.fractions(min_value=-10, max_value=10, max_denominator=10**12),
)


@st.composite
def _rank_matrices(draw):
    """Rows drawn to be rank-deficient: zero rows, repeated rows and
    combinations of earlier rows mixed in with fresh ones."""
    ncols = draw(st.integers(1, 5))
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["fresh", "zero", "repeat", "combine"]) if rows
                    else st.just("fresh"))
        if kind == "fresh":
            rows.append(draw(st.lists(_ENTRIES, min_size=ncols, max_size=ncols)))
        elif kind == "zero":
            rows.append([0] * ncols)
        elif kind == "repeat":
            rows.append(list(draw(st.sampled_from(rows))))
        else:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            s, t = draw(_ENTRIES), draw(_ENTRIES)
            rows.append([s * x + t * y for x, y in zip(a, b)])
    return [[Fraction(x) for x in row] for row in draw(st.permutations(rows))]


@settings(max_examples=300, deadline=None)
@given(_rank_matrices())
def test_exact_rank_matches_fraction_elimination(rows):
    assert rank(rows, EXACT) == reference_rank(rows)
