import math
import random
from fractions import Fraction

import numpy
import pytest
from hypothesis import example, given, settings, strategies as st
from helpers import reference_float_rank, reference_rank, reference_solve_lp

import polyindex.linprog as linprog_module
from polyindex import ComputationError, InputError, LinearProgram, solve_lp
from polyindex.linalg import dot, rank
from polyindex.scalars import EXACT, float_context


def test_single_binding_constraint():
    # minimize -x subject to x <= 3
    sol = solve_lp(LinearProgram(objective=(-1,), ineq_lhs=[(1,)], ineq_rhs=(3,),
                                 nonneg=(True,)))
    assert sol.is_optimal
    assert sol.value == Fraction(-3)
    assert sol.point == (Fraction(3),)


def test_absolute_value_reformulation():
    # min t subject to -t <= x <= t and x = 5/17, with mu = 1/t: maximize mu
    # subject to -1 <= (5/17) mu <= 1. The maximum is 17/5 = 1/t*.
    lp = LinearProgram(objective=(-1,), ineq_lhs=[(Fraction(5, 17),), (Fraction(-5, 17),)],
                       ineq_rhs=(1, 1), nonneg=(True,))
    sol = solve_lp(lp)
    assert -1 / sol.value == Fraction(5, 17)


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


@pytest.mark.parametrize("ctx", [EXACT, float_context()], ids=["rational", "float"])
def test_rejects_equality_rows_and_negative_rhs(ctx):
    # The slack basis is the only start: an equality row, or a row that
    # x = 0 violates, is refused and named.
    lp = LinearProgram(objective=(1, 1), eq_lhs=[(1, 1)], eq_rhs=(2,))
    with pytest.raises(InputError, match=r"^equality row 0: "):
        solve_lp(lp, ctx)
    lp = LinearProgram(objective=(1,), ineq_lhs=[(1,), (-1,)], ineq_rhs=(1, Fraction(-1, 2)))
    with pytest.raises(InputError, match=r"^inequality row 1: right-hand side -1/2 is negative"):
        solve_lp(lp, ctx)


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
    (a_i . x <= a_i . x*, each signed so that a_i . x* >= 0 and x = 0 is
    feasible), loose extra rows with b >= 0, and c = -sum(lambda_i a_i)
    with lambda_i > 0, which certifies x* as the unique minimizer."""
    while True:
        xstar = tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n))
        tight = [tuple(Fraction(rng.randint(-4, 4)) for _ in range(n)) for _ in range(n)]
        if rank(tight, EXACT) == n:
            break
    tight = [a if dot(a, xstar) >= 0 else tuple(-x for x in a) for a in tight]
    lhs = list(tight)
    rhs = [dot(a, xstar) for a in tight]
    for _ in range(rng.randint(1, 3)):
        a = tuple(Fraction(rng.randint(-4, 4)) for _ in range(n))
        lhs.append(a)
        rhs.append(max(dot(a, xstar), 0) + Fraction(rng.randint(1, 5)))
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
    lp = LinearProgram(objective=(-1.0,), ineq_lhs=[(1.0,)], ineq_rhs=(3.0,))
    sol = solve_lp(lp, float_context())
    assert sol.is_optimal
    assert abs(sol.value + 3.0) < 1e-9


def test_float_pivot_overflow_raises():
    # The exact optimum is below -2**1024, beyond the float range: the float
    # pivots overflow, and the optimum once read off them was a nan.
    lp = LinearProgram(objective=(1e300, 1e200), ineq_lhs=[(-1e100, -1.0), (-1e200, -1.0)],
                       ineq_rhs=(1e100, 1e300))
    assert solve_lp(lp).value < -2 ** 1024
    with pytest.raises(ComputationError, match="^linear program: a pivot overflowed"):
        solve_lp(lp, float_context())


def test_basis_certificate_reported():
    sol = solve_lp(LinearProgram(objective=(-1,), ineq_lhs=[(1,)], ineq_rhs=(3,)))
    assert sol.basis and all(isinstance(i, int) for i in sol.basis)


def _random_mixed_lp(rng):
    """Small LP with inequality rows of b > 0 and b = 0 (degenerate at the
    start) and a mix of free and nonnegative variables. The draws include
    unbounded programs."""
    n = rng.randint(1, 4)

    def coeffs():
        return tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n))

    ineq_lhs = [coeffs() for _ in range(rng.randint(0, 6))]
    ineq_rhs = [Fraction(rng.choice((0, 1, 1)) * rng.randint(1, 4), rng.randint(1, 3))
                for _ in ineq_lhs]
    return LinearProgram(objective=coeffs(), ineq_lhs=ineq_lhs, ineq_rhs=ineq_rhs,
                         nonneg=tuple(rng.random() < 0.5 for _ in range(n)))


def test_random_mixed_lps_match_highs():
    from scipy.optimize import linprog
    rng = random.Random(4242)
    seen = {"optimal": 0, "unbounded": 0}
    degenerate = 0
    for _ in range(300):
        lp = _random_mixed_lp(rng)
        sol = solve_lp(lp)
        ref = linprog([float(c) for c in lp.objective],
                      A_ub=[[float(a) for a in row] for row in lp.ineq_lhs] or None,
                      b_ub=[float(b) for b in lp.ineq_rhs] or None,
                      bounds=[(0, None) if nn else (None, None) for nn in lp.nonneg],
                      # Every draw is feasible (x = 0 is), and HiGHS without
                      # presolve calls one unbounded draw of this seed unknown.
                      method="highs")
        assert sol.status == {0: "optimal", 3: "unbounded"}[ref.status], lp
        seen[sol.status] += 1
        degenerate += 0 in lp.ineq_rhs
        if sol.is_optimal:
            assert abs(float(sol.value) - ref.fun) < 1e-9, lp
            assert sol.value == dot(lp.objective, sol.point)
            for row, b in zip(lp.ineq_lhs, lp.ineq_rhs):
                assert dot(row, sol.point) <= b
            for x, nn in zip(sol.point, lp.nonneg):
                assert x >= 0 or not nn
    # Every outcome, and degenerate starts, occur often enough for the
    # comparison to mean something.
    assert min(seen.values()) >= 20 and degenerate >= 20, (seen, degenerate)


def test_nonnegative_rhs_needs_no_phase_1(monkeypatch):
    # Every row has b >= 0, so the slack basis is feasible from the start:
    # one simplex run and no column beyond the structural and slack ones.
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
    # The float backend runs the same _simplex once too.
    runs.clear()
    fsol = solve_lp(lp, float_context())
    assert fsol.is_optimal
    assert abs(fsol.value + 1.5) < 1e-9
    assert fsol.basis == sol.basis
    assert runs == [2 + 4 + 1]


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

    return LinearProgram(objective=tuple(map(take, lp.objective)),
                         ineq_lhs=[tuple(map(take, row)) for row in lp.ineq_lhs],
                         ineq_rhs=tuple(map(take, lp.ineq_rhs)), nonneg=lp.nonneg)


def _with_scaled_rows(lp, rng):
    """The same LP with every inequality row times a random positive int.
    Each row starts with its slack basic, so its scale only scales the
    slack's column and leaves every pivot alone."""
    lhs, rhs = [], []
    for row, b in zip(lp.ineq_lhs, lp.ineq_rhs):
        s = rng.randint(2, 9)
        lhs.append(tuple(s * a for a in row))
        rhs.append(s * b)
    return LinearProgram(objective=lp.objective, ineq_lhs=lhs, ineq_rhs=rhs, nonneg=lp.nonneg)


def test_int_coefficients_taken_as_they_are():
    # An int coefficient gives what its Fraction gives (the tableau takes
    # both through ctx.coerce): the Fraction simplex's solution, with
    # Fraction value and point.
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


_RANK_TOLERANCES = (1e-9, 1e-3, 1e-300)


def _ulps_from(x, k):
    """x moved k ulps up (k > 0) or down (k < 0)."""
    for _ in range(abs(k)):
        x = math.nextafter(x, math.inf if k > 0 else 0.0)
    return x


@st.composite
def _float_rank_matrices(draw):
    """``(eps, rows)``: a square or tall float matrix, made rank-deficient
    on purpose (zero rows, repeated rows, float combinations of earlier
    rows) and with entries within a few ulps of +-eps, where the pivot test
    ``|x| > eps`` flips."""
    eps = draw(st.sampled_from(_RANK_TOLERANCES))
    near_eps = st.builds(lambda k, s: s * _ulps_from(eps, k), st.integers(-3, 3),
                         st.sampled_from((1.0, -1.0)))
    entries = st.one_of(st.just(0.0), st.integers(-3, 3).map(float), near_eps,
                        st.floats(-10, 10, allow_nan=False, allow_infinity=False))
    ncols = draw(st.integers(1, 5))
    rows = []
    for _ in range(draw(st.integers(ncols, ncols + 4))):
        kind = draw(st.sampled_from(["fresh", "zero", "repeat", "combine"]) if rows
                    else st.just("fresh"))
        if kind == "fresh":
            rows.append(draw(st.lists(entries, min_size=ncols, max_size=ncols)))
        elif kind == "zero":
            rows.append([0.0] * ncols)
        elif kind == "repeat":
            rows.append(list(draw(st.sampled_from(rows))))
        else:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            s, t = draw(entries), draw(entries)
            rows.append([s * x + t * y for x, y in zip(a, b)])
    return eps, draw(st.permutations(rows))


def _as_int(x):
    return int(x) if x.is_integer() else x


@settings(max_examples=300, deadline=None)
@given(_float_rank_matrices(), st.data())
@example((1e-9, [[1e-9]]), None)
@example((1e-9, [[math.nextafter(1e-9, 1.0)]]), None)
@example((1e-300, [[1e-300, 1.0], [2.0, 2e-300]]), None)
def test_float_rank_matches_gauss_jordan(case, data):
    eps, rows = case
    ctx = float_context(eps)
    want = reference_float_rank(rows, eps)
    assert rank(rows, ctx) == want
    assert rank([tuple(row) for row in rows], ctx) == want
    if data is None:
        return
    # Entries that are not floats are coerced to the same floats: ints of
    # the integral entries, the Fractions and numpy.float64s of any.
    kinds = st.sampled_from((float, _as_int, Fraction, numpy.float64))
    mixed = [[data.draw(kinds)(x) for x in row] for row in rows]
    assert rank(mixed, ctx) == want
    # A non-finite entry is still rejected, whatever its row holds.
    i = data.draw(st.integers(0, len(rows) - 1))
    j = data.draw(st.integers(0, len(rows[0]) - 1))
    bad = [list(row) for row in rows]
    bad[i][j] = data.draw(st.sampled_from((math.inf, -math.inf, math.nan, numpy.float64("inf"),
                                           numpy.float64("nan"))))
    with pytest.raises(InputError, match="^not a finite number"):
        rank(bad, ctx)
