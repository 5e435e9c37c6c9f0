import dataclasses
import math
import pickle
import struct
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st
from helpers import reference_parse_rational

from polyindex import InputError, format_rational, parse_rational
from polyindex.scalars import Context, EXACT, check_tolerance, float_context, infer_exact


def test_parse_fraction():
    assert parse_rational("5/17") == Fraction(5, 17)


def test_parse_integer():
    assert parse_rational("-1") == Fraction(-1)


def test_parse_decimal_is_exact():
    assert parse_rational("0.5") == Fraction(1, 2)


def test_parse_whitespace():
    assert parse_rational(" 3/4 ") == Fraction(3, 4)


def test_parse_zero_denominator():
    with pytest.raises(InputError):
        parse_rational("5/0")


@pytest.mark.parametrize("bad", ["", "abc", "1/2/3", "--3", None, 1.5])
def test_parse_malformed(bad):
    with pytest.raises(InputError):
        parse_rational(bad)


def test_format_round_trip():
    for q in (Fraction(5, 17), Fraction(-3), Fraction(0), Fraction(9, 13)):
        assert parse_rational(format_rational(q)) == q


rationals = st.fractions(min_value=-100, max_value=100, max_denominator=50)


@given(rationals, rationals, rationals)
def test_exact_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a + b == b + a and a * b == b * a
    assert a * (b + c) == a * b + a * c


def test_exact_fractions_lowest_terms():
    x = parse_rational("4/8")
    assert (x.numerator, x.denominator) == (1, 2)
    y = Fraction(3, -9)
    assert y.denominator > 0


def test_exact_context_sign():
    assert EXACT.exact
    assert EXACT.sign(Fraction(1, 10 ** 12)) == 1
    assert EXACT.sign(Fraction(0)) == 0
    assert EXACT.sign(-Fraction(1, 10 ** 12)) == -1


def test_float_context_tolerance():
    ctx = float_context(1e-9)
    assert not ctx.exact
    assert ctx.eq(1.0, 1.0 + 5e-10)
    assert not ctx.eq(1.0, 1.0 + 5e-9)
    assert ctx.is_zero(-8e-10)


def test_float_context_default_env(monkeypatch):
    monkeypatch.setenv("POLYINDEX_EPS", "1e-6")
    assert float_context().eps == 1e-6
    monkeypatch.setenv("POLYINDEX_EPS", "nonsense")
    with pytest.raises(InputError):
        float_context()


def test_negative_tolerance_rejected():
    with pytest.raises(InputError):
        Context(-1e-9)


@pytest.mark.parametrize("eps", [math.nan, math.inf, -math.inf, -1e-9])
def test_context_rejects_a_tolerance_that_is_not_finite_and_positive(eps):
    # A NaN tolerance would make every value compare as zero.
    with pytest.raises(InputError, match="^eps: tolerance must be finite and positive"):
        Context(eps)
    assert Context(0.0).exact and not Context(1e-12).exact


@pytest.mark.parametrize("raw", ["0", "-1e-9", "nan", "inf", "-inf"])
def test_float_context_rejects_bad_env_tolerance(monkeypatch, raw):
    monkeypatch.setenv("POLYINDEX_EPS", raw)
    with pytest.raises(InputError, match="^POLYINDEX_EPS: tolerance must be finite and positive"):
        float_context()


@pytest.mark.parametrize("eps", [0.0, -1e-9, math.nan, math.inf])
def test_bad_tolerance_names_its_source(eps):
    # A float context with eps 0 would be the exact backend.
    with pytest.raises(InputError, match="^--eps: "):
        check_tolerance(eps, "--eps")
    with pytest.raises(InputError, match="^eps: "):
        float_context(eps)
    assert check_tolerance(1e-12, "--eps") == 1e-12


def test_context_names_its_backend():
    assert EXACT.backend == "rational"
    assert float_context(1e-6).backend == "float"
    with pytest.raises(AttributeError):
        EXACT.backend = "float"


def test_coerce():
    assert EXACT.coerce("2/3") == Fraction(2, 3)
    assert EXACT.coerce(7) == Fraction(7)
    assert float_context().coerce(Fraction(1, 4)) == 0.25
    with pytest.raises(InputError):
        EXACT.coerce(object())


def test_infer_exact():
    assert infer_exact([(1, Fraction(1, 2)), (3, 4)])
    assert not infer_exact([(1, 0.5)])
    assert not infer_exact([[(1,), (2.0,)]])


def test_context_keeps_value_semantics_with_exact_an_attribute():
    a, b = Context(1e-9), Context(1e-9)
    assert a == b and hash(a) == hash(b) and a != Context(1e-6) and a != EXACT
    assert Context(0.0) == EXACT and hash(Context(0.0)) == hash(EXACT)
    assert repr(a) == "Context(eps=1e-09)" and repr(EXACT) == "Context(eps=0.0)"
    assert [f.name for f in dataclasses.fields(Context)] == ["eps"]
    wider = dataclasses.replace(a, eps=1e-6)
    assert wider == Context(1e-6) and not wider.exact
    assert dataclasses.replace(a, eps=0.0).exact
    assert not dataclasses.replace(EXACT, eps=1e-3).exact
    for ctx in (EXACT, a):
        back = pickle.loads(pickle.dumps(ctx))
        assert back == ctx and hash(back) == hash(ctx) and back.exact == ctx.exact
    for ctx in (EXACT, a):
        for name, value in (("exact", not ctx.exact), ("eps", 0.5)):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(ctx, name, value)
    assert EXACT.exact and EXACT.eps == 0.0 and not a.exact and a.eps == 1e-9


_FLOAT_EDGES = (-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308, math.inf, -math.inf)
_finite_floats = st.floats(allow_nan=False, allow_infinity=False)
_scalars = st.one_of(st.integers(-10 ** 30, 10 ** 30), rationals, _finite_floats)


def _bits(x):
    return struct.pack("<d", x)


@given(st.integers(-10 ** 40, 10 ** 40), st.integers(1, 10 ** 20))
@example(0, 1)
@example(-6, 4)
@example(10 ** 400, 3)
def test_exact_quotient_is_the_fraction(x, scale):
    got = EXACT.quotient(x, scale)
    assert type(got) is Fraction and got == Fraction(x, scale)


@given(st.floats())
def test_float_quotient_over_one_is_the_value_bit_for_bit(x):
    ctx = float_context()
    for edge in _FLOAT_EDGES:
        assert _bits(ctx.quotient(edge, 1)) == _bits(edge)
    got = ctx.quotient(x, 1)
    assert _bits(got) == _bits(x) or (math.isnan(x) and math.isnan(got))
    assert ctx.quotient(3.0, 4) == 0.75


@given(st.lists(st.integers(-10 ** 30, 10 ** 30), min_size=1, max_size=6))
@example([0, 0, 0])
@example([6, -4, 10])
@example([-5])
def test_exact_primitive_is_a_positive_multiple_with_gcd_1(v):
    w = EXACT.primitive(v)
    assert type(w) is tuple and all(type(x) is int for x in w)
    if not any(v):
        assert w == tuple(v)
        return
    g = math.gcd(*w)
    assert g == 1
    factor = math.gcd(*v)  # v = factor * w, factor > 0
    assert tuple(x * factor for x in w) == tuple(v)


@given(st.lists(_finite_floats, min_size=1, max_size=6))
@example([0.0, -0.0])
@example([5e-324, -5e-324, 0.0])
@example([-3.0, 1.5])
def test_float_primitive_scales_to_a_largest_magnitude_of_1(v):
    w = float_context().primitive(v)
    assert type(w) is tuple and len(w) == len(v)
    m = max(map(abs, v))
    if m == 0:
        assert list(map(_bits, w)) == list(map(_bits, v))
        return
    assert max(map(abs, w)) == 1.0
    assert w == tuple(x / m for x in v)  # v divided by m > 0


@given(st.lists(st.lists(_scalars, min_size=3, max_size=3), min_size=1, max_size=5))
@example([[10 ** 400, Fraction(1, 3), 0.1]])
def test_exact_rows_over_one_scale_give_their_values(rows):
    w, scale = EXACT.over_one_scale(rows)
    assert type(scale) is int and scale > 0
    assert all(type(x) is int for row in w for x in row)
    assert [[Fraction(x, scale) for x in row] for row in w] == \
        [[Fraction(x) for x in row] for row in rows]


@given(st.lists(st.lists(_finite_floats, min_size=2, max_size=2), min_size=1, max_size=5))
def test_float_rows_over_one_scale_are_the_rows_over_1(rows):
    w, scale = float_context().over_one_scale(rows)
    assert scale == 1 and len(w) == len(rows)
    assert all(a is b for a, b in zip(w, rows))
    assert [[_bits(x / scale) for x in row] for row in w] == [list(map(_bits, r)) for r in rows]


@given(st.lists(st.one_of(st.integers(), rationals)))
@example([10 ** 400, -(10 ** 400)])
@example([Fraction(10 ** 400, 3)])
@example([])
def test_exact_finite_holds_on_every_value(values):
    assert EXACT.finite(values) is True


def test_float_finite_rejects_inf_and_nan_only():
    ctx = float_context()
    assert ctx.finite([]) and ctx.finite([0.0, -0.0, -5e-324])
    assert ctx.finite([1.7976931348623157e308] * 2)  # a sum would overflow; the values do not
    for bad in (math.inf, -math.inf, math.nan):
        assert not ctx.finite([1.0, bad])


def test_ring_methods_leave_context_value_semantics_alone():
    for ctx in (EXACT, Context(1e-9)):
        before = (repr(ctx), hash(ctx), dict(vars(ctx)))
        ctx.over_one_scale([[1, 2]])
        ctx.primitive([2, 4])
        ctx.quotient(3, 1)
        ctx.finite([1.0])
        assert (repr(ctx), hash(ctx), vars(ctx)) == before
    assert Context(1e-9) == Context(1e-9) != EXACT
    assert [f.name for f in dataclasses.fields(Context)] == ["eps"]


_WHITESPACE = st.sampled_from(["", " ", "\t", " \n", "\u2003"])
_DIGIT_RUNS = st.one_of(
    st.text(alphabet="0123456789", min_size=1, max_size=8),
    st.sampled_from(["0", "00", "000", "1" * 30]),
    # Underscores, non-ASCII digits (Arabic-Indic three, fullwidth five,
    # superscript two), decimals and exponents.
    st.text(alphabet="0123456789_\u0663\uff15\u00b2.eE+-", min_size=0, max_size=8),
    st.sampled_from(["1_000", "1__0", "_1", "1.5", ".5", "5.", "1e3", "1E-2", "2e+400",
                     "1.5e-3", "\u0663", "\uff15", "\u00b2", "inf", "nan"]),
)


@st.composite
def _rational_literals(draw):
    sign = draw(st.sampled_from(["", "+", "-", "--", "+-"]))
    text = sign + draw(_DIGIT_RUNS)
    slash = draw(st.sampled_from(["", "/", "/", " /", "/ ", " / ", "//"]))
    if slash:
        text += slash + draw(st.sampled_from(["", "+", "-"])) + draw(_DIGIT_RUNS)
    return draw(_WHITESPACE) + text + draw(_WHITESPACE)


@settings(max_examples=500, deadline=None)
@given(st.one_of(_rational_literals(), st.text(max_size=10)))
@example("5/0")
@example(" -0/0 ")
@example("-12/-5")
@example("1 / 2")
@example("1_0/3")
@example("\u0663/4")
@example("+7")
@example("0012/0008")
def test_parse_rational_matches_fraction_on_its_text(text):
    kind, want = reference_parse_rational(text)
    if kind == "value":
        got = parse_rational(text)
        assert type(got) is Fraction and got == want
    else:
        with pytest.raises(InputError) as exc:
            parse_rational(text)
        assert str(exc.value) == want
