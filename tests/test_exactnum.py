from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from twistfusion.errors import PoleAtInfinity, PoleAtPoint, ZeroFunction
from twistfusion.exactnum import (
    Poly,
    RatFunc,
    parse_rational,
)

X = RatFunc.x()


def test_parse_rational():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-7") == Fraction(-7)
    assert parse_rational(" 2/6 ") == Fraction(1, 3)
    with pytest.raises(ValueError):
        parse_rational("1/0")
    with pytest.raises(ValueError):
        parse_rational("abc")


def test_eval_simple():
    f = 1 / (X - 1)
    assert f.eval(3) == Fraction(1, 2)


def test_eval_after_cancellation():
    f = (X * X - 1) / (X - 1)
    assert f.den.degree == 0  # the common factor cancels on construction
    assert f.eval(1) == 2


def test_eval_at_pole():
    with pytest.raises(PoleAtPoint):
        (1 / X).eval(0)


@pytest.mark.parametrize(
    "f,a,count,expect",
    [
        (1 / X, 0, 2, (-1, [1, 0])),
        ((2 + X) / X, 0, 2, (-1, [2, 1])),
        (X * X, 0, 1, (2, [1])),
    ],
)
def test_laurent_examples(f, a, count, expect):
    order, coeffs = f.laurent_at(a, count)
    assert order == expect[0]
    assert coeffs == [Fraction(c) for c in expect[1]]


def test_laurent_zero_function():
    with pytest.raises(ZeroFunction):
        RatFunc.const(0).laurent_at(0, 1)


@pytest.mark.parametrize(
    "f,K,expect",
    [
        (RatFunc.const(1), 2, [1, 0, 0]),
        (X / (X - 1), 2, [1, 1, 1]),
        (1 / (X + 2), 2, [0, 1, -2]),
    ],
)
def test_series_at_infinity_examples(f, K, expect):
    assert f.series_at_infinity(K) == [Fraction(c) for c in expect]


def test_series_pole_at_infinity():
    with pytest.raises(PoleAtInfinity):
        (X * X / (X - 1)).series_at_infinity(3)


small_fracs = st.fractions(
    min_value=-4, max_value=4, max_denominator=5
)


def polys(max_deg=3):
    return st.lists(small_fracs, min_size=0, max_size=max_deg + 1).map(Poly)


def ratfuncs():
    return st.tuples(polys(), polys()).filter(lambda t: not t[1].is_zero()).map(
        lambda t: RatFunc(t[0], t[1])
    )


@settings(max_examples=40, deadline=None)
@given(ratfuncs(), ratfuncs())
def test_field_property(f, g):
    if g.is_zero():
        return
    assert (f * g) / g == f
    assert f + g - g == f


@settings(max_examples=40, deadline=None)
@given(ratfuncs(), small_fracs, st.integers(min_value=1, max_value=5))
def test_laurent_resummation(f, a, count):
    """Summing the Laurent coefficients back reproduces f modulo (x-a)^top."""
    if f.is_zero() or f.den.eval(a) == 0 and f.num.eval(a) == 0:
        return
    order, coeffs = f.laurent_at(a, count)
    xa = X - a
    acc = RatFunc.const(0)
    for k, c in enumerate(coeffs):
        acc = acc + c * xa ** (order + k) if order + k >= 0 else acc + c / xa ** (-(order + k))
    diff = f - acc
    if diff.is_zero():
        return
    o2, _ = diff.laurent_at(a, 1)
    assert o2 >= order + count


@settings(max_examples=40, deadline=None)
@given(ratfuncs(), ratfuncs(), st.integers(min_value=0, max_value=4))
def test_series_cauchy_product(f, g, K):
    try:
        sf = f.series_at_infinity(K)
        sg = g.series_at_infinity(K)
    except PoleAtInfinity:
        return
    sfg = (f * g).series_at_infinity(K)
    for k in range(K + 1):
        assert sfg[k] == sum(sf[i] * sg[k - i] for i in range(k + 1))


def test_ratfunc_pow_support():
    assert X ** 3 == X * X * X


def test_normalization_monic_denominator():
    f = RatFunc(Poly((Fraction(2),)), Poly((Fraction(0), Fraction(2))))
    assert f.den.lc() == 1
    assert f == 1 / X
