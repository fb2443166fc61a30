from hypothesis import given
from hypothesis import strategies as st

from crossopt.rational import (
    Rat,
    as_float,
    is_integral,
    parse_rat,
    rat_ceil,
    render_rat,
)

rationals = st.builds(
    Rat,
    st.integers(min_value=-10**12, max_value=10**12),
    st.integers(min_value=1, max_value=10**9),
)


@given(rationals)
def test_parse_render_round_trip(r):
    assert parse_rat(render_rat(r)) == r


@given(rationals)
def test_render_is_canonical_lowest_terms(r):
    text = render_rat(r)
    p, q = text.split("/")
    import math

    assert int(q) > 0
    assert math.gcd(int(p), int(q)) == 1


def test_parse_accepts_bare_integers():
    assert parse_rat("7") == Rat(7)
    assert parse_rat("-3") == Rat(-3)
    assert parse_rat(" 22/7 ") == Rat(22, 7)


@given(st.lists(rationals, min_size=2, max_size=8), st.randoms())
def test_sum_is_reassociation_invariant(values, rnd):
    total = sum(values, Rat(0))
    shuffled = list(values)
    rnd.shuffle(shuffled)
    regrouped = Rat(0)
    for v in shuffled:
        regrouped = v + regrouped
    assert regrouped == total


def test_floor_ceil_exact():
    assert rat_ceil(Rat(7, 2)) == 4
    assert rat_ceil(Rat(-7, 2)) == -3
    assert rat_ceil(Rat(6)) == 6


def test_is_integral_and_float():
    assert is_integral(Rat(4, 2))
    assert not is_integral(Rat(1, 3))
    assert as_float(Rat(1, 2)) == 0.5
    assert isinstance(as_float(Rat(1, 3)), float)
