from fractions import Fraction as F
from functools import reduce
from math import ceil, lcm
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modunits.classical import eta
from modunits.cycloq import Cyclotomic, e_of, euler_phi, unit_angle
from modunits.qseries import PuiseuxSeries, TruncationError, WeightMismatchError, product_family
from modunits.units import FracVector, siegel_function


def geometric(trunc):
    return PuiseuxSeries(1, {k: F(1) for k in range(int(trunc))}, trunc)


def test_additive_identity():
    m = PuiseuxSeries.monomial(1, F(1, 24), 5)
    assert (m + PuiseuxSeries.zero(5)).same_series(m)


def test_one_minus_q_plus_q():
    one_minus_q = PuiseuxSeries(1, {0: F(1), 1: F(-1)}, 5)
    q = PuiseuxSeries.monomial(1, 1, 5)
    assert (one_minus_q + q).same_series(PuiseuxSeries.one(5))


def test_trunc_is_min_under_add():
    a = PuiseuxSeries.one(5)
    b = PuiseuxSeries.one(3)
    assert (a + b).trunc == 3


def test_add_rejects_weight_mismatch():
    a = PuiseuxSeries.one(5)
    b = PuiseuxSeries.monomial(1, 0, 5, two_pi_i_power=2)
    with pytest.raises(WeightMismatchError):
        a + b


def test_fractional_exponent_product():
    m = PuiseuxSeries.monomial(1, F(1, 24), 5)
    assert (m * m).ord() == F(1, 12)


def test_telescoping_product():
    one_minus_q = PuiseuxSeries(1, {0: F(1), 1: F(-1)}, 10)
    assert (one_minus_q * geometric(10)).same_series(PuiseuxSeries.one(10))


def test_eta_square_leading_term():
    e = eta(3)
    assert (e * e).ord() == F(1, 12)


def test_inverse_of_monomial():
    m = PuiseuxSeries.monomial(1, -1, 5)
    assert m.inverse().ord() == 1


def test_inverse_of_one_minus_q():
    one_minus_q = PuiseuxSeries(1, {0: F(1), 1: F(-1)}, 10)
    inv = one_minus_q.inverse()
    for k in range(10):
        assert inv.coefficient(k) == 1


@pytest.mark.parametrize(
    "denom, terms, trunc",
    [
        (1, {0: 1, 1: 1}, 6),
        (1, {0: 1, 1: 1}, F(11, 2)),
        (2, {1: 3, 2: -1, 5: 2}, F(17, 4)),
        (3, {-2: 1, 1: F(1, 2), 4: 5}, F(10, 3)),
        (3, {-2: 1, 1: F(1, 2), 4: 5}, F(7, 2)),
        (1, {0: Cyclotomic(5, [0, 1]), 1: 1, 2: Cyclotomic(3, [1, 2])}, F(9, 2)),
    ],
)
def test_inverse_round_trip_to_claimed_trunc(denom, terms, trunc):
    s = PuiseuxSeries(denom, terms, trunc)
    inv = s.inverse()
    assert inv.trunc == trunc - 2 * s.ord()
    prod = s * inv
    assert prod.trunc == trunc - s.ord()
    assert (prod - 1).is_zero()


def test_eta_inverse_round_trip():
    e = eta(50)
    prod = e * e.inverse()
    assert prod.coefficient(0) == 1
    assert (prod - 1).is_zero()


def test_inverse_rejects_zero():
    with pytest.raises(ZeroDivisionError):
        PuiseuxSeries.zero(5).inverse()


def test_pow_basics():
    half = PuiseuxSeries.monomial(1, F(1, 2), 5)
    assert (half**2).ord() == 1
    a = PuiseuxSeries(1, {0: F(2), 1: F(3)}, 8)
    assert (a**0).same_series(PuiseuxSeries.one(8))
    assert ((a**-1) * a).same_series(PuiseuxSeries.one(6))


def test_pow_of_zero_rejected():
    with pytest.raises(ZeroDivisionError):
        PuiseuxSeries.zero(5) ** 0


def test_substitution_scales_exponents():
    m = PuiseuxSeries.monomial(1, F(1, 24), 5)
    assert m.substitute_q_power(4).ord() == F(1, 6)
    assert m.substitute_q_power(4).trunc == 20


@pytest.mark.parametrize("m", [F(5, 2), 2.5, 2.0, F(2), 0, -1])
def test_substitution_rejects_all_but_positive_ints(m):
    with pytest.raises(ValueError):
        eta(3).substitute_q_power(m)


def test_substitution_identity():
    e = eta(10)
    assert e.substitute_q_power(1).same_series(e)


def test_substitution_of_eta():
    assert eta(10).substitute_q_power(4).ord() == F(1, 6)


def test_substitution_commutes_with_mul():
    a = PuiseuxSeries(2, {1: F(1), 3: F(2)}, 6)
    b = PuiseuxSeries(3, {0: F(1), 2: F(-1)}, 6)
    lhs = (a * b).substitute_q_power(3)
    rhs = a.substitute_q_power(3) * b.substitute_q_power(3)
    assert lhs.same_series(rhs)


def test_ring_axioms_on_samples():
    a = PuiseuxSeries(2, {-1: F(1), 0: F(2), 3: F(-1)}, 4)
    b = PuiseuxSeries(3, {0: F(1), 1: F(1, 2)}, 4)
    c = PuiseuxSeries(1, {0: F(-3), 2: F(5)}, 4)
    assert ((a + b) + c).same_series(a + (b + c))
    assert (a * b).same_series(b * a)
    assert ((a * b) * c).same_series(a * (b * c))
    assert (a * (b + c)).same_series(a * b + a * c)


def test_ord_additive_under_mul():
    a = PuiseuxSeries.monomial(2, F(-1, 3), 5)
    b = PuiseuxSeries(2, {1: F(1), 5: F(7)}, 5)
    assert (a * b).ord() == a.ord() + b.ord()


def test_two_pi_i_power_bookkeeping():
    a = PuiseuxSeries.monomial(1, 1, 5, two_pi_i_power=4)
    b = PuiseuxSeries.monomial(2, 0, 5, two_pi_i_power=6)
    assert (a * b).two_pi_i_power == 10
    assert a.inverse().two_pi_i_power == -4
    assert (a**3).two_pi_i_power == 12


def test_division_by_scalar_and_by_series():
    from modunits.cycloq import e_of

    a = PuiseuxSeries(2, {-1: F(2), 0: F(1), 3: F(-4)}, 4, 2)
    z = e_of(F(1, 3))
    for c in (3, F(-2, 7), z):
        assert a / c == a.scaled(Cyclotomic.from_rational(1) / c)
    b = PuiseuxSeries(3, {1: F(1), 2: z}, 4, 1)
    q = a / b
    assert q == a * b.inverse()
    assert q.two_pi_i_power == 1
    assert (q * b).same_series(a)


def test_equality_compares_tag_trunc_and_terms_on_any_lattice():
    a = PuiseuxSeries(6, {0: F(1), 3: F(2)}, 2)
    assert a == PuiseuxSeries(2, {0: F(1), 1: F(2)}, 2)
    assert a != PuiseuxSeries(2, {0: F(1), 1: F(2)}, 3)
    assert a != PuiseuxSeries(2, {0: F(1), 1: F(3)}, 2)
    assert a != PuiseuxSeries(2, {0: F(1)}, 2)
    assert a != PuiseuxSeries(2, {0: F(1), 1: F(2)}, 2, 1)


def test_scalar_subtraction_keeps_the_tag():
    from modunits.cycloq import e_of

    a = PuiseuxSeries(2, {-1: F(2), 0: F(1)}, 3, 2)
    z = e_of(F(1, 4))
    assert a - 1 == PuiseuxSeries(2, {-1: F(2)}, 3, 2)
    assert a - z == PuiseuxSeries(2, {-1: F(2), 0: 1 - z}, 3, 2)
    assert 1 - a == -(a - 1)


@pytest.mark.parametrize("c", [1, -1, F(3, 5), "zeta3"])
@pytest.mark.parametrize("e", [F(1, 3), 2, F(5, 2)])
@pytest.mark.parametrize("m", [-3, -1, 0, 2, 5])
def test_family_factor_is_the_binomial_series(c, e, m):
    """(1 - c q^e)^m = sum_j C(m, j) (-c)^j q^(je), C(m, j) for m < 0 by (-1)^j C(-m + j - 1, j)."""
    from math import comb

    from modunits.cycloq import e_of

    c = e_of(F(1, 3)) if c == "zeta3" else Cyclotomic.from_rational(c)
    e, trunc = F(e), F(23, 3)
    terms, j = {}, 0
    while j * e < trunc:
        binomial = comb(m, j) if m >= 0 else (-1) ** j * comb(-m + j - 1, j)
        terms[j * e.numerator] = (-c) ** j * binomial
        j += 1
    assert product_family([(c, e, m)], trunc) == PuiseuxSeries(e.denominator, terms, trunc)


def test_coefficient_beyond_trunc_rejected():
    with pytest.raises(TruncationError):
        PuiseuxSeries.one(3).coefficient(3)


def pentagonal_oracle(trunc):
    # brute-force convolution of (1-q)(1-q^2)...(1-q^(trunc-1))
    coeffs = {0: 1}
    for n in range(1, trunc):
        new = dict(coeffs)
        for k, c in coeffs.items():
            if k + n < trunc:
                new[k + n] = new.get(k + n, 0) - c
        coeffs = {k: c for k, c in new.items() if c}
    return coeffs


def test_euler_product_pentagonal_numbers():
    series = product_family([(1, n, 1) for n in range(1, 10)], 10)
    expected = pentagonal_oracle(10)
    for k in range(10):
        assert series.coefficient(k) == expected.get(k, 0)


def test_empty_family_is_one():
    assert product_family([], 5).same_series(PuiseuxSeries.one(5))


def test_vanishing_factor_rejected():
    with pytest.raises(ZeroDivisionError):
        product_family([(1, 0, 1)], 5)


def test_negative_multiplicity_family():
    # (1-q)^(-1) is the geometric series
    series = product_family([(1, 1, -1)], 8)
    assert series.same_series(geometric(8))


def test_json_round_trip():
    from modunits.cycloq import e_of

    s = PuiseuxSeries(8, {-3: e_of(F(1, 3)), 5: Cyclotomic.from_rational(F(7, 2))}, F(9, 2), 2)
    back = PuiseuxSeries.from_json(s.to_json())
    assert back.same_series(s)
    assert back.trunc == s.trunc
    assert back.two_pi_i_power == s.two_pi_i_power


def test_evaluate_does_not_depend_on_insertion_order():
    terms = {k: Cyclotomic(7, [F(k, 3), F(1, k + 9), -1]) for k in range(-4, 30)}
    forward = PuiseuxSeries(6, terms, 6)
    backward = PuiseuxSeries(6, dict(reversed(list(terms.items()))), 6)
    assert forward == backward
    for tau in (0.1 + 0.8j, -0.37 + 1.3j):
        assert forward.evaluate(tau) == backward.evaluate(tau)


# The series kernels (Kronecker product, Newton inverse) against reference oracles: the
# term-by-term loop and the coefficient recurrence, in Cyclotomic arithmetic.


def pairwise_product(a, b):
    """a * b term by term, with the truncation rule of PuiseuxSeries.__mul__."""
    d = lcm(a.denom, b.denom)
    trunc = min(a.trunc + b.ord(), b.trunc + a.ord())
    out = {}
    for ka, ca in a.terms.items():
        for kb, cb in b.terms.items():
            k = ka * (d // a.denom) + kb * (d // b.denom)
            if k < trunc * d:
                out[k] = out[k] + ca * cb if k in out else ca * cb
    return PuiseuxSeries(d, out, trunc, a.two_pi_i_power + b.two_pi_i_power)


def recurrence_inverse(s):
    """1/s coefficient by coefficient, b_k = -(sum_(j>0) a_j b_(k-j)) / a_0, with the
    truncation rule of PuiseuxSeries.inverse."""
    v = min(s.terms)
    a = {k - v: c for k, c in s.terms.items()}
    a0_inv = a[0].inverse()
    b = {0: a0_inv}
    for k in range(1, ceil(s.trunc * s.denom - v)):
        acc = sum((a[j] * b[k - j] for j in a if 0 < j <= k and k - j in b), Cyclotomic.zero())
        if not acc.is_zero():
            b[k] = -(acc * a0_inv)
    trunc = s.trunc - 2 * F(v, s.denom)
    return PuiseuxSeries(s.denom, {k - v: c for k, c in b.items()}, trunc, -s.two_pi_i_power)


def rational(bits):
    return st.builds(F, st.integers(-(2**bits), 2**bits), st.integers(1, 2 ** min(bits, 64)))


@st.composite
def cyclotomic(draw, order, bits):
    """A sparse element of Q(zeta_order): at most three nonzero coordinates, so the oracles'
    term-by-term products stay fast."""
    coords = [F(0)] * order
    for _ in range(draw(st.integers(1, 3))):
        coords[draw(st.integers(0, order - 1))] = draw(rational(bits))
    return Cyclotomic(order, coords)


@st.composite
def series(draw, orders, bits=200, steps=60, span=48):
    """A series on denom 1..12 with Laurent keys in -8..-8+span, known up to 1..steps lattice
    steps past its lowest key (a trunc on or off the lattice), with coefficients of the field
    orders given (1 is rational) and coordinates up to 2^bits."""
    denom = draw(st.integers(1, 12))
    keys = draw(st.lists(st.integers(-8, -8 + span), min_size=1, max_size=7, unique=True))
    terms = {}
    for k in keys:
        order = draw(st.sampled_from(orders))
        terms[k] = draw(rational(bits)) if order == 1 else draw(cyclotomic(order, bits))
    known = F(draw(st.integers(1, steps)), draw(st.integers(1, 3)))
    return PuiseuxSeries(denom, terms, (min(keys) + known) / denom)


# One field Q(zeta_M), M <= 60; rationals; and mixes of field orders, as {5, 35} x {7} and
# {8, 24} x {8, 24}.
field_orders = st.one_of(
    st.just([1]),
    st.integers(3, 60).map(lambda m: [m]),
    st.integers(3, 60).map(lambda m: [1, m]),
    st.sampled_from([[5], [7], [5, 35], [1, 5, 35], [8, 24], [1, 4, 12], [3, 4]]),
)
operand = field_orders.flatmap(series)
# Inverse coefficients grow in height with every step, so invertible operands are shorter and
# narrower.  Their leading coefficients invert in milliseconds at any width, but Newton's products
# over one common denominator grow with it: on a two-term series over Q(zeta_23) with 240-bit
# numerators, 20 steps of Newton take about ten times as long as the recurrence.
invertible = field_orders.flatmap(lambda orders: series(orders, bits=16, steps=30)).filter(
    lambda s: not s.is_zero()
)


@settings(max_examples=80, deadline=None)
@given(operand, operand)
def test_kernel_product_matches_pairwise(a, b):
    assert (a * b).to_json() == pairwise_product(a, b).to_json()


@settings(max_examples=60, deadline=None)
@given(operand)
def test_kernel_square_matches_pairwise(a):
    assert (a * a).to_json() == pairwise_product(a, a).to_json()


@settings(max_examples=60, deadline=None)
@given(invertible)
def test_newton_inverse_matches_recurrence(a):
    # Compared on the stored form, as to_json would: their coefficients can pass the 4300 digits
    # str() converts.
    inv, ref = a.inverse(), recurrence_inverse(a)
    assert (inv.denom, inv.trunc, inv.two_pi_i_power, inv.terms) == (
        ref.denom, ref.trunc, ref.two_pi_i_power, ref.terms
    )
    prod = a * inv
    assert prod.trunc == a.trunc - a.ord()
    assert (prod - 1).is_zero()


@settings(max_examples=30, deadline=None)
@given(operand, st.integers(1, 6))
def test_power_is_repeated_product(a, n):
    assert (a**n).to_json() == reduce(mul, [a] * n).to_json()


@pytest.mark.parametrize("bits", [1, 7, 8, 9, 64, 200])
@pytest.mark.parametrize("order", [1, 12, 35])
def test_slots_at_their_bound(bits, order):
    # Every coordinate is +-(2^b - 1): each output field of a square of the all-positive
    # series sums min(#A, #B)*phi products of the largest size, its proven bound.
    big = 2**bits - 1
    for sign in (1, -1):
        coeff = Cyclotomic(order, [sign * big] * euler_phi(order))
        a = PuiseuxSeries(2, {k: coeff for k in range(0, 8)}, 4)
        b = PuiseuxSeries(2, {k: coeff * (-1) ** k for k in range(1, 9)}, 5)
        expected = [pairwise_product(a, a).to_json(), pairwise_product(a, b).to_json()]
        assert [(a * a).to_json(), (a * b).to_json()] == expected


def test_terms_past_the_product_trunc_do_not_enter_the_kernel():
    # a's q^5 lies at the product's trunc and off the lattice 2Z of the keys below it.
    a = PuiseuxSeries(1, {0: 1, 2: 1, 5: 1}, 10)
    b = PuiseuxSeries(1, {0: 1, 2: 1}, 5)
    assert (a * b).to_json() == pairwise_product(a, b).to_json()
    assert [(a * b).coefficient(k) for k in range(5)] == [1, 0, 2, 0, 1]


def test_high_truncation_inverse_and_powers():
    s = PuiseuxSeries(3, {0: 1, 2: -1, 7: Cyclotomic(9, [0, 1])}, 100)
    inv = s.inverse()
    assert (s * inv - 1).is_zero()
    assert ((s**3) * inv**3 - 1).is_zero()


# Series led by lambda*e(t) are powered and inverted over the field of e(-t) times the series.


def pairwise_power(a, n):
    """a**n by binary powering on pairwise_product, through recurrence_inverse for n < 0."""
    if n == 0:
        return PuiseuxSeries.one(a.trunc - a.ord())
    if n < 0:
        a, n = recurrence_inverse(a), -n
    result = None
    while n:
        if n & 1:
            result = a if result is None else pairwise_product(result, a)
        n >>= 1
        if n:
            a = pairwise_product(a, a)
    return result


def led_by(s, lead):
    """s with its lowest term (or, for the zero series, the last key below trunc) set to lead."""
    v = min(s.terms) if s.terms else ceil(s.trunc * s.denom) - 1
    return PuiseuxSeries(s.denom, {**s.terms, v: lead}, s.trunc)


@st.composite
def unit_led(draw):
    """A series whose lowest coefficient is lambda*e(t), lambda rational of either sign and den t
    at most 60; the other coefficients as in ``operand``, fewer and smaller.  Powers up to the
    144th of coefficients in a field of degree above 24 make the oracles too slow."""
    orders = draw(field_orders.filter(lambda orders: euler_phi(lcm(*orders)) <= 24))
    s = draw(series(orders, bits=4, steps=12, span=12))
    m = lcm(*orders)
    den = draw(st.sampled_from([d for d in range(1, 61) if euler_phi(lcm(m, d)) <= 24]))
    lam = draw(rational(4).filter(bool))
    return led_by(s, e_of(F(draw(st.integers(0, den - 1)), den)) * lam)


@settings(max_examples=60, deadline=None)
@given(unit_led(), st.integers(-144, 144))
def test_unit_led_power_matches_pairwise(a, n):
    assert (a**n).to_json() == pairwise_power(a, n).to_json()


@settings(max_examples=60, deadline=None)
@given(unit_led())
def test_unit_led_inverse_matches_recurrence(a):
    assert a.inverse().to_json() == recurrence_inverse(a).to_json()


def test_power_of_the_zero_series():
    zero = PuiseuxSeries.zero(F(5, 2))
    for n in (1, 2, 3, 144):
        assert (zero**n).to_json() == pairwise_power(zero, n).to_json()
        assert (zero**n).is_zero()


@pytest.mark.parametrize("lead", [e_of(F(5, 12)) * F(-3, 2), e_of(F(1, 7)), F(2, 3)])
def test_single_term_powers_and_inverse(lead):
    a = PuiseuxSeries.monomial(lead, F(-1, 3), 4, two_pi_i_power=1)
    for n in (-144, -5, -1, 0, 1, 2, 7, 144):
        assert (a**n).to_json() == pairwise_power(a, n).to_json()
    assert a.inverse().to_json() == recurrence_inverse(a).to_json()


@pytest.mark.parametrize("lead", [1 + e_of(F(1, 5)), F(3, 5) + F(4, 5) * e_of(F(1, 4))])
def test_units_that_are_no_root_of_unity_multiple(lead):
    # 1 + zeta_5 and (3 + 4i)/5 are units but no rational multiple of a root of unity: the
    # kernel runs on the series as given.
    assert unit_angle(lead) is None
    a = led_by(PuiseuxSeries(2, {1: e_of(F(1, 3)), 4: F(5, 2), 7: 1}, 6), lead)
    for n in (-3, -1, 2, 5):
        assert (a**n).to_json() == pairwise_power(a, n).to_json()
    assert a.inverse().to_json() == recurrence_inverse(a).to_json()


def test_kernel_outputs_are_built_through_init(monkeypatch):
    # Counters that wrap Cyclotomic.__init__, as the benchmark tracer's largest field order and
    # coordinate bits do, must see every coefficient the power and inverse kernels return.
    seen = []
    init = Cyclotomic.__init__

    def spy(self, *args, **kwargs):
        init(self, *args, **kwargs)
        seen.append(self)

    monkeypatch.setattr(Cyclotomic, "__init__", spy)
    g = siegel_function(FracVector(F(1, 12), F(5, 12)), 2)
    results = [g**144, g**-144, g.inverse()]
    built = {id(c) for c in seen}
    assert all(id(c) in built for s in results for c in s.terms.values())
    assert max(c.order for c in seen) == 288
