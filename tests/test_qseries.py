from fractions import Fraction as F

import pytest

from modunits.classical import eta
from modunits.cycloq import Cyclotomic
from modunits.qseries import PuiseuxSeries, TruncationError, WeightMismatchError, product_family


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
