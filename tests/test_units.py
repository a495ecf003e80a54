import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from modunits import qseries, units
from modunits.classical import eta
from modunits.cycloq import Cyclotomic, e_of
from modunits.qseries import PuiseuxSeries, product_family
from modunits.units import (
    FracVector,
    GammaMatrix,
    bernoulli2,
    g14,
    h1N,
    hN,
    klein_form_0_half,
    siegel_function,
    siegel_power_ord,
    transform_vector,
    weierstrass_unit,
    wp_expansion,
    wp_lattice_sum,
)


@pytest.mark.parametrize(
    "x,value",
    [(0, F(1, 6)), (F(1, 2), F(-1, 12)), (F(1, 4), F(-1, 48)), (1, F(1, 6))],
)
def test_bernoulli2(x, value):
    assert bernoulli2(x) == value


class TestSiegelFunction:
    def test_order_half_half(self):
        s = siegel_function(FracVector(F(1, 2), F(1, 2)), 2)
        assert s.ord() == F(-1, 24)

    def test_order_and_leading_coeff_zero_half(self):
        s = siegel_function(FracVector(0, F(1, 2)), 2)
        assert s.ord() == F(1, 12)
        # prefactor -e(s(r-1)/2) = -e(-1/4) times the constant factor (1 - e(1/2))
        expected = -e_of(F(-1, 4)) * (1 - e_of(F(1, 2)))
        assert s.coefficient(F(1, 12)) == expected

    def test_order_quarter(self):
        s = siegel_function(FracVector(F(1, 4), 0), 1)
        assert s.ord() == F(-1, 96)
        assert s.ord() == bernoulli2(F(1, 4)) / 2

    @pytest.mark.parametrize("r, trunc", [(F(1, 3), -1), (F(1, 3), F(-1, 36)), (F(1, 4), F(-1, 96)), (0, 0)])
    def test_empty_at_or_below_its_leading_exponent(self, r, trunc):
        s = siegel_function(FracVector(r, F(1, 5)), trunc)
        assert s.is_zero() and s.trunc == trunc
        assert s.denom == siegel_function(FracVector(r, F(1, 5)), 2).denom  # on its own lattice

    def test_integral_vector_rejected(self):
        with pytest.raises(ValueError):
            siegel_function(FracVector(0, 1), 2)

    def test_out_of_range_r_rejected(self):
        with pytest.raises(ValueError):
            siegel_function(FracVector(F(3, 2), 0), 2)

    @pytest.mark.parametrize("N", [2, 3, 4, 5, 6, 7, 8, 12])
    def test_matches_product_form(self, N):
        """-e(s(r-1)/2) q^(B2(r)/2) (1 - w) prod_{n>=1} (1 - q^n w)(1 - q^n/w), w = q^r e(s)."""
        for i in range(N):
            for j in range(N):
                if i == 0 and j == 0:
                    continue
                r, s = F(i, N), F(j, N)
                for trunc in (2, F(17, 11)):  # on the exponent lattice, and off it
                    lead = bernoulli2(r) / 2
                    rel = trunc - lead
                    factors = [(e_of(s), r, 1)]  # at r = 0 this is the constant 1 - e(s)
                    for n in range(1, int(rel) + 2):
                        factors += [(e_of(s), n + r, 1), (e_of(-s), n - r, 1)]
                    expected = PuiseuxSeries.monomial(-e_of(s * (r - 1) / 2), lead, trunc) * product_family(
                        factors, rel
                    )
                    assert siegel_function(FracVector(r, s), trunc).to_json() == expected.to_json(), (r, s, trunc)

    def test_no_generic_product(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("product_family called")

        monkeypatch.setattr(qseries, "product_family", refuse)
        monkeypatch.setattr(units, "product_family", refuse)
        v = FracVector(F(1, 5), F(2, 7))
        siegel_function(v, 3)
        g14(6)
        klein_form_0_half(4)
        siegel_function(v, 2) ** 60

    def test_powers_run_over_the_unit_free_field(self, monkeypatch):
        # g[1/12, 5/12] lies in Q(zeta_288), but -e(s(r-1)/2) times it in Q(zeta_12): every
        # kernel product of its powers and inverses runs there.
        fields = []
        kron_mul = qseries._kron_mul

        def spy(xa, xb, n, M):
            fields.append(M)
            return kron_mul(xa, xb, n, M)

        monkeypatch.setattr(qseries, "_kron_mul", spy)
        g = siegel_function(FracVector(F(1, 12), F(5, 12)), 2)
        # The build, too, multiplies theta[r - 1/2; s + 1/2] by 1/eta before it rotates by its phase.
        assert fields and all(12 % M == 0 for M in fields), sorted(set(fields))
        assert max(c.order for c in g.terms.values()) == 288
        for n in (144, -144):
            fields.clear()
            assert (g**n).ord() == n * g.ord()
            assert fields and all(12 % M == 0 for M in fields), sorted(set(fields))


class TestSiegelPowerOrd:
    def test_half_half_level_2(self):
        assert siegel_power_ord(FracVector(F(1, 2), F(1, 2)), 2) == -1

    def test_zero_half_level_2(self):
        assert siegel_power_ord(FracVector(0, F(1, 2)), 2) == 2

    @pytest.mark.parametrize("N", [2, 3, 4])
    def test_consistency_with_series_order(self, N):
        for i in range(N):
            for j in range(N):
                if i == 0 and j == 0:
                    continue
                v = FracVector(F(i, N), F(j, N))
                s = siegel_function(v, bernoulli2(v.r) / 2 + 1)
                assert 12 * N * s.ord() == siegel_power_ord(v, N)


class TestTransformVector:
    def test_identity(self):
        v = FracVector(F(1, 3), F(2, 5))
        assert transform_vector(GammaMatrix(1, 0, 0, 1), v) == v

    def test_inversion_matrix(self):
        v = FracVector(0, F(1, 2))
        moved = transform_vector(GammaMatrix(0, -1, 1, 0), v)
        assert moved == FracVector(F(1, 2), 0)

    def test_transpose_convention_composes(self):
        g1 = GammaMatrix(1, 2, 1, 3)
        g2 = GammaMatrix(2, 1, 5, 3)
        v = FracVector(F(1, 4), F(3, 8))
        assert transform_vector(g1 @ g2, v) == transform_vector(g2, transform_vector(g1, v))

    def test_determinant_enforced(self):
        with pytest.raises(ValueError):
            GammaMatrix(1, 1, 1, 1)


class TestKleinForm:
    def test_weight_tag(self):
        assert klein_form_0_half(3).two_pi_i_power == -1

    def test_order_zero(self):
        assert klein_form_0_half(3).ord() == 0

    def test_inverse_round_trip(self):
        k = klein_form_0_half(6)
        assert (k * k.inverse() - 1).is_zero()

    @pytest.mark.parametrize("trunc", [F(1, 3), 1, F(7, 2), 6, F(41, 5), 20])
    def test_equals_siegel_over_eta_squared(self, trunc):
        """Gauss's product against the definition g_(0,1/2) / eta^2, on the exponent lattice and off it."""
        pad = trunc + 1
        g = siegel_function(FracVector(0, F(1, 2)), pad) * eta(pad) ** -2
        assert klein_form_0_half(trunc) == g.truncated_to(trunc).with_two_pi_i_power(-1)


def wp_term_by_term(v: FracVector, trunc) -> PuiseuxSeries:
    """wp_expansion as it was built before its coefficients became integer rows: one Cyclotomic
    product and one sum per term, from a table of the powers of e(s)."""
    v = v.reduced_mod_1()
    r, s = v.r, v.s
    trunc = F(trunc)
    D, a = r.denominator, r.numerator
    bound = trunc * D
    terms = {0: Cyclotomic.from_rational(F(1, 12))}
    zeta = e_of(s)
    powers = [Cyclotomic.one()]
    while len(powers) < s.denominator:
        powers.append(powers[-1] * zeta)

    def add_geometric(step, sign, scale=1):
        k = 1
        while k * step < bound:
            c = powers[sign * k % len(powers)] * (scale * k)
            terms[k * step] = terms[k * step] + c if k * step in terms else c
            k += 1

    if r == 0:
        terms[0] = terms[0] + zeta / (Cyclotomic.one() - zeta) ** 2
    else:
        add_geometric(a, 1)
    n = 1
    while n - r < trunc:
        add_geometric(n * D + a, 1)
        add_geometric(n * D - a, -1)
        add_geometric(n * D, 0, -2)
        n += 1
    g = math.gcd(D, *terms)
    return PuiseuxSeries(D // g, {k // g: c for k, c in terms.items()}, trunc, two_pi_i_power=2)


@st.composite
def wp_indices(draw):
    """(r, s, trunc): r = a/D and s = b/S with D, S <= 12, r = 0 among them, and a trunc on or off
    the exponent lattice."""
    D, S = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    r, s = F(draw(st.integers(0, D - 1)), D), F(draw(st.integers(0, S - 1)), S)
    assume(r or s)
    trunc = F(draw(st.integers(1, 8 * D)), D) + draw(st.sampled_from([0, F(1, 7 * D)]))
    return r, s, trunc


class TestWpExpansion:
    @settings(max_examples=120, deadline=None)
    @given(wp_indices())
    def test_matches_the_term_by_term_construction(self, index):
        r, s, trunc = index
        v = FracVector(r, s)
        assert wp_expansion(v, trunc).to_json() == wp_term_by_term(v, trunc).to_json()

    def test_even_in_the_index(self):
        v = FracVector(F(1, 5), F(2, 5))
        a = wp_expansion(v, 6)
        b = wp_expansion(-v, 6)
        assert a.first_mismatch(b) is None

    def test_weight_tag(self):
        assert wp_expansion(FracVector(F(1, 4), 0), 4).two_pi_i_power == 2

    @pytest.mark.parametrize(
        "r,s",
        [(F(1, 4), F(0)), (F(0), F(1, 3)), (F(1, 5), F(1, 5)), (F(1, 2), F(1, 2))],
    )
    def test_matches_lattice_sum_oracle(self, r, s):
        v = FracVector(r, s)
        tau = 2j
        series_value = wp_expansion(v, 25).evaluate(tau)
        lattice_value = wp_lattice_sum(v, tau)
        assert abs(series_value - lattice_value) < 1e-8

    def test_integral_vector_rejected(self):
        with pytest.raises(ValueError):
            wp_expansion(FracVector(2, -1), 4)


class TestWeierstrassUnit:
    def test_h14_is_minus_one(self):
        series = weierstrass_unit(
            FracVector(0, F(1, 4)),
            FracVector(0, F(1, 2)),
            FracVector(0, F(1, 2)),
            FracVector(0, F(1, 4)),
            5,
        )
        assert (series + 1).is_zero()

    def test_weight_zero(self):
        assert h1N(5, 4).two_pi_i_power == 0

    def test_degenerate_pair_rejected(self):
        with pytest.raises(ValueError):
            weierstrass_unit(
                FracVector(0, F(1, 4)),
                FracVector(0, F(3, 4)),  # congruent to -(0, 1/4)
                FracVector(0, F(1, 2)),
                FracVector(0, F(1, 4)),
                5,
            )

    def test_h18_matches_numeric_evaluation(self):
        tau = 2j
        series_value = h1N(8, 20).evaluate(tau)
        def wp(r, s):
            return wp_lattice_sum(FracVector(r, s), tau)
        numeric = (wp(0, F(1, 8)) - wp(0, F(1, 2))) / (wp(0, F(1, 2)) - wp(0, F(1, 4)))
        assert abs(series_value - numeric) < 1e-8

    def test_hN_matches_numeric_evaluation(self):
        tau = 0.3 + 1.1j
        series_value = hN(6, 20).evaluate(tau)
        def wp(r, s):
            return wp_lattice_sum(FracVector(r, s), tau)
        numeric = (wp(F(1, 6), 0) - wp(0, F(1, 2))) / (wp(0, F(1, 2)) - wp(0, F(1, 4)))
        assert abs(series_value - numeric) < 1e-8

    def test_keeps_the_requested_truncation(self):
        # ord(p_v - p_w) <= 1/2 for non-congruent pairs, so the pad of 2 covers the inverse.
        rng = random.Random(24)
        for _ in range(12):
            n = rng.randint(2, 6)
            while True:
                vs = [FracVector(F(rng.randrange(n), n), F(rng.randrange(n), n)) for _ in range(4)]
                if not any(v.is_integral() for v in vs) and not any(
                    units._congruent_up_to_sign(a, b) for a, b in (vs[:2], vs[2:])
                ):
                    break
            trunc = F(rng.randint(1, 5 * n), n) + rng.choice([0, F(1, 3 * n)])
            assert weierstrass_unit(*vs, trunc).trunc == trunc

    def test_cyclotomic_order_divides_twice_index_lcm(self):
        series = h1N(5, 6)
        for e in series.exponents():
            assert 20 % series.coefficient(e).order == 0


class TestG14:
    @pytest.mark.parametrize("trunc", [F(1, 2), 1, F(7, 4), 3, F(47, 5), 18])
    def test_equals_the_two_powers_at_a_wider_truncation(self, trunc):
        """One 8th power of the quotient at trunc/4 + 1/4 against a -8th and an 8th power at trunc/4 + 2."""
        rel = trunc / 4 + 2
        a = siegel_function(FracVector(F(1, 4), 0), rel).substitute_q_power(4) ** -8
        b = siegel_function(FracVector(F(1, 2), 0), rel).substitute_q_power(4) ** 8
        assert g14(trunc).to_json() == (a * b).truncated_to(trunc).to_json()

    def test_order_minus_one(self):
        g = g14(5)
        assert g.ord() == -1
        assert g.coefficient(-1) == 1

    def test_minus_16_equals_eta_quotient(self):
        g = g14(25)
        eta1 = eta(30)
        eta4 = eta(8).substitute_q_power(4)
        quotient = eta1**8 * eta4 ** (-8)
        assert (g - 16).truncated_to(20).first_mismatch(quotient.truncated_to(20)) is None

    def test_equals_16_theta_quotient(self):
        from modunits.classical import theta_classical

        g = g14(25)
        t3 = theta_classical(3, 14).substitute_q_power(2)
        t2 = theta_classical(2, 14).substitute_q_power(2)
        rhs = (t3**4 * (t2**4).inverse()).scaled(16)
        assert g.truncated_to(20).first_mismatch(rhs.truncated_to(20)) is None
