from fractions import Fraction as F
from math import gcd

import pytest

from modunits.cusps import (
    Cusp,
    cusp_count,
    divisor_of_siegel_power,
    enumerate_cusps,
    gamma_for_cusp,
    rational_rank,
    siegel_index_vectors,
    unit_group_rank,
)
from modunits.units import FracVector, GammaMatrix, bernoulli2, frac_part, transform_vector


@pytest.mark.parametrize("N,count", [(2, 3), (3, 4), (4, 6), (5, 12), (6, 12), (8, 24), (12, 48)])
def test_cusp_count_formula(N, count):
    assert cusp_count(N) == count


def test_cusp_count_rejects_small_level():
    with pytest.raises(ValueError):
        cusp_count(1)


@pytest.mark.parametrize("N", range(2, 25))
def test_enumeration_matches_formula(N):
    assert len(enumerate_cusps(N)) == cusp_count(N)


def test_level_2_classes():
    reps = {(c.a, c.c) for c in enumerate_cusps(2)}
    assert reps == {(1, 0), (0, 1), (1, 1)}


@pytest.mark.parametrize("N", [2, 3, 4, 7, 12])
def test_enumerated_pairs_are_primitive(N):
    for c in enumerate_cusps(N):
        assert gcd(gcd(c.a, c.c), N) == 1


@pytest.mark.parametrize("N", [2, 3, 5, 8])
def test_gamma_lift_hits_the_cusp(N):
    for c in enumerate_cusps(N):
        g = gamma_for_cusp(c)
        assert (g.a - c.a) % N == 0
        assert (g.c - c.c) % N == 0
        assert g.a * g.d - g.b * g.c == 1


class TestDivisor:
    @pytest.mark.parametrize("N", [2, 3, 4, 5])
    def test_degree_zero(self, N):
        for v in siegel_index_vectors(N):
            assert divisor_of_siegel_power(v, N).degree() == 0

    def test_entry_at_infinity(self):
        v = FracVector(F(1, 2), 0)
        div = divisor_of_siegel_power(v, 2)
        assert div.entries[Cusp(1, 0, 2)] == -1

    def test_independent_of_coset_representative(self):
        """The closed-form entries equal 6N*B2(<r>) of v moved by any lift of the cusp."""
        for N in range(2, 13):
            # other lifts of the same class: compose with elements of Gamma(N) and -I
            deltas = (GammaMatrix(1, N, 0, 1), GammaMatrix(1, 0, N, 1), GammaMatrix(-1, 0, 0, -1))
            for v in siegel_index_vectors(N):
                div = divisor_of_siegel_power(v, N)
                for cusp in enumerate_cusps(N):
                    g1 = gamma_for_cusp(cusp)
                    for g in (g1, *(delta @ g1 for delta in deltas)):
                        assert div.entries[cusp] == 6 * N * bernoulli2(frac_part(transform_vector(g, v).r))

    def test_invariant_under_negation_and_translation(self):
        N = 3
        v = FracVector(F(1, 3), F(2, 3))
        base = divisor_of_siegel_power(v, N)
        for other in (-v, FracVector(v.r + 1, v.s - 2)):
            moved = divisor_of_siegel_power(other, N)
            assert moved.entries == base.entries

    def test_wrong_level_rejected(self):
        with pytest.raises(ValueError):
            divisor_of_siegel_power(FracVector(F(1, 3), 0), 2)


def test_rational_rank_on_known_matrix():
    rows = [
        [F(1), F(2), F(3)],
        [F(2), F(4), F(6)],
        [F(0), F(1), F(1)],
    ]
    assert rational_rank(rows) == 2


@pytest.mark.parametrize("N,rank", [(2, 2), (3, 3), (4, 5), (5, 11), (6, 11)])
def test_unit_group_rank_is_cusps_minus_one(N, rank):
    assert cusp_count(N) - 1 == rank
    assert unit_group_rank(N) == rank
