from fractions import Fraction as F
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modunits.cusps import (
    Cusp,
    DivisorVector,
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


@pytest.mark.parametrize("N", [-3, 0, 1])
def test_small_levels_raise_value_error(N):
    with pytest.raises(ValueError):
        enumerate_cusps(N)
    with pytest.raises(ValueError):
        unit_group_rank(N)
    with pytest.raises(ValueError):
        divisor_of_siegel_power(FracVector(F(1, 2), F(1, 3)), N)


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


@pytest.mark.parametrize("N", range(2, 25))
def test_gamma_lift_of_every_cusp_and_its_other_representatives(N):
    for cusp in enumerate_cusps(N):
        a, c = cusp.a, cusp.c
        for lifted in (cusp, Cusp(-a, -c, N), Cusp(a - N, c + 2 * N, N)):
            g = gamma_for_cusp(lifted)
            assert g.a * g.d - g.b * g.c == 1
            assert (g.a - lifted.a) % N == 0 and (g.c - lifted.c) % N == 0


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


class TestDivisorRow:
    """A divisor is N times its orders in enumeration order; entries is a dict built from them."""

    def test_entries_follow_the_row_in_enumeration_order(self):
        div = divisor_of_siegel_power(FracVector(F(1, 6), F(1, 3)), 6)
        assert list(div.entries) == enumerate_cusps(6)
        assert list(div.entries.items()) == [(c, F(m, 6)) for c, m in zip(enumerate_cusps(6), div.orders)]
        assert len(div.entries) == len(div.orders) == cusp_count(6)
        assert div.degree() == F(sum(div.orders), 6) == 0

    def test_any_integer_row_is_a_divisor(self):
        div = DivisorVector(3, [1, 0, 0, 5])
        assert div.degree() == 2 and div.entries[Cusp(0, 1, 3)] == F(1, 3) and div.entries[Cusp(1, 2, 3)] == F(5, 3)
        with pytest.raises(ValueError, match="4 orders, got 3"):
            DivisorVector(3, [1, 0, 0]).entries

    def test_pair_index_gives_the_same_divisor(self):
        assert divisor_of_siegel_power((F(1, 4), F(-1, 2)), 4) == divisor_of_siegel_power(FracVector(F(1, 4), F(-1, 2)), 4)


def brute_cusps(N):
    """(a, c) mod N with gcd(a, c, N) = 1, each class under +-1 by its smaller pair, sorted."""
    reps = set()
    for a in range(N):
        for c in range(N):
            if gcd(gcd(a, c), N) == 1:
                reps.add(min((a, c), ((-a) % N, (-c) % N)))
    return sorted(reps)


@pytest.mark.parametrize("N", range(2, 61))
def test_enumeration_matches_brute_force(N):
    assert [(c.a, c.c, c.level) for c in enumerate_cusps(N)] == [(a, c, N) for a, c in brute_cusps(N)]


def test_enumeration_returns_a_fresh_list():
    first = enumerate_cusps(12)
    first.reverse()
    first.append(Cusp(1, 5, 7))
    assert [(c.a, c.c) for c in enumerate_cusps(12)] == brute_cusps(12)
    assert enumerate_cusps(12) is not enumerate_cusps(12)


@pytest.mark.parametrize("N", [2, 3, 4, 7, 12])
def test_index_vectors_are_one_per_sign_class(N):
    pairs = [(v.r * N, v.s * N) for v in siegel_index_vectors(N)]
    brute = sorted({min((i, j), ((-i) % N, (-j) % N)) for i in range(N) for j in range(N)} - {(0, 0)})
    assert pairs == brute


@st.composite
def level_and_index(draw):
    """A level N in 2..60 and v = (i/d, j/N), numerators in -2N..2N, d = N or a nearby denominator."""
    N = draw(st.integers(2, 60))
    i, j = (draw(st.integers(-2 * N, 2 * N)) for _ in range(2))
    d = draw(st.sampled_from([N, N, N, 1, 2 * N, N + 1]))
    return N, FracVector(F(i, d), F(j, N))


@settings(max_examples=150, deadline=None)
@given(level_and_index())
def test_divisor_equals_bernoulli_formula(case):
    """Every entry is 6N*B2(<a*r + c*s>) computed in Fractions, over the brute-force cusps."""
    N, v = case
    if (v.r * N).denominator != 1:
        with pytest.raises(ValueError, match="does not lie in"):
            divisor_of_siegel_power(v, N)
        return
    if v.r.denominator == 1 and v.s.denominator == 1:
        with pytest.raises(ValueError, match="outside Z"):
            divisor_of_siegel_power(v, N)
        return
    div = divisor_of_siegel_power(v, N)
    expected = {}
    for a, c in brute_cusps(N):
        x = (a * v.r + c * v.s) % 1
        expected[(a, c)] = 6 * N * (x * x - x + F(1, 6))
    assert div.level == N
    assert {(c.a, c.c): m for c, m in div.entries.items()} == expected
    assert all(type(m) is F for m in div.entries.values())
    assert div.degree() == 0


def gauss_jordan_rank(rows):
    """Rank over Q by Fraction Gauss-Jordan elimination: the reference for rational_rank."""
    rows = [[F(x) for x in row] for row in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = 1 / rows[rank][col]
        rows[rank] = [x * inv for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def integer_rows(rows):
    """Each row times the lcm of its denominators: rational_rank takes integer rows."""
    scaled = []
    for row in rows:
        scale = lcm(*(F(x).denominator for x in row))
        scaled.append([int(x * scale) for x in row])
    return scaled


fractions = st.builds(F, st.integers(-9, 9), st.integers(1, 9))


@st.composite
def rational_matrices(draw):
    """m x n rational matrices of rank at most k, with some columns zeroed; m may exceed n."""
    m, n = draw(st.integers(1, 8)), draw(st.integers(1, 6))
    k = draw(st.integers(0, min(m, n)))
    left = [[draw(fractions) for _ in range(k)] for _ in range(m)]
    right = [[draw(fractions) for _ in range(n)] for _ in range(k)]
    zero = draw(st.sets(st.integers(0, n - 1), max_size=n))
    return [
        [F(0) if col in zero else sum((left[i][t] * right[t][col] for t in range(k)), F(0)) for col in range(n)]
        for i in range(m)
    ]


@settings(max_examples=200, deadline=None)
@given(rational_matrices())
def test_rational_rank_matches_gauss_jordan(rows):
    scaled = integer_rows(rows)
    before = [row[:] for row in scaled]
    assert rational_rank(scaled) == gauss_jordan_rank(rows)
    assert scaled == before


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(fractions, min_size=4, max_size=4), min_size=1, max_size=9))
def test_rational_rank_matches_gauss_jordan_on_random_rows(rows):
    assert rational_rank(integer_rows(rows)) == gauss_jordan_rank(rows)


def test_rational_rank_edge_shapes():
    assert rational_rank([]) == 0
    assert rational_rank([[], []]) == 0
    assert rational_rank([[0, 0], [0, 0]]) == 0
    assert rational_rank(integer_rows([[0, F(1, 3)], [0, F(2, 3)], [0, 5]])) == 1
    assert rational_rank(integer_rows([[2, 3], [4, 6], [1, 1], [F(1, 2), F(1, 2)]])) == 2


def test_rational_rank_on_known_matrix():
    rows = [
        [F(1), F(2), F(3)],
        [F(2), F(4), F(6)],
        [F(0), F(1), F(1)],
    ]
    assert rational_rank(integer_rows(rows)) == 2


@pytest.mark.parametrize("N,rank", [(2, 2), (3, 3), (4, 5), (5, 11), (6, 11)])
def test_unit_group_rank_is_cusps_minus_one(N, rank):
    assert cusp_count(N) - 1 == rank
    assert unit_group_rank(N) == rank


@pytest.mark.parametrize("N", range(7, 17))
def test_unit_group_rank_is_cusps_minus_one_up_to_16(N):
    assert unit_group_rank(N) == cusp_count(N) - 1
