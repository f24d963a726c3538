import random
from itertools import permutations
from operator import le

import pytest
from hypothesis import given, strategies as st

from catkit import permutations as pm

from oracles import (all_nonincreasing_maps, bruhat_ideal_by_subwords,
                     bruhat_leq_by_sorted_prefixes, contains_pattern_by_scan,
                     reduced_word_by_restart, sorted_prefixes, word_to_perm)


def perms(n_max=6):
    return st.integers(min_value=1, max_value=n_max).flatmap(
        lambda n: st.permutations(list(range(1, n + 1))).map(tuple))


def test_compose_convention():
    s1 = pm.simple_transposition(1, 3)
    s2 = pm.simple_transposition(2, 3)
    assert pm.compose(s1, s2) == (2, 3, 1)
    assert pm.compose((3, 2, 1), s1) == (2, 3, 1)
    w = (3, 1, 4, 2)
    assert pm.compose(pm.identity(4), w) == w
    assert pm.compose(w, pm.identity(4)) == w


def test_compose_degree_mismatch():
    with pytest.raises(ValueError):
        pm.compose((1, 2), (1, 2, 3))


def test_invert():
    assert pm.invert((2, 3, 1)) == (3, 1, 2)
    assert pm.invert((3, 2, 1)) == (3, 2, 1)
    assert pm.invert(pm.identity(4)) == pm.identity(4)


def test_reduced_word_basics():
    assert pm.reduced_word(pm.identity(4)) == ()
    assert pm.reduced_word((2, 3, 1)) == (1, 2)
    word = pm.reduced_word((4, 3, 2, 1))
    assert len(word) == 6
    assert word_to_perm(word, 4) == (4, 3, 2, 1)
    # the classical length-6 word evaluates to the reversal
    assert word_to_perm((1, 2, 3, 1, 2, 1), 4) == (4, 3, 2, 1)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5, 6, 7])
def test_reduced_word_matches_the_restart_reference(n):
    for w in pm.all_perms(n):
        assert pm.reduced_word(w) == reduced_word_by_restart(w)


def test_reduced_word_matches_the_restart_reference_on_seeded_perms():
    rng = random.Random(14)
    for _ in range(2_000):
        n = rng.randint(8, 14)
        w = tuple(rng.sample(range(1, n + 1), n))
        assert pm.reduced_word(w) == reduced_word_by_restart(w)


@given(perms())
def test_reduced_word_roundtrip(w):
    word = pm.reduced_word(w)
    assert len(word) == pm.inversions(w)
    assert word_to_perm(word, len(w)) == w


@given(perms(5))
def test_length_additive_on_ascents(w):
    n = len(w)
    for i in range(1, n):
        longer = pm.mul_simple_right(w, i)
        if w[i - 1] < w[i]:
            assert pm.inversions(longer) == pm.inversions(w) + 1
        else:
            assert pm.inversions(longer) == pm.inversions(w) - 1


def test_bruhat_leq_examples():
    assert pm.bruhat_leq((2, 3, 1), (3, 2, 1))
    assert not pm.bruhat_leq((2, 3, 1), (3, 1, 2))
    assert not pm.bruhat_leq((3, 1, 2), (2, 3, 1))
    for w in pm.all_perms(4):
        assert pm.bruhat_leq(pm.identity(4), w)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_bruhat_leq_matches_subword_oracle(n):
    for w in pm.all_perms(n):
        oracle = bruhat_ideal_by_subwords(w)
        for u in pm.all_perms(n):
            assert pm.bruhat_leq(u, w) == (u in oracle)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5, 6])
def test_bruhat_leq_matches_sorted_prefixes_on_all_pairs(n):
    """Every pair, by the dominance rule of bruhat_leq_by_sorted_prefixes
    on each permutation's sorted prefixes, made once."""
    perms = list(pm.all_perms(n))
    prefixes = [sorted_prefixes(w) for w in perms]
    for w, pw in zip(perms, prefixes):
        got = [pm.bruhat_leq(u, w) for u in perms]
        expected = [all(map(le, pu, pw)) for pu in prefixes]
        assert got == expected, w


@pytest.mark.parametrize("n", [7, 8])
def test_bruhat_leq_matches_sorted_prefixes_on_seeded_pairs(n):
    """20,000 seeded pairs, half of them with u a random product of
    adjacent swaps applied to w, so that u <= w holds often enough."""
    rng = random.Random(n)
    values = list(range(1, n + 1))
    agree = below = 0
    for k in range(20_000):
        w = tuple(rng.sample(values, n))
        if k % 2:
            u = list(w)
            for _ in range(rng.randrange(n * n)):
                i = rng.randrange(n - 1)
                if u[i] > u[i + 1]:
                    u[i], u[i + 1] = u[i + 1], u[i]
            u = tuple(u)
        else:
            u = tuple(rng.sample(values, n))
        got = pm.bruhat_leq(u, w)
        agree += got == bruhat_leq_by_sorted_prefixes(u, w)
        below += got
    assert agree == 20_000
    assert below > 5_000


def test_bruhat_leq_edge_cases():
    assert pm.bruhat_leq((), ())
    assert pm.bruhat_leq((1,), (1,))
    with pytest.raises(ValueError, match="degree mismatch: 2 != 3"):
        pm.bruhat_leq((1, 2), (1, 2, 3))
    with pytest.raises(ValueError, match="degree mismatch: 0 != 1"):
        pm.bruhat_leq((), (1,))


def test_contains_pattern():
    assert pm.contains_pattern((2, 1, 4, 3), (2, 1, 4, 3))
    assert not pm.contains_pattern((3, 4, 1, 2), (3, 2, 1))
    assert not pm.contains_pattern((4, 2, 3, 1), (4, 3, 2, 1))
    assert not pm.contains_pattern((4, 3, 2, 1), (4, 2, 3, 1))
    assert pm.contains_pattern((5, 2, 4, 3, 1), (3, 2, 1))


def test_contains_pattern_edge_cases():
    assert pm.contains_pattern((), ())
    assert pm.contains_pattern((2, 1), ())
    assert not pm.contains_pattern((), (1,))
    assert pm.contains_pattern((1,), (1,))
    assert not pm.contains_pattern((2, 1), (1, 2, 3))
    assert not pm.contains_pattern((3, 1, 2), (4, 2, 3, 1))
    assert not pm.contains_pattern((1, 2), (2, 1))
    assert pm.contains_pattern((1, 2), (1, 2))


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5, 6])
def test_contains_pattern_matches_the_scan_for_short_patterns(n):
    """Every pattern of length 0 to 4 on every permutation of degree n."""
    patterns = [p for m in range(5) for p in permutations(range(1, m + 1))]
    for w in pm.all_perms(n):
        for p in patterns:
            assert pm.contains_pattern(w, p) == contains_pattern_by_scan(w, p)


def test_contains_pattern_matches_the_scan_on_seeded_perms():
    """Seeded permutations of degrees 7 to 10, both outcomes occurring
    for every pattern."""
    rng = random.Random(7)
    patterns = [(4, 3, 2, 1), (4, 2, 3, 1), (3, 2, 1), (3, 1, 2),
                (2, 4, 1, 3)]
    seen = {p: set() for p in patterns}
    for _ in range(1_000):
        n = rng.randint(7, 10)
        w = tuple(rng.sample(range(1, n + 1), n))
        for p in patterns:
            got = pm.contains_pattern(w, p)
            assert got == contains_pattern_by_scan(w, p)
            seen[p].add(got)
    assert all(outcomes == {True, False} for outcomes in seen.values())


@given(perms(6))
def test_pattern_inverse_invariance(w):
    for p in [(3, 2, 1), (4, 3, 2, 1)]:
        assert pm.contains_pattern(w, p) == pm.contains_pattern(
            pm.invert(w), pm.invert(p))


def test_maxima_minima():
    assert pm.ltr_maxima((3, 4, 1, 2)) == (3, 4, 4, 4)
    assert pm.rtl_minima((3, 4, 1, 2)) == (1, 1, 1, 2)
    assert pm.ltr_maxima((2, 3, 1)) == (2, 3, 3)
    assert pm.rtl_minima((2, 3, 1)) == (1, 1, 1)
    ident = pm.identity(5)
    assert pm.ltr_maxima(ident) == ident
    assert pm.rtl_minima(ident) == ident


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_maxima_and_minima_are_monotone_on_all_of_s_n(n):
    """Interval fill skips its map checks for these pairs; this is why."""
    for w in pm.all_perms(n):
        assert pm.is_nondecreasing_map(pm.ltr_maxima(w))
        assert pm.is_nonincreasing_map(pm.rtl_minima(w))


@given(perms())
def test_maxima_straddle_the_diagonal(w):
    alpha = pm.ltr_maxima(w)
    beta = pm.rtl_minima(w)
    assert pm.is_nondecreasing_map(alpha)
    assert pm.is_nonincreasing_map(beta)
    for i in range(len(w)):
        assert alpha[i] >= i + 1 >= beta[i]


@pytest.mark.parametrize("n,catalan", [(1, 1), (2, 2), (3, 5), (4, 14), (5, 42)])
def test_monotone_map_counts(n, catalan):
    assert len(list(pm.all_nondecreasing_maps(n))) == catalan
    assert len(list(all_nonincreasing_maps(n))) == catalan


def test_min_perm_with_maxima():
    assert pm.min_perm_with_maxima((1, 2, 3)) == (1, 2, 3)
    assert pm.min_perm_with_maxima((3, 3, 3)) == (3, 1, 2)
    assert pm.min_perm_with_maxima((2, 3, 3)) == (2, 3, 1)
    assert pm.min_perm_with_maxima((2, 4, 5, 5, 5)) == (2, 4, 5, 1, 3)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_min_perm_is_the_unique_avoiding_witness(n):
    for alpha in pm.all_nondecreasing_maps(n):
        w = pm.min_perm_with_maxima(alpha)
        assert pm.ltr_maxima(w) == alpha
        assert pm.avoids(w, (3, 2, 1))


def test_serialization():
    assert pm.format_perm((4, 2, 3, 1)) == "4231"
    assert pm.parse_perm("4231") == (4, 2, 3, 1)
    big = tuple(range(10, 0, -1))
    assert pm.parse_perm(pm.format_perm(big)) == big
    assert "," in pm.format_perm(big)


@pytest.mark.parametrize("n", range(13))
def test_format_perm_matches_the_join(n):
    """One %-template per degree gives the text that joining str of each
    value gives, for tuples and lists, permutations and monotone maps."""
    rng = random.Random(n)
    values = [pm.identity(n), tuple(range(n, 0, -1)),
              tuple(rng.randint(1, max(n, 1)) for _ in range(n)),
              tuple(rng.sample(range(1, 2 * n + 1), n))]
    for w in values + [list(w) for w in values]:
        assert pm.format_perm(w) == ("" if n <= 9 else ",").join(map(str, w))


@pytest.mark.parametrize("text", [
    "1,+2,3", " 2, 1,3", "1_0,9,8,7,6,5,4,3,2,1", "2,-1", "1,,2", ",1",
    "1,", "1 2", "\u0662\u0661", "2x1"])
def test_parse_perm_refuses_anything_but_ascii_digits_and_commas(text):
    with pytest.raises(ValueError, match="bad permutation syntax"):
        pm.parse_perm(text)


@given(perms(n_max=14))
def test_format_perm_round_trips(w):
    """Digit strings up to degree 9, the comma form from degree 10 on."""
    text = pm.format_perm(w)
    assert ("," in text) == (len(w) >= 10)
    assert pm.parse_perm(text) == w


@pytest.mark.parametrize("n", range(1, 7))
def test_bruhat_ideals_match_bruhat_leq(n):
    perms = list(pm.all_perms(n))
    assert pm.bruhat_ideals(n) == [
        sum(1 << j for j, u in enumerate(perms) if pm.bruhat_leq(u, w))
        for w in perms]
