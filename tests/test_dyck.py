import pytest
from hypothesis import given, strategies as st

from catkit import dyck
from catkit import permutations as pm

import oracles


def monotone_maps(n_max=6):
    def build(n, seeds):
        vals = []
        prev = 1
        for i in range(1, n + 1):
            lo = max(prev, i)
            vals.append(lo + seeds[i - 1] % (n - lo + 1))
            prev = vals[-1]
        return tuple(vals)

    return st.integers(min_value=1, max_value=n_max).flatmap(
        lambda n: st.lists(st.integers(0, 1000), min_size=n,
                           max_size=n).map(lambda s: build(n, s)))


def test_path_validation():
    assert dyck.is_dyck_path("UUDD")
    assert dyck.is_dyck_path("")
    assert not dyck.is_dyck_path("DU")
    assert not dyck.is_dyck_path("UUD")
    assert not dyck.is_dyck_path("UX")


@pytest.mark.parametrize("n,count", [(1, 1), (2, 2), (3, 5), (4, 14),
                                     (5, 42), (6, 132), (7, 429)])
def test_path_counts(n, count):
    assert len(dyck.all_dyck_paths(n)) == count


def test_path_conventions():
    assert dyck.map_to_path((1, 2, 3, 4)) == "UDUDUDUD"
    assert dyck.map_to_path((4, 4, 4, 4)) == "UUUUDDDD"
    assert dyck.map_to_path((3, 3, 4, 5, 5, 6)) == "UDUUDUDUUDDD"
    assert dyck.path_to_map("UUDUDD") == (2, 3, 3)
    assert dyck.path_to_map("") == ()


@given(monotone_maps())
def test_map_path_roundtrip(alpha):
    path = dyck.map_to_path(alpha)
    assert dyck.is_dyck_path(path)
    assert dyck.path_to_map(path) == alpha


@given(st.text(alphabet="UDX", max_size=16))
def test_text_round_trips_iff_it_is_a_dyck_path(text):
    """Any string of U, D and a stray letter: path_to_map refuses it or
    map_to_path gives it back, and it gives it back iff it is a path."""
    try:
        back = dyck.map_to_path(dyck.path_to_map(text))
    except ValueError:
        back = None
    assert dyck.is_dyck_path(text) == (back == text)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5, 6, 7])
def test_bijection_between_maps_and_paths(n):
    images = {dyck.map_to_path(a) for a in pm.all_nondecreasing_maps(n)}
    assert images == set(dyck.all_dyck_paths(n))
    assert all(dyck.map_to_path(dyck.path_to_map(p)) == p for p in images)


def test_valley_completions():
    assert dyck.valley_completions("UDUD") == {"UDUD", "UUDD"}
    assert dyck.valley_completions("UUDD") == {"UUDD"}  # no valleys
    covers = dyck.valley_completions("UDUDUD")
    assert covers == {"UDUDUD", "UUDDUD", "UDUUDD", "UUDUDD"}
    # the example with two adjacent valleys completed simultaneously
    delta = "UUDDUUUDDUUDUDDUDD"
    expected = "UUDDUUUUUDDUDDDUDD"
    assert expected in dyck.valley_completions(delta)


def test_factor_order_examples():
    assert dyck.factor_order_leq((1, 2, 3), (3, 3, 3))
    assert dyck.factor_order_leq((2, 3, 3), (3, 3, 3))
    assert not dyck.factor_order_leq((3, 3, 3), (2, 3, 3))
    for beta in pm.all_nondecreasing_maps(4):
        assert dyck.factor_order_leq((1, 2, 3, 4), beta)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_factor_order_equals_cover_order(n):
    maps = list(pm.all_nondecreasing_maps(n))
    for a in maps:
        for b in maps:
            assert dyck.factor_order_leq(a, b) == oracles.cover_order_leq(a, b)


def test_cover_order_oracle_follows_a_patched_completion_rule(monkeypatch):
    """The oracle's reachability cache is keyed by the completion rule, so
    a patched dyck.valley_completions is never answered from the sets an
    earlier rule built."""
    low, high = (1, 2, 3), (3, 3, 3)
    assert oracles.cover_order_leq(low, high)
    monkeypatch.setattr(dyck, "valley_completions", lambda path: frozenset())
    assert not oracles.cover_order_leq(low, high)
    assert oracles.cover_order_leq(low, low)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_factor_order_is_partial_order(n):
    maps = list(pm.all_nondecreasing_maps(n))
    for a in maps:
        assert dyck.factor_order_leq(a, a)
        for b in maps:
            if dyck.factor_order_leq(a, b) and dyck.factor_order_leq(b, a):
                assert a == b
            for c in maps:
                if dyck.factor_order_leq(a, b) and dyck.factor_order_leq(b, c):
                    assert dyck.factor_order_leq(a, c)


def test_derivative_examples():
    assert dyck.kreweras_derivative("UDUDUD") == "UDUDUD"
    assert dyck.kreweras_derivative(dyck.map_to_path((2, 3, 3))) == \
        dyck.map_to_path((3, 3, 3))
    assert dyck.kreweras_derivative("UUUDUDDUDD") == "UUUDUUDDDD"


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
def test_derivative_is_involution(n):
    for path in dyck.all_dyck_paths(n):
        image = dyck.kreweras_derivative(path)
        assert dyck.is_dyck_path(image)
        assert dyck.kreweras_derivative(image) == path
    assert dyck.kreweras_derivative("UD" * n) == "UD" * n


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_derivative_fixed_points_are_involution_witnesses(n):
    fixed = sum(1 for p in dyck.all_dyck_paths(n)
                if dyck.kreweras_derivative(p) == p)
    witnesses = sum(1 for alpha in pm.all_nondecreasing_maps(n)
                    if pm.is_involution(pm.min_perm_with_maxima(alpha)))
    assert fixed == witnesses


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_derivative_respects_concatenation(n):
    """Applying the derivative blockwise at returns to the axis agrees with
    applying it to the whole path."""
    for k in range(1, n):
        for p1 in dyck.all_dyck_paths(k):
            for p2 in dyck.all_dyck_paths(n - k):
                whole = dyck.kreweras_derivative(p1 + p2)
                blocks = dyck.kreweras_derivative(p1) + \
                    dyck.kreweras_derivative(p2)
                assert whole == blocks


def test_path_pairs():
    assert dyck.path_pair_of((1, 2, 3)) == ("UDUDUD", "UDUDUD")
    assert dyck.path_pair_of((2, 3, 1)) == (dyck.map_to_path((2, 3, 3)),
                                            dyck.map_to_path((3, 3, 3)))
    w0 = (4, 3, 2, 1)
    assert dyck.path_pair_of(w0) == ("UUUUDDDD", "UUUUDDDD")


def test_admissibility_examples():
    assert dyck.is_admissible("UDUDUD", "UDUDUD")
    p = dyck.map_to_path((2, 3, 3))
    q = dyck.map_to_path((3, 3, 3))
    assert dyck.is_admissible(p, q)
    assert not dyck.is_admissible(p, p)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_admissibility_matches_brute_force(n):
    realized = dyck.brute_force_admissible_pairs(n)
    paths = dyck.all_dyck_paths(n)
    for p1 in paths:
        for p2 in paths:
            assert dyck.is_admissible(p1, p2) == ((p1, p2) in realized)


def _pairs(sets, n):
    """The relation of bitsets indexed by all_dyck_paths(n), as path pairs."""
    paths = dyck.all_dyck_paths(n)
    return {(p, q) for p, row in zip(paths, sets)
            for j, q in enumerate(paths) if row >> j & 1}


@pytest.mark.parametrize("n", range(1, 7))
def test_order_sets_match_the_pairwise_orders(n):
    paths = dyck.all_dyck_paths(n)
    maps = [dyck.path_to_map(p) for p in paths]
    factor = {(p, q) for p, a in zip(paths, maps) for q, b in zip(paths, maps)
              if dyck.factor_order_leq(a, b)}
    cover = {(p, q) for p, a in zip(paths, maps) for q, b in zip(paths, maps)
             if oracles.cover_order_leq(a, b)}
    assert _pairs(dyck.factor_order_sets(n), n) == factor
    assert _pairs(dyck.cover_order_sets(n), n) == cover


@pytest.mark.parametrize("n", range(1, 7))
def test_admissible_sets_match_is_admissible(n):
    paths = dyck.all_dyck_paths(n)
    assert _pairs(dyck.admissible_sets(n), n) == {
        (p, q) for p in paths for q in paths if dyck.is_admissible(p, q)}
