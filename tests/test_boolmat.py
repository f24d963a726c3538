import dataclasses
import itertools
import pickle
import random
from math import comb

import pytest
from hypothesis import given, strategies as st

from catkit import boolmat as bm
from catkit import coxeter as cx
from catkit import dcm
from catkit import permutations as pm
from catkit import verify

import oracles


def _build_pair(n, seed_a, seed_b):
    alpha = []
    prev = 1
    for i in range(1, n + 1):
        lo = max(prev, i)
        alpha.append(lo + seed_a[i - 1] % (n - lo + 1))
        prev = alpha[-1]
    beta = []
    prev = 1
    for i in range(1, n + 1):
        beta.append(prev + seed_b[i - 1] % (i - prev + 1))
        prev = beta[-1]
    return tuple(alpha), tuple(beta)


def _seeds(n):
    return st.lists(st.integers(0, 1000), min_size=n, max_size=n)


def convex_of(n):
    return st.tuples(_seeds(n), _seeds(n)).map(
        lambda t: bm.from_map_pair(*_build_pair(n, *t)))


def convex_mats(n_max=7):
    return st.integers(min_value=1, max_value=n_max).flatmap(convex_of)


def convex_pairs(n_max=7):
    return st.integers(min_value=1, max_value=n_max).flatmap(
        lambda n: st.tuples(convex_of(n), convex_of(n)))


def test_identity_and_product():
    ident = bm.identity_mat(3)
    eps1 = bm.from_row_strings(["110", "110", "001"])
    assert bm.mul(ident, eps1) == eps1
    assert bm.mul(eps1, ident) == eps1
    assert bm.mul(eps1, eps1) == eps1  # generators are idempotent


def test_eps1_eps2_product():
    # columns {1,2}, {1,2,3}, {1,2,3}
    eps1 = bm.from_row_strings(["110", "110", "001"])
    eps2 = bm.from_row_strings(["100", "011", "011"])
    prod = bm.mul(eps1, eps2)
    assert oracles.column_support(prod, 1) == {1, 2}
    assert oracles.column_support(prod, 2) == {1, 2, 3}
    assert oracles.column_support(prod, 3) == {1, 2, 3}


def test_transpose():
    ident = bm.identity_mat(4)
    assert bm.transpose(ident) == ident
    a = bm.from_row_strings(["1100", "0100", "0011", "0001"])
    assert bm.transpose(bm.transpose(a)) == a
    assert bm.transpose(a).entry(1, 2) == a.entry(2, 1)


@given(convex_pairs(5))
def test_transpose_antiautomorphism(pair):
    a, b = pair
    assert bm.transpose(bm.mul(a, b)) == bm.mul(bm.transpose(b),
                                                bm.transpose(a))


def test_is_convex():
    assert bm.is_convex(bm.identity_mat(4))
    xi = bm.from_row_strings(["1110", "1110", "0110", "0011"])
    assert bm.is_convex(xi)
    broken = bm.from_row_strings(["101", "010", "001"])
    assert not bm.is_convex(broken)  # column 3 support {1, 3} has a gap
    assert not bm.is_convex(bm.BoolMat(2, (0b01, 0b01)))  # not reflexive


def test_max_min_maps_on_staircase_example():
    xi = bm.from_row_strings(["1110", "1110", "0110", "0011"])
    assert bm.to_map_pair(xi) == ((2, 3, 4, 4), (1, 1, 1, 4))
    ident = bm.identity_mat(3)
    assert bm.to_map_pair(ident) == ((1, 2, 3), (1, 2, 3))
    ones = oracles.all_ones(4)
    assert bm.to_map_pair(ones) == ((4, 4, 4, 4), (1, 1, 1, 1))


def test_max_map_rejects_non_convex():
    broken = bm.from_row_strings(["101", "010", "001"])
    with pytest.raises(ValueError, match="not a convex relation"):
        bm.to_map_pair(broken)


def _supports(a):
    """Row supports and column supports, read entry by entry."""
    idx = range(1, a.n + 1)
    rows = [[j for j in idx if a.entry(i, j)] for i in idx]
    cols = [[i for i in idx if a.entry(i, j)] for j in idx]
    return rows, cols


def _entrywise_convex(a):
    rows, cols = _supports(a)
    return (all(a.entry(i, i) for i in range(1, a.n + 1))
            and all(s and s == list(range(s[0], s[-1] + 1))
                    for s in rows + cols))


@pytest.mark.parametrize("n,reflexive_only,count", [
    (1, False, 2), (2, False, 16), (3, False, 512), (4, True, 4096)])
def test_convexity_reader_matches_entrywise_definition(n, reflexive_only,
                                                       count):
    """Every matrix of degree <= 3 and every reflexive one of degree 4."""
    mask = (1 << n) - 1
    seen = 0
    for bits in range(1 << (n * n)):
        rows = tuple(bits >> (n * i) & mask for i in range(n))
        if reflexive_only and not all(r >> i & 1 for i, r in enumerate(rows)):
            continue
        a = bm.BoolMat(n, rows)
        seen += 1
        convex = _entrywise_convex(a)
        assert bm.is_convex(a) == convex
        if convex:
            cols = _supports(a)[1]
            pair = bm.to_map_pair(a)
            assert pair == (tuple(max(c) for c in cols),
                            tuple(min(c) for c in cols))
            assert bm._map_pair(a) == pair
        else:
            with pytest.raises(ValueError, match="not a convex relation"):
                bm.to_map_pair(a)
            assert bm._map_pair(a) is None
    assert seen == count


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
def test_map_pair_matches_row_reader_on_every_matrix(n):
    convex = 0
    for bits in range(1 << (n * n)):
        a = bm.from_bits(n, bits)
        pair = bm._map_pair(a)
        assert pair == oracles.map_pair_by_rows(a)
        convex += pair is not None
    assert convex == len(set(oracles.enumerate_convex_by_reflexive_scan(n)))
    assert convex == (comb(2 * n, n) // (n + 1)) ** 2


@pytest.mark.parametrize("n", [5, 6, 7])
def test_map_pair_matches_row_reader_on_seeded_matrices(n):
    """Interval fills of seeded convex pairs, their products and unions,
    a fill with one bit flipped, random matrices with and without the
    diagonal, and the all-ones matrix without one diagonal bit."""
    rng = random.Random(n)
    diag, full = bm.identity_mat(n).bits, (1 << n * n) - 1
    convex = 0
    for _ in range(2_000):
        a = bm.from_map_pair(*oracles.random_convex_by_randint(n, rng))
        b = bm.from_map_pair(*oracles.random_convex_by_randint(n, rng))
        noise = rng.getrandbits(n * n)
        mats = [a, bm.mul(a, b), bm.union(a, b),
                bm.from_bits(n, a.bits ^ 1 << rng.randrange(n * n)),
                bm.from_bits(n, noise | diag),
                bm.from_bits(n, noise & ~diag),
                bm.from_bits(n, full ^ 1 << rng.randrange(n) * (n + 1))]
        for m in mats:
            pair = bm._map_pair(m)
            assert pair == oracles.map_pair_by_rows(m)
            convex += pair is not None
    assert convex > 6_000


def test_map_pair_edge_cases():
    assert bm._map_pair(bm.from_bits(0, 0)) == ((), ())
    assert bm._map_pair(bm.identity_mat(1)) == ((1,), (1,))
    assert bm._map_pair(bm.from_bits(1, 0)) is None
    empty_row = bm.from_row_strings(["100", "000", "001"])
    # every row and column an interval, but (2, 2) or (3, 3) unset
    off_diagonal = [bm.from_row_strings(["11", "10"]),
                    bm.from_row_strings(["111", "111", "110"])]
    for a in [empty_row] + off_diagonal:
        assert bm._map_pair(a) is None
        assert oracles.map_pair_by_rows(a) is None
        assert not bm.is_convex(a)
        with pytest.raises(ValueError, match="not a convex relation"):
            bm.to_map_pair(a)


def test_interval_fill():
    mat = bm.from_map_pair((2, 3, 3), (1, 1, 1))
    assert oracles.column_support(mat, 1) == {1, 2}
    assert oracles.column_support(mat, 2) == {1, 2, 3}
    assert oracles.column_support(mat, 3) == {1, 2, 3}
    xi = bm.from_row_strings(["1110", "1110", "0110", "0011"])
    assert bm.from_map_pair(*bm.to_map_pair(xi)) == xi


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_packing_round_trip(n):
    """The bit layout, the rows round trip, and the generator step on the
    bits against the product with the generator matrix."""
    step = bm._column_or(n, range(1, n))
    for rows in itertools.product(range(1 << n), repeat=n):
        a = bm.BoolMat(n, rows)
        x = a.bits
        assert 0 <= x < 1 << (n * n)
        assert all(x >> ((i - 1) * n + j - 1) & 1
                   == oracles.entry_of_rows(rows, i, j)
                   for i in range(1, n + 1) for j in range(1, n + 1))
        assert a.rows == rows
        assert bm.from_bits(n, x) == a
        for i in range(1, n):
            assert bm.from_bits(n, step(x, i)) == bm.mul(a, dcm.generator(i, n))


def _agrees_with_the_row_reference(n, arows, brows, w):
    """The kernels on bits against the row-tuple reference in oracles."""
    a, b = bm.BoolMat(n, arows), bm.BoolMat(n, brows)
    assert bm.mul(a, b).rows == oracles.mul_rows(arows, brows)
    union = oracles.union_rows(arows, brows)
    assert bm.union(a, b).rows == union
    assert bm.transpose(a).rows == oracles.transpose_rows(arows)
    assert oracles.subset_leq(a, b) == oracles.leq_rows(arows, brows)
    assert oracles.subset_leq(a, bm.BoolMat(n, union))
    assert bm.from_perm(w).rows == oracles.perm_rows(w)
    assert bm.identity_mat(n).rows == oracles.perm_rows(pm.identity(n))
    assert all(a.entry(i, j) == oracles.entry_of_rows(arows, i, j)
               for i in range(1, n + 1) for j in range(1, n + 1))


@pytest.mark.parametrize("n", [0, 1, 2])
def test_kernels_match_the_row_reference_exhaustively(n):
    matrices = list(itertools.product(range(1 << n), repeat=n))
    for arows, brows in itertools.product(matrices, repeat=2):
        for w in pm.all_perms(n):
            _agrees_with_the_row_reference(n, arows, brows, w)


def _row_tuples(n):
    return st.tuples(*[st.integers(0, (1 << n) - 1)] * n)


@given(st.integers(1, 8).flatmap(lambda n: st.tuples(
    st.just(n), _row_tuples(n), _row_tuples(n),
    st.permutations(range(1, n + 1)).map(tuple))))
def test_kernels_match_the_row_reference(data):
    _agrees_with_the_row_reference(*data)


def test_degree_is_part_of_the_value():
    """Equal bits at different degrees are different matrices."""
    assert bm.BoolMat(1, (1,)) != bm.BoolMat(2, (1, 0))
    assert bm.BoolMat(1, (1,)).bits == bm.BoolMat(2, (1, 0)).bits
    assert len({bm.BoolMat(1, (1,)), bm.BoolMat(2, (1, 0))}) == 2


def test_matrices_are_immutable_and_hash_by_value():
    a = bm.BoolMat(2, (0b01, 0b11))
    for name, value in (("n", 3), ("bits", 0), ("rows", (0, 0)),
                        ("colour", "red")):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(a, name, value)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(a, name)
    assert a.bits == 0b1101 and a.rows == (0b01, 0b11)
    same = [bm.from_bits(2, 0b1101), bm.from_row_strings(["10", "11"]),
            bm.mul(a, bm.identity_mat(2))]
    assert all(b == a and hash(b) == hash(a) for b in same)
    assert {a: 1}[same[0]] == 1
    assert pickle.loads(pickle.dumps(a)) == a


@given(convex_mats())
def test_map_pair_roundtrip(a):
    assert bm.is_convex(a)
    assert bm.from_map_pair(*bm.to_map_pair(a)) == a


@given(convex_pairs())
def test_convex_closed_and_homomorphic(pair):
    a, b = pair
    ab = bm.mul(a, b)
    assert bm.is_convex(ab)
    pa, pb = bm.to_map_pair(a), bm.to_map_pair(b)
    assert bm.to_map_pair(ab) == (pm.compose_map(pa[0], pb[0]),
                                  pm.compose_map(pa[1], pb[1]))


@given(convex_pairs())
def test_union_order_preserved(pair):
    a, b = pair
    big = bm.union(a, b)
    assert bm.is_convex(big)
    assert oracles.subset_leq(a, big)
    pa, pu = bm.to_map_pair(a), bm.to_map_pair(big)
    assert all(x <= y for x, y in zip(pa[0], pu[0]))
    assert all(x >= y for x, y in zip(pa[1], pu[1]))


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
def test_convex_enumeration_matches_the_reflexive_scan(n):
    """The closure of the interval fills of the generator pairs is every
    convex relation."""
    convex = verify.convex_closure(n).elements
    assert set(convex) == set(oracles.enumerate_convex_by_reflexive_scan(n))


def _lanes_match_mul_and_union(n, left, right):
    products, unions = bm.mul_union_lanes(
        n, [a.bits for a in left], [b.bits for b in right])
    assert list(products) == [bm.mul(a, b).bits
                              for a, b in zip(left, right)]
    assert list(unions) == [bm.union(a, b).bits for a, b in zip(left, right)]


@pytest.mark.parametrize("n", [0, 1, 2])
def test_lanes_match_mul_and_union_on_every_pair(n):
    mats = [bm.from_bits(n, x) for x in range(1 << (n * n))]
    pairs = list(itertools.product(mats, repeat=2))
    _lanes_match_mul_and_union(n, [a for a, _ in pairs], [b for _, b in pairs])


def test_lanes_match_mul_and_union_on_every_convex_pair():
    pairs = list(itertools.product(
        oracles.enumerate_convex_by_reflexive_scan(3), repeat=2))
    _lanes_match_mul_and_union(3, [a for a, _ in pairs], [b for _, b in pairs])


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_lanes_match_mul_and_union_on_seeded_matrices(n):
    """Arbitrary, mostly non-convex, matrices, with the empty and the full
    one; at n = 8 the full one fills its 64-bit lane."""
    rng = random.Random(n)
    mats = [bm.from_bits(n, rng.getrandbits(n * n)) for _ in range(600)]
    mats += [bm.from_bits(n, 0), oracles.all_ones(n)] * 2
    _lanes_match_mul_and_union(n, mats[::2], mats[1::2])
    _lanes_match_mul_and_union(n, mats[1::2], mats[::2])


@pytest.mark.parametrize("n", [5, 8])
@pytest.mark.parametrize("count", [0, 1, 1023, 1024, 1025])
def test_lanes_match_mul_and_union_on_every_block_size(n, count):
    rng = random.Random(count)
    left = [bm.from_bits(n, rng.getrandbits(n * n)) for _ in range(count)]
    right = [bm.from_bits(n, rng.getrandbits(n * n)) for _ in range(count)]
    _lanes_match_mul_and_union(n, left, right)


@pytest.mark.parametrize("n", [0, 1, 2, 8, 9, 11])
def test_column_or_lanes_match_the_step_lane_by_lane(n):
    """Seeded matrices with the empty and the all-ones one, which also
    fills the top lane: at n = 8 the all-ones matrix fills its 64-bit
    lane, and at 9 and 11 a lane is two 64-bit words."""
    rng = random.Random(n)
    full = (1 << n * n) - 1
    mats = [rng.getrandbits(n * n) for _ in range(300)] + [0, full, 0, full]
    width = bm._lane_bytes(n)
    assert width == (16 if n > 8 else 8)
    x = int.from_bytes(b"".join(a.to_bytes(width, "little") for a in mats),
                       "little")
    step = bm._column_or(n, range(1, n))
    products = list(bm._column_or_lanes(n, len(mats), x))
    assert len(products) == max(n - 1, 0)
    for i, y in enumerate(products, 1):
        lanes = y.to_bytes(width * len(mats), "little")
        assert [int.from_bytes(lanes[t * width:(t + 1) * width], "little")
                for t in range(len(mats))] == [step(a, i) for a in mats]


def test_lanes_refuse_what_they_cannot_hold():
    with pytest.raises(ValueError, match="block sizes differ"):
        bm.mul_union_lanes(2, [0, 1], [0])
    with pytest.raises(ValueError, match="64-bit lane"):
        bm.mul_union_lanes(9, [0], [0])


def test_formats():
    a = bm.from_row_strings(["110", "111", "011"])
    assert bm.to_row_strings(a) == ["110", "111", "011"]
    assert oracles.from_json_dict(oracles.to_json_dict(a)) == a
    assert bm.parse_matrix("110,111,011") == a
    assert bm.parse_matrix("110\n111\n011") == a


@given(st.integers(1, 8).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.integers(0, (1 << n) - 1), min_size=n,
                         max_size=n))))
def test_row_strings_round_trip_through_parse_matrix(data):
    n, rows = data
    a = bm.BoolMat(n, tuple(rows))
    for sep in (",", "\n"):
        assert bm.parse_matrix(sep.join(bm.to_row_strings(a))) == a


# Matrix closures keep their bits and wrap their elements on first read.

LAZY_CLOSURES = {
    **{f"DC{n}": lambda n=n: dcm.dc_monoid.__wrapped__(n) for n in range(1, 8)},
    **{f"convex{n}": lambda n=n: verify.convex_closure(n) for n in range(1, 5)},
    **{f"A{r}-double": lambda r=r: cx.double_catalan_quotient(
        cx.type_a(r), frozenset(range(r - 1))) for r in (3, 4, 5)},
}


@pytest.mark.parametrize("case", sorted(LAZY_CLOSURES))
def test_lazy_closure_matches_the_eager_wrapping(monkeypatch, case):
    """Each matrix closure equals the one that wraps every element as it
    returns, field by field, and wraps each element exactly once."""
    closure, checked = bm._closure, []

    def spy(*args):
        table = closure(*args)
        reference = oracles.closure_by_wrapping(*args)
        assert table.bits == [x.bits for x in reference.elements]
        for field in ("elements", "index", "gens", "right", "words",
                      "parent"):
            assert getattr(table, field) == getattr(reference, field), field
        assert table.left_table() == reference.left_table()
        assert type(table.elements) is list and type(table.index) is dict
        assert all(type(x) is bm.BoolMat for x in table.elements)
        assert table.elements is table.elements
        assert table.index is table.index
        assert all(a is b for a, b in zip(table.index, table.elements))
        assert list(table.index.values()) == list(range(len(table)))
        checked.append(case)
        return table

    monkeypatch.setattr(bm, "_closure", spy)
    LAZY_CLOSURES[case]()
    assert checked == [case]


def test_lazy_index_finds_only_its_own_matrices():
    table = dcm.dc_monoid.__wrapped__(4)
    for i, x in enumerate(table.elements):
        assert table.index[bm.from_bits(4, x.bits)] == i
        assert bm.from_bits(3, x.bits) not in table.index
        assert bm.from_bits(5, x.bits) not in table.index
        assert x.bits not in table.index
        assert (4, x.bits) not in table.index
        assert str(x) not in table.index
    assert None not in table.index
