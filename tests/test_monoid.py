import pytest

from catkit import boolmat as bm
from catkit import dcm
from catkit import permutations as pm
from catkit.monoid import (MonoidCapExceeded, enumerate_presentation,
                           generate_monoid, generators_match)


def catalan_table(n):
    gens = [pm.ltr_maxima(pm.simple_transposition(i, n)) for i in range(1, n)]
    return generate_monoid(gens, pm.compose_map, pm.identity(n))


def test_identity_only():
    table = generate_monoid([], lambda a, b: a, (1,))
    assert len(table) == 1
    assert table.words == [()]


def test_trivial_generator():
    table = generate_monoid([(1, 2)], pm.compose_map, (1, 2))
    assert len(table) == 1
    assert table.gens == (0,)


def test_catalan_closure_count():
    assert len(catalan_table(4)) == 14


def test_dc4_closure_count():
    assert len(dcm.dc_monoid(4)) == 23


def test_words_are_witnesses():
    table = dcm.dc_monoid(4)
    gens = dcm.generators(4)
    for i, word in enumerate(table.words):
        x = bm.identity_mat(4)
        for g in word:
            x = bm.mul(x, gens[g])
        assert x == table.elements[i]
        assert len(word) == len(table.words[i])


def test_words_bfs_order():
    table = dcm.dc_monoid(4)
    seq = [(len(w), w) for w in table.words]
    assert seq == sorted(seq)


def test_product_matches_direct_multiplication():
    table = dcm.dc_monoid(3)
    for i in range(len(table)):
        for j in range(len(table)):
            expected = bm.mul(table.elements[i], table.elements[j])
            assert table.elements[table.product(i, j)] == expected


def test_left_table():
    table = dcm.dc_monoid(3)
    left = table.left_table()
    for i in range(len(table)):
        for g, gi in enumerate(table.gens):
            expected = bm.mul(table.elements[gi], table.elements[i])
            assert table.elements[left[i][g]] == expected


def test_cap_exceeded():
    """The cap is the most elements a closure holds: DC_4 has 23 elements,
    and Todd-Coxeter at degree 4 holds at most 35 live nodes."""
    gens, one = dcm.generators(4), bm.identity_mat(4)
    assert len(generate_monoid(gens, bm.mul, one, cap=23)) == 23
    with pytest.raises(MonoidCapExceeded):
        generate_monoid(gens, bm.mul, one, cap=22)
    rels = [(tuple(x - 1 for x in lhs), tuple(x - 1 for x in rhs))
            for lhs, rhs in dcm.presentation_relations(4)]
    assert len(enumerate_presentation(3, rels, cap=35)) == 23
    with pytest.raises(MonoidCapExceeded):
        enumerate_presentation(3, rels, cap=34)


def test_enumerate_cyclic_monoid():
    # x^5 = x^2: index 2, period 3
    table = enumerate_presentation(1, [((0,) * 5, (0, 0))])
    assert table.words == [(), (0,), (0, 0), (0, 0, 0), (0, 0, 0, 0)]
    assert table.right[4] == [2]


def test_enumerate_with_empty_side():
    # the first letter is the identity, the second an idempotent
    table = enumerate_presentation(2, [((0,), ()), ((1, 1), (1,))])
    assert table.gens == (0, 1)
    assert table.words == [(), (1,)]


def test_hecke_is_j_trivial():
    from catkit import hecke
    for n in (2, 3, 4):
        assert hecke.hecke_monoid(n).is_j_trivial()


def test_generators_match_detects_mismatch():
    assert generators_match(catalan_table(3), catalan_table(3))
    assert not generators_match(catalan_table(3), catalan_table(4))
    # same size, same generator count, different structure
    a = dcm.dc_monoid(3)   # 6 elements, 2 generators
    from catkit import hecke
    b = hecke.hecke_monoid(3)  # also 6 elements, 2 generators
    assert generators_match(a, b)  # degree 3 projection is injective
    assert not generators_match(dcm.dc_monoid(4), hecke.hecke_monoid(4))


def test_dot_export():
    table = dcm.dc_monoid(3)
    dot = table.right_cayley_dot()
    assert dot.startswith("digraph")
    assert dot.count("n0 ->") == 2
    assert dot.count("[label=") == len(table) + 2 * len(table)


def test_json_export():
    table = dcm.dc_monoid(3)
    data = table.to_json_dict(element_repr=lambda x: "|".join(bm.to_row_strings(x)))
    assert data["size"] == 6
    assert len(data["elements"]) == 6
    assert data["product_table"] is not None
    assert data["product_table"][0] == list(range(6))
