import functools
import gc
import json
from collections.abc import Iterator

import pytest

from catkit import boolmat as bm
from catkit import coxeter as cx
from catkit import dcm
from catkit import hecke
from catkit import monoid
from catkit import permutations as pm
from catkit import repmin as rm
from catkit import verify
from catkit.cli import _write_json
from catkit.monoid import (MonoidCapExceeded, ProductRows,
                           enumerate_presentation, gather, generate_monoid,
                           generators_match)
import oracles
from oracles import closure_by_every_product


def catalan_table(n):
    gens = [pm.ltr_maxima(pm.simple_transposition(i, n)) for i in range(1, n)]
    return generate_monoid(gens, pm.compose_map, pm.identity(n))


@pytest.mark.parametrize("indices", [(), (2,), (2, 0), (1, 1, 3)])
def test_gather_always_returns_a_tuple(indices):
    row = ("a", "b", "c", "d")
    assert gather(indices)(row) == tuple(row[k] for k in indices)


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


TABLES = ([("DC", n, dcm.dc_monoid) for n in range(1, 7)]
          + [("Catalan", n, catalan_table) for n in range(1, 7)]
          + [("Hecke", n, hecke.hecke_monoid) for n in range(1, 6)])


def _compose_transformations(x, y):
    return tuple(y[v] for v in x)


def _left_zero(x, y):
    """x * y = x for x, y in {a, b}, with the identity 1 adjoined."""
    return y if x == "1" else x


def _right_zero(x, y):
    return x if y == "1" else y


def _closing(*args):
    """A call of generate_monoid looked up when it runs, so a patch of
    monoid.generate_monoid sees it."""
    return lambda: monoid.generate_monoid(*args)


CLOSURE_ARGS = {
    # the full transformation monoid T_3: 27 elements
    "T3": ([(1, 0, 2), (1, 2, 0), (0, 0, 2)], _compose_transformations,
           (0, 1, 2)),
    "S4": ([(1, 0, 2, 3), (1, 2, 3, 0)], _compose_transformations,
           (0, 1, 2, 3)),
    # R-trivial, but a and b are L-related: only the left graph has a cycle
    "left-zero": (["a", "b"], _left_zero, "1"),
    # its dual: L-trivial, and only the right graph has a cycle
    "right-zero": (["a", "b"], _right_zero, "1"),
}
NOT_J_TRIVIAL = {name: _closing(*args) for name, args in CLOSURE_ARGS.items()}


def _ideal_count_j_trivial(table):
    """The definition: distinct elements, distinct two-sided ideals."""
    ideals = {table.two_sided_ideal(i) for i in range(len(table))}
    return len(ideals) == len(table)


@pytest.mark.parametrize("family,n,build", TABLES)
def test_product_table_matches_word_walks(family, n, build):
    table = build(n)
    rows = list(table.product_rows())
    assert all(type(row) is tuple for row in rows)
    assert rows == [tuple(table.product(i, j) for j in range(len(table)))
                    for i in range(len(table))]


@pytest.mark.parametrize("family,n,build", TABLES)
def test_product_rows_gather_labels(family, n, build):
    table = build(n)
    labels = [f"x{k}" for k in range(len(table))]
    assert list(table.product_rows(labels)) == [
        tuple(labels[table.product(i, j)] for j in range(len(table)))
        for i in range(len(table))]


@pytest.mark.parametrize("depth", [0, 1, 2])
@pytest.mark.parametrize("family,n,build", TABLES)
def test_writer_streams_the_product_view_at_any_depth(family, n, build,
                                                      depth):
    data = build(n).to_json_dict()
    view = data["product_table"]
    assert isinstance(view, ProductRows)
    plain = {**data, "product_table": [list(row) for row in view]}
    # the view alone, in the table's dict, and in a list around that dict
    value, expected = [(view, plain["product_table"]), (data, plain),
                       ([data], [plain])][depth]
    chunks = []
    _write_json(value, chunks.append)
    assert "".join(chunks) == json.dumps(expected, sort_keys=True, indent=2)


@pytest.mark.parametrize("family,n,build", TABLES)
def test_left_table_matches_word_walks(family, n, build):
    table = build(n)
    assert table.left_table() == [
        [table.product(gi, i) for gi in table.gens]
        for i in range(len(table))]


LEFT_COLUMN_TABLES = {
    **{f"Hecke{n}": functools.partial(hecke.hecke_monoid, n)
       for n in (0, 1, 4, 5)},
    **{f"Catalan{n}": functools.partial(dcm.catalan_monoid, n)
       for n in (0, 1, 5, 6)},
    **{f"DC{n}": functools.partial(dcm.dc_monoid, n) for n in (0, 1, 5, 6)},
    **{name: functools.partial(cx.from_type_string, name)
       for name in ("A4", "B3", "I2(5)")},
}


@pytest.mark.parametrize("case", sorted(LEFT_COLUMN_TABLES))
def test_left_columns_match_the_prefix_rule(case):
    """The left columns the closure keeps, and left_table(), their
    transpose, against the left table rebuilt from the right table."""
    table = LEFT_COLUMN_TABLES[case]()
    left = oracles.left_table_by_prefix_rule(table)
    assert len(left) == len(table)
    assert table.left_columns == oracles.left_columns(left)
    assert len(table.left_columns) == len(table.gens)
    assert table.left_table() == left


@pytest.mark.parametrize("build", [hecke.hecke_monoid, dcm.catalan_monoid,
                                   dcm.dc_monoid])
@pytest.mark.parametrize("n", [0, 1])
def test_left_table_without_generators_has_an_empty_row_each(build, n):
    table = build(n)
    assert table.gens == () and table.left_columns == []
    assert table.left_table() == [[]] * len(table) == [[]]
    assert list(table.product_rows()) == [(0,)]


@pytest.mark.parametrize("family,n,build", TABLES)
def test_j_triviality_matches_ideal_count(family, n, build):
    table = build(n)
    assert table.is_j_trivial() is _ideal_count_j_trivial(table) is True


@pytest.mark.parametrize("name", sorted(NOT_J_TRIVIAL))
def test_j_triviality_fails_where_ideals_coincide(name):
    table = NOT_J_TRIVIAL[name]()
    assert table.is_j_trivial() is _ideal_count_j_trivial(table) is False


def _two_sided_ideal_by_left_rows(table, a):
    """All x*a*y by breadth-first search over the rows of both Cayley
    tables, the left one made by left_table()."""
    left = table.left_table()
    seen, frontier = {a}, [a]
    while frontier:
        frontier = [y for x in frontier for y in table.right[x] + left[x]
                    if y not in seen and not seen.add(y)]
    return frozenset(seen)


ALL_TABLES = ([pytest.param(functools.partial(build, n), id=f"{family}{n}")
               for family, n, build in TABLES]
              + [pytest.param(build, id=name)
                 for name, build in NOT_J_TRIVIAL.items()])


@pytest.mark.parametrize("make", ALL_TABLES)
def test_two_sided_ideal_matches_the_left_row_search(make):
    table = make()
    for a in range(len(table)):
        assert table.two_sided_ideal(a) == _two_sided_ideal_by_left_rows(
            table, a)


def test_left_zero_monoid_is_r_trivial_only():
    """Each Cayley graph is needed: the left-zero monoid's cycle lies in
    its left graph, the right-zero monoid's in its right graph."""
    left_zero, right_zero = (NOT_J_TRIVIAL[name]()
                             for name in ("left-zero", "right-zero"))
    assert len(left_zero) == len(right_zero) == 3
    assert left_zero.right == [[1, 2], [1, 1], [2, 2]]
    assert left_zero.left_table() == [[1, 2], [1, 2], [1, 2]]
    assert right_zero.right == [[1, 2], [1, 2], [1, 2]]
    assert right_zero.left_table() == [[1, 2], [1, 1], [2, 2]]


@pytest.mark.parametrize("build", [
    *(functools.partial(build, n) for _, n, build in TABLES),
    *NOT_J_TRIVIAL.values()])
def test_parent_is_the_word_prefix(build):
    table = build()
    assert table.parent[0] == 0
    for j in range(1, len(table)):
        p, g = table.parent[j], table.words[j][-1]
        assert table.words[p] + (g,) == table.words[j]
        assert table.right[p][g] == j


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
    rows = data["product_table"]
    assert isinstance(rows, ProductRows) and not isinstance(rows, Iterator)
    assert len(rows) == 6
    assert next(iter(rows)) == tuple(range(6))
    assert list(rows) == list(rows) == list(table.product_rows())


def _presented(n):
    """The Todd-Coxeter enumeration of DC_n's presentation, which renumbers
    its finished table by generate_monoid."""
    rels = [(tuple(x - 1 for x in lhs), tuple(x - 1 for x in rhs))
            for lhs, rhs in dcm.presentation_relations(n)]
    return enumerate_presentation(n - 1, rels)


# (module whose generate_monoid calls are checked, what makes them)
EVERY_PRODUCT_CASES = {
    **{f"DC{n}": (bm, functools.partial(dcm.dc_monoid.__wrapped__, n))
       for n in range(2, 8)},
    **{f"Hecke{n}": (hecke, functools.partial(hecke.hecke_monoid, n))
       for n in range(1, 7)},
    **{f"Catalan{n}": (dcm, functools.partial(dcm.catalan_monoid, n))
       for n in range(1, 8)},
    **{f"coxeter-{text}": (cx, functools.partial(cx.from_type_string, text))
       for text in ("A4", "B3", "I2:5")},
    **{f"convex{n}": (bm, functools.partial(verify.convex_closure, n))
       for n in range(1, 5)},
    **{f"presentation{n}": (monoid, functools.partial(_presented, n))
       for n in range(3, 6)},
    "dc-module-5": (rm, functools.partial(rm.dc_min_dim, 5)),
    **{name: (monoid, _closing(*CLOSURE_ARGS[name]))
       for name in ("T3", "S4", "left-zero")},
    "identity-generator": (monoid, _closing(
        [(0, 1, 2), (1, 0, 2), (0, 0, 2)], _compose_transformations,
        (0, 1, 2))),
    "repeated-generator": (monoid, _closing(
        [(1, 2, 0), (0, 0, 2), (1, 2, 0), (0, 0, 2)],
        _compose_transformations, (0, 1, 2))),
}


@pytest.mark.parametrize("case", sorted(EVERY_PRODUCT_CASES))
def test_closure_matches_every_product(monkeypatch, case):
    """Each closure the case makes equals the one that multiplies every
    edge, compared as soon as it returns, before its caller edits it."""
    module, build = EVERY_PRODUCT_CASES[case]
    checked = []

    def spy(*args):
        table = generate_monoid(*args)
        reference = closure_by_every_product(*args)
        for field in ("elements", "index", "right", "words", "parent",
                      "gens"):
            assert getattr(table, field) == getattr(reference, field), field
        assert table.left_table() == reference.left_table()
        checked.append(len(table))
        return table

    monkeypatch.setattr(module, "generate_monoid", spy)
    build()
    assert checked


def test_closure_multiplies_only_new_words():
    gens = [g.bits for g in dcm.generators(8)]
    step = bm._column_or(8, gens)
    calls = 0

    def counted(x, g):
        nonlocal calls
        calls += 1
        return step(x, g)

    table = generate_monoid(gens, counted, bm.identity_mat(8).bits)
    assert len(table) == 15767
    assert calls < len(table) * len(gens) / 5


def test_cap_stops_where_every_product_closure_stops():
    gens, one = dcm.generators(4), bm.identity_mat(4)
    for cap in range(1, 25):
        try:
            expected = len(closure_by_every_product(gens, bm.mul, one, cap))
        except MonoidCapExceeded:
            with pytest.raises(MonoidCapExceeded):
                generate_monoid(gens, bm.mul, one, cap)
        else:
            assert len(generate_monoid(gens, bm.mul, one, cap)) == expected


@pytest.mark.parametrize("collecting", [True, False])
def test_closure_pauses_the_collector_and_restores_it(collecting):
    seen = []

    def capped_sum(x, y):
        seen.append(gc.isenabled())
        return min(x + y, 3)

    def failing(x, y):
        raise ZeroDivisionError

    was = gc.isenabled()
    try:
        gc.enable() if collecting else gc.disable()
        assert len(generate_monoid([1], capped_sum, 0)) == 4
        assert gc.isenabled() is collecting
        with pytest.raises(MonoidCapExceeded):
            generate_monoid([1], capped_sum, 0, cap=2)
        assert gc.isenabled() is collecting
        with pytest.raises(ZeroDivisionError):
            generate_monoid([1], failing, 0)
        assert gc.isenabled() is collecting
    finally:
        gc.enable() if was else gc.disable()
    assert seen and not any(seen)
