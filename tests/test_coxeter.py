import pytest

from catkit import coxeter as cx
from catkit import dcm
from catkit.monoid import MonoidCapExceeded, generators_match


@pytest.mark.parametrize("build,order,top_len", [
    (lambda: cx.type_a(1), 2, 1),
    (lambda: cx.type_a(2), 6, 3),
    (lambda: cx.type_a(3), 24, 6),
    (lambda: cx.type_b(2), 8, 4),
    (lambda: cx.type_b(3), 48, 9),
    (lambda: cx.dihedral(3), 6, 3),
    (lambda: cx.dihedral(4), 8, 4),
    (lambda: cx.dihedral(6), 12, 6),
])
def test_orders_and_longest(build, order, top_len):
    sys = build()
    assert sys.order == order
    assert sys.length[sys.longest] == top_len
    w0 = sys.longest
    assert sys.left_descents(w0) == frozenset(range(sys.rank))
    assert sys.right_descents(w0) == frozenset(range(sys.rank))


@pytest.mark.parametrize("type_string", [
    "A1", "A2", "A3", "A4", "B2", "B3", "I2:3", "I2:4", "I2:5", "I2:6"])
def test_closure_built_tables(type_string):
    sys = cx.from_type_string(type_string)
    assert all(sys.length[i] == len(sys.words[i]) for i in range(sys.order))
    top = max(sys.length)
    assert sys.longest == sys.order - 1
    assert [i for i in range(sys.order) if sys.length[i] == top] == [
        sys.longest]
    assert sys.longest == max(range(sys.order), key=lambda i: sys.length[i])
    for i in range(1, sys.order):
        word = sys.words[i]
        assert sys.words[sys.right[i][word[-1]]] == word[:-1]


def test_dihedral_is_b2():
    assert generators_match_orders(cx.dihedral(4), cx.type_b(2))


def generators_match_orders(a, b):
    return sorted(a.matrix[0]) == sorted(b.matrix[0]) and a.order == b.order


def test_type_strings():
    assert cx.from_type_string("A4").order == 120
    assert cx.from_type_string("B3").name == "B3"
    assert cx.from_type_string("I2:6").order == 12
    assert cx.from_type_string("I2(5)").order == 10
    with pytest.raises(cx.CoxeterError):
        cx.from_type_string("Z9")


@pytest.mark.parametrize("text", ["C3", "A", "A-1", "A3x", "", "B0",
                                  "I2", "I2:x", "I2:1"])
def test_malformed_type_strings(text):
    with pytest.raises(cx.CoxeterError):
        cx.from_type_string(text)


def test_explicit_system_validation():
    s = (1, 0, 2)
    t = (0, 2, 1)
    sys = cx.coxeter_system([s, t], [[1, 3], [3, 1]])
    assert sys.order == 6
    with pytest.raises(cx.CoxeterError):
        cx.coxeter_system([s, t], [[1, 4], [4, 1]])
    with pytest.raises(cx.CoxeterError):
        cx.coxeter_system([(1, 2, 0)])  # not an involution
    with pytest.raises(MonoidCapExceeded):
        cx.type_a(6, cap=100)  # 5040 elements


@pytest.mark.parametrize("m", [3, 64, 65, 100])
def test_dihedral_matrix_has_any_order(m):
    # orders are exact, not found by a bounded search
    sys = cx.dihedral(m)
    assert sys.matrix == ((1, m), (m, 1))
    assert sys.order == 2 * m


def test_lengths_match_inversion_count_in_type_a():
    sys = cx.type_a(3)
    for i, perm in enumerate(sys.elements):
        inv = sum(1 for a in range(4) for b in range(a + 1, 4)
                  if perm[a] > perm[b])
        assert sys.length[i] == inv


def test_words_are_reduced():
    sys = cx.type_b(3)
    for i, word in enumerate(sys.words):
        assert len(word) == sys.length[i]
        cur = 0
        for s in word:
            cur = sys.right[cur][s]
        assert cur == i


def test_longest_conjugation():
    a3 = cx.type_a(3)
    assert a3.longest_conjugation() == (2, 1, 0)
    b3 = cx.type_b(3)
    assert b3.longest_conjugation() == (0, 1, 2)  # w0 central in type B
    i25 = cx.dihedral(5)
    assert i25.longest_conjugation() == (1, 0)  # odd dihedral swaps


def test_e_mul_and_hecke_mul():
    sys = cx.dihedral(3)
    s, t = 0, 1
    z = 0
    assert cx.e_mul(sys, s, z) == sys.generators[s]
    w0 = sys.longest
    assert cx.e_mul(sys, s, w0) == w0
    sts = cx.e_mul(sys, s, cx.e_mul(sys, t, cx.e_mul(sys, s, 0)))
    tst = cx.e_mul(sys, t, cx.e_mul(sys, s, cx.e_mul(sys, t, 0)))
    assert sts == tst == w0
    for i in range(sys.order):
        assert cx.hecke_mul(sys, w0, i) == w0
        assert cx.hecke_mul(sys, i, w0) == w0


def test_hecke_mul_matches_symmetric_group_route():
    from catkit import hecke
    sys = cx.type_a(3)
    for i, u in enumerate(sys.elements):
        pu = tuple(x + 1 for x in u)
        for j, w in enumerate(sys.elements):
            pw = tuple(x + 1 for x in w)
            got = sys.elements[cx.hecke_mul(sys, i, j)]
            assert tuple(x + 1 for x in got) == hecke.mul(pu, pw)


def test_parabolic_and_max_reps():
    sys = cx.type_a(2)
    J = frozenset({1})  # generated by s2
    para = cx.parabolic(sys, J)
    assert len(para.members) == 2
    assert len(para.max_reps) == 3
    # coset of s1 = {213, 231}: longest representative is 231
    s1 = sys.generators[0]
    rep = cx.coset_max_rep(sys, para, s1)
    assert sys.elements[rep] == (1, 2, 0)  # 231 in carrier form
    # elements already representatives project to themselves
    for w in para.max_reps:
        assert cx.coset_max_rep(sys, para, w) == w
    # J = S gives a single coset with the longest element on top
    whole = cx.parabolic(sys, frozenset({0, 1}))
    assert cx.coset_max_rep(sys, whole, 0) == sys.longest


def _bfs_parabolic(sys, J):
    """Members and longest element of the J-parabolic, by breadth-first
    search from the identity along right multiplication by J."""
    members, frontier = {0}, [0]
    while frontier:
        nxt = []
        for i in frontier:
            for s in J:
                j = sys.right[i][s]
                if j not in members:
                    members.add(j)
                    nxt.append(j)
        frontier = nxt
    return tuple(sorted(members)), max(members, key=lambda i: sys.length[i])


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "A4", "B1", "B2", "B3"]
                         + [f"I2:{m}" for m in range(2, 8)])
def test_parabolic_support_rule_matches_bfs(name):
    sys = cx.from_type_string(name)
    for mask in range(1 << sys.rank):
        J = frozenset(s for s in range(sys.rank) if mask >> s & 1)
        para = cx.parabolic(sys, J)
        assert (para.members, para.longest) == _bfs_parabolic(sys, J)


@pytest.mark.parametrize("make", [lambda: cx.type_a(3),
                                  lambda: cx.dihedral(4),
                                  lambda: cx.type_b(2)])
def test_max_rep_characterization(make):
    sys = make()
    for mask in range(1 << sys.rank):
        J = frozenset(s for s in range(sys.rank) if mask >> s & 1)
        para = cx.parabolic(sys, J)
        sets, coset_id = cx.cosets(sys, J)
        assert len(sets) * len(para.members) == sys.order
        for i in range(sys.order):
            rep = cx.coset_max_rep(sys, para, i)
            assert coset_id[rep] == coset_id[i]
            members = sets[coset_id[i]]
            assert sys.length[rep] == max(sys.length[x] for x in members)


def test_vertex_counts():
    for n in (2, 3, 4, 5):
        assert cx.vertex_count(cx.type_a(n - 1)) == 2 ** n - 2
    for m in (3, 4, 5, 6):
        assert cx.vertex_count(cx.dihedral(m)) == 2 * m
    assert cx.vertex_count(cx.type_a(1)) == 2


@pytest.mark.parametrize("n,catalan", [(3, 5), (4, 14), (5, 42), (6, 132)])
def test_catalan_quotient_sizes(n, catalan):
    sys = cx.type_a(n - 1)
    J = frozenset(range(sys.rank)) - {sys.rank - 1}
    assert len(cx.catalan_quotient(sys, J)) == catalan


def test_quotient_degenerate_cases():
    sys = cx.type_a(2)
    full = frozenset(range(sys.rank))
    assert len(cx.catalan_quotient(sys, full)) == 1
    assert len(cx.double_catalan_quotient(sys, full)) == 1
    # empty J: regular action, the quotient is the whole 0-Hecke monoid
    from catkit import hecke
    regular = cx.catalan_quotient(sys, frozenset())
    assert len(regular) == sys.order
    assert generators_match(regular, hecke.hecke_monoid(3))


@pytest.mark.parametrize("n", [3, 4, 5])
def test_double_catalan_quotient_matches_direct(n):
    sys = cx.type_a(n - 1)
    J = frozenset(range(sys.rank)) - {sys.rank - 1}
    assert generators_match(cx.double_catalan_quotient(sys, J),
                            dcm.dc_monoid(n))


def test_dihedral_double_catalan_regression():
    table = cx.double_catalan_quotient(cx.dihedral(4), frozenset({1}))
    assert len(table) == 7


def test_bruhat_order_on_system():
    sys = cx.type_a(2)
    ident = 0
    for i in range(sys.order):
        assert cx.bruhat_leq(sys, ident, i)
        assert cx.bruhat_leq(sys, i, sys.longest)
    # projection to max representatives is order preserving
    for mask in range(1 << sys.rank):
        para = cx.parabolic(sys, frozenset(s for s in range(sys.rank)
                                           if mask >> s & 1))
        for u in range(sys.order):
            for w in range(sys.order):
                if cx.bruhat_leq(sys, u, w):
                    assert cx.bruhat_leq(sys,
                                         cx.coset_max_rep(sys, para, u),
                                         cx.coset_max_rep(sys, para, w))
