import pytest
from hypothesis import given, strategies as st

from catkit import hecke
from catkit import permutations as pm
from catkit.monoid import generate_monoid

from oracles import all_chambers, bruhat_ideal_by_subwords, chamber_of


def perms(n_max=5):
    return st.integers(min_value=1, max_value=n_max).flatmap(
        lambda n: st.permutations(list(range(1, n + 1))).map(tuple))


def perm_tuples(count, n_max=5):
    return st.integers(min_value=1, max_value=n_max).flatmap(
        lambda n: st.tuples(*(st.permutations(
            list(range(1, n + 1))).map(tuple) for _ in range(count))))


def test_generator_multiplication():
    s1 = pm.simple_transposition(1, 3)
    s2 = pm.simple_transposition(2, 3)
    assert hecke.gen_mul(1, s1, "left") == s1          # idempotent
    assert hecke.gen_mul(1, s2, "left") == (2, 3, 1)   # lengthens
    w0 = (3, 2, 1)
    for i in (1, 2):
        assert hecke.gen_mul(i, w0, "left") == w0
        assert hecke.gen_mul(i, w0, "right") == w0
    with pytest.raises(ValueError):
        hecke.gen_mul(3, s1, "left")


def test_products():
    s1 = pm.simple_transposition(1, 3)
    s2 = pm.simple_transposition(2, 3)
    assert hecke.mul(s1, s2) == (2, 3, 1)
    w0 = (3, 2, 1)
    for z in pm.all_perms(3):
        assert hecke.mul(w0, z) == w0
        assert hecke.mul(z, w0) == w0
    assert hecke.mul(hecke.mul(s1, s2), s1) == w0
    assert hecke.mul(hecke.mul(s2, s1), s2) == w0


@given(perms(4))
def test_defining_relations(z):
    n = len(z)
    for i in range(1, n):
        assert hecke.gen_mul(i, hecke.gen_mul(i, z), "left") == \
            hecke.gen_mul(i, z, "left")
        for j in range(i + 2, n):
            ij = hecke.gen_mul(i, hecke.gen_mul(j, z))
            ji = hecke.gen_mul(j, hecke.gen_mul(i, z))
            assert ij == ji
    for i in range(1, n - 1):
        a = hecke.gen_mul(i, hecke.gen_mul(i + 1, hecke.gen_mul(i, z)))
        b = hecke.gen_mul(i + 1, hecke.gen_mul(i, hecke.gen_mul(i + 1, z)))
        assert a == b


@given(perm_tuples(3, 4))
def test_associativity(triple):
    a, b, c = triple
    assert hecke.mul(hecke.mul(a, b), c) == hecke.mul(a, hecke.mul(b, c))


@given(perm_tuples(2))
def test_canonical_involution(pair):
    a, b = pair
    assert hecke.reverse(hecke.mul(a, b)) == hecke.mul(hecke.reverse(b),
                                                       hecke.reverse(a))


def test_bruhat_ideals():
    assert hecke.bruhat_ideal(pm.identity(3)) == {pm.identity(3)}
    s1 = pm.simple_transposition(1, 3)
    assert hecke.bruhat_ideal(s1) == {pm.identity(3), s1}
    ideal = hecke.bruhat_ideal((2, 3, 1))
    assert ideal == {(1, 2, 3), (1, 3, 2), (2, 1, 3), (2, 3, 1)}


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_ideal_oracle_agreement(n):
    for w in pm.all_perms(n):
        assert hecke.bruhat_ideal(w) == bruhat_ideal_by_subwords(w)


def test_ideal_product():
    n = 3
    s1 = pm.simple_transposition(1, n)
    s2 = pm.simple_transposition(2, n)
    prod = hecke.ideal_product(hecke.bruhat_ideal(s1), hecke.bruhat_ideal(s2))
    assert prod == hecke.bruhat_ideal((2, 3, 1))
    ideal = hecke.bruhat_ideal((2, 3, 1))
    assert hecke.ideal_product({pm.identity(n)}, ideal) == ideal
    w0 = (3, 2, 1)
    assert w0 in hecke.ideal_product(ideal, {w0})


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_subset_realization_homomorphism(n):
    ideals = {w: hecke.bruhat_ideal(w) for w in pm.all_perms(n)}
    assert len(set(ideals.values())) == len(ideals)
    for u in pm.all_perms(n):
        for w in pm.all_perms(n):
            assert hecke.ideal_product(ideals[u], ideals[w]) == \
                ideals[hecke.mul(u, w)]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_order_compatibility(n):
    perms_n = list(pm.all_perms(n))
    for u in perms_n:
        for w in perms_n:
            if pm.bruhat_leq(u, w):
                assert hecke.bruhat_ideal(u) <= hecke.bruhat_ideal(w)
                for z in perms_n:
                    assert pm.bruhat_leq(hecke.mul(u, z), hecke.mul(w, z))
                    assert pm.bruhat_leq(hecke.mul(z, u), hecke.mul(z, w))


@pytest.mark.parametrize("n", range(7))
def test_fold_closure_matches_the_product_reference(n):
    table = hecke.hecke_monoid(n)
    gens = [pm.simple_transposition(i, n) for i in range(1, n)]
    reference = generate_monoid(gens, hecke.mul, pm.identity(n))
    for name in ("elements", "index", "right", "words", "parent", "gens"):
        assert getattr(table, name) == getattr(reference, name), name


@pytest.mark.parametrize("n,count", [(2, 2), (3, 4), (4, 8), (5, 16), (6, 32)])
def test_idempotent_count(n, count):
    assert len(hecke.idempotents(n)) == count


@pytest.mark.parametrize("n", range(7))
def test_idempotents_match_the_product_reference(n):
    """The idempotents read from the closure are the w with w * w = w under
    hecke.mul, in lexicographic order."""
    assert hecke.idempotents(n) == [w for w in pm.all_perms(n)
                                    if hecke.mul(w, w) == w]


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_idempotents_are_parabolic_longest_elements(n):
    for w in hecke.idempotents(n):
        # longest element of the parabolic generated by the left descents:
        # rebuild it by closing the descent generators and folding to the top
        descents = pm.left_descents(w)
        assert descents == pm.right_descents(w)
        top = pm.identity(n)
        changed = True
        while changed:
            changed = False
            for i in descents:
                nxt = hecke.gen_mul(i, top, "left")
                if nxt != top:
                    top = nxt
                    changed = True
        assert top == w


def test_fold():
    part = hecke.make_partition([{1, 3}, {2, 4}])
    assert hecke.fold(1, part) == hecke.make_partition([{2, 3}, {1, 4}])
    same_block = hecke.make_partition([{1, 2}, {3, 4}])
    assert hecke.fold(1, same_block) == same_block
    part2 = hecke.make_partition([{2}, {1, 3}])
    assert hecke.fold(2, part2) == hecke.make_partition([{3}, {1, 2}])
    # i+1 before i: fixed
    part3 = hecke.make_partition([{2, 3}, {1, 4}])
    assert hecke.fold(1, part3) == part3


def test_fold_matches_chamber_action():
    for n in (2, 3, 4):
        for w in pm.all_perms(n):
            for i in range(1, n):
                folded = hecke.fold(i, chamber_of(w))
                assert folded == chamber_of(hecke.gen_mul(i, w, "left"))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_chamber_action_is_regular(n):
    """Words in the foldings act identically on all chambers exactly when
    they produce the same monoid element."""
    chambers = all_chambers(n)
    pos = {c: k for k, c in enumerate(chambers)}

    def transformation(i):
        return tuple(pos[hecke.fold(i, c)] for c in chambers)

    pair_gens = [(transformation(i), pm.simple_transposition(i, n))
                 for i in range(1, n)]

    def pair_mul(x, y):
        return (tuple(x[0][v] for v in y[0]), hecke.mul(x[1], y[1]))

    ident = (tuple(range(len(chambers))), pm.identity(n))
    table = generate_monoid(pair_gens, pair_mul, ident)
    transformations = {t for t, _ in table.elements}
    elements = {z for _, z in table.elements}
    assert len(table) == len(transformations) == len(elements)


def test_partition_serialization():
    part = hecke.make_partition([{1, 3}, {2, 4}])
    assert hecke.format_partition(part) == "({1,3},{2,4})"
    assert hecke.parse_partition("({1,3},{2,4})") == part
    with pytest.raises(ValueError):
        hecke.make_partition([{1, 2, 3}])
    with pytest.raises(ValueError):
        hecke.make_partition([{1}, {1, 2}])


def partitions(n_max=12):
    """Ordered set partitions of {1..n} into at least two blocks: a word
    of {1..n} cut at a nonempty set of inner positions."""
    def cut(word, cuts):
        ends = sorted(cuts)
        return hecke.make_partition(
            word[i:j] for i, j in zip([0, *ends], [*ends, len(word)]))
    return st.integers(2, n_max).flatmap(lambda n: st.builds(
        cut, st.permutations(range(1, n + 1)),
        st.sets(st.integers(1, n - 1), min_size=1)))


@given(partitions())
def test_format_partition_round_trips(part):
    assert hecke.parse_partition(hecke.format_partition(part)) == part


@pytest.mark.parametrize("text", [
    "({1}{2})", "({1}x,{2})", "({1},,{2})", "({1,,2},{3})", "({},{1})",
    "({1},{2}", "{1},{2}", "({1}, {2})", "({ 1},{2})", "({+1},{2})",
    "({1},{2})x", "(({1},{2}))", "({1,2})"])
def test_parse_partition_refuses_anything_else(text):
    with pytest.raises(ValueError):
        hecke.parse_partition(text)
