import gc
import random
from functools import cache

import pytest
from hypothesis import given, strategies as st

from catkit import boolmat as bm
from catkit import coxeter as cx
from catkit import dcm
from catkit import hecke
from catkit import permutations as pm
from catkit.monoid import (MonoidCapExceeded, enumerate_presentation,
                           generate_monoid, generators_match)
from catkit.verify import check_dc_fibers

import oracles


def perms(n_max=6):
    return st.integers(min_value=1, max_value=n_max).flatmap(
        lambda n: st.permutations(list(range(1, n + 1))).map(tuple))


def test_generator_matrices():
    eps = {i: dcm.generator(i, 4) for i in (1, 2, 3)}
    assert bm.to_row_strings(eps[1]) == ["1100", "1100", "0010", "0001"]
    assert bm.to_row_strings(eps[2]) == ["1000", "0110", "0110", "0001"]
    assert bm.to_row_strings(eps[3]) == ["1000", "0100", "0011", "0011"]
    assert dcm.generator(1, 2) == oracles.all_ones(2)
    for e in eps.values():
        assert bm.transpose(e) == e
        assert bm.mul(e, e) == e
        assert bm.is_convex(e)
    with pytest.raises(ValueError):
        dcm.generator(4, 4)


def test_row_sum_description():
    """Left multiplication by a generator ORs two adjacent rows, right
    multiplication two adjacent columns."""
    xi = bm.from_row_strings(["1110", "1110", "0110", "0011"])
    for i in (1, 2, 3):
        left = bm.mul(dcm.generator(i, 4), xi)
        merged = xi.rows[i - 1] | xi.rows[i]
        assert left.rows[i - 1] == left.rows[i] == merged
        right = bm.mul(xi, dcm.generator(i, 4))
        rt = bm.transpose(right)
        xt = bm.transpose(xi)
        assert rt.rows[i - 1] == rt.rows[i] == xt.rows[i - 1] | xt.rows[i]


def test_projection_values():
    assert dcm.dc_of_perm(pm.identity(4)) == bm.identity_mat(4)
    for n in (2, 3, 4, 5):
        for i in range(1, n):
            assert dcm.dc_of_perm(pm.simple_transposition(i, n)) == \
                dcm.generator(i, n)
    x = dcm.dc_of_perm((2, 3, 1))
    assert oracles.column_support(x, 1) == {1, 2}
    assert oracles.column_support(x, 2) == {1, 2, 3}
    assert oracles.column_support(x, 3) == {1, 2, 3}


@given(perms())
def test_projection_two_routes_always_agree(w):
    dcm.dc_of_perm(w)  # raises InternalInconsistency on disagreement


@given(perms(5))
def test_projection_is_homomorphism(w):
    n = len(w)
    for i in range(1, n):
        left = hecke.gen_mul(i, w, "left")
        assert dcm.dc_of_perm(left) == bm.mul(dcm.generator(i, n),
                                              dcm.dc_of_perm(w))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_projection_compatible_with_hecke_product(n):
    for u in pm.all_perms(n):
        mu = dcm.dc_of_perm(u)
        for w in pm.all_perms(n):
            assert dcm.dc_of_perm(hecke.mul(u, w)) == \
                bm.mul(mu, dcm.dc_of_perm(w))


@given(perms())
def test_projection_respects_involutions(w):
    assert bm.transpose(dcm.dc_of_perm(w)) == dcm.dc_of_perm(pm.invert(w))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_projection_preserves_bruhat_order(n):
    for u in pm.all_perms(n):
        xu = dcm.dc_of_perm(u)
        for w in pm.all_perms(n):
            if pm.bruhat_leq(u, w):
                assert oracles.subset_leq(xu, dcm.dc_of_perm(w))


@pytest.mark.parametrize("n,size", [(1, 1), (2, 2), (3, 6), (4, 23),
                                    (5, 103), (6, 513)])
def test_monoid_sizes(n, size):
    assert len(dcm.dc_monoid(n)) == size


@pytest.mark.parametrize("n,size", [(2, 2), (3, 5), (4, 14), (5, 42),
                                    (6, 132)])
def test_catalan_monoid_is_the_type_a_catalan_quotient(n, size):
    # The second route: the folding action of A_{n-1} on the longest coset
    # representatives modulo the parabolic of every generator but the first.
    table = dcm.catalan_monoid(n)
    quotient = cx.catalan_quotient(cx.type_a(n - 1), frozenset(range(1, n - 1)))
    assert len(table) == len(quotient) == size
    assert generators_match(table, quotient)


@pytest.mark.parametrize("n", range(10))
def test_gathered_catalan_closure_matches_compose_map(n):
    table = dcm.catalan_monoid(n)
    gens = [pm.ltr_maxima(pm.simple_transposition(i, n)) for i in range(1, n)]
    reference = generate_monoid(gens, pm.compose_map, pm.identity(n))
    for name in ("elements", "right", "words", "parent"):
        assert getattr(table, name) == getattr(reference, name), name


@pytest.mark.parametrize("n", range(9))
def test_packed_closure_matches_the_boolmat_reference(n):
    table = dcm.dc_monoid(n)
    reference = generate_monoid(dcm.generators(n), bm.mul, bm.identity_mat(n))
    for name in ("elements", "index", "right", "words", "parent", "gens"):
        assert getattr(table, name) == getattr(reference, name), name
    assert all(type(x) is bm.BoolMat for x in table.elements)


def test_degree_cap():
    """The cap counts elements, so it bounds the degree only through the
    size of DC_n: DC_5 has 103 elements, DC_6 has 513."""
    assert len(dcm.dc_monoid(5, cap=103)) == 103
    with pytest.raises(MonoidCapExceeded):
        dcm.dc_monoid(6, cap=103)
    with pytest.raises(MonoidCapExceeded):
        dcm.self_dual_count(5, cap=102)


@pytest.mark.parametrize("n", range(9))
def test_orbit_size_matches_the_closure_table(n):
    assert dcm.dc_size(n) == len(dcm.dc_monoid(n))


@pytest.mark.parametrize("n", range(8))
def test_orbit_holds_the_closure_table_elements(n):
    orbit = {int.from_bytes(x, "little") for x in dcm._dc_orbit(n)}
    assert orbit == set(dcm.dc_monoid(n).bits)


def test_orbit_leaves_a_level_once_it_is_past_the_cap(monkeypatch):
    """At degree 40 and cap 50, the identity's 39 products join, and the
    next level is refused after its second generator, whose products alone
    pass the cap, not after all 39."""
    drawn = []
    lanes = bm._column_or_lanes

    def counted(n, count, x):
        for y in lanes(n, count, x):
            drawn.append(count)
            yield y
    monkeypatch.setattr(bm, "_column_or_lanes", counted)
    with pytest.raises(MonoidCapExceeded,
                       match="^closure of DC_40 exceeded cap of 50 elements$"):
        dcm.dc_size(40, cap=50)
    assert drawn == [1] * 39 + [39] * 2


@pytest.mark.parametrize("n,size", [(1, 1), (4, 23), (5, 103), (6, 513)])
def test_orbit_cap_is_the_closure_cap(n, size):
    """A cap of exactly |DC_n| suffices and one less refuses, with the
    message of the closure table."""
    assert dcm.dc_size(n, cap=size) == size
    if size > 1:  # the identity is never refused
        with pytest.raises(MonoidCapExceeded) as orbit:
            dcm.dc_size(n, cap=size - 1)
        with pytest.raises(MonoidCapExceeded) as table:
            dcm.dc_monoid(n, cap=size - 1)
        assert str(orbit.value) == str(table.value) == (
            f"closure of DC_{n} exceeded cap of {size - 1} elements")


def test_fibers():
    ident = bm.identity_mat(4)
    assert dcm.fiber(ident) == (pm.identity(4),)
    ones = oracles.all_ones(4)
    assert set(dcm.fiber(ones)) == {(4, 2, 3, 1), (4, 3, 2, 1)}
    assert dcm.fiber(dcm.generator(1, 3)) == ((2, 1, 3),)
    outside = bm.from_row_strings(["11", "01"])
    with pytest.raises(ValueError):
        dcm.fiber(outside)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_fibers_partition_the_group(n):
    total = sum(len(dcm.fiber(x)) for x in dcm.dc_monoid(n).elements)
    assert total == len(list(pm.all_perms(n)))


def test_fiber_analysis():
    report = dcm.fiber_analysis(oracles.all_ones(4))
    assert report.tau == (4, 2, 3, 1)
    assert report.maximal == {(4, 3, 2, 1)}
    assert report.convex
    for i in (1, 2):
        singleton = dcm.fiber_analysis(dcm.generator(i, 3))
        assert singleton.tau == pm.simple_transposition(i, 3)
        assert singleton.maximal == {pm.simple_transposition(i, 3)}


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5, 6, 7])
def test_projection_fibers_equal_the_dc_of_perm_scan(n):
    """The lexicographic pass gives the fibers of the two-route scan,
    with the same key order and the same member order."""
    scan = {}
    for w in pm.all_perms(n):
        scan.setdefault(dcm.dc_of_perm(w), []).append(w)
    assert list(dcm.projection_fibers(n).items()) == \
        [(x, tuple(ws)) for x, ws in scan.items()]


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5, 6, 7])
def test_projection_fibers_equal_the_descent_scan(n):
    """The prefix sweep gives the fibers of the per-permutation pass, with
    the same key order and member order, and members that are tuples."""
    fibers = list(dcm.projection_fibers(n).items())
    assert fibers == list(oracles.projection_fibers_by_descent_scan(n).items())
    assert all(type(x) is bm.BoolMat for x, _ in fibers)
    assert all(type(w) is tuple for _, ws in fibers for w in ws)


def test_projection_fibers_name_the_permutation_where_the_routes_disagree(
        monkeypatch):
    """One flipped bit in the fill of column 2 over rows 1..4, which 2413
    is the first permutation of S_4 to use (its prefix 24 has maximum 4
    and leaves 1 unplaced), ends the sweep at 2413."""
    fill_cells = bm._fill_cells

    def flipped(n):
        cells = fill_cells(n)
        cells[1][1][4] ^= 1 << 1  # the entry (1, 2)
        return cells

    monkeypatch.setattr(bm, "_fill_cells", flipped)
    with pytest.raises(dcm.InternalInconsistency,
                       match="projection routes disagree for 2413"):
        dcm.projection_fibers.__wrapped__(4)


def test_projection_fibers_name_the_permutation_where_a_step_is_wrong(
        monkeypatch):
    """One flipped bit in the generator step from the image of 2143 to the
    image of 2413, whose fiber has no other member, ends the sweep at
    2413."""
    source = dcm.dc_of_perm((2, 1, 4, 3)).bits
    target = dcm.dc_of_perm((2, 4, 1, 3)).bits
    column_or = bm._column_or

    def flipped(n, keys):
        step = column_or(n, keys)

        def flipped_step(x, key):
            y = step(x, key)
            return y ^ 1 if (x, y) == (source, target) else y
        return flipped_step

    monkeypatch.setattr(bm, "_column_or", flipped)
    with pytest.raises(dcm.InternalInconsistency,
                       match="projection routes disagree for 2413"):
        dcm.projection_fibers.__wrapped__(4)


def test_projection_fibers_leave_no_reference_cycle():
    """With the collector paused, the sweep leaves nothing for it to
    find: no object outlives the call by a cycle."""
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        dcm.projection_fibers.__wrapped__(6)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_projection_fibers_of_degree_eight():
    fibers = dcm.projection_fibers(8)
    assert len(fibers) == 15767   # A005802, the 4321-avoiders of S_8
    members = [w for ws in fibers.values() for w in ws]
    assert len(members) == len(set(members)) == 40320


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_bruhat_covers(n):
    """v covers u iff u <= v and v has exactly one more inversion."""
    group = list(pm.all_perms(n))
    for u in group:
        covers = list(pm.bruhat_covers(u))
        assert len(covers) == len(set(covers))
        assert set(covers) == {
            v for v in group if pm.bruhat_leq(u, v)
            and pm.inversions(v) == pm.inversions(u) + 1}


@cache
def _bruhat_relation(n):
    """Every pair (u, v) of S_n with u <= v in the Bruhat order."""
    group = list(pm.all_perms(n))
    return frozenset((u, v) for u in group for v in group
                     if pm.bruhat_leq(u, v))


def _convex_by_scan(members, n):
    """Bruhat convexity by definition: whatever lies between two members is
    a member."""
    leq = _bruhat_relation(n)
    member_set = set(members)
    return all(v in member_set
               for u in members for w in members
               if u != w and (u, w) in leq
               for v in pm.all_perms(n)
               if (u, v) in leq and (v, w) in leq)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_fiber_convexity_matches_the_definition(n):
    for x in dcm.dc_monoid(n).elements:
        assert dcm.fiber_analysis(x).convex == \
            _convex_by_scan(dcm.fiber(x), n)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_exit_rule_matches_the_definition_on_random_subsets(n):
    """Seeded subsets of S_n: arbitrary ones, mostly not convex, and
    Bruhat intervals with and without one inner element removed.  Every
    subset of the chains S_1 and S_2 is convex."""
    rng = random.Random(n)
    group = list(pm.all_perms(n))
    leq = _bruhat_relation(n)
    subsets = [rng.sample(group, rng.randint(1, min(8, len(group))))
               for _ in range(150)]
    pairs = sorted(leq)
    for _ in range(150):
        u, w = rng.choice(pairs)
        interval = [v for v in group if (u, v) in leq and (v, w) in leq]
        subsets.append(interval)
        if len(interval) > 2:
            inner = [v for v in interval if v not in (u, w)]
            subsets.append([v for v in interval if v != rng.choice(inner)])
    seen = set()
    for members in subsets:
        convex = _convex_by_scan(members, n)
        assert dcm._bruhat_convex(members, members) == convex, members
        seen.add(convex)
    assert seen == ({True, False} if n >= 3 else {True})


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_fiber_structure_exhaustive(n):
    for x in dcm.dc_monoid(n).elements:
        report = dcm.fiber_analysis(x)  # raises on any uniqueness failure
        assert report.convex


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5, 6, 7])
def test_bruhat_maximal_matches_the_pairwise_reference(n):
    for members in dcm.projection_fibers(n).values():
        assert dcm._bruhat_maximal(members) == \
            oracles.bruhat_maximal_by_pairs(members)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5, 6, 7])
def test_cover_rule_matches_the_cover_route(n):
    """On every fiber, each member has a cover in the fiber by the rule iff
    one of its listed covers is a member, so both routes find the same
    candidates and the same maxima."""
    for members in dcm.projection_fibers(n).values():
        member_set = set(members)
        tops, bottoms = pm.ltr_maxima(members[0]), pm.rtl_minima(members[0])
        for u in members:
            assert dcm._has_cover_in_fiber(u, tops, bottoms) == any(
                v in member_set for v in pm.bruhat_covers(u)), u
        assert dcm._bruhat_maximal(members) == \
            oracles.bruhat_maximal_by_covers(members)


def test_bruhat_maximal_compares_its_candidates(monkeypatch):
    """With every member a candidate, the comparison alone must find the
    maxima: no fiber to degree 7 has a candidate below another member, so
    the fibers alone would not see the comparison skipped."""
    monkeypatch.setattr(dcm, "_has_cover_in_fiber", lambda *args: False)
    for n in range(6):
        for members in dcm.projection_fibers(n).values():
            assert dcm._bruhat_maximal(members) == \
                oracles.bruhat_maximal_by_pairs(members)


# The cover route works on any set of permutations, not only whole fibers.

@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_bruhat_maximal_matches_the_pairwise_reference_on_catalan_fibers(n):
    for alpha in pm.all_nondecreasing_maps(n):
        members = tuple(dcm._maxima_fiber(alpha))
        assert oracles.bruhat_maximal_by_covers(members) == \
            oracles.bruhat_maximal_by_pairs(members)


def test_bruhat_maximal_of_small_sets():
    """One member, an antichain, and a chain with a gap, whose bottom no
    member covers although it is not maximal."""
    maximal = oracles.bruhat_maximal_by_covers
    assert maximal(((2, 1, 3),)) == {(2, 1, 3)}
    assert maximal(((),)) == {()}
    antichain = ((2, 1, 3), (1, 3, 2))
    assert maximal(antichain) == set(antichain)
    assert maximal(((1, 2, 3), (3, 2, 1))) == {(3, 2, 1)}
    assert maximal(((1, 2, 3), (1, 3, 2), (3, 1, 2))) == {(3, 1, 2)}


@pytest.mark.parametrize("n", [3, 4, 5])
def test_bruhat_maximal_matches_the_pairwise_reference_on_random_subsets(n):
    """Seeded subsets of S_n, where, unlike in the fibers, a member that
    no member covers can lie below another member."""
    rng = random.Random(n)
    group = list(pm.all_perms(n))
    for _ in range(300):
        members = tuple(rng.sample(group, rng.randint(1, min(12, len(group)))))
        assert oracles.bruhat_maximal_by_covers(members) == \
            oracles.bruhat_maximal_by_pairs(members)


def test_multimaximal_fiber_witness():
    """Fibers can have several maximal members; the first case is degree 7."""
    for n in (2, 3, 4, 5, 6):
        assert dcm.first_multimaximal_fiber(n) is None
    found = dcm.first_multimaximal_fiber(7)
    assert found is not None
    x, maximal = found
    assert maximal == {(5, 2, 7, 6, 1, 4, 3), (5, 4, 7, 2, 1, 6, 3)}
    assert all(pm.avoids(w, (4, 2, 3, 1)) for w in maximal)
    assert all(dcm.dc_of_perm(w) == x for w in maximal)


def test_multimaximal_fiber_skips_fibers_of_one_member(monkeypatch):
    """A fiber of one member is its own maximum, so no such fiber is
    searched, and the first multi-maximal fiber is the full scan's."""
    maximal, sizes = dcm._bruhat_maximal, []
    monkeypatch.setattr(dcm, "_bruhat_maximal",
                        lambda members: sizes.append(len(members))
                        or maximal(members))
    for n in range(8):
        fibers = dcm.projection_fibers(n)
        full = next(((x, top) for x in dcm.dc_monoid(n).elements
                     if len(top := maximal(fibers[x])) > 1), None)
        assert dcm.first_multimaximal_fiber(n) == full
    assert sizes and min(sizes) > 1


def test_catalan_fiber_analysis():
    ident = dcm.catalan_fiber_analysis((1, 2, 3))
    assert ident.pi == ident.pi_prime == (1, 2, 3)
    rep = dcm.catalan_fiber_analysis((3, 3, 3))
    assert rep.pi == (3, 1, 2)
    assert rep.pi_prime == (3, 2, 1)
    assert rep.interval
    singleton = dcm.catalan_fiber_analysis((2, 3, 3))
    assert singleton.pi == singleton.pi_prime == (2, 3, 1)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_catalan_fiber_structure_exhaustive(n):
    for alpha in pm.all_nondecreasing_maps(n):
        assert dcm.catalan_fiber_analysis(alpha).interval


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_maxima_fiber_matches_the_scan(n):
    for alpha in pm.all_nondecreasing_maps(n):
        assert dcm._maxima_fiber(alpha) == [
            w for w in pm.all_perms(n) if pm.ltr_maxima(w) == alpha]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_catalan_interval_matches_the_full_scan(n):
    """The fiber equals [pi, pi_prime] iff every permutation of S_n is in
    the fiber exactly when it lies in that interval."""
    for alpha in pm.all_nondecreasing_maps(n):
        report = dcm.catalan_fiber_analysis(alpha)
        scan = all((pm.ltr_maxima(v) == alpha)
                   == (pm.bruhat_leq(report.pi, v)
                       and pm.bruhat_leq(v, report.pi_prime))
                   for v in pm.all_perms(n))
        assert report.interval == scan


def test_dc_fiber_check_reaches_degree_seven():
    result = check_dc_fibers(7, random.Random(0))
    assert result.passed
    assert result.details == {"range": "1..7"}


def test_dc_fiber_check_reaches_degree_eight():
    result = check_dc_fibers(9, random.Random(0))
    assert result.passed
    assert result.details == {"range": "1..8"}


@pytest.mark.parametrize("n,count", [(1, 1), (2, 2), (3, 4), (4, 9),
                                     (5, 21), (6, 51)])
def test_self_dual_counts(n, count):
    assert dcm.self_dual_count(n) == count
    assert dcm.motzkin_number(n) == count
    assert pm.count_avoiding_involutions(n, (4, 3, 2, 1)) == count


@pytest.mark.parametrize("n", range(1, 8))
def test_self_dual_count_matches_is_symmetric(n):
    """The count transposes bits; is_symmetric compares BoolMats."""
    table = dcm.dc_monoid(n)
    symmetric = [dcm.is_symmetric(x) for x in table.elements]
    assert [bm._transpose_bits(n, x) == x for x in table.bits] == symmetric
    assert dcm.self_dual_count(n) == sum(symmetric)


@pytest.mark.parametrize("n", range(9))
def test_transpose_pass_matches_transposing_each_element(n):
    """The pass reads each transpose off a left column of the closure; the
    reference transposes the bits of each element."""
    table = dcm.dc_monoid(n)
    t = dcm._transposes(table)
    assert [table.bits[k] for k in t] == [bm._transpose_bits(n, x)
                                          for x in table.bits]


def test_self_dual_count_refuses_a_generator_that_is_not_symmetric(
        monkeypatch):
    """The pass holds only if the transpose fixes every generator."""
    table = dcm.dc_monoid.__wrapped__(4)  # a fresh table, not the cached one
    table.bits[table.gens[1]] |= 1 << 2  # the entry (1, 3) of the second
    monkeypatch.setattr(dcm, "_capped", lambda n, cap: table)
    with pytest.raises(dcm.InternalInconsistency,
                       match="generator of DC_4 is not symmetric"):
        dcm.self_dual_count(4)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_self_dual_bijection_with_avoiding_involutions(n):
    symmetric = [x for x in dcm.dc_monoid(n).elements if dcm.is_symmetric(x)]
    taus = {dcm.fiber_analysis(x).tau for x in symmetric}
    assert len(taus) == len(symmetric)
    expected = {w for w in pm.all_perms(n)
                if pm.is_involution(w) and pm.avoids(w, (4, 3, 2, 1))}
    assert taus == expected


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_idempotents_are_block_ones(n):
    idem = dcm.dc_idempotents(n)
    assert len(idem) == 2 ** (n - 1)
    assert bm.identity_mat(n) in idem
    for x in idem:
        assert dcm.is_block_all_ones(x)
    others = [x for x in dcm.dc_monoid(n).elements
              if dcm.is_block_all_ones(x)]
    assert set(idem) == set(others)


def test_idempotents_wrap_no_other_element(monkeypatch):
    """Only the idempotents are made BoolMats, from the table's bits; the
    table's elements stay unmade."""
    table = dcm.dc_monoid.__wrapped__(6)  # a fresh table, not the cached one
    monkeypatch.setattr(dcm, "dc_monoid", lambda n: table)
    idem = dcm.dc_idempotents(6)
    assert table._elements is None
    assert [x.bits for x in idem] == [table.bits[i]
                                      for i in table.idempotent_indices()]


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_block_all_ones_matches_the_row_reference_exhaustively(n):
    for bits in range(1 << (n * n)):
        x = bm.from_bits(n, bits)
        assert dcm.is_block_all_ones(x) is oracles.is_block_all_ones_rows(
            x.rows), x.rows


def test_block_all_ones_matches_the_row_reference_on_dc6():
    elements = dcm.dc_monoid(6).elements
    found = [x for x in elements
             if oracles.is_block_all_ones_rows(x.rows)]
    assert len(found) == 2 ** 5
    assert [x for x in elements if dcm.is_block_all_ones(x)] == found


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_long_relation_holds(n):
    for i in range(1, n - 2):
        lhs = bm.identity_mat(n)
        for k in (i, i + 1, i + 2, i + 1, i):
            lhs = bm.mul(lhs, dcm.generator(k, n))
        rhs = bm.identity_mat(n)
        for k in (i, i + 1, i + 2, i, i + 1, i):
            rhs = bm.mul(rhs, dcm.generator(k, n))
        assert lhs == rhs


def test_presentation_relation_list():
    rels = dcm.presentation_relations(4)
    assert ((1, 1), (1,)) in rels
    assert ((1, 3), (3, 1)) in rels
    assert ((1, 2, 1), (2, 1, 2)) in rels
    assert ((1, 2, 3, 2, 1), (1, 2, 3, 1, 2, 1)) in rels
    # the long relation needs i+2 <= n-1
    assert not any(len(a) == 5 for a, b in dcm.presentation_relations(3))


def _zero_based(rels):
    return [(tuple(x - 1 for x in lhs), tuple(x - 1 for x in rhs))
            for lhs, rhs in rels]


@pytest.mark.parametrize("n,size", [(2, 2), (3, 6), (4, 23), (5, 103),
                                    (6, 513), (7, 2761), (8, 15767)])
def test_presentation_verification(n, size):
    report = dcm.verify_presentation(n)
    assert report.presented_size == size
    assert report.matches


def test_presentation_degree_five():
    """Read in the matrix generators, the presented table is DC_5 itself."""
    table = enumerate_presentation(4, _zero_based(
        dcm.presentation_relations(5)))
    gens = dcm.generators(5)
    images = []
    for word in table.words:
        x = bm.identity_mat(5)
        for g in word:
            x = bm.mul(x, gens[g])
        images.append(x)
    assert len(set(images)) == len(images) == 103
    assert set(images) == set(dcm.dc_monoid(5).elements)
    for i, row in enumerate(table.right):
        for g, j in enumerate(row):
            assert images[j] == bm.mul(images[i], gens[g])


@pytest.mark.parametrize("n,size", [(2, 2), (3, 6), (4, 24), (5, 120)])
def test_without_long_relation_presents_hecke(n, size):
    rels = [r for r in dcm.presentation_relations(n) if len(r[0]) != 5]
    table = enumerate_presentation(n - 1, _zero_based(rels))
    assert len(table) == size
    assert generators_match(table, hecke.hecke_monoid(n))
    # from degree 4 on the long relation is needed to present DC_n
    assert generators_match(table, dcm.dc_monoid(n)) == (n < 4)


def test_presentation_cap_bounds_both_closures():
    # DC_4 has 23 elements, and its enumeration holds at most 35 live nodes
    assert dcm.verify_presentation(4, cap=35).matches
    with pytest.raises(MonoidCapExceeded, match="live nodes"):
        dcm.verify_presentation(4, cap=34)
    with pytest.raises(MonoidCapExceeded, match="elements"):
        dcm.verify_presentation(4, cap=22)


def test_without_idempotency_the_enumeration_hits_the_cap():
    rels = [r for r in dcm.presentation_relations(4) if len(r[1]) != 1]
    with pytest.raises(MonoidCapExceeded):
        enumerate_presentation(3, _zero_based(rels), cap=1000)
