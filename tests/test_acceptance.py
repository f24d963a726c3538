"""
Acceptance suite: every headline guarantee of the library, each run at its
full stated range and tolerance (exact equality throughout), printing one
pass/fail line per criterion.

Criterion 9 carries one documented expected failure: the path involution
provably does not fix the pyramid path U^n D^n for n >= 3 (its image is
the path of the prefix maxima of (2, 3, ..., n, 1)); the clause is kept as
a strict xfail rather than weakened.  Criterion 12 certifies the finite
presentation exactly, by coset enumeration, at every degree the matrix
closure reaches by default (2..8).
"""

import time
from contextlib import contextmanager
from math import comb, factorial

import pytest

from catkit import boolmat as bm
from catkit import coxeter as cx
from catkit import dcm
from catkit import dyck
from catkit import hecke
from catkit import permutations as pm
from catkit import repmin as rm
from catkit.monoid import generate_monoid, generators_match

from oracles import (cover_order_leq, enumerate_convex_by_reflexive_scan,
                     subset_leq)


@contextmanager
def criterion(num, name, limit=None):
    start = time.time()
    try:
        yield
    except BaseException:
        print(f"[criterion {num:>2}] {name}: FAIL")
        raise
    elapsed = time.time() - start
    print(f"[criterion {num:>2}] {name}: PASS ({elapsed:.1f}s)")
    if limit is not None:
        assert elapsed < limit, f"criterion {num} exceeded {limit}s"


def catalan(n):
    return comb(2 * n, n) // (n + 1)


def test_01_catalan_cardinality():
    with criterion(1, "catalan monoid cardinality", limit=5):
        for n in range(1, 8):
            gens = [pm.ltr_maxima(pm.simple_transposition(i, n))
                    for i in range(1, n)]
            table = generate_monoid(gens, pm.compose_map, pm.identity(n))
            assert len(table) == catalan(n)


def test_02_double_catalan_cardinality():
    with criterion(2, "double Catalan cardinality", limit=60):
        for n in range(1, 8):
            assert len(dcm.dc_monoid(n)) == pm.count_avoiding(n, (4, 3, 2, 1))


def test_03_motzkin_self_dual():
    with criterion(3, "self-dual count is Motzkin", limit=60):
        for n in range(1, 8):
            count = dcm.self_dual_count(n)
            assert count == pm.count_avoiding_involutions(n, (4, 3, 2, 1))
            assert count == dcm.motzkin_number(n)


def test_04_idempotents():
    with criterion(4, "idempotent counts and shapes"):
        for n in range(2, 7):
            assert len(hecke.idempotents(n)) == 2 ** (n - 1)
            idem = set(dcm.dc_idempotents(n))
            assert len(idem) == 2 ** (n - 1)
            blocky = {x for x in dcm.dc_monoid(n).elements
                      if dcm.is_block_all_ones(x)}
            assert idem == blocky


def test_05_subset_realization():
    with criterion(5, "ideal map is an injective homomorphism"):
        for n in range(1, 6):
            perms = list(pm.all_perms(n))
            idx = {w: k for k, w in enumerate(perms)}
            comp = [[idx[pm.compose(u, w)] for w in perms] for u in perms]
            ideals = [frozenset(idx[u] for u in perms if pm.bruhat_leq(u, w))
                      for w in perms]
            assert len(set(ideals)) == len(perms)  # injectivity
            for a in range(len(perms)):
                rows = [comp[x] for x in ideals[a]]
                for b in range(len(perms)):
                    want = ideals[idx[hecke.mul(perms[a], perms[b])]]
                    got = {row[y] for row in rows for y in ideals[b]}
                    assert got == want


def test_06_convex_isomorphism():
    import random
    with criterion(6, "convex relations are a product of Catalan monoids"):
        for n in range(1, 5):
            convex = list(enumerate_convex_by_reflexive_scan(n))
            assert len(convex) == catalan(n) ** 2
            pairs = {}
            for a in convex:
                pair = bm.to_map_pair(a)
                assert bm.from_map_pair(*pair) == a
                pairs[a] = pair
            assert len(set(pairs.values())) == len(convex)  # bijectivity
            for a in convex:
                for b in convex:
                    ab = bm.mul(a, b)
                    assert bm.is_convex(ab)
                    assert pairs[ab] == (
                        pm.compose_map(pairs[a][0], pairs[b][0]),
                        pm.compose_map(pairs[a][1], pairs[b][1]))
                    if subset_leq(a, b):
                        assert all(x <= y for x, y in
                                   zip(pairs[a][0], pairs[b][0]))
                        assert all(x >= y for x, y in
                                   zip(pairs[a][1], pairs[b][1]))
        rng = random.Random(20240229)
        for n in (5, 6):
            for _ in range(10_000):
                alpha = _random_nondecreasing(n, rng)
                beta = _random_nonincreasing(n, rng)
                a = bm.from_map_pair(alpha, beta)
                assert bm.is_convex(a)
                assert bm.to_map_pair(a) == (alpha, beta)
                b = bm.from_map_pair(_random_nondecreasing(n, rng),
                                     _random_nonincreasing(n, rng))
                ab = bm.mul(a, b)
                assert bm.is_convex(ab)
                pa, pb = bm.to_map_pair(a), bm.to_map_pair(b)
                assert bm.to_map_pair(ab) == (
                    pm.compose_map(pa[0], pb[0]),
                    pm.compose_map(pa[1], pb[1]))
                bigger = bm.union(a, b)  # contains a, stays convex
                pu = bm.to_map_pair(bigger)
                assert all(x <= y for x, y in zip(pa[0], pu[0]))
                assert all(x >= y for x, y in zip(pa[1], pu[1]))


def _random_nondecreasing(n, rng):
    vals = []
    prev = 1
    for i in range(1, n + 1):
        lo = max(prev, i)
        vals.append(rng.randint(lo, n))
        prev = vals[-1]
    return tuple(vals)


def _random_nonincreasing(n, rng):
    vals = []
    prev = 1
    for i in range(1, n + 1):
        vals.append(rng.randint(prev, i))
        prev = vals[-1]
    return tuple(vals)


def test_07_projection_two_routes():
    with criterion(7, "projection routes agree on all of S_n, n <= 6"):
        for n in range(1, 7):
            for w in pm.all_perms(n):
                dcm.dc_of_perm(w)  # internal comparison raises on mismatch


def test_08_fiber_structure():
    with criterion(8, "fiber structure of both projections, n <= 5"):
        for n in range(1, 6):
            total = 0
            for x in dcm.dc_monoid(n).elements:
                report = dcm.fiber_analysis(x)
                assert report.convex
                total += len(dcm.fiber(x))
            assert total == factorial(n)
            for alpha in pm.all_nondecreasing_maps(n):
                assert dcm.catalan_fiber_analysis(alpha).interval


def test_09_kreweras_involution():
    with criterion(9, "path derivative is an involution fixing the sawtooth"):
        for n in range(1, 8):
            for path in dyck.all_dyck_paths(n):
                assert dyck.kreweras_derivative(
                    dyck.kreweras_derivative(path)) == path
            assert dyck.kreweras_derivative("UD" * n) == "UD" * n


@pytest.mark.xfail(strict=True, reason=(
    "stated fixed point U^n D^n is provably not fixed for n >= 3: the "
    "derivative sends it to the path of the prefix maxima of the cycle "
    "(2, 3, ..., n, 1), which differs from U^n D^n"))
def test_09_kreweras_pyramid_clause():
    with criterion("9b", "path derivative fixes the pyramid (documented defect)"):
        for n in range(1, 8):
            pyramid = "U" * n + "D" * n
            assert dyck.kreweras_derivative(pyramid) == pyramid


def test_10_order_equivalence():
    with criterion(10, "divisibility order equals cover order, n <= 5"):
        for n in range(1, 6):
            maps = list(pm.all_nondecreasing_maps(n))
            for a in maps:
                for b in maps:
                    assert dyck.factor_order_leq(a, b) == \
                        cover_order_leq(a, b)


def test_11_admissible_pairs():
    with criterion(11, "admissibility criterion vs brute force, n <= 6",
                   limit=300):
        for n in range(1, 7):
            realized = dyck.brute_force_admissible_pairs(n)
            paths = dyck.all_dyck_paths(n)
            for p1 in paths:
                for p2 in paths:
                    assert dyck.is_admissible(p1, p2) == \
                        ((p1, p2) in realized)


def test_12_presentation():
    with criterion(12, "finite presentation certified, degrees 2..8"):
        expected = {2: 2, 3: 6, 4: 23, 5: 103, 6: 513, 7: 2761, 8: 15767}
        for n, size in expected.items():
            report = dcm.verify_presentation(n)
            assert report.presented_size == size
            assert report.matches


SOCLE_SYSTEMS = [lambda: cx.type_a(2), lambda: cx.type_a(3),
                 lambda: cx.type_a(4), lambda: cx.type_b(2),
                 lambda: cx.type_b(3), lambda: cx.dihedral(3),
                 lambda: cx.dihedral(4), lambda: cx.dihedral(5),
                 lambda: cx.dihedral(6)]


def test_13_simple_socles():
    with criterion(13, "reduced projectives have the predicted simple socle",
                   limit=60):
        for make in SOCLE_SYSTEMS:
            sys = make()
            for s in range(sys.rank):
                check = rm.simple_socle_check(sys, s)
                assert check["ok"], (sys.name, s)


def test_14_minimal_dimensions():
    with criterion(14, "effective modules of the predicted dimensions"):
        for n in (3, 4, 5):
            rep = rm.min_dim_report(cx.type_a(n - 1))
            assert rep["constructed_dim"] == rep["claimed"] == 2 ** n - n - 1
            assert rep["effective"] and rep["socle_verified"]
        for make in (lambda: cx.type_b(2), lambda: cx.type_b(3),
                     lambda: cx.dihedral(3), lambda: cx.dihedral(4),
                     lambda: cx.dihedral(5), lambda: cx.dihedral(6)):
            sys = make()
            rep = rm.min_dim_report(sys)
            assert rep["constructed_dim"] == rep["claimed"] == \
                cx.vertex_count(sys) - sys.rank
            assert rep["effective"] and rep["socle_verified"]
        for n in range(2, 7):
            rep = rm.dc_min_dim(n)
            assert rep["dim"] == 2 * n - 2
            assert rep["effective"]


def test_15_generalized_quotients():
    with criterion(15, "generalized quotients match the direct constructions"):
        for n in (3, 4, 5):
            sys = cx.type_a(n - 1)
            J = frozenset(range(sys.rank)) - {sys.rank - 1}
            assert generators_match(cx.double_catalan_quotient(sys, J),
                                    dcm.dc_monoid(n))
            assert len(cx.catalan_quotient(sys, J)) == catalan(n)
