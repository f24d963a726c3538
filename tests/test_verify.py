
import gc
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catkit import boolmat as bm
from catkit import coxeter as cx
from catkit import dyck
from catkit import permutations as pm
from catkit import repmin as rm
from catkit import verify
from catkit.verify import ALL_CHECKS, run_verify_all

import oracles
from oracles import all_ones, random_convex_by_randint


def test_degenerate_degree_one():
    report = run_verify_all(n_max=1)
    assert report["passed"]


def test_all_checks_present():
    report = run_verify_all(n_max=2)
    assert len(report["checks"]) == len(ALL_CHECKS)
    assert report["passed"]
    for res in report["checks"].values():
        assert res["counterexample"] is None


@pytest.mark.parametrize("n_max", [3, 4])
def test_everything_passes(n_max):
    report = run_verify_all(n_max=n_max)
    failing = [name for name, res in report["checks"].items()
               if not res["passed"]]
    assert not failing, failing


@pytest.mark.parametrize("n,size", [(1, 1), (2, 4), (3, 25), (4, 196),
                                    (5, 1764)])
def test_convex_closure_has_catalan_squared_elements(n, size):
    """The interval fills of the generator pairs close to Cat(n)^2 convex
    relations, also at n = 5, beyond the brute-force enumeration."""
    table = verify.convex_closure(n)
    assert len(table) == size
    assert all(bm.is_convex(a) for a in table.elements)


def test_subset_realization_fails_on_one_wrong_generator_product(
        monkeypatch):
    gen_mul = verify.hecke.gen_mul
    x = (2, 1, 3, 5, 4)

    def wrong(i, z, side="left"):
        if z == x and i == 3 and side == "right":
            return z  # the true product x s_3 = 21534 is longer
        return gen_mul(i, z, side)

    monkeypatch.setattr(verify.hecke, "gen_mul", wrong)
    result = verify.check_subset_realization(5, random.Random(0))
    assert not result.passed
    assert result.counterexample == {"n": 5, "x": "21354", "generator": 3}


def test_convex_monoid_iso_fails_on_one_wrong_generator_product(
        monkeypatch):
    mul = verify.bm.mul
    top = all_ones(4)
    gen = bm.from_map_pair((1, 3, 3, 4), (1, 2, 3, 4))  # ltr_maxima(s_2)

    def wrong(a, b):
        if a == top and b == gen:
            return bm.identity_mat(4)  # the true product is top
        return mul(a, b)

    monkeypatch.setattr(verify.bm, "mul", wrong)
    result = verify.check_convex_monoid_iso(4, random.Random(0))
    assert not result.passed
    assert result.counterexample == {
        "n": 4, "a": bm.to_row_strings(top),
        "generator": bm.to_row_strings(gen), "reason": "not a homomorphism"}


def _first_sample_patched(monkeypatch, side, bits):
    """Patch bm.mul_union_lanes so that the first sample at n = 5 gets
    bits as its product (side 0) or its union (side 1)."""
    lanes = verify.bm.mul_union_lanes
    done = []

    def patched(n, left, right):
        out = list(lanes(n, left, right))
        if n == 5 and not done:
            done.append(True)
            out[side] = (bits,) + out[side][1:]
        return tuple(out)

    monkeypatch.setattr(verify.bm, "mul_union_lanes", patched)


@pytest.mark.parametrize("side", [0, 1], ids=["mul", "union"])
def test_convex_monoid_iso_records_a_wrong_sample(monkeypatch, side):
    """A non-convex product or union on the first sample at n = 5 is a
    failing record naming both draws, not an exception."""
    _first_sample_patched(monkeypatch, side, 0)  # empty, so not convex
    result = verify.check_convex_monoid_iso(5, random.Random(0))
    assert result.passed is False
    assert result.counterexample == {
        "n": 5, "a": ["10000", "11000", "11100", "11111", "01111"],
        "b": ["11000", "11111", "11111", "11111", "11111"]}


def test_convex_monoid_iso_records_a_bad_draw(monkeypatch):
    """A draw at n = 5 whose fill is not convex, or does not read back as
    the draw, is a failing record at its own sample, not an exception."""
    fill = verify.bm._interval_fill

    def empty(alpha, beta):
        if len(alpha) == 5:
            return bm.BoolMat(5, (0,) * 5)
        return fill(alpha, beta)

    with monkeypatch.context() as patch:
        patch.setattr(verify.bm, "_interval_fill", empty)
        result = verify.check_convex_monoid_iso(5, random.Random(0))
    assert result.passed is False
    assert result.counterexample == {
        "n": 5, "a": ["00000"] * 5, "b": ["00000"] * 5,
        "reason": "a draw is not convex or fails its round trip"}
    monkeypatch.setattr(verify, "_draw_convex", lambda n, rng, count: (
        [((2, 1, 5, 5, 5), (1,) * 5)] * count))
    result = verify.check_convex_monoid_iso(5, random.Random(0))
    assert result.passed is False
    assert result.counterexample == {
        "n": 5, "a": _REFUSED_ROWS, "b": _REFUSED_ROWS,
        "reason": "a draw is not convex or fails its round trip"}


_IDENTITY = ((1, 2, 3, 4, 5), (1, 2, 3, 4, 5))
_REFUSED = ((2, 1, 5, 5, 5), (1,) * 5)  # alpha decreases; its fill gaps
_EMPTY = ((5, 5, 5, 5, 5), (1,) * 5)  # filled to the empty matrix below
_IDENTITY_ROWS = ["10000", "01000", "00100", "00010", "00001"]
_REFUSED_ROWS = ["11111", "10111", "00111", "00111", "00111"]
_BAD = "a draw is not convex or fails its round trip"
_REFUSED_AT_3 = {"n": 5, "a": _REFUSED_ROWS, "b": _IDENTITY_ROWS,
                      "reason": _BAD}


@pytest.mark.parametrize("draws,wrong_product,expected", [
    ({6: _REFUSED}, False, _REFUSED_AT_3),
    ({6: _REFUSED, 2: _EMPTY}, False, {
        "n": 5, "a": ["00000"] * 5, "b": _IDENTITY_ROWS, "reason": _BAD}),
    ({6: _REFUSED, 10: _EMPTY}, False, _REFUSED_AT_3),
    ({6: _REFUSED}, True, {"n": 5, "a": _IDENTITY_ROWS,
                                "b": _IDENTITY_ROWS}),
    ({3: _REFUSED, 2: _EMPTY}, False, {
        "n": 5, "a": ["00000"] * 5, "b": _REFUSED_ROWS,
        "reason": _BAD}),
    ({2047: _EMPTY, 2048: _REFUSED}, False, {
        "n": 5, "a": _IDENTITY_ROWS, "b": ["00000"] * 5, "reason": _BAD})],
    ids=["refused", "empty-before", "empty-after", "product-before",
         "same-sample", "across-blocks"])
def test_convex_monoid_iso_reports_the_sequential_first_failure(
        monkeypatch, draws, wrong_product, expected):
    """The first failure is the one a sample-by-sample loop meets: a draw
    that does not read back fails at its own sample, naming both of that
    sample's draws, and within a sample it comes before a wrong product.
    draws maps a draw's index (sample s draws 2s and 2s + 1) to its
    (alpha, beta); the rest are the identity."""
    index = iter(range(1 << 20))
    monkeypatch.setattr(verify, "_draw_convex", lambda n, rng, count: [
        draws.get(next(index), _IDENTITY) for _ in range(count)])
    fill = verify.bm._interval_fill
    monkeypatch.setattr(verify.bm, "_interval_fill", lambda alpha, beta: (
        bm.BoolMat(5, (0,) * 5) if (alpha, beta) == _EMPTY
        else fill(alpha, beta)))
    if wrong_product:
        _first_sample_patched(monkeypatch, 0, 0)
    result = verify.check_convex_monoid_iso(5, random.Random(0))
    assert result.passed is False
    assert result.counterexample == expected


def test_convex_monoid_iso_fails_a_closure_short_of_the_count(monkeypatch):
    """The closure of the maxima fills alone, Cat(n) convex relations with
    distinct pairs, fails the count of the certificate."""
    closure = verify.convex_closure

    def maxima_only(n):
        table = closure(n)
        return verify.generate_monoid(
            [table.elements[g] for g in table.gens[:n - 1]], bm.mul,
            bm.identity_mat(n))

    monkeypatch.setattr(verify, "convex_closure", maxima_only)
    result = verify.check_convex_monoid_iso(4, random.Random(0))
    assert result.passed is False
    assert result.counterexample == {"n": 2, "convex": 2, "expected": 4}


def test_convex_monoid_iso_fails_a_closure_with_a_non_convex_element(
        monkeypatch):
    """A product that drops the diagonal bit (1, 1) from the all-ones
    matrix puts a non-convex element in the closure at n = 3."""
    mul = verify.bm._mul_bits
    top = all_ones(3).bits

    def wrong(n, x, y):
        xy = mul(n, x, y)
        return xy ^ 1 if xy == top else xy

    monkeypatch.setattr(verify.bm, "_mul_bits", wrong)
    result = verify.check_convex_monoid_iso(4, random.Random(0))
    assert result.passed is False
    assert result.counterexample == {"n": 3, "closure": 25,
                                     "reason": "closure is not all convex"}


def test_convex_monoid_iso_keeps_its_draw_stream():
    """Memoising repeated draws changes no draw: the generator ends where
    it did with a fresh fill per draw, and n_max = 4 draws nothing."""
    rng = random.Random(0)
    result = verify.check_convex_monoid_iso(5, rng)
    assert result.passed
    assert result.details["samples"] == 10000
    assert rng.getrandbits(64) == 13016130949669127735
    rng = random.Random(0)
    assert verify.check_convex_monoid_iso(4, rng).passed
    assert rng.getrandbits(64) == random.Random(0).getrandbits(64)


def _both_draws(n: int, seed: int, count: int) -> list:
    """count draws of degree n by the block drawer and by rng.randint per
    value, each with the next 64 bits of its generator."""
    routes = []
    for draw in (lambda rng: list(verify._draw_convex(n, rng, count)),
                 lambda rng: [random_convex_by_randint(n, rng)
                              for _ in range(count)]):
        rng = random.Random(seed)
        routes.append((draw(rng), rng.getrandbits(64)))
    return routes


# one more count per seed: one or two draws, odd counts, and counts about
# a block's 2 * _BLOCK draws and about _WORDS words
_EDGE_COUNTS = (1, 2, 3, 7, 511, 1023, 1024, 2047, 2048, 2049)


@pytest.mark.parametrize("n", range(1, 9))
@pytest.mark.parametrize("seed", range(10))
def test_random_convex_keeps_the_randint_stream(seed, n):
    """The block drawer's draws are rng.randint's: the same pairs, and the
    generator in the same state after them, at every degree to 8."""
    for count in (500, _EDGE_COUNTS[seed]):
        drawn, by_randint = _both_draws(n, seed, count)
        assert drawn == by_randint
        assert len(drawn[0]) == count


@given(st.integers(0, 2 ** 64), st.integers(0, 300), st.integers(1, 8))
@settings(max_examples=60, deadline=None)
def test_block_drawer_matches_randint_on_any_seed(seed, count, n):
    """Any seed and count, at every degree to 8."""
    drawn, by_randint = _both_draws(n, seed, count)
    assert drawn == by_randint


@pytest.mark.parametrize("below", [
    ((1, 2, 3, 4, 5), (1, 2, 3, 4, 5)),   # the identity
    ((1, 2, 3, 4, 5), (1, 1, 1, 1, 1)),   # max map below a's
    ((5, 5, 5, 5, 5), (1, 2, 3, 4, 5))])  # min map above a's
def test_convex_monoid_iso_records_a_union_below_a_draw(monkeypatch, below):
    """A union that is convex but not above a fails the union order on the
    first sample at n = 5, through either map, and names both draws."""
    _first_sample_patched(monkeypatch, 1, bm.from_map_pair(*below).bits)
    result = verify.check_convex_monoid_iso(5, random.Random(0))
    assert result.passed is False
    assert result.counterexample == {
        "n": 5, "a": ["10000", "11000", "11100", "11111", "01111"],
        "b": ["11000", "11111", "11111", "11111", "11111"]}


def test_convex_monoid_iso_pins_degree_six():
    """The --n-max 6 details, and the generator's state after them, are
    those of a fresh pair read and compose_map per sample."""
    rng = random.Random(0)
    result = verify.check_convex_monoid_iso(6, rng)
    assert result.passed
    assert result.details == {"1": 1, "2": 4, "3": 25, "4": 196,
                              "samples": 20000}
    assert rng.getrandbits(64) == 5667380518597920974


@pytest.mark.parametrize("n", [5, 6])
@pytest.mark.parametrize("seed", range(3))
def test_sample_memos_match_fresh_reads(seed, n):
    """On seeded draws, each gather composes as pm.compose_map, and each
    memoised pair of a product or union is a fresh bm._map_pair, on its
    first lookup and on every repeat, made of the maps' kept copies."""
    rng = random.Random(seed)
    composers = verify._Memo(verify._composer)
    maps = {}
    pair_of = verify._pair_memo(n, maps)
    draws = [bm.from_map_pair(*key)
             for key in verify._draw_convex(n, rng, 400)]
    for a, b in zip(draws[::2], draws[1::2]):
        pa, pb = bm.to_map_pair(a), bm.to_map_pair(b)
        for f, g in zip(pa, pb):
            assert composers[g](f) == pm.compose_map(f, g)
        unreflexive = bm.from_bits(n, a.bits ^ 1)  # so not convex
        for m in (bm.mul(a, b), bm.union(a, b), unreflexive):
            pair = pair_of[m.bits]
            assert pair == bm._map_pair(m)
            assert pair_of[m.bits] is pair
            assert pair is None or all(maps[f] is f for f in pair)
    assert pair_of[unreflexive.bits] is None
    assert len(pair_of) < 3 * 200  # products repeat across the samples


def test_coset_max_reps_records_a_wrong_order(monkeypatch):
    """With Bruhat order read once per system from its ideals, a wrong
    order (length alone) still fails the projection test with its
    counterexample."""
    monkeypatch.setattr(verify.cx, "bruhat_ideals", lambda sys: [
        sum(1 << u for u in range(sys.order) if sys.length[u] <= length)
        for length in sys.length])
    result = verify.check_coset_max_reps(4, random.Random(0))
    assert result.passed is False
    assert result.counterexample == {"type": "A3", "J": [0], "u": 2, "w": 1}


@pytest.mark.parametrize("check,reference", [
    (verify.check_subset_realization,
     oracles.check_subset_realization_by_pairs),
    (verify.check_order_equivalence,
     oracles.check_order_equivalence_by_pairs),
    (verify.check_admissible_pairs,
     oracles.check_admissible_pairs_by_pairs)])
@pytest.mark.parametrize("n_max", range(1, 7))
def test_bitset_checks_match_their_pairwise_references(check, reference,
                                                       n_max):
    assert check(n_max, random.Random(0)) == reference(n_max,
                                                       random.Random(0))


def test_factor_order_covers_fails_on_one_dropped_cover(monkeypatch):
    """Without the completion UDUDUUDD -> UUDDUUDD, 2234 no longer reaches
    2244 in the cover order; 1234 still does, by a two-valley completion."""
    completions = dyck.valley_completions

    def dropped(path):
        covers = completions(path)
        return covers - {"UUDDUUDD"} if path == "UDUDUUDD" else covers

    monkeypatch.setattr(verify.dyck, "valley_completions", dropped)
    result = verify.check_order_equivalence(5, random.Random(0))
    assert not result.passed
    assert result.counterexample == {"n": 4, "a": [2, 2, 3, 4],
                                     "b": [2, 2, 4, 4]}


def test_admissible_pairs_fails_on_one_wrong_derivative(monkeypatch):
    """A derivative that sends UUUDDDUD to the pyramid, not to UUDUDDUD,
    first shows at the earlier path UUDUDDUD, whose partner UUUDDDUD it
    takes away."""
    derivative = dyck.kreweras_derivative

    def wrong(path):
        return "UUUUDDDD" if path == "UUUDDDUD" else derivative(path)

    monkeypatch.setattr(verify.dyck, "kreweras_derivative", wrong)
    result = verify.check_admissible_pairs(5, random.Random(0))
    assert not result.passed
    assert result.counterexample == {"n": 4, "first": "UUDUDDUD",
                                     "second": "UUUDDDUD"}


@pytest.mark.parametrize("text", verify._HECKE)
def test_union_action_matches_the_hecke_mul_route(text):
    """Every element's action on the union of the maximal-parabolic
    carriers, the module vertex-action-effective builds, is the action by
    cx.hecke_mul, and rm.is_effective reads it as effective iff the
    hecke_mul actions are distinct."""
    sys = cx.from_type_string(text)
    paras = cx.maximal_parabolics(sys)
    carriers = rm.direct_sum([rm.projective_module(sys, s, para)
                              for s, para in enumerate(paras)])
    sentinel = carriers.dim
    actions = []
    for images in rm.element_column_maps(sys, carriers):
        assert images[sentinel] == sentinel
        labels = [carriers.labels[k] for k in images[:sentinel]]
        actions.append(tuple(tuple(w for part, w in labels if part == offset)
                             for offset in sorted({p for p, _ in labels})))
    want = oracles.union_actions_by_hecke_mul(sys, paras)
    assert actions == want
    assert rm.is_effective(sys, carriers) is (len(set(want)) == sys.order)


def test_union_ideal_effective_records_an_ineffective_action(monkeypatch):
    monkeypatch.setattr(rm, "is_effective", lambda sys, module: False)
    result = verify.check_union_ideal_effective(5, random.Random(0))
    assert not result.passed
    assert result.counterexample == {"type": "A2", "reason": "not effective"}


def _counting(monkeypatch, module, name):
    """Patch module.name with a wrapper that records each call's first
    argument, and return the record."""
    calls = []
    original = getattr(module, name)

    def wrapper(first, *args, **kwargs):
        calls.append(first)
        return original(first, *args, **kwargs)
    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_a_run_builds_each_system_and_report_once(monkeypatch):
    systems = _counting(monkeypatch, cx, "coxeter_system")
    reports = _counting(monkeypatch, rm, "min_dim_report")
    socles = _counting(monkeypatch, rm, "simple_socle_check")
    assert run_verify_all(5)["passed"]
    built = sorted(sys.name for sys in reports)
    assert built == sorted(verify._HECKE)
    assert len(systems) == len(reports) == 9
    assert {id(sys) for sys in socles} == {id(sys) for sys in reports}
    assert len(socles) == 22  # the ranks of the nine systems


def test_a_check_alone_builds_fresh(monkeypatch):
    """Outside a run, simple-socle builds its reports anew, so a patched
    socle check reaches it."""
    original = rm.simple_socle_check

    def failing_at_b3(sys, s, *args, **kwargs):
        result = original(sys, s, *args, **kwargs)
        if sys.name == "B3" and s == 1:
            result["ok"] = False
        return result
    run_verify_all(2)
    monkeypatch.setattr(rm, "simple_socle_check", failing_at_b3)
    result = verify.check_simple_socle(5, random.Random(0))
    assert result.passed is False
    assert result.counterexample == {"type": "B3", "s": 1, "dimension": 1}


def _live_systems():
    gc.collect()
    return sum(isinstance(x, cx.CoxeterSystem) for x in gc.get_objects())


def test_a_run_holds_nothing_after_it_returns_or_raises(monkeypatch):
    before = _live_systems()
    run_verify_all(3)
    assert verify._run is None
    assert _live_systems() == before

    def broken(n_max, rng):
        raise RuntimeError("broken check")
    hecke_side = [verify.check_coset_max_reps, verify.check_simple_socle,
                  verify.check_hecke_min_dim]
    monkeypatch.setattr(verify, "ALL_CHECKS", hecke_side + [broken])
    with pytest.raises(RuntimeError, match="broken check"):
        run_verify_all(3)
    assert verify._run is None
    assert _live_systems() == before
