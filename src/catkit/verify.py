"""
Cross-module verification suites.

Each check replays one structural guarantee of the library end to end
(counts, homomorphisms, fiber structure, order equivalences, socles,
effective dimensions) over exhaustive small ranges, with a couple of
seeded randomized suites where exhaustion is out of reach.  A check
returns a result record with an optional first counterexample, so a
failing run can be reproduced from its JSON serialization alone.
"""

from __future__ import annotations

import random
from functools import cache, partial
from math import comb, factorial
from operator import ge, le
from typing import Callable, Hashable, Iterator, NamedTuple, Sequence

from . import boolmat as bm
from . import coxeter as cx
from . import dcm
from . import dyck
from . import hecke
from . import permutations as pm
from . import repmin as rm
from .monoid import MonoidTable, gather, generate_monoid, generators_match


class CheckResult(NamedTuple):
    name: str
    passed: bool
    details: dict
    counterexample: dict | None = None


def _fail(name: str, info: dict) -> CheckResult:
    return CheckResult(name=name, passed=False, details={},
                       counterexample=info)


def check_catalan_count(n_max: int, rng: random.Random) -> CheckResult:
    name = "catalan-count"
    sizes = {}
    for n in range(1, min(n_max, 7) + 1):
        table = dcm.catalan_monoid(n)
        expected = comb(2 * n, n) // (n + 1)
        sizes[str(n)] = len(table)
        if len(table) != expected:
            return _fail(name, {"n": n, "got": len(table),
                                "expected": expected})
    return CheckResult(name, True, {"sizes": sizes})


def check_double_catalan_count(n_max: int, rng: random.Random) -> CheckResult:
    name = "double-catalan-count"
    sizes = {}
    for n in range(1, min(n_max, 7) + 1):
        got = len(dcm.dc_monoid(n))
        expected = pm.count_avoiding(n, (4, 3, 2, 1))
        sizes[str(n)] = got
        if got != expected:
            return _fail(name, {"n": n, "got": got, "expected": expected})
    return CheckResult(name, True, {"sizes": sizes})


def check_self_dual_count(n_max: int, rng: random.Random) -> CheckResult:
    name = "self-dual-count"
    counts = {}
    for n in range(1, min(n_max, 7) + 1):
        got = dcm.self_dual_count(n)
        by_involutions = pm.count_avoiding_involutions(n, (4, 3, 2, 1))
        by_recurrence = dcm.motzkin_number(n)
        counts[str(n)] = got
        if not got == by_involutions == by_recurrence:
            return _fail(name, {"n": n, "got": got,
                                "involutions": by_involutions,
                                "recurrence": by_recurrence})
    return CheckResult(name, True, {"counts": counts})


def check_idempotent_count(n_max: int, rng: random.Random) -> CheckResult:
    name = "idempotent-count"
    for n in range(2, min(n_max, 6) + 1):
        hecke_idem = hecke.idempotents(n)
        if len(hecke_idem) != 2 ** (n - 1):
            return _fail(name, {"n": n, "hecke": len(hecke_idem)})
        dc_idem = dcm.dc_idempotents(n)
        if len(dc_idem) != 2 ** (n - 1):
            return _fail(name, {"n": n, "dc": len(dc_idem)})
        if not all(dcm.is_block_all_ones(x) for x in dc_idem):
            return _fail(name, {"n": n, "reason": "non block-ones idempotent"})
        blocky = [x for x in dcm.dc_monoid(n).elements
                  if dcm.is_block_all_ones(x)]
        if len(blocky) != len(dc_idem):
            return _fail(name, {"n": n, "reason": "block-ones non-idempotent"})
    return CheckResult(name, True, {"range": f"2..{min(n_max, 6)}"})


def check_subset_realization(n_max: int, rng: random.Random) -> CheckResult:
    """The element-to-Bruhat-ideal map is an injective monoid homomorphism.

    phi(w) is the principal Bruhat ideal of w, a subset of S_n under the
    set product.  The check tests phi on generators only: phi(identity) is
    {identity}, and phi(x s_i) is the union of phi(x) and phi(x) s_i for
    every x and every i, where x s_i on the left is the 0-Hecke product.
    At x = identity this says phi(s_i) = {identity, s_i}, so the union is
    the set product phi(x) phi(s_i).  That suffices: if phi(x g) =
    phi(x) phi(g) for every element x and generator g, then phi(x w) =
    phi(x) phi(w) for every w, by induction on the length of a word of w,
    since both products are associative.  So n! (n - 1) products stand in
    for the (n!)^2 pairs.  The ideals are bitsets over the lexicographic
    order, built from the Bruhat covers (pm.bruhat_ideals), not from the
    0-Hecke product under test, and phi(x) s_i is a bit permutation.
    """
    name = "subset-realization"
    for n in range(1, min(n_max, 5) + 1):
        perms = list(pm.all_perms(n))
        idx = {w: k for k, w in enumerate(perms)}
        ideals = pm.bruhat_ideals(n)
        if len(set(ideals)) != len(perms):
            return _fail(name, {"n": n, "reason": "ideal map not injective"})
        e = idx[pm.identity(n)]
        if ideals[e] != 1 << e:
            return _fail(name, {"n": n, "reason": "identity not fixed"})
        for i in range(1, n):
            times_s = _times_simple(perms, idx, i)
            for x, ideal in zip(perms, ideals):
                got = ideal | times_s(ideal)
                if got != ideals[idx[hecke.gen_mul(i, x, side="right")]]:
                    return _fail(name, {"n": n, "x": pm.format_perm(x),
                                        "generator": i})
    return CheckResult(name, True, {"range": f"1..{min(n_max, 5)}"})


def _times_simple(perms: list, idx: dict, i: int) -> Callable[[int], int]:
    """S -> S s_i on bitsets over perms (idx their index), by one delta swap
    per distance (Knuth, TAOCP 4A, 7.1.3): s_i pairs each u with
    u(i) < u(i+1) with a later permutation, at n - i distances in all."""
    masks: dict[int, int] = {}
    for k, u in enumerate(perms):
        if u[i - 1] < u[i]:
            delta = idx[pm.mul_simple_right(u, i)] - k
            masks[delta] = masks.get(delta, 0) | 1 << k

    def apply(x: int) -> int:
        for delta, mask in masks.items():
            t = (x ^ x >> delta) & mask
            x ^= t | t << delta
        return x
    return apply


def convex_closure(n: int) -> MonoidTable:
    """The monoid generated by the 2(n - 1) interval fills
    (ltr_maxima(s_i), id) and (id, rtl_minima(s_i)), closed on the bits of
    the matrices (see boolmat)."""
    ident = pm.identity(n)
    steps = [pm.simple_transposition(i, n) for i in range(1, n)]
    gens = [bm.from_map_pair(pm.ltr_maxima(s), ident) for s in steps]
    gens += [bm.from_map_pair(ident, pm.rtl_minima(s)) for s in steps]
    return bm._closure(n, [g.bits for g in gens], partial(bm._mul_bits, n))


def check_convex_monoid_iso(n_max: int, rng: random.Random) -> CheckResult:
    """Max/min maps give a bijective homomorphism of ordered monoids.

    Every (max, min) pair is judged by one rule: it is valid iff its
    interval fill reads back as itself under bm._map_pair.

    Exhaustively for n <= 4, by a counting certificate: each element of the
    closure of the interval fills of the generator pairs reads a pair,
    which the validating bm.from_map_pair fills back to the element, so the
    pair is (non-decreasing, non-increasing).  The pairs are distinct and
    there are Cat(n)^2 of them, the number of such pairs, so the closure is
    every convex relation and the pair map psi is a bijection onto the
    product of the two Catalan monoids.  psi is then a homomorphism because
    psi(identity) = (id, id) and psi(a g) = psi(a) psi(g) along every edge
    a -> a g of the right Cayley table: by induction on the length of a
    word of b, psi(a b) = psi(a) psi(b) for all a and b, both products
    being associative.  The closure multiplies only the edges that make
    new words and derives the rest by associativity, so each edge's target
    is checked against bm.mul of a and g before its pair is.  So
    |M| (2n - 2) products stand in for the |M|^2 pairs.

    Beyond n = 4, 10,000 seeded samples per degree test the product, the
    homomorphism and the union order pair by pair.  Draws repeat
    (Cat(5)^2 = 1,764 relations against 20,000 draws at n = 5), so each
    distinct drawn (alpha, beta) is filled and read back once per degree.
    The samples run in blocks of at most _BLOCK: a block makes and reads
    its draws in sample order, then one bm.mul_union_lanes call takes all
    of its products and unions, each matrix in its own lane of one
    integer.  A block's draws come from one _draw_convex call, which
    decodes the generator's 32-bit words in bulk, up to _WORDS per
    getrandbits call, through a state table of the maps' prefixes.  It
    asks for no word that rng.randint, drawing one value at a time, would
    not read, so the draws, and the generator's state after them, are
    randint's.  Each product and union is read through a memo of
    bm._map_pair by its bits, one per degree, and compose_map(f, g) is one
    memoised gather per map g.  The memos share one copy of each of the
    2 Cat(n) maps of a degree.

    The failure reported is the first that a sample-by-sample loop would
    meet: within a sample, a draw that does not read back comes before a
    wrong product or union.
    """
    name = "convex-monoid-iso"
    details = {}
    for n in range(1, min(n_max, 4) + 1):
        table = convex_closure(n)
        pairs = []
        for a in table.elements:
            pair = bm._map_pair(a)
            if pair is None:
                return _fail(name, {"n": n, "closure": len(table),
                                    "reason": "closure is not all convex"})
            if bm.from_map_pair(*pair) != a:
                return _fail(name, {"n": n, "matrix": bm.to_row_strings(a),
                                    "reason": "round trip failed"})
            pairs.append(pair)
        if len(set(pairs)) != len(pairs):
            return _fail(name, {"n": n, "reason": "not injective"})
        expected = (comb(2 * n, n) // (n + 1)) ** 2
        if len(pairs) != expected:
            return _fail(name, {"n": n, "convex": len(pairs),
                                "expected": expected})
        ident = pm.identity(n)
        if pairs[table.identity] != (ident, ident):
            return _fail(name, {"n": n, "reason": "identity not fixed"})
        gen_elements = [table.elements[g] for g in table.gens]
        gen_pairs = [pairs[g] for g in table.gens]
        for a, row in enumerate(table.right):
            pa = pairs[a]
            for g, ag in enumerate(row):
                pg = gen_pairs[g]
                if (bm.mul(table.elements[a], gen_elements[g])
                        != table.elements[ag]
                        or pairs[ag] != (pm.compose_map(pa[0], pg[0]),
                                         pm.compose_map(pa[1], pg[1]))):
                    return _fail(name, {
                        "n": n, "a": bm.to_row_strings(table.elements[a]),
                        "generator": bm.to_row_strings(
                            table.elements[table.gens[g]]),
                        "reason": "not a homomorphism"})
        details[str(n)] = len(table)
    # seeded sampling beyond exhaustive reach
    samples = 0
    composers = _Memo(_composer)
    for n in (5, 6):
        if n > n_max:
            break
        maps = {}  # one copy of each monotone map, for the memos below
        drawn = {}  # (alpha, beta) -> (its fill, the pair itself or None)
        pair_of = _pair_memo(n, maps)
        for start in range(0, 10_000, _BLOCK):
            read = [drawn.get(key) or _read_draw(drawn, key, maps)
                    for key in _draw_convex(
                        n, rng, 2 * min(_BLOCK, 10_000 - start))]
            draws = [a + b for a, b in zip(read[0::2], read[1::2])]
            products, unions = bm.mul_union_lanes(
                n, [a.bits for a, _, _, _ in draws],
                [b.bits for _, _, b, _ in draws])
            for (a, pa, b, pb), ab, u in zip(draws, products, unions):
                if pa is None or pb is None:
                    return _fail(name, {
                        "n": n, "a": bm.to_row_strings(a),
                        "b": bm.to_row_strings(b),
                        "reason": "a draw is not convex or fails its "
                                  "round trip"})
                pab = pair_of[ab]
                pu = pair_of[u]
                ok = (pab is not None
                      and pab[0] == composers[pb[0]](pa[0])
                      and pab[1] == composers[pb[1]](pa[1])
                      and pu is not None
                      and all(map(le, pa[0], pu[0]))
                      and all(map(ge, pa[1], pu[1])))
                if not ok:
                    return _fail(name, {"n": n, "a": bm.to_row_strings(a),
                                        "b": bm.to_row_strings(b)})
                samples += 1
    details["samples"] = samples
    return CheckResult(name, True, details)


_BLOCK = 1024  # samples per lane block, bounding what one block holds
_WORDS = 1024  # the most words one getrandbits call of a draw reads


class _Memo(dict):
    """A dict that fills a missing key with make(key) on first lookup; a
    hit is a plain dict subscription, about half a functools.cache call."""

    def __init__(self, make: Callable[[Hashable], object]):
        super().__init__()
        self.make = make

    def __missing__(self, key: Hashable) -> object:
        value = self[key] = self.make(key)
        return value


def _composer(g: tuple) -> Callable[[Sequence], tuple]:
    """The map f -> pm.compose_map(f, g) as one gather."""
    return gather([v - 1 for v in g])


def _pair_memo(n: int, maps: dict) -> _Memo:
    """bits -> bm._map_pair of the degree-n matrix holding them, each map
    the copy kept in maps."""
    def read(bits: int) -> tuple | None:
        pair = bm._map_pair(bm.from_bits(n, bits))
        return None if pair is None else _kept(maps, pair)
    return _Memo(read)


def _kept(maps: dict, pair: tuple) -> tuple:
    """pair with each map replaced by its copy in maps, which keeps the
    first copy of each map it is shown."""
    alpha, beta = pair
    return maps.setdefault(alpha, alpha), maps.setdefault(beta, beta)


def _next_range(n: int, side: int, prefix: tuple) -> tuple[int, int]:
    """(lo, width) of the value after prefix: alpha(i) in
    [max(alpha(i-1), i), n] on side 0, beta(i) in [beta(i-1), i] on side 1,
    with alpha(0) = beta(0) = 1."""
    i = len(prefix) + 1
    prev = prefix[-1] if prefix else 1
    if side == 0:
        lo = prev if prev > i else i
        return lo, n - lo + 1
    return prev, i - prev + 1


class _Decoder(NamedTuple):
    """The state table by which _draw_convex decodes degree-n draws."""
    top: bytes              # a word's top byte -> its symbol
    step: list[int]         # step[state | symbol]: the next state or map
    done: int               # codes >= done are finished maps
    beta: int               # the state of an empty beta
    beta_done: int          # codes >= beta_done are finished betas
    depth: dict[int, int]   # state -> the values accepted in it
    maps: dict[int, tuple]  # finished map -> the map


@cache
def _decoder(n: int) -> _Decoder:
    """The decoder of degree n, 1 <= n < 256.  A symbol is the top
    n.bit_length() bits of a word.  The states are the partial prefixes of
    alpha, then those of beta, the t-th coded t << n.bit_length(); the
    finished maps are coded from done on, the alphas first."""
    shift = n.bit_length()
    states, finished = [], []
    for side in (0, 1):
        level = [()]
        while len(level[0]) < n:
            states += [(side, p) for p in level]
            grown = []
            for p in level:
                lo, width = _next_range(n, side, p)
                grown += [p + (v,) for v in range(lo, lo + width)]
            level = grown
        finished += [(side, p) for p in level]
    code = {s: t << shift for t, s in enumerate(states)}
    done = len(states) << shift
    code.update((s, done + j) for j, s in enumerate(finished))
    step = []
    for side, p in states:
        lo, width = _next_range(n, side, p)
        cut = shift - width.bit_length()  # symbol >> cut is the value's r
        step += [code[side, p + (lo + (x >> cut),)] if x >> cut < width
                 else code[side, p] for x in range(1 << shift)]
    return _Decoder(top=bytes(b >> (8 - shift) for b in range(256)),
                    step=step, done=done, beta=code[1, ()],
                    beta_done=done + sum(1 for s in finished if s[0] == 0),
                    depth={code[s]: len(s[1]) for s in states},
                    maps={code[s]: s[1] for s in finished})


def _draw_convex(n: int, rng: random.Random,
                 count: int) -> Iterator[tuple[tuple, tuple]]:
    """count seeded (max, min) pairs of convex relations of degree n: the
    pairs, in order, that rng.randint makes drawing one value at a time,
    with rng left in the state that those draws leave it in.

    Each value is uniform over the ones that keep the maps monotone, drawn
    as randint draws it: r = getrandbits(k), k the bit length of the width,
    redrawn until r < width (a width of 1 still takes one draw).  For
    k <= 32, getrandbits(k) is the top k bits of one 32-bit Mersenne
    Twister word, and getrandbits(32 m) is the next m words, the first in
    the lowest 32 bits, on either byte order.  So one call, its
    little-endian bytes and [3::4].translate(top) turn m words into m
    symbols in C, each symbol the top n.bit_length() bits of its word, of
    which r is the top k.  The Python loop then takes one step per symbol:
    step[state | symbol] is the next prefix, the same state for a redrawn
    value, or a code >= done for a finished map, after which the other
    map starts.

    Each call asks only for a lower bound on the words still to be read:
    n for each map not finished, less the values already accepted in the
    one being decoded, since every value reads at least one word, and at
    most _WORDS, which bounds the call's buffers.  So every word asked for
    is decoded, and the generator stops exactly at the last word that the
    value-by-value draws read.
    """
    top, step, done, beta, beta_done, depth, maps = _decoder(n)
    ends = []  # finished maps, alpha and beta by turns
    s = 0
    need = 2 * n * count
    while need:
        words = min(need, _WORDS)
        for x in rng.getrandbits(32 * words).to_bytes(
                4 * words, "little")[3::4].translate(top):
            s = step[s | x]
            if s >= done:
                ends.append(s)
                s = beta if s < beta_done else 0
        need = n * (2 * count - len(ends)) - depth[s]
    ends = map(maps.__getitem__, ends)
    return zip(ends, ends)


def _read_draw(drawn: dict, key: tuple,
               maps: dict) -> tuple[bm.BoolMat, tuple | None]:
    """Enter a drawn (alpha, beta) in drawn, under the copies of its maps
    kept in maps: its interval fill, with the key itself as its pair when
    the fill reads back as the key, and None otherwise."""
    key = _kept(maps, key)
    a = bm._interval_fill(*key)
    drawn[key] = entry = (a, key if bm._map_pair(a) == key else None)
    return entry


def check_projection_two_routes(n_max: int, rng: random.Random) -> CheckResult:
    """Generator products agree with interval fill for every permutation."""
    name = "projection-two-routes"
    for n in range(1, min(n_max, 6) + 1):
        for w in pm.all_perms(n):
            dcm.dc_of_perm(w)  # raises InternalInconsistency on mismatch
    return CheckResult(name, True, {"range": f"1..{min(n_max, 6)}"})


def check_dc_fibers(n_max: int, rng: random.Random) -> CheckResult:
    """Unique avoiding member, Bruhat minimum, maximal set, convexity."""
    name = "dc-fiber-structure"
    for n in range(1, min(n_max, 8) + 1):
        total = 0
        for x in dcm.dc_monoid(n).elements:
            report = dcm.fiber_analysis(x)
            total += len(dcm.fiber(x))
            if not report.convex:
                return _fail(name, {"n": n, "x": bm.to_row_strings(x)})
        if total != factorial(n):
            return _fail(name, {"n": n, "reason": "fibers do not partition"})
    return CheckResult(name, True, {"range": f"1..{min(n_max, 8)}"})


def check_catalan_fibers(n_max: int, rng: random.Random) -> CheckResult:
    """321/312 witnesses and the interval property of prefix-maxima fibers."""
    name = "catalan-fiber-structure"
    for n in range(1, min(n_max, 5) + 1):
        for alpha in pm.all_nondecreasing_maps(n):
            report = dcm.catalan_fiber_analysis(alpha)
            if not report.interval:
                return _fail(name, {"n": n, "alpha": list(alpha)})
    return CheckResult(name, True, {"range": f"1..{min(n_max, 5)}"})


def check_kreweras_involution(n_max: int, rng: random.Random) -> CheckResult:
    """The path derivative is an involution fixing the sawtooth."""
    name = "kreweras-involution"
    for n in range(1, min(n_max, 7) + 1):
        for path in dyck.all_dyck_paths(n):
            if dyck.kreweras_derivative(dyck.kreweras_derivative(path)) != path:
                return _fail(name, {"n": n, "path": path})
        saw = "UD" * n
        if dyck.kreweras_derivative(saw) != saw:
            return _fail(name, {"n": n, "path": saw})
    return CheckResult(name, True, {"range": f"1..{min(n_max, 7)}"})


def check_order_equivalence(n_max: int, rng: random.Random) -> CheckResult:
    """Two-sided divisibility equals the valley-completion cover order,
    compared as one bitset per map: dyck.factor_order_sets against
    dyck.cover_order_sets."""
    name = "factor-order-covers"
    for n in range(1, min(n_max, 5) + 1):
        maps = list(pm.all_nondecreasing_maps(n))
        index = {p: k for k, p in enumerate(dyck.all_dyck_paths(n))}
        bits = [index[dyck.map_to_path(a)] for a in maps]
        fo, up = dyck.factor_order_sets(n), dyck.cover_order_sets(n)
        for a, k in zip(maps, bits):
            diff = fo[k] ^ up[k]
            if diff:
                b = next(b for b, j in zip(maps, bits) if diff >> j & 1)
                return _fail(name, {"n": n, "a": list(a), "b": list(b)})
    return CheckResult(name, True, {"range": f"1..{min(n_max, 5)}"})


def check_admissible_pairs(n_max: int, rng: random.Random) -> CheckResult:
    """The order criterion recognizes exactly the realized path pairs,
    compared as one bitset per path: dyck.admissible_sets against the
    pairs of all of S_n."""
    name = "admissible-pairs"
    for n in range(1, min(n_max, 6) + 1):
        paths = dyck.all_dyck_paths(n)
        index = {p: k for k, p in enumerate(paths)}
        realized = [0] * len(paths)
        for p1, p2 in dyck.brute_force_admissible_pairs(n):
            realized[index[p1]] |= 1 << index[p2]
        for p1, got, want in zip(paths, dyck.admissible_sets(n), realized):
            diff = got ^ want
            if diff:
                p2 = paths[(diff & -diff).bit_length() - 1]
                return _fail(name, {"n": n, "first": p1, "second": p2})
    return CheckResult(name, True, {"range": f"1..{min(n_max, 6)}"})


def check_presentation(n_max: int, rng: random.Random) -> CheckResult:
    name = "presentation"
    sizes = {}
    for n in range(2, min(n_max, 4) + 1):
        report = dcm.verify_presentation(n)
        sizes[str(n)] = report.presented_size
        if not report.matches:
            return _fail(name, {"n": n, "report": report._asdict()})
    return CheckResult(name, True, {"sizes": sizes})


# The systems of the Hecke-side checks, by type string.
_DIHEDRAL = [f"I2({m})" for m in range(3, 7)]
_SMALL = ["A2", "A3", "B2", "B3"] + _DIHEDRAL
_HECKE = ["A2", "A3", "A4", "B2", "B3"] + _DIHEDRAL


class _RunMemo:
    """What the Hecke-side checks of one run_verify_all share: each Coxeter
    system by its type string, and each system's rm.min_dim_report."""

    def __init__(self) -> None:
        self.systems = _Memo(cx.from_type_string)
        self.reports = _Memo(lambda text: rm.min_dim_report(
            self.systems[text]))


_run: _RunMemo | None = None  # the memo of the run in progress, if any


def _system(text: str) -> cx.CoxeterSystem:
    """The system of a type string: the run's copy during run_verify_all,
    else a fresh one."""
    if _run is None:
        return cx.from_type_string(text)
    return _run.systems[text]


def _min_dim_report(text: str) -> dict:
    """rm.min_dim_report of the system of a type string, shared by the run
    during run_verify_all, else made fresh; read it, do not change it."""
    if _run is None:
        return rm.min_dim_report(cx.from_type_string(text))
    return _run.reports[text]


def check_coset_max_reps(n_max: int, rng: random.Random) -> CheckResult:
    """Idempotent products project onto longest coset representatives,
    and the projection preserves Bruhat order.  The whole order of each
    system is read once, from cx.bruhat_ideals, and the projection once
    per J."""
    name = "coset-max-reps"
    systems = [_system(t) for t in ["A3"] + _DIHEDRAL]
    for sys in systems:
        ideals = cx.bruhat_ideals(sys)
        below = [(u, w) for u in range(sys.order) for w in range(sys.order)
                 if ideals[w] >> u & 1]
        for mask in range(1 << sys.rank):
            J = frozenset(s for s in range(sys.rank) if mask >> s & 1)
            para = cx.parabolic(sys, J)
            sets, coset_id = cx.cosets(sys, J)
            reps = [cx.coset_max_rep(sys, para, i) for i in range(sys.order)]
            for i, rep in enumerate(reps):
                members = sets[coset_id[i]]
                want = max(members, key=lambda x: sys.length[x])
                if rep != want or rep not in para.max_reps:
                    return _fail(name, {"type": sys.name, "J": sorted(J),
                                        "element": i})
            # moving a representative out of its coset stays representative
            for w in para.max_reps:
                for s, column in enumerate(sys.left_columns):
                    sw = column[w]
                    if coset_id[sw] != coset_id[w] and sw not in para.max_reps:
                        return _fail(name, {"type": sys.name, "J": sorted(J),
                                            "element": w, "generator": s})
            # order preservation of the projection
            for u, w in below:
                if not ideals[reps[w]] >> reps[u] & 1:
                    return _fail(name, {"type": sys.name, "J": sorted(J),
                                        "u": u, "w": w})
    return CheckResult(name, True, {"systems": [s.name for s in systems]})


def check_covered_by_longest(n_max: int, rng: random.Random) -> CheckResult:
    """w0 s is the unique representative covered by w0, with the predicted
    left descent set.  The parabolics on S - {s} come from one
    cx.maximal_parabolics pass per system."""
    name = "longest-coset-covers"
    systems = [_system(t) for t in _SMALL]
    for sys in systems:
        w0 = sys.longest
        conj = sys.longest_conjugation()
        for s, para in enumerate(cx.maximal_parabolics(sys)):
            covered = [w for w in para.max_reps
                       if sys.length[w] == sys.length[w0] - 1]
            w0s = sys.right[w0][s]
            if covered != [w0s]:
                return _fail(name, {"type": sys.name, "s": s})
            want = frozenset(range(sys.rank)) - {conj[s]}
            if sys.left_descents(w0s) != want:
                return _fail(name, {"type": sys.name, "s": s,
                                    "reason": "descent set"})
    return CheckResult(name, True, {"systems": [s.name for s in systems]})


def check_union_ideal_effective(n_max: int, rng: random.Random) -> CheckResult:
    """The folding action on all maximal-parabolic ideals together is
    effective, on a carrier of size the vertex count.

    The carriers are the longest coset representatives of the parabolics
    on S - {s}, from one cx.maximal_parabolics pass, side by side in one
    module of their folding actions; the pass checks that each parabolic
    has index many representatives, so the module's dimension is the
    vertex count.  rm.is_effective decides whether distinct elements act
    distinctly, reading a column's image under every element in one pass
    (a * u sends it where a folds u's image) and stopping once the columns
    read tell every element apart.
    """
    name = "vertex-action-effective"
    systems = [_system(t) for t in _SMALL]
    for sys in systems:
        paras = cx.maximal_parabolics(sys)
        carriers = rm.direct_sum([rm.projective_module(sys, s, para)
                                  for s, para in enumerate(paras)])
        if not rm.is_effective(sys, carriers):
            return _fail(name, {"type": sys.name, "reason": "not effective"})
    return CheckResult(name, True, {"systems": [s.name for s in systems]})


def check_simple_socle(n_max: int, rng: random.Random) -> CheckResult:
    """Each reduced projective has the predicted simple socle, read from
    the "socles" of the system's rm.min_dim_report, which runs
    rm.simple_socle_check once per generator."""
    name = "simple-socle"
    for text in _HECKE:
        socles = _min_dim_report(text)["socles"]
        for s, result in enumerate(socles.values()):
            if not result["ok"]:
                return _fail(name, {"type": text, "s": s,
                                    "dimension": result["dimension"]})
    return CheckResult(name, True, {"systems": list(_HECKE)})


def check_eigen_split(n_max: int, rng: random.Random) -> CheckResult:
    name = "eigen-split"
    systems = [_system(t) for t in ["A2", "A3", "B2", "I2(4)"]]
    for sys in systems:
        for s in range(sys.rank):
            module = rm.projective_module(sys, s)
            for t in range(sys.rank):
                split = rm.eigen_split(module, t)  # raises if the split fails
                if split.fixed_dim + split.kernel_dim != module.dim:
                    return _fail(name, {"type": sys.name, "s": s, "t": t})
    return CheckResult(name, True, {"systems": [s.name for s in systems]})


def check_hecke_min_dim(n_max: int, rng: random.Random) -> CheckResult:
    """Each system's rm.min_dim_report certifies the claimed dimension,
    and type A_k's claim is 2^(k+1) - k - 2.  The reports listed are
    copies without "socles", which simple-socle checks, since the run
    shares the reports themselves."""
    name = "hecke-min-dim"
    reports = []
    for text in _HECKE:
        rep = {key: value for key, value in _min_dim_report(text).items()
               if key != "socles"}
        reports.append(rep)
        expected = None
        if text.startswith("A"):
            rank = int(text[1:])
            expected = 2 ** (rank + 1) - rank - 2
        if not (rep["effective"] and rep["socle_verified"]
                and rep["constructed_dim"] == rep["claimed"]
                and expected in (None, rep["claimed"])):
            return _fail(name, rep)
    return CheckResult(name, True, {"reports": reports})


def check_dc_min_dim(n_max: int, rng: random.Random) -> CheckResult:
    name = "dc-min-dim"
    for n in range(2, min(n_max, 6) + 1):
        rep = rm.dc_min_dim(n)
        if not (rep["effective"] and rep["dim"] == 2 * n - 2):
            return _fail(name, rep)
    return CheckResult(name, True, {"range": f"2..{min(n_max, 6)}"})


def check_generalized_quotients(n_max: int, rng: random.Random) -> CheckResult:
    name = "generalized-quotients"
    for n in range(3, min(n_max, 5) + 1):
        sys = _system(f"A{n - 1}")
        J = frozenset(range(sys.rank)) - {sys.rank - 1}
        dc_q = cx.double_catalan_quotient(sys, J)
        if not generators_match(dc_q, dcm.dc_monoid(n)):
            return _fail(name, {"n": n, "reason": "double quotient mismatch"})
        cat = cx.catalan_quotient(sys, J)
        if len(cat) != comb(2 * n, n) // (n + 1):
            return _fail(name, {"n": n, "catalan_size": len(cat)})
    return CheckResult(name, True, {"range": f"3..{min(n_max, 5)}"})


ALL_CHECKS = [
    check_catalan_count,
    check_double_catalan_count,
    check_self_dual_count,
    check_idempotent_count,
    check_subset_realization,
    check_convex_monoid_iso,
    check_projection_two_routes,
    check_dc_fibers,
    check_catalan_fibers,
    check_kreweras_involution,
    check_order_equivalence,
    check_admissible_pairs,
    check_presentation,
    check_coset_max_reps,
    check_covered_by_longest,
    check_union_ideal_effective,
    check_eigen_split,
    check_simple_socle,
    check_hecke_min_dim,
    check_dc_min_dim,
    check_generalized_quotients,
]


def run_verify_all(n_max: int = 4, seed: int = 0) -> dict:
    """Run every suite up to n_max; the report maps check names to results.

    Results are deterministic for a fixed (n_max, seed): each check gets its
    own generator seeded with seed.  The Hecke-side checks share one
    _RunMemo, made for the run and dropped when it returns or raises.
    """
    global _run
    _run = _RunMemo()
    try:
        results = [fn(n_max, random.Random(seed)) for fn in ALL_CHECKS]
    finally:
        _run = None
    results.sort(key=lambda r: r.name)
    return {
        "n_max": n_max,
        "seed": seed,
        "passed": all(r.passed for r in results),
        "checks": {r.name: {"passed": r.passed, "details": r.details,
                            "counterexample": r.counterexample}
                   for r in results},
    }
