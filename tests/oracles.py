"""Slow, independent references that tests compare the library against."""

import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from math import gcd, lcm
from operator import le
from typing import Iterator

from catkit import boolmat as bm
from catkit import coxeter as cx
from catkit import dcm
from catkit import dyck
from catkit import hecke
from catkit import permutations as pm
from catkit import repmin as rm
from catkit.monoid import MonoidCapExceeded, MonoidTable, generate_monoid
from catkit.verify import CheckResult, _fail


def word_to_perm(word, n: int) -> pm.Perm:
    """Evaluate a word in the simple transpositions, leftmost letter outermost."""
    acc = pm.identity(n)
    for i in word:
        acc = pm.compose(acc, pm.simple_transposition(i, n))
    return acc


def chamber_of(w: pm.Perm) -> hecke.SetPartition:
    """The chamber (all blocks singletons) attached to w."""
    return tuple(frozenset({v}) for v in w)


def all_chambers(n: int) -> list[hecke.SetPartition]:
    """The chambers of all of S_n, in the order of pm.all_perms."""
    return [chamber_of(w) for w in pm.all_perms(n)]


def all_nonincreasing_maps(n: int) -> Iterator[pm.MonotoneMap]:
    """All order preserving non-increasing self-maps of {1..n}, lex order."""

    def rec(prefix: list[int]) -> Iterator[pm.MonotoneMap]:
        i = len(prefix)
        if i == n:
            yield tuple(prefix)
            return
        lo = prefix[-1] if prefix else 1
        for v in range(lo, i + 2):
            prefix.append(v)
            yield from rec(prefix)
            prefix.pop()

    return rec([])


def sorted_prefixes(w: pm.Perm) -> tuple[int, ...]:
    """The increasing rearrangements of w(1..i) for i = 1..n-1, end to end."""
    return tuple(v for i in range(1, len(w)) for v in sorted(w[:i]))


def bruhat_leq_by_sorted_prefixes(u: pm.Perm, w: pm.Perm) -> bool:
    """Bruhat order by prefix dominance: u <= w iff for every i the
    increasing rearrangement of u(1..i) is entrywise <= that of w(1..i)."""
    if len(u) != len(w):
        raise ValueError(f"degree mismatch: {len(u)} != {len(w)}")
    return all(map(le, sorted_prefixes(u), sorted_prefixes(w)))


def reduced_word_by_restart(w: pm.Perm) -> tuple[int, ...]:
    """A reduced word for w: clear the leftmost descent on the right,
    rescanning from the first position after every swap; the letters in
    reverse order of clearing."""
    letters = []
    values = list(w)
    n = len(values)
    done = False
    while not done:
        done = True
        for i in range(n - 1):
            if values[i] > values[i + 1]:
                letters.append(i + 1)
                values[i], values[i + 1] = values[i + 1], values[i]
                done = False
                break
    return tuple(reversed(letters))


def contains_pattern_by_scan(w: pm.Perm, p: pm.Perm) -> bool:
    """Pattern containment by testing every subsequence of w of len(p)."""
    n, m = len(w), len(p)
    if m > n:
        return False
    for positions in combinations(range(n), m):
        vals = [w[j] for j in positions]
        if all((vals[a] < vals[b]) == (p[a] < p[b])
               for a in range(m) for b in range(a + 1, m)):
            return True
    return False


def bruhat_maximal_by_pairs(members) -> frozenset[pm.Perm]:
    """The members below no other member, comparing every pair."""
    return frozenset(
        w for w in members
        if not any(v != w and pm.bruhat_leq(w, v) for v in members))


def bruhat_maximal_by_covers(members) -> frozenset[pm.Perm]:
    """The members below no other member, for any set of permutations: the
    candidates are the members that no member covers, found by listing
    each member's covers, and a candidate is maximal iff it is the only
    one or lies below no other candidate."""
    member_set = set(members)
    candidates = [u for u in members
                  if not any(v in member_set for v in pm.bruhat_covers(u))]
    if len(candidates) == 1:
        return frozenset(candidates)
    return frozenset(
        w for w in candidates
        if not any(v != w and pm.bruhat_leq(w, v) for v in candidates))


def bruhat_ideal_by_subwords(w: pm.Perm) -> frozenset[pm.Perm]:
    """The principal Bruhat ideal of w as the values of all subwords of one
    reduced word of w (the subword property)."""
    word = pm.reduced_word(w)
    n = len(w)
    out = {pm.identity(n)}
    # evaluate all subwords incrementally
    partials: list[pm.Perm] = [pm.identity(n)]
    for letter in word:
        s = pm.simple_transposition(letter, n)
        extension = [pm.compose(value, s) for value in partials]
        out.update(extension)
        partials.extend(extension)
    return frozenset(out)


def projection_fibers_by_descent_scan(n: int) -> dict:
    """dcm.projection_fibers by a pass over pm.all_perms: each image the
    image of w with its first descent undone, found by a dict keyed by
    permutations, times one generator, and checked against an interval
    fill built from w's prefix maxima and suffix minima."""
    step = bm._column_or(n, range(n - 1))  # letters are generator positions
    image: dict[pm.Perm, int] = {}
    fibers: dict[bm.BoolMat, list[pm.Perm]] = {}
    for w in pm.all_perms(n):
        k = next((k for k in range(n - 1) if w[k] > w[k + 1]), None)
        if k is None:
            bits = bm.identity_mat(n).bits
        else:
            parent = w[:k] + (w[k + 1], w[k]) + w[k + 2:]
            bits = step(image[parent], k)
        image[w] = bits
        x = bm._interval_fill(pm.ltr_maxima(w), pm.rtl_minima(w))
        if x.bits != bits:
            raise dcm.InternalInconsistency(
                f"projection routes disagree for {pm.format_perm(w)}")
        fibers.setdefault(x, []).append(w)
    return {x: tuple(ws) for x, ws in fibers.items()}


# ---------------------------------------------------------------------------
# Monoid closure by multiplying every element by every generator.

def closure_by_every_product(generators, mul, identity, cap=None,
                             name="the monoid") -> MonoidTable:
    """The breadth-first closure that calls mul on all |M| k edges, with
    generate_monoid's numbering, tables, cap and cap message."""
    elements = [identity]
    index = {identity: 0}
    words = [()]
    parent = [0]
    right = []
    pos = 0
    while pos < len(elements):
        x = elements[pos]
        row = []
        for g, gen in enumerate(generators):
            y = mul(x, gen)
            j = index.get(y)
            if j is None:
                j = len(elements)
                if cap is not None and j >= cap:
                    raise MonoidCapExceeded(
                        f"closure of {name} exceeded cap of {cap} elements")
                index[y] = j
                elements.append(y)
                words.append(words[pos] + (g,))
                parent.append(pos)
            row.append(j)
        right.append(row)
        pos += 1
    gens = tuple(index[g] for g in generators) if generators else ()
    table = MonoidTable(elements=elements, index=index, gens=gens,
                        right=right, words=words, parent=parent,
                        left_columns=[])
    table.left_columns = left_columns(left_table_by_prefix_rule(table))
    return table


def left_table_by_prefix_rule(table: MonoidTable) -> list[list[int]]:
    """left[i][g] = index of generators[g] * elements[i], rebuilt from the
    right table alone by the prefix rule
    left[j][g] = right[left[parent[j]][g]][last letter of j],
    one right-table step per entry."""
    right = table.right
    left = [list(table.gens)]
    for p, word in zip(table.parent[1:], table.words[1:]):
        left.append([right[x][word[-1]] for x in left[p]])
    return left


def left_columns(left: list[list[int]]) -> list[list[int]]:
    """The columns of a left table, column g the products of generator g:
    none when the rows are empty."""
    return [list(column) for column in zip(*left)]


def closure_by_wrapping(n, gens, step, cap=None,
                        name="the monoid") -> MonoidTable:
    """The closure of the degree-n matrices with bits gens, run on the bits
    by step, with every element wrapped into a BoolMat and rehashed into a
    new index as soon as it returns."""
    table = generate_monoid(gens, step, bm.identity_mat(n).bits, cap, name)
    table.elements = [bm.from_bits(n, x) for x in table.elements]
    table.index = dict(zip(table.elements, table.index.values()))
    return table


# ---------------------------------------------------------------------------
# BoolMat helpers only the tests use.

def all_ones(n: int) -> bm.BoolMat:
    return bm.from_bits(n, (1 << (n * n)) - 1)


def enumerate_convex_by_reflexive_scan(n: int) -> Iterator[bm.BoolMat]:
    """All convex relations, by filtering all 2^(n^2 - n) reflexive
    matrices through bm.is_convex."""
    free_rows = []
    for i in range(n):
        diag = 1 << i
        free_rows.append([diag | m_lo | (m_hi << (i + 1))
                          for m_lo in range(1 << i)
                          for m_hi in range(1 << (n - i - 1))])
    for rows in product(*free_rows):
        m = bm.BoolMat(n, rows)
        if bm.is_convex(m):
            yield m


def column_support(a: bm.BoolMat, j: int) -> frozenset[int]:
    """The rows i with the entry (i, j) set."""
    return frozenset(i + 1 for i in range(a.n) if a.entry(i + 1, j))


def subset_leq(a: bm.BoolMat, b: bm.BoolMat) -> bool:
    """Entrywise containment of relations."""
    return a.bits & ~b.bits == 0


def to_json_dict(a: bm.BoolMat) -> dict:
    return {"n": a.n, "rows": bm.to_row_strings(a)}


def from_json_dict(data: dict) -> bm.BoolMat:
    mat = bm.from_row_strings(data["rows"])
    if mat.n != data["n"]:
        raise ValueError("degree field does not match rows")
    return mat


# ---------------------------------------------------------------------------
# Boolean matrices as row tuples: bit j-1 of rows[i-1] is the entry (i, j).

def mul_rows(arows: tuple[int, ...], brows: tuple[int, ...]) -> tuple[int, ...]:
    """The boolean product: row i ORs the rows of b that row i of a selects."""
    out = []
    for ra in arows:
        acc = 0
        r = ra
        while r:
            low = r & -r
            acc |= brows[low.bit_length() - 1]
            r ^= low
        out.append(acc)
    return tuple(out)


def union_rows(arows: tuple[int, ...], brows: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(x | y for x, y in zip(arows, brows))


def transpose_rows(rows: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sum(1 << i for i, r in enumerate(rows) if r >> j & 1)
                 for j in range(len(rows)))


def leq_rows(arows: tuple[int, ...], brows: tuple[int, ...]) -> bool:
    return all(x & ~y == 0 for x, y in zip(arows, brows))


def perm_rows(w: pm.Perm) -> tuple[int, ...]:
    """The rows of the permutation matrix with entry (w(j), j) = 1."""
    return tuple(sum(1 << j for j, v in enumerate(w) if v == i)
                 for i in range(1, len(w) + 1))


def entry_of_rows(rows: tuple[int, ...], i: int, j: int) -> int:
    return rows[i - 1] >> (j - 1) & 1


def is_block_all_ones_rows(rows: tuple[int, ...]) -> bool:
    """Block diagonal with every diagonal block entirely filled: row i is
    the block [i, hi) of columns, and so is every row below it up to hi."""
    i = 0
    while i < len(rows):
        row = rows[i]
        hi = row.bit_length()
        if hi <= i or row != (1 << hi) - (1 << i):
            return False
        if any(rows[k] != row for k in range(i, hi)):
            return False
        i = hi
    return True


# ---------------------------------------------------------------------------
# Convex relations read row by row, and the convex sampler by rng.randint.

def map_pair_by_rows(a) -> tuple[tuple, tuple] | None:
    """The (max, min) pair of the BoolMat a, None when it is not convex.

    A reflexive row is an interval [lo, hi) of columns exactly when it
    equals 2^hi - 2^lo, and it adds its bit to each of those columns, one
    entry at a time; every column then holds its diagonal bit, so only
    its interval test is left.
    """
    n, x, mask = a.n, a.bits, (1 << a.n) - 1
    cols = [0] * n
    for i in range(n):
        row = x >> (i * n) & mask
        lo = (row & -row).bit_length() - 1
        hi = row.bit_length()
        if not row >> i & 1 or row != (1 << hi) - (1 << lo):
            return None
        for j in range(lo, hi):
            cols[j] |= 1 << i
    for col in cols:
        if col & (col + (col & -col)):
            return None
    return (tuple(map(int.bit_length, cols)),
            tuple([(c & -c).bit_length() for c in cols]))


def random_convex_by_randint(n: int, rng: random.Random) -> tuple[tuple, tuple]:
    """A seeded (max, min) pair of a convex relation, one rng.randint per
    value."""
    alpha = []
    prev = 1
    for i in range(1, n + 1):
        alpha.append(rng.randint(max(prev, i), n))
        prev = alpha[-1]
    beta = []
    prev = 1
    for i in range(1, n + 1):
        beta.append(rng.randint(prev, i))
        prev = beta[-1]
    return tuple(alpha), tuple(beta)


# ---------------------------------------------------------------------------
# Coxeter tables, group products and Catalan quotients by composing tuples,
# parabolics by scanning words, foldings by the left table, double Catalan
# quotients by matrix products, and Bruhat order by descent sets.

def coxeter_tables_by_compose(gens) -> dict:
    """The closure of gens under cx._compose, one generator expression per
    product, as the CoxeterSystem fields it determines."""
    carrier = len(gens[0]) if gens else 0
    table = generate_monoid(gens, cx._compose, tuple(range(carrier)))
    return {"elements": table.elements,
            "words": table.words,
            "length": tuple(len(w) for w in table.words),
            "right": table.right,
            "left": table.left_table()}


def group_mul_by_compose(sys: cx.CoxeterSystem, i: int, j: int) -> int:
    """The group product of elements i and j: their carrier permutations
    composed, then looked up in the index."""
    return sys.index[cx._compose(sys.elements[i], sys.elements[j])]


def parabolic_by_word_scan(sys: cx.CoxeterSystem, J) -> cx.Parabolic:
    """The J-parabolic: the elements spelled in J, and the elements whose
    every J-neighbor on the right is shorter."""
    J = frozenset(J)
    members = tuple(i for i, word in enumerate(sys.words)
                    if J.issuperset(word))
    length, right = sys.length, sys.right
    max_reps = tuple(i for i in range(sys.order)
                     if all(length[right[i][s]] < length[i] for s in J))
    return cx.Parabolic(J=J, members=members, longest=members[-1],
                        max_reps=max_reps)


def folding_action_by_left_table(sys: cx.CoxeterSystem,
                                 para: cx.Parabolic) -> tuple:
    """The folding of the longest coset representatives by each generator,
    read from the whole left table of the group through cx.e_mul."""
    position = {w: k for k, w in enumerate(para.max_reps)}
    return tuple(tuple(position[cx.e_mul(sys, s, w, side="left")]
                       for w in para.max_reps)
                 for s in range(sys.rank))


def catalan_quotient_by_compose(sys: cx.CoxeterSystem, J) -> MonoidTable:
    """The Catalan quotient closed under cx._compose, one generator
    expression per product."""
    para = cx.parabolic(sys, J)
    return generate_monoid(cx.folding_action(sys, para), cx._compose,
                           tuple(range(len(para.max_reps))))


def double_catalan_quotient_by_mul(sys: cx.CoxeterSystem, J) -> MonoidTable:
    """The double Catalan quotient closed on BoolMats under bm.mul, each
    generator the identity OR a coset permutation matrix."""
    action = cx.coset_action(sys, J)
    m = len(action[0]) if action else 1
    gens = [bm.union(bm.identity_mat(m),
                     bm.from_perm([image + 1 for image in sigma]))
            for sigma in action]
    return generate_monoid(gens, bm.mul, bm.identity_mat(m))


def bruhat_leq_by_descent_sets(sys: cx.CoxeterSystem, u: int, w: int) -> bool:
    """Bruhat order by descent recursion, the least left descent of w read
    as the minimum of its left descent set."""
    if sys.length[u] > sys.length[w]:
        return False
    if u == w:
        return True
    if sys.length[w] == 0:
        return u == w
    s = min(sys.left_descents(w))
    sw = sys.left[w][s]
    su = sys.left[u][s]
    if sys.length[su] < sys.length[u]:
        return bruhat_leq_by_descent_sets(sys, su, sw)
    return bruhat_leq_by_descent_sets(sys, u, sw)


def hecke_mul_by_e_mul(sys: cx.CoxeterSystem, i: int, j: int) -> int:
    """The 0-Hecke product folded one letter of j's word at a time by the
    range-checking cx.e_mul."""
    for s in sys.words[j]:
        i = cx.e_mul(sys, s, i, side="right")
    return i


def union_actions_by_hecke_mul(sys: cx.CoxeterSystem, paras) -> list[tuple]:
    """Per element i, the tuple over paras of its images i * w of their
    longest coset representatives w, each by cx.hecke_mul."""
    return [tuple(tuple(cx.hecke_mul(sys, i, w) for w in para.max_reps)
                  for para in paras)
            for i in range(sys.order)]


# ---------------------------------------------------------------------------
# Nullspaces back-substituted in Fractions.

def nullspace_by_fractions(rows: list[list], ncols: int,
                           p: int | None = None) -> list[list]:
    """rm.nullspace from the same echelon form, back-substituted in
    Fractions: each pivot entry is -s / a exactly, then the vector is
    scaled by the lcm of its denominators and divided by the gcd of its
    entries, its leading entry made positive.  Mod p the pivot rows lead
    with 1, so the entry is p - s."""
    ech, pivots = rm._echelon(rows, p)
    basis = []
    for fc in sorted(set(range(ncols)) - set(pivots)):
        v: dict = {fc: 1}
        for row, pc in zip(reversed(ech), reversed(pivots)):
            s = sum(x * v[k] for k, x in row.items() if k in v)
            if p is not None:
                s %= p
            if s:
                v[pc] = Fraction(-s, row[pc]) if p is None else p - s
        if p is None:
            scale = 1
            for x in v.values():
                scale = lcm(scale, Fraction(x).denominator)
            ints = {k: int(x * scale) for k, x in v.items()}
            g = gcd(*ints.values())
            if ints[min(ints)] < 0:
                g = -g
            v = {k: x // g for k, x in ints.items()}
        basis.append([v.get(k, 0) for k in range(ncols)])
    return basis


# ---------------------------------------------------------------------------
# Hecke modules by dense matrices and column maps with None.

def compose_colmap(outer: rm.ColumnMap, inner: rm.ColumnMap) -> rm.ColumnMap:
    return tuple(None if v is None else outer[v] for v in inner)


def element_column_maps_by_fold(sys: cx.CoxeterSystem,
                                module: rm.HeckeModule) -> list[rm.ColumnMap]:
    """Each element's column map, None for the zero vector: its parent's
    map composed with the action of its last letter."""
    maps = [tuple(range(module.dim))] * sys.order
    for i in range(1, sys.order):
        s = sys.words[i][-1]
        maps[i] = compose_colmap(maps[sys.right[i][s]], module.action[s])
    return maps


def dense_matrix(module: rm.HeckeModule, s: int) -> list[list[int]]:
    """Dense 0/1 matrix of the s-th generator."""
    m = [[0] * module.dim for _ in range(module.dim)]
    for j, i in enumerate(module.action[s]):
        if i is not None:
            m[i][j] = 1
    return m


def socle_by_dense_rows(module: rm.HeckeModule, p=None) -> rm.SocleReport:
    """For each J, the nullspace of the rank * dim by dim system stacking
    e_t - 1 for t in J and e_t for t outside J."""
    rank, d = module.sys.rank, module.dim
    report = {}
    mats = [dense_matrix(module, t) for t in range(rank)]
    for mask in range(1 << rank):
        J = frozenset(s for s in range(rank) if mask >> s & 1)
        rows = []
        for t, mat in enumerate(mats):
            for i in range(d):
                row = list(mat[i])
                if t in J:
                    row[i] -= 1
                rows.append(row)
        basis = rm.nullspace(rows, d, p)
        if basis:
            report[J] = basis
    return report


def dc_min_dim_by_projection(n: int) -> dict:
    """The minimal effective module of the double Catalan monoid.

    Direct sum of the reduced projectives of the first and last generators
    of the degree-n symmetric system; the action is constant on projection
    fibers (checked), so it is a module over the quotient, of dimension
    2n - 2, and distinct quotient elements must act by distinct matrices.
    """
    if n < 2:
        raise ValueError("degree must be at least 2")
    sys = cx.type_a(n - 1)
    first = rm.drop_trivial_summand(rm.projective_module(sys, 0))[0]
    last = rm.drop_trivial_summand(rm.projective_module(sys, sys.rank - 1))[0]
    total = rm.direct_sum([first, last])
    maps = rm.element_column_maps(sys, total)
    by_image: dict = {}
    for i in range(sys.order):
        w = tuple(x + 1 for x in sys.elements[i])
        x = dcm.dc_of_perm(w)
        if by_image.setdefault(x, maps[i]) != maps[i]:
            raise RuntimeError("action does not factor through the projection")
    effective = len(set(by_image.values())) == len(by_image) == len(dcm.dc_monoid(n))
    return {"n": n, "dim": total.dim, "effective": effective}


# ---------------------------------------------------------------------------
# Three verify-all checks pair by pair: the references of the bitset checks.

def check_subset_realization_by_pairs(n_max: int,
                                      rng: random.Random) -> CheckResult:
    """subset-realization with each ideal a frozenset of indices, read off
    pm.bruhat_leq on every pair, and phi(x) s_i one index at a time."""
    name = "subset-realization"
    for n in range(1, min(n_max, 5) + 1):
        perms = list(pm.all_perms(n))
        idx = {w: k for k, w in enumerate(perms)}
        ideals = [frozenset(idx[u] for u in perms if pm.bruhat_leq(u, w))
                  for w in perms]
        if len(set(ideals)) != len(perms):
            return _fail(name, {"n": n, "reason": "ideal map not injective"})
        e = idx[pm.identity(n)]
        if ideals[e] != {e}:
            return _fail(name, {"n": n, "reason": "identity not fixed"})
        for i in range(1, n):
            times_s = [idx[pm.mul_simple_right(u, i)] for u in perms]
            for x, ideal in zip(perms, ideals):
                got = ideal.union([times_s[u] for u in ideal])
                if got != ideals[idx[hecke.gen_mul(i, x, side="right")]]:
                    return _fail(name, {"n": n, "x": pm.format_perm(x),
                                        "generator": i})
    return CheckResult(name, True, {"range": f"1..{min(n_max, 5)}"})


def cover_order_leq(alpha: pm.MonotoneMap, beta: pm.MonotoneMap) -> bool:
    """Order by chains of valley completions, pulled back through the path
    map: whether the path of beta is reachable from the path of alpha."""
    if len(alpha) != len(beta):
        raise ValueError("degree mismatch")
    reachable = _cover_reachable(dyck.valley_completions,
                                 dyck.map_to_path(tuple(alpha)))
    return dyck.map_to_path(tuple(beta)) in reachable


@lru_cache(maxsize=None)
def _cover_reachable(completions, path: dyck.DyckPath) -> frozenset:
    """Reflexive-transitive closure of completions, from path upward.  The
    cache is keyed by the completion rule too, so a patched
    dyck.valley_completions is never answered from an older rule's sets."""
    seen = {path}
    frontier = [path]
    while frontier:
        nxt = []
        for p in frontier:
            for q in completions(p):
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    return frozenset(seen)


def check_order_equivalence_by_pairs(n_max: int,
                                     rng: random.Random) -> CheckResult:
    """factor-order-covers by factor_order_leq and cover_order_leq on
    every pair of maps."""
    name = "factor-order-covers"
    for n in range(1, min(n_max, 5) + 1):
        maps = list(pm.all_nondecreasing_maps(n))
        for a in maps:
            for b in maps:
                if dyck.factor_order_leq(a, b) != cover_order_leq(a, b):
                    return _fail(name, {"n": n, "a": list(a), "b": list(b)})
    return CheckResult(name, True, {"range": f"1..{min(n_max, 5)}"})


def check_admissible_pairs_by_pairs(n_max: int,
                                    rng: random.Random) -> CheckResult:
    """admissible-pairs by is_admissible on every pair of paths."""
    name = "admissible-pairs"
    for n in range(1, min(n_max, 6) + 1):
        realized = dyck.brute_force_admissible_pairs(n)
        paths = dyck.all_dyck_paths(n)
        for p1 in paths:
            for p2 in paths:
                if dyck.is_admissible(p1, p2) != ((p1, p2) in realized):
                    return _fail(name, {"n": n, "first": p1, "second": p2})
    return CheckResult(name, True, {"range": f"1..{min(n_max, 6)}"})
