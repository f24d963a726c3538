"""
The double Catalan monoid: boolean matrices generated by thickened
transpositions.

The i-th generator is the identity matrix with the 2x2 block at rows and
columns i, i+1 filled; equivalently the semiring sum of the identity and
the i-th simple transposition.  The submonoid these generate inside the
binary relations consists of convex matrices and is the image of the
0-Hecke monoid under the projection sending the element of a permutation w
to the interval fill of (prefix maxima, suffix minima) of w.

The projection is computed by two independent routes, generator products
and interval fill, and the two must agree; a mismatch is an internal error,
never user error.

Fibers of the projection come from one depth-first sweep of the prefix
tree of S_n that keeps both routes: each node ORs one column into its
parent's partial fill, and each permutation takes one generator step from
the one with its first descent undone, found by its lexicographic rank.
Each fiber carries a unique 4321-avoiding member, also its Bruhat minimum;
its Bruhat-maximal members are exactly the 4231-avoiding ones, and fibers
are Bruhat convex.  The analogous statements for the one-sided projection
onto the non-decreasing Catalan monoid (321/312-avoiding witnesses, fibers
are Bruhat intervals) are implemented alongside.  Convexity and the
interval property are decided at the exits of a fiber, the permutations
outside it that cover one of its members in the Bruhat order.

The finite presentation (idempotency, distant commutation, braid moves,
plus one extra length 5 = 6 relation) is certified exactly: Todd-Coxeter
enumeration builds the presented monoid, and its table must match the
matrix closure generator for generator.
"""

from __future__ import annotations

import struct
from functools import lru_cache, reduce
from math import factorial
from operator import eq
from typing import Collection, Iterator, NamedTuple

from . import boolmat as bm
from . import permutations as pm
from .boolmat import BoolMat
from .monoid import (DEFAULT_CAP, MonoidCapExceeded, MonoidTable,
                     enumerate_presentation, gather, generate_monoid,
                     generators_match)
from .permutations import MonotoneMap, Perm, bruhat_covers


class InternalInconsistency(AssertionError):
    """The two computation routes for the projection disagreed."""


def generator(i: int, n: int) -> BoolMat:
    """The i-th monoid generator: identity plus the i-th simple transposition."""
    if not 1 <= i <= n - 1:
        raise ValueError(f"generator index {i} out of range for degree {n}")
    return bm.union(bm.identity_mat(n),
                    bm.from_perm(pm.simple_transposition(i, n)))


def generators(n: int) -> list[BoolMat]:
    return [generator(i, n) for i in range(1, n)]


def dc_of_perm(w: Perm) -> BoolMat:
    """The image of the 0-Hecke element of w in the double Catalan monoid.

    Computed both as the generator product along a reduced word of w, on
    the bits of the matrices, and as the interval fill of (prefix maxima,
    suffix minima); the routes must agree.
    """
    n = len(w)
    by_word = reduce(bm._column_or(n, range(1, n)), pm.reduced_word(w),
                     bm.identity_mat(n).bits)
    by_fill = bm._interval_fill(pm.ltr_maxima(w), pm.rtl_minima(w))
    if by_word != by_fill.bits:
        raise InternalInconsistency(
            f"projection routes disagree for {pm.format_perm(w)}")
    return by_fill


@lru_cache(maxsize=None)
def dc_monoid(n: int, cap: int = DEFAULT_CAP) -> bm.MatrixTable:
    """Closure table of the double Catalan monoid of degree n; a monoid of
    more than cap elements raises MonoidCapExceeded, naming DC_n.

    The closure runs on the bits of the matrices (see boolmat), where right
    multiplication by the i-th generator ORs columns i and i+1, so that no
    product hashes a BoolMat; the table keeps the bits and wraps its
    elements only when they are read, so the size and the Cayley tables
    cost no BoolMat.  The generators' bits are the identity's diagonal
    with the entries (i, i+1) and (i+1, i) set.
    """
    one = bm._spaced(n, n + 1)
    gens = [one | 1 << (i - 1) * n + i | 1 << i * n + i - 1
            for i in range(1, n)]
    return bm._closure(n, gens, bm._column_or(n, gens), cap, f"DC_{n}")


def _dc_orbit(n: int, cap: int = DEFAULT_CAP) -> set[bytes]:
    """The elements of DC_n as the orbit of the identity under right
    multiplication by the generators, each as its bits' bm._lane_bytes(n)
    little-endian bytes; an orbit of more than cap elements raises
    MonoidCapExceeded as dc_monoid does, before the level that would take
    it past cap joins it, and without the level's remaining generators
    once its products alone are past cap, so that a small cap bounds the
    memory at a large degree.

    One breadth-first level at a time: the level's bytes, joined, are one
    integer with a matrix to a lane, bm._column_or_lanes takes each
    generator's products of the whole level at once, and the products are
    split back into lanes by one struct call.  No numbering, words or
    Cayley rows are made, so it serves a caller that reads only the size.
    """
    width = bm._lane_bytes(n)
    one = bm._spaced(n, n + 1).to_bytes(width, "little")
    seen, level = {one}, [one]
    while level:
        count = len(level)
        x = int.from_bytes(b"".join(level), "little")
        split = struct.Struct(f"{width}s" * count).unpack
        found: set[bytes] = set()
        for y in bm._column_or_lanes(n, count, x):
            found.update(split(y.to_bytes(width * count, "little")))
            if len(found) > cap:  # the orbit is past cap already
                break
        found -= seen
        if len(seen) + len(found) > cap:
            raise MonoidCapExceeded(
                f"closure of DC_{n} exceeded cap of {cap} elements")
        seen |= found
        level = found
    return seen


def dc_size(n: int, cap: int = DEFAULT_CAP) -> int:
    """|DC_n|, the number of 4321-avoiding permutations of degree n
    (A005802), counted as the orbit _dc_orbit, with no closure table.

    >>> [dc_size(n) for n in range(7)]
    [1, 1, 2, 6, 23, 103, 513]
    """
    return len(_dc_orbit(n, cap))


def _capped(n: int, cap: int) -> bm.MatrixTable:
    """dc_monoid(n, cap), cached as dc_monoid(n) at the default cap."""
    return dc_monoid(n) if cap == DEFAULT_CAP else dc_monoid(n, cap)


def catalan_monoid(n: int) -> MonoidTable:
    """Closure table of the Catalan monoid of degree n: the non-decreasing
    maps generated by the prefix maxima of the simple transpositions.
    Right multiplication by a generator g, pm.compose_map(x, g), is one
    gather of x.

    >>> len(catalan_monoid(4))
    14
    """
    gens = [pm.ltr_maxima(pm.simple_transposition(i, n)) for i in range(1, n)]
    through = {g: gather([v - 1 for v in g]) for g in gens}
    return generate_monoid(gens, lambda x, g: through[g](x), pm.identity(n))


@lru_cache(maxsize=None)
def projection_fibers(n: int) -> dict[BoolMat, tuple[Perm, ...]]:
    """All fibers of the projection, keyed in lexicographic order of their
    first members, each listing its members in lexicographic order.

    One depth-first sweep of the prefix tree of S_n in lexicographic order
    (positions from 0) reads both routes, checking each image against its
    fill.  The fill's column j has top max w(0..j) and bottom min w(j..n-1),
    the least value not in w(0..j-1), so each node ORs one cell of
    bm._fill_cells into its parent's fill.  The projection is a monoid
    homomorphism from the 0-Hecke monoid: w with first descent k is v*s_k
    for v = w*s_k, lexicographically earlier and one shorter, so the image
    of w is the image of v times the k-th generator.  Images are listed by
    rank, the sum of c_i (n-1-i)! over the Lehmer digits c_i of w, c_i the
    index of w(i) among the values not yet placed.  k is the first i with
    c_i > c_(i+1), and undoing it swaps those digits and lowers the larger:
    rank(v) = rank(w) + (c_(k+1) - c_k) (n-1-k)! + (c_k - 1 - c_(k+1)) (n-2-k)!.
    """
    if n == 0:  # S_0 holds the empty permutation alone
        return {bm.identity_mat(0): ((),)}
    step = bm._column_or(n, range(n - 1))  # letters are generator positions
    cells = bm._fill_cells(n)
    last = cells[n - 1]
    fact = [factorial(i) for i in range(n)]
    identity = bm.identity_mat(n).bits
    image: list[int] = []  # by lexicographic rank
    fibers: dict[int, list[Perm]] = {}
    # A node: its prefix, the values not in it in increasing order, the
    # fill of its columns, its maximum, its last Lehmer digit (-1 at the
    # root), and once the prefix has a descent, the first one k and
    # rank(v) - rank(w).  Children are pushed last first, so they pop in
    # lexicographic order.
    stack = [((), tuple(range(1, n + 1)), 0, 0, -1, None, 0)]
    pop, push = stack.pop, stack.append
    while stack:
        prefix, rest, fill, top, digit, k, offset = pop()
        if len(rest) == 1:  # w's last value, with digit 0, is forced
            w = prefix + rest
            fill |= last[rest[0]][n]
            if k is None and digit > 0:
                k, offset = n - 2, -1  # v is the permutation just before w
            bits = identity if k is None else step(image[len(image) + offset],
                                                   k)
            if bits != fill:
                raise InternalInconsistency(
                    f"projection routes disagree for {pm.format_perm(w)}")
            image.append(fill)  # equal to bits; shares the key's integer
            fibers.setdefault(fill, []).append(w)
            continue
        j = len(prefix)
        row = cells[j][rest[0]]
        for c in range(len(rest) - 1, -1, -1):
            v = rest[c]
            t = v if v > top else top
            if k is None and c < digit:  # the first descent, at j - 1
                push((prefix + (v,), rest[:c] + rest[c + 1:], fill | row[t],
                      t, c, j - 1, (c - digit) * fact[n - j]
                      + (digit - 1 - c) * fact[n - 1 - j]))
            else:
                push((prefix + (v,), rest[:c] + rest[c + 1:], fill | row[t],
                      t, c, k, offset))
    return {bm.from_bits(n, x): tuple(ws) for x, ws in fibers.items()}


def fiber(x: BoolMat) -> tuple[Perm, ...]:
    """All permutations whose projection is x; raises ValueError when x is
    not in the monoid."""
    members = projection_fibers(x.n).get(x, ())
    if not members:
        raise ValueError("matrix is not an element of the double Catalan monoid")
    return members


def _bruhat_convex(members: Collection[Perm], tops: Collection[Perm]) -> bool:
    """Whether members are convex in the Bruhat order, given tops among them
    with every member below some top.

    Decided at the exits, the permutations outside members that cover one
    of them: members are convex iff no exit lies below a top.  If u <= v <= w
    with u and w members and v not, a maximal chain from u to v leaves the
    members at an exit, and that exit lies below w, hence below a top.
    """
    member_set = set(members)
    exits = {v for u in member_set for v in bruhat_covers(u)
             if v not in member_set}
    return not any(pm.bruhat_leq(v, w) for v in exits for w in tops)


_P4321 = (4, 3, 2, 1)
_P4231 = (4, 2, 3, 1)


class FiberReport(NamedTuple):
    tau: Perm                      # the unique 4321-avoiding member, Bruhat least
    maximal: frozenset[Perm]       # Bruhat-maximal members, all 4231-avoiding
    convex: bool


def _bruhat_maximal(members: tuple[Perm, ...]) -> frozenset[Perm]:
    """The members below no other member in the Bruhat order, for members
    a whole fiber of the projection.

    The candidates are the members with no upper cover in the fiber.
    Climbing covers inside the fiber from any member ends at a candidate,
    so every member lies below one; hence a single candidate is the
    maximum, and otherwise a candidate is maximal iff it lies below no
    other candidate.  A cover u*(i j), i < j, of u (u(i) < u(j) and no
    value between them at the positions between) has the same prefix
    maxima as u iff max u(0..i-1) > u(j), and the same suffix minima iff
    min u(j+1..) < u(i): the swap then moves no record.  All members share
    both, as they share the projection, so the test reads u alone; the
    rule needs the whole fiber, as a cover that passes it lies in the
    fiber whether or not it was passed in.
    """
    tops, bottoms = pm.ltr_maxima(members[0]), pm.rtl_minima(members[0])
    candidates = [u for u in members
                  if not _has_cover_in_fiber(u, tops, bottoms)]
    if len(candidates) == 1:
        return frozenset(candidates)
    return frozenset(
        w for w in candidates
        if not any(v != w and pm.bruhat_leq(w, v) for v in candidates))


def _has_cover_in_fiber(u: Perm, tops: MonotoneMap,
                        bottoms: MonotoneMap) -> bool:
    """Whether a Bruhat cover of u has the prefix maxima tops and suffix
    minima bottoms of u (see _bruhat_maximal)."""
    n = len(u)
    for i in range(1, n - 2):
        low = u[i]
        # the least value above low seen since i, below the maximum before
        # i, which a cover's u(j) must stay under
        ceiling = tops[i - 1]
        for j in range(i + 1, n - 1):
            if low < u[j] < ceiling:
                if bottoms[j + 1] < low:
                    return True
                ceiling = u[j]
    return False


def fiber_analysis(x: BoolMat) -> FiberReport:
    """Structure of one projection fiber; uniqueness failures raise."""
    members = fiber(x)
    avoiders = [w for w in members if pm.avoids(w, _P4321)]
    if len(avoiders) != 1:
        raise InternalInconsistency(
            f"fiber has {len(avoiders)} 4321-avoiding members")
    tau = avoiders[0]
    if not all(pm.bruhat_leq(tau, w) for w in members):
        raise InternalInconsistency("4321-avoiding member is not the minimum")
    maximal = _bruhat_maximal(members)
    if maximal != frozenset(w for w in members if pm.avoids(w, _P4231)):
        raise InternalInconsistency(
            "maximal members are not exactly the 4231-avoiding ones")
    convex = _bruhat_convex(members, maximal)
    return FiberReport(tau=tau, maximal=maximal, convex=convex)


def first_multimaximal_fiber(n: int) -> tuple[BoolMat, frozenset[Perm]] | None:
    """First fiber (in closure order) of degree n with several maximal members.

    The smallest degree admitting one is 7, where a single fiber has the
    two maximal members 5276143 and 5472163.
    """
    table = dc_monoid(n)
    fibers = projection_fibers(n)
    for x in table.elements:
        members = fibers[x]
        if len(members) > 1:  # a fiber of one member is its one maximum
            maximal = _bruhat_maximal(members)
            if len(maximal) > 1:
                return x, maximal
    return None


class CatalanFiberReport(NamedTuple):
    pi: Perm        # unique 321-avoiding member, Bruhat least
    pi_prime: Perm  # unique 312-avoiding member, Bruhat greatest
    interval: bool  # fiber equals the Bruhat interval [pi, pi_prime]


def _maxima_fiber(alpha: MonotoneMap) -> list[Perm]:
    """The permutations with prefix maxima alpha, a non-decreasing map, in
    lexicographic order: each record position of alpha takes its value, and
    every other position any unused value below the running maximum."""
    n = len(alpha)
    used = [False] * (n + 1)

    def rec(prefix: list[int]) -> Iterator[Perm]:
        i = len(prefix)
        if i == n:
            yield tuple(prefix)
            return
        top = alpha[i]
        record = i == 0 or top > alpha[i - 1]
        for v in (top,) if record else range(1, top):
            if not used[v]:
                used[v] = True
                prefix.append(v)
                yield from rec(prefix)
                prefix.pop()
                used[v] = False

    return list(rec([]))


def catalan_fiber_analysis(alpha: MonotoneMap) -> CatalanFiberReport:
    """Structure of the fiber of one prefix-maxima value."""
    pi = pm.min_perm_with_maxima(alpha)
    members = _maxima_fiber(alpha)
    if pm.ltr_maxima(pi) != tuple(alpha) or not pm.avoids(pi, (3, 2, 1)):
        raise InternalInconsistency("recursion witness invalid")
    if [w for w in members if pm.avoids(w, (3, 2, 1))] != [pi]:
        raise InternalInconsistency("321-avoiding member not unique")
    primes = [w for w in members if pm.avoids(w, (3, 1, 2))]
    if len(primes) != 1:
        raise InternalInconsistency("312-avoiding member not unique")
    pi_prime = primes[0]
    if not all(pm.bruhat_leq(pi, w) and pm.bruhat_leq(w, pi_prime)
               for w in members):
        raise InternalInconsistency("fiber not bounded by its witnesses")
    # every member lies in [pi, pi_prime], so the fiber is that interval
    # iff it is convex
    interval = _bruhat_convex(members, (pi_prime,))
    return CatalanFiberReport(pi=pi, pi_prime=pi_prime, interval=interval)


# ---------------------------------------------------------------------------
# Self-dual elements and idempotents.

def is_symmetric(x: BoolMat) -> bool:
    return bm.transpose(x) == x


def _transposes(table: bm.MatrixTable) -> list[int]:
    """t[j], the index of the transpose of element j, for every element of
    a closure table of DC_n.

    The transpose is an anti-automorphism, (xy)^T = y^T x^T, and it fixes
    every generator, so the transpose of j = parent[j] * g is
    g * parent[j]^T: one read of the closure's left column g.  One pass in
    closure order, where a parent comes before its children, makes them
    all; only the generators are transposed as matrices, and one that is
    not symmetric raises InternalInconsistency.
    """
    n, bits = table.n, table.bits
    if any(bm._transpose_bits(n, bits[g]) != bits[g] for g in table.gens):
        raise InternalInconsistency(f"a generator of DC_{n} is not symmetric")
    left, t = table.left_columns, [0]
    for p, g in table._steps():
        t.append(left[g][t[p]])
    return t


def self_dual_count(n: int, cap: int = DEFAULT_CAP) -> int:
    """Number of symmetric elements; equals the n-th Motzkin number.
    Counted as the fixed points of the transpose map _transposes, so no
    element but the generators is transposed and no BoolMat is made."""
    t = _transposes(_capped(n, cap))
    return sum(map(eq, t, range(len(t))))


def motzkin_number(k: int) -> int:
    """Motzkin numbers by the convolution recurrence, M_0 = M_1 = 1."""
    m = [1, 1]
    while len(m) <= k:
        prev = len(m) - 1
        m.append(m[prev] + sum(m[i] * m[prev - 1 - i] for i in range(prev)))
    return m[k]


def is_block_all_ones(x: BoolMat) -> bool:
    """Block diagonal with every diagonal block entirely filled.

    The first row i of each block reads off its columns [i, hi); the
    matrix must then be the union of the all-ones squares on those blocks."""
    n, bits, mask = x.n, x.bits, (1 << x.n) - 1
    blocks = i = 0
    while i < n:
        row = bits >> (i * n) & mask
        hi = row.bit_length()
        if hi <= i or row != (1 << hi) - (1 << i):
            return False
        blocks |= row * bm._spaced(hi - i, n) << (i * n)
        i = hi
    return blocks == bits


def dc_idempotents(n: int) -> list[BoolMat]:
    """All idempotents of the monoid; block all-ones matrices, 2^(n-1) many.
    Only they are wrapped, from the table's bits."""
    table = dc_monoid(n)
    return [bm.from_bits(n, table.bits[i]) for i in table.idempotent_indices()]


# ---------------------------------------------------------------------------
# Presentation certificate by coset enumeration.

def presentation_relations(n: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Defining relation pairs on letters 1..n-1 (words as letter tuples)."""
    rels = []
    for i in range(1, n):
        rels.append(((i, i), (i,)))
    for i in range(1, n):
        for j in range(i + 2, n):
            rels.append(((i, j), (j, i)))
    for i in range(1, n - 1):
        rels.append(((i, i + 1, i), (i + 1, i, i + 1)))
    for i in range(1, n - 2):
        rels.append(((i, i + 1, i + 2, i + 1, i),
                     (i, i + 1, i + 2, i, i + 1, i)))
    return rels


class PresentationReport(NamedTuple):
    presented_size: int
    matches: bool


def verify_presentation(n: int, cap: int = DEFAULT_CAP) -> PresentationReport:
    """Certify that the relation list presents the degree-n monoid.

    Todd-Coxeter enumeration closes the presented monoid into a table; the
    map sending each presented generator to the matching matrix generator
    extends to an isomorphism onto the closure of the matrices exactly when
    generators_match holds, so a match is a proof, not a bounded search.
    The cap bounds both closures, the enumeration's by its live nodes.
    """
    if n < 2:
        raise ValueError("presentation needs at least one generator")
    table = _capped(n, cap)
    rels = [(tuple(x - 1 for x in lhs), tuple(x - 1 for x in rhs))
            for lhs, rhs in presentation_relations(n)]
    presented = enumerate_presentation(n - 1, rels, cap,
                                       f"the DC_{n} presentation")
    return PresentationReport(presented_size=len(presented),
                              matches=generators_match(presented, table))
