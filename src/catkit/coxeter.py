"""
Finite Coxeter systems as concrete permutation groups, with the 0-Hecke
arithmetic and parabolic coset combinatorics built on top.

A system is materialized from involutive generator permutations on a finite
carrier set.  Built-in families: type A (rank k acting on k+1 points),
type B (rank k on 2k signed points, the last generator flipping a sign) and
the dihedral types (rank 2 on the vertices of a polygon).  generate_monoid
closes the generators, numbering elements by length with shortest, hence
reduced, words: lengths are word lengths and the longest element is the
last one.  The system is that closure table, whose product is the group
product.  Descent sets and the conjugation by the longest element are read
off the tables.

A parabolic subgroup here is always standard (generated by a subset J of
the generators).  Each left coset has a unique longest representative,
characterized by its right descent set containing J, and the 0-Hecke
product with the parabolic's top idempotent projects any element onto its
coset's longest representative.  On those representatives the generators
act by foldings, giving the generalized Catalan quotient (a monoid of
non-decreasing transformations of the coset poset) and, through the
boolean matrices of the coset action, the generalized double Catalan
quotient.
"""

from __future__ import annotations

from functools import partial
from math import lcm
from typing import NamedTuple

from . import boolmat as bm
from .monoid import DEFAULT_CAP, MonoidTable, gather, generate_monoid

CarrierPerm = tuple[int, ...]  # permutation of 0..m-1, value at index


def _compose(u: CarrierPerm, w: CarrierPerm) -> CarrierPerm:
    return tuple(u[x] for x in w)


def _perm_order(p: CarrierPerm) -> int:
    """The order of p: the least common multiple of its cycle lengths."""
    order, seen = 1, set()
    for start in range(len(p)):
        k, x = 0, start
        while x not in seen:  # walk each cycle once, from its least point
            seen.add(x)
            x, k = p[x], k + 1
        if k:
            order = lcm(order, k)
    return order


class CoxeterError(ValueError):
    pass


class CoxeterSystem(MonoidTable):
    """A finite Coxeter group as its closure table, whose product is the
    group product, with the Coxeter data beside it; equal only to itself."""
    __slots__ = ("name", "gen_perms", "matrix", "length", "descent_mask",
                 "support_mask")

    def __repr__(self) -> str:
        tables = (tuple(self.elements), self.length, tuple(self.words),
                  tuple(map(tuple, self.right)), tuple(map(tuple, self.left)))
        return ("CoxeterSystem(name=%r, gen_perms=%r, matrix=%r, elements=%r, "
                "length=%r, words=%r, right=%r, left=%r)"
                % ((self.name, self.gen_perms, self.matrix) + tables))

    @property
    def left(self) -> list[list[int]]:
        """left[i][s] is the index of s * elements[i]: the table's
        left_table(), the transpose of its left columns."""
        return self.left_table()

    @property
    def rank(self) -> int:
        return len(self.gen_perms)

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def longest(self) -> int:
        """Index of the longest element, the last in closure order."""
        return self.order - 1

    def right_descents(self, i: int) -> frozenset[int]:
        return frozenset(s for s in range(self.rank)
                         if self.length[self.right[i][s]] < self.length[i])

    def left_descents(self, i: int) -> frozenset[int]:
        return frozenset(s for s, column in enumerate(self.left_columns)
                         if self.length[column[i]] < self.length[i])

    def longest_conjugation(self) -> tuple[int, ...]:
        """The permutation s -> w0 s w0 of generator positions."""
        w0 = self.longest
        return tuple(self.gens.index(self.product(self.product(w0, g), w0))
                     for g in self.gens)


def coxeter_system(gen_perms: list[CarrierPerm],
                   matrix: list[list[int]] | None = None,
                   cap: int = DEFAULT_CAP, name: str = "") -> CoxeterSystem:
    """Build the full element table of the group generated by gen_perms.

    The generators must be involutions and, when a Coxeter matrix is given,
    the product orders must realize it exactly.
    """
    gens = tuple(tuple(g) for g in gen_perms)
    r = len(gens)
    carrier = len(gens[0]) if gens else 0
    if any(len(g) != carrier for g in gens):
        raise CoxeterError("generators act on different carriers")
    for s, g in enumerate(gens):
        if sorted(g) != list(range(carrier)):
            raise CoxeterError(f"generator {s} is not a permutation")
        if _compose(g, g) != tuple(range(carrier)):
            raise CoxeterError(f"generator {s} is not an involution")
    orders = [[1 if s == t else _perm_order(_compose(gens[s], gens[t]))
               for t in range(r)] for s in range(r)]
    if matrix is not None:
        given = [list(row) for row in matrix]
        if given != orders:
            raise CoxeterError(
                f"generators do not satisfy the Coxeter matrix: "
                f"got orders {orders}")

    # x * g is x read through g: one gather per product
    act = {g: gather(g) for g in gens}
    table = generate_monoid(gens, lambda x, g: act[g](x),
                            tuple(range(carrier)), cap,
                            f"the {name} Coxeter group" if name
                            else "the Coxeter group")
    length = tuple(len(w) for w in table.words)  # closure words are reduced
    if len(length) > 1 and length[-1] == length[-2]:
        raise CoxeterError("longest element is not unique; group not Coxeter?")
    system = CoxeterSystem(table.elements, table.index, table.gens,
                           table.right, table.words, table.parent,
                           table.left_columns)
    system.name, system.gen_perms = name, gens
    system.matrix = tuple(tuple(row) for row in orders)
    system.length = length
    # per element, bit s set iff s is a right descent / a word letter
    system.descent_mask = tuple(
        sum(1 << s for s, j in enumerate(row) if length[j] < length[i])
        for i, row in enumerate(table.right))
    support_mask = [0]
    for p, word in zip(table.parent[1:], table.words[1:]):
        support_mask.append(support_mask[p] | 1 << word[-1])
    system.support_mask = tuple(support_mask)
    return system


def type_a(rank: int, cap: int = DEFAULT_CAP) -> CoxeterSystem:
    """Symmetric group of degree rank+1 acting on rank+1 points."""
    n = rank + 1
    gens = []
    for i in range(rank):
        p = list(range(n))
        p[i], p[i + 1] = p[i + 1], p[i]
        gens.append(tuple(p))
    return coxeter_system(gens, cap=cap, name=f"A{rank}")


def type_b(rank: int, cap: int = DEFAULT_CAP) -> CoxeterSystem:
    """Hyperoctahedral group on 2*rank signed points; order 2^rank * rank!."""
    if rank < 1:
        raise CoxeterError("type B needs rank at least 1")
    m = 2 * rank
    gens = []
    for i in range(rank - 1):
        p = list(range(m))
        p[i], p[i + 1] = p[i + 1], p[i]
        p[rank + i], p[rank + i + 1] = p[rank + i + 1], p[rank + i]
        gens.append(tuple(p))
    p = list(range(m))
    p[rank - 1], p[2 * rank - 1] = p[2 * rank - 1], p[rank - 1]
    gens.append(tuple(p))
    return coxeter_system(gens, cap=cap, name=f"B{rank}")


def dihedral(m: int, cap: int = DEFAULT_CAP) -> CoxeterSystem:
    """The dihedral system of order 2m on the 2m vertices of a polygon."""
    if m < 2:
        raise CoxeterError("dihedral parameter must be at least 2")
    pts = 2 * m
    s = tuple((1 - v) % pts for v in range(pts))
    t = tuple((-1 - v) % pts for v in range(pts))
    return coxeter_system([s, t], cap=cap, name=f"I2({m})")


def from_type_string(text: str, cap: int = DEFAULT_CAP) -> CoxeterSystem:
    """Parse "A4", "B3", "I2:6" or "I2(6)" into a built system."""
    text = text.strip()
    if text.startswith("I2"):
        family, token = "I2", text[2:].lstrip(":(").rstrip(")")
    else:
        family, token = text[:1].upper(), text[1:]
    build = {"A": type_a, "B": type_b, "I2": dihedral}.get(family)
    if build is None or not token.isdecimal():
        raise CoxeterError(f"unknown type string {text!r}")
    return build(int(token), cap=cap)


# ---------------------------------------------------------------------------
# 0-Hecke arithmetic on element indices.

def e_mul(sys: CoxeterSystem, s: int, i: int, side: str = "left") -> int:
    """Fold by the s-th generator: move to the longer neighbor or stay."""
    if not 0 <= s < sys.rank:
        raise ValueError(f"generator {s} out of range")
    j = sys.left_columns[s][i] if side == "left" else sys.right[i][s]
    return j if sys.length[j] > sys.length[i] else i


def hecke_mul(sys: CoxeterSystem, i: int, j: int) -> int:
    """0-Hecke product, folding j's reduced word into i on the right: each
    letter s moves the product to its right neighbor by s in sys.right
    when that is longer, and leaves it otherwise."""
    right, length = sys.right, sys.length
    cur = i
    for s in sys.words[j]:
        nxt = right[cur][s]
        if length[nxt] > length[cur]:
            cur = nxt
    return cur


def bruhat_leq(sys: CoxeterSystem, u: int, w: int) -> bool:
    """Bruhat order by descent recursion on reduced words: for the least
    left descent s of w, u <= w iff su <= sw when s is a left descent of
    u, and u <= sw otherwise."""
    length, columns = sys.length, sys.left_columns
    while length[u] <= length[w]:
        if u == w:
            return True
        # w is not the identity here, so it has a left descent
        s_times = next(c for c in columns if length[c[w]] < length[w])
        su = s_times[u]
        if length[su] < length[u]:
            u = su
        w = s_times[w]
    return False


def bruhat_ideals(sys: CoxeterSystem) -> list[int]:
    """The whole Bruhat order in one pass: bit u of entry w is set iff
    u <= w.

    For a left descent s of w, [e, w] is [e, sw] together with its image
    under left multiplication by s (the subword property, Björner and
    Brenti, Combinatorics of Coxeter Groups, Thm 2.2.2).  The first letter
    s of w's closure word is such a descent, and sw, the word without it,
    comes earlier in closure order, so each ideal is one union of an
    earlier ideal and its image, read through left_columns[s].  Meant for
    whole-order reads of small groups, where bruhat_leq answers single
    queries:

    >>> [ideal.bit_count() for ideal in bruhat_ideals(type_a(2))]
    [1, 2, 2, 4, 4, 6]
    """
    ideals = [1]  # the identity's ideal is itself
    for w in range(1, sys.order):
        column = sys.left_columns[sys.words[w][0]]
        below = ideals[column[w]]
        moved, rest = 0, below
        while rest:
            low = rest & -rest
            moved |= 1 << column[low.bit_length() - 1]
            rest ^= low
        ideals.append(below | moved)
    return ideals


# ---------------------------------------------------------------------------
# Parabolic subgroups and cosets.

class Parabolic(NamedTuple):
    J: frozenset[int]
    members: tuple[int, ...]    # element indices of the subgroup
    longest: int                # index of the subgroup's longest element
    max_reps: tuple[int, ...]   # longest coset representatives, table order


def parabolic(sys: CoxeterSystem, J: frozenset[int] | set[int]) -> Parabolic:
    J = frozenset(J)
    if any(not 0 <= s < sys.rank for s in J):
        raise ValueError("generator index out of range")
    mask = sum(1 << s for s in J)
    # All reduced words of an element use the same letters, and closure
    # words are reduced, so the subgroup is the elements spelled in J; the
    # last of them in closure order is the longest.  The longest coset
    # representatives are the elements whose right descents contain J
    # (Björner and Brenti, Combinatorics of Coxeter Groups, Prop. 2.4.4).
    member_tuple = tuple(i for i, m in enumerate(sys.support_mask)
                         if m | mask == mask)
    max_reps = tuple(i for i, m in enumerate(sys.descent_mask)
                     if m & mask == mask)
    return _checked(sys, J, member_tuple, max_reps)


def _checked(sys: CoxeterSystem, J: frozenset[int], members: tuple[int, ...],
             max_reps: tuple[int, ...]) -> Parabolic:
    """The parabolic on J with these members and longest coset
    representatives, both in table order, which must number one per coset."""
    if len(max_reps) * len(members) != sys.order:
        raise RuntimeError("coset representative count inconsistent")
    return Parabolic(J=J, members=members, longest=members[-1],
                     max_reps=max_reps)


def coset_max_rep(sys: CoxeterSystem, para: Parabolic, i: int) -> int:
    """The longest element of the coset of element i modulo the parabolic,
    computed as the 0-Hecke product with the parabolic's top idempotent."""
    return hecke_mul(sys, i, para.longest)


def cosets(sys: CoxeterSystem, J: frozenset[int] | set[int]) -> tuple[
        tuple[frozenset[int], ...], tuple[int, ...]]:
    """Left cosets modulo the J-parabolic.

    Returned as (coset member sets, coset id per element); cosets are
    numbered by first appearance when scanning elements in table order,
    i.e. breadth-first by minimal coset length.
    """
    para = parabolic(sys, J)
    coset_id = [-1] * sys.order
    sets: list[frozenset[int]] = []
    for i in range(sys.order):
        if coset_id[i] >= 0:
            continue
        members = frozenset(sys.product(i, u) for u in para.members)
        cid = len(sets)
        sets.append(members)
        for x in members:
            coset_id[x] = cid
    return tuple(sets), tuple(coset_id)


def coset_action(sys: CoxeterSystem, J: frozenset[int] | set[int]) -> list[CarrierPerm]:
    """For each generator, its left-multiplication permutation of the cosets."""
    sets, coset_id = cosets(sys, J)
    out = []
    for s in range(sys.rank):
        images = []
        for members in sets:
            rep = next(iter(members))
            images.append(coset_id[sys.left_columns[s][rep]])
        out.append(tuple(images))
    return out


def maximal_parabolics(sys: CoxeterSystem) -> tuple[Parabolic, ...]:
    """The parabolic on every generator but s, for each generator s, as
    parabolic makes them, from one pass over the support and descent masks.

    An element lies in the parabolic of s when s is missing from its
    support, and is a longest coset representative for it when its right
    descents hold every generator but s: all of them, for every s, or all
    but s itself.
    """
    rank = sys.rank
    every = (1 << rank) - 1
    members: list[list[int]] = [[] for _ in range(rank)]
    max_reps: list[list[int]] = [[] for _ in range(rank)]
    # the generators a mask lacks, for the masks met so far
    absent: dict[int, tuple[int, ...]] = {}
    # the s whose representatives a descent mask makes
    reps_of = {every ^ 1 << s: (s,) for s in range(rank)}
    reps_of[every] = tuple(range(rank))
    for i, (support, descents) in enumerate(zip(sys.support_mask,
                                                sys.descent_mask)):
        if support != every:
            gone = absent.get(support)
            if gone is None:
                gone = absent[support] = tuple(
                    s for s in range(rank) if not support >> s & 1)
            for s in gone:
                members[s].append(i)
        for s in reps_of.get(descents, ()):
            max_reps[s].append(i)
    return tuple(_checked(sys, frozenset(range(rank)) - {s},
                          tuple(members[s]), tuple(max_reps[s]))
                 for s in range(rank))


def vertex_count(sys: CoxeterSystem,
                 paras: tuple[Parabolic, ...] | None = None) -> int:
    """Sum of the indices of the maximal parabolic subgroups, read from
    paras, the maximal_parabolics(sys), when they are given."""
    if paras is None:
        paras = maximal_parabolics(sys)
    return sum(sys.order // len(para.members) for para in paras)


# ---------------------------------------------------------------------------
# Generalized Catalan and double Catalan quotients.

def folding_action(sys: CoxeterSystem,
                   para: Parabolic) -> tuple[tuple[int, ...], ...]:
    """For each generator, its left folding of the longest coset
    representatives, as a map of their positions in para.max_reps.  Each
    s w is the product of s and w along w's word, so no left table of the
    whole group is built."""
    position = {w: k for k, w in enumerate(para.max_reps)}
    length = sys.length
    action = []
    for g in sys.gens:
        row = []
        for w in para.max_reps:
            sw = sys.product(g, w)
            row.append(position[sw if length[sw] > length[w] else w])
        action.append(tuple(row))
    return tuple(action)


def catalan_quotient(sys: CoxeterSystem,
                     J: frozenset[int] | set[int]) -> MonoidTable:
    """The transformation monoid of the folding action on the longest coset
    representatives (equivalently on the left ideal of the J idempotent)."""
    para = parabolic(sys, J)
    action = folding_action(sys, para)
    act = {g: gather(g) for g in action}  # x * g is x read through g
    return generate_monoid(action, lambda x, g: act[g](x),
                           tuple(range(len(para.max_reps))))


def double_catalan_quotient(sys: CoxeterSystem,
                            J: frozenset[int] | set[int]) -> MonoidTable:
    """Boolean-matrix monoid generated by identity + coset permutation, one
    generator per Coxeter generator, acting on the cosets of the J-parabolic.
    The closure runs on the bits of the matrices (see boolmat)."""
    action = coset_action(sys, J)
    m = len(action[0]) if action else 1
    gens = [bm.identity_mat(m).bits
            | bm.from_perm([image + 1 for image in sigma]).bits
            for sigma in action]
    return bm._closure(m, gens, partial(bm._mul_bits, m))
